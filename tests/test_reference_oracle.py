"""Differential tests against the independent model in perfbench/reference.py.

The reference is written from the equations, not from the program's code:
it reads checkpoints with its own parser, builds explicit one-hot inputs and
runs each sentence for exactly its length.  Hypothesis draws the layer
sizes, weights scaled up far enough that some gates saturate, and sets of
sentences of mixed lengths; the forward pass, the loss, the validation error
and the one-missing accuracy must all agree with it.

The gradients of ``backward`` are checked against complex-step derivatives
of the training objective through the reference's cell and head: with
h = 1e-30, Im f(theta + ih e_k) / h is df/dtheta_k to rounding, since no
difference of two values is taken (Squire & Trapp 1998, SIAM Review 40(1)).
So every coordinate must agree to a relative 1e-9, not the 1e-4 that
central differences allow.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanloss.corpus import Sample, pad_batch
from tanloss.evaluation import evaluate
from tanloss.losses import batch_error, tangent_loss, tangent_loss_grad
from tanloss.network import (Checkpoint, ModelSizes, backward, forward, init_params,
                             save_checkpoint)

_path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_spec = importlib.util.spec_from_file_location("perfbench_reference", _path)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


@st.composite
def cases(draw):
    """Sizes, parameters and labelled sentences: (params, samples, text vocab)."""
    sizes = ModelSizes(
        input_dim=draw(st.integers(2, 8)), verb_dim=draw(st.integers(1, 4)),
        state_dim=draw(st.integers(1, 4)), gru1_hidden=draw(st.integers(1, 5)),
        gru2_hidden=draw(st.integers(1, 4)), head_hidden=draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = init_params(sizes, seed=0)
    # Biases too; at the larger scales many gates sit at 0 or 1.
    params.data[:] = draw(st.sampled_from([0.3, 1.0, 4.0, 12.0])) * rng.standard_normal(
        params.data.size)
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=7))
    samples = [Sample(tokens=rng.integers(0, sizes.input_dim, size=n).tolist(),
                      verb_label=(rng.random(sizes.verb_dim) < 0.5).astype(float),
                      state_label=(rng.random(sizes.state_dim) < 0.5).astype(float))
               for n in lengths]
    return params, samples, [f"t{i}" for i in range(sizes.input_dim)]


def reference_outputs(params, samples, text_vocab, path):
    """The reference's (verb, state) outputs for the checkpoint of ``params``."""
    save_checkpoint(Checkpoint(params=params, epoch=0, best_val_error=np.inf, seeds={}), path)
    arrays, _ = reference.read_checkpoint(path)
    return reference.predict(arrays, text_vocab,
                             [[text_vocab[t] for t in s.tokens] for s in samples])


@settings(max_examples=30, deadline=None)
@given(cases())
def test_program_agrees_with_the_reference(tmp_path_factory, case):
    params, samples, text_vocab = case
    ref_verb, ref_state = reference_outputs(params, samples, text_vocab,
                                            tmp_path_factory.mktemp("oracle") / "m.bin")
    batch = pad_batch(samples, pad_index=0)
    verb, state, _ = forward(params, batch)
    np.testing.assert_allclose(verb, ref_verb, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(state, ref_state, rtol=1e-9, atol=1e-12)

    want_loss = (reference.tangent_terms(batch.verb_labels, ref_verb).sum()
                 + reference.tangent_terms(batch.state_labels, ref_state).sum())
    assert tangent_loss(batch.verb_labels, verb) + tangent_loss(batch.state_labels, state) \
        == pytest.approx(want_loss, rel=1e-8)

    want_error = np.mean([reference.error_gap(batch.verb_labels[i], ref_verb[i])
                          + reference.error_gap(batch.state_labels[i], ref_state[i])
                          for i in range(len(samples))])
    assert batch_error((batch.verb_labels, batch.state_labels), (verb, state)) \
        == pytest.approx(want_error, rel=1e-8, abs=1e-12)

    flags = evaluate(params, samples, pad_index=0, mode="subset", batch_size=3).per_sample_flags
    for i, sample in enumerate(samples):
        # Outputs within rounding of the threshold may fall either side of it.
        if np.any(np.abs(np.concatenate([ref_verb[i], ref_state[i]]) - 0.5) < 1e-9):
            continue
        assert flags[i] == (
            reference.one_missing(reference.above(ref_verb[i]),
                                  set(np.flatnonzero(sample.verb_label).tolist())),
            reference.one_missing(reference.above(ref_state[i]),
                                  set(np.flatnonzero(sample.state_label).tolist())))


def test_program_agrees_with_the_reference_where_products_split(tmp_path):
    # At GRU 300/400, sentences of lengths 1-20 take every running-row count
    # and so put both layers' recurrent products of 3-16 rows through panels,
    # and a lone 6-token sentence does so for layer 2's input projection
    # (``network._few_row_product``).
    sizes = ModelSizes(input_dim=12, verb_dim=4, state_dim=3, gru1_hidden=300,
                       gru2_hidden=400, head_hidden=20)
    params = init_params(sizes, seed=3)
    rng = np.random.default_rng(5)
    samples = [Sample(tokens=rng.integers(0, sizes.input_dim, size=n).tolist(),
                      verb_label=np.zeros(sizes.verb_dim), state_label=np.zeros(sizes.state_dim))
               for n in range(1, 21)]
    text_vocab = [f"t{i}" for i in range(sizes.input_dim)]
    for group in (samples, samples[5:6]):
        ref_verb, ref_state = reference_outputs(params, group, text_vocab, tmp_path / "m.bin")
        verb, state, _ = forward(params, pad_batch(group, pad_index=0))
        np.testing.assert_allclose(verb, ref_verb, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(state, ref_state, rtol=1e-9, atol=1e-12)


# Step of the complex-step derivative.
H = 1e-30


@st.composite
def gradient_cases(draw):
    """Small sizes, initial weights scaled x1 to x3 so that some gates
    saturate, and labelled sentences of lengths 1-6: (params, samples)."""
    sizes = ModelSizes(
        input_dim=draw(st.integers(2, 6)), verb_dim=draw(st.integers(1, 3)),
        state_dim=draw(st.integers(1, 3)), gru1_hidden=draw(st.integers(1, 5)),
        gru2_hidden=draw(st.integers(1, 4)), head_hidden=draw(st.integers(1, 4)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    params = init_params(sizes, seed=seed)
    params.data *= draw(st.sampled_from([1.0, 2.0, 3.0]))
    rng = np.random.default_rng(seed)
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    samples = [Sample(tokens=rng.integers(0, sizes.input_dim, size=n).tolist(),
                      verb_label=(rng.random(sizes.verb_dim) < 0.5).astype(float),
                      state_label=(rng.random(sizes.state_dim) < 0.5).astype(float))
               for n in lengths]
    return params, samples


def reference_loss(arrays, samples):
    """The batch-summed training objective through the reference's cell and
    head, on parameter arrays that may be complex.  Each group of equal
    lengths runs for exactly its length.  ``np.maximum`` orders complex
    numbers by their real part first, so the head's ReLU takes its branch
    from the real part, and so does |y - p| here."""
    n_in = arrays["gru1.W_z"].shape[1]
    n1, n2 = arrays["gru1.U_z"].shape[0], arrays["gru2.U_z"].shape[0]
    by_length: dict[int, list[Sample]] = {}
    for sample in samples:
        by_length.setdefault(len(sample.tokens), []).append(sample)
    loss = 0.0
    for length, group in by_length.items():
        h1, h2 = np.zeros((len(group), n1)), np.zeros((len(group), n2))
        for t in range(length):
            x = np.eye(n_in)[[s.tokens[t] for s in group]]
            h1 = reference._gru(arrays, "gru1", x, h1)
            h2 = reference._gru(arrays, "gru2", h1, h2)
        for head, labels in (("verb_head", [s.verb_label for s in group]),
                             ("state_head", [s.state_label for s in group])):
            diff = np.array(labels) - reference._head(arrays, head, h2)
            loss = loss + np.sum(reference.SCALE * np.tan(
                reference.COEFF * diff * np.sign(diff.real)))
    return loss


@settings(max_examples=15, deadline=None)
@given(gradient_cases())
def test_backward_matches_complex_step_derivatives(tmp_path_factory, case):
    params, samples = case
    path = tmp_path_factory.mktemp("oracle") / "m.bin"
    save_checkpoint(Checkpoint(params=params, epoch=0, best_val_error=np.inf, seeds={}), path)
    arrays, _ = reference.read_checkpoint(path)
    batch = pad_batch(samples, pad_index=0)
    verb, state, trace = forward(params, batch)
    grads = backward(params, batch, trace, tangent_loss_grad(batch.verb_labels, verb),
                     tangent_loss_grad(batch.state_labels, state))

    probe = {name: arr.astype(complex) for name, arr in arrays.items()}
    for name, arr in probe.items():
        want = np.empty(arr.shape)
        for k in np.ndindex(arr.shape):
            arr[k] += 1j * H
            want[k] = reference_loss(probe, samples).imag / H
            arr[k] = arr[k].real
        # Entries that cancel to near zero are held to the largest one's rounding.
        np.testing.assert_allclose(grads[name], want, rtol=1e-9,
                                   atol=1e-12 * np.abs(want).max(), err_msg=name)
