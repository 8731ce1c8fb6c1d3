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
central differences allow, up to a per-coordinate bound on what float64
rounding in the program can cost it where gates saturate or the loss is
steep.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanloss.corpus import Sample, pad_batch
from tanloss import evaluation
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

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "INFERENCE_BATCH", 3)
        flags = evaluate(params, samples, pad_index=0, mode="subset").per_sample_flags
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
# The unit roundoff of float64.
U = np.finfo(np.float64).eps / 2


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


def reference_terms(arrays, samples):
    """The terms of the batch-summed training objective (one per sentence
    and head output) through the reference's cell and head, on parameter
    arrays that may be complex.  Each group of equal lengths runs for
    exactly its length.  ``np.maximum`` orders complex numbers by their real
    part first, so the head's ReLU takes its branch from the real part, and
    so does |y - p| here."""
    n_in = arrays["gru1.W_z"].shape[1]
    n1, n2 = arrays["gru1.U_z"].shape[0], arrays["gru2.U_z"].shape[0]
    by_length: dict[int, list[Sample]] = {}
    for sample in samples:
        by_length.setdefault(len(sample.tokens), []).append(sample)
    terms = []
    for length, group in by_length.items():
        h1, h2 = np.zeros((len(group), n1)), np.zeros((len(group), n2))
        for t in range(length):
            x = np.eye(n_in)[[s.tokens[t] for s in group]]
            h1 = reference._gru(arrays, "gru1", x, h1)
            h2 = reference._gru(arrays, "gru2", h1, h2)
        for head, labels in (("verb_head", [s.verb_label for s in group]),
                             ("state_head", [s.state_label for s in group])):
            diff = np.array(labels) - reference._head(arrays, head, h2)
            terms.append(np.ravel(reference.SCALE * np.tan(
                reference.COEFF * diff * np.sign(diff.real))))
    return np.concatenate(terms)


def path_magnitudes(arrays, samples, slack):
    """For each term of ``reference_terms`` (rows) and each parameter element,
    in the order of ``arrays`` (columns): the sum, over every path from the
    element to the term, of the product of the magnitudes of the partial
    derivatives along it, each raised by ``slack`` times the float64 error
    the program makes in it.  Forward mode through the reference's cell and
    head; with every factor taken in absolute value, no two paths cancel.

    The program holds a sigmoid output s to about 2U absolute (0.5 tanh(x/2)
    + 0.5), and so also s (1 - s), z, 1 - z and r, however small they are.
    A tanh output t is held to about U, so 1 - t^2 is held to 4U.  The
    tangent's derivative SCALE COEFF / cos^2(COEFF d) at d = |y - p|, with p
    off by 2U, is off by 4 COEFF tan(COEFF d) U relative."""
    P = sum(arr.size for arr in arrays.values())
    ends = np.cumsum([arr.size for arr in arrays.values()])
    seeds = {name: block.reshape(*arr.shape, P)
             for (name, arr), block in zip(arrays.items(), np.split(np.eye(P), ends[:-1]))}
    err = 2 * U * slack

    def affine(x, dx, names):
        """x @ W.T (+ b) and its magnitudes, for the ``names`` W (and b)."""
        W = arrays[names[0]]
        out = x @ W.T, (np.einsum("rip,oi->rop", dx, np.abs(W))
                        + np.einsum("ri,oip->rop", np.abs(x), seeds[names[0]]))
        return out if len(names) == 1 else (out[0] + arrays[names[1]],
                                            out[1] + seeds[names[1]])

    def times(factor, dv):
        return (np.abs(factor) + err)[..., None] * dv

    def sigmoid(v, dv):
        y = reference.sigmoid(v)
        return y, times(y * (1 - y), dv)

    n_in = arrays["gru1.W_z"].shape[1]
    rows = []
    for sample in samples:
        state = {layer: (np.zeros((1, arrays[f"{layer}.U_z"].shape[0])),
                         np.zeros((1, arrays[f"{layer}.U_z"].shape[0], P)))
                 for layer in ("gru1", "gru2")}
        for token in sample.tokens:
            x, dx = np.eye(n_in)[[token]], np.zeros((1, n_in, P))
            for layer in ("gru1", "gru2"):
                h, dh = state[layer]

                def pre(gate, hh, dhh):
                    (a, da), (b, db) = (affine(x, dx, (f"{layer}.W_{gate}", f"{layer}.b_{gate}")),
                                        affine(hh, dhh, (f"{layer}.U_{gate}",)))
                    return a + b, da + db

                z, dz = sigmoid(*pre("z", h, dh))
                r, dr = sigmoid(*pre("r", h, dh))
                v, dv = pre("h", r * h, times(r, dh) + np.abs(h)[..., None] * dr)
                c = np.tanh(v)
                dc = (1 - c * c + 2 * err)[..., None] * dv
                x = (1 - z) * h + z * c
                dx = times(1 - z, dh) + times(z, dc) + (np.abs(h) + np.abs(c))[..., None] * dz
                state[layer] = x, dx
        for head, label in (("verb_head", sample.verb_label), ("state_head", sample.state_label)):
            a, da = affine(x, dx, (f"{head}.W1", f"{head}.b1"))
            out, dout = sigmoid(*affine(np.maximum(a, 0.0), (a > 0)[..., None] * da,
                                        (f"{head}.W2", f"{head}.b2")))
            theta = reference.COEFF * np.abs(label - out)
            slope = (reference.SCALE * reference.COEFF / np.cos(theta) ** 2
                     * (1 + 2 * reference.COEFF * np.tan(theta) * err))
            rows.append((slope[..., None] * dout).reshape(-1, P))
    return np.concatenate(rows)


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

    # Float64 rounding errs on each path from a parameter to a term of the
    # objective by about U relative, plus what the errors in its factors
    # cost (``path_magnitudes``): the entry may be off by U times its paths'
    # magnitudes with those errors, plus what the errors add to them.  The
    # sums err too: a sum or dot product of k terms by at most about k U
    # times the sum of its terms' magnitudes (Higham, Accuracy and Stability
    # of Numerical Algorithms, 2002, sec. 3.1), a bound that does not shrink
    # where the paths cancel.  A path's term passes through at most 2T + 2
    # affine maps forward and as many back (T tokens, two layers, the head),
    # each a sum of at most 3 x the widest array's rows or columns, plus the
    # few additions of a cell, and then the sum over the batch's B T rows;
    # the reference's complex step takes the same sums, so they count
    # twice.  A relative 1e-9 covers the rest.
    T, B = max(len(s.tokens) for s in samples), len(samples)
    width = 3 * max(max(arr.shape) for arr in arrays.values()) + 4
    sums = 2 * (2 * (2 * T + 2) * width + B * T)
    exact, raised = (path_magnitudes(arrays, samples, slack).sum(axis=0) for slack in (0, 1))
    ends = np.cumsum([arr.size for arr in arrays.values()])[:-1]
    atol = np.split((1 + (1 + sums) * U) * raised - exact, ends)
    raised = np.split(raised, ends)
    probe = {name: arr.astype(complex) for name, arr in arrays.items()}
    for (name, arr), bound, paths in zip(probe.items(), atol, raised):
        want = np.empty(arr.shape)
        for k in np.ndindex(arr.shape):
            arr[k] += 1j * H
            want[k] = reference_terms(probe, samples).imag.sum() / H
            arr[k] = arr[k].real
        # No derivative exceeds the sum of its paths' magnitudes.
        assert np.all(np.abs(want).ravel() <= (1 + 1e-9) * paths), name
        got = grads[name]
        assert got.shape == want.shape, name
        # Written so that a NaN entry fails.
        ok = np.abs(got - want) <= 1e-9 * np.abs(want) + bound.reshape(arr.shape)
        assert ok.all(), (name, got[~ok], want[~ok])
