"""Differential tests against the independent model in perfbench/reference.py.

The reference is written from the equations, not from the program's code:
it reads checkpoints with its own parser, builds explicit one-hot inputs and
runs each sentence for exactly its length.  Hypothesis draws the layer
sizes, weights scaled up far enough that some gates saturate, and sets of
sentences of mixed lengths; the forward pass, the loss, the validation error
and the one-missing accuracy must all agree with it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanloss.corpus import Sample, pad_batch
from tanloss.evaluation import evaluate
from tanloss.losses import batch_error, tangent_loss
from tanloss.network import Checkpoint, ModelSizes, forward, init_params, save_checkpoint

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
