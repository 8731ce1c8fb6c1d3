import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanloss.corpus import Sample, SyntheticConfig, generate_synthetic_corpus, pad_batch
from tanloss import evaluation
from tanloss.evaluation import (INFERENCE_BATCH, INFERENCE_ROWS, EvalReport, binarize, evaluate,
                                one_missing_match, predictions)
from tanloss.losses import batch_error
from tanloss.network import ModelSizes, forward, init_params
from tanloss.training import validation_error

index_sets = st.sets(st.integers(0, 6), max_size=5)


def member(items, size=7):
    """The boolean membership vector of a set of indices below ``size``."""
    vector = np.zeros(size, dtype=bool)
    vector[list(items)] = True
    return vector


class TestBinarize:
    def test_threshold_selection(self):
        assert binarize([0.9, 0.2, 0.6], 0.5).tolist() == [True, False, True]

    def test_boundary_is_inclusive(self):
        assert binarize([0.5], 0.5).tolist() == [True]

    def test_empty_result(self):
        assert not binarize([0.1, 0.2], 0.5).any()

    def test_rows_of_a_matrix_are_binarized_alike(self):
        pred = np.array([[0.9, 0.2, 0.6], [0.1, 0.5, 0.4]])
        got = binarize(pred, 0.5)
        assert got.dtype == bool and got.shape == pred.shape
        assert got.tolist() == [binarize(row, 0.5).tolist() for row in pred]

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.2])
    def test_threshold_must_be_interior(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            binarize([0.5], threshold)


class TestOneMissingMatch:
    def test_one_missing_is_tolerated(self):
        assert one_missing_match(member({0}), member({0, 1}))

    def test_two_missing_fails(self):
        assert not one_missing_match(member({0}), member({0, 1, 2}))

    def test_extra_item_fails_under_subset_rule(self):
        assert not one_missing_match(member({0, 3}), member({0, 1}))

    def test_extra_item_passes_under_symmetric_rule(self):
        # diff size 2
        assert not one_missing_match(member({0, 3}), member({0, 1}), mode="symmetric")
        assert one_missing_match(member({0, 1, 3}), member({0, 1}), mode="symmetric")

    def test_exact_match_passes(self):
        assert one_missing_match(member({0, 1}), member({0, 1}))

    def test_empty_label_requires_empty_prediction(self):
        assert one_missing_match(member(set()), member(set()))
        assert not one_missing_match(member({0}), member(set()))
        assert not one_missing_match(member({0}), member(set()), mode="symmetric")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            one_missing_match(member({0}), member({0}), mode="loose")

    @given(index_sets, index_sets)
    def test_exact_match_implies_tolerant_match(self, pred, label):
        if pred == label:
            assert one_missing_match(member(pred), member(label))
            assert one_missing_match(member(pred), member(label), mode="symmetric")

    @given(index_sets)
    def test_tolerance_is_monotone(self, label):
        # Anything accepted by exact matching is accepted with tolerance.
        if label:
            dropped = set(sorted(label)[1:])
            assert one_missing_match(member(dropped), member(label))


TOY = ModelSizes(input_dim=8, verb_dim=3, state_dim=3, gru1_hidden=4, gru2_hidden=3,
                 head_hidden=4)


def constant_output_params(level):
    """Zero weights with output biases forced to produce sigmoid(level)."""
    params = init_params(TOY, seed=0)
    for arr in params.flat().values():
        arr[:] = 0.0
    params.verb_head.b2[:] = level
    params.state_head.b2[:] = level
    return params


def samples_with_labels(labels):
    return [Sample(tokens=[1, 2], verb_label=np.array(v, dtype=float),
                   state_label=np.array(s, dtype=float)) for v, s in labels]


class TestEvaluate:
    def test_all_ones_labels_against_full_prediction(self):
        # Zero params emit 0.5 everywhere; with the inclusive threshold the
        # predicted set is everything, matching all-ones labels exactly.
        params = constant_output_params(0.0)
        samples = samples_with_labels([([1, 1, 1], [1, 1, 1])] * 4)
        report = evaluate(params, samples, pad_index=7)
        assert report.action_accuracy == 100.0
        assert report.state_accuracy == 100.0

    def test_empty_predictions_against_two_item_labels(self):
        params = constant_output_params(-30.0)
        samples = samples_with_labels([([1, 1, 0], [0, 1, 1])] * 5)
        report = evaluate(params, samples, pad_index=7)
        assert report.action_accuracy == 0.0
        assert report.state_accuracy == 0.0

    def test_report_matches_independent_recount(self):
        params = init_params(TOY, seed=3)
        rng = np.random.default_rng(1)
        samples = []
        for _ in range(30):
            samples.append(Sample(
                tokens=rng.integers(0, 7, size=rng.integers(2, 6)).tolist(),
                verb_label=(rng.random(3) < 0.5).astype(float),
                state_label=(rng.random(3) < 0.5).astype(float)))
        report = evaluate(params, samples, pad_index=7, threshold=0.5)

        hits_action = hits_state = 0
        for sample in samples:
            batch = pad_batch([sample], pad_index=7)
            verb, state, _ = forward(params, batch)
            pred_v = {int(i) for i in np.flatnonzero(verb[0] >= 0.5)}
            pred_s = {int(i) for i in np.flatnonzero(state[0] >= 0.5)}
            label_v = {int(i) for i in np.flatnonzero(sample.verb_label)}
            label_s = {int(i) for i in np.flatnonzero(sample.state_label)}
            ok_v = (pred_v <= label_v and len(label_v - pred_v) <= 1) if label_v else not pred_v
            ok_s = (pred_s <= label_s and len(label_s - pred_s) <= 1) if label_s else not pred_s
            hits_action += ok_v
            hits_state += ok_s
        assert report.action_accuracy == pytest.approx(100.0 * hits_action / 30)
        assert report.state_accuracy == pytest.approx(100.0 * hits_state / 30)
        assert report.n_samples == 30
        assert report.action_accuracy == pytest.approx(
            100.0 * sum(f[0] for f in report.per_sample_flags) / len(report.per_sample_flags))

    def test_order_invariance(self):
        samples, (text_vocab, _, _) = generate_synthetic_corpus(SyntheticConfig(count=40), seed=2)
        sizes = ModelSizes(input_dim=len(text_vocab), verb_dim=9, state_dim=7,
                           gru1_hidden=6, gru2_hidden=4, head_hidden=5)
        params = init_params(sizes, seed=8)
        forward_report = evaluate(params, samples, pad_index=text_vocab.pad_index)
        reversed_report = evaluate(params, samples[::-1], pad_index=text_vocab.pad_index)
        assert forward_report.action_accuracy == reversed_report.action_accuracy
        assert forward_report.state_accuracy == reversed_report.state_accuracy

    @pytest.mark.parametrize("mode", ["subset", "symmetric"])
    def test_row_rule_matches_per_row_functions(self, mode):
        def set_rule(pred: set, label: set, mode) -> bool:
            if not label:
                return not pred
            if mode == "subset":
                return pred <= label and len(label - pred) <= 1
            return len(pred ^ label) <= 1

        rng = np.random.default_rng(5)
        for density in (0.1, 0.5, 0.9):
            pred_scores = rng.random((300, 6))
            label = rng.random((300, 6)) < density
            label[:20] = False                      # empty labels
            pred_scores[10:20] = 0.0                # ... some with empty predictions
            got = one_missing_match(pred_scores >= 0.5, label, mode)
            want = [set_rule(set(np.flatnonzero(binarize(pred_scores[r], 0.5)).tolist()),
                             set(np.flatnonzero(label[r]).tolist()), mode)
                    for r in range(300)]
            assert got.tolist() == want

    @pytest.mark.parametrize("mode", ["subset", "symmetric"])
    def test_flags_match_per_row_functions(self, mode):
        params = init_params(TOY, seed=4)
        rng = np.random.default_rng(2)
        samples = [Sample(tokens=rng.integers(0, 7, size=rng.integers(1, 7)).tolist(),
                          verb_label=(rng.random(3) < 0.4).astype(float),
                          state_label=(rng.random(3) < 0.4).astype(float))
                   for _ in range(150)]
        report = evaluate(params, samples, pad_index=7, threshold=0.45, mode=mode, batch_size=32)
        want = []
        for sample in samples:
            verb, state, _ = forward(params, pad_batch([sample], pad_index=7))
            want.append((
                bool(one_missing_match(verb[0] >= 0.45, sample.verb_label != 0, mode)),
                bool(one_missing_match(state[0] >= 0.45, sample.state_label != 0, mode))))
        assert report.per_sample_flags == want
        assert report.action_accuracy == 100.0 * sum(v for v, _ in want) / 150
        assert report.state_accuracy == 100.0 * sum(s for _, s in want) / 150

    def test_bad_threshold_and_mode_rejected(self):
        samples = samples_with_labels([([1, 0, 0], [0, 1, 0])])
        with pytest.raises(ValueError, match="threshold"):
            evaluate(init_params(TOY, seed=0), samples, pad_index=7, threshold=1.0)
        with pytest.raises(ValueError, match="mode"):
            evaluate(init_params(TOY, seed=0), samples, pad_index=7, mode="loose")

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(init_params(TOY, seed=0), [], pad_index=7)


class TestInferenceBatch:
    def test_outputs_flags_and_validation_error_do_not_depend_on_the_batch(self):
        # More samples than one inference batch, of lengths 3 to 8.
        samples, (text_vocab, _, _) = generate_synthetic_corpus(
            SyntheticConfig(count=2 * INFERENCE_BATCH + 17), seed=4)
        sizes = ModelSizes(input_dim=len(text_vocab), verb_dim=len(samples[0].verb_label),
                           state_dim=len(samples[0].state_label), gru1_hidden=16,
                           gru2_hidden=8, head_hidden=8)
        params = init_params(sizes, seed=6)
        pad = text_vocab.pad_index
        alone = [forward(params, pad_batch([sample], pad_index=pad))[:2] for sample in samples]
        verb_alone, state_alone = (np.concatenate(rows) for rows in zip(*alone))
        labels = (np.stack([s.verb_label for s in samples]),
                  np.stack([s.state_label for s in samples]))
        flags_alone = list(zip(
            one_missing_match(binarize(verb_alone), labels[0] != 0).tolist(),
            one_missing_match(binarize(state_alone), labels[1] != 0).tolist()))
        error_alone = batch_error(labels, (verb_alone, state_alone))
        assert validation_error(params, samples, pad) == pytest.approx(error_alone, rel=0,
                                                                       abs=1e-12)
        for size in (3, 64, INFERENCE_BATCH):
            _, (verb, state) = predictions(params, samples, pad, batch_size=size)
            np.testing.assert_allclose(verb, verb_alone, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state, state_alone, rtol=0, atol=1e-12)
            assert batch_error(labels, (verb, state)) == pytest.approx(error_alone, rel=0,
                                                                       abs=1e-12)
            assert evaluate(params, samples, pad, batch_size=size).per_sample_flags \
                == flags_alone

    def test_long_sentences_run_in_chunks_of_at_most_inference_rows_tokens(self, monkeypatch):
        samples, (text_vocab, _, _) = generate_synthetic_corpus(
            SyntheticConfig(count=70, min_len=20, max_len=60), seed=5)
        sizes = ModelSizes(input_dim=len(text_vocab), verb_dim=len(samples[0].verb_label),
                           state_dim=len(samples[0].state_label), gru1_hidden=6,
                           gru2_hidden=5, head_hidden=4)
        params = init_params(sizes, seed=7)
        pad = text_vocab.pad_index
        alone = [forward(params, pad_batch([sample], pad_index=pad))[:2] for sample in samples]
        rows, original = [], evaluation.forward
        monkeypatch.setattr(evaluation, "forward",
                            lambda p, batch: rows.append(int(batch.lengths.sum()))
                            or original(p, batch))
        _, (verb, state) = predictions(params, samples, pad)
        assert len(rows) > 1 and max(rows) <= INFERENCE_ROWS
        assert sum(rows) == sum(len(s.tokens) for s in samples)
        np.testing.assert_allclose(verb, np.concatenate([v for v, _ in alone]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(state, np.concatenate([s for _, s in alone]), rtol=0,
                                   atol=1e-12)

