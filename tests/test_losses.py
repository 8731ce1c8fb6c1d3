"""Unit and property tests for the tangent loss and the error function.

Closed-form expected values are computed live with mpmath at 40 digits, so
the oracle never shares code with the implementation under test.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanloss.losses import (BOUNDED_COEFF, SCALE, batch_error, error_epsilon, tangent_loss,
                            tangent_loss_grad)

mp.mp.dps = 40


def softmax_pmf(v):
    """Max-shifted softmax of a vector: the error gap's pmf, written out as
    a float64 oracle."""
    shifted = np.exp(np.asarray(v, dtype=np.float64) - np.max(v))
    return shifted / np.sum(shifted)


def cross_entropy(p, q):
    """Cross entropy -sum_x p(x) * log2 q(x), in bits, for a strictly
    positive q."""
    return float(-np.sum(np.asarray(p) * np.log2(q)))


def mp_tangent_loss(y, p):
    k = mp.mpf("0.499") * mp.pi
    return sum(10 * mp.tan(k * abs(mp.mpf(repr(a)) - mp.mpf(repr(b)))) for a, b in zip(y, p))


def mp_epsilon(y, p):
    def pmf(v):
        exps = [mp.e ** mp.mpf(repr(x)) for x in v]
        total = sum(exps)
        return [x / total for x in exps]

    def xent(pv, qv):
        return -sum(a * mp.log(b, 2) for a, b in zip(pv, qv))

    q_label, p_pred = pmf(y), pmf(p)
    return abs(xent(p_pred, q_label) - xent(q_label, q_label))


labels = st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=8)


def unit_vectors(size):
    return st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=size, max_size=size)


class TestTangentLoss:
    def test_zero_iff_equal(self):
        y = np.array([1.0, 0.0, 1.0])
        assert tangent_loss(y, y) == 0.0

    def test_half_distance_matches_closed_form(self):
        expected = float(mp_tangent_loss([1, 0], [0.5, 0.5]))  # ~19.9373
        assert tangent_loss([1.0, 0.0], [0.5, 0.5]) == pytest.approx(expected, rel=1e-12)

    def test_maximal_error_is_bounded(self):
        expected = float(mp_tangent_loss([1], [0]))  # ~3183.09, the single-term cap
        got = tangent_loss([1.0], [0.0])
        assert got == pytest.approx(expected, rel=1e-12)
        assert np.isfinite(got)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            tangent_loss([1.0, 0.0], [0.5])

    @given(labels.flatmap(lambda y: st.tuples(st.just(y), unit_vectors(len(y)))))
    def test_nonnegative_and_identity(self, pair):
        y, p = (np.array(v) for v in pair)
        loss = tangent_loss(y, p)
        assert loss >= 0.0
        if np.array_equal(y, p):
            assert loss <= 1e-12

    @given(labels.flatmap(lambda y: st.tuples(st.just(y), unit_vectors(len(y)))))
    def test_dominates_scaled_l1(self, pair):
        y, p = (np.array(v) for v in pair)
        bound = SCALE * BOUNDED_COEFF * np.sum(np.abs(y - p))
        assert tangent_loss(y, p) + 1e-9 >= bound

    @given(labels.flatmap(lambda y: st.tuples(st.just(y), unit_vectors(len(y)))))
    def test_upper_bound(self, pair):
        y, p = (np.array(v) for v in pair)
        assert tangent_loss(y, p) <= len(y) * SCALE * np.tan(BOUNDED_COEFF)

    def test_componentwise_midpoint_convexity(self):
        grid = np.linspace(0.0, 1.0, 21)
        for y in (0.0, 0.25, 1.0):
            f = lambda t: tangent_loss([y], [t])
            for t1 in grid:
                for t2 in grid:
                    assert f((t1 + t2) / 2) <= (f(t1) + f(t2)) / 2 + 1e-9


class TestTangentLossGrad:
    def test_zero_subgradient_at_kink(self):
        assert tangent_loss_grad([1.0], [1.0]) == pytest.approx([0.0])

    def test_closed_form_value(self):
        k = mp.mpf("0.499") * mp.pi
        expected = float(10 * k / mp.cos(k * mp.mpf("0.5")) ** 2)  # ~31.2549
        assert tangent_loss_grad([0.0], [0.5]) == pytest.approx([expected], rel=1e-12)

    @given(labels.flatmap(lambda y: st.tuples(st.just(y), unit_vectors(len(y)))))
    def test_sign_opposes_label(self, pair):
        y, p = (np.array(v) for v in pair)
        grad = tangent_loss_grad(y, p)
        assert np.all(grad[p > y] > 0)
        assert np.all(grad[p < y] < 0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(50):
            m = int(rng.integers(1, 9))
            y = rng.integers(0, 2, size=m).astype(float)
            offset = rng.uniform(0.05, 0.9, size=m)
            p = np.clip(np.where(y > 0, y - offset, y + offset), 0.0, 1.0)
            grad = tangent_loss_grad(y, p)
            for i in range(m):
                up, down = p.copy(), p.copy()
                up[i] += h
                down[i] -= h
                fd = (tangent_loss(y, up) - tangent_loss(y, down)) / (2 * h)
                assert abs(grad[i] - fd) / max(abs(fd), 1e-12) < 1e-5

    def test_batched_rows_match_per_row(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=(4, 5)).astype(float)
        p = rng.uniform(0, 1, size=(4, 5))
        stacked = tangent_loss_grad(y, p)
        for r in range(4):
            assert np.array_equal(stacked[r], tangent_loss_grad(y[r], p[r]))


class TestSoftmaxPmf:
    """The oracle against closed forms."""

    def test_symmetry(self):
        assert softmax_pmf([0.0, 0.0]) == pytest.approx([0.5, 0.5])

    def test_two_point_value(self):
        expected = float(mp.e / (1 + mp.e))
        assert softmax_pmf([1.0, 0.0]) == pytest.approx([expected, 1 - expected], rel=1e-12)

    def test_extreme_inputs_stay_finite(self):
        probs = softmax_pmf([1000.0, 0.0])
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=16))
    def test_is_a_pmf(self, values):
        probs = softmax_pmf(values)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs > 0)


class TestCrossEntropy:
    """The oracle against closed forms."""

    def test_uniform_self_entropy_is_one_bit(self):
        assert cross_entropy([0.5, 0.5], [0.5, 0.5]) == pytest.approx(1.0)

    def test_point_mass_against_uniform(self):
        assert cross_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_softmax_self_entropy(self):
        q = softmax_pmf([1.0, 0.0])
        e = mp.e / (1 + mp.e)
        expected = float(-(e * mp.log(e, 2) + (1 - e) * mp.log(1 - e, 2)))  # ~0.8399
        assert cross_entropy(q, q) == pytest.approx(expected, rel=1e-12)


class TestErrorEpsilon:
    def test_zero_on_exact_prediction(self):
        y = np.array([1.0, 0.0])
        assert error_epsilon(y, y.copy()) == 0.0

    def test_oracle_value(self):
        expected = float(mp_epsilon([1.0, 0.0], [0.5, 0.5]))  # ~0.333347 bits
        assert error_epsilon([1.0, 0.0], [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)

    def test_closer_prediction_scores_lower(self):
        y = [1.0, 0.0]
        assert error_epsilon(y, [0.9, 0.1]) < error_epsilon(y, [0.5, 0.5])

    @given(st.integers(2, 12), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50)
    def test_continuity_bound(self, m, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=m).astype(float)
        p = rng.uniform(0, 1, size=m)
        q_label = softmax_pmf(y)
        p_pred = softmax_pmf(p)
        gap = abs(cross_entropy(p_pred, q_label) - cross_entropy(q_label, q_label))
        bound = np.max(np.abs(np.log2(q_label))) * np.sum(np.abs(q_label - p_pred))
        assert gap <= bound + 1e-12


def rows(pairs):
    """A list of (verb, state) vector pairs as the (verb, state) pair of
    matrices that batch_error takes."""
    return tuple(np.array(head) for head in zip(*pairs))


class TestBatchError:
    def test_perfect_predictions_score_zero(self):
        pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0]))] * 3
        assert batch_error(rows(pairs), rows([tuple(v.copy() for v in p) for p in pairs])) == 0.0

    def test_one_perfect_head_leaves_the_other(self):
        y = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        p = (np.array([1.0, 0.0]), np.array([0.4, 0.6]))
        expected = error_epsilon(y[1], p[1])
        assert batch_error(rows([y]), rows([p])) == pytest.approx(expected)

    def test_mean_of_two_samples(self):
        y1 = (np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        p1 = (np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        y2 = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        p2 = (np.array([0.2, 0.8]), np.array([0.9, 0.1]))
        a = error_epsilon(y1[0], p1[0]) + error_epsilon(y1[1], p1[1])
        b = error_epsilon(y2[0], p2[0]) + error_epsilon(y2[1], p2[1])
        assert batch_error(rows([y1, y2]), rows([p1, p2])) == pytest.approx((a + b) / 2)

    def test_empty_set_rejected(self):
        empty = (np.zeros((0, 2)), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            batch_error(empty, empty)

    def test_length_mismatch_rejected(self):
        y = (np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="mismatch"):
            batch_error(rows([y]), (np.zeros((0, 1)), np.zeros((0, 1))))
        unpaired = (np.zeros((2, 1)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="pair up"):
            batch_error(unpaired, unpaired)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_row_error_epsilon(self, seed):
        # Random rows, then extreme ones: saturated and huge predictions, a
        # constant row, an all-ones label, and labels far from {0, 1}.
        rng = np.random.default_rng(seed)
        n, m_verb, m_state = 40, 7, 5
        y_verb = rng.integers(0, 2, size=(n, m_verb)).astype(float)
        y_state = rng.integers(0, 2, size=(n, m_state)).astype(float)
        p_verb = rng.uniform(0, 1, size=(n, m_verb))
        p_state = rng.uniform(0, 1, size=(n, m_state))
        p_verb[0], p_state[0] = 1e3 * (2 * y_verb[0] - 1), -1e3 * (2 * y_state[0] - 1)
        p_verb[1], p_state[1] = y_verb[1], 0.5
        y_verb[2], p_verb[2] = 1.0, np.where(np.arange(m_verb) % 2, 1.0, 0.0)
        y_state[3], p_state[3] = rng.uniform(-30, 30, m_state), rng.uniform(-700, 700, m_state)
        p_verb[4] = rng.uniform(-1e300, 1e300, m_verb)
        def gap(y, p):
            q_label, p_pred = softmax_pmf(y), softmax_pmf(p)
            return abs(cross_entropy(p_pred, q_label) - cross_entropy(q_label, q_label))

        per_row = np.array([gap(y_verb[r], p_verb[r]) + gap(y_state[r], p_state[r])
                            for r in range(n)])
        for r in range(n):
            one = batch_error((y_verb[r:r + 1], y_state[r:r + 1]),
                              (p_verb[r:r + 1], p_state[r:r + 1]))
            assert abs(one - per_row[r]) <= 1e-12 * max(1.0, per_row[r])
        whole = batch_error((y_verb, y_state), (p_verb, p_state))
        assert abs(whole - per_row.mean()) <= 1e-12 * max(1.0, per_row.mean())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        y = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        p = (np.array([[0.5, bad]]), np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="finite"):
            batch_error(y, p)
        with pytest.raises(ValueError, match="finite"):
            batch_error(p, y)
