"""Acceptance suite: one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Expected values tagged as closed-form oracles are recomputed live
with mpmath; end-to-end expectations come from the synthetic generator's
deterministic trigger table.

Known red: test_c02_triangle_inequality.  The bounded tangent loss is convex
and superadditive in the per-component error (tan(a+b) >= tan(a) + tan(b) on
[0, pi/2)), so l(A,C) <= l(A,B) + l(B,C) provably fails whenever B sits
between A and C with a sizable gap, e.g. l(0, 0.9) = 62.0 while
l(0, 0.45) + l(0.45, 0.9) = 17.0.  The check is kept faithful to the stated
property rather than weakened to pass.
"""

import json
import time

import mpmath as mp
import numpy as np
import pytest

from tanloss import cli
from tanloss.corpus import Sample, SyntheticConfig, generate_synthetic_corpus, pad_batch, \
    split_dataset
from tanloss.losses import BOUNDED_COEFF, SCALE, error_epsilon, tangent_loss, tangent_loss_grad
from tanloss.network import ModelSizes, forward, init_params, load_checkpoint, save_checkpoint
from tanloss.network import Checkpoint
from tanloss.optim import RmsPropState, rmsprop_step
from tanloss.training import TrainConfig, gradient_check, resume, train

mp.mp.dps = 40


def _loss_rows(y, p):
    return np.sum(SCALE * np.tan(BOUNDED_COEFF * np.abs(y - p)), axis=1)


def test_c02_loss_property_suite():
    """Nonnegativity, identity, scaled-L1 lower bound and the finite upper
    bound over >= 10^4 random pairs with m in 1..32, in under 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    per_m = 320   # 320 * 32 = 10240 pairs
    checked = 0
    for m in range(1, 33):
        y = rng.integers(0, 2, size=(per_m, m)).astype(float)
        p = rng.uniform(0.0, 1.0, size=(per_m, m))
        losses = _loss_rows(y, p)
        assert np.all(losses >= 0.0)
        assert np.all(_loss_rows(y, y) <= 1e-12)
        l1_bound = SCALE * BOUNDED_COEFF * np.sum(np.abs(y - p), axis=1)
        assert np.all(losses + 1e-9 >= l1_bound)
        assert np.all(losses <= m * SCALE * np.tan(BOUNDED_COEFF))
        assert np.all(np.isfinite(losses))
        checked += per_m
    elapsed = time.perf_counter() - t0
    assert checked >= 10_000
    assert elapsed < 5.0
    print(f"criterion 2 (ex. triangle): {checked} pairs in {elapsed:.2f}s")


def test_c02_triangle_inequality():
    """l(A,C) <= l(A,B) + l(B,C) over >= 10^4 random triples.

    This is the faithful statement of the claimed property; see the module
    docstring for why it cannot hold for a convex superadditive loss.
    """
    rng = np.random.default_rng(7)
    worst = None
    total = 0
    for m in range(1, 33):
        n = 320
        a, b, c = (rng.uniform(0.0, 1.0, size=(n, m)) for _ in range(3))
        lhs = _loss_rows(a, c)
        rhs = _loss_rows(a, b) + _loss_rows(b, c)
        total += n
        gap = lhs - rhs
        if np.any(gap > 1e-9):
            i = int(np.argmax(gap))
            if worst is None or gap[i] > worst[0]:
                worst = (gap[i], m, a[i], b[i], c[i], lhs[i], rhs[i])
    assert total >= 10_000
    if worst is not None:
        gap, m, a, b, c, lhs, rhs = worst
        pytest.fail(
            f"triangle inequality violated on random triples: at m={m}, "
            f"l(A,C)={lhs:.3f} > l(A,B)+l(B,C)={rhs:.3f} (gap {gap:.3f}); "
            f"worst triple A={np.round(a, 3)}, B={np.round(b, 3)}, C={np.round(c, 3)}"
        )


def test_c03_loss_gradient_check():
    """Analytic gradient vs central differences (step 1e-6), relative error
    below 1e-5 at 1000 points with per-component |Y-P| in [0.05, 0.9]."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        y = rng.integers(0, 2, size=m).astype(float)
        offset = rng.uniform(0.05, 0.9, size=m)
        p = np.where(y > 0, y - offset, offset)
        grad = tangent_loss_grad(y, p)
        for i in range(m):
            up, down = p.copy(), p.copy()
            up[i] += h
            down[i] -= h
            fd = (tangent_loss(y, up) - tangent_loss(y, down)) / (2 * h)
            assert abs(grad[i] - fd) / abs(fd) < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 3: 1000 points in {elapsed:.2f}s")


def test_c04_error_function_suite():
    rng = np.random.default_rng(5)
    # Exact zero at perfect predictions, for 1000 random labels.
    for _ in range(1000):
        m = int(rng.integers(1, 33))
        y = rng.integers(0, 2, size=m).astype(float)
        assert error_epsilon(y, y.copy()) == 0.0

    # Continuity bound on 10^4 random pairs, for the error validation computes.
    for _ in range(10_000):
        m = int(rng.integers(2, 17))
        y = rng.integers(0, 2, size=m).astype(float)
        p = rng.uniform(0.0, 1.0, size=m)
        q_label, p_pred = (np.exp(v) / np.sum(np.exp(v)) for v in (y, p))
        bound = np.max(np.abs(np.log2(q_label))) * np.sum(np.abs(q_label - p_pred))
        assert error_epsilon(y, p) <= bound + 1e-12

    # Frozen two-point value against the arbitrary-precision oracle.
    e = mp.e
    q1, q0 = e / (1 + e), 1 / (1 + e)
    h_pred = -(mp.mpf("0.5") * mp.log(q1, 2) + mp.mpf("0.5") * mp.log(q0, 2))
    h_self = -(q1 * mp.log(q1, 2) + q0 * mp.log(q0, 2))
    oracle = float(abs(h_pred - h_self))  # ~0.333347 bits
    assert abs(error_epsilon([1.0, 0.0], [0.5, 0.5]) - oracle) < 1e-6


def test_c05_network_gradient_check():
    t0 = time.perf_counter()
    sizes = ModelSizes(input_dim=10, verb_dim=3, state_dim=3,
                       gru1_hidden=5, gru2_hidden=4, head_hidden=7)
    worst = gradient_check(sizes, seed=0, n_coords=100)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"criterion 5: max relative error {worst:.2e} in {elapsed:.2f}s")


def test_c06_padding_invariance():
    sizes = ModelSizes(input_dim=12, verb_dim=3, state_dim=3,
                       gru1_hidden=6, gru2_hidden=4, head_hidden=5)
    params = init_params(sizes, seed=1)
    rng = np.random.default_rng(2)
    sample = Sample(tokens=rng.integers(0, 11, size=5).tolist(),
                    verb_label=np.array([1.0, 0.0, 0.0]),
                    state_label=np.array([0.0, 1.0, 0.0]))
    short = pad_batch([sample], pad_index=11)
    long = pad_batch([sample], pad_index=11)
    long.token_matrix = np.pad(long.token_matrix, ((0, 0), (0, 8)), constant_values=11)
    assert short.token_matrix.shape == (1, 5) and long.token_matrix.shape == (1, 13)
    v1, s1, _ = forward(params, short)
    v2, s2, _ = forward(params, long)
    assert np.array_equal(v1, v2)
    assert np.array_equal(s1, s2)


def test_c07_end_to_end_toy_convergence(toy_run, capsys):
    """Synthetic 1000-sample training with GRU 64/32 reaches >= 95% one-missing
    accuracy on both heads of a 200-sample held-out set, within 10 minutes."""
    t0 = time.perf_counter()
    code = cli.main(["eval", "--ckpt", str(toy_run["ckpt"]),
                     "--data", str(toy_run["held_data"])])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out.splitlines()[-1])
    total_seconds = toy_run["train_seconds"] + (time.perf_counter() - t0)
    assert report["n_samples"] == 200
    assert report["action_accuracy"] >= 95.0
    assert report["state_accuracy"] >= 95.0
    assert total_seconds < 600.0
    print(f"criterion 7: action {report['action_accuracy']:.1f}%, "
          f"state {report['state_accuracy']:.1f}% in {total_seconds:.0f}s")


def test_c08_protocol_fidelity(tmp_path):
    """201 epochs with validation every 2 yields exactly 100 validation
    records, and saved-checkpoint errors strictly decrease."""
    samples, vocabs = generate_synthetic_corpus(SyntheticConfig(count=60), seed=1)
    split = split_dataset(samples, 0.2, seed=0)
    config = TrainConfig(epochs=201, validate_every=2, batch_size=16,
                         gru1_hidden=6, gru2_hidden=4, head_hidden=6,
                         checkpoint_dir=str(tmp_path))
    result = train(config, split, vocabs)
    validations = [r for r in result.records if r.validation_error is not None]
    assert len(validations) == 100
    assert [r.epoch for r in validations] == list(range(2, 201, 2))
    saved = [r.validation_error for r in result.records if r.checkpoint_saved]
    assert all(later < earlier for earlier, later in zip(saved, saved[1:]))
    assert result.best.best_val_error == min(r.validation_error for r in validations)
    print(f"criterion 8: 100 validations, {len(saved)} strictly improving checkpoints")


def test_c09_checkpoint_round_trip(tmp_path):
    sizes = ModelSizes(input_dim=10, verb_dim=3, state_dim=3,
                       gru1_hidden=5, gru2_hidden=4, head_hidden=5)
    params = init_params(sizes, seed=3)
    rng = np.random.default_rng(4)
    batch = pad_batch(
        [Sample(tokens=rng.integers(0, 9, size=4).tolist(),
                verb_label=np.array([1.0, 0.0, 0.0]),
                state_label=np.array([0.0, 0.0, 1.0]))],
        pad_index=9)
    before_v, before_s, _ = forward(params, batch)
    save_checkpoint(Checkpoint(params=params, epoch=1, best_val_error=0.5,
                               seeds={"split": 0, "init": 3, "shuffle": 0}),
                    tmp_path / "m.bin")
    loaded = load_checkpoint(tmp_path / "m.bin")
    after_v, after_s, _ = forward(loaded.params, batch)
    assert np.array_equal(before_v, after_v)
    assert np.array_equal(before_s, after_s)

    # Straight run vs save-at-k plus resume, under identical seeds.
    samples, vocabs = generate_synthetic_corpus(SyntheticConfig(count=60), seed=1)
    split = split_dataset(samples, 0.2, seed=0)

    def config(epochs, subdir):
        return TrainConfig(epochs=epochs, validate_every=2, batch_size=16,
                           gru1_hidden=6, gru2_hidden=4, head_hidden=6,
                           keep_all=True, checkpoint_dir=str(tmp_path / subdir))

    straight = train(config(6, "straight"), split, vocabs)
    train(config(3, "resumed"), split, vocabs)
    resumed = resume(tmp_path / "resumed" / "ckpt_epoch_3.bin", config(6, "resumed"),
                     split, vocabs)
    last_straight = [r.validation_error for r in straight.records
                     if r.validation_error is not None][-1]
    last_resumed = [r.validation_error for r in resumed.records
                    if r.validation_error is not None][-1]
    assert last_straight == last_resumed
    for name, arr in straight.final_params.flat().items():
        assert np.array_equal(arr, resumed.final_params.flat()[name])
    print(f"criterion 9: round trip exact; straight vs resumed val error {last_straight:.6f}")


def test_c10_rmsprop_first_step():
    sizes = ModelSizes(input_dim=4, verb_dim=2, state_dim=2,
                       gru1_hidden=2, gru2_hidden=2, head_hidden=2)
    params = init_params(sizes, seed=0)
    params.gru1.b_z[:] = 0.0
    state = RmsPropState.fresh(params)
    grads = params.like(np.zeros_like(params.data))
    grads.gru1.b_z[:] = 1.0
    rmsprop_step(params, grads.data, state)
    oracle = float(mp.mpf("1e-4") / (mp.sqrt(mp.mpf("0.1")) + mp.mpf("1e-8")))
    assert abs(abs(params.gru1.b_z[0]) - oracle) < 1e-12
    print(f"criterion 10: first-step magnitude {abs(params.gru1.b_z[0]):.12e}")
