import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import tanloss.optim as optim
import tanloss.training as training
from tanloss.corpus import (DataError, DatasetSplit, Sample, SyntheticConfig,
                            generate_synthetic_corpus, split_dataset)
from tanloss.losses import tangent_loss
from tanloss.network import CheckpointError, load_checkpoint, save_checkpoint
from tanloss.training import TrainConfig, resume, total_loss, train


@pytest.fixture(scope="module")
def tiny_task():
    samples, vocabs = generate_synthetic_corpus(SyntheticConfig(count=60), seed=1)
    return split_dataset(samples, 0.2, seed=0), vocabs


def tiny_config(**overrides):
    config = TrainConfig(epochs=6, validate_every=2, batch_size=16,
                         gru1_hidden=6, gru2_hidden=4, head_hidden=6)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def digest(obj) -> str:
    """Hash of every array and scalar reachable through dataclass fields,
    dicts and lists: equal for a checkpoint and its reloaded file."""
    h = hashlib.sha256()

    def walk(x, path):
        if isinstance(x, np.ndarray):
            h.update(f"{path}{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).data)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                walk(getattr(x, f.name), f"{path}.{f.name}")
        elif isinstance(x, dict):
            for key in sorted(x):
                walk(x[key], f"{path}[{key}]")
        elif isinstance(x, (list, tuple)):
            for i, item in enumerate(x):
                walk(item, f"{path}[{i}]")
        else:
            h.update(f"{path}={x!r};".encode())

    walk(obj, "")
    return h.hexdigest()


def strip_wall_time(path):
    return [{k: v for k, v in json.loads(line).items() if k != "wall_time_ms"}
            for line in path.read_text().splitlines()]


class TestTotalLoss:
    def test_perfect_heads_score_zero(self):
        y = np.array([1.0, 0.0])
        assert total_loss(y, y.copy(), y, y.copy()) == 0.0

    def test_one_perfect_head_leaves_the_other(self):
        verb = np.array([1.0, 0.0])
        state_label = np.array([0.0, 1.0])
        state_pred = np.array([0.3, 0.8])
        expected = tangent_loss(state_label, state_pred)
        assert total_loss(verb, verb.copy(), state_pred, state_label) == pytest.approx(expected)

    def test_symmetric_heads_double(self):
        label = np.array([1.0, 0.0])
        pred = np.array([0.6, 0.2])
        one_head = tangent_loss(label, pred)
        assert total_loss(pred, label, pred, label) == pytest.approx(2 * one_head)


class TestProtocol:
    def test_two_epochs_cadence_two_validates_once(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        result = train(tiny_config(epochs=2, checkpoint_dir=str(tmp_path)), split, vocabs)
        validations = [r for r in result.records if r.validation_error is not None]
        assert len(validations) == 1
        assert validations[0].epoch == 2

    def test_validation_present_iff_epoch_on_cadence(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        result = train(tiny_config(epochs=7, validate_every=3, checkpoint_dir=str(tmp_path)),
                       split, vocabs)
        for record in result.records:
            assert (record.validation_error is not None) == (record.epoch % 3 == 0)

    def test_no_validation_means_no_best(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        result = train(tiny_config(epochs=1, validate_every=2, checkpoint_dir=str(tmp_path)),
                       split, vocabs)
        assert result.best is None

    def test_strict_improvement_rule(self, tiny_task, tmp_path, monkeypatch):
        errors = iter([5.0, 4.0, 4.5, 3.9])
        monkeypatch.setattr(training, "validation_error", lambda *a, **k: next(errors))
        split, vocabs = tiny_task
        result = train(tiny_config(epochs=8, checkpoint_dir=str(tmp_path)), split, vocabs)
        assert [r.checkpoint_saved for r in result.records if r.validation_error is not None] \
            == [True, True, False, True]
        assert result.best.best_val_error == 3.9

    def test_best_checkpoint_matches_log_minimum(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        result = train(tiny_config(epochs=10, checkpoint_dir=str(tmp_path)), split, vocabs)
        vals = [r.validation_error for r in result.records if r.validation_error is not None]
        assert result.best.best_val_error == min(vals)

    def test_saved_checkpoint_errors_strictly_decrease(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        result = train(tiny_config(epochs=12, checkpoint_dir=str(tmp_path)), split, vocabs)
        saved = [r.validation_error for r in result.records if r.checkpoint_saved]
        assert saved == sorted(saved, reverse=True)
        assert len(set(saved)) == len(saved)

    def test_loss_decreases_by_epoch_twenty(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        result = train(tiny_config(epochs=20, checkpoint_dir=str(tmp_path)), split, vocabs)
        assert result.records[19].mean_total_loss < result.records[0].mean_total_loss

    def test_empty_split_rejected(self, tiny_task, tmp_path):
        _, vocabs = tiny_task
        empty = DatasetSplit(train=[], validation=[], split_seed=0)
        with pytest.raises(DataError, match="nonempty"):
            train(tiny_config(checkpoint_dir=str(tmp_path)), empty, vocabs)

    def test_unlabeled_training_sample_rejected(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        bad = Sample(tokens=[1, 2], verb_label=np.zeros(9), state_label=np.zeros(7))
        broken = DatasetSplit(train=split.train[:4] + [bad], validation=split.validation,
                              split_seed=0)
        with pytest.raises(DataError, match="empty verb or state label"):
            train(tiny_config(checkpoint_dir=str(tmp_path)), broken, vocabs)

    def test_train_and_resume_need_a_checkpoint_dir(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        with pytest.raises(ValueError, match="checkpoint_dir"):
            train(tiny_config(), split, vocabs)
        train(tiny_config(epochs=2, keep_all=True, checkpoint_dir=str(tmp_path)), split, vocabs)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            resume(tmp_path / "ckpt_epoch_2.bin", tiny_config(epochs=4), split, vocabs)

    def test_bad_cadence_rejected(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        with pytest.raises(ValueError, match="validate_every"):
            train(tiny_config(validate_every=0, checkpoint_dir=str(tmp_path)), split, vocabs)


class TestDeterminism:
    def test_identical_configs_give_identical_logs(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        logs = []
        for name in ("a", "b"):
            config = tiny_config(epochs=8, checkpoint_dir=str(tmp_path / name))
            train(config, split, vocabs)
            logs.append(strip_wall_time(tmp_path / name / "train_log.jsonl"))
        assert logs[0] == logs[1]


class TestResume:
    def test_straight_run_equals_save_plus_resume(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        straight = train(tiny_config(epochs=6, checkpoint_dir=str(tmp_path / "straight"),
                                     keep_all=True), split, vocabs)

        first = train(tiny_config(epochs=3, checkpoint_dir=str(tmp_path / "resumed"),
                                  keep_all=True), split, vocabs)
        resumed = resume(tmp_path / "resumed" / "ckpt_epoch_3.bin",
                         tiny_config(epochs=6, checkpoint_dir=str(tmp_path / "resumed"),
                                     keep_all=True), split, vocabs)

        merged = first.records + resumed.records
        assert [r.epoch for r in merged] == [r.epoch for r in straight.records]
        for a, b in zip(merged, straight.records):
            assert a.mean_total_loss == b.mean_total_loss
            assert a.validation_error == b.validation_error
            assert a.checkpoint_saved == b.checkpoint_saved
        for name, arr in straight.final_params.flat().items():
            assert np.array_equal(arr, resumed.final_params.flat()[name])

    def test_resume_is_exact_where_weight_gradients_span_several_chunks(self, tiny_task,
                                                                         tmp_path, monkeypatch):
        # At GRU 300/400 and CHUNK 2**14, the optimizer forms every factored
        # weight gradient in several row panels.
        monkeypatch.setattr(optim, "CHUNK", 1 << 14)
        split, vocabs = tiny_task
        sizes = dict(gru1_hidden=300, gru2_hidden=400, head_hidden=20)
        straight = train(tiny_config(epochs=3, checkpoint_dir=str(tmp_path / "straight"),
                                     **sizes), split, vocabs)
        train(tiny_config(epochs=1, checkpoint_dir=str(tmp_path / "resumed"), keep_all=True,
                          **sizes), split, vocabs)
        resumed = resume(tmp_path / "resumed" / "ckpt_epoch_1.bin",
                         tiny_config(epochs=3, checkpoint_dir=str(tmp_path / "resumed"),
                                     **sizes), split, vocabs)
        assert straight.final_params.data.tobytes() == resumed.final_params.data.tobytes()
        assert (straight.final_state.cache.data.tobytes()
                == resumed.final_state.cache.data.tobytes())

    def test_resume_zero_epochs_is_a_noop(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        config = tiny_config(epochs=4, checkpoint_dir=str(tmp_path), keep_all=True)
        result = train(config, split, vocabs)
        again = resume(tmp_path / "ckpt_epoch_4.bin", config, split, vocabs)
        assert again.records == []
        for name, arr in result.final_params.flat().items():
            assert np.array_equal(arr, again.final_params.flat()[name])

    def test_resume_uses_the_stored_rmsprop_settings(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        train(tiny_config(epochs=2, checkpoint_dir=str(tmp_path), keep_all=True), split, vocabs)
        ckpt = load_checkpoint(tmp_path / "ckpt_epoch_2.bin")
        ckpt.rmsprop.rho, ckpt.rmsprop.eps = 0.5, 1e-6
        save_checkpoint(ckpt, tmp_path / "other.bin")
        config = tiny_config(epochs=3, checkpoint_dir=str(tmp_path / "k"), keep_all=True)
        result = resume(tmp_path / "other.bin", config, split, vocabs)
        state = result.final_state
        assert (state.lr, state.rho, state.eps) == (1e-4, 0.5, 1e-6)
        stored = load_checkpoint(tmp_path / "k" / "ckpt_epoch_3.bin").rmsprop
        assert (stored.lr, stored.rho, stored.eps) == (1e-4, 0.5, 1e-6)
        # The settings reached the update: the stored ones give other parameters.
        default = resume(tmp_path / "ckpt_epoch_2.bin",
                         tiny_config(epochs=3, checkpoint_dir=str(tmp_path / "default")),
                         split, vocabs)
        assert not np.array_equal(default.final_params.data, result.final_params.data)

    def test_resume_with_other_sizes_rejected(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        config = tiny_config(epochs=2, checkpoint_dir=str(tmp_path), keep_all=True)
        train(config, split, vocabs)
        with pytest.raises(CheckpointError, match="does not match"):
            resume(tmp_path / "ckpt_epoch_2.bin",
                   tiny_config(epochs=4, gru1_hidden=7, checkpoint_dir=str(tmp_path)),
                   split, vocabs)


class TestCheckpointsAndLog:
    def test_earlier_best_is_kept_apart_from_the_final_state(self, tiny_task, tmp_path,
                                                             monkeypatch):
        split, vocabs = tiny_task
        errors = iter([3.0, 2.0, 2.5])
        monkeypatch.setattr(training, "validation_error", lambda *a, **k: next(errors))
        result = train(tiny_config(epochs=6, checkpoint_dir=str(tmp_path)), split, vocabs)
        assert result.best.epoch == 4
        assert digest(result.best) == digest(load_checkpoint(tmp_path / "ckpt_best.bin"))
        assert result.best.params.data.tobytes() != result.final_params.data.tobytes()
        assert not np.shares_memory(result.best.params.data, result.final_params.data)

    def test_best_at_the_last_validation_shares_the_final_state(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        result = train(tiny_config(epochs=2, checkpoint_dir=str(tmp_path)), split, vocabs)
        assert result.best.epoch == 2
        assert result.best.params is result.final_params
        assert digest(result.best) == digest(load_checkpoint(tmp_path / "ckpt_best.bin"))

    def test_each_epoch_checkpoint_is_that_epochs_final_state(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        train(tiny_config(epochs=4, keep_all=True, checkpoint_dir=str(tmp_path)), split, vocabs)
        for k in range(1, 5):
            stopped = train(tiny_config(epochs=k, checkpoint_dir=str(tmp_path / f"stopped_{k}")),
                            split, vocabs)
            saved = load_checkpoint(tmp_path / f"ckpt_epoch_{k}.bin")
            assert saved.epoch == k
            assert saved.best_val_error == (stopped.best.best_val_error if stopped.best
                                            else np.inf)
            assert saved.params.data.tobytes() == stopped.final_params.data.tobytes()
            for name, arr in stopped.final_state.cache.flat().items():
                assert saved.rmsprop.cache.flat()[name].tobytes() == arr.tobytes(), (k, name)

    def test_log_keeps_the_epochs_finished_before_a_failure(self, tiny_task, tmp_path,
                                                            monkeypatch):
        split, vocabs = tiny_task
        train(tiny_config(epochs=4, checkpoint_dir=str(tmp_path / "straight")), split, vocabs)
        make_batches = training.make_batches
        log = tmp_path / "failed" / "train_log.jsonl"
        on_disk = []

        def failing_in_epoch_3(samples, batch_size, seed, **kwargs):
            batches = make_batches(samples, batch_size, seed=seed, **kwargs)
            if seed == 3:       # shuffle_seed 0 + epoch 3: fail after one batch
                on_disk.append(strip_wall_time(log))
                yield batches[0]
                raise RuntimeError("injected failure")
            yield from batches

        monkeypatch.setattr(training, "make_batches", failing_in_epoch_3)
        with pytest.raises(RuntimeError, match="injected"):
            train(tiny_config(epochs=4, checkpoint_dir=str(log.parent)), split, vocabs)
        straight = strip_wall_time(tmp_path / "straight" / "train_log.jsonl")
        # Epochs 1-2 were on disk while epoch 3 ran, and nothing came after.
        assert on_disk == [straight[:2]]
        assert strip_wall_time(log) == straight[:2]

    def test_non_finite_gradient_names_epoch_batch_and_coordinate(self, tiny_task, tmp_path,
                                                                   monkeypatch):
        split, vocabs = tiny_task
        grad, steps = training.tangent_loss_grad, training.rmsprop_step
        calls, before = [], []

        def poisoned(y, p):
            calls.append(None)
            # Two calls per batch and 3 batches of 16 per epoch: call 15 is
            # the verb head's of epoch 3, batch 2.
            return np.full(np.shape(p), np.nan) if len(calls) == 15 else grad(y, p)

        def recording(params, *args):
            before.append((params.data, params.data.copy()))
            return steps(params, *args)

        monkeypatch.setattr(training, "tangent_loss_grad", poisoned)
        monkeypatch.setattr(training, "rmsprop_step", recording)
        with pytest.raises(ValueError, match=r"^epoch 3, batch 2: non-finite gradient at "
                                             r"gru1\.W_z\[0, \d+\]$"):
            train(tiny_config(epochs=4, checkpoint_dir=str(tmp_path)), split, vocabs)
        live, copy = before[-1]
        assert live.tobytes() == copy.tobytes()     # the failing step moved no parameter
        assert [r["epoch"] for r in strip_wall_time(tmp_path / "train_log.jsonl")] == [1, 2]

    def test_a_fresh_run_starts_its_own_log(self, tiny_task, tmp_path):
        split, vocabs = tiny_task
        for _ in range(2):
            train(tiny_config(epochs=3, checkpoint_dir=str(tmp_path)), split, vocabs)
        assert [r["epoch"] for r in strip_wall_time(tmp_path / "train_log.jsonl")] == [1, 2, 3]


class TestPeakMemory:
    """At these sizes the parameters dominate what training allocates.  The
    live state is the parameters and the RMSProp cache (2 parameter sizes).
    A batch's gradient is a dense part of under a tenth of a parameter size
    and the factors of the large weight gradients, which the optimizer forms
    in row panels of about optim.CHUNK elements (0.4 parameter sizes here),
    so no full-size gradient buffer exists.  No copy of the best is kept: when
    updates followed it, the best is read back from disk (2 more).
    Activations stay below half a parameter size."""

    def peak_in_parameter_sizes(self, tiny_task, tmp_path, **overrides):
        split, vocabs = tiny_task
        config = tiny_config(batch_size=4, gru1_hidden=256, gru2_hidden=256, head_hidden=32,
                             checkpoint_dir=str(tmp_path), **overrides)
        tracemalloc.start()
        try:
            result = train(config, split, vocabs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / result.final_params.data.nbytes

    def test_an_earlier_best_is_read_back_from_disk(self, tiny_task, tmp_path, monkeypatch):
        # Two improvements, each followed by further updates.
        errors = iter([3.0, 2.0, 2.5, 2.6])
        monkeypatch.setattr(training, "validation_error", lambda *a, **k: next(errors))
        assert self.peak_in_parameter_sizes(tiny_task, tmp_path, epochs=4,
                                            validate_every=1) < 2 + 1 + 1.5

    def test_a_run_ending_on_its_only_improvement_never_copies(self, tiny_task, tmp_path):
        assert self.peak_in_parameter_sizes(tiny_task, tmp_path, epochs=4,
                                            validate_every=4) < 2 + 1
