import json
import time

import pytest

from tanloss import cli, training


@pytest.fixture
def wrong_backward(monkeypatch):
    """Make ``training.backward`` scale every gradient it writes by 1.01: a
    wrong backward pass that a gradient check must catch."""
    original = training.backward

    def scaled(*args, **kwargs):
        grads = original(*args, **kwargs)
        for grad in grads.values():
            grad *= 1.01
        return grads

    monkeypatch.setattr(training, "backward", scaled)


@pytest.fixture(scope="session")
def toy_run(tmp_path_factory):
    """One full synthetic training run at toy scale, shared by the end-to-end
    tests: 1000 samples (seed 1), GRU 64/32, head hidden 32, batch 32,
    lr 1e-4, 200 epochs, plus a 200-sample held-out set (seed 2)."""
    root = tmp_path_factory.mktemp("toy_run")
    corpus_dir = root / "corpus"
    held_dir = root / "held"
    ckpt_dir = root / "ckpt"
    assert cli.main(["gen-synthetic", "--out", str(corpus_dir), "--count", "1000",
                     "--seed", "1"]) == 0
    assert cli.main(["gen-synthetic", "--out", str(held_dir), "--count", "200",
                     "--seed", "2"]) == 0
    t0 = time.perf_counter()
    code = cli.main(["train", "--data", str(corpus_dir / "samples.jsonl"),
                     "--vocab-dir", str(corpus_dir), "--ckpt-dir", str(ckpt_dir),
                     "--epochs", "200", "--validate-every", "2", "--batch-size", "32",
                     "--lr", "0.0001", "--gru1", "64", "--gru2", "32",
                     "--head-hidden", "32", "--quiet"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    records = [json.loads(line)
               for line in (ckpt_dir / "train_log.jsonl").read_text().splitlines()]
    return {
        "corpus_dir": corpus_dir,
        "held_data": held_dir / "samples.jsonl",
        "ckpt": ckpt_dir / "ckpt_best.bin",
        "log_records": records,
        "train_seconds": elapsed,
    }
