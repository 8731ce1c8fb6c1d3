import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tanloss.network import ModelParams, ModelSizes
from tanloss.optim import Columns, Product

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "step_probe.py"


@pytest.fixture
def step_probe(monkeypatch):
    # Loading the script pins the BLAS variables to one thread; restore them after.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("step_probe", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_times_each_phase_at_the_given_sizes(step_probe):
    for vocab in (5, 9):
        r = step_probe.probe(vocab, [6, 4, 3], 3, 2, 0)
        sizes = ModelSizes(input_dim=vocab, verb_dim=8, state_dim=6, gru1_hidden=6,
                           gru2_hidden=4, head_hidden=3)
        assert r["vocab"] == vocab
        assert r["parameters"] == ModelParams.new(sizes).data.size
        assert r["gru1_W"] == 3 * 6 * vocab
        # The flat arrays (the biases and the heads' W2), then the
        # factors and the present columns of gru1.W (at least one).
        dense = 3 * 6 + 3 * 4 + (3 + 8 * 3 + 8) + (3 + 6 * 3 + 6)
        assert r["gradient_bytes"] > 8 * (dense + 3 * 6)
        phases = [r["forward_s"], r["backward_s"], r["rmsprop_step_s"]]
        assert min(phases) > 0
        assert r["step_s"] >= sum(phases) * (1 - 1e-9)


def test_gradient_bytes_counts_each_array_once(step_probe):
    dense, deltas, h = np.zeros(7), np.zeros((5, 12)), np.zeros((5, 4))
    values, index = np.zeros((2, 6)), np.array([0, 3], dtype=np.int64)
    grads = SimpleNamespace(pieces=[Columns(values.T, index, (6, 9)), dense[:3],
                                    Product(deltas[1:, :8], h[1:]), dense[3:],
                                    Product(deltas[1:, 8:], h[1:] * 2)])
    assert step_probe.gradient_bytes(grads) == 8 * (12 + 2 + 7 + 60 + 20 + 16)


def test_products_time_each_recurrent_block_and_row_count(step_probe):
    results = step_probe.products([6, 4, 3], [1, 2, 5], 2, 0)
    assert [(r["block"], r["rows"]) for r in results] == [
        (block, k) for block in ([12, 6], [6, 6], [8, 4], [4, 4]) for k in (1, 2, 5)]
    assert min(min(r["plain_s"], r["panels_s"]) for r in results) > 0


def test_main_prints_one_json_line_per_run(step_probe, monkeypatch, capsys):
    monkeypatch.setattr(step_probe, "VOCABS", [5, 9])
    monkeypatch.setattr(step_probe, "SIZES", [6, 4, 3])
    monkeypatch.setattr(step_probe, "ROWS", 3)
    monkeypatch.setattr(step_probe, "REPEATS", 2)
    monkeypatch.setattr(step_probe, "PRODUCT_ROWS", [1, 3])
    assert step_probe.main() == 0
    (line,) = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert (record["blas_threads"], record["sizes"], record["rows"]) == (1, [6, 4, 3], 3)
    assert [r["vocab"] for r in record["results"]] == [5, 9]
    assert all(r["gradient_bytes"] > 0 for r in record["results"])
    assert [(r["block"], r["rows"]) for r in record["products"]] == [
        (block, k) for block in ([12, 6], [6, 6], [8, 4], [4, 4]) for k in (1, 3)]
