import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def test_reads_the_json_object_on_the_last_line():
    stdout = ('workload toy-train  seed 1  rounds 5  BLAS threads 1\n'
              '  attempted 10  failed 0\n'
              '{"correct": true, "attempted": 10, "failed": 0, "metrics": {}}\n\n')
    assert bench_record.last_json(stdout)["attempted"] == 10


def test_median_and_interquartile_range():
    assert bench_record.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "iqr": 1.0}
    summary = bench_record.summarize([1.0, 2.0, 4.0, 8.0])
    assert summary["median"] == 3.0
    assert summary["iqr"] == pytest.approx(5.0 - 1.75)


def test_code_lines_are_the_counters_totals():
    counts = bench_record.code_lines(SCRIPT.parent.parent)
    assert counts["code"] > 0 and counts["physical"] > counts["code"]
