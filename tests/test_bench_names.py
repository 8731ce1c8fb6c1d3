"""The module attributes the benchmark's traced run wraps must exist;
without this check their removal would break only a traced bench run."""

import importlib.util
from pathlib import Path


def test_every_name_the_benchmark_traces_exists():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing.PATCHES
               if not hasattr(module, attr)]
    assert tracing.PATCHES and missing == []
