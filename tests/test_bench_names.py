"""The names the benchmark reaches in the program must exist; without this
check a rename or a move would break only a bench run."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_benchmark_traces_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing.PATCHES
               if not hasattr(module, attr)]
    assert tracing.PATCHES and missing == []


def test_every_name_the_benchmark_calls_exists():
    # Every tanloss.<module>.<attr> written in the bench's source.
    names = {(node.value.attr, node.attr)
             for path in PERFBENCH.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
             and isinstance(node.value.value, ast.Name) and node.value.value.id == "tanloss"}
    missing = sorted(f"tanloss.{module}.{attr}" for module, attr in names
                     if not hasattr(importlib.import_module(f"tanloss.{module}"), attr))
    assert ("network", "backward") in names and ("corpus", "pad_batch") in names
    assert missing == []
