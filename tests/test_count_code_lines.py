import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", SCRIPT)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

FIXTURE = '''"""Module docstring
over two lines."""

# A comment on its own line.
import os  # a trailing comment does not hide code


def f(x):
    """One-line docstring."""

    # Another comment.
    text = """a string that is
not a docstring"""
    return (x +
            len(text))


class C:
    """Class docstring."""
    y = 1
'''


def test_counts_only_code_lines():
    # import, def, text (2 lines), return (2 lines), class, y = 1
    assert count_code_lines.code_lines(FIXTURE) == 8
