import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", SCRIPT)
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)
README = SCRIPT.parent.parent / "README.md"

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


def test_readme_states_the_current_counts():
    # Joined on single spaces, so the sentence may wrap anywhere.
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = re.search(r"(\d+) code lines in `src/tanloss`, (\d+) of them in `network\.py`", text)
    assert match, "README states no code-line count"
    counts = {path.name: count_code_lines.code_lines(path.read_text(encoding="utf-8"))
              for path in count_code_lines.SRC.glob("*.py")}
    assert (int(match[1]), int(match[2])) == (sum(counts.values()), counts["network.py"])
