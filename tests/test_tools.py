"""The line counter in tools/src_lines.py, which the code/docstring/
comment/blank accounting of the project's changes is read from."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

# every kind of line the counter tells apart
SOURCE = '''"""Module docstring.

Its blank line above counts as docstring.
"""

# a comment-only line
x = 1  # a trailing comment leaves the line code
TEXT = """first

second"""


def f():
    """One line."""
    return TEXT
'''


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_split_counts_each_line_once_by_kind():
    # docstring: lines 1-4 (blank line 2 included) and 14; comment: 6;
    # blank: 5, 11, 12; code: 7, 8-10 (a multi-line string that is not a
    # docstring, its blank line 9 included), 13 and 15
    counts = _load().split(SOURCE)
    assert counts == {"code": 6, "docstring": 5, "comment": 1, "blank": 3}
    assert sum(counts.values()) == len(SOURCE.splitlines())
