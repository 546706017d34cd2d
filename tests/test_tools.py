"""The line counter in tools/src_lines.py, which the code/docstring/
comment/blank accounting of the project's changes is read from, the line
collector in tools/src_coverage.py, a scan of the package for imports
that nothing uses, and a check that the docs point only at what a module
of the package defines."""

import ast
import importlib.util
import re
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"

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


def _load(name="src_lines"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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


TINY = """def sign(x):
    if x < 0:
        return -1
    elif x == 0:
        return 0
    return 1


def spawn(x):
    out = []
    worker = threading.Thread(target=lambda: out.append(sign(x)))
    worker.start()
    worker.join()
    return out[0]
"""


def test_coverage_lists_the_lines_no_call_reaches(tmp_path):
    # sign(5) tests both conditions and returns 1, so only the two other
    # returns stay unreached; a second module shows that only the watched
    # paths are recorded.  Importing runs the def lines, and calling sign
    # from a thread that the run starts reaches line 2 there.
    cov = _load("src_coverage")
    path = tmp_path / "tiny.py"
    path.write_text(TINY)
    other = tmp_path / "other.py"
    other.write_text("VALUE = 1\n")

    def run():
        namespace = {"threading": threading}
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        exec(compile(other.read_text(), str(other), "exec"), {})
        return namespace["sign"](5), namespace["spawn"](-1)

    result, reached = cov.reached_lines([path], run)
    assert result == (1, -1)
    assert set(reached) == {path.resolve()}
    missed = cov.executable_lines(path) - reached[path.resolve()]
    assert sorted(missed) == [5]
    assert cov.ranges([3, 5, 7, 8, 9, 12]) == "3, 5, 7-9, 12"


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads as a name (an
    attribute chain reads its first name); ``from __future__`` is not an
    import of a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is exempt
    sample = "from __future__ import annotations\nimport os.path\nfrom .m import a, b as c\nc(os)\n"
    assert unused_imports(sample) == ["a"]
    found = {
        path.name: names
        for path in sorted((ROOT / "src" / "semimono").glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert found == {}


# ``module.attr`` in a src docstring, `module.attr` in README, a call's
# arguments allowed inside the quotes
MODULE_REFERENCE = re.compile(r"`+(\w+)\.(\w+)[^`]*`+")


def defined_in(module, attr: str) -> bool:
    """Does ``module`` have ``attr``, and define it when it is a function
    or a class, instead of importing it from another module?"""
    value = getattr(module, attr, None)
    return value is not None and (
        not callable(value) or getattr(value, "__module__", None) == module.__name__
    )


def test_every_module_reference_in_the_docs_resolves():
    # a reference into a module of the package must name what that module
    # defines, so that a rule moved to another module takes its pointers
    # along
    assert defined_in(importlib.import_module("semimono.cli"), "SUPPORT_BUDGET")
    assert not defined_in(importlib.import_module("semimono.verify"), "is_Z")
    package = ROOT / "src" / "semimono"
    modules = {path.stem for path in package.glob("*.py") if not path.stem.startswith("_")}
    texts = [("README.md", (ROOT / "README.md").read_text())]
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                texts.append((path.name, ast.get_docstring(node, clean=False) or ""))
    references = [
        (where, module, attr)
        for where, text in texts
        for module, attr in MODULE_REFERENCE.findall(text)
        if module in modules
    ]
    missing = [
        (where, f"{module}.{attr}")
        for where, module, attr in references
        if not defined_in(importlib.import_module(f"semimono.{module}"), attr)
    ]
    assert len(references) >= 20 and missing == []
