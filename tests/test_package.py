"""Guards for the package as a whole: it stays standard-library only and
exact, with no float literal anywhere in its source."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "semimono").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"__future__", "semimono"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"classify.py", "feasibility.py", "ratcore.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_own_package(path):
    imported = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = sorted({name for name in imported if name.split(".")[0] not in ALLOWED})
    assert not outside, f"{path.name} imports {outside}"


def test_source_has_no_float_literal():
    floats = [
        f"{path.relative_to(SRC)}:{node.lineno}: {node.value!r}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert not floats
