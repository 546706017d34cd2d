"""Count the lines of every module under src/semimono as code, docstring,
comment and blank, per module and in total.

    python3 tools/src_lines.py

A docstring line is any line of a statement that is a bare string
expression, blank lines inside it included, so each line is counted once.
A comment line holds only a comment; a blank line is empty outside every
string; every other line is code, continuation lines of other strings
included.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semimono"


def split(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    lines = source.splitlines()
    docstring: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            docstring.update(range(node.lineno, node.end_lineno + 1))
    comment: set[int] = set()
    in_string: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            comment.add(tok.start[0])
        elif tok.type == tokenize.STRING:
            in_string.update(range(tok.start[0] + 1, tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if number in docstring:
            counts["docstring"] += 1
        elif number in comment:
            counts["comment"] += 1
        elif not line.strip() and number not in in_string:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> None:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS) + f"{'total':>11}")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = split(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        row = "".join(f"{counts[kind]:>11}" for kind in KINDS)
        print(f"{path.name:<16}{row}{sum(counts.values()):>11}")
    row = "".join(f"{total[kind]:>11}" for kind in KINDS)
    print(f"{'total':<16}{row}{sum(total.values()):>11}")


if __name__ == "__main__":
    main()
