"""List the lines of every module under src/semimono that a pytest run
never reaches in-process.

    python3 tools/src_coverage.py [pytest arguments]

Runs ``pytest.main`` in this process under a line collector installed with
``sys.settrace`` and ``threading.settrace``, which records only frames of
the package's modules, then prints per module the executable lines no
test reached, as ranges, and the totals.  The executable lines are those
the compiled module's code objects map instructions to.  Code run in a
subprocess (the ``python -m semimono`` entry test) is not seen.  The
collector slows the suite several times over, so this is a tool to read,
not a test step.  Standard library and pytest only; the exit status is
pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path
from typing import Any, Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semimono"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled module's code objects, nested
    ones included, map an instruction to (0, a code object's entry, left
    out)."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def reached_lines(paths: Iterable[Path], run: Callable[[], Any]) -> tuple[Any, dict[Path, set[int]]]:
    """Call ``run`` with every new frame of a module at ``paths`` traced,
    in this thread and in threads it starts; returns its result and the
    lines reached per path.  Any tracer installed before is restored."""
    reached: dict[Path, set[int]] = {Path(p).resolve(): set() for p in paths}
    # co_filename -> the set to record into, or None for a file not watched
    targets: dict[str, Any] = {}

    def local(frame: types.FrameType, event: str, arg: Any) -> Any:
        if event == "line":
            targets[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame: types.FrameType, event: str, arg: Any) -> Any:
        name = frame.f_code.co_filename
        if name not in targets:
            targets[name] = reached.get(Path(os.path.realpath(name)))
        return local if targets[name] is not None else None

    before = sys.gettrace(), threading.gettrace()
    sys.settrace(start)
    threading.settrace(start)
    try:
        result = run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return result, reached


def ranges(lines: Iterable[int]) -> str:
    """Sorted line numbers as runs: 3, 7-9, 12."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    import pytest

    paths = sorted(PACKAGE.glob("*.py"))
    status, reached = reached_lines(paths, lambda: pytest.main(argv))
    print(f"{'module':<16}{'executable':>11}{'unreached':>11}  lines")
    total = missed_total = 0
    for path in paths:
        lines = executable_lines(path)
        missed = lines - reached[path.resolve()]
        total += len(lines)
        missed_total += len(missed)
        print(f"{path.name:<16}{len(lines):>11}{len(missed):>11}  {ranges(missed)}")
    print(f"{'total':<16}{total:>11}{missed_total:>11}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
