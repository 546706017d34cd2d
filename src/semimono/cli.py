"""Command-line front end: classify matrices, run theorem audits, explore
for counterexamples, and solve LCP instances.

File formats are exact-rational only: a matrix file holds the order n on
the first line and then n rows of n whitespace-separated tokens, each an
integer or p/q fraction; a vector file holds n and then n tokens.  Floats
are rejected on sight.

Each verb is a function of the parsed arguments alone.  It returns a
``Report`` tuple: the canonical texts its input digest hashes, its JSON
``results``, the human-readable lines it prints without ``--json``, and
its exit code.  Where ``results`` holds a value, the lines read it from
there.  ``main`` dispatches to the verb, times the call, wraps ``results``
in the ``semimono-report/1`` envelope and prints either the JSON or the
lines; no verb prints.

Exit codes: 0 = ran and every asserted property passed; 1 = a validated
counterexample or violation was found; 2 = usage or parse error, including
an order whose 2^n - 1 supports exceed SUPPORT_BUDGET; 141 = stdout was
closed before the report was written (a broken pipe).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from . import classify as cls
from . import explore, lcp, verify
from .classify import Variant
from .ratcore import RatMatrix, RatVector, _token_fault, rat

SCHEMA = "semimono-report/1"

T = TypeVar("T")

# Every command sweeps the 2^n - 1 principal supports of its matrix, and the
# time doubles with each order.  At order 12 a classify took up to 3.6 s, an
# invariance audit 8.7 s and an LCP solve 3.2 s on a 2-core machine.
SUPPORT_BUDGET = 2**12 - 1


class CliError(Exception):
    """Usage or parse failure; maps to exit code 2."""


def _check_budget(n: int) -> None:
    """Refuse, before any sweep, an order whose supports exceed the budget."""
    max_order = (SUPPORT_BUDGET + 1).bit_length() - 1
    if n > max_order:
        raise CliError(
            f"order {n} is over the support budget: SUPPORT_BUDGET = {SUPPORT_BUDGET} "
            f"supports (2^n - 1) admits orders up to {max_order}"
        )


# ---------------------------------------------------------------------------
# exact I/O


def parse_rational_token(token: str, where: str) -> Fraction:
    try:
        return rat(token)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from exc


def _split_file(text: str, source: str, kind: str, what: str) -> tuple[int, list[str]]:
    """The order or length on the first nonblank line of a matrix or vector
    file, under the entries' ASCII and no-'_' rule (``int`` would accept
    both), and the nonblank lines after it."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CliError(f"{source}: empty {kind} file")
    token = lines[0].strip()
    fault = _token_fault(token, f"the {what} must be written in 0-9")
    if fault is not None:
        raise CliError(f"{source}: first line {token!r} {fault}")
    try:
        return int(token), lines[1:]
    except ValueError as exc:
        raise CliError(f"{source}: first line must be the {what}, got {lines[0]!r}") from exc


def parse_matrix_text(text: str, source: str) -> RatMatrix:
    n, lines = _split_file(text, source, "matrix", "order")
    if n < 1:
        raise CliError(f"{source}: order must be >= 1")
    if len(lines) != n:
        raise CliError(f"{source}: expected {n} rows after the order line, got {len(lines)}")
    rows = []
    for i, line in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != n:
            raise CliError(f"{source}: row {i} has {len(tokens)} entries, expected {n}")
        rows.append(
            [parse_rational_token(tok, f"{source}: row {i}, column {j}") for j, tok in enumerate(tokens, start=1)]
        )
    return RatMatrix(rows)


def parse_vector_text(text: str, source: str) -> RatVector:
    n, lines = _split_file(text, source, "vector", "length")
    tokens = " ".join(lines).split()
    if len(tokens) != n:
        raise CliError(f"{source}: expected {n} entries, got {len(tokens)}")
    return tuple(
        parse_rational_token(tok, f"{source}: entry {j}") for j, tok in enumerate(tokens, start=1)
    )


def _load(path: str, parse: Callable[[str, str], T]) -> T:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    return parse(text, path)


def format_matrix(m: RatMatrix) -> str:
    body = "\n".join(" ".join(str(v) for v in row) for row in m.entries)
    return f"{m.order}\n{body}\n"


def format_vector(v: RatVector) -> str:
    return f"{len(v)}\n{' '.join(str(x) for x in v)}\n"


# ---------------------------------------------------------------------------
# JSON views


def _mat_json(m: RatMatrix) -> dict:
    return {"order": m.order, "entries": [[str(v) for v in row] for row in m.entries]}


def _vec_json(v: RatVector) -> list[str]:
    return [str(x) for x in v]


def _witness_json(w) -> Optional[dict]:
    if w is None:
        return None
    if isinstance(w, cls.SupportWitness):
        return {"support": list(w.support.members), "vector": _vec_json(w.vector)}
    return {"support": list(w.support.members), "minor": str(w.minor)}


def _verdict_json(v: cls.ClassVerdict) -> dict:
    return {"label": v.label.value, "member": v.member, "witness": _witness_json(v.witness)}


def _search_json(r: explore.SearchReport) -> dict:
    return {
        "target": r.target,
        "attempts": r.attempts,
        "hit_count": r.hit_count,
        "hits": [_mat_json(m) for m in r.hits],
        "counterexamples": [
            {"matrix": _mat_json(c.matrix), "failed": c.failed, "evidence": c.evidence}
            for c in r.counterexamples
        ],
        "notes": list(r.notes),
    }


# ---------------------------------------------------------------------------
# text views


def _mark(flag: bool) -> str:
    return "yes" if flag else "no"


def _support_text(members: Sequence[int]) -> str:
    """A support as ``{i,j}``, from the member list that ``results`` holds."""
    return "{" + ",".join(str(i) for i in members) + "}"


def _vec_text(v: Sequence[str]) -> str:
    return f"({', '.join(v)})"


def _witness_text(verdict: dict) -> str:
    """The witness of a verdict that is not a member, read from the verdict's
    JSON view: the failing support, and for P and P0 its minor."""
    w = verdict["witness"]
    if w is None or verdict["member"]:
        return ""
    if "vector" in w:
        return f"  [witness support {_support_text(w['support'])}]"
    return f"  [witness minor at {_support_text(w['support'])}: {w['minor']}]"


# ---------------------------------------------------------------------------
# subcommands

# What a verb returns to ``main``: (digest texts, results, lines, exit code),
# as the module docstring sets out.
Report = tuple[list[str], dict, list[str], int]


# the --variant choices of audit and explore
_VARIANTS = {"e0": Variant.E0, "e": Variant.E}


def _cmd_classify(args: argparse.Namespace) -> Report:
    a = _load(args.matrix, parse_matrix_text)
    n = a.order
    _check_budget(n)
    p0, p = cls._minor_verdicts(a)
    # (A + A^T)/2 has A's quadratic form and is its own symmetric part, so
    # the four copositive results below share one build of it
    sym = a.symmetric_part()
    verdicts = {
        "semimonotone": cls.is_semimonotone(a),
        "strictly_semimonotone": cls.is_strictly_semimonotone(a),
        "P0": p0,
        "P": p,
        "copositive": cls.is_copositive(sym),
        "strictly_copositive": cls.is_strictly_copositive(sym),
        "inverse_Z": cls.is_inverse_Z(a),
    }
    if n >= 2:
        verdicts["almost_semimonotone"] = cls.is_almost_semimonotone(a, Variant.E0)
        verdicts["almost_strictly_semimonotone"] = cls.is_almost_semimonotone(a, Variant.E)
    orders = {
        "E0": cls.exact_order(a, Variant.E0),
        "E": cls.exact_order(a, Variant.E),
        "copositive_E0": cls.copositive_exact_order(sym, Variant.E0),
        "copositive_E": cls.copositive_exact_order(sym, Variant.E),
    }
    profile = cls.negative_entry_profile(a)
    results = {
        "order": n,
        "verdicts": {k: _verdict_json(v) for k, v in verdicts.items()},
        "Z": cls.is_Z(a),
        "nonnegative": cls.is_nonnegative(a),
        "exact_order": {
            k: {"variant": r.variant.value, "k": r.k, "evidence": [s.value for s in r.evidence]}
            for k, r in orders.items()
        },
        "negative_entries": {
            "rows": list(profile.row_counts),
            "columns": list(profile.column_counts),
        },
    }

    table = [(k, _mark(v["member"]) + _witness_text(v)) for k, v in results["verdicts"].items()]
    table += [("Z", _mark(results["Z"])), ("nonnegative", _mark(results["nonnegative"]))]
    table += [("exact order " + k, r.describe()) for k, r in orders.items()]
    table.append(("negative entries (min row/col)", f"{profile.min_row}/{profile.min_column}"))
    lines = [f"matrix {args.matrix} (order {n})"]
    lines += [f"  {label:32s} {text}" for label, text in table]
    return [format_matrix(a)], results, lines, 0


def _cmd_audit(args: argparse.Namespace) -> Report:
    a = _load(args.matrix, parse_matrix_text)
    b = _load(args.matrix_b, parse_matrix_text) if args.matrix_b else None
    _check_budget(max(m.order for m in (a, b) if m is not None))
    try:
        audit = verify.AUDITS[args.theorem](a, _VARIANTS[args.variant], args.seed, b)
    except ValueError as exc:  # WrongOrderError and NotSymmetricError included
        raise CliError(f"audit {args.theorem}: {exc}") from exc

    results = {
        "audit": audit.audit_id,
        "hypotheses_met": audit.hypotheses_met,
        "hypotheses_note": audit.hypotheses_note,
        "conclusions": [
            {"name": c.name, "passed": c.passed, "evidence": c.evidence} for c in audit.conclusions
        ],
        "counterexample": None if audit.counterexample is None else _mat_json(audit.counterexample),
    }
    lines = [
        f"audit {args.theorem} on {args.matrix}",
        f"  hypotheses met: {_mark(results['hypotheses_met'])} ({results['hypotheses_note']})",
    ]
    lines += [
        f"  [{'pass' if c['passed'] else 'FAIL'}] {c['name']}: {c['evidence']}"
        for c in results["conclusions"]
    ]
    if not results["conclusions"] and not results["hypotheses_met"]:
        lines.append("  conclusions skipped")
    if audit.counterexample is not None:
        lines.append("  counterexample matrix:")
        lines += ["    " + row for row in str(audit.counterexample).splitlines()]
    digest_texts = [format_matrix(m) for m in (a, b) if m is not None]
    return digest_texts, results, lines, 0 if audit.ok else 1


_TEMPLATES = {
    "pattern": explore.template_exact_order_pattern,
    "z": lambda n, variant: explore.template_z(n),
    "free": lambda n, variant: explore.template_free(n),
    "diag-free": lambda n, variant: explore.template_diag_nonneg_off_free(n),
    "nonneg": lambda n, variant: explore.template_nonneg(n),
}


class _Target(NamedTuple):
    """One explore target: its default template, its search, whether that
    search takes (config, k, variant, hits) or only (config, hits), and the
    ``GeneratorConfig`` fields it calibrates."""

    template: str
    search: Callable[..., explore.SearchReport]
    needs_k: bool
    calibration: dict[str, object]


# Conjecture targets use calibrated bounds: they want diagonals that dominate
# the off-diagonal magnitudes, and conjecture 2's free template leans negative.
_CONJECTURE_BOUNDS = {"numerator_bound": 4, "denominator_bound": 2, "diagonal_numerator_bound": 8}
_TARGETS = {
    "exact-order": _Target("pattern", explore.search_exact_order, True, {}),
    "conjecture1": _Target("z", explore.search_conjecture_1, False, _CONJECTURE_BOUNDS),
    "conjecture2": _Target("diag-free", explore.search_conjecture_2, False,
                           {**_CONJECTURE_BOUNDS, "free_weights": (12, 1, 2)}),
    "neg-entries": _Target("pattern", explore.search_negative_entries_question, True, {}),
}


def _write_out(directory: str, files: dict[str, str]) -> None:
    """Write each (name, text) of ``files`` into ``directory``, creating it;
    a path that cannot be that directory is a usage error."""
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (Path(directory) / name).write_text(text)
    except OSError as exc:
        raise CliError(f"explore --out: {exc}") from exc


def _cmd_explore(args: argparse.Namespace) -> Report:
    _check_budget(args.n)
    target = _TARGETS[args.target]
    template_name = args.template or target.template
    if target.needs_k and args.k is None:
        raise CliError(f"explore {args.target} needs --k")
    if not target.needs_k and args.k is not None:
        raise CliError(f"explore {args.target} searches exact order 2 and takes no --k")
    if not target.needs_k and args.variant is not None:
        raise CliError(f"explore {args.target} searches the E0 variant and takes no --variant")
    variant = _VARIANTS[args.variant or "e0"]
    # the bound flags the user gave, over the target's calibration, over
    # GeneratorConfig's defaults
    flags = dict(numerator_bound=args.num_bound, denominator_bound=args.den_bound,
                 diagonal_numerator_bound=args.diag_bound)
    bounds = {**target.calibration, **{f: v for f, v in flags.items() if v is not None}}
    # The config and the searches check their arguments before sampling, so
    # a ValueError here is a usage error, not a finding.
    try:
        config = explore.GeneratorConfig(
            order=args.n,
            template=_TEMPLATES[template_name](args.n, variant),
            seed=args.seed,
            max_attempts=args.attempts,
            **bounds,
        )
        # the search's own checks before --out makes its directory, and the
        # directory before the search: a usage error leaves no directory
        # behind, and a bad path costs no search
        explore.check_search(target.search, args.n, args.k, args.hits)
        if args.out:
            _write_out(args.out, {})
        k_args = (args.k, variant) if target.needs_k else ()
        report = target.search(config, *k_args, args.hits)
    except ValueError as exc:
        raise CliError(f"explore {args.target}: {exc}") from exc

    results = _search_json(report)
    if args.out:
        files = {f"hit_{i:04d}.txt": format_matrix(hit) for i, hit in enumerate(report.hits, 1)}
        for i, ce in enumerate(report.counterexamples, start=1):
            files[f"counterexample_{i:04d}.txt"] = format_matrix(ce.matrix)
        files["report.json"] = json.dumps(results, indent=2, sort_keys=True) + "\n"
        _write_out(args.out, files)

    lines = [
        f"explore {args.target} (seed {args.seed}, template {template_name})",
        f"  attempts: {results['attempts']}",
        f"  hits: {results['hit_count']}",
        f"  counterexamples: {len(results['counterexamples'])}",
    ]
    lines += [f"  note: {note}" for note in results["notes"]]
    lines += [
        f"  COUNTEREXAMPLE: {c['failed']} ({c['evidence']})" for c in results["counterexamples"]
    ]

    config_text = json.dumps(
        {
            "order": config.order,
            "template": template_name,
            "seed": config.seed,
            "attempts": config.max_attempts,
            "num_bound": config.numerator_bound,
            "den_bound": config.denominator_bound,
            "diag_bound": config.diagonal_numerator_bound,
        },
        sort_keys=True,
    )
    return [config_text], results, lines, 1 if report.counterexamples else 0


def _cmd_lcp(args: argparse.Namespace) -> Report:
    q = _load(args.q, parse_vector_text)
    a = _load(args.matrix, parse_matrix_text)
    _check_budget(a.order)
    try:
        inst = lcp.LcpInstance(q, a)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    feas = lcp.lcp_feasible(inst)
    enum = lcp.lcp_solve_enum(inst)
    verified = all(sol.satisfies(inst) for sol in enum.solutions)
    results = {
        "feasible": feas.feasible,
        "feasible_witness": None if feas.certificate is None else _vec_json(feas.certificate),
        "solutions": [
            {
                "z": _vec_json(sol.z),
                "w": _vec_json(sol.w),
                "support": list(sol.support.members),
            }
            for sol in enum.solutions
        ],
        "substitution_verified": verified,
    }
    exit_code = 0 if verified else 1
    if args.q0_trials:
        try:
            q0 = lcp.q0_falsify(a, args.q0_trials, args.seed)
        except ValueError as exc:
            raise CliError(f"lcp --q0-trials: {exc}") from exc
        results["q0"] = {
            "trials": q0.trials,
            "feasible": q0.feasible_count,
            "solved": q0.solved_count,
            "violations": [_vec_json(v) for v in q0.violations],
            "note": q0.note,
        }
        if q0.violated:
            exit_code = 1

    lines = [
        f"LCP(q, A) with q from {args.q}, A from {args.matrix}",
        f"  feasible: {_mark(results['feasible'])}",
    ]
    if results["feasible_witness"] is not None:
        lines.append(f"  feasibility witness z = {_vec_text(results['feasible_witness'])}")
    lines.append(f"  enumeration solutions: {len(results['solutions'])}")
    lines += [
        f"    support {_support_text(s['support'])}: "
        f"z = {_vec_text(s['z'])}, w = {_vec_text(s['w'])}"
        for s in results["solutions"]
    ]
    lines.append(f"  substitution check: {'all solutions verified' if verified else 'FAILED'}")
    if "q0" in results:
        sampled = results["q0"]
        lines.append(
            f"  q0 sampling: {sampled['feasible']} feasible of {sampled['trials']} trials, "
            f"{sampled['solved']} solved, {len(sampled['violations'])} violations"
        )
        lines.append(f"  note: {sampled['note']}")
    return [format_vector(q), format_matrix(a)], results, lines, exit_code


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimono",
        description="Exact-arithmetic classification, audits, and conjecture search "
        "for semimonotone matrix classes of exact order k.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a matrix into every supported class")
    p_classify.add_argument("matrix", help="matrix file (n, then n rows of rationals)")
    p_classify.set_defaults(run=_cmd_classify)

    p_audit = sub.add_parser("audit", help="run one theorem audit against a matrix")
    p_audit.add_argument("matrix")
    p_audit.add_argument("--theorem", required=True, choices=list(verify.AUDIT_IDS))
    p_audit.add_argument("--matrix-b", help="second matrix (nonclosure audit)")
    p_audit.add_argument("--variant", choices=list(_VARIANTS), default="e0")
    p_audit.add_argument("--seed", type=int, default=0, help="seed (invariance audit)")
    p_audit.set_defaults(run=_cmd_audit)

    p_explore = sub.add_parser("explore", help="seeded randomized search")
    p_explore.add_argument("--target", required=True, choices=list(_TARGETS))
    p_explore.add_argument("--n", type=int, required=True, help="matrix order")
    p_explore.add_argument("--k", type=int, default=None,
                           help="exact order target (exact-order and neg-entries only)")
    p_explore.add_argument("--seed", type=int, required=True, help="generator seed (mandatory)")
    p_explore.add_argument("--attempts", type=int, default=10_000)
    p_explore.add_argument("--hits", type=int, default=None, help="stop after this many hits")
    p_explore.add_argument("--variant", choices=list(_VARIANTS), default=None,
                           help="e0 (the default) or e; exact-order and neg-entries only")
    p_explore.add_argument("--template", choices=list(_TEMPLATES), default=None)
    p_explore.add_argument("--num-bound", type=int, default=None)
    p_explore.add_argument("--den-bound", type=int, default=None,
                           help="denominator bound, at most 255")
    p_explore.add_argument("--diag-bound", type=int, default=None,
                           help="separate numerator bound for diagonal entries")
    p_explore.add_argument("--out", help="directory for hit/counterexample matrix files")
    p_explore.set_defaults(run=_cmd_explore)

    p_lcp = sub.add_parser("lcp", help="solve LCP(q, A) by support enumeration")
    p_lcp.add_argument("q", help="vector file")
    p_lcp.add_argument("matrix", help="matrix file")
    p_lcp.add_argument("--q0-trials", type=int, default=0, help="also run q0 sampling")
    p_lcp.add_argument("--seed", type=int, default=0, help="seed for q0 sampling")
    p_lcp.set_defaults(run=_cmd_lcp)

    # added after each verb's own flags, not through a parent parser, whose
    # flags argparse lists first in the usage line of every usage error
    for verb in sub.choices.values():
        verb.add_argument("--json", action="store_true", help="emit the JSON report")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        digest_texts, results, lines, exit_code = args.run(args)
        if args.json:
            digest = hashlib.sha256("".join(digest_texts).encode()).hexdigest()
            envelope = {
                "schema": SCHEMA,
                "command": argv,
                "input_digest": f"sha256:{digest}",
                "results": results,
                "timing_seconds": round(time.monotonic() - started, 6),
            }
            print(json.dumps(envelope, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (`semimono ... | head`).  Point
        # stdout at the null device so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process killed by it
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
