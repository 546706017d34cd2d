"""The four benchmark workloads: seeded inputs, one op, and the output check.

Every op is built from (workload seed, op index) alone, so the same seed
replays the same inputs.  Checks run after the timed region and never go
through the code path that produced the output: search hits are
re-classified with the uncached full ``exact_order``, and CLI outputs are
re-checked by substitution with the plain ``Fraction`` arithmetic below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What a check concludes about one op."""

    ok: bool
    digest: str
    attempts: int
    hits: int = 0
    note: str = ""


# ---------------------------------------------------------------------------
# independent exact arithmetic for substitution checks


def _matvec(a: list[list[Fraction]], x: list[Fraction]) -> list[Fraction]:
    return [sum((aij * xj for aij, xj in zip(row, x)), Fraction(0)) for row in a]


def _block(a: list[list[Fraction]], support: list[int]) -> list[list[Fraction]]:
    idx = [i - 1 for i in support]
    return [[a[i][j] for j in idx] for i in idx]


def _det(a: list[list[Fraction]]) -> Fraction:
    """Gaussian elimination with row swaps (Bareiss is what the program uses)."""
    m = [row[:] for row in a]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            result = -result
        result *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return result


def _inverse(a: list[list[Fraction]]) -> Optional[list[list[Fraction]]]:
    n = len(a)
    w = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next((r for r in range(c, n) if w[r][c] != 0), None)
        if p is None:
            return None
        w[c], w[p] = w[p], w[c]
        w[c] = [x / w[c][c] for x in w[c]]
        for r in range(n):
            if r != c and w[r][c]:
                f = w[r][c]
                w[r] = [x - f * y for x, y in zip(w[r], w[c])]
    return [row[n:] for row in w]


_CAL_MATRIX = [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i * j) % 5) for j in range(7)] for i in range(7)]


def calibration_kernel() -> Fraction:
    """Fixed Fraction elimination, the same kind of work as the program's
    own.  Its time tracks how fast the host runs such code at the moment;
    it shares no code with semimono, so a program change cannot move it."""
    return _det(_CAL_MATRIX)


def _lcp_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Entries p/r with p uniform in [-4, 4] and r in [1, 2], except that
    column 1 is positive (p in [1, 4]).  Then z = t e_1 is feasible for
    large t, so every sampled q is feasible and every trial enumerates all
    2^n supports: the cost of an op depends on its order, hardly on A."""
    return [
        [Fraction(rng.randint(1, 4) if j == 0 else rng.randint(-4, 4), rng.randint(1, 2))
         for j in range(n)]
        for _ in range(n)
    ]


def _exact_order_shaped_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Integer entries: diagonal in [1, 8]; off the diagonal negative seven
    times in nine (in [-4, -1]), else in [1, 2].  This is the sign shape
    exact-order matrices are pushed into, so sweeps reach large supports
    and few verdicts exit early."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                p = rng.randint(1, 8)
            elif rng.randrange(9) < 7:
                p = -rng.randint(1, 4)
            else:
                p = rng.randint(1, 2)
            row.append(Fraction(p))
        rows.append(row)
    return rows


def _matrix_text(a: list[list[Fraction]]) -> str:
    return f"{len(a)}\n" + "\n".join(" ".join(str(v) for v in row) for row in a) + "\n"


def _vector_text(v: list[Fraction]) -> str:
    return f"{len(v)}\n" + " ".join(str(x) for x in v) + "\n"


def _run_cli(prog, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = prog.cli.main(argv)
    return rc, buf.getvalue()


def _results_digest(text: str) -> tuple[dict, str]:
    """Parsed report and the sha256 of its ``results`` object.  The rest of
    the envelope holds the timing and the input paths, which differ between
    runs and checkouts when the behaviour does not."""
    report = json.loads(text)
    return report, sha256(json.dumps(report["results"], sort_keys=True))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    # Ops 0 .. FIXED_OPS - 1 are the fixed op list: the work wall_s times,
    # the behaviour digest covers and a traced run replays.
    FIXED_OPS = 0
    SMOKE_FIXED_OPS = 2

    def __init__(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    @property
    def fixed_ops(self) -> int:
        return self.SMOKE_FIXED_OPS if self.smoke else self.FIXED_OPS

    def prepare(self) -> None:
        """Per-run set-up that is not the program's own: the input directory."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def input_rule(self) -> str:
        """How op i's inputs derive from the seed, for the run record."""
        return f"op i draws from random.Random('{self.name}:{self.seed}:<i>')"

    def make_op(self, i: int) -> Any:
        raise NotImplementedError

    def run(self, prog, op: Any) -> Any:
        raise NotImplementedError

    def check(self, prog, op: Any, out: Any) -> Outcome:
        raise NotImplementedError


class ConjectureSearch(Workload):
    """One op is one seeded, candidate-bounded search over 4x4 matrices,
    the library form of ``semimono explore --attempts A`` with the
    criterion-10 generator bounds.  Op i uses generator seed
    base + 100000 * seed + i, so seed 0, op 0 is criterion 10's own seed.

    Candidate budgets cycle through CANDIDATES: one op in four searches
    twice as far.  The 90th percentile then falls inside the long ops and
    measures their cost; with equal ops it would sit in the tail that the
    host's speed changes make, and spread several times as much (NOTES.md).
    """

    base_seed = 0
    CANDIDATES = (500, 500, 500, 1000)
    SMOKE_CANDIDATES = (60, 60, 60, 120)
    FIXED_OPS = 20 * len(CANDIDATES)

    def input_rule(self) -> str:
        return (f"op i runs the generator with seed {self.base_seed} + 100000 * {self.seed} + i "
                f"over {self.CANDIDATES}[i % {len(self.CANDIDATES)}] candidates")

    def make_op(self, i: int) -> tuple[int, int]:
        budgets = self.SMOKE_CANDIDATES if self.smoke else self.CANDIDATES
        return self.base_seed + 100_000 * self.seed + i, budgets[i % len(budgets)]

    def check(self, prog, op, out) -> Outcome:
        report, audits = out
        exact_order = prog.classify.exact_order.__wrapped__  # bypass the LRU cache
        ok = all(exact_order(m, prog.classify.Variant.E0).k == 2 for m in report.hits)
        ok = ok and all(
            a.hypotheses_met and a.ok and len(a.conclusions) == 5 for a in audits
        )
        ok = ok and all(ce.matrix in report.hits for ce in report.counterexamples)
        text = json.dumps(prog.cli._search_json(report), indent=2, sort_keys=True) + "\n"
        return Outcome(ok, sha256(text), report.attempts, report.hit_count,
                       f"{len(report.counterexamples)} counterexamples")


class Conj1Z(ConjectureSearch):
    """search_conjecture_1 on the Z template, then audit_thm_4_11 on every
    hit as acceptance criterion 4 does."""

    name = "conj1-z"
    base_seed = 1001

    def run(self, prog, op):
        gen_seed, candidates = op
        ex = prog.explore
        cfg = ex.GeneratorConfig(
            order=4, template=ex.template_z(4), numerator_bound=4, denominator_bound=2,
            diagonal_numerator_bound=8, seed=gen_seed, max_attempts=candidates,
        )
        report = ex.search_conjecture_1(cfg)
        return report, [prog.verify.audit_thm_4_11(m) for m in report.hits]


class Conj2Free(ConjectureSearch):
    """search_conjecture_2 on the diag-nonneg / off-diagonal-free template
    with free-sign weights 12:1:2."""

    name = "conj2-free"
    base_seed = 1002

    def run(self, prog, op):
        gen_seed, candidates = op
        ex = prog.explore
        cfg = ex.GeneratorConfig(
            order=4, template=ex.template_diag_nonneg_off_free(4), numerator_bound=4,
            denominator_bound=2, diagonal_numerator_bound=8, free_weights=(12, 1, 2),
            seed=gen_seed, max_attempts=candidates,
        )
        return ex.search_conjecture_2(cfg), []


class ClassifyCli(Workload):
    """One op is one in-process ``semimono classify FILE --json`` on a fresh
    seeded matrix.  Orders cycle through ORDERS, so every run has the same
    mix; no matrix repeats, so the exact_order cache never serves one.

    The mix puts the median inside the order-6 ops and the 90th percentile
    inside the order-7 ops, away from the jumps between orders, with as
    many order-7 ops as that allows; op i takes slot 7i mod 40, so any 40
    consecutive ops hold the whole mix.  Blocks of every order up to 8 are
    swept.  Order 9 (about 2 s a matrix) is left out: ten samples of it
    would fill the run.
    """

    name = "classify-cli"
    ORDERS = (6,) * 26 + (7,) * 13 + (8,)
    FIXED_OPS = 3 * len(ORDERS)
    SMOKE_ORDERS = (3, 4)

    def make_op(self, i: int):
        orders = self.SMOKE_ORDERS if self.smoke else self.ORDERS
        n = orders[(i * 7) % len(orders)]
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        a = _exact_order_shaped_matrix(rng, n)
        path = self.workdir / f"m{i:06d}.txt"
        path.write_text(_matrix_text(a))
        return path, a

    def run(self, prog, op):
        path, _ = op
        return _run_cli(prog, ["classify", str(path), "--json"])

    def check(self, prog, op, out) -> Outcome:
        _, a = op
        rc, text = out
        n = len(a)
        attempts = 2 ** n - 1
        if rc != 0:
            return Outcome(False, "", attempts, note=f"exit {rc}")
        report, digest = _results_digest(text)
        return Outcome(_classify_ok(a, report["results"]), digest, attempts)


def _support_vector_ok(a, w, strict: bool, quadratic: bool = False) -> bool:
    """Witness (support, y): y > 0 and A_aa y < 0 (<= 0 unless strict); with
    ``quadratic`` the claim is y^T A_aa y < 0 (<= 0), i.e. x^T A x for x = y
    padded with zeros, which is what a copositivity witness certifies."""
    y = [Fraction(v) for v in w["vector"]]
    block = _block(a, w["support"])
    if len(y) != len(block) or any(v <= 0 for v in y):
        return False
    image = _matvec(block, y)
    if quadratic:
        q = sum((yi * v for yi, v in zip(y, image)), Fraction(0))
        return q < 0 if strict else q <= 0
    return all((v < 0) if strict else (v <= 0) for v in image)


def _classify_ok(a: list[list[Fraction]], res: dict) -> bool:
    n = len(a)
    v = res["verdicts"]
    orders = res["exact_order"]
    checks = [res["order"] == n]
    # non-members carry a witness that must hold by substitution
    for key, strict, quad in (("semimonotone", True, False),
                              ("strictly_semimonotone", False, False),
                              ("copositive", True, True),
                              ("strictly_copositive", False, True)):
        verdict = v[key]
        checks.append(verdict["member"] or _support_vector_ok(a, verdict["witness"], strict, quad))
    # membership agrees with the exact-order profile of the same variant
    checks.append(v["semimonotone"]["member"] == (orders["E0"]["k"] == 0))
    checks.append(v["strictly_semimonotone"]["member"] == (orders["E"]["k"] == 0))
    checks.append(v["copositive"]["member"] == (orders["copositive_E0"]["k"] == 0))
    checks.append(v["strictly_copositive"]["member"] == (orders["copositive_E"]["k"] == 0))
    for key, strict in (("P0", False), ("P", True)):
        verdict = v[key]
        if not verdict["member"]:
            w = verdict["witness"]
            minor = Fraction(w["minor"])
            checks.append(_det(_block(a, w["support"])) == minor
                          and (minor <= 0 if strict else minor < 0))
    inv = _inverse(a)
    inv_z = inv is not None and all(inv[i][j] <= 0 for i in range(n) for j in range(n) if i != j)
    checks.append(v["inverse_Z"]["member"] == inv_z)
    for key, member_strict, witness_strict in (("almost_semimonotone", False, True),
                                               ("almost_strictly_semimonotone", True, False)):
        verdict = v[key]
        w = verdict["witness"]
        if verdict["member"]:
            checks.append(len(w["support"]) == n and _support_vector_ok(a, w, member_strict))
        elif w is not None:
            checks.append(len(w["support"]) < n and _support_vector_ok(a, w, witness_strict))
    checks.append(res["Z"] == all(a[i][j] <= 0 for i in range(n) for j in range(n) if i != j))
    checks.append(res["nonnegative"] == all(x >= 0 for row in a for x in row))
    checks.append(res["negative_entries"]["rows"] == [sum(x < 0 for x in row) for row in a])
    return all(checks)


class LcpQ0Cli(Workload):
    """One op is one in-process ``semimono lcp Q A --q0-trials T --seed S
    --json`` on a fresh seeded (q, A) pair; orders cycle through ORDERS."""

    name = "lcp-q0"
    ORDERS = (3, 4, 5)
    SMOKE_ORDERS = (2, 3)
    FIXED_OPS = 24 * len(ORDERS)
    TRIALS = 30
    SMOKE_TRIALS = 4

    def make_op(self, i: int):
        orders = self.SMOKE_ORDERS if self.smoke else self.ORDERS
        n = orders[i % len(orders)]
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        a = _lcp_matrix(rng, n)
        q = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n)]
        a_path = self.workdir / f"a{i:06d}.txt"
        q_path = self.workdir / f"q{i:06d}.txt"
        a_path.write_text(_matrix_text(a))
        q_path.write_text(_vector_text(q))
        trials = self.SMOKE_TRIALS if self.smoke else self.TRIALS
        return q_path, a_path, q, a, trials, rng.randrange(2 ** 31)

    def run(self, prog, op):
        q_path, a_path, _, _, trials, q0_seed = op
        return _run_cli(prog, ["lcp", str(q_path), str(a_path), "--q0-trials", str(trials),
                               "--seed", str(q0_seed), "--json"])

    def check(self, prog, op, out) -> Outcome:
        _, _, q, a, trials, _ = op
        rc, text = out
        if rc not in (0, 1):
            return Outcome(False, "", trials, note=f"exit {rc}")
        report, digest = _results_digest(text)
        res = report["results"]
        n = len(a)
        checks = [res["substitution_verified"] is True]
        for sol in res["solutions"]:
            z = [Fraction(x) for x in sol["z"]]
            w = [qi + v for qi, v in zip(q, _matvec(a, z))]
            checks.append(
                len(z) == n
                and [Fraction(x) for x in sol["w"]] == w
                and all(x >= 0 for x in z) and all(x >= 0 for x in w)
                and sum((zi * wi for zi, wi in zip(z, w)), Fraction(0)) == 0
                and all(z[i] == 0 for i in range(n) if i + 1 not in sol["support"])
            )
        if res["feasible_witness"] is not None:
            z = [Fraction(x) for x in res["feasible_witness"]]
            checks.append(all(x >= 0 for x in z)
                          and all(qi + v >= 0 for qi, v in zip(q, _matvec(a, z))))
        checks.append(res["feasible"] or not res["solutions"])
        q0 = res["q0"]
        checks.append(q0["trials"] == trials)
        # exit 1 with verified solutions is a reported Q0 violation: a result
        checks.append((rc == 1) == bool(q0["violations"]))
        return Outcome(all(checks), digest, trials,
                       note=f"{len(q0['violations'])} q0 violations")


WORKLOADS = {w.name: w for w in (Conj1Z, Conj2Free, ClassifyCli, LcpQ0Cli)}
