"""Tracing from outside the program: wrap the public functions of each
semimono layer, record one span per call, and turn the spans into per-layer
metrics.

Modules bind each other's functions with ``from .x import y``, so a wrapper
is installed in every semimono namespace that holds the original function
object, not only in the defining module.  Wrappers return the wrapped
call's value and let its exception propagate untouched.  Spans live in
flat in-memory arrays (name id, parent span id, start, end) and are written
out once the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("explore", "classify", "feasibility", "ratcore", "poly", "lcp", "verify", "cli")

# Per-entry coercions run millions of times inside RatMatrix construction;
# constructions are counted instead of spanned.
_UNTRACED = {("ratcore", "rat"), ("ratcore", "ratvec")}

_ORDER_BUCKETED = {
    ("ratcore", "det"): "ratcore.det",
    ("feasibility", "feasible_strict"): "feasibility.oracle",
    ("feasibility", "feasible_semistrict"): "feasibility.oracle",
}
MAX_BUCKET = 9

VERDICTS = (
    "is_semimonotone",
    "is_strictly_semimonotone",
    "is_almost_semimonotone",
    "is_P0",
    "is_P",
    "is_copositive",
    "is_strictly_copositive",
    "is_inverse_Z",
)


def public_functions(module):
    """Public functions defined in ``module`` (lru-cached ones included),
    minus generator functions, whose call does no work until iterated."""
    found = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if hasattr(value, "cache_info"):  # functools.lru_cache wrapper
            found.append((attr, value))
        elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
            found.append((attr, value))
    return found


class Tracer:
    """Span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> tuple[int, int]:
        sid = len(self.parent)
        parent = self.current
        self.name_of.append(nid)
        self.parent.append(parent)
        self.start.append(0.0)
        self.end.append(0.0)
        self.current = sid
        return sid, parent

    def _close(self, sid: int, parent: int, t0: float, t1: float) -> None:
        self.current = parent
        self.start[sid] = t0
        self.end[sid] = t1

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, bucket: str | None, on_result):
        tr = self
        plain = self._id(name)
        bucket_ids = {}

        def traced(*args, **kwargs):
            if bucket is None:
                nid = plain
            else:
                order = args[0].rows
                nid = bucket_ids.get(order)
                if nid is None:
                    nid = bucket_ids[order] = tr._id(f"{bucket}.o{order}")
            sid, parent = tr._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(sid, parent, t0, perf_counter())
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _wrap_generate(self, fn):
        """Span each ``next()`` on the candidate stream, not the call that
        creates the generator."""
        tr = self
        nid = self._id("explore.generate")

        def generate(*args, **kwargs):
            stream = fn(*args, **kwargs)

            def timed():
                while True:
                    sid, parent = tr._open(nid)
                    t0 = perf_counter()
                    try:
                        item = next(stream)
                    except StopIteration:
                        tr._close(sid, parent, t0, perf_counter())
                        return
                    except BaseException:
                        tr._close(sid, parent, t0, perf_counter())
                        raise
                    tr._close(sid, parent, t0, perf_counter())
                    yield item

            return timed()

        generate.__wrapped__ = fn
        return generate

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "semimono" or mod_name.startswith("semimono.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _on_result_hooks(self):
        counts = self.counts

        def search(report, args):
            counts["explore.hits"] += report.hit_count
            counts["explore.attempts"] += report.attempts

        def oracle(outcome, args):
            counts["feasibility.oracle.feasible"] += bool(outcome.feasible)

        def enum(result, args):
            counts["lcp.singular"] += len(result.singular_supports)
            counts["lcp.supports"] += 2 ** args[0].order - 1

        return {
            ("explore", "search_conjecture_1"): search,
            ("explore", "search_conjecture_2"): search,
            ("feasibility", "feasible_strict"): oracle,
            ("feasibility", "feasible_semistrict"): oracle,
            ("lcp", "lcp_solve_enum"): enum,
        }

    def install(self, modules: dict) -> None:
        """Wrap every public function of every layer; count RatMatrix
        constructions.  ``modules`` maps layer name to the live module."""
        hooks = self._on_result_hooks()
        for layer in LAYERS:
            module = modules[layer]
            for attr, fn in public_functions(module):
                if (layer, attr) in _UNTRACED:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(
                    name, fn, _ORDER_BUCKETED.get((layer, attr)), hooks.get((layer, attr))
                )
                self._patch_everywhere(fn, wrapped)
        explore = modules["explore"]
        self._patch_everywhere(explore.generate, self._wrap_generate(explore.generate))

        rat_matrix = modules["ratcore"].RatMatrix
        original_init = rat_matrix.__init__
        counts = self.counts

        def counting_init(matrix, *args, **kwargs):
            counts["ratcore.RatMatrix.constructions"] += 1
            original_init(matrix, *args, **kwargs)

        self._patches.append((rat_matrix, "__init__", original_init))
        rat_matrix.__init__ = counting_init

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: id, parent id, name, start and duration in
        microseconds relative to the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tdur_us\n")
            names = self.names
            for sid in range(len(self.parent)):
                t0 = self.start[sid]
                out.write(
                    f"{sid}\t{self.parent[sid]}\t{names[self.name_of[sid]]}\t"
                    f"{(t0 - origin) * 1e6:.1f}\t{(self.end[sid] - t0) * 1e6:.1f}\n"
                )

    def layer_metrics(self, cache_hits: int, cache_misses: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        names = self.names
        nspans = len(self.parent)
        name_of, parent = self.name_of, self.parent
        dur = [self.end[i] - self.start[i] for i in range(nspans)]
        child = [0.0] * nspans
        for sid in range(nspans):
            p = parent[sid]
            if p >= 0:
                child[p] += dur[sid]

        calls: Counter = Counter()
        total: Counter = Counter()
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        for sid in range(nspans):
            name = names[name_of[sid]]
            calls[name] += 1
            total[name] += dur[sid]
            self_by_layer[name.split(".", 1)[0]] += dur[sid] - child[sid]

        def group(members: set[str]) -> tuple[int, float]:
            """Calls of every member; time of the outermost member spans."""
            ids = {self._ids[m] for m in members if m in self._ids}
            n, t = 0, 0.0
            for sid in range(nspans):
                if name_of[sid] in ids:
                    n += 1
                    p = parent[sid]
                    if p < 0 or name_of[p] not in ids:
                        t += dur[sid]
            return n, t

        out: dict[str, tuple[float, str]] = {}

        def calls_ms(metric: str, n: int, seconds: float) -> None:
            out[f"{metric}.calls"] = (n, "count")
            out[f"{metric}.ms"] = (seconds * 1e3, "ms")

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        for name in ("explore.generate", "explore.conjecture_1_violations",
                     "explore.conjecture_2_violations", "classify.has_exact_order",
                     "classify.exact_order"):
            calls_ms(name, calls[name], total[name])
        out["explore.hit_ratio"] = (
            ratio(self.counts["explore.hits"], self.counts["explore.attempts"]), "ratio")
        out["classify.exact_order.cache_hit_ratio"] = (
            ratio(cache_hits, cache_hits + cache_misses), "ratio")
        calls_ms("classify.verdicts", *group({f"classify.{v}" for v in VERDICTS}))

        oracle_calls = oracle_big = 0
        oracle_ids = set()
        for k in range(1, MAX_BUCKET + 1):
            name = f"feasibility.oracle.o{k}"
            calls_ms(name, calls[name], total[name])
            oracle_calls += calls[name]
            if k >= 3:
                oracle_big += calls[name]
            if name in self._ids:
                oracle_ids.add(self._ids[name])
        out["feasibility.oracle.feasible_ratio"] = (
            ratio(self.counts["feasibility.oracle.feasible"], oracle_calls), "ratio")
        calls_ms("feasibility.phase1", calls["feasibility.phase1_feasible"],
                 total["feasibility.phase1_feasible"])
        phase1_id = self._ids.get("feasibility.phase1_feasible")
        simplex = sum(
            1 for sid in range(nspans)
            if name_of[sid] == phase1_id and parent[sid] >= 0 and name_of[parent[sid]] in oracle_ids
        )
        out["feasibility.simplex_share"] = (ratio(simplex, oracle_big), "ratio")
        out["feasibility.fm_feasible.calls"] = (calls["feasibility.fm_feasible"], "count")

        for k in range(1, MAX_BUCKET + 1):
            name = f"ratcore.det.o{k}"
            calls_ms(name, calls[name], total[name])
        for fn in ("inverse", "count_negative_eigenvalues", "principal_submatrix",
                   "block_inverse_principal"):
            calls_ms(f"ratcore.{fn}", calls[f"ratcore.{fn}"], total[f"ratcore.{fn}"])
        out["ratcore.RatMatrix.constructions"] = (
            self.counts["ratcore.RatMatrix.constructions"], "count")
        out["ratcore.adjugate.calls"] = (calls["ratcore.adjugate"], "count")
        calls_ms("poly.real_root_sign_counts", calls["poly.real_root_sign_counts"],
                 total["poly.real_root_sign_counts"])
        for fn in ("lcp_feasible", "lcp_solve_enum", "q0_falsify"):
            calls_ms(f"lcp.{fn}", calls[f"lcp.{fn}"], total[f"lcp.{fn}"])
        out["lcp.singular_skip_ratio"] = (
            ratio(self.counts["lcp.singular"], self.counts["lcp.supports"]), "ratio")
        calls_ms("verify.audits", *group({n for n in self._ids if n.startswith("verify.audit_")}))
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self_by_layer[layer] * 1e3, "ms")
        return out
