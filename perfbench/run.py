"""semimono benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a semimono checkout:

    python3 perfbench/run.py --workload conj2-free --seed 1 --seconds 25 --trace 0

One client, one process, one thread: each op starts when the previous one
has returned, and ops run until ``--seconds`` have passed (the op in flight
finishes) and the workload's fixed op list is done.  Inputs are a pure
function of ``--seed`` and the op index.
Op times are scaled to a reference speed by a calibration kernel timed
around each op, because the speed of a shared machine drifts (NOTES.md).
Outputs are checked after the timed region; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
runs the fixed op list untraced, then again with every public function of
every layer wrapped (see spans.py), reports the per-layer metrics and the
tracing overhead, and writes the spans to ``.bench_out/``.  A traced run
does the same work whatever ``--seconds`` and the speed of the host, so its
call counts depend on the seed and the program alone.  ``--smoke`` shrinks
every input so the harness can be tested in seconds.

The package is imported from ``src/`` of the current directory only; the
benchmark exits with status 2 when it is not there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import LAYERS, Tracer
from workloads import WORKLOADS, Outcome, calibration_kernel, sha256

SETUP_REPS = 15
CAL_REPS = 3
# Calibration kernel time that defines reference speed: about its median on
# the 2-core machine the bounds in BENCHMARK.json were set on.
CAL_REF_MS = 0.45
OUT_DIR = ".bench_out"


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def import_program(src: Path) -> SimpleNamespace:
    """Fresh import of every semimono module from ``src``."""
    for name in [m for m in sys.modules if m == "semimono" or m.startswith("semimono.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("semimono")
    if Path(pkg.__file__).resolve().parent != (src / "semimono").resolve():
        raise BenchError(f"semimono imported from {pkg.__file__}, not from {src}")
    mods = {layer: importlib.import_module(f"semimono.{layer}") for layer in LAYERS}
    return SimpleNamespace(**mods)


def calibration_ms() -> float:
    """Median time of the calibration kernel, in ms."""
    times = []
    for _ in range(CAL_REPS):
        t0 = perf_counter()
        calibration_kernel()
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def set_up(workload, src: Path, reps: int) -> tuple[SimpleNamespace, list[float]]:
    """Import the program and prepare the inputs ``reps`` times; the last
    import is the one the run uses.  Returns reference-speed times."""
    times = []
    cal = calibration_ms()
    for _ in range(reps):
        t0 = perf_counter()
        prog = import_program(src)
        workload.prepare()
        elapsed = perf_counter() - t0
        after = calibration_ms()
        times.append(elapsed * 2 * CAL_REF_MS / (cal + after))
        cal = after
    return prog, times


def closed_loop(workload, prog, seconds: float | None, n_ops: int) -> list:
    """Run ops 0, 1, ... back to back until ``n_ops`` ops are done and, if
    given, ``seconds`` have passed.  Returns (op, output, error, latency) per op,
    the latency in reference-speed seconds: the measured time scaled by
    CAL_REF_MS over the calibration kernel's mean time just before and
    just after the op."""
    records = []
    deadline = None if seconds is None else perf_counter() + seconds
    cal = calibration_ms()
    i = 0
    while True:
        op = workload.make_op(i)
        t0 = perf_counter()
        try:
            out, err = workload.run(prog, op), None
        except Exception:  # an op that raises is counted as failed
            out, err = None, traceback.format_exc()
        t1 = perf_counter()
        after = calibration_ms()
        records.append((op, out, err, (t1 - t0) * 2 * CAL_REF_MS / (cal + after)))
        cal = after
        i += 1
        if i >= n_ops and (deadline is None or t1 >= deadline):
            break
    return records


def check_all(workload, prog, records) -> list[Outcome]:
    outcomes = []
    for op, out, err, _ in records:
        if err is not None:
            outcomes.append(Outcome(False, "", 0, note=err.strip().splitlines()[-1]))
            continue
        try:
            outcomes.append(workload.check(prog, op, out))
        except Exception:  # a malformed output fails its op
            outcomes.append(Outcome(False, "", 0, note=traceback.format_exc().strip().splitlines()[-1]))
    return outcomes


def run_digest(outcomes: list[Outcome]) -> str:
    """sha256 over the op digests of the fixed op list."""
    return f"sha256:{sha256(chr(10).join(o.digest for o in outcomes))} ({len(outcomes)} ops)"


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(records, outcomes, setup_times, n_fixed: int) -> dict[str, tuple[float, str]]:
    lat_ms = [r[3] * 1e3 for r in records]
    busy = sum(r[3] for r in records)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(r[3] for r in records[:n_fixed]), "s"),
        "ops_per_s": (len(records) / busy, "1/s"),
        "attempts_per_s": (sum(o.attempts for o in outcomes) / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (quantile(lat_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "semimono" / "__init__.py").is_file():
        raise BenchError(f"no semimono package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    out_dir = root / OUT_DIR
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](args.seed, out_dir / f"inputs-{tag}", args.smoke)

    prog, setup_times = set_up(workload, src, 2 if args.smoke else SETUP_REPS)
    lines = [f"semimono benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}"]
    n_fixed = workload.fixed_ops
    if args.trace == 0:
        records = closed_loop(workload, prog, args.seconds, n_fixed)
        outcomes = check_all(workload, prog, records)
        metrics = end_to_end(records, outcomes, setup_times, n_fixed)
    else:
        records = closed_loop(workload, prog, None, n_fixed)
        cache = prog.classify.exact_order
        cache.cache_clear()
        tracer = Tracer()
        tracer.install({layer: getattr(prog, layer) for layer in LAYERS})
        try:
            traced = closed_loop(workload, prog, None, n_fixed)
        finally:
            tracer.uninstall()
        info = cache.cache_info()
        untraced_outcomes = check_all(workload, prog, records)
        outcomes = check_all(workload, prog, traced)
        for o, u in zip(outcomes, untraced_outcomes):
            if not u.ok:
                o.ok, o.note = False, f"untraced: {u.note}"
            elif o.digest != u.digest:
                o.ok, o.note = False, "traced output differs from the untraced one"
        metrics = tracer.layer_metrics(info.hits, info.misses)
        metrics["trace_overhead_ratio"] = (
            sum(r[3] for r in traced) / sum(r[3] for r in records), "ratio")
        span_path = out_dir / f"spans-{tag}.tsv.gz"
        tracer.write(span_path)
        lines.append(f"  spans: {len(tracer.parent)} written to {span_path.relative_to(root)}")
        records = traced

    failed = sum(not o.ok for o in outcomes)
    hits = sum(o.hits for o in outcomes)
    lines.append(f"  ops {len(records)} (fixed list {n_fixed}), failed {failed}, "
                 f"failed_ratio {failed / len(records):.4f}, "
                 f"attempts {sum(o.attempts for o in outcomes)}, hits {hits}")
    for o in outcomes:
        if not o.ok:
            lines.append(f"  FAILED op: {o.note}")
            break
    digest = run_digest(outcomes[:n_fixed])
    lines.append(f"  behaviour digest {digest}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:45s} {value:14.4f} {unit}")

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "seeds": {"workload_seed": args.seed, "op_inputs": workload.input_rule(),
                  "ops": len(records), "fixed_ops": n_fixed},
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "setup_times_s": setup_times,
        "failed": failed,
        "digest": digest,
        "op_digests": [o.digest for o in outcomes],
        "op_latencies_ms": [r[3] * 1e3 for r in records],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_path = out_dir / f"record-{tag}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    lines.append(f"  run record {record_path.relative_to(root)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
