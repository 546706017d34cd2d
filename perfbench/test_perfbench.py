"""Tests of the benchmark harness on tiny inputs (``--smoke``).

They sit outside the package's test path, so the package's own suite does
not run them.  From the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from spans import LAYERS, Tracer  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def digest_line(done: subprocess.CompletedProcess) -> str:
    assert done.returncode == 0, done.stderr
    return [ln for ln in done.stdout.splitlines() if "behaviour digest" in ln][0]


def test_same_seed_same_behaviour_digest():
    digests = [
        digest_line(bench("--workload", "conj2-free", "--seed", "5", "--seconds", "0.3", "--smoke"))
        for _ in range(2)
    ]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", ["classify-cli", "lcp-q0"])
def test_cli_digest_ignores_working_directory_and_tracing(workload, tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    args = ("--workload", workload, "--seed", "4", "--seconds", "0.3", "--smoke")
    here = digest_line(bench(*args, "--trace", "0"))
    assert digest_line(bench(*args, "--trace", "0", cwd=tmp_path)) == here
    assert digest_line(bench(*args, "--trace", "1")) == here


def test_traced_counts_do_not_depend_on_seconds():
    counts = []
    for seconds in ("0.1", "2"):
        done = bench("--workload", "lcp-q0", "--seed", "6", "--seconds", seconds,
                     "--trace", "1", "--smoke")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")
                       and k != "trace_overhead_ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["lcp.q0_falsify.calls"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "conj1-z", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tracer_keeps_results_and_exceptions_and_restores_names():
    import importlib

    mods = {layer: importlib.import_module(f"semimono.{layer}") for layer in LAYERS}
    ratcore, classify = mods["ratcore"], mods["classify"]
    original_det = ratcore.det
    singular = ratcore.RatMatrix([[1, 2], [2, 4]])
    a = ratcore.RatMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    expected = (ratcore.det(a), classify.exact_order.__wrapped__(a, classify.Variant.E0))

    tracer = Tracer()
    tracer.install(mods)
    try:
        assert classify.det is not original_det  # caller namespaces are patched too
        assert (ratcore.det(a), classify.exact_order(a, classify.Variant.E0)) == expected
        with pytest.raises(ratcore.SingularMatrixError):
            ratcore.inverse(singular)
    finally:
        tracer.uninstall()
    assert ratcore.det is original_det and classify.det is original_det
    metrics = tracer.layer_metrics(0, 0)
    assert metrics["ratcore.det.o3.calls"][0] >= 1
    assert metrics["ratcore.inverse.calls"][0] == 1
    assert metrics["ratcore.RatMatrix.constructions"][0] >= 1
    assert ratcore.det(a) == Fraction(4)
