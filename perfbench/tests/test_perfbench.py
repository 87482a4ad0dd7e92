"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest perfbench/tests -q

They run every workload at a tiny size, check that a wrong reference status
is counted as a failure, that the deterministic counters repeat, that the
stored reference passes the independent theory checks, and that run.py
refuses to run without the package source.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from kduncd import dft_matrix, enumerate_diagram  # noqa: E402

TINY = {
    "diagram-numeric": bench.DiagramWorkload("diagram-numeric", dims=(5, 6), engine="numeric"),
    "diagram-exact": bench.DiagramWorkload("diagram-exact", dims=(4, 5), engine="exact"),
    "queries": bench.QueryWorkload("queries", witness_dims=(4, 5), verify_dims=(4, 5), states_per_kind=2),
}


def _run(workload, trace=False, reference=None):
    return bench.run(
        workload, seed=7, seconds=0.3, trace=trace, root=ROOT,
        reference=reference or checks.load_reference(),
    )


def test_full_workloads_match_their_tiny_variants():
    assert set(TINY) == set(bench.WORKLOADS)
    for name, w in bench.WORKLOADS.items():
        assert type(w) is type(TINY[name])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean(name, trace):
    out = _run(TINY[name], trace=trace)
    assert out["failed"] == 0, out["notes"]
    assert out["attempted"] >= 1
    assert list(out["metrics"]) == list(bench.metric_units(trace))
    assert all(math.isfinite(v) for v in out["metrics"].values())
    if trace:
        assert out["traced"] and out["metrics"]["diagram.self_s"] > 0
    else:
        assert all(v > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name,d,point", [
    ("diagram-numeric", 5, (1, 1)),
    ("diagram-exact", 4, (2, 2)),
    ("queries", 4, (1, 1)),
])
def test_corrupted_reference_counts_failures(name, d, point):
    reference = checks.load_reference()
    flipped = {"present": "hole", "hole": "present"}[reference[d][point]]
    reference[d] = {**reference[d], point: flipped}
    out = _run(TINY[name], reference=reference)
    assert out["failed"] > 0 and out["failed"] / out["attempted"] > 0
    assert list(out["metrics"]) == list(bench.metric_units(False))


def test_counters_repeat_across_runs():
    first = _run(TINY["diagram-exact"])["counters"]
    second = _run(TINY["diagram-exact"])["counters"]
    assert first == second
    assert all(requests > computed > 0 for requests, computed, _ in first.values())


def test_reference_passes_theory_checks():
    for d, statuses in checks.load_reference().items():
        assert checks.cross_check(d, statuses) == []
    assert checks.cross_check(5, {**checks.load_reference()[5], (2, 2): "present"})


@pytest.mark.parametrize("d", range(2, 7))
def test_reference_matches_both_engines(d):
    for engine in ("exact", "numeric"):
        diag = enumerate_diagram(dft_matrix(d), engine=engine)
        assert {k: p.status.value for k, p in diag.points.items()} == checks.load_reference()[d]


def test_independent_audit_rejects_a_non_certificate():
    f = checks.dft(6)
    diag = enumerate_diagram(dft_matrix(6), engine="numeric")
    cert = diag.points[(3, 2)].certificate
    assert checks.certificate_holds(f, 3, 2, cert.rows, cert.cols)
    assert not checks.certificate_holds(f, 3, 2, cert.rows, cert.cols[:1])
    assert not checks.certificate_holds(f, 1, 1, range(5), [0])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [*cmd, "--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_instrument_wraps_private_functions_and_methods_then_restores():
    from kduncd import cyclotomic, diagram

    before = (diagram._exact_rank_int, diagram.rank, cyclotomic.IntPoly.__divmod__)
    tracer = tracing.Tracer()
    tracer.instrument(annotate={})
    try:
        assert diagram._exact_rank_int is not before[0]
        enumerate_diagram(dft_matrix(5), engine="exact", sym_reduce=False)
    finally:
        tracer.restore()
    assert (diagram._exact_rank_int, diagram.rank, cyclotomic.IntPoly.__divmod__) == before
    assert {"linalg._exact_rank_int", "linalg.rank"} <= set(tracer.names)
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    selfs = tracer.self_times(durations)
    assert selfs["cyclotomic"] > 0 and selfs["linalg"] > 0
    assert math.isclose(sum(selfs.values()), sum(
        d for d, p in zip(durations, tracer.parent) if p < 0
    ))
