"""Benchmark entry point.  From the root of a checkout:

    python3 perfbench/run.py --workload queries --seed 1 --seconds 30 --trace 0

Prints machine notes, counters and every metric by name and unit, then, as
the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (from a traced run) and writes the spans to
``.perfbench/trace-<workload>.csv``.  Exits non-zero without a result when
the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Single-threaded BLAS: the matrices are at most 12 x 12, and on a small
# shared machine extra BLAS threads only add noise.  Must precede numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent


def _import_package() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kduncd
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import kduncd from {src}: {exc}") from exc
    if Path(kduncd.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: kduncd resolved to {kduncd.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    import bench
    import checks

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    print(f"# perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {bench.machine_notes()}", flush=True)

    out = bench.run(
        workload, args.seed, args.seconds, bool(args.trace), ROOT, checks.load_reference()
    )

    print("# setup reps (nominal s): " + " ".join(f"{x:.4f}" for x in out["setup_reps"]))
    print("# untraced passes (wall s): " + " ".join(f"{x:.4f}" for x in out["untraced"]))
    if out["traced"]:
        print("# traced passes (wall s): " + " ".join(f"{x:.4f}" for x in out["traced"]))
    n, low, mid, high = out["speed"]
    print(f"# speed factor (1 = nominal): {n} samples, min {low:.2f} median {mid:.2f} max {high:.2f}")
    for key, (requests, computed, holes) in out["counters"].items():
        print(f"# counters {key}: rank_requests={requests} rank_computed={computed} "
              f"hole_candidates={holes}")
    ratio = out["failed"] / out["attempted"] if out["attempted"] else 0.0
    print(f"# fail_ratio={ratio:.6g} ({out['failed']} failed / {out['attempted']} attempted)")
    for note in out["notes"][:20]:
        print(f"# FAILURE {note}")
    units = bench.metric_units(bool(args.trace))
    metrics = {n: {"value": v, "unit": units[n]} for n, v in out["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name:<30} {m['value']!r:>24} {m['unit']}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
