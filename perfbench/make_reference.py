"""Regenerate perfbench/reference.json, the reference status sets.

Run from the repository root:

    python3 perfbench/make_reference.py

Every dimension 2..12 is enumerated with the numeric engine, and 2..9 also
with the exact engine; the two must agree point for point.  Each status set
must pass the independent theory checks in ``checks.cross_check``, and every
Present certificate must pass the independent numpy audit.  Only statuses
are stored.  Takes about 20 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from kduncd import dft_matrix, enumerate_diagram  # noqa: E402

DIMS = range(2, 13)
EXACT_DIMS = range(2, 10)


def _statuses(diag) -> dict[tuple[int, int], str]:
    return {k: p.status.value for k, p in diag.points.items()}


def main() -> int:
    grids = {}
    for d in DIMS:
        diag = enumerate_diagram(dft_matrix(d), engine="numeric")
        statuses = _statuses(diag)
        if d in EXACT_DIMS:
            exact = enumerate_diagram(dft_matrix(d), engine="exact")
            if _statuses(exact) != statuses:
                raise SystemExit(f"d={d}: exact and numeric engines disagree")
            diags = (diag, exact)
        else:
            diags = (diag,)
        problems = checks.cross_check(d, statuses)
        if problems:
            raise SystemExit("; ".join(problems))
        f = checks.dft(d)
        for dg in diags:
            for (a, b), p in dg.points.items():
                if p.status.value == "present" and not checks.certificate_holds(
                    f, a, b, p.certificate.rows, p.certificate.cols
                ):
                    raise SystemExit(f"d={d} ({a},{b}): certificate fails the audit")
        grids[str(d)] = checks.statuses_to_grid(d, statuses)
        print(f"d={d}: {sum(s == 'present' for s in statuses.values())} present", flush=True)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    payload = {
        "source_commit": commit,
        "engines": {"numeric": [min(DIMS), max(DIMS)], "exact": [min(EXACT_DIMS), max(EXACT_DIMS)]},
        "statuses": grids,
    }
    checks.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
