"""Output checks that do not go through the package under test.

Everything here is written against numpy and the paper's statements only, so
a defect in the package's rank engines, audit or predictions cannot hide
itself.  The reference statuses in ``reference.json`` were produced by
``make_reference.py`` and are compared status by status; certificate
rows/columns are never compared, because a different search order may
legitimately find a different first certificate.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative singular values of DFT submatrices with d <= 12 sit either at
# rounding level (below 1e-15) or above 1e-3 (a random scan of 220k
# submatrices); anything between the two bands is an undecidable rank and
# fails the audit.
_RANK_ZERO = 1e-10
_RANK_NONZERO = 1e-6

SUPPORT_EPS = 1e-10


class AmbiguousRank(ValueError):
    """A singular value fell between the zero and nonzero bands."""


def load_reference(path: Path = REFERENCE_PATH) -> dict[int, dict[tuple[int, int], str]]:
    """Map d -> {(n_a, n_b): "present" | "hole"}."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {int(d): grid_to_statuses(grid) for d, grid in payload["statuses"].items()}


def grid_to_statuses(grid: list[str]) -> dict[tuple[int, int], str]:
    """Rows are n_a = 1..d, characters n_b = 1..d; 'P' present, 'H' hole."""
    names = {"P": "present", "H": "hole"}
    return {
        (a + 1, b + 1): names[ch] for a, row in enumerate(grid) for b, ch in enumerate(row)
    }


def statuses_to_grid(d: int, statuses: dict[tuple[int, int], str]) -> list[str]:
    chars = {"present": "P", "hole": "H"}
    return [
        "".join(chars[statuses[(a, b)]] for b in range(1, d + 1)) for a in range(1, d + 1)
    ]


def dft(d: int) -> np.ndarray:
    """Unscaled DFT entries w^(i*j); rank is invariant under the 1/sqrt(d)."""
    idx = np.arange(d)
    return np.exp(2j * np.pi * (np.outer(idx, idx) % d) / d)


def numeric_rank(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    rel = s / s[0]
    if np.any((rel > _RANK_ZERO) & (rel < _RANK_NONZERO)):
        raise AmbiguousRank(f"singular values {rel.tolist()} straddle the rank gap")
    return int(np.sum(rel >= _RANK_NONZERO))


def certificate_holds(f: np.ndarray, n_a: int, n_b: int, rows, cols) -> bool:
    """The three rank conditions for a Present certificate, recomputed.

    ``rows`` are the d - n_a excluded A-indices, ``cols`` the n_b B-indices.
    """
    d = f.shape[0]
    rows = sorted(int(r) for r in rows)
    cols = sorted(int(c) for c in cols)
    if len(rows) != d - n_a or len(cols) != n_b:
        return False
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return False
    if any(not 0 <= i < d for i in rows + cols):
        return False
    try:
        base = numeric_rank(f[np.ix_(rows, cols)])
        if base >= n_b:
            return False
        for k in range(d):
            if k not in rows and numeric_rank(f[np.ix_(rows + [k], cols)]) != base + 1:
                return False
        for c in cols:
            kept = [x for x in cols if x != c]
            if numeric_rank(f[np.ix_(rows, kept)]) != base:
                return False
    except AmbiguousRank:
        return False
    return True


def support_counts(f: np.ndarray, amps_a: np.ndarray) -> tuple[int, int]:
    """(n_a, n_b) of a state given by its A amplitudes, with the relative
    threshold SUPPORT_EPS in each basis."""
    d = f.shape[0]
    amps_b = f.conj().T @ amps_a / np.sqrt(d)

    def count(v: np.ndarray) -> int:
        mags = np.abs(v)
        return int(np.sum(mags > SUPPORT_EPS * mags.max()))

    return count(amps_a), count(amps_b)


# ---------------------------------------------------------------------------
# closed-form statements from the paper, written out independently


def divisors(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if n % m == 0]


def half_plane(d: int) -> set[tuple[int, int]]:
    """Corollary 1: every point with n_a + n_b >= d + 1 is Present."""
    return {(a, b) for a in range(1, d + 1) for b in range(1, d + 1) if a + b >= d + 1}


def theorem1_points(d: int) -> set[tuple[int, int]]:
    """Theorem 1: (d - n, n_b) for m | d, m | n, n < d and n/m < n_b <= d/m,
    the boundary rows (d, i) and (i, d), closed under swapping."""
    pts = {(d, i) for i in range(1, d + 1)} | {(i, d) for i in range(1, d + 1)}
    for m in divisors(d):
        for n in range(m, d, m):
            pts |= {(d - n, nb) for nb in range(n // m + 1, d // m + 1)}
    return pts | {(b, a) for a, b in pts}


def theorem2_row(d: int) -> set[int]:
    """Theorem 2: on row n_b = 2, n_a = d - n is Present iff n = 0 or n is a
    proper divisor of d."""
    return {d} | {d - n for n in divisors(d) if n != d}


def cross_check(d: int, statuses: dict[tuple[int, int], str]) -> list[str]:
    """Problems found by the theory checks; empty when all hold."""
    present = {p for p, s in statuses.items() if s == "present"}
    problems = []
    if set(statuses) != {(a, b) for a in range(1, d + 1) for b in range(1, d + 1)}:
        problems.append(f"d={d}: lattice incomplete")
    if any(statuses[(a, b)] != statuses[(b, a)] for a, b in statuses):
        problems.append(f"d={d}: not symmetric")
    if not half_plane(d) <= present:
        problems.append(f"d={d}: Corollary 1 points missing")
    if any(a * b < d for a, b in present):
        problems.append(f"d={d}: a Present point breaks n_a * n_b >= d (Donoho-Stark)")
    if not theorem1_points(d) <= present:
        problems.append(f"d={d}: Theorem 1 points missing")
    if d >= 2 and {a for a, b in present if b == 2} != theorem2_row(d):
        problems.append(f"d={d}: row two differs from Theorem 2")
    if d > 1 and divisors(d) == [1, d] and present != half_plane(d):
        problems.append(f"d={d}: prime dimension is not exactly the half-plane")
    return problems
