"""Verification suites: closed-form predictions against enumeration, and
sampling-based classification checks.

Each suite returns one row per dimension.  ``passed`` is True/False for a
binding comparison and None for an informational one (a prediction applied
outside its stated hypotheses is reported but does not gate).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from .cyclotomic import divisors
from .diagram import (
    UncertaintyDiagram,
    predict_corollary1,
    predict_theorem1,
    predict_theorem2,
    predict_theorem3,
    witness_state,
)
from .kd import (
    Verdict,
    classify_state,
    dft_matrix,
    predict_classicality_dft,
    support_profile,
    theorem5_sufficient,
)
from .linalg import DEFAULT_RANK_TOL, svd_rank
from .states import CosetSpec, coset_classical_state, random_mub_pair, random_state_in_subspace

__all__ = [
    "VerifyRow",
    "lemma3_check",
    "verify_suite",
]

DiagramProvider = Callable[[int], UncertaintyDiagram]

# Smallest dimension each rule is stated for; absent rules hold from d = 1.
_MIN_DIMENSION = {"T2": 2, "T3": 3, "T5": 2}


@dataclass(frozen=True)
class VerifyRow:
    d: int
    label: str
    passed: bool | None
    detail: str = ""


def _fmt_points(points) -> str:
    return "{" + ", ".join(f"({a},{b})" for a, b in sorted(points)) + "}"


def _verify_claims(
    dims: Sequence[int], diagrams: DiagramProvider, label: str, predict, passing: str
) -> list[VerifyRow]:
    """Every point the rule claims must be Present; ``passing`` may name ``{n}`` claims."""
    rows = []
    for d in dims:
        pred = predict(d)
        missing = pred.points - diagrams(d).present_set()
        detail = f"missing {_fmt_points(missing)}" if missing else passing.format(n=len(pred.points))
        rows.append(VerifyRow(d=d, label=label, passed=not missing, detail=detail))
    return rows


def _verify_row_exact(
    dims: Sequence[int], diagrams: DiagramProvider, label: str, predict
) -> list[VerifyRow]:
    rows = []
    for d in dims:
        pred = predict(d)
        actual = {(a, pred.row) for a in diagrams(d).row_present(pred.row)}
        match = actual == pred.points
        detail = (
            f"row {pred.row} present at n_a in {sorted(a for a, _ in pred.points)}"
            if match
            else f"predicted {_fmt_points(pred.points)} got {_fmt_points(actual)}"
        )
        if not pred.applicable:
            # heuristic rule: a match still passes, a mismatch is only reported
            detail += " [outside stated hypotheses]"
            passed: bool | None = True if match else None
        else:
            passed = match
        rows.append(VerifyRow(d=d, label=label, passed=passed, detail=detail))
    return rows


def verify_theorem2(dims: Sequence[int], diagrams: DiagramProvider) -> list[VerifyRow]:
    return _verify_row_exact(dims, diagrams, "T2", predict_theorem2)


def verify_theorem3(dims: Sequence[int], diagrams: DiagramProvider) -> list[VerifyRow]:
    return _verify_row_exact(dims, diagrams, "T3", predict_theorem3)


def verify_theorem4(
    dims: Sequence[int],
    diagrams: DiagramProvider,
    *,
    coset_samples: int = 20,
    witness_samples: int = 1000,
    eps_classical: float = 1e-10,
    seed: int | None = 0,
) -> list[VerifyRow]:
    """Hyperbola states classify classical; above-hyperbola witnesses classify
    nonclassical."""
    if min(coset_samples, witness_samples) < 1:
        raise ValueError("sample counts must be at least 1")  # else nothing is checked
    rng = np.random.default_rng(seed)
    rows = []
    for d in dims:
        diag = diagrams(d)  # first: it refuses a too-large d before the matrix is built
        u = dft_matrix(d)
        bad: list[str] = []
        for k in range(coset_samples):
            p = divisors(d)[k % len(divisors(d))]
            spec = CosetSpec(
                d=d,
                p=p,
                a_shift=int(rng.integers(d)),
                b_shift=int(rng.integers(d)),
            )
            psi = coset_classical_state(spec)
            profile = support_profile(psi, u)
            verdict = classify_state(psi, u, eps=eps_classical).verdict
            if profile.n_a * profile.n_b != d or verdict is not Verdict.CLASSICAL:
                bad.append(f"coset {spec} profile ({profile.n_a},{profile.n_b}) {verdict.value}")
        eligible = sorted(p for p in diag.present_set() if p[0] * p[1] > d)
        done = 0
        while eligible and done < witness_samples:
            point = diag.points[eligible[done % len(eligible)]]
            psi = witness_state(u, point, seed=rng)
            verdict = classify_state(psi, u, eps=eps_classical).verdict
            predicted = predict_classicality_dft(support_profile(psi, u))
            if verdict is not Verdict.NONCLASSICAL or predicted is not Verdict.NONCLASSICAL:
                bad.append(f"witness at {point.n_a, point.n_b} classified {verdict.value}")
            done += 1
        detail = (
            f"{coset_samples} coset + {done} witness states agree"
            if not bad
            else "; ".join(bad[:3])
        )
        rows.append(VerifyRow(d=d, label="T4", passed=not bad, detail=detail))
    return rows


def verify_theorem5(
    dims: Sequence[int],
    *,
    pairs: int = 100,
    samples: int = 100,
    seed: int | None = 0,
) -> list[VerifyRow]:
    """Random MUB pairs: any non-basis state with a support count above d/2
    must classify nonclassical.

    States are drawn from subspaces with one support bound above d/2 and the
    other large enough to keep the subspace nontrivial, so both one-sided and
    mixed support shapes are exercised.
    """
    if min(pairs, samples) < 1:
        raise ValueError("pair and sample counts must be at least 1")
    rng = np.random.default_rng(seed)
    rows = []
    for d in dims:
        bad: list[str] = []
        for _ in range(pairs):
            u = random_mub_pair(d, seed=rng)
            for _ in range(samples):
                big = int(rng.integers(d // 2 + 1, d + 1))
                small = int(rng.integers(max(2, d + 1 - big), d + 1))
                big_set = sorted(rng.choice(d, size=big, replace=False).tolist())
                small_set = sorted(rng.choice(d, size=small, replace=False).tolist())
                if rng.integers(2):
                    psi = random_state_in_subspace(u, big_set, small_set, seed=rng)
                else:
                    psi = random_state_in_subspace(u, small_set, big_set, seed=rng)
                profile = support_profile(psi, u)
                if profile.n_a <= 1 or profile.n_b <= 1:
                    continue  # basis vector: criterion is silent
                if not theorem5_sufficient(profile, u):
                    continue  # sampled support collapsed below the threshold
                if classify_state(psi, u).verdict is not Verdict.NONCLASSICAL:
                    bad.append(
                        f"profile ({profile.n_a},{profile.n_b}) classified classical"
                    )
            if bad:
                break
        detail = f"{pairs} pairs x {samples} states" if not bad else bad[0]
        rows.append(VerifyRow(d=d, label="T5", passed=not bad, detail=detail))
    return rows


def lemma3_check(d: int, rank_tol: float = DEFAULT_RANK_TOL) -> tuple[int, int]:
    """Exhaustive full-rank check on periodic-row submatrices.

    For every divisor m of d (m != d), row blocks i0, i0+m, ..., i0+(t-1)m
    with t <= d/m, and every column set with distinct residues modulo d/m,
    the submatrix of the DFT must have rank min(s, t).  Returns
    (instances checked, violations).
    """
    idx = np.arange(d)
    w = dft_matrix(d).numeric
    checked = 0
    violations = 0
    for m in divisors(d):
        if m == d:
            continue
        q = d // m
        col_sets_by_size: dict[int, list[list[int]]] = {}
        for s in range(1, q + 1):
            sets_s: list[list[int]] = []
            for residues in combinations(range(q), s):
                for reps in product(range(m), repeat=s):
                    sets_s.append([r + q * k for r, k in zip(residues, reps)])
            col_sets_by_size[s] = sets_s
        for t in range(1, q + 1):
            row_block = (idx[:, None] + m * np.arange(t)[None, :]) % d  # (d, t)
            for s, sets_s in col_sets_by_size.items():
                cols = np.array(sets_s, dtype=int)  # (K, s)
                subs = w[row_block[:, None, :, None], cols[None, :, None, :]]
                subs = subs.reshape(d * cols.shape[0], t, s)
                ranks = svd_rank(np.linalg.svd(subs, compute_uv=False), max(t, s), rank_tol)
                checked += subs.shape[0]
                violations += int(np.sum(ranks != min(t, s)))
    return checked, violations


def verify_lemma3(dims: Sequence[int], rank_tol: float = DEFAULT_RANK_TOL) -> list[VerifyRow]:
    rows = []
    for d in dims:
        checked, violations = lemma3_check(d, rank_tol)
        rows.append(
            VerifyRow(
                d=d,
                label="L3",
                passed=violations == 0,
                detail=f"{checked} progression submatrices, {violations} rank defects",
            )
        )
    return rows


def verify_suite(
    theorem: str,
    dims: Sequence[int],
    diagrams: DiagramProvider,
    *,
    samples: int | None = None,
    pairs: int | None = None,
    seed: int | None = 0,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> list[VerifyRow]:
    """Dispatch a named verification over a dimension range.

    A dimension below the rule's minimum gets an informational row instead
    of a check, so every requested dimension is reported.  A count left at
    None takes the rule's default.
    """
    theorem = theorem.upper()
    low = _MIN_DIMENSION.get(theorem, 1)
    skipped = [
        VerifyRow(d=d, label=theorem, passed=None, detail=f"rule needs d >= {low}; not checked")
        for d in dims
        if d < low
    ]
    dims = [d for d in dims if d >= low]
    if theorem == "T1":
        rows = _verify_claims(dims, diagrams, "T1", predict_theorem1, "all claims present")
    elif theorem == "C1":
        rows = _verify_claims(
            dims, diagrams, "C1", predict_corollary1, "{n} half-plane points present"
        )
    elif theorem == "T2":
        rows = verify_theorem2(dims, diagrams)
    elif theorem == "T3":
        rows = verify_theorem3(dims, diagrams)
    elif theorem == "T4":
        rows = verify_theorem4(
            dims, diagrams, witness_samples=1000 if samples is None else samples, seed=seed
        )
    elif theorem == "T5":
        rows = verify_theorem5(
            dims,
            pairs=100 if pairs is None else pairs,
            samples=100 if samples is None else samples,
            seed=seed,
        )
    elif theorem == "L3":
        rows = verify_lemma3(dims, rank_tol)
    else:
        raise ValueError(f"unknown verification id {theorem!r}")
    return skipped + rows
