"""Verification suites: closed-form predictions against enumeration, and
sampling-based classification checks.

Each suite returns one row per dimension.  ``passed`` is True/False for a
binding comparison and None for an informational one (a prediction applied
outside its stated hypotheses is reported but does not gate).  T4 samples
and checks each certified point's witness states as one numpy block.  C1 on
the DFT reads the audited closed-form certificates, not searched ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from typing import Callable, Iterable, Sequence

import numpy as np

from .cyclotomic import divisors
from .diagram import (
    NUMERIC_DIMENSION_LIMIT,
    UncertaintyDiagram,
    predict_corollary1,
    predict_theorem1,
    predict_theorem2,
    predict_theorem3,
    _witness_block,
)
from .kd import (
    DEFAULT_SUPPORT_EPS,
    StateVector,
    Verdict,
    _nonclassical,
    _support_masks,
    classify_state,
    dft_matrix,
    predict_classicality_dft,
    support_profile,
    theorem5_sufficient,
)
from .linalg import svd_rank
from .states import CosetSpec, coset_classical_state, random_mub_pair, random_state_in_subspace

__all__ = [
    "VerifyRow",
    "lemma3_check",
    "verify_suite",
]

DiagramProvider = Callable[[int], UncertaintyDiagram]

# Coset states T4 checks per dimension, cycling through the divisors of d.
_COSET_SAMPLES = 20

# Most witness states T4 draws and checks in one block, which bounds the
# block's KD tables to a few MB.
_WITNESS_BLOCK = 1024

# Most matrix entries L3 ranks in one SVD stack.
_LEMMA3_CHUNK = 1 << 14


@dataclass(frozen=True)
class VerifyRow:
    d: int
    label: str
    passed: bool | None
    detail: str = ""


def _fmt_points(points) -> str:
    return "{" + ", ".join(f"({a},{b})" for a, b in sorted(points)) + "}"


def _verify_claims(
    predict, passing: str, dims: Iterable[int], diagrams: DiagramProvider
) -> list[VerifyRow]:
    """Every point the rule claims must be Present; ``passing`` may name ``{n}`` claims."""
    rows = []
    for d in dims:
        pred = predict(d)
        missing = pred.points - diagrams(d).present_set()
        detail = f"missing {_fmt_points(missing)}" if missing else passing.format(n=len(pred.points))
        rows.append(VerifyRow(d=d, label=pred.theorem, passed=not missing, detail=detail))
    return rows


def _verify_row_exact(predict, dims: Iterable[int], diagrams: DiagramProvider) -> list[VerifyRow]:
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
        rows.append(VerifyRow(d=d, label=pred.theorem, passed=passed, detail=detail))
    return rows


def verify_theorem4(
    dims: Iterable[int],
    diagrams: DiagramProvider,
    *,
    samples: int = 1000,
    seed: int | None = 0,
) -> list[VerifyRow]:
    """Hyperbola states classify classical; above-hyperbola witnesses classify
    nonclassical.  The j-th eligible point takes witness states j, j + L,
    j + 2L, ... of ``samples`` (L points), drawn in blocks."""
    if samples < 1:
        raise ValueError("witness sample count must be at least 1")  # else nothing is checked
    rng = np.random.default_rng(seed)
    rows = []
    for d in dims:
        diag = diagrams(d)  # first: it refuses a too-large d before the matrix is built
        u = dft_matrix(d)
        bad: list[str] = []
        for k in range(_COSET_SAMPLES):
            p = divisors(d)[k % len(divisors(d))]
            spec = CosetSpec(
                d=d,
                p=p,
                a_shift=int(rng.integers(d)),
                b_shift=int(rng.integers(d)),
            )
            psi = coset_classical_state(spec)
            profile = support_profile(psi, u)
            verdict = classify_state(psi, u).verdict
            if profile.n_a * profile.n_b != d or verdict is not Verdict.CLASSICAL:
                bad.append(f"coset {spec} profile ({profile.n_a},{profile.n_b}) {verdict.value}")
        eligible = sorted(p for p in diag.present_set() if p[0] * p[1] > d)
        done = 0
        for j, key in enumerate(eligible):
            left = len(range(j, samples, len(eligible)))
            while left:
                size = min(left, _WITNESS_BLOCK)
                amps = _witness_block(u, diag.points[key], size, rng)
                bad += [f"witness at {key}: {fault}" for fault in _witness_faults(u, key, amps)]
                left -= size
                done += size
        detail = (
            f"{_COSET_SAMPLES} coset + {done} witness states agree"
            if not bad
            else "; ".join(bad[:3])
        )
        rows.append(VerifyRow(d=d, label="T4", passed=not bad, detail=detail))
    return rows


def _witness_faults(u, key: tuple[int, int], amps: np.ndarray) -> list[str]:
    """What the rows of a witness block for the point ``key`` get wrong: each
    must have exactly that profile, classify nonclassical, and be predicted
    nonclassical."""
    counts = _support_masks(amps, u, DEFAULT_SUPPORT_EPS).sum(axis=-1).T
    hit = (counts == key).all(axis=1)
    faults = {
        f"missed the profile, e.g. {tuple(counts[np.argmin(hit)].tolist())}": ~hit,
        "classified classical": ~_nonclassical(amps, u),
    }
    if hit.any():
        # the prediction reads only (d, n_a, n_b), which every hitting row shares
        first = StateVector(d=u.d, amps_a=amps[np.argmax(hit)])
        predicted = predict_classicality_dft(support_profile(first, u))
        faults[f"predicted {predicted.value}"] = hit & (predicted is not Verdict.NONCLASSICAL)
    return [f"{np.sum(rows)} of {len(amps)} {what}" for what, rows in faults.items() if rows.any()]


def verify_theorem5(
    dims: Iterable[int],
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
        skipped = 0
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
                # a basis vector, or a sampled support that collapsed below
                # the threshold: the criterion is silent
                if min(profile.n_a, profile.n_b) <= 1 or not theorem5_sufficient(profile, u):
                    skipped += 1
                    continue
                if classify_state(psi, u).verdict is not Verdict.NONCLASSICAL:
                    bad.append(
                        f"profile ({profile.n_a},{profile.n_b}) classified classical"
                    )
            if bad:
                break
        detail = f"{pairs} pairs x {samples} states" + (f", {skipped} skipped" if skipped else "")
        detail = detail if not bad else bad[0]
        rows.append(VerifyRow(d=d, label="T5", passed=not bad, detail=detail))
    return rows


def lemma3_check(d: int) -> tuple[int, int]:
    """Exhaustive full-rank check on periodic-row submatrices.

    For every divisor m of d (m != d), row blocks i0, i0+m, ..., i0+(t-1)m
    with t <= d/m, and every column set with distinct residues modulo d/m,
    the submatrix of the DFT must have rank min(s, t).  Returns
    (instances checked, violations).  Each SVD stack holds at most 2^14
    matrix entries, or one column set's d submatrices if they hold more.
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
                step = max(1, _LEMMA3_CHUNK // (d * t * s))  # column sets per stack
                for start in range(0, len(cols), step):
                    chunk = cols[None, start : start + step, None, :]
                    subs = w[row_block[:, None, :, None], chunk].reshape(-1, t, s)
                    ranks = svd_rank(np.linalg.svd(subs, compute_uv=False), max(t, s))
                    checked += subs.shape[0]
                    violations += int(np.sum(ranks != min(t, s)))
    return checked, violations


def verify_lemma3(dims: Iterable[int]) -> list[VerifyRow]:
    rows = []
    for d in dims:
        checked, violations = lemma3_check(d)
        rows.append(
            VerifyRow(
                d=d,
                label="L3",
                passed=violations == 0,
                detail=f"{checked} progression submatrices, {violations} rank defects",
            )
        )
    return rows


# The verification rules by name: (least d the rule is stated for, whether its
# check reads diagrams and so takes the provider after the dimensions, the
# check, then the ``verify_suite`` keywords it takes).  A new rule is one entry.
_RULES = {
    "T1": (1, True, partial(_verify_claims, predict_theorem1, "all claims present")),
    "C1": (1, True, partial(_verify_claims, predict_corollary1, "{n} half-plane points present")),
    "T2": (2, True, partial(_verify_row_exact, predict_theorem2)),
    "T3": (3, True, partial(_verify_row_exact, predict_theorem3)),
    "T4": (1, True, verify_theorem4, "samples", "seed"),
    "T5": (2, False, verify_theorem5, "pairs", "samples", "seed"),
    "L3": (2, False, verify_lemma3),
}


def verify_suite(
    theorem: str,
    dims: Sequence[int],
    diagrams: DiagramProvider,
    *,
    samples: int | None = None,
    pairs: int | None = None,
    seed: int | None = 0,
) -> list[VerifyRow]:
    """Run the rule of ``_RULES`` named ``theorem``, in any case, over a range.

    A dimension below the rule's least d gets an informational row, not a
    check, so every dimension is reported.  ``samples`` or ``pairs`` left at
    None is not passed, so the check's default applies; ``seed`` is passed as
    given.  ``L3`` refuses the range if any dimension exceeds the enumeration
    limit, as its submatrix count grows combinatorially.  The rules that read
    diagrams ask for those past the limit first, so a provider that refuses one
    refuses the range before any diagram below it is enumerated.
    """
    theorem = theorem.upper()
    if theorem not in _RULES:
        raise ValueError(f"unknown verification id {theorem!r}")
    low, reads_diagrams, check, *taken = _RULES[theorem]

    if theorem == "L3" and any(d > NUMERIC_DIMENSION_LIMIT for d in dims):
        raise ValueError(f"L3 is limited to d <= {NUMERIC_DIMENSION_LIMIT}")
    large = {d: diagrams(d) for d in dims if d > NUMERIC_DIMENSION_LIMIT} if reads_diagrams else {}

    def diagram(d: int) -> UncertaintyDiagram:
        return large[d] if d in large else diagrams(d)

    skipped: list[VerifyRow] = []

    def checked(d: int) -> bool:
        if d < low:
            detail = f"rule needs d >= {low}; not checked"
            skipped.append(VerifyRow(d=d, label=theorem, passed=None, detail=detail))
        return d >= low

    given = {"samples": samples, "pairs": pairs, "seed": seed}
    counts = {k: given[k] for k in taken if k == "seed" or given[k] is not None}
    # filtered lazily, so a refused dimension ends even a huge range at once
    dims = filter(checked, dims)
    rows = check(dims, diagram, **counts) if reads_diagrams else check(dims, **counts)
    return skipped + rows
