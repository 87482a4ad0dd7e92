"""Uncertainty-diagram membership by exhaustive rank-condition search.

A point (n_a, n_b) is achievable exactly when some submatrix M of the
transition matrix, built from d - n_a rows and n_b columns, satisfies

  (i)   rank(M) < n_b,
  (ii)  appending any one of the remaining rows raises the rank by one,
  (iii) removing any single column leaves the rank unchanged.

Condition (ii) quantifies over every row outside the selection and (iii)
over every column of it.  The empty row selection (n_a = d) folds into the
same three conditions: they then reduce to every single row of the matrix
being nonzero on the chosen columns, which is the direct density argument
for full A-support.

One function evaluates the three conditions.  The search asks it through
the cached rank oracle; the audit of a certifying candidate asks it through
a closure that keeps every rank certificate, so both see the same rank
queries in the same order.

A point is Present with the first certifying candidate in lexicographic
order, columns outer, or Hole only after every candidate is exhausted; a
budget can cut a search short, which yields Unknown, never a Hole.  For the
DFT the conditions are unchanged by T -> T + s and R -> R + s' (unit-root
rescalings of rows and columns) and by (R, T) -> (a^-1 R, aT) for a unit a
mod d, since U[a^-1 i, a j] = U[i, j].  So the DFT search scans only the
least column set of each orbit under x -> ax + s, and row sets containing
0.  The full scan's first certifying candidate is among them (a smaller
member of its column orbit would certify first, and R - min R certifies
too), and an exhausted quotient rules out every selection.

The DFT diagram is symmetric, as the conjugate DFT maps a state with
profile (a, b) to one with profile (b, a).  So ``enumerate_diagram`` reads
each point with n_a > n_b off its mirror (n_b, n_a), decided earlier
(``_mirrored_point``); such a point's certificate is the complement-swap of
its mirror's, not the full scan's first candidate.

Most candidates fail (i), so the search screens it once per column set:
the rank oracle returns the base rank of every row set on that column set,
and (ii) and (iii) run only on row sets with base rank below n_b, in the
same lex order.  The screen computes the uncached base ranks as one stack
on every engine.  A budget of k candidates screens only the first k, so it
cuts the scan where a candidate-by-candidate loop would.
"""

from __future__ import annotations

import bisect
import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations, groupby
from pathlib import Path
from typing import Callable

import numpy as np

from .cyclotomic import divisors, is_prime
from .kd import DEFAULT_SUPPORT_EPS, StateVector, TransitionKind, TransitionMatrix, _support_masks
from .linalg import (
    DEFAULT_RANK_TOL,
    ENGINE_EXACT,
    ENGINE_NUMERIC,
    RankCertificate,
    _exact_rank_int,
    _pivot_pairs,
    rank,
    svd_rank,
)
from .states import _subspace_sampler

__all__ = [
    "DiagramPoint",
    "EngineDisagreementError",
    "ENGINE_BOTH",
    "EXACT_DIMENSION_LIMIT",
    "IndeterminateDiagramError",
    "NUMERIC_DIMENSION_LIMIT",
    "PointCertificate",
    "PointStatus",
    "TheoremPrediction",
    "UncertaintyDiagram",
    "WitnessSamplingError",
    "check_submatrix_conditions",
    "diagram_to_csv",
    "diagram_to_dict",
    "enumerate_diagram",
    "is_completely_incompatible",
    "load_diagram",
    "point_exists",
    "predict_corollary1",
    "predict_theorem1",
    "predict_theorem2",
    "predict_theorem3",
    "save_diagram",
    "witness_state",
]

ENGINE_BOTH = "both"

# "auto" picks exact up to EXACT_DIMENSION_LIMIT; NUMERIC_DIMENSION_LIMIT bounds every engine.
EXACT_DIMENSION_LIMIT = 9
NUMERIC_DIMENSION_LIMIT = 12

# Rounds of fresh nullspace samples a witness block draws before it gives up.
_WITNESS_TRIES = 64


class PointStatus(str, Enum):
    PRESENT = "present"
    HOLE = "hole"
    UNKNOWN = "unknown"


class EngineDisagreementError(RuntimeError):
    """Exact and numeric rank engines returned different values."""

    def __init__(self, rows, cols, exact_rank: int, numeric_rank: int) -> None:
        super().__init__(
            f"engine disagreement on rows={list(rows)} cols={list(cols)}: "
            f"exact={exact_rank} numeric={numeric_rank}"
        )
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.exact_rank = exact_rank
        self.numeric_rank = numeric_rank


class IndeterminateDiagramError(RuntimeError):
    """The diagram holds Unknown points, so the query has no definite answer."""


class WitnessSamplingError(RuntimeError):
    """A certified point's subspace could not be sampled, or random samples
    failed to realize its support profile."""


@dataclass(frozen=True)
class PointCertificate:
    """Row/column selection behind a Present verdict, with the rank audit.

    ``base`` certifies rank(M); ``added`` holds one certificate per appended
    outside row, ``removed`` one per dropped column.  Deserialized diagrams
    carry the selection only, with the audit fields empty.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    base: RankCertificate | None = None
    added: tuple[tuple[int, RankCertificate], ...] = ()
    removed: tuple[tuple[int, RankCertificate], ...] = ()


@dataclass(frozen=True)
class DiagramPoint:
    n_a: int
    n_b: int
    status: PointStatus
    certificate: PointCertificate | None = None
    note: str = ""


@dataclass
class UncertaintyDiagram:
    """Status of every lattice point (n_a, n_b) in 1..d x 1..d."""

    d: int
    engine: str
    points: dict[tuple[int, int], DiagramPoint]
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    def status(self, n_a: int, n_b: int) -> PointStatus:
        return self.points[(n_a, n_b)].status

    def present_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(k for k, p in self.points.items() if p.status is PointStatus.PRESENT)

    def hole_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(k for k, p in self.points.items() if p.status is PointStatus.HOLE)

    def unknown_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(k for k, p in self.points.items() if p.status is PointStatus.UNKNOWN)

    def row_present(self, n_b: int) -> frozenset[int]:
        """A-support sizes of the Present points on one diagram row."""
        return frozenset(a for (a, b) in self.present_set() if b == n_b)

    def is_symmetric(self) -> bool:
        return all(
            self.points[(a, b)].status is self.points[(b, a)].status
            for a in range(1, self.d + 1)
            for b in range(1, self.d + 1)
        )


# ---------------------------------------------------------------------------
# cached rank oracle


def _dft_block(d: int, rows, cols) -> list[list[tuple[tuple[int, int]]]]:
    """The block w^(i*j), i in ``rows``, j in ``cols``, of the unscaled DFT,
    as one (exponent, coefficient) term per entry for the exact engine."""
    return [[((i * j % d, 1),) for j in cols] for i in rows]


def _mask(indices) -> int:
    return sum(map((1).__lshift__, indices))


@lru_cache(maxsize=None)
def _least_rotations(d: int) -> tuple[int, ...]:
    """Least cyclic rotation of every subset of Z_d, as bitmasks indexed by
    the subset's bitmask."""
    masks = np.arange(1 << d, dtype=np.int64)
    full = (1 << d) - 1
    least = masks
    for k in range(1, d):
        least = np.minimum(least, ((masks << k) | (masks >> (d - k))) & full)
    return tuple(least.tolist())


class _RankOracle:
    """Memoized rank queries for submatrices of one transition matrix.

    The cache key packs the row and column bitmasks into one int.  For the
    DFT each mask is first replaced by its least cyclic rotation and the pair
    put in order: shifting rows by s rescales the columns by unit roots,
    shifting columns rescales rows, and the matrix is symmetric, so all
    members of an orbit share one rank.

    ``base_ranks`` answers one column set against many row sets and computes
    the ranks it lacks as one stack, on every engine; ``rank_of`` is its
    one-row case, for the single blocks of conditions (ii) and (iii).
    """

    def __init__(self, u: TransitionMatrix, engine: str) -> None:
        self.d = u.d
        self.engine = engine
        self.requests = 0
        self.computed = 0
        self._ranks: dict[int, int] = {}
        self._least = _least_rotations(u.d) if u.kind is TransitionKind.DFT else None
        self._numeric = u.numeric

    def _keys(self, row_masks, cmask: int) -> list[int]:
        d = self.d
        least = self._least
        if least is None:
            return [r << d | cmask for r in row_masks]
        c = least[cmask]
        return [r << d | c if r <= c else c << d | r for r in map(least.__getitem__, row_masks)]

    def _compute(self, row_sets, cols: tuple[int, ...]) -> list[int]:
        """Rank on ``cols`` of each row set.  Engine ``both`` computes both
        and raises on the first block, in order, where they differ."""
        if self.engine == ENGINE_NUMERIC:
            return _numeric_block_ranks(self._numeric, row_sets, cols)
        if len(row_sets) == 1:
            ranks = [rank(_dft_block(self.d, row_sets[0], cols), order=self.d).rank]
        else:
            ranks = _exact_block_ranks(self.d, [(rows, cols) for rows in row_sets])[0]
        if self.engine == ENGINE_BOTH:
            numeric = _numeric_block_ranks(self._numeric, row_sets, cols)
            for rows, r, rn in zip(row_sets, ranks, numeric):
                if r != rn:
                    raise EngineDisagreementError(rows, cols, r, rn)
        return ranks

    def rank_of(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
        return self.base_ranks((rows,), (_mask(rows),), cols)[0]

    def base_ranks(self, row_sets, row_masks, cols: tuple[int, ...]) -> list[int]:
        """Rank on ``cols`` of each row set, in order, one request each;
        ``row_masks`` holds the row sets' bitmasks.  The ranks not cached
        yet are computed as one stack."""
        keys = self._keys(row_masks, _mask(cols))
        self.requests += len(keys)
        ranks = self._ranks
        todo: dict[int, tuple[int, ...]] = {}
        for key, rows in zip(keys, row_sets):
            if key not in ranks:
                todo.setdefault(key, rows)
        if todo:
            self.computed += len(todo)
            ranks.update(zip(todo, self._compute(list(todo.values()), cols)))
        return [ranks[key] for key in keys]


def _exact_block_ranks(d: int, blocks) -> tuple[list[int], np.ndarray]:
    """Certified ranks of DFT blocks (rows, cols) as one padded stack, with
    each block's pivot row per column."""
    nrows = max(len(rows) for rows, _ in blocks)
    ncols = max(len(cols) for _, cols in blocks)
    rows = np.array([r + (-1,) * (nrows - len(r)) for r, _ in blocks], dtype=np.intp)
    cols = np.array([c + (-1,) * (ncols - len(c)) for _, c in blocks], dtype=np.intp)
    live = (rows >= 0)[:, :, None, None] & (cols >= 0)[:, None, :, None]
    # A minor has at most k rows of k unimodular entries, so Hadamard's
    # bound caps it at k^(k/2) in every embedding.
    k = min(nrows, ncols)
    exps = (rows[:, :, None] * cols[:, None, :] % d)[..., None]
    ranks, pivots = _exact_rank_int(exps, live, d, k**k)
    return ranks.tolist(), pivots


def _numeric_block_ranks(numeric: np.ndarray, row_sets, cols) -> list[int]:
    """Numeric ranks of blocks of one shape, rows in ``row_sets``, as one SVD
    stack; ``cols`` is one index set or one per block."""
    rows = np.array(row_sets, dtype=np.intp)
    stack = numeric[rows[:, :, None], np.array(cols, dtype=np.intp)[..., None, :]]
    if not stack.size:
        return [0] * len(rows)
    return svd_rank(np.linalg.svd(stack, compute_uv=False), max(stack.shape[1:])).tolist()


def _resolve_engine(d: int, kind: TransitionKind, engine: str, allow_large: bool) -> str:
    """The engine a search on a d x d matrix of this kind runs on.

    Raises ValueError past the one size limit, unless ``allow_large``.  It
    takes no matrix, so a caller can refuse d before building the d x d matrix.
    """
    if engine == "auto":
        if kind is TransitionKind.DFT and d <= EXACT_DIMENSION_LIMIT:
            engine = ENGINE_EXACT
        else:
            engine = ENGINE_NUMERIC
    if engine not in (ENGINE_EXACT, ENGINE_NUMERIC, ENGINE_BOTH):
        raise ValueError(f"unknown engine {engine!r}")
    if engine != ENGINE_NUMERIC and kind is not TransitionKind.DFT:
        raise ValueError("exact engine requires the DFT transition matrix")
    if d > NUMERIC_DIMENSION_LIMIT and not allow_large:
        raise ValueError(f"enumeration is limited to d <= {NUMERIC_DIMENSION_LIMIT} by default")
    return engine


# ---------------------------------------------------------------------------
# the three rank conditions


def _insert_sorted(rows: tuple[int, ...], k: int) -> tuple[int, ...]:
    pos = bisect.bisect_left(rows, k)
    return rows[:pos] + (k,) + rows[pos:]


def _conditions_hold(
    rank_of: Callable[[tuple[int, ...], tuple[int, ...]], int],
    d: int,
    rows: tuple[int, ...],
    cols: tuple[int, ...],
) -> bool:
    """Conditions (i)-(iii) for sorted ``rows`` and ``cols``.

    ``rank_of`` is asked for the base rank, then for each outside row
    inserted in sorted order, then for each dropped column, stopping at the
    first failure.
    """
    base = rank_of(rows, cols)
    return base < len(cols) and _conditions_ii_iii(rank_of, d, rows, cols, base)


def _conditions_ii_iii(
    rank_of: Callable[[tuple[int, ...], tuple[int, ...]], int],
    d: int,
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    base: int,
) -> bool:
    """Conditions (ii) and (iii) given the base rank, which (i) bounds."""
    rowset = set(rows)
    for k in range(d):
        if k not in rowset and rank_of(_insert_sorted(rows, k), cols) != base + 1:
            return False
    for idx in range(len(cols)):
        if rank_of(rows, cols[:idx] + cols[idx + 1 :]) != base:
            return False
    return True


def check_submatrix_conditions(
    u: TransitionMatrix,
    rows,
    cols,
    *,
    engine: str = "auto",
) -> tuple[bool, PointCertificate]:
    """Audited evaluation of the three rank conditions for one candidate.

    Ranks every block the audit may read at once: one padded stack on the
    exact engine, one SVD stack per block shape on the numeric one.  Returns
    the verdict together with the certificates read in the order of
    ``_conditions_hold``, so on failure they stop at the first violated
    condition.  ``rows`` may be empty, which encodes the full-A-support
    case.  Engine ``both`` audits on the exact engine.
    """
    d = u.d
    rows = tuple(sorted(int(r) for r in rows))
    cols = tuple(sorted(int(c) for c in cols))
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("duplicate indices")
    if rows and (rows[0] < 0 or rows[-1] >= d):
        raise ValueError("row index out of range")
    if not cols or cols[0] < 0 or cols[-1] >= d:
        raise ValueError("column selection must be a nonempty subset of the index range")
    exact = _resolve_engine(d, u.kind, engine, allow_large=True) != ENGINE_NUMERIC
    outside = [k for k in range(d) if k not in rows]
    blocks = [(rows, cols)]
    blocks += [(_insert_sorted(rows, k), cols) for k in outside]
    blocks += [(rows, cols[:i] + cols[i + 1 :]) for i in range(len(cols))]
    if exact:
        ranks, pivots = _exact_block_ranks(d, blocks)
        pairs = map(_pivot_pairs, pivots)
        found = [RankCertificate(r, ENGINE_EXACT, pv, 0.0) for r, pv in zip(ranks, pairs)]
    else:  # one SVD stack per block shape, each with its own threshold
        ranks = []
        for _, group in groupby(blocks, key=lambda b: (len(b[0]), len(b[1]))):
            ranks += _numeric_block_ranks(u.numeric, *zip(*group))
        found = [RankCertificate(r, ENGINE_NUMERIC, (), DEFAULT_RANK_TOL) for r in ranks]
    table = dict(zip(blocks, found))
    certs: list[RankCertificate] = []

    def rank_of(r, c) -> int:
        certs.append(table[r, c])
        return certs[-1].rank

    ok = _conditions_hold(rank_of, d, rows, cols)
    added = tuple(zip(outside, certs[1:]))
    removed = tuple(zip(cols, certs[1 + len(outside) :]))
    return ok, PointCertificate(rows=rows, cols=cols, base=certs[0], added=added, removed=removed)


# ---------------------------------------------------------------------------
# point search and diagram enumeration


@lru_cache(maxsize=None)
def _column_representatives(d: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Least member of each orbit of ``size``-subsets of Z_d under x -> ax + s,
    in lex order: the first member met marks its whole orbit as seen."""
    units = [a for a in range(d) if math.gcd(a, d) == 1]
    maps = [[(a * x + s) % d for x in range(d)] for a in units for s in range(d)]
    seen: set[int] = set()
    reps = []
    for cols in combinations(range(d), size):
        if _mask(cols) not in seen:
            reps.append(cols)
            seen.update(_mask(m[x] for x in cols) for m in maps)
    return tuple(reps)


def _find_point(
    u: TransitionMatrix,
    oracle: _RankOracle,
    n_a: int,
    n_b: int,
    max_checks: int | None,
) -> DiagramPoint:
    d = u.d
    if not (1 <= n_a <= d and 1 <= n_b <= d):
        raise ValueError("point coordinates must lie in 1..d")
    n_rows = d - n_a
    dft = u.kind is TransitionKind.DFT
    if dft and n_rows:
        row_sets = [(0,) + rest for rest in combinations(range(1, d), n_rows - 1)]
    else:
        row_sets = list(combinations(range(d), n_rows))
    col_sets = _column_representatives(d, n_b) if dft else combinations(range(d), n_b)
    row_masks = [_mask(rows) for rows in row_sets]
    checks = 0
    for cols in col_sets:
        batch, masks = row_sets, row_masks
        if max_checks is not None:
            left = max(0, max_checks - checks)
            batch, masks = row_sets[:left], row_masks[:left]
        for rows, base in zip(batch, oracle.base_ranks(batch, masks, cols)):
            if base < n_b and _conditions_ii_iii(oracle.rank_of, d, rows, cols, base):
                ok, cert = check_submatrix_conditions(u, rows, cols, engine=oracle.engine)
                if not ok:
                    raise RuntimeError(
                        "search and audit paths disagree on a certifying candidate"
                    )
                return DiagramPoint(
                    n_a=n_a, n_b=n_b, status=PointStatus.PRESENT, certificate=cert
                )
        if len(batch) < len(row_sets):
            return DiagramPoint(
                n_a=n_a,
                n_b=n_b,
                status=PointStatus.UNKNOWN,
                note=f"aborted after {max_checks} candidates",
            )
        checks += len(batch)
    return DiagramPoint(
        n_a=n_a,
        n_b=n_b,
        status=PointStatus.HOLE,
        note=f"exhausted {checks} candidates",
    )


def _mirrored_point(u: TransitionMatrix, engine: str, mirror: DiagramPoint) -> DiagramPoint | None:
    """The DFT point (n_a, n_b) read off its decided mirror (n_b, n_a), or
    None when the point must be searched.

    A mirror Hole gives a Hole.  A mirror certificate (R, C) gives rows
    Z_d - C and columns Z_d - R, kept if they pass the audit a searched
    certificate gets.
    """
    n_a, n_b = mirror.n_b, mirror.n_a
    if mirror.status is PointStatus.HOLE:
        note = f"mirror of ({mirror.n_a}, {mirror.n_b})"
        return DiagramPoint(n_a=n_a, n_b=n_b, status=PointStatus.HOLE, note=note)
    if mirror.status is PointStatus.PRESENT:
        rows = set(range(u.d)) - set(mirror.certificate.cols)
        cols = set(range(u.d)) - set(mirror.certificate.rows)
        ok, cert = check_submatrix_conditions(u, rows, cols, engine=engine)
        if ok:
            return DiagramPoint(n_a=n_a, n_b=n_b, status=PointStatus.PRESENT, certificate=cert)
    return None


def point_exists(
    u: TransitionMatrix,
    n_a: int,
    n_b: int,
    *,
    engine: str = "auto",
    max_checks: int | None = None,
    allow_large: bool = False,
) -> DiagramPoint:
    """Decide one lattice point by searching the row/column selections."""
    eng = _resolve_engine(u.d, u.kind, engine, allow_large)
    return _find_point(u, _RankOracle(u, eng), n_a, n_b, max_checks)


def enumerate_diagram(
    u: TransitionMatrix,
    *,
    engine: str = "auto",
    sym_reduce: bool = False,
    max_checks: int | None = None,
    allow_large: bool = False,
) -> UncertaintyDiagram:
    """Assign Present/Hole (or Unknown under a budget) to every lattice point.

    One rank cache serves the whole run.  A DFT point with n_a > n_b is
    first read off its mirror (n_b, n_a), decided earlier in the loop, and
    searched only if that fails; a mirrored point spends no budget.
    ``sym_reduce`` is ignored, as the DFT search always scans the quotient;
    it stays only because ``perfbench/bench.py`` and
    ``perfbench/tests/test_perfbench.py`` pass ``sym_reduce=False``.
    """
    eng = _resolve_engine(u.d, u.kind, engine, allow_large)
    oracle = _RankOracle(u, eng)
    dft = u.kind is TransitionKind.DFT
    start = time.perf_counter()
    points: dict[tuple[int, int], DiagramPoint] = {}
    for n_a in range(1, u.d + 1):
        for n_b in range(1, u.d + 1):
            mirrored = _mirrored_point(u, eng, points[(n_b, n_a)]) if dft and n_b < n_a else None
            points[(n_a, n_b)] = mirrored or _find_point(u, oracle, n_a, n_b, max_checks)
    elapsed = time.perf_counter() - start
    stats = {
        "rank_requests": oracle.requests,
        "rank_computed": oracle.computed,
    }
    return UncertaintyDiagram(
        d=u.d,
        engine=eng,
        points=points,
        elapsed=elapsed,
        stats=stats,
    )


def is_completely_incompatible(
    u: TransitionMatrix,
    *,
    diagram: UncertaintyDiagram | None = None,
    engine: str = "auto",
) -> bool:
    """True iff the diagram is exactly the half-plane n_a + n_b >= d + 1."""
    diag = diagram if diagram is not None else enumerate_diagram(u, engine=engine)
    if diag.unknown_set():
        raise IndeterminateDiagramError("diagram holds unresolved points")
    return diag.present_set() == predict_corollary1(diag.d).points


def witness_state(
    u: TransitionMatrix,
    point: DiagramPoint,
    seed: int | np.random.Generator | None = None,
    *,
    eps_support: float = DEFAULT_SUPPORT_EPS,
) -> StateVector:
    """Random state realizing a certified Present point's exact profile: the
    one-row case of ``_witness_block``."""
    amps = _witness_block(u, point, 1, np.random.default_rng(seed), eps_support)[0]
    amps.setflags(write=False)
    return StateVector(d=u.d, amps_a=amps, norm=1.0)


def _witness_block(
    u: TransitionMatrix, point: DiagramPoint, count: int, rng: np.random.Generator, eps: float
) -> np.ndarray:
    """``count`` random states realizing a certified Present point's exact
    profile, as rows of A amplitudes.

    Samples the nullspace of the certified submatrix, which holds the states
    with A-support avoiding the certificate rows and B-support inside its
    columns; a generic sample attains both bounds.  Rows that miss the
    profile are redrawn, up to ``_WITNESS_TRIES`` rounds, since the attaining
    set is dense but not all of the subspace.
    """
    if point.status is not PointStatus.PRESENT or point.certificate is None:
        raise ValueError("witness generation needs a Present point with a certificate")
    support = set(range(u.d)) - set(point.certificate.rows)
    try:
        draw = _subspace_sampler(u, support, point.certificate.cols)
    except ValueError as exc:
        raise WitnessSamplingError(f"certified subspace cannot be sampled: {exc}") from exc
    amps = np.empty((count, u.d), dtype=complex)
    todo = np.arange(count)
    for _ in range(_WITNESS_TRIES):
        amps[todo] = draw(rng, todo.size)
        n_a, n_b = _support_masks(amps[todo], u, eps).sum(axis=-1)
        todo = todo[(n_a != point.n_a) | (n_b != point.n_b)]
        if not todo.size:
            return amps
    raise WitnessSamplingError(
        f"no sample hit profile ({point.n_a}, {point.n_b}) in {_WITNESS_TRIES} tries"
    )


# ---------------------------------------------------------------------------
# closed-form predictions checked against enumeration


@dataclass(frozen=True)
class TheoremPrediction:
    """A predicted point set, either existence claims or one exact row.

    ``row`` names the diagram row the prediction is exact on (None for pure
    existence claims).  ``applicable`` is False when the rule is applied
    outside its stated hypotheses and should be treated as heuristic.
    """

    theorem: str
    d: int
    points: frozenset[tuple[int, int]]
    row: int | None = None
    applicable: bool = True
    note: str = ""


def predict_theorem1(d: int) -> TheoremPrediction:
    """Existence claims from periodic row-block constructions.

    For every divisor m of d and every nonzero multiple n of m, the points
    (d - n, n_b) with n/m < n_b <= d/m are achievable, as are the boundary
    families (d, i) and (i, d); the set is closed under coordinate swap.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    pts: set[tuple[int, int]] = set()
    for i in range(1, d + 1):
        pts.add((d, i))
        pts.add((i, d))
    for m in divisors(d):
        for n in range(m, d, m):
            for n_b in range(n // m + 1, d // m + 1):
                pts.add((d - n, n_b))
    pts |= {(b, a) for (a, b) in pts}
    return TheoremPrediction(theorem="T1", d=d, points=frozenset(pts))


def predict_corollary1(d: int) -> TheoremPrediction:
    """Every point on or above the line n_a + n_b = d + 1 is achievable."""
    if d < 1:
        raise ValueError("dimension must be positive")
    pts = frozenset(
        (a, b) for a in range(1, d + 1) for b in range(1, d + 1) if a + b >= d + 1
    )
    return TheoremPrediction(theorem="C1", d=d, points=pts)


def predict_theorem2(d: int) -> TheoremPrediction:
    """The exact Present set on the row n_b = 2.

    (d - n, 2) is achievable iff n = 0 or n divides d with n != d; the rest of
    the row is predicted Hole.
    """
    if d < 2:
        raise ValueError("row-two prediction needs d >= 2")
    n_as = {d} | {d - n for n in divisors(d) if n != d}
    pts = frozenset((a, 2) for a in n_as)
    return TheoremPrediction(theorem="T2", d=d, points=pts, row=2)


def _nontrivial_divisors(d: int) -> list[int]:
    return [m for m in divisors(d) if 1 < m < d]


def predict_theorem3(d: int) -> TheoremPrediction:
    """The Present set on the row n_b = 3, under a divisor hypothesis.

    (d - n, 3) is achievable iff n = 0 or some divisor m of d has 3m <= d and
    n equal to m or 2m.  Stated for d whose nontrivial divisors are all prime;
    for other d the prediction is still emitted with ``applicable`` False and
    is checked empirically.
    """
    if d < 3:
        raise ValueError("row-three prediction needs d >= 3")
    n_as = {d}
    for m in divisors(d):
        if 3 * m <= d:
            n_as.add(d - m)
            n_as.add(d - 2 * m)
    pts = frozenset((a, 3) for a in n_as)
    applicable = all(is_prime(m) for m in _nontrivial_divisors(d))
    note = "" if applicable else "d has a nontrivial nonprime divisor; prediction is heuristic"
    return TheoremPrediction(
        theorem="T3", d=d, points=pts, row=3, applicable=applicable, note=note
    )


# ---------------------------------------------------------------------------
# serialization: JSON schema and CSV rendering


def diagram_to_dict(diag: UncertaintyDiagram) -> dict:
    points = []
    for (n_a, n_b) in sorted(diag.points):
        p = diag.points[(n_a, n_b)]
        if p.status is PointStatus.PRESENT and p.certificate is not None:
            rows = list(p.certificate.rows)
            cols = list(p.certificate.cols)
        else:
            rows = None
            cols = None
        points.append(
            {
                "na": n_a,
                "nb": n_b,
                "status": p.status.value,
                "rows": rows,
                "cols": cols,
            }
        )
    return {"d": diag.d, "engine": diag.engine, "points": points}


def save_diagram(path: str | Path, diag: UncertaintyDiagram) -> None:
    Path(path).write_text(
        json.dumps(diagram_to_dict(diag), indent=2) + "\n", encoding="utf-8"
    )


def load_diagram(path: str | Path) -> UncertaintyDiagram:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    d = int(payload["d"])
    points: dict[tuple[int, int], DiagramPoint] = {}
    for entry in payload["points"]:
        status = PointStatus(entry["status"])
        cert = None
        if status is PointStatus.PRESENT:
            cert = PointCertificate(
                rows=tuple(entry["rows"]), cols=tuple(entry["cols"])
            )
        points[(int(entry["na"]), int(entry["nb"]))] = DiagramPoint(
            n_a=int(entry["na"]), n_b=int(entry["nb"]), status=status, certificate=cert
        )
    return UncertaintyDiagram(d=d, engine=str(payload["engine"]), points=points)


def diagram_to_csv(diag: UncertaintyDiagram) -> str:
    lines = ["na,nb,status"]
    for (n_a, n_b) in sorted(diag.points):
        lines.append(f"{n_a},{n_b},{diag.points[(n_a, n_b)].status.value}")
    return "\n".join(lines) + "\n"
