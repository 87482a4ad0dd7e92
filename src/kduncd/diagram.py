"""Uncertainty-diagram membership by rank-condition search.

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

One function evaluates the three conditions, on the blocks that one
generator lists (``_condition_blocks``).  The search asks it through the
cached rank oracle; the audit of a certifying candidate asks it through a
closure that keeps every rank certificate, so both see the same rank
queries in the same order.  Both rank through one engine dispatch
(``_block_ranks``), which on engine ``both`` compares the engines.

A point is Present with the first certifying candidate, columns outer, or
Hole after every candidate is exhausted; other matrices scan every
selection in lex order.  For the DFT the conditions are unchanged by
R -> aR + s and, separately, by T -> bT + t, for units a, b mod d.  A
shift rescales the columns or rows by unit roots.  A unit multiple maps
U[R, T] = (w^(ij)) to U[aR, T], the image of every entry under the
automorphism w -> w^a of Q(w), and an automorphism keeps every minor's
vanishing, so the rank over Q(w).  So the DFT search scans the least
column set of each orbit under x -> ax + s, by descending stabilizer size,
ties in lex order, and row sets containing 0 in lex order, from one table
per set size; an exhausted quotient rules out every selection.
Below the half-plane n_a + n_b >= d + 1 the Present points are Theorem 1's
cosets, whose column sets many maps fix, and the certificate is the full
scan's first in the same column order (a smaller member of its column orbit
would certify first, and R - min R certifies too).  The half-plane is not
searched: rows {0, ..., d - n_a - 1} and columns {0, ..., n_b - 1} certify
it, as any rows on those columns and, U being symmetric, any columns on
those rows form Vandermonde blocks in distinct nodes, so (i)-(iii) hold
(the paper's Corollary 1).

The DFT diagram is symmetric, as the conjugate DFT maps a state with
profile (a, b) to one with profile (b, a).  So ``enumerate_diagram`` reads
each point with n_a > n_b off its mirror (n_b, n_a), decided earlier
(``_mirrored_point``); such a point's certificate is the complement-swap of
its mirror's, not the closed form or the full scan's first candidate.

The search returns selections unaudited.  Every certificate is then audited
on the run's engine, and one that fails raises; on the exact engine, which
``auto`` picks for the DFT at every d, none can.  ``enumerate_diagram``
audits a row n_a once it is decided, ranking the distinct blocks of all
its certificates in one call, stacked whatever their shapes, since a stack
per point or per block shape is mostly numpy's per-call overhead.

Most candidates fail (i), so the search screens it once per column set:
the rank oracle returns the base rank of every row set on that column set,
and (ii) and (iii) run only on row sets with base rank below n_b, in the
same lex order.  The row sets of one affine class {aR + s} pass or fail
all three conditions together, as x -> ax + s maps the rows outside R onto
those outside aR + s: the screen (``_screen``) holds each class's
lex-first member, and (ii) and (iii) run on those members only.  The first
member of the first certifying class is the lex-first certifying row set,
so the certificate is the full scan's.  The numeric engine ranks the first
member only, and its rank stands for members that are Galois conjugates,
not isometric blocks; the tests compare every member's numeric rank with
its class's on random column sets at d <= 12, and engine ``both`` checks
each computed block against the exact engine.  Requests are still counted
one per row set.  The column sets are screened in chunks of 1, 2, 4, ...
of them, up to ``_SCREEN_ENTRIES`` matrix entries, and the uncached
classes of a chunk are ranked as one stack on every engine; (ii) and
(iii) still run column set by column set, so a chunk moves no
certificate.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .cyclotomic import divisors, is_prime
from .kd import (
    DEFAULT_SUPPORT_EPS, StateVector, TransitionKind, TransitionMatrix, _index, _support_masks
)
from .linalg import (
    DEFAULT_RANK_TOL,
    ENGINE_EXACT,
    ENGINE_NUMERIC,
    RankCertificate,
    _exact_rank_int,
    _pivot_pairs,
    _stack_svd_ranks,
    rank,
)
from .states import _subspace_sampler

__all__ = [
    "DiagramPoint",
    "EngineDisagreementError",
    "ENGINE_BOTH",
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

# The one size limit of every engine; ``allow_large`` lifts it.
NUMERIC_DIMENSION_LIMIT = 12

# Rounds of fresh nullspace samples a witness block draws before it gives up.
_WITNESS_TRIES = 64

# Matrix entries of one chunk of the condition-(i) screen: classes x rows x
# columns x column sets.  A stack per column set is mostly numpy's per-call
# overhead, so the search screens 1, 2, 4, ... column sets at once, up to
# this cap.  Cold d=16 numeric diagrams (3 fresh processes each, 2-core
# x86-64 VM) peak at 38.1-38.2 MB max RSS with this cap, 38.2-38.4 MB with
# 2^14 and 46.3-46.4 MB uncapped, and take 0.33-0.34, 0.32-0.34 and
# 0.34-0.36 s; at d=12 the three peaks lie within 0.1 MB.  Stacks of mixed
# numeric blocks are cut at this cap too, padding included, to bound memory.
_SCREEN_ENTRIES = 1 << 12


class PointStatus(str, Enum):
    PRESENT = "present"
    HOLE = "hole"


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
def _units_and_bits(d: int) -> tuple[np.ndarray, np.ndarray, np.uint64 | int]:
    """The units mod d, shaped to broadcast over sets and members, the bit
    of each x in Z_d, uint64 up to d = 64 and Python ints past it, and the
    mask of Z_d."""
    units = np.flatnonzero(np.gcd(np.arange(d), d) == 1)[:, None, None]
    bit = np.array([1 << x for x in range(d)], dtype=np.uint64 if d <= 64 else object)
    units.flags.writeable = bit.flags.writeable = False  # shared by every caller
    return units, bit, bit.sum()


def _affine_keys(d: int, sets) -> np.ndarray:
    """Least bitmask over the orbit of each of ``sets``, k-subsets of Z_d,
    under x -> ax + s for units a mod d: one key per orbit.

    The least rotation of a nonempty set holds 0 (else one step down would
    halve it), so each image aX is rotated by its own members only, in
    chunks of sets of at most 2^14 rotations in all, so no temporary
    outgrows 128 KB.
    """
    units, bit, full = _units_and_bits(d)
    sets = np.array(sets, dtype=np.intp)
    if not sets.size:
        return np.zeros(len(sets), bit.dtype)
    step = max(1, (1 << 14) // (units.size * sets.shape[1]))
    keys = []
    for start in range(0, len(sets), step):
        images = units * sets[start : start + step] % d
        masks = bit[images].sum(axis=-1, keepdims=True)
        shifts = images.astype(bit.dtype)
        keys.append(((masks >> shifts | masks << (d - shifts)) & full).min(axis=(0, 2)))
    return np.concatenate(keys)


class _Screen(NamedTuple):
    """Classes of the index sets a search walks, in walking order: each
    class's lex-first member, its key, how many sets the classes stand for
    and, for DFT rows, each class's members through 0.  The DFT classes are
    affine orbits, keyed by ``_affine_keys``; on another matrix each set is
    its own class, keyed by its mask."""

    firsts: list[tuple[int, ...]]
    keys: list[int]
    size: int
    through_0: np.ndarray | None = None


@lru_cache(maxsize=None)
def _screen(d: int, n_rows: int, dft: bool) -> _Screen:
    """The row sets a search screens on each column set.  The DFT screens the
    row sets through 0, in affine classes in order of first member, a table
    ``_column_orbits`` reorders for the columns; another matrix, every set."""
    if not dft:
        row_sets = list(combinations(range(d), n_rows))
        return _Screen(row_sets, [_mask(rows) for rows in row_sets], len(row_sets))
    row_sets = [(0,) + rest for rest in combinations(range(1, d), n_rows - 1)]
    keys = _affine_keys(d, row_sets)
    _, firsts, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.lexsort((firsts,))
    firsts, counts = firsts[order], counts[order]
    return _Screen([row_sets[i] for i in firsts], keys[firsts].tolist(), len(row_sets), counts)


class _RankOracle:
    """Memoized rank queries for submatrices of one transition matrix.

    The cache key packs a row key and a column key into one int.  On
    another matrix they are the bitmasks.  On the DFT each is the least
    bitmask over its set's orbit under x -> ax + s, a a unit mod d
    (``_affine_keys``), and the pair is put in order: a shift rescales the
    other side by unit roots, multiplying the rows or the columns by a
    applies the automorphism w -> w^a of Q(w) to every entry, and U is
    symmetric, so all blocks with one key share one rank over Q(w).  The
    numeric engine ranks one block per key and reuses that rank for the
    others, though a Galois conjugate is not an isometric block: the tests
    check every member of the screened classes on random column sets on
    both engines at d <= 12, and engine ``both`` compares the engines on
    every block it computes.  Each oracle memoizes the key of each mask it
    meets, for ``rank_of``.

    ``base_ranks`` answers a chunk of column sets against a ``_Screen``'s
    classes: it keys and reads the cache once per class and column set and
    computes the distinct keys it lacks as one stack, on every engine.  It
    counts one request per row set, not per class:
    ``perfbench/tests/test_perfbench.py`` asserts more requests than
    computed ranks at d=5, where the class counts tie.
    ``rank_of`` reads the cache directly, for the single blocks of
    conditions (ii) and (iii).  Both compute through ``_block_ranks``.
    """

    def __init__(self, u: TransitionMatrix, engine: str) -> None:
        self.d = u.d
        self.engine = engine
        self.requests = 0
        self.computed = 0
        self._ranks: dict[int, int] = {}
        self._set_keys: dict[int, int] = {}
        self._dft = u.kind is TransitionKind.DFT
        self._u = u

    def _set_key(self, indices: tuple[int, ...]) -> int:
        """Key of a row or column set, as ``_screen``'s table makes it."""
        mask = _mask(indices)
        if not self._dft:
            return mask
        key = self._set_keys.get(mask)
        if key is None:
            key = self._set_keys[mask] = int(_affine_keys(self.d, [indices])[0])
        return key

    def _key(self, row_key: int, col_key: int) -> int:
        """Cache key of a block from its row and column keys, the pair put in
        order on the DFT."""
        if self._dft and col_key < row_key:
            return col_key << self.d | row_key
        return row_key << self.d | col_key

    def rank_of(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
        key = self._key(self._set_key(rows), self._set_key(cols))
        self.requests += 1
        found = self._ranks.get(key)
        if found is None:
            self.computed += 1
            found = self._ranks[key] = _block_ranks(self._u, self.engine, [(rows, cols)])[0][0]
        return found

    def base_ranks(self, screen: _Screen, col_sets, col_keys) -> list[np.ndarray]:
        """Rank on each column set, keyed by ``col_keys``, of each of the
        screen's classes, in order, one request per row set and column set.
        The keys not cached yet are ranked as one stack, each on its class's
        first member and the first column set that needs it."""
        key = self._key
        keys = [[key(row_key, col_key) for row_key in screen.keys] for col_key in col_keys]
        self.requests += screen.size * len(col_sets)
        ranks = self._ranks
        todo: dict[int, tuple] = {}
        for cols, row in zip(col_sets, keys):
            for key, rows in zip(row, screen.firsts):
                if key not in ranks:
                    todo.setdefault(key, (rows, cols))
        if todo:
            self.computed += len(todo)
            ranks.update(zip(todo, _block_ranks(self._u, self.engine, list(todo.values()))[0]))
        return [np.array([ranks[key] for key in row]) for row in keys]


def _block_ranks(u: TransitionMatrix, eng: str, blocks) -> tuple[list[int], np.ndarray | None]:
    """Rank on engine ``eng`` of each (rows, cols) block of ``u``, with each
    block's exact pivot row per column, or None on ``numeric`` and for a lone
    exact block.  Engine ``both`` keeps the exact ranks, after raising on
    the first block, in order, whose numeric rank differs."""
    if eng == ENGINE_NUMERIC:
        return _numeric_block_ranks(u.numeric, *zip(*blocks)), None
    if eng == ENGINE_EXACT and len(blocks) == 1:
        # perfbench/tests/test_perfbench.py asserts that an exact search calls rank()
        return [rank(_dft_block(u.d, *blocks[0]), order=u.d).rank], None
    ranks, pivots = _exact_block_ranks(u.d, blocks)
    if eng == ENGINE_BOTH:
        numeric = _numeric_block_ranks(u.numeric, *zip(*blocks))
        for (rows, cols), r, rn in zip(blocks, ranks, numeric):
            if r != rn:
                raise EngineDisagreementError(rows, cols, r, rn)
    return ranks, pivots


def _padded(sets) -> np.ndarray:
    """Index tuples as the rows of one intp array, each padded with -1."""
    width = max(map(len, sets))
    return np.array([s + (-1,) * (width - len(s)) for s in sets], dtype=np.intp)


def _exact_block_ranks(d: int, blocks) -> tuple[list[int], np.ndarray]:
    """Certified ranks of DFT blocks (rows, cols) as one padded stack, with
    each block's pivot row per column."""
    rows, cols = map(_padded, zip(*blocks))
    live = (rows >= 0)[:, :, None, None] & (cols >= 0)[:, None, :, None]
    # A minor has at most k rows of k unimodular entries, so Hadamard's
    # bound caps it at k^(k/2) in every embedding.
    k = min(rows.shape[1], cols.shape[1])
    exps = (rows[:, :, None] * cols[:, None, :] % d)[..., None]
    ranks, pivots = _exact_rank_int(exps, live, d, k**k)
    return ranks.tolist(), pivots


def _numeric_block_ranks(numeric: np.ndarray, row_sets, col_sets) -> list[int]:
    """Numeric ranks of (rows, cols) blocks of any shapes, each certified full
    rank or else SVD'd at its own shape (``_stack_svd_ranks``).  Mixed shapes
    are stacked short side first, zero-padded, ``_SCREEN_ENTRIES`` a stack."""
    if len(set(map(len, row_sets))) == len(set(map(len, col_sets))) == 1:  # one shape
        rows = np.array(row_sets, dtype=np.intp)[:, :, None]
        return _stack_svd_ranks(numeric[rows, np.array(col_sets, dtype=np.intp)[:, None, :]])
    sides = np.zeros((2, len(numeric) + 1, len(numeric) + 1), dtype=numeric.dtype)
    sides[:, :-1, :-1] = numeric, numeric.T  # index -1 reads 0; the transpose for tall blocks
    blocks = [(r, c, 0) if len(r) <= len(c) else (c, r, 1) for r, c in zip(row_sets, col_sets)]
    short, long, side = zip(*blocks)
    short, long, side = _padded(short), _padded(long), np.array(side, dtype=np.intp)
    shapes = [(len(r), len(c)) for r, c in zip(row_sets, col_sets)]
    step, ranks = max(1, _SCREEN_ENTRIES // max(1, short.shape[1] * long.shape[1])), []
    for start in range(0, len(blocks), step):
        part = slice(start, start + step)
        stack = sides[side[part, None, None], short[part, :, None], long[part, None, :]]
        ranks += _stack_svd_ranks(stack, shapes[part])
    return ranks


def _resolve_engine(d: int, kind: TransitionKind, engine: str, allow_large: bool) -> str:
    """The engine a search on a d x d matrix of this kind runs on.

    Raises ValueError past the one size limit, unless ``allow_large``.  It
    takes no matrix, so a caller can refuse d before building the d x d matrix.
    """
    if engine == "auto":
        engine = ENGINE_EXACT if kind is TransitionKind.DFT else ENGINE_NUMERIC
    if engine not in (ENGINE_EXACT, ENGINE_NUMERIC, ENGINE_BOTH):
        raise ValueError(f"unknown engine {engine!r}")
    if engine != ENGINE_NUMERIC and kind is not TransitionKind.DFT:
        raise ValueError("exact engine requires the DFT transition matrix")
    if d > NUMERIC_DIMENSION_LIMIT and not allow_large:
        raise ValueError(f"enumeration is limited to d <= {NUMERIC_DIMENSION_LIMIT} by default")
    return engine


# ---------------------------------------------------------------------------
# the three rank conditions


def _condition_blocks(d: int, rows: tuple[int, ...], cols: tuple[int, ...]):
    """The (rows, cols) blocks conditions (ii) and (iii) read, in order: each
    outside row inserted in sorted order, whose rank must rise by one, then
    each column dropped, whose rank must stay."""
    below = 0  # how many of ``rows`` lie below k
    for k in range(d):
        if below < len(rows) and rows[below] == k:
            below += 1
        else:
            yield rows[:below] + (k,) + rows[below:], cols
    for i in range(len(cols)):
        yield rows, cols[:i] + cols[i + 1 :]


def _conditions_hold(
    rank_of: Callable[[tuple[int, ...], tuple[int, ...]], int],
    d: int,
    rows: tuple[int, ...],
    cols: tuple[int, ...],
) -> bool:
    """Conditions (i)-(iii) for sorted ``rows`` and ``cols``.

    ``rank_of`` is asked for the base rank, then for each block of
    ``_condition_blocks`` in order, stopping at the first failure.
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
    """Conditions (ii) and (iii) given the base rank, which (i) bounds: each
    block of ``_condition_blocks`` ranks ``base`` plus its rows added."""
    blocks = _condition_blocks(d, rows, cols)
    return all(rank_of(r, c) == base + len(r) - len(rows) for r, c in blocks)


def check_submatrix_conditions(
    u: TransitionMatrix,
    rows,
    cols,
    *,
    engine: str = "auto",
) -> tuple[bool, PointCertificate]:
    """Audited evaluation of the three rank conditions for one candidate.

    Returns the verdict together with the certificates read in the order of
    ``_conditions_hold``, the base block then ``_condition_blocks``, so on
    failure they stop at the first violated condition.  ``rows`` may be
    empty, which encodes the full-A-support case.  The audit is
    ``_audit``'s one-selection case.
    """
    d = u.d
    rows = tuple(sorted(map(_index, rows)))
    cols = tuple(sorted(map(_index, cols)))
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("duplicate indices")
    if rows and (rows[0] < 0 or rows[-1] >= d):
        raise ValueError("row index out of range")
    if not cols or cols[0] < 0 or cols[-1] >= d:
        raise ValueError("column selection must be a nonempty subset of the index range")
    return _audit(u, _resolve_engine(d, u.kind, engine, allow_large=True), [(rows, cols)])[0]


def _audit(
    u: TransitionMatrix, eng: str, selections: list, stats: dict | None = None
) -> list[tuple[bool, PointCertificate]]:
    """``check_submatrix_conditions`` for each sorted (rows, cols) selection.

    Ranks every distinct block the audits may read once, in one
    ``_block_ranks`` call, counted in ``stats["audit_blocks"]`` if given;
    engine ``both`` keeps the exact certificates.
    """
    d = u.d
    first_use: dict = {}  # the distinct blocks, in order of first use
    for rows, cols in selections:
        first_use[rows, cols] = None
        first_use.update(dict.fromkeys(_condition_blocks(d, rows, cols)))
    blocks = list(first_use)
    if stats is not None:
        stats["audit_blocks"] += len(blocks)
    ranks, pivots = _block_ranks(u, eng, blocks)
    if eng == ENGINE_NUMERIC:
        shared = {r: RankCertificate(r, ENGINE_NUMERIC, (), DEFAULT_RANK_TOL) for r in set(ranks)}
        found = [shared[r] for r in ranks]
    else:
        pairs = map(_pivot_pairs, pivots)
        found = [RankCertificate(r, ENGINE_EXACT, pv, 0.0) for r, pv in zip(ranks, pairs)]
    table = dict(zip(blocks, found))

    def audit(rows, cols) -> tuple[bool, PointCertificate]:
        certs: list[RankCertificate] = []

        def rank_of(r, c) -> int:
            certs.append(table[r, c])
            return certs[-1].rank

        ok = _conditions_hold(rank_of, d, rows, cols)
        added = tuple(zip((k for k in range(d) if k not in rows), certs[1:]))
        removed = tuple(zip(cols, certs[1 + d - len(rows) :]))
        return ok, PointCertificate(rows, cols, certs[0], added, removed)

    return [audit(rows, cols) for rows, cols in selections]


# ---------------------------------------------------------------------------
# point search and diagram enumeration


@lru_cache(maxsize=None)
def _column_orbits(d: int, size: int) -> _Screen:
    """The orbits of ``size``-subsets of Z_d under x -> ax + s, each led by its
    lex-first member and keyed by ``_affine_keys``, in the DFT search's
    order: by descending number of maps that fix it, |maps| / |orbit|, then
    lex.  ``_screen``'s table, reordered: an orbit's lex-first member holds 0
    (shift it by -min), and |orbit| * size / d of its members do, as shifts
    keep the orbit, so a stable sort by that count keeps ties in lex order."""
    if not size:
        return _Screen([()], [0], 1)
    classes = _screen(d, size, True)
    order = np.lexsort((classes.through_0,))
    firsts, keys = [classes.firsts[i] for i in order], [classes.keys[i] for i in order]
    return _Screen(firsts, keys, classes.size * d // size)  # C(d, size) sets


def _find_point(u: TransitionMatrix, oracle: _RankOracle, n_a: int, n_b: int) -> DiagramPoint:
    """Present with the first certifying candidate, columns outer, or Hole.
    A DFT point in the half-plane (n_a + n_b > d) is Present with rows
    range(d - n_a) by columns range(n_b) (any rows on those columns, or columns
    on those rows, span full-rank Vandermonde blocks), unsearched.  DFT
    column sets run in ``_column_orbits`` order, others in lex, screened for
    (i) in chunks of 1, 2, 4, ... column sets up to ``_SCREEN_ENTRIES``
    matrix entries, never fewer than one.  A Present certificate holds the
    selection only; ``_audited`` audits it."""
    d, n_a, n_b = u.d, _index(n_a), _index(n_b)
    if not (1 <= n_a <= d and 1 <= n_b <= d):
        raise ValueError("point coordinates must lie in 1..d")
    n_rows = d - n_a
    dft = u.kind is TransitionKind.DFT
    if dft and n_a + n_b > d:
        rows, cols = tuple(range(n_rows)), tuple(range(n_b))
        return DiagramPoint(n_a, n_b, PointStatus.PRESENT, PointCertificate(rows, cols))
    screen = _screen(d, n_rows, dft)
    columns = _column_orbits(d, n_b) if dft else _screen(d, n_b, False)
    col_sets = columns.firsts
    cap = max(1, _SCREEN_ENTRIES // max(1, len(screen.keys) * n_rows * n_b))
    start, size = 0, 1
    while start < len(col_sets):
        chunk = col_sets[start : start + size]
        ranks_of_chunk = oracle.base_ranks(screen, chunk, columns.keys[start : start + size])
        for cols, ranks in zip(chunk, ranks_of_chunk):
            for i in np.flatnonzero(ranks < n_b):
                rows = screen.firsts[i]
                if _conditions_ii_iii(oracle.rank_of, d, rows, cols, int(ranks[i])):
                    return DiagramPoint(n_a, n_b, PointStatus.PRESENT, PointCertificate(rows, cols))
        start += len(chunk)
        size = min(2 * size, cap)
    note = f"exhausted {len(col_sets) * screen.size} candidates"
    return DiagramPoint(n_a=n_a, n_b=n_b, status=PointStatus.HOLE, note=note)


def _mirrored_point(d: int, mirror: DiagramPoint) -> DiagramPoint:
    """The DFT point (n_a, n_b) read off its decided mirror (n_b, n_a): a Hole
    for a mirror Hole, else Present with rows Z_d - C and columns Z_d - R for
    the mirror's certificate (R, C), unaudited as a searched selection is."""
    n_a, n_b = mirror.n_b, mirror.n_a
    if mirror.status is PointStatus.HOLE:
        note = f"mirror of ({mirror.n_a}, {mirror.n_b})"
        return DiagramPoint(n_a=n_a, n_b=n_b, status=PointStatus.HOLE, note=note)
    rows = tuple(x for x in range(d) if x not in mirror.certificate.cols)
    cols = tuple(x for x in range(d) if x not in mirror.certificate.rows)
    return DiagramPoint(n_a, n_b, PointStatus.PRESENT, PointCertificate(rows, cols))


def _audited(
    u: TransitionMatrix, engine: str, points, stats: dict | None = None
) -> dict[tuple[int, int], DiagramPoint]:
    """``points`` by (n_a, n_b), each Present selection replaced by its audited
    certificate; one ``_audit`` batch, counted in ``stats``, none without a
    Present point.  Raises on the first selection, in order, that fails."""
    out = {(p.n_a, p.n_b): p for p in points}
    present = [p for p in points if p.status is PointStatus.PRESENT]
    selections = [(p.certificate.rows, p.certificate.cols) for p in present]
    for p, (ok, cert) in zip(present, _audit(u, engine, selections, stats) if present else ()):
        if not ok:
            point = f"({p.n_a}, {p.n_b})"
            raise RuntimeError(f"{point} fails the {engine} audit: {cert.rows} x {cert.cols}")
        out[p.n_a, p.n_b] = replace(p, certificate=cert)
    return out


def point_exists(
    u: TransitionMatrix,
    n_a: int,
    n_b: int,
    *,
    engine: str = "auto",
    allow_large: bool = False,
) -> DiagramPoint:
    """Decide one lattice point as ``enumerate_diagram`` does, mirrors aside."""
    eng = _resolve_engine(u.d, u.kind, engine, allow_large)
    return _audited(u, eng, [_find_point(u, _RankOracle(u, eng), n_a, n_b)])[n_a, n_b]


def enumerate_diagram(
    u: TransitionMatrix,
    *,
    engine: str = "auto",
    sym_reduce: bool = False,
    allow_large: bool = False,
) -> UncertaintyDiagram:
    """Assign Present or Hole to every lattice point.

    One rank cache serves the whole run.  A DFT point with n_a > n_b is
    read off its mirror (n_b, n_a), decided and audited in an earlier row.
    Once a row n_a is decided, its Present certificates are audited as one
    rank stack; a stack per diagram would hold all its blocks in memory.
    ``stats`` adds ``audit_blocks``, the distinct blocks the row audits ranked.
    ``sym_reduce`` is ignored, as the DFT search always scans the quotient;
    it stays only because ``perfbench/bench.py`` and
    ``perfbench/tests/test_perfbench.py`` pass ``sym_reduce=False``.
    """
    eng = _resolve_engine(u.d, u.kind, engine, allow_large)
    oracle = _RankOracle(u, eng)
    dft = u.kind is TransitionKind.DFT
    start = time.perf_counter()
    points: dict[tuple[int, int], DiagramPoint] = {}
    stats = {"rank_requests": 0, "rank_computed": 0, "audit_blocks": 0}
    for n_a in range(1, u.d + 1):
        mirrored = [_mirrored_point(u.d, points[(b, n_a)]) for b in range(1, n_a if dft else 1)]
        searched = [_find_point(u, oracle, n_a, b) for b in range(len(mirrored) + 1, u.d + 1)]
        points.update(_audited(u, eng, mirrored + searched, stats))
    elapsed = time.perf_counter() - start
    stats.update(rank_requests=oracle.requests, rank_computed=oracle.computed)
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
) -> bool:
    """True iff the diagram is exactly the half-plane n_a + n_b >= d + 1."""
    diag = diagram if diagram is not None else enumerate_diagram(u)
    return diag.present_set() == predict_corollary1(diag.d).points


def witness_state(
    u: TransitionMatrix,
    point: DiagramPoint,
    seed: int | np.random.Generator | None = None,
) -> StateVector:
    """Random state realizing a certified Present point's exact profile: the
    one-row case of ``_witness_block``."""
    amps = _witness_block(u, point, 1, np.random.default_rng(seed))[0]
    amps.setflags(write=False)
    return StateVector(d=u.d, amps_a=amps, norm=1.0)


def _witness_block(
    u: TransitionMatrix, point: DiagramPoint, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` random states realizing a certified Present point's exact
    profile at the default support threshold, as rows of A amplitudes.

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
        n_a, n_b = _support_masks(amps[todo], u, DEFAULT_SUPPORT_EPS).sum(axis=-1)
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
    applicable = all(is_prime(m) for m in divisors(d) if 1 < m < d)
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
