"""Matrix ranks by an exact and a numeric engine.

The exact engine computes ranks of matrices over Z[w], w = exp(2*pi*i/d),
each entry a list of (exponent, integer coefficient) terms, by
elimination modulo primes p = 1 (mod d).  Such a p has a primitive d-th
root of unity w_p, and sending w^k to w_p^k is a ring map from Z[w] onto
the integers mod p, so a minor that vanishes over Q(w) vanishes mod p and
the rank mod p never exceeds the true rank.  A nonzero minor D vanishes mod
p only when the prime ideal (p, w - w_p), of norm p, divides it, so the
primes that miss D multiply to at most |N(D)|.  Hadamard's bound in each of
the phi(d) complex embeddings gives |N(D)| <= B^phi(d), with B the product
of the row norms (k^(k/2) for a DFT block with k = min(rows, cols)).
Primes are therefore taken in a fixed order until one reaches full rank,
which no prime can overshoot, or their product exceeds B^phi(d).  The rank
is the largest seen; the pivots, the first nonzero row of each column, are
those of the prime that reached it.  The numeric engine counts singular
values against a spectral-norm-relative threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .cyclotomic import cyclotomic_polynomial, divisors, is_prime

__all__ = [
    "RankCertificate",
    "DEFAULT_RANK_TOL",
    "ENGINE_EXACT",
    "ENGINE_NUMERIC",
    "nullspace_basis",
    "rank",
    "svd_rank",
]

ENGINE_EXACT = "exact"
ENGINE_NUMERIC = "numeric"

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class RankCertificate:
    """Rank value plus the audit data that produced it.

    ``pivots`` lists one (row, col) position per rank step in the original
    indexing.  ``tolerance`` is the relative singular-value threshold for the
    numeric engine and exactly 0 for the exact engine.
    """

    rank: int
    engine: str
    pivots: tuple[tuple[int, int], ...]
    tolerance: float

    def __post_init__(self) -> None:
        if len(self.pivots) != self.rank:
            raise ValueError("pivot list length must equal the rank")


# ---------------------------------------------------------------------------
# exact engine: certified multi-modular rank

_MODULUS_CEILING = 1 << 62


@lru_cache(maxsize=None)
def _modulus(d: int, index: int) -> tuple[int, tuple[int, ...]]:
    """The index-th prime p = 1 (mod d) below 2^62, counting down, with the
    powers w^0, ..., w^(d-1) of a primitive d-th root of unity w modulo p."""
    if index:
        p = _modulus(d, index - 1)[0] - d
    else:
        p = _MODULUS_CEILING - (_MODULUS_CEILING - 1) % d
    while not is_prime(p):
        p -= d
    factors = [q for q in divisors(d) if is_prime(q)]
    g = 2
    while True:
        w = pow(g, (p - 1) // d, p)
        if all(pow(w, d // q, p) != 1 for q in factors):
            break
        g += 1
    return p, tuple(pow(w, e, p) for e in range(d))


def _exact_rank_int(
    entries: Sequence[Sequence[Sequence[tuple[int, int]]]], d: int, bound_sq: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Rank over Q(w), w = exp(2*pi*i/d), of a matrix with entries in Z[w].

    ``entries[i][j]`` lists the (exponent, integer coefficient) terms of one
    entry.  ``bound_sq`` is the square of a bound on the modulus of every
    minor under every complex embedding.  Elimination runs modulo primes
    p = 1 (mod d), pivoting on the first nonzero row of each column, until a
    prime reaches full rank or the product of the primes exceeds
    sqrt(bound_sq)^phi(d); the pivots are those of the prime with the
    largest rank.
    """
    nrows = len(entries)
    ncols = len(entries[0]) if nrows else 0
    full = min(nrows, ncols)
    if full == 0:
        return 0, ()
    limit = bound_sq ** cyclotomic_polynomial(d).degree
    best: tuple[int, tuple[tuple[int, int], ...]] = (-1, ())
    product = 1
    index = 0
    while True:
        p, powers = _modulus(d, index)
        index += 1
        work = [[sum(c * powers[e] for e, c in entry) % p for entry in row] for row in entries]
        orig = list(range(nrows))
        pivots: list[tuple[int, int]] = []
        r = 0
        for col in range(ncols):
            at = next((i for i in range(r, nrows) if work[i][col]), -1)
            if at < 0:
                continue
            work[r], work[at] = work[at], work[r]
            orig[r], orig[at] = orig[at], orig[r]
            pivots.append((orig[r], col))
            inv = pow(work[r][col], -1, p)
            top = [v * inv % p for v in work[r][col + 1 :]]
            for row in work[r + 1 :]:
                f = row[col]
                if f:
                    row[col + 1 :] = [(v - f * t) % p for v, t in zip(row[col + 1 :], top)]
            r += 1
            if r == full:
                break
        if r > best[0]:
            best = (r, tuple(pivots))
        product *= p
        if r == full or product * product > limit:
            return best


# ---------------------------------------------------------------------------
# numeric engine internals


def svd_rank(s: np.ndarray, n: int):
    """Count the singular values above ``DEFAULT_RANK_TOL * s_max * n`` along
    the last axis.

    This is the package's one numeric rank threshold.  ``s`` holds one
    matrix's singular values in descending order, or a stack of them; ``n``
    is the larger matrix dimension.
    """
    top = s[0] if s.ndim == 1 else s[..., 0, None]
    return (s > DEFAULT_RANK_TOL * top * n).sum(axis=-1)


def _numeric_rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    return int(svd_rank(np.linalg.svd(a, compute_uv=False), max(a.shape)))


def _numeric_pivots(a: np.ndarray, rank_val: int) -> tuple[tuple[int, int], ...]:
    """Full-pivot elimination audit trail: ``rank_val`` structurally
    independent positions, scanned deterministically (first strict maximum)."""
    if rank_val == 0:
        return ()
    work = np.array(a, dtype=complex)
    nrows, ncols = work.shape
    row_free = [True] * nrows
    col_free = [True] * ncols
    pivots: list[tuple[int, int]] = []
    for _ in range(rank_val):
        best = -1.0
        bi = bj = -1
        for i in range(nrows):
            if not row_free[i]:
                continue
            for j in range(ncols):
                if col_free[j] and abs(work[i, j]) > best:
                    best = abs(work[i, j])
                    bi, bj = i, j
        pivots.append((bi, bj))
        row_free[bi] = False
        col_free[bj] = False
        pe = work[bi, bj]
        for i in range(nrows):
            if row_free[i] and work[i, bj] != 0:
                work[i, :] -= (work[i, bj] / pe) * work[bi, :]
    return tuple(pivots)


def rank(a, *, order: int | None = None) -> RankCertificate:
    """Rank with an audit certificate.

    Without ``order``, ``a`` is a complex array and the numeric engine counts
    its singular values.  With ``order=d``, ``a`` is a matrix over Z[w],
    w = exp(2*pi*i/d), whose entries list (exponent, integer coefficient)
    terms, and the exact engine certifies its rank.
    """
    if order is not None:
        # An entry's modulus is at most the l1 norm of its coefficients in
        # every embedding, so the row norms bound every minor.
        bound_sq = 1
        for row in a:
            bound_sq *= max(1, sum(sum(abs(c) for _, c in t) ** 2 for t in row))
        r, pivots = _exact_rank_int(a, order, bound_sq)
        return RankCertificate(r, ENGINE_EXACT, pivots, 0.0)
    r = _numeric_rank(a)
    return RankCertificate(r, ENGINE_NUMERIC, _numeric_pivots(a, r), DEFAULT_RANK_TOL)


def nullspace_basis(a: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the right nullspace of a complex array.

    A matrix with no rows constrains nothing, so the basis is the full
    coordinate space.
    """
    ncols = a.shape[1]
    if ncols == 0:
        return []
    if a.shape[0] == 0:
        return [np.eye(ncols, dtype=complex)[:, k] for k in range(ncols)]
    _, s, vh = np.linalg.svd(a)
    return [vh[k].conj() for k in range(svd_rank(s, max(a.shape)), ncols)]
