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
is the largest seen; the pivots are those of the prime that reached it.

One numpy kernel eliminates a whole stack of blocks.  The primes lie below
2^31, so a product of two residues fits in int64.  A column's pivot is the
first row not used yet that is nonzero there, and every row r becomes
r * pivot - r[col] * top mod p, which needs no modular inverse.  A prime
after the first runs only on the blocks still short of full rank, and
``rank(a, order=d)`` is the one-block case.  The numeric engine counts
singular values against a spectral-norm-relative threshold; its
certificate carries that rank and threshold only, while an exact one
carries the pivots of a nonzero minor.  In a stack of numeric blocks, a
block skips the SVD when the Cholesky factorization of its shifted Gram
matrix shows it full rank with sigma_min about 1e-4 * sigma_max or more,
far above the threshold; one batched factorization tries every block, and
the blocks it fails on are SVD'd one stack per shape (``_stack_svd_ranks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

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

    An exact certificate lists in ``pivots`` one (row, col) position per rank
    step, in the original indexing: the rows and columns of a nonzero minor.
    A numeric certificate has no pivots; it carries the rank and, in
    ``tolerance``, the relative singular-value threshold it was counted
    against.  ``tolerance`` is exactly 0 for the exact engine.
    """

    rank: int
    engine: str
    pivots: tuple[tuple[int, int], ...]
    tolerance: float

    def __post_init__(self) -> None:
        want = self.rank if self.engine == ENGINE_EXACT else 0
        if len(self.pivots) != want:
            raise ValueError("exact certificates have one pivot per rank step, numeric ones none")


# ---------------------------------------------------------------------------
# exact engine: certified multi-modular rank

_MODULUS_CEILING = 1 << 31


@lru_cache(maxsize=None)
def _modulus(d: int, index: int) -> tuple[int, np.ndarray]:
    """The index-th prime p = 1 (mod d) below 2^31, counting down, with the
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
    powers = np.array([pow(w, e, p) for e in range(d)], dtype=np.int64)
    powers.setflags(write=False)  # cached: every caller shares it
    return p, powers


def _pivot_rows(a: np.ndarray, p: int) -> np.ndarray:
    """Pivot row of each column of a stack of matrices mod p, -1 where a
    column has none.  The update zeroes the pivot row itself, so no later
    column picks it again; a column with no pivot scales the rows by 1."""
    n, _, ncols = a.shape
    every = np.arange(n)
    rows = np.empty((n, ncols), dtype=np.intp)
    heads = np.empty((n, ncols), dtype=np.int64)
    for col in range(ncols):
        f = a[:, :, col, None]
        rows[:, col] = at = (f[:, :, 0] != 0).argmax(axis=1)
        top = a[every, None, at, col:]
        heads[:, col] = pivot = top[:, 0, 0]
        scale = (pivot + (pivot == 0))[:, None, None]
        a[:, :, col + 1 :] = (a[:, :, col + 1 :] * scale - f * top[:, :, 1:]) % p
    return np.where(heads != 0, rows, -1)


def _exact_rank_int(
    exps: np.ndarray, coefs: np.ndarray, d: int, bound_sq: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ranks over Q(w), w = exp(2*pi*i/d), of a stack of matrices over Z[w],
    with the pivot row of each column (-1 for none).

    Entry (i, j) of block b is the sum over t of
    ``coefs[b, i, j, t] * w ** exps[b, i, j, t]``; smaller blocks are padded
    with zero coefficients.  ``bound_sq`` is the square of a bound on the
    modulus of every minor under every complex embedding.  Full rank is
    min(rows, cols) over the rows and columns with a nonzero coefficient.
    The primes stop once their product exceeds sqrt(bound_sq)^phi(d).
    """
    limit = bound_sq ** cyclotomic_polynomial(d).degree
    nonzero = (coefs != 0).any(axis=-1)
    full = np.minimum(nonzero.any(axis=2).sum(axis=1), nonzero.any(axis=1).sum(axis=1))
    ranks = np.zeros_like(full)
    pivots = np.full((len(full), nonzero.shape[2]), -1)
    todo = np.flatnonzero(full)
    product, index = 1, 0
    while todo.size:
        p, powers = _modulus(d, index)
        index += 1
        residues = (coefs[todo] % p * powers[exps[todo]] % p).sum(axis=-1) % p
        found = _pivot_rows(np.asarray(residues, dtype=np.int64), p)
        got = (found >= 0).sum(axis=1)
        better = got > ranks[todo]
        ranks[todo[better]] = got[better]
        pivots[todo[better]] = found[better]
        product *= p
        if product * product > limit:
            break
        todo = todo[got < full[todo]]
    return ranks, pivots


def _pivot_pairs(pivots: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(row, col) positions of one block's pivot rows, column by column."""
    return tuple((int(i), j) for j, i in enumerate(pivots.tolist()) if i >= 0)


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


def _stack_svd_ranks(stack: np.ndarray, shapes=None) -> list[int]:
    """``svd_rank`` of each block of a stack of complex blocks, as a list.

    Block i, of ``shapes[i]`` = (rows, cols), lies short side first in the
    top-left corner of ``stack[i]``, zero elsewhere; by default every block
    has the stack's shape and orientation.

    In a stack of two or more blocks each block is first certified full
    rank without an SVD (for one block that saves nothing).  Each block A
    (r x c, k = min(r, c), m = max(r, c)) gives its k x k Gram matrix G on
    the short side, and one batched Cholesky factorization of the stack of
    G - delta * I, delta = 1e-8 * trace(G), 1 on the padded diagonal, either
    succeeds on a block, which then has rank k, or fills that block with
    NaN.  The blocks it failed on are SVD'd by shape, each in its own
    orientation.  ``np.linalg.cholesky`` is the same gufunc, raising on any
    failure instead.

    Success is a proof.  With u = 2^-53 and g(j) = j * u / (1 - j * u), the
    computed G is within g(m + 2) * |A|_F^2 of the exact one in the 2-norm
    (complex inner products of length m), and a completed factorization is
    the exact one of a matrix within g(k + 2) * trace(G) of the one
    factored.  That matrix is positive definite, so by Weyl's inequality
    sigma_min(A)^2 >= (1e-8 - g(k + m + 5)) * |A|_F^2, and |A|_F >=
    sigma_max(A).  Below 10^4 rows and columns this gives sigma_min >=
    0.99e-4 * sigma_max, at least 99 times ``svd_rank``'s threshold
    1e-10 * m * sigma_max plus the SVD's own rounding of a few
    m * u * sigma_max, so the SVD would count all k singular values.  An
    all-zero block fails the factorization.  Off its block the factored
    matrix is I, so the factorization is block diagonal, L21 = 0 exactly, and
    the bounds hold with the stack's padded sides K and M in place of k and m.
    """
    n, r, c = stack.shape
    if shapes is None:  # one shape, in its own orientation
        if n == 1 and stack.size:
            return svd_rank(np.linalg.svd(stack, compute_uv=False), max(r, c)).tolist()
        shapes, stack = [(r, c)], stack if r <= c else stack.transpose(0, 2, 1)
    ranks = np.zeros(n, dtype=np.intp) + [min(shape) for shape in shapes]
    failed = np.flatnonzero(ranks)
    if n > 1 and failed.size:
        gram = stack @ stack.conj().transpose(0, 2, 1)
        diagonal = np.einsum("nii->ni", gram)
        diagonal -= 1e-8 * np.einsum("nii->n", gram)[:, None]
        if len(shapes) > 1:
            diagonal[np.arange(len(gram[0])) >= ranks[:, None]] = 1  # the padding
        with np.errstate(invalid="ignore"):
            factor = _umath_linalg.cholesky_lo(gram, signature="D->D")
        failed = np.flatnonzero(np.isnan(factor[:, 0, 0]))
    by_shape = [(shapes[i % len(shapes)], i) for i in failed.tolist()]  # one for all, or each
    for r, c in dict.fromkeys(shape for shape, _ in by_shape):
        group = [i for shape, i in by_shape if shape == (r, c)]
        blocks = stack[group, : min(r, c), : max(r, c)]
        s = np.linalg.svd(blocks if r <= c else blocks.transpose(0, 2, 1), compute_uv=False)
        ranks[group] = svd_rank(s, max(r, c))
    return ranks.tolist()


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
        width = max([1, *(len(t) for row in a for t in row)])
        terms = np.array([[[*t, *[(0, 0)] * (width - len(t))] for t in row] for row in a])
        terms = terms.reshape(1, len(a), len(a[0]) if a else 0, width, 2)
        r, pivots = _exact_rank_int(terms[..., 0].astype(np.intp), terms[..., 1], order, bound_sq)
        return RankCertificate(int(r[0]), ENGINE_EXACT, _pivot_pairs(pivots[0]), 0.0)
    r = int(svd_rank(np.linalg.svd(a, compute_uv=False), max(a.shape))) if a.size else 0
    return RankCertificate(r, ENGINE_NUMERIC, (), DEFAULT_RANK_TOL)


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
