import math
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from kduncd import dft_matrix, divisors, nullspace_basis, rank
from kduncd.diagram import _dft_block, _numeric_block_ranks
from kduncd.linalg import (
    DEFAULT_RANK_TOL,
    ENGINE_EXACT,
    ENGINE_NUMERIC,
    RankCertificate,
    _exact_rank_int,
    _modulus,
    _pivot_pairs,
    _stack_svd_ranks,
    svd_rank,
)

from cyclotomic_reference import CycNum, root_power


def _exact(d, rows, cols):
    return rank(_dft_block(d, rows, cols), order=d)


def _numeric(d, rows, cols):
    return rank(dft_matrix(d).numeric[np.ix_(rows, cols)])


def _cyc(d, terms):
    """The field element listed by one entry's (exponent, coefficient) terms."""
    return sum((c * root_power(d, e) for e, c in terms), CycNum.zero(d))


def _cyc_matrix(d, block):
    return [[_cyc(d, terms) for terms in row] for row in block]


def test_submatrix_full_index_lists_is_identity():
    block = _cyc_matrix(4, _dft_block(4, range(4), range(4)))
    assert len(block) == 4 and all(len(row) == 4 for row in block)
    assert all(
        block[i][j].coeffs == root_power(4, i * j).coeffs for i in range(4) for j in range(4)
    )


def test_submatrix_single_cell():
    block = _cyc_matrix(5, _dft_block(5, [3], [2]))
    assert len(block) == 1 and len(block[0]) == 1
    assert block[0][0].coeffs == root_power(5, 6).coeffs


def test_submatrix_dft4_entries():
    block = _cyc_matrix(4, _dft_block(4, [1, 3], [0, 2]))
    expected = [root_power(4, 0), root_power(4, 2), root_power(4, 0), root_power(4, 6)]
    got = [block[0][0], block[0][1], block[1][0], block[1][1]]
    assert [g.coeffs for g in got] == [e.coeffs for e in expected]


def test_rank_one_by_one():
    cert = _exact(3, [0], [0])
    assert cert.rank == 1
    assert cert.pivots == ((0, 0),)
    assert cert.engine == ENGINE_EXACT
    assert cert.tolerance == 0.0


def test_rank_progression_submatrix_full():
    # rows 1,3,5 are an arithmetic progression of step 2, columns distinct mod 3
    for engine in (_exact, _numeric):
        assert engine(6, [1, 3, 5], [0, 1, 2]).rank == 3


def test_rank_degenerate_dft4_block():
    m = _cyc_matrix(4, _dft_block(4, [0, 2], [0, 2]))
    # determinant oracle: w^0 * w^4 - w^0 * w^0 = 0 exactly
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det.is_zero()
    assert _exact(4, [0, 2], [0, 2]).rank == 1
    assert _numeric(4, [0, 2], [0, 2]).rank == 1


def test_rank_empty_shapes():
    assert _exact(4, [], [0, 1]).rank == 0
    assert _numeric(4, [0, 1], []).rank == 0


def test_rank_certificate_pivot_count_matches_rank():
    cert = _exact(6, [0, 1, 2, 3], [0, 2, 4])
    assert len(cert.pivots) == cert.rank
    for (i, j) in cert.pivots:
        assert 0 <= i < 4 and 0 <= j < 3


def test_numeric_certificate_carries_rank_and_threshold_only():
    cert = _numeric(6, [0, 1, 2, 3], [0, 2, 4])
    assert cert.rank == 3 and cert.engine == ENGINE_NUMERIC
    assert cert.pivots == ()
    assert cert.tolerance == DEFAULT_RANK_TOL


def test_rank_certificate_rejects_mismatched_pivots():
    with pytest.raises(ValueError):
        RankCertificate(1, ENGINE_NUMERIC, ((0, 0),), DEFAULT_RANK_TOL)
    with pytest.raises(ValueError):
        RankCertificate(2, ENGINE_EXACT, ((0, 0),), 0.0)
    with pytest.raises(ValueError):
        RankCertificate(0, ENGINE_EXACT, ((0, 0),), 0.0)


def test_zero_matrix_rank_zero():
    cert = rank(np.zeros((3, 2), dtype=complex))
    assert cert.rank == 0 and cert.pivots == ()


def test_exact_rank_handles_rational_entries():
    """Rows [1/2, 1], [1, 2] and [1/2, 1], [1, w], scaled by 2 to Z[w]."""
    assert rank([[((0, 1),), ((0, 2),)], [((0, 2),), ((0, 4),)]], order=4).rank == 1
    assert rank([[((0, 1),), ((0, 2),)], [((0, 2),), ((1, 2),)]], order=4).rank == 2


@pytest.mark.parametrize("d", [4, 6, 7, 9])
def test_rank_matches_transpose(d):
    rng = np.random.default_rng(d)
    for _ in range(40):
        nr = int(rng.integers(1, d + 1))
        nc = int(rng.integers(1, d + 1))
        rows = sorted(rng.choice(d, size=nr, replace=False).tolist())
        cols = sorted(rng.choice(d, size=nc, replace=False).tolist())
        for engine in (_exact, _numeric):
            # the DFT is symmetric, so swapping the index sets transposes
            assert engine(d, rows, cols).rank == engine(d, cols, rows).rank


@pytest.mark.parametrize("d", [3, 5, 6, 8])
def test_rank_invariant_under_cyclic_shifts_and_swap(d):
    """Shifting row/column index sets cyclically rescales columns/rows by unit
    roots, and the matrix is symmetric, so ranks must be orbit invariants.
    This is the property behind the enumerator's canonical cache keys."""
    rng = np.random.default_rng(100 + d)
    for _ in range(30):
        nr = int(rng.integers(1, d + 1))
        nc = int(rng.integers(1, d + 1))
        rows = sorted(rng.choice(d, size=nr, replace=False).tolist())
        cols = sorted(rng.choice(d, size=nc, replace=False).tolist())
        s, t = int(rng.integers(d)), int(rng.integers(d))
        shifted_rows = sorted((r + s) % d for r in rows)
        shifted_cols = sorted((c + t) % d for c in cols)
        base = _exact(d, rows, cols).rank
        assert _exact(d, shifted_rows, shifted_cols).rank == base
        assert _exact(d, cols, rows).rank == base
        assert _numeric(d, shifted_rows, shifted_cols).rank == base


@pytest.mark.parametrize("d", range(2, 9))
def test_engine_agreement_random_submatrices(d):
    seed = 4000 + d
    rng = np.random.default_rng(seed)
    for _ in range(200):
        nr = int(rng.integers(1, d + 1))
        nc = int(rng.integers(1, d + 1))
        rows = sorted(rng.choice(d, size=nr, replace=False).tolist())
        cols = sorted(rng.choice(d, size=nc, replace=False).tolist())
        re = _exact(d, rows, cols).rank
        rn = _numeric(d, rows, cols).rank
        assert re == rn, f"seed={seed} rows={rows} cols={cols}"


@pytest.mark.parametrize("d", range(2, 9))
def test_lemma3_progressions_have_full_rank(d):
    """Periodic row blocks against columns with distinct residues mod d/m are
    always full rank, with both engines."""
    for m in divisors(d)[:-1]:
        q = d // m
        for t in range(1, q + 1):
            for i0 in range(d):
                rows = sorted((i0 + m * k) % d for k in range(t))
                if len(rows) != t:
                    continue
                for s in range(1, q + 1):
                    for residues in combinations(range(q), s):
                        for reps in product(range(m), repeat=s):
                            cols = sorted(r + q * k for r, k in zip(residues, reps))
                            want = min(s, t)
                            assert _numeric(d, rows, cols).rank == want
                            if d <= 6:
                                assert _exact(d, rows, cols).rank == want


def _det(m):
    """Determinant of a square CycNum matrix by Laplace expansion, memoized
    on the set of columns left for the remaining rows."""
    n = len(m)
    d = m[0][0].d

    @lru_cache(maxsize=None)
    def expand(i, cols):
        if i == n:
            return CycNum.one(d)
        total = CycNum.zero(d)
        for k, j in enumerate(cols):
            term = m[i][j] * expand(i + 1, cols[:k] + cols[k + 1 :])
            total = total - term if k % 2 else total + term
        return total

    return expand(0, tuple(range(n)))


def _random_dft_blocks(d, count, max_size, seed):
    rng = np.random.default_rng(seed)
    top = min(d, max_size)
    for _ in range(count):
        nr = int(rng.integers(1, top + 1))
        nc = int(rng.integers(1, top + 1))
        rows = sorted(rng.choice(d, size=nr, replace=False).tolist())
        cols = sorted(rng.choice(d, size=nc, replace=False).tolist())
        yield _dft_block(d, rows, cols)


@pytest.mark.parametrize("d", [1, 2, 4, 6, 8, 9])
def test_exact_rank_is_certified_beyond_the_first_prime(d):
    """diag(p1, 1) has rank 2 but rank 1 modulo the engine's first prime p1,
    so only the norm-bound stop can certify it."""
    p1 = _modulus(d, 0)[0]
    cert = rank([[((0, p1),), ()], [(), ((0, 1),)]], order=d)
    assert cert.rank == 2
    assert cert.pivots == ((0, 0), (1, 1))


def _largest_nonzero_minor(d, block):
    m = _cyc_matrix(d, block)
    nrows, ncols = len(m), len(m[0]) if m else 0
    return max(
        k
        for k in range(min(nrows, ncols) + 1)
        if k == 0
        or any(
            not _det([[m[i][j] for j in cs] for i in rs]).is_zero()
            for rs in combinations(range(nrows), k)
            for cs in combinations(range(ncols), k)
        )
    )


@pytest.mark.parametrize("d", [4, 6, 8, 9])
def test_exact_rank_is_the_largest_nonzero_minor(d):
    for block in _random_dft_blocks(d, 25, 4, seed=700 + d):
        assert rank(block, order=d).rank == _largest_nonzero_minor(d, block)


def _padded_stack(blocks):
    """Exponent and coefficient arrays of term-list blocks, padded with zero
    coefficients to the largest shape and term count."""
    nrows = max(len(b) for b in blocks)
    ncols = max(len(row) for b in blocks for row in b)
    width = max(len(t) for b in blocks for row in b for t in row)
    exps = np.zeros((len(blocks), nrows, ncols, width), dtype=np.intp)
    coefs = np.zeros_like(exps)
    for n, block in enumerate(blocks):
        for i, row in enumerate(block):
            for j, terms in enumerate(row):
                for t, (e, c) in enumerate(terms):
                    exps[n, i, j, t], coefs[n, i, j, t] = e, c
    return exps, coefs


@pytest.mark.parametrize("d", [4, 6, 8, 9, 10, 12])
def test_stacked_kernel_certifies_every_block_of_a_mixed_stack(d):
    """One padded stack of DFT blocks of many shapes and of blocks that the
    first prime p1 leaves rank-deficient (diag(p1, 1) and two like it):
    every rank is the largest nonzero minor and every pivot set names a
    nonzero minor."""
    p1 = _modulus(d, 0)[0]
    deficient = {
        3: [[((0, p1),), ()], [(), ((1, 1),)]],
        11: [[((0, p1),), ((0, 1),), ()], [(), (), ((1, p1),)]],
        20: [[((0, p1),), ()], [(), ((0, p1),)], [((1, p1),), ((0, 3 * p1),)]],
    }
    blocks = list(_random_dft_blocks(d, 30, 4, seed=900 + d))
    for at, block in deficient.items():
        blocks.insert(at, block)
    exps, coefs = _padded_stack(blocks)
    assert len({(len(b), len(b[0])) for b in blocks}) > 5
    bound_sq = max(
        math.prod(max(1, sum(sum(abs(c) for _, c in t) ** 2 for t in row)) for row in b)
        for b in blocks
    )
    # bound_sq = 1 stops after the first prime
    first = _exact_rank_int(exps, coefs, d, 1)[0]
    ranks, pivots = _exact_rank_int(exps, coefs, d, bound_sq)
    assert [first[at] for at in deficient] == [1, 1, 0]
    assert [ranks[at] for at in deficient] == [2, 2, 2]
    assert sum(first == ranks) > 20
    for block, r, piv in zip(blocks, ranks.tolist(), pivots):
        assert r == _largest_nonzero_minor(d, block)
        pairs = _pivot_pairs(piv.tolist())
        one = rank(block, order=d)
        assert (r, pairs) == (one.rank, one.pivots)
        rs = [i for i, _ in pairs]
        cs = [j for _, j in pairs]
        assert len(set(rs)) == len(set(cs)) == r
        if r:
            m = _cyc_matrix(d, block)
            assert not _det([[m[i][j] for j in cs] for i in rs]).is_zero()


@pytest.mark.parametrize("d", [4, 6, 8, 9])
def test_exact_pivot_minor_is_nonzero(d):
    # rows [1/2, w, w/2], [w, w^2, 1/2], [1/2, w, w/2], scaled by 2 to Z[w]
    scaled = [
        [((0, 1),), ((1, 2),), ((1, 1),)],
        [((1, 2),), ((2, 2),), ((0, 1),)],
        [((0, 1),), ((1, 2),), ((1, 1),)],
    ]
    for block in [scaled, *_random_dft_blocks(d, 25, 6, seed=800 + d)]:
        cert = rank(block, order=d)
        rs = [i for i, _ in cert.pivots]
        cs = [j for _, j in cert.pivots]
        assert len(set(rs)) == len(set(cs)) == cert.rank
        if cert.rank:
            m = _cyc_matrix(d, block)
            assert not _det([[m[i][j] for j in cs] for i in rs]).is_zero()


def test_nullspace_identity_is_empty():
    assert nullspace_basis(np.eye(2, dtype=complex)) == []


def test_nullspace_of_difference_row():
    basis = nullspace_basis(np.array([[1.0, -1.0]], dtype=complex))
    assert len(basis) == 1
    target = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(abs(np.vdot(basis[0], target)) - 1.0) < 1e-12


def test_nullspace_of_unconstrained_space_is_full_basis():
    basis = nullspace_basis(np.empty((0, 3), dtype=complex))
    assert len(basis) == 3
    stacked = np.array(basis)
    assert np.allclose(stacked @ stacked.conj().T, np.eye(3))


def test_svd_threshold_counts_zero_for_zero_matrices():
    assert len(nullspace_basis(np.zeros((2, 3), dtype=complex))) == 3
    stack = np.stack([np.zeros(2), np.array([2.0, 1e-13]), np.array([2.0, 1.0])])
    assert svd_rank(stack, 2).tolist() == [0, 1, 2]
    assert svd_rank(np.zeros(2), 2) == 0


def _svd_ranks(stack):
    """The plain SVD count that ``_stack_svd_ranks`` must reproduce."""
    return svd_rank(np.linalg.svd(stack, compute_uv=False), max(stack.shape[1:])).tolist()


def _with_singular_values(rng, n, shape, s):
    """n complex blocks U diag(s) V^H of the given shape, U and V random."""
    r, c = shape

    def unitary(k):
        q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        return q

    k = min(r, c)
    blocks = [unitary(r)[:, :k] * np.asarray(s) @ unitary(c)[:, :k].conj().T for _ in range(n)]
    return np.array(blocks)


def _random_stack(rng, n, r, c):
    return rng.normal(size=(n, r, c)) + 1j * rng.normal(size=(n, r, c))


@pytest.mark.parametrize("shape", [(7, 5), (5, 7), (6, 6), (1, 4), (4, 1)])
def test_stack_ranks_match_svd_on_full_stacks(shape):
    rng = np.random.default_rng(sum(shape))
    for n in (1, 2, 9):
        stack = _random_stack(rng, n, *shape)
        assert _stack_svd_ranks(stack) == _svd_ranks(stack) == [min(shape)] * n


def test_stack_ranks_match_svd_on_deficient_and_unclear_blocks(monkeypatch):
    rng = np.random.default_rng(7)
    zero = np.zeros((2, 4, 3), dtype=complex)
    repeated = _random_stack(rng, 3, 4, 3)
    repeated[:, :, 2] = repeated[:, :, 0]  # exactly rank 2
    uncertified = _with_singular_values(rng, 3, (4, 3), [1, 1, 1e-9])
    deficient = _with_singular_values(rng, 3, (3, 5), [1, 1, 1e-13])
    cases = [(zero, [0, 0]), (repeated, [2] * 3), (uncertified, [3] * 3), (deficient, [2] * 3)]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(len(a)) or svd(a, **kw))
    for stack, expected in cases:
        assert _svd_ranks(stack) == expected
        calls.clear()
        assert _stack_svd_ranks(stack) == expected
        assert calls == [len(stack)]  # no certificate: every block has a small sigma_min
        for block in stack:  # and as single blocks, which go straight to the SVD
            assert _stack_svd_ranks(block[None]) == _svd_ranks(block[None])


def test_only_the_deficient_block_goes_to_the_svd(monkeypatch):
    rng = np.random.default_rng(8)
    stack = _random_stack(rng, 6, 5, 4)
    stack[3, :, 1] = stack[3, :, 0]  # a repeated column: rank 3 of 4
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
    assert _stack_svd_ranks(stack) == [4, 4, 4, 3, 4, 4]
    assert calls == [(1, 5, 4)]


def test_mixed_shapes_rank_as_one_padded_stack(monkeypatch):
    # wide, tall and square blocks, empty short sides, rank-deficient and
    # all-zero blocks, ranked in one call: each gets its own SVD count, and
    # only the blocks the padded Cholesky fails on reach the SVD, each at its
    # own shape and orientation
    rng = np.random.default_rng(10)
    m = _random_stack(rng, 1, 10, 10)[0]
    m[7, :7] = m[6, :7]  # rows 6 and 7 agree on columns 0..6 only
    m[:6, 8] = m[:6, 6]  # columns 6 and 8 agree on rows 0..5 only
    m[0, :3] = 0
    blocks = [
        ((1, 2, 3), (0, 1, 2, 3, 4)),  # wide, rank 3
        ((1, 2, 3, 4, 5), (2, 3, 4)),  # tall, rank 3
        ((1, 2, 3, 4), (1, 2, 3, 4)),  # square, rank 4
        ((), (1, 2)),  # no rows
        ((3, 4), ()),  # no columns
        ((2, 6, 7), (0, 1, 3, 5)),  # wide, rank 2
        ((1, 2, 3, 4, 5), (3, 6, 8)),  # tall, rank 2
        ((0,), (0, 1, 2)),  # all zero
    ]
    expected = [_svd_ranks(m[np.ix_(r, c)][None])[0] if r and c else 0 for r, c in blocks]
    assert expected == [3, 3, 4, 0, 0, 2, 2, 0]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.copy()) or svd(a, **kw))
    assert _numeric_block_ranks(m, *zip(*blocks)) == expected
    deficient = [m[np.ix_(r, c)][None] for r, c in blocks[5:]]
    assert [a.shape for a in calls] == [a.shape for a in deficient]
    assert all(np.array_equal(a, b) for a, b in zip(calls, deficient))


def test_batched_cholesky_fills_exactly_the_failing_blocks_with_nan():
    # _stack_svd_ranks reads a failed factorization off numpy's batched
    # Cholesky gufunc as a block of NaN; a numpy that raised or left a
    # failing block finite would make it certify a deficient block
    rng = np.random.default_rng(9)
    k = 5

    def gram(pivots):
        lower = np.tril(_random_stack(rng, 1, k, k)[0], -1) + np.eye(k)
        return lower @ np.diag(pivots) @ lower.conj().T

    blocks, failing = [], []
    for bad in (None, 0, 2, k - 1, None):  # fails at the first, a middle and the last pivot
        pivots = np.ones(k)
        if bad is not None:
            pivots[bad] = -1.0
        blocks.append(gram(pivots))
        failing.append(bad is not None)
    blocks.append(np.zeros((k, k), dtype=complex))
    failing.append(True)
    with np.errstate(invalid="ignore"):
        factor = _umath_linalg.cholesky_lo(np.array(blocks), signature="D->D")
    assert np.isnan(factor).all(axis=(1, 2)).tolist() == failing
    for block, f, bad in zip(blocks, factor, failing):
        if not bad:
            assert np.allclose(f, np.linalg.cholesky(block))


def test_full_rank_dft_progression_stack_needs_no_svd(monkeypatch):
    d = 12
    nu = dft_matrix(d).numeric
    # rows {s, s + 1, s + 2} on 5 consecutive columns: Vandermonde blocks of rank 3
    stack = np.array([nu[np.ix_([s, s + 1, s + 2], range(5))] for s in range(d - 2)])
    expected = _svd_ranks(stack)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: pytest.fail("SVD called"))
    assert _stack_svd_ranks(stack) == expected == [3] * (d - 2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.lists(st.floats(-14, 0), min_size=12, max_size=12),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_stack_ranks_match_svd_on_log_uniform_spectra(r, c, exponents, n, seed):
    s = np.sort(10.0 ** np.array(exponents[: min(r, c)]))[::-1]
    stack = _with_singular_values(np.random.default_rng(seed), n, (r, c), s)
    assert _stack_svd_ranks(stack) == _svd_ranks(stack)


@pytest.mark.parametrize("d", [4, 6, 8])
def test_nullspace_residuals_small(d):
    rng = np.random.default_rng(60 + d)
    nu = dft_matrix(d).numeric
    for _ in range(50):
        nr = int(rng.integers(1, d))
        nc = int(rng.integers(1, d + 1))
        rows = sorted(rng.choice(d, size=nr, replace=False).tolist())
        cols = sorted(rng.choice(d, size=nc, replace=False).tolist())
        sub = nu[np.ix_(rows, cols)]
        for vec in nullspace_basis(sub):
            assert np.linalg.norm(sub @ vec) < 1e-9
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


@pytest.mark.slow
def test_engine_agreement_large_random_sample():
    """Exact and numeric ranks agree on a large random sample of DFT
    submatrices across dimensions up to 10."""
    seed = 20240
    rng = np.random.default_rng(seed)
    total = 100_000
    disagreements = 0
    for _ in range(total):
        d = int(rng.integers(2, 11))
        nr = int(rng.integers(1, d + 1))
        nc = int(rng.integers(1, d + 1))
        rows = sorted(rng.choice(d, size=nr, replace=False).tolist())
        cols = sorted(rng.choice(d, size=nc, replace=False).tolist())
        if _exact(d, rows, cols).rank != _numeric(d, rows, cols).rank:
            disagreements += 1
    assert disagreements == 0, f"seed={seed}"
