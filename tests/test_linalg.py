from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from kduncd import dft_matrix, divisors, nullspace_basis, rank
from kduncd.diagram import _dft_block
from kduncd.linalg import (
    DEFAULT_RANK_TOL,
    ENGINE_EXACT,
    ENGINE_NUMERIC,
    RankCertificate,
    _modulus,
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


@pytest.mark.parametrize("d", [4, 6, 8, 9])
def test_exact_rank_is_the_largest_nonzero_minor(d):
    for block in _random_dft_blocks(d, 25, 4, seed=700 + d):
        m = _cyc_matrix(d, block)
        nrows, ncols = len(m), len(m[0])
        largest = max(
            k
            for k in range(min(nrows, ncols) + 1)
            if k == 0
            or any(
                not _det([[m[i][j] for j in cs] for i in rs]).is_zero()
                for rs in combinations(range(nrows), k)
                for cs in combinations(range(ncols), k)
            )
        )
        assert rank(block, order=d).rank == largest


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
