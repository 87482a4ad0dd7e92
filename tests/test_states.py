import math

import numpy as np
import pytest

from kduncd import (
    CosetSpec,
    Verdict,
    b_amplitudes,
    classify_state,
    coset_classical_state,
    dft_matrix,
    divisors,
    mub_from_parts,
    nullspace_basis,
    random_mub_pair,
    random_state_in_subspace,
    support_profile,
)
from kduncd.states import _subspace_sampler


def test_coset_spec_rejects_non_divisor():
    with pytest.raises(ValueError):
        CosetSpec(d=6, p=4)


@pytest.mark.parametrize(
    "fields", [{"b_shift": 0.5}, {"a_shift": 1.5}, {"d": 6.0}, {"p": 3.0}, {"a_shift": "1"}]
)
def test_coset_spec_rejects_non_integer_fields(fields):
    # a fractional shift would give a state off the coset family
    with pytest.raises(ValueError, match="not an integer"):
        CosetSpec(**{"d": 6, "p": 3, **fields})


def test_coset_state_two_point():
    psi = coset_classical_state(CosetSpec(d=6, p=2))
    expected = np.zeros(6, dtype=complex)
    expected[0] = expected[3] = 1 / math.sqrt(2)
    assert np.allclose(psi.amps_a, expected, atol=1e-14)
    u = dft_matrix(6)
    profile = support_profile(psi, u)
    assert profile.t_set == frozenset({0, 2, 4})
    assert classify_state(psi, u).verdict is Verdict.CLASSICAL


def test_coset_state_full_support_is_b_basis_vector():
    psi = coset_classical_state(CosetSpec(d=4, p=4))
    u = dft_matrix(4)
    assert np.allclose(psi.amps_a, u.numeric[:, 0], atol=1e-14)
    profile = support_profile(psi, u)
    assert (profile.n_a, profile.n_b) == (4, 1)


def test_coset_state_with_shifts():
    psi = coset_classical_state(CosetSpec(d=9, p=3, a_shift=1, b_shift=2))
    u = dft_matrix(9)
    profile = support_profile(psi, u)
    assert (profile.n_a, profile.n_b) == (3, 3)
    assert profile.s_set == frozenset({1, 4, 7})
    assert profile.t_set == frozenset({2, 5, 8})
    assert classify_state(psi, u).verdict is Verdict.CLASSICAL


@pytest.mark.parametrize("d", range(1, 13))
def test_coset_states_land_on_the_hyperbola(d):
    seed = 40 + d
    rng = np.random.default_rng(seed)
    u = dft_matrix(d)
    for p in divisors(d):
        for _ in range(20):
            spec = CosetSpec(
                d=d, p=p, a_shift=int(rng.integers(d)), b_shift=int(rng.integers(d))
            )
            psi = coset_classical_state(spec)
            profile = support_profile(psi, u)
            assert (profile.n_a, profile.n_b) == (p, d // p), f"seed={seed}"
            assert classify_state(psi, u).verdict is Verdict.CLASSICAL, f"seed={seed}"


def test_random_state_full_space_profile():
    d = 5
    u = dft_matrix(d)
    psi = random_state_in_subspace(u, range(d), range(d), seed=3)
    profile = support_profile(psi, u)
    assert (profile.n_a, profile.n_b) == (d, d)


def test_random_state_respects_supports_and_constraints():
    d = 4
    u = dft_matrix(d)
    s, t = [0, 2], [0, 2]
    for seed in range(10):
        psi = random_state_in_subspace(u, s, t, seed=seed)
        profile = support_profile(psi, u)
        assert profile.s_set <= frozenset(s)
        assert profile.t_set <= frozenset(t)
        beta = b_amplitudes(psi, u)[t]
        constraint = u.numeric[np.ix_([1, 3], t)]
        assert np.linalg.norm(constraint @ beta) < 1e-9
        assert abs(np.linalg.norm(psi.amps_a) - 1.0) < 1e-12


def _reference_state(u, s_set, t_set, rng):
    """One subspace state by the per-state loop that witness files were
    written with: nullspace, Gaussian coefficients, sum, normalize."""
    s, t = sorted(set(s_set)), sorted(set(t_set))
    basis = nullspace_basis(u.numeric[np.ix_([i for i in range(u.d) if i not in s], t)])
    g = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    beta = np.zeros(len(t), dtype=complex)
    for coeff, vec in zip(g, basis):
        beta += coeff * vec
    beta /= np.linalg.norm(beta)
    amps_b = np.zeros(u.d, dtype=complex)
    amps_b[t] = beta
    return u.numeric @ amps_b


@pytest.mark.parametrize("d", range(2, 11))
def test_one_row_draw_matches_the_per_state_loop_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    mine, ref = np.random.default_rng(d), np.random.default_rng(d)
    for k in range(40):
        u = dft_matrix(d) if k % 2 else random_mub_pair(d, seed=rng)
        big = int(rng.integers(d // 2 + 1, d + 1))
        small = int(rng.integers(max(1, d + 1 - big), d + 1))
        s = rng.choice(d, size=big, replace=False).tolist()
        t = rng.choice(d, size=small, replace=False).tolist()
        psi = random_state_in_subspace(u, s, t, seed=mine)
        assert psi.amps_a.tobytes() == _reference_state(u, s, t, ref).tobytes()
    assert mine.random() == ref.random()  # both consumed the same draws


def test_block_draw_rows_lie_in_the_subspace():
    d, s, t = 6, [0, 1, 3, 4], [0, 2, 3, 5]
    u = dft_matrix(d)
    amps = _subspace_sampler(u, s, t)(np.random.default_rng(1), 50)
    assert amps.shape == (50, d)
    assert np.allclose(np.linalg.norm(amps, axis=1), 1.0, atol=1e-12)
    assert np.abs(amps[:, [2, 5]]).max() < 1e-12
    amps_b = amps @ u.numeric.conj()
    assert np.abs(amps_b[:, [1, 4]]).max() < 1e-12


def test_random_state_rejects_trivial_subspace():
    u = dft_matrix(4)
    with pytest.raises(ValueError):
        random_state_in_subspace(u, [0], [0], seed=0)  # 1*1 < 4: empty


def test_mub_from_identity_parts_is_dft():
    d = 5
    u = mub_from_parts(d, np.zeros(d), np.zeros(d), np.arange(d))
    assert np.allclose(u.numeric, dft_matrix(d).numeric, atol=1e-14)


@pytest.mark.parametrize("d", range(2, 13))
def test_random_mub_invariants(d):
    seed = 90 + d
    rng = np.random.default_rng(seed)
    for _ in range(100):
        u = random_mub_pair(d, seed=rng)
        a = u.numeric
        assert np.max(np.abs(a @ a.conj().T - np.eye(d))) < 1e-10, f"seed={seed}"
        assert np.max(np.abs(np.abs(a) - 1 / math.sqrt(d))) < 1e-12, f"seed={seed}"


def test_random_mub_is_seed_deterministic():
    a = random_mub_pair(6, seed=11).numeric
    b = random_mub_pair(6, seed=11).numeric
    assert np.array_equal(a, b)
