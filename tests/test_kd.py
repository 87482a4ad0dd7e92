import cmath
import json
import math

import numpy as np
import pytest

from kduncd import (
    CosetSpec,
    StateVector,
    SupportProfile,
    SupportThresholdError,
    TransitionKind,
    Verdict,
    b_amplitudes,
    basis_state,
    classify_state,
    coset_classical_state,
    dft_matrix,
    kd_distribution,
    load_state,
    predict_classicality_dft,
    random_mub_pair,
    random_state_in_subspace,
    save_state,
    state_from_amplitudes,
    support_profile,
    support_uncertainty_bound,
    theorem5_sufficient,
    transition_from_unitary,
)

from cyclotomic_reference import root_power
from kduncd.kd import DEFAULT_SUPPORT_EPS, _nonclassical, _support_masks


def _kd_table_oracle(amps, d):
    """Independent table evaluation straight from the defining product."""
    f = np.exp(2j * np.pi * (np.outer(np.arange(d), np.arange(d)) % d) / d) / math.sqrt(d)
    b = np.array([np.sum(f[:, j].conj() * amps) for j in range(d)])
    return np.array(
        [[amps[i] * b[j].conj() * f[i, j].conj() for j in range(d)] for i in range(d)]
    )


def test_dft_dimension_one():
    u = dft_matrix(1)
    assert u.numeric.shape == (1, 1)
    assert u.numeric[0, 0] == pytest.approx(1.0)


def test_dft_dimension_two():
    u = dft_matrix(2)
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(u.numeric, expected, atol=1e-14)


def test_dft_entry_exponent_arithmetic():
    # entry (3,3) of the d=4 matrix is w^9 / 2 = w^1 / 2 = i/2
    u = dft_matrix(4)
    assert u.numeric[3, 3] == pytest.approx(1j / 2, abs=1e-14)


def test_dft_rejects_zero_dimension():
    with pytest.raises(ValueError):
        dft_matrix(0)


@pytest.mark.parametrize("d", range(1, 13))
def test_dft_invariants(d):
    u = dft_matrix(d)
    a = u.numeric
    assert np.max(np.abs(a @ a.conj().T - np.eye(d))) < 1e-10
    assert np.max(np.abs(a - a.T)) < 1e-12  # symmetric
    assert np.max(np.abs(np.abs(a) - 1 / math.sqrt(d))) < 1e-10
    roots = np.array([[root_power(d, i * j).numeric() for j in range(d)] for i in range(d)])
    assert np.max(np.abs(a - roots / math.sqrt(d))) < 1e-12


def test_kd_distribution_of_a_basis_state():
    d = 5
    u = dft_matrix(d)
    dist = kd_distribution(basis_state(d, 0), u)
    expected = np.zeros((d, d))
    expected[0, :] = np.abs(u.numeric[0, :]) ** 2
    assert np.allclose(dist.q, expected, atol=1e-12)
    assert classify_state(basis_state(d, 0), u).verdict is Verdict.CLASSICAL


def test_kd_distribution_of_b_basis_state():
    d = 4
    u = dft_matrix(d)
    psi = state_from_amplitudes(u.numeric[:, 0])  # |b_0>
    dist = kd_distribution(psi, u)
    expected = np.zeros((d, d))
    expected[:, 0] = 1.0 / d
    assert np.allclose(dist.q, expected, atol=1e-12)
    assert classify_state(psi, u).verdict is Verdict.CLASSICAL


def test_kd_distribution_three_support_state_is_nonclassical():
    d = 4
    u = dft_matrix(d)
    psi = state_from_amplitudes([1, 1, 1, 0])
    table = kd_distribution(psi, u).q
    oracle = _kd_table_oracle(psi.amps_a, d)
    assert np.allclose(table, oracle, atol=1e-12)
    violation = np.maximum(-table.real, np.abs(table.imag))
    assert violation.max() > 1e-3
    result = classify_state(psi, u)
    assert result.verdict is Verdict.NONCLASSICAL
    i, j, q = result.witness
    assert q == pytest.approx(table[i, j])
    assert max(-q.real, abs(q.imag)) == pytest.approx(violation.max())


@pytest.mark.parametrize("d", range(1, 13))
def test_kd_marginals_on_random_states(d):
    seed = 500 + d
    rng = np.random.default_rng(seed)
    u = dft_matrix(d)
    for _ in range(1000):
        psi = state_from_amplitudes(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        dist = kd_distribution(psi, u)
        assert abs(dist.total() - 1.0) < 1e-9, f"seed={seed}"
        assert np.allclose(dist.marginal_a(), np.abs(psi.amps_a) ** 2, atol=1e-9)
        assert np.allclose(
            dist.marginal_b(), np.abs(b_amplitudes(psi, u)) ** 2, atol=1e-9
        )


def test_support_profile_basis_state():
    profile = support_profile(basis_state(6, 3), dft_matrix(6))
    assert (profile.n_a, profile.n_b) == (1, 6)
    assert profile.s_set == frozenset({3})


def test_support_profile_two_point_coset():
    d = 6
    u = dft_matrix(d)
    psi = state_from_amplitudes([1, 0, 0, 1, 0, 0])
    # geometric sum oracle: <b_j|psi> ~ 1 + w^(-3j), vanishing for odd j
    for j in range(d):
        total = 1 + cmath.exp(-2j * cmath.pi * 3 * j / d)
        assert (abs(total) > 1e-9) == (j % 2 == 0)
    profile = support_profile(psi, u)
    assert (profile.n_a, profile.n_b) == (2, 3)
    assert profile.t_set == frozenset({0, 2, 4})
    assert classify_state(psi, u).verdict is Verdict.CLASSICAL
    assert profile.n_a * profile.n_b == d


def test_support_profile_b_basis_state():
    d = 5
    u = dft_matrix(d)
    psi = state_from_amplitudes(u.numeric[:, 2])
    profile = support_profile(psi, u)
    assert (profile.n_a, profile.n_b) == (d, 1)
    assert profile.t_set == frozenset({2})


def test_support_profile_rejects_zero_vector():
    with pytest.raises(ValueError):
        state_from_amplitudes([0, 0, 0])


@pytest.mark.parametrize(
    "amps",
    [[math.nan, 1], [math.inf, 1], [1, -math.inf], [complex(1, math.nan), 0]],
    ids=["nan", "inf", "-inf", "nan-imag"],
)
def test_state_from_amplitudes_rejects_non_finite_amplitudes(amps):
    with pytest.raises(ValueError, match="finite"):
        state_from_amplitudes(amps)


@pytest.mark.parametrize("amps", [[5e-324, 0], [1e-310, 1e-310]], ids=["least", "subnormal"])
def test_state_from_amplitudes_normalizes_subnormal_amplitudes(amps):
    psi = state_from_amplitudes(amps)
    assert np.isfinite(psi.amps_a).all()
    assert np.linalg.norm(psi.amps_a) == pytest.approx(1.0)


def test_support_uncertainty_bound_dft():
    assert support_uncertainty_bound(dft_matrix(8)) == pytest.approx(8.0, abs=1e-9)


def test_support_uncertainty_bound_identity():
    u = transition_from_unitary(np.eye(3))
    assert support_uncertainty_bound(u) == math.inf  # off-diagonal zeros


def test_support_uncertainty_bound_same_basis_cell():
    u = transition_from_unitary(np.array([[1.0]]))
    assert support_uncertainty_bound(u) == pytest.approx(1.0)


def test_support_uncertainty_bound_custom_two_level():
    s3 = math.sqrt(3) / 2
    u = transition_from_unitary(np.array([[0.5, s3], [s3, -0.5]]))
    assert support_uncertainty_bound(u) == pytest.approx(4.0)


def test_predict_classicality_examples():
    d = 6
    mk = lambda na, nb: SupportProfile(
        d=d,
        s_set=frozenset(range(na)),
        t_set=frozenset(range(nb)),
        n_a=na,
        n_b=nb,
        epsilon=1e-10,
    )
    assert predict_classicality_dft(mk(1, 6)) is Verdict.CLASSICAL
    assert predict_classicality_dft(mk(2, 3)) is Verdict.CLASSICAL
    assert predict_classicality_dft(mk(4, 3)) is Verdict.NONCLASSICAL
    with pytest.raises(SupportThresholdError):
        predict_classicality_dft(mk(2, 2))


def test_theorem5_sufficient_examples():
    mk = lambda d, na, nb: SupportProfile(
        d=d,
        s_set=frozenset(range(na)),
        t_set=frozenset(range(nb)),
        n_a=na,
        n_b=nb,
        epsilon=1e-10,
    )
    assert theorem5_sufficient(mk(4, 3, 4), dft_matrix(4)) is True
    assert theorem5_sufficient(mk(6, 3, 3), dft_matrix(6)) is False
    assert theorem5_sufficient(mk(5, 2, 3), dft_matrix(5)) is True


def test_theorem5_sufficient_preconditions():
    with pytest.raises(ValueError, match="basis vector"):
        theorem5_sufficient(
            SupportProfile(4, frozenset({0}), frozenset(range(4)), 1, 4, 1e-10),
            dft_matrix(4),
        )
    general = transition_from_unitary(np.eye(4))
    with pytest.raises(ValueError, match="MUB"):
        theorem5_sufficient(
            SupportProfile(4, frozenset(range(3)), frozenset(range(3)), 3, 3, 1e-10),
            general,
        )


def test_degenerate_dimension_one():
    u = dft_matrix(1)
    psi = basis_state(1, 0)
    profile = support_profile(psi, u)
    assert (profile.n_a, profile.n_b) == (1, 1)
    assert classify_state(psi, u).verdict is Verdict.CLASSICAL
    assert predict_classicality_dft(profile) is Verdict.CLASSICAL


@pytest.mark.parametrize("d", [3, 5, 6, 8])
def test_global_phase_invariance(d):
    seed = 700 + d
    rng = np.random.default_rng(seed)
    u = dft_matrix(d)
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi = state_from_amplitudes(amps)
    rotated = state_from_amplitudes(amps * np.exp(1j * 0.81234))
    assert np.allclose(kd_distribution(psi, u).q, kd_distribution(rotated, u).q, atol=1e-12)
    pa, pb = support_profile(psi, u), support_profile(rotated, u)
    assert (pa.s_set, pa.t_set) == (pb.s_set, pb.t_set)
    assert classify_state(psi, u).verdict is classify_state(rotated, u).verdict


@pytest.mark.parametrize("d", [4, 6, 7])
def test_cyclic_shift_covariance(d):
    seed = 800 + d
    rng = np.random.default_rng(seed)
    u = dft_matrix(d)
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    amps[rng.integers(d)] = 0.0  # make the support proper
    psi = state_from_amplitudes(amps)
    shifted = state_from_amplitudes(np.roll(amps, 1))
    pa, pb = support_profile(psi, u), support_profile(shifted, u)
    assert pb.s_set == frozenset((i + 1) % d for i in pa.s_set)
    assert (pa.n_a, pa.n_b) == (pb.n_a, pb.n_b)
    assert pb.t_set == pa.t_set  # B amplitudes only pick up phases


@pytest.mark.parametrize("d", range(2, 13))
def test_support_uncertainty_and_forward_classicality(d):
    """Random states in random constrained subspaces: the support product
    never drops below d, classical verdicts sit exactly on the floor, and
    products above the floor force nonclassical verdicts."""
    seed = 900 + d
    rng = np.random.default_rng(seed)
    u = dft_matrix(d)
    for _ in range(1000):
        na_cap = int(rng.integers(1, d + 1))
        nb_cap = int(rng.integers(max(1, -(-d // na_cap)), d + 1))
        s = sorted(rng.choice(d, size=na_cap, replace=False).tolist())
        t = sorted(rng.choice(d, size=nb_cap, replace=False).tolist())
        try:
            psi = random_state_in_subspace(u, s, t, seed=rng)
        except ValueError:
            continue  # empty subspace
        profile = support_profile(psi, u)
        product = profile.n_a * profile.n_b
        assert product >= d, f"seed={seed}"
        verdict = classify_state(psi, u).verdict
        if verdict is Verdict.CLASSICAL:
            assert product == d, f"seed={seed}"
        if product > d:
            assert verdict is Verdict.NONCLASSICAL, f"seed={seed}"


@pytest.mark.parametrize("d", [2, 3, 5, 6, 8])
def test_theorem5_flag_forces_nonclassical_on_random_mubs(d):
    seed = 1000 + d
    rng = np.random.default_rng(seed)
    for _ in range(20):
        u = random_mub_pair(d, seed=rng)
        for _ in range(20):
            big = int(rng.integers(d // 2 + 1, d + 1))
            s = sorted(rng.choice(d, size=big, replace=False).tolist())
            psi = random_state_in_subspace(u, s, range(d), seed=rng)
            profile = support_profile(psi, u)
            if profile.n_a <= 1 or profile.n_b <= 1:
                continue
            if theorem5_sufficient(profile, u):
                assert classify_state(psi, u).verdict is Verdict.NONCLASSICAL, f"seed={seed}"


def test_state_file_round_trip(tmp_path):
    psi = state_from_amplitudes([1, 1j, -0.5])
    path = tmp_path / "state.json"
    save_state(path, psi)
    loaded = load_state(path)
    assert loaded.d == 3
    assert np.allclose(loaded.amps_a, psi.amps_a)


def test_state_file_normalizes_with_warning(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d": 2, "amps_a": [[3.0, 0.0], [0.0, 4.0]]}))
    with pytest.warns(UserWarning, match="normalizing"):
        loaded = load_state(path)
    assert np.linalg.norm(loaded.amps_a) == pytest.approx(1.0)
    assert loaded.amps_a[0] == pytest.approx(0.6)


def test_state_file_rejects_wrong_length(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d": 3, "amps_a": [[1.0, 0.0]]}))
    with pytest.raises(ValueError):
        load_state(path)


@pytest.mark.parametrize(
    "payload",
    [[], {"d": None, "amps_a": []}, {"d": 2.5, "amps_a": [[1.0, 0.0], [0.0, 0.0]]}],
    ids=["list", "null-d", "float-d"],
)
def test_state_file_rejects_bad_header(tmp_path, payload):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="integer d"):
        load_state(path)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        kd_distribution(basis_state(3, 0), dft_matrix(4))


def test_transition_kind_validation():
    with pytest.raises(ValueError):
        transition_from_unitary(np.eye(2), kind=TransitionKind.GENERAL_MUB)
    with pytest.raises(ValueError):
        transition_from_unitary(np.ones((2, 2)))  # not unitary


@pytest.mark.parametrize("kind", ["dft", "mub"])
def test_row_wise_rules_match_the_per_state_functions(kind):
    d, rng = 6, np.random.default_rng(12)
    u = dft_matrix(d) if kind == "dft" else random_mub_pair(d, seed=rng)
    rows = [basis_state(d, 2).amps_a]
    for p in (1, 2, 3, 6):
        rows.append(coset_classical_state(CosetSpec(d=d, p=p, a_shift=1, b_shift=p)).amps_a)
    for n_a in range(2, d + 1):
        s = rng.choice(d, size=n_a, replace=False)
        rows.append(random_state_in_subspace(u, s, range(d), seed=rng).amps_a)
    block = np.array(rows)
    masks = _support_masks(block, u, DEFAULT_SUPPORT_EPS)
    nonclassical = _nonclassical(block, u)
    verdicts = set()
    for k, amps in enumerate(rows):
        psi = StateVector(d=d, amps_a=amps)
        profile = support_profile(psi, u)
        assert frozenset(np.flatnonzero(masks[0, k]).tolist()) == profile.s_set
        assert frozenset(np.flatnonzero(masks[1, k]).tolist()) == profile.t_set
        verdict = classify_state(psi, u).verdict
        assert nonclassical[k] == (verdict is Verdict.NONCLASSICAL)
        verdicts.add(verdict)
    assert len(verdicts) == 2  # the block mixes both verdicts
