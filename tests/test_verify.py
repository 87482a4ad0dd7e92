"""Theorem 4's block witness check, Theorem 5's count of skipped states and
Lemma 3's memory bound."""

import tracemalloc

import pytest

import kduncd.kd as kd_mod
import kduncd.verify as verify_mod
from kduncd import CosetSpec, Verdict, coset_classical_state
from kduncd.verify import lemma3_check, verify_theorem4, verify_theorem5


def _shares(diagram_cache, d: int, samples: int) -> dict:
    """States per eligible point: the j-th takes states j, j + L, j + 2L, ..."""
    eligible = sorted(p for p in diagram_cache(d).present_set() if p[0] * p[1] > d)
    shares = {key: len(range(j, samples, len(eligible))) for j, key in enumerate(eligible)}
    return {key: n for key, n in shares.items() if n}


@pytest.mark.parametrize("block", [1024, 4])
@pytest.mark.parametrize("samples", [1, 7, 37, 1000])
def test_theorem4_checks_every_witness_sample(diagram_cache, monkeypatch, samples, block):
    real, checked = verify_mod._witness_faults, {}

    def spy(u, key, amps):
        assert 1 <= len(amps) <= block
        checked[key] = checked.get(key, 0) + len(amps)
        return real(u, key, amps)

    monkeypatch.setattr(verify_mod, "_witness_faults", spy)
    monkeypatch.setattr(verify_mod, "_WITNESS_BLOCK", block)
    (row,) = verify_theorem4([6], diagram_cache, samples=samples, seed=1)
    assert row.passed, row.detail
    assert row.detail == f"20 coset + {samples} witness states agree"
    assert checked == _shares(diagram_cache, 6, samples)


def test_theorem4_fails_on_one_classical_looking_row(diagram_cache, monkeypatch):
    real, blocks = kd_mod._violation, []

    def forced(q):
        violation = real(q)
        if q.ndim == 3:  # a witness block; coset tables come one at a time
            blocks.append(len(q))
            if len(blocks) == 2:
                violation[3] = 0.0
        return violation

    monkeypatch.setattr(kd_mod, "_violation", forced)
    (row,) = verify_theorem4([6], diagram_cache, samples=100, seed=1)
    key, n = list(_shares(diagram_cache, 6, 100).items())[1]
    assert row.passed is False
    assert row.detail == f"witness at {key}: 1 of {n} classified classical"


def test_theorem4_fails_on_a_hyperbola_row(diagram_cache, monkeypatch):
    real = verify_mod._witness_block
    key, n = list(_shares(diagram_cache, 6, 100).items())[-1]
    coset = coset_classical_state(CosetSpec(d=6, p=2)).amps_a  # profile (2, 3): product d

    def forced(u, point, count, rng):
        amps = real(u, point, count, rng)
        if (point.n_a, point.n_b) == key:
            amps[count // 2] = coset
        return amps

    monkeypatch.setattr(verify_mod, "_witness_block", forced)
    (row,) = verify_theorem4([6], diagram_cache, samples=100, seed=1)
    assert row.passed is False
    assert row.detail == (
        f"witness at {key}: 1 of {n} missed the profile, e.g. (2, 3); "
        f"witness at {key}: 1 of {n} classified classical"
    )


def test_theorem4_names_a_prediction_mismatch(diagram_cache, monkeypatch):
    monkeypatch.setattr(verify_mod, "predict_classicality_dft", lambda profile: Verdict.CLASSICAL)
    (row,) = verify_theorem4([6], diagram_cache, samples=100, seed=1)
    (key, n), *_ = _shares(diagram_cache, 6, 100).items()
    assert row.passed is False
    assert row.detail.startswith(f"witness at {key}: {n} of {n} predicted classical; ")


@pytest.mark.parametrize("d, skipped", [(3, 0), (4, 114), (6, 93), (8, 91), (10, 43)])
def test_theorem5_counts_the_states_it_skips(monkeypatch, d, skipped):
    real, classified = verify_mod.classify_state, []

    def spy(psi, u):
        classified.append(psi)
        return real(psi, u)

    monkeypatch.setattr(verify_mod, "classify_state", spy)
    (row,) = verify_theorem5([d], pairs=20, samples=100, seed=0)
    assert row.passed
    assert row.detail == "20 pairs x 100 states" + (f", {skipped} skipped" if skipped else "")
    assert len(classified) + skipped == 20 * 100


def test_lemma3_check_ranks_in_small_stacks():
    # SVD stacks of at most 2^14 entries bound the memory of the d=10 check
    # without changing its counts
    tracemalloc.start()
    try:
        assert lemma3_check(10) == (115100, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
