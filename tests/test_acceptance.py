"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Diagram enumerations are shared through the session-scoped
cache fixture; the default engine applies, which is exact at every d."""

import numpy as np
import pytest
from click.testing import CliRunner

from kduncd import (
    PointStatus,
    Verdict,
    classify_state,
    dft_matrix,
    divisors,
    point_exists,
    predict_corollary1,
    predict_theorem2,
    predict_theorem3,
    rank,
    support_profile,
    witness_state,
)
from kduncd.cli import main
from kduncd.diagram import _dft_block
from kduncd.verify import (
    lemma3_check,
    verify_suite,
    verify_theorem4,
    verify_theorem5,
)

from sampling_oracle import sampled_present_set


def _announce(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_figure_reproduction(diagram_cache):
    """Golden diagrams for d in {6, 8, 9, 10}: classical points exactly on the
    hyperbola, the known holes, and no feasible row-two holes for d = 6."""
    for d in (6, 8, 9, 10):
        diag = diagram_cache(d)
        present = diag.present_set()
        on_hyperbola = {p for p in present if p[0] * p[1] == d}
        assert on_hyperbola == {(p, d // p) for p in divisors(d)}
        assert all(a * b >= d for a, b in present)
        assert diag.elapsed < 60.0, f"d={d} took {diag.elapsed:.1f}s"
    assert diagram_cache(8).status(5, 2) is PointStatus.HOLE
    assert diagram_cache(9).status(5, 3) is PointStatus.HOLE
    assert diagram_cache(9).status(4, 3) is PointStatus.HOLE
    d6 = diagram_cache(6)
    assert {a for a in range(3, 7) if d6.status(a, 2) is PointStatus.HOLE} == set()
    assert d6.row_present(2) == frozenset({3, 4, 5, 6})
    _announce(1, "d in {6,8,9,10} diagrams match the published pattern")


def test_criterion_02_no_holes_on_or_above_the_line(diagram_cache):
    for d in range(1, 13):
        present = diagram_cache(d).present_set()
        missing = predict_corollary1(d).points - present
        assert not missing, f"d={d} missing {sorted(missing)}"
    _announce(2, "all points with n_a + n_b >= d + 1 are present for d <= 12")


def test_criterion_03_row_two_exactness(diagram_cache):
    for d in range(2, 13):
        predicted = {a for a, _ in predict_theorem2(d).points}
        actual = diagram_cache(d).row_present(2)
        assert actual == predicted, f"d={d}: {sorted(actual)} != {sorted(predicted)}"
    _announce(3, "row n_b=2 equals the divisor rule for every d in 2..12")


def test_criterion_04_row_three_check(diagram_cache):
    rows = verify_suite("T3", range(3, 13), diagram_cache)
    for row in rows:
        applicable = predict_theorem3(row.d).applicable
        if applicable or row.d == 8:
            assert row.passed is True, f"d={row.d}: {row.detail}"
        else:
            print(f"ACCEPTANCE 4 (report): d={row.d} {row.detail}")
        assert row.passed is not False
    _announce(4, "row n_b=3 matches the divisor rule; d=8 agrees as asserted")


def test_criterion_05_theorem4_property_suite(diagram_cache):
    rows = verify_theorem4(
        range(1, 13),
        diagram_cache,
        samples=1000,
        seed=20250,
    )
    for row in rows:
        assert row.passed, f"d={row.d}: {row.detail}"
    _announce(5, "coset states classical on the hyperbola, witnesses above it nonclassical")


def test_criterion_06_theorem5_property_suite():
    rows = verify_theorem5(range(2, 11), pairs=100, samples=100, seed=20251)
    for row in rows:
        assert row.passed, f"d={row.d}: {row.detail}"
    _announce(6, "random MUB states with a support count above d/2 all nonclassical")


def test_criterion_07_lemma3_exhaustive():
    total = 0
    for d in range(1, 13):
        checked, violations = lemma3_check(d)
        assert violations == 0, f"d={d}: {violations} rank defects"
        total += checked
    # exact-engine spot checks on a deterministic slice of instances
    rng = np.random.default_rng(20252)
    for d in (6, 8, 9):
        u = dft_matrix(d)
        for m in divisors(d)[:-1]:
            q = d // m
            for _ in range(20):
                t = int(rng.integers(1, q + 1))
                i0 = int(rng.integers(d))
                rows = sorted((i0 + m * k) % d for k in range(t))
                s = int(rng.integers(1, q + 1))
                residues = sorted(rng.choice(q, size=s, replace=False).tolist())
                cols = sorted(r + q * int(rng.integers(m)) for r in residues)
                cert = rank(_dft_block(d, rows, cols), order=d)
                assert cert.rank == min(s, t)
    _announce(7, f"{total} progression submatrices at d <= 12 all have rank min(s,t)")


@pytest.mark.slow
def test_criterion_08_sampling_oracle_equivalence(diagram_cache):
    for d in range(1, 7):
        sampled = sampled_present_set(d, samples=100_000, seed=20253 + d)
        lemma_based = diagram_cache(d).present_set()
        assert sampled == lemma_based, (
            f"d={d}: sampled-only {sorted(sampled - lemma_based)}, "
            f"search-only {sorted(lemma_based - sampled)}"
        )
    _announce(8, "rank-condition diagrams equal the sampled diagrams for d <= 6")


def test_criterion_09_engine_agreement(diagram_cache):
    # "both" computes each rank the cache misses with both engines and raises
    # on a disagreement; a cache hit compares nothing, so count the misses
    compared = 0
    for d in (8, 9, 10, 11, 12):
        both = diagram_cache(d, engine="both")
        baseline = diagram_cache(d)
        assert {k: p.status for k, p in both.points.items()} == {
            k: p.status for k, p in baseline.points.items()
        }
        compared += both.stats["rank_computed"]
    assert compared > 3000
    _announce(9, f"exact and numeric engines agree on all {compared} ranks computed")


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path):
    runner = CliRunner()
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.json"
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        result = runner.invoke(
            main,
            ["diagram", "--d", "9", "--out", str(out),
             "--csv", str(csv), "--svg", str(svg)],
        )
        assert result.exit_code == 0, result.output
        blobs.append((out.read_bytes(), csv.read_bytes(), svg.read_bytes()))
    assert blobs[0] == blobs[1]
    _announce(10, "repeated d=9 runs produce byte-identical JSON, CSV, and SVG")


def test_witness_examples_from_figure(diagram_cache):
    """Companion checks for the golden diagrams: the figure's marker kinds are
    realized by actual states."""
    u = dft_matrix(6)
    classical = witness_state(u, diagram_cache(6).points[(2, 3)], seed=99)
    assert classify_state(classical, u).verdict is Verdict.CLASSICAL
    p = support_profile(classical, u)
    assert (p.n_a, p.n_b) == (2, 3)
    nonclassical = witness_state(u, diagram_cache(6).points[(4, 4)], seed=99)
    assert classify_state(nonclassical, u).verdict is Verdict.NONCLASSICAL
    hole = point_exists(dft_matrix(8), 5, 2)
    assert hole.status is PointStatus.HOLE
