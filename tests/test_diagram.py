import json
import math
import random
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from kduncd import (
    DiagramPoint,
    IndeterminateDiagramError,
    PointCertificate,
    PointStatus,
    StateVector,
    TransitionKind,
    Verdict,
    WitnessSamplingError,
    check_submatrix_conditions,
    classify_state,
    dft_matrix,
    diagram_to_csv,
    diagram_to_dict,
    enumerate_diagram,
    is_completely_incompatible,
    load_diagram,
    point_exists,
    predict_corollary1,
    predict_theorem1,
    predict_theorem2,
    predict_theorem3,
    random_mub_pair,
    rank,
    save_diagram,
    support_profile,
    witness_state,
)
from kduncd.diagram import (
    _WITNESS_TRIES,
    _column_representatives,
    _conditions_hold,
    _dft_block,
    _least_rotations,
    _mask,
    _mirrored_point,
    _RankOracle,
    _resolve_engine,
    _witness_block,
)

from sampling_oracle import sampled_present_set


# ---------------------------------------------------------------------------
# the three rank conditions


def test_conditions_d2_single_row():
    # M = (1, -1)/sqrt(2): rank 1 < 2; adding row 0 gives rank 2; either
    # column alone keeps rank 1
    ok, cert = check_submatrix_conditions(dft_matrix(2), [1], [0, 1])
    assert ok
    assert cert.base.rank == 1
    assert dict(kv for kv in ((k, c.rank) for k, c in cert.added)) == {0: 2}
    assert [c.rank for _, c in cert.removed] == [1, 1]


def test_conditions_d4_hyperbola_block():
    ok, cert = check_submatrix_conditions(dft_matrix(4), [1, 3], [0, 2])
    assert ok
    assert cert.base.rank == 1
    assert all(c.rank == 2 for _, c in cert.added)
    assert all(c.rank == 1 for _, c in cert.removed)


def test_conditions_fail_on_full_rank():
    ok, cert = check_submatrix_conditions(dft_matrix(4), [0, 1], [0, 1])
    assert not ok
    assert cert.base.rank == 2  # condition (i) fails
    assert cert.added == ()


@pytest.mark.parametrize("engine", ["exact", "numeric"])
def test_conditions_audit_stops_at_failing_row(engine):
    # d=6, rows {0}, cols {0, 2}: rank 1; rows 1 and 2 raise it, row 3 does not
    ok, cert = check_submatrix_conditions(dft_matrix(6), [0], [0, 2], engine=engine)
    assert not ok
    assert cert.base.rank == 1
    assert [(k, c.rank) for k, c in cert.added] == [(1, 2), (2, 2), (3, 1)]
    assert cert.removed == ()


@pytest.mark.parametrize("engine", ["exact", "numeric"])
def test_conditions_audit_stops_at_failing_column(engine):
    # d=4, rows {0, 2}, cols {0, 1, 2}: (i) and (ii) hold; dropping column 1
    # lowers the rank
    ok, cert = check_submatrix_conditions(dft_matrix(4), [0, 2], [0, 1, 2], engine=engine)
    assert not ok
    assert cert.base.rank == 2
    assert [(k, c.rank) for k, c in cert.added] == [(1, 3), (3, 3)]
    assert [(k, c.rank) for k, c in cert.removed] == [(0, 2), (1, 1)]


def test_conditions_engines_agree():
    for engine in ("exact", "numeric"):
        ok, cert = check_submatrix_conditions(dft_matrix(6), [0, 3], [0, 2, 4], engine=engine)
        assert ok
        assert cert.base.rank == 1


def _sequential_audit(u, rows, cols, engine):
    """The audit with one rank() call per block, in the order the
    conditions read them, as (verdict, base, added, removed) ranks."""
    d = u.d
    seen = []

    def rank_of(r, c):
        if engine == "exact":
            seen.append(rank(_dft_block(d, r, c), order=d).rank)
        else:
            seen.append(rank(u.numeric[np.ix_(r, c)]).rank)
        return seen[-1]

    ok = _conditions_hold(rank_of, d, tuple(rows), tuple(cols))
    n_out = d - len(rows)
    return ok, seen[0], seen[1 : 1 + n_out], seen[1 + n_out :]


def _audited_ranks(ok, cert):
    return ok, cert.base.rank, [c.rank for _, c in cert.added], [c.rank for _, c in cert.removed]


@pytest.mark.parametrize("engine", ["exact", "numeric"])
def test_stacked_audit_stops_where_the_sequential_audit_stops(engine):
    # random candidates at d=6 failing at (i), (ii) and (iii): the stacked
    # audit keeps the certificates the sequential one reads, no more
    u = dft_matrix(6)
    rng = random.Random(6)
    stops = set()
    for _ in range(300):
        rows = tuple(sorted(rng.sample(range(6), rng.randint(0, 5))))
        cols = tuple(sorted(rng.sample(range(6), rng.randint(1, 6))))
        got = _audited_ranks(*check_submatrix_conditions(u, rows, cols, engine=engine))
        want = _sequential_audit(u, rows, cols, engine)
        assert got == want, (rows, cols)
        ok, base, added, removed = want
        stops.add("ok" if ok else "i" if not added else "ii" if not removed else "iii")
    assert stops == {"ok", "i", "ii", "iii"}


@pytest.mark.parametrize(
    "engine, dims", [("exact", range(1, 10)), ("numeric", range(1, 13))]
)
def test_stacked_audit_ranks_equal_per_block_ranks(engine, dims, diagram_cache):
    for d in dims:
        u = dft_matrix(d)
        diag = diagram_cache(d, engine=engine)
        for (a, b) in sorted(diag.present_set()):
            cert = diag.points[(a, b)].certificate
            got = _audited_ranks(True, cert)
            assert got == _sequential_audit(u, cert.rows, cert.cols, engine), (d, a, b)
            if engine == "exact":
                audited = [cert.base, *(c for _, c in cert.added), *(c for _, c in cert.removed)]
                assert all(len(c.pivots) == c.rank for c in audited)


def test_conditions_validate_indices():
    with pytest.raises(ValueError):
        check_submatrix_conditions(dft_matrix(4), [0, 0], [1])
    with pytest.raises(ValueError):
        check_submatrix_conditions(dft_matrix(4), [0], [])
    with pytest.raises(ValueError):
        check_submatrix_conditions(dft_matrix(4), [0], [4])


# ---------------------------------------------------------------------------
# single points


def test_point_hole_d8():
    pt = point_exists(dft_matrix(8), 5, 2)
    assert pt.status is PointStatus.HOLE
    assert "exhausted" in pt.note


@pytest.mark.parametrize("point", [(5, 3), (4, 3)])
def test_point_holes_d9(point):
    pt = point_exists(dft_matrix(9), *point)
    assert pt.status is PointStatus.HOLE


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6])
def test_point_full_profile_always_present(d):
    pt = point_exists(dft_matrix(d), d, d)
    assert pt.status is PointStatus.PRESENT
    assert pt.certificate.rows == ()


def test_point_basis_vector_present():
    pt = point_exists(dft_matrix(2), 1, 2)
    assert pt.status is PointStatus.PRESENT


def test_point_budget_yields_unknown_not_hole():
    pt = point_exists(dft_matrix(8), 5, 2, max_checks=10)
    assert pt.status is PointStatus.UNKNOWN
    assert "aborted" in pt.note


# ---------------------------------------------------------------------------
# whole diagrams


def test_diagram_d6_row_two(diagram_cache):
    assert diagram_cache(6).row_present(2) == frozenset({3, 4, 5, 6})


def test_diagram_d6_half_plane(diagram_cache):
    diag = diagram_cache(6)
    for a in range(1, 7):
        for b in range(1, 7):
            if a + b >= 7:
                assert diag.status(a, b) is PointStatus.PRESENT


def test_diagram_d4_matches_sampling_oracle(diagram_cache):
    sampled = sampled_present_set(4, samples=10_000, seed=7)
    assert diagram_cache(4).present_set() == sampled


@pytest.mark.parametrize("d", range(1, 13))
def test_diagram_symmetric(d, diagram_cache):
    assert diagram_cache(d).is_symmetric()


@pytest.mark.parametrize("d", range(1, 13))
def test_no_present_point_below_hyperbola(d, diagram_cache):
    assert all(a * b >= d for a, b in diagram_cache(d).present_set())


def _full_scan(u, engine, points):
    """Status and first certifying (rows, cols) of each point, found by
    scanning every selection in lexicographic order, columns outer."""
    d = u.d
    oracle = _RankOracle(u, engine)
    found = {}
    for n_a, n_b in points:
        found[(n_a, n_b)] = (PointStatus.HOLE, None)
        for cols in combinations(range(d), n_b):
            rows = next(
                (r for r in combinations(range(d), d - n_a)
                 if _conditions_hold(oracle.rank_of, d, r, cols)),
                None,
            )
            if rows is not None:
                found[(n_a, n_b)] = (PointStatus.PRESENT, (rows, cols))
                break
    return found


def _outcomes(diag):
    return {
        k: (p.status, p.certificate and (p.certificate.rows, p.certificate.cols))
        for k, p in diag.points.items()
    }


def _mirror(d, selection):
    """The complement-swap (Z_d - C, Z_d - R) of a selection (R, C)."""
    rows, cols = selection
    return tuple(x for x in range(d) if x not in cols), tuple(x for x in range(d) if x not in rows)


@pytest.mark.parametrize("engine", ["exact", "numeric"])
@pytest.mark.parametrize("d", range(1, 9))
def test_quotient_search_matches_full_scan(d, engine, diagram_cache):
    # the orbit quotient must give every status of the scan over all row and
    # column selections, and its certificate for n_a <= n_b; a point with
    # n_a > n_b carries its mirror's certificate, complement-swapped
    diag = diagram_cache(d, engine=engine)
    scan = _full_scan(dft_matrix(d), engine, diag.points)
    want = {
        (a, b): (status, cert if a <= b or cert is None else _mirror(d, scan[(b, a)][1]))
        for (a, b), (status, cert) in scan.items()
    }
    assert _outcomes(diag) == want


@pytest.mark.parametrize("d", range(1, 11))
def test_mirrored_statuses_match_the_unmirrored_search(d, diagram_cache):
    # each n_a > n_b point is read off its mirror; searched on its own it gets
    # the same status, so is_symmetric() still compares two searches
    u = dft_matrix(d)
    for (a, b), point in diagram_cache(d).points.items():
        if a > b:
            assert point_exists(u, a, b).status is point.status, (a, b)


@pytest.mark.parametrize("d", range(1, 13))
def test_mirrored_certificates_are_complement_swaps(d, diagram_cache):
    u = dft_matrix(d)
    diag = diagram_cache(d)
    for (a, b), point in diag.points.items():
        if a <= b:
            continue
        if point.status is PointStatus.HOLE:
            assert point.note == f"mirror of ({b}, {a})"
            continue
        cert, partner = point.certificate, diag.points[(b, a)].certificate
        assert (cert.rows, cert.cols) == _mirror(d, (partner.rows, partner.cols)), (a, b)
        assert check_submatrix_conditions(u, cert.rows, cert.cols, engine="exact")[0], (a, b)


def test_mirrored_point_needs_a_decided_mirror_that_passes_the_audit():
    u = dft_matrix(6)
    hole = _mirrored_point(u, "exact", DiagramPoint(n_a=1, n_b=2, status=PointStatus.HOLE))
    assert hole == DiagramPoint(n_a=2, n_b=1, status=PointStatus.HOLE, note="mirror of (1, 2)")
    unknown = DiagramPoint(n_a=2, n_b=4, status=PointStatus.UNKNOWN)
    assert _mirrored_point(u, "exact", unknown) is None
    # mirrors to rows {4, 5} and columns {4, 5}, a full-rank block
    forged = PointCertificate(rows=(0, 1, 2, 3), cols=(0, 1, 2, 3))
    present = DiagramPoint(n_a=2, n_b=4, status=PointStatus.PRESENT, certificate=forged)
    assert _mirrored_point(u, "exact", present) is None


def test_general_matrix_search_scans_every_selection():
    # the affine symmetries are those of the DFT; another basis pair keeps
    # the full scan
    u = random_mub_pair(6, seed=0)
    diag = enumerate_diagram(u, engine="numeric")
    assert _outcomes(diag) == _full_scan(u, "numeric", diag.points)


def test_column_representatives_are_orbit_minima():
    # pairs of Z_8 up to x -> ax + s are classed by their difference up to
    # sign and units: 1, 2 or 4
    assert _column_representatives(8, 2) == ((0, 1), (0, 2), (0, 4))
    for d in range(1, 9):
        units = [a for a in range(d) if math.gcd(a, d) == 1]
        for size in range(d + 1):
            reps = _column_representatives(d, size)
            assert list(reps) == sorted(reps)
            orbit_min = {
                cols: min(
                    tuple(sorted((a * x + s) % d for x in cols))
                    for a in units
                    for s in range(d)
                )
                for cols in combinations(range(d), size)
            }
            assert set(reps) == set(orbit_min.values())



@pytest.mark.parametrize("d", range(1, 13))
def test_least_rotations_match_brute_force(d):
    table = _least_rotations(d)
    assert len(table) == 1 << d
    for mask in range(1 << d):
        members = [x for x in range(d) if mask >> x & 1]
        assert table[mask] == min(_mask((x + s) % d for x in members) for s in range(d))


@pytest.mark.parametrize("d", range(2, 13))
def test_orbit_members_share_key_and_rank(d):
    # every row shift, every column shift and the transpose of a selection
    # get its cache key, and both engines give them all one rank
    rng = random.Random(d)
    u = dft_matrix(d)
    oracle = _RankOracle(u, "both")
    engines = [_RankOracle(u, engine) for engine in ("exact", "numeric")]

    def shift(xs, s):
        return tuple(sorted((x + s) % d for x in xs))

    for _ in range(4):
        rows = tuple(sorted(rng.sample(range(d), rng.randint(1, d))))
        cols = tuple(sorted(rng.sample(range(d), rng.randint(1, d))))
        members = [(shift(rows, s), cols) for s in range(d)]
        members += [(rows, shift(cols, s)) for s in range(d)]
        members.append((shift(cols, 1), shift(rows, 2)))
        keys = {oracle._keys((_mask(r),), _mask(c))[0] for r, c in members}
        assert len(keys) == 1
        ranks = {e._compute([r], c)[0] for r, c in members for e in engines}
        assert len(ranks) == 1, (rows, cols, ranks)


def _scan_order(d, n_a, n_b):
    """The DFT search's column and row sets for one point, in scan order."""
    n_rows = d - n_a
    row_sets = [(0,) + r for r in combinations(range(1, d), n_rows - 1)] if n_rows else [()]
    return _column_representatives(d, n_b), row_sets


@pytest.mark.parametrize("engine", ["exact", "numeric"])
@pytest.mark.parametrize("d", [6, 7, 8])
def test_budget_boundaries(d, engine):
    # a Present point certified by candidate k needs a budget of exactly k,
    # a Hole with N candidates a budget of exactly N
    u = dft_matrix(d)
    for n_a, n_b in product(range(1, d + 1), repeat=2):
        point = point_exists(u, n_a, n_b, engine=engine)
        col_sets, row_sets = _scan_order(d, n_a, n_b)
        if point.status is PointStatus.PRESENT:
            cert = point.certificate
            k = col_sets.index(cert.cols) * len(row_sets) + row_sets.index(cert.rows) + 1
        else:
            k = len(col_sets) * len(row_sets)
        at = point_exists(u, n_a, n_b, engine=engine, max_checks=k)
        assert (at.status, at.note) == (point.status, point.note), (n_a, n_b)
        if point.status is PointStatus.PRESENT:
            assert (at.certificate.rows, at.certificate.cols) == (cert.rows, cert.cols)
        else:
            assert point.note == f"exhausted {k} candidates"
        below = point_exists(u, n_a, n_b, engine=engine, max_checks=k - 1)
        assert below.status is PointStatus.UNKNOWN, (n_a, n_b)


@pytest.mark.parametrize("d", [9, 10])
def test_screened_numeric_search_finds_the_exact_certificates(d, diagram_cache):
    numeric = diagram_cache(d, engine="numeric")
    exact = diagram_cache(d, engine="exact")
    assert _outcomes(numeric) == _outcomes(exact)
    assert len(exact.present_set()) > 50

@pytest.mark.parametrize("d", [5, 6, 7])
def test_exact_and_numeric_diagrams_agree(d, diagram_cache):
    exact = diagram_cache(d, engine="exact")
    numeric = diagram_cache(d, engine="numeric")
    assert {k: p.status for k, p in exact.points.items()} == {
        k: p.status for k, p in numeric.points.items()
    }


@pytest.mark.parametrize("d", range(1, 11))
def test_engines_share_rank_counters(d, diagram_cache):
    # every engine screens each column set eagerly through one code path,
    # so requests and computed ranks do not depend on the engine
    counters = {
        engine: diagram_cache(d, engine=engine).stats
        for engine in ("numeric", "exact", "both")
    }
    assert counters["exact"] == counters["both"] == counters["numeric"]
    pinned = {8: (1897, 303), 9: (3444, 537), 10: (12105, 1666)}
    if d in pinned:
        stats = counters["exact"]
        assert (stats["rank_requests"], stats["rank_computed"]) == pinned[d]


def test_enumerate_rejects_oversized_exact(diagram_cache):
    # one size limit for every engine: exact and both run d=10 without
    # allow_large, every engine refuses d=13, and auto keeps its switch
    for engine in ("exact", "both"):
        assert not diagram_cache(10, engine=engine).unknown_set()
    for engine in ("auto", "exact", "numeric", "both"):
        with pytest.raises(ValueError, match="enumeration is limited to d <= 12 by default"):
            enumerate_diagram(dft_matrix(13), engine=engine)
    assert [_resolve_engine(d, TransitionKind.DFT, "auto", False) for d in range(1, 13)] == (
        ["exact"] * 9 + ["numeric"] * 3
    )


@pytest.mark.slow
def test_engine_agreement_full_d10_enumeration(diagram_cache):
    """Every rank the d=10 enumeration touches agrees across engines."""
    diag = diagram_cache(10, engine="both")
    assert not diag.unknown_set()
    assert diag.is_symmetric()


def test_prime_d13_diagram_is_the_half_plane():
    # Chebotarev/Tao: at prime d the diagram is exactly n_a + n_b >= d + 1
    u = dft_matrix(13)
    diag = enumerate_diagram(u, engine="numeric", allow_large=True)
    assert is_completely_incompatible(u, diagram=diag)


@pytest.mark.parametrize("d", [13, 14])
def test_large_numeric_diagrams_match_the_checked_in_statuses(d, diagram_cache):
    # data/dft_statuses_13_16.json holds the --engine both diagrams of d=13..16
    data = json.loads((Path(__file__).parent / "data" / "dft_statuses_13_16.json").read_text())
    diag = diagram_cache(d, engine="numeric", allow_large=True)
    grid = [
        "".join("P" if diag.status(a, b) is PointStatus.PRESENT else "H" for b in range(1, d + 1))
        for a in range(1, d + 1)
    ]
    assert grid == data["statuses"][str(d)]


@pytest.mark.slow
def test_prime_d13_diagram_engines_agree():
    u = dft_matrix(13)
    diag = enumerate_diagram(u, engine="both", allow_large=True)
    assert is_completely_incompatible(u, diagram=diag)


def test_enumerate_budget_marks_unknown():
    diag = enumerate_diagram(dft_matrix(5), max_checks=2)
    assert diag.unknown_set()
    with pytest.raises(IndeterminateDiagramError):
        is_completely_incompatible(dft_matrix(5), diagram=diag)


def test_certificates_revalidate_with_both_engines(diagram_cache):
    diag = diagram_cache(6)
    for (a, b) in sorted(diag.present_set()):
        cert = diag.points[(a, b)].certificate
        for engine in ("exact", "numeric"):
            ok, again = check_submatrix_conditions(
                dft_matrix(6), cert.rows, cert.cols, engine=engine
            )
            assert ok, f"certificate for ({a},{b}) failed under {engine}"
            assert again.base.rank == cert.base.rank


def test_engine_both_certificates_are_exact(diagram_cache):
    diag = diagram_cache(6, engine="both")
    for (a, b) in sorted(diag.present_set()):
        cert = diag.points[(a, b)].certificate
        audited = [cert.base, *(c for _, c in cert.added), *(c for _, c in cert.removed)]
        assert {c.engine for c in audited} == {"exact"}, f"({a},{b})"


def test_numeric_diagram_certificates_have_no_pivots(diagram_cache):
    diag = diagram_cache(6, engine="numeric")
    assert diag.present_set()
    for (a, b) in sorted(diag.present_set()):
        cert = diag.points[(a, b)].certificate
        audited = [cert.base, *(c for _, c in cert.added), *(c for _, c in cert.removed)]
        assert all(c.engine == "numeric" and c.pivots == () for c in audited), f"({a},{b})"


# ---------------------------------------------------------------------------
# complete incompatibility


def test_complete_incompatibility_prime(diagram_cache):
    assert is_completely_incompatible(dft_matrix(5), diagram=diagram_cache(5))
    assert is_completely_incompatible(dft_matrix(2), diagram=diagram_cache(2))


def test_complete_incompatibility_fails_composite(diagram_cache):
    assert not is_completely_incompatible(dft_matrix(6), diagram=diagram_cache(6))


# ---------------------------------------------------------------------------
# witnesses


def test_witness_basis_point_d2(diagram_cache):
    u = dft_matrix(2)
    pt = diagram_cache(2).points[(1, 2)]
    psi = witness_state(u, pt, seed=5)
    profile = support_profile(psi, u)
    assert (profile.n_a, profile.n_b) == (1, 2)
    for r in pt.certificate.rows:  # an A-basis vector avoiding the certified rows
        assert abs(psi.amps_a[r]) < 1e-12


def test_witness_classical_point_d6(diagram_cache):
    u = dft_matrix(6)
    psi = witness_state(u, diagram_cache(6).points[(2, 3)], seed=6)
    assert classify_state(psi, u).verdict is Verdict.CLASSICAL
    profile = support_profile(psi, u)
    assert profile.n_a * profile.n_b == 6


def test_witness_nonclassical_point_d6(diagram_cache):
    u = dft_matrix(6)
    psi = witness_state(u, diagram_cache(6).points[(4, 4)], seed=7)
    assert classify_state(psi, u).verdict is Verdict.NONCLASSICAL


@pytest.mark.parametrize("seed", [0, 7, 99])
def test_witness_state_is_the_one_row_block(diagram_cache, seed):
    u = dft_matrix(8)
    for key in sorted(diagram_cache(8).present_set()):
        point = diagram_cache(8).points[key]
        (row,) = _witness_block(u, point, 1, np.random.default_rng(seed), 1e-10)
        assert row.tobytes() == witness_state(u, point, seed=seed).amps_a.tobytes()


@pytest.mark.parametrize("d", range(2, 9))
def test_every_block_row_has_the_point_profile(diagram_cache, d):
    u = dft_matrix(d)
    rng = np.random.default_rng(300 + d)
    for key in sorted(diagram_cache(d).present_set()):
        amps = _witness_block(u, diagram_cache(d).points[key], 24, rng, 1e-10)
        for row in amps:
            profile = support_profile(StateVector(d=d, amps_a=row), u)
            assert (profile.n_a, profile.n_b) == key


def test_witness_block_redraws_only_the_rows_that_miss(diagram_cache, monkeypatch):
    import kduncd.diagram as diagram_mod

    real, sizes = diagram_mod._support_masks, []

    def miss_first_row_once(amps, u, eps):
        masks = real(amps, u, eps)
        sizes.append(len(amps))
        if len(sizes) == 1:
            masks[:, 0] = True  # row 0 reads full support in both bases
        return masks

    monkeypatch.setattr(diagram_mod, "_support_masks", miss_first_row_once)
    point, rng = diagram_cache(6).points[(4, 4)], np.random.default_rng(0)
    _witness_block(dft_matrix(6), point, 10, rng, 1e-10)
    assert sizes == [10, 1]
    monkeypatch.setattr(diagram_mod, "_support_masks", lambda amps, u, eps: real(amps, u, 1.0))
    with pytest.raises(WitnessSamplingError, match=f"in {_WITNESS_TRIES} tries"):
        _witness_block(dft_matrix(6), point, 3, rng, 1e-10)


def test_witness_trivial_nullspace_raises():
    # a full-rank 2x2 block certifies nothing: its nullspace is {0}
    cert = PointCertificate(rows=(0, 1), cols=(0, 1))
    point = DiagramPoint(n_a=2, n_b=2, status=PointStatus.PRESENT, certificate=cert)
    with pytest.raises(WitnessSamplingError):
        witness_state(dft_matrix(4), point, seed=0)


def test_witness_requires_present_point(diagram_cache):
    u = dft_matrix(8)
    hole = point_exists(u, 5, 2)
    with pytest.raises(ValueError):
        witness_state(u, hole, seed=0)


# ---------------------------------------------------------------------------
# closed-form predictions


def test_theorem1_prediction_examples():
    pts6 = predict_theorem1(6).points
    assert {(4, 2), (4, 3)} <= pts6  # divisor 2 with its first multiple
    assert (2, 3) in pts6 and (3, 2) in pts6
    assert (3, 3) not in pts6
    assert (3, 2) in predict_theorem1(4).points
    assert predict_theorem1(1).points == frozenset({(1, 1)})


def test_theorem1_claims_are_present(diagram_cache):
    for d in range(1, 9):
        assert predict_theorem1(d).points <= diagram_cache(d).present_set()


def test_corollary1_counts():
    assert predict_corollary1(2).points == frozenset({(1, 2), (2, 1), (2, 2)})
    assert len(predict_corollary1(6).points) == 21  # pairs from 1..6 with sum >= 7


def test_corollary1_region_present(diagram_cache):
    for d in range(1, 9):
        assert predict_corollary1(d).points <= diagram_cache(d).present_set()


@pytest.mark.parametrize(
    "d, n_as",
    [(8, {8, 7, 6, 4}), (6, {6, 5, 4, 3}), (10, {10, 9, 8, 5})],
)
def test_theorem2_row_sets(d, n_as):
    assert predict_theorem2(d).points == frozenset((a, 2) for a in n_as)


def test_theorem2_matches_enumeration(diagram_cache):
    for d in range(2, 9):
        predicted = {a for a, _ in predict_theorem2(d).points}
        assert diagram_cache(d).row_present(2) == predicted


def test_theorem3_row_sets():
    p9 = predict_theorem3(9)
    assert p9.points == frozenset((a, 3) for a in {9, 8, 7, 6, 3})
    assert p9.applicable
    p8 = predict_theorem3(8)
    assert not p8.applicable  # 4 divides 8 and is not prime
    assert p8.points == frozenset((a, 3) for a in {8, 7, 6, 4})
    p3 = predict_theorem3(3)
    assert p3.points == frozenset((a, 3) for a in {3, 2, 1})


def test_theorem3_matches_enumeration(diagram_cache):
    for d in range(3, 9):
        predicted = {a for a, _ in predict_theorem3(d).points}
        assert diagram_cache(d).row_present(3) == predicted


# ---------------------------------------------------------------------------
# serialization


def test_diagram_round_trip(tmp_path, diagram_cache):
    diag = diagram_cache(5)
    path = tmp_path / "diag.json"
    save_diagram(path, diag)
    first = path.read_bytes()
    loaded = load_diagram(path)
    assert diagram_to_dict(loaded) == diagram_to_dict(diag)
    save_diagram(path, loaded)
    assert path.read_bytes() == first


def test_diagram_csv_shape(diagram_cache):
    text = diagram_to_csv(diagram_cache(3))
    lines = text.strip().split("\n")
    assert lines[0] == "na,nb,status"
    assert len(lines) == 1 + 9
    assert lines[1] == "1,1,hole"
    assert lines[-1] == "3,3,present"


def test_diagram_json_schema(diagram_cache):
    payload = diagram_to_dict(diagram_cache(2))
    assert list(payload.keys()) == ["d", "engine", "points"]
    for point in payload["points"]:
        assert list(point.keys()) == ["na", "nb", "status", "rows", "cols"]
        if point["status"] == "present":
            assert isinstance(point["rows"], list) and isinstance(point["cols"], list)
        else:
            assert point["rows"] is None and point["cols"] is None
    json.dumps(payload)  # serializable
