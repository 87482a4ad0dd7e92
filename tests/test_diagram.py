import json
import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from kduncd import (
    DiagramPoint,
    EngineDisagreementError,
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
    random_state_in_subspace,
    rank,
    save_diagram,
    support_profile,
    witness_state,
)
from kduncd import diagram
from kduncd.diagram import (
    _WITNESS_TRIES,
    _affine_keys,
    _audited,
    _block_ranks,
    _column_orbits,
    _conditions_hold,
    _conditions_ii_iii,
    _dft_block,
    _find_point,
    _mask,
    _mirrored_point,
    _RankOracle,
    _resolve_engine,
    _screen,
    _witness_block,
)
from kduncd.linalg import svd_rank

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
    "engine, dims", [("exact", range(1, 13)), ("numeric", range(1, 13))]
)
def test_stacked_audit_ranks_equal_per_block_ranks(engine, dims, diagram_cache):
    # a diagram row's certificates are audited as one rank stack; each
    # equals the audit of its selection on its own, pivots included, and
    # block by block the rank of that block alone
    for d in dims:
        u = dft_matrix(d)
        diag = diagram_cache(d, engine=engine)
        for (a, b) in sorted(diag.present_set()):
            cert = diag.points[(a, b)].certificate
            audit = check_submatrix_conditions(u, cert.rows, cert.cols, engine=engine)
            assert audit == (True, cert), (d, a, b)
            got = _audited_ranks(True, cert)
            assert got == _sequential_audit(u, cert.rows, cert.cols, engine), (d, a, b)
            if engine == "exact":
                audited = [cert.base, *(c for _, c in cert.added), *(c for _, c in cert.removed)]
                assert all(len(c.pivots) == c.rank for c in audited)


@pytest.mark.parametrize("d", range(2, 10))
def test_shared_exact_certificates_are_each_blocks_own(d, diagram_cache):
    # the audit shares one certificate per distinct value; each block's must
    # still be the one rank() gives that block alone, pivots included
    diag = diagram_cache(d, engine="exact")
    objects = {}
    for (a, b) in sorted(diag.present_set()):
        cert = diag.points[(a, b)].certificate
        rows, cols = cert.rows, cert.cols
        blocks = [(rows, cols, cert.base)]
        blocks += [(tuple(sorted(rows + (k,))), cols, c) for k, c in cert.added]
        blocks += [(rows, tuple(x for x in cols if x != j), c) for j, c in cert.removed]
        for r, c, got in blocks:
            alone = rank(_dft_block(d, r, c), order=d)
            assert (got.rank, got.pivots) == (alone.rank, alone.pivots), (a, b, r, c)
            objects[id(got)] = got
    values = {(c.rank, c.pivots, c.tolerance) for c in objects.values()}
    assert len(objects) <= len(values)


def test_conditions_validate_indices():
    with pytest.raises(ValueError):
        check_submatrix_conditions(dft_matrix(4), [0, 0], [1])
    with pytest.raises(ValueError):
        check_submatrix_conditions(dft_matrix(4), [0], [])
    with pytest.raises(ValueError):
        check_submatrix_conditions(dft_matrix(4), [0], [4])


@pytest.mark.parametrize("check", [check_submatrix_conditions, random_state_in_subspace])
@pytest.mark.parametrize("bad", [1.5, 0.9, "1", 1.0, None])
def test_non_integer_indices_are_rejected(check, bad):
    # an index goes through operator.index, never rounded or parsed
    u = dft_matrix(6)
    for rows, cols in (([bad], [0, 3]), (range(5), [0, bad])):
        with pytest.raises(ValueError, match=f"index {bad!r} is not an integer"):
            check(u, rows, cols)
    # Python and numpy integers keep working: rows {0, ..., 4} on columns
    # {0, 3} leave a one-dimensional subspace to sample
    check(u, [0, 1, 2, np.int64(3), 4], [np.intp(0), 3])


@pytest.mark.parametrize("bad", [2.0, 2.5, "3"])
def test_point_exists_rejects_non_integer_coordinates(bad):
    # (bad, 3) and (3, bad) are searched points at d=6, (bad, 6) and (6, bad)
    # lie in the half-plane; a coordinate goes through operator.index too
    u = dft_matrix(6)
    for n_a, n_b in [(bad, 3), (3, bad), (bad, 6), (6, bad)]:
        with pytest.raises(ValueError, match=f"index {bad!r} is not an integer"):
            point_exists(u, n_a, n_b)
    assert point_exists(u, np.int64(2), np.intp(3)).status is PointStatus.PRESENT


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


def _stabilizer(d, cols):
    """Number of maps x -> ax + s, a a unit mod d, that fix ``cols``."""
    units = [a for a in range(d) if math.gcd(a, d) == 1]
    return sum({(a * x + s) % d for x in cols} == set(cols) for a in units for s in range(d))


def _by_stabilizer(d, col_sets):
    """``col_sets`` by descending stabilizer size, ties in their given order."""
    return sorted(col_sets, key=lambda cols: -_stabilizer(d, cols))


def _first_candidate(oracle, d, n_a, col_sets):
    """First (rows, cols) that meets (i)-(iii), columns outer in the order of
    ``col_sets``, rows in lex order, or None."""
    for cols in col_sets:
        for rows in combinations(range(d), d - n_a):
            if _conditions_hold(oracle.rank_of, d, rows, cols):
                return rows, cols
    return None


def _full_scan(u, engine, points):
    """Status and first certifying (rows, cols) of each point, found by
    scanning every selection, columns outer, in lex order.  At a DFT point
    below the half-plane (n_a + n_b <= d) the column sets run by descending
    stabilizer size, then lex, as the search's orbits do; in the half-plane
    the lex scan's first candidate is the search's closed form."""
    d = u.d
    oracle = _RankOracle(u, engine)
    found = {}
    for n_a, n_b in points:
        col_sets = list(combinations(range(d), n_b))
        if u.kind is TransitionKind.DFT and n_a + n_b <= d:
            col_sets = _by_stabilizer(d, col_sets)
        first = _first_candidate(oracle, d, n_a, col_sets)
        found[(n_a, n_b)] = (PointStatus.HOLE if first is None else PointStatus.PRESENT, first)
    return found


def _outcome(p):
    return p.status, p.certificate and (p.certificate.rows, p.certificate.cols), p.note


def _outcomes(diag):
    return {k: _outcome(p)[:2] for k, p in diag.points.items()}


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
    hole = _mirrored_point(6, DiagramPoint(n_a=1, n_b=2, status=PointStatus.HOLE))
    assert hole == DiagramPoint(n_a=2, n_b=1, status=PointStatus.HOLE, note="mirror of (1, 2)")
    # mirrors to rows {4, 5} and columns {4, 5}, a full-rank block: the
    # complement-swap is returned unaudited, and a mirrored certificate is a
    # theorem, so one that fails its audit raises and is never searched
    forged = PointCertificate(rows=(0, 1, 2, 3), cols=(0, 1, 2, 3))
    present = DiagramPoint(n_a=2, n_b=4, status=PointStatus.PRESENT, certificate=forged)
    mirrored = _mirrored_point(6, present)
    swap = PointCertificate(rows=(4, 5), cols=(4, 5))
    assert mirrored == DiagramPoint(n_a=4, n_b=2, status=PointStatus.PRESENT, certificate=swap)
    with pytest.raises(RuntimeError, match=r"\(4, 2\) fails the exact audit: \(4, 5\) x \(4, 5\)"):
        _audited(u, "exact", [mirrored])


def test_general_matrix_search_scans_every_selection():
    # the affine symmetries are those of the DFT; another basis pair keeps
    # the full scan
    u = random_mub_pair(6, seed=0)
    diag = enumerate_diagram(u, engine="numeric")
    assert _outcomes(diag) == _full_scan(u, "numeric", diag.points)
    assert diag.hole_set()
    for n_a, n_b in sorted(diag.hole_set()):
        n = math.comb(6, 6 - n_a) * math.comb(6, n_b)
        assert point_exists(u, n_a, n_b, engine="numeric").note == f"exhausted {n} candidates"


def test_column_representatives_are_orbit_minima():
    # _column_orbits gives the least member of each orbit under x -> ax + s.
    # Pairs of Z_8 are classed by their difference up to sign and units:
    # 1, 2 or 4
    assert sorted(_column_orbits(8, 2).firsts) == [(0, 1), (0, 2), (0, 4)]
    for d in range(1, 9):
        units = [a for a in range(d) if math.gcd(a, d) == 1]
        for size in range(d + 1):
            orbit_minima = {
                min(tuple(sorted((a * x + s) % d for x in cols)) for a in units for s in range(d))
                for cols in combinations(range(d), size)
            }
            assert sorted(_column_orbits(d, size).firsts) == sorted(orbit_minima)


def _reference_column_orbits(d, size):
    """The column orbits as built before they shared ``_screen``'s table:
    every size-subset of Z_d keyed by its own ``_affine_keys`` sweep, each
    orbit led by its lex-first member, by ascending orbit size, then lex."""
    col_sets = list(combinations(range(d), size))
    keys = _affine_keys(d, col_sets)
    _, firsts, counts = np.unique(keys, return_index=True, return_counts=True)
    order = firsts[np.lexsort((firsts, counts))]
    return [col_sets[i] for i in order], keys[order].tolist(), len(col_sets)


def _reference_screen(d, n_rows):
    """The DFT row screen as built before it carried counts through 0."""
    row_sets = [(0,) + rest for rest in combinations(range(1, d), n_rows - 1)]
    keys = _affine_keys(d, row_sets)
    firsts = np.sort(np.unique(keys, return_index=True)[1])
    return [row_sets[i] for i in firsts], keys[firsts].tolist(), len(row_sets)


@pytest.mark.parametrize("d", range(1, 17))
def test_column_orbits_reorder_the_row_screen_exactly(d):
    # one table of affine classes per set size serves rows and columns: the
    # column orbits, read off the classes of the sets through 0, have the
    # leaders, keys, order and subset count of a sweep over every subset,
    # and the row screen keeps its leaders, keys and size
    for size in range(d + 1):
        columns = _column_orbits(d, size)
        assert (columns.firsts, columns.keys, columns.size) == _reference_column_orbits(d, size)
        if size:
            screen = _screen(d, size, True)
            assert (screen.firsts, screen.keys, screen.size) == _reference_screen(d, size)
            assert screen.through_0.sum() == screen.size


def test_a_cold_dft_diagram_sweeps_each_set_size_once(monkeypatch):
    # rows and columns of one size share one batched key sweep; the single
    # sets the rank oracle keys for conditions (ii) and (iii) are not batches
    sweeps = []
    affine_keys = diagram._affine_keys

    def recorded(d, sets):
        if len(sets) > 1:
            sweeps.append(len(sets[0]))
        return affine_keys(d, sets)

    monkeypatch.setattr(diagram, "_affine_keys", recorded)
    diagram._screen.cache_clear()
    diagram._column_orbits.cache_clear()
    enumerate_diagram(dft_matrix(12))
    assert sweeps and len(sweeps) == len(set(sweeps))


@pytest.mark.parametrize("d", range(1, 11))
def test_structured_representatives_sort_by_stabilizer_then_lex(d):
    # the orbit representatives, the most symmetric first: stabilizer sizes
    # recounted over every affine map never increase, ties in lex order.
    # The pairs of Z_8 with difference 4, 2 or 1 are fixed by 8, 4 and 2 maps
    if d == 8:
        assert _column_orbits(8, 2).firsts == [(0, 4), (0, 2), (0, 1)]
        assert _column_orbits(8, 4).firsts[:2] == [(0, 2, 4, 6), (0, 1, 4, 5)]
    units = [a for a in range(d) if math.gcd(a, d) == 1]
    for size in range(d + 1):
        order = _column_orbits(d, size).firsts
        orbit_minima = {
            min(tuple(sorted((a * x + s) % d for x in cols)) for a in units for s in range(d))
            for cols in combinations(range(d), size)
        }
        assert sorted(order) == sorted(orbit_minima)
        keys = [(-_stabilizer(d, cols), cols) for cols in order]
        assert keys == sorted(keys)


@pytest.mark.parametrize("d", range(1, 13))
def test_point_search_gives_the_diagram_certificates(d, diagram_cache):
    # point_exists and enumerate_diagram share one search, so a point with
    # n_a <= n_b, which the diagram searches, gets the same certificate or
    # Hole note from either; and the numeric engine decides every point,
    # on both sides of the diagonal, as the exact one does, so a witness
    # loses nothing by always running on the exact engine
    diag = diagram_cache(d)
    u = dft_matrix(d)
    for (a, b), point in diag.points.items():
        exact = point_exists(u, a, b, engine="exact")
        numeric = point_exists(u, a, b, engine="numeric")
        assert _outcome(numeric) == _outcome(exact), (a, b)
        if a <= b:
            assert exact == point, (a, b)


@pytest.mark.parametrize("d", range(1, 13))
def test_least_rotations_match_brute_force(d):
    # the key of every subset of Z_d is the least mask over its orbit under
    # x -> ax + s: the least rotation of aX over every unit a
    units = [a for a in range(d) if math.gcd(a, d) == 1]
    members = [[x for x in range(d) if mask >> x & 1] for mask in range(1 << d)]
    for size in range(d + 1):
        sets = [xs for xs in members if len(xs) == size]
        want = [min(_mask((a * x + s) % d for x in xs) for a in units for s in range(d)) for xs in sets]
        assert _affine_keys(d, sets).tolist() == want


@pytest.mark.parametrize("d", [64, 65, 70])
def test_affine_keys_fill_64_bits_then_use_python_ints(d):
    # masks are uint64 up to d = 64, whose top bit is Z_64's 63, and
    # Python ints past it
    rng = random.Random(d)
    units = [a for a in range(d) if math.gcd(a, d) == 1]
    random_sets = [[tuple(sorted(rng.sample(range(d), k))) for _ in range(3)] for k in (1, 5, d - 1)]
    for sets in [[(0, d - 1), (d - 2, d - 1)]] + random_sets:
        want = [min(_mask((a * x + s) % d for x in xs) for a in units for s in range(d)) for xs in sets]
        assert _affine_keys(d, sets).tolist() == want


@pytest.mark.parametrize(
    "d, engine",
    [(d, engine) for d in range(1, 13) for engine in ("exact", "numeric")]
    + [(d, "exact") for d in range(13, 17)],
)
def test_half_plane_points_take_the_closed_form_unsearched(d, engine):
    # on or above n_a + n_b = d + 1, any rows on columns range(n_b) and any
    # columns on rows range(d - n_a) span Vandermonde blocks in distinct
    # nodes: the search selects them before the oracle is asked for any
    # rank, on either side of the diagonal, and the audit certifies them
    u = dft_matrix(d)
    for n_a in range(1, d + 1):
        for n_b in range(d + 1 - n_a, d + 1):
            oracle = _RankOracle(u, engine)
            point = _find_point(u, oracle, n_a, n_b)
            assert point.status is PointStatus.PRESENT, (n_a, n_b)
            selection = (tuple(range(d - n_a)), tuple(range(n_b)))
            assert (point.certificate.rows, point.certificate.cols) == selection
            assert oracle.requests == 0, (n_a, n_b)
            cert = _audited(u, engine, [point])[n_a, n_b].certificate
            assert (cert.rows, cert.cols) == selection
            assert cert.base.rank < n_b
            assert (len(cert.added), len(cert.removed)) == (n_a, n_b), (n_a, n_b)


@pytest.mark.parametrize("d", range(1, 9))
def test_point_search_above_the_diagonal_gives_the_lex_first_certificate(d):
    # n_a > n_b half-plane points take the closed form, the full lex scan's
    # first candidate, so point_exists and witness keep their certificates
    u = dft_matrix(d)
    points = [(a, b) for a in range(1, d + 1) for b in range(d + 1 - a, a)]
    for (a, b), (status, selection) in _full_scan(u, "exact", points).items():
        point = point_exists(u, a, b)
        cert = point.certificate
        assert (point.status, (cert.rows, cert.cols)) == (status, selection), (a, b)


def test_failed_closed_form_audit_raises_unsearched(monkeypatch):
    # the closed form is a theorem: it is chosen before the oracle is asked
    # for any rank, and an audit that rejects it raises, naming the point,
    # the engine and the selection, from a single point and from its diagram
    # row alike
    u = dft_matrix(8)
    audit = diagram._audit
    failing = set()

    def forced(u, engine, selections, *stats):
        audits = audit(u, engine, selections, *stats)
        return [(ok and sel not in failing, c) for sel, (ok, c) in zip(selections, audits)]

    monkeypatch.setattr(diagram, "_audit", forced)
    for n_a, n_b in [(1, 8), (3, 6), (4, 5), (4, 8), (6, 3)]:
        oracle = _RankOracle(u, "exact")
        rows, cols = tuple(range(8 - n_a)), tuple(range(n_b))
        point = _find_point(u, oracle, n_a, n_b)
        assert point.certificate == PointCertificate(rows, cols)
        assert oracle.requests == 0, (n_a, n_b)
        failing.add((rows, cols))
        message = f"({n_a}, {n_b}) fails the exact audit: {rows} x {cols}"
        with pytest.raises(RuntimeError) as exc:
            point_exists(u, n_a, n_b)
        assert str(exc.value) == message
        if n_a <= n_b:  # the diagram reads an n_a > n_b point off its mirror
            with pytest.raises(RuntimeError) as exc:
                enumerate_diagram(u)
            assert str(exc.value) == message
        failing.clear()


def test_audit_runs_once_per_row_and_once_per_present_point(monkeypatch):
    # and each numeric or "both" row audit ranks its blocks in one numeric call
    calls, ranked, per_audit = [], [], []
    audit, numeric = diagram._audit, diagram._numeric_block_ranks

    def counted(*args):
        calls.append(args[2])
        before = len(ranked)
        try:
            return audit(*args)
        finally:
            per_audit.append(len(ranked) - before)

    monkeypatch.setattr(diagram, "_audit", counted)
    monkeypatch.setattr(diagram, "_numeric_block_ranks", lambda *a: ranked.append(1) or numeric(*a))
    for engine, numeric_calls in [("exact", 0), ("numeric", 1), ("both", 1)]:
        calls.clear()
        per_audit.clear()
        enumerate_diagram(dft_matrix(8), engine=engine)
        assert len(calls) == 8
        assert per_audit == [numeric_calls] * 8, engine
    calls.clear()
    calls.clear()
    assert point_exists(dft_matrix(8), 4, 2).status is PointStatus.PRESENT
    assert len(calls) == 1
    calls.clear()
    assert point_exists(dft_matrix(8), 1, 1).status is PointStatus.HOLE
    assert calls == []


def test_both_engine_row_audit_raises_on_a_disagreement(monkeypatch):
    # (2, 5) is a closed-form point, never searched, and no search at d=6
    # ranks a 4 x 5 block: only the row audit ranks rows (0, 1, 2, 3) on
    # columns (0, ..., 4), and it compares the engines there
    target = ((0, 1, 2, 3), (0, 1, 2, 3, 4))
    numeric = diagram._numeric_block_ranks

    def off_by_one(matrix, row_sets, cols):
        per_block = cols if cols and isinstance(cols[0], tuple) else [cols] * len(row_sets)
        ranks = numeric(matrix, row_sets, cols)
        return [r + ((rows, c) == target) for r, rows, c in zip(ranks, row_sets, per_block)]

    monkeypatch.setattr(diagram, "_numeric_block_ranks", off_by_one)
    with pytest.raises(EngineDisagreementError) as exc:
        enumerate_diagram(dft_matrix(6), engine="both")
    assert (exc.value.rows, exc.value.cols) == target
    assert (exc.value.exact_rank, exc.value.numeric_rank) == (4, 5)


def test_both_engine_cross_checks_a_lone_block(monkeypatch):
    # conditions (ii) and (iii) ask the oracle for one block at a time, and
    # engine "both" compares the engines on that block too
    oracle = _RankOracle(dft_matrix(6), "both")
    numeric = diagram._numeric_block_ranks
    monkeypatch.setattr(
        diagram, "_numeric_block_ranks", lambda *args: [r + 1 for r in numeric(*args)]
    )
    rows, cols = (0, 2, 4), (0, 3)  # every entry is 1
    with pytest.raises(EngineDisagreementError) as exc:
        oracle.rank_of(rows, cols)
    assert (exc.value.rows, exc.value.cols) == (rows, cols)
    assert (exc.value.exact_rank, exc.value.numeric_rank) == (1, 2)


def test_both_engine_audit_cross_checks_closed_form_points(monkeypatch):
    # a closed-form point asks the rank oracle for nothing, so on engine
    # "both" only the audit compares the engines there
    u = dft_matrix(6)
    assert point_exists(u, 5, 2, engine="both").status is PointStatus.PRESENT
    numeric = diagram._numeric_block_ranks
    monkeypatch.setattr(
        diagram, "_numeric_block_ranks", lambda *args: [r + 1 for r in numeric(*args)]
    )
    for n_a, n_b in [(2, 5), (5, 2)]:
        with pytest.raises(EngineDisagreementError) as exc:
            point_exists(u, n_a, n_b, engine="both")
        assert (exc.value.rows, exc.value.cols) == (tuple(range(6 - n_a)), tuple(range(n_b)))
        assert exc.value.numeric_rank == exc.value.exact_rank + 1 == 7 - n_a
    # the exact engine alone asks for no numeric rank
    assert point_exists(u, 5, 2, engine="exact").status is PointStatus.PRESENT


@pytest.mark.parametrize("d", range(2, 13))
def test_orbit_members_share_key_and_rank(d):
    # every row shift, every column shift, every unit multiple of the rows
    # or of the columns, and the transpose of a selection get its cache key,
    # and both engines give them all one rank
    rng = random.Random(d)
    u = dft_matrix(d)
    units = [a for a in range(d) if math.gcd(a, d) == 1]

    def shift(xs, s, a=1):
        return tuple(sorted((a * x + s) % d for x in xs))

    for _ in range(4):
        rows = tuple(sorted(rng.sample(range(d), rng.randint(1, d))))
        cols = tuple(sorted(rng.sample(range(d), rng.randint(1, d))))
        members = [(shift(rows, s), cols) for s in range(d)]
        members += [(rows, shift(cols, s)) for s in range(d)]
        members += [(shift(rows, 0, a), cols) for a in units]
        members += [(rows, shift(cols, 0, a)) for a in units]
        members.append((shift(cols, 1), shift(rows, 2)))
        oracle = _RankOracle(u, "both")
        for r, c in members:
            oracle.rank_of(r, c)
        assert (oracle.requests, oracle.computed, len(oracle._ranks)) == (len(members), 1, 1)
        ranks = {
            _block_ranks(u, e, [(r, c)])[0][0] for r, c in members for e in ("exact", "numeric")
        }
        assert len(ranks) == 1, (rows, cols, ranks)


def _check_screen(u, engine, rng):
    """A search's screen of each row count: its affine classes partition its
    row sets, each led by its lex-first member and keyed by the least mask
    over the orbit that all its members share, and every member has its
    class's base rank on the engine, so (ii) and (iii) need only the first
    members.  A chunk of column sets counts one request per row set and
    column set, and computes each distinct key once."""
    d = u.d
    dft = u.kind is TransitionKind.DFT
    units = [a for a in range(d) if math.gcd(a, d) == 1]

    def members(first):
        if not dft:
            return [first]
        images = {tuple(sorted((a * x + s) % d for x in first)) for a in units for s in range(d)}
        return sorted(rows for rows in images if 0 in rows)

    for n_rows in range(1 if dft else 0, d):
        screen = _screen(d, n_rows, dft)
        row_sets = [r for r in combinations(range(d), n_rows) if 0 in r or not dft]
        assert screen.size == len(row_sets)
        assert screen.firsts == sorted(screen.firsts)
        assert sorted(rows for first in screen.firsts for rows in members(first)) == row_sets
        for first, key in zip(screen.firsts, screen.keys, strict=True):
            assert first == members(first)[0]
            if dft:
                assert set(_affine_keys(d, members(first)).tolist()) == {key}
            else:
                assert key == _mask(first)
        oracle = _RankOracle(u, engine)
        n_b = rng.randint(1, d)  # a chunk's column sets share their size
        col_sets = [tuple(sorted(rng.sample(range(d), n_b))) for _ in range(3)]
        col_sets.append(col_sets[0])  # a chunk may repeat a key
        col_keys = [oracle._set_key(cols) for cols in col_sets]
        keys = {oracle._key(r, col_key) for col_key in col_keys for r in screen.keys}
        screened = oracle.base_ranks(screen, col_sets, col_keys)
        assert (oracle.requests, oracle.computed) == (len(col_sets) * screen.size, len(keys))
        for cols, ranks in zip(col_sets, screened, strict=True):
            every = dict(zip(row_sets, _block_ranks(u, engine, [(r, cols) for r in row_sets])[0]))
            for first, base in zip(screen.firsts, ranks.tolist(), strict=True):
                assert {every[rows] for rows in members(first)} == {base}


@pytest.mark.parametrize("engine", ["exact", "numeric"])
@pytest.mark.parametrize("d", range(2, 13))
def test_screen_ranks_each_rotation_class_once(d, engine):
    # a row shift rescales the columns and a unit multiple of the rows is a
    # Galois conjugate, so the DFT screen keys, reads and ranks each affine
    # class of row sets (a union of rotation classes) once, on its lex-first
    # member, and still counts one request per row set.  Numeric ranks of
    # members that are not isometric blocks must agree too
    _check_screen(dft_matrix(d), engine, random.Random(d))


@pytest.mark.parametrize("seed", [0, 1])
def test_screen_of_another_matrix_has_one_class_per_row_set(seed):
    _check_screen(random_mub_pair(6, seed=seed), "numeric", random.Random(seed))


@pytest.mark.parametrize("engine", ["exact", "numeric"])
def test_screen_chunks_hold_at_most_the_entry_cap(monkeypatch, engine):
    # the search screens 1, 2, 4, ... column orbits at once, and no chunk of
    # more than one orbit holds more than the cap of matrix entries
    chunks = []
    base_ranks = _RankOracle.base_ranks

    def recorded(self, screen, col_sets, col_keys):
        entries = len(screen.keys) * len(screen.firsts[0]) * len(col_sets[0]) * len(col_sets)
        chunks.append((len(col_sets), entries))
        return base_ranks(self, screen, col_sets, col_keys)

    monkeypatch.setattr(_RankOracle, "base_ranks", recorded)
    for d in range(1, 13):
        enumerate_diagram(dft_matrix(d), engine=engine)
    assert all(n == 1 or entries <= diagram._SCREEN_ENTRIES for n, entries in chunks)
    assert {n for n, _ in chunks} >= {1, 2, 4, 8}


def _one_orbit_at_a_time(u, oracle, n_a, n_b):
    """The search's first certifying (rows, cols), screening one column set
    per stack, or None after every candidate."""
    d = u.d
    dft = u.kind is TransitionKind.DFT
    screen = _screen(d, d - n_a, dft)
    columns = _column_orbits(d, n_b) if dft else _screen(d, n_b, False)
    for cols, col_key in zip(columns.firsts, columns.keys):
        ranks = oracle.base_ranks(screen, [cols], [col_key])[0]
        for i in np.flatnonzero(ranks < n_b):
            rows = screen.firsts[i]
            if _conditions_ii_iii(oracle.rank_of, d, rows, cols, int(ranks[i])):
                return rows, cols
    return None


@pytest.mark.parametrize(
    "u", [dft_matrix(d) for d in range(1, 13)] + [random_mub_pair(6, seed) for seed in (1, 2)]
)
def test_chunked_screen_matches_the_one_orbit_scan(u):
    # chunks change how many orbits one stack screens, never which
    # candidate certifies first
    d = u.d
    dft = u.kind is TransitionKind.DFT
    chunked, single = _RankOracle(u, "numeric"), _RankOracle(u, "numeric")
    for n_a in range(1, d + 1):
        for n_b in range(1, d + 1 if not dft else d - n_a + 1):
            point = _find_point(u, chunked, n_a, n_b)
            found = _one_orbit_at_a_time(u, single, n_a, n_b)
            if found is None:
                assert point.status is PointStatus.HOLE
            else:
                assert (point.certificate.rows, point.certificate.cols) == found


@pytest.mark.parametrize("engine", ["exact", "numeric"])
@pytest.mark.parametrize("d", range(1, 11))
def test_searched_holes_count_every_candidate(d, engine, diagram_cache):
    # a searched DFT Hole screens every row set through 0 on every column
    # orbit representative; searched one by one, the n_a > n_b holes that
    # the diagram reads off their mirrors get a count too
    u = dft_matrix(d)
    for n_a, n_b in sorted(diagram_cache(d, engine=engine).hole_set()):
        n = len(_column_orbits(d, n_b).firsts)
        if n_a < d:
            n *= math.comb(d - 1, d - n_a - 1)
        point = point_exists(u, n_a, n_b, engine=engine)
        assert (point.status, point.note) == (PointStatus.HOLE, f"exhausted {n} candidates")


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


@pytest.mark.parametrize("d", range(1, 13))
def test_engines_share_rank_counters(d, diagram_cache):
    # every engine screens each column set eagerly through one code path,
    # so requests and computed ranks do not depend on the engine; nor do
    # the distinct blocks the row audits rank, as the certificates agree
    counters = {
        engine: diagram_cache(d, engine=engine).stats
        for engine in ("numeric", "exact", "both")
    }
    assert counters["exact"] == counters["both"] == counters["numeric"]
    pinned = {
        8: (900, 111, 476),
        9: (1575, 104, 646),
        10: (5866, 369, 893),
        11: (11554, 232, 1027),
        12: (38683, 2490, 1654),
    }
    if d in pinned:
        stats = counters["exact"]
        assert (stats["rank_requests"], stats["rank_computed"], stats["audit_blocks"]) == pinned[d]


def test_enumerate_rejects_oversized_exact(diagram_cache):
    # one size limit for every engine: exact and both run d=10 without
    # allow_large, every engine refuses d=13, and auto is exact for the DFT
    # at every d and numeric for any other matrix
    for engine in ("exact", "both"):
        assert diagram_cache(10, engine=engine).engine == engine
    for engine in ("auto", "exact", "numeric", "both"):
        with pytest.raises(ValueError, match="enumeration is limited to d <= 12 by default"):
            enumerate_diagram(dft_matrix(13), engine=engine)
    resolved = [_resolve_engine(d, TransitionKind.DFT, "auto", False) for d in range(1, 13)]
    assert resolved == ["exact"] * 12
    assert _resolve_engine(6, TransitionKind.GENERAL, "auto", False) == "numeric"


def test_d40_half_plane_point_is_certified_exactly_unsearched():
    # Corollary 1 at d=40: auto audits the closed form on the exact engine;
    # the numeric engine misjudges one of its blocks, and the failed audit
    # raises instead of searching
    u = dft_matrix(40)
    point = point_exists(u, 20, 21, allow_large=True)
    assert point.status is PointStatus.PRESENT
    cert = point.certificate
    assert (cert.rows, cert.cols) == (tuple(range(20)), tuple(range(21)))
    audit = [cert.base] + [c for _, c in cert.added + cert.removed]
    assert len(audit) == 1 + 20 + 21
    assert {c.engine for c in audit} == {"exact"}
    with pytest.raises(RuntimeError, match=r"\(20, 21\) fails the numeric audit"):
        point_exists(u, 20, 21, engine="numeric", allow_large=True)


def test_d40_searched_points_fit_in_memory():
    # a searched point keys its ranks mask by mask, with no table of all
    # 2^d subsets: no 1 x 1 or 2 x 1 block of the DFT vanishes, so (d - 1, 1)
    # and (d - 2, 1) are Holes, and rows {0, d/2} read 1, 1 on columns
    # {0, 2}, so they certify (d - 2, 2).  At d = 64 a mask fills all 64
    # bits of a word
    u = dft_matrix(40)
    hole = point_exists(u, 39, 1, allow_large=True)
    assert hole.status is PointStatus.HOLE
    for d in (40, 64):
        u = dft_matrix(d)
        for engine in ("exact", "numeric"):
            hole = point_exists(u, d - 2, 1, engine=engine, allow_large=True)
            note = f"exhausted {d - 1} candidates"
            assert (hole.status, hole.note) == (PointStatus.HOLE, note), (d, engine)
            point = point_exists(u, d - 2, 2, engine=engine, allow_large=True)
            assert point.status is PointStatus.PRESENT, (d, engine)
            selection = (point.certificate.rows, point.certificate.cols)
            assert selection == ((0, d // 2), (0, 2)), (d, engine)


@pytest.mark.slow
def test_engine_agreement_full_d10_enumeration(diagram_cache):
    """Every rank the d=10 enumeration touches agrees across engines."""
    diag = diagram_cache(10, engine="both")
    assert diag.is_symmetric()


def test_prime_d13_diagram_is_the_half_plane():
    # Chebotarev/Tao: at prime d the diagram is exactly n_a + n_b >= d + 1
    u = dft_matrix(13)
    diag = enumerate_diagram(u, engine="numeric", allow_large=True)
    assert is_completely_incompatible(u, diagram=diag)


@pytest.mark.parametrize("d", [13, 14, 15])
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
        (row,) = _witness_block(u, point, 1, np.random.default_rng(seed))
        assert row.tobytes() == witness_state(u, point, seed=seed).amps_a.tobytes()


@pytest.mark.parametrize("d", range(2, 9))
def test_every_block_row_has_the_point_profile(diagram_cache, d):
    u = dft_matrix(d)
    rng = np.random.default_rng(300 + d)
    for key in sorted(diagram_cache(d).present_set()):
        amps = _witness_block(u, diagram_cache(d).points[key], 24, rng)
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
    _witness_block(dft_matrix(6), point, 10, rng)
    assert sizes == [10, 1]
    monkeypatch.setattr(diagram_mod, "_support_masks", lambda amps, u, eps: real(amps, u, 1.0))
    with pytest.raises(WitnessSamplingError, match=f"in {_WITNESS_TRIES} tries"):
        _witness_block(dft_matrix(6), point, 3, rng)


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


@pytest.mark.parametrize(
    "u", [dft_matrix(d) for d in range(1, 13)] + [random_mub_pair(6, seed) for seed in (1, 2, 3)]
)
def test_numeric_stack_ranks_match_the_svd_in_every_search_and_audit(monkeypatch, u):
    # every block the numeric search and audit rank, certified or not, gets
    # the rank the plain SVD count of that block alone gives; the search's
    # stacks hold one shape, and an audit stack mixes shapes at d >= 3
    numeric, audit = diagram._numeric_block_ranks, diagram._audit
    seen = []  # (number of block shapes, ranked by an audit) of every stack
    auditing = []

    def checked(matrix, row_sets, cols):
        ranks = numeric(matrix, row_sets, cols)
        for got, rows, c in zip(ranks, row_sets, cols, strict=True):
            block = matrix[np.ix_(rows, c)]
            s = np.linalg.svd(block, compute_uv=False)
            assert got == (svd_rank(s, max(block.shape)) if block.size else 0), (rows, c)
        seen.append((len({(len(r), len(c)) for r, c in zip(row_sets, cols)}), bool(auditing)))
        return ranks

    def flagged(*args):
        auditing.append(True)
        try:
            return audit(*args)
        finally:
            auditing.pop()

    monkeypatch.setattr(diagram, "_numeric_block_ranks", checked)
    monkeypatch.setattr(diagram, "_audit", flagged)
    enumerate_diagram(u, engine="numeric")
    assert all(shapes == 1 for shapes, by_audit in seen if not by_audit)
    assert u.d < 3 or max(shapes for shapes, by_audit in seen if by_audit) > 1
