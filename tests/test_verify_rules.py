"""The FAIL and INFO output of every verification rule, through the real
checks: a diagram with one point flipped, or a classifier forced wrong."""

import dataclasses
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import kduncd.cli as cli_mod
import kduncd.verify as verify_mod
from kduncd import PointStatus, Verdict, support_profile
from kduncd.cli import main
from kduncd.diagram import DiagramPoint
from kduncd.verify import verify_suite


def _flipped(diagram_cache, d: int, points, status: PointStatus):
    """The d-diagram with ``points`` set to ``status``; the cached one is untouched."""
    diag = diagram_cache(d)
    changed = {p: DiagramPoint(*p, status) for p in points}
    assert all(diag.points[p].status is not status for p in points)
    flipped = dataclasses.replace(diag, points={**diag.points, **changed})
    return lambda n: flipped if n == d else diagram_cache(n)


@pytest.mark.parametrize(
    "rule, d, points, status, detail",
    [
        ("T1", 6, [(4, 2), (2, 3)], PointStatus.HOLE, "missing {(2,3), (4,2)}"),
        ("C1", 6, [(4, 3)], PointStatus.HOLE, "missing {(4,3)}"),
        (
            "T2",
            6,
            [(2, 2)],
            PointStatus.PRESENT,
            "predicted {(3,2), (4,2), (5,2), (6,2)} got {(2,2), (3,2), (4,2), (5,2), (6,2)}",
        ),
        (
            "T3",
            6,
            [(3, 3)],
            PointStatus.PRESENT,
            "predicted {(2,3), (4,3), (5,3), (6,3)} got {(2,3), (3,3), (4,3), (5,3), (6,3)}",
        ),
    ],
)
def test_diagram_rules_name_what_differs(diagram_cache, rule, d, points, status, detail):
    provider = _flipped(diagram_cache, d, points, status)
    assert verify_suite(rule, [d], provider) == [
        verify_mod.VerifyRow(d=d, label=rule, passed=False, detail=detail)
    ]


def test_t3_mismatch_outside_its_hypotheses_is_reported_not_failed(diagram_cache):
    provider = _flipped(diagram_cache, 8, [(5, 3)], PointStatus.PRESENT)
    (row,) = verify_suite("T3", [8], provider)
    assert row.passed is None
    assert row.detail == (
        "predicted {(4,3), (6,3), (7,3), (8,3)} got {(4,3), (5,3), (6,3), (7,3), (8,3)}"
        " [outside stated hypotheses]"
    )


@pytest.mark.parametrize(
    "rule, d, points, status, exit_code, line",
    [
        ("t1", 6, [(3, 2)], PointStatus.HOLE, 1, "T1  d=6   FAIL  missing {(3,2)}"),
        (
            "T3",
            8,
            [(5, 3)],
            PointStatus.PRESENT,
            0,
            "T3  d=8   INFO  predicted {(4,3), (6,3), (7,3), (8,3)} "
            "got {(4,3), (5,3), (6,3), (7,3), (8,3)} [outside stated hypotheses]",
        ),
    ],
)
def test_cli_exit_code_follows_the_rows(
    diagram_cache, monkeypatch, rule, d, points, status, exit_code, line
):
    provider = _flipped(diagram_cache, d, points, status)
    monkeypatch.setattr(cli_mod, "_cached_diagram", lambda n, *args: provider(n))
    result = CliRunner().invoke(main, ["verify", rule, "--d", str(d)])
    assert result.exit_code == exit_code, result.output
    assert result.stdout == line + "\n"


def _classify_wrong_on(calls, verdict: Verdict):
    """A classifier that answers ``verdict`` on the listed call numbers (all
    calls when ``calls`` is None) and the truth otherwise."""
    real, count = verify_mod.classify_state, [0]

    def classify(psi, u):
        count[0] += 1
        if calls is None or count[0] in calls:
            return SimpleNamespace(verdict=verdict)
        return real(psi, u)

    return classify


def _spy_cosets(monkeypatch) -> list:
    real, specs = verify_mod.coset_classical_state, []

    def spy(spec):
        specs.append(spec)
        return real(spec)

    monkeypatch.setattr(verify_mod, "coset_classical_state", spy)
    return specs


def test_t4_names_a_coset_state_that_classifies_nonclassical(diagram_cache, monkeypatch):
    wrong = _classify_wrong_on({2}, Verdict.NONCLASSICAL)
    monkeypatch.setattr(verify_mod, "classify_state", wrong)
    specs = _spy_cosets(monkeypatch)
    (row,) = verify_suite("T4", [6], diagram_cache, samples=10, seed=3)
    s = specs[1]
    assert (s.d, s.p) == (6, 2)
    assert row == verify_mod.VerifyRow(
        d=6,
        label="T4",
        passed=False,
        detail=f"coset CosetSpec(d=6, p=2, a_shift={s.a_shift}, b_shift={s.b_shift}) "
        "profile (2,3) nonclassical",
    )


def test_t4_detail_keeps_the_first_three_faults(diagram_cache, monkeypatch):
    wrong = _classify_wrong_on(None, Verdict.NONCLASSICAL)
    monkeypatch.setattr(verify_mod, "classify_state", wrong)
    specs = _spy_cosets(monkeypatch)
    (row,) = verify_suite("T4", [6], diagram_cache, samples=10, seed=3)
    assert len(specs) == 20
    assert row.passed is False
    assert row.detail == "; ".join(
        f"coset {s} profile ({s.p},{6 // s.p}) nonclassical" for s in specs[:3]
    )


def test_t5_reports_the_first_fault_and_stops_after_its_pair(monkeypatch):
    real_pair, pairs, profiles = verify_mod.random_mub_pair, [], []

    def pair_spy(d, seed):
        pairs.append(d)
        return real_pair(d, seed=seed)

    def classify(psi, u):
        profiles.append(support_profile(psi, u))
        return SimpleNamespace(verdict=Verdict.CLASSICAL)

    monkeypatch.setattr(verify_mod, "random_mub_pair", pair_spy)
    monkeypatch.setattr(verify_mod, "classify_state", classify)
    (row,) = verify_suite("T5", [5], None, pairs=4, samples=6, seed=2)
    assert pairs == [5]  # the pairs after the faulty one are not drawn
    assert len(profiles) == 6  # at d = 5 no state is skipped
    first = profiles[0]
    detail = f"profile ({first.n_a},{first.n_b}) classified classical"
    assert row == verify_mod.VerifyRow(d=5, label="T5", passed=False, detail=detail)


def test_cli_exits_one_on_a_t5_fault(monkeypatch):
    monkeypatch.setattr(verify_mod, "classify_state", _classify_wrong_on(None, Verdict.CLASSICAL))
    args = ["verify", "T5", "--d", "2..3", "--pairs", "2", "--samples", "3"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    lines = result.stdout.splitlines()
    assert [line[:14] for line in lines] == ["T5  d=2   FAIL", "T5  d=3   FAIL"]
    assert all(line.endswith(" classified classical") for line in lines)


@pytest.mark.parametrize("name", ["X9", "x9", ""])
def test_unknown_rule_is_refused(name):
    with pytest.raises(ValueError, match=f"^unknown verification id {name.upper()!r}$"):
        verify_suite(name, [3], None)


@pytest.mark.parametrize(
    "rule, low", [("T1", 1), ("C1", 1), ("T2", 2), ("T3", 3), ("T4", 1), ("T5", 2), ("L3", 2)]
)
def test_dimensions_below_a_rules_least_d_get_info_rows(diagram_cache, rule, low):
    rows = verify_suite(rule, range(1, low + 1), diagram_cache, samples=2, pairs=1)
    assert [r.d for r in rows] == list(range(1, low + 1))
    for r in rows[:-1]:
        assert r == verify_mod.VerifyRow(
            d=r.d, label=rule, passed=None, detail=f"rule needs d >= {low}; not checked"
        )
    assert rows[-1].label == rule and rows[-1].passed is True


@pytest.mark.parametrize("rule", ["T4", "T5"])
@pytest.mark.parametrize("seed", [None, 5])
def test_the_seed_reaches_the_check_as_given(diagram_cache, monkeypatch, rule, seed):
    # None asks for fresh entropy, so it must not fall back to the check's default
    real, seeds = verify_mod.np.random.default_rng, []

    def spy(s=None):
        seeds.append(s)
        return real(s)

    monkeypatch.setattr(verify_mod.np.random, "default_rng", spy)
    verify_suite(rule, [2], diagram_cache, samples=1, pairs=1, seed=seed)
    assert seeds[0] is seed
