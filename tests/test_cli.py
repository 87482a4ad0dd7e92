import json

import click
import pytest
from click.testing import CliRunner

import kduncd.diagram as diagram_mod
from kduncd import basis_state, save_state, state_from_amplitudes
from kduncd.cli import main
from kduncd.plotting import CELL, MARGIN


@pytest.fixture()
def runner():
    return CliRunner()


def _marker_position(d, na, nb):
    size = 2 * MARGIN + d * CELL
    cx = MARGIN + (na - 0.5) * CELL
    cy = size - MARGIN - (nb - 0.5) * CELL
    return cx, cy


def test_diagram_command_writes_artifacts(runner, tmp_path):
    out = tmp_path / "d8.json"
    csv = tmp_path / "d8.csv"
    svg = tmp_path / "d8.svg"
    result = runner.invoke(
        main,
        ["diagram", "--d", "8", "--engine", "both", "--out", str(out),
         "--csv", str(csv), "--svg", str(svg)],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["d"] == 8 and payload["engine"] == "both"
    rows = csv.read_text().strip().split("\n")
    assert rows[0] == "na,nb,status"
    assert "5,2,hole" in rows
    cx, cy = _marker_position(8, 5, 2)
    assert f'<circle cx="{cx:.2f}" cy="{cy:.2f}"' in svg.read_text()


def test_diagram_command_dimension_one(runner, tmp_path):
    out = tmp_path / "d1.json"
    result = runner.invoke(main, ["diagram", "--d", "1", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["points"] == [
        {"na": 1, "nb": 1, "status": "present", "rows": [], "cols": [0]}
    ]


def test_diagram_command_d10_row_two(runner, tmp_path):
    csv = tmp_path / "d10.csv"
    result = runner.invoke(main, ["diagram", "--d", "10", "--csv", str(csv)])
    assert result.exit_code == 0
    statuses = {}
    for line in csv.read_text().strip().split("\n")[1:]:
        na, nb, status = line.split(",")
        statuses[(int(na), int(nb))] = status
    present = {a for a in range(1, 11) if statuses[(a, 2)] == "present"}
    assert present == {5, 8, 9, 10}
    assert {a for a in range(5, 11) if statuses[(a, 2)] == "hole"} == {6, 7}


def test_diagram_partial_exit_codes(runner, tmp_path):
    args = ["diagram", "--d", "5", "--max-checks", "2", "--out", str(tmp_path / "p.json")]
    aborted = runner.invoke(main, args)
    assert aborted.exit_code == 3
    allowed = runner.invoke(main, args + ["--allow-partial"])
    assert allowed.exit_code == 0


def test_diagram_cache_reuse(runner, tmp_path):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        result = runner.invoke(
            main, ["diagram", "--d", "6", "--cache", str(cache), "--out", str(out)]
        )
        assert result.exit_code == 0
    assert len(list(cache.glob("diagram-*.json"))) == 1
    assert out1.read_bytes() == out2.read_bytes()


def test_diagram_allow_large_lifts_the_size_limit(runner, tmp_path):
    args = ["diagram", "--d", "13", "--engine", "exact", "--cache", str(tmp_path)]
    refused = runner.invoke(main, args)
    assert refused.exit_code == 2, refused.output
    allowed = runner.invoke(main, args + ["--allow-large"])
    assert allowed.exit_code == 0, allowed.output
    assert allowed.output.startswith("d=13 engine=exact present=91 holes=78 unknown=0")
    # the flag does not enter the cache key, so verify reads the same file
    verify = ["verify", "T2", "--d", "13", "--engine", "exact", "--cache", str(tmp_path)]
    result = runner.invoke(main, verify)
    assert result.exit_code == 0, result.output
    assert len(list(tmp_path.glob("diagram-*.json"))) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "T2", "--d", "10..12", "--engine", "exact"],
        ["witness", "--d", "12", "6", "4", "--engine", "exact", "--seed", "7"],
    ],
    ids=["verify", "witness"],
)
def test_exact_engine_certifies_up_to_the_one_size_limit(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


def test_diagram_truncated_cache_file_is_recomputed(runner, tmp_path):
    cache = tmp_path / "cache"
    cold_out, warm_out = tmp_path / "cold.json", tmp_path / "warm.json"
    cold = runner.invoke(main, ["diagram", "--d", "6", "--out", str(cold_out)])
    assert cold.exit_code == 0
    fill = runner.invoke(main, ["diagram", "--d", "6", "--cache", str(cache)])
    assert fill.exit_code == 0
    (cached,) = cache.glob("diagram-*.json")
    full = cached.read_bytes()
    cached.write_bytes(full[: len(full) // 2])
    result = runner.invoke(
        main, ["diagram", "--d", "6", "--cache", str(cache), "--out", str(warm_out)]
    )
    assert result.exit_code == 0, result.output
    assert result.output == cold.output
    assert warm_out.read_bytes() == cold_out.read_bytes()
    assert cached.read_bytes() == full
    assert sorted(p.name for p in cache.iterdir()) == [cached.name]



@pytest.mark.parametrize(
    "args, target",
    [
        (["diagram", "--d", "3", "--out"], "missing/x.json"),
        (["diagram", "--d", "3", "--csv"], "missing/x.csv"),
        (["diagram", "--d", "3", "--svg"], "missing/x.svg"),
        (["witness", "--d", "3", "2", "2", "--out"], "missing/x.json"),
        (["diagram", "--d", "3", "--cache"], "file/sub"),
    ],
)
def test_unwritable_output_path_is_a_usage_error(runner, tmp_path, args, target):
    (tmp_path / "file").write_text("")
    path = str(tmp_path / target)
    result = runner.invoke(main, [*args, path])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"cannot write {path}: ")


@pytest.mark.parametrize("rule", ["T1", "C1", "T2"])
def test_verify_refuses_a_budget_cut_diagram(runner, tmp_path, rule):
    # d=6 with one candidate per point leaves Unknown points, which are
    # neither Holes for T1/T2 nor Present for C1, so no rule can be decided
    cache = tmp_path / "cache"
    result = runner.invoke(
        main, ["verify", rule, "--d", "6", "--max-checks", "1", "--cache", str(cache)]
    )
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "PASS" not in result.output and "FAIL" not in result.output
    assert result.output == (
        "unresolved points: d=6 diagram holds 14 Unknown points; raise --max-checks\n"
    )
    assert not cache.exists()


def test_partial_diagram_is_not_cached(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ["diagram", "--d", "6", "--max-checks", "1", "--allow-partial", "--cache", str(cache)]
    for _ in range(2):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "unknown=14" in result.output
    assert not cache.exists()

@pytest.mark.parametrize(
    "args",
    [
        ["diagram", "--d", "abc"],
        ["diagram", "--d", "0"],
        ["verify", "T1", "--d", "0..3"],
        ["verify", "T2", "--d", "0..3"],
        ["diagram", "--d", "13"],
        ["witness", "--d", "4", "0", "0"],
    ],
    ids=["diagram-abc", "diagram-0", "verify-T1", "verify-T2", "diagram-13", "witness-0-0"],
)
def test_usage_errors_exit_two_without_traceback(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "Error:" in result.output


@pytest.mark.parametrize(
    "args",
    [["diagram", "--d", "13"], ["witness", "--d", "13", "2", "2"], ["verify", "T4", "--d", "13"]],
    ids=["diagram", "witness", "verify-T4"],
)
def test_size_limit_is_checked_before_the_matrix_is_built(runner, monkeypatch, args):
    def refuse(d):
        raise AssertionError(f"built the {d} x {d} matrix of a refused dimension")

    monkeypatch.setattr("kduncd.cli.dft_matrix", refuse)
    monkeypatch.setattr("kduncd.verify.dft_matrix", refuse)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "limited to d <= 12" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["diagram", "--d", "1..99999999999"], "single dimension"),
        (["verify", "L3", "--d", "2..99999999999"], "L3 is limited to d <= 12"),
        (["verify", "T2", "--d", "13..99999999999"], "limited to d <= 12"),
    ],
    ids=["diagram", "verify-L3", "verify-T2"],
)
def test_huge_dimension_ranges_are_refused_without_building_them(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert message in result.output


@pytest.mark.parametrize(
    "target, args",
    [
        (
            "kduncd.cli.enumerate_diagram",
            ["diagram", "--allow-large", "--engine", "numeric", "--d", "40"],
        ),
        (
            "kduncd.verify.random_mub_pair",
            ["verify", "T5", "--d", "1000000000000", "--samples", "1", "--pairs", "1"],
        ),
    ],
    ids=["diagram", "verify-T5"],
)
def test_running_out_of_memory_is_a_resource_abort(runner, monkeypatch, target, args):
    # raised, not allocated: an overcommitting system kills the process instead
    def exhaust(*a, **kw):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    monkeypatch.setattr(target, exhaust)
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stderr == "out of memory: Unable to allocate 16.0 TiB for an array\n"


@pytest.mark.parametrize("dims", ["13", "2..24"])
def test_verify_l3_refuses_large_dimensions_before_checking_any(runner, monkeypatch, dims):
    def refuse(d):
        raise AssertionError(f"checked d={d} of a refused range")

    monkeypatch.setattr("kduncd.verify.lemma3_check", refuse)
    result = runner.invoke(main, ["verify", "L3", "--d", dims])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "L3 is limited to d <= 12" in result.output


@pytest.mark.parametrize("theorem", ["T1", "C1", "T2", "T3", "T4"])
def test_verify_refuses_a_range_past_the_size_limit_before_enumerating(
    runner, monkeypatch, theorem
):
    def refuse(u, **kwargs):
        raise AssertionError(f"enumerated d={u.d} of a refused range")

    monkeypatch.setattr("kduncd.cli.enumerate_diagram", refuse)
    result = runner.invoke(main, ["verify", theorem, "--d", "2..13"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "enumeration is limited to d <= 12 by default" in result.output


def test_witness_sampling_failure_exits_one_without_traceback(runner, monkeypatch):
    result = runner.invoke(
        main, ["witness", "--d", "6", "3", "4", "--eps-support", "0.9", "--seed", "1"]
    )
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.startswith("witness sampling failed:")

    def fail(*args, **kwargs):
        raise diagram_mod.WitnessSamplingError("forced")

    monkeypatch.setattr("kduncd.verify._witness_block", fail)
    result = runner.invoke(main, ["verify", "T4", "--d", "4"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == "witness sampling failed: forced\n"


_SEARCH = {"--engine", "--max-checks"}


@pytest.mark.parametrize(
    "command, options",
    [
        (
            "diagram",
            {"--d", "--out", "--csv", "--svg", *_SEARCH, "--allow-partial", "--allow-large",
             "--cache"},
        ),
        ("classify", {"--d", "--eps-support", "--eps-classical"}),
        ("verify", {"--d", "--samples", "--pairs", *_SEARCH, "--seed", "--cache"}),
        ("witness", {"--d", "--out", *_SEARCH, "--seed", "--eps-support", "--eps-classical"}),
    ],
    ids=["diagram", "classify", "verify", "witness"],
)
def test_each_command_declares_only_the_options_it_reads(command, options):
    params = main.commands[command].params
    assert {p.opts[0] for p in params if isinstance(p, click.Option)} == options


def test_options_a_command_does_not_read_are_rejected(runner, tmp_path):
    path = tmp_path / "basis.json"
    save_state(path, basis_state(4, 0))
    for args in (["diagram", "--d", "4", "--seed", "7"], ["classify", str(path), "--engine", "exact"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output


@pytest.mark.parametrize("value", ["1e-10", "0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "args",
    [
        ["diagram", "--d", "4", "--engine", "numeric", "--rank-tol"],
        ["verify", "L3", "--d", "4", "--rank-tol"],
        ["witness", "--d", "6", "2", "3", "--rank-tol"],
    ],
    ids=lambda args: f"{args[0]}{args[-1]}",
)
def test_rank_tol_is_not_an_option(runner, args, value):
    """The numeric rank threshold is fixed, so no value of it is accepted."""
    result = runner.invoke(main, [*args, value])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert "No such option '--rank-tol'" in result.output


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "args",
    [
        ["witness", "--d", "6", "2", "3", "--eps-support"],
        ["witness", "--d", "6", "2", "3", "--eps-classical"],
        ["classify", "STATE", "--eps-support"],
        ["classify", "STATE", "--eps-classical"],
    ],
    ids=lambda args: f"{args[0]}{args[-1]}",
)
def test_tolerances_must_be_positive_and_finite(runner, tmp_path, args, value):
    state = tmp_path / "hyperbola.json"
    save_state(state, state_from_amplitudes([1, 0, 0, 1, 0, 0]))
    args = [str(state) if a == "STATE" else a for a in args]
    result = runner.invoke(main, [*args, value])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert "must be a positive finite number" in result.output


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "args",
    [
        ["verify", "T4", "--d", "3", "--samples"],
        ["verify", "T5", "--d", "3", "--samples"],
        ["verify", "T5", "--d", "3", "--pairs"],
        ["diagram", "--d", "4", "--allow-partial", "--max-checks"],
        ["verify", "T1", "--d", "4", "--max-checks"],
        ["witness", "--d", "4", "2", "3", "--max-checks"],
    ],
    ids=lambda args: f"{args[0]}{args[-1]}",
)
def test_counts_must_be_positive(runner, args, value):
    result = runner.invoke(main, [*args, value])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert "x>=1" in result.output


def test_verify_suite_defaults_only_missing_counts():
    from kduncd.verify import verify_suite

    with pytest.raises(ValueError, match="must be at least 1"):
        verify_suite("T5", [3], None, pairs=0, samples=0)
    (row,) = verify_suite("T5", [3], None, pairs=2)
    assert row.detail == "2 pairs x 100 states"


@pytest.mark.parametrize(
    "counts", [{"witness_samples": 0}, {"witness_samples": -1}]
)
def test_theorem4_rejects_counts_below_one(counts):
    from kduncd.verify import verify_theorem4

    with pytest.raises(ValueError, match="must be at least 1"):
        verify_theorem4([3], None, **counts)


@pytest.mark.parametrize("counts", [{"pairs": 0}, {"samples": 0}, {"pairs": -1}])
def test_theorem5_rejects_counts_below_one(counts):
    from kduncd.verify import verify_theorem5

    with pytest.raises(ValueError, match="must be at least 1"):
        verify_theorem5([3], **counts)


def test_classify_basis_state(runner, tmp_path):
    path = tmp_path / "basis.json"
    save_state(path, basis_state(5, 2))
    result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["verdict"] == "classical"
    assert report["product"] == 5
    assert report["theorem4_prediction"] == "classical"
    assert report["theorem5_flag"] is None  # silent on basis vectors
    assert report["witness"] is None


def test_classify_coset_state(runner, tmp_path):
    path = tmp_path / "coset.json"
    save_state(path, state_from_amplitudes([1, 0, 0, 1, 0, 0]))
    result = runner.invoke(main, ["classify", str(path), "--d", "6"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["verdict"] == "classical"
    assert report["product"] == 6
    assert report["theorem4_prediction"] == "classical"
    assert report["theorem5_flag"] is False


def test_classify_nonclassical_state(runner, tmp_path):
    path = tmp_path / "three.json"
    save_state(path, state_from_amplitudes([1, 1, 1, 0]))
    result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["verdict"] == "nonclassical"
    assert report["witness"] is not None
    assert report["theorem4_prediction"] == "nonclassical"
    assert report["theorem5_flag"] is True


def test_classify_malformed_file(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "amps",
    ["[1, 2]", "[[NaN, 0], [1, 0]]", "[[1" + "0" * 400 + ", 0], [1, 0]]"],
    ids=["plain-numbers", "nan", "huge-int"],
)
def test_classify_rejects_bad_amplitudes(runner, tmp_path, amps):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"d": 2, "amps_a": {amps}}}')
    result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "amplitude 0" in result.output


@pytest.mark.parametrize(
    "amps, n_a",
    [
        ("[[1, 0], [1e308, 0]]", 1),
        ("[[1.7e308, 0], [1.7e308, 0]]", 2),
        ("[[1e-200, 0], [0, 0]]", 1),
        ("[[1e-310, 0], [0, 0]]", 1),
    ],
    ids=["one-huge", "both-near-float-max", "tiny", "subnormal"],
)
def test_classify_normalizes_without_overflow_or_underflow(runner, tmp_path, amps, n_a):
    path = tmp_path / "extreme.json"
    path.write_text(f'{{"d": 2, "amps_a": {amps}}}')
    with pytest.warns(UserWarning, match="deviates from 1"):
        result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert (report["n_a"], report["product"], report["verdict"]) == (n_a, 2, "classical")


def test_classify_rejects_the_zero_vector(runner, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"d": 2, "amps_a": [[0, 0], [0, 0]]}')
    result = runner.invoke(main, ["classify", str(path)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert "malformed state file" in result.output


def test_classify_dimension_mismatch(runner, tmp_path):
    path = tmp_path / "basis.json"
    save_state(path, basis_state(4, 0))
    result = runner.invoke(main, ["classify", str(path), "--d", "6"])
    assert result.exit_code == 2


def test_verify_t2_passes(runner):
    result = runner.invoke(main, ["verify", "T2", "--d", "2..8"])
    assert result.exit_code == 0, result.output
    assert result.output.count("PASS") == 7


def test_verify_reports_dimensions_below_rule_minimum(runner):
    result = runner.invoke(main, ["verify", "T2", "--d", "1..3"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == [
        "T2  d=1   INFO  rule needs d >= 2; not checked",
        "T2  d=2   PASS  row 2 present at n_a in [1, 2]",
        "T2  d=3   PASS  row 2 present at n_a in [2, 3]",
    ]
    result = runner.invoke(main, ["verify", "L3", "--d", "1..3"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == [
        "L3  d=1   INFO  rule needs d >= 2; not checked",
        "L3  d=2   PASS  12 progression submatrices, 0 rank defects",
        "L3  d=3   PASS  63 progression submatrices, 0 rank defects",
    ]


def test_verify_l3_passes(runner):
    result = runner.invoke(main, ["verify", "L3", "--d", "2..6"])
    assert result.exit_code == 0, result.output


def test_verify_t4_small(runner):
    result = runner.invoke(main, ["verify", "T4", "--d", "2..5", "--samples", "50"])
    assert result.exit_code == 0, result.output


def test_verify_exits_nonzero_on_mismatch(runner, monkeypatch):
    from kduncd.verify import VerifyRow

    monkeypatch.setattr(
        "kduncd.cli.verify_suite",
        lambda *a, **kw: [VerifyRow(d=4, label="T2", passed=False, detail="forced")],
    )
    result = runner.invoke(main, ["verify", "T2", "--d", "4"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_engine_both_exits_nonzero_on_disagreement(runner, monkeypatch):
    monkeypatch.setattr(
        diagram_mod, "_numeric_block_ranks", lambda numeric, row_sets, cols: [0] * len(row_sets)
    )
    result = runner.invoke(main, ["diagram", "--d", "4", "--engine", "both"])
    assert result.exit_code == 1
    assert "disagreement" in result.output


def test_witness_command_classical(runner, tmp_path):
    out = tmp_path / "w.json"
    result = runner.invoke(
        main, ["witness", "--d", "6", "2", "3", "--seed", "1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["verdict"] == "classical"
    assert (report["n_a"], report["n_b"]) == (2, 3)
    classify = runner.invoke(main, ["classify", str(out)])
    assert json.loads(classify.output)["verdict"] == "classical"


def test_witness_command_nonclassical(runner):
    result = runner.invoke(main, ["witness", "--d", "6", "4", "4", "--seed", "2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["verdict"] == "nonclassical"


def test_witness_command_hole(runner):
    result = runner.invoke(main, ["witness", "--d", "8", "5", "2"])
    assert result.exit_code == 1
    assert "hole" in result.output


def test_diagram_deterministic_small(runner, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        result = runner.invoke(
            main,
            ["diagram", "--d", "5", "--out", str(out),
             "--csv", str(csv), "--svg", str(svg)],
        )
        assert result.exit_code == 0
        blobs.append((out.read_bytes(), csv.read_bytes(), svg.read_bytes()))
    assert blobs[0] == blobs[1]
