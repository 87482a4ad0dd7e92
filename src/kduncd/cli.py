"""Command-line surface: enumerate diagrams, classify states, run
verification suites, and emit witness states.

Exit codes: 0 success, 1 verification mismatch, engine disagreement or
failed witness sampling, 2 usage error, 3 resource abort (Unknown points
from a budget-cut search: in `diagram` without --allow-partial, and in any
`verify` rule that reads the diagram).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import click

from . import __version__
from .diagram import (
    EXACT_DIMENSION_LIMIT,
    NUMERIC_DIMENSION_LIMIT,
    EngineDisagreementError,
    IndeterminateDiagramError,
    PointStatus,
    UncertaintyDiagram,
    WitnessSamplingError,
    _resolve_engine,
    diagram_to_csv,
    enumerate_diagram,
    load_diagram,
    point_exists,
    save_diagram,
    witness_state,
)
from .kd import (
    SupportThresholdError,
    TransitionKind,
    classify_state,
    dft_matrix,
    load_state,
    predict_classicality_dft,
    save_state,
    support_profile,
    theorem5_sufficient,
)
from .plotting import diagram_svg
from .verify import verify_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_ABORTED = 3


def _parse_dims(text: str) -> range:
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise click.UsageError(f"dimension must be an integer or A..B, got {text!r}") from None
    if lo < 1:
        raise click.UsageError(f"dimensions must be positive, got {text!r}")
    if lo > hi:
        raise click.UsageError(f"empty dimension range {text!r}")
    return range(lo, hi + 1)


def _cached_diagram(
    d: int, cache_dir: Path | None, allow_large: bool = False, **search
) -> UncertaintyDiagram:
    """Enumerate, or read the cache file written by an identical search.

    A missing, unreadable, truncated or incomplete cache file is a miss: the
    diagram is recomputed and the file replaced.  Writes go through a
    temporary file and ``os.replace``, so a reader never sees half a file.
    A diagram with Unknown points is not written.
    ``allow_large`` changes no diagram, so it stays out of the cache key.
    """
    path = None
    if cache_dir is not None:
        key_src = json.dumps({"d": d, **search, "version": __version__}, sort_keys=True)
        key = hashlib.sha256(key_src.encode()).hexdigest()[:16]
        path = cache_dir / f"diagram-d{d}-{key}.json"
        try:
            cached = load_diagram(path)
        except (OSError, ValueError, KeyError, TypeError):
            cached = None
        if cached is not None and cached.d == d and len(cached.points) == d * d:
            return cached
    _resolve_engine(d, TransitionKind.DFT, search["engine"], allow_large)
    diag = enumerate_diagram(dft_matrix(d), allow_large=allow_large, **search)
    if path is not None and not diag.unknown_set():
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        save_diagram(tmp, diag)
        os.replace(tmp, path)
    return diag


@contextmanager
def _exit_codes():
    """Map engine disagreements and failed witness sampling to exit 1,
    invalid inputs and unwritable output or cache paths to exit 2 and checks
    on budget-cut diagrams to exit 3."""
    try:
        yield
    except IndeterminateDiagramError as exc:
        click.echo(f"unresolved points: {exc}; raise --max-checks", err=True)
        sys.exit(EXIT_ABORTED)
    except EngineDisagreementError as exc:
        click.echo(f"engine disagreement: {exc}", err=True)
        sys.exit(EXIT_MISMATCH)
    except WitnessSamplingError as exc:
        click.echo(f"witness sampling failed: {exc}", err=True)
        sys.exit(EXIT_MISMATCH)
    except OSError as exc:
        click.echo(f"cannot write {exc.filename}: {exc.strerror}", err=True)
        sys.exit(EXIT_USAGE)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _positive_finite(ctx, param, value: float) -> float:
    """Tolerance check; ``click.FloatRange(min=0, min_open=True)`` would admit nan and inf."""
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be a positive finite number, got {value}")
    return value


_tolerance = partial(
    click.option, type=float, default=1e-10, show_default=True, callback=_positive_finite
)
_engine = click.option(
    "--engine",
    type=click.Choice(["auto", "exact", "numeric", "both"]),
    default="auto",
    show_default=True,
    help=f"Rank engine; auto picks exact for d <= {EXACT_DIMENSION_LIMIT}, numeric above.",
)
_count = partial(click.option, type=click.IntRange(min=1), default=None)
_max_checks = _count("--max-checks", help="Per-point candidate budget.")
_eps_support = _tolerance("--eps-support")
_eps_classical = _tolerance("--eps-classical")
_seed = click.option("--seed", type=int, default=None)
_cache = click.option(
    "--cache",
    "cache_dir",
    type=click.Path(file_okay=False, path_type=Path),
    default=None,
    help="Directory for reusable diagram enumerations.",
)


def _search_options(fn):
    """The point-search options, named as the keywords of ``enumerate_diagram``."""
    return _engine(_max_checks(fn))


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Kirkwood-Dirac nonclassicality and DFT uncertainty-diagram toolkit."""


@main.command("diagram")
@click.option("--d", "dim", type=str, required=True, help="Dimension.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False, path_type=Path), default=None)
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False, path_type=Path), default=None)
@_search_options
@click.option("--allow-partial", is_flag=True, default=False)
@click.option(
    "--allow-large",
    is_flag=True,
    help=f"Lift the size limit d <= {NUMERIC_DIMENSION_LIMIT} of every engine.",
)
@_cache
def cmd_diagram(
    dim, out, csv_path, svg_path, allow_partial, allow_large, cache_dir, **search
) -> None:
    """Enumerate the uncertainty diagram for one dimension."""
    dims = _parse_dims(dim)
    if dims[0] != dims[-1]:
        raise click.UsageError("diagram takes a single dimension")
    d = dims[0]
    with _exit_codes():
        diag = _cached_diagram(d, cache_dir, allow_large, **search)
        if out is not None:
            save_diagram(out, diag)
        if csv_path is not None:
            Path(csv_path).write_text(diagram_to_csv(diag), encoding="utf-8")
        if svg_path is not None:
            Path(svg_path).write_text(diagram_svg(diag), encoding="utf-8")
    n_present = len(diag.present_set())
    n_hole = len(diag.hole_set())
    n_unknown = len(diag.unknown_set())
    click.echo(
        f"d={d} engine={diag.engine} present={n_present} holes={n_hole} "
        f"unknown={n_unknown} rank_requests={diag.stats.get('rank_requests', 'n/a')}"
    )
    if out is None and csv_path is None and svg_path is None:
        click.echo(diagram_to_csv(diag), nl=False)
    if n_unknown and not allow_partial:
        click.echo("unresolved points present; rerun with --allow-partial to accept", err=True)
        sys.exit(EXIT_ABORTED)


@main.command("classify")
@click.argument("state_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--d", "dim", type=int, default=None, help="Expected dimension.")
@_eps_support
@_eps_classical
def cmd_classify(state_file, dim, eps_support, eps_classical) -> None:
    """Classify a state from a JSON file against the DFT basis pair."""
    try:
        psi = load_state(state_file)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"malformed state file: {exc}") from exc
    if dim is not None and psi.d != dim:
        raise click.UsageError(f"state has d={psi.d}, expected {dim}")
    u = dft_matrix(psi.d)
    profile = support_profile(psi, u, eps=eps_support)
    result = classify_state(psi, u, eps=eps_classical)
    try:
        t4 = predict_classicality_dft(profile).value
    except SupportThresholdError as exc:
        raise click.UsageError(str(exc)) from exc
    if profile.n_a > 1 and profile.n_b > 1:
        t5 = theorem5_sufficient(profile, u)
    else:
        t5 = None  # criterion is silent on basis vectors
    witness = None
    if result.witness is not None:
        i, j, q = result.witness
        witness = {"i": i, "j": j, "q": [q.real, q.imag]}
    report = {
        "d": psi.d,
        "n_a": profile.n_a,
        "n_b": profile.n_b,
        "product": profile.n_a * profile.n_b,
        "verdict": result.verdict.value,
        "witness": witness,
        "theorem4_prediction": t4,
        "theorem5_flag": t5,
    }
    click.echo(json.dumps(report, indent=2))


@main.command("verify")
@click.argument(
    "theorem", type=click.Choice(["T1", "C1", "T2", "T3", "T4", "T5", "L3"], case_sensitive=False)
)
@click.option("--d", "dim", type=str, required=True, help="Dimension or range A..B.")
@_count("--samples", help="Sampled states per dimension.")
@_count("--pairs", help="Random MUB pairs per dimension (T5).")
@_search_options
@_seed
@_cache
def cmd_verify(theorem, dim, samples, pairs, seed, cache_dir, **search) -> None:
    """Check one named prediction or property suite over a dimension range."""
    dims = _parse_dims(dim)
    with _exit_codes():
        rows = verify_suite(
            theorem,
            dims,
            lambda d: _cached_diagram(d, cache_dir, **search),
            samples=samples,
            pairs=pairs,
            seed=0 if seed is None else seed,
        )
    for row in rows:
        mark = "PASS" if row.passed else ("INFO" if row.passed is None else "FAIL")
        click.echo(f"{row.label:<3} d={row.d:<3} {mark}  {row.detail}")
    if any(row.passed is False for row in rows):
        sys.exit(EXIT_MISMATCH)


@main.command("witness")
@click.option("--d", "dim", type=int, required=True)
@click.argument("n_a", type=int)
@click.argument("n_b", type=int)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None)
@_search_options
@_seed
@_eps_support
@_eps_classical
def cmd_witness(dim, n_a, n_b, out, seed, eps_support, eps_classical, **search) -> None:
    """Emit a state realizing a Present diagram point."""
    with _exit_codes():
        _resolve_engine(dim, TransitionKind.DFT, search["engine"], allow_large=False)
        u = dft_matrix(dim)
        point = point_exists(u, n_a, n_b, **search)
        if point.status is PointStatus.UNKNOWN:
            click.echo(f"point ({n_a}, {n_b}) unresolved: {point.note}", err=True)
            sys.exit(EXIT_ABORTED)
        if point.status is PointStatus.HOLE:
            click.echo(f"point ({n_a}, {n_b}) is a hole for d={dim}", err=True)
            sys.exit(EXIT_MISMATCH)
        psi = witness_state(u, point, seed=seed, eps_support=eps_support)
        if out is not None:
            save_state(out, psi)
    profile = support_profile(psi, u, eps=eps_support)
    result = classify_state(psi, u, eps=eps_classical)
    report = {
        "d": dim,
        "n_a": profile.n_a,
        "n_b": profile.n_b,
        "verdict": result.verdict.value,
        "rows": list(point.certificate.rows),
        "cols": list(point.certificate.cols),
    }
    click.echo(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
