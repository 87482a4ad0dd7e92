"""Workloads, timed passes, output checks and metrics of the kduncd benchmark.

Import this module only after ``src/`` of the checkout is on ``sys.path``
(``run.py`` does that).  Every workload is one client in one process issuing
requests in a closed loop; engines are pinned explicitly, so a change of the
package's ``auto`` default does not change what a workload measures.

A run is: set-up, repeated ``SETUP_REPS`` times from cold, then timed passes
over the workload's fixed request set until the time budget is used.  With
tracing on, traced passes alternate with untraced ones; the difference is
the tracing overhead.  Outputs are checked after each pass, outside the
timed region.  All reported times are nominal seconds (see ``clock.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import checks
import kduncd
from kduncd import cli, diagram, kd, plotting, states
from clock import SpeedSampler
from tracing import MODULES, Tracer

SETUP_REPS = 3
EXACT_MAX_D = 9  # witness requests use the exact engine up to here, numeric above
VERIFY_RULES = ("T1", "C1", "T2", "T3", "T4", "L3")


@dataclass(frozen=True)
class DiagramWorkload:
    """Each pass runs the steps of ``kduncd diagram --d N --out --csv --svg``
    for every dimension, with the engine pinned and no symmetry reduction."""

    name: str
    dims: tuple[int, ...]
    engine: str


@dataclass(frozen=True)
class QueryWorkload:
    """Each pass issues, in a seeded order, one witness request for every
    lattice point (d, n_a, n_b) of ``witness_dims`` with d + n_a + n_b = 0
    mod 3, one ``kduncd verify`` request per rule and dimension of
    ``verify_dims``, and one classify request per state made in set-up."""

    name: str
    witness_dims: tuple[int, ...]
    verify_dims: tuple[int, ...]
    states_per_kind: int


WORKLOADS = {
    w.name: w
    for w in (
        DiagramWorkload("diagram-numeric", dims=(11, 12), engine="numeric"),
        DiagramWorkload("diagram-exact", dims=(8, 9), engine="exact"),
        QueryWorkload(
            "queries",
            witness_dims=tuple(range(6, 13)),
            verify_dims=tuple(range(6, 11)),
            states_per_kind=40,
        ),
    )
}

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for a traced
    (per-layer) or untraced (end-to-end) run, in its order."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


_CANDIDATES = re.compile(r"(\d+) candidates")


class Ledger:
    """Attempted and failed operations, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.extend(problems[:2])


def _pctl(values: list[float], q: int) -> float:
    """q-th percentile by the 'inclusive' quantile rule; 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _error(exc: BaseException) -> str:
    """One-line failure note; unexpected error types also get a traceback."""
    if not isinstance(exc, (diagram.WitnessSamplingError, diagram.EngineDisagreementError)):
        traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _engine_for(d: int) -> str:
    return "exact" if d <= EXACT_MAX_D else "numeric"


# ---------------------------------------------------------------------------
# the package's public functions, traced or not


class Api:
    """The public calls a workload makes, wrapped in spans when traced."""

    def __init__(self, tracer: Tracer | None) -> None:
        def bind(name, fn, annotate=None):
            return fn if tracer is None else tracer.wrap(name, fn, annotate)

        runner = CliRunner()
        self.dft_matrix = bind("kd.dft_matrix", kd.dft_matrix)
        self.enumerate_diagram = bind("diagram.enumerate_diagram", diagram.enumerate_diagram)
        self.save_diagram = bind("diagram.save_diagram", diagram.save_diagram)
        self.diagram_to_csv = bind("diagram.diagram_to_csv", diagram.diagram_to_csv)
        self.diagram_svg = bind("plotting.diagram_svg", plotting.diagram_svg)
        self.point_exists = bind(
            "diagram.point_exists", diagram.point_exists, lambda a, k, r: r.status.value
        )
        self.check_submatrix_conditions = bind(
            "diagram.check_submatrix_conditions",
            diagram.check_submatrix_conditions,
            lambda a, k, r: k["engine"],
        )
        self.witness_state = bind("diagram.witness_state", diagram.witness_state)
        self.support_profile = bind("kd.support_profile", kd.support_profile)
        self.classify_state = bind("kd.classify_state", kd.classify_state)
        self.predict_classicality_dft = bind(
            "kd.predict_classicality_dft", kd.predict_classicality_dft
        )
        self.cli = bind("cli.main", lambda args: runner.invoke(cli.main, args))
        self.tracer = tracer

    def request(self, name: str):
        """Span around one benchmark request when tracing."""
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


CROSS_MODULE_ANNOTATIONS = {
    "verify.verify_suite": lambda a, k, r: a[0].upper(),
    "linalg.rank": lambda a, k, r: r.engine,
}


# ---------------------------------------------------------------------------
# set-up


def import_seconds(root: Path) -> float:
    """Nominal import time of ``kduncd.cli`` in a fresh interpreter,
    measured there between two calibrations."""
    code = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import clock\n"
        "print(clock.bracketed(lambda: __import__('kduncd.cli')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(Path(__file__).resolve().parent)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def clear_lazy_caches() -> None:
    """Drop every memoized table in the package, so set-up starts cold."""
    for m in MODULES:
        for obj in list(vars(getattr(kduncd, m)).values()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@dataclass
class Prepared:
    """What set-up leaves for the timed passes."""

    workdir: Path
    requests: list = field(default_factory=list)
    states: list = field(default_factory=list)


def _lattice(d: int):
    return [(a, b) for a in range(1, d + 1) for b in range(1, d + 1)]


def _prepare_diagrams(w: DiagramWorkload, workdir: Path) -> Prepared:
    # (d, d) is Present on its first candidate: this only builds the
    # engine's lazy tables and runs one audit.
    for d in w.dims:
        diagram.point_exists(kd.dft_matrix(d), d, d, engine=w.engine)
    return Prepared(workdir=workdir)


def _prepare_queries(
    w: QueryWorkload, seed: int, workdir: Path, ledger: Ledger, reference
) -> Prepared:
    runner = CliRunner()
    for d in w.witness_dims:
        diagram.point_exists(kd.dft_matrix(d), d, d, engine=_engine_for(d))
    cache = workdir / "cache"
    loaded = {}
    for d in w.verify_dims:
        out = workdir / f"diagram-d{d}.json"
        res = runner.invoke(
            cli.main,
            ["diagram", "--d", str(d), "--engine", "numeric", "--cache", str(cache), "--out", str(out)],
        )
        if res.exit_code != 0:
            raise RuntimeError(f"cache fill for d={d} failed: {res.output}")
        loaded[d] = diagram.load_diagram(out)
        got = {k: p.status.value for k, p in loaded[d].points.items()}
        ledger.record([f"cached d={d} statuses differ from the reference"] if got != reference[d] else [])

    rng = np.random.default_rng([seed, 1])
    made = []
    for d in w.verify_dims:
        u = kd.dft_matrix(d)
        divs = checks.divisors(d)
        for _ in range(w.states_per_kind):
            spec = states.CosetSpec(
                d=d,
                p=divs[int(rng.integers(len(divs)))],
                a_shift=int(rng.integers(d)),
                b_shift=int(rng.integers(d)),
            )
            made.append(("coset", d, states.coset_classical_state(spec), u, "classical"))
        present = sorted(loaded[d].present_set())
        for _ in range(w.states_per_kind):
            a, b = present[int(rng.integers(len(present)))]
            try:
                psi = diagram.witness_state(u, loaded[d].points[(a, b)], seed=rng)
            except diagram.WitnessSamplingError as exc:
                ledger.record([f"set-up witness ({d},{a},{b}): {_error(exc)}"])
                continue
            made.append(("witness", d, psi, u, "classical" if a * b == d else "nonclassical"))
        for _ in range(w.states_per_kind):
            made.append(_mub_state(d, rng))

    requests = [
        ("witness", d, a, b, int(rng.integers(2**31)))
        for d in w.witness_dims
        for a, b in _lattice(d)
        if (d + a + b) % 3 == 0
    ]
    requests += [("verify", r, d) for r in VERIFY_RULES for d in w.verify_dims]
    requests += [("classify", i) for i in range(len(made))]
    order = rng.permutation(len(requests))
    return Prepared(
        workdir=workdir, requests=[requests[i] for i in order], states=made
    )


def _mub_state(d: int, rng: np.random.Generator):
    """A random-MUB subspace state with one support above d/2, redrawn until
    Theorem 5 applies, so its verdict must be nonclassical."""
    while True:
        u = states.random_mub_pair(d, seed=rng)
        big = int(rng.integers(d // 2 + 1, d + 1))
        small = int(rng.integers(max(2, d + 1 - big), d + 1))
        s = rng.choice(d, size=big, replace=False)
        t = rng.choice(d, size=small, replace=False)
        if rng.integers(2):
            s, t = t, s
        psi = states.random_state_in_subspace(u, s, t, seed=rng)
        profile = kd.support_profile(psi, u)
        if profile.n_a > 1 and profile.n_b > 1 and kd.theorem5_sufficient(profile, u):
            return ("mub", d, psi, u, "nonclassical")


def set_up(
    w, seed: int, root: Path, scratch: Path, ledger: Ledger, reference, speed: SpeedSampler
) -> tuple[Prepared, dict]:
    """Run set-up SETUP_REPS times from cold; keep the last one's result."""
    totals, imports, dfts = [], [], []
    prepared = None
    dims = w.dims if isinstance(w, DiagramWorkload) else w.witness_dims
    for rep in range(SETUP_REPS):
        if prepared is not None:
            shutil.rmtree(prepared.workdir)
        workdir = Path(tempfile.mkdtemp(prefix=f"setup{rep}-", dir=scratch))
        # only the last repetition's result is used, so only it is counted
        rep_ledger = Ledger() if rep < SETUP_REPS - 1 else ledger
        imported = import_seconds(root)
        t0 = time.perf_counter()
        clear_lazy_caches()
        for d in dims:
            kd.dft_matrix(d)
        t1 = time.perf_counter()
        if isinstance(w, DiagramWorkload):
            prepared = _prepare_diagrams(w, workdir)
        else:
            prepared = _prepare_queries(w, seed, workdir, rep_ledger, reference)
        t2 = time.perf_counter()
        totals.append(imported + speed.seconds(t0, t2))
        imports.append(imported)
        dfts.append(speed.seconds(t0, t1))
    info = {
        "setup_s": _median(totals),
        "cli.import_ms": 1e3 * _median(imports),
        "kd.dft_matrix_ms": 1e3 * _median(dfts),
        "reps": totals,
    }
    return prepared, info


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    """One pass: its wall time, and per request (keyed by the request) its
    wall start and end and the output the checks look at."""

    seconds: float = 0.0
    latency: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)  # d -> (requests, computed, hole candidates)


def diagram_pass(w: DiagramWorkload, api: Api, prep: Prepared) -> PassResult:
    res = PassResult()
    start = time.perf_counter()
    for d in w.dims:
        stem = prep.workdir / f"d{d}"
        t0 = time.perf_counter()
        try:
            with api.request("request.diagram"):
                diag = api.enumerate_diagram(api.dft_matrix(d), engine=w.engine, sym_reduce=False)
                api.save_diagram(stem.with_suffix(".json"), diag)
                stem.with_suffix(".csv").write_text(api.diagram_to_csv(diag), encoding="utf-8")
                stem.with_suffix(".svg").write_text(api.diagram_svg(diag), encoding="utf-8")
            res.outputs[d] = diag
        except Exception as exc:  # one failed diagram must not stop the run
            res.outputs[d] = exc
        res.latency[d] = (t0, time.perf_counter())
    res.seconds = time.perf_counter() - start
    return res


def queries_pass(w: QueryWorkload, api: Api, prep: Prepared, seed: int) -> PassResult:
    res = PassResult()
    cache = str(prep.workdir / "cache")
    start = time.perf_counter()
    for req in prep.requests:
        kind = req[0]
        t0 = time.perf_counter()
        try:
            with api.request(f"request.{kind}"):
                if kind == "witness":
                    out = _witness_request(api, *req[1:])
                elif kind == "verify":
                    rule, d = req[1:]
                    r = api.cli(
                        ["verify", rule, "--d", str(d), "--engine", "numeric",
                         "--cache", cache, "--seed", str(seed)]
                    )
                    out = (r.exit_code, r.output)
                else:
                    _, d, psi, u, _ = prep.states[req[1]]
                    profile = api.support_profile(psi, u)
                    verdict = api.classify_state(psi, u).verdict
                    out = (verdict.value, api.predict_classicality_dft(profile).value)
        except Exception as exc:  # counted as a failed request, the run goes on
            out = exc
        res.latency[req] = (t0, time.perf_counter())
        res.outputs[req] = out
    res.seconds = time.perf_counter() - start
    return res


def _witness_request(api: Api, d: int, a: int, b: int, wseed: int) -> dict:
    """Mirror of ``kduncd witness``: decide the point; for a Present point
    audit its certificate, realize it and classify the state."""
    u = api.dft_matrix(d)
    eng = _engine_for(d)
    point = api.point_exists(u, a, b, engine=eng)
    out = {"status": point.status.value, "note": point.note}
    if point.status is diagram.PointStatus.PRESENT:
        rows, cols = point.certificate.rows, point.certificate.cols
        ok, _ = api.check_submatrix_conditions(u, rows, cols, engine=eng)
        psi = api.witness_state(u, point, seed=wseed)
        profile = api.support_profile(psi, u)
        verdict = api.classify_state(psi, u).verdict
        out.update(
            rows=rows, cols=cols, audit=ok, amps=psi.amps_a,
            profile=(profile.n_a, profile.n_b), verdict=verdict.value,
        )
    return out


# ---------------------------------------------------------------------------
# output checks, run after each pass outside the timed region


class Checker:
    """Compares each pass with the reference and with the run's first pass."""

    def __init__(self, workload, prep: Prepared, reference, ledger: Ledger) -> None:
        self.w = workload
        self.prep = prep
        self.reference = reference
        self.ledger = ledger
        self.first: dict = {}

    def check(self, res: PassResult) -> None:
        if isinstance(self.w, DiagramWorkload):
            self._check_diagrams(res)
        else:
            self._check_queries(res)

    def _same_as_first(self, key, digest) -> list[str]:
        seen = self.first.setdefault(key, digest)
        return [] if seen == digest else [f"{key}: output differs from the first pass"]

    def _check_diagrams(self, res: PassResult) -> None:
        for d in self.w.dims:
            diag = res.outputs[d]
            if isinstance(diag, Exception):
                self.ledger.record([f"diagram d={d}: {_error(diag)}"])
                continue
            problems = []
            statuses = {k: p.status.value for k, p in diag.points.items()}
            if statuses != self.reference[d]:
                wrong = sorted(k for k in self.reference[d] if statuses.get(k) != self.reference[d][k])
                problems.append(f"diagram d={d}: statuses differ from the reference at {wrong[:5]}")
            holes = sum(_hole_candidates(p) for p in diag.points.values())
            counters = (diag.stats.get("rank_requests", 0), diag.stats.get("rank_computed", 0), holes)
            res.counters[d] = counters
            problems += self._same_as_first(("counters", d), counters)
            stem = self.prep.workdir / f"d{d}"
            files = b"".join(stem.with_suffix(s).read_bytes() for s in (".json", ".csv", ".svg"))
            first_pass = ("files", d) not in self.first
            problems += self._same_as_first(("files", d), _digest(files))
            if first_pass:
                f = checks.dft(d)
                for (a, b), p in sorted(diag.points.items()):
                    if p.status is diagram.PointStatus.PRESENT and not checks.certificate_holds(
                        f, a, b, p.certificate.rows, p.certificate.cols
                    ):
                        problems.append(f"diagram d={d} ({a},{b}): certificate fails the audit")
            self.ledger.record(problems)

    def _check_queries(self, res: PassResult) -> None:
        holes = 0
        for req, out in res.outputs.items():
            if isinstance(out, Exception):
                self.ledger.record([f"{req}: {_error(out)}"])
                continue
            kind = req[0]
            if kind == "witness":
                problems, digest = self._check_witness(req, out)
                holes += _hole_candidates(out)
            elif kind == "verify":
                code, text = out
                problems = [] if code == 0 and "FAIL" not in text else [f"{req}: {text.strip()}"]
                digest = out
            else:
                expected = self.prep.states[req[1]][4]
                problems = [] if out == (expected, expected) else [f"{req}: got {out}, expected {expected}"]
                digest = out
            self.ledger.record(problems + self._same_as_first(req, _digest(digest)))
        res.counters["all"] = (0, 0, holes)

    def _check_witness(self, req, out: dict) -> tuple[list[str], str]:
        _, d, a, b, _ = req
        problems = []
        if out["status"] != self.reference[d][(a, b)]:
            problems.append(f"{req}: status {out['status']}, reference {self.reference[d][(a, b)]}")
        if out["status"] != "present":
            return problems, _digest(out["status"], out["note"])
        digest = _digest(out["rows"], out["cols"], out["amps"].tobytes())
        expected = "classical" if a * b == d else "nonclassical"
        if not out["audit"]:
            problems.append(f"{req}: certificate audit failed")
        if out["profile"] != (a, b) or out["verdict"] != expected:
            problems.append(f"{req}: profile {out['profile']} verdict {out['verdict']}")
        if req not in self.first:
            f = checks.dft(d)
            if not checks.certificate_holds(f, a, b, out["rows"], out["cols"]):
                problems.append(f"{req}: certificate fails the independent audit")
            if checks.support_counts(f, out["amps"]) != (a, b):
                problems.append(f"{req}: witness state has the wrong support")
        return problems, digest


def _hole_candidates(point) -> int:
    status = point["status"] if isinstance(point, dict) else point.status.value
    note = point["note"] if isinstance(point, dict) else point.note
    if status != "hole":
        return 0
    m = _CANDIDATES.search(note)
    return int(m.group(1)) if m else 0


# ---------------------------------------------------------------------------
# the run


def _passes(run_pass, budget: float, trace: bool) -> tuple[list, list]:
    """Untraced passes, alternating with traced ones when tracing.  At least
    one of each kind; another pass only while it should end within budget."""
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            traced.append(run_pass(True))
        else:
            untraced.append(run_pass(False))
        typical = _median([r.seconds for r in untraced + traced])
        if (traced or not trace) and time.perf_counter() - start + typical > budget:
            return untraced, traced


def run(workload, seed: int, seconds: float, trace: bool, root: Path, reference) -> dict:
    """One benchmark run; returns metrics, counts and what the report prints."""
    scratch_root = root / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch_root))
    ledger = Ledger()
    tracer = Tracer()
    try:
        with SpeedSampler() as speed:
            prep, setup = set_up(workload, seed, root, scratch, ledger, reference, speed)
            checker = Checker(workload, prep, reference, ledger)

            def run_pass(traced: bool) -> PassResult:
                # every pass starts from a collected heap, so that
                # peak_rss_mb does not depend on where earlier passes left
                # the cyclic collector
                gc.collect()
                api = Api(tracer if traced else None)
                if traced:
                    tracer.instrument(annotate=CROSS_MODULE_ANNOTATIONS)
                try:
                    if isinstance(workload, DiagramWorkload):
                        r = diagram_pass(workload, api, prep)
                    else:
                        r = queries_pass(workload, api, prep, seed)
                finally:
                    tracer.restore()
                checker.check(r)
                # the checker keeps digests only; holding every pass's
                # diagrams would make peak_rss_mb grow with the pass count
                r.outputs = {}
                return r

            untraced, traced = _passes(run_pass, seconds, trace)
        if trace:
            tracer.write_csv(scratch_root / f"trace-{workload.name}.csv")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if trace:
        metrics = _layer_metrics(untraced, traced, tracer, speed, setup, ledger)
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "pass_s": sum(_typical(untraced, speed).values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = metric_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from {SPEC.name}: {sorted(set(metrics) ^ set(units))}")
    factors = list(speed.factor)
    return {
        "metrics": {n: metrics[n] for n in units},
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "notes": ledger.notes,
        "setup_reps": setup["reps"],
        "untraced": [r.seconds for r in untraced],
        "traced": [r.seconds for r in traced],
        "counters": untraced[0].counters,
        "speed": (len(factors), min(factors), statistics.median(factors), max(factors)),
    }


def _typical(results: list[PassResult], speed: SpeedSampler) -> dict:
    """Median nominal latency of each request over the given passes.

    Slow spells on a shared machine hit different requests in different
    passes, so per-request medians are steadier than whole-pass medians."""
    keys = list(results[0].latency)
    wall = np.array([[r.latency[k] for k in keys] for r in results])  # (passes, keys, 2)
    nominal = speed.nominal(wall)
    per_pass = nominal[..., 1] - nominal[..., 0]
    return dict(zip(keys, np.median(per_pass, axis=0).tolist()))


def _layer_metrics(untraced, traced, tracer: Tracer, speed, setup, ledger: Ledger) -> dict:
    """Per-layer metrics: span-based ones from the traced passes, request
    latencies and counters from the untraced ones; all times nominal."""
    n = len(traced)
    t = tracer
    dur = (speed.nominal(np.array(t.end)) - speed.nominal(np.array(t.start))).tolist()
    names = np.array(t.names, dtype=object)

    def durations(name, parent=None):
        ids = np.flatnonzero(names == name)
        if parent is not None:
            ids = [i for i in ids if t.parent[i] >= 0 and t.names[t.parent[i]] == parent]
        return list(ids), [dur[i] for i in ids]

    def mean(values, scale):
        return scale * sum(values) / len(values) if values else 0.0

    requests, computed, holes = (sum(c[i] for c in untraced[0].counters.values()) for i in range(3))
    m = {
        "diagram.enumerate_s": sum(durations("diagram.enumerate_diagram")[1]) / n,
        "diagram.rank_requests": requests,
        "diagram.rank_computed": computed,
        "diagram.hole_candidates": holes,
        "diagram.cache_hit_ratio": 1.0 - computed / requests if requests else 0.0,
    }
    ids, secs = durations("diagram.point_exists")
    for status in ("present", "hole"):
        ms = [1e3 * s for i, s in zip(ids, secs) if t.meta.get(i) == status]
        m[f"diagram.point_ms.{status}.p50"] = _pctl(ms, 50)
        m[f"diagram.point_ms.{status}.p90"] = _pctl(ms, 90)
    for eng in ("exact", "numeric"):
        ids, secs = durations("diagram.check_submatrix_conditions")
        m[f"diagram.audit_ms.{eng}"] = mean([s for i, s in zip(ids, secs) if t.meta.get(i) == eng], 1e3)
        ids, secs = durations("linalg.rank")
        m[f"linalg.rank_ms.{eng}"] = mean([s for i, s in zip(ids, secs) if t.meta.get(i) == eng], 1e3)
    m["diagram.witness_ms"] = mean(durations("diagram.witness_state", "request.witness")[1], 1e3)
    m["kd.classify_us"] = mean(durations("kd.classify_state", "request.classify")[1], 1e6)
    m["kd.support_profile_us"] = mean(durations("kd.support_profile", "request.classify")[1], 1e6)
    m["diagram.load_ms"] = mean(durations("diagram.load_diagram")[1], 1e3)
    m["cli.verify_ms"] = mean(durations("cli.main", "request.verify")[1], 1e3)
    ids, secs = durations("verify.verify_suite")
    for rule in VERIFY_RULES:
        m[f"verify.rule_s.{rule}"] = sum(s for i, s in zip(ids, secs) if t.meta.get(i) == rule) / n
    m["diagram.save_ms"] = mean(durations("diagram.save_diagram")[1], 1e3)
    m["diagram.csv_ms"] = mean(durations("diagram.diagram_to_csv")[1], 1e3)
    m["plotting.svg_ms"] = mean(durations("plotting.diagram_svg")[1], 1e3)
    m["kd.dft_matrix_ms"] = setup["kd.dft_matrix_ms"]
    m["cli.import_ms"] = setup["cli.import_ms"]
    selfs = t.self_times(dur)
    for mod in MODULES:
        m[f"{mod}.self_s"] = selfs.get(mod, 0.0) / n
    typical = _typical(untraced, speed)
    base = sum(typical.values())
    m["trace.overhead_pct"] = 100.0 * (sum(_typical(traced, speed).values()) / base - 1.0)

    def of_kind(kind):
        return [v for k, v in typical.items() if isinstance(k, tuple) and k[0] == kind]

    witness_ms = [1e3 * v for v in of_kind("witness")]
    m["point_p50_ms"] = _pctl(witness_ms, 50)
    m["point_p90_ms"] = _pctl(witness_ms, 90)
    m["verify_s"] = float(sum(of_kind("verify")))
    classify = of_kind("classify")
    m["classify_per_s"] = len(classify) / sum(classify) if classify else 0.0
    m["fail_ratio"] = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    return m


def machine_notes() -> str:
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"nproc={os.cpu_count()} cpus_allowed={len(os.sched_getaffinity(0))} "
        f"python={sys.version.split()[0]} numpy={np.__version__} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} "
        f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS', 'unset')} loadavg={load}"
    )
