"""The benchmark's workloads: seeded inputs, timed calls into pipemap, output checks.

Each workload draws every input from ``numpy.random.default_rng`` streams
keyed by the benchmark seed, so the same seed always gives the same inputs
and pipemap only ever sees generated data.  A workload runs in *windows*
(one timed unit of work); ``windows_per_pass`` windows make one *pass*, which
holds each kind of input the workload mixes once, so passes cost about the
same.  The outputs of pass 0 are hashed into the run's digest.  Only pipemap
calls are timed (``clock``); checking the outputs happens outside the clock.
``reference`` names the reference work of ``reference.py`` whose speed tracks
the host's speed for this workload.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from pipemap import exact, heuristics, ilp, model, simulator, workbench
from pipemap.exact import BicriteriaQuery
from pipemap.model import EPS_CMP, IntervalMapping, PipelineSpec, Platform, meets_threshold

import tracing

SENSES = ("latency", "period")
# Bound on how far a simulated period or latency may sit from the formulas.
SIM_REL_TOL = 1e-9


def rng(seed: int, *stream: int) -> np.random.Generator:
    """The generator of one named input stream of a seed."""
    return np.random.default_rng([seed, *stream])


def platform_arrays(gen: np.random.Generator, p: int) -> dict:
    s = gen.uniform(50.0, 200.0, p)
    b = gen.uniform(50.0, 200.0, (p + 2, p + 2))
    np.fill_diagonal(b, 0.0)
    return {"s": s, "b": b}


def pipeline_arrays(gen: np.random.Generator, n: int) -> dict:
    return {"w": gen.uniform(1.0, 100.0, n), "delta": gen.uniform(1.0, 100.0, n + 1)}


def make_platform(arrays: dict) -> Platform:
    return Platform(s=arrays["s"], b=arrays["b"])


def make_pipeline(arrays: dict) -> PipelineSpec:
    n = arrays["w"].size
    return PipelineSpec(
        stage_names=tuple(f"s{k}" for k in range(1, n + 1)),
        w=arrays["w"],
        delta=arrays["delta"],
    )


class Stopwatch:
    """Accumulates the time spent inside its ``with`` blocks."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += perf_counter() - self._t0


@dataclass
class WindowResult:
    ops: int  # operations attempted
    failed: int  # operations whose outputs failed a check
    queries: int  # exact queries answered
    parts: list[str]  # digest lines, timing fields left out


@dataclass(frozen=True)
class Anchor:
    """What an unconstrained solve tells about one (platform, sense)."""

    min_fixed: float  # smallest achievable value of the bounded criterion
    bind_end: float  # bound above which the threshold no longer binds
    mapping: str
    objective: float


def fixed_and_objective(metrics, sense: str) -> tuple[float, float]:
    if sense == "latency":
        return metrics.period, metrics.latency
    return metrics.latency, metrics.period


def unconstrained_anchor(spec, platform, sense: str) -> Anchor:
    result = exact.solve(spec, platform, BicriteriaQuery(sense, math.inf))
    fixed, objective = fixed_and_objective(result.metrics, sense)
    return Anchor(
        min_fixed=result.min_period if sense == "latency" else result.min_latency,
        bind_end=fixed,
        mapping=result.mapping.signature(),
        objective=objective,
    )


def warm_anchors(spec, platform) -> tuple[dict[str, Anchor], float]:
    """Anchors of both senses, and the seconds of the first (cold) solve."""
    t0 = perf_counter()
    first = unconstrained_anchor(spec, platform, SENSES[0])
    cold = perf_counter() - t0
    return {SENSES[0]: first, SENSES[1]: unconstrained_anchor(spec, platform, SENSES[1])}, cold


def within(anchor: Anchor, u: float) -> float:
    return anchor.min_fixed + (anchor.bind_end - anchor.min_fixed) * u


def _num(x) -> str:
    return "" if x is None else repr(x)


class Workload:
    name = ""
    op = ""  # what one counted operation is
    reference = ""  # the reference work that tracks this workload's host speed
    windows_per_pass = 1
    window_ops = 1

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.cold_solve_s = 0.0

    def setup_inputs(self) -> dict:
        raise NotImplementedError

    def window_inputs(self, k: int):
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_window(self, k: int, tr, clock: Stopwatch) -> WindowResult:
        raise NotImplementedError

    def scratch_file(self, suffix: str) -> Path:
        return self.out_dir / f"{self.name}-{os.getpid()}.{suffix}"


class ExactSweep(Workload):
    """Threshold sweeps of the JPEG preset on one p=10 platform, alternating senses.

    Each window sweeps a fresh grid: one threshold below the unconstrained
    minimum (infeasible), three inside the binding range and one past it.
    """

    name = "exact-sweep"
    op = "sweep threshold"
    reference = "numpy"
    P = 10
    THRESHOLDS = 5
    windows_per_pass = 2  # one sweep per sense
    window_ops = THRESHOLDS

    def setup_inputs(self) -> dict:
        return platform_arrays(rng(self.seed, 1), self.P)

    def window_inputs(self, k: int) -> dict:
        gen = rng(self.seed, 2, k)
        return {
            "below": gen.uniform(0.90, 0.99),
            "inside": np.sort(gen.uniform(0.0, 1.0, self.THRESHOLDS - 2)),
            "beyond": gen.uniform(1.01, 1.10),
        }

    def setup(self) -> None:
        self.spec = model.jpeg_preset()
        self.platform = make_platform(self.setup_inputs())
        self.anchors, self.cold_solve_s = warm_anchors(self.spec, self.platform)

    def run_window(self, k, tr, clock) -> WindowResult:
        sense = SENSES[k % 2]
        anchor = self.anchors[sense]
        x = self.window_inputs(k)
        thresholds = (
            [anchor.min_fixed * x["below"]]
            + [within(anchor, u) for u in x["inside"]]
            + [anchor.bind_end * x["beyond"]]
        )
        path = self.scratch_file("csv")
        with clock:
            with tr.span("workbench.run_sweep_report"):
                report = workbench.run_sweep_report(
                    self.spec, self.platform, BicriteriaQuery(sense, math.inf), thresholds
                )
            with tr.span("workbench.csv_write") as c:
                workbench.write_sweep_csv(report, path)
                c["bytes"] = path.stat().st_size
            with tr.span("workbench.csv_read"):
                back = workbench.read_sweep_csv(path)
        bad = check_sweep(self.spec, self.platform, sense, anchor, thresholds, report, back)
        n = len(thresholds)
        return WindowResult(ops=n, failed=len(bad), queries=n, parts=sweep_parts(report))


def sweep_parts(report) -> list[str]:
    return [
        ",".join([report.objective, _num(r.threshold), str(r.feasible), _num(r.objective),
                  _num(r.period), _num(r.latency), r.mapping or ""])
        for r in report.rows
    ]


def check_sweep(spec, platform, sense, anchor, thresholds, report, back) -> set[int]:
    """Indexes of the sweep rows that fail a check."""
    n = len(thresholds)
    if back != report or report.objective != sense or len(report.rows) != n:
        return set(range(n))
    bad = set()
    seen_feasible = False
    prev = None
    for i, (row, t) in enumerate(zip(report.rows, thresholds)):
        ok = row.threshold == t and row.feasible == meets_threshold(anchor.min_fixed, t)
        if row.feasible:
            got = model.evaluate_metrics(spec, platform, IntervalMapping.from_signature(row.mapping))
            fixed, objective = fixed_and_objective(got, sense)
            ok = (ok and got.period == row.period and got.latency == row.latency
                  and objective == row.objective and meets_threshold(fixed, t))
            if prev is not None:
                ok = ok and row.objective <= prev + EPS_CMP * max(1.0, abs(prev))
            prev = row.objective
            seen_feasible = True
        elif seen_feasible:
            ok = False
        if not ok:
            bad.add(i)
    last = report.rows[-1]
    if last.mapping != anchor.mapping or last.objective != anchor.objective:
        bad.add(n - 1)
    return bad


class CampaignMixedP(Workload):
    """One single-platform campaign per window; a pass holds one per (p, sense), p in {8, 9, 10}.

    Every pass draws fresh platforms, so no platform is queried twice.
    """

    name = "campaign-mixed-p"
    op = "campaign row"
    reference = "numpy"
    PS = (8, 9, 10)
    GROUPS = tuple((p, sense) for p in PS for sense in SENSES)
    HEURISTICS = {"latency": ("h1", "h2", "h3", "h4"), "period": ("h5", "h6")}
    windows_per_pass = len(GROUPS)

    def setup_inputs(self) -> dict:
        return {p: platform_arrays(rng(self.seed, 3, p), p) for p in self.PS}

    def window_inputs(self, k: int) -> dict:
        j, (p, sense) = k // self.windows_per_pass, self.GROUPS[k % self.windows_per_pass]
        gen = rng(self.seed, 4, j, p, SENSES.index(sense))
        return {**platform_arrays(gen, p), "u": gen.uniform(0.25, 0.75)}

    def setup(self) -> None:
        self.spec = model.jpeg_preset()
        self.anchors = {}
        for p, arrays in self.setup_inputs().items():
            anchors, cold = warm_anchors(self.spec, make_platform(arrays))
            self.cold_solve_s += cold
            for sense, anchor in anchors.items():
                self.anchors[p, sense] = anchor

    def run_window(self, k, tr, clock) -> WindowResult:
        j, (p, sense) = k // self.windows_per_pass, self.GROUPS[k % self.windows_per_pass]
        x = self.window_inputs(k)
        path = self.scratch_file("csv")
        threshold = within(self.anchors[p, sense], x["u"])
        entry = workbench.CampaignPlatform(label=f"w{j}-p{p}-{sense}", platform=make_platform(x))
        names = self.HEURISTICS[sense]
        with clock:
            with tr.span("workbench.run_campaign"):
                result = workbench.run_campaign(
                    self.spec, [entry], BicriteriaQuery(sense, threshold), names
                )
            with tr.span("workbench.csv_write") as c:
                workbench.write_campaign_csv(result, path)
                c["bytes"] = path.stat().st_size
            with tr.span("workbench.csv_read"):
                back = workbench.read_campaign_csv(path)
        failed = check_campaign(sense, threshold, names, result, back)
        return WindowResult(ops=1, failed=failed, queries=1, parts=campaign_parts(result))


def campaign_parts(result) -> list[str]:
    """Digest lines of a campaign; the ``*_seconds`` timing fields are left out."""
    return [
        ",".join(
            [row.label, row.error or "", str(row.exact_feasible), _num(row.exact_objective),
             _num(row.exact_period), _num(row.exact_latency)]
            + [f"{h}:{c.feasible}:{c.objective!r}:{c.period!r}:{c.latency!r}"
               for h, c in row.cells.items()]
        )
        for row in result.rows
    ]


def check_campaign(sense, threshold, names, result, back) -> int:
    """Number of campaign rows that fail a check."""
    if back != result:
        return len(result.rows)
    failed = 0
    for row in result.rows:
        ok = row.error is None and tuple(row.cells) == tuple(names)
        if ok and row.exact_feasible:
            fixed, objective = (
                (row.exact_period, row.exact_latency) if sense == "latency"
                else (row.exact_latency, row.exact_period)
            )
            ok = objective == row.exact_objective and meets_threshold(fixed, threshold)
        for cell in row.cells.values() if ok else ():
            fixed, objective = fixed_and_objective(cell, sense)
            ok = ok and objective == cell.objective
            if cell.feasible:
                # A feasible heuristic mapping proves the query feasible and
                # can never beat the exhaustive optimum.
                slack = EPS_CMP * max(1.0, abs(row.exact_objective or 0.0))
                ok = (ok and bool(row.exact_feasible) and meets_threshold(fixed, threshold)
                      and cell.objective >= row.exact_objective - slack)
        failed += not ok
    return failed


class LargeInstance(Workload):
    """Random pipelines and platforms beyond exhaustive reach.

    Per instance: all six heuristics at two thresholds per sense, a simulation
    of the feasible mapping with the smallest period, and the LP text of one
    query.  A window is one instance and a pass one instance per size slot;
    sizes are fixed per slot so every seed costs about the same.
    """

    name = "large-instance"
    op = "large instance"
    reference = "python"
    SIZES = ((20, 12), (22, 13), (24, 14), (21, 12))
    PERIOD_FRACTIONS = (0.3, 0.15)  # of the single-processor period
    LATENCY_FACTORS = (1.1, 1.5)  # of the single-processor latency
    ITEMS = 20000
    windows_per_pass = len(SIZES)

    def setup_inputs(self) -> dict:
        gen = rng(self.seed, 5)
        return {**pipeline_arrays(gen, 8), **platform_arrays(gen, 5)}

    def window_inputs(self, k: int) -> dict:
        j, i = divmod(k, self.windows_per_pass)
        n, p = self.SIZES[i]
        gen = rng(self.seed, 6, j, i)
        return {**pipeline_arrays(gen, n), **platform_arrays(gen, p)}

    def setup(self) -> None:
        # No exact solve here: warm-up runs every call once on a small instance.
        x = self.setup_inputs()
        self.run_instance(make_pipeline(x), make_platform(x), tracing.NullTracer(), Stopwatch())

    def thresholds(self, spec, platform) -> dict[str, tuple[float, ...]]:
        fastest = int(np.argmax(platform.s)) + 1
        start = model.evaluate_metrics(spec, platform, IntervalMapping.single_interval(spec.n, fastest))
        return {
            "period": tuple(start.period * f for f in self.PERIOD_FRACTIONS),
            "latency": tuple(start.latency * f for f in self.LATENCY_FACTORS),
        }

    def run_instance(self, spec, platform, tr, clock):
        thresholds = self.thresholds(spec, platform)
        with clock:
            outcomes = []
            for name in heuristics.HEURISTIC_NAMES:
                for t in thresholds[heuristics.fixed_criterion_of(name)]:
                    with tr.span("heuristics.run", name) as c:
                        outcome = heuristics.run_heuristic(name, spec, platform, t)
                        c.update(tracing.outcome_counts(outcome))
                    outcomes.append(outcome)
            best = min(
                (o for o in outcomes if o.feasible),
                key=lambda o: (o.metrics.period, o.metrics.latency, o.mapping.signature()),
            )
            with tr.span("simulator.simulate") as c:
                report = simulator.simulate(
                    spec, platform, best.mapping, items=self.ITEMS, warmup=10 * best.mapping.m + 50
                )
                c["items"] = self.ITEMS
            with tr.span("simulator.compare_with_analytic"):
                comparison = simulator.compare_with_analytic(spec, platform, report)
            instance = ilp.build_instance(
                spec, platform, BicriteriaQuery.minimize_latency(thresholds["period"][0])
            )
            text = instance.to_lp_text()
        return outcomes, comparison, instance, text

    def run_window(self, k, tr, clock) -> WindowResult:
        x = self.window_inputs(k)
        spec, platform = make_pipeline(x), make_platform(x)
        outcomes, comparison, instance, text = self.run_instance(spec, platform, tr, clock)
        failed = not check_instance(spec, platform, outcomes, comparison, instance, text)
        return WindowResult(ops=1, failed=int(failed), queries=0,
                            parts=instance_parts(outcomes, comparison, text))


def instance_parts(outcomes, comparison, lp_text) -> list[str]:
    return [
        ",".join([o.heuristic, _num(o.threshold), o.mapping.signature(), _num(o.metrics.period),
                  _num(o.metrics.latency), str(o.feasible), str(len(o.trace))])
        for o in outcomes
    ] + [",".join([
        _num(comparison.measured_period), _num(comparison.measured_first_latency),
        hashlib.sha256(lp_text.encode("utf-8")).hexdigest(),
    ])]


def check_instance(spec, platform, outcomes, comparison, instance, text) -> bool:
    for o in outcomes:
        if model.evaluate_metrics(spec, platform, o.mapping) != o.metrics:
            return False
        if o.fixed_criterion == "period":
            if o.feasible != meets_threshold(o.metrics.period, o.threshold):
                return False
        elif o.feasible and not meets_threshold(o.metrics.latency, o.threshold):
            return False
    return (
        comparison.period_rel_dev <= SIM_REL_TOL
        and comparison.latency_rel_dev <= SIM_REL_TOL
        and len(instance.rows) > 0
        and text.endswith("End\n")
    )


WORKLOADS = {w.name: w for w in (ExactSweep, CampaignMixedP, LargeInstance)}


def digest(parts: list[str]) -> str:
    """sha256 of a pass's output lines."""
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
