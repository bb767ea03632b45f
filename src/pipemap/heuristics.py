"""Greedy interval-splitting heuristics for the two bi-criteria queries.

All six heuristics are one greedy loop.  It starts from the whole chain on
the fastest processor and repeatedly splits the interval of the current
bottleneck (the used processor with the largest cycle time), handing parts
to the fastest still-unused processors.  A split is accepted only if it
strictly decreases the global period, so every run terminates after at most
``p - 1`` splits.

The variants differ along the columns of the ``_VARIANTS`` table:

* *fixed criterion* -- ``h1``..``h4`` work under a fixed period (they stop as
  soon as the period meets it), ``h5``/``h6`` work under a fixed latency
  (every candidate must keep the global latency within it, and the run
  continues while the period can still be decreased);
* *ratio rule* -- ``h1``/``h3``/``h5`` pick the candidate minimizing the
  largest cycle among the split parties; ``h2``/``h4``/``h6`` pick the
  candidate minimizing ``max_i delta_latency / delta_period(i)`` over the
  parties and discard candidates that do not decrease every party's cycle
  below the old bottleneck;
* *three-way split* -- ``h3``/``h4`` split the bottleneck three ways when its
  interval has at least three stages and two unused processors remain,
  falling back to a two-way split otherwise.

``h2`` alone adds a step: it wraps its loop in a binary search over the
latency increase it is willing to authorize on top of the start state's
latency, returning the outcome of the smallest authorized increase that
reaches the fixed period.  :func:`run_heuristic` is the single entry point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    IntervalMapping,
    MappingMetrics,
    PipelineSpec,
    Platform,
    evaluate_metrics,
    meets_threshold,
)

__all__ = [
    "BinarySearchConfig",
    "H2SearchReport",
    "H2SearchTrial",
    "HEURISTIC_NAMES",
    "HeuristicOutcome",
    "SplitChoice",
    "SplitEvent",
    "fixed_criterion_of",
    "run_heuristic",
]

# name -> (fixed criterion, ratio rule, three-way split)
_VARIANTS: dict[str, tuple[str, bool, bool]] = {
    "h1": ("period", False, False),
    "h2": ("period", True, False),
    "h3": ("period", False, True),
    "h4": ("period", True, True),
    "h5": ("latency", False, False),
    "h6": ("latency", True, False),
}

HEURISTIC_NAMES = tuple(_VARIANTS)


def fixed_criterion_of(name: str) -> str:
    """Which criterion (``"period"``/``"latency"``) a heuristic's threshold bounds."""
    try:
        return _VARIANTS[name][0]
    except KeyError:
        raise ValueError(f"unknown heuristic {name!r}, expected one of {HEURISTIC_NAMES}")


@dataclass(frozen=True)
class BinarySearchConfig:
    """Knobs of ``h2``'s search over the authorized latency increase.

    The search runs on ``[lower, upper_factor * L]`` where ``L`` is the
    latency of the start state, trying the upper bound first and then
    bisecting for ``iterations`` rounds.
    """

    lower: float = 0.0
    upper_factor: float = 4.0
    iterations: int = 20

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError("lower bound of the search must be >= 0")
        if self.upper_factor <= 0:
            raise ValueError("upper_factor must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


@dataclass(frozen=True)
class SplitChoice:
    """One candidate split: who splits, where, and what it changes.

    ``placement`` lists the processor of each part in stage order;
    ``recipients`` are the fresh processors drawn in (fastest first);
    ``delta_period`` holds ``period_before - cycle_after`` for every party in
    placement order.
    """

    target: int
    recipients: tuple[int, ...]
    cuts: tuple[int, ...]
    placement: tuple[int, ...]
    score: float
    delta_latency: float
    delta_period: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "recipients": list(self.recipients),
            "cuts": list(self.cuts),
            "placement": list(self.placement),
            "score": self.score,
            "delta_latency": self.delta_latency,
            "delta_period": list(self.delta_period),
        }


@dataclass(frozen=True)
class SplitEvent:
    """An accepted split, as recorded in an outcome's trace."""

    choice: SplitChoice
    period_before: float
    latency_before: float
    metrics_after: MappingMetrics
    signature_after: str

    def to_dict(self) -> dict:
        return {
            "choice": self.choice.to_dict(),
            "period_before": self.period_before,
            "latency_before": self.latency_before,
            "period_after": self.metrics_after.period,
            "latency_after": self.metrics_after.latency,
            "mapping_after": self.signature_after,
        }


@dataclass(frozen=True)
class H2SearchTrial:
    authorized_increase: float
    feasible: bool
    period: float
    latency: float


@dataclass(frozen=True)
class H2SearchReport:
    """Everything ``h2`` tried: configuration, bounds and per-trial results."""

    config: BinarySearchConfig
    base_latency: float
    upper_bound: float
    chosen_increase: float | None
    trials: tuple[H2SearchTrial, ...]

    def to_dict(self) -> dict:
        return {
            "config": {
                "lower": self.config.lower,
                "upper_factor": self.config.upper_factor,
                "iterations": self.config.iterations,
            },
            "base_latency": self.base_latency,
            "upper_bound": self.upper_bound,
            "chosen_increase": self.chosen_increase,
            "trials": [
                {
                    "authorized_increase": t.authorized_increase,
                    "feasible": t.feasible,
                    "period": t.period,
                    "latency": t.latency,
                }
                for t in self.trials
            ],
        }


@dataclass(frozen=True)
class HeuristicOutcome:
    """Result of one heuristic run.

    ``mapping`` is always a valid mapping (at worst the start state), even
    when ``feasible`` is false.  ``trace`` records every accepted split in
    order; ``search`` is only present on ``h2`` outcomes.
    """

    heuristic: str
    fixed_criterion: str
    threshold: float
    mapping: IntervalMapping
    metrics: MappingMetrics
    feasible: bool
    trace: tuple[SplitEvent, ...]
    search: H2SearchReport | None = None

    @property
    def objective_value(self) -> float:
        """The minimized criterion's value (the one the threshold is not on)."""
        return (
            self.metrics.latency
            if self.fixed_criterion == "period"
            else self.metrics.period
        )

    def to_dict(self) -> dict:
        return {
            "heuristic": self.heuristic,
            "fixed_criterion": self.fixed_criterion,
            "threshold": self.threshold,
            "mapping": self.mapping.signature(),
            "period": self.metrics.period,
            "latency": self.metrics.latency,
            "feasible": self.feasible,
            "trace": [event.to_dict() for event in self.trace],
            "search": self.search.to_dict() if self.search else None,
        }


@dataclass(frozen=True)
class _Candidate:
    choice: SplitChoice
    mapping: IntervalMapping
    metrics: MappingMetrics


def _speed_order(platform: Platform) -> list[int]:
    """Processors by non-increasing speed, index-ascending on ties."""
    s = platform.s
    return sorted(range(1, platform.p + 1), key=lambda u: (-s[u - 1], u))


def _candidates(
    spec: PipelineSpec,
    platform: Platform,
    mapping: IntervalMapping,
    metrics: MappingMetrics,
    jidx: int,
    unused: list[int],
    three_way: bool,
    ratio_rule: bool,
    latency_cap: float | None,
) -> list[_Candidate]:
    d, e = mapping.intervals[jidx]
    target = mapping.assignees[jidx]
    length = e - d + 1
    if length < 2 or not unused:
        return []
    period_before = metrics.period
    latency_before = metrics.latency

    plans: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]] = []
    if three_way and length >= 3 and len(unused) >= 2:
        j1, j2 = unused[0], unused[1]
        for c1 in range(d, e):
            for c2 in range(c1 + 1, e):
                parts = ((d, c1), (c1 + 1, c2), (c2 + 1, e))
                for placement in itertools.permutations((target, j1, j2)):
                    plans.append(((c1, c2), parts, placement, (j1, j2)))
    else:
        j1 = unused[0]
        for c in range(d, e):
            parts = ((d, c), (c + 1, e))
            for placement in ((target, j1), (j1, target)):
                plans.append(((c,), parts, placement, (j1,)))

    out: list[_Candidate] = []
    for cuts, parts, placement, recipients in plans:
        new_intervals = (
            mapping.intervals[:jidx] + parts + mapping.intervals[jidx + 1 :]
        )
        new_assignees = (
            mapping.assignees[:jidx] + placement + mapping.assignees[jidx + 1 :]
        )
        cand_mapping = IntervalMapping(intervals=new_intervals, assignees=new_assignees)
        cand_metrics = evaluate_metrics(spec, platform, cand_mapping)
        if latency_cap is not None and not meets_threshold(
            cand_metrics.latency, latency_cap
        ):
            continue
        party_cycles = cand_metrics.per_processor_period[jidx : jidx + len(parts)]
        delta_latency = cand_metrics.latency - latency_before
        delta_period = tuple(period_before - c for c in party_cycles)
        if ratio_rule:
            if any(dp <= 0 for dp in delta_period):
                continue
            score = max(delta_latency / dp for dp in delta_period)
        else:
            score = max(party_cycles)
        out.append(
            _Candidate(
                choice=SplitChoice(
                    target=target,
                    recipients=recipients,
                    cuts=cuts,
                    placement=placement,
                    score=score,
                    delta_latency=delta_latency,
                    delta_period=delta_period,
                ),
                mapping=cand_mapping,
                metrics=cand_metrics,
            )
        )
    return out


def _run_greedy(
    spec: PipelineSpec,
    platform: Platform,
    start: tuple[IntervalMapping, MappingMetrics],
    *,
    ratio_rule: bool,
    three_way: bool,
    latency_cap: float | None,
    period_goal: float | None,
) -> tuple[IntervalMapping, MappingMetrics, tuple[SplitEvent, ...]]:
    """Run the splitting loop from ``start``; returns (mapping, metrics, trace)."""
    mapping, metrics = start
    unused = _speed_order(platform)[1:]
    trace: list[SplitEvent] = []
    while True:
        if period_goal is not None and meets_threshold(metrics.period, period_goal):
            break
        cycles = metrics.per_processor_period
        jidx = cycles.index(max(cycles))
        cands = _candidates(
            spec,
            platform,
            mapping,
            metrics,
            jidx,
            unused,
            three_way,
            ratio_rule,
            latency_cap,
        )
        best: _Candidate | None = None
        for cand in cands:
            if best is None or cand.choice.score < best.choice.score:
                best = cand
        if best is None or not (best.metrics.period < metrics.period):
            break
        trace.append(
            SplitEvent(
                choice=best.choice,
                period_before=metrics.period,
                latency_before=metrics.latency,
                metrics_after=best.metrics,
                signature_after=best.mapping.signature(),
            )
        )
        for u in best.choice.recipients:
            unused.remove(u)
        mapping, metrics = best.mapping, best.metrics
    return mapping, metrics, tuple(trace)


def _check_threshold(threshold: float, what: str) -> float:
    value = float(threshold)
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {threshold!r}")
    return value


def _search_allowance(
    spec: PipelineSpec,
    platform: Platform,
    start: tuple[IntervalMapping, MappingMetrics],
    fixed_period: float,
    cfg: BinarySearchConfig,
    *,
    ratio_rule: bool,
    three_way: bool,
) -> tuple[IntervalMapping, MappingMetrics, tuple[SplitEvent, ...], H2SearchReport]:
    """``h2``'s binary search over the authorized latency increase ``A``.

    Every trial runs the greedy loop with candidates capped at latency
    ``base + A``, where ``base`` is the start state's latency.  Returns the
    run of the smallest ``A`` that reaches the fixed period, or the failed
    upper-bound run (with ``chosen_increase=None``) when even that does not.
    """
    base_latency = start[1].latency
    upper = cfg.upper_factor * base_latency
    trials: list[H2SearchTrial] = []

    def run_trial(allowance: float):
        mapping, metrics, trace = _run_greedy(
            spec,
            platform,
            start,
            ratio_rule=ratio_rule,
            three_way=three_way,
            latency_cap=base_latency + allowance,
            period_goal=fixed_period,
        )
        ok = meets_threshold(metrics.period, fixed_period)
        trials.append(
            H2SearchTrial(
                authorized_increase=allowance,
                feasible=ok,
                period=metrics.period,
                latency=metrics.latency,
            )
        )
        return ok, (mapping, metrics, trace)

    lo, hi = cfg.lower, upper
    ok, best = run_trial(hi)
    chosen = hi if ok else None
    if ok:
        for _ in range(cfg.iterations):
            mid = (lo + hi) / 2.0
            ok, run = run_trial(mid)
            if ok:
                hi = chosen = mid
                best = run
            else:
                lo = mid
    report = H2SearchReport(
        config=cfg,
        base_latency=base_latency,
        upper_bound=upper,
        chosen_increase=chosen,
        trials=tuple(trials),
    )
    return (*best, report)


def run_heuristic(
    name: str,
    spec: PipelineSpec,
    platform: Platform,
    threshold: float,
    *,
    search: BinarySearchConfig | None = None,
) -> HeuristicOutcome:
    """Run one heuristic by name; ``search`` only applies to ``h2``.

    Under a fixed period the run is feasible when its final period meets the
    threshold (for ``h2``: when some authorized increase reaches it).  Under
    a fixed latency it is infeasible exactly when the start state already
    violates the threshold.
    """
    fixed_criterion = fixed_criterion_of(name)
    _, ratio_rule, three_way = _VARIANTS[name]
    threshold = _check_threshold(threshold, f"fixed_{fixed_criterion}")
    first = IntervalMapping.single_interval(spec.n, _speed_order(platform)[0])
    start = (first, evaluate_metrics(spec, platform, first))
    report = None
    if name == "h2":
        cfg = search if search is not None else BinarySearchConfig()
        mapping, metrics, trace, report = _search_allowance(
            spec, platform, start, threshold, cfg, ratio_rule=ratio_rule, three_way=three_way
        )
        feasible = report.chosen_increase is not None
    else:
        fixed_period = fixed_criterion == "period"
        mapping, metrics, trace = _run_greedy(
            spec,
            platform,
            start,
            ratio_rule=ratio_rule,
            three_way=three_way,
            latency_cap=None if fixed_period else threshold,
            period_goal=threshold if fixed_period else None,
        )
        feasible = meets_threshold(
            metrics.period if fixed_period else start[1].latency, threshold
        )
    return HeuristicOutcome(
        heuristic=name,
        fixed_criterion=fixed_criterion,
        threshold=threshold,
        mapping=mapping,
        metrics=metrics,
        feasible=feasible,
        trace=trace,
        search=report,
    )
