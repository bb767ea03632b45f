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

One enumerator serves every split width: a ``k``-way split of the
bottleneck's interval tries every ``k - 1`` cut points and every placement
of the bottleneck and the ``k - 1`` fastest unused processors, keeping the
first lowest-scoring candidate.  Candidates are scored incrementally: a
split changes only its parts' terms, the predecessor's send and the
successor's receive.  The unchanged terms before and after the split are the
current mapping's chain terms from :mod:`pipemap.model`, already in fold
order, and the new parts' terms divide that module's Python-float views
(``PipelineSpec._delta``, ``Platform._s``, ``Platform._b``) and the
pipeline's one stage-cost table, ``PipelineSpec._costs``, each built once
per instance.  Each candidate's latency and party cycles are summed in
:func:`evaluate_metrics` order, bit for bit equal to a full evaluation, with
no mapping built.
Only the winner of each split becomes an :class:`IntervalMapping` and runs
through :func:`evaluate_metrics`.

:func:`run_heuristic` is the single entry point.  For ``h2`` it also runs a
binary search over the latency increase authorized on top of the start
state's latency, returning the outcome of the smallest authorized increase
that reaches the fixed period.  The trials share their split decisions: a
split an earlier trial chose under a larger latency cap is reused when its
winner meets the smaller cap, since a smaller cap only drops candidates and
no score depends on the cap.  Every trial equals a fresh run bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterator

from .model import (
    BicriteriaQuery,
    IntervalMapping,
    MappingMetrics,
    PipelineSpec,
    Platform,
    _chain_terms,
    evaluate_metrics,
    meets_threshold,
    padded_threshold,
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
        if not (math.isfinite(self.lower) and self.lower >= 0):
            raise ValueError("lower bound of the search must be finite and >= 0")
        if not (math.isfinite(self.upper_factor) and self.upper_factor > 0):
            raise ValueError("upper_factor must be finite and positive")
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
            "choice": asdict(self.choice),
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


@dataclass(frozen=True)
class HeuristicOutcome:
    """Result of one heuristic run.

    ``mapping`` is always a valid mapping (at worst the start state), even
    when ``feasible`` is false.  ``trace`` records every accepted split in
    order; ``search`` is only present on ``h2`` outcomes.  ``query`` is the
    question the run answered: minimize the other criterion with the
    heuristic's fixed criterion under the threshold.
    """

    heuristic: str
    query: BicriteriaQuery
    mapping: IntervalMapping
    metrics: MappingMetrics
    feasible: bool
    trace: tuple[SplitEvent, ...]
    search: H2SearchReport | None = None

    @property
    def fixed_criterion(self) -> str:
        """The criterion the threshold bounds (``"period"`` for ``h1``..``h4``)."""
        return self.query.fixed_criterion

    @property
    def threshold(self) -> float:
        return self.query.threshold

    @property
    def objective_value(self) -> float:
        """The minimized criterion's value, by the query's rule."""
        return self.query.objective_of(self.metrics)

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
            "search": asdict(self.search) if self.search else None,
        }


def _speed_order(platform: Platform) -> list[int]:
    """Processors by non-increasing speed, index-ascending on ties."""
    s = platform._s
    return sorted(range(1, platform.p + 1), key=lambda u: (-s[u - 1], u))


# a split's choice, the mapping it makes and that mapping's metrics
_Split = tuple[SplitChoice, IntervalMapping, MappingMetrics]


def _split_candidates(
    spec: PipelineSpec,
    platform: Platform,
    mapping: IntervalMapping,
    jidx: int,
    recipients: tuple[int, ...],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], float, tuple[float, ...]]]:
    """Every split of interval ``jidx`` into ``len(recipients) + 1`` parts.

    Yields ``(cuts, placement, latency, party_cycles)``: cut points in
    lexicographic order and, for each, the placements of the interval's
    processor and the ``recipients`` in permutation order.  A split changes
    only its parts' terms, the predecessor's send and the successor's
    receive.  The other terms are the mapping's own chain terms from
    :func:`pipemap.model._chain_terms`, already in :func:`evaluate_metrics`'
    fold order: the latency starts from the fold of the terms before
    ``jidx``, adds the parts' receive and compute and the successor's new
    receive, then the unchanged rest.  The values are those of the candidate
    mapping's metrics, bit for bit.
    """
    delta, s, b, costs = spec._delta, platform._s, platform._b, spec._costs
    d, e = mapping.intervals[jidx]
    terms = _chain_terms(spec, platform, mapping)
    head = 0.0
    for term in terms[: 2 * jidx]:
        head += term
    # after the split interval's receive and compute and the successor's
    # old receive; empty when the split interval is the last
    tail = terms[2 * jidx + 3 :]
    nodes = (0, *mapping.assignees, platform.p + 1)
    pred, succ = nodes[jidx], nodes[jidx + 2]
    for cuts in itertools.combinations(range(d, e), len(recipients)):
        spans = tuple(zip((d - 1, *cuts), (*cuts, e)))
        for placement in itertools.permutations((mapping.assignees[jidx], *recipients)):
            latency = head
            cycles = []
            t_in = delta[d - 1] / b[pred][placement[0]]
            for (lo, hi), u, v in zip(spans, placement, (*placement[1:], succ)):
                t_comp = costs[lo + 1][hi] / s[u - 1]
                t_out = delta[hi] / b[u][v]
                latency += t_in
                latency += t_comp
                cycles.append(t_in + t_comp + t_out)
                t_in = t_out
            latency += t_in
            for term in tail:
                latency += term
            yield cuts, placement, latency, tuple(cycles)


def _best_split(
    spec: PipelineSpec,
    platform: Platform,
    mapping: IntervalMapping,
    metrics: MappingMetrics,
    unused: list[int],
    three_way: bool,
    ratio_rule: bool,
    cap: float,
) -> _Split | None:
    """The first lowest-scoring split of the bottleneck's interval, or ``None``.

    The interval splits into ``k`` parts: three when ``three_way`` holds, it
    has at least three stages and two processors are unused, else two.  Each
    candidate of :func:`_split_candidates` is scored from its latency and
    party cycles alone, with no mapping built; the first candidate wins a
    tie; a candidate whose latency exceeds ``cap``, an already padded
    latency cap, is skipped.  Only the winner becomes an
    :class:`IntervalMapping`, and its metrics come from one
    :func:`evaluate_metrics` call.
    """
    cycles = metrics.per_processor_period
    jidx = cycles.index(max(cycles))
    d, e = mapping.intervals[jidx]
    if d == e or not unused:
        return None
    k = 3 if three_way and e - d >= 2 and len(unused) >= 2 else 2
    recipients = tuple(unused[: k - 1])
    period, base = metrics.period, metrics.latency
    best = None
    for cuts, placement, latency, party_cycles in _split_candidates(
        spec, platform, mapping, jidx, recipients
    ):
        if latency > cap:
            continue
        if ratio_rule:
            # max over the parties of delta_latency / delta_period, as the
            # builtin max folds it; a party whose cycle does not fall below
            # the old bottleneck's drops the candidate
            delta_latency = latency - base
            score = None
            for c in party_cycles:
                delta_period = period - c
                if delta_period <= 0:
                    score = None
                    break
                ratio = delta_latency / delta_period
                if score is None or ratio > score:
                    score = ratio
            if score is None:
                continue
        else:
            score = max(party_cycles)
        if best is None or score < best[0]:
            best = (score, cuts, placement, latency, party_cycles)
    if best is None:
        return None
    score, cuts, placement, latency, party_cycles = best
    bounds = (d - 1, *cuts, e)
    parts = tuple((lo + 1, hi) for lo, hi in zip(bounds, bounds[1:]))
    winner = IntervalMapping(
        intervals=mapping.intervals[:jidx] + parts + mapping.intervals[jidx + 1 :],
        assignees=mapping.assignees[:jidx] + placement + mapping.assignees[jidx + 1 :],
    )
    choice = SplitChoice(
        target=mapping.assignees[jidx],
        recipients=recipients,
        cuts=cuts,
        placement=placement,
        score=score,
        delta_latency=latency - base,
        delta_period=tuple(period - c for c in party_cycles),
    )
    return choice, winner, evaluate_metrics(spec, platform, winner)


def _run_greedy(
    spec: PipelineSpec,
    platform: Platform,
    decisions: dict[IntervalMapping, tuple[float, _Split | None]],
    start: tuple[IntervalMapping, MappingMetrics],
    *,
    ratio_rule: bool,
    three_way: bool,
    cap: float = math.inf,
    period_goal: float | None = None,
    order: list[int] | None = None,
) -> tuple[IntervalMapping, MappingMetrics, tuple[SplitEvent, ...]]:
    """Run the splitting loop from ``start``; returns (mapping, metrics, trace).

    ``start`` runs on ``order[0]``; ``order`` defaults to :func:`_speed_order`.
    ``cap`` is the already padded latency cap every split must meet.  Every
    loop of one run shares ``decisions``, which keeps, for each mapping
    split so far, the largest padded cap it was searched under and
    the :func:`_best_split` result.  A mapping fixes the unused processors,
    and one run fixes the split rule, so only the cap can change that
    result.  A smaller cap only drops candidates, and no score depends on
    the cap, so the stored winner stays the first lowest-scoring candidate
    as long as its latency still meets the smaller cap; a stored ``None``
    stays ``None``.  Such decisions are reused; any other is searched again.
    """
    mapping, metrics = start
    unused = (order or _speed_order(platform))[1:]
    trace: list[SplitEvent] = []
    while True:
        if period_goal is not None and meets_threshold(metrics.period, period_goal):
            break
        stored = decisions.get(mapping)
        if stored is not None and cap <= stored[0] and (
            stored[1] is None or stored[1][2].latency <= cap
        ):
            best = stored[1]
        else:
            best = _best_split(
                spec, platform, mapping, metrics, unused, three_way, ratio_rule, cap
            )
            if stored is None or cap > stored[0]:
                decisions[mapping] = (cap, best)
        if best is None:
            break
        choice, best_mapping, best_metrics = best
        if not best_metrics.period < metrics.period:
            break
        trace.append(
            SplitEvent(
                choice=choice,
                period_before=metrics.period,
                latency_before=metrics.latency,
                metrics_after=best_metrics,
                signature_after=best_mapping.signature(),
            )
        )
        for u in choice.recipients:
            unused.remove(u)
        mapping, metrics = best_mapping, best_metrics
    return mapping, metrics, tuple(trace)


def _check_threshold(threshold: float, what: str) -> float:
    value = float(threshold)
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {threshold!r}")
    return value


def run_heuristic(
    name: str,
    spec: PipelineSpec,
    platform: Platform,
    threshold: float,
    *,
    search: BinarySearchConfig | None = None,
) -> HeuristicOutcome:
    """Run one heuristic by name; ``search`` only applies to ``h2``.

    The greedy loops of one call share their split decisions (see
    :func:`_run_greedy`); each ``h2`` trial still equals a fresh run.  Each
    latency cap is padded here, once, with :func:`padded_threshold`.
    Under a fixed period the run is feasible when its final period meets the
    threshold (for ``h2``: when some authorized increase reaches it).  Under
    a fixed latency it is infeasible exactly when the start state already
    violates the threshold.  Passing ``search`` to any other heuristic, or an
    ``h2`` search whose ``lower`` bound exceeds ``upper_factor`` times the
    start latency, raises ``ValueError``.
    """
    fixed_criterion = fixed_criterion_of(name)
    if search is not None and name != "h2":
        raise ValueError(f"search applies only to h2, not to {name}")
    _, ratio_rule, three_way = _VARIANTS[name]
    threshold = _check_threshold(threshold, f"fixed_{fixed_criterion}")
    query = BicriteriaQuery("period" if fixed_criterion == "latency" else "latency", threshold)
    order = _speed_order(platform)  # sorted once: every h2 trial starts from it
    first = IntervalMapping.single_interval(spec.n, order[0])
    start = (first, evaluate_metrics(spec, platform, first))
    base_latency = start[1].latency

    greedy = functools.partial(
        _run_greedy, spec, platform, {}, start, ratio_rule=ratio_rule, three_way=three_way,
        order=order,
    )
    report = None
    if fixed_criterion == "latency":
        mapping, metrics, trace = greedy(cap=padded_threshold(threshold))
        feasible = meets_threshold(base_latency, threshold)
    elif name != "h2":
        mapping, metrics, trace = greedy(period_goal=threshold)
        feasible = meets_threshold(metrics.period, threshold)
    else:
        # Binary search over the latency increase authorized on top of the
        # start state's: the upper bound runs first and, when it fails, its
        # run is the outcome; else every trial that reaches the period
        # replaces the outcome and lowers the bound.
        cfg = search if search is not None else BinarySearchConfig()
        upper = cfg.upper_factor * base_latency
        if cfg.lower > upper:
            raise ValueError(
                f"h2 search lower bound {cfg.lower!r} exceeds its upper bound "
                f"{upper!r} (upper_factor * start latency)"
            )
        lo, hi, chosen = cfg.lower, upper, None
        trials: list[H2SearchTrial] = []
        for step in range(cfg.iterations + 1):
            allowance = hi if step == 0 else (lo + hi) / 2.0
            run = greedy(
                cap=padded_threshold(base_latency + allowance), period_goal=threshold
            )
            ok = meets_threshold(run[1].period, threshold)
            trials.append(
                H2SearchTrial(
                    authorized_increase=allowance,
                    feasible=ok,
                    period=run[1].period,
                    latency=run[1].latency,
                )
            )
            if ok or step == 0:
                mapping, metrics, trace = run
            if ok:
                hi = chosen = allowance
            elif chosen is None:
                break
            else:
                lo = allowance
        report = H2SearchReport(
            config=cfg,
            base_latency=base_latency,
            upper_bound=upper,
            chosen_increase=chosen,
            trials=tuple(trials),
        )
        feasible = chosen is not None
    return HeuristicOutcome(
        heuristic=name,
        query=query,
        mapping=mapping,
        metrics=metrics,
        feasible=feasible,
        trace=trace,
        search=report,
    )
