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
  falling back to a two-way split otherwise;
* *latency search* -- ``h2`` alone wraps the loop in a binary search over
  the latency increase authorized on top of the start state's latency, on
  the fixed range ``[0, 4 * start latency]``: it tries the upper bound
  first, then bisects for 20 rounds (``_H2_SEARCH``), and returns the
  outcome of the smallest authorized increase that reaches the fixed period
  (no increase, after one trial, when the start state already reaches it).

One enumerator serves every split width: a ``k``-way split of the
bottleneck's interval tries every ``k - 1`` cut points and every placement
of the bottleneck and the ``k - 1`` fastest unused processors, keeping the
first lowest-scoring candidate.  All candidates of a split are scored at
once, as numpy arrays shaped (cut points, placements), and incrementally: a
split changes only its parts' terms, the predecessor's send and the
successor's receive.  The unchanged terms before and after the split are the
current mapping's chain terms from :mod:`pipemap.model`, already in fold
order.  Each new term divides a data volume (``PipelineSpec.delta``) or an
interval's cost (the pipeline's one stage-cost table, ``PipelineSpec._costs``,
as the array ``PipelineSpec._cost_array`` built once per pipeline) by a
bandwidth or a speed from the Python-float views ``Platform._b`` and
``Platform._s``.  Each candidate's latency and party cycles are summed one
elementwise add at a time in :func:`evaluate_metrics` order, never by a
pairwise ``np.sum``, so they equal a full evaluation bit for bit, with no
mapping built.  Only the winner of each split leaves numpy, as Python
numbers; it becomes an :class:`IntervalMapping` and runs through
:func:`evaluate_metrics`.

:func:`run_heuristic` is the single entry point.  Its greedy loops score
each mapping's splits once, in a table no latency cap enters
(:func:`_split_table`), and each step picks from it at its own cap, so
every ``h2`` trial equals a fresh run bit for bit.  The table is the step's
only state: the mapping fixes the unused processors, and each winner's
:class:`SplitEvent`, which carries the mapping it leads to, is built once and
shared by every trace that takes it.  The platform keeps the tables of the
last pipeline run on it, by ratio rule and three-way split, as it keeps that
pipeline's Pareto front (:func:`pipemap.exact.pareto_front`): one entry, no
option.  So ``h1`` and ``h5`` share tables, as do ``h2`` and ``h6``, and a
run at a second threshold replays the first run's picks from its tables.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import (
    BicriteriaQuery,
    IntervalMapping,
    MappingMetrics,
    PipelineSpec,
    Platform,
    _bottleneck,
    _chain_terms,
    _fold_numerators,
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


@dataclass(frozen=True)
class BinarySearchConfig:
    """The bounds of ``h2``'s search over the authorized latency increase.

    The search runs on ``[lower, upper_factor * L]`` where ``L`` is the
    latency of the start state, trying the upper bound first and then
    bisecting for ``iterations`` rounds.  Its one value is ``_H2_SEARCH``.
    """

    lower: float
    upper_factor: float
    iterations: int


_H2_SEARCH = BinarySearchConfig(lower=0.0, upper_factor=4.0, iterations=20)

# name -> (fixed criterion, ratio rule, three-way split, latency search)
_VARIANTS: dict[str, tuple[str, bool, bool, BinarySearchConfig | None]] = {
    "h1": ("period", False, False, None),
    "h2": ("period", True, False, _H2_SEARCH),
    "h3": ("period", False, True, None),
    "h4": ("period", True, True, None),
    "h5": ("latency", False, False, None),
    "h6": ("latency", True, False, None),
}

HEURISTIC_NAMES = tuple(_VARIANTS)


def fixed_criterion_of(name: str) -> str:
    """Which criterion (``"period"``/``"latency"``) a heuristic's threshold bounds."""
    try:
        return _VARIANTS[name][0]
    except KeyError:
        raise ValueError(f"unknown heuristic {name!r}, expected one of {HEURISTIC_NAMES}")


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
    """An accepted split, as recorded in an outcome's trace, with the state it leads to."""

    choice: SplitChoice
    period_before: float
    latency_before: float
    metrics_after: MappingMetrics
    mapping_after: IntervalMapping

    def to_dict(self) -> dict:
        return {
            "choice": asdict(self.choice),
            "period_before": self.period_before,
            "latency_before": self.latency_before,
            "period_after": self.metrics_after.period,
            "latency_after": self.metrics_after.latency,
            "mapping_after": self.mapping_after.signature(),
        }


@dataclass(frozen=True)
class H2SearchTrial:
    authorized_increase: float
    feasible: bool
    period: float
    latency: float


@dataclass(frozen=True)
class H2SearchReport:
    """Everything ``h2`` tried: its search's bounds (``_H2_SEARCH``) and per-trial results."""

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


def _split_candidates(
    spec: PipelineSpec,
    platform: Platform,
    mapping: IntervalMapping,
    jidx: int,
    recipients: tuple[int, ...],
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Every split of interval ``jidx`` into ``k = len(recipients) + 1`` parts, as arrays.

    Returns ``(cuts, placements, latency, cycles)``: the cut points in
    :func:`itertools.combinations` order, the placements of the interval's
    processor and the ``recipients`` in :func:`itertools.permutations` order,
    and for cut row ``i`` and placement ``j`` the candidate's latency
    ``latency[i, j]`` and party ``q``'s cycle ``cycles[q, i, j]``.  A split
    changes only its parts' terms, the predecessor's send and the successor's
    receive.  The other terms are the mapping's own chain terms from
    :func:`pipemap.model._chain_terms`, already in :func:`evaluate_metrics`'
    fold order: the latency starts from the fold of the terms before ``jidx``,
    adds the parts' receive and compute and the successor's new receive, then
    the unchanged rest, one elementwise add at a time.  The values are those
    of the candidate mappings' metrics, bit for bit.
    """
    d, e = mapping.intervals[jidx]
    k = len(recipients) + 1
    terms = _chain_terms(spec, platform, mapping)
    head = 0.0
    for term in terms[: 2 * jidx]:
        head += term
    # after the split interval's receive and compute and the successor's
    # old receive; empty when the split interval is the last
    tail = terms[2 * jidx + 3 :]
    nodes = (0, *mapping.assignees, platform.p + 1)
    pred, succ = nodes[jidx], nodes[jidx + 2]
    cuts = list(itertools.combinations(range(d, e), k - 1))
    placements = list(itertools.permutations((mapping.assignees[jidx], *recipients)))
    # part q of cut row i covers stages bounds[q, i] + 1 .. bounds[q + 1, i]
    bounds = np.fromiter(
        itertools.chain((d - 1,) * len(cuts), *zip(*cuts), (e,) * len(cuts)),
        np.intp,
        (k + 1) * len(cuts),
    ).reshape(k + 1, len(cuts))
    # the new terms t_in_0, comp_0, t_out_0, ..., comp_{k-1}, t_out_{k-1}:
    # term r of cut row i and placement j is sizes[r, i] / rates[r, j]
    sizes = _fold_numerators(spec, bounds)
    s, b = platform._s, platform._b
    rows = []
    for placement in placements:
        row = [b[pred][placement[0]]]
        for u, v in zip(placement, (*placement[1:], succ)):
            row += (s[u - 1], b[u][v])
        rows.append(row)
    rates = np.array(rows).T
    # the fold: head, the new terms, tail
    fold = np.empty((2 * k + 2 + len(tail), len(cuts), len(placements)))
    fold[0] = head
    np.divide(sizes[:, :, None], rates[:, None, :], out=fold[1 : 2 * k + 2])
    if tail:
        fold[2 * k + 2 :].T[...] = tail
    # (t_in + comp) + t_out, as evaluate_metrics adds them
    cycles = fold[1 : 2 * k : 2] + fold[2 : 2 * k + 1 : 2]
    cycles += fold[3 : 2 * k + 2 : 2]
    latency = np.add.accumulate(fold, out=fold)[-1]
    return cuts, placements, latency, cycles


def _split_table(
    spec: PipelineSpec,
    platform: Platform,
    mapping: IntervalMapping,
    metrics: MappingMetrics,
    order: list[int],
    three_way: bool,
    ratio_rule: bool,
) -> tuple | None:
    """Every split of the bottleneck's interval, scored for any latency cap, or ``None``.

    The processors of the speed ``order`` that ``mapping`` leaves unused are
    the recipients, fastest first.  The interval splits into ``k`` parts:
    three when ``three_way`` holds, it has at least three stages and two
    processors are unused, else two.  The table is ``(mapping, metrics,
    jidx, recipients, cuts, placements, latencies, scores, winners)``: every
    candidate of :func:`_split_candidates` scored at once with no mapping
    built (``inf`` where the ratio rule drops it), and :func:`_best_split`'s
    winners by flat index.  The party cycles are not kept: a platform keeps
    its tables, and a winner's cycles are its own metrics'.
    """
    jidx = _bottleneck(metrics.per_processor_period)
    d, e = mapping.intervals[jidx]
    unused = [u for u in order if u not in mapping.assignees]
    if d == e or not unused:
        return None
    k = 3 if three_way and e - d >= 2 and len(unused) >= 2 else 2
    recipients = tuple(unused[: k - 1])
    cuts, placements, latencies, party_cycles = _split_candidates(
        spec, platform, mapping, jidx, recipients
    )
    values = party_cycles
    if ratio_rule:
        # delta_latency / delta_period for every party; a party whose cycle
        # does not fall below the old bottleneck's drops the candidate
        gain = metrics.period - party_cycles
        values = np.divide(
            latencies - metrics.latency, gain, out=np.full_like(gain, np.inf), where=gain > 0
        )
    # the max over the parties in party order; no value is NaN or -0.0, so
    # it is the builtin max's
    scores = np.maximum.reduce(values)
    return (mapping, metrics, jidx, recipients, cuts, placements, latencies, scores, {})


def _best_split(
    spec: PipelineSpec, platform: Platform, table: tuple | None, cap: float
) -> SplitEvent | None:
    """The first lowest-scoring split in a :func:`_split_table` under ``cap``, or ``None``.

    A candidate whose latency exceeds ``cap``, an already padded latency cap,
    scores ``inf``; the first lowest finite score wins, in (cuts, placement)
    order.  The winner leaves numpy as Python numbers, once per table: it
    becomes an :class:`IntervalMapping` with one :func:`evaluate_metrics`
    call, whose cycles of the split's parts are the candidate's party
    cycles bit for bit, and a finished :class:`SplitEvent`, returned to
    every pick that finds it.
    """
    if table is None:
        return None
    mapping, metrics, jidx, recipients, all_cuts, placements, latencies, scores, winners = table
    capped = np.where(latencies <= cap, scores, np.inf)
    best = int(capped.argmin())
    if capped.item(best) == math.inf:
        return None
    if best not in winners:
        i, j = divmod(best, len(placements))
        cuts, placement = all_cuts[i], placements[j]
        d, e = mapping.intervals[jidx]
        bounds = (d - 1, *cuts, e)
        parts = tuple((lo + 1, hi) for lo, hi in zip(bounds, bounds[1:]))
        winner = IntervalMapping(
            intervals=mapping.intervals[:jidx] + parts + mapping.intervals[jidx + 1 :],
            assignees=mapping.assignees[:jidx] + placement + mapping.assignees[jidx + 1 :],
        )
        after = evaluate_metrics(spec, platform, winner)
        parts_cycles = after.per_processor_period[jidx : jidx + len(placement)]
        choice = SplitChoice(
            target=mapping.assignees[jidx],
            recipients=recipients,
            cuts=cuts,
            placement=placement,
            score=scores.item(best),
            delta_latency=latencies.item(best) - metrics.latency,
            delta_period=tuple(metrics.period - c for c in parts_cycles),
        )
        winners[best] = SplitEvent(choice, metrics.period, metrics.latency, after, winner)
    return winners[best]


def _run_greedy(
    spec: PipelineSpec,
    platform: Platform,
    decisions: dict[IntervalMapping, tuple | None],
    start: tuple[IntervalMapping, MappingMetrics],
    *,
    ratio_rule: bool,
    three_way: bool,
    order: list[int],
    cap: float = math.inf,
    period_goal: float | None = None,
) -> tuple[IntervalMapping, MappingMetrics, tuple[SplitEvent, ...]]:
    """Run the splitting loop from ``start``; returns (mapping, metrics, trace).

    ``cap`` is the already padded latency cap every split must meet.  A
    mapping and the speed ``order`` fix its split table, so the loops sharing
    ``decisions`` keep one :func:`_split_table` per mapping, built when first
    met, and every step picks from it at its own cap; a table answers caps in
    any order, and so any period goal, and any run of the same two table
    rules on the same pipeline and platform.  A step keeps its winner's
    event, so loops that take the same split share one :class:`SplitEvent`.
    """
    mapping, metrics = start
    trace: list[SplitEvent] = []
    while period_goal is None or not meets_threshold(metrics.period, period_goal):
        if mapping not in decisions:
            decisions[mapping] = _split_table(
                spec, platform, mapping, metrics, order, three_way, ratio_rule
            )
        event = _best_split(spec, platform, decisions[mapping], cap)
        if event is None or not event.metrics_after.period < metrics.period:
            break
        mapping, metrics = event.mapping_after, event.metrics_after
        trace.append(event)
    return mapping, metrics, tuple(trace)


def _kept_decisions(
    spec: PipelineSpec, platform: Platform, ratio_rule: bool, three_way: bool
) -> dict[IntervalMapping, tuple | None]:
    """The split tables kept on ``platform`` for ``spec`` and one pair of table rules.

    The platform keeps the tables of the last pipeline run on it, by ratio
    rule and three-way split, the two rules a table depends on beside its
    mapping; a call with that pipeline, the same object or an equal one,
    returns the kept dict, and any other pipeline replaces them all.
    """
    held = platform.__dict__.get("_splits")
    if held is None or not (held[0] is spec or held[0] == spec):
        held = platform.__dict__["_splits"] = (spec, {})
    return held[1].setdefault((ratio_rule, three_way), {})


def run_heuristic(
    name: str, spec: PipelineSpec, platform: Platform, threshold: float
) -> HeuristicOutcome:
    """Run one heuristic by name, as its row of ``_VARIANTS`` sets it.

    The greedy loops share one split table per mapping (see
    :func:`_run_greedy`) with every run of the same ratio rule and three-way
    split on this pipeline and platform, kept on the platform by
    :func:`_kept_decisions`.  Each latency cap is padded here, once, with
    :func:`padded_threshold`.  Under a fixed period the run is feasible when
    its final period meets the threshold, for ``h2`` as for the others.
    Under a fixed latency it is infeasible exactly when the start state
    already violates the threshold.
    """
    fixed_criterion = fixed_criterion_of(name)
    _, ratio_rule, three_way, search = _VARIANTS[name]
    query = BicriteriaQuery("period" if fixed_criterion == "latency" else "latency", threshold)
    threshold = query.threshold
    order = _speed_order(platform)  # sorted once: every h2 trial starts from it
    first = IntervalMapping.single_interval(spec.n, order[0])
    start = (first, evaluate_metrics(spec, platform, first))
    base_latency = start[1].latency

    greedy = functools.partial(
        _run_greedy, spec, platform, _kept_decisions(spec, platform, ratio_rule, three_way), start,
        ratio_rule=ratio_rule, three_way=three_way, order=order,
    )
    report = None
    if fixed_criterion == "latency":
        mapping, metrics, trace = greedy(cap=padded_threshold(threshold))
    elif search is None:
        mapping, metrics, trace = greedy(period_goal=threshold)
    else:
        # Binary search over the latency increase authorized on top of the
        # start state's: the upper bound runs first and, when it fails, its
        # run is the outcome; else every trial that reaches the period
        # replaces the outcome and lowers the bound.  A trial that reaches it
        # with no split means the start state does, so no increase is needed
        # and the search stops at its lower bound.
        upper = search.upper_factor * base_latency
        lo, hi, chosen = search.lower, upper, None
        trials: list[H2SearchTrial] = []
        for step in range(search.iterations + 1):
            allowance = hi if step == 0 else (lo + hi) / 2.0
            run = greedy(cap=padded_threshold(base_latency + allowance), period_goal=threshold)
            ok = meets_threshold(run[1].period, threshold)
            trials.append(H2SearchTrial(allowance, ok, run[1].period, run[1].latency))
            if ok or step == 0:
                mapping, metrics, trace = run
            if ok and not trace:
                chosen = search.lower
                break
            if ok:
                hi = chosen = allowance
            elif chosen is None:
                break
            else:
                lo = allowance
        report = H2SearchReport(search, base_latency, upper, chosen, tuple(trials))
    judged = base_latency if fixed_criterion == "latency" else metrics.period
    return HeuristicOutcome(
        heuristic=name,
        query=query,
        mapping=mapping,
        metrics=metrics,
        feasible=meets_threshold(judged, threshold),
        trace=trace,
        search=report,
    )
