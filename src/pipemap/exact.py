"""Exhaustive bi-criteria solver over all interval mappings.

A query fixes one criterion under a threshold and minimizes the other.  The
solver walks every partition of the stage chain into ``m`` consecutive
intervals (``m`` ascending, cut positions lexicographic) and, for each
partition, every ordered tuple of ``m`` distinct processors (lexicographic).
That enumeration order is the canonical order used for tie-breaking and by
:func:`enumerate_mappings`.

One scan builds the (period, latency) Pareto front; each query, and each
row of a :func:`sweep`, is a lookup on it.  Ties are broken with exact float
equality: among feasible mappings the smallest objective, then the smallest
value of the other criterion, then the canonically first mapping.

The scan is a branch and bound, one per interval count ``m``.  It searches
all ``C(n-1, m-1)`` partitions into ``m`` intervals together: every row of
its prefix table carries its partition's index, and the rows are ordered by
(partition, processor tuple), the canonical order.  It grows processor
prefixes one interval at a time and drops a prefix when a point of the front
built so far weakly dominates the prefix's lower bounds:

* period >= the max of its closed cycles, its open interval's
  ``t_in + t_comp``, and ``wsum[j] / max(s)`` over the intervals not yet
  placed;
* latency >= its partial latency, plus ``bvol[j] / max(b) + wsum[j] / max(s)``
  for each interval not yet placed, plus ``bvol[m] / max(b)``.

Interval costs come from the one stage-cost fold in :mod:`pipemap.model`;
prefix values and bounds are summed in the order of
:func:`pipemap.model.evaluate_metrics`, and rounded ``+``, ``/`` and ``max``
are monotone, so no bound exceeds the exact float value of any completion.
Every front point is canonically earlier than the prefix, so dropping a tie
keeps the canonically first mapping, as the merge does.  At the last interval
the output link closes each row, giving its period and latency bit for bit as
``evaluate_metrics`` would, and the rows the front does not weakly dominate
are merged into it.  ``evaluated`` counts every mapping the scan decided,
``scored`` the full mappings it completed and ``pruned`` the rest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .model import (
    IntervalMapping,
    MappingMetrics,
    PipelineSpec,
    Platform,
    _interval_costs,
    evaluate_metrics,
    padded_threshold,
)

__all__ = [
    "BicriteriaQuery",
    "SolveResult",
    "SweepPoint",
    "count_mappings",
    "enumerate_mappings",
    "solve",
    "sweep",
]

OBJECTIVES = ("latency", "period")


@dataclass(frozen=True)
class BicriteriaQuery:
    """Minimize one criterion subject to a bound on the other.

    ``objective`` names the minimized criterion; ``threshold`` bounds the
    other one.  ``math.inf`` is a valid threshold and makes the query an
    unconstrained minimization.
    """

    objective: str
    threshold: float

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
        thr = float(self.threshold)
        if math.isnan(thr) or thr <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold!r}")
        object.__setattr__(self, "threshold", thr)

    @classmethod
    def minimize_latency(cls, max_period: float = math.inf) -> "BicriteriaQuery":
        return cls(objective="latency", threshold=max_period)

    @classmethod
    def minimize_period(cls, max_latency: float = math.inf) -> "BicriteriaQuery":
        return cls(objective="period", threshold=max_latency)

    @property
    def fixed_criterion(self) -> str:
        """The criterion the threshold applies to."""
        return "period" if self.objective == "latency" else "latency"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one exhaustive query.

    ``mapping``/``metrics`` are ``None`` when no mapping satisfies the
    threshold; ``min_period`` and ``min_latency`` always carry the
    unconstrained minima (the two ends of the Pareto front), so an infeasible
    result still reports the best achievable bound on each criterion.
    ``evaluated`` counts every mapping the scan decided; ``scored`` the full
    mappings whose metrics it computed, and ``pruned`` those bounded out as
    prefixes before their last interval.  Neither of the last two is part of
    :meth:`to_dict`.
    """

    query: BicriteriaQuery
    mapping: IntervalMapping | None
    metrics: MappingMetrics | None
    evaluated: int
    min_period: float
    min_latency: float
    scored: int

    @property
    def feasible(self) -> bool:
        return self.mapping is not None

    @property
    def pruned(self) -> int:
        return self.evaluated - self.scored

    @property
    def objective_value(self) -> float | None:
        if self.metrics is None:
            return None
        return (
            self.metrics.latency
            if self.query.objective == "latency"
            else self.metrics.period
        )

    def to_dict(self) -> dict:
        return {
            "objective": self.query.objective,
            "threshold": self.query.threshold,
            "feasible": self.feasible,
            "mapping": self.mapping.signature() if self.mapping else None,
            "period": self.metrics.period if self.metrics else None,
            "latency": self.metrics.latency if self.metrics else None,
            "evaluated": self.evaluated,
            "min_period": self.min_period,
            "min_latency": self.min_latency,
        }


class SweepPoint(NamedTuple):
    threshold: float
    result: SolveResult


def count_mappings(n: int, p: int) -> int:
    """Number of interval mappings of ``n`` stages onto ``p`` processors.

    For each interval count ``m`` there are ``C(n-1, m-1)`` ways to cut the
    chain and ``p! / (p-m)!`` ordered choices of distinct processors.
    """
    if n < 1 or p < 1:
        raise ValueError("count_mappings requires n >= 1 and p >= 1")
    return sum(
        math.comb(n - 1, m - 1) * math.perm(p, m)
        for m in range(1, min(n, p) + 1)
    )


def _cuts_to_intervals(n: int, cuts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    bounds = (0,) + cuts + (n,)
    return tuple(
        (bounds[i] + 1, bounds[i + 1]) for i in range(len(bounds) - 1)
    )


def enumerate_mappings(
    spec: PipelineSpec, platform: Platform
) -> Iterator[IntervalMapping]:
    """Yield every interval mapping in canonical order.

    Canonical order: interval count ``m`` ascending, then cut positions in
    lexicographic order, then assignee tuples in lexicographic order.
    """
    n, p = spec.n, platform.p
    for m in range(1, min(n, p) + 1):
        for cuts in itertools.combinations(range(1, n), m - 1):
            intervals = _cuts_to_intervals(n, cuts)
            for procs in itertools.permutations(range(1, p + 1), m):
                yield IntervalMapping(intervals=intervals, assignees=procs)


def _extend_perms(prev: np.ndarray, p: int) -> np.ndarray:
    """Extend each ``(m-1)``-tuple by every processor it does not hold.

    Every row has ``p - k`` free processors; its extensions follow it in
    ascending order, so a lexicographic table stays lexicographic.  The
    result is column-major ``intp``: the scan reads one column at a time.
    """
    count, k = prev.shape
    free = np.ones((count, p + 1), dtype=bool)
    free[:, 0] = False
    free[np.arange(count)[:, None], prev] = False
    table = np.empty((count * (p - k), k + 1), dtype=np.intp, order="F")
    for j in range(k):
        table[:, j] = np.repeat(prev[:, j], p - k)
    table[:, k] = np.nonzero(free)[1]
    return table


def _partition_arrays(
    spec: PipelineSpec, intervals: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The ``wsum`` and ``bvol`` rows of one partition (see :mod:`pipemap._kernels`)."""
    wsum = np.array(_interval_costs(spec, intervals))
    bvol = spec.delta[[d - 1 for d, _ in intervals] + [spec.n]]
    return wsum, bvol


# Prefix rows one expansion step may build.  The scan grows prefixes depth
# first in blocks of this size, so its tables stay bounded however few
# prefixes the bounds prune.
_ROW_BUDGET = 1 << 15


class _Front(NamedTuple):
    """The (period, latency) Pareto front of one instance.

    Periods strictly rise and latencies strictly fall along the front; each
    point holds the canonically first mapping that reaches it exactly.
    ``evaluated`` counts the mappings the scan decided and ``scored`` the
    full mappings whose metrics it computed; the rest were bounded out as
    prefixes before their last interval.
    """

    period: np.ndarray
    latency: np.ndarray
    mappings: list[IntervalMapping]
    evaluated: int
    scored: int


def _dominated(
    front_per: np.ndarray, front_lat: np.ndarray, period: np.ndarray, latency: np.ndarray
) -> np.ndarray:
    """Mask of the rows that some point of the front weakly dominates."""
    if not front_per.size:
        return np.zeros(period.shape, dtype=bool)
    # the last point with period <= the row's has the lowest such latency
    k = np.searchsorted(front_per, period, side="right") - 1
    return (k >= 0) & (front_lat[k] <= latency)


def _grow(
    block: tuple, wsum: np.ndarray, bvol: np.ndarray, s: np.ndarray, b: np.ndarray
) -> tuple:
    """Extend prefixes of ``k`` intervals by every free processor for interval ``k``.

    A block is ``(part, procs, closed, open_, lat)``, one row per prefix: its
    partition's row in the ``wsum`` and ``bvol`` tables, processor tuples,
    the max of the closed cycles, the open interval's ``t_in + t_comp`` and
    the partial latency, each exact (:func:`pipemap._kernels.scan_perms`
    computes them).
    """
    part, procs, closed, open_, lat = block
    p = s.shape[0]
    ext = _extend_perms(procs, p)
    part = np.repeat(part, p - procs.shape[1])
    metrics = _kernels.scan_perms(wsum, bvol, s, b, ext, closed, open_, lat, part)
    return (part, ext, *metrics)


def _complete(block: tuple, bvol: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Period and latency of full mappings: the output link closes the last interval."""
    part, procs, closed, open_, lat = block
    t_out = bvol[part, -1] / b[procs[:, -1], b.shape[0] - 1]
    return np.maximum(closed, open_ + t_out), lat + t_out


def _scan_front(spec: PipelineSpec, platform: Platform) -> _Front:
    """Build the Pareto front, completing only the prefixes it cannot yet beat."""
    n, p = spec.n, platform.p
    s, b = platform.s, platform.b
    s_max, b_max = s.max(), b.max()
    front_per = np.empty(0, dtype=np.float64)
    front_lat = np.empty(0, dtype=np.float64)
    front_maps: list[IntervalMapping] = []
    scored = 0
    for m in range(1, min(n, p) + 1):
        # One search over every partition into m intervals: row i of each
        # table belongs to the i-th partition in canonical order.
        partitions = [
            _cuts_to_intervals(n, cuts)
            for cuts in itertools.combinations(range(1, n), m - 1)
        ]
        count = len(partitions)
        tables = [_partition_arrays(spec, intervals) for intervals in partitions]
        wsum = np.array([w for w, _ in tables])
        bvol = np.array([v for _, v in tables])
        # Lower bounds on the terms of the intervals not yet placed: the
        # fastest processor and the widest link.
        link_lb, comp_lb = bvol / b_max, wsum / s_max
        comp_tail = np.zeros((count, m + 1))
        comp_tail[:, :m] = np.maximum.accumulate(comp_lb[:, ::-1], axis=1)[:, ::-1]
        # Rows are ordered by partition, then processor tuple, and blocks are
        # grown depth first, so full mappings reach the front in canonical
        # order.  The first block holds one empty prefix per partition.
        zero = np.zeros(count)
        stack = [(np.arange(count), np.zeros((count, 0), dtype=np.intp), zero, zero, zero)]
        while stack:
            block = stack.pop()
            k = block[1].shape[1]
            step = max(1, _ROW_BUDGET // (p - k))
            if len(block[0]) > step:
                stack.append(tuple(a[step:] for a in block))
                block = tuple(a[:step] for a in block)
            block = _grow(block, wsum, bvol, s, b)
            part, procs, closed, open_, lat = block
            if k + 1 == m:
                period, latency = _complete(block, bvol, b)
                scored += len(procs)
                rows = np.flatnonzero(
                    ~_dominated(front_per, front_lat, period, latency)
                )
                if rows.size:
                    period = np.concatenate((front_per, period[rows]))
                    latency = np.concatenate((front_lat, latency[rows]))
                    # lexsort is stable and the rows follow the front in
                    # canonical order, so exact ties keep the canonically
                    # first; a point stays only if its latency is strictly
                    # below every one sorted before it
                    order = np.lexsort((latency, period))
                    low = np.minimum.accumulate(latency[order])
                    order = order[np.append(True, low[1:] < low[:-1])]
                    old = len(front_maps)
                    front_maps = [
                        front_maps[i]
                        if i < old
                        else IntervalMapping(
                            partitions[part[rows[i - old]]],
                            procs[rows[i - old]].tolist(),
                        )
                        for i in order.tolist()
                    ]
                    front_per, front_lat = period[order], latency[order]
                continue
            # Rounded +, / and max are monotone, so adding the lower bounds
            # in evaluate_metrics' order keeps each bound at or below the
            # value of every completion, with no ulp to spare.
            per_lb = np.maximum(np.maximum(closed, open_), comp_tail[part, k + 1])
            lat_lb = lat
            for j in range(k + 1, m):
                lat_lb = lat_lb + link_lb[part, j]
                lat_lb += comp_lb[part, j]
            lat_lb = lat_lb + link_lb[part, m]
            keep = ~_dominated(front_per, front_lat, per_lb, lat_lb)
            if keep.any():
                stack.append(tuple(a[keep] for a in block))
    return _Front(front_per, front_lat, front_maps, count_mappings(n, p), scored)


def _lookup(
    spec: PipelineSpec, platform: Platform, front: _Front, query: BicriteriaQuery
) -> SolveResult:
    """The optimum of ``query``: the feasible front point best in its objective."""
    padded = padded_threshold(query.threshold)
    if query.objective == "latency":
        best = np.flatnonzero(front.period <= padded)[-1:]
    else:
        best = np.flatnonzero(front.latency <= padded)[:1]
    mapping = front.mappings[int(best[0])] if best.size else None
    return SolveResult(
        query=query,
        mapping=mapping,
        metrics=None if mapping is None else evaluate_metrics(spec, platform, mapping),
        evaluated=front.evaluated,
        min_period=float(front.period[0]),
        min_latency=float(front.latency[-1]),
        scored=front.scored,
    )


def solve(
    spec: PipelineSpec, platform: Platform, query: BicriteriaQuery
) -> SolveResult:
    """Exhaustively find the optimal mapping for a bi-criteria query.

    One scan builds the Pareto front and the answer is looked up on it: the
    last point within a period bound, or the first within a latency bound.
    """
    return _lookup(spec, platform, _scan_front(spec, platform), query)


def sweep(
    spec: PipelineSpec,
    platform: Platform,
    query: BicriteriaQuery,
    thresholds: Sequence[float],
) -> list[SweepPoint]:
    """One scan, then one front lookup per threshold; ``query`` supplies the objective.

    ``thresholds`` must be sorted ascending; the returned rows preserve input
    order, one per threshold, infeasible rows included.
    """
    values = [float(t) for t in thresholds]
    if not values:
        raise ValueError("sweep needs at least one threshold")
    for a, b_ in zip(values, values[1:]):
        if b_ < a:
            raise ValueError("sweep thresholds must be sorted ascending")
    front = _scan_front(spec, platform)
    return [
        SweepPoint(t, _lookup(spec, platform, front, replace(query, threshold=t)))
        for t in values
    ]
