"""Exhaustive bi-criteria solver over all interval mappings.

A query fixes one criterion under a threshold and minimizes the other.  The
solver walks every partition of the stage chain into ``m`` consecutive
intervals (``m`` ascending, cut positions lexicographic) and, for each
partition, evaluates every ordered tuple of ``m`` distinct processors with a
vectorized kernel (see :mod:`pipemap._kernels`).  That enumeration order is
the canonical order used for tie-breaking and by :func:`enumerate_mappings`.

One scan builds the (period, latency) Pareto front; each query, and each
row of a :func:`sweep`, is a lookup on it.  Ties are broken with exact float
equality: among feasible mappings the smallest objective, then the smallest
value of the other criterion, then the canonically first mapping.
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
    """

    query: BicriteriaQuery
    mapping: IntervalMapping | None
    metrics: MappingMetrics | None
    evaluated: int
    min_period: float
    min_latency: float

    @property
    def feasible(self) -> bool:
        return self.mapping is not None

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
    result is column-major ``intp``: the kernel reads one column at a time.
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
    m = len(intervals)
    wsum = np.empty(m, dtype=np.float64)
    bvol = np.empty(m + 1, dtype=np.float64)
    for j, (d, e) in enumerate(intervals):
        acc = 0.0
        for k in range(d, e + 1):
            acc += spec.w[k - 1]
        wsum[j] = acc
        bvol[j] = spec.delta[d - 1]
    bvol[m] = spec.delta[intervals[-1][1]]
    return wsum, bvol


class _Front(NamedTuple):
    """The (period, latency) Pareto front of one instance.

    Periods strictly rise and latencies strictly fall along the front; each
    point holds the canonically first mapping that reaches it exactly.
    """

    period: np.ndarray
    latency: np.ndarray
    mappings: list[IntervalMapping]
    evaluated: int


def _scan_front(spec: PipelineSpec, platform: Platform) -> _Front:
    """Evaluate every mapping once and keep the non-dominated ones."""
    n, p = spec.n, platform.p
    s, b = platform.s, platform.b
    front_per = np.empty(0, dtype=np.float64)
    front_lat = np.empty(0, dtype=np.float64)
    front_maps: list[IntervalMapping] = []
    evaluated = 0
    perms = np.zeros((1, 0), dtype=np.intp)
    for m in range(1, min(n, p) + 1):
        perms = _extend_perms(perms, p)
        count = perms.shape[0]
        periods = np.empty(count, dtype=np.float64)
        latencies = np.empty(count, dtype=np.float64)
        for cuts in itertools.combinations(range(1, n), m - 1):
            intervals = _cuts_to_intervals(n, cuts)
            wsum, bvol = _partition_arrays(spec, intervals)
            _kernels.scan_perms(wsum, bvol, s, b, perms, periods, latencies)
            evaluated += count
            rows = np.arange(count)
            if front_maps:
                # Drop rows an earlier point weakly dominates.  The prefilter
                # tests point 0 (the largest latency); point k has the lowest
                # latency among the points with period <= the row's.
                rows = rows[(latencies < front_lat[0]) | (periods < front_per[0])]
                k = np.searchsorted(front_per, periods[rows], side="right") - 1
                rows = rows[(k < 0) | (latencies[rows] < front_lat[k])]
            if not rows.size:
                continue
            per = np.concatenate((front_per, periods[rows]))
            lat = np.concatenate((front_lat, latencies[rows]))
            maps = front_maps + [
                IntervalMapping(intervals, procs) for procs in perms[rows].tolist()
            ]
            # lexsort is stable and candidates are in canonical order, so exact
            # ties keep the canonically first; a point joins the front only if
            # its latency is strictly below every one sorted before it
            order = np.lexsort((lat, per))
            lat_sorted = lat[order]
            keep = np.empty(order.size, dtype=bool)
            keep[0] = True
            keep[1:] = lat_sorted[1:] < np.minimum.accumulate(lat_sorted)[:-1]
            order = order[keep]
            front_per, front_lat = per[order], lat[order]
            front_maps = [maps[i] for i in order.tolist()]
    return _Front(front_per, front_lat, front_maps, evaluated)


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
