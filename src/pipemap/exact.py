"""Exhaustive bi-criteria solver over all interval mappings.

A query, a :class:`pipemap.model.BicriteriaQuery`, fixes one criterion under a
threshold and minimizes the other.  The solver walks every partition of the
stage chain into ``m`` consecutive intervals (``m`` ascending, cut positions
lexicographic) and, for each partition, every ordered tuple of ``m`` distinct
processors (lexicographic).  That enumeration order is the canonical order
used for tie-breaking and by :func:`enumerate_mappings`.

One scan builds the (period, latency) Pareto front, a :class:`ParetoFront`;
each query is a lookup on it that gives one :class:`SolveResult`.
:func:`pareto_front` keeps the front on the platform object, one entry for
the last pipeline scanned there, so a platform's first query scans and later
:func:`solve` calls with the same pipeline, such as the thresholds of a
sweep, are lookups.  The entry lives and dies with the platform.
Ties are broken with exact float equality: among feasible mappings the
smallest objective, then the smallest value of the other criterion, then the
canonically first mapping.

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

Interval costs are read from the pipeline's one stage-cost table,
``PipelineSpec._costs`` in :mod:`pipemap.model`, by one gather per ``m``;
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
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernels
from .model import (
    BicriteriaQuery,
    IntervalMapping,
    MappingMetrics,
    PipelineSpec,
    Platform,
    evaluate_metrics,
    padded_threshold,
)

__all__ = [
    "ParetoFront",
    "SolveResult",
    "count_mappings",
    "enumerate_mappings",
    "pareto_front",
    "solve",
]

@dataclass(frozen=True)
class SolveResult:
    """Outcome of one exhaustive query.

    ``mapping``/``metrics`` are ``None`` when no mapping satisfies the
    threshold; ``min_period`` and ``min_latency`` always carry the
    unconstrained minima (the two ends of the Pareto front), so an infeasible
    result still reports the best achievable bound on each criterion.
    ``evaluated`` counts every mapping the scan decided; ``scored`` the full
    mappings whose metrics it computed, and ``pruned`` those bounded out as
    prefixes before their last interval.  All three describe the scan that
    built the front, which an earlier query on the same platform may have
    run.  Neither ``scored`` nor ``pruned`` is part of :meth:`to_dict`.
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
        return None if self.metrics is None else self.query.objective_of(self.metrics)

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


def _partitions(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and last stage of each interval of every partition into ``m``.

    Two ``(C(n-1, m-1), m)`` integer arrays, ``first`` and ``last``, one row
    per partition with its cuts in ``itertools.combinations`` order, the
    canonical order.
    """
    count = math.comb(n - 1, m - 1)
    cuts = list(itertools.combinations(range(1, n), m - 1))
    bounds = np.empty((count, m + 1), dtype=np.intp)
    bounds[:, 0], bounds[:, m] = 0, n
    bounds[:, 1:m] = np.array(cuts, dtype=np.intp).reshape(count, m - 1)
    return bounds[:, :-1] + 1, bounds[:, 1:]


def enumerate_mappings(
    spec: PipelineSpec, platform: Platform
) -> Iterator[IntervalMapping]:
    """Yield every interval mapping in canonical order.

    Canonical order: interval count ``m`` ascending, then cut positions in
    lexicographic order, then assignee tuples in lexicographic order.
    """
    n, p = spec.n, platform.p
    for m in range(1, min(n, p) + 1):
        first, last = _partitions(n, m)
        for starts, ends in zip(first.tolist(), last.tolist()):
            intervals = tuple(zip(starts, ends))
            for procs in itertools.permutations(range(1, p + 1), m):
                yield IntervalMapping(intervals=intervals, assignees=procs)


def _extend_perms(prev: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """Extend each ``k``-tuple by every processor it does not hold.

    ``(table, reps)``: ``reps`` is each row's extension count as ``np.repeat``
    takes it (``p - k``), decided here only.  Extensions follow their row in
    ascending order, so a lexicographic table stays lexicographic; it is
    column-major ``intp``, as the scan reads one column at a time.
    """
    count, k = prev.shape
    reps = p - k
    free = np.ones((count, p + 1), dtype=bool)
    free[:, 0] = False
    free[np.arange(count)[:, None], prev] = False
    table = np.empty((count * reps, k + 1), dtype=np.intp, order="F")
    for j in range(k):
        table[:, j] = np.repeat(prev[:, j], reps)
    table[:, k] = np.nonzero(free)[1]
    return table, reps


# Prefix rows one expansion step may build.  The scan grows prefixes depth
# first in blocks of at most ``_ROW_BUDGET // (p - k)`` (no prefix has more
# extensions), so its tables stay bounded however few prefixes the bounds prune.
_ROW_BUDGET = 1 << 15


class ParetoFront(NamedTuple):
    """The (period, latency) Pareto front of one instance.

    Periods strictly rise and latencies strictly fall along the front; each
    point holds the canonically first mapping that reaches it exactly.
    ``evaluated`` counts the mappings the scan decided and ``scored`` the
    full mappings whose metrics it computed; the rest were bounded out as
    prefixes before their last interval.  The arrays are read-only and
    ``mappings`` is a tuple, so a front shared by later queries cannot be
    changed.
    """

    period: np.ndarray
    latency: np.ndarray
    mappings: tuple[IntervalMapping, ...]
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
    the partial latency, each exact.  The state is repeated by the count
    :func:`_extend_perms` returns, one copy per extension, and
    :func:`pipemap._kernels.scan_perms` computes the new rows' values.
    """
    part, procs, closed, open_, lat = block
    ext, reps = _extend_perms(procs, s.shape[0])
    part, closed, open_, lat = (np.repeat(a, reps) for a in (part, closed, open_, lat))
    metrics = _kernels.scan_perms(wsum, bvol, s, b, ext, closed, open_, lat, part)
    return (part, ext, *metrics)


def _complete(block: tuple, bvol: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Period and latency of full mappings: the output link closes the last interval."""
    part, procs, closed, open_, lat = block
    t_out = bvol[part, -1] / b[procs[:, -1], b.shape[0] - 1]
    return np.maximum(closed, open_ + t_out), lat + t_out


def _scan_front(spec: PipelineSpec, platform: Platform) -> ParetoFront:
    """Build the Pareto front, completing only the prefixes it cannot yet beat.

    The raw scan: it runs every time.  :func:`pareto_front` keeps its result.
    """
    n, p = spec.n, platform.p
    s, b = platform.s, platform.b
    s_max, b_max = s.max(), b.max()
    costs = np.array(spec._costs)
    front_per = np.empty(0, dtype=np.float64)
    front_lat = np.empty(0, dtype=np.float64)
    front_maps: list[IntervalMapping] = []
    scored = 0
    for m in range(1, min(n, p) + 1):
        # One search over every partition into m intervals: row i of each
        # table belongs to the i-th partition in canonical order.
        first, last = _partitions(n, m)
        count = len(first)
        wsum = costs[first, last]
        bvol = spec.delta[np.column_stack((first - 1, last[:, -1]))]
        spans = np.stack((first, last), axis=-1)
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
                            spans[part[rows[i - old]]].tolist(),
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
    front_per.setflags(write=False)
    front_lat.setflags(write=False)
    return ParetoFront(
        front_per, front_lat, tuple(front_maps), count_mappings(n, p), scored
    )


def pareto_front(spec: PipelineSpec, platform: Platform) -> ParetoFront:
    """The Pareto front of ``spec`` on ``platform``, scanned once per platform.

    The platform keeps the front of the last pipeline scanned on it; a call
    with that pipeline, the same object or an equal one, returns the kept
    front, and any other pipeline is scanned and replaces it.
    """
    held = platform.__dict__.get("_front")
    if held is not None and (held[0] is spec or held[0] == spec):
        return held[1]
    front = _scan_front(spec, platform)
    platform.__dict__["_front"] = (spec, front)
    return front


def solve(
    spec: PipelineSpec, platform: Platform, query: BicriteriaQuery
) -> SolveResult:
    """Exhaustively find the optimal mapping for a bi-criteria query.

    The answer is looked up on the instance's Pareto front: the last point
    within a period bound, or the first within a latency bound.  The front
    comes from :func:`pareto_front`, so only the platform's first query with
    this pipeline scans.
    """
    front = pareto_front(spec, platform)
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
