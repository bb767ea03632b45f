"""Exhaustive bi-criteria solver over all interval mappings.

A query, a :class:`pipemap.model.BicriteriaQuery`, fixes one criterion under a
threshold and minimizes the other.  The solver walks every partition of the
stage chain into ``m`` consecutive intervals (``m`` ascending, cut positions
lexicographic) and, for each partition, every ordered tuple of ``m`` distinct
processors (lexicographic).  That enumeration order is the canonical order
used for tie-breaking and by :func:`enumerate_mappings`.

One scan builds the (period, latency) Pareto front, a :class:`ParetoFront`;
each query is a lookup on it that gives one :class:`SolveResult`.
:func:`pareto_front` keeps the front in the platform's record
(:meth:`pipemap.model.Platform._kept`), so a platform's first query with a
pipeline scans and later :func:`solve` calls with it are lookups.  Ties are broken
with exact float equality: among feasible mappings the smallest objective,
then the smallest value of the other criterion, then the canonically first
mapping.

The scan is a branch and bound, one per interval count ``m``.  It searches
all ``C(n-1, m-1)`` partitions into ``m`` intervals together, each a boundary
row ``0, cuts…, n``: every row of its prefix table carries its partition's
index, and the rows are ordered by (partition, processor tuple), the
canonical order.  It grows processor prefixes one interval at a time, and a
point of the front built so far that weakly dominates a grown row drops it.
A prefix row that places intervals ``0..k`` carries lower bounds.  Each term
of an interval not yet placed, and the send of interval ``k``, still open,
is bounded by its numerator over the fastest processor, ``wsum[j] / max(s)``,
or over the widest link of its kind, ``link_lb[j] = bvol[j] / max(b)`` over
the links between two processors for an inner boundary and over the links to
the output gateway for boundary ``m`` (the diagonal of ``b`` is never read;
the input link is placed with interval 0, before any bound):

* period >= the max of its closed cycles, its open interval's
  ``t_in + t_comp + link_lb[k + 1]``, and ``(link_lb[j] + wsum[j] / max(s))
  + link_lb[j + 1]``, the cycle bound, of each interval ``j`` not yet placed;
* latency >= its partial latency, plus ``link_lb[j] + wsum[j] / max(s)`` for
  each interval not yet placed, plus ``link_lb[m]``.

A full mapping's row carries its exact period and latency, its last interval
closed by the output link.  Surviving prefixes grow on; surviving full
mappings are merged into the front.  A processor interchangeable with an
earlier one of its class (:attr:`pipemap.model.Platform._lead`: same speed,
same links) joins a prefix only after that one: swap twins reach the same
metrics bit for bit, and the canonically first takes a class in index order.

Interval costs are read from the pipeline's one stage-cost table,
``PipelineSpec._costs`` in :mod:`pipemap.model`, into partition tables that
the pipeline keeps for every platform it is scanned on, one per ``m``
(a scan whose tables would exceed ``_TABLE_BYTES_LIMIT`` fails first, with a
``ValueError``); prefix values and bounds are summed in the order of
:func:`pipemap.model.evaluate_metrics`, and rounded ``+``, ``/`` and ``max``
are monotone, so no bound exceeds the exact float value of any completion,
and a full row's values are ``evaluate_metrics``' own.  Every front point is
canonically earlier than the row, so dropping a tie keeps the canonically
first mapping, as the merge does.  ``evaluated`` counts every mapping the
scan decided, ``scored`` the full mappings it completed and ``pruned`` the
rest: prefixes bounded out and class twins left out.
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
    _fold_numerators,
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
    mappings whose metrics it computed, and ``pruned`` the rest, bounded out
    as prefixes or left to an interchangeable processor's earlier twin.  All
    three describe the scan that built the front, which an earlier query on
    the same platform may have run.  Neither ``scored`` nor ``pruned`` is
    part of :meth:`to_dict`.
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


def _partitions(n: int, m: int) -> np.ndarray:
    """The boundary rows ``0, cuts…, n`` of every partition into ``m`` intervals.

    A ``(C(n-1, m-1), m + 1)`` integer array, its cuts in
    ``itertools.combinations`` order, the canonical order: interval ``j`` of a
    row holds stages ``row[j] + 1 .. row[j + 1]``.
    """
    return np.array(
        [(0, *cuts, n) for cuts in itertools.combinations(range(1, n), m - 1)], dtype=np.intp
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
        for row in _partitions(n, m).tolist():
            intervals = tuple((d + 1, e) for d, e in zip(row, row[1:]))
            for procs in itertools.permutations(range(1, p + 1), m):
                yield IntervalMapping(intervals=intervals, assignees=procs)


def _extend_perms(prev: np.ndarray, lead: np.ndarray) -> tuple[np.ndarray, np.ndarray | int]:
    """Extend each ``k``-tuple by the processors it may take next.

    A tuple takes a processor it does not hold, but not a class member
    (:attr:`pipemap.model.Platform._lead`) whose predecessor in the class is
    still free: swapping the two changes no metric, and the canonically first
    of such twins takes a class's members in index order.  ``(table, reps)``:
    ``reps`` is each row's extension count as ``np.repeat`` takes it, decided
    here only (``p - k`` with no class of two).  Extensions follow their row in
    ascending order, so a lexicographic table stays lexicographic; it is
    column-major ``intp``, as the scan reads one column at a time.
    """
    count, k = prev.shape
    free = np.ones((count, len(lead)), dtype=bool)
    free[:, 0] = False
    free[np.arange(count)[:, None], prev] = False
    reps = len(lead) - 1 - k
    if np.count_nonzero(lead):
        free &= ~free[:, lead]
        reps = free.sum(axis=1)
    # one repeat of the transposed prefixes, with no temporary as large as the table
    table = np.empty((k + 1, count), dtype=np.intp)
    table[:k] = prev.T
    table = table.repeat(reps, axis=1)
    table[k] = free.nonzero()[1]
    return table.T, reps


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
    prefixes before their last interval or left to an interchangeable
    processor's earlier twin.  The arrays are read-only and
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
    block: tuple,
    wsum: np.ndarray,
    bvol: np.ndarray,
    s: np.ndarray,
    b: np.ndarray,
    lead: np.ndarray,
) -> tuple:
    """Extend prefixes of ``k`` intervals by the processors :func:`_extend_perms` allows.

    A block is ``(part, procs, closed, open_, lat)``, one row per prefix: its
    partition's row in the ``wsum`` and ``bvol`` tables, processor tuples,
    the max of the closed cycles, the open interval's ``t_in + t_comp`` and
    the partial latency, each exact.  The state is repeated by the count
    :func:`_extend_perms` returns, one copy per extension, and
    :func:`pipemap._kernels.scan_perms` computes the new rows' values.
    """
    part, procs, closed, open_, lat = block
    ext, reps = _extend_perms(procs, lead)
    part, closed, open_, lat = (a.repeat(reps) for a in (part, closed, open_, lat))
    metrics = _kernels.scan_perms(wsum, bvol, s, b, ext, closed, open_, lat, part)
    return (part, ext, *metrics)


# Bytes of partition tables a scan may have its pipeline keep, summed over
# ``m`` (:func:`_table_bytes`): ``n=22, p=14`` keeps 656 MiB and runs,
# ``n=24, p=14`` would keep 2.4 GiB and is refused before any table is built.
_TABLE_BYTES_LIMIT = 1 << 30


def _table_bytes(n: int, m: int) -> int:
    """The bytes of :func:`_pipeline_tables`' pair for ``m`` intervals, before it exists.

    Each of the ``C(n-1, m-1)`` partitions holds ``2m`` span ends and
    ``2m + 1`` numerators, eight bytes each.
    """
    return math.comb(n - 1, m - 1) * (4 * m + 1) * 8


def _pipeline_tables(spec: PipelineSpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The partitions into ``m`` intervals, kept in ``spec._scan_tables`` for every platform.

    ``(spans, terms)``, one entry per partition of :func:`_partitions`, in its
    order: ``spans[i]`` holds each interval's first and last stage, and column
    ``i`` of ``terms`` the numerators of ``evaluate_metrics``' fold from
    :func:`pipemap.model._fold_numerators`, ``2m + 1`` rows: ``delta``
    entering interval 0, its cost, ``delta`` crossing the next boundary, and
    so on to ``delta`` leaving interval ``m - 1``.  Both are read-only.
    """
    held = spec._scan_tables
    if m not in held:
        bounds = _partitions(spec.n, m)
        first, last = bounds[:, :-1] + 1, bounds[:, 1:]
        spans = np.stack((first, last), axis=-1)
        terms = _fold_numerators(spec, bounds.T)
        spans.setflags(write=False)
        terms.setflags(write=False)
        held[m] = spans, terms
    return held[m]


def _scan_front(spec: PipelineSpec, platform: Platform) -> ParetoFront:
    """Build the Pareto front, completing only the prefixes it cannot yet beat.

    The raw scan: it runs every time.  :func:`pareto_front` keeps its result.
    A pipeline whose partition tables would outgrow ``_TABLE_BYTES_LIMIT`` is
    refused with a ``ValueError`` before any table is built.
    """
    n, p = spec.n, platform.p
    kept = sum(_table_bytes(n, m) for m in range(1, min(n, p) + 1))
    if kept > _TABLE_BYTES_LIMIT:
        raise ValueError(
            f"an exact scan of n={n} stages on p={p} processors would keep"
            f" {kept / 2**20:,.0f} MiB of partition tables, over the"
            f" {_TABLE_BYTES_LIMIT >> 20:,} MiB limit"
        )
    s, b, lead = platform.s, platform.b, platform._lead
    # The fastest processor and the widest link of each kind a bound reads:
    # between two processors (the diagonal is never read; with p = 1 there is
    # no such link and no inner boundary) and to the output gateway.  The
    # input link is placed with interval 0, before any bound.
    s_max, out_max = s.max(), b[1:-1, -1].max()
    inner_max = b[1:-1, 1:-1][~np.eye(p, dtype=bool)].max(initial=0.0)
    front_per = np.empty(0, dtype=np.float64)
    front_lat = np.empty(0, dtype=np.float64)
    front_maps: list[IntervalMapping] = []
    scored = 0
    for m in range(1, min(n, p) + 1):
        # One search over every partition into m intervals: entry i of each
        # table belongs to the i-th partition in canonical order.
        spans, terms = _pipeline_tables(spec, m)
        count = len(spans)
        bvol, wsum = terms[::2].T, terms[1::2].T
        # A lower bound on each term after interval 0's compute, in fold order:
        # its numerator over the fastest processor or the widest link of its
        # kind.  Row 2j - 2 bounds interval j's receive, 2j - 1 its compute.
        rates = [inner_max, s_max] * (m - 1) + [out_max]
        fold = terms[2:] / np.array(rates)[:, None]
        # row j - 1: interval j's cycle, (t_in + comp) + t_out, and the suffix
        # maxima of those cycles
        cycle = fold[:-1:2] + fold[1::2]
        cycle += fold[2::2]
        cycle_tail = np.maximum.accumulate(cycle[::-1])[::-1]
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
            block = _grow(block, wsum, bvol, s, b, lead)
            part, procs, closed, open_, lat = block
            if k + 1 == m:
                # the output link closes a full mapping: its exact metrics
                t_out = bvol[part, m] / b[procs[:, -1], p + 1]
                period, latency = np.maximum(closed, open_ + t_out), lat + t_out
                scored += len(part)
            else:
                # Rounded +, / and max are monotone, so adding the lower bounds
                # in evaluate_metrics' order keeps each bound at or below the
                # value of every completion, with no ulp to spare.  The open
                # interval's cycle lacks only its send; the latency adds the
                # bounds of every term after the partial latency, one vector
                # add at a time (np.add.accumulate over a block's terms gives
                # the same sums but costs several times more per element).
                rest = fold[2 * k :].take(part, axis=1)
                period = np.maximum(closed, open_ + rest[0])
                period = np.maximum(period, cycle_tail[k].take(part))
                latency = lat + rest[0]
                for term in rest[1:]:
                    latency += term
            rows = (~_dominated(front_per, front_lat, period, latency)).nonzero()[0]
            if not rows.size:
                continue
            if k + 1 < m:
                stack.append(tuple(a[rows] for a in block))
                continue
            period = np.concatenate((front_per, period[rows]))
            latency = np.concatenate((front_lat, latency[rows]))
            # lexsort is stable and the rows follow the front in canonical
            # order, so exact ties keep the canonically first; a point stays
            # only if its latency is strictly below every one sorted before it
            order = np.lexsort((latency, period))
            low = np.minimum.accumulate(latency[order])
            order = order[np.append(True, low[1:] < low[:-1])]
            old = len(front_maps)
            front_maps = [
                front_maps[i]
                if i < old
                else IntervalMapping(
                    spans[part[rows[i - old]]].tolist(), procs[rows[i - old]].tolist()
                )
                for i in order.tolist()
            ]
            front_per, front_lat = period[order], latency[order]
    front_per.setflags(write=False)
    front_lat.setflags(write=False)
    return ParetoFront(
        front_per, front_lat, tuple(front_maps), count_mappings(n, p), scored
    )


def pareto_front(spec: PipelineSpec, platform: Platform) -> ParetoFront:
    """The Pareto front of ``spec`` on ``platform``, kept in ``platform._kept(spec)``."""
    record = platform._kept(spec)
    if "front" not in record:
        record["front"] = _scan_front(spec, platform)
    return record["front"]


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
