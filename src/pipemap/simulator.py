"""Discrete-event simulation of a mapped pipeline with rendezvous transfers.

Every transfer is synchronous and unbuffered: it occupies the sending and the
receiving processor for the same time window (``volume / bandwidth``), and a
processor performs at most one operation -- receive, compute or send -- at a
time.  Each processor handles items in order: receive item ``i``, compute it,
send it on, then receive item ``i+1``.  The input gateway is eager (item
``i``'s input is available as soon as the gateway finished sending item
``i-1``) and the output gateway is always ready to receive.

Under these rules the start of item ``i``'s receive at interval ``j`` is
``max(compute end at j-1, send end of item i-1 at j)``.  The chain is a
max-plus linear system, so after a short transient it turns periodic around
its bottleneck, the interval with the largest cycle.  The simulator steps the
first ``2m + 2`` items through a loop on Python floats, then computes blocks
of items with numpy in that periodic pattern, checking every ``max`` the loop
would have taken.  Where a check fails the loop resumes, for a chunk that
doubles on each failure, before the next block is tried; a pattern that never
settles thus finishes in the loop.  Each output time is the loop's, bit for
bit.  The measured steady-state output gap matches the analytic period
(largest cycle time) and the first item's completion time matches the
analytic latency; the bottleneck and that period come from one cycle fold,
:func:`pipemap.model._cycles`.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    IntervalMapping,
    MappingMetrics,
    PipelineSpec,
    Platform,
    _bottleneck,
    _chain_terms,
    _cycles,
    evaluate_metrics,
    require_valid,
)

__all__ = [
    "AnalyticComparison",
    "SimEvent",
    "SimulationReport",
    "compare_with_analytic",
    "simulate",
    "write_event_log",
]

# Items per block of the periodic extension: a block holds a few float64
# arrays of this length whatever the run's length.
_BLOCK_ITEMS = 2048


class SimEvent(NamedTuple):
    """One operation window: grouped by item, chronological within an item."""

    time_start: float
    time_end: float
    processor: str
    item: int
    phase: str  # "recv", "compute" or "send"


@dataclass(frozen=True)
class SimulationReport:
    """Measured timings of one simulation run.

    ``item_output_times[i]`` is the instant item ``i`` left the last processor
    towards the output gateway; the sequence is strictly increasing.
    ``measured_period`` is the mean output gap after the warmup items and
    ``measured_first_latency`` is item 0's completion time.
    """

    mapping: IntervalMapping
    items: int
    warmup: int
    item_output_times: np.ndarray
    measured_period: float
    measured_first_latency: float
    events: tuple[SimEvent, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "mapping": self.mapping.signature(),
            "items": self.items,
            "warmup": self.warmup,
            "measured_period": self.measured_period,
            "measured_first_latency": self.measured_first_latency,
        }


@dataclass(frozen=True)
class AnalyticComparison:
    """Relative deviations of the measured metrics from the analytic ones."""

    analytic: MappingMetrics
    measured_period: float
    measured_first_latency: float
    period_rel_dev: float
    latency_rel_dev: float


def simulate(
    spec: PipelineSpec,
    platform: Platform,
    mapping: IntervalMapping,
    items: int,
    warmup: int,
    *,
    record_events: bool = False,
) -> SimulationReport:
    """Simulate ``items`` items through the mapped chain.

    ``warmup`` items are excluded from the period measurement; ``items`` must
    exceed ``warmup`` and ``warmup`` must be at least 1, so at least one
    steady-state gap is measured.  Both are integer counts: a float, a string
    or a bool raises :class:`TypeError`.

    The loop, :func:`_step`, runs the first ``2m + 2`` items on ``model``'s
    chain terms; :func:`_extend` takes the periodic regime in checked blocks,
    handing back to the loop, for a chunk that doubles each time, wherever a
    check fails.  ``record_events`` runs every item through the loop, which
    records the events, so the output times are the same bits either way.
    """
    require_valid(spec, platform, mapping)
    items = _count("items", items)
    warmup = _count("warmup", warmup)
    if warmup < 1:
        raise ValueError(f"warmup must be >= 1, got {warmup}")
    if items <= warmup:
        raise ValueError(f"items must exceed warmup, got items={items} warmup={warmup}")

    terms = _chain_terms(spec, platform, mapping)
    m = mapping.m
    # port_free[j]: when interval j's processor finished sending its latest
    # item.  Interval 0 receives from the input gateway, which is always
    # ready, so its "sender" slot is the spare port_free[m], never read.
    port_free = [0.0] * (m + 1)
    times = np.empty(items)
    if record_events:
        events = []
        _step(terms, port_free, times, 0, items, events, [f"p{u}" for u in mapping.assignees])
    else:
        events = None
        done = chunk = min(items, 2 * m + 2)
        _step(terms, port_free, times, 0, done)
        while done < items:
            done = _extend(terms, port_free, times, done)
            if done < items:
                chunk *= 2
                stop = min(items, done + chunk)
                _step(terms, port_free, times, done, stop)
                done = stop

    measured_period = float((times[items - 1] - times[warmup - 1]) / (items - warmup))
    return SimulationReport(
        mapping=mapping,
        items=items,
        warmup=warmup,
        item_output_times=times,
        measured_period=measured_period,
        measured_first_latency=float(times[0]),
        events=None if events is None else tuple(events),
    )


def _count(name: str, value) -> int:
    """``value`` as an int, or :class:`TypeError` naming ``name`` if it is no integer."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {type(value).__name__}")


def _step(
    terms: list[float],
    port_free: list[float],
    times: np.ndarray,
    i0: int,
    i1: int,
    events: list[SimEvent] | None = None,
    labels: list[str] | None = None,
) -> None:
    """Step items ``i0..i1 - 1`` through the chain from the ``port_free`` state.

    Writes each output time into ``times`` and leaves ``port_free`` as the
    last item left it.  With an ``events`` list, also records the events.
    """
    m = len(port_free) - 1
    chain = list(zip(range(m), terms[0::2], terms[1::2]))
    out_link = terms[-1]
    record = events is not None
    for i in range(i0, i1):
        avail = 0.0
        for j, link, comp in chain:
            # The same choice as max(avail, free), without the call.
            free = port_free[j]
            start = free if free > avail else avail
            recv_end = start + link
            comp_end = recv_end + comp
            # The sender's port stays busy for the whole rendezvous window.
            port_free[j - 1] = recv_end
            if record:
                if j > 0:
                    events.append(SimEvent(start, recv_end, labels[j - 1], i, "send"))
                events.append(SimEvent(start, recv_end, labels[j], i, "recv"))
                events.append(SimEvent(recv_end, comp_end, labels[j], i, "compute"))
            avail = comp_end
        out = avail + out_link
        port_free[m - 1] = out
        if record:
            events.append(SimEvent(avail, out, labels[m - 1], i, "send"))
        times[i] = out


def _extend(
    terms: list[float], port_free: list[float], times: np.ndarray, start: int
) -> int:
    """Extend the run from item ``start`` in blocks of the periodic pattern.

    The pattern runs around the bottleneck ``b``, the first interval with the
    largest cycle ``(t_in + comp) + t_out`` (:func:`pipemap.model._cycles`,
    :func:`pipemap.model._bottleneck`):

    * ``b`` is blocked by its own last send, so its receive starts and ends
      are one left fold, ``np.add.accumulate`` over its start and then
      ``t_in_b, comp_b, t_out_b`` per item, which rounds as the loop does;
    * every later interval is starved: it receives an item as soon as the
      interval before it has computed it;
    * every earlier interval is blocked: it receives an item as soon as its
      own send of the item before has ended.

    Each block then checks, for every item and every interval ``j >= 1``,
    that the loop's ``max`` of the two starts picks the one the pattern
    assumes (either, on a tie); interval 0's input gateway is always ready,
    so it always waits for its own port.  The items before the first failed
    check are the loop's, bit for bit: their output times go into ``times``
    and the last one's state into ``port_free``.  Returns the index of the
    first item not taken.
    """
    m = len(port_free) - 1
    items = len(times)
    links = np.array(terms[0::2])  # t_in_0, ..., t_in_{m-1}, t_out
    comps = np.array(terms[1::2])
    b = _bottleneck(_cycles(terms))
    # Row j of recv_block: interval j's receive end of the item before the
    # block, then of each item of the block (row m: the output times).
    recv_block = np.empty((m + 1, _BLOCK_ITEMS + 1))
    comp_block = np.empty((m, _BLOCK_ITEMS))
    # b's fold runs over steps[2:], whose first slot takes each block's start.
    steps = np.tile(np.array(terms[2 * b : 2 * b + 3]), _BLOCK_ITEMS + 1)
    fold = np.empty(3 * _BLOCK_ITEMS + 1)
    while start < items:
        k = min(_BLOCK_ITEMS, items - start)
        recv, comp = recv_block[:, : k + 1], comp_block[:, :k]
        recv[1:, 0] = port_free[:m]
        steps[2] = port_free[b]
        b_fold = np.add.accumulate(steps[2 : 3 * k + 3], out=fold[: 3 * k + 1])
        recv[b, 1:] = b_fold[1::3]
        comp[b] = b_fold[2::3]
        for j in range(b + 1, m):
            np.add(comp[j - 1], links[j], out=recv[j, 1:])
            np.add(recv[j, 1:], comps[j], out=comp[j])
        np.add(comp[m - 1], links[m], out=recv[m, 1:])
        for j in range(b - 1, -1, -1):
            np.add(recv[j + 1, :-1], links[j], out=recv[j, 1:])
        np.add(recv[:b, 1:], comps[:b, None], out=comp[:b])
        # Interval j >= 1 may start an item when interval j - 1 has computed
        # it (avail) or when its own send of the item before ends (free); b's
        # fold takes the latter to be its own compute end plus t_out_b, which
        # the check on interval b + 1 confirms.
        free, avail = recv[2:, :-1], comp[:-1]
        failed = (avail[:b] > free[:b]).any(axis=0) | (free[b:] > avail[b:]).any(axis=0)
        taken = int(failed.argmax()) if failed.any() else k
        times[start : start + taken] = recv[m, 1 : taken + 1]
        port_free[:m] = recv[1:, taken].tolist()
        start += taken
        if taken < k:
            break
    return start


def compare_with_analytic(
    spec: PipelineSpec, platform: Platform, report: SimulationReport
) -> AnalyticComparison:
    """Relative deviation of measured period/latency from the formulas."""
    analytic = evaluate_metrics(spec, platform, report.mapping)
    period_rel = abs(report.measured_period - analytic.period) / analytic.period
    latency_rel = abs(report.measured_first_latency - analytic.latency) / analytic.latency
    return AnalyticComparison(
        analytic=analytic,
        measured_period=report.measured_period,
        measured_first_latency=report.measured_first_latency,
        period_rel_dev=period_rel,
        latency_rel_dev=latency_rel,
    )


def write_event_log(report: SimulationReport, path: str) -> None:
    """Write the recorded operation windows as CSV."""
    if report.events is None:
        raise ValueError("simulation was run without record_events=True")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SimEvent._fields)
        for ev in report.events:
            writer.writerow([repr(ev.time_start), repr(ev.time_end), ev.processor, ev.item, ev.phase])
