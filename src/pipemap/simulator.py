"""Discrete-event simulation of a mapped pipeline with rendezvous transfers.

Every transfer is synchronous and unbuffered: it occupies the sending and the
receiving processor for the same time window (``volume / bandwidth``), and a
processor performs at most one operation -- receive, compute or send -- at a
time.  Each processor handles items in order: receive item ``i``, compute it,
send it on, then receive item ``i+1``.  The input gateway is eager (item
``i``'s input is available as soon as the gateway finished sending item
``i-1``) and the output gateway is always ready to receive.

Under these rules the start of item ``i``'s receive at interval ``j`` is
``max(compute end at j-1, send end of item i-1 at j)``, which the simulator
iterates directly.  The measured steady-state output gap matches the analytic
period (largest cycle time) and the first item's completion time matches the
analytic latency.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    IntervalMapping,
    MappingMetrics,
    PipelineSpec,
    Platform,
    _chain_terms,
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
    steady-state gap is measured.

    One loop steps each item through the ``m`` intervals on Python floats
    (the link and compute times of ``model``'s chain terms) and collects the
    output times, which become one float64 array at the end.
    ``record_events`` only adds the event records inside that loop, so the
    output times are the same bits with or without it.
    """
    require_valid(spec, platform, mapping)
    items = int(items)
    warmup = int(warmup)
    if warmup < 1:
        raise ValueError(f"warmup must be >= 1, got {warmup}")
    if items <= warmup:
        raise ValueError(f"items must exceed warmup, got items={items} warmup={warmup}")

    terms = _chain_terms(spec, platform, mapping)
    m = mapping.m
    labels = [f"p{u}" for u in mapping.assignees]

    # port_free[j]: when interval j's processor finished sending its latest
    # item.  Interval 0 receives from the input gateway, which is always
    # ready, so its "sender" slot is the spare port_free[m], never read.
    port_free = [0.0] * (m + 1)
    chain = list(zip(range(m), terms[0::2], terms[1::2]))
    out_link = terms[-1]
    outputs = []
    events: list[SimEvent] = []

    for i in range(items):
        avail = 0.0
        for j, link, comp in chain:
            # The same choice as max(avail, free), without the call.
            free = port_free[j]
            start = free if free > avail else avail
            recv_end = start + link
            comp_end = recv_end + comp
            # The sender's port stays busy for the whole rendezvous window.
            port_free[j - 1] = recv_end
            if record_events:
                if j > 0:
                    events.append(SimEvent(start, recv_end, labels[j - 1], i, "send"))
                events.append(SimEvent(start, recv_end, labels[j], i, "recv"))
                events.append(SimEvent(recv_end, comp_end, labels[j], i, "compute"))
            avail = comp_end
        out = avail + out_link
        port_free[m - 1] = out
        if record_events:
            events.append(SimEvent(avail, out, labels[m - 1], i, "send"))
        outputs.append(out)

    times = np.array(outputs, dtype=np.float64)
    measured_period = float((times[items - 1] - times[warmup - 1]) / (items - warmup))
    return SimulationReport(
        mapping=mapping,
        items=items,
        warmup=warmup,
        item_output_times=times,
        measured_period=measured_period,
        measured_first_latency=outputs[0],
        events=tuple(events) if record_events else None,
    )


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
