"""Spans recorded from outside the program, and the per-layer metrics built on them.

A traced pass rebinds the names each pipemap module looks up when it calls
into the next layer (``TARGETS``) to timing wrappers, and the workload code
opens its own spans around the public calls it makes.  Spans stay in memory
as ``Span`` tuples and are written out when the run ends.  Nothing in the
package itself is changed: outside a traced pass every name is bound to its
original object.
"""

from __future__ import annotations

import csv
import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int  # sid of the innermost enclosing span, -1 at the top
    op: int  # id of the workload operation (window) the span belongs to
    name: str
    label: str | None
    t0: float
    t1: float
    counts: dict | None


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _kernel_counts(args, kwargs, result):
    # Bytes the kernel must at least touch: its inputs plus both outputs.
    arrays = [_arg(args, kwargs, i, k) for i, k in enumerate(
        ("wsum", "bvol", "s", "b", "perms", "periods", "latencies"))]
    return {
        "rows": int(arrays[4].shape[0]),
        "bytes": int(sum(a.nbytes for a in arrays)),
    }


def _solve_counts(args, kwargs, result):
    return {"evaluated": int(result.evaluated)}


def _heuristic_label(args, kwargs):
    return str(_arg(args, kwargs, 0, "name"))


def outcome_counts(outcome) -> dict:
    """Accepted splits of a heuristic run, and h2's search trials."""
    search = getattr(outcome, "search", None)
    return {
        "splits": len(outcome.trace),
        "trials": len(search.trials) if search is not None else 0,
    }


def _ilp_counts(args, kwargs, instance):
    return {"variables": len(instance.variables), "rows": len(instance.rows)}


def _lp_counts(args, kwargs, text):
    return {"bytes": len(text.encode("utf-8"))}


class Target(NamedTuple):
    layer: str | None  # layer reported absent when the name is missing
    module: str
    attr: str  # "name" or "Class.name"
    span: str
    label_of: Callable | None = None
    count_of: Callable | None = None


# Each calling module binds its own name for the callee, so each binding is a
# separate target.  ``workbench.sweep`` only parents the solves of a sweep;
# self times stay right without it, so it names no layer.
TARGETS = (
    Target("kernels", "pipemap._kernels", "scan_perms", "kernels.scan_perms",
           count_of=_kernel_counts),
    Target("exact", "pipemap.exact", "solve", "exact.solve", count_of=_solve_counts),
    Target("exact", "pipemap.workbench", "solve", "exact.solve", count_of=_solve_counts),
    Target(None, "pipemap.workbench", "sweep", "exact.sweep"),
    Target("heuristics", "pipemap.workbench", "run_heuristic", "heuristics.run",
           label_of=_heuristic_label, count_of=lambda a, k, r: outcome_counts(r)),
    Target("model", "pipemap.exact", "evaluate_metrics", "model.evaluate_metrics"),
    Target("model", "pipemap.heuristics", "evaluate_metrics", "model.evaluate_metrics"),
    Target("model", "pipemap.simulator", "evaluate_metrics", "model.evaluate_metrics"),
    Target("ilp", "pipemap.ilp", "build_instance", "ilp.build_instance",
           count_of=_ilp_counts),
    Target("ilp", "pipemap.ilp", "IlpInstance.to_lp_text", "ilp.to_lp_text",
           count_of=_lp_counts),
)


def _resolve(target: Target):
    """(owner object, attribute name), or None if the name no longer exists."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes: records nothing."""

    op = -1

    @contextmanager
    def span(self, name, label=None):
        yield {}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._next = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing = [t for t in TARGETS if _resolve(t) is None]

    @property
    def absent_layers(self) -> set[str]:
        return {t.layer for t in self.missing if t.layer is not None}

    def _open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, label, t0, counts) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, parent, self.op, name, label, t0, t1, counts))

    @contextmanager
    def span(self, name: str, label: str | None = None):
        """Span around a call the workload makes itself; yields its counter dict."""
        sid, parent = self._open()
        counts: dict = {}
        t0 = perf_counter()
        try:
            yield counts
        finally:
            self._close(sid, parent, name, label, t0, counts or None)

    def _wrap(self, fn, target: Target):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            counts = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if target.count_of is not None:
                    counts = target.count_of(args, kwargs, result)
                return result
            finally:
                label = target.label_of(args, kwargs) if target.label_of else None
                tracer._close(sid, parent, target.span, label, t0, counts)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target that exists to a timing wrapper."""
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                continue
            owner, name = found
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, target))

    def uninstall(self) -> None:
        """Restore every rebound name, last bound first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sid", "parent", "op", "name", "label", "t0", "t1", "counts"])
            for sp in self.spans:
                counts = ";".join(f"{k}={v}" for k, v in sp.counts.items()) if sp.counts else ""
                writer.writerow([sp.sid, sp.parent, sp.op, sp.name, sp.label or "",
                                 repr(sp.t0), repr(sp.t1), counts])


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.t0, sp.t1))
    out = {}
    for sp in spans:
        covered = 0.0
        end = sp.t0
        for a, b in sorted(children.get(sp.sid, ())):
            a, b = max(a, end), min(b, sp.t1)
            if b > a:
                covered += b - a
                end = b
        out[sp.sid] = (sp.t1 - sp.t0) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, queries: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``queries`` is the number of exact queries the pass answered (thresholds
    or campaign rows); ``exact.kernel_rows_per_query`` divides by it.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for sp in spans:
        keys = [sp.name] + ([f"{sp.name}[{sp.label}]"] if sp.label else [])
        for key in keys:
            calls[key] += 1
            total[key] += sp.t1 - sp.t0
            own[key] += selfs[sp.sid]
            for k, v in (sp.counts or {}).items():
                counts[f"{key}.{k}"] += v

    rows = counts["kernels.scan_perms.rows"]
    lp_bytes = counts["ilp.to_lp_text.bytes"]
    out = {
        "kernels.scan_perms.calls": calls["kernels.scan_perms"],
        "kernels.scan_perms.s": total["kernels.scan_perms"],
        "kernels.rows": rows,
        "kernels.rows_per_s": _ratio(rows, total["kernels.scan_perms"]),
        "kernels.bytes_computed": counts["kernels.scan_perms.bytes"],
        "exact.solve.calls": calls["exact.solve"],
        "exact.solve.s": total["exact.solve"],
        "exact.solve.self_s": own["exact.solve"],
        "exact.evaluated": counts["exact.solve.evaluated"],
        "exact.kernel_rows_per_query": _ratio(rows, queries),
        "workbench.run_sweep_report.self_s": own["workbench.run_sweep_report"],
        "workbench.run_campaign.self_s": own["workbench.run_campaign"],
        "workbench.csv_write.s": total["workbench.csv_write"],
        "workbench.csv_read.s": total["workbench.csv_read"],
        "workbench.csv.bytes": counts["workbench.csv_write.bytes"],
        "heuristics.run.calls": calls["heuristics.run"],
        "heuristics.run.s": total["heuristics.run"],
        "heuristics.run.self_s": own["heuristics.run"],
        "heuristics.splits": counts["heuristics.run.splits"],
        "heuristics.h2.trials": counts["heuristics.run[h2].trials"],
        "model.evaluate_metrics.calls": calls["model.evaluate_metrics"],
        "model.evaluate_metrics.s": total["model.evaluate_metrics"],
        "model.evaluate_metrics.us_per_call": 1e6 * _ratio(
            total["model.evaluate_metrics"], calls["model.evaluate_metrics"]),
        "simulator.simulate.calls": calls["simulator.simulate"],
        "simulator.simulate.s": total["simulator.simulate"],
        "simulator.items": counts["simulator.simulate.items"],
        "simulator.items_per_s": _ratio(
            counts["simulator.simulate.items"], total["simulator.simulate"]),
        "ilp.build_instance.s": total["ilp.build_instance"],
        "ilp.to_lp_text.s": total["ilp.to_lp_text"],
        "ilp.variables": counts["ilp.build_instance.variables"],
        "ilp.rows": counts["ilp.build_instance.rows"],
        "ilp.lp_bytes": lp_bytes,
        "ilp.render_mb_per_s": _ratio(lp_bytes / 1e6, total["ilp.to_lp_text"]),
    }
    for h in ("h1", "h2", "h3", "h4", "h5", "h6"):
        out[f"heuristics.{h}.s"] = total[f"heuristics.run[{h}]"]
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over the traced passes of a run."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
