"""Core domain model: pipelines, platforms, interval mappings and their metrics.

A pipeline of ``n`` stages is mapped onto a heterogeneous platform by cutting
the stage sequence into consecutive intervals and giving each interval to a
distinct processor.  Items stream through the chain; for each item a processor
receives its interval's input, computes, and forwards the interval's output.
The three operations share the processor serially (single-port in and out), so
a processor ``u`` running stages ``[d..e]`` between neighbours ``pred`` and
``succ`` needs

    cycle(u) = delta[d-1] / b[pred][u] + sum(w[d..e]) / s[u] + delta[e] / b[u][succ]

time units per item.  The *period* of a mapping is the largest cycle time over
its processors, i.e. the steady-state interval between consecutive outputs.
The *latency* is the end-to-end time of one item: every receive and compute
along the chain, plus the final transfer out of the last processor.

The metric evaluator, the heuristics, the simulator and the LP exporter agree
bit for bit because this module owns their float terms: each instance's
Python-float views and stage-cost table, built once, a mapping's terms in
fold order (:func:`_chain_terms`) and its cycles (:func:`_cycles`).

Every engine answers one question, a :class:`BicriteriaQuery`: minimize one
criterion subject to a bound on the other.  The query, and the rule that
names the minimized criterion's value (:meth:`BicriteriaQuery.objective_of`),
live here too, so no engine imports another to name a query.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "BicriteriaQuery",
    "EPS_CMP",
    "InvalidMappingError",
    "IntervalMapping",
    "MappingMetrics",
    "PipelineSpec",
    "Platform",
    "evaluate_metrics",
    "jpeg_preset",
    "meets_threshold",
    "metrics_close",
    "padded_threshold",
    "require_valid",
    "validate",
]

# Single comparison tolerance used everywhere two computed metrics are compared
# or a metric is checked against a threshold.  Values here are sums of a
# handful of positive terms, so one relative epsilon is enough; thresholds are
# padded with EPS_CMP * max(1, |threshold|) so that tiny magnitudes still get
# an absolute slack.
EPS_CMP = 1e-9


class InvalidMappingError(ValueError):
    """An operation was handed a mapping that fails :func:`validate`."""


def padded_threshold(threshold: float) -> float:
    """Threshold plus the comparison slack ``EPS_CMP * max(1, |threshold|)``."""
    if math.isinf(threshold):
        return threshold
    return threshold + EPS_CMP * max(1.0, abs(threshold))


def meets_threshold(value: float, threshold: float) -> bool:
    """True if ``value <= threshold`` up to the global comparison slack."""
    return value <= padded_threshold(threshold)


def metrics_close(a: float, b: float) -> bool:
    """True if two metric values are equal up to the global tolerance."""
    return math.isclose(a, b, rel_tol=EPS_CMP, abs_tol=EPS_CMP)


def _readonly_f64(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=np.float64, copy=True)
    except TypeError as exc:  # e.g. a dict where a number belongs
        raise ValueError(f"{name} must hold numbers: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PipelineSpec:
    """A linear pipeline of ``n`` stages.

    Stage ``k`` (1-based) reads ``delta[k-1]`` data units, performs ``w[k-1]``
    operations and writes ``delta[k]`` data units.  ``delta[0]`` enters from
    the input gateway and ``delta[n]`` leaves to the output gateway.  The
    instance keeps its views built once (:attr:`_costs`, :attr:`_cost_array`,
    :attr:`_delta`) and the exact scan's partition tables (:attr:`_scan_tables`);
    ``==`` and ``hash`` ignore all of them.
    """

    stage_names: tuple[str, ...]
    w: np.ndarray
    delta: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(str(x) for x in self.stage_names)
        w = _readonly_f64(self.w, "w")
        delta = _readonly_f64(self.delta, "delta")
        if w.ndim != 1 or w.size < 1:
            raise ValueError("w must be a non-empty 1-d array of compute costs")
        if len(names) != w.size:
            raise ValueError(
                f"stage_names has {len(names)} entries but w has {w.size}"
            )
        if delta.shape != (w.size + 1,):
            raise ValueError(
                f"delta must have n+1 = {w.size + 1} entries, got {delta.size}"
            )
        if not np.all(w > 0):
            raise ValueError("all compute costs w must be positive")
        if not np.all(delta >= 0):
            raise ValueError("all data volumes delta must be nonnegative")
        object.__setattr__(self, "stage_names", names)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return int(self.w.size)

    @cached_property
    def _costs(self) -> tuple[tuple[float, ...], ...]:
        """``_costs[d][e]``: the compute cost of stages ``d..e`` (1-based), ``0.0`` for ``e < d``.

        The package's one stage-cost fold: ``w`` is summed left to right from
        ``0.0``, not with ``sum`` (it compensates from Python 3.12 on),
        ``math.fsum``, ``np.sum`` or prefix-sum differences, and every scorer
        indexes this table, so they all agree bit for bit.  Built once, on
        first use; it is not a dataclass field, so ``repr``, ``==`` and
        ``hash`` ignore it.
        """
        w, n = self.w.tolist(), self.n
        return ((0.0,) * (n + 1),) + tuple(
            (0.0,) * (d - 1) + tuple(itertools.accumulate(w[d - 1 :], initial=0.0))
            for d in range(1, n + 1)
        )

    @cached_property
    def _cost_array(self) -> np.ndarray:
        """:attr:`_costs` as a read-only ``(n + 1, n + 1)`` array, built once like it."""
        costs = np.array(self._costs)
        costs.setflags(write=False)
        return costs

    @cached_property
    def _delta(self) -> tuple[float, ...]:
        """``delta.tolist()`` as a tuple, built once like :attr:`_costs`."""
        return tuple(self.delta.tolist())

    @cached_property
    def _scan_tables(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """The exact scan's partition tables by ``m`` (:func:`pipemap.exact._pipeline_tables`)."""
        return {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PipelineSpec):
            return NotImplemented
        return (
            self.stage_names == other.stage_names
            and np.array_equal(self.w, other.w)
            and np.array_equal(self.delta, other.delta)
        )

    def __hash__(self) -> int:
        return hash((self.stage_names, self.w.tobytes(), self.delta.tobytes()))


@dataclass(frozen=True)
class Platform:
    """A set of ``p`` processors plus an input and an output gateway.

    ``s[u-1]`` is the speed of processor ``u`` (1-based).  ``b`` is the
    ``(p+2) x (p+2)`` link bandwidth matrix over the node order
    ``[in, 1..p, out]``: row/column 0 is the input gateway and row/column
    ``p+1`` the output gateway.  Diagonal entries are unused, as are links
    *towards* the input and *from* the output; they are stored but never read.
    Like the float views :attr:`_s` and :attr:`_b`, the processor views
    :attr:`_order` and :attr:`_lead` are built once, and the instance keeps
    one record for the last pipeline met on it (:meth:`_kept`); ``==`` and
    ``hash`` ignore all of them.
    """

    s: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        s = _readonly_f64(self.s, "s")
        b = _readonly_f64(self.b, "b")
        if s.ndim != 1 or s.size < 1:
            raise ValueError("s must be a non-empty 1-d array of speeds")
        if not np.all(s > 0):
            raise ValueError("all processor speeds must be positive")
        p = s.size
        if b.shape != (p + 2, p + 2):
            raise ValueError(
                f"b must be a ({p + 2}, {p + 2}) matrix over [in, 1..p, out], "
                f"got shape {b.shape}"
            )
        off_diag = b[~np.eye(p + 2, dtype=bool)]
        if not np.all(off_diag > 0):
            raise ValueError("all off-diagonal link bandwidths must be positive")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "b", b)

    @property
    def p(self) -> int:
        return int(self.s.size)

    @cached_property
    def _s(self) -> tuple[float, ...]:
        """``s.tolist()`` as a tuple, built once like ``PipelineSpec._delta``."""
        return tuple(self.s.tolist())

    @cached_property
    def _b(self) -> tuple[tuple[float, ...], ...]:
        """``b.tolist()`` as a tuple of row tuples, built once like :attr:`_s`."""
        return tuple(map(tuple, self.b.tolist()))

    @cached_property
    def _order(self) -> tuple[int, ...]:
        """Processors by non-increasing speed, index-ascending on ties, built once."""
        s = self._s
        return tuple(sorted(range(1, self.p + 1), key=lambda u: (-s[u - 1], u)))

    @cached_property
    def _lead(self) -> np.ndarray:
        """The processor classes: ``_lead[v]`` is the previous member of ``v``'s class, or 0.

        Processors ``u < v`` are interchangeable when ``s[u] == s[v]``,
        ``b[x][u] == b[x][v]`` for every other sender ``x``, ``b[u][x] ==
        b[v][x]`` for every other receiver ``x`` and ``b[u][v] == b[v][u]``:
        swapping them changes no link the model reads, so every mapping and
        its swap have the same terms, bit for bit.  A read-only ``(p + 1,)``
        array, all zeros when no two processors are alike, built once like
        :attr:`_s`.
        """
        p, s, b = self.p, self._s, self.b
        lead = np.zeros(p + 1, dtype=np.intp)
        unread = np.eye(p + 2, dtype=bool)
        for v in range(2, p + 1):
            for u in range(v - 1, 0, -1):
                # speeds first: one compare rules out most pairs
                if s[u - 1] != s[v - 1]:
                    continue
                swap = np.arange(p + 2)
                swap[[u, v]] = v, u
                # rows 0..p send and columns 1..p+1 receive
                if ((b[np.ix_(swap, swap)] == b) | unread)[:-1, 1:].all():
                    lead[v] = u
                    break
        lead.setflags(write=False)
        return lead

    def _kept(self, spec: PipelineSpec) -> dict:
        """The one dict the platform keeps for its last pipeline: the exact front, the split tables.

        ``spec`` gets that dict if it is that pipeline or an equal one, else an
        empty one that replaces it.
        """
        held = self.__dict__.get("_held")
        if held is None or not (held[0] is spec or held[0] == spec):
            held = self.__dict__["_held"] = (spec, {})
        return held[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Platform):
            return NotImplemented
        return np.array_equal(self.s, other.s) and np.array_equal(self.b, other.b)

    def __hash__(self) -> int:
        return hash((self.s.tobytes(), self.b.tobytes()))


@dataclass(frozen=True)
class IntervalMapping:
    """Consecutive stage intervals, each assigned to a distinct processor.

    ``intervals[j] = (d_j, e_j)`` gives the 1-based first and last stage of
    interval ``j``; ``assignees[j]`` is the 1-based processor running it.
    Structural soundness against a concrete pipeline/platform is checked by
    :func:`validate`, not by the constructor.
    """

    intervals: tuple[tuple[int, int], ...]
    assignees: tuple[int, ...]

    def __post_init__(self) -> None:
        ivs = tuple((int(d), int(e)) for d, e in self.intervals)
        procs = tuple(int(u) for u in self.assignees)
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "assignees", procs)

    @property
    def m(self) -> int:
        """Number of intervals."""
        return len(self.intervals)

    @classmethod
    def single_interval(cls, n: int, u: int) -> "IntervalMapping":
        """The whole chain ``[1..n]`` on one processor ``u``."""
        return cls(intervals=((1, n),), assignees=(u,))

    def signature(self) -> str:
        """Compact text form, e.g. ``'1-2@p1;3-3@p2'``."""
        return ";".join(
            f"{d}-{e}@p{u}" for (d, e), u in zip(self.intervals, self.assignees)
        )

    @classmethod
    def from_signature(cls, text: str) -> "IntervalMapping":
        """Parse the format produced by :meth:`signature`.

        Processor tokens accept both ``p3`` and a bare ``3``.
        """
        intervals: list[tuple[int, int]] = []
        assignees: list[int] = []
        for chunk in text.strip().split(";"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"empty interval chunk in mapping {text!r}")
            try:
                span, proc = chunk.split("@")
                d_text, e_text = span.split("-")
                proc = proc.strip().lower()
                u = int(proc[1:]) if proc.startswith("p") else int(proc)
                intervals.append((int(d_text), int(e_text)))
                assignees.append(u)
            except (ValueError, IndexError) as exc:
                raise ValueError(f"cannot parse mapping chunk {chunk!r}") from exc
        return cls(intervals=tuple(intervals), assignees=tuple(assignees))


@dataclass(frozen=True)
class MappingMetrics:
    """Evaluated period and latency of one mapping.

    ``per_processor_period`` holds the cycle time of each used processor in
    interval order; ``period`` is their maximum, and ``latency >= period``
    always holds (the bottleneck cycle is one summand of the latency).
    """

    period: float
    latency: float
    per_processor_period: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "latency": self.latency,
            "per_processor_period": list(self.per_processor_period),
        }


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

    def objective_of(self, metrics: MappingMetrics) -> float:
        """The minimized criterion's value in ``metrics``."""
        return metrics.latency if self.objective == "latency" else metrics.period


def validate(
    spec: PipelineSpec, platform: Platform, mapping: IntervalMapping
) -> str | None:
    """Check a mapping against a pipeline and platform.

    Returns ``None`` when the mapping is structurally sound, otherwise a
    message naming the first violated rule: intervals must cover ``[1..n]``
    consecutively without gaps, assignees must be distinct processors in
    ``[1..p]``, and there can be at most ``p`` intervals.
    """
    n, p = spec.n, platform.p
    m = mapping.m
    if m == 0:
        return "mapping has no intervals"
    if len(mapping.assignees) != m:
        return (
            f"{m} intervals but {len(mapping.assignees)} assignees"
        )
    if m > p:
        return f"{m} intervals exceed the {p} available processors"
    d1 = mapping.intervals[0][0]
    if d1 != 1:
        return f"first interval starts at stage {d1}, expected 1"
    for j, (d, e) in enumerate(mapping.intervals, start=1):
        if d > e:
            return f"interval {j} is empty: d_{j} = {d} > e_{j} = {e}"
        if d < 1 or e > n:
            return f"interval {j} = [{d}..{e}] leaves the stage range [1..{n}]"
        if j >= 2:
            prev_e = mapping.intervals[j - 2][1]
            if d != prev_e + 1:
                return f"gap: d_{j} != e_{j - 1} + 1"
    last_e = mapping.intervals[-1][1]
    if last_e != n:
        return f"last interval ends at stage {last_e}, expected {n}"
    seen: set[int] = set()
    for u in mapping.assignees:
        if u < 1 or u > p:
            return f"processor P{u} outside the platform range [1..{p}]"
        if u in seen:
            return f"processor P{u} assigned twice"
        seen.add(u)
    return None


def require_valid(
    spec: PipelineSpec, platform: Platform, mapping: IntervalMapping
) -> None:
    """Raise :class:`InvalidMappingError` if the mapping fails :func:`validate`."""
    message = validate(spec, platform, mapping)
    if message is not None:
        raise InvalidMappingError(message)


def _chain_terms(
    spec: PipelineSpec, platform: Platform, mapping: IntervalMapping
) -> list[float]:
    """The ``2m + 1`` terms ``t_in_0, comp_0, t_in_1, ..., comp_{m-1}, t_out`` in fold order.

    Interval ``j`` receives for ``terms[2j]``, computes for ``terms[2j + 1]``
    and sends ``delta[e_j] / b[u_j][next]`` for ``terms[2j + 2]``.  Each term
    is one division of the instance's float views or :attr:`PipelineSpec._costs`.
    """
    delta, s, b, costs = spec._delta, platform._s, platform._b, spec._costs
    nodes = (*mapping.assignees, platform.p + 1)
    terms = [delta[0] / b[0][nodes[0]]]
    for (d, e), u, v in zip(mapping.intervals, nodes, nodes[1:]):
        terms += (costs[d][e] / s[u - 1], delta[e] / b[u][v])
    return terms


def _fold_numerators(spec: PipelineSpec, bounds: np.ndarray) -> np.ndarray:
    """The numerators of :func:`_chain_terms` for interval chains given as boundary rows.

    Column ``i`` of the ``(m + 1, k)`` integer array ``bounds`` is a chain of
    ``m`` intervals: interval ``j`` covers stages ``bounds[j, i] + 1`` to
    ``bounds[j + 1, i]``.  Column ``i`` of the ``(2m + 1, k)`` result holds
    its terms' numerators in fold order: ``delta`` at each boundary in the
    even rows and each interval's cost, from :attr:`PipelineSpec._cost_array`,
    in the odd rows.
    """
    numerators = np.empty((2 * len(bounds) - 1, bounds.shape[1]))
    numerators[::2] = spec.delta[bounds]
    numerators[1::2] = spec._cost_array[bounds[:-1] + 1, bounds[1:]]
    return numerators


def _cycles(terms: list[float]) -> tuple[float, ...]:
    """Each interval's cycle ``(t_in + comp) + t_out``, from :func:`_chain_terms`' list."""
    return tuple(terms[j] + terms[j + 1] + terms[j + 2] for j in range(0, len(terms) - 1, 2))


def _bottleneck(cycles: tuple[float, ...]) -> int:
    """The bottleneck's index: the first interval with the largest cycle."""
    return cycles.index(max(cycles))


def evaluate_metrics(
    spec: PipelineSpec, platform: Platform, mapping: IntervalMapping
) -> MappingMetrics:
    """Period and latency of a mapping in one pass."""
    require_valid(spec, platform, mapping)
    terms = _chain_terms(spec, platform, mapping)
    cycles = _cycles(terms)
    latency = 0.0
    for term in terms:
        latency += term
    return MappingMetrics(
        period=max(cycles), latency=latency, per_processor_period=cycles
    )


def jpeg_preset() -> PipelineSpec:
    """The bundled seven-stage still-image encoder pipeline.

    Loads the packaged default numbers (synthetic figures chosen so that the
    FDCT stage strictly dominates the compute costs).  Read other pipeline
    files with :func:`pipemap.files.read_pipeline`.
    """
    from . import files

    from importlib.resources import files as resource_files

    resource = resource_files("pipemap").joinpath("presets/jpeg_default.json")
    return files.pipeline_from_json(resource.read_text(encoding="utf-8"))
