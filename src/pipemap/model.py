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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
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
    the input gateway and ``delta[n]`` leaves to the output gateway.
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


def _stage_costs(w: list[float], d: int, e: int) -> list[float]:
    """Compute costs of the stage runs ``[d..d]``, ``[d..d+1]``, ..., ``[d..e]``.

    The package's one stage-cost fold: ``w`` is summed left to right from
    ``0.0``, not with ``sum`` (it compensates from Python 3.12 on), ``math.fsum``
    or ``np.sum``, and every scorer takes its stage costs from here, so they
    all agree bit for bit.
    """
    runs: list[float] = []
    acc = 0.0
    for k in range(d - 1, e):
        acc += w[k]
        runs.append(acc)
    return runs


def _interval_costs(
    spec: PipelineSpec, intervals: Sequence[tuple[int, int]]
) -> list[float]:
    """Compute cost of each interval, the last run of :func:`_stage_costs`."""
    w = spec.w.tolist()
    return [_stage_costs(w, d, e)[-1] for d, e in intervals]


def _chain_terms(
    spec: PipelineSpec, platform: Platform, mapping: IntervalMapping
) -> tuple[list[float], list[float]]:
    """The ``m + 1`` link times and the ``m`` compute times of a mapping's chain.

    ``links[j]`` is the transfer into interval ``j`` (``links[0]`` from the
    input gateway) and ``links[m]`` the transfer to the output gateway, so
    interval ``j`` receives for ``links[j]``, computes for ``comps[j]`` and
    sends for ``links[j + 1]``.
    """
    delta, s, b = spec.delta, platform.s.tolist(), platform.b
    nodes = (0, *mapping.assignees, platform.p + 1)
    volumes = [d - 1 for d, _ in mapping.intervals] + [spec.n]
    links = [float(delta[k] / b[u, v]) for k, u, v in zip(volumes, nodes, nodes[1:])]
    costs = _interval_costs(spec, mapping.intervals)
    return links, [cost / s[u - 1] for cost, u in zip(costs, mapping.assignees)]


def evaluate_metrics(
    spec: PipelineSpec, platform: Platform, mapping: IntervalMapping
) -> MappingMetrics:
    """Period and latency of a mapping in one pass."""
    require_valid(spec, platform, mapping)
    links, comps = _chain_terms(spec, platform, mapping)
    m = mapping.m
    cycles = tuple(links[j] + comps[j] + links[j + 1] for j in range(m))
    latency = 0.0
    for j in range(m):
        latency += links[j]
        latency += comps[j]
    latency += links[m]
    return MappingMetrics(
        period=max(cycles), latency=latency, per_processor_period=cycles
    )


def jpeg_preset(path: str | None = None) -> PipelineSpec:
    """The bundled seven-stage still-image encoder pipeline.

    Loads the packaged default numbers (synthetic figures chosen so that the
    FDCT stage strictly dominates the compute costs).  Pass ``path`` to read
    the same JSON schema from a user-supplied file instead.
    """
    from . import files

    if path is not None:
        return files.read_pipeline(path)
    from importlib.resources import files as resource_files

    resource = resource_files("pipemap").joinpath("presets/jpeg_default.json")
    return files.pipeline_from_json(resource.read_text(encoding="utf-8"))
