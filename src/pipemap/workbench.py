"""Experiment workbench: platform generation, campaigns and sweep reports.

A *campaign* runs the exhaustive solver and a set of heuristics over a list
of platforms for one query and tabulates the outcomes; a *sweep report*
answers each threshold with one :func:`pipemap.exact.solve`, exposing the
thresholds where the optimum changes.  A platform's record keeps the front
(:meth:`pipemap.model.Platform._kept`): its first query with a pipeline
scans, and later solves, sweep thresholds and campaign rows on it are
lookups, whose ``exact_seconds`` is a lookup's.  Each table checks its own
rules when built, by a runner or a CSV reader: a row's feasible flag agrees
with its values, an error row holds no result, a sweep is a non-increasing
step curve on a non-empty ascending grid of positive thresholds, and no
feasible heuristic cell beats the exact answer or lacks one.  Both tables
round-trip through CSV: a ``# sweep objective=...`` or
``# campaign objective=... threshold=... heuristics=...`` line, a header of
the row dataclass's field names (``<heuristic>_<HeuristicCell field>`` for
each campaign heuristic) and one record per row.  Cells are ``""`` for
``None``, ``true``/``false``, ``repr`` of floats and plain text otherwise; a
malformed file, a cell that does not parse, a broken rule or a heuristic
list that :func:`run_campaign` would reject raises a ``ValueError`` that
starts with the file's path.

A campaign entry whose ``platform`` cannot be read (a ``ValueError``) becomes
that row's ``error`` cell; anything else raised, by a solve, a heuristic or a
broken rule (:class:`WorkbenchError`), aborts.
"""

from __future__ import annotations

import csv
import time
from dataclasses import Field, dataclass, field, fields
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import files
from .exact import solve
from .heuristics import fixed_criterion_of, run_heuristic
from .model import (
    OBJECTIVES,
    BicriteriaQuery,
    PipelineSpec,
    Platform,
    meets_threshold,
    metrics_close,
)

__all__ = [
    "CampaignPlatform",
    "CampaignResult",
    "CampaignRow",
    "HeuristicCell",
    "HeuristicSummary",
    "PlatformGenSpec",
    "SweepReport",
    "SweepRow",
    "WorkbenchError",
    "generate_platform",
    "generator_provenance",
    "read_campaign_csv",
    "read_sweep_csv",
    "run_campaign",
    "run_sweep_report",
    "seeded_platforms",
    "write_campaign_csv",
    "write_generated_platform",
    "write_sweep_csv",
]


class WorkbenchError(RuntimeError):
    """An internal consistency check of the workbench failed."""


DEFAULT_RANGE = (50.0, 200.0)


@dataclass(frozen=True)
class PlatformGenSpec:
    """Deterministic random-platform recipe.

    Speeds and link bandwidths (gateway links included) are drawn uniformly
    from the given ranges; the same seed always yields the same platform.
    """

    seed: int
    p: int
    speed_range: tuple[float, float] = DEFAULT_RANGE
    bandwidth_range: tuple[float, float] = DEFAULT_RANGE

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("p must be >= 1")
        for name, (lo, hi) in (
            ("speed_range", self.speed_range),
            ("bandwidth_range", self.bandwidth_range),
        ):
            if not (0 < lo <= hi):
                raise ValueError(f"{name} must satisfy 0 < low <= high, got ({lo}, {hi})")


def generate_platform(gen: PlatformGenSpec) -> Platform:
    """Draw the platform described by ``gen`` (deterministic per seed)."""
    rng = np.random.default_rng(gen.seed)
    lo, hi = gen.speed_range
    s = rng.uniform(lo, hi, gen.p)
    blo, bhi = gen.bandwidth_range
    b = rng.uniform(blo, bhi, (gen.p + 2, gen.p + 2))
    np.fill_diagonal(b, 0.0)
    return Platform(s=s, b=b)


def generator_provenance(gen: PlatformGenSpec) -> dict:
    """The provenance block embedded in generated platform files."""
    return {
        "kind": "uniform",
        "seed": gen.seed,
        "p": gen.p,
        "speed_range": list(gen.speed_range),
        "bandwidth_range": list(gen.bandwidth_range),
    }


def write_generated_platform(gen: PlatformGenSpec, path: str) -> Platform:
    """Generate a platform and write it with its provenance embedded."""
    platform = generate_platform(gen)
    files.write_platform(platform, path, generator=generator_provenance(gen))
    return platform


@dataclass(frozen=True)
class CampaignPlatform:
    label: str
    platform: Platform
    seed: int | None = None


def seeded_platforms(
    seeds: Iterable[int],
    p: int,
    speed_range: tuple[float, float] = DEFAULT_RANGE,
    bandwidth_range: tuple[float, float] = DEFAULT_RANGE,
) -> list[CampaignPlatform]:
    """One generated platform per seed, labelled ``seed<k>``."""
    out = []
    for seed in seeds:
        gen = PlatformGenSpec(
            seed=seed, p=p, speed_range=speed_range, bandwidth_range=bandwidth_range
        )
        out.append(
            CampaignPlatform(label=f"seed{seed}", platform=generate_platform(gen), seed=seed)
        )
    return out


def _check_values(row: object, feasible: bool | None, *values: object) -> None:
    """Raise :class:`WorkbenchError` unless a feasible row has every value and any other none."""
    if values.count(None) != (0 if feasible else len(values)):
        raise WorkbenchError(f"the feasible flag disagrees with the values in {row}")


@dataclass(frozen=True)
class HeuristicCell:
    feasible: bool
    objective: float
    period: float
    latency: float
    seconds: float


@dataclass(frozen=True)
class CampaignRow:
    """One platform's outcomes; the fields after ``seed`` default to "no result".

    Raises :class:`WorkbenchError` if a feasible cell beats the exact answer
    or has none, ``exact_feasible`` disagrees with the exact values, or an
    ``error`` row holds any result.
    """

    label: str
    seed: int | None
    error: str | None = None
    exact_feasible: bool | None = None
    exact_objective: float | None = None
    exact_period: float | None = None
    exact_latency: float | None = None
    exact_seconds: float | None = None
    cells: dict[str, HeuristicCell] = field(default_factory=dict)

    def __post_init__(self) -> None:
        exact = (self.exact_objective, self.exact_period, self.exact_latency)
        _check_values(self, self.exact_feasible, *exact)
        if self.error is not None and (
            self.exact_feasible is not None or self.exact_seconds is not None or self.cells
        ):
            raise WorkbenchError(f"the error row {self.label} holds results")
        for name, cell in self.cells.items():
            if cell.feasible and not (
                self.exact_feasible and meets_threshold(self.exact_objective, cell.objective)
            ):
                raise WorkbenchError(
                    f"{name} reported {cell.objective!r} on {self.label}, "
                    f"better than the exhaustive optimum {self.exact_objective!r}"
                )


@dataclass(frozen=True)
class HeuristicSummary:
    """One heuristic over a campaign: ``compared`` rows where both the exhaustive
    solver and the heuristic found feasible mappings, of which ``matches`` hit
    the optimum, and ``failed`` rows where only the exhaustive solver did."""

    compared: int
    matches: int
    match_rate: float
    mean_rel_excess: float | None
    failed: int


@dataclass(frozen=True)
class CampaignResult:
    query: BicriteriaQuery
    heuristics: tuple[str, ...]
    rows: tuple[CampaignRow, ...]

    def summary(self) -> dict[str, HeuristicSummary]:
        """Per-heuristic optimum match rate, mean relative excess and failures.

        Recomputed from the rows on every call; :class:`HeuristicSummary`
        says which rows each count takes.
        """
        out: dict[str, HeuristicSummary] = {}
        for name in self.heuristics:
            matches = failed = 0
            excesses: list[float] = []
            for row in self.rows:
                cell = row.cells.get(name)
                if cell is None:
                    continue
                if not cell.feasible:  # else the exact answer is feasible too
                    if row.exact_feasible:
                        failed += 1
                    continue
                if metrics_close(cell.objective, row.exact_objective):
                    matches += 1
                    excesses.append(0.0)
                else:
                    excesses.append((cell.objective - row.exact_objective) / row.exact_objective)
            compared = len(excesses)
            out[name] = HeuristicSummary(
                compared=compared,
                matches=matches,
                match_rate=matches / compared if compared else 0.0,
                mean_rel_excess=sum(excesses) / compared if compared else None,
                failed=failed,
            )
        return out


def _campaign_row(
    spec: PipelineSpec,
    entry: CampaignPlatform,
    query: BicriteriaQuery,
    heuristic_names: Sequence[str],
) -> CampaignRow:
    try:
        platform = entry.platform
    except ValueError as exc:  # an unreadable entry becomes data, the campaign goes on
        return CampaignRow(entry.label, entry.seed, error=f"{type(exc).__name__}: {exc}")
    t0 = time.perf_counter()
    exact = solve(spec, platform, query)
    exact_seconds = time.perf_counter() - t0
    cells: dict[str, HeuristicCell] = {}
    for name in heuristic_names:
        t0 = time.perf_counter()
        outcome = run_heuristic(name, spec, platform, query.threshold)
        seconds = time.perf_counter() - t0
        cells[name] = HeuristicCell(
            feasible=outcome.feasible,
            objective=outcome.objective_value,
            period=outcome.metrics.period,
            latency=outcome.metrics.latency,
            seconds=seconds,
        )
    return CampaignRow(
        label=entry.label,
        seed=entry.seed,
        exact_feasible=exact.feasible,
        exact_objective=exact.objective_value,
        exact_period=exact.metrics.period if exact.metrics else None,
        exact_latency=exact.metrics.latency if exact.metrics else None,
        exact_seconds=exact_seconds,
        cells=cells,
    )


def _check_heuristics(names: Sequence[str], query: BicriteriaQuery) -> tuple[str, ...]:
    """``names`` as a tuple; ``ValueError`` unless each is known, listed once
    and bounds the criterion ``query`` fixes."""
    names = tuple(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"heuristic {name} is listed more than once")
        if fixed_criterion_of(name) != query.fixed_criterion:
            raise ValueError(
                f"heuristic {name} bounds the {fixed_criterion_of(name)} but the "
                f"query fixes the {query.fixed_criterion}"
            )
    return names


def run_campaign(
    spec: PipelineSpec,
    platforms: Sequence[CampaignPlatform],
    query: BicriteriaQuery,
    heuristic_names: Sequence[str],
) -> CampaignResult:
    """Exhaustive solver plus heuristics over every platform, one row each.

    Every requested heuristic must appear once and bound the same criterion
    as the query (``h1``..``h4`` for a fixed period, ``h5``/``h6`` for a
    fixed latency); otherwise a ``ValueError`` names it.  Rows keep the
    input platform order; a ``ValueError`` raised by reading an entry's
    ``platform`` sets that row's ``error`` field, and anything else raised
    aborts the run.
    """
    names = _check_heuristics(heuristic_names, query)
    rows = tuple(_campaign_row(spec, entry, query, names) for entry in platforms)
    return CampaignResult(query=query, heuristics=names, rows=rows)


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    feasible: bool
    objective: float | None
    period: float | None
    latency: float | None
    mapping: str | None

    def __post_init__(self) -> None:
        _check_values(self, self.feasible, self.objective, self.period, self.latency, self.mapping)


@dataclass(frozen=True)
class SweepReport:
    """Threshold sweep table plus the step edges of the trade-off curve.

    ``edges`` lists every threshold at which the optimal objective changes:
    the first feasible threshold, then each threshold whose optimum differs
    from the previous feasible row's.  An unknown objective or a grid that
    :func:`_sweep_grid` rejects raises ``ValueError``; an infeasible row
    after a feasible one, or a rising optimum, raises :class:`WorkbenchError`.
    """

    objective: str
    rows: tuple[SweepRow, ...]
    _steps: tuple[SweepRow, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective {self.objective!r} is not one of {OBJECTIVES}")
        _sweep_grid(self.objective, (row.threshold for row in self.rows))
        steps: list[SweepRow] = []  # the rows that start a plateau
        prev: float | None = None  # the optimum at the last feasible threshold
        for row in self.rows:
            if not row.feasible:
                if prev is not None:
                    raise WorkbenchError(
                        f"feasibility lost at threshold {row.threshold} "
                        "after a feasible lower threshold"
                    )
                continue
            if prev is not None and not meets_threshold(row.objective, prev):
                raise WorkbenchError(
                    f"optimal {self.objective} increased from {prev!r} to "
                    f"{row.objective!r} at threshold {row.threshold}"
                )
            if prev is None or not metrics_close(row.objective, prev):
                steps.append(row)
            prev = row.objective
        object.__setattr__(self, "_steps", tuple(steps))

    @property
    def edges(self) -> tuple[float, ...]:
        return tuple(row.threshold for row in self._steps)

    def plateau_values(self) -> list[float]:
        """The optimum at each of the :attr:`edges`, in threshold order."""
        return [row.objective for row in self._steps]


def _sweep_grid(objective: str, thresholds: Iterable[float]) -> list[BicriteriaQuery]:
    """One query per threshold; ``ValueError`` unless there are some, each a
    valid :class:`BicriteriaQuery` threshold, sorted ascending."""
    queries = [BicriteriaQuery(objective, t) for t in thresholds]
    if not queries:
        raise ValueError("sweep needs at least one threshold")
    if any(b.threshold < a.threshold for a, b in zip(queries, queries[1:])):
        raise ValueError("sweep thresholds must be sorted ascending")
    return queries


def run_sweep_report(
    spec: PipelineSpec,
    platform: Platform,
    query: BicriteriaQuery,
    thresholds: Sequence[float],
) -> SweepReport:
    """One :func:`pipemap.exact.solve` per threshold, checked to be a step curve.

    ``query`` supplies the objective.  ``thresholds`` must be non-empty,
    positive and sorted ascending, or a ``ValueError`` is raised before any
    scan.  Only the first solve scans (:meth:`pipemap.model.Platform._kept`).
    Each row records the threshold asked; the :class:`SweepReport` built from
    them raises :class:`WorkbenchError` unless they form a step curve, an
    internal error.
    """
    rows = []
    for asked in _sweep_grid(query.objective, thresholds):  # all checked before any solve
        result = solve(spec, platform, asked)
        row = SweepRow(
            threshold=asked.threshold,
            feasible=result.feasible,
            objective=result.objective_value,
            period=result.metrics.period if result.metrics else None,
            latency=result.metrics.latency if result.metrics else None,
            mapping=result.mapping.signature() if result.mapping else None,
        )
        rows.append(row)
    return SweepReport(objective=query.objective, rows=tuple(rows))


def _cell_text(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


_Parse = Callable[[str], Any]
_PARSERS: dict[str, _Parse] = {"bool": _flag, "float": float, "int": int, "str": str}


def _nullable(parse: _Parse) -> _Parse:
    return lambda text: None if text == "" else parse(text)


def _columns(fs: Sequence[Field]) -> tuple[list[str], list[_Parse]]:
    """Column names and cell parsers of dataclass fields, read from their annotations."""
    names, parsers = [], []
    for f in fs:
        kind, _, none = f.type.partition(" | ")
        names.append(f.name)
        parsers.append(_nullable(_PARSERS[kind]) if none else _PARSERS[kind])
    return names, parsers


_SWEEP_NAMES, _SWEEP_PARSERS = _columns(fields(SweepRow))
_ROW_NAMES, _ROW_PARSERS = _columns(fields(CampaignRow)[:-1])  # all but ``cells``
_CELL_NAMES, _CELL_PARSERS = _columns(fields(HeuristicCell))


def _record(obj: object, names: Sequence[str]) -> list[str]:
    return [_cell_text(getattr(obj, name)) for name in names]


def _parse(rec: list[str], parsers: Sequence[_Parse], texts: Sequence[str]) -> list[Any]:
    """Parse ``texts``, cells of the record ``rec``; a bad cell's error names the record."""
    try:
        return [parse(text) for parse, text in zip(parsers, texts)]
    except ValueError as err:
        raise ValueError(f"unreadable cell in {rec}: {err}") from None


def _write_table(
    path: str, kind: str, meta: dict[str, str], header: list[str], records: Iterable[list[str]]
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(" ".join(["#", kind, *(f"{key}={value}" for key, value in meta.items())]) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(records)


def _read_table(
    path: str, kind: str, keys: Sequence[str], header_of: Callable[[dict[str, str]], list[str]]
) -> tuple[dict[str, str], list[list[str]]]:
    """The ``#`` line's metadata and the raw records of a ``kind`` table.

    Raises ``ValueError`` if one of ``keys`` is missing, the header is not
    ``header_of(meta)`` or a record has another width.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        words = fh.readline().split()
        if words[:2] != ["#", kind]:
            raise ValueError(f"{path} is not a {kind} CSV")
        meta = dict(word.partition("=")[::2] for word in words[2:])
        missing = [key for key in keys if key not in meta]
        if missing:
            raise ValueError(f"{path}: the '# {kind}' line lacks {', '.join(missing)}")
        expected = header_of(meta)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise ValueError(f"{path}: expected the header {expected}, got {header}")
        records = list(reader)
    for rec in records:
        if len(rec) != len(expected):
            raise ValueError(f"{path}: {len(rec)} cells in {rec}, expected {len(expected)}")
    return meta, records


def write_sweep_csv(report: SweepReport, path: str) -> None:
    records = (_record(row, _SWEEP_NAMES) for row in report.rows)
    _write_table(path, "sweep", {"objective": report.objective}, _SWEEP_NAMES, records)


def read_sweep_csv(path: str) -> SweepReport:
    meta, records = _read_table(path, "sweep", ["objective"], lambda meta: _SWEEP_NAMES)
    try:
        rows = tuple(SweepRow(*_parse(rec, _SWEEP_PARSERS, rec)) for rec in records)
        return SweepReport(objective=meta["objective"], rows=rows)
    except (ValueError, WorkbenchError) as err:
        raise ValueError(f"{path}: {err}") from None


def _campaign_header(heuristics: Sequence[str]) -> list[str]:
    return _ROW_NAMES + [f"{h}_{name}" for h in heuristics for name in _CELL_NAMES]


def _campaign_record(row: CampaignRow, heuristics: Sequence[str]) -> list[str]:
    rec = _record(row, _ROW_NAMES)
    for name in heuristics:
        cell = row.cells.get(name)
        rec += [""] * len(_CELL_NAMES) if cell is None else _record(cell, _CELL_NAMES)
    return rec


def write_campaign_csv(result: CampaignResult, path: str) -> None:
    meta = {
        "objective": result.query.objective,
        "threshold": repr(result.query.threshold),
        "heuristics": ",".join(result.heuristics),
    }
    records = (_campaign_record(row, result.heuristics) for row in result.rows)
    _write_table(path, "campaign", meta, _campaign_header(result.heuristics), records)


def _heuristics(meta: dict[str, str]) -> tuple[str, ...]:
    return tuple(h for h in meta["heuristics"].split(",") if h)


def read_campaign_csv(path: str) -> CampaignResult:
    meta, records = _read_table(
        path,
        "campaign",
        ["objective", "threshold", "heuristics"],
        lambda meta: _campaign_header(_heuristics(meta)),
    )
    base, width = len(_ROW_NAMES), len(_CELL_NAMES)
    try:
        try:
            query = BicriteriaQuery(meta["objective"], float(meta["threshold"]))
            heuristics = _check_heuristics(_heuristics(meta), query)
        except ValueError as err:
            raise ValueError(f"the '# campaign' line: {err}") from None
        rows = []
        for rec in records:
            cells = {}
            for i, name in enumerate(heuristics):
                chunk = rec[base + i * width : base + (i + 1) * width]
                if any(chunk):
                    cells[name] = HeuristicCell(*_parse(rec, _CELL_PARSERS, chunk))
            rows.append(CampaignRow(*_parse(rec, _ROW_PARSERS, rec[:base]), cells=cells))
        return CampaignResult(query=query, heuristics=heuristics, rows=tuple(rows))
    except (ValueError, WorkbenchError) as err:
        raise ValueError(f"{path}: {err}") from None
