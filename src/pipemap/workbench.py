"""Experiment workbench: platform generation, campaigns and sweep reports.

A *campaign* runs the exhaustive solver and a set of heuristics over a list
of platforms for one query and tabulates the outcomes; a *sweep report*
answers every threshold by a lookup on one exhaustive scan's Pareto front and
checks that the resulting trade-off curve is a non-increasing step function,
exposing the thresholds where the optimum changes.  Both tables round-trip
through CSV: a ``# sweep objective=...`` or ``# campaign objective=...
threshold=... heuristics=...`` line, a header of the row dataclass's field
names (``<heuristic>_<HeuristicCell field>`` for each campaign heuristic) and
one record per row.  Cells are ``""`` for ``None``, ``true``/``false``, ``repr``
of floats and plain text otherwise; a malformed file raises ``ValueError``.

Rejected input (a ``ValueError``) on one platform becomes that row's ``error``
cell; any other exception aborts the run.
"""

from __future__ import annotations

import csv
import time
from dataclasses import Field, dataclass, fields
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import files
from .exact import BicriteriaQuery, SolveResult, solve, sweep
from .heuristics import fixed_criterion_of, run_heuristic
from .model import (
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


@dataclass(frozen=True)
class HeuristicCell:
    feasible: bool
    objective: float
    period: float
    latency: float
    seconds: float


@dataclass(frozen=True)
class CampaignRow:
    label: str
    seed: int | None
    error: str | None
    exact_feasible: bool | None
    exact_objective: float | None
    exact_period: float | None
    exact_latency: float | None
    exact_seconds: float | None
    cells: dict[str, HeuristicCell]


@dataclass(frozen=True)
class HeuristicSummary:
    compared: int
    matches: int
    match_rate: float
    mean_rel_excess: float | None


@dataclass(frozen=True)
class CampaignResult:
    query: BicriteriaQuery
    heuristics: tuple[str, ...]
    rows: tuple[CampaignRow, ...]

    def summary(self) -> dict[str, HeuristicSummary]:
        """Per-heuristic optimum match rate and mean relative excess.

        Recomputed from the rows on every call; only rows where both the
        exhaustive solver and the heuristic found feasible mappings count.
        """
        out: dict[str, HeuristicSummary] = {}
        for name in self.heuristics:
            compared = 0
            matches = 0
            excesses: list[float] = []
            for row in self.rows:
                if row.error is not None or not row.exact_feasible:
                    continue
                cell = row.cells.get(name)
                if cell is None or not cell.feasible:
                    continue
                compared += 1
                assert row.exact_objective is not None
                if metrics_close(cell.objective, row.exact_objective):
                    matches += 1
                    excesses.append(0.0)
                else:
                    excesses.append(
                        max(0.0, (cell.objective - row.exact_objective) / row.exact_objective)
                    )
            out[name] = HeuristicSummary(
                compared=compared,
                matches=matches,
                match_rate=matches / compared if compared else 0.0,
                mean_rel_excess=sum(excesses) / len(excesses) if excesses else None,
            )
        return out


def _campaign_row(
    spec: PipelineSpec,
    entry: CampaignPlatform,
    query: BicriteriaQuery,
    heuristic_names: Sequence[str],
) -> CampaignRow:
    try:
        t0 = time.perf_counter()
        exact = solve(spec, entry.platform, query)
        exact_seconds = time.perf_counter() - t0
        cells: dict[str, HeuristicCell] = {}
        for name in heuristic_names:
            t0 = time.perf_counter()
            outcome = run_heuristic(name, spec, entry.platform, query.threshold)
            seconds = time.perf_counter() - t0
            if exact.feasible and outcome.feasible:
                if not meets_threshold(exact.objective_value, outcome.objective_value):
                    raise WorkbenchError(
                        f"{name} reported {outcome.objective_value!r} on {entry.label}, "
                        f"better than the exhaustive optimum {exact.objective_value!r}"
                    )
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
            error=None,
            exact_feasible=exact.feasible,
            exact_objective=exact.objective_value,
            exact_period=exact.metrics.period if exact.metrics else None,
            exact_latency=exact.metrics.latency if exact.metrics else None,
            exact_seconds=exact_seconds,
            cells=cells,
        )
    except ValueError as exc:  # bad input becomes data, the campaign goes on
        return CampaignRow(
            label=entry.label,
            seed=entry.seed,
            error=f"{type(exc).__name__}: {exc}",
            exact_feasible=None,
            exact_objective=None,
            exact_period=None,
            exact_latency=None,
            exact_seconds=None,
            cells={},
        )


def run_campaign(
    spec: PipelineSpec,
    platforms: Sequence[CampaignPlatform],
    query: BicriteriaQuery,
    heuristic_names: Sequence[str],
) -> CampaignResult:
    """Exhaustive solver plus heuristics over every platform, one row each.

    Every requested heuristic must bound the same criterion as the query
    (``h1``..``h4`` for a fixed period, ``h5``/``h6`` for a fixed latency).
    Rows keep the input platform order; a ``ValueError`` on one platform
    sets that row's ``error`` field, any other exception aborts the run.
    """
    names = tuple(heuristic_names)
    for name in names:
        if fixed_criterion_of(name) != query.fixed_criterion:
            raise ValueError(
                f"heuristic {name} bounds the {fixed_criterion_of(name)} but the "
                f"query fixes the {query.fixed_criterion}"
            )
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


@dataclass(frozen=True)
class SweepReport:
    """Threshold sweep table plus the step edges of the trade-off curve.

    ``edges`` lists every threshold at which the optimal objective changes:
    the first feasible threshold, then each threshold whose optimum differs
    from the previous feasible row's.
    """

    objective: str
    rows: tuple[SweepRow, ...]

    def _steps(self) -> list[SweepRow]:
        """The feasible rows whose optimum differs from the previous feasible row's."""
        steps: list[SweepRow] = []
        prev: float | None = None
        for row in self.rows:
            if not row.feasible:
                continue
            assert row.objective is not None
            if prev is None or not metrics_close(row.objective, prev):
                steps.append(row)
            prev = row.objective
        return steps

    @property
    def edges(self) -> tuple[float, ...]:
        return tuple(row.threshold for row in self._steps())

    def plateau_values(self) -> list[float]:
        """The optimum at each of the :attr:`edges`, in threshold order."""
        return [row.objective for row in self._steps()]


def run_sweep_report(
    spec: PipelineSpec,
    platform: Platform,
    query: BicriteriaQuery,
    thresholds: Sequence[float],
) -> SweepReport:
    """Answer every threshold from one exhaustive scan, checked to be a step curve.

    Raises :class:`WorkbenchError` if feasibility is not monotone in the
    threshold or the optimal objective ever increases -- those cannot happen
    with a correct solver, so a violation is an internal error.
    """
    points = sweep(spec, platform, query, thresholds)
    rows: list[SweepRow] = []
    prev_obj: float | None = None  # the optimum at the last feasible threshold
    for threshold, result in points:
        row = SweepRow(
            threshold=threshold,
            feasible=result.feasible,
            objective=result.objective_value,
            period=result.metrics.period if result.metrics else None,
            latency=result.metrics.latency if result.metrics else None,
            mapping=result.mapping.signature() if result.mapping else None,
        )
        if prev_obj is not None:
            if not row.feasible:
                raise WorkbenchError(
                    f"feasibility lost at threshold {threshold} after a feasible lower threshold"
                )
            if not meets_threshold(row.objective, prev_obj):
                raise WorkbenchError(
                    f"optimal {query.objective} increased from {prev_obj!r} to "
                    f"{row.objective!r} at threshold {threshold}"
                )
        if row.feasible:
            prev_obj = row.objective
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


def _parse(parsers: Sequence[_Parse], texts: Sequence[str]) -> list[Any]:
    return [parse(text) for parse, text in zip(parsers, texts)]


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
    rows = tuple(SweepRow(*_parse(_SWEEP_PARSERS, rec)) for rec in records)
    return SweepReport(objective=meta["objective"], rows=rows)


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
    query = BicriteriaQuery(objective=meta["objective"], threshold=float(meta["threshold"]))
    heuristics = _heuristics(meta)
    base, width = len(_ROW_NAMES), len(_CELL_NAMES)
    rows = []
    for rec in records:
        cells = {}
        for i, name in enumerate(heuristics):
            chunk = rec[base + i * width : base + (i + 1) * width]
            if any(chunk):
                cells[name] = HeuristicCell(*_parse(_CELL_PARSERS, chunk))
        rows.append(CampaignRow(*_parse(_ROW_PARSERS, rec[:base]), cells=cells))
    return CampaignResult(query=query, heuristics=heuristics, rows=tuple(rows))
