"""Experiment workbench: platform generation, campaigns and sweep reports.

A *campaign* runs the exhaustive solver and a set of heuristics over a list
of platforms for one query and tabulates the outcomes; a *sweep report*
answers every threshold by a lookup on one exhaustive scan's Pareto front and
checks that the resulting trade-off curve is a non-increasing step function,
exposing the thresholds where the optimum changes.  Both tables round-trip
through CSV.

Rejected input (a ``ValueError``) on one platform becomes that row's ``error``
cell; any other exception aborts the run.  Set ``PIPEMAP_THREADS`` to
parallelize campaign rows; results are identical to the sequential run.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import files
from .exact import BicriteriaQuery, SolveResult, solve, sweep
from .heuristics import (
    BinarySearchConfig,
    fixed_criterion_of,
    run_heuristic,
)
from .model import (
    EPS_CMP,
    PipelineSpec,
    Platform,
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
    "thread_count",
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


def thread_count() -> int:
    """Worker count for campaigns, from ``PIPEMAP_THREADS`` (default 1)."""
    raw = os.environ.get("PIPEMAP_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"PIPEMAP_THREADS must be an integer, got {raw!r}")
    return max(1, value)


def _campaign_row(
    spec: PipelineSpec,
    entry: CampaignPlatform,
    query: BicriteriaQuery,
    heuristic_names: Sequence[str],
    search: BinarySearchConfig | None,
) -> CampaignRow:
    try:
        t0 = time.perf_counter()
        exact = solve(spec, entry.platform, query)
        exact_seconds = time.perf_counter() - t0
        cells: dict[str, HeuristicCell] = {}
        for name in heuristic_names:
            t0 = time.perf_counter()
            outcome = run_heuristic(name, spec, entry.platform, query.threshold, search=search)
            seconds = time.perf_counter() - t0
            if exact.feasible and outcome.feasible:
                slack = EPS_CMP * max(1.0, abs(exact.objective_value))
                if outcome.objective_value < exact.objective_value - slack:
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
    *,
    search: BinarySearchConfig | None = None,
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
    workers = thread_count()
    if workers > 1 and len(platforms) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(
                    lambda entry: _campaign_row(spec, entry, query, names, search),
                    platforms,
                )
            )
    else:
        rows = [_campaign_row(spec, entry, query, names, search) for entry in platforms]
    return CampaignResult(query=query, heuristics=names, rows=tuple(rows))


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

    @property
    def edges(self) -> tuple[float, ...]:
        out: list[float] = []
        prev: float | None = None
        for row in self.rows:
            if not row.feasible:
                continue
            assert row.objective is not None
            if prev is None or not metrics_close(row.objective, prev):
                out.append(row.threshold)
            prev = row.objective
        return tuple(out)

    def plateau_values(self) -> list[float]:
        """Distinct optimum values along the curve, in threshold order."""
        values: list[float] = []
        for row in self.rows:
            if not row.feasible:
                continue
            assert row.objective is not None
            if not values or not metrics_close(row.objective, values[-1]):
                values.append(row.objective)
        return values


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
    prev_feasible = False
    prev_obj: float | None = None
    for threshold, result in points:
        if result.feasible:
            assert result.metrics is not None
            row = SweepRow(
                threshold=threshold,
                feasible=True,
                objective=result.objective_value,
                period=result.metrics.period,
                latency=result.metrics.latency,
                mapping=result.mapping.signature() if result.mapping else None,
            )
        else:
            row = SweepRow(
                threshold=threshold,
                feasible=False,
                objective=None,
                period=None,
                latency=None,
                mapping=None,
            )
        if prev_feasible and not row.feasible:
            raise WorkbenchError(
                f"feasibility lost at threshold {threshold} after a feasible lower threshold"
            )
        if row.feasible and prev_obj is not None:
            slack = EPS_CMP * max(1.0, abs(prev_obj))
            if row.objective > prev_obj + slack:
                raise WorkbenchError(
                    f"optimal {query.objective} increased from {prev_obj!r} to "
                    f"{row.objective!r} at threshold {threshold}"
                )
        if row.feasible:
            prev_feasible = True
            prev_obj = row.objective
        rows.append(row)
    return SweepReport(objective=query.objective, rows=tuple(rows))


def _bool_text(value: bool | None) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def _num_text(value: float | None) -> str:
    return "" if value is None else repr(value)


def _parse_bool(text: str) -> bool | None:
    if text == "":
        return None
    return text == "true"


def _parse_num(text: str) -> float | None:
    return None if text == "" else float(text)


def write_sweep_csv(report: SweepReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# sweep objective={report.objective}\n")
        writer = csv.writer(fh)
        writer.writerow(["threshold", "feasible", "objective", "period", "latency", "mapping"])
        for row in report.rows:
            writer.writerow(
                [
                    repr(row.threshold),
                    _bool_text(row.feasible),
                    _num_text(row.objective),
                    _num_text(row.period),
                    _num_text(row.latency),
                    row.mapping or "",
                ]
            )


def read_sweep_csv(path: str) -> SweepReport:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("# sweep objective="):
            raise ValueError(f"{path} is not a sweep CSV")
        objective = first.split("=", 1)[1]
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["threshold", "feasible", "objective", "period", "latency", "mapping"]:
            raise ValueError(f"unexpected sweep CSV header: {header}")
        rows = []
        for rec in reader:
            rows.append(
                SweepRow(
                    threshold=float(rec[0]),
                    feasible=rec[1] == "true",
                    objective=_parse_num(rec[2]),
                    period=_parse_num(rec[3]),
                    latency=_parse_num(rec[4]),
                    mapping=rec[5] or None,
                )
            )
    return SweepReport(objective=objective, rows=tuple(rows))


def write_campaign_csv(result: CampaignResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"# campaign objective={result.query.objective} "
            f"threshold={result.query.threshold!r} "
            f"heuristics={','.join(result.heuristics)}\n"
        )
        writer = csv.writer(fh)
        header = [
            "label",
            "seed",
            "error",
            "exact_feasible",
            "exact_objective",
            "exact_period",
            "exact_latency",
            "exact_seconds",
        ]
        for name in result.heuristics:
            header += [
                f"{name}_feasible",
                f"{name}_objective",
                f"{name}_period",
                f"{name}_latency",
                f"{name}_seconds",
            ]
        writer.writerow(header)
        for row in result.rows:
            rec = [
                row.label,
                "" if row.seed is None else str(row.seed),
                row.error or "",
                _bool_text(row.exact_feasible),
                _num_text(row.exact_objective),
                _num_text(row.exact_period),
                _num_text(row.exact_latency),
                _num_text(row.exact_seconds),
            ]
            for name in result.heuristics:
                cell = row.cells.get(name)
                if cell is None:
                    rec += ["", "", "", "", ""]
                else:
                    rec += [
                        _bool_text(cell.feasible),
                        repr(cell.objective),
                        repr(cell.period),
                        repr(cell.latency),
                        repr(cell.seconds),
                    ]
            writer.writerow(rec)


def read_campaign_csv(path: str) -> CampaignResult:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline().strip()
        if not first.startswith("# campaign "):
            raise ValueError(f"{path} is not a campaign CSV")
        meta: dict[str, str] = {}
        for token in first[len("# campaign ") :].split(" "):
            key, _, value = token.partition("=")
            meta[key] = value
        query = BicriteriaQuery(
            objective=meta["objective"], threshold=float(meta["threshold"])
        )
        heuristics = tuple(h for h in meta["heuristics"].split(",") if h)
        reader = csv.reader(fh)
        next(reader)  # header
        rows = []
        for rec in reader:
            base = rec[:8]
            cells: dict[str, HeuristicCell] = {}
            for idx, name in enumerate(heuristics):
                chunk = rec[8 + idx * 5 : 8 + (idx + 1) * 5]
                if chunk[0] == "":
                    continue
                cells[name] = HeuristicCell(
                    feasible=chunk[0] == "true",
                    objective=float(chunk[1]),
                    period=float(chunk[2]),
                    latency=float(chunk[3]),
                    seconds=float(chunk[4]),
                )
            rows.append(
                CampaignRow(
                    label=base[0],
                    seed=None if base[1] == "" else int(base[1]),
                    error=base[2] or None,
                    exact_feasible=_parse_bool(base[3]),
                    exact_objective=_parse_num(base[4]),
                    exact_period=_parse_num(base[5]),
                    exact_latency=_parse_num(base[6]),
                    exact_seconds=_parse_num(base[7]),
                    cells=cells,
                )
            )
    return CampaignResult(query=query, heuristics=heuristics, rows=tuple(rows))
