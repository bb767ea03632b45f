"""Command-line interface.

Exit codes: ``0`` success, ``2`` the query was solved but is infeasible
(solve/heuristic only), ``1`` bad input (unreadable files, schema violations,
bad flag combinations).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import files
from .exact import solve
from .heuristics import HEURISTIC_NAMES, fixed_criterion_of, run_heuristic
from .ilp import write_lp
from .model import BicriteriaQuery, PipelineSpec, Platform, jpeg_preset
from .simulator import compare_with_analytic, simulate, write_event_log
from .workbench import (
    DEFAULT_RANGE,
    CampaignPlatform,
    PlatformGenSpec,
    run_campaign,
    run_sweep_report,
    seeded_platforms,
    write_campaign_csv,
    write_generated_platform,
    write_sweep_csv,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'low,high', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_thresholds(text: str) -> list[float]:
    """Either a comma list ('5,6,7') or 'low:high:count' for an even grid."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected 'low:high:count', got {text!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("threshold count must be >= 1")
        return [float(v) for v in np.linspace(lo, hi, count)]
    return [float(v) for v in text.split(",")]


def _parse_seeds(text: str) -> list[int]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected 'low:high', got {text!r}")
        seeds = list(range(int(parts[0]), int(parts[1]) + 1))
    else:
        seeds = [int(v) for v in text.split(",")]
    if not seeds:
        raise ValueError(f"seed range {text!r} is empty")
    return seeds


def _load_pipeline(args) -> PipelineSpec:
    if args.pipeline is None:
        return jpeg_preset()
    return files.read_pipeline(args.pipeline)


def _load_instance(args) -> tuple[PipelineSpec, Platform]:
    """The ``--pipeline`` (default: the bundled preset) and the ``--platform`` file."""
    return _load_pipeline(args), files.read_platform(args.platform)


def _threshold_flag(args) -> tuple[str, float | str]:
    """The objective and raw value of the one given ``--period``/``--latency``.

    ``--period`` bounds the period, so latency is minimized, and vice versa.
    """
    if (args.period is None) == (args.latency is None):
        raise ValueError("exactly one of --period/--latency is required")
    if args.period is not None:
        return "latency", args.period
    return "period", args.latency


def _query_from_args(args) -> BicriteriaQuery:
    objective, threshold = _threshold_flag(args)
    return BicriteriaQuery(objective=objective, threshold=threshold)


def _add_instance_flags(sub, with_platform: bool = True) -> None:
    sub.add_argument(
        "--pipeline",
        help="pipeline JSON file (default: the bundled seven-stage encoder preset)",
    )
    if with_platform:
        sub.add_argument("--platform", required=True, help="platform JSON file")


def _add_threshold_flags(sub) -> None:
    sub.add_argument("--period", type=float, help="bound the period, minimize latency")
    sub.add_argument("--latency", type=float, help="bound the latency, minimize period")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_gen_platform(args) -> int:
    gen = PlatformGenSpec(
        seed=args.seed,
        p=args.p,
        speed_range=_parse_pair(args.speed_range),
        bandwidth_range=_parse_pair(args.bandwidth_range),
    )
    write_generated_platform(gen, args.out)
    print(f"wrote platform (p={args.p}, seed={args.seed}) to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    spec, platform = _load_instance(args)
    query = _query_from_args(args)
    result = solve(spec, platform, query)
    print(f"objective: minimize {query.objective} ({query.fixed_criterion} <= {query.threshold})")
    print(f"evaluated: {result.evaluated} mappings")
    print(
        f"scored: {result.scored} of {result.evaluated} mappings"
        f" ({result.pruned} pruned)"
    )
    if result.feasible:
        print(f"mapping: {result.mapping.signature()}")
        print(f"period: {result.metrics.period!r}")
        print(f"latency: {result.metrics.latency!r}")
    else:
        print("feasible: no")
        print(f"best unconstrained period: {result.min_period!r}")
        print(f"best unconstrained latency: {result.min_latency!r}")
    if args.out:
        _write_json(args.out, result.to_dict())
    return 0 if result.feasible else 2


def _cmd_heuristic(args) -> int:
    spec, platform = _load_instance(args)
    name = args.heuristic
    needed = fixed_criterion_of(name)
    objective, given = _threshold_flag(args)
    if objective == needed:  # the flag bounds the criterion the heuristic minimizes
        raise ValueError(f"heuristic {name} requires --{needed} (and only that flag)")
    outcome = run_heuristic(name, spec, platform, given)
    print(f"heuristic: {name} (fixed {needed} <= {given})")
    print(f"mapping: {outcome.mapping.signature()}")
    print(f"period: {outcome.metrics.period!r}")
    print(f"latency: {outcome.metrics.latency!r}")
    print(f"feasible: {'yes' if outcome.feasible else 'no'}")
    print(f"splits: {len(outcome.trace)}")
    for event in outcome.trace:
        choice = event.choice
        print(
            f"  split p{choice.target} at {choice.cuts} -> "
            f"{event.mapping_after.signature()} (period {event.metrics_after.period!r})"
        )
    if outcome.search is not None:
        chosen = outcome.search.chosen_increase
        print(
            f"latency allowance search: {len(outcome.search.trials)} trials, "
            f"chosen increase {chosen!r}"
        )
    if args.out:
        _write_json(args.out, outcome.to_dict())
    return 0 if outcome.feasible else 2


def _cmd_simulate(args) -> int:
    spec, platform = _load_instance(args)
    mapping = files.read_mapping(args.mapping)
    report = simulate(
        spec,
        platform,
        mapping,
        items=args.items,
        warmup=args.warmup,
        record_events=args.event_log is not None,
    )
    comparison = compare_with_analytic(spec, platform, report)
    print(f"mapping: {mapping.signature()}")
    print(f"items: {args.items} (warmup {args.warmup})")
    print(f"measured period: {report.measured_period!r}")
    print(f"analytic period: {comparison.analytic.period!r}")
    print(f"period relative deviation: {comparison.period_rel_dev:.3e}")
    print(f"measured first latency: {report.measured_first_latency!r}")
    print(f"analytic latency: {comparison.analytic.latency!r}")
    print(f"latency relative deviation: {comparison.latency_rel_dev:.3e}")
    if args.event_log:
        write_event_log(report, args.event_log)
        print(f"wrote event log to {args.event_log}")
    if args.out:
        payload = report.to_dict()
        payload["analytic_period"] = comparison.analytic.period
        payload["analytic_latency"] = comparison.analytic.latency
        payload["period_rel_dev"] = comparison.period_rel_dev
        payload["latency_rel_dev"] = comparison.latency_rel_dev
        _write_json(args.out, payload)
    return 0


def _cmd_sweep(args) -> int:
    spec, platform = _load_instance(args)
    objective, text = _threshold_flag(args)
    thresholds = _parse_thresholds(text)
    query = BicriteriaQuery(objective=objective, threshold=thresholds[0])
    report = run_sweep_report(spec, platform, query, thresholds)
    print(f"sweep: minimize {report.objective} over {len(thresholds)} thresholds")
    for row in report.rows:
        if row.feasible:
            print(f"  {row.threshold!r}: {row.objective!r}  {row.mapping}")
        else:
            print(f"  {row.threshold!r}: infeasible")
    print(f"step edges: {list(report.edges)}")
    if args.out:
        write_sweep_csv(report, args.out)
        print(f"wrote sweep table to {args.out}")
    return 0


def _cmd_campaign(args) -> int:
    spec = _load_pipeline(args)
    query = _query_from_args(args)
    if args.platform and args.seeds:
        raise ValueError("use either --platform files or --seeds, not both")
    if args.platform:
        # every file is read before the campaign starts, and a bad one names itself
        entries = []
        for path in args.platform:
            try:
                entries.append(CampaignPlatform(path, *files._read_platform_and_seed(path)))
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
    elif args.seeds:
        if args.p is None:
            raise ValueError("--seeds requires --p")
        entries = seeded_platforms(
            _parse_seeds(args.seeds),
            args.p,
            speed_range=_parse_pair(args.speed_range),
            bandwidth_range=_parse_pair(args.bandwidth_range),
        )
    else:
        raise ValueError("campaign needs --platform files or --seeds")
    if args.heuristics:
        names = [h.strip() for h in args.heuristics.split(",") if h.strip()]
    else:
        names = [h for h in HEURISTIC_NAMES if fixed_criterion_of(h) == query.fixed_criterion]
    result = run_campaign(spec, entries, query, names)
    print(
        f"campaign: minimize {query.objective} ({query.fixed_criterion} <= {query.threshold}) "
        f"on {len(entries)} platforms"
    )
    failures = [row for row in result.rows if row.error]
    for row in failures:
        print(f"  {row.label}: ERROR {row.error}")
    for name, summary in result.summary().items():
        excess = (
            f"{summary.mean_rel_excess:.4%}" if summary.mean_rel_excess is not None else "n/a"
        )
        print(
            f"  {name}: matched the optimum on {summary.matches}/{summary.compared} "
            f"platforms, failed on {summary.failed}, mean relative excess {excess}"
        )
    if args.out:
        write_campaign_csv(result, args.out)
        print(f"wrote campaign table to {args.out}")
    return 0


def _cmd_export_lp(args) -> int:
    spec, platform = _load_instance(args)
    query = _query_from_args(args)
    instance = write_lp(spec, platform, query, args.out)
    print(
        f"wrote program with {len(instance.variables)} variables and "
        f"{len(instance.rows)} rows to {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pipemap",
        description="Bi-criteria period/latency mapping workbench for linear pipelines.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    default_range = ",".join(map(repr, DEFAULT_RANGE))  # the 'low,high' form

    sub = subs.add_parser("gen-platform", help="generate a random platform file")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--p", type=int, required=True, help="number of processors")
    sub.add_argument("--speed-range", default=default_range, help="'low,high' uniform range")
    sub.add_argument("--bandwidth-range", default=default_range, help="'low,high' uniform range")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_gen_platform)

    sub = subs.add_parser("solve", help="exhaustive optimal mapping for one query")
    _add_instance_flags(sub)
    _add_threshold_flags(sub)
    sub.add_argument("--out", help="also write the result as JSON")
    sub.set_defaults(func=_cmd_solve)

    sub = subs.add_parser("heuristic", help="run one splitting heuristic")
    _add_instance_flags(sub)
    sub.add_argument("--heuristic", required=True, choices=list(HEURISTIC_NAMES))
    _add_threshold_flags(sub)
    sub.add_argument("--out", help="also write the outcome as JSON")
    sub.set_defaults(func=_cmd_heuristic)

    sub = subs.add_parser("simulate", help="discrete-event simulation of a mapping")
    _add_instance_flags(sub)
    sub.add_argument(
        "--mapping",
        required=True,
        help="mapping signature like '1-2@p1;3-3@p2', or a file containing one",
    )
    sub.add_argument("--items", type=int, default=200)
    sub.add_argument("--warmup", type=int, default=20)
    sub.add_argument("--event-log", help="write per-operation windows as CSV")
    sub.add_argument("--out", help="also write the measurements as JSON")
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("sweep", help="optimal objective across a threshold grid")
    _add_instance_flags(sub)
    sub.add_argument("--period", help="period thresholds: '5,6,7' or 'low:high:count'")
    sub.add_argument("--latency", help="latency thresholds: '5,6,7' or 'low:high:count'")
    sub.add_argument("--out", help="write the table as CSV")
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("campaign", help="exact solver vs heuristics over platforms")
    _add_instance_flags(sub, with_platform=False)
    sub.add_argument("--platform", action="append", help="platform file (repeatable)")
    sub.add_argument("--seeds", help="generate platforms: '1:10' or '1,2,5'")
    sub.add_argument("--p", type=int, help="processor count for --seeds")
    sub.add_argument("--speed-range", default=default_range)
    sub.add_argument("--bandwidth-range", default=default_range)
    _add_threshold_flags(sub)
    sub.add_argument("--heuristics", help="comma list, default: all matching the query")
    sub.add_argument("--out", help="write the table as CSV")
    sub.set_defaults(func=_cmd_campaign)

    sub = subs.add_parser("export-lp", help="write the integer program in LP format")
    _add_instance_flags(sub)
    _add_threshold_flags(sub)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_export_lp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
