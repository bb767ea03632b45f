"""Bi-criteria period/latency mapping workbench for linear pipeline workflows.

The package maps a linear chain of pipeline stages onto a heterogeneous
platform by intervals: consecutive stage groups on distinct processors.  It
offers analytic evaluation of a mapping's period and latency, an exhaustive
bi-criteria solver, six greedy splitting heuristics, an integer-program
exporter, a rendezvous discrete-event simulator and an experiment workbench
with a command-line front end (``pipemap``).
"""

from .model import (
    EPS_CMP,
    BicriteriaQuery,
    IntervalMapping,
    InvalidMappingError,
    MappingMetrics,
    PipelineSpec,
    Platform,
    evaluate_metrics,
    jpeg_preset,
    meets_threshold,
    metrics_close,
    validate,
)
from .exact import (
    ParetoFront,
    SolveResult,
    count_mappings,
    enumerate_mappings,
    pareto_front,
    solve,
)
from .heuristics import HEURISTIC_NAMES, HeuristicOutcome, run_heuristic
from .ilp import IlpInstance, assignment_from_mapping, build_instance, export_ilp, write_lp
from .simulator import compare_with_analytic, simulate, write_event_log
from .workbench import (
    CampaignPlatform,
    CampaignResult,
    PlatformGenSpec,
    SweepReport,
    generate_platform,
    run_campaign,
    run_sweep_report,
    seeded_platforms,
)

__version__ = "0.1.0"

__all__ = [
    "BicriteriaQuery",
    "CampaignPlatform",
    "CampaignResult",
    "EPS_CMP",
    "HEURISTIC_NAMES",
    "HeuristicOutcome",
    "IntervalMapping",
    "InvalidMappingError",
    "MappingMetrics",
    "ParetoFront",
    "PipelineSpec",
    "Platform",
    "PlatformGenSpec",
    "SolveResult",
    "SweepReport",
    "IlpInstance",
    "assignment_from_mapping",
    "build_instance",
    "compare_with_analytic",
    "count_mappings",
    "enumerate_mappings",
    "evaluate_metrics",
    "export_ilp",
    "generate_platform",
    "jpeg_preset",
    "meets_threshold",
    "metrics_close",
    "pareto_front",
    "run_campaign",
    "run_heuristic",
    "run_sweep_report",
    "seeded_platforms",
    "simulate",
    "solve",
    "validate",
    "write_event_log",
    "write_lp",
]
