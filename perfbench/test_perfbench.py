"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pipemap.workbench import CampaignResult, CampaignRow, HeuristicCell  # noqa: E402
from pipemap.exact import BicriteriaQuery  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _flatten(value):
    if isinstance(value, dict):
        return [(k, leaf) for k in sorted(value) for leaf in _flatten(value[k])]
    if isinstance(value, list):
        return [leaf for item in value for leaf in _flatten(item)]
    return [value.tobytes() if isinstance(value, np.ndarray) else value]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]

    def inputs(seed):
        w = cls(seed, tmp_path)
        return _flatten([w.setup_inputs(), w.window_inputs(0), w.window_inputs(1)])

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    w = cls(7, tmp_path)
    assert _flatten(w.window_inputs(0)) != _flatten(w.window_inputs(1))


def _span(sid, parent, name, t0, t1, counts=None, label=None):
    return tracing.Span(sid, parent, 0, name, label, t0, t1, counts)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(0, -1, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 0, "b", 3.0, 6.0),  # overlaps a: [1, 6] is covered once
        _span(3, 1, "leaf", 2.0, 3.0),
        _span(4, 0, "c", 8.0, 12.0),  # only [8, 10] lies inside root
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0}


def test_layer_metrics_on_a_hand_built_solve():
    spans = [
        _span(0, -1, "workbench.run_sweep_report", 0.0, 10.0),
        _span(1, 0, "exact.solve", 0.5, 9.5, {"evaluated": 300}),
        _span(2, 1, "kernels.scan_perms", 1.0, 5.0, {"rows": 100, "bytes": 800}),
        _span(3, 1, "kernels.scan_perms", 5.0, 9.0, {"rows": 200, "bytes": 1600}),
        _span(4, 1, "model.evaluate_metrics", 9.0, 9.25),
        _span(5, -1, "heuristics.run", 20.0, 21.0, {"splits": 2, "trials": 3}, "h2"),
        _span(6, 5, "model.evaluate_metrics", 20.0, 20.25),
    ]
    m = tracing.layer_metrics(spans, queries=3)
    assert m["kernels.scan_perms.calls"] == 2
    assert m["kernels.scan_perms.s"] == 8.0
    assert m["kernels.rows"] == 300
    assert m["kernels.rows_per_s"] == 300 / 8.0
    assert m["kernels.bytes_computed"] == 2400
    assert m["exact.solve.s"] == 9.0
    assert m["exact.solve.self_s"] == 0.75
    assert m["exact.evaluated"] == 300
    assert m["exact.kernel_rows_per_query"] == 100
    assert m["workbench.run_sweep_report.self_s"] == 1.0
    assert m["heuristics.run.self_s"] == 0.75
    assert m["heuristics.h2.s"] == 1.0 and m["heuristics.h1.s"] == 0.0
    assert m["heuristics.h2.trials"] == 3 and m["heuristics.splits"] == 2
    assert m["model.evaluate_metrics.calls"] == 2
    assert m["model.evaluate_metrics.us_per_call"] == 0.25e6


def _campaign(seconds, latency=5.0):
    cell = HeuristicCell(feasible=True, objective=latency, period=2.0, latency=latency,
                         seconds=seconds)
    row = CampaignRow(label="w0-p8-latency", seed=None, error=None, exact_feasible=True,
                      exact_objective=4.0, exact_period=2.5, exact_latency=4.0,
                      exact_seconds=seconds, cells={"h1": cell})
    return CampaignResult(query=BicriteriaQuery("latency", 3.0), heuristics=("h1",), rows=(row,))


def test_digest_ignores_timing_fields():
    base = workloads.digest(workloads.campaign_parts(_campaign(0.25)))
    assert workloads.digest(workloads.campaign_parts(_campaign(7.5))) == base
    assert workloads.digest(workloads.campaign_parts(_campaign(0.25, latency=5.5))) != base


def test_metric_names():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_per_layer_metrics_are_all_produced_and_documented():
    produced = set(tracing.layer_metrics([], queries=0))
    produced |= {"exact.cold_solve_s", "tracing.overhead_ratio"}
    listed = [m["name"] for m in SPEC["per_layer"]]
    assert produced == set(listed)
    moves = json.loads((HERE / "layers.json").read_text())
    assert list(moves) == listed
    workload_names = {w["name"] for w in SPEC["workloads"]}
    for entry in moves.values():
        assert set(entry["on"]) <= workload_names
    assert set(workloads.WORKLOADS) == workload_names


def test_install_restores_every_name_and_skips_missing_targets(monkeypatch):
    import pipemap.ilp
    import pipemap.exact

    solve = pipemap.exact.solve
    to_lp_text = pipemap.ilp.IlpInstance.to_lp_text
    gone = tracing.Target("simulator", "pipemap.simulator", "no_such_function", "x")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = tracing.Tracer()
    assert tracer.absent_layers == {"simulator"}
    tracer.install()
    assert pipemap.exact.solve is not solve
    tracer.uninstall()
    assert pipemap.exact.solve is solve
    assert pipemap.ilp.IlpInstance.to_lp_text is to_lp_text


def test_rates_are_scaled_by_the_host_factor():
    nominal = reference.NOMINAL_S["python"]
    assert reference.host_factor("python", 1.5 * nominal) == pytest.approx(1.5)
    # 4 ops in 2 s on a host running 1.5x slow, 6 ops in 3 s on a nominal one:
    # 10 ops in 2 / 1.5 + 3 host-scaled seconds.
    windows = [{"ops": 4, "seconds": 2.0, "host_factor": 1.5},
               {"ops": 6, "seconds": 3.0, "host_factor": 1.0}]
    assert worker.pass_rate(windows) == pytest.approx(10 / (2 / 1.5 + 3))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_names_a_reference(name):
    assert reference.sample(workloads.WORKLOADS[name].reference) > 0.0
