import gc
import hashlib
import itertools
import json
import math
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

import pipemap.exact as exact
from pipemap import _kernels
from pipemap import (
    BicriteriaQuery,
    IntervalMapping,
    ParetoFront,
    PipelineSpec,
    Platform,
    PlatformGenSpec,
    count_mappings,
    enumerate_mappings,
    evaluate_metrics,
    generate_platform,
    jpeg_preset,
    pareto_front,
    run_sweep_report,
    solve,
)
from pipemap.cli import main
from pipemap.exact import (
    _extend_perms,
    _partitions,
    _scan_front,
)
from pipemap.files import write_pipeline, write_platform

import oracle
from conftest import uniform_bandwidth
from util import (
    as_lists,
    integer_instance,
    planted_lead,
    planted_platform,
    random_instance,
    with_zero_delta,
)


def _shape_only(n: int, p: int):
    """A featureless instance whose only relevant traits are n and p."""
    from pipemap import PipelineSpec, Platform

    spec = PipelineSpec(
        stage_names=tuple(f"s{k}" for k in range(n)),
        w=[1.0] * n,
        delta=[1.0] * (n + 1),
    )
    return spec, Platform(s=[1.0] * p, b=uniform_bandwidth(p))


class TestCounting:
    def test_tiny_count(self):
        assert count_mappings(3, 2) == 6

    def test_large_count(self):
        assert count_mappings(7, 10) == 2_077_750

    def test_against_formula(self):
        for n in range(1, 7):
            for p in range(1, 6):
                expected = sum(
                    math.comb(n - 1, m - 1) * math.perm(p, m)
                    for m in range(1, min(n, p) + 1)
                )
                assert count_mappings(n, p) == expected

    def test_against_explicit_enumeration(self):
        for n in range(1, 6):
            for p in range(1, 5):
                assert count_mappings(n, p) == len(oracle.all_mappings(n, p))


class TestEnumeration:
    def test_matches_oracle_as_sets(self):
        for n in range(1, 6):
            for p in range(1, 5):
                spec, platform = _shape_only(n, p)
                ours = {
                    (m.intervals, m.assignees)
                    for m in enumerate_mappings(spec, platform)
                }
                theirs = {
                    (tuple(iv), tuple(pr)) for iv, pr in oracle.all_mappings(n, p)
                }
                assert ours == theirs

    def test_canonical_order(self):
        # ascending interval count, then cut positions, then assignee tuples
        spec, platform = _shape_only(4, 3)
        seen = [
            (m.m, m.intervals, m.assignees)
            for m in enumerate_mappings(spec, platform)
        ]
        assert seen == sorted(seen)
        assert len(seen) == count_mappings(4, 3)

    def test_every_mapping_valid(self, tiny_spec, tiny_platform):
        from pipemap import validate

        for m in enumerate_mappings(tiny_spec, tiny_platform):
            assert validate(tiny_spec, tiny_platform, m) is None


class TestQueries:
    def test_objectives_are_checked(self):
        with pytest.raises(ValueError, match="objective"):
            BicriteriaQuery(objective="throughput", threshold=1.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="threshold"):
            BicriteriaQuery.minimize_latency(0.0)

    def test_fixed_criterion(self):
        q = BicriteriaQuery.minimize_latency(7.0)
        assert q.objective == "latency"
        assert q.fixed_criterion == "period"
        q = BicriteriaQuery.minimize_period(9.0)
        assert q.objective == "period"
        assert q.fixed_criterion == "latency"

    def test_unconstrained(self):
        q = BicriteriaQuery.minimize_period()
        assert math.isinf(q.threshold)

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_value_is_the_querys_rule(self, seed):
        rng = np.random.default_rng(700 + seed)
        for _ in range(6):
            spec, platform = random_instance(rng, n_range=(1, 5), p_range=(1, 4))
            free = solve(spec, platform, BicriteriaQuery.minimize_latency())
            queries = [
                BicriteriaQuery.minimize_latency(),
                BicriteriaQuery.minimize_period(),
                BicriteriaQuery.minimize_latency(free.min_period * 1.5),
                BicriteriaQuery.minimize_period(free.min_latency * 1.5),
                BicriteriaQuery.minimize_latency(free.min_period / 2),  # infeasible
            ]
            for query in queries:
                result = solve(spec, platform, query)
                if result.metrics is None:
                    assert result.objective_value is None
                    continue
                value = getattr(result.metrics, query.objective)
                assert result.objective_value == query.objective_of(result.metrics) == value


class TestTinySolve:
    """Hand-checked optima on the three-stage example (see test_model)."""

    def test_min_latency_loose_period(self, tiny_spec, tiny_platform):
        result = solve(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(8.0)
        )
        assert result.feasible
        assert result.mapping.signature() == "1-3@p1"
        assert result.metrics.latency == 8.0
        assert result.metrics.period == 8.0
        assert result.evaluated == 6

    def test_min_latency_tight_period(self, tiny_spec, tiny_platform):
        result = solve(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(7.0)
        )
        assert result.mapping.signature() == "1-2@p1;3-3@p2"
        assert result.metrics.latency == 10.0
        assert result.metrics.period == 7.0

    def test_min_period_loose_latency(self, tiny_spec, tiny_platform):
        result = solve(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_period(11.0)
        )
        assert result.mapping.signature() == "1-1@p2;2-3@p1"
        assert result.metrics.period == 6.0
        assert result.metrics.latency == 11.0

    def test_min_period_tight_latency(self, tiny_spec, tiny_platform):
        result = solve(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_period(10.0)
        )
        assert result.mapping.signature() == "1-2@p1;3-3@p2"
        assert result.metrics.period == 7.0

    def test_infeasible_carries_bounds(self, tiny_spec, tiny_platform):
        result = solve(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(5.0)
        )
        assert not result.feasible
        assert result.mapping is None and result.metrics is None
        assert result.min_period == 6.0
        assert result.min_latency == 8.0
        assert result.evaluated == 6

    def test_threshold_padding_admits_exact_boundary(self, tiny_spec, tiny_platform):
        result = solve(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(6.0)
        )
        assert result.feasible
        assert result.metrics.period == 6.0


class TestSweep:
    def test_tiny_sweep(self, tiny_spec, tiny_platform):
        """Several thresholds through one platform: the later solves are lookups."""
        results = [
            solve(tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(t))
            for t in [5.0, 6.0, 7.0, 8.0]
        ]
        assert [r.query.threshold for r in results] == [5.0, 6.0, 7.0, 8.0]
        feasibility = [r.feasible for r in results]
        assert feasibility == [False, True, True, True]
        values = [r.metrics.latency if r.feasible else None for r in results]
        assert values == [None, 11.0, 10.0, 8.0]


def _solve_pair(spec, platform, query):
    """Run the package solver and the naive oracle on the same query."""
    result = solve(spec, platform, query)
    w, delta, s, b = as_lists(spec, platform)
    mapping, obj, sec, min_per, min_lat, evaluated = oracle.solve_naive(
        w, delta, s, b, query.objective, query.threshold
    )
    return result, mapping, obj, sec, min_per, min_lat, evaluated


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_queries(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(6):
            spec, platform = random_instance(rng)
            free = solve(spec, platform, BicriteriaQuery.minimize_period())
            anchors = [
                math.inf,
                free.min_latency * 1.2,
                free.min_latency,
                free.min_latency * 0.85,
            ]
            for threshold in anchors:
                query = BicriteriaQuery(objective="period", threshold=threshold)
                result, mapping, obj, sec, min_per, min_lat, evaluated = _solve_pair(
                    spec, platform, query
                )
                assert result.evaluated == evaluated
                assert result.min_period == pytest.approx(min_per, rel=1e-12)
                assert result.min_latency == pytest.approx(min_lat, rel=1e-12)
                if mapping is None:
                    assert not result.feasible
                else:
                    assert result.feasible
                    assert result.metrics.period == pytest.approx(obj, rel=1e-12)
                    ours = (result.mapping.intervals, result.mapping.assignees)
                    assert ours == (tuple(mapping[0]), tuple(mapping[1]))

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_latency_queries(self, seed):
        rng = np.random.default_rng(2000 + seed)
        for _ in range(6):
            spec, platform = random_instance(rng)
            free = solve(spec, platform, BicriteriaQuery.minimize_latency())
            anchors = [math.inf, free.min_period * 1.3, free.min_period]
            for threshold in anchors:
                query = BicriteriaQuery(objective="latency", threshold=threshold)
                result, mapping, obj, sec, min_per, min_lat, evaluated = _solve_pair(
                    spec, platform, query
                )
                if mapping is None:
                    assert not result.feasible
                else:
                    assert result.feasible
                    assert result.metrics.latency == pytest.approx(obj, rel=1e-12)
                    ours = (result.mapping.intervals, result.mapping.assignees)
                    assert ours == (tuple(mapping[0]), tuple(mapping[1]))


class TestKernel:
    def test_every_row_matches_evaluate_metrics(self, monkeypatch):
        """The scan accumulates in ``evaluate_metrics`` order: full rows are exact.

        With its bounds off and no processor classes, the scan's one
        dominance check sees every mapping once, as a full row, in canonical
        order; each row's period and latency are ``evaluate_metrics``' own.
        """
        grown, full = [], []
        grow = exact._grow

        def spy_grow(block, wsum, *rest):
            grown.append((wsum.shape[1], grow(block, wsum, *rest)))
            return grown[-1][1]

        def spy_dominated(front_per, front_lat, period, latency):
            m, (part, procs, *_) = grown[-1]
            if procs.shape[1] == m:
                full.append((m, part, procs, period, latency))
            return _keep_every_prefix(front_per, front_lat, period, latency)

        monkeypatch.setattr(exact, "_grow", spy_grow)
        monkeypatch.setattr(exact, "_dominated", spy_dominated)
        rng = np.random.default_rng(77)
        for k in range(40):
            if k % 2:
                spec, platform = integer_instance(rng, n_range=(1, 7), p_range=(1, 6))
            else:
                spec, platform = random_instance(rng, n_range=(1, 7), p_range=(1, 6))
            spec = with_zero_delta(rng, spec)
            n, p = spec.n, platform.p
            for m in range(1, min(n, p) + 1):
                rows = _partitions(n, m).tolist()
                assert [(row[0], row[-1]) for row in rows] == [(0, n)] * len(rows)
                assert [tuple(row[1:-1]) for row in rows] == list(
                    itertools.combinations(range(1, n), m - 1)
                )
            full.clear()
            _scan_front(spec, _without_classes(platform))
            seen = []
            for m, part, procs, periods, latencies in full:
                bounds = _partitions(n, m)[part].tolist()
                for row, assignees, period, latency in zip(
                    bounds, procs.tolist(), periods.tolist(), latencies.tolist()
                ):
                    intervals = tuple((d + 1, e) for d, e in zip(row, row[1:]))
                    mapping = IntervalMapping(intervals, tuple(assignees))
                    metrics = evaluate_metrics(spec, platform, mapping)
                    assert (period, latency) == (metrics.period, metrics.latency)
                    seen.append(mapping)
            assert seen == list(enumerate_mappings(spec, platform))

    def test_scan_places_every_interval_through_the_kernel(self, monkeypatch):
        """With bounds off, the kernel sees every prefix of every partition once."""
        rng = np.random.default_rng(78)
        spec, platform = random_instance(rng, n_range=(5, 5), p_range=(4, 4))
        rows = []
        kernel = _kernels.scan_perms

        def counted(wsum, bvol, s, b, perms, closed, open_, lat, part):
            # one partition index per row, into tables of one row per partition
            assert part.shape == (len(perms),) and len(wsum) == len(bvol) > part.max()
            assert closed.shape == open_.shape == lat.shape == (len(perms),)
            rows.append(len(perms))
            return kernel(wsum, bvol, s, b, perms, closed, open_, lat, part)

        monkeypatch.setattr(_kernels, "scan_perms", counted)
        monkeypatch.setattr(exact, "_dominated", _keep_every_prefix)
        front = _scan_front(spec, platform)
        n, p = spec.n, platform.p
        assert sum(rows) == sum(
            math.comb(n - 1, m - 1) * math.perm(p, j)
            for m in range(1, min(n, p) + 1)
            for j in range(1, m + 1)
        )
        assert front.scored == front.evaluated == count_mappings(n, p)

    def test_rows_are_independent(self):
        """Permuting the rows of every per-row argument permutes the outputs alike."""
        rng = np.random.default_rng(79)
        p, m, k, parts, rows = 6, 4, 2, 3, 40
        wsum, bvol = rng.uniform(1, 9, (parts, m)), rng.uniform(1, 9, (parts, m + 1))
        s, b = rng.uniform(1, 9, p), rng.uniform(1, 9, (p + 2, p + 2))
        perms = np.array([rng.permutation(np.arange(1, p + 1))[: k + 1] for _ in range(rows)])
        closed, open_, lat = rng.uniform(0, 9, (3, rows))
        part = rng.integers(0, parts, rows)
        order = rng.permutation(rows)
        out = _kernels.scan_perms(wsum, bvol, s, b, perms, closed, open_, lat, part)
        moved = _kernels.scan_perms(
            wsum, bvol, s, b, perms[order], closed[order], open_[order], lat[order], part[order]
        )
        for before, after in zip(out, moved):
            assert before.shape == (rows,)
            assert np.array_equal(before[order], after)


class TestPermTables:
    def test_extension_chain_matches_itertools(self):
        for p in range(1, 8):
            perms = np.zeros((1, 0), dtype=np.intp)
            for m in range(1, p + 1):
                prev = perms
                perms, reps = _extend_perms(prev, np.zeros(p + 1, dtype=np.intp))
                assert reps == p - (m - 1)
                assert len(perms) == len(prev) * reps
                assert perms.dtype == np.intp
                assert perms.flags.f_contiguous
                assert perms.tolist() == [
                    list(t) for t in itertools.permutations(range(1, p + 1), m)
                ]

    @pytest.mark.parametrize("classes", [(1, 2, 1, 3, 2, 1), (1, 1, 1, 1), (1, 2, 3, 2)])
    def test_classes_extend_by_their_first_free_member(self, classes):
        """Each prefix takes every free processor outside a class of two or more
        and, of each such class, only its first free member, in ascending order."""
        p = len(classes)
        lead = np.array(planted_lead(classes), dtype=np.intp)
        perms = np.zeros((1, 0), dtype=np.intp)
        for m in range(1, p + 1):
            prev = perms
            perms, reps = _extend_perms(prev, lead)
            assert len(perms) == reps.sum() and reps.shape == (len(prev),)
            assert perms.dtype == np.intp and perms.flags.f_contiguous
            expected = []
            for row in prev.tolist():
                free = [u for u in range(1, p + 1) if u not in row]
                expected += [
                    row + [u]
                    for u in free
                    if not any(classes[x - 1] == classes[u - 1] for x in free if x < u)
                ]
            assert perms.tolist() == expected
            # each class's members appear in index order
            for row in perms.tolist():
                for c in set(classes):
                    members = [u for u in row if classes[u - 1] == c]
                    assert members == sorted(members)

    def test_solve_keeps_no_tables(self):
        """Little allocated in exact.py outlives a solve: no processor table.

        What stays is the front kept on the platform and the partition tables
        kept on the pipeline (8,704 bytes of arrays at n = 7).  A fresh
        interpreter runs the solve, so no earlier test can have filled a
        cache before tracing starts.
        """
        probe = textwrap.dedent(
            """
            import tracemalloc
            import numpy as np
            import pipemap.exact as exact
            from pipemap import BicriteriaQuery, PipelineSpec, Platform, solve

            spec = PipelineSpec(stage_names=tuple("abcdefg"), w=[1.0] * 7, delta=[1.0] * 8)
            b = np.full((9, 9), 2.0)
            np.fill_diagonal(b, 0.0)
            platform = Platform(s=[1.0] * 7, b=b)
            only_exact = [tracemalloc.Filter(True, exact.__file__)]
            tracemalloc.start()
            before = tracemalloc.take_snapshot().filter_traces(only_exact)
            result = solve(spec, platform, BicriteriaQuery.minimize_latency())
            after = tracemalloc.take_snapshot().filter_traces(only_exact)
            print(result.evaluated)
            print(sum(s.size_diff for s in after.compare_to(before, "filename")))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        evaluated, held = map(int, proc.stdout.split())
        assert evaluated == count_mappings(7, 7)
        assert held < 16 * 1024, f"{held} bytes allocated in exact.py still held"


class TestDeterminism:
    def test_repeat_solves_identical(self, tiny_spec, tiny_platform):
        query = BicriteriaQuery.minimize_period(10.0)
        a = solve(tiny_spec, tiny_platform, query)
        b = solve(tiny_spec, tiny_platform, query)
        assert a.to_dict() == b.to_dict()

    def test_result_dict_shape(self, tiny_spec, tiny_platform):
        result = solve(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_period(10.0)
        )
        d = result.to_dict()
        assert d["feasible"] is True
        assert d["mapping"] == "1-2@p1;3-3@p2"
        assert d["evaluated"] == 6
        assert set(d) >= {"objective", "threshold", "period", "latency"}


class TestTieBreaks:
    def test_canonical_first_on_full_tie(self):
        # two processors with identical speeds and uniform bandwidths make the
        # mirrored splits metric-identical; the earlier enumeration entry must
        # win.  splitting halves the compute term (0.5+1.5+0.5 per side = 2.5
        # vs 4.0 whole-chain), so the optimum is a split, and (p1, p2) comes
        # before (p2, p1)
        from pipemap import PipelineSpec, Platform

        spec = PipelineSpec(stage_names=("a", "b"), w=[3.0, 3.0], delta=[1, 1, 1])
        platform = Platform(s=[2.0, 2.0], b=uniform_bandwidth(2))
        result = solve(spec, platform, BicriteriaQuery.minimize_period())
        assert result.mapping.signature() == "1-1@p1;2-2@p2"
        assert result.metrics.period == 2.5
        mirrored = IntervalMapping.from_signature("1-1@p2;2-2@p1")
        twin = evaluate_metrics(spec, platform, mirrored)
        assert twin.period == result.metrics.period
        assert twin.latency == result.metrics.latency

    def test_single_interval_wins_period_tie_on_latency(self):
        # the middle transfer (3/2 = 1.5) exactly offsets the halved compute,
        # so single-interval and split mappings all have period 3.0; the split
        # pays the hop in latency (4.5 vs 3.0), so the secondary criterion
        # picks the single interval
        from pipemap import PipelineSpec, Platform

        spec = PipelineSpec(stage_names=("a", "b"), w=[3.0, 3.0], delta=[0, 3, 0])
        platform = Platform(s=[2.0, 2.0], b=uniform_bandwidth(2))
        split = evaluate_metrics(
            spec, platform, IntervalMapping.from_signature("1-1@p1;2-2@p2")
        )
        assert split.period == 3.0 and split.latency == 4.5
        result = solve(spec, platform, BicriteriaQuery.minimize_period())
        assert result.metrics.period == 3.0
        assert result.mapping.signature() == "1-2@p1"

    def test_secondary_criterion_breaks_objective_ties(self, tiny_spec, tiny_platform):
        # at threshold 8 the latency optimum is unique, but verify the stored
        # secondary value agrees with a fresh evaluation
        result = solve(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(8.0)
        )
        fresh = evaluate_metrics(tiny_spec, tiny_platform, result.mapping)
        assert result.metrics.period == fresh.period
        assert result.metrics.latency == fresh.latency


class TestMappingHygiene:
    def test_solver_returns_frozen_mapping(self, tiny_spec, tiny_platform):
        result = solve(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_period(11.0)
        )
        assert isinstance(result.mapping, IntervalMapping)
        assert isinstance(result.mapping.intervals, tuple)
        assert isinstance(result.mapping.assignees, tuple)


def _golden_instances(count):
    """Seeded instances, alternately real-valued and integer-valued."""
    rng = np.random.default_rng(4242)
    for k in range(count):
        if k % 2:
            yield integer_instance(rng)
        else:
            yield random_instance(rng, n_range=(1, 7), p_range=(1, 6))


def _result_record(result):
    record = result.to_dict()
    record["metrics"] = result.metrics.to_dict() if result.metrics else None
    return record


# sha256 over every record of ``_golden_exact_records``: it pins each optimum,
# its canonically first mapping and bitwise metrics, the scan bounds and the
# sweep error messages.  Re-record it only for a deliberate change of output.
GOLDEN_EXACT_SHA256 = "49fe08f35dd7577c7d296d37ba52bef40dd9d5f1a184537c11fbe6415da29150"


def _golden_exact_records():
    """Canonical JSON of solves and sweeps around each binding range."""
    for spec, platform in _golden_instances(24):
        free = {
            sense: solve(spec, platform, BicriteriaQuery(sense, math.inf))
            for sense in ("latency", "period")
        }
        for sense, result in free.items():
            yield _result_record(result)
        # the bounded criterion binds between its own unconstrained minimum
        # and its value at the unconstrained optimum of the objective
        ranges = {
            "latency": (free["period"].min_period, free["latency"].metrics.period),
            "period": (free["latency"].min_latency, free["period"].metrics.latency),
        }
        for sense, (lo, hi) in ranges.items():
            thresholds = [lo * 0.9, lo, lo, (lo + hi) / 2, hi, hi * 1.25, math.inf]
            for t in thresholds:
                yield _result_record(solve(spec, platform, BicriteriaQuery(sense, t)))
            for t in thresholds:
                result = solve(spec, platform, BicriteriaQuery(sense, t))
                yield [result.query.threshold, _result_record(result)]
    spec, platform = next(_golden_instances(1))
    for bad in ([], [2.0, 1.0]):
        with pytest.raises(ValueError) as err:
            run_sweep_report(spec, platform, BicriteriaQuery.minimize_latency(), bad)
        yield str(err.value)


class TestFront:
    """The scan's Pareto front against plain enumeration and the model."""

    @pytest.mark.parametrize("seed", range(6))
    def test_front_covers_every_mapping(self, seed):
        rng = np.random.default_rng(3000 + seed)
        for k in range(8):
            if k % 2:
                spec, platform = integer_instance(rng, (1, 6), (1, 5))
            else:
                spec, platform = random_instance(rng, n_range=(1, 6), p_range=(1, 5))
            front = _scan_front(spec, platform)
            assert np.all(np.diff(front.period) > 0)
            assert np.all(np.diff(front.latency) < 0)
            assert front.evaluated == count_mappings(spec.n, platform.p)
            for i, mapping in enumerate(front.mappings):
                metrics = evaluate_metrics(spec, platform, mapping)
                assert metrics.period == front.period[i]
                assert metrics.latency == front.latency[i]
            on_front = set(front.mappings)
            seen = set()
            for mapping in enumerate_mappings(spec, platform):
                if mapping in on_front:
                    seen.add(mapping)
                    continue
                metrics = evaluate_metrics(spec, platform, mapping)
                # the last point with period <= this one's has the lowest latency
                i = np.searchsorted(front.period, metrics.period, side="right") - 1
                assert i >= 0 and front.latency[i] <= metrics.latency
                if (front.period[i], front.latency[i]) == (
                    metrics.period,
                    metrics.latency,
                ):
                    # an exact tie: the front holds a canonically earlier mapping
                    assert front.mappings[i] in seen

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_sweep_scans_each_partition_once(self, monkeypatch, k):
        rng = np.random.default_rng(5)
        spec, platform = random_instance(rng, n_range=(5, 5), p_range=(4, 4))
        calls = []
        partitions = exact._partitions
        monkeypatch.setattr(
            exact, "_partitions", lambda *args: calls.append(args) or partitions(*args)
        )
        scans = _spy_scans(monkeypatch)
        thresholds = [1.0 + 0.5 * j for j in range(k)]
        report = run_sweep_report(spec, platform, BicriteriaQuery.minimize_latency(), thresholds)
        assert len(report.rows) == k
        # one scan per report, one table of all partitions per interval count m
        assert scans == [spec]
        assert calls == [(spec.n, m) for m in range(1, min(spec.n, platform.p) + 1)]


def _spy_scans(monkeypatch):
    """Count the raw scans behind every ``solve`` and ``pareto_front``."""
    calls = []
    scan = exact._scan_front
    monkeypatch.setattr(
        exact, "_scan_front", lambda spec, platform: calls.append(spec) or scan(spec, platform)
    )
    return calls


def _twin(platform):
    """A fresh platform equal to ``platform``, with no front kept."""
    return Platform(s=platform.s.copy(), b=platform.b.copy())


def _queries_of(spec, platform):
    """Both senses at infinite, binding, loose and infeasible thresholds."""
    front = _scan_front(spec, platform)
    lat, per = front.latency, front.period
    return [
        BicriteriaQuery.minimize_latency(),
        BicriteriaQuery.minimize_period(float(np.median(lat))),
        BicriteriaQuery.minimize_latency(float(per.min()) * 0.9),
        BicriteriaQuery.minimize_latency(float(np.median(per))),
        BicriteriaQuery.minimize_period(),
        BicriteriaQuery.minimize_period(float(lat.min()) * 0.9),
        BicriteriaQuery.minimize_latency(float(per.max()) * 1.5),
    ]


class TestFrontCache:
    """The platform keeps the front of its last pipeline; queries look answers up on it."""

    def test_later_queries_scan_nothing(self, monkeypatch):
        rng = np.random.default_rng(8100)
        spec, platform = random_instance(rng, n_range=(6, 6), p_range=(5, 5))
        queries = _queries_of(spec, platform)
        calls = _spy_scans(monkeypatch)
        first = solve(spec, platform, queries[0])
        second = solve(spec, platform, queries[1])
        equal_spec = PipelineSpec(spec.stage_names, spec.w.copy(), spec.delta.copy())
        grid = [BicriteriaQuery(queries[3].objective, t) for t in (1.0, 50.0, math.inf)]
        swept = [solve(equal_spec, platform, query) for query in grid]
        assert calls == [spec]
        twin = _twin(platform)
        fresh = [
            solve(spec, _twin(platform), queries[0]),
            solve(spec, _twin(platform), queries[1]),
            *(solve(spec, twin, query) for query in grid),
        ]
        assert len(calls) == 4
        # dataclass ==: field for field, scored included
        assert [first, second, *swept] == fresh

    def test_another_pipeline_replaces_the_front(self, monkeypatch):
        rng = np.random.default_rng(8200)
        spec_a, platform = random_instance(rng, n_range=(5, 5), p_range=(4, 4))
        spec_b, _ = random_instance(rng, n_range=(4, 4), p_range=(4, 4))
        query = BicriteriaQuery.minimize_latency()
        calls = _spy_scans(monkeypatch)
        for spec in (spec_a, spec_b, spec_b, spec_a):
            assert solve(spec, platform, query) == solve(spec, _twin(platform), query)
        # each twin scans once, and the kept front holds one pipeline at a time
        assert calls == [spec_a, spec_a, spec_b, spec_b, spec_b, spec_a, spec_a]
        assert pareto_front(spec_a, platform) is pareto_front(spec_a, platform)
        assert len(calls) == 7

    def test_front_cannot_be_changed(self):
        spec = jpeg_preset()
        platform = generate_platform(PlatformGenSpec(seed=3, p=4))
        front = pareto_front(spec, platform)
        assert isinstance(front, ParetoFront) and isinstance(front.mappings, tuple)
        for values in (front.period, front.latency):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0
        raw = _scan_front(spec, platform)
        assert not raw.period.flags.writeable and isinstance(raw.mappings, tuple)

    def test_front_lives_and_dies_with_its_platform(self):
        spec = jpeg_preset()
        platform = generate_platform(PlatformGenSpec(seed=4, p=4))
        front = pareto_front(spec, platform)
        ref = weakref.ref(platform)
        gc.disable()
        try:
            del platform
            assert ref() is None
        finally:
            gc.enable()
        # the front outlives its platform and holds no reference back to it
        assert front.evaluated == count_mappings(spec.n, 4)

    def test_pipeline_keeps_its_partition_tables_for_every_platform(self, monkeypatch):
        """A pipeline's partition tables are built on its first scan that
        reaches each ``m``, and every later platform reads them."""
        spec = jpeg_preset()
        built = []
        partitions = exact._partitions
        monkeypatch.setattr(
            exact, "_partitions", lambda n, m: built.append(m) or partitions(n, m)
        )
        platforms = [generate_platform(PlatformGenSpec(seed=q, p=q)) for q in (4, 6, 5)]
        fronts = [_front_key(_scan_front(spec, platform)) for platform in platforms]
        assert built == [1, 2, 3, 4, 5, 6]
        fresh = [_front_key(_scan_front(jpeg_preset(), platform)) for platform in platforms]
        assert fronts == fresh
        assert spec == jpeg_preset() and hash(spec) == hash(jpeg_preset())
        for m in range(1, 7):
            spans, terms = exact._pipeline_tables(spec, m)
            assert not spans.flags.writeable and not terms.flags.writeable
            assert exact._table_bytes(spec.n, m) == spans.nbytes + terms.nbytes
            rows = partitions(spec.n, m).tolist()
            assert spans.tolist() == [
                [[d + 1, e] for d, e in zip(row, row[1:])] for row in rows
            ]
            assert terms.T.tolist() == [
                [spec.delta[row[0]]]
                + [x for d, e in zip(row, row[1:]) for x in (spec._costs[d + 1][e], spec.delta[e])]
                for row in rows
            ]

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_queries_through_one_platform_match_the_oracle(self, monkeypatch, seed):
        rng = np.random.default_rng(8300 + seed)
        calls = _spy_scans(monkeypatch)
        for k in range(6):
            if k % 2:
                spec, platform = integer_instance(rng, (1, 6), (1, 5))
            else:
                spec, platform = random_instance(rng, n_range=(1, 6), p_range=(1, 5))
            queries = _queries_of(spec, platform)
            rng.shuffle(queries)
            w, delta, s, b = as_lists(spec, platform)
            calls.clear()
            for query in queries:
                result = solve(spec, platform, query)
                mapping, obj, _, min_per, min_lat, evaluated = oracle.solve_naive(
                    w, delta, s, b, query.objective, query.threshold
                )
                assert result.evaluated == evaluated
                assert result.min_period == pytest.approx(min_per, rel=1e-12)
                assert result.min_latency == pytest.approx(min_lat, rel=1e-12)
                assert result.feasible == (mapping is not None)
                if mapping is None:
                    continue
                assert result.objective_value == pytest.approx(obj, rel=1e-12)
                if k % 2 == 0:
                    # real-valued: no ties, so the optimum is one mapping
                    ours = (result.mapping.intervals, result.mapping.assignees)
                    assert ours == (tuple(mapping[0]), tuple(mapping[1]))
            assert calls == [spec]


# sha256 over the scan's front of each of 16 seeded instances with n 8-11 and
# p 4-9, half of them tie-heavy: periods, latencies, signatures and
# ``evaluated``.  It was recorded with the scan that searched one partition at
# a time, so it pins the fronts of the scan across partitions to that one.
GOLDEN_MID_FRONT_SHA256 = "e6324af659be2fe26bca00d031f3d043c98695d26ed6c3fe5a205259e233d0c2"


def _mid_size_instances(count):
    """Seeded instances, alternately real-valued and integer-valued."""
    rng = np.random.default_rng(2)
    for k in range(count):
        if k % 2:
            yield integer_instance(rng, (8, 11), (4, 9))
        else:
            yield random_instance(rng, n_range=(8, 11), p_range=(4, 9))


class TestGolden:
    def test_results_match_recorded_digest(self):
        digest = hashlib.sha256()
        for record in _golden_exact_records():
            digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
            digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_EXACT_SHA256

    def test_mid_size_fronts_match_recorded_digest(self):
        digest = hashlib.sha256()
        for spec, platform in _mid_size_instances(16):
            front = _scan_front(spec, platform)
            record = [
                front.period.tolist(),
                front.latency.tolist(),
                [mapping.signature() for mapping in front.mappings],
                front.evaluated,
            ]
            digest.update(json.dumps(record).encode("utf-8"))
            digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_MID_FRONT_SHA256

    def test_measured_tail_fronts_match_recorded_digest(self):
        digest = hashlib.sha256()
        for n, p, seed in TAIL_INSTANCES:
            front = _scan_front(*_tail_instance(n, p, seed))
            record = [
                front.period.tolist(),
                front.latency.tolist(),
                [mapping.signature() for mapping in front.mappings],
                front.evaluated,
            ]
            digest.update(json.dumps(record).encode("utf-8"))
            digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_TAIL_FRONT_SHA256


# (n, p, seed) of three instances from the slow tail of the scan's running
# time, and the sha256 over their fronts, recorded as the mid-size digest is
# with the scan whose bounds left out every link term (1.39 M, 2.74 M and
# 435 k full mappings scored).
TAIL_INSTANCES = ((13, 12, 1), (12, 12, 3), (12, 10, 2))
GOLDEN_TAIL_FRONT_SHA256 = "22ef9a15bbd09cdf7b6d2e2ff1af6941b7617b787abcd40813938905cfdd08ef"


def _tail_instance(n, p, seed):
    """``w`` and ``delta`` from U(1, 100), then ``s`` and ``b`` from U(50, 200)."""
    rng = np.random.default_rng([seed, 99, n, p])
    w, delta = rng.uniform(1.0, 100.0, n), rng.uniform(1.0, 100.0, n + 1)
    s, b = rng.uniform(50.0, 200.0, p), rng.uniform(50.0, 200.0, (p + 2, p + 2))
    np.fill_diagonal(b, 0.0)
    spec = PipelineSpec(tuple(f"s{k}" for k in range(1, n + 1)), w, delta)
    return spec, Platform(s=s, b=b)


def _keep_every_prefix(front_per, front_lat, period, latency):
    """Stands in for ``exact._dominated``: the scan with its bounds off."""
    return np.zeros(period.shape, dtype=bool)


def _without_classes(platform):
    """A twin of ``platform`` with an all-zero class table: its scan extends
    every prefix by every free processor."""
    twin = _twin(platform)
    twin.__dict__["_lead"] = np.zeros(platform.p + 1, dtype=np.intp)
    return twin


def _front_key(front):
    return (
        front.period.tolist(),
        front.latency.tolist(),
        [(m.intervals, m.assignees) for m in front.mappings],
        front.evaluated,
    )


class TestBranchAndBound:
    """The pruned scan against the scan with its bounds off and the oracle."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pruned_matches_unpruned_and_oracle(self, monkeypatch, seed):
        rng = np.random.default_rng(6000 + seed)
        for k in range(12):
            if k % 2:
                spec, platform = integer_instance(rng, (1, 7), (1, 7))
            else:
                spec, platform = random_instance(rng, n_range=(1, 7), p_range=(1, 7))
            pruned = _scan_front(spec, platform)
            with monkeypatch.context() as patch:
                patch.setattr(exact, "_dominated", _keep_every_prefix)
                full = _scan_front(spec, platform)
            assert _front_key(pruned) == _front_key(full)
            assert full.scored == full.evaluated
            assert pruned.scored <= full.scored
            if count_mappings(spec.n, platform.p) > 1100:
                continue  # the pure-Python oracle stays on small instances
            w, delta, s, b = as_lists(spec, platform)
            for sense in ("latency", "period"):
                ends = (pruned.period, pruned.latency)
                fixed = ends[0] if sense == "latency" else ends[1]
                for threshold in (math.inf, float(np.median(fixed)), fixed.min() * 0.9):
                    result = solve(spec, platform, BicriteriaQuery(sense, threshold))
                    mapping, obj, _, _, _, evaluated = oracle.solve_naive(
                        w, delta, s, b, sense, threshold
                    )
                    assert result.evaluated == evaluated
                    assert result.feasible == (mapping is not None)
                    if mapping is None:
                        continue
                    assert result.objective_value == pytest.approx(obj, rel=1e-12)
                    if k % 2 == 0:
                        # real-valued: no ties, so the optimum is one mapping
                        ours = (result.mapping.intervals, result.mapping.assignees)
                        assert ours == (tuple(mapping[0]), tuple(mapping[1]))

    @pytest.mark.parametrize("seed", range(3))
    def test_tight_bounds_prune_nothing_better(self, monkeypatch, seed):
        # One speed and one bandwidth: each bound term is then the exact term
        # of every completion.  Costs close together make mappings differ by
        # well under 1%, so even a slightly inflated bound prunes a better one.
        rng = np.random.default_rng(6500 + seed)
        for _ in range(12):
            n, p = (int(x) for x in rng.integers(2, 8, 2))
            spec = PipelineSpec(
                stage_names=tuple(f"s{k}" for k in range(n)),
                w=rng.integers(500, 510, n).astype(float),
                delta=rng.integers(0, 3, n + 1).astype(float),
            )
            speed, link = (float(x) for x in rng.choice([1.0, 2.0, 4.0], 2))
            platform = Platform(s=[speed] * p, b=uniform_bandwidth(p, link))
            pruned = _scan_front(spec, platform)
            with monkeypatch.context() as patch:
                patch.setattr(exact, "_dominated", _keep_every_prefix)
                assert _front_key(_scan_front(spec, platform)) == _front_key(pruned)

    def test_prefix_bounds_never_exceed_a_completion(self, monkeypatch):
        """No prefix row's period or latency bound exceeds the exact metrics of
        any full mapping that extends it.

        With its bounds off and no processor classes, the scan's dominance
        check sees every prefix of every partition once.  Each row's bounds
        are compared with the lowest period and the lowest latency over its
        completions, from ``evaluate_metrics``.
        """
        grown, prefixes = [], []
        grow = exact._grow

        def spy_grow(block, wsum, *rest):
            grown.append((wsum.shape[1], grow(block, wsum, *rest)))
            return grown[-1][1]

        def spy_dominated(front_per, front_lat, period, latency):
            m, (part, procs, *_) = grown[-1]
            if procs.shape[1] < m:
                prefixes.append((m, part, procs, period, latency))
            return _keep_every_prefix(front_per, front_lat, period, latency)

        monkeypatch.setattr(exact, "_grow", spy_grow)
        monkeypatch.setattr(exact, "_dominated", spy_dominated)
        rng = np.random.default_rng(7400)
        instances = []
        for _ in range(8):
            spec, platform = random_instance(rng, n_range=(1, 6), p_range=(1, 5))
            instances.append((with_zero_delta(rng, spec), platform))
            instances.append(integer_instance(rng, (1, 6), (1, 5)))
            # each kind of link on its own scale: a bound that divides one
            # kind by another kind's widest link overshoots
            b = platform.b.copy()
            b[0] *= rng.choice([0.25, 4.0])
            b[:, -1] *= rng.choice([0.25, 4.0])
            instances.append((spec, Platform(s=platform.s, b=b)))
        for n, p in ((5, 4), (6, 5), (4, 1), (1, 4)):
            # identical processors (every bound term is exact), p = 1 (no
            # link between two processors) and n = 1 (m = 1 only)
            spec = PipelineSpec(
                tuple(f"s{k}" for k in range(n)),
                w=rng.integers(1, 4, n).astype(float),
                delta=rng.integers(0, 3, n + 1).astype(float),
            )
            instances.append((spec, Platform(s=[2.0] * p, b=uniform_bandwidth(p))))
        checked = tight = 0
        for spec, platform in instances:
            lowest = {}  # (intervals, processor prefix) -> (period, latency)
            for mapping in enumerate_mappings(spec, platform):
                metrics = evaluate_metrics(spec, platform, mapping)
                for j in range(1, mapping.m):
                    key = (mapping.intervals, mapping.assignees[:j])
                    period, latency = lowest.get(key, (math.inf, math.inf))
                    lowest[key] = (min(period, metrics.period), min(latency, metrics.latency))
            prefixes.clear()
            _scan_front(spec, _without_classes(platform))
            rows = 0
            for m, part, procs, periods, latencies in prefixes:
                for row, prefix, period, latency in zip(
                    _partitions(spec.n, m)[part].tolist(),
                    procs.tolist(),
                    periods.tolist(),
                    latencies.tolist(),
                ):
                    intervals = tuple((d + 1, e) for d, e in zip(row, row[1:]))
                    low = lowest[intervals, tuple(prefix)]
                    assert period <= low[0] and latency <= low[1]
                    tight += (period, latency) == low
                    rows += 1
            assert rows == len(lowest)
            checked += rows
        assert checked > 5_000 and tight > 0

    def test_counters_add_up(self):
        spec = jpeg_preset()
        for p in (3, 6, 10):
            platform = generate_platform(PlatformGenSpec(seed=p, p=p))
            result = solve(spec, platform, BicriteriaQuery.minimize_latency())
            assert result.scored + result.pruned == result.evaluated
            assert result.evaluated == count_mappings(spec.n, p)
            assert 0 < result.scored < result.evaluated
            assert set(result.to_dict()).isdisjoint({"scored", "pruned"})

    def test_exact_tie_with_a_front_point(self, monkeypatch):
        # every term is exact in binary: 1-1@p1;2-3@p2 and, one partition
        # later, 1-2@p1;3-3@p2 both reach period 3.0 and latency 4.5.  The
        # earlier point weakly dominates the later one, so the later one
        # never joins the front.
        spec = PipelineSpec(stage_names=("a", "b", "c"), w=[1, 1, 1], delta=[1, 1, 1, 1])
        platform = Platform(s=[1.0, 1.0, 1.0], b=uniform_bandwidth(3))
        first = IntervalMapping.from_signature("1-1@p1;2-3@p2")
        later = IntervalMapping.from_signature("1-2@p1;3-3@p2")
        tie = evaluate_metrics(spec, platform, first)
        twin = evaluate_metrics(spec, platform, later)
        assert (tie.period, tie.latency) == (twin.period, twin.latency) == (3.0, 4.5)
        front = _scan_front(spec, platform)
        assert (3.0, 4.5) in zip(front.period.tolist(), front.latency.tolist())
        assert first in front.mappings and later not in front.mappings
        result = solve(spec, platform, BicriteriaQuery.minimize_latency(3.0))
        assert result.mapping == first and result.metrics == tie
        monkeypatch.setattr(exact, "_dominated", _keep_every_prefix)
        unbounded = _scan_front(spec, platform)
        assert first in unbounded.mappings and later not in unbounded.mappings
        assert _front_key(unbounded) == _front_key(front)

    @pytest.mark.parametrize("budget", [1, 7, 24, 90])
    def test_tiny_row_budget_gives_the_same_front(self, monkeypatch, budget):
        """Blocks cut inside a partition and between partitions change no front.

        Every block of one ``m`` holds rows of one or more partitions; a tiny
        budget cuts the stack's blocks anywhere in that order.
        """
        rng = np.random.default_rng(7000 + budget)
        instances = [integer_instance(rng, (4, 8), (4, 6)) for _ in range(4)]
        instances += [random_instance(rng, (4, 6), (4, 6)) for _ in range(2)]
        with monkeypatch.context() as patch:
            patch.setattr(exact, "_dominated", _keep_every_prefix)
            fronts = [_front_key(_scan_front(spec, pl)) for spec, pl in instances]
        groups = {}  # the partitions of each grown block, by instance, m and depth
        grow = exact._grow
        monkeypatch.setattr(exact, "_ROW_BUDGET", budget)
        for i, ((spec, pl), front) in enumerate(zip(instances, fronts)):
            monkeypatch.setattr(
                exact,
                "_grow",
                lambda block, wsum, *rest, i=i: groups.setdefault(
                    (i, wsum.shape[1], block[1].shape[1]), []
                ).append(block[0].tolist()) or grow(block, wsum, *rest),
            )
            assert _front_key(_scan_front(spec, pl)) == front
        pairs = [(a, b) for run in groups.values() for a, b in zip(run, run[1:])]
        # a cut inside a partition: its rows continue in the next block
        assert any(a[-1] == b[0] for a, b in pairs)
        # a cut between two partitions of the same m
        assert any(a[-1] < b[0] for a, b in pairs)
        # a block spans partitions once it holds two prefixes' extensions at
        # the first interval: 2p <= 12 rows
        spans = any(len(set(b)) > 1 for run in groups.values() for b in run)
        assert spans == (budget >= 12)

    def test_p14_peak_memory_stays_bounded(self):
        """A fresh interpreter solves n=7, p=14: 34.4 M mappings.

        Scoring them all at once would build a 924 MiB processor table; the
        traced peak of the whole solve must stay under 64 MiB.
        """
        probe = textwrap.dedent(
            """
            import tracemalloc
            from pipemap import (
                BicriteriaQuery, PlatformGenSpec, generate_platform, jpeg_preset, solve
            )

            spec = jpeg_preset()
            platform = generate_platform(PlatformGenSpec(seed=14, p=14))
            tracemalloc.start()
            result = solve(spec, platform, BicriteriaQuery.minimize_period())
            print(result.evaluated, result.scored, tracemalloc.get_traced_memory()[1])
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        evaluated, scored, peak = map(int, proc.stdout.split())
        assert evaluated == count_mappings(7, 14) == 34_388_186
        assert scored < evaluated
        assert peak < 64 * 1024 * 1024, f"peak traced memory {peak} bytes"


class TestIdenticalProcessors:
    """With every processor and link alike, each processor tuple of a partition
    ties exactly, so no tied prefix is pruned and the canonical tie-break
    decides every front point."""

    @pytest.mark.parametrize("n", range(8, 12))
    @pytest.mark.parametrize("p", range(6, 9))
    def test_front_is_the_partition_filter(self, n, p):
        rng = np.random.default_rng(9000 + 100 * n + p)
        # integer costs and power-of-two speed and bandwidth: every sum and
        # quotient is exact, so the reference's fold order gives the same floats
        w = rng.integers(1, 33, n).astype(float)
        delta = rng.integers(0, 17, n + 1).astype(float)
        b = np.full((p + 2, p + 2), 2.0 ** rng.integers(0, 4))
        np.fill_diagonal(b, 0.0)
        spec = PipelineSpec(tuple(f"s{k}" for k in range(n)), w, delta)
        platform = Platform(s=np.full(p, 2.0 ** rng.integers(0, 4)), b=b)
        period, latency, mappings, _ = _front_key(_scan_front(spec, platform))
        expected = oracle.identical_front(*as_lists(spec, platform))
        assert list(zip(period, latency, mappings)) == expected

    @pytest.mark.parametrize(
        "n, p", [(12, 10), (12, 12), (13, 11), (14, 12), (15, 9), (16, 12)]
    )
    def test_front_is_the_partition_filter_at_larger_sizes(self, n, p):
        """All processors form one class, so these sizes scan in milliseconds."""
        self.test_front_is_the_partition_filter(n, p)

    def test_oversize_scan_fails_before_any_table(self, monkeypatch, tmp_path, capsys):
        """``n=24, p=14`` would keep 2.4 GiB of partition tables: a
        ``ValueError`` before the first is built, and CLI exit 1.  The limit
        still lets ``n=22, p=14`` scan, with 656 MiB of tables."""

        def kept(n, p):
            return sum(exact._table_bytes(n, m) for m in range(1, min(n, p) + 1))

        assert round(kept(22, 14) / 2**20) == 656
        assert kept(22, 14) <= exact._TABLE_BYTES_LIMIT < kept(24, 14)

        def refuse(n, m):
            raise AssertionError(f"_partitions({n}, {m}) called")

        monkeypatch.setattr(exact, "_partitions", refuse)
        spec, platform = _shape_only(24, 14)
        message = (
            "an exact scan of n=24 stages on p=14 processors would keep 2,429 MiB"
            " of partition tables, over the 1,024 MiB limit"
        )
        with pytest.raises(ValueError) as err:
            solve(spec, platform, BicriteriaQuery.minimize_period())
        assert str(err.value) == message
        assert "_scan_tables" not in spec.__dict__
        write_pipeline(spec, str(tmp_path / "p24.json"))
        write_platform(platform, str(tmp_path / "same14.json"))
        code = main(
            ["solve", "--pipeline", str(tmp_path / "p24.json"),
             "--platform", str(tmp_path / "same14.json"), "--period", "1e9"]
        )
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")


class TestProcessorClasses:
    """Interchangeable processors: the scan extends a prefix by the first free
    member of each class only, and changes no front."""

    @pytest.mark.parametrize("pattern", ["uniform", "receiver", "pair"])
    @pytest.mark.parametrize("seed", range(3))
    def test_front_equals_the_scan_without_classes(self, seed, pattern):
        rng = np.random.default_rng(9600 + seed)
        fewer = 0
        for k in range(12):
            spec, _ = integer_instance(rng, (2, 7), (1, 1))
            p = int(rng.integers(3, 7))
            if k % 2:
                # mixed speed classes
                classes = rng.integers(0, 3, p)
            else:
                # one interchangeable pair among distinct processors
                classes = np.arange(p)
                u, v = rng.choice(p, 2, replace=False)
                classes[v] = classes[u]
            platform = planted_platform(rng, classes, pattern)
            assert platform._lead.tolist() == planted_lead(classes)
            front = _scan_front(spec, platform)
            plain = _scan_front(spec, _without_classes(platform))
            assert _front_key(front) == _front_key(plain)
            assert front.scored <= plain.scored
            fewer += front.scored < plain.scored
        assert fewer > 0

    def test_bounds_off_scores_one_mapping_per_swap_orbit(
        self, monkeypatch, tiny_spec, tiny3_platform
    ):
        # processors 2 and 3 are alike: of the 21 mappings, the scan scores
        # the 11 that use 2 whenever they use 3, and 2 first
        assert tiny3_platform._lead.tolist() == [0, 0, 0, 2]
        monkeypatch.setattr(exact, "_dominated", _keep_every_prefix)
        front = _scan_front(tiny_spec, tiny3_platform)
        assert (front.evaluated, front.scored) == (count_mappings(3, 3), 11)
        plain = _scan_front(tiny_spec, _without_classes(tiny3_platform))
        assert plain.scored == plain.evaluated
        assert _front_key(front) == _front_key(plain)
