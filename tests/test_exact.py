import hashlib
import itertools
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import pipemap.exact as exact
from pipemap import _kernels
from pipemap import (
    BicriteriaQuery,
    IntervalMapping,
    PipelineSpec,
    Platform,
    PlatformGenSpec,
    count_mappings,
    enumerate_mappings,
    evaluate_metrics,
    generate_platform,
    jpeg_preset,
    solve,
    sweep,
)
from pipemap.exact import (
    _complete,
    _cuts_to_intervals,
    _extend_perms,
    _grow,
    _partition_arrays,
    _scan_front,
)

import oracle
from conftest import uniform_bandwidth
from util import as_lists, integer_instance, random_instance, with_zero_delta


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
        points = sweep(
            tiny_spec,
            tiny_platform,
            BicriteriaQuery.minimize_latency(),
            [5.0, 6.0, 7.0, 8.0],
        )
        assert [pt.threshold for pt in points] == [5.0, 6.0, 7.0, 8.0]
        feasibility = [pt.result.feasible for pt in points]
        assert feasibility == [False, True, True, True]
        values = [
            pt.result.metrics.latency if pt.result.feasible else None for pt in points
        ]
        assert values == [None, 11.0, 10.0, 8.0]

    def test_thresholds_must_ascend(self, tiny_spec, tiny_platform):
        with pytest.raises(ValueError, match="ascending"):
            sweep(
                tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(), [7.0, 6.0]
            )

    def test_thresholds_must_be_nonempty(self, tiny_spec, tiny_platform):
        with pytest.raises(ValueError):
            sweep(tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(), [])


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
    def test_every_row_matches_evaluate_metrics(self):
        """The scan accumulates in ``evaluate_metrics`` order: full rows are exact."""
        rng = np.random.default_rng(77)
        for k in range(40):
            if k % 2:
                spec, platform = integer_instance(rng, n_range=(1, 7), p_range=(1, 6))
            else:
                spec, platform = random_instance(rng, n_range=(1, 7), p_range=(1, 6))
            spec = with_zero_delta(rng, spec)
            n, p = spec.n, platform.p
            zero = np.zeros(1)
            for m in range(1, min(n, p) + 1):
                for cuts in itertools.combinations(range(1, n), m - 1):
                    intervals = _cuts_to_intervals(n, cuts)
                    wsum, bvol = (a[None] for a in _partition_arrays(spec, intervals))
                    # the scan's own steps on a one-partition table, with no
                    # prefix bounded out
                    part = np.zeros(1, dtype=np.intp)
                    block = (part, np.zeros((1, 0), dtype=np.intp), zero, zero, zero)
                    for _ in range(m):
                        block = _grow(block, wsum, bvol, platform.s, platform.b)
                    periods, latencies = _complete(block, bvol, platform.b)
                    assert not block[0].any()
                    perms = block[1].tolist()
                    assert perms == [
                        list(t) for t in itertools.permutations(range(1, p + 1), m)
                    ]
                    for i, procs in enumerate(perms):
                        mapping = IntervalMapping(intervals, tuple(procs))
                        metrics = evaluate_metrics(spec, platform, mapping)
                        assert periods[i] == metrics.period
                        assert latencies[i] == metrics.latency

    def test_scan_places_every_interval_through_the_kernel(self, monkeypatch):
        """With bounds off, the kernel sees every prefix of every partition once."""
        rng = np.random.default_rng(78)
        spec, platform = random_instance(rng, n_range=(5, 5), p_range=(4, 4))
        rows = []
        kernel = _kernels.scan_perms

        def counted(wsum, bvol, s, b, perms, closed, open_, lat, part):
            # one partition index per row, into tables of one row per partition
            assert part.shape == (len(perms),) and len(wsum) == len(bvol) > part.max()
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


class TestPermTables:
    def test_extension_chain_matches_itertools(self):
        for p in range(1, 8):
            perms = np.zeros((1, 0), dtype=np.intp)
            for m in range(1, p + 1):
                perms = _extend_perms(perms, p)
                assert perms.dtype == np.intp
                assert perms.flags.f_contiguous
                assert perms.tolist() == [
                    list(t) for t in itertools.permutations(range(1, p + 1), m)
                ]

    def test_solve_keeps_no_tables(self):
        """Nothing allocated in exact.py outlives a solve: no table cache.

        A fresh interpreter runs the solve, so no earlier test can have
        filled a cache before tracing starts.
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
            query = BicriteriaQuery(sense, math.inf)
            for t in thresholds:
                yield _result_record(solve(spec, platform, BicriteriaQuery(sense, t)))
            for t, result in sweep(spec, platform, query, thresholds):
                yield [t, _result_record(result)]
    spec, platform = next(_golden_instances(1))
    for bad in ([], [2.0, 1.0]):
        with pytest.raises(ValueError) as err:
            sweep(spec, platform, BicriteriaQuery.minimize_latency(), bad)
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
        prep = exact._partition_arrays
        monkeypatch.setattr(
            exact, "_partition_arrays", lambda *args: calls.append(1) or prep(*args)
        )
        thresholds = [1.0 + 0.5 * j for j in range(k)]
        points = sweep(spec, platform, BicriteriaQuery.minimize_latency(), thresholds)
        assert len(points) == k
        partitions = sum(
            math.comb(spec.n - 1, m - 1) for m in range(1, min(spec.n, platform.p) + 1)
        )
        assert len(calls) == partitions


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


def _keep_every_prefix(front_per, front_lat, period, latency):
    """Stands in for ``exact._dominated``: the scan with its bounds off."""
    return np.zeros(period.shape, dtype=bool)


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
