import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipemap import (
    EPS_CMP,
    IntervalMapping,
    InvalidMappingError,
    PipelineSpec,
    Platform,
    evaluate_metrics,
    jpeg_preset,
    meets_threshold,
    validate,
)
import pipemap
import pipemap.exact
import pipemap.model
from pipemap.model import BicriteriaQuery, MappingMetrics, _chain_terms

from conftest import uniform_bandwidth
from util import (
    integer_instance,
    planted_lead,
    planted_platform,
    random_instance,
    random_valid_mapping,
    with_zero_delta,
)


class TestTypes:
    def test_pipeline_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError, match="positive"):
            PipelineSpec(stage_names=("a",), w=[0.0], delta=[1, 1])

    def test_pipeline_rejects_negative_volume(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PipelineSpec(stage_names=("a",), w=[1.0], delta=[-1, 1])

    def test_pipeline_rejects_wrong_delta_length(self):
        with pytest.raises(ValueError, match="n\\+1"):
            PipelineSpec(stage_names=("a", "b"), w=[1, 2], delta=[1, 1])

    def test_pipeline_rejects_name_mismatch(self):
        with pytest.raises(ValueError, match="stage_names"):
            PipelineSpec(stage_names=("a",), w=[1, 2], delta=[1, 1, 1])

    def test_platform_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError, match="speeds"):
            Platform(s=[1.0, 0.0], b=uniform_bandwidth(2))

    def test_platform_rejects_bad_matrix_shape(self):
        with pytest.raises(ValueError, match="matrix"):
            Platform(s=[1.0], b=np.ones((2, 2)))

    def test_platform_rejects_nonpositive_offdiagonal(self):
        b = uniform_bandwidth(2)
        b[0, 1] = 0.0
        with pytest.raises(ValueError, match="bandwidths"):
            Platform(s=[1.0, 2.0], b=b)

    def test_platform_diagonal_is_not_validated(self):
        b = uniform_bandwidth(2)
        assert Platform(s=[1.0, 2.0], b=b).p == 2

    def test_arrays_are_read_only(self, tiny_spec, tiny_platform):
        with pytest.raises(ValueError):
            tiny_spec.w[0] = 5.0
        with pytest.raises(ValueError):
            tiny_platform.b[0, 1] = 5.0

    def test_signature_round_trip(self):
        mapping = IntervalMapping(intervals=((1, 2), (3, 3)), assignees=(1, 2))
        assert mapping.signature() == "1-2@p1;3-3@p2"
        assert IntervalMapping.from_signature("1-2@p1;3-3@p2") == mapping
        assert IntervalMapping.from_signature("1-2@1;3-3@2") == mapping

    def test_signature_rejects_garbage(self):
        with pytest.raises(ValueError):
            IntervalMapping.from_signature("1-2")
        with pytest.raises(ValueError):
            IntervalMapping.from_signature("")


class TestValidate:
    def test_valid_mapping(self, tiny_spec, tiny_platform, tiny_two_intervals):
        assert validate(tiny_spec, tiny_platform, tiny_two_intervals) is None

    def test_gap_message(self, tiny_spec, tiny_platform):
        mapping = IntervalMapping(intervals=((1, 1), (3, 3)), assignees=(1, 2))
        assert validate(tiny_spec, tiny_platform, mapping) == "gap: d_2 != e_1 + 1"

    def test_double_assignment_message(self, tiny_spec, tiny_platform):
        mapping = IntervalMapping(intervals=((1, 1), (2, 3)), assignees=(1, 1))
        assert (
            validate(tiny_spec, tiny_platform, mapping) == "processor P1 assigned twice"
        )

    def test_must_start_at_stage_one(self, tiny_spec, tiny_platform):
        mapping = IntervalMapping(intervals=((2, 3),), assignees=(1,))
        assert "starts at stage 2" in validate(tiny_spec, tiny_platform, mapping)

    def test_must_end_at_stage_n(self, tiny_spec, tiny_platform):
        mapping = IntervalMapping(intervals=((1, 2),), assignees=(1,))
        assert "ends at stage 2" in validate(tiny_spec, tiny_platform, mapping)

    def test_processor_out_of_range(self, tiny_spec, tiny_platform):
        mapping = IntervalMapping(intervals=((1, 3),), assignees=(3,))
        assert "P3" in validate(tiny_spec, tiny_platform, mapping)

    def test_too_many_intervals(self, tiny_spec):
        platform = Platform(s=[1.0], b=uniform_bandwidth(1))
        mapping = IntervalMapping(intervals=((1, 1), (2, 3)), assignees=(1, 2))
        message = validate(tiny_spec, platform, mapping)
        assert "exceed" in message or "P2" in message

    def test_empty_interval(self, tiny_spec, tiny_platform):
        mapping = IntervalMapping(intervals=((1, 3), (3, 3)), assignees=(1, 2))
        assert validate(tiny_spec, tiny_platform, mapping) is not None

    def test_evaluators_reject_invalid(self, tiny_spec, tiny_platform):
        mapping = IntervalMapping(intervals=((1, 1), (3, 3)), assignees=(1, 2))
        with pytest.raises(InvalidMappingError, match="gap"):
            evaluate_metrics(tiny_spec, tiny_platform, mapping)


class TestEvaluation:
    """Frozen numbers for the three-stage example, worked out by hand.

    With costs (4, 6, 2), volumes all 2, speeds (2, 1) and every bandwidth 2:
    the whole chain on P1 needs 1 + 12/2 + 1 = 8 per item; the split
    ``1-2@p1;3-3@p2`` gives cycles (1+5+1, 1+2+1) = (7, 4); the split
    ``1-1@p2;2-3@p1`` gives cycles (1+4+1, 1+4+1) = (6, 6).
    """

    def test_single_interval_period(self, tiny_spec, tiny_platform, tiny_all_on_p1):
        metrics = evaluate_metrics(tiny_spec, tiny_platform, tiny_all_on_p1)
        assert metrics.per_processor_period == (8.0,)
        assert metrics.period == 8.0

    def test_two_interval_period(self, tiny_spec, tiny_platform, tiny_two_intervals):
        metrics = evaluate_metrics(tiny_spec, tiny_platform, tiny_two_intervals)
        assert metrics.per_processor_period == (7.0, 4.0)
        assert metrics.period == 7.0

    def test_reversed_split_period(self, tiny_spec, tiny_platform):
        mapping = IntervalMapping.from_signature("1-1@p2;2-3@p1")
        metrics = evaluate_metrics(tiny_spec, tiny_platform, mapping)
        assert metrics.per_processor_period == (6.0, 6.0)
        assert metrics.period == 6.0

    def test_latencies(self, tiny_spec, tiny_platform, tiny_all_on_p1, tiny_two_intervals):
        assert evaluate_metrics(tiny_spec, tiny_platform, tiny_all_on_p1).latency == 8.0
        assert evaluate_metrics(tiny_spec, tiny_platform, tiny_two_intervals).latency == 10.0
        reversed_split = IntervalMapping.from_signature("1-1@p2;2-3@p1")
        assert evaluate_metrics(tiny_spec, tiny_platform, reversed_split).latency == 11.0

    def test_metrics_bundle(self, tiny_spec, tiny_platform, tiny_two_intervals):
        metrics = evaluate_metrics(tiny_spec, tiny_platform, tiny_two_intervals)
        assert metrics.period == 7.0
        assert metrics.latency == 10.0
        assert metrics.per_processor_period == (7.0, 4.0)

    def test_zero_volume_transfers_cost_nothing(self, tiny_platform):
        spec = PipelineSpec(stage_names=("a", "b"), w=[4, 2], delta=[0, 0, 0])
        mapping = IntervalMapping(intervals=((1, 1), (2, 2)), assignees=(1, 2))
        metrics = evaluate_metrics(spec, tiny_platform, mapping)
        assert metrics.period == 2.0  # 4/2 on p1 vs 2/1 on p2, no transfer cost
        assert metrics.latency == 4.0


def _left_fold(w, d, e):
    acc = 0.0
    for k in range(d - 1, e):
        acc += w[k]
    return acc


class TestStageCostTable:
    """``PipelineSpec._costs``, the stage costs every scorer indexes."""

    # 1 + 1e-16 rounds back to 1, so the left fold and math.fsum disagree
    CRAFTED = PipelineSpec(stage_names=("a", "b", "c"), w=[1.0, 1e-16, 1e-16], delta=[1] * 4)

    def test_every_entry_is_a_left_fold(self):
        rng = np.random.default_rng(16)
        specs = [self.CRAFTED, jpeg_preset()]
        for n in (1, 2, 5, 12, 24):
            specs.append(
                PipelineSpec(
                    stage_names=tuple(f"s{k}" for k in range(n)),
                    w=rng.uniform(0.01, 100.0, n),
                    delta=rng.uniform(0.0, 10.0, n + 1),
                )
            )
        for spec in specs:
            w, n = spec.w.tolist(), spec.n
            costs = spec._costs
            assert len(costs) == n + 1
            for d, row in enumerate(costs):
                assert len(row) == n + 1
                for e, cost in enumerate(row):
                    assert type(cost) is float
                    assert cost == (_left_fold(w, d, e) if d >= 1 and e >= d else 0.0)

    def test_fold_is_not_fsum(self):
        w = self.CRAFTED.w.tolist()
        assert self.CRAFTED._costs[1][3] == 1.0
        assert math.fsum(w) == 1.0 + 2**-52 != self.CRAFTED._costs[1][3]

    def test_table_is_built_once_and_is_not_a_field(self):
        spec = jpeg_preset()
        table = spec._costs
        assert type(table) is tuple and all(type(row) is tuple for row in table)
        assert spec._costs is table
        assert "_costs" not in {f.name for f in dataclasses.fields(PipelineSpec)}
        fresh = jpeg_preset()
        assert (repr(spec), hash(spec)) == (repr(fresh), hash(fresh)) and spec == fresh

    def test_array_view_is_the_table_built_once_and_read_only(self):
        spec = jpeg_preset()
        costs = spec._cost_array
        assert costs.dtype == np.float64 and costs.shape == (spec.n + 1, spec.n + 1)
        assert costs.tolist() == [list(row) for row in spec._costs]
        assert spec._cost_array is costs
        with pytest.raises(ValueError):
            costs[1, 1] = 0.0
        assert "_cost_array" not in {f.name for f in dataclasses.fields(PipelineSpec)}
        fresh = jpeg_preset()
        assert (repr(spec), hash(spec)) == (repr(fresh), hash(fresh)) and spec == fresh


def _seeded_instances(seed):
    """Random and integer instances, each also with one zero data volume."""
    rng = np.random.default_rng(seed)
    for _ in range(12):
        for spec, platform in (
            random_instance(rng, (1, 9), (1, 7), allow_zero_delta=False),
            integer_instance(rng, (1, 9), (1, 7)),
        ):
            yield rng, spec, platform
            yield rng, with_zero_delta(rng, spec), platform


class TestFloatViews:
    """``PipelineSpec._delta``, ``Platform._s`` and ``Platform._b``."""

    def test_views_are_tolist_tuples_built_once(self):
        for _, spec, platform in _seeded_instances(19):
            for owner, name, array in (
                (spec, "_delta", spec.delta),
                (platform, "_s", platform.s),
                (platform, "_b", platform.b),
            ):
                view = getattr(owner, name)
                assert getattr(owner, name) is view
                rows = view if name == "_b" else (view,)
                assert type(view) is tuple and all(type(row) is tuple for row in rows)
                assert all(type(x) is float for row in rows for x in row)
                assert view == (
                    tuple(map(tuple, array.tolist())) if name == "_b" else tuple(array.tolist())
                )
                # bit for bit, the sign of a zero included
                assert np.shape(view) == array.shape
                assert np.array(view).tobytes() == array.tobytes()

    def test_views_are_not_fields(self):
        spec = jpeg_preset()
        platform = Platform(s=[1.0, 2.0], b=uniform_bandwidth(2, 3.0))
        spec._delta, platform._s, platform._b  # built before repr, hash and ==
        assert "_delta" not in {f.name for f in dataclasses.fields(PipelineSpec)}
        assert not {"_s", "_b"} & {f.name for f in dataclasses.fields(Platform)}
        fresh = Platform(s=[1.0, 2.0], b=uniform_bandwidth(2, 3.0))
        assert (repr(platform), hash(platform)) == (repr(fresh), hash(fresh))
        assert platform == fresh and spec == jpeg_preset()



class TestProcessorClasses:
    """``Platform._lead``: which processors are interchangeable."""

    @pytest.mark.parametrize("pattern", ["uniform", "receiver", "pair"])
    def test_planted_classes_are_found_and_swaps_keep_every_metric(self, pattern):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = int(rng.integers(2, 8))
            classes = rng.integers(0, int(rng.integers(1, p + 1)), p)
            platform = planted_platform(rng, classes, pattern)
            assert platform._lead.tolist() == planted_lead(classes)
            spec, _ = integer_instance(rng, (1, 8), (1, 1))
            for _ in range(10):
                mapping = random_valid_mapping(rng, spec.n, p)
                u = mapping.assignees[0]
                twins = [v for v in range(1, p + 1) if classes[v - 1] == classes[u - 1]]
                v = int(rng.choice(twins))
                swap = {u: v, v: u}
                swapped = IntervalMapping(
                    mapping.intervals, tuple(swap.get(x, x) for x in mapping.assignees)
                )
                assert evaluate_metrics(spec, platform, swapped) == evaluate_metrics(
                    spec, platform, mapping
                )

    def test_only_read_links_count(self):
        b = uniform_bandwidth(4, 2.0)
        # the diagonal, the links towards the input and from the output are never read
        b[np.diag_indices(6)] = [5.0, 6.0, 7.0, 8.0, 9.0, 1.0]
        b[1:, 0] = [3.0, 4.0, 5.0, 6.0, 7.0]
        b[5, :5] = [1.0, 3.0, 5.0, 7.0, 9.0]
        assert Platform(s=[1.0] * 4, b=b)._lead.tolist() == [0, 0, 1, 2, 3]
        # a different speed, input link or one-way link splits a class
        assert Platform(s=[1.0, 2.0, 1.0, 1.0], b=b)._lead.tolist() == [0, 0, 0, 1, 3]
        into = b.copy()
        into[0, 2] = 3.0
        assert Platform(s=[1.0] * 4, b=into)._lead.tolist() == [0, 0, 0, 1, 3]
        one_way = b.copy()
        one_way[1, 2] = 3.0
        assert Platform(s=[1.0] * 4, b=one_way)._lead.tolist() == [0, 0, 0, 0, 3]

    def test_class_view_is_built_once_and_not_a_field(self):
        platform = Platform(s=[1.0, 2.0, 1.0], b=uniform_bandwidth(3, 3.0))
        lead = platform._lead
        assert platform._lead is lead and lead.tolist() == [0, 0, 0, 1]
        assert lead.dtype == np.intp and not lead.flags.writeable
        assert "_lead" not in {f.name for f in dataclasses.fields(Platform)}
        fresh = Platform(s=[1.0, 2.0, 1.0], b=uniform_bandwidth(3, 3.0))
        assert (repr(platform), hash(platform)) == (repr(fresh), hash(fresh))
        assert platform == fresh
        assert not Platform(s=[1.0, 2.0, 3.0], b=uniform_bandwidth(3, 3.0))._lead.any()

def _reference_chain_terms(spec, platform, mapping):
    """The chain terms from numpy scalars as two lists, interleaved into fold order.

    An independent reference for :func:`pipemap.model._chain_terms`: links
    are ``float(delta[k] / b[u, v])`` on numpy scalars and compute times
    divide the stage-cost table by ``s.tolist()``.
    """
    delta, s, b = spec.delta, platform.s.tolist(), platform.b
    nodes = (0, *mapping.assignees, platform.p + 1)
    volumes = [d - 1 for d, _ in mapping.intervals] + [spec.n]
    links = [float(delta[k] / b[u, v]) for k, u, v in zip(volumes, nodes, nodes[1:])]
    costs = spec._costs
    comps = [costs[d][e] / s[u - 1] for (d, e), u in zip(mapping.intervals, mapping.assignees)]
    return [t for pair in zip(links, comps) for t in pair] + [links[-1]]


class TestChainTerms:
    def test_fold_order_matches_reference_for_every_m(self):
        seen_zero = 0
        for rng, spec, platform in _seeded_instances(23):
            n, p = spec.n, platform.p
            for m in range(1, min(n, p) + 1):
                cuts = sorted(rng.choice(np.arange(1, n), m - 1, replace=False).tolist())
                bounds = [0, *cuts, n]
                mapping = IntervalMapping(
                    intervals=tuple(zip((x + 1 for x in bounds), bounds[1:])),
                    assignees=tuple(rng.choice(np.arange(1, p + 1), m, replace=False).tolist()),
                )
                terms = _chain_terms(spec, platform, mapping)
                assert all(type(t) is float for t in terms)
                assert terms == _reference_chain_terms(spec, platform, mapping)
                seen_zero += 0.0 in terms[0::2]
                metrics = evaluate_metrics(spec, platform, mapping)
                assert metrics.per_processor_period == tuple(
                    terms[2 * j] + terms[2 * j + 1] + terms[2 * j + 2] for j in range(m)
                )
        assert seen_zero

    def test_one_bottleneck_rule(self):
        """The first interval with the largest cycle, for the heuristics and the simulator."""
        from pipemap import heuristics, simulator

        assert pipemap.model._bottleneck((1.0, 3.0, 2.0, 3.0)) == 1
        assert heuristics._bottleneck is simulator._bottleneck is pipemap.model._bottleneck


class TestThreshold:
    def test_meets_threshold_pads_relative(self):
        assert meets_threshold(100.0 + 5e-8, 100.0)
        assert not meets_threshold(100.0 + 5e-7, 100.0)

    def test_meets_threshold_small_magnitudes(self):
        assert meets_threshold(1e-12 + 2e-13, 1e-12)  # absolute slack dominates
        assert meets_threshold(5.0, math.inf)


def _instances(draw_mapping: bool):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, 5))
        p = draw(st.integers(1, 4))
        pos = st.floats(0.5, 100.0, allow_nan=False, allow_infinity=False)
        vol = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
        w = draw(st.lists(pos, min_size=n, max_size=n))
        delta = draw(st.lists(vol, min_size=n + 1, max_size=n + 1))
        s = draw(st.lists(pos, min_size=p, max_size=p))
        flat = draw(
            st.lists(pos, min_size=(p + 2) * (p + 2), max_size=(p + 2) * (p + 2))
        )
        b = np.array(flat).reshape(p + 2, p + 2)
        spec = PipelineSpec(
            stage_names=tuple(f"s{k}" for k in range(n)), w=w, delta=delta
        )
        platform = Platform(s=s, b=b)
        if not draw_mapping:
            return spec, platform
        m = draw(st.integers(1, min(n, p)))
        cuts = draw(
            st.lists(
                st.integers(1, n - 1), min_size=m - 1, max_size=m - 1, unique=True
            ).map(sorted)
            if m > 1
            else st.just([])
        )
        bounds = [0] + list(cuts) + [n]
        intervals = tuple((bounds[i] + 1, bounds[i + 1]) for i in range(m))
        procs = draw(st.permutations(range(1, p + 1)).map(lambda x: tuple(x[:m])))
        return spec, platform, IntervalMapping(intervals=intervals, assignees=procs)

    return build()


class TestInvariants:
    @settings(max_examples=150, deadline=None)
    @given(_instances(draw_mapping=True))
    def test_latency_dominates_period(self, case):
        spec, platform, mapping = case
        metrics = evaluate_metrics(spec, platform, mapping)
        assert metrics.period <= metrics.latency + EPS_CMP * max(1.0, metrics.latency)
        assert metrics.period == max(metrics.per_processor_period)

    @settings(max_examples=100, deadline=None)
    @given(_instances(draw_mapping=False))
    def test_single_interval_collapse(self, case):
        spec, platform = case
        mapping = IntervalMapping.single_interval(spec.n, 1)
        metrics = evaluate_metrics(spec, platform, mapping)
        w_total = 0.0
        for value in spec.w:
            w_total += value
        expected = (
            spec.delta[0] / platform.b[0, 1]
            + w_total / platform.s[0]
            + spec.delta[spec.n] / platform.b[1, platform.p + 1]
        )
        assert metrics.period == pytest.approx(expected, rel=1e-12)
        assert metrics.latency == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_instances(draw_mapping=True), st.floats(0.01, 1000.0))
    def test_scaling_covariance(self, case, c):
        spec, platform, mapping = case
        before = evaluate_metrics(spec, platform, mapping)
        scaled = PipelineSpec(
            stage_names=spec.stage_names, w=spec.w * c, delta=spec.delta * c
        )
        after = evaluate_metrics(scaled, platform, mapping)
        assert after.period == pytest.approx(before.period * c, rel=1e-9)
        assert after.latency == pytest.approx(before.latency * c, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(_instances(draw_mapping=True), st.floats(1.0, 16.0))
    def test_speed_monotonicity(self, case, factor):
        spec, platform, mapping = case
        before = evaluate_metrics(spec, platform, mapping)
        faster = Platform(s=platform.s * factor, b=platform.b)
        after = evaluate_metrics(spec, faster, mapping)
        slack = EPS_CMP * max(1.0, before.latency)
        assert after.period <= before.period + slack
        assert after.latency <= before.latency + slack

    @settings(max_examples=50, deadline=None)
    @given(_instances(draw_mapping=True))
    def test_homogeneous_platform_ignores_identity(self, case):
        spec, platform, mapping = case
        p = platform.p
        flat = Platform(s=np.full(p, 7.0), b=uniform_bandwidth(p, 3.0))
        reference = evaluate_metrics(spec, flat, mapping)
        procs = list(mapping.assignees)
        rotated = tuple(procs[1:] + procs[:1]) if len(procs) > 1 else tuple(procs)
        other = IntervalMapping(intervals=mapping.intervals, assignees=rotated)
        relabeled = evaluate_metrics(spec, flat, other)
        assert relabeled.period == pytest.approx(reference.period, rel=1e-12)
        assert relabeled.latency == pytest.approx(reference.latency, rel=1e-12)


class TestRandomizedAgainstSeeds:
    def test_metrics_deterministic(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec, platform = random_instance(rng)
            mapping = random_valid_mapping(rng, spec.n, platform.p)
            a = evaluate_metrics(spec, platform, mapping)
            b = evaluate_metrics(spec, platform, mapping)
            assert a.period == b.period and a.latency == b.latency


class TestJpegPreset:
    def test_shape_and_names(self):
        spec = jpeg_preset()
        assert spec.n == 7
        assert spec.stage_names == (
            "scaling",
            "color-space conversion",
            "subsampling",
            "MCU creation",
            "FDCT",
            "quantization",
            "entropy coding",
        )

    def test_transform_stage_dominates(self):
        spec = jpeg_preset()
        fdct = spec.stage_names.index("FDCT")
        assert spec.w[fdct] == max(spec.w)
        assert sum(spec.w > spec.w[fdct] - 1e-12) == 1  # strict maximum


class TestBicriteriaQuery:
    """The query and its objective rule belong to ``model``."""

    METRICS = MappingMetrics(period=2.0, latency=5.0, per_processor_period=(2.0, 1.5))

    @pytest.mark.parametrize("threshold", [1.0, 3.0, math.inf])
    def test_objective_of_is_the_minimized_criterion(self, threshold):
        # the rule does not read the threshold, whether the metrics meet it or not
        assert BicriteriaQuery.minimize_latency(threshold).objective_of(self.METRICS) == 5.0
        assert BicriteriaQuery.minimize_period(threshold).objective_of(self.METRICS) == 2.0

    def test_one_class(self):
        assert pipemap.BicriteriaQuery is pipemap.model.BicriteriaQuery
        assert pipemap.exact.BicriteriaQuery is pipemap.model.BicriteriaQuery


# The package-relative modules each engine may import at its top level.
_ENGINE_SIBLINGS = {
    "exact": {"model", "_kernels"},
    "heuristics": {"model"},
    "ilp": {"model"},
    "simulator": {"model"},
}


@pytest.mark.parametrize("name", sorted(_ENGINE_SIBLINGS))
def test_engines_import_no_sibling_but_model(name):
    source = Path(pipemap.__file__).with_name(f"{name}.py").read_text(encoding="utf-8")
    siblings = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                siblings.add(node.module.partition(".")[0])
            else:  # ``from . import x``
                siblings.update(alias.name for alias in node.names)
    assert siblings == _ENGINE_SIBLINGS[name]
