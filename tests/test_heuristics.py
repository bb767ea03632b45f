import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from pipemap import (
    EPS_CMP,
    HEURISTIC_NAMES,
    BicriteriaQuery,
    IntervalMapping,
    PipelineSpec,
    Platform,
    evaluate_metrics,
    jpeg_preset,
    meets_threshold,
    run_heuristic,
    seeded_platforms,
    solve,
    validate,
)
from pipemap import exact, heuristics
from pipemap.heuristics import BinarySearchConfig, fixed_criterion_of
from pipemap.model import padded_threshold

from util import integer_instance, random_instance, with_zero_delta


class TestNaming:
    def test_all_names_dispatch(self, tiny_spec, tiny_platform):
        for name in HEURISTIC_NAMES:
            outcome = run_heuristic(name, tiny_spec, tiny_platform, 50.0)
            assert outcome.heuristic == name

    def test_unknown_name_rejected(self, tiny_spec, tiny_platform):
        with pytest.raises(ValueError, match="heuristic"):
            run_heuristic("h7", tiny_spec, tiny_platform, 5.0)

    def test_fixed_criteria(self):
        assert fixed_criterion_of("h1") == "period"
        assert fixed_criterion_of("h2") == "period"
        assert fixed_criterion_of("h3") == "period"
        assert fixed_criterion_of("h4") == "period"
        assert fixed_criterion_of("h5") == "latency"
        assert fixed_criterion_of("h6") == "latency"


class TestConfig:
    def test_defaults(self, tiny_spec, tiny_platform):
        # h2 alone searches, on fixed bounds its report records in this key order
        searches = {name: variant[3] for name, variant in heuristics._VARIANTS.items()}
        assert searches == {
            "h1": None,
            "h2": BinarySearchConfig(lower=0.0, upper_factor=4.0, iterations=20),
            "h3": None,
            "h4": None,
            "h5": None,
            "h6": None,
        }
        config = run_heuristic("h2", tiny_spec, tiny_platform, 7.0).to_dict()["search"]["config"]
        assert list(config.items()) == [("lower", 0.0), ("upper_factor", 4.0), ("iterations", 20)]


class TestTinyPeriodGoal:
    """Start state is the whole chain on the fastest processor (period 8)."""

    def test_h1_splits_to_six(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h1", tiny_spec, tiny_platform, 7.0)
        assert outcome.feasible
        assert outcome.mapping.signature() == "1-1@p2;2-3@p1"
        assert outcome.metrics.period == 6.0
        assert outcome.metrics.latency == 11.0
        assert len(outcome.trace) == 1
        event = outcome.trace[0]
        assert event.period_before == 8.0
        assert event.choice.target == 1
        assert event.choice.recipients == (2,)

    def test_h1_trivial_when_start_meets_goal(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h1", tiny_spec, tiny_platform, 8.0)
        assert outcome.feasible
        assert outcome.mapping.signature() == "1-3@p1"
        assert outcome.trace == ()

    def test_h1_infeasible_goal(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h1", tiny_spec, tiny_platform, 5.0)
        assert not outcome.feasible
        # the run still reports its best state and how it got there
        assert outcome.metrics.period == 6.0
        assert validate(tiny_spec, tiny_platform, outcome.mapping) is None

    def test_h3_two_processors_matches_h1(self, tiny_spec, tiny_platform):
        a = run_heuristic("h1", tiny_spec, tiny_platform, 7.0)
        b = run_heuristic("h3", tiny_spec, tiny_platform, 7.0)
        assert b.mapping == a.mapping
        assert b.metrics.period == a.metrics.period

    def test_h3_three_processors_three_way(self, tiny_spec, tiny3_platform):
        outcome = run_heuristic("h3", tiny_spec, tiny3_platform, 6.0)
        assert outcome.feasible
        assert outcome.mapping.signature() == "1-1@p2;2-2@p1;3-3@p3"
        assert outcome.metrics.period == 6.0
        assert len(outcome.trace) == 1
        assert outcome.trace[0].choice.recipients == (2, 3)

    def test_h4_ratio_rule_on_tiny(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h4", tiny_spec, tiny_platform, 7.0)
        assert outcome.feasible
        assert outcome.metrics.period <= 7.0 + 1e-9
        assert validate(tiny_spec, tiny_platform, outcome.mapping) is None


class TestTinyLatencyCap:
    def test_h5_cap_ten(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h5", tiny_spec, tiny_platform, 10.0)
        assert outcome.feasible
        assert outcome.mapping.signature() == "1-2@p1;3-3@p2"
        assert outcome.metrics.period == 7.0
        assert outcome.metrics.latency == 10.0

    def test_h5_cap_below_start_latency(self, tiny_spec, tiny_platform):
        # the start state (all on the fastest) has latency 8; a cap of 7 is
        # unreachable and the run reports infeasible without splitting
        outcome = run_heuristic("h5", tiny_spec, tiny_platform, 7.0)
        assert not outcome.feasible
        assert outcome.trace == ()
        assert outcome.mapping.signature() == "1-3@p1"

    def test_h6_loose_cap_reaches_best_period(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h6", tiny_spec, tiny_platform, 11.0)
        assert outcome.feasible
        assert outcome.metrics.period == 6.0
        assert outcome.metrics.latency <= 11.0 + 1e-9

    def test_h5_h6_objective_value_is_period(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h5", tiny_spec, tiny_platform, 10.0)
        assert outcome.fixed_criterion == "latency"
        assert outcome.objective_value == outcome.metrics.period


class TestTinyBisection:
    def test_h2_tight_goal(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h2", tiny_spec, tiny_platform, 7.0)
        assert outcome.feasible
        assert outcome.mapping.signature() == "1-2@p1;3-3@p2"
        assert outcome.metrics.period == 7.0
        assert outcome.metrics.latency == 10.0
        # the allowance search converges onto the exact extra latency the
        # split needs: 10 - 8 = 2
        assert outcome.search.chosen_increase == 2.0
        assert outcome.search.base_latency == 8.0
        assert outcome.search.upper_bound == 32.0
        assert len(outcome.search.trials) == 21

    def test_h2_loose_goal_no_splits(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h2", tiny_spec, tiny_platform, 8.0)
        assert outcome.feasible
        assert outcome.mapping.signature() == "1-3@p1"
        assert outcome.trace == ()
        # the start state meets the goal: one trial, and no increase needed
        assert len(outcome.search.trials) == 1
        assert outcome.search.chosen_increase == 0.0

    def test_h2_impossible_goal(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h2", tiny_spec, tiny_platform, 5.0)
        assert not outcome.feasible
        assert outcome.search.chosen_increase is None
        assert len(outcome.search.trials) == 1  # upper bound failed, no bisection

    def test_h2_trials_recorded_with_shrinking_allowance(self, tiny_spec, tiny_platform):
        outcome = run_heuristic("h2", tiny_spec, tiny_platform, 7.0)
        increases = [t.authorized_increase for t in outcome.search.trials]
        assert increases[0] == outcome.search.upper_bound
        # bisection narrows monotonically around the answer
        assert min(increases) <= 2.0 <= max(increases)
        successes = [t for t in outcome.search.trials if t.feasible]
        assert all(t.latency <= 8.0 + t.authorized_increase + 1e-9 for t in successes)

    def test_h2_evaluates_start_once(self, monkeypatch, tiny_spec, tiny_platform):
        # the start state is shared by every trial of the allowance search
        start = IntervalMapping.single_interval(tiny_spec.n, 1)
        evaluate = heuristics.evaluate_metrics
        on_start = []

        def counting(spec, platform, mapping):
            on_start.append(mapping == start)
            return evaluate(spec, platform, mapping)

        monkeypatch.setattr(heuristics, "evaluate_metrics", counting)
        outcome = run_heuristic("h2", tiny_spec, tiny_platform, 7.0)
        assert len(outcome.search.trials) == 21
        assert sum(on_start) == 1


class TestThresholdValidation:
    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_nonpositive_threshold_rejected(self, name, tiny_spec, tiny_platform):
        with pytest.raises(ValueError):
            run_heuristic(name, tiny_spec, tiny_platform, 0.0)

    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_nan_threshold_rejected(self, name, tiny_spec, tiny_platform):
        with pytest.raises(ValueError):
            run_heuristic(name, tiny_spec, tiny_platform, math.nan)


def _run_battery(seed_base: int, count: int):
    """Yield (spec, platform, name, threshold, outcome) across random cases."""
    rng = np.random.default_rng(seed_base)
    for _ in range(count):
        spec, platform = random_instance(rng, n_range=(1, 6), p_range=(1, 5))
        free = solve(spec, platform, BicriteriaQuery.minimize_period())
        for name in HEURISTIC_NAMES:
            if fixed_criterion_of(name) == "period":
                anchor = free.min_period
            else:
                anchor = free.min_latency
            factor = rng.choice([0.9, 1.0, 1.12, 1.6])
            threshold = float(anchor * factor)
            outcome = run_heuristic(name, spec, platform, threshold)
            yield spec, platform, name, threshold, outcome


class TestRandomizedBattery:
    def test_outcomes_are_valid_and_safe(self):
        for spec, platform, name, threshold, outcome in _run_battery(500, 25):
            assert validate(spec, platform, outcome.mapping) is None
            fresh = evaluate_metrics(spec, platform, outcome.mapping)
            assert fresh.period == outcome.metrics.period
            assert fresh.latency == outcome.metrics.latency
            if outcome.feasible:
                if fixed_criterion_of(name) == "period":
                    assert meets_threshold(outcome.metrics.period, threshold)
                else:
                    assert meets_threshold(outcome.metrics.latency, threshold)
            if fixed_criterion_of(name) == "period":
                # one verdict for h1..h4, the h2 search included
                assert outcome.feasible == meets_threshold(outcome.metrics.period, threshold)
            # every event carries the state it leads to, and the last is the outcome's
            for event in outcome.trace:
                assert evaluate_metrics(spec, platform, event.mapping_after) == event.metrics_after
            if outcome.trace:
                assert outcome.trace[-1].mapping_after == outcome.mapping

    def test_trace_periods_strictly_decrease(self):
        for spec, platform, name, threshold, outcome in _run_battery(600, 25):
            periods = [event.period_before for event in outcome.trace]
            periods.append(outcome.metrics.period)
            for before, after in zip(periods, periods[1:]):
                assert after < before

    def test_latency_caps_never_violated_mid_run(self):
        # H5/H6 must keep every accepted state within the latency cap, not
        # just the final one
        for spec, platform, name, threshold, outcome in _run_battery(700, 25):
            if fixed_criterion_of(name) != "latency" or not outcome.feasible:
                continue
            for event in outcome.trace:
                assert meets_threshold(event.metrics_after.latency, threshold)

    def test_split_counts_bounded_by_platform(self):
        # each accepted split consumes at least one unused processor, so a
        # run can accept at most p - 1 splits
        for spec, platform, name, threshold, outcome in _run_battery(800, 25):
            assert len(outcome.trace) <= max(0, platform.p - 1)
            drawn = sum(len(e.choice.recipients) for e in outcome.trace)
            assert drawn <= max(0, platform.p - 1)

    def test_never_better_than_exact(self):
        for spec, platform, name, threshold, outcome in _run_battery(900, 20):
            if not outcome.feasible:
                continue
            objective = (
                "latency" if fixed_criterion_of(name) == "period" else "period"
            )
            reference = solve(
                spec, platform, BicriteriaQuery(objective=objective, threshold=threshold)
            )
            assert reference.feasible
            slack = 1e-9 * max(1.0, reference.objective_value)
            assert outcome.objective_value >= reference.objective_value - slack

    def test_objective_value_is_the_querys_rule(self):
        names = set()
        for spec, platform, name, threshold, outcome in _run_battery(1100, 8):
            query = outcome.query
            assert query.fixed_criterion == outcome.fixed_criterion == fixed_criterion_of(name)
            assert query.threshold == outcome.threshold == threshold
            assert outcome.objective_value == query.objective_of(outcome.metrics)
            assert outcome.query is query
            names.add(name)
        assert names == set(HEURISTIC_NAMES)

    def test_deterministic_to_dict(self):
        first = [o.to_dict() for *_rest, o in _run_battery(1000, 10)]
        second = [o.to_dict() for *_rest, o in _run_battery(1000, 10)]
        assert first == second


class TestRoundBound:
    def test_three_way_heuristics_use_fewer_rounds(self):
        # a 3-way split draws two processors per accepted round, so H3/H4
        # need at most ceil((p - 1) / 2) rounds unless they hit the fallback
        # corner (length-2 bottleneck or a single remaining processor)
        rng = np.random.default_rng(1100)
        for _ in range(30):
            spec, platform = random_instance(rng, n_range=(3, 6), p_range=(3, 5))
            for name in ("h3", "h4"):
                outcome = run_heuristic(name, spec, platform, 1e-6)  # unreachable goal
                full_rounds = sum(
                    1 for e in outcome.trace if len(e.choice.recipients) == 2
                )
                half_rounds = sum(
                    1 for e in outcome.trace if len(e.choice.recipients) == 1
                )
                assert full_rounds + half_rounds == len(outcome.trace)
                assert 2 * full_rounds + half_rounds <= platform.p - 1


def _split_states(seed: int, count: int):
    """Seeded (spec, platform, mapping, unused) states to split.

    Each instance gives two states: three intervals of at least three stages
    each, and the whole chain as one interval.  Every other instance is
    small-integer-valued, so candidate scores tie exactly; every instance has
    one zero data volume.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        sizes = ((9, 14), (5, 8))
        if k % 2:
            spec, platform = integer_instance(rng, *sizes)
        else:
            spec, platform = random_instance(rng, *sizes, allow_zero_delta=False)
        spec = with_zero_delta(rng, spec)
        n, p = spec.n, platform.p
        # three intervals of at least three stages each
        c1 = int(rng.integers(3, n - 5))
        c2 = int(rng.integers(c1 + 3, n - 2))
        intervals = ((1, c1), (c1 + 1, c2), (c2 + 1, n))
        procs = [int(u) for u in rng.permutation(np.arange(1, p + 1))]
        yield spec, platform, IntervalMapping(intervals, tuple(procs[:3])), procs[3:]
        yield spec, platform, IntervalMapping(((1, n),), (procs[0],)), procs[1:]


def _large_split_states(seed: int, count: int):
    """Seeded (spec, platform, mapping, unused) states at the large-instance sizes.

    Instances have ``n`` in 20..24 and ``p`` in 12..14; the first two have
    ``n = 24``, so the whole chain's three-way split has ``6 * C(23, 2) =
    1518`` candidates.  Every other instance is small-integer-valued with a
    zero data volume, so candidate scores tie exactly.  Each instance gives
    the greedy start state (the whole chain on the fastest processor) and two
    states an ``h3`` run passes through: after its first split and after half
    of its splits.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        sizes = ((24, 24), (12, 14)) if k < 2 else ((20, 24), (12, 14))
        if k % 2:
            spec, platform = integer_instance(rng, *sizes)
            spec = with_zero_delta(rng, spec)
        else:
            spec, platform = random_instance(rng, *sizes)
        first = IntervalMapping.single_interval(spec.n, platform._order[0])
        yield spec, platform, first, _unused(platform, first)
        trace = run_heuristic("h3", spec, platform, 1e-6).trace  # unreachable goal
        for t in sorted({0, len(trace) // 2}):
            mapping = trace[t].mapping_after
            yield spec, platform, mapping, _unused(platform, mapping)


def _unused(platform, mapping):
    """The processors ``mapping`` leaves unused, in the platform's speed order."""
    return [u for u in platform._order if u not in mapping.assignees]


def _candidate_mapping(mapping, jidx, cuts, placement):
    """``mapping`` with interval ``jidx`` cut at ``cuts`` and placed on ``placement``."""
    d, e = mapping.intervals[jidx]
    bounds = (d - 1, *cuts, e)
    parts = tuple((lo + 1, hi) for lo, hi in zip(bounds, bounds[1:]))
    return IntervalMapping(
        mapping.intervals[:jidx] + parts + mapping.intervals[jidx + 1 :],
        mapping.assignees[:jidx] + placement + mapping.assignees[jidx + 1 :],
    )


def _reference_best_split(spec, platform, mapping, metrics, unused, three_way, ratio_rule, cap):
    """``_best_split`` with every candidate mapping built and evaluated in full.

    Returns the winner as ``_best_split`` does, as its :class:`SplitEvent`.
    """
    cycles = metrics.per_processor_period
    jidx = cycles.index(max(cycles))
    d, e = mapping.intervals[jidx]
    if d == e or not unused:
        return None
    k = 3 if three_way and e - d >= 2 and len(unused) >= 2 else 2
    recipients = tuple(unused[: k - 1])
    best = None
    for cuts in itertools.combinations(range(d, e), k - 1):
        for placement in itertools.permutations((mapping.assignees[jidx], *recipients)):
            cand = _candidate_mapping(mapping, jidx, cuts, placement)
            after = evaluate_metrics(spec, platform, cand)
            if cap is not None and not meets_threshold(after.latency, cap):
                continue
            party = after.per_processor_period[jidx : jidx + k]
            delta_latency = after.latency - metrics.latency
            delta_period = tuple(metrics.period - c for c in party)
            if ratio_rule:
                if any(dp <= 0 for dp in delta_period):
                    continue
                score = max(delta_latency / dp for dp in delta_period)
            else:
                score = max(party)
            if best is None or score < best[0].score:
                choice = heuristics.SplitChoice(
                    mapping.assignees[jidx], recipients, cuts, placement,
                    score, delta_latency, delta_period,
                )
                best = (choice, cand, after)
    if best is None:
        return None
    choice, cand, after = best
    return heuristics.SplitEvent(choice, metrics.period, metrics.latency, after, cand)


class TestSplitCandidates:
    def test_every_candidate_matches_evaluate_metrics(self):
        """Array latency and party cycles equal a full evaluation, bit for bit, in itertools order."""
        for spec, platform, mapping, unused in _split_states(31, 24):
            for jidx in range(mapping.m):
                d, e = mapping.intervals[jidx]
                for k in (2, 3):
                    recipients = tuple(unused[: k - 1])
                    cuts, placements, latency, cycles = heuristics._split_candidates(
                        spec, platform, mapping, jidx, recipients
                    )
                    assert cuts == list(itertools.combinations(range(d, e), k - 1))
                    assert placements == list(
                        itertools.permutations((mapping.assignees[jidx], *recipients))
                    )
                    assert latency.shape == (len(cuts), len(placements))
                    assert cycles.shape == (k, len(cuts), len(placements))
                    for (i, cut), (j, placement) in itertools.product(
                        enumerate(cuts), enumerate(placements)
                    ):
                        cand = _candidate_mapping(mapping, jidx, cut, placement)
                        full = evaluate_metrics(spec, platform, cand)
                        assert latency[i, j] == full.latency
                        assert tuple(cycles[:, i, j].tolist()) == (
                            full.per_processor_period[jidx : jidx + k]
                        )

    def test_reduce_along_the_first_axis_is_an_in_order_fold(self):
        """``np.add.reduce(axis=0)``, which takes a candidate's latency, adds row after row."""
        rng = np.random.default_rng(302)
        for shape in itertools.product((6, 7, 9, 17, 64, 200), (1, 2, 3, 28), (2, 6)):
            for _ in range(5):
                # magnitudes 1e-8 to 1e8, so that any other order rounds differently
                fold = rng.uniform(0.5, 1.0, shape) * 10.0 ** rng.integers(-8, 9, shape)
                expected = fold[0].copy()
                for row in fold[1:]:
                    expected += row
                assert np.add.reduce(fold, axis=0).tobytes() == expected.tobytes(), shape

    @pytest.mark.parametrize("three_way", [False, True])
    @pytest.mark.parametrize("ratio_rule", [False, True])
    def test_best_split_matches_full_evaluation(self, monkeypatch, three_way, ratio_rule):
        """Same winner, score and metrics as evaluating every candidate; one evaluation."""
        calls = []
        evaluate = heuristics.evaluate_metrics

        def counting(spec, platform, mapping):
            calls.append(mapping)
            return evaluate(spec, platform, mapping)

        for spec, platform, mapping, _ in _split_states(37, 16):
            unused = _unused(platform, mapping)
            metrics = evaluate_metrics(spec, platform, mapping)
            for cap in (None, metrics.latency, 1.02 * metrics.latency, 1.3 * metrics.latency):
                expected = _reference_best_split(
                    spec, platform, mapping, metrics, unused, three_way, ratio_rule, cap
                )
                calls.clear()
                monkeypatch.setattr(heuristics, "evaluate_metrics", counting)
                got = heuristics._best_split(
                    spec, platform,
                    heuristics._split_table(
                        spec, platform, mapping, metrics, three_way, ratio_rule
                    ),
                    math.inf if cap is None else padded_threshold(cap),
                )
                monkeypatch.setattr(heuristics, "evaluate_metrics", evaluate)
                assert got == expected
                assert calls == ([] if got is None else [got.mapping_after])

    @pytest.mark.parametrize("ratio_rule", [False, True])
    def test_best_split_matches_full_evaluation_at_large_sizes(self, ratio_rule):
        """At n 20..24 and p 12..14, from whole-chain and mid-run states, both split widths."""
        widest = 0
        for spec, platform, mapping, unused in _large_split_states(43, 6):
            metrics = evaluate_metrics(spec, platform, mapping)
            for three_way in (False, True):
                for cap in (None, metrics.latency, 1.02 * metrics.latency):
                    expected = _reference_best_split(
                        spec, platform, mapping, metrics, unused, three_way, ratio_rule, cap
                    )
                    got = heuristics._best_split(
                        spec, platform,
                        heuristics._split_table(
                            spec, platform, mapping, metrics, three_way, ratio_rule
                        ),
                        math.inf if cap is None else padded_threshold(cap),
                    )
                    assert got == expected
            jidx = metrics.per_processor_period.index(metrics.period)
            _, _, latency, _ = heuristics._split_candidates(
                spec, platform, mapping, jidx, tuple(unused[:2])
            )
            widest = max(widest, latency.size)
        assert widest == 6 * math.comb(23, 2) == 1518

    def test_latency_exactly_at_padded_cap_is_kept(self):
        """A candidate whose latency equals the padded cap meets it, as in ``meets_threshold``."""
        for spec, platform, mapping, _ in _split_states(41, 16):
            unused = _unused(platform, mapping)
            metrics = evaluate_metrics(spec, platform, mapping)
            jidx = metrics.per_processor_period.index(metrics.period)
            _, _, latency, _ = heuristics._split_candidates(
                spec, platform, mapping, jidx, tuple(unused[:1])
            )
            lowest = latency.min().item()
            cap = _cap_padding_to(lowest)
            assert cap is not None and meets_threshold(lowest, cap)
            table = heuristics._split_table(spec, platform, mapping, metrics, False, False)
            got = heuristics._best_split(spec, platform, table, padded_threshold(cap))
            assert got is not None and got.metrics_after.latency == lowest
            below = cap
            while padded_threshold(below) >= lowest:
                below = math.nextafter(below, -math.inf)
            assert heuristics._best_split(
                spec, platform,
                heuristics._split_table(spec, platform, mapping, metrics, False, False),
                padded_threshold(below),
            ) is None

    @pytest.mark.parametrize("three_way", [False, True])
    @pytest.mark.parametrize("ratio_rule", [False, True])
    def test_all_tied_candidates_pick_the_first(self, three_way, ratio_rule):
        """Identical processors, uniform ``w`` and zero ``delta``: the first candidate wins.

        Every candidate keeps the latency, so under the ratio rule every one
        scores 0.0; without it, a chain of ``k`` stages has one cut
        combination, and its placements tie.
        """
        k = 3 if three_way else 2
        n, p = (9 if ratio_rule else k), 5
        spec = PipelineSpec(tuple(f"s{i}" for i in range(n)), np.ones(n), np.zeros(n + 1))
        b = np.full((p + 2, p + 2), 2.0)
        np.fill_diagonal(b, 0.0)
        platform = Platform(s=np.full(p, 2.0), b=b)
        mapping = IntervalMapping.single_interval(n, 3)
        metrics = evaluate_metrics(spec, platform, mapping)
        unused = [1, 2, 4, 5]
        cuts, placements, latency, cycles = heuristics._split_candidates(
            spec, platform, mapping, 0, tuple(unused[: k - 1])
        )
        assert (latency == metrics.latency).all() and latency.size > 1
        got = heuristics._best_split(
            spec, platform,
            heuristics._split_table(spec, platform, mapping, metrics, three_way, ratio_rule),
            math.inf,
        )
        assert got == _reference_best_split(
            spec, platform, mapping, metrics, unused, three_way, ratio_rule, None
        )
        assert (got.choice.cuts, got.choice.placement) == (cuts[0], placements[0])
        assert (got.choice.cuts, got.choice.placement) == (
            tuple(range(1, k)), (3, *unused[: k - 1])
        )

    def test_split_choices_hold_python_numbers(self):
        """No numpy scalar reaches a ``SplitChoice``, ``to_dict()`` or the JSON."""
        kinds = {
            "target": int,
            "recipients": (int,),
            "cuts": (int,),
            "placement": (int,),
            "score": float,
            "delta_latency": float,
            "delta_period": (float,),
        }
        assert set(kinds) == {field.name for field in dataclasses.fields(heuristics.SplitChoice)}
        spec, platform = random_instance(np.random.default_rng(44), (20, 24), (12, 14))
        for name in HEURISTIC_NAMES:
            threshold = 1e-6 if fixed_criterion_of(name) == "period" else math.inf
            outcome = run_heuristic(name, spec, platform, threshold)
            assert outcome.trace
            for event in outcome.trace:
                for field, kind in kinds.items():
                    value = getattr(event.choice, field)
                    if isinstance(kind, tuple):
                        assert type(value) is tuple and value
                        assert all(type(x) is kind[0] for x in value), (name, field)
                    else:
                        assert type(value) is kind, (name, field)
            record = outcome.to_dict()
            assert all(type(x) in (int, float, str, bool, type(None)) for x in _leaves(record))
            json.dumps(record)


def _leaves(value):
    """Every non-container value inside nested dicts, lists and tuples."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _cap_padding_to(value: float) -> float | None:
    """A threshold whose :func:`padded_threshold` is exactly ``value``, if one exists."""
    cap = value / (1.0 + EPS_CMP) if value >= 1.0 else value - EPS_CMP
    for _ in range(64):
        padded = padded_threshold(cap)
        if padded == value:
            return cap
        cap = math.nextafter(cap, -math.inf if padded > value else math.inf)
    return None


def _start(spec, platform):
    """The greedy start state: the whole chain on the fastest processor."""
    first = IntervalMapping.single_interval(spec.n, platform._order[0])
    return first, evaluate_metrics(spec, platform, first)


def _spy(monkeypatch, name):
    """Record ``(first, result)`` for every call of ``heuristics.<name>`` from now on.

    ``first`` is the argument after the platform: the mapping of
    ``_split_table`` and ``evaluate_metrics``, the table of ``_best_split``
    (its first entry is its mapping) and the ``decisions`` of ``_run_greedy``.
    """
    calls = []
    wrapped = getattr(heuristics, name)

    def spy(spec, platform, first, *args, **kwargs):
        result = wrapped(spec, platform, first, *args, **kwargs)
        calls.append((first, result))
        return result

    monkeypatch.setattr(heuristics, name, spy)
    return calls


# ``_split_table`` calls of the pinned ``h2`` run below: one per distinct
# mapping its 21 trials split.  Fresh trials build one per greedy step, 131.
TABLES_PINNED = 7


class TestSharedDecisions:
    """``h2``'s trials share one decision per mapping and stay bit for bit."""

    def test_every_trial_equals_a_fresh_greedy_run(self):
        rng = np.random.default_rng(1717)
        for _ in range(12):
            spec, platform = integer_instance(rng, (6, 14), (4, 9))
            spec = with_zero_delta(rng, spec)
            start = _start(spec, platform)
            base = start[1].latency
            # 1.0: the start state already meets the goal
            for factor in (0.2, 0.35, 0.5, 0.7, 1.0):
                threshold = start[1].period * factor
                outcome = run_heuristic("h2", spec, platform, threshold)

                def fresh(allowance):
                    return heuristics._run_greedy(
                        spec,
                        platform,
                        {},
                        start,
                        ratio_rule=True,
                        three_way=False,
                        cap=padded_threshold(base + allowance),
                        period_goal=threshold,
                    )

                for trial in outcome.search.trials:
                    _, metrics, _ = fresh(trial.authorized_increase)
                    assert trial.period == metrics.period
                    assert trial.latency == metrics.latency
                    assert trial.feasible == meets_threshold(metrics.period, threshold)
                chosen = outcome.search.chosen_increase
                mapping, metrics, trace = fresh(
                    outcome.search.upper_bound if chosen is None else chosen
                )
                assert outcome.mapping == mapping
                assert outcome.metrics == metrics
                assert outcome.trace == trace

    def test_one_decision_table_at_caps_in_any_order(self):
        """Caps rising, falling and repeated through one ``decisions`` dict."""
        rng = np.random.default_rng(1719)
        for _ in range(12):
            spec, platform = integer_instance(rng, (6, 14), (4, 9))
            spec = with_zero_delta(rng, spec)
            start = _start(spec, platform)
            base = start[1].latency
            rising = [padded_threshold(base * f) for f in (1.0, 1.1, 1.25, 1.5, 2.0, 4.0)]
            caps = rising + rising[::-1] + [cap for cap in rising for _ in range(2)]
            for ratio_rule, three_way, goal in itertools.product(
                (False, True), (False, True), (None, 0.4 * start[1].period)
            ):
                greedy = functools.partial(
                    heuristics._run_greedy,
                    spec,
                    platform,
                    start=start,
                    ratio_rule=ratio_rule,
                    three_way=three_way,
                    period_goal=goal,
                )
                decisions = {}
                for cap in caps:
                    assert greedy(decisions, cap=cap) == greedy({}, cap=cap)

    @pytest.mark.parametrize("ratio_rule", [False, True])
    def test_one_table_per_mapping_at_edge_caps(self, monkeypatch, ratio_rule):
        """One ``decisions`` dict at caps around the start's winner and below the start."""
        tables = _spy(monkeypatch, "_split_table")
        picks = _spy(monkeypatch, "_best_split")
        rng = np.random.default_rng(1718)
        for _ in range(10):
            spec, platform = integer_instance(rng, (6, 12), (3, 8))
            spec = with_zero_delta(rng, spec)
            start = _start(spec, platform)

            def reference(cap):
                return _reference_best_split(
                    spec, platform, *start, _unused(platform, start[0]), False, ratio_rule, cap
                )

            winner_latency = reference(None).metrics_after.latency
            # the winner's exact padded cap, and one step below it
            exact = _cap_padding_to(winner_latency)
            assert exact is not None
            below = exact
            while padded_threshold(below) >= winner_latency:
                below = math.nextafter(below, -math.inf)
            # below the start latency, and one step above that
            low = start[1].latency / 2
            above = low
            while padded_threshold(above) <= padded_threshold(low):
                above = math.nextafter(above, math.inf)
            tables.clear()
            decisions = {}
            first = []
            for cap in (None, exact, below, low, above):
                picks.clear()
                heuristics._run_greedy(
                    spec,
                    platform,
                    decisions,
                    start,
                    ratio_rule=ratio_rule,
                    three_way=False,
                    cap=math.inf if cap is None else padded_threshold(cap),
                )
                table, pick = picks[0]
                assert (table[0], pick) == (start[0], reference(cap))
                first.append(pick)
            # the same winner at both caps, built once
            assert first[1] is first[0]
            assert reference(low) is None and reference(above) is None
            built = [mapping for mapping, _ in tables]
            assert built.count(start[0]) == 1 and len(built) == len(set(built))

    def test_h2_search_count_is_pinned(self, monkeypatch):
        """One default ``h2`` run at a large-instance size: tables and winners counted exactly."""
        spec, platform = random_instance(np.random.default_rng(20), (20, 20), (12, 12))
        start = _start(spec, platform)
        threshold = 0.3 * start[1].period
        tables = _spy(monkeypatch, "_split_table")
        runs = _spy(monkeypatch, "_run_greedy")
        evaluated = _spy(monkeypatch, "evaluate_metrics")
        outcome = run_heuristic("h2", spec, platform, threshold)
        built = len(tables)
        trials = outcome.search.trials
        # the 21 trials' traces hold 123 entries but share one event per
        # winner, 7 in all, and each winner is evaluated once, after the start
        events = [event for _, (_, _, trace) in runs for event in trace]
        winners = list({id(event): event for event in events}.values())
        assert (len(runs), len(events), len(winners)) == (21, 123, 7)
        assert [mapping for mapping, _ in evaluated] == [start[0]] + [
            event.mapping_after for event in winners
        ]
        tables.clear()
        for trial in trials:
            heuristics._run_greedy(
                spec,
                platform,
                {},
                start,
                ratio_rule=True,
                three_way=False,
                cap=padded_threshold(start[1].latency + trial.authorized_increase),
                period_goal=threshold,
            )
        fresh = [mapping for mapping, _ in tables]
        assert (len(trials), outcome.search.chosen_increase is not None) == (21, True)
        # one table per distinct mapping the fresh trials split, where every
        # fresh trial builds one per greedy step
        assert built == TABLES_PINNED == len(set(fresh)) < len(fresh)

    def test_processors_sorted_once_per_platform(self, monkeypatch):
        """The 21 trials of the pinned ``h2`` run and all six heuristics share one speed order."""
        spec, platform = random_instance(np.random.default_rng(20), (20, 20), (12, 12))
        start = _start(spec, _fresh(platform))[1]
        sorts = []
        speed_order = Platform._order.func
        monkeypatch.setattr(
            Platform._order, "func", lambda p: sorts.append(p) or speed_order(p)
        )
        outcome = run_heuristic("h2", spec, platform, 0.3 * start.period)
        assert (len(outcome.search.trials), len(sorts)) == (21, 1)
        for name in HEURISTIC_NAMES:
            criterion = fixed_criterion_of(name)
            run_heuristic(name, spec, platform, 0.3 * getattr(start, criterion))
        assert len(sorts) == 1 and sorts[0] is platform


def _kept_instances():
    """JPEG on the campaign seeds 0-9 at p 8-10, then the four large-instance sizes."""
    for p in (8, 9, 10):
        for entry in seeded_platforms(range(10), p):
            yield jpeg_preset(), entry.platform
    rng = np.random.default_rng(36)
    for n, p in ((20, 12), (22, 13), (24, 14), (21, 12)):
        yield random_instance(rng, (n, n), (p, p))


def _fresh(platform):
    """An equal platform built from the same arrays, with nothing kept on it."""
    return Platform(s=platform.s.copy(), b=platform.b.copy())


def _runs(spec, platform):
    """Every heuristic at several thresholds around its start state."""
    start = _start(spec, platform)[1]
    factors = {"period": (0.15, 0.3, 0.7, 1.0), "latency": (1.0, 1.1, 1.5, math.inf)}
    return [
        (name, getattr(start, criterion) * factor)
        for name in HEURISTIC_NAMES
        for criterion in [fixed_criterion_of(name)]
        for factor in factors[criterion]
    ]


def _held(platform):
    """``(pipeline, record)``: the one record ``platform`` keeps and the pipeline it is for."""
    return platform.__dict__["_held"]


def _spy_tables(monkeypatch, platform):
    """Record ``(ratio_rule, three_way, mapping)`` for every table built on ``platform``."""
    keys = []
    split_table = heuristics._split_table

    def spy(spec, on, mapping, metrics, three_way, ratio_rule):
        if on is platform:
            keys.append((ratio_rule, three_way, mapping))
        return split_table(spec, on, mapping, metrics, three_way, ratio_rule)

    monkeypatch.setattr(heuristics, "_split_table", spy)
    return keys


class TestKeptTables:
    """The platform's record keeps the split tables of its last pipeline across runs."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["listed", "reversed"])
    def test_runs_in_any_order_equal_fresh_runs(self, monkeypatch, reverse):
        for spec, platform in _kept_instances():
            runs = _runs(spec, platform)
            expected = [run_heuristic(name, spec, _fresh(platform), t) for name, t in runs]
            kept = _fresh(platform)
            keys = _spy_tables(monkeypatch, kept)
            outcomes = {
                (name, t): run_heuristic(name, spec, kept, t)
                for name, t in (runs[::-1] if reverse else runs)
            }
            # dataclass ==: mapping, metrics, verdict, trace and search report
            assert [outcomes[run] for run in runs] == expected
            assert keys and len(keys) == len(set(keys))
            held_spec, tables = _held(kept)
            assert held_spec is spec
            assert {(rule, three) for rule, three, _ in keys} == set(tables)
            assert sum(map(len, tables.values())) == len(keys)

    def test_another_pipeline_replaces_the_tables(self, monkeypatch):
        rng = np.random.default_rng(3600)
        spec_a, platform = random_instance(rng, (12, 12), (8, 8))
        spec_b, _ = random_instance(rng, (10, 10), (8, 8))
        equal_b = PipelineSpec(spec_b.stage_names, spec_b.w.copy(), spec_b.delta.copy())
        keys = _spy_tables(monkeypatch, platform)
        built, held = [], []
        for spec in (spec_a, spec_b, equal_b, spec_a):
            for name, t in _runs(spec, platform):
                assert run_heuristic(name, spec, platform, t) == run_heuristic(
                    name, spec, _fresh(platform), t
                )
            built.append(len(keys))
            held.append(_held(platform))
            keys.clear()
        # the equal pipeline reuses the tables kept for spec_b; spec_a then
        # replaces them and builds its own again
        assert built[0] > 0 and built[1] > 0 and built[2] == 0 and built[3] == built[0]
        assert held[2] is held[1] and held[1][0] is spec_b
        assert held[3] is not held[0] and held[3][0] is spec_a

    def test_tables_live_and_die_with_their_platform(self):
        spec, platform = random_instance(np.random.default_rng(3601), (12, 12), (8, 8))
        outcome = run_heuristic("h2", spec, platform, 0.3 * _start(spec, platform)[1].period)
        assert outcome.trace and _held(platform)[1]
        ref = weakref.ref(platform)
        gc.disable()
        try:
            del platform
            assert ref() is None
        finally:
            gc.enable()


def _spy_scans(monkeypatch, platform):
    """Record the pipeline of every exact scan on ``platform``."""
    scans = []
    scan_front = exact._scan_front

    def spy(spec, on):
        if on is platform:
            scans.append(spec)
        return scan_front(spec, on)

    monkeypatch.setattr(exact, "_scan_front", spy)
    return scans


class TestOneRecord:
    """``solve`` and ``run_heuristic`` keep their state in the platform's one record."""

    QUERIES = (BicriteriaQuery.minimize_latency(), BicriteriaQuery.minimize_period())

    def _answers_equal_fresh_runs(self, spec, platform):
        """Solve, then run every heuristic, as a campaign row does; each equals a fresh run."""
        for query in self.QUERIES:
            assert solve(spec, platform, query) == solve(spec, _fresh(platform), query)
        self._heuristics_equal_fresh_runs(spec, platform)

    @staticmethod
    def _heuristics_equal_fresh_runs(spec, platform):
        for name, t in _runs(spec, platform):
            assert run_heuristic(name, spec, platform, t) == run_heuristic(
                name, spec, _fresh(platform), t
            )

    def test_solve_and_heuristics_share_one_record(self, monkeypatch):
        (entry,) = seeded_platforms([3], 8)
        platform, spec_a = entry.platform, jpeg_preset()
        spec_b, _ = random_instance(np.random.default_rng(3800), (6, 6), (8, 8))
        equal_b = PipelineSpec(spec_b.stage_names, spec_b.w.copy(), spec_b.delta.copy())
        scans = _spy_scans(monkeypatch, platform)
        keys = _spy_tables(monkeypatch, platform)
        held, scanned, built = [], [], []
        for spec in (spec_a, spec_b, equal_b, spec_a):
            self._answers_equal_fresh_runs(spec, platform)
            held.append(_held(platform))
            scanned.append(len(scans))
            built.append(len(keys))
            scans.clear()
            keys.clear()
            # the front and one table dict per (ratio rule, three-way split)
            rules = itertools.product((False, True), (False, True))
            assert set(held[-1][1]) == {"front", *rules}
        # the equal pipeline reuses spec_b's front and tables; spec_a then
        # replaces both and scans and builds its own again
        assert scanned == [1, 1, 0, 1]
        assert built[0] > 0 and built[1] > 0 and built[2] == 0 and built[3] == built[0]
        assert held[2] is held[1] and held[1][0] is spec_b
        assert held[3] is not held[0] and held[3][0] is spec_a

    def test_a_scan_replaces_the_tables(self, monkeypatch):
        (entry,) = seeded_platforms([4], 8)
        platform, spec_a = entry.platform, jpeg_preset()
        spec_b, _ = random_instance(np.random.default_rng(3801), (6, 6), (8, 8))
        scans = _spy_scans(monkeypatch, platform)
        keys = _spy_tables(monkeypatch, platform)
        self._heuristics_equal_fresh_runs(spec_a, platform)
        first = len(keys)
        # a scan alone with another pipeline leaves no table of spec_a
        assert solve(spec_b, platform, self.QUERIES[0]) == solve(
            spec_b, _fresh(platform), self.QUERIES[0]
        )
        assert _held(platform)[0] is spec_b and set(_held(platform)[1]) == {"front"}
        keys.clear()
        self._answers_equal_fresh_runs(spec_a, platform)
        assert first > 0 and len(keys) == first and scans == [spec_b, spec_a]


# sha256 over every outcome and error message of ``_golden_records``; it pins
# full traces and h2 search reports, so any change to a heuristic's output
# shows up here.  Re-record it only for a deliberate change of that output.
GOLDEN_SHA256 = "ac6b67c9237c68e0dccb1b82f72745b10c64e25cf0d3ba99dab40e3886be2652"


def _golden_records():
    """Canonical JSON of every heuristic outcome across seeded random cases."""
    rng = np.random.default_rng(2024)
    for _ in range(40):
        spec, platform = random_instance(rng, n_range=(1, 10), p_range=(1, 6))
        fastest = int(np.argmax(platform.s)) + 1
        start = evaluate_metrics(
            spec, platform, IntervalMapping.single_interval(spec.n, fastest)
        )
        factors = {
            "period": (0.3, 0.6, 0.85, 1.0, math.inf),
            "latency": (0.9, 1.0, 1.15, 1.5, math.inf),
        }
        for name in HEURISTIC_NAMES:
            criterion = fixed_criterion_of(name)
            anchor = start.period if criterion == "period" else start.latency
            for factor in factors[criterion]:
                threshold = anchor * factor
                yield run_heuristic(name, spec, platform, threshold).to_dict()
            for bad in (0.0, -1.0):
                with pytest.raises(ValueError) as err:
                    run_heuristic(name, spec, platform, bad)
                yield str(err.value)
        with pytest.raises(ValueError) as err:
            run_heuristic("h7", spec, platform, 1.0)
        yield str(err.value)


class TestGolden:
    def test_outcomes_match_recorded_digest(self):
        digest = hashlib.sha256()
        for record in _golden_records():
            digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
            digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_SHA256


# sha256 over the outcome and metrics of every run of ``_wide_golden_records``,
# recorded before split candidates were scored incrementally and re-recorded
# when ``h2`` began to stop after one trial at a start state that meets its
# goal (only those runs' search reports changed).  It reaches the
# large-instance sizes (n up to 24, p up to 14) and, on every other instance,
# small integers with a zero data volume, where candidate scores tie exactly.
GOLDEN_WIDE_SHA256 = "c351394b7c6330c3a1ec69ee29d0691ca061c49d3c07161e9f1a205acff3b3be"


def _wide_golden_records():
    """Canonical JSON of all six heuristics over seeded instances up to n=24, p=14."""
    rng = np.random.default_rng(1124)
    factors = {
        "period": (0.01, 0.2, 0.45, 0.7, 1.0),
        "latency": (0.7, 1.0, 1.1, 1.6, math.inf),
    }
    for k in range(14):
        # the first two instances sit at the largest size
        sizes = ((24, 24), (14, 14)) if k < 2 else ((3, 24), (3, 14))
        if k % 2:
            spec, platform = integer_instance(rng, *sizes)
            spec = with_zero_delta(rng, spec)
        else:
            spec, platform = random_instance(rng, *sizes)
        fastest = int(np.argmax(platform.s)) + 1
        start = evaluate_metrics(
            spec, platform, IntervalMapping.single_interval(spec.n, fastest)
        )
        for name in HEURISTIC_NAMES:
            criterion = fixed_criterion_of(name)
            anchor = start.period if criterion == "period" else start.latency
            for factor in factors[criterion]:
                outcome = run_heuristic(name, spec, platform, anchor * factor)
                yield {"outcome": outcome.to_dict(), "metrics": outcome.metrics.to_dict()}


class TestWideGolden:
    def test_outcomes_match_recorded_digest(self):
        digest = hashlib.sha256()
        for record in _wide_golden_records():
            digest.update(json.dumps(record, sort_keys=True).encode("utf-8"))
            digest.update(b"\n")
        assert digest.hexdigest() == GOLDEN_WIDE_SHA256
