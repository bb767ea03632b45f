import csv
import hashlib
import math

import numpy as np
import pytest

from pipemap import (
    IntervalMapping,
    PipelineSpec,
    Platform,
    compare_with_analytic,
    evaluate_metrics,
    simulate,
    write_event_log,
)

import oracle
from conftest import uniform_bandwidth
from util import (
    as_lists,
    integer_instance,
    random_instance,
    random_valid_mapping,
    with_zero_delta,
)


class TestTinyMeasurements:
    def test_single_interval(self, tiny_spec, tiny_platform, tiny_all_on_p1):
        report = simulate(tiny_spec, tiny_platform, tiny_all_on_p1, items=50, warmup=10)
        assert report.measured_period == 8.0
        assert report.measured_first_latency == 8.0

    def test_two_intervals(self, tiny_spec, tiny_platform, tiny_two_intervals):
        report = simulate(
            tiny_spec, tiny_platform, tiny_two_intervals, items=60, warmup=12
        )
        assert report.measured_period == 7.0
        assert report.measured_first_latency == 10.0

    def test_two_items_single_gap(self, tiny_spec, tiny_platform, tiny_two_intervals):
        report = simulate(tiny_spec, tiny_platform, tiny_two_intervals, items=2, warmup=1)
        # with one measured gap the period is the distance between the only
        # two completions: the pipeline is already in steady state here
        assert report.measured_period == 7.0

    def test_output_times_strictly_increase(
        self, tiny_spec, tiny_platform, tiny_two_intervals
    ):
        report = simulate(
            tiny_spec, tiny_platform, tiny_two_intervals, items=20, warmup=2
        )
        gaps = np.diff(report.item_output_times)
        assert np.all(gaps > 0)


class TestParameterValidation:
    def test_items_must_exceed_warmup(self, tiny_spec, tiny_platform, tiny_all_on_p1):
        with pytest.raises(ValueError, match="items"):
            simulate(tiny_spec, tiny_platform, tiny_all_on_p1, items=5, warmup=5)

    def test_warmup_must_be_positive(self, tiny_spec, tiny_platform, tiny_all_on_p1):
        with pytest.raises(ValueError, match="warmup"):
            simulate(tiny_spec, tiny_platform, tiny_all_on_p1, items=5, warmup=0)

    def test_invalid_mapping_rejected(self, tiny_spec, tiny_platform):
        broken = IntervalMapping(intervals=((1, 1), (3, 3)), assignees=(1, 2))
        with pytest.raises(Exception, match="gap"):
            simulate(tiny_spec, tiny_platform, broken, items=5, warmup=1)


class TestAgainstAnalytic:
    def test_first_latency_bitwise_equal(self):
        # the simulator adds the same terms in the same order as the latency
        # evaluator, so the first item's completion time is bitwise identical
        rng = np.random.default_rng(21)
        for _ in range(30):
            spec, platform = random_instance(rng)
            mapping = random_valid_mapping(rng, spec.n, platform.p)
            metrics = evaluate_metrics(spec, platform, mapping)
            report = simulate(spec, platform, mapping, items=3, warmup=1)
            assert report.measured_first_latency == metrics.latency

    def test_measured_period_converges(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            spec, platform = random_instance(rng)
            mapping = random_valid_mapping(rng, spec.n, platform.p)
            metrics = evaluate_metrics(spec, platform, mapping)
            m = mapping.m
            report = simulate(
                spec, platform, mapping, items=10 * m + 100, warmup=10 * m + 50
            )
            assert report.measured_period == pytest.approx(metrics.period, rel=1e-6)

    def test_comparison_wrapper(self, tiny_spec, tiny_platform, tiny_two_intervals):
        report = simulate(
            tiny_spec, tiny_platform, tiny_two_intervals, items=60, warmup=12
        )
        comp = compare_with_analytic(tiny_spec, tiny_platform, report)
        assert comp.analytic.period == 7.0
        assert comp.measured_period == 7.0
        assert comp.period_rel_dev == 0.0
        assert comp.latency_rel_dev == 0.0

    def test_oracle_latency_agreement(self):
        # triangulate: simulator first-item latency == independent list-based
        # latency formula within float tolerance
        rng = np.random.default_rng(23)
        for _ in range(20):
            spec, platform = random_instance(rng)
            mapping = random_valid_mapping(rng, spec.n, platform.p)
            w, delta, s, b = as_lists(spec, platform)
            expected = oracle.latency_of(
                w, delta, s, b, [list(iv) for iv in mapping.intervals], list(mapping.assignees)
            )
            report = simulate(spec, platform, mapping, items=2, warmup=1)
            assert report.measured_first_latency == pytest.approx(expected, rel=1e-12)


class TestEventLog:
    def _events(self, tiny_spec, tiny_platform, mapping, items=6):
        report = simulate(
            tiny_spec, tiny_platform, mapping, items=items, warmup=1, record_events=True
        )
        return report

    def test_event_capture_toggles(self, tiny_spec, tiny_platform, tiny_two_intervals):
        silent = simulate(
            tiny_spec, tiny_platform, tiny_two_intervals, items=4, warmup=1
        )
        assert silent.events is None
        loud = self._events(tiny_spec, tiny_platform, tiny_two_intervals)
        assert loud.events

    def test_event_rows_well_formed(self, tiny_spec, tiny_platform, tiny_two_intervals):
        report = self._events(tiny_spec, tiny_platform, tiny_two_intervals)
        for event in report.events:
            assert event.time_end >= event.time_start
            assert event.phase in ("recv", "compute", "send")
            assert 0 <= event.item < 6

    def test_processor_compute_never_overlaps(
        self, tiny_spec, tiny_platform, tiny_two_intervals
    ):
        report = self._events(tiny_spec, tiny_platform, tiny_two_intervals, items=10)
        by_proc = {}
        for event in report.events:
            if event.phase == "compute":
                by_proc.setdefault(event.processor, []).append(
                    (event.time_start, event.time_end)
                )
        for windows in by_proc.values():
            windows.sort()
            for (s0, e0), (s1, e1) in zip(windows, windows[1:]):
                assert s1 >= e0 - 1e-12

    def test_rendezvous_pairs_share_window(
        self, tiny_spec, tiny_platform, tiny_two_intervals
    ):
        # every inter-processor transfer appears as a send on the producer and
        # a recv on the consumer over the same [start, end] window; the first
        # recv of an item (from the input gateway) and its last send (to the
        # output gateway) have no processor partner
        report = self._events(tiny_spec, tiny_platform, tiny_two_intervals, items=8)
        sends_by_item: dict[int, list] = {}
        recvs_by_item: dict[int, list] = {}
        for e in report.events:
            if e.phase == "send":
                sends_by_item.setdefault(e.item, []).append(e)
            elif e.phase == "recv":
                recvs_by_item.setdefault(e.item, []).append(e)
        for item, sends in sends_by_item.items():
            sends.sort(key=lambda e: e.time_end)
            recvs = sorted(recvs_by_item[item], key=lambda e: e.time_end)
            inner_sends = sends[:-1]  # drop the output-gateway delivery
            inner_recvs = recvs[1:]  # drop the input-gateway pickup
            assert len(inner_sends) == len(inner_recvs)
            for s, r in zip(inner_sends, inner_recvs):
                assert (s.time_start, s.time_end) == (r.time_start, r.time_end)
                assert s.processor != r.processor

    def test_csv_export(self, tiny_spec, tiny_platform, tiny_two_intervals, tmp_path):
        report = self._events(tiny_spec, tiny_platform, tiny_two_intervals)
        path = tmp_path / "events.csv"
        write_event_log(report, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time_start", "time_end", "processor", "item", "phase"]
        assert len(rows) == len(report.events) + 1
        # repr() floats round-trip exactly
        assert float(rows[1][0]) == report.events[0].time_start


class TestReportDict:
    def test_to_dict_shape(self, tiny_spec, tiny_platform, tiny_two_intervals):
        report = simulate(
            tiny_spec, tiny_platform, tiny_two_intervals, items=10, warmup=2
        )
        d = report.to_dict()
        assert d["items"] == 10
        assert d["warmup"] == 2
        assert d["measured_period"] == 7.0
        assert d["measured_first_latency"] == 10.0
        assert d["mapping"] == "1-2@p1;3-3@p2"


def _golden_cases():
    """Seeded chains with ``m`` from 1 to 8 intervals, three per ``m``.

    One instance is real-valued and one has small integer values.  The third
    is a uniform chain (equal costs, speeds and bandwidths, one stage per
    interval), where from ``m = 2`` on a receive is ready at the same instant
    as its processor's port.  Each has one zero data volume, which in most
    cases falls on a link between intervals or to a gateway.
    """
    rng = np.random.default_rng(1313)
    for m in range(1, 9):
        n = m + int(rng.integers(0, 4))
        p = m + int(rng.integers(0, 3))
        cuts = sorted(rng.choice(np.arange(1, n), size=m - 1, replace=False).tolist())
        bounds = [0, *cuts, n]
        mapping = IntervalMapping(
            intervals=tuple((bounds[j] + 1, bounds[j + 1]) for j in range(m)),
            assignees=tuple(int(u) for u in rng.permutation(np.arange(1, p + 1))[:m]),
        )
        uniform = IntervalMapping(
            intervals=tuple((k, k) for k in range(1, m + 1)),
            assignees=tuple(int(u) for u in rng.permutation(np.arange(1, m + 2))[:m]),
        )
        instances = [
            (random_instance(rng, (n, n), (p, p), allow_zero_delta=False), mapping),
            (integer_instance(rng, (n, n), (p, p)), mapping),
            (
                (
                    PipelineSpec(
                        stage_names=tuple(f"s{k}" for k in range(1, m + 1)),
                        w=[3.0] * m,
                        delta=[2.0] * (m + 1),
                    ),
                    Platform(s=[1.0] * (m + 1), b=uniform_bandwidth(m + 1)),
                ),
                uniform,
            ),
        ]
        for (spec, platform), chosen in instances:
            spec = with_zero_delta(rng, spec)
            yield spec, platform, chosen, 40 + 7 * m, 3 * m


class TestGoldenSimulation:
    """The simulator's output times, measurements and event logs, by sha256."""

    DIGEST = "ccc6a03c93ce282d68f523a8e1d5a97670878a659493410ab74c5fb8ee24896c"

    def test_bytes(self, tmp_path):
        digest = hashlib.sha256()
        path = tmp_path / "events.csv"
        for spec, platform, mapping, items, warmup in _golden_cases():
            report = simulate(spec, platform, mapping, items, warmup, record_events=True)
            silent = simulate(spec, platform, mapping, items, warmup)
            assert silent.item_output_times.tobytes() == report.item_output_times.tobytes()
            write_event_log(report, str(path))
            digest.update(mapping.signature().encode())
            digest.update(report.item_output_times.tobytes())
            digest.update(repr(report.measured_period).encode())
            digest.update(repr(report.measured_first_latency).encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.DIGEST
