import csv
import hashlib
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from pipemap import (
    IntervalMapping,
    PipelineSpec,
    Platform,
    PlatformGenSpec,
    compare_with_analytic,
    evaluate_metrics,
    generate_platform,
    jpeg_preset,
    simulate,
    simulator,
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

    @pytest.mark.parametrize(
        "items, warmup, name",
        [
            (50.9, 10, "items"),
            (50, 10.7, "warmup"),
            (50.0, 10, "items"),
            ("40", 10, "items"),
            (40, True, "warmup"),
            (np.bool_(True), 1, "items"),
        ],
    )
    def test_counts_must_be_integers(
        self, tiny_spec, tiny_platform, tiny_all_on_p1, items, warmup, name
    ):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            simulate(tiny_spec, tiny_platform, tiny_all_on_p1, items=items, warmup=warmup)

    def test_numpy_integer_counts_accepted(self, tiny_spec, tiny_platform, tiny_all_on_p1):
        report = simulate(
            tiny_spec, tiny_platform, tiny_all_on_p1, items=np.int64(50), warmup=np.int32(10)
        )
        assert (report.items, report.warmup) == (50, 10)
        assert type(report.items) is int and type(report.warmup) is int

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


def _mapping_of(rng, n: int, p: int, m: int) -> IntervalMapping:
    """A random mapping of ``n`` stages onto ``m`` of ``p`` processors."""
    cuts = sorted(rng.choice(np.arange(1, n), size=m - 1, replace=False).tolist())
    bounds = [0, *cuts, n]
    return IntervalMapping(
        intervals=tuple((bounds[j] + 1, bounds[j + 1]) for j in range(m)),
        assignees=tuple(int(u) for u in rng.permutation(np.arange(1, p + 1))[:m]),
    )


def _steady_cases():
    """Seeded chains with ``m`` from 1 to 12 intervals, four per ``m``.

    A real-valued draw, a tie-heavy integer draw, a real-valued draw with one
    zero data volume, and a uniform chain (one stage per interval), where
    from ``m = 2`` on a receive is ready at the same instant as its port.
    Last, a three-interval chain whose first and last cycles tie, 13/3, but
    are folded from different terms: the later interval's port is sometimes
    free an ulp after its input, so the periodic pattern never settles.
    """
    rng = np.random.default_rng(3030)
    for m in range(1, 13):
        n = m + int(rng.integers(0, 4))
        p = m + int(rng.integers(0, 3))
        spec, platform = random_instance(rng, (n, n), (p, p), allow_zero_delta=False)
        draws = [
            random_instance(rng, (n, n), (p, p), allow_zero_delta=False),
            integer_instance(rng, (n, n), (p, p)),
            (with_zero_delta(rng, spec), platform),
        ]
        for spec, platform in draws:
            yield spec, platform, _mapping_of(rng, n, p, m)
        yield (
            PipelineSpec(
                stage_names=tuple(f"s{k}" for k in range(1, m + 1)),
                w=[3.0] * m,
                delta=[2.0] * (m + 1),
            ),
            Platform(s=[1.0] * (m + 1), b=uniform_bandwidth(m + 1)),
            _mapping_of(rng, m, m + 1, m),
        )
    b = np.ones((5, 5))
    np.fill_diagonal(b, 0.0)
    b[1, 2] = b[2, 3] = 3.0
    yield (
        PipelineSpec(stage_names=("s1", "s2", "s3"), w=[2.0, 2.0, 1.0], delta=[3.0, 2.0, 3.0, 3.0]),
        Platform(s=[3.0, 3.0, 3.0], b=b),
        IntervalMapping.from_signature("1-1@p1;2-2@p2;3-3@p3"),
    )


def _resumed_case():
    """A draw whose first periodic block fails at its first item.

    Large-instance seed 0, window 6 (``n=24, p=14``) with its best heuristic
    mapping (``m = 11``): two intervals' checks fail at item ``2m + 2``, so
    the loop resumes for 48 items before the pattern settles.
    """
    gen = np.random.default_rng([0, 6, 1, 2])
    spec = PipelineSpec(
        stage_names=tuple(f"s{k}" for k in range(1, 25)),
        w=gen.uniform(1.0, 100.0, 24),
        delta=gen.uniform(1.0, 100.0, 25),
    )
    s = gen.uniform(50.0, 200.0, 14)
    b = gen.uniform(50.0, 200.0, (16, 16))
    np.fill_diagonal(b, 0.0)
    mapping = IntervalMapping.from_signature(
        "1-1@p2;2-6@p5;7-7@p4;8-9@p14;10-11@p1;12-13@p11;14-17@p3;18-21@p7;22-22@p6;23-23@p9;24-24@p10"
    )
    return spec, Platform(s=s, b=b), mapping


def _bits(report):
    return (
        report.item_output_times.tobytes(),
        repr(report.measured_period),
        repr(report.measured_first_latency),
    )


@pytest.fixture
def loop_only(monkeypatch):
    """Run ``simulate`` with the periodic extension turned off: every item loops."""

    def run(*args):
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_extend", lambda terms, port_free, times, start: start)
            return simulate(*args)

    return run


@pytest.fixture
def looped(monkeypatch):
    """Count the items ``simulate`` steps through its loop."""
    count = [0]
    step = simulator._step

    def spy(terms, port_free, times, start, stop, *rest):
        count[0] += stop - start
        step(terms, port_free, times, start, stop, *rest)

    monkeypatch.setattr(simulator, "_step", spy)
    return count


class TestSteadyStateExtension:
    """Blocks of the periodic pattern against the loop, bit for bit."""

    def test_counts_around_the_transient(self):
        for spec, platform, mapping in _steady_cases():
            transient = 2 * mapping.m + 2
            for items in (transient - 1, transient, transient + 1):
                warmup = min(mapping.m, items - 1)
                loud = simulate(spec, platform, mapping, items, warmup, record_events=True)
                silent = simulate(spec, platform, mapping, items, warmup)
                assert _bits(silent) == _bits(loud), (mapping.signature(), items)

    def test_counts_around_a_block_and_long_runs(self, loop_only):
        # recording every event of thousands of items is slow, and of 20,000
        # items takes hundreds of MiB, so the reference here is the same loop
        # without the events
        block = simulator._BLOCK_ITEMS
        for spec, platform, mapping in _steady_cases():
            transient = 2 * mapping.m + 2
            for items in (
                transient + block - 1, transient + block, transient + block + 1, 20_000
            ):
                warmup = 10 * mapping.m + 50
                silent = simulate(spec, platform, mapping, items, warmup)
                reference = loop_only(spec, platform, mapping, items, warmup)
                assert _bits(silent) == _bits(reference), (mapping.signature(), items)

    def test_loop_resumes_after_a_failed_block(self, loop_only, looped, monkeypatch):
        spec, platform, mapping = _resumed_case()
        attempts = []
        extend = simulator._extend

        def spy(terms, port_free, times, start):
            attempts.append((start, extend(terms, port_free, times, start)))
            return attempts[-1][1]

        monkeypatch.setattr(simulator, "_extend", spy)
        silent = simulate(spec, platform, mapping, 20_000, 160)
        assert attempts == [(24, 24), (72, 20_000)]
        assert looped[0] == 72
        assert _bits(silent) == _bits(loop_only(spec, platform, mapping, 20_000, 160))
        loud = simulate(spec, platform, mapping, 400, 160, record_events=True)
        assert _bits(simulate(spec, platform, mapping, 400, 160)) == _bits(loud)

    def test_long_runs_leave_the_loop(self, looped):
        # a silent fallback to the loop would still give the right bits
        jpeg = jpeg_preset(), generate_platform(PlatformGenSpec(seed=1, p=6))
        mapping = IntervalMapping.from_signature("1-2@p1;3-5@p2;6-7@p3")
        for spec, platform, chosen in (_resumed_case(), (*jpeg, mapping)):
            looped[0] = 0
            simulate(spec, platform, chosen, 20_000, 10 * chosen.m + 50)
            assert looped[0] < 0.05 * 20_000

    def test_million_items_peak_memory_stays_bounded(self):
        """A fresh interpreter simulates 1,000,000 items of a JPEG mapping.

        The output times take 7.6 MiB; a list of a million Python floats, or
        every interval's times for every item, would take several times that.
        """
        probe = textwrap.dedent(
            """
            import tracemalloc
            from pipemap import (
                IntervalMapping, PlatformGenSpec, generate_platform, jpeg_preset, simulate
            )

            spec = jpeg_preset()
            platform = generate_platform(PlatformGenSpec(seed=1, p=6))
            mapping = IntervalMapping.from_signature("1-2@p1;3-5@p2;6-7@p3")
            tracemalloc.start()
            report = simulate(spec, platform, mapping, items=1_000_000, warmup=100)
            print(report.item_output_times.size, tracemalloc.get_traced_memory()[1])
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        size, peak = map(int, proc.stdout.split())
        assert size == 1_000_000
        assert peak < 16 * 1024 * 1024, f"peak traced memory {peak} bytes"
