import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from pipemap import (
    BicriteriaQuery,
    CampaignPlatform,
    PlatformGenSpec,
    generate_platform,
    jpeg_preset,
    run_campaign,
    solve,
)
from pipemap import exact, workbench
from pipemap.workbench import (
    WorkbenchError,
    generator_provenance,
    read_campaign_csv,
    read_sweep_csv,
    run_sweep_report,
    seeded_platforms,
    write_campaign_csv,
    write_generated_platform,
    write_sweep_csv,
)


class TestGenerator:
    def test_deterministic(self):
        gen = PlatformGenSpec(seed=42, p=5)
        a = generate_platform(gen)
        b = generate_platform(gen)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.b, b.b)

    def test_ranges_respected(self):
        gen = PlatformGenSpec(
            seed=1, p=6, speed_range=(10.0, 20.0), bandwidth_range=(1.0, 2.0)
        )
        platform = generate_platform(gen)
        assert np.all((platform.s >= 10.0) & (platform.s <= 20.0))
        off_diag = platform.b[~np.eye(8, dtype=bool)]
        assert np.all((off_diag >= 1.0) & (off_diag <= 2.0))
        assert np.all(np.diag(platform.b) == 0.0)

    def test_degenerate_range_is_constant(self):
        gen = PlatformGenSpec(seed=9, p=3, speed_range=(5.0, 5.0))
        platform = generate_platform(gen)
        assert np.all(platform.s == 5.0)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            PlatformGenSpec(seed=1, p=2, speed_range=(0.0, 10.0))
        with pytest.raises(ValueError):
            PlatformGenSpec(seed=1, p=2, speed_range=(10.0, 5.0))
        with pytest.raises(ValueError):
            PlatformGenSpec(seed=1, p=0)

    def test_different_seeds_differ(self):
        a = generate_platform(PlatformGenSpec(seed=1, p=4))
        b = generate_platform(PlatformGenSpec(seed=2, p=4))
        assert not np.array_equal(a.s, b.s)

    def test_provenance_block(self):
        gen = PlatformGenSpec(seed=7, p=3, speed_range=(10.0, 30.0))
        block = generator_provenance(gen)
        assert block["seed"] == 7
        assert block["p"] == 3
        assert block["speed_range"] == [10.0, 30.0]

    def test_write_embeds_provenance(self, tmp_path):
        import json

        from pipemap.files import read_platform

        gen = PlatformGenSpec(seed=5, p=3)
        path = tmp_path / "gen.json"
        written = write_generated_platform(gen, str(path))
        raw = json.loads(path.read_text())
        assert raw["generator"]["seed"] == 5
        loaded = read_platform(str(path))
        assert np.array_equal(loaded.b, written.b)

    def test_seeded_platform_labels(self):
        batch = seeded_platforms([3, 8], p=4)
        assert [cp.label for cp in batch] == ["seed3", "seed8"]
        assert [cp.seed for cp in batch] == [3, 8]
        assert all(cp.platform.p == 4 for cp in batch)


class TestSweepReport:
    def test_tiny_step_curve(self, tiny_spec, tiny_platform):
        report = run_sweep_report(
            tiny_spec,
            tiny_platform,
            BicriteriaQuery.minimize_latency(),
            [5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0],
        )
        assert report.objective == "latency"
        assert [row.feasible for row in report.rows] == [
            False,
            False,
            True,
            True,
            True,
            True,
            True,
        ]
        assert report.plateau_values() == [11.0, 10.0, 8.0]
        assert report.edges == (6.0, 7.0, 8.0)

    def test_plateaus_follow_edges_on_a_slow_drift(self):
        """Each step is within the tolerance of the last, though the ends are not."""
        objectives = [1.0, 1.0 - 0.6e-9, 1.0 - 1.2e-9]
        report = workbench.SweepReport(
            objective="latency",
            rows=tuple(
                workbench.SweepRow(float(t), True, v, 1.0, v, "1-1@p1")
                for t, v in enumerate(objectives, start=1)
            ),
        )
        assert report.edges == (1.0,)
        assert report.plateau_values() == [1.0]

    def test_replaced_rows_are_checked(self, tiny_spec, tiny_platform):
        """A report built by ``replace`` checks its rows like one built by the runner."""
        report = run_sweep_report(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(), [6.0, 7.0]
        )
        rising = (report.rows[1], replace(report.rows[0], threshold=7.5))
        with pytest.raises(WorkbenchError, match="increased from 10.0 to 11.0 at threshold 7.5"):
            replace(report, rows=rising)

    def test_unsorted_thresholds_rejected(self, tiny_spec, tiny_platform):
        with pytest.raises(ValueError, match="ascending"):
            run_sweep_report(
                tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(), [7.0, 6.0]
            )

    def test_rows_keep_metrics(self, tiny_spec, tiny_platform):
        report = run_sweep_report(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(), [7.0]
        )
        row = report.rows[0]
        assert row.objective == row.latency == 10.0
        assert row.period == 7.0
        assert row.mapping == "1-2@p1;3-3@p2"

    @pytest.mark.parametrize(
        "order, match",
        [((7.0, 5.0), "feasibility lost"), ((8.0, 7.0), "increased from 8.0 to 10.0")],
    )
    def test_non_step_curve_is_an_internal_error(
        self, tiny_spec, tiny_platform, monkeypatch, order, match
    ):
        """A solver that answers the ascending thresholds in ``order`` breaks the curve."""
        answers = {
            t: solve(tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(t)) for t in order
        }
        asked = sorted(order)
        swapped = dict(zip(asked, order))
        monkeypatch.setattr(
            workbench, "solve", lambda spec, platform, query: answers[swapped[query.threshold]]
        )
        with pytest.raises(WorkbenchError, match=match):
            run_sweep_report(tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(), asked)

    @pytest.mark.parametrize(
        "thresholds, message",
        [
            ([], "sweep needs at least one threshold"),
            ([7.0, 6.0], "sweep thresholds must be sorted ascending"),
        ],
        ids=["empty", "unsorted"],
    )
    def test_thresholds_checked_before_any_scan(
        self, tiny_spec, tiny_platform, monkeypatch, thresholds, message
    ):
        scans = []
        monkeypatch.setattr(exact, "_scan_front", lambda *args: scans.append(args))
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_sweep_report(
                tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(), thresholds
            )
        assert scans == []


class TestSweepCsv:
    def test_round_trip_bytes(self, tiny_spec, tiny_platform, tmp_path):
        report = run_sweep_report(
            tiny_spec,
            tiny_platform,
            BicriteriaQuery.minimize_latency(),
            [5.0, 6.0, 7.0, 8.0],
        )
        first = tmp_path / "sweep1.csv"
        second = tmp_path / "sweep2.csv"
        write_sweep_csv(report, str(first))
        loaded = read_sweep_csv(str(first))
        assert loaded == report
        write_sweep_csv(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_header_carries_objective(self, tiny_spec, tiny_platform, tmp_path):
        report = run_sweep_report(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_period(), [10.0]
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(report, str(path))
        assert path.read_text().startswith("# sweep objective=period")


def _tiny_campaign_platforms(tiny_platform):
    return [CampaignPlatform(label="tiny", platform=tiny_platform, seed=None)]


class TestCampaign:
    def test_tiny_latency_campaign(self, tiny_spec, tiny_platform):
        result = run_campaign(
            tiny_spec,
            _tiny_campaign_platforms(tiny_platform),
            BicriteriaQuery.minimize_period(10.0),
            ["h5", "h6"],
        )
        assert result.heuristics == ("h5", "h6")
        row = result.rows[0]
        assert row.error is None
        assert row.exact_feasible and row.exact_objective == 7.0
        # on this instance the latency-capped greedy lands exactly on the
        # optimum
        assert row.cells["h5"].feasible
        assert row.cells["h5"].objective == 7.0
        summary = result.summary()
        assert summary["h5"].compared == 1
        assert summary["h5"].matches == 1
        assert summary["h5"].match_rate == 1.0
        assert summary["h5"].mean_rel_excess == 0.0

    def test_tiny_period_campaign(self, tiny_spec, tiny_platform):
        result = run_campaign(
            tiny_spec,
            _tiny_campaign_platforms(tiny_platform),
            BicriteriaQuery.minimize_latency(7.0),
            ["h1", "h2"],
        )
        row = result.rows[0]
        assert row.exact_objective == 10.0
        assert row.cells["h2"].feasible
        assert row.cells["h2"].objective == 10.0
        # h1 overshoots the period goal down to 6 at latency 11
        assert row.cells["h1"].objective == 11.0
        summary = result.summary()
        assert summary["h2"].matches == 1
        assert summary["h1"].matches == 0
        assert summary["h1"].mean_rel_excess == pytest.approx(0.1)

    def test_heuristic_query_mismatch_rejected(self, tiny_spec, tiny_platform):
        with pytest.raises(ValueError, match="fixes the"):
            run_campaign(
                tiny_spec,
                _tiny_campaign_platforms(tiny_platform),
                BicriteriaQuery.minimize_latency(7.0),
                ["h5"],
            )

    def test_repeated_heuristic_rejected(self, tiny_spec, tiny_platform):
        # each row keeps one cell per name, so a repeat would drop a run
        with pytest.raises(ValueError, match="heuristic h1 is listed more than once"):
            run_campaign(
                tiny_spec,
                _tiny_campaign_platforms(tiny_platform),
                BicriteriaQuery.minimize_latency(7.0),
                ["h1", "h2", "h1"],
            )

    def test_error_rows_captured(self, tiny_spec, tiny_platform):
        class Boom:
            label = "boom"
            seed = None

            @property
            def platform(self):
                raise ValueError("synthetic failure")

        result = run_campaign(
            tiny_spec,
            [
                CampaignPlatform(label="ok", platform=tiny_platform, seed=None),
                Boom(),
            ],
            BicriteriaQuery.minimize_latency(7.0),
            ["h1"],
        )
        assert result.rows[0].error is None
        assert result.rows[1].error is not None
        assert "synthetic failure" in result.rows[1].error
        # summary still works with an error row present
        assert result.summary()["h1"].compared == 1

    def test_programming_errors_propagate(self, tiny_spec, tiny_platform):
        class Broken:
            label = "broken"
            seed = None

            @property
            def platform(self):
                raise RuntimeError("synthetic bug")

        with pytest.raises(RuntimeError, match="synthetic bug"):
            run_campaign(
                tiny_spec,
                [
                    CampaignPlatform(label="ok", platform=tiny_platform, seed=None),
                    Broken(),
                ],
                BicriteriaQuery.minimize_latency(7.0),
                ["h1"],
            )

    def test_heuristic_below_the_optimum_is_an_internal_error(
        self, tiny_spec, tiny_platform, monkeypatch
    ):
        """A heuristic that beats the exhaustive optimum aborts the run, not one row."""
        run_heuristic = workbench.run_heuristic

        def too_good(name, spec, platform, threshold):
            outcome = run_heuristic(name, spec, platform, threshold)
            return replace(outcome, metrics=replace(outcome.metrics, latency=9.0))

        monkeypatch.setattr(workbench, "run_heuristic", too_good)
        with pytest.raises(WorkbenchError, match="h1 reported 9.0 on tiny, better than the "):
            run_campaign(
                tiny_spec,
                _tiny_campaign_platforms(tiny_platform),
                BicriteriaQuery.minimize_latency(7.0),
                ["h1"],
            )

    def test_generated_batch_campaign(self):
        from pipemap import jpeg_preset

        spec = jpeg_preset()
        batch = seeded_platforms([1, 2, 3], p=4)
        free_queries = BicriteriaQuery.minimize_latency()
        result = run_campaign(spec, batch, free_queries, ["h1", "h3", "h4"])
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.error is None
            assert row.exact_feasible
            for cell in row.cells.values():
                # never better than the exhaustive optimum
                assert cell.objective >= row.exact_objective - 1e-9


class TestCampaignCsv:
    def test_round_trip_bytes(self, tiny_spec, tiny_platform, tmp_path):
        batch = seeded_platforms([1, 2], p=3) + _tiny_campaign_platforms(tiny_platform)
        result = run_campaign(
            tiny_spec, batch, BicriteriaQuery.minimize_latency(), ["h1", "h2"]
        )
        first = tmp_path / "campaign1.csv"
        second = tmp_path / "campaign2.csv"
        write_campaign_csv(result, str(first))
        loaded = read_campaign_csv(str(first))
        assert loaded.query == result.query
        assert loaded.heuristics == result.heuristics
        assert loaded.summary() == result.summary()
        write_campaign_csv(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_error_rows_survive_round_trip(self, tiny_spec, tiny_platform, tmp_path):
        class Boom:
            label = "boom"
            seed = None

            @property
            def platform(self):
                raise ValueError("synthetic failure")

        result = run_campaign(
            tiny_spec,
            [CampaignPlatform(label="ok", platform=tiny_platform, seed=None), Boom()],
            BicriteriaQuery.minimize_latency(7.0),
            ["h1"],
        )
        path = tmp_path / "campaign.csv"
        write_campaign_csv(result, str(path))
        loaded = read_campaign_csv(str(path))
        assert loaded.rows[1].error is not None
        assert "synthetic failure" in loaded.rows[1].error


class _BadPlatform:
    """A campaign entry whose platform is rejected input: it becomes an error row."""

    label = "bad"
    seed = 99

    @property
    def platform(self):
        raise ValueError("synthetic failure")


def _fixed_seconds(result):
    """``result`` with every ``*_seconds`` field pinned, so its CSV bytes are deterministic."""
    rows = tuple(
        row
        if row.error is not None
        else replace(
            row,
            exact_seconds=0.25,
            cells={name: replace(cell, seconds=0.125) for name, cell in row.cells.items()},
        )
        for row in result.rows
    )
    return replace(result, rows=rows)


def _golden_tables(tiny_spec, tiny_platform):
    """``(name, table, writer, reader)`` for every table the golden CSV test writes."""
    jpeg = jpeg_preset()
    tiny = CampaignPlatform(label='tiny, "quoted"', platform=tiny_platform, seed=None)
    tables = []
    for spec, platforms, sweeps in (
        (
            tiny_spec,
            seeded_platforms([1, 2], p=3) + [tiny],
            {"latency": [0.05, 0.072, 0.08, 0.1, math.inf], "period": [0.05, 0.1, 0.12, 0.2]},
        ),
        (
            jpeg,
            seeded_platforms([3, 4, 5], p=4),
            {"latency": [1.0, 1.9, 2.5, 3.0, math.inf], "period": [2.0, 2.8, 3.0, 3.7, math.inf]},
        ),
    ):
        for sense, thresholds in sweeps.items():
            query = BicriteriaQuery(sense, math.inf)
            report = run_sweep_report(spec, platforms[0].platform, query, thresholds)
            tables.append((f"sweep-{sense}", report, write_sweep_csv, read_sweep_csv))
        entries = platforms + [_BadPlatform()]
        for query, names in (
            (BicriteriaQuery.minimize_latency(), ["h1", "h2", "h3", "h4"]),
            (BicriteriaQuery.minimize_latency(0.3), ["h1", "h2", "h3", "h4"]),
            (BicriteriaQuery.minimize_period(), ["h5", "h6"]),
            (BicriteriaQuery.minimize_period(2.0), ["h5", "h6"]),
            (BicriteriaQuery.minimize_latency(7.0), []),
        ):
            result = _fixed_seconds(run_campaign(spec, entries, query, names))
            tables.append(("campaign", result, write_campaign_csv, read_campaign_csv))
            if names:
                first = result.rows[0]
                missing = {k: v for k, v in first.cells.items() if k != names[-1]}
                result = replace(result, rows=(replace(first, cells=missing),) + result.rows[1:])
                tables.append(("campaign-missing-cell", result, write_campaign_csv, read_campaign_csv))
    return tables


class TestGoldenCsv:
    """The CSV bytes of fixed sweeps and campaigns, pinned by one sha256.

    Covers both query senses, ``inf`` thresholds, error rows, a missing
    heuristic cell, a label holding ``,`` and ``"`` and an empty heuristic
    list; each file must also read back and re-write to the same bytes.
    """

    DIGEST = "280fad4cfaa12a51c45d0ecbf74c8b4215e0d0839e35da64a7e8ce4595f809c0"

    def test_bytes(self, tiny_spec, tiny_platform, tmp_path):
        digest = hashlib.sha256()
        for i, (name, table, write, read) in enumerate(_golden_tables(tiny_spec, tiny_platform)):
            path = tmp_path / f"{i}-{name}.csv"
            write(table, str(path))
            data = path.read_bytes()
            digest.update(f"{name} {len(data)}\n".encode())
            digest.update(data)
            again = tmp_path / f"{i}-{name}-again.csv"
            write(read(str(path)), str(again))
            assert again.read_bytes() == data, name
        assert digest.hexdigest() == self.DIGEST


_SWEEP_HEADER = "threshold,feasible,objective,period,latency,mapping\n"
_CAMPAIGN_H1 = "# campaign objective=latency threshold=inf heuristics=h1\n"
_CAMPAIGN_HEADER = (
    "label,seed,error,exact_feasible,exact_objective,exact_period,exact_latency,"
    "exact_seconds,{h}_feasible,{h}_objective,{h}_period,{h}_latency,{h}_seconds\n"
)
_CAMPAIGN_RECORD = "tiny,,,true,10.0,7.0,10.0,0.25,true,10.0,7.0,10.0,0.125\n"

MALFORMED = {
    "campaign-without-threshold": (
        read_campaign_csv,
        "# campaign objective=latency heuristics=h1\n"
        + _CAMPAIGN_HEADER.format(h="h1")
        + _CAMPAIGN_RECORD,
    ),
    "sweep-without-header": (read_sweep_csv, "# sweep objective=latency\n"),
    "campaign-without-header": (read_campaign_csv, _CAMPAIGN_H1),
    "sweep-short-record": (
        read_sweep_csv,
        "# sweep objective=latency\n" + _SWEEP_HEADER + "5.0,false\n",
    ),
    "campaign-short-record": (
        read_campaign_csv,
        _CAMPAIGN_H1 + _CAMPAIGN_HEADER.format(h="h1") + "tiny,,,true,10.0,7.0,10.0,0.25\n",
    ),
    "campaign-header-mismatch": (
        read_campaign_csv,
        _CAMPAIGN_H1 + _CAMPAIGN_HEADER.format(h="h2") + _CAMPAIGN_RECORD,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_csv_rejected(case, tmp_path):
    read, text = MALFORMED[case]
    path = tmp_path / f"{case}.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        read(str(path))


_CELLS = ",true,10.0,7.0,10.0,0.125\n"
_SWEEP = "# sweep objective=latency\n" + _SWEEP_HEADER
_CAMPAIGN = _CAMPAIGN_H1 + _CAMPAIGN_HEADER.format(h="h1")
_DISAGREES = "the feasible flag disagrees"

# Files whose feasible flags disagree with their values, or whose objective is
# unknown: each would read back and fail later, in ``edges`` or ``summary()``.
# A heuristic's cells that do not parse are rejected with the file's name too.
INCONSISTENT = {
    "sweep-bogus-objective": (
        read_sweep_csv,
        "# sweep objective=bogus\n" + _SWEEP_HEADER,
        "objective 'bogus' is not one of",
    ),
    "sweep-feasible-without-values": (read_sweep_csv, _SWEEP + "1.0,true,,,,\n", _DISAGREES),
    "sweep-feasible-without-mapping": (
        read_sweep_csv,
        _SWEEP + "7.0,true,10.0,7.0,10.0,\n",
        _DISAGREES,
    ),
    "sweep-infeasible-with-values": (
        read_sweep_csv,
        _SWEEP + "5.0,false,10.0,7.0,10.0,1-3@p1\n",
        _DISAGREES,
    ),
    "campaign-feasible-without-objective": (
        read_campaign_csv,
        _CAMPAIGN + "tiny,,,true,,7.0,10.0,0.25" + _CELLS,
        _DISAGREES,
    ),
    "campaign-infeasible-with-values": (
        read_campaign_csv,
        _CAMPAIGN + "tiny,,,false,10.0,7.0,10.0,0.25" + _CELLS,
        _DISAGREES,
    ),
    "campaign-error-with-values": (
        read_campaign_csv,
        _CAMPAIGN + "tiny,,ValueError: x,,10.0,7.0,10.0,,,,,,\n",
        _DISAGREES,
    ),
    "campaign-bogus-objective": (
        read_campaign_csv,
        "# campaign objective=bogus threshold=inf heuristics=h1\n"
        + _CAMPAIGN_HEADER.format(h="h1")
        + _CAMPAIGN_RECORD,
        "the '# campaign' line: objective must be one of",
    ),
    "campaign-empty-heuristic-cell": (
        read_campaign_csv,
        _CAMPAIGN + "tiny,,,true,10.0,7.0,10.0,0.25,true,,7.0,10.0,0.125\n",
        "unreadable cell in",
    ),
    "campaign-non-numeric-heuristic-cell": (
        read_campaign_csv,
        _CAMPAIGN + "tiny,,,true,10.0,7.0,10.0,0.25,true,ten,7.0,10.0,0.125\n",
        "unreadable cell in",
    ),
    # heuristic lists that run_campaign rejects
    "campaign-heuristic-listed-twice": (
        read_campaign_csv,
        "# campaign objective=latency threshold=inf heuristics=h1,h1\n"
        + _CAMPAIGN_HEADER.format(h="h1").replace(
            "\n", ",h1_feasible,h1_objective,h1_period,h1_latency,h1_seconds\n"
        )
        + _CAMPAIGN_RECORD.replace("\n", _CELLS),
        "the '# campaign' line: heuristic h1 is listed more than once",
    ),
    "campaign-unknown-heuristic": (
        read_campaign_csv,
        "# campaign objective=latency threshold=inf heuristics=h9\n"
        + _CAMPAIGN_HEADER.format(h="h9")
        + _CAMPAIGN_RECORD,
        "the '# campaign' line: unknown heuristic 'h9'",
    ),
    "campaign-heuristic-bounds-the-other-criterion": (
        read_campaign_csv,
        "# campaign objective=latency threshold=inf heuristics=h5\n"
        + _CAMPAIGN_HEADER.format(h="h5")
        + _CAMPAIGN_RECORD,
        "the '# campaign' line: heuristic h5 bounds the latency but the query fixes the period",
    ),
    # grids that run_sweep_report rejects: none, and a descending one
    "sweep-without-rows": (read_sweep_csv, _SWEEP, "sweep needs at least one threshold"),
    "sweep-descending-thresholds": (
        read_sweep_csv,
        _SWEEP + "8.0,true,8.0,8.0,8.0,1-3@p1\n6.0,true,11.0,6.0,11.0,1-1@p2;2-3@p1\n",
        "sweep thresholds must be sorted ascending",
    ),
    # tables that break a rule no correct solver breaks: a sweep that is not a
    # step curve, a heuristic cell that beats the exact answer or has none
    "sweep-optimum-rises": (
        read_sweep_csv,
        _SWEEP + "1.0,true,5.0,1.0,5.0,1-3@p1\n2.0,true,9.0,2.0,9.0,1-3@p1\n",
        "optimal latency increased from 5.0 to 9.0 at threshold 2.0",
    ),
    "sweep-feasibility-lost": (
        read_sweep_csv,
        _SWEEP + "1.0,true,5.0,1.0,5.0,1-3@p1\n2.0,false,,,,\n",
        "feasibility lost at threshold 2.0 after a feasible lower threshold",
    ),
    "campaign-heuristic-beats-exact": (
        read_campaign_csv,
        _CAMPAIGN + "tiny,,,true,5.0,7.0,5.0,0.25,true,3.0,7.0,3.0,0.125\n",
        "h1 reported 3.0 on tiny, better than the exhaustive optimum 5.0",
    ),
    "campaign-feasible-heuristic-without-exact": (
        read_campaign_csv,
        _CAMPAIGN + "tiny,,,false,,,,0.25" + _CELLS,
        "h1 reported 10.0 on tiny, better than the exhaustive optimum None",
    ),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_inconsistent_csv_rejected_naming_the_file(case, tmp_path):
    read, text, message = INCONSISTENT[case]
    path = tmp_path / f"{case}.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        read(str(path))


def test_well_formed_csv_fixture_reads(tmp_path):
    path = tmp_path / "campaign.csv"
    path.write_text(_CAMPAIGN_H1 + _CAMPAIGN_HEADER.format(h="h1") + _CAMPAIGN_RECORD)
    row = read_campaign_csv(str(path)).rows[0]
    assert row.label == "tiny" and row.seed is None and row.error is None
    assert row.exact_objective == 10.0 and row.cells["h1"].seconds == 0.125
