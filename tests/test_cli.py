import hashlib
import json
import subprocess
import sys

import pytest

from pipemap.cli import main
from pipemap.files import write_pipeline, write_platform


@pytest.fixture
def tiny_files(tiny_spec, tiny_platform, tmp_path):
    pipeline = tmp_path / "pipeline.json"
    platform = tmp_path / "platform.json"
    write_pipeline(tiny_spec, str(pipeline))
    write_platform(tiny_platform, str(platform))
    return str(pipeline), str(platform)


class TestSolve:
    def test_feasible_exit_zero(self, tiny_files, capsys):
        pipeline, platform = tiny_files
        code = main(
            ["solve", "--pipeline", pipeline, "--platform", platform, "--period", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1-2@p1;3-3@p2" in out
        assert "latency" in out
        lines = out.splitlines()
        at = lines.index("evaluated: 6 mappings")
        scored = lines[at + 1]
        assert scored.startswith("scored: ") and scored.endswith(" pruned)")
        count, of, total, _, pruned, _ = scored.split()[1:]
        assert (of, total) == ("of", "6")
        assert int(count) + int(pruned.lstrip("(")) == 6

    def test_infeasible_exit_two(self, tiny_files, capsys):
        pipeline, platform = tiny_files
        code = main(
            ["solve", "--pipeline", pipeline, "--platform", platform, "--period", "5"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "feasible: no" in out
        # the report still names the best reachable bounds
        assert "best unconstrained period: 6.0" in out
        assert "best unconstrained latency: 8.0" in out

    def test_json_output(self, tiny_files, tmp_path, capsys):
        pipeline, platform = tiny_files
        out_path = tmp_path / "result.json"
        code = main(
            [
                "solve",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--latency",
                "10",
                "--out",
                str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["feasible"] is True
        assert payload["mapping"] == "1-2@p1;3-3@p2"
        assert payload["period"] == 7.0

    def test_exactly_one_threshold_required(self, tiny_files, capsys):
        pipeline, platform = tiny_files
        assert (
            main(["solve", "--pipeline", pipeline, "--platform", platform]) == 1
        )
        assert (
            main(
                [
                    "solve",
                    "--pipeline",
                    pipeline,
                    "--platform",
                    platform,
                    "--period",
                    "7",
                    "--latency",
                    "9",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "error" in err

    @pytest.mark.parametrize("which", ["pipeline", "platform"])
    def test_object_where_a_number_belongs_exit_one(
        self, tiny_files, tmp_path, capsys, which
    ):
        files = dict(zip(("pipeline", "platform"), tiny_files))
        bad = {
            "pipeline": {"n": 1, "stage_names": ["a"], "w": [{}], "delta": [1, 1]},
            "platform": {"p": 1, "s": [{}], "b": [1] * 9},
        }[which]
        files[which] = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        pipeline, platform = files["pipeline"], files["platform"]
        code = main(
            ["solve", "--pipeline", pipeline, "--platform", platform, "--period", "7"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{which} file rejected" in err

    def test_missing_file_exit_one(self, tiny_files, capsys):
        _, platform = tiny_files
        code = main(
            [
                "solve",
                "--pipeline",
                "/nonexistent/pipe.json",
                "--platform",
                platform,
                "--period",
                "7",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_default_pipeline_is_preset(self, tmp_path, capsys):
        platform_path = tmp_path / "gen.json"
        assert (
            main(
                [
                    "gen-platform",
                    "--seed",
                    "3",
                    "--p",
                    "3",
                    "--out",
                    str(platform_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            ["solve", "--platform", str(platform_path), "--latency", "1000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "period" in out


class TestGenPlatform:
    def test_writes_valid_file(self, tmp_path, capsys):
        path = tmp_path / "platform.json"
        code = main(
            [
                "gen-platform",
                "--seed",
                "11",
                "--p",
                "4",
                "--speed-range",
                "10,20",
                "--out",
                str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        from pipemap.files import read_platform

        platform = read_platform(str(path))
        assert platform.p == 4
        assert platform.s.min() >= 10.0 and platform.s.max() <= 20.0
        raw = json.loads(path.read_text())
        assert raw["generator"]["seed"] == 11

    def test_bad_range_exit_one(self, tmp_path, capsys):
        code = main(
            [
                "gen-platform",
                "--seed",
                "1",
                "--p",
                "2",
                "--speed-range",
                "20,10",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestHeuristic:
    def test_h2_trace_and_search_printed(self, tiny_files, capsys):
        pipeline, platform = tiny_files
        code = main(
            [
                "heuristic",
                "--heuristic",
                "h2",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--period",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1-2@p1;3-3@p2" in out
        assert "authorized latency increase" in out or "increase" in out

    def test_flag_must_match_fixed_criterion(self, tiny_files, capsys):
        pipeline, platform = tiny_files
        code = main(
            [
                "heuristic",
                "--heuristic",
                "h5",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--period",
                "7",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--h2-upper-factor", "nan", "upper_factor"), ("--h2-lower", "inf", "lower")],
    )
    def test_non_finite_search_bound_exit_one(self, tiny_files, capsys, flag, value, field):
        pipeline, platform = tiny_files
        code = main(
            [
                "heuristic",
                "--heuristic",
                "h2",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--period",
                "7",
                flag,
                value,
            ]
        )
        assert code == 1
        assert field in capsys.readouterr().err

    def test_infeasible_exit_two(self, tiny_files, capsys):
        pipeline, platform = tiny_files
        code = main(
            [
                "heuristic",
                "--heuristic",
                "h1",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--period",
                "5",
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_outcome_json(self, tiny_files, tmp_path, capsys):
        pipeline, platform = tiny_files
        out_path = tmp_path / "outcome.json"
        code = main(
            [
                "heuristic",
                "--heuristic",
                "h5",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--latency",
                "10",
                "--out",
                str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["heuristic"] == "h5"
        assert payload["period"] == 7.0

    # sha256 over the three ``--out`` files below; it pins the key order and
    # float text the CLI writes, which a ``sort_keys`` digest does not see.
    OUT_SHA256 = "d938bb78e39b123a1cf2616f8b98ae93f412fb722c544a34e3892a00efb09519"

    def test_out_bytes(self, tiny_spec, tiny_platform, tiny3_platform, tmp_path, capsys):
        pipeline = tmp_path / "pipeline.json"
        write_pipeline(tiny_spec, str(pipeline))
        cases = [
            # a feasible h2 whose allowance search runs 21 trials
            ("h2", tiny_platform, "--period", "7"),
            # an h3 trace whose one split is three-way
            ("h3", tiny3_platform, "--period", "6"),
            ("h6", tiny_platform, "--latency", "10"),
        ]
        digest = hashlib.sha256()
        for i, (name, plat, flag, value) in enumerate(cases):
            platform = tmp_path / f"platform{i}.json"
            write_platform(plat, str(platform))
            out_path = tmp_path / f"{name}.json"
            code = main(
                [
                    "heuristic",
                    "--heuristic",
                    name,
                    "--pipeline",
                    str(pipeline),
                    "--platform",
                    str(platform),
                    flag,
                    value,
                    "--out",
                    str(out_path),
                ]
            )
            assert code == 0, name
            data = out_path.read_bytes()
            digest.update(f"{name} {len(data)}\n".encode())
            digest.update(data)
        capsys.readouterr()
        assert digest.hexdigest() == self.OUT_SHA256


class TestSimulate:
    def test_inline_mapping(self, tiny_files, capsys):
        pipeline, platform = tiny_files
        code = main(
            [
                "simulate",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--mapping",
                "1-2@p1;3-3@p2",
                "--items",
                "60",
                "--warmup",
                "12",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "7" in out and "10" in out

    def test_event_log_written(self, tiny_files, tmp_path, capsys):
        pipeline, platform = tiny_files
        log_path = tmp_path / "events.csv"
        code = main(
            [
                "simulate",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--mapping",
                "1-3@p1",
                "--items",
                "5",
                "--warmup",
                "1",
                "--event-log",
                str(log_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert log_path.read_text().startswith("time_start,time_end,processor")

    def test_invalid_mapping_exit_one(self, tiny_files, capsys):
        pipeline, platform = tiny_files
        code = main(
            [
                "simulate",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--mapping",
                "1-1@p1;3-3@p2",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_grid_and_edges(self, tiny_files, capsys):
        pipeline, platform = tiny_files
        code = main(
            [
                "sweep",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--period",
                "5:8:7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "edges" in out
        assert "infeasible" in out

    def test_csv_output(self, tiny_files, tmp_path, capsys):
        pipeline, platform = tiny_files
        out_path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--period",
                "5,6,7,8",
                "--out",
                str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        from pipemap.workbench import read_sweep_csv

        report = read_sweep_csv(str(out_path))
        assert report.edges == (6.0, 7.0, 8.0)


class TestCampaign:
    def test_seeded_campaign(self, tiny_files, tmp_path, capsys):
        pipeline, _ = tiny_files
        out_path = tmp_path / "campaign.csv"
        code = main(
            [
                "campaign",
                "--pipeline",
                pipeline,
                "--seeds",
                "1:3",
                "--p",
                "3",
                "--latency",
                "1000",
                "--heuristics",
                "h5,h6",
                "--out",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "h5" in out and "h6" in out
        from pipemap.workbench import read_campaign_csv

        result = read_campaign_csv(str(out_path))
        assert len(result.rows) == 3

    def test_platform_file_seed_recorded(self, tiny_files, tiny_platform, tmp_path):
        pipeline, plain = tiny_files
        generated = str(tmp_path / "plat4.json")
        assert main(["gen-platform", "--seed", "4", "--p", "3", "--out", generated]) == 0
        odd = str(tmp_path / "odd.json")
        write_platform(tiny_platform, odd, generator={"seed": "4"})
        out_path = tmp_path / "campaign.csv"
        code = main(
            [
                "campaign",
                "--pipeline",
                pipeline,
                "--platform",
                generated,
                "--platform",
                plain,
                "--platform",
                odd,
                "--latency",
                "1000",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        from pipemap.workbench import read_campaign_csv

        rows = read_campaign_csv(str(out_path)).rows
        assert [(row.label, row.seed) for row in rows] == [
            (generated, 4),
            (plain, None),
            (odd, None),
        ]

    def test_empty_seed_range_exit_one(self, tiny_files, tmp_path, capsys):
        pipeline, _ = tiny_files
        out_path = tmp_path / "campaign.csv"
        code = main(
            [
                "campaign",
                "--pipeline",
                pipeline,
                "--seeds",
                "5:1",
                "--p",
                "3",
                "--period",
                "3.0",
                "--out",
                str(out_path),
            ]
        )
        assert code == 1
        assert "empty" in capsys.readouterr().err
        assert not out_path.exists()

    def test_three_part_seed_range_exit_one(self, tiny_files, capsys):
        pipeline, _ = tiny_files
        code = main(
            [
                "campaign",
                "--pipeline",
                pipeline,
                "--seeds",
                "1:2:3",
                "--p",
                "3",
                "--period",
                "3.0",
            ]
        )
        assert code == 1
        assert "expected 'low:high', got '1:2:3'" in capsys.readouterr().err

    def test_platform_files_and_seeds_exclusive(self, tiny_files, capsys):
        pipeline, platform = tiny_files
        code = main(
            [
                "campaign",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--seeds",
                "1:2",
                "--p",
                "2",
                "--period",
                "9",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExportLp:
    def test_writes_parseable_program(self, tiny_files, tmp_path, capsys):
        pipeline, platform = tiny_files
        out_path = tmp_path / "tiny.lp"
        code = main(
            [
                "export-lp",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--period",
                "7",
                "--out",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "variables" in out and "rows" in out
        import lp_grammar

        parsed = lp_grammar.parse_lp(out_path.read_text())
        assert parsed.diagnostics == []


class TestEntryPoints:
    def test_module_invocation(self, tiny_files):
        pipeline, platform = tiny_files
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pipemap",
                "solve",
                "--pipeline",
                pipeline,
                "--platform",
                platform,
                "--period",
                "7",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "1-2@p1;3-3@p2" in proc.stdout

    def test_no_arguments_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err
