import json

import numpy as np
import pytest

from pipemap import IntervalMapping, PipelineSpec, Platform
from pipemap.files import (
    SchemaError,
    pipeline_from_json,
    pipeline_to_json,
    platform_from_json,
    platform_to_json,
    read_mapping,
    read_pipeline,
    read_platform,
    write_pipeline,
    write_platform,
)

from util import random_instance


class TestPipelineJson:
    def test_round_trip(self, tiny_spec, tmp_path):
        path = tmp_path / "pipe.json"
        write_pipeline(tiny_spec, str(path))
        assert read_pipeline(str(path)) == tiny_spec

    def test_payload_shape(self, tiny_spec):
        payload = json.loads(pipeline_to_json(tiny_spec))
        assert payload["n"] == 3
        assert payload["w"] == [4.0, 6.0, 2.0]
        assert payload["delta"] == [2.0, 2.0, 2.0, 2.0]
        assert len(payload["stage_names"]) == 3

    def test_missing_key(self):
        with pytest.raises(SchemaError, match="w"):
            pipeline_from_json(
                json.dumps({"n": 1, "delta": [1, 1], "stage_names": ["a"]})
            )

    def test_wrong_length(self):
        with pytest.raises(SchemaError, match="delta"):
            pipeline_from_json(
                json.dumps(
                    {"n": 2, "w": [1, 2], "delta": [1, 1], "stage_names": ["a", "b"]}
                )
            )

    def test_n_mismatch(self):
        with pytest.raises(SchemaError, match="n"):
            pipeline_from_json(
                json.dumps(
                    {"n": 3, "w": [1, 2], "delta": [1, 1, 1], "stage_names": ["a", "b"]}
                )
            )

    def test_unknown_keys_ignored(self, tiny_spec):
        payload = json.loads(pipeline_to_json(tiny_spec))
        payload["comment"] = "anything"
        assert pipeline_from_json(json.dumps(payload)) == tiny_spec

    def test_stage_names_required(self):
        with pytest.raises(SchemaError, match="stage_names"):
            pipeline_from_json(json.dumps({"n": 2, "w": [1, 2], "delta": [1, 1, 1]}))


class TestPlatformJson:
    def test_round_trip(self, tiny_platform, tmp_path):
        path = tmp_path / "plat.json"
        write_platform(tiny_platform, str(path))
        loaded = read_platform(str(path))
        assert np.array_equal(loaded.s, tiny_platform.s)
        assert np.array_equal(loaded.b, tiny_platform.b)

    def test_writer_emits_flat_row_major(self, tiny_platform):
        payload = json.loads(platform_to_json(tiny_platform))
        assert payload["p"] == 2
        assert isinstance(payload["b"], list)
        assert len(payload["b"]) == 16
        assert payload["b"] == tiny_platform.b.reshape(-1).tolist()

    def test_nested_rows_accepted(self, tiny_platform):
        payload = json.loads(platform_to_json(tiny_platform))
        payload["b"] = tiny_platform.b.tolist()
        loaded = platform_from_json(json.dumps(payload))
        assert np.array_equal(loaded.b, tiny_platform.b)

    def test_flat_length_must_match(self):
        with pytest.raises(SchemaError, match="b"):
            platform_from_json(json.dumps({"p": 1, "s": [1.0], "b": [1.0] * 8}))

    def test_missing_speeds(self):
        with pytest.raises(SchemaError, match="s"):
            platform_from_json(
                json.dumps({"p": 1, "b": [0, 1, 1, 1, 0, 1, 1, 1, 0]})
            )

    def test_generator_block_round_trips(self, tiny_platform, tmp_path):
        provenance = {"seed": 42, "p": 2, "speed_range": [50.0, 200.0]}
        path = tmp_path / "plat.json"
        write_platform(tiny_platform, str(path), generator=provenance)
        raw = json.loads(path.read_text())
        assert raw["generator"]["seed"] == 42
        loaded = read_platform(str(path))  # generator block must not break parsing
        assert loaded.p == 2

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(3)
        for k in range(10):
            _, platform = random_instance(rng)
            path = tmp_path / f"plat{k}.json"
            write_platform(platform, str(path))
            loaded = read_platform(str(path))
            assert np.array_equal(loaded.s, platform.s)
            assert np.array_equal(loaded.b, platform.b)


class TestReadMapping:
    def test_inline_signature(self):
        mapping = read_mapping("1-2@p1;3-3@p2")
        assert mapping == IntervalMapping(intervals=((1, 2), (3, 3)), assignees=(1, 2))

    def test_signature_file(self, tmp_path):
        path = tmp_path / "mapping.txt"
        path.write_text("1-3@p2\n")
        assert read_mapping(str(path)) == IntervalMapping(
            intervals=((1, 3),), assignees=(2,)
        )

    def test_missing_file_is_error(self):
        with pytest.raises((OSError, ValueError)):
            read_mapping("no-at-sign-and-no-such-file")


class TestErrorMessages:
    def test_not_an_object(self):
        with pytest.raises(SchemaError):
            pipeline_from_json("[1, 2, 3]")

    def test_not_json_at_all(self):
        with pytest.raises(SchemaError):
            pipeline_from_json("{nope")

    def test_boolean_n_rejected(self):
        # JSON true is a Python bool, which isinstance(..., int) accepts
        with pytest.raises(SchemaError, match="'n'"):
            pipeline_from_json(
                json.dumps({"n": True, "w": [1.0], "delta": [1, 1], "stage_names": ["a"]})
            )

    def test_boolean_p_rejected(self):
        with pytest.raises(SchemaError, match="'p'"):
            platform_from_json(json.dumps({"p": True, "s": [100.0], "b": [1.0] * 9}))

    def test_bad_value_type(self):
        with pytest.raises(SchemaError):
            pipeline_from_json(
                json.dumps({"n": 1, "w": ["x"], "delta": [1, 1], "stage_names": ["a"]})
            )

    @pytest.mark.parametrize("nested", [False, True])
    def test_bad_bandwidth_type(self, nested):
        b = [["x", 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        if not nested:
            b = [value for row in b for value in row]
        with pytest.raises(SchemaError, match="platform file rejected"):
            platform_from_json(json.dumps({"p": 1, "s": [1.0], "b": b}))

    @pytest.mark.parametrize("key", ["w", "delta", "s", "b"])
    def test_object_where_a_number_belongs(self, key):
        pipeline = {"n": 1, "w": [1.0], "delta": [1, 1], "stage_names": ["a"]}
        platform = {"p": 1, "s": [1.0], "b": [[1.0] * 3 for _ in range(3)]}
        data, load = (pipeline, pipeline_from_json) if key in pipeline else (
            platform, platform_from_json
        )
        data[key] = [[{}] * 3] * 3 if key == "b" else [{}] * len(data[key])
        with pytest.raises(SchemaError, match=f"{key} must hold numbers"):
            load(json.dumps(data))
