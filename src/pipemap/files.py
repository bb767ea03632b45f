"""JSON file formats for pipelines and platforms.

Pipeline files::

    {"n": 3, "stage_names": [...], "w": [...], "delta": [...]}

where ``w`` has ``n`` entries and ``delta`` has ``n+1``.  Platform files::

    {"p": 2, "s": [...], "b": [...]}

where ``b`` is the row-major flattening of the ``(p+2) x (p+2)`` bandwidth
matrix over the node order ``[in, 1..p, out]``; a nested list of ``p+2`` rows
is accepted as well.  Unknown top-level keys are ignored on read.  The
platform generator writes a ``generator`` provenance block; a campaign over
platform files takes each row's seed from it.
"""

from __future__ import annotations

import json
from typing import Any

from .model import IntervalMapping, PipelineSpec, Platform, _readonly_f64

__all__ = [
    "SchemaError",
    "pipeline_from_json",
    "pipeline_to_json",
    "platform_from_json",
    "platform_to_json",
    "read_mapping",
    "read_pipeline",
    "read_platform",
    "write_pipeline",
    "write_platform",
]


class SchemaError(ValueError):
    """An input file does not match the expected JSON schema."""


def _load(text: str, what: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{what} file must contain a JSON object")
    return data


def _require(data: dict, key: str, what: str) -> Any:
    if key not in data:
        raise SchemaError(f"{what} file is missing required key {key!r}")
    return data[key]


def pipeline_from_json(text: str) -> PipelineSpec:
    data = _load(text, "pipeline")
    n = _require(data, "n", "pipeline")
    names = _require(data, "stage_names", "pipeline")
    w = _require(data, "w", "pipeline")
    delta = _require(data, "delta", "pipeline")
    if isinstance(n, bool) or not isinstance(n, int):
        raise SchemaError("pipeline key 'n' must be an integer")
    if not isinstance(names, list) or not isinstance(w, list) or not isinstance(delta, list):
        raise SchemaError("pipeline keys 'stage_names', 'w' and 'delta' must be lists")
    if len(w) != n:
        raise SchemaError(f"pipeline 'w' has {len(w)} entries, expected n = {n}")
    if len(names) != n:
        raise SchemaError(
            f"pipeline 'stage_names' has {len(names)} entries, expected n = {n}"
        )
    if len(delta) != n + 1:
        raise SchemaError(
            f"pipeline 'delta' has {len(delta)} entries, expected n+1 = {n + 1}"
        )
    try:
        return PipelineSpec(stage_names=tuple(names), w=w, delta=delta)
    except ValueError as exc:
        raise SchemaError(f"pipeline file rejected: {exc}") from exc


def pipeline_to_json(spec: PipelineSpec) -> str:
    data = {
        "n": spec.n,
        "stage_names": list(spec.stage_names),
        "w": spec.w.tolist(),
        "delta": spec.delta.tolist(),
    }
    return json.dumps(data, indent=2) + "\n"


def platform_from_json(text: str) -> Platform:
    return _platform_from_data(_load(text, "platform"))


def _platform_from_data(data: dict) -> Platform:
    p = _require(data, "p", "platform")
    s = _require(data, "s", "platform")
    b = _require(data, "b", "platform")
    if isinstance(p, bool) or not isinstance(p, int):
        raise SchemaError("platform key 'p' must be an integer")
    if not isinstance(s, list) or not isinstance(b, list):
        raise SchemaError("platform keys 's' and 'b' must be lists")
    if len(s) != p:
        raise SchemaError(f"platform 's' has {len(s)} entries, expected p = {p}")
    side = p + 2
    if b and isinstance(b[0], list):
        if len(b) != side or any(
            not isinstance(row, list) or len(row) != side for row in b
        ):
            raise SchemaError(
                f"platform 'b' must be {side} rows of {side} entries"
            )
    elif len(b) != side * side:
        raise SchemaError(
            f"platform 'b' has {len(b)} entries, expected (p+2)^2 = {side * side}"
        )
    try:
        return Platform(s=s, b=_readonly_f64(b, "b").reshape(side, side))
    except ValueError as exc:
        raise SchemaError(f"platform file rejected: {exc}") from exc


def platform_to_json(platform: Platform, *, generator: dict | None = None) -> str:
    data: dict[str, Any] = {
        "p": platform.p,
        "s": platform.s.tolist(),
        "b": platform.b.reshape(-1).tolist(),
    }
    if generator is not None:
        data["generator"] = generator
    return json.dumps(data, indent=2) + "\n"


def read_pipeline(path: str) -> PipelineSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return pipeline_from_json(fh.read())


def write_pipeline(spec: PipelineSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pipeline_to_json(spec))


def read_platform(path: str) -> Platform:
    return _read_platform_and_seed(path)[0]


def _read_platform_and_seed(path: str) -> tuple[Platform, int | None]:
    """A platform file and the integer seed its ``generator`` block records."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _load(fh.read(), "platform")
    generator = data.get("generator")
    seed = generator.get("seed") if isinstance(generator, dict) else None
    if isinstance(seed, bool) or not isinstance(seed, int):
        seed = None
    return _platform_from_data(data), seed


def write_platform(
    platform: Platform, path: str, *, generator: dict | None = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(platform_to_json(platform, generator=generator))


def read_mapping(text_or_path: str) -> IntervalMapping:
    """Parse a mapping from a signature string or a file containing one."""
    text = text_or_path
    if "@" not in text:
        with open(text_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return IntervalMapping.from_signature(text)
