"""Shared builders for randomized tests."""

from __future__ import annotations

import numpy as np

from pipemap import IntervalMapping, PipelineSpec, Platform


def random_instance(
    rng: np.random.Generator,
    n_range: tuple[int, int] = (1, 5),
    p_range: tuple[int, int] = (1, 4),
    allow_zero_delta: bool = True,
) -> tuple[PipelineSpec, Platform]:
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    p = int(rng.integers(p_range[0], p_range[1] + 1))
    w = rng.uniform(1.0, 100.0, n)
    delta = rng.uniform(0.5, 50.0, n + 1)
    if allow_zero_delta and rng.random() < 0.2:
        delta[int(rng.integers(0, n + 1))] = 0.0
    s = rng.uniform(50.0, 200.0, p)
    b = rng.uniform(50.0, 200.0, (p + 2, p + 2))
    np.fill_diagonal(b, 0.0)
    spec = PipelineSpec(
        stage_names=tuple(f"stage{k}" for k in range(1, n + 1)), w=w, delta=delta
    )
    return spec, Platform(s=s, b=b)


def integer_instance(
    rng: np.random.Generator,
    n_range: tuple[int, int] = (3, 7),
    p_range: tuple[int, int] = (3, 6),
) -> tuple[PipelineSpec, Platform]:
    """Every w, delta, s and b drawn from {1, 2, 3}, so exact metric ties occur."""
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    p = int(rng.integers(p_range[0], p_range[1] + 1))
    b = rng.integers(1, 4, (p + 2, p + 2)).astype(float)
    np.fill_diagonal(b, 0.0)
    spec = PipelineSpec(
        stage_names=tuple(f"stage{k}" for k in range(1, n + 1)),
        w=rng.integers(1, 4, n).astype(float),
        delta=rng.integers(1, 4, n + 1).astype(float),
    )
    return spec, Platform(s=rng.integers(1, 4, p).astype(float), b=b)


def with_zero_delta(rng: np.random.Generator, spec: PipelineSpec) -> PipelineSpec:
    """``spec`` with one data volume, drawn at random, set to zero."""
    delta = spec.delta.copy()
    delta[int(rng.integers(0, spec.n + 1))] = 0.0
    return PipelineSpec(stage_names=spec.stage_names, w=spec.w, delta=delta)


def random_valid_mapping(
    rng: np.random.Generator, n: int, p: int
) -> IntervalMapping:
    m = int(rng.integers(1, min(n, p) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=m - 1, replace=False).tolist()) if m > 1 else []
    bounds = [0] + cuts + [n]
    intervals = tuple((bounds[i] + 1, bounds[i + 1]) for i in range(m))
    procs = tuple(int(u) for u in rng.choice(np.arange(1, p + 1), size=m, replace=False))
    return IntervalMapping(intervals=intervals, assignees=procs)


def as_lists(spec: PipelineSpec, platform: Platform):
    """Plain-list views of an instance for the oracle module."""
    return (
        spec.w.tolist(),
        spec.delta.tolist(),
        platform.s.tolist(),
        platform.b.tolist(),
    )


def planted_platform(rng: np.random.Generator, classes, pattern: str) -> Platform:
    """A platform whose processors ``u`` and ``v`` are interchangeable exactly
    when ``classes[u-1] == classes[v-1]``.

    Each class has its own integer speed, distinct from every other class's.
    Links follow ``pattern``: ``"uniform"`` (one bandwidth), ``"receiver"``
    (one per receiving class) or ``"pair"`` (one per sender and receiver
    class), each drawn from {1, 2, 3}; the two gateways are classes of their
    own.
    """
    classes = np.unique(classes, return_inverse=True)[1]
    c = int(classes.max()) + 1
    label = np.concatenate(([c], classes, [c + 1]))
    table = rng.integers(1, 4, (c + 2, c + 2)).astype(float)
    if pattern == "uniform":
        table[:] = table[0, 0]
    elif pattern == "receiver":
        table[:] = table[0]
    b = table[np.ix_(label, label)]
    np.fill_diagonal(b, 0.0)
    return Platform(s=(rng.permutation(c) + 1.0)[classes], b=b)


def planted_lead(classes) -> list[int]:
    """``Platform._lead`` of a planted platform: each processor's previous class member, or 0."""
    classes = list(classes)
    return [0] + [
        max((u for u in range(1, v) if classes[u - 1] == classes[v - 1]), default=0)
        for v in range(1, len(classes) + 1)
    ]
