"""Fixed reference work that measures how fast the shared host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
30-40% over minutes as neighbours come and go, so a raw rate measured in one
30-second run says as much about the host as about pipemap.  Each worker
therefore times a fixed piece of reference work, which never calls pipemap,
before every window and once after the last.  A window's *host factor* is
the mean of the reference times on either side of it divided by the
reference's nominal time; its rate is scaled by that factor.  A factor of 1.2
says the host ran the reference 20% slower than nominal, so the window's raw
rate is multiplied by 1.2.

Drift hits numpy kernels and interpreted Python differently, so there are two
references and each workload uses the one that matches where its time goes:

* ``numpy``: gathers from a small matrix by long index arrays, divides, sums
  and takes running maxima, as the exhaustive-scan kernel does;
* ``python``: float formatting, dict and list updates and many small numpy
  calls, as the heuristics, the simulator and LP export do.

Only pipemap changes from one commit to the next; this file does not, so a
faster pipemap shows in full in the scaled rate.
"""

from __future__ import annotations

import gc
import statistics
from functools import cache
from time import perf_counter
from typing import Callable

import numpy as np

# Seconds each reference took in the fastest spells seen on a shared 2-core
# VM (Python 3.11, numpy 2.4); scaled figures read as if measured then.
NOMINAL_S = {"numpy": 0.030, "python": 0.008}
# Timings per sample; the sample is their median.
REPEATS = 3


def _numpy_work() -> Callable[[], float]:
    gen = np.random.default_rng(20080111)
    rows = 300_000
    idx_a, idx_b = gen.integers(0, 12, rows), gen.integers(0, 12, rows)
    matrix = gen.uniform(1.0, 100.0, (12, 12))

    def work() -> float:
        acc = None
        for j in range(6):
            t = (j + 3.0) / matrix[idx_a, idx_b] + 2.0 / matrix[idx_b, idx_a]
            acc = t if acc is None else np.maximum(acc, t, out=acc)
        return float(acc.min())

    return work


def _python_work() -> Callable[[], float]:
    gen = np.random.default_rng(20080111)
    matrix = gen.uniform(1.0, 100.0, (12, 12))
    values = gen.uniform(1.0, 100.0, 2000).tolist()

    def work() -> float:
        lines = [f"x{i} + {v!r} y{i % 7} <= {v * 2.0!r}" for i, v in enumerate(values)]
        totals: dict[int, float] = {}
        for i in range(30_000):
            totals[i % 97] = totals.get(i % 97, 0.0) + i * 0.5
        acc = 0.0
        for i in range(400):
            acc += float(matrix[i % 12].max())
        return len("\n".join(lines)) + acc + sum(totals.values())

    return work


@cache
def _work(kind: str) -> Callable[[], float]:
    """The reference of one kind; its inputs are built on first use only."""
    return {"numpy": _numpy_work, "python": _python_work}[kind]()


def sample(kind: str) -> float:
    """Median seconds of ``REPEATS`` runs of one reference, garbage collected first."""
    work = _work(kind)
    gc.collect()
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def host_factor(kind: str, seconds: float) -> float:
    """How much slower than nominal the host ran a reference that took ``seconds``."""
    return seconds / NOMINAL_S[kind]
