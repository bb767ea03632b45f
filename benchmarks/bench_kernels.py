"""Benchmark the numba scan kernel against the pure-numpy fallback.

Runs the exhaustive bi-criteria solver end to end on a couple of workload
sizes, once per backend, and reports the median wall time of 5 runs, the
spread between its quartiles and the speedup of the medians.
Both backends accumulate floats in the same order, so the script also
cross-checks that their results agree bit for bit.

Usage::

    python3 benchmarks/bench_kernels.py

The numbers below each run depend on the machine; the point of the script
is the relative comparison (and a quick regression check that the numba
path still compiles and wins on the large scan).
"""

from __future__ import annotations

import statistics
import time

from pipemap import (
    BicriteriaQuery,
    PlatformGenSpec,
    generate_platform,
    jpeg_preset,
    solve,
)
from pipemap import _kernels


def time_solve(spec, platform, query, n_runs=5):
    """Return (median, quartile spread, result) for repeated solve() calls."""
    times = []
    result = None
    for _ in range(n_runs):
        started = time.perf_counter()
        result = solve(spec, platform, query)
        times.append(time.perf_counter() - started)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return median, q3 - q1, result


def run_backend(backend, spec, platform, query, n_runs):
    previous = _kernels.ACTIVE_BACKEND
    _kernels.ACTIVE_BACKEND = backend
    try:
        return time_solve(spec, platform, query, n_runs=n_runs)
    finally:
        _kernels.ACTIVE_BACKEND = previous


def main():
    print("=" * 64)
    print("scan kernel benchmark: numba @njit loops vs vectorized numpy")
    print("=" * 64)
    print(f"numba importable : {_kernels.HAS_NUMBA}")
    print(f"active backend   : {_kernels.ACTIVE_BACKEND}")
    print()

    spec = jpeg_preset()
    query = BicriteriaQuery.minimize_latency()
    workloads = [
        ("p=6  (24,306 mappings)", generate_platform(PlatformGenSpec(seed=3, p=6))),
        ("p=10 (2,077,750 mappings)", generate_platform(PlatformGenSpec(seed=3, p=10))),
    ]

    if _kernels.HAS_NUMBA:
        print("warming up the JIT compile on a tiny instance...")
        tiny = generate_platform(PlatformGenSpec(seed=1, p=2))
        run_backend("numba", spec, tiny, query, n_runs=1)
        print("warmup complete.\n")

    header = f"{'workload':<28} {'backend':<8} {'median':>9} {'q3-q1':>9} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for label, platform in workloads:
        numpy_median, numpy_spread, numpy_result = run_backend(
            "numpy", spec, platform, query, n_runs=5
        )
        rows = [("numpy", numpy_median, numpy_spread)]
        if _kernels.HAS_NUMBA:
            numba_median, numba_spread, numba_result = run_backend(
                "numba", spec, platform, query, n_runs=5
            )
            rows.insert(0, ("numba", numba_median, numba_spread))
            # identical op order means identical floats, not just close ones
            assert numba_result.metrics.period == numpy_result.metrics.period
            assert numba_result.metrics.latency == numpy_result.metrics.latency
            assert numba_result.evaluated == numpy_result.evaluated
        for backend, median, spread in rows:
            speedup = numpy_median / median if median else float("inf")
            print(
                f"{label:<28} {backend:<8} {median:>8.3f}s {spread:>8.3f}s {speedup:>7.1f}x"
            )
        print()

    if _kernels.HAS_NUMBA:
        print("backend results agree bitwise on every workload.")
    else:
        print("numba unavailable: timed the numpy fallback only.")


if __name__ == "__main__":
    main()
