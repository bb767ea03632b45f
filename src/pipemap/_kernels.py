"""Hot evaluation kernels for the exhaustive mapping scan.

Given one fixed partition of the stage chain (its per-interval compute sums
``wsum`` and boundary volumes ``bvol``), a kernel evaluates the period and
latency of *every* candidate processor tuple in ``perms`` in one call.  Two
implementations exist:

* a scalar-loop version compiled with numba ``@njit`` (the default), and
* a vectorized pure-numpy fallback.

Both perform the floating-point operations in the same order, so their
outputs are bitwise identical; tests assert this.  Set the environment
variable ``PIPEMAP_NO_NUMBA=1`` to select the numpy path (it is also chosen
automatically when numba is not importable).

Array contract, shared by both:

* ``wsum``      -- (m,)   compute cost of each interval
* ``bvol``      -- (m+1,) data volume crossing each interval boundary,
                   ``bvol[0]`` entering the chain and ``bvol[m]`` leaving it
* ``s``         -- (p,)   processor speeds, ``s[u-1]`` for processor ``u``
* ``b``         -- (p+2, p+2) link bandwidths over ``[in, 1..p, out]``
* ``perms``     -- (count, m) integer processor tuples (1-based entries);
                   the scan passes them column-major as ``intp``
* ``periods``   -- (count,) output buffer
* ``latencies`` -- (count,) output buffer
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "ACTIVE_BACKEND",
    "HAS_NUMBA",
    "scan_perms",
    "scan_perms_numba",
    "scan_perms_numpy",
]


def _scan_perms_loops(wsum, bvol, s, b, perms, periods, latencies):
    count, m = perms.shape
    p = s.shape[0]
    for i in range(count):
        lat = 0.0
        per = 0.0
        for j in range(m):
            u = perms[i, j]
            pred = perms[i, j - 1] if j > 0 else 0
            succ = perms[i, j + 1] if j < m - 1 else p + 1
            t_in = bvol[j] / b[pred, u]
            t_comp = wsum[j] / s[u - 1]
            t_out = bvol[j + 1] / b[u, succ]
            cycle = t_in + t_comp + t_out
            if cycle > per:
                per = cycle
            lat += t_in
            lat += t_comp
        lat += bvol[m] / b[perms[i, m - 1], p + 1]
        periods[i] = per
        latencies[i] = lat


def scan_perms_numpy(wsum, bvol, s, b, perms, periods, latencies):
    """Vectorized evaluation of every processor tuple for one partition."""
    count, m = perms.shape
    p = s.shape[0]
    per = None
    lat = None
    for j in range(m):
        u = perms[:, j]
        pred = perms[:, j - 1] if j > 0 else np.zeros(count, dtype=perms.dtype)
        succ = (
            perms[:, j + 1]
            if j < m - 1
            else np.full(count, p + 1, dtype=perms.dtype)
        )
        t_in = bvol[j] / b[pred, u]
        t_comp = wsum[j] / s[u - 1]
        t_out = bvol[j + 1] / b[u, succ]
        cycle = t_in + t_comp + t_out
        if j == 0:
            # 0.0 + x == x exactly, so starting from the first terms matches
            # the scalar loop's running accumulation bit for bit.
            per = cycle
            lat = t_in + t_comp
        else:
            np.maximum(per, cycle, out=per)
            lat += t_in
            lat += t_comp
    lat += bvol[m] / b[perms[:, m - 1], p + 1]
    periods[:] = per
    latencies[:] = lat


_FORCE_NUMPY = os.environ.get("PIPEMAP_NO_NUMBA", "").strip().lower() in {
    "1",
    "true",
    "yes",
}

try:
    from numba import njit

    scan_perms_numba = njit(cache=True, nogil=True)(_scan_perms_loops)
    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    scan_perms_numba = None
    HAS_NUMBA = False

if HAS_NUMBA and not _FORCE_NUMPY:
    ACTIVE_BACKEND = "numba"
else:
    ACTIVE_BACKEND = "numpy"


def scan_perms(wsum, bvol, s, b, perms, periods, latencies):
    """Evaluate all tuples with the active backend (see ``ACTIVE_BACKEND``)."""
    if ACTIVE_BACKEND == "numba":
        scan_perms_numba(wsum, bvol, s, b, perms, periods, latencies)
    else:
        scan_perms_numpy(wsum, bvol, s, b, perms, periods, latencies)
