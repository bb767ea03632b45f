"""Hot evaluation kernel for the exhaustive mapping scan.

Given one fixed partition of the stage chain (its per-interval compute sums
``wsum`` and boundary volumes ``bvol``), :func:`scan_perms` evaluates the
period and latency of *every* candidate processor tuple in ``perms`` in one
vectorized call.  It performs the floating-point operations in the same
order as :func:`pipemap.model.evaluate_metrics`, so each row equals that
mapping's metrics bit for bit; tests assert this.

Array contract:

* ``wsum``      -- (m,)   compute cost of each interval
* ``bvol``      -- (m+1,) data volume crossing each interval boundary,
                   ``bvol[0]`` entering the chain and ``bvol[m]`` leaving it
* ``s``         -- (p,)   processor speeds, ``s[u-1]`` for processor ``u``
* ``b``         -- (p+2, p+2) link bandwidths over ``[in, 1..p, out]``
* ``perms``     -- (count, m) integer processor tuples (1-based entries)
* ``periods``   -- (count,) output buffer
* ``latencies`` -- (count,) output buffer
"""

from __future__ import annotations

import numpy as np

__all__ = ["ACTIVE_BACKEND", "scan_perms"]

# benchmark runs record it as provenance
ACTIVE_BACKEND = "numpy"


def scan_perms(wsum, bvol, s, b, perms, periods, latencies):
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
            # evaluate_metrics' accumulation from 0.0 bit for bit.
            per = cycle
            lat = t_in + t_comp
        else:
            np.maximum(per, cycle, out=per)
            lat += t_in
            lat += t_comp
    lat += bvol[m] / b[perms[:, m - 1], p + 1]
    periods[:] = per
    latencies[:] = lat
