"""The vectorized step of the exact scan.

:func:`scan_perms` places one more interval on a table of processor
prefixes, which may belong to any partition into ``m`` intervals, and
carries each row's partial metrics.  It adds the terms in the order of
:func:`pipemap.model.evaluate_metrics`, so every carried value is exact;
tests assert this.  ``perfbench/tracing.py`` times its calls as the
``kernels`` layer.

Array contract:

* ``wsum``    -- (P, m)   compute cost of each interval, one row per
                 partition
* ``bvol``    -- (P, m+1) data volume crossing each interval boundary,
                 ``bvol[:, 0]`` entering the chain and ``bvol[:, m]``
                 leaving it
* ``s``       -- (p,)   processor speeds, ``s[u-1]`` for processor ``u``
* ``b``       -- (p+2, p+2) link bandwidths over ``[in, 1..p, out]``
* ``perms``   -- (count * (p-k), k+1) integer processor tuples: each of
                 ``count`` prefixes of ``k`` intervals extended by each of
                 its ``p - k`` free processors, extensions of one prefix
                 adjacent
* ``closed``, ``open_``, ``lat`` -- (count,) per prefix: the max of its
                 closed cycles, its open interval's ``t_in + t_comp`` and
                 its partial latency (all 0.0 for the empty prefix)
* ``part``    -- (count * (p-k),) the partition of each row of ``perms``:
                 its row in ``wsum`` and ``bvol``

It returns the same three arrays for the rows of ``perms``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ACTIVE_BACKEND", "scan_perms"]

# benchmark runs record it as provenance
ACTIVE_BACKEND = "numpy"


def scan_perms(wsum, bvol, s, b, perms, closed, open_, lat, part):
    """Place interval ``k`` on every row of ``perms``; return the rows' partial metrics."""
    k = perms.shape[1] - 1
    reps = s.shape[0] - k
    u = perms[:, k - 1] if k else 0
    v = perms[:, k]
    link = bvol[part, k] / b[u, v]
    comp = wsum[part, k] / s[v - 1]
    # the link is the previous interval's t_out (at k == 0 the input link
    # alone, which never exceeds the first cycle) and this one's t_in
    closed = np.maximum(np.repeat(closed, reps), np.repeat(open_, reps) + link)
    lat = np.repeat(lat, reps) + link
    lat += comp
    return closed, link + comp, lat
