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
* ``perms``   -- (R, k+1) integer processor tuples: prefixes of ``k``
                 intervals, each extended by one processor
* ``closed``, ``open_``, ``lat`` -- (R,) for each row of ``perms``, its
                 prefix's max of closed cycles, open interval's
                 ``t_in + t_comp`` and partial latency (0.0 at ``k == 0``)
* ``part``    -- (R,) the partition of each row of ``perms``: its row in
                 ``wsum`` and ``bvol``

Each row is computed on its own; the caller repeats a prefix's values for
its extensions.  It returns the same three arrays for the rows of ``perms``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ACTIVE_BACKEND", "scan_perms"]

# benchmark runs record it as provenance
ACTIVE_BACKEND = "numpy"


def scan_perms(wsum, bvol, s, b, perms, closed, open_, lat, part):
    """Place interval ``k`` on every row of ``perms``; return the rows' partial metrics."""
    k = perms.shape[1] - 1
    u = perms[:, k - 1] if k else 0
    v = perms[:, k]
    link = bvol[part, k] / b[u, v]
    comp = wsum[part, k] / s[v - 1]
    # the link is the previous interval's t_out (at k == 0 the input link
    # alone, which never exceeds the first cycle) and this one's t_in
    closed = np.maximum(closed, open_ + link)
    lat = lat + link
    lat += comp
    return closed, link + comp, lat
