"""Independent reference implementations used to cross-check the package.

Deliberately written from scratch in a different style (recursive
enumeration over plain Python lists, no numpy) so that agreement between the
package and this module is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools
import math

Mapping = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]


def chain_partitions(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every split of stages ``1..n`` into intervals, by recursive chain splitting.

    Depth first with the shorter first interval first, so the splits into
    ``m`` intervals come in lexicographic order of their cuts.
    """
    found: list[tuple[tuple[int, int], ...]] = []

    def rec(start: int, intervals: list[tuple[int, int]]) -> None:
        if start > n:
            found.append(tuple(intervals))
            return
        for end in range(start, n + 1):
            rec(end + 1, intervals + [(start, end)])

    rec(1, [])
    return found


def all_mappings(n: int, p: int) -> list[Mapping]:
    """Every (intervals, processors) pair, by recursive chain splitting."""
    return [
        (intervals, procs)
        for intervals in chain_partitions(n)
        if len(intervals) <= p
        for procs in itertools.permutations(range(1, p + 1), len(intervals))
    ]


def cycle_times(w, delta, s, b, intervals, procs) -> list[float]:
    p = len(s)
    m = len(procs)
    cycles = []
    for j in range(m):
        d, e = intervals[j]
        u = procs[j]
        src = procs[j - 1] if j else 0
        dst = procs[j + 1] if j + 1 < m else p + 1
        compute = sum(w[d - 1 : e]) / s[u - 1]
        cycles.append(delta[d - 1] / b[src][u] + compute + delta[e] / b[u][dst])
    return cycles


def period_of(w, delta, s, b, intervals, procs) -> float:
    return max(cycle_times(w, delta, s, b, intervals, procs))


def latency_of(w, delta, s, b, intervals, procs) -> float:
    p = len(s)
    m = len(procs)
    total = 0.0
    for j in range(m):
        d, e = intervals[j]
        u = procs[j]
        src = procs[j - 1] if j else 0
        total += delta[d - 1] / b[src][u] + sum(w[d - 1 : e]) / s[u - 1]
    return total + delta[-1] / b[procs[-1]][p + 1]


def solve_naive(w, delta, s, b, objective: str, threshold: float):
    """Linear scan over the full enumeration with explicit tie-breaking.

    Returns ``(best_mapping_or_None, objective_value, other_value,
    min_period, min_latency, evaluated)``.
    """
    n = len(w)
    p = len(s)
    if math.isinf(threshold):
        padded = threshold
    else:
        padded = threshold + 1e-9 * max(1.0, abs(threshold))
    best_key: tuple[float, float] | None = None
    best_mapping: Mapping | None = None
    min_period = math.inf
    min_latency = math.inf
    evaluated = 0
    for intervals, procs in all_mappings(n, p):
        evaluated += 1
        period = period_of(w, delta, s, b, intervals, procs)
        latency = latency_of(w, delta, s, b, intervals, procs)
        min_period = min(min_period, period)
        min_latency = min(min_latency, latency)
        if objective == "latency":
            obj, fixed = latency, period
        else:
            obj, fixed = period, latency
        if fixed <= padded:
            key = (obj, fixed)
            if best_key is None or key < best_key:
                best_key = key
                best_mapping = (intervals, procs)
    if best_key is None:
        return None, None, None, min_period, min_latency, evaluated
    return best_mapping, best_key[0], best_key[1], min_period, min_latency, evaluated


def identical_front(w, delta, s, b) -> list[tuple[float, float, Mapping]]:
    """The (period, latency) Pareto front when every processor is alike.

    With one speed and one bandwidth everywhere, a mapping's metrics depend
    only on its partition, and the canonically first mapping of a partition
    into ``m`` intervals runs on processors ``1..m``.  So the front is the
    Pareto filter of the ``2^(n-1)`` partitions in canonical order (``m``
    ascending, then cuts lexicographic), each on ``1..m``; an exact tie keeps
    the earlier partition.  Returns ``(period, latency, mapping)`` points,
    periods rising.
    """
    n, p = len(w), len(s)
    points = []
    for intervals in sorted(chain_partitions(n), key=len):  # stable: cuts stay lexicographic
        if len(intervals) > p:
            break
        procs = tuple(range(1, len(intervals) + 1))
        period = period_of(w, delta, s, b, intervals, procs)
        latency = latency_of(w, delta, s, b, intervals, procs)
        points.append((period, latency, (intervals, procs)))
    front: list[tuple[float, float, Mapping]] = []
    for period, latency, mapping in sorted(points, key=lambda point: point[:2]):
        if not front or latency < front[-1][1]:
            front.append((period, latency, mapping))
    return front
