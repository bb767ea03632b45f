"""Integer-linear-program export of a bi-criteria query, in LP text format.

The encoding introduces, over the node set ``{in, p1..pP, out}``:

* binaries ``x_k_u``     -- stage ``k`` runs on node ``u`` (stages ``0`` and
  ``n+1`` are virtual gateway stages pinned to ``in`` / ``out``);
* binaries ``z_k_u_v``   -- the boundary after stage ``k`` crosses the link
  from ``u`` to ``v`` (declared only for links that can carry traffic:
  nothing is ever sent to ``in`` or from ``out``);
* binaries ``y_k_u``     -- stages ``k`` and ``k+1`` both run on ``u``;
* integers ``first_u``, ``last_u`` in ``[1..n]`` -- the interval bounds on
  each processor (free when the processor is unused);
* continuous ``Topt >= 0`` -- the minimized criterion.

Constraint families, in the order they are emitted: ``assign_k`` (every
stage runs somewhere, ``n+2`` rows), ``route_k`` (every boundary is either a
link crossing or a same-processor hand-off, ``n+1`` rows), ``link``/``same``
(connect ``x`` to ``z``/``y``), ``firstb``/``lastb`` and ``cutl``/``cutf``
(interval consistency), then the cost rows: one ``latency`` row and ``p``
``period_*`` rows.  Both query senses emit that one cost-row list: the
minimized criterion's rows compare against ``Topt``; the fixed criterion's
rows get the query threshold as a constant right-hand side, and are dropped
when the threshold is infinite.

Each constraint is a :class:`Row`, a named tuple ``(name, terms, sense,
rhs)`` whose terms are ``(coef, var)`` pairs; row and variable names are LP
identifiers, without spaces.  :func:`build_instance` builds each row family in
bulk, with no Python step per row: names by prefix concatenation, terms by
zipping columns, rows by ``tuple.__new__``.  Each term that several rows hold,
such as ``(1.0, x_k_u)``, ``(1.0, first_u)`` or a cost term ``(delta / b,
z_k_u_v)``, is one shared pair.  ``Row`` is a tuple subclass, which the
garbage collector never untracks, so every row a program holds stays in the
collector's generations and a large program triggers full collections while
it is built; fewer new objects per row mean fewer collections.
:meth:`IlpInstance.to_lp_text` renders each row once, formatting each
distinct number once per call.  Every row, and the
``Binary`` and ``General`` lists, goes through one line breaker: a line holds
at most 72 characters after its leading space, and each break is the last
space that fits, so most rows are one line and the ``assign``, ``route`` and
cost rows wrap at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, NamedTuple

from .model import (
    BicriteriaQuery,
    IntervalMapping,
    PipelineSpec,
    Platform,
    evaluate_metrics,
    require_valid,
)

__all__ = [
    "IlpInstance",
    "Row",
    "assignment_from_mapping",
    "build_instance",
    "export_ilp",
    "write_lp",
]


class Row(NamedTuple):
    """One linear constraint: ``sum(coef * var) [sense] rhs``."""

    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "<=", "=" or ">="
    rhs: float

    def evaluate(self, assignment: dict[str, float]) -> float:
        """Left-hand-side value under a (partial) variable assignment."""
        total = 0.0
        for coef, var in self.terms:
            total += coef * assignment.get(var, 0.0)
        return total

    def satisfied(self, assignment: dict[str, float], tol: float = 1e-9) -> bool:
        lhs = self.evaluate(assignment)
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        if self.sense == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass(frozen=True)
class IlpInstance:
    """A fully materialized integer program for one query."""

    query: BicriteriaQuery
    n: int
    p: int
    binaries: tuple[str, ...]
    generals: tuple[str, ...]
    rows: tuple[Row, ...]
    pins: tuple[tuple[str, float], ...]
    objective_var: str

    @property
    def variables(self) -> tuple[str, ...]:
        return self.binaries + self.generals + (self.objective_var,)

    def rows_named(self, prefix: str) -> list[Row]:
        return [r for r in self.rows if r.name == prefix or r.name.startswith(prefix + "_")]

    def to_lp_text(self) -> str:
        query = self.query
        threshold = (
            _fmt(query.threshold) if math.isfinite(query.threshold) else "none (unconstrained)"
        )
        out = [
            f"\\ bi-criteria mapping program: minimize {query.objective}",
            f"\\ fixed {query.fixed_criterion} threshold: {threshold}",
            f"\\ stages: {self.n}, processors: {self.p}",
            "Minimize",
            f" obj: {self.objective_var}",
            "Subject To",
        ]
        # Each distinct number is formatted once: ``signed`` maps a
        # coefficient to its "+ c" / "- c" prefix, ``plain`` a value to text.
        signed = _Memo(lambda coef: ("- " if coef < 0 else "+ ") + _fmt(abs(coef)))
        plain = _Memo(_fmt)
        for name, terms, sense, rhs in self.rows:
            text = " ".join([f"{signed[coef]} {var}" for coef, var in terms])
            out += _wrap(f"{name}: {text.removeprefix('+ ')} {sense} {plain[rhs]}")
        out.append("Bounds")
        out += [f" {var} = {plain[value]}" for var, value in self.pins]
        out += [f" 1 <= {var} <= {self.n}" for var in self.generals]
        out += [f" {self.objective_var} >= 0", "Binary"]
        out += _wrap(" ".join(self.binaries), indent=" ")
        out.append("General")
        out += _wrap(" ".join(self.generals), indent=" ")
        out.append("End")
        return "\n".join(out) + "\n"


def _labels(p: int) -> list[str]:
    return ["in"] + [f"p{u}" for u in range(1, p + 1)] + ["out"]


def _rows(names, terms, sense: str, rhs: float):
    """``Row(name, terms, sense, rhs)`` for each name and terms, built in C."""
    return map(tuple.__new__, repeat(Row), zip(names, terms, repeat(sense), repeat(rhs)))


def build_instance(
    spec: PipelineSpec, platform: Platform, query: BicriteriaQuery
) -> IlpInstance:
    n, p = spec.n, platform.p
    w, delta = spec.w.tolist(), spec._delta
    s, b = platform._s, platform._b
    label = _labels(p)
    out = p + 1
    nodes = range(p + 2)
    procs = range(1, out)
    plabel = label[1:out]
    # Nodes are indexed 0 (in), 1..p, p+1 (out).  No traffic ever flows
    # towards the input gateway or out of the output gateway, so only these
    # links carry z variables; at[u][v] is the index of link (u, v).
    links = [(u, v) for u in nodes for v in nodes if u != v and u != out and v != 0]
    pairs = [f"{label[u]}_{label[v]}" for u, v in links]
    at = [[None] * (p + 2) for _ in nodes]
    for i, (u, v) in enumerate(links):
        at[u][v] = i
    # The links between two processors, by index and by name.
    inner = [i for i, (u, v) in enumerate(links) if u != 0 and v != out]
    inner_pairs = [pairs[i] for i in inner]

    # Every variable name is formatted once: x[k][u], y[k][u], z[k][i] for
    # link i, first[u] and last[u].
    x = [list(map(f"x_{k}_".__add__, label)) for k in range(n + 2)]
    y = [list(map(f"y_{k}_".__add__, label)) for k in range(n + 1)]
    z = [list(map(f"z_{k}_".__add__, pairs)) for k in range(n + 1)]
    first = list(map("first_".__add__, label))
    last = list(map("last_".__add__, label))

    binaries = [*chain.from_iterable(x), *chain.from_iterable(z), *chain.from_iterable(y)]
    generals = first[1:out] + last[1:out]

    # Each (1.0, var) term is made once and shared by every row it is in.
    one_x = [tuple(zip(repeat(1.0), xk)) for xk in x]
    one_first = list(zip(repeat(1.0), first))
    one_last = list(zip(repeat(1.0), last))
    cut_last = [one_last[links[i][0]] for i in inner]
    cut_first = [one_first[links[i][1]] for i in inner]

    rows: list[Row] = []

    # Every stage, virtual gateways included, runs on exactly one node.
    rows += _rows(map("assign_".__add__, map(str, range(n + 2))), one_x, "=", 1.0)

    # Every stage boundary is either one link crossing or one hand-off.
    route = [tuple(zip(repeat(1.0), z[k] + y[k])) for k in range(n + 1)]
    rows += _rows(map("route_".__add__, map(str, range(n + 1))), route, "=", 1.0)

    # x -> z: placing consecutive stages on linked nodes forces the crossing.
    tails, heads = zip(*links)
    for k in range(n + 1):
        terms = zip(
            map(one_x[k].__getitem__, tails),
            map(one_x[k + 1].__getitem__, heads),
            zip(repeat(-1.0), z[k]),
        )
        rows += _rows(map(f"link_{k}_".__add__, pairs), terms, "<=", 1.0)

    # x -> y: placing consecutive stages on the same node forces the hand-off.
    for k in range(n + 1):
        terms = zip(one_x[k], one_x[k + 1], zip(repeat(-1.0), y[k]))
        rows += _rows(map(f"same_{k}_".__add__, label), terms, "<=", 1.0)

    # Interval bounds: first_u <= k and last_u >= k for every stage k on u,
    # emitted in pairs per (k, u).
    for k in range(1, n + 1):
        xk = x[k][1:out]
        if n - k:
            terms = zip(one_first[1:out], zip(repeat(float(n - k)), xk))
        else:
            terms = zip(one_first[1:out])
        firstb = _rows(map(f"firstb_{k}_".__add__, plabel), terms, "<=", float(n))
        terms = zip(one_last[1:out], zip(repeat(-float(k)), xk))
        lastb = _rows(map(f"lastb_{k}_".__add__, plabel), terms, ">=", 0.0)
        rows += chain.from_iterable(zip(firstb, lastb))

    # A crossing after stage k closes u's interval and opens v's.
    for k in range(1, n):
        zk = list(map(z[k].__getitem__, inner))
        terms = zip(cut_last, zip(repeat(float(n - k)), zk))
        cutl = _rows(map(f"cutl_{k}_".__add__, inner_pairs), terms, "<=", float(n))
        terms = zip(cut_first, zip(repeat(-float(k + 1)), zk))
        cutf = _rows(map(f"cutf_{k}_".__add__, inner_pairs), terms, ">=", 0.0)
        rows += chain.from_iterable(zip(cutl, cutf))

    # Cost rows.  Stage k received on u costs delta[k-1]/b[t][u] over the
    # incoming link and w[k-1]/s[u] to compute; the final boundary leaves the
    # last processor towards the output gateway.  A period row also charges u
    # for every boundary it sends.  Each term is computed once, as
    # cross[k][i] for the crossing of link i after stage k and as
    # receive[k-1][u-1] for stage k received and computed on u, and shared by
    # the latency row and the period rows.
    bl = [b[u][v] for u, v in links]
    cross = [list(zip(map(delta[k].__truediv__, bl), z[k])) for k in range(n + 1)]
    incoming = [[at[t][u] for t in range(out) if t != u] for u in procs]
    outgoing = [[at[u][v] for v in procs if v != u] for u in procs]
    leaving = [at[u][out] for u in range(out)]
    receive = []
    for k in range(1, n + 1):
        gather = cross[k - 1].__getitem__
        compute = zip(map(w[k - 1].__truediv__, s), x[k][1:out])
        receive.append([[*map(gather, into), c] for into, c in zip(incoming, compute)])

    latency = [*chain.from_iterable(chain.from_iterable(receive))]
    cost_rows = [("latency", "latency", latency + [cross[n][i] for i in leaving])]
    for u in procs:
        terms = []
        for k in range(1, n + 1):
            terms += receive[k - 1][u - 1]
            terms += map(cross[k].__getitem__, outgoing[u - 1])
        cost_rows.append(("period", f"period_{label[u]}", terms + [cross[n][leaving[u]]]))

    # The minimized criterion's rows compare against Topt; the fixed
    # criterion's rows take the threshold as right-hand side.  An infinite
    # threshold makes those vacuous, and no LP format accepts an infinite
    # RHS, so they are simply not emitted.
    for criterion, name, terms in cost_rows:
        if criterion == query.objective:
            rows.append(Row(name, tuple(terms) + ((-1.0, "Topt"),), "<=", 0.0))
        elif math.isfinite(query.threshold):
            rows.append(Row(name, tuple(terms), "<=", query.threshold))

    # Boundary pins: the virtual stages sit on the gateways, real stages never
    # do, and gateway hand-offs or out-of-order gateway crossings cannot occur:
    # after stage 0 only links into out, after stage n only links from in, and
    # in between both.
    pins = [(x[0][0], 1.0), (x[n + 1][out], 1.0)]
    pins += [(x[k][u], 0.0) for k in range(1, n + 1) for u in (0, out)]
    pins += [(y[k][u], 0.0) for k in range(n + 1) for u in (0, out)]
    pins += [(y[k][u], 0.0) for u in procs for k in (0, n)]
    into_out = [i for i, (u, v) in enumerate(links) if v == out]
    from_in = [i for i, (u, v) in enumerate(links) if u == 0]
    gateway = [i for i, (u, v) in enumerate(links) if u == 0 or v == out]
    for k in range(n + 1):
        pinned = into_out if k == 0 else from_in if k == n else gateway
        pins += [(z[k][i], 0.0) for i in pinned]

    return IlpInstance(
        query=query,
        n=n,
        p=p,
        binaries=tuple(binaries),
        generals=tuple(generals),
        rows=tuple(rows),
        pins=tuple(pins),
        objective_var="Topt",
    )


def _fmt(value: float) -> str:
    # Integer values print without a fraction or exponent below 1e17; adding
    # 0.0 turns -0.0 into 0.0, so zero prints as "0".
    return format(value + 0.0, ".17g")


class _Memo(dict):
    """``fn(key)`` for each key, computed on first lookup."""

    def __init__(self, fn: Callable[[float], str]) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key: float) -> str:
        self[key] = text = self.fn(key)
        return text


def _wrap(text: str, indent: str = "    ") -> list[str]:
    """``text`` as LP lines: a leading space, then at most 72 characters.

    Continuation lines start with ``indent`` in place of the single space.
    Each line breaks at the last space that keeps it within the width; a word
    longer than a whole line stays whole and breaks at the next space.
    """
    lines: list[str] = []
    prefix, start = " ", 0
    # ``room``: how much of ``text`` fits after ``prefix`` on a line of 1 + 72
    while len(text) - start > (room := 73 - len(prefix)):
        cut = text.rfind(" ", start, start + room + 1)
        if cut < 0:
            cut = text.find(" ", start)
            if cut < 0:
                break
        lines.append(prefix + text[start:cut])
        prefix, start = indent, cut + 1
    lines.append(prefix + text[start:])
    return lines


def export_ilp(
    spec: PipelineSpec, platform: Platform, query: BicriteriaQuery
) -> str:
    """Render the complete LP text for one query."""
    return build_instance(spec, platform, query).to_lp_text()


def write_lp(
    spec: PipelineSpec, platform: Platform, query: BicriteriaQuery, path: str
) -> IlpInstance:
    """Write the LP text for one query to ``path`` and return its program."""
    instance = build_instance(spec, platform, query)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance.to_lp_text())
    return instance


def assignment_from_mapping(
    spec: PipelineSpec,
    platform: Platform,
    mapping: IntervalMapping,
    query: BicriteriaQuery | None = None,
) -> dict[str, float]:
    """Encode a concrete mapping as a variable assignment of the program.

    Unused processors get ``first = 1`` and ``last = n`` (any value in range
    is feasible for them); ``Topt`` is set to the minimized criterion's value
    when ``query`` is given, else to the period.
    """
    require_valid(spec, platform, mapping)
    n, p = spec.n, platform.p
    assign: dict[str, float] = {}

    node_of_stage: dict[int, str] = {0: "in", n + 1: "out"}
    for (d, e), u in zip(mapping.intervals, mapping.assignees):
        for k in range(d, e + 1):
            node_of_stage[k] = f"p{u}"
    assign["x_0_in"] = 1.0
    assign[f"x_{n + 1}_out"] = 1.0
    for k in range(1, n + 1):
        assign[f"x_{k}_{node_of_stage[k]}"] = 1.0
    for k in range(0, n + 1):
        u, v = node_of_stage[k], node_of_stage[k + 1]
        if u == v:
            assign[f"y_{k}_{u}"] = 1.0
        else:
            assign[f"z_{k}_{u}_{v}"] = 1.0
    used = set(mapping.assignees)
    for u in range(1, p + 1):
        if u in used:
            j = mapping.assignees.index(u)
            d, e = mapping.intervals[j]
            assign[f"first_p{u}"] = float(d)
            assign[f"last_p{u}"] = float(e)
        else:
            assign[f"first_p{u}"] = 1.0
            assign[f"last_p{u}"] = float(n)
    metrics = evaluate_metrics(spec, platform, mapping)
    assign["Topt"] = metrics.period if query is None else query.objective_of(metrics)
    return assign
