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
identifiers, without spaces.  :meth:`IlpInstance.to_lp_text` renders each row
once, formatting each distinct number once per call.  A row of at most 72
characters is one line; a longer one (the ``assign``, ``route`` and cost rows
at scale) wraps word by word at 72 characters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .model import (
    IntervalMapping,
    PipelineSpec,
    Platform,
    evaluate_metrics,
    require_valid,
)
from .exact import BicriteriaQuery

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
            body = f"{name}: {text.removeprefix('+ ')} {sense} {plain[rhs]}"
            # _wrap returns a body of at most 72 characters as its one line.
            if len(body) <= 72:
                out.append(" " + body)
            else:
                out += [" " + line for line in _wrap(body)]
        out.append("Bounds")
        out += [f" {var} = {plain[value]}" for var, value in self.pins]
        out += [f" 1 <= {var} <= {self.n}" for var in self.generals]
        out += [f" {self.objective_var} >= 0", "Binary"]
        out += [" " + chunk for chunk in _wrap(" ".join(self.binaries), indent="")]
        out.append("General")
        out += [" " + chunk for chunk in _wrap(" ".join(self.generals), indent="")]
        out.append("End")
        return "\n".join(out) + "\n"


def _labels(p: int) -> list[str]:
    return ["in"] + [f"p{u}" for u in range(1, p + 1)] + ["out"]


def build_instance(
    spec: PipelineSpec, platform: Platform, query: BicriteriaQuery
) -> IlpInstance:
    n, p = spec.n, platform.p
    w, delta = spec.w.tolist(), spec.delta.tolist()
    s, b = platform.s.tolist(), platform.b.tolist()
    label = _labels(p)
    out = p + 1
    nodes = range(p + 2)
    procs = range(1, out)
    # Nodes are indexed 0 (in), 1..p, p+1 (out).  No traffic ever flows
    # towards the input gateway or out of the output gateway, so only these
    # links carry z variables.
    links = [(u, v) for u in nodes for v in nodes if u != v and u != out and v != 0]
    pairs = [f"{label[u]}_{label[v]}" for u, v in links]

    # Every variable name is formatted once: x[k][u], y[k][u], z[k][u][v]
    # (None off the links), first[u] and last[u].
    x = [[f"x_{k}_{node}" for node in label] for k in range(n + 2)]
    y = [[f"y_{k}_{node}" for node in label] for k in range(n + 1)]
    z = []
    for k in range(n + 1):
        zk = [[None] * (p + 2) for _ in nodes]
        for (u, v), uv in zip(links, pairs):
            zk[u][v] = f"z_{k}_{uv}"
        z.append(zk)
    first = [f"first_{node}" for node in label]
    last = [f"last_{node}" for node in label]

    binaries = [name for xk in x for name in xk]
    binaries += [z[k][u][v] for k in range(n + 1) for u, v in links]
    binaries += [name for yk in y for name in yk]
    generals = [first[u] for u in procs] + [last[u] for u in procs]

    rows: list[Row] = []

    # Every stage, virtual gateways included, runs on exactly one node.
    for k in range(n + 2):
        rows.append(Row(f"assign_{k}", tuple((1.0, name) for name in x[k]), "=", 1.0))

    # Every stage boundary is either one link crossing or one hand-off.
    for k in range(n + 1):
        terms = [(1.0, z[k][u][v]) for u, v in links] + [(1.0, name) for name in y[k]]
        rows.append(Row(f"route_{k}", tuple(terms), "=", 1.0))

    # x -> z: placing consecutive stages on linked nodes forces the crossing.
    for k in range(n + 1):
        xk, xk1, zk = x[k], x[k + 1], z[k]
        for (u, v), uv in zip(links, pairs):
            terms = ((1.0, xk[u]), (1.0, xk1[v]), (-1.0, zk[u][v]))
            rows.append(Row(f"link_{k}_{uv}", terms, "<=", 1.0))

    # x -> y: placing consecutive stages on the same node forces the hand-off.
    for k in range(n + 1):
        for u in nodes:
            terms = ((1.0, x[k][u]), (1.0, x[k + 1][u]), (-1.0, y[k][u]))
            rows.append(Row(f"same_{k}_{label[u]}", terms, "<=", 1.0))

    # Interval bounds: first_u <= k and last_u >= k for every stage k on u.
    for k in range(1, n + 1):
        for u in procs:
            terms = ((1.0, first[u]), (float(n - k), x[k][u])) if n - k else ((1.0, first[u]),)
            rows.append(Row(f"firstb_{k}_{label[u]}", terms, "<=", float(n)))
            terms = ((1.0, last[u]), (-float(k), x[k][u]))
            rows.append(Row(f"lastb_{k}_{label[u]}", terms, ">=", 0.0))

    # A crossing after stage k closes u's interval and opens v's.
    proc_links = [(u, v, uv) for (u, v), uv in zip(links, pairs) if u != 0 and v != out]
    for k in range(1, n):
        zk = z[k]
        for u, v, uv in proc_links:
            terms = ((1.0, last[u]), (float(n - k), zk[u][v]))
            rows.append(Row(f"cutl_{k}_{uv}", terms, "<=", float(n)))
            terms = ((1.0, first[v]), (-float(k + 1), zk[u][v]))
            rows.append(Row(f"cutf_{k}_{uv}", terms, ">=", 0.0))

    # Cost rows.  Stage k received on u costs delta[k-1]/b[t][u] over the
    # incoming link and w[k-1]/s[u] to compute; the final boundary leaves the
    # last processor towards the output gateway.  A period row also charges u
    # for every boundary it sends.  Each term is computed once, as
    # cross[k][u][v] for the crossing of link (u, v) after stage k and as
    # receive[k][u] for stage k received and computed on u, and shared by
    # the latency row and the period rows.
    cross = []
    for k in range(n + 1):
        ck = [[None] * (p + 2) for _ in nodes]
        for u, v in links:
            ck[u][v] = (delta[k] / b[u][v], z[k][u][v])
        cross.append(ck)
    receive = [[None] * (p + 2) for _ in range(n + 1)]
    for k in range(1, n + 1):
        for u in procs:
            terms = [cross[k - 1][t][u] for t in range(out) if t != u]
            terms.append((w[k - 1] / s[u - 1], x[k][u]))
            receive[k][u] = terms

    latency = [term for k in range(1, n + 1) for u in procs for term in receive[k][u]]
    cost_rows = [("latency", "latency", latency + [cross[n][u][out] for u in range(out)])]
    for u in procs:
        terms = []
        for k in range(1, n + 1):
            terms += receive[k][u]
            terms += [cross[k][u][v] for v in procs if v != u]
        cost_rows.append(("period", f"period_{label[u]}", terms + [cross[n][u][out]]))

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
    # do, and gateway hand-offs or out-of-order gateway crossings cannot occur.
    pins = [(x[0][0], 1.0), (x[n + 1][out], 1.0)]
    pins += [(x[k][u], 0.0) for k in range(1, n + 1) for u in (0, out)]
    pins += [(y[k][u], 0.0) for k in range(n + 1) for u in (0, out)]
    pins += [(y[k][u], 0.0) for u in procs for k in (0, n)]
    pins += [
        (z[k][u][v], 0.0)
        for k in range(n + 1)
        for u, v in links
        if (u == 0 and k != 0) or (v == out and k != n)
    ]

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
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".17g")


class _Memo(dict):
    """``fn(key)`` for each key, computed on first lookup."""

    def __init__(self, fn: Callable[[float], str]) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key: float) -> str:
        self[key] = text = self.fn(key)
        return text


def _wrap(text: str, width: int = 72, indent: str = "   ") -> list[str]:
    words = text.split(" ")
    lines: list[str] = []
    current = ""
    for word in words:
        if current and len(current) + 1 + len(word) > width:
            lines.append(current)
            current = indent + word
        else:
            current = word if not current else current + " " + word
    if current:
        lines.append(current)
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
    if query is not None and query.objective == "latency":
        assign["Topt"] = metrics.latency
    else:
        assign["Topt"] = metrics.period
    return assign
