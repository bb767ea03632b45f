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

Constraint families: ``assign_k`` (every stage runs somewhere, ``n+2`` rows),
``route_k`` (every boundary is either a link crossing or a same-processor
hand-off, ``n+1`` rows), ``link``/``same`` (connect ``x`` to ``z``/``y``),
``firstb``/``lastb``/``cutl``/``cutf`` (interval consistency), one ``latency``
row and ``p`` ``period_*`` rows.  The minimized criterion's row compares
against ``Topt``; the fixed criterion's row gets the query threshold as a
constant right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Row:
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
        return _render_lp(self)


def _labels(p: int) -> list[str]:
    return ["in"] + [f"p{u}" for u in range(1, p + 1)] + ["out"]


def _node_index(label: str, p: int) -> int:
    if label == "in":
        return 0
    if label == "out":
        return p + 1
    return int(label[1:])


def _link_exists(u: str, v: str) -> bool:
    # No traffic ever flows towards the input gateway or out of the output
    # gateway, so those variables are not part of the model.
    return u != v and u != "out" and v != "in"


def build_instance(
    spec: PipelineSpec, platform: Platform, query: BicriteriaQuery
) -> IlpInstance:
    n, p = spec.n, platform.p
    w, delta = spec.w, spec.delta
    s, b = platform.s, platform.b
    nodes = _labels(p)
    procs = nodes[1 : p + 1]

    def x(k: int, u: str) -> str:
        return f"x_{k}_{u}"

    def z(k: int, u: str, v: str) -> str:
        return f"z_{k}_{u}_{v}"

    def y(k: int, u: str) -> str:
        return f"y_{k}_{u}"

    binaries: list[str] = []
    for k in range(0, n + 2):
        for u in nodes:
            binaries.append(x(k, u))
    z_vars: list[tuple[int, str, str]] = []
    for k in range(0, n + 1):
        for u in nodes:
            for v in nodes:
                if _link_exists(u, v):
                    z_vars.append((k, u, v))
                    binaries.append(z(k, u, v))
    for k in range(0, n + 1):
        for u in nodes:
            binaries.append(y(k, u))
    generals: list[str] = []
    for u in procs:
        generals.append(f"first_{u}")
    for u in procs:
        generals.append(f"last_{u}")

    rows: list[Row] = []

    # Every stage, virtual gateways included, runs on exactly one node.
    for k in range(0, n + 2):
        rows.append(
            Row(
                name=f"assign_{k}",
                terms=tuple((1.0, x(k, u)) for u in nodes),
                sense="=",
                rhs=1.0,
            )
        )

    # Every stage boundary is either one link crossing or one hand-off.
    for k in range(0, n + 1):
        terms = [(1.0, z(k, u, v)) for u in nodes for v in nodes if _link_exists(u, v)]
        terms += [(1.0, y(k, u)) for u in nodes]
        rows.append(Row(name=f"route_{k}", terms=tuple(terms), sense="=", rhs=1.0))

    # x -> z: placing consecutive stages on linked nodes forces the crossing.
    for k in range(0, n + 1):
        for u in nodes:
            for v in nodes:
                if _link_exists(u, v):
                    rows.append(
                        Row(
                            name=f"link_{k}_{u}_{v}",
                            terms=((1.0, x(k, u)), (1.0, x(k + 1, v)), (-1.0, z(k, u, v))),
                            sense="<=",
                            rhs=1.0,
                        )
                    )

    # x -> y: placing consecutive stages on the same node forces the hand-off.
    for k in range(0, n + 1):
        for u in nodes:
            rows.append(
                Row(
                    name=f"same_{k}_{u}",
                    terms=((1.0, x(k, u)), (1.0, x(k + 1, u)), (-1.0, y(k, u))),
                    sense="<=",
                    rhs=1.0,
                )
            )

    # Interval bounds: first_u <= k and last_u >= k for every stage k on u.
    for k in range(1, n + 1):
        for u in procs:
            terms: list[tuple[float, str]] = [(1.0, f"first_{u}")]
            if n - k:
                terms.append((float(n - k), x(k, u)))
            rows.append(
                Row(name=f"firstb_{k}_{u}", terms=tuple(terms), sense="<=", rhs=float(n))
            )
            rows.append(
                Row(
                    name=f"lastb_{k}_{u}",
                    terms=((1.0, f"last_{u}"), (-float(k), x(k, u))),
                    sense=">=",
                    rhs=0.0,
                )
            )

    # A crossing after stage k closes u's interval and opens v's.
    for k in range(1, n):
        for u in procs:
            for v in procs:
                if u == v:
                    continue
                terms = [(1.0, f"last_{u}")]
                if n - k:
                    terms.append((float(n - k), z(k, u, v)))
                rows.append(
                    Row(name=f"cutl_{k}_{u}_{v}", terms=tuple(terms), sense="<=", rhs=float(n))
                )
                rows.append(
                    Row(
                        name=f"cutf_{k}_{u}_{v}",
                        terms=((1.0, f"first_{v}"), (-float(k + 1), z(k, u, v))),
                        sense=">=",
                        rhs=0.0,
                    )
                )

    # Cost rows.  Stage k received on u costs delta[k-1]/b[t][u] over the
    # incoming link and w[k-1]/s[u] to compute; the final boundary leaves the
    # last processor towards the output gateway.
    in_nodes = ["in"] + procs

    latency_terms: list[tuple[float, str]] = []
    for k in range(1, n + 1):
        for u in procs:
            ui = _node_index(u, p)
            for t in in_nodes:
                if t == u:
                    continue
                ti = _node_index(t, p)
                latency_terms.append(
                    (float(delta[k - 1] / b[ti, ui]), z(k - 1, t, u))
                )
            latency_terms.append((float(w[k - 1] / s[ui - 1]), x(k, u)))
    for u in in_nodes:
        ui = _node_index(u, p)
        latency_terms.append((float(delta[n] / b[ui, p + 1]), z(n, u, "out")))

    period_rows: list[Row] = []
    for u in procs:
        ui = _node_index(u, p)
        terms = []
        for k in range(1, n + 1):
            for t in in_nodes:
                if t == u:
                    continue
                ti = _node_index(t, p)
                terms.append((float(delta[k - 1] / b[ti, ui]), z(k - 1, t, u)))
            terms.append((float(w[k - 1] / s[ui - 1]), x(k, u)))
            for v in procs:
                if v == u:
                    continue
                vi = _node_index(v, p)
                terms.append((float(delta[k] / b[ui, vi]), z(k, u, v)))
        terms.append((float(delta[n] / b[ui, p + 1]), z(n, u, "out")))
        period_rows.append(Row(name=f"period_{u}", terms=tuple(terms), sense="<=", rhs=0.0))

    # An infinite threshold makes the fixed-criterion rows vacuous, and no LP
    # format accepts an infinite RHS, so those rows are simply not emitted.
    bounded = math.isfinite(query.threshold)
    if query.objective == "latency":
        rows.append(
            Row(
                name="latency",
                terms=tuple(latency_terms) + ((-1.0, "Topt"),),
                sense="<=",
                rhs=0.0,
            )
        )
        if bounded:
            for row in period_rows:
                rows.append(
                    Row(name=row.name, terms=row.terms, sense="<=", rhs=query.threshold)
                )
    else:
        if bounded:
            rows.append(
                Row(
                    name="latency",
                    terms=tuple(latency_terms),
                    sense="<=",
                    rhs=query.threshold,
                )
            )
        for row in period_rows:
            rows.append(
                Row(
                    name=row.name,
                    terms=row.terms + ((-1.0, "Topt"),),
                    sense="<=",
                    rhs=0.0,
                )
            )

    # Boundary pins: the virtual stages sit on the gateways, real stages never
    # do, and gateway hand-offs or out-of-order gateway crossings cannot occur.
    pins: dict[str, float] = {}
    pins[x(0, "in")] = 1.0
    pins[x(n + 1, "out")] = 1.0
    for k in range(1, n + 1):
        pins[x(k, "in")] = 0.0
        pins[x(k, "out")] = 0.0
    for k in range(0, n + 1):
        pins[y(k, "in")] = 0.0
        pins[y(k, "out")] = 0.0
    for u in procs:
        pins[y(0, u)] = 0.0
        pins[y(n, u)] = 0.0
    for k, u, v in z_vars:
        if u == "in" and k != 0:
            pins[z(k, u, v)] = 0.0
        elif v == "out" and k != n:
            pins[z(k, u, v)] = 0.0

    return IlpInstance(
        query=query,
        n=n,
        p=p,
        binaries=tuple(binaries),
        generals=tuple(generals),
        rows=tuple(rows),
        pins=tuple(pins.items()),
        objective_var="Topt",
    )


def _fmt(value: float) -> str:
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".17g")


def _fmt_terms(terms: tuple[tuple[float, str], ...]) -> str:
    parts: list[str] = []
    for idx, (coef, var) in enumerate(terms):
        if idx == 0:
            if coef < 0:
                parts.append(f"- {_fmt(-coef)} {var}")
            else:
                parts.append(f"{_fmt(coef)} {var}")
        elif coef < 0:
            parts.append(f"- {_fmt(-coef)} {var}")
        else:
            parts.append(f"+ {_fmt(coef)} {var}")
    return " ".join(parts)


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


def _render_lp(inst: IlpInstance) -> str:
    out: list[str] = []
    out.append(f"\\ bi-criteria mapping program: minimize {inst.query.objective}")
    threshold = (
        _fmt(inst.query.threshold)
        if math.isfinite(inst.query.threshold)
        else "none (unconstrained)"
    )
    out.append(f"\\ fixed {inst.query.fixed_criterion} threshold: {threshold}")
    out.append(f"\\ stages: {inst.n}, processors: {inst.p}")
    out.append("Minimize")
    out.append(f" obj: {inst.objective_var}")
    out.append("Subject To")
    for row in inst.rows:
        body = f"{row.name}: {_fmt_terms(row.terms)} {row.sense} {_fmt(row.rhs)}"
        out.extend(" " + line for line in _wrap(body))
    out.append("Bounds")
    for var, value in inst.pins:
        out.append(f" {var} = {_fmt(value)}")
    for var in inst.generals:
        out.append(f" 1 <= {var} <= {inst.n}")
    out.append(f" {inst.objective_var} >= 0")
    out.append("Binary")
    for chunk in _wrap(" ".join(inst.binaries), width=72, indent=""):
        out.append(" " + chunk)
    out.append("General")
    for chunk in _wrap(" ".join(inst.generals), width=72, indent=""):
        out.append(" " + chunk)
    out.append("End")
    return "\n".join(out) + "\n"


def export_ilp(
    spec: PipelineSpec, platform: Platform, query: BicriteriaQuery
) -> str:
    """Render the complete LP text for one query."""
    return build_instance(spec, platform, query).to_lp_text()


def write_lp(
    spec: PipelineSpec, platform: Platform, query: BicriteriaQuery, path: str
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_ilp(spec, platform, query))


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
