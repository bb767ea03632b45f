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

The constraints are row families (:class:`RowFamily`), each a name prefix
and a key column, one coefficient vector, one flat tuple of variable names
holding one column per coefficient after another, a sense and a right-hand
side, so a family holds each coefficient once and no tuple per column; row
and variable names are LP identifiers, without spaces.  Every variable name
comes from one builder, ``_name_tables``, which :func:`assignment_from_mapping`
reads too, and every cost term divides ``model``'s float views and
stage-cost table.  :func:`build_instance` builds each family in bulk, with no
Python step per row or per term and no row-name string: a family's keys are
tuples ``_name_tables`` already holds, and its columns join that builder's
name tuples where a family's rows follow them.  ``firstb``/``lastb`` and
``cutl``/``cutf`` are one block of two families per stage, whose rows
alternate, and each cost row is a family of one, gathered from per-stage
lists of coefficients and of names with no ``(coef, var)`` pair, so a build
makes few objects for the garbage collector to track.
:meth:`IlpInstance.to_lp_text` renders a family of several rows with one
``str.join`` that interleaves its key and variable columns with the constant
pieces of one template made from its coefficients, and a cost row with
``str.format``; the coefficients an export has not met yet are formatted in
one ``%`` call per sign.  A line holds at most 72 characters after its
leading space; longer rows, and the ``Binary`` and ``General`` lists, go
through one line breaker that breaks at the last space that fits, so only
the ``assign``, ``route`` and cost rows wrap at scale.  The families and that
text are the program's only forms: :attr:`IlpInstance.rows` joins each row's
prefix and key into the constraint names, in emission order, and a reader
that wants a row's terms parses the text, which prints every coefficient
with ``.17g`` so that it reads back bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .model import (
    BicriteriaQuery,
    IntervalMapping,
    PipelineSpec,
    Platform,
    evaluate_metrics,
)

__all__ = [
    "IlpInstance",
    "RowFamily",
    "assignment_from_mapping",
    "build_instance",
    "export_ilp",
    "write_lp",
]


class RowFamily(NamedTuple):
    """Rows of one shape, held by column.

    Row ``i`` is named ``prefix + keys[i]`` and its ``j``-th term is
    ``(coefs[j], columns[j * len(keys) + i])``: ``keys`` are name tuples that
    ``_name_tables`` already holds, so a build makes no row-name string, and
    ``columns`` holds variable names only, one column per coefficient after
    another in one flat tuple, so a family holds each coefficient once and
    makes no tuple per column.  Every row has the same sense and right-hand
    side.
    """

    prefix: str
    keys: tuple[str, ...]
    coefs: tuple[float, ...]
    columns: tuple[str, ...]  # the variable-name columns, one after another
    sense: str
    rhs: float

    def _lines(self, term: dict[float, str]) -> list[str]:
        """Each row as LP text; a row that wraps is one string of several lines.

        ``term`` maps a coefficient to its ``"+ c {}"`` template piece, which
        formats a variable name; the pieces of coefficients it lacks are added.
        """
        count = len(self.keys)
        if not count:  # the cut rows of a single processor
            return []
        _add_terms(term, self.coefs)
        head = " ".join(map(term.__getitem__, self.coefs)).removeprefix("+ ")
        template = f" {self.prefix}{{}}: {head} {self.sense} {_fmt(self.rhs)}"
        if count == 1:  # the cost rows: one line, and no one-name column per term
            lines = [template.format(*self.keys, *self.columns)]
        else:
            # One join over the rows: each row's key, columns and the
            # template's constant pieces, interleaved; a row's last piece
            # carries the line break and the next row's first piece.
            pieces = template.split("{}")
            row = [None] * (2 * len(pieces) - 2)
            row[1::2] = pieces[1:]
            row[-1] += "\n" + pieces[0]
            width = len(row)
            flat = row * count
            flat[::width] = self.keys
            for j in range(len(self.coefs)):
                flat[2 * j + 2 :: width] = self.columns[j * count : (j + 1) * count]
            flat[-1] = pieces[-1]
            lines = (pieces[0] + "".join(flat)).split("\n")
        # A line is its leading space and at most 72 more characters.
        if max(map(len, lines)) > 73:
            lines = [_wrap(line[1:]) for line in lines]
        return lines


@dataclass(frozen=True)
class IlpInstance:
    """A fully materialized integer program for one query.

    Its constraints are ``blocks`` of row families.  A block is one family,
    or families of equal length whose rows interleave (``firstb``/``lastb``
    and ``cutl``/``cutf``); ``rows`` names every row in block order, as
    :meth:`to_lp_text` emits them.
    """

    query: BicriteriaQuery
    n: int
    p: int
    binaries: tuple[str, ...]
    generals: tuple[str, ...]
    blocks: tuple[tuple[RowFamily, ...], ...]
    pins: tuple[tuple[str, float], ...]
    objective_var: str

    @property
    def variables(self) -> tuple[str, ...]:
        return self.binaries + self.generals + (self.objective_var,)

    @property
    def rows(self) -> tuple[str, ...]:
        """Every constraint's name, in emission order."""
        return tuple(
            chain.from_iterable(
                chain.from_iterable(
                    zip(*[map(family.prefix.__add__, family.keys) for family in block], strict=True)
                )
                for block in self.blocks
            )
        )

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
        # Each distinct coefficient is formatted once: ``term`` maps it to its
        # "+ c {}" / "- c {}" template piece.
        term: dict[float, str] = {}
        for block in self.blocks:
            lines = [family._lines(term) for family in block]
            out += chain.from_iterable(zip(*lines, strict=True))
        out.append("Bounds")
        plain = {value: _fmt(value) for value in {value for _, value in self.pins}}
        out += [f" {var} = {plain[value]}" for var, value in self.pins]
        out += [f" 1 <= {var} <= {self.n}" for var in self.generals]
        out += [f" {self.objective_var} >= 0", "Binary"]
        out.append(_wrap(" ".join(self.binaries), indent=" "))
        out.append("General")
        out.append(_wrap(" ".join(self.generals), indent=" "))
        out.append("End")
        return "\n".join(out) + "\n"


def _name_tables(n: int, p: int) -> tuple:
    """The program's names: ``label, links, pairs, at, x, y, z, first, last, objective``.

    Nodes are indexed 0 (in), 1..p, p+1 (out), and ``label[u]`` names node
    ``u``.  No traffic ever flows towards the input gateway or out of the
    output gateway, so only ``links`` carry z variables: link ``i`` is the
    pair ``links[i]``, named ``pairs[i]``, and ``at[u][v]`` is its index.
    ``x[k][u]``, ``y[k][u]``, ``first[u]`` and ``last[u]`` are indexed by
    node and ``z[k][i]`` by link; each name is formatted once, and each of
    these rows is a tuple, so a family's columns join them.
    """
    label = ("in", *(f"p{u}" for u in range(1, p + 1)), "out")
    nodes = range(p + 2)
    links = [(u, v) for u in nodes for v in nodes if u != v and u != p + 1 and v != 0]
    pairs = tuple(f"{label[u]}_{label[v]}" for u, v in links)
    at = [[None] * (p + 2) for _ in nodes]
    for i, (u, v) in enumerate(links):
        at[u][v] = i
    x = [_names(f"x_{k}_", label) for k in range(n + 2)]
    y = [_names(f"y_{k}_", label) for k in range(n + 1)]
    z = [_names(f"z_{k}_", pairs) for k in range(n + 1)]
    first, last = _names("first_", label), _names("last_", label)
    return label, links, pairs, at, x, y, z, first, last, "Topt"


def _names(prefix: str, keys) -> tuple[str, ...]:
    return tuple(map(prefix.__add__, keys))


def build_instance(
    spec: PipelineSpec, platform: Platform, query: BicriteriaQuery
) -> IlpInstance:
    n, p = spec.n, platform.p
    costs, delta = spec._costs, spec._delta
    s, b = platform._s, platform._b
    label, links, pairs, at, x, y, z, first, last, topt = _name_tables(n, p)
    out = p + 1
    procs = range(1, out)
    plabel = label[1:out]
    # The links between two processors, by index and by name.
    inner = [i for i, (u, v) in enumerate(links) if u != 0 and v != out]
    inner_pairs = tuple(pairs[i] for i in inner)

    binaries = [*chain.from_iterable(x), *chain.from_iterable(z), *chain.from_iterable(y)]
    proc_first, proc_last = first[1:out], last[1:out]
    generals = proc_first + proc_last
    cut_last = tuple(last[links[i][0]] for i in inner)
    cut_first = tuple(first[links[i][1]] for i in inner)

    # Every stage, virtual gateways included, runs on exactly one node.
    assign = RowFamily(
        "assign_", tuple(map(str, range(n + 2))), (1.0,) * (p + 2),
        tuple(chain.from_iterable(zip(*x))), "=", 1.0,
    )
    # Every stage boundary is either one link crossing or one hand-off.
    route = RowFamily(
        "route_", tuple(map(str, range(n + 1))), (1.0,) * (len(links) + p + 2),
        tuple(chain.from_iterable(zip(*map(tuple.__add__, z, y)))), "=", 1.0,
    )
    blocks = [(assign,), (route,)]

    # x -> z: placing consecutive stages on linked nodes forces the crossing.
    tails, heads = zip(*links)
    for k in range(n + 1):
        columns = (*map(x[k].__getitem__, tails), *map(x[k + 1].__getitem__, heads), *z[k])
        link = RowFamily(f"link_{k}_", pairs, (1.0, 1.0, -1.0), columns, "<=", 1.0)
        blocks.append((link,))

    # x -> y: placing consecutive stages on the same node forces the hand-off.
    for k in range(n + 1):
        columns = x[k] + x[k + 1] + y[k]
        same = RowFamily(f"same_{k}_", label, (1.0, 1.0, -1.0), columns, "<=", 1.0)
        blocks.append((same,))

    # Interval bounds: first_u <= k and last_u >= k for every stage k on u,
    # emitted in pairs per (k, u).
    for k in range(1, n + 1):
        xk = x[k][1:out]
        if n - k:
            firstb = (1.0, float(n - k)), proc_first + xk
        else:
            firstb = (1.0,), proc_first
        lastb = (1.0, -float(k)), proc_last + xk
        blocks.append((
            RowFamily(f"firstb_{k}_", plabel, *firstb, "<=", float(n)),
            RowFamily(f"lastb_{k}_", plabel, *lastb, ">=", 0.0),
        ))

    # A crossing after stage k closes u's interval and opens v's.
    for k in range(1, n):
        zk = tuple(map(z[k].__getitem__, inner))
        cutl = (1.0, float(n - k)), cut_last + zk
        cutf = (1.0, -float(k + 1)), cut_first + zk
        blocks.append((
            RowFamily(f"cutl_{k}_", inner_pairs, *cutl, "<=", float(n)),
            RowFamily(f"cutf_{k}_", inner_pairs, *cutf, ">=", 0.0),
        ))

    # Cost rows.  Stage k received on u costs delta[k-1]/b[t][u] over the
    # incoming link and costs[k][k]/s[u] to compute (costs[k][k] is w[k-1]);
    # the final boundary leaves the last processor towards the output gateway.
    # A period row also charges u for every boundary it sends.  Each term is
    # computed once, as cross[k][i] for the crossing of link i after stage k
    # and as a compute term for stage k on u, and shared by the latency row
    # and the period rows.  Stage k's terms are one list (crossings in,
    # compute terms, crossings out) and their names another, so a cost row
    # takes its stage-k terms from each with one itemgetter.
    bl = [b[u][v] for u, v in links]
    cross = [list(map(delta[k].__truediv__, bl)) for k in range(n + 1)]
    stage_coefs = [
        cross[k - 1] + list(map(costs[k][k].__truediv__, s)) + cross[k] for k in range(1, n + 1)
    ]
    stage_names = [z[k - 1] + x[k][1:out] + z[k] for k in range(1, n + 1)]
    # receive[u-1]: stage k received and computed on u, as indices into stage k's terms.
    receive = [[*(at[t][u] for t in range(out) if t != u), len(links) + u - 1] for u in procs]
    leaving = [at[u][out] for u in range(out)]
    # Every getter takes at least two indices (p >= 1), so it returns a tuple.
    cost_rows = [("latency", "", "latency", itemgetter(*chain.from_iterable(receive)), leaving)]
    for u in procs:
        send = [len(links) + p + at[u][v] for v in procs if v != u]
        cost_rows.append(
            ("period", "period_", label[u], itemgetter(*receive[u - 1], *send), [leaving[u]])
        )

    # The minimized criterion's rows compare against Topt; the fixed
    # criterion's rows take the threshold as right-hand side.  An infinite
    # threshold makes those vacuous, and no LP format accepts an infinite
    # RHS, so they are simply not emitted.
    for criterion, prefix, key, gather, final in cost_rows:
        coefs = (*chain(*map(gather, stage_coefs)), *map(cross[n].__getitem__, final))
        names = (*chain(*map(gather, stage_names)), *map(z[n].__getitem__, final))
        if criterion == query.objective:
            coefs, names, rhs = coefs + (-1.0,), names + (topt,), 0.0
        elif math.isfinite(query.threshold):
            rhs = query.threshold
        else:
            continue
        blocks.append((RowFamily(prefix, (key,), coefs, names, "<=", rhs),))

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
        blocks=tuple(blocks),
        pins=tuple(pins),
        objective_var=topt,
    )


def _fmt(value: float) -> str:
    # Integer values print without a fraction or exponent below 1e17; adding
    # 0.0 turns -0.0 into 0.0, so zero prints as "0".
    return format(value + 0.0, ".17g")


def _add_terms(term: dict[float, str], coefs: tuple[float, ...]) -> None:
    """Add the ``"+ c {}"`` / ``"- c {}"`` piece of each of ``coefs`` that ``term`` lacks.

    The new coefficients of each sign are formatted with one ``%`` call, each
    as its absolute value with ``.17g``, as :func:`_fmt` prints it.
    """
    new = [coef for coef in dict.fromkeys(coefs) if coef not in term]
    if new:
        for sign, group in (("+", [c for c in new if not c < 0]), ("-", [c for c in new if c < 0])):
            text = f"{sign} %.17g {{}}\0" * len(group) % tuple(map(abs, group))
            term.update(zip(group, text.split("\0")))


def _wrap(text: str, indent: str = "    ") -> str:
    """``text`` as LP lines, joined: a leading space, then at most 72 characters.

    Continuation lines start with ``indent`` in place of the single space.
    Each line breaks at the last space that keeps it within the width; a word
    longer than a whole line stays whole and breaks at the next space.  The
    line slices are collected and joined once.
    """
    rfind, find = text.rfind, text.find
    parts: list[str] = []
    start, room = 0, 72
    # ``room``: how much of ``text`` fits after the line's prefix on a line of 1 + 72
    while len(text) - start > room:
        cut = rfind(" ", start, start + room + 1)
        if cut < 0:
            cut = find(" ", start)
            if cut < 0:
                break
        parts.append(text[start:cut])
        start, room = cut + 1, 73 - len(indent)
    parts.append(text[start:])
    return " " + ("\n" + indent).join(parts)


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
    metrics = evaluate_metrics(spec, platform, mapping)  # validates the mapping first
    n, p = spec.n, platform.p
    _, _, _, at, x, y, z, first, last, topt = _name_tables(n, p)
    # node[k]: the node stage k runs on; the virtual stages sit on the gateways.
    node = [0] * (n + 1) + [p + 1]
    for (d, e), u in zip(mapping.intervals, mapping.assignees):
        node[d : e + 1] = [u] * (e - d + 1)
    assign = {x[k][u]: 1.0 for k, u in enumerate(node)}
    for k, (u, v) in enumerate(zip(node, node[1:])):
        if u == v:
            assign[y[k][u]] = 1.0
        else:
            assign[z[k][at[u][v]]] = 1.0
    spans = dict(zip(mapping.assignees, mapping.intervals))
    for u in range(1, p + 1):
        d, e = spans.get(u, (1, n))
        assign[first[u]] = float(d)
        assign[last[u]] = float(e)
    assign[topt] = metrics.period if query is None else query.objective_of(metrics)
    return assign
