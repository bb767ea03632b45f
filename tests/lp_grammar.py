"""A small LP-format grammar checker and solver bridge for the tests.

``parse_lp`` re-parses exported LP text from scratch: it tokenizes the whole
file, walks the section grammar (Minimize / Subject To / Bounds / Binary /
General / End) and records any violation as a diagnostic instead of raising,
so tests can assert an export produces *zero* diagnostics.  ``solve_parsed``
feeds a parsed program to ``scipy.optimize.milp``, with a sparse constraint
matrix.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_NAME = re.compile(r"^[A-Za-z!\"#$%&()/,;?@_`'{}|~.][A-Za-z0-9!\"#$%&()/,;?@_`'{}|~.]*$")


@dataclass
class ParsedRow:
    """One constraint, ``sum(coef * var) [sense] rhs``, its terms in row order."""

    name: str
    coefs: dict[str, float]
    sense: str
    rhs: float

    def evaluate(self, assignment: dict[str, float]) -> float:
        """Left-hand-side value under a (partial) variable assignment.

        The terms are added in row order, and a missing variable reads as 0.
        """
        total = 0.0
        for var, coef in self.coefs.items():
            total += coef * assignment.get(var, 0.0)
        return total

    def satisfied(self, assignment: dict[str, float], tol: float = 1e-9) -> bool:
        lhs = self.evaluate(assignment)
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        if self.sense == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass
class ParsedLP:
    objective_name: str = ""
    objective: dict[str, float] = field(default_factory=dict)
    rows: list[ParsedRow] = field(default_factory=list)
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    binaries: set[str] = field(default_factory=set)
    generals: set[str] = field(default_factory=set)
    diagnostics: list[str] = field(default_factory=list)

    def variables(self) -> set[str]:
        seen = set(self.objective)
        for row in self.rows:
            seen.update(row.coefs)
        return seen

    def rows_named(self, prefix: str) -> list[ParsedRow]:
        return [r for r in self.rows if r.name == prefix or r.name.startswith(prefix + "_")]


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("\\"):
            continue
        # Make relational operators and signs their own tokens, but keep the
        # sign of a scientific-notation exponent attached to its number.
        stripped = re.sub(r"(<=|>=|=)", r" \1 ", stripped)
        stripped = re.sub(r"(?<![eE])([+-])", r" \1 ", stripped)
        tokens.extend(stripped.split())
    return tokens


_SECTIONS = {
    "minimize": "Minimize",
    "subject": "Subject To",
    "bounds": "Bounds",
    "binary": "Binary",
    "general": "General",
    "end": "End",
}


def _is_section_start(tokens: list[str], i: int) -> str | None:
    word = tokens[i].lower()
    if word == "subject" and i + 1 < len(tokens) and tokens[i + 1].lower() == "to":
        return "Subject To"
    if word in ("minimize", "bounds", "binary", "general", "end"):
        return _SECTIONS[word]
    return None


def parse_lp(text: str) -> ParsedLP:
    out = ParsedLP()
    tokens = _tokenize(text)
    if not tokens:
        out.diagnostics.append("empty file")
        return out

    # Split the token stream into sections.
    sections: list[tuple[str, list[str]]] = []
    i = 0
    current_name: str | None = None
    current_tokens: list[str] = []
    while i < len(tokens):
        name = _is_section_start(tokens, i)
        if name is not None:
            if current_name is not None:
                sections.append((current_name, current_tokens))
            current_name = name
            current_tokens = []
            i += 2 if name == "Subject To" else 1
            continue
        if current_name is None:
            out.diagnostics.append(f"token {tokens[i]!r} before any section")
            return out
        current_tokens.append(tokens[i])
        i += 1
    if current_name is not None:
        sections.append((current_name, current_tokens))

    order = [name for name, _ in sections]
    expected_order = ["Minimize", "Subject To", "Bounds", "Binary", "General", "End"]
    filtered = [name for name in expected_order if name in order]
    if order != filtered:
        out.diagnostics.append(f"sections out of order or repeated: {order}")
    for required in ("Minimize", "Subject To", "End"):
        if required not in order:
            out.diagnostics.append(f"missing section {required}")
    if order and order[-1] == "End" and sections[-1][1]:
        out.diagnostics.append("tokens after End")

    by_name = dict(sections)

    def parse_expr(toks: list[str], where: str) -> dict[str, float]:
        coefs: dict[str, float] = {}
        sign = 1.0
        pending: float | None = None
        for tok in toks:
            if tok == "+":
                if pending is not None:
                    out.diagnostics.append(f"{where}: dangling coefficient before '+'")
                sign, pending = 1.0, None
            elif tok == "-":
                if pending is not None:
                    out.diagnostics.append(f"{where}: dangling coefficient before '-'")
                sign, pending = -1.0, None
            elif _NUMBER.match(tok):
                if pending is not None:
                    out.diagnostics.append(f"{where}: two numbers in a row")
                pending = float(tok)
            elif _NAME.match(tok):
                coef = sign * (pending if pending is not None else 1.0)
                if tok in coefs:
                    out.diagnostics.append(f"{where}: variable {tok} repeated")
                coefs[tok] = coefs.get(tok, 0.0) + coef
                sign, pending = 1.0, None
            else:
                out.diagnostics.append(f"{where}: unexpected token {tok!r}")
        if pending is not None:
            out.diagnostics.append(f"{where}: trailing number")
        return coefs

    # Minimize: one named (or unnamed) linear objective.
    toks = by_name.get("Minimize", [])
    if toks:
        if toks[0].endswith(":"):
            out.objective_name = toks[0][:-1]
            toks = toks[1:]
        elif len(toks) >= 2 and toks[1] == ":":
            out.objective_name = toks[0]
            toks = toks[2:]
        out.objective = parse_expr(toks, "objective")
    else:
        out.diagnostics.append("empty objective")

    # Subject To: NAME : expr SENSE NUMBER, repeated.
    toks = by_name.get("Subject To", [])
    i = 0
    seen_names: set[str] = set()
    while i < len(toks):
        # Constraint name ends with ':' (either fused or separate token).
        name_tok = toks[i]
        if name_tok.endswith(":"):
            row_name = name_tok[:-1]
            i += 1
        elif i + 1 < len(toks) and toks[i + 1] == ":":
            row_name = name_tok
            i += 2
        else:
            out.diagnostics.append(f"constraint without name near {name_tok!r}")
            break
        if not row_name or not _NAME.match(row_name):
            out.diagnostics.append(f"bad constraint name {row_name!r}")
        if row_name in seen_names:
            out.diagnostics.append(f"duplicate constraint name {row_name}")
        seen_names.add(row_name)
        expr_toks: list[str] = []
        sense = None
        while i < len(toks):
            if toks[i] in ("<=", ">=", "="):
                sense = toks[i]
                i += 1
                break
            if toks[i].endswith(":") or (i + 1 < len(toks) and toks[i + 1] == ":"):
                break
            expr_toks.append(toks[i])
            i += 1
        if sense is None:
            out.diagnostics.append(f"constraint {row_name} has no relational operator")
            break
        if i >= len(toks) or not _NUMBER.match(toks[i]):
            out.diagnostics.append(f"constraint {row_name} has no numeric right-hand side")
            break
        rhs = float(toks[i])
        i += 1
        coefs = parse_expr(expr_toks, f"constraint {row_name}")
        if not coefs:
            out.diagnostics.append(f"constraint {row_name} has an empty left-hand side")
        out.rows.append(ParsedRow(name=row_name, coefs=coefs, sense=sense, rhs=rhs))

    # Bounds: VAR = NUM | NUM <= VAR <= NUM | VAR >= NUM | VAR <= NUM.
    toks = by_name.get("Bounds", [])
    i = 0
    while i < len(toks):
        if (
            i + 4 < len(toks)
            and _NUMBER.match(toks[i])
            and toks[i + 1] == "<="
            and _NAME.match(toks[i + 2])
            and toks[i + 3] == "<="
            and _NUMBER.match(toks[i + 4])
        ):
            out.bounds[toks[i + 2]] = (float(toks[i]), float(toks[i + 4]))
            i += 5
        elif i + 2 < len(toks) and _NAME.match(toks[i]) and toks[i + 1] == "=":
            if not _NUMBER.match(toks[i + 2]):
                out.diagnostics.append(f"bad fixed bound for {toks[i]}")
                break
            value = float(toks[i + 2])
            out.bounds[toks[i]] = (value, value)
            i += 3
        elif i + 2 < len(toks) and _NAME.match(toks[i]) and toks[i + 1] == ">=":
            if not _NUMBER.match(toks[i + 2]):
                out.diagnostics.append(f"bad lower bound for {toks[i]}")
                break
            out.bounds[toks[i]] = (float(toks[i + 2]), math.inf)
            i += 3
        elif i + 2 < len(toks) and _NAME.match(toks[i]) and toks[i + 1] == "<=":
            if not _NUMBER.match(toks[i + 2]):
                out.diagnostics.append(f"bad upper bound for {toks[i]}")
                break
            out.bounds[toks[i]] = (0.0, float(toks[i + 2]))
            i += 3
        else:
            out.diagnostics.append(f"unparsable bound near {toks[i]!r}")
            break

    for section, target in (("Binary", out.binaries), ("General", out.generals)):
        for tok in by_name.get(section, []):
            if _NAME.match(tok):
                target.add(tok)
            else:
                out.diagnostics.append(f"bad name {tok!r} in {section}")

    # Every referenced variable must be declared binary, integer, or be the
    # continuous objective variable.
    declared = out.binaries | out.generals | set(out.objective)
    for var in sorted(out.variables()):
        if var not in declared:
            out.diagnostics.append(f"variable {var} referenced but not declared")
    for var in sorted(out.binaries & out.generals):
        out.diagnostics.append(f"variable {var} declared both Binary and General")

    return out


def solve_parsed(parsed: ParsedLP):
    """Solve a parsed program with scipy's MILP solver.

    Returns ``(status_ok, objective_value, assignment_dict)``.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    variables = sorted(parsed.variables())
    index = {var: k for k, var in enumerate(variables)}
    nvar = len(variables)

    c = np.zeros(nvar)
    for var, coef in parsed.objective.items():
        c[index[var]] = coef

    integrality = np.zeros(nvar)
    lower = np.zeros(nvar)
    upper = np.full(nvar, math.inf)
    for var in variables:
        k = index[var]
        if var in parsed.binaries:
            integrality[k] = 1
            lower[k], upper[k] = 0.0, 1.0
        elif var in parsed.generals:
            integrality[k] = 1
        if var in parsed.bounds:
            lo, hi = parsed.bounds[var]
            lower[k], upper[k] = lo, hi

    # The matrix is sparse: a row holds a few of the thousands of variables.
    entries, at_row, at_var = [], [], []
    lb = np.full(len(parsed.rows), -math.inf)
    ub = np.full(len(parsed.rows), math.inf)
    for r, row in enumerate(parsed.rows):
        entries += row.coefs.values()
        at_row += [r] * len(row.coefs)
        at_var += map(index.__getitem__, row.coefs)
        if row.sense == "<=":
            ub[r] = row.rhs
        elif row.sense == ">=":
            lb[r] = row.rhs
        else:
            lb[r] = ub[r] = row.rhs

    a = csr_array((entries, (at_row, at_var)), shape=(len(parsed.rows), nvar))
    result = milp(
        c,
        constraints=LinearConstraint(a, lb, ub),
        integrality=integrality,
        bounds=Bounds(lower, upper),
    )
    if not result.success:
        return False, None, {}
    assignment = {var: float(result.x[index[var]]) for var in variables}
    return True, float(result.fun), assignment
