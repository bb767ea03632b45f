import dataclasses
import gc
import hashlib
import math
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from pipemap import (
    BicriteriaQuery,
    IntervalMapping,
    InvalidMappingError,
    PipelineSpec,
    Platform,
    assignment_from_mapping,
    build_instance,
    enumerate_mappings,
    evaluate_metrics,
    export_ilp,
    solve,
    write_lp,
)
from pipemap import ilp

import lp_grammar
from util import integer_instance, random_instance, with_zero_delta


def _tiny_query():
    return BicriteriaQuery.minimize_latency(7.0)


def _parsed(instance):
    """The program read back from its LP text, which must parse cleanly."""
    parsed = lp_grammar.parse_lp(instance.to_lp_text())
    assert parsed.diagnostics == []
    return parsed


class TestStructure:
    def test_variable_counts(self, tiny_spec, tiny_platform):
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        n, p = 3, 2
        x_vars = [v for v in inst.binaries if v.startswith("x_")]
        y_vars = [v for v in inst.binaries if v.startswith("y_")]
        z_vars = [v for v in inst.binaries if v.startswith("z_")]
        assert len(x_vars) == (n + 2) * (p + 2)
        assert len(y_vars) == (n + 1) * (p + 2)
        # links: ordered pairs less self-loops, minus arcs into "in" and out
        # of "out" (the pair out->in sits in both exclusions)
        links = (p + 2) * (p + 1) - 2 * (p + 1) + 1
        assert len(z_vars) == (n + 1) * links
        assert set(inst.generals) == {"first_p1", "first_p2", "last_p1", "last_p2"}
        assert inst.objective_var == "Topt"

    def test_no_z_vars_into_in_or_out_of_out(self, tiny_spec, tiny_platform):
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        for name in inst.binaries:
            if not name.startswith("z_"):
                continue
            _, _, u, v = name.split("_")
            assert v != "in"
            assert u != "out"
            assert u != v

    def test_row_family_counts(self, tiny_spec, tiny_platform):
        parsed = _parsed(build_instance(tiny_spec, tiny_platform, _tiny_query()))
        n, p = 3, 2
        assert len(parsed.rows_named("assign")) == n + 2
        assert len(parsed.rows_named("route")) == n + 1
        assert len(parsed.rows_named("period")) == p
        assert len(parsed.rows_named("latency")) == 1
        assert len(parsed.rows_named("firstb")) == n * p
        assert len(parsed.rows_named("lastb")) == n * p
        assert len(parsed.rows_named("cutl")) == (n - 1) * p * (p - 1)
        assert len(parsed.rows_named("cutf")) == (n - 1) * p * (p - 1)

    def test_objective_variable_plumbing(self, tiny_spec, tiny_platform):
        # minimized criterion row carries -Topt; the fixed criterion row ends
        # in the threshold constant
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        parsed = _parsed(inst)
        latency_row = parsed.rows_named("latency")[0]
        assert ("Topt" in latency_row.coefs) == (inst.query.objective == "latency")
        coef = latency_row.coefs["Topt"]
        assert coef == -1.0
        for row in parsed.rows_named("period"):
            assert all(v != "Topt" for v in row.coefs)
            assert row.rhs == 7.0
            assert row.sense == "<="

    def test_objective_swaps_with_query(self, tiny_spec, tiny_platform):
        parsed = _parsed(
            build_instance(tiny_spec, tiny_platform, BicriteriaQuery.minimize_period(10.0))
        )
        latency_row = parsed.rows_named("latency")[0]
        assert all(v != "Topt" for v in latency_row.coefs)
        assert latency_row.rhs == 10.0
        for row in parsed.rows_named("period"):
            assert "Topt" in row.coefs

    def test_pins(self, tiny_spec, tiny_platform):
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        pins = dict(inst.pins)
        assert pins["x_0_in"] == 1.0
        assert pins["x_4_out"] == 1.0
        assert pins["x_1_in"] == 0.0
        assert pins["x_3_out"] == 0.0
        assert pins["y_0_in"] == 0.0
        # stage 0 and stage n cannot be interval boundaries on processors
        assert pins["y_0_p1"] == 0.0
        assert pins["y_3_p2"] == 0.0

    def test_infinite_threshold_emits_no_bound_rows(self, tiny_spec, tiny_platform):
        inst = build_instance(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency()
        )
        # an unconstrained query must not emit an infinite RHS anywhere; the
        # vacuous fixed-criterion rows are dropped outright
        text = inst.to_lp_text()
        assert "inf" not in text.lower()
        parsed = lp_grammar.parse_lp(text)
        assert parsed.diagnostics == []
        assert parsed.rows_named("period") == []
        for row in parsed.rows:
            assert math.isfinite(row.rhs)


class TestAssignmentEncoding:
    def test_known_optimum_satisfies_all_rows(self, tiny_spec, tiny_platform):
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        mapping = IntervalMapping.from_signature("1-2@p1;3-3@p2")
        assignment = assignment_from_mapping(
            tiny_spec, tiny_platform, mapping, inst.query
        )
        for row in _parsed(inst).rows:
            assert row.satisfied(assignment), row.name

    def test_latency_row_is_tight(self, tiny_spec, tiny_platform):
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        mapping = IntervalMapping.from_signature("1-2@p1;3-3@p2")
        assignment = assignment_from_mapping(
            tiny_spec, tiny_platform, mapping, inst.query
        )
        # Topt equals the latency, so the latency row's LHS is exactly zero
        row = _parsed(inst).rows_named("latency")[0]
        assert row.evaluate(assignment) == pytest.approx(0.0, abs=1e-12)
        assert assignment["Topt"] == 10.0

    def test_period_rows_equal_cycles(self, tiny_spec, tiny_platform):
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        mapping = IntervalMapping.from_signature("1-2@p1;3-3@p2")
        assignment = assignment_from_mapping(
            tiny_spec, tiny_platform, mapping, inst.query
        )
        lhs = {
            row.name: row.evaluate(assignment) for row in _parsed(inst).rows_named("period")
        }
        assert lhs["period_p1"] == pytest.approx(7.0)
        assert lhs["period_p2"] == pytest.approx(4.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mappings_satisfy_program(self, seed):
        rng = np.random.default_rng(300 + seed)
        spec, platform = random_instance(rng, n_range=(2, 4), p_range=(2, 3))
        free = solve(spec, platform, BicriteriaQuery.minimize_period())
        query = BicriteriaQuery.minimize_period(free.min_latency * 2.0)
        inst = build_instance(spec, platform, query)
        rows = _parsed(inst).rows
        for mapping in enumerate_mappings(spec, platform):
            metrics = evaluate_metrics(spec, platform, mapping)
            assignment = assignment_from_mapping(spec, platform, mapping, query)
            # ParsedRow.evaluate reads a missing variable as 0.0, so a
            # misnamed one would otherwise pass silently
            assert set(assignment) <= set(inst.variables)
            ok = all(row.satisfied(assignment) for row in rows)
            # mappings become infeasible points exactly when they break the
            # fixed-criterion bound
            assert ok == (metrics.latency <= free.min_latency * 2.0 + 1e-9)


    @pytest.mark.parametrize("seed", range(3))
    def test_topt_is_the_querys_objective(self, seed):
        rng = np.random.default_rng(900 + seed)
        spec, platform = random_instance(rng, n_range=(2, 5), p_range=(2, 4))
        queries = (BicriteriaQuery.minimize_latency(), BicriteriaQuery.minimize_period(3.0))
        for k, mapping in enumerate(enumerate_mappings(spec, platform)):
            if k % 7:
                continue
            metrics = evaluate_metrics(spec, platform, mapping)
            for query in queries:
                topt = assignment_from_mapping(spec, platform, mapping, query)["Topt"]
                assert topt == query.objective_of(metrics) == getattr(metrics, query.objective)
            assert assignment_from_mapping(spec, platform, mapping)["Topt"] == metrics.period

    @pytest.mark.parametrize("signature", ["1-2@p1;3-3@p3", "1-1@p1;3-3@p2"], ids=["p+1", "gap"])
    def test_invalid_mapping_raises_before_any_name_lookup(
        self, tiny_spec, tiny_platform, monkeypatch, signature
    ):
        # Processor p + 1 would read the output gateway's names and a gap
        # would leave stage 2 on the input gateway, so neither would fail
        # a name lookup by itself.
        def no_names(n, p):
            raise AssertionError("names looked up for an invalid mapping")

        monkeypatch.setattr(ilp, "_name_tables", no_names)
        mapping = IntervalMapping.from_signature(signature)
        with pytest.raises(InvalidMappingError):
            assignment_from_mapping(tiny_spec, tiny_platform, mapping)


class TestLpRendering:
    def test_grammar_clean_both_senses(self, tiny_spec, tiny_platform):
        for query in (_tiny_query(), BicriteriaQuery.minimize_period(10.0)):
            parsed = lp_grammar.parse_lp(export_ilp(tiny_spec, tiny_platform, query))
            assert parsed.diagnostics == []
            inst = build_instance(tiny_spec, tiny_platform, query)
            assert set(parsed.variables()) == set(inst.variables)
            assert len(parsed.rows) == len(inst.rows)

    def test_grammar_clean_on_scientific_notation(self):
        # tiny volumes force the %.17g formatter into exponent form, which the
        # tokenizer must not split
        from pipemap import PipelineSpec

        spec = PipelineSpec(
            stage_names=("a", "b", "c", "d"),
            w=[1e-7, 2e5, 3.5e-6, 4.0],
            delta=[1e-9, 2e-8, 0.5, 1e6, 7e-5],
        )
        platform = Platform(
            s=[1e-3, 2e4, 5.0], b=np.full((5, 5), 1e-4) - np.eye(5) * 0  # keep >0
        )
        text = export_ilp(spec, platform, BicriteriaQuery.minimize_latency(1e9))
        assert "e-" in text or "E-" in text  # exponent form actually exercised
        parsed = lp_grammar.parse_lp(text)
        assert parsed.diagnostics == []

    def test_written_file_round_trips(self, tiny_spec, tiny_platform, tmp_path):
        path = tmp_path / "tiny.lp"
        inst = write_lp(tiny_spec, tiny_platform, _tiny_query(), str(path))
        assert path.read_text() == inst.to_lp_text()
        parsed = lp_grammar.parse_lp(path.read_text())
        assert parsed.diagnostics == []

    def test_sections_present_and_ordered(self, tiny_spec, tiny_platform):
        text = export_ilp(tiny_spec, tiny_platform, _tiny_query())
        order = [
            text.index("Minimize"),
            text.index("Subject To"),
            text.index("Bounds"),
            text.index("Binary"),
            text.index("General"),
            text.index("End"),
        ]
        assert order == sorted(order)

    def test_line_width_capped(self):
        # A line holds at most 72 characters after its leading space, unless
        # it holds a single word after its indent.
        for name, text in _golden_programs():
            for line in text.splitlines():
                assert len(line) <= 73 or len(line.split()) == 1, (name, line)


def _golden_queries():
    rng = np.random.default_rng(2008)
    one = (
        PipelineSpec(stage_names=("a",), w=[3.0], delta=[2.0, 5.0]),
        Platform(s=[2.0], b=[[0.0, 1.0, 4.0], [3.0, 0.0, 2.0], [1.0, 5.0, 0.0]]),
    )
    spec, platform = random_instance(rng, (5, 5), (3, 3), allow_zero_delta=False)
    delta = spec.delta.copy()
    delta[[0, 2, 5]] = 0.0
    zero = (PipelineSpec(stage_names=spec.stage_names, w=spec.w, delta=delta), platform)
    instances = [
        ("n1p1", one, 9.0),
        ("zero-delta", zero, 1.2345),
        ("n7p10", random_instance(rng, (7, 7), (10, 10), allow_zero_delta=False), 3.75),
        ("n24p14", random_instance(rng, (24, 24), (14, 14), allow_zero_delta=False), 21.0),
    ]
    for label, (spec, platform), threshold in instances:
        for objective in ("latency", "period"):
            for bound in (threshold, math.inf):
                query = BicriteriaQuery(objective=objective, threshold=bound)
                yield f"{label} {objective} {bound!r}", spec, platform, query


def _golden_programs():
    for name, spec, platform, query in _golden_queries():
        yield name, export_ilp(spec, platform, query)


class TestGoldenLp:
    """The LP text of fixed seeded programs, pinned by one sha256.

    Covers ``n = p = 1``, a pipeline with zero volumes, ``n=7, p=10`` and
    ``n=24, p=14``, each in both senses with a finite and an infinite
    threshold.
    """

    DIGEST = "47543daf331ce4829cfcefe8cf9f29b2ca34b4598ef4e777fb21c232731a8bb2"

    def test_bytes(self):
        digest = hashlib.sha256()
        for name, text in _golden_programs():
            data = text.encode("utf-8")
            digest.update(f"{name} {len(data)}\n".encode())
            digest.update(data)
        assert digest.hexdigest() == self.DIGEST


class TestMemory:
    def test_large_program_peak_stays_bounded(self):
        # Building, rendering and then naming the rows of an n=24, p=14
        # program peaks at 5.6-6.8 MiB, while the text is rendered.
        for name, spec, platform, query in _golden_queries():
            if not name.startswith("n24p14"):
                continue
            gc.collect()
            tracemalloc.start()
            try:
                instance = build_instance(spec, platform, query)
                instance.to_lp_text()
                assert len(instance.rows) > 14_000
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, (name, peak)

    def test_large_build_makes_few_tracked_objects(self):
        # Flat name columns and cost rows gathered with no (coef, var) pair
        # keep the objects the garbage collector tracks to 1,189-1,537 for an
        # n=24, p=14 program; a pair and a one-name column per cost term made
        # over 16,000, and each collection pass walks them.
        for name, spec, platform, query in _golden_queries():
            if not name.startswith("n24p14"):
                continue
            gc.collect()
            gc.disable()
            try:
                before = len(gc.get_objects())
                instance = build_instance(spec, platform, query)
                added = len(gc.get_objects()) - before
            finally:
                gc.enable()
            assert instance.blocks and added < 4_000, (name, added)


def _word_wrap(text, width=72, indent="   "):
    """A word-by-word line breaker, the reference that ``ilp._wrap`` must match."""
    words = text.split(" ")
    lines = []
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


def _reference_fmt(value):
    """A number as LP text, the reference that ``ilp._fmt`` must match."""
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".17g")


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 1.0, -3.0, 1e15 - 1, 1e15, 2.0**53 + 2, 0.1, 5e-324, 1e300,
     math.inf, -math.inf, math.nan],
)
def test_fmt_matches_reference(value):
    assert ilp._fmt(value) == _reference_fmt(value)


def _random_floats():
    """Fractions, integers up to 2e15 and magnitudes from 1e-304 to 1e304, of both signs."""
    rng = np.random.default_rng(18)
    return np.concatenate([
        rng.uniform(-1e3, 1e3, 2000),
        np.round(rng.uniform(-2e15, 2e15, 2000)),
        rng.integers(-100, 100, 2000).astype(float),
        np.exp(rng.uniform(-700, 700, 2000)),
    ]).tolist()


def test_fmt_matches_reference_on_random_floats():
    values = _random_floats()
    assert [ilp._fmt(v) for v in values] == [_reference_fmt(v) for v in values]


def _reference_row_lines(name, terms, sense, rhs):
    """A row rendered word by word through the reference wrap."""
    text = " ".join(
        f"{'-' if coef < 0 else '+'} {_reference_fmt(abs(coef))} {var}" for coef, var in terms
    )
    body = f"{name}: {text.removeprefix('+ ')} {sense} {_reference_fmt(rhs)}"
    return [" " + line for line in _word_wrap(body)]


def _reference_list_lines(names):
    """A ``Binary`` or ``General`` list wrapped word by word, continuation unindented."""
    return [" " + line for line in _word_wrap(" ".join(names), indent="")]


def _between(lines, first, last):
    return lines[lines.index(first) + 1 : lines.index(last)]


def _section(instance, first, last):
    return _between(instance.to_lp_text().splitlines(), first, last)


def _constraint_lines(instance):
    return _section(instance, "Subject To", "Bounds")


def _random_words(rng):
    """Words of LP-identifier characters; about one in ten is 60-79 characters long."""
    count = int(rng.integers(1, 40))
    long = rng.random(count) < 0.1
    sizes = np.where(long, rng.integers(60, 80, count), rng.integers(1, 12, count))
    text = "".join(rng.choice(list("abxyz_0123456789"), int(sizes.sum())))
    ends = np.cumsum(sizes).tolist()
    return [text[end - size : end] for end, size in zip(ends, sizes.tolist())]


class TestRowRendering:
    """Every row and both variable lists match the word-by-word reference wrap."""

    def test_golden_rows_match_word_by_word_wrap(self):
        for _, spec, platform, query in _golden_queries():
            instance = build_instance(spec, platform, query)
            rows = _reference_build(spec, platform, query)[0]
            expected = [line for row in rows for line in _reference_row_lines(*row)]
            assert _constraint_lines(instance) == expected

    def test_golden_variable_lists_match_word_by_word_wrap(self):
        for _, spec, platform, query in _golden_queries():
            instance = build_instance(spec, platform, query)
            assert _section(instance, "Binary", "General") == _reference_list_lines(
                instance.binaries
            )
            assert _section(instance, "General", "End") == _reference_list_lines(
                instance.generals
            )

    def test_random_words_match_word_by_word_wrap(self):
        rng = np.random.default_rng(14)
        long_first = long_continued = 0
        for _ in range(2000):
            words = _random_words(rng)
            text = " ".join(words)
            expected = [" " + line for line in _word_wrap(text)]
            assert ilp._wrap(text) == "\n".join(expected)
            assert ilp._wrap(text, indent=" ") == "\n".join(_reference_list_lines(words))
            long_first += len(words[0]) > 72
            long_continued += any(len(line) > 76 for line in expected[1:])
        # both places a too-long word can sit are exercised
        assert long_first > 0 and long_continued > 0

    @pytest.mark.parametrize("objective", ["latency", "period"])
    @pytest.mark.parametrize("finite", [True, False], ids=["finite", "inf"])
    def test_reference_programs_match_word_by_word_wrap(self, objective, finite):
        for spec, platform in _reference_instances():
            query = _reference_query(spec, objective, finite)
            instance = build_instance(spec, platform, query)
            lines = instance.to_lp_text().splitlines()
            rows = _reference_build(spec, platform, query)[0]
            expected = [line for row in rows for line in _reference_row_lines(*row)]
            assert _between(lines, "Subject To", "Bounds") == expected
            assert _between(lines, "Binary", "General") == _reference_list_lines(
                instance.binaries
            )
            assert _between(lines, "General", "End") == _reference_list_lines(instance.generals)

    @pytest.mark.parametrize("length, lines", [(72, 1), (73, 2)])
    def test_body_width_boundary(self, tiny_spec, tiny_platform, length, lines):
        instance = build_instance(tiny_spec, tiny_platform, _tiny_query())
        # The body is the name and 47 more characters.
        name = "c" * (length - 47)
        terms = ((1.0, "x_1_p1"), (-0.1, "z_0_in_p1"))
        columns = ("x_1_p1", "z_0_in_p1")
        block = (ilp.RowFamily(name[:1], (name[1:],), (1.0, -0.1), columns, "<=", 3.0),)
        rendered = _constraint_lines(dataclasses.replace(instance, blocks=(block,)))
        assert len(f"{name}: 1 x_1_p1 - 0.10000000000000001 z_0_in_p1 <= 3") == length
        assert len(rendered) == lines
        assert rendered == _reference_row_lines(name, terms, "<=", 3.0)

    def test_batch_formatted_coefficients_match_reference(self, tiny_spec, tiny_platform):
        # New coefficients are formatted in one call per sign.  A family of
        # three rows holds both signs, repeats, both zeros, the smallest
        # subnormal, 1e300, integers from 1e15 and the random floats; a
        # second family repeats some of them among new ones.
        instance = build_instance(tiny_spec, tiny_platform, _tiny_query())
        edge = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e15, -1e15, 2.0**53 + 2, -(2.0**60)]
        first = (*edge, *_random_floats(), *edge, -1.0, 1.0, 1.0)
        second = (0.5, *first[::-97], -0.25, -0.0, 0.0)
        families, expected = [], []
        for prefix, coefs, sense, rhs in (("r_", first, "<=", 3.0), ("s", second, ">=", -0.5)):
            keys = ("a", "b2", "c")
            columns = tuple(f"v{j}_{key}" for j in range(len(coefs)) for key in keys)
            families.append(ilp.RowFamily(prefix, keys, coefs, columns, sense, rhs))
            for i, key in enumerate(keys):
                terms = [(coef, columns[j * len(keys) + i]) for j, coef in enumerate(coefs)]
                expected += _reference_row_lines(prefix + key, terms, sense, rhs)
        blocks = tuple((family,) for family in families)
        assert _constraint_lines(dataclasses.replace(instance, blocks=blocks)) == expected


def _reference_build(spec, platform, query):
    """``(rows, pins, binaries, generals)`` of a program built row by row.

    Each row is a ``(name, terms, sense, rhs)`` tuple whose terms are
    ``(coef, var)`` pairs.  The reference that the bulk ``build_instance``
    must match exactly.
    """
    n, p = spec.n, platform.p
    w, delta = spec.w.tolist(), spec.delta.tolist()
    s, b = platform.s.tolist(), platform.b.tolist()
    label = ["in"] + [f"p{u}" for u in range(1, p + 1)] + ["out"]
    out = p + 1
    nodes = range(p + 2)
    procs = range(1, out)
    links = [(u, v) for u in nodes for v in nodes if u != v and u != out and v != 0]
    pairs = [f"{label[u]}_{label[v]}" for u, v in links]

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

    rows = []
    for k in range(n + 2):
        rows.append((f"assign_{k}", tuple((1.0, name) for name in x[k]), "=", 1.0))
    for k in range(n + 1):
        terms = [(1.0, z[k][u][v]) for u, v in links] + [(1.0, name) for name in y[k]]
        rows.append((f"route_{k}", tuple(terms), "=", 1.0))
    for k in range(n + 1):
        xk, xk1, zk = x[k], x[k + 1], z[k]
        for (u, v), uv in zip(links, pairs):
            terms = ((1.0, xk[u]), (1.0, xk1[v]), (-1.0, zk[u][v]))
            rows.append((f"link_{k}_{uv}", terms, "<=", 1.0))
    for k in range(n + 1):
        for u in nodes:
            terms = ((1.0, x[k][u]), (1.0, x[k + 1][u]), (-1.0, y[k][u]))
            rows.append((f"same_{k}_{label[u]}", terms, "<=", 1.0))
    for k in range(1, n + 1):
        for u in procs:
            terms = ((1.0, first[u]), (float(n - k), x[k][u])) if n - k else ((1.0, first[u]),)
            rows.append((f"firstb_{k}_{label[u]}", terms, "<=", float(n)))
            terms = ((1.0, last[u]), (-float(k), x[k][u]))
            rows.append((f"lastb_{k}_{label[u]}", terms, ">=", 0.0))
    proc_links = [(u, v, uv) for (u, v), uv in zip(links, pairs) if u != 0 and v != out]
    for k in range(1, n):
        zk = z[k]
        for u, v, uv in proc_links:
            terms = ((1.0, last[u]), (float(n - k), zk[u][v]))
            rows.append((f"cutl_{k}_{uv}", terms, "<=", float(n)))
            terms = ((1.0, first[v]), (-float(k + 1), zk[u][v]))
            rows.append((f"cutf_{k}_{uv}", terms, ">=", 0.0))

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
    for criterion, name, terms in cost_rows:
        if criterion == query.objective:
            rows.append((name, tuple(terms) + ((-1.0, "Topt"),), "<=", 0.0))
        elif math.isfinite(query.threshold):
            rows.append((name, tuple(terms), "<=", query.threshold))

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
    return tuple(rows), tuple(pins), tuple(binaries), tuple(generals)


def _reference_query(spec, objective, finite):
    threshold = 2.5 * float(spec.w.sum()) if finite else math.inf
    return BicriteriaQuery(objective=objective, threshold=threshold)


def _reference_instances():
    """Seeded small instances (half with integer data, some with a zero volume)
    and the four large-instance sizes of the benchmark."""
    rng = np.random.default_rng(1818)
    for i in range(24):
        if i % 2:
            spec, platform = integer_instance(rng, (1, 9), (1, 7))
        else:
            spec, platform = random_instance(rng, (1, 9), (1, 7), allow_zero_delta=False)
        if i % 3 == 0:
            spec = with_zero_delta(rng, spec)
        yield spec, platform
    for n, p in ((20, 12), (22, 13), (24, 14), (21, 12)):
        yield random_instance(rng, (n, n), (p, p))


class TestReferenceBuilder:
    """The bulk builder makes the same program as the row-by-row loops."""

    @pytest.mark.parametrize("objective", ["latency", "period"])
    @pytest.mark.parametrize("finite", [True, False], ids=["finite", "inf"])
    def test_program_matches_row_by_row_build(self, objective, finite):
        for spec, platform in _reference_instances():
            query = _reference_query(spec, objective, finite)
            instance = build_instance(spec, platform, query)
            rows, pins, binaries, generals = _reference_build(spec, platform, query)
            # The text prints each coefficient with .17g, so it reads back exactly.
            parsed_rows = _parsed(instance).rows
            parsed = [
                (r.name, tuple((coef, var) for var, coef in r.coefs.items()), r.sense, r.rhs)
                for r in parsed_rows
            ]
            assert parsed == list(rows)
            # ``rows`` names every constraint in the order the text emits it.
            assert instance.rows == tuple(r.name for r in parsed_rows)
            assert instance.rows == tuple(name for name, *_ in rows)
            assert instance.pins == pins
            assert instance.binaries == binaries
            assert instance.generals == generals
            for family in chain.from_iterable(instance.blocks):
                assert len(family.columns) == len(family.coefs) * len(family.keys)
                assert type(family.prefix) is str
                assert all(type(key) is str for key in family.keys)
                assert all(type(var) is str for var in family.columns)
                assert type(family.rhs) is float
                assert all(type(coef) is float for coef in family.coefs)


def _milp_optimum(spec, platform, query):
    pytest.importorskip("scipy", exc_type=ImportError)
    text = export_ilp(spec, platform, query)
    parsed = lp_grammar.parse_lp(text)
    assert parsed.diagnostics == []
    return lp_grammar.solve_parsed(parsed)


class TestExternalSolver:
    """Feed the rendered program to an independent MILP solver and compare
    its optimum against exhaustive enumeration."""

    def test_tiny_latency_query(self, tiny_spec, tiny_platform):
        ok, value, assignment = _milp_optimum(tiny_spec, tiny_platform, _tiny_query())
        assert ok
        assert value == pytest.approx(10.0, abs=1e-6)

    def test_tiny_period_query(self, tiny_spec, tiny_platform):
        ok, value, _ = _milp_optimum(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_period(10.0)
        )
        assert ok
        assert value == pytest.approx(7.0, abs=1e-6)

    def test_tiny_infeasible_query(self, tiny_spec, tiny_platform):
        ok, _, _ = _milp_optimum(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_latency(5.0)
        )
        assert not ok

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_match_enumeration(self, seed):
        rng = np.random.default_rng(400 + seed)
        spec, platform = random_instance(rng, n_range=(2, 4), p_range=(2, 3))
        for objective in ("latency", "period"):
            free = solve(
                spec, platform, BicriteriaQuery(objective=objective, threshold=math.inf)
            )
            fixed_min = (
                free.min_period if objective == "latency" else free.min_latency
            )
            for factor in (1.15, 1.0):
                query = BicriteriaQuery(
                    objective=objective, threshold=fixed_min * factor
                )
                reference = solve(spec, platform, query)
                ok, value, _ = _milp_optimum(spec, platform, query)
                assert ok == reference.feasible
                if reference.feasible:
                    expected = (
                        reference.metrics.latency
                        if objective == "latency"
                        else reference.metrics.period
                    )
                    assert value == pytest.approx(expected, rel=1e-6, abs=1e-9)
