import dataclasses
import hashlib
import math

import numpy as np
import pytest

from pipemap import (
    BicriteriaQuery,
    IntervalMapping,
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
from util import random_instance


def _tiny_query():
    return BicriteriaQuery.minimize_latency(7.0)


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
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        n, p = 3, 2
        assert len(inst.rows_named("assign")) == n + 2
        assert len(inst.rows_named("route")) == n + 1
        assert len(inst.rows_named("period")) == p
        assert len(inst.rows_named("latency")) == 1
        assert len(inst.rows_named("firstb")) == n * p
        assert len(inst.rows_named("lastb")) == n * p
        assert len(inst.rows_named("cutl")) == (n - 1) * p * (p - 1)
        assert len(inst.rows_named("cutf")) == (n - 1) * p * (p - 1)

    def test_objective_variable_plumbing(self, tiny_spec, tiny_platform):
        # minimized criterion row carries -Topt; the fixed criterion row ends
        # in the threshold constant
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        latency_row = inst.rows_named("latency")[0]
        assert ("Topt" in [v for _, v in latency_row.terms]) == (
            inst.query.objective == "latency"
        )
        coef = {v: c for c, v in latency_row.terms}["Topt"]
        assert coef == -1.0
        for row in inst.rows_named("period"):
            assert all(v != "Topt" for _, v in row.terms)
            assert row.rhs == 7.0
            assert row.sense == "<="

    def test_objective_swaps_with_query(self, tiny_spec, tiny_platform):
        inst = build_instance(
            tiny_spec, tiny_platform, BicriteriaQuery.minimize_period(10.0)
        )
        latency_row = inst.rows_named("latency")[0]
        assert all(v != "Topt" for _, v in latency_row.terms)
        assert latency_row.rhs == 10.0
        for row in inst.rows_named("period"):
            names = [v for _, v in row.terms]
            assert "Topt" in names

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
        assert inst.rows_named("period") == []
        for row in inst.rows:
            assert math.isfinite(row.rhs)
        text = inst.to_lp_text()
        assert "inf" not in text.lower()
        parsed = lp_grammar.parse_lp(text)
        assert parsed.diagnostics == []


class TestAssignmentEncoding:
    def test_known_optimum_satisfies_all_rows(self, tiny_spec, tiny_platform):
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        mapping = IntervalMapping.from_signature("1-2@p1;3-3@p2")
        assignment = assignment_from_mapping(
            tiny_spec, tiny_platform, mapping, inst.query
        )
        for row in inst.rows:
            assert row.satisfied(assignment), row.name

    def test_latency_row_is_tight(self, tiny_spec, tiny_platform):
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        mapping = IntervalMapping.from_signature("1-2@p1;3-3@p2")
        assignment = assignment_from_mapping(
            tiny_spec, tiny_platform, mapping, inst.query
        )
        # Topt equals the latency, so the latency row's LHS is exactly zero
        row = inst.rows_named("latency")[0]
        assert row.evaluate(assignment) == pytest.approx(0.0, abs=1e-12)
        assert assignment["Topt"] == 10.0

    def test_period_rows_equal_cycles(self, tiny_spec, tiny_platform):
        inst = build_instance(tiny_spec, tiny_platform, _tiny_query())
        mapping = IntervalMapping.from_signature("1-2@p1;3-3@p2")
        assignment = assignment_from_mapping(
            tiny_spec, tiny_platform, mapping, inst.query
        )
        lhs = {
            row.name: row.evaluate(assignment) for row in inst.rows_named("period")
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
        for mapping in enumerate_mappings(spec, platform):
            metrics = evaluate_metrics(spec, platform, mapping)
            assignment = assignment_from_mapping(spec, platform, mapping, query)
            ok = all(row.satisfied(assignment) for row in inst.rows)
            # mappings become infeasible points exactly when they break the
            # fixed-criterion bound
            assert ok == (metrics.latency <= free.min_latency * 2.0 + 1e-9)


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

    def test_line_width_capped(self, tiny_spec, tiny_platform):
        text = export_ilp(tiny_spec, tiny_platform, _tiny_query())
        for line in text.splitlines():
            assert len(line) <= 80


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


def _reference_row_lines(row):
    """A row rendered word by word through the reference wrap."""
    text = " ".join(
        f"{'-' if coef < 0 else '+'} {ilp._fmt(abs(coef))} {var}" for coef, var in row.terms
    )
    body = f"{row.name}: {text.removeprefix('+ ')} {row.sense} {ilp._fmt(row.rhs)}"
    return [" " + line for line in _word_wrap(body)]


def _reference_list_lines(names):
    """A ``Binary`` or ``General`` list wrapped word by word, continuation unindented."""
    return [" " + line for line in _word_wrap(" ".join(names), indent="")]


def _section(instance, first, last):
    lines = instance.to_lp_text().splitlines()
    return lines[lines.index(first) + 1 : lines.index(last)]


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
            expected = [line for row in instance.rows for line in _reference_row_lines(row)]
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
            assert ilp._wrap(text) == expected
            assert ilp._wrap(text, indent=" ") == _reference_list_lines(words)
            long_first += len(words[0]) > 72
            long_continued += any(len(line) > 76 for line in expected[1:])
        # both places a too-long word can sit are exercised
        assert long_first > 0 and long_continued > 0

    @pytest.mark.parametrize("length, lines", [(72, 1), (73, 2)])
    def test_body_width_boundary(self, tiny_spec, tiny_platform, length, lines):
        instance = build_instance(tiny_spec, tiny_platform, _tiny_query())
        # The body is the name and 47 more characters.
        name = "c" * (length - 47)
        row = ilp.Row(name, ((1.0, "x_1_p1"), (-0.1, "z_0_in_p1")), "<=", 3.0)
        rendered = _constraint_lines(dataclasses.replace(instance, rows=(row,)))
        assert len(f"{name}: 1 x_1_p1 - 0.10000000000000001 z_0_in_p1 <= 3") == length
        assert len(rendered) == lines
        assert rendered == _reference_row_lines(row)


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
