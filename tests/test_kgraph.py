"""Directed graphs, Smith normal form, graph K-theory, and realization."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings

from raagcs import (
    AbGroup,
    DirectedGraph,
    NotRealizable,
    ParseError,
    RealizationNotImplemented,
    condition_k,
    format_dgraph,
    graph_ktheory,
    parse_dgraph,
    parse_profile_spec,
    realize,
    sink_ideal_analysis,
    smith_normal_form,
    verify_realization,
)
import raagcs.kgraph as kgraph
from raagcs.artin import PROFILE_DIGITS_MAX, TRIVIAL_GROUP, Z_GROUP
from raagcs.cli import main as cli_main
from raagcs.graphs import LimitExceeded
from raagcs.kgraph import DGRAPH_MAX, strongly_connected_regular
from conftest import (
    dgraphs,
    integer_determinant,
    mat_mul,
    random_dgraph,
    random_matrix,
    reference_closure,
    reference_condition_k,
)

p = parse_profile_spec


class TestDirectedGraph:
    def test_vertex_roles(self):
        dg = DirectedGraph(4, {(0, 1): 2, (1, 1): 1}, frozenset({3}))
        assert dg.regular_vertices == (0, 1)
        assert dg.sinks == (2,)
        assert dg.infinite_emitters == frozenset({3})
        assert dg.emits(3) and not dg.emits(2)

    def test_zero_multiplicities_are_dropped(self):
        dg = DirectedGraph(2, {(0, 1): 0, (0, 0): 1})
        assert dg.edge_mult == {(0, 0): 1}
        assert dg.sinks == (1,)

    def test_successor_rows(self):
        dg = DirectedGraph(3, {(0, 2): 1, (0, 1): 4})
        assert dg.successors == (0b110, 0, 0)
        assert dg.predecessors == (0, 0b1, 0b1)
        assert dg.edge_mult == {(0, 2): 1, (0, 1): 4}

    def test_validation(self):
        with pytest.raises(ValueError):
            DirectedGraph(1, {(0, 1): 1})
        with pytest.raises(ValueError):
            DirectedGraph(1, {(0, 0): -1})
        with pytest.raises(ValueError):
            DirectedGraph(1, infinite_emitters=frozenset({2}))
        with pytest.raises(ValueError):
            DirectedGraph(-1)
        for edges in ({(0, 0): 2.5}, {(0, 0): True}, {(0.0, 0): 1}, {(0, False): 1}):
            with pytest.raises(TypeError, match="holds a non-int"):
                DirectedGraph(1, edges)
        for v in (0.0, True):
            with pytest.raises(TypeError, match="is not an int"):
                DirectedGraph(1, infinite_emitters=frozenset({v}))


def ladder(n: int) -> DirectedGraph:
    """v -> v+1 and v -> v+2: acyclic, with Fibonacci(n) paths."""
    return DirectedGraph(
        n, {(v, v + 1): 1 for v in range(n - 1)} | {(v, v + 2): 1 for v in range(n - 2)}
    )


def budget_case(k: int) -> DirectedGraph:
    """0 <-> 1 and 1 <-> every vertex of a complete digraph on k vertices.

    One strongly connected component with factorially many simple paths:
    a search that enumerated them from vertex 0 would not finish at k = 12.
    """
    clique = range(2, k + 2)
    mult = {(0, 1): 1, (1, 0): 1}
    mult |= {(1, v): 1 for v in clique} | {(v, 1): 1 for v in clique}
    mult |= {(a, b): 1 for a in clique for b in clique if a != b}
    return DirectedGraph(k + 2, mult)


def assert_roles_match_edge_scan(dg: DirectedGraph) -> None:
    """Every per-vertex view against a plain scan of edge_mult."""
    n, mult = dg.n, dg.edge_mult
    emits = [v in dg.infinite_emitters or any(s == v for s, _ in mult) for v in range(n)]
    regular = [v for v in range(n) if emits[v] and v not in dg.infinite_emitters]
    assert dg.sinks == tuple(v for v in range(n) if not emits[v])
    assert dg.regular_vertices == tuple(regular)
    for v in range(n):
        assert dg.emits(v) == emits[v]
        assert dg.successors[v] == sum(1 << t for s, t in mult if s == v)
    inside = {(s, t) for s, t in mult if s in regular and t in regular}
    reach = reference_closure(n, inside)
    connected = all(a == b or reach[a][b] for a in regular for b in regular)
    assert strongly_connected_regular(dg) == connected


class TestOneOutEdgeView:
    def test_seeded_digraphs_match_edge_scan(self):
        rng = random.Random(41)
        for _ in range(2000):
            assert_roles_match_edge_scan(random_dgraph(rng))

    @given(dgraphs())
    @settings(max_examples=80, deadline=None)
    def test_any_digraph_matches_edge_scan(self, dg):
        assert_roles_match_edge_scan(dg)

    def test_strong_connectivity_of_regular_vertices(self):
        # The sink 2 and the emitter 3 are outside: only 0 <-> 1 counts.
        dg = DirectedGraph(4, {(0, 1): 1, (1, 0): 1, (1, 2): 1, (3, 0): 1}, frozenset({3}))
        assert strongly_connected_regular(dg)
        assert not strongly_connected_regular(DirectedGraph(2, {(0, 1): 1, (1, 1): 1}))
        assert strongly_connected_regular(DirectedGraph(1))


class TestDgraphFormat:
    def test_parse_basic(self):
        dg = parse_dgraph("dvertices: 3\n0 1 2\n1 2 1\n# comment\n2 *\n")
        assert dg.n == 3
        assert dg.edge_mult == {(0, 1): 2, (1, 2): 1}
        assert dg.infinite_emitters == frozenset({2})

    def test_repeated_edge_lines_add_up(self):
        dg = parse_dgraph("dvertices: 2\n0 1 2\n0 1 3\n")
        assert dg.edge_mult == {(0, 1): 5}

    def test_format_round_trip(self):
        text = "dvertices: 3\n1 *\n0 1 2\n2 2 1\n"
        assert format_dgraph(parse_dgraph(text)) == text

    @given(dgraphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any(self, dg):
        assert parse_dgraph(format_dgraph(dg)) == dg

    def test_errors(self):
        with pytest.raises(ParseError, match="missing dvertices"):
            parse_dgraph("0 1 1\n")
        with pytest.raises(ParseError, match="missing dvertices"):
            parse_dgraph("")
        with pytest.raises(ParseError, match="repeated dvertices"):
            parse_dgraph("dvertices: 2\ndvertices: 2\n")
        with pytest.raises(ParseError, match="bad vertex count"):
            parse_dgraph("dvertices: two\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_dgraph("dvertices: 2\n0 1\n")
        with pytest.raises(ParseError, match="non-integer"):
            parse_dgraph("dvertices: 2\n0 x 1\n")
        with pytest.raises(ParseError, match="negative"):
            parse_dgraph("dvertices: 2\n0 1 -1\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_dgraph("dvertices: 1\n0 3 1\n")
        with pytest.raises(ParseError, match="bad vertex"):
            parse_dgraph("dvertices: 1\nx *\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dvertices: \u00b2\n", "line 1: bad vertex count"),
            ("dvertices: 2\n\u00b9 *\n", "line 2: bad vertex"),
            ("dvertices: 2\n" + "9" * 5000 + " *\n", "line 2: infinite emitter of 5000 digits"),
        ],
    )
    def test_digits_int_refuses_are_parse_errors(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_dgraph(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dvertices: 11\n0 1_0 1\n", "line 2: non-integer or negative field"),
            ("dvertices: 2\n+0 1 1\n", "line 2: non-integer or negative field"),
            ("dvertices: 3\n\u0660 \u0661 \u0662\n", "line 2: non-integer or negative field"),
            ("dvertices: 2\n-1 0 1\n", "line 2: non-integer or negative field"),
            ("dvertices: 2\n0 1 1\n0 2 1\n", "line 3: edge endpoint 2 out of range for 2"),
            ("dvertices: 2\n00 0001 1\n1 01 1\n2 0 1\n", "line 4: edge endpoint 2 out"),
            ("dvertices: 2\n0 " + "9" * 5000 + " 1\n", "line 2: edge endpoint of 5000 digits"),
            ("dvertices: 2\n0 1 " + "9" * 5000 + "\n", "line 2: multiplicity too long"),
            ("dvertices: 2\n0 1 1\n0 1 " + "9" * 4001 + "\n", "line 3: multiplicity too long: 4001 digits, over 4000$"),
            ("dvertices: 2\n0 0 1\n5 *\n", "line 3: infinite emitter 5 out of range"),
        ],
    )
    def test_edge_fields_are_checked_on_their_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_dgraph(text)

    def test_padded_fields_are_vertices(self):
        dg = parse_dgraph("dvertices: 2\n00 0001 02\n001 *\n")
        assert dg.edge_mult == {(0, 1): 2}
        assert dg.infinite_emitters == frozenset({1})
        pad = "0" * 5000
        assert parse_dgraph(f"dvertices: 2\n{pad}1 *\n").infinite_emitters == frozenset({1})
        assert parse_dgraph(f"dvertices: 2\n0 {pad}1 3\n").edge_mult == {(0, 1): 3}

    def test_multiplicities_share_the_profile_digit_cap(self):
        top = "9" * PROFILE_DIGITS_MAX
        # Leading zeros are free, and lines at the cap sum to a printable int.
        dg = parse_dgraph(f"dvertices: 2\n0 0 {'0' * 5000}3\n0 1 {top}\n0 1 {top}\n")
        assert dg.edge_mult == {(0, 0): 3, (0, 1): 2 * int(top)}
        assert str(dg.edge_mult[0, 1]) == "1" + top[:-1] + "8"

    def test_two_lines_past_the_cap_are_exit_2(self, capsys):
        # Each of 4 300 digits, int() reads them, but their sum would not print.
        line = "0 0 " + "9" * 4300 + "\n"
        assert cli_main(["ktheory", "dvertices: 2\n" + line + line]) == 2
        assert capsys.readouterr().err == "error: line 2: multiplicity too long: 4300 digits, over 4000\n"

    def test_declared_count_at_the_cap(self):
        assert parse_dgraph(f"dvertices: {DGRAPH_MAX}\n").n == DGRAPH_MAX
        assert parse_dgraph(f"dvertices: 000{DGRAPH_MAX}\n").n == DGRAPH_MAX

    @pytest.mark.parametrize("count", [str(DGRAPH_MAX + 1), "3000000", "9" * 5000])
    def test_declared_count_over_the_cap(self, count):
        with pytest.raises(LimitExceeded, match=f"capped at {DGRAPH_MAX} vertices") as info:
            parse_dgraph(f"dvertices: {count}\n0 0 1\n")
        assert count[:20] in str(info.value)


def det_oracle(m: list[list[int]]) -> int:
    """Permutation expansion, independent of the Bareiss routine."""
    k = len(m)
    total = 0
    for perm in itertools.permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(k):
            term *= m[i][perm[i]]
        total += term
    return total


class TestIntegerDeterminant:
    def test_known_values(self):
        assert integer_determinant([]) == 1
        assert integer_determinant([[7]]) == 7
        assert integer_determinant([[2, 4], [6, 8]]) == -8
        assert integer_determinant([[1, 2], [2, 4]]) == 0

    def test_against_permutation_expansion(self):
        rng = random.Random(5)
        for _ in range(50):
            m = random_matrix(rng, 4, 4, bound=6)
            assert integer_determinant(m) == det_oracle(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            integer_determinant([[1, 2]])


def assert_valid_snf(a: list[list[int]]) -> tuple[int, ...]:
    snf = smith_normal_form(a)
    rows, cols = len(a), len(a[0]) if a else 0
    assert mat_mul(mat_mul(snf.U, a), snf.V) == [list(r) for r in snf.D]
    assert abs(integer_determinant(snf.U)) == 1
    assert abs(integer_determinant(snf.V)) == 1
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert snf.D[i][j] == 0
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    factors = snf.invariant_factors
    assert list(diag[: len(factors)]) == list(factors)
    for a_, b_ in zip(factors, factors[1:]):
        assert b_ % a_ == 0
    return factors


class TestSmithNormalForm:
    def test_hand_cases(self):
        assert assert_valid_snf([[2, 4], [6, 8]]) == (2, 4)
        assert assert_valid_snf([[1, 0], [0, 1]]) == (1, 1)
        assert assert_valid_snf([[0, 0], [0, 0]]) == ()
        assert assert_valid_snf([[6]]) == (6,)
        assert assert_valid_snf([[2, 0], [0, 3]]) == (1, 6)
        assert assert_valid_snf([[2, 4, 6]]) == (2,)
        assert assert_valid_snf([[1], [1]]) == (1,)
        assert assert_valid_snf([[-4]]) == (4,)

    def test_degenerate_shapes(self):
        assert smith_normal_form([]).diagonal == ()
        assert smith_normal_form([[]]).diagonal == ()

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])

    @pytest.mark.parametrize("entry", [1.5, 2.0, True, "1", None])
    def test_non_int_entries_are_type_errors(self, entry):
        with pytest.raises(TypeError, match="matrix entries must be ints"):
            smith_normal_form([[1, 0], [0, entry]])

    def test_full_rank_product_matches_determinant(self):
        rng = random.Random(17)
        done = 0
        while done < 40:
            m = random_matrix(rng, 3, 3, bound=7)
            det = integer_determinant(m)
            if det == 0:
                continue
            factors = assert_valid_snf(m)
            product = 1
            for d in factors:
                product *= d
            assert product == abs(det)
            done += 1

    def test_seeded_corpus(self):
        rng = random.Random(23)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            assert_valid_snf(random_matrix(rng, rows, cols))

    def test_decomposition_digest(self):
        """U, D and V themselves, entry for entry: any change to the pivot
        rule or to the order of the row and column operations moves this
        digest.  The corpus holds empty and zero-row shapes, rectangles,
        sparse and dense matrices, each also negated (negative pivots) and
        doubled (all entries even), and two matrices that need the pass
        pulling an entry the pivot does not divide into the pivot row."""
        rng = random.Random(29)
        corpus = [[], [[]], [[], [], []], [[2, 0], [0, 3]], [[2, 4], [6, 8]]]
        for _ in range(300):
            rows, cols = rng.randint(0, 8), rng.randint(1, 8)
            bound = rng.choice((1, 3, 9))
            density = rng.choice((0.2, 0.5, 1.0))
            a = [
                [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            corpus += [a, [[-x for x in r] for r in a], [[2 * x for x in r] for r in a]]
        h = hashlib.sha256()
        for a in corpus:
            snf = smith_normal_form(a)
            h.update(repr((snf.U, snf.D, snf.V)).encode())
        assert h.hexdigest()[:16] == "7cb97796d21d18cb"


class TestGraphKTheory:
    def test_cuntz_algebra_anchor(self):
        rep = graph_ktheory(DirectedGraph(1, {(0, 0): 3}))
        assert rep.k0 == AbGroup(0, (2,))
        assert rep.k1 == TRIVIAL_GROUP
        assert rep.unit_class == (1,)
        assert not rep.unit_is_generator

    def test_two_loop_vertex_kills_k0(self):
        rep = graph_ktheory(DirectedGraph(1, {(0, 0): 2}))
        assert rep.k0 == TRIVIAL_GROUP
        assert rep.unit_class == ()

    def test_single_loop_is_circle(self):
        rep = graph_ktheory(DirectedGraph(1, {(0, 0): 1}))
        assert rep.k0 == Z_GROUP and rep.k1_rank == 1
        assert rep.unit_is_generator

    def test_isolated_vertex(self):
        rep = graph_ktheory(DirectedGraph(1))
        assert rep.k0 == Z_GROUP and rep.k1_rank == 0
        assert rep.unit_is_generator
        assert rep.regular_vertices == ()

    def test_infinite_emitter_column_is_dropped(self):
        rep = graph_ktheory(DirectedGraph(1, {(0, 0): 2}, frozenset({0})))
        assert rep.regular_vertices == ()
        assert rep.k0 == Z_GROUP and rep.k1_rank == 0

    def test_empty_graph(self):
        rep = graph_ktheory(DirectedGraph(0))
        assert rep.k0 == TRIVIAL_GROUP and rep.k1_rank == 0
        assert rep.unit_class == ()

    @given(dgraphs())
    @settings(max_examples=60, deadline=None)
    def test_unit_class_is_the_sum_of_vertex_classes(self, dg):
        # [1] = sum of [p_v] in K0: torsion coordinates add modulo their
        # invariant factors, free coordinates add exactly.
        rep = graph_ktheory(dg)
        torsion = rep.k0.torsion
        total = [sum(c) for c in zip(*rep.vertex_class)] or [0] * len(rep.unit_class)
        reduced = [x % d for x, d in zip(total, torsion)] + total[len(torsion) :]
        assert tuple(reduced) == rep.unit_class


def multiplied_cycle(n: int, m: int) -> DirectedGraph:
    return DirectedGraph(n, {(v, (v + 1) % n): m for v in range(n)})


class TestCycleClosedForm:
    """An n-cycle whose edges all have multiplicity m >= 2 has
    K0 = Z/(m^n - 1) and K1 = 0."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_fifty_cycle_with_certificate(self, m):
        n = 50
        B = [[0] * n for _ in range(n)]
        for v in range(n):
            B[v][v] = -1
            B[(v + 1) % n][v] = m
        assert assert_valid_snf(B) == (1,) * (n - 1) + (m**n - 1,)
        rep = graph_ktheory(multiplied_cycle(n, m))
        assert rep.k0 == AbGroup(0, (m**n - 1,)) and rep.k1_rank == 0

    def test_largest_cycle_through_the_cli(self, capsys):
        text = format_dgraph(multiplied_cycle(DGRAPH_MAX, 2))
        assert cli_main(["ktheory", text, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k0"]["torsion"] == [2**DGRAPH_MAX - 1]
        assert doc["k1"]["free_rank"] == 0


def dense_dgraph() -> str:
    """120 vertices, three infinite emitters, every edge with probability
    0.3 and multiplicity 1-3: the Smith normal form's entries grow to
    thousands of bits, and without a budget ``ktheory`` was still running
    after 25 s.  The CI workflow builds the same digraph."""
    n = 120
    rng = random.Random(1)
    lines = [f"dvertices: {n}"] + [f"{v} *" for v in sorted(rng.sample(range(n), 3))]
    lines += [
        f"{s} {t} {rng.randint(1, 3)}"
        for s in range(n)
        for t in range(n)
        if rng.random() < 0.3
    ]
    return "\n".join(lines) + "\n"


class TestSmithBudget:
    def test_library_raises_past_the_budget(self, monkeypatch):
        a = random_matrix(random.Random(3), 6, 5)
        smith_normal_form(a)
        monkeypatch.setattr(kgraph, "SNF_BUDGET", 20)
        with pytest.raises(LimitExceeded, match="Smith normal form .* 20 .* 6 x 5 matrix"):
            smith_normal_form(a)

    def test_dense_digraph_is_exit_3(self, capsys):
        assert cli_main(["ktheory", dense_dgraph()]) == 3
        err = capsys.readouterr().err
        assert "Smith normal form" in err and "120 x 117 matrix" in err

    def test_sink_extension_does_not_swallow_the_limit(self, capsys, monkeypatch):
        # With one sink, sink_ideal_analysis runs first, and its refusals
        # are ValueErrors that become warnings; the limit is not one of
        # them, so the full graph is not reduced a second time.
        text = block_dgraph(random.Random(5), 20, 1, 0)
        assert cli_main(["ktheory", text, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["sink_extension"] is not None
        calls = []
        real = kgraph.smith_normal_form
        monkeypatch.setattr(kgraph, "smith_normal_form", lambda a: calls.append(a) or real(a))
        monkeypatch.setattr(kgraph, "SNF_BUDGET", 0)
        assert cli_main(["ktheory", text, "--json"]) == 3
        assert "Smith normal form" in capsys.readouterr().err
        assert len(calls) == 1

    def test_verification_raises_the_limit_after_one_reduction(self, monkeypatch):
        # A cap is not a failed check: verify_realization stops at the first
        # Smith normal form that runs out of budget.
        assert not issubclass(LimitExceeded, ValueError)
        dg = DirectedGraph(2, {(0, 0): 4, (0, 1): 4})
        assert verify_realization(dg, parse_profile_spec("N[-3]=1")).passed
        calls = []
        real = kgraph.smith_normal_form
        monkeypatch.setattr(kgraph, "smith_normal_form", lambda a: calls.append(a) or real(a))
        monkeypatch.setattr(kgraph, "SNF_BUDGET", 0)
        with pytest.raises(LimitExceeded, match="Smith normal form"):
            verify_realization(dg, parse_profile_spec("N[-3]=1"))
        assert len(calls) == 1


def wide_cycle(n: int = 100, m: int = 10**50) -> str:
    """The n-cycle with multiplicity m: K0 = Z/(m^n - 1), of 5 000 digits
    by default, past Python's default int-to-string limit."""
    return f"dvertices: {n}\n" + "".join(f"{v} {(v + 1) % n} {m}\n" for v in range(n))


class TestIntStringLimit:
    def test_library_raises_past_the_limit(self, monkeypatch):
        dg = parse_dgraph(wide_cycle())
        limit = sys.get_int_max_str_digits()
        message = rf"^K-theory integers are capped at {limit} digits .* got one of 5000 digits on a 100-vertex dgraph$"
        with pytest.raises(LimitExceeded, match=message):
            graph_ktheory(dg)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
        assert graph_ktheory(dg).k0 == AbGroup(0, (10**5000 - 1,))

    def test_exactly_at_the_limit(self):
        # One vertex with m + 1 loops has K0 = Z/m.
        limit = sys.get_int_max_str_digits()
        assert str(graph_ktheory(DirectedGraph(1, {(0, 0): 10**limit})).k0) == f"Z/{'9' * limit}"
        with pytest.raises(LimitExceeded, match=f"got one of {limit + 1} digits on a 1-vertex"):
            graph_ktheory(DirectedGraph(1, {(0, 0): 10**limit + 1}))

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_cli_is_exit_3(self, capsys, mode):
        assert cli_main(["ktheory", wide_cycle(), *mode]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: K-theory integers are capped at ")
        # Class coordinates of 4 001 digits are under the limit and print.
        assert cli_main(["realize", f"N[-{'9' * PROFILE_DIGITS_MAX}]=1", *mode]) == 0
        assert "1" + "0" * PROFILE_DIGITS_MAX in capsys.readouterr().out


class TestSinkIdealAnalysis:
    def test_toeplitz_shape(self):
        six = sink_ideal_analysis(DirectedGraph(2, {(0, 0): 1, (0, 1): 1}))
        assert six.sink == 1
        assert six.kappa == 0
        assert six.quotient.k0 == Z_GROUP and six.quotient.k1_rank == 1

    def test_negative_chi_shape(self):
        six = sink_ideal_analysis(DirectedGraph(2, {(0, 0): 4, (0, 1): 4}))
        assert six.kappa == -3
        assert six.quotient.k0 == AbGroup(0, (3,))
        assert six.quotient.k1_rank == 0

    def test_requires_exactly_one_sink(self):
        with pytest.raises(ValueError, match="exactly one sink"):
            sink_ideal_analysis(DirectedGraph(3, {(0, 1): 1, (0, 2): 1}))

    def test_requires_saturation(self):
        with pytest.raises(ValueError, match="not saturated"):
            sink_ideal_analysis(DirectedGraph(2, {(0, 1): 1}))

    def test_requires_reachability(self):
        with pytest.raises(ValueError, match="not reachable"):
            sink_ideal_analysis(DirectedGraph(2, {(0, 0): 2}))


class TestConditionK:
    def test_loop_counts(self):
        assert not condition_k(DirectedGraph(1, {(0, 0): 1}))
        assert condition_k(DirectedGraph(1, {(0, 0): 2}))
        assert condition_k(DirectedGraph(2, {(0, 1): 1}))
        assert condition_k(DirectedGraph(1))

    def test_two_cycle(self):
        assert not condition_k(DirectedGraph(2, {(0, 1): 1, (1, 0): 1}))
        assert condition_k(DirectedGraph(2, {(0, 1): 2, (1, 0): 1}))

    def test_loop_plus_cycle(self):
        # A return path may repeat every vertex but its base (Kumjian, Pask,
        # Raeburn and Renault, J. Funct. Anal. 144, 1997; Raeburn, Graph
        # Algebras, CBMS 103, 2005), so vertex 1 bases 1 -> 0 -> 1,
        # 1 -> 0 -> 0 -> 1 and so on, not the 2-cycle alone.
        assert condition_k(DirectedGraph(2, {(0, 0): 1, (0, 1): 1, (1, 0): 1}))
        assert condition_k(DirectedGraph(2, {(0, 0): 2, (0, 1): 1, (1, 0): 2}))

    def test_seeded_digraphs_match_brute_force(self):
        rng = random.Random(43)
        answers = []
        for _ in range(2000):
            dg = random_dgraph(rng)
            answers.append(condition_k(dg))
            assert answers[-1] == reference_condition_k(dg), dg
        assert 0.2 < sum(answers) / len(answers) < 0.8

    @given(dgraphs())
    @settings(max_examples=100, deadline=None)
    def test_any_digraph_matches_brute_force(self, dg):
        assert condition_k(dg) == reference_condition_k(dg)

    def test_long_acyclic_ladder(self):
        # Fibonacci(1000) paths, none of them back to its start.
        assert condition_k(ladder(1000))

    def test_long_reverse_ladder(self):
        # Vertex v reaches only lower ones here, so the components taken by
        # least unseen vertex each search the whole unseen rest.
        back = {(s, t): m for (t, s), m in ladder(1000).edge_mult.items()}
        assert condition_k(DirectedGraph(1000, back))

    def test_long_cycles(self):
        cycle = {(v, (v + 1) % 1000): 1 for v in range(1000)}
        assert not condition_k(DirectedGraph(1000, cycle, frozenset(range(1000))))
        assert condition_k(DirectedGraph(300, {(v, (v + 1) % 300): 2 for v in range(300)}))

    def test_dense_component_answers_fast(self):
        assert condition_k(budget_case(5))
        assert condition_k(budget_case(12))


class TestRealize:
    def test_toeplitz_target(self):
        dg, report = realize(p("t=1"))
        assert dg.edge_mult == {(0, 0): 1, (0, 1): 1}
        assert report.passed and report.target == "T"
        assert not report.condition_k

    def test_infinite_target(self):
        dg, report = realize(p("o=1"))
        assert dg.infinite_emitters == frozenset({0})
        assert report.passed and report.target == "O_inf"
        assert report.condition_k

    def test_several_infinite_factors_are_one(self):
        # O_inf (x) O_inf is O_inf: any o >= 1 alone has o=1's normal form.
        template, _ = realize(p("o=1"))
        for spec in ("o=2", "o=7", "o=inf"):
            dg, report = realize(p(spec))
            assert dg == template
            assert report.passed and report.target == "O_inf"

    def test_negative_chi_targets(self):
        for n in range(1, 7):
            prof = p(f"N[-{n}]=1")
            dg, report = realize(prof)
            assert sink_ideal_analysis(dg).kappa == -n
            assert report.passed

    def test_positive_chi_targets(self):
        for n in range(1, 7):
            prof = p(f"N[{n}]=1")
            dg, report = realize(prof)
            assert sink_ideal_analysis(dg).kappa == n
            assert report.passed

    def test_zero_chi_target(self):
        prof = p("N[0]=1")
        dg, report = realize(prof)
        six = sink_ideal_analysis(dg)
        assert six.kappa == 0
        assert six.quotient.k0 == Z_GROUP and six.quotient.k1_rank == 1
        assert report.passed

    def test_returned_report_is_the_verification(self):
        specs = ["t=1", "o=1", "o=2", "o=inf"] + [f"N[{k}]=1" for k in range(-30, 31)]
        for spec in specs:
            dg, report = realize(p(spec))
            assert report == verify_realization(dg, p(spec))

    @pytest.mark.parametrize("spec, passes", [("N[3]=1", 2), ("o=1", 1)])
    def test_cli_runs_the_ktheory_once_per_graph(self, capsys, monkeypatch, spec, passes):
        # A sink target computes the full graph and its quotient; o=1 only
        # the full graph.  Verifying again for the report would double it.
        calls = []
        real = kgraph.graph_ktheory
        monkeypatch.setattr(kgraph, "graph_ktheory", lambda dg: calls.append(dg) or real(dg))
        assert cli_main(["realize", spec, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verification"]["passed"]
        assert len(calls) == passes

    def test_not_realizable(self):
        for spec in ("N[-2]=2", "t=1;N[1]=1", "t=2", "N[1]=inf"):
            with pytest.raises(NotRealizable):
                realize(p(spec))

    def test_not_implemented(self):
        with pytest.raises(RealizationNotImplemented):
            realize(p("N[-1]=5"))
        with pytest.raises(RealizationNotImplemented):
            realize(p(""))
        with pytest.raises(RealizationNotImplemented):
            realize(p("o=2;N[1]=1"))


class TestVerifyRealization:
    def test_wrong_target_fails_kappa(self):
        dg, _ = realize(p("t=1"))
        report = verify_realization(dg, p("N[-1]=1"))
        assert not report.passed
        failed = {c.name for c in report.checks if not c.ok}
        assert "kappa_matches_chi" in failed

    def test_bad_sink_layout_fails_cleanly(self):
        dg = DirectedGraph(3, {(0, 1): 1, (0, 2): 1})
        report = verify_realization(dg, p("N[-1]=1"))
        assert not report.passed
        assert any(c.name == "sink_ideal_analysis" for c in report.checks)

    def test_multi_factor_profile_rejected(self):
        with pytest.raises(ValueError):
            verify_realization(realize(p("t=1"))[0], p("t=2"))

    def test_targets_come_from_component_ktheory(self, monkeypatch):
        prof = p("N[-2]=1")
        dg, _ = realize(prof)
        real = kgraph.component_ktheory
        wrong = lambda c: dataclasses.replace(real(c), k0_quotient=AbGroup(0, (7,)))
        monkeypatch.setattr(kgraph, "component_ktheory", wrong)
        report = verify_realization(dg, prof)
        failed = [c for c in report.checks if not c.ok]
        assert [c.name for c in failed] == ["quotient_k0"]
        assert failed[0].detail == "quotient K0 = Z/2, want Z/7"

    def test_strong_connectivity_is_reported(self):
        _, minus = realize(p("N[-2]=1"))
        _, plus = realize(p("N[2]=1"))
        assert minus.strongly_connected_regular
        assert not plus.strongly_connected_regular

    @pytest.mark.parametrize("source, target", [("t=1", "N[0]=1"), ("N[0]=1", "t=1")])
    def test_quotient_condition_k_tells_t_from_e_1_0(self, source, target):
        # T and E_1^0 agree on every six-term row, yet are not isomorphic:
        # T's quotient graph is one loop, E_1^0's satisfies condition (K).
        dg, _ = realize(p(source))
        failed = [c for c in verify_realization(dg, p(target)).checks if not c.ok]
        assert [c.name for c in failed] == ["quotient_condition_k"]
        want = "holds" if target == "N[0]=1" else "fails"
        assert failed[0].detail.endswith(f", want {want}")

    def test_every_extension_target_passes_the_quotient_row(self):
        for spec in ["t=1"] + [f"N[{k}]=1" for k in range(-30, 31)]:
            (row,) = [c for c in realize(p(spec))[1].checks if c.name == "quotient_condition_k"]
            assert row.ok
        assert all(c.name != "quotient_condition_k" for c in realize(p("o=1"))[1].checks)


def block_dgraph(rng: random.Random, n: int, sinks: int, emitters: int) -> str:
    """dgraph text shaped like the benchmark's ``ktheory`` inputs: strongly
    connected blocks of 8 vertices, each vertex on a cycle through its
    block with 0-2 more edges into it and sometimes one to a sink, then
    relabelled by a random permutation."""
    mult: dict[tuple[int, int], int] = {}
    core = n - sinks
    for start in range(0, core, 8):
        block = range(start, min(start + 8, core))
        for i, v in enumerate(block):
            targets = [block[(i + 1) % len(block)]]
            targets += [rng.choice(block) for _ in range(rng.randint(0, 2))]
            for t in targets:
                mult[v, t] = mult.get((v, t), 0) + rng.randint(1, 2)
            if sinks and rng.random() < 0.3:
                key = (v, rng.randrange(core, n))
                mult[key] = mult.get(key, 0) + 1
    perm = list(range(n))
    rng.shuffle(perm)
    lines = [f"dvertices: {n}"]
    lines += [f"{perm[v]} *" for v in sorted(rng.sample(range(core), emitters))]
    lines += [f"{perm[s]} {perm[t]} {m}" for (s, t), m in sorted(mult.items())]
    return "\n".join(lines) + "\n"


class TestOutputBytes:
    """Vertex and unit classes are coordinates in the basis the Smith
    normal form's U picks, so these digests change with any change to the
    sequence of row and column operations, not only with the groups."""

    @staticmethod
    def digest(capsys, argvs) -> str:
        h = hashlib.sha256()
        for argv in argvs:
            assert cli_main(argv) == 0
            h.update(capsys.readouterr().out.encode())
        return h.hexdigest()[:16]

    def test_ktheory_json_on_block_digraphs(self, capsys):
        rng = random.Random(2024)
        sizes = [(20, 1, 1), (40, 0, 2), (60, 2, 1), (80, 1, 0), (100, 0, 3), (120, 2, 2)]
        argvs = [["ktheory", block_dgraph(rng, *s), "--json"] for s in sizes * 2]
        assert self.digest(capsys, argvs) == "f3a4178220df0b8e"

    def test_realize_json_on_single_factors(self, capsys):
        specs = ["t=1", "o=1"] + [f"N[{k}]=1" for k in range(-30, 31)]
        argvs = [["realize", spec, "--json"] for spec in specs]
        assert self.digest(capsys, argvs) == "f22b1434383879b0"
