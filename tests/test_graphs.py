"""Graph model, text formats, canonical labeling, and enumeration."""

from __future__ import annotations

import dataclasses
import itertools
import random
import warnings

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from raagcs import (
    DuplicateEdgeWarning,
    LimitExceeded,
    ParseError,
    UndirectedGraph,
    canonical_form,
    complement,
    complement_components,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    graph_join,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    path_graph,
    to_graph6,
)
from raagcs.graphs import EDGE_LIST_MAX, _lower
from conftest import (
    graphs,
    random_graph,
    random_join,
    reference_canonical_graph6,
    reference_components,
    reference_graph6,
    reference_parse_graph6,
    sparse_graph,
)


def _k12_without(*bits: tuple[int, int]) -> tuple[int, ...]:
    """The rows of K_12 with bit v of row u cleared for each (u, v)."""
    rows = list(complete_graph(12).adjacency)
    for u, v in bits:
        rows[u] &= ~(1 << v)
    return tuple(rows)


class TestUndirectedGraph:
    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_edges(-1, frozenset())

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_edges(2, frozenset({(0, 2)}))

    @pytest.mark.parametrize(
        "n, rows, message",
        [
            (3, (0b010, 0b000, 0b000), "not symmetric"),  # 0 sees 1, not 1 sees 0
            (3, (0b000, 0b000, 0b010), "not symmetric"),  # 2 sees 1, not 1 sees 2
            (3, (0b010, 0b000, 0b010), "not symmetric"),  # both, counts balance
            (2, (0b01, 0b00), "row 0 names itself"),  # self bit
            (2, (0b100, 0b000), "row 0 names itself or a vertex >= 2"),  # bit at n
            (2, (-1, 0), "row 0 names itself or a vertex >= 2"),  # bits above n
            (3, (0b010, 0b001), "need 3 adjacency rows, got 2"),
            (1, (0, 0), "need 1 adjacency rows, got 2"),
            # K_12 less one bit or two: dense enough for the row transpose.
            (12, _k12_without((5, 0)), "not symmetric"),  # 0 sees 5, not 5 sees 0
            (12, _k12_without((0, 5)), "not symmetric"),  # 5 sees 0, not 0 sees 5
            (12, _k12_without((0, 5), (7, 3)), "not symmetric"),  # one each, counts balance
        ],
    )
    def test_rejects_broken_mask_rows(self, n, rows, message):
        with pytest.raises(ValueError, match=message):
            UndirectedGraph(n, rows)

    @pytest.mark.parametrize("p", [0.03, 0.3, 0.7, 1.0])
    def test_rejects_one_unmirrored_bit_at_any_density(self, p):
        rng = random.Random(int(100 * p))
        for n in (2, 12, 40, 90):
            rows = list(random_graph(rng, n, p).adjacency)
            u, v = rng.sample(range(n), 2)
            rows[u] ^= 1 << v
            with pytest.raises(ValueError, match="not symmetric"):
                UndirectedGraph(n, tuple(rows))

    def test_rejects_an_edge_set_in_place_of_masks(self):
        with pytest.raises(TypeError, match="from_edges"):
            UndirectedGraph(2, frozenset({(0, 1)}))
        with pytest.raises(TypeError):
            UndirectedGraph(2, ((0, 1), (1, 0)))

    def test_from_edges_rejects_negative_vertex(self):
        with pytest.raises(ValueError, match="bad edge"):
            UndirectedGraph.from_edges(3, [(0, -1)])

    @given(graphs())
    def test_from_edges_of_edges_is_identity(self, g):
        assert UndirectedGraph.from_edges(g.n, g.edges) == g
        assert g.edge_count == len(g.edges)
        assert all(g.has_edge(u, v) and g.has_edge(v, u) for u, v in g.edges)

    def test_fields_are_n_and_adjacency(self):
        assert [f.name for f in dataclasses.fields(UndirectedGraph)] == ["n", "adjacency"]
        with pytest.raises(TypeError):
            UndirectedGraph.from_edges(2, frozenset(), labels=("a", "b"))

    def test_from_edges_normalizes_order(self):
        g = UndirectedGraph.from_edges(3, [(2, 0), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            UndirectedGraph.from_edges(2, [(1, 1)])

    def test_adjacency_and_degrees(self):
        g = path_graph(4)
        assert g.adjacency == (0b0010, 0b0101, 0b1010, 0b0100)
        assert g.degree_sequence() == (1, 1, 2, 2)
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)

    def test_constructors(self):
        assert complete_graph(5).edge_count == 10
        assert cycle_graph(5).edge_count == 5
        assert path_graph(1).edge_count == 0
        assert complete_bipartite(2, 3).edge_count == 6
        assert empty_graph(0).n == 0
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_union_and_join(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        assert g.n == 4 and g.edge_count == 2
        j = graph_join(empty_graph(2), empty_graph(3))
        assert j.edge_count == 6
        assert j.degree_sequence() == (2, 2, 2, 3, 3)


class TestEdgeListParsing:
    def test_basic(self):
        g = parse_edge_list("a b\nb c\n")
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# leading comment\n\na b  # trailing\n")
        assert g.n == 2 and g.edge_count == 1

    def test_vertices_header_adds_isolated_vertices(self):
        g = parse_edge_list("vertices: 5\na b\n")
        assert g.n == 5

    def test_header_only(self):
        g = parse_edge_list("vertices: 3")
        assert g.n == 3 and g.edge_count == 0

    def test_empty_input_is_empty_graph(self):
        g = parse_edge_list("")
        assert g.n == 0

    def test_duplicate_edge_warns_once_each(self):
        with pytest.warns(DuplicateEdgeWarning):
            g = parse_edge_list("a b\nb a\n")
        assert g.edge_count == 1

    def test_undercounting_header_warns(self):
        with pytest.warns(UserWarning, match="below"):
            g = parse_edge_list("vertices: 1\na b\n")
        assert g.n == 2

    def test_header_after_body_is_error(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("a b\nvertices: 3\n")

    def test_repeated_header_is_error(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_edge_list("vertices: 3\nvertices: 4\n")

    def test_bad_vertex_count(self):
        with pytest.raises(ParseError, match="bad vertex count"):
            parse_edge_list("vertices: many\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("a b c\n")

    def test_self_loop_is_error(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_edge_list("a a\n")

    def test_non_ascii_digit_count_is_parse_error(self):
        with pytest.raises(ParseError, match="bad vertex count"):
            parse_edge_list("vertices: \u00b2\n")

    def test_declared_count_at_the_cap(self):
        g = parse_edge_list(f"vertices: {EDGE_LIST_MAX}\n")
        assert g.n == EDGE_LIST_MAX

    @pytest.mark.parametrize("count", [str(EDGE_LIST_MAX + 1), str(10**12), "9" * 5000])
    def test_declared_count_over_the_cap(self, count):
        with pytest.raises(LimitExceeded, match=f"capped at {EDGE_LIST_MAX} vertices") as info:
            parse_edge_list(f"vertices: {count}\na b\n")
        assert count[:20] in str(info.value)

    def test_matches_from_edges_on_seeded_lists(self):
        # Repeated and reversed lines give the graph of the distinct pairs,
        # with one duplicate warning per repeat.
        rng = random.Random(22)
        for _ in range(100):
            n = rng.randint(2, 30)
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))]
            lines = pairs + [(v, u) for u, v in rng.sample(pairs, len(pairs) // 3)]
            rng.shuffle(lines)
            text = f"vertices: {n}\n" + "".join(f"{u} {v}\n" for u, v in lines)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                g = parse_edge_list(text)
            index: dict[int, int] = {}
            for u, v in lines:
                index.setdefault(u, len(index))
                index.setdefault(v, len(index))
            normalised = {
                (min(index[u], index[v]), max(index[u], index[v])) for u, v in lines
            }
            assert g == UndirectedGraph.from_edges(n, sorted(normalised))
            assert len(caught) == len(lines) - len(normalised)
            assert all(issubclass(w.category, DuplicateEdgeWarning) for w in caught)

    def test_labeled_vertices_over_the_cap(self):
        path = "".join(f"v{i} v{i + 1}\n" for i in range(EDGE_LIST_MAX - 1))
        assert parse_edge_list(path).n == EDGE_LIST_MAX
        with pytest.raises(LimitExceeded, match=f"got {EDGE_LIST_MAX + 1} labels"):
            parse_edge_list(path + f"v0 v{EDGE_LIST_MAX}\n")


class TestGraph6:
    def test_known_encodings(self):
        assert to_graph6(empty_graph(5)) == "D??"
        assert to_graph6(UndirectedGraph.from_edges(2, frozenset({(0, 1)}))) == "A_"
        assert to_graph6(empty_graph(2)) == "A?"
        assert to_graph6(path_graph(3)) == "Bg"
        assert to_graph6(complete_graph(3)) == "Bw"
        assert to_graph6(empty_graph(0)) == "?"

    def test_parse_known_encodings(self):
        assert parse_graph6("D??") == empty_graph(5)
        assert parse_graph6("A_").edges == frozenset({(0, 1)})
        assert parse_graph6("Bw") == complete_graph(3)

    def test_prefix_and_bytes_input(self):
        assert parse_graph6(">>graph6<<D??") == empty_graph(5)
        assert parse_graph6(b"A_") == parse_graph6("A_")
        assert parse_graph6(" A_ \n") == parse_graph6("A_")

    def test_errors(self):
        with pytest.raises(ParseError, match="empty"):
            parse_graph6("")
        with pytest.raises(ParseError, match="needs 3 bytes after '~'"):
            parse_graph6("~?")
        with pytest.raises(ParseError, match="needs"):
            parse_graph6("A")
        with pytest.raises(ParseError, match="invalid graph6 byte"):
            parse_graph6("A" + chr(30))
        with pytest.raises(ParseError, match="invalid graph6 header byte 62"):
            parse_graph6(">")
        with pytest.raises(ParseError, match="invalid graph6 byte 30"):
            parse_graph6("~??" + chr(30))
        # Text that is not ASCII: é is the UTF-8 bytes 195 169, and \udcff
        # is argv's byte 255 that is not UTF-8.
        with pytest.raises(ParseError, match="invalid graph6 byte 195"):
            parse_graph6("Dé")
        with pytest.raises(ParseError, match="invalid graph6 header byte 195"):
            parse_graph6("é")
        with pytest.raises(ParseError, match="needs 2 bytes, got 1"):
            parse_graph6("D\udcff")
        with pytest.raises(ParseError, match="invalid graph6 byte 255"):
            parse_graph6("~\udcff??")
        # A lone surrogate outside U+DC80..U+DCFF stands for no byte.
        with pytest.raises(ParseError, match="invalid graph6 character"):
            parse_graph6("D\ud800")

    def test_large_header(self):
        # 63 in 18 bits is the sextets 0, 0, 63.
        text = to_graph6(empty_graph(63))
        assert text == "~??~" + "?" * ((63 * 62 // 2 + 5) // 6)
        assert parse_graph6(text) == empty_graph(63)
        # The long header may also carry a count below 63.
        assert parse_graph6("~??D??") == empty_graph(5)

    @pytest.mark.parametrize(
        "record, n", [("~B?x", 12345), ("~B?x" + chr(1) * 9, 12345), ("~~?ZZZZZ", 460175067)]
    )
    def test_count_over_the_cap_is_refused_before_the_body(self, record, n):
        # McKay's examples N(12345) and N(460175067).  No body follows the
        # header (or a malformed one), so reading it first would be a ParseError.
        with pytest.raises(LimitExceeded, match=f"capped at {EDGE_LIST_MAX} vertices, got n = {n}$"):
            parse_graph6(record)

    def test_matches_a_bitwise_reference_both_ways(self):
        # Both headers, from the empty graph to the complete one.
        rng = random.Random(61)
        sizes = [62, 63, 64, 0, 1, 2, 70, 130] + [rng.randint(0, 130) for _ in range(40)]
        for n, p in itertools.product(sizes, (0.0, 0.05, 0.3, 0.5, 0.9, 1.0)):
            g = random_graph(rng, n, p)
            text = reference_graph6(n, set(g.edges))
            assert to_graph6(g) == text
            assert parse_graph6(text) == g
            assert reference_parse_graph6(text) == (n, set(g.edges))

    def test_sparse_2000_vertex_round_trip(self):
        g = sparse_graph(random.Random(62), 2000)
        text = to_graph6(g)
        assert text.startswith("~?^O") and len(text) == 4 + (2000 * 1999 // 2 + 5) // 6
        assert parse_graph6(text) == g

    @given(graphs())
    def test_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g


class TestStructure:
    def test_complement_is_involution(self):
        g = random_graph(random.Random(7), 8)
        assert complement(complement(g)) == g
        assert complement(complete_graph(4)) == empty_graph(4)

    def test_complement_keeps_labels(self):
        # Labels number the vertices in order of first appearance (a, b, c
        # are 0, 1, 2), and the complement keeps that numbering.
        g = parse_edge_list("a b\nb c\n")
        assert complement(g).edges == frozenset({(0, 2)})
        assert complement(parse_edge_list("a b\n")) == parse_graph6("A?")

    def test_connected_components(self):
        g = disjoint_union(complete_graph(3), path_graph(2))
        assert connected_components(g) == ((0, 1, 2), (3, 4))
        assert connected_components(empty_graph(3)) == ((0,), (1,), (2,))
        assert connected_components(empty_graph(0)) == ()

    def test_induced_subgraph_renumbers(self):
        g = cycle_graph(5)
        sub = induced_subgraph(g, [1, 2, 4])
        assert sub.n == 3
        assert sub.edges == frozenset({(0, 1)})

    def test_induced_subgraph_keeps_labels(self):
        # The chosen vertices keep their label order: b, c become 0, 1.
        g = parse_edge_list("a b\nb c\n")
        assert induced_subgraph(g, [2, 1]) == parse_graph6("A_")
        assert induced_subgraph(g, [0, 2]) == empty_graph(2)

    def test_induced_subgraph_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(2), [0, 5])
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(2), [-1])

    def test_complement_components(self):
        g = graph_join(path_graph(3), empty_graph(2))
        assert complement_components(g) == ((0, 2), (1,), (3, 4))
        assert complement_components(complete_graph(3)) == ((0,), (1,), (2,))
        assert complement_components(empty_graph(3)) == ((0, 1, 2),)
        assert complement_components(empty_graph(0)) == ()

    def test_component_masks_match_an_edge_search(self):
        rng = random.Random(20)
        for _ in range(150):
            g = random_join(rng, rng.randint(0, 40))
            missing = set(complement(g).edges)
            assert connected_components(g) == reference_components(g.n, set(g.edges))
            assert complement_components(g) == reference_components(g.n, missing)
            assert complement_components(g) == connected_components(complement(g))

    def test_induced_subgraph_matches_edge_filter(self):
        rng = random.Random(21)
        for _ in range(150):
            n = rng.randint(0, 40)
            g = random_graph(rng, n, rng.random())
            vs = rng.sample(range(n), rng.randint(0, n))
            pos = {v: i for i, v in enumerate(sorted(vs))}
            edges = {(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos}
            assert induced_subgraph(g, vs + vs[:2]) == UndirectedGraph.from_edges(len(vs), frozenset(edges))


def permute(g: UndirectedGraph, perm: list[int]) -> UndirectedGraph:
    return UndirectedGraph.from_edges(
        g.n, [(perm[u], perm[v]) for u, v in g.edges]
    )


def identity_columns(g: UndirectedGraph) -> list[int]:
    """Column k of the identity order: vertices 0..k-1 against k, 0 highest."""
    return [sum(g.has_edge(i, k) << (k - 1 - i) for i in range(k)) for k in range(g.n)]


def assert_matches_reference(g: UndirectedGraph) -> None:
    """canonical_form is the all-orders minimum, and the minimality test that
    enumeration keeps extensions by holds exactly on the graphs that are
    their own minimum."""
    reference = reference_canonical_graph6(g)
    assert canonical_form(g).decode("ascii") == reference
    least = next(_lower(g.adjacency, g.n, identity_columns(g)), None) is None
    assert least == (to_graph6(g) == reference)


class TestCanonicalForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_brute_force(self, n):
        # Every labeled graph on n vertices, against the minimum over all n!
        # relabelings; the distinct minima are the isomorphism classes.
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        forms = set()
        for bits in range(1 << len(pairs)):
            g = UndirectedGraph.from_edges(
                n, [p for i, p in enumerate(pairs) if bits >> i & 1]
            )
            assert_matches_reference(g)
            forms.add(canonical_form(g))
        assert len(forms) == [1, 1, 2, 4, 11, 34][n]

    @given(graphs(min_n=6, max_n=7))
    @settings(max_examples=25, deadline=None)
    @seed(67)
    def test_matches_brute_force_on_six_and_seven_vertices(self, g):
        assert_matches_reference(g)

    @given(graphs(max_n=7), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(permute(g, perm)) == canonical_form(g)

    def test_distinguishes_same_degree_sequence(self):
        c6 = cycle_graph(6)
        two_triangles = disjoint_union(complete_graph(3), complete_graph(3))
        assert c6.degree_sequence() == two_triangles.degree_sequence()
        assert canonical_form(c6) != canonical_form(two_triangles)

    def test_cap(self):
        with pytest.raises(LimitExceeded):
            canonical_form(empty_graph(11))


class TestEnumeration:
    def test_class_counts(self):
        # OEIS A000088.
        counts = [len(enumerate_graphs(n)) for n in range(8)]
        assert counts == [1, 1, 2, 4, 11, 34, 156, 1044]

    def test_representatives_are_canonical_and_sorted(self):
        gs = enumerate_graphs(5)
        keys = [to_graph6(g) for g in gs]
        assert keys == sorted(keys)
        assert all(
            canonical_form(g).decode("ascii") == key for g, key in zip(gs, keys)
        )

    def test_cap(self, monkeypatch):
        with pytest.raises(LimitExceeded, match="capped at n <= 8, got 9"):
            enumerate_graphs(9)
        monkeypatch.setattr("raagcs.graphs.ENUMERATE_MAX", 3)
        assert len(enumerate_graphs(3)) == 4
        with pytest.raises(LimitExceeded, match="capped at n <= 3, got 4"):
            enumerate_graphs(4)
        with pytest.raises(ValueError):
            enumerate_graphs(-1)
