"""Graph model, text formats, canonical labeling, and enumeration."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import sys
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
from raagcs import graphs as graphs_module
from raagcs.graphs import EDGE_LIST_MAX, PROFILE_DIGITS_MAX, _lower, parse_decimal
from conftest import (
    graphs,
    random_graph,
    random_join,
    reference_canonical_graph6,
    reference_components,
    reference_graph6,
    reference_lower,
    reference_parse_edge_list,
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
        assert all(g.adjacency[u] >> v & 1 and g.adjacency[v] >> u & 1 for u, v in g.edges)

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
        assert sorted(row.bit_count() for row in j.adjacency) == [2, 2, 2, 3, 3]


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
        if len(count) > PROFILE_DIGITS_MAX:  # too long to read: malformed, exit 2
            with pytest.raises(ParseError, match=f"^line 1: vertex count too long: {len(count)} digits"):
                parse_edge_list(f"vertices: {count}\na b\n")
            return
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


# Every line boundary of str.splitlines, and blanks that str.split breaks at.
_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_BLANKS = (" ", "\t", "\u3000", "\x1f")


def _edge_list_outcome(text: str) -> list[tuple]:
    """What ``parse_edge_list`` and the one-line-at-a-time reference give on
    a text: the graph or the exception's type, message and line, then the
    warnings' categories and messages in order."""
    outcomes = []
    for parse in (parse_edge_list, reference_parse_edge_list):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = parse(text)
            except (ParseError, LimitExceeded) as exc:
                result = (type(exc), str(exc), getattr(exc, "line", None))
        outcomes.append((result, [(w.category, str(w.message)) for w in caught]))
    return outcomes


def _edge_list_line(rng: random.Random, labels: list[str]) -> str:
    """One line of an edge list, well formed or not."""
    def blank() -> str:
        return rng.choice(_BLANKS) * rng.randint(1, 2)

    a, b, c = rng.choice(labels), rng.choice(labels), rng.choice(labels)
    if rng.random() < 0.85:
        return rng.choice(("", blank())) + a + blank() + b + rng.choice(("", blank(), " # note", "#"))
    return rng.choice((
        f"{a}{blank()}{b}{blank()}{c}",  # three labels
        a,  # one label
        f"{a}{blank()}{a}",  # self-loop
        "", blank(), "# comment only", f"{blank()}#",
        f"{a}#{b} {c}",  # a comment inside a would-be label leaves one label
        f"vertices: {rng.randint(0, 40)}",
        "vertices:x y",
        f"vertices:{rng.randint(0, 5)}#note",
    ))


def _edge_list_text(rng: random.Random, lines: list[str]) -> str:
    """The lines, each ended by a random line break, the last one maybe not."""
    text = "".join(line + rng.choice(_BREAKS) for line in lines)
    return text[:-1] if lines and rng.random() < 0.5 and not text.endswith("\r\n") else text


class TestEdgeListAgainstReference:
    """``parse_edge_list`` reads chunks of lines at a time; the reference
    reads one line at a time.  They must agree on the graph, on the
    exception and on every warning in order."""

    @pytest.mark.parametrize("chunk", [1, 3, graphs_module.EDGE_LIST_CHUNK])
    def test_short_texts(self, monkeypatch, chunk):
        monkeypatch.setattr(graphs_module, "EDGE_LIST_CHUNK", chunk)
        rng = random.Random(27 + chunk)
        for _ in range(1500):
            labels = [str(i) for i in range(rng.randint(2, 12))] + ["a", "vertices:", "x:y"]
            lines = [_edge_list_line(rng, labels) for _ in range(rng.randint(0, 20))]
            if rng.random() < 0.3:
                lines.insert(0, f"vertices: {rng.randint(0, 20)}")
            text = _edge_list_text(rng, lines)
            new, ref = _edge_list_outcome(text)
            assert new == ref, text

    def test_texts_longer_than_a_chunk(self):
        # Errors and duplicates are placed by significant line, just before,
        # at and after the first two chunk boundaries; blank and comment
        # lines go in between, which moves no significant line.
        chunk = graphs_module.EDGE_LIST_CHUNK
        rng = random.Random(2048)
        kinds = ("a b c", "lone", "q q", "vertices: 3", "duplicate", "duplicate")
        for case in range(24):
            pool = [f"v{i}" for i in range(rng.choice((60, 400, 4000)))]
            lines = [" ".join(rng.sample(pool, 2)) for _ in range(rng.randint(2 * chunk + 8, 3 * chunk))]
            if case % 2:
                lines.insert(0, f"vertices: {rng.randint(0, 5000)}")
            boundary = chunk * rng.choice((1, 2))
            for offset in sorted(rng.sample(range(-2, 3), rng.randint(1, 2)), reverse=True):
                kind = rng.choice(kinds)
                lines.insert(boundary + offset, lines[rng.randrange(chunk)] if kind == "duplicate" else kind)
            for _ in range(rng.randint(0, 3)):
                lines.insert(rng.randrange(len(lines)), rng.choice(("", "# c", "\t")))
            new, ref = _edge_list_outcome(_edge_list_text(rng, lines))
            assert new == ref

    @pytest.mark.parametrize("chunk", [1000, 1667, graphs_module.EDGE_LIST_CHUNK])
    @pytest.mark.parametrize(
        "before, cap_line, after",
        [
            (None, "v0 w", None),
            ("v1 v1", "v0 w", None),  # an error on the line before the cap's
            ("a b c", "v0 w", None),
            (None, "v0 w", "v2 v2"),  # an error on the line after it
            ("v3 v2", "v0 w", None),  # a duplicate before it warns first
            (None, "w w", None),  # a self-loop on a new label outranks the cap
            (None, "w v0 v1", None),
            (None, "w x", None),  # the 10 001st label is the line's first
        ],
    )
    def test_label_cap(self, monkeypatch, chunk, before, cap_line, after):
        # 10 000 labels on 5 000 lines, so the cap's line is line 5 001, or
        # 5 002 after a line before it.  Chunks of 1 000 lines put a chunk
        # boundary just before line 5 001, chunks of 1 667 just before 5 002.
        monkeypatch.setattr(graphs_module, "EDGE_LIST_CHUNK", chunk)
        lines = [f"v{2 * i} v{2 * i + 1}" for i in range(EDGE_LIST_MAX // 2)]
        lines += [line for line in (before, cap_line, after) if line is not None]
        if before is not None:
            lines.append("v4 v5")  # keeps the text past the lines that matter
        new, ref = _edge_list_outcome("\n".join(lines))
        assert new == ref
        assert new[0][0] in (LimitExceeded, ParseError)


@pytest.mark.parametrize("chunk", [1, 2_048])
class TestEdgeListHeader:
    """A ``vertices:`` header is read only as the first significant line; a
    later one is refused at its own line, whatever the chunk size."""

    def test_header_alone_gives_isolated_vertices(self, monkeypatch, chunk):
        monkeypatch.setattr(graphs_module, "EDGE_LIST_CHUNK", chunk)
        g = parse_edge_list("vertices: 2")
        assert (g.n, g.edge_count) == (2, 0)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vertices: 3\n# c\nvertices: 4", "line 3: repeated vertices: header"),
            ("vertices: 2\na b\nvertices: 3", "line 3: vertices: header must precede all edges"),
        ],
    )
    def test_later_header_is_refused(self, monkeypatch, chunk, text, message):
        monkeypatch.setattr(graphs_module, "EDGE_LIST_CHUNK", chunk)
        with pytest.raises(ParseError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message and exc.value.line == 3
        new, ref = _edge_list_outcome(text)
        assert new == ref


class TestParseDecimal:
    def test_digits_with_no_sign(self):
        # The sign of an N[k] key belongs to the profile grammar (test_artin
        # pins N[-7]), so a signed field is refused.
        assert parse_decimal("0", "count") == 0
        assert parse_decimal("007", "count") == 7
        assert parse_decimal("0" * 5000 + "12", "count") == 12
        with pytest.raises(ParseError, match="^bad count '-007'$"):
            parse_decimal("-007", "count")

    @pytest.mark.parametrize("text", ["", "-", "+3", " 3", "3 ", "1_0", "--3", "\u0663", "\uff13", "\u00b2"])
    def test_anything_else_is_refused(self, text):
        with pytest.raises(ParseError, match=f"^line 4: bad count {re.escape(repr(text))}$"):
            parse_decimal(text, "count", 4)

    def test_digit_cap(self):
        assert parse_decimal("9" * PROFILE_DIGITS_MAX, "count") == 10**PROFILE_DIGITS_MAX - 1
        with pytest.raises(ParseError, match=f"^count too long: {PROFILE_DIGITS_MAX + 1} digits"):
            parse_decimal("9" * (PROFILE_DIGITS_MAX + 1), "count")
        with pytest.raises(ParseError, match="^bad count '-9"):
            parse_decimal("-" + "9" * (PROFILE_DIGITS_MAX + 1), "count")

    def test_digit_cap_under_a_lowered_int_string_limit(self, int_limit_640):
        # 300 digits below the limit, so every 1 + |k| and sum of counts prints.
        assert parse_decimal("9" * 340, "count") == 10**340 - 1
        with pytest.raises(ParseError, match="^count too long: 341 digits, over 340$"):
            parse_decimal("9" * 341, "count")
        with pytest.raises(ParseError, match="^line 2: multiplicity too long: 1000 digits, over 340$"):
            parse_decimal("1" * 1000, "multiplicity", 2)

    def test_digit_cap_without_an_int_string_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit
        assert parse_decimal("9" * PROFILE_DIGITS_MAX, "count") == 10**PROFILE_DIGITS_MAX - 1
        with pytest.raises(ParseError, match=f"over {PROFILE_DIGITS_MAX}$"):
            parse_decimal("9" * (PROFILE_DIGITS_MAX + 1), "count")


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
    return [sum((g.adjacency[i] >> k & 1) << (k - 1 - i) for i in range(k)) for k in range(g.n)]


def column_floor(head: list[int]) -> int:
    """The least new last column that a parent with identity columns ``head``
    can take: moving the new vertex to position j makes column j the new
    column shifted right by len(head) - j."""
    return max((h << (len(head) - j) for j, h in enumerate(head)), default=0)


def extend(parent: UndirectedGraph, c: int) -> UndirectedGraph:
    """``parent`` with a new last vertex whose identity-order column is c."""
    k = parent.n + 1
    new = [(i, k - 1) for i in range(k - 1) if c >> (k - 2 - i) & 1]
    return UndirectedGraph.from_edges(k, list(parent.edges) + new)


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
        degrees = [sorted(row.bit_count() for row in h.adjacency) for h in (c6, two_triangles)]
        assert degrees[0] == degrees[1]
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

    @pytest.mark.parametrize("k", range(1, 8))
    def test_column_floor_is_sound(self, k):
        # Every column below a canonical parent's floor is beaten by some
        # vertex order, and scanning every column from 0 keeps exactly the
        # classes enumerate_graphs keeps, in the same order: so none of
        # them lies below its parent's floor.
        kept = []
        for parent in enumerate_graphs(k - 1):
            head = identity_columns(parent)
            floor = column_floor(head)
            for c in range(1 << (k - 1)):
                g = extend(parent, c)
                beaten = next(_lower(g.adjacency, k, head + [c]), None) is not None
                assert beaten or c >= floor
                if not beaten:
                    kept.append(g)
        assert kept == enumerate_graphs(k)

    def test_lower_searches(self, monkeypatch):
        # A counter, not a clock: the column floor skips the searches that
        # would reject a column below it (219 / 1 307 / 11 291 without it).
        calls: list[int] = []

        def counted(adj, n, bound):
            calls.append(n)
            return _lower(adj, n, bound)

        monkeypatch.setattr("raagcs.graphs._lower", counted)
        searches = []
        for n in (5, 6, 7):
            calls.clear()
            enumerate_graphs(n)
            searches.append(len(calls))
        assert searches == [103, 479, 3161]

    def test_cap(self, monkeypatch):
        with pytest.raises(LimitExceeded, match="capped at n <= 8, got 9"):
            enumerate_graphs(9)
        monkeypatch.setattr("raagcs.graphs.ENUMERATE_MAX", 3)
        assert len(enumerate_graphs(3)) == 4
        with pytest.raises(LimitExceeded, match="capped at n <= 3, got 4"):
            enumerate_graphs(4)
        with pytest.raises(ValueError):
            enumerate_graphs(-1)


def run_search(search, adj: tuple[int, ...], n: int, bound: list[int]) -> tuple[list[int], int]:
    """The positions a column search yields, run out, and its node count: the
    ``rec`` frames it opens, one per vertex order prefix it expands."""
    frames = set()

    def trace(frame, event, arg):
        if frame.f_code.co_name == "rec":
            frames.add(frame)

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        return list(search(adj, n, bound)), len(frames)
    finally:
        sys.settrace(outer)


def assert_lower_matches_reference(adj: tuple[int, ...], n: int, bound: list[int]) -> None:
    """``_lower`` and ``reference_lower`` yield the same positions, expand
    the same number of nodes and leave the same columns, run out from copies
    of ``bound``."""
    ours, theirs = list(bound), list(bound)
    assert run_search(_lower, adj, n, ours) == run_search(reference_lower, adj, n, theirs)
    assert ours == theirs


class TestLowerAgainstReference:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_every_extension_enumeration_tries(self, k):
        # From each canonical parent's column floor up, as enumerate_graphs
        # tries them, run out instead of stopped at the first yield.
        for parent in enumerate_graphs(k - 1):
            head = identity_columns(parent)
            for c in range(column_floor(head), 1 << (k - 1)):
                g = extend(parent, c)
                assert_lower_matches_reference(g.adjacency, k, head + [c])

    @pytest.mark.parametrize("seed_", range(4))
    def test_random_graphs_from_above(self, seed_):
        # canonical_form's route: every column starts above all columns.
        rng = random.Random(seed_)
        for _ in range(60):
            n = rng.randint(0, 10)
            g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
            assert_lower_matches_reference(g.adjacency, n, [1 << n] * n)

    @pytest.mark.parametrize("seed_", range(4))
    def test_random_graphs_under_another_graphs_columns(self, seed_):
        rng = random.Random(100 + seed_)
        for _ in range(100):
            n = rng.randint(1, 9)
            g, h = (random_graph(rng, n, rng.choice((0.2, 0.5, 0.8))) for _ in range(2))
            assert_lower_matches_reference(g.adjacency, n, identity_columns(h))
