"""Shared helpers: seeded random graphs, matrices, and profiles."""

from __future__ import annotations

import itertools
import json
import random
import sys
import warnings
from typing import Iterator, Sequence

import pytest
from hypothesis import strategies as st

from raagcs import (
    OMEGA,
    DuplicateEdgeWarning,
    InvariantProfile,
    LimitExceeded,
    ParseError,
    UndirectedGraph,
    enumerate_graphs,
    invariant_profile,
)
from raagcs.cli import (
    SEMIPROJECTIVITY_VERDICTS,
    _algebra_kind_json,
    _verdict_json,
    golden_mismatches,
    load_golden,
)
from raagcs.graphs import EDGE_LIST_MAX, is_graph6_token, parse_count_header, to_graph6
from raagcs.kgraph import DirectedGraph


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> UndirectedGraph:
    edges = frozenset(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    )
    return UndirectedGraph.from_edges(n, edges)


def sparse_graph(rng: random.Random, n: int, degree: int = 3) -> UndirectedGraph:
    """A random graph on n vertices with n * degree / 2 edges."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < n * degree // 2:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return UndirectedGraph.from_edges(n, frozenset(edges))


def random_join(rng: random.Random, n: int) -> UndirectedGraph:
    """A random graph on n vertices, or the join of 2-4 random blocks."""
    sizes = [n]
    if n >= 2 and rng.random() < 0.5:
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 3))))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    g = UndirectedGraph.from_edges(0, frozenset())
    for size in sizes:
        block = random_graph(rng, size, rng.choice((0.1, 0.3, 0.6)))
        edges = {(u, g.n + v) for u in range(g.n) for v in range(size)}
        edges.update(g.edges)
        edges.update((g.n + u, g.n + v) for u, v in block.edges)
        g = UndirectedGraph.from_edges(g.n + size, frozenset(edges))
    return relabelled(rng, g)


def relabelled(rng: random.Random, g: UndirectedGraph) -> UndirectedGraph:
    """g under a seeded random permutation of its vertices."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return UndirectedGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def reference_clique_counts(g: UndirectedGraph) -> tuple[int, ...]:
    """counts[k-1] is the number of k-cliques, found one at a time by ordered
    extension; shares no code with ``raagcs.euler``.

    A clique is only ever grown through vertices larger than its current
    maximum that neighbour every member, so each clique is reached once and
    the cost grows with the answer.
    """
    adj = g.adjacency
    counts = [0] * g.n

    def grow(allowed: int, size: int) -> None:
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            counts[size] += 1
            nxt = allowed & adj[low.bit_length() - 1] & -(low << 1)
            if nxt:
                grow(nxt, size + 1)

    grow((1 << g.n) - 1, 0)
    return tuple(counts)


def reference_components(n: int, edges: set[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Connected components by union-find over an edge set, in the order
    ``connected_components`` promises; shares no code with the library."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in edges:
        root[find(u)] = find(v)
    comps: dict[int, list[int]] = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(c) for c in comps.values()))


def reference_decompose(g: UndirectedGraph) -> list[UndirectedGraph]:
    """Co-irreducible components through an explicit complement edge set."""
    missing = {
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in g.edges
    }
    parts = []
    for comp in reference_components(g.n, missing):
        pos = {v: i for i, v in enumerate(comp)}
        edges = frozenset((pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos)
        parts.append(UndirectedGraph.from_edges(len(comp), edges))
    return parts


def reference_graph6(n: int, edges: set[tuple[int, int]]) -> str:
    """graph6 by the letter of McKay's format description (n < 258048), one
    bit at a time; shares no code with the library."""
    if n < 63:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    bits = [int((i, j) in edges) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = ""
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i : i + 6]:
            value = 2 * value + bit
        body += chr(63 + value)
    return head + body


def reference_canonical_graph6(g: UndirectedGraph) -> str:
    """graph6 of g under the vertex order with the least upper-triangle bit
    string, found by trying all n! orders; shares no code with the library's
    search."""
    n, edges = g.n, set(g.edges)

    def bits(order: tuple[int, ...]) -> list[bool]:
        # Position j's column: the vertices at positions 0..j-1 against it.
        return [
            (min(order[i], order[j]), max(order[i], order[j])) in edges
            for j in range(1, n)
            for i in range(j)
        ]

    order = min(itertools.permutations(range(n)), key=bits)
    pos = {v: i for i, v in enumerate(order)}
    return reference_graph6(
        n, {(min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges}
    )


def reference_lower(adj: tuple[int, ...], n: int, bound: list[int]) -> Iterator[int]:
    """The column search over a list of n column ints, every placed vertex's
    set above all, with a pairwise twin test against the vertices already
    expanded; ``graphs._lower`` must yield the same positions, expand as
    many nodes and leave the same ``bound``."""
    top = 1 << n

    def twins(u: int, w: int) -> bool:
        # Same neighbors apart from each other: swapping u and w is an automorphism.
        mask = ~((1 << u) | (1 << w))
        return adj[u] & mask == adj[w] & mask

    def rec(k: int, cols: list[int]) -> Iterator[int]:
        if k == n:
            return
        least = min(cols)
        if least > bound[k]:
            return
        if least < bound[k]:
            bound[k:] = [least] + [top] * (n - k - 1)
            yield k
        reps: list[int] = []
        for u, col in enumerate(cols):
            if col == least and not any(twins(u, w) for w in reps):
                reps.append(u)
                row = adj[u]
                nxt = [c << 1 | row >> v & 1 for v, c in enumerate(cols)]
                nxt[u] = top
                yield from rec(k + 1, nxt)

    return rec(0, [0] * n)


def reference_parse_graph6(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and edge set of a graph6 record (n < 258048), decoded
    bit by bit; shares no code with the library."""
    values = [ord(ch) - 63 for ch in text]
    if values[0] != 63:
        n, rest = values[0], values[1:]
    else:
        n, rest = 0, values[4:]
        for value in values[1:4]:
            n = 64 * n + value
    bits = [value >> (5 - k) & 1 for value in rest for k in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, {pair for pair, bit in zip(pairs, bits) if bit}


def reference_parse_edge_list(text: str) -> UndirectedGraph:
    """The edge-list format read one line at a time, with its own comment
    rule; the chunked ``parse_edge_list`` must give the same graph, the
    same exception and the same warnings in the same order."""
    index: dict[str, int] = {}
    adj: list[int] = []
    declared: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if index:
                raise ParseError("vertices: header must precede all edges", lineno)
            if declared is not None:
                raise ParseError("repeated vertices: header", lineno)
            declared = parse_count_header(
                line, "vertices:", EDGE_LIST_MAX, "edge lists", lineno
            )
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(
                f"expected two labels per edge line, got {len(parts)}", lineno
            )
        a, b = parts
        if a == b:
            raise ParseError(f"self-loop at {a!r}", lineno)
        for name in (a, b):
            if name not in index:
                if len(index) == EDGE_LIST_MAX:
                    raise LimitExceeded(
                        f"edge lists are capped at {EDGE_LIST_MAX} vertices, "
                        f"got {EDGE_LIST_MAX + 1} labels by line {lineno}"
                    )
                index[name] = len(index)
                adj.append(0)
        u, v = index[a], index[b]
        if adj[u] >> v & 1:
            warnings.warn(
                f"duplicate edge {a} {b} (line {lineno})",
                DuplicateEdgeWarning,
                stacklevel=2,
            )
        else:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    if declared is not None and declared < len(index):
        warnings.warn(
            f"vertices: {declared} is below the {len(index)} labeled vertices",
            UserWarning,
            stacklevel=2,
        )
    adj.extend([0] * ((declared or 0) - len(adj)))
    return UndirectedGraph(len(adj), tuple(adj))


def reference_detect_format(text: str) -> str:
    """The CLI's format guess one line at a time, with its own comment rule:
    a dgraph when the first significant line starts ``dvertices:``, a
    profile when any significant line holds a ``=``, graph6 for one graph6
    token, an edge list otherwise."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    if lines and lines[0].startswith("dvertices:"):
        return "dgraph"
    if any("=" in line for line in lines):
        return "profile"
    tokens = text.split(maxsplit=1)
    if len(tokens) == 1 and is_graph6_token(tokens[0]):
        return "graph6"
    return "edges"


def reference_census(n: int, golden: bool = False) -> dict:
    """The census document built whole: a row dict with its own verdict per
    class, the summary counted over the rows (normal forms told apart by
    their frozen JSON), then the golden check."""
    rows = []
    for g in enumerate_graphs(n):
        p = invariant_profile(g)
        verdict = {**_verdict_json(p), **_algebra_kind_json(p)}
        rows.append({"graph6": to_graph6(g), "edges": g.edge_count, **verdict})
    tally = dict.fromkeys(SEMIPROJECTIVITY_VERDICTS, 0)
    for row in rows:
        tally[row["semiprojectivity"]["verdict"]] += 1
    freeze = lambda v: json.dumps(v, sort_keys=True)
    doc = {
        "document": "census",
        "n": n,
        "graph_count": len(rows),
        "classes": rows,
        "distinct_normal_forms": len({freeze(r["normal_form"]) for r in rows}),
        "distinct_stable_normal_forms": len({freeze(r["stable_normal_form"]) for r in rows}),
        "graph_algebra_count": sum(r["graph_algebra"]["value"] for r in rows),
        "semiprojectivity_tally": tally,
    }
    if golden:
        problems = golden_mismatches(doc, load_golden())
        doc["golden"] = {"match": not problems, "mismatches": problems}
    return doc


def random_dgraph(rng: random.Random, max_n: int = 9) -> DirectedGraph:
    """A digraph on 1..max_n vertices with mostly single edges, some parallel
    ones and a few infinite emitters."""
    n = rng.randint(1, max_n)
    p = rng.choice((0.1, 0.2, 0.35, 0.5))
    mult = {
        (s, t): rng.choice((1, 1, 1, 2, 3))
        for s in range(n)
        for t in range(n)
        if rng.random() < p
    }
    emitters = frozenset(v for v in range(n) if rng.random() < 0.1)
    return DirectedGraph(n, mult, emitters)


def reference_closure(n: int, edges: set[tuple[int, int]]) -> list[list[bool]]:
    """reach[a][b] when a path of one or more edges leads from a to b
    (Warshall's algorithm); shares no code with the library."""
    reach = [[(a, b) in edges for b in range(n)] for a in range(n)]
    for k in range(n):
        for a in range(n):
            if reach[a][k]:
                for b in range(n):
                    reach[a][b] = reach[a][b] or reach[k][b]
    return reach


def reference_condition_k(dg: DirectedGraph) -> bool:
    """Condition (K) by counting first-return paths; shares no code with the
    library.

    A return path at a base leaves it and comes back, repeating any vertex
    but the base, with parallel edges counted separately (Kumjian, Pask,
    Raeburn and Renault, J. Funct. Anal. 144, 1997).  The walks from the
    base that avoid it in between are counted by length up to 2n + 2,
    weighted by multiplicity and capped at two: a base with more than one
    return path has a second one of length at most 2n - 1.
    """
    n, mult = dg.n, dg.edge_mult
    for base in range(n):
        ways = [mult.get((base, v), 0) if v != base else 0 for v in range(n)]
        count = mult.get((base, base), 0)
        for _ in range(2 * n + 1):
            count += sum(w * mult.get((v, base), 0) for v, w in enumerate(ways))
            ways = [
                0 if t == base else min(2, sum(w * mult.get((v, t), 0) for v, w in enumerate(ways)))
                for t in range(n)
            ]
        if count == 1:
            return False
    return True


def random_matrix(
    rng: random.Random, rows: int, cols: int, bound: int = 9
) -> list[list[int]]:
    return [
        [rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)
    ]



def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact integer product a * b; checks a Smith normal form's U * A * V = D."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


def integer_determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    k = len(m)
    if any(len(row) != k for row in m):
        raise ValueError("determinant needs a square matrix")
    if k == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for i in range(k - 1):
        if a[i][i] == 0:
            for r in range(i + 1, k):
                if a[r][i]:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[k - 1][k - 1]

def random_profile(rng: random.Random) -> InvariantProfile:
    def count() -> object:
        return OMEGA if rng.random() < 0.15 else rng.randint(0, 3)

    N = {k: count() for k in rng.sample(range(-3, 4), rng.randint(0, 4))}
    return InvariantProfile.make(t=count(), o=count(), N=N)


# Hypothesis strategies


@st.composite
def graphs(draw: st.DrawFn, max_n: int = 8, min_n: int = 0) -> UndirectedGraph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return UndirectedGraph.from_edges(n, frozenset(picks))


extnats = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.just("inf"),
)


@st.composite
def profiles(draw: st.DrawFn) -> InvariantProfile:
    N_keys = draw(st.lists(st.integers(min_value=-4, max_value=4), unique=True, max_size=4))
    N = {k: draw(extnats) for k in N_keys}
    return InvariantProfile.make(t=draw(extnats), o=draw(extnats), N=N)


@st.composite
def dgraphs(draw: st.DrawFn, max_n: int = 5) -> DirectedGraph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(s, t) for s in range(n) for t in range(n)]
    mult = {
        pair: draw(st.integers(min_value=1, max_value=3))
        for pair in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
    }
    emitters = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2))
    return DirectedGraph(n, mult, frozenset(emitters))


@pytest.fixture
def int_limit_640():
    """Python's int-to-string limit at its floor, 640 digits, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)
