"""Undirected simple graphs: parsing, canonical labeling, enumeration.

Vertices are always the integers 0..n-1.  Textual inputs may use arbitrary
whitespace-free names; these are renumbered in first-appearance order.  Two
text encodings are supported: a line-oriented edge list and graph6, with
the one-byte header below 63 vertices and the ``~`` header from 63 on.
"""

from __future__ import annotations

import base64
import re
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, filterfalse, islice, repeat
from operator import eq
from typing import Iterable, Iterator, Sequence

# Largest vertex count an undirected input may declare or name: a
# ``vertices:`` header or a graph6 header is otherwise taken on trust and
# sizes every later step.
EDGE_LIST_MAX = 10_000
CANONICAL_MAX = 10
ENUMERATE_MAX = 8


class ParseError(ValueError):
    """Malformed textual input (edge list, graph6, profile, dgraph)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class LimitExceeded(Exception):
    """Input is larger than a documented cap or work budget.  A cap is not
    malformed input, so this is no ValueError: catching refusals misses it."""


class DuplicateEdgeWarning(UserWarning):
    """An edge appeared more than once in the input and was deduplicated."""


@dataclass(frozen=True)
class UndirectedGraph:
    """A finite simple graph, stored as one neighbor bitmask per vertex.

    Bit v of ``adjacency[u]`` is set when u and v are adjacent: the rows
    are symmetric, and no row has its own bit or a bit at or above n.
    ``edges`` is derived from the rows; ``from_edges`` builds from pairs.
    """

    n: int
    adjacency: tuple[int, ...]

    def __post_init__(self) -> None:
        n, adj = self.n, self.adjacency
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if not isinstance(adj, tuple) or any(type(row) is not int for row in adj):
            raise TypeError(
                "adjacency must be a tuple of int row bitmasks; "
                "UndirectedGraph.from_edges builds a graph from pairs"
            )
        if len(adj) != n:
            raise ValueError(f"{n} vertices need {n} adjacency rows, got {len(adj)}")
        outside = -1 << n
        for u, row in enumerate(adj):
            if row & outside or row >> u & 1:
                raise ValueError(f"adjacency row {u} names itself or a vertex >= {n}")
        total = sum(row.bit_count() for row in adj)
        # Each mirror test of the walk below shifts an n-bit row, so it costs
        # about total * (n + 1024) against 64 * n * (n + 128) for the n * n
        # characters of the transpose (measured at n = 30 to 2 000).
        if total * (n + 1024) > 64 * n * (n + 128):
            if list(adj) != _transpose(n, [format(row, f"0{n}b")[::-1] for row in adj]):
                raise ValueError("adjacency is not symmetric")
            return
        above = 0
        for u, row in enumerate(adj):
            # Highest bit first: clearing it shrinks the row, which is
            # faster on dense rows than clearing the lowest bit.
            row >>= u + 1
            above += row.bit_count()
            while row:
                j = row.bit_length() - 1
                row ^= 1 << j
                v = u + 1 + j
                if not adj[v] >> u & 1:
                    raise ValueError(f"adjacency is not symmetric at ({u}, {v})")
        # Every bit above the diagonal has its mirror below it.  With no more
        # bits in all than twice those above, no bit below lacks a mirror.
        if 2 * above != total:
            raise ValueError("adjacency is not symmetric")

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        """Build a graph from unordered pairs; repeats and either order are fine."""
        adj = [0] * n
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) in a graph on {n} vertices")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return UndirectedGraph(n, tuple(adj))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The (u, v) pairs with u < v, computed from the rows on first use."""
        return frozenset(
            (u, v)
            for u, row in enumerate(self.adjacency)
            for v in _bits(row & -(2 << u))
        )

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


def empty_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(n, (0,) * n)


def complete_graph(n: int) -> UndirectedGraph:
    full = (1 << n) - 1
    return UndirectedGraph(n, tuple(full ^ 1 << v for v in range(n)))


def cycle_graph(n: int) -> UndirectedGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return UndirectedGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def complete_bipartite(a: int, b: int) -> UndirectedGraph:
    return graph_join(empty_graph(a), empty_graph(b))


def disjoint_union(g: UndirectedGraph, h: UndirectedGraph) -> UndirectedGraph:
    return UndirectedGraph(
        g.n + h.n, g.adjacency + tuple(row << g.n for row in h.adjacency)
    )


def graph_join(g: UndirectedGraph, h: UndirectedGraph) -> UndirectedGraph:
    """Disjoint union plus every cross edge."""
    to_h = ((1 << h.n) - 1) << g.n
    to_g = (1 << g.n) - 1
    return UndirectedGraph(
        g.n + h.n,
        tuple(row | to_h for row in g.adjacency)
        + tuple(row << g.n | to_g for row in h.adjacency),
    )


def parse_count_header(line: str, key: str, cap: int, kind: str, lineno: int) -> int:
    """The count in a ``<key> <count>`` header, read by ``parse_decimal``: at
    most ``cap`` (``LimitExceeded`` naming ``kind``, the cap and the count)."""
    count = parse_decimal(line[len(key) :].strip(), "vertex count", lineno)
    if count > cap:
        raise LimitExceeded(
            f"{kind} are capped at {cap} vertices, got {key} {count} (line {lineno})"
        )
    return count


# Most digits past leading zeros of any numeric input field (``parse_decimal``):
# 300 under Python's default 4 300-digit int-string limit, so every 1 + |k| and
# every sum of counts prints.  A lower limit lowers the cap to 300 below it.
PROFILE_DIGITS_MAX = 4_000


def int_digits_limit() -> int:
    """Python's int-to-string digit limit now; 0 for none, as before Python 3.11."""
    return getattr(sys, "get_int_max_str_digits", int)()


def parse_decimal(digits: str, what: str, line: int | None = None) -> int:
    """The int of ASCII digits, with no sign and leading zeros free, or a
    ``ParseError`` naming ``what`` for other text or for more digits than
    ``PROFILE_DIGITS_MAX`` or ``int_digits_limit() - 300``, whichever is less.
    Every numeric input field is read here and nowhere else."""
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"bad {what} {digits!r}", line)
    body = digits.lstrip("0") or "0"
    limit = int_digits_limit()
    cap = min(PROFILE_DIGITS_MAX, limit - 300) if limit else PROFILE_DIGITS_MAX
    if len(body) > cap:
        raise ParseError(f"{what} too long: {len(body)} digits, over {cap}", line)
    return int(body)


# A ``#`` and the rest of its line: the class holds every line boundary of
# ``str.splitlines``.  Each comment becomes one blank, so the line keeps its
# number: removed outright, "\r# c\n" would leave one "\r\n" break.
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def significant_lines(text: str) -> tuple[Iterator[int], Iterator[str]]:
    """The line numbers (from 1) and the lines, as two aligned iterators, of
    each line that holds more than a ``#`` comment and blanks, with the
    comment and the outer blanks stripped."""
    lines = list(map(str.strip, _COMMENT.sub(" ", text).splitlines()))
    return compress(count(1), lines), filter(None, lines)


# Significant lines ``parse_edge_list`` tokenises at once: the memory of its
# tokens grows with this, not with the text.
EDGE_LIST_CHUNK = 2_048


def parse_edge_list(text: str) -> UndirectedGraph:
    """Parse the line-oriented edge-list format.

    The first significant line may be a header ``vertices: <k>`` that
    declares the vertex count (the way to get isolated vertices); it is
    the only place a header is read.  Every other significant line names
    one edge as two whitespace-separated labels (``significant_lines``).
    Duplicate edges are deduplicated with a warning; self-loops are errors.
    The first offending line raises, after the duplicate warnings of the
    lines before it; within a line a later header comes first (it must
    precede all edges after an edge line, else it is a repeat), then the
    label count, the self-loop and the cap.  A declared count or a number
    of distinct labels above ``EDGE_LIST_MAX`` raises ``LimitExceeded``
    before any adjacency row is allocated; labels are counted a chunk at a
    time, so at most one chunk's labels past the cap are held.

    Lines are read ``EDGE_LIST_CHUNK`` at a time.  A chunk of edge lines,
    each followed by `` # ``, splits into tokens of which every third is
    that separator exactly when each line holds two labels (no label holds
    a ``#``), so each rule is one pass over the chunk's tokens.  The rows
    hold twice as many bits as edge lines exactly when no line repeats an
    edge; only otherwise are the duplicates looked for.
    """
    index: dict[str, int] = {}
    adj: list[int] = []
    declared: int | None = None
    total = 0  # bits set in adj, twice the distinct edges so far
    line_numbers, lines = significant_lines(text)
    while chunk := list(islice(lines, EDGE_LIST_CHUNK)):
        numbers = list(islice(line_numbers, EDGE_LIST_CHUNK))
        # Only the first significant line meets an empty index and no header.
        if not index and declared is None and chunk[0].startswith("vertices:"):
            declared = parse_count_header(
                chunk[0], "vertices:", EDGE_LIST_MAX, "edge lists", numbers[0]
            )
            del chunk[0], numbers[0]
        # A line starts with "vertices:" exactly where the joined text or a
        # "# " in it does: no line holds a "#".
        joined = " # ".join((*chunk, ""))
        tokens = joined.split()
        stop, error = len(chunk), None
        if joined.startswith("vertices:") or "# vertices:" in joined:
            stop = next(compress(count(), map(str.startswith, chunk, repeat("vertices:"))))
            late = "vertices: header must precede all edges"
            error = ParseError(late if index or stop else "repeated vertices: header", numbers[stop])
        if len(tokens) != 3 * len(chunk) or tokens[2::3].count("#") != len(chunk):
            bad = next(i for i, line in enumerate(chunk) if len(line.split()) != 2)
            if bad < stop:
                got = len(chunk[bad].split())
                error = ParseError(f"expected two labels per edge line, got {got}", numbers[bad])
                stop = bad
        firsts, seconds = tokens[: 3 * stop : 3], tokens[1 : 3 * stop : 3]
        loop = next(compress(count(), map(eq, firsts, seconds)), None)
        if loop is not None:
            stop = loop
            error = ParseError(f"self-loop at {firsts[stop]!r}", numbers[stop])
            del firsts[stop:], seconds[stop:]
        us, vs = list(map(index.get, firsts)), list(map(index.get, seconds))
        if None in us or None in vs:
            fresh = dict.fromkeys(tokens[: 3 * stop])
            fresh.pop("#", None)
            fresh = list(filterfalse(index.__contains__, fresh))
            room = EDGE_LIST_MAX - len(index)
            if len(fresh) > room:
                stop = tokens.index(fresh[room]) // 3
                error = LimitExceeded(
                    f"edge lists are capped at {EDGE_LIST_MAX} vertices, "
                    f"got {EDGE_LIST_MAX + 1} labels by line {numbers[stop]}"
                )
                del fresh[room:], firsts[stop:], seconds[stop:]
            index.update(zip(fresh, count(len(index))))
            adj.extend([0] * len(fresh))
            us = list(map(index.__getitem__, firsts))
            vs = list(map(index.__getitem__, seconds))
        prior = adj.copy()
        for u, v in zip(us, vs):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        bits = sum(map(int.bit_count, adj))
        if bits != total + 2 * stop:  # replay the chunk on the old rows
            for a, b, u, v, lineno in zip(firsts, seconds, us, vs, numbers):
                if prior[u] >> v & 1:
                    warnings.warn(
                        f"duplicate edge {a} {b} (line {lineno})",
                        DuplicateEdgeWarning,
                        stacklevel=2,
                    )
                prior[u] |= 1 << v
                prior[v] |= 1 << u
        total = bits
        if error is not None:
            raise error
    if declared is not None and declared < len(index):
        warnings.warn(
            f"vertices: {declared} is below the {len(index)} labeled vertices",
            UserWarning,
            stacklevel=2,
        )
    adj.extend([0] * ((declared or 0) - len(adj)))
    return UndirectedGraph(len(adj), tuple(adj))


# graph6 writes sextet v as the byte 63 + v and base64 as the v-th letter of
# its alphabet, so base64 packs the bits and a translation maps the letters.
_G6 = bytes(range(63, 127))
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, _G6)
_FROM_G6 = bytes.maketrans(_G6, _B64)


def _pack6(bits: str) -> bytes:
    """graph6 bytes of a '0'/'1' string, zero-padded to whole sextets."""
    pad = -len(bits) % 24  # whole base64 quanta, so no '=' padding
    raw = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    return base64.b64encode(raw)[: -(-len(bits) // 6)].translate(_TO_G6)


def _unpack6(data: bytes) -> str:
    """The 6 * len(data) bits of graph6 bytes, as a '0'/'1' string."""
    bad = data.translate(None, _G6)
    if bad:
        raise ParseError(f"invalid graph6 byte {bad[0]}")
    raw = base64.b64decode(data.translate(_FROM_G6) + b"A" * (-len(data) % 4))
    return format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")[: 6 * len(data)]


def is_graph6_token(token: str) -> bool:
    """Whether a token has graph6's shape: an optional ``>>graph6<<``
    prefix, then one or more graph6 bytes."""
    body = token.removeprefix(">>graph6<<")
    return bool(body) and body.isascii() and not body.encode().translate(None, _G6)


def parse_graph6(text: str | bytes) -> UndirectedGraph:
    """Decode one graph6 record with either header; a vertex count above
    ``EDGE_LIST_MAX`` raises ``LimitExceeded`` before the body is read."""
    try:
        raw = text.encode(errors="surrogateescape") if isinstance(text, str) else bytes(text)
    except UnicodeEncodeError as exc:  # a surrogate that stands for no byte
        raise ParseError(f"invalid graph6 character {exc.object[exc.start]!r}") from None
    data = raw.strip().removeprefix(b">>graph6<<")
    if not data:
        raise ParseError("empty graph6 input")
    if data[0] == 126:  # '~': the count follows in 3 sextets, or 6 after '~~'
        start, width = (2, 6) if data[1:2] == b"~" else (1, 3)
        head = data[start : start + width]
        if len(head) < width:
            raise ParseError(f"graph6 header needs {width} bytes after {'~' * start!r}")
        n = int(_unpack6(head), 2)
        body = data[start + width :]
    else:
        n, body = data[0] - 63, data[1:]
        if not 0 <= n < 63:
            raise ParseError(f"invalid graph6 header byte {data[0]}")
    if n > EDGE_LIST_MAX:
        raise LimitExceeded(
            f"graph6 inputs are capped at {EDGE_LIST_MAX} vertices, got n = {n}"
        )
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 body for n={n} needs {need} bytes, got {len(body)}")
    return UndirectedGraph(n, _graph6_rows(n, _unpack6(body)))


def _graph6_rows(n: int, bits: str) -> tuple[int, ...]:
    """The adjacency rows of a graph6 body's bits.  Column v of the upper
    triangle lists u = 0..v-1 in one slice: it is row v's bits below v,
    lowest first.  Padded to n, the columns are the rows of the lower
    triangle, whose transpose holds the rows' bits above the diagonal."""
    cols = [bits[v * (v - 1) // 2 : v * (v + 1) // 2].ljust(n, "0") for v in range(n)]
    return tuple(int(col[::-1], 2) | up for col, up in zip(cols, _transpose(n, cols)))


def _transpose(n: int, lines: list[str]) -> list[int]:
    """The column masks of an n x n 0/1 matrix given as n '0'/'1' strings,
    ``lines[i][j]`` being entry (i, j).  Joined, column j is every n-th
    character from offset j, so one slice and one ``int(..., 2)`` read it."""
    text = "".join(lines)
    return [int(text[j::n][::-1], 2) for j in range(n)]


def to_graph6(g: UndirectedGraph) -> str:
    """Encode with the identity vertex order (no canonicalization).

    The ``~`` header holds n < 258 048; a record that large would pass 4 GB.
    """
    n, adj = g.n, g.adjacency
    head = bytes([63 + n]) if n < 63 else b"~" + _pack6(format(n, "018b"))
    bits = "".join(format(adj[v] & ~(-1 << v), f"0{v}b")[::-1] for v in range(1, n))
    return (head + _pack6(bits)).decode("ascii")


def complement(g: UndirectedGraph) -> UndirectedGraph:
    full = (1 << g.n) - 1
    rows = tuple(full ^ row ^ 1 << v for v, row in enumerate(g.adjacency))
    return UndirectedGraph(g.n, rows)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def reachable(rows: Sequence[int], start: int, allowed: int, flip: int = 0) -> int:
    """The mask of ``start`` (in ``allowed``) and what it reaches through ``allowed``.

    A breadth-first search over masks: the unseen vertices one row reaches
    join the frontier in one step, and the search stops once nothing in
    ``allowed`` is unseen.  Vertex v's row is ``rows[v] ^ flip``, formed on
    the fly, so a complement (``flip`` = all n bits) is never stored.
    """
    frontier = 1 << start
    unseen = allowed & ~frontier
    while frontier and unseen:
        low = frontier & -frontier
        frontier ^= low
        new = unseen & (rows[low.bit_length() - 1] ^ flip)
        unseen ^= new
        frontier |= new
    return allowed ^ unseen


def _components(rows: Sequence[int], allowed: int, flip: int = 0) -> list[int]:
    """Masks of the components of the graph on ``allowed`` whose rows are
    ``rows[v] ^ flip``: each is the ``reachable`` set of the least vertex no
    earlier one holds."""
    out = []
    while allowed:
        comp = reachable(rows, (allowed & -allowed).bit_length() - 1, allowed, flip)
        allowed ^= comp
        out.append(comp)
    return out


def connected_components(g: UndirectedGraph) -> tuple[tuple[int, ...], ...]:
    """Components as sorted vertex tuples, ordered by least vertex."""
    return tuple(tuple(_bits(c)) for c in _components(g.adjacency, (1 << g.n) - 1))


def complement_components(g: UndirectedGraph) -> tuple[tuple[int, ...], ...]:
    """Components of the complement, as ``connected_components`` orders them."""
    full = (1 << g.n) - 1
    return tuple(tuple(_bits(c)) for c in _components(g.adjacency, full, full))


def induced_subgraph(g: UndirectedGraph, vertices: Iterable[int]) -> UndirectedGraph:
    """Restrict to a vertex set, renumbering it in ascending order.

    Only edges inside the set are visited: each kept vertex walks its
    kept neighbors.
    """
    vs = sorted(set(vertices))
    keep = 0
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        keep |= 1 << v
    if len(vs) == g.n:
        return g  # graphs are immutable, so the whole vertex set can share g
    pos = {v: i for i, v in enumerate(vs)}
    adj = g.adjacency
    rows = tuple(sum(1 << pos[u] for u in _bits(adj[v] & keep)) for v in vs)
    return UndirectedGraph(len(vs), rows)


def _lower(adj: tuple[int, ...], n: int, bound: list[int]) -> Iterator[int]:
    """Lower ``bound``, in place, to the least columns of any vertex order,
    yielding the position of each column it lowers.

    Column k of an order lists its k-th vertex's adjacency to the k before it,
    the first-placed vertex in the high bit: the order's upper-triangle bits
    are its columns concatenated, and compare as the ints do.  Orders grow a
    vertex at a time, the unplaced ones in cells ``(column, mask)`` ascending
    by column.  Placing u appends its bit to each column, and a < c gives
    2a + 1 < 2c: each cell splits in order into its non-neighbours and
    neighbours of u, so ``cells[0]`` holds the least.  A branch whose least
    column is above ``bound``'s is cut; one below replaces it and resets every
    later column to ``1 << n``.  ``cells[0]`` is expanded ascending, each twin
    class once (swapping twins is an automorphism; twins share a cell, found
    by ``twins``, each open and closed neighbourhood row's vertices).  The
    first yield says if some order beats ``bound``; the full run minimizes it.
    """
    twins: dict[int, int] = {}
    for v, row in enumerate(adj):
        for key in (row, row | 1 << v):
            twins[key] = twins.get(key, 0) | 1 << v

    def rec(k: int, cells: list[tuple[int, int]]) -> Iterator[int]:
        if k == n or cells[0][0] > bound[k]:
            return
        least, todo = cells[0]
        if least < bound[k]:
            bound[k:] = [least] + [1 << n] * (n - k - 1)
            yield k
        while todo:
            b = todo & -todo
            row = adj[b.bit_length() - 1]
            todo &= ~(twins[row] | twins[row | b])
            off = ~(row | b)
            nxt = []
            for col, mask in cells:
                if lo := mask & off:
                    nxt.append((col << 1, lo))
                if hi := mask & row:
                    nxt.append((col << 1 | 1, hi))
            yield from rec(k + 1, nxt)

    return rec(0, [(0, (1 << n) - 1)])


def canonical_form(g: UndirectedGraph) -> bytes:
    """graph6 bytes minimized over all vertex orders.

    Equal byte strings characterize isomorphic graphs.  The search is
    exponential in the worst case, hence the documented cap.
    """
    n = g.n
    if n > CANONICAL_MAX:
        raise LimitExceeded(
            f"canonical_form is capped at n <= {CANONICAL_MAX}, got {n}"
        )
    bound = [1 << n] * n
    for _ in _lower(g.adjacency, n, bound):
        pass
    bits = "".join(format(c, f"0{k}b") for k, c in enumerate(bound) if k)
    return bytes([63 + n]) + _pack6(bits)


def enumerate_graphs(n: int) -> list[UndirectedGraph]:
    """One canonical representative per isomorphism class on n vertices.

    Orderly generation (R. C. Read, "Every one a winner", 1978; B. D.
    McKay, "Isomorph-free exhaustive generation", 1998).  A graph is
    canonical when no vertex order's columns (``_lower``) are below its
    identity order's.  Deleting the last vertex of a canonical graph leaves
    a canonical graph, so each canonical graph on k-1 vertices is extended
    by a new last vertex in every way and kept iff it is canonical: every
    class is reached exactly once.  Moving the new vertex to position j
    keeps columns 0..j-1 and makes column j its column c >> (k-1-j), so a
    c below the parent's floor, its largest column h << (k-1-j), is beaten
    with no search and never tried.  Parents come in graph6 order and each
    takes its new last column in increasing order, so the result is sorted
    by graph6 bytes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATE_MAX:
        raise LimitExceeded(f"enumeration is capped at n <= {ENUMERATE_MAX}, got {n}")
    # Adjacency rows and identity-order columns of each canonical graph.
    level: list[tuple[tuple[int, ...], list[int]]] = [((), [])]
    for k in range(1, n + 1):
        # A new last vertex's row is its column read from the low bit.
        flipped = [int(format(c, f"0{k - 1}b")[::-1], 2) for c in range(1 << (k - 1))]
        grown = []
        for base, head in level:
            floor = max((h << (k - 1 - j) for j, h in enumerate(head)), default=0)
            for c, nb in enumerate(flipped[floor:], floor):
                rows = tuple(r | (nb >> i & 1) << (k - 1) for i, r in enumerate(base))
                rows += (nb,)
                cols = head + [c]
                if next(_lower(rows, k, cols), None) is None:
                    grown.append((rows, cols))
        level = grown
    return [UndirectedGraph(n, rows) for rows, _ in level]
