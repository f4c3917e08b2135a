"""Exact clique counting and the flag-complex Euler characteristic.

The flag complex of a graph has one (k-1)-simplex per k-vertex clique.
Its Euler characteristic is normalized as 1 minus the alternating sum of
the simplex counts, so a single vertex scores 0 and an empty graph on
m+1 vertices scores -m.  All arithmetic uses Python integers, so counts
can never overflow silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import LimitExceeded, UndirectedGraph, _bits, _components

EULER_ORACLE_MAX = 20
# Vertex sets this small list their cliques, at most 2^12 of them: below
# this size the split test and the memo cost more than they save.
CLIQUE_LIST_MAX = 12
# Cap on the steps of one clique count: a step is a vertex of a planned set,
# a listed clique or a coefficient product of a component split.  The
# complement of a 400-vertex path takes about 3.4e5 steps.
CLIQUE_BUDGET = 4_000_000


@dataclass(frozen=True)
class CliqueCountVector:
    """counts[k-1] holds the number of k-vertex cliques; length is n."""

    counts: tuple[int, ...]

    def euler(self) -> int:
        chi = 1
        for k, c in enumerate(self.counts, start=1):
            chi += c if k % 2 == 0 else -c
        return chi


def clique_counts(g: UndirectedGraph) -> CliqueCountVector:
    """Count the k-cliques for every k through the clique polynomial.

    P(S), the sum of x^|C| over the cliques C of G[S], is the independence
    polynomial of the complement of G[S] (Levit and Mandrescu, "The
    independence polynomial of a graph - a survey", 2005).  P(S) is
    memoised on the vertex mask S and worked out on an explicit stack:

    - a set of at most ``CLIQUE_LIST_MAX`` vertices, or of more than twice
      G's maximum degree, lists its cliques in label order;
    - otherwise, when the complement of G[S] is disconnected, P(S) is the
      product over its components (``reachable`` with every bit flipped,
      so no complement is stored);
    - otherwise P(S) = P(S - v) + x * P(S & N(v)), with v of least degree
      in G[S].

    A set of more than 2 * maxdeg vertices has a connected complement and
    every S & N(v) has at most maxdeg vertices, so there the split test and
    the memo cannot pay.  Work past ``CLIQUE_BUDGET`` raises LimitExceeded.
    """
    adj = g.adjacency
    n = g.n
    full = (1 << n) - 1
    listed_above = 2 * max(map(int.bit_count, adj), default=0)
    memo: dict[int, list[int]] = {0: [1]}
    work = 0
    # A frame is (S, None) until planned, then (S, (base, terms)): P(S) is
    # base plus x^offset * P(T) summed over the terms (T, offset), or with
    # no base the product of the terms' P.
    stack: list[tuple[int, tuple | None]] = [(full, None)]
    while stack:
        s, plan = stack[-1]
        if plan is None:
            if s in memo:
                stack.pop()
                continue
            size = s.bit_count()
            work += size
            if size <= CLIQUE_LIST_MAX or size > listed_above:
                base, deferred = _list_cliques(adj, s)
                work += sum(base)
                plan = (base, [(t, 1) for t in deferred])
            else:
                parts = _components(adj, s, full)
                if len(parts) > 1:
                    plan = (None, [(t, 0) for t in parts])
                else:
                    v = min(_bits(s), key=lambda u: (adj[u] & s).bit_count())
                    plan = ([0] * (size + 1), [(s ^ 1 << v, 0), (s & adj[v], 1)])
            stack[-1] = (s, plan)
            stack.extend((t, None) for t, _ in plan[1] if t not in memo)
        else:
            stack.pop()
            poly, terms = plan
            if poly is None:
                poly = [1]
                for t, _ in terms:
                    q = memo[t]
                    work += len(poly) * len(q)
                    out = [0] * (len(poly) + len(q) - 1)
                    for i, a in enumerate(poly):
                        for j, b in enumerate(q, i):
                            out[j] += a * b
                    poly = out
            else:
                for t, offset in terms:
                    for k, c in enumerate(memo[t], offset):
                        poly[k] += c
            memo[s] = poly
        if work > CLIQUE_BUDGET:
            raise LimitExceeded(
                f"clique counting is capped at {CLIQUE_BUDGET} steps of work, "
                f"exceeded on n = {n} with {g.edge_count} edges"
            )
    return CliqueCountVector(tuple(memo[full][1:]))


def _list_cliques(adj: tuple[int, ...], s: int) -> tuple[list[int], list[int]]:
    """P(S) by ordered extension, less the cliques whose top vertex v has
    more than ``CLIQUE_LIST_MAX`` earlier neighbours T = S & N(v) & {< v}:
    those T are returned, each owing x * P(T).

    A clique is only ever grown through vertices below its current least
    one that neighbour every member, so each clique is reached once.
    """
    poly = [1] + [0] * s.bit_count()
    deferred = []
    stack = [(s, 1)]
    while stack:
        allowed, size = stack.pop()
        poly[size] += allowed.bit_count()
        rest = allowed
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            earlier = rest & adj[v]
            if earlier:
                if size == 1 and earlier.bit_count() > CLIQUE_LIST_MAX:
                    deferred.append(earlier)
                    poly[1] -= 1
                else:
                    stack.append((earlier, size + 1))
    return poly, deferred


def euler_characteristic(g: UndirectedGraph) -> int:
    """1 + sum over k >= 1 of (-1)^k (number of k-cliques)."""
    return clique_counts(g).euler()


def euler_oracle(g: UndirectedGraph) -> int:
    """Independent brute force over all 2^n vertex subsets.

    Accumulates 1 plus (-1)^|S| over every nonempty clique subset S,
    testing cliqueness with a lowest-vertex recurrence; shares no code
    with clique_counts.
    """
    if g.n > EULER_ORACLE_MAX:
        raise LimitExceeded(
            f"euler_oracle is capped at n <= {EULER_ORACLE_MAX}, got {g.n}"
        )
    adj = g.adjacency
    total = 1 << g.n
    is_clique = bytearray(total)
    is_clique[0] = 1
    chi = 1
    for mask in range(1, total):
        low = mask & -mask
        rest = mask ^ low
        v = low.bit_length() - 1
        if is_clique[rest] and adj[v] & rest == rest:
            is_clique[mask] = 1
            chi += 1 if mask.bit_count() % 2 == 0 else -1
    return chi
