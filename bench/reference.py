"""Reference answers that share no code with the library under test.

Nothing here imports ``raagcs``.  Graphs are plain ``(n, adjacency sets)``
pairs.  Clique counts are kept as polynomials: ``poly[k]`` is the number
of k-vertex cliques, with ``poly[0] = 1`` for the empty clique.  The
normalized flag-complex Euler characteristic of a graph is then its
polynomial evaluated at -1, and the polynomial of a join is the product of
the polynomials of its parts.
"""

from __future__ import annotations

from math import comb

Adjacency = list[set[int]]


def adjacency(n: int, edges) -> Adjacency:
    adj: Adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def complement_components(n: int, adj: Adjacency) -> list[tuple[int, ...]]:
    """Connected components of the complement, in O(n + m).

    Each scan of the unvisited set either removes a vertex or meets an
    edge of the graph itself, so the complement is never built.
    """
    unvisited = set(range(n))
    comps = []
    while unvisited:
        start = unvisited.pop()
        comp = [start]
        frontier = [start]
        while frontier:
            v = frontier.pop()
            reached = [u for u in unvisited if u not in adj[v]]
            unvisited.difference_update(reached)
            comp.extend(reached)
            frontier.extend(reached)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def clique_poly(vertices, adj: Adjacency) -> list[int]:
    """Clique counts of the subgraph induced on ``vertices``.

    Cliques are grown in increasing vertex order from explicit candidate
    sets, so each one is counted once.
    """
    inside = set(vertices)
    poly = [1]
    stack = [(1, {u for u in adj[v] if u > v and u in inside}) for v in inside]
    while stack:
        size, cands = stack.pop()
        if len(poly) <= size:
            poly.append(0)
        poly[size] += 1
        for u in cands:
            stack.append((size + 1, {w for w in cands if w > u and w in adj[u]}))
    return poly


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_at_minus_one(poly: list[int]) -> int:
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(poly))


def complete_poly(n: int) -> list[int]:
    return [comb(n, k) for k in range(n + 1)]


def co_path_poly(n: int) -> list[int]:
    """Cliques of the complement of P_n are the independent sets of P_n."""
    return [comb(n - k + 1, k) for k in range(n // 2 + (n % 2) + 1)]


def co_cycle_poly(n: int) -> list[int]:
    """Independent k-sets of C_n number n/(n-k) * C(n-k, k)."""
    return [1] + [n * comb(n - k, k) // (n - k) for k in range(1, n // 2 + 1)]


def profile_json(t: int, chis: list[int]) -> dict:
    """Profile document of a finite graph: t singletons plus one finite
    factor per chi in ``chis``."""
    counts: dict[int, int] = {}
    for chi in chis:
        counts[chi] = counts.get(chi, 0) + 1
    return {"t": t, "o": 0, "N": [[k, c] for k, c in sorted(counts.items())]}


def normal_form_json(profile: dict, stable: bool = False) -> dict:
    """Normal form of a finite graph's profile (o = 0, finite counts).

    M folds chi and -chi together; the parity of the negative-chi factors
    is defined only when no chi = 0 factor is present.
    """
    counts = dict((k, c) for k, c in profile["N"])
    z = counts.get(0, 0)
    folded: dict[int, int] = {}
    for k, c in counts.items():
        if k:
            folded[abs(k)] = folded.get(abs(k), 0) + c
    if stable or z:
        parity: int | str = "undefined"
    else:
        parity = sum(c for k, c in counts.items() if k < 0) % 2
    return {
        "t": profile["t"],
        "z": z,
        "M": [[k, c] for k, c in sorted(folded.items())],
        "omin": 0,
        "parity": parity,
    }


def component_name(chi: int | None) -> str:
    """Name of a single-factor algebra: None is the Toeplitz algebra."""
    if chi is None:
        return "T"
    if chi == 0:
        return "E_1^0"
    return f"E_{1 + abs(chi)}^{'+1' if chi > 0 else '-1'}"


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out
