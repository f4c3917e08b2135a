"""Directed-graph C*-algebra side: Smith normal form, K-theory, realization.

K-theory of a directed graph uses the convention K0 = coker(B) and
K1 = ker(B) for B = (At - I) restricted to the columns of regular
vertices, mapping Z^regular into Z^vertices, where At has entry (y, x)
equal to the number of edges from x to y.  Two anchors pin the
orientation: a single vertex with m+1 loops gives K0 = Z/m, and a vertex
with one loop plus one edge to a sink gives K0 = Z with the unit class a
generator and the sink class zero.

The realizer turns a single-factor profile into a directed graph whose
algebra has the same complete invariant, and every emitted graph is run
through the Smith-normal-form verification before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from .artin import (
    AbGroup,
    ComponentClass,
    FiniteExt,
    InfiniteComp,
    InvariantProfile,
    Toeplitz,
    Z_GROUP,
    component_name,
    is_graph_algebra,
    profile_components,
)
from .graphs import LimitExceeded, ParseError

# Largest vertex count a dgraph may declare; the header is otherwise taken
# on trust and sizes every K-theory matrix and vertex scan.
DGRAPH_MAX = 1_000


class NotRealizable(Exception):
    """The profile's algebra is not a graph algebra."""


class RealizationNotImplemented(Exception):
    """The algebra is a graph algebra, but no template is provided for it."""


@dataclass(frozen=True)
class DirectedGraph:
    """A finite directed multigraph with optional infinite emitters.

    edge_mult maps (source, target) to a positive multiplicity.  A vertex
    flagged as an infinite emitter emits infinitely many edges; any finite
    edge entries it carries describe part of that infinite family (they
    still count for path and loop structure) and its column is omitted
    from K-theory.  A sink emits nothing and is not an infinite emitter;
    a regular vertex emits finitely many edges, at least one.
    """

    n: int
    edge_mult: Mapping[tuple[int, int], int] = field(default_factory=dict)
    infinite_emitters: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        cleaned = {}
        for (s, t), m in self.edge_mult.items():
            if not 0 <= s < self.n or not 0 <= t < self.n:
                raise ValueError(f"edge ({s}, {t}) out of range")
            if m < 0:
                raise ValueError("edge multiplicities are nonnegative")
            if m:
                cleaned[(s, t)] = m
        object.__setattr__(self, "edge_mult", cleaned)
        for v in self.infinite_emitters:
            if not 0 <= v < self.n:
                raise ValueError(f"infinite emitter {v} out of range")

    def emits(self, v: int) -> bool:
        return v in self.infinite_emitters or any(
            s == v for s, _ in self.edge_mult
        )

    @property
    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.emits(v))

    @property
    def regular_vertices(self) -> tuple[int, ...]:
        return tuple(
            v
            for v in range(self.n)
            if v not in self.infinite_emitters and self.emits(v)
        )

    def multiplicity(self, s: int, t: int) -> int:
        return self.edge_mult.get((s, t), 0)

    def out_edges(self, v: int) -> list[tuple[int, int]]:
        """(target, multiplicity) pairs, sorted by target."""
        return sorted(
            (t, m) for (s, t), m in self.edge_mult.items() if s == v
        )


def parse_dgraph(text: str) -> DirectedGraph:
    """Parse the directed-graph text format.

    The header ``dvertices: <k>`` is mandatory.  Each following line is
    either ``<src> <dst> <multiplicity>`` or ``<v> *`` to flag an infinite
    emitter; ``#`` starts a comment.  Repeated edge lines add up.  A
    declared count above ``DGRAPH_MAX`` raises ``LimitExceeded``.
    """
    n: int | None = None
    mult: dict[tuple[int, int], int] = {}
    emitters: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("dvertices:"):
            if n is not None:
                raise ParseError("repeated dvertices: header", lineno)
            rest = line[len("dvertices:") :].strip()
            if not (rest.isascii() and rest.isdigit()):
                raise ParseError(f"bad vertex count {rest!r}", lineno)
            digits = rest.lstrip("0") or "0"
            # The length test keeps int() off digit strings it refuses.
            if len(digits) > len(str(DGRAPH_MAX)) or int(digits) > DGRAPH_MAX:
                raise LimitExceeded(
                    f"dgraphs are capped at {DGRAPH_MAX} vertices, "
                    f"got dvertices: {digits} (line {lineno})"
                )
            n = int(digits)
            continue
        if n is None:
            raise ParseError("missing dvertices: header", lineno)
        parts = line.split()
        if len(parts) == 2 and parts[1] == "*":
            v = parts[0]
            if not (v.isascii() and v.isdigit()):
                raise ParseError(f"bad vertex {v!r}", lineno)
            if len(v.lstrip("0")) > len(str(n)):
                raise ParseError(
                    f"infinite emitter of {len(v)} digits out of range", lineno
                )
            emitters.add(int(v))
            continue
        if len(parts) != 3:
            raise ParseError("expected '<src> <dst> <mult>' or '<v> *'", lineno)
        try:
            s, t, m = (int(x) for x in parts)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", lineno) from None
        if m < 0:
            raise ParseError("negative multiplicity", lineno)
        mult[(s, t)] = mult.get((s, t), 0) + m
    if n is None:
        raise ParseError("missing dvertices: header")
    try:
        return DirectedGraph(n, mult, frozenset(emitters))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_dgraph(dg: DirectedGraph) -> str:
    lines = [f"dvertices: {dg.n}"]
    lines.extend(f"{v} *" for v in sorted(dg.infinite_emitters))
    lines.extend(
        f"{s} {t} {m}" for (s, t), m in sorted(dg.edge_mult.items())
    )
    return "\n".join(lines) + "\n"


Matrix = list[list[int]]


def _identity(k: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
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


@dataclass(frozen=True)
class SmithDecomposition:
    """D = U * A * V with U, V unimodular and D diagonal, d1 | d2 | ... >= 0."""

    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))
        )

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d)


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Gcd-driven reduction with the pivot chosen as the smallest nonzero
    entry in absolute value; exact big integers throughout, so
    intermediate growth can never overflow.  Deterministic for a fixed
    input.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("matrix rows must have equal length")
    M = [list(map(int, row)) for row in a]
    U = _identity(m)
    V = _identity(n)

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            M[i], M[j] = M[j], M[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in M:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(src: int, dst: int, factor: int) -> None:
        if factor:
            Ms, Md = M[src], M[dst]
            for j in range(n):
                Md[j] += factor * Ms[j]
            Us, Ud = U[src], U[dst]
            for j in range(m):
                Ud[j] += factor * Us[j]

    def add_col(src: int, dst: int, factor: int) -> None:
        if factor:
            for row in M:
                row[dst] += factor * row[src]
            for row in V:
                row[dst] += factor * row[src]

    def negate_row(i: int) -> None:
        M[i] = [-x for x in M[i]]
        U[i] = [-x for x in U[i]]

    k = 0
    limit = min(m, n)
    while k < limit:
        pivot = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                x = abs(M[i][j])
                if x and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        if M[k][k] < 0:
            negate_row(k)
        dirty = False
        for i in range(k + 1, m):
            q = M[i][k] // M[k][k]
            add_row(k, i, -q)
            if M[i][k]:
                dirty = True
        for j in range(k + 1, n):
            q = M[k][j] // M[k][k]
            add_col(k, j, -q)
            if M[k][j]:
                dirty = True
        if dirty:
            continue
        # Pull any entry the pivot does not divide into row k, then rerun.
        stop = False
        for i in range(k + 1, m):
            if stop:
                break
            for j in range(k + 1, n):
                if M[i][j] % M[k][k]:
                    add_row(i, k, 1)
                    stop = True
                    break
        if not stop:
            k += 1
    freeze = lambda mat: tuple(tuple(row) for row in mat)
    return SmithDecomposition(U=freeze(U), D=freeze(M), V=freeze(V))


@dataclass(frozen=True)
class KTheoryReport:
    """K0 and K1 of a graph algebra with tracked classes.

    k0 is in invariant-factor form; k1 is free of the reported rank.
    unit_class and vertex_class give coordinates in k0, torsion
    coordinates first (reduced mod their factor, ascending) and then the
    free coordinates.
    """

    k0: AbGroup
    k1_rank: int
    unit_class: tuple[int, ...]
    vertex_class: tuple[tuple[int, ...], ...]
    regular_vertices: tuple[int, ...]

    @property
    def k1(self) -> AbGroup:
        return AbGroup(self.k1_rank)

    @property
    def unit_is_generator(self) -> bool:
        return self.k0 == Z_GROUP and self.unit_class in ((1,), (-1,))


def graph_ktheory(dg: DirectedGraph) -> KTheoryReport:
    """K-theory from the regular-vertex matrix, via Smith normal form."""
    regs = dg.regular_vertices
    n = dg.n
    B = [
        [dg.multiplicity(x, y) - (1 if x == y else 0) for x in regs]
        for y in range(n)
    ]
    snf = smith_normal_form(B)
    diag = snf.invariant_factors
    rank = len(diag)
    torsion_rows = [i for i, d in enumerate(diag) if d >= 2]
    k0 = AbGroup(n - rank, tuple(diag[i] for i in torsion_rows))

    def coords(image: Sequence[int]) -> tuple[int, ...]:
        """Class of the vector whose image under U is ``image``."""
        tors = tuple(image[i] % diag[i] for i in torsion_rows)
        free = tuple(image[rank:])
        return tors + free

    # U maps the unit (all ones) to its row sums and vertex v to column v.
    return KTheoryReport(
        k0=k0,
        k1_rank=len(regs) - rank,
        unit_class=coords([sum(row) for row in snf.U]),
        vertex_class=tuple(coords([row[v] for row in snf.U]) for v in range(n)),
        regular_vertices=regs,
    )


@dataclass(frozen=True)
class SixTermCheck:
    """K-theory of a graph with one sink, of the sink's quotient graph, and
    the integer kappa with [p_sink] = kappa * [unit] when K0 is the
    integers with the unit a generator."""

    sink: int
    full: KTheoryReport
    quotient: KTheoryReport
    unit_is_generator: bool
    kappa: int | None


def sink_ideal_analysis(dg: DirectedGraph) -> SixTermCheck:
    """Compare a graph against the compact-ideal extension picture.

    Requires exactly one sink w such that {w} is hereditary and saturated
    (no other vertex sends all of its edges to w) and w is reachable from
    some other vertex.  The quotient graph is the graph with w removed.
    """
    sinks = dg.sinks
    if len(sinks) != 1:
        raise ValueError(f"expected exactly one sink, found {len(sinks)}")
    w = sinks[0]
    for v in dg.regular_vertices:
        out = dg.out_edges(v)
        if out and all(t == w for t, _ in out):
            raise ValueError(
                f"{{{w}}} is not saturated: vertex {v} sends all edges to it"
            )
    if not any(t == w and s != w for (s, t) in dg.edge_mult):
        raise ValueError(f"sink {w} is not reachable from any other vertex")
    keep = [v for v in range(dg.n) if v != w]
    renum = {v: i for i, v in enumerate(keep)}
    quotient = DirectedGraph(
        dg.n - 1,
        {
            (renum[s], renum[t]): m
            for (s, t), m in dg.edge_mult.items()
            if s != w and t != w
        },
        frozenset(renum[v] for v in dg.infinite_emitters if v != w),
    )
    full = graph_ktheory(dg)
    unit_gen = full.unit_is_generator
    kappa = None
    if unit_gen:
        kappa = full.vertex_class[w][0] * full.unit_class[0]
    return SixTermCheck(
        sink=w,
        full=full,
        quotient=graph_ktheory(quotient),
        unit_is_generator=unit_gen,
        kappa=kappa,
    )


def _simple_loop_count(dg: DirectedGraph, base: int, cap: int = 2) -> int:
    """Count simple loops based at a vertex, saturating at cap.

    A simple loop leaves base, repeats no intermediate vertex, and returns
    to base; parallel edges count separately, so the count multiplies the
    edge multiplicities along each vertex path.
    """
    out = {v: dg.out_edges(v) for v in range(dg.n)}
    count = 0

    def walk(v: int, visited: int, weight: int) -> None:
        nonlocal count
        if count >= cap:
            return
        for target, m in out[v]:
            if target == base:
                count += weight * m
                if count >= cap:
                    return
            elif not visited >> target & 1:
                walk(target, visited | 1 << target, weight * m)

    walk(base, 1 << base, 1)
    return min(count, cap)


def condition_k(dg: DirectedGraph) -> bool:
    """True when every vertex bases either no simple loop or at least two."""
    return all(_simple_loop_count(dg, v) != 1 for v in range(dg.n))


def _strongly_connected(dg: DirectedGraph, vertices: Sequence[int]) -> bool:
    vs = list(vertices)
    if len(vs) <= 1:
        return True
    inside = set(vs)

    def reach(start: int, flip: bool) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for (s, t) in dg.edge_mult:
                if flip:
                    s, t = t, s
                if s == v and t in inside and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    return reach(vs[0], False) >= inside and reach(vs[0], True) >= inside


class CheckRow(NamedTuple):
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class RealizationReport:
    target: str
    checks: tuple[CheckRow, ...]
    condition_k: bool
    strongly_connected_regular: bool

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.checks)


def _single_factor(p: InvariantProfile) -> ComponentClass | None:
    parts = profile_components(p)
    if len(parts) != 1 or parts[0][1] != 1:
        return None
    return parts[0][0]


def _toeplitz_template() -> DirectedGraph:
    return DirectedGraph(2, {(0, 0): 1, (0, 1): 1})


def _infinite_template() -> DirectedGraph:
    return DirectedGraph(1, {(0, 0): 2}, frozenset({0}))


def _finite_template(chi: int) -> DirectedGraph:
    if chi < 0:
        n = -chi
        return DirectedGraph(2, {(0, 0): n + 1, (0, 1): n + 1})
    if chi == 0:
        return DirectedGraph(
            4,
            {
                (0, 1): 1,
                (1, 1): 2,
                (1, 2): 1,
                (1, 3): 1,
                (2, 2): 2,
                (2, 1): 1,
            },
        )
    n = chi
    return DirectedGraph(
        3,
        {
            (0, 1): 3 * n - 2,
            (0, 2): 2,
            (1, 1): n + 1,
            (1, 2): 1,
        },
    )


def realize(p: InvariantProfile) -> DirectedGraph:
    """Directed graph whose algebra matches a single-factor profile.

    Raises NotRealizable when the profile's algebra is not a graph algebra
    at all, and RealizationNotImplemented when it is one but has zero or
    several tensor factors (only single-factor templates are shipped).
    Every returned graph has passed verify_realization.
    """
    ok, _ = is_graph_algebra(p)
    if not ok:
        raise NotRealizable(
            "not a graph algebra: needs either a lone singleton component or "
            "no singletons with finitely many chi = +-1 factors and at most "
            "one other finite factor"
        )
    factor = _single_factor(p)
    if factor is None:
        raise RealizationNotImplemented(
            "only single-factor algebras have realization templates; "
            f"this profile has {p.component_count} factors"
        )
    if isinstance(factor, Toeplitz):
        dg = _toeplitz_template()
    elif isinstance(factor, InfiniteComp):
        dg = _infinite_template()
    else:
        dg = _finite_template(factor.chi)
    report = verify_realization(dg, p)
    if not report.passed:
        raise RuntimeError(
            f"template for {component_name(factor)} failed self-verification: "
            + "; ".join(f"{c.name}: {c.detail}" for c in report.checks if not c.ok)
        )
    return dg


def verify_realization(dg: DirectedGraph, p: InvariantProfile) -> RealizationReport:
    """Check a directed graph against a single-factor profile's K-theory.

    All targets need K0 the integers with the unit class a generator and
    K1 zero.  Finite-component and Toeplitz targets additionally need a
    unique well-placed sink whose class is chi times the unit and whose
    quotient graph carries the right K-theory; the infinite-component
    target needs no sink plus at least two loops at every looped vertex.
    """
    factor = _single_factor(p)
    if factor is None:
        raise ValueError("verify_realization needs a single-factor profile")
    target = component_name(factor)
    full = graph_ktheory(dg)
    checks = [
        CheckRow(
            "k0_full_is_Z",
            full.k0 == Z_GROUP,
            f"K0 = {full.k0}",
        ),
        CheckRow(
            "unit_class_generates",
            full.unit_is_generator,
            f"unit class {list(full.unit_class)}",
        ),
        CheckRow(
            "k1_full_zero",
            full.k1_rank == 0,
            f"K1 rank = {full.k1_rank}",
        ),
    ]
    cond_k = condition_k(dg)
    scc = _strongly_connected(dg, dg.regular_vertices)
    if isinstance(factor, InfiniteComp):
        checks.append(
            CheckRow("no_sink", not dg.sinks, f"sinks = {list(dg.sinks)}")
        )
        checks.append(
            CheckRow(
                "condition_k",
                cond_k,
                "every looped vertex bases at least two simple loops"
                if cond_k
                else "some vertex bases exactly one simple loop",
            )
        )
        return RealizationReport(target, tuple(checks), cond_k, scc)
    chi = factor.chi if isinstance(factor, FiniteExt) else 0
    try:
        six = sink_ideal_analysis(dg)
    except ValueError as exc:
        checks.append(CheckRow("sink_ideal_analysis", False, str(exc)))
        return RealizationReport(target, tuple(checks), cond_k, scc)
    checks.append(
        CheckRow(
            "kappa_matches_chi",
            six.kappa == chi,
            f"kappa = {six.kappa}, chi = {chi}",
        )
    )
    want_quotient_k0 = AbGroup.cyclic(chi)
    checks.append(
        CheckRow(
            "quotient_k0",
            six.quotient.k0 == want_quotient_k0,
            f"quotient K0 = {six.quotient.k0}, want {want_quotient_k0}",
        )
    )
    want_k1 = 1 if chi == 0 else 0
    checks.append(
        CheckRow(
            "quotient_k1",
            six.quotient.k1_rank == want_k1,
            f"quotient K1 rank = {six.quotient.k1_rank}, want {want_k1}",
        )
    )
    return RealizationReport(target, tuple(checks), cond_k, scc)
