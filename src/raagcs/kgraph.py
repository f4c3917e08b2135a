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
through the Smith-normal-form verification, whose report is returned with
it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

from .artin import (
    AbGroup,
    ComponentClass,
    InfiniteComp,
    InvariantProfile,
    Toeplitz,
    Z_GROUP,
    component_ktheory,
    component_name,
    is_graph_algebra,
    profile_components,
)
from .graphs import LimitExceeded, ParseError, _bits, parse_count_header, parse_decimal, reachable, significant_lines

# Largest vertex count a dgraph may declare; the header is otherwise taken
# on trust and sizes every K-theory matrix and vertex scan.
DGRAPH_MAX = 1_000
# Cap on the weighted cells one Smith normal form writes: the 1 000-vertex
# cycle with multiplicity 2 takes 5.5e6, dense k x k matrices with entries
# in [-9, 9] take 1.2e8 at k = 60 and 4.8e8 at k = 70.
SNF_BUDGET = 300_000_000


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
            if not all(type(x) is int for x in (s, t, m)):
                raise TypeError(f"edge {(s, t)!r} of multiplicity {m!r} holds a non-int")
            if not 0 <= s < self.n or not 0 <= t < self.n:
                raise ValueError(f"edge ({s}, {t}) out of range")
            if m < 0:
                raise ValueError("edge multiplicities are nonnegative")
            if m:
                cleaned[(s, t)] = m
        object.__setattr__(self, "edge_mult", cleaned)
        for v in self.infinite_emitters:
            if type(v) is not int:
                raise TypeError(f"infinite emitter {v!r} is not an int")
            if not 0 <= v < self.n:
                raise ValueError(f"infinite emitter {v} out of range")

    @cached_property
    def successors(self) -> tuple[int, ...]:
        """Bit t of row s is set when s has an edge to t: the one view every
        per-vertex question reads, derived from edge_mult on first use."""
        rows = [0] * self.n
        for s, t in self.edge_mult:
            rows[s] |= 1 << t
        return tuple(rows)

    @cached_property
    def predecessors(self) -> tuple[int, ...]:
        """The successor rows transposed: bit s of row t for an edge s -> t."""
        rows = [0] * self.n
        for s, t in self.edge_mult:
            rows[t] |= 1 << s
        return tuple(rows)

    def emits(self, v: int) -> bool:
        return v in self.infinite_emitters or self.successors[v] != 0

    @property
    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.emits(v))

    @property
    def regular_vertices(self) -> tuple[int, ...]:
        return tuple(
            v for v in range(self.n) if self.successors[v] and v not in self.infinite_emitters
        )


def parse_dgraph(text: str) -> DirectedGraph:
    """Parse the directed-graph text format.

    The header ``dvertices: <k>`` is mandatory.  Each following line is
    either ``<src> <dst> <multiplicity>`` or ``<v> *`` to flag an infinite
    emitter (``significant_lines``).  Repeated edge lines add up.  A
    declared count above ``DGRAPH_MAX`` raises ``LimitExceeded``.
    """
    n: int | None = None
    mult: dict[tuple[int, int], int] = {}
    emitters: set[int] = set()
    for lineno, line in significant_lines(text):
        if line.startswith("dvertices:"):
            if n is not None:
                raise ParseError("repeated dvertices: header", lineno)
            n = parse_count_header(line, "dvertices:", DGRAPH_MAX, "dgraphs", lineno)
            continue
        if n is None:
            raise ParseError("missing dvertices: header", lineno)
        parts = line.split()
        if len(parts) == 2 and parts[1] == "*":
            if not (parts[0].isascii() and parts[0].isdigit()):
                raise ParseError(f"bad vertex {parts[0]!r}", lineno)
            emitters.add(_vertex_field(parts[0], n, "infinite emitter", lineno))
            continue
        if len(parts) != 3:
            raise ParseError("expected '<src> <dst> <mult>' or '<v> *'", lineno)
        if not all(x.isascii() and x.isdigit() for x in parts):
            raise ParseError(f"non-integer or negative field in {line!r}", lineno)
        s, t = (_vertex_field(x, n, "edge endpoint", lineno) for x in parts[:2])
        mult[s, t] = mult.get((s, t), 0) + parse_decimal(parts[2], "multiplicity", lineno)
    if n is None:
        raise ParseError("missing dvertices: header")
    return DirectedGraph(n, mult, frozenset(emitters))


def _vertex_field(x: str, n: int, what: str, lineno: int) -> int:
    """An ASCII-digit vertex field, checked against the vertex count."""
    digits = x.lstrip("0") or "0"
    # The length test keeps int() off digit strings it refuses.
    if len(digits) > len(str(n)):
        raise ParseError(f"{what} of {len(x)} digits out of range", lineno)
    v = int(digits)
    if v >= n:
        raise ParseError(f"{what} {v} out of range for {n} vertices", lineno)
    return v


def format_dgraph(dg: DirectedGraph) -> str:
    lines = [f"dvertices: {dg.n}"]
    lines.extend(f"{v} *" for v in sorted(dg.infinite_emitters))
    lines.extend(
        f"{s} {t} {m}" for (s, t), m in sorted(dg.edge_mult.items())
    )
    return "\n".join(lines) + "\n"


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

    Gcd-driven reduction with the pivot chosen as the first smallest
    nonzero entry in absolute value, row by row; the scan stops at a unit,
    which nothing beats, and a unit pivot skips the divisibility pass.
    Exact big integers throughout, so intermediate growth can never
    overflow.  Deterministic for a fixed input.

    The work is done on the bordered matrix [[A, I_m], [I_n, 0]]: a row
    operation on its first m rows carries U along with A, a column
    operation on its first n columns carries V, and D, U and V are its
    blocks at the end.  The zero block is never touched, so it is not kept.
    Each pass puts the pivot in place with its row positive.  The row step
    reduces the entries below it, on the pivot row's nonzero columns only;
    the column step those right of it, on the rows nonzero in its column
    only.  A remainder starts another pass.  Cells written, weighted by the
    pivot row's largest entry in 64-bit words, are capped at ``SNF_BUDGET``.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("matrix rows must have equal length")
    if not set(map(type, chain.from_iterable(a))) <= {int}:
        raise TypeError("matrix entries must be ints")
    W = [[*row] + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    W += [[int(i == j) for j in range(n)] for i in range(n)]
    k = work = 0
    while k < min(m, n):
        pivot = None
        best = 0
        for i in range(k, m):
            row = W[i]
            for j in range(k, n):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, pivot = x, (i, j)
                    if x == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        W[k], W[i] = W[i], W[k]
        if j != k:
            for row in W:
                row[k], row[j] = row[j], row[k]
        if W[k][k] < 0:
            W[k] = [-x for x in W[k]]
        top = W[k]
        p = top[k]
        weight = 1 + max(map(abs, top)).bit_length() // 64
        support = [j for j, x in enumerate(top) if x]
        for row in W[k + 1 : m]:
            q = row[k] // p
            if q:
                for j in support:
                    row[j] -= q * top[j]
                work += weight * len(support)
        carriers = [row for row in W if row[k]]
        for j in range(k + 1, n):
            q = top[j] // p
            if q:
                for row in carriers:
                    row[j] -= q * row[k]
                work += weight * len(carriers)
        if work > SNF_BUDGET:
            raise LimitExceeded(
                f"Smith normal form is capped at {SNF_BUDGET} weighted cell "
                f"updates, exceeded on a {m} x {n} matrix"
            )
        if any(top[k + 1 : n]) or any(row[k] for row in W[k + 1 : m]):
            continue
        if p > 1:
            # Pull any entry the pivot does not divide into row k, then rerun.
            stray = next((i for i in range(k + 1, m) if any(x % p for x in W[i][k + 1 : n])), None)
            if stray is not None:
                W[k] = [x + y for x, y in zip(top, W[stray])]
                continue
        k += 1
    return SmithDecomposition(
        U=tuple(tuple(row[n:]) for row in W[:m]),
        D=tuple(tuple(row[:n]) for row in W[:m]),
        V=tuple(map(tuple, W[m:])),
    )


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
    column = {x: c for c, x in enumerate(regs)}
    B = [[0] * len(regs) for _ in range(n)]
    for x, c in column.items():
        B[x][c] = -1
    for (x, y), m in dg.edge_mult.items():
        if x in column:
            B[y][column[x]] += m
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
    unit = coords([sum(row) for row in snf.U])
    vertex = tuple(map(coords, zip(*snf.U)))
    # Every int of the report must print.  A limit of 0 means none, as on a
    # Python older than the call; an int of at most 3 * limit bits is below
    # 8 ** limit, so 10 ** limit is built only for a wider one.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    widest = max(map(abs, chain(k0.torsion, unit, *vertex)), default=0)
    if limit and widest.bit_length() > 3 * limit and widest >= 10**limit:
        digits = int(math.log10(widest))  # off by at most one
        digits += (widest >= 10**digits) + (widest >= 10 ** (digits + 1))
        raise LimitExceeded(
            f"K-theory integers are capped at {limit} digits (Python's int-to-string "
            f"limit), got one of {digits} digits on a {n}-vertex dgraph"
        )
    return KTheoryReport(
        k0=k0,
        k1_rank=len(regs) - rank,
        unit_class=unit,
        vertex_class=vertex,
        regular_vertices=regs,
    )


@dataclass(frozen=True)
class SixTermCheck:
    """K-theory of a graph with one sink, the sink's quotient graph and its
    K-theory, and the integer kappa with [p_sink] = kappa * [unit] when K0
    is the integers with the unit a generator."""

    sink: int
    full: KTheoryReport
    quotient: KTheoryReport
    kappa: int | None
    quotient_graph: DirectedGraph


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
        if dg.successors[v] == 1 << w:
            raise ValueError(
                f"{{{w}}} is not saturated: vertex {v} sends all edges to it"
            )
    if not dg.predecessors[w]:  # w has no loop: any edge in is from another vertex
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
    kappa = None
    if full.unit_is_generator:
        kappa = full.vertex_class[w][0] * full.unit_class[0]
    return SixTermCheck(
        sink=w, full=full, quotient=graph_ktheory(quotient), kappa=kappa, quotient_graph=quotient
    )


def _strong_component(dg: DirectedGraph, v: int, allowed: int) -> int:
    """The mask of v's strongly connected component among ``allowed``: what v
    reaches through vertices of ``allowed`` that reach v."""
    return reachable(dg.successors, v, reachable(dg.predecessors, v, allowed))


def condition_k(dg: DirectedGraph) -> bool:
    """Condition (K): no vertex is the base of exactly one return path.

    A return path leaves its base and comes back, repeating any vertex but
    the base; parallel edges count separately (Kumjian, Pask, Raeburn and
    Renault, J. Funct. Anal. 144, 1997).  Every vertex on a return path
    lies in the base's strongly connected component, so a vertex bases
    exactly one iff its component is a single cycle: each member has one
    out-edge, counted with multiplicity, inside the component.  Components
    are taken by least unseen vertex; a path between two members of one
    never leaves it, so searching only unseen vertices is exact.
    """
    succ, mult = dg.successors, dg.edge_mult
    unseen = (1 << dg.n) - 1
    while unseen:
        comp = _strong_component(dg, (unseen & -unseen).bit_length() - 1, unseen)
        unseen ^= comp
        if all(sum(mult[u, t] for t in _bits(succ[u] & comp)) == 1 for u in _bits(comp)):
            return False
    return True


def strongly_connected_regular(dg: DirectedGraph) -> bool:
    """True when each regular vertex reaches every other one through regular
    vertices (vacuously so for at most one regular vertex)."""
    regs = sum(1 << v for v in dg.regular_vertices)
    start = (regs & -regs).bit_length() - 1
    return not regs & regs - 1 or _strong_component(dg, start, regs) == regs


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
    """The one tensor factor of a profile's algebra, or None.  Any o >= 1
    with nothing else is one O_inf: O_inf (x) O_inf is O_inf again, and
    its normal form is the one of o = 1."""
    parts = profile_components(p)
    if len(parts) != 1:
        return None
    factor, count = parts[0]
    return factor if count == 1 or isinstance(factor, InfiniteComp) else None


def _template(factor: ComponentClass) -> DirectedGraph:
    """The shipped directed graph for one tensor factor."""
    if isinstance(factor, Toeplitz):
        return DirectedGraph(2, {(0, 0): 1, (0, 1): 1})
    if isinstance(factor, InfiniteComp):
        return DirectedGraph(1, {(0, 0): 2}, frozenset({0}))
    chi = factor.chi
    if chi < 0:
        return DirectedGraph(2, {(0, 0): 1 - chi, (0, 1): 1 - chi})
    if chi == 0:
        return DirectedGraph(
            4, {(0, 1): 1, (1, 1): 2, (1, 2): 1, (1, 3): 1, (2, 2): 2, (2, 1): 1}
        )
    return DirectedGraph(3, {(0, 1): 3 * chi - 2, (0, 2): 2, (1, 1): chi + 1, (1, 2): 1})


def realize(p: InvariantProfile) -> tuple[DirectedGraph, RealizationReport]:
    """Directed graph whose algebra matches a single-factor profile, with
    the verify_realization report it passed.

    Raises NotRealizable when the profile's algebra is not a graph algebra
    at all, and RealizationNotImplemented when it is one but has zero or
    several tensor factors (only single-factor templates are shipped).
    A template that fails its verification raises RuntimeError.
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
    dg = _template(factor)
    report = verify_realization(dg, p)
    if not report.passed:
        raise RuntimeError(
            f"template for {component_name(factor)} failed self-verification: "
            + "; ".join(f"{c.name}: {c.detail}" for c in report.checks if not c.ok)
        )
    return dg, report


def _holds(ok: bool) -> str:
    return "holds" if ok else "fails"


def verify_realization(dg: DirectedGraph, p: InvariantProfile) -> RealizationReport:
    """Check a directed graph against a single-factor profile's K-theory.

    The targets are read from ``component_ktheory``: K0, the unit's class
    and K1 of the full algebra always; then, for a component with an index
    value, a unique well-placed sink whose class is the index value times
    the unit and whose quotient graph carries the quotient K-theory, and
    for one without, no sink plus condition (K).  T and E_1^0 agree on all
    of that, so the quotient graph's condition (K) tells them apart: T's
    quotient C(T) is one loop, which fails it, while an E factor's quotient
    is purely infinite and simple, so its graph is cofinal with condition
    (L), which gives (K) (Kumjian, Pask, Raeburn and Renault, 1997).
    """
    factor = _single_factor(p)
    if factor is None:
        raise ValueError("verify_realization needs a single-factor profile")
    want = component_ktheory(factor)
    six = failure = None
    if want.index_value is not None:
        try:
            six = sink_ideal_analysis(dg)
        except ValueError as exc:
            failure = CheckRow("sink_ideal_analysis", False, str(exc))
    full = graph_ktheory(dg) if six is None else six.full
    checks = [
        CheckRow("k0_full_is_Z", full.k0 == want.k0_full, f"K0 = {full.k0}"),
        CheckRow(
            "unit_class_generates",
            full.unit_is_generator == want.unit_is_generator,
            f"unit class {list(full.unit_class)}",
        ),
        CheckRow("k1_full_zero", full.k1 == want.k1_full, f"K1 rank = {full.k1_rank}"),
    ]
    cond_k = condition_k(dg)
    if want.index_value is None:
        checks.append(CheckRow("no_sink", not dg.sinks, f"sinks = {list(dg.sinks)}"))
        checks.append(
            CheckRow(
                "condition_k",
                cond_k,
                "no strongly connected component is a single cycle"
                if cond_k
                else "some strongly connected component is a single cycle",
            )
        )
    elif six is None:
        checks.append(failure)
    else:
        chi = want.index_value
        checks.append(
            CheckRow("kappa_matches_chi", six.kappa == chi, f"kappa = {six.kappa}, chi = {chi}")
        )
        checks.append(
            CheckRow(
                "quotient_k0",
                six.quotient.k0 == want.k0_quotient,
                f"quotient K0 = {six.quotient.k0}, want {want.k0_quotient}",
            )
        )
        checks.append(
            CheckRow(
                "quotient_k1",
                six.quotient.k1 == want.k1_quotient,
                f"quotient K1 rank = {six.quotient.k1_rank}, want {want.k1_quotient.free_rank}",
            )
        )
        got_k, want_k = condition_k(six.quotient_graph), not isinstance(factor, Toeplitz)
        checks.append(
            CheckRow(
                "quotient_condition_k",
                got_k == want_k,
                f"quotient condition (K) {_holds(got_k)}, want {_holds(want_k)}",
            )
        )
    return RealizationReport(
        want.component, tuple(checks), cond_k, strongly_connected_regular(dg)
    )
