"""The four workloads: seeded inputs, the call each op makes, and its check.

A workload is a menu of op kinds.  A run plays the menu in rounds: every
round holds each menu item once, in a seeded order, so each round has the
same mix and size distribution and a run's statistics do not depend on
where the deadline falls.  For every menu item a run draws a small seeded
pool of base inputs and works out their answers with ``reference`` (or,
for K-theory, with a Smith normal form whose ``U A V = D`` certificate the
benchmark multiplies out).  Each op then sends one base input under a
fresh seeded vertex relabelling, so no two ops send the same bytes while
every answer is still known in advance.

The library is reached through its module objects (``cli.main``,
``graphs.parse_edge_list``, ...) looked up at call time, so a traced run
that wraps those module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from raagcs import artin, cli, graphs, kgraph

import reference as ref

CENSUS_N = 6
CENSUS_SHA256_PREFIX = "a52efe06dbc28da6"


class CliResult(NamedTuple):
    code: int
    out: str


@dataclass
class Op:
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def run_cli(argv: list[str]) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def cli_op(argv: list[str], check_doc: Callable[[dict], bool]) -> Op:
    def check(res: CliResult) -> bool:
        return res.code == 0 and check_doc(json.loads(res.out))

    return Op(lambda: run_cli(argv), check)


# ------------------------------------------------------------ graph inputs


@dataclass(frozen=True)
class BaseGraph:
    """A generated graph and its reference answers."""

    n: int
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[tuple[int, ...], int | None], ...]  # chi None: singleton
    poly: tuple[int, ...]

    @property
    def profile(self) -> dict:
        chis = [chi for _, chi in self.components if chi is not None]
        return ref.profile_json(len(self.components) - len(chis), chis)


def _sparse_edges(rng: random.Random, n: int) -> tuple[tuple[int, int], ...]:
    """3n/2 random edges on n vertices (average degree 3)."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < 3 * n // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def _block(rng: random.Random, spec: tuple) -> BaseGraph:
    """One generated block with its answers: random blocks get them from
    the reference search and counter, the families from closed forms."""
    kind, n = spec[0], spec[1]
    everything = tuple(range(n))
    if kind in ("gnp", "sparse"):
        if kind == "gnp":
            edges = tuple(
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < spec[2]
            )
        else:
            edges = _sparse_edges(rng, n)
        adj = ref.adjacency(n, edges)
        comps = tuple(
            (c, None if len(c) == 1 else ref.poly_at_minus_one(ref.clique_poly(c, adj)))
            for c in ref.complement_components(n, adj)
        )
        return BaseGraph(n, edges, comps, tuple(ref.clique_poly(everything, adj)))
    pairs = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    if kind == "complete":
        return BaseGraph(
            n, pairs, tuple(((v,), None) for v in range(n)), tuple(ref.complete_poly(n))
        )
    if kind == "co_path":
        missing = {(i, i + 1) for i in range(n - 1)}
        poly = ref.co_path_poly(n)
    else:  # co_cycle
        missing = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
        poly = ref.co_cycle_poly(n)
    edges = tuple(e for e in pairs if e not in missing)
    return BaseGraph(n, edges, ((everything, ref.poly_at_minus_one(poly)),), tuple(poly))


def join_graph(rng: random.Random, specs: tuple) -> BaseGraph:
    """The join of one generated block per spec."""
    n = 0
    edges: list[tuple[int, int]] = []
    comps: list = []
    poly = [1]
    for spec in specs:
        b = _block(rng, spec)
        edges.extend((u, n + v) for u in range(n) for v in range(b.n))
        edges.extend((n + u, n + v) for u, v in b.edges)
        comps.extend((tuple(n + v for v in c), chi) for c, chi in b.components)
        poly = ref.poly_mul(poly, list(b.poly))
        n += b.n
    return BaseGraph(n, tuple(edges), tuple(comps), tuple(poly))


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def graph6(n: int, edges) -> str:
    """Small-format graph6 of a graph on at most 62 vertices."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(u, v) in present for v in range(n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    body = bytes(
        63 + sum(bit << (5 - i) for i, bit in enumerate(bits[k : k + 6]))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body.decode("ascii")


def relabelled_graph6(rng: random.Random, g: BaseGraph) -> tuple[str, list[int]]:
    perm = permutation(rng, g.n)
    return graph6(g.n, [(perm[u], perm[v]) for u, v in g.edges]), perm


def edge_list_text(rng: random.Random, g: BaseGraph) -> str:
    perm = permutation(rng, g.n)
    lines = [f"{perm[u]} {perm[v]}" for u, v in g.edges]
    rng.shuffle(lines)
    return f"vertices: {g.n}\n" + "\n".join(lines) + "\n"


# --------------------------------------------------------------- workloads


class Workload:
    """Seeded menu of op kinds; subclasses build the pools and the ops.

    Latencies of one kind cluster, so a rank statistic jumps when its rank
    moves from one cluster to the next.  Each menu therefore has an odd
    number of items, with its middle item inside a cluster that is well
    apart from the next, which keeps the median there; and enough of the
    heaviest kind that it holds more than ten ops even of a run on a slow
    machine, which keeps the tail among them.
    """

    name = ""
    # Base inputs drawn per menu item; round i sends the (i mod size)-th.
    pool_size = 3
    # Statement run once in a fresh interpreter after ``import raagcs.cli``:
    # the workload's first, smallest call, which every CLI process pays.
    setup_statement = ""
    menu: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}/pool")
        self.pools = [
            [self.base(rng, item) for _ in range(self.pool_size)] for item in self.menu
        ]

    def base(self, rng: random.Random, item: tuple) -> Any:
        return item

    def make_op(self, rng: random.Random, item: tuple, base: Any) -> Op:
        raise NotImplementedError

    def round(self, index: int) -> list[Op]:
        """The ops of one round: every menu item once, in seeded order, each
        with the next base input of its pool."""
        rng = random.Random(f"{self.name}/{self.seed}/round/{index}")
        order = list(range(len(self.menu)))
        rng.shuffle(order)
        return [
            self.make_op(rng, self.menu[i], self.pools[i][index % self.pool_size])
            for i in order
        ]

    def run_checks(self) -> dict[str, tuple[Any, bool]]:
        """Untimed once-per-run checks: name -> (value, passed)."""
        return {"cli_probe_100_vertices_exit_code": probe_over_graph6_cap()}


def probe_over_graph6_cap() -> tuple[int, bool]:
    """Classify a fixed 100-vertex edge list through the CLI.

    Known defect: every graph subcommand echoes its input as graph6, which
    caps at 62 vertices, so this exits 3.  Exit 0 is accepted only with the
    right profile (the cycle C_100 is one co-irreducible factor, chi = 1).
    """
    text = "\n".join(f"v{i} v{(i + 1) % 100}" for i in range(100)) + "\n"
    res = run_cli(["classify", text, "--json"])
    if res.code == 0:
        return 0, json.loads(res.out)["profile"] == ref.profile_json(0, [1])
    return res.code, res.code == 3


class Census(Workload):
    """``enumerate 6 --json``: the whole census, dominated by canonical form."""

    name = "census"
    setup_statement = 'cli.main(["enumerate", "3", "--json"])'
    menu = (("enumerate", CENSUS_N),)

    def make_op(self, rng, item, base):
        def check(res: CliResult) -> bool:
            digest = hashlib.sha256(res.out.encode()).hexdigest()
            return res.code == 0 and digest.startswith(CENSUS_SHA256_PREFIX)

        return Op(lambda: run_cli(["enumerate", str(CENSUS_N), "--json"]), check)

    def run_checks(self):
        res = run_cli(["enumerate", "5", "--golden", "--json"])
        golden = res.code == 0 and json.loads(res.out)["golden"]["match"] is True
        return {"census_5_golden_exit_code": (res.code, golden), **super().run_checks()}


class ClassifyDense(Workload):
    """CLI verdicts on graph6 inputs with n <= 30, clique counts 1e2 .. 1e6."""

    name = "classify_dense"
    setup_statement = 'cli.main(["classify", "Dhc", "--json"])'
    small = (("gnp", 10, 0.5),)
    pair = (("gnp", 12, 0.6),)
    joined = (("gnp", 5, 0.5), ("gnp", 6, 0.5), ("complete", 2))
    # 24 light ops of 2-4 ms hold the median; co-P_28 is the tail.
    menu = (
        (("classify", small),) * 6
        + (("compare", small, None),) * 4
        + (("compare", pair, pair),) * 2
        + (("euler", (("gnp", 12, 0.5),)),) * 6
        + (("decompose", joined),) * 6
        + (
            ("classify", (("gnp", 20, 0.7),)),
            ("classify", (("gnp", 30, 0.6),)),
            ("classify", (("gnp", 16, 0.9),)),
            ("classify", (("co_path", 28),)),
            ("classify", (("co_path", 22), ("complete", 3), ("gnp", 5, 0.5))),
            ("compare", (("co_cycle", 22),), (("co_path", 20),)),
            ("euler", (("complete", 16),)),
            ("euler", (("co_cycle", 26),)),
            ("decompose", (("co_path", 20), ("gnp", 8, 0.6))),
        )
    )

    def base(self, rng, item):
        # A compare item without a right-hand spec compares a graph with a
        # relabelling of itself.
        specs = item[1:] if item[0] == "compare" else item[1:2]
        return tuple(join_graph(rng, s) if s else None for s in specs)

    def make_op(self, rng, item, base):
        command, g = item[0], base[0]
        text, perm = relabelled_graph6(rng, g)
        if command == "compare":
            h = base[1] or g
            other, _ = relabelled_graph6(rng, h)
            nfs = [ref.normal_form_json(x.profile) for x in (g, h)]
            snfs = [ref.normal_form_json(x.profile, stable=True) for x in (g, h)]
            return cli_op(
                ["compare", text, other, "--json"],
                lambda d: d["isomorphic"] == (nfs[0] == nfs[1])
                and d["stably_isomorphic"] == (snfs[0] == snfs[1]),
            )
        if command == "euler":
            counts = list(g.poly[1:]) + [0] * (g.n + 1 - len(g.poly))
            chi = ref.poly_at_minus_one(list(g.poly))
            return cli_op(
                ["euler", text, "--json"],
                lambda d: d["clique_counts"] == counts and d["euler_characteristic"] == chi,
            )
        if command == "decompose":
            want = sorted((sorted(perm[v] for v in c), chi) for c, chi in g.components)
            return cli_op(
                ["decompose", text, "--json"],
                lambda d: sorted((c["vertices"], c["chi"]) for c in d["components"]) == want
                and d["profile"] == g.profile,
            )
        nf = ref.normal_form_json(g.profile)
        snf = ref.normal_form_json(g.profile, stable=True)
        return cli_op(
            ["classify", text, "--json"],
            lambda d: d["profile"] == g.profile
            and d["normal_form"] == nf
            and d["stable_normal_form"] == snf,
        )


def sparse_verdict(text: str) -> tuple:
    """The library classification path on edge-list text."""
    g = graphs.parse_edge_list(text)
    p = artin.invariant_profile(g)
    return (
        p,
        artin.normal_form(p),
        artin.stable_normal_form(p),
        artin.algebra_name(p),
        artin.is_graph_algebra(p),
        artin.semiprojectivity(p),
    )


class ClassifySparse(Workload):
    """Library verdicts on sparse edge lists (n = 200 .. 800) and joins."""

    name = "classify_sparse"
    setup_statement = (
        "from raagcs import artin, graphs; "
        "artin.algebra_name(artin.invariant_profile(graphs.parse_edge_list('0 1\\n1 2\\n')))"
    )
    # The 800-vertex graphs come three to a round so that the tail still
    # falls among them when a slow machine plays only four rounds.
    menu = (
        ("sparse", 200),
        ("join", 300),
        ("sparse", 400),
        ("sparse", 600),
        ("sparse", 800),
        ("sparse", 800),
        ("sparse", 800),
    )

    def base(self, rng, item):
        """A sparse graph, or the join of 2-4 sparse blocks of equal size."""
        k = rng.randint(2, 4) if item[0] == "join" else 1
        return join_graph(rng, (("sparse", item[1] // k),) * k)

    def make_op(self, rng, item, base):
        text = edge_list_text(rng, base)
        profile = base.profile
        nf = ref.normal_form_json(profile)
        snf = ref.normal_form_json(profile, stable=True)

        def check(res: tuple) -> bool:
            p, got_nf, got_snf = res[:3]
            return (
                _profile_doc(p) == profile
                and _nf_doc(got_nf) == nf
                and _nf_doc(got_snf) == snf
            )

        return Op(lambda: sparse_verdict(text), check)


def _profile_doc(p: Any) -> dict:
    return {"t": p.t.value, "o": p.o.value, "N": [[k, c.value] for k, c in p.N]}


def _nf_doc(nf: Any) -> dict:
    return {
        "t": nf.t.value,
        "z": nf.z.value,
        "M": [[k, c.value] for k, c in nf.M],
        "omin": nf.omin,
        "parity": nf.parity,
    }


@dataclass(frozen=True)
class BaseDigraph:
    """A generated directed graph and its certified K-theory."""

    n: int
    mult: tuple[tuple[int, int, int], ...]
    sinks: tuple[int, ...]
    emitters: tuple[int, ...]
    k0_free: int
    k0_torsion: tuple[int, ...]
    k1_free: int
    unit_is_generator: bool


BLOCK = 8
LADDER_N = 28


def _digraph(rng: random.Random, n: int, sinks: int, emitters: int) -> BaseDigraph:
    """Random digraph of strongly connected blocks of BLOCK vertices.

    The last ``sinks`` vertices emit nothing.  Every other vertex lies on a
    cycle through its block, sends 0-2 more edges of multiplicity 1-2 into
    its block and, with probability 0.3, one edge to a random sink;
    ``emitters`` of them are flagged infinite emitters.  No edge joins two
    blocks: ``condition_k`` walks every simple path from each vertex, which
    is exponential on digraphs with long paths (see ``ladder_probe``).
    """
    mult: dict[tuple[int, int], int] = {}
    core = n - sinks
    for start in range(0, core, BLOCK):
        block = range(start, min(start + BLOCK, core))
        for i, v in enumerate(block):
            targets = [block[(i + 1) % len(block)]]
            targets += [rng.choice(block) for _ in range(rng.randint(0, 2))]
            for t in targets:
                mult[(v, t)] = mult.get((v, t), 0) + rng.randint(1, 2)
            if sinks and rng.random() < 0.3:
                key = (v, rng.randrange(core, n))
                mult[key] = mult.get(key, 0) + 1
    return certified(n, mult, tuple(range(core, n)), tuple(sorted(rng.sample(range(core), emitters))))


def certified(n: int, mult: dict, sinks: tuple, emitters: tuple) -> BaseDigraph:
    """K-theory of a digraph from a Smith normal form D = U A V whose
    certificate is multiplied out here."""
    regs = [v for v in range(n) if v not in sinks and v not in emitters]
    a = [[mult.get((x, y), 0) - (x == y) for x in regs] for y in range(n)]
    snf = kgraph.smith_normal_form(a)
    u, d, w = ([list(row) for row in m] for m in (snf.U, snf.D, snf.V))
    if ref.mat_mul(ref.mat_mul(u, a), w) != d:
        raise RuntimeError("Smith normal form certificate U A V = D does not hold")
    diag = [d[i][i] for i in range(min(n, len(regs)))]
    off_diagonal = any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j)
    nonzero = [x for x in diag if x]
    if (
        off_diagonal
        or any(x < 0 for x in diag)
        or diag[: len(nonzero)] != nonzero
        or any(y % x for x, y in zip(nonzero, nonzero[1:]))
    ):
        raise RuntimeError("Smith normal form D is not a divisibility chain")
    rank = len(nonzero)
    torsion = tuple(x for x in nonzero if x >= 2)
    unit_image = [sum(row) for row in u]
    return BaseDigraph(
        n=n,
        mult=tuple((s, t, m) for (s, t), m in sorted(mult.items())),
        sinks=sinks,
        emitters=emitters,
        k0_free=n - rank,
        k0_torsion=torsion,
        k1_free=len(regs) - rank,
        unit_is_generator=n - rank == 1 and not torsion and abs(unit_image[rank]) == 1,
    )


def ktheory_op(rng: random.Random, g: BaseDigraph, perm: list[int]) -> Op:
    lines = [f"{perm[s]} {perm[t]} {m}" for s, t, m in g.mult]
    rng.shuffle(lines)
    text = "\n".join([f"dvertices: {g.n}"] + [f"{perm[v]} *" for v in g.emitters] + lines)
    sinks = sorted(perm[v] for v in g.sinks)
    emitters = sorted(perm[v] for v in g.emitters)
    return cli_op(
        ["ktheory", text + "\n", "--json"],
        lambda d: d["k0"]["free_rank"] == g.k0_free
        and d["k0"]["torsion"] == list(g.k0_torsion)
        and d["k1"]["free_rank"] == g.k1_free
        and d["unit_is_generator"] == g.unit_is_generator
        and d["sinks"] == sinks
        and d["infinite_emitters"] == emitters,
    )


def ladder_probe() -> tuple[float, bool]:
    """Seconds ``ktheory`` takes on the ladder v -> v+1, v -> v+2.

    Known defect: ``condition_k`` walks every simple path from each vertex,
    about Fibonacci(n) steps on this n-vertex digraph, so ``ktheory`` on a
    60-vertex ladder would not finish.  The figure shows when that changes;
    the check itself is on the answer.
    """
    n = LADDER_N
    mult = {(v, v + 1): 1 for v in range(n - 1)} | {(v, v + 2): 1 for v in range(n - 2)}
    op = ktheory_op(random.Random(0), certified(n, mult, (n - 1,), ()), list(range(n)))
    t0 = time.perf_counter()
    res = op.call()
    return time.perf_counter() - t0, op.check(res)


REALIZE_TARGETS = ["t=1", "o=1"] + [f"N[{k}]=1" for k in range(-30, 31)]


def _realize_target(spec: str) -> str:
    if spec == "o=1":
        return "O_inf"
    return ref.component_name(None if spec == "t=1" else int(spec[2:-3]))


class KTheory(Workload):
    """``ktheory`` on digraphs with n = 20 .. 120 plus single-factor ``realize``."""

    name = "ktheory"
    # The cost of a large digraph varies up to twofold with its random
    # structure, so the heavy items draw more base inputs per run.
    pool_size = 12
    setup_statement = 'cli.main(["ktheory", "dvertices: 2\\n0 0 1\\n0 1 1\\n", "--json"])'
    # The 18 realize calls hold the median; n = 120 comes twice for the tail.
    menu = (
        ("ktheory", 20, 1, 1),
        ("ktheory", 40, 0, 2),
        ("ktheory", 60, 2, 1),
        ("ktheory", 80, 1, 0),
        ("ktheory", 100, 0, 3),
        ("ktheory", 120, 2, 2),
        ("ktheory", 120, 2, 2),
    ) + (("realize",),) * 18

    def base(self, rng, item):
        return _digraph(rng, *item[1:]) if item[0] == "ktheory" else None

    def make_op(self, rng, item, base):
        if item[0] == "realize":
            spec = rng.choice(REALIZE_TARGETS)
            target = _realize_target(spec)
            return cli_op(
                ["realize", spec, "--json"],
                lambda d: d["target"] == target and d["verification"]["passed"] is True,
            )
        return ktheory_op(rng, base, permutation(rng, base.n))

    def run_checks(self):
        return {f"cli_ktheory_ladder_{LADDER_N}_seconds": ladder_probe(), **super().run_checks()}


WORKLOADS = {w.name: w for w in (Census, ClassifyDense, ClassifySparse, KTheory)}
