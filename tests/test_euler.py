"""Clique counts and the flag-complex Euler characteristic."""

from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import given, settings

import raagcs.euler as euler
from raagcs import (
    CliqueCountVector,
    LimitExceeded,
    UndirectedGraph,
    clique_counts,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    euler_characteristic,
    euler_oracle,
    graph_join,
    path_graph,
)
from conftest import graphs, random_graph, random_join, reference_clique_counts, relabelled


def co_path_counts(n: int) -> tuple[int, ...]:
    """k-cliques of the complement of the n-vertex path: C(n - k + 1, k)."""
    return tuple(comb(n - k + 1, k) for k in range(1, n + 1))


def co_cycle_counts(n: int) -> tuple[int, ...]:
    """k-cliques of the complement of the n-cycle: n / (n - k) * C(n - k, k)."""
    return tuple(n * comb(n - k, k) // (n - k) if k < n else 0 for k in range(1, n + 1))


class TestCliqueCountVector:
    def test_euler_alternates(self):
        assert CliqueCountVector(()).euler() == 1
        assert CliqueCountVector((5,)).euler() == -4
        assert CliqueCountVector((3, 3, 1)).euler() == 0


class TestCliqueCounts:
    def test_complete_graph_binomials(self):
        assert clique_counts(complete_graph(5)).counts == (5, 10, 10, 5, 1)

    def test_cycle(self):
        assert clique_counts(cycle_graph(6)).counts == (6, 6, 0, 0, 0, 0)

    def test_empty_graph(self):
        assert clique_counts(empty_graph(4)).counts == (4, 0, 0, 0)
        assert clique_counts(empty_graph(0)).counts == ()


class TestAgainstReference:
    """Full count vectors against the enumeration in ``conftest``.

    With ``CLIQUE_LIST_MAX`` at 0 or 3 the component splits and the
    branching run on almost every set, not only above 12 vertices.
    """

    @pytest.fixture(autouse=True, params=[0, 3, euler.CLIQUE_LIST_MAX])
    def list_max(self, request, monkeypatch):
        monkeypatch.setattr(euler, "CLIQUE_LIST_MAX", request.param)

    def test_seeded_random_graphs(self):
        rng = random.Random(9090)
        for _ in range(250):
            p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.85, 0.95))
            g = random_graph(rng, rng.randint(0, 22), p)
            assert clique_counts(g).counts == reference_clique_counts(g)

    def test_seeded_joins(self):
        rng = random.Random(9091)
        for _ in range(120):
            g = random_join(rng, rng.randint(1, 22))
            assert clique_counts(g).counts == reference_clique_counts(g)

    def test_seeded_disjoint_unions(self):
        rng = random.Random(9092)
        for _ in range(120):
            g = empty_graph(0)
            for _ in range(rng.randint(2, 4)):
                block = random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.7, 0.95)))
                g = disjoint_union(g, block)
            g = relabelled(rng, g)
            assert clique_counts(g).counts == reference_clique_counts(g)

    @given(graphs(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_corpus(self, g):
        assert clique_counts(g).counts == reference_clique_counts(g)


class TestClosedForms:
    """Families whose cliques are far too many to list, natural and relabelled."""

    @pytest.mark.parametrize("n", [60, 200])
    def test_complement_of_path(self, n):
        g = complement(path_graph(n))
        for h in (g, relabelled(random.Random(n), g)):
            assert clique_counts(h).counts == co_path_counts(n)

    def test_complement_of_cycle(self):
        g = complement(cycle_graph(60))
        for h in (g, relabelled(random.Random(60), g)):
            assert clique_counts(h).counts == co_cycle_counts(60)

    def test_complete_graph(self):
        # Every relabelling of K_n is K_n itself.
        assert clique_counts(complete_graph(300)).counts == tuple(
            comb(300, k) for k in range(1, 301)
        )

    def test_join_multiplies_clique_polynomials(self):
        g = graph_join(complement(path_graph(40)), complement(cycle_graph(30)))
        left = (1,) + co_path_counts(40)
        right = (1,) + co_cycle_counts(30)
        want = [0] * (g.n + 1)
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                want[i + j] += a * b
        for h in (g, relabelled(random.Random(70), g)):
            assert clique_counts(h).counts == tuple(want[1:])

    def test_long_complement_of_path_never_recurses(self):
        # Natural labels make the deepest chain of subproblems; the answer
        # is the closed form or the work budget, never a RecursionError.
        n = 2000
        try:
            counts = clique_counts(complement(path_graph(n))).counts
        except LimitExceeded as exc:
            assert f"clique counting is capped at {euler.CLIQUE_BUDGET} steps" in str(exc)
            assert f"n = {n} with {n * (n - 1) // 2 - (n - 1)} edges" in str(exc)
        else:
            assert counts == co_path_counts(n)


class TestWorkBudget:
    def test_over_budget_names_the_stage_and_the_size(self, monkeypatch):
        monkeypatch.setattr(euler, "CLIQUE_BUDGET", 1000)
        message = "capped at 1000 steps of work, exceeded on n = 60 with 1711 edges"
        with pytest.raises(LimitExceeded, match="clique counting is " + message):
            clique_counts(complement(path_graph(60)))

    def test_component_products_count_as_work(self, monkeypatch):
        # K_300 plans 301 sets, then multiplies 300 factors 1 + x: about
        # 45 000 coefficient products.
        monkeypatch.setattr(euler, "CLIQUE_BUDGET", 5000)
        with pytest.raises(LimitExceeded, match="n = 300 with 44850 edges"):
            clique_counts(complete_graph(300))

    def test_cap_has_tenfold_headroom(self, monkeypatch):
        monkeypatch.setattr(euler, "CLIQUE_BUDGET", euler.CLIQUE_BUDGET // 10)
        g = complement(path_graph(400))
        for h in (g, relabelled(random.Random(400), g), complete_graph(300)):
            clique_counts(h)


class TestEulerCharacteristic:
    def test_singleton_scores_zero(self):
        assert euler_characteristic(empty_graph(1)) == 0

    def test_empty_graphs(self):
        for m in range(8):
            assert euler_characteristic(empty_graph(m + 1)) == -m

    def test_complete_graphs_score_zero(self):
        for n in range(1, 8):
            assert euler_characteristic(complete_graph(n)) == 0

    def test_paths_score_zero(self):
        for n in range(1, 8):
            assert euler_characteristic(path_graph(n)) == 0

    def test_cycles(self):
        assert euler_characteristic(cycle_graph(3)) == 0
        for n in range(4, 9):
            assert euler_characteristic(cycle_graph(n)) == 1

    def test_complete_bipartite(self):
        # No triangles, so chi = 1 - (a+b) + ab = (1-a)(1-b).
        for a in range(1, 5):
            for b in range(1, 5):
                assert euler_characteristic(complete_bipartite(a, b)) == (
                    (1 - a) * (1 - b)
                )

    def test_isolated_vertices_subtract_one_each(self):
        g = cycle_graph(5)
        for j in range(4):
            padded = disjoint_union(g, empty_graph(j))
            assert euler_characteristic(padded) == 1 - j


class TestOracle:
    def test_agrees_on_seeded_corpus(self):
        rng = random.Random(2026)
        for _ in range(120):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            assert euler_characteristic(g) == euler_oracle(g)

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_agrees_on_hypothesis_corpus(self, g):
        assert euler_characteristic(g) == euler_oracle(g)

    def test_cap(self):
        with pytest.raises(LimitExceeded):
            euler_oracle(empty_graph(21))

    def test_dense_graph(self):
        g = UndirectedGraph.from_edges(
            6, frozenset({(u, v) for u in range(6) for v in range(u + 1, 6)} - {(0, 5)})
        )
        assert euler_characteristic(g) == euler_oracle(g)
