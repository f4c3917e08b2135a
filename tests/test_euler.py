"""Clique counts and the flag-complex Euler characteristic."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from raagcs import (
    CliqueCountVector,
    LimitExceeded,
    UndirectedGraph,
    clique_counts,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    euler_characteristic,
    euler_oracle,
    path_graph,
)
from conftest import graphs, random_graph


class TestCliqueCountVector:
    def test_count_boundaries(self):
        vec = CliqueCountVector((3, 2))
        assert vec.count(1) == 3
        assert vec.count(2) == 2
        assert vec.count(3) == 0
        assert vec.count(0) == 0

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
