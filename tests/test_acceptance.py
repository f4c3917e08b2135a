"""Acceptance gate: one test per numbered delivery criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Everything here is exact; no tolerances apply.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from raagcs import (
    UndirectedGraph,
    compare,
    complete_bipartite,
    decompose,
    decompose_oracle,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    euler_characteristic,
    euler_oracle,
    graph_ktheory,
    invariant_profile,
    normal_form,
    parse_profile_spec,
    realize,
    sink_ideal_analysis,
    smith_normal_form,
    stable_normal_form,
)
from raagcs.artin import Z_GROUP, AbGroup
from raagcs.cli import (
    build_census,
    golden_mismatches,
    load_golden,
    profile_spec_string,
)
from conftest import integer_determinant, mat_mul, random_graph, random_matrix, random_profile

p = parse_profile_spec

# The five-vertex ground truth, frozen from the brute-force oracles: the
# profile multiset over all 34 isomorphism classes.  17 distinct profiles
# give 17 distinct normal forms.  Two tallies here are forced by pure
# counting, and the impossibility checks inside test_c01 pin them: exactly
# three co-irreducible 5-vertex classes have Euler characteristic +1
# (the 5-cycle, the 5-cycle with one chord, and the 4-cycle with a pendant
# edge), and no co-irreducible 4-vertex graph has a positive one (so no
# 5-vertex class can pair t=1 with N[1]=1).
FIVE_VERTEX_PROFILES = {
    "N[-4]=1": 1,
    "N[-3]=1": 1,
    "N[-2]=1": 3,
    "N[-2]=1;N[-1]=1": 1,
    "N[-1]=1": 7,
    "N[-1]=2": 1,
    "N[0]=1": 6,
    "N[1]=1": 3,
    "t=1;N[-3]=1": 1,
    "t=1;N[-2]=1": 1,
    "t=1;N[-1]=1": 3,
    "t=1;N[-1]=2": 1,
    "t=1;N[0]=1": 1,
    "t=2;N[-2]=1": 1,
    "t=2;N[-1]=1": 1,
    "t=3;N[-1]=1": 1,
    "t=5": 1,
}


def test_c01_five_vertex_census_reproduction():
    start = time.perf_counter()
    doc = build_census(5)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    assert len(doc["classes"]) == 34

    graphs = enumerate_graphs(5)
    counts = Counter(
        profile_spec_string(invariant_profile(g)) for g in graphs
    )
    assert counts == Counter(FIVE_VERTEX_PROFILES)

    assert doc["distinct_normal_forms"] == 17
    assert doc["distinct_stable_normal_forms"] == 16
    assert golden_mismatches(doc, load_golden()) == []

    # Counting facts that force the tallies above.  First: a profile with
    # t = 1 and N[1] = 1 would need a co-irreducible 4-vertex graph of
    # Euler characteristic +1, and none exists.
    four_chis = sorted(
        euler_characteristic(g)
        for g in enumerate_graphs(4)
        if len(decompose(g)) == 1 and g.n > 1
    )
    assert four_chis == [-3, -2, -1, -1, -1, 0]

    # Second: exactly three of the co-irreducible 5-vertex classes score
    # +1, so six score 0 and the N[0]/N[1] split is 6 against 3.
    five_chis = Counter(
        euler_characteristic(g)
        for g in graphs
        if len(decompose(g)) == 1 and g.n > 1
    )
    assert five_chis[1] == 3
    assert five_chis[0] == 6


def test_c02_euler_characteristic_families():
    for m in range(21):
        assert euler_characteristic(empty_graph(m + 1)) == -m
    for n in range(1, 7):
        full = complete_bipartite(n + 1, n + 1)
        nearly = UndirectedGraph.from_edges(full.n, full.edges - {(0, n + 1)})
        assert euler_characteristic(nearly) == n * n - 1
        for j in range(7):
            padded = disjoint_union(nearly, empty_graph(j))
            assert euler_characteristic(padded) == n * n - 1 - j


def test_c03_isomorphism_examples():
    assert compare(p("N[-1]=2"), p("N[1]=2")).isomorphic
    assert compare(p("N[-1]=1;N[0]=1;N[1]=1"), p("N[-1]=2;N[0]=1")).isomorphic


def test_c04_sign_rigidity():
    verdict = compare(p("N[-1]=1"), p("N[1]=1"))
    assert verdict.stably_isomorphic
    assert not verdict.isomorphic


def test_c05_graph_algebra_census():
    rows = build_census(5)["classes"]
    flags = [row["graph_algebra"]["value"] for row in rows]
    assert sum(flags) == 23
    # Membership coincides with having no singleton component here.
    for row in rows:
        assert row["graph_algebra"]["value"] == (row["profile"]["t"] == 0)


def test_c06_semiprojectivity_census():
    tally = build_census(5)["semiprojectivity_tally"]
    assert tally == {
        "Semiprojective": 23,
        "NotSemiprojective": 11,
        "Unknown": 0,
    }


def test_c07_realizer_self_certification():
    for n in range(1, 7):
        for spec, chi in ((f"N[-{n}]=1", -n), (f"N[{n}]=1", n)):
            prof = p(spec)
            dg, report = realize(prof)
            assert report.passed
            full = graph_ktheory(dg)
            assert full.k0 == Z_GROUP and full.unit_is_generator
            assert full.k1_rank == 0
            six = sink_ideal_analysis(dg)
            assert six.kappa == chi
            assert six.quotient.k0 == AbGroup.cyclic(n)
            assert six.quotient.k1_rank == 0

    toeplitz, report = realize(p("t=1"))
    assert report.passed
    six = sink_ideal_analysis(toeplitz)
    assert six.kappa == 0
    assert six.quotient.k1_rank == 1


def test_c08_oracle_equivalence_suites():
    rng = random.Random(801)
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        assert euler_characteristic(g) == euler_oracle(g)

    rng = random.Random(802)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        parts = decompose(g)
        product = 1
        for part in parts:
            assert not decompose_oracle(part)
            product *= euler_characteristic(part)
        assert euler_characteristic(g) == product


def test_c09_smith_normal_form_properties():
    rng = random.Random(900)
    for case in range(1000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        matrix = random_matrix(rng, rows, cols)
        if case % 25 == 0:
            matrix = [[0] * cols for _ in range(rows)]
        snf = smith_normal_form(matrix)
        assert mat_mul(mat_mul(snf.U, matrix), snf.V) == [
            list(row) for row in snf.D
        ]
        assert abs(integer_determinant(snf.U)) == 1
        assert abs(integer_determinant(snf.V)) == 1
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert snf.D[i][j] == 0
        factors = snf.invariant_factors
        assert all(d > 0 for d in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_c10_decision_procedure_cross_check():
    rng = random.Random(1000)
    saw_infinite = 0
    for _ in range(300):
        lhs, rhs = random_profile(rng), random_profile(rng)
        if not (lhs.component_count.is_finite and rhs.component_count.is_finite):
            saw_infinite += 1
        # compare() itself raises RuntimeError if the condition route ever
        # disagrees with the normal forms; assert the agreement explicitly.
        verdict = compare(lhs, rhs)
        assert verdict.isomorphic == (normal_form(lhs) == normal_form(rhs))
        assert verdict.stably_isomorphic == (
            stable_normal_form(lhs) == stable_normal_form(rhs)
        )
        if verdict.isomorphic:
            assert verdict.stably_isomorphic
    assert saw_infinite > 30
