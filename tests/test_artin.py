"""Profiles, normal forms, comparison, names, and classification verdicts."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings

from raagcs import (
    OMEGA,
    AbGroup,
    ExtNat,
    FiniteExt,
    InfiniteComp,
    InvariantProfile,
    LimitExceeded,
    NotRealizable,
    ParseError,
    RealizationNotImplemented,
    Toeplitz,
    algebra_name,
    canonical_form,
    classify_component,
    compare,
    complement,
    complete_graph,
    component_ktheory,
    component_name,
    connected_components,
    cycle_graph,
    decompose,
    decompose_oracle,
    empty_graph,
    euler_characteristic,
    graph_join,
    induced_subgraph,
    invariant_profile,
    is_graph_algebra,
    normal_form,
    parse_edge_list,
    parse_profile_spec,
    path_graph,
    prim_space,
    profile_components,
    realize,
    semiprojectivity,
    stable_normal_form,
)
from raagcs import artin, cli, graphs as graphs_module
from raagcs.artin import (
    PROFILE_DIGITS_MAX,
    TRIVIAL_GROUP,
    Z_GROUP,
    profile_of_classes,
    profile_spec_string,
)
from conftest import (
    graphs,
    profiles,
    random_join,
    random_profile,
    reference_decompose,
    sparse_graph,
)


def p(spec: str) -> InvariantProfile:
    return parse_profile_spec(spec)


class TestExtNat:
    def test_equality_with_ints_and_inf(self):
        assert ExtNat(2) == 2 == ExtNat(2)
        assert OMEGA == "inf"
        assert ExtNat(2) != 3
        assert ExtNat(2) != OMEGA
        assert ExtNat(2) != "2"

    def test_hash_interop(self):
        assert hash(ExtNat(2)) == hash(2)
        assert len({ExtNat(1), 1, ExtNat(1)}) == 1

    def test_ordering(self):
        assert ExtNat(1) < 2 < OMEGA
        assert not OMEGA < OMEGA
        assert OMEGA <= OMEGA
        assert sorted([OMEGA, ExtNat(3), ExtNat(0)]) == [0, 3, OMEGA]

    def test_addition_absorbs_infinity(self):
        assert ExtNat(2) + 3 == 5
        assert ExtNat(2) + OMEGA == OMEGA
        assert 1 + ExtNat(2) == 3
        assert sum([ExtNat(1), ExtNat(2)], ExtNat(0)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtNat(-1)
        with pytest.raises(TypeError):
            ExtNat(True)
        with pytest.raises(TypeError):
            ExtNat.of(2.5)
        assert ExtNat.of("inf") is OMEGA
        with pytest.raises(TypeError):
            ExtNat.of(None)

    def test_hash_agrees_with_inf(self):
        assert {OMEGA: 1}.get("inf") == 1
        assert {"inf": 1}.get(OMEGA) == 1

    def test_none_is_not_infinity(self):
        assert OMEGA != None  # noqa: E711
        assert not OMEGA == None  # noqa: E711
        with pytest.raises(TypeError):
            ExtNat(1) < None  # noqa: B015
        with pytest.raises(TypeError):
            ExtNat(2) + None
        with pytest.raises(TypeError):
            None + ExtNat(2)
        with pytest.raises(TypeError):
            OMEGA >= None  # noqa: B015

    def test_capped_at_one(self):
        assert ExtNat(0).capped_at_one() == 0
        assert ExtNat(5).capped_at_one() == 1
        assert OMEGA.capped_at_one() == 1

    def test_str(self):
        assert str(ExtNat(3)) == "3"
        assert str(OMEGA) == "inf"


class TestAbGroup:
    def test_cyclic(self):
        assert AbGroup.cyclic(0) == Z_GROUP
        assert AbGroup.cyclic(1) == TRIVIAL_GROUP
        assert AbGroup.cyclic(-1) == TRIVIAL_GROUP
        assert AbGroup.cyclic(-4) == AbGroup(0, (4,))

    def test_validation(self):
        with pytest.raises(ValueError):
            AbGroup(-1)
        with pytest.raises(ValueError):
            AbGroup(0, (2, 3))
        with pytest.raises(ValueError):
            AbGroup(0, (1,))

    def test_str(self):
        assert str(Z_GROUP) == "Z"
        assert str(AbGroup(2)) == "Z^2"
        assert str(AbGroup(0, (4,))) == "Z/4"
        assert str(AbGroup(1, (2, 4))) == "Z + Z/2 + Z/4"
        assert str(TRIVIAL_GROUP) == "0"


class TestInvariantProfile:
    def test_make_sorts_and_drops_zeros(self):
        prof = InvariantProfile.make(N={2: 1, -1: 0, -3: "inf"})
        assert prof.N == ((-3, OMEGA), (2, ExtNat(1)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            InvariantProfile(N=((2, ExtNat(1)), (1, ExtNat(1))))
        with pytest.raises(ValueError):
            InvariantProfile(N=((1, ExtNat(1)), (1, ExtNat(2))))
        with pytest.raises(ValueError):
            InvariantProfile(N=((1, ExtNat(0)),))

    def test_accessors(self):
        prof = p("t=2;N[-1]=1;N[3]=inf")
        assert prof.N_at(-1) == 1
        assert prof.N_at(7) == 0
        assert prof.total_N == OMEGA
        assert prof.component_count == OMEGA
        assert not prof.is_empty
        assert p("").is_empty


class TestInvariantProfileKeys:
    @pytest.mark.parametrize("key", [1.5, True, "3", 1.0])
    def test_non_int_key_is_refused(self, key):
        # Read as int(k), N={1.5: 1} would compare equal to N={1: 1}.
        with pytest.raises(TypeError, match="N key"):
            InvariantProfile.make(N={key: 1})
        with pytest.raises(TypeError, match="N key"):
            InvariantProfile(N=((key, ExtNat(1)),))

    def test_int_keys_are_kept(self):
        assert InvariantProfile.make(N={-2: 1, 3: 2}).N == ((-2, ExtNat(1)), (3, ExtNat(2)))


class TestProfileSpecParsing:
    def test_basic(self):
        assert p("t=1") == InvariantProfile.make(t=1)
        assert p("o=2;N[1]=1") == InvariantProfile.make(o=2, N={1: 1})
        assert p("N[-1]=inf") == InvariantProfile.make(N={-1: OMEGA})

    def test_sign_of_a_key_is_grammar(self):
        # The key regex takes the minus; parse_decimal reads unsigned digits.
        assert p("N[-7]=1") == InvariantProfile.make(N={-7: 1})
        assert p("N[-007]=2;N[007]=3") == InvariantProfile.make(N={-7: 2, 7: 3})
        for key in ("N[+7]", "N[--7]", "N[- 7]", "N[-]"):
            with pytest.raises(ParseError, match="^unknown profile key"):
                p(f"{key}=1")

    def test_comments_and_line_breaks(self):
        # A profile file is read like every other input: line by line, with
        # '#' comments dropped, each line holding ';'-separated tokens.
        want = InvariantProfile.make(t=1, o=1, N={2: 1})
        assert p("# header\nt=1;o=1\nN[2]=1  # trailing\n") == want
        assert p("t=1\r\n\n o=1;\nN[2]=1;") == want
        with pytest.raises(ParseError, match="^duplicate key t$"):
            p("t=1\n# t=9\nt=2")

    def test_whitespace_and_empty_tokens(self):
        assert p(" t = 1 ;; N[-1]= 2 ") == InvariantProfile.make(t=1, N={-1: 2})

    def test_key_order_is_free(self):
        assert p("N[1]=1;t=2;N[-1]=1") == p("t=2;N[-1]=1;N[1]=1")

    def test_errors(self):
        with pytest.raises(ParseError, match="unknown profile key"):
            p("q=1")
        with pytest.raises(ParseError, match="duplicate key t"):
            p("t=1;t=2")
        with pytest.raises(ParseError, match="duplicate key o"):
            p("o=1;o=1")
        with pytest.raises(ParseError, match=r"duplicate key N\[1\]"):
            p("N[1]=1;N[1]=2")
        with pytest.raises(ParseError, match=r"duplicate key N\[3\]"):
            p("N[03]=1;N[3]=2")
        with pytest.raises(ParseError, match=r"duplicate key N\[0\]"):
            p("N[-0]=1;N[0]=1")
        with pytest.raises(ParseError, match="^bad count '-1'$"):
            p("t=-1")
        with pytest.raises(ParseError, match="^bad count 'x'$"):
            p("t=x")
        with pytest.raises(ParseError, match="malformed profile token"):
            p("t")
        with pytest.raises(ParseError, match="unknown profile key"):
            p("N[a]=1")
        # Every str.splitlines break separates tokens, and comment-only
        # lines drop out; profile messages name no line.
        with pytest.raises(ParseError, match="^duplicate key t$"):
            p("t=1\x85# t=9 \r\nt=2")
        with pytest.raises(ParseError, match="^malformed profile token 'x'$"):
            p("t=1\u2028x")
        with pytest.raises(ParseError, match="^bad count 'x'$"):
            p("N[1]=1\r\n# c\x85o=x")

    def test_round_trip_on_grid(self):
        # t, o and N[-2..2] each in {0, 1, 2, inf}: 4 ** 7 = 16 384 profiles.
        values = (0, 1, 2, "inf")
        for t, o, *counts in itertools.product(values, repeat=7):
            prof = InvariantProfile.make(t, o, dict(zip(range(-2, 3), counts)))
            assert p(profile_spec_string(prof)) == prof

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("t=\u00b2", "^bad count '\u00b2'$"),
            ("t=\u0663", "^bad count '\u0663'$"),
            ("o=-\u00b2", "^bad count '-\u00b2'$"),
            ("N[\u0663]=1", "unknown profile key"),
            ("N[-\u0663]=1", "unknown profile key"),
        ],
    )
    def test_non_ascii_digits_are_refused(self, spec, message):
        with pytest.raises(ParseError, match=message):
            p(spec)

    def test_counts_and_keys_longer_than_int_takes(self):
        with pytest.raises(ParseError, match="count too long: 5000 digits"):
            p("t=" + "1" * 5000)
        with pytest.raises(ParseError, match=r"key N\[k\] too long: 5000 digits"):
            p("N[-" + "9" * 5000 + "]=1")
        big = InvariantProfile.make(N={int("9" * 4000): int("1" * 4000)})
        assert p("N[" + "9" * 4000 + "]=" + "1" * 4000) == big

    def test_digit_cap_keeps_names_and_sums_printable(self):
        top = "9" * PROFILE_DIGITS_MAX
        prof = p(f"N[-{top}]=1;N[1]={top};N[-1]={top};t={top}")
        assert component_name(FiniteExt(-int(top))) == f"E_1{'0' * PROFILE_DIGITS_MAX}^-1"
        assert str(prof.total_N) == "1" + top  # 1 + 2 * top
        assert str(prof.component_count) == "2" + "9" * (PROFILE_DIGITS_MAX - 1) + "8"
        assert algebra_name(prof).endswith(f"E_1{'0' * PROFILE_DIGITS_MAX}^+1")
        over = f"{PROFILE_DIGITS_MAX + 1} digits, over {PROFILE_DIGITS_MAX}"
        with pytest.raises(ParseError, match=f"^count too long: {over}$"):
            p(f"t={top}9")
        with pytest.raises(ParseError, match=rf"^key N\[k\] too long: {over}$"):
            p(f"N[-{top}9]=1")

    def test_leading_zeros_do_not_count_toward_the_cap(self):
        pad = "0" * (PROFILE_DIGITS_MAX + 500)
        assert p(f"t={pad}2;N[{pad}7]={pad}1;N[-{pad}5]=3") == InvariantProfile.make(
            t=2, N={7: 1, -5: 3}
        )
        with pytest.raises(ParseError, match="duplicate key N\\[0\\]"):
            p(f"N[-{pad}]=1;N[0]=1")


class TestDecompose:
    def test_complete_graph_splits_into_singletons(self):
        parts = decompose(complete_graph(5))
        assert len(parts) == 5
        assert all(part.n == 1 for part in parts)

    def test_empty_graph_is_one_component(self):
        parts = decompose(empty_graph(5))
        assert len(parts) == 1 and parts[0].n == 5

    def test_single_edge_splits(self):
        g = complete_graph(2)
        assert [part.n for part in decompose(g)] == [1, 1]

    def test_join_decomposes_into_its_pieces(self):
        g = graph_join(cycle_graph(5), empty_graph(3))
        parts = decompose(g)
        assert sorted(part.n for part in parts) == [3, 5]
        assert sorted(euler_characteristic(part) for part in parts) == [-2, 1]

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_pieces_rebuild_the_graph_and_are_co_irreducible(self, g):
        parts = decompose(g)
        assert sum(part.n for part in parts) == g.n
        for part in parts:
            assert not decompose_oracle(part)
        rebuilt = empty_graph(0)
        for part in parts:
            rebuilt = graph_join(rebuilt, part)
        if g.n:
            assert canonical_form(rebuilt) == canonical_form(g)

    def test_oracle_examples(self):
        assert not decompose_oracle(cycle_graph(5))
        assert decompose_oracle(complete_graph(2))
        assert not decompose_oracle(empty_graph(1))
        assert not decompose_oracle(empty_graph(0))

    def test_oracle_cap(self):
        cap = artin.DECOMPOSE_ORACLE_MAX
        assert not decompose_oracle(empty_graph(cap))
        with pytest.raises(LimitExceeded, match=f"^decompose_oracle is capped at n <= {cap}, got {cap + 1}$"):
            decompose_oracle(empty_graph(cap + 1))

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_oracle_agrees_with_decompose(self, g):
        assert (len(decompose(g)) > 1) == decompose_oracle(g)

    def test_matches_the_complement_route_on_seeded_joins(self):
        rng = random.Random(30)
        for _ in range(150):
            g = random_join(rng, rng.randint(0, 40))
            parts = decompose(g)
            assert parts == reference_decompose(g)
            assert parts == [
                induced_subgraph(g, c) for c in connected_components(complement(g))
            ]

    def test_pieces_keep_labels(self):
        g = parse_edge_list("a x\na y\nb x\nb y\na b\n")
        assert decompose(g) == reference_decompose(g)

    def test_sparse_join_of_three_known_blocks(self):
        # Only one block is large, so the join stays sparse (about 6000
        # cross edges); the large block's complement is connected.
        big = sparse_graph(random.Random(31), 1997)
        g = graph_join(graph_join(empty_graph(1), big), empty_graph(2))
        assert g.n == 2000
        assert decompose(g) == [empty_graph(1), big, empty_graph(2)]


class TestClassifyComponent:
    def test_cases(self):
        assert classify_component(empty_graph(1)) == Toeplitz()
        assert classify_component(empty_graph(3)) == FiniteExt(-2)
        assert classify_component(cycle_graph(5)) == FiniteExt(1)
        with pytest.raises(ValueError):
            classify_component(empty_graph(0))

    def test_component_names(self):
        assert component_name(Toeplitz()) == "T"
        assert component_name(InfiniteComp()) == "O_inf"
        assert component_name(FiniteExt(0)) == "E_1^0"
        assert component_name(FiniteExt(-2)) == "E_3^-1"
        assert component_name(FiniteExt(1)) == "E_2^+1"


class TestInvariantProfileOfGraph:
    def test_examples(self):
        assert invariant_profile(empty_graph(5)) == p("N[-4]=1")
        assert invariant_profile(complete_graph(5)) == p("t=5")
        assert invariant_profile(path_graph(4)) == p("N[0]=1")
        joined = graph_join(cycle_graph(5), empty_graph(3))
        assert invariant_profile(joined) == p("N[-2]=1;N[1]=1")

    def test_empty_graph_gives_empty_profile(self):
        assert invariant_profile(empty_graph(0)).is_empty

    def test_profile_of_classes(self):
        classes = [Toeplitz(), FiniteExt(-1), InfiniteComp(), FiniteExt(-1), Toeplitz()]
        assert profile_of_classes(classes) == p("t=2;o=1;N[-1]=2")
        assert profile_of_classes([]).is_empty

    def test_large_sparse_graph_never_builds_the_complement(self, monkeypatch):
        def refuse(g):
            raise AssertionError("complement built on the decomposition path")

        for module in (graphs_module, artin, cli):
            if hasattr(module, "complement"):
                monkeypatch.setattr(module, "complement", refuse)
        g = sparse_graph(random.Random(32), 2000)
        prof = invariant_profile(g)
        assert prof.t == 0 and prof.total_N == 1


class TestNormalForm:
    def test_folding(self):
        nf = normal_form(p("N[-2]=1;N[-1]=1;N[0]=3;N[2]=2"))
        assert nf.z == 3
        assert nf.M == ((1, ExtNat(1)), (2, ExtNat(3)))

    def test_sign_blind_pairs(self):
        assert normal_form(p("N[-1]=2")) == normal_form(p("N[1]=2"))
        assert normal_form(p("N[-1]=1;N[0]=1;N[1]=1")) == normal_form(
            p("N[-1]=2;N[0]=1")
        )

    def test_parity_splits_signs(self):
        left, right = normal_form(p("N[-1]=1")), normal_form(p("N[1]=1"))
        assert left != right
        assert (left.parity, right.parity) == (1, 0)
        assert stable_normal_form(p("N[-1]=1")) == stable_normal_form(p("N[1]=1"))

    def test_parity_undefined_when_blocked(self):
        assert normal_form(p("N[0]=1;N[-1]=1")).parity == "undefined"
        assert normal_form(p("o=1;N[-1]=1")).parity == "undefined"
        assert normal_form(p("N[-1]=inf")).parity == "undefined"
        assert normal_form(p("N[-1]=2")).parity == 0

    def test_omin(self):
        assert normal_form(p("o=2;N[1]=1")).omin == 1
        assert normal_form(p("N[1]=1")).omin == 0
        assert normal_form(p("o=1;N[1]=inf")).omin == "irrelevant"

    def test_infinite_o_collapses(self):
        assert normal_form(p("o=2;N[1]=1")) == normal_form(p("o=1;N[1]=1"))

    def test_t_passes_through(self):
        assert normal_form(p("t=inf")).t == OMEGA

    def test_factors(self):
        assert normal_form(p("")).factors() == []
        assert normal_form(p("o=2")).factors() == [(InfiniteComp(), 1)]
        assert normal_form(p("o=1;N[1]=inf")).factors() == [(FiniteExt(1), OMEGA)]
        assert normal_form(p("N[-2]=1;N[2]=1")).factors() == [(FiniteExt(-2), 1), (FiniteExt(2), 1)]
        assert normal_form(p("t=1;N[0]=2")).factors() == [(Toeplitz(), 1), (FiniteExt(0), 2)]


class TestExtNatConstructions:
    """A work counter, not a clock: the ExtNat values built to make and to
    normalise a 1 000-key profile whose keys fold in pairs."""

    N = {k: 1 for k in range(-500, 501) if k}

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        post_init = ExtNat.__post_init__

        def counted(self):
            count[0] += 1
            post_init(self)

        monkeypatch.setattr(ExtNat, "__post_init__", counted)
        return count

    def test_make_builds_one_per_count(self, built):
        InvariantProfile.make(N=self.N)
        assert built[0] == 1002  # 1 000 counts, t and o

    def test_normal_form_builds_one_per_sum(self, built):
        prof = InvariantProfile.make(N=self.N)
        built[0] = 0
        normal_form(prof)
        assert built[0] == 1003  # 500 folds, 500 total sums, the missing N[0]


class TestCompare:
    def test_equal_profiles(self):
        verdict = compare(p("t=1;N[-1]=2"), p("t=1;N[-1]=2"))
        assert verdict.isomorphic and verdict.stably_isomorphic
        assert verdict.failed_conditions == ()

    def test_condition_i(self):
        verdict = compare(p("t=1"), p("t=2"))
        assert not verdict.stably_isomorphic
        assert verdict.failed_conditions == ("i",)

    def test_condition_ii_at_zero(self):
        verdict = compare(p("N[0]=1"), p("o=1"))
        assert not verdict.stably_isomorphic
        assert "ii" in verdict.failed_conditions

    def test_condition_iii(self):
        verdict = compare(p("N[2]=1;o=1"), p("N[2]=1"))
        assert not verdict.stably_isomorphic
        assert verdict.failed_conditions == ("iii",)

    def test_condition_iv_sign_rigidity(self):
        verdict = compare(p("N[-1]=1"), p("N[1]=1"))
        assert verdict.stably_isomorphic and not verdict.isomorphic
        assert verdict.failed_conditions == ("iv",)

    def test_condition_iv_vacuous_with_o(self):
        verdict = compare(p("o=2;N[1]=1"), p("o=1;N[1]=1"))
        assert verdict.isomorphic
        assert verdict.failed_conditions == ()

    def test_infinite_totals_ignore_o(self):
        assert compare(p("N[1]=inf"), p("o=3;N[-1]=inf")).isomorphic

    def test_infinite_counts_fold(self):
        verdict = compare(p("N[-2]=inf"), p("N[2]=inf;N[-2]=1"))
        assert verdict.isomorphic

    def test_seeded_pairs_run_the_dual_route_check(self):
        # compare() raises RuntimeError internally if the condition route
        # ever disagrees with the normal-form route.
        rng = random.Random(11)
        for _ in range(300):
            lhs, rhs = random_profile(rng), random_profile(rng)
            verdict = compare(lhs, rhs)
            if verdict.isomorphic:
                assert verdict.stably_isomorphic

    def test_thousands_of_keys(self):
        # Condition (ii) reads one dict per side; the verdicts are fixed by
        # the folded counts and the parity of the negative-index counts.
        k = 3000
        plus = InvariantProfile.make(N={n: 1 for n in range(1, k + 1)})
        minus = InvariantProfile.make(N={-n: 1 for n in range(1, k + 1)})
        assert compare(plus, minus).failed_conditions == ()
        odd = InvariantProfile.make(N={-n if n > 1 else n: 1 for n in range(1, k + 1)})
        assert compare(plus, odd).failed_conditions == ("iv",)
        bumped = InvariantProfile.make(N={**dict(minus.N), -k // 2: 3})  # parity kept
        verdict = compare(plus, bumped)
        assert verdict.failed_conditions == ("ii",)
        assert not verdict.stably_isomorphic

    def test_route_disagreement_raises(self, monkeypatch):
        # A stable normal form that never equals another one contradicts
        # the conditions on equal profiles.
        monkeypatch.setattr(artin.AlgebraNormalForm, "stable", lambda nf: object())
        message = "^internal error: condition route and normal-form route disagree on "
        with pytest.raises(RuntimeError, match=message):
            compare(p("t=1"), p("t=1"))

    @given(profiles())
    @settings(max_examples=80, deadline=None)
    def test_reflexive(self, prof):
        assert compare(prof, prof).isomorphic

    @given(profiles(), profiles())
    @settings(max_examples=120, deadline=None)
    def test_symmetric_and_iso_implies_stable(self, lhs, rhs):
        forward, backward = compare(lhs, rhs), compare(rhs, lhs)
        assert forward.isomorphic == backward.isomorphic
        assert forward.stably_isomorphic == backward.stably_isomorphic
        if forward.isomorphic:
            assert forward.stably_isomorphic


class TestAlgebraName:
    def test_frozen_cases(self):
        assert algebra_name(p("t=1")) == "T"
        assert algebra_name(p("N[-4]=1")) == "E_5^-1"
        assert algebra_name(p("N[-1]=2")) == "E_2^+1 ⊗ E_2^+1"
        assert algebra_name(p("t=5")) == "T^{⊗5}"
        assert algebra_name(p("t=inf")) == "T^{⊗inf}"
        assert algebra_name(p("")) == "C"
        assert algebra_name(p("o=3")) == "O_inf"
        assert algebra_name(p("N[1]=inf")) == "E_2^+1^{⊗inf}"

    def test_odd_parity_flips_single_lowest_factor(self):
        assert algebra_name(p("N[-1]=3")) == "E_2^-1 ⊗ E_2^+1 ⊗ E_2^+1"
        assert algebra_name(p("N[-2]=1;N[2]=1")) == "E_3^-1 ⊗ E_3^+1"
        assert algebra_name(p("N[-2]=1;N[1]=1")) == "E_2^-1 ⊗ E_3^+1"
        assert algebra_name(p("N[-2]=1;N[-1]=1")) == "E_2^+1 ⊗ E_3^+1"

    def test_factor_order(self):
        name = algebra_name(p("t=1;o=1;N[0]=2;N[-3]=1"))
        assert name == "T ⊗ O_inf ⊗ E_1^0 ⊗ E_1^0 ⊗ E_4^+1"

    @given(profiles(), profiles())
    @settings(max_examples=120, deadline=None)
    def test_name_is_constant_on_normal_forms(self, lhs, rhs):
        if normal_form(lhs) == normal_form(rhs):
            assert algebra_name(lhs) == algebra_name(rhs)

    def test_o_drops_out_of_the_name_in_the_infinite_regime(self):
        # With infinitely many finite factors omin is irrelevant, so o no
        # longer affects the isomorphism class and does not render.
        lhs, rhs = p("o=1;N[1]=inf"), p("N[1]=inf")
        assert compare(lhs, rhs).isomorphic
        assert algebra_name(lhs) == algebra_name(rhs) == "E_2^+1^{⊗inf}"

    def test_name_is_read_from_the_normal_form(self):
        prof = p("t=1;o=1;N[0]=2;N[-3]=1")
        assert algebra_name(prof) == str(normal_form(prof))
        assert stable_normal_form(prof) == normal_form(prof).stable()


class TestVerdictsOnClasses:
    def test_verdicts_are_functions_of_the_normal_form(self):
        # t, o and N[-2..2] each range over {0, 1, 2, inf}: 4^7 profiles.
        values = (0, 1, 2, "inf")
        classes: dict[object, list[InvariantProfile]] = {}
        for t, o, *counts in itertools.product(values, repeat=7):
            prof = InvariantProfile.make(t=t, o=o, N=dict(zip(range(-2, 3), counts)))
            classes.setdefault(normal_form(prof), []).append(prof)
        assert len(classes) == 960

        def outcome(prof: InvariantProfile) -> str:
            try:
                realize(prof)
            except (NotRealizable, RealizationNotImplemented) as exc:
                return type(exc).__name__
            return "realized"

        names = set()
        for members in classes.values():
            for verdict in (algebra_name, is_graph_algebra, semiprojectivity, outcome):
                assert len({verdict(prof) for prof in members}) == 1, (verdict, members)
            names.add(algebra_name(members[0]))
        assert len(names) == len(classes)


class TestPrimSpace:
    def test_component_kinds(self):
        assert prim_space(p("t=1")).toeplitz_components == 1
        assert prim_space(p("N[-2]=1")).two_point_components == 1
        assert prim_space(p("o=1")).one_point_components == 1

    def test_product_flag(self):
        assert prim_space(p("t=1;N[1]=1")).is_product
        assert not prim_space(p("t=1")).is_product
        assert not prim_space(p("")).is_product

    def test_infinite_counts(self):
        assert prim_space(p("N[1]=inf")).two_point_components == OMEGA


class TestComponentKTheory:
    def test_toeplitz_row(self):
        row = component_ktheory(Toeplitz())
        assert row.k0_full == Z_GROUP and row.unit_is_generator
        assert row.k1_full == TRIVIAL_GROUP
        assert row.index_value == 0
        assert row.k0_quotient == Z_GROUP and row.k1_quotient == Z_GROUP

    def test_finite_rows(self):
        row = component_ktheory(FiniteExt(-2))
        assert row.index_value == -2
        assert row.k0_quotient == AbGroup(0, (2,))
        assert row.k1_quotient == TRIVIAL_GROUP
        zero = component_ktheory(FiniteExt(0))
        assert zero.k0_quotient == Z_GROUP
        assert zero.k1_quotient == Z_GROUP

    def test_infinite_row_has_no_extension(self):
        row = component_ktheory(InfiniteComp())
        assert row.k0_full == Z_GROUP and row.k1_full == TRIVIAL_GROUP
        assert row.index_value is None
        assert row.k0_ideal is None and row.k0_quotient is None

    def test_profile_components_order(self):
        parts = profile_components(p("o=1;N[2]=2;t=3;N[-1]=1"))
        assert parts == [
            (Toeplitz(), ExtNat(3)),
            (FiniteExt(-1), ExtNat(1)),
            (FiniteExt(2), ExtNat(2)),
            (InfiniteComp(), ExtNat(1)),
        ]


class TestGraphAlgebraVerdict:
    def test_clause_one(self):
        assert is_graph_algebra(p("t=1")) == (True, 1)

    def test_clause_two(self):
        assert is_graph_algebra(p("N[-3]=1;N[-1]=5")) == (True, 2)
        assert is_graph_algebra(p("o=1")) == (True, 2)
        assert is_graph_algebra(p("N[1]=1")) == (True, 2)

    def test_rejections(self):
        assert is_graph_algebra(p("N[-2]=2")) == (False, None)
        assert is_graph_algebra(p("t=1;N[-1]=1")) == (False, None)
        assert is_graph_algebra(p("t=2")) == (False, None)
        assert is_graph_algebra(p("N[1]=inf")) == (False, None)


class TestSemiprojectivity:
    def test_clauses(self):
        assert semiprojectivity(p("t=2")) == ("NotSemiprojective", 1)
        assert semiprojectivity(p("t=1")) == ("Semiprojective", 2)
        assert semiprojectivity(p("t=1;N[-1]=1")) == ("NotSemiprojective", 2)
        assert semiprojectivity(p("t=1;o=1")) == ("NotSemiprojective", 2)
        assert semiprojectivity(p("N[-3]=1;N[-1]=5")) == ("Semiprojective", 3)

    def test_open_cases_stay_unknown(self):
        assert semiprojectivity(p("N[-2]=2")) == ("Unknown", None)
        assert semiprojectivity(p("N[-1]=inf")) == ("Unknown", None)

    def test_verdict_digest(self):
        # Both verdicts on every profile with t, o and N[-2..2] each in
        # {0, 1, 2, inf}: 4 ** 7 = 16 384 profiles.
        values = (0, 1, 2, "inf")
        verdicts = []
        for t, o, *counts in itertools.product(values, repeat=7):
            prof = InvariantProfile.make(t, o, dict(zip(range(-2, 3), counts)))
            verdicts.append((is_graph_algebra(prof), semiprojectivity(prof)))
        digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()[:16]
        assert digest == "02ed5a0e0df3c8f4"
