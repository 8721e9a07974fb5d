import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commca import (
    CommunityCheck,
    EnumerationCapExceeded,
    Graph,
    ReachabilityReport,
    RobustnessWitness,
    add_cross_edges,
    complete_graph,
    complete_rs_certificate,
    disjoint_union,
    evaluate_pair,
    excess,
    format_witness,
    is_community,
    is_r_excess_robust,
    is_rs_excess_robust,
    reachable_set,
    verify_reachability_preservation,
)
from commca.robustness import (
    _BLOCK,
    _subset_minimum,
    _subset_table,
    _translate_witness,
    _violating_pair,
)
from commca.scenarios import example1, example3

from reference import (
    naive_excess,
    naive_is_r_robust,
    naive_is_rs_robust,
    naive_preservation_holds,
    naive_reachable,
    random_graph,
    reference_subset_table,
)


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def two_triangles():
    return disjoint_union(complete_graph(3), complete_graph(3))


def complete_minus_matching(n):
    """K_n without the perfect matching {0, 1}, {2, 3}, ...: minimum degree n - 2."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if u // 2 != v // 2])


def split_community_graph():
    """Nine agents: a 5-clique and a 4-clique joined through agent 4 only."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
    edges += [(4, v) for v in range(5, 9)]
    return Graph(9, edges)


class TestExcess:
    def test_clique_member_counts(self):
        g = complete_graph(5)
        assert excess(g, 0, {0, 1}) == 2  # 3 outside, 1 inside

    def test_path_midpoint(self):
        g = path_graph(3)
        assert excess(g, 1, {1}) == 2
        assert excess(g, 1, {0, 1, 2}) == -2
        assert excess(g, 0, {0, 1}) == -1

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            excess(complete_graph(3), 0, {1, 2})

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            excess(complete_graph(3), 0, {0, 7})

    def test_matches_naive_on_random_graphs(self):
        rng = random.Random(2)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            members = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            u = rng.choice(sorted(members))
            assert excess(g, u, members) == naive_excess(g, u, members)

    def test_clique_closed_form(self):
        # in K_n every member of a k-subset has excess n - 2k + 1
        for n in range(2, 8):
            g = complete_graph(n)
            for k in range(1, n + 1):
                members = set(range(k))
                for u in members:
                    assert excess(g, u, members) == n - 2 * k + 1


class TestReachableSet:
    def test_clique_all_or_nothing(self):
        g = complete_graph(9)
        low = reachable_set(g, range(4), 1)
        assert low.is_full and low.reachable == frozenset(range(4))
        high = reachable_set(g, range(5), 1)
        assert not high.is_reachable and high.reachable == frozenset()

    def test_excess_table(self):
        g = path_graph(3)
        rep = reachable_set(g, {0, 1}, 0)
        assert dict(rep.excess_by_agent) == {0: -1, 1: 0}
        assert rep.reachable == frozenset({1})

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            reachable_set(complete_graph(3), (), 0)

    def test_threshold_monotone(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            members = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            prev = None
            for r in range(-2, 4):
                cur = reachable_set(g, members, r).reachable
                if prev is not None:
                    assert cur <= prev
                prev = cur

    def test_matches_naive(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            members = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            r = rng.randint(0, 3)
            assert reachable_set(g, members, r).reachable == naive_reachable(
                g, members, r
            )


class TestSubsetTable:
    def test_counts_and_fullness_match_naive(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 8), rng.random())
            r = rng.randint(0, 3)
            counts, full = _subset_table(g.neighbor_masks(), r)
            assert len(counts) == len(full) == 2**g.n
            assert counts[0] == 0 and full[0]
            for mask in range(1, 2**g.n):
                subset = {u for u in range(g.n) if mask >> u & 1}
                reach = naive_reachable(g, subset, r)
                assert counts[mask] == len(reach), (g.n, sorted(g.edges), r, mask)
                assert full[mask] == (reach == subset), (g.n, sorted(g.edges), r, mask)

    def test_matches_the_per_member_loop(self):
        # The last agent is isolated; sparse draws leave members whose degree
        # is below r, which never reach.  From n = 17 the compare-and-sum runs
        # in more than one block of subsets.
        assert _BLOCK < 2**17
        rng = random.Random(33)
        below_r = 0
        for n in range(19):
            for r in range(4):
                p = rng.choice((0.15, 0.5, 0.9))
                edges = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)
                         if rng.random() < p]
                masks = Graph(n, edges).neighbor_masks()
                assert n == 0 or masks[-1] == 0
                below_r += sum(nb.bit_count() < r for nb in masks)
                counts, full = _subset_table(masks, r)
                want_counts, want_full = reference_subset_table(masks, r)
                assert counts.dtype == np.uint8 and full.dtype == bool
                assert counts.tolist() == want_counts.tolist(), (n, r, edges)
                assert full.tolist() == want_full.tolist(), (n, r, edges)
        assert below_r > 0


class TestSubsetMinimum:
    def test_matches_a_direct_minimum_over_submasks(self):
        # below 5 agents every bit goes through the transposed copy
        rng = np.random.default_rng(35)
        for n in range(11):
            values = rng.integers(0, 12, 2**n, dtype=np.uint8)
            before = values.copy()
            want = []
            for mask in range(2**n):
                sub, least = mask, values[0]
                while sub:  # every non-empty submask, then the empty one above
                    least = min(least, values[sub])
                    sub = (sub - 1) & mask
                want.append(int(least))
            assert _subset_minimum(values).reshape(-1).tolist() == want, n
            assert np.array_equal(values, before)


class TestWitnessOrder:
    def test_lowest_failing_first_subset_then_lowest_partner(self):
        # check prints the witness the engine returns, so its order is output
        rng = random.Random(37)
        verdicts = {True: 0, False: 0}
        for _ in range(80):
            n = rng.randint(0, 9)
            # dense above 6 agents, where sparser draws are seldom robust
            masks = random_graph(rng, n, max(rng.random(), 0.8 * (n > 6))).neighbor_masks()
            r, s = rng.randint(0, 3), rng.randint(1, 4)
            counts, full = reference_subset_table(masks, r)
            c = [None if full[m] else int(counts[m]) for m in range(2**n)]
            want = None
            for first in range(2**n):
                if c[first] is None:
                    continue
                second = next((m for m in range(2**n) if not m & first
                               and c[m] is not None and c[first] + c[m] < s), None)
                if second is not None:
                    want = (first, second)
                    break
            assert _violating_pair(masks, r, s) == want, (masks, r, s)
            verdicts[want is None] += 1
        assert min(verdicts.values()) >= 10


class TestPairRobustness:
    def test_single_edge_robust_at_zero(self):
        assert is_rs_excess_robust(complete_graph(2), 0, 1).robust

    def test_two_triangles_fail_at_zero(self):
        w = is_r_excess_robust(two_triangles(), 0)
        assert not w.robust
        # every agent of each triangle has both neighbors inside it
        a, b = w.pair
        assert not (a & b)

    def test_triangle_verdicts(self):
        g = complete_graph(3)
        assert is_rs_excess_robust(g, 2, 1).robust
        assert not is_rs_excess_robust(g, 3, 1).robust

    def test_split_graph_not_1_2_robust(self):
        g = split_community_graph()
        w = is_rs_excess_robust(g, 1, 2)
        assert not w.robust
        ev = evaluate_pair(g, frozenset(range(5)), frozenset(range(5, 9)), 1, 2)
        assert not ev.satisfied
        assert ev.reachable_total == 0
        assert not ev.first.is_full and not ev.second.is_full

    def test_vacuous_robustness_below_two_agents(self):
        assert is_rs_excess_robust(Graph(0), 0, 1).robust
        assert is_rs_excess_robust(Graph(1), 5, 3).robust
        assert is_r_excess_robust(Graph(1), 2).robust

    def test_parameter_validation(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            is_rs_excess_robust(g, -1, 1)
        with pytest.raises(ValueError):
            is_rs_excess_robust(g, 0, 0)
        with pytest.raises(ValueError):
            is_r_excess_robust(g, -2)

    def test_cap_enforced_and_liftable(self):
        g = path_graph(5)
        with pytest.raises(EnumerationCapExceeded) as info:
            is_rs_excess_robust(g, 0, 1, cap=4)
        assert info.value.size == 5 and info.value.cap == 4
        assert is_rs_excess_robust(g, 0, 1, cap=None) is not None
        with pytest.raises(EnumerationCapExceeded):
            is_r_excess_robust(g, 0, cap=3)

    def test_witness_reproduces_violation(self):
        rng = random.Random(13)
        found = 0
        while found < 25:
            g = random_graph(rng, rng.randint(2, 6), rng.random())
            r, s = rng.randint(0, 2), rng.randint(1, 3)
            w = is_rs_excess_robust(g, r, s)
            if w.robust:
                continue
            found += 1
            a, b = w.pair
            ev = evaluate_pair(g, a, b, r, s)
            assert not ev.satisfied
            assert (ev.first, ev.second) == w.reports

    def test_plain_witness_reproduces_violation(self):
        rng = random.Random(14)
        found = 0
        while found < 15:
            g = random_graph(rng, rng.randint(2, 6), rng.random())
            r = rng.randint(0, 2)
            w = is_r_excess_robust(g, r)
            if w.robust:
                continue
            found += 1
            a, b = w.pair
            assert not reachable_set(g, a, r).is_reachable
            assert not reachable_set(g, b, r).is_reachable

    def test_matches_naive_oracle(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 5), rng.random())
            for r in (0, 1, 2):
                for s in (1, 2, 3):
                    assert (
                        is_rs_excess_robust(g, r, s).robust
                        == naive_is_rs_robust(g, r, s)
                    ), (g.n, sorted(g.edges), r, s)

    def test_plain_form_equals_s_one(self):
        rng = random.Random(22)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 6), rng.random())
            r = rng.randint(0, 2)
            assert (
                is_r_excess_robust(g, r).robust
                == is_rs_excess_robust(g, r, 1).robust
                == naive_is_r_robust(g, r)
            )

    @pytest.mark.parametrize("lone", range(5))
    def test_partner_found_past_any_agent(self, lone):
        # Two separate edges and an isolated agent.  At r = 0 the isolated
        # agent is always reachable, so the only violating pair is the two
        # edges, and each edge's complement holds its partner only once the
        # isolated agent is left out.
        others = [u for u in range(5) if u != lone]
        g = Graph(5, [(others[0], others[1]), (others[2], others[3])])
        w = is_r_excess_robust(g, 0)
        assert not w.robust and not naive_is_r_robust(g, 0)
        assert set(w.pair) == {frozenset(others[:2]), frozenset(others[2:])}

    @settings(deadline=None)
    @given(graphs(7), st.integers(0, 3), st.integers(1, 4))
    def test_property_matches_naive_oracle(self, g, r, s):
        w = is_rs_excess_robust(g, r, s)
        assert w.robust == naive_is_rs_robust(g, r, s)

    @settings(deadline=None)
    @given(graphs(12), st.integers(0, 3), st.integers(1, 4))
    def test_property_witness_rechecks(self, g, r, s):
        w = is_rs_excess_robust(g, r, s)
        if w.robust:
            assert w.pair is None and w.reports is None
            return
        ev = evaluate_pair(g, *w.pair, r, s)
        assert not ev.satisfied
        assert (ev.first, ev.second) == w.reports

    def test_robustness_monotone_in_parameters(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6), rng.random())
            r, s = rng.randint(1, 2), rng.randint(2, 3)
            if is_rs_excess_robust(g, r, s).robust:
                assert is_rs_excess_robust(g, r - 1, s).robust
                assert is_rs_excess_robust(g, r, s - 1).robust


class TestCompleteCertificate:
    @pytest.mark.parametrize(
        "n,r,s,expected",
        [
            (35, 2, 11, True),
            (9, 1, 2, True),
            (2, 5, 1, False),
            (123, 2, 21, True),
            (15, 2, 7, True),
            (16, 1, 7, True),
            (11, 2, 4, True),
            (3, 2, 1, True),
            (3, 3, 1, False),
        ],
    )
    def test_frozen_verdicts(self, n, r, s, expected):
        assert complete_rs_certificate(n, r, s) is expected

    def test_agrees_with_enumeration_small(self):
        for n in range(2, 7):
            g = complete_graph(n)
            for r in range(0, n + 2):
                for s in (1, 2, 3):
                    assert (
                        complete_rs_certificate(n, r, s)
                        == is_rs_excess_robust(g, r, s).robust
                    ), (n, r, s)

    def test_verdict_independent_of_s(self):
        for n in (5, 9, 14):
            for r in range(0, n + 1):
                verdicts = {complete_rs_certificate(n, r, s) for s in range(1, 9)}
                assert len(verdicts) == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            complete_rs_certificate(1, 0, 1)
        with pytest.raises(ValueError):
            complete_rs_certificate(5, -1, 1)
        with pytest.raises(ValueError):
            complete_rs_certificate(5, 0, 0)


@st.composite
def graphs_of_any_density(draw, min_n, max_n):
    """A graph whose edges each appear with one drawn probability p in [0, 1]."""
    n = draw(st.integers(min_n, max_n))
    p = draw(st.floats(0.0, 1.0))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    coins = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, c in zip(pairs, coins) if c < p])


class TestExternalDegreeLimit:
    """What the predicate admits with excess counted as degree minus twice
    the neighbors inside: from r = 3 on no graph of two or more agents is
    (r, 1)-excess robust, and K_n is (2, 1)-excess robust iff n is odd."""

    @settings(deadline=None, max_examples=300)
    @given(graphs_of_any_density(2, 14), st.integers(3, 8))
    def test_no_graph_is_robust_from_r_three(self, g, r):
        w = is_rs_excess_robust(g, r, 1)
        assert not w.robust
        assert not evaluate_pair(g, *w.pair, r, 1).satisfied

    def test_complete_graph_is_2_1_robust_iff_its_size_is_odd(self):
        for n in range(2, 400):
            assert complete_rs_certificate(n, 2, 1) is (n % 2 == 1), n
        for n in range(2, 15):
            assert is_rs_excess_robust(complete_graph(n), 2, 1).robust is (n % 2 == 1), n


class TestCommunityPredicate:
    def test_clique_with_pendant_fails_degree_only(self):
        g = add_cross_edges(disjoint_union(complete_graph(4), Graph(1)), [(0, 4)])
        check = is_community(g, range(4), malicious_count=1)
        assert check.reasons == ("degree",)
        assert check.robust and check.certified_analytically
        assert check.external_degree == 1
        assert check.min_degree == 3 and check.required_degree == 4
        assert not check.is_community

    def test_split_graph_fails_robustness_only(self):
        g = add_cross_edges(disjoint_union(split_community_graph(), Graph(1)), [(0, 9)])
        check = is_community(g, range(9), malicious_count=1)
        assert check.reasons == ("robustness",)
        assert check.min_degree == 4 and check.required_degree == 4
        assert check.witness is not None and not check.witness.robust

    def test_witness_reported_in_original_ids(self):
        # shift the failing nine-agent block so induced ids differ from originals
        g = disjoint_union(complete_graph(3), split_community_graph())
        g = add_cross_edges(g, [(0, 3)])
        members = range(3, 12)
        check = is_community(g, members, malicious_count=1)
        assert not check.robust
        a, b = check.witness.pair
        assert (a | b) <= frozenset(members)
        sub, nodes = g.induced_subgraph(members)
        ev = evaluate_pair(
            sub,
            [nodes.index(u) for u in a],
            [nodes.index(u) for u in b],
            check.external_degree,
            check.malicious_count + 1,
        )
        assert not ev.satisfied

    def test_bound_decided_communities_build_no_induced_subgraph(self, monkeypatch):
        def refuse(self, members):
            raise AssertionError("induced subgraph built")

        monkeypatch.setattr(Graph, "induced_subgraph", refuse)
        cases = [(complete_minus_matching(40), range(40), 3)]
        for build in (example1, example3):  # both certify themselves as well
            cfg = build()
            cases += [(cfg.graph, members, cfg.layout.malicious_count(i))
                      for i, members in enumerate(cfg.layout.subsets)]
        for g, members, f in cases:
            check = is_community(g, members, f)
            assert check.certified_analytically and check.robust

    def test_witnesses_in_original_ids_are_pinned(self):
        # an engine-decided community and a failing complete one, both shifted
        g = add_cross_edges(disjoint_union(complete_graph(3), split_community_graph()),
                            [(0, 3)])
        check = is_community(g, range(3, 12), malicious_count=1)
        assert not check.certified_analytically and check.reasons == ("robustness",)
        assert check.witness == RobustnessWitness(False, 1, 2, (
            ReachabilityReport(frozenset({3, 4, 5}), 1, frozenset(), {3: 0, 4: 0, 5: 0}),
            ReachabilityReport(frozenset({7, 8, 9}), 1, frozenset({7}),
                               {7: 4, 8: 0, 9: 0}),
        ))
        g = add_cross_edges(disjoint_union(Graph(3), complete_graph(8)),
                            [(v, 3) for v in range(3)])
        check = is_community(g, range(3, 11), malicious_count=0)
        assert check == CommunityCheck(
            members=frozenset(range(3, 11)), malicious_count=0, external_degree=3,
            robust=False, min_degree=7, required_degree=4, reasons=("robustness",),
            witness=RobustnessWitness(False, 3, 1, (
                ReachabilityReport(frozenset(range(3, 7)), 3, frozenset(),
                                   dict.fromkeys(range(3, 7), 1)),
                ReachabilityReport(frozenset(range(7, 11)), 3, frozenset(),
                                   dict.fromkeys(range(7, 11), 1)),
            )),
            certified_analytically=True,
        )

    def test_large_complete_community_skips_enumeration(self):
        check = is_community(complete_graph(20), range(20), malicious_count=3)
        assert check.is_community
        assert check.certified_analytically
        assert check.external_degree == 0
        assert check.required_degree == 7 and check.min_degree == 19

    def test_failing_complete_community_carries_a_witness(self):
        # K_10 with four pendants on agent 0: (4, 1) fails on two 4-sets
        g = add_cross_edges(disjoint_union(complete_graph(10), Graph(4)),
                            [(0, v) for v in range(10, 14)])
        check = is_community(g, range(10), malicious_count=0)
        assert check.reasons == ("robustness",) and check.certified_analytically
        w = check.witness
        assert not w.robust and (w.r, w.s) == (4, 1)
        assert w.pair == (frozenset(range(4)), frozenset(range(4, 8)))
        ev = evaluate_pair(g.induced_subgraph(range(10)).graph, *w.pair, 4, 1)
        assert not ev.satisfied and w.reports == (ev.first, ev.second)

    def test_complete_community_witness_equals_engine_witness(self):
        # r pendants ahead of K_n, hung on its first agent, shift the ids
        # and set the external degree bound to r
        negatives = 0
        for n in range(2, 15):
            for r in range(n + 1):
                g = add_cross_edges(disjoint_union(Graph(r), complete_graph(n)),
                                    [(v, r) for v in range(r)])
                members = range(r, r + n)
                sub, nodes = g.induced_subgraph(members)
                for s in range(1, 4):
                    check = is_community(g, members, malicious_count=s - 1)
                    assert check.certified_analytically and check.external_degree == r
                    engine = is_rs_excess_robust(sub, r, s, cap=None)
                    assert check.robust == engine.robust
                    if engine.robust:
                        assert check.witness is None
                    else:
                        negatives += 1
                        assert check.witness == _translate_witness(engine, nodes)
        assert negatives == 255

    def test_bound_decides_large_incomplete_community(self):
        # delta = 38 gives k = 21, and two disjoint 21-sets do not fit in 40 agents
        g = complete_minus_matching(40)
        check = is_community(g, range(40), malicious_count=3)
        assert check.is_community and check.certified_analytically
        assert check.witness is None
        assert check.min_degree == 38 and check.required_degree == 7

    @settings(deadline=None)
    @given(graphs(12), st.data())
    def test_property_matches_engine_only_decision(self, g, data):
        if g.n == 0:
            return
        members = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        f = data.draw(st.integers(0, 3))
        check = is_community(g, members, f)
        ext = g.max_external_degree(members)
        sub, nodes = g.induced_subgraph(members)
        engine = is_rs_excess_robust(sub, ext, f + 1, cap=None)
        want_witness = None if engine.robust else _translate_witness(engine, nodes)
        want_reasons = (("robustness",) if not engine.robust else ()) + (
            ("degree",) if sub.min_degree() < 2 * f + ext + 1 else ())
        assert check.robust == engine.robust
        assert check.reasons == want_reasons
        assert check.witness == want_witness
        k = max(1, (sub.min_degree() - ext) // 2 + 2)
        assert check.certified_analytically == (2 * k > sub.n or sub.is_complete())

    def test_singleton_member_set(self):
        g = add_cross_edges(disjoint_union(complete_graph(4), Graph(1)), [(0, 4)])
        check = is_community(g, {4}, malicious_count=0)
        assert check.robust
        assert check.reasons == ("degree",)

    def test_negative_malicious_count_rejected(self):
        with pytest.raises(ValueError):
            is_community(complete_graph(3), range(3), -1)

    def test_cap_applies_to_incomplete_induced_graphs(self):
        g = split_community_graph()
        with pytest.raises(EnumerationCapExceeded):
            is_community(g, range(9), malicious_count=1, cap=5)

    def test_degree_failure_past_the_cap_leaves_robustness_undecided(self):
        # min-degree 4 against 2 * 2 + 0 + 1 = 5: no enumeration is needed
        g = split_community_graph()
        check = is_community(g, range(9), malicious_count=2, cap=5)
        assert check.robust is None and check.witness is None
        assert check.reasons == ("degree",) and not check.certified_analytically
        assert (check.min_degree, check.required_degree) == (4, 5)
        # under the cap the same community is enumerated and fails both clauses
        assert is_community(g, range(9), malicious_count=2).reasons == ("robustness", "degree")


class TestPairEvaluationInputs:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            evaluate_pair(complete_graph(4), {0, 1}, {1, 2}, 0, 1)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            evaluate_pair(complete_graph(4), {0}, (), 0, 1)

    def test_bad_s_rejected(self):
        with pytest.raises(ValueError):
            evaluate_pair(complete_graph(4), {0}, {1}, 0, 0)


class TestWholeGraphPair:
    @settings(deadline=None)
    @given(graphs(10), st.data())
    def test_violation_in_the_graph_is_one_in_the_induced_subgraph(self, g, data):
        # the lemma behind example 2 checking its clique split on the whole graph
        if g.n < 2:
            return
        members = data.draw(st.sets(st.integers(0, g.n - 1), min_size=2))
        sub, nodes = g.induced_subgraph(members)
        outside = g.external_degrees(members)
        sides = data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(nodes),
                                   max_size=len(nodes)).filter(lambda x: {1, 2} <= set(x)))
        pair = [[u for u, side in zip(nodes, sides) if side == i] for i in (1, 2)]
        induced = [[nodes.index(u) for u in part] for part in pair]
        for part, mapped in zip(pair, induced):
            whole = reachable_set(g, part, 0).excess_by_agent
            inside = reachable_set(sub, mapped, 0).excess_by_agent
            assert all(whole[u] == inside[v] + outside[u] for u, v in zip(part, mapped))
        r, s = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 4))
        if not evaluate_pair(g, *pair, r, s).satisfied:
            assert not evaluate_pair(sub, *induced, r, s).satisfied


class TestReachabilityPreservation:
    def test_clique_with_pendant(self):
        g = add_cross_edges(disjoint_union(complete_graph(5), Graph(1)), [(0, 5)])
        res = verify_reachability_preservation(g, range(5))
        assert res.ok and res.mode == "exhaustive"
        assert res.threshold == 1
        assert res.subsets_checked == 31

    def test_matches_naive_on_random_embeddings(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 8), 0.6)
            members = set(rng.sample(range(g.n), rng.randint(2, g.n)))
            res = verify_reachability_preservation(g, members)
            assert res.ok == naive_preservation_holds(g, members)

    def test_sampled_mode_is_deterministic(self):
        g = add_cross_edges(
            disjoint_union(complete_graph(6), complete_graph(3)), [(0, 6), (1, 7)]
        )
        a = verify_reachability_preservation(g, range(6), mode="sampled", samples=500, seed=9)
        b = verify_reachability_preservation(g, range(6), mode="sampled", samples=500, seed=9)
        assert a == b
        assert a.subsets_checked == 500

    def test_exhaustive_mode_needs_no_cap(self):
        cfg = example1()
        big = max(cfg.layout.subsets, key=len)
        assert len(big) == 123
        res = verify_reachability_preservation(cfg.graph, big)
        assert res.ok and res.mode == "exhaustive"
        assert res.subsets_checked == 2**123 - 1
        assert res.threshold == 2

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_property_closed_form_matches_naive(self, data):
        g = data.draw(graphs(9).filter(lambda g: g.n > 0))
        members = data.draw(
            st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n)
        )
        res = verify_reachability_preservation(g, members)
        assert res.ok == naive_preservation_holds(g, members)
        assert res.threshold == g.max_external_degree(members)
        assert res.subsets_checked == 2 ** len(members) - 1

    def test_input_validation(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            verify_reachability_preservation(g, ())
        with pytest.raises(ValueError):
            verify_reachability_preservation(g, range(4), mode="sampled", samples=0)
        with pytest.raises(ValueError):
            verify_reachability_preservation(g, range(4), mode="guess")


class TestWitnessFormatting:
    def test_positive_verdict_line(self):
        text = format_witness(is_rs_excess_robust(complete_graph(9), 1, 2))
        assert text == "robust: yes ((1, 2)-excess robust)\n"

    def test_negative_verdict_includes_subsets_and_excess(self):
        w = is_rs_excess_robust(split_community_graph(), 1, 2)
        text = format_witness(w)
        assert "robust: no" in text
        assert "first subset:" in text and "second subset:" in text
        assert "threshold 1" in text

    def test_plain_negative_verdict(self):
        text = format_witness(is_r_excess_robust(two_triangles(), 0))
        assert "neither side has a reachable agent" in text
