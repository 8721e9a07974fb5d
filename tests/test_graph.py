import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commca import (
    CommunityLayout,
    FormatError,
    Graph,
    add_cross_edges,
    complete_graph,
    disjoint_union,
    format_communities,
    format_graph,
    parse_communities,
    parse_graph,
)

from reference import naive_induced_subgraph, random_graph


class TestGraphConstruction:
    def test_neighbors_sorted_and_degree(self):
        g = Graph(4, [(2, 0), (0, 1), (3, 0)])
        assert g.neighbors(0) == (1, 2, 3)
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_edges_normalized(self):
        g = Graph(3, [(2, 1), (1, 0)])
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_has_edge_symmetric(self):
        g = Graph(3, [(0, 2)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1, [])

    def test_zero_node_graph(self):
        g = Graph(0, [])
        assert g.n == 0 and g.edges == frozenset()

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 1)])

    def test_neighbors_out_of_range(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.neighbors(2)


class TestDegreeQueries:
    def test_min_degree(self):
        assert complete_graph(15).min_degree() == 14
        assert Graph(3, [(0, 1)]).min_degree() == 0
        assert Graph(3, [(0, 1), (1, 2)]).min_degree() == 1

    def test_min_degree_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            Graph(0, []).min_degree()

    def test_max_external_degree(self):
        # path 0-1-2-3: node 1 has one neighbor outside {0, 1}
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.max_external_degree({0, 1}) == 1
        assert g.max_external_degree({1, 2}) == 1
        assert g.max_external_degree({1}) == 2
        assert g.max_external_degree(range(4)) == 0

    def test_max_external_degree_empty_rejected(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.max_external_degree(set())

    def test_zero_external_degree_iff_no_outgoing_edges(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8), rng.random())
            k = rng.randint(1, g.n)
            nodes = set(rng.sample(range(g.n), k))
            crossing = [
                (u, v)
                for (u, v) in g.edges
                if (u in nodes) != (v in nodes)
            ]
            assert (g.max_external_degree(nodes) == 0) == (not crossing)


class TestInducedSubgraph:
    def test_complete_minus_node(self):
        sub = complete_graph(4).induced_subgraph({0, 1, 3})
        assert sub.graph == complete_graph(3)
        assert sub.nodes == (0, 1, 3)

    def test_drops_external_edges(self):
        g = Graph(3, [(0, 1), (1, 2)])
        sub = g.induced_subgraph({0, 2})
        assert sub.graph.edges == frozenset()

    def test_id_mapping_round_trip(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 9), 0.6)
            nodes = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            sub = g.induced_subgraph(nodes)
            assert set(sub.nodes) == nodes
            for a in range(sub.graph.n):
                for b in range(a + 1, sub.graph.n):
                    assert sub.graph.has_edge(a, b) == g.has_edge(
                        sub.nodes[a], sub.nodes[b]
                    )

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match=r"outside 0\.\.2: \[5, 7\]"):
            complete_graph(3).induced_subgraph({0, 5, 7})

    @settings(deadline=None)
    @given(st.integers(1, 14), st.floats(0, 1), st.randoms(use_true_random=False),
           st.data())
    def test_matches_edge_filter(self, n, p, rng, data):
        g = random_graph(rng, n, p)
        members = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        sub = g.induced_subgraph(members)
        assert (sub.graph, sub.nodes) == naive_induced_subgraph(g, members)


class TestBuilders:
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_complete_graph_edge_count(self, n):
        g = complete_graph(n)
        assert len(g.edges) == n * (n - 1) // 2
        assert g.is_complete()

    def test_complete_graph_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            complete_graph(0)

    def test_is_complete_negative_case(self):
        assert not Graph(3, [(0, 1), (1, 2)]).is_complete()
        assert Graph(1, []).is_complete()

    def test_disjoint_union_shifts_second_block(self):
        g = disjoint_union(complete_graph(3), complete_graph(2))
        assert g.n == 5
        assert g.has_edge(3, 4)
        assert not any(g.has_edge(u, v) for u in range(3) for v in (3, 4))

    def test_add_cross_edges(self):
        g = disjoint_union(complete_graph(3), complete_graph(2))
        g2 = add_cross_edges(g, [(0, 3), (1, 4)])
        assert g2.has_edge(0, 3) and g2.has_edge(1, 4)
        assert len(g2.edges) == len(g.edges) + 2

    def test_add_cross_edges_rejects_duplicate(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            add_cross_edges(g, [(0, 1)])

    def test_add_cross_edges_rejects_self_loop(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            add_cross_edges(g, [(2, 2)])


class TestCommunityLayout:
    def test_membership_queries(self):
        layout = CommunityLayout([{0, 1, 2}, {3, 4}], {2, 4})
        assert layout.community_of(3) == 1
        assert layout.is_malicious(2) and not layout.is_malicious(1)
        assert layout.legitimate_in(0) == frozenset({0, 1})
        assert layout.malicious_in(1) == frozenset({4})
        assert layout.malicious_count(0) == 1

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="1.*2|2.*1"):
            CommunityLayout([{0, 1}, {1, 2}], set())

    def test_empty_community_rejected(self):
        with pytest.raises(ValueError):
            CommunityLayout([{0, 1}, set()], set())

    def test_malicious_outside_membership_rejected(self):
        with pytest.raises(ValueError):
            CommunityLayout([{0, 1}], {2})

    def test_community_of_unknown_agent(self):
        layout = CommunityLayout([{0, 1}], set())
        with pytest.raises(ValueError):
            layout.community_of(7)

    def test_require_covering_accepts_exact_cover(self):
        layout = CommunityLayout([{0, 2}, {1}], set())
        layout.require_covering(Graph(3, [(0, 2), (1, 2)]))

    def test_every_edge_internal_once_or_external_twice(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, rng.randint(4, 9), 0.55)
            cut = rng.randint(1, g.n - 1)
            layout = CommunityLayout(
                [set(range(cut)), set(range(cut, g.n))], set()
            )
            for (u, v) in g.edges:
                cu, cv = layout.community_of(u), layout.community_of(v)
                internal = [i for i in range(2) if cu == cv == i]
                external = [i for i in {cu, cv} if cu != cv]
                assert len(internal) + len(external) in (1, 2)
                if internal:
                    assert not external
                else:
                    assert len(external) == 2


def test_require_covering_reports_missing_agent():
    layout = CommunityLayout([{0, 2}], set())
    with pytest.raises(ValueError, match=r"\[1\]"):
        layout.require_covering(Graph(3, [(0, 2), (1, 2)]))


def test_require_covering_reports_extra_agent():
    layout = CommunityLayout([{0, 1, 2, 9}], set())
    with pytest.raises(ValueError, match=r"\[9\]"):
        layout.require_covering(complete_graph(3))


class TestGraphFiles:
    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 10), 0.5)
            assert parse_graph(format_graph(g)) == g

    @settings(deadline=None)
    @given(st.integers(0, 14), st.floats(0, 1), st.randoms(use_true_random=False))
    def test_edge_lines_in_sorted_order(self, n, p, rng):
        g = random_graph(rng, n, p)
        lines = "".join(f"{u} {v}\n" for u, v in sorted(g.edges))
        assert format_graph(g) == f"n {n}\n" + lines

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nn 3\n0 1\n# middle\n1 2\n\n"
        assert parse_graph(text) == Graph(3, [(0, 1), (1, 2)])

    def test_missing_size_line(self):
        with pytest.raises(FormatError):
            parse_graph("0 1\n")

    def test_agent_count_beyond_physical_memory_refused(self, monkeypatch):
        # 80 bytes a declared agent: 12500 agents fit in 10^6 bytes, 12501 do not
        monkeypatch.setattr("commca.graph.physical_memory", lambda: 10**6)
        assert parse_graph("n 12500\n").n == 12500
        with pytest.raises(MemoryError, match="12501 agents"):
            parse_graph("n 12501\n")

    def test_bad_edge_token(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_graph("n 3\n0 x\n")

    def test_edge_arity_error(self):
        with pytest.raises(FormatError):
            parse_graph("n 3\n0 1 2\n")

    def test_duplicate_edge_reported_with_line(self):
        with pytest.raises(FormatError):
            parse_graph("n 3\n0 1\n1 0\n")


class TestCommunityFiles:
    def test_round_trip(self):
        layout = CommunityLayout([{0, 1, 4}, {2, 3}], {1, 3})
        assert parse_communities(format_communities(layout)) == layout

    def test_round_trip_without_malicious(self):
        layout = CommunityLayout([{0, 1}], set())
        assert parse_communities(format_communities(layout)) == layout

    def test_indices_must_start_at_one(self):
        with pytest.raises(FormatError):
            parse_communities("community 2: 0 1\n")

    def test_indices_must_be_consecutive(self):
        with pytest.raises(FormatError):
            parse_communities("community 1: 0\ncommunity 3: 1\n")

    def test_duplicate_index_rejected(self):
        with pytest.raises(FormatError):
            parse_communities("community 1: 0\ncommunity 1: 1\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(FormatError):
            parse_communities("cluster 1: 0\n")

    def test_malicious_line_parsed(self):
        layout = parse_communities("community 1: 0 1 2\nmalicious: 2\n")
        assert layout.malicious == frozenset({2})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("community 1: 0 1 0\n", "line 1: ids listed twice: [0]"),
            ("# ids\n\ncommunity 1: 0 1\nmalicious: 1 1\n", "line 4: ids listed twice: [1]"),
            ("community 1: 0\n\ncommunity 1: 1\n", "line 3: community 1 listed twice"),
            ("community 1: 0\nmalicious: 0\nmalicious: 0\n", "line 3: repeated malicious line"),
        ],
    )
    def test_repeated_declarations_name_their_line(self, text, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_communities(text)
