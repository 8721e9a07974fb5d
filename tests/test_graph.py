import random
import re
import struct
import warnings
from itertools import chain

import numpy as np
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
    format_witness,
    is_community,
    is_rs_excess_robust,
    parse_communities,
    parse_graph,
)
from commca.graph import _EDGE, bulk_rows, content_lines
from commca.scenarios import _ENTRY, _read_table

from reference import naive_graph, naive_induced_subgraph, random_graph


def edge_lists(n):
    """Edge lists on n agents: simple ones, and ones with ids from -1 to n
    that may hold self-loops, out-of-range ends and repeats, several at once."""
    agent = st.integers(0, max(n - 1, 0))
    simple = st.lists(st.tuples(agent, agent).filter(lambda e: e[0] != e[1]),
                      unique_by=frozenset) if n >= 2 else st.just([])
    loose = st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=3 * n + 2)
    return st.one_of(simple, loose)


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

    @settings(deadline=None)
    @given(st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n), edge_lists(n))))
    def test_matches_naive_reference(self, case):
        n, edges = case
        expected = naive_graph(n, edges)
        if isinstance(expected, str):  # the message of the first bad edge
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                Graph(n, edges)
            return
        edge_set, rows = expected
        g = Graph(n, edges)
        assert g.edges == edge_set
        assert tuple(g.neighbors(u) for u in range(n)) == rows
        for u in range(n):
            for v in range(n):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edge_set)
        assert g.is_complete() == (len(edge_set) == n * (n - 1) // 2)
        assert g.neighbor_masks() == tuple(sum(1 << v for v in row) for row in rows)
        assert repr(g) == f"Graph(n={n}, edges={len(edge_set)})"
        same = Graph(n, sorted(edge_set, reverse=True))
        assert g == same and hash(g) == hash(same)
        assert g != Graph(n + 1, edge_set)
        if edge_set:
            assert g != Graph(n, sorted(edge_set)[1:])


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
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            add_cross_edges(g, [(1, 0)])

    def test_add_cross_edges_rejects_repeated_pair(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(ValueError, match=r"^duplicate edge \(2, 3\)$"):
            add_cross_edges(g, [(2, 3), (3, 2)])

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
        with pytest.raises(FormatError, match=r"^line 3: duplicate edge \(0, 1\)$"):
            parse_graph("n 3\n0 1\n1 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# loops\nn 3\n0 1\n\n2 2\n", "line 5: self-loop on agent 2"),
            ("n 3\n0 1\n1 3\n", "line 3: edge (1, 3) outside agent range 0..2"),
            ("n -1\n", "line 1: agent count must be non-negative"),
            # six tokens over two lines: the per-line count still names line 2
            ("n 4\n0 1 2\n3\n", "line 2: expected 'u v', got '0 1 2'"),
            pytest.param("n 20000\n" + "".join(f"{i} {i + 1}\n" for i in range(19999)) + "0 1\n",
                         "line 20001: duplicate edge (0, 1)", id="last-of-20000-repeats-first"),
            # ids beyond int64, one of them 2^64 + 1
            ("n 3\n0 1\n9223372036854775808 1\n",
             "line 3: edge (9223372036854775808, 1) outside agent range 0..2"),
            ("n 3\n0 1\n0 18446744073709551617\n",
             "line 3: edge (0, 18446744073709551617) outside agent range 0..2"),
        ],
    )
    def test_bad_edge_reported_with_line(self, text, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_graph(text)

    @pytest.mark.parametrize("edge", ["+7 3", "007 3", "0_7 3", "\u0667 3", "7\x1c3", "7\x853",
                                      "7\u20033", "0000000000000000007 3"])
    def test_edge_read_as_int_reads_its_ids(self, edge):
        assert parse_graph(f"n 12\n0 1\n{edge}\n1 2\n") == Graph(12, [(0, 1), (7, 3), (1, 2)])

    @pytest.mark.parametrize("at", [1000, 9000, 19998])
    def test_long_edge_list_is_read_as_int_reads_it_to_its_end(self, at):
        # a path of 20000 agents, over 200,000 characters, with one id that
        # only int() reads at the start, the middle or the end
        lines = [f"{i} {i + 1}\r\n" if i % 7 else f"#{i}\r\n  {i}\t {i + 1}\r\n"
                 for i in range(19999)]
        lines[at] = f"{at:_} {at + 1}\n"
        path = Graph(20000, [(i, i + 1) for i in range(19999)])
        assert parse_graph("n 20000\n" + "".join(lines)) == path

    def test_first_bad_line_in_file_order_wins(self):
        # a bad edge ahead of a bad token is reported, and the reverse
        with pytest.raises(FormatError, match=r"^line 2: self-loop on agent 0$"):
            parse_graph("n 3\n0 0\n0 x\n")
        with pytest.raises(FormatError, match=r"^line 2: bad edge '0 x'$"):
            parse_graph("n 3\n0 x\n0 0\n")


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


class TestLineNumbering:
    """Only '\n' ends a line, so an error names the line `grep -n` shows."""

    @pytest.mark.parametrize(
        "brk", ["\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["form-feed", "vtab", "fs", "gs", "rs", "nel", "line-sep", "para-sep"],
    )
    def test_other_break_characters_stay_inside_their_line(self, brk):
        with pytest.raises(FormatError, match=r"^line 3: self-loop on agent 2$"):
            parse_graph(f"n 3\n0 1{brk}\n2 2\n")
        # inside a line the character separates tokens, as whitespace does
        assert parse_graph(f"n 3\n0{brk}1\n") == Graph(3, [(0, 1)])

    def test_crlf_endings_count_each_line_once(self):
        with pytest.raises(FormatError, match=r"^line 3: self-loop on agent 2$"):
            parse_graph("n 3\r\n0 1\r\n2 2\r\n")
        assert parse_graph("# crlf\r\nn 3\r\n0 1\r\n\r\n1 2\r\n") == Graph(3, [(0, 1), (1, 2)])

    def test_community_files_number_lines_the_same_way(self):
        with pytest.raises(FormatError, match=r"^line 2: community 1 listed twice$"):
            parse_communities("community 1: 0 1\x0c\ncommunity 1: 2\n")
        with pytest.raises(FormatError, match=r"^line 2: community 1 listed twice$"):
            parse_communities("community 1: 0 1\r\ncommunity 1: 2\r\n")


# Spellings of the tokens of edge and table lines: ids int() reads, values
# float() reads, and noise that one of them, or both, may decline.
INT_TOKENS = st.one_of(st.integers(-2**63, 2**63 - 1).map(str),
                       st.integers(0, 99).map("+{}".format), st.integers(0, 99).map("00{}".format))
FLOAT_TOKENS = st.one_of(
    INT_TOKENS, st.floats().map(repr),
    st.sampled_from(["inf", "-Infinity", "INF", "nan", "-nan", "+nan", "1.", ".5", "-.5e-3",
                     "1E5", "1e-400", "1e400"]))
NOISE_TOKENS = st.one_of(
    st.text("0123456789+-_.e#\x00", max_size=5), st.integers(2**63, 2**65).map(str),
    st.integers(-2**65, -2**63 - 1).map(str),
    st.sampled_from(["_", "e", ".", "inf", "nan", "nan(1)", "0_7", "1_0.5", "\x00", "#"]))
# every ASCII character str.split() splits on but '\n' and '\r'
SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
# what a spoilt line gets in place of a few of its characters
SPOILS = st.one_of(NOISE_TOKENS, NOISE_TOKENS.map(" {} ".format), st.just("\r"),
                   st.text(SPACES + "0123456789\r#").map("#{}".format))


@st.composite
def row_texts(draw, columns):
    """A text of rows of `columns` (a spelling strategy per token), with
    blank and '#' lines between and LF or CRLF endings, maybe none on the
    last line.  In two texts of three, one or two lines are then spoilt: a
    few characters at some place give way to a noise token, alone or as a
    token of its own, to a lone '\r' or to a '#' and what follows it."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        pad = draw(st.text(SPACES, max_size=2))
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "row":
            lines.append(pad + "".join(draw(column) + draw(st.text(SPACES, min_size=1, max_size=2))
                                       for column in columns))
        else:
            lines.append(pad + ("#" + draw(st.text(SPACES + "0123456789#\x00")) if kind == "comment"
                                else ""))
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + draw(SPOILS) + lines[k][at + draw(st.integers(0, 3)):]
    endings = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if endings and draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


def read_as_line_pass(text: str, kinds) -> list[tuple] | None:
    """The rows that the line-by-line pass reads from `text`, each token
    converted by its kind (int or float); None where it names a line."""
    rows = []
    for _, line in content_lines(text):
        tokens = line.split()
        if len(tokens) != len(kinds):
            return None
        try:
            rows.append(tuple(kind(tok) for kind, tok in zip(kinds, tokens)))
        except ValueError:
            return None
    return rows


def exact(rows) -> list[tuple]:
    """Rows with every float as its bit pattern, so nan and -0.0 compare exactly."""
    return [tuple(struct.pack("<d", x) if isinstance(x, float) else x for x in row)
            for row in rows]


class TestBulkRows:
    """Whatever numpy's text reader accepts, the line-by-line pass reads the same."""

    @settings(deadline=None, max_examples=400)
    @given(row_texts([INT_TOKENS, INT_TOKENS]))
    def test_edge_rows_are_what_the_line_pass_reads(self, text):
        rows = bulk_rows(text, _EDGE)
        if rows is not None:
            assert read_as_line_pass(text, (int, int)) == list(map(tuple, rows["edge"].tolist()))

    @settings(deadline=None, max_examples=400)
    @given(row_texts([INT_TOKENS, INT_TOKENS, FLOAT_TOKENS]))
    def test_table_rows_are_what_the_line_pass_reads(self, text):
        rows = bulk_rows(text, _ENTRY)
        if rows is not None:
            want = read_as_line_pass(text, (int, int, float))
            assert want is not None and exact(want) == exact(rows.tolist())

    @pytest.mark.filterwarnings("ignore")
    def test_ids_written_as_floats_are_declined_with_warnings_ignored(self):
        assert bulk_rows("0 1.0\n", _EDGE) is None
        with pytest.raises(FormatError, match="^line 2: bad edge '0 1.9'$"):
            parse_graph("n 3\n0 1.9\n")
        with pytest.raises(FormatError, match="^line 7: bad id list '0 1.0'$"):
            _read_table("0 1.0 2\n", 7)

    @pytest.mark.filterwarnings("ignore")
    def test_a_reader_that_warns_is_declined(self, monkeypatch):
        # numpy releases that keep the 1.23 "integer via a float" deprecation
        # read '1.9' in an int64 field as 1 and only warn
        def truncate_and_warn(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return np.array([((0, 1),)], _EDGE)

        monkeypatch.setattr(np, "loadtxt", truncate_and_warn)
        assert bulk_rows("0 1.9\n", _EDGE) is None
        with pytest.raises(FormatError, match="^line 2: bad edge '0 1.9'$"):
            parse_graph("n 3\n0 1.9\n")

    def test_non_ascii_lines_never_reach_numpy(self, monkeypatch):
        # repeated np.loadtxt calls on rejected lines with astral-plane
        # characters crashed numpy 2.4.6, so such text goes to the line pass
        def refuse(*args, **kwargs):
            pytest.fail("np.loadtxt was given non-ASCII text")

        monkeypatch.setattr(np, "loadtxt", refuse)
        assert parse_graph("n 12\n0 1\n1 \u0667\n") == Graph(12, [(0, 1), (1, 7)])
        with pytest.raises(FormatError, match="^line 3: bad edge '0\U00010000 1'$"):
            parse_graph("n 12\n0 1\n0\U00010000 1\n")
        with pytest.raises(FormatError, match="^line 3: expected 'u v', got '\U00010000'$"):
            parse_graph("n 12\n0 1\n\U00010000\n")
        assert _read_table("0 1 2.5\n1 \u0667 3\n", 7) == {(0, 1): 2.5, (1, 7): 3.0}
        assert _read_table("0 1 \u0667.5\n", 7) == {(0, 1): 7.5}
        with pytest.raises(FormatError, match="^line 8: bad id list '1\U00010000 2'$"):
            _read_table("0 1 2.5\n1\U00010000 2 3\n", 7)
        with pytest.raises(FormatError, match="^line 8: bad number '3\U00010000'$"):
            _read_table("0 1 2.5\n1 2 3\U00010000\n", 7)


# One graph, built four ways: six agents, a 4-cycle with a chord plus a
# separate edge, so that robustness checks fail with a witness.
LEAK_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5)]
LEAK_SOURCES = {
    "list": lambda: Graph(6, LEAK_EDGES),
    "int32": lambda: Graph(np.int32(6), np.array(LEAK_EDGES, dtype=np.int32)),
    "int64": lambda: Graph(np.int64(6), np.array(LEAK_EDGES, dtype=np.int64)),
    "text": lambda: parse_graph("n 6\n" + "".join(f"{v} {u}\n" for u, v in LEAK_EDGES)),
}


def all_python_ints(values) -> bool:
    return all(type(x) is int for x in values)


@pytest.mark.parametrize("source", sorted(LEAK_SOURCES))
class TestPythonValuesOut:
    """Whatever a graph is built from, its views hand out Python ints and
    bools, and no message or output shows a numpy scalar."""

    def test_views_return_python_ints(self, source):
        g = LEAK_SOURCES[source]()
        members = np.array([0, 1, 4], dtype=np.int32)
        sub = g.induced_subgraph(members)
        assert g == Graph(6, LEAK_EDGES)
        assert all_python_ints([g.n, g.degree(0), g.min_degree(), g.max_external_degree(members)])
        assert all_python_ints(chain.from_iterable(g.neighbors(u) for u in range(g.n)))
        assert all_python_ints(chain.from_iterable(g.edges))
        assert all_python_ints(chain.from_iterable(g.external_degrees(members).items()))
        assert all_python_ints(sub.nodes) and all_python_ints(chain.from_iterable(sub.graph.edges))
        assert all_python_ints(g.neighbor_masks())
        assert type(g.has_edge(0, 1)) is bool and type(g.is_complete()) is bool
        assert not (g.indptr.flags.writeable or g.indices.flags.writeable)

    def test_witness_ids_are_python_ints(self, source):
        g = LEAK_SOURCES[source]()
        witness = is_rs_excess_robust(g, 1, 1)
        check = is_community(g, range(6), 0)
        assert not witness.robust and check.witness is not None
        for w in (witness, check.witness):
            for rep in w.reports:
                assert all_python_ints(chain(rep.subset, rep.reachable, rep.excess_by_agent,
                                             rep.excess_by_agent.values()))
            assert "np." not in format_witness(w)

    def test_messages_show_no_numpy_scalars(self, source):
        g = LEAK_SOURCES[source]()
        dtype = np.int32 if source == "int32" else np.int64
        bad_edges = [[[0, 0]], [[0, 9]], [[0, 1], [1, 0]]]
        for edges in bad_edges:
            with pytest.raises(ValueError) as exc:
                Graph(3, np.array(edges, dtype=dtype))
            assert "np." not in str(exc.value)
        for call in (lambda: g.induced_subgraph(np.array([0, 9], dtype=dtype)),
                     lambda: g.external_degrees(np.array([-1], dtype=dtype)),
                     lambda: g.neighbors(np.int32(7))):
            with pytest.raises(ValueError) as exc:
                call()
            assert "np." not in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 3\n0 99999999999999999999\n",
         "line 2: edge (0, 99999999999999999999) outside agent range 0..2"),
        ("n 3\n0 1\n1 18446744073709551615\n",
         "line 3: edge (1, 18446744073709551615) outside agent range 0..2"),
        ("n 3\n-9223372036854775809 1\n0 0\n",
         "line 2: edge (-9223372036854775809, 1) outside agent range 0..2"),
    ],
    ids=["beyond-uint64", "uint64-range", "below-int64"],
)
def test_ids_beyond_int64_are_named_as_written(text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_graph(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message.partition(': ')[2])}$"):
        Graph(3, [tuple(map(int, line.split())) for line in text.splitlines()[1:]])


def test_first_repeat_in_input_order_is_named_not_the_least_edge():
    # both (2, 3) and (0, 1) repeat; (2, 3) repeats first
    with pytest.raises(ValueError, match=r"^duplicate edge \(2, 3\)$"):
        Graph(4, [(2, 3), (0, 1), (3, 2), (1, 0)])
    with pytest.raises(FormatError, match=r"^line 4: duplicate edge \(2, 3\)$"):
        parse_graph("n 4\n2 3\n0 1\n3 2\n1 0\n")
