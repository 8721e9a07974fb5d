import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from commca import (
    ConstantValue,
    ExplicitValues,
    Graph,
    InitializerSpec,
    IsolationReport,
    NormalDraw,
    PerNeighborTable,
    RoundScript,
    SimulationConfig,
    add_cross_edges,
    complete_graph,
    disjoint_union,
    format_communities,
    format_graph,
    format_scenario,
    is_community,
    load_scenario,
    parse_graph,
    verify_reachability_preservation,
)
from commca.cli import build_parser, main
from commca.graph import CommunityLayout
from commca.scenarios import EXAMPLES, example1, example2, example3

from test_acceptance import embedded_community_cases


def write_graph(tmp_path, g, name="graph.txt"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


def write_communities(tmp_path, layout, name="communities.txt"):
    path = tmp_path / name
    path.write_text(format_communities(layout))
    return str(path)


def count_external_degree_passes(monkeypatch):
    """The member sets Graph.external_degrees is called with, in call order."""
    passes = []
    external_degrees = Graph.external_degrees

    def counted(self, members):
        passes.append(frozenset(members))
        return external_degrees(self, members)

    monkeypatch.setattr(Graph, "external_degrees", counted)
    return passes


def split_graph(bridge=4):
    """A 5-clique on 0..4 and a 4-clique on 5..8, joined through `bridge`."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
    edges += [(bridge, v) for v in range(5, 9)]
    return Graph(9, edges)


def blocks_24():
    """Two K_12 blocks, each agent joined to all but two agents of the other
    block: minimum degree 21 puts every non-full subset at 12 or more
    agents, and the two blocks violate every (0, s) clause."""
    return Graph(24, [(u, v) for u in range(24) for v in range(u + 1, 24)
                      if (u < 12) == (v < 12) or (v - 12 - u) % 12 > 1])


INTRUDER_DOC = """\
graph
n 5
0 1
0 2
0 3
1 2
1 3
2 3
0 4
communities
community 1: 0 1 2 3
community 2: 4
malicious
3 4
init
community 1: explicit 2.0 2.0 2.0
community 2: explicit
malicious: constant 60.0
protocol
alpha 0.9
rounds 10
seed 0
"""


class TestCheckRobustness:
    def test_rs_pass(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_graph(9))
        assert main(["check", path, "--rs", "1", "2"]) == 0
        assert "robust: yes" in capsys.readouterr().out

    def test_rs_fail_prints_witness(self, tmp_path, capsys):
        path = write_graph(tmp_path, split_graph())
        assert main(["check", path, "--rs", "1", "2"]) == 1
        out = capsys.readouterr().out
        assert "robust: no" in out
        assert "first subset:" in out

    def test_plain_r_fail(self, tmp_path, capsys):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        path = write_graph(tmp_path, g)
        assert main(["check", path, "--r", "0"]) == 1
        assert "neither side has a reachable agent" in capsys.readouterr().out

    def test_plain_r_pass(self, tmp_path):
        path = write_graph(tmp_path, complete_graph(3))
        assert main(["check", path, "--r", "2"]) == 0

    def test_exactly_one_mode_required(self, tmp_path, capsys):
        # a usage error, reported before the graph is read: a missing file too
        for path in (write_graph(tmp_path, complete_graph(3)), str(tmp_path / "missing.txt")):
            for argv in (["--rs", "1", "1", "--r", "0"], []):
                assert main(["check", path, *argv]) == 2
                assert capsys.readouterr() == ("", "error: pass exactly one of --rs, --r, --community\n")

    def test_community_mode_needs_communities_file(self, tmp_path, capsys):
        for path in (write_graph(tmp_path, complete_graph(9)), str(tmp_path / "missing.txt")):
            assert main(["check", path, "--community", "2"]) == 2
            assert capsys.readouterr() == ("", "error: --community needs a --communities file\n")


class TestCheckCommunities:
    def test_community_pass(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, complete_graph(9))
        cpath = write_communities(
            tmp_path, CommunityLayout([range(9)], {7, 8})
        )
        rc = main(["check", gpath, "--communities", cpath, "--community", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "community 1: community=yes" in out

    def test_community_degree_failure(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, complete_graph(9))
        cpath = write_communities(tmp_path, CommunityLayout([range(9)]))
        rc = main(["check", gpath, "--communities", cpath, "--community", "4"])
        assert rc == 1
        assert "failed=degree" in capsys.readouterr().out

    def test_failing_complete_community_prints_its_pair(self, tmp_path, capsys):
        g = add_cross_edges(disjoint_union(complete_graph(10), Graph(4)),
                            [(0, v) for v in range(10, 14)])
        gpath = write_graph(tmp_path, g)
        cpath = write_communities(tmp_path, CommunityLayout([range(10), range(10, 14)]))
        rc = main(["check", gpath, "--communities", cpath, "--community", "0"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "community 1: community=no external=4 min-degree=9 required=5 " \
               "failed=robustness\nrobust: no (not (4, 1)-excess robust)\n" in out
        assert "first subset: 0 1 2 3\n" in out and "second subset: 4 5 6 7\n" in out

    def test_bound_decides_community_beyond_the_cap(self, tmp_path, capsys, monkeypatch):
        # K_40 minus a perfect matching: the minimum-degree bound, not the engine
        monkeypatch.delenv("COMMCA_CAP", raising=False)
        g = Graph(40, [(u, v) for u in range(40) for v in range(u + 1, 40)
                       if u // 2 != v // 2])
        gpath = write_graph(tmp_path, g)
        cpath = write_communities(tmp_path, CommunityLayout([range(40)]))
        assert main(["check", gpath, "--communities", cpath, "--community", "3"]) == 0
        assert capsys.readouterr().out == (
            "community 1: community=yes external=0 min-degree=38 required=7\n")

    def test_degree_decides_community_beyond_the_cap(self, tmp_path, capsys, monkeypatch):
        # a 30-agent path fails the degree clause (1 < 3) before any enumeration
        monkeypatch.delenv("COMMCA_CAP", raising=False)
        gpath = write_graph(tmp_path, Graph(30, [(i, i + 1) for i in range(29)]))
        cpath = write_communities(tmp_path, CommunityLayout([range(30)]))
        assert main(["check", gpath, "--communities", cpath, "--community", "1"]) == 1
        assert capsys.readouterr() == (
            "community 1: community=no external=0 min-degree=1 required=3 failed=degree\n", "")

    def test_communities_must_cover_graph(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, complete_graph(4))
        cpath = write_communities(tmp_path, CommunityLayout([{0, 1}]))
        rc = main(["check", gpath, "--communities", cpath, "--community", "0"])
        assert rc == 2

    @pytest.mark.parametrize("g, s, code", [
        (split_graph(), 2, 1),
        (split_graph(bridge=0), 2, 1),
        (Graph(9, [(i, (i + 1) % 9) for i in range(9)]), 1, 0),
        (complete_graph(9), 3, 0),
        (complete_graph(30), 3, 0),
        (blocks_24(), 3, 1),
        (Graph(23, [(i, i + 1) for i in range(22)]), 1, 3),
    ], ids=["split", "split-bridged-at-0", "cycle-9", "K9", "K30", "blocks-24", "path-23"])
    def test_whole_graph_community_agrees_with_the_rs_check(self, tmp_path, capsys,
                                                            monkeypatch, g, s, code):
        # one community of every agent has external degree 0, so its
        # robustness clause is (0, s)-excess robustness of the whole graph;
        # each case passes the degree clause, so only that clause decides
        monkeypatch.delenv("COMMCA_CAP", raising=False)
        gpath = write_graph(tmp_path, g)
        cpath = write_communities(tmp_path, CommunityLayout([range(g.n)]))
        assert main(["check", gpath, "--rs", "0", str(s)]) == code
        rs = capsys.readouterr()
        assert main(["check", gpath, "--communities", cpath, "--community", str(s - 1)]) == code
        community = capsys.readouterr()
        if code == 3:
            assert community == rs and "exceeds the cap of 22" in rs.err
            return
        head, _, witness = community.out.partition("\n")
        assert head.endswith(" failed=robustness") is (code == 1)
        assert witness == (rs.out if code == 1 else "")

    @pytest.mark.parametrize("example", sorted(EXAMPLES))
    def test_each_community_takes_one_external_degree_pass(self, tmp_path, capsys,
                                                          monkeypatch, example):
        cfg = EXAMPLES[example]()
        gpath = write_graph(tmp_path, cfg.graph)
        cpath = write_communities(tmp_path, cfg.layout)
        passes = count_external_degree_passes(monkeypatch)
        assert main(["check", gpath, "--communities", cpath, "--community", "1"]) in (0, 1)
        assert passes == list(cfg.layout.subsets)


class TestCheckErrors:
    def test_unparseable_graph(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("nodes 5\n")
        assert main(["check", str(path), "--rs", "0", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_edge_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "loop.txt"
        path.write_text("n 4\n0 1\n\n# then a loop\n3 3\n")
        assert main(["check", str(path), "--rs", "0", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: line 5: self-loop on agent 3\n")

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.txt"), "--rs", "0", "1"]) == 2

    @pytest.mark.parametrize("graph, communities, message", [
        ("", None, "missing 'n <count>' line"),
        ("# no count\n\n# line\n", None, "missing 'n <count>' line"),
        ("n 2\n0 1\n", "malicious: 1\n", "no community lines found"),
    ], ids=["empty-graph", "comments-only-graph", "malicious-line-only"])
    def test_malformed_file_exits_2_with_its_message(self, tmp_path, capsys, graph,
                                                     communities, message):
        gpath = tmp_path / "graph.txt"
        gpath.write_text(graph)
        argv = ["check", str(gpath), "--r", "0"]
        if communities is not None:
            cpath = tmp_path / "communities.txt"
            cpath.write_text(communities)
            argv = ["check", str(gpath), "--community", "0", "--communities", str(cpath)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text", [b"n 3\n0 1\x0c\n2 2\n", b"n 3\r\n0 1\r\n2 2\r\n"],
                             ids=["form-feed", "crlf"])
    def test_bad_edge_line_is_the_line_grep_shows(self, tmp_path, capsys, text):
        path = tmp_path / "graph.txt"
        path.write_bytes(text)
        assert main(["check", str(path), "--r", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: line 3: self-loop on agent 2\n")

    @pytest.mark.parametrize("text, message", [
        (b"n 3\r0 1\n2 2\n", "line 1: expected 'n <count>', got 'n 3\\r0 1'"),
        (b"n 3\n# 0 1\r0 2\n2 2\n", "line 3: self-loop on agent 2"),
    ], ids=["in-the-count-line", "in-a-comment"])
    def test_lone_carriage_return_ends_no_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "graph.txt"
        path.write_bytes(text)
        with pytest.raises(ValueError) as raised:
            parse_graph(text.decode())
        assert str(raised.value) == message
        assert main(["check", str(path), "--r", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_lone_carriage_return_separates_tokens(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"n 3\n0\r1\n")
        assert parse_graph("n 3\n0\r1\n") == Graph(3, [(0, 1)])
        assert main(["check", str(path), "--r", "0"]) == 0
        assert capsys.readouterr() == ("robust: yes (0-excess robust)\n", "")

    def test_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COMMCA_CAP", "4")
        path = write_graph(tmp_path, Graph(9, [(i, i + 1) for i in range(8)]))
        assert main(["check", path, "--rs", "0", "1"]) == 3
        assert "cap" in capsys.readouterr().err

    def test_force_lifts_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COMMCA_CAP", "4")
        path = write_graph(tmp_path, Graph(9, [(i, i + 1) for i in range(8)]))
        assert main(["check", path, "--rs", "0", "1", "--force"]) in (0, 1)

    def test_bad_cap_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COMMCA_CAP", "lots")
        path = write_graph(tmp_path, complete_graph(3))
        assert main(["check", path, "--rs", "0", "1"]) == 2
        assert "COMMCA_CAP" in capsys.readouterr().err

    def test_negative_cap_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COMMCA_CAP", "-1")
        path = write_graph(tmp_path, complete_graph(3))
        assert main(["check", path, "--rs", "0", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: COMMCA_CAP must be a non-negative integer, got '-1'\n"

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_memory(masks, r):
            raise MemoryError

        monkeypatch.setattr("commca.robustness._subset_table", no_memory)
        path = write_graph(tmp_path, Graph(9, [(i, i + 1) for i in range(8)]))
        assert main(["check", path, "--rs", "0", "1", "--force"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert "512 subsets of 9 agents" in err

    def test_tables_beyond_physical_memory_refused_up_front(
        self, tmp_path, capsys, monkeypatch
    ):
        # By the estimate 9 agents need 3 * 512 + 9 * 512 + (23 * 9 + 8) * 32
        # = 13024 bytes, 8 agents 3 * 256 + 8 * 256 + (23 * 8 + 8) * 16 = 5888
        monkeypatch.setattr("commca.graph.physical_memory", lambda: 8192)
        path = write_graph(tmp_path, Graph(9, [(i, i + 1) for i in range(8)]))
        assert main(["check", path, "--rs", "0", "1", "--force"]) == 3
        err = capsys.readouterr().err
        assert err == "error: out of memory: cannot tabulate all 512 subsets of 9 agents\n"
        path = write_graph(tmp_path, Graph(8, [(i, i + 1) for i in range(7)]))
        assert main(["check", path, "--rs", "0", "1", "--force"]) == 0

    def test_agent_count_beyond_physical_memory_refused_up_front(
        self, tmp_path, capsys, monkeypatch
    ):
        # small enough that parsing it costs little should the guard be missing
        monkeypatch.setattr("commca.graph.physical_memory", lambda: 10**6)
        path = tmp_path / "huge.txt"
        path.write_text("n 20000\n")
        assert main(["check", str(path), "--r", "0"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: out of memory: 20000 agents")

    def test_subset_table_beyond_address_space(self, tmp_path, capsys):
        path = write_graph(tmp_path, Graph(64, [(i, i + 1) for i in range(63)]))
        assert main(["check", path, "--r", "0", "--force"]) == 3
        assert "18446744073709551616 subsets of 64 agents" in capsys.readouterr().err

    def test_default_cap_is_22_agents(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("COMMCA_CAP", raising=False)
        path = write_graph(tmp_path, Graph(22, [(i, i + 1) for i in range(21)]))
        assert main(["check", path, "--r", "0"]) in (0, 1)
        path = write_graph(tmp_path, Graph(23, [(i, i + 1) for i in range(22)]))
        assert main(["check", path, "--r", "0"]) == 3
        assert "over 23 agents exceeds the cap of 22" in capsys.readouterr().err

    def test_raised_cap_allows_larger_graphs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COMMCA_CAP", "16")
        path = write_graph(tmp_path, Graph(16, [(i, i + 1) for i in range(15)]))
        assert main(["check", path, "--r", "0"]) in (0, 1)


class TestRun:
    def test_example_two_reports_split(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            ["run", "--example", "2", "--rounds", "600", "--out", str(out)]
        )
        assert rc == 1
        printed = capsys.readouterr().out
        assert "community 1: agreement=yes" in printed
        assert "community 2: agreement=no" in printed
        assert "clusters=2" in printed
        for name in ("trace.csv", "verdict.txt", "scenario.txt"):
            assert (out / name).exists()
        csv = (out / "trace.csv").read_text().splitlines()
        assert csv[0] == "round,agent,community,role,value"
        assert len(csv) == 1 + 25 * 601
        reloaded = load_scenario((out / "scenario.txt").read_text())
        assert reloaded == example2(rounds=600)
        assert (out / "verdict.txt").read_text().startswith("parameters:")

    def test_scenario_document_input(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text(
            "graph\nn 5\n"
            + "\n".join(
                f"{u} {v}" for u in range(5) for v in range(u + 1, 5)
            )
            + "\ncommunities\ncommunity 1: 0 1 2 3 4\nmalicious\n4\n"
            "init\ncommunity 1: normal 10.0 1.0\nmalicious: constant 60.0\n"
            "protocol\nalpha 0.9\nrounds 400\nseed 1\n"
        )
        rc = main(["run", "--scenario", str(doc), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "agreement=yes" in capsys.readouterr().out

    def test_non_finite_script_value_exit_code(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text(INTRUDER_DOC + "adversary\nscript 60.0 nan\n")
        assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / "o")]) == 2
        assert "error: line 24: script values must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_values_beyond_the_bound_exit_code(self, tmp_path, capsys):
        # all legitimate; agents 2 and 5 would add two values of 1.7e308 for
        # an even median and write inf, then nan
        doc = tmp_path / "doc.txt"
        doc.write_text(
            "graph\nn 9\n0 2\n1 2\n2 7\n2 6\n3 5\n4 5\n5 8\n5 6\n"
            "communities\ncommunity 1: 0 1 2 3 4 5 6 7 8\ninit\ncommunity 1: explicit "
            "1.7e308 1.7e308 0.0 -1.7e308 -1.7e308 0.0 0.0 1.7e308 -1.7e308\n"
            "protocol\nalpha 0.9\nrounds 60\nseed 0\n"
        )
        assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: initial values not finite or beyond 1e300: agents [0, 1, 3, 4, 7, 8]\n"
        )
        assert not (tmp_path / "o").exists()

    def test_trace_beyond_physical_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("commca.graph.physical_memory", lambda: 1 << 20)
        rc = main(["run", "--example", "3", "--rounds", "5000", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: out of memory: a 5000-round trace of 26 agents does not fit in memory\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rounds", "10", "--window", "20"],
             "trace has 11 rows, fewer than the agreement window 20"),
            (["--eps", "nan"],
             "epsilon and delta must be finite and positive, tau finite and non-negative"),
            (["--delta", "0"],
             "epsilon and delta must be finite and positive, tau finite and non-negative"),
            (["--window", "0"], "agreement window must be at least 1"),
            # the config's own problems still come first
            (["--rounds", "0", "--window", "20"], "round count must be at least 1, got 0"),
            (["--alpha", "2", "--eps", "nan"],
             "alpha must lie strictly between 0 and 1, got 2.0"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_verdict_flags_checked_before_any_round(self, flags, message, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr("commca.cli.run", lambda config: pytest.fail("run() was called"))
        out = tmp_path / "o"
        assert main(["run", "--example", "2", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("malicious: constant 60.0", "malicious: 60",
         "line 18: expected 'malicious: constant <v>'"),
        ("community 1: explicit 2.0 2.0 2.0", "community 1:", "line 16: empty init entry"),
        ("seed 0\n", "seed 0\nadversary\nscript 1 2\nscript 3\n",
         "line 24: expected a single 'script <v...>' line"),
    ], ids=["malicious-without-constant", "empty-init-entry", "second-script-line"])
    def test_malformed_scenario_exits_2_with_its_message(self, tmp_path, capsys, old, new,
                                                         message):
        doc = tmp_path / "doc.txt"
        doc.write_text(INTRUDER_DOC.replace(old, new))
        assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_stray_table_entry_exit_code(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text(INTRUDER_DOC + "adversary\ntable 60.0\n4 0 90.0\n1 0 90.0\n")
        assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / "o")]) == 2
        assert "[(1, 0)]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("rounds 10", "rounds 2.9"),
            ("rounds 10", "rounds inf"),
            ("rounds 10", "rounds 1e12"),
            ("seed 0", "seed inf"),
            ("community 2: 4\n", "community 2: 4\nexternal 1 inf\n"),
        ],
    )
    def test_non_integer_scenario_token_exit_code(self, tmp_path, capsys, old, new):
        doc = tmp_path / "doc.txt"
        doc.write_text(INTRUDER_DOC.replace(old, new))
        assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / "o")]) == 2
        assert "bad integer" in capsys.readouterr().err

    @pytest.mark.parametrize("example", ["1", "3"])
    def test_negative_seed_override_exit_code(self, tmp_path, capsys, example):
        rc = main(["run", "--example", example, "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"

    def test_negative_document_seed_exit_code(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text(INTRUDER_DOC.replace("seed 0", "seed -1"))
        assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"

    def test_document_is_validated_with_the_overrides_applied(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text(INTRUDER_DOC.replace("rounds 10", "rounds 0"))
        argv = ["run", "--scenario", str(doc), "--window", "5", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: round count must be at least 1, got 0\n"
        assert main(argv + ["--rounds", "10"]) == 1  # community 1 splits
        assert "rounds 10\n" in (tmp_path / "o" / "scenario.txt").read_text()

    def test_invalid_rounds_override(self, capsys, tmp_path):
        rc = main(
            ["run", "--example", "1", "--rounds", "0", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "round count" in capsys.readouterr().err

    def test_example_and_scenario_flags_conflict(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "run",
                    "--example",
                    "1",
                    "--scenario",
                    "doc.txt",
                    "--out",
                    str(tmp_path),
                ]
            )
        assert info.value.code == 2

    def test_custom_thresholds_change_verdict(self, tmp_path, capsys):
        out = tmp_path / "loose"
        rc = main(
            [
                "run",
                "--example",
                "2",
                "--rounds",
                "600",
                "--eps",
                "10.0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "community 2: agreement=yes" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "flag, value", [("--eps", "nan"), ("--delta", "nan"), ("--eps", "inf")]
    )
    def test_non_finite_thresholds_exit_code(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        rc = main(["run", "--example", "2", "--rounds", "200", flag, value, "--out", str(out)])
        assert rc == 2
        assert "epsilon and delta must be finite and positive" in capsys.readouterr().err
        assert not (out / "verdict.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "--example", "3", "--rounds", "0"],
        ["scenario", "--example", "3", "--alpha", "1.5"],
        ["scenario", "--example", "1", "--alpha", "nan"],
        ["verify-prop1", "--example", "2", "--alpha", "1.5"],
        ["verify-prop1", "--example", "2", "--rounds", "0"],
    ],
    ids=" ".join,
)
def test_invalid_config_exits_2_before_any_output(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--example", "3", "--rounds", "60"],
        ["run", "--scenario", "{doc}", "--window", "5"],
        ["run", "--scenario", "{doc}", "--rounds", "60"],
        ["verify-prop1", "--example", "2", "--rounds", "20"],
        ["verify-prop1", "--scenario", "{doc}"],
        ["scenario", "--example", "3"],
    ],
    ids=" ".join,
)
def test_each_command_validates_its_config_once(tmp_path, monkeypatch, argv):
    doc = tmp_path / "doc.txt"
    doc.write_text(INTRUDER_DOC)
    calls = []
    original = SimulationConfig.validation_problems
    monkeypatch.setattr(SimulationConfig, "validation_problems",
                        lambda config: calls.append(config) or original(config))
    argv = [arg.format(doc=doc) for arg in argv]
    if argv[0] == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) in (0, 1)
    assert len(calls) == 1


class TestScenarioCommand:
    def test_stdout_document_reproduces_example(self, capsys):
        assert main(["scenario", "--example", "3"]) == 0
        text = capsys.readouterr().out
        assert load_scenario(text) == example3()

    def test_seed_override_carried_into_document(self, capsys):
        assert main(["scenario", "--example", "3", "--seed", "7"]) == 0
        text = capsys.readouterr().out
        assert load_scenario(text) == example3(seed=7)

    def test_negative_seed_rejected(self, capsys):
        assert main(["scenario", "--example", "3", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: seed must be non-negative, got -1\n"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "doc.txt"
        assert main(["scenario", "--example", "2", "--out", str(target)]) == 0
        assert load_scenario(target.read_text()) == example2()


class TestVerifyProp1:
    def test_example_two_exhaustive_with_force(self, capsys):
        rc = main(["verify-prop1", "--example", "2", "--rounds", "80", "--force"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "community 1: preservation ok over 65535 subsets" in out
        assert "community 2: not a community (failed robustness)" in out
        assert "community 1: isolation ok over 80 rounds" in out

    def test_example_two_exhaustive_without_force(self, capsys):
        rc = main(["verify-prop1", "--example", "2", "--rounds", "80"])
        assert rc == 0
        assert "preservation ok over 65535 subsets" in capsys.readouterr().out

    def test_example_one_default_mode_exits_zero(self, capsys):
        assert main(["verify-prop1", "--example", "1"]) == 0
        out = capsys.readouterr().out
        assert f"over {2**123 - 1} subsets (exhaustive, threshold 2)" in out

    def test_example_one_sampled_output_is_exact(self, capsys):
        rc = main(["verify-prop1", "--example", "1", "--mode", "sampled", "--seed", "42"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "community 1: preservation ok over 10000 subsets (sampled, threshold 2)\n"
            "community 2: preservation ok over 10000 subsets (sampled, threshold 2)\n"
            "community 1: isolation ok over 5000 rounds\n"
            "community 2: isolation ok over 5000 rounds\n"
        )

    def test_sampled_mode_on_example_one(self, capsys):
        rc = main(
            [
                "verify-prop1",
                "--example",
                "1",
                "--mode",
                "sampled",
                "--samples",
                "300",
                "--rounds",
                "60",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "preservation ok over 300 subsets (sampled, threshold 2)" in out
        assert "isolation ok over 60 rounds" in out

    @pytest.mark.parametrize("mode, samples", [("sampled", "0"), ("exhaustive", "-5")])
    def test_non_positive_samples_exit_2_before_any_output(self, capsys, mode, samples):
        argv = ["verify-prop1", "--example", "3", "--mode", mode, "--samples", samples]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: sample count must be positive\n")

    @pytest.mark.parametrize("source, passes", [
        ("example 1", 4), ("example 2", 4), ("document", 4), ("document without bounds", 2),
    ])
    def test_external_degree_passes(self, tmp_path, capsys, monkeypatch, source, passes):
        # one pass per community in the CLI's community check, plus one in the
        # builder's (an example) or in the reader's check of each declared
        # bound (a document); the preservation line reuses the CLI's check
        doc = tmp_path / "doc.txt"
        text = format_scenario(example1())
        if source == "document without bounds":
            text = "".join(line for line in text.splitlines(True)
                           if not line.startswith("external "))
        doc.write_text(text)
        argv = (["--example", source[-1]] if source.startswith("example")
                else ["--scenario", str(doc)])
        counted = count_external_degree_passes(monkeypatch)
        assert main(["verify-prop1", *argv]) == 0
        assert len(counted) == passes

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_printed_numbers_equal_the_preservation_function(self, tmp_path, capsys, mode):
        # every community of examples 1-3 and of criterion 6's embedded cases;
        # a scenario admits no legitimate agent without neighbours, so the
        # embedded cases with one stay out of the command's runs
        runs = [(["--example", str(n)], EXAMPLES[n]()) for n in sorted(EXAMPLES)]
        init = InitializerSpec((NormalDraw(0.0, 1.0),) * 2)
        for j, (g, members) in enumerate(embedded_community_cases()):
            if np.diff(g.indptr).min() == 0:
                continue
            cfg = SimulationConfig(g, CommunityLayout([members, set(range(g.n)) - members]),
                                   init, None, 0.5, 1, 0)
            doc = tmp_path / f"case{j}.txt"
            doc.write_text(format_scenario(cfg))
            runs.append((["--scenario", str(doc)], cfg))
        certified = 0
        for argv, cfg in runs:
            assert main(["verify-prop1", *argv, "--rounds", "1", "--mode", mode,
                         "--samples", "300"]) == 0
            printed = {int(i): (int(count), kind, int(threshold)) for i, count, kind, threshold
                       in re.findall(r"^community (\d+): preservation ok over (\d+) subsets "
                                     r"\((\w+), threshold (\d+)\)$",
                                     capsys.readouterr().out, re.MULTILINE)}
            for i, subset in enumerate(cfg.layout.subsets):
                check = is_community(cfg.graph, subset, cfg.layout.malicious_count(i))
                want = verify_reachability_preservation(cfg.graph, subset, mode, 300)
                assert check.external_degree == want.threshold
                if check.is_community:
                    certified += 1
                    assert printed.pop(i + 1) == (want.subsets_checked, mode, want.threshold)
            assert printed == {}
        assert certified == 19  # 4 in the examples, 15 in the embedded cases' layouts

    def test_isolation_event_in_a_certified_community_exits_1(self, capsys, monkeypatch):
        # example 1 certifies both communities; the run reports an event in the first
        reports = [IsolationReport(0, 3, (7, 5, 61.5)), IsolationReport(1, 0, None)]
        monkeypatch.setattr("commca.cli.run", lambda config: SimpleNamespace(isolation=reports))
        assert main(["verify-prop1", "--example", "1", "--mode", "sampled", "--rounds", "60"]) == 1
        assert capsys.readouterr() == (
            "community 1: preservation ok over 10000 subsets (sampled, threshold 2)\n"
            "community 2: preservation ok over 10000 subsets (sampled, threshold 2)\n"
            "community 1: isolation violated 3 times, first at round 7 by agent 5 (median 61.5)\n"
            "community 2: isolation ok over 60 rounds\n", "")

    def test_uncertified_isolation_is_informational(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text(INTRUDER_DOC)
        rc = main(["verify-prop1", "--scenario", str(doc)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "not a community" in out
        assert "isolation violated" in out
        assert "[community predicate not met; informational]" in out


# K_6 with agents 4 and 5 malicious: each shows 1.0 to agents 0 and 1 and 0.0
# to agents 2 and 3, so the legitimate agents split into two pairs whose
# median ties hold them apart
K6_EDGES = "".join(f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6))
K6_EQUIVOCATION_DOC = (
    "graph\nn 6\n" + K6_EDGES
    + "communities\ncommunity 1: 0 1 2 3 4 5\nmalicious\n4 5\n"
    "init\ncommunity 1: explicit 1.0 1.0 0.0 0.0\nmalicious: constant 0.5\n"
    "protocol\nalpha 0.5\nrounds 100\nseed 0\nadversary\ntable 0.5\n"
    + "".join(f"{m} {u} {1.0 if u < 2 else 0.0}\n" for m in (4, 5) for u in range(4))
)


class TestEquivocationScope:
    """The community predicate guarantees isolation against any presentation,
    but agreement only when each malicious agent shows all its neighbors one
    value: a certified community splits under this table."""

    def test_certified_community(self, tmp_path, capsys):
        gpath = tmp_path / "k6.txt"
        gpath.write_text("n 6\n" + K6_EDGES)
        cpath = write_communities(tmp_path, CommunityLayout([range(6)], {4, 5}))
        assert main(["check", str(gpath), "--communities", cpath, "--community", "2"]) == 0
        assert capsys.readouterr().out == (
            "community 1: community=yes external=0 min-degree=5 required=5\n"
        )

    def test_equivocating_table_splits_it_into_two_clusters(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text(K6_EQUIVOCATION_DOC)
        assert main(["run", "--scenario", str(doc), "--out", str(tmp_path / "o")]) == 1
        assert "community 1: agreement=no safety=yes clusters=2\n" in capsys.readouterr().out
        assert main(["verify-prop1", "--scenario", str(doc)]) == 0
        assert capsys.readouterr().out == (
            "community 1: preservation ok over 63 subsets (exhaustive, threshold 0)\n"
            "community 1: isolation ok over 100 rounds\n"
        )


class TestProcessExitCodes:
    """`python -m commca` as a separate process, one case per exit code."""

    @staticmethod
    def commca(*args):
        env = dict(os.environ)
        env.pop("COMMCA_CAP", None)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "commca", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_passing_check_exits_0(self, tmp_path):
        done = self.commca("check", write_graph(tmp_path, complete_graph(3)), "--r", "0")
        assert done.returncode == 0 and done.stdout == "robust: yes (0-excess robust)\n"

    def test_failing_check_exits_1_with_a_witness(self, tmp_path):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        done = self.commca("check", write_graph(tmp_path, g), "--r", "0")
        assert done.returncode == 1
        assert "first subset: " in done.stdout and "second subset: " in done.stdout

    def test_usage_error_exits_2(self):
        done = self.commca("check", "--r", "0")
        assert done.returncode == 2 and "usage:" in done.stderr

    def test_missing_file_exits_2(self, tmp_path):
        done = self.commca("check", str(tmp_path / "nope.txt"), "--r", "0")
        assert done.returncode == 2 and done.stderr.startswith("error: ")

    def test_path_beyond_the_default_cap_exits_3(self, tmp_path):
        path = write_graph(tmp_path, Graph(23, [(i, i + 1) for i in range(22)]))
        done = self.commca("check", path, "--r", "0")
        assert done.returncode == 3 and "exceeds the cap of 22" in done.stderr


class TestParserReuse:
    """main() parses every call with the one parser build_parser() returns,
    so nothing a call parses may reach the next call."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_rounds_override_does_not_outlive_its_call(self, tmp_path, capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "--example", "2", "--rounds", "60", "--out", str(first)]) == 1
        assert main(["run", "--example", "2", "--out", str(second)]) == 1
        assert "rounds 60\n" in (first / "scenario.txt").read_text()
        assert "rounds 5000\n" in (second / "scenario.txt").read_text()

    def test_check_after_check_prints_what_a_fresh_process_prints(self, tmp_path, capsys):
        path = write_graph(tmp_path, split_graph())
        assert main(["check", path, "--rs", "1", "2"]) == 1
        capsys.readouterr()
        code = main(["check", path, "--r", "1"])
        out, err = capsys.readouterr()
        fresh = TestProcessExitCodes.commca("check", path, "--r", "1")
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_usage_error_leaves_later_calls_to_the_contract(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--r", "0"])
        assert info.value.code == 2
        assert main(["check", write_graph(tmp_path, complete_graph(3)), "--r", "0"]) == 0
        triangles = disjoint_union(complete_graph(3), complete_graph(3))
        assert main(["check", write_graph(tmp_path, triangles, "two.txt"), "--r", "0"]) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=" ".join)
    def test_help_prints_the_same_text_twice(self, capsys, argv):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: commca")


class TestNoNumpyScalarsInOutput:
    def test_outputs_and_messages_show_python_ints(self, tmp_path, capsys):
        # built from int32 arrays: a 4-cycle with a chord beside one more edge
        edges = np.array([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5)], dtype=np.int32)
        path = write_graph(tmp_path, Graph(np.int32(6), edges))
        communities = tmp_path / "communities.txt"
        communities.write_text("community 1: 0 1 2 3 4 5\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("n 3\n0 1\n1 0\n")
        out = tmp_path / "out"
        codes = [
            main(["check", path, "--rs", "1", "1"]),
            main(["check", path, "--community", "0", "--communities", str(communities)]),
            main(["scenario", "--example", "1"]),
            main(["run", "--example", "2", "--rounds", "20", "--window", "5", "--out", str(out)]),
            main(["check", str(bad), "--r", "1"]),
        ]
        captured = capsys.readouterr()
        assert codes == [1, 1, 0, 1, 2]
        assert "error: line 3: duplicate edge (0, 1)\n" in captured.err
        for text in (captured.out, captured.err, (out / "scenario.txt").read_text(),
                     (out / "verdict.txt").read_text()):
            assert "np." not in text


# tokens that a hand-edited file or command line might hold, valid or not
TOKENS = st.sampled_from(
    ["n", "0", "1", "2", "3", "-1", "29", "30", "1.5", "1e400", "nan", "x", "#",
     "community", "1:", "malicious", "malicious:", "external", "constant",
     "script", "table", "normal", "explicit", "alpha", "rounds", "seed", "graph"]
)
# each list starts with valid values, which hypothesis draws most often
SMALL_INTS = st.sampled_from(["1", "2", "0", "3", "4", "-1", "40"])
ROUNDS = st.sampled_from(["50", "30", "7", "1", "0", "-1"])
SEEDS = st.sampled_from(["1", "0", "7", "-1", "0.5", "x"])
ALPHAS = st.sampled_from(["0.9", "0.5", "0", "1.5", "nan", "x"])
THRESHOLDS = st.sampled_from(["1e-3", "10", "0", "-1", "inf", "nan"])
WINDOWS = st.sampled_from(["5", "1", "60", "0", "-1"])


@st.composite
def mangled(draw, lines):
    """The lines as a document, now and then with a line or two replaced by
    token soup."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [" ".join(draw(st.lists(TOKENS, max_size=4)))]
    return "\n".join(lines) + "\n"


@st.composite
def small_graphs(draw, n):
    """A path through all n agents (none isolated) plus random edges."""
    agent = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(agent, agent), max_size=40))
    path = [(u, u + 1) for u in range(n - 1)]
    return Graph(n, set(path) | {(min(p), max(p)) for p in pairs if p[0] != p[1]})


@st.composite
def layouts(draw, n):
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    subsets = [[u for u in range(n) if labels[u] == k] for k in sorted(set(labels))]
    return CommunityLayout(subsets, [u for u in range(n) if draw(st.booleans())])


@st.composite
def scenario_lines(draw):
    n = draw(st.integers(1, 12))
    g, layout = draw(small_graphs(n)), draw(layouts(n))
    inits = [NormalDraw(2.0, 1.0), ExplicitValues((1.0, 3.0))]
    init = InitializerSpec(tuple(draw(st.sampled_from(inits)) for _ in layout.subsets),
                           draw(st.sampled_from([60.0, None])))
    arcs = sorted(a for e in g.edges for a in (e, e[::-1]) if a[0] in layout.malicious)
    adversary = draw(st.sampled_from([
        ConstantValue(60.0), RoundScript((60.0, -5.0)),
        PerNeighborTable({a: 90.0 for a in arcs[:3]}, 60.0), None,
    ]))
    config = SimulationConfig(g, layout, init, adversary, draw(st.sampled_from([0.9, 0.5, 1.5])),
                              int(draw(ROUNDS)), draw(st.sampled_from([0, 5, -1])))
    return format_scenario(config).splitlines()


@st.composite
def command_lines(draw, files):
    """argv for one command over the generated files, rounds at most 50."""
    graph, communities, scenario, out = files
    command = draw(st.sampled_from(["check", "run", "verify-prop1", "scenario"]))
    argv = [command]
    if command == "check":
        mode = draw(st.sampled_from([["--rs", 2], ["--r", 1], ["--community", 1]]))
        argv += [graph, mode[0]] + [draw(SMALL_INTS) for _ in range(mode[1])]
        if draw(st.booleans()):
            argv += ["--communities", communities]
    else:
        if command == "scenario" or draw(st.booleans()):
            argv += ["--example", draw(st.sampled_from(["1", "2", "3"])), "--rounds", draw(ROUNDS)]
        else:
            argv += ["--scenario", scenario] + draw(st.sampled_from([[], ["--rounds", "50"]]))
        options = [("--seed", SEEDS), ("--alpha", ALPHAS)]
        if command == "run":
            options += [("--window", WINDOWS), ("--eps", THRESHOLDS), ("--delta", THRESHOLDS)]
            argv += ["--out", out]
        for flag, values in options:  # each given now and then
            if draw(st.sampled_from([False, False, True])):
                argv += [flag, draw(values)]
        if command == "run" and "--window" not in argv:  # the default 50 outlasts most runs
            argv += ["--window", "5"]
        if command == "verify-prop1":
            argv += ["--mode", draw(st.sampled_from(["sampled", "exhaustive"])),
                     "--samples", draw(SMALL_INTS)]
    if draw(st.sampled_from([False] * 9 + [True])):  # an argv argparse may reject
        argv.insert(draw(st.integers(0, len(argv))), draw(TOKENS))
    return argv


class TestMainFuzz:
    """main() on generated argv and small files: every outcome is an exit
    code of the contract.  argparse's own usage errors leave as SystemExit(2),
    the code the process exits with."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_only_contract_exit_codes(self, data):
        n = data.draw(st.integers(1, 30))
        g, layout = data.draw(small_graphs(n)), data.draw(layouts(n))
        texts = [data.draw(mangled(format_graph(g).splitlines())),
                 data.draw(mangled(format_communities(layout).splitlines())),
                 data.draw(mangled(data.draw(scenario_lines())))]
        # the cap keeps every enumeration under 2^12 subsets
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {"COMMCA_CAP": "12"}):
            files = [os.path.join(tmp, name) for name in
                     ("graph.txt", "communities.txt", "scenario.txt", "out")]
            for path, text in zip(files, texts):
                Path(path).write_text(text)
            argv = data.draw(command_lines(files))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            event(f"{argv[0]} exits {code}")
            assert code in (0, 1, 2, 3), argv
