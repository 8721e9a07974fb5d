import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commca import (
    AdversaryStrategy,
    CommunityLayout,
    ConfigError,
    ConstantValue,
    EnumerationCapExceeded,
    ExplicitValues,
    FormatError,
    Graph,
    InitializerSpec,
    NormalDraw,
    PerNeighborTable,
    PresetValues,
    RoundScript,
    SimulationConfig,
    complete_graph,
    evaluate_pair,
    format_scenario,
    is_community,
    load_scenario,
    run,
)
from commca import scenarios
from commca.protocol import MAX_MAGNITUDE
from commca.scenarios import EXAMPLE2_SPLIT, EXAMPLES, example1, example2, example3

from reference import loop_initial_values

BASE_DOC = """\
graph
n 4
0 1
1 2
2 3
communities
community 1: 0 1
community 2: 2 3
init
community 1: explicit 1.0 2.0
community 2: normal 5.0 1.0
protocol
alpha 0.5
rounds 10
seed 3
"""

# BASE_DOC with agent 3 malicious, holding 60.0
MALICIOUS_DOC = BASE_DOC.replace("init\n", "malicious\n3\ninit\n").replace(
    "community 2: normal 5.0 1.0", "community 2: normal 5.0 1.0\nmalicious: constant 60.0"
)


class TestExampleOne:
    def test_structure(self):
        cfg = example1()
        assert cfg.graph.n == 158
        assert len(cfg.graph.edges) == 123 * 122 // 2 + 35 * 34 // 2 + 26
        assert len(cfg.layout.malicious) == 30
        assert cfg.layout.malicious_count(0) == 20
        assert cfg.layout.malicious_count(1) == 10

    def test_external_degree_is_two_on_both_sides(self):
        cfg = example1()
        assert cfg.graph.max_external_degree(cfg.layout.subsets[0]) == 2
        assert cfg.graph.max_external_degree(cfg.layout.subsets[1]) == 2

    def test_both_communities_certified(self):
        cfg = example1()
        for i, subset in enumerate(cfg.layout.subsets):
            check = is_community(cfg.graph, subset, cfg.layout.malicious_count(i))
            assert check.is_community
            assert check.certified_analytically

    def test_cross_edges_join_legitimate_agents_only(self):
        cfg = example1()
        for (u, v) in cfg.graph.edges:
            if cfg.layout.community_of(u) != cfg.layout.community_of(v):
                assert not cfg.layout.is_malicious(u)
                assert not cfg.layout.is_malicious(v)

    def test_seed_changes_cross_edge_placement(self):
        assert example1(seed=42).graph != example1(seed=43).graph
        assert example1(seed=42).graph == example1(seed=42).graph

    def test_overrides(self):
        cfg = example1(seed=7, rounds=10, alpha=0.5)
        assert (cfg.seed, cfg.rounds, cfg.alpha) == (7, 10, 0.5)


class TestExampleTwo:
    def test_structure(self):
        cfg = example2()
        g = cfg.graph
        assert g.n == 25
        assert cfg.layout.malicious == frozenset(range(10, 16)) | {20}
        assert g.has_edge(0, 16)
        five, four = list(range(16, 21)), list(range(21, 25))
        expected = {(a, b) for i, a in enumerate(five) for b in five[i + 1 :]}
        expected |= {(a, b) for i, a in enumerate(four) for b in four[i + 1 :]}
        expected |= {(20, b) for b in four}
        inside = {
            (u, v) for (u, v) in g.edges if u >= 16 and v >= 16
        }
        assert inside == expected

    def test_bridge_agent_is_the_only_cut(self):
        g = example2().graph
        for a in range(16, 20):
            for b in range(21, 25):
                assert not g.has_edge(a, b)

    def test_second_community_fails_robustness_clause_only(self):
        cfg = example2()
        check = is_community(cfg.graph, cfg.layout.subsets[1], 1)
        assert check.reasons == ("robustness",)
        assert check.min_degree == 4 and check.required_degree == 4
        assert check.external_degree == 1

    def test_canonical_split_violates_clauses(self):
        cfg = example2()
        sub, nodes = cfg.graph.induced_subgraph(cfg.layout.subsets[1])
        split = tuple(
            frozenset(nodes.index(u) for u in side) for side in EXAMPLE2_SPLIT
        )
        ev = evaluate_pair(sub, split[0], split[1], 1, 2)
        assert not ev.satisfied
        assert ev.reachable_total == 0

    def test_first_community_certified(self):
        cfg = example2()
        assert is_community(cfg.graph, cfg.layout.subsets[0], 6).is_community


class TestExampleThree:
    def test_structure(self):
        cfg = example3()
        g = cfg.graph
        assert g.n == 26
        assert cfg.layout.malicious == frozenset(range(9, 15)) | frozenset(
            range(23, 26)
        )
        cross = {
            (u, v)
            for (u, v) in g.edges
            if cfg.layout.community_of(u) != cfg.layout.community_of(v)
        }
        assert cross == {(0, 23), (0, 24), (1, 24), (1, 25), (2, 25), (2, 23)}

    def test_first_community_fails_degree_clause_alone(self):
        cfg = example3()
        check = is_community(cfg.graph, cfg.layout.subsets[0], 6)
        assert check.reasons == ("degree",)
        assert check.robust
        assert check.min_degree == 14 and check.required_degree == 15

    def test_second_community_certified(self):
        cfg = example3()
        assert is_community(cfg.graph, cfg.layout.subsets[1], 3).is_community

    def test_registry(self):
        assert set(EXAMPLES) == {1, 2, 3}
        assert EXAMPLES[3] is example3


@pytest.mark.parametrize("build", [example1, example2, example3])
def test_builders_refuse_a_negative_seed_before_drawing(build):
    with pytest.raises(ConfigError, match=r"^seed must be non-negative, got -1$"):
        build(seed=-1)


def _drop_block_edge(monkeypatch, edge):
    cliques = scenarios._cliques

    def dropped(sizes, extra):
        g = cliques(sizes, extra)
        assert edge in g.edges
        return Graph(g.n, sorted(g.edges - {edge}))

    monkeypatch.setattr(scenarios, "_cliques", dropped)


@pytest.mark.parametrize("build,edge,community", [
    (example2, (1, 2), 1), (example2, (17, 18), 2), (example2, (21, 22), 2),
    (example3, (1, 2), 1), (example3, (16, 17), 2),
])
def test_builders_refuse_a_graph_that_misses_a_claim(build, edge, community, monkeypatch):
    _drop_block_edge(monkeypatch, edge)
    with pytest.raises(RuntimeError,
                       match=f"^builder self-certification failed: community {community} "):
        build()


@pytest.mark.parametrize("edge", [(1, 2), (124, 125)])
def test_example1_refuses_a_block_edge_dropped_past_the_cap(edge, monkeypatch):
    # both blocks exceed the enumeration cap, and a complete block less one
    # edge is not decided by its degree bound, so the community check would
    # enumerate; the builder refuses the claim and names the community
    _drop_block_edge(monkeypatch, edge)
    community, size = (1, 123) if edge == (1, 2) else (2, 35)
    with pytest.raises(RuntimeError, match=(
            f"^builder self-certification failed: community {community} .* but its check "
            f"would enumerate {size} agents, past the cap of 22$")) as caught:
        example1()
    assert not isinstance(caught.value, EnumerationCapExceeded)
    assert isinstance(caught.value.__cause__, EnumerationCapExceeded)


@pytest.mark.parametrize("build,sizes", [(example1, [158]), (example2, [25, 9]),
                                         (example3, [26])])
def test_builders_construct_each_graph_once(build, sizes, monkeypatch):
    # example2's second graph is its second community, which the community
    # check induces for the engine; the split is checked on the whole graph
    built = []
    init = Graph.__init__

    def counted(self, n, edges=()):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counted)
    build()
    assert built == sizes


@pytest.mark.parametrize("build", [example1, example2, example3])
def test_builders_compute_each_external_degree_once(build, monkeypatch):
    # the bound is certified from the community check where there is one
    counts = []
    external_degrees = Graph.external_degrees

    def counted(self, members):
        counts.append(frozenset(members))
        return external_degrees(self, members)

    monkeypatch.setattr(Graph, "external_degrees", counted)
    cfg = build()
    assert sorted(counts, key=min) == list(cfg.layout.subsets)


class TestInitializerSpec:
    def test_same_seed_reproduces_values(self):
        cfg = example1()
        a = cfg.initializer.initial_values(cfg.graph, cfg.layout, 42)
        b = cfg.initializer.initial_values(cfg.graph, cfg.layout, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(
            a, cfg.initializer.initial_values(cfg.graph, cfg.layout, 43)
        )

    def test_malicious_agents_take_the_constant(self):
        cfg = example1()
        values = cfg.initializer.initial_values(cfg.graph, cfg.layout, 42)
        for u in sorted(cfg.layout.malicious):
            assert values[u] == 60.0

    def test_community_means_land_near_their_distributions(self):
        cfg = example1()
        values = cfg.initializer.initial_values(cfg.graph, cfg.layout, 42)
        legit1 = sorted(cfg.layout.legitimate_in(0))
        legit2 = sorted(cfg.layout.legitimate_in(1))
        assert 1.5 < values[legit1].mean() < 2.5
        assert 28.0 < values[legit2].mean() < 32.0

    def test_second_normal_parameter_is_a_variance(self):
        # variance 4 must yield a sample standard deviation near 2, not 4
        g = Graph(400, [(i, i + 1) for i in range(399)])
        layout = CommunityLayout([range(400)])
        spec = InitializerSpec((NormalDraw(0.0, 4.0),))
        values = spec.initial_values(g, layout, 0)
        assert 1.7 < values.std() < 2.3

    def test_explicit_values_consumed_in_id_order_per_community(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        layout = CommunityLayout([{0, 2}, {1, 3}])
        spec = InitializerSpec(
            (ExplicitValues((10.0, 20.0)), ExplicitValues((30.0, 40.0)))
        )
        values = spec.initial_values(g, layout, 0)
        assert list(values) == [10.0, 30.0, 20.0, 40.0]

    @pytest.mark.parametrize("seed", [0, 7, 42, 1234])
    def test_values_equal_the_agent_by_agent_draws_bit_for_bit(self, seed):
        # examples 1-3, and a layout that mixes explicit and normal
        # communities around malicious agents, against one draw per agent
        g = Graph(9, [(u, u + 1) for u in range(8)])
        layout = CommunityLayout([{0, 3, 6}, {1, 4, 7}, {2, 5, 8}], malicious={4, 6})
        spec = InitializerSpec(
            (NormalDraw(2.0, 1.0), ExplicitValues((-0.0, 5.0)), NormalDraw(-30.0, 0.5)), 60.0)
        mixed = SimulationConfig(g, layout, spec, ConstantValue(60.0), 0.5, 1, seed)
        for cfg in (example1(seed=seed), example2(seed=seed), example3(seed=seed), mixed):
            got = cfg.initializer.initial_values(cfg.graph, cfg.layout, seed)
            want = np.array(loop_initial_values(cfg.initializer, cfg.graph, cfg.layout, seed))
            assert got.tobytes() == want.tobytes()

    def test_explicit_count_mismatch_reported(self):
        g = complete_graph(3)
        layout = CommunityLayout([range(3)])
        spec = InitializerSpec((ExplicitValues((1.0,)),))
        problems = spec.problems(layout)
        assert len(problems) == 1 and "explicit values" in problems[0]
        with pytest.raises(ValueError):
            spec.initial_values(g, layout, 0)

    def test_malicious_without_constant_reported(self):
        layout = CommunityLayout([range(3)], malicious={2})
        spec = InitializerSpec((NormalDraw(0.0, 1.0),))
        assert any("malicious" in p for p in spec.problems(layout))

    def test_entry_count_mismatch_reported(self):
        layout = CommunityLayout([{0, 1}, {2}])
        spec = InitializerSpec((NormalDraw(0.0, 1.0),))
        assert any("init entries" in p for p in spec.problems(layout))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            NormalDraw(0.0, -1.0)


class TestDocumentRoundTrip:
    @pytest.mark.parametrize("builder", [example1, example2, example3])
    def test_examples_round_trip_exactly(self, builder):
        cfg = builder()
        assert load_scenario(format_scenario(cfg)) == cfg

    def test_round_trip_preserves_overrides(self):
        cfg = example2(seed=9, rounds=123, alpha=0.25)
        again = load_scenario(format_scenario(cfg))
        assert (again.seed, again.rounds, again.alpha) == (9, 123, 0.25)

    def test_seed_beyond_float_precision_round_trips(self):
        cfg = example2(seed=2**60 + 1)
        assert load_scenario(format_scenario(cfg)) == cfg

    def test_script_adversary_round_trips(self):
        cfg = example2()
        cfg = SimulationConfig(
            cfg.graph,
            cfg.layout,
            cfg.initializer,
            RoundScript((60.0, -5.0, 12.5)),
            cfg.alpha,
            cfg.rounds,
            cfg.seed,
        )
        assert load_scenario(format_scenario(cfg)) == cfg

    def test_table_adversary_round_trips(self):
        g = complete_graph(3)
        layout = CommunityLayout([range(3)], malicious={2})
        cfg = SimulationConfig(
            g,
            layout,
            InitializerSpec((ExplicitValues((1.0, 2.0)),), 60.0),
            PerNeighborTable({(2, 0): 90.0, (2, 1): -90.0}, 60.0),
            0.9,
            10,
            0,
        )
        assert load_scenario(format_scenario(cfg)) == cfg

    def test_configs_hash(self):
        assert hash(example1()) == hash(example1())

    def test_single_value_script_is_written_as_a_constant(self):
        cfg = replace(example3(), adversary=RoundScript((7.5,)))
        assert "adversary\nconstant 7.5\n" in format_scenario(cfg)
        assert load_scenario(format_scenario(cfg)) == cfg

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_every_adversary_round_trips(self, data):
        # K_4 with agents 2 and 3 malicious: overrides may sit on any of
        # their five edges; a multi-value script admits none
        finite = st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE, width=64)
        script = tuple(data.draw(st.lists(finite, min_size=1, max_size=5)))
        edges = [(2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2)]
        most = 6 if len(script) == 1 else 0
        overrides = data.draw(st.dictionaries(st.sampled_from(edges), finite, max_size=most))
        cfg = SimulationConfig(
            complete_graph(4),
            CommunityLayout([range(4)], malicious={2, 3}),
            InitializerSpec((ExplicitValues((1.0, 2.0)),), 60.0),
            AdversaryStrategy(script, overrides),
            0.9,
            10,
            0,
        )
        assert load_scenario(format_scenario(cfg)) == cfg

    def test_empty_explicit_list_round_trips(self):
        g = Graph(2, [(0, 1)])
        layout = CommunityLayout([{0}, {1}], malicious={1})
        cfg = SimulationConfig(
            g,
            layout,
            InitializerSpec((ExplicitValues((3.0,)), ExplicitValues(())), 60.0),
            ConstantValue(60.0),
            0.9,
            5,
            0,
        )
        again = load_scenario(format_scenario(cfg))
        assert again == cfg

    def test_preset_configs_do_not_serialize(self):
        g = complete_graph(2)
        layout = CommunityLayout([range(2)])
        cfg = SimulationConfig(g, layout, PresetValues((0.0, 1.0)), None, 0.5, 5, 0)
        with pytest.raises(ValueError, match="InitializerSpec"):
            format_scenario(cfg)


class TestDocumentParsing:
    def test_base_document_loads_and_runs(self):
        cfg = load_scenario(BASE_DOC)
        assert cfg.alpha == 0.5 and cfg.rounds == 10 and cfg.seed == 3
        assert cfg.adversary is None
        assert run(cfg).rounds == 10

    def test_default_adversary_is_the_malicious_constant(self):
        cfg = load_scenario(MALICIOUS_DOC)
        assert cfg.adversary == ConstantValue(60.0)
        assert cfg.layout.malicious == frozenset({3})

    def test_explicit_adversary_section_overrides_default(self):
        doc = BASE_DOC.replace("init\n", "malicious\n3\ninit\n").replace(
            "community 2: normal 5.0 1.0",
            "community 2: normal 5.0 1.0\nmalicious: constant 60.0",
        )
        cfg = load_scenario(doc + "adversary\nscript 60.0 0.0\n")
        assert cfg.adversary == RoundScript((60.0, 0.0))

    def test_table_without_entries_is_the_constant(self):
        cfg = load_scenario(MALICIOUS_DOC + "adversary\ntable 7.5\n")
        assert cfg.adversary == ConstantValue(7.5)

    def test_declared_bound_accepts_true_external_degree(self):
        doc = BASE_DOC.replace(
            "community 2: 2 3\n", "community 2: 2 3\nexternal 1 1\nexternal 2 1\n"
        )
        assert load_scenario(doc).graph.n == 4

    def test_declared_bound_violation_names_offenders(self):
        doc = BASE_DOC.replace(
            "community 2: 2 3\n", "community 2: 2 3\nexternal 1 0\n"
        )
        with pytest.raises(ConfigError, match=r"agents \[1\]"):
            load_scenario(doc)

    def test_bound_for_unknown_community_rejected(self):
        doc = BASE_DOC.replace(
            "community 2: 2 3\n", "community 2: 2 3\nexternal 7 1\n"
        )
        with pytest.raises(ConfigError, match="unknown community 7"):
            load_scenario(doc)

    def test_missing_sections_reported(self):
        doc = "graph\nn 2\n0 1\ncommunities\ncommunity 1: 0 1\n"
        with pytest.raises(FormatError, match="missing sections"):
            load_scenario(doc)

    def test_repeated_section_rejected(self):
        with pytest.raises(FormatError, match="repeated section"):
            load_scenario(BASE_DOC + "protocol\nalpha 0.5\n")

    def test_content_before_header_rejected(self):
        with pytest.raises(FormatError, match="before any section"):
            load_scenario("n 2\n" + BASE_DOC)

    def test_bad_graph_edge_names_its_document_line(self):
        doc = BASE_DOC.replace("1 2\n", "# a repeat\n2 1\n1 2\n")
        with pytest.raises(FormatError, match=r"^line 6: duplicate edge \(1, 2\)$"):
            load_scenario(doc)

    def test_missing_protocol_keys_reported(self):
        doc = BASE_DOC.replace("seed 3\n", "")
        with pytest.raises(FormatError, match="seed"):
            load_scenario(doc)

    def test_repeated_protocol_key_rejected(self):
        with pytest.raises(FormatError, match="repeated protocol key"):
            load_scenario(BASE_DOC + "alpha 0.9\n")

    def test_unknown_init_kind_rejected(self):
        doc = BASE_DOC.replace("normal 5.0 1.0", "uniform 0.0 1.0")
        with pytest.raises(FormatError, match="unknown init kind"):
            load_scenario(doc)

    def test_init_for_unknown_community_rejected(self):
        doc = BASE_DOC.replace(
            "community 2: normal 5.0 1.0",
            "community 2: normal 5.0 1.0\ncommunity 3: normal 0.0 1.0",
        )
        with pytest.raises(FormatError, match="unknown community 3"):
            load_scenario(doc)

    def test_missing_init_entry_reported(self):
        doc = BASE_DOC.replace("community 2: normal 5.0 1.0\n", "")
        with pytest.raises(ConfigError, match=r"missing for communities \[2\]"):
            load_scenario(doc)

    def test_overlapping_communities_rejected(self):
        doc = BASE_DOC.replace("community 2: 2 3", "community 2: 1 2 3")
        with pytest.raises(ConfigError):
            load_scenario(doc)

    def test_uncovered_agent_rejected(self):
        doc = BASE_DOC.replace("community 2: 2 3", "community 2: 2")
        with pytest.raises(ConfigError, match=r"\[3\]"):
            load_scenario(doc)

    def test_isolated_legitimate_agent_rejected(self):
        doc = BASE_DOC.replace("n 4\n0 1\n1 2\n2 3\n", "n 4\n0 1\n1 2\n")
        with pytest.raises(ConfigError, match=r"\[3\]"):
            load_scenario(doc)

    def test_empty_adversary_section_rejected(self):
        with pytest.raises(FormatError, match="adversary section is empty"):
            load_scenario(BASE_DOC + "adversary\n")

    def test_unknown_adversary_kind_rejected(self):
        with pytest.raises(FormatError, match="unknown adversary kind"):
            load_scenario(BASE_DOC + "adversary\nmimic 1.0\n")

    @pytest.mark.parametrize(
        "section",
        [
            "constant nan",
            "script 60.0 nan",
            "script inf",
            "table -inf",
            "table 1.0\n3 2 nan",
            "constant 1e301",
            "script 60.0 -1.7e308",
            "table 1.0\n3 2 1e301",
        ],
    )
    def test_non_finite_adversary_values_rejected(self, section):
        doc = MALICIOUS_DOC + "adversary\n" + section + "\n"
        header = doc.splitlines().index(section.splitlines()[0]) + 1
        with pytest.raises(FormatError, match=rf"^line {header}: .* must be finite"):
            load_scenario(doc)

    def test_malicious_constant_beyond_the_bound_rejected(self):
        doc = MALICIOUS_DOC.replace("constant 60.0", "constant -1e301")
        with pytest.raises(FormatError, match="malicious constant must be finite and at most"):
            load_scenario(doc)

    def test_non_finite_malicious_constant_rejected(self):
        doc = MALICIOUS_DOC.replace("constant 60.0", "constant inf")
        with pytest.raises(FormatError, match="malicious constant must be finite"):
            load_scenario(doc)

    def test_table_entries_must_sit_on_malicious_agents_edges(self):
        # agent 2 is legitimate; 3 and 0 are not neighbours
        doc = MALICIOUS_DOC + "adversary\ntable 60.0\n3 2 1.0\n2 1 5.0\n3 0 5.0\n"
        with pytest.raises(ConfigError, match=r"\[\(2, 1\), \(3, 0\)\]"):
            load_scenario(doc)

    def test_table_ids_beyond_int64_are_reported_as_written(self):
        doc = MALICIOUS_DOC + "adversary\ntable 60.0\n3 18446744073709551615 1.0\n"
        with pytest.raises(ConfigError, match=r"\[\(3, 18446744073709551615\)\]"):
            load_scenario(doc)

    @pytest.mark.parametrize("ids", ["inf 2", "3 nan", "3.0 2", "3 x"])
    def test_table_ids_must_be_integers(self, ids):
        doc = MALICIOUS_DOC + f"adversary\ntable 60.0\n{ids} 1.0\n"
        with pytest.raises(FormatError, match="bad id list"):
            load_scenario(doc)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("3 2 1.0\n3 2 x\n", "line 22: repeated table entry 3 2"),
            ("3 3 x\n", "line 21: ids listed twice: [3]"),
            ("3 x x\n", "line 21: bad id list '3 x'"),
            ("3 x 1.0 4\n", "line 21: expected '<agent> <neighbor> <value>'"),
            ("3 2 x\n3 3 1.0\n", "line 21: bad number 'x'"),
            ("3 2 1.0\n+3 02 5.0\n", "line 22: repeated table entry 3 2"),
            ("3 2\n1.0 2 3 5.0\n", "line 21: expected '<agent> <neighbor> <value>'"),
        ],
        ids=["repeat-before-value", "twice-before-value", "ids-before-value", "count-first",
             "earlier-line-first", "repeat-as-ints", "count-off-by-line-not-in-total"],
    )
    def test_table_line_errors_in_line_by_line_order(self, rows, message):
        # within a line: token count, ids, repeat, value; across lines: the first
        doc = MALICIOUS_DOC + "adversary\ntable 60.0\n" + rows
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_scenario(doc)

    def test_comments_and_blank_lines_ignored(self):
        doc = "# top\n\n" + BASE_DOC.replace(
            "protocol\n", "# mid\nprotocol\n"
        )
        assert load_scenario(doc).rounds == 10

    @pytest.mark.parametrize(
        "row, inserted, line",
        [(5, [], 6), (6, ["", "# a comment"], 9)],
    )
    def test_graph_errors_name_the_document_line(self, row, inserted, line):
        lines = format_scenario(example2()).splitlines()
        lines[row] = "3 x"
        lines[1:1] = inserted
        with pytest.raises(FormatError, match=rf"^line {line}: bad edge"):
            load_scenario("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                BASE_DOC.replace("2 3\ninit", "2 3\nexternal 1 0\nexternal 1 5\ninit"),
                "line 10: repeated external bound for community 1",
            ),
            (
                MALICIOUS_DOC + "adversary\ntable 60.0\n3 2 1.0\n3 2 5.0\n",
                "line 22: repeated table entry 3 2",
            ),
            (
                BASE_DOC.replace("community 2: 2 3", "community 2: 2 3 2"),
                "line 8: ids listed twice: [2]",
            ),
            (
                MALICIOUS_DOC.replace("malicious\n3\n", "malicious\n3 3\n"),
                "line 10: ids listed twice: [3]",
            ),
            (
                MALICIOUS_DOC.replace("malicious\n3\n", "malicious\n3\n3\n"),
                "line 11: ids listed twice: [3]",
            ),
            (
                MALICIOUS_DOC.replace("constant 60.0", "constant 60.0\nmalicious: constant 5.0"),
                "line 15: repeated malicious line",
            ),
        ],
        ids=[
            "external", "table entry", "community id", "malicious id",
            "malicious id across lines", "malicious constant",
        ],
    )
    def test_repeated_declarations_rejected(self, doc, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_scenario(doc)

    def test_community_id_outside_graph_with_bound_is_a_config_error(self):
        doc = BASE_DOC.replace("community 2: 2 3\n", "community 2: 2 3 9\nexternal 2 1\n")
        with pytest.raises(ConfigError, match=r"community ids not in the graph: \[9\]"):
            load_scenario(doc)

    @pytest.mark.parametrize("variance", ["-1", "nan", "inf"])
    def test_bad_variance_names_its_line(self, variance):
        doc = BASE_DOC.replace("normal 5.0 1.0", f"normal 5.0 {variance}")
        with pytest.raises(FormatError, match=r"^line 11: variance must be finite"):
            load_scenario(doc)


FUZZ_DOCS = [
    BASE_DOC,
    MALICIOUS_DOC + "adversary\ntable 60.0\n3 2 1.0\n",
    *(format_scenario(build(rounds=20)) for build in (example1, example2, example3)),
]
FUZZ_TOKENS = [
    "-1", "2", "99", "nan", "inf", "1e400", "x", ":", "community 1:", "external 1", "malicious",
]


@st.composite
def mutated_documents(draw):
    """One edit to one line of a known-good document: a second edit mostly
    lands behind the first one's FormatError and tests nothing new."""
    lines = draw(st.sampled_from(FUZZ_DOCS)).splitlines()
    # skip the edge list past its first edge: its grammar is one line long
    i = draw(st.sampled_from([0, 1, 2, *range(lines.index("communities"), len(lines))]))
    tokens = lines[i].split()
    edit = draw(st.sampled_from(["replace", "replace", "replace", "repeat", "delete", "insert"]))
    if edit == "replace":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(FUZZ_TOKENS))
        lines[i] = " ".join(tokens)
    elif edit == "repeat":
        lines.insert(i, lines[i])
    elif edit == "delete":
        del lines[i]
    else:
        lines.insert(i, " ".join(draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=3))))
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=300)
@given(mutated_documents())
def test_mutated_documents_raise_only_format_or_config_errors(doc):
    try:
        load_scenario(doc)
    except (FormatError, ConfigError):
        pass


def _table_example() -> SimulationConfig:
    """Example 1 at 20 rounds whose malicious agents show each legitimate
    neighbour a seeded +-100."""
    config = example1(rounds=20)
    rng = random.Random(0)
    malicious = config.layout.malicious
    entries = {(m, v): rng.choice((-100.0, 100.0)) for m in sorted(malicious)
               for v in config.graph.neighbors(m) if v not in malicious}
    return replace(config, adversary=PerNeighborTable(entries, 60.0))


READER_CONFIGS = [*(build(rounds=20) for build in (example1, example2, example3)),
                  _table_example()]
NOISE_LINES = ["", "   ", "\t", "# note", "#", "  # 0 1", "#3 3 x", "\x1c", "\x85", "\u2003"]
# Whitespace str.split() splits on, and spellings of an id that int() reads;
# the bulk reader leaves all but the first of each to the line pass.
SEPARATORS = [" ", "\x1c", "\x85", "\u2003"]
SPELLINGS = [str, "+{}".format, "00{}".format, lambda t: f"{t[:-1] or 0}_{t[-1]}",
             lambda t: t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))]


def _respell(draw, tokens: list[str], separator: str) -> str:
    """An edge or table line of `tokens`, its ids each in a drawn spelling."""
    ids = [draw(st.sampled_from(SPELLINGS))(tok) if tok.isascii() and tok.isdigit() else tok
           for tok in tokens[:2]]
    return separator.join(ids + tokens[2:])


def _line_kinds(doc: str) -> list[tuple[str, str | None]]:
    """Each line of a formatted document with its kind: 'edge', 'table' or None."""
    lines = doc.split("\n")[:-1]
    edges = range(lines.index("n " + lines[1].split()[1]) + 1, lines.index("communities"))
    table = range(next((i + 1 for i, line in enumerate(lines) if line.startswith("table ")),
                       len(lines)), len(lines))
    return [(line, "edge" if i in edges else "table" if i in table else None)
            for i, line in enumerate(lines)]


@st.composite
def noisy_documents(draw):
    """A formatted example document with blank and '#' lines put in at random
    places, a few edge or table lines respelled and, half the time, CRLF
    endings: the index of its config, its lines with their kinds, and the
    line ending."""
    k = draw(st.integers(0, len(READER_CONFIGS) - 1))
    lines = _line_kinds(format_scenario(READER_CONFIGS[k]))
    noise = draw(st.lists(st.tuples(st.integers(0, len(lines)), st.sampled_from(NOISE_LINES)),
                          max_size=8))
    for at, text in sorted(noise, reverse=True):
        lines.insert(at, (text, None))
    rows = [i for i, (_, kind) in enumerate(lines) if kind]
    separator = draw(st.sampled_from(SEPARATORS))  # one for the document, lest one hide another
    for i in draw(st.lists(st.sampled_from(rows), max_size=4)):
        lines[i] = (_respell(draw, lines[i][0].split(), separator), lines[i][1])
    return k, lines, draw(st.sampled_from(["\n", "\r\n"]))


def _join(lines, ending):
    return "".join(text + ending for text, _ in lines)


@settings(deadline=None, max_examples=40)
@given(noisy_documents())
def test_bulk_reader_ignores_noise_and_line_endings(case):
    k, lines, ending = case
    assert load_scenario(_join(lines, ending)) == READER_CONFIGS[k]


@settings(deadline=None, max_examples=60)
@given(noisy_documents(), st.data())
def test_bulk_reader_names_the_corrupted_line(case, data):
    k, lines, ending = case
    kinds = ["edge"] + (["table"] if k == 3 else [])
    kind = data.draw(st.sampled_from(kinds))
    rows = [i for i, (_, what) in enumerate(lines) if what == kind]
    at = data.draw(st.sampled_from(rows[1:]))  # a line with one of its kind before it
    tokens = lines[at][0].split()
    edit = data.draw(st.sampled_from(["token", "loop", "repeat"]))
    if edit == "token":  # any one token made unreadable as an int and as a float, or dropped
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(
            st.sampled_from(["x", "0x1", "--1", ""]))
        message = {"edge": "bad edge|expected 'u v'",
                   "table": "bad id list|bad number|expected '<agent>"}[kind]
    elif edit == "loop":  # both ids the same agent, maybe one beyond int64
        tokens[0] = tokens[1] = data.draw(st.sampled_from([tokens[0], str(2**63 + at)]))
        message = {"edge": "self-loop on agent", "table": "ids listed twice"}[kind]
    else:  # an earlier line of the same kind again
        tokens = lines[data.draw(st.sampled_from([i for i in rows if i < at]))][0].split()
        message = {"edge": "duplicate edge", "table": "repeated table entry"}[kind]
    text = _respell(data.draw, tokens, data.draw(st.sampled_from(SEPARATORS)))
    lines[at] = (text, kind)
    with pytest.raises(FormatError, match=rf"^line {at + 1}: ({message})"):
        load_scenario(_join(lines, ending))


def test_form_feed_in_a_document_keeps_grep_line_numbers():
    doc = BASE_DOC.replace("0 1\n", "0 1\x0c\n").replace("2 3\ncommunities", "3 3\ncommunities")
    with pytest.raises(FormatError, match=r"^line 5: self-loop on agent 3$"):
        load_scenario(doc)
