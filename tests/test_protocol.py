import itertools
import os
import random
import statistics
import tempfile
import tracemalloc
import warnings
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
    Graph,
    PerNeighborTable,
    PresetValues,
    RoundScript,
    SimulationConfig,
    StateVector,
    Trace,
    complete_graph,
    example1,
    example3,
    median,
    rac_verdict,
    run,
    spread,
    step,
)
from commca.cli import main
from commca.protocol import _BLOCK_CELLS, _CHUNK_CELLS, MAX_MAGNITUDE

from reference import random_connected_graph, reference_csv_text, reversed_order_step


def star_config(alpha=0.9):
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    layout = CommunityLayout([range(4)])
    init = PresetValues((10.0, 0.0, 20.0, 40.0))
    return SimulationConfig(g, layout, init, None, alpha, 5, 0)


def random_config(rng, rounds=12):
    """Random valid simulation with a randomly chosen adversary kind."""
    n = rng.randint(4, 11)
    g = random_connected_graph(rng, n, rng.uniform(0.2, 0.8))
    cut = rng.randint(1, n - 1)
    k = rng.randint(0, n // 3)
    malicious = rng.sample(range(n), k)
    layout = CommunityLayout([range(cut), range(cut, n)], malicious)
    vals = tuple(rng.uniform(-50.0, 80.0) for _ in range(n))
    if malicious:
        adversary = rng.choice(
            [
                ConstantValue(60.0),
                RoundScript((60.0, 10.0, -5.0, 42.0)),
                PerNeighborTable(
                    {
                        (m, v): rng.uniform(-100.0, 100.0)
                        for m in malicious
                        for v in g.neighbors(m)[:2]
                    },
                    42.0,
                ),
            ]
        )
    else:
        adversary = None
    alpha = rng.uniform(0.05, 0.95)
    return SimulationConfig(g, layout, PresetValues(vals), adversary, alpha, rounds, 0)


class TestMedian:
    def test_odd_takes_middle(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([5.0]) == 5.0

    def test_even_averages_middle_pair(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
        assert median([1.0, 2.0]) == 1.5

    def test_identical_values_exact(self):
        assert median([2.0, 2.0, 2.0]) == 2.0
        assert median([-7.5] * 6) == -7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_order_invariant(self):
        rng = random.Random(1)
        for _ in range(50):
            vals = [rng.uniform(-10, 10) for _ in range(rng.randint(1, 9))]
            shuffled = vals[:]
            rng.shuffle(shuffled)
            assert median(vals) == median(shuffled)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=30,
        )
    )
    def test_agrees_with_statistics_median(self, vals):
        assert median(vals) == statistics.median(vals)

    def test_bounded_by_value_range(self):
        rng = random.Random(2)
        for _ in range(200):
            vals = [rng.uniform(-1e6, 1e6) for _ in range(rng.randint(1, 12))]
            m = median(vals)
            assert min(vals) <= m <= max(vals)

    def test_outliers_cannot_drag_median_out(self):
        # fewer than half the inputs, replaced by arbitrary extremes, leave
        # the median inside the honest value range
        rng = random.Random(3)
        for _ in range(500):
            d = rng.randint(3, 15)
            b = rng.randint(1, (d - 1) // 2)
            honest = [rng.uniform(-5.0, 5.0) for _ in range(d - b)]
            hostile = [rng.choice([-1e9, 1e9, 1e300]) for _ in range(b)]
            m = median(honest + hostile)
            assert min(honest) <= m <= max(honest)


class TestStep:
    def test_star_round_values(self):
        cfg = star_config()
        state = step(StateVector(cfg.initializer.values), cfg.graph, cfg.layout, 0.9, None)
        assert state.round == 1
        expected = (11.0, 1.0, 19.0, 37.0)
        for got, want in zip(state.values, expected):
            assert got == pytest.approx(want, abs=1e-9)

    def test_consensus_is_a_fixed_point(self):
        g = complete_graph(5)
        layout = CommunityLayout([range(5)])
        state = StateVector((3.25,) * 5)
        nxt = step(state, g, layout, 0.7, None)
        for v in nxt.values:
            assert v == pytest.approx(3.25, rel=1e-12)

    def test_each_value_stays_between_old_value_and_median(self):
        rng = random.Random(5)
        for _ in range(40):
            cfg = random_config(rng)
            state = StateVector(cfg.initializer.values)
            nxt = step(state, cfg.graph, cfg.layout, cfg.alpha, cfg.adversary)
            for u in sorted(cfg.layout.legitimate):
                presented = [
                    state.values[v]
                    if not cfg.layout.is_malicious(v)
                    else cfg.adversary.present(v, u, 0)
                    for v in cfg.graph.neighbors(u)
                ]
                m = median(presented)
                lo, hi = min(state.values[u], m), max(state.values[u], m)
                assert lo - 1e-9 <= nxt.values[u] <= hi + 1e-9

    def test_agent_iteration_order_is_irrelevant(self):
        rng = random.Random(6)
        for _ in range(30):
            cfg = random_config(rng)
            state = StateVector(cfg.initializer.values)
            for _ in range(3):
                forward = step(state, cfg.graph, cfg.layout, cfg.alpha, cfg.adversary)
                backward = reversed_order_step(
                    state, cfg.graph, cfg.layout, cfg.alpha, cfg.adversary
                )
                assert forward == backward
                state = forward

    def test_own_value_excluded_from_median_input(self):
        # agent 0 holds an extreme value; with two neighbors agreeing, the
        # median input must ignore agent 0's own value entirely
        g = complete_graph(3)
        layout = CommunityLayout([range(3)])
        state = StateVector((1000.0, 2.0, 2.0))
        nxt = step(state, g, layout, 0.5, None)
        assert nxt.values[0] == pytest.approx(0.5 * 1000.0 + 0.5 * 2.0)

    def test_equivocation_hand_case(self):
        g = complete_graph(3)
        layout = CommunityLayout([range(3)], malicious={2})
        adv = PerNeighborTable({(2, 0): 100.0, (2, 1): -100.0}, 0.0)
        state = StateVector((10.0, 20.0, 0.0))
        nxt = step(state, g, layout, 0.5, adv)
        # agent 0 sees (20, 100), agent 1 sees (10, -100)
        assert nxt.values == (35.0, -12.5, 0.0)

    def test_malicious_stored_value_tracks_strategy(self):
        g = complete_graph(3)
        layout = CommunityLayout([range(3)], malicious={0})
        adv = RoundScript((7.0, 9.0, 11.0))
        state = StateVector((7.0, 1.0, 1.0))
        s1 = step(state, g, layout, 0.5, adv)
        s2 = step(s1, g, layout, 0.5, adv)
        s3 = step(s2, g, layout, 0.5, adv)
        assert (s1.values[0], s2.values[0], s3.values[0]) == (9.0, 11.0, 11.0)


def assert_run_matches_step(cfg):
    """run() against iterated step(), bit for bit (-0.0 is not 0.0)."""
    trace = run(cfg)
    state = StateVector(tuple(trace.values[0]))
    for t in range(cfg.rounds):
        state = step(state, cfg.graph, cfg.layout, cfg.alpha, cfg.adversary)
        assert np.array_equal(trace.values[t + 1].view(np.uint64),
                              np.array(state.values).view(np.uint64)), f"round {t + 1} diverged"
    return trace


def assert_reports_match_medians(trace):
    """Oracle: each round's legitimate medians from the stored rows and
    adversary.present, searched round by round, then in id order; returns
    the number of isolation events."""
    cfg = trace.config
    g, layout, adv = cfg.graph, cfg.layout, cfg.adversary
    events = 0
    for i, report in enumerate(trace.isolation):
        members = sorted(layout.legitimate_in(i))
        count, first = 0, None
        if members:
            start = [trace.values[0, u] for u in members]
            low, high = min(start), max(start)
            assert trace.initial_interval(i) == (low, high)
            for t in range(cfg.rounds):
                for u in members:
                    m = median(
                        adv.present(v, u, t) if layout.is_malicious(v)
                        else trace.values[t, v]
                        for v in g.neighbors(u)
                    )
                    if not low <= m <= high:
                        count += 1
                        first = first or (t, u, m)
        assert (report.community, report.violations, report.first) == (i, count, first)
        events += count
    return events


class TestRunMatchesStep:
    def test_bitwise_equality_on_random_configs(self):
        rng = random.Random(7)
        for _ in range(25):
            cfg = random_config(rng)
            trace = assert_run_matches_step(cfg)
            assert np.array_equal(trace.values[0], np.array(cfg.initializer.values))

    def test_bitwise_equality_with_equivocation(self):
        g = complete_graph(4)
        layout = CommunityLayout([range(4)], malicious={3})
        adv = PerNeighborTable({(3, 0): 90.0, (3, 1): -90.0, (3, 2): 5.0}, 60.0)
        assert_run_matches_step(SimulationConfig(
            g, layout, PresetValues((1.0, 2.0, 3.0, 60.0)), adv, 0.8, 20, 0
        ))

    def test_bitwise_equality_with_script_longer_than_run(self):
        rng = random.Random(11)
        for _ in range(10):
            cfg = random_config(rng, rounds=8)
            if not cfg.layout.malicious:
                continue
            adv = RoundScript(tuple(rng.uniform(-100.0, 100.0) for _ in range(20)))
            assert_run_matches_step(SimulationConfig(
                cfg.graph, cfg.layout, cfg.initializer, adv, cfg.alpha, cfg.rounds, 0
            ))

    def test_bitwise_equality_at_example_one_scale_with_table(self):
        # a seeded +-100 table on every malicious -> legitimate edge, over the
        # 158 agents and every degree group of example 1
        cfg = example1(seed=5, rounds=30)
        rng = random.Random(5)
        malicious = cfg.layout.malicious
        entries = {
            (m, v): rng.choice((-100.0, 100.0))
            for m in sorted(malicious)
            for v in cfg.graph.neighbors(m)
            if v not in malicious
        }
        adv = PerNeighborTable(entries, 60.0)
        assert_run_matches_step(SimulationConfig(
            cfg.graph, cfg.layout, cfg.initializer, adv, cfg.alpha, cfg.rounds, cfg.seed
        ))

    def test_bitwise_equality_without_legitimate_agents(self):
        layout = CommunityLayout([range(2), range(2, 4)], malicious=range(4))
        cfg = SimulationConfig(
            complete_graph(4), layout, PresetValues((1.0, 2.0, 3.0, 4.0)),
            RoundScript((5.0, -5.0, 7.0)), 0.9, 6, 0,
        )
        trace = assert_run_matches_step(cfg)
        assert [r.first for r in trace.isolation] == [None, None]
        assert trace.legitimate_intervals == (None, None)

    def test_bitwise_equality_across_degree_one_odd_even_and_overrides(self):
        # legitimate degrees 5, 1, 2, 3, 2, 3, 4 (agents 0-6); malicious
        # agent 7 overrides what it shows agents 3 and 6
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (2, 6), (3, 6),
                      (3, 7), (4, 7), (5, 6), (5, 7), (6, 7)])
        assert [g.degree(u) for u in range(7)] == [5, 1, 2, 3, 2, 3, 4]
        layout = CommunityLayout([range(4), range(4, 8)], malicious={7})
        adv = PerNeighborTable({(7, 3): 1e3, (7, 6): -1e3}, 42.0)
        rng = random.Random(12)
        for _ in range(5):
            vals = tuple(rng.uniform(-50.0, 80.0) for _ in range(8))
            alpha = rng.uniform(0.05, 0.95)
            assert_run_matches_step(
                SimulationConfig(g, layout, PresetValues(vals), adv, alpha, 25, 0)
            )

    def test_bitwise_equality_in_class_order_around_malicious_ids(self):
        # malicious agents 0, 1 and 6 hold the lowest ids and one between
        # legitimate ones; the 8-wide class mixes degrees 5 and 6 (agents
        # 2, 3, 7, 8, 9) and the 4-wide one degrees 3 and 4 (agents 4, 10,
        # 11), so run()'s odd-before-even class order is far from id order
        edges = [(0, 2), (0, 3), (0, 7), (1, 2), (1, 4), (1, 9), (2, 3), (2, 4), (2, 5),
                 (2, 7), (3, 4), (3, 5), (3, 8), (6, 7), (6, 8), (6, 9), (6, 10), (6, 11),
                 (7, 8), (7, 9), (7, 10), (8, 9), (8, 11), (9, 10), (10, 11)]
        g = Graph(12, edges)
        legit = [2, 3, 4, 5, 7, 8, 9, 10, 11]
        assert [g.degree(u) for u in legit] == [6, 5, 3, 2, 6, 5, 5, 4, 3]
        layout = CommunityLayout([range(6), range(6, 12)], malicious={0, 1, 6})
        adv = PerNeighborTable({(0, 3): 1e3, (6, 8): -1e3, (1, 9): 500.0}, 42.0)
        rng = random.Random(16)
        events = 0
        for _ in range(4):
            vals = tuple(rng.uniform(0.0, 10.0) if u < 6 else rng.uniform(50.0, 80.0)
                         for u in range(12))
            trace = assert_run_matches_step(SimulationConfig(
                g, layout, PresetValues(vals), adv, rng.uniform(0.05, 0.95), 40, 0))
            events += assert_reports_match_medians(trace)
        assert events > 0


    def test_bitwise_equality_on_stars_across_width_classes(self):
        # hubs 0 and 1 (degrees 41 and 18) share 8 leaves of degree 2; the
        # other leaves have degree 1, and malicious leaf 49 overrides what it
        # shows hub 1.  The hubs sit in the low-valued community, mostly
        # among high-valued neighbors, so isolation events are many.
        edges = [(0, 1)] + [(0, v) for v in range(2, 42)] + [(1, v) for v in range(34, 51)]
        g = Graph(51, edges)
        assert sorted({g.degree(u) for u in range(51)}) == [1, 2, 18, 41]
        layout = CommunityLayout([range(20), range(20, 51)], malicious={49})
        adv = PerNeighborTable({(49, 1): -1e3}, 75.0)
        rng = random.Random(21)
        events = 0
        for _ in range(3):
            vals = tuple(rng.uniform(0.0, 10.0) if u < 20 else rng.uniform(50.0, 80.0)
                         for u in range(51))
            trace = assert_run_matches_step(
                SimulationConfig(g, layout, PresetValues(vals), adv, rng.uniform(0.05, 0.95), 30, 0)
            )
            events += assert_reports_match_medians(trace)
        assert events > 100

    def test_bitwise_equality_on_odd_medians_at_the_extremes(self):
        # run() takes an odd median a as (a + a) / 2: for each a below, agents
        # of degrees 1, 3 and 5 (widths 1, 4 and 8) see only malicious agents
        # 0-4, which show them a between as many values at or below
        # min(a, -1) as at or above max(a, 1), so their median is a in every
        # round
        extremes = (5e-324, -0.0, MAX_MAGNITUDE, -MAX_MAGNITUDE)
        edges, entries, init = [], {}, [0.0] * 5
        for a in extremes:
            below, above = min(a, -1.0), max(a, 1.0)
            for shown in ((a,), (below, a, above), (below, below, a, above, above)):
                u = len(init)
                init.append(a)
                for m, value in enumerate(shown):
                    edges.append((m, u))
                    entries[(m, u)] = value
        g = Graph(len(init), edges)
        layout = CommunityLayout([range(len(init))], malicious=range(5))
        trace = assert_run_matches_step(SimulationConfig(
            g, layout, PresetValues(tuple(init)), PerNeighborTable(entries, 0.0), 0.25, 3, 0))
        # 0.25 * a + 0.75 * a is a again for each, the sign of -0.0 included
        assert trace.values[1, 5:].tobytes() == np.repeat(extremes, 3).tobytes()

    def test_first_event_before_the_script_holds_sees_its_own_round(self):
        # malicious agent 0's script holds from round 2, and the first
        # isolation event's median is the one its round used.  Agent 1 sees
        # agent 0 alone, so its round-0 median is 100, outside [0, 9] unlike
        # the held 5.  Legitimate degrees 1, 3, 5 and 2 put agents in the
        # width classes 1, 2, 4 and 8.
        g = Graph(10, [(0, 1), (0, 2), (2, 3), (2, 4), (0, 5), (3, 5), (4, 5), (5, 6),
                       (5, 7), (3, 4), (6, 7), (7, 8), (8, 9), (6, 9)])
        assert [g.degree(u) for u in range(1, 10)] == [1, 3, 3, 3, 5, 3, 3, 2, 2]
        layout = CommunityLayout([range(10)], malicious={0})
        rng = random.Random(31)
        for _ in range(3):
            vals = (0.0, 0.0, *(rng.uniform(0.0, 9.0) for _ in range(7)), 9.0)
            trace = assert_run_matches_step(SimulationConfig(
                g, layout, PresetValues(vals), RoundScript((100.0, -50.0, 5.0)),
                rng.uniform(0.05, 0.95), 12, 0))
            assert assert_reports_match_medians(trace) > 0
            assert trace.isolation[0].first == (0, 1, 100.0)


    def test_bitwise_equality_when_a_median_ties_zeros_of_both_signs(self):
        # agent 0 sees 0.0, -0.0, 0.0, 0.0 and -1.0 from agents 1-5; sorted()
        # keeps the tied zeros in id order, so its round-0 median is agent
        # 2's -0.0, and so is its round-1 value
        g = Graph(6, [(0, v) for v in range(1, 6)])
        cfg = SimulationConfig(g, CommunityLayout([range(6)]),
                               PresetValues((-0.0, 0.0, -0.0, 0.0, 0.0, -1.0)), None, 0.5, 60, 0)
        trace = assert_run_matches_step(cfg)
        assert trace.values[1, 0].tobytes() == np.float64(-0.0).tobytes()
        assert_reports_match_medians(trace)


    def test_bitwise_equality_when_a_zero_joins_the_zeros_out_of_id_order(self):
        # hub 0 (-0.0) sees -1.0 from agent 1, -0.0 from agents 2 and 6, 1.0
        # from agent 9 and malicious agent 5's script: -0.5, then 0.0.  The
        # other agents keep their values: triangles hold -1.0 (1, 4, 8) and
        # 1.0 (9, 10, 11), and agents 2, 3, 6 and 7 hold -0.0.  Agent 5's 0.0
        # keeps the order of values that held at round 0 non-decreasing, but
        # sorted() puts it between agents 2 and 6, so the hub's round-1 median
        # is 0.0 and its round-2 value 0.0, not -0.0
        edges = [(0, 1), (0, 2), (0, 5), (0, 6), (0, 9), (1, 4), (1, 8), (4, 8), (2, 3), (2, 7),
                 (6, 3), (6, 7), (3, 7), (9, 10), (9, 11), (10, 11)]
        values = (-0.0, -1.0, -0.0, -0.0, -1.0, -0.5, -0.0, -0.0, -1.0, 1.0, 1.0, 1.0)
        cfg = SimulationConfig(Graph(12, edges), CommunityLayout([range(12)], malicious={5}),
                               PresetValues(values), RoundScript((-0.5, 0.0)), 0.5, 4, 0)
        trace = assert_run_matches_step(cfg)
        assert trace.values[1, 0].tobytes() == np.float64(-0.0).tobytes()
        assert trace.values[2, 0].tobytes() == np.float64(0.0).tobytes()

    def test_bitwise_equality_past_65536_slots(self):
        # malicious hub 0 shows each of 33,000 legitimate agents on a path a
        # value of its own, so run() ranks 66,002 values (agents, table
        # values and the pad) in 4 bytes, not 2
        k = 33_000
        rng = np.random.default_rng(3)
        edges = [(0, v) for v in range(1, k + 1)] + [(v, v + 1) for v in range(1, k)]
        shown = rng.uniform(-10.0, 10.0, k)
        assert np.unique(shown).size == k
        adv = PerNeighborTable(dict(zip(((0, v) for v in range(1, k + 1)), shown.tolist())), 0.0)
        values = (0.0, *rng.uniform(-10.0, 10.0, k).tolist())
        cfg = SimulationConfig(Graph(k + 1, edges), CommunityLayout([range(k + 1)], malicious={0}),
                               PresetValues(values), adv, 0.5, 3, 0)
        assert_run_matches_step(cfg)
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bitwise_equality_on_tied_and_signed_zero_values(self, data):
        # values from a pool that makes ties, runs of zeros of both signs and
        # legitimate values equal to the adversary's all common; scripts up to
        # 6 rounds long change the order of values before they hold, and
        # tables repeat values, so several overrides share a value
        draw = data.draw
        pool = st.sampled_from((-1.0, -0.0, 0.0, 1.0, 60.0))
        n = draw(st.integers(2, 10))
        # a random tree gives every agent a neighbor; more edges on top
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        edges |= set(draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                                   max_size=2 * n)))
        g = Graph(n, sorted(edges))
        cut = draw(st.integers(1, n))
        malicious = [u for u in range(n) if draw(st.booleans())]
        layout = CommunityLayout([range(cut), range(cut, n)] if cut < n else [range(n)],
                                 malicious)
        kind = draw(st.sampled_from(["none", "script", "table"]))
        if not malicious or kind == "none":
            adversary = ConstantValue(draw(pool)) if malicious else None
        elif kind == "script":
            adversary = RoundScript(tuple(draw(st.lists(pool, min_size=1, max_size=6))))
        else:
            reach = [(m, v) for m in malicious for v in g.neighbors(m)]
            keys = draw(st.lists(st.sampled_from(reach), unique=True))
            adversary = PerNeighborTable({k: draw(pool) for k in keys}, draw(pool))
        values = tuple(draw(st.lists(pool, min_size=n, max_size=n)))
        alpha = draw(st.sampled_from((0.25, 0.5, 0.75)))
        trace = assert_run_matches_step(SimulationConfig(
            g, layout, PresetValues(values), adversary, alpha, draw(st.integers(1, 12)), 0))
        assert_reports_match_medians(trace)

def first_repeat(values) -> int:
    """The first row that repeats its predecessor bit for bit (0 if none)."""
    bits = values.view(np.uint64)
    same = (bits[1:] == bits[:-1]).all(axis=1)
    return int(np.argmax(same)) + 1 if same.any() else 0


class TestFixedPointStop:
    """run() stops at the first row that repeats its predecessor bit for bit
    once the script holds, and fills the rest; step() never stops."""

    def test_stop_waits_for_the_script_to_hold(self):
        # under its constant 60, example 3 repeats its rows from round 669;
        # this script holds 60 past that and then drops to 0
        base = example3(rounds=1000)
        assert 0 < first_repeat(run(base).values) < 800
        trace = assert_run_matches_step(
            replace(base, adversary=RoundScript([60.0] * 800 + [0.0]))
        )
        bits = trace.values.view(np.uint64)
        assert (bits[700:800] == bits[700]).all()
        assert (bits[800] != bits[799]).any()  # round 800 shows 0

    def test_fixed_point_at_round_one(self):
        cfg = SimulationConfig(complete_graph(5), CommunityLayout([range(5)]),
                               PresetValues((3.0,) * 5), None, 0.5, 40, 0)
        trace = assert_run_matches_step(cfg)
        assert first_repeat(trace.values) == 1
        assert (trace.values == 3.0).all()
        assert trace.isolation[0].ok

    def test_fixed_point_in_the_last_round(self):
        base = replace(star_config(alpha=0.5), rounds=400)
        k = first_repeat(run(base).values)
        assert k > 2
        for rounds in (k - 1, k, k + 1):
            trace = assert_run_matches_step(replace(base, rounds=rounds))
            assert first_repeat(trace.values) == (k if rounds >= k else 0)

    def test_rows_equal_only_as_floats_are_no_fixed_point(self):
        # on the path 0-1-2, rows 0 and 1 differ only in agent 1's zero sign;
        # agent 2's -0.0 turns into 0.0 one round later
        cfg = SimulationConfig(Graph(3, [(0, 1), (1, 2)]), CommunityLayout([range(3)]),
                               PresetValues((0.0, -0.0, -0.0)), None, 0.5, 5, 0)
        trace = assert_run_matches_step(cfg)
        assert np.signbit(trace.values).tolist()[:3] == [
            [False, True, True], [False, False, True], [False, False, False]]

    def test_reports_hold_across_the_repeated_tail(self):
        trace = run(example3(rounds=1000))
        k = first_repeat(trace.values)
        assert 0 < k < 1000
        assert assert_reports_match_medians(trace) > 0
        # community 1's violations of round k - 1 recur in each tail round
        before, last = (run(example3(rounds=r)).isolation[0].violations for r in (k, k - 1))
        assert before > last
        assert trace.isolation[0].violations == before + (1000 - k) * (before - last)


def boundary_configs():
    """Runs that reach a fixed point: a star and a K_5 whose malicious agent
    follows a four-entry script within 60 rounds; at round 2590, a pair that
    a malicious neighbor drags out of its interval in every round, the
    repeats too; and at rounds 231 and 205, a graph whose malicious agents
    0, 4 and 8 hold the lowest id, one between legitimate ones and the
    highest, under a three-entry script and under a table.  Its legitimate
    agents 1, 2, 3, 5, 6 and 7 have degrees 2, 4, 5, 5, 6 and 3, in the
    width classes 2, 4 and 8."""
    star = replace(star_config(alpha=0.5), rounds=400)
    scripted = SimulationConfig(
        complete_graph(5), CommunityLayout([range(5)], [4]),
        PresetValues((1.0, 2.0, 3.0, 4.0, 0.0)), RoundScript((60.0, 10.0, -5.0, 2.5)),
        0.5, 400, 0)
    pulled = SimulationConfig(
        complete_graph(3), CommunityLayout([range(3)], malicious={2}),
        PresetValues((5.0, 5.0, 0.0)), ConstantValue(0.0), 0.5, 400, 0)
    mixed = SimulationConfig(
        Graph(9, [(0, 1), (0, 2), (0, 5), (0, 6), (1, 3), (2, 3), (2, 4), (2, 8), (3, 4), (3, 5),
                  (3, 6), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7), (6, 8), (7, 8)]),
        CommunityLayout([range(5), range(5, 9)], malicious={0, 4, 8}),
        PresetValues((0.0, 1.0, 2.0, 3.0, 0.0, 6.0, 7.0, 8.0, 0.0)),
        RoundScript((60.0, -5.0, 2.5)), 0.5, 400, 0)
    table = PerNeighborTable({(0, 1): 1e3, (4, 5): -1e3, (8, 7): 50.0, (4, 3): -0.0}, 4.5)
    return {"star": star, "scripted": scripted, "pulled": pulled,
            "mixed": mixed, "mixed table": replace(mixed, adversary=table)}


def fixed_point(cfg) -> int:
    """The first round that repeats its predecessor, from a long run."""
    k = first_repeat(run(replace(cfg, rounds=4000)).values)
    assert k > 2
    return k


def assert_same_bytes(got: str | bytes, want: str | bytes) -> None:
    """got == want as bytes, a str taken as UTF-8.  A mismatch names only the
    first line that differs, so a broken writer fails in seconds: pytest's
    own report would diff two texts of up to megabytes."""
    got, want = (s.encode() if isinstance(s, str) else s for s in (got, want))
    if got != want:
        lines = enumerate(itertools.zip_longest(got.split(b"\n"), want.split(b"\n")), 1)
        k, (line, expected) = next((k, pair) for k, pair in lines if pair[0] != pair[1])
        pytest.fail(f"line {k} differs: got {line!r}, expected {expected!r}", pytrace=False)


def assert_trace_matches_reference(trace):
    """run() against step(), the CSV against the one-f-string writer, and the
    isolation reports against the median oracle."""
    assert_run_matches_step(trace.config)
    assert_same_bytes(trace.to_csv_text(), reference_csv_text(trace))
    assert_reports_match_medians(trace)


class TestHeadOnlyStorage:
    """run() keeps the rows up to the last distinct one and a repeat count;
    nothing in commca builds the full array."""

    def test_run_holds_only_the_head(self):
        run(example1(rounds=2))  # imports and caches out of the measurement
        tracemalloc.start()
        try:
            trace = run(example1())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 5001 x 158 float64 rows alone are 6.3 MB
        assert peak < 2e6
        assert (trace.last_distinct, trace.repeats, trace.rounds) == (327, 4673, 5000)
        assert trace.head.shape == (328, 158)

    def test_a_long_run_costs_no_more_than_its_head(self):
        k = first_repeat(run(example3(rounds=1000)).values)
        assert 0 < k < 1000
        run(example3(rounds=2))
        tracemalloc.start()
        try:
            trace = run(example3(rounds=200_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert (trace.last_distinct, trace.repeats) == (k - 1, 200_000 - k + 1)
        # each community's violations of round k - 1 recur in each tail round
        before, last = (run(example3(rounds=r)).isolation for r in (k, k - 1))
        assert before[0].violations > last[0].violations
        for i, report in enumerate(trace.isolation):
            step_count = before[i].violations - last[i].violations
            assert report.violations == before[i].violations + (200_000 - k) * step_count
            assert report.first == before[i].first

    def test_readers_never_build_the_full_array(self, monkeypatch, tmp_path, capsys):
        def forbidden(trace):
            raise AssertionError("Trace.values built")

        monkeypatch.setattr(Trace, "values", property(forbidden))
        trace = run(example3())
        trace.write_csv(tmp_path / "trace.csv")
        assert rac_verdict(trace, window=4000).outcome(0).safety is False
        assert spread(trace, 1, 4000) == spread(trace, 1, -1) < 1e-6
        assert trace.value(4000, 0) == float(trace.final_values()[0])
        assert main(["run", "--example", "3", "--out", str(tmp_path)]) == 1
        assert main(["verify-prop1", "--example", "1", "--mode", "sampled", "--seed", "42"]) == 0
        assert "isolation ok over 5000 rounds" in capsys.readouterr().out


class TestHeadTailBoundary:
    """Rows, CSV bytes, reports and verdicts where the head ends, where the
    run's buffers grow, and where the two meet."""

    @pytest.mark.parametrize("name", ["star", "scripted", "pulled"])
    def test_rounds_around_the_fixed_point(self, name):
        base = boundary_configs()[name]
        k = fixed_point(base)
        for rounds in (k - 1, k, k + 1):
            trace = run(replace(base, rounds=rounds))
            assert_trace_matches_reference(trace)
            last = min(rounds, k - 1)
            assert (trace.last_distinct, trace.repeats) == (last, rounds - last)

    @pytest.mark.parametrize("name", ["star", "scripted", "pulled"])
    def test_buffer_growth_around_the_fixed_point(self, name, monkeypatch):
        base = boundary_configs()[name]
        n = base.graph.n
        k = fixed_point(base)
        base = replace(base, rounds=k + 50)
        want = run(base)
        assert want.last_distinct == k - 1
        # first chunks ending just before, at and just after row k (the
        # growth that row k needs is the fixed-point round's), and the least
        for chunk in (k - 1, k, k + 1, 2):
            monkeypatch.setattr("commca.protocol._CHUNK_CELLS", chunk * n)
            trace = run(base)
            assert_trace_matches_reference(trace)
            assert np.array_equal(trace.head.view(np.uint64), want.head.view(np.uint64))
            assert trace.isolation == want.isolation
            # runs that end before the fixed point, at the first chunk's size +- 1
            for rounds in (chunk - 2, chunk - 1, chunk):
                if 1 <= rounds < k:
                    assert_trace_matches_reference(run(replace(base, rounds=rounds)))

    @pytest.mark.parametrize("rounds", [750, 799])
    def test_rows_that_repeat_before_the_script_holds_are_repeats(self, rounds):
        # example 3 repeats its rows from round 669 under its constant 60;
        # this script shows 60 until round 799, so run() never stops early
        cfg = replace(example3(rounds=rounds), adversary=RoundScript([60.0] * 800 + [0.0]))
        trace = run(cfg)
        assert (trace.last_distinct, trace.repeats) == (668, rounds - 668)
        rebuilt = Trace(trace.values, cfg, (), ())
        assert (rebuilt.last_distinct, rebuilt.repeats) == (668, rounds - 668)
        assert_same_bytes(trace.to_csv_text(), reference_csv_text(trace))

    def test_first_chunk_holds_a_500_round_example1_run(self):
        assert _CHUNK_CELLS // example1().graph.n >= 501

    def test_verdict_over_windows_around_the_repeat_count(self):
        cfg = replace(boundary_configs()["star"], rounds=100)
        trace = run(cfg)
        full = trace.values
        rebuilt = Trace(full, cfg, trace.legitimate_intervals, trace.isolation)
        assert (rebuilt.last_distinct, rebuilt.repeats) == (trace.last_distinct, trace.repeats)
        r, last = trace.repeats, trace.last_distinct
        # rows up to last - 3 spread at least epsilon, later ones less
        spreads = full.max(axis=1) - full.min(axis=1)
        epsilon = float(spreads[last - 3])
        assert (np.diff(spreads[: last + 1]) < 0).all()
        agreed = set()
        for window in (1, r - 1, r, r + 1, r + 3, r + 4, cfg.rounds + 1):
            verdict = rac_verdict(trace, epsilon=epsilon, window=window)
            assert verdict == rac_verdict(rebuilt, epsilon=epsilon, window=window)
            tail = full[-window:]
            agreement = bool((tail.max(axis=1) - tail.min(axis=1) < epsilon).all())
            assert verdict.outcome(0).agreement == agreement
            agreed.add(agreement)
        assert agreed == {True, False}
        with pytest.raises(ValueError, match="fewer than the agreement window"):
            rac_verdict(trace, window=cfg.rounds + 2)

    def test_accessors_against_the_full_array(self):
        cfg = replace(boundary_configs()["scripted"], rounds=100)
        trace = run(cfg)
        full = trace.values
        r, last, size = trace.repeats, trace.last_distinct, cfg.rounds + 1
        assert full.shape == (size, 5) and r > 0
        with pytest.raises(ValueError):
            full[0, 0] = 1.0
        members = sorted(cfg.layout.legitimate_in(0))
        for t in (0, 1, last - 1, last, last + 1, size - 1, -1, -r, -r - 1, -size, np.int64(3)):
            assert np.array_equal(trace.row(t).view(np.uint64), full[t].view(np.uint64))
            for u in range(5):
                assert trace.value(t, u) == full[t, u]
            row = full[t, members]
            assert spread(trace, 0, t) == float(row.max() - row.min())
        for t in (size, -size - 1):
            with pytest.raises(IndexError):
                full[t]
            with pytest.raises(IndexError):
                trace.value(t, 0)
            with pytest.raises(IndexError):
                spread(trace, 0, t)
        assert np.array_equal(trace.final_values(), full[-1])


def jump_config(e: int, rounds: int, low: float = -100.0):
    """A K_5 whose malicious agent 4 shows 100 until round e and `low` from
    it on: with -100 its value falls from above every other to below them at
    round e, which reorders the values, while each legitimate median stays
    inside [1, 4]."""
    return SimulationConfig(
        complete_graph(5), CommunityLayout([range(5)], [4]),
        PresetValues((1.0, 2.0, 3.0, 4.0, 0.0)), RoundScript((100.0,) * e + (low,)),
        0.5, rounds, 0)


def pulse_config(e: int, rounds: int):
    """A K_3 whose legitimate agents 0 and 1 start at 5 and whose malicious
    agent 2 shows 5 until round e and 0 from it on: the first isolation
    event is agent 0's median 2.5 at round e."""
    return SimulationConfig(
        complete_graph(3), CommunityLayout([range(3)], [2]),
        PresetValues((5.0, 5.0, 0.0)), RoundScript((5.0,) * e + (0.0,)), 0.5, rounds, 0)


class TestRoundBlocks:
    """run() writes each round's row into the trace in agent-id order and
    keeps a block of rounds' medians; once per block it folds the block's
    isolation flags into each agent's event count and first event.  Events
    just before, on and just after a block boundary leave it bitwise equal
    to step(), with the reports of the median oracle."""

    def assert_blocks_match_step(self, cfg, blocks, monkeypatch):
        want = run(cfg)  # at the default block size
        assert_reports_match_medians(want)
        for block in blocks:
            monkeypatch.setattr("commca.protocol._ROUND_BLOCK", block)
            trace = assert_run_matches_step(cfg)
            assert trace.isolation == want.isolation
            assert (trace.last_distinct, trace.repeats) == (want.last_distinct, want.repeats)
        return want

    def test_fixed_point_around_a_block_boundary(self, monkeypatch):
        # each run repeats its rows from round k: blocks of k - 1, k and k + 1
        # rounds put that round just after, on and just before a boundary.  A
        # run of a multiple of 6 rounds that ends before round k ends on a
        # boundary of blocks of 1, 2 and 3 rounds, so its last flush holds no
        # round.  Both legitimate agents of the pulled pair are outside their
        # interval in every round, the repeats too.  The mixed graph's
        # malicious agents show the script's three entries before it holds
        # and its last one after, and the table's values from round 0 on
        for name, base in boundary_configs().items():
            k = fixed_point(base)
            for rounds in (6 * ((k - 1) // 6), k - 1, k, k + 1):
                trace = self.assert_blocks_match_step(
                    replace(base, rounds=rounds), (1, 2, 3, k - 1, k, k + 1), monkeypatch)
                assert trace.last_distinct == min(rounds, k - 1)
                if name == "pulled":
                    assert trace.isolation[0].violations == 2 * rounds

    @pytest.mark.parametrize("e", [5, 6, 7])
    def test_first_isolation_event_around_a_block_boundary(self, e, monkeypatch):
        # round e = 5, 6, 7 is the last, first and last round of a 2-round
        # block, and the last, first and middle round of a 3-round block
        trace = self.assert_blocks_match_step(pulse_config(e, 3 * e), (1, 2, 3, e, e + 1),
                                              monkeypatch)
        assert trace.isolation[0].first == (e, 0, 2.5)

    @pytest.mark.parametrize("e", [5, 6, 7])
    def test_reorder_around_a_block_boundary(self, e, monkeypatch):
        cfg = jump_config(e, 3 * e)
        trace = self.assert_blocks_match_step(cfg, (1, 2, 3, e, e + 1), monkeypatch)
        assert trace.isolation[0].ok
        # against a script that holds 100, the legitimate values agree up to
        # round e and first differ in round e + 1, from round e's medians
        held = self.assert_blocks_match_step(jump_config(e, 3 * e, low=100.0), (2, 3),
                                             monkeypatch)
        assert np.array_equal(trace.values[: e + 1, :4], held.values[: e + 1, :4])
        assert not np.array_equal(trace.values[e + 1, :4], held.values[e + 1, :4])

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_buffer_doubling_around_a_block_boundary(self, block, monkeypatch):
        # first chunks of `chunk` rows double when a flush needs row `chunk`:
        # at a block boundary, one round before it and one after
        base = boundary_configs()["scripted"]
        n, k = base.graph.n, fixed_point(base)
        cfg = replace(base, rounds=k + 20)
        want = run(cfg)
        monkeypatch.setattr("commca.protocol._ROUND_BLOCK", block)
        for chunk in (2, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1, k, k + 1):
            monkeypatch.setattr("commca.protocol._CHUNK_CELLS", max(chunk, 2) * n)
            trace = assert_run_matches_step(cfg)
            assert np.array_equal(trace.head.view(np.uint64), want.head.view(np.uint64))
            assert trace.isolation == want.isolation
            assert_trace_matches_reference(trace)

    def test_runs_shorter_than_one_block(self, monkeypatch):
        # a block never holds more rounds than the run: 1 and 2 rounds under
        # blocks of 3, 5 rounds under the default, and a fixed point at round
        # 1 inside a run of 40
        still = SimulationConfig(complete_graph(5), CommunityLayout([range(5)]),
                                 PresetValues((3.0,) * 5), None, 0.5, 40, 0)
        for cfg, block in ((star_config(), 64), (replace(star_config(), rounds=1), 3),
                           (replace(star_config(), rounds=2), 3),
                           (pulse_config(1, 2), 3), (still, 3)):
            self.assert_blocks_match_step(cfg, (block,), monkeypatch)
        assert (run(still).last_distinct, run(still).repeats) == (0, 40)


class TestRun:
    def test_row_count_and_initial_row(self):
        cfg = star_config()
        trace = run(cfg)
        assert trace.values.shape == (6, 4)
        assert trace.rounds == 5
        assert tuple(trace.values[0]) == (10.0, 0.0, 20.0, 40.0)

    def test_rows_are_read_only(self):
        trace = run(star_config())
        with pytest.raises(ValueError):
            trace.values[0, 0] = 99.0

    def test_same_config_reruns_identically(self):
        rng = random.Random(8)
        cfg = random_config(rng, rounds=30)
        assert run(cfg).to_csv_text() == run(cfg).to_csv_text()

    def test_value_accessor(self):
        trace = run(star_config())
        assert trace.value(0, 3) == 40.0
        assert trace.final_values().shape == (4,)

    def test_trace_beyond_physical_memory_refused_up_front(self, monkeypatch):
        # 6 rows of 4 float64 values; an 8-byte index and a 2-byte rank per
        # entry of the padded rows of widths 4, 1, 1, 1 (degrees 3, 1, 1, 1);
        # per row, 16 bytes of middle-entry places in the row buffer, 4 of
        # their ranks and 16 of their places in the values; per agent, 16
        # bytes of middle-entry places, 16 of their values, an 8-byte update
        # term, 16 bytes of interval bounds, an 8-byte event count, an 8-byte
        # first event round and its 8-byte median, 16 bytes of its value in
        # two rows' bytes, and an 8-byte median and two 1-byte flags for each
        # of the 5 rounds of a block; per value (4 agents and the pad), the
        # 8-byte value, an 8-byte place in the order, a 2-byte rank, an 8-byte
        # owner, an 8-byte value in the order and a 1-byte flag; and an 8-byte
        # place per entry of the 6 CSR entries
        need = (6 * 4 * 8 + (4 + 1 + 1 + 1) * (8 + 2) + 4 * (16 + 4 + 16)
                + 4 * (16 + 16 + 8 + 16 + 8 + 8 + 8 + 16 + 5 * 10)
                + 5 * (8 + 8 + 2 + 8 + 8 + 1) + 6 * 8)
        assert need == 1213
        monkeypatch.setattr("commca.graph.physical_memory", lambda: need - 1)
        with pytest.raises(MemoryError, match="5-round trace of 4 agents"):
            run(star_config())
        monkeypatch.setattr("commca.graph.physical_memory", lambda: need)
        assert run(star_config()).rounds == 5

    def test_memory_guard_counts_each_row_at_its_own_width(self, monkeypatch):
        # a 1000-leaf star: the hub's row is 1024 wide and every leaf's 1, so
        # the padded rows take 2024 entries, not 1001 rows of the hub's width;
        # each entry holds an index and a 2-byte rank, each row 36 bytes,
        # each agent 146 (5-round blocks), each of the 1002 values 35 (as in
        # the test above), and each of the 2000 CSR entries a place
        g = Graph(1001, [(0, v) for v in range(1, 1001)])
        cfg = SimulationConfig(g, CommunityLayout([range(1001)]),
                               PresetValues(tuple(float(u % 7) for u in range(1001))), None, 0.5, 5, 0)
        need = (6 * 1001 * 8 + (1024 + 1000 * 1) * (8 + 2) + 1001 * 36 + 1001 * 146
                + 1002 * 35 + 2000 * 8)
        assert need == 301_540
        monkeypatch.setattr("commca.graph.physical_memory", lambda: need - 1)
        with pytest.raises(MemoryError):
            run(cfg)
        monkeypatch.setattr("commca.graph.physical_memory", lambda: need)
        assert run(cfg).rounds == 5

    def test_memory_guard_grows_by_one_trace_row_per_round(self, monkeypatch):
        # from 64 rounds on, a block holds 64 rounds whatever the round
        # count, so each more round adds only its trace row of 4 float64
        # values to the star's terms itemised two tests above: 65 trace rows
        # and 64-round blocks at 64 rounds
        cfg = replace(star_config(), rounds=64)
        need = (65 * 4 * 8 + 7 * 10 + 4 * 36 + 4 * (96 + 64 * 10)
                + 5 * 35 + 6 * 8)
        assert need == 5461
        for rounds, bound in ((64, need), (65, need + 8 * 4), (200, need + 136 * 8 * 4)):
            cfg = replace(cfg, rounds=rounds)
            monkeypatch.setattr("commca.graph.physical_memory", lambda: bound - 1)
            with pytest.raises(MemoryError, match=f"{rounds}-round trace of 4 agents"):
                run(cfg)
            monkeypatch.setattr("commca.graph.physical_memory", lambda: bound)
            assert run(cfg).rounds == rounds


class TestMagnitudeBound:
    def overflow_config(self, big):
        # all legitimate; agents 2 and 5 each see three values of one sign
        # and agent 6, so their even medians add two values of size `big`
        g = Graph(9, [(0, 2), (1, 2), (2, 7), (2, 6), (3, 5), (4, 5), (5, 8), (5, 6)])
        vals = (big, big, 0.0, -big, -big, 0.0, 0.0, big, -big)
        return SimulationConfig(
            g, CommunityLayout([range(9)]), PresetValues(vals), None, 0.9, 60, 0
        )

    def test_initial_values_beyond_the_bound_rejected(self):
        with pytest.raises(ConfigError, match=r"beyond 1e300: agents \[0, 1, 3, 4, 7, 8\]"):
            run(self.overflow_config(1.7e308))

    def test_run_at_the_bound_stays_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = assert_run_matches_step(self.overflow_config(MAX_MAGNITUDE))
            verdict = rac_verdict(trace)
        assert np.isfinite(trace.values).all()
        # agent 2's first median is (1e300 + 1e300) / 2
        assert trace.values[1, 2] == 0.9 * 0.0 + (1.0 - 0.9) * MAX_MAGNITUDE
        assert not verdict.all_pass


class TestValidation:
    def test_alpha_must_be_interior(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            cfg = star_config(alpha=alpha)
            with pytest.raises(ConfigError, match="alpha"):
                run(cfg)

    def test_rounds_must_be_positive(self):
        cfg = star_config()
        bad = SimulationConfig(
            cfg.graph, cfg.layout, cfg.initializer, None, cfg.alpha, 0, 0
        )
        with pytest.raises(ConfigError, match="round count"):
            run(bad)

    def test_isolated_legitimate_agent_named(self):
        g = Graph(3, [(0, 1)])
        layout = CommunityLayout([range(3)])
        cfg = SimulationConfig(g, layout, PresetValues((0.0, 0.0, 0.0)), None, 0.5, 3, 0)
        with pytest.raises(ConfigError, match=r"\[2\]"):
            run(cfg)

    def test_isolated_malicious_agent_allowed(self):
        g = Graph(3, [(0, 1)])
        layout = CommunityLayout([range(3)], malicious={2})
        cfg = SimulationConfig(
            g, layout, PresetValues((0.0, 0.0, 60.0)), ConstantValue(60.0), 0.5, 3, 0
        )
        assert run(cfg).rounds == 3

    def test_malicious_without_adversary_rejected(self):
        g = complete_graph(3)
        layout = CommunityLayout([range(3)], malicious={2})
        cfg = SimulationConfig(g, layout, PresetValues((0.0,) * 3), None, 0.5, 3, 0)
        with pytest.raises(ConfigError, match="adversary"):
            run(cfg)

    def test_layout_must_cover_graph(self):
        g = complete_graph(3)
        layout = CommunityLayout([{0, 1}])
        cfg = SimulationConfig(g, layout, PresetValues((0.0,) * 3), None, 0.5, 3, 0)
        with pytest.raises(ConfigError):
            run(cfg)

    def test_all_problems_collected(self):
        g = complete_graph(3)
        layout = CommunityLayout([range(3)], malicious={2})
        cfg = SimulationConfig(g, layout, None, None, 2.0, 0, 0)
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert len(info.value.problems) == 4

    def test_preset_length_mismatch_rejected(self):
        g = complete_graph(3)
        layout = CommunityLayout([range(3)])
        cfg = SimulationConfig(g, layout, PresetValues((1.0, 2.0)), None, 0.5, 3, 0)
        with pytest.raises(ValueError):
            run(cfg)

    def test_initializer_of_the_wrong_shape_rejected(self):
        class TwoColumns:
            def initial_values(self, graph, layout, seed):
                return np.zeros((graph.n, 2))

        cfg = SimulationConfig(complete_graph(3), CommunityLayout([range(3)]), TwoColumns(),
                               None, 0.5, 3, 0)
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert info.value.problems == ["initializer produced shape (3, 2), expected (3,)"]

    def test_table_entry_of_legitimate_agent_rejected(self):
        g = complete_graph(3)
        layout = CommunityLayout([range(3)], malicious={2})
        adv = PerNeighborTable({(2, 0): 5.0, (1, 0): 5.0}, 0.0)
        cfg = SimulationConfig(g, layout, PresetValues((0.0,) * 3), adv, 0.5, 3, 0)
        with pytest.raises(ConfigError, match=r"\[\(1, 0\)\]"):
            run(cfg)

    def test_table_entry_off_the_graph_edges_rejected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        layout = CommunityLayout([range(4)], malicious={3})
        adv = PerNeighborTable({(3, 2): 5.0, (3, 0): 5.0, (3, 9): 1.0}, 0.0)
        cfg = SimulationConfig(g, layout, PresetValues((0.0,) * 4), adv, 0.5, 3, 0)
        with pytest.raises(ConfigError, match=r"\[\(3, 0\), \(3, 9\)\]"):
            run(cfg)

    def test_table_entries_beyond_the_graph_rejected_with_the_layout(self):
        # the layout names agent 5 of a 4-agent graph, so the table check
        # meets ids that have no adjacency row, and a negative neighbor id
        g = complete_graph(4)
        layout = CommunityLayout([range(4), {5}], malicious={3, 5})
        adv = PerNeighborTable({(5, 0): 1.0, (3, -1): 1.0, (3, 2): 1.0}, 0.0)
        cfg = SimulationConfig(g, layout, PresetValues((0.0,) * 4), adv, 0.5, 3, 0)
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert info.value.problems == [
            "community ids not in the graph: [5]",
            "table entries not on an edge from a malicious agent: [(3, -1), (5, 0)]",
        ]

    def test_non_finite_initial_values_rejected(self):
        g = complete_graph(3)
        layout = CommunityLayout([range(3)])
        cfg = SimulationConfig(
            g, layout, PresetValues((1.0, float("nan"), 2.0)), None, 0.5, 3, 0
        )
        with pytest.raises(ConfigError, match=r"\[1\]"):
            run(cfg)


class TestIsolationBookkeeping:
    def single_intruder_config(self):
        # K4 community with one inside malicious agent plus one external
        # malicious neighbor of agent 0; both present 60
        g = Graph(5, [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(0, 4)])
        layout = CommunityLayout([range(4), {4}], malicious={3, 4})
        init = PresetValues((2.0, 2.0, 2.0, 60.0, 60.0))
        return SimulationConfig(g, layout, init, ConstantValue(60.0), 0.9, 10, 0)

    def test_violations_counted_and_first_event_kept(self):
        trace = run(self.single_intruder_config())
        report = trace.isolation[0]
        assert not report.ok
        assert report.violations > 0
        # agent 0 sees (2, 2, 60, 60) at round 0: median 31 leaves [2, 2]
        assert report.first == (0, 0, 31.0)

    def test_community_without_legitimate_members_skipped(self):
        trace = run(self.single_intruder_config())
        report = trace.isolation[1]
        assert report.ok and report.first is None
        assert trace.initial_interval(1) is None

    def test_clean_community_reports_zero(self):
        g = complete_graph(9)
        layout = CommunityLayout([range(9)], malicious={7, 8})
        cfg = SimulationConfig(
            g,
            layout,
            PresetValues(tuple(float(u) for u in range(7)) + (60.0, 60.0)),
            ConstantValue(60.0),
            0.9,
            50,
            0,
        )
        trace = run(cfg)
        assert trace.isolation[0].ok

    def test_reports_match_medians_recomputed_from_the_trace(self):
        rng = random.Random(14)
        events = sum(assert_reports_match_medians(run(random_config(rng, rounds=15)))
                     for _ in range(60))
        assert events > 100

    def test_initial_interval_leaves_out_malicious_members(self):
        # agent 3 starts at 60 inside community 0
        trace = run(self.single_intruder_config())
        assert trace.initial_interval(0) == (2.0, 2.0)


MAKE_STRATEGY = [
    lambda bad: ConstantValue(bad),
    lambda bad: RoundScript((60.0, bad)),
    lambda bad: PerNeighborTable({}, bad),
    lambda bad: PerNeighborTable({(2, 0): 1.0, (2, 1): bad}, 0.0),
]


class TestStrategies:
    def test_round_script_holds_last_value(self):
        script = RoundScript((1.0, 2.0))
        assert script.present(0, 1, 0) == 1.0
        assert script.present(0, 1, 1) == 2.0
        assert script.present(0, 1, 99) == 2.0

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            RoundScript(())

    def test_constant_strategy(self):
        c = ConstantValue(60.0)
        assert c.present(0, 1, 5) == 60.0 == c.displayed(0, 5)
        assert c.overrides == {}

    def test_table_falls_back_to_default(self):
        adv = PerNeighborTable({(2, 0): 1.0}, -9.0)
        assert adv.present(2, 0, 0) == 1.0
        assert adv.present(2, 1, 0) == -9.0
        assert adv.displayed(2, 0) == -9.0
        assert adv.overrides == {(2, 0): 1.0}

    def test_strategies_that_behave_alike_compare_equal(self):
        assert RoundScript((5.0,)) == ConstantValue(5.0) == PerNeighborTable({}, 5.0)
        assert ConstantValue(5.0) != RoundScript((5.0, 5.5))
        assert PerNeighborTable({(2, 0): 1.0}, 5.0) != ConstantValue(5.0)
        assert hash(ConstantValue(1.0)) == hash(AdversaryStrategy((1.0,)))
        assert hash(PerNeighborTable({(2, 0): 1.0}, 5.0)) == hash(ConstantValue(5.0))

    def test_overrides_are_copied(self):
        entries = {(2, 0): 1.0}
        adv = PerNeighborTable(entries, 5.0)
        entries[2, 0] = float("nan")
        assert adv.overrides == {(2, 0): 1.0}

    def test_overrides_need_a_single_value_script(self):
        with pytest.raises(ValueError, match="single-value script"):
            AdversaryStrategy((1.0, 2.0), {(2, 0): 1.0})

    @pytest.mark.parametrize("make", MAKE_STRATEGY)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, make, bad):
        with pytest.raises(ValueError, match="must be finite"):
            make(bad)

    @pytest.mark.parametrize("make", MAKE_STRATEGY)
    def test_values_beyond_the_bound_rejected(self, make):
        for bad in (1.7976931348623157e308, -1e301, np.nextafter(MAX_MAGNITUDE, np.inf)):
            with pytest.raises(ValueError, match="must be finite and at most 1e300"):
                make(bad)
        make(MAX_MAGNITUDE)
        make(-MAX_MAGNITUDE)


# adversary values are bounded by MAX_MAGNITUDE; the bound itself is drawn often
finite = st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE, width=64)
pairs = st.tuples(st.integers(0, 6), st.integers(0, 6))


@st.composite
def adversaries(draw):
    kind = draw(st.sampled_from(["constant", "script", "table"]))
    if kind == "constant":
        value = draw(finite)
        return ConstantValue(value), lambda v, u, t: value
    if kind == "script":
        values = tuple(draw(st.lists(finite, min_size=1, max_size=5)))
        return RoundScript(values), lambda v, u, t: values[min(t, len(values) - 1)]
    entries = draw(st.dictionaries(pairs, finite, max_size=10))
    default = draw(finite)
    return PerNeighborTable(entries, default), lambda v, u, t: entries.get((v, u), default)


class TestPresentLaw:
    """present(v, u, t) == overrides.get((v, u), displayed(v, t)), the law
    run() relies on, and equals each strategy's own definition."""

    @given(adversaries(), pairs, st.integers(0, 20))
    def test_present_is_override_or_displayed(self, made, pair, t):
        adv, expected = made
        v, u = pair
        assert adv.present(v, u, t) == adv.overrides.get((v, u), adv.displayed(v, t))
        assert adv.present(v, u, t) == expected(v, u, t)


SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
    1.7976931348623157e308, -1.7976931348623157e308, float("inf"), float("-inf"),
    0.1, 1 / 3, 60.0,
]


@st.composite
def traces(draw, repeat_last=False):
    n = draw(st.integers(1, 9))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    subsets = [[u for u in range(n) if labels[u] == k] for k in sorted(set(labels))]
    malicious = [u for u in range(n) if draw(st.booleans())]
    # every grid holds all the special values (signed zeros, subnormals,
    # infinities, extreme magnitudes), some arbitrary floats, and repeats
    pool = SPECIALS + draw(st.lists(st.floats(width=64), max_size=4))
    cells = draw(st.permutations(pool + draw(st.lists(st.sampled_from(pool), max_size=30))))
    rows = -(-len(cells) // n)
    pad = rows * n - len(cells)
    cells += draw(st.lists(st.sampled_from(pool), min_size=pad, max_size=pad))
    values = np.array(cells, dtype=np.float64).reshape(rows, n)
    if repeat_last:
        # 1-20 copies of the last row follow it; half the time the row before
        # the copies differs from them only in the sign of one zero
        last = values[-1].copy()
        if draw(st.booleans()):
            u = draw(st.integers(0, n - 1))
            last[u] = draw(st.sampled_from([0.0, -0.0]))
            values[-1, u] = -last[u]
        values = np.vstack([values, np.tile(last, (draw(st.integers(1, 20)), 1))])
    cfg = SimulationConfig(
        Graph(n), CommunityLayout(subsets, malicious), PresetValues((0.0,) * n), None, 0.5, 1, 0
    )
    return Trace(values, cfg, (), ())


class TestTraceCsv:
    @settings(max_examples=300)
    @given(traces())
    def test_text_matches_reference_writer(self, trace):
        assert_same_bytes(trace.to_csv_text(), reference_csv_text(trace))

    @settings(max_examples=300)
    @given(traces(repeat_last=True))
    def test_repeated_rows_match_reference_writer_and_file(self, trace):
        text = trace.to_csv_text()
        assert_same_bytes(text, reference_csv_text(trace))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            trace.write_csv(path)
            with open(path, "rb") as fh:
                assert_same_bytes(fh.read(), text)

    def test_signed_zeros_keep_their_signs(self):
        cfg = SimulationConfig(
            Graph(2), CommunityLayout([range(2)]), PresetValues((0.0, 0.0)), None, 0.5, 1, 0
        )
        trace = Trace(np.array([[0.0, -0.0], [-0.0, 0.0]]), cfg, (), ())
        assert trace.to_csv_text().splitlines()[1:] == [
            "0,0,1,legitimate,0.0",
            "0,1,1,legitimate,-0.0",
            "1,0,1,legitimate,-0.0",
            "1,1,1,legitimate,0.0",
        ]

    def test_run_trace_matches_reference_and_file(self, tmp_path):
        rng = random.Random(9)
        for _ in range(5):
            trace = run(random_config(rng, rounds=20))
            text = trace.to_csv_text()
            assert_same_bytes(text, reference_csv_text(trace))
            trace.write_csv(tmp_path / "trace.csv")
            assert_same_bytes((tmp_path / "trace.csv").read_bytes(), text)

    def test_every_value_format_in_a_run_matches_reference_and_file(self, tmp_path):
        # a script of huge, tiny, 1e-5 and 1e17 values and initial values
        # below 1e-3 and near 1e16, so that the trace holds positive and
        # negative exponents of two and three digits and both positional forms
        cfg = SimulationConfig(
            complete_graph(5), CommunityLayout([range(5)], [3, 4]),
            PresetValues((0.00123, 1234567890123456.0, -42.0, 0.0, 0.0)),
            RoundScript((1e300, -1e-300, 1e-5, 1e17)), 0.5, 40, 0)
        trace = run(cfg)
        text = trace.to_csv_text()
        assert_same_bytes(text, reference_csv_text(trace))
        trace.write_csv(tmp_path / "trace.csv")
        assert_same_bytes((tmp_path / "trace.csv").read_bytes(), text)
        values = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
        for form in ("e+", "e-", "e+299", "e-05", "0.00", ".0", "-"):
            assert any(form in v for v in values), form
        assert any("e" not in v and not v.endswith(".0") for v in values)

    @staticmethod
    def grid_trace(values, malicious=()):
        n = values.shape[1]
        cfg = SimulationConfig(Graph(n), CommunityLayout([range(n)], malicious),
                               PresetValues((0.0,) * n), None, 0.5, 1, 0)
        return Trace(values, cfg, (), ())

    @pytest.mark.parametrize("rows,n,repeats,fit", [
        (5, 3, 11996, 10000),  # the repeats' round numbers cross 9->10 ... 9999->10000
        (5 * (_BLOCK_CELLS // 3) // 2, 3, 1, 10000),  # a head of 2.5 writer blocks
        (1, 3, 11, 10000),  # every row equals row 0
        (_BLOCK_CELLS + 7, 1, 120, 10000),  # a single agent
        # rows so wide that 10 or 100 of them fill the repeats' buffer: the
        # repeats cross 9->10 and 99->100 from round 5, start mid-block at
        # round 13 (row 3 of a 10-row block) or 150 (row 50 of a 100-row
        # block) and cross 99->100 or 999->1000 there, or start on a block
        # boundary at round 200 and fill their last block to round 399
        (6, 2500, 100, 10),
        (14, 2500, 90, 10),
        (151, 250, 900, 100),
        (201, 250, 199, 100),
    ], ids=["tail-crosses-digit-counts", "head-over-blocks", "all-rows-repeat", "one-agent",
            "wide-rows-cross-digit-counts", "wide-rows-start-mid-block",
            "rows-start-mid-block-cross-999", "rows-fill-aligned-blocks"])
    def test_writer_edges_match_reference_and_file(self, rows, n, repeats, fit, tmp_path):
        # distinct rows, then copies of the last one
        values = np.arange(rows * n).reshape(rows, n) / 7
        trace = self.grid_trace(np.vstack([values, np.tile(values[-1], (repeats, 1))]),
                                malicious=[n - 1])
        text = trace.to_csv_text()
        assert_same_bytes(text, reference_csv_text(trace))
        trace.write_csv(tmp_path / "trace.csv")
        assert_same_bytes((tmp_path / "trace.csv").read_bytes(), text)
        # the largest power of ten of rows like the last distinct one that
        # fit in the 1 MB repeat buffer
        row_bytes = len("".join(
            line + "\n" for line in text.splitlines()[1 + (rows - 1) * n : 1 + rows * n]))
        assert 10 ** (len(str(8 * _CHUNK_CELLS // row_bytes)) - 1) == fit

    def test_writer_memory_stays_bounded(self, tmp_path):
        # the 5000-round example-1 file is 29 MB; the writer holds a block of
        # rows at a time, never the repeated tail or every head cell at once
        trace = run(example1(rounds=5000))
        tracemalloc.start()
        try:
            trace.write_csv(tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
