"""The theorem, checked on random certified communities.

Random graphs of two or three near-complete communities (5-9 agents each,
every external degree at most 2, at most two malicious agents in each) are
run for 1000 rounds at alpha 0.5.  Every community that is_community
certifies must keep its legitimate medians inside its initial legitimate
interval under any adversary, and reach agreement (a legitimate spread below
1e-6) when each malicious agent shows all its neighbors one value: a
constant, a round script, or a value read off the current state.  Per-neighbor
tables get no agreement claim: a certified K_6 splits under one
(tests/test_cli.py, TestEquivocationScope).
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from commca import (
    CommunityLayout,
    ConstantValue,
    Graph,
    PerNeighborTable,
    PresetValues,
    RoundScript,
    SimulationConfig,
    is_community,
    median,
    run,
    spread,
)

ROUNDS, ALPHA, AGREED = 1000, 0.5, 1e-6
VALUES = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def communities(draw):
    """A graph, its layout and its initial values: near-complete communities
    with a few cross edges, no agent with more than two of them."""
    sizes = draw(st.lists(st.integers(5, 9), min_size=2, max_size=3))
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    subsets = [range(a, b) for a, b in zip(starts, starts[1:])]
    edges = []
    for members in subsets:
        pairs = list(combinations(members, 2))
        dropped = draw(st.sets(st.sampled_from(pairs), max_size=len(members) // 2))
        edges += [e for e in pairs if e not in dropped]
    n, owner = starts[-1], [i for i, s in enumerate(subsets) for _ in s]
    cross = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    external = [0] * n
    for u, v in cross:
        u, v = min(u, v), max(u, v)
        if owner[u] != owner[v] and external[u] < 2 and external[v] < 2 and (u, v) not in edges:
            edges.append((u, v))
            external[u] += 1
            external[v] += 1
    malicious = set()
    for members in subsets:
        malicious |= draw(st.sets(st.sampled_from(members), max_size=2))
    layout = CommunityLayout(subsets, malicious)
    values = PresetValues(tuple(draw(st.lists(VALUES, min_size=n, max_size=n))))
    return Graph(n, edges), layout, values


def certified(g, layout):
    """The indices of the communities that is_community certifies."""
    return [i for i, s in enumerate(layout.subsets)
            if is_community(g, s, layout.malicious_count(i)).is_community]


@st.composite
def tables(draw, g, layout):
    """An equivocating adversary: a drawn value for each malicious agent and
    each of its neighbors."""
    keys = [(v, u) for v in sorted(layout.malicious) for u in g.neighbors(v)]
    entries = draw(st.lists(VALUES, min_size=len(keys), max_size=len(keys)))
    return PerNeighborTable(dict(zip(keys, entries)), draw(VALUES))


@settings(max_examples=150, deadline=None)
@given(communities(), st.data())
def test_certified_communities_are_isolated_and_agree(case, data):
    g, layout, values = case
    adversaries = {
        "constant": ConstantValue(data.draw(VALUES)),
        "script": RoundScript(data.draw(st.lists(VALUES, min_size=1, max_size=6))),
        "table": data.draw(tables(g, layout)),
    }
    for kind, adversary in adversaries.items():
        trace = run(SimulationConfig(g, layout, values, adversary, ALPHA, ROUNDS, 0))
        for i in certified(g, layout):
            assert trace.isolation[i].ok, (kind, i, trace.isolation[i])
            if kind != "table":
                assert spread(trace, i, ROUNDS) < AGREED, (kind, i)


# State-reading broadcast adversaries: every malicious agent shows all its
# neighbors one value, read off the current round's values of its community.
# An AdversaryStrategy is a fixed schedule, so these run in a loop of their own.
BROADCASTS = {
    "alternating": lambda t, legit: 1e3 if t % 2 else -1e3,
    "community maximum": lambda t, legit: max(legit),
    "mean plus or minus 1e3": lambda t, legit: sum(legit) / len(legit) + (1e3 if t % 2 else -1e3),
}


def broadcast_run(g, layout, x, show, rounds):
    """Rounds of the update rule in which malicious agent v shows
    show(t, legitimate values of its community at round t) to every neighbor.
    Returns the final values and, per community, whether some legitimate
    median left the community's initial legitimate interval."""
    own = [sorted(layout.legitimate_in(i)) for i in range(len(layout))]
    bounds = [(min(x[u] for u in m), max(x[u] for u in m)) for m in own]
    left = [False] * len(own)
    for t in range(rounds):
        shown = {v: show(t, [x[u] for u in own[layout.community_of(v)]])
                 for v in layout.malicious}
        nxt = list(x)
        for u in sorted(layout.legitimate):
            m = median(shown.get(v, x[v]) for v in g.neighbors(u))
            low, high = bounds[layout.community_of(u)]
            left[layout.community_of(u)] |= not low <= m <= high
            nxt[u] = ALPHA * x[u] + (1 - ALPHA) * m
        x = nxt
    return x, left


@settings(max_examples=10, deadline=None)
@given(communities())
def test_broadcast_adversaries_reading_the_state(case):
    g, layout, values = case
    for kind, show in BROADCASTS.items():
        final, left = broadcast_run(g, layout, list(values.values), show, ROUNDS)
        for i in certified(g, layout):
            legit = [final[u] for u in layout.legitimate_in(i)]
            assert not left[i], (kind, i)
            assert max(legit) - min(legit) < AGREED, (kind, i)
