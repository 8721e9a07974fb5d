"""Naive reference implementations used as oracles by the test suite.

Everything in this module favors directness over speed: plain Python sets,
exhaustive iteration, no bitmasks, no early exits.  The production code in
commca must agree with these on every instance small enough to enumerate.
"""

import itertools
import math
import random
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from commca import Graph, NormalDraw
from commca.protocol import AdversaryStrategy, StateVector, median


def naive_excess(g: Graph, u: int, subset: Set[int]) -> int:
    outside = sum(1 for v in g.neighbors(u) if v not in subset)
    inside = sum(1 for v in g.neighbors(u) if v in subset)
    return outside - inside


def naive_reachable(g: Graph, subset: Set[int], r: int) -> FrozenSet[int]:
    return frozenset(u for u in subset if naive_excess(g, u, subset) >= r)


def nonempty_subsets(ids: Iterable[int]) -> Iterator[FrozenSet[int]]:
    pool = sorted(ids)
    for k in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            yield frozenset(combo)


def naive_is_rs_robust(g: Graph, r: int, s: int) -> bool:
    subsets = list(nonempty_subsets(range(g.n)))
    for s1 in subsets:
        for s2 in subsets:
            if s1 & s2:
                continue
            x1 = naive_reachable(g, s1, r)
            x2 = naive_reachable(g, s2, r)
            if len(x1) + len(x2) >= s or x1 == s1 or x2 == s2:
                continue
            return False
    return True


def naive_is_r_robust(g: Graph, r: int) -> bool:
    subsets = list(nonempty_subsets(range(g.n)))
    for s1 in subsets:
        for s2 in subsets:
            if s1 & s2:
                continue
            if not naive_reachable(g, s1, r) and not naive_reachable(g, s2, r):
                return False
    return True


def reference_subset_table(masks: Sequence[int], r: int) -> Tuple[np.ndarray, np.ndarray]:
    """Reachable counts and fullness of all 2^n subsets, one member at a time.

    The per-member loop the exact engine used before it built its counts from
    tables over the two halves of each subset mask: member u adds one to
    every subset that contains it and holds at most (deg(u) - r) // 2 of its
    neighbors.  Index S is the subset with bitmask S.
    """
    n = len(masks)
    subsets = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.uint8)
    for u, nb in enumerate(masks):
        most_inside = (nb.bit_count() - r) // 2
        if most_inside < 0:
            continue
        with_u = subsets.reshape(-1, 2, 1 << u)[:, 1]
        reach = np.bitwise_count(with_u & nb) <= most_inside
        counts.reshape(-1, 2, 1 << u)[:, 1] += reach
    return counts, counts == np.bitwise_count(subsets)


def naive_preservation_holds(g: Graph, members: Iterable[int]) -> bool:
    """Exhaustive form of the reachability preservation property.

    For every nonempty subset S of the member set, every member whose excess
    inside the member subgraph meets the external-degree bound must keep a
    nonnegative excess in the full graph once any combination of its outside
    neighbors joins S.
    """
    member_set = set(members)
    kappa = g.max_external_degree(member_set)
    for s_sub in nonempty_subsets(member_set):
        for u in s_sub:
            inner = [v for v in g.neighbors(u) if v in member_set]
            inner_excess = sum(1 for v in inner if v not in s_sub) - sum(
                1 for v in inner if v in s_sub
            )
            if inner_excess < kappa:
                continue
            outside = [v for v in g.neighbors(u) if v not in member_set]
            for k in range(len(outside) + 1):
                for extra in itertools.combinations(outside, k):
                    grown = set(s_sub) | set(extra)
                    if naive_excess(g, u, grown) < 0:
                        return False
    return True


def reversed_order_step(
    state: StateVector,
    g: Graph,
    layout,
    alpha: float,
    adversary: AdversaryStrategy = None,
) -> StateVector:
    """Same semantics as commca.step but visiting agents in descending id order.

    Used to confirm that synchronous updates are order independent.
    """
    vals = state.values
    t = state.round
    out: dict = {}
    for u in reversed(range(g.n)):
        if layout.is_malicious(u):
            out[u] = adversary.displayed(u, t + 1)
            continue
        presented = []
        for v in g.neighbors(u):
            if layout.is_malicious(v):
                presented.append(adversary.present(v, u, t))
            else:
                presented.append(vals[v])
        out[u] = alpha * vals[u] + (1.0 - alpha) * median(presented)
    return StateVector(tuple(out[u] for u in range(g.n)), t + 1)


def loop_initial_values(spec, g: Graph, layout, seed: int) -> List[float]:
    """InitializerSpec.initial_values agent by agent in id order: one
    standard normal draw per normal agent, explicit values consumed in id
    order per community, the constant for malicious agents."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    consumed = [0] * len(layout)
    values = []
    for u in range(g.n):
        if layout.is_malicious(u):
            values.append(spec.malicious_value)
            continue
        i = layout.community_of(u)
        entry = spec.communities[i]
        if isinstance(entry, NormalDraw):
            values.append(entry.mean + math.sqrt(entry.variance) * rng.standard_normal())
        else:
            values.append(entry.values[consumed[i]])
            consumed[i] += 1
    return values

def naive_graph(
    n: int, edges: Iterable[Tuple[int, int]]
) -> "Tuple[FrozenSet[Tuple[int, int]], Tuple[Tuple[int, ...], ...]] | str":
    """What Graph(n, edges) holds, from a plain set of (low, high) pairs: the
    edge set and each agent's sorted neighbors, or, when some edge is bad,
    the message of the first bad one in input order."""
    kept: Set[Tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            return f"self-loop on agent {u}"
        if u not in range(n) or v not in range(n):
            return f"edge ({u}, {v}) outside agent range 0..{n - 1}"
        if (min(u, v), max(u, v)) in kept:
            return f"duplicate edge {(min(u, v), max(u, v))}"
        kept.add((min(u, v), max(u, v)))
    rows = tuple(
        tuple(sorted([b for a, b in kept if a == u] + [a for a, b in kept if b == u]))
        for u in range(n)
    )
    return frozenset(kept), rows


def naive_induced_subgraph(g: Graph, members: Iterable[int]) -> Tuple[Graph, Tuple[int, ...]]:
    """Subgraph on `members` from a filter over every edge of g, relabeled
    0..k-1 in ascending original id order, with the original ids."""
    nodes = tuple(sorted(set(members)))
    index = {u: i for i, u in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph(len(nodes), edges), nodes


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Random graph with a spanning path so no agent is isolated."""
    edges: Set[Tuple[int, int]] = {(u, u + 1) for u in range(n - 1)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def reference_csv_text(trace) -> str:
    """Trace CSV built one f-string per cell; Trace.to_csv_text must match it."""
    layout = trace.config.layout
    community = [layout.community_of(u) + 1 for u in range(trace.values.shape[1])]
    role = [
        "malicious" if layout.is_malicious(u) else "legitimate"
        for u in range(trace.values.shape[1])
    ]
    lines = ["round,agent,community,role,value"]
    for t in range(trace.values.shape[0]):
        row = trace.values[t]
        lines.extend(
            f"{t},{u},{community[u]},{role[u]},{float(row[u])!r}"
            for u in range(trace.values.shape[1])
        )
    return "\n".join(lines) + "\n"
