"""Exact checkers for excess-reachability and excess-robustness predicates.

The excess of an agent u with respect to a set S containing it is the number
of u's neighbors outside S minus the number inside S.  A set is r-excess
reachable when some member has excess at least r.  A graph is (r, s)-excess
robust when for every pair of non-empty disjoint agent subsets (S1, S2), with
X_i the members of S_i whose excess is at least r, at least one of the
following holds: |X1| + |X2| >= s, X1 = S1, or X2 = S2.  The plain r-excess
robust predicate asks instead that at least one of the two subsets be
r-excess reachable; it coincides with the s = 1 variant.

X(S) depends on S alone, so a pair violates the clauses iff both sides are
non-full and c(S1) + c(S2) < s, with c = |X|.  The checkers tabulate c and
fullness for all 2^n subsets, take a subset-minimum (zeta) transform of c
over the non-full subsets (Bjorklund, Husfeldt, Kaski, Koivisto, STOC 2007),
and test each S1 against the best partner inside its complement.  That takes
O(n * 2^n) time and a few 2^n-entry arrays of memory: on one core of an Intel
Xeon, a G(n, 0.85) graph takes 0.03 s and 8 MiB of arrays at n = 20, and
0.2 s and 48 MiB at n = 22.  A graph whose tables would exceed physical
memory is refused with MemoryError before any is allocated.  Checks are
capped by default at n = 22 agents (cap=None here, COMMCA_CAP or --force on
the command line, change it).  The community predicate first tries a
minimum-degree bound that decides many communities at any size (see
is_community); it reads the members' degrees off the whole graph and builds
the induced subgraph only when the bound leaves the question open or a
complete community needs its witness.  Negative verdicts carry a
machine-checkable witness pair.

Reachability preservation (Proposition 1) follows from one line of algebra,
so it is certified in closed form at any community size and needs no cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import graph
from .graph import Graph

DEFAULT_ENUMERATION_CAP = 22


class EnumerationCapExceeded(RuntimeError):
    """Raised when an exhaustive check would enumerate beyond the size cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(
            f"exhaustive enumeration over {size} agents exceeds the cap of {cap}; "
            f"raise the cap (COMMCA_CAP) or force the check to proceed"
        )
        self.size = size
        self.cap = cap


@dataclass(frozen=True, eq=True)
class ReachabilityReport:
    """Excess bookkeeping for one subset at one threshold.

    reachable holds the members whose excess meets the threshold, and
    excess_by_agent records the excess of every member.
    """

    subset: frozenset[int]
    threshold: int
    reachable: frozenset[int]
    excess_by_agent: Mapping[int, int]

    @property
    def is_reachable(self) -> bool:
        return bool(self.reachable)

    @property
    def is_full(self) -> bool:
        return self.reachable == self.subset


@dataclass(frozen=True, eq=True)
class PairEvaluation:
    """Clause-by-clause evaluation of one disjoint subset pair at (r, s)."""

    first: ReachabilityReport
    second: ReachabilityReport
    s: int

    @property
    def reachable_total(self) -> int:
        return len(self.first.reachable) + len(self.second.reachable)

    @property
    def count_clause(self) -> bool:
        return self.reachable_total >= self.s

    @property
    def satisfied(self) -> bool:
        return self.count_clause or self.first.is_full or self.second.is_full


@dataclass(frozen=True, eq=True)
class RobustnessWitness:
    """Outcome of a robustness check.

    When robust is False, reports describe one violating disjoint subset
    pair; re-evaluating the clauses on that pair reproduces the violation.
    s is None for the plain r-excess robust predicate.
    """

    robust: bool
    r: int
    s: int | None
    reports: tuple[ReachabilityReport, ReachabilityReport] | None = None

    @property
    def pair(self) -> tuple[frozenset[int], frozenset[int]] | None:
        """The violating pair's subsets, or None for a robust verdict."""
        if self.robust:
            return None
        return self.reports[0].subset, self.reports[1].subset


@dataclass(frozen=True, eq=True)
class CommunityCheck:
    """Outcome of the community predicate for one candidate member set.

    A set V with f malicious members and external degree bound k (the largest
    number of edges a member has to the outside) qualifies when its induced
    subgraph is (k, f+1)-excess robust and its induced minimum degree is at
    least 2f + k + 1.  reasons lists the failed clauses, drawn from
    {"robustness", "degree"}.  witness is the violating pair when the
    robustness clause fails, else None; certified_analytically marks a
    clause decided without the engine.  robust is None when the robustness
    clause was left undecided: the degree clause fails and the induced
    subgraph is over the enumeration cap.  A qualifying community keeps its
    legitimate medians inside its initial interval against any adversary,
    but reaches agreement for certain only when each malicious agent shows
    all its neighbors one value.
    """

    members: frozenset[int]
    malicious_count: int
    external_degree: int
    robust: bool | None
    min_degree: int
    required_degree: int
    reasons: tuple[str, ...]
    witness: RobustnessWitness | None
    certified_analytically: bool

    @property
    def is_community(self) -> bool:
        return not self.reasons


@dataclass(frozen=True, eq=True)
class PreservationResult:
    ok: bool
    mode: str
    threshold: int
    subsets_checked: int


def excess(g: Graph, u: int, inside: Iterable[int]) -> int:
    """Neighbors of u outside `inside` minus neighbors inside.  u must be a member."""
    members = frozenset(int(x) for x in inside)
    bad = [x for x in members if not (0 <= x < g.n)]
    if bad:
        raise ValueError(f"member ids outside 0..{g.n - 1}: {sorted(bad)}")
    if u not in members:
        raise ValueError(f"agent {u} is not a member of the set")
    nbrs = g.neighbors(u)
    inside_count = sum(1 for v in nbrs if v in members)
    return (len(nbrs) - inside_count) - inside_count


def reachable_set(g: Graph, members: Iterable[int], threshold: int) -> ReachabilityReport:
    """Members whose excess with respect to the member set meets `threshold`."""
    subset = frozenset(int(x) for x in members)
    if not subset:
        raise ValueError("member set must be non-empty")
    by_agent = {u: excess(g, u, subset) for u in sorted(subset)}
    reach = frozenset(u for u, e in by_agent.items() if e >= threshold)
    return ReachabilityReport(subset, threshold, reach, by_agent)


def evaluate_pair(
    g: Graph, first: Iterable[int], second: Iterable[int], r: int, s: int
) -> PairEvaluation:
    """Evaluate the (r, s) clauses on one explicit pair of disjoint subsets.

    This is the re-checking path for witnesses: it shares no state with the
    subset-table checkers.
    """
    a = frozenset(int(x) for x in first)
    b = frozenset(int(x) for x in second)
    if not a or not b:
        raise ValueError("both subsets must be non-empty")
    if a & b:
        raise ValueError(f"subsets are not disjoint: share {sorted(a & b)}")
    if s < 1:
        raise ValueError("s must be at least 1")
    return PairEvaluation(reachable_set(g, a, r), reachable_set(g, b, r), s)


def _all_subsets(n: int) -> np.ndarray:
    dtype = np.min_scalar_type((1 << n) - 1)
    # The indices, a temporary as wide, and about six one-byte tables are alive
    # at once; refuse before allocating any of them when RAM cannot hold them.
    if (1 << n) * (2 * dtype.itemsize + 6) > graph.physical_memory():
        raise MemoryError
    return np.arange(1 << n, dtype=dtype)


def _subset_table(masks: tuple[int, ...], r: int) -> tuple[np.ndarray, np.ndarray]:
    """Reachable counts c(S) = |X(S)| and fullness for all 2^n subset masks.

    Index S of each array is the subset with bitmask S.  The empty set counts
    as full, so ~full marks exactly the non-empty, non-full subsets.
    """
    n = len(masks)
    subsets = _all_subsets(n)
    counts = np.zeros(1 << n, dtype=np.uint8)
    for u, nb in enumerate(masks):
        # excess = deg - 2 * inside >= r  <=>  inside <= (deg - r) // 2
        most_inside = (nb.bit_count() - r) // 2
        if most_inside < 0:
            continue
        # the subsets containing u are the upper halves of blocks of 2^(u+1)
        with_u = subsets.reshape(-1, 2, 1 << u)[:, 1]
        reach = np.bitwise_count(with_u & nb) <= most_inside
        counts.reshape(-1, 2, 1 << u)[:, 1] += reach
    return counts, counts == np.bitwise_count(subsets)


def _violating_pair(masks: tuple[int, ...], r: int, s: int) -> tuple[int, int] | None:
    # A disjoint pair violates (r, s) iff both sides are non-full and
    # c(S1) + c(S2) < s.  best[M] is the least c over non-full S within M, so
    # S1 has a partner iff c(S1) + best[~S1] < s, and ~S1 is index 2^n-1-S1.
    n = len(masks)
    try:
        counts, full = _subset_table(masks, r)
        s = min(s, n + 1)  # c(S1) + c(S2) <= n, and n + 1 keeps uint8 sums exact
        best = counts.copy()
        best[full] = n + 1
        for i in range(n):
            halves = best.reshape(-1, 2, 1 << i)
            np.minimum(halves[:, 1], halves[:, 0], out=halves[:, 1])
        fails = ~full & (counts + best[::-1] < s)
        first = int(np.argmax(fails))
        if not fails[first]:
            return None
        disjoint = (_all_subsets(n) & first) == 0
        second = int(np.argmax(~full & disjoint & (counts < s - int(counts[first]))))
    except MemoryError:
        raise MemoryError(f"cannot tabulate all {1 << n} subsets of {n} agents") from None
    return first, second


def _mask_ids(mask: int) -> frozenset[int]:
    ids = []
    while mask:
        low = mask & -mask
        mask ^= low
        ids.append(low.bit_length() - 1)
    return frozenset(ids)


def _decide(
    g: Graph, r: int, s: int, cap: int | None, label: int | None
) -> RobustnessWitness:
    if r < 0:
        raise ValueError("r must be non-negative")
    if s < 1:
        raise ValueError("s must be at least 1")
    if cap is not None and g.n > cap:
        raise EnumerationCapExceeded(g.n, cap)
    pair = _violating_pair(g.neighbor_masks(), r, s)
    if pair is None:
        return RobustnessWitness(True, r, label)
    return _violation(g, _mask_ids(pair[0]), _mask_ids(pair[1]), r, s, label)


def _violation(
    g: Graph, a: Iterable[int], b: Iterable[int], r: int, s: int, label: int | None
) -> RobustnessWitness:
    ev = evaluate_pair(g, a, b, r, s)
    return RobustnessWitness(False, r, label, (ev.first, ev.second))


def is_rs_excess_robust(
    g: Graph, r: int, s: int, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> RobustnessWitness:
    """Decide (r, s)-excess robustness over all 2^n subsets.

    Empty and singleton graphs are vacuously robust (no disjoint pair
    exists).  Pass cap=None to lift the size cap.
    """
    return _decide(g, r, s, cap, s)


def is_r_excess_robust(
    g: Graph, r: int, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> RobustnessWitness:
    """Decide r-excess robustness: every disjoint pair must have a reachable side.

    This is the s = 1 case; the witness carries s=None to name the plain form.
    """
    return _decide(g, r, 1, cap, None)


def complete_rs_certificate(n: int, r: int, s: int) -> bool:
    """Closed-form (r, s)-excess robustness verdict for the complete graph K_n.

    This is is_community's minimum-degree bound at delta = n - 1: K_n is
    robust iff 2k > n, k = max(1, floor((n - 1 - r) / 2) + 2).  Members of a
    k-subset of K_n have excess n - 2k + 1, and k is the least size where that
    falls below r, so two disjoint k-subsets fail whatever s is (their
    reachable count is zero), and no pair fails when they do not fit.
    """
    if n < 2:
        raise ValueError("the certificate applies to complete graphs on n >= 2 agents")
    if r < 0:
        raise ValueError("r must be non-negative")
    if s < 1:
        raise ValueError("s must be at least 1")
    return 2 * _least_non_full_size(n - 1, r) > n


def _least_non_full_size(min_degree: int, r: int) -> int:
    # a member u of a non-full S has more than (deg(u) - r) / 2 neighbors in S
    return max(1, (min_degree - r) // 2 + 2)


def is_community(
    g: Graph,
    members: Iterable[int],
    malicious_count: int,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> CommunityCheck:
    """Community predicate: induced robustness plus the induced degree bound.

    The robustness clause runs on the induced subgraph at threshold r equal
    to the member set's external degree bound, with required count
    malicious_count + 1.  A member u of a non-full subset S has excess
    deg(u) - 2 in_S(u) < r, so |S| >= k = max(1, floor((delta - r) / 2) + 2)
    for induced minimum degree delta.  When 2k > |V| no two disjoint non-full
    subsets fit and the clause holds at any size.  Otherwise a complete
    induced subgraph fails on its first two k-sets, at any size, and any other
    goes to the engine under the cap.  Past the cap, a member set that fails
    the degree clause gets a degree-only verdict (robust is None) instead of
    EnumerationCapExceeded.  witness is in original ids.

    Each member's external degree and induced degree (its degree less the
    external part) come from one pass over the members' adjacency rows, and
    delta and completeness (delta = |V| - 1) are read off them.  The induced
    subgraph is built only when 2k <= |V|, for the engine or the complete
    graph's witness.
    """
    if malicious_count < 0:
        raise ValueError("malicious count must be non-negative")
    outside = g.external_degrees(members)
    nodes = tuple(sorted(outside))
    ext = max(outside.values())
    dmin = min(g.degree(u) - e for u, e in outside.items())  # induced degrees
    required = 2 * malicious_count + ext + 1
    s = malicious_count + 1
    k = _least_non_full_size(dmin, ext)
    analytic = 2 * k > len(nodes) or dmin == len(nodes) - 1
    witness = None
    robust: bool | None = True
    if 2 * k <= len(nodes):
        if not analytic and dmin < required and cap is not None and len(nodes) > cap:
            robust = None  # the degree clause already fails; enumeration is not needed
        else:  # in a complete graph every k-set is non-full, none reachable
            sub = g.induced_subgraph(nodes).graph
            found = (_violation(sub, range(k), range(k, 2 * k), ext, s, s) if analytic
                     else is_rs_excess_robust(sub, ext, s, cap=cap))
            witness = None if found.robust else _translate_witness(found, nodes)
            robust = witness is None
    reasons = []
    if witness is not None:
        reasons.append("robustness")
    if dmin < required:
        reasons.append("degree")
    return CommunityCheck(
        members=frozenset(nodes),
        malicious_count=malicious_count,
        external_degree=ext,
        robust=robust,
        min_degree=dmin,
        required_degree=required,
        reasons=tuple(reasons),
        witness=witness,
        certified_analytically=analytic,
    )


def _translate_witness(w: RobustnessWitness, nodes: tuple[int, ...]) -> RobustnessWitness:
    # Witnesses found on an induced subgraph are reported in original ids.
    def back(ids: frozenset[int]) -> frozenset[int]:
        return frozenset(nodes[i] for i in ids)
    reports = tuple(
        ReachabilityReport(back(rep.subset), rep.threshold, back(rep.reachable),
                           {nodes[u]: e for u, e in rep.excess_by_agent.items()})
        for rep in w.reports
    )
    return RobustnessWitness(w.robust, w.r, w.s, reports)


def verify_reachability_preservation(
    g: Graph,
    members: Iterable[int],
    mode: str = "exhaustive",
    samples: int = 10_000,
    seed: int = 0,
) -> PreservationResult:
    """Certify that community-level reachability survives external neighbors.

    For subsets S of the member set, every agent u whose excess e_in inside
    the community subgraph meets the external degree bound k must keep
    non-negative whole-graph excess with respect to S extended by any set E
    of its external neighbors.  It always does: that excess is
    e_in + (ext(u) - |E|) - |E| >= e_in - ext(u) >= k - ext(u) >= 0.  So the
    property holds for every member set, and the result reports the subsets
    the proof covers: all 2^m - 1 non-empty ones of m members in exhaustive
    mode, `samples` of them in sampled mode.  `ok` is always True, and
    `seed` is accepted for compatibility and draws nothing.
    """
    degrees = g.external_degrees(members)
    if mode == "exhaustive":
        covered = (1 << len(degrees)) - 1
    elif mode == "sampled":
        if samples < 1:
            raise ValueError("sample count must be positive")
        covered = samples
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'exhaustive' or 'sampled'")
    return PreservationResult(True, mode, max(degrees.values()), covered)


def format_witness(w: RobustnessWitness) -> str:
    """Structured text rendering of a robustness verdict and its witness."""
    kind = f"({w.r}, {w.s})-excess robust" if w.s is not None else f"{w.r}-excess robust"
    if w.robust:
        return f"robust: yes ({kind})\n"
    lines = [f"robust: no (not {kind})"]
    first, second = w.reports
    if w.s is not None:
        lines.append(
            f"violating pair: reachable {len(first.reachable)} + {len(second.reachable)}"
            f" < {w.s}, neither side fully reachable"
        )
    else:
        lines.append("violating pair: neither side has a reachable agent")
    for name, rep in (("first", first), ("second", second)):
        ids = " ".join(str(u) for u in sorted(rep.subset))
        lines.append(f"{name} subset: {ids}")
        table = ", ".join(
            f"{u}:{rep.excess_by_agent[u]}" for u in sorted(rep.subset)
        )
        lines.append(f"{name} excess (threshold {rep.threshold}): {table}")
    return "\n".join(lines) + "\n"
