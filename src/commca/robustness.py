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
fullness for all 2^n subsets, from small tables over the low and the high
halves of the subset masks, take a subset-minimum (zeta) transform of c
over the non-full subsets (Bjorklund, Husfeldt, Kaski, Koivisto, STOC 2007),
and test each S1 against the best partner inside its complement.  That takes
O(n * 2^n) time and three 2^n-byte arrays at once: on one core of an Intel
Xeon, a G(n, 0.85) graph takes 0.007 s and 3.1 MiB of arrays at n = 20, and
0.03 s and 12 MiB at n = 22.  A graph whose arrays would exceed physical
memory is refused with MemoryError before any is allocated.  Checks are
capped by default at n = 22 agents (cap=None here, COMMCA_CAP or --force on
the command line, change it).  Every check, the community predicate's
robustness clause included, is one procedure (_decide): two closed forms
first, at any size, then the cap and the engine.  One is a minimum-degree
bound under which no two disjoint non-full subsets fit; the other tests one
candidate pair, which is the engine's own witness when it violates.  So a
check past the cap exits 3 only when neither settles it, as on a path at
r = 0.  Negative verdicts carry a machine-checkable witness pair.

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

    With excess counted as degree minus twice the neighbors inside, as here,
    an external degree of 3 or more seems never to certify: the exact engine
    has found no graph of two or more agents that is (r, 1)-excess robust for
    an r >= 3, so none is (r, s)-robust either, and a single member fails the
    degree clause.  That is measured, not proven for general graphs.  A
    complete community certifies at external degree 2 only at odd size.  The
    paper's abstract alone does not show that it counts excess the same way.
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
    report = reachable_set(g, inside, 0)
    if u not in report.subset:
        raise ValueError(f"agent {u} is not a member of the set")
    return report.excess_by_agent[u]


def reachable_set(g: Graph, members: Iterable[int], threshold: int) -> ReachabilityReport:
    """Members whose excess with respect to the member set meets `threshold`."""
    subset = frozenset(int(x) for x in members)
    if not subset:
        raise ValueError("member set must be non-empty")
    bad = sorted(x for x in subset if not 0 <= x < g.n)
    if bad:
        raise ValueError(f"member ids outside 0..{g.n - 1}: {bad}")
    by_agent = {}
    for u in sorted(subset):  # degree minus twice the neighbors inside
        nbrs = g.neighbors(u)
        by_agent[u] = len(nbrs) - 2 * sum(v in subset for v in nbrs)
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


# A member's inside count where the member is not in the subset: more than
# any threshold (deg - r) // 2, so the member never counts as reachable.
_OUTSIDE = 127
# Subsets counted by one broadcast compare of n bytes each (1.4 MB at n = 22).
_BLOCK = 1 << 16


def _engine_bytes(n: int) -> int:
    # What the engine holds at once, summed over its phases: three one-byte
    # arrays of 2^n entries (counts, fullness and the sizes they are compared
    # with; then c, best and its transpose; then c, the sums and the failing
    # flags), one block's compare of n bytes a subset, and per half mask the
    # member tables: 2n rows of an int64 operand, its popcount, the
    # membership test and the entry (11 bytes a row), n one-byte budgets and
    # the int64 mask itself.
    return 3 * (1 << n) + n * min(1 << n, _BLOCK) + (23 * n + 8) * (1 << n - n // 2)


def _subset_table(masks: tuple[int, ...], r: int) -> tuple[np.ndarray, np.ndarray]:
    """Reachable counts c(S) = |X(S)| and fullness for all 2^n subset masks.

    Index S of each array is the subset with bitmask S.  The empty set counts
    as full, so ~full marks exactly the non-empty, non-full subsets.

    Member u reaches in S iff u is in S and |N(u) & S| <= (deg(u) - r) // 2.
    Split S into its low n//2 bits a and its high bits b, so that
    S = a + b * 2^(n//2).  A table over the low halves holds u's neighbor
    count in a, or _OUTSIDE when u is a low member missing from a; one over
    the high halves holds u's threshold less its count in b, or less
    _OUTSIDE when u is a high member missing from b.  c(S) is the number of
    members whose low entry is at most their high entry, so one broadcast
    compare summed over members fills a block of counts.
    """
    n = len(masks)
    if _engine_bytes(n) > graph.physical_memory():  # refused before anything is allocated
        raise MemoryError
    lo = n // 2
    x = np.arange(1 << n - lo)
    low = (1 << lo) - 1
    bit = [1 << u for u in range(n)]
    # rows 0..n-1 hold the members' low halves, rows n..2n-1 their high halves
    halves = np.array([nb & low for nb in masks] + [nb >> lo for nb in masks]
                      + [b & low for b in bit] + [b >> lo for b in bit], dtype=np.int64)
    nbr, own = halves.reshape(2, -1, 1)
    tab = np.where(x & own == own, np.bitwise_count(x & nbr), np.uint8(_OUTSIDE)).view(np.int8)
    # -1 for every member of degree below r, which never reaches, keeps the
    # budgets (most - _OUTSIDE at least) within int8
    most = [max((nb.bit_count() - r) // 2, -1) for nb in masks]
    inside = tab[:n, None, : 1 << lo]
    budget = (np.array(most, dtype=np.int8)[:, None] - tab[n:])[:, :, None]
    counts = np.empty((len(x), 1 << lo), dtype=np.uint8)
    step = max(1, _BLOCK >> lo)
    for b in range(0, len(x), step):
        reach = (inside <= budget[:, b : b + step]).view(np.uint8)
        np.add.reduce(reach, axis=0, out=counts[b : b + step])
        del reach  # one block's compare at a time
    size = np.bitwise_count(x)
    full = counts == size[:, None] + size[: 1 << lo]
    return counts.reshape(-1), full.reshape(-1)


def _subset_minimum(values: np.ndarray) -> np.ndarray:
    """best[M] = min(values[S] for every submask S of M), for 2^n values.

    One pass per bit (Bjorklund, Husfeldt, Kaski, Koivisto, STOC 2007).  The
    passes for bits 5 and up pair runs of 32 or more entries in place.  Bits
    0-4 pair runs of 1 to 16, so they run on a copy that transposes each
    block of 128 rows of 32, where their runs are 128 to 2048 entries long.
    The result is that copy seen through its transpose: a (-1, rows, 32)
    view in index order (rows shrink below 12 agents, and 32 below 5),
    which reshape(-1) flattens.
    """
    n = values.size.bit_length() - 1
    best = values.copy()
    for i in range(5, n):
        halves = best.reshape(-1, 2, 1 << i)
        np.minimum(halves[:, 1], halves[:, 0], out=halves[:, 1])
    k = min(n, 5)
    rows = min(128, 1 << n - k)
    low = best.reshape(-1, rows, 1 << k).transpose(0, 2, 1).copy()
    del best
    for i in range(k):
        halves = low.reshape(-1, 2, rows << i)
        np.minimum(halves[:, 1], halves[:, 0], out=halves[:, 1])
    return low.transpose(0, 2, 1)


def _violating_pair(masks: tuple[int, ...], r: int, s: int) -> tuple[int, int] | None:
    # A disjoint pair violates (r, s) iff both sides are non-full and
    # c(S1) + c(S2) < s.  best[M] is the least c over non-full S within M, so
    # S1 has a partner iff c(S1) + best[~S1] < s, and ~S1 is index 2^n-1-S1.
    n = len(masks)
    try:
        counts, full = _subset_table(masks, r)
        s = min(s, n + 1)  # c(S1) + c(S2) <= n, and n + 1 keeps uint8 sums exact
        c = full.view(np.uint8) * np.uint8(n + 1)  # c, or n + 1 on full subsets
        np.maximum(c, counts, out=c)
        del counts, full  # each array goes once used: _engine_bytes counts three
        best = _subset_minimum(c)
        sums = c.reshape(best.shape) + best[::-1, ::-1, ::-1]  # best[~S] at S
        del best
        fails = (sums < s).reshape(-1)
        first = int(np.argmax(fails))
        if not fails[first]:
            return None
        del sums, fails
        # S2 is disjoint from S1 iff its low and its high halves are
        lo = n // 2
        x = np.arange(1 << n - lo)
        apart = (x & np.array([[first >> lo], [first]])) == 0
        partner = c.reshape(len(x), -1) < s - int(c[first])
        partner &= apart[0, :, None]
        partner &= apart[1, : 1 << lo]
        second = int(np.argmax(partner))
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
) -> tuple[RobustnessWitness, bool]:
    """The (r, s) verdict on g, and whether a closed form gave it.

    This is the one procedure behind every robustness check.  A non-full
    subset has k = max(1, floor((delta - r) / 2) + 2) members or more, so
    2k > n means robust.  Else {0..k-1} is the lowest mask that can be
    non-full and {k..2k-1} its lowest disjoint partner: when they violate,
    they are the pair the engine would report.  Both hold at any size.  Only
    a question neither settles meets the cap (EnumerationCapExceeded, exit 3
    on the command line) and then the engine.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    if s < 1:
        raise ValueError("s must be at least 1")
    deg = np.diff(g.indptr)
    k = _least_non_full_size(int(deg.min(initial=g.n)), r)
    if 2 * k > g.n:
        return RobustnessWitness(True, r, label), True
    # each side's reachable count c in the pair ({0..k-1}, {k..2k-1}), from
    # the members' rows: excess is degree less twice the neighbors on its side
    rows = np.repeat(np.arange(2 * k), deg[: 2 * k])
    own = g.indices[: g.indptr[2 * k]] // k == rows // k
    c = (deg[: 2 * k] - 2 * np.bincount(rows[own], minlength=2 * k) >= r).reshape(2, k).sum(1)
    if c.max() < k and c.sum() < s:  # neither side is full
        return _violation(g, range(k), range(k, 2 * k), r, s, label), True
    if cap is not None and g.n > cap:
        raise EnumerationCapExceeded(g.n, cap)
    pair = _violating_pair(g.neighbor_masks(), r, s)
    if pair is None:
        return RobustnessWitness(True, r, label), False
    return _violation(g, _mask_ids(pair[0]), _mask_ids(pair[1]), r, s, label), False


def _violation(
    g: Graph, a: Iterable[int], b: Iterable[int], r: int, s: int, label: int | None
) -> RobustnessWitness:
    ev = evaluate_pair(g, a, b, r, s)
    return RobustnessWitness(False, r, label, (ev.first, ev.second))


def is_rs_excess_robust(
    g: Graph, r: int, s: int, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> RobustnessWitness:
    """Decide (r, s)-excess robustness: closed forms first, then all 2^n subsets.

    Empty and singleton graphs are vacuously robust (no disjoint pair
    exists).  Pass cap=None to lift the size cap.
    """
    return _decide(g, r, s, cap, s)[0]


def is_r_excess_robust(
    g: Graph, r: int, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> RobustnessWitness:
    """Decide r-excess robustness: every disjoint pair must have a reachable side.

    This is the s = 1 case; the witness carries s=None to name the plain form.
    """
    return _decide(g, r, 1, cap, None)[0]


def complete_rs_certificate(n: int, r: int, s: int) -> bool:
    """Closed-form (r, s)-excess robustness verdict for the complete graph K_n.

    This is _decide's minimum-degree bound at delta = n - 1: K_n is robust
    iff 2k > n, k = max(1, floor((n - 1 - r) / 2) + 2).  Members of a
    k-subset of K_n have excess n - 2k + 1, and k is the least size where that
    falls below r, so when 2k <= n _decide's candidate pair of two k-subsets
    fails whatever s is (no member reaches): no complete graph needs the engine.
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

    The robustness clause is (r, malicious_count + 1)-excess robustness of
    the induced subgraph, r the member set's external degree bound, and
    _decide decides it: its closed forms at any size, then the engine under
    the cap.  Past the cap, a member set that no closed form settles and that
    fails the degree clause gets a degree-only verdict (robust is None)
    instead of EnumerationCapExceeded.  witness is in original ids.

    Each member's external degree and induced degree (its degree less the
    external part) come from one pass over the members' adjacency rows.
    _decide's first closed form, 2k > |V|, is read off them, so the induced
    subgraph is built only when that bound leaves the question open.
    """
    if malicious_count < 0:
        raise ValueError("malicious count must be non-negative")
    outside = g.external_degrees(members)
    nodes = tuple(sorted(outside))
    ext = max(outside.values())
    deg = np.diff(g.indptr)
    dmin = min(deg.item(u) - e for u, e in outside.items())  # induced degrees
    required = 2 * malicious_count + ext + 1
    s = malicious_count + 1
    witness = None
    robust: bool | None = True
    analytic = 2 * _least_non_full_size(dmin, ext) > len(nodes)
    if not analytic:
        try:
            found, analytic = _decide(g.induced_subgraph(nodes).graph, ext, s, cap, s)
            witness = None if found.robust else _translate_witness(found, nodes)
            robust = witness is None
        except EnumerationCapExceeded:
            if dmin >= required:
                raise
            robust = None  # the degree clause already fails
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
    `seed` draws nothing.  Kept for acceptance criterion 6 and the benchmark
    tracer; the CLI no longer calls it, and prints these numbers from is_community.
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
