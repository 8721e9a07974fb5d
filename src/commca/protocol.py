"""Synchronous median-consensus rounds with Byzantine presentation strategies.

Each legitimate agent u updates as

    x_u(t+1) = alpha * x_u(t) + (1 - alpha) * median(values presented by u's neighbors)

with 0 < alpha < 1.  The agent's own value is not part of the median input.
Malicious agents follow no update rule: a strategy decides what they present,
and their stored trace value tracks what they present.  Rounds are
synchronous: every round-t+1 value is computed from round-t values only.

An adversary is a plain value: a per-round script that every malicious
agent displays (holding its last entry) plus fixed per-neighbor overrides.
Malicious agent v presents overrides.get((v, u), script[t]) to neighbor u, so
run() tabulates the whole malicious schedule once.  The community predicate
guarantees isolation against any presentation, but agreement only when each
malicious agent shows all its neighbors one value: a table showing 1.0 to two
legitimate agents of a certified K_6 and 0.0 to the other two splits it.
Each of run()'s rounds is the update rule alone.  Every value a round
reads is in one vector: agent u's value at its id (its state, or what it
shows if malicious), then one value per distinct fixed override and a +inf
pad.  A cached order sorts the vector as step()'s sorted() sorts a row, tied
zeros by agent id (-0.0 == 0.0, yet their bits differ).  Each legitimate
agent's neighbor row, padded on the right to the power-of-two width of its
class, holds its neighbors' ranks in that order; sorted, a row of degree d
has its median at columns (d - 1) // 2 and d // 2, one column twice at odd
degree, as (a + a) / 2 == a within MAX_MAGNITUDE.  While the cached order
still sorts a round's values, its medians are one gather from those
columns' places; only a round whose order changed sorts the vector and the
rank rows again.  A round keeps only that order check, the update, the
write of what the malicious agents show, the copy of its agents' values as
its trace row and the fixed-point test; its medians go into a block buffer
of up to _ROUND_BLOCK rounds.  Once per block, whole-block comparisons flag
each median outside its community's initial interval and fold the flags
into per-agent event counts and first events, whose median is the one the
round used.
A round depends only on the legitimate values before it and on what the
script shows, so once the script holds its last entry, a row that repeats
its predecessor bit for bit repeats in every later round: run() stops there
and counts that round's isolation flags once for each later round.  It keeps
only the rows up to the last distinct one, in a buffer that grows
geometrically from a first chunk of about 1 MB, and the trace is that head
plus a repeat count; the full array is built only for a caller that asks for
Trace.values.  The CSV writer writes bytes: rows up to the last distinct
one become numpy byte-string cells a block of rounds at a time, and the
repeats of that row are copies of its bytes in a buffer of 10**k rows (up
to 1 MB) whose low k round digits are patched in once; a block of rounds
aligned to a multiple of 10**k patches in only the high digits that changed
since the block before.  Each distinct bit pattern is formatted once, by a
numpy kernel of the Schubfach shortest round-trip algorithm
(commca._floatfmt) whose bytes equal repr's for every double.
step() is the plain reference run() must agree with exactly, which the tests
check bitwise.  Initial and adversary values are bounded by MAX_MAGNITUDE,
which keeps every round finite.
"""

from __future__ import annotations

import functools
import io
import operator
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from . import graph
from ._floatfmt import shortest_repr
from .graph import CommunityLayout, Graph

# Initial and adversary values may not exceed this magnitude, so that the sum
# of two values (an even median, a verdict's mean) never overflows.
MAX_MAGNITUDE = 1e300

# Cells the CSV writer formats and writes at once, so that each of its
# temporary arrays stays near 200 KB however long the trace is.
_BLOCK_CELLS = 4096

# Rounds whose medians run() keeps before it folds their isolation flags
# into its event counts.
_ROUND_BLOCK = 64

# Float64 cells (1 MB) in run()'s first chunk of trace rows, which doubles
# each time the next row does not fit; a 500-round run of 158 agents fits in the first chunk.
_CHUNK_CELLS = 1 << 17

# where a sorted vector's zeros (-0.0 and 0.0 alike) begin and end
_ZERO_RUN = np.array([0.0, 5e-324])


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """ASCII digits of non-negative integers, zero-padded to `width`, along a
    new last axis."""
    scale = 10 ** np.arange(width - 1, -1, -1)
    return (values[..., None] // scale % 10 + ord("0")).astype(np.uint8)


class ConfigError(ValueError):
    """Simulation configuration rejected; problems lists every failure."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def median(values: Iterable[float]) -> float:
    """Median of the values: middle element when odd, mean of the two middle
    elements when even."""
    vals = sorted(float(v) for v in values)
    d = len(vals)
    if d == 0:
        raise ValueError("median of an empty value list")
    mid = d // 2
    if d % 2:
        return vals[mid]
    return (vals[mid - 1] + vals[mid]) / 2.0


def require_bounded(what: str, values: Iterable[float]) -> None:
    """Raise unless every value is finite and at most MAX_MAGNITUDE in size."""
    bad = [v for v in values if not abs(v) <= MAX_MAGNITUDE]
    if bad:
        raise ValueError(f"{what} must be finite and at most 1e300 in magnitude, got {bad[0]!r}")


@dataclass(frozen=True)
class AdversaryStrategy:
    """Decides the values malicious agents present to their neighbors.

    At round t every malicious agent presents script[min(t, len(script) - 1)],
    so the script holds its last entry, except that overrides[(agent,
    neighbor)] fixes what `agent` presents to `neighbor` at every round.
    Overrides need a single-value script: the scenario format writes them as
    a table with one default.
    """

    script: tuple[float, ...]
    overrides: Mapping[tuple[int, int], float] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if not self.script:
            raise ValueError("script needs at least one value")
        if self.overrides and len(self.script) > 1:
            raise ValueError("per-neighbor overrides need a single-value script")
        # a copy, so that a caller editing its dict cannot change this value
        object.__setattr__(self, "overrides", dict(self.overrides))
        what = "table values" if self.overrides else "script values"
        require_bounded(what, [*self.script, *self.overrides.values()])

    def displayed(self, agent: int, t: int) -> float:
        """Value of `agent` at round t, recorded in the trace for t >= 1."""
        return self.script[min(t, len(self.script) - 1)]

    def present(self, agent: int, neighbor: int, t: int) -> float:
        """Value `agent` presents to `neighbor` at round t."""
        return self.overrides.get((agent, neighbor), self.displayed(agent, t))


def ConstantValue(value: float) -> AdversaryStrategy:
    """Every malicious agent presents one fixed value forever."""
    return AdversaryStrategy((value,))


def RoundScript(values: Sequence[float]) -> AdversaryStrategy:
    """Presented value follows a per-round script, holding its last entry."""
    return AdversaryStrategy(tuple(values))


def PerNeighborTable(
    entries: Mapping[tuple[int, int], float], default: float
) -> AdversaryStrategy:
    """Equivocation: (agent, neighbor) pairs map to presented values; other
    pairs, and the trace, get `default`."""
    return AdversaryStrategy((default,), entries)


@dataclass(frozen=True)
class PresetValues:
    """Initializer that assigns one explicit value per agent, id order."""

    values: tuple[float, ...]

    def initial_values(self, graph: Graph, layout: CommunityLayout, seed: int) -> np.ndarray:
        if len(self.values) != graph.n:
            raise ValueError(
                f"{len(self.values)} preset values for {graph.n} agents"
            )
        return np.asarray(self.values, dtype=np.float64)


@dataclass(frozen=True)
class StateVector:
    """All agent values at one synchronous round."""

    values: tuple[float, ...]
    round: int = 0


@dataclass(frozen=True)
class SimulationConfig:
    """Complete, reproducible description of one simulation run."""

    graph: Graph
    layout: CommunityLayout
    initializer: Any
    adversary: AdversaryStrategy | None
    alpha: float
    rounds: int
    seed: int

    def validation_problems(self) -> list[str]:
        problems = []
        if not (0.0 < self.alpha < 1.0):
            problems.append(f"alpha must lie strictly between 0 and 1, got {self.alpha}")
        if self.rounds < 1:
            problems.append(f"round count must be at least 1, got {self.rounds}")
        if self.seed < 0:
            problems.append(f"seed must be non-negative, got {self.seed}")
        try:
            self.layout.require_covering(self.graph)
        except ValueError as exc:
            problems.append(str(exc))
        else:
            deg = np.diff(self.graph.indptr)
            isolated = [u for u in sorted(self.layout.legitimate) if deg[u] == 0]
            if isolated:
                problems.append(f"legitimate agents with no neighbors: {isolated}")
        if self.layout.malicious and self.adversary is None:
            problems.append("malicious agents present but no adversary strategy given")
        elif self.adversary is not None:
            keys = list(self.adversary.overrides)
            stray = sorted(compress(keys, (~self._on_malicious_edges(keys)).tolist()))
            if stray:
                problems.append(f"table entries not on an edge from a malicious agent: {stray}")
        if self.initializer is None:
            problems.append("no initializer given")
        return problems

    def _on_malicious_edges(self, keys: list[tuple[int, int]]) -> np.ndarray:
        """Whether each (agent, neighbor) key is an edge of the graph from a
        malicious agent, checked for all keys at once."""
        n = self.graph.n
        pairs = graph.id_array(list(chain.from_iterable(keys))).reshape(-1, 2)
        inside = ((pairs >= 0) & (pairs < n)).all(axis=1)
        agent, neighbor = np.where(inside[:, None], pairs, 0).astype(np.int64).T
        malicious = np.zeros(n + 1, dtype=bool)  # a spare entry keeps an empty graph indexable
        malicious[[u for u in self.layout.malicious if 0 <= u < n]] = True
        return inside & malicious[agent] & (self.graph.edge_positions(agent, neighbor) >= 0)

    def validate(self) -> None:
        problems = self.validation_problems()
        if problems:
            raise ConfigError(problems)


def step(
    state: StateVector,
    g: Graph,
    layout: CommunityLayout,
    alpha: float,
    adversary: AdversaryStrategy | None,
) -> StateVector:
    """One synchronous round, computed agent by agent from round-t values.

    This is the reference semantics; its result does not depend on the agent
    iteration order because it only reads `state`.
    """
    t = state.round
    vals = state.values
    malicious = layout.malicious
    out = []
    for u in range(g.n):
        if u in malicious:
            out.append(adversary.displayed(u, t + 1))
            continue
        presented = [
            vals[v] if v not in malicious else adversary.present(v, u, t)
            for v in g.neighbors(u)
        ]
        out.append(alpha * vals[u] + (1.0 - alpha) * median(presented))
    return StateVector(tuple(out), t + 1)


@dataclass
class IsolationReport:
    """Runtime isolation bookkeeping for one community.

    Counts the (round, agent) events where a legitimate member's median input
    fell outside the community's initial legitimate value interval, and keeps
    the first such event as (round, agent, median).
    """

    community: int
    violations: int
    first: tuple[int, int, float] | None

    @property
    def ok(self) -> bool:
        return self.violations == 0


class Trace:
    """A run's stored values: the distinct head and a repeat count.

    head[t, u] is agent u's stored value at round t (row 0 is initial) for t
    up to last_distinct, and each of the `repeats` later rounds repeats the
    head's last row bit for bit.  Trace(values, config, intervals, isolation,
    repeats) takes rows 0.. of a run whose last row repeats `repeats` more
    times and keeps them up to the last distinct one, so values must not
    change after; run() passes the rows it computed, and a trace built by
    hand from a full array has zero repeats.  The values attribute is the
    full array, built on first use and read-only; nothing in commca reads it.

    write_csv writes the trace as CSV bytes, one line per agent and round, and
    to_csv_text returns the same bytes as text.  A value is written as
    repr(float(v)) writes it, formatted by the vectorized shortest round-trip
    kernel of commca._floatfmt (Schubfach; Giulietti 2020, cf. Adams's Ryu,
    PLDI 2018).  The writer holds a block of about _BLOCK_CELLS cells, or
    of at most 1 MB of repeated rows, at a time, never the whole text.
    """

    def __init__(
        self,
        values: np.ndarray,
        config: SimulationConfig,
        legitimate_intervals: tuple[tuple[float, float] | None, ...],
        isolation: tuple[IsolationReport, ...],
        repeats: int = 0,
    ):
        # rows after the last change repeat it; comparing bytes keeps -0.0
        # apart from 0.0
        last = values.shape[0] - 1
        while last > 0 and values[last].tobytes() == values[last - 1].tobytes():
            last -= 1
        self.head = values[: last + 1]
        self.repeats = repeats + values.shape[0] - 1 - last
        self.config = config
        self.legitimate_intervals = legitimate_intervals
        self.isolation = isolation

    @property
    def last_distinct(self) -> int:
        """The row after which every row repeats it bit for bit."""
        return self.head.shape[0] - 1

    @property
    def rounds(self) -> int:
        return self.last_distinct + self.repeats

    @functools.cached_property
    def values(self) -> np.ndarray:
        """values[t, u] for every round: the head, then its repeats."""
        tail = np.broadcast_to(self.head[-1], (self.repeats, self.head.shape[1]))
        full = np.concatenate([self.head, tail])
        full.setflags(write=False)
        return full

    def row(self, t: int) -> np.ndarray:
        """The agents' values at round t, negative t counting back from the
        end as values[t] does."""
        size = self.rounds + 1
        t = operator.index(t)
        if not -size <= t < size:
            raise IndexError(f"index {t} is out of bounds for axis 0 with size {size}")
        return self.head[min(t % size, self.last_distinct)]

    def value(self, t: int, agent: int) -> float:
        return float(self.row(t)[agent])

    def final_values(self) -> np.ndarray:
        return self.head[-1]

    def initial_interval(self, community: int) -> tuple[float, float] | None:
        """Min/max initial value over the community's legitimate members;
        None when it has none."""
        return self.legitimate_intervals[community]

    def _write_csv(self, fh) -> None:
        # fh takes bytes: a binary file, or a BytesIO for to_csv_text
        layout = self.config.layout
        rows, n = self.rounds + 1, self.head.shape[1]
        lead = np.array([
            f",{u},{layout.community_of(u) + 1},"
            f"{'malicious' if layout.is_malicious(u) else 'legitimate'},"
            for u in range(n)
        ], dtype="S")
        last = self.last_distinct
        # each distinct bit pattern formatted once (-0.0 and 0.0 differ)
        distinct, inverse = np.unique(self.head.view(np.uint64), return_inverse=True)
        reprs = np.strings.add(shortest_repr(distinct.view(np.float64)), b"\n")
        inverse = inverse.reshape(last + 1, n)
        block = max(1, _BLOCK_CELLS // max(n, 1))  # rounds per write
        fh.write(b"round,agent,community,role,value\n")
        # rows before the last distinct one: fixed-width cells, whose NUL
        # padding is dropped (no cell holds a NUL byte)
        for lo in range(0, last, block):
            t = np.arange(lo, min(lo + block, last))
            cells = np.strings.add(np.strings.add(t.astype(f"S{len(str(t[-1]))}")[:, None], lead),
                                   reprs[inverse[lo : lo + t.size]])
            u8 = cells.view(np.uint8)
            fh.write(u8[u8 != 0])
        # the last distinct row and its repeats: for each digit count d, the
        # row's bytes with d NULs where its round goes, tiled into a buffer of
        # 10**k rows, the most that fit in 8 * _CHUNK_CELLS bytes (1 MB) and
        # in the rounds of d digits left.  Rounds go in blocks aligned to
        # multiples of 10**k, so buffer row i holds the low k digits of i in
        # every block, and a block patches only those of its high d - k digits
        # that differ from the block before; the first and the last block are
        # slices of the buffer.  fh.write consumes the buffer before it
        # returns, so no view of it outlives one
        pieces = [b"", *np.strings.add(lead, reprs[inverse[last]]).tolist()]
        lo = last
        while lo < rows:
            d = len(str(lo))
            hi = min(rows, 10**d)
            row = np.frombuffer(bytes(d).join(pieces), dtype=np.uint8)
            holes = np.flatnonzero(row == 0).reshape(n, d)
            k = len(str(max(1, min(8 * _CHUNK_CELLS // row.size, hi - lo)))) - 1
            size = 10**k
            buf = np.tile(row, (size, 1))
            buf[:, holes[:, d - k :]] = _digits(np.arange(size), k)[:, None, :]
            cols = np.ascontiguousarray(holes.T)  # cols[i]: digit i's columns
            shown = np.zeros(d - k, dtype=np.uint8)  # the high digits in buf
            for base in range(lo - lo % size, hi, size):
                end = min(hi - base, size)
                high = _digits(np.array(base // size), d - k)
                for i in np.flatnonzero(high != shown).tolist():
                    buf[:end, cols[i]] = high[i]
                shown = high
                fh.write(buf[max(lo - base, 0) : end])
            lo = hi

    def to_csv_text(self) -> str:
        with io.BytesIO() as fh:
            self._write_csv(fh)
            return fh.getvalue().decode()

    def write_csv(self, path) -> None:
        with open(path, "wb") as fh:
            self._write_csv(fh)


def run(config: SimulationConfig) -> Trace:
    """Run the full simulation and collect the trace.

    Equivalent to iterating step() from the initial values.  p[u] is agent
    u's value: its state if legitimate, what it shows if malicious.  After
    the n agents, p holds one value per distinct table override and a +inf
    pad.  At round 0 and whenever the cached order of p stops sorting it,
    run() sorts p again (tied zeros by owner, as step() keeps them in
    neighbor id order), gathers the ranks into every legitimate agent's
    neighbor row, padded on the right to its width class (2-byte ranks,
    4-byte past 65,536 values), sorts each class's rows and keeps, at the
    agent's id, the places in p of its row's two middle entries; a malicious
    agent's are the pad's.  Every other round only checks the order, gathers
    those entries and takes their mean.  Each round updates all n values,
    then writes what the malicious agents show over theirs, and copies p[:n]
    into the trace as the round's row.  A round's medians go into a block
    buffer of up to _ROUND_BLOCK rounds.  Once per block (a flush),
    whole-block comparisons flag each median that left its community's
    initial interval (a malicious agent's is infinite, so it is never
    flagged); the flush adds each agent's flags to its event count and keeps
    its first flagged round with that round's median.
    From the first round at or after the script's last entry whose new row
    equals the row before it bit for bit, every later round repeats it, so
    the loop stops there and counts that round's flags once for each later
    round.  The rows, the only buffer that grows with the rounds, start at
    a chunk of about 1 MB and double when the next row does not fit, so
    memory grows with the rounds that change, not with the round count; the
    trace keeps the rows up to the last distinct one and how often it
    repeats.
    """
    config.validate()
    g, layout = config.graph, config.layout
    n, T, alpha = g.n, config.rounds, config.alpha

    x0 = np.array(config.initializer.initial_values(g, layout, config.seed), dtype=np.float64)
    if x0.shape != (n,):
        raise ConfigError([f"initializer produced shape {x0.shape}, expected ({n},)"])
    bad = np.flatnonzero(~(np.abs(x0) <= MAX_MAGNITUDE))  # nan fails the test too
    if bad.size:
        raise ConfigError([f"initial values not finite or beyond 1e300: agents {bad.tolist()}"])

    mal_arr = np.array(sorted(layout.malicious), dtype=np.intp)
    legit = np.setdiff1d(np.arange(n), mal_arr)  # legitimate and malicious agents are all agents
    # A legitimate agent's row is padded on the right to the width of its
    # class, the least power of two at or above its degree: under twice the
    # degree, and at most log2(max degree) + 1 classes, one sort each a round.
    # frexp's exponent is the bit length of an integer below 2^53.
    deg = np.diff(g.indptr)
    width = 1 << np.frexp(deg[legit] - 1)[1].astype(np.int64)
    by_class = np.argsort(width, kind="stable")
    legit_arr, width = legit[by_class], width[by_class]
    L = legit_arr.size
    # no adversary behaves like a script that no agent shows
    adversary = config.adversary or AdversaryStrategy((0.0,))
    # every malicious agent displays script[min(t, held)] at round t
    script = np.array(adversary.script, dtype=np.float64)
    held = script.size - 1
    # p[n:] holds one value per distinct (agent, value bits) of the fixed
    # overrides, which[e] being override e's place after n, then the pad.
    # owner[s] is the agent whose value p[s] is (n for the pad).
    overrides = adversary.overrides
    keys = np.fromiter(chain.from_iterable(overrides), np.int64, 2 * len(overrides)).reshape(-1, 2)
    bits, of_bits = np.unique(np.fromiter(overrides.values(), np.float64, len(overrides)).view(np.int64),
                              return_inverse=True)
    pairs, which = np.unique(keys[:, 0] * len(bits) + of_bits, return_inverse=True)
    by, value = np.divmod(pairs, max(len(bits), 1))
    S = n + len(pairs) + 1
    rank_type = np.dtype(np.uint16 if S <= 1 << 16 else np.uint32)
    # The worst case, checked before any round, as a run need not reach a fixed
    # point: the trace; an index and a rank per padded row entry; per row, the
    # places and ranks of its middle entries and their places in p; per agent,
    # the places and values of its middle entries, its update term, interval
    # bounds, event count, first event's round and median, its value's bytes
    # in two rows, and a median and two flags for each round of a block; per
    # value in p, the value, its place in the order, rank, owner, value in the
    # order and a flag; and source's place per CSR entry.
    rb = rank_type.itemsize
    B = min(_ROUND_BLOCK, T)
    if (8 * (T + 1) * n + (8 + rb) * int(width.sum()) + (32 + 2 * rb) * L + (96 + 10 * B) * n
            + (33 + rb) * S + 8 * g.indices.size > graph.physical_memory()):
        raise MemoryError(f"a {T}-round trace of {n} agents does not fit in memory")
    p = np.concatenate([x0, bits[value].view(np.float64), [np.inf]])
    p[mal_arr] = script[0]
    owner = np.concatenate([np.arange(n), by, [n]])
    # source[k] is the place in p of indices[k]'s value: its neighbor's own
    # unless an override fixes what that neighbor presents to the row's agent
    source = g.indices.astype(np.intp)
    source[g.edge_positions(keys[:, 1], keys[:, 0])] = n + which

    # Row r (legit_arr[r]'s neighbors, then pads) is ranked[start[r]:start[r]
    # + width[r]], so each class is a 2-D run of ranked.  Sorted, a row of
    # degree d has its median at columns (d - 1) // 2 and d // 2, one column
    # twice at odd degree, as (a + a) / 2 == a within MAX_MAGNITUDE; pick[r]
    # holds their places in ranked.  j is an entry's place in its agent's
    # adjacency row.
    d = deg[legit_arr]
    start = np.cumsum(width) - width
    j = np.arange(int(width.sum())) - np.repeat(start, width)
    inside = j < np.repeat(d, width)
    idx = np.full(j.size, S - 1)
    idx[inside] = source[(np.repeat(g.indptr[legit_arr], width) + j)[inside]]
    del j, inside  # of the entry-sized arrays, the loop keeps only idx and ranked
    pick = np.stack([start + (d - 1) // 2, start + d // 2], axis=1)
    ranked = np.empty(idx.size, rank_type)
    sizes, counts = np.unique(width, return_counts=True)
    parts = np.split(ranked, np.cumsum(sizes * counts)[:-1])
    classes = [part.reshape(-1, w) for part, w in zip(parts, sizes.tolist())]
    # order lists the places in p as step() sorts a row: by value, and the
    # zeros by owner, as sorted() keeps -0.0 and 0.0 in the row's ascending
    # id order (other tied values have equal bits).  rank[s] is place s's
    # place in it, and src[u] the places in p of agent u's two middle entries.
    order, rank = np.empty(S, np.intp), np.empty(S, rank_type)
    middle, places = np.empty((L, 2), rank_type), np.empty((L, 2), np.intp)
    src = np.full((n, 2), S - 1, np.intp)
    ordered = np.empty(S)
    later, earlier, fell = ordered[1:], ordered[:-1], np.empty(S - 1, dtype=bool)
    pair = np.empty((n, 2))
    left, right = pair.T

    def reorder() -> None:  # order, rank and src for the values in p
        # no index is out of range; unlike "raise", "clip" fills out unbuffered
        order[:] = p.argsort()
        p.take(order, out=ordered, mode="clip")
        lo, hi = ordered.searchsorted(_ZERO_RUN).tolist()
        if hi - lo > 1:  # tied zeros go by owner; other tied values have equal bits
            zeros = order[lo:hi]
            zeros[:] = zeros[owner[zeros].argsort(kind="stable")]
        rank[order] = np.arange(S)
        rank.take(idx, out=ranked, mode="clip")
        for block in classes:
            block.sort(axis=1)
        ranked.take(pick, out=middle, mode="clip")
        order.take(middle, out=places, mode="clip")
        src[legit_arr] = places

    # rows[t] is the trace row of round t; it holds `size` rounds and doubles
    # in place (a realloc) when the next row does not fit, so no view of it
    # may outlive a round.  A block keeps round r0 + j's medians in meds[j];
    # a flush sets flags[j, u] if agent u's median at round r0 + j left its
    # interval; events[u] counts the flags, first_round[u] (T while none) and
    # first_median[u] keep the first.
    size = min(T + 1, max(2, _CHUNK_CELLS // max(n, 1)))
    rows = np.empty((size, n), dtype=np.float64)
    rows[0] = x0
    meds, flags, above = np.empty((B, n)), np.empty((B, n), bool), np.empty((B, n), bool)
    events, first_round, first_median = np.zeros(n, np.int64), np.full(n, T), np.empty(n)
    scaled = np.empty(n)
    x = p[:n]

    members = [np.array(sorted(s - layout.malicious), dtype=np.intp) for s in layout.subsets]
    intervals = [(float(x0[m].min()), float(x0[m].max())) if m.size else None for m in members]
    low, high = np.full((2, n), np.inf) * [[-1.0], [1.0]]
    for m, interval in zip(members, intervals):
        if interval:
            low[m], high[m] = interval

    def flush(r0: int, count: int) -> None:  # rounds r0..r0 + count - 1
        out = np.less(meds[:count], low, out=flags[:count])
        out |= np.greater(meds[:count], high, out=above[:count])
        if not out.any():  # no flag, or no round
            return
        events[:] += out.sum(axis=0)
        fresh = np.flatnonzero((first_round == T) & out.any(axis=0))
        at = out[:, fresh].argmax(axis=0)  # each such agent's earliest flagged round
        first_round[fresh], first_median[fresh] = r0 + at, meds[at, fresh]

    kept = T  # rounds computed; the last one repeats in every later round
    r0 = 0  # the block's first round
    last = rows[0].tobytes()  # the previous row's bytes
    reorder()
    for t in range(T):
        j = t - r0
        # While p read in the old order is non-decreasing, that order sorts
        # this round's values too, and each row's k-th entry is in the place
        # it was in.  Equal values have equal bits, except -0.0 and 0.0: the
        # zeros, a run in the order, must still ascend by owner.  A byte 1 in
        # fell is a True: a value below the one before it.
        if t:
            p.take(order, out=ordered, mode="clip")
            np.less(later, earlier, out=fell)
            lo, hi = ordered.searchsorted(_ZERO_RUN).tolist()
            if 1 in fell.tobytes() or hi - lo > 1 and (np.diff(owner[order[lo:hi]]) < 0).any():
                reorder()
        p.take(src, out=pair, mode="clip")
        m = np.add(right, left, out=meds[j])
        m /= 2.0
        # alpha * x + (1 - alpha) * m: the same two products and one sum; a
        # malicious agent's is infinite, from the pad, until it shows its value
        x *= alpha
        x += np.multiply(m, 1.0 - alpha, out=scaled)
        p[mal_arr] = script[min(t + 1, held)]
        if t + 1 == size:
            size = min(T + 1, 2 * size)
            rows.resize((size, n), refcheck=False)
        rows[t + 1] = x
        new = x.tobytes()
        # the fixed point; comparing bytes keeps -0.0 apart from 0.0
        if t >= held and new == last:
            kept = t + 1
            break
        last = new
        if j + 1 == B:
            flush(r0, B)
            r0 = t + 1
    flush(r0, kept - r0)
    # round kept - 1's flags hold in each of the T - kept later rounds
    events += (T - kept) * flags[kept - 1 - r0]

    reports = []
    for i, own in enumerate(members):
        first = None
        if events[own].any():  # earliest round, then lowest id
            u = own[first_round[own].argmin()]
            first = (int(first_round[u]), int(u), float(first_median[u]))
        reports.append(IsolationReport(i, int(events[own].sum()), first))
    rows.resize((kept + 1, n), refcheck=False)  # drop the unused capacity
    rows.setflags(write=False)
    return Trace(rows, config, tuple(intervals), tuple(reports), T - kept)
