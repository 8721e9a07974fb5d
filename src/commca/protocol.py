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
Each of run()'s rounds is the update rule alone: legitimate agents' neighbor
rows are padded with infinities to the even power-of-two width of their
class, so a class's medians sit in the same columns, and each class is
sorted once.  A bool flag per agent says whether its median left its
community's initial interval; isolation reports are read off those flags
after the last round.
A round depends only on the legitimate values before it and on what the
script shows, so once the script holds its last entry, a row that repeats
its predecessor bit for bit repeats in every later round: run() stops there,
fills the rest of the trace with copies and counts that round's isolation
flags once for each later round.  The CSV writer writes bytes: rows up to
the last distinct one become numpy byte-string cells a block of rounds at a
time, with one repr per distinct bit pattern, and each repeat of that row is
its bytes in a reused buffer with only the round's digits patched in.
step() is the plain reference run() must agree with exactly, which the tests
check bitwise.  Initial and adversary values are bounded by MAX_MAGNITUDE,
which keeps every round finite.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from . import graph
from .graph import CommunityLayout, Graph

# Initial and adversary values may not exceed this magnitude, so that the sum
# of two values (an even median, a verdict's mean) never overflows.
MAX_MAGNITUDE = 1e300

# Cells the CSV writer formats and writes at once, so that each of its
# temporary arrays stays near 200 KB however long the trace is.
_BLOCK_CELLS = 4096


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
            isolated = [
                u for u in sorted(self.layout.legitimate) if self.graph.degree(u) == 0
            ]
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
        malicious = np.zeros(n + 1, dtype=bool)  # a spare slot keeps an empty graph indexable
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


@dataclass
class Trace:
    """values[t, u] is agent u's stored value at round t (row 0 is initial).

    write_csv writes the trace as CSV bytes, one line per agent and round, and
    to_csv_text returns the same bytes as text.  The writer holds a block of
    about _BLOCK_CELLS cells at a time, never the whole text.
    """

    values: np.ndarray
    config: SimulationConfig
    legitimate_intervals: tuple[tuple[float, float] | None, ...]
    isolation: tuple[IsolationReport, ...]

    @property
    def rounds(self) -> int:
        return self.values.shape[0] - 1

    def value(self, t: int, agent: int) -> float:
        return float(self.values[t, agent])

    def final_values(self) -> np.ndarray:
        return self.values[-1]

    def initial_interval(self, community: int) -> tuple[float, float] | None:
        """Min/max initial value over the community's legitimate members;
        None when it has none."""
        return self.legitimate_intervals[community]

    def _write_csv(self, fh) -> None:
        # fh takes bytes: a binary file, or a BytesIO for to_csv_text
        layout = self.config.layout
        rows, n = self.values.shape
        lead = np.array([
            f",{u},{layout.community_of(u) + 1},"
            f"{'malicious' if layout.is_malicious(u) else 'legitimate'},"
            for u in range(n)
        ], dtype="S")
        bits = self.values.view(np.uint64)
        changed = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1))
        last = int(changed[-1]) + 1 if changed.size else 0  # rows after it repeat it
        # one repr per distinct bit pattern (-0.0 and 0.0 differ)
        distinct, inverse = np.unique(bits[: last + 1], return_inverse=True)
        reprs = np.strings.add(
            np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype="S"), b"\n")
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
        # a block of rows whose digits each write patches in place; fh.write
        # consumes the buffer before it returns, so no view of it outlives one
        pieces = [b"", *np.strings.add(lead, reprs[inverse[last]]).tolist()]
        lo = last
        while lo < rows:
            d = len(str(lo))
            hi = min(rows, 10**d)
            row = np.frombuffer(bytes(d).join(pieces), dtype=np.uint8)
            holes = np.flatnonzero(row == 0).reshape(n, d)
            buf = np.tile(row, (min(block, hi - lo), 1))
            scale = 10 ** np.arange(d - 1, -1, -1)
            for start in range(lo, hi, block):
                t = np.arange(start, min(start + block, hi))
                buf[: t.size, holes] = (t[:, None] // scale % 10 + ord("0"))[:, None, :]
                fh.write(buf[: t.size])
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

    Equivalent to iterating step() from the initial values.  Each round sorts
    the padded neighbor rows of each width class once.  Whether each median
    left its community's initial interval is kept as one byte (a bool flag),
    and the isolation reports are read off those flags after the last round.
    From the first round at or after the script's last entry whose new row
    equals the row before it bit for bit, every later round repeats it, so
    the loop stops there, copies that row to the end and counts that round's
    flags once for each later round.
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
    is_malicious = np.zeros(n, dtype=bool)
    is_malicious[mal_arr] = True
    legit = np.flatnonzero(~is_malicious)  # legitimate and malicious agents are all agents
    # A legitimate agent's row is padded to the even width 2 * h of its class,
    # h the least power of two with 2 * h >= its degree: under twice the degree
    # plus one, and at most log2(max degree) + 1 classes, one sort each a round.
    # frexp's exponent is the bit length of an integer below 2^53.
    deg = np.diff(g.indptr)
    half = 1 << np.frexp((deg[legit] + 1) // 2 - 1)[1].astype(np.int64)
    by_class = np.argsort(half, kind="stable")
    legit_arr, half = legit[by_class], half[by_class]
    # the trace, a bool flag per agent and round, the padded rows and two copies
    if 8 * (T + 1) * n + legit_arr.size * T + 48 * int(half.sum()) > graph.physical_memory():
        raise MemoryError(f"a {T}-round trace of {n} agents does not fit in memory")
    # no adversary behaves like a script that no agent shows
    adversary = config.adversary or AdversaryStrategy((0.0,))
    # shown[t] is what every malicious agent displays at round t
    script = np.array(adversary.script, dtype=np.float64)
    shown = script[np.minimum(np.arange(T + 1), script.size - 1)]
    # p[:n] is what each agent presents by default; each fixed override gets
    # a slot of its own after those, and the last two slots hold the pads.
    # source[k] is the slot of indices[k], which is k's neighbor itself unless
    # an override fixes what that neighbor presents to the row's agent.
    overrides = adversary.overrides
    p = np.concatenate([np.zeros(n), np.fromiter(overrides.values(), np.float64, len(overrides)),
                        [-np.inf, np.inf]])
    source = g.indices.copy()
    keys = np.fromiter(chain.from_iterable(overrides), np.int64, 2 * len(overrides)).reshape(-1, 2)
    source[g.edge_positions(keys[:, 1], keys[:, 0])] = n + np.arange(len(keys))

    # -inf pads on the left, +inf on the right and one more +inf for odd
    # degree put the median at column h - 1 (odd degree) or make it the mean
    # of columns h - 1 and h (even degree); a class is a run of legit_arr.
    # j[r, c] is the place in its row of the entry at column c of row r.
    classes = []
    for h in np.unique(half).tolist():
        us = legit_arr[half == h]
        d = deg[us]
        j = np.arange(2 * h) - (h - (d + 1) // 2)[:, None]
        idx = np.where(j < 0, -2, -1)
        row = (j >= 0) & (j < d[:, None])
        idx[row] = source[(g.indptr[us][:, None] + j)[row]]
        classes.append((h, idx, d % 2 == 0))

    rows = np.empty((T + 1, n), dtype=np.float64)
    rows[0] = x0
    # legitimate and malicious agents together are all agents (validated)
    rows[1:, mal_arr] = shown[1:, None]

    def medians(t: int) -> np.ndarray:  # of legit_arr's agents at round t
        p[:n] = rows[t]
        p[mal_arr] = shown[t]
        out = []
        for h, idx, even in classes:
            # a row two wide has its median in the same place unsorted
            block = p[idx] if h == 1 else np.sort(p[idx], axis=1)
            a = block[:, h - 1]
            out.append(np.where(even, (a + block[:, h]) / 2.0, a) if even.any() else a)
        return np.concatenate(out) if out else np.empty(0)

    members = [np.array(sorted(s - layout.malicious), dtype=np.intp) for s in layout.subsets]
    intervals = [(float(x0[m].min()), float(x0[m].max())) if m.size else None for m in members]
    # outside[t, k]: legit_arr[k]'s median at round t left its community's interval
    low, high = np.array([intervals[layout.community_of(u)] for u in legit_arr]).reshape(-1, 2).T
    outside = np.empty((T, legit_arr.size), dtype=bool)
    kept = T  # rows of outside computed; the last one holds in every later round
    for t in range(T):
        m = medians(t)
        outside[t] = (m < low) | (m > high)
        rows[t + 1, legit_arr] = alpha * rows[t, legit_arr] + (1.0 - alpha) * m
        # the fixed point; comparing bytes keeps -0.0 apart from 0.0
        if t >= script.size - 1 and rows[t + 1].tobytes() == rows[t].tobytes():
            rows[t + 2:] = rows[t + 1]
            kept = t + 1
            break
    rows.setflags(write=False)

    col = np.empty(n, dtype=np.intp)  # col[u]: u's column in outside
    col[legit_arr] = np.arange(legit_arr.size)
    reports = []
    for i, own in enumerate(members):
        cols = col[own]
        bad = outside[:kept, cols]
        first = None
        if bad.any():  # earliest round, then lowest id
            t = int(np.argmax(bad.any(axis=1)))
            j = int(np.argmax(bad[t]))
            first = (t, int(own[j]), float(medians(t)[cols[j]]))
        repeats = (T - kept) * int(bad[-1].sum())
        reports.append(IsolationReport(i, int(bad.sum()) + repeats, first))
    return Trace(rows, config, tuple(intervals), tuple(reports))
