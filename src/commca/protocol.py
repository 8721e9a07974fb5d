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
run() tabulates the whole malicious schedule once and is one vectorized
engine for every adversary; step() is the plain reference it must agree with
exactly, which the tests check bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graph import CommunityLayout, Graph


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


def _require_finite(what: str, values: Iterable[float]) -> None:
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{what} must be finite, got {bad[0]!r}")


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
        _require_finite(what, [*self.script, *self.overrides.values()])

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
            stray = sorted(k for k in self.adversary.overrides if k[0] not in self.layout.malicious
                           or (min(k), max(k)) not in self.graph.edges)
            if stray:
                problems.append(f"table entries not on an edge from a malicious agent: {stray}")
        if self.initializer is None:
            problems.append("no initializer given")
        return problems

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
    """values[t, u] is agent u's stored value at round t (row 0 is initial)."""

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

    def initial_interval(
        self, community: int, legitimate_only: bool = True
    ) -> tuple[float, float] | None:
        """Min/max initial value over the community's members.

        With legitimate_only the malicious members' initial values are
        ignored; a community with no legitimate members then has no interval.
        """
        if legitimate_only:
            return self.legitimate_intervals[community]
        members = sorted(self.config.layout.subsets[community])
        row = self.values[0, members]
        return float(row.min()), float(row.max())

    def _csv_chunks(self) -> Iterator[str]:
        # a repr per distinct bit pattern (-0.0 and 0.0 differ), a format per round
        layout = self.config.layout
        template = "".join(
            f"{{0}},{u},{layout.community_of(u) + 1},"
            f"{'malicious' if layout.is_malicious(u) else 'legitimate'},{{{u + 1}}}\n"
            for u in range(self.values.shape[1])
        )
        bits, inverse = np.unique(self.values.view(np.uint64), return_inverse=True)
        reprs = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        yield "round,agent,community,role,value\n"
        for t, row in enumerate(inverse.reshape(self.values.shape)):
            yield template.format(t, *reprs[row])

    def to_csv_text(self) -> str:
        return "".join(self._csv_chunks())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.writelines(self._csv_chunks())


def run(config: SimulationConfig) -> Trace:
    """Run the full simulation and collect the trace.

    Equivalent to iterating step() from the initial values; vectorized over
    agents grouped by degree, for every adversary strategy.  Medians of
    legitimate members are checked against each community's initial
    legitimate interval every round (isolation bookkeeping).
    """
    config.validate()
    g, layout = config.graph, config.layout
    n, T, alpha = g.n, config.rounds, config.alpha

    x0 = np.array(
        config.initializer.initial_values(g, layout, config.seed), dtype=np.float64
    )
    if x0.shape != (n,):
        raise ConfigError([f"initializer produced shape {x0.shape}, expected ({n},)"])
    if not np.isfinite(x0).all():
        bad = sorted(int(u) for u in np.flatnonzero(~np.isfinite(x0)))
        raise ConfigError([f"non-finite initial values for agents {bad}"])

    # no adversary behaves like a script that no agent shows
    adversary = config.adversary or AdversaryStrategy((0.0,))
    mal_arr = np.array(sorted(layout.malicious), dtype=np.intp)
    legit_ids = sorted(layout.legitimate)
    legit_arr = np.array(legit_ids, dtype=np.intp)
    # shown[t] is what every malicious agent displays at round t
    script = np.array(adversary.script, dtype=np.float64)
    shown = script[np.minimum(np.arange(T + 1), script.size - 1)]
    # p[:n] is what each agent presents by default; each fixed override gets
    # a slot of its own after those, which the gather indices point at
    overrides = adversary.overrides
    slot = {key: n + k for k, key in enumerate(overrides)}
    p = np.array([0.0] * n + list(overrides.values()), dtype=np.float64)

    by_degree: dict[int, list[int]] = {}
    for u in legit_ids:
        by_degree.setdefault(g.degree(u), []).append(u)
    groups = []
    for d, agents in sorted(by_degree.items()):
        ids_arr = np.array(agents, dtype=np.intp)
        idx = [[slot.get((v, u), v) for v in g.neighbors(u)] for u in agents]
        # the median is the mean of sorted columns lo and hi (equal when d is odd)
        groups.append((ids_arr, np.array(idx, dtype=np.intp), (d - 1) // 2, d // 2))

    c = len(layout)
    comm_legit = [
        np.array(sorted(layout.legitimate_in(i)), dtype=np.intp) for i in range(c)
    ]
    intervals: list[tuple[float, float] | None] = []
    for arr in comm_legit:
        if arr.size:
            intervals.append((float(x0[arr].min()), float(x0[arr].max())))
        else:
            intervals.append(None)
    watched = [(i, arr, *intervals[i]) for i, arr in enumerate(comm_legit) if arr.size]
    iso_count = [0] * c
    iso_first: list[tuple[int, int, float] | None] = [None] * c

    rows = np.empty((T + 1, n), dtype=np.float64)
    rows[0] = x0
    # legitimate and malicious agents together are all agents (validated)
    rows[1:, mal_arr] = shown[1:, None]

    for t in range(T):
        x, nxt = rows[t], rows[t + 1]
        p[:n] = x
        p[mal_arr] = shown[t]
        # legitimate medians go straight into the next row, then get blended
        for ids_arr, idx, lo, hi in groups:
            block = np.sort(p[idx], axis=1)
            nxt[ids_arr] = block[:, hi] if lo == hi else (block[:, lo] + block[:, hi]) / 2.0

        for i, arr, low, high in watched:
            m_i = nxt[arr]
            bad = (m_i < low) | (m_i > high)
            if bad.any():
                iso_count[i] += int(bad.sum())
                if iso_first[i] is None:
                    j = int(np.argmax(bad))
                    iso_first[i] = (t, int(arr[j]), float(m_i[j]))

        nxt[legit_arr] = alpha * x[legit_arr] + (1.0 - alpha) * nxt[legit_arr]

    rows.setflags(write=False)
    reports = tuple(IsolationReport(i, iso_count[i], iso_first[i]) for i in range(c))
    return Trace(rows, config, tuple(intervals), reports)
