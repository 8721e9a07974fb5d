"""Trace analysis: per-community agreement, safety, and cluster verdicts.

A community reaches agreement when the spread of its legitimate members'
values stays below epsilon over the final window of rounds.  It is safe when
every legitimate member's value stays, at every round, inside the community's
initial value interval widened by tau; the interval is the legitimate
members' initial min/max.  A trace keeps its rows up to the last distinct
one and how often that one repeats, and every check reads only those rows:
safety needs no repeat beyond the first copy, the final window is the
head's last rows with the repeats standing in for the rest, and the final
values are the head's last row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import Trace


@dataclass(frozen=True)
class Cluster:
    """Group of legitimate agents whose final values sit within delta."""

    limit: float
    members: tuple[int, ...]


@dataclass(frozen=True)
class CommunityOutcome:
    """Agreement and safety result for one community (0-based index)."""

    community: int
    agreement: bool
    limit: float | None
    safety: bool
    first_violation: tuple[int, int] | None
    clusters: tuple[Cluster, ...]


@dataclass(frozen=True)
class RacVerdict:
    """Resilient asymptotic consensus verdict: one outcome per community."""

    outcomes: tuple[CommunityOutcome, ...]
    epsilon: float
    delta: float
    window: int
    tau: float

    def outcome(self, community: int) -> CommunityOutcome:
        return self.outcomes[community]

    @property
    def all_pass(self) -> bool:
        return all(o.agreement and o.safety for o in self.outcomes)


def spread(trace: Trace, community: int, t: int) -> float:
    """Max minus min over the community's legitimate values at round t."""
    members = sorted(trace.config.layout.legitimate_in(community))
    if not members:
        return 0.0
    row = trace.row(t)[members]
    return float(row.max() - row.min())


def _clusters(ids: list[int], finals: np.ndarray, delta: float) -> tuple[Cluster, ...]:
    # Greedy grouping over value-sorted agents, anchored at each cluster's
    # smallest value so intra-cluster spread stays below delta.
    order = sorted(range(len(ids)), key=lambda j: (finals[j], ids[j]))
    groups: list[list[int]] = []
    anchor = 0.0
    for j in order:
        v = float(finals[j])
        if groups and v - anchor < delta:
            groups[-1].append(j)
        else:
            groups.append([j])
            anchor = v
    return tuple(
        Cluster(
            limit=float(np.mean([finals[j] for j in grp])),
            members=tuple(sorted(ids[j] for j in grp)),
        )
        for grp in groups
    )


def require_verdict_parameters(
    rows: int, epsilon: float, delta: float, window: int, tau: float = 1e-9
) -> None:
    """Raise ValueError unless rac_verdict takes these parameters for a trace
    of `rows` rows, so that a caller can check them before it runs."""
    # every comparison with nan is false, so nan fails this test too
    if not (0 < epsilon < np.inf and 0 < delta < np.inf and 0 <= tau < np.inf):
        raise ValueError(
            "epsilon and delta must be finite and positive, tau finite and non-negative"
        )
    if window < 1:
        raise ValueError("agreement window must be at least 1")
    if rows < window:
        raise ValueError(f"trace has {rows} rows, fewer than the agreement window {window}")


def rac_verdict(
    trace: Trace,
    epsilon: float = 1e-6,
    delta: float = 1e-3,
    window: int = 50,
    tau: float = 1e-9,
) -> RacVerdict:
    """Classify every community of the trace for agreement and safety."""
    require_verdict_parameters(trace.rounds + 1, epsilon, delta, window, tau)
    layout = trace.config.layout
    head = trace.head
    # the last `window` rows: the repeats of the head's last row, preceded
    # by as many head rows as the window has room for
    window_rows = head[-max(window - trace.repeats, 1):]
    outcomes = []
    for i in range(len(layout)):
        members = sorted(layout.legitimate_in(i))
        if not members:
            outcomes.append(
                CommunityOutcome(i, True, None, True, None, ())
            )
            continue
        tail = window_rows[:, members]
        agreement = bool((tail.max(axis=1) - tail.min(axis=1) < epsilon).all())
        finals = head[-1, members]
        clusters = _clusters(members, finals, delta)
        limit = float(finals.mean()) if agreement else None
        lo, hi = trace.initial_interval(i)
        block = head[:, members]
        inside = (block >= lo - tau) & (block <= hi + tau)
        safety = bool(inside.all())
        first_violation = None
        if not safety:
            bad = ~inside
            t_first = int(np.argmax(bad.any(axis=1)))
            a_first = members[int(np.argmax(bad[t_first]))]
            first_violation = (t_first, a_first)
        outcomes.append(
            CommunityOutcome(i, agreement, limit, safety, first_violation, clusters)
        )
    return RacVerdict(tuple(outcomes), epsilon, delta, window, tau)


def summary_lines(verdict: RacVerdict) -> list[str]:
    """One line per community, 1-based labels for human output."""
    lines = []
    for o in verdict.outcomes:
        parts = [
            f"community {o.community + 1}:",
            f"agreement={'yes' if o.agreement else 'no'}",
            f"safety={'yes' if o.safety else 'no'}",
        ]
        if o.limit is not None:
            parts.append(f"limit={o.limit:.6g}")
        parts.append(f"clusters={len(o.clusters)}")
        lines.append(" ".join(parts))
    return lines


def format_verdict(verdict: RacVerdict) -> str:
    """Full structured text report for a verdict."""
    lines = [
        "parameters: "
        f"epsilon={verdict.epsilon!r} delta={verdict.delta!r} "
        f"window={verdict.window} tau={verdict.tau!r} hull=legitimate"
    ]
    for o in verdict.outcomes:
        lines.append(f"community {o.community + 1}")
        lines.append(f"  agreement: {'yes' if o.agreement else 'no'}")
        if o.limit is not None:
            lines.append(f"  limit: {o.limit!r}")
        if o.safety:
            lines.append("  safety: yes")
        else:
            t, a = o.first_violation
            lines.append(f"  safety: no (first violation: round {t}, agent {a})")
        lines.append(f"  clusters: {len(o.clusters)}")
        for k, cl in enumerate(o.clusters, start=1):
            ids = " ".join(str(u) for u in cl.members)
            lines.append(f"    cluster {k}: limit {cl.limit!r}, members {ids}")
    return "\n".join(lines) + "\n"
