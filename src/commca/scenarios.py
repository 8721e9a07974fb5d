"""Scenario builders and the scenario document format.

The three example builders construct the two-community benchmark setups on
one shared skeleton: communities 0..n1-1 and n1..n-1 with a certified
external degree bound, legitimate values drawn from normal(2, 1) and
normal(30, 5), and malicious agents holding 60.  They differ in the graph:

  example1: two large complete communities that both satisfy the community
    predicate, so both reach agreement inside their own initial intervals.
  example2: the second community is a 9-agent graph (a 5-clique and a
    4-clique joined only through one cut agent) that misses the robustness
    clause; with the cut agent malicious the community splits into two
    clusters.
  example3: the first community misses the degree clause by one because its
    legitimate agents' external edges are routed to malicious agents of the
    other community; its values get dragged out of the initial interval.

Builders are self-certifying: they re-check every structural property they
claim (external degree bounds, community predicate outcomes) and raise if
construction ever drifts from the claim.

Scenario documents are read with the line grammar of `graph` (blank and '#'
lines, `community <i>:` heads, id lists, the graph section itself), so error
line numbers are document lines.  One regular expression finds the section
headers in the document's text, and each section is a slice of that text
with the number of its first line.  The graph's edge lines and the adversary
table's entry lines are read at once by graph.bulk_rows; only when it
declines a slice, or the slice holds a bad edge or entry, is that slice read
line by line, and that pass names the error.

Normal initial values are drawn from a PCG64 generator seeded with the
config seed; agents are visited in ascending id order, legitimate agents draw
from their community's distribution (explicit lists are consumed in the same
order), malicious agents take the constant.  The second parameter of
`normal` is a variance, not a standard deviation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .graph import (
    CommunityLayout,
    FormatError,
    Graph,
    bulk_rows,
    content_lines,
    format_graph,
    head_line,
    parse_graph,
    read_ids,
    read_indexed,
    read_int,
    read_malicious,
    read_members,
)
from .protocol import (
    AdversaryStrategy,
    ConfigError,
    ConstantValue,
    PerNeighborTable,
    RoundScript,
    SimulationConfig,
    require_bounded,
)
from . import robustness

DEFAULT_SEED = 42
DEFAULT_ALPHA = 0.9
DEFAULT_ROUNDS = 5000

# The canonical violating split of example2's second community, original ids:
# the 5-clique side and the 4-clique side.
EXAMPLE2_SPLIT = (frozenset(range(16, 21)), frozenset(range(21, 25)))


@dataclass(frozen=True)
class NormalDraw:
    """Normal distribution by mean and variance."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (self.variance >= 0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be finite and non-negative, got {self.variance}")


@dataclass(frozen=True)
class ExplicitValues:
    """Explicit per-agent values for one community's legitimate members."""

    values: tuple[float, ...]


@dataclass(frozen=True)
class InitializerSpec:
    """Per-community initial value distributions plus the malicious constant."""

    communities: tuple[NormalDraw | ExplicitValues, ...]
    malicious_value: float | None = None

    def problems(self, graph: Graph, layout: CommunityLayout) -> list[str]:
        out = []
        if len(self.communities) != len(layout):
            out.append(
                f"{len(self.communities)} init entries for {len(layout)} communities"
            )
            return out
        for i, entry in enumerate(self.communities):
            if isinstance(entry, ExplicitValues):
                want = len(layout.legitimate_in(i))
                if len(entry.values) != want:
                    out.append(
                        f"community {i + 1} lists {len(entry.values)} explicit values "
                        f"for {want} legitimate members"
                    )
        if layout.malicious and self.malicious_value is None:
            out.append("malicious agents present but no malicious init value")
        return out

    def initial_values(self, graph: Graph, layout: CommunityLayout, seed: int) -> np.ndarray:
        bad = self.problems(graph, layout)
        if bad:
            raise ValueError("; ".join(bad))
        rng = np.random.Generator(np.random.PCG64(seed))
        values = np.empty(graph.n, dtype=np.float64)
        consumed = [0] * len(layout)
        for u in range(graph.n):
            if layout.is_malicious(u):
                values[u] = self.malicious_value
                continue
            i = layout.community_of(u)
            entry = self.communities[i]
            if isinstance(entry, NormalDraw):
                values[u] = entry.mean + math.sqrt(entry.variance) * rng.standard_normal()
            else:
                values[u] = entry.values[consumed[i]]
                consumed[i] += 1
        return values


def _require_seed(seed: int) -> None:
    if seed < 0:  # before any draw, in the words validation uses
        raise ConfigError([f"seed must be non-negative, got {seed}"])


def _certify(condition: bool, claim: str) -> None:
    if not condition:
        raise RuntimeError(f"builder self-certification failed: {claim}")


def _certify_external(community: int, got: int, want: int) -> None:
    _certify(got == want, f"community {community} external degree is {want}")


def _two_cliques(
    n1: int, n2: int, f1: int, f2: int, cross: list[tuple[int, int]] | np.ndarray
) -> tuple[Graph, frozenset[int]]:
    """Complete graphs on n1 and n2 agents side by side plus the `cross`
    edges, built as one graph from one edge array, with the last f1 and the
    last f2 agents of each malicious."""
    first, second = (np.column_stack(np.triu_indices(size, 1)) + lo
                     for lo, size in ((0, n1), (n1, n2)))
    g = Graph(n1 + n2, np.concatenate([first, second, np.reshape(cross, (-1, 2))]))
    return g, frozenset(range(n1 - f1, n1)) | frozenset(range(n1 + n2 - f2, n1 + n2))


def _two_communities(
    g: Graph, n1: int, malicious: frozenset[int], seed: int, rounds: int, alpha: float,
) -> SimulationConfig:
    """The skeleton every example shares: communities 0..n1-1 and n1..n-1;
    legitimate values start at normal(2, 1) and normal(30, 5); malicious
    agents hold 60.  Each example certifies its communities' external degree
    bounds itself, most from the community check that computes them anyway."""
    communities = (frozenset(range(n1)), frozenset(range(n1, g.n)))
    return SimulationConfig(
        graph=g,
        layout=CommunityLayout(communities, malicious),
        initializer=InitializerSpec((NormalDraw(2.0, 1.0), NormalDraw(30.0, 5.0)), 60.0),
        adversary=ConstantValue(60.0),
        alpha=alpha,
        rounds=rounds,
        seed=seed,
    )


def example1(
    seed: int = DEFAULT_SEED,
    rounds: int = DEFAULT_ROUNDS,
    alpha: float = DEFAULT_ALPHA,
) -> SimulationConfig:
    """Two complete communities, both passing the community predicate.

    Community 1 is complete on 123 agents with 20 malicious, community 2 is
    complete on 35 agents with 10 malicious.  26 cross edges between
    legitimate agents, assigned round-robin over seeded shufflings of each
    side with coprime periods (24 and 25), give every community an external
    degree bound of exactly 2.  Legitimate values start at normal(2, 1) and
    normal(30, 5); malicious agents hold 60.
    """
    _require_seed(seed)
    n1, n2, f1, f2 = 123, 35, 20, 10
    rng = np.random.Generator(np.random.PCG64(seed))  # shuffles each side's legitimate ids
    side1 = rng.permutation(range(n1 - f1))
    side2 = rng.permutation(range(n1, n1 + n2 - f2))
    edge = np.arange(26)
    g, malicious = _two_cliques(
        n1, n2, f1, f2, np.column_stack([side1[edge % 24], side2[edge % 25]])
    )
    config = _two_communities(g, n1, malicious, seed, rounds, alpha)
    layout = config.layout
    for i, members in enumerate(layout.subsets):
        check = robustness.is_community(g, members, layout.malicious_count(i))
        _certify_external(i + 1, check.external_degree, 2)
        _certify(check.is_community, f"community {i + 1} passes the community predicate")
    return config


def example2(
    seed: int = DEFAULT_SEED,
    rounds: int = DEFAULT_ROUNDS,
    alpha: float = DEFAULT_ALPHA,
) -> SimulationConfig:
    """A sound community next to one that fails the robustness clause.

    Community 1 is complete on 16 agents with 6 malicious.  Community 2 has 9
    agents: a complete graph on its first five, a complete graph on its last
    four, and the fifth agent joined to all of the last four, making it the
    only bridge between the sides.  That bridge agent is the community's one
    malicious member.  Every agent in community 2 has degree at least 4, so
    the degree clause holds, but the graph is not (1, 2)-excess robust: the
    split into the 5-clique and the 4-clique has no 1-excess reachable agent
    on either side.  One cross edge joins the first agents of the two
    communities.
    """
    _require_seed(seed)
    n1, f1 = 16, 6
    five, four = EXAMPLE2_SPLIT
    edges = [(a, b) for a in range(n1) for b in range(a + 1, n1)]
    edges += [(a, b) for a in five for b in five if a < b]
    edges += [(a, b) for a in four for b in four if a < b]
    edges += [(20, b) for b in four] + [(0, 16)]
    g = Graph(n1 + 9, edges)
    malicious = frozenset(range(n1 - f1, n1)) | {20}
    config = _two_communities(g, n1, malicious, seed, rounds, alpha)
    community1, community2 = config.layout.subsets

    check1 = robustness.is_community(g, community1, f1)
    _certify_external(1, check1.external_degree, 1)
    _certify_external(2, g.max_external_degree(community2), 1)
    _certify(check1.is_community, "community 1 passes the community predicate")
    sub, nodes = g.induced_subgraph(community2)
    _certify(sub.min_degree() == 4, "community 2 induced minimum degree is 4")
    verdict = robustness.is_rs_excess_robust(sub, 1, 2)
    _certify(not verdict.robust, "community 2 is not (1, 2)-excess robust")
    split = tuple(frozenset(nodes.index(u) for u in side) for side in EXAMPLE2_SPLIT)
    ev = robustness.evaluate_pair(sub, split[0], split[1], 1, 2)
    _certify(not ev.satisfied, "the clique split violates the (1, 2) clauses")
    return config


def example3(
    seed: int = DEFAULT_SEED,
    rounds: int = DEFAULT_ROUNDS,
    alpha: float = DEFAULT_ALPHA,
) -> SimulationConfig:
    """A community that misses the degree clause by a single edge.

    Community 1 is complete on 15 agents with 6 malicious, community 2
    complete on 11 with 3 malicious.  Six cross edges route three legitimate
    agents of community 1 (two edges each) to the three malicious agents of
    community 2 (two edges each), so both communities have external degree
    bound 2.  Community 1 then needs induced minimum degree 15 but only has
    14: the robustness clause holds, the degree clause fails, and the
    legitimate members with external edges face eight matching high values
    among sixteen neighbors, enough to drag the whole community out of its
    initial interval.  Community 2 still passes the predicate.
    """
    _require_seed(seed)
    n1, f1, f2 = 15, 6, 3
    # carriers 0, 1, 2 of community 1 to malicious targets 23, 24, 25
    g, malicious = _two_cliques(
        n1, 11, f1, f2, [(0, 23), (0, 24), (1, 24), (1, 25), (2, 25), (2, 23)]
    )
    config = _two_communities(g, n1, malicious, seed, rounds, alpha)
    community1, community2 = config.layout.subsets

    check1 = robustness.is_community(g, community1, f1)
    check2 = robustness.is_community(g, community2, f2)
    _certify_external(1, check1.external_degree, 2)
    _certify_external(2, check2.external_degree, 2)
    _certify(check1.robust, "community 1 passes the robustness clause")
    _certify(
        check1.reasons == ("degree",) and check1.min_degree == 14
        and check1.required_degree == 15,
        "community 1 fails the degree clause alone, 14 against 15",
    )
    _certify(check2.is_community, "community 2 passes the community predicate")
    return config


EXAMPLES = {1: example1, 2: example2, 3: example3}


# a header line: one section name and whitespace, as str.strip() strips it
_HEADER = re.compile(
    r"^[^\S\n]*(graph|communities|malicious|init|protocol|adversary)[^\S\n]*$", re.M
)


def _split_sections(text: str) -> dict[str, tuple[str, int]]:
    """Each section's text, the lines between its header and the next, with
    the number of its first line."""
    heads = list(_HEADER.finditer(text))
    first = head_line(text)  # the first header, unless content comes before it
    if first is not None and (not heads or first[2] <= heads[0].start()):
        raise FormatError(f"line {first[0]}: content before any section header")
    sections: dict[str, tuple[str, int]] = {}
    lineno, at = 1, 0
    for head, end in zip(heads, [head.start() for head in heads[1:]] + [len(text)]):
        lineno, at = lineno + text.count("\n", at, head.start()), head.start()
        if head[1] in sections:
            raise FormatError(f"line {lineno}: repeated section {head[1]!r}")
        sections[head[1]] = (text[head.end() + 1:end], lineno + 1)
    return sections


def _parse_float(lineno: int, token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad number {token!r}") from None


def _parse_communities_section(
    lines: list[tuple[int, str]]
) -> tuple[list[list[int]], dict[int, int]]:
    listed, others = read_indexed(lines)
    bounds: dict[int, int] = {}
    for lineno, line in others:
        if not line.startswith("external"):
            raise FormatError(f"line {lineno}: unrecognized community line {line!r}")
        tokens = line.split()
        if len(tokens) != 3:
            raise FormatError(f"line {lineno}: expected 'external <i> <bound>'")
        idx = read_int(lineno, tokens[1])
        if idx in bounds:
            raise FormatError(f"line {lineno}: repeated external bound for community {idx}")
        bounds[idx] = read_int(lineno, tokens[2])
    return read_members(listed), bounds


def _parse_init_section(
    lines: list[tuple[int, str]], count: int
) -> tuple[dict[int, NormalDraw | ExplicitValues], float | None]:
    listed, others = read_indexed(lines)
    malicious_value: float | None = None
    found = read_malicious(others)
    if found:
        lineno, rest = found
        tokens = rest.split()
        if len(tokens) != 2 or tokens[0] != "constant":
            raise FormatError(f"line {lineno}: expected 'malicious: constant <v>'")
        malicious_value = _parse_float(lineno, tokens[1])
        _build(lineno, require_bounded, "malicious constant", [malicious_value])
    entries: dict[int, NormalDraw | ExplicitValues] = {}
    for idx, (lineno, rest) in listed.items():
        if not (1 <= idx <= count):
            raise FormatError(f"line {lineno}: init for unknown community {idx}")
        tokens = rest.split()
        if not tokens:
            raise FormatError(f"line {lineno}: empty init entry")
        if tokens[0] == "normal":
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: expected 'normal <mean> <variance>'")
            mean, variance = (_parse_float(lineno, tok) for tok in tokens[1:])
            entries[idx] = _build(lineno, NormalDraw, mean, variance)
        elif tokens[0] == "explicit":
            entries[idx] = ExplicitValues(
                tuple(_parse_float(lineno, tok) for tok in tokens[1:])
            )
        else:
            raise FormatError(f"line {lineno}: unknown init kind {tokens[0]!r}")
    return entries, malicious_value


def _parse_protocol_section(lines: list[tuple[int, str]]) -> tuple[float, int, int]:
    seen: dict[str, float | int] = {}
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != 2 or tokens[0] not in ("alpha", "rounds", "seed"):
            raise FormatError(f"line {lineno}: unrecognized protocol line {line!r}")
        if tokens[0] in seen:
            raise FormatError(f"line {lineno}: repeated protocol key {tokens[0]!r}")
        parse = _parse_float if tokens[0] == "alpha" else read_int
        seen[tokens[0]] = parse(lineno, tokens[1])
    missing = [k for k in ("alpha", "rounds", "seed") if k not in seen]
    if missing:
        raise FormatError(f"protocol section missing {missing}")
    return seen["alpha"], seen["rounds"], seen["seed"]


def _build(lineno: int, make, *args):
    try:
        return make(*args)
    except ValueError as exc:  # the constructor rejected a value, e.g. nan
        raise FormatError(f"line {lineno}: {exc}") from None


def _parse_adversary_section(text: str, start: int) -> AdversaryStrategy:
    head = head_line(text, start)
    if head is None:
        raise FormatError("adversary section is empty")
    lineno, first, rest = head
    tokens = first.split()
    kind = tokens[0]
    if kind == "constant":
        if len(tokens) != 2 or head_line(text[rest:]) is not None:
            raise FormatError(f"line {lineno}: expected a single 'constant <v>' line")
        return _build(lineno, ConstantValue, _parse_float(lineno, tokens[1]))
    if kind == "script":
        if len(tokens) < 2 or head_line(text[rest:]) is not None:
            raise FormatError(f"line {lineno}: expected a single 'script <v...>' line")
        values = tuple(_parse_float(lineno, tok) for tok in tokens[1:])
        return _build(lineno, RoundScript, values)
    if kind == "table":
        if len(tokens) != 2:
            raise FormatError(f"line {lineno}: expected 'table <default>'")
        default = _parse_float(lineno, tokens[1])
        table = _read_table(text[rest:], lineno + 1)
        return _build(lineno, PerNeighborTable, table, default)
    raise FormatError(f"line {lineno}: unknown adversary kind {kind!r}")


# an adversary table's entry line
_ENTRY = np.dtype([("agent", np.int64), ("neighbor", np.int64), ("value", np.float64)])


def _read_table(text: str, start: int) -> dict[tuple[int, int], float]:
    """The `<agent> <neighbor> <value>` lines of a table, the first numbered
    `start`, read at once by bulk_rows.  A table it declines, or one with an
    agent paired with itself or an entry listed twice, is read again line by
    line, and that pass names the first bad line: its token count, then its
    ids (integers, not equal), then a repeat of an earlier entry, then its
    value."""
    rows = bulk_rows(text, _ENTRY)
    if rows is not None and not (rows["agent"] == rows["neighbor"]).any():
        pairs = zip(rows["agent"].tolist(), rows["neighbor"].tolist())
        table = dict(zip(pairs, rows["value"].tolist()))
        if len(table) == len(rows):
            return table
    table = {}  # only a table with an error gets here
    for lineno, line in content_lines(text, start):
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected '<agent> <neighbor> <value>'")
        agent, neighbor = read_ids(lineno, parts[:2])
        if (agent, neighbor) in table:
            raise FormatError(f"line {lineno}: repeated table entry {agent} {neighbor}")
        table[agent, neighbor] = _parse_float(lineno, parts[2])
    return table


def load_scenario(text: str) -> SimulationConfig:
    """Parse a scenario document into a validated SimulationConfig.

    Structural errors raise FormatError with a line number.  Semantic
    problems (overlapping communities, uncovered agents, violated external
    degree bounds, inconsistent init entries, isolated legitimate agents) are
    collected and raised together as ConfigError.
    """
    config, problems = read_scenario(text)
    problems.extend(config.validation_problems())
    if problems:
        raise ConfigError(problems)
    return config


def read_scenario(text: str) -> tuple[SimulationConfig, list[str]]:
    """Parse a scenario document without validating the config it describes.

    Returns the config with the problems only the document shows (violated
    external degree bounds, inconsistent init entries); load_scenario adds
    the config's own validation problems to these.  Errors that leave no
    config to return raise as in load_scenario.
    """
    sections = _split_sections(text)
    missing = [s for s in ("graph", "communities", "init", "protocol") if s not in sections]
    if missing:
        raise FormatError(f"missing sections: {missing}")

    g = parse_graph(*sections["graph"])
    members, bounds = _parse_communities_section(content_lines(*sections["communities"]))
    malicious: list[int] = []
    for lineno, line in content_lines(*sections.get("malicious", ("",))):
        ids = read_ids(lineno, line.split())
        again = sorted(set(ids) & set(malicious))
        if again:
            raise FormatError(f"line {lineno}: ids listed twice: {again}")
        malicious.extend(ids)
    entries, malicious_value = _parse_init_section(content_lines(*sections["init"]), len(members))
    alpha, rounds, seed = _parse_protocol_section(content_lines(*sections["protocol"]))

    problems: list[str] = []
    try:
        layout = CommunityLayout(members, malicious)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None

    # bounds are checked on a covering layout only: validation_problems reports the rest
    covering = layout.agents == frozenset(range(g.n))
    for idx in sorted(bounds):
        if not (1 <= idx <= len(layout)):
            problems.append(f"external bound for unknown community {idx}")
        elif covering:
            degrees = g.external_degrees(layout.subsets[idx - 1])
            offenders = sorted(u for u, d in degrees.items() if d > bounds[idx])
            if offenders:
                problems.append(
                    f"community {idx} declares external bound {bounds[idx]} but has "
                    f"external degree {max(degrees.values())} (agents {offenders})"
                )

    missing_init = [i + 1 for i in range(len(layout)) if i + 1 not in entries]
    if missing_init:
        problems.append(f"init entries missing for communities {missing_init}")
        raise ConfigError(problems)
    init = InitializerSpec(
        tuple(entries[i + 1] for i in range(len(layout))), malicious_value
    )
    problems.extend(init.problems(g, layout))

    if "adversary" in sections:
        adversary: AdversaryStrategy | None = _parse_adversary_section(*sections["adversary"])
    elif layout.malicious:
        # default: malicious agents hold their initial constant
        adversary = ConstantValue(malicious_value) if malicious_value is not None else None
    else:
        adversary = None

    config = SimulationConfig(
        graph=g,
        layout=layout,
        initializer=init,
        adversary=adversary,
        alpha=alpha,
        rounds=rounds,
        seed=seed,
    )
    return config, problems


def format_scenario(config: SimulationConfig) -> str:
    """Serialize a config as a scenario document; load_scenario inverts this."""
    g, layout = config.graph, config.layout
    lines = ["communities"]
    for i, subset in enumerate(layout.subsets, start=1):
        lines.append(f"community {i}: " + " ".join(str(u) for u in sorted(subset)))
    for i, subset in enumerate(layout.subsets, start=1):
        lines.append(f"external {i} {g.max_external_degree(subset)}")
    lines.append("malicious")
    if layout.malicious:
        lines.append(" ".join(str(u) for u in sorted(layout.malicious)))
    lines.append("init")
    init = config.initializer
    if not isinstance(init, InitializerSpec):
        raise ValueError(
            "only InitializerSpec-backed configs serialize to scenario documents"
        )
    for i, entry in enumerate(init.communities, start=1):
        if isinstance(entry, NormalDraw):
            lines.append(f"community {i}: normal {entry.mean!r} {entry.variance!r}")
        else:
            vals = " ".join(repr(v) for v in entry.values)
            lines.append(f"community {i}: explicit {vals}".rstrip())
    if init.malicious_value is not None:
        lines.append(f"malicious: constant {init.malicious_value!r}")
    lines.append("protocol")
    lines.append(f"alpha {config.alpha!r}")
    lines.append(f"rounds {config.rounds}")
    lines.append(f"seed {config.seed}")
    adversary = config.adversary
    if adversary is not None:
        lines.append("adversary")
        if adversary.overrides:
            lines.append(f"table {adversary.script[0]!r}")
            for (agent, neighbor), value in sorted(adversary.overrides.items()):
                lines.append(f"{agent} {neighbor} {value!r}")
        elif len(adversary.script) == 1:
            lines.append(f"constant {adversary.script[0]!r}")
        else:
            lines.append("script " + " ".join(repr(v) for v in adversary.script))
    return "graph\n" + format_graph(g) + "\n".join(lines) + "\n"
