"""Undirected simple graphs over dense agent ids, plus community partitions
and the line reader that graph files, community files and scenario documents
share.

Agents are integers 0..n-1.  Graphs are immutable once built and neighbor
iteration is sorted by id, so every downstream computation sees the same
deterministic order.  A graph stores only its sorted neighbor rows; edge
sets, edge lookups and bitmasks are derived from them on each call.  Graph()
is the one place an edge is checked: add_cross_edges and read_graph rely on it.
"""

from __future__ import annotations

import bisect
import os
from typing import Iterable, NamedTuple

# Bytes a declared agent costs while its graph is built (an adjacency list,
# then a tuple slot): 80 per agent at n = 10^6 and 4 * 10^6, Python 3.11.
_AGENT_BYTES = 80


def physical_memory() -> int:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # unknown: the 64-bit address space
        return 1 << 64


class FormatError(ValueError):
    """Raised when a graph or community text document does not parse."""


class Graph:
    """Immutable undirected simple graph on agents 0..n-1."""

    __slots__ = ("_n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("agent count must be non-negative")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on agent {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside agent range 0..{n - 1}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self._n = n
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edge set as (u, v) pairs with u < v."""
        return frozenset((u, v) for u, row in enumerate(self._adj) for v in row if v > u)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbors of u in ascending id order."""
        self._check_agent(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        self._check_agent(u)
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_agent(u)
        self._check_agent(v)
        row = self._adj[u]
        i = bisect.bisect_left(row, v)
        return i < len(row) and row[i] == v

    def min_degree(self) -> int:
        if self._n == 0:
            raise ValueError("minimum degree of an empty graph is undefined")
        return min(len(a) for a in self._adj)

    def external_degrees(self, members: Iterable[int]) -> dict[int, int]:
        """Number of edges each member has to agents outside `members`."""
        inside = self._check_members(members)
        return {u: sum(1 for v in self._adj[u] if v not in inside) for u in inside}

    def max_external_degree(self, members: Iterable[int]) -> int:
        """Largest number of edges any member has to agents outside `members`."""
        return max(self.external_degrees(members).values())

    def induced_subgraph(self, members: Iterable[int]) -> "InducedSubgraph":
        """Subgraph on `members`, relabeled 0..k-1 in ascending original id order."""
        inside = self._check_members(members)
        nodes = tuple(sorted(inside))
        index = {orig: new for new, orig in enumerate(nodes)}
        edges = [
            (i, index[v])
            for i, u in enumerate(nodes)
            for v in self._adj[u]
            if v > u and v in index
        ]
        return InducedSubgraph(Graph(len(nodes), edges), nodes)

    def is_complete(self) -> bool:
        return all(len(row) == self._n - 1 for row in self._adj)

    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-agent neighbor sets as bitmasks (bit v set iff v is a neighbor)."""
        return tuple(sum(1 << v for v in row) for row in self._adj)

    def _check_agent(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise ValueError(f"agent id {u} outside 0..{self._n - 1}")

    def _check_members(self, members: Iterable[int]) -> frozenset[int]:
        inside = frozenset(int(u) for u in members)
        if not inside:
            raise ValueError("member set must be non-empty")
        bad = [u for u in inside if not (0 <= u < self._n)]
        if bad:
            raise ValueError(f"member ids outside 0..{self._n - 1}: {sorted(bad)}")
        return inside

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, edges={sum(map(len, self._adj)) // 2})"


class InducedSubgraph(NamedTuple):
    """Result of Graph.induced_subgraph: the subgraph plus the id remapping.

    nodes[new_id] is the original id; the mapping is a bijection.
    """

    graph: Graph
    nodes: tuple[int, ...]


def complete_graph(n: int) -> Graph:
    """Complete graph on n >= 1 agents."""
    if n < 1:
        raise ValueError("complete graph needs at least one agent")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """One graph holding a copy of `a` and a copy of `b` shifted by a.n."""
    shift = a.n
    edges = list(a.edges) + [(u + shift, v + shift) for u, v in b.edges]
    return Graph(a.n + b.n, edges)


def add_cross_edges(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    """New graph with `pairs` added as edges.

    Graph checks the pairs after g's own edges, so a self-loop, an edge
    already present or a pair repeated in the input is its ValueError.
    """
    return Graph(g.n, [*g.edges, *pairs])


class CommunityLayout:
    """Ordered partition of the agents into communities plus malicious roles.

    Communities are non-empty and pairwise disjoint; malicious ids must belong
    to some community.  Whether the partition covers a particular graph is
    checked against that graph via require_covering().
    """

    __slots__ = ("_subsets", "_malicious", "_owner")

    def __init__(self, subsets: Iterable[Iterable[int]], malicious: Iterable[int] = ()):
        subs = tuple(frozenset(int(u) for u in s) for s in subsets)
        if not subs:
            raise ValueError("at least one community is required")
        owner: dict[int, int] = {}
        for i, s in enumerate(subs):
            if not s:
                raise ValueError(f"community {i + 1} is empty")
            for u in s:
                if u in owner:
                    raise ValueError(
                        f"agent {u} appears in communities {owner[u] + 1} and {i + 1}"
                    )
                owner[u] = i
        mal = frozenset(int(u) for u in malicious)
        stray = sorted(mal - owner.keys())
        if stray:
            raise ValueError(f"malicious ids belong to no community: {stray}")
        self._subsets = subs
        self._malicious = mal
        self._owner = owner

    @property
    def subsets(self) -> tuple[frozenset[int], ...]:
        return self._subsets

    @property
    def malicious(self) -> frozenset[int]:
        return self._malicious

    @property
    def agents(self) -> frozenset[int]:
        return frozenset(self._owner)

    @property
    def legitimate(self) -> frozenset[int]:
        return frozenset(self._owner) - self._malicious

    def __len__(self) -> int:
        return len(self._subsets)

    def community_of(self, u: int) -> int:
        try:
            return self._owner[int(u)]
        except KeyError:
            raise ValueError(f"agent {u} belongs to no community") from None

    def is_malicious(self, u: int) -> bool:
        return u in self._malicious

    def malicious_in(self, i: int) -> frozenset[int]:
        return self._subsets[i] & self._malicious

    def legitimate_in(self, i: int) -> frozenset[int]:
        return self._subsets[i] - self._malicious

    def malicious_count(self, i: int) -> int:
        """Number of malicious members of community i (its f value)."""
        return len(self.malicious_in(i))

    def require_covering(self, g: Graph) -> None:
        """Raise unless the communities cover exactly the agents of `g`."""
        have = frozenset(self._owner)
        want = frozenset(range(g.n))
        missing = sorted(want - have)
        extra = sorted(have - want)
        problems = []
        if missing:
            problems.append(f"agents in no community: {missing}")
        if extra:
            problems.append(f"community ids not in the graph: {extra}")
        if problems:
            raise ValueError("; ".join(problems))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunityLayout):
            return NotImplemented
        return self._subsets == other._subsets and self._malicious == other._malicious

    def __hash__(self) -> int:
        return hash((self._subsets, self._malicious))

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(s)) for s in self._subsets)
        return f"CommunityLayout(sizes=[{sizes}], malicious={len(self._malicious)})"


def content_lines(text: str) -> list[tuple[int, str]]:
    """The stripped lines of `text` with their 1-based line numbers, minus
    blank lines and lines starting with '#'."""
    numbered = ((lineno, raw.strip()) for lineno, raw in enumerate(text.splitlines(), start=1))
    return [(lineno, line) for lineno, line in numbered if line and not line.startswith("#")]


def read_int(lineno: int, token: str, what: str = "integer") -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad {what} {token!r}") from None


def read_graph(lines: list[tuple[int, str]]) -> Graph:
    """Read numbered graph lines: `n <count>`, then one `u v` per edge."""
    if not lines:
        raise FormatError("missing 'n <count>' line")
    (lineno, line), edge_lines = lines[0], lines[1:]
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "n":
        raise FormatError(f"line {lineno}: expected 'n <count>', got {line!r}")
    n = read_int(lineno, tokens[1], "agent count")
    if n * _AGENT_BYTES > physical_memory():  # refused before anything is allocated
        raise MemoryError(f"{n} agents need about {n * _AGENT_BYTES} bytes")

    def pairs():  # notes the line it is on, so that any error can name it
        nonlocal lineno
        for lineno, line in edge_lines:
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError(f"expected 'u v', got {line!r}")
            try:
                yield int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ValueError(f"bad edge {line!r}") from None

    try:
        return Graph(n, pairs())
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def parse_graph(text: str) -> Graph:
    """Parse the plain graph format: a line `n <count>`, then one `u v` per edge.

    Blank lines and lines starting with '#' are ignored.
    """
    return read_graph(content_lines(text))


def format_graph(g: Graph) -> str:
    """The plain graph format, one `u v` line per edge with u < v, in
    ascending (u, v) order."""
    lines = [f"n {g.n}"]
    for u in range(g.n):
        row = g.neighbors(u)
        higher = row[bisect.bisect_right(row, u):]
        if higher:  # u's lines, joined as one block
            lines.append(f"{u} " + f"\n{u} ".join(map(str, higher)))
    return "\n".join(lines) + "\n"


def read_ids(lineno: int, tokens: list[str]) -> list[int]:
    """Integer agent ids of one line; an id listed twice is an error."""
    try:
        ids = [int(tok) for tok in tokens]
    except ValueError:
        raise FormatError(f"line {lineno}: bad id list {' '.join(tokens)!r}") from None
    if len(set(ids)) != len(ids):
        twice = sorted(u for u in set(ids) if ids.count(u) > 1)
        raise FormatError(f"line {lineno}: ids listed twice: {twice}")
    return ids


def read_indexed(
    lines: list[tuple[int, str]]
) -> tuple[dict[int, tuple[int, str]], list[tuple[int, str]]]:
    """Split `community <i>: <rest>` lines from the others.

    Returns {i: (line number, rest)} and the other lines in order; an index
    listed twice is an error.
    """
    listed: dict[int, tuple[int, str]] = {}
    others: list[tuple[int, str]] = []
    for lineno, line in lines:
        head, sep, rest = line.partition(":")
        tokens = head.split()
        if not sep or len(tokens) != 2 or tokens[0] != "community":
            others.append((lineno, line))
            continue
        idx = read_int(lineno, tokens[1], "community index")
        if idx in listed:
            raise FormatError(f"line {lineno}: community {idx} listed twice")
        listed[idx] = (lineno, rest)
    return listed, others


def read_members(listed: dict[int, tuple[int, str]]) -> list[list[int]]:
    """Member id lists of communities 1..len(listed), in index order."""
    if not listed:
        raise FormatError("no community lines found")
    order = range(1, len(listed) + 1)
    if sorted(listed) != list(order):
        raise FormatError(f"community indices must be 1..{len(listed)}, got {sorted(listed)}")
    return [read_ids(listed[i][0], listed[i][1].split()) for i in order]


def read_malicious(lines: list[tuple[int, str]]) -> tuple[int, str] | None:
    """The one `malicious: <rest>` line that `lines` may hold, as (line number, rest)."""
    for k, (lineno, line) in enumerate(lines):
        head, sep, _ = line.partition(":")
        if not sep or head.strip() != "malicious":
            raise FormatError(f"line {lineno}: unrecognized line {line!r}")
        if k:
            raise FormatError(f"line {lineno}: repeated malicious line")
    return (lines[0][0], lines[0][1].partition(":")[2]) if lines else None


def parse_communities(text: str) -> CommunityLayout:
    """Parse the community format: `community <i>: <ids>` lines, 1-based and
    consecutive, plus an optional `malicious: <ids>` line."""
    listed, others = read_indexed(content_lines(text))
    found = read_malicious(others)
    malicious = read_ids(found[0], found[1].split()) if found else []
    try:
        return CommunityLayout(read_members(listed), malicious)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_communities(layout: CommunityLayout) -> str:
    lines = []
    for i, subset in enumerate(layout.subsets, start=1):
        lines.append(f"community {i}: " + " ".join(str(u) for u in sorted(subset)))
    lines.append("malicious: " + " ".join(str(u) for u in sorted(layout.malicious)))
    return "\n".join(lines) + "\n"
