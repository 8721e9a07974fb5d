"""Undirected simple graphs over dense agent ids, plus community partitions
and the line reader that graph files, community files and scenario documents
share.

Agents are integers 0..n-1.  Graphs are immutable once built and neighbor
iteration is sorted by id, so every downstream computation sees the same
deterministic order.  A graph is stored in compressed sparse row (CSR) form,
as two read-only numpy int64 arrays: `indices` holds every agent's neighbors
in ascending id order, row after row, and row u is
indices[indptr[u]:indptr[u + 1]].  Edge sets, edge lookups (searchsorted),
degrees, external degrees, induced subgraphs and bitmasks are derived from
them with numpy on each call, and every id a view returns is a Python int.
Graph() checks all edges at once; only when that check fails does a plain
loop name the first bad edge in input order, by the one edge rule
(_edge_problem) that parse_graph's line-by-line pass also applies.

Only '\n' ends a line, so the line numbers in error messages are those of
`grep -n`.  A document is read as slices of its text, each with the number
of its first line; no Python object is made per line unless a line needs its
own pass.  The edge lines of a graph and the entry lines of an adversary
table are read by bulk_rows: with the '#' lines cut out, numpy's text reader
(np.loadtxt) converts a slice of ASCII text into the rows of a structured
dtype at once.  Anything it declines or warns about (a non-ASCII character,
'_', an id beyond int64 or written as a float, a bad token or a wrong token
count) and any bad edge or entry
goes to the line-by-line pass, the only code that reads such input or names
an error: the first bad line in document order.
"""

from __future__ import annotations

import io
import operator
import os
import re
import warnings
from typing import Iterable, NamedTuple

import numpy as np

# Bytes a declared agent may cost while its graph is built, checked before
# anything is allocated: 80 per agent, measured at n = 10^6 and 4 * 10^6 on
# Python 3.11 for adjacency lists of tuples, a bound the CSR arrays (about
# 16 bytes an agent while they are built) stay well under.
_AGENT_BYTES = 80


def physical_memory() -> int:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # unknown: the 64-bit address space
        return 1 << 64


class FormatError(ValueError):
    """Raised when a graph or community text document does not parse."""


def id_array(ids: list) -> np.ndarray:
    """Integer ids, or lists of them, as an int64 array, or as an object
    array of Python ints (which compare exactly) when some id is beyond int64."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def _pair_array(edges) -> np.ndarray:
    """The edges as a (k, 2) array."""
    pairs = edges if isinstance(edges, np.ndarray) else id_array(list(edges))
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    return pairs if pairs.dtype.kind in "iuO" else pairs.astype(np.int64)


def _csr(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices of the graph on n agents with edges `pairs`; a
    ValueError names the first edge, in input order, that _edge_problem finds."""
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise _first_bad_edge(n, pairs)
    pairs, m = pairs.astype(np.int64, copy=False), max(n, 1)
    # each edge in both directions as the key agent * m + neighbor, ascending;
    # a self-loop's two keys are equal, as a repeated edge's are
    both = (pairs * m + pairs[:, ::-1]).ravel()
    both.sort()
    if (both[1:] == both[:-1]).any():
        raise _first_bad_edge(n, pairs)
    return both.searchsorted(np.arange(0, (n + 1) * m, m)), both % m


def _first_bad_edge(n: int, pairs: np.ndarray) -> ValueError:
    """The error for the first bad edge of `pairs`, which holds one.
    tolist() gives Python ints, so every id prints as written."""
    seen: set[tuple[int, int]] = set()
    for a, b in pairs.tolist():
        if problem := _edge_problem(n, a, b, seen):
            return ValueError(problem)


def _edge_problem(n: int, a: int, b: int, seen: set[tuple[int, int]]) -> str | None:
    """What is wrong with edge (a, b) of a graph on n agents that already has
    the edges `seen`: a self-loop, an end outside 0..n-1 or a repeat.  None
    when nothing is, and the edge joins `seen`."""
    if a == b:
        return f"self-loop on agent {a}"
    if not (0 <= a < n and 0 <= b < n):
        return f"edge ({a}, {b}) outside agent range 0..{n - 1}"
    edge = (min(a, b), max(a, b))
    if edge in seen:
        return f"duplicate edge {edge}"
    seen.add(edge)


def _rows(indptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of the rows of `nodes`, row after row: each entry's row
    (an index into nodes) and its position in indices; and each row's length."""
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    row = np.arange(nodes.size).repeat(lengths)
    # an entry's position is its place in the result shifted by its row's start
    return row, np.arange(row.size) + (starts - lengths.cumsum() + lengths)[row], lengths


class Graph:
    """Immutable undirected simple graph on agents 0..n-1, stored as CSR arrays."""

    __slots__ = ("_indptr", "_indices")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        """`edges` is an iterable of (u, v) pairs or a (k, 2) integer array."""
        n = operator.index(n)
        if n < 0:
            raise ValueError("agent count must be non-negative")
        indptr, indices = _csr(n, _pair_array(edges))
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._indptr, self._indices = indptr, indices

    @property
    def n(self) -> int:
        return len(self._indptr) - 1

    @property
    def indptr(self) -> np.ndarray:
        """Row offsets, n + 1 of them (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Every agent's neighbors in ascending id order, row after row (read-only)."""
        return self._indices

    def _sources(self) -> np.ndarray:
        """The agent whose row holds each entry of indices."""
        return np.repeat(np.arange(self.n), np.diff(self._indptr))

    def _pairs(self) -> np.ndarray:
        """The edges as a (k, 2) array of (u, v) with u < v, in ascending order."""
        src = self._sources()
        up = self._indices > src
        return np.column_stack([src[up], self._indices[up]])

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edge set as (u, v) pairs with u < v."""
        return frozenset(map(tuple, self._pairs().tolist()))

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbors of u in ascending id order."""
        self._check_agent(u)
        return tuple(self._indices[self._indptr.item(u):self._indptr.item(u + 1)].tolist())

    def degree(self, u: int) -> int:
        self._check_agent(u)
        return self._indptr.item(u + 1) - self._indptr.item(u)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_agent(u)
        self._check_agent(v)
        row = self._indices[self._indptr.item(u):self._indptr.item(u + 1)]
        i = row.searchsorted(v)
        return bool(i < row.size and row[i] == v)

    def edge_positions(self, u, v) -> np.ndarray:
        """For id arrays u and v within 0..n-1: where each v sits in u's row,
        as a position in indices, or -1 where u and v are not adjacent."""
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        keys = self._sources() * self.n + self._indices  # ascending
        want = u * self.n + v
        at = np.minimum(keys.searchsorted(want), max(keys.size - 1, 0))
        hit = keys[at] == want if keys.size else np.zeros(want.shape, dtype=bool)
        return np.where(hit, at, -1)

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("minimum degree of an empty graph is undefined")
        return int(np.diff(self._indptr).min())

    def external_degrees(self, members: Iterable[int]) -> dict[int, int]:
        """Number of edges each member has to agents outside `members`, in
        ascending member order."""
        nodes = self._check_members(members)
        inside = np.zeros(self.n, dtype=bool)
        inside[nodes] = True
        row, at, lengths = _rows(self._indptr, nodes)
        inner = np.bincount(row[inside[self._indices[at]]], minlength=nodes.size)
        return dict(zip(nodes.tolist(), (lengths - inner).tolist()))

    def max_external_degree(self, members: Iterable[int]) -> int:
        """Largest number of edges any member has to agents outside `members`."""
        return max(self.external_degrees(members).values())

    def induced_subgraph(self, members: Iterable[int]) -> "InducedSubgraph":
        """Subgraph on `members`, relabeled 0..k-1 in ascending original id order."""
        nodes = self._check_members(members)
        index = np.full(self.n, -1, dtype=np.int64)
        index[nodes] = np.arange(nodes.size)
        row, at, _ = _rows(self._indptr, nodes)
        new = index[self._indices[at]]
        up = new > row  # a member neighbor, each edge once
        sub = Graph(nodes.size, np.array([row[up], new[up]]).T)
        return InducedSubgraph(sub, tuple(nodes.tolist()))

    def is_complete(self) -> bool:
        return bool(np.all(np.diff(self._indptr) == self.n - 1))

    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-agent neighbor sets as bitmasks (bit v set iff v is a neighbor)."""
        ids, ptr = self._indices.tolist(), self._indptr.tolist()
        return tuple(sum(map((1).__lshift__, ids[a:b])) for a, b in zip(ptr, ptr[1:]))

    def _check_agent(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise ValueError(f"agent id {u} outside 0..{self.n - 1}")

    def _check_members(self, members: Iterable[int]) -> np.ndarray:
        """The member ids, sorted and without repeats."""
        ids = sorted(set(map(int, members)))
        if not ids:
            raise ValueError("member set must be non-empty")
        if ids[0] < 0 or ids[-1] >= self.n:
            bad = [u for u in ids if not 0 <= u < self.n]
            raise ValueError(f"member ids outside 0..{self.n - 1}: {bad}")
        return np.array(ids, dtype=np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    def __hash__(self) -> int:
        return hash((self._indptr.tobytes(), self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._indices.size // 2})"


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
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """One graph holding a copy of `a` and a copy of `b` shifted by a.n."""
    return Graph(a.n + b.n, np.concatenate([a._pairs(), b._pairs() + a.n]))


def add_cross_edges(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    """New graph with `pairs` added as edges.

    Graph checks the pairs after g's own edges, so a self-loop, an edge
    already present or a pair repeated in the input is its ValueError.
    """
    return Graph(g.n, np.concatenate([g._pairs(), _pair_array(pairs)]))


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


def content_lines(text: str, start: int = 1) -> list[tuple[int, str]]:
    """The stripped lines of `text` with their line numbers, the first line
    being number `start`, minus blank lines and lines starting with '#'.
    Only '\n' ends a line; the '\r' of a CRLF ending is stripped with the
    rest of the whitespace."""
    lines = map(str.strip, text.split("\n"))
    return [item for item in enumerate(lines, start) if item[1] and item[1][0] != "#"]


# a line neither blank nor '#': '.' matches all but '\n', and \s is what
# str.strip() strips
_CONTENT = re.compile(r"^[^\S\n]*[^\s#].*", re.M)


def head_line(text: str, start: int = 1) -> tuple[int, str, int] | None:
    """The first of content_lines(text, start), with the offset in `text`
    at which the next line starts; None when `text` has no such line."""
    found = _CONTENT.search(text)
    if found is None:
        return None
    return start + text.count("\n", 0, found.start()), found.group().strip(), found.end() + 1


def read_int(lineno: int, token: str, what: str = "integer") -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad {what} {token!r}") from None


# a '#' line, as content_lines sees one: whitespace, then '#'
_COMMENT_LINE = re.compile(r"^[^\S\n]*#.*", re.M)
# a graph's edge line, read as one field of two ids
_EDGE = np.dtype([("edge", np.int64, 2)])


def bulk_rows(text: str, dtype: np.dtype) -> np.ndarray | None:
    """The rows of `text`, one per line that is neither blank nor '#', read
    at once by numpy's text reader as a 1-d array of the structured `dtype`,
    whose fields fix the tokens of a row.  None when `text` is not ASCII or
    the reader declines a line; the caller then reads `text` in its
    line-by-line pass, which alone names an error.

    Only ASCII text reaches numpy: on numpy 2.4.6 repeated loadtxt calls on
    rejected lines holding astral-plane characters crashed the interpreter.
    On ASCII text loadtxt's whitespace is str.split()'s, and it reads an
    int64 or a float64 exactly as int() and float() do or declines it (it
    reads no '_', no id beyond int64, no lone '\r' inside a row).  Any
    warning the reader raises declines the text too, whatever the warning
    filters say: numpy releases that still carry the 1.23 deprecation read
    '1.9' in an int64 field as 1 and only warn."""
    if "#" in text:
        text = _COMMENT_LINE.sub("", text)
    if text.isspace() or not text:  # loadtxt warns on text without rows
        return np.empty(0, dtype)
    if not text.isascii():
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(io.StringIO(text), dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


def parse_graph(text: str, start: int = 1) -> Graph:
    """Parse the plain graph format, the first line numbered `start`: a line
    `n <count>`, then one `u v` per edge.  Blank lines and lines starting
    with '#' are ignored.

    bulk_rows reads the edge lines at once and Graph() checks the edges.
    When either fails the edge lines are read again one at a time, and only
    that pass names the error: the first line, in file order, that is not
    two integers or whose edge breaks the edge rule (_edge_problem) Graph()
    applies too.
    """
    head = head_line(text, start)
    if head is None:
        raise FormatError("missing 'n <count>' line")
    lineno, line, rest = head
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "n":
        raise FormatError(f"line {lineno}: expected 'n <count>', got {line!r}")
    n = read_int(lineno, tokens[1], "agent count")
    if n < 0:
        raise FormatError(f"line {lineno}: agent count must be non-negative")
    if n * _AGENT_BYTES > physical_memory():  # refused before anything is allocated
        raise MemoryError(f"{n} agents need about {n * _AGENT_BYTES} bytes")

    edge_lines = text[rest:]
    rows = bulk_rows(edge_lines, _EDGE)
    if rows is not None:
        try:
            return Graph(n, rows["edge"])
        except ValueError:  # a bad edge
            pass
    seen: set[tuple[int, int]] = set()  # only a document with an error gets here
    for lineno, line in content_lines(edge_lines, lineno + 1):
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError(f"line {lineno}: bad edge {line!r}") from None
        if problem := _edge_problem(n, a, b, seen):
            raise FormatError(f"line {lineno}: {problem}")
    return Graph(n, list(seen))


def format_graph(g: Graph) -> str:
    """The plain graph format, one `u v` line per edge with u < v, in
    ascending (u, v) order."""
    pairs = g._pairs()
    return f"n {g.n}\n" + ("%d %d\n" * len(pairs)) % tuple(pairs.ravel().tolist())


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
