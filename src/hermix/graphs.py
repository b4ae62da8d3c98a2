"""Mixed graphs and their cycle machinery.

A mixed graph keeps at most one edge per vertex pair: either an undirected
digon or a single arc with a direction.  Vertices are dense integer ids
``0..n-1`` and loops are forbidden.  Forgetting directions gives the
underlying graph, which drives all connectivity and cycle questions.

Every type here is immutable after construction, so instances are safe to
share between threads and to use as cache keys; the operations are pure
functions of their arguments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import GraphFormatError

__all__ = [
    "EdgeKind",
    "Edge",
    "MixedGraph",
    "Walk",
    "DegreeProfile",
    "FundamentalCycleBasis",
    "SimpleCycle",
    "parse_graph",
    "serialize_graph",
    "degree_profile",
    "connected_components",
    "fundamental_cycles",
    "enumerate_simple_cycles",
]


class EdgeKind(Enum):
    DIGON = "digon"
    ARC = "arc"


@dataclass(frozen=True)
class Edge:
    """One edge: an undirected digon (stored with ``u < v``) or an arc ``u -> v``."""

    u: int
    v: int
    kind: EdgeKind

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"loop at vertex {self.u}")
        if self.u < 0 or self.v < 0:
            raise ValueError("negative vertex id")
        if self.kind is EdgeKind.DIGON and self.u > self.v:
            raise ValueError("digon endpoints must be stored smaller id first")

    @classmethod
    def digon(cls, u: int, v: int) -> "Edge":
        return cls(min(u, v), max(u, v), EdgeKind.DIGON)

    @classmethod
    def arc(cls, u: int, v: int) -> "Edge":
        return cls(u, v, EdgeKind.ARC)

    @property
    def pair(self) -> tuple[int, int]:
        """Unordered endpoints, smaller id first."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True)
class MixedGraph:
    """A loop-free mixed graph on vertices ``0..n-1``, one edge per pair at most."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        pairs: set[tuple[int, int]] = set()
        for e in self.edges:
            if e.u >= self.n or e.v >= self.n:
                raise ValueError(f"edge ({e.u}, {e.v}) uses a vertex id >= n={self.n}")
            if e.pair in pairs:
                raise ValueError(f"more than one edge for pair {e.pair}")
            pairs.add(e.pair)

    @classmethod
    def from_edges(
        cls,
        n: int,
        digons: Iterable[tuple[int, int]] = (),
        arcs: Iterable[tuple[int, int]] = (),
    ) -> "MixedGraph":
        es = [Edge.digon(u, v) for u, v in digons]
        es += [Edge.arc(u, v) for u, v in arcs]
        return cls(n, frozenset(es))

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges, key=lambda e: e.pair))

    @cached_property
    def cycle_basis(self) -> FundamentalCycleBasis:
        """The graph's fundamental cycle basis, built once per graph."""
        return fundamental_cycles(self)

    @cached_property
    def _codes(self) -> dict[tuple[int, int], int]:
        # 0 digon, +1 arc traversed with its direction, -1 against it
        codes: dict[tuple[int, int], int] = {}
        for e in self.edges:
            if e.kind is EdgeKind.DIGON:
                codes[e.u, e.v] = 0
                codes[e.v, e.u] = 0
            else:
                codes[e.u, e.v] = 1
                codes[e.v, e.u] = -1
        return codes

    def pair_code(self, u: int, v: int) -> int | None:
        """0 for a digon, +1/-1 for an arc traversed with/against its direction,
        None when u and v are not adjacent."""
        return self._codes.get((u, v))

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            rows[e.u].append(e.v)
            rows[e.v].append(e.u)
        return tuple(tuple(sorted(r)) for r in rows)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbors in the underlying graph, ascending."""
        return self._neighbors[u]

    @cached_property
    def _split_neighbors(
        self,
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        dig: list[list[int]] = [[] for _ in range(self.n)]
        out: list[list[int]] = [[] for _ in range(self.n)]
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for e in self.edges:
            if e.kind is EdgeKind.DIGON:
                dig[e.u].append(e.v)
                dig[e.v].append(e.u)
            else:
                out[e.u].append(e.v)
                inc[e.v].append(e.u)
        freeze = lambda rows: tuple(tuple(sorted(r)) for r in rows)
        return freeze(dig), freeze(out), freeze(inc)

    def digon_neighbors(self, u: int) -> tuple[int, ...]:
        return self._split_neighbors[0][u]

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        """Heads of arcs leaving u."""
        return self._split_neighbors[1][u]

    def in_neighbors(self, u: int) -> tuple[int, ...]:
        """Tails of arcs entering u."""
        return self._split_neighbors[2][u]


@dataclass(frozen=True)
class Walk:
    """A vertex sequence.  Adjacency of consecutive vertices is checked by the
    operations that evaluate a walk against a concrete graph."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.vertices) < 1:
            raise ValueError("a walk has at least one vertex")

    @property
    def is_closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def steps(self) -> Iterator[tuple[int, int]]:
        return zip(self.vertices, self.vertices[1:])

    def reversed(self) -> "Walk":
        return Walk(tuple(reversed(self.vertices)))

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


class DegreeProfile(NamedTuple):
    degrees: tuple[int, ...]
    max_degree: int
    is_regular: bool


@dataclass(frozen=True)
class FundamentalCycleBasis:
    """BFS spanning forest plus its non-tree edges, one fundamental cycle each.

    Component roots are the smallest vertex ids.  ``parents``, ``roots``,
    ``depths`` and ``balances`` describe the forest per vertex (parent is
    None at roots): the tree path from the component root to a vertex has
    ``depths[v]`` edges and arc balance ``balances[v]``, the forward minus
    the backward arcs along it.

    ``non_tree`` holds the non-tree edges in ``sorted_edges`` order, and the
    i-th fundamental cycle is the one ``non_tree[i]`` closes.  Its arc
    balance ``cycle_balances[i]`` and length parity ``cycle_parities[i]``
    are recorded eagerly: the two tree paths cancel up to the branch point,
    so across a non-tree edge ``u -> v`` the balance is
    ``balances[u] + pair_code(u, v) - balances[v]`` and the parity is
    ``(depths[u] + depths[v] + 1) % 2``.

    The closed walks are built only on demand: :meth:`cycle` builds one,
    :attr:`cycles` all of them, once.  Each starts at the deepest common
    tree ancestor of its non-tree edge, runs down the tree to the edge's
    stored tail, crosses the edge, and climbs back.
    """

    non_tree: tuple[Edge, ...]
    parents: tuple[int | None, ...]
    roots: tuple[int, ...]
    depths: tuple[int, ...]
    balances: tuple[int, ...]
    cycle_balances: tuple[int, ...]
    cycle_parities: tuple[int, ...]

    def cycle(self, i: int) -> Walk:
        """The closed walk of the i-th fundamental cycle."""
        return _fundamental_walk(self.non_tree[i], self.parents, self.depths)

    @cached_property
    def cycles(self) -> tuple[Walk, ...]:
        """Every fundamental cycle's closed walk, in ``non_tree`` order."""
        return tuple(map(self.cycle, range(len(self.non_tree))))


class SimpleCycle(NamedTuple):
    """A simple cycle: the vertices of its closed walk, the bit mask of its
    vertices (bit v set for vertex v) and its arc balance along the walk."""

    vertices: tuple[int, ...]
    mask: int
    balance: int

    @property
    def walk(self) -> Walk:
        return Walk(self.vertices)


_EDGE_RE = re.compile(r"^(\d+)\s*(--|->)\s*(\d+)$")


def parse_graph(text: str) -> MixedGraph:
    """Parse the plain text graph format.

    First significant line is the vertex count; after that ``u -- v`` adds a
    digon and ``u -> v`` an arc.  ``#`` starts a comment, blank lines are
    skipped.  Errors carry 1-based line numbers.
    """
    n: int | None = None
    edges: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    # looked up once: reading an enum member off its class costs a method call
    digon, arc = EdgeKind.DIGON, EdgeKind.ARC
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.isdigit():
                raise GraphFormatError(f"line {idx}: expected a vertex count, got {raw.strip()!r}")
            n = int(line)
            continue
        m = _EDGE_RE.match(line)
        if not m:
            raise GraphFormatError(f"line {idx}: malformed edge {raw.strip()!r}")
        tail, op, head = m.groups()
        u, v = int(tail), int(head)
        if u == v:
            raise GraphFormatError(f"line {idx}: loop at vertex {u}")
        if u >= n or v >= n:
            raise GraphFormatError(f"line {idx}: vertex id out of range for n={n}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"line {idx}: second edge for pair {key}")
        seen.add(key)
        edges.append(Edge(*key, digon) if op == "--" else Edge(u, v, arc))
    if n is None:
        raise GraphFormatError("missing vertex count line")
    return MixedGraph(n, frozenset(edges))


def serialize_graph(graph: MixedGraph) -> str:
    """Write a graph back in the text format, edges sorted by vertex pair."""
    lines = [str(graph.n)]
    for e in graph.sorted_edges:
        if e.kind is EdgeKind.DIGON:
            lines.append(f"{e.u} -- {e.v}")
        else:
            lines.append(f"{e.u} -> {e.v}")
    return "\n".join(lines) + "\n"


def degree_profile(graph: MixedGraph) -> DegreeProfile:
    """Degrees in the underlying graph plus the regularity flag."""
    degs = [0] * graph.n
    for e in graph.edges:
        degs[e.u] += 1
        degs[e.v] += 1
    dmax = max(degs, default=0)
    regular = all(d == dmax for d in degs)
    return DegreeProfile(tuple(degs), dmax, regular)


def connected_components(graph: MixedGraph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the components of the underlying graph, ordered by
    smallest member; each component tuple is ascending.  They are read off
    the roots of the graph's spanning forest, which are those smallest
    members."""
    comps: dict[int, list[int]] = {}
    for v, r in enumerate(graph.cycle_basis.roots):
        comps.setdefault(r, []).append(v)
    return tuple(map(tuple, comps.values()))


def fundamental_cycles(graph: MixedGraph) -> FundamentalCycleBasis:
    """BFS spanning forest, its non-tree edges and their cycles' balances
    and length parities.

    The number of cycles is ``|E| - n + #components``.  A pair is a tree
    edge exactly when one end is the other's parent, since a pair carries
    at most one edge.
    """
    n = graph.n
    parents: list[int | None] = [None] * n
    roots = [-1] * n
    depths = [0] * n
    balances = [0] * n
    codes = graph._codes
    neighbors = graph._neighbors
    for r in range(n):
        if roots[r] != -1:
            continue
        roots[r] = r
        # a list read while it grows is the BFS queue
        queue = [r]
        for x in queue:
            for y in neighbors[x]:
                if roots[y] == -1:
                    roots[y] = r
                    parents[y] = x
                    depths[y] = depths[x] + 1
                    balances[y] = balances[x] + codes[x, y]
                    queue.append(y)
    non_tree = tuple(
        e for e in graph.sorted_edges if parents[e.u] != e.v and parents[e.v] != e.u
    )
    cycle_balances = tuple(balances[e.u] + codes[e.u, e.v] - balances[e.v] for e in non_tree)
    cycle_parities = tuple((depths[e.u] + depths[e.v] + 1) % 2 for e in non_tree)
    forest = (tuple(parents), tuple(roots), tuple(depths), tuple(balances))
    return FundamentalCycleBasis(non_tree, *forest, cycle_balances, cycle_parities)


def _fundamental_walk(
    edge: Edge, parents: tuple[int | None, ...], depths: tuple[int, ...]
) -> Walk:
    up_a = [edge.u]
    up_b = [edge.v]
    x, y = edge.u, edge.v
    while depths[x] > depths[y]:
        x = parents[x]  # type: ignore[assignment]
        up_a.append(x)
    while depths[y] > depths[x]:
        y = parents[y]  # type: ignore[assignment]
        up_b.append(y)
    while x != y:
        x = parents[x]  # type: ignore[assignment]
        y = parents[y]  # type: ignore[assignment]
        up_a.append(x)
        up_b.append(y)
    # branch point .. u, the non-tree edge u -> v, then v .. branch point
    path = list(reversed(up_a)) + up_b
    return Walk(tuple(path))


def enumerate_simple_cycles(graph: MixedGraph, max_len: int) -> tuple[SimpleCycle, ...]:
    """All simple cycles with 3..max_len vertices, one representative each.

    A cycle is reported as a closed walk rooted at its smallest vertex with
    the second vertex smaller than the second-to-last, which fixes rotation
    and reflection.  Plain exhaustive backtracking, intended for the small
    graphs the oracles run on; once the second vertex is fixed, the walk can
    only close from a neighbour of the start above it, so a path stops
    growing when all of those are on it, and each cycle is reached in one
    direction only.  The search carries the path's vertex mask
    and arc balance as it extends the path, reading each step from the
    pair-code table that ``phases.arc_balance`` reads, so every cycle comes
    with both and no walk is looked up again.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    out: list[SimpleCycle] = []
    codes = graph._codes
    steps = [tuple((w, codes[v, w]) for w in graph.neighbors(v)) for v in range(graph.n)]
    adjacent = [sum(1 << w for w in graph.neighbors(v)) for v in range(graph.n)]
    path: list[int] = []

    def extend(s: int, ends: int, mask: int, balance: int) -> None:
        # ``ends``: the start's neighbours above the second vertex, the only
        # vertices the walk may close from; grow only while one is off the path
        last = path[-1]
        grow = len(path) < max_len and ends & ~mask
        for w, code in steps[last]:
            if w == s:
                if len(path) >= 3 and path[1] < last:
                    out.append(SimpleCycle((*path, s), mask, balance + code))
            elif grow and w > s and not mask >> w & 1:
                path.append(w)
                extend(s, ends, mask | 1 << w, balance + code)
                path.pop()

    for s in range(graph.n):
        for v1, code in steps[s]:
            ends = adjacent[s] >> (v1 + 1) << (v1 + 1)
            if v1 > s and ends:
                path[:] = (s, v1)
                extend(s, ends, 1 << s | 1 << v1, code)
    return tuple(out)
