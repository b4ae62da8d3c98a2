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
from collections import deque
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
    """BFS spanning forest plus one closed walk per non-tree edge.

    Component roots are the smallest vertex ids.  Each cycle starts at the
    deepest common tree ancestor of its non-tree edge, runs down the tree to
    one endpoint, crosses the non-tree edge, and climbs back.  ``parents``,
    ``roots``, ``depths`` and ``balances`` describe the forest per vertex
    (parent is None at roots): the tree path from the component root to a
    vertex has ``depths[v]`` edges and arc balance ``balances[v]``, the
    forward minus the backward arcs along it.

    ``cycle_balances[i]`` is the arc balance of ``cycles[i]``.  The two tree
    paths cancel up to the branch point, so across its non-tree edge
    ``u -> v`` the cycle's balance is
    ``balances[u] + pair_code(u, v) - balances[v]``.
    """

    cycles: tuple[Walk, ...]
    parents: tuple[int | None, ...]
    roots: tuple[int, ...]
    depths: tuple[int, ...]
    balances: tuple[int, ...]
    cycle_balances: tuple[int, ...]


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
        u, op, v = int(m.group(1)), m.group(2), int(m.group(3))
        if u == v:
            raise GraphFormatError(f"line {idx}: loop at vertex {u}")
        if u >= n or v >= n:
            raise GraphFormatError(f"line {idx}: vertex id out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"line {idx}: second edge for pair {key}")
        seen.add(key)
        edges.append(Edge.digon(u, v) if op == "--" else Edge.arc(u, v))
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
    """BFS spanning forest and the closed walk of every non-tree edge.

    The number of cycles is ``|E| - n + #components``.  Each cycle contains
    exactly one non-tree edge, traversed right after the tree path down to
    the edge's stored tail, so the walk reads tree vertices first and closes
    back at the branch point.
    """
    parents: list[int | None] = [None] * graph.n
    roots = [-1] * graph.n
    depths = [0] * graph.n
    balances = [0] * graph.n
    codes = graph._codes
    tree_pairs: set[tuple[int, int]] = set()
    for r in range(graph.n):
        if roots[r] != -1:
            continue
        roots[r] = r
        queue = deque([r])
        while queue:
            x = queue.popleft()
            for y in graph.neighbors(x):
                if roots[y] == -1:
                    roots[y] = r
                    parents[y] = x
                    depths[y] = depths[x] + 1
                    balances[y] = balances[x] + codes[x, y]
                    tree_pairs.add((min(x, y), max(x, y)))
                    queue.append(y)
    non_tree = [e for e in graph.sorted_edges if e.pair not in tree_pairs]
    cycles = tuple(_fundamental_walk(e, parents, depths) for e in non_tree)
    cycle_balances = tuple(balances[e.u] + codes[e.u, e.v] - balances[e.v] for e in non_tree)
    forest = (tuple(parents), tuple(roots), tuple(depths), tuple(balances))
    return FundamentalCycleBasis(cycles, *forest, cycle_balances)


def _fundamental_walk(edge: Edge, parents: list[int | None], depths: list[int]) -> Walk:
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
    graphs the oracles run on.  The search carries the path's vertex mask
    and arc balance as it extends the path, reading each step from the
    pair-code table that ``phases.arc_balance`` reads, so every cycle comes
    with both and no walk is looked up again.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    out: list[SimpleCycle] = []
    codes = graph._codes
    steps = [tuple((w, codes[v, w]) for w in graph.neighbors(v)) for v in range(graph.n)]
    path: list[int] = []

    def extend(s: int, mask: int, balance: int) -> None:
        last = path[-1]
        for w, code in steps[last]:
            if w == s:
                if len(path) >= 3 and path[1] < last:
                    out.append(SimpleCycle((*path, s), mask, balance + code))
            elif w > s and not mask >> w & 1 and len(path) < max_len:
                path.append(w)
                extend(s, mask | 1 << w, balance + code)
                path.pop()

    for s in range(graph.n):
        path.clear()
        path.append(s)
        extend(s, 1 << s, 0)
    return tuple(out)
