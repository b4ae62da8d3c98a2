"""Mixed graphs and their cycle machinery.

A mixed graph keeps at most one edge per vertex pair: either an undirected
digon or a single arc with a direction.  Vertices are dense integer ids
``0..n-1`` and loops are forbidden.  Forgetting directions gives the
underlying graph, which drives all connectivity and cycle questions.

A graph is stored as one edge table: a row ``(lo, hi, digit)`` per edge,
``lo < hi`` its vertex pair, the rows sorted by pair.  The digit is the one
the exhaustive search's base-4 codes use for the pair: 1 for a digon, 2 for
an arc from ``lo`` up to ``hi``, 3 for an arc from ``hi`` down to ``lo``
(0, no edge, never appears in a table).  ``_DIGIT_STEP[digit]`` is the
pair code of the step from ``lo`` to ``hi``.  The parser and the code
decoder check their input once and hand the table over as it is, and
:meth:`MixedGraph.from_edges` builds it from digon and arc pairs; the
neighbour lists, the pair codes, the spanning forest and the Hermitian
matrix are all read off it, each on first use.  Two graphs are equal
exactly when their vertex counts and tables are.  A walk is a plain tuple
of vertices.

Every type here is immutable after construction, so instances are safe to
share between threads and to use as cache keys; the operations are pure
functions of their arguments.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import GraphFormatError

__all__ = [
    "MixedGraph",
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


# one edge table row: (lo, hi, digit) with lo < hi
_Row = tuple[int, int, int]

# the pair code of the step from lo to hi, by digit: none, digon, arc up, arc down
_DIGIT_STEP = (0, 0, 1, -1)


def _ends(row: _Row) -> tuple[int, int]:
    """The stored tail and head of a row's edge: a digon runs from lo."""
    lo, hi, digit = row
    return (hi, lo) if digit == 3 else (lo, hi)


def _vertex_id(u: object) -> int:
    """``u`` as a plain int: numpy integers pass; floats, strings and bools raise."""
    if not isinstance(u, bool) and hasattr(type(u), "__index__"):
        return operator.index(u)
    raise ValueError(f"vertex id {u!r} is not an integer")


@dataclass(frozen=True, init=False)
class MixedGraph:
    """A loop-free mixed graph on vertices ``0..n-1``, one edge per pair at most.

    Build one with :meth:`from_edges`, :func:`parse_graph` or
    :func:`hermix.cospectral.mixed_graph_from_code`.
    """

    n: int
    _table: tuple[_Row, ...]

    @classmethod
    def _from_table(cls, n: int, table: tuple[_Row, ...]) -> "MixedGraph":
        """A graph over an edge table its caller has already checked."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "_table", table)
        return graph

    @classmethod
    def from_edges(
        cls,
        n: int,
        digons: Iterable[tuple[int, int]] = (),
        arcs: Iterable[tuple[int, int]] = (),
    ) -> "MixedGraph":
        """A graph with digons on the given pairs and arcs from the first
        vertex of each pair to the second.

        An edge given twice counts once.  Ids must be integers; the rows are
        then checked in table order, so an error names the lowest offending row.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        digons = [(_vertex_id(u), _vertex_id(v)) for u, v in digons]
        arcs = [(_vertex_id(u), _vertex_id(v)) for u, v in arcs]
        rows = {(u, v, 1) if u < v else (v, u, 1) for u, v in digons}
        rows.update((u, v, 2) if u < v else (v, u, 3) for u, v in arcs)
        table: list[_Row] = []
        for row in sorted(rows):
            lo, hi, _ = row
            if lo == hi:
                raise ValueError(f"loop at vertex {lo}")
            if lo < 0:
                raise ValueError("negative vertex id")
            if hi >= n:
                raise ValueError(f"edge {_ends(row)} uses a vertex id >= n={n}")
            if table and table[-1][:2] == row[:2]:
                raise ValueError(f"more than one edge for pair {row[:2]}")
            table.append(row)
        return cls._from_table(n, tuple(table))

    @cached_property
    def cycle_basis(self) -> FundamentalCycleBasis:
        """The graph's fundamental cycle basis, built once per graph."""
        return fundamental_cycles(self)

    @cached_property
    def _steps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, each neighbour in ascending order with the pair code of
        the step to it.  Rows come sorted by pair, so every vertex meets its
        lower neighbours first and each list is ascending as it is built."""
        steps: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for lo, hi, digit in self._table:
            code = _DIGIT_STEP[digit]
            steps[lo].append((hi, code))
            steps[hi].append((lo, -code))
        return tuple(map(tuple, steps))

    def pair_code(self, u: int, v: int) -> int | None:
        """0 for a digon, +1/-1 for an arc traversed with/against its direction,
        None when u and v are not adjacent."""
        steps = self._steps[u] if 0 <= u < self.n else ()
        return next((code for w, code in steps if w == v), None)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbors in the underlying graph, ascending."""
        return tuple(w for w, _ in self._steps[u])


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

    The i-th fundamental cycle is the one the i-th non-tree row of the edge
    table closes.  Its arc balance ``cycle_balances[i]`` and length parity
    ``cycle_parities[i]`` are recorded eagerly: the two tree paths cancel up
    to the branch point, so across a non-tree edge ``u -> v`` the balance is
    ``balances[u] + pair_code(u, v) - balances[v]`` and the parity is
    ``(depths[u] + depths[v] + 1) % 2``.

    The closed walks are built only on demand, one per :meth:`cycle` call.
    Each starts at the deepest common tree ancestor of its non-tree edge,
    runs down the tree to the edge's stored tail, crosses the edge, and
    climbs back.
    """

    _closing: tuple[_Row, ...]
    parents: tuple[int | None, ...]
    roots: tuple[int, ...]
    depths: tuple[int, ...]
    balances: tuple[int, ...]
    cycle_balances: tuple[int, ...]
    cycle_parities: tuple[int, ...]

    def cycle(self, i: int) -> tuple[int, ...]:
        """The closed walk of the i-th fundamental cycle, as its vertices."""
        return _fundamental_walk(*_ends(self._closing[i]), self.parents, self.depths)


class SimpleCycle(NamedTuple):
    """A simple cycle: the vertices of its closed walk, the bit mask of its
    vertices (bit v set for vertex v) and its arc balance along the walk."""

    vertices: tuple[int, ...]
    mask: int
    balance: int


# One line of the format: a vertex count, an edge ``u -- v`` or ``u -> v``,
# or nothing, with any whitespace around the tokens (``[^\S\n]`` is exactly
# what ``str.isspace`` accepts, less the line break) and an optional ``#``
# comment.  A line of any other shape lands whole in the last group.
_LINE_RE = re.compile(
    r"^(?:[^\S\n]*(?:([0-9]+)[^\S\n]*(?:(--|->)[^\S\n]*([0-9]+)[^\S\n]*)?)?(?:#.*)?|(.*))$",
    re.MULTILINE,
)


def parse_graph(text: str) -> MixedGraph:
    """Parse the plain text graph format.

    First significant line is the vertex count; after that ``u -- v`` adds a
    digon and ``u -> v`` an arc.  Numbers are ASCII digits.  ``#`` starts a
    comment, blank lines are skipped, and any whitespace may surround the
    tokens.  Errors carry 1-based line numbers, as ``str.splitlines`` counts
    lines.  One pass over the lines checks them and fills the edge table.
    """
    lines = text.splitlines()
    n: int | None = None
    rows: list[_Row] = []
    pairs: set[tuple[int, int]] = set()
    for idx, (a, op, b, other) in enumerate(_LINE_RE.findall("\n".join(lines)), start=1):
        if not (a or other):
            continue
        if n is None:
            if other or op:
                raise GraphFormatError(
                    f"line {idx}: expected a vertex count, got {lines[idx - 1].strip()!r}"
                )
            try:
                n = int(a)
            except ValueError as exc:  # more digits than int() converts
                raise GraphFormatError(f"line {idx}: {exc}") from None
            continue
        if other or not op:
            raise GraphFormatError(f"line {idx}: malformed edge {lines[idx - 1].strip()!r}")
        try:
            u, v = int(a), int(b)
        except ValueError as exc:
            raise GraphFormatError(f"line {idx}: {exc}") from None
        if u == v:
            raise GraphFormatError(f"line {idx}: loop at vertex {u}")
        if u >= n or v >= n:
            raise GraphFormatError(f"line {idx}: vertex id out of range for n={n}")
        if u < v:
            row = (u, v, 1 if op == "--" else 2)
        else:
            row = (v, u, 1 if op == "--" else 3)
        pair = row[:2]
        if pair in pairs:
            raise GraphFormatError(f"line {idx}: second edge for pair {pair}")
        pairs.add(pair)
        rows.append(row)
    if n is None:
        raise GraphFormatError("missing vertex count line")
    rows.sort()
    return MixedGraph._from_table(n, tuple(rows))


def serialize_graph(graph: MixedGraph) -> str:
    """Write a graph back in the text format, edges sorted by vertex pair."""
    lines = [str(graph.n)]
    for row in graph._table:
        u, v = _ends(row)
        lines.append(f"{u} -- {v}" if row[2] == 1 else f"{u} -> {v}")
    return "\n".join(lines) + "\n"


def degree_profile(graph: MixedGraph) -> DegreeProfile:
    """Degrees in the underlying graph plus the regularity flag."""
    degs = tuple(map(len, graph._steps))
    dmax = max(degs, default=0)
    regular = all(d == dmax for d in degs)
    return DegreeProfile(degs, dmax, regular)


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
    steps = graph._steps
    for r in range(n):
        if roots[r] != -1:
            continue
        roots[r] = r
        # a list read while it grows is the BFS queue
        queue = [r]
        for x in queue:
            depth, balance = depths[x] + 1, balances[x]
            for y, code in steps[x]:
                if roots[y] == -1:
                    roots[y] = r
                    parents[y] = x
                    depths[y] = depth
                    balances[y] = balance + code
                    queue.append(y)
    closing = []
    cycle_balances = []
    cycle_parities = []
    for row in graph._table:
        lo, hi, digit = row
        if parents[lo] != hi and parents[hi] != lo:
            closing.append(row)
            # across the edge from lo; an arc stored from hi runs the other way
            shift = balances[lo] + _DIGIT_STEP[digit] - balances[hi]
            cycle_balances.append(-shift if digit == 3 else shift)
            cycle_parities.append((depths[lo] + depths[hi] + 1) % 2)
    forest = (tuple(parents), tuple(roots), tuple(depths), tuple(balances))
    return FundamentalCycleBasis(
        tuple(closing), *forest, tuple(cycle_balances), tuple(cycle_parities)
    )


def _fundamental_walk(
    u: int, v: int, parents: tuple[int | None, ...], depths: tuple[int, ...]
) -> tuple[int, ...]:
    up_a = [u]
    up_b = [v]
    x, y = u, v
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
    return (*reversed(up_a), *up_b)


def enumerate_simple_cycles(graph: MixedGraph, max_len: int) -> tuple[SimpleCycle, ...]:
    """All simple cycles with 3..max_len vertices, one representative each.

    A cycle is reported as a closed walk rooted at its smallest vertex with
    the second vertex smaller than the second-to-last, which fixes rotation
    and reflection.  Plain exhaustive backtracking over whole paths, the
    brute-force reference for small graphs: once the second vertex is fixed,
    the walk can only close from a neighbour of the start above it, so a
    path stops growing when all of those are on it.  Each cycle's vertex mask
    and arc balance are summed along its path.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    out: list[SimpleCycle] = []
    steps = graph._steps
    adjacent = [sum(1 << w for w, _ in steps[v]) for v in range(graph.n)]
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
