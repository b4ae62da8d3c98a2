"""Combinatorial characteristic polynomial oracle.

The k-th coefficient of the characteristic polynomial can be read off the
graph itself: enumerate all packings of pairwise vertex-disjoint components,
each component either a single edge of the underlying graph or a simple
cycle, covering exactly k vertices.  Each cycle of a packing is traversed
in both directions in the determinant, so a packing with r = #vertices
minus #components contributes ``(-1)**r * prod over cycles of
2*Re(cycle walk value)``, and ``(-1)**k * c_k`` is the sum of the
contributions.

Packings are enumerated by their lowest free vertex.  Every edge and every
simple cycle is filed under its lowest vertex, and each cycle's arc balance
is computed once.  The recursion then decides the vertices in increasing
order: the lowest vertex not yet decided either stays uncovered or is
covered by one item of its own bucket that misses every covered vertex.
Each packing is reached exactly once, and a step looks only at the items
that could cover its vertex.  The characteristic polynomial needs no
packing objects: the recursion counts how many packings share each sequence
of item sizes and cycle balances, which fixes k, r and the sorted balances,
and every alpha is evaluated from those counts.  ``enumerate_elementary``
runs the same recursion, so its order within one k is the recursion's.

This is deliberately exponential.  It exists as an independent cross-check
of the numeric path on desk-sized graphs, so it is guarded at 12 vertices.
All phase arithmetic is exact for rational alpha; the real part of a phase
comes from a table-backed cosine and contributions are accumulated with
``math.fsum``, so the only float error is the short cosine product.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, NamedTuple

from .errors import InvalidWalkError, ScaleLimitError
from .graphs import Edge, MixedGraph, Walk, enumerate_simple_cycles, underlying
from .phases import Phase, arc_balance, rotation_cos, walk_value_h
from .spectra import CharPoly

__all__ = [
    "MAX_ORACLE_VERTICES",
    "RankData",
    "ElementarySubgraph",
    "enumerate_elementary",
    "subgraph_term",
    "char_poly_expansion",
]

MAX_ORACLE_VERTICES = 12


class RankData(NamedTuple):
    r: int
    s: int


@dataclass(frozen=True)
class ElementarySubgraph:
    """A packing of disjoint single edges and simple cycles.

    Cycles are stored as closed walks in one fixed traversal; the term is
    direction independent because only the real part of the product enters.
    """

    p2_edges: tuple[Edge, ...]
    cycles: tuple[Walk, ...]
    vertex_set: frozenset[int]

    @property
    def component_count(self) -> int:
        return len(self.p2_edges) + len(self.cycles)

    @property
    def rank_data(self) -> RankData:
        return RankData(len(self.vertex_set) - self.component_count, len(self.cycles))


def _guard(graph: MixedGraph) -> None:
    if graph.n > MAX_ORACLE_VERTICES:
        raise ScaleLimitError(
            f"expansion oracle is limited to {MAX_ORACLE_VERTICES} vertices, got {graph.n}"
        )


def _packings(
    graph: MixedGraph, label: Callable[[Edge | Walk, int | None], Hashable]
) -> dict[tuple[Hashable, ...], int]:
    """Count the packings by the labels of their items.

    ``label(part, balance)`` labels each item: an edge with balance None, or
    a simple cycle, as a closed walk, with its arc balance.  The result maps
    every sequence of item labels, items in order of their lowest vertex,
    to the number of packings that read it; the empty packing reads the
    empty sequence.  When the labels tell items apart, every count is 1 and
    the keys list each packing once, in a fixed order.

    Every item is filed under its lowest vertex, and each cycle's balance is
    computed once.  The recursion takes the lowest vertex not yet decided:
    it stays uncovered, or an item of its bucket that misses every covered
    vertex covers it.  Items of that bucket hold no lower vertex, so each
    packing is reached along exactly one path, and a step scans only the
    bucket of its own vertex.
    """
    n = graph.n
    buckets: list[list[tuple[int, Hashable]]] = [[] for _ in range(n)]
    for e in graph.sorted_edges:
        u, v = e.pair
        buckets[u].append((1 << u | 1 << v, label(e, None)))
    if n >= 3:
        for c in enumerate_simple_cycles(underlying(graph), n):
            mask = sum(1 << v for v in c.vertices[:-1])
            buckets[c.vertices[0]].append((mask, label(c, arc_balance(graph, c).balance)))
    counts: defaultdict[tuple[Hashable, ...], int] = defaultdict(int)

    def rec(v: int, covered: int, labels: tuple[Hashable, ...]) -> None:
        while v < n and covered >> v & 1:
            v += 1
        if v == n:
            counts[labels] += 1
            return
        rec(v + 1, covered, labels)
        for mask, item in buckets[v]:
            if not covered & mask:
                rec(v + 1, covered | mask, labels + (item,))

    rec(0, 0, ())
    return counts


def enumerate_elementary(graph: MixedGraph, k: int) -> tuple[ElementarySubgraph, ...]:
    """All packings covering exactly k vertices (k = 0 gives the empty one).

    The order is fixed for a given graph; it follows the enumeration by
    lowest free vertex, not component count.
    """
    _guard(graph)
    if not 0 <= k <= graph.n:
        raise ValueError(f"k must be between 0 and n={graph.n}")
    found: list[ElementarySubgraph] = []
    for parts in _packings(graph, lambda part, _: part):
        edges = tuple(p for p in parts if isinstance(p, Edge))
        cycles = tuple(p for p in parts if isinstance(p, Walk))
        covered = frozenset(v for e in edges for v in e.pair).union(
            *(c.vertices for c in cycles)
        )
        if len(covered) == k:
            found.append(ElementarySubgraph(edges, cycles, covered))
    return tuple(found)


def subgraph_term(graph: MixedGraph, alpha: Phase, sub: ElementarySubgraph) -> float:
    """Contribution of one packing: (-1)^r * prod over cycles of 2*Re(value).

    Both traversal directions of every cycle enter the determinant, each
    cycle independently, so the factors multiply as real parts (conjugate
    pairs), never as the real part of one long product.
    """
    for e in sub.p2_edges:
        if e not in graph.edges:
            raise InvalidWalkError(f"packing edge ({e.u}, {e.v}) is not in the graph")
    r, _ = sub.rank_data
    term = -1.0 if r % 2 else 1.0
    for c in sub.cycles:
        term *= 2.0 * walk_value_h(graph, alpha, c).real
    return term


def _size_and_balance(part: Edge | Walk, balance: int | None) -> tuple[int, int | None]:
    """A packing item's vertex count and, for a cycle, its arc balance."""
    return (2, None) if balance is None else (len(part) - 1, balance)


@lru_cache(maxsize=128)
def _term_profile(
    graph: MixedGraph,
) -> tuple[dict[tuple[int, tuple[int, ...]], int], ...]:
    """Per cover size k, the multiset of (r, sorted cycle balances) pairs.

    Every cycle value is alpha to the cycle's balance and enters through its
    real part, so the sorted balance tuple is all an alpha needs to evaluate
    a packing's term.  The enumeration counts packings by the vertex count
    and balance of each item, which fix k, r and the balances; no packing
    object is built.
    """
    prof: list[dict[tuple[int, tuple[int, ...]], int]] = [
        defaultdict(int) for _ in range(graph.n + 1)
    ]
    for labels, count in _packings(graph, _size_and_balance).items():
        k = sum(size for size, _ in labels)
        cycles = sorted(b for _, b in labels if b is not None)
        prof[k][k - len(labels), tuple(cycles)] += count
    return tuple(dict(d) for d in prof)


def char_poly_expansion(graph: MixedGraph, alpha: Phase) -> CharPoly:
    """All coefficients c1..cn from the packing enumeration."""
    _guard(graph)
    prof = _term_profile(graph)
    rot = alpha.rotation
    coeffs: list[float] = []
    for k in range(1, graph.n + 1):
        terms: list[float] = []
        for (r, balances), count in prof[k].items():
            term = -1.0 if r % 2 else 1.0
            for b in balances:
                term *= 2.0 * rotation_cos(rot * b)
            terms.append(count * term)
        sign = -1.0 if k % 2 else 1.0
        coeffs.append(sign * math.fsum(terms))
    return CharPoly(tuple(coeffs))
