"""Combinatorial characteristic polynomial oracle.

The k-th coefficient of the characteristic polynomial can be read off the
graph itself: enumerate all packings of pairwise vertex-disjoint components,
each component either a single edge of the underlying graph or a simple
cycle, covering exactly k vertices.  Each cycle of a packing is traversed
in both directions in the determinant, so a packing with r = #vertices
minus #components contributes ``(-1)**r * prod over cycles of
2*Re(cycle walk value)``, and ``(-1)**k * c_k`` is the sum of the
contributions.

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
from typing import NamedTuple

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


def _packings(graph: MixedGraph) -> tuple[ElementarySubgraph, ...]:
    """Every packing (including the empty one), in a fixed deterministic order."""
    items: list[tuple[frozenset[int], tuple[int, ...], object]] = []
    for e in graph.sorted_edges:
        items.append((frozenset(e.pair), e.pair, e))
    if graph.n >= 3:
        for c in enumerate_simple_cycles(underlying(graph), graph.n):
            items.append((frozenset(c.vertices[:-1]), c.vertices, c))
    items.sort(key=lambda t: (min(t[0]), len(t[0]), t[1]))
    masks = [sum(1 << v for v in vs) for vs, _, _ in items]

    results: list[ElementarySubgraph] = []
    chosen_edges: list[Edge] = []
    chosen_cycles: list[Walk] = []
    covered: list[int] = []

    def rec(i: int, used: int) -> None:
        results.append(
            ElementarySubgraph(tuple(chosen_edges), tuple(chosen_cycles), frozenset(covered))
        )
        for j in range(i, len(items)):
            if used & masks[j]:
                continue
            vs, _, payload = items[j]
            if isinstance(payload, Edge):
                chosen_edges.append(payload)
            else:
                chosen_cycles.append(payload)
            covered.extend(vs)
            rec(j + 1, used | masks[j])
            del covered[-len(vs) :]
            if isinstance(payload, Edge):
                chosen_edges.pop()
            else:
                chosen_cycles.pop()

    rec(0, 0)
    return tuple(results)


def enumerate_elementary(graph: MixedGraph, k: int) -> tuple[ElementarySubgraph, ...]:
    """All packings covering exactly k vertices (k = 0 gives the empty one)."""
    _guard(graph)
    if not 0 <= k <= graph.n:
        raise ValueError(f"k must be between 0 and n={graph.n}")
    return tuple(s for s in _packings(graph) if len(s.vertex_set) == k)


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


@lru_cache(maxsize=128)
def _term_profile(
    graph: MixedGraph,
) -> tuple[dict[tuple[int, tuple[int, ...]], int], ...]:
    """Per cover size k, the multiset of (r, sorted cycle balances) pairs.

    Every cycle value is alpha to the cycle's balance and enters through its
    real part, so the sorted balance tuple is all an alpha needs to evaluate
    a packing's term.
    """
    prof: list[dict[tuple[int, tuple[int, ...]], int]] = [
        defaultdict(int) for _ in range(graph.n + 1)
    ]
    for sub in _packings(graph):
        r, _ = sub.rank_data
        balances = tuple(sorted(arc_balance(graph, c).balance for c in sub.cycles))
        prof[len(sub.vertex_set)][r, balances] += 1
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
