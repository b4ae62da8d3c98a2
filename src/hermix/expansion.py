"""Combinatorial characteristic polynomial oracle.

The k-th coefficient of the characteristic polynomial can be read off the
graph itself: enumerate all packings of pairwise vertex-disjoint components,
each component either a single edge of the underlying graph or a simple
cycle, covering exactly k vertices.  Each cycle of a packing is traversed
in both directions in the determinant, so a packing with r = #vertices
minus #components contributes ``(-1)**r * prod over cycles of
2*Re(cycle walk value)``, and ``(-1)**k * c_k`` is the sum of the
contributions.

A packing is a packing of disjoint cycles completed by a matching of the
vertices the cycles leave uncovered, and only the cycles carry a phase.  So
the cycles are enumerated and the matchings are counted.  The simple-cycle
search records each cycle's vertex mask and arc balance as it builds the
walk.  Every cycle is filed under its lowest vertex, and a recursion lists
each cycle packing exactly once, adding its cycles in increasing order of
their lowest vertex.  The matchings of a vertex set are counted by size in
a table memoised on the set's mask.  A cycle packing covering s vertices
with c cycles, completed by j edges, covers k = s + 2j vertices with
r = s - c + j.  So the packings are counted by k, r and sorted cycle
balances without building one, and every alpha is evaluated from those
counts.

This is deliberately exponential.  It exists as an independent cross-check
of the numeric path on desk-sized graphs, so it is guarded at 12 vertices.
All phase arithmetic is exact for rational alpha; the real part of a phase
comes from a table-backed cosine and contributions are accumulated with
``math.fsum``, so the only float error is the short cosine product.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable

from .errors import ScaleLimitError
from .graphs import MixedGraph, SimpleCycle, enumerate_simple_cycles
from .phases import Phase, rotation_cos
from .spectra import CharPoly

__all__ = ["char_poly_expansion"]

MAX_ORACLE_VERTICES = 12


def _guard(graph: MixedGraph) -> None:
    if graph.n > MAX_ORACLE_VERTICES:
        raise ScaleLimitError(
            f"expansion oracle is limited to {MAX_ORACLE_VERTICES} vertices, got {graph.n}"
        )


def _cycle_packings(graph: MixedGraph) -> list[tuple[int, tuple[SimpleCycle, ...]]]:
    """Every packing of pairwise disjoint simple cycles, the empty one first.

    Each packing comes as its covered-vertex mask and its cycles in order of
    their lowest vertex.  Every cycle is filed under its lowest vertex, with
    the cycles on one vertex set kept together.  A packing is listed, then
    extended by each cycle that misses every covered vertex and whose lowest
    vertex is free and above the lowest vertex of the packing's last cycle.
    The cycles of a packing have distinct lowest vertices, so each packing
    is reached along exactly one path, and each vertex set is tested once
    per packing that could take it.
    """
    n = graph.n
    by_set: list[dict[int, list[SimpleCycle]]] = [{} for _ in range(n)]
    if n >= 3:
        for c in enumerate_simple_cycles(graph, n):
            by_set[c.vertices[0]].setdefault(c.mask, []).append(c)
    buckets = [list(d.items()) for d in by_set]
    found: list[tuple[int, tuple[SimpleCycle, ...]]] = []

    def extend(first: int, covered: int, cycles: tuple[SimpleCycle, ...]) -> None:
        found.append((covered, cycles))
        for v in range(first, n):
            if covered >> v & 1:
                continue
            for mask, same_set in buckets[v]:
                if not covered & mask:
                    for c in same_set:
                        extend(v + 1, covered | mask, cycles + (c,))

    extend(0, 0, ())
    return found


def _matching_counts(graph: MixedGraph) -> Callable[[int], list[int]]:
    """``m(S)``: entry j counts the j-edge matchings on the vertex mask S.

    With v the lowest vertex of S, a matching leaves v unmatched or matches
    it to a neighbor u in S, so ``m(S) = m(S-v) + x * sum m(S-v-u)`` as
    polynomials in x.  Every mask is computed once and memoised.  Dropping
    an edge of a j-edge matching leaves a (j-1)-edge one, so no entry below
    the largest matching size is zero.
    """
    nbrs = [sum(1 << u for u in graph.neighbors(v)) for v in range(graph.n)]
    memo: dict[int, list[int]] = {0: [1]}

    def m(free: int) -> list[int]:
        hit = memo.get(free)
        if hit is not None:
            return hit
        low = free & -free
        rest = free ^ low
        counts = list(m(rest))
        partners = nbrs[low.bit_length() - 1] & rest
        while partners:
            bit = partners & -partners
            partners ^= bit
            sub = m(rest ^ bit)
            if len(sub) >= len(counts):
                counts.append(0)
            for j, c in enumerate(sub, 1):
                counts[j] += c
        memo[free] = counts
        return counts

    return m


def _term_profile(
    graph: MixedGraph,
) -> tuple[dict[tuple[int, tuple[int, ...]], int], ...]:
    """Per cover size k, the multiset of (r, sorted cycle balances) pairs.

    Every cycle value is alpha to the cycle's balance and enters through its
    real part, so the sorted balance tuple is all an alpha needs to evaluate
    a packing's term.  A packing is a packing of cycles completed by a
    matching of the vertices it leaves uncovered.  The cycle packings are
    grouped by covered-vertex mask and sorted balances, and the matchings
    are only counted: a cycle packing covering s vertices with c cycles,
    completed by j edges, covers k = s + 2j vertices in c + j components,
    so it adds to ``prof[s + 2j][(s - c + j, balances)]``.
    """
    groups: defaultdict[tuple[int, tuple[int, ...]], int] = defaultdict(int)
    for covered, cycles in _cycle_packings(graph):
        groups[covered, tuple(sorted(c.balance for c in cycles))] += 1
    matchings = _matching_counts(graph)
    full = (1 << graph.n) - 1
    prof: list[defaultdict[tuple[int, tuple[int, ...]], int]] = [
        defaultdict(int) for _ in range(graph.n + 1)
    ]
    for (covered, balances), count in groups.items():
        s = covered.bit_count()
        r = s - len(balances)
        for j, m in enumerate(matchings(full ^ covered)):
            prof[s + 2 * j][r + j, balances] += count * m
    return tuple(dict(d) for d in prof)


def char_poly_expansion(graph: MixedGraph, alpha: Phase) -> CharPoly:
    """All coefficients c1..cn from the packing enumeration."""
    _guard(graph)
    prof = _term_profile(graph)
    rot = alpha.rotation
    # the factor 2*Re(alpha**b) of each distinct balance, taken once
    balances = {b for d in prof for _, bs in d for b in bs}
    factor = {b: 2.0 * rotation_cos(rot * b) for b in balances}
    coeffs: list[float] = []
    for k in range(1, graph.n + 1):
        terms: list[float] = []
        for (r, balances), count in prof[k].items():
            term = -1.0 if r % 2 else 1.0
            for b in balances:
                term *= factor[b]
            terms.append(count * term)
        sign = -1.0 if k % 2 else 1.0
        coeffs.append(sign * math.fsum(terms))
    return CharPoly(tuple(coeffs))
