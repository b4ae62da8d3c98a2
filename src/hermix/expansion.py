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
vertices they leave.  A cycle's phase depends on its arc balance alone, so
no cycle or packing is built: cycles are counted by vertex set and balance,
cycle packings by covered mask and balances, and matchings by size.  A
cycle packing of s vertices and c cycles with j edges covers k = s + 2j
vertices with r = s - c + j, and every alpha is evaluated from the counts.

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
from .graphs import MixedGraph
from .phases import Phase, rotation_cos

__all__ = ["char_poly_expansion"]

MAX_ORACLE_VERTICES = 12


def _guard(graph: MixedGraph) -> None:
    if graph.n > MAX_ORACLE_VERTICES:
        raise ScaleLimitError(
            f"expansion oracle is limited to {MAX_ORACLE_VERTICES} vertices, got {graph.n}"
        )


def _cycle_counts(graph: MixedGraph) -> list[dict[int, dict[int, int]]]:
    """Per lowest vertex s, each vertex mask of a simple cycle mapped to how
    many simple cycles on it have each arc balance, counted in the direction
    of :func:`enumerate_simple_cycles` (second vertex below second-to-last).
    A path is carried as its last vertex, mask (set from 0 to s at the start)
    and balance, and grows only while a vertex it may close from is off it."""
    steps = graph._steps
    nbrs = [tuple((w, 1 << w, code) for w, code in vs) for vs in steps]
    found: list[dict[int, dict[int, int]]] = [{} for _ in steps]
    for s in range(graph.n - 2):
        below = (1 << s) - 1
        # the pair code of the step from a neighbour back to s
        closing = {w: -code for w, code in steps[s]}
        adjacent = sum(1 << w for w in closing)
        for v1, code in steps[s]:
            ends = adjacent >> (v1 + 1) << (v1 + 1)
            if v1 < s or not ends:
                continue
            stack = [(v1, below | 1 << s | 1 << v1, code)]
            while stack:
                last, mask, balance = stack.pop()
                if ends >> last & 1:
                    counts = found[s].setdefault(mask ^ below, {})
                    b = balance + closing[last]
                    counts[b] = counts.get(b, 0) + 1
                if ends & ~mask:
                    for w, bit, step in nbrs[last]:
                        if not mask & bit:
                            stack.append((w, mask | bit, balance + step))
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


def _term_profile(graph: MixedGraph) -> tuple[dict[tuple[int, tuple[int, ...]], int], ...]:
    """Per cover size k, the multiset of (r, sorted cycle balances) pairs.
    A recursion adds the vertex sets of :func:`_cycle_counts` in increasing
    order of their lowest vertex, each disjoint from the covered mask and
    each balance with its multiplicity, so every cycle packing is counted
    once, and completes each by every matching of the vertices it leaves."""
    n = graph.n
    sets = _cycle_counts(graph)
    matchings = _matching_counts(graph)
    full = (1 << n) - 1
    prof: list[defaultdict[tuple[int, tuple[int, ...]], int]] = [
        defaultdict(int) for _ in range(n + 1)
    ]

    def extend(first: int, covered: int, balances: tuple[int, ...], count: int) -> None:
        s = covered.bit_count()
        for j, m in enumerate(matchings(full ^ covered)):
            prof[s + 2 * j][s - len(balances) + j, balances] += count * m
        free = (full ^ covered) >> first << first
        # a set's lowest vertex has two free vertices above it
        while free.bit_count() >= 3:
            v = (free & -free).bit_length() - 1
            free ^= 1 << v
            for mask, counts in sets[v].items():
                if not covered & mask:
                    for b, times in counts.items():
                        extend(v + 1, covered | mask, tuple(sorted((*balances, b))), count * times)

    extend(0, 0, (), 1)
    return tuple(dict(d) for d in prof)


def char_poly_expansion(graph: MixedGraph, alpha: Phase) -> tuple[float, ...]:
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
    return tuple(coeffs)
