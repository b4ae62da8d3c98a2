"""Cospectrality of one mixed graph under two different unit phases.

The numeric test compares sorted spectra and characteristic polynomial
coefficients; both must agree within tolerance for a cospectral verdict.
Alongside it run cheap structural sufficient conditions:

* trees have no cycles, so the phase never shows up at all;
* a graph whose fundamental cycles all have even arc balance keeps its
  spectrum when switching between the phases at one third and one sixth of
  a turn (the two sixth roots of unity with positive imaginary part);
* arc-only bipartite graphs satisfy that condition for free;
* a graph that is a monograph (either kind) for both phases has its
  spectrum pinned to plus or minus the underlying one by the phases' kinds.

None of the conditions is necessary.  When a condition fires but the
numeric verdict disagrees, something is numerically wrong and the check
raises instead of returning a quiet answer.

The search helpers enumerate mixed graphs by a base-4 code over the vertex
pairs in lexicographic order: 0 no edge, 1 digon, 2 arc low to high, 3 arc
high to low.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import NumericalError, ScaleLimitError
from .graphs import Edge, EdgeKind, MixedGraph, underlying
from .monographs import MonographKind, is_monograph
from .phases import Phase
from .spectra import (
    DEFAULT_TOL,
    build_hermitian,
    char_poly,
    eigen_decomposition,
)

__all__ = [
    "StructuralFlags",
    "CospectralReport",
    "even_arc_condition",
    "oriented_bipartite",
    "numeric_cospectral",
    "mixed_graph_from_code",
    "enumerate_mixed_graphs",
    "search_cospectral",
]

MAX_EXHAUSTIVE_VERTICES = 5

_SIXTH_PAIR = {Fraction(1, 3), Fraction(1, 6)}


@dataclass(frozen=True)
class StructuralFlags:
    """Sufficient conditions evaluated on the graph itself, independent of
    any numerics.

    ``monograph_both`` means both phases make the graph a monograph of one
    common kind; a first kind shared by both pins each spectrum to the
    underlying one, a shared second kind to its negation.  Phases that are
    monographs of different kinds do not qualify: their spectra are the
    negatives of each other.
    """

    even_arc_condition: bool
    oriented_bipartite: bool
    tree: bool
    monograph_both: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "even_arc_condition": self.even_arc_condition,
            "oriented_bipartite": self.oriented_bipartite,
            "tree": self.tree,
            "monograph_both": self.monograph_both,
        }


@dataclass(frozen=True)
class CospectralReport:
    alpha1: Phase
    alpha2: Phase
    cospectral: bool
    max_gap: float
    flags: StructuralFlags


def even_arc_condition(graph: MixedGraph) -> bool:
    """Every cycle crosses an even number of arcs.

    Arc parity of a cycle is linear over GF(2) in the fundamental basis, so
    checking the basis cycles settles all cycles at once.  Traversal
    direction never changes the count.
    """
    for walk in graph.cycle_basis.cycles:
        arcs = sum(
            1
            for a, b in walk.steps()
            if graph.pair_code(a, b) in (1, -1)
        )
        if arcs % 2:
            return False
    return True


def oriented_bipartite(graph: MixedGraph) -> bool:
    """No digons and the underlying graph is 2-colorable."""
    if any(e.kind is EdgeKind.DIGON for e in graph.edges):
        return False
    skeleton = underlying(graph)
    color = [-1] * graph.n
    for s in range(graph.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            x = queue.pop()
            for y in skeleton.neighbors(x):
                if color[y] == -1:
                    color[y] = color[x] ^ 1
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _is_tree_like(graph: MixedGraph) -> bool:
    # forests count: no fundamental cycles at all
    return not graph.cycle_basis.cycles


def _same_kind_both(graph: MixedGraph, alpha1: Phase, alpha2: Phase) -> bool:
    for kind in (MonographKind.FIRST, MonographKind.SECOND):
        if (
            is_monograph(graph, alpha1, kind).verdict
            and is_monograph(graph, alpha2, kind).verdict
        ):
            return True
    return False


def _structural_flags(
    graph: MixedGraph, alpha1: Phase, alpha2: Phase
) -> StructuralFlags:
    return StructuralFlags(
        even_arc_condition=even_arc_condition(graph),
        oriented_bipartite=oriented_bipartite(graph),
        tree=_is_tree_like(graph),
        monograph_both=_same_kind_both(graph, alpha1, alpha2),
    )


def numeric_cospectral(
    graph: MixedGraph,
    alpha1: Phase,
    alpha2: Phase,
    tol: float = DEFAULT_TOL,
) -> CospectralReport:
    """Compare the spectra of one graph under two phases.

    The verdict holds when both the largest eigenvalue gap and the largest
    characteristic coefficient gap stay within ``tol``.  If a structural
    sufficient condition promises cospectrality but the numbers disagree, a
    NumericalError is raised; a sound implementation never reaches it.
    """
    m1 = build_hermitian(graph, alpha1)
    m2 = build_hermitian(graph, alpha2)
    spec1, _ = eigen_decomposition(m1)
    spec2, _ = eigen_decomposition(m2)
    spec_gap = (
        max(abs(a - b) for a, b in zip(spec1.values, spec2.values))
        if graph.n
        else 0.0
    )
    p1 = char_poly(m1, spec1)
    p2 = char_poly(m2, spec2)
    coeff_gap = (
        max(abs(a - b) for a, b in zip(p1.coefficients, p2.coefficients))
        if graph.n
        else 0.0
    )
    max_gap = max(spec_gap, coeff_gap)
    cospectral = max_gap <= tol
    flags = _structural_flags(graph, alpha1, alpha2)
    guaranteed = flags.tree
    if {alpha1.rotation, alpha2.rotation} == _SIXTH_PAIR and (
        flags.even_arc_condition or flags.oriented_bipartite
    ):
        guaranteed = True
    if flags.monograph_both:
        guaranteed = True
    if guaranteed and not cospectral:
        raise NumericalError(
            f"structural condition promises cospectrality but max gap is {max_gap:.3e}"
        )
    return CospectralReport(alpha1, alpha2, cospectral, max_gap, flags)


def mixed_graph_from_code(n: int, code: int) -> MixedGraph:
    """Decode a base-4 integer into a mixed graph on ``n`` vertices.

    Digit positions follow the pairs (0,1), (0,2), ..., in lexicographic
    order, least significant digit first.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    pair_count = n * (n - 1) // 2
    if not 0 <= code < 4**pair_count:
        raise ValueError(f"code {code} out of range for {n} vertices")
    edges = []
    rest = code
    for u in range(n):
        for v in range(u + 1, n):
            digit = rest % 4
            rest //= 4
            if digit == 1:
                edges.append(Edge.digon(u, v))
            elif digit == 2:
                edges.append(Edge.arc(u, v))
            elif digit == 3:
                edges.append(Edge.arc(v, u))
    return MixedGraph(n, frozenset(edges))


def enumerate_mixed_graphs(n: int) -> Iterator[tuple[int, MixedGraph]]:
    """All mixed graphs on ``n`` labeled vertices, paired with their codes.

    Guarded: the count is 4 to the number of pairs, so only small n is
    allowed."""
    if n > MAX_EXHAUSTIVE_VERTICES:
        raise ScaleLimitError(
            f"exhaustive enumeration is capped at {MAX_EXHAUSTIVE_VERTICES} vertices"
        )
    pair_count = n * (n - 1) // 2
    for code in range(4**pair_count):
        yield code, mixed_graph_from_code(n, code)


def search_cospectral(
    n: int,
    alpha1: Phase,
    alpha2: Phase,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
    tol: float = DEFAULT_TOL,
) -> list[tuple[int, MixedGraph, CospectralReport]]:
    """Find graphs on ``n`` vertices cospectral under the two phases.

    ``mode="exhaustive"`` walks every code (small n only).  ``mode="random"``
    samples ``count`` distinct codes without replacement using ``seed``;
    both are then required so runs stay reproducible.  Returns the hits as
    (code, graph, report) triples in increasing code order.
    """
    if mode == "exhaustive":
        source: Iterator[tuple[int, MixedGraph]] = enumerate_mixed_graphs(n)
    elif mode == "random":
        if count is None or seed is None:
            raise ValueError("random mode requires both count and seed")
        pair_count = n * (n - 1) // 2
        total = 4**pair_count
        if count > total:
            raise ValueError(f"cannot sample {count} codes from {total}")
        rng = random.Random(seed)
        codes = sorted(rng.sample(range(total), count))
        source = ((c, mixed_graph_from_code(n, c)) for c in codes)
    else:
        raise ValueError(f"unknown search mode: {mode!r}")
    hits = []
    for code, graph in source:
        report = numeric_cospectral(graph, alpha1, alpha2, tol)
        if report.cospectral:
            hits.append((code, graph, report))
    return hits
