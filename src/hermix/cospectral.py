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

One verdict serves :func:`numeric_cospectral` and the search alike: it
takes a stack of matrices per phase and the structural flags of each graph,
and runs its checks (whose kernels live in ``spectra``) stage by stage: the
eigen residual under the first phase, then the second, the characteristic
polynomial under the first phase (imaginary residue, then the cross-check
against the eigenvalues), then the second, and last the structural guard.
The first stage that fails raises NumericalError for its lowest failing
graph, before any later stage runs.  ``numeric_cospectral`` hands it a stack
of one, with the flags read from the graph's cycle basis.

The search never builds a graph per code.  It scans codes in fixed chunks of
``SEARCH_CHUNK``: digits are decoded into stacks of Hermitian matrices, one
per phase, and the four structural flags come from one vectorised union-find
sweep over the vertex pairs, which closes each fundamental cycle with a
known arc balance and length parity; the verdict then runs on the whole
chunk.  Only the hits become :class:`MixedGraph` objects.  Exhaustive search
stops at ``MAX_EXHAUSTIVE_VERTICES`` = 5 vertices and random search at
``MAX_RANDOM_VERTICES`` = 8, the last n whose 4**pairs codes fit a 64-bit
index.
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NumericalError, ScaleLimitError
from .graphs import Edge, EdgeKind, MixedGraph
from .monographs import MonographKind, _is_trivial, is_monograph
from .phases import Phase
from .spectra import (
    DEFAULT_TOL,
    _char_poly_checked,
    _Check,
    _eigh_checked,
    _graph_source,
    _matrix_checks,
    _raise_first,
    build_hermitian,
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
# 4**28 codes fit a 64-bit index; the 4**36 codes of 9 vertices do not
MAX_RANDOM_VERTICES = 8
# graphs per batched chunk of a search; fixed so peak memory stays flat
SEARCH_CHUNK = 512

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
    checking the basis cycles settles all cycles at once.  A cycle's arc
    count and its arc balance (forward minus backward arcs) differ by twice
    the backward arcs, so the balances the spanning forest records decide
    it: every fundamental cycle balance must be even.
    """
    return all(bal % 2 == 0 for bal in graph.cycle_basis.cycle_balances)


def oriented_bipartite(graph: MixedGraph) -> bool:
    """No digons and the underlying graph is bipartite.

    Cycle length parity is linear over GF(2) in the fundamental basis too,
    and a graph is bipartite exactly when it has no odd cycle, so every
    fundamental cycle must have an even number of edges.
    """
    if any(e.kind is EdgeKind.DIGON for e in graph.edges):
        return False
    return all(w.edge_count % 2 == 0 for w in graph.cycle_basis.cycles)


def _same_kind_both(graph: MixedGraph, alpha1: Phase, alpha2: Phase) -> bool:
    for kind in (MonographKind.FIRST, MonographKind.SECOND):
        if (
            is_monograph(graph, alpha1, kind).verdict
            and is_monograph(graph, alpha2, kind).verdict
        ):
            return True
    return False


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
    stacks = [build_hermitian(graph, a).entries[None] for a in (alpha1, alpha2)]
    flags = StructuralFlags(
        even_arc_condition=even_arc_condition(graph),
        oriented_bipartite=oriented_bipartite(graph),
        tree=not graph.cycle_basis.cycles,
        monograph_both=_same_kind_both(graph, alpha1, alpha2),
    )
    max_gap = _checked_gaps(
        stacks,
        [np.array([f]) for f in astuple(flags)],
        (alpha1, alpha2),
        tol,
        lambda _, alphas: _graph_source(graph, *alphas),
    )
    gap = float(max_gap[0])
    return CospectralReport(alpha1, alpha2, gap <= tol, gap, flags)


def _checked_gaps(
    stacks: Sequence[np.ndarray],
    flags: Sequence[np.ndarray],
    alphas: tuple[Phase, Phase],
    tol: float,
    source: Callable[[int, tuple[Phase, ...]], str],
) -> np.ndarray:
    """The cospectral verdict: the largest eigenvalue or characteristic
    coefficient gap of each graph, whose matrices under the two ``alphas``
    are ``stacks``, after every numeric check and the structural guard.

    ``flags`` holds the fields of :class:`StructuralFlags`, in order, as
    boolean arrays over the graphs.  The stages run in order: the eigen
    residual under each phase, the polynomial under each phase, the guard.
    The first one that fails raises NumericalError for its lowest failing
    graph, named by ``source`` from the graph's index and the phases the
    stage concerns.
    """
    spectra = []
    for a, alpha in zip(stacks, alphas):
        evals, _, residual = _eigh_checked(a)
        _raise_first([residual], NumericalError, lambda i: source(i, (alpha,)))
        spectra.append(evals)
    polys = []
    for a, evals, alpha in zip(stacks, spectra, alphas):
        coeffs, checks = _char_poly_checked(a, evals[:, ::-1])
        _raise_first(checks, NumericalError, lambda i: source(i, (alpha,)))
        polys.append(coeffs)
    max_gap = np.maximum(
        np.max(np.abs(spectra[0] - spectra[1]), axis=-1, initial=0.0),
        np.max(np.abs(polys[0] - polys[1]), axis=-1, initial=0.0),
    )
    # cospectrality is promised by a forest always, by even arc parity or
    # oriented bipartiteness for the two sixth-turn phases, and by a
    # monograph of one kind under both phases
    even_arc, bipartite, tree, monograph_both = flags
    sixth_pair = {a.rotation for a in alphas} == _SIXTH_PAIR
    promised = tree | (sixth_pair & (even_arc | bipartite)) | monograph_both
    guard = _Check(
        "structural guard",
        promised & ~(max_gap <= tol),
        lambda i: "structural condition promises cospectrality but max gap is "
        f"{max_gap[i]:.3e}",
    )
    _raise_first([guard], NumericalError, lambda i: source(i, alphas))
    return max_gap


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
    for code in _exhaustive_codes(n):
        yield code, mixed_graph_from_code(n, code)


def _exhaustive_codes(n: int) -> range:
    if n > MAX_EXHAUSTIVE_VERTICES:
        raise ScaleLimitError(
            f"exhaustive enumeration is capped at {MAX_EXHAUSTIVE_VERTICES} vertices"
        )
    return range(4 ** (n * (n - 1) // 2))


def search_cospectral(
    n: int,
    alpha1: Phase,
    alpha2: Phase,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
    tol: float = DEFAULT_TOL,
) -> Iterator[tuple[int, MixedGraph, CospectralReport]]:
    """Find graphs on ``n`` vertices cospectral under the two phases.

    ``mode="exhaustive"`` walks every code, for n up to
    ``MAX_EXHAUSTIVE_VERTICES`` (5).  ``mode="random"`` samples ``count``
    distinct codes without replacement using ``seed``; both are then
    required so runs stay reproducible, and n may go up to
    ``MAX_RANDOM_VERTICES`` (8): at 9 vertices the 4**36 codes overflow the
    sampler's range and a 64-bit code.  Larger n raises ScaleLimitError.
    The arguments are checked at the call; the hits then come as a lazy
    stream of (code, graph, report) triples in increasing code order, each
    report equal to :func:`numeric_cospectral` on that graph.

    Codes are scanned in chunks of ``SEARCH_CHUNK``, one chunk at a time as
    the stream is read, through the verdict of :func:`numeric_cospectral`;
    when its chunk is reached, the lowest failing code of the first failing
    stage raises NumericalError naming the code, n, both phases and the
    stage.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    codes: range | list[int]
    if mode == "exhaustive":
        if count is not None or seed is not None:
            raise ValueError("count and seed apply to random mode only")
        codes = _exhaustive_codes(n)
    elif mode == "random":
        if count is None or seed is None:
            raise ValueError("random mode requires both count and seed")
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        if n > MAX_RANDOM_VERTICES:
            raise ScaleLimitError(
                f"random search is capped at {MAX_RANDOM_VERTICES} vertices"
            )
        total = 4 ** (n * (n - 1) // 2)
        if count > total:
            raise ValueError(f"cannot sample {count} codes from {total}")
        codes = sorted(random.Random(seed).sample(range(total), count))
    else:
        raise ValueError(f"unknown search mode: {mode!r}")
    return _stream_hits(codes, _ChunkScan(n, alpha1, alpha2, tol))


def _stream_hits(
    codes: range | list[int], scan: _ChunkScan
) -> Iterator[tuple[int, MixedGraph, CospectralReport]]:
    for start in range(0, len(codes), SEARCH_CHUNK):
        chunk = codes[start : start + SEARCH_CHUNK]
        for i, report in scan(np.array(chunk, dtype=np.int64)):
            yield chunk[i], mixed_graph_from_code(scan.n, chunk[i]), report


# the pair code, low vertex to high, of each digit: none, digon, arc up, arc down
_DIGIT_STEP = np.array([0, 0, 1, -1])


class _ChunkScan:
    """The search's scan of codes on ``n`` vertices under one pair of phases:
    the matrix stacks and flags of a chunk, run through the same verdict as
    :func:`numeric_cospectral`."""

    def __init__(self, n: int, alpha1: Phase, alpha2: Phase, tol: float) -> None:
        self.n = n
        self.alphas = (alpha1, alpha2)
        self.tol = tol
        self.pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        self.low = np.array([u for u, _ in self.pairs], dtype=np.intp)
        self.high = np.array([v for _, v in self.pairs], dtype=np.intp)
        self.place = 4 ** np.arange(len(self.pairs), dtype=np.int64)
        # matrix entry by digit, above and below the diagonal, as build_hermitian sets it
        values = [(a.value, a.value.conjugate()) for a in self.alphas]
        self.above = [np.array([0, 1, v, c], dtype=np.complex128) for v, c in values]
        self.below = [np.array([0, 1, c, v], dtype=np.complex128) for v, c in values]
        # a closing edge plus two tree paths: balance at most 2n - 1 in size
        self.span = 2 * n
        self.trivial = np.array(
            [
                [
                    [
                        [_is_trivial(a, kind, b, parity) for parity in (0, 1)]
                        for b in range(-self.span, self.span + 1)
                    ]
                    for kind in (MonographKind.FIRST, MonographKind.SECOND)
                ]
                for a in self.alphas
            ],
            dtype=bool,
        )

    def __call__(self, codes: np.ndarray) -> list[tuple[int, CospectralReport]]:
        """Positions in ``codes`` of the hits, with their reports."""
        n = self.n
        a1, a2 = self.alphas
        digits = (codes[:, None] // self.place) % 4

        def source(i: int, _: tuple[Phase, ...]) -> str:
            return f"code {int(codes[i])} (n={n}, alphas {a1} and {a2})"

        stacks = []
        for above, below in zip(self.above, self.below):
            a = np.zeros((len(codes), n, n), dtype=np.complex128)
            a[:, self.low, self.high] = above[digits]
            a[:, self.high, self.low] = below[digits]
            _raise_first(
                _matrix_checks(a), NumericalError, lambda i: source(i, self.alphas)
            )
            stacks.append(a)
        flags = self._flags(digits)
        max_gap = _checked_gaps(stacks, flags, self.alphas, self.tol, source)
        return [
            (
                i,
                CospectralReport(
                    *self.alphas,
                    True,
                    float(max_gap[i]),
                    StructuralFlags(*(bool(f[i]) for f in flags)),
                ),
            )
            for i in map(int, np.flatnonzero(max_gap <= self.tol))
        ]

    def _flags(self, digits: np.ndarray) -> tuple[np.ndarray, ...]:
        """Even arc, oriented bipartite, tree and shared monograph kind, the
        fields of :class:`StructuralFlags` in order.

        Union-find over the pairs in code order keeps, per vertex, its root
        and the arc balance and length parity of a tree walk from the root.
        An edge inside one component closes a fundamental cycle whose balance
        and parity follow from its ends; an edge between components moves the
        second one under the first root, shifted by the same amounts.  Every
        flag is a condition on the fundamental cycles of any spanning forest.
        """
        count, n = len(digits), self.n
        root = np.tile(np.arange(n), (count, 1))
        balance = np.zeros((count, n), dtype=np.int64)
        parity = np.zeros((count, n), dtype=np.int64)
        cyclic = np.zeros(count, dtype=bool)
        odd_arcs = np.zeros(count, dtype=bool)
        odd_length = np.zeros(count, dtype=bool)
        nontrivial = np.zeros((2, 2, count), dtype=bool)
        for p, (u, v) in enumerate(self.pairs):
            edge = digits[:, p] != 0
            shift = balance[:, u] + _DIGIT_STEP[digits[:, p]] - balance[:, v]
            flip = parity[:, u] ^ parity[:, v] ^ 1
            same = root[:, u] == root[:, v]
            closes = edge & same
            cyclic |= closes
            odd_arcs |= closes & (shift % 2 == 1)
            odd_length |= closes & (flip == 1)
            nontrivial |= closes & ~self.trivial[:, :, shift + self.span, flip]
            moved = (edge & ~same)[:, None] & (root == root[:, v, None])
            balance = np.where(moved, balance + shift[:, None], balance)
            parity = np.where(moved, parity ^ flip[:, None], parity)
            root = np.where(moved, root[:, u, None], root)
        mono = ~nontrivial
        digon = np.any(digits == 1, axis=-1)
        return (
            ~odd_arcs,
            ~(digon | odd_length),
            ~cyclic,
            (mono[0, 0] & mono[1, 0]) | (mono[0, 1] & mono[1, 1]),
        )
