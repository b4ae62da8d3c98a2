"""Cospectrality of one mixed graph under two different unit phases.

The numeric test compares sorted spectra: they must agree within tolerance
for a cospectral verdict.  The matrices are Hermitian, so equal spectra and
equal characteristic polynomials are the same fact, and no polynomial is
computed.  Alongside it run four structural flags, each a monograph verdict:

* even arc parity: a first-kind monograph at alpha = -1;
* oriented bipartite: no digon, and even arc parity, so every cycle is even;
* tree: no cycle, so a monograph of both kinds under every phase;
* a monograph of one kind for both phases, which pins both spectra to the
  underlying one or to its negation.

Cospectrality is promised by the last flag, and by even arc parity when the
phases are the two at one third and one sixth of a turn; trees and oriented
bipartite graphs fall under these.  None of the conditions is necessary.
When a promise fails numerically, the check raises instead of returning a
quiet answer.

The search helpers enumerate mixed graphs by a base-4 code over the vertex
pairs in lexicographic order: 0 no edge, 1 digon, 2 arc low to high, 3 arc
high to low.

One verdict, :func:`_checked_gaps`, serves :func:`numeric_cospectral` and
the search alike: it takes a stack of matrices per phase and the structural
flags of each graph, runs its checks (whose kernels live in ``spectra``)
stage by stage, and raises NumericalError for the lowest failing graph of
the first failing stage.  ``numeric_cospectral`` hands it a stack of one,
its flags from :func:`is_monograph` under the five rules they read.

The search never builds a graph per code.  It scans codes in fixed chunks of
``SEARCH_CHUNK``: digits are decoded into stacks of Hermitian matrices, one
per phase, by the stack builder behind :func:`build_hermitian`, and the same
five verdicts come from one vectorised union-find sweep over the vertex
pairs, which closes each fundamental cycle with a known arc balance and
length parity; the verdict then runs on the whole chunk.  Only the hits
become :class:`MixedGraph` objects.  Exhaustive search stops at
``MAX_EXHAUSTIVE_VERTICES`` = 5 vertices and random search at
``MAX_RANDOM_VERTICES`` = 8, the last n whose 4**pairs codes fit a 64-bit
index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NumericalError, ScaleLimitError
from .graphs import _DIGIT_STEP, MixedGraph
from .monographs import MonographKind, _keys, _rule, _verdict, is_monograph
from .phases import Phase
from .spectra import (
    DEFAULT_TOL,
    _eigh_checked,
    _graph_source,
    _hermitian_stack,
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
_MINUS_ONE = Phase.minus_one()


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
        # asdict would deep-copy each of the four bools
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class CospectralReport:
    alpha1: Phase
    alpha2: Phase
    cospectral: bool
    max_gap: float
    flags: StructuralFlags


def even_arc_condition(graph: MixedGraph) -> bool:
    """Every cycle crosses an even number of arcs: a first-kind monograph at
    alpha = -1, where a digon step has value 1 and an arc step -1."""
    return _verdict(graph, _MINUS_ONE, MonographKind.FIRST)


def oriented_bipartite(graph: MixedGraph) -> bool:
    """No digons and the underlying graph is bipartite: with no digon a
    cycle's length is the number of arcs it crosses, so this is even arc parity."""
    return not _has_digon(graph) and even_arc_condition(graph)


def _has_digon(graph: MixedGraph) -> bool:
    return any(digit == 1 for _, _, digit in graph._table)


def _flag_rules(alpha1: Phase, alpha2: Phase) -> list[tuple[Phase, MonographKind]]:
    """The five monograph rules the flags read, in the order
    :func:`_structural_flags` takes their verdicts."""
    first, second = MonographKind
    return [(_MINUS_ONE, first)] + [
        (a, kind) for a in (alpha1, alpha2) for kind in (first, second)
    ]


def _structural_flags(
    verdicts: Sequence[np.ndarray], cyclic: np.ndarray, digon: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The fields of :class:`StructuralFlags`, in order, as boolean arrays
    over graphs: from each graph's verdicts under the :func:`_flag_rules`,
    whether it has a cycle and whether it has a digon."""
    even_arc, first1, second1, first2, second2 = verdicts
    return even_arc, ~digon & even_arc, ~cyclic, (first1 & first2) | (second1 & second2)


def numeric_cospectral(
    graph: MixedGraph,
    alpha1: Phase,
    alpha2: Phase,
    tol: float = DEFAULT_TOL,
) -> CospectralReport:
    """Compare the spectra of one graph under two phases.

    The verdict holds when the largest gap between the sorted spectra stays
    within ``tol``.  If a structural
    sufficient condition promises cospectrality but the numbers disagree, a
    NumericalError is raised; a sound implementation never reaches it.
    """
    stacks = [build_hermitian(graph, a)[None] for a in (alpha1, alpha2)]
    flags = _structural_flags(
        [np.array([is_monograph(graph, *rule).verdict]) for rule in _flag_rules(alpha1, alpha2)],
        np.array([bool(graph.cycle_basis.cycle_parities)]),
        np.array([_has_digon(graph)]),
    )
    max_gap = _checked_gaps(
        stacks,
        flags,
        (alpha1, alpha2),
        tol,
        lambda _, alphas: _graph_source(graph, *alphas),
    )
    gap = float(max_gap[0])
    report_flags = StructuralFlags(*(bool(f[0]) for f in flags))
    return CospectralReport(alpha1, alpha2, gap <= tol, gap, report_flags)


def _checked_gaps(
    stacks: Sequence[np.ndarray],
    flags: Sequence[np.ndarray],
    alphas: tuple[Phase, Phase],
    tol: float,
    source: Callable[[int, tuple[Phase, ...]], str],
) -> np.ndarray:
    """The cospectral verdict: the largest eigenvalue gap of each graph,
    whose matrices under the two ``alphas`` are ``stacks``, after the eigen
    residual check and the structural guard.

    ``flags`` holds the fields of :class:`StructuralFlags`, in order, as
    boolean arrays over the graphs.  The stages run in order: the eigen
    residual under the first phase, then under the second, then the guard.
    The first one that fails raises NumericalError for its lowest failing
    graph, named by ``source`` from the graph's index and the phases the
    stage concerns.
    """
    spectra = []
    for a, alpha in zip(stacks, alphas):
        evals, _, check = _eigh_checked(a)
        check(lambda i: source(i, (alpha,)))
        spectra.append(evals)
    max_gap = np.max(np.abs(spectra[0] - spectra[1]), axis=-1, initial=0.0)
    # cospectrality is promised by a monograph of one kind under both phases
    # (every forest is one) and, for the two sixth-turn phases, by even arc
    # parity (which every oriented bipartite graph has)
    even_arc, _, _, monograph_both = flags
    sixth_pair = {a.rotation for a in alphas} == _SIXTH_PAIR
    promised = monograph_both | (sixth_pair & even_arc)
    _raise_first(
        promised & ~(max_gap <= tol),
        NumericalError,
        lambda i: f"structural guard failed on {source(i, alphas)}: structural "
        f"condition promises cospectrality but max gap is {max_gap[i]:.3e}",
    )
    return max_gap


def mixed_graph_from_code(n: int, code: int) -> MixedGraph:
    """Decode a base-4 integer into a mixed graph on ``n`` vertices.

    Digit positions follow the pairs (0,1), (0,2), ..., in lexicographic
    order, least significant digit first.  Each nonzero digit is an edge
    table row as it stands (1 digon, 2 arc up, 3 arc down), in table order.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    pair_count = n * (n - 1) // 2
    if not 0 <= code < 4**pair_count:
        raise ValueError(f"code {code} out of range for {n} vertices")
    table = []
    rest = code
    for u in range(n):
        for v in range(u + 1, n):
            rest, digit = divmod(rest, 4)
            if digit:
                table.append((u, v, digit))
    return MixedGraph._from_table(n, tuple(table))


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


class _ChunkScan:
    """The search's scan of codes on ``n`` vertices under one pair of phases:
    the matrix stacks and the five flag verdicts of a chunk, run through the
    same verdict as :func:`numeric_cospectral`."""

    def __init__(self, n: int, alpha1: Phase, alpha2: Phase, tol: float) -> None:
        self.n = n
        self.alphas = (alpha1, alpha2)
        self.tol = tol
        self.pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        self.low = np.array([u for u, _ in self.pairs], dtype=np.intp)
        self.high = np.array([v for _, v in self.pairs], dtype=np.intp)
        self.place = 4 ** np.arange(len(self.pairs), dtype=np.int64)
        # a closing edge plus two tree paths: balance at most 2n - 1 in size
        self.span = 2 * n
        # per flag rule, closing balance and length parity: is the cycle trivial?
        self.trivial = np.array(
            [
                [
                    [key == 0 for key in _keys(_rule(a, kind), [b, b], (0, 1))]
                    for b in range(-self.span, self.span + 1)
                ]
                for a, kind in _flag_rules(alpha1, alpha2)
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

        stacks = [_hermitian_stack(n, self.low, self.high, digits, a) for a in self.alphas]
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
        """The fields of :class:`StructuralFlags` in order.

        Union-find over the pairs in code order keeps, per vertex, its root
        and the arc balance and length parity of a tree walk from the root.
        An edge inside one component closes a fundamental cycle whose balance
        and parity follow from its ends, and the table says which flag rules
        it breaks; an edge between components moves the second one under the
        first root, shifted by the same amounts.  A graph passes a rule when
        none of its fundamental cycles breaks it.
        """
        count, n = len(digits), self.n
        root = np.tile(np.arange(n), (count, 1))
        balance = np.zeros((count, n), dtype=np.int64)
        parity = np.zeros((count, n), dtype=np.int64)
        cyclic = np.zeros(count, dtype=bool)
        nontrivial = np.zeros((len(self.trivial), count), dtype=bool)
        step = np.array(_DIGIT_STEP)
        for p, (u, v) in enumerate(self.pairs):
            edge = digits[:, p] != 0
            shift = balance[:, u] + step[digits[:, p]] - balance[:, v]
            flip = parity[:, u] ^ parity[:, v] ^ 1
            same = root[:, u] == root[:, v]
            closes = edge & same
            cyclic |= closes
            nontrivial |= closes & ~self.trivial[:, shift + self.span, flip]
            moved = (edge & ~same)[:, None] & (root == root[:, v, None])
            balance = np.where(moved, balance + shift[:, None], balance)
            parity = np.where(moved, parity ^ flip[:, None], parity)
            root = np.where(moved, root[:, u, None], root)
        return _structural_flags(~nontrivial, cyclic, np.any(digits == 1, axis=-1))
