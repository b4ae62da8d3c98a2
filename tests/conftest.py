"""Shared fixtures: the small named graphs and random generators."""

from __future__ import annotations

import json
import random
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from hermix import (
    MixedGraph,
    Phase,
    arc_balance,
    char_poly,
    eigen_decomposition,
    enumerate_simple_cycles,
    parse_graph,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def t2() -> MixedGraph:
    """Single arc 0 -> 1."""
    return MixedGraph.from_edges(2, [], [(0, 1)])


@pytest.fixture
def dc3() -> MixedGraph:
    """Directed triangle 0 -> 1 -> 2 -> 0."""
    return MixedGraph.from_edges(3, [], [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def uc3() -> MixedGraph:
    """Undirected triangle."""
    return MixedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)], [])


@pytest.fixture
def ac4() -> MixedGraph:
    """Alternating 4-cycle: arcs 0->1, 2->1, 2->3, 0->3."""
    return MixedGraph.from_edges(4, [], [(0, 1), (2, 1), (2, 3), (0, 3)])


@pytest.fixture
def dc4() -> MixedGraph:
    """Directed 4-cycle 0 -> 1 -> 2 -> 3 -> 0."""
    return MixedGraph.from_edges(4, [], [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def p3() -> MixedGraph:
    """Path: arc 0 -> 1 plus digon 1 -- 2."""
    return MixedGraph.from_edges(3, [(1, 2)], [(0, 1)])


@pytest.fixture
def k4x() -> MixedGraph:
    """The stored K4 orientation that is a second-kind monograph for i."""
    return parse_graph((FIXTURES / "k4x.mg").read_text())


def numeric_char_poly(g: MixedGraph, alpha: Phase) -> tuple[float, ...]:
    """The trace-recursion polynomial, cross-checked against the matrix's own
    eigenvalues."""
    return char_poly(g, alpha, eigen_decomposition(g, alpha).values)


def edge_triples(graph: MixedGraph) -> list[tuple[int, int, str]]:
    """The graph's edges as ``(u, v, kind)`` triples in vertex-pair order,
    read through ``neighbors`` and ``pair_code``: a digon with ``u < v``, an
    arc from ``u`` to ``v``."""
    triples = []
    for u in range(graph.n):
        for w in graph.neighbors(u):
            if w > u:
                code = graph.pair_code(u, w)
                if code == 0:
                    triples.append((u, w, "digon"))
                else:
                    triples.append((u, w, "arc") if code == 1 else (w, u, "arc"))
    return triples


def from_triples(n: int, edges: list[tuple[int, int, str]]) -> MixedGraph:
    """``MixedGraph.from_edges`` over ``(u, v, kind)`` triples."""
    digons = [(u, v) for u, v, kind in edges if kind == "digon"]
    return MixedGraph.from_edges(n, digons, [(u, v) for u, v, kind in edges if kind == "arc"])


def complete_mixed(n: int, rng: random.Random) -> MixedGraph:
    """K_n with every pair given a random edge kind."""
    digons: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            roll = rng.randrange(3)
            if roll == 0:
                digons.append((u, v))
            elif roll == 1:
                arcs.append((u, v))
            else:
                arcs.append((v, u))
    return MixedGraph.from_edges(n, digons, arcs)


def random_mixed_tree(rng: random.Random, n: int) -> MixedGraph:
    """Random tree shape; each edge independently digon or a random arc."""
    digons: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    for v in range(1, n):
        u = rng.randrange(v)
        roll = rng.randrange(3)
        if roll == 0:
            digons.append((u, v))
        elif roll == 1:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return MixedGraph.from_edges(n, digons, arcs)


def random_mixed_graph(rng: random.Random, n: int, edge_prob: float = 0.5) -> MixedGraph:
    digons: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() >= edge_prob:
                continue
            roll = rng.randrange(3)
            if roll == 0:
                digons.append((u, v))
            elif roll == 1:
                arcs.append((u, v))
            else:
                arcs.append((v, u))
    return MixedGraph.from_edges(n, digons, arcs)


def random_connected_mixed_graph(
    rng: random.Random, n: int, extra_prob: float = 0.4
) -> MixedGraph:
    """A random tree made connected-by-construction plus random extra edges."""
    tree = random_mixed_tree(rng, n)
    digons: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    taken = set()
    for u, v, kind in edge_triples(tree):
        taken.add((min(u, v), max(u, v)))
        (digons if kind == "digon" else arcs).append((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in taken or rng.random() >= extra_prob:
                continue
            roll = rng.randrange(3)
            if roll == 0:
                digons.append((u, v))
            elif roll == 1:
                arcs.append((u, v))
            else:
                arcs.append((v, u))
    return MixedGraph.from_edges(n, digons, arcs)


def level_monograph(rng: random.Random, n: int, q: int | None = None) -> MixedGraph:
    """A first-kind monograph for every alpha of order dividing q (every
    alpha when q is None), built from vertex levels: 0..5, or residues mod q.
    A digon joins equal levels and an arc runs from level l to l + 1 (mod q),
    so every cycle has arc balance 0 (mod q)."""
    level = [rng.randrange(q or 6) for _ in range(n)]
    digons: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            step = level[v] - level[u]
            if q:
                step = (step + 1) % q - 1
            if abs(step) > 1 or rng.random() >= 0.3:
                continue
            if step == 0:
                digons.append((u, v))
            else:
                arcs.append((u, v) if step == 1 else (v, u))
    return MixedGraph.from_edges(n, digons, arcs)


def three_class_clique(n: int) -> MixedGraph:
    """K_n as a first-kind gamma monograph: vertex v sits in class v mod 3,
    a pair inside a class is a digon, and an arc runs from each class to
    the next."""
    digons, arcs = [], []
    for u in range(n):
        for v in range(u + 1, n):
            step = (v - u) % 3
            if step == 0:
                digons.append((u, v))
            else:
                arcs.append((u, v) if step == 1 else (v, u))
    return MixedGraph.from_edges(n, digons, arcs)


def reference_pair_residual(graph: MixedGraph, alpha: Phase, value: float, x) -> float:
    """The vertex summation rule checked one vertex at a time, in plain Python
    sums over the graph's neighbor lists: the reference the library's
    batched residual pass is compared against."""
    a = alpha.value
    ac = a.conjugate()
    worst = 0.0
    for u in range(graph.n):
        # neighbour sums by the pair code of the step: digon, with the arc, against it
        sums = {0: 0, 1: 0, -1: 0}
        for v in graph.neighbors(u):
            sums[graph.pair_code(u, v)] += x[v]
        rhs = sums[0] + a * sums[1] + ac * sums[-1]
        worst = max(worst, abs(value * x[u] - rhs))
    return float(worst)


def reference_json(obj) -> str:
    """The CLI's JSON rule spelled out: every float becomes
    ``float(f"{x:.12g}")``, a complex vector a list of ``[re, im]`` pairs, and
    ``json.dumps`` prints the result.  The reference the CLI's one-pass
    encoder is compared against."""

    def rounded(o):
        if isinstance(o, bool):
            return o
        if isinstance(o, float):
            return float(f"{o:.12g}")
        if isinstance(o, dict):
            return {k: rounded(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [rounded(v) for v in o]
        if isinstance(o, np.ndarray):
            return [[rounded(float(z.real)), rounded(float(z.imag))] for z in o]
        return o

    return json.dumps(rounded(obj))


def reference_term_profile(graph: MixedGraph) -> tuple[dict, ...]:
    """The oracle's term profile from full packings: per cover size k, how
    many packings of disjoint edges and simple cycles have each
    (r, sorted cycle balances) pair.  The reference the library's cycle
    packings times matching counts are compared against.

    Every edge and cycle is filed under its lowest vertex, each cycle with
    its balance from ``arc_balance``.  A recursion takes the lowest vertex
    not yet decided: it stays uncovered, or an item of its bucket that
    misses every covered vertex covers it, so each packing is reached once.
    """
    n = graph.n
    buckets: list[list[tuple[int, int, int | None]]] = [[] for _ in range(n)]
    for u, v, _ in edge_triples(graph):
        u, v = min(u, v), max(u, v)
        buckets[u].append((1 << u | 1 << v, 2, None))
    if n >= 3:
        for c in enumerate_simple_cycles(graph, n):
            walk = c.vertices
            mask = sum(1 << v for v in walk[:-1])
            balance = arc_balance(graph, walk).balance
            buckets[walk[0]].append((mask, len(walk) - 1, balance))
    prof: list[defaultdict] = [defaultdict(int) for _ in range(n + 1)]

    def rec(v: int, covered: int, items: tuple[tuple[int, int | None], ...]) -> None:
        while v < n and covered >> v & 1:
            v += 1
        if v == n:
            k = sum(size for size, _ in items)
            balances = tuple(sorted(b for _, b in items if b is not None))
            prof[k][k - len(items), balances] += 1
            return
        rec(v + 1, covered, items)
        for mask, size, balance in buckets[v]:
            if not covered & mask:
                rec(v + 1, covered | mask, items + ((size, balance),))

    rec(0, 0, ())
    return tuple(dict(d) for d in prof)
