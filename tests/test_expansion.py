"""Combinatorial characteristic polynomial against the trace recursion."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from hermix import (
    ALPHA_GAMMA,
    ALPHA_I,
    ALPHA_OMEGA,
    ALPHA_ONE,
    MixedGraph,
    ScaleLimitError,
    arc_balance,
    build_hermitian,
    char_poly_expansion,
    eigen_decomposition,
    enumerate_mixed_graphs,
    enumerate_simple_cycles,
    make_alpha,
    mixed_graph_from_code,
    rotation_cos,
)
from hermix.expansion import _cycle_counts, _term_profile

from conftest import (
    complete_mixed,
    edge_triples,
    from_triples,
    numeric_char_poly,
    random_connected_mixed_graph,
    random_mixed_graph,
    random_mixed_tree,
    reference_term_profile,
)

ALPHAS = (ALPHA_I, ALPHA_GAMMA, ALPHA_OMEGA, make_alpha("root:1/5"), make_alpha("angle:1.0"))
PROFILE_ALPHAS = tuple(
    make_alpha(spec)
    for spec in ("1", "i", "gamma", "omega", "root:2/5", "root:3/7", "angle:0.7", "angle:2.1")
)


class TestEnumerateElementary:
    """The elementary subgraphs of the coefficient theorem, as the term
    profile counts them: per cover size k, (r, sorted cycle balances)."""

    def test_k0_is_empty_packing(self, uc3):
        assert _term_profile(uc3)[0] == {(0, ()): 1}

    def test_k1_none(self, uc3):
        assert _term_profile(uc3)[1] == {}

    def test_uc3_k2(self, uc3):
        # three single edges, each two vertices in one component
        assert _term_profile(uc3)[2] == {(1, ()): 3}

    def test_uc3_k3(self, uc3):
        # the all-digon triangle alone: three vertices in one component
        assert _term_profile(uc3)[3] == {(2, (0,)): 1}

    def test_k4_k4(self):
        rng = random.Random(19)
        g = complete_mixed(4, rng)
        top = dict(_term_profile(g)[4])
        assert top.pop((2, ())) == 3
        # the rest are the three four-cycles, one component each
        assert sum(top.values()) == 3
        assert all(r == 3 and len(balances) == 1 for r, balances in top)

    def test_rank_data(self):
        # a triangle beside an edge: r is k minus the components of the packing
        g = MixedGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)], [])
        prof = _term_profile(g)
        assert prof[4] == {(2, ()): 3}
        assert prof[5] == {(3, (0,)): 1}

    def test_k_out_of_range(self, uc3):
        # one entry per cover size 0..n and none beyond
        assert len(_term_profile(uc3)) == uc3.n + 1
        assert _term_profile(MixedGraph.from_edges(0)) == ({(0, ()): 1},)

    def test_scale_guard(self):
        big = MixedGraph.from_edges(13)
        with pytest.raises(ScaleLimitError):
            char_poly_expansion(big, ALPHA_I)

    def test_matches_edge_subset_brute_force(self):
        rng = random.Random(29)
        graphs = [
            random_mixed_graph(rng, rng.randrange(1, 6), edge_prob=0.7) for _ in range(10)
        ]
        # dense graphs, where most items of a bucket collide with a packing
        graphs += [complete_mixed(6, rng), random_mixed_graph(rng, 7, edge_prob=0.8)]
        for g in graphs:
            assert _term_profile(g) == _brute_force_profile(g)


def _brute_force_profile(g: MixedGraph) -> tuple[dict, ...]:
    """Independent term profile over edge subsets whose components are single
    edges or simple cycles: per covered vertex count k, how many have each
    r = k - #components and sorted cycle balances.  Every vertex of such a
    subset has degree 1 or 2, so it has at most n edges.  A cycle is walked
    from its lowest vertex towards the smaller of that vertex's two
    neighbors, the traversal ``enumerate_simple_cycles`` reports."""
    edges = [(min(u, v), max(u, v)) for u, v, _ in edge_triples(g)]
    prof: list[Counter] = [Counter() for _ in range(g.n + 1)]
    for size in range(min(len(edges), g.n) + 1):
        for subset in itertools.combinations(edges, size):
            comps = _elementary_components(subset)
            if comps is None:
                continue
            k = sum(len(adj) for adj in comps)
            balances = tuple(
                sorted(arc_balance(g, _cycle_walk(adj)).balance for adj in comps if len(adj) > 2)
            )
            prof[k][k - len(comps), balances] += 1
    return tuple(dict(c) for c in prof)


def _elementary_components(
    subset: tuple[tuple[int, int], ...],
) -> list[dict[int, list[int]]] | None:
    """The components of an edge subset as adjacency maps, or None unless
    each one is a single edge or a simple cycle."""
    adj: dict[int, list[int]] = {}
    for u, v in subset:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set[int] = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x])
        seen |= comp
        # two vertices are a single edge; a larger component must be a
        # cycle, which is exactly a connected one with every degree 2
        if len(comp) > 2 and any(len(adj[x]) != 2 for x in comp):
            return None
        comps.append({x: adj[x] for x in comp})
    return comps


def _cycle_walk(adj: dict[int, list[int]]) -> tuple[int, ...]:
    """The closed walk of a cycle component: from its lowest vertex to the
    smaller of that vertex's neighbors, then on round the cycle."""
    start = min(adj)
    seq = [start]
    prev, cur = start, min(adj[start])
    while cur != start:
        seq.append(cur)
        prev, cur = cur, next(w for w in adj[cur] if w != prev)
    return (*seq, start)


def _connected_with_cycles(rng: random.Random, n: int, cycles: int) -> MixedGraph:
    """A random mixed spanning tree plus ``cycles`` extra random edges."""
    tree = random_mixed_tree(rng, n)
    edges = edge_triples(tree)
    taken = {(min(u, v), max(u, v)) for u, v, _ in edges}
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in taken]
    for u, v in rng.sample(free, cycles):
        edges.append(rng.choice([(u, v, "digon"), (u, v, "arc"), (v, u, "arc")]))
    return from_triples(n, edges)


def _cycle_tallies(g: MixedGraph) -> Counter:
    """The simple cycles of ``enumerate_simple_cycles``, counted by lowest
    vertex, vertex mask and arc balance."""
    cycles = enumerate_simple_cycles(g, max(g.n, 3))
    return Counter((c.vertices[0], c.mask, c.balance) for c in cycles)


def _counted(g: MixedGraph) -> Counter:
    """The same tally read off ``_cycle_counts``, whose every vertex set sits
    under its lowest vertex with positive counts only."""
    tally: Counter = Counter()
    for s, sets in enumerate(_cycle_counts(g)):
        for mask, counts in sets.items():
            assert mask & -mask == 1 << s
            for balance, count in counts.items():
                assert count > 0
                tally[s, mask, balance] += count
    return tally


def _connected_with_rank(rng: random.Random, n: int, cycles: int) -> MixedGraph:
    """A seeded ``random_connected_mixed_graph`` with exactly ``cycles``
    independent cycles: each pair off the tree is drawn with the odds that
    expect that many, until a draw has them."""
    odds = cycles / ((n - 1) * (n - 2) // 2)
    while True:
        g = random_connected_mixed_graph(rng, n, extra_prob=odds)
        if len(edge_triples(g)) - n + 1 == cycles:
            return g


class TestCycleCounts:
    """The oracle's counted cycles against the simple cycles the brute-force
    search lists."""

    def test_every_code_n4(self):
        for n in range(5):
            for _, g in enumerate_mixed_graphs(n):
                assert _counted(g) == _cycle_tallies(g)

    @pytest.mark.parametrize("n", range(6, 11))
    def test_desk_shaped_graphs(self, n):
        rng = random.Random(401 + n)
        for cycles in range(9, min(12, (n - 1) * (n - 2) // 2) + 1):
            g = _connected_with_rank(rng, n, cycles)
            assert _counted(g) == _cycle_tallies(g)

    def test_dense_n12(self):
        # 35 of the 66 pairs carry an edge
        g = _connected_with_cycles(random.Random(419), 12, 24)
        tallies = _cycle_tallies(g)
        assert sum(tallies.values()) == 36_664
        assert _counted(g) == tallies


class TestCharPolyExpansion:
    def test_c2_is_minus_edge_count(self):
        rng = random.Random(61)
        for _ in range(20):
            g = random_mixed_graph(rng, rng.randrange(2, 7))
            for alpha in (ALPHA_I, make_alpha("angle:1.0")):
                poly = char_poly_expansion(g, alpha)
                assert poly[1] == pytest.approx(-float(len(edge_triples(g))))

    def test_dc3_fixed_polys(self, dc3):
        assert np.allclose(char_poly_expansion(dc3, ALPHA_GAMMA), [0.0, -3.0, -2.0])
        assert np.allclose(char_poly_expansion(dc3, ALPHA_I), [0.0, -3.0, 0.0])

    def test_agrees_with_trace_recursion(self):
        rng = random.Random(67)
        for _ in range(30):
            g = random_mixed_graph(rng, rng.randrange(1, 7), edge_prob=0.6)
            for alpha in ALPHAS:
                combinatorial = char_poly_expansion(g, alpha)
                numeric = numeric_char_poly(g, alpha)
                gap = max(abs(a - b) for a, b in zip(combinatorial, numeric))
                assert gap <= 1e-8

    def test_determinant_vs_eigenvalue_product(self):
        rng = random.Random(71)
        for _ in range(15):
            g = random_mixed_graph(rng, rng.randrange(1, 7))
            for alpha in (ALPHA_I, ALPHA_OMEGA):
                poly = char_poly_expansion(g, alpha)
                spec = eigen_decomposition(build_hermitian(g, alpha)).values
                det = math.prod(spec)
                constant = poly[-1]
                assert math.isclose((-1.0) ** g.n * constant, det, abs_tol=1e-7)

    @pytest.mark.parametrize("n, cycles", [(9, 11), (10, 12)])
    def test_agrees_with_trace_recursion_on_dense_graphs(self, n, cycles):
        # as dense as the oracle inputs of the desk benchmark: thousands of
        # packings over few cover sets
        rng = random.Random(83 + n)
        for _ in range(2):
            g = _connected_with_cycles(rng, n, cycles)
            assert len(edge_triples(g)) - n + 1 == cycles
            for alpha in (make_alpha("root:2/5"), make_alpha("angle:0.7")):
                combinatorial = char_poly_expansion(g, alpha)
                numeric = numeric_char_poly(g, alpha)
                gap = max(abs(a - b) for a, b in zip(combinatorial, numeric))
                assert gap <= 1e-8

    def test_underlying_alpha_one(self):
        rng = random.Random(73)
        for _ in range(10):
            g = random_mixed_graph(rng, rng.randrange(1, 7))
            mixed = char_poly_expansion(g, ALPHA_ONE)
            skeleton = MixedGraph.from_edges(g.n, [(u, v) for u, v, _ in edge_triples(g)])
            plain = char_poly_expansion(skeleton, ALPHA_ONE)
            assert np.allclose(mixed, plain)


def _disjoint_union(g: MixedGraph, h: MixedGraph) -> MixedGraph:
    """g on vertices 0..g.n-1 beside h shifted to g.n..g.n+h.n-1."""
    moved = [(u + g.n, v + g.n, kind) for u, v, kind in edge_triples(h)]
    return from_triples(g.n + h.n, edge_triples(g) + moved)


def _profile_graphs() -> list[MixedGraph]:
    """Every graph with n <= 4 (n = 0, 1 and 2 among them), forests,
    disconnected graphs, a complete one and dense graphs of the desk shape."""
    graphs = [g for n in range(5) for _, g in enumerate_mixed_graphs(n)]
    rng = random.Random(307)
    for n in (1, 5, 9, 12):
        graphs.append(random_mixed_tree(rng, n))
    graphs.append(_disjoint_union(random_mixed_tree(rng, 5), random_mixed_tree(rng, 6)))
    for n in (6, 8, 10):
        graphs.append(random_mixed_graph(rng, n, edge_prob=0.2))
    graphs.append(_disjoint_union(complete_mixed(4, rng), complete_mixed(5, rng)))
    graphs.append(_disjoint_union(MixedGraph.from_edges(2), complete_mixed(5, rng)))
    graphs.append(complete_mixed(6, rng))
    graphs += [_connected_with_cycles(rng, n, n + 2) for n in (9, 10) * 10]
    return graphs


def _profile_char_poly(profile: tuple[dict, ...], alpha) -> tuple[float, ...]:
    """Evaluate a term profile the way the oracle does, with the cosine taken
    afresh for every cycle of every profile entry."""
    rot = alpha.rotation
    coeffs = []
    for k in range(1, len(profile)):
        terms = []
        for (r, balances), count in profile[k].items():
            term = -1.0 if r % 2 else 1.0
            for b in balances:
                term *= 2.0 * rotation_cos(rot * b)
            terms.append(count * term)
        coeffs.append((-1.0 if k % 2 else 1.0) * math.fsum(terms))
    return tuple(coeffs)


def _assert_profile_matches_reference(g: MixedGraph) -> None:
    reference = reference_term_profile(g)
    assert _term_profile(g) == reference
    for alpha in PROFILE_ALPHAS:
        got = char_poly_expansion(g, alpha)
        # bit for bit: hex tells -0.0 from 0.0
        assert [x.hex() for x in got] == [x.hex() for x in _profile_char_poly(reference, alpha)]


class TestTermProfile:
    def test_matches_full_packing_reference(self):
        for g in _profile_graphs():
            _assert_profile_matches_reference(g)

    def test_cycle_records_match_their_walks(self):
        for g in _profile_graphs()[-25:]:
            for c in enumerate_simple_cycles(g, g.n):
                assert c.balance == arc_balance(g, c.vertices).balance
                assert c.mask == sum(1 << v for v in set(c.vertices))


@pytest.mark.slow
def test_term_profile_against_reference_sample():
    """The profile against the full-packing reference on a seeded n = 5
    sample and on dense n = 9..10 graphs of the desk shape."""
    rng = random.Random(313)
    for code in rng.sample(range(4**10), 20000):
        _assert_profile_matches_reference(mixed_graph_from_code(5, code))
    for i in range(200):
        n = 9 + i % 2
        _assert_profile_matches_reference(_connected_with_cycles(rng, n, n + rng.randrange(1, 4)))


@pytest.mark.slow
def test_oracle_equivalence_n5_sample():
    """Heavier randomized cross-validation at n = 5, beyond the default suite."""
    from hermix import mixed_graph_from_code

    rng = random.Random(79)
    codes = rng.sample(range(4**10), 20000)
    for code in codes:
        g = mixed_graph_from_code(5, code)
        for alpha in (ALPHA_I, ALPHA_GAMMA, ALPHA_OMEGA):
            combinatorial = char_poly_expansion(g, alpha)
            numeric = numeric_char_poly(g, alpha)
            assert max(abs(a - b) for a, b in zip(combinatorial, numeric)) <= 1e-8
