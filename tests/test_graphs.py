"""Graph container, parser, cycle machinery."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermix.graphs
from hermix import (
    ALPHA_GAMMA,
    ALPHA_I,
    Edge,
    EdgeKind,
    GraphFormatError,
    MixedGraph,
    Walk,
    arc_balance,
    connected_components,
    degree_profile,
    enumerate_simple_cycles,
    fundamental_cycles,
    mixed_graph_from_code,
    numeric_cospectral,
    parse_graph,
    radius_equality_analysis,
    serialize_graph,
)

from conftest import complete_mixed, random_mixed_graph


class TestEdge:
    def test_digon_canonicalizes(self):
        assert Edge.digon(3, 1) == Edge.digon(1, 3)
        assert Edge.digon(3, 1).u == 1

    def test_arc_keeps_direction(self):
        e = Edge.arc(3, 1)
        assert (e.u, e.v) == (3, 1)
        assert e.pair == (1, 3)

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Edge.arc(2, 2)
        with pytest.raises(ValueError):
            Edge.digon(2, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Edge.arc(-1, 0)


class TestMixedGraph:
    def test_pair_uniqueness_enforced(self):
        with pytest.raises(ValueError):
            MixedGraph(3, frozenset({Edge.arc(0, 1), Edge.arc(1, 0)}))
        with pytest.raises(ValueError):
            MixedGraph(3, frozenset({Edge.arc(0, 1), Edge.digon(0, 1)}))

    def test_vertex_range_enforced(self):
        with pytest.raises(ValueError):
            MixedGraph(2, frozenset({Edge.arc(0, 2)}))

    def test_pair_code(self, p3):
        assert p3.pair_code(0, 1) == 1
        assert p3.pair_code(1, 0) == -1
        assert p3.pair_code(1, 2) == 0
        assert p3.pair_code(2, 1) == 0
        assert p3.pair_code(0, 2) is None

    def test_neighbor_views(self, ac4):
        assert ac4.neighbors(0) == (1, 3)
        assert ac4.out_neighbors(0) == (1, 3)
        assert ac4.in_neighbors(1) == (0, 2)
        assert ac4.digon_neighbors(0) == ()

    def test_degree_profile(self, p3, uc3):
        prof = degree_profile(p3)
        assert prof.degrees == (1, 2, 1)
        assert prof.max_degree == 2
        assert not prof.is_regular
        assert degree_profile(uc3).is_regular


class TestParser:
    def test_round_trip_named(self, dc3, ac4, p3, k4x):
        for g in (dc3, ac4, p3, k4x):
            assert parse_graph(serialize_graph(g)) == g

    def test_comments_and_blanks(self):
        text = "# header\n\n3  # count\n0 -- 1\n\n# mid\n1 -> 2\n"
        g = parse_graph(text)
        assert g.n == 3
        assert g.pair_code(0, 1) == 0
        assert g.pair_code(1, 2) == 1

    def test_error_line_numbers(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("x\n0 -- 1\n")
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("# c\n2\n0 *- 1\n")
        with pytest.raises(GraphFormatError, match="line 2.*loop"):
            parse_graph("2\n1 -> 1\n")
        with pytest.raises(GraphFormatError, match="line 3.*range"):
            parse_graph("2\n0 -- 1\n0 -> 5\n")
        with pytest.raises(GraphFormatError, match="line 3.*second edge"):
            parse_graph("2\n0 -- 1\n1 -> 0\n")
        with pytest.raises(GraphFormatError, match="missing vertex count"):
            parse_graph("# nothing here\n")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.tuples(
                st.just(n), st.integers(0, 4 ** (n * (n - 1) // 2) - 1)
            )
        )
    )
    def test_round_trip_random(self, pair):
        n, code = pair
        g = mixed_graph_from_code(n, code)
        assert parse_graph(serialize_graph(g)) == g


class TestWalk:
    def test_needs_a_vertex(self):
        with pytest.raises(ValueError):
            Walk(())

    def test_closed_and_steps(self):
        w = Walk((0, 1, 2, 0))
        assert w.is_closed
        assert w.edge_count == 3
        assert list(w.steps()) == [(0, 1), (1, 2), (2, 0)]
        assert w.reversed().vertices == (0, 2, 1, 0)

    def test_single_vertex_closed(self):
        assert Walk((4,)).is_closed
        assert Walk((4,)).edge_count == 0


class TestComponents:
    def test_split(self):
        g = MixedGraph.from_edges(5, [(0, 2)], [(3, 4)])
        assert connected_components(g) == ((0, 2), (1,), (3, 4))


class TestFundamentalCycles:
    def test_dc3_cycle_walk(self, dc3):
        basis = fundamental_cycles(dc3)
        assert len(basis.cycles) == 1
        assert basis.cycles[0].vertices == (0, 1, 2, 0)

    def test_cycle_count_formula(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_mixed_graph(rng, rng.randrange(1, 8))
            m = len(g.edges)
            c = len(connected_components(g))
            assert len(fundamental_cycles(g).cycles) == m - g.n + c

    def test_k4_any_mixing_has_three(self):
        rng = random.Random(11)
        for _ in range(5):
            g = complete_mixed(4, rng)
            assert len(fundamental_cycles(g).cycles) == 3

    def test_cycles_are_valid_closed_walks(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_mixed_graph(rng, rng.randrange(2, 8))
            basis = fundamental_cycles(g)
            for walk in basis.cycles:
                assert walk.is_closed
                assert len(set(walk.vertices[:-1])) == walk.edge_count
                for a, b in walk.steps():
                    assert g.pair_code(a, b) is not None

    def test_tree_edge_count(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_mixed_graph(rng, rng.randrange(1, 8))
            basis = fundamental_cycles(g)
            c = len(connected_components(g))
            tree = [(v, p) for v, p in enumerate(basis.parents) if p is not None]
            assert len(tree) == g.n - c
            assert all(g.pair_code(v, p) is not None for v, p in tree)
            assert sum(1 for p in basis.parents if p is None) == c

    def test_cycle_basis_is_built_once_per_graph(self, monkeypatch, k4x):
        built = []

        def counting(graph):
            built.append(graph)
            return fundamental_cycles(graph)

        monkeypatch.setattr(hermix.graphs, "fundamental_cycles", counting)
        numeric_cospectral(k4x, ALPHA_I, ALPHA_GAMMA)
        radius_equality_analysis(k4x, ALPHA_I)
        assert built == [k4x]
        assert k4x.cycle_basis == fundamental_cycles(k4x)


def union_find_components(g) -> tuple[tuple[int, ...], ...]:
    """Independent components: union-find over the edges, grouped by the
    smallest member."""
    root = list(range(g.n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for e in g.edges:
        a, b = sorted((find(e.u), find(e.v)))
        root[b] = a
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(vs) for vs in groups.values()))


def test_forest_gauge_matches_walks():
    """The balances the BFS records are those of the walks themselves: each
    fundamental cycle's, and each vertex's tree path from its root."""
    rng = random.Random(1013)
    for trial in range(150):
        n = trial % 13
        # sparse draws leave graphs disconnected, dense ones connected
        g = random_mixed_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.6, 0.9]))
        basis = g.cycle_basis
        assert len(basis.cycle_balances) == len(basis.cycles)
        for walk, bal in zip(basis.cycles, basis.cycle_balances):
            assert bal == arc_balance(g, walk).balance
        assert len(basis.balances) == g.n
        for v in range(g.n):
            path = [v]
            while basis.parents[path[-1]] is not None:
                path.append(basis.parents[path[-1]])
            assert path[-1] == basis.roots[v]
            assert basis.balances[v] == arc_balance(g, Walk(tuple(reversed(path)))).balance
        assert connected_components(g) == union_find_components(g)


def brute_force_simple_cycles(g, max_len: int) -> set[tuple[int, ...]]:
    """Independent enumeration: permutations per vertex subset."""
    adjacent = {frozenset(e.pair) for e in g.edges}
    found = set()
    for k in range(3, max_len + 1):
        for subset in itertools.combinations(range(g.n), k):
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                seq = (first,) + perm
                if perm[0] > perm[-1]:
                    continue
                if all(
                    frozenset((seq[i], seq[(i + 1) % k])) in adjacent
                    for i in range(k)
                ):
                    found.add(seq + (first,))
    return found


class TestSimpleCycles:
    def test_k4_has_seven(self):
        rng = random.Random(2)
        g = complete_mixed(4, rng)
        cycles = enumerate_simple_cycles(g, 4)
        assert len(cycles) == 7
        lengths = sorted(c.walk.edge_count for c in cycles)
        assert lengths == [3, 3, 3, 3, 4, 4, 4]

    def test_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_mixed_graph(rng, rng.randrange(3, 7), edge_prob=0.6)
            got = {c.vertices for c in enumerate_simple_cycles(g, g.n)}
            assert got == brute_force_simple_cycles(g, g.n)

    def test_max_len_filters(self, ac4):
        assert enumerate_simple_cycles(ac4, 3) == ()
        assert len(enumerate_simple_cycles(ac4, 4)) == 1

    def test_max_len_guard(self, uc3):
        with pytest.raises(ValueError):
            enumerate_simple_cycles(uc3, 2)
