"""Graph container, parser, cycle machinery."""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermix.graphs
from hermix import (
    ALPHA_GAMMA,
    ALPHA_I,
    GraphFormatError,
    InvalidWalkError,
    MixedGraph,
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

from conftest import complete_mixed, edge_triples, from_triples, random_mixed_graph


class TestEdge:
    """Edges as ``from_edges`` takes them: digon pairs and arc pairs."""

    def test_digon_canonicalizes(self):
        g = MixedGraph.from_edges(4, [(3, 1)])
        assert g == MixedGraph.from_edges(4, [(1, 3)])
        assert edge_triples(g) == [(1, 3, "digon")]
        # the same digon given both ways is one edge
        assert MixedGraph.from_edges(4, [(0, 1), (1, 0)]) == MixedGraph.from_edges(4, [(0, 1)])

    def test_arc_keeps_direction(self):
        g = MixedGraph.from_edges(4, arcs=[(3, 1)])
        assert edge_triples(g) == [(3, 1, "arc")]
        assert (g.pair_code(3, 1), g.pair_code(1, 3)) == (1, -1)
        assert serialize_graph(g) == "4\n3 -> 1\n"

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="^loop at vertex 2$"):
            MixedGraph.from_edges(3, arcs=[(2, 2)])
        with pytest.raises(ValueError, match="^loop at vertex 2$"):
            MixedGraph.from_edges(3, [(2, 2)])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="^negative vertex id$"):
            MixedGraph.from_edges(2, arcs=[(-1, 0)])
        with pytest.raises(ValueError, match="^negative vertex id$"):
            MixedGraph.from_edges(2, [(1, -3)])

    def test_ids_must_be_integers(self):
        # a float or bool id would serialize as text the parser rejects
        for digons, arcs, bad in (
            ([], [(0.0, 1), (1, 2)], "0.0"),
            ([], [(True, 2)], "True"),
            ([(1, False)], [], "False"),
            ([(np.float64(2.0), 0)], [], repr(np.float64(2.0))),
            ([], [(0, "1")], "'1'"),
        ):
            with pytest.raises(ValueError, match=f"^vertex id {re.escape(bad)} is not an integer$"):
                MixedGraph.from_edges(3, digons, arcs)

    def test_numpy_integer_ids_build_the_int_graph(self):
        g = MixedGraph.from_edges(
            4, [(np.int64(3), np.int32(1))], [(np.int64(0), np.uint8(2)), (np.intp(2), 3)]
        )
        assert g == MixedGraph.from_edges(4, [(3, 1)], [(0, 2), (2, 3)])
        assert serialize_graph(g) == "4\n0 -> 2\n1 -- 3\n2 -> 3\n"
        assert parse_graph(serialize_graph(g)) == g


class TestMixedGraph:
    def test_pair_uniqueness_enforced(self):
        with pytest.raises(ValueError, match=r"^more than one edge for pair \(0, 1\)$"):
            MixedGraph.from_edges(3, arcs=[(0, 1), (1, 0)])
        with pytest.raises(ValueError, match=r"^more than one edge for pair \(0, 1\)$"):
            MixedGraph.from_edges(3, [(1, 0)], [(0, 1)])

    def test_identical_edge_counts_once(self):
        once = MixedGraph.from_edges(3, [(1, 2)], [(0, 1)])
        assert MixedGraph.from_edges(3, [(1, 2), (2, 1), (1, 2)], [(0, 1), (0, 1)]) == once

    def test_vertex_range_enforced(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 2\) uses a vertex id >= n=2$"):
            MixedGraph.from_edges(2, arcs=[(0, 2)])
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            MixedGraph.from_edges(-1)

    def test_errors_name_the_lowest_row(self):
        # rows sort by pair, so the out-of-range (0, 5) comes before the
        # later pairs, and before the loop at 3
        with pytest.raises(ValueError, match=r"^edge \(0, 5\) uses a vertex id >= n=4$"):
            MixedGraph.from_edges(4, arcs=[(0, 5), (6, 1)], digons=[(2, 7)])
        with pytest.raises(ValueError, match=r"^edge \(0, 5\) uses a vertex id >= n=4$"):
            MixedGraph.from_edges(4, arcs=[(3, 3), (0, 5)])
        with pytest.raises(ValueError, match=r"^edge \(6, 1\) uses a vertex id >= n=4$"):
            MixedGraph.from_edges(4, arcs=[(6, 1)], digons=[(2, 7)])

    def test_pair_code(self, p3):
        assert p3.pair_code(0, 1) == 1
        assert p3.pair_code(1, 0) == -1
        assert p3.pair_code(1, 2) == 0
        assert p3.pair_code(2, 1) == 0
        assert p3.pair_code(0, 2) is None

    def test_neighbor_views(self, ac4, p3):
        assert ac4.neighbors(0) == (1, 3)
        assert [ac4.pair_code(0, w) for w in ac4.neighbors(0)] == [1, 1]
        assert ac4.neighbors(1) == (0, 2)
        assert [ac4.pair_code(1, w) for w in ac4.neighbors(1)] == [-1, -1]
        assert [p3.pair_code(1, w) for w in p3.neighbors(1)] == [-1, 0]

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

    def test_superscript_count_names_its_line(self):
        # str.isdigit accepts "²", which int() then refuses
        with pytest.raises(GraphFormatError, match="line 1: expected a vertex count, got '²'"):
            parse_graph("²\n")

    def test_non_ascii_digits_name_their_line(self):
        with pytest.raises(GraphFormatError, match="line 1: expected a vertex count"):
            parse_graph("٣\n٠ -- ١\n")
        with pytest.raises(GraphFormatError, match="line 2: malformed edge '٠ -- ١'"):
            parse_graph("3\n٠ -- ١\n")

    def test_too_many_digits_name_their_line(self):
        # int() refuses more digits than sys.get_int_max_str_digits()
        with pytest.raises(GraphFormatError, match="line 1: Exceeds the limit"):
            parse_graph("9" * 5000 + "\n")
        with pytest.raises(GraphFormatError, match="line 3: Exceeds the limit"):
            parse_graph("3\n0 -> 1\n0 -> " + "1" * 5000 + "\n")

    def test_whitespace_separators_and_comments(self):
        text = "\u00a03\u3000# count\r\n0\t->\t1 # arc\r2\u00a0--\u00a01\x0b\u2028# end"
        assert parse_graph(text) == MixedGraph.from_edges(3, [(1, 2)], [(0, 1)])
        with pytest.raises(GraphFormatError, match="line 4: loop at vertex 2"):
            parse_graph("3\r0 -> 1\x0b\u20282 -> 2\n")

    def test_matches_line_reference_on_decorated_text(self):
        errors = 0
        for seed in range(3000):
            text = decorated_text(random.Random(seed))
            try:
                want = reference_parse(text)
            except GraphFormatError as exc:
                errors += 1
                with pytest.raises(GraphFormatError) as got:
                    parse_graph(text)
                assert str(got.value) == str(exc), text
                continue
            g = parse_graph(text)
            assert g == want and hash(g) == hash(want), text
        # both outcomes are well represented
        assert 600 < errors < 2400

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


_REFERENCE_EDGE = re.compile(r"^([0-9]+)\s*(--|->)\s*([0-9]+)$")


def reference_parse(text: str) -> MixedGraph:
    """The line-at-a-time parser that collected the edges for
    ``MixedGraph.from_edges``, with digits read as ASCII only."""
    n = None
    edges = []
    seen = set()
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not (line.isascii() and line.isdigit()):
                raise GraphFormatError(f"line {idx}: expected a vertex count, got {raw.strip()!r}")
            n = int(line)
            continue
        m = _REFERENCE_EDGE.match(line)
        if not m:
            raise GraphFormatError(f"line {idx}: malformed edge {raw.strip()!r}")
        u, v = int(m.group(1)), int(m.group(3))
        if u == v:
            raise GraphFormatError(f"line {idx}: loop at vertex {u}")
        if u >= n or v >= n:
            raise GraphFormatError(f"line {idx}: vertex id out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"line {idx}: second edge for pair {key}")
        seen.add(key)
        edges.append((u, v, "digon" if m.group(2) == "--" else "arc"))
    if n is None:
        raise GraphFormatError("missing vertex count line")
    return from_triples(n, edges)


_SPACES = ["", " ", "  ", "\t", "\u00a0", "\u3000"]
_BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"]
_JUNK = ["x", "0 -- ", "-> 1", "1 2", "٣", "²", "0 <- 1", "0 --- 1", "#", "0 -- 1 x", "1 -> 1"]


def decorated_text(rng: random.Random) -> str:
    """A random graph written with random spacing, comments, blank lines and
    line breaks, sometimes with a line out of place or a second edge on a
    pair."""
    n = rng.randrange(0, 7)
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    if edges and rng.random() < 0.1:
        edges.append(rng.choice(edges)[::-1])
    if n > 1 and rng.random() < 0.15:
        edges.append((rng.randrange(n), n + rng.randrange(2)))
    lines = [
        f"{u}{rng.choice(_SPACES)}{rng.choice(['--', '->'])}{rng.choice(_SPACES)}{v}"
        for u, v in edges
    ]
    rng.shuffle(lines)
    lines.insert(0 if rng.random() < 0.9 else rng.randrange(len(lines) + 1), str(n))
    for _ in range(rng.randrange(3)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# note", " \t", *_JUNK[:2]]))
    if rng.random() < 0.3:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_JUNK))
    out = []
    for line in lines:
        pad = rng.choice(_SPACES), rng.choice(_SPACES)
        note = rng.choice(["", "", f"#{rng.choice(_JUNK)}"])
        out.append(pad[0] + line + pad[1] + note + rng.choice(_BREAKS))
    return "".join(out)


class TestWalk:
    """A walk is any sequence of vertices."""

    def test_needs_a_vertex(self, dc3):
        with pytest.raises(InvalidWalkError, match="^a walk has at least one vertex$"):
            arc_balance(dc3, ())

    def test_closed_and_steps(self, dc3):
        walk = (0, 1, 2, 0)
        assert arc_balance(dc3, walk) == (3, 3)
        assert arc_balance(dc3, walk[::-1]) == (-3, 3)
        assert arc_balance(dc3, list(walk)) == arc_balance(dc3, walk)

    def test_single_vertex_closed(self, dc3):
        assert arc_balance(dc3, (2,)) == (0, 0)
        assert arc_balance(dc3, [2]) == (0, 0)


class TestComponents:
    def test_split(self):
        g = MixedGraph.from_edges(5, [(0, 2)], [(3, 4)])
        assert connected_components(g) == ((0, 2), (1,), (3, 4))


class TestFundamentalCycles:
    def test_dc3_cycle_walk(self, dc3):
        basis = fundamental_cycles(dc3)
        assert len(basis.cycle_balances) == 1
        assert basis.cycle(0) == (0, 1, 2, 0)

    def test_cycle_count_formula(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_mixed_graph(rng, rng.randrange(1, 8))
            m = len(edge_triples(g))
            c = len(connected_components(g))
            assert len(fundamental_cycles(g).cycle_balances) == m - g.n + c

    def test_k4_any_mixing_has_three(self):
        rng = random.Random(11)
        for _ in range(5):
            g = complete_mixed(4, rng)
            assert len(fundamental_cycles(g).cycle_balances) == 3

    def test_cycles_are_valid_closed_walks(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_mixed_graph(rng, rng.randrange(2, 8))
            basis = fundamental_cycles(g)
            for i in range(len(basis.cycle_balances)):
                walk = basis.cycle(i)
                assert walk[0] == walk[-1]
                assert len(set(walk[:-1])) == len(walk) - 1
                for a, b in zip(walk, walk[1:]):
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

    for u, v, _ in edge_triples(g):
        a, b = sorted((find(u), find(v)))
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
        for i, bal in enumerate(basis.cycle_balances):
            assert bal == arc_balance(g, basis.cycle(i)).balance
        assert len(basis.balances) == g.n
        for v in range(g.n):
            path = [v]
            while basis.parents[path[-1]] is not None:
                path.append(basis.parents[path[-1]])
            assert path[-1] == basis.roots[v]
            assert basis.balances[v] == arc_balance(g, path[::-1]).balance
        assert connected_components(g) == union_find_components(g)


def brute_force_simple_cycles(g, max_len: int) -> set[tuple[int, ...]]:
    """Independent enumeration: permutations per vertex subset."""
    adjacent = {frozenset((u, v)) for u, v, _ in edge_triples(g)}
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
        lengths = sorted(len(c.vertices) - 1 for c in cycles)
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


def random_edges(rng: random.Random, n: int, edge_prob: float) -> list[tuple[int, int, str]]:
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < edge_prob:
            edges.append(rng.choice([(u, v, "digon"), (u, v, "arc"), (v, u, "arc")]))
    return edges


def reference_views(n: int, edges: list[tuple[int, int, str]]) -> dict:
    """Pair codes, neighbour lists and the spanning forest built straight
    from ``(u, v, kind)`` triples, as graphs built them before they kept an
    edge table."""
    codes = {}
    for u, v, kind in edges:
        step = 0 if kind == "digon" else 1
        codes[u, v] = step
        codes[v, u] = -step
    neighbors = [[] for _ in range(n)]
    for x, w in sorted(codes):
        neighbors[x].append(w)
    parents, roots, depths, balances = [None] * n, [-1] * n, [0] * n, [0] * n
    for r in range(n):
        if roots[r] != -1:
            continue
        roots[r] = r
        queue = [r]
        for x in queue:
            for y in neighbors[x]:
                if roots[y] == -1:
                    roots[y], parents[y] = r, x
                    depths[y] = depths[x] + 1
                    balances[y] = balances[x] + codes[x, y]
                    queue.append(y)
    # in pair order, a digon from its smaller end and an arc from its tail
    stored = tuple(sorted(
        ((min(u, v), max(u, v), kind) if kind == "digon" else (u, v, kind) for u, v, kind in edges),
        key=lambda e: sorted(e[:2]),
    ))
    non_tree = tuple((u, v) for u, v, _ in stored if parents[u] != v and parents[v] != u)
    return {
        "edges": stored,
        "codes": codes,
        "neighbors": tuple(map(tuple, neighbors)),
        "non_tree": non_tree,
        "parents": tuple(parents),
        "roots": tuple(roots),
        "depths": tuple(depths),
        "balances": tuple(balances),
        "cycle_balances": tuple(balances[u] + codes[u, v] - balances[v] for u, v in non_tree),
        "cycle_parities": tuple((depths[u] + depths[v] + 1) % 2 for u, v in non_tree),
    }


def assert_matches_reference_build(g: MixedGraph, n: int, edges: list[tuple[int, int, str]]) -> None:
    """``g`` against ``from_edges`` on the same triples and against the
    views built from the triples alone."""
    ref = from_triples(n, edges)
    assert g == ref and hash(g) == hash(ref)
    views = reference_views(n, edges)
    assert tuple(edge_triples(g)) == views["edges"]
    for u in range(n):
        for v in range(n):
            assert g.pair_code(u, v) == views["codes"].get((u, v))
        assert g.neighbors(u) == views["neighbors"][u]
    assert degree_profile(g).degrees == tuple(map(len, views["neighbors"]))
    basis = g.cycle_basis
    for name in ("parents", "roots", "depths", "balances", "cycle_balances", "cycle_parities"):
        assert getattr(basis, name) == views[name], name
    assert basis == ref.cycle_basis
    for i, (u, v) in enumerate(views["non_tree"]):
        # down the tree to the stored tail, across the edge, back up
        cycle = basis.cycle(i)
        j = cycle.index(u)
        assert cycle[j + 1] == v
        assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
        assert arc_balance(g, cycle).balance == basis.cycle_balances[i]


def test_table_matches_frozenset_build_small():
    rng = random.Random(1201)
    for trial in range(390):
        n = trial % 13
        edges = random_edges(rng, n, rng.choice([0.1, 0.3, 0.6, 0.9]))
        g = parse_graph(serialize_graph(from_triples(n, edges)))
        assert_matches_reference_build(g, n, edges)


@pytest.mark.parametrize("n", [60, 97, 143, 200])
def test_table_matches_frozenset_build_large(n):
    rng = random.Random(n)
    # about 1.2 n edges, as on the large benchmark inputs, and a dense draw
    for edge_prob in (2.4 / n, 0.3):
        edges = random_edges(rng, n, edge_prob)
        g = parse_graph(serialize_graph(from_triples(n, edges)))
        assert_matches_reference_build(g, n, edges)


def test_code_decoding_matches_edge_by_edge_build():
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for code in range(4 ** len(pairs)):
            edges = []
            for p, (u, v) in enumerate(pairs):
                digit = code // 4**p % 4
                if digit:
                    edges.append([(u, v, "digon"), (u, v, "arc"), (v, u, "arc")][digit - 1])
            g, ref = mixed_graph_from_code(n, code), from_triples(n, edges)
            assert g == ref and hash(g) == hash(ref)
            assert edge_triples(g) == edges


def test_equality_follows_vertex_count_and_table():
    g = MixedGraph.from_edges(3, [(0, 1)], [(2, 1)])
    assert g == parse_graph("3\n2 -> 1\n1 -- 0\n")
    assert g != MixedGraph.from_edges(4, [(0, 1)], [(2, 1)])
    assert g != MixedGraph.from_edges(3, [(0, 1)], [(1, 2)])
    assert len({g, parse_graph(serialize_graph(g))}) == 1


_LOWEST_OFFENDER = """
from hermix import MixedGraph

for n, digons, arcs in [
    (4, [(0, 2)], [(0, 1), (1, 0), (0, 2), (0, 3), (3, 0)]),
    (4, [(2, 7)], [(0, 5), (6, 1)]),
]:
    try:
        MixedGraph.from_edges(n, digons, arcs)
    except ValueError as exc:
        print(exc)
"""


def test_errors_name_lowest_offender_independent_of_hash_seed():
    # each error must name the first offender in table order, whatever the
    # hash order of the sets the edges pass through
    outputs = set()
    for seed in ("1", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _LOWEST_OFFENDER], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {
        "more than one edge for pair (0, 1)\n"
        "edge (0, 5) uses a vertex id >= n=4\n"
    }
