"""Two-phase cospectrality: numerics, structural conditions, search."""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np
import pytest

from hermix import (
    ALPHA_GAMMA,
    ALPHA_I,
    ALPHA_OMEGA,
    ALPHA_ONE,
    MixedGraph,
    MonographKind,
    NumericalError,
    ScaleLimitError,
    StructuralFlags,
    build_hermitian,
    char_poly_expansion,
    eigen_decomposition,
    enumerate_mixed_graphs,
    enumerate_simple_cycles,
    even_arc_condition,
    fundamental_cycles,
    is_monograph,
    make_alpha,
    mixed_graph_from_code,
    numeric_cospectral,
    oriented_bipartite,
    search_cospectral,
)
from hermix import cospectral
from hermix.cospectral import SEARCH_CHUNK
from hermix.spectra import DEFAULT_TOL

from conftest import edge_triples, random_mixed_tree, three_class_clique


class TestEvenArcCondition:
    def test_examples(self, ac4, dc3, uc3):
        assert even_arc_condition(ac4)
        assert not even_arc_condition(dc3)
        assert even_arc_condition(uc3)

    def test_forests_vacuously(self, p3, t2):
        assert even_arc_condition(p3)
        assert even_arc_condition(t2)

    def test_all_cycles_share_the_parity(self):
        # linearity check: if the fundamental cycles pass, every simple cycle does
        rng = random.Random(109)
        for _ in range(80):
            n = rng.randrange(3, 6)
            code = rng.randrange(4 ** (n * (n - 1) // 2))
            g = mixed_graph_from_code(n, code)
            if not even_arc_condition(g):
                continue
            for cycle in enumerate_simple_cycles(g, g.n):
                walk = cycle.vertices
                arcs = sum(1 for a, b in zip(walk, walk[1:]) if g.pair_code(a, b) in (1, -1))
                assert arcs % 2 == 0


class TestOrientedBipartite:
    def test_examples(self, ac4, dc3):
        assert oriented_bipartite(ac4)
        assert not oriented_bipartite(dc3)

    def test_digon_disqualifies(self):
        g = MixedGraph.from_edges(2, [(0, 1)], [])
        assert not oriented_bipartite(g)

    def test_odd_cycle_disqualifies(self):
        g = MixedGraph.from_edges(3, [], [(0, 1), (1, 2), (0, 2)])
        assert not oriented_bipartite(g)

    def test_oriented_forest_qualifies(self, t2):
        assert oriented_bipartite(t2)

    def test_implies_even_arc(self):
        rng = random.Random(113)
        for _ in range(200):
            n = rng.randrange(1, 6)
            code = rng.randrange(4 ** (n * (n - 1) // 2))
            g = mixed_graph_from_code(n, code)
            if oriented_bipartite(g):
                assert even_arc_condition(g)


def test_flags_match_their_definitions():
    """Both flags, both ways, against every simple cycle: even arc parity
    holds exactly when each cycle crosses an even number of arcs, oriented
    bipartiteness exactly when there is no digon and each cycle is even."""
    rng = random.Random(131)
    graphs = [g for n in range(5) for _, g in enumerate_mixed_graphs(n)]
    for n in (5, 6, 7):
        for _ in range(150):
            # a high share of "no edge" digits leaves some graphs disconnected
            weights = (rng.choice((1, 4, 12)), 1, 1, 1)
            digits = rng.choices(range(4), weights=weights, k=n * (n - 1) // 2)
            graphs.append(mixed_graph_from_code(n, sum(d * 4**p for p, d in enumerate(digits))))
    for g in graphs:
        cycles = [c.vertices for c in enumerate_simple_cycles(g, max(g.n, 3))]
        arcs = [sum(g.pair_code(a, b) != 0 for a, b in zip(c, c[1:])) for c in cycles]
        digon = any(kind == "digon" for _, _, kind in edge_triples(g))
        assert even_arc_condition(g) == all(k % 2 == 0 for k in arcs)
        assert oriented_bipartite(g) == (
            not digon and all((len(c) - 1) % 2 == 0 for c in cycles)
        )


class TestNumericCospectral:
    def test_ac4_gamma_omega(self, ac4):
        report = numeric_cospectral(ac4, ALPHA_GAMMA, ALPHA_OMEGA)
        assert report.cospectral
        assert report.flags.even_arc_condition
        assert report.flags.oriented_bipartite

    def test_dc3_gamma_vs_i(self, dc3):
        report = numeric_cospectral(dc3, ALPHA_GAMMA, ALPHA_I)
        assert not report.cospectral
        assert report.max_gap > 0.1

    def test_trees_any_pair(self):
        rng = random.Random(127)
        pairs = [
            (ALPHA_I, ALPHA_GAMMA),
            (ALPHA_ONE, ALPHA_OMEGA),
            (make_alpha("root:1/5"), make_alpha("angle:1.0")),
        ]
        for _ in range(25):
            t = random_mixed_tree(rng, rng.randrange(1, 9))
            for a1, a2 in pairs:
                report = numeric_cospectral(t, a1, a2)
                assert report.cospectral
                assert report.flags.tree

    def test_self_pair_always_cospectral(self, dc3):
        assert numeric_cospectral(dc3, ALPHA_I, ALPHA_I).cospectral

    def test_monograph_both_flag(self, dc3, uc3):
        # gamma and omega are monographs of different kinds on DC3: flag stays off
        report = numeric_cospectral(dc3, ALPHA_GAMMA, ALPHA_OMEGA)
        assert not report.flags.monograph_both
        assert not report.cospectral
        # UC3 has no arcs, so every alpha is a first-kind monograph on it
        report = numeric_cospectral(uc3, ALPHA_I, ALPHA_GAMMA)
        assert report.flags.monograph_both
        assert report.cospectral

    def test_guard_follows_the_sixth_pair_rule(self):
        # even arc parity, a cycle, and a monograph for neither phase
        g = MixedGraph.from_edges(3, [(0, 2)], [(0, 1), (1, 2)])
        flags = numeric_cospectral(g, ALPHA_GAMMA, ALPHA_I).flags
        assert flags.even_arc_condition and not flags.tree and not flags.monograph_both
        with pytest.raises(NumericalError, match="promises cospectrality") as err:
            numeric_cospectral(g, ALPHA_GAMMA, ALPHA_OMEGA, tol=-1.0)
        assert str(err.value).startswith(
            "structural guard failed on the graph "
            "(n=3, 3 edges, alphas root:1/3 and root:1/6): "
        )
        assert not numeric_cospectral(g, ALPHA_GAMMA, ALPHA_I, tol=-1.0).cospectral

    def test_max_gap_small_when_cospectral(self, ac4):
        report = numeric_cospectral(ac4, ALPHA_GAMMA, ALPHA_OMEGA)
        assert report.max_gap <= 1e-9

    def test_failing_stage_stops_the_verdict(self, monkeypatch, dc3):
        # a negative budget fails the residual check of every eigensolve; the
        # first phase's failure raises before the second phase's eigensolve
        monkeypatch.setattr("hermix.spectra.EIGEN_RESIDUAL_TOL", -1.0)
        calls = []
        solve = cospectral._eigh_checked

        def counting(a):
            calls.append(len(a))
            return solve(a)

        monkeypatch.setattr(cospectral, "_eigh_checked", counting)
        with pytest.raises(NumericalError) as err:
            numeric_cospectral(dc3, ALPHA_I, ALPHA_GAMMA)
        assert calls == [1]
        assert str(err.value).startswith(
            "eigen residual failed on the graph (n=3, 3 edges, alpha root:1/4): "
        )

    def test_twelve_vertex_monograph_pair(self):
        # K12 as a three-class gamma monograph: a first-kind monograph under
        # gamma and under 1, so the spectra agree; its trace recursion under
        # gamma leaves an imaginary residue of about 2e-8
        report = numeric_cospectral(three_class_clique(12), ALPHA_GAMMA, ALPHA_ONE)
        assert report.cospectral
        assert report.flags.monograph_both
        assert report.max_gap <= 1e-12


class TestEnumeration:
    def test_code_round_trip(self):
        for n in range(5):
            total = 4 ** (n * (n - 1) // 2)
            for code in random.Random(131).sample(range(total), min(total, 40)):
                g = mixed_graph_from_code(n, code)
                assert g.n == n

    def test_code_out_of_range(self):
        with pytest.raises(ValueError):
            mixed_graph_from_code(2, 4)
        with pytest.raises(ValueError):
            mixed_graph_from_code(2, -1)

    def test_counts(self):
        assert sum(1 for _ in enumerate_mixed_graphs(2)) == 4
        assert sum(1 for _ in enumerate_mixed_graphs(3)) == 64

    def test_distinct(self):
        graphs = [g for _, g in enumerate_mixed_graphs(3)]
        assert len(set(graphs)) == 64

    def test_scale_guard(self):
        with pytest.raises(ScaleLimitError):
            list(enumerate_mixed_graphs(6))


class TestSearch:
    def test_chunk_stacks_are_the_built_matrices(self, monkeypatch):
        # one builder sets every entry: each matrix is exactly Hermitian with
        # a zero diagonal and unit entries, and a chunk's stacks are the
        # stacked build_hermitian matrices of its codes, bit for bit
        alphas = [ALPHA_ONE, ALPHA_I, ALPHA_GAMMA, ALPHA_OMEGA, make_alpha("root:2/5"),
                  make_alpha("angle:0.7"), make_alpha("angle:2.1")]
        seen = []
        verdict = cospectral._checked_gaps

        def recording(stacks, *args):
            seen.append(stacks)
            return verdict(stacks, *args)

        monkeypatch.setattr(cospectral, "_checked_gaps", recording)
        for n in range(5):
            codes = np.arange(4 ** (n * (n - 1) // 2), dtype=np.int64)
            graphs = [mixed_graph_from_code(n, int(code)) for code in codes]
            for pair in zip(alphas[::2], alphas[1::2] + alphas[:1]):
                seen.clear()
                cospectral._ChunkScan(n, *pair, DEFAULT_TOL)(codes)
                for alpha, stack in zip(pair, seen[0]):
                    built = np.array([build_hermitian(g, alpha) for g in graphs])
                    assert (built == built.conj().swapaxes(1, 2)).all()
                    assert not built.diagonal(axis1=1, axis2=2).any()
                    modulus = np.abs(built[built != 0])
                    assert (np.abs(modulus - 1.0) <= 1e-12).all()
                    assert stack.tobytes() == built.tobytes()

    def test_exhaustive_n3_hits_are_cospectral(self):
        hits = list(search_cospectral(3, ALPHA_GAMMA, ALPHA_OMEGA))
        assert hits
        for code, graph, report in hits:
            assert report.cospectral
            assert mixed_graph_from_code(3, code) == graph

    def test_exhaustive_deterministic(self):
        a = search_cospectral(3, ALPHA_GAMMA, ALPHA_I)
        b = search_cospectral(3, ALPHA_GAMMA, ALPHA_I)
        assert [c for c, _, _ in a] == [c for c, _, _ in b]

    def test_forests_always_hit(self):
        hits = {code for code, _, _ in search_cospectral(3, ALPHA_GAMMA, ALPHA_I)}
        for code, g in enumerate_mixed_graphs(3):
            if not fundamental_cycles(g).cycle_balances:
                assert code in hits

    def test_random_mode_reproducible(self):
        a = list(
            search_cospectral(4, ALPHA_GAMMA, ALPHA_OMEGA, mode="random", count=300, seed=5)
        )
        b = list(
            search_cospectral(4, ALPHA_GAMMA, ALPHA_OMEGA, mode="random", count=300, seed=5)
        )
        assert [c for c, _, _ in a] == [c for c, _, _ in b]
        assert a

    def test_random_mode_requires_count_and_seed(self):
        with pytest.raises(ValueError):
            search_cospectral(4, ALPHA_I, ALPHA_GAMMA, mode="random", count=10)
        with pytest.raises(ValueError):
            search_cospectral(4, ALPHA_I, ALPHA_GAMMA, mode="random", seed=1)
        with pytest.raises(ValueError):
            search_cospectral(2, ALPHA_I, ALPHA_GAMMA, mode="random", count=999, seed=1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            search_cospectral(3, ALPHA_I, ALPHA_GAMMA, mode="fancy")

    def test_exhaustive_guard(self):
        with pytest.raises(ScaleLimitError):
            search_cospectral(6, ALPHA_I, ALPHA_GAMMA)

    def test_random_guard(self):
        # 4**36 codes at n = 9 overflow the sampler's range and a 64-bit code
        list(search_cospectral(8, ALPHA_I, ALPHA_GAMMA, mode="random", count=3, seed=1))
        with pytest.raises(ScaleLimitError):
            search_cospectral(9, ALPHA_I, ALPHA_GAMMA, mode="random", count=3, seed=1)

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError):
            search_cospectral(-1, ALPHA_I, ALPHA_GAMMA)

    def test_guard_failure_names_the_graph(self):
        # every forest is promised cospectral, and no gap is within tol -1
        with pytest.raises(NumericalError) as err:
            list(search_cospectral(3, ALPHA_GAMMA, ALPHA_OMEGA, tol=-1.0))
        message = str(err.value)
        assert "guard" in message
        assert "code 0 " in message
        assert "n=3" in message and "root:1/3" in message and "root:1/6" in message

    def test_first_hit_scans_only_the_first_chunk(self, monkeypatch):
        scanned = []
        scan = cospectral._ChunkScan.__call__

        def counting(self, codes):
            scanned.append(len(codes))
            return scan(self, codes)

        monkeypatch.setattr(cospectral._ChunkScan, "__call__", counting)
        assert 4**6 > SEARCH_CHUNK
        hits = search_cospectral(4, ALPHA_GAMMA, ALPHA_OMEGA)
        assert scanned == []
        code, _, _ = next(hits)
        assert code == 0
        assert scanned == [SEARCH_CHUNK]


BATCH_PAIRS = [
    ("gamma", "omega"),
    ("i", "gamma"),
    ("root:2/5", "root:3/7"),
    ("angle:0.7", "angle:2.1"),
    # the only pair here under which a graph (the directed triangle) can be a
    # second-kind monograph for both phases without being a first-kind one
    ("omega", "root:1/2"),
]
N5_SAMPLE = dict(mode="random", count=300, seed=17)


@pytest.fixture(scope="module", params=BATCH_PAIRS, ids="/".join)
def per_graph(request):
    """The alpha pair and ``numeric_cospectral`` on every code at n <= 4 and
    on a seeded n = 5 sample, keyed by (n, code)."""
    a1, a2 = (make_alpha(spec) for spec in request.param)
    codes = [(n, code) for n in range(5) for code in range(4 ** (n * (n - 1) // 2))]
    sample = random.Random(N5_SAMPLE["seed"]).sample(range(4**10), N5_SAMPLE["count"])
    codes += [(5, code) for code in sorted(sample)]
    reports = {
        key: numeric_cospectral(mixed_graph_from_code(*key), a1, a2) for key in codes
    }
    return a1, a2, reports


@pytest.mark.parametrize("pair", BATCH_PAIRS, ids="/".join)
def test_numeric_cospectral_against_public_functions(pair):
    """The verdict that ``numeric_cospectral`` shares with the search, against
    the public single-matrix functions: the same eigensolver on both sides,
    so the report's gap equals the spectrum gap exactly, and its flags are
    the structural conditions read off the graph and its fundamental
    cycles."""
    a1, a2 = (make_alpha(spec) for spec in pair)
    rng = random.Random(149)
    for n in range(11):
        for _ in range(10):
            weights = (rng.choice((1, 4, 12)), 1, 1, 1)
            digits = rng.choices(range(4), weights=weights, k=n * (n - 1) // 2)
            g = mixed_graph_from_code(n, sum(d * 4**p for p, d in enumerate(digits)))
            spectra = [eigen_decomposition(g, a).values for a in (a1, a2)]
            gap = max((abs(x - y) for x, y in zip(*spectra)), default=0.0)
            report = numeric_cospectral(g, a1, a2)
            assert report.max_gap == gap, (n, g)
            assert report.cospectral == (gap <= DEFAULT_TOL)
            assert report.flags == StructuralFlags(
                even_arc_condition=even_arc_condition(g),
                oriented_bipartite=oriented_bipartite(g),
                tree=not fundamental_cycles(g).cycle_balances,
                monograph_both=any(
                    is_monograph(g, a1, kind).verdict and is_monograph(g, a2, kind).verdict
                    for kind in MonographKind
                ),
            ), (n, g)


class TestBatchedSearch:
    """The chunked search against the per-graph path it replaces."""

    def test_every_code_matches_numeric_cospectral(self, per_graph):
        a1, a2, reports = per_graph
        scanned = {}
        for n in range(5):
            hits = list(search_cospectral(n, a1, a2, tol=math.inf))
            assert len(hits) == 4 ** (n * (n - 1) // 2)
            scanned.update(((n, code), report) for code, _, report in hits)
        for code, _, report in search_cospectral(5, a1, a2, tol=math.inf, **N5_SAMPLE):
            scanned[(5, code)] = report
        assert scanned.keys() == reports.keys()
        for key, expected in reports.items():
            got = scanned[key]
            assert abs(got.max_gap - expected.max_gap) <= 1e-12, key
            assert (got.max_gap <= DEFAULT_TOL) == expected.cospectral, key
            assert got.flags == expected.flags, key
            assert (got.alpha1, got.alpha2) == (a1, a2)

    def test_hits_match_the_per_graph_loop(self, per_graph):
        a1, a2, reports = per_graph
        assert 4**6 > SEARCH_CHUNK
        hits = list(search_cospectral(4, a1, a2))
        expected = [code for (n, code), r in reports.items() if n == 4 and r.cospectral]
        assert [code for code, _, _ in hits] == expected
        assert expected == sorted(expected)
        for code, graph, report in hits:
            assert graph == mixed_graph_from_code(4, code)
            assert report.cospectral
            assert report.flags == reports[(4, code)].flags


def _even_arc_and_forest_counts(n: int) -> tuple[int, int]:
    """How many codes on n vertices have every cycle crossing an even number
    of arcs, and how many are forests, counted without decoding any code.

    On a fixed underlying graph the arcs must form a cut (the edges across a
    2-colouring), each arc in either direction, every other edge a digon.  A
    graph with c components has 2**(n - c) cuts, so it is a forest exactly
    when that exponent equals its edge count; then all 3**|E| codes count.
    """
    pairs = list(combinations(range(n), 2))
    even = forests = 0
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        cuts = {
            frozenset(e for e in edges if (colour >> e[0] & 1) != (colour >> e[1] & 1))
            for colour in range(1 << n)
        }
        even += sum(2 ** len(cut) for cut in cuts)
        if 1 << len(edges) == len(cuts):
            forests += 3 ** len(edges)
    return even, forests


@pytest.mark.slow
def test_exhaustive_n5_gamma_omega_search():
    """Every forest and every even-arc graph on 5 vertices is a gamma/omega hit."""
    hits = list(search_cospectral(5, ALPHA_GAMMA, ALPHA_OMEGA))
    codes = [code for code, _, _ in hits]
    assert codes == sorted(set(codes))
    even, forests = _even_arc_and_forest_counts(5)
    assert sum(r.flags.even_arc_condition for _, _, r in hits) == even
    assert sum(r.flags.tree for _, _, r in hits) == forests
    # the arc-parity condition is not necessary: other hits exist
    assert len(hits) > even


class TestSoundnessSmall:
    """The full n <= 4 sweep runs in the acceptance suite; spot checks here."""

    def test_even_arc_implies_gamma_omega(self):
        rng = random.Random(137)
        checked = 0
        for _ in range(250):
            n = rng.randrange(1, 5)
            code = rng.randrange(4 ** (n * (n - 1) // 2))
            g = mixed_graph_from_code(n, code)
            if not even_arc_condition(g):
                continue
            checked += 1
            assert numeric_cospectral(g, ALPHA_GAMMA, ALPHA_OMEGA).cospectral
        assert checked > 40

    def test_non_converse_witness(self):
        # the arc-parity condition is sufficient, not necessary; no witness
        # exists on 4 or fewer vertices, so the witnesses are named at n = 5
        for n in range(2, 5):
            for _, g in enumerate_mixed_graphs(n):
                if even_arc_condition(g):
                    continue
                assert not numeric_cospectral(g, ALPHA_GAMMA, ALPHA_OMEGA).cospectral
        for code in (5726, 522618):
            g = mixed_graph_from_code(5, code)
            assert not even_arc_condition(g)
            report = numeric_cospectral(g, ALPHA_GAMMA, ALPHA_OMEGA)
            assert not any(report.flags.as_dict().values())
            assert report.cospectral
            gamma = char_poly_expansion(g, ALPHA_GAMMA)
            omega = char_poly_expansion(g, ALPHA_OMEGA)
            assert gamma == omega


def test_flags_imply_the_promise_they_dropped(per_graph):
    """The guard's promise is a shared monograph kind, or even arc parity for
    the sixth-turn pair: a tree is a monograph of both kinds for every phase,
    and an oriented bipartite graph has even arc parity."""
    _, _, reports = per_graph
    for key, report in reports.items():
        flags = report.flags
        assert not flags.tree or flags.monograph_both, key
        assert not flags.oriented_bipartite or flags.even_arc_condition, key


class TestGuardPromise:
    """With ``tol=-1`` no gap is within tolerance, so every promise raises."""

    def test_trees_under_any_pair(self):
        rng = random.Random(127)
        pairs = [
            (ALPHA_I, ALPHA_GAMMA),
            (ALPHA_ONE, ALPHA_OMEGA),
            (make_alpha("root:1/5"), make_alpha("angle:1.0")),
        ]
        for _ in range(25):
            t = random_mixed_tree(rng, rng.randrange(1, 9))
            for a1, a2 in pairs:
                with pytest.raises(NumericalError, match="^structural guard failed"):
                    numeric_cospectral(t, a1, a2, tol=-1.0)

    def test_oriented_four_cycle_under_gamma_omega(self, dc4):
        # promised by even arc parity alone: no shared monograph kind
        flags = numeric_cospectral(dc4, ALPHA_GAMMA, ALPHA_OMEGA).flags
        assert flags == StructuralFlags(True, True, False, False)
        with pytest.raises(NumericalError, match="^structural guard failed"):
            numeric_cospectral(dc4, ALPHA_GAMMA, ALPHA_OMEGA, tol=-1.0)


def _oriented_bipartite_count(n: int) -> int:
    """How many codes on n vertices have no digon and a bipartite underlying
    graph, counted without decoding any code: each bipartite underlying
    graph counts once per orientation of its edges, 2**|E| times."""
    pairs = list(combinations(range(n), 2))
    total = 0
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if any(
            all((colour >> u & 1) != (colour >> v & 1) for u, v in edges)
            for colour in range(1 << n)
        ):
            total += 2 ** len(edges)
    return total


@pytest.mark.slow
def test_exhaustive_n5_flags_gamma_omega():
    """Every code on 5 vertices under gamma/omega, all reported: the
    oriented bipartite flag fires on exactly the codes counted directly, and
    both dropped promises are implied on every code."""
    bipartite = scanned = 0
    for _, _, report in search_cospectral(5, ALPHA_GAMMA, ALPHA_OMEGA, tol=math.inf):
        flags = report.flags
        scanned += 1
        bipartite += flags.oriented_bipartite
        assert not flags.tree or flags.monograph_both
        assert not flags.oriented_bipartite or flags.even_arc_condition
    assert scanned == 4**10
    assert bipartite == _oriented_bipartite_count(5)
