"""End-to-end acceptance checks for the whole package.

Each test exercises one advertised guarantee at desk scale and prints one
line ``ACCEPTANCE <k> <name>: PASS/FAIL (<detail>)`` straight to the
terminal (bypassing capture), so any pytest run doubles as the acceptance
report.  Sweeps are exhaustive where that is affordable (every mixed graph
on up to four vertices) and seeded-random elsewhere, so every run checks
the identical population.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from hermix import (
    ALPHA_GAMMA,
    ALPHA_I,
    ALPHA_OMEGA,
    ALPHA_ONE,
    AttachDirection,
    Attachment,
    MixedGraph,
    MonographKind,
    build_hermitian,
    char_poly_expansion,
    connected_components,
    degree_profile,
    enumerate_simple_cycles,
    eigen_decomposition,
    even_arc_condition,
    extend_monograph,
    is_monograph,
    make_alpha,
    mixed_graph_from_code,
    negated_spectrum_check,
    numeric_cospectral,
    oriented_bipartite,
    parse_graph,
    radius_equality_analysis,
    spectral_radius,
    transfer_eigenvectors,
    verify_eigenpair,
    walk_value_g,
    walk_value_h,
)

from conftest import numeric_char_poly, random_mixed_tree

FIXTURES = Path(__file__).parent / "fixtures"

TRIO = (ALPHA_I, ALPHA_GAMMA, ALPHA_OMEGA)
FIVE_ALPHAS = (
    ALPHA_I,
    ALPHA_GAMMA,
    ALPHA_OMEGA,
    make_alpha("root:1/5"),
    make_alpha("angle:1.0"),
)


@contextmanager
def criterion(capsys, k: int, name: str):
    """Print one report line per criterion, whatever happens inside."""
    outcome = {"ok": False, "detail": "did not finish"}
    try:
        yield outcome
    except BaseException as exc:
        outcome["detail"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        status = "PASS" if outcome["ok"] else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {k} {name}: {status} ({outcome['detail']})")
    assert outcome["ok"], f"criterion {k} {name}: {outcome['detail']}"


@pytest.fixture(scope="module")
def small_sweep() -> list[MixedGraph]:
    """Every mixed graph on 1..4 vertices (4165 graphs)."""
    return [
        mixed_graph_from_code(n, code)
        for n in range(1, 5)
        for code in range(4 ** (n * (n - 1) // 2))
    ]


@pytest.fixture(scope="module")
def monograph_hits(small_sweep) -> dict[MonographKind, list[tuple[MixedGraph, object]]]:
    """All (graph, alpha) monograph pairs of each kind in the small sweep."""
    hits: dict[MonographKind, list[tuple[MixedGraph, object]]] = {
        MonographKind.FIRST: [],
        MonographKind.SECOND: [],
    }
    for g in small_sweep:
        for a in TRIO:
            for kind in hits:
                if is_monograph(g, a, kind).verdict:
                    hits[kind].append((g, a))
    return hits


@pytest.fixture(scope="module")
def connected_n5() -> list[MixedGraph]:
    """2000 seeded connected five-vertex graphs."""
    rng = random.Random(1506)
    out: list[MixedGraph] = []
    while len(out) < 2000:
        g = mixed_graph_from_code(5, rng.randrange(4**10))
        if len(connected_components(g)) == 1:
            out.append(g)
    return out


def _spectrum_gap(g: MixedGraph, a1, a2) -> float:
    s1 = eigen_decomposition(build_hermitian(g, a1)).values
    s2 = eigen_decomposition(build_hermitian(g, a2)).values
    return max((abs(x - y) for x, y in zip(s1, s2)), default=0.0)


def test_1_tree_cospectrality(capsys):
    """A mixed tree has the spectrum of its underlying tree for every alpha."""
    with criterion(capsys, 1, "tree-cospectrality") as c:
        rng = random.Random(1101)
        worst = 0.0
        for _ in range(50):
            tree = random_mixed_tree(rng, rng.randint(2, 10))
            for a in FIVE_ALPHAS:
                worst = max(worst, _spectrum_gap(tree, a, ALPHA_ONE))
        c["detail"] = f"50 trees, n<=10, 5 alphas, max spectral gap {worst:.2e}"
        c["ok"] = worst <= 1e-9


def test_2_oracle_equivalence(capsys, small_sweep):
    """Trace recursion and packing expansion agree on every coefficient."""
    with criterion(capsys, 2, "oracle-equivalence") as c:
        rng = random.Random(1202)
        population = list(small_sweep) + [
            mixed_graph_from_code(6, code) for code in rng.sample(range(4**15), 2000)
        ]
        worst = 0.0
        for g in population:
            for a in TRIO:
                fl = numeric_char_poly(g, a)
                ex = char_poly_expansion(g, a)
                worst = max(worst, max((abs(x - y) for x, y in zip(fl, ex)), default=0.0))
        c["detail"] = (
            f"exhaustive n<=4 plus 2000 seeded n=6, 3 alphas, max coeff gap {worst:.2e}"
        )
        c["ok"] = worst <= 1e-8


def test_3_detection_equivalence(capsys, small_sweep):
    """Gauge-based detection matches checking every simple cycle directly."""
    with criterion(capsys, 3, "detection-equivalence") as c:
        checked = disagreements = 0
        for g in small_sweep:
            cycles = [c.vertices for c in enumerate_simple_cycles(g, max(3, g.n))] if g.n >= 3 else ()
            for a in TRIO:
                for kind, value in (
                    (MonographKind.FIRST, walk_value_h),
                    (MonographKind.SECOND, walk_value_g),
                ):
                    brute = all(value(g, a, w).is_identity() for w in cycles)
                    if is_monograph(g, a, kind).verdict != brute:
                        disagreements += 1
                    checked += 1
        c["detail"] = f"{checked} graph/alpha/kind checks, {disagreements} disagreements"
        c["ok"] = disagreements == 0


def test_4_first_kind_transfer(capsys, monograph_hits):
    """First-kind monographs carry the underlying eigenbasis across."""
    with criterion(capsys, 4, "first-kind-transfer") as c:
        worst_resid = worst_gap = 0.0
        hits = monograph_hits[MonographKind.FIRST]
        for g, a in hits:
            basis = eigen_decomposition(build_hermitian(g, ALPHA_ONE))
            moved, _ = transfer_eigenvectors(g, a, basis)
            resid = verify_eigenpair(g, a, moved.values, moved.vectors)
            worst_resid = max(worst_resid, resid.max(initial=0.0))
            worst_gap = max(worst_gap, _spectrum_gap(g, a, ALPHA_ONE))
        c["detail"] = (
            f"{len(hits)} first-kind hits, max residual {worst_resid:.2e}, "
            f"max spectral gap {worst_gap:.2e}"
        )
        c["ok"] = worst_resid <= 1e-8 and worst_gap <= 1e-8


def test_5_second_kind_negation(capsys, monograph_hits):
    """Second-kind monographs negate the underlying spectrum; pinned fixture."""
    with criterion(capsys, 5, "second-kind-negation") as c:
        hits = monograph_hits[MonographKind.SECOND]
        failures = sum(1 for g, a in hits if not negated_spectrum_check(g, a, tol=1e-8))
        k4x = parse_graph((FIXTURES / "k4x.mg").read_text())
        spec = eigen_decomposition(build_hermitian(k4x, ALPHA_I)).values
        fixture_gap = max(abs(x - y) for x, y in zip(spec, (1.0, 1.0, 1.0, -3.0)))
        c["detail"] = (
            f"{len(hits)} second-kind hits, {failures} negation failures, "
            f"K4 fixture spectrum gap {fixture_gap:.2e}"
        )
        c["ok"] = failures == 0 and fixture_gap <= 1e-8


def test_6_radius_characterization(capsys, small_sweep, connected_n5):
    """Radius hits the degree bound exactly on regular monographs, never above."""
    with criterion(capsys, 6, "radius-characterization") as c:
        connected = [g for g in small_sweep if len(connected_components(g)) <= 1]
        inconsistent = gamma_not_first = 0
        for g in connected + connected_n5:
            for a in TRIO:
                rep = radius_equality_analysis(g, a)
                if not rep.theorem_consistent:
                    inconsistent += 1
                if a is ALPHA_GAMMA and rep.equal and not rep.mono1:
                    gamma_not_first += 1
        over_bound = 0
        for g in small_sweep + connected_n5:
            delta = degree_profile(g).max_degree
            for a in TRIO:
                if spectral_radius(g, a) > delta + 1e-9:
                    over_bound += 1
        c["detail"] = (
            f"{len(connected) + len(connected_n5)} connected graphs x 3 alphas: "
            f"{inconsistent} inconsistent, {gamma_not_first} gamma equalities not "
            f"first kind, {over_bound} radius bound violations"
        )
        c["ok"] = inconsistent == 0 and gamma_not_first == 0 and over_bound == 0


def _random_oriented_bipartite(rng: random.Random) -> MixedGraph:
    n = rng.randint(2, 8)
    sides = [rng.randrange(2) for _ in range(n)]
    if len(set(sides)) < 2:
        sides[0], sides[-1] = 0, 1
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if sides[u] != sides[v] and rng.random() < 0.5:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return MixedGraph.from_edges(n, arcs=arcs)


def test_7_gamma_omega_soundness(capsys, small_sweep):
    """Even-arc cycles or oriented bipartite structure force gamma-omega ties."""
    with criterion(capsys, 7, "gamma-omega-soundness") as c:
        rng = random.Random(1707)
        population = [_random_oriented_bipartite(rng) for _ in range(100)]
        assert all(oriented_bipartite(g) for g in population)
        population += [g for g in small_sweep if even_arc_condition(g)]
        worst = 0.0
        violations = 0
        for g in population:
            rep = numeric_cospectral(g, ALPHA_GAMMA, ALPHA_OMEGA, tol=1e-8)
            worst = max(worst, rep.max_gap)
            if not rep.cospectral:
                violations += 1
        c["detail"] = (
            f"100 oriented bipartite + {len(population) - 100} even-arc sweep "
            f"graphs, {violations} violations, max gap {worst:.2e}"
        )
        c["ok"] = violations == 0 and worst <= 1e-8


def _random_undirected_connected(rng: random.Random, n: int) -> MixedGraph:
    digons = [(rng.randrange(v), v) for v in range(1, n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                digons.append((u, v))
    return MixedGraph.from_edges(n, digons)


def test_8_extension_closure(capsys):
    """Attaching one-way arc vertices to an undirected base stays first kind."""
    with criterion(capsys, 8, "extension-closure") as c:
        rng = random.Random(1808)
        failures = 0
        grown_vertices = 0
        for _ in range(100):
            base = _random_undirected_connected(rng, rng.randint(1, 6))
            alpha = rng.choice(FIVE_ALPHAS)
            attachments = [
                Attachment(
                    frozenset(rng.sample(range(base.n), rng.randint(1, base.n))),
                    rng.choice((AttachDirection.OUT, AttachDirection.IN)),
                )
                for _ in range(rng.randint(1, 3))
            ]
            grown = extend_monograph(base, alpha, range(base.n), attachments)
            grown_vertices += grown.n - base.n
            if not is_monograph(grown, alpha, MonographKind.FIRST).verdict:
                failures += 1
        c["detail"] = (
            f"100 extensions, {grown_vertices} vertices attached, {failures} failures"
        )
        c["ok"] = failures == 0


def test_9_pinned_fixtures(capsys):
    """Hand-checked values for the directed triangle and the single arc."""
    with criterion(capsys, 9, "pinned-fixtures") as c:
        dc3 = MixedGraph.from_edges(3, arcs=[(0, 1), (1, 2), (2, 0)])
        t2 = MixedGraph.from_edges(2, arcs=[(0, 1)])
        expectations = [
            (dc3, ALPHA_GAMMA, (2.0, -1.0, -1.0), (0.0, -3.0, -2.0)),
            (dc3, ALPHA_I, (math.sqrt(3.0), 0.0, -math.sqrt(3.0)), (0.0, -3.0, 0.0)),
            (t2, ALPHA_I, (1.0, -1.0), (0.0, -1.0)),
        ]
        worst = 0.0
        for g, a, want_spec, want_poly in expectations:
            spec = eigen_decomposition(build_hermitian(g, a)).values
            worst = max(worst, max(abs(x - y) for x, y in zip(spec, want_spec)))
            for poly in (numeric_char_poly(g, a), char_poly_expansion(g, a)):
                worst = max(
                    worst, max(abs(x - y) for x, y in zip(poly, want_poly))
                )
        c["detail"] = f"3 pinned spectra and polynomials by both methods, max gap {worst:.2e}"
        c["ok"] = worst <= 1e-9
