"""Stores, monograph detection, partitions, transfer, extension, radius."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from typing import Iterator

import numpy as np
import pytest

from hermix import (
    ALPHA_GAMMA,
    ALPHA_I,
    ALPHA_OMEGA,
    ALPHA_ONE,
    AttachDirection,
    Attachment,
    EigenBasis,
    MixedGraph,
    MonographKind,
    NotMonographError,
    Phase,
    build_hermitian,
    compute_store,
    eigen_decomposition,
    enumerate_simple_cycles,
    even_arc_condition,
    every_alpha_monograph,
    extend_monograph,
    is_monograph,
    make_alpha,
    mixed_graph_from_code,
    monograph_partition,
    negated_spectrum_check,
    numeric_cospectral,
    oriented_bipartite,
    radius_equality_analysis,
    transfer_eigenvectors,
    verify_eigenpair,
    walk_value_g,
    walk_value_h,
)
import hermix.cospectral
import hermix.graphs

from conftest import (
    edge_triples,
    level_monograph,
    random_connected_mixed_graph,
    random_mixed_graph,
    reference_pair_residual,
    three_class_clique,
)

FIRST = MonographKind.FIRST
SECOND = MonographKind.SECOND

GAMMA_VALUE = complex(-0.5, math.sqrt(3.0) / 2.0)


def closed_walk_values(
    g: MixedGraph, alpha: Phase, start: int, kind: MonographKind
) -> frozenset[Phase]:
    """Values of all closed walks at ``start``, by closure over (vertex, phase)
    states.  Exact alphas only: the reachable phases form a finite group, so
    the walk terminates without any length cap."""
    assert alpha.is_exact
    half = Fraction(1, 2) if kind is SECOND else Fraction(0)
    identity = Phase(Fraction(0))
    seen = {(start, identity)}
    frontier = [(start, identity)]
    while frontier:
        v, ph = frontier.pop()
        for w in g.neighbors(v):
            code = g.pair_code(v, w)
            nxt = (w, Phase(ph.rotation + alpha.rotation * code + half))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(ph for v, ph in seen if v == start)


def brute_force_monograph(g: MixedGraph, alpha: Phase, kind: MonographKind) -> bool:
    """Check every simple cycle, both traversals, value exactly 1."""
    value_fn = walk_value_h if kind is FIRST else walk_value_g
    for cycle in enumerate_simple_cycles(g, max(g.n, 3)):
        for walk in (cycle.vertices, cycle.vertices[::-1]):
            if not value_fn(g, alpha, walk).is_identity():
                return False
    return True


class TestComputeStore:
    def test_dc3_under_i(self, dc3):
        store = compute_store(dc3, ALPHA_I, FIRST)
        assert store.size == 4
        assert store.step == Fraction(1, 4)
        assert [p.turns for p in store.generator_phases] == ["3/4"]

    def test_dc3_store_matches_walk_values(self, dc3):
        store = compute_store(dc3, ALPHA_I, FIRST)
        walks = closed_walk_values(dc3, ALPHA_I, 0, FIRST)
        expected = frozenset(
            Phase(store.step * k) for k in range(store.size)
        )
        assert walks == expected

    def test_second_kind_store_matches_walk_values(self, dc3):
        store = compute_store(dc3, ALPHA_I, SECOND)
        walks = closed_walk_values(dc3, ALPHA_I, 0, SECOND)
        assert store.size == 4
        assert walks == frozenset(Phase(store.step * k) for k in range(store.size))

    def test_store_matches_closure_randomized(self):
        rng = random.Random(107)
        for _ in range(40):
            g = random_connected_mixed_graph(rng, rng.randrange(2, 6))
            for alpha in (ALPHA_I, ALPHA_GAMMA, ALPHA_OMEGA, make_alpha("root:2/5")):
                for kind in (FIRST, SECOND):
                    store = compute_store(g, alpha, kind)
                    walks = closed_walk_values(g, alpha, 0, kind)
                    expected = frozenset(
                        Phase(store.step * k) for k in range(store.size)
                    )
                    assert walks == expected

    def test_uc3_stores(self, uc3):
        assert compute_store(uc3, ALPHA_I, FIRST).size == 1
        second = compute_store(uc3, ALPHA_I, SECOND)
        assert second.size == 2
        assert second.step == Fraction(1, 2)

    def test_tree_store_trivial(self, p3):
        store = compute_store(p3, ALPHA_GAMMA, FIRST)
        assert store.size == 1
        assert store.generator_phases == ()

    def test_vertex_independent(self):
        rng = random.Random(83)
        for _ in range(15):
            g = random_connected_mixed_graph(rng, rng.randrange(2, 6))
            for kind in (FIRST, SECOND):
                sets = {
                    closed_walk_values(g, ALPHA_I, v, kind) for v in range(g.n)
                }
                assert len(sets) == 1

    def test_angle_alpha(self, dc3, p3):
        angle = make_alpha("angle:1.0")
        assert compute_store(dc3, angle, FIRST).size is None
        assert compute_store(dc3, angle, FIRST).step is None
        assert compute_store(p3, angle, FIRST).size == 1

    def test_requires_connected(self):
        g = MixedGraph.from_edges(4, [(0, 1)], [(2, 3)])
        with pytest.raises(ValueError):
            compute_store(g, ALPHA_I, FIRST)


class TestIsMonograph:
    def test_dc3_verdicts(self, dc3):
        assert is_monograph(dc3, ALPHA_GAMMA, FIRST).verdict
        assert not is_monograph(dc3, ALPHA_GAMMA, SECOND).verdict
        assert is_monograph(dc3, ALPHA_OMEGA, SECOND).verdict
        assert not is_monograph(dc3, ALPHA_OMEGA, FIRST).verdict
        assert not is_monograph(dc3, ALPHA_I, FIRST).verdict
        assert not is_monograph(dc3, ALPHA_I, SECOND).verdict
        assert is_monograph(dc3, ALPHA_ONE, FIRST).verdict

    def test_violation_is_a_failing_cycle(self, dc3):
        cert = is_monograph(dc3, ALPHA_I, FIRST)
        assert cert.potential is None
        assert cert.violation is not None
        assert not walk_value_h(dc3, ALPHA_I, cert.violation).is_identity()

    def test_potential_steps_along_edges(self):
        rng = random.Random(89)
        seen = 0
        for _ in range(400):
            g = random_connected_mixed_graph(rng, rng.randrange(2, 6))
            for alpha in (ALPHA_I, ALPHA_GAMMA, ALPHA_OMEGA):
                for kind in (FIRST, SECOND):
                    cert = is_monograph(g, alpha, kind)
                    if not cert.verdict:
                        continue
                    seen += 1
                    pot = cert.potential
                    for u, v, edge in edge_triples(g):
                        step = Fraction(0)
                        if edge == "arc":
                            step += alpha.rotation
                        if kind is SECOND:
                            step += Fraction(1, 2)
                        assert (pot[v].rotation - pot[u].rotation) % 1 == step % 1
        assert seen > 50

    def test_agrees_with_simple_cycle_brute_force(self):
        rng = random.Random(97)
        for _ in range(300):
            n = rng.randrange(1, 6)
            code = rng.randrange(4 ** (n * (n - 1) // 2))
            g = mixed_graph_from_code(n, code)
            for alpha in (ALPHA_I, ALPHA_GAMMA, ALPHA_OMEGA):
                for kind in (FIRST, SECOND):
                    assert (
                        is_monograph(g, alpha, kind).verdict
                        == brute_force_monograph(g, alpha, kind)
                    )

    def test_angle_alpha_needs_zero_balance(self, dc3, ac4, dc4):
        angle = make_alpha("angle:1.0")
        assert not is_monograph(dc3, angle, FIRST).verdict
        # angle 0 has value 1 but still counts as infinite order
        assert not is_monograph(dc3, make_alpha("angle:0"), FIRST).verdict
        assert is_monograph(ac4, angle, FIRST).verdict
        assert is_monograph(ac4, angle, SECOND).verdict
        assert not is_monograph(dc4, angle, FIRST).verdict

    def test_trees_always_monographs(self, p3, t2):
        for alpha in (ALPHA_I, make_alpha("angle:2.5")):
            for kind in (FIRST, SECOND):
                assert is_monograph(p3, alpha, kind).verdict
                assert is_monograph(t2, alpha, kind).verdict

    def test_disconnected_requires_all_components(self, dc3):
        both = MixedGraph.from_edges(
            6,
            [],
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        )
        assert is_monograph(both, ALPHA_GAMMA, FIRST).verdict
        one_bad = MixedGraph.from_edges(
            6,
            [(3, 4)],
            [(0, 1), (1, 2), (2, 0), (4, 5), (5, 3)],
        )
        assert not is_monograph(one_bad, ALPHA_GAMMA, FIRST).verdict


class TestPartition:
    def test_p3_under_i(self, p3):
        assert monograph_partition(p3, ALPHA_I, FIRST) == {
            Phase(Fraction(0)): (0,),
            Phase(Fraction(1, 4)): (1, 2),
        }

    def test_dc3_under_gamma(self, dc3):
        assert monograph_partition(dc3, ALPHA_GAMMA, FIRST) == {
            Phase(Fraction(0)): (0,),
            Phase(Fraction(1, 3)): (1,),
            Phase(Fraction(2, 3)): (2,),
        }

    def test_dc3_omega_second_kind(self, dc3):
        assert monograph_partition(dc3, ALPHA_OMEGA, SECOND) == {
            Phase(Fraction(0)): (0,),
            Phase(Fraction(2, 3)): (1,),
            Phase(Fraction(1, 3)): (2,),
        }

    def test_classes_cover_vertices(self):
        rng = random.Random(101)
        covered = 0
        for _ in range(300):
            g = random_connected_mixed_graph(rng, rng.randrange(2, 6))
            for alpha in (ALPHA_I, ALPHA_GAMMA):
                for kind in (FIRST, SECOND):
                    if not is_monograph(g, alpha, kind).verdict:
                        continue
                    covered += 1
                    part = monograph_partition(g, alpha, kind)
                    members = sorted(v for vs in part.values() for v in vs)
                    assert members == list(range(g.n))
        assert covered > 30

    def test_every_edge_steps_the_potential(self):
        # the classes' potentials against each edge's walk value, taken
        # from the walk itself and not from the cycle basis
        rng = random.Random(211)
        alphas = [ALPHA_I, ALPHA_GAMMA, ALPHA_OMEGA]
        alphas += [make_alpha("root:2/5"), make_alpha("angle:1.0")]
        checked = cyclic = 0
        for _ in range(300):
            g = random_connected_mixed_graph(rng, rng.randrange(2, 9), rng.choice([0.1, 0.3]))
            for alpha in alphas:
                for kind, value in ((FIRST, walk_value_h), (SECOND, walk_value_g)):
                    if not is_monograph(g, alpha, kind).verdict:
                        continue
                    checked += 1
                    cyclic += bool(g.cycle_basis.cycle_balances)
                    part = monograph_partition(g, alpha, kind)
                    potential = {v: p for p, vs in part.items() for v in vs}
                    for u, v, _ in edge_triples(g):
                        for a, b in ((u, v), (v, u)):
                            step = potential[a].rotation + value(g, alpha, (a, b)).rotation
                            if alpha.is_exact:
                                assert potential[b] == Phase(step), (g, alpha, kind, a, b)
                            else:
                                assert Phase(potential[b].rotation - step).is_identity()
        assert checked > 300 and cyclic > 100

    def test_angle_alpha_partition(self, p3):
        angle = make_alpha("angle:1.0")
        part = monograph_partition(p3, angle, FIRST)
        assert sorted(part.values()) == [(0,), (1, 2)]

    def test_not_monograph_raises(self, dc3):
        with pytest.raises(NotMonographError):
            monograph_partition(dc3, ALPHA_I, FIRST)


class TestTransfer:
    def test_dc3_gamma_exact_vector(self, dc3):
        lam = 2.0
        flat = np.ones((3, 1), dtype=complex) / math.sqrt(3.0)
        moved, worst = transfer_eigenvectors(dc3, ALPHA_GAMMA, EigenBasis([lam], flat))
        assert moved.vectors.shape == (3, 1)
        assert [worst] == list(verify_eigenpair(dc3, ALPHA_GAMMA, moved.values, moved.vectors))
        expected = np.array([1.0, GAMMA_VALUE**2, GAMMA_VALUE]) / math.sqrt(3.0)
        got = moved.vectors[:, 0]
        # compare up to the global phase the solver cannot fix
        ratio = got[0] / expected[0]
        assert np.allclose(got, ratio * expected, atol=1e-12)
        assert worst <= 1e-12

    def test_full_basis_transfer(self, dc3):
        basis = eigen_decomposition(dc3, ALPHA_ONE)
        moved, worst = transfer_eigenvectors(dc3, ALPHA_GAMMA, basis)
        resid = verify_eigenpair(dc3, ALPHA_GAMMA, moved.values, moved.vectors)
        assert worst == resid.max()
        assert (resid <= 1e-8).all()
        assert moved.values.tobytes() == basis.values.tobytes()
        empty, none = transfer_eigenvectors(dc3, ALPHA_GAMMA, EigenBasis([], np.empty((3, 0))))
        assert empty.vectors.shape == (3, 0) and none == 0.0
        gram = moved.vectors.conj().T @ moved.vectors
        assert np.allclose(gram, np.eye(3), atol=1e-8)

    @pytest.mark.parametrize("spec, q", [("root:3/7", 7), ("angle:0.7", None)])
    def test_columns_are_gauged_eigh_columns_normalised_once(self, spec, q):
        # the reference divides each column by its own norm exactly once; a
        # second normalisation, or norms taken along an axis, change bits
        alpha = make_alpha(spec)
        rng = random.Random(71)
        for n in (30, 45, 60):
            g = level_monograph(rng, n, q)
            cert = is_monograph(g, alpha, FIRST)
            assert cert.potential is not None and len(set(cert.potential)) >= 5
            basis = eigen_decomposition(g, ALPHA_ONE)
            moved, _ = transfer_eigenvectors(g, alpha, basis)
            evals, evecs = np.linalg.eigh(build_hermitian(g, ALPHA_ONE))
            assert moved.values.tobytes() == evals[::-1].tobytes()
            gauge = np.array([p.value.conjugate() for p in cert.potential])
            for j in range(n):
                v = evecs[:, n - 1 - j]
                v = v / np.linalg.norm(v)
                assert basis.vectors[:, j].tobytes() == v.tobytes()
                w = gauge * v
                assert moved.vectors[:, j].tobytes() == (w / np.linalg.norm(w)).tobytes()

    def test_requires_first_kind(self, dc3):
        basis = eigen_decomposition(dc3, ALPHA_ONE)
        with pytest.raises(NotMonographError):
            transfer_eigenvectors(dc3, ALPHA_I, basis)

    def test_rejects_wrong_basis(self, uc3):
        fake = EigenBasis([2.0], np.array([[1.0], [0.0], [0.0]], dtype=complex))
        with pytest.raises(ValueError, match="fails verification"):
            transfer_eigenvectors(uc3, ALPHA_ONE, fake)

    def test_names_the_first_failing_pair(self, uc3):
        basis = eigen_decomposition(uc3, ALPHA_ONE)
        e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        first = reference_pair_residual(uc3, ALPHA_ONE, 3.0, e0)
        message = f"eigenvalue 3 fails verification against the underlying graph (residual {first:.3e})"
        mixed = EigenBasis(
            [basis.values[0], 3.0, basis.values[1], 5.0],
            np.column_stack([basis.vectors[:, 0], e0, basis.vectors[:, 1], e0]),
        )
        with pytest.raises(ValueError) as err:
            transfer_eigenvectors(uc3, ALPHA_GAMMA, mixed)
        assert message in str(err.value)
        short = EigenBasis([2.0, 3.0], np.ones((2, 2), dtype=complex))
        with pytest.raises(ValueError, match=r"^vector length 2 does not match n=3$"):
            transfer_eigenvectors(uc3, ALPHA_GAMMA, short)

    def test_rejects_nan_pair(self, uc3):
        basis = EigenBasis([math.nan], np.ones((3, 1), dtype=complex))
        with pytest.raises(ValueError, match="residual nan"):
            transfer_eigenvectors(uc3, ALPHA_ONE, basis)


class TestNegatedSpectrum:
    def test_dc3_under_omega(self, dc3):
        assert negated_spectrum_check(dc3, ALPHA_OMEGA)

    def test_k4x_under_i(self, k4x):
        assert is_monograph(k4x, ALPHA_I, SECOND).verdict
        assert not is_monograph(k4x, ALPHA_I, FIRST).verdict
        assert negated_spectrum_check(k4x, ALPHA_I)
        spec = eigen_decomposition(k4x, ALPHA_I).values
        assert np.allclose(spec, [1.0, 1.0, 1.0, -3.0], atol=1e-8)

    def test_undirected_four_cycle_any_alpha(self):
        c4 = MixedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
        for alpha in (ALPHA_I, ALPHA_GAMMA, make_alpha("angle:1.0")):
            assert negated_spectrum_check(c4, alpha)

    def test_requires_second_kind(self, dc3):
        with pytest.raises(NotMonographError):
            negated_spectrum_check(dc3, ALPHA_GAMMA)


class TestExtend:
    def test_uc3_pendant(self, uc3):
        grown = extend_monograph(
            uc3,
            ALPHA_I,
            [0, 1],
            [Attachment(frozenset({0, 1}), AttachDirection.OUT)],
        )
        assert grown.n == 4
        assert grown.pair_code(3, 0) == 1
        assert grown.pair_code(3, 1) == 1
        assert is_monograph(grown, ALPHA_I, FIRST).verdict
        assert every_alpha_monograph(grown)

    def test_in_direction(self, uc3):
        grown = extend_monograph(
            uc3,
            ALPHA_GAMMA,
            [0, 1, 2],
            [Attachment(frozenset({2}), AttachDirection.IN)],
        )
        assert grown.pair_code(2, 3) == 1

    def test_multiple_attachments_number_in_order(self, uc3):
        grown = extend_monograph(
            uc3,
            ALPHA_I,
            [0, 1],
            [
                Attachment(frozenset({0}), AttachDirection.OUT),
                Attachment(frozenset({0, 1}), AttachDirection.IN),
            ],
        )
        assert grown.n == 5
        assert grown.pair_code(3, 0) == 1
        assert grown.pair_code(0, 4) == 1
        assert grown.pair_code(1, 4) == 1

    def test_requires_monograph(self, dc3):
        with pytest.raises(NotMonographError):
            extend_monograph(
                dc3, ALPHA_I, [0], [Attachment(frozenset({0}), AttachDirection.OUT)]
            )

    def test_rejects_arc_in_base(self, p3):
        with pytest.raises(ValueError, match="undirected"):
            extend_monograph(
                p3, ALPHA_I, [0, 1], [Attachment(frozenset({0}), AttachDirection.OUT)]
            )

    def test_rejects_disconnected_base(self):
        g = MixedGraph.from_edges(4, [(0, 1), (2, 3)], [])
        with pytest.raises(ValueError, match="connected"):
            extend_monograph(
                g, ALPHA_I, [0, 3], [Attachment(frozenset({0}), AttachDirection.OUT)]
            )

    def test_base_must_induce_a_connected_subgraph(self):
        # the path 0 -- 1 -- 2 is connected, but {0, 2} alone has no edge
        path = MixedGraph.from_edges(3, [(0, 1), (1, 2)], [])
        att = [Attachment(frozenset({0}), AttachDirection.OUT)]
        with pytest.raises(ValueError, match="connected"):
            extend_monograph(path, ALPHA_I, [0, 2], att)
        for base in ([0], [0, 1], [0, 1, 2]):
            assert extend_monograph(path, ALPHA_I, base, att).n == 4

    def test_rejects_bad_targets(self, uc3):
        with pytest.raises(ValueError, match="leave the base"):
            extend_monograph(
                uc3, ALPHA_I, [0, 1], [Attachment(frozenset({2}), AttachDirection.OUT)]
            )
        with pytest.raises(ValueError):
            Attachment(frozenset(), AttachDirection.OUT)

    def test_ids_must_be_integers(self, uc3):
        # a bool target would enter the table as True, a float one fail deep
        # inside the graph instead of at the call
        att = [Attachment(frozenset({0}), AttachDirection.OUT)]
        for bad in (True, 0.0, 1.0):
            message = f"^vertex id {re.escape(repr(bad))} is not an integer$"
            with pytest.raises(ValueError, match=message):
                Attachment(frozenset({bad}), AttachDirection.IN)
            with pytest.raises(ValueError, match=message):
                extend_monograph(uc3, ALPHA_I, [0, bad], att)

    def test_numpy_integer_ids_give_int_rows(self, uc3):
        grown = extend_monograph(
            uc3,
            ALPHA_I,
            [np.int64(0), np.int32(1)],
            [Attachment(frozenset({np.int64(0), np.intp(1)}), AttachDirection.IN)],
        )
        assert grown == extend_monograph(
            uc3, ALPHA_I, [0, 1], [Attachment(frozenset({0, 1}), AttachDirection.IN)]
        )
        assert all(type(w) is int for v in range(grown.n) for w in grown.neighbors(v))

    def test_rejects_empty_or_invalid_base(self, uc3):
        with pytest.raises(ValueError, match="nonempty"):
            extend_monograph(uc3, ALPHA_I, [], [])
        with pytest.raises(ValueError, match="out of range"):
            extend_monograph(
                uc3, ALPHA_I, [7], [Attachment(frozenset({7}), AttachDirection.OUT)]
            )


class TestRadius:
    def test_dc3_under_each_alpha(self, dc3):
        rep = radius_equality_analysis(dc3, ALPHA_ONE)
        assert rep.equal and rep.regular and rep.mono1 and rep.theorem_consistent
        rep = radius_equality_analysis(dc3, ALPHA_GAMMA)
        assert rep.equal and rep.mono1 and rep.theorem_consistent
        rep = radius_equality_analysis(dc3, ALPHA_OMEGA)
        assert rep.equal and rep.mono2 and not rep.mono1 and rep.theorem_consistent
        rep = radius_equality_analysis(dc3, ALPHA_I)
        assert not rep.equal and not rep.mono1 and not rep.mono2
        assert rep.theorem_consistent
        assert rep.rho == pytest.approx(math.sqrt(3.0))

    def test_path_not_regular(self, p3):
        rep = radius_equality_analysis(p3, ALPHA_I)
        assert not rep.regular
        assert not rep.equal
        assert rep.mono1
        assert rep.theorem_consistent
        assert rep.rho == pytest.approx(math.sqrt(2.0))

    def test_requires_connected(self):
        g = MixedGraph.from_edges(3, [(0, 1)], [])
        with pytest.raises(ValueError):
            radius_equality_analysis(g, ALPHA_I)

    def test_rho_below_delta_randomized(self):
        rng = random.Random(103)
        for _ in range(60):
            g = random_connected_mixed_graph(rng, rng.randrange(2, 7))
            delta = max(len(g.neighbors(v)) for v in range(g.n))
            for alpha in (ALPHA_I, ALPHA_GAMMA, make_alpha("angle:1.0")):
                rep = radius_equality_analysis(g, alpha)
                assert rep.rho <= delta + 1e-9
                assert rep.theorem_consistent


class TestEveryAlpha:
    def test_examples(self, ac4, dc3, dc4, p3, uc3):
        assert every_alpha_monograph(ac4)
        assert every_alpha_monograph(p3)
        assert every_alpha_monograph(uc3)
        assert not every_alpha_monograph(dc3)
        assert not every_alpha_monograph(dc4)

    def test_implies_monograph_for_many_alphas(self, ac4):
        for alpha in (ALPHA_I, ALPHA_GAMMA, make_alpha("root:3/7"), make_alpha("angle:1.0")):
            assert is_monograph(ac4, alpha, FIRST).verdict


@pytest.mark.slow
def test_detection_equivalence_n5_exhaustive():
    """Gauge detection vs simple-cycle brute force over every 5-vertex graph."""
    for code in range(4**10):
        g = mixed_graph_from_code(5, code)
        for kind in (FIRST, SECOND):
            assert (
                is_monograph(g, ALPHA_I, kind).verdict
                == brute_force_monograph(g, ALPHA_I, kind)
            )


# the primitive q-th roots of unity exp(2 pi i / q) for q = 1..12, plus two
# angles
GAUGE_ALPHAS = [Phase.from_root(1, q) for q in range(1, 13)] + [
    make_alpha("angle:0.7"),
    make_alpha("angle:2.1"),
]


def tree_path(g: MixedGraph, v: int) -> tuple[int, ...]:
    """The spanning-forest path from v's component root down to v."""
    path = [v]
    while g.cycle_basis.parents[path[-1]] is not None:
        path.append(g.cycle_basis.parents[path[-1]])
    return tuple(reversed(path))


def walk_values(g: MixedGraph, alpha: Phase, value, walks, memo: dict) -> Iterator[Phase]:
    """``value(g, alpha, w)`` for each walk, computed once per step sequence.

    ``memo`` keys the values by alpha, reference function and the pair codes
    along the walk: a walk's value is the product of the matrix entries it
    steps through, so it depends on nothing else, and a sweep meets few
    sequences."""
    spec = str(alpha)
    for w in walks:
        key = (spec, value, tuple(g.pair_code(a, b) for a, b in zip(w, w[1:])))
        if key not in memo:
            memo[key] = value(g, alpha, w)
        yield memo[key]


def check_gauge_against_walks(g: MixedGraph, alphas: list[Phase], memo: dict) -> None:
    """Verdict, violation, potentials and classes of the integer gauge
    against walk_value_h / walk_value_g along the materialised walks: the
    fundamental cycles and every vertex's tree path."""
    basis = g.cycle_basis
    cycles = [basis.cycle(i) for i in range(len(basis.cycle_balances))]
    assert [(len(w) - 1) % 2 for w in cycles] == list(basis.cycle_parities)
    paths = [tree_path(g, v) for v in range(g.n)]
    for alpha in alphas:
        for kind, value in ((FIRST, walk_value_h), (SECOND, walk_value_g)):
            cert = is_monograph(g, alpha, kind)
            values = walk_values(g, alpha, value, cycles, memo)
            bad = next((w for w, x in zip(cycles, values) if not x.is_identity()), None)
            assert cert.verdict == (bad is None)
            assert cert.violation == bad
            if bad is not None:
                with pytest.raises(NotMonographError):
                    monograph_partition(g, alpha, kind)
                continue
            potential = tuple(walk_values(g, alpha, value, paths, memo))
            assert cert.potential == potential
            classes: dict[Phase, list[int]] = {}
            for v, p in enumerate(potential):
                classes.setdefault(p, []).append(v)
            part = monograph_partition(g, alpha, kind)
            assert list(part.items()) == [(p, tuple(vs)) for p, vs in classes.items()]


def test_gauge_angles_model_infinite_order():
    # the walk values the references compute agree with the infinite-order
    # model only if no nonzero balance reachable at n <= 8 comes within the
    # phase tolerance of 1
    for alpha in GAUGE_ALPHAS[-2:]:
        assert not any(
            alpha.walk_value(b, b, signed=False).is_identity() for b in range(1, 2 * 8 + 1)
        )


def test_gauge_matches_walk_values_every_code_n4():
    memo: dict = {}
    for n in range(5):
        for code in range(4 ** (n * (n - 1) // 2)):
            check_gauge_against_walks(mixed_graph_from_code(n, code), GAUGE_ALPHAS, memo)


def test_gauge_matches_walk_values_sample_n5_to_n8():
    rng = random.Random(1031)
    memo: dict = {}
    for trial in range(320):
        n = 5 + trial % 4
        # sparse draws leave graphs disconnected, dense ones connected
        g = random_mixed_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.8]))
        check_gauge_against_walks(g, GAUGE_ALPHAS, memo)


@pytest.mark.slow
def test_gauge_matches_walk_values_exhaustive_n5():
    # under the paper's named alphas only: about 7 min, where all fourteen
    # of GAUGE_ALPHAS would take about 36
    memo: dict = {}
    for code in range(4**10):
        g = mixed_graph_from_code(5, code)
        check_gauge_against_walks(g, [ALPHA_I, ALPHA_GAMMA, ALPHA_OMEGA], memo)


def count_calls(monkeypatch, cls, name):
    """Patch ``cls.name`` to count its calls in the list it returns."""
    calls = []
    original = getattr(cls, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


class TestGaugeCost:
    """An exact verdict reads the recorded integers: it does no fraction
    arithmetic per cycle or per edge, builds one phase per distinct
    potential, and on failure the violating cycle's walk only."""

    def counted(self, monkeypatch, run) -> tuple[int, int, int]:
        """Phases, fractions and walks built by ``run()``."""
        counts = [
            count_calls(monkeypatch, cls, name)
            for cls, name in (
                (Phase, "__post_init__"),
                (Fraction, "__new__"),
                (hermix.graphs, "_fundamental_walk"),
            )
        ]
        run()
        found = tuple(len(c) for c in counts)
        monkeypatch.undo()
        return found

    def test_passing_partition_is_independent_of_size(self, monkeypatch):
        seen = []
        for n in (12, 24):
            g = three_class_clique(n)
            part = monograph_partition(g, ALPHA_GAMMA, FIRST)
            assert [len(vs) for vs in part.values()] == [n // 3] * 3
            seen.append(
                self.counted(monkeypatch, lambda: monograph_partition(g, ALPHA_GAMMA, FIRST))
            )
        # 66 and 276 edges, 55 and 253 fundamental cycles, the same work
        assert seen[0] == seen[1]
        phases, fractions, walks = seen[0]
        assert phases == 3 and walks == 0
        assert fractions <= 3 * phases

    def test_passing_verdict_builds_one_phase_per_potential(self, monkeypatch):
        clique = three_class_clique(12)
        # K_{6,6} of digons: a second-kind monograph under 1, sides -1 apart
        bipartite = MixedGraph.from_edges(
            12, [(u, v) for u in range(6) for v in range(6, 12)]
        )
        for g, alpha, kind, distinct in (
            (clique, ALPHA_GAMMA, FIRST, 3),
            (clique, ALPHA_ONE, FIRST, 1),
            (bipartite, ALPHA_ONE, SECOND, 2),
        ):
            cert = is_monograph(g, alpha, kind)
            assert cert.verdict and len(set(cert.potential)) == distinct
            phases, _, walks = self.counted(monkeypatch, lambda: is_monograph(g, alpha, kind))
            assert (phases, walks) == (distinct, 0)

    def test_verdict_readers_build_no_certificate(self, monkeypatch):
        # the two structural flags, the radius analysis and the extension
        # read verdicts only: no potential phase on a pass, no violating walk on a failure
        g = three_class_clique(6)
        grow = [Attachment(frozenset({0, 3}), AttachDirection.OUT)]
        for run in (
            lambda: even_arc_condition(g),
            lambda: oriented_bipartite(g),
            lambda: radius_equality_analysis(g, ALPHA_GAMMA),
            lambda: radius_equality_analysis(g, ALPHA_I),
            lambda: extend_monograph(g, ALPHA_GAMMA, [0, 3], grow),
        ):
            phases, _, walks = self.counted(monkeypatch, run)
            assert (phases, walks) == (0, 0)

    def test_cospectral_flags_ask_five_certificates(self, monkeypatch):
        # even arc parity, then both kinds under each phase: oriented
        # bipartite reads even arc parity's verdict again
        calls = count_calls(monkeypatch, hermix.cospectral, "is_monograph")
        numeric_cospectral(three_class_clique(6), ALPHA_GAMMA, ALPHA_OMEGA)
        assert len(calls) == 5

    def test_failing_verdict_builds_one_walk(self, monkeypatch):
        # the cycle basis is built inside the count, and builds no walk itself
        g = three_class_clique(12)
        for alpha, kind in ((ALPHA_I, FIRST), (ALPHA_GAMMA, SECOND)):
            assert self.counted(monkeypatch, lambda: is_monograph(g, alpha, kind)) == (0, 0, 1)
            value = walk_value_h if kind is FIRST else walk_value_g
            basis = g.cycle_basis
            first_bad = next(
                w
                for w in map(basis.cycle, range(len(basis.cycle_balances)))
                if not value(g, alpha, w).is_identity()
            )
            assert is_monograph(g, alpha, kind).violation == first_bad
