"""Hermitian construction, eigensolver, trace recursion."""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest

from hermix import (
    ALPHA_GAMMA,
    ALPHA_I,
    ALPHA_ONE,
    EigenBasis,
    MixedGraph,
    NumericalError,
    build_hermitian,
    char_poly,
    char_poly_expansion,
    eigen_decomposition,
    make_alpha,
    spectral_radius,
    verify_eigenpair,
)

from conftest import (
    edge_triples,
    numeric_char_poly,
    random_mixed_graph,
    reference_pair_residual,
)

ALPHAS = (ALPHA_I, ALPHA_GAMMA, make_alpha("root:1/5"), make_alpha("angle:1.0"))


class TestHermitianMatrix:
    def test_build_t2(self, t2):
        m = build_hermitian(t2, ALPHA_I)
        assert m[0, 1] == 1j
        assert m[1, 0] == -1j

    def test_build_digon(self, uc3):
        m = build_hermitian(uc3, ALPHA_GAMMA)
        assert np.array_equal(m, np.ones((3, 3)) - np.eye(3))


class TestEigenDecomposition:
    def test_alpha_one_matches_plain_adjacency(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_mixed_graph(rng, rng.randrange(1, 8))
            values = eigen_decomposition(g, ALPHA_ONE).values
            adj = np.zeros((g.n, g.n))
            for u, v, _ in edge_triples(g):
                adj[u, v] = adj[v, u] = 1.0
            expect = np.sort(np.linalg.eigvalsh(adj))[::-1]
            assert np.allclose(values, expect, atol=1e-9)

    def test_dc3_under_i(self, dc3):
        values = eigen_decomposition(dc3, ALPHA_I).values
        root3 = math.sqrt(3.0)
        assert np.allclose(values, [root3, 0.0, -root3], atol=1e-9)

    def test_trace_and_moment(self):
        rng = random.Random(37)
        for _ in range(15):
            g = random_mixed_graph(rng, rng.randrange(1, 8))
            for alpha in ALPHAS:
                values = eigen_decomposition(g, alpha).values
                assert abs(sum(values)) <= 1e-9 * max(g.n, 1)
                moment = sum(v * v for v in values)
                assert math.isclose(moment, 2.0 * len(edge_triples(g)), abs_tol=1e-8)

    def test_pairs_verify_and_are_orthonormal(self, k4x):
        rng = random.Random(41)
        graphs = [random_mixed_graph(rng, rng.randrange(1, 7)) for _ in range(12)]
        cases = [(g, alpha) for g in graphs for alpha in ALPHAS]
        # degenerate eigenspaces: all-zero, K5's -1 (x4), and the paired
        # eigenvalues of a long directed cycle
        k5 = MixedGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)], [])
        c60 = MixedGraph.from_edges(60, [], [(v, (v + 1) % 60) for v in range(60)])
        cases += [
            (MixedGraph.from_edges(4, [], []), ALPHA_I),
            (k5, ALPHA_ONE),
            (k4x, ALPHA_I),
            (c60, ALPHA_GAMMA),
            (c60, make_alpha("angle:0.7")),
        ]
        for g, alpha in cases:
            basis = eigen_decomposition(g, alpha)
            assert basis.vectors.shape == (g.n, g.n)
            # non-increasing, degenerate eigenvalues included
            assert (np.diff(basis.values) <= 0).all()
            assert (verify_eigenpair(g, alpha, basis.values, basis.vectors) <= 1e-8).all()
            gram = basis.vectors.conj().T @ basis.vectors
            assert np.allclose(gram, np.eye(g.n), atol=1e-8)

    def test_t2_known_eigenpair(self, t2):
        # (1, -i)/sqrt(2) belongs to eigenvalue 1
        basis = EigenBasis([1.0], np.array([[1.0], [-1.0j]]) / math.sqrt(2.0))
        assert verify_eigenpair(t2, ALPHA_I, basis.values, basis.vectors)[0] <= 1e-15

    def test_spectrum_sorted(self):
        rng = random.Random(43)
        g = random_mixed_graph(rng, 6)
        values = eigen_decomposition(g, ALPHA_I).values.tolist()
        assert values == sorted(values, reverse=True)


class TestVerifyEigenpair:
    def test_fake_pair_residual(self, uc3):
        basis = EigenBasis([2.0], np.array([[1.0], [0.0], [0.0]], dtype=complex))
        assert verify_eigenpair(uc3, ALPHA_ONE, basis.values, basis.vectors)[0] == pytest.approx(2.0)

    def test_length_mismatch(self, uc3):
        basis = EigenBasis([1.0], np.array([[1.0], [0.0]], dtype=complex))
        with pytest.raises(ValueError):
            verify_eigenpair(uc3, ALPHA_ONE, basis.values, basis.vectors)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            EigenBasis([1.0], np.zeros((3, 1), dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_non_finite_entry_rejected_before_normalising(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                EigenBasis([1.0], [[bad], [1], [1]])

    def test_norm_overflow_scaled_before_normalising(self):
        # the sum of squares overflows although every entry is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = EigenBasis([2.0], [[1e308]] * 3)
            tilted = EigenBasis([2.0], [[1e308], [-1e308j], [1.7e308 + 1.7e308j]])
        assert np.allclose(basis.vectors[:, 0], 1 / math.sqrt(3))
        assert math.isclose(np.linalg.norm(tilted.vectors[:, 0]), 1.0)

    def test_ordinary_vector_normalised_bit_for_bit(self):
        v = np.array([0.3 + 0.4j, -1.2, 2.5j, 1e-300])
        got = EigenBasis([1.0], v[:, None]).vectors[:, 0]
        assert got.tobytes() == (v / np.linalg.norm(v)).tobytes()

    def test_nan_is_not_a_zero_residual(self, uc3):
        basis = EigenBasis([math.nan], np.ones((3, 1), dtype=complex))
        assert math.isnan(verify_eigenpair(uc3, ALPHA_ONE, basis.values, basis.vectors)[0])


class TestEigenBasis:
    def test_error_names_its_column(self):
        vectors = np.ones((3, 3), dtype=complex)
        vectors[:, 1] = 0.0
        with pytest.raises(ValueError, match=r"^basis entry 1: eigenvector must be nonzero$"):
            EigenBasis([1.0, 2.0, 3.0], vectors)

    @pytest.mark.parametrize(
        "values, vectors",
        [([1.0], np.ones(3)), ([1.0, 2.0], np.ones((3, 1))), ([[1.0]], np.ones((3, 1)))],
        ids=["1-d vectors", "too few columns", "2-d values"],
    )
    def test_shape_mismatch_rejected(self, values, vectors):
        with pytest.raises(ValueError, match="shapes"):
            EigenBasis(values, vectors)

    def test_read_only(self):
        basis = EigenBasis([1.0, 2.0], np.eye(2))
        for array in (basis.values, basis.vectors):
            with pytest.raises(ValueError):
                array[0] = 0.0


def _residual_graphs() -> dict[str, MixedGraph]:
    rng = random.Random(61)
    pairs = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.5]
    return {
        "n0": MixedGraph.from_edges(0),
        "n1": MixedGraph.from_edges(1),
        "isolated": MixedGraph.from_edges(5, [(0, 1), (1, 3)], [(3, 2), (0, 3)]),
        "digons": MixedGraph.from_edges(7, pairs, []),
        "arcs": MixedGraph.from_edges(
            7, [], [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]
        ),
        "mixed30": random_mixed_graph(rng, 30, 0.3),
    }


RESIDUAL_GRAPHS = _residual_graphs()


class TestPairResiduals:
    """The batched residual pass against the per-vertex Python reference."""

    @pytest.mark.parametrize("spec", ["1", "gamma", "root:3/7", "angle:2.1"])
    @pytest.mark.parametrize("name", list(RESIDUAL_GRAPHS))
    def test_matches_reference(self, name, spec):
        g, alpha = RESIDUAL_GRAPHS[name], make_alpha(spec)
        rng = np.random.default_rng(7)
        basis = eigen_decomposition(g, alpha)
        # true eigenpairs (residuals near 0) and random ones (residuals of order 1)
        values = np.concatenate([basis.values, rng.standard_normal(3)])
        noise = [rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n) for _ in range(3)]
        vectors = np.column_stack([basis.vectors, *noise])
        got = verify_eigenpair(g, alpha, values, vectors)
        assert got.shape == values.shape
        for j, value in enumerate(values):
            want = reference_pair_residual(g, alpha, float(value), vectors[:, j])
            assert abs(got[j] - want) <= 1e-15 * max(1.0, want)


class TestCharPoly:
    def test_dc3_both_alphas(self, dc3):
        assert np.allclose(
            numeric_char_poly(dc3, ALPHA_GAMMA),
            [0.0, -3.0, -2.0],
            atol=1e-10,
        )
        assert np.allclose(
            numeric_char_poly(dc3, ALPHA_I),
            [0.0, -3.0, 0.0],
            atol=1e-10,
        )

    def test_t2(self, t2):
        assert np.allclose(
            numeric_char_poly(t2, ALPHA_I),
            [0.0, -1.0],
            atol=1e-12,
        )

    def test_monic_and_degree(self, uc3):
        # c1..cn of the monic polynomial: K3 gives x^3 - 3x - 2
        poly = numeric_char_poly(uc3, ALPHA_ONE)
        assert len(poly) == 3
        assert np.allclose(poly, [0.0, -3.0, -2.0], atol=1e-12)

    def test_returns_python_floats(self, dc3):
        for poly in (numeric_char_poly(dc3, ALPHA_GAMMA), char_poly_expansion(dc3, ALPHA_GAMMA)):
            assert type(poly) is tuple
            assert [type(c) for c in poly] == [float] * 3
        assert numeric_char_poly(MixedGraph.from_edges(0, [], []), ALPHA_I) == ()

    def test_roots_match_spectrum(self):
        rng = random.Random(47)
        for _ in range(10):
            g = random_mixed_graph(rng, rng.randrange(1, 8))
            for alpha in ALPHAS:
                values = eigen_decomposition(g, alpha).values
                poly = char_poly(g, alpha, values)
                roots = np.sort(np.roots((1.0, *poly)).real)[::-1]
                assert np.allclose(roots, values, atol=1e-6)

    def test_cross_checks_the_given_spectrum(self, dc3):
        with pytest.raises(NumericalError):
            char_poly(dc3, ALPHA_GAMMA, (2.0, -1.0, -0.5))
        with pytest.raises(ValueError):
            char_poly(dc3, ALPHA_GAMMA, (2.0, -1.0))


class TestSpectralRadius:
    def test_bounded_by_max_degree(self):
        rng = random.Random(53)
        for _ in range(25):
            g = random_mixed_graph(rng, rng.randrange(1, 8))
            delta = max((len(g.neighbors(v)) for v in range(g.n)), default=0)
            for alpha in ALPHAS:
                assert spectral_radius(g, alpha) <= delta + 1e-9

    def test_empty_graph(self):
        assert spectral_radius(MixedGraph.from_edges(0), ALPHA_I) == 0.0
