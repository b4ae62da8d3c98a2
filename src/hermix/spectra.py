"""Numeric spectra of the phase-weighted Hermitian adjacency matrix.

The matrix of a mixed graph puts 1 on digons, the chosen unit phase alpha on
an arc read tail to head, and its conjugate the other way.  It is Hermitian
by construction, so the spectrum is real whatever alpha is.

Every eigenvalue computation goes through LAPACK's complex Hermitian solver
(``np.linalg.eigh`` / ``np.linalg.eigvalsh``) on the n x n matrix itself.
It returns real eigenvalues and an orthonormal eigenbasis, degenerate
eigenspaces included, so no post-processing is needed beyond a residual
check.

Tolerances used across the package are centralized here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NumericalError
from .graphs import EdgeKind, MixedGraph
from .phases import Phase

__all__ = [
    "EIGEN_RESIDUAL_TOL",
    "COEFF_TOL",
    "DEFAULT_TOL",
    "RADIUS_SLACK",
    "HermitianMatrix",
    "Spectrum",
    "CharPoly",
    "EigenPair",
    "build_hermitian",
    "eigen_decomposition",
    "char_poly",
    "spectral_radius",
    "spectra_equal",
    "verify_eigenpair",
]

# per-pair eigen residual budget, scaled by n
EIGEN_RESIDUAL_TOL = 1e-9
# characteristic polynomial coefficients: imaginary residue and path agreement
COEFF_TOL = 1e-8
# default comparison tolerance for spectra and reports
DEFAULT_TOL = 1e-8
# slack allowed on the degree bound of the spectral radius
RADIUS_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A dense Hermitian matrix with zero diagonal and unit-modulus entries."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=np.complex128)
        if a.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} matrix, got shape {a.shape}")
        if not np.array_equal(a, a.conj().T):
            raise ValueError("matrix is not exactly Hermitian")
        if self.n and np.any(np.diagonal(a) != 0):
            raise ValueError("diagonal must be zero")
        nz = np.abs(a[a != 0])
        if nz.size and float(np.max(np.abs(nz - 1.0))) > 1e-12:
            raise ValueError("nonzero entries must have modulus 1")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues, sorted descending."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(sorted((float(v) for v in self.values), reverse=True))
        object.__setattr__(self, "values", vals)

    @property
    def radius(self) -> float:
        return max((abs(v) for v in self.values), default=0.0)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


@dataclass(frozen=True)
class CharPoly:
    """Coefficients c1..cn of the monic polynomial x^n + c1 x^(n-1) + ... + cn."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def monic(self) -> tuple[float, ...]:
        """Full coefficient list starting with the leading 1."""
        return (1.0,) + self.coefficients


@dataclass(frozen=True, eq=False)
class EigenPair:
    """An eigenvalue with a unit-norm complex eigenvector."""

    eigenvalue: float
    vector: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=np.complex128)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("eigenvector must be a nonempty 1-d array")
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("eigenvector must be nonzero")
        v = v / norm
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "eigenvalue", float(self.eigenvalue))


def build_hermitian(graph: MixedGraph, alpha: Phase) -> HermitianMatrix:
    """The phase-weighted Hermitian adjacency matrix of the graph."""
    a = np.zeros((graph.n, graph.n), dtype=np.complex128)
    val = alpha.value
    conj = val.conjugate()
    for e in graph.edges:
        if e.kind is EdgeKind.DIGON:
            a[e.u, e.v] = 1.0
            a[e.v, e.u] = 1.0
        else:
            a[e.u, e.v] = val
            a[e.v, e.u] = conj
    return HermitianMatrix(graph.n, a)


def eigen_decomposition(matrix: HermitianMatrix) -> tuple[Spectrum, list[EigenPair]]:
    """Spectrum plus orthonormal eigenpairs, eigenvalues descending.

    One complex Hermitian ``eigh`` gives both; each eigenvalue is reported
    with its own column, so a degenerate eigenspace comes back as an
    orthonormal basis of that space.  Residuals above
    ``EIGEN_RESIDUAL_TOL * n`` raise NumericalError rather than returning
    silently bad pairs.
    """
    n = matrix.n
    if n == 0:
        return Spectrum(()), []
    evals, evecs = np.linalg.eigh(matrix.entries)
    pairs = [EigenPair(evals[j], evecs[:, j]) for j in range(n - 1, -1, -1)]
    budget = EIGEN_RESIDUAL_TOL * n
    for p in pairs:
        resid = float(np.max(np.abs(matrix.entries @ p.vector - p.eigenvalue * p.vector)))
        if resid > budget:
            raise NumericalError(f"eigenpair residual {resid:.3e} exceeds {budget:.3e}")
    # one source of truth: the spectrum lists exactly the pair eigenvalues,
    # so degenerate eigenvalues agree to the bit across both views
    return Spectrum(tuple(p.eigenvalue for p in pairs)), pairs


def char_poly(matrix: HermitianMatrix, spectrum: Spectrum) -> CharPoly:
    """Characteristic polynomial coefficients by trace recursion.

    Runs the Faddeev-LeVerrier recursion in complex arithmetic, demands the
    imaginary residue of every coefficient stay under ``COEFF_TOL``, and
    cross-checks against the polynomial expanded from ``spectrum``, the
    matrix's eigenvalues as :func:`eigen_decomposition` returns them, so the
    matrix is solved only once.  Any disagreement raises NumericalError.
    """
    n = matrix.n
    if len(spectrum) != n:
        raise ValueError(f"spectrum has {len(spectrum)} values for an {n}x{n} matrix")
    if n == 0:
        return CharPoly(())
    a = np.asarray(matrix.entries)
    coeffs: list[complex] = []
    m = a.copy()
    coeffs.append(-complex(np.trace(m)))
    eye = np.eye(n, dtype=np.complex128)
    for k in range(2, n + 1):
        m = a @ (m + coeffs[-1] * eye)
        coeffs.append(-complex(np.trace(m)) / k)
    worst_imag = max(abs(c.imag) for c in coeffs)
    if worst_imag > COEFF_TOL:
        raise NumericalError(
            f"characteristic polynomial imaginary residue {worst_imag:.3e} exceeds {COEFF_TOL:.3e}"
        )
    real = [c.real for c in coeffs]
    from_roots = np.poly(spectrum.values)
    gap = max(abs(real[j] - float(from_roots[j + 1])) for j in range(n))
    if gap > COEFF_TOL:
        raise NumericalError(
            f"trace recursion and eigenvalue product disagree by {gap:.3e}"
        )
    return CharPoly(tuple(real))


def spectral_radius(graph: MixedGraph, alpha: Phase) -> float:
    """Largest absolute eigenvalue; 0.0 for the empty graph."""
    if graph.n == 0:
        return 0.0
    evals = np.linalg.eigvalsh(build_hermitian(graph, alpha).entries)
    return float(np.max(np.abs(evals)))


def spectra_equal(a: Spectrum, b: Spectrum, tol: float = DEFAULT_TOL) -> bool:
    """Elementwise comparison of two descending spectra of equal size."""
    if len(a) != len(b):
        raise ValueError(f"spectra have different sizes {len(a)} and {len(b)}")
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def verify_eigenpair(graph: MixedGraph, alpha: Phase, pair: EigenPair) -> float:
    """Largest violation of the vertex summation rule.

    At every vertex u the eigenvalue times x(u) must equal the sum of x over
    digon neighbors, plus alpha times the sum over arc heads out of u, plus
    conjugate alpha times the sum over arc tails into u.  Computed straight
    from the graph, independent of the assembled matrix.
    """
    if len(pair.vector) != graph.n:
        raise ValueError(f"vector length {len(pair.vector)} does not match n={graph.n}")
    a = alpha.value
    ac = a.conjugate()
    x = pair.vector
    worst = 0.0
    for u in range(graph.n):
        rhs = sum(x[v] for v in graph.digon_neighbors(u))
        rhs += a * sum(x[v] for v in graph.out_neighbors(u))
        rhs += ac * sum(x[v] for v in graph.in_neighbors(u))
        worst = max(worst, abs(pair.eigenvalue * x[u] - rhs))
    return float(worst)
