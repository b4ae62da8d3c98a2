"""Numeric spectra of the phase-weighted Hermitian adjacency matrix.

The matrix of a mixed graph puts 1 on digons, the chosen unit phase alpha on
an arc read tail to head, and its conjugate the other way.  It is Hermitian
by construction, so the spectrum is real whatever alpha is.

Every eigenvalue computation goes through LAPACK's complex Hermitian solver
(``np.linalg.eigh`` / ``np.linalg.eigvalsh``) on the n x n matrix itself.
It returns real eigenvalues and an orthonormal eigenbasis, degenerate
eigenspaces included, so no post-processing is needed beyond a residual
check.

Tolerances used across the package are centralized here, and so is every
consistency check on a matrix, its eigenpairs and its polynomial.  Each
check is written once, over a stack of matrices: the single-matrix functions
run it on a stack of one, and the cospectral verdict on one graph or on a
whole chunk of a search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import NumericalError
from .graphs import EdgeKind, MixedGraph
from .phases import Phase

__all__ = [
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


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A dense Hermitian matrix with zero diagonal and unit-modulus entries.

    ``source`` names the matrix in error messages; :func:`build_hermitian`
    names the graph and the alpha it came from.
    """

    n: int
    entries: np.ndarray
    source: str = "the matrix"

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=np.complex128)
        if a.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} matrix, got shape {a.shape}")
        _raise_first(_matrix_checks(a[None]), ValueError, lambda _: self.source)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


class _Check(NamedTuple):
    """One consistency check over a stack of matrices: the stage it belongs
    to, a mask of the failing matrices and the message for one of them."""

    stage: str
    failed: np.ndarray
    message: Callable[[int], str]


def _raise_first(
    checks: Iterable[_Check], error: type[Exception], source: Callable[[int], str]
) -> None:
    """Raise ``error`` for the lowest failing stack index, naming the stage
    and ``source`` of that index; when one matrix fails several checks, the
    one listed first wins."""
    first: tuple[int, _Check] | None = None
    for check in checks:
        if check.failed.any():
            i = int(check.failed.argmax())
            if first is None or i < first[0]:
                first = (i, check)
    if first is not None:
        i, check = first
        raise error(f"{check.stage} failed on {source(i)}: {check.message(i)}")


def _graph_source(graph: MixedGraph, *alphas: Phase) -> str:
    """How an error names a graph and the phases it was taken under."""
    phases = " and ".join(map(str, alphas))
    return (
        f"the graph (n={graph.n}, {len(graph.edges)} edges, "
        f"alpha{'s' if len(alphas) > 1 else ''} {phases})"
    )


def _matrix_checks(a: np.ndarray) -> list[_Check]:
    """Exactly Hermitian, zero diagonal, nonzero entries of modulus 1."""
    modulus = np.abs(a)
    return [
        _Check(
            "matrix check",
            ~(a == a.conj().swapaxes(-1, -2)).all(axis=(-2, -1)),
            lambda i: "matrix is not exactly Hermitian",
        ),
        _Check(
            "matrix check",
            a.diagonal(axis1=-2, axis2=-1).any(axis=-1),
            lambda i: "diagonal must be zero",
        ),
        _Check(
            "matrix check",
            ((modulus != 0) & (np.abs(modulus - 1.0) > 1e-12)).any(axis=(-2, -1)),
            lambda i: "nonzero entries must have modulus 1",
        ),
    ]


def _eigh_checked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, _Check]:
    """Batched complex Hermitian ``eigh``: ascending eigenvalues, eigenvector
    columns, and the check that every pair's residual stays within
    ``EIGEN_RESIDUAL_TOL * n``."""
    evals, evecs = np.linalg.eigh(a)
    resid = np.abs(a @ evecs - evecs * evals[..., None, :]).max(axis=(-2, -1), initial=0.0)
    budget = EIGEN_RESIDUAL_TOL * a.shape[-1]
    check = _Check(
        "eigen residual",
        resid > budget,
        lambda i: f"eigenpair residual {resid[i]:.3e} exceeds {budget:.3e}",
    )
    return evals, evecs, check


def _char_poly_checked(a: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, list[_Check]]:
    """Faddeev-LeVerrier over a stack: real coefficients c1..cn per matrix,
    and the checks on them.

    The recursion runs in complex arithmetic; the imaginary residue of every
    coefficient must stay under ``COEFF_TOL``, and the real parts must agree
    within ``COEFF_TOL`` with the polynomial expanded from ``roots``, the
    matrices' eigenvalues in descending order.
    """
    b, n = a.shape[0], a.shape[-1]
    coeffs = np.empty((b, n), dtype=np.complex128)
    if n:
        c = -a.trace(axis1=-2, axis2=-1)
        coeffs[:, 0] = c
        eye = np.eye(n, dtype=np.complex128)
        m = a
        for k in range(2, n + 1):
            m = a @ (m + c[:, None, None] * eye)
            # -trace / k as Python's complex division computes it, signed
            # zeros included: numpy's own would multiply by 1/k instead
            c = ((m.trace(axis1=-2, axis2=-1) * -1.0).view(np.float64) / k).view(
                np.complex128
            )
            coeffs[:, k - 1] = c
    worst_imag = np.abs(coeffs.imag).max(axis=-1, initial=0.0)
    real = coeffs.real
    from_roots = np.zeros((b, n + 1))
    from_roots[:, 0] = 1.0
    for j in range(n):
        from_roots[:, 1 : j + 2] -= roots[:, j, None] * from_roots[:, : j + 1]
    gap = np.abs(real - from_roots[:, 1:]).max(axis=-1, initial=0.0)
    checks = [
        _Check(
            "char-poly residue",
            worst_imag > COEFF_TOL,
            lambda i: f"characteristic polynomial imaginary residue {worst_imag[i]:.3e} "
            f"exceeds {COEFF_TOL:.3e}",
        ),
        _Check(
            "cross-check",
            gap > COEFF_TOL,
            lambda i: f"trace recursion and eigenvalue product disagree by {gap[i]:.3e}",
        ),
    ]
    return real, checks


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
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v))
        if not math.isfinite(norm):
            if not np.isfinite(v).all():
                raise ValueError("eigenvector entries must be finite")
            # finite entries near the float limit overflow the sum of squares
            v = v / max(np.abs(v.real).max(), np.abs(v.imag).max())
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
    return HermitianMatrix(graph.n, a, _graph_source(graph, alpha))


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
    evals, evecs, check = _eigh_checked(matrix.entries[None])
    _raise_first([check], NumericalError, lambda _: matrix.source)
    pairs = [EigenPair(evals[0, j], evecs[0, :, j]) for j in range(n - 1, -1, -1)]
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
    real, checks = _char_poly_checked(matrix.entries[None], np.array([spectrum.values]))
    _raise_first(checks, NumericalError, lambda _: matrix.source)
    return CharPoly(tuple(real[0]))


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


def _neighbor_sums(x: np.ndarray, lists: list[tuple[int, ...]]) -> np.ndarray:
    """Row u of the result sums the rows of ``x`` at ``lists[u]``.

    ``x`` carries one extra zero row, which pads the short lists.  Slot j
    adds every vertex's j-th neighbor at once, so each sum runs over its
    ascending list in order, and no temporary is larger than one n x m slab.
    """
    n = len(lists)
    slots = np.full((n, max(map(len, lists), default=0)), n)
    for u, nbrs in enumerate(lists):
        slots[u, : len(nbrs)] = nbrs
    total = np.zeros((n, x.shape[1]), dtype=np.complex128)
    for column in slots.T:
        total += x[column]
    return total


def _pair_residuals(
    graph: MixedGraph, alpha: Phase, values: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    """Largest violation of the vertex summation rule, one per column of the
    n x m ``vectors`` against the matching entry of ``values``.

    At every vertex u the eigenvalue times x(u) must equal the sum of x over
    digon neighbors, plus alpha times the sum over arc heads out of u, plus
    conjugate alpha times the sum over arc tails into u.  The sums are taken
    from the graph's neighbor lists, independent of the assembled matrix.
    The complex products and moduli are written in real arithmetic: numpy's
    vectorised complex multiply and ``abs`` may round differently from the
    scalar ones, and this keeps every residual equal to the per-vertex sum
    computed one vertex at a time.
    """
    n, m = vectors.shape
    x = np.zeros((n + 1, m), dtype=np.complex128)
    x[:n] = vectors
    rhs = _neighbor_sums(x, [graph.digon_neighbors(u) for u in range(n)])
    a = alpha.value
    for phase, nbrs in ((a, graph.out_neighbors), (a.conjugate(), graph.in_neighbors)):
        s = _neighbor_sums(x, [nbrs(u) for u in range(n)])
        rhs.real += phase.real * s.real - phase.imag * s.imag
        rhs.imag += phase.real * s.imag + phase.imag * s.real
    x = x[:n]
    return np.hypot(values * x.real - rhs.real, values * x.imag - rhs.imag).max(
        axis=0, initial=0.0
    )


def verify_eigenpair(graph: MixedGraph, alpha: Phase, pair: EigenPair) -> float:
    """Largest violation of the vertex summation rule.

    The paper's eigenvector characterisation, checked on one pair; acceptance
    check 4 runs it on every transferred eigenvector.  The residual pass of
    :func:`_pair_residuals` on a stack of one pair: every vertex's neighbor
    sums, taken straight from the graph's digon, out-arc and in-arc lists,
    against the eigenvalue times its entry.
    """
    if len(pair.vector) != graph.n:
        raise ValueError(f"vector length {len(pair.vector)} does not match n={graph.n}")
    values = np.array([pair.eigenvalue])
    return float(_pair_residuals(graph, alpha, values, pair.vector[:, None])[0])
