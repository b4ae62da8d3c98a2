"""Numeric spectra of the phase-weighted Hermitian adjacency matrix.

The matrix of a mixed graph puts 1 on digons, the chosen unit phase alpha on
an arc read tail to head, and its conjugate the other way.  It is Hermitian
by construction, so the spectrum is real whatever alpha is.

Every eigenvalue computation goes through LAPACK's complex Hermitian solver
(``np.linalg.eigh`` / ``np.linalg.eigvalsh``) on the n x n matrix itself.
It returns real eigenvalues and an orthonormal eigenbasis, degenerate
eigenspaces included, so no post-processing is needed beyond a residual
check.  A basis travels as one :class:`EigenBasis`: m eigenvalues and the
n x m array of their unit eigenvectors, each column normalised once.

Tolerances used across the package are centralized here, and so is every
consistency check on a matrix, its eigenpairs and its polynomial.  The
matrix and eigenpair checks are written once, over a stack of matrices: the
single-matrix functions run them on a stack of one, and the cospectral
verdict on one graph or on a whole chunk of a search.  The characteristic
polynomial is taken one matrix at a time, by :func:`char_poly` only; the
cospectral verdict compares spectra and computes no polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import NumericalError
from .graphs import MixedGraph
from .phases import Phase

__all__ = [
    "HermitianMatrix",
    "Spectrum",
    "CharPoly",
    "EigenBasis",
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
        f"the graph (n={graph.n}, {len(graph._table)} edges, "
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
class EigenBasis:
    """Eigenvalues with unit-norm complex eigenvectors: column j of the
    n x m ``vectors`` belongs to ``values[j]``.

    Each column is divided by its own norm once, here: normalising again,
    or taking the norms along an axis, can move the last bits of a vector
    and so the printed residual digits.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        v = np.asarray(self.vectors, dtype=np.complex128)
        if values.ndim != 1 or v.ndim != 2 or v.shape[1] != len(values):
            raise ValueError(f"eigenvalue and eigenvector shapes {values.shape}, {v.shape} differ")
        unit = np.empty(v.shape, dtype=np.complex128)
        for j in range(v.shape[1]):
            col, fault = v[:, j], f"basis entry {j}: eigenvector"
            if col.size == 0:
                raise ValueError(f"{fault} must be a nonempty 1-d array")
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(col))
            if not math.isfinite(norm):
                if not np.isfinite(col).all():
                    raise ValueError(f"{fault} entries must be finite")
                # finite entries near the float limit overflow the sum of squares
                col = col / max(np.abs(col.real).max(), np.abs(col.imag).max())
                norm = float(np.linalg.norm(col))
            if norm == 0.0:
                raise ValueError(f"{fault} must be nonzero")
            unit[:, j] = col / norm
        values.setflags(write=False)
        unit.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", unit)


def _digit_entries(alpha: Phase) -> np.ndarray:
    """The matrix entries an edge digit sets (none, digon, arc up, arc down):
    row 0 at (lo, hi), row 1 at (hi, lo)."""
    val = alpha.value
    conj = val.conjugate()
    return np.array([[0, 1, val, conj], [0, 1, conj, val]], dtype=np.complex128)


def build_hermitian(graph: MixedGraph, alpha: Phase) -> HermitianMatrix:
    """The phase-weighted Hermitian adjacency matrix of the graph, set from
    its edge table in one assignment."""
    a = np.zeros((graph.n, graph.n), dtype=np.complex128)
    lo, hi, digit = np.array(graph._table, dtype=np.intp).reshape(-1, 3).T
    a[[lo, hi], [hi, lo]] = _digit_entries(alpha)[:, digit]
    return HermitianMatrix(graph.n, a, _graph_source(graph, alpha))


def eigen_decomposition(matrix: HermitianMatrix) -> tuple[Spectrum, EigenBasis]:
    """Spectrum plus an orthonormal eigenbasis, eigenvalues descending.

    One complex Hermitian ``eigh`` gives both; each eigenvalue is reported
    with its own column, so a degenerate eigenspace comes back as an
    orthonormal basis of that space.  Residuals above
    ``EIGEN_RESIDUAL_TOL * n`` raise NumericalError rather than returning
    a silently bad basis.
    """
    evals, evecs, check = _eigh_checked(matrix.entries[None])
    _raise_first([check], NumericalError, lambda _: matrix.source)
    basis = EigenBasis(evals[0, ::-1], evecs[0, :, ::-1])
    # one source of truth: the spectrum lists exactly the basis eigenvalues,
    # so degenerate eigenvalues agree to the bit across both views
    return Spectrum(tuple(basis.values.tolist())), basis


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
    a = matrix.entries
    coeffs = np.empty(n, dtype=np.complex128)
    c = -a.trace()
    coeffs[0] = c
    eye = np.eye(n, dtype=np.complex128)
    m = a
    for k in range(2, n + 1):
        m = a @ (m + c * eye)
        t = m.trace() * -1.0
        # -trace / k, each part divided by k: numpy's complex division would
        # round differently, and Python's would drop the sign of some zeros
        c = complex(t.real / k, t.imag / k)
        coeffs[k - 1] = c
    worst_imag = np.abs(coeffs.imag).max()
    if worst_imag > COEFF_TOL:
        raise NumericalError(
            f"char-poly residue failed on {matrix.source}: characteristic polynomial "
            f"imaginary residue {worst_imag:.3e} exceeds {COEFF_TOL:.3e}"
        )
    from_roots = np.zeros(n + 1)
    from_roots[0] = 1.0
    for j, root in enumerate(spectrum.values):
        from_roots[1 : j + 2] -= root * from_roots[: j + 1]
    gap = np.abs(coeffs.real - from_roots[1:]).max()
    if gap > COEFF_TOL:
        raise NumericalError(
            f"cross-check failed on {matrix.source}: trace recursion and eigenvalue "
            f"product disagree by {gap:.3e}"
        )
    return CharPoly(tuple(coeffs.real))


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


def _neighbor_sums(x: np.ndarray, lists: list[list[int]]) -> np.ndarray:
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


def verify_eigenpair(
    graph: MixedGraph, alpha: Phase, values: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    """Largest violation of the vertex summation rule, one per column of the
    n x m ``vectors`` against the matching entry of ``values``.

    The paper's eigenvector characterisation; acceptance check 4 runs it on
    every transferred basis.  At every vertex u the eigenvalue times x(u)
    must equal the sum of x over digon neighbors, plus alpha times the sum
    over arc heads out of u, plus conjugate alpha times the sum over arc
    tails into u.  The sums are taken from the graph's neighbor lists,
    independent of the assembled matrix.  The complex products and moduli
    are written in real arithmetic: numpy's vectorised complex multiply and
    ``abs`` may round differently from the scalar ones, and this keeps every
    residual equal to the per-vertex sum computed one vertex at a time.
    """
    n = graph.n
    if vectors.ndim != 2 or len(vectors) != n:
        raise ValueError(f"vector length {len(vectors)} does not match n={n}")
    if vectors.shape[1] != len(values):
        raise ValueError(f"{vectors.shape[1]} vectors for {len(values)} eigenvalues")
    m = vectors.shape[1]
    x = np.zeros((n + 1, m), dtype=np.complex128)
    x[:n] = vectors
    # digon, out-arc and in-arc lists by pair code, each ascending like _steps
    lists: dict[int, list[list[int]]] = {code: [[] for _ in range(n)] for code in (0, 1, -1)}
    for u, steps in enumerate(graph._steps):
        for w, code in steps:
            lists[code][u].append(w)
    rhs = _neighbor_sums(x, lists[0])
    a = alpha.value
    for phase, nbrs in ((a, lists[1]), (a.conjugate(), lists[-1])):
        s = _neighbor_sums(x, nbrs)
        rhs.real += phase.real * s.real - phase.imag * s.imag
        rhs.imag += phase.real * s.imag + phase.imag * s.real
    x = x[:n]
    return np.hypot(values * x.real - rhs.real, values * x.imag - rhs.imag).max(
        axis=0, initial=0.0
    )
