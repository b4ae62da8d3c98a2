"""Numeric spectra of the phase-weighted Hermitian adjacency matrix.

The matrix of a mixed graph puts 1 on digons, the chosen unit phase alpha on
an arc read tail to head, and its conjugate the other way.  One stack
builder sets the entries of every matrix, one graph's or a whole search
chunk's, so each is Hermitian, zero-diagonal and unit-modulus by
construction and the spectrum is real whatever alpha is.  A matrix is a
plain complex array; the spectral functions take the graph and alpha and
build it themselves, so their errors name the graph.

Every eigenvalue computation goes through LAPACK's complex Hermitian solver
(``np.linalg.eigh`` / ``np.linalg.eigvalsh``) on the n x n matrix itself.
It returns real eigenvalues and an orthonormal eigenbasis, degenerate
eigenspaces included, so no post-processing is needed beyond a residual
check.  Results are plain values.  A basis travels as one
:class:`EigenBasis`: m eigenvalues, descending from
:func:`eigen_decomposition`, and the n x m array of their unit
eigenvectors, each column normalised once.  A characteristic polynomial is
a tuple of floats.

Tolerances used across the package are centralized here, and so is every
consistency check on eigenpairs and polynomials.  Each check builds a mask
over a stack of matrices and raises, through one helper, for the lowest
index the mask marks.  The eigenpair check is written once, over a stack:
:func:`eigen_decomposition` runs it on a stack of one, and the cospectral
verdict on one graph or on a whole chunk of a search.  The characteristic
polynomial is taken one matrix at a time, by :func:`char_poly` only; the
cospectral verdict compares spectra and computes no polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .graphs import MixedGraph
from .phases import Phase

__all__ = [
    "EigenBasis",
    "build_hermitian",
    "eigen_decomposition",
    "char_poly",
    "spectral_radius",
    "verify_eigenpair",
]

# eigenpair residual budget, times n: a backward-stable solve leaves about
# n*eps and a basis printed at 12 digits about n*1e-12, a wrong pair far more
EIGEN_RESIDUAL_TOL = 1e-9
# the trace recursion's imaginary residue and gap to the eigenvalue product:
# absolute, so sound only while the coefficients, which grow like n!, stay small
COEFF_TOL = 1e-8
# default for comparing spectra (--tol): a backward-stable solve moves an
# eigenvalue by about n*n*eps at most, below 1e-8 up to n of several thousand
DEFAULT_TOL = 1e-8


def _raise_first(
    failed: np.ndarray, error: type[Exception], message: Callable[[int], str]
) -> None:
    """Raise ``error(message(i))`` for the lowest index ``i`` that the boolean
    mask ``failed`` marks.  Bounds are checked as ``~(x <= bound)``, so NaN
    counts as failing."""
    if failed.any():
        i = int(failed.argmax())
        raise error(message(i))


def _graph_source(graph: MixedGraph, *alphas: Phase) -> str:
    """How an error names a graph and the phases it was taken under."""
    phases = " and ".join(map(str, alphas))
    return (
        f"the graph (n={graph.n}, {len(graph._table)} edges, "
        f"alpha{'s' if len(alphas) > 1 else ''} {phases})"
    )


def _eigh_checked(
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, Callable[[Callable[[int], str]], None]]:
    """Batched complex Hermitian ``eigh``: ascending eigenvalues, eigenvector
    columns, and the eigen residual check.  Called with ``source``, the check
    raises NumericalError for the lowest matrix, named by ``source``, with a
    pair residual above ``EIGEN_RESIDUAL_TOL * n``."""
    evals, evecs = np.linalg.eigh(a)
    resid = np.abs(a @ evecs - evecs * evals[..., None, :]).max(axis=(-2, -1), initial=0.0)
    budget = EIGEN_RESIDUAL_TOL * a.shape[-1]

    def check(source: Callable[[int], str]) -> None:
        _raise_first(
            ~(resid <= budget),
            NumericalError,
            lambda i: f"eigen residual failed on {source(i)}: "
            f"eigenpair residual {resid[i]:.3e} exceeds {budget:.3e}",
        )

    return evals, evecs, check


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


def _hermitian_stack(
    n: int, lo: np.ndarray, hi: np.ndarray, digits: np.ndarray, alpha: Phase
) -> np.ndarray:
    """The Hermitian adjacency matrices of a stack of graphs on ``n`` vertices
    under ``alpha``: matrix k carries the edge digit ``digits[k, p]`` (none,
    digon, arc up, arc down) on the pair ``lo[p] < hi[p]``.  The only code
    that sets matrix entries, so every matrix is Hermitian, zero-diagonal and
    unit-modulus by construction and none is checked for it."""
    val = alpha.value
    conj = val.conjugate()
    a = np.zeros((len(digits), n, n), dtype=np.complex128)
    a[:, lo, hi] = np.array([0, 1, val, conj], dtype=np.complex128)[digits]
    a[:, hi, lo] = np.array([0, 1, conj, val], dtype=np.complex128)[digits]
    return a


def build_hermitian(graph: MixedGraph, alpha: Phase) -> np.ndarray:
    """The phase-weighted Hermitian adjacency matrix of the graph, an n x n
    complex array set from its edge table: a stack of one."""
    lo, hi, digit = np.array(graph._table, dtype=np.intp).reshape(-1, 3).T
    return _hermitian_stack(graph.n, lo, hi, digit[None], alpha)[0]


def eigen_decomposition(graph: MixedGraph, alpha: Phase) -> EigenBasis:
    """An orthonormal eigenbasis of the graph's matrix under ``alpha``,
    eigenvalues descending.

    One complex Hermitian ``eigh`` gives it; each eigenvalue is reported
    with its own column, so a degenerate eigenspace comes back as an
    orthonormal basis of that space.  Residuals above
    ``EIGEN_RESIDUAL_TOL * n`` raise NumericalError, naming the graph and
    ``alpha``, rather than returning a silently bad basis.
    """
    evals, evecs, check = _eigh_checked(build_hermitian(graph, alpha)[None])
    check(lambda _: _graph_source(graph, alpha))
    return EigenBasis(evals[0, ::-1], evecs[0, :, ::-1])


def char_poly(
    graph: MixedGraph, alpha: Phase, values: Sequence[float]
) -> tuple[float, ...]:
    """Coefficients c1..cn of the monic characteristic polynomial
    x^n + c1 x^(n-1) + ... + cn of the graph's matrix under ``alpha``, by
    trace recursion.

    Runs the Faddeev-LeVerrier recursion in complex arithmetic, demands the
    imaginary residue of every coefficient stay under ``COEFF_TOL``, and
    cross-checks against the polynomial expanded from ``values``, the
    matrix's eigenvalues as :func:`eigen_decomposition` returns them, so the
    matrix is solved only once.  Any disagreement raises NumericalError,
    naming the graph and ``alpha``.
    """
    n = graph.n
    if len(values) != n:
        raise ValueError(f"spectrum has {len(values)} values for an {n}x{n} matrix")
    if n == 0:
        return ()
    a = build_hermitian(graph, alpha)
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
            f"char-poly residue failed on {_graph_source(graph, alpha)}: characteristic "
            f"polynomial imaginary residue {worst_imag:.3e} exceeds {COEFF_TOL:.3e}"
        )
    from_roots = np.zeros(n + 1)
    from_roots[0] = 1.0
    for j, root in enumerate(values):
        from_roots[1 : j + 2] -= root * from_roots[: j + 1]
    gap = np.abs(coeffs.real - from_roots[1:]).max()
    if gap > COEFF_TOL:
        raise NumericalError(
            f"cross-check failed on {_graph_source(graph, alpha)}: trace recursion and "
            f"eigenvalue product disagree by {gap:.3e}"
        )
    return tuple(coeffs.real.tolist())


def spectral_radius(graph: MixedGraph, alpha: Phase) -> float:
    """Largest absolute eigenvalue; 0.0 for the empty graph."""
    if graph.n == 0:
        return 0.0
    evals = np.linalg.eigvalsh(build_hermitian(graph, alpha))
    return float(np.max(np.abs(evals)))


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
