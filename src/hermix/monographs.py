"""Gauge structure of mixed graphs whose cycles all carry trivial phase.

For a fixed unit phase alpha, the value of a closed walk depends only on its
arc balance, so the set of values seen at a vertex of a connected graph is a
subgroup of the circle and is the same at every vertex.  When that subgroup
is trivial the graph is called a monograph here: of the first kind when the
plain walk value of every cycle is 1, of the second kind when the signed
walk value (an extra -1 per edge) of every cycle is 1.

Both kinds admit a vertex potential, a gauge built along a spanning forest:
starting from 1 at each component root, a digon keeps the potential (first
kind) or flips its sign (second kind), and a forward arc multiplies by alpha
(first kind) or by -alpha (second kind), so a vertex's potential is the
value of its tree path.  Every cycle value is a product of fundamental ones,
so checking the basis settles the whole graph.  :attr:`MixedGraph.cycle_basis`
records the arc balance and length of every tree path and the balance of
every fundamental cycle, and detection reads them all off the forest.

Angle-built alphas are treated as having infinite order, so for them a cycle
value is trivial only when its arc balance is 0 (and its length even, for
the second kind).  No attempt is made to recognize a float angle as a
rational turn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import NotMonographError, NumericalError
from .graphs import (
    Edge,
    EdgeKind,
    MixedGraph,
    Walk,
    connected_components,
    degree_profile,
)
from .phases import ALPHA_ONE, Phase
from .spectra import (
    DEFAULT_TOL,
    EIGEN_RESIDUAL_TOL,
    EigenPair,
    Spectrum,
    _graph_source,
    _pair_residuals,
    build_hermitian,
    eigen_decomposition,
    spectra_equal,
    spectral_radius,
)

__all__ = [
    "MonographKind",
    "StoreDescriptor",
    "MonographCertificate",
    "MonographPartition",
    "AttachDirection",
    "Attachment",
    "RadiusReport",
    "compute_store",
    "is_monograph",
    "monograph_partition",
    "transfer_eigenvectors",
    "negated_spectrum_check",
    "extend_monograph",
    "radius_equality_analysis",
    "every_alpha_monograph",
]

class MonographKind(Enum):
    FIRST = 1
    SECOND = 2


def _value(alpha: Phase, kind: MonographKind, balance: int, edges: int) -> Phase:
    return alpha.walk_value(balance, edges, signed=kind is MonographKind.SECOND)


def _is_trivial(alpha: Phase, kind: MonographKind, balance: int, edges: int) -> bool:
    # an angle has infinite order, so only a zero balance can cancel it
    return (alpha.is_exact or balance == 0) and _value(alpha, kind, balance, edges).is_identity()


@dataclass(frozen=True)
class StoreDescriptor:
    """The subgroup of walk values seen at a vertex of a connected graph.

    ``generator_phases`` are the values of the fundamental cycles.  For a
    rational alpha the generated subgroup is cyclic: it is exactly the
    multiples of ``step`` (a reduced fraction of a turn) and has ``size``
    elements.  For an angle-built alpha no closure is claimed: ``step`` is
    None and ``size`` is 1 precisely when every generator is trivial.
    """

    kind: MonographKind
    generator_phases: tuple[Phase, ...]
    step: Fraction | None
    size: int | None


def compute_store(graph: MixedGraph, alpha: Phase, kind: MonographKind) -> StoreDescriptor:
    """Store of closed-walk values for a connected graph.

    The paper's store: the group of h (first kind) or g (second kind) values
    of closed walks at a vertex, trivial exactly on monographs of that kind.

    Raises ValueError on disconnected input; split into components first.
    """
    if graph.n == 0 or len(connected_components(graph)) != 1:
        raise ValueError("compute_store requires a connected graph")
    basis = graph.cycle_basis
    data = [(bal, w.edge_count) for w, bal in zip(basis.cycles, basis.cycle_balances)]
    phases = tuple(_value(alpha, kind, bal, edges) for bal, edges in data)
    if alpha.is_exact:
        rots = [p.rotation for p in phases]
        denom = math.lcm(*(r.denominator for r in rots)) if rots else 1
        nums = [(r.numerator * (denom // r.denominator)) % denom for r in rots]
        g = math.gcd(denom, *nums)
        size = denom // g
        return StoreDescriptor(kind, phases, Fraction(g, denom), size)
    trivial = all(_is_trivial(alpha, kind, bal, edges) for bal, edges in data)
    return StoreDescriptor(kind, phases, None, 1 if trivial else None)


@dataclass(frozen=True)
class MonographCertificate:
    """Outcome of monograph detection.

    On success ``potential`` holds one phase per vertex, the walk value of
    the spanning-forest path from the component root (signed value for the
    second kind).  On failure ``violation`` is a fundamental cycle whose
    value is not 1.
    """

    verdict: bool
    potential: tuple[Phase, ...] | None
    violation: Walk | None


def is_monograph(graph: MixedGraph, alpha: Phase, kind: MonographKind) -> MonographCertificate:
    """Decide the monograph property structurally, per connected component.

    Checks the value of every fundamental cycle, from its balance and edge
    count in the graph's cycle basis; disconnected graphs pass only when all
    components do.  The potential of each vertex is the value of its tree
    path, from the balance and depth the basis records, so it is rooted at
    the smallest vertex of each component.
    """
    basis = graph.cycle_basis
    for walk, bal in zip(basis.cycles, basis.cycle_balances):
        if not _is_trivial(alpha, kind, bal, walk.edge_count):
            return MonographCertificate(False, None, walk)
    potential = tuple(
        _value(alpha, kind, bal, depth) for bal, depth in zip(basis.balances, basis.depths)
    )
    return MonographCertificate(True, potential, None)


@dataclass(frozen=True, eq=False)
class MonographPartition:
    """Vertex classes keyed by potential value.

    For the first kind a digon joins vertices of equal potential and an arc
    multiplies the potential by alpha tail to head.  For the second kind the
    signed potential flips under a digon and an arc multiplies it by minus
    alpha; the classes then read off as plus or minus a power of alpha.
    """

    classes: dict[Phase, tuple[int, ...]]


def monograph_partition(
    graph: MixedGraph, alpha: Phase, kind: MonographKind
) -> MonographPartition:
    """Group vertices by potential; raises NotMonographError when there is none."""
    cert = is_monograph(graph, alpha, kind)
    if not cert.verdict:
        assert cert.violation is not None
        raise NotMonographError(
            f"graph is not a monograph of kind {kind.value}: "
            f"cycle {list(cert.violation.vertices)} has nontrivial value"
        )
    assert cert.potential is not None
    balances, depths = graph.cycle_basis.balances, graph.cycle_basis.depths
    groups: dict[object, list[int]] = {}
    for v in range(graph.n):
        if alpha.is_exact:
            key: object = cert.potential[v]
        elif kind is MonographKind.SECOND:
            key = (balances[v], depths[v] % 2)
        else:
            key = balances[v]
        groups.setdefault(key, []).append(v)
    classes = {
        cert.potential[members[0]]: tuple(members) for members in groups.values()
    }
    _check_partition_edges(graph, alpha, kind, balances, depths, cert.potential)
    return MonographPartition(classes)


def _check_partition_edges(
    graph: MixedGraph,
    alpha: Phase,
    kind: MonographKind,
    balances: Sequence[int],
    depths: Sequence[int],
    potential: tuple[Phase, ...],
) -> None:
    """Every edge must move the potential exactly one step: digons keep it
    (first kind) or negate it (second kind); an arc multiplies by alpha, and
    by minus alpha for the second kind."""
    for e in graph.edges:
        balance = 0 if e.kind is EdgeKind.DIGON else 1
        if alpha.is_exact:
            ok = potential[e.u] * _value(alpha, kind, balance, 1) == potential[e.v]
        else:
            ok = balances[e.v] - balances[e.u] == balance
            if kind is MonographKind.SECOND:
                ok = ok and (depths[e.v] - depths[e.u]) % 2 == 1
        if not ok:
            raise NumericalError(
                f"partition edge rule failed on {_graph_source(graph, alpha)}: "
                f"violated at edge ({e.u}, {e.v})"
            )


def _basis_residuals(graph: MixedGraph, alpha: Phase, pairs: Sequence[EigenPair]) -> np.ndarray:
    """One residual per pair, from a single pass over the stacked basis."""
    values = np.array([p.eigenvalue for p in pairs])
    vectors = np.array([p.vector for p in pairs], dtype=np.complex128)
    return _pair_residuals(graph, alpha, values, vectors.reshape(len(pairs), graph.n).T)


def _first_above(resid: np.ndarray, bound: float) -> int | None:
    """Index of the first residual not within ``bound``; NaN counts as failing."""
    failed = np.flatnonzero(~(resid <= bound))
    return int(failed[0]) if failed.size else None


def transfer_eigenvectors(
    graph: MixedGraph, alpha: Phase, basis: Sequence[EigenPair]
) -> tuple[list[EigenPair], float]:
    """Turn an eigenbasis of the underlying graph into one of the phase matrix.

    Requires a first-kind monograph.  The input basis is verified against
    the underlying adjacency first, within ``EIGEN_RESIDUAL_TOL * n``.  The
    transferred vector multiplies every entry by the conjugate of the vertex
    potential, which keeps eigenvalues, norms and linear independence; the
    transferred basis is verified within ``DEFAULT_TOL`` before it is
    returned.  Each verification is one residual pass over the whole basis,
    its neighbor sums taken from the graph's digon, out-arc and in-arc lists
    rather than from the assembled matrix; an error names the first failing
    pair in basis order.  Returns the transferred pairs and the largest of
    their residuals (0.0 for an empty basis).
    """
    cert = is_monograph(graph, alpha, MonographKind.FIRST)
    if not cert.verdict:
        assert cert.violation is not None
        raise NotMonographError(
            f"transfer requires a first-kind monograph; cycle "
            f"{list(cert.violation.vertices)} has nontrivial value"
        )
    assert cert.potential is not None
    n = graph.n
    # pairs before the first vector of the wrong length are verified first,
    # so a bad pair earlier in the basis is the one reported
    sized = list(itertools.takewhile(lambda p: len(p.vector) == n, basis))
    resid = _basis_residuals(graph, ALPHA_ONE, sized)
    bad = _first_above(resid, EIGEN_RESIDUAL_TOL * max(n, 1))
    if bad is not None:
        raise ValueError(
            f"basis pair with eigenvalue {sized[bad].eigenvalue:.6g} fails verification "
            f"against the underlying graph (residual {resid[bad]:.3e})"
        )
    if len(sized) < len(basis):
        raise ValueError(f"vector length {len(basis[len(sized)].vector)} does not match n={n}")
    gauge = np.array([p.value.conjugate() for p in cert.potential], dtype=np.complex128)
    out = [EigenPair(pair.eigenvalue, gauge * pair.vector) for pair in basis]
    resid = _basis_residuals(graph, alpha, out)
    bad = _first_above(resid, DEFAULT_TOL)
    if bad is not None:
        raise NumericalError(
            f"transfer residual failed on {_graph_source(graph, alpha)}: "
            f"transferred pair residual {resid[bad]:.3e} exceeds {DEFAULT_TOL:.3e}"
        )
    return out, float(resid.max(initial=0.0))


def negated_spectrum_check(
    graph: MixedGraph, alpha: Phase, tol: float = DEFAULT_TOL
) -> bool:
    """For a second-kind monograph: does negating the underlying spectrum give
    the phase spectrum?  Compared within ``tol``.

    The paper's spectral claim for second-kind monographs (acceptance check 5).
    """
    cert = is_monograph(graph, alpha, MonographKind.SECOND)
    if not cert.verdict:
        assert cert.violation is not None
        raise NotMonographError(
            f"negated spectrum check requires a second-kind monograph; cycle "
            f"{list(cert.violation.vertices)} has nontrivial value"
        )
    spec_alpha, _ = eigen_decomposition(build_hermitian(graph, alpha))
    spec_under, _ = eigen_decomposition(build_hermitian(graph, ALPHA_ONE))
    negated = Spectrum(tuple(-v for v in spec_under.values))
    return spectra_equal(spec_alpha, negated, tol)


class AttachDirection(Enum):
    OUT = "out"
    IN = "in"


@dataclass(frozen=True)
class Attachment:
    """A new vertex wired to ``targets`` by arcs, all leaving the new vertex
    (OUT) or all entering it (IN)."""

    targets: frozenset[int]
    direction: AttachDirection

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", frozenset(self.targets))
        if not self.targets:
            raise ValueError("attachment needs at least one target vertex")


def extend_monograph(
    graph: MixedGraph,
    alpha: Phase,
    base_vertices: Iterable[int],
    attachments: Sequence[Attachment],
) -> MixedGraph:
    """Grow a first-kind monograph by pendant-style vertices.

    ``base_vertices`` must induce a connected all-digon subgraph, and every
    attachment target set must sit inside it.  One new vertex is appended
    per attachment, joined to its targets by arcs that all point the same
    way.  The result is checked to be a first-kind monograph again before it
    is returned.
    """
    base = sorted(set(base_vertices))
    if not base:
        raise ValueError("base vertex set must be nonempty")
    for v in base:
        if not 0 <= v < graph.n:
            raise ValueError(f"base vertex {v} out of range")
    cert = is_monograph(graph, alpha, MonographKind.FIRST)
    if not cert.verdict:
        raise NotMonographError("extension requires a first-kind monograph")
    base_set = set(base)
    inside = [e for e in graph.sorted_edges if e.u in base_set and e.v in base_set]
    for e in inside:
        if e.kind is not EdgeKind.DIGON:
            raise ValueError(
                f"base subgraph must be undirected, found arc ({e.u}, {e.v}) inside it"
            )
    # connected exactly when the induced subgraph's spanning forest puts
    # every base vertex under one root
    roots = MixedGraph(graph.n, frozenset(inside)).cycle_basis.roots
    if len({roots[v] for v in base}) != 1:
        raise ValueError("base vertex set does not induce a connected subgraph")
    new_edges = set(graph.edges)
    next_id = graph.n
    for att in attachments:
        if not att.targets <= base_set:
            raise ValueError(
                f"attachment targets {sorted(att.targets)} leave the base set"
            )
        for t in sorted(att.targets):
            if att.direction is AttachDirection.OUT:
                new_edges.add(Edge.arc(next_id, t))
            else:
                new_edges.add(Edge.arc(t, next_id))
        next_id += 1
    grown = MixedGraph(next_id, frozenset(new_edges))
    assert is_monograph(grown, alpha, MonographKind.FIRST).verdict
    return grown


@dataclass(frozen=True)
class RadiusReport:
    """Spectral radius against the maximum degree, with the structural verdicts
    that are supposed to explain equality."""

    rho: float
    delta: int
    equal: bool
    regular: bool
    mono1: bool
    mono2: bool
    theorem_consistent: bool


def radius_equality_analysis(
    graph: MixedGraph, alpha: Phase, tol: float = DEFAULT_TOL
) -> RadiusReport:
    """For a connected graph: rho always stays below the maximum degree, with
    equality exactly on regular monographs of either kind.

    When no power of alpha is minus another power (for exact alphas, odd
    reduced denominator; angle alphas qualify by the infinite-order model)
    equality must come from a first-kind monograph, and that sharper claim is
    folded into ``theorem_consistent``.
    """
    if graph.n == 0 or len(connected_components(graph)) != 1:
        raise ValueError("radius analysis requires a connected graph")
    rho = spectral_radius(graph, alpha)
    profile = degree_profile(graph)
    delta = profile.max_degree
    equal = abs(rho - delta) <= tol
    mono1 = is_monograph(graph, alpha, MonographKind.FIRST).verdict
    mono2 = is_monograph(graph, alpha, MonographKind.SECOND).verdict
    consistent = equal == (profile.is_regular and (mono1 or mono2))
    if _no_power_is_minus_power(alpha) and equal and not mono1:
        consistent = False
    return RadiusReport(rho, delta, equal, profile.is_regular, mono1, mono2, consistent)


def _no_power_is_minus_power(alpha: Phase) -> bool:
    # -1 lies in the cyclic group generated by alpha exactly when the order is even
    if alpha.is_exact:
        order = alpha.order
        return isinstance(order, int) and order % 2 == 1
    return True


def every_alpha_monograph(graph: MixedGraph) -> bool:
    """True when every fundamental cycle has arc balance zero, which makes the
    graph a first-kind monograph for every choice of alpha.

    The paper's alpha-independent case: the phase matrix is then similar to
    the underlying adjacency matrix whatever alpha is.
    """
    return not any(graph.cycle_basis.cycle_balances)
