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
records the arc balance and length of every tree path and the balance and
length parity of every fundamental cycle, and detection reads them all off
the forest.

Detection is a congruence on those recorded integers (see ``_rule``).  A
verdict alone does no phase arithmetic and builds no walk; a certificate
builds the walk of a violating cycle only, and one phase per distinct potential.

The potential of a first-kind monograph is also the gauge that carries an
eigenbasis of the underlying graph onto the phase matrix: the transfer
multiplies row v of the basis by the conjugate of v's potential, one
conjugate per distinct potential.

Angle-built alphas are treated as having infinite order, so for them a cycle
value is trivial only when its arc balance is 0 (and its length even, for
the second kind).  No attempt is made to recognize a float angle as a
rational turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import NotMonographError, NumericalError
from .graphs import (
    MixedGraph,
    _ends,
    connected_components,
    degree_profile,
)
from .phases import ALPHA_ONE, Phase
from .spectra import (
    DEFAULT_TOL,
    EIGEN_RESIDUAL_TOL,
    EigenBasis,
    _graph_source,
    _raise_first,
    build_hermitian,
    eigen_decomposition,
    spectral_radius,
    verify_eigenpair,
)

__all__ = [
    "MonographKind",
    "StoreDescriptor",
    "MonographCertificate",
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


# (a, h, m): a walk of arc balance b and length l has the value key
# (a*b + h*(l mod 2)) mod m, left unreduced when m = 0
_Rule = tuple[int, int, int]


def _rule(alpha: Phase, kind: MonographKind) -> _Rule:
    """The monograph rule of ``alpha`` and ``kind`` as integers (a, h, m).

    For an exact alpha of p/q turns, a walk with arc balance b and length l
    has value (signed, for the second kind) of r/m turns, with residue
    r = (a*b + h*l) mod m and (a, h, m) = (p, 0, q) for the first kind,
    (2p, q, 2q) for the second; it is trivial iff r = 0, and only the parity
    of l matters.  An angle has infinite order, so its value is trivial only
    when b = 0 and, for the second kind, l is even: its rule is (1, 0, 0) or
    (2, 1, 0), where m = 0 leaves a*b + h*(l mod 2) unreduced, a key that
    tells every (b, l mod 2) apart and is 0 only on trivial walks.
    """
    if not alpha.is_exact:
        return (1, 0, 0) if kind is MonographKind.FIRST else (2, 1, 0)
    p, q = alpha.rotation.numerator, alpha.rotation.denominator
    return (p, 0, q) if kind is MonographKind.FIRST else (2 * p, q, 2 * q)


def _keys(rule: _Rule, balances: Sequence[int], lengths: Sequence[int]) -> list[int]:
    """The value key of each walk under ``rule``: 0 exactly on trivial walks,
    and equal keys exactly for equal values."""
    a, h, m = rule
    keys = [a * b + h * (l & 1) for b, l in zip(balances, lengths)]
    return [k % m for k in keys] if m else keys


def _phase(alpha: Phase, rule: _Rule, key: int) -> Phase:
    """The walk value a key stands for."""
    a, h, m = rule
    if m:
        return Phase(Fraction(key, m))
    # an angle's key is a*b + h*parity with a = 1 + h
    return alpha.walk_value(key // a, key % a, signed=bool(h))


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
    rule = _rule(alpha, kind)
    keys = _keys(rule, basis.cycle_balances, basis.cycle_parities)
    phases = tuple(_phase(alpha, rule, k) for k in keys)
    m = rule[2]
    if m:
        # the residues k/m generate the multiples of gcd(m, k...)/m
        g = math.gcd(m, *keys)
        return StoreDescriptor(kind, phases, Fraction(g, m), m // g)
    return StoreDescriptor(kind, phases, None, None if any(keys) else 1)


@dataclass(frozen=True)
class MonographCertificate:
    """Outcome of monograph detection.

    On success ``potential`` holds one phase per vertex, the walk value of
    the spanning-forest path from the component root (signed value for the
    second kind).  On failure ``violation`` is the closed walk, as its
    vertices, of a fundamental cycle whose value is not 1.
    """

    verdict: bool
    potential: tuple[Phase, ...] | None
    violation: tuple[int, ...] | None


def is_monograph(graph: MixedGraph, alpha: Phase, kind: MonographKind) -> MonographCertificate:
    """Decide the monograph property structurally, per connected component.

    Checks the value of every fundamental cycle, from its balance and length
    parity in the graph's cycle basis; disconnected graphs pass only when all
    components do.  The potential of each vertex is the value of its tree
    path, from the balance and depth the basis records, so it is rooted at
    the smallest vertex of each component.
    """
    return _certify(graph, alpha, kind)[0]


def _verdict(graph: MixedGraph, alpha: Phase, kind: MonographKind) -> bool:
    """:func:`is_monograph`'s verdict alone: every fundamental-cycle key is 0."""
    basis = graph.cycle_basis
    return not any(_keys(_rule(alpha, kind), basis.cycle_balances, basis.cycle_parities))


def _certify(
    graph: MixedGraph, alpha: Phase, kind: MonographKind
) -> tuple[MonographCertificate, list[int]]:
    """:func:`is_monograph` plus the value key of each vertex's potential
    (empty on failure)."""
    basis = graph.cycle_basis
    rule = _rule(alpha, kind)
    for i, key in enumerate(_keys(rule, basis.cycle_balances, basis.cycle_parities)):
        if key:
            return MonographCertificate(False, None, basis.cycle(i)), []
    keys = _keys(rule, basis.balances, basis.depths)
    phases = {k: _phase(alpha, rule, k) for k in dict.fromkeys(keys)}
    potential = tuple([phases[k] for k in keys])
    return MonographCertificate(True, potential, None), keys


def _require(
    graph: MixedGraph, alpha: Phase, kind: MonographKind, requirement: str
) -> tuple[tuple[Phase, ...], list[int]]:
    """The potential and its value keys, as :func:`_certify` gives them; a
    graph that is not a monograph of ``kind`` raises NotMonographError,
    ``requirement`` followed by a cycle of nontrivial value."""
    cert, keys = _certify(graph, alpha, kind)
    if not cert.verdict:
        assert cert.violation is not None
        raise NotMonographError(
            f"{requirement}cycle {list(cert.violation)} has nontrivial value"
        )
    assert cert.potential is not None
    return cert.potential, keys


def monograph_partition(
    graph: MixedGraph, alpha: Phase, kind: MonographKind
) -> dict[Phase, tuple[int, ...]]:
    """Vertex classes keyed by potential value, members ascending; raises
    NotMonographError when there is no potential.

    For the first kind a digon joins vertices of equal potential and an arc
    multiplies the potential by alpha tail to head.  For the second kind the
    signed potential flips under a digon and an arc multiplies it by minus
    alpha; the classes then read off as plus or minus a power of alpha.
    Both follow from the verdict alone: a tree edge steps so by construction,
    and a non-tree edge closes a fundamental cycle the verdict found trivial.
    """
    potential, keys = _require(
        graph, alpha, kind, f"graph is not a monograph of kind {kind.value}: "
    )
    groups: dict[int, list[int]] = {}
    for v, key in enumerate(keys):
        groups.setdefault(key, []).append(v)
    # distinct keys of an angle may stand for one phase (angle 0 makes them
    # all 1), so the groups of equal potential merge
    classes: dict[Phase, list[int]] = {}
    for members in groups.values():
        classes.setdefault(potential[members[0]], []).extend(members)
    return {p: tuple(sorted(members)) for p, members in classes.items()}


def transfer_eigenvectors(
    graph: MixedGraph, alpha: Phase, basis: EigenBasis | None = None
) -> tuple[EigenBasis, float]:
    """Turn an eigenbasis of the underlying graph into one of the phase matrix.

    Requires a first-kind monograph.  A given ``basis`` is verified against
    the underlying adjacency first, within ``EIGEN_RESIDUAL_TOL * n``;
    ``None`` takes the basis :func:`eigen_decomposition` computes for the
    underlying graph, which has passed the same check.  The transferred
    basis multiplies every row by the conjugate of that vertex's potential,
    which keeps eigenvalues, norms, linear independence and each vertex's
    residual modulus; it is verified within the same budget before it is
    returned.  Each verification is one :func:`verify_eigenpair` pass over
    the whole basis; an error names the first failing column in basis
    order.  Returns the transferred basis and the largest of its residuals
    (0.0 for an empty basis).
    """
    potential, keys = _require(
        graph, alpha, MonographKind.FIRST, "transfer requires a first-kind monograph; "
    )
    budget = EIGEN_RESIDUAL_TOL * max(graph.n, 1)
    if basis is None:
        basis = eigen_decomposition(build_hermitian(graph, ALPHA_ONE))
    else:
        given = verify_eigenpair(graph, ALPHA_ONE, basis.values, basis.vectors)
        _raise_first(
            ~(given <= budget),
            ValueError,
            lambda i: f"basis pair with eigenvalue {basis.values[i]:.6g} fails verification "
            f"against the underlying graph (residual {given[i]:.3e})",
        )
    # one conjugate per distinct potential, looked up per vertex by its key
    conj = {k: p.value.conjugate() for k, p in dict(zip(keys, potential)).items()}
    gauge = np.array([conj[k] for k in keys], dtype=np.complex128)
    moved = EigenBasis(basis.values, gauge[:, None] * basis.vectors)
    resid = verify_eigenpair(graph, alpha, moved.values, moved.vectors)
    _raise_first(
        ~(resid <= budget),
        NumericalError,
        lambda i: f"transfer residual failed on {_graph_source(graph, alpha)}: "
        f"transferred pair residual {resid[i]:.3e} exceeds {budget:.3e}",
    )
    return moved, float(resid.max(initial=0.0))


def negated_spectrum_check(
    graph: MixedGraph, alpha: Phase, tol: float = DEFAULT_TOL
) -> bool:
    """For a second-kind monograph: does negating the underlying spectrum give
    the phase spectrum?  Compared within ``tol``.

    The paper's spectral claim for second-kind monographs (acceptance check 5).
    """
    requirement = "negated spectrum check requires a second-kind monograph; "
    _require(graph, alpha, MonographKind.SECOND, requirement)
    values = eigen_decomposition(build_hermitian(graph, alpha)).values
    under = eigen_decomposition(build_hermitian(graph, ALPHA_ONE)).values
    # both descending: the negated underlying spectrum, descending, is -under[::-1]
    return bool((np.abs(values + under[::-1]) <= tol).all())


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
    if not _verdict(graph, alpha, MonographKind.FIRST):
        raise NotMonographError("extension requires a first-kind monograph")
    base_set = set(base)
    inside = tuple(row for row in graph._table if row[0] in base_set and row[1] in base_set)
    for row in inside:
        if row[2] != 1:
            u, v = _ends(row)
            raise ValueError(f"base subgraph must be undirected, found arc ({u}, {v}) inside it")
    # connected exactly when the induced subgraph's spanning forest puts
    # every base vertex under one root
    roots = MixedGraph._from_table(graph.n, inside).cycle_basis.roots
    if len({roots[v] for v in base}) != 1:
        raise ValueError("base vertex set does not induce a connected subgraph")
    table = list(graph._table)
    next_id = graph.n
    for att in attachments:
        if not att.targets <= base_set:
            raise ValueError(
                f"attachment targets {sorted(att.targets)} leave the base set"
            )
        # a new vertex is above every target: OUT arcs run down, IN arcs up
        digit = 3 if att.direction is AttachDirection.OUT else 2
        table += [(t, next_id, digit) for t in att.targets]
        next_id += 1
    grown = MixedGraph._from_table(next_id, tuple(sorted(table)))
    assert _verdict(grown, alpha, MonographKind.FIRST)
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
    mono1 = _verdict(graph, alpha, MonographKind.FIRST)
    mono2 = _verdict(graph, alpha, MonographKind.SECOND)
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
