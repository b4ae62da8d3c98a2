"""Unit complex numbers as rotations of the circle, and walk values.

One type, :class:`Phase`, stands for every unit number in the package: the
alpha that weights arcs, walk and cycle values, and vertex potentials.  A
rotation of ``t`` turns stands for ``exp(2*pi*i*t)``.  Rational rotations
(roots of unity) are kept as exact ``Fraction`` values so walk values and
orders carry no floating point error; an arbitrary angle is kept as a float
rotation and compared with tolerance ``1e-9``.  Floats are
never promoted back to rationals, so an angle-built phase is treated as
having infinite multiplicative order even if the float happens to look
rational.

The value of a walk is the product of its matrix entries: a digon step
contributes 1, an arc contributes alpha when traversed with its direction
and the conjugate against it.  The product therefore equals alpha raised to
the walk's arc balance.  The signed variant multiplies by (-1) per edge.
:meth:`Phase.walk_value` states this rule once for every caller.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .errors import InvalidWalkError
from .graphs import MixedGraph

__all__ = [
    "Phase",
    "ALPHA_ONE",
    "ALPHA_I",
    "ALPHA_GAMMA",
    "ALPHA_OMEGA",
    "make_alpha",
    "rotation_cos",
    "rotation_sin",
    "ArcBalance",
    "arc_balance",
    "walk_value_h",
    "walk_value_g",
]

Rotation = Union[Fraction, float]

# float rotations agree within 1e-9 turns: a product of k phases carries about
# k*eps of rounding, far below it, while angles typed to 9 digits stay apart
ROTATION_TOL = 1e-9

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)

# rotations whose cosine is exact in binary floating point
_COS_TABLE = {
    Fraction(0): 1.0,
    Fraction(1, 2): -1.0,
    Fraction(1, 4): 0.0,
    Fraction(3, 4): 0.0,
    Fraction(1, 3): -0.5,
    Fraction(2, 3): -0.5,
    Fraction(1, 6): 0.5,
    Fraction(5, 6): 0.5,
}


def rotation_cos(rotation: Rotation) -> float:
    """cos(2*pi*rotation) with exact values at the common table rotations.

    Other arguments are folded into [0, 1/4] first, so the cosine is taken of
    a small angle and the only float error is the final cosine itself.
    """
    r = rotation % 1
    if isinstance(r, Fraction):
        hit = _COS_TABLE.get(r)
        if hit is not None:
            return hit
    if r > 0.5:
        r = 1 - r
    if r > 0.25:
        return -math.cos(2.0 * math.pi * float(_HALF - r))
    return math.cos(2.0 * math.pi * float(r))


def rotation_sin(rotation: Rotation) -> float:
    """sin(2*pi*rotation), via the quarter-turn shift of the cosine."""
    return rotation_cos(rotation - _QUARTER)


def _cyclic_distance(rotation: float) -> float:
    r = rotation % 1.0
    return min(r, 1.0 - r)


@dataclass(frozen=True)
class Phase:
    """A point on the unit circle, stored as its rotation mod 1.

    Build exact roots of unity with :meth:`from_root` (gcd reduction is
    automatic through Fraction) and arbitrary angles with :meth:`from_angle`.
    Arithmetic stays exact while the rotation is a Fraction; mixing with a
    float rotation demotes the result to float.  Equality and hashing are by
    numeric rotation value (a Fraction equals the float of the same value);
    :meth:`is_identity` compares a float phase with 1 within a tolerance.

    ``str(p)`` is the alpha spec (``root:k/n`` or ``angle:<radians>``) that
    :func:`make_alpha` reads back; :attr:`turns` is the bare rotation that
    potentials and partition classes print.
    """

    rotation: Rotation

    def __post_init__(self) -> None:
        rotation = self.rotation % 1
        # a float just below 0 reduces to 1.0, which is the rotation 0
        object.__setattr__(self, "rotation", rotation if rotation < 1 else 0.0)

    @classmethod
    def from_root(cls, k: int, n: int) -> "Phase":
        """exp(2*pi*i*k/n) for integer k and positive n."""
        if n <= 0:
            raise ValueError("root denominator must be positive")
        return cls(Fraction(k, n))

    @classmethod
    def from_angle(cls, theta: float) -> "Phase":
        """exp(i*theta); the rotation is kept as a float."""
        return cls(float(theta) / (2.0 * math.pi))

    @classmethod
    def minus_one(cls) -> "Phase":
        return cls(_HALF)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.rotation, Fraction)

    @property
    def order(self) -> int | float:
        """Multiplicative order: the reduced denominator, or inf for floats."""
        if self.is_exact:
            return self.rotation.denominator if self.rotation != 0 else 1
        return math.inf

    def walk_value(self, balance: int, edges: int, signed: bool) -> "Phase":
        """Value, with this phase as alpha, of a walk with the given arc
        balance and edge count: ``alpha ** balance``, times (-1) per edge
        when ``signed``.

        One phase is built.  The sign adds half a turn to the power reduced
        mod 1, as multiplying the two reduced phases ``alpha ** balance`` and
        ``(-1) ** edges`` adds them, so a float rotation matches that product
        exactly."""
        rotation = self.rotation * balance
        if signed:
            rotation = rotation % 1 + (_HALF if edges % 2 else 0)
        return Phase(rotation)

    @property
    def value(self) -> complex:
        return complex(rotation_cos(self.rotation), rotation_sin(self.rotation))

    def is_identity(self, tol: float = ROTATION_TOL) -> bool:
        if self.is_exact:
            return self.rotation == 0
        return _cyclic_distance(float(self.rotation)) <= tol

    @property
    def turns(self) -> str:
        """The rotation as text: ``1/3`` when exact, 12 significant digits
        otherwise."""
        if self.is_exact:
            return str(self.rotation)
        return format(float(self.rotation), ".12g")

    def __str__(self) -> str:
        if self.is_exact:
            q = self.rotation
            return f"root:{q.numerator}/{q.denominator}"
        return f"angle:{format(float(self.rotation) * 2.0 * math.pi, '.12g')}"


ALPHA_ONE = Phase(Fraction(0))
ALPHA_I = Phase(Fraction(1, 4))
ALPHA_GAMMA = Phase(Fraction(1, 3))
ALPHA_OMEGA = Phase(Fraction(1, 6))

_NAMED_ALPHAS = {
    "1": Fraction(0),
    "i": Fraction(1, 4),
    "gamma": Fraction(1, 3),
    "omega": Fraction(1, 6),
}


def make_alpha(spec: str) -> Phase:
    """Parse an alpha spec: ``i``, ``gamma``, ``omega``, ``1``, ``root:k/n``
    or ``angle:<radians>``."""
    s = spec.strip()
    if s in _NAMED_ALPHAS:
        return Phase(_NAMED_ALPHAS[s])
    if s.startswith("root:"):
        body = s[len("root:") :]
        m = re.match(r"^(-?\d+)/(\d+)$", body)
        if not m:
            raise ValueError(f"bad root spec {spec!r}, expected root:k/n")
        k, n = int(m.group(1)), int(m.group(2))
        if n == 0:
            raise ValueError("root denominator must be positive")
        return Phase.from_root(k, n)
    if s.startswith("angle:"):
        body = s[len("angle:") :]
        try:
            theta = float(body)
        except ValueError:
            raise ValueError(f"bad angle spec {spec!r}") from None
        if not math.isfinite(theta):
            raise ValueError("angle must be finite")
        return Phase.from_angle(theta)
    raise ValueError(f"unrecognized alpha spec {spec!r}")


class ArcBalance(NamedTuple):
    balance: int
    edge_count: int


def arc_balance(graph: MixedGraph, walk: Sequence[int]) -> ArcBalance:
    """Forward arcs minus backward arcs along the walk, a sequence of
    vertices, plus the step count.

    Raises InvalidWalkError when the walk is empty or a step is not an edge
    of the graph.
    """
    verts = tuple(walk)
    if not verts:
        raise InvalidWalkError("a walk has at least one vertex")
    if any(v < 0 or v >= graph.n for v in verts):
        raise InvalidWalkError(f"walk {verts} leaves the vertex range of n={graph.n}")
    balance = 0
    for a, b in zip(verts, verts[1:]):
        code = graph.pair_code(a, b)
        if code is None:
            raise InvalidWalkError(f"walk step ({a}, {b}) is not an edge")
        balance += code
    return ArcBalance(balance, len(verts) - 1)


def walk_value_h(graph: MixedGraph, alpha: Phase, walk: Sequence[int]) -> Phase:
    """Product of matrix entries along the walk; equals alpha**balance.

    The paper's h value of a walk, whose triviality on every cycle defines a
    first-kind monograph; acceptance check 3 takes it as the reference.
    """
    return alpha.walk_value(*arc_balance(graph, walk), signed=False)


def walk_value_g(graph: MixedGraph, alpha: Phase, walk: Sequence[int]) -> Phase:
    """The signed walk value: (-1) per edge times the plain walk value.

    The paper's g value of a walk, whose triviality on every cycle defines a
    second-kind monograph; acceptance check 3 takes it as the reference.
    """
    return alpha.walk_value(*arc_balance(graph, walk), signed=True)
