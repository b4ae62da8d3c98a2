"""Exact rotations, alpha parsing, walk values."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermix import (
    ALPHA_GAMMA,
    ALPHA_I,
    ALPHA_OMEGA,
    ALPHA_ONE,
    InvalidWalkError,
    MixedGraph,
    Phase,
    arc_balance,
    build_hermitian,
    make_alpha,
    rotation_cos,
    rotation_sin,
    walk_value_g,
    walk_value_h,
)

from conftest import random_connected_mixed_graph


class TestRotationTrig:
    def test_exact_table(self):
        assert rotation_cos(Fraction(0)) == 1.0
        assert rotation_cos(Fraction(1, 2)) == -1.0
        assert rotation_cos(Fraction(1, 4)) == 0.0
        assert rotation_cos(Fraction(3, 4)) == 0.0
        assert rotation_cos(Fraction(1, 3)) == -0.5
        assert rotation_cos(Fraction(2, 3)) == -0.5
        assert rotation_cos(Fraction(1, 6)) == 0.5
        assert rotation_cos(Fraction(5, 6)) == 0.5

    def test_sin_shifts_cos(self):
        assert rotation_sin(Fraction(1, 4)) == 1.0
        assert rotation_sin(Fraction(1, 2)) == 0.0
        assert rotation_sin(Fraction(3, 4)) == -1.0

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(min_value=-3, max_value=3))
    def test_matches_cmath(self, q):
        z = cmath.exp(2j * math.pi * float(q % 1))
        assert math.isclose(rotation_cos(q), z.real, abs_tol=1e-12)
        assert math.isclose(rotation_sin(q), z.imag, abs_tol=1e-12)


class TestPhase:
    def test_normalizes_mod_one(self):
        assert Phase(Fraction(5, 4)) == Phase(Fraction(1, 4))
        assert Phase(Fraction(-1, 4)) == Phase(Fraction(3, 4))

    def test_value(self):
        assert Phase(Fraction(1, 4)).value == 1j
        assert Phase(Fraction(1, 2)).value == -1.0 + 0j
        assert Phase.minus_one().value == -1.0 + 0j

    def test_exact_and_float_mix(self):
        # equal by numeric rotation; a float that only nearly equals an
        # exact rotation differs from it, and is_identity absorbs its rounding
        assert Phase(Fraction(1, 2)) == Phase(0.5)
        assert hash(Phase(Fraction(1, 2))) == hash(Phase(0.5))
        nearby = make_alpha(f"angle:{math.tau / 13}")
        assert nearby != Phase(Fraction(1, 13))
        full_turn = nearby.walk_value(13, 13, signed=False)
        assert full_turn.rotation != 0 and full_turn.is_identity()
        assert not Phase(0.3).walk_value(3, 3, signed=False).is_identity()

    def test_str(self):
        assert str(Phase(Fraction(1, 4))) == "root:1/4"
        assert str(Phase(Fraction(0))) == "root:0/1"
        assert Phase(Fraction(1, 4)).turns == "1/4"
        assert Phase(Fraction(0)).turns == "0"
        assert Phase(0.125).turns == "0.125"


class TestMakeAlpha:
    def test_named(self):
        assert make_alpha("i") == ALPHA_I
        assert make_alpha("gamma") == ALPHA_GAMMA
        assert make_alpha("omega") == ALPHA_OMEGA
        assert make_alpha("1") == ALPHA_ONE

    def test_gamma_rotation_and_orders(self):
        assert ALPHA_GAMMA.rotation == Fraction(1, 3)
        assert ALPHA_GAMMA.order == 3
        assert ALPHA_OMEGA.order == 6
        assert ALPHA_I.order == 4
        assert ALPHA_ONE.order == 1

    def test_gamma_is_omega_squared(self):
        assert ALPHA_OMEGA.walk_value(2, 2, signed=False) == ALPHA_GAMMA

    def test_root_spec(self):
        a = make_alpha("root:2/8")
        assert a.rotation == Fraction(1, 4)
        assert make_alpha("root:-1/4").rotation == Fraction(3, 4)
        assert make_alpha("root:1/5").order == 5

    def test_angle_spec(self):
        a = make_alpha("angle:1.0")
        assert not a.is_exact
        assert a.order == math.inf
        assert cmath.isclose(a.value, cmath.exp(1j))

    def test_angle_round_trips_through_str(self):
        a = make_alpha("angle:1.0")
        assert make_alpha(str(a)) == a
        b = make_alpha("root:3/7")
        assert make_alpha(str(b)) == b

    def test_errors(self):
        for bad in ("bogus", "root:1/0", "root:x/4", "angle:nan", "angle:z", ""):
            with pytest.raises(ValueError):
                make_alpha(bad)

    def test_angle_never_promotes_to_exact(self):
        quarter = make_alpha(f"angle:{math.pi / 2}")
        assert not quarter.is_exact
        assert quarter.order == math.inf

    def test_tiny_negative_angle_is_the_identity(self):
        # -1e-17 % 1 is 1.0 in floating point; the rotation must still be 0
        a = make_alpha("angle:-1e-17")
        assert a == ALPHA_ONE and hash(a) == hash(ALPHA_ONE)
        assert a.rotation == 0.0
        assert str(a) == "angle:0"
        assert a.turns == "0"


def four_phase_walk_value(alpha: Phase, balance: int, edges: int, signed: bool) -> Phase:
    """The walk value composed of phases: alpha to the balance, times the
    power of minus one, each reduced as a phase before their rotations add."""
    value = Phase(alpha.rotation * balance)
    if not signed:
        return value
    return Phase(value.rotation + Phase(Fraction(edges, 2)).rotation)


def entry_product(g: MixedGraph, alpha: Phase, walk: tuple[int, ...], signed: bool) -> complex:
    """The product of the Hermitian matrix's entries along the walk, times
    (-1) per step when ``signed``."""
    entries = build_hermitian(g, alpha)
    product = complex(1.0)
    for a, b in zip(walk, walk[1:]):
        product *= -entries[a, b] if signed else entries[a, b]
    return product


class TestWalkValues:
    def test_walk_value_matches_four_phase_composition(self):
        alphas = [
            ALPHA_ONE, ALPHA_I, ALPHA_GAMMA, ALPHA_OMEGA,
            make_alpha("root:2/5"), make_alpha("root:-3/7"), make_alpha("root:5/12"),
            make_alpha("angle:0.7"), make_alpha("angle:2.1"), make_alpha("angle:-3.3"),
            Phase.from_angle(1e-17), Phase(-1e-20), Phase(0.1), Phase(1 / 3),
        ]
        for alpha in alphas:
            for balance in range(-24, 25):
                for edges in range(-3, 14):
                    for signed in (False, True):
                        got = alpha.walk_value(balance, edges, signed)
                        want = four_phase_walk_value(alpha, balance, edges, signed)
                        assert got == want
                        # floats to the last bit, exact rotations as exact
                        assert type(got.rotation) is type(want.rotation)
                        assert repr(got.rotation) == repr(want.rotation)

    def test_balance_counts_directions(self, dc3):
        w = (0, 1, 2, 0)
        assert arc_balance(dc3, w) == (3, 3)
        assert arc_balance(dc3, w[::-1]) == (-3, 3)

    def test_balance_rejects_non_edges(self, dc3, p3):
        with pytest.raises(InvalidWalkError):
            arc_balance(p3, (0, 2))
        with pytest.raises(InvalidWalkError):
            arc_balance(dc3, (0, 5))

    def test_balance_allows_backward_arc_steps(self, dc3):
        assert arc_balance(dc3, (0, 2, 1)) == (-2, 2)

    def test_h_is_alpha_to_balance(self, dc3):
        w = (0, 1, 2, 0)
        assert walk_value_h(dc3, ALPHA_I, w) == Phase(Fraction(3, 4))
        assert walk_value_h(dc3, ALPHA_GAMMA, w).is_identity()

    def test_g_flips_sign_per_edge(self, t2, dc4):
        g = walk_value_g(t2, ALPHA_I, (0, 1))
        assert g == Phase(Fraction(1, 4) + Fraction(1, 2))
        cycle = (0, 1, 2, 3, 0)
        assert walk_value_g(dc4, ALPHA_I, cycle).is_identity()

    def test_values_multiply_under_concatenation(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected_mixed_graph(rng, rng.randrange(2, 7))
            walk = _random_walk(rng, g, 8)
            cut = rng.randrange(1, len(walk))
            left, right = walk[: cut + 1], walk[cut:]
            for alpha in (ALPHA_I, ALPHA_GAMMA, make_alpha("angle:1.0")):
                for value, signed in ((walk_value_h, False), (walk_value_g, True)):
                    whole = value(g, alpha, walk).value
                    parts = value(g, alpha, left).value * value(g, alpha, right).value
                    assert cmath.isclose(whole, parts, abs_tol=1e-9)
                    assert cmath.isclose(whole, entry_product(g, alpha, walk, signed), abs_tol=1e-9)

    def test_reverse_conjugates(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_connected_mixed_graph(rng, rng.randrange(2, 7))
            walk = _random_walk(rng, g, 6)
            for alpha in (ALPHA_I, ALPHA_OMEGA):
                back = walk_value_h(g, alpha, walk[::-1])
                assert back == Phase(-walk_value_h(g, alpha, walk).rotation)
                forth = entry_product(g, alpha, walk, signed=False)
                assert cmath.isclose(back.value, forth.conjugate(), abs_tol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(-12, 12), st.integers(0, 12), st.integers(1, 10), st.integers(0, 9))
    def test_value_formula(self, balance, edges, den, num):
        # direct check of the defining formulas on synthetic balance data
        alpha = Phase(Fraction(num, den))
        h = Phase(alpha.rotation * balance)
        g = four_phase_walk_value(alpha, balance, edges, signed=True)
        assert (h.rotation - alpha.rotation * balance) % 1 == 0
        expected_g = (alpha.rotation * balance + Fraction(edges, 2)) % 1
        assert g.rotation == expected_g
        assert alpha.walk_value(balance, edges, signed=False) == h
        assert alpha.walk_value(balance, edges, signed=True) == g


def _random_walk(rng: random.Random, g: MixedGraph, steps: int) -> tuple[int, ...]:
    v = rng.randrange(g.n)
    seq = [v]
    for _ in range(steps):
        nbrs = g.neighbors(seq[-1])
        if not nbrs:
            break
        seq.append(rng.choice(nbrs))
    return tuple(seq)
