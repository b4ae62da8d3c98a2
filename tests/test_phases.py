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
    Walk,
    arc_balance,
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

    def test_group_laws(self):
        a = Phase(Fraction(1, 3))
        b = Phase(Fraction(1, 4))
        assert (a * b).rotation == Fraction(7, 12)
        assert (a * a.conjugate()).is_identity()
        assert (a**3).is_identity()
        assert a**-1 == a.conjugate()

    def test_value(self):
        assert Phase(Fraction(1, 4)).value == 1j
        assert Phase(Fraction(1, 2)).value == -1.0 + 0j
        assert Phase.minus_one().real == -1.0

    def test_exact_and_float_mix(self):
        exact = Phase(Fraction(1, 3))
        nearby = Phase(1.0 / 3.0)
        assert exact.isclose(nearby)
        assert not exact.isclose(Phase(0.3))

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
        assert ALPHA_OMEGA**2 == ALPHA_GAMMA

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
    power of minus one."""
    value = alpha**balance
    return value * Phase.minus_one() ** edges if signed else value


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
        w = Walk((0, 1, 2, 0))
        assert arc_balance(dc3, w) == (3, 3)
        assert arc_balance(dc3, w.reversed()) == (-3, 3)

    def test_balance_rejects_non_edges(self, dc3, p3):
        with pytest.raises(InvalidWalkError):
            arc_balance(p3, Walk((0, 2)))
        with pytest.raises(InvalidWalkError):
            arc_balance(dc3, Walk((0, 5)))

    def test_balance_allows_backward_arc_steps(self, dc3):
        assert arc_balance(dc3, Walk((0, 2, 1))) == (-2, 2)

    def test_h_is_alpha_to_balance(self, dc3):
        w = Walk((0, 1, 2, 0))
        assert walk_value_h(dc3, ALPHA_I, w) == Phase(Fraction(3, 4))
        assert walk_value_h(dc3, ALPHA_GAMMA, w).is_identity()

    def test_g_flips_sign_per_edge(self, t2, dc4):
        w = Walk((0, 1))
        g = walk_value_g(t2, ALPHA_I, w)
        assert g == Phase(Fraction(1, 4) + Fraction(1, 2))
        cycle = Walk((0, 1, 2, 3, 0))
        assert walk_value_g(dc4, ALPHA_I, cycle).is_identity()

    def test_values_multiply_under_concatenation(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_connected_mixed_graph(rng, rng.randrange(2, 7))
            walk = _random_walk(rng, g, 8)
            cut = rng.randrange(1, len(walk.vertices))
            left = Walk(walk.vertices[: cut + 1])
            right = Walk(walk.vertices[cut:])
            for alpha in (ALPHA_I, ALPHA_GAMMA, make_alpha("angle:1.0")):
                whole = walk_value_h(g, alpha, walk)
                parts = walk_value_h(g, alpha, left) * walk_value_h(g, alpha, right)
                assert whole.isclose(parts)
                whole_g = walk_value_g(g, alpha, walk)
                parts_g = walk_value_g(g, alpha, left) * walk_value_g(g, alpha, right)
                assert whole_g.isclose(parts_g)

    def test_reverse_conjugates(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_connected_mixed_graph(rng, rng.randrange(2, 7))
            walk = _random_walk(rng, g, 6)
            for alpha in (ALPHA_I, ALPHA_OMEGA):
                assert walk_value_h(g, alpha, walk.reversed()) == walk_value_h(
                    g, alpha, walk
                ).conjugate()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(-12, 12), st.integers(0, 12), st.integers(1, 10), st.integers(0, 9))
    def test_value_formula(self, balance, edges, den, num):
        # direct check of the defining formulas on synthetic balance data
        alpha = Phase(Fraction(num, den))
        h = Phase(alpha.rotation * balance)
        g = h * (Phase.minus_one() ** edges)
        assert (h.rotation - alpha.rotation * balance) % 1 == 0
        expected_g = (alpha.rotation * balance + Fraction(edges, 2)) % 1
        assert g.rotation == expected_g
        assert alpha.walk_value(balance, edges, signed=False) == h
        assert alpha.walk_value(balance, edges, signed=True) == g


def _random_walk(rng: random.Random, g: MixedGraph, steps: int) -> Walk:
    v = rng.randrange(g.n)
    seq = [v]
    for _ in range(steps):
        nbrs = g.neighbors(seq[-1])
        if not nbrs:
            break
        seq.append(rng.choice(nbrs))
    return Walk(tuple(seq))
