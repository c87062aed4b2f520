from fractions import Fraction

import pytest

from triquad.arith import PrimePair, is_perfect_square
from triquad.errors import TriquadError
from triquad.quadratic import fundamental_unit

from oracles import (CASE_REPRESENTATIVES, brute_force_fundamental_unit,
                     chakravala_fundamental_unit, squarefree_numbers, zsqrt_unit)


def test_fundamental_unit_examples():
    assert fundamental_unit(2) == (1, 1, -1)
    assert fundamental_unit(7) == (8, 3, 1)
    assert fundamental_unit(34) == (35, 6, 1)
    # the cube of the fundamental unit (1 + sqrt5)/2
    assert fundamental_unit(5) == (2, 1, -1)


def test_fundamental_unit_rejects_bad_radicand():
    for d in (12, 3137 ** 2, 2 * 1117 ** 2):
        with pytest.raises(TriquadError):
            fundamental_unit(d)
    with pytest.raises(TriquadError):
        fundamental_unit(1)
    with pytest.raises(TriquadError):
        fundamental_unit(0)


def test_fundamental_unit_vs_oracle_small():
    # the oracle's unit for d != 5 mod 8; for d = 5 mod 8 it or its cube
    for d in squarefree_numbers(60):
        assert fundamental_unit(d) == zsqrt_unit(d), d


def check_integral_fundamental_unit(d):
    a, b, denom, norm = chakravala_fundamental_unit(d)
    assert denom == 1 and fundamental_unit(d) == (a, b, norm), d


def test_half_integer_units_only_for_5_mod_8():
    # the module docstring's claim: no half-integer unit unless d = 5 mod 8
    for d in squarefree_numbers(1000):
        if d % 8 != 5:
            check_integral_fundamental_unit(d)


def test_family_radicands_have_integral_fundamental_units():
    # the 140 radicands of the case representatives, 2pq up to 423,182
    assert len(CASE_REPRESENTATIVES) == 20
    for p, q, _, _ in CASE_REPRESENTATIVES:
        for d in PrimePair(p, q).radicands:
            assert d % 8 != 5
            check_integral_fundamental_unit(d)


def test_unit_exceeds_one_conjugate_below_one():
    for d in squarefree_numbers(150):
        x, y, _ = fundamental_unit(d)
        # x + y sqrt d > 1 and |x - y sqrt d| < 1, checked exactly:
        # x - 1 > -y sqrt(d) with y > 0
        assert y > 0
        assert x > 0
        lhs = x - 1
        assert lhs > 0 or y * y * d > lhs * lhs
        # |x - y sqrt d| < 1  <=>  (x^2 + y^2 d - 1)^2 < 4 x^2 y^2 d
        t = x * x + y * y * d - 1
        assert t * t < 4 * x * x * y * y * d


def test_norm_plus_one_side_values_not_rational_squares_spot():
    # whenever N(eps_d) = +1, none of 2(x+-1), 2d(x+-1) is a rational square
    for d in squarefree_numbers(120):
        # the triple may be the cube of the fundamental unit for d = 5 mod 8
        if d % 8 == 5:
            a, _, denom, norm = brute_force_fundamental_unit(d)
            x = Fraction(a, denom)
        else:
            x, _, norm = fundamental_unit(d)
        if norm != 1:
            continue
        for val in (2 * (x + 1), 2 * (x - 1), 2 * d * (x + 1), 2 * d * (x - 1)):
            assert val.denominator == 1
            assert is_perfect_square(val.numerator) is None, (d, val)


def test_power_and_cube_identity():
    # the fundamental unit (1 + sqrt5)/2 is half-integral; its cube is 2 + sqrt5
    assert brute_force_fundamental_unit(5) == (1, 1, 2, -1)
    assert zsqrt_unit(5) == fundamental_unit(5) == (2, 1, -1)
