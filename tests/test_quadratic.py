from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triquad.arith import is_perfect_square
from triquad.errors import TriquadError
from triquad.quadratic import QuadElem, fundamental_unit, quad_mul, quad_norm

from oracles import brute_force_fundamental_unit, squarefree_numbers


def test_fundamental_unit_examples():
    assert fundamental_unit(2).elem == QuadElem(2, 1, 1)
    assert fundamental_unit(2).norm == -1
    assert fundamental_unit(7).elem == QuadElem(7, 8, 3)
    assert fundamental_unit(7).norm == 1
    assert fundamental_unit(34).elem == QuadElem(34, 35, 6)
    assert fundamental_unit(34).norm == 1
    assert fundamental_unit(5).elem == QuadElem(5, 1, 1, 2)
    assert fundamental_unit(5).norm == -1


def test_fundamental_unit_rejects_bad_radicand():
    for d in (12, 3137 ** 2, 2 * 1117 ** 2):
        with pytest.raises(TriquadError):
            fundamental_unit(d)
    with pytest.raises(TriquadError):
        fundamental_unit(1)
    with pytest.raises(TriquadError):
        fundamental_unit(0)


def test_fundamental_unit_vs_oracle_small():
    for d in squarefree_numbers(60):
        fu = fundamental_unit(d)
        a, b, denom, norm = brute_force_fundamental_unit(d)
        assert fu.elem == QuadElem(d, a, b, denom), d
        assert fu.norm == norm, d


def test_quad_mul_examples():
    r2 = QuadElem(2, 1, 1)
    assert quad_mul(r2, r2) == QuadElem(2, 3, 2)
    assert quad_mul(r2, QuadElem(2, -1, 1)) == QuadElem(2, 1, 0)
    golden = QuadElem(5, 1, 1, 2)
    assert quad_mul(golden, golden) == QuadElem(5, 3, 1, 2)


def test_quad_mul_rejects_mismatched_radicands():
    with pytest.raises(TriquadError):
        quad_mul(QuadElem(2, 1, 1), QuadElem(3, 1, 1))


def test_quad_norm_examples():
    assert quad_norm(QuadElem(2, 1, 1)) == -1
    assert quad_norm(QuadElem(7, 8, 3)) == 1
    assert quad_norm(QuadElem(5, 1, 1, 2)) == -1
    assert type(quad_norm(QuadElem(5, 3, 1, 2))) is int  # (9 - 5)/4 = 1


def test_half_integer_representation_canonical():
    assert QuadElem(5, 2, 4, 2) == QuadElem(5, 1, 2)
    with pytest.raises(TriquadError):
        QuadElem(7, 1, 1, 2)   # 7 = 3 mod 4 has no half-integers
    with pytest.raises(TriquadError):
        QuadElem(5, 1, 2, 2)   # mixed parity is not integral


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 5, 7, 13, 17, 21, 29]),
       st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_norm_multiplicative(d, a1, b1, a2, b2):
    x = QuadElem(d, a1, b1)
    y = QuadElem(d, a2, b2)
    assert quad_norm(quad_mul(x, y)) == quad_norm(x) * quad_norm(y)


def test_unit_exceeds_one_conjugate_below_one():
    for d in squarefree_numbers(150):
        fu = fundamental_unit(d)
        e = fu.elem
        # (a + b sqrt d)/denom > 1 and |conjugate| < 1, checked exactly:
        # a - denom > -b sqrt(d) with b > 0
        assert e.b > 0
        assert e.a > 0
        lhs = e.a - e.denom
        assert lhs > 0 or e.b * e.b * d > lhs * lhs
        # |a - b sqrt d| < denom  <=>  (a^2 + b^2 d - denom^2)^2 < 4 a^2 b^2 d
        t = e.a * e.a + e.b * e.b * d - e.denom * e.denom
        assert t * t < 4 * e.a * e.a * e.b * e.b * d


def test_norm_plus_one_side_values_not_rational_squares_spot():
    # whenever N(eps_d) = +1, none of 2(x+-1), 2d(x+-1) is a rational square
    for d in squarefree_numbers(120):
        fu = fundamental_unit(d)
        if fu.norm != 1:
            continue
        x = Fraction(fu.elem.a, fu.elem.denom)
        for val in (2 * (x + 1), 2 * (x - 1), 2 * d * (x + 1), 2 * d * (x - 1)):
            assert val.denominator == 1
            assert is_perfect_square(val.numerator) is None, (d, val)


def test_power_and_cube_identity():
    fu = fundamental_unit(5)
    cubed = fu.elem ** 3
    assert cubed == QuadElem(5, 2, 1)  # the minimal Z[sqrt5] unit
