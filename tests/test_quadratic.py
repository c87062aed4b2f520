import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from triquad import arith
from triquad.arith import PrimePair, is_perfect_square, squarefree_primes
from triquad.errors import TriquadError
from triquad.harness import valid_pairs
from triquad.quadratic import _cf_pell_unit, fundamental_unit

from oracles import (CASE_REPRESENTATIVES, brute_force_fundamental_unit,
                     cf_pell_unit_full_walk, chakravala_fundamental_unit,
                     squarefree_numbers, zsqrt_unit)

ROOT = Path(__file__).resolve().parent.parent


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


def _sparse_large_pairs(seed):
    """The pairs of the benchmark's sparse-large workload for a seed,
    loaded without a bytecode cache under perfbench/."""
    spec = importlib.util.spec_from_file_location(
        "sparse_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for its dataclasses
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
        del sys.modules[spec.name]
    return module.sample_sparse_pairs(seed, 64)


def _assert_half_period_matches_full_walk(radicands):
    norms = set()
    for d in radicands:
        unit = _cf_pell_unit(d)
        assert unit == cf_pell_unit_full_walk(d), d
        norms.add(unit[2])
    # norm -1 is the odd-period branch, +1 the even one
    assert norms == {1, -1}


def test_half_period_unit_is_the_full_walk_below_3000():
    radicands = squarefree_numbers(2999)
    assert 2 in radicands and 10 in radicands  # period 1, the k = 0 case
    _assert_half_period_matches_full_walk(radicands)


def test_half_period_unit_is_the_full_walk_on_the_acceptance_range():
    pairs = valid_pairs(1000, 500)
    assert len(pairs) == 925
    _assert_half_period_matches_full_walk(
        sorted({d for p, q in pairs for d in PrimePair(p, q).radicands}))


@pytest.mark.parametrize("seed", [1, 7, 841])
def test_half_period_unit_is_the_full_walk_on_sparse_large(seed):
    pairs = _sparse_large_pairs(seed)
    assert len(pairs) == 64
    _assert_half_period_matches_full_walk(
        [d for p, q in pairs for d in PrimePair(p, q).radicands])


def test_half_period_unit_past_the_bound_is_the_chakravala_unit():
    # 2pq = 1,001,604,254: long periods, past the default bound
    for d in PrimePair(31649, 15823).radicands:
        x, y, denom, norm = chakravala_fundamental_unit(d)
        assert denom == 1 and fundamental_unit(d) == (x, y, norm), d


def test_radicand_primes_spare_trial_division_and_agree_with_it(monkeypatch):
    pair = PrimePair(3313, 967)
    expected = [fundamental_unit(d) for d in pair.radicands]
    calls = []
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or [])
    got = [fundamental_unit.__wrapped__(d, primes)
           for d, primes in zip(pair.radicands, pair.radicand_primes)]
    assert got == expected and calls == []
    assert [squarefree_primes(d, primes) for d, primes
            in zip(pair.radicands, pair.radicand_primes)] == [
        [2], [3313], [967], [2, 3313], [2, 967], [967, 3313], [2, 967, 3313]]


def test_primes_that_are_not_those_of_the_radicand_are_refused():
    for d, primes in ((15, (3, 7)), (15, (3,)), (9, (3, 3)), (12, (2, 2, 3)),
                      (2 * 17 * 7, (2, 17)), (1, ()), (0, ())):
        with pytest.raises(TriquadError, match="distinct primes"):
            squarefree_primes(d, primes)
        with pytest.raises(TriquadError):
            fundamental_unit(d, primes)
