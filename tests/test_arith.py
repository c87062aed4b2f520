import itertools
import math

import pytest
from hypothesis import given, strategies as st

from triquad import arith
from triquad.arith import (PrimePair, f2_eliminate, is_perfect_square, is_prime,
                           primes_in_range, ratio_str, symbol_primes)
from triquad.errors import TriquadError

from oracles import legendre_by_enumeration


def test_perfect_square_examples():
    assert is_perfect_square(1225) == 35
    assert is_perfect_square(0) == 0
    assert is_perfect_square(121) == 11
    assert is_perfect_square(2) is None
    assert is_perfect_square(1224) is None


def test_perfect_square_rejects_negative():
    with pytest.raises(ValueError):
        is_perfect_square(-4)


def test_perfect_square_exhaustive_to_1e6():
    for n in range(10 ** 6 + 1):
        r = math.isqrt(n)
        expected = r if r * r == n else None
        assert is_perfect_square(n) == expected


@given(st.integers(min_value=0, max_value=10 ** 40))
def test_perfect_square_of_square(r):
    assert is_perfect_square(r * r) == r


def test_sqrt_table_is_the_least_root_below_1000():
    for l in primes_in_range(1000, 1, 2)[1:]:
        table = arith.sqrt_table(l)
        assert len(table) == l
        for v in range(l):
            roots = [r for r in range(1, (l + 1) // 2) if r * r % l == v]
            assert table[v] == (roots[0] if roots else 0), (l, v)


def test_sqrt_table_past_two_byte_roots():
    l = 131101  # the least prime above 2^17: roots up to 65550
    assert arith.is_prime(l) and all(arith.is_prime(k) is False for k in range(1 << 17, l))
    table = arith.sqrt_table(l)
    for r in (1, 2, 65535, 65536, 65550):
        assert table[r * r % l] == r
    assert table[2] == 0 and legendre_by_enumeration(2, l) == -1


def _symbol_primes_by_enumeration(radicals, symbols, count):
    """The first `count` primes, by trial division, at which the symbols of
    the radicals, by enumeration of the squares, are the prescribed ones."""
    out = []
    l = 2
    while len(out) < count:
        l += 1
        if any(l % k == 0 for k in range(2, math.isqrt(l) + 1)):
            continue
        found = [legendre_by_enumeration(a, l) for a in radicals]
        if 0 not in found and all(s in (None, f) for s, f in zip(symbols, found)):
            out.append(l)
    return out


def _assert_symbol_primes(radicals, symbols, count):
    got = symbol_primes(radicals, symbols, count)
    assert [l for l, _ in got] == _symbol_primes_by_enumeration(radicals, symbols, count)
    for l, roots in got:
        for mask in range(1 << len(radicals)):
            chosen = [a for i, a in enumerate(radicals) if mask >> i & 1]
            if any(legendre_by_enumeration(a, l) == -1 for a in chosen):
                assert roots[mask] is None, (l, mask)
            else:
                assert (roots[mask] ** 2 - math.prod(chosen)) % l == 0, (l, mask)
    return got


@pytest.mark.parametrize("p,q", [(17, 7), (41, 23), (113, 439), (3313, 967)])
def test_symbol_primes_match_a_brute_force_referee_for_every_pattern(p, q):
    for symbols in itertools.product((1, -1, None), repeat=3):
        _assert_symbol_primes((2, p, q), symbols, 3)


def test_symbol_primes_past_the_first_prime_table_bound():
    got = _assert_symbol_primes((2, 17, 7), (1, 1, 1), 40)
    assert got[-1][0] > arith._PRIME_TABLE_BOUND


def test_symbol_primes_skip_primes_dividing_a_radical():
    # 3, 5, 7, 11 and 13 divide a radical, so no symbol exists there
    for symbols in ((None, None, None), (1, -1, None), (-1, 1, 1)):
        got = _assert_symbol_primes((2, 3 * 5 * 7, 11 * 13), symbols, 4)
        assert all(l > 13 for l, _ in got)


def test_ratio_str_renders_past_the_str_digit_limit():
    # str(int) refuses more than 4,300 digits by default
    n = 10 ** 5000 + 1  # 2 mod 3, so n/3 is in lowest terms
    assert ratio_str(n, 3) == "1" + "0" * 4999 + "1/3"
    assert ratio_str(-3 * n, 3) == "-1" + "0" * 4999 + "1"
    assert ratio_str(7, 10 ** 5000) == "7/1" + "0" * 5000


def test_is_prime_examples():
    assert is_prime(7)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number


def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % k for k in range(2, math.isqrt(n) + 1))

    for n in range(5000):
        assert is_prime(n) == trial(n)


# psi_12, the least strong pseudoprime to all twelve bases 2..37
# (Sorenson and Webster, Math. Comp. 86, 2017)
PSI_12 = 318665857834031151167461


def test_is_prime_never_reports_psi_12_prime():
    assert PSI_12 == 399165290221 * 798330580441
    # it passes the strong test to every one of the twelve bases
    d, s = PSI_12 - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, PSI_12)
        assert x in (1, PSI_12 - 1) or any(
            pow(x, 2 ** r, PSI_12) == PSI_12 - 1 for r in range(1, s))
    for n in (PSI_12, PSI_12 + 2, 2 ** 89 - 1):
        with pytest.raises(TriquadError, match="not proved"):
            is_prime(n)
    assert not is_prime(PSI_12 - 1)  # below the bound it answers


def test_is_prime_large_witness_cases():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_prime_pair_validation():
    PrimePair(17, 7)
    PrimePair(41, 23)
    with pytest.raises(TriquadError):
        PrimePair(7, 17)       # p = 7 is 7 mod 8
    with pytest.raises(TriquadError):
        PrimePair(17, 3)       # q = 3 is 3 mod 8
    with pytest.raises(TriquadError):
        PrimePair(15, 7)       # composite p
    with pytest.raises(TriquadError):
        PrimePair(17, 17)


def test_prime_pair_radicands():
    pair = PrimePair(17, 7)
    assert pair.radicands == (2, 17, 7, 34, 14, 119, 238)
    assert pair.legendre_pq == -1


def test_legendre_pq_is_the_symbol_by_enumeration_on_the_scan_dense_range():
    pairs = [(p, q) for p in primes_in_range(300, 1, 8) for q in primes_in_range(200, 7, 8)]
    assert len(pairs) == 144
    for p, q in pairs:
        assert PrimePair(p, q).legendre_pq == legendre_by_enumeration(p, q), (p, q)


def _xor_of(rows, v):
    acc = 0
    for i, row in enumerate(rows):
        if v >> i & 1:
            acc ^= row
    return acc


def _span(vectors):
    span = {0}
    for v in vectors:
        span |= {w ^ v for w in span}
    return span


@given(st.lists(st.integers(0, (1 << 6) - 1), max_size=9))
def test_f2_eliminate_splits_the_rows_into_rank_and_left_kernel(rows):
    basis, kernel = f2_eliminate(rows)
    assert len(basis) + len(kernel) == len(rows)
    assert _span(basis) == _span(rows)
    assert len(_span(basis)) == 1 << len(basis)  # independent: the rank
    for v in kernel:
        assert _xor_of(rows, v) == 0
    assert len(_span(kernel)) == 1 << len(kernel)  # independent
