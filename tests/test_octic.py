import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from triquad import arith, octic
from triquad.arith import PrimePair, is_prime
from triquad.errors import TriquadError
from triquad.octic import (TAU1, TAU2, TAU3, OcticElem, _branch_prime,
                           apply_automorphism, embed_quadratic,
                           norm_to_subfield, octic_mul, octic_prod,
                           radical_mask, rational_norm, sqrt_exact)
from triquad.quadratic import fundamental_unit
from triquad.unit_lattice import UnitContext

from oracles import (IDENTITY, coords, legendre_by_enumeration, num_den,
                     real_embeddings, sign_vector, sqrt_in_field)

PAIR = PrimePair(17, 7)
ZERO = OcticElem(PAIR, [0] * 8)


def O(d, pair=PAIR):
    return OcticElem(pair, *num_den(d.get(m, 0) for m in range(8)))


def coords_strategy():
    fr = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return st.tuples(*[fr] * 8).map(lambda t: OcticElem(PAIR, *num_den(t)))


def add(x, y):
    return OcticElem(PAIR, *num_den(a + b for a, b in zip(coords(x), coords(y))))


def test_embed_quadratic_examples():
    assert embed_quadratic(2, 1, 1, PAIR) == O({0: 1, 1: 1})
    assert embed_quadratic(34, 35, 6, PAIR) == O({0: 35, 3: 6})
    # sqrt(n) = s * sqrt(prod mask): sqrt(4 * 17 * 7 * 9) = 6 sqrt(pq)
    assert radical_mask(2, PAIR) == (1, 1)
    assert radical_mask(4 * 17 * 7 * 9, PAIR) == (6, 6)
    assert radical_mask(8 * 17 ** 3, PAIR) == (34, 3)


def test_embed_quadratic_rejects_foreign_radicand():
    with pytest.raises(TriquadError):
        embed_quadratic(34, 35, 6, PrimePair(41, 7))
    with pytest.raises(TriquadError):
        embed_quadratic(3, 2, 1, PAIR)
    for n in (0, -2, 3 * 17, 2 * 7 * 5):
        with pytest.raises(TriquadError):
            radical_mask(n, PAIR)


def test_octic_mul_examples():
    r2 = O({1: 1})
    r2p = O({3: 1})
    assert octic_mul(r2, r2p) == O({2: 2})          # sqrt2 * sqrt2p = 2 sqrtp
    rp, rq = O({2: 1}), O({4: 1})
    assert octic_mul(rp, rq) == O({6: 1})           # sqrtp * sqrtq = sqrt(pq)
    e2 = O({0: 1, 1: 1})
    e2bar = O({0: 1, 1: -1})
    assert octic_mul(e2, e2bar) == O({0: -1})


def test_apply_automorphism_examples():
    r2q = O({5: 1})
    assert apply_automorphism(TAU1, r2q) == O({5: -1})
    rpq = O({6: 1})
    assert apply_automorphism(TAU2 ^ TAU3, rpq) == O({6: 1})
    x = O({0: 3, 5: Fraction(1, 2), 7: -2})
    assert apply_automorphism(IDENTITY, x) == x


@settings(max_examples=50)
@given(coords_strategy(), coords_strategy())
def test_mul_commutative(x, y):
    assert octic_mul(x, y) == octic_mul(y, x)


@settings(max_examples=25)
@given(coords_strategy(), coords_strategy(), coords_strategy())
def test_mul_associative_distributive(x, y, z):
    assert octic_mul(octic_mul(x, y), z) == octic_mul(x, octic_mul(y, z))
    assert octic_mul(x, add(y, z)) == add(octic_mul(x, y), octic_mul(x, z))


@settings(max_examples=40)
@given(coords_strategy(), coords_strategy(),
       st.sampled_from([TAU1, TAU2, TAU3, TAU1 ^ TAU2, TAU2 ^ TAU3, TAU1 ^ TAU3]))
def test_automorphism_ring_homomorphism(x, y, sigma):
    assert (apply_automorphism(sigma, octic_mul(x, y))
            == octic_mul(apply_automorphism(sigma, x), apply_automorphism(sigma, y)))


def test_automorphism_group_structure():
    sigmas = {a ^ b ^ c for a in (IDENTITY, TAU1) for b in (IDENTITY, TAU2)
              for c in (IDENTITY, TAU3)}
    assert len(sigmas) == 8
    assert TAU1 ^ TAU1 == IDENTITY
    radicals = O({1: 1, 2: 1, 4: 1})
    assert apply_automorphism(TAU1 ^ TAU2 ^ TAU3, radicals) == -radicals


def test_str_and_repr_render_coordinates_in_lowest_terms():
    root = sqrt_exact(UnitContext(PAIR).units["eq"])  # the README example
    assert str(root) == "3/2*sqrt(2) + 1/2*sqrt(2q)"
    assert repr(root) == "OcticElem(PrimePair(p=17, q=7), [0, 3/2, 0, 0, 0, 1/2, 0, 0])"
    x = O({0: Fraction(-6, 4), 3: 2, 7: Fraction(5, 6)})
    assert str(x) == "-3/2 + 2*sqrt(2p) + 5/6*sqrt(2pq)"
    assert str(ZERO) == "0"


def test_norm_to_subfield_examples():
    ctx = UnitContext(PAIR)
    root_eq = sqrt_exact(ctx.units["eq"])
    assert norm_to_subfield(TAU1, root_eq) == -ctx.units["eq"]
    e2 = O({0: 1, 1: 1})
    assert norm_to_subfield(TAU1, e2) == O({0: -1})
    with pytest.raises(TriquadError):
        norm_to_subfield(IDENTITY, e2)


@settings(max_examples=30)
@given(coords_strategy(), st.sampled_from([TAU1, TAU2, TAU3, TAU1 ^ TAU3]))
def test_norm_to_subfield_fixed_by_sigma(x, sigma):
    n = norm_to_subfield(sigma, x)
    assert apply_automorphism(sigma, n) == n


def test_real_embeddings_examples():
    one = OcticElem.one(PAIR)
    for lo, hi in real_embeddings(one, 64):
        assert lo <= 1 <= hi
    r2 = O({1: 1})
    embs = real_embeddings(r2, 128)
    pos = [i for i, (lo, hi) in enumerate(embs) if lo > 0]
    assert pos == [0, 1, 2, 3]  # sqrt2 positive on the first four embeddings
    for lo, hi in embs:
        assert hi - lo <= Fraction(1, 2 ** 64)
    x7, y7, _ = fundamental_unit(7)
    e7 = embed_quadratic(7, x7, y7, PAIR)
    assert all(lo > 0 for lo, _ in real_embeddings(e7, 64))


def test_real_embeddings_width_contract():
    x = O({0: Fraction(10 ** 30), 7: Fraction(-1, 16)})
    for prec in (64, 128, 256):
        for lo, hi in real_embeddings(x, prec):
            assert hi - lo <= Fraction(1, 2 ** (prec // 2))
    with pytest.raises(TriquadError):
        real_embeddings(x, 32)


def test_sign_vector_and_rational_norm():
    ctx = UnitContext(PAIR)
    assert sign_vector(ctx.units["eq"]) == (1,) * 8  # totally positive
    sv = sign_vector(ctx.units["e2"])
    assert sv[0] == 1 and -1 in sv
    for uid in ("e2", "ep", "eq", "e2pq"):
        assert rational_norm(ctx.units[uid]) in ((1, 1), (-1, 1))


def test_powers_and_products_match_repeated_multiplication():
    u = UnitContext(PAIR).units["e2p"]
    one = OcticElem.one(PAIR)
    assert u ** 0 == octic_prod(PAIR, []) == one
    power = one
    for n in range(1, 7):
        power = octic_mul(power, u)
        assert u ** n == octic_prod(PAIR, [u] * n) == power


def test_one_and_zero_from_an_element_take_its_checked_pair(monkeypatch):
    pair = PrimePair(977, 487)
    one, zero = OcticElem.one(pair), OcticElem(pair, [0] * 8)
    u = UnitContext(pair).units["e2p"]
    calls = []
    prove = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or prove(n))
    powers = [u ** 0 for _ in range(5)]
    root = sqrt_exact(zero)
    assert calls == []
    assert powers == [one] * 5 and root == zero
    assert all(x.pair is pair for x in (*powers, root))


def test_negative_powers_are_refused():
    u = UnitContext(PAIR).units["e2p"]
    for n in (-1, -2, -7):
        with pytest.raises(TriquadError, match="negative power"):
            u ** n


def test_elements_take_a_prime_pair_and_8_ints_over_a_positive_int():
    one = [1] + [0] * 7
    for pair in ((17, 7), (11, 19)):  # a raw tuple, and one off the family
        for make in (lambda: OcticElem(pair, one), lambda: OcticElem.one(pair),
                     lambda: radical_mask(2, pair),
                     lambda: embed_quadratic(2, 1, 1, pair)):
            with pytest.raises(TriquadError, match="PrimePair"):
                make()
    for num, den in ((one[:7], 1), (one, 0), (one, -2)):
        with pytest.raises(TriquadError, match="8 coordinates over a positive"):
            OcticElem(PAIR, num, den)


def test_sqrt_in_field_examples():
    ctx = UnitContext(PAIR)
    root = sqrt_in_field(ctx.units["eq"])
    assert root == O({1: Fraction(3, 2), 5: Fraction(1, 2)})
    assert sqrt_in_field(ctx.units["e2"]) is None  # not totally positive
    root119 = sqrt_in_field(ctx.units["epq"])
    assert root119 == O({1: Fraction(11, 2), 7: Fraction(1, 2)})
    assert octic_mul(root119, root119) == ctx.units["epq"]


def test_sqrt_in_field_rejects_zero():
    with pytest.raises(TriquadError):
        sqrt_in_field(ZERO)


def test_sqrt_roundtrip_small_denominators():
    rng = random.Random(0xC0FFEE)
    done = 0
    while done < 50:
        coords = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4)))
                       for _ in range(8))
        xi = OcticElem(PAIR, *num_den(coords))
        if xi.is_zero:
            continue
        sq = octic_mul(xi, xi)
        got = sqrt_exact(sq)
        assert got is not None and got in (xi, -xi)
        done += 1


def test_sqrt_engines_agree():
    ctx = UnitContext(PAIR)
    rng = random.Random(7)
    ids = list(ctx.units)
    for _ in range(20):
        x = OcticElem.one(PAIR)
        for uid in ids:
            if rng.random() < 0.4:
                x = octic_mul(x, ctx.units[uid])
        if x.is_zero:
            continue
        a = sqrt_exact(x)
        b = sqrt_in_field(x)
        assert a == b


def test_sqrt_exact_soundness_random_rationals():
    rng = random.Random(99)
    for _ in range(30):
        coords = tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
                       for _ in range(8))
        x = OcticElem(PAIR, *num_den(coords))
        if x.is_zero:
            continue
        r = sqrt_exact(x)
        if r is not None:
            assert octic_mul(r, r) == x


@settings(max_examples=50)
@given(st.sampled_from([2, 7, 17, 14, 34, 119, 238]),
       st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-40, 40), st.integers(-40, 40))
def test_embed_is_ring_homomorphism(d, a1, b1, a2, b2):
    # (a1 + b1 sqrt d)(a2 + b2 sqrt d) on int pairs
    a, b = a1 * a2 + d * b1 * b2, a1 * b2 + a2 * b1
    assert (embed_quadratic(d, a, b, PAIR)
            == octic_mul(embed_quadratic(d, a1, b1, PAIR),
                         embed_quadratic(d, a2, b2, PAIR)))


@settings(max_examples=40)
@given(st.sampled_from([2, 7, 17, 34, 119]),
       st.integers(-20, 20), st.integers(-20, 20))
def test_octic_norm_is_fourth_power_of_quad_norm(d, a, b):
    n = a * a - d * b * b
    if n == 0:
        return
    assert rational_norm(embed_quadratic(d, a, b, PAIR)) == (n ** 4, 1)


# -- the character-chosen branch of the tower descent ------------------------

# the branch primes of (41, 31) are 5, 3 and 7 for the levels of sqrt2, sqrt41
# and sqrt31: small enough for sqrt_in_field's denominator bound of 16
BRANCH_KEY = PrimePair(41, 31)
BRANCH_DENOMINATORS = (1, 2, 3, 5, 7, 15)


def branch_elements():
    fr = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(BRANCH_DENOMINATORS))
    return st.tuples(*[fr] * 8).map(lambda t: OcticElem(BRANCH_KEY, *num_den(t)))


def _branch(coords):
    return OcticElem(BRANCH_KEY, *num_den(coords))


@pytest.mark.parametrize("key", [PAIR, BRANCH_KEY, PrimePair(97, 127),
                                 PrimePair(41, 23)])
def test_branch_prime_is_the_first_with_the_level_symbols(key):
    rads = (2, *key)
    for bit in range(3):
        l, roots = _branch_prime(key, bit)

        def fits(n):
            return (all(r % n for r in rads)
                    and legendre_by_enumeration(rads[bit], n) == -1
                    and all(legendre_by_enumeration(rads[b], n) == 1
                            for b in range(bit + 1, 3)))

        assert l == next(n for n in itertools.count(3, 2) if is_prime(n) and fits(n))
        for m in range(8):
            if m >> bit & 1:
                assert roots[m] is None
            elif not m & ((1 << bit) - 1):
                prod = 1
                for b in range(3):
                    if m >> b & 1:
                        prod *= rads[b]
                assert (roots[m] ** 2 - prod) % l == 0


@settings(max_examples=60)
@given(branch_elements(), st.integers(1, 7))
# denominators divisible by each branch prime, where a candidate's character
# is undefined and both candidates are descended
@example(_branch((Fraction(1, 5), 1, Fraction(2, 3), 1, 0, Fraction(1, 7), 1, 0)), 1)
@example(_branch((1, Fraction(1, 15), 0, Fraction(3, 7), 2, 0, Fraction(1, 3), 1)), 6)
@example(_branch((Fraction(2, 7), 0, 1, Fraction(1, 5), Fraction(1, 3), 1, 0, 0)), 7)
def test_sqrt_exact_finds_squares_and_rejects_radical_multiples(y, mask):
    assume(not y.is_zero)
    x = octic_mul(y, y)
    root = sqrt_exact(x)
    assert root in (y, -y)
    assert root == sqrt_in_field(x)
    tx = octic_mul(O({mask: 1}, BRANCH_KEY), x)
    assert sqrt_exact(tx) is None
    assert sqrt_in_field(tx) is None


def test_sqrt_exact_b_zero_branch_takes_a_or_a_over_t():
    c = O({0: 1, 2: 1, 4: 1})                      # 1 + sqrt17 + sqrt7
    c2 = octic_mul(c, c)
    two_c2 = octic_mul(O({0: 2}), c2)
    # a and a/t = a/2 have opposite characters at the branch prime of sqrt2
    l, roots = _branch_prime(PAIR, 0)

    def symbol(z):
        image = sum(f.numerator * roots[m] * pow(f.denominator, -1, l)
                    for m, f in enumerate(coords(z)) if f)
        return legendre_by_enumeration(image, l)

    assert symbol(two_c2) == -1 and symbol(c2) == 1
    assert sqrt_exact(c2) in (c, -c)               # c^2 = a
    r2c = octic_mul(O({1: 1}), c)                  # d^2 = a/2, root sqrt2 * c
    assert sqrt_exact(two_c2) in (r2c, -r2c)
    assert sqrt_exact(octic_mul(O({0: 3}), c2)) is None
    assert sqrt_exact(O({0: 17})) == O({2: 1})
    assert sqrt_exact(O({0: 34})) == O({3: 1})
    assert sqrt_exact(O({0: 119, 6: 2})) is None


def test_sqrt_tower_descends_one_candidate_per_level(monkeypatch):
    calls = []
    descend = octic._sqrt_tower

    def counted(num, den, levels):
        calls.append(len(levels))
        return descend(num, den, levels)

    monkeypatch.setattr(octic, "_sqrt_tower", counted)
    for coords in ((1,) * 8, (3, 1, -2, 1, 1, 5, 1, 2)):
        y = O(dict(enumerate(coords)))
        calls.clear()
        assert sqrt_exact(octic_mul(y, y)) in (y, -y)
        # every level descends its norm a^2 - t b^2 and one candidate, so
        # the three levels make 1 + 2 * (1 + 2 * (1 + 2)) = 15 descents
        assert len(calls) == 15
