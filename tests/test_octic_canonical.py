"""The integer-coordinate form of OcticElem: canonical form, immutability,
flip-mask automorphisms, the tower-norm inverse and the exact embedding signs,
each checked against the Fraction-coordinate formulas in tests/oracles.py."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (CASE_REPRESENTATIVES, conjugate_product_inverse,
                     conjugate_product_norm, coord_bit_size, coords,
                     fraction_embedding_interval, num_den, scale,
                     sign_vector, verified_context)
from triquad import octic
from triquad.arith import PrimePair
from triquad.errors import TriquadError
from triquad.octic import (TAU1, TAU2, TAU3, OcticElem, _radicals,
                           _tower_norm, apply_automorphism, embed_quadratic,
                           embedding_sign, octic_mul, rational_norm,
                           sqrt_exact)
from triquad.quadratic import fundamental_unit

KEY = PrimePair(17, 7)
PAIRS = [KEY, PrimePair(977, 487)]

# subfields of K as basis supports: Q, the 7 quadratic fields, the 7
# biquadratic fields, and K itself
QUADRATIC = [frozenset({0, m}) for m in range(1, 8)]
BIQUADRATIC = sorted({frozenset({0, a, b, a ^ b}) for a in range(1, 8)
                      for b in range(1, 8) if a != b}, key=sorted)
SUPPORTS = [frozenset({0})] + QUADRATIC + BIQUADRATIC + [frozenset(range(8))]


def elements():
    fr = st.fractions(min_value=-30, max_value=30, max_denominator=12)

    def build(args):
        pair, support, values = args
        return OcticElem(pair, *num_den(values[m] if m in support else 0
                                        for m in range(8)))

    return st.tuples(st.sampled_from(PAIRS), st.sampled_from(SUPPORTS),
                     st.lists(fr, min_size=8, max_size=8)).map(build)


def nonzero_elements():
    return elements().filter(lambda x: not x.is_zero)


def is_canonical(x: OcticElem) -> bool:
    return (x.den > 0 and math.gcd(x.den, *x.num) == 1
            and all(type(n) is int for n in x.num) and type(x.den) is int
            and (any(x.num) or x.den == 1))


def old_coord_bit_size(x: OcticElem) -> int:
    b = 1
    for c in coords(x):
        if c != 0:
            b = max(b, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return b


# -- canonical form ----------------------------------------------------------

@settings(max_examples=60)
@given(elements(), elements())
def test_results_are_canonical(x, y):
    if x.pair != y.pair:
        y = OcticElem(x.pair, y.num, y.den)
    zero = OcticElem(x.pair, [0] * 8, x.den)
    for z in (x, y, -x, octic_mul(x, y), scale(x, Fraction(-3, 4)),
              OcticElem(x.pair, [6 * n for n in x.num], 4 * x.den), zero):
        assert is_canonical(z), z
    assert zero.den == 1
    root = sqrt_exact(octic_mul(x, x))
    assert root is not None and is_canonical(root)


@settings(max_examples=60)
@given(elements())
def test_coords_round_trip_and_bit_size_never_shrinks(x):
    assert OcticElem(x.pair, *num_den(coords(x))) == x
    assert x.den == math.lcm(*(c.denominator for c in coords(x)))
    assert coord_bit_size(x) >= old_coord_bit_size(x)


def test_different_spellings_are_equal_and_hash_alike():
    half = OcticElem(KEY, [1] + [0] * 7, 2)
    spellings = [OcticElem(KEY, [2] + [0] * 7, 4),
                 -OcticElem(KEY, (-5, 0, 0, 0, 0, 0, 0, 0), 10),
                 scale(OcticElem.one(KEY), Fraction(4, 8))]
    for x in spellings:
        assert x == half and hash(x) == hash(half)
        assert (x.num, x.den) == ((1, 0, 0, 0, 0, 0, 0, 0), 2)
    two = OcticElem(KEY, [6, 0, 0, 0, 0, 0, 0, 6], 3)
    assert two == OcticElem(KEY, [2, 0, 0, 0, 0, 0, 0, 2])
    assert (two.num, two.den) == ((2, 0, 0, 0, 0, 0, 0, 2), 1)
    mixed = OcticElem(KEY, [4, 18, 0, 0, 0, 0, 0, 0], 24)
    assert (mixed.num, mixed.den) == ((2, 9, 0, 0, 0, 0, 0, 0), 12)
    zero = OcticElem(KEY, [0] * 8, 5)
    assert zero == OcticElem(KEY, [0] * 8) and zero.den == 1
    assert hash(zero) == hash(OcticElem(KEY, [0] * 8))


def test_equality_separates_pairs_and_other_types():
    assert OcticElem.one(KEY) != OcticElem.one(PrimePair(41, 7))
    assert OcticElem.one(KEY) != (KEY, (1, 0, 0, 0, 0, 0, 0, 0), 1)
    assert OcticElem.one(KEY) != 1


@settings(max_examples=30)
@given(elements())
def test_pickle_round_trip(x):
    y = pickle.loads(pickle.dumps(x))
    assert y == x and hash(y) == hash(x) and is_canonical(y)
    assert octic_mul(y, y) == octic_mul(x, x)


def test_elements_are_immutable():
    x = OcticElem(KEY, [6, 0, 0, 0, 0, 1, 0, 0], 2)
    for name, value in (("den", 5), ("num", (0,) * 8), ("pair", (41, 7)),
                        ("coords", ()), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    with pytest.raises(AttributeError):
        del x.den
    assert x == OcticElem(KEY, [6, 0, 0, 0, 0, 1, 0, 0], 2)


# -- flip masks ----------------------------------------------------------------

def test_automorphism_masks():
    # TAU1, TAU2, TAU3 flip sqrt2, sqrtp, sqrtq: bits 0, 1, 2 of the mask
    assert (TAU1, TAU2, TAU3) == (1, 2, 4)
    x = OcticElem(KEY, range(1, 9))
    for i in range(8):
        assert apply_automorphism(i, x).num == tuple(
            -n if bin(i & m).count("1") % 2 else n for m, n in enumerate(x.num))


def mask_automorphism(i: int) -> int:
    # embedding i negates sqrt2 with bit 2 of i and sqrtq with bit 0
    return (i >> 2 & 1) | (i & 2) | (i & 1) << 2


# -- the tower-norm inverse against the conjugate products ----------------------

def tower_inverse(x: OcticElem) -> OcticElem:
    """x^-1 = acc * den / n from the tower norm num * acc = n, the cofactor
    that the square-root descent divides by."""
    acc, n, _ = _tower_norm(x.num, _radicals(x.pair))
    return OcticElem(x.pair, *num_den(Fraction(c * x.den, n) for c in acc))


@settings(max_examples=80)
@given(nonzero_elements())
def test_inverse_matches_the_seven_conjugate_product(x):
    inv = tower_inverse(x)
    assert coords(inv) == conjugate_product_inverse(x)
    assert octic_mul(x, inv) == OcticElem.one(x.pair)


@settings(max_examples=80)
@given(nonzero_elements())
def test_rational_norm_matches_the_eight_conjugate_product(x):
    assert rational_norm(x) == as_pair(conjugate_product_norm(x))


def test_rational_norm_descends_norms_only(monkeypatch):
    # a generic element: all 8 coordinates nonzero, so every level has b != 0
    x = OcticElem(KEY, *num_den(Fraction(3 * m + 1, m + 2) for m in range(8)))
    products = []
    real = octic._mul
    monkeypatch.setattr(octic, "_mul", lambda *args: products.append(args) or real(*args))
    norm = rational_norm(x)
    assert products == []
    assert norm == as_pair(conjugate_product_norm(x))


@pytest.mark.parametrize("support", [frozenset({0})] + QUADRATIC + BIQUADRATIC,
                         ids=lambda s: "".join(map(str, sorted(s))))
def test_subfield_inverses_stay_in_the_subfield(support):
    x = OcticElem(KEY, *num_den(Fraction(m + 2, 3) if m in support else 0
                                for m in range(8)))
    # one relative norm per halving of the degree: 0, 1 or 2 conjugates
    assert _tower_norm(x.num, _radicals(KEY))[2] == len(support).bit_length() - 1
    inv = tower_inverse(x)
    assert inv.support() <= support
    assert coords(inv) == conjugate_product_inverse(x)
    assert rational_norm(x) == as_pair(conjugate_product_norm(x))


def as_pair(v: Fraction) -> tuple[int, int]:
    return v.numerator, v.denominator


# -- exact embedding signs -------------------------------------------------------

@settings(max_examples=80)
@given(nonzero_elements(), st.sampled_from([8, 40, 130]))
def test_signs_agree_with_every_enclosure_that_excludes_zero(x, bits):
    signs = sign_vector(x)
    assert all(s in (1, -1) for s in signs)
    for emb in range(8):
        assert embedding_sign(x, emb) == signs[emb]
        lo, hi = fraction_embedding_interval(x, emb, bits)
        if lo > 0:
            assert signs[emb] == 1
        elif hi < 0:
            assert signs[emb] == -1


@settings(max_examples=100)
@given(nonzero_elements())
def test_first_embedding_sign_is_the_first_of_the_sign_vector(x):
    assert embedding_sign(x, 0) == sign_vector(x)[0]
    assert embedding_sign(-x, 0) == -sign_vector(x)[0]


@pytest.mark.parametrize("p,q", [(p, q) for p, q, _, _ in CASE_REPRESENTATIVES])
def test_first_embedding_sign_of_every_root_of_a_representative(p, q):
    # the roots of the base units, and every root the stages of the pair's
    # verification hold in its memo; sqrt_exact makes each positive at
    # embedding 0
    ctx = verified_context(PrimePair(p, q))
    roots = [y for y in map(sqrt_exact, ctx.units.values()) if y is not None]
    assert len(roots) >= 4
    roots += [y for y in ctx.sqrts.values() if y is not None and not y.is_zero]
    for y in roots:
        assert embedding_sign(y, 0) == sign_vector(y)[0] == 1
        assert embedding_sign(-y, 0) == sign_vector(-y)[0] == -1


@settings(max_examples=60)
@given(nonzero_elements(), nonzero_elements())
def test_signs_are_multiplicative(x, y):
    y = OcticElem(x.pair, y.num, y.den)
    assert sign_vector(octic_mul(x, y)) == tuple(
        s * t for s, t in zip(sign_vector(x), sign_vector(y)))


@settings(max_examples=60)
@given(nonzero_elements())
def test_embedding_i_is_the_first_embedding_of_its_conjugate(x):
    signs = sign_vector(x)
    for i in range(8):
        assert signs[i] == embedding_sign(apply_automorphism(mask_automorphism(i), x), 0)


@pytest.mark.parametrize("pair, mask, k", [(KEY, 7, 70), (KEY, 1, 801),
                                           (PAIRS[1], 7, 2), (PAIRS[1], 2, 31)])
def test_signs_of_units_with_an_embedding_below_2_to_the_minus_1000(pair, mask, k):
    # eps^k = u + w sqrt(d) with u, w > 0, so u - w sqrt(d) = N(eps)^k / eps^k:
    # its sign is that of the norm, and |u - w sqrt(d)| < 1/u < 2^-1000
    d = math.prod(r for bit, r in enumerate((2, *pair)) if mask >> bit & 1)
    ux, uy, norm = fundamental_unit(d)
    eps = embed_quadratic(d, ux, uy, pair) ** k
    u, w = coords(eps)[0], coords(eps)[mask]
    assert u > 0 and w > 0 and u > 2 ** 1000
    x = OcticElem(pair, *num_den(u if m == 0 else -w if m == mask else 0
                                 for m in range(8)))
    expected = tuple(1 if (mask_automorphism(i) & mask).bit_count() & 1
                     else norm ** k for i in range(8))
    assert sign_vector(x) == expected and sign_vector(-x) == tuple(-s for s in expected)
    assert tuple(embedding_sign(x, i) for i in range(8)) == expected
    # the first precision of an interval loop started at 32 + size bits
    # cannot decide the tiny embedding
    lo, hi = fraction_embedding_interval(x, 0, 32 + coord_bit_size(x))
    assert lo <= 0 <= hi
    # the tiny embedding next to a unit of another subfield: x + eps' has
    # the sign of eps' there, and x - eps' the opposite
    other = embed_quadratic(pair[1], *fundamental_unit(pair[1])[:2], pair)
    for sign in (1, -1):
        y = OcticElem(pair, *num_den(a + sign * b for a, b in zip(coords(x), coords(other))))
        assert sign_vector(y)[0] == sign


def test_sign_of_zero_is_refused():
    for x in (OcticElem(KEY, [0] * 8), OcticElem(KEY, [0] * 8, 7)):
        with pytest.raises(TriquadError):
            sign_vector(x)
        with pytest.raises(TriquadError):
            embedding_sign(x, 3)
