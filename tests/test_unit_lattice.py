import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import triquad
from oracles import (CASE_REPRESENTATIVES, character_row_by_euler, coords,
                     legendre_by_enumeration, num_den, sqrt_in_field,
                     subfield_unit_words, unsieved_saturation,
                     verified_context)
from triquad import unit_lattice
from triquad.arith import PrimePair
from triquad.harness import record_json, scan_pairs, verify_pair
from triquad.errors import InternalInconsistencyError, TriquadError
from triquad.octic import OcticElem, octic_mul, rational_norm, sqrt_exact
from triquad.theorems import (ClassificationContext, classification_context,
                              classify_pair, unit_generators, unit_index)
from triquad.unit_lattice import (BASE_UNIT_IDS, NONTORSION_IDS, UnitContext,
                                  UnitWord, _character_row, _product_of,
                                  _square_candidates, k5_unit_index,
                                  quarter_determinant, rank_certificate,
                                  saturate, unit_context)

P17 = PrimePair(17, 7)
P41 = PrimePair(41, 7)
P89 = PrimePair(89, 7)     # (p/q) = -1, as are 17 and 41 over 7
P17_191 = PrimePair(17, 191)  # (p/q) = +1
K5_SUPPORT = frozenset({0, 0b100, 0b011, 0b111})
# one pair per case and norm branch
REPRESENTATIVES = [PrimePair(p, q) for p, q, _, _ in CASE_REPRESENTATIVES]
# an element for the words whose element no test reads
ONE = OcticElem.one(P17)


def prescribed_words(cc):
    """The prescribed system of the context's pair."""
    return unit_generators(classify_pair(cc), cc)


def test_word_canonicalization():
    w = UnitWord(quarters={"-1": 12, "e2": 2, "eq": 0}, elem=ONE)
    assert w.quarters == {"-1": 4, "e2": 2}
    assert UnitWord(quarters={"-1": -4}, elem=ONE).quarters == {"-1": 4}
    with pytest.raises(TriquadError):
        UnitWord(quarters={"-1": 2}, elem=ONE)
    with pytest.raises(TriquadError):
        UnitWord(quarters={"e2": Fraction(1, 2)}, elem=ONE)
    with pytest.raises(TriquadError):
        UnitWord(quarters={"bogus": 4}, elem=ONE)
    with pytest.raises(TriquadError, match="negative exponent"):
        UnitWord(quarters={"e2": 4, "ep": -2}, elem=ONE)
    with pytest.raises(TypeError):
        UnitWord({"e2": 4}, elem=ONE)  # exponents, not quarter counts
    with pytest.raises(TypeError):
        UnitWord(quarters={"e2": 4})  # a word is made with its element


RENDERED = {-6: "e2^-3/2", -5: "e2^-5/4", -4: "e2^-1", -3: "e2^-3/4",
            -2: "e2^-1/2", -1: "e2^-1/4", 0: "1", 1: "e2^1/4", 2: "e2^1/2",
            3: "e2^3/4", 4: "e2", 5: "e2^5/4", 6: "e2^3/2", 7: "e2^7/4",
            8: "e2^2"}


@pytest.mark.parametrize("count", range(-6, 9))
def test_render_writes_exponents_as_fractions(count):
    if count < 0:
        # no word has a negative count; the refusal names the exponent as
        # render would
        with pytest.raises(TriquadError) as refused:
            UnitWord(quarters={"e2": count}, elem=ONE)
        assert str(refused.value) == f"negative exponent in {RENDERED[count]}"
    else:
        assert UnitWord(quarters={"e2": count}, elem=ONE).render() == RENDERED[count]


def test_render_orders_the_base_units():
    w = UnitWord(quarters={"e2pq": 1, "-1": 4, "ep": 2, "eq": 8}, elem=ONE)
    assert w.render() == "-1 * ep^1/2 * eq^2 * e2pq^1/4"


def test_depth_counts_the_halvings():
    for counts, depth in (({}, 0), ({"-1": 4, "e2": 8}, 0), ({"e2": 6}, 1),
                          ({"e2": 4, "ep": 2}, 1), ({"e2": 3, "ep": 2}, 2)):
        assert UnitWord(quarters=counts, elem=ONE).depth == depth


def test_word_embed_examples():
    # the elements the library makes its words with: the units of the
    # context and the roots of the prescribed system
    cc = ClassificationContext(P17)
    assert cc.units["e2"] == OcticElem(P17, [1, 1, 0, 0, 0, 0, 0, 0])
    assert cc.units["-1"] == OcticElem(P17, [-1, 0, 0, 0, 0, 0, 0, 0])
    elems = {w.render(): w.elem for w in prescribed_words(cc)}
    assert elems["e2"] == cc.units["e2"]
    assert elems["eq^1/2"] == OcticElem(P17, [0, 3, 0, 0, 0, 1, 0, 0], 2)


def test_word_embed_unit_invariant():
    for pair in [P17] + REPRESENTATIVES:
        cc = ClassificationContext(pair)
        words = prescribed_words(cc)
        for e in list(cc.units.values()) + [w.elem for w in words]:
            assert rational_norm(e) in ((1, 1), (-1, 1))


def _base_unit_squares(pair):
    """The square candidates among products of -1 and the seven subfield
    units, each with the root sqrt_exact finds (None for a non-square)."""
    ctx = UnitContext(pair)
    elems = [ctx.units[uid] for uid in BASE_UNIT_IDS]
    return {v: sqrt_exact(_product_of(elems, v, ctx.pair))
            for v in _square_candidates([ctx.row(e) for e in elems])}, elems


def test_square_class_space_17_7():
    candidates, elems = _base_unit_squares(P17)
    ids = list(BASE_UNIT_IDS)
    vec_eq = 1 << ids.index("eq")
    vec_e2 = 1 << ids.index("e2")
    assert candidates[vec_eq] is not None   # sqrt(eps_q) lies in K
    assert vec_e2 not in candidates         # eps_2 is not totally positive
    for v, xi in candidates.items():
        if xi is not None:
            assert octic_mul(xi, xi) == _product_of(elems, v, (17, 7))


def test_square_class_space_41_7_k1_product():
    candidates, _ = _base_unit_squares(P41)
    ids = list(BASE_UNIT_IDS)
    v = (1 << ids.index("e2")) | (1 << ids.index("ep")) | (1 << ids.index("e2p"))
    assert candidates[v] is not None     # N(eps_2p) = -1: k1 product is a square


def _saturate_subfield_units(pair):
    ctx = UnitContext(pair)
    return saturate(ctx, subfield_unit_words(ctx))


def test_saturate_reference_values():
    assert _saturate_subfield_units(P17).m == 7
    assert _saturate_subfield_units(P41).m == 6


def test_saturation_word_deeper_than_two_is_inconsistent():
    # E_K^4 lies in the group of the subfield units, so no unit word needs
    # depth 3; a depth-2 word carrying a square (eps_2^2 as eps_2^(1/4))
    # would make saturation take eps_2^(1/8)
    ctx = UnitContext(P17)
    square = ctx.units["e2"] ** 2
    with pytest.raises(InternalInconsistencyError, match="depth above 2"):
        saturate(ctx, [UnitWord(quarters={"e2": 1}, elem=square)])


def test_saturate_returns_seven_verified_words():
    res = _saturate_subfield_units(P17)
    assert len(res.words) == 7
    for w in res.words:
        assert rational_norm(w.elem) in ((1, 1), (-1, 1))
        assert w.quarters  # non-trivial


def test_saturate_deterministic():
    a = _saturate_subfield_units(P17)
    b = _saturate_subfield_units(P17)
    assert a.m == b.m
    assert [w.quarters for w in a.words] == [w.quarters for w in b.words]
    assert [w.elem for w in a.words] == [w.elem for w in b.words]


def test_saturate_fixpoint_on_saturated_generators():
    ctx = UnitContext(P17)
    res = saturate(ctx, subfield_unit_words(ctx))
    again = saturate(ctx, list(res.words))
    assert again.m == 0


def test_k5_unit_index():
    assert k5_unit_index(UnitContext(P41)) == 1   # norm -1 branch
    assert k5_unit_index(UnitContext(P17)) == 2   # norm +1 branch


def test_rank_certificate_cases():
    ctx = UnitContext(P17)
    words = subfield_unit_words(ctx)
    assert rank_certificate(words, ctx)
    repeated = words[:6] + [words[0]]
    assert not rank_certificate(repeated, ctx)
    sat = saturate(ctx, subfield_unit_words(ctx))
    assert rank_certificate(sat.words, ctx)
    with pytest.raises(TriquadError):
        rank_certificate(words[:5], ctx)


def test_rank_certificate_rejects_a_wrong_element_on_a_right_word():
    cc = ClassificationContext(P17)
    words = prescribed_words(cc)
    assert rank_certificate(words, cc)
    w0 = words[0]
    wrong = octic_mul(w0.elem, cc.units["e2"])
    corrupted = UnitWord(quarters=w0.quarters, elem=wrong)
    assert not rank_certificate([corrupted] + words[1:], cc)


def test_rank_certificate_rejects_dependent_elements_on_independent_words():
    cc = ClassificationContext(P17)
    words = prescribed_words(cc)
    borrowed = UnitWord(quarters=words[0].quarters, elem=words[1].elem)
    assert not rank_certificate([borrowed] + words[1:], cc)


def _determinant_by_fractions(rows):
    """Gaussian elimination over the rationals, the textbook way."""
    rows = [[Fraction(c) for c in r] for r in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        piv = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det *= rows[k][k]
        for r in rows[k + 1:]:
            f = r[k] / rows[k][k]
            r[:] = [a - f * b for a, b in zip(r, rows[k])]
    return det


@settings(max_examples=200)
@given(st.lists(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 4, 6, 8]),
                         min_size=7, max_size=7), min_size=7, max_size=7))
def test_quarter_determinant_is_the_determinant_of_the_counts(rows):
    words = [UnitWord(quarters=dict(zip(NONTORSION_IDS, r)), elem=ONE) for r in rows]
    assert quarter_determinant(words) == _determinant_by_fractions(rows)


def test_verify_pair_does_not_import_mpmath():
    code = ("import sys\n"
            "from triquad.harness import verify_pair\n"
            "assert verify_pair(17, 7).status == 'verified'\n"
            "print('mpmath' in sys.modules)\n")
    src = str(Path(triquad.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_library_runs_without_importing_fractions():
    # without site-packages, so no third-party module can load it either
    code = ("import sys\n"
            "import triquad\n"
            "from triquad.harness import scan_json, scan_pairs, verify_pair\n"
            "assert verify_pair(17, 7).status == 'verified'\n"
            "assert scan_json(scan_pairs(41, 8))\n"
            "print('fractions' in sys.modules)\n")
    src = str(Path(triquad.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def _assert_same_saturation(res, reference):
    m, words, elems = reference
    assert res.m == m
    assert [w.render() for w in res.words] == [w.render() for w in words]
    assert [w.elem for w in res.words] == elems


@pytest.mark.parametrize("pair", [P17, P41])
def test_sieved_saturation_matches_unsieved_reference(pair):
    ctx = UnitContext(pair)
    _assert_same_saturation(saturate(ctx, subfield_unit_words(ctx)),
                            unsieved_saturation(ctx))


def test_sieved_k5_saturation_matches_unsieved_reference():
    for pair in [P89] + REPRESENTATIVES:
        ctx = UnitContext(pair)
        words = [UnitWord(quarters={uid: 4}, elem=ctx.units[uid])
                 for uid in ("eq", "e2p", "e2pq")]
        reference = unsieved_saturation(ctx, words, K5_SUPPORT)
        _assert_same_saturation(saturate(ctx, words, K5_SUPPORT), reference)
        assert k5_unit_index(ctx) == reference[0]


@pytest.mark.parametrize("pair", REPRESENTATIVES)
def test_sieved_seeded_saturation_matches_unsieved_reference(pair):
    # the generators of theorems.unit_index: the checked half-unit roots in
    # place of their units
    cc = ClassificationContext(pair)
    seeds = [UnitWord(quarters={uid: 2}, elem=cc.roots[uid]) if uid in cc.roots
             else UnitWord(quarters={uid: 4}, elem=cc.units[uid])
             for uid in unit_lattice.NONTORSION_IDS]
    k = sum(uid in cc.roots for uid in unit_lattice.NONTORSION_IDS)
    reference = unsieved_saturation(cc, seeds)
    _assert_same_saturation(saturate(cc, seeds, seed_index=k), reference)
    assert unit_index(cc) == k + reference[0]


@pytest.mark.parametrize("pair", REPRESENTATIVES)
def test_sieved_resaturation_matches_unsieved_reference(pair):
    cc = ClassificationContext(pair)
    words = prescribed_words(cc)
    reference = unsieved_saturation(cc, words)
    assert reference[0] == 0
    _assert_same_saturation(saturate(cc, words), reference)


@pytest.mark.parametrize("pair", [P17, P17_191])
def test_crt_roots_reduce_to_the_roots_of_each_split_prime(pair):
    ctx = UnitContext(pair)
    assert ctx.modulus == math.prod(l for l, _ in ctx.primes)
    for l, roots in ctx.primes:
        assert [r % l for r in ctx.crt_roots] == list(roots)
    assert [(shift, l) for shift, l, _ in ctx.tables] == [
        (8 * k, l) for k, (l, _) in enumerate(ctx.primes)]


def test_character_row_is_a_homomorphism_that_kills_squares():
    ctx = UnitContext(P17)
    base = [ctx.units[uid] for uid in BASE_UNIT_IDS]
    units = [_product_of(base, v, ctx.pair) for v in (0b10, 0b110, 0b10010110, 0b11111111)]
    units += [w.elem for w in saturate(ctx, subfield_unit_words(ctx)).words]
    for x in units:
        assert _character_row(ctx, octic_mul(x, x)) == (0, 0)
    for x, y in zip(units, units[1:]):
        bx, ux = _character_row(ctx, x)
        by, uy = _character_row(ctx, y)
        assert ux == uy == 0
        assert _character_row(ctx, octic_mul(x, y)) == (bx ^ by, 0)


def test_character_row_bits_are_legendre_symbols_at_each_root_choice():
    # bit 8k+i: the image of x when the roots of 2, p, q mod the k-th split
    # prime are negated as embedding i negates sqrt2, sqrtp, sqrtq; no other
    # bit is set
    ctx = UnitContext(P17)
    units = list(ctx.units.values()) + [
        w.elem for w in saturate(ctx, subfield_unit_words(ctx)).words]
    for x in units:
        bits, undefined = _character_row(ctx, x)
        assert undefined == 0
        for k, (l, roots) in enumerate(ctx.primes):
            for i in range(8):
                signs = (1 - 2 * (i >> 2 & 1), 1 - 2 * (i >> 1 & 1), 1 - 2 * (i & 1))
                v = 0
                for mask, c in enumerate(coords(x)):
                    s = 1
                    for b in range(3):
                        if mask >> b & 1:
                            s *= signs[b]
                    v += s * c.numerator * roots[mask] * pow(c.denominator, -1, l)
                expected = legendre_by_enumeration(v, l) == -1
                assert bool(bits >> (8 * k + i) & 1) == expected, (x, k, i)
        assert bits >> 8 * len(ctx.primes) == 0


def split_prime_elements():
    # over the split primes 47, 103, 137, 223, 271 and 281 of (17, 7)
    num = st.one_of(st.integers(-60, 60), st.sampled_from((47, -94, 103, 137 * 5)))
    den = st.sampled_from((1, 2, 3, 47, 2 * 103, 137 * 223, 271 ** 2, 281 * 47))
    return st.tuples(*[st.builds(Fraction, num, den)] * 8).map(
        lambda t: OcticElem(P17, *num_den(t)))


@settings(max_examples=150)
@given(split_prime_elements())
# a whole column undefined (47 divides the denominator), single embeddings
# undefined (the image is 0 mod 47), and both at once
@example(OcticElem(P17, [3, 0, 0, 0, 0, 0, 0, 0], 47))
@example(OcticElem(P17, [47, 0, 0, 0, 0, 0, 0, 0]))
@example(OcticElem(P17, *num_den([47, 47, 0, 0, 0, 0, 0, Fraction(1, 103)])))
def test_character_row_matches_eulers_criterion(x):
    assume(not x.is_zero)
    ctx = UnitContext(P17)
    assert [l for l, _ in ctx.primes] == [47, 103, 137, 223, 271, 281]
    assert _character_row(ctx, x) == character_row_by_euler(ctx, x)


def test_undefined_character_column_is_dropped_not_zeroed():
    ctx = UnitContext(P17)
    l = ctx.primes[0][0]
    column = 0xFF  # the characters of the first split prime
    n = next(a for a in range(2, l) if pow(a, (l - 1) // 2, l) == l - 1)
    a = OcticElem(P17, [n] + [0] * 7, l * l)  # l divides a denominator
    b = OcticElem(P17, [n] + [0] * 7)         # a non-residue mod l
    row_a, row_b = _character_row(ctx, a), _character_row(ctx, b)
    assert row_a[1] == column
    assert row_b[1] == 0 and row_b[0] & column == column
    assert _character_row(ctx, OcticElem(P17, [l] + [0] * 7))[1] == column
    # a*b = (n/l)^2 is a square; a zeroed column would reject it
    assert 0b11 in _square_candidates([row_a, row_b])
    assert 0b11 not in _square_candidates([(row_a[0], 0), row_b])


@given(st.data())
def test_square_candidates_are_the_screened_vectors_smallest_support_first(data):
    # the witness order of saturate: every nonzero v whose rows XOR to zero
    # on the columns defined for all generators, by (popcount, v)
    n = data.draw(st.sampled_from([4, 8]))
    width = data.draw(st.integers(1, 12))
    column = st.integers(0, (1 << width) - 1)
    rows = [(data.draw(column), data.draw(column) & data.draw(column) & data.draw(column))
            for _ in range(n)]
    undefined = 0
    for _, u in rows:
        undefined |= u
    expected = []
    for v in sorted(range(1, 1 << n), key=lambda v: (bin(v).count("1"), v)):
        acc = 0
        for i in range(n):
            if v >> i & 1:
                acc ^= rows[i][0]
        if not acc & ~undefined:
            expected.append(v)
    assert _square_candidates(rows) == expected


# -- the per-pair root memo ----------------------------------------------------

def test_verify_pair_asks_each_root_once_and_keeps_nothing(monkeypatch):
    asked = []

    def counted(x):
        asked.append(x)
        return sqrt_exact(x)

    monkeypatch.setattr(unit_lattice, "sqrt_exact", counted)
    first = record_json(verify_pair(17, 191), include_wall_time=False)
    n = len(asked)
    # within one verification every root comes from sqrt_exact once, then
    # from the memo of the pair's context
    assert n and len(set(asked)) == n
    # the second verification starts from a new context: it asks the same
    # roots in the same order and makes the same record
    second = record_json(verify_pair(17, 191), include_wall_time=False)
    assert second == first
    assert asked[n:] == asked[:n]
    # the stages run on a context of the test's own ask the same roots
    assert set(asked[:n]) <= set(verified_context(P17_191).sqrts)


def test_scan_makes_every_context_in_the_pair_verification():
    # the context caches are left for the benchmark's cache_info(): no stage
    # looks a pair's state up in them
    before = (unit_context.cache_info(), classification_context.cache_info())
    assert len(scan_pairs(300, 200).records) == 144
    assert (unit_context.cache_info(), classification_context.cache_info()) == before
    assert before[0].currsize == before[1].currsize == 0


# (17, 223) has (p/q) = +1 and its saturation leaves two misses; the character
# rows refute every square equation of classification that has no root, so
# the misses of (17, 191) never reach the memo
@pytest.mark.parametrize("pair", [P17, PrimePair(17, 223)])
def test_root_memo_holds_roots_of_its_pair_or_certified_misses(pair):
    ctx = verified_context(pair)
    assert any(y is None for y in ctx.sqrts.values())
    for x, y in ctx.sqrts.items():
        assert x.pair == ctx.pair
        if y is None:
            assert sqrt_in_field(x) is None
        else:
            assert y.pair == ctx.pair and octic_mul(y, y) == x
