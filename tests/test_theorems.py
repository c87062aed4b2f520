import dataclasses

import pytest
from hypothesis import given, strategies as st

from oracles import (CASE_REPRESENTATIVES, octic_norm_tables,
                     subfield_unit_words, unscreened_classify_pair)
from triquad import unit_lattice
from triquad.arith import PrimePair
from triquad.errors import InternalInconsistencyError, TriquadError
from triquad.harness import valid_pairs
from triquad.octic import (OcticElem, _radicals, _reduced, norm_to_subfield,
                           octic_mul, octic_prod, sqrt_exact)
from triquad.theorems import (CASE_PLANS, ClassificationContext, _norm_form,
                              _relative_norm, classify_pair,
                              decompose_sqrt_data, predict_h2K,
                              root_from_decomposition, unit_generators,
                              unit_index, verify_norm_tables)
from triquad.unit_lattice import (NONTORSION_IDS, UnitContext,
                                  quarter_determinant, rank_certificate,
                                  saturate)

P17 = PrimePair(17, 7)
P41 = PrimePair(41, 7)
P113 = PrimePair(113, 7)
P73 = PrimePair(73, 7)


def classify(pair):
    """The tag of the pair, from a context made for it."""
    return classify_pair(ClassificationContext(pair))


def norm_tables(pair):
    return verify_norm_tables(ClassificationContext(pair))


def test_decompose_17_7():
    dec = decompose_sqrt_data(UnitContext(P17))
    assert dec[119].kind == "1" and dec[119].cofactors == (11, 1)
    assert 11 * 11 - 119 == 2
    assert dec[7].kind == "1" and dec[7].cofactors == (3, 1)
    assert 3 * 3 - 7 == 2
    assert dec[34].u_bit == 0 and dec[34].cofactors == (6, 1)
    assert (6 * 6 - 34) // 2 == 1  # (-1)^u with u = 0
    # eps_146 = 145 + 12 sqrt146: t - 1 = 12^2 and t + 1 = 146 * 1^2, so u = 1
    dec = decompose_sqrt_data(UnitContext(P73))
    assert dec[146].u_bit == 1 and dec[146].cofactors == (1, 12)
    assert dec[146].factors == (146, 1)
    assert (12 * 12 - 146 * 1 * 1) // 2 == -1  # (-1)^u with u = 1


def test_decompose_roots_square_back():
    for pair in (P17, P41, P113, P73, PrimePair(97, 31)):
        ctx = UnitContext(pair)
        dec = decompose_sqrt_data(ctx)
        uid_of = {pair.q: "eq", 2 * pair.q: "e2q", pair.p * pair.q: "epq",
                  2 * pair.p * pair.q: "e2pq", 2 * pair.p: "e2p"}
        for d, sd in dec.items():
            root = root_from_decomposition(sd, pair)
            assert octic_mul(root, root) == ctx.units[uid_of[d]], (pair, d)


def test_decompose_legendre_plus_lands_one_kind():
    dec = decompose_sqrt_data(UnitContext(PrimePair(113, 7)))
    assert dec[113 * 7].kind in ("1", "p", "2p")
    assert dec[2 * 113 * 7].kind in ("1", "p", "2p")


def test_classify_17_7():
    tag = classify(P17)
    assert tag.case == "C0"
    assert tag.legendre_pq == -1
    assert tag.norm_eps2p == 1
    assert tag.u_bit == 0
    assert tag.resolution["a"] == 1  # a = u + 1 mod 2
    # both unconditional equations resolved with the proof-form exponents
    assert tag.prefix_witnesses["q_pq_2p"] == (1, 0)
    assert tag.prefix_witnesses["2q_2pq_2p"] == (1, 0)


def test_classify_41_7():
    tag = classify(P41)
    assert tag.case == "C0"
    assert tag.norm_eps2p == -1
    assert tag.u_bit is None
    assert tag.v_sign in (0, 1)


def test_classify_rejects_invalid_pair():
    with pytest.raises(TriquadError):
        classify(PrimePair(7, 17))


def test_classify_forces_unit_classes_for_legendre_minus():
    for pair in (P17, P41, PrimePair(137, 31)):
        tag = classify(pair)
        if tag.legendre_pq == -1:
            assert tag.x_class == "1" and tag.v_class == "1"


def test_unit_generators_41_7_match_prescription():
    cc = ClassificationContext(P41)
    words = unit_generators(classify_pair(cc), cc)
    exps = [w.quarters for w in words]
    one, h, quarter = 4, 2, 1  # exponents 1, 1/2 and 1/4 in quarters
    assert exps == [
        {"e2": one}, {"ep": one}, {"eq": h}, {"e2q": h}, {"epq": h},
        {"e2": h, "ep": h, "e2p": h},
        {"eq": quarter, "e2q": quarter, "epq": quarter, "e2pq": quarter},
    ]


def test_unit_generators_17_7_substituted_bits():
    cc = ClassificationContext(P17)
    words = unit_generators(classify_pair(cc), cc)
    h, quarter = 2, 1  # exponents 1/2 and 1/4 in quarters
    # witnessed exponents: e2^a with a = 1, ep^u with u = 0
    assert words[5].quarters == {"e2": h, "eq": quarter, "epq": quarter,
                                 "e2p": quarter}
    assert words[6].quarters == {"e2": h, "e2q": quarter, "e2pq": quarter,
                                 "e2p": quarter}
    assert words[5].render() == "e2^1/2 * eq^1/4 * e2p^1/4 * epq^1/4"


# (p, q, hit bit, generator index, half-root that replaces the missing root):
# no pair of the acceptance range resolves these bits to 0
FALLBACKS = [
    (17, 47, "alpha", 6, "e2p^1/2"),     # C2, N(eps_2p) = +1
    (457, 463, "alpha", 6, "e2q^1/2"),   # C6, N(eps_2p) = -1
    (17, 103, "alpha", 6, "e2q^1/2"),    # C6, N(eps_2p) = +1
    (313, 151, "alpha", 6, "eq^1/2"),    # C8, N(eps_2p) = -1
    (113, 439, "a", 6, "e2pq^1/2"),      # C1, N(eps_2p) = -1
    (17, 191, "r_prime", 5, "e2p^1/2"),  # C1, N(eps_2p) = +1
    (17, 191, "r", 6, "e2pq^1/2"),
]


@pytest.mark.parametrize("p,q,bit,index,fallback", FALLBACKS)
def test_unit_generators_fall_back_to_the_half_root(p, q, bit, index, fallback):
    cc = ClassificationContext(PrimePair(p, q))
    tag = classify_pair(cc)
    assert tag.resolution[bit] == 1
    words = unit_generators(tag, cc)
    missed = unit_generators(
        dataclasses.replace(tag, resolution={**tag.resolution, bit: 0}), cc)
    assert words[index].render() != fallback
    assert missed[index].render() == fallback
    assert missed[:index] + missed[index + 1:] == words[:index] + words[index + 1:]
    uid = fallback.split("^")[0]
    root = missed[index].elem
    assert octic_mul(root, root) == cc.ctx.units[uid]


def test_unit_generators_embed_and_are_fundamental():
    for pair in (P17, P41, P113, PrimePair(17, 47)):
        cc = ClassificationContext(pair)
        words = unit_generators(classify_pair(cc), cc)
        assert len(words) == 7
        # the elements are the words, and the words have index 1 in E_K
        assert rank_certificate(words, cc.ctx)
        assert abs(quarter_determinant(words)) << unit_index(cc) == 4 ** 7
        assert saturate(cc.ctx, list(words)).m == 0


def test_predict_h2K_examples():
    h2_17 = {2: 1, 17: 1, 7: 1, 34: 2, 14: 1, 119: 2, 238: 2}
    assert predict_h2K(classify(P17), h2_17) == 2
    h2_41 = {2: 1, 41: 1, 7: 1, 82: 4, 14: 1, 287: 2, 574: 2}
    assert predict_h2K(classify(P41), h2_41) == 2


def test_predict_h2K_case_formula():
    tag = classify(PrimePair(17, 47))  # C2, norm +1, alpha resolved
    assert tag.case == "C2"
    assert tag.resolution["alpha"] == 1
    h2 = {2: 1, 17: 1, 47: 1, 34: 2, 94: 1, 17 * 47: 4, 2 * 17 * 47: 4}
    assert predict_h2K(tag, h2) == 2 * 4 * 4 // 8


def test_predict_h2K_rejects_non_integer():
    # C0 with N(eps_82) = -1 gives h2(K) = h2(82)/2, so h2(82) = 1 leaves 1/2
    tag = classify(P41)
    assert tag.case == "C0" and tag.norm_eps2p == -1
    h2 = {2: 1, 41: 1, 7: 1, 82: 1, 14: 1, 287: 2, 574: 2}
    with pytest.raises(InternalInconsistencyError,
                       match="theorem class number 1/2 is not an integer"):
        predict_h2K(tag, h2)


def test_norm_tables_all_rows_pass():
    for pair in (P17, P41, P113, PrimePair(97, 31)):
        checks = norm_tables(pair)
        assert checks and all(ok for _, ok in checks), pair


@pytest.mark.parametrize("p,q,case,norm", CASE_REPRESENTATIVES)
def test_norm_tables_pass_every_row_in_every_branch(p, q, case, norm):
    # 24 base-unit rows, 5 for each product unit, 5 for sqrt(eps_2p) if N = +1
    checks = norm_tables(PrimePair(p, q))
    assert len(checks) == 34 + 5 * (norm == 1)
    assert all(ok for _, ok in checks)


def test_norm_table_u_dependence():
    # the (1+tau2)-norm of sqrt(eps_2p) is (-1)^u: u = 0 at (17,7), u = 1 at (73,7)
    for pair, expected in ((P17, "1"), (P73, "-1")):
        checks = dict(norm_tables(pair))
        assert checks[f"half-2p-unit:e2p:1+tau2 expected {expected}"], pair


def test_norm_table_names_17_7():
    # sigma names derived from the flip masks, in table order
    base = {"e2": "-1 E2 E2 -1 -1 E2", "ep": "E2 -1 E2 -1 E2 -1",
            "eq": "-E E 1 -E -1 1", "e2q": "-1 E 1 -1 -E 1"}
    six = ("1+tau1", "1+tau2", "1+tau3", "1+tau1tau2", "1+tau1tau3", "1+tau2tau3")
    five = ("1+tau2", "1+tau1tau2", "1+tau1tau3", "1+tau2tau3", "1+tau1")
    expected = [f"base-units:{uid}:{sigma} expected {entry}"
                for uid, row in base.items() for sigma, entry in zip(six, row.split())]
    for table, uid, row in (("product-units", "e2pq", "1 -E -E E -1"),
                            ("product-units", "epq", "1 -1 -1 E -E"),
                            ("half-2p-unit", "e2p", "1 -E -1 1 -1")):
        expected += [f"{table}:{uid}:{sigma} expected {entry}"
                     for sigma, entry in zip(five, row.split())]
    checks = norm_tables(P17)
    assert [label for label, _ in checks] == expected


REPRESENTATIVES = [PrimePair(p, q) for p, q, _, _ in CASE_REPRESENTATIVES]
SCAN_DENSE = [PrimePair(p, q) for p, q in valid_pairs(300, 200)]


def test_closed_form_tables_equal_the_octic_referee():
    for pair in SCAN_DENSE + REPRESENTATIVES:
        cc = ClassificationContext(pair)
        assert verify_norm_tables(cc) == octic_norm_tables(cc), pair


KEY = (17, 7)
nonzero = st.integers(-10 ** 30, 10 ** 30).filter(bool)


@given(st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True),
       nonzero, nonzero, st.integers(1, 10 ** 6))
def test_closed_form_relative_norm_is_x_times_its_conjugate(masks, alpha, beta, den):
    num = [0] * 8
    num[masks[0]], num[masks[1]] = alpha, beta
    x = _reduced(KEY, num, den)
    form = _norm_form(x, _radicals(KEY))
    for flips in range(1, 8):
        r, c = _relative_norm(flips, form)
        closed = [0] * 8
        closed[0], closed[form[0] ^ form[1]] = r, c
        assert _reduced(KEY, closed, x.den ** 2) == norm_to_subfield(flips, x)


def test_a_table_element_of_three_terms_is_an_inconsistency():
    cc = ClassificationContext(P17)
    root = cc.roots["eq"]
    cc.roots["eq"] = root + OcticElem.from_dict(KEY, {0b110: 1})
    with pytest.raises(InternalInconsistencyError, match="has 3 terms, not two"):
        verify_norm_tables(cc)
    cc.roots["eq"] = root
    assert all(ok for _, ok in verify_norm_tables(cc))


# -- the square equations of classification, screened by character rows ------

def test_every_square_equation_the_rows_refute_has_no_root():
    refuted = 0
    for pair in SCAN_DENSE:
        cc = ClassificationContext(pair)
        tag = classify_pair(cc)
        for eq in CASE_PLANS[tag.case, tag.norm_eps2p]:
            if isinstance(eq, str) or eq.witness is None:
                continue
            prefixes = [(0, 0)]
            if eq.prefixed:  # the two prefixes that classify_pair tries
                a = 1 - cc.u_bit
                prefixes = [(a, cc.u_bit), (a, a)]
            for ab in prefixes:
                factors = cc.equation_factors(eq.tail, ab)
                if cc.ctx.no_square(factors):
                    refuted += 1
                    assert sqrt_exact(octic_prod(cc.ctx.key, factors)) is None, (pair, ab)
    assert refuted == 165


@pytest.mark.parametrize("pair", REPRESENTATIVES, ids=str)
def test_screened_classification_equals_the_unscreened_referee(pair):
    cc = ClassificationContext(pair)
    assert classify_pair(cc) == unscreened_classify_pair(cc)


# -- the unit index from the checked half-unit roots ------------------------

def test_seeded_unit_index_is_the_saturation_from_e0_on_the_scan_dense_range():
    pairs = valid_pairs(300, 200)
    assert len(pairs) == 144
    for p, q in pairs:
        cc = ClassificationContext(PrimePair(p, q))
        assert unit_index(cc) == saturate(cc.ctx, subfield_unit_words(cc.ctx)).m, (p, q)


@pytest.mark.parametrize("p,q,case,norm", CASE_REPRESENTATIVES)
def test_classification_puts_the_roots_sqrt_exact_returns_in_the_memo(p, q, case, norm):
    cc = ClassificationContext(PrimePair(p, q))
    seeded = [uid for uid in NONTORSION_IDS if uid in cc.roots]
    assert len(seeded) == (5 if norm == 1 else 4)
    memo = dict(cc.ctx.sqrts)  # before any stage asks for a root
    for uid in seeded:
        unit = cc.ctx.units[uid]
        assert memo[unit] is cc.roots[uid]
        assert cc.ctx.sqrt(unit) == sqrt_exact(unit)


def test_guard_bounds_the_seeds_and_the_steps_together(monkeypatch):
    cc = ClassificationContext(P17)
    k = sum(uid in cc.roots for uid in NONTORSION_IDS)
    steps = unit_index(cc) - k
    assert (k, steps) == (5, 2)
    # a guard of k + steps - 1 trips, though it is above the steps alone
    monkeypatch.setattr(unit_lattice, "SATURATION_GUARD", k + steps - 1)
    assert steps <= k + steps - 1
    with pytest.raises(InternalInconsistencyError, match="index guard"):
        unit_index(ClassificationContext(P17))
    monkeypatch.setattr(unit_lattice, "SATURATION_GUARD", k + steps)
    assert unit_index(ClassificationContext(P17)) == 7
    monkeypatch.undo()
    # with the guard at 14, E_0 claimed at index 2^8 needs 7 steps more
    guard = unit_lattice.SATURATION_GUARD
    ctx = UnitContext(P17)
    assert saturate(ctx, subfield_unit_words(ctx), seed_index=guard - 7).m == 7
    with pytest.raises(InternalInconsistencyError, match="index guard"):
        saturate(ctx, subfield_unit_words(ctx), seed_index=guard - 6)
