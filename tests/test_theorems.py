import pytest

from triquad.arith import PrimePair
from triquad.errors import InternalInconsistencyError, TriquadError
from triquad.octic import octic_mul
from triquad.theorems import (classify_pair, decompose_sqrt_data,
                              predict_h2K, root_from_decomposition,
                              unit_generators, verify_norm_tables)
from triquad.unit_lattice import rank_certificate, saturate, unit_context, word_embed

P17 = PrimePair(17, 7)
P41 = PrimePair(41, 7)
P113 = PrimePair(113, 7)


def test_decompose_17_7():
    dec = decompose_sqrt_data(P17)
    assert dec[119].kind == "1" and dec[119].cofactors == (11, 1)
    assert 11 * 11 - 119 == 2
    assert dec[7].kind == "1" and dec[7].cofactors == (3, 1)
    assert 3 * 3 - 7 == 2
    assert dec[34].u_bit == 0 and dec[34].cofactors == (6, 1)
    assert (6 * 6 - 34) // 2 == 1  # (-1)^u with u = 0


def test_decompose_roots_square_back():
    for pair in (P17, P41, P113, PrimePair(97, 31)):
        ctx = unit_context(pair)
        dec = decompose_sqrt_data(pair)
        uid_of = {pair.q: "eq", 2 * pair.q: "e2q", pair.p * pair.q: "epq",
                  2 * pair.p * pair.q: "e2pq", 2 * pair.p: "e2p"}
        for d, sd in dec.items():
            root = root_from_decomposition(sd, pair)
            assert octic_mul(root, root) == ctx.units[uid_of[d]], (pair, d)


def test_decompose_legendre_plus_lands_one_kind():
    dec = decompose_sqrt_data(PrimePair(113, 7))
    assert dec[113 * 7].kind in ("1", "p", "2p")
    assert dec[2 * 113 * 7].kind in ("1", "p", "2p")


def test_classify_17_7():
    tag = classify_pair(P17)
    assert tag.case == "C0"
    assert tag.legendre_pq == -1
    assert tag.norm_eps2p == 1
    assert tag.u_bit == 0
    assert tag.resolution["a"] == 1  # a = u + 1 mod 2
    # both unconditional equations resolved with the proof-form exponents
    assert tag.prefix_witnesses["q_pq_2p"] == (1, 0)
    assert tag.prefix_witnesses["2q_2pq_2p"] == (1, 0)


def test_classify_41_7():
    tag = classify_pair(P41)
    assert tag.case == "C0"
    assert tag.norm_eps2p == -1
    assert tag.u_bit is None
    assert tag.v_sign in (0, 1)


def test_classify_rejects_invalid_pair():
    with pytest.raises(TriquadError):
        classify_pair(PrimePair(7, 17))


def test_classify_forces_unit_classes_for_legendre_minus():
    for pair in (P17, P41, PrimePair(137, 31)):
        tag = classify_pair(pair)
        if tag.legendre_pq == -1:
            assert tag.x_class == "1" and tag.v_class == "1"


def test_unit_generators_41_7_match_prescription():
    tag = classify_pair(P41)
    words = unit_generators(tag, P41)
    exps = [w.quarters for w in words]
    one, h, quarter = 4, 2, 1  # exponents 1, 1/2 and 1/4 in quarters
    assert exps == [
        {"e2": one}, {"ep": one}, {"eq": h}, {"e2q": h}, {"epq": h},
        {"e2": h, "ep": h, "e2p": h},
        {"eq": quarter, "e2q": quarter, "epq": quarter, "e2pq": quarter},
    ]


def test_unit_generators_17_7_substituted_bits():
    tag = classify_pair(P17)
    words = unit_generators(tag, P17)
    h, quarter = 2, 1  # exponents 1/2 and 1/4 in quarters
    # witnessed exponents: e2^a with a = 1, ep^u with u = 0
    assert words[5].quarters == {"e2": h, "eq": quarter, "epq": quarter,
                                 "e2p": quarter}
    assert words[6].quarters == {"e2": h, "e2q": quarter, "e2pq": quarter,
                                 "e2p": quarter}
    assert words[5].render() == "e2^1/2 * eq^1/4 * e2p^1/4 * epq^1/4"


def test_unit_generators_embed_and_are_fundamental():
    for pair in (P17, P41, P113, PrimePair(17, 47)):
        tag = classify_pair(pair)
        words = unit_generators(tag, pair)
        assert len(words) == 7
        for w in words:
            word_embed(w, pair)  # raises if a root were missing
        assert rank_certificate(words, pair)
        assert saturate(pair, list(words)).m == 0


def test_predict_h2K_examples():
    h2_17 = {2: 1, 17: 1, 7: 1, 34: 2, 14: 1, 119: 2, 238: 2}
    assert predict_h2K(classify_pair(P17), h2_17) == 2
    h2_41 = {2: 1, 41: 1, 7: 1, 82: 4, 14: 1, 287: 2, 574: 2}
    assert predict_h2K(classify_pair(P41), h2_41) == 2


def test_predict_h2K_case_formula():
    tag = classify_pair(PrimePair(17, 47))  # C2, norm +1, alpha resolved
    assert tag.case == "C2"
    assert tag.resolution["alpha"] == 1
    h2 = {2: 1, 17: 1, 47: 1, 34: 2, 94: 1, 17 * 47: 4, 2 * 17 * 47: 4}
    assert predict_h2K(tag, h2) == 2 * 4 * 4 // 8


def test_predict_h2K_rejects_non_integer():
    # C0 with N(eps_82) = -1 gives h2(K) = h2(82)/2, so h2(82) = 1 leaves 1/2
    tag = classify_pair(P41)
    assert tag.case == "C0" and tag.norm_eps2p == -1
    h2 = {2: 1, 41: 1, 7: 1, 82: 1, 14: 1, 287: 2, 574: 2}
    with pytest.raises(InternalInconsistencyError,
                       match="theorem class number 1/2 is not an integer"):
        predict_h2K(tag, h2)


def test_norm_tables_all_rows_pass():
    for pair in (P17, P41, P113, PrimePair(97, 31)):
        checks = verify_norm_tables(pair)
        assert checks and all(c.ok for c in checks), pair


def test_norm_table_u_dependence():
    # u = 0 at (17,7): (1+tau2)-norm of sqrt(eps_2p) equals +1
    checks = verify_norm_tables(P17)
    row = [c for c in checks if c.table == "half-2p-unit" and c.sigma == "1+tau2"]
    assert row and row[0].expected == "1" and row[0].ok
