import math

import pytest

from triquad import classnumber
from triquad.arith import PrimePair, f2_eliminate, factor, primes_in_range, sqrt_mod
from triquad.classnumber import (h2_real_quadratic, kuroda_h2K,
                                 h2_pattern_failures, subfield_h2_map)
from triquad.errors import (InternalInconsistencyError, ResourceGuardError,
                            TriquadError)
from triquad.quadratic import fundamental_unit

from oracles import enumerated_class_number, squarefree_numbers


def test_h2_examples():
    assert h2_real_quadratic(7) == 1
    assert h2_real_quadratic(119) == 2
    assert h2_real_quadratic(34) == 2
    assert h2_real_quadratic(82) == 4


def test_narrow_class_numbers_known_values():
    # classical discriminants: h+(8) = 1, h+(40) = 2, h+(136) = 4, h+(328) = 4
    assert enumerated_class_number(8) == 1
    assert enumerated_class_number(40) == 2
    assert enumerated_class_number(136) == 4
    assert enumerated_class_number(328) == 4
    assert enumerated_class_number(5) == 1
    assert enumerated_class_number(229) == 3


def test_genus_theory_lower_bound():
    # the narrow 2-rank is (number of prime discriminant factors) - 1
    def prime_disc_factors(D):
        t = 0
        m = D
        if m % 2 == 0:
            t += 1
            while m % 2 == 0:
                m //= 2
        while m > 1:
            f = 3
            while m % f:
                f += 2
            t += 1
            while m % f == 0:
                m //= f
        return t

    for d in squarefree_numbers(150):
        D = d if d % 4 == 1 else 4 * d
        t = prime_disc_factors(D)
        assert enumerated_class_number(D) % (1 << (t - 1)) == 0, d


def test_resource_guard():
    with pytest.raises(ResourceGuardError):
        h2_real_quadratic(10 ** 7 + 19, bound=10 ** 7)


def test_kuroda_examples():
    p17 = PrimePair(17, 7)
    h2 = subfield_h2_map(p17)
    assert h2 == {2: 1, 17: 1, 7: 1, 34: 2, 14: 1, 119: 2, 238: 2}
    assert kuroda_h2K(p17, 7, h2) == 2
    p41 = PrimePair(41, 7)
    assert kuroda_h2K(p41, 6, subfield_h2_map(p41)) == 2


def test_kuroda_rejects_non_integer():
    pair = PrimePair(17, 7)
    ones = {d: 1 for d in pair.radicands}
    with pytest.raises(InternalInconsistencyError):
        kuroda_h2K(pair, 0, ones)


def test_h2_pattern_small_range():
    for p in primes_in_range(100, 1, 8):
        for q in primes_in_range(50, 7, 8):
            pair = PrimePair(p, q)
            assert h2_pattern_failures(pair, subfield_h2_map(pair)) == []


def test_narrow_to_wide_conversion_consistency():
    # norm -1 keeps the narrow count, norm +1 halves it
    for d in (2, 5, 10, 26, 65, 85):
        assert fundamental_unit(d)[2] == -1
        D = d if d % 4 == 1 else 4 * d
        hn = enumerated_class_number(D)
        assert h2_real_quadratic(d) == hn & -hn
    for d in (7, 14, 34, 119):
        assert fundamental_unit(d)[2] == 1
        D = d if d % 4 == 1 else 4 * d
        hw = enumerated_class_number(D) // 2
        assert h2_real_quadratic(d) == max(hw & -hw, 1)


def wide_two_part(d, h):
    """2-class number of Q(sqrt d) from its narrow class number h."""
    if fundamental_unit(d)[2] == 1:
        h //= 2
    return h & -h


def check_ranks(d, h):
    """(t, r4, r8) of Q(sqrt d) from the level loop, checked against the
    rank of the Redei matrix and the narrow class number h: the 2-part of h
    is 2^(e_1 + e_2 + ...), which is 2^(t-1+r4) exactly when r8 = 0 and at
    least 2^(t-1+r4+r8) always."""
    discs = classnumber._prime_discriminants(d)
    basis, kernel = f2_eliminate(classnumber._redei_matrix(discs))
    t = len(discs)
    ranks = classnumber._two_ranks(d)
    r4, r8 = (ranks + [0, 0])[1:3]
    assert ranks[0] == t - 1 and r4 == t - 1 - len(basis) == len(kernel) - 1, d
    v2 = (h & -h).bit_length() - 1
    assert v2 == sum(ranks), d
    assert v2 >= t - 1 + r4 + r8, d
    assert (r8 == 0) == (v2 == t - 1 + r4), d
    return t, r4, r8


def test_matches_enumeration_on_small_fundamental_discriminants():
    radicands = [d for d in squarefree_numbers(20000)
                 if (d if d % 4 == 1 else 4 * d) < 20000]
    assert len(radicands) == 6081
    for d in radicands:
        D = d if d % 4 == 1 else 4 * d
        h = enumerated_class_number(D)
        # genus theory and Redei: the 2-part of h+ is 2^(t-1) exactly
        # when the 4-rank is 0, and at least 2^(t-1+r4) otherwise
        assert math.prod(classnumber._prime_discriminants(d)) == D
        t, r4, r8 = check_ranks(d, h)
        assert (r4 == 0) == (h & -h == 1 << (t - 1)), D
        assert h2_real_quadratic(d) == wide_two_part(d, h), d


@pytest.mark.parametrize("p, q", [(3889, 1231), (4201, 1151), (19457, 239)])
def test_matches_enumeration_near_the_radicand_bound(p, q):
    # the seven discriminants of the pair, up to 4pq and 8pq
    for d in PrimePair(p, q).radicands:
        D = d if d % 4 == 1 else 4 * d
        h = enumerated_class_number(D)
        check_ranks(d, h)
        assert h2_real_quadratic(d) == wide_two_part(d, h), d


def test_redei_matrices_by_hand():
    # D = 40 = 5 * 8: (8/5) = (2/5) = -1, and 5 = 5 mod 8 gives (5/2) = -1
    assert classnumber._prime_discriminants(10) == [5, 8]
    assert classnumber._redei_matrix([5, 8]) == [0b11, 0b11]
    # D = 476 = -7 * 17 * -4: (17/7) = (3/7) = -1, (-4/7) = (-1/7) = -1,
    # (-7/17) = (10/17) = -1, (-4/17) = (-1/17) = 1, and -7 = 17 = 1 mod 8
    assert classnumber._prime_discriminants(119) == [-7, 17, -4]
    # (row i, bit j for column j)
    assert classnumber._redei_matrix([-7, 17, -4]) == [0b110,
                                                       0b011,
                                                       0b000]
    for rows in ([0b11, 0b11], [0b110, 0b011, 0b000]):
        basis, kernel = f2_eliminate(rows)
        assert len(basis) == len(rows) - 1  # r4 = 0
    # the kernel of the second: row 3 alone (the prime above 2)
    assert kernel == [0b100]
    # D = 136 = 17 * 8: (8/17) = (2/17) = 1 and 17 = 1 mod 8: r4 = 1
    assert classnumber._prime_discriminants(34) == [17, 8]
    assert classnumber._redei_matrix([17, 8]) == [0, 0]
    assert f2_eliminate([0, 0]) == ([], [0b01, 0b10])
    # D = 4 * 3889 * 1231 (the C1 pin, (p/q) = 1): only (-4/1231) = -1, so
    # rank 1 and r4 = 1, and h+ = 2 h = 2^5 * odd has v2 >= t - 1 + r4 = 3
    assert classnumber._prime_discriminants(3889 * 1231) == [-1231, 3889, -4]
    rows = classnumber._redei_matrix([-1231, 3889, -4])
    assert rows == [0b101, 0, 0]
    assert f2_eliminate(rows) == ([0b101], [0b010, 0b100])


def test_four_rank_zero_is_not_enumerated(monkeypatch):
    # no square root is taken past the first zero rank: none when r4 = 0,
    # the 1 + r4 of level 1 when r8 = 0, and 1 + e_(k+1) at each level k
    # below the last
    roots = []
    sqrt_class = classnumber._sqrt_class

    def counting(d, *args):
        roots.append(d)
        return sqrt_class(d, *args)

    monkeypatch.setattr(classnumber, "_sqrt_class", counting)
    h2 = classnumber._h2_cached.__wrapped__  # past the cache
    assert (h2(10), h2(119)) == (2, 2)       # r4 = 0
    assert roots == []
    assert h2(34) == 2                       # r4 = 1, r8 = 0: h+(136) = 4
    assert roots == [34, 34]
    roots.clear()
    # ranks [1, 1, 1] and [2, 1, 1, 1]: two roots at each level but the last
    assert (h2(226), h2(3889 * 1231)) == (8, 16)
    assert roots == [226] * 4 + [3889 * 1231] * 6


@pytest.mark.parametrize("fault", ["drops", "inverts"])
def test_wrong_composition_is_caught(monkeypatch, fault):
    # forms of discriminant D in the wrong class: the exact check of each
    # root refuses them, so no wrong 2-class number comes out
    compose = classnumber._compose

    def wrong(f, g, D):
        return f if fault == "drops" else compose(f, (g[0], -g[1], g[2]), D)

    monkeypatch.setattr(classnumber, "_compose", wrong)
    for d in (226, 3203671):
        with pytest.raises(InternalInconsistencyError):
            classnumber._h2_cached.__wrapped__(d)


def test_wrong_conic_solution_is_caught(monkeypatch):
    solve = classnumber._legendre_solution

    def off_by_one(a, a_primes, b, b_primes):
        x, y, z = solve(a, a_primes, b, b_primes)
        return x, y, z + 1

    monkeypatch.setattr(classnumber, "_legendre_solution", off_by_one)
    with pytest.raises(InternalInconsistencyError, match="does not solve"):
        classnumber._h2_cached.__wrapped__(226)


def test_ranks_that_never_vanish_stop_at_the_level_bound(monkeypatch):
    # roots forced into the principal class, of genus 0, pass every genus
    # test, so the rank never reaches 0; the loop stops after
    # D.bit_length() = 10 levels at D = 904
    monkeypatch.setattr(classnumber, "_sqrt_class",
                        lambda d, D, *_: (classnumber._form(1, D % 2, D), 0))
    with pytest.raises(InternalInconsistencyError, match="within 10 levels"):
        classnumber._two_ranks(226)


def test_levels_by_hand():
    # D = 904 = 113 * 8, Cl+ = Z/8: e_1 = e_2 = e_3 = 1
    assert classnumber._two_ranks(226) == [1, 1, 1]
    assert enumerated_class_number(904) == 8
    # D = 4 * 3203671 = -967 * 3313 * -4, 2-part of Cl+ Z/2 x Z/64: e_1 = 2
    # and e_2 = ... = e_6 = 1
    assert classnumber._two_ranks(3313 * 967) == [2, 1, 1, 1, 1, 1]
    assert enumerated_class_number(4 * 3313 * 967) == 128


@pytest.mark.parametrize("d", [3203671, 4322431, 7921294])
def test_matches_enumeration_at_narrow_class_number_128(d):
    D = d if d % 4 == 1 else 4 * d
    h = enumerated_class_number(D)
    assert h == 128
    check_ranks(d, h)
    assert h2_real_quadratic(d) == wide_two_part(d, h) == 64


# the radicands with r8 >= 1 of the sparse-large benchmark pairs at seed 841
EIGHT_RANK_RADICANDS_SEED_841 = [
    1154, 1186, 1762, 2306, 2434, 3106, 4226, 4258, 5186, 6722, 14786, 22114,
    1012127, 1050047, 1571422, 2024254, 2765159, 2870191, 3012167, 3073591,
    3284734, 4636927, 5530318, 5650718, 6326014, 6755326, 7424062, 7620622,
    8686526, 9446222]


def test_matches_enumeration_on_eight_rank_radicands():
    for d in EIGHT_RANK_RADICANDS_SEED_841:
        D = d if d % 4 == 1 else 4 * d
        h = enumerated_class_number(D)
        assert check_ranks(d, h)[2] >= 1, d
        assert h2_real_quadratic(d) == wide_two_part(d, h), d


def test_non_squarefree_radicands_are_rejected():
    for d in (0, 1, 4, 9, 18, 12, 50, 3 * 49):
        with pytest.raises(TriquadError):
            classnumber._prime_discriminants(d)


def test_tonelli_shanks_on_primes_one_mod_eight():
    # l = 1 mod 8 makes 8 | l - 1, so the Tonelli-Shanks loop must run
    primes = primes_in_range(700, 1, 8) + [40961, 65537]
    assert primes[:4] == [17, 41, 73, 89]
    for l in primes:
        step = max(1, l // 300)
        for a in range(0, l, step):
            if pow(a, (l - 1) // 2, l) != l - 1:
                assert sqrt_mod(a, l) ** 2 % l == a, (a, l)


def test_wrong_modular_root_is_caught(monkeypatch):
    monkeypatch.setattr(classnumber, "sqrt_mod",
                        lambda a, l: (sqrt_mod(a, l) + (l % 8 == 1)) % l)
    with pytest.raises(InternalInconsistencyError, match="square root"):
        classnumber._h2_cached.__wrapped__(3889 * 1231)


def test_matches_enumeration_past_the_default_bound():
    # 2pq = 19,992,002 > 10^7
    d = 2 * 4999 * 1999
    assert 1 << sum(classnumber._two_ranks(d)) == enumerated_class_number(4 * d) == 8


def test_pinned_pairs_near_the_radicand_bound():
    # both verify at 2pq close to 10^7, far past the CI scan ranges
    pair = PrimePair(3889, 1231)  # case C1, m = 7
    h2 = subfield_h2_map(pair)
    assert h2 == {2: 1, 3889: 1, 1231: 1, 7778: 2, 2462: 1,
                  4787359: 16, 9574718: 4}
    assert kuroda_h2K(pair, 7, h2) == 32
    pair = PrimePair(4201, 1151)  # case C0, m = 7
    h2 = subfield_h2_map(pair)
    assert h2 == {2: 1, 4201: 1, 1151: 1, 8402: 2, 2302: 1,
                  4835351: 2, 9670702: 2}
    assert kuroda_h2K(pair, 7, h2) == 2


def test_eight_rank_on_four_rank_two_discriminants():
    # D = 12104 = 8 * 17 * 89 and 12505 = 5 * 41 * 61: t = 3, r4 = 2, so
    # the left kernel of R has three vectors; r8 = 0 and 1
    for d, ranks, h in ((3026, (3, 2, 0), 16), (12505, (3, 2, 1), 32)):
        D = d if d % 4 == 1 else 4 * d
        assert enumerated_class_number(D) == h
        assert check_ranks(d, h) == ranks
        assert h2_real_quadratic(d) == wide_two_part(d, h)


def test_root_genus_by_hand():
    # D = 136 = 17 * 8, Cl+ = Z/4: R = 0, and p_2 = (6 + sqrt 34) is
    # principal, so [p_17] = g^2; its roots g, g^3 lie outside the principal
    # genus (r8 = 0). D = 904 = 113 * 8, Cl+ = Z/8: the order-2 class g^4
    # has roots g^2, g^6 inside it (r8 = 1)
    def root_genera(d, discs):
        D = math.prod(discs)
        return [classnumber._sqrt_class(d, D, discs, classnumber._ambiguous_form(d, D, A),
                                        [A])[1] for A in (discs[0], 2)]

    assert root_genera(34, [17, 8]) == [0b11, 0]
    assert classnumber._redei_matrix([113, 8]) == [0, 0]
    assert root_genera(226, [113, 8]) == [0, 0]


def test_legendre_solution_solves_its_conic():
    for a in (2, 3, 5, 34, 226, 3889 * 1231, -1, -7):
        for b in (2, 17, 113, 1231, 3889, 2 * 3889):
            try:
                x, y, z = classnumber._legendre_solution(
                    a, [l for l, _ in factor(abs(a))],
                    b, [l for l, _ in factor(b)])
            except InternalInconsistencyError as exc:
                assert "no solution" in str(exc)
                continue
            assert (x, y, z) != (0, 0, 0) and x * x == a * y * y + b * z * z


def test_insoluble_conic_is_inconsistent():
    # (3/5) = -1: x^2 = 3 y^2 + 5 z^2 has no nonzero solution
    with pytest.raises(InternalInconsistencyError, match="no solution"):
        classnumber._legendre_solution(3, [3], 5, [5])


def test_corrupted_descent_root_is_caught(monkeypatch):
    monkeypatch.setattr(classnumber, "sqrt_mod",
                        lambda a, l: (sqrt_mod(a, l) + 1) % l)
    with pytest.raises(InternalInconsistencyError, match="square root"):
        classnumber._h2_cached.__wrapped__(226)


def test_wrong_eight_character_is_caught(monkeypatch):
    # chi_8(n) = -1 for n = 3, 5 mod 8; reading it at n = 3, 7 (chi_-8
    # chi_-4's mix) gives a root genus of odd weight at D = 136
    is_minus = classnumber._is_minus
    monkeypatch.setattr(classnumber, "_is_minus",
                        lambda dj, n: n % 8 in (3, 7) if dj == 8 else is_minus(dj, n))
    with pytest.raises(InternalInconsistencyError, match="not the norm"):
        classnumber._h2_cached.__wrapped__(34)


def test_verify_pair_factors_none_of_the_pair_radicands(monkeypatch):
    from triquad import arith, quadratic
    from triquad.harness import verify_pair
    pair = PrimePair(2969, 1543)
    for cache in (quadratic.fundamental_unit, classnumber._h2_cached):
        cache.cache_clear()
    calls = {}

    def counted(n):
        calls[n] = calls.get(n, 0) + 1
        return factor(n)

    # both bindings: arith's own, for radicands, and the conic cofactors'
    monkeypatch.setattr(arith, "factor", counted)
    monkeypatch.setattr(classnumber, "factor", counted)
    assert verify_pair(2969, 1543).status == "verified"
    assert not set(calls) & set(pair.radicands), calls
    # a direct caller without the primes factors the radicand once, and
    # passes its primes on to the prime discriminants and the unit
    h2_real_quadratic(2969 * 1543)
    assert calls[2969 * 1543] == 1


def test_radicand_primes_that_do_not_multiply_to_it_are_refused():
    # the primes are trusted to be prime, so (2, 21) would pass for 42
    for d, primes in ((21, (3, 5)), (21, (3, 7, 7)), (42, (2, 3))):
        with pytest.raises(TriquadError, match="distinct primes"):
            h2_real_quadratic(d, primes=primes)
    with pytest.raises(TriquadError):
        h2_real_quadratic(12)
    assert h2_real_quadratic(21, primes=(7, 3)) == h2_real_quadratic(21)
