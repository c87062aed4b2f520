import pytest

from triquad import classnumber
from triquad.arith import PrimePair, primes_in_range
from triquad.classnumber import (ClassNumberReport, h2_real_quadratic,
                                 kuroda_h2K, h2_pattern_failures,
                                 narrow_class_number, subfield_h2_map)
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
    assert narrow_class_number(8) == 1
    assert narrow_class_number(40) == 2
    assert narrow_class_number(136) == 4
    assert narrow_class_number(328) == 4
    assert narrow_class_number(5) == 1
    assert narrow_class_number(229) == 3


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
        assert narrow_class_number(D) % (1 << (t - 1)) == 0, d


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
        assert fundamental_unit(d).norm == -1
        D = d if d % 4 == 1 else 4 * d
        hn = narrow_class_number(D)
        assert h2_real_quadratic(d) == hn & -hn
    for d in (7, 14, 34, 119):
        assert fundamental_unit(d).norm == 1
        D = d if d % 4 == 1 else 4 * d
        hw = narrow_class_number(D) // 2
        assert h2_real_quadratic(d) == max(hw & -hw, 1)


def test_report_consistency_flag():
    pair = PrimePair(17, 7)
    h2 = subfield_h2_map(pair)
    rep = ClassNumberReport(pair, h2, 7, 2, 2)
    assert rep.consistent


def test_matches_enumeration_on_small_fundamental_discriminants():
    discs = sorted(D for d in squarefree_numbers(20000)
                   for D in [d if d % 4 == 1 else 4 * d] if D < 20000)
    assert len(discs) == 6081
    for D in discs:
        assert narrow_class_number(D) == enumerated_class_number(D), D


@pytest.mark.parametrize("p, q", [(3889, 1231), (4201, 1151)])
def test_matches_enumeration_near_the_radicand_bound(p, q):
    for D in (4 * p * q, 8 * p * q):
        assert narrow_class_number(D) == enumerated_class_number(D), D


def test_matches_enumeration_past_the_default_bound():
    # 2pq = 19,992,002 > 10^7: trial division needs primes up to 4,470
    D = 8 * 4999 * 1999
    assert narrow_class_number(D) == enumerated_class_number(D) == 8


def test_rejects_square_and_non_discriminants():
    for D in (0, -3, 7, 10, 1, 4, 9, 36):
        with pytest.raises(TriquadError):
            narrow_class_number(D)


@pytest.mark.parametrize("broken_sign", [-1, 1])
def test_reduction_step_off_the_reduced_set_is_inconsistent(monkeypatch, broken_sign):
    # break the step from the forms whose first coefficient has broken_sign
    rho = classnumber._rho

    def off_by_one(form, D, rD):
        a, b, c = rho(form, D, rD)
        return (a, b, c + 1) if form[0] * broken_sign > 0 else (a, b, c)

    monkeypatch.setattr(classnumber, "_rho", off_by_one)
    with pytest.raises(InternalInconsistencyError):
        narrow_class_number(40)


def test_reduction_walk_that_misses_its_start_is_inconsistent(monkeypatch):
    # every second step lands on one fixed form: the walk stays in the
    # reduced set, but not on a cycle through each start
    rho = classnumber._rho
    landing = []

    def stuck(form, D, rD):
        nxt = rho(form, D, rD)
        if nxt[0] > 0:
            landing.append(nxt)
            return landing[0]
        return nxt

    monkeypatch.setattr(classnumber, "_rho", stuck)
    with pytest.raises(InternalInconsistencyError, match="missed its start"):
        narrow_class_number(4 * 3889 * 1231)


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
