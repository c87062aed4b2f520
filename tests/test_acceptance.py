"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the case-frequency matrix.
"""

import random
import time
from fractions import Fraction

from triquad.arith import PrimePair, is_perfect_square, primes_in_range
from triquad.classnumber import _h2_cached, kuroda_h2K, subfield_h2_map
from triquad.harness import verify_pair
from triquad.octic import OcticElem, octic_mul, sqrt_exact
from triquad.quadratic import fundamental_unit
from triquad.theorems import (ClassificationContext, classify_pair,
                              verify_norm_tables)


from oracles import (PrecisionExhaustedError, brute_force_fundamental_unit,
                     num_den, sign_vector, sqrt_in_field, squarefree_numbers,
                     zsqrt_unit)


def test_criterion_1_fundamental_unit_oracle_equivalence():
    """Every squarefree d <= 200: continued-fraction unit equals the
    brute-force minimal solution for d != 5 mod 8, and the brute-force unit
    or its cube, of the same norm, for d = 5 mod 8 (half-integer cases)."""
    t0 = time.monotonic()
    for d in squarefree_numbers(200):
        assert fundamental_unit(d) == zsqrt_unit(d), d
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: fundamental units match brute force for all "
          f"squarefree d <= 200 ({elapsed:.2f}s)")


def test_criterion_2_inert_family_instances():
    """All pairs p, q <= 200 with (p/q) = -1: m matches the norm branch,
    theorem h2(K) equals Kuroda h2(K), prescribed generators certify rank
    and re-saturate to zero."""
    t0 = time.monotonic()
    pairs = [(p, q)
             for p in primes_in_range(200, 1, 8)
             for q in primes_in_range(200, 7, 8)]
    checked = 0
    for p, q in pairs:
        pair = PrimePair(p, q)
        if pair.legendre_pq != -1:
            continue
        rec = verify_pair(p, q)
        assert rec.status == "verified", (p, q, rec.mismatches)
        tag = rec.case_tag
        expected_m = 6 if tag.norm_eps2p == -1 else 7
        assert rec.m == expected_m, (p, q)
        assert kuroda_h2K(pair, rec.m, rec.h2) == rec.h2K, (p, q)
        assert rec.rank_ok and rec.resaturation_m == 0, (p, q)
        checked += 1
    assert checked >= 15, f"only {checked} inert pairs in range"
    rec17 = verify_pair(17, 7)
    assert (rec17.h2K, rec17.m) == (2, 7)
    rec41 = verify_pair(41, 7)
    assert (rec41.h2K, rec41.m) == (2, 6)
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"runtime {elapsed:.0f}s exceeds 10 minutes"
    print(f"\nACCEPTANCE 2 PASS: {checked} inert pairs verified, "
          f"(17,7)->(h2=2, m=7), (41,7)->(h2=2, m=6) ({elapsed:.1f}s)")


def test_criterion_3_nine_case_coverage():
    """Scan p <= 1000, q <= 500 with (p/q) = +1: every pair lands in exactly
    one square-class cell, and each alpha/gamma dichotomy resolves with
    exactly one of its candidate elements a square in K."""
    t0 = time.monotonic()
    matrix = {x: {v: 0 for v in ("1", "p", "2p")} for x in ("1", "p", "2p")}
    dichotomies = 0
    count = 0
    for p in primes_in_range(1000, 1, 8):
        for q in primes_in_range(500, 7, 8):
            pair = PrimePair(p, q)
            if pair.legendre_pq != 1:
                continue
            # classification raises InternalInconsistencyError unless exactly
            # one kind lands for each of x+1 and v+1
            tag = classify_pair(ClassificationContext(pair))
            matrix[tag.x_class][tag.v_class] += 1
            count += 1
            if tag.case == "C1" and tag.norm_eps2p == 1:
                assert tag.prefix_witnesses["2q_2pq_2p"] is not None, (p, q)
                assert tag.prefix_witnesses["q_pq_2p"] is not None, (p, q)
                dichotomies += 2
            elif "alpha" in tag.resolution:
                witness = next(iter(tag.prefix_witnesses.values()))
                assert tag.resolution["alpha"] + tag.resolution["gamma"] == 1
                assert (witness is not None) == (tag.resolution["alpha"] == 1)
                assert witness is not None, \
                    f"({p},{q}) {tag.case}: no candidate element squared"
                dichotomies += 1
            elif tag.case == "C1":
                assert tag.resolution["a"] + tag.resolution["b"] == 1
                dichotomies += 1
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 3 PASS: {count} split pairs, {dichotomies} "
          f"dichotomies resolved, case-frequency matrix "
          f"(rows x+1 class, cols v+1 class) ({elapsed:.1f}s):")
    for x in ("1", "p", "2p"):
        print(f"  x={x:>2}: " + "  ".join(f"{matrix[x][v]:4d}" for v in ("1", "p", "2p")))
    assert count > 0


def test_criterion_4_table_fidelity():
    """Every applicable row of the three norm tables holds exactly for
    pairs spanning both Legendre signs."""
    pairs = [(p, q)
             for p in primes_in_range(100, 1, 8)
             for q in primes_in_range(100, 7, 8)]
    signs = set()
    rows = 0
    for p, q in pairs:
        pair = PrimePair(p, q)
        signs.add(pair.legendre_pq)
        checks = verify_norm_tables(ClassificationContext(pair))
        bad = [label for label, ok in checks if not ok]
        assert not bad, (p, q, bad)
        rows += len(checks)
    # 34 rows per pair, 5 more where N(eps_2p) = +1
    assert len(pairs) >= 10 and signs == {1, -1} and rows >= 34 * len(pairs)
    print(f"\nACCEPTANCE 4 PASS: {rows} norm-table rows verified exactly "
          f"across {len(pairs)} pairs, both Legendre signs")


def test_criterion_5_norm_plus_one_nonsquares():
    """For every squarefree d <= 500 with N(eps_d) = +1: none of 2(x+1),
    2(x-1), 2d(x+1), 2d(x-1) is a rational square."""
    checked = 0
    for d in squarefree_numbers(500):
        # the triple may be the cube of the fundamental unit for d = 5 mod 8
        if d % 8 == 5:
            a, _, denom, norm = brute_force_fundamental_unit(d)
            x = Fraction(a, denom)
        else:
            x, _, norm = fundamental_unit(d)
        if norm != 1:
            continue
        for val in (2 * (x + 1), 2 * (x - 1), 2 * d * (x + 1), 2 * d * (x - 1)):
            assert val.denominator == 1, (d, val)
            assert is_perfect_square(val.numerator) is None, (d, val)
        checked += 1
    print(f"\nACCEPTANCE 5 PASS: {checked} norm +1 units, no branch value "
          f"is a rational square")


def test_criterion_6_quadratic_class_number_pattern():
    """h2(p) = h2(q) = h2(2q) = h2(2) = 1 over the scanned pairs; the pq and
    2pq values are 2 for (p/q) = -1 and divisible by 4 otherwise."""
    assert _h2_cached(2) == 1
    scanned = 0
    for p in primes_in_range(200, 1, 8):
        for q in primes_in_range(200, 7, 8):
            pair = PrimePair(p, q)
            h2 = subfield_h2_map(pair)
            assert h2[2] == h2[p] == h2[q] == h2[2 * q] == 1, (p, q)
            if pair.legendre_pq == -1:
                assert h2[p * q] == h2[2 * p * q] == 2, (p, q)
            else:
                assert h2[p * q] % 4 == 0 and h2[2 * p * q] % 4 == 0, (p, q)
            scanned += 1
    print(f"\nACCEPTANCE 6 PASS: quadratic 2-class pattern holds for "
          f"{scanned} pairs (p, q <= 200)")


def test_criterion_7_sqrt_extractor_soundness_completeness():
    """100 randomized round-trips with denominator <= 4 coordinates; all
    rejections on non-totally-positive inputs decided without precision
    exhaustion; zero false positives by exact squaring."""
    rng = random.Random(0x5EED)
    key = PrimePair(17, 7)
    done = 0
    while done < 100:
        coords = tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
                       for _ in range(8))
        xi = OcticElem(key, *num_den(coords))
        if xi.is_zero:
            continue
        sq = octic_mul(xi, xi)
        got = sqrt_in_field(sq)
        assert got is not None, coords
        assert got in (xi, -xi), coords
        assert octic_mul(got, got) == sq  # no false positive possible
        assert sqrt_exact(sq) in (xi, -xi), coords
        done += 1

    rejected = 0
    attempts = 0
    while rejected < 40 and attempts < 500:
        attempts += 1
        coords = tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
                       for _ in range(8))
        x = OcticElem(key, *num_den(coords))
        if x.is_zero or all(s > 0 for s in sign_vector(x)):
            continue
        try:
            assert sqrt_in_field(x) is None
        except PrecisionExhaustedError:
            raise AssertionError(f"negative input undecided: {coords}")
        assert sqrt_exact(x) is None, coords
        rejected += 1
    assert rejected >= 40
    print(f"\nACCEPTANCE 7 PASS: 100 round-trips recovered +-xi, "
          f"{rejected} non-totally-positive inputs rejected decisively")
