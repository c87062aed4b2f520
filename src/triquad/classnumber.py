"""Exact 2-class numbers of real quadratic fields and the Kuroda assembly.

The 2-class number of Q(sqrt d) is read from the narrow class group of its
discriminant D, in two steps:
- gate: D is the product of t prime discriminants; genus theory gives the
  narrow 2-rank t - 1, and Redei's F2 matrix of their Kronecker symbols
  gives the 4-rank r4 = t - 1 - rank. When r4 = 0 the 2-part of the narrow
  class number is 2^(t-1) and nothing is enumerated;
- otherwise the narrow class number is counted as the number of cycles of
  reduced indefinite binary quadratic forms under the reduction operator
  rho, and its 2-part must be at least 2^(t-1+r4).
The wide (ideal) class number halves the narrow one exactly when the
fundamental unit has norm +1.

The reduced forms (a, b, c), b^2 - 4ac = D, are enumerated by b:
- window: with r = isqrt(D) and 0 < b <= r, the form is reduced exactly when
  ceil((r + 1 - b)/2) <= |a| <= floor((r + b)/2), since sqrt(D) is
  irrational and reduction is sqrt(D) - b < 2|a| < sqrt(D) + b;
- divisors: a runs over the divisors of n = (D - b^2)/4 in that window. An
  odd prime l divides n exactly when b = +-s mod l, s a square root of D
  mod l, so each prime l <= isqrt(D/4) with (D/l) != -1 is sieved onto its
  b once; n is divided only by its sieved primes, and as n < D/4 the
  cofactor left is 1 or prime;
- walk: a reduced form has ac < 0 and rho(a, b, c) = (c, b', c'), so the
  sign of a alternates along a cycle and the forms with a > 0 of one cycle
  make exactly one orbit of rho twice; only they are stored and walked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import PrimePair
from .errors import InternalInconsistencyError, ResourceGuardError, TriquadError
from .quadratic import fundamental_unit

DEFAULT_QUAD_BOUND = 10 ** 7


def _odd_primes(limit: int) -> list[int]:
    """Odd primes up to limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    for i in range(3, math.isqrt(limit) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, limit + 1, 2 * i)))
    return [i for i in range(3, limit + 1, 2) if sieve[i]]


def _sqrt_mod(a: int, l: int) -> int:
    """A square root of a modulo an odd prime l with (a/l) != -1, by
    Tonelli-Shanks."""
    a %= l
    if a == 0:
        return 0
    s = ((l - 1) & (1 - l)).bit_length() - 1  # l - 1 = odd * 2^s
    odd = (l - 1) >> s
    z = 2
    while pow(z, (l - 1) // 2, l) != l - 1:
        z += 1
    m, c, t, r = s, pow(z, odd, l), pow(a, odd, l), pow(a, (odd + 1) // 2, l)
    while t != 1:
        i, t2 = 1, t * t % l
        while t2 != 1:
            t2 = t2 * t2 % l
            i += 1
        b = pow(c, 1 << (m - i - 1), l)
        m, c, t, r = i, b * b % l, t * b * b % l, r * b % l
    return r


def _rho(form: tuple[int, int, int], D: int, rD: int) -> tuple[int, int, int]:
    """Reduction-operator step to the right neighbour of a reduced form."""
    _, b, c = form
    ac = abs(c)
    t = (-b) % (2 * ac)
    bp = t + 2 * ac * ((rD - t) // (2 * ac))
    while bp > rD:
        bp -= 2 * ac
    while bp <= rD - 2 * ac:
        bp += 2 * ac
    cp = (bp * bp - D) // (4 * c)
    return (c, bp, cp)


def narrow_class_number(D: int) -> int:
    """Cycle count of reduced indefinite forms of discriminant D, a positive
    non-square (the narrow class number when D is fundamental)."""
    if D <= 0 or D % 4 not in (0, 1):
        raise TriquadError(f"not a positive discriminant: {D}")
    rD = math.isqrt(D)
    if rD * rD == D:
        raise TriquadError(f"square discriminant: {D}")
    # b runs over b0, b0 + 2, ..., rD; marks[i] lists the odd primes that
    # divide n = (D - b^2)/4 at b = b0 + 2i, i.e. those with b = +-s mod l
    b0 = 2 - (D & 1)
    marks: list[list[int]] = [[] for _ in range((rD - b0) // 2 + 1)]
    for l in _odd_primes(math.isqrt(D // 4)):
        if pow(D, (l - 1) // 2, l) == l - 1:
            continue
        s = _sqrt_mod(D, l)
        if (s * s - D) % l:
            raise InternalInconsistencyError(
                f"{s} is not a square root of {D} mod {l}")
        for r in {s, -s % l}:
            # the least b >= b0 with b = r mod l and b = D mod 2
            start = r if (r - b0) % 2 == 0 else r + l
            if start < b0:
                start += 2 * l
            for i in range((start - b0) // 2, len(marks), l):
                marks[i].append(l)
    forms = set()  # reduced forms with a > 0
    for i, primes in enumerate(marks):
        b = b0 + 2 * i
        n = (D - b * b) >> 2  # forms (a, b, c) with -ac = n
        # reduced: sqrt(D) - b < 2|a| < sqrt(D) + b, i.e. lo <= |a| <= hi
        lo = (rD + 2 - b) >> 1
        hi = (rD + b) >> 1
        two = (n & -n).bit_length() - 1
        m = n >> two
        divs = [1 << k for k in range(two + 1)]
        for l in primes:
            if m % l:
                raise InternalInconsistencyError(
                    f"sieved prime {l} does not divide {n} at discriminant {D}")
            step = divs
            while m % l == 0:
                m //= l
                step = [v * l for v in step]
                divs = divs + step
        # n < D/4 has at most one prime factor above isqrt(D/4)
        if m > 1:
            divs += [v * m for v in divs]
        for a in divs:
            if lo <= a <= hi:
                forms.add((a, b, -(n // a)))
    # one rho^2 orbit per cycle (module docstring); negation keeps a form
    # reduced, so the middle form is checked by its negative
    seen: set[tuple[int, int, int]] = set()
    cycles = 0
    for f in forms:
        if f in seen:
            continue
        cycles += 1
        g = f
        while True:
            seen.add(g)
            mid = _rho(g, D, rD)
            if (-mid[0], mid[1], -mid[2]) not in forms:
                raise InternalInconsistencyError(
                    f"reduction step left the reduced set at discriminant {D}")
            g = _rho(mid, D, rD)
            if g == f:
                break
            if g not in forms:
                raise InternalInconsistencyError(
                    f"reduction step left the reduced set at discriminant {D}")
            if g in seen:
                raise InternalInconsistencyError(
                    f"reduction walk missed its start at discriminant {D}")
    return cycles


def _prime_discriminants(d: int) -> list[int]:
    """The prime discriminants whose product is the discriminant D of
    Q(sqrt d), d > 1 squarefree: (-1)^((l-1)/2) l for each odd prime l | d,
    and -4, 8 or -8 when D is even."""
    if d < 2 or d % 4 == 0:
        raise TriquadError(f"not a squarefree radicand above 1: {d}")
    m = d if d % 2 else d // 2
    discs = []
    k = 3
    while k * k <= m:
        if m % k == 0:
            m //= k
            if m % k == 0:
                raise TriquadError(f"not a squarefree radicand above 1: {d}")
            discs.append(k if k % 4 == 1 else -k)
        k += 2
    if m > 1:
        discs.append(m if m % 4 == 1 else -m)
    if d % 4 == 3:
        discs.append(-4)
    elif d % 2 == 0:
        discs.append(8 if d % 8 == 2 else -8)
    return discs


def _redei_matrix(discs: list[int]) -> list[list[int]]:
    """Redei's matrix over F2 of prime discriminants d_1..d_t: off the
    diagonal, entry (i, j) is 1 when the Kronecker symbol (d_j / l_i) is -1,
    l_i the prime dividing d_i ((d_j / 2) is read from d_j mod 8); the
    diagonal makes each row sum to 0."""
    rows = []
    for i, di in enumerate(discs):
        l = abs(di) if di % 2 else 2
        row = []
        for j, dj in enumerate(discs):
            if j == i:
                minus = False
            elif l == 2:
                minus = dj % 8 in (3, 5)
            else:
                minus = pow(dj, (l - 1) // 2, l) == l - 1
            row.append(int(minus))
        row[i] = sum(row) % 2
        rows.append(row)
    return rows


def _f2_rank(rows: list[list[int]]) -> int:
    basis: list[int] = []
    for row in rows:
        v = sum(bit << j for j, bit in enumerate(row))
        for w in basis:  # each w lacks the leading bits of those before it
            v = min(v, v ^ w)
        if v:
            basis.append(v)
    return len(basis)


@functools.lru_cache(maxsize=None)
def _h2_cached(d: int) -> int:
    """2-class number of Q(sqrt d), d > 1 squarefree.

    Let D = d_1 ... d_t be the prime discriminants of Q(sqrt d) and Cl+ its
    narrow class group. By genus theory Cl+[2] has rank t - 1, and by
    Redei (J. reine angew. Math. 171, 1934; P. Stevenhagen, "Redei matrices
    and applications", 1995) the 4-rank of Cl+ is r4 = t - 1 - rank R, R
    the Redei matrix. When r4 = 0 the 2-Sylow subgroup of Cl+ is elementary
    abelian of order 2^(t-1), and nothing is enumerated. Otherwise the
    narrow class number h+ is counted, and v2(h+) >= t - 1 + r4 is checked,
    as r4 of the t - 1 cyclic factors have order at least 4. The ideal
    class group is Cl+ modulo a subgroup of order 2 when the fundamental
    unit has norm +1, and Cl+ itself otherwise.
    """
    discs = _prime_discriminants(d)
    t = len(discs)
    r4 = t - 1 - _f2_rank(_redei_matrix(discs))
    v2 = t - 1
    if r4:
        D = d if d % 4 == 1 else 4 * d
        h_narrow = narrow_class_number(D)
        v2 = (h_narrow & -h_narrow).bit_length() - 1
        if v2 < t - 1 + r4:
            raise InternalInconsistencyError(
                f"narrow class number {h_narrow} of discriminant {D} is not "
                f"divisible by 2^{t - 1 + r4} (genus theory and Redei)")
    if fundamental_unit(d).norm == 1:
        if v2 == 0:
            raise InternalInconsistencyError(
                f"narrow class number odd with norm +1 unit at d={d}")
        v2 -= 1
    return 1 << v2


def check_radicand(d: int, bound: int) -> None:
    """Raise ResourceGuardError when a radicand exceeds the class-number
    bound."""
    if d > bound:
        raise ResourceGuardError(
            f"radicand {d} exceeds the class-number bound {bound}")


def h2_real_quadratic(d: int, bound: int = DEFAULT_QUAD_BOUND) -> int:
    """Exact 2-class number of Q(sqrt d) for squarefree d > 1."""
    check_radicand(d, bound)
    return _h2_cached(d)


_KURODA_POWER = 9  # n (2^(n-1) - 1) for the real degree-8 case


def kuroda_h2K(pair: PrimePair, m: int, h2: dict[int, int]) -> int:
    """h2(K) = 2^(m-9) * prod of the seven subfield 2-class numbers."""
    prod = 1
    for d in pair.radicands:
        prod *= h2[d]
    val = Fraction(prod * (1 << m), 1 << _KURODA_POWER)
    if val.denominator != 1 or val.numerator < 1:
        raise InternalInconsistencyError(
            f"Kuroda formula gave non-integer 2-class number {val} "
            f"for pair ({pair.p},{pair.q})")
    return val.numerator


def subfield_h2_map(pair: PrimePair, bound: int = DEFAULT_QUAD_BOUND) -> dict[int, int]:
    return {d: h2_real_quadratic(d, bound) for d in pair.radicands}


def h2_pattern_failures(pair: PrimePair, h2: dict[int, int]) -> list[str]:
    """Deviations from the quadratic 2-class number pattern, if any."""
    p, q = pair.p, pair.q
    bad = []
    for d in (2, p, q, 2 * q):
        if h2[d] != 1:
            bad.append(f"h2({d}) = {h2[d]}, expected 1")
    if pair.legendre_pq == -1:
        for d in (p * q, 2 * p * q):
            if h2[d] != 2:
                bad.append(f"h2({d}) = {h2[d]}, expected 2")
    else:
        for d in (p * q, 2 * p * q):
            if h2[d] % 4:
                bad.append(f"h2({d}) = {h2[d]}, expected divisible by 4")
    return bad


@dataclass(frozen=True)
class ClassNumberReport:
    pair: PrimePair
    h2: dict[int, int]
    m: int
    h2K_theorem: int
    h2K_kuroda: int
