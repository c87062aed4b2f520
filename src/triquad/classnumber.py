"""Exact 2-class numbers of real quadratic fields and the Kuroda assembly.

The narrow class number of a fundamental discriminant D > 0 is the number of
cycles of reduced indefinite binary quadratic forms under the reduction
operator rho; the wide (ideal) class number halves it exactly when the
fundamental unit has norm +1. The 2-class number is the 2-part of the order.

The reduced forms (a, b, c), b^2 - 4ac = D, are enumerated by b:
- window: with r = isqrt(D) and 0 < b <= r, the form is reduced exactly when
  ceil((r + 1 - b)/2) <= |a| <= floor((r + b)/2), since sqrt(D) is
  irrational and reduction is sqrt(D) - b < 2|a| < sqrt(D) + b;
- divisors: a runs over the divisors of n = (D - b^2)/4 in that window, and
  n is factored by trial division by the odd primes l with (D/l) != -1
  only, as an odd prime dividing n has D = b^2 mod l;
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
    # an odd prime l | n = (D - b^2)/4 has D = b^2 mod l, so (D/l) != -1;
    # n <= D/4, so a cofactor with no such prime up to its square root is prime
    primes = [l for l in _odd_primes(math.isqrt(D // 4))
              if pow(D, (l - 1) // 2, l) != l - 1]
    forms = set()  # reduced forms with a > 0
    for b in range(2 - (D & 1), rD + 1, 2):
        n = (D - b * b) >> 2  # forms (a, b, c) with -ac = n
        # reduced: sqrt(D) - b < 2|a| < sqrt(D) + b, i.e. lo <= |a| <= hi
        lo = (rD + 2 - b) >> 1
        hi = (rD + b) >> 1
        two = (n & -n).bit_length() - 1
        m = n >> two
        divs = [1 << k for k in range(two + 1)]
        for l in primes:
            if l * l > m:
                break
            if m % l == 0:
                step = divs
                while m % l == 0:
                    m //= l
                    step = [v * l for v in step]
                    divs = divs + step
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


def _two_part(n: int) -> int:
    return n & -n


@functools.lru_cache(maxsize=None)
def _h2_cached(d: int) -> int:
    D = d if d % 4 == 1 else 4 * d
    h_narrow = narrow_class_number(D)
    if fundamental_unit(d).norm == 1:
        if h_narrow % 2:
            raise InternalInconsistencyError(
                f"narrow class number odd with norm +1 unit at d={d}")
        h_wide = h_narrow // 2
    else:
        h_wide = h_narrow
    return _two_part(h_wide)


def h2_real_quadratic(d: int, bound: int = DEFAULT_QUAD_BOUND) -> int:
    """Exact 2-class number of Q(sqrt d) for squarefree d > 1."""
    if d > bound:
        raise ResourceGuardError(
            f"radicand {d} exceeds the class-number bound {bound}")
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

    @property
    def consistent(self) -> bool:
        return self.h2K_theorem == self.h2K_kuroda
