"""Exact 2-class numbers of real quadratic fields and the Kuroda assembly.

The 2-class number of Q(sqrt d) is read from the narrow class group Cl+ of
its discriminant D, in three steps:
- 4-rank: D is the product of t prime discriminants; genus theory gives the
  narrow 2-rank t - 1, and Redei's F2 matrix R of their Kronecker symbols
  gives the 4-rank r4 = t - 1 - rank R (L. Redei, J. reine angew. Math.
  171, 1934; P. Stevenhagen, "Redei matrices and applications", 1995).
  When r4 = 0 the 2-part of the narrow class number is 2^(t-1);
- 8-rank: each of the 1 + r4 vectors of the left kernel of R picks an
  ambiguous ideal a of norm A whose class c is a square. The conic
  X^2 - D Y^2 = 4 A Z^2, solved by Lagrange's descent (J. Cremona and
  D. Rusin, "Efficient solution of rational conics", Math. Comp. 72, 2003),
  gives gamma = (X + Y sqrt D)/2 of norm A Z^2 > 0; divided by its content
  it is primitive, so (gamma) = a b^2 with N(b) = |Z| prime to D, and
  [b]^-1 is a square root of c. c lies in Cl+^4 exactly when the genus
  of |Z| lies in the row space of R, the genera of Cl+[2], so
  r8 = r4 - rho, rho the rank of these genera modulo the row space
  (Stevenhagen, op. cit.). When r8 = 0 the 2-part of the narrow class
  number is 2^(t-1+r4);
- otherwise the narrow class number is counted as the number of cycles of
  reduced indefinite binary quadratic forms under the reduction operator
  rho, and its 2-part must be at least 2^(t-1+r4+r8).
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

from .arith import PrimePair, f2_eliminate, factor, sqrt_mod
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
    # b runs over b0, b0 + 2, ..., rD; marks[i] lists the odd primes that
    # divide n = (D - b^2)/4 at b = b0 + 2i, i.e. those with b = +-s mod l
    b0 = 2 - (D & 1)
    marks: list[list[int]] = [[] for _ in range((rD - b0) // 2 + 1)]
    for l in _odd_primes(math.isqrt(D // 4)):
        if pow(D, (l - 1) // 2, l) == l - 1:
            continue
        s = sqrt_mod(D, l)
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
    factors = factor(d)
    if d < 2 or any(e > 1 for _, e in factors):
        raise TriquadError(f"not a squarefree radicand above 1: {d}")
    discs = [l if l % 4 == 1 else -l for l, _ in factors if l > 2]
    if d % 4 == 3:
        discs.append(-4)
    elif d % 2 == 0:
        discs.append(8 if d % 8 == 2 else -8)
    return discs


def _ramified_prime(dj: int) -> int:
    return abs(dj) if dj % 2 else 2


def _is_minus(dj: int, n: int) -> bool:
    """Whether chi(n) = -1, chi the quadratic character of the prime
    discriminant dj and n > 0 prime to dj: the Legendre symbol (n / |dj|)
    for odd dj, and n mod 4 or mod 8 for -4, 8 and -8."""
    if dj == -4:
        return n % 4 == 3
    if dj == 8:
        return n % 8 in (3, 5)
    if dj == -8:
        return n % 8 in (5, 7)
    l = abs(dj)
    return pow(n, (l - 1) // 2, l) == l - 1


def _redei_matrix(discs: list[int]) -> list[int]:
    """Redei's matrix over F2 of prime discriminants d_1..d_t, row i with bit
    j for column j: off the diagonal, entry (i, j) is 1 when the Kronecker
    symbol (d_j / l_i) is -1, l_i the prime dividing d_i; the diagonal makes
    each row sum to 0. Row i is the genus of the ramified prime above l_i."""
    rows = []
    for i, di in enumerate(discs):
        l = _ramified_prime(di)
        row = sum(1 << j for j, dj in enumerate(discs) if j != i and _is_minus(dj, l))
        rows.append(row | (row.bit_count() & 1) << i)
    return rows


def _legendre_solution(a: int, a_primes: list[int], b: int,
                       b_primes: list[int]) -> tuple[int, int, int]:
    """A nonzero integer solution (x, y, z) of x^2 = a y^2 + b z^2, a and b
    squarefree with the primes of |a| and |b| given, by Lagrange's descent
    (J. Cremona and D. Rusin, "Efficient solution of rational conics",
    Math. Comp. 72, 2003, section 2)."""
    if abs(a) > abs(b):
        x, y, z = _legendre_solution(b, b_primes, a, a_primes)
        return x, z, y
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    if abs(b) == 1:
        raise InternalInconsistencyError("the conic x^2 = -y^2 - z^2 has no solution")
    # r^2 = a mod b by the Chinese remainder theorem, |r| <= |b|/2
    r, m = 0, 1
    for l in b_primes:
        if l > 2 and pow(a, (l - 1) // 2, l) == l - 1:
            raise InternalInconsistencyError(
                f"{a} is not a square mod {l}: the conic x^2 = {a} y^2 + {b} z^2 "
                f"has no solution")
        s = a % 2 if l == 2 else sqrt_mod(a, l)
        r += m * ((s - r) * pow(m, -1, l) % l)
        m *= l
    if r > m // 2:
        r -= m
    if (r * r - a) % b:
        raise InternalInconsistencyError(f"{r} is not a square root of {a} mod {b}")
    # r^2 - a = b k s^2 with k squarefree and |k| < |b|: descend to (a, k)
    c = (r * r - a) // b
    k, s, k_primes = (1 if c > 0 else -1), 1, []
    for l, e in factor(abs(c)):
        s *= l ** (e // 2)
        if e % 2:
            k *= l
            k_primes.append(l)
    x, y, z = _legendre_solution(a, a_primes, k, k_primes)
    # (r + sqrt a)(x + y sqrt a) has norm b k s^2 * k z^2
    return r * x + a * y, x + r * y, k * s * z


def _root_genus(d: int, discs: list[int], e: int) -> int:
    """The genus of a square root of the narrow class c of the ambiguous
    ideal a_e, the product of the ramified primes picked by e, when c is a
    square.

    A solution of X^2 - D Y^2 = 4 A Z^2, A = N(a_e), gives gamma =
    (X + Y sqrt D)/2 of norm A Z^2 > 0. Made primitive, (gamma) = a_e b^2
    with N(b) = |Z| prime to D, so [b]^-1 is a square root of c, and its
    genus is that of |Z|: bit j is chi_j(|Z|) = -1.
    """
    D = d if d % 4 == 1 else 4 * d
    f = 1 if D == d else 2
    primes = [_ramified_prime(dj) for dj in discs]
    a_primes = [l for i, l in enumerate(primes) if e >> i & 1]
    A = math.prod(a_primes)
    w, u, v = _legendre_solution(d, [l for l in primes if d % l == 0], A, a_primes)
    # gamma = f (w + u sqrt d) = (X + Y sqrt D)/2 with X = 2 f w, Y = 2 u is
    # integral; g, its content on the integral basis 1, (1 + sqrt D)/2 or
    # 1, sqrt d, divides X, Y and (as g^2 | A Z^2, A squarefree) Z = f v
    g = (math.gcd(w - u, 2 * u) if D % 2 else 2 * math.gcd(w, u)) or 1  # 0: refused below
    X, Y, Z = 2 * f * w // g, 2 * u // g, abs(f * v) // g
    if X * X - D * Y * Y != 4 * A * Z * Z or Z == 0 or math.gcd(Z, D) != 1:
        raise InternalInconsistencyError(
            f"({X}, {Y}, {Z}) does not solve X^2 - {D} Y^2 = 4 * {A} Z^2 "
            f"with Z nonzero and prime to {D}")
    genus = sum(1 << j for j, dj in enumerate(discs) if _is_minus(dj, Z))
    if genus.bit_count() % 2:
        raise InternalInconsistencyError(
            f"{Z} is not the norm of an ideal of discriminant {D}")
    return genus


@functools.lru_cache(maxsize=None)
def _h2_cached(d: int) -> int:
    """2-class number of Q(sqrt d), d > 1 squarefree.

    Let Cl+ be the narrow class group. By genus theory Cl+[2] has rank
    t - 1, is generated by the ramified primes, and has as genera the row
    space of the Redei matrix R; the principal genus is Cl+^2. So the
    4-rank is r4 = t - 1 - rank R, and the left kernel of R, of dimension
    1 + r4, maps onto Cl+[2] meet Cl+^2; the genera of square roots
    (_root_genus) give the 8-rank r8 (module docstring). When r8 = 0 the
    2-Sylow subgroup of Cl+ has t - 1 cyclic factors, r4 of order 4 and
    none larger, and nothing is enumerated. Otherwise h+ is counted and
    v2(h+) >= t - 1 + r4 + r8 is checked. The ideal class group is Cl+
    modulo a subgroup of order 2 when the fundamental unit has norm +1,
    and Cl+ itself otherwise.
    """
    discs = _prime_discriminants(d)
    t = len(discs)
    rows = _redei_matrix(discs)
    basis, kernel = f2_eliminate(rows)
    r4 = t - 1 - len(basis)
    r8 = 0
    if r4:
        roots = [_root_genus(d, discs, e) for e in kernel]
        r8 = r4 - (len(f2_eliminate(rows + roots)[0]) - len(basis))
    v2 = t - 1 + r4
    if r8:
        D = d if d % 4 == 1 else 4 * d
        h_narrow = narrow_class_number(D)
        v2 = (h_narrow & -h_narrow).bit_length() - 1
        if v2 < t - 1 + r4 + r8:
            raise InternalInconsistencyError(
                f"narrow class number {h_narrow} of discriminant {D} is not "
                f"divisible by 2^{t - 1 + r4 + r8} (genus theory, Redei and "
                f"Reichardt)")
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
