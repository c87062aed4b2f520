"""Exact 2-class numbers of real quadratic fields and the Kuroda assembly.

The 2-class number of Q(sqrt d) is read from the narrow class group Cl+ of
its discriminant D, the product of t prime discriminants. By genus theory
Cl+[2] has rank t - 1 and is generated by the classes [a_e] of the
ambiguous ideals, e a vector over the ramified primes; its genera are the
row space of Redei's F2 matrix R of their Kronecker symbols, and the
principal genus is Cl+^2 (L. Redei, J. reine angew. Math. 171, 1934;
P. Stevenhagen, "Redei matrices and applications", 1995). So v2(h+) is the
sum of the 2^k-ranks e_k, the ranks of Cl+[2] meet Cl+^(2^(k-1)), found
level by level (W. Bosma and P. Stevenhagen, "On the computation of
quadratic 2-class groups", J. Theor. Nombres Bordeaux 8, 1996):
- level k holds a basis of V_k, the e with [a_e] in Cl+^(2^(k-1)), of
  dimension 1 + e_k (one e gives a principal ideal), each with a form y_e,
  y_e^(2^(k-1)) ~ a_e, and witness forms of Cl+[2^(k-1)] with their
  genera G_(k-1). Level 1 is every e, y_e = a_e, and G_0 = 0;
- [a_e] lies in Cl+^(2^k) exactly when the genus of y_e lies in G_(k-1);
  then y_e w^-1, w a witness of that genus, lies in Cl+^2, and its square
  root is y_e at level k + 1. Cl+[2^k] is made of Cl+[2^(k-1)] and the y_e
  of level k, the new witnesses;
- the loop stops at the first e_k = 0, after at most D.bit_length() levels
  as 2^(number of levels) divides h+ < D.

A class in the principal genus is given by a form (A, B, C), A > 0 the
ambiguous ideal's norm at level 1 and an odd prime prime to D above it.
The conic X^2 - D Y^2 = 4 A Z^2, solved by Lagrange's descent (J. Cremona
and D. Rusin, "Efficient solution of rational conics", Math. Comp. 72,
2003), gives gamma = (X + Y sqrt D)/2 of norm A Z^2 > 0 in the ideal a of
the form, and (gamma) = a c^2 with N(c) = |Z| prime to D. So [c]^-1 is a
square root, of the genus of |Z|. Each root is checked exactly (gamma lies
in the composed ideal a c^2 of norm N(gamma)), and each genus against the
product formula. The wide (ideal) class number halves the narrow one
exactly when the fundamental unit has norm +1.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .arith import (PrimePair, f2_eliminate, factor, is_prime, ratio_str, sqrt_mod,
                    squarefree_primes)
from .errors import InternalInconsistencyError, ResourceGuardError
from .quadratic import RADICAND_CACHE_SIZE, fundamental_unit

DEFAULT_QUAD_BOUND = 10 ** 7


def _prime_discriminants(d: int, primes: tuple[int, ...] | None = None) -> list[int]:
    """The prime discriminants whose product is the discriminant D of
    Q(sqrt d), d > 1 squarefree of primes `primes` (arith.squarefree_primes):
    (-1)^((l-1)/2) l for each odd prime l | d, and -4, 8 or -8 when D is even."""
    discs = [l if l % 4 == 1 else -l for l in squarefree_primes(d, primes) if l > 2]
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


def _form(a: int, b: int, D: int) -> tuple[int, int, int]:
    """The form (a, b, (b^2 - D)/(4a)) of discriminant D."""
    c, r = divmod(b * b - D, 4 * a)
    if r:
        raise InternalInconsistencyError(
            f"{b}^2 - {D} is not divisible by 4 * {a}: no form of discriminant {D}")
    return a, b, c


def _ambiguous_form(d: int, D: int, A: int) -> tuple[int, int, int]:
    """The form (A, b, c) of the ideal of norm A, a product of ramified
    primes: b = A when D is odd or d = 3 mod 4 and 2 | A, else b = 0."""
    return _form(A, A if D % 2 or (A % 2 == 0 and d % 2) else 0, D)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u a + v b = g = gcd(a, b)."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, u0, v0, u1, v1 = b, r, u1, v1, u0 - q * u1, v0 - q * v1
    return (a, u0, v0) if a >= 0 else (-a, -u0, -v0)


def _compose(f: tuple[int, int, int], g: tuple[int, int, int],
             D: int) -> tuple[int, int, int]:
    """Composition of forms of discriminant D with first coefficients
    a1, a2 > 0: (a3, b3, c3) with d1 [a3, (-b3 + sqrt D)/2] the product of
    their ideals, a1 a2 = d1^2 a3 (H. Cohen, "A Course in Computational
    Algebraic Number Theory", 1993, Algorithm 5.4.7). Checked exactly: the
    products of the bases of the two ideals lie in that ideal, whose norm
    d1^2 a3 is that of the product, so the two are equal."""
    if f[0] > g[0]:
        f, g = g, f
    (a1, b1, _), (a2, b2, c2) = f, g
    s = (b1 + b2) // 2
    dd, y1, _ = _xgcd(a2, a1)
    d1, x2, v = _xgcd(s, dd)
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * v * (b2 - s) - x2 * c2) % v1
    a3, b3 = v1 * v2, b2 + 2 * v2 * r
    # (X + Y sqrt D)/2 lies in it when d1 | X, Y and X + b3 Y = 0 mod 2 d1 a3
    for X, Y in ((-a1 * b2, a1), (-a2 * b1, a2), ((b1 * b2 + D) // 2, -s)):
        if X % d1 or Y % d1 or (X + b3 * Y) // d1 % (2 * a3):
            raise InternalInconsistencyError(
                f"the product of the ideals of {f} and {g} is not {d1} times that of "
                f"({a3}, {b3})")
    return _form(a3, b3, D)


def _reduce(f: tuple[int, int, int], D: int, rD: int) -> tuple[int, int, int]:
    """A reduced form properly equivalent to f, with first coefficient
    positive: sqrt(D) - b < 2|a| < sqrt(D) + b and 0 < b < sqrt(D), in
    integers with rD = isqrt(D) as sqrt(D) is irrational. A step goes to
    (c, b', c'), b' = -b mod 2|c| in (-|c|, |c|] when |c| > sqrt(D), else in
    (sqrt(D) - 2|c|, sqrt(D)) (Cohen, op. cit., Algorithm 5.6.5). A reduced
    form has ac < 0, and (a, b, c) is equivalent to (c, -b, a)."""
    a, b, c = f
    while not (0 < b <= rD and rD + 1 - b <= 2 * abs(a) <= rD + b):
        m = abs(c)
        b = m - (m + b) % (2 * m) if m > rD else rD - (rD + b) % (2 * m)
        a, b, c = _form(c, b, D)
    return (a, b, c) if a > 0 else (c, -b, a)


def _prime_form(f: tuple[int, int, int], D: int) -> tuple[int, int, int]:
    """A form (P, B, C) properly equivalent to f = (a, b, c), P an odd
    prime prime to D: the first value f(x, y) that is one, over coprime
    (x, y) by max(|x|, |y|), moved to the front by the substitution
    (x, -t; y, s), sx + ty = 1. A primitive form represents infinitely many
    primes (H. Weber, 1882), so the search ends."""
    a, b, c = f
    for k in itertools.count(1):
        for x, y in itertools.chain(((k, y) for y in range(-k, k + 1)),
                                    ((x, s * k) for x in range(k) for s in (1, -1))):
            P = a * x * x + b * x * y + c * y * y
            if P > 2 and P % 2 and D % P and math.gcd(x, y) == 1 and is_prime(P):
                _, s, t = _xgcd(x, y)
                return _form(P, b * (x * s - y * t) - 2 * a * x * t + 2 * c * y * s, D)


def _sqrt_class(d: int, D: int, discs: list[int], form: tuple[int, int, int],
                a_primes: list[int]) -> tuple[tuple[int, int, int], int]:
    """A square root of the class of form = (A, B, C) in the principal
    genus, and its genus (module docstring); A > 0 is a product of ramified
    primes or one odd prime prime to D, with primes a_primes. Made
    primitive, gamma or its conjugate lies in the ideal a of the form, and
    c = [|Z|, (-b + sqrt D)/2] is the ideal with X + b Y = 0 mod 2|Z|."""
    A, B, _ = form
    f = 1 if D == d else 2
    w, u, v = _legendre_solution(d, [_ramified_prime(dj) for dj in discs
                                     if d % _ramified_prime(dj) == 0], A, a_primes)
    # gamma = f (w + u sqrt d) = (X + Y sqrt D)/2 with X = 2 f w, Y = 2 u is
    # integral; g, its content on the integral basis 1, (1 + sqrt D)/2 or
    # 1, sqrt d, divides X, Y and (as g^2 | A Z^2, A squarefree) Z = f v
    g = (math.gcd(w - u, 2 * u) if D % 2 else 2 * math.gcd(w, u)) or 1  # 0: refused below
    X, Y, Z = 2 * f * w // g, 2 * u // g, abs(f * v) // g
    if X * X - D * Y * Y != 4 * A * Z * Z or Z == 0 or math.gcd(Z, D) != 1:
        raise InternalInconsistencyError(
            f"({X}, {Y}, {Z}) does not solve X^2 - {D} Y^2 = 4 * {A} Z^2 "
            f"with Z nonzero and prime to {D}")
    if (X + B * Y) % (2 * A):
        Y = -Y
    # Y is prime to Z (so odd when Z is even), as gamma is primitive
    if math.gcd(Y, Z) != 1:
        raise InternalInconsistencyError(f"{X} + {Y} sqrt {D} is not primitive at {Z}")
    m = Z if Z % 2 else 2 * Z  # for odd Z, b = D mod 2 is set below
    b = -X * pow(Y, -1, m) % m
    b += m * ((b - D) % 2)
    c = _form(Z, b, D)
    J = _compose(form, _compose(c, c, D), D)
    if J[0] != A * Z * Z or (X + J[1] * Y) % (2 * J[0]):
        raise InternalInconsistencyError(
            f"({X} + {Y} sqrt {D})/2 does not generate the product of the ideal "
            f"{form} and the square of {c}: no square root")
    genus = sum(1 << j for j, dj in enumerate(discs) if _is_minus(dj, Z))
    if genus.bit_count() % 2:
        raise InternalInconsistencyError(
            f"{Z} is not the norm of an ideal of discriminant {D}")
    return (c[0], -c[1], c[2]), genus


def _two_ranks(d: int, primes: tuple[int, ...] | None = None) -> list[int]:
    """The 2^k-ranks e_1, ..., e_K of the narrow class group of Q(sqrt d),
    d > 1 squarefree of primes `primes`, up to the first e_(K+1) = 0 (module
    docstring); their sum is v2(h+)."""
    discs = _prime_discriminants(d, primes)
    D = math.prod(discs)
    rD = math.isqrt(D)
    primes = [_ramified_prime(dj) for dj in discs]
    rows = _redei_matrix(discs)
    # level k: (e, y_e, genus of y_e) over a basis of V_k, after
    # (0, w^-1, genus of w) over witnesses w of Cl+[2^(k-1)]
    level = [(1 << i, _ambiguous_form(d, D, l), rows[i]) for i, l in enumerate(primes)]
    witnesses: list[tuple[int, tuple[int, int, int], int]] = []
    ranks: list[int] = []
    while True:
        if len(ranks) == D.bit_length():  # 2^len(ranks) divides h+ < D
            raise InternalInconsistencyError(
                f"the 2^k-ranks at discriminant {D} do not vanish within "
                f"{len(ranks)} levels")
        ranks.append(len(level) - 1)
        # the combinations of the y_e with the genus of a witness
        n, entries = len(witnesses), witnesses + level
        combos = [v for v in f2_eliminate([g for *_, g in entries])[1] if v >> n]
        if not combos:  # the principal ambiguous class lies in every V_k
            raise InternalInconsistencyError(
                f"no ambiguous class left at level {len(ranks) + 1} of discriminant {D}")
        if len(combos) == 1:
            return ranks
        nxt = []
        for v in combos:
            picked = [entry for i, entry in enumerate(entries) if v >> i & 1]
            e = functools.reduce(operator.xor, (entry[0] for entry in picked))
            if n == 0:  # level 1: the ambiguous ideal a_e itself
                a_primes = [l for i, l in enumerate(primes) if e >> i & 1]
                x = _ambiguous_form(d, D, math.prod(a_primes))
            else:
                x = _prime_form(functools.reduce(
                    lambda x, y: _reduce(_compose(x, y, D), D, rD),
                    (entry[1] for entry in picked)), D)
                a_primes = [x[0]]
            root, genus = _sqrt_class(d, D, discs, x, a_primes)
            nxt.append((e, _reduce(root, D, rD), genus))
        witnesses += [(0, (a, -b, c), g) for _, (a, b, c), g in level]
        level = nxt


@functools.lru_cache(maxsize=RADICAND_CACHE_SIZE)
def _h2_cached(d: int, primes: tuple[int, ...] | None = None) -> int:
    """2-class number of Q(sqrt d), d > 1 squarefree of primes `primes`:
    2^v2(h+), halved when the fundamental unit has norm +1 (module
    docstring). The norm is read from `fundamental_unit(d, primes)`, which
    for d = 5 mod 8 may be the cube of the fundamental unit; N(eps^3) =
    N(eps), so the norm is the same."""
    v2 = sum(_two_ranks(d, primes))
    if fundamental_unit(d, primes)[2] == 1:
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


_KURODA_POWER = 9  # n (2^(n-1) - 1) for the real degree-8 case


def kuroda_h2K(pair: PrimePair, m: int, h2: dict[int, int]) -> int:
    """h2(K) = 2^(m-9) * prod of the seven subfield 2-class numbers."""
    num, den = math.prod(h2[d] for d in pair.radicands) << m, 1 << _KURODA_POWER
    if num % den or num < den:
        raise InternalInconsistencyError(
            f"Kuroda formula gave non-integer 2-class number {ratio_str(num, den)} "
            f"for pair ({pair.p},{pair.q})")
    return num >> _KURODA_POWER


def subfield_h2_map(pair: PrimePair) -> dict[int, int]:
    """The 2-class numbers of the seven quadratic subfields, by radicand.
    The caller has checked the largest radicand, 2pq, against its bound."""
    return {d: _h2_cached(d, primes)
            for d, primes in zip(pair.radicands, pair.radicand_primes)}


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
