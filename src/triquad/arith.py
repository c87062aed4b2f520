"""Big-integer primitives: decimal strings of any length, primality, perfect
squares, quadratic residues, modular square roots, primes with prescribed
Legendre symbols, factoring by trial division and F2 elimination."""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import InternalInconsistencyError, TriquadError

# Deterministic Miller-Rabin witnesses, the twelve primes 2..37: no strong
# pseudoprime to all of them lies below psi_12 = 318665857834031151167461
# (J. Sorenson and J. Webster, Math. Comp. 86, 2017), which is itself one
# (399165290221 * 798330580441). Far beyond any value this package touches.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_perfect_square(n: int) -> int | None:
    """Return r with r*r == n if n is a perfect square, else None.

    Exact for arbitrarily large n: integer Newton iteration (math.isqrt)
    followed by an exact check, no floating point anywhere.
    """
    if n < 0:
        raise ValueError("is_perfect_square requires n >= 0")
    r = math.isqrt(n)
    return r if r * r == n else None


# 2^2000 < 10^603, below the least digit limit str(int) can be set to (640)
_STR_BITS = 2000


def decimal_str(n: int) -> str:
    """str(n) for an int of any length: str(int) refuses more digits than
    the interpreter's limit (4,300 by default), so long values are split by
    a power of ten and converted piece by piece."""
    if n < 0:
        return "-" + decimal_str(-n)
    if n.bit_length() < _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits, as log10(2) > 0.3
    hi, lo = divmod(n, 10 ** k)
    return decimal_str(hi) + decimal_str(lo).zfill(k)


def ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, by one gcd: "n/d" in lowest terms, or
    "n" when d divides n; of any length."""
    g = math.gcd(n, d)
    num = decimal_str(n // g)
    return num if d == g else f"{num}/{decimal_str(d // g)}"


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a proven witness set),
    for n below psi_12 = 318665857834031151167461; TriquadError above."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise TriquadError(f"primality of {n} is not proved by the witnesses "
                           f"2..37, which hold below {_MR_BOUND}")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a: int, l: int) -> int:
    """A square root of a modulo an odd prime l with (a/l) != -1, by
    Tonelli-Shanks. Callers check the root by squaring."""
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


@functools.lru_cache(maxsize=None)
def sqrt_table(l: int) -> memoryview:
    """For an odd prime l, the table t of length l with t[v] the square root
    of v mod l in [1, (l - 1)/2] when v is a nonzero square, and 0 when v is
    0 or a non-residue (so t also gives the symbol of v): 2-byte entries
    while the roots fit. Filled on first use, one per prime read."""
    wide = l >= 1 << 17  # roots up to (l - 1)/2 past 2 bytes
    t = memoryview(bytearray((4 if wide else 2) * l)).cast("I" if wide else "H")
    for i in range(1, l // 2 + 1):
        t[i * i % l] = i
    return t


# the first bound of the prime table; each walk past its end doubles it
_PRIME_TABLE_BOUND = 1024


def _odd_sieve(bound: int) -> bytearray:
    """The sieve of Eratosthenes below bound >= 2 over the odd numbers:
    entry i, for odd i, is 1 exactly when i is prime."""
    try:
        sieve = bytearray([1]) * bound
    except MemoryError:
        raise TriquadError(f"a prime sieve below {bound} does not fit in memory") from None
    sieve[1] = 0
    for i in range(3, math.isqrt(bound - 1) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, bound, 2 * i)))
    return sieve


@functools.lru_cache(maxsize=None)
def _odd_primes(bound: int) -> tuple[int, ...]:
    """The odd primes below bound. It is filled on first use, never at
    import, for bounds 1024 * 2^k only."""
    sieve = _odd_sieve(bound)
    return tuple(i for i in range(3, bound, 2) if sieve[i])


def symbol_primes(radicals: tuple[int, ...], symbols: tuple[int | None, ...],
                  count: int) -> tuple[tuple[int, tuple[int | None, ...]], ...]:
    """The first `count` odd primes l dividing no radical at which the
    Legendre symbol of radicals[i] is symbols[i] (None: either), each with
    roots[mask]: the product mod l of one fixed square root of each radical
    in mask (bit i for radicals[i]), None when mask holds a non-residue.
    Symbols and roots are read from `sqrt_table(l)`."""
    out = []
    start, bound = 0, _PRIME_TABLE_BOUND
    while len(out) < count:
        table = _odd_primes(bound)
        for l in table[start:]:
            sqrts = sqrt_table(l)
            found: list[int | None] = []
            for a, s in zip(radicals, symbols):
                v = a % l
                r = sqrts[v]  # 0: l divides a, or a is a non-residue
                if not v or s is not None and (r > 0) != (s > 0):
                    break
                found.append(r or None)
            else:
                roots: list[int | None] = [1]
                for a, r in zip(radicals, found):
                    if r is not None and (r * r - a) % l:
                        raise InternalInconsistencyError(f"wrong square root mod {l}")
                    roots += [None if r is None or x is None else x * r % l for x in roots]
                out.append((l, tuple(roots)))
                if len(out) == count:
                    break
        start, bound = len(table), 2 * bound
    return tuple(out)


def factor(n: int) -> list[tuple[int, int]]:
    """The primes of n >= 1 with their exponents, by trial division."""
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            e = 0
            while n % k == 0:
                n //= k
                e += 1
            out.append((k, e))
        k += 1 + (k > 2)
    if n > 1:
        out.append((n, 1))
    return out


def squarefree_primes(d: int, primes: tuple[int, ...] | None = None) -> list[int]:
    """The primes of a squarefree d > 1, increasing: by trial division, or,
    where the caller has proved them prime (PrimePair.radicand_primes),
    `primes` itself once they are distinct and multiply to d. TriquadError
    otherwise."""
    if primes is None:
        factors = factor(d)
        if d < 2 or any(e > 1 for _, e in factors):
            raise TriquadError(f"not a squarefree radicand above 1: {d}")
        return [l for l, _ in factors]
    if d < 2 or len(set(primes)) != len(primes) or math.prod(primes) != d:
        raise TriquadError(f"{primes} are not the distinct primes of the radicand {d}")
    return sorted(primes)


def f2_eliminate(rows: list[int]) -> tuple[list[int], list[int]]:
    """Gaussian elimination over F2 of rows with bit j for column j: a basis
    of the row space and a basis of the left kernel (bit i for row i)."""
    n = len(rows)
    basis: list[int] = []
    kernel: list[int] = []
    for i, row in enumerate(rows):
        # the row above n low bits that record which rows were added
        v = row << n | 1 << i
        for w in basis:  # each w lacks the leading bits of those before it
            v = min(v, v ^ w)
        if v >> n:
            basis.append(v)
        else:
            kernel.append(v)
    return [w >> n for w in basis], kernel


class _PrimePairFields(NamedTuple):
    p: int
    q: int


class PrimePair(_PrimePairFields):
    """A pair of primes (p, q) with p = 1 mod 8 and q = 7 mod 8. The check
    runs in __new__, so unpickling and _replace run it too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not is_prime(self.p) or self.p % 8 != 1:
            raise TriquadError(f"p = {self.p} is not a prime congruent to 1 mod 8")
        if not is_prime(self.q) or self.q % 8 != 7:
            raise TriquadError(f"q = {self.q} is not a prime congruent to 7 mod 8")
        if self.p == self.q:
            raise TriquadError("p and q must be distinct")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def radicands(self) -> tuple[int, ...]:
        """The seven quadratic subfield radicands of Q(sqrt2, sqrtp, sqrtq)."""
        p, q = self.p, self.q
        return (2, p, q, 2 * p, 2 * q, p * q, 2 * p * q)

    @property
    def radicand_primes(self) -> tuple[tuple[int, ...], ...]:
        """The primes of each radicand, in the order of `radicands`; p and q
        were proved prime when the pair was made."""
        p, q = self.p, self.q
        return ((2,), (p,), (q,), (2, p), (2, q), (p, q), (2, p, q))

    @property
    def legendre_pq(self) -> int:
        """(p/q) by Euler's criterion, as __new__ proved q prime."""
        return 1 if pow(self.p, (self.q - 1) // 2, self.q) == 1 else -1


def primes_in_range(limit: int, residue: int, modulus: int) -> list[int]:
    """All primes <= limit congruent to residue mod modulus, by a sieve."""
    if limit < 2:
        return []
    sieve = _odd_sieve(limit + 1)
    return [n for n in range(residue % modulus, limit + 1, modulus)
            if (sieve[n] if n % 2 else n == 2)]
