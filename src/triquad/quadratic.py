"""Exact arithmetic in real quadratic fields and fundamental units.

Elements of Q(sqrt d) are stored as (a + b sqrt d)/denom with integer a, b and
denom in {1, 2}; denom = 2 only occurs for d = 1 mod 4 with a, b both odd,
matching the ring of integers of the field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .arith import factor
from .errors import InternalInconsistencyError, TriquadError


@dataclass(frozen=True)
class QuadElem:
    d: int
    a: int
    b: int
    denom: int = 1

    def __post_init__(self):
        if self.denom not in (1, 2):
            raise TriquadError(f"denominator must be 1 or 2, got {self.denom}")
        if self.denom == 2:
            if self.a % 2 == 0 and self.b % 2 == 0:
                object.__setattr__(self, "a", self.a // 2)
                object.__setattr__(self, "b", self.b // 2)
                object.__setattr__(self, "denom", 1)
            elif self.d % 4 != 1 or (self.a - self.b) % 2 != 0:
                raise TriquadError(
                    f"({self.a}+{self.b}*sqrt{self.d})/2 is not an algebraic integer")

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.d, self.a, -self.b, self.denom)

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.d, -self.a, -self.b, self.denom)

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        return quad_mul(self, other)

    def __pow__(self, n: int) -> "QuadElem":
        if n < 0:
            raise ValueError("negative powers not supported; invert via norm")
        r = QuadElem(self.d, 1, 0)
        base = self
        while n:
            if n & 1:
                r = quad_mul(r, base)
            base = quad_mul(base, base)
            n >>= 1
        return r

    def __str__(self) -> str:
        s = f"{self.a}+{self.b}*sqrt({self.d})"
        return s if self.denom == 1 else f"({s})/2"


def quad_mul(x: QuadElem, y: QuadElem) -> QuadElem:
    """Exact product; inputs must share the same radicand."""
    if x.d != y.d:
        raise TriquadError(f"radicand mismatch: {x.d} vs {y.d}")
    a = x.a * y.a + x.b * y.b * x.d
    b = x.a * y.b + x.b * y.a
    den = x.denom * y.denom
    if den == 4:
        # product of two half-integer elements of O_d is again in O_d
        if a % 2 or b % 2:
            raise InternalInconsistencyError("product left the ring of integers")
        a, b, den = a // 2, b // 2, 2
    return QuadElem(x.d, a, b, den)


def quad_norm(x: QuadElem) -> int:
    """x times its conjugate: (a^2 - d b^2)/denom^2, an integer for an
    element of the ring of integers."""
    n, r = divmod(x.a * x.a - x.d * x.b * x.b, x.denom * x.denom)
    if r:
        raise InternalInconsistencyError(f"norm of {x} is not an integer")
    return n


@dataclass(frozen=True)
class FundamentalUnit:
    elem: QuadElem
    norm: int

    def __post_init__(self):
        if quad_norm(self.elem) != self.norm or self.norm not in (1, -1):
            raise InternalInconsistencyError("stored norm disagrees with element")


def _cf_pell_unit(d: int) -> tuple[int, int, int]:
    """Minimal unit > 1 of Z[sqrt d] from the continued fraction of sqrt d.

    Returns (x, y, norm): the convergent just before the period closes gives
    the least solution of x^2 - d y^2 = (-1)^period. State repetition is the
    Q == 1 return, which for sqrt(d) marks the end of the first period.
    """
    a0 = math.isqrt(d)
    P, Q, a = 0, 1, a0
    p1, p0 = a0, 1
    q1, q0 = 1, 0
    period = 0
    while True:
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (a0 + P) // Q
        period += 1
        if Q == 1:
            break
        p1, p0 = a * p1 + p0, p1
        q1, q0 = a * q1 + q0, q1
    n = p1 * p1 - d * q1 * q1
    if n != (-1) ** period:
        raise InternalInconsistencyError(
            f"period parity disagrees with computed norm for d={d}")
    return p1, q1, n


def _icbrt(n: int) -> int:
    """Floor of the integer cube root."""
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    return x


@functools.lru_cache(maxsize=None)
def fundamental_unit(d: int) -> FundamentalUnit:
    """Fundamental unit of the maximal order of Q(sqrt d), exact.

    Computed from the continued fraction of sqrt d. For d = 1 mod 4 the
    minimal Z[sqrt d] unit u may be the cube of a half-integer unit
    eps = (t + b sqrt d)/2; the trace identity 2x = t^3 - 3 N(eps) t pins t
    and the candidate is verified by exact cubing.
    """
    if d <= 1:
        raise TriquadError(f"radicand must exceed 1, got {d}")
    if any(e > 1 for _, e in factor(d)):
        raise TriquadError(f"radicand must be squarefree, got {d}")
    x, y, n = _cf_pell_unit(d)
    if d % 4 == 1:
        t0 = _icbrt(2 * x)
        for t in (t0 - 1, t0, t0 + 1, t0 + 2):
            if t <= 0 or t % 2 == 0 or t * t * t - 3 * n * t != 2 * x:
                continue
            den = t * t - n
            if den == 0 or (2 * y) % den != 0:
                continue
            b = 2 * y // den
            if b % 2 == 0:
                continue
            eps = QuadElem(d, t, b, 2)
            if quad_mul(quad_mul(eps, eps), eps) == QuadElem(d, x, y):
                return FundamentalUnit(eps, n)
    return FundamentalUnit(QuadElem(d, x, y), n)
