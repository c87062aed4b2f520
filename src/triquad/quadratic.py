"""Fundamental units of real quadratic fields as int triples.

`fundamental_unit(d)` is (x, y, norm): x + y sqrt d > 1 is the least unit
of Z[sqrt d] and norm = x^2 - d y^2 = +-1. It is the fundamental unit of
the maximal order of Q(sqrt d) unless d = 5 mod 8:
- for d = 2, 3 mod 4 the maximal order is Z[sqrt d];
- for d = 1 mod 8 a unit outside Z[sqrt d] is (t + b sqrt d)/2 with t, b
  odd and t^2 - d b^2 = +-4, but t^2 = b^2 = 1 mod 8 gives t^2 - d b^2 =
  0 mod 8, so there is none.
For d = 5 mod 8 it is the fundamental unit eps or eps^3, the least power
of eps in Z[sqrt d], and N(eps^3) = N(eps): the norm is that of the
fundamental unit for every d. The radicands of the family, 2, p, q, 2p,
2q, pq and 2pq with p = 1 and q = 7 mod 8, are even, 3 mod 4 or 1 mod 8.
"""

from __future__ import annotations

import functools
import math

from .arith import factor
from .errors import InternalInconsistencyError, TriquadError


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


@functools.lru_cache(maxsize=None)
def fundamental_unit(d: int) -> tuple[int, int, int]:
    """(x, y, norm) of the least unit x + y sqrt d > 1 of Z[sqrt d], exact,
    for squarefree d > 1: the fundamental unit unless d = 5 mod 8, where it
    may be its cube, of the same norm (module docstring)."""
    if d <= 1:
        raise TriquadError(f"radicand must exceed 1, got {d}")
    if any(e > 1 for _, e in factor(d)):
        raise TriquadError(f"radicand must be squarefree, got {d}")
    return _cf_pell_unit(d)
