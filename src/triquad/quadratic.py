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

The unit comes from half the period of the continued fraction of sqrt d.
The walk's states (P_k, Q_k) are symmetric about the middle of the period
l: Q_k = Q_(l-k) and P_k = P_(l-k+1). So the period turns round at the
first k with P_(k+1) = P_k (l = 2k) or Q_(k+1) = Q_k (l = 2k + 1), and the
unit is the square, or the product, of the convergents there, divided by
Q_k (M. J. Jacobson and H. C. Williams, "Solving the Pell Equation", 2009,
section 5.3).
"""

from __future__ import annotations

import functools
import math

from .arith import squarefree_primes
from .errors import InternalInconsistencyError


def _cf_pell_unit(d: int) -> tuple[int, int, int]:
    """Minimal unit > 1 of Z[sqrt d] from half the period of the continued
    fraction of sqrt d (module docstring).

    With the convergents A_k/B_k, A_(k-1)^2 - d B_(k-1)^2 = (-1)^k Q_k. At
    the first k where the period turns round, x + y sqrt d is
    (A_(k-1) + B_(k-1) sqrt d)^2 / Q_k of norm +1 if P_(k+1) = P_k, and
    (A_(k-1) + B_(k-1) sqrt d)(A_k + B_k sqrt d) / Q_k of norm -1 if
    Q_(k+1) = Q_k; k = 0 is period 1. Both the division by Q_k and the norm
    are checked exactly.
    """
    a0 = math.isqrt(d)
    P, Q, a = 0, 1, a0
    A1, A2, B1, B2 = 1, 0, 0, 1  # A_(k-1), A_(k-2), B_(k-1), B_(k-2)
    while True:
        P1 = a * Q - P
        Q1 = (d - P1 * P1) // Q
        if P1 == P:  # never at k = 0, where P = 0 < a0 = P1
            x, rx = divmod(A1 * A1 + d * B1 * B1, Q)
            y, ry = divmod(2 * A1 * B1, Q)
            norm = 1
            break
        A, B = a * A1 + A2, a * B1 + B2
        if Q1 == Q:
            x, rx = divmod(A1 * A + d * B1 * B, Q)
            y, ry = divmod(A1 * B + A * B1, Q)
            norm = -1
            break
        P, Q, a = P1, Q1, (a0 + P1) // Q1
        A1, A2, B1, B2 = A, A1, B, B1
    if rx or ry or x * x - d * y * y != norm:
        raise InternalInconsistencyError(
            f"the half-period unit of d={d} is no unit of norm {norm}")
    return x, y, norm


# the radicands kept by `fundamental_unit` and `classnumber._h2_cached`. In
# a scan pq and 2pq never recur, and q and 2q recur at the next p, about 4
# keys per q later: over the whole range 2pq <= 10^7 this bound recomputes
# about half a unit per pair, and the peak memory stays within 6% of the
# 925-pair scan's (CHANGES.md has the measurements)
RADICAND_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=RADICAND_CACHE_SIZE)
def fundamental_unit(d: int, primes: tuple[int, ...] | None = None) -> tuple[int, int, int]:
    """(x, y, norm) of the least unit x + y sqrt d > 1 of Z[sqrt d], exact,
    for squarefree d > 1: the fundamental unit unless d = 5 mod 8, where it
    may be its cube, of the same norm (module docstring). `primes`, the
    distinct primes of d already proved prime, spares the trial division;
    TriquadError for any other d (arith.squarefree_primes)."""
    squarefree_primes(d, primes)
    return _cf_pell_unit(d)
