"""Exact arithmetic in K = Q(sqrt2, sqrtp, sqrtq) on the radical basis.

An element is held as 8 integer coordinates `num` over one positive shared
denominator `den`, indexed by subsets S of {2, p, q}; the coordinate of mask
S multiplies sqrt(prod S). Masks use bit 0 for 2, bit 1 for p, bit 2 for q.
The form is canonical: gcd(den, *num) == 1, and zero is stored over den 1.

An automorphism is a 3-bit flip mask f in the same bit order: it negates
the radicals of the bits set in f, so basis element m changes sign when
popcount(f & m) is odd.

Real embeddings are indexed 0..7 in lexicographic sign order
(+++, ++-, +-+, +--, -++, ...): bit 2 of the index flips sqrt2, bit 1 flips
sqrtp, bit 0 flips sqrtq. Embedding i is therefore the all-positive
embedding after the flip mask `_EMB_FLIPS[i]`, i with its 3 bits reversed.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

from .arith import (PrimePair, is_perfect_square, ratio_str, sqrt_table,
                    symbol_primes)
from .errors import InternalInconsistencyError, TriquadError

SUBSET_LABELS = ("", "2", "p", "2p", "q", "2q", "pq", "2pq")

_ONE = (1, 0, 0, 0, 0, 0, 0, 0)

# flip mask of real embedding i: i with its 3 bits reversed
_EMB_FLIPS = (0, 4, 2, 6, 1, 5, 3, 7)


def _check_pair(pair) -> None:
    """Refuse any pair but a PrimePair, which proved its primes when made."""
    if not isinstance(pair, PrimePair):
        raise TriquadError(f"an element of K needs a PrimePair, got {pair!r}")


# the pair-keyed caches keep the last 64 pairs
@functools.lru_cache(maxsize=64)
def _radicals(pair: tuple[int, int]) -> tuple[int, ...]:
    """prod(S) for each mask S."""
    p, q = pair
    return tuple((2 if m & 1 else 1) * (p if m & 2 else 1) * (q if m & 4 else 1)
                 for m in range(8))


# the flip masks of sqrt2, sqrtp and sqrtq; they compose by XOR
TAU1, TAU2, TAU3 = 1, 2, 4


class OcticElem:
    """An element of K for one pair: integer coordinates `num` over `den`.

    `OcticElem(pair, num, den=1)` takes a PrimePair and 8 ints over a
    positive int, and brings them to canonical form by one gcd. Instances
    are immutable, and equal elements have equal (pair, num, den), which
    equality and hashing compare.
    """

    __slots__ = ("pair", "num", "den")

    def __init__(self, pair: PrimePair, num: Sequence[int], den: int = 1):
        _check_pair(pair)
        if len(num) != 8 or den < 1:
            raise TriquadError("an element of K needs 8 coordinates over a "
                               "positive denominator")
        g = math.gcd(den, *num)
        _set_pair(self, pair)
        _set_num(self, tuple(n // g for n in num))
        _set_den(self, den // g)

    def __setattr__(self, name, value):
        raise AttributeError(f"OcticElem is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"OcticElem is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return _new, (self.pair, self.num, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OcticElem):
            return NotImplemented
        return (self.den == other.den and self.num == other.num
                and self.pair == other.pair)

    def __hash__(self) -> int:
        return hash((self.pair, self.num, self.den))

    def __repr__(self) -> str:
        return f"OcticElem({self.pair!r}, [{', '.join(self._texts())}])"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(pair: PrimePair) -> "OcticElem":
        _check_pair(pair)
        return _new(pair, _ONE, 1)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def support(self) -> frozenset[int]:
        return frozenset(m for m, n in enumerate(self.num) if n)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "OcticElem":
        return _new(self.pair, tuple(-n for n in self.num), self.den)

    def __mul__(self, other: "OcticElem") -> "OcticElem":
        return octic_mul(self, other)

    def __pow__(self, n: int) -> "OcticElem":
        if n < 0:
            raise TriquadError(f"negative power {n} of an octic element")
        base, factors = self, []
        while n:
            if n & 1:
                factors.append(base)
            n >>= 1
            if n:
                base = octic_mul(base, base)
        # one from the pair this element already checked
        return octic_prod(self.pair, factors) if factors else _new(self.pair, _ONE, 1)

    def _check(self, other: "OcticElem"):
        if self.pair != other.pair:
            raise TriquadError(f"pair mismatch: {self.pair} vs {other.pair}")

    def _texts(self) -> list[str]:
        return [ratio_str(n, self.den) for n in self.num]

    def __str__(self) -> str:
        parts = [t + (f"*sqrt({lbl})" if lbl else "")
                 for lbl, t, n in zip(SUBSET_LABELS, self._texts(), self.num) if n]
        return " + ".join(parts) if parts else "0"


_set_pair = OcticElem.pair.__set__
_set_num = OcticElem.num.__set__
_set_den = OcticElem.den.__set__


def _new(pair: PrimePair, num: tuple[int, ...], den: int) -> OcticElem:
    """Element from coordinates already in canonical form."""
    x = object.__new__(OcticElem)
    _set_pair(x, pair)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _reduced(pair: PrimePair, num: list[int], den: int) -> OcticElem:
    """Element num/den for den > 0, brought to canonical form by one gcd."""
    g = math.gcd(den, *num)
    if g != 1:
        return _new(pair, tuple(n // g for n in num), den // g)
    return _new(pair, tuple(num), den)


# -- integer-list kernels ---------------------------------------------------
#
# An element of a subfield of K as an int list of numerators on the masks
# below its length, with rad[m] the radical product of mask m. At t = rad[1]
# it is a + b*sqrt(t) with a = x[0::2], b = x[1::2] on the radicals rad[0::2].

# row s of _MUL_TABLES[h] lists (t, s^t, s&t) for t < h
_MUL_TABLES = {h: tuple(tuple((t, s ^ t, s & t) for t in range(h)) for s in range(h))
               for h in (1, 2, 4, 8)}


def _mul(x: Sequence[int], y: Sequence[int], rad: Sequence[int]) -> list[int]:
    """Product of x and y: sqrt(rad[s]) * sqrt(rad[t]) = rad[s&t] * sqrt(rad[s^t])."""
    table = _MUL_TABLES[len(x)]
    c = [0] * len(x)
    for s, a in enumerate(x):
        if a:
            for t, u, st in table[s]:
                if y[t]:
                    c[u] += a * y[t] * rad[st]
    return c


def _square_minus(a: Sequence[int], b: Sequence[int], t: int,
                  rad: Sequence[int]) -> list[int]:
    """a^2 - t*b^2 for a, b on the masks below len(a)."""
    h = len(a)
    c = [0] * h
    for x, w in ((a, 1), (b, -t)):
        for s, xs in enumerate(x):
            if xs:
                c[0] += w * xs * xs * rad[s]
                w2 = 2 * w * xs
                for u in range(s + 1, h):
                    if x[u]:
                        c[s ^ u] += w2 * x[u] * rad[s & u]
    return c


def _tower_norm(num: Sequence[int],
                rad: Sequence[int]) -> tuple[list[int], int, int]:
    """(acc, n, k) with num * acc = n, an int, by k relative norms: where
    x = a + b*sqrt(t) has b != 0, x * (a - b*sqrt(t)) = a^2 - t*b^2 takes it
    one level down; where b = 0, x is a. The levels skipped are those where
    x already lay in the subfield, so the norm of x is n^(len(num) >> k)."""
    if len(num) == 1:
        return [1], num[0], 0
    a, b, sub = num[0::2], num[1::2], rad[0::2]
    acc = [0] * len(num)
    if not any(b):
        acc[0::2], n, k = _tower_norm(a, sub)
        return acc, n, k
    e, n, k = _tower_norm(_square_minus(a, b, rad[1], sub), sub)
    acc[0::2] = _mul(a, e, sub)
    acc[1::2] = [-v for v in _mul(b, e, sub)]
    return acc, n, k + 1


def _tower_norm_only(num: Sequence[int], rad: Sequence[int]) -> tuple[int, int]:
    """(n, k) of _tower_norm, by the same relative norms level by level,
    with no accumulator of conjugates."""
    k = 0
    while len(num) > 1:
        a, b, t, rad = num[0::2], num[1::2], rad[1], rad[0::2]
        if any(b):
            a = _square_minus(a, b, t, rad)
            k += 1
        num = a
    return num[0], k


def octic_mul(x: OcticElem, y: OcticElem) -> OcticElem:
    """Bilinear product: sqrt(prod S) * sqrt(prod T) = prod(S&T) * sqrt(prod(S^T))."""
    x._check(y)
    return _reduced(x.pair, _mul(x.num, y.num, _radicals(x.pair)), x.den * y.den)


def octic_prod(pair: PrimePair, factors) -> OcticElem:
    """Product of the factors from the first one on; one only when empty."""
    prod = None
    for x in factors:
        prod = x if prod is None else octic_mul(prod, x)
    return OcticElem.one(pair) if prod is None else prod


def apply_automorphism(flips: int, x: OcticElem) -> OcticElem:
    """Image of x under the automorphism with flip mask `flips`."""
    return _new(x.pair, tuple(-n if (flips & m).bit_count() & 1 else n
                              for m, n in enumerate(x.num)), x.den)


def norm_to_subfield(flips: int, x: OcticElem) -> OcticElem:
    """Relative norm x * sigma(x) for sigma the flip mask `flips`; the
    result is fixed by sigma."""
    if not flips:
        raise TriquadError("norm_to_subfield needs an automorphism of order 2")
    return octic_mul(x, apply_automorphism(flips, x))


def rational_norm(x: OcticElem) -> tuple[int, int]:
    """Product of all 8 conjugates as (num, den) in lowest terms with den > 0,
    by the tower of relative norms: x times its 2^k - 1 conjugates there is
    n / den^(2^k), and the norm is that to the power 8 >> k."""
    n, k = _tower_norm_only(x.num, _radicals(x.pair))
    d = x.den ** (1 << k)
    g = math.gcd(n, d)
    return (n // g) ** (8 >> k), (d // g) ** (8 >> k)


def radical_mask(n: int, pair: PrimePair) -> tuple[int, int]:
    """(s, mask) with sqrt(n) = s * sqrt(prod mask), for n > 0 a square
    times a product of 2, p and q."""
    _check_pair(pair)
    p, q = pair
    if n < 1:
        raise TriquadError(f"sqrt({n}) is not a positive real radical")
    s, mask, rest = 1, 0, n
    for bit, r in enumerate((2, p, q)):
        while rest % (r * r) == 0:
            rest //= r * r
            s *= r
        if rest % r == 0:
            rest //= r
            mask |= 1 << bit
    root = is_perfect_square(rest)
    if root is None:
        raise TriquadError(f"sqrt({n}) does not lie in K for pair ({p}, {q})")
    return s * root, mask


def embed_quadratic(d: int, a: int, b: int, pair: PrimePair) -> OcticElem:
    """Place a + b sqrt d, a and b ints, on the basis slots of K."""
    s, mask = radical_mask(d, pair)
    if not mask:
        raise TriquadError(f"radicand {d} is a square")
    num = [0] * 8
    num[0], num[mask] = a, s * b
    return _new(pair, tuple(num), 1)


# -- exact embedding signs ------------------------------------------------

def _sign(num: Sequence[int], rad: tuple[int, ...]) -> int:
    """Sign of sum num[m]*sqrt(rad[m]) under the all-positive embedding, 0
    for the zero element.

    At the top radical, t = rad[h], x = a + b*sqrt(t) with a and b on the
    masks below h. Where a and b have the same sign, or one of them is 0,
    that is the sign of x; otherwise it is sign(a) * sign(a^2 - t*b^2). That
    norm is not 0 when b is not, since sqrt(t) does not lie in the subfield
    of a and b (2, p and q are independent modulo squares)."""
    h = len(num) // 2
    if not h:
        return (num[0] > 0) - (num[0] < 0)
    a, b = num[:h], num[h:]
    s = _sign(a, rad)
    if not any(b):
        return s
    u = _sign(b, rad)
    if s == u or not s:
        return u
    return s * _sign(_square_minus(a, b, rad[h], rad), rad)


def embedding_sign(x: OcticElem, emb: int) -> int:
    """Exact sign of real embedding emb of a nonzero element: the sign of
    its conjugate under the flip mask of emb at the all-positive embedding."""
    if x.is_zero:
        raise TriquadError("sign of the zero element")
    return _sign(apply_automorphism(_EMB_FLIPS[emb], x).num, _radicals(x.pair))


# -- exact square roots ----------------------------------------------------

def _branch_prime(pair: tuple[int, int], bit: int) -> tuple[int, tuple[int | None, ...]]:
    """The first odd prime l prime to pq at which the radical of `bit` is a
    non-residue and the radicals of the higher bits are residues, with
    roots[mask] mapping sqrt(prod mask) into F_l for masks over those bits."""
    symbols = tuple(-1 if b == bit else 1 if b > bit else None for b in range(3))
    return symbol_primes((2, *pair), symbols, 1)[0]


@functools.lru_cache(maxsize=64)
def _tower_levels(pair: tuple[int, int]) -> tuple[tuple, ...]:
    """The levels of the descent, for the radicals of bits 0, 1, 2 in turn:
    (t, sub, l, roots, table) with t the level's radical, sub the radicals
    of the subfield below it (every (2 << bit)-th), l its branch prime, roots
    the images of their square roots in F_l and table the sqrt_table of l."""
    rad = _radicals(pair)
    levels = []
    for bit in range(3):
        l, roots = _branch_prime(pair, bit)
        step = 2 << bit
        levels.append((rad[1 << bit], rad[::step], l, roots[::step], sqrt_table(l)))
    return tuple(levels)


def _no_square(num: Sequence[int], den: int, level: tuple) -> bool:
    """True when num/den, in the subfield below `level`, maps to a nonzero
    non-residue at the level's branch prime l (a 0 in its sqrt_table), so is
    no square. num/den has the character of num*den, 0 where l divides den."""
    _, _, l, roots, table = level
    v = sum(n % l * r for n, r in zip(num, roots)) * den % l
    return v != 0 and not table[v]


def _sqrt_tower(num: Sequence[int], den: int,
                levels: tuple[tuple, ...]) -> tuple[list[int], int] | None:
    """Exact square root of num/den, for den > 0 and num on the subfield
    that `levels` descend, as (root, rden) in lowest terms with rden > 0; or
    None. Complete: at x = a + b sqrt t it solves (c + d sqrt t)^2 = x by
    c^2 = (a +- sqrt(a^2 - t b^2))/2 and d = b/(2c), or for b = 0 by c^2 = a
    or d^2 = a/t. Candidates keep a tracked denominator; each root takes
    one gcd.

    A candidate that is a nonzero non-residue at the branch prime of the
    level (`_no_square`) is no square and is not descended. (a + m)/2 and
    (a - m)/2 multiply to t (b/2)^2, and a and a/t differ by the factor t,
    a non-residue there: so where both images are nonzero and defined,
    exactly one candidate is descended, and otherwise both are, in turn."""
    if not levels:
        s = num[0] * den  # num/den = s/den^2
        r = math.isqrt(s) if s >= 0 else -1
        if r * r != s:
            return None
        g = math.gcd(r, den)
        return [r // g], den // g
    level, rest = levels[0], levels[1:]
    t, sub = level[0], level[1]
    a, b = num[0::2], num[1::2]
    root = [0] * len(num)
    if not any(b):
        for zden, slot in ((den, 0), (den * t, 1)):
            y = None if _no_square(a, zden, level) else _sqrt_tower(a, zden, rest)
            if y is not None:
                root[slot::2] = y[0]
                return root, y[1]
        return None
    m = _sqrt_tower(_square_minus(a, b, t, sub), den * den, rest)
    if m is None:
        return None
    mn, mden = m
    hden = 2 * den * mden
    for sign in (1, -1):
        h = [u * mden + sign * v * den for u, v in zip(a, mn)]
        c = None if _no_square(h, hden, level) else _sqrt_tower(h, hden, rest)
        if c is not None and any(c[0]):
            cn, cden = c
            # d = b/(2c) with 1/c = acc * cden / n; both over cden * dd
            acc, n, _ = _tower_norm(cn, sub)
            dd = 2 * den * n
            root[0::2] = [u * dd for u in cn]
            root[1::2] = [v * cden * cden for v in _mul(b, acc, sub)]
            rden = cden * dd
            g = math.gcd(rden, *root)
            if rden < 0:
                g = -g
            return [v // g for v in root], rden // g
    return None


def sqrt_exact(x: OcticElem) -> OcticElem | None:
    """Exact square root in K by quadratic-tower descent, or None.

    Complete and certificate-free: a None answer means no root exists in K.
    The returned root is positive under the all-positive embedding.
    """
    if x.is_zero:
        return x  # the canonical zero: coordinates 0 over 1
    root = _sqrt_tower(x.num, x.den, _tower_levels(x.pair))
    if root is None:
        return None
    y = _new(x.pair, tuple(root[0]), root[1])
    if octic_mul(y, y) != x:
        raise InternalInconsistencyError("tower descent returned a non-root")
    if embedding_sign(y, 0) < 0:
        y = -y
    return y
