"""Exact arithmetic in K = Q(sqrt2, sqrtp, sqrtq) on the radical basis.

An element is held as 8 exact rational coordinates indexed by subsets
S of {2, p, q}; the coordinate of mask S multiplies sqrt(prod S). Masks use
bit 0 for 2, bit 1 for p, bit 2 for q.

Real embeddings are indexed 0..7 in lexicographic sign order
(+++, ++-, +-+, +--, -++, ...): bit 2 of the index flips sqrt2, bit 1 flips
sqrtp, bit 0 flips sqrtq.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import PrimePair, is_prime
from .errors import (InternalInconsistencyError, PrecisionExhaustedError,
                     TriquadError)
from .quadratic import QuadElem

logger = logging.getLogger(__name__)

SUBSET_LABELS = ("", "2", "p", "2p", "q", "2q", "pq", "2pq")

DEFAULT_PRECISION = 256
MAX_PRECISION = 4096
ROOT_DENOM_BOUND = 16

# chi[i][mask]: sign of basis element sqrt(prod mask) under embedding i
_CHI = [[1] * 8 for _ in range(8)]
for _i in range(8):
    for _m in range(8):
        flips = (((_i >> 2) & _m & 1)            # sqrt2
                 ^ ((_i >> 1) & (_m >> 1) & 1)   # sqrtp
                 ^ (_i & (_m >> 2) & 1))         # sqrtq
        _CHI[_i][_m] = -1 if flips else 1


@functools.lru_cache(maxsize=None)
def _validate_pair(p: int, q: int) -> None:
    if p == q or p <= 2 or q <= 2 or not is_prime(p) or not is_prime(q):
        raise TriquadError(f"need two distinct odd primes, got ({p}, {q})")


def _normalize_pair(pair) -> tuple[int, int]:
    if isinstance(pair, PrimePair):
        return pair.p, pair.q
    p, q = pair
    _validate_pair(p, q)
    return p, q


@dataclass(frozen=True)
class Automorphism:
    """Sign action on (sqrt2, sqrtp, sqrtq); the 8 of them form (Z/2)^3."""

    signs: tuple[int, int, int]

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise TriquadError("automorphism signs must be +-1")

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        return Automorphism(tuple(a * b for a, b in zip(self.signs, other.signs)))

    @property
    def is_identity(self) -> bool:
        return self.signs == (1, 1, 1)

    def basis_sign(self, mask: int) -> int:
        s = 1
        for i in range(3):
            if mask >> i & 1 and self.signs[i] < 0:
                s = -s
        return s


IDENTITY = Automorphism((1, 1, 1))
TAU1 = Automorphism((-1, 1, 1))
TAU2 = Automorphism((1, -1, 1))
TAU3 = Automorphism((1, 1, -1))


@dataclass(frozen=True)
class OcticElem:
    pair: tuple[int, int]
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != 8:
            raise TriquadError("octic element needs exactly 8 coordinates")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dict(pair, d: dict[int, Fraction | int]) -> "OcticElem":
        pq = _normalize_pair(pair)
        c = [Fraction(0)] * 8
        for mask, v in d.items():
            c[mask] = Fraction(v)
        return OcticElem(pq, tuple(c))

    @staticmethod
    def rational(pair, v) -> "OcticElem":
        return OcticElem.from_dict(pair, {0: Fraction(v)})

    @staticmethod
    def one(pair) -> "OcticElem":
        return OcticElem.rational(pair, 1)

    @staticmethod
    def zero(pair) -> "OcticElem":
        return OcticElem.from_dict(pair, {})

    # -- structure ---------------------------------------------------------

    def radical_product(self, mask: int) -> int:
        p, q = self.pair
        r = 1
        if mask & 1:
            r *= 2
        if mask & 2:
            r *= p
        if mask & 4:
            r *= q
        return r

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def support(self) -> frozenset[int]:
        return frozenset(m for m in range(8) if self.coords[m] != 0)

    def coord_bit_size(self) -> int:
        b = 1
        for c in self.coords:
            if c != 0:
                b = max(b, abs(c.numerator).bit_length(), c.denominator.bit_length())
        return b

    def coords_by_label(self) -> dict[str, Fraction]:
        return {SUBSET_LABELS[m]: self.coords[m] for m in range(8)}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "OcticElem") -> "OcticElem":
        self._check(other)
        return OcticElem(self.pair, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "OcticElem") -> "OcticElem":
        self._check(other)
        return OcticElem(self.pair, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "OcticElem":
        return OcticElem(self.pair, tuple(-a for a in self.coords))

    def __mul__(self, other: "OcticElem") -> "OcticElem":
        return octic_mul(self, other)

    def __pow__(self, n: int) -> "OcticElem":
        base = self if n >= 0 else octic_inv(self)
        n = abs(n)
        r = OcticElem.one(self.pair)
        while n:
            if n & 1:
                r = octic_mul(r, base)
            base = octic_mul(base, base)
            n >>= 1
        return r

    def scale(self, v) -> "OcticElem":
        f = Fraction(v)
        return OcticElem(self.pair, tuple(c * f for c in self.coords))

    def _check(self, other: "OcticElem"):
        if self.pair != other.pair:
            raise TriquadError(f"pair mismatch: {self.pair} vs {other.pair}")

    def __str__(self) -> str:
        parts = []
        for m in range(8):
            if self.coords[m] != 0:
                lbl = SUBSET_LABELS[m]
                parts.append(str(self.coords[m]) + (f"*sqrt({lbl})" if lbl else ""))
        return " + ".join(parts) if parts else "0"


def octic_mul(x: OcticElem, y: OcticElem) -> OcticElem:
    """Bilinear product: sqrt(prod S) * sqrt(prod T) = prod(S&T) * sqrt(prod(S^T))."""
    x._check(y)
    c = [Fraction(0)] * 8
    xc, yc = x.coords, y.coords
    for s in range(8):
        a = xc[s]
        if a == 0:
            continue
        for t in range(8):
            b = yc[t]
            if b == 0:
                continue
            c[s ^ t] += a * b * x.radical_product(s & t)
    return OcticElem(x.pair, tuple(c))


def apply_automorphism(sigma: Automorphism, x: OcticElem) -> OcticElem:
    return OcticElem(x.pair, tuple(x.coords[m] * sigma.basis_sign(m) for m in range(8)))


def norm_to_subfield(sigma: Automorphism, x: OcticElem) -> OcticElem:
    """Relative norm x * sigma(x); the result is fixed by sigma."""
    if sigma.is_identity:
        raise TriquadError("norm_to_subfield needs an automorphism of order 2")
    return octic_mul(x, apply_automorphism(sigma, x))


def rational_norm(x: OcticElem) -> Fraction:
    """Product of all 8 conjugates."""
    acc = OcticElem.one(x.pair)
    for i in range(8):
        sigma = Automorphism((1 - 2 * (i >> 2 & 1), 1 - 2 * (i >> 1 & 1), 1 - 2 * (i & 1)))
        acc = octic_mul(acc, apply_automorphism(sigma, x))
    if not acc.is_rational:
        raise InternalInconsistencyError("full conjugate product is not rational")
    return acc.coords[0]


def octic_inv(x: OcticElem) -> OcticElem:
    """Inverse via the product of the seven nontrivial conjugates."""
    if x.is_zero:
        raise ZeroDivisionError("octic element is zero")
    acc = OcticElem.one(x.pair)
    for i in range(1, 8):
        sigma = Automorphism((1 - 2 * (i >> 2 & 1), 1 - 2 * (i >> 1 & 1), 1 - 2 * (i & 1)))
        acc = octic_mul(acc, apply_automorphism(sigma, x))
    n = octic_mul(x, acc)
    if not n.is_rational or n.coords[0] == 0:
        raise InternalInconsistencyError("norm of nonzero element vanished")
    return acc.scale(Fraction(1) / n.coords[0])


def embed_quadratic(x: QuadElem, pair) -> OcticElem:
    """Place (a + b sqrt d)/denom on the basis slots of K."""
    p, q = _normalize_pair(pair)
    mask = 0
    d = x.d
    for bit, r in enumerate((2, p, q)):
        if d % r == 0:
            mask |= 1 << bit
            d //= r
    if d != 1 or mask == 0:
        raise TriquadError(
            f"radicand {x.d} is not a subfield radicand for pair ({p}, {q})")
    return OcticElem.from_dict((p, q), {0: Fraction(x.a, x.denom),
                                        mask: Fraction(x.b, x.denom)})


# -- certified real embeddings (exact dyadic interval arithmetic) ----------

def _sqrt_interval(n: int, bits: int) -> tuple[int, int]:
    """lo, hi with lo/2^bits <= sqrt(n) <= hi/2^bits."""
    lo = math.isqrt(n << (2 * bits))
    return lo, lo + 1


def _embedding_interval(x: OcticElem, emb: int, bits: int) -> tuple[int, int]:
    """Dyadic interval (scaled by 2^bits) certified to contain embedding emb."""
    lo_acc = hi_acc = 0
    for m in range(8):
        c = x.coords[m] * _CHI[emb][m]
        if c == 0:
            continue
        rl, rh = _sqrt_interval(x.radical_product(m), bits)
        # outward-rounded product of the exact rational c with [rl, rh]
        if c > 0:
            lo_acc += (c.numerator * rl) // c.denominator
            hi_acc += -((-c.numerator * rh) // c.denominator)
        else:
            lo_acc += (c.numerator * rh) // c.denominator
            hi_acc += -((-c.numerator * rl) // c.denominator)
    return lo_acc, hi_acc


def real_embeddings(x: OcticElem, precision: int = DEFAULT_PRECISION) -> list[tuple[Fraction, Fraction]]:
    """Certified enclosures of the 8 real embeddings, width <= 2^(-precision/2)."""
    if precision < 64:
        raise TriquadError("precision must be at least 64 bits")
    bits = precision // 2 + x.coord_bit_size() + 8
    out = []
    for i in range(8):
        lo, hi = _embedding_interval(x, i, bits)
        out.append((Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)))
    return out


def _sign_cap_bits(x: OcticElem) -> int:
    # |v| >= prod of the other |conjugates|^-1 times |N(x)| and N(x) is a
    # nonzero rational with bounded denominator, so this cap is generous
    return 8 * (x.coord_bit_size() + 24) + 128


def embedding_sign(x: OcticElem, emb: int) -> int:
    """Certified sign of one real embedding of a nonzero element."""
    if x.is_zero:
        raise TriquadError("sign of the zero element")
    cap = _sign_cap_bits(x)
    bits = 32 + x.coord_bit_size()
    while True:
        lo, hi = _embedding_interval(x, emb, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if bits > cap:
            raise InternalInconsistencyError(
                "embedding sign undecided beyond the theoretical cap")
        bits *= 2


def sign_vector(x: OcticElem) -> tuple[int, ...]:
    """Signs of all 8 embeddings; the screen used before square testing."""
    return tuple(embedding_sign(x, i) for i in range(8))


# -- exact square roots ----------------------------------------------------

def _rational_sqrt(fr: Fraction) -> Fraction | None:
    if fr < 0:
        return None
    num = math.isqrt(fr.numerator)
    if num * num != fr.numerator:
        return None
    den = math.isqrt(fr.denominator)
    if den * den != fr.denominator:
        return None
    return Fraction(num, den)


def _split(x: OcticElem, bit: int) -> tuple[OcticElem, OcticElem]:
    """x = a + b*sqrt(r_bit) with a, b supported away from bit."""
    a = [Fraction(0)] * 8
    b = [Fraction(0)] * 8
    for m in range(8):
        if m >> bit & 1:
            b[m ^ (1 << bit)] = x.coords[m]
        else:
            a[m] = x.coords[m]
    return OcticElem(x.pair, tuple(a)), OcticElem(x.pair, tuple(b))


def _join(a: OcticElem, b: OcticElem, bit: int) -> OcticElem:
    c = list(a.coords)
    for m in range(8):
        if b.coords[m] != 0:
            c[m ^ (1 << bit)] += b.coords[m]
    return OcticElem(a.pair, tuple(c))


def _sqrt_tower(x: OcticElem, bits: tuple[int, ...]) -> OcticElem | None:
    """Exact square root of x within the subfield generated by the radicals
    in `bits`, or None. Complete: descends the quadratic tower, solving
    (c + d sqrt t)^2 = a + b sqrt t by c^2 = (a +- sqrt(a^2 - t b^2))/2."""
    if not bits:
        if not x.is_rational:
            return None
        r = _rational_sqrt(x.coords[0])
        return None if r is None else OcticElem.rational(x.pair, r)
    bit, rest = bits[0], bits[1:]
    t = x.radical_product(1 << bit)
    a, b = _split(x, bit)
    if b.is_zero:
        y = _sqrt_tower(a, rest)
        if y is not None:
            return y
        d = _sqrt_tower(a.scale(Fraction(1, t)), rest)
        if d is not None:
            return _join(OcticElem.zero(x.pair), d, bit)
        return None
    n = octic_mul(a, a) - octic_mul(b, b).scale(t)
    m = _sqrt_tower(n, rest)
    if m is None:
        return None
    for mm in (m, -m):
        c2 = (a + mm).scale(Fraction(1, 2))
        c = _sqrt_tower(c2, rest)
        if c is not None and not c.is_zero:
            d = octic_mul(b, octic_inv(c.scale(2)))
            return _join(c, d, bit)
    return None


def sqrt_exact(x: OcticElem) -> OcticElem | None:
    """Exact square root in K by quadratic-tower descent, or None.

    Complete and certificate-free: a None answer means no root exists in K.
    The returned root is positive under the all-positive embedding.
    """
    if x.is_zero:
        return OcticElem.zero(x.pair)
    y = _sqrt_tower(x, (0, 1, 2))
    if y is None:
        return None
    if octic_mul(y, y) != x:
        raise InternalInconsistencyError("tower descent returned a non-root")
    if embedding_sign(y, 0) < 0:
        y = -y
    return y


def _reconstruct_coord(num_lo: int, num_hi: int, rad_lo: int, rad_hi: int,
                       bits: int) -> tuple[Fraction | None, bool]:
    """Candidate rational for num/(8*rad) with denominator <= ROOT_DENOM_BOUND.

    Returns (candidate_or_None, decided): decided is False when the enclosure
    is too wide to isolate a single small-denominator rational.
    """
    dl, dh = 8 * rad_lo, 8 * rad_hi
    qs = [Fraction(num_lo, dl), Fraction(num_lo, dh),
          Fraction(num_hi, dl), Fraction(num_hi, dh)]
    q_lo, q_hi = min(qs), max(qs)
    if q_hi - q_lo >= Fraction(1, 2 * ROOT_DENOM_BOUND * ROOT_DENOM_BOUND):
        return None, False
    mid = (q_lo + q_hi) / 2
    cand = mid.limit_denominator(ROOT_DENOM_BOUND)
    if q_lo <= cand <= q_hi:
        return cand, True
    return None, True


def sqrt_in_field(x: OcticElem, precision: int = DEFAULT_PRECISION,
                  max_precision: int = MAX_PRECISION) -> OcticElem | None:
    """Square root in K by embedding reconstruction, or None.

    Guess-and-verify: take certified square roots of the 8 positive embedding
    enclosures, then for each of the 128 sign patterns (first embedding fixed
    positive) recover candidate coordinates c_S = sum(chi_S * conj)/(8 sqrt S),
    round to denominator <= 16 by continued fractions, and verify by exact
    squaring. Absence is certified by a negative embedding or by a fully
    decided pattern sweep with no verified root (rejection at the denominator
    bound); undecided sweeps retry with doubled precision up to max_precision.
    """
    if x.is_zero:
        raise TriquadError("sqrt_in_field requires a nonzero element")
    if precision < 64:
        raise TriquadError("precision must be at least 64 bits")
    cb = x.coord_bit_size()
    margin = precision
    while True:
        bits = margin // 2 + cb + 32
        embs = [_embedding_interval(x, i, bits) for i in range(8)]
        if any(hi < 0 for _, hi in embs):
            logger.debug("sqrt_in_field: rejected, certified negative embedding")
            return None
        if any(lo <= 0 for lo, _ in embs):
            undecided = True  # an enclosure straddles zero
        else:
            undecided = False
            roots = [(math.isqrt(lo << bits), math.isqrt(hi << bits) + 1)
                     for lo, hi in embs]
            rads = {m: _sqrt_interval(x.radical_product(m), bits) for m in range(8)}
            for pattern in range(128):
                signs = [1] + [1 - 2 * (pattern >> k & 1) for k in range(7)]
                cand_coords = []
                ok = True
                for m in range(8):
                    nl = nh = 0
                    for i in range(8):
                        s = _CHI[i][m] * signs[i]
                        if s > 0:
                            nl += roots[i][0]
                            nh += roots[i][1]
                        else:
                            nl -= roots[i][1]
                            nh -= roots[i][0]
                    cand, decided = _reconstruct_coord(nl, nh, rads[m][0],
                                                       rads[m][1], bits)
                    if not decided:
                        undecided = True
                        ok = False
                        break
                    if cand is None:
                        ok = False
                        break
                    cand_coords.append(cand)
                if ok:
                    xi = OcticElem(x.pair, tuple(cand_coords))
                    if octic_mul(xi, xi) == x:
                        return xi
            if not undecided:
                logger.debug("sqrt_in_field: rejected at denominator bound "
                             "(all 128 patterns failed, margin %d)", margin)
                return None
        if margin >= max_precision:
            raise PrecisionExhaustedError(
                f"sqrt_in_field undecided at {max_precision} bits")
        margin *= 2
