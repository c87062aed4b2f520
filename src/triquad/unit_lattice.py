"""Formal unit words, the quadratic-character sieve, and 2-saturation.

The multiplicative group generated by the seven quadratic-subfield
fundamental units (with -1) is saturated by repeatedly replacing a generator
with the square root of a product that turns out to be a square in K; the
number of replacement steps m gives the unit index q(K) = 2^m.

Both guards of the saturation are proved. For commuting involutions sigma,
tau of a field and the norms N_g(u) = u g(u) to the fixed fields,
    u^2 = N_sigma(u) N_tau(u) / sigma(N_sigma.tau(u))
for every unit u (Kuroda; H. Wada, 1966), and each factor is a unit of a
fixed field. Applied twice, from K to its quartic subfields and from those
to their quadratic subfields, it gives E_K^4 in E_0, the group of -1 and the
seven subfield units. So the index [E_K : E_0] divides
[E_K : E_K^4 <-1>] = 4^7 = 2^14, and as each step doubles the index,
m <= SATURATION_GUARD = 14. And u^4 in E_0 puts every exponent of a word in
(1/4)Z: no word has depth above MAX_WORD_DEPTH = 2. The 144-pair range
p <= 300, q <= 200 reaches depth 2 and m = 7.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import octic
from .arith import PrimePair, f2_eliminate, symbol_primes
from .errors import InternalInconsistencyError, RootMissingError, TriquadError
from .octic import OcticElem, embed_quadratic, octic_mul, sqrt_exact
from .quadratic import fundamental_unit

TORSION_ID = "-1"
NONTORSION_IDS = ("e2", "ep", "eq", "e2p", "e2q", "epq", "e2pq")
BASE_UNIT_IDS = (TORSION_ID,) + NONTORSION_IDS

SATURATION_GUARD = 14  # the index bound 2^14 (module docstring)
MAX_WORD_DEPTH = 2

# Odd primes l, prime to pq, modulo which 2, p and q are squares: each splits
# completely in K and gives 8 quadratic characters of the units, one per
# prime of K above l. Six leave almost no non-square past the sieve.
SPLIT_PRIMES = 6


class UnitWord:
    """A formal product of base units with dyadic-rational exponents.

    The torsion exponent (key "-1") is kept in {0, 1}. An exact embedding
    into K may be attached; saturation attaches the witnessed root directly
    so that words produced from torsion-carrying squares stay representable.
    """

    __slots__ = ("exponents", "_embedding")

    def __init__(self, exponents: dict[str, Fraction | int],
                 embedding: OcticElem | None = None):
        exps: dict[str, Fraction] = {}
        for uid, e in exponents.items():
            if uid not in BASE_UNIT_IDS:
                raise TriquadError(f"unknown base unit id {uid!r}")
            e = Fraction(e)
            if uid == TORSION_ID:
                if e.denominator != 1:
                    raise TriquadError("torsion exponent must be an integer")
                e = Fraction(e.numerator % 2)
            if e != 0:
                if e.denominator & (e.denominator - 1):
                    raise TriquadError(f"exponent {e} is not dyadic")
                exps[uid] = e
        self.exponents = exps
        self._embedding = embedding

    def __eq__(self, other) -> bool:
        return isinstance(other, UnitWord) and self.exponents == other.exponents

    def __hash__(self):
        return hash(tuple(sorted(self.exponents.items())))

    def __mul__(self, other: "UnitWord") -> "UnitWord":
        exps = dict(self.exponents)
        for uid, e in other.exponents.items():
            exps[uid] = exps.get(uid, Fraction(0)) + e
        return UnitWord(exps)

    def sqrt_word(self) -> "UnitWord":
        """Half every non-torsion exponent; the torsion bit is dropped (the
        witnessed root carries the sign information exactly)."""
        return UnitWord({uid: e / 2 for uid, e in self.exponents.items()
                         if uid != TORSION_ID})

    @property
    def depth(self) -> int:
        """Largest halving depth: log2 of the common exponent denominator."""
        d = 1
        for e in self.exponents.values():
            d = max(d, e.denominator)
        return d.bit_length() - 1

    def exponent(self, uid: str) -> Fraction:
        return self.exponents.get(uid, Fraction(0))

    def render(self) -> str:
        if not self.exponents:
            return "1"
        parts = []
        for uid in BASE_UNIT_IDS:
            e = self.exponents.get(uid)
            if e is None:
                continue
            parts.append(uid if e == 1 else f"{uid}^{e}")
        return " * ".join(parts)

    def __repr__(self):
        return f"UnitWord({self.render()})"


@dataclass
class SaturationResult:
    m: int
    words: list[UnitWord]        # the 7 non-torsion fundamental words
    elements: list[OcticElem]    # their exact embeddings


class UnitContext:
    """Per-pair cache of embedded base units, the split primes of the
    saturation sieve, and memos of character rows and of the square roots
    that every stage of the pair asks for; they leave with the context."""

    def __init__(self, pair: PrimePair):
        self.pair = pair
        self.key = (pair.p, pair.q)
        self.units: dict[str, OcticElem] = {
            TORSION_ID: OcticElem.rational(self.key, -1)}
        self.norms: dict[str, int] = {}
        self.quad = {}
        for uid, d in zip(NONTORSION_IDS, pair.radicands):
            fu = fundamental_unit(d)
            self.quad[uid] = fu
            self.units[uid] = embed_quadratic(fu.elem, self.key)
            self.norms[uid] = fu.norm
        self.primes = symbol_primes((2, pair.p, pair.q), (1, 1, 1), SPLIT_PRIMES)
        self.rows: dict[OcticElem, tuple[int, int]] = {}
        self.sqrts: dict[OcticElem, OcticElem | None] = {}

    def row(self, x: OcticElem) -> tuple[int, int]:
        if x not in self.rows:
            self.rows[x] = _character_row(self, x)
        return self.rows[x]

    def sqrt(self, x: OcticElem) -> OcticElem | None:
        """sqrt_exact(x), computed once per element."""
        if x not in self.sqrts:
            self.sqrts[x] = sqrt_exact(x)
        return self.sqrts[x]


@functools.lru_cache(maxsize=64)
def unit_context(pair: PrimePair) -> UnitContext:
    return UnitContext(pair)


def base_unit_words(pair: PrimePair) -> list[UnitWord]:
    """The eight starting generators: -1 and the seven subfield units."""
    ctx = unit_context(pair)
    out = []
    for uid in BASE_UNIT_IDS:
        out.append(UnitWord({uid: 1}, embedding=ctx.units[uid]))
    return out


def _integral_power(word: UnitWord, ctx: UnitContext, k: int) -> OcticElem:
    """word^(2^k) = prod eps_uid^(e*2^k) by exact multiplication, for k at
    least the word's depth; a negative power goes through octic_inv."""
    z = OcticElem.one(ctx.key)
    for uid, e in word.exponents.items():
        e = e * (1 << k)
        if e.denominator != 1:
            raise InternalInconsistencyError("scaled exponent not integral")
        z = octic_mul(z, ctx.units[uid] ** int(e))
    return z


def word_embed(word: UnitWord, pair: PrimePair) -> OcticElem:
    """Exact embedding of a formal word into K.

    The integer-exponent part is assembled by exact multiplication; each
    halving step extracts the canonical square root (positive under the
    all-positive embedding). A missing root means the word lies outside E_K.
    """
    if word._embedding is not None:
        return word._embedding
    depth = word.depth
    ctx = unit_context(pair)
    z = _integral_power(word, ctx, depth)
    for level in range(depth):
        xi = ctx.sqrt(z)
        if xi is None:
            sub = UnitWord({uid: e * (1 << level)
                            for uid, e in word.exponents.items()})
            raise RootMissingError(sub.render())
        z = xi
    word._embedding = z
    return z


def _product_of(gens_elems: list[OcticElem], vector: int, pair_key) -> OcticElem:
    prod = OcticElem.one(pair_key)
    for i, g in enumerate(gens_elems):
        if vector >> i & 1:
            prod = octic_mul(prod, g)
    return prod


# -- the quadratic-character sieve --------------------------------------------
#
# A unit square y^2 is totally positive, and stays a square under each of the
# 8 ring maps O_K -> F_l of a split prime l. So the F2 row of a unit (its 8
# negative-embedding bits, then per split prime 8 Legendre bits) is a
# homomorphism that vanishes on squares: a product of generators whose rows do
# not XOR to zero is no square, and sqrt_exact need not be asked. A bit is
# undefined when l divides a coordinate denominator or the residue is 0; such a
# column is dropped for the whole search, never read as 0, so no square is lost.

def _character_row(ctx: UnitContext, x: OcticElem) -> tuple[int, int]:
    """(bits, undefined) of x: bit i is a negative embedding i, bit 8+8k+i a
    non-residue at the prime above the k-th split prime that flips the roots
    as embedding i flips the radicals; `undefined` marks the Legendre bits
    that do not exist for x."""
    bits = sum(1 << i for i, s in enumerate(octic.sign_vector(x)) if s < 0)
    undefined = 0
    for k, (l, roots) in enumerate(ctx.primes):
        shift = 8 + 8 * k
        # in canonical form den is the lcm of the coordinate denominators
        if x.den % l == 0:
            undefined |= 0xFF << shift
            continue
        inv = pow(x.den, -1, l)
        vals = [n * inv * r % l for n, r in zip(x.num, roots)]
        # Walsh-Hadamard butterflies: vals[f] becomes the image under the
        # root choice with flip mask f, the sum of the terms signed by
        # popcount(f & m)
        for b in (1, 2, 4):
            vals = [vals[m] + vals[m | b] if not m & b else vals[m ^ b] - vals[m]
                    for m in range(8)]
        for i, flips in enumerate(octic._EMB_FLIPS):
            v = vals[flips] % l
            if v == 0:
                undefined |= 1 << (shift + i)
            elif pow(v, (l - 1) // 2, l) != 1:
                bits |= 1 << (shift + i)
    return bits, undefined


def _square_candidates(rows: list[tuple[int, int]]) -> list[int]:
    """The nonzero exponent vectors whose products may be squares, smallest
    support first, then numeric: the span of the left kernel of the rows
    restricted to the columns defined for all the generators."""
    keep = -1
    for _, undefined in rows:
        keep &= ~undefined
    span = [0]
    for v in f2_eliminate([bits & keep for bits, _ in rows])[1]:
        span += [w ^ v for w in span]
    return sorted(span[1:], key=lambda v: (v.bit_count(), v))


def saturate(pair: PrimePair,
             generators: list[UnitWord] | None = None,
             restrict_support: frozenset[int] | None = None) -> SaturationResult:
    """2-saturate the generator set; returns m with q = 2^m.

    Deterministic: products are enumerated smallest-support-first in a fixed
    numeric order and the lowest-indexed odd-exponent non-torsion generator
    is replaced by the witnessed root. restrict_support confines the search
    to a subfield (roots must be supported on the given basis masks), which
    computes the unit index of an intermediate field such as Q(sqrtq, sqrt2p).
    """
    ctx = unit_context(pair)
    if generators is None:
        gens = base_unit_words(pair)
    else:
        gens = list(generators)
        if not any(w.exponents == {TORSION_ID: Fraction(1)} for w in gens):
            gens = [UnitWord({TORSION_ID: 1}, embedding=ctx.units[TORSION_ID])] + gens
    elems = [word_embed(w, pair) for w in gens]
    rows = [ctx.row(e) for e in elems]
    m = 0
    while True:
        hit = None
        for v in _square_candidates(rows):
            xi = ctx.sqrt(_product_of(elems, v, ctx.key))
            if xi is None:
                continue
            if restrict_support is not None and not xi.support() <= restrict_support:
                continue
            hit = (v, xi)
            break
        if hit is None:
            non_torsion = [(w, e) for w, e in zip(gens, elems)
                           if w.exponents != {TORSION_ID: Fraction(1)}]
            return SaturationResult(m, [w for w, _ in non_torsion],
                                    [e for _, e in non_torsion])
        v, xi = hit
        combined = UnitWord({})
        for i, w in enumerate(gens):
            if v >> i & 1:
                combined = combined * w
        word = combined.sqrt_word()
        if word.depth > MAX_WORD_DEPTH:
            raise InternalInconsistencyError(
                f"unit word {word.render()} has depth above {MAX_WORD_DEPTH}")
        word._embedding = xi
        idx = None
        for i, w in enumerate(gens):
            if v >> i & 1 and w.exponents != {TORSION_ID: Fraction(1)}:
                idx = i
                break
        if idx is None:
            raise InternalInconsistencyError("-1 alone reported as a square")
        gens[idx] = word
        elems[idx] = xi
        rows[idx] = ctx.row(xi)
        m += 1
        if m > SATURATION_GUARD:
            raise InternalInconsistencyError(
                f"saturation exceeded the index guard 2^{SATURATION_GUARD}")


def k5_unit_index(pair: PrimePair) -> int:
    """Saturation exponent of the biquadratic subfield Q(sqrtq, sqrt2p):
    returns m5 with q(k5) = 2^m5. Basis masks allowed: 1, sqrtq, sqrt2p,
    sqrt2pq, i.e. {0, 0b100, 0b011, 0b111}."""
    ctx = unit_context(pair)
    words = [UnitWord({uid: 1}, embedding=ctx.units[uid])
             for uid in ("eq", "e2p", "e2pq")]
    res = saturate(pair, words, restrict_support=frozenset({0, 0b100, 0b011, 0b111}))
    return res.m


def _exact_exponent_det(words: list[UnitWord]) -> Fraction:
    mat = [[w.exponent(uid) for uid in NONTORSION_IDS] for w in words]
    det = Fraction(1)
    n = len(mat)
    for col in range(n):
        piv = None
        for row in range(col, n):
            if mat[row][col] != 0:
                piv = row
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for row in range(col + 1, n):
            f = mat[row][col] * inv
            if f:
                mat[row] = [a - f * b for a, b in zip(mat[row], mat[col])]
    return det


def rank_certificate(words: list[UnitWord], pair: PrimePair) -> bool:
    """Certify exactly that 7 words are multiplicatively independent.

    The seven subfield units generate a subgroup of finite index in E_K
    (Kuroda; H. Wada, 1966), so they are independent. Words in them are then
    independent exactly when their exponent matrix is nonsingular, provided
    each attached element is its word: elem^(2^k) == +-prod eps^(e*2^k) for
    k the word's depth, checked by exact multiplication. A wrong element
    attached to a word fails the second check.
    """
    if len(words) != 7:
        raise TriquadError("rank certificate expects exactly 7 words")
    if _exact_exponent_det(words) == 0:
        return False
    ctx = unit_context(pair)
    for w in words:
        k = w.depth
        target = _integral_power(w, ctx, k)
        if word_embed(w, pair) ** (1 << k) not in (target, -target):
            return False
    return True
