"""Formal unit words, the quadratic-character sieve, and 2-saturation.

The multiplicative group generated by the seven quadratic-subfield
fundamental units (with -1) is saturated by repeatedly replacing a generator
with the square root of a product that turns out to be a square in K; the
number of replacement steps m gives the unit index q(K) = 2^m.

Saturation may start from any set S of units of K with E_0 in <S, -1>.
Then [E_K : <S, -1>] is a power of 2, and while it is not 1 some u outside
has u^2 in <S, -1>, a product with an odd exponent on some non-torsion
generator (else u would be +-1 times a product of generators): so
saturation from S ends at E_K, and q(K) = 2^(k+m) for [<S, -1> : E_0] =
2^k. theorems.unit_index seeds with the k = 4 or 5 checked half-unit roots
sqrt(eps_uid) in place of their units. The quarter counts of S are then
diagonal, k entries 2 and 7 - k entries 4, against 4 for each unit of E_0,
so the index is 4^7 / (2^k 4^(7-k)) = 2^k exactly.

Both guards of the saturation are proved. For commuting involutions sigma,
tau of a field and the norms N_g(u) = u g(u) to the fixed fields,
    u^2 = N_sigma(u) N_tau(u) / sigma(N_sigma.tau(u))
for every unit u (Kuroda; H. Wada, 1966), and each factor is a unit of a
fixed field. Applied twice, from K to its quartic subfields and from those
to their quadratic subfields, it gives E_K^4 in E_0, the group of -1 and the
seven subfield units. So the index [E_K : E_0] divides
[E_K : E_K^4 <-1>] = 4^7 = 2^14, and as each step doubles the index,
k + m <= SATURATION_GUARD = 14. And u^4 in E_0 puts every exponent of a word in
(1/4)Z, so words count their exponents in quarters: no word has depth above
MAX_WORD_DEPTH = 2, and halving an odd count is the error that a depth-3
word would raise. The 144-pair range p <= 300, q <= 200 reaches depth 2 and
m = 7.

The index of a system W of seven unit words follows from its 7x7 matrix Q
of quarter counts. Read E_K / <-1> as a lattice with the formal fourth
roots of the seven subfield units as coordinate basis: E_0 is 4Z^7, of
covolume 4^7, E_K has index 2^m over it, so covolume 4^7 / 2^m, and
<W, -1> has covolume |det Q| once each word's element is checked to be its
word (rank_certificate). Hence
    [E_K : <W, -1>] = |det Q| 2^m / 4^7,
and W is a fundamental system exactly when |det Q| 2^m = 4^7: an odd index,
which neither the rank certificate nor re-saturation sees, fails this.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import octic
from .arith import PrimePair, f2_eliminate, ratio_str, sqrt_table, symbol_primes
from .errors import InternalInconsistencyError, TriquadError
from .octic import OcticElem, embed_quadratic, octic_prod, sqrt_exact
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
    """A formal product of base units, each exponent held as an int count of
    quarters (the module docstring proves every exponent lies in (1/4)Z),
    made together with its exact element `elem` of K.

    The torsion count (key "-1") is kept in {0, 4}; the other counts are
    non-negative, as every word of the library is a product of subfield units
    and roots of such products. The elements come from the checked half-unit
    roots, the square roots of the case plan and the roots that saturation
    witnesses; rank_certificate checks each against its word. Equality and
    hashing compare the counts only.
    """

    __slots__ = ("quarters", "elem")

    def __init__(self, *, quarters: dict[str, int], elem: OcticElem):
        counts: dict[str, int] = {}
        for uid, c in quarters.items():
            if uid not in BASE_UNIT_IDS:
                raise TriquadError(f"unknown base unit id {uid!r}")
            if type(c) is not int:
                raise TriquadError(f"quarter count {c!r} is not an int")
            if uid == TORSION_ID:
                if c % 4:
                    raise TriquadError("torsion exponent must be an integer")
                c %= 8
            elif c < 0:
                raise TriquadError(f"negative exponent in {uid}^{ratio_str(c, 4)}")
            if c:
                counts[uid] = c
        self.quarters = counts
        self.elem = elem

    def __eq__(self, other) -> bool:
        return isinstance(other, UnitWord) and self.quarters == other.quarters

    def __hash__(self):
        return hash(tuple(sorted(self.quarters.items())))

    @property
    def depth(self) -> int:
        """Largest halving depth: 0, 1 or 2 as 4, 2 or only 1 divides every
        count."""
        low = 4
        for c in self.quarters.values():
            low |= c
        return 3 - (low & -low).bit_length()

    def render(self) -> str:
        return render_quarters(self.quarters)

    def __repr__(self):
        return f"UnitWord({self.render()})"


def render_quarters(quarters: dict[str, int]) -> str:
    """The word of quarter counts as text, such as "-1 * e2^1/2 * eq": the
    base units in order, zero counts left out."""
    parts = [uid if c == 4 else f"{uid}^{ratio_str(c, 4)}"
             for uid in BASE_UNIT_IDS if (c := quarters.get(uid))]
    return " * ".join(parts) or "1"


class SaturationResult(NamedTuple):
    m: int
    words: list[UnitWord]        # the 7 non-torsion fundamental words


class UnitContext:
    """One pair's quadratic units, as (x, y, norm) triples and in K, the
    split primes of the saturation sieve, and memos of the character rows
    and square roots that the stages ask for, all made from its PrimePair
    `pair`. theorems.ClassificationContext extends it to the one object of
    a pair, which the caller makes and passes to every stage; nothing else
    keeps it, so the memos live as long as one verification of the pair."""

    def __init__(self, pair: PrimePair):
        self.pair = pair
        self.triples: dict[str, tuple[int, int, int]] = {}
        self.units: dict[str, OcticElem] = {TORSION_ID: -OcticElem.one(pair)}
        for uid, d, primes in zip(NONTORSION_IDS, pair.radicands, pair.radicand_primes):
            x, y, _ = self.triples[uid] = fundamental_unit(d, primes)
            self.units[uid] = embed_quadratic(d, x, y, pair)
        self.primes = symbol_primes((2, pair.p, pair.q), (1, 1, 1), SPLIT_PRIMES)
        # the character rows read every split prime from one image modulo
        # their product: crt_roots[mask] is roots[mask] mod each prime
        self.modulus = M = math.prod(l for l, _ in self.primes)
        # the CRT basis: (M // l) * ((M // l)^-1 mod l), one per split prime
        basis = [(M // l) * pow(M // l, -1, l) for l, _ in self.primes]
        self.crt_roots = tuple(
            sum(roots[m] * e for e, (_, roots) in zip(basis, self.primes)) % M
            for m in range(8))
        self.tables = tuple((8 * k, l, sqrt_table(l))
                            for k, (l, _) in enumerate(self.primes))
        self.rows: dict[OcticElem, tuple[int, int]] = {}
        self.sqrts: dict[OcticElem, OcticElem | None] = {}

    def row(self, x: OcticElem) -> tuple[int, int]:
        # one lookup: hashing an element hashes its 8 numerators
        r = self.rows.get(x)
        if r is None:
            r = self.rows[x] = _character_row(self, x)
        return r

    def no_square(self, factors: list[OcticElem]) -> bool:
        """True when the rows of the factors show that their product is no
        square in K: the bits XOR to nonzero on the columns that every
        factor defines (the sieve comment below)."""
        bits = undefined = 0
        for x in factors:
            b, u = self.row(x)
            bits ^= b
            undefined |= u
        return bool(bits & ~undefined)

    def sqrt(self, x: OcticElem) -> OcticElem | None:
        """sqrt_exact(x), computed once per element; a miss is memoised as
        None, so the memo is read by one lookup that may raise KeyError."""
        try:
            return self.sqrts[x]
        except KeyError:
            y = self.sqrts[x] = sqrt_exact(x)
            return y


# read only by perfbench/unit.py, which calls cache_info() in every repetition
@functools.lru_cache(maxsize=64)
def unit_context(pair: PrimePair) -> UnitContext:
    return UnitContext(pair)


def _integral_power(word: UnitWord, ctx: UnitContext, k: int) -> OcticElem:
    """word^(2^k) = prod eps_uid^(e*2^k) by exact multiplication, for k at
    least the word's depth; every exponent e*2^k is then a natural number."""
    factors = []
    for uid, c in word.quarters.items():
        e, r = divmod(c << k, 4)
        if r:
            raise InternalInconsistencyError("scaled exponent not integral")
        factors.append(ctx.units[uid] ** e)
    return octic_prod(ctx.pair, factors)


def _product_of(gens_elems: list[OcticElem], vector: int, pair: PrimePair) -> OcticElem:
    return octic_prod(pair, [g for i, g in enumerate(gens_elems) if vector >> i & 1])


# -- the quadratic-character sieve --------------------------------------------
#
# A unit square y^2 stays a nonzero square under each of the 8 ring maps
# O_K -> F_l of a split prime l. So the F2 row of a unit (per split prime 8
# Legendre bits) is a homomorphism that vanishes on squares: a product of
# generators whose rows do not XOR to zero is no square, and sqrt_exact need
# not be asked. Fewer columns only widen the left kernel, which still holds
# every square, so the first square in the candidate order does not depend on
# which columns are read. A bit is undefined when l divides a coordinate
# denominator or the residue is 0; such a column is dropped for the whole
# search, never read as 0, so no square is lost. A nonzero residue is a
# non-residue where the square-root table of l holds 0.

def _character_row(ctx: UnitContext, x: OcticElem) -> tuple[int, int]:
    """(bits, undefined) of x: bit 8k+i a non-residue at the prime above the
    k-th split prime that flips the roots as embedding i flips the radicals;
    `undefined` marks the bits that do not exist for x. All split primes are
    evaluated at once modulo their product L, then each image is reduced."""
    L = ctx.modulus
    v0, v1, v2, v3, v4, v5, v6, v7 = (n % L * r for n, r in zip(x.num, ctx.crt_roots))
    # Walsh-Hadamard butterflies on bits 0, 1, 2: vals[f] becomes the image
    # under the root choice with flip mask f, the sum of the terms signed by
    # popcount(f & m)
    v0, v1, v2, v3, v4, v5, v6, v7 = (v0 + v1, v0 - v1, v2 + v3, v2 - v3,
                                      v4 + v5, v4 - v5, v6 + v7, v6 - v7)
    v0, v1, v2, v3, v4, v5, v6, v7 = (v0 + v2, v1 + v3, v0 - v2, v1 - v3,
                                      v4 + v6, v5 + v7, v4 - v6, v5 - v7)
    vals = (v0 + v4, v1 + v5, v2 + v6, v3 + v7, v0 - v4, v1 - v5, v2 - v6, v3 - v7)
    # in canonical form den is the lcm of the coordinate denominators; num/den
    # has the character of num*den, which is 0 mod every l dividing den
    den = x.den % L
    bits = undefined = 0
    for i, flips in enumerate(octic._EMB_FLIPS):
        w = vals[flips] * den % L
        for shift, l, table in ctx.tables:
            v = w % l
            if not v:
                undefined |= 1 << (shift + i)
            elif not table[v]:
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


def saturate(ctx: UnitContext,
             generators: list[UnitWord],
             restrict_support: frozenset[int] | None = None,
             seed_index: int = 0) -> SaturationResult:
    """2-saturate the generator set; returns the number m of steps.

    Deterministic: products are enumerated smallest-support-first in a fixed
    numeric order and the lowest-indexed odd-exponent non-torsion generator
    is replaced by the witnessed root, as a word whose counts are half the
    summed counts of the product, made with that root as its element.
    restrict_support confines the search to a subfield (roots must be
    supported on the given basis masks), which computes the unit index of an
    intermediate field such as Q(sqrtq, sqrt2p). seed_index is k with
    [<generators, -1> : E_0] = 2^k, so that the index 2^(k+m) over E_0 is
    what the guard bounds.
    """
    torsion = UnitWord(quarters={TORSION_ID: 4}, elem=ctx.units[TORSION_ID])
    # -1 first, at bit 0 of every exponent vector; it is never replaced
    gens = [torsion] + [w for w in generators if w != torsion]
    elems = [w.elem for w in gens]
    rows = [ctx.row(e) for e in elems]
    m = 0
    while True:
        if seed_index + m > SATURATION_GUARD:
            raise InternalInconsistencyError(
                f"saturation exceeded the index guard 2^{SATURATION_GUARD}")
        hit = None
        for v in _square_candidates(rows):
            xi = ctx.sqrt(_product_of(elems, v, ctx.pair))
            if xi is None:
                continue
            if restrict_support is not None and not xi.support() <= restrict_support:
                continue
            hit = (v, xi)
            break
        if hit is None:
            return SaturationResult(m, gens[1:])
        v, xi = hit
        rest = v & ~1
        if not rest:
            raise InternalInconsistencyError("-1 alone reported as a square")
        counts: dict[str, int] = {}
        for i, w in enumerate(gens):
            if v >> i & 1:
                for uid, c in w.quarters.items():
                    counts[uid] = counts.get(uid, 0) + c
        # the torsion count is dropped: the witnessed root carries the sign.
        # An odd count would need eighths: a word of depth 3, which E_K^4 in
        # E_0 excludes
        counts.pop(TORSION_ID, None)
        if any(c & 1 for c in counts.values()):
            raise InternalInconsistencyError(
                f"square root of unit word {render_quarters(counts)} has depth "
                f"above {MAX_WORD_DEPTH}")
        idx = (rest & -rest).bit_length() - 1
        gens[idx] = UnitWord(quarters={uid: c >> 1 for uid, c in counts.items()},
                             elem=xi)
        elems[idx] = xi
        rows[idx] = ctx.row(xi)
        m += 1


def k5_unit_index(ctx: UnitContext) -> int:
    """Saturation exponent of the biquadratic subfield Q(sqrtq, sqrt2p):
    returns m5 with q(k5) = 2^m5. Basis masks allowed: 1, sqrtq, sqrt2p,
    sqrt2pq, i.e. {0, 0b100, 0b011, 0b111}."""
    words = [UnitWord(quarters={uid: 4}, elem=ctx.units[uid])
             for uid in ("eq", "e2p", "e2pq")]
    res = saturate(ctx, words, restrict_support=frozenset({0, 0b100, 0b011, 0b111}))
    return res.m


def quarter_determinant(words: list[UnitWord]) -> int:
    """det Q for Q the square matrix of the quarter counts of the words over
    NONTORSION_IDS, by fraction-free elimination (E. H. Bareiss, Math. Comp.
    22, 1968): every division by the previous pivot is exact."""
    if len(words) != len(NONTORSION_IDS):
        raise TriquadError(f"the quarter determinant needs 7 words, got {len(words)}")
    rows = [[w.quarters.get(uid, 0) for uid in NONTORSION_IDS] for w in words]
    n, sign, prev = len(rows), 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top, pk = rows[k], rows[k][k]
        for r in rows[k + 1:]:
            for j in range(k + 1, n):
                r[j] = (r[j] * pk - r[k] * top[j]) // prev
        prev = pk
    return sign * rows[-1][-1]


def rank_certificate(words: list[UnitWord], ctx: UnitContext,
                     det: int | None = None) -> bool:
    """Certify exactly that 7 words are multiplicatively independent.

    The seven subfield units generate a subgroup of finite index in E_K
    (Kuroda; H. Wada, 1966), so they are independent. Words in them are then
    independent exactly when their quarter-count determinant is nonzero,
    provided each word's element is that word: elem^(2^k) == +-prod
    eps^(e*2^k) for k the word's depth, checked by exact multiplication. A
    wrong element made with a word fails the second check. `det`, when
    given, is quarter_determinant(words), which refuses any number of words
    but 7, made once by a caller that also checks the index.
    """
    if not (quarter_determinant(words) if det is None else det):
        return False
    for w in words:
        k = w.depth
        target = _integral_power(w, ctx, k)
        if w.elem ** (1 << k) not in (target, -target):
            return False
    return True
