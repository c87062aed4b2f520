"""Independent brute-force oracles; deliberately naive and separate from the
library code paths they check.

The fundamental-unit oracle combines a literal coefficient scan (exhaustive
minimality witness, feasible for small radical coefficients) with the
Chakravala method plus exact root descent for radicands whose least
solution is astronomically large: the minimal coefficient for d = 199 is
1 153 080 099, far outside any feasible scan.

The unsieved saturation is the 2-saturation loop without the character
sieve: every product that passes the sign screen goes to sqrt_exact.
character_row_by_euler is the sieve's row as the library first computed it:
prime by prime, the inverse of the denominator mod each split prime, and
Euler's criterion, one modular power per embedding, where the library
evaluates all split primes at once modulo their product and reads residue
tables.

sign_vector gives the signs of all 8 real embeddings by one tower descent
over every flip mask at once; it is the referee of the library's
one-embedding descent, embedding_sign.

The conjugate-product inverse and norm, and the embedding enclosure, are the
textbook formulas on Fraction coordinates: all 7 (or 8) conjugates multiplied
out, and a sign table built from the embedding order spelled out digit by
digit.

The embedding-reconstruction square root, sqrt_in_field, is a second root
engine kept as an independent cross-check of sqrt_exact: it rounds the
enclosures of fraction_embedding_interval to small-denominator coordinates
and verifies by exact squaring; real_embeddings gives those enclosures at a
chosen precision. The library decides signs exactly by tower descent and
keeps no enclosures, so this referee shares no sign code with it.

enumerated_class_number is the cycle count as the library first computed
it: every divisor of (D - b^2)/4 by trial division by all odd numbers, each
sign of a tested by the real-number reduction condition, and the walk by
single reduction steps over all reduced forms.

octic_norm_tables is the relative-norm table check as the library first
made it: per entry an automorphic image, a reduced product
(norm_to_subfield) and a power of the row's unit, all as OcticElem, where the
library computes each norm in closed form from the element's two terms.
unscreened_classify_pair is classify_pair with every square equation asked
of sqrt_exact, where the library first refutes most of them by character
rows.

cf_pell_unit_full_walk is the Pell unit as the library first computed it:
the continued fraction of sqrt d walked over its whole period, where the
library stops at the middle and squares or multiplies the convergents there.

IDENTITY, CASE_REPRESENTATIVES, coords, scale, coord_bit_size,
subfield_unit_words and verified_context are test helpers that the library
itself has no use for.
"""

import logging
import math
from fractions import Fraction

from triquad import theorems
from triquad.errors import InternalInconsistencyError, TriquadError
from triquad.octic import (_EMB_FLIPS, OcticElem, _radicals, _reduced,
                           _square_minus, norm_to_subfield, octic_mul,
                           octic_prod, sqrt_exact)
from triquad.unit_lattice import (NONTORSION_IDS, TORSION_ID, UnitContext,
                                  UnitWord, k5_unit_index, saturate)

logger = logging.getLogger(__name__)

DEFAULT_PRECISION = 256
MAX_PRECISION = 4096
ROOT_DENOM_BOUND = 16

IDENTITY = 0  # the flip mask of the identity automorphism

# one representative per (case, norm branch) found by scanning the
# acceptance range; exercises every generator-construction path
CASE_REPRESENTATIVES = [
    (41, 7, "C0", -1), (17, 7, "C0", 1),
    (113, 439, "C1", -1), (17, 191, "C1", 1),
    (41, 431, "C2", -1), (17, 47, "C2", 1),
    (41, 23, "C3", -1), (17, 239, "C3", 1),
    (313, 463, "C4", -1), (17, 223, "C4", 1),
    (41, 223, "C5", -1), (257, 79, "C5", 1),
    (457, 463, "C6", -1), (17, 103, "C6", 1),
    (41, 103, "C7", -1), (17, 359, "C7", 1),
    (313, 151, "C8", -1), (17, 127, "C8", 1),
    (113, 7, "C9", -1), (73, 383, "C9", 1),
]


def coords(x: OcticElem) -> tuple[Fraction, ...]:
    """The 8 coordinates of x as Fractions."""
    return tuple(Fraction(n, x.den) for n in x.num)


def num_den(values) -> tuple[list[int], int]:
    """8 rational coordinates (ints or Fractions) as the (num, den) that
    OcticElem takes: the numerators over the lcm of the denominators."""
    fs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fs))
    return [f.numerator * (den // f.denominator) for f in fs], den


def scale(x: OcticElem, v) -> OcticElem:
    """x times the rational v, through the library's canonical reduction."""
    f = Fraction(v)
    return _reduced(x.pair, [c * f.numerator for c in x.num], x.den * f.denominator)


def coord_bit_size(x: OcticElem) -> int:
    """Largest bit length among the numerators and the shared denominator.

    Never below the largest bit length of a reduced coordinate's numerator
    or denominator, which divide these."""
    return max(x.den, *map(abs, x.num)).bit_length()


class PrecisionExhaustedError(TriquadError):
    """Neither a verified result nor a certified rejection was reached at the
    configured precision cap."""


def legendre_by_enumeration(a: int, p: int) -> int:
    residues = {x * x % p for x in range(1, p)}
    a %= p
    if a == 0:
        return 0
    return 1 if a in residues else -1


def character_row_by_euler(ctx, x: OcticElem) -> tuple[int, int]:
    """(bits, undefined) of unit_lattice._character_row, by Euler's criterion:
    bit 8k+i for embedding i at the k-th split prime."""
    bits = undefined = 0
    for k, (l, roots) in enumerate(ctx.primes):
        shift = 8 * k
        if x.den % l == 0:
            undefined |= 0xFF << shift
            continue
        inv = pow(x.den, -1, l)
        vals = [n * inv * r % l for n, r in zip(x.num, roots)]
        for b in (1, 2, 4):
            vals = [vals[m] + vals[m | b] if not m & b else vals[m ^ b] - vals[m]
                    for m in range(8)]
        for i, flips in enumerate(_EMB_FLIPS):
            v = vals[flips] % l
            if v == 0:
                undefined |= 1 << (shift + i)
            elif pow(v, (l - 1) // 2, l) != 1:
                bits |= 1 << (shift + i)
    return bits, undefined


def _signs(num, rad: tuple[int, ...]) -> list[int]:
    """Signs of sum num[m]*sqrt(rad[m]) under each flip mask f < len(num),
    at index f; 0 for the zero element. Where a and b of x = a + b*sqrt(t)
    have the same sign, or one is 0, that is the sign of x; otherwise it is
    sign(a) * sign(a^2 - t*b^2)."""
    h = len(num) // 2
    if not h:
        return [(num[0] > 0) - (num[0] < 0)]
    a, b = num[:h], num[h:]
    sa = _signs(a, rad)
    if not any(b):
        return sa + sa
    sb = _signs(b, rad)
    sn = None
    plus, minus = [], []
    for f in range(h):
        s, u = sa[f], sb[f]
        if not s or not u:
            plus.append(s or u)
            minus.append(s or -u)
            continue
        if sn is None:
            sn = _signs(_square_minus(a, b, rad[h], rad), rad)
        d = s * sn[f]
        plus.append(s if s == u else d)
        minus.append(d if s == u else s)
    return plus + minus


def sign_vector(x: OcticElem) -> tuple[int, ...]:
    """Exact signs of all 8 real embeddings of a nonzero element, by descent
    through the quadratic tower. The denominator is positive, so the signs
    are those of the numerators."""
    if x.is_zero:
        raise TriquadError("sign of the zero element")
    s = _signs(x.num, _radicals(x.pair))
    return tuple(s[f] for f in _EMB_FLIPS)


def squarefree_numbers(limit: int) -> list[int]:
    out = []
    for d in range(2, limit + 1):
        if all(d % (k * k) for k in range(2, math.isqrt(d) + 1)):
            out.append(d)
    return out


def _unit_less_than(u, v, d) -> bool:
    """(a1+b1 sqrt d)/den1 < (a2+b2 sqrt d)/den2, exactly."""
    a1, b1, den1 = u
    a2, b2, den2 = v
    lhs = a1 * den2 - a2 * den1          # lhs + rhs*sqrt(d) < 0 ?
    rhs = b1 * den2 - b2 * den1
    if lhs >= 0 and rhs >= 0:
        return False
    if lhs <= 0 and rhs <= 0:
        return not (lhs == 0 and rhs == 0)
    if lhs < 0:
        return rhs * rhs * d < lhs * lhs
    return lhs * lhs < rhs * rhs * d


def scan_fundamental_unit(d: int, coeff_bound: int) -> tuple[int, int, int, int] | None:
    """Exhaustive minimal-unit search over ascending radical coefficient.
    Returns (a, b, denom, norm), or None when no unit has b <= coeff_bound."""
    best = None
    t = 0
    while t < coeff_bound:
        t += 1
        candidates = []
        if d % 4 == 1 and t % 2 == 1:
            for s in (4, -4):
                a2 = d * t * t + s
                if a2 > 0:
                    a = math.isqrt(a2)
                    if a * a == a2 and a % 2 == 1:
                        candidates.append((a, t, 2, s // 4))
        for s in (1, -1):
            a2 = d * t * t + s
            if a2 > 0:
                a = math.isqrt(a2)
                if a * a == a2:
                    candidates.append((a, t, 1, s))
        for c in candidates:
            if best is None or _unit_less_than(c[:3], best[:3], d):
                best = c
        if best is not None:
            # stop once every future candidate exceeds the best:
            # (t+1) sqrt(d)/2 > (a + b sqrt d)/den
            a, b, den, _ = best
            tt = (t + 1) * den - 2 * b
            if tt > 0 and tt * tt * d > 4 * a * a:
                return best
    return None


def cf_pell_unit_full_walk(d: int) -> tuple[int, int, int]:
    """(x, y, norm) of the least unit > 1 of Z[sqrt d], d > 1 not a square,
    from the convergent just before the first period of the continued
    fraction of sqrt d closes (Q == 1): the least solution of
    x^2 - d y^2 = (-1)^period."""
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
    assert n == (-1) ** period, (d, period, n)
    return p1, q1, n


def chakravala(d: int) -> tuple[int, int]:
    """Least solution of x^2 - d y^2 = 1 by the Chakravala cyclic method."""
    m0 = math.isqrt(d)
    a, b = m0, 1
    k = a * a - d
    if k == 0:
        raise ValueError("d is a square")
    while k != 1:
        ak = abs(k)
        # m with a + b m ≡ 0 mod |k|, |m^2 - d| minimal
        binv = pow(b % ak, -1, ak)
        m_res = (-a * binv) % ak
        base = (m0 - m_res) // ak * ak + m_res
        best_m = None
        for mm in (base, base + ak):
            if mm <= 0:
                continue
            if best_m is None or abs(mm * mm - d) < abs(best_m * best_m - d):
                best_m = mm
        m = best_m
        a, b, k = ((a * m + d * b) // ak, (a + b * m) // ak, (m * m - d) // k)
        a, b = abs(a), abs(b)
    assert a * a - d * b * b == 1
    return a, b


def _kth_root_in_order(x: int, y: int, d: int, k: int) -> tuple[int, int, int, int] | None:
    """Exact k-th root of x + y sqrt(d) inside the maximal order, if any.

    Works on traces: if eps = (T + B sqrt d)/2 then Tr(eps^k) = V_k(T, n)
    with the Lucas V-recurrence, so T is pinned by an integer k-th root.
    Returns (a, b, denom, norm) or None.
    """
    target_trace = 2 * x
    for n in (1, -1):
        # T ~ (2x)^(1/k); search a tiny window around the integer root
        t0 = _integer_kth_root(target_trace, k)
        for T in range(max(1, t0 - 2), t0 + 3):
            # V_k(T, n) via the recurrence
            v0, v1 = 2, T
            for _ in range(k - 1):
                v0, v1 = v1, T * v1 - n * v0
            if v1 != target_trace:
                continue
            num = T * T - 4 * n
            if num <= 0 or num % d:
                continue
            b2 = num // d
            B = math.isqrt(b2)
            if B * B != b2:
                continue
            if (T - B) % 2:
                continue
            if T % 2 == 0:
                cand = (T // 2, B // 2, 1, n)
            elif d % 4 == 1:
                cand = (T, B, 2, n)
            else:
                continue
            if _power_equals(cand, k, x, y, d):
                return cand
    return None


def _integer_kth_root(n: int, k: int) -> int:
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def _power_equals(cand, k, x, y, d) -> bool:
    a, b, den, _ = cand
    ra, rb, rden = 1, 0, 1
    for _ in range(k):
        ra, rb = ra * a + rb * b * d, ra * b + rb * a
        rden *= den
        while ra % 2 == 0 and rb % 2 == 0 and rden % 2 == 0:
            ra, rb, rden = ra // 2, rb // 2, rden // 2
    return (ra, rb, rden) == (x, y, 1)


def chakravala_fundamental_unit(d: int) -> tuple[int, int, int, int]:
    """Fundamental unit of the maximal order from the least Pell solution:
    descend by exact square and cube roots (the unit index over <u1> divides
    6) until no further root exists."""
    x, y = chakravala(d)
    a, b, den, n = x, y, 1, 1
    progress = True
    while progress:
        progress = False
        for k in (2, 3):
            if den == 2:
                # roots of half-integer elements do not occur further down
                r = None
            else:
                r = _kth_root_in_order(a, b, d, k)
            if r is not None:
                a, b, den, n = r
                progress = True
                break
    return a, b, den, n


def brute_force_fundamental_unit(d: int, coeff_bound: int = 20000) -> tuple[int, int, int, int]:
    """Minimal unit > 1 of the maximal order of Q(sqrt d), independently of
    the library: exhaustive scan when feasible, Chakravala descent beyond,
    and agreement enforced where both apply."""
    scanned = scan_fundamental_unit(d, coeff_bound)
    descended = chakravala_fundamental_unit(d)
    if scanned is not None:
        assert scanned == descended, (d, scanned, descended)
        return scanned
    return descended


def zsqrt_unit(d: int) -> tuple[int, int, int]:
    """(x, y, norm) of the least unit > 1 of Z[sqrt d] from the brute-force
    fundamental unit eps: eps itself, or eps^3 when eps is half-integral
    (then eps^2 is half-integral too, and N(eps^3) = N(eps)), which happens
    only for d = 5 mod 8."""
    a, b, den, norm = brute_force_fundamental_unit(d)
    if den == 1:
        return a, b, norm
    assert d % 8 == 5, (d, a, b)
    x, rx = divmod(a ** 3 + 3 * a * b * b * d, 8)
    y, ry = divmod(3 * a * a * b + b ** 3 * d, 8)
    assert rx == ry == 0, (d, a, b)
    return x, y, norm


def subfield_unit_words(ctx: UnitContext):
    """The seven subfield units of the context's pair as words, each made
    with its unit."""
    return [UnitWord(quarters={uid: 4}, elem=ctx.units[uid]) for uid in NONTORSION_IDS]


def verified_context(pair) -> UnitContext:
    """A UnitContext of the pair after the stages of verify_pair that ask it
    for roots: classification, the prescribed system, the unit index,
    re-saturation and, where (p/q) = -1, the k5 index."""
    cc = theorems.ClassificationContext(pair)
    words = theorems.unit_generators(theorems.classify_pair(cc), cc)
    theorems.unit_index(cc)
    saturate(cc, words)
    if pair.legendre_pq == -1:
        k5_unit_index(cc)
    return cc


def unsieved_saturation(ctx: UnitContext, generators=None, restrict_support=None):
    """Reference 2-saturation with the sign screen only, from the subfield
    units by default; returns m, the non-torsion words and, apart, their
    elements."""
    torsion = {TORSION_ID: 4}
    gens = subfield_unit_words(ctx) if generators is None else list(generators)
    if not any(w.quarters == torsion for w in gens):
        gens = [UnitWord(quarters=torsion, elem=ctx.units[TORSION_ID])] + gens
    elems = [w.elem for w in gens]
    order = sorted(range(1, 1 << len(gens)), key=lambda v: (bin(v).count("1"), v))
    m = 0
    while True:
        neg = [sum(1 << i for i, s in enumerate(sign_vector(e)) if s < 0)
               for e in elems]
        for v in order:
            chosen = [i for i in range(len(gens)) if v >> i & 1]
            signs = 0
            for i in chosen:
                signs ^= neg[i]
            if signs:
                continue
            prod = OcticElem.one(ctx.pair)
            for i in chosen:
                prod = octic_mul(prod, elems[i])
            root = sqrt_exact(prod)
            if root is not None and (restrict_support is None
                                     or root.support() <= restrict_support):
                break
        else:
            kept = [i for i, w in enumerate(gens) if w.quarters != torsion]
            return m, [gens[i] for i in kept], [elems[i] for i in kept]
        counts = {}
        for i in chosen:
            for uid, c in gens[i].quarters.items():
                if uid != TORSION_ID:
                    counts[uid] = counts.get(uid, 0) + c
        assert all(c % 2 == 0 for c in counts.values()), counts
        word = UnitWord(quarters={uid: c // 2 for uid, c in counts.items()}, elem=root)
        idx = next(i for i in chosen if gens[i].quarters != torsion)
        gens[idx], elems[idx] = word, root
        m += 1


# -- referees of the norm tables and of classification -----------------------

def octic_norm_tables(cc: "theorems.ClassificationContext") -> list[tuple[str, bool]]:
    """verify_norm_tables by OcticElem arithmetic: each relative norm is
    x * sigma(x) by norm_to_subfield, compared with +- a power of the row's
    unit made by **."""
    T = theorems
    pair = cc.pair
    units, dec = cc.units, cc.decompositions
    rows = [("base-units", uid,
             units[uid] if uid in ("e2", "ep") else cc.roots[uid], T._SIGMAS_6, row)
            for uid, row in T._TABLE_BASE.items()]
    rows += [("product-units", "e2pq", cc.roots["e2pq"], T._SIGMAS,
              T._TABLE_2PQ[dec[2 * pair.p * pair.q].kind]),
             ("product-units", "epq", cc.roots["epq"], T._SIGMAS,
              T._TABLE_PQ[dec[pair.p * pair.q].kind])]
    if cc.norm_eps2p == 1:
        rows.append(("half-2p-unit", "e2p", cc.roots["e2p"], T._SIGMAS,
                     T._TABLE_HALF_2P[cc.u_bit]))
    exponents = {"1": 0, "E": 1, "E2": 2}
    checks = []
    for table, uid, elem, sigmas, row in rows:
        for sigma, entry in zip(sigmas, row.split()):
            value = units[uid] ** exponents[entry.lstrip("-")]
            if entry[0] == "-":
                value = -value
            checks.append((f"{table}:{uid}:{T._sigma_name(sigma)} expected {entry}",
                           norm_to_subfield(sigma, elem) == value))
    return checks


def unscreened_classify_pair(cc: "theorems.ClassificationContext") -> "theorems.CaseTag":
    """classify_pair with every tested square equation asked of sqrt_exact."""
    T = theorems
    pair = cc.pair
    x_class = cc.decompositions[2 * pair.p * pair.q].kind
    v_class = cc.decompositions[pair.p * pair.q].kind
    case = "C0" if pair.legendre_pq == -1 else T.CASE_GRID[(x_class, v_class)]
    resolution, witnesses = {}, {}
    for eq in T.CASE_PLANS[case, cc.norm_eps2p]:
        if isinstance(eq, str) or eq.witness is None:
            continue
        prefixes = [(0, 0)]
        if eq.prefixed:
            a = resolution["a"] = (cc.u_bit + 1) % 2
            prefixes = [(a, cc.u_bit), (a, a)]
        hits = [ab for ab in prefixes if sqrt_exact(
            octic_prod(cc.pair, cc.equation_factors(eq.tail, ab))) is not None]
        assert len(hits) <= 1 and (hits or eq.keys), (pair, eq.witness, hits)
        witnesses[eq.witness] = hits[0] if hits else None
        if eq.keys:
            hit, miss = eq.keys
            resolution[hit], resolution[miss] = len(hits), 1 - len(hits)
    return T.CaseTag(legendre_pq=pair.legendre_pq, norm_eps2p=cc.norm_eps2p,
                     x_class=x_class, v_class=v_class, case=case, u_bit=cc.u_bit,
                     v_sign=cc.v_sign, resolution=resolution, prefix_witnesses=witnesses)


# -- Fraction-coordinate arithmetic in K -------------------------------------

def _radical(pair, mask: int) -> int:
    p, q = pair
    return math.prod(r for bit, r in enumerate((2, p, q)) if mask >> bit & 1)


def fraction_mul(pair, x: tuple, y: tuple) -> tuple:
    """Product of two Fraction coordinate tuples on the radical basis."""
    c = [Fraction(0)] * 8
    for s in range(8):
        for t in range(8):
            c[s ^ t] += x[s] * y[t] * _radical(pair, s & t)
    return tuple(c)


def _conjugate(x: tuple, signs: tuple) -> tuple:
    """x under sqrt2, sqrtp, sqrtq -> signs[0] sqrt2, signs[1] sqrtp, ..."""
    out = []
    for mask in range(8):
        s = 1
        for bit in range(3):
            if mask >> bit & 1:
                s *= signs[bit]
        out.append(x[mask] * s)
    return tuple(out)


_ALL_SIGNS = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]


def conjugate_product_norm(x: OcticElem) -> Fraction:
    """Product of all 8 conjugates of x."""
    acc = (Fraction(1),) + (Fraction(0),) * 7
    for signs in _ALL_SIGNS:
        acc = fraction_mul(x.pair, acc, _conjugate(coords(x), signs))
    assert all(c == 0 for c in acc[1:]), acc
    return acc[0]


def conjugate_product_inverse(x: OcticElem) -> tuple:
    """Coordinates of 1/x: the 7 nontrivial conjugates over the norm."""
    acc = (Fraction(1),) + (Fraction(0),) * 7
    for signs in _ALL_SIGNS[1:]:
        acc = fraction_mul(x.pair, acc, _conjugate(coords(x), signs))
    norm = fraction_mul(x.pair, coords(x), acc)[0]
    return tuple(c / norm for c in acc)


def _sqrt_enclosure(n: int, bits: int) -> tuple[int, int]:
    """lo, hi with lo/2^bits <= sqrt(n) <= hi/2^bits."""
    lo = math.isqrt(n << (2 * bits))
    return lo, lo + 1


def fraction_embedding_interval(x: OcticElem, emb: int, bits: int) -> tuple[int, int]:
    """Outward-rounded enclosure, scaled by 2^bits, of real embedding emb:
    the embeddings run through the sign triples of (sqrt2, sqrtp, sqrtq) in
    lexicographic order +++, ++-, +-+, ..., and each coordinate c multiplies
    [isqrt(r 4^bits), isqrt(r 4^bits) + 1]."""
    signs = _ALL_SIGNS[emb]
    lo_acc = hi_acc = 0
    for mask, c in enumerate(_conjugate(coords(x), signs)):
        if c == 0:
            continue
        rl, rh = _sqrt_enclosure(_radical(x.pair, mask), bits)
        if c > 0:
            lo_acc += math.floor(c * rl)
            hi_acc += math.ceil(c * rh)
        else:
            lo_acc += math.floor(c * rh)
            hi_acc += math.ceil(c * rl)
    return lo_acc, hi_acc


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
    cb = coord_bit_size(x)
    margin = precision
    while True:
        bits = margin // 2 + cb + 32
        embs = [fraction_embedding_interval(x, i, bits) for i in range(8)]
        if any(hi < 0 for _, hi in embs):
            logger.debug("sqrt_in_field: rejected, certified negative embedding")
            return None
        if any(lo <= 0 for lo, _ in embs):
            undecided = True  # an enclosure straddles zero
        else:
            undecided = False
            roots = [(math.isqrt(lo << bits), math.isqrt(hi << bits) + 1)
                     for lo, hi in embs]
            rads = {m: _sqrt_enclosure(_radical(x.pair, m), bits) for m in range(8)}
            for pattern in range(128):
                signs = [1] + [1 - 2 * (pattern >> k & 1) for k in range(7)]
                cand_coords = []
                ok = True
                for m in range(8):
                    nl = nh = 0
                    for i in range(8):
                        s = -signs[i] if (_EMB_FLIPS[i] & m).bit_count() & 1 else signs[i]
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
                    xi = OcticElem(x.pair, *num_den(cand_coords))
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


def real_embeddings(x: OcticElem, precision: int = DEFAULT_PRECISION) -> list[tuple[Fraction, Fraction]]:
    """Certified enclosures of the 8 real embeddings, width <= 2^(-precision/2)."""
    if precision < 64:
        raise TriquadError("precision must be at least 64 bits")
    bits = precision // 2 + coord_bit_size(x) + 8
    out = []
    for i in range(8):
        lo, hi = fraction_embedding_interval(x, i, bits)
        out.append((Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)))
    return out


def _divisors(n: int) -> list[int]:
    fac: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            fac[d] = fac.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        fac[m] = fac.get(m, 0) + 1
    divs = [1]
    for prime, mult in fac.items():
        divs = [v * prime ** k for v in divs for k in range(mult + 1)]
    return divs


def _is_reduced(a: int, b: int, D: int) -> bool:
    # reduced indefinite form: 0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b
    if b <= 0 or b * b >= D:
        return False
    ta = 2 * abs(a)
    if D >= (ta + b) * (ta + b):
        return False
    if ta <= b:
        return True
    return (ta - b) * (ta - b) < D


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


def enumerated_class_number(D: int) -> int:
    """Cycle count of reduced indefinite forms of fundamental discriminant D."""
    if D <= 0 or D % 4 not in (0, 1):
        raise TriquadError(f"not a positive discriminant: {D}")
    rD = math.isqrt(D)
    forms = set()
    b = D & 1
    if b == 0:
        b = 2
    while b <= rD:
        n4 = D - b * b
        if n4 % 4 == 0:
            n = n4 // 4  # forms (a, b, c) with -ac = n
            for a in _divisors(n):
                for aa in (a, -a):
                    if _is_reduced(aa, b, D):
                        forms.add((aa, b, (b * b - D) // (4 * aa)))
        b += 2
    seen: set[tuple[int, int, int]] = set()
    cycles = 0
    for f in forms:
        if f in seen:
            continue
        cycles += 1
        g = f
        while True:
            seen.add(g)
            g = _rho(g, D, rD)
            if g == f:
                break
            if g not in forms:
                raise InternalInconsistencyError(
                    f"reduction step left the reduced set at discriminant {D}")
    return cycles
