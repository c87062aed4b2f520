"""Case classification of prime pairs and the prescribed unit systems.

A pair is classified by the Legendre symbol (p/q), the norm of the 2p-unit,
and the square classes of x+1 and v+1 where eps_2pq = x + y sqrt(2pq) and
eps_pq = v + w sqrt(pq). Case "C0" is the (p/q) = -1 family; the (p/q) = +1
families C1..C9 are keyed by the 3x3 grid of (x_class, v_class) over
{1, p, 2p}. The prescribed fundamental system and the closed-form 2-class
number of K follow from the case.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .arith import PrimePair, is_perfect_square, ratio_str
from .errors import InternalInconsistencyError, TriquadError
from .octic import (TAU1, TAU2, TAU3, OcticElem, _radicals, _reduced,
                    norm_to_subfield, octic_mul, octic_prod, radical_mask)
from .unit_lattice import (NONTORSION_IDS, UnitContext, UnitWord,
                           render_quarters, saturate)

KIND_UNIT = "1"
KIND_P = "p"
KIND_2P = "2p"

CASE_GRID = {(KIND_UNIT, KIND_UNIT): "C1", (KIND_UNIT, KIND_P): "C2",
             (KIND_UNIT, KIND_2P): "C3", (KIND_P, KIND_UNIT): "C4",
             (KIND_P, KIND_P): "C5", (KIND_P, KIND_2P): "C6",
             (KIND_2P, KIND_UNIT): "C7", (KIND_2P, KIND_P): "C8",
             (KIND_2P, KIND_2P): "C9"}


class SqrtDecomposition(NamedTuple):
    """Exact data of the square root of a norm +1 unit t + y sqrt(d).

    Exactly one system t + 1 = f+ c+^2, t - 1 = f- c-^2 of the unit's table
    holds, with factors (f+, f-) and cofactors (c+, c-). Then f+ f- = d k^2,
    y = c+ c- k, and sqrt(2 eps) = c+ sqrt(f+) + c- sqrt(f-). kind names the
    factor pair; for d = 2p the u_bit is set instead: the system (1, 2p)
    gives u = 0 and (2p, 1) gives u = 1, so that for sqrt(2 eps_2p) =
    alpha1 + alpha2 sqrt(2p), (alpha1^2 - 2p alpha2^2)/2 = (-1)^u.
    """

    radicand: int
    kind: str
    factors: tuple[int, int]
    cofactors: tuple[int, int]
    u_bit: int | None = None


def _half_unit_systems(p: int, q: int, norm_eps2p: int) -> dict:
    """The systems (kind, f+, f-, u) of each templated unit, by unit id."""
    systems = {
        "eq": ((KIND_UNIT, 1, q, None),),
        "e2q": ((KIND_UNIT, 1, 2 * q, None),),
        "epq": ((KIND_UNIT, 1, p * q, None), (KIND_P, p, q, None),
                (KIND_2P, 2 * p, 2 * q, None)),
        "e2pq": ((KIND_UNIT, 1, 2 * p * q, None), (KIND_P, p, 2 * q, None),
                 (KIND_2P, 2 * p, q, None))}
    if norm_eps2p == 1:
        systems["e2p"] = ((KIND_UNIT, 1, 2 * p, 0), (KIND_UNIT, 2 * p, 1, 1))
    return systems


def decompose_sqrt_data(ctx: UnitContext) -> dict[int, SqrtDecomposition]:
    """Square-root decompositions of eps_q, eps_2q, eps_pq, eps_2pq and,
    when N(eps_2p) = +1, of eps_2p, keyed by radicand, from the unit
    triples of the context. Exactly one system must land for each."""
    pair = ctx.pair
    radicand = dict(zip(NONTORSION_IDS, pair.radicands))
    out: dict[int, SqrtDecomposition] = {}
    for uid, systems in _half_unit_systems(pair.p, pair.q, ctx.triples["e2p"][2]).items():
        d = radicand[uid]
        t, y, norm = ctx.triples[uid]
        if norm != 1:
            raise InternalInconsistencyError(f"{uid} is not a unit of norm +1")
        landed = []
        for kind, fplus, fminus, u in systems:
            if (t + 1) % fplus or (t - 1) % fminus:
                continue
            cofactors = (is_perfect_square((t + 1) // fplus),
                         is_perfect_square((t - 1) // fminus))
            if None not in cofactors:
                landed.append(SqrtDecomposition(d, kind, (fplus, fminus), cofactors, u))
        if len(landed) != 1:
            raise InternalInconsistencyError(
                f"{len(landed)} systems landed for radicand {d} of pair "
                f"({pair.p},{pair.q}); expected exactly one")
        dec = landed[0]
        if math.prod(dec.cofactors) * math.isqrt(math.prod(dec.factors) // d) != y:
            raise InternalInconsistencyError(
                f"cofactor product mismatch for radicand {d}")
        out[d] = dec
    return out


def root_from_decomposition(dec: SqrtDecomposition, pair: PrimePair) -> OcticElem:
    """sqrt(eps) = (c+ sqrt(2 f+) + c- sqrt(2 f-))/2 on the basis of K."""
    num = [0] * 8
    for c, f in zip(dec.cofactors, dec.factors):
        s, mask = radical_mask(2 * f, pair)
        num[mask] += s * c
    return _reduced(pair, num, 2)


class ClassificationContext(UnitContext):
    """The one object of a pair: its UnitContext, extended by the
    square-root decompositions, the roots of the base units they give and
    the bits read off them, and the roots of the square equations that
    classify_pair solves, keyed by (tail, prefix), for unit_generators. The
    caller makes it and passes it to every stage, the unit_lattice ones
    included."""

    def __init__(self, pair: PrimePair):
        super().__init__(pair)
        self.equation_roots: dict[tuple[tuple[str, ...], tuple[int, int]], OcticElem] = {}
        self.decompositions = decompose_sqrt_data(self)
        uid_of = dict(zip(pair.radicands, NONTORSION_IDS))
        self.roots: dict[str, OcticElem] = {}
        for d, dec in self.decompositions.items():
            uid, r = uid_of[d], root_from_decomposition(dec, pair)
            unit = self.units[uid]
            if octic_mul(r, r) != unit:
                raise InternalInconsistencyError(f"root template failed for {uid}")
            self.roots[uid] = r
            # c+, c- >= 0 make r positive at the all-positive embedding, so
            # it is the root that sqrt_exact returns: the memo takes it
            self.sqrts[unit] = r
        self.norm_eps2p = self.triples["e2p"][2]
        self.u_bit = None
        self.v_sign = None
        if self.norm_eps2p == 1:
            self.u_bit = self.decompositions[2 * pair.p].u_bit
        else:
            units = self.units
            r = self.sqrt(octic_prod(pair, [units["e2"], units["ep"], units["e2p"]]))
            if r is None:
                raise InternalInconsistencyError(
                    "sqrt(e2 ep e2p) missing although N(eps_2p) = -1")
            self.roots["e2ep2p"] = r
            nrm = norm_to_subfield(TAU2, r)
            if nrm == units["e2"]:
                self.v_sign = 0
            elif nrm == -units["e2"]:
                self.v_sign = 1
            else:
                raise InternalInconsistencyError(
                    "(1+tau2)-norm of sqrt(e2 ep e2p) is not +-e2")

    def equation_factors(self, tail: tuple[str, ...],
                         prefix: tuple[int, int]) -> list[OcticElem]:
        """e2^A, ep^B and the half-roots of the tail, for prefix (A, B)."""
        a_exp, b_exp = prefix
        units = self.units
        return ([units["e2"]] * a_exp + [units["ep"]] * b_exp
                + [self.roots[uid] for uid in tail])


# read only by perfbench/unit.py, which calls cache_info() in every repetition
@functools.lru_cache(maxsize=64)
def classification_context(pair: PrimePair) -> ClassificationContext:
    return ClassificationContext(pair)


def unit_index(cc: ClassificationContext) -> int:
    """m with q(K) = 2^m: 2-saturation from E_0 with the k checked half-unit
    roots in place of their units, whose index over E_0 is 2^k
    (unit_lattice module docstring), so m is k plus the steps from there.
    The seeds come from the square-class decompositions, not the case plan."""
    seeds = [UnitWord(quarters={uid: 2}, elem=cc.roots[uid]) if uid in cc.roots
             else UnitWord(quarters={uid: 4}, elem=cc.units[uid])
             for uid in NONTORSION_IDS]
    k = sum(uid in cc.roots for uid in NONTORSION_IDS)
    return k + saturate(cc, seeds, seed_index=k).m


class CaseTag(NamedTuple):
    """Full classification of a pair, with resolution-bit witnesses; the
    pair itself is the caller's, as a record holds it once."""

    legendre_pq: int
    norm_eps2p: int
    x_class: str
    v_class: str
    case: str
    u_bit: int | None
    v_sign: int | None
    resolution: dict[str, int]
    prefix_witnesses: dict[str, tuple[int, int] | None]

    @property
    def class_number_exponent(self) -> int:
        """e in h2(K) = 2^(e-4) h2(2p) h2(pq) h2(2pq) for the C1..C9 cases:
        the number of resolved square equations of the case plan with a root."""
        if self.case == "C0":
            raise TriquadError("exponent only defined for the C1..C9 cases")
        plan = CASE_PLANS[self.case, self.norm_eps2p]
        return sum(self.resolution[eq.keys[0]] for eq in plan
                   if not isinstance(eq, str) and eq.keys)


class SquareEquation(NamedTuple):
    """The generator sqrt(e2^A ep^B * prod of sqrt(eps_uid), uid in tail).

    witness keys the tag's prefix witness; None leaves the equation untested
    by classify_pair, and its root must exist. When prefixed, the two
    designated prefixes (A, B) = (a, u), (a, a) with a = u + 1 mod 2 are
    tried (the proof form and the statement form of the iff-clause), else
    only (0, 0). keys names the resolution bits (hit, miss), None where the
    root must exist; on a miss the half-root of fallback takes its place.
    """

    witness: str | None
    tail: tuple[str, ...]
    prefixed: bool = False
    keys: tuple[str, str] | None = None
    fallback: str | None = None


_HALVES = ("eq", "e2q", "epq")
_Q_PQ_2P = ("eq", "epq", "e2p")
_2Q_2PQ_2P = ("e2q", "e2pq", "e2p")
_ALL_FOUR = ("eq", "e2q", "epq", "e2pq")
# tails of the prefixed equation of C2..C5, C7, C9 when N(eps_2p) = +1
_PREFIXED_TAILS = {"C2": _2Q_2PQ_2P, "C3": _2Q_2PQ_2P, "C4": _Q_PQ_2P,
                   "C7": _Q_PQ_2P, "C5": _ALL_FOUR + ("e2p",),
                   "C9": ("epq", "e2pq", "e2p")}
# C6 and C8: one of sqrt(eps_q), sqrt(eps_2q) is kept and the other is
# carried by the resolved root, as (kept, carried)
_BARE_HALVES = {"C6": ("eq", "e2q"), "C8": ("e2q", "eq")}

# The generators after e2 and ep for each (case, N(eps_2p)), in the theorem's
# order: a half-root id, "k1" (sqrt(e2 ep e2p) when N(eps_2p) = -1, else
# sqrt(e2p)), or a square equation.
CASE_PLANS = {
    ("C0", 1): _HALVES + (SquareEquation("q_pq_2p", _Q_PQ_2P, True),
                          SquareEquation("2q_2pq_2p", _2Q_2PQ_2P, True)),
    ("C0", -1): _HALVES + ("k1", SquareEquation(None, _ALL_FOUR)),
    ("C1", 1): _HALVES + (
        SquareEquation("q_pq_2p", _Q_PQ_2P, True, ("r_prime", "s_prime"), "e2p"),
        SquareEquation("2q_2pq_2p", _2Q_2PQ_2P, True, ("r", "s"), "e2pq")),
    ("C1", -1): _HALVES + ("k1", SquareEquation("q_2q_pq_2pq", _ALL_FOUR, False,
                                                ("a", "b"), "e2pq")),
    **{(case, 1): _HALVES + ("e2pq", SquareEquation("prefixed", tail, True,
                                                    ("alpha", "gamma"), "e2p"))
       for case, tail in _PREFIXED_TAILS.items()},
    **{(case, -1): _HALVES + ("e2pq", "k1") for case in _PREFIXED_TAILS},
    **{(case, norm): (kept, "epq", "e2pq", "k1",
                      SquareEquation("bare", (carried, "epq", "e2pq"), False,
                                     ("alpha", "gamma"), carried))
       for case, (kept, carried) in _BARE_HALVES.items() for norm in (1, -1)},
}


def classify_pair(cc: ClassificationContext) -> CaseTag:
    """Complete CaseTag with exact K-squareness resolution of every bit.

    Each tested square equation of the case plan has at most one root among
    its prefixes (two would make eps_p totally positive), and exactly one
    where the plan gives it no resolution bits."""
    pair = cc.pair
    leg = pair.legendre_pq
    x_class = cc.decompositions[2 * pair.p * pair.q].kind
    v_class = cc.decompositions[pair.p * pair.q].kind
    if leg == -1 and (x_class != KIND_UNIT or v_class != KIND_UNIT):
        raise InternalInconsistencyError(
            f"(p/q) = -1 forces the unit square classes, got ({x_class}, {v_class})")
    case = "C0" if leg == -1 else CASE_GRID[(x_class, v_class)]
    resolution: dict[str, int] = {}
    witnesses: dict[str, tuple[int, int] | None] = {}
    for eq in CASE_PLANS[case, cc.norm_eps2p]:
        if isinstance(eq, str) or eq.witness is None:
            continue
        prefixes = [(0, 0)]
        if eq.prefixed:
            a = resolution["a"] = (cc.u_bit + 1) % 2
            prefixes = [(a, cc.u_bit), (a, a)]
        hits = []
        for ab in prefixes:
            # the memoised character rows of the factors refute most
            # non-squares with no product and no descent
            factors = cc.equation_factors(eq.tail, ab)
            if cc.no_square(factors):
                continue
            root = cc.sqrt(octic_prod(pair, factors))
            if root is not None:
                cc.equation_roots[eq.tail, ab] = root
                hits.append(ab)
        if len(hits) > 1 or not (hits or eq.keys):
            raise InternalInconsistencyError(
                f"square equation {eq.witness} of ({pair.p},{pair.q}) has "
                f"{len(hits)} roots; expected {'at most' if eq.keys else 'exactly'} one")
        witnesses[eq.witness] = hits[0] if hits else None
        if eq.keys:
            hit, miss = eq.keys
            resolution[hit], resolution[miss] = len(hits), 1 - len(hits)

    return CaseTag(legendre_pq=leg, norm_eps2p=cc.norm_eps2p,
                   x_class=x_class, v_class=v_class, case=case,
                   u_bit=cc.u_bit, v_sign=cc.v_sign, resolution=resolution,
                   prefix_witnesses=witnesses)


def unit_generators(tag: CaseTag, cc: ClassificationContext) -> list[UnitWord]:
    """The 7 non-torsion generators prescribed by the applicable theorem,
    each made with its exact element (torsion -1 is implicit): e2, ep, then the
    case plan, where an equation whose hit bit is 0 gives its fallback. An
    equation's root is the one classify_pair kept on the context; only an
    equation it did not solve there is multiplied out and asked for."""
    half = {uid: UnitWord(quarters={uid: 2}, elem=r)
            for uid, r in cc.roots.items() if uid in NONTORSION_IDS}
    half["k1"] = (UnitWord(quarters={"e2": 2, "ep": 2, "e2p": 2},
                           elem=cc.roots["e2ep2p"])
                  if tag.norm_eps2p == -1 else half["e2p"])
    words = [UnitWord(quarters={uid: 4}, elem=cc.units[uid])
             for uid in ("e2", "ep")]
    for entry in CASE_PLANS[tag.case, tag.norm_eps2p]:
        if isinstance(entry, str):
            words.append(half[entry])
        elif entry.keys is None or tag.resolution[entry.keys[0]]:
            prefix = tag.prefix_witnesses.get(entry.witness) or (0, 0)
            quarters = {**dict.fromkeys(entry.tail, 1),
                        "e2": 2 * prefix[0], "ep": 2 * prefix[1]}
            xi = cc.equation_roots.get((entry.tail, prefix))
            if xi is None:
                xi = cc.sqrt(octic_prod(cc.pair, cc.equation_factors(entry.tail, prefix)))
            if xi is None:
                raise InternalInconsistencyError(
                    "theorem-prescribed generator is not a square in K: "
                    + render_quarters(quarters))
            words.append(UnitWord(quarters=quarters, elem=xi))
        else:
            words.append(half[entry.fallback])
    return words


def predict_h2K(pair: tuple[int, int], tag: CaseTag,
                h2_subfields: dict[int, int]) -> int:
    """Theorem-side closed form for the 2-class number of the pair's K."""
    p, q = pair
    h2p = h2_subfields[2 * p]
    if tag.case == "C0":
        num, shift = h2p, 1 if tag.norm_eps2p == -1 else 0
    else:
        num = h2p * h2_subfields[p * q] * h2_subfields[2 * p * q]
        shift = 4 - tag.class_number_exponent
    if num % (1 << shift):
        raise InternalInconsistencyError(
            f"theorem class number {ratio_str(num, 1 << shift)} is not an integer")
    return num >> shift


# -- exact verification of the relative-norm tables --------------------------

_SIGMAS = (TAU2, TAU1 ^ TAU2, TAU1 ^ TAU3, TAU2 ^ TAU3, TAU1)

# rows keyed by square class of x+1 resp. v+1; an entry names a power of the
# row's unit, 1, "E" (the unit) or "E2" (its square), and a leading "-"
# negates it
_TABLE_2PQ = {KIND_UNIT: "1 -E -E E -1",
              KIND_P: "-1 E -E -E -1",
              KIND_2P: "-1 -E E -E 1"}
_TABLE_PQ = {KIND_UNIT: "1 -1 -1 E -E",
             KIND_P: "-1 1 -1 -E -E",
             KIND_2P: "-1 -1 1 -E E"}
# the row of sqrt(eps_2p), indexed by u
_TABLE_HALF_2P = ("1 -E -1 1 -1", "-1 -E 1 -1 1")

# six relative norms of e2, ep, sqrt(eq), sqrt(e2q) in the fixed order
# 1+tau1, 1+tau2, 1+tau3, 1+tau1tau2, 1+tau1tau3, 1+tau2tau3
_SIGMAS_6 = (TAU1, TAU2, TAU3, TAU1 ^ TAU2, TAU1 ^ TAU3, TAU2 ^ TAU3)
_TABLE_BASE = {"e2": "-1 E2 E2 -1 -1 E2",
               "ep": "E2 -1 E2 -1 E2 -1",
               "eq": "-E E 1 -E -1 1",
               "e2q": "-1 E 1 -1 -E 1"}


def _sigma_name(flips: int) -> str:
    """Name of the relative norm of a flip mask: TAU1 ^ TAU2 gives "1+tau1tau2"."""
    return "1+" + "".join(f"tau{b + 1}" for b in range(3) if flips >> b & 1)


@functools.cache
def _row_entries(table: str, uid: str, row: str) -> tuple[tuple[str, int, str], ...]:
    """(label, flips, entry) per entry of a table row, each label made once."""
    sigmas = _SIGMAS_6 if table == "base-units" else _SIGMAS
    return tuple((f"{table}:{uid}:{_sigma_name(sigma)} expected {entry}", sigma, entry)
                 for sigma, entry in zip(sigmas, row.split()))


def _two_terms(x: OcticElem) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two nonzero coordinates (mask, numerator) of x, in mask order.

    Every table element has exactly two: e2 and ep are a + b sqrt(d) with b
    != 0 (the only rational units are +-1) and a != 0 (-d b^2 = +-1 has no
    solution for d > 1); each half-unit root is (c+ sqrt(2 f+) + c- sqrt(2 f-))/2
    with c+, c- > 0 (t +- 1 > 0 for t > 1), and 2 f+, 2 f- lie in different
    square classes, as f+ f- = d k^2 with d no square."""
    terms = [(m, n) for m, n in enumerate(x.num) if n]
    if len(terms) != 2:
        raise InternalInconsistencyError(
            f"norm-table element {x} has {len(terms)} terms, not two")
    return terms[0], terms[1]


def _norm_form(x: OcticElem, rad: tuple[int, ...]) -> tuple[int, int, int, int, int]:
    """(m1, m2, A, B, C) of x = (alpha sqrt(rad[m1]) + beta sqrt(rad[m2]))/den:
    A = alpha^2 rad[m1], B = beta^2 rad[m2], C = 2 alpha beta rad[m1 & m2]."""
    (m1, alpha), (m2, beta) = _two_terms(x)
    return (m1, m2, alpha * alpha * rad[m1], beta * beta * rad[m2],
            2 * alpha * beta * rad[m1 & m2])


def _relative_norm(flips: int, form: tuple[int, int, int, int, int]) -> tuple[int, int]:
    """x sigma(x) den^2 as (r, c), meaning r + c sqrt(rad[m1 ^ m2]), for x
    of _norm_form (m1, m2, A, B, C) and sigma the flip mask. sigma gives the
    two terms signs s1, s2, and sqrt(rad[m1] rad[m2]) = rad[m1 & m2]
    sqrt(rad[m1 ^ m2]), so x sigma(x) den^2 is s1 (A + B + C sqrt(rad[m1 ^
    m2])) where the signs agree and s1 (A - B) where they differ."""
    m1, m2, a, b, c = form
    s1, s2 = (flips & m1).bit_count() & 1, (flips & m2).bit_count() & 1
    s = -1 if s1 else 1
    return (s * (a - b), 0) if s1 != s2 else (s * (a + b), s * c)


def verify_norm_tables(cc: ClassificationContext) -> list[tuple[str, bool]]:
    """Check every applicable row of the three relative-norm tables exactly.

    Each entry gives its label "table:unit:sigma expected entry" and whether
    the relative norm equals the power of the row's unit that the entry
    names, negated by a leading "-". The norm comes in closed form from the
    two terms of the row's element (_relative_norm), and is compared by
    cross-multiplication with the power held as int numerators: the units
    lie on the basis with den 1."""
    pair = cc.pair
    units, dec = cc.units, cc.decompositions
    rad = _radicals(pair)
    rows = [("base-units", uid,
             units[uid] if uid in ("e2", "ep") else cc.roots[uid], row)
            for uid, row in _TABLE_BASE.items()]
    rows += [("product-units", "e2pq", cc.roots["e2pq"],
              _TABLE_2PQ[dec[2 * pair.p * pair.q].kind]),
             ("product-units", "epq", cc.roots["epq"],
              _TABLE_PQ[dec[pair.p * pair.q].kind])]
    if cc.norm_eps2p == 1:
        rows.append(("half-2p-unit", "e2p", cc.roots["e2p"], _TABLE_HALF_2P[cc.u_bit]))
    checks = []
    for table, uid, elem, row in rows:
        form = _norm_form(elem, rad)
        mixed = form[0] ^ form[1]
        # the row's unit a + b sqrt(rad[mu]) and its square, times den^2
        (_, a), (mu, b) = _two_terms(units[uid])
        d2 = elem.den * elem.den
        powers = {"1": (d2, 0), "E": (a * d2, b * d2),
                  "E2": ((a * a + b * b * rad[mu]) * d2, 2 * a * b * d2)}
        for label, sigma, entry in _row_entries(table, uid, row):
            r, c = _relative_norm(sigma, form)
            e0, e1 = powers[entry.lstrip("-")]
            if entry[0] == "-":
                e0, e1 = -e0, -e1
            checks.append((label, r == e0 and c == e1 and (mixed == mu or not c)))
    return checks
