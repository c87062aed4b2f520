"""Workload definitions, the sparse-large pair sampler and the digest gate.

This module imports nothing from triquad: the benchmark makes its inputs
itself and hands the program only the generated pairs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# classnumber.DEFAULT_QUAD_BOUND; test_perfbench.py checks that they agree
QUAD_BOUND = 10 ** 7
SPARSE_P_MIN = 500
SPARSE_Q_MIN = 250


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "scan": one harness.scan_pairs call; "pairs": verify_pair per pair
    jobs: int
    p_max: int = 0
    q_max: int = 0
    n_pairs: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("scan-dense", "scan", jobs=1, p_max=300, q_max=200),
    Workload("scan-pool", "scan", jobs=2, p_max=1000, q_max=100),
    Workload("sparse-large", "pairs", jobs=1, n_pairs=64),
)}


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if sieve[i]]


def sample_sparse_pairs(seed: int, n: int, bound: int = QUAD_BOUND) -> list[tuple[int, int]]:
    """n pairs (p, q), p = 1 mod 8 above SPARSE_P_MIN, q = 7 mod 8 above
    SPARSE_Q_MIN,
    2pq < bound, no prime in two pairs; the same seed gives the same list.

    All candidate pairs, sorted by 2pq, are cut into n strata of equal
    count and each stratum gives one pair, so the seed changes which primes
    are used but not the spread of sizes, which sets most of the cost of a
    pair. Each stratum is shuffled by the seed and gives its first candidate
    whose primes are unused.
    """
    primes = _primes_upto(bound // (2 * SPARSE_Q_MIN))
    ps = [p for p in primes if p > SPARSE_P_MIN and p % 8 == 1]
    qs = [q for q in primes if q > SPARSE_Q_MIN and q % 8 == 7]
    cands = sorted(((p, q) for p in ps for q in qs if 2 * p * q < bound),
                   key=lambda pq: (pq[0] * pq[1], pq))
    rng = random.Random(seed)
    used: set[int] = set()
    pairs = []
    for k in range(n):
        stratum = cands[k * len(cands) // n:(k + 1) * len(cands) // n]
        rng.shuffle(stratum)
        pair = next(((p, q) for p, q in stratum if p not in used and q not in used), None)
        if pair is None:
            raise ValueError(f"seed {seed}: no disjoint pair left in stratum {k} of {n}")
        used.update(pair)
        pairs.append(pair)
    return sorted(pairs)


def workload_pairs(workload: Workload, seed: int) -> list[tuple[int, int]]:
    """The explicit pair list of a "pairs" workload; scans take their range."""
    if workload.kind != "pairs":
        return []
    return sample_sparse_pairs(seed, workload.n_pairs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def check_scan_digest(workload: Workload, report: str, reference: dict) -> str | None:
    """None when the serialized scan report matches the digest recorded from
    a jobs=1 run of the same range, else the reason it does not."""
    key = f"scan_pairs({workload.p_max}, {workload.q_max})"
    expected = reference["scan_json_sha256"].get(key)
    if expected is None:
        return f"no reference digest for {key}"
    got = digest(report)
    if got != expected:
        return f"scan_json sha256 {got} differs from the reference {expected} for {key}"
    return None
