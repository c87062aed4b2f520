"""Per-pair verification pipeline, range scanning, and report serialization.

verify_pair runs the whole chain (decompose, classify, prescribed generators,
saturation, class numbers, table checks) and encodes mathematical mismatches
as record status rather than exceptions: detecting them is the point. Any
other exception becomes an internal-error record naming its type and stage.

A scan is a stream: iter_records makes the records of a box of pairs
(valid_pairs) or of every pair with 2pq at most a bound (range_pairs) one
at a time, in pair order, in this process or in a pool; write_scan writes
each record as it is drawn and the summary last, from running counts, and
keeps no record. So the memory of a scan does not grow with its length.
scan_pairs, scan_json and scan_csv are the same two steps with the records
kept. The report's bytes depend on neither the batching nor the worker
count.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import itertools
import math
import os
import time
import traceback
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import TextIO

from . import classnumber, octic, theorems, unit_lattice
from .arith import PrimePair, decimal_str, primes_in_range, ratio_str
from .errors import InternalInconsistencyError, ResourceGuardError, TriquadError
from .theorems import CaseTag

STATUS_VERIFIED = "verified"
STATUS_MISMATCH = "theorem-mismatch"
STATUS_RESOURCE = "resource-guard"
STATUS_INTERNAL = "internal-error"


@dataclass(frozen=True)
class Config:
    quad_bound: int = classnumber.DEFAULT_QUAD_BOUND
    jobs: int = 1

    def __post_init__(self):
        if self.quad_bound < 1:
            raise TriquadError("quad_bound must be at least 1")
        if self.jobs < 1:
            raise TriquadError("jobs must be at least 1")


@dataclass
class VerificationRecord:
    """One pair's result. h2 (subfield 2-class numbers by radicand), m (unit
    index) and h2K (by the case formula) are set together once h2(K) is known
    both ways; a pair that fails before then keeps all three None."""
    pair: tuple[int, int]
    status: str
    case_tag: CaseTag | None = None
    h2: dict[int, int] | None = None
    m: int | None = None
    h2K: int | None = None
    generators: list[tuple[str, dict[str, str]]] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)
    table_failures: list[str] = field(default_factory=list)
    rank_ok: bool | None = None
    resaturation_m: int | None = None
    k5_identity_ok: bool | None = None
    mismatches: list[str] = field(default_factory=list)
    wall_time: float = 0.0


def _rat(n: int, d: int) -> str:
    """"num/den" of n/d in lowest terms, for d > 0."""
    g = math.gcd(n, d)
    return f"{decimal_str(n // g)}/{decimal_str(d // g)}"


def _coords_json(elem: octic.OcticElem) -> dict[str, str]:
    return {label: _rat(n, elem.den)
            for label, n in zip(octic.SUBSET_LABELS, elem.num)}


def _fingerprint(coords: dict[str, str]) -> str:
    """Digest of the `_coords_json` of an element."""
    payload = ";".join(f"{k}={v}" for k, v in sorted(coords.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def verify_pair(p: int, q: int, config: Config = Config()) -> VerificationRecord:
    """Full verification of one pair; never raises for math mismatches."""
    pair = PrimePair(p, q)  # usage errors do raise
    t0 = time.monotonic()
    rec = VerificationRecord(pair=(p, q), status=STATUS_VERIFIED)
    mism = rec.mismatches
    stage = "classify"
    try:
        # 2pq is the largest radicand: refuse before any unit is computed
        classnumber.check_radicand(max(pair.radicands), config.quad_bound)
        # the pair's state, made once and passed to every stage
        cc = theorems.ClassificationContext(pair)
        tag = theorems.classify_pair(cc)
        rec.case_tag = tag

        stage = "generators"
        words = theorems.unit_generators(tag, cc)
        for w in words:
            nrm = octic.rational_norm(w.elem)
            if nrm not in ((1, 1), (-1, 1)):
                mism.append(f"generator {w.render()} is not a unit "
                            f"(norm {ratio_str(*nrm)})")
        coords = [_coords_json(w.elem) for w in words]
        rec.generators = [(w.render(), c) for w, c in zip(words, coords)]
        rec.fingerprints = [_fingerprint(c) for c in coords]

        stage = "rank"
        det = unit_lattice.quarter_determinant(words)
        rec.rank_ok = unit_lattice.rank_certificate(words, cc.ctx, det)
        if not rec.rank_ok:
            mism.append("prescribed generators fail the rank certificate")

        stage = "saturate"
        m = theorems.unit_index(cc)
        # [E_K : <W, -1>] = |det Q| 2^m / 4^7 (unit_lattice module docstring)
        scaled_index = abs(det) << m
        if scaled_index != 4 ** 7:
            mism.append(f"prescribed system has index {ratio_str(scaled_index, 4 ** 7)} "
                        f"in the unit group, not 1")
        stage = "resaturate"
        resat = unit_lattice.saturate(cc.ctx, list(words))
        rec.resaturation_m = resat.m
        if resat.m != 0:
            mism.append(f"prescribed system is not saturated: {resat.m} more steps")

        stage = "h2"
        h2 = classnumber.subfield_h2_map(pair, config.quad_bound)
        for msg in classnumber.h2_pattern_failures(pair, h2):
            mism.append("quadratic 2-class pattern: " + msg)
        h2_theorem = theorems.predict_h2K(tag, h2)
        h2_kuroda = classnumber.kuroda_h2K(pair, m, h2)
        rec.h2, rec.m, rec.h2K = h2, m, h2_theorem
        if h2_theorem != h2_kuroda:
            mism.append(f"theorem h2(K) = {h2_theorem} but Kuroda gives {h2_kuroda}")

        stage = "tables"
        rec.table_failures = [label for label, ok in theorems.verify_norm_tables(cc)
                              if not ok]
        if rec.table_failures:
            mism.append(f"{len(rec.table_failures)} norm-table rows failed")

        stage = "k5"
        if pair.legendre_pq == -1:
            # h2(K) = h2(k5)/2 across the unramified step K/k5, with
            # h2(k5) = 2^(m5-2) h2(q) h2(2p) h2(2pq); the m5 = 1 value holds
            # in the norm -1 branch, m5 = 2 in the norm +1 branch
            m5 = unit_lattice.k5_unit_index(cc.ctx)
            h2_k5 = (1 << m5) * h2[q] * h2[2 * p] * h2[2 * p * q]  # 4 h2(k5)
            expected_m5 = 1 if tag.norm_eps2p == -1 else 2
            rec.k5_identity_ok = (m5 == expected_m5 and h2_k5 == 8 * h2_theorem)
            if not rec.k5_identity_ok:
                mism.append(f"intermediate-field identity failed: m5={m5}, "
                            f"h2(k5)={ratio_str(h2_k5, 4)}")
    except ResourceGuardError as exc:
        rec.status = STATUS_RESOURCE
        mism.append(str(exc))
    except InternalInconsistencyError as exc:
        # a prescribed generator with no root in K is a mismatch of the
        # prescription, raised by theorems.unit_generators
        rec.status = STATUS_MISMATCH
        mism.append(str(exc))
    except Exception as exc:
        # any other failure stays in this pair's record, so a pool scan
        # keeps every other record; the traceback goes to stderr only, as
        # the report must not depend on where the package is installed
        traceback.print_exc()
        rec.status = STATUS_INTERNAL
        mism.append(f"{type(exc).__name__} in {stage}: {exc}")
    else:
        if mism:
            rec.status = STATUS_MISMATCH
    rec.wall_time = time.monotonic() - t0
    return rec


def valid_pairs(p_max: int, q_max: int) -> list[tuple[int, int]]:
    ps = primes_in_range(p_max, 1, 8)
    qs = primes_in_range(q_max, 7, 8)
    return [(p, q) for p in ps for q in qs]


def range_pairs(max_2pq: int) -> Iterator[tuple[int, int]]:
    """Every valid pair with 2pq <= max_2pq, in (p, q) order, one at a
    time; p >= 17 and q >= 7 bound p by max_2pq/14 and q by max_2pq/34."""
    qs = primes_in_range(max_2pq // 34, 7, 8)
    for p in primes_in_range(max_2pq // 14, 1, 8):
        for q in qs[:bisect.bisect_right(qs, max_2pq // (2 * p))]:
            yield p, q


def _scan_worker(args: tuple[int, int, Config]) -> VerificationRecord:
    p, q, config = args
    return verify_pair(p, q, config)


# the most pairs in one batch of a pool scan: at two workers, 8 ran the
# 925-pair range faster than 16, 32, 64 or no cap, and the whole range
# 2pq <= 10^7 at the least peak memory (CHANGES.md has the measurements)
BATCH_CAP = 8


def iter_records(pairs: Iterable[tuple[int, int]],
                 config: Config = Config()) -> Iterator[VerificationRecord]:
    """The records of `pairs`, in their order, made one at a time: in this
    process, or in a pool of up to config.jobs workers that never holds more
    workers than pairs or than the CPUs this process may run on."""
    tasks = ((p, q, config) for p, q in pairs)
    # the CPUs this process may run on, which an affinity mask or a cpuset
    # can make fewer than the machine's
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    jobs = min(config.jobs, cpus)
    if jobs > 1:
        window = list(itertools.islice(tasks, 4 * BATCH_CAP * jobs))
        if len(window) > 1:
            return _pool_records(itertools.chain(window, tasks), min(jobs, len(window)))
        tasks = iter(window)
    return map(_scan_worker, tasks)


def _pool_records(tasks: Iterator, workers: int) -> Iterator[VerificationRecord]:
    """The records of `tasks` from a pool of `workers`. The tasks go out a
    window of 4 * BATCH_CAP * workers at a time, each window in batches of
    consecutive pairs, about four per worker and at most BATCH_CAP pairs:
    one message out and one list of records back per batch. The next
    window is queued before the records of the last are read, so the
    workers do not wait for the reader, and no more than two windows are
    held."""
    # imported here, as only a pool scan needs it: multiprocessing is about
    # a sixth of the package's import time
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        queued: Iterator[VerificationRecord] = iter(())
        while window := list(itertools.islice(tasks, 4 * BATCH_CAP * workers)):
            batch = min(math.ceil(len(window) / (4 * workers)), BATCH_CAP)
            records = pool.map(_scan_worker, window, chunksize=batch)
            yield from queued
            queued = records
        yield from queued


class _Tally:
    """The running counts of a scan's summary."""

    def __init__(self):
        self.pairs = 0
        self.by_case: dict[str, int] = {}
        self.by_status: dict[str, int] = {}
        self.matrix = {x: {v: 0 for v in ("1", "p", "2p")} for x in ("1", "p", "2p")}

    def add(self, rec: VerificationRecord) -> None:
        self.pairs += 1
        self.by_status[rec.status] = self.by_status.get(rec.status, 0) + 1
        tag = rec.case_tag
        if tag is not None:
            self.by_case[tag.case] = self.by_case.get(tag.case, 0) + 1
            if tag.legendre_pq == 1:
                self.matrix[tag.x_class][tag.v_class] += 1

    def summary(self) -> dict:
        return {"pairs": self.pairs, "by_case": dict(sorted(self.by_case.items())),
                "by_status": dict(sorted(self.by_status.items())),
                "case_matrix": self.matrix}


@dataclass
class ScanResult:
    records: list[VerificationRecord]
    summary: dict


def scan_pairs(p_max: int, q_max: int, config: Config = Config()) -> ScanResult:
    """Verify all valid pairs in range; output in (p, q) lexicographic order
    and deterministic content regardless of the worker count."""
    records = list(iter_records(valid_pairs(p_max, q_max), config))
    tally = _Tally()
    for rec in records:
        tally.add(rec)
    return ScanResult(records, tally.summary())


# -- serialization -----------------------------------------------------------

def case_tag_json(tag: CaseTag) -> dict:
    return {
        "p": tag.pair.p, "q": tag.pair.q,
        "legendre_pq": tag.legendre_pq,
        "norm_eps2p": tag.norm_eps2p,
        "x_class": tag.x_class, "v_class": tag.v_class,
        "case": tag.case,
        "u": tag.u_bit, "v_sign": tag.v_sign,
        "resolution": dict(sorted(tag.resolution.items())),
        "prefix_witnesses": {k: list(v) if v is not None else None
                             for k, v in sorted(tag.prefix_witnesses.items())},
    }


def h2_json(h2: dict[int, int], h2K: int) -> dict:
    """The 2-class numbers of the subfields keyed by radicand, then of K."""
    return {**{str(d): v for d, v in sorted(h2.items())}, "K": h2K}


def record_json(rec: VerificationRecord, include_wall_time: bool = True) -> dict:
    out = {
        "pair": {"p": rec.pair[0], "q": rec.pair[1]},
        "case": case_tag_json(rec.case_tag) if rec.case_tag else None,
        "generators": [{"word": w, "coords": c} for w, c in rec.generators],
        "h2": h2_json(rec.h2, rec.h2K) if rec.h2 is not None else None,
        "m": rec.m,
        "status": rec.status,
        "fingerprints": rec.fingerprints,
        "rank_certificate": rec.rank_ok,
        "resaturation_m": rec.resaturation_m,
        "k5_identity": rec.k5_identity_ok,
        "table_failures": rec.table_failures,
        "mismatches": rec.mismatches,
    }
    if include_wall_time:
        out["wall_time_ms"] = round(rec.wall_time * 1000, 3)
    return out


def _emit(obj, out: list[str], newline: str) -> None:
    """Append obj to out as json.dumps(obj, indent=2, sort_keys=True) writes
    it, newline being "\\n" and the indent of obj's line. Only str-keyed
    dicts, lists, str, int, bool and None are written; anything else, a
    float or a tuple included, raises TypeError."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _emit(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _emit(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_CSV_FIELDS = ("p", "q", "case", "norm_eps2p", "x_class", "v_class", "u",
               "m", "h2K", "status")


def _csv_row(rec: VerificationRecord) -> tuple:
    tag = rec.case_tag
    if tag is None:
        return (*rec.pair, "", "", "", "", "", "", "", rec.status)
    return (*rec.pair, tag.case, tag.norm_eps2p, tag.x_class, tag.v_class,
            "" if tag.u_bit is None else tag.u_bit,
            "" if rec.m is None else rec.m, "" if rec.h2K is None else rec.h2K,
            rec.status)


def write_scan(records: Iterable[VerificationRecord], out: TextIO,
               fmt: str = "json") -> dict:
    """Write the scan report of `records` to `out`, each record as it is
    drawn, and return the summary. The JSON report is byte for byte
    json.dumps(doc, indent=2, sort_keys=True) plus a newline, doc holding
    "records" and "summary": sorted keys put the records first, so the
    summary is written last, from running counts. The CSV report has a row
    per record and no summary. No record is kept once written."""
    tally = _Tally()
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(_CSV_FIELDS)
        for rec in records:
            tally.add(rec)
            w.writerow(_csv_row(rec))
        return tally.summary()
    out.write('{\n  "records": [')
    sep = "\n    "
    for rec in records:
        tally.add(rec)
        # one record's pieces joined at a time, as a list of the whole
        # report's small strings costs more memory than its text
        parts = [sep]
        _emit(record_json(rec, include_wall_time=False), parts, "\n    ")
        out.write("".join(parts))
        sep = ",\n    "
    summary = tally.summary()
    parts = ["\n  ]" if tally.pairs else "]", ',\n  "summary": ']
    _emit(summary, parts, "\n  ")
    parts.append("\n}\n")
    out.write("".join(parts))
    return summary


def scan_json(result: ScanResult) -> str:
    """The JSON report of a scan (`write_scan`); the emitter avoids the
    pure-Python encoder that json falls back on when it indents."""
    buf = io.StringIO()
    write_scan(result.records, buf)
    return buf.getvalue()


def scan_csv(result: ScanResult) -> str:
    buf = io.StringIO()
    write_scan(result.records, buf, "csv")
    return buf.getvalue()
