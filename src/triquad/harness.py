"""Per-pair verification pipeline, range scanning, and report serialization.

verify_pair runs the whole chain (decompose, classify, prescribed generators,
saturation, class numbers, table checks) and encodes mathematical mismatches
as record status rather than exceptions: detecting them is the point. Any
other exception becomes an internal-error record naming its type and stage.

A scan is a stream: iter_records makes the records of a box of pairs
(valid_pairs) or of every pair with 2pq at most a bound (range_pairs) one
at a time, in pair order, in this process or in a pool of forked workers
that take batches of BATCH_PAIRS pairs in turn and send each batch's
records through a pipe; write_scan writes each record as it is drawn and
the summary last, from running counts, and keeps no record. So the memory
of a scan does not grow with its length. scan_pairs and scan_json are the
same two steps with the records kept. The report's bytes do not depend on
the worker count.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import itertools
import math
import operator
import os
import sys
import time
# the C quoting that json.encoder re-exports, taken from _json, as the json
# package would load json.decoder and json.scanner too
from _json import encode_basestring_ascii as _quote
from collections.abc import Iterable, Iterator
from typing import NamedTuple, NoReturn, TextIO

from . import classnumber, octic, theorems, unit_lattice
from .arith import PrimePair, decimal_str, primes_in_range, ratio_str
from .errors import InternalInconsistencyError, ResourceGuardError, TriquadError
from .theorems import CaseTag

STATUS_VERIFIED = "verified"
STATUS_MISMATCH = "theorem-mismatch"
STATUS_RESOURCE = "resource-guard"
STATUS_INTERNAL = "internal-error"


class _ConfigFields(NamedTuple):
    quad_bound: int = classnumber.DEFAULT_QUAD_BOUND
    jobs: int = 1


class Config(_ConfigFields):
    """The radicand bound and the worker count of a verification or scan;
    checked in __new__, so unpickling and _replace check them too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.quad_bound < 1:
            raise TriquadError("quad_bound must be at least 1")
        if self.jobs < 1:
            raise TriquadError("jobs must be at least 1")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


_RECORD_FIELDS = ("pair", "status", "case_tag", "h2", "m", "h2K", "generators",
                  "fingerprints", "table_failures", "rank_ok", "resaturation_m",
                  "k5_identity_ok", "mismatches", "wall_time")
_record_values = operator.attrgetter(*_RECORD_FIELDS)


class VerificationRecord:
    """One pair's result. h2 (subfield 2-class numbers by radicand), m (unit
    index) and h2K (by the case formula) are set together once h2(K) is known
    both ways; a pair that fails before then keeps all three None. Records
    are equal when their fields are."""

    def __init__(self, pair: tuple[int, int], status: str):
        self.pair = pair
        self.status = status
        self.case_tag: CaseTag | None = None
        self.h2: dict[int, int] | None = None
        self.m: int | None = None
        self.h2K: int | None = None
        self.generators: list[tuple[str, dict[str, str]]] = []
        self.fingerprints: list[str] = []
        self.table_failures: list[str] = []
        self.rank_ok: bool | None = None
        self.resaturation_m: int | None = None
        self.k5_identity_ok: bool | None = None
        self.mismatches: list[str] = []
        self.wall_time = 0.0

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _record_values(self) == _record_values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(_RECORD_FIELDS, _record_values(self)))
        return f"VerificationRecord({fields})"


def _rat(n: int, d: int) -> str:
    """"num/den" of n/d in lowest terms, for d > 0."""
    g = math.gcd(n, d)
    return f"{decimal_str(n // g)}/{decimal_str(d // g)}"


def _coords_json(elem: octic.OcticElem) -> dict[str, str]:
    return {label: _rat(n, elem.den)
            for label, n in zip(octic.SUBSET_LABELS, elem.num)}


_SORTED_LABELS = sorted(octic.SUBSET_LABELS)


def _fingerprint(coords: dict[str, str]) -> str:
    """Digest of the `_coords_json` of an element, its labels in sorted order."""
    payload = ";".join(f"{k}={coords[k]}" for k in _SORTED_LABELS)
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
        # the pair's one object, made once and passed to every stage
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
        rec.rank_ok = unit_lattice.rank_certificate(words, cc, det)
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
        resat = unit_lattice.saturate(cc, list(words))
        rec.resaturation_m = resat.m
        if resat.m != 0:
            mism.append(f"prescribed system is not saturated: {resat.m} more steps")

        stage = "h2"
        h2 = classnumber.subfield_h2_map(pair)
        for msg in classnumber.h2_pattern_failures(pair, h2):
            mism.append("quadratic 2-class pattern: " + msg)
        h2_theorem = theorems.predict_h2K(pair, tag, h2)
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
            m5 = unit_lattice.k5_unit_index(cc)
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
        # the report must not depend on where the package is installed;
        # traceback is imported here, as only this branch needs it
        import traceback
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
    time; p >= 17 and q >= 7 bound p by max_2pq/14 and q by max_2pq/34.
    Both sieves run before this returns, so a range whose sieve does not
    fit in memory fails here, in the caller's process."""
    qs = primes_in_range(max_2pq // 34, 7, 8)
    ps = primes_in_range(max_2pq // 14, 1, 8)
    return ((p, q) for p in ps for q in qs[:bisect.bisect_right(qs, max_2pq // (2 * p))])


# the pairs in one batch of a pool scan: at two workers, 8 ran the 925-pair
# range faster than 16, 32, 64 or no cap, and the whole range 2pq <= 10^7
# at the least peak memory (CHANGES.md has the measurements)
BATCH_PAIRS = 8


def iter_records(pairs: Iterable[tuple[int, int]],
                 config: Config = Config()) -> Iterator[VerificationRecord]:
    """The records of `pairs`, in their order, made one at a time: in this
    process, or by min(config.jobs, the CPUs this process may run on)
    forked workers that take batches of BATCH_PAIRS pairs in turn
    (_pool_records)."""
    # the CPUs this process may run on, which an affinity mask or a cpuset
    # can make fewer than the machine's; with no fork, the scan is serial
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    jobs = min(config.jobs, cpus) if hasattr(os, "fork") else 1
    if jobs > 1:
        return _pool_records(pairs, jobs, config)
    return (verify_pair(p, q, config) for p, q in pairs)


def _pool_records(pairs: Iterable[tuple[int, int]], workers: int,
                  config: Config) -> Iterator[VerificationRecord]:
    """The records of `pairs` from `workers` forked children, each with its
    own pipe. Child k draws the whole pair stream in batches of BATCH_PAIRS
    consecutive pairs, verifies batches k, k + workers, ... (_pool_worker)
    and this process reads the batches back in order. A child runs at most
    a pipe buffer and a batch ahead of the reader, so the memory of a scan
    stays flat. Every child is reaped before this returns or raises: a child
    that dies, or stops before its last batch, raises TriquadError, and one
    left by an error or an early close() is killed."""
    # imported here, as only a pool scan needs them
    import pickle
    import signal
    readers: list[io.BufferedReader] = []
    live: dict[int, int] = {}  # the pid of each worker not yet reaped
    try:
        for k in range(workers):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _pool_worker(pairs, k, workers, config, w, readers)
                live[k] = pid
            finally:
                os.close(w)
        for k in itertools.cycle(range(workers)):
            try:
                records = pickle.load(readers[k])
            except (EOFError, pickle.UnpicklingError):
                raise TriquadError(f"scan worker {k} stopped before its last batch, "
                                   f"exit status {_reap(live, k)}") from None
            if records is None:
                break
            yield from records
        for k in range(workers):
            if status := _reap(live, k):
                raise TriquadError(f"scan worker {k} failed, exit status {status}")
    finally:
        for pid in live.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def _reap(live: dict[int, int], k: int) -> int:
    """Wait for worker k; its exit status, or minus the signal that killed it."""
    return os.waitstatus_to_exitcode(os.waitpid(live.pop(k), 0)[1])


def _pool_worker(pairs: Iterable[tuple[int, int]], k: int, workers: int,
                 config: Config, w: int, readers: list) -> NoReturn:
    """Worker k of _pool_records, in the forked child: write the list of
    records of each of its batches to the pipe `w`, then None. It leaves
    only by os._exit, so it flushes none of the buffers it inherited (a
    report's head may be in one) and runs no atexit handler."""
    import pickle
    status = 1
    try:
        for reader in readers:
            reader.close()
        with open(w, "wb") as out:
            stream = iter(pairs)
            batches = iter(lambda: list(itertools.islice(stream, BATCH_PAIRS)), [])
            for batch in itertools.islice(batches, k, None, workers):
                pickle.dump([verify_pair(p, q, config) for p, q in batch], out)
                out.flush()
            pickle.dump(None, out)
        status = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)


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


class ScanResult(NamedTuple):
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

def case_tag_json(pair: tuple[int, int], tag: CaseTag) -> dict:
    return {
        "p": pair[0], "q": pair[1],
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
        "case": case_tag_json(rec.pair, rec.case_tag) if rec.case_tag else None,
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
        import csv  # only the CSV report needs it
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
