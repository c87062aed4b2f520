import concurrent.futures
import dataclasses
import hashlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import triquad
from triquad import classnumber, harness, octic, quadratic, theorems, unit_lattice
from triquad.arith import PrimePair, primes_in_range
from triquad.errors import InternalInconsistencyError, TriquadError
from triquad.harness import (Config, record_json, scan_csv, scan_json,
                             scan_pairs, valid_pairs, verify_pair)
from triquad.octic import OcticElem
from triquad.unit_lattice import UnitWord
from triquad.cli import main as cli_main

from oracles import CASE_REPRESENTATIVES, subfield_unit_words


def test_verify_17_7():
    rec = verify_pair(17, 7)
    assert rec.status == "verified"
    assert rec.m == 7
    assert rec.h2K == 2
    assert classnumber.kuroda_h2K(PrimePair(17, 7), rec.m, rec.h2) == 2
    assert rec.rank_ok and rec.resaturation_m == 0 and rec.k5_identity_ok
    assert not rec.table_failures
    assert len(rec.generators) == 7
    assert len(rec.fingerprints) == 7


def test_verify_41_7():
    rec = verify_pair(41, 7)
    assert rec.status == "verified"
    assert rec.m == 6
    assert rec.h2K == 2


def test_verify_rejects_invalid_pair_before_pipeline():
    with pytest.raises(TriquadError):
        verify_pair(7, 17)


def test_valid_pairs_enumeration():
    pairs = valid_pairs(50, 50)
    assert pairs == [(17, 7), (17, 23), (17, 31), (17, 47),
                     (41, 7), (41, 23), (41, 31), (41, 47)]
    assert valid_pairs(16, 50) == []


def test_record_json_schema():
    rec = verify_pair(17, 7)
    doc = record_json(rec)
    assert doc["pair"] == {"p": 17, "q": 7}
    assert doc["status"] == "verified"
    assert doc["m"] == 7
    assert doc["h2"]["K"] == 2
    assert doc["h2"]["34"] == 2
    gen = doc["generators"][0]
    assert set(gen) == {"word", "coords"}
    assert set(gen["coords"]) == {"", "2", "p", "q", "2p", "2q", "pq", "2pq"}
    for v in gen["coords"].values():
        num, den = v.split("/")
        int(num), int(den)
    assert doc["case"]["case"] == "C0"


def test_scan_deterministic_and_parallel_identical():
    r1 = scan_pairs(50, 32, Config())
    r2 = scan_pairs(50, 32, Config())
    assert scan_json(r1) == scan_json(r2)
    r4 = scan_pairs(50, 32, Config(jobs=2))
    assert scan_json(r1) == scan_json(r4)
    assert [r.pair for r in r1.records] == sorted(r.pair for r in r1.records)


def test_scan_summary_and_csv():
    res = scan_pairs(50, 32, Config())
    assert res.summary["pairs"] == len(res.records) == 6
    assert res.summary["by_status"] == {"verified": 6}
    text = scan_csv(res)
    lines = text.strip().split("\n")
    assert lines[0].startswith("p,q,case")
    assert len(lines) == 7
    doc = json.loads(scan_json(res))
    assert set(doc) == {"records", "summary"}


def test_cli_classify_and_verify(capsys):
    assert cli_main(["classify", "17", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "C0" and out["u"] == 0

    assert cli_main(["verify", "17", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "verified"
    assert "wall_time_ms" in out


def test_cli_units_and_h2(capsys):
    assert cli_main(["units", "41", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["generators"]) == 7

    assert cli_main(["h2", "41", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == 6 and out["h2"]["K"] == 2 == out["h2K_kuroda"]


def test_cli_usage_errors(capsys):
    assert cli_main(["verify", "7", "17"]) == 1
    assert cli_main(["classify", "15", "7"]) == 1
    assert cli_main(["--precision-bits=10", "verify", "17", "7"]) == 1
    assert "unrecognized arguments: --precision-bits" in capsys.readouterr().err
    for jobs in ("0", "-3"):
        assert cli_main(["scan", "--pmax", "50", "--qmax", "32", "--jobs", jobs]) == 1
        assert "error: jobs" in capsys.readouterr().err


def test_quad_bound_below_one_is_a_usage_error(capsys):
    for bound in (0, -1):
        with pytest.raises(TriquadError, match="quad_bound"):
            Config(quad_bound=bound)
        # exit 1 for usage, not 3 for the resource guard
        assert cli_main(["--quad-bound", str(bound), "h2", "17", "7"]) == 1
        captured = capsys.readouterr()
        assert "error: quad_bound" in captured.err and not captured.out
    assert cli_main(["--quad-bound", "1", "h2", "17", "7"]) == 3
    capsys.readouterr()


def test_import_loads_no_process_pool_and_fills_no_prime_table():
    code = ("import sys\n"
            "import triquad\n"
            "from triquad import arith\n"
            "print(arith._odd_primes.cache_info().currsize,\n"
            "      arith.residue_table.cache_info().currsize)\n"
            "assert triquad.verify_pair(17, 7).status == 'verified'\n"
            "print('multiprocessing' in sys.modules)\n")
    src = str(Path(triquad.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "0", "False"]


def test_cli_refuses_a_prime_test_past_the_proved_witness_bound(capsys):
    psi_12 = "318665857834031151167461"  # 399165290221 * 798330580441
    for command in ("verify", "classify", "h2"):
        assert cli_main([command, psi_12, "7"]) == 1
        assert "not proved" in capsys.readouterr().err


@pytest.mark.parametrize("p,q", [(17, 7), (17, 191), (41, 431)])
def test_cli_h2_reports_the_m_of_verify(p, q, capsys):
    assert cli_main(["h2", str(p), str(q)]) == 0
    h2 = json.loads(capsys.readouterr().out)
    assert cli_main(["verify", str(p), str(q)]) == 0
    assert h2["m"] == json.loads(capsys.readouterr().out)["m"]
    ctx = unit_lattice.UnitContext(PrimePair(p, q))
    assert h2["m"] == unit_lattice.saturate(ctx, subfield_unit_words(ctx)).m


def _allow_cpus(monkeypatch, n, machine=None):
    """Let the process run on n CPUs of a machine with `machine` (default n)."""
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: machine or n)


def test_scan_pool_is_capped_by_cpus_and_tasks(monkeypatch):
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # scan_pairs imports the pool class when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    _allow_cpus(monkeypatch, 3)
    serial = scan_json(scan_pairs(41, 23, Config()))  # 4 pairs
    assert scan_json(scan_pairs(41, 23, Config(jobs=64))) == serial
    _allow_cpus(monkeypatch, 16)
    assert scan_json(scan_pairs(41, 23, Config(jobs=64))) == serial
    scan_pairs(41, 23, Config(jobs=2))
    assert started == [3, 4, 2]
    _allow_cpus(monkeypatch, 1)
    scan_pairs(41, 23, Config(jobs=64))
    assert started == [3, 4, 2]


def _record_batch_sizes(monkeypatch):
    """Build real pools that note the chunksize of each map; returns the
    list of chunksizes."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            sizes.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_scan_in_batches_of_several_pairs_gives_the_serial_bytes(monkeypatch):
    serial = scan_json(scan_pairs(300, 31))  # 36 pairs
    sizes = _record_batch_sizes(monkeypatch)
    _allow_cpus(monkeypatch, 3)
    # 2 workers: 8 batches, the last of one pair; 3 workers: 12 batches
    assert scan_json(scan_pairs(300, 31, Config(jobs=2))) == serial
    assert scan_json(scan_pairs(300, 31, Config(jobs=3))) == serial
    assert sizes == [5, 3]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched stage reaches pool workers only by fork")
def test_internal_error_inside_a_pool_batch_keeps_the_batch(monkeypatch):
    _h2_fails_for((41, 7), monkeypatch)
    serial = scan_pairs(100, 31)  # 15 pairs
    sizes = _record_batch_sizes(monkeypatch)
    _allow_cpus(monkeypatch, 2)
    pooled = scan_pairs(100, 31, Config(jobs=2))
    # batches of 2: (41, 7), the fourth pair, shares its batch with (17, 31)
    assert sizes == [2]
    assert [r.pair for r in pooled.records] == valid_pairs(100, 31)
    assert [r.pair for r in pooled.records if r.status != "verified"] == [(41, 7)]
    assert pooled.records[3].mismatches == [
        "ZeroDivisionError in h2: integer division by zero"]
    assert pooled.summary["by_status"] == {"internal-error": 1, "verified": 14}
    assert scan_json(pooled) == scan_json(serial)


def _emitted(obj) -> str:
    out: list[str] = []
    harness._emit(obj, out, "\n")
    return "".join(out)


_json_scalars = (st.none() | st.booleans() | st.integers() | st.text()
                 | st.sampled_from(["", "\"quoted\"", "back\\slash", "\x00\x1f\n\t\x7f",
                                    "p\u00e9rim\u00e8tre", "\u221a2 \U0001d50a", "\ud800"]))
_json_docs = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=25)


@given(_json_docs)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[], {}], "\"": "\\", "\u00e9": [True, False, None, -7]})
def test_emitter_writes_the_bytes_of_json_dumps(doc):
    assert _emitted(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    1.5, [0.0], {"h2": {"K": float("nan")}}, {1: "x"}, {"a": {None: 1}},
    {True: 1}, {"a": [{(1, 2): 3}]}, {"x": (1, 2)}, {"x": {1, 2}}, object()])
def test_emitter_refuses_what_it_would_write_differently(doc):
    with pytest.raises(TypeError):
        _emitted(doc)


def test_empty_scan_report_is_the_bytes_of_json_dumps():
    result = scan_pairs(10, 10)
    assert result.records == []
    doc = {"records": [], "summary": result.summary}
    assert scan_json(result) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_scan_pool_counts_the_cpus_of_the_affinity_mask(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built for a process on one CPU")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    _allow_cpus(monkeypatch, 1, machine=16)
    assert cli_main(["scan", "--pmax", "41", "--qmax", "23", "--jobs", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["pairs"] == 4


def test_cli_scan_csv_to_file(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert cli_main(["scan", "--pmax", "41", "--qmax", "23",
                     "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5  # header + 4 pairs
    capsys.readouterr()


@pytest.mark.parametrize("p,q,case,norm", CASE_REPRESENTATIVES)
def test_every_case_and_norm_branch_verifies(p, q, case, norm):
    rec = verify_pair(p, q)
    assert rec.status == "verified", (p, q, rec.mismatches)
    assert rec.case_tag.case == case
    assert rec.case_tag.norm_eps2p == norm
    assert rec.rank_ok and rec.resaturation_m == 0
    # the index from the seeded saturation is the one from E_0
    ctx = unit_lattice.UnitContext(PrimePair(p, q))
    assert rec.m == unit_lattice.saturate(ctx, subfield_unit_words(ctx)).m
    assert classnumber.kuroda_h2K(PrimePair(p, q), rec.m, rec.h2) == rec.h2K


# sha256 of each representative's record (no wall time, sorted keys): pins
# every branch's generators, witnesses and resolution bits byte for byte
CASE_RECORD_SHA256 = {
    (41, 7): "04975e8e48c6268184fa817e225a4501ac434f559846b179fccd1c7b7b71a96f",
    (17, 7): "0a88ea2e3bd5600d087c9041cabcdc1d4bc90fb5a6eb74d3752654cdf72610be",
    (113, 439): "1712ffd7f59c97b9348450f5fc291fe9bc86fb40b29d4323034380891292736f",
    (17, 191): "cb9f9f6cff0582232a1d18a42955095d7b5bfc1e78bae01ee6ff5c2259a21172",
    (41, 431): "73fbf714c0699ad2fbc92ce3961934c772dfd6709a3da9813a01b8aa5fc988ac",
    (17, 47): "590a7a05bdd5cae2e1380019eec1f9a4af7bcfeced5208d702f14d4527a80711",
    (41, 23): "f5c848dc34844188b45e6f49cdb041b64bf6bce5575b380dd288b5d7b0109737",
    (17, 239): "d5c774ec62f8a8a5758626306f93404b6ae903741757faa354143a464a6b7e49",
    (313, 463): "7bb58b68d032d1ec61001e74b3a50890c1cc96f28d51ddcbe0847ff1892f24a8",
    (17, 223): "c2e7857e58290e5f3141217f96b2e0ae12ce22ba36fb12f5318e700d1d466d6b",
    (41, 223): "9a2a6260ecd80db8c1a763ab1b4cc3d975782f031d9d7d3ea09addda90f2e3b1",
    (257, 79): "93f1b9b29d8adeb6ceda11eecf43ac37a3d1ef15b9d792402d9a1b0cf2d032fa",
    (457, 463): "3562b07cbdd5562b52580909425cad0a66e9269065270746dd313aaeaeb25172",
    (17, 103): "eb16f52254e119042f1ab1c5ef38b9971c3cb876ceb31c83241ebbd51603779b",
    (41, 103): "3ddb106eb1cb3c345060d4cecd6a5ef18ec45e80b11b650dea1e23b0ef8c4a89",
    (17, 359): "bcfd4398a03856f46706368f80a48957e744c81e588211b7bf4c3b5388a7a419",
    (313, 151): "08e2bc3b0a7c10c593ba271d0579fb5b394c3ef959418093e31c339e038046b7",
    (17, 127): "45bc7b0e09daa73a7a333165e673abbed82dbcc1d174d72763deefd59a134fd4",
    (113, 7): "b5a92372e31d69ea026e039dcf32037b0a7239fbcf7238ab7522a282fcd6a9d0",
    (73, 383): "6d69c1b0810686d920ce5b9651fc3487da2252a23c97b3516e48bf8fe89e29f1",
}


@pytest.mark.parametrize("p,q,case,norm", CASE_REPRESENTATIVES)
def test_every_case_and_norm_branch_keeps_its_record_bytes(p, q, case, norm):
    doc = json.dumps(record_json(verify_pair(p, q), include_wall_time=False),
                     sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == CASE_RECORD_SHA256[p, q]


def test_cli_scan_unwritable_out_fails_before_scanning(tmp_path, monkeypatch, capsys):
    def no_scan(*args):
        raise AssertionError("scan ran although --out cannot be opened")

    monkeypatch.setattr(harness, "iter_records", no_scan)
    out = tmp_path / "missing" / "x.json"
    assert cli_main(["scan", "--pmax", "20", "--qmax", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err


def test_cli_scan_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["scan", "--pmax", "41", "--qmax", "8", "--out", str(a)]) == 0
    assert cli_main(["scan", "--pmax", "41", "--qmax", "8", "--jobs", "2",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _other_prefix_for(bad_pair, monkeypatch):
    """Make the tag of bad_pair name the other prefix (A, 1 - B) of each of
    its prefixed square equations, whose product has no root in K (at most
    one of the two prefixes has one)."""
    real = theorems.classify_pair

    def classify_pair(cc):
        tag = real(cc)
        if (cc.pair.p, cc.pair.q) == bad_pair:
            tag = dataclasses.replace(tag, prefix_witnesses={
                key: (a, 1 - b) for key, (a, b) in tag.prefix_witnesses.items()})
        return tag

    monkeypatch.setattr(theorems, "classify_pair", classify_pair)


MISSING_ROOT = ("theorem-prescribed generator is not a square in K: "
                "e2^1/2 * ep^1/2 * eq^1/4 * e2p^1/4 * epq^1/4")


def test_missing_root_is_a_mismatch_record(monkeypatch):
    _other_prefix_for((17, 7), monkeypatch)
    rec = verify_pair(17, 7)
    assert rec.status == "theorem-mismatch"
    assert rec.mismatches == [MISSING_ROOT]
    assert rec.case_tag is not None and rec.case_tag.case == "C0"
    assert rec.generators == [] and rec.rank_ok is None


def test_missing_root_in_one_pair_keeps_the_scan(monkeypatch):
    _other_prefix_for((17, 23), monkeypatch)
    result = scan_pairs(41, 23)
    assert [(r.pair, r.status) for r in result.records] == [
        ((17, 7), "verified"), ((17, 23), "theorem-mismatch"),
        ((41, 7), "verified"), ((41, 23), "verified")]
    assert result.records[1].mismatches == [MISSING_ROOT]
    assert result.summary["by_status"] == {"theorem-mismatch": 1, "verified": 3}


@pytest.mark.parametrize("p,q", [(17, 7), (113, 439), (977, 487)])
def test_prescribed_system_of_index_3_is_a_mismatch(p, q, monkeypatch):
    # the third word cubed, with its element cubed, is still a unit word of
    # full rank that re-saturation cannot extend, but <W, -1> has index 3
    real = theorems.unit_generators

    def unit_generators(tag, cc):
        words = list(real(tag, cc))
        w = words[2]
        words[2] = UnitWord(quarters={uid: 3 * c for uid, c in w.quarters.items()},
                            elem=w.elem ** 3)
        return words

    monkeypatch.setattr(theorems, "unit_generators", unit_generators)
    rec = verify_pair(p, q)
    assert rec.status == "theorem-mismatch"
    assert rec.rank_ok and rec.resaturation_m == 0
    assert rec.mismatches == ["prescribed system has index 3 in the unit group, not 1"]


def _h2_fails_for(bad_pair, monkeypatch):
    """Make the subfield class numbers of bad_pair raise a non-package error."""
    real = classnumber.subfield_h2_map

    def subfield_h2_map(pair, bound=classnumber.DEFAULT_QUAD_BOUND):
        if (pair.p, pair.q) == bad_pair:
            raise ZeroDivisionError("integer division by zero")
        return real(pair, bound)

    monkeypatch.setattr(classnumber, "subfield_h2_map", subfield_h2_map)


def test_unexpected_error_is_an_internal_error_record(monkeypatch, capsys):
    _h2_fails_for((17, 7), monkeypatch)
    rec = verify_pair(17, 7)
    assert "Traceback" in capsys.readouterr().err
    assert rec.status == "internal-error"
    assert rec.mismatches == ["ZeroDivisionError in h2: integer division by zero"]
    assert rec.case_tag is not None and rec.rank_ok
    assert record_json(rec)["status"] == "internal-error"


def test_internal_error_in_one_pair_keeps_the_scan(monkeypatch):
    _h2_fails_for((41, 7), monkeypatch)
    result = scan_pairs(41, 23)
    assert [(r.pair, r.status) for r in result.records] == [
        ((17, 7), "verified"), ((17, 23), "verified"),
        ((41, 7), "internal-error"), ((41, 23), "verified")]
    assert result.summary["by_status"] == {"internal-error": 1, "verified": 3}


def test_cli_verify_exits_4_on_internal_error(monkeypatch, capsys):
    _h2_fails_for((17, 7), monkeypatch)
    assert cli_main(["verify", "17", "7"]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "internal-error"
    assert "ZeroDivisionError in h2" in out["mismatches"][0]


def test_radicand_past_the_bound_is_refused_before_any_work(capsys):
    # 2pq = 20,030,410,094 is past the default bound: the pair is refused
    # before classification, where units of that size would take seconds
    start = time.monotonic()
    rec = verify_pair(100049, 100103)
    assert time.monotonic() - start < 1
    assert rec.status == "resource-guard" and rec.case_tag is None
    assert rec.mismatches == [
        "radicand 20030410094 exceeds the class-number bound 10000000"]
    assert cli_main(["verify", "100049", "100103"]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "resource-guard"
    for command in ("classify", "units", "h2"):
        start = time.monotonic()
        assert cli_main([command, "100049", "100103"]) == 3
        assert time.monotonic() - start < 1
        captured = capsys.readouterr()
        assert "exceeds the class-number bound" in captured.err and not captured.out
    # the bound is the pair's largest radicand, 2pq = 238 for (17, 7)
    assert verify_pair(17, 7, Config(quad_bound=237)).status == "resource-guard"
    assert verify_pair(17, 7, Config(quad_bound=238)).status == "verified"


def test_non_unit_with_a_norm_past_the_str_digit_limit_is_a_mismatch(monkeypatch):
    # a generator whose attached element is 10^700 has norm 10^5600, whose
    # 5,601 digits str(int) refuses
    real = theorems.unit_generators
    big = OcticElem.rational((17, 7), 10 ** 700)

    def unit_generators(tag, cc):
        words = list(real(tag, cc))
        words[0] = UnitWord(quarters=words[0].quarters, elem=big)
        return words

    monkeypatch.setattr(theorems, "unit_generators", unit_generators)
    rec = verify_pair(17, 7)
    assert rec.status == "theorem-mismatch"
    assert rec.mismatches[0].endswith(f"is not a unit (norm 1{'0' * 5600})")


def test_pair_keyed_caches_keep_at_most_64_pairs():
    pairs = [(p, q) for p in primes_in_range(300, 1, 8)
             for q in primes_in_range(200, 7, 8)][:70]
    for p, q in pairs:
        assert verify_pair(p, q).status == "verified"
    for cache in (octic._validate_pair, octic._radicals, octic._tower_levels):
        assert cache.cache_info().currsize <= 64


def test_coordinates_past_the_str_digit_limit_serialise():
    # str(int) refuses more than 4,300 digits by default; 7 * 10^4999 + 123
    # has 5,000, and 3^10480 has 5,001 with no digit pattern
    big = 7 * 10 ** 4999 + 123
    assert harness._rat(-big, 11) == (
        "-7" + "0" * 4996 + "123/11")
    other = 3 ** 10480
    text = harness._rat(1, other).split("/")[1]
    assert len(text) == 5001 and text[0] != "0"
    value = 0
    for i in range(0, len(text), 500):  # int() of 500 digits is allowed
        chunk = text[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == other
    elem = OcticElem((17, 7), [0, Fraction(big, 3)] + [0] * 6)
    assert harness._coords_json(elem)["2"] == "7" + "0" * 4996 + "123/3"



def _record_sha256(rec) -> str:
    doc = json.dumps(record_json(rec, include_wall_time=False), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _negate_the_tau1_norms(monkeypatch):
    """Negate every (1+tau1)-norm of the tables; classification does not
    read the closed form, so only the norm-table rows see the change."""
    real = theorems._relative_norm

    def relative_norm(flips, form):
        r, c = real(flips, form)
        return (-r, -c) if flips == octic.TAU1 else (r, c)

    monkeypatch.setattr(theorems, "_relative_norm", relative_norm)


FAILED_TAU1_ROWS = [
    "base-units:e2:1+tau1 expected -1", "base-units:ep:1+tau1 expected E2",
    "base-units:eq:1+tau1 expected -E", "base-units:e2q:1+tau1 expected -1",
    "product-units:e2pq:1+tau1 expected -1", "product-units:epq:1+tau1 expected -E",
    "half-2p-unit:e2p:1+tau1 expected -1"]


@pytest.mark.parametrize("p,q,rows,digest", [
    (17, 7, 7, "47c2b74820ca9407a547b1502d0e14b8cdf1361e40cca63d0a80674c6092886f"),
    # N(eps_82) = -1: no half-2p-unit row
    (41, 7, 6, "a14ad5bd5e5072a524727165b7d289e528f2a0f0e5eb78ad0b74b2130a751ec1")])
def test_failing_norm_table_rows_are_listed_by_label(p, q, rows, digest, monkeypatch):
    _negate_the_tau1_norms(monkeypatch)
    rec = verify_pair(p, q)
    assert rec.status == "theorem-mismatch"
    assert rec.table_failures == FAILED_TAU1_ROWS[:rows]
    assert rec.mismatches == [f"{rows} norm-table rows failed"]
    assert _record_sha256(rec) == digest


def test_theorem_and_kuroda_disagreeing_is_a_mismatch(monkeypatch):
    real = theorems.predict_h2K
    monkeypatch.setattr(theorems, "predict_h2K", lambda tag, h2: 2 * real(tag, h2))
    rec = verify_pair(17, 7)
    assert rec.status == "theorem-mismatch"
    assert rec.mismatches == ["theorem h2(K) = 4 but Kuroda gives 2",
                              "intermediate-field identity failed: m5=2, h2(k5)=4"]
    assert record_json(rec)["h2"]["K"] == 4
    assert _record_sha256(rec) == (
        "ab9b24508a56597b4c0e80f21ad6902be2986de4d0ed9317f343ac3cf3e7ae25")


def test_failure_inside_the_h2_stage_keeps_h2_and_m_null(monkeypatch):
    def kuroda_h2K(pair, m, h2):
        raise InternalInconsistencyError("Kuroda formula refused")

    monkeypatch.setattr(classnumber, "kuroda_h2K", kuroda_h2K)
    rec = verify_pair(17, 7)
    assert rec.status == "theorem-mismatch"
    assert rec.mismatches == ["Kuroda formula refused"]
    doc = record_json(rec, include_wall_time=False)
    assert doc["h2"] is None and doc["m"] is None
    assert doc["resaturation_m"] == 0 and doc["table_failures"] == []
    assert _record_sha256(rec) == (
        "8ae93e10cbe3830a6bbd9462e9237db1cd27e971ae82a1e6ab924574c9fbb3e6")


# sha256 of the records of the 8 pairs with the largest 2pq in sparse-large
# seed 7 (perfbench.workloads.sample_sparse_pairs(7, 64)): every radicand is
# new, and the units near 2pq = 10^7 have the longest periods of the sample
SPARSE_LARGE_SEED7_TOP8_SHA256 = {
    (3169, 1439): "03edde8f034755512725f5cf1d8d7ed1d49be1628a11f124e2f1b8e17a16276f",
    (7321, 631): "54f9477b4005984ae1194b136aa21f569515fcbd349838015bee10f609acd89a",
    (4049, 1151): "52fd131517e1fc15cf7f342402671117a517038f770fec4e909d8e9ffdadeb92",
    (1201, 3943): "d1bf716fd86d56180941c7404563c8a137af19c4c4eb090d66569f682fd77863",
    (6673, 719): "7232e16122957481a8abeffc50a7e72ba26a72768880c79b4320851838bd5c57",
    (1361, 3559): "4d3ef908d13ffd82df133fb995732fa293b18984c5931a8a22b592d03acaaa68",
    (3593, 1367): "609196499074a896d0fba605102ee23380ab6c8b873877be713939353f353e0c",
    (5569, 887): "40e5cb9db8a4b08cd55a8648e09aae48a8e2d348e61e057c003de99ffefb3174",
}


@pytest.mark.parametrize("p,q", list(SPARSE_LARGE_SEED7_TOP8_SHA256))
def test_largest_sparse_large_seed7_pairs_keep_their_record_bytes(p, q):
    rec = verify_pair(p, q)
    assert rec.status == "verified", rec.mismatches
    assert _record_sha256(rec) == SPARSE_LARGE_SEED7_TOP8_SHA256[p, q]


def test_quarter_determinant_is_made_once_per_pair(monkeypatch):
    calls = []
    real = unit_lattice.quarter_determinant
    monkeypatch.setattr(unit_lattice, "quarter_determinant",
                        lambda words: calls.append(1) or real(words))
    rec = verify_pair(41, 23)
    assert rec.status == "verified" and rec.rank_ok
    assert len(calls) == 1
    # the index check reads the same determinant as the rank certificate
    cc = theorems.ClassificationContext(PrimePair(41, 23))
    words = theorems.unit_generators(rec.case_tag, cc)
    assert abs(real(words)) << rec.m == 4 ** 7
    assert not unit_lattice.rank_certificate(words, cc.ctx, 0)
    with pytest.raises(TriquadError, match="needs 7 words"):
        real(words + words[:1])


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_scan_streams_the_bytes_of_scan_json_and_scan_csv(tmp_path, jobs):
    result = scan_pairs(100, 47)
    for fmt, text in (("json", scan_json(result)), ("csv", scan_csv(result))):
        out = tmp_path / f"scan-{jobs}.{fmt}"
        assert cli_main(["scan", "--pmax", "100", "--qmax", "47", "--jobs", str(jobs),
                         "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode()


def test_writer_keeps_no_record_it_has_written():
    refs = []

    def records():
        for p, q in valid_pairs(100, 31):
            # the writer may hold the record it is writing, no earlier one
            assert all(ref() is None for ref in refs[:-1])
            rec = verify_pair(p, q)
            refs.append(weakref.ref(rec))
            yield rec
            del rec

    for fmt in ("json", "csv"):
        refs.clear()
        out = io.StringIO()
        summary = harness.write_scan(records(), out, fmt)
        assert summary["pairs"] == len(refs) == 15
        assert all(ref() is None for ref in refs)
        assert out.getvalue() == (scan_json if fmt == "json" else scan_csv)(
            scan_pairs(100, 31))


def test_range_scan_lists_the_pairs_with_2pq_at_most_the_bound():
    def prime(n):
        return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))

    for bound in (0, 237, 238, 239, 5000, 100000):
        brute = [(p, q) for p in range(1, bound + 1, 8) for q in range(7, bound // (2 * p) + 1, 8)
                 if prime(p) and prime(q)]
        assert list(harness.range_pairs(bound)) == brute
    assert list(harness.range_pairs(238)) == [(17, 7)]


def test_cli_range_scan_is_the_report_of_its_pairs(tmp_path, capsys):
    out = tmp_path / "range.json"
    assert cli_main(["scan", "--max-2pq", "3000", "--jobs", "2", "--out", str(out)]) == 0
    pairs = list(harness.range_pairs(3000))
    assert pairs == [(17, 7), (17, 23), (17, 31), (17, 47), (17, 71), (17, 79),
                     (41, 7), (41, 23), (41, 31), (73, 7), (89, 7), (97, 7),
                     (113, 7), (137, 7), (193, 7)]
    buf = io.StringIO()
    harness.write_scan(map(verify_pair, *zip(*pairs)), buf)
    assert out.read_text() == buf.getvalue()
    for argv in (["--max-2pq", "3000", "--pmax", "100"], ["--pmax", "100"], ["--qmax", "7"],
                 [], ["--pmax", "100", "--qmax", "7", "--max-2pq", "3000"]):
        assert cli_main(["scan", *argv]) == 1
        assert capsys.readouterr().err.startswith("error: scan takes")


def test_radicand_caches_are_bounded():
    for cache in (quadratic.fundamental_unit, classnumber._h2_cached):
        assert cache.cache_info().maxsize == quadratic.RADICAND_CACHE_SIZE > 0


def test_pool_scan_sends_windows_of_capped_batches_and_reads_ahead_one(monkeypatch):
    drawn = []
    windows = []

    class FakePool:
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            windows.append((len(tasks), chunksize, len(drawn)))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(harness, "_scan_worker", lambda task: task[:2])
    _allow_cpus(monkeypatch, 2)
    window = 4 * 2 * harness.BATCH_CAP
    pairs = [(p, 7) for p in range(5 * window // 2)]
    for rec in harness.iter_records(pairs, Config(jobs=2)):
        drawn.append(rec)
    assert drawn == pairs
    # each window goes out before the one two back has been read: no more
    # than two windows are held at once
    last = window // 2
    assert windows == [(window, harness.BATCH_CAP, 0),
                       (window, harness.BATCH_CAP, 0),
                       (last, math.ceil(last / 8), window)]
