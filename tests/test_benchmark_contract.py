"""The benchmark's per-repetition runner accepts the library.

perfbench/unit.py runs one repetition of a workload in a fresh interpreter,
as perfbench/run.py starts it: PYTHONPATH=src, cwd at the repository root.
It refuses caches that are filled at import, and with --trace 1 it reads
library functions by their module and name, so a rename or a cache warmed
at import fails here rather than only in the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from triquad.arith import PrimePair, primes_in_range
from triquad.harness import record_json, verify_pair

ROOT = Path(__file__).resolve().parent.parent


def run_unit(workload, out):
    # no bytecode cache is written under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "unit.py"), "--workload", workload,
         "--seed", "1", "--trace", "1", "--out", str(out)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload, jobs", [("sparse-large", 1), ("scan-pool", 2)])
def test_traced_unit_run_keeps_the_benchmark_contract(tmp_path, workload, jobs):
    out = run_unit(workload, tmp_path / "u.json")
    # for scans, errors holds the digest gate against perfbench/reference.json
    assert out["errors"] == []
    assert out["failed"] == 0
    assert all(entry["currsize"] == 0 for entry in out["cold_caches"].values())
    if workload == "scan-pool":
        pairs = [(p, q) for p in primes_in_range(1000, 1, 8)
                 for q in primes_in_range(100, 7, 8)]
    else:
        pairs = [tuple(pair) for pair in out["pairs"]]
        assert len(pairs) == 64
    assert out["attempted"] == len(pairs)
    # one miss per radicand in each process that meets it
    misses = out["layers"]["quadratic.fundamental_unit.misses"]
    distinct = len({d for p, q in pairs for d in PrimePair(p, q).radicands})
    assert distinct <= misses <= jobs * distinct
    if workload == "sparse-large":
        assert misses == distinct == 385


def test_sparse_large_samples_of_seeds_2_to_10_verify_pair_by_pair(monkeypatch):
    """The calls a sparse-large repetition makes, in this process, for the
    samples of seeds 2 to 10 (seed 1 is the traced run above): verify_pair
    one pair at a time, each record without its wall time, and the report
    of a seed's records by json.dumps."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    distinct = set()
    for seed in range(2, 11):
        pairs = workloads.sample_sparse_pairs(seed, 64)
        distinct.update(pairs)
        docs = []
        for p, q in pairs:
            rec = verify_pair(p, q)
            assert rec.status == "verified", (seed, p, q, rec.mismatches)
            docs.append(record_json(rec, include_wall_time=False))
        report = json.dumps(docs, indent=2, sort_keys=True) + "\n"
        assert [tuple(doc["pair"].values()) for doc in json.loads(report)] == pairs
    assert len(distinct) == 566
