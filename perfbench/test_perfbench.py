"""Tests of the benchmark's own code: tracer, sampler and digest gate.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, None, None]


def test_self_time_on_nested_tree():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.leaf", 15, 20, 1),
        _span("b", 30, 60, 0),      # overlaps a, as pool workers do
        _span("c", 90, 130, 0),     # runs past its parent's end
    ]
    assert tr.self_times(spans) == [100 - 50 - 10, 25, 5, 30, 40]


def test_outermost_skips_nested_calls_of_the_same_name():
    spans = [_span("f", 0, 10, -1), _span("f", 2, 5, 0), _span("g", 6, 8, 0),
             _span("f", 6, 7, 2), _span("f", 20, 30, -1)]
    assert tr.outermost(spans, ["f"]) == [0, 4]
    assert tr.total_s(spans, ["f"]) == 20 / 1e9


@pytest.fixture
def toy_package():
    """toy.a defines leaf and mid (mid calls leaf through its globals);
    toy.b imports mid by name and defines top."""
    pkg = types.ModuleType("toy")
    a = types.ModuleType("toy.a")
    b = types.ModuleType("toy.b")
    exec("def leaf(x):\n    return x + 1\n\n"
         "def mid(x):\n    return 2 * leaf(x)\n\n"
         "def _private(x):\n    return x\n", a.__dict__)
    b.mid = a.mid
    exec("def top(x):\n    return mid(x) + 1\n", b.__dict__)
    pkg.a, pkg.b = a, b
    saved = {k: sys.modules.get(k) for k in ("toy", "toy.a", "toy.b")}
    sys.modules.update({"toy": pkg, "toy.a": a, "toy.b": b})
    yield pkg
    for k, v in saved.items():
        if v is None:
            sys.modules.pop(k, None)
        else:
            sys.modules[k] = v


def test_tracer_rebinds_imported_names_and_measures_self_time(toy_package):
    ticks = iter(range(1, 100))
    t = tr.Tracer(package="toy", layers=("a", "b"), clock=lambda: next(ticks))
    with t:
        assert toy_package.b.top(1) == 5
    names = [s[tr.NAME] for s in t.spans]
    assert names == ["b.top", "a.mid", "a.leaf"]
    assert [s[tr.PARENT] for s in t.spans] == [-1, 0, 1]
    # top 1..6, mid 2..5, leaf 3..4
    assert tr.self_times(t.spans) == [2, 2, 1]


def _bindings(prefix):
    return {(name, attr): id(obj)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
            for attr, obj in vars(mod).items()}


def test_tracer_restores_every_triquad_binding():
    import triquad  # noqa: F401
    from triquad import octic, unit_lattice

    before = _bindings("triquad")
    original = octic.sqrt_exact
    with tr.Tracer():
        assert unit_lattice.sqrt_exact is not original
        assert octic.sqrt_exact is unit_lattice.sqrt_exact
        assert triquad.sqrt_exact is octic.sqrt_exact
    assert _bindings("triquad") == before
    assert octic.sqrt_exact is original


def test_traced_scan_hands_pair_spans_back_on_records():
    from triquad import harness, quadratic

    t = tr.Tracer(caches={"quadratic.fundamental_unit": quadratic.fundamental_unit})
    with t:
        result = harness.scan_pairs(20, 10)
    assert [r.pair for r in result.records] == [(17, 7)]
    scan = t.index_of("harness.scan_pairs")
    t.adopt(result.records, scan)
    pair_root = t.index_of(tr.PAIR_FUNCTION)
    assert t.spans[pair_root][tr.PARENT] == scan
    # the pair's spans are appended after the parent's own, root first
    assert all(s[tr.PAIR] == (17, 7) for s in t.spans[pair_root:])
    assert all(s[tr.PAIR] is None for s in t.spans[:pair_root])
    assert any(s[tr.NAME] == "octic.sqrt_exact" for s in t.spans)
    # serial spans nest without overlap, so self times add up to the root
    root = t.spans[scan]
    assert sum(tr.self_times(t.spans)) == root[tr.END] - root[tr.START]


def test_sampler_is_deterministic_and_never_reuses_a_prime():
    from triquad.arith import is_prime

    pairs = wl.sample_sparse_pairs(7, 60)
    assert pairs == wl.sample_sparse_pairs(7, 60)
    assert pairs != wl.sample_sparse_pairs(8, 60)
    primes = [x for pair in pairs for x in pair]
    assert len(primes) == len(set(primes)) == 120
    for p, q in pairs:
        assert p % 8 == 1 and q % 8 == 7
        assert p > wl.SPARSE_P_MIN and q > wl.SPARSE_Q_MIN
        assert 2 * p * q < wl.QUAD_BOUND
        assert is_prime(p) and is_prime(q)


def test_sampler_bound_matches_the_program():
    from triquad import classnumber

    assert wl.QUAD_BOUND == classnumber.DEFAULT_QUAD_BOUND


def test_sampler_refuses_more_pairs_than_exist():
    with pytest.raises(ValueError):
        wl.sample_sparse_pairs(1, 10, bound=2 * 601 * 300)


def test_digest_gate_rejects_one_changed_byte():
    workload = wl.Workload("toy-scan", "scan", jobs=1, p_max=20, q_max=10)
    report = '{"records": [], "summary": {"pairs": 0}}\n'
    reference = {"scan_json_sha256": {"scan_pairs(20, 10)": wl.digest(report)}}
    assert wl.check_scan_digest(workload, report, reference) is None
    changed = report.replace("0", "1", 1)
    assert len(changed) == len(report) and changed != report
    assert "differs" in wl.check_scan_digest(workload, changed, reference)
    other = wl.Workload("toy-scan", "scan", jobs=1, p_max=30, q_max=10)
    assert "no reference digest" in wl.check_scan_digest(other, report, reference)


def test_every_scan_workload_has_a_reference_digest():
    reference = wl.load_reference()
    for w in wl.WORKLOADS.values():
        if w.kind == "scan":
            assert f"scan_pairs({w.p_max}, {w.q_max})" in reference["scan_json_sha256"]


def test_layer_map_names_only_listed_per_layer_metrics():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    mapped = {name for row in wl.load_reference()["layer_map"] for name in row["per_layer"]}
    assert mapped == listed
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_probe_reports_a_slowdown_and_ends_on_stop():
    import os
    import time

    import probe

    procs = probe.start([min(os.sched_getaffinity(0))])
    time.sleep(0.3)
    samples = probe.stop(procs)
    assert all(proc.poll() is not None for proc in procs)
    assert samples and probe.slowdown(samples) > 0
    t_mid = samples[len(samples) // 2][0]
    assert probe.slowdown(samples, t_mid, t_mid) > 0
    with pytest.raises(ValueError):
        probe.slowdown(samples, t_mid + 60, t_mid + 61)
