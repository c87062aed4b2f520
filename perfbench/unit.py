"""One measured repetition of one workload, in a fresh interpreter.

    python3 perfbench/unit.py --workload scan-dense --seed 1 --trace 0 --out unit.json

The caches of triquad are module-level and unbounded, so every repetition
runs in its own process and starts cold; `cache_info()` at start is written
to the output to show it. The process imports triquad from the checkout's
src/ (run.py puts it on PYTHONPATH) and refuses to run against any other
copy. With --trace 1 the layer functions are wrapped by perfbench.tracer and
the per-layer figures are written too, and the spans to
spans-<workload>-seed<n>.tsv.gz beside the --out file.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

PAIR_WINDOW_S = 0.5

LAYER_FUNCTIONS = {
    "count": {
        "octic.octic_mul.calls": "octic.octic_mul",
        "octic.sqrt_exact.calls": "octic.sqrt_exact",
        "unit_lattice.saturate.calls": "unit_lattice.saturate",
        "classnumber.narrow_class_number.calls": "classnumber.narrow_class_number",
    },
    "self_s": {
        "octic.octic_mul.self_s": "octic.octic_mul",
        "octic.octic_inv.self_s": "octic.octic_inv",
        "octic.embedding_sign.self_s": "octic.embedding_sign",
        "classnumber.narrow_class_number.self_s": "classnumber.narrow_class_number",
        "quadratic.fundamental_unit.self_s": "quadratic.fundamental_unit",
    },
    "total_s": {
        "unit_lattice.saturate.total_s": "unit_lattice.saturate",
        "unit_lattice.rank_certificate.total_s": "unit_lattice.rank_certificate",
        "theorems.classify_pair.total_s": "theorems.classify_pair",
        "theorems.unit_generators.total_s": "theorems.unit_generators",
        "theorems.verify_norm_tables.total_s": "theorems.verify_norm_tables",
    },
}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest reaped
    # pool worker, since the pool is joined before scan_pairs returns
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _coord_bits_max(records) -> int:
    bits = 0
    for rec in records:
        for _, coords in rec.generators:
            for value in coords.values():
                num, den = value.split("/")
                bits = max(bits, abs(int(num)).bit_length(), int(den).bit_length())
    return bits


def layer_metrics(spans: list[list], caches: dict[str, list[int]], records,
                  wall_s: float, jobs: int) -> dict[str, float]:
    """The per-layer figures of one traced repetition."""
    selfs = tr.self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[tr.NAME], []).append(i)

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, ())) / 1e9

    out: dict[str, float] = {}
    for metric, name in LAYER_FUNCTIONS["count"].items():
        out[metric] = len(by_name.get(name, ()))
    for metric, name in LAYER_FUNCTIONS["self_s"].items():
        out[metric] = self_s(name)
    for metric, name in LAYER_FUNCTIONS["total_s"].items():
        out[metric] = tr.total_s(spans, [name])

    sqrt_spans = [spans[i] for i in by_name.get("octic.sqrt_exact", ())]
    miss = [s for s in sqrt_spans if s[tr.VALUE]]
    hit = [s for s in sqrt_spans if not s[tr.VALUE]]
    out["octic.sqrt_exact.misses"] = len(miss)
    out["octic.sqrt_exact.hit_ratio"] = len(hit) / max(len(sqrt_spans), 1)
    out["octic.sqrt_exact.hit_s"] = sum(s[tr.END] - s[tr.START] for s in hit) / 1e9
    out["octic.sqrt_exact.miss_s"] = sum(s[tr.END] - s[tr.START] for s in miss) / 1e9
    out["octic.coord_bits_max"] = _coord_bits_max(records)
    out["unit_lattice.saturate.steps"] = sum(
        spans[i][tr.VALUE] for i in by_name.get("unit_lattice.saturate", ()))

    h2_calls = len(by_name.get("classnumber.h2_real_quadratic", ()))
    out["classnumber.h2_cache.hit_ratio"] = (
        1 - out["classnumber.narrow_class_number.calls"] / h2_calls if h2_calls else 0.0)
    out["quadratic.fundamental_unit.misses"] = caches["quadratic.fundamental_unit"][1]
    for key in ("unit_lattice.unit_context", "theorems.classification_context"):
        hits, misses = caches[key]
        out[f"{key}.hit_ratio"] = hits / max(hits + misses, 1)

    busy = sum(rec.wall_time for rec in records)
    out["harness.pool_busy_frac"] = busy / (jobs * wall_s)
    out["harness.serialize_s"] = tr.total_s(spans, ["harness.scan_json",
                                                    "harness.record_json"])
    for layer in tr.LAYERS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = sum(self_s(n) for n in by_name if n.startswith(prefix))
    return out


def write_spans(path: Path, spans: list[list]) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\tp\tq\tvalue\n")
        for i, (name, start, end, parent, pair, value) in enumerate(spans):
            p, q = pair if pair else ("", "")
            fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{p}\t{q}\t"
                     f"{'' if value is None else int(value)}\n")


def run(workload: wl.Workload, seed: int, trace: bool, spans_path: Path) -> dict:
    import triquad
    from triquad import classnumber, harness, quadratic, theorems, unit_lattice

    src = (ROOT / "src" / "triquad").resolve()
    if Path(triquad.__file__).resolve().parent != src:
        raise SystemExit(f"triquad imported from {triquad.__file__}, not {src}")

    caches = {
        "quadratic.fundamental_unit": quadratic.fundamental_unit,
        "classnumber.h2_cache": classnumber._h2_cached,
        "unit_lattice.unit_context": unit_lattice.unit_context,
        "theorems.classification_context": theorems.classification_context,
    }
    cold = {k: c.cache_info()._asdict() for k, c in caches.items()}
    errors = [f"{k} is not empty at start: {v}" for k, v in cold.items() if v["currsize"]]

    pairs = wl.workload_pairs(workload, seed)

    # the repetition and its pool workers are pinned to `jobs` CPUs, each
    # with a probe, so that the probes see the CPUs the work runs on
    cpus = sorted(os.sched_getaffinity(0))[:workload.jobs]
    os.sched_setaffinity(0, cpus)
    tracer = tr.Tracer(caches=caches) if trace else None
    records: list = []
    raised = 0
    probes = probe.start(cpus)
    if tracer:
        tracer.install()
    try:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        started = time.monotonic()  # the probes' clock
        if workload.kind == "scan":
            config = harness.Config(jobs=workload.jobs)
            result = harness.scan_pairs(workload.p_max, workload.q_max, config)
            report = harness.scan_json(result)
            records = result.records
        else:
            docs = []
            for p, q in pairs:
                try:
                    rec = harness.verify_pair(p, q)
                except Exception as exc:  # a pair that raises is a failed pair
                    raised += 1
                    errors.append(f"verify_pair({p}, {q}) raised {exc!r}")
                    continue
                records.append(rec)
                docs.append(harness.record_json(rec, include_wall_time=False))
            report = json.dumps(docs, indent=2, sort_keys=True) + "\n"
        wall_s = time.perf_counter() - t0
        # before the probes are reaped, so their CPU time and memory stay out
        cpu_s = _cpu_s() - cpu0
        peak_rss_mb = _peak_rss_mb()
    finally:
        if tracer:
            tracer.uninstall()
        samples = probe.stop(probes)
    slowdown = probe.slowdown(samples)
    if workload.jobs == 1:
        # serial pairs run back to back from `started`; each pair's time is
        # scaled by the probe samples around it, as the host speed drifts
        pair_slowdown = []
        for rec in records:
            pair_slowdown.append(probe.slowdown(samples, started - PAIR_WINDOW_S,
                                                started + rec.wall_time + PAIR_WINDOW_S))
            started += rec.wall_time
    else:
        pair_slowdown = [slowdown] * len(records)

    attempted = len(records) + raised
    failed = raised + sum(rec.status != harness.STATUS_VERIFIED for rec in records)
    errors += [f"pair {rec.pair} status {rec.status}: {rec.mismatches}"
               for rec in records if rec.status != harness.STATUS_VERIFIED]
    if workload.kind == "scan":
        bad = wl.check_scan_digest(workload, report, wl.load_reference())
        if bad:
            errors.append(bad)
    elif [rec.pair for rec in records] != pairs:
        errors.append("records do not match the sampled pairs")

    out = {
        "workload": workload.name, "seed": seed, "traced": trace,
        "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "slowdown": slowdown, "pair_slowdown": pair_slowdown,
        "probe_samples": len(samples),
        "attempted": attempted, "failed": failed,
        "pair_ms": [rec.wall_time * 1000 for rec in records],
        "report_sha256": wl.digest(report),
        "cold_caches": cold, "pairs": pairs, "errors": errors,
    }
    if tracer:
        parent = tracer.index_of("harness.scan_pairs") if workload.kind == "scan" else -1
        cache_counts = tracer.adopt(records, parent)
        out["layers"] = layer_metrics(tracer.spans, cache_counts, records,
                                      wall_s, workload.jobs)
        out["n_spans"] = len(tracer.spans)
        write_spans(spans_path, tracer.spans)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ns = ap.parse_args(argv)
    spans = ns.out.with_name(f"spans-{ns.workload}-seed{ns.seed}.tsv.gz")
    out = run(wl.WORKLOADS[ns.workload], ns.seed, bool(ns.trace), spans)
    ns.out.write_text(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
