"""Benchmark of the triquad prover: pairs verified per CPU-second, end to end
and layer by layer.

    python3 perfbench/run.py --workload scan-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout that holds src/triquad. Each repetition of a
workload runs in a fresh interpreter (perfbench/unit.py) so that it starts
with cold caches, as every `triquad` invocation does.

--trace 0 repeats the workload while the time measured stays within
--seconds (at least once) and prints the end-to-end metrics. --trace 1 runs
it once untraced and once traced and prints the per-layer metrics; their
difference in wall time is `trace_overhead_frac`.

Reported times are divided by the slowdown that perfbench/probe.py measured
beside them, which states them at a fixed reference host speed. The same
metrics as measured, not divided, are printed beside them ("raw") and kept
with the slowdowns in the output files.

Every pair must come out `verified`; a scan report must match the sha256
recorded in reference.json; the traced and untraced sparse-large records
must be identical. A failed check prints the reason to standard error and
exits 1 with no result. Files go to perfbench/out/. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import workloads as wl  # noqa: E402

UNIT_TIMEOUT_S = 170
RUN_LIMIT_S = 160        # no repetition starts that could end after this
SETUP_REPEATS = 25
SETUP_CODE = "import triquad; from mpmath import iv"


class CheckFailed(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group
    (pool workers included) and wait for it."""
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CheckFailed(f"{cmd[1:3]} exceeded {timeout:.0f} s")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def measure_setup() -> tuple[list[float], float]:
    """Fresh-interpreter import times of triquad and mpmath.iv, which the
    first rank certificate imports, and the probe slowdown over the imports.
    The first import writes the bytecode cache and is not counted; users pay
    that once per install."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})  # the imports inherit it, so one probe sees them
    probes = probe.start([cpu])
    times = []
    try:
        for i in range(SETUP_REPEATS + 1):
            t0 = time.perf_counter()
            res = _run_child(cmd, 60)
            dt = time.perf_counter() - t0
            if res.returncode != 0:
                raise CheckFailed(f"setup import failed: {res.stderr.strip()[-500:]}")
            if i:
                times.append(dt)
    finally:
        samples = probe.stop(probes)
        os.sched_setaffinity(0, allowed)
    return times, probe.slowdown(samples)


def run_unit(workload: wl.Workload, seed: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    out = OUT / f"unit-{workload.name}-seed{seed}-trace{int(trace)}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", workload.name,
           "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out)]
    res = _run_child(cmd, UNIT_TIMEOUT_S)
    if res.returncode != 0 or not out.is_file():
        raise CheckFailed(f"{workload.name} repetition failed "
                          f"(exit {res.returncode}): {res.stderr.strip()[-2000:]}")
    unit = json.loads(out.read_text())
    if unit["errors"]:
        raise CheckFailed(f"{workload.name}: " + "; ".join(unit["errors"][:10]))
    return unit


def end_to_end(units: list[dict], setup: list[float], setup_slowdown: float) -> dict[str, float]:
    """Times are divided by the probe slowdown measured while they ran, which
    puts them at the probe's reference host speed."""
    pair_ms = [t / s for u in units for t, s in zip(u["pair_ms"], u["pair_slowdown"])]
    verified = sum(u["attempted"] - u["failed"] for u in units)
    return {
        "wall_s": statistics.median(u["wall_s"] / u["slowdown"] for u in units),
        "pairs_per_cpu_s": verified / sum(u["cpu_s"] / u["slowdown"] for u in units),
        "pair_ms_p50": statistics.median(pair_ms),
        "pair_ms_p80": statistics.quantiles(pair_ms, n=5)[3],
        "setup_s": statistics.median(setup) / setup_slowdown,
        "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
    }


def raw_end_to_end(units: list[dict], setup: list[float]) -> dict[str, float]:
    """The same metrics as measured, not divided by any slowdown, so that a
    change the probe absorbs can still be seen."""
    flat = [{**u, "slowdown": 1.0, "pair_slowdown": [1.0] * len(u["pair_ms"])} for u in units]
    return end_to_end(flat, setup, 1.0)


def run_workload(workload: wl.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; raise CheckFailed on any failed check."""
    start = time.perf_counter()
    setup, setup_slowdown = ([], 1.0) if trace else measure_setup()
    units: list[dict] = []
    raw: dict[str, float] = {}
    if trace:
        plain = run_unit(workload, seed, trace=False)
        traced = run_unit(workload, seed, trace=True)
        if plain["report_sha256"] != traced["report_sha256"]:
            raise CheckFailed(f"{workload.name}: traced and untraced reports differ")
        units = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace_overhead_frac"] = ((traced["wall_s"] / traced["slowdown"])
                                          / (plain["wall_s"] / plain["slowdown"]) - 1)
    else:
        measured = 0.0
        while True:
            units.append(run_unit(workload, seed, trace=False))
            measured += units[-1]["wall_s"]
            per_unit = measured / len(units)
            elapsed = time.perf_counter() - start
            if (measured + per_unit > seconds
                    or elapsed + 1.5 * max(u["wall_s"] for u in units) > RUN_LIMIT_S):
                break
        metrics = end_to_end(units, setup, setup_slowdown)
        raw = raw_end_to_end(units, setup)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "pairs": units[0]["pairs"], "setup_s": setup,
        "setup_slowdown": setup_slowdown,
        "units": [{k: v for k, v in u.items() if k not in ("pairs", "layers")}
                  for u in units],
        "metrics": metrics, "raw_metrics": raw,
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
    }


def metric_units(per_layer: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if per_layer else "end_to_end"]}


def result_line(result: dict, units: dict[str, str]) -> dict:
    return {
        "correct": True, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def print_human(result: dict, units: dict[str, str]) -> None:
    n_pairs = sum(len(u["pair_ms"]) for u in result["units"])
    print(f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"repetitions={len(result['units'])} pair samples={n_pairs}")
    print("# measured wall_s " + " ".join(f"{u['wall_s']:.3f}" for u in result["units"])
          + ", probe slowdown " + " ".join(f"{u['slowdown']:.3f}" for u in result["units"]))
    if result["pairs"]:
        print("# pairs " + " ".join(f"{p},{q}" for p, q in result["pairs"]))
    for name, unit in units.items():
        raw = result["raw_metrics"].get(name)
        print(f"{result['workload']:>14} {name:<44} {result['metrics'][name]:>14.6g} {unit}"
              + ("" if raw is None else f"   raw {raw:.6g}"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    names = sorted(wl.WORKLOADS) if ns.workload == "all" else [ns.workload]
    lines = []
    try:
        units = metric_units(per_layer=bool(ns.trace))
        for name in names:
            result = run_workload(wl.WORKLOADS[name], ns.seed, ns.seconds, bool(ns.trace))
            missing = sorted(set(units) - set(result["metrics"]))
            if missing:
                raise CheckFailed(f"metrics not measured: {missing}")
            (OUT / f"run-{name}-seed{ns.seed}-trace{ns.trace}.json").write_text(
                json.dumps(result, indent=1) + "\n")
            print_human(result, units)
            lines.append(result_line(result, units))
    except (CheckFailed, OSError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        for name, line in zip(names, lines):
            print(json.dumps({"workload": name, **line}))
        print(json.dumps({
            "correct": True,
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{n}.{k}": v for n, x in zip(names, lines)
                        for k, v in x["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
