"""Run-to-run spread of the end-to-end metrics, the way BENCHMARK.json is judged.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/out/set-a.json
    python3 perfbench/spread.py --seeds 11-20 --out perfbench/out/set-b.json \
        --against perfbench/out/set-a.json

Runs the benchmark command of BENCHMARK.json once per seed and workload with
--trace 0, seed-major so that the workloads interleave and host noise does
not land on one workload's repeats. For each workload and metric it prints
the median and the quartile spread (Q3 - Q1) / median from
statistics.quantiles(n=4), against the metric's bound; with --against it also
prints how much worse this set's median is than the other set's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def worse_by(metric: dict, new: float, old: float) -> float:
    """Share of `old` by which `new` is worse in the metric's direction."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--against", type=Path, default=None)
    ns = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {n: [] for n in names}
    for seed in ns.seeds:
        for name in names:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if res.returncode != 0:
                print(f"{name} seed {seed} failed: {res.stderr.strip()[-1000:]}",
                      file=sys.stderr)
                return 1
            line = json.loads(res.stdout.strip().splitlines()[-1])
            runs[name].append({"seed": seed, **{k: v["value"] for k, v in line["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)

    other = json.loads(ns.against.read_text())["summary"] if ns.against else None
    summary: dict[str, dict] = {}
    ok = True
    for name in names:
        summary[name] = {}
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs[name]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            note = ""
            if spread > metric["bound"]:
                ok, note = False, " SPREAD OVER BOUND"
            if other is not None:
                drift = worse_by(metric, med, other[name][metric["name"]]["median"])
                row["worse_than_against"] = drift
                note += f" worse-by={drift:+.3f}"
                if drift > metric["bound"]:
                    ok, note = False, note + " DRIFT OVER BOUND"
            summary[name][metric["name"]] = row
            print(f"{name:>14} {metric['name']:<16} median={med:<12.5g} "
                  f"spread={spread:.3f} bound={metric['bound']}{note}")
    ns.out.parent.mkdir(parents=True, exist_ok=True)
    ns.out.write_text(json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "run_seconds": spec["run_seconds"], "runs_per_workload": len(ns.seeds),
        "seeds": ns.seeds, "summary": summary, "runs": runs,
    }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
