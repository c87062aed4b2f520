"""Host-speed probe: samples how fast one CPU runs while a repetition runs.

    python3 perfbench/probe.py --cpu 0    # stops when its stdin closes

On a shared 2-vCPU virtual machine (Intel Xeon) the same code ran up to
1.4x slower for seconds or minutes at a time, which a 20-30 s repetition
cannot average away. The probe runs beside the repetition, pinned to a
CPU the repetition uses and at the lowest priority. Every ~10 ms it times a
fixed chunk of Fraction arithmetic in its own CPU time, so each sample shows
the speed of that CPU at that moment while costing the repetition about 3%
of it. On exit it prints its samples, [time.monotonic(), chunk ns], as
JSON; `slowdown` turns the samples of an interval into mean chunk time over
REFERENCE_CHUNK_NS, by which the benchmark divides the times it reports.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

REFERENCE_CHUNK_NS = 250_000
PERIOD_S = 0.01


def chunk() -> Fraction:
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i)
    return s


def start(cpus: list[int]) -> list[subprocess.Popen]:
    """One probe per CPU, running until `stop`."""
    return [subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--cpu", str(cpu)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for cpu in cpus]


def stop(procs: list[subprocess.Popen]) -> list[list[float]]:
    """Close each probe's stdin, which ends it; return all samples as
    [time, chunk_ns]. It does not judge them, so that it can run in a
    `finally` without hiding the error that got there."""
    return [s for proc in procs for s in json.loads(proc.communicate("", timeout=60)[0])]


def slowdown(samples: list[list[float]], t0: float = float("-inf"),
             t1: float = float("inf")) -> float:
    """Mean chunk time of the samples taken in [t0, t1] over the reference."""
    inside = [ns for t, ns in samples if t0 <= t <= t1]
    if not inside:
        raise ValueError("no probe samples in the interval")
    return sum(inside) / len(inside) / REFERENCE_CHUNK_NS


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cpu", type=int, required=True)
    ns = ap.parse_args(argv)
    os.sched_setaffinity(0, {ns.cpu})
    os.nice(19)
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t0 = time.thread_time_ns()
        chunk()
        samples.append((time.monotonic(), time.thread_time_ns() - t0))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
