"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/report.py                          # all workloads, seeds 1..10
    python3 perfbench/report.py --workloads ci-suite --seeds 5 --trace 1

Each (workload, seed) runs ``run.py`` in a fresh process.  For every
metric the table gives the median over seeds, the quartile spread
(Q3 - Q1, from ``statistics.quantiles(values, n=4)``) as a share of the
median, and for end-to-end metrics the bound from BENCHMARK.json.  A
spread above a third of its bound is marked ``WIDE``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="runs seeds 1..N")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    wide = 0
    for workload in args.workloads:
        results = []
        for seed in range(1, args.seeds + 1):
            res = run_once(workload, seed, args.seconds, args.trace)
            results.append(res)
            print(f"# {workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            line = f"{workload:20s} {name:48s} {med:>14.6g} {first['unit']:6s}"
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
                line += f"  spread {spread:7.2%}"
                if name in bounds:
                    flag = "WIDE" if spread > bounds[name] / 3 and name != "setup_s" else "ok"
                    wide += flag == "WIDE"
                    line += f"  bound {bounds[name]:.2f}  {flag}"
            print(line, flush=True)
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
