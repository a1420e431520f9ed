"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py --workloads relations,segments --seeds 1-10 --seconds 25

For every workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median, the figure the bounds in
BENCHMARK.json are judged against), one run at a time in a subprocess, and
finally one JSON object with all of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            out = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or out is None or not out["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            for name, metric in out["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in out["metrics"].items())
                + f"\n    {lines[0]}", flush=True)
        summary[workload] = {name: summarise(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"  {workload} {name}: median={s['median']:.5g} spread={s['spread']:.4f}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
