"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):
  python3 perfbench/spread.py --workload NAME [--workload NAME ...]
                              --seeds 101-110 [--seconds 42] [--out FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints, per metric, the ten values, their median and the distance between
their first and third quartiles (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound from BENCHMARK.json.  The same is
printed for the timings as wall time, before rescaling to the host's
uncontended speed.  --out writes all of it as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    raw_line = next(line for line in proc.stderr.splitlines() if line.startswith("as wall time:"))
    raw = {}
    for item in raw_line.removeprefix("as wall time:").split(","):
        name, value = item.split()
        raw[name] = float(value)
    return result, raw


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "iqr_share": (q3 - q1) / median}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("101-110"))
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    report = {}
    for workload in args.workload:
        runs = [one_run(workload, seed, seconds) for seed in args.seeds]
        entry = {"seeds": args.seeds, "all_correct": all(r["correct"] for r, _ in runs),
                 "failed": sum(r["failed"] for r, _ in runs), "metrics": {}, "as_wall_time": {}}
        for name, bound in bounds.items():
            entry["metrics"][name] = {**spread([r["metrics"][name]["value"] for r, _ in runs]),
                                      "bound": bound}
            entry["as_wall_time"][name] = spread([raw[name] for _, raw in runs])
        report[workload] = entry
        print(f"{workload}: correct={entry['all_correct']} failed={entry['failed']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:16s} median {m['median']:10.5g}  spread {m['iqr_share']:.3f} "
                  f"(bound {m['bound']})  as wall time: median "
                  f"{entry['as_wall_time'][name]['median']:10.5g}  spread "
                  f"{entry['as_wall_time'][name]['iqr_share']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
