"""cmfamilies benchmark: seeded session workloads timed end to end, and an
outside-in trace of every layer.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each session is a fresh interpreter (perfbench/session.py) that runs the
workload's queries once, single-threaded, closed loop, one client, with cold
caches.  Sessions repeat while the next one is expected to end within
--seconds of the run's start, setup launches included (at least one session
runs), and the end-to-end metrics are the medians over the sessions.  Their
timings are rescaled to the host's uncontended speed by the host-speed probes
the sessions run (hostspeed.py); the same metrics as wall time go to stderr.
--trace 1 runs one untraced and one traced session and reports the per-layer
metrics instead; the trace spans go to .bench_out/.

Every answer is checked against the independent path (see workloads.py), at
the default seed also against the stdout hashes in expected.json, and the
traced stdout against the untraced stdout.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics (names and units from
BENCHMARK.json).  A human-readable summary goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 15  # fresh interpreters per run for setup_s (median)
IMPORTTIME_LAUNCHES = 3  # python -X importtime launches for import.* (median)
SESSION_TIMEOUT_S = 120


def child_env() -> dict:
    """The package from this checkout; jobs=1 (the process pool would measure
    the scheduler); a fixed hash seed so that set order, and so the per-layer
    counts, repeat from run to run."""
    env = dict(os.environ)
    env.pop("CMFAMILIES_JOBS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_launches(env: dict) -> list[tuple[float, list[int]]]:
    """(seconds, probes_ns) per fresh interpreter: the time from its launch to
    `import cmfamilies.cli` done, and the host-speed probes run during the
    import.

    perf_counter is CLOCK_MONOTONIC, one clock for every process on the host.
    The first launch only warms the bytecode cache and is not counted.
    """
    code = ("import sys, time; sys.path.append(sys.argv[1]); import hostspeed; "
            "sampler = hostspeed.Sampler(); sampler.start(); import cmfamilies.cli; "
            "done = time.perf_counter_ns(); sampler.stop(); print(done, *sampler.probes_ns)")
    launches = []
    for _ in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        done, *probes = map(int, proc.stdout.split())
        launches.append(((done - start) / 1e9, probes))
    return launches[1:]


def import_times(env: dict) -> dict:
    """Median self time per imported module, in ms, from python -X importtime."""
    launches = []
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cmfamilies.cli"],
                              env=env, check=True, capture_output=True, text=True, timeout=60)
        per = {"stdlib": 0.0}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if not line.startswith("import time:") or not fields[0].strip().isdigit():
                continue
            name, self_ms = fields[2].strip(), int(fields[0]) / 1000
            if name == "cmfamilies" or name.startswith("cmfamilies."):
                per[name] = self_ms
            else:
                per["stdlib"] += self_ms
        launches.append(per)
    return {k: statistics.median(p.get(k, 0.0) for p in launches) for k in launches[0]}


def run_session(workload: str, seed: int, env: dict, trace_path: str = "-") -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "session.py"), workload, str(seed), trace_path],
        env=env, stdout=subprocess.PIPE, text=True, timeout=SESSION_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"session exited with {proc.returncode}")
    return json.loads(proc.stdout)


def tally(workload: str, seed: int, sessions: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over every session's operations.

    A query's operations fail when its check fails, when its stdout differs
    from the first session's (traced sessions included), or, at the default
    seed, when its stdout hash differs from expected.json.
    """
    reference = [q["sha256"] for q in sessions[0]["queries"]]
    pinned = reference
    if seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "expected.json").read_text())[workload]
    attempted = failed = 0
    for session in sessions:
        for i, q in enumerate(session["queries"]):
            attempted += q["ops"]
            bad = q["sha256"] != reference[i] or i >= len(pinned) or q["sha256"] != pinned[i]
            failed += max(q["failed"], int(bad))
    return attempted, failed


def end_to_end(sessions: list[dict], launches: list) -> tuple[dict, dict]:
    """(metrics, the same metrics as wall time): medians over the sessions
    and setup launches.  The metrics are rescaled to the host's uncontended
    speed by the run's probes (hostspeed.py); peak_rss_mb is as measured."""
    quiet, raw = [], []
    for s in sessions:
        own = [p for q in s["queries"] for p in q["probes_ns"]]
        quiet.append([hostspeed.quiet_seconds(
            q["seconds"], q["probes_ns"] if len(q["probes_ns"]) >= hostspeed.MIN_PROBES else own,
            hostspeed.SESSION_REFERENCE_NS) for q in s["queries"]])
        raw.append([q["seconds"] for q in s["queries"]])
    rss = statistics.median(s["peak_rss_mb"] for s in sessions)

    def summary(times, setups):
        return {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(sum(t) for t in times),
            "slowest_query_s": statistics.median(max(t) for t in times),
            "peak_rss_mb": rss,
        }
    quiet_setups = [hostspeed.quiet_seconds(t, probes, hostspeed.IMPORT_REFERENCE_NS)
                    for t, probes in launches]
    return summary(quiet, quiet_setups), summary(raw, [t for t, _ in launches])


def per_layer(names: list[str], traced: dict, untraced_wall: float, env: dict,
              workload: str, seed: int) -> dict:
    stats, counts, rates = traced["stats"], traced["counts"], traced["hit_rates"]
    queries = WORKLOADS[workload](seed)
    imports = import_times(env)
    products = counts.get("reps.mat_mul.scalar_mults", 0)
    special = {
        "reps.mat_mul.useful_share":
            counts.get("reps.mat_mul.useful_mults", 0) / products if products else 0.0,
        "cli.stdout_bytes": sum(r["stdout_bytes"] for q, r in zip(queries, traced["queries"])
                                if q["kind"] == "cli"),
        "import.stdlib.ms": imports["stdlib"],
        "trace.overhead_share": traced["wall_s"] / untraced_wall - 1,
    }
    for q, r in zip(queries, traced["queries"]):
        if q["kind"] == "suite":
            special[f"verify.suite_{q['suite']}.checks"] = r["checks"] or 0
    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif name in counts:
            out[name] = counts[name]
        elif field == "calls":
            out[name] = stats.get(base, [0, 0.0])[0]
        elif field == "self_s":
            out[name] = stats.get(base, [0, 0.0])[1]
        elif field == "hit_rate":
            out[name] = rates.get(base, 0.0)
        elif field == "self_ms" and base.startswith("import."):
            out[name] = imports.get(base.removeprefix("import."), 0.0)
        else:  # a count that stayed zero in this workload
            out[name] = 0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cmfamilies" / "__init__.py").is_file():
        print(f"error: no cmfamilies package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()

    # --seconds bounds the whole run, setup launches included
    start = time.perf_counter()
    launches = [] if args.trace else setup_launches(env)
    sessions_start = time.perf_counter()
    sessions = []
    while True:
        sessions.append(run_session(args.workload, args.seed, env))
        now = time.perf_counter()
        # the traced run needs only one untraced session, for the overhead
        next_end = now + (now - sessions_start) / len(sessions)
        if args.trace or next_end - start > args.seconds:
            break
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        traced = run_session(args.workload, args.seed, env, str(trace_path))
        untraced_wall = statistics.median(s["wall_s"] for s in sessions)
        sessions.append(traced)
        metrics = per_layer([m["name"] for m in spec["per_layer"]], traced, untraced_wall,
                            env, args.workload, args.seed)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, raw = end_to_end(sessions, launches)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print("as wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
              file=sys.stderr)

    attempted, failed = tally(args.workload, args.seed, sessions)
    print(f"{args.workload} seed={args.seed} sessions={len(sessions)} "
          f"attempted={attempted} failed={failed} failed_share={failed / attempted:.4f}",
          file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
