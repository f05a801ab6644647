"""One benchmark session: a fresh interpreter runs one workload's queries.

Usage: python3 perfbench/session.py WORKLOAD SEED TRACE_FILE|-

Caches start cold, as a CLI user or a verify run gets them.  Queries run in
the workload's fixed order, one at a time, each timed around its call into
cmfamilies.  With a TRACE_FILE the package is wrapped by the outside-in
tracer first and the spans are written to that file at the end; without one,
host-speed probes (hostspeed.py) run during the queries instead.  The session
prints one JSON object on stdout: per-query times, probe durations, stdout
hashes and check results, the session wall time and peak resident memory,
and with tracing the per-layer counts.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmfamilies import cli, verify  # noqa: E402

from hostspeed import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(query: dict, tracer: Tracer | None):
    """Run one query; returns (text it printed, exit code, verify result or None)."""
    if query["kind"] == "suite":
        key = query["suite"]
        call = lambda: verify.run_suites([key], jobs=1)  # noqa: E731
        if tracer is not None:
            call = tracer.wrap(call, f"verify.suite_{key}", hot=False)
        (result,) = call()
        return f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}\n", 0, result
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(query["argv"])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return out.getvalue(), code, None


def _failures(query: dict, text: str, code: int, result, answers: list) -> tuple[int, int]:
    """(operations attempted, operations failed) for one answered query."""
    if query["check"] == "suite":
        detail = result.detail
        if result.passed:
            return query["checks"], int(detail != f"{query['checks']} checks")
        return query["checks"], max(1, int(detail.split()[0]))
    if code != 0:
        return 1, 1
    if query["check"] == "exit":
        return 1, 0
    if query["check"] == "equal":
        return 1, int(json.loads(text)["equal"] is not True)
    closed = json.loads(answers[query["pair"]])["rigid"]
    return 1, int(json.loads(text)["rigid"] != closed)


def _snapshot(tracer: Tracer) -> dict:
    """Cumulative calls and counts so far, flat, for per-query differences."""
    out = {f"{name}.calls": calls for name, (calls, _) in tracer.stats.items()}
    out.update(tracer.counts)
    out.pop("reps.mat_mul.max_dim", None)
    return out


def main(argv) -> int:
    workload, seed, trace_path = argv[0], int(argv[1]), argv[2]
    queries = WORKLOADS[workload](seed)
    tracer = sampler = None
    if trace_path != "-":
        tracer = Tracer()
        tracer.install()
    else:
        sampler = Sampler()
        sampler.start()
    probes = sampler.probes_ns if sampler else []
    answers, records, per_query = [], [], []
    for i, query in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        text, result = "", None
        first_probe = len(probes)
        start = time.perf_counter()
        try:
            text, code, result = _run(query, tracer)
            seconds = time.perf_counter() - start
            last_probe = len(probes)
            ops, failed = _failures(query, text, code, result, answers)
        except Exception as exc:  # a crash is a failed operation, never dropped
            seconds = time.perf_counter() - start
            last_probe = len(probes)
            print(f"query {i} {query}: {exc!r}", file=sys.stderr)
            ops = failed = query.get("checks", 1)
        answers.append(text)
        data = text.encode()
        records.append({
            "seconds": seconds,
            "probes_ns": probes[first_probe:last_probe],
            "sha256": hashlib.sha256(data).hexdigest(),
            "stdout_bytes": len(data),
            "ops": ops,
            "failed": failed,
            "checks": int(result.detail.split()[0]) if result and result.passed else None,
        })
        if tracer is not None:
            per_query.append(_snapshot(tracer))
    if sampler is not None:
        sampler.stop()
    out = {
        # closed loop: first query to last answer, less the checks in between
        "wall_s": sum(r["seconds"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "queries": records,
    }
    if tracer is not None:
        out["stats"] = {name: [calls, ns / 1e9] for name, (calls, ns) in tracer.stats.items()}
        out["counts"] = dict(tracer.counts)
        out["hit_rates"] = tracer.cache_rates()
        deltas = [{k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
                  for before, after in zip([{}] + per_query, per_query)]
        with open(trace_path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "queries": queries,
                       "per_query": deltas,
                       "fields": ["id", "parent", "name", "start_ns", "end_ns", "query"],
                       "spans": tracer.spans}, fh)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
