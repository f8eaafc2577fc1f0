"""nfeq benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory, which must exist. Each operation of a workload runs in a
closed loop with one client. An untraced run (``--trace 0``) splits its
seconds over ``PROCESSES`` worker processes (``worker.py``), run one after
another, and pools their ops; each worker's set-up is one ``setup_s`` sample.
The result carries every end-to-end metric of ``BENCHMARK.json``. A traced
run (``--trace 1``) uses one worker and carries every per-layer metric
(``null`` when the traced function no longer exists). Times are in reference
seconds (see ``worker.py``); the meta line holds the raw ones.

Standard output ends with two JSON lines: ``{"meta": ...}`` (commit, seed,
op count, versions, failures) and the result
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: worker processes of an untraced run
PROCESSES = 5
#: every child must have ended by then (the harness allows 180 s per run)
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process and return its JSON result."""
    t0 = time.monotonic()
    if t0 >= deadline:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args, "--t0", repr(t0)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=deadline - t0)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the library sources, which names the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "nfeq" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no nfeq sources (src/nfeq)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(whys)})", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("error: --seconds must be nonnegative", file=sys.stderr)
        return 2

    # untraced, the seconds are split over PROCESSES workers run one after
    # another and their ops pooled, so one process's speed does not set the
    # median; traced, one worker compares its untraced and traced halves
    count = 1 if args.trace else PROCESSES
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / count), "--trace", str(args.trace)]
    try:
        procs = [spawn(worker_args, deadline) for _ in range(count)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def pooled(key):
        return [x for p in procs for x in p[key]]

    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    sup = pooled("sup_error")
    values = {
        "op_p50_s": statistics.median(pooled("op_s")),
        "op_cpu_s": statistics.median(pooled("op_cpu_s")),
        # one operation's peak differs from process to process, so the
        # workload's peak is the largest
        "peak_rss_mb": max(p["peak_rss_mb"] for p in procs),
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "sup_error": statistics.median(sup) if sup else None,
        "pass_ratio": 1.0 - failed / attempted,
        **procs[0].get("layer_metrics", {}),
    }
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in group}
    mismatches = procs[0].get("count_mismatches", [])
    # a failed warm-up op is a failure too, though it is not timed or counted
    warmup_failed = any(p["warmup_failed"] for p in procs)
    complete = args.trace == 1 or all(m["value"] is not None for m in metrics.values())
    correct = failed == 0 and not mismatches and not warmup_failed and complete
    meta = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "ops": attempted,
        "fail_ratio": failed / attempted,
        "setup_samples_s": [p["setup_s"] for p in procs],
        "raw_setup_samples_s": [p["raw_setup_s"] for p in procs],
        "peak_rss_samples_mb": [p["peak_rss_mb"] for p in procs],
        "raw_op_p50_s": statistics.median(pooled("op_wall_s")),
        "speed_factors": [p["speed_factor"] for p in procs],
        "op_wall_s": [[round(t, 6) for t in p["op_wall_s"]] for p in procs],
        "count_mismatches": mismatches,
        "absent_metrics": sorted(k for k, m in metrics.items() if m["value"] is None),
        "errors": pooled("errors")[:5],
        "spans_file": procs[0].get("spans_file"),
        **procs[0]["versions"],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
