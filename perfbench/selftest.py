"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload for one operation (``--seconds 0``), untraced and
   traced, and requires a correct result that names every end-to-end
   (untraced) or per-layer (traced) metric of ``BENCHMARK.json`` with its
   unit.
2. Feeds the solve-large check a wrong exact solution and requires that the
   operation fails, so the fail ratio is 1.
3. Requires that the benchmark refuses, with a nonzero exit code and no
   result, to run in a directory holding only ``BENCHMARK.json`` and the
   benchmark's own files.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


class SelfTestError(AssertionError):
    pass


def expect(ok: bool, msg: str) -> None:
    if not ok:
        raise SelfTestError(msg)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    expect(proc.returncode == 0, f"{workload}: exit code {proc.returncode}")
    res = json.loads(proc.stdout.splitlines()[-1])
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(res)}")
    expect(res["correct"] and res["attempted"] >= 1 and res["failed"] == 0,
           f"{workload}: {res['failed']} of {res['attempted']} ops failed")
    group = spec["per_layer"] if trace else spec["end_to_end"]
    expect(set(res["metrics"]) == {m["name"] for m in group},
           f"{workload}: metric names differ from BENCHMARK.json")
    for m in group:
        entry = res["metrics"][m["name"]]
        expect(entry["unit"] == m["unit"], f"{workload}: unit of {m['name']}")
        # a per-layer metric reads null once its traced function is gone
        numeric = isinstance(entry["value"], (int, float))
        expect(numeric or (trace and entry["value"] is None),
               f"{workload}: {m['name']} = {entry['value']!r}")


def check_wrong_exact() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker
    import workloads
    from nfeq import oracles

    wl = workloads.SolveLarge(SEED)
    wl.exact_vals = oracles.cusp_solution(0.25)(wl.ts)
    out = worker.run_ops(wl, 0.0)
    fail_ratio = out["failed"] / len(out["wall"])
    expect(fail_ratio == 1.0, f"wrong exact solution: fail ratio {fail_ratio}")


def check_bare_directory(spec: dict) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit code {proc.returncode}, output {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
            print(f"ok: {w['name']} trace={trace}")
    check_wrong_exact()
    print("ok: wrong exact solution fails every op")
    check_bare_directory(spec)
    print("ok: refuses to run without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
