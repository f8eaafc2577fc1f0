"""One workload process: set up, warm up, run operations, report as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --t0 MONOTONIC

``--t0`` is the ``time.monotonic()`` reading of the parent just before it
started this process, so set-up covers interpreter start, imports, building
the inputs and one untimed warm-up operation.

Operations run in a closed loop, one after another, until ``--seconds`` have
passed (at least one). With ``--trace 1`` the first half of the time runs
untraced and the second half traced, and the per-layer metrics come from the
traced half. The last line of standard output is one JSON object with the
per-op samples; ``run.py`` pools them over the processes of a run.

Every reported time is in reference seconds: the measured seconds times
``CAL_REF_S`` over the median time of a calibration pass run in the same
process during the same period (passes before every operation, about 5% of
the operation's time). The
calibration pass does fixed interpreter and numpy work that never touches
nfeq, so the ratio removes the host's changes in speed, which on a shared
machine move every measured time together by up to 2x within minutes, and
keeps the program's own changes. Raw seconds are reported alongside.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = Path(__file__).resolve().parent / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: calibration pass time on the reference host; it fixes the scale of every
#: reported time and must never change once runs have been compared
CAL_REF_S = 0.006
#: calibration passes after set-up, to scale the set-up time
SETUP_CAL_PASSES = 25
#: calibration time before an op, as a share of the previous op's time
CAL_SHARE = 0.05
_CAL_DATA = np.random.default_rng(0).random(1 << 17)


def calibration_pass() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    x = np.sin(_CAL_DATA) * np.sqrt(_CAL_DATA)
    x.sort()
    return time.perf_counter() - t0


def speed(cal: list[float]) -> float:
    """Factor turning this period's measured seconds into reference seconds."""
    return CAL_REF_S / statistics.median(cal)


def run_ops(wl, seconds: float, tracer=None, label: str = "op") -> dict:
    """Closed loop of operations; returns timings, outcomes and layer data.

    An operation fails if it raises or if any of its checks fails; failed
    operations are counted, never dropped.
    """
    wall, cpu, cal, sup, layers, errors = [], [], [], [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        # long ops get more passes, so every op carries about as much
        # calibration as it takes time
        cal_end = time.perf_counter() + CAL_SHARE * (wall[-1] if wall else 0.0)
        cal.append(calibration_pass())
        while time.perf_counter() < cal_end:
            cal.append(calibration_pass())
        if tracer is not None:
            tracer.begin_op()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.op()
        except Exception:  # a failing op is a result to report, not a crash
            out = None
            errors.append(traceback.format_exc())
        w1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            layers.append(tracer.end_op(f"{label}{len(wall)}"))
        wall.append(w1 - w0)
        cpu.append(c1 - c0)
        if out is None:
            failed += 1
        else:
            if math.isfinite(out["sup_error"]):
                sup.append(out["sup_error"])
            problems = wl.check(out)
            if problems:
                failed += 1
                errors.append("; ".join(problems))
        if w1 >= deadline:
            break
    return {"wall": wall, "cpu": cpu, "cal": cal, "sup": sup, "failed": failed,
            "errors": errors, "layers": layers}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def layer_metrics(tracer, run: dict, setup: dict, setup_speed: float) -> tuple[dict, list]:
    """Per-op medians of every traced metric, and exact-count mismatches."""
    import spans

    names = [m for layer in spans.TARGETS for m in spans.layer_metrics(layer)]
    unavailable = tracer.unavailable()
    out = {m: None if m in unavailable else
           statistics.median(op.get(m, 0.0) for op in run["layers"]) for m in names}
    for m in names:
        if m.endswith("_s") and out[m] is not None:
            out[m] *= speed(run["cal"])
    # manufacture runs during set-up only, so its self time is the set-up's
    manufacture = "oracles.manufacture.self_s"
    if manufacture not in unavailable:
        out[manufacture] = setup.get(manufacture, 0.0) * setup_speed
    mismatches = []
    for m in spans.EXACT_COUNTS:
        seen = sorted({op.get(m, 0.0) for op in run["layers"]})
        if m not in unavailable and len(seen) > 1:
            mismatches.append({"metric": m, "values": seen})
    return out, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import nfeq
    if Path(nfeq.__file__).resolve().parent != ROOT / "src" / "nfeq":
        print(f"error: imported nfeq from {nfeq.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        # imported only here: the untraced run must not depend on the names
        # of the traced functions
        import spans
        tracer = spans.Tracer()
        tracer.install()
        tracer.begin_op()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_layers = {}
    if tracer is not None:
        setup_layers = tracer.end_op("setup")
        tracer.uninstall()
    warm = run_ops(wl, 0.0)
    raw_setup_s = time.monotonic() - args.t0
    setup_speed = speed([calibration_pass() for _ in range(SETUP_CAL_PASSES)])

    if tracer is None:
        main_run = run_ops(wl, args.seconds)
        runs = [main_run]
    else:
        plain = run_ops(wl, args.seconds / 2.0)
        tracer.install()
        main_run = run_ops(wl, args.seconds / 2.0, tracer, label="traced")
        tracer.uninstall()
        runs = [plain, main_run]

    factor = speed(main_run["cal"])
    result = {
        "setup_s": raw_setup_s * setup_speed,
        "raw_setup_s": raw_setup_s,
        "attempted": sum(len(r["wall"]) for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": (warm["errors"] + [e for r in runs for e in r["errors"]])[:5],
        "warmup_failed": bool(warm["failed"]),
        "speed_factor": factor,
        "op_wall_s": main_run["wall"],
        "op_s": [t * factor for t in main_run["wall"]],
        "op_cpu_s": [t * factor for t in main_run["cpu"]],
        "sup_error": main_run["sup"],
        "peak_rss_mb": peak_rss_mb(),
        "versions": versions(),
    }
    if tracer is not None:
        layer, mismatches = layer_metrics(tracer, main_run, setup_layers, setup_speed)
        layer["trace.overhead_s"] = (statistics.median(result["op_s"])
                                     - statistics.median(plain["wall"]) * speed(plain["cal"]))
        result["layer_metrics"] = layer
        result["count_mismatches"] = mismatches
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    for err in result["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps(result, allow_nan=False, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
