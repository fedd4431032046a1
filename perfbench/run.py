"""Benchmark of the ``tilq`` solver: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload scalar_hyp_solve --seed 1 --seconds 45 --trace 0

Runs operations of the workload one at a time, each in a fresh worker
process (``worker.py``), until the next one would end past ``--seconds``.
Every operation passes the correctness gates (``gates.py``) or counts as
failed and reports no timing.  Prints a human-readable summary, one
provenance line, and as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: medians over the successful
operations (``setup_s`` over every set-up repetition).  ``--trace 1``
alternates untraced and traced operations and reports the per-layer metrics
of the traced ones (``spans.py``) with the tracing overhead, the traced
minus the untraced ``solve_s``.  Metric names and bounds are in
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave the checkout as it was found

from spans import SOLVE_LAYERS  # noqa: E402
from workloads import (WORKLOADS, reference_key, tabulated_parameters,  # noqa: E402
                       tabulated_variant)

SETUP_REPS = 5
# Hard wall for one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "solve_s": "s", "verify_s": "s",
              "peak_rss_mb": "MiB", "value_gap": "1"}


def worker_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env, nproc


def run_worker(request: dict, env: dict, timeout: float) -> dict:
    """One operation in a fresh process; a crash or timeout is a failed op."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(request)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "timed_out": True,
                "failures": [f"operation exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "failures": [
            f"worker exited with code {proc.returncode}: {proc.stderr[-2000:]}"]}


def run_loop(request: dict, seconds: float, trace: bool) -> list:
    """Closed loop: one operation at a time until the budget is spent.

    With tracing, operations alternate untraced / traced, starting untraced,
    and at least one of each runs.
    """
    env, _ = worker_env()
    start = time.perf_counter()
    ops = []
    min_ops = 2 if trace else 1
    while True:
        elapsed = time.perf_counter() - start
        if len(ops) >= min_ops and elapsed * (len(ops) + 1) / len(ops) > seconds:
            break
        req = dict(request, trace=trace and len(ops) % 2 == 1)
        res = run_worker(req, env, RUN_LIMIT_S - elapsed)
        res["traced"] = req["trace"]
        ops.append(res)
        if res.get("timed_out"):
            break
    return ops


def median(values):
    return statistics.median(values) if values else None


def end_to_end(ok: list) -> dict:
    """Samples of each end-to-end metric over the successful operations."""
    return {
        "setup_s": [s for r in ok for s in r["setup_s"]],
        "solve_s": [r["solve_s"] for r in ok],
        "verify_s": [r["verify_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "value_gap": [r["value_gap"] for r in ok],
    }


def per_layer(ok: list) -> tuple[dict, dict, list, list]:
    """Medians of the traced operations' layer metrics, plus tracing overhead."""
    traced = [r for r in ok if r["traced"]]
    untraced = [r for r in ok if not r["traced"]]
    values, units = {}, {}
    for r in traced:
        for name, m in r["layers"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {name: median(v) for name, v in values.items()}
    if traced and untraced:
        out["trace.overhead_s"] = (median([r["solve_s"] for r in traced])
                                   - median([r["solve_s"] for r in untraced]))
        units["trace.overhead_s"] = "s"
    absent = sorted({a for r in traced for a in r["absent"]})
    missing = sorted({t for r in traced for t in r["missing_targets"]})
    return out, units, absent, missing


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: the self-check's grid sizes")
    args = p.parse_args(argv)
    # a terminated run raises here, so subprocess.run kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wl = WORKLOADS[args.workload]
    N = wl.N if args.size == "full" else wl.small_N
    references = json.loads((HERE / "reference.json").read_text())
    request = {"workload": wl.name, "seed": args.seed, "N": N,
               "setup_reps": SETUP_REPS,
               "reference": references[args.size].get(reference_key(wl, args.seed))}
    ops = run_loop(request, args.seconds, bool(args.trace))
    ok = [r for r in ops if r["ok"]]
    failed = len(ops) - len(ok)

    print(f"workload {wl.name}  seed {args.seed}  operations {len(ops)}  "
          f"failed {failed}  ops_failed_frac {failed / len(ops):.4g} (failed/attempted)")
    for r in ops:
        for f in r["failures"]:
            print(f"  failed operation: {f}", file=sys.stderr)
    if args.trace:
        values, units, absent, missing = per_layer(ok)
        if absent:
            print(f"  absent metrics {', '.join(absent)}: wrap targets "
                  f"{', '.join(missing)} are gone from src/")
        for name, v in values.items():
            note = "  (computed from array shapes, not measured)" if units[name] == "bytes" else ""
            print(f"  {name:36s} {v:.6g} {units[name]}{note}")
        layers = [values.get(f"solve.{x}_self_s") for x in SOLVE_LAYERS]
        if None not in layers and "trace.overhead_s" in values:
            print(f"  solve layers' self times sum to {sum(layers):.6g} s; the untraced "
                  f"solve_s is that minus the tracing overhead "
                  f"{values['trace.overhead_s']:.6g} s")
    else:
        samples = end_to_end(ok)
        values = {k: median(v) for k, v in samples.items()}
        units = END_TO_END
        for name, v in samples.items():
            shown = (f"{median(v):.6g} {units[name]}  median of {len(v)}, range "
                     f"{min(v):.6g} to {max(v):.6g}") if v else "none: no successful operation"
            print(f"  {name:36s} {shown}")

    _, nproc = worker_env()
    done = ok[0] if ok else ops[0]
    provenance = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        **done.get("dims", {"N": N}), "nproc": nproc,
        **done.get("provenance", {}),
        "python": platform.python_version(),
        "setup_reps": SETUP_REPS, "byte_counts": "computed from array shapes",
    }
    if wl.name == "tabulated_poly_solve":
        variant = tabulated_variant(args.seed)
        provenance["tabulated"] = {"variant": variant,
                                   **tabulated_parameters(variant)}
    print("provenance " + json.dumps(provenance, sort_keys=True))

    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
