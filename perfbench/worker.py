"""One benchmark operation in a fresh process.

Run as ``python3 perfbench/worker.py <json request>``; prints one JSON object
as its last line of output.  A fresh process per operation is what makes
``ru_maxrss`` a per-operation peak: it never decreases within a process.

The operation: set-up repeated ``setup_reps`` times (build and validate the
problem, build the grid), one ``solve_equilibrium`` call, then the
verification stage.  On ``twostate_verify`` that stage is the full
``run_verification`` battery; on the solve-only workloads it is the
independent re-integration behind ``value_gap``.  The correctness gates run
untimed afterwards.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import gates
from spans import Tracer, per_layer_metrics
from workloads import WORKLOADS, set_up, tilq


def probe_points(seed: int, grid, n: int):
    """Seeded (node, state) probes for value_gap.

    The states are the 2^n corners of the box [-2, 2]^n.  Each antipodal
    pair starts from two seeded nodes in the first 1/32 of the horizon.  The
    gap grows with |x| and with the length of the re-integration, so the
    largest probe value tracks the gap's supremum rather than the luck of
    the draw, and the re-integration time hardly depends on the seed.
    """
    rng = np.random.default_rng([seed, 7])
    corners = np.array(list(itertools.product((-2.0, 2.0), repeat=n)))
    out = []
    for x in corners[: len(corners) // 2]:
        for t_idx in rng.integers(0, max(1, grid.N // 32), size=2):
            out += [(int(t_idx), x), (int(t_idx), -x)]
    return out


def value_gap(sol, probes) -> float:
    """max |V(t,x) - J(t,x)| / (1 + |V|), J from an independent re-integration.

    J is the cost of ``simulate_control`` under the ``feedback`` law,
    integrated by RK4 on the stage states, not the stored propagators that V
    was assembled from.
    """
    policy = tilq.policy
    spec, grid = sol.spec, sol.grid
    worst = 0.0
    for t_idx, x in probes:
        traj = policy.simulate_control(spec, grid,
                                       lambda t, y: policy.feedback(sol, t, y),
                                       t_idx, x, tables=sol.tables)
        J = policy.cost(spec, grid, traj, t_idx)
        V = policy.value(sol, float(grid.nodes[t_idx]), x)
        worst = max(worst, abs(V - J) / (1.0 + abs(V)))
    return worst


def run_operation(req: dict) -> dict:
    wl = WORKLOADS[req["workload"]]
    seed, N, reps = req["seed"], req["N"], req["setup_reps"]
    tracer = Tracer() if req["trace"] else None
    if tracer:
        tracer.install()
    out = {"ok": False, "failures": []}
    try:
        setup_s = []
        for _ in range(reps):
            t0 = time.perf_counter()
            prob = set_up(wl, seed, N)
            setup_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        sol = tilq.policy.solve_equilibrium(prob.spec, prob.grid,
                                            prob.solve_options, prob.solve_options)
        solve_s = time.perf_counter() - t0
        probes = probe_points(seed, prob.grid, prob.spec.dims.n)
        report = None
        t0 = time.perf_counter()
        if wl.verify:
            report = tilq.verification.run_verification(sol, prob.verify_options)
        else:
            gap = value_gap(sol, probes)
        verify_s = time.perf_counter() - t0
    except tilq.TilqError as exc:
        out["failures"].append(f"{type(exc).__name__}: {exc}")
        return out
    finally:
        if tracer:
            tracer.uninstall()
    if wl.verify:
        gap = value_gap(sol, probes)
    failures = gates.check(sol, req["reference"], report)
    if not math.isfinite(gap):
        failures.append(f"value_gap is {gap}")
    out.update(
        ok=not failures, failures=failures,
        setup_s=setup_s, solve_s=solve_s, verify_s=verify_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        value_gap=gap,
        dims={"N": prob.grid.N, "n": prob.spec.dims.n, "m": prob.spec.dims.m})
    if tracer:
        extra = {"riccati.final_residual": sol.riccati.diagnostics.deltas[-1],
                 "verification.worst_margin": gates.worst_margin(report)}
        out["layers"], out["absent"] = per_layer_metrics(tracer, reps, extra)
        out["missing_targets"] = tracer.missing
    return out


def main() -> int:
    req = json.loads(sys.argv[1])
    try:
        out = run_operation(req)
    except Exception:  # noqa: BLE001 - reported as a failed operation
        out = {"ok": False, "failures": [traceback.format_exc(limit=8)]}
    out["provenance"] = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print(json.dumps(out, default=float))
    return 0


def _blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
