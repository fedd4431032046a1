"""Record the reference values that gate every benchmark operation.

    python3 perfbench/record_reference.py

Solves every input the benchmark can generate, at the benchmark's N and at
the self-check's N, and writes P(0), phi(0), psi(0) to ``reference.json``.
Each entry also carries a Richardson estimate of the solver's own
discretization error, |X(N) - X(N/2)| / 3 for an O(h^2) method, and its
ratio to the gate tolerance; recording stops if any ratio exceeds 1/4, since
the gate would then sit too close to the method's own error.
Run it only on a commit whose solver is trusted: the values it writes define
what the benchmark accepts as correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import gates
from workloads import TABULATED_VARIANTS, WORKLOADS, reference_key, set_up, tilq

OUT = Path(__file__).resolve().parent / "reference.json"


def solve(wl, seed, N):
    prob = set_up(wl, seed, N)
    return tilq.solve_equilibrium(prob.spec, prob.grid, prob.solve_options,
                                  prob.solve_options)


def entry(wl, seed, N) -> dict:
    sol = solve(wl, seed, N)
    fine = gates.reference_values(sol)
    coarse = gates.reference_values(solve(wl, seed, N // 2))
    est, ratio = {}, {}
    for name in ("P0", "phi0", "psi0"):
        diff = np.abs(np.asarray(fine[name]) - np.asarray(coarse[name]))
        est[name] = float(diff.max()) / 3.0
        ratio[name] = est[name] / gates.tolerance(sol.grid.h, fine[name])
    worst = max(ratio.values())
    print(f"{wl.name} seed {seed} N={N}: error/tolerance {worst:.3f}", flush=True)
    if worst > 0.25:
        sys.exit(f"{wl.name} seed {seed} N={N}: the solver's own error is "
                 f"{worst:.2f} of the gate tolerance")
    return {**fine, "N": N, "error_estimate": est, "error_over_tolerance": ratio}


def main() -> int:
    out = {}
    for size in ("full", "small"):
        out[size] = {}
        for wl in WORKLOADS.values():
            seeds = range(TABULATED_VARIANTS) if wl.name == "tabulated_poly_solve" else [0]
            N = wl.N if size == "full" else wl.small_N
            for seed in seeds:
                out[size][reference_key(wl, seed)] = entry(wl, seed, N)
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
