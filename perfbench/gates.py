"""Correctness gates applied to every benchmark operation.

An operation fails, and reports no timing, when any gate fails:

* the Riccati and Picard iterations converged;
* P is symmetric and P(T) equals G(T) to roundoff;
* P(0), phi(0) and psi(0) match the values that ``record_reference.py``
  recorded in ``reference.json``.  The tolerance is sized to the method's
  O(h^2) discretization error, not to roundoff, so a more accurate solver
  (whose answer moves toward the exact solution by about that error) still
  passes, while an answer off by more than the discretization error fails;
* on the verify workload, all 11 checks of the battery pass.
"""

from __future__ import annotations

import numpy as np

# Reference tolerance: GATE_H2_FACTOR * h^2 * (1 + max |reference|).  The
# recorded Richardson estimates of the seed solver's own error (reference.json,
# "error_estimate") stay below a quarter of it on every recorded input.
GATE_H2_FACTOR = 1.0
ROUNDOFF = 1e-12
BATTERY_CHECKS = 11


def reference_values(sol) -> dict:
    return {"P0": sol.riccati.P[0].tolist(),
            "phi0": sol.auxiliary.phi[0].tolist(),
            "psi0": float(sol.auxiliary.psi[0])}


def tolerance(h: float, ref) -> float:
    return GATE_H2_FACTOR * h * h * (1.0 + float(np.max(np.abs(ref))))


def check(sol, reference, report) -> list:
    """Names of the failed gates; empty when the operation is correct."""
    failures = []
    if not sol.converged:
        failures.append("solve did not converge")
    P = sol.riccati.P
    scale = 1.0 + float(np.max(np.abs(P)))
    asym = float(np.max(np.abs(P - np.swapaxes(P, -1, -2))))
    if asym > ROUNDOFF * scale:
        failures.append(f"P asymmetric by {asym:.3e}")
    G_T = sol.tables.G_T
    end = float(np.max(np.abs(P[-1] - G_T)))
    if end > ROUNDOFF * (1.0 + float(np.max(np.abs(G_T)))):
        failures.append(f"P(T) differs from G(T) by {end:.3e}")
    if reference is None:
        failures.append("no reference values recorded for this input")
    else:
        got = reference_values(sol)
        for name in ("P0", "phi0", "psi0"):
            ref = np.asarray(reference[name], dtype=float)
            err = float(np.max(np.abs(np.asarray(got[name]) - ref)))
            tol = tolerance(sol.grid.h, ref)
            if not err <= tol:
                failures.append(f"{name} off its reference by {err:.3e} "
                                f"(tolerance {tol:.3e})")
    if report is not None:
        if len(report.checks) != BATTERY_CHECKS:
            failures.append(f"battery ran {len(report.checks)} checks, "
                            f"expected {BATTERY_CHECKS}")
        failures += [f"check failed: {name}" for name in report.failed_names()]
    return failures


def worst_margin(report) -> float:
    """Largest worst/tolerance over the battery's checks (0 without one)."""
    if report is None:
        return 0.0
    return max(c.worst / c.tolerance for c in report.checks)
