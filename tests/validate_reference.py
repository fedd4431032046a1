"""Per-sample reference implementation of :func:`tilq.problem.validate`.

This is the scalar form the package used before validation moved to
whole-array passes: every field is called once per sample pair (and per
finite-difference point) with float times, and the checks run one pair at a
time.  The oracle tests require the package's ``validate`` to report the
same violations, in the same order, with the same locations and details.
It predates the wrong-shape terminal weights and array-contract checks, so
it is only compared on specs whose fields accept time arrays and whose
terminal weights have the right shapes.
"""

import math

import numpy as np

from tilq.problem import (PD_EIG_RTOL, PSD_EIG_FLOOR, SYMMETRY_RTOL,
                          DERIVATIVE_RTOL, ValidationReport, Violation)


def sample_pairs(T, samples):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    pts = np.empty((samples, 2))
    for k in range(samples):
        u = (k + 0.5) / samples
        w = (k * golden) % 1.0
        s = T * max(u, 1e-6)
        pts[k] = (s * w, s)
    return pts


def reference_validate(spec, samples=100, derivative_rtol=DERIVATIVE_RTOL):
    out = []
    T = spec.horizon
    n, m = spec.dims.n, spec.dims.m
    pairs = sample_pairs(T, samples)
    probe_h = min(1e-3 * T, 0.45 * T / max(samples, 2))

    def evaluated(name, loc, evaluate):
        try:
            arr = np.asarray(evaluate(), dtype=float)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            out.append(Violation(f"{name} evaluation failed", loc, repr(exc)))
            return None
        if not np.all(np.isfinite(arr)):
            out.append(Violation(f"{name} not finite", loc, "non-finite entries"))
            return None
        return arr

    def fd_probe(evaluate, t, lo, hi):
        h = probe_h
        if hi - lo < 2 * h:
            return None
        if t - h < lo:
            return (-3 * evaluate(t) + 4 * evaluate(t + h) - evaluate(t + 2 * h)) / (2 * h)
        if t + h > hi:
            return (3 * evaluate(t) - 4 * evaluate(t - h) + evaluate(t - 2 * h)) / (2 * h)
        return (evaluate(t + h) - evaluate(t - h)) / (2 * h)

    def check_derivative(name, loc, evaluate, derivative, t, hi):
        try:
            fd = fd_probe(evaluate, t, 0.0, hi)
            if fd is None:
                return
            dv = np.asarray(derivative(t), dtype=float)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            out.append(Violation(f"{name} derivative probe failed", loc,
                                 repr(exc)))
            return
        err = float(np.max(np.abs(fd - dv)))
        scale = 1.0 + float(np.max(np.abs(fd))) + float(np.max(np.abs(dv)))
        if err > derivative_rtol * scale:
            out.append(Violation(
                f"{name} derivative inconsistent", loc,
                f"finite difference {err:.3e} off the supplied value"))

    def asymmetric(name, loc, v):
        asym = np.max(np.abs(v - v.T))
        if asym > SYMMETRY_RTOL * max(1.0, float(np.max(np.abs(v)))):
            out.append(Violation(f"{name} not symmetric", loc,
                                 f"asymmetry {asym:.3e}"))
            return True
        return False

    two_time = [("Q", spec.Q, True), ("S", spec.S, False), ("M", spec.M, True),
                ("q", spec.q, False), ("rho", spec.rho, False)]
    for t, s in pairs:
        loc = (t, s)
        values = {}
        for name, f, symmetric in two_time:
            v = evaluated(name, loc, lambda: f(t, s))
            if v is None:
                continue
            values[name] = v
            if symmetric:
                asymmetric(name, loc, v)
            check_derivative(name, loc, lambda tt: f(tt, s),
                             lambda tt: f.dt(tt, s), t, s)
        if "M" in values:
            Mv = 0.5 * (values["M"] + values["M"].T)
            eigs = np.linalg.eigvalsh(Mv)
            if eigs[0] < PD_EIG_RTOL * max(1.0, float(np.max(np.abs(Mv)))):
                out.append(Violation("M not positive definite", loc,
                                     f"min eigenvalue {eigs[0]:.3e}"))
        if "Q" in values:
            q_min = float(np.linalg.eigvalsh(0.5 * (values["Q"] + values["Q"].T))[0])
            if q_min < PSD_EIG_FLOOR:
                out.append(Violation("Q not positive semi-definite", loc,
                                     f"min eigenvalue {q_min:.3e}"))

    t_line = np.linspace(0.0, T, max(8, samples // 4))
    for t in t_line:
        loc = (t,)
        for name, fn, shape in [("A", spec.dynamics.A, (n, n)),
                                ("B", spec.dynamics.B, (n, m)),
                                ("b", spec.dynamics.b, (n,))]:
            arr = evaluated(name, loc, lambda: fn(float(t)))
            if arr is not None and arr.shape != shape:
                out.append(Violation(f"{name} wrong shape", loc,
                                     f"{arr.shape} != {shape}"))
        Gv = evaluated("G", loc, lambda: spec.terminal.G(float(t)))
        if Gv is not None and not asymmetric("G", loc, Gv):
            if np.linalg.eigvalsh(0.5 * (Gv + Gv.T))[0] < PSD_EIG_FLOOR:
                out.append(Violation("G not positive semi-definite", loc, ""))
        for name, fn, dfn in [("G", spec.terminal.G, spec.terminal.dG_dt),
                              ("g", spec.terminal.g, spec.terminal.dg_dt)]:
            check_derivative(name, loc,
                             lambda tt: np.asarray(fn(float(tt)), dtype=float),
                             lambda tt: dfn(float(tt)), t, T)
    return ValidationReport(out)
