"""Reference implementation of the point evaluations and the RK4 loop of
:mod:`tilq.policy`.

This is the form the package used before the time lookup moved to Python
floats and the step loop hoisted its constants: ``_locate`` works on the
grid's numpy nodes, ``value`` and ``grad_value`` locate t once per table,
and every product is ``@``.  The oracle tests require the package to give
bit-identical results, and it still does after its later rewrites: the
negated feedback rows, the fast paths for float64 states and controls, the
0-d step factors and ``k + k`` for ``2 * k``.  It reads the same feedback
table and SpecTables grid evaluations as the package, so it checks the
lookup and the integration, not how those tables are built.

:func:`simulate_equilibrium` is the package's former equilibrium path, read
off the closed-loop pair table and the btilde pair table; the package's
path from the bordered anchors must match it to rounding.
"""

import numpy as np

from tilq.errors import TilqError
from tilq.policy import HALF_STEP_SNAP
from auxiliary_reference import btilde
from pair_tables import from_pair_layout, pair_table


def locate(grid, t):
    if t < -1e-12 or t > grid.T + 1e-12:
        raise TilqError(f"time {t} outside [0, {grid.T}]")
    t = min(max(t, 0.0), grid.T)
    i = min(int(t / grid.h), grid.N - 1)
    return i, (t - grid.nodes[i]) / grid.h


def interp_table(table, grid, t):
    i, w = locate(grid, t)
    if w == 0.0:
        return table[i]
    return (1.0 - w) * table[i] + w * table[i + 1]


def locate_half(grid, t):
    i, w = locate(grid, t)
    q = 2.0 * w
    j = round(q)
    if abs(q - j) <= HALF_STEP_SNAP:
        return 2 * i + j, 0.0
    j = int(q)
    return 2 * i + j, q - j


def value(sol, t, x):
    x = np.asarray(x, dtype=float).reshape(sol.spec.dims.n)
    P = interp_table(sol.riccati.P, sol.grid, t)
    phi = interp_table(sol.auxiliary.phi, sol.grid, t)
    psi = float(interp_table(sol.auxiliary.psi, sol.grid, t))
    return float(x @ P @ x + 2.0 * phi @ x + psi)


def grad_value(sol, t, x):
    x = np.asarray(x, dtype=float).reshape(sol.spec.dims.n)
    P = interp_table(sol.riccati.P, sol.grid, t)
    phi = interp_table(sol.auxiliary.phi, sol.grid, t)
    return 2.0 * (P @ x) + 2.0 * phi


def feedback(sol, t, x):
    x = np.asarray(x, dtype=float).reshape(sol.spec.dims.n)
    K, k = sol.feedback_table
    j, w = locate_half(sol.grid, t)
    u = K[j] @ x + k[j]
    if w:
        u = (1.0 - w) * u + w * (K[j + 1] @ x + k[j + 1])
    return -u


def simulate_control(spec, grid, tables, u, t_idx, x, stop_idx=None):
    """States and controls of the RK4 loop, shaped as the package's."""
    n, m = spec.dims.n, spec.dims.m
    if stop_idx is None:
        stop_idx = grid.N
    k = stop_idx - t_idx + 1
    x = np.asarray(x, dtype=float)
    if callable(u):
        runs = 0

        def control(j, t, y):
            return np.asarray(u(t, y), dtype=float).reshape(m)
    else:
        u = np.asarray(u, dtype=float)
        runs = len(u) if u.ndim == 3 else 0
        if runs:
            u = np.moveaxis(u, 0, -1)
        stages = np.empty((2 * k - 1,) + u.shape[1:])
        stages[0::2], stages[1::2] = u, 0.5 * (u[:-1] + u[1:])

        def control(j, t, y):
            return stages[j - 2 * t_idx]
    A_half, B_half, b_half = (tables.stages(name)[1::2] for name in ("A", "B", "b"))
    b = tables.b
    shape = (n, runs) if runs else (n,)
    if runs:
        b, b_half = b[..., None], b_half[..., None]
    h = grid.h
    states = np.empty((k,) + shape)
    controls = np.empty((k, m) + shape[1:])
    states[0] = x[:, None] if runs else x
    y = states[0]
    for step, i in enumerate(range(t_idx, stop_idx)):
        t0 = float(grid.nodes[i])
        tm = t0 + 0.5 * h
        t1 = float(grid.nodes[i + 1])
        A0, Am, A1 = tables.A[i], A_half[i], tables.A[i + 1]
        B0, Bm, B1 = tables.B[i], B_half[i], tables.B[i + 1]
        b0, bm, b1 = b[i], b_half[i], b[i + 1]
        u0 = control(2 * i, t0, y)
        controls[step] = u0
        k1 = A0 @ y + B0 @ u0 + b0
        y2 = y + 0.5 * h * k1
        k2 = Am @ y2 + Bm @ control(2 * i + 1, tm, y2) + bm
        y3 = y + 0.5 * h * k2
        k3 = Am @ y3 + Bm @ control(2 * i + 1, tm, y3) + bm
        y4 = y + h * k3
        k4 = A1 @ y4 + B1 @ control(2 * i + 2, t1, y4) + b1
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states[step + 1] = y
    controls[-1] = control(2 * stop_idx, float(grid.nodes[stop_idx]), y)
    if runs:
        states = np.moveaxis(states, -1, 0)
        controls = np.moveaxis(controls, -1, 0)
    return states, controls


def simulate_equilibrium(sol, t_idx, x):
    """States and controls of Y(s) = E_cl(s, t) x + btilde(s, t) from the tables."""
    x = np.asarray(x, dtype=float).reshape(sol.spec.dims.n)
    pairs = pair_table(sol.riccati.closed_loop, sol.grid)
    prop = from_pair_layout(pairs)[t_idx:, t_idx]
    bt = btilde(pairs, sol.auxiliary.drive, sol.grid)
    states = prop @ x + bt[t_idx:, t_idx]
    controls = -(np.einsum("jmn,jn->jm", sol.riccati.gain[t_idx:], states)
                 + sol.auxiliary.upsilon[t_idx:])
    return states, controls
