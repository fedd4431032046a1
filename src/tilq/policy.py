"""Equilibrium value function, feedback law, trajectories and costs.

The solved tables assemble into the quadratic value function

    V(t, x) = <P(t) x, x> + 2 <phi(t), x> + psi(t),

its gradient 2 P(t) x + 2 phi(t), and the equilibrium feedback

    u(t, x) = -M(t,t)^{-1} (1/2 B^T(t) grad V(t,x) + S(t,t) x + rho(t,t))
            = -Gain(t) x - Upsilon(t).

Tabulated quantities are interpolated linearly between nodes, consistent
with the trapezoid quadrature used everywhere else (both O(h^2)).

Cost evaluation freezes the first kernel argument at the evaluation time:
J(t, x; u) integrates Q(t, s), M(t, s), ... over s with t fixed.  That
frozen argument is the defining feature of the whole problem class; the
running-diagonal variant Q(s, s) appears only inside the recursion checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .auxiliary import AuxiliarySolution, solve_auxiliary
from .errors import AssumptionError, ConsistencyError, TilqError
from .grid import TimeGrid, quadrature
from .local import local_expansion, solve_local
from .problem import ProblemSpec
from .riccati import (RiccatiSolution, SolveOptions, _initial_table,
                      solve_equilibrium_riccati)
from .tables import SpecTables

FEEDBACK_MATCH_TOL = 1e-10


@dataclass(frozen=True)
class EquilibriumSolution:
    """Solved problem: Riccati and auxiliary parts on a shared grid."""

    spec: ProblemSpec
    grid: TimeGrid
    riccati: RiccatiSolution
    auxiliary: AuxiliarySolution

    @property
    def tables(self) -> SpecTables:
        return self.riccati.tables

    @property
    def converged(self) -> bool:
        return self.riccati.converged and self.auxiliary.converged

    @property
    def method(self) -> str:
        """"local" (one local ODE sweep) or "fixed_point"."""
        return "fixed_point" if self.riccati.expansion is None else "local"


def solve_equilibrium(spec: ProblemSpec, grid: TimeGrid,
                      riccati_opts: SolveOptions | None = None,
                      phi_opts: SolveOptions | None = None) -> EquilibriumSolution:
    """Full solve of the equilibrium Riccati, affine and scalar terms.

    A separable problem whose discount derivative has an exponential-sum fit
    on [0, T] (:func:`tilq.local.local_expansion`) is solved by one local
    ODE sweep, which iterates nothing: the options' tolerance, iteration and
    damping settings do not apply to it, but their ``initial`` tables are
    checked the same way on both paths.  Every other problem goes through the
    Riccati fixed point and then the Picard iteration for the affine term,
    controlled by ``riccati_opts`` and ``phi_opts``.
    """
    expansion = local_expansion(spec)
    if expansion is not None:
        n = spec.dims.n
        for opts, shape, what in ((riccati_opts, (n, n), "P"),
                                  (phi_opts, (n,), "phi")):
            if opts is not None:
                _initial_table(opts.initial, np.zeros(shape), grid.N, what)
        riccati, auxiliary = solve_local(spec, grid, expansion)
    else:
        riccati = solve_equilibrium_riccati(spec, grid, riccati_opts)
        auxiliary = solve_auxiliary(spec, grid, riccati, phi_opts)
    return EquilibriumSolution(spec=spec, grid=grid, riccati=riccati,
                               auxiliary=auxiliary)


@dataclass(frozen=True)
class Trajectory:
    """States and node controls from a start node to the horizon."""

    start_index: int
    start_state: np.ndarray
    times: np.ndarray     # nodes t_i, i >= start_index
    states: np.ndarray    # (k, n)
    controls: np.ndarray  # (k, m), the control applied at each node

    def __post_init__(self):
        if not np.allclose(self.states[0], self.start_state):
            raise TilqError("trajectory does not start at its start state")


# ---------------------------------------------------------------------------
# interpolation helpers


def _locate(grid: TimeGrid, t: float) -> tuple[int, float]:
    if t < -1e-12 or t > grid.T + 1e-12:
        raise TilqError(f"time {t} outside [0, {grid.T}]")
    t = min(max(t, 0.0), grid.T)
    i = min(int(t / grid.h), grid.N - 1)
    return i, (t - grid.nodes[i]) / grid.h


def interp_table(table: np.ndarray, grid: TimeGrid, t: float) -> np.ndarray:
    """Linear interpolation of a node-tabulated quantity."""
    i, w = _locate(grid, t)
    if w == 0.0:
        return table[i]
    return (1.0 - w) * table[i] + w * table[i + 1]


# ---------------------------------------------------------------------------
# value function and feedback


def value(sol: EquilibriumSolution, t: float, x) -> float:
    """V(t, x) from the interpolated quadratic form."""
    x = np.asarray(x, dtype=float).reshape(sol.spec.dims.n)
    P = interp_table(sol.riccati.P, sol.grid, t)
    phi = interp_table(sol.auxiliary.phi, sol.grid, t)
    psi = float(interp_table(sol.auxiliary.psi, sol.grid, t))
    return float(x @ P @ x + 2.0 * phi @ x + psi)


def grad_value(sol: EquilibriumSolution, t: float, x) -> np.ndarray:
    """State gradient of V: 2 P(t) x + 2 phi(t)."""
    x = np.asarray(x, dtype=float).reshape(sol.spec.dims.n)
    P = interp_table(sol.riccati.P, sol.grid, t)
    phi = interp_table(sol.auxiliary.phi, sol.grid, t)
    return 2.0 * (P @ x) + 2.0 * phi


def feedback(sol: EquilibriumSolution, t: float, x) -> np.ndarray:
    """Equilibrium control at (t, x).

    Computed from the gradient form -M^{-1}(1/2 B^T grad V + S x + rho); at
    grid nodes the gain form -Gain(t) x - Upsilon(t) must agree to 1e-10,
    which is checked on every call that lands on a node.
    """
    spec = sol.spec
    x = np.asarray(x, dtype=float).reshape(spec.dims.n)
    M = np.asarray(spec.M(t, t), dtype=float)
    rhs = (0.5 * np.asarray(spec.dynamics.B(t), dtype=float).T @ grad_value(sol, t, x)
           + np.asarray(spec.S(t, t), dtype=float) @ x
           + np.asarray(spec.rho(t, t), dtype=float))
    try:
        factor = cho_factor(0.5 * (M + M.T), lower=True)
    except np.linalg.LinAlgError as exc:
        raise AssumptionError(f"M(t,t) not positive definite at t={t:.6g}") from exc
    u = -cho_solve(factor, rhs)
    i, w = _locate(sol.grid, t)
    if w == 0.0 or w == 1.0:
        j = i if w == 0.0 else i + 1
        via_gain = -(sol.riccati.gain[j] @ x) - sol.auxiliary.upsilon[j]
        scale = 1.0 + float(np.max(np.abs(u)))
        if float(np.max(np.abs(u - via_gain))) > FEEDBACK_MATCH_TOL * scale:
            raise ConsistencyError(
                f"feedback mismatch at node t={t:.6g}: gradient form and "
                f"gain form differ beyond {FEEDBACK_MATCH_TOL}")
    return u


# ---------------------------------------------------------------------------
# simulation


def _control_at(u, grid: TimeGrid, t: float, y: np.ndarray, m: int) -> np.ndarray:
    if callable(u):
        return np.asarray(u(t, y), dtype=float).reshape(m)
    return np.asarray(interp_table(u, grid, t), dtype=float).reshape(m)


def simulate_control(spec: ProblemSpec, grid: TimeGrid, u, t_idx: int, x,
                     stop_idx: int | None = None,
                     tables: SpecTables | None = None) -> Trajectory:
    """RK4 integration of y' = A y + B u + b under a given control.

    ``u`` is either a feedback law (t, y) -> control, evaluated on the
    current stage state, or an open-loop node table interpolated linearly at
    the half steps.  Integration runs from node t_idx to stop_idx (default
    the horizon).
    """
    if tables is None:
        tables = SpecTables(spec, grid)
    n, m = spec.dims.n, spec.dims.m
    N = grid.N
    if stop_idx is None:
        stop_idx = N
    if not (0 <= t_idx <= stop_idx <= N):
        raise TilqError(f"node range [{t_idx}, {stop_idx}] invalid for N={N}")
    x = np.asarray(x, dtype=float).reshape(n)
    if not callable(u):
        u = np.asarray(u, dtype=float)
        if u.shape == (stop_idx - t_idx + 1, m):
            full = np.zeros((N + 1, m))
            full[t_idx:stop_idx + 1] = u
            u = full
        elif u.shape != (N + 1, m):
            raise TilqError(f"open-loop control table has shape {u.shape}; "
                            f"expected ({N + 1}, {m}) or the node range")
    h = grid.h
    k = stop_idx - t_idx + 1
    states = np.empty((k, n))
    controls = np.empty((k, m))
    states[0] = x
    y = x
    for step, i in enumerate(range(t_idx, stop_idx)):
        t0 = float(grid.nodes[i])
        tm = t0 + 0.5 * h
        t1 = float(grid.nodes[i + 1])
        A0, Am, A1 = tables.A[i], tables.A_half[i], tables.A[i + 1]
        B0, Bm, B1 = tables.B[i], tables.B_half[i], tables.B[i + 1]
        b0, bm, b1 = tables.b[i], tables.b_half[i], tables.b[i + 1]
        u0 = _control_at(u, grid, t0, y, m)
        controls[step] = u0
        k1 = A0 @ y + B0 @ u0 + b0
        y2 = y + 0.5 * h * k1
        k2 = Am @ y2 + Bm @ _control_at(u, grid, tm, y2, m) + bm
        y3 = y + 0.5 * h * k2
        k3 = Am @ y3 + Bm @ _control_at(u, grid, tm, y3, m) + bm
        y4 = y + h * k3
        k4 = A1 @ y4 + B1 @ _control_at(u, grid, t1, y4, m) + b1
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states[step + 1] = y
    controls[-1] = _control_at(u, grid, float(grid.nodes[stop_idx]), y, m)
    return Trajectory(start_index=t_idx, start_state=x,
                      times=grid.nodes[t_idx:stop_idx + 1],
                      states=states, controls=controls)


def simulate_equilibrium(sol: EquilibriumSolution, t_idx: int, x) -> Trajectory:
    """Equilibrium trajectory from the stored propagators.

    Y(s) = E_cl(s, t) x + btilde(s, t) node for node, with the node controls
    -Gain Y - Upsilon.  No re-integration: this is the representation the
    closed-form analysis uses, and it doubles as an independent cross-check
    of :func:`simulate_control` run with the feedback law.
    """
    n = sol.spec.dims.n
    x = np.asarray(x, dtype=float).reshape(n)
    N = sol.grid.N
    cl_full = sol.riccati.closed_loop.full_table()
    prop = cl_full[t_idx:, t_idx]
    states = prop @ x + sol.auxiliary.btilde[t_idx:, t_idx]
    controls = -(np.einsum("jmn,jn->jm", sol.riccati.gain[t_idx:], states)
                 + sol.auxiliary.upsilon[t_idx:])
    return Trajectory(start_index=t_idx, start_state=x,
                      times=sol.grid.nodes[t_idx:],
                      states=states, controls=controls)


# ---------------------------------------------------------------------------
# cost and error functions


def cost(spec: ProblemSpec, grid: TimeGrid, traj: Trajectory, t_idx: int) -> float:
    """J(t, x; u) along a trajectory, kernels frozen at t = nodes[t_idx]."""
    if traj.start_index != t_idx:
        raise TilqError(f"trajectory starts at node {traj.start_index}, "
                        f"cost requested from node {t_idx}")
    if traj.states.shape[0] != grid.N + 1 - t_idx:
        raise TilqError("trajectory does not span [t, T] on this grid")
    t = float(grid.nodes[t_idx])
    s = grid.nodes[t_idx:]
    Y = traj.states
    U = traj.controls
    Qr = spec.Q.row(t, s)
    Sr = spec.S.row(t, s)
    Mr = spec.M.row(t, s)
    qr = spec.q.row(t, s)
    rr = spec.rho.row(t, s)
    running = (np.einsum("jab,jb,ja->j", Qr, Y, Y)
               + 2.0 * np.einsum("jmn,jn,jm->j", Sr, Y, U)
               + np.einsum("jmp,jp,jm->j", Mr, U, U)
               + 2.0 * np.einsum("ja,ja->j", qr, Y)
               + 2.0 * np.einsum("jm,jm->j", rr, U))
    J = float(quadrature(running, grid, t_idx, grid.N))
    G = np.asarray(spec.terminal.G(t), dtype=float)
    g = np.asarray(spec.terminal.g(t), dtype=float).reshape(-1)
    yT = Y[-1]
    return J + float(yT @ G @ yT + 2.0 * g @ yT)


def error_function_direct(sol: EquilibriumSolution, t_idx: int, x) -> float:
    """Equilibrium cost re-weighting R(t, x) from its defining integral.

    Simulates the equilibrium path from (t, x) and integrates the kernel
    time-derivatives along it; the terminal term uses G'(t), g'(t).
    """
    spec = sol.spec
    grid = sol.grid
    traj = simulate_equilibrium(sol, t_idx, x)
    t = float(grid.nodes[t_idx])
    s = grid.nodes[t_idx:]
    Y = traj.states
    U = traj.controls
    Qt = spec.Q.row(t, s, derivative=True)
    St = spec.S.row(t, s, derivative=True)
    Mt = spec.M.row(t, s, derivative=True)
    qt = spec.q.row(t, s, derivative=True)
    rhot = spec.rho.row(t, s, derivative=True)
    running = (np.einsum("jab,jb,ja->j", Qt, Y, Y)
               + 2.0 * np.einsum("ja,ja->j", qt, Y)
               + np.einsum("jmp,jp,jm->j", Mt, U, U)
               + 2.0 * np.einsum("jmn,jn,jm->j", St, Y, U)
               + 2.0 * np.einsum("jm,jm->j", rhot, U))
    R = float(quadrature(running, grid, t_idx, grid.N))
    Gdot = np.asarray(spec.terminal.dG_dt(t), dtype=float)
    gdot = np.asarray(spec.terminal.dg_dt(t), dtype=float).reshape(-1)
    yT = Y[-1]
    return R + float(yT @ Gdot @ yT + 2.0 * gdot @ yT)


def error_function_closed(sol: EquilibriumSolution, t_idx: int, x) -> float:
    """R(t, x) = <Qbb(t) x, x> + 2 <Sbb(t), x> + omega(t) from stored tables."""
    x = np.asarray(x, dtype=float).reshape(sol.spec.dims.n)
    qbb = sol.riccati.qbb[t_idx]
    sbb = sol.auxiliary.sbb[t_idx]
    om = float(sol.auxiliary.omega[t_idx])
    return float(x @ qbb @ x + 2.0 * sbb @ x + om)
