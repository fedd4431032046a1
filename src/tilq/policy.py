"""Equilibrium value function, feedback law, trajectories and costs.

The solved tables assemble into the quadratic value function

    V(t, x) = <P(t) x, x> + 2 <phi(t), x> + psi(t),

its gradient 2 P(t) x + 2 phi(t), and the equilibrium feedback

    u(t, x) = -M(t,t)^{-1} (1/2 B^T(t) grad V(t,x) + S(t,t) x + rho(t,t))
            = -K(t) x - k(t),

    K(t) = M(t,t)^{-1} (B^T(t) P(t) + S(t,t)),
    k(t) = M(t,t)^{-1} (B^T(t) phi(t) + rho(t,t)).

Tabulated quantities are interpolated linearly between nodes, consistent
with the trapezoid quadrature used everywhere else (both O(h^2)).

The feedback coefficients K and k are tabulated once per solution, on its
first feedback call, at the nodes and at the half nodes t_i + h/2 where RK4
evaluates its middle stages (:attr:`EquilibriumSolution.feedback_table`);
P and phi enter the half nodes by the same linear interpolation.  A feedback
call then reads one table row, or interpolates linearly between two, and
never factors M(t,t).  The table's node rows are checked once, when it is
built, against the Gain and Upsilon stored by the solver: a mismatch beyond
FEEDBACK_MATCH_TOL at any node raises ConsistencyError naming the first
failing t.

Cost evaluation freezes the first kernel argument at the evaluation time:
J(t, x; u) integrates Q(t, s), M(t, s), ... over s with t fixed.  That
frozen argument is the defining feature of the whole problem class; the
running-diagonal variant Q(s, s) appears only inside the recursion checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .auxiliary import AuxiliarySolution, solve_auxiliary
from .errors import ConsistencyError, TilqError
from .grid import TimeGrid, _interp_half, quadrature
from .local import local_expansion, solve_local
from .problem import ProblemSpec
from .riccati import (RiccatiSolution, SolveOptions, _initial_table,
                      solve_equilibrium_riccati)
from .tables import SpecTables, factor_md, solve_chol

FEEDBACK_MATCH_TOL = 1e-10
# A time within this many half steps of a node or half node reads that row
# of a half-step table exactly; RK4 stage times t_i + h/2 carry rounding.
HALF_STEP_SNAP = 1e-9


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

    @cached_property
    def feedback_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(K, k) of the feedback u = -(K x + k) on the half-step grid.

        Shapes (2N+1, m, n) and (2N+1, m): row 2i belongs to node t_i and row
        2i+1 to the half node t_i + h/2.  Built on first use, with one
        batched factorization of M(t,t); its node rows must match the stored
        Gain and Upsilon to FEEDBACK_MATCH_TOL, else ConsistencyError names
        the first failing t and nothing is cached.
        """
        tbl, grid = self.tables, self.grid
        P, phi = self.riccati.P, self.auxiliary.phi
        B = _half_steps(tbl.B, tbl.B_half)
        L = factor_md(_half_steps(tbl.Md, tbl.Md_half),
                      _half_steps(grid.nodes, grid.half_nodes))
        K = solve_chol(L, np.swapaxes(B, -1, -2) @ _half_steps(P, _interp_half(P))
                       + _half_steps(tbl.Sd, tbl.Sd_half))
        k = solve_chol(L, np.einsum("inm,in->im", B,
                                    _half_steps(phi, _interp_half(phi)))
                       + _half_steps(tbl.rhod, tbl.rhod_half))
        _check_node_rows(K[::2], k[::2], self.riccati.gain,
                         self.auxiliary.upsilon, grid)
        K.flags.writeable = False
        k.flags.writeable = False
        return K, k


def _half_steps(at_nodes: np.ndarray, at_half: np.ndarray) -> np.ndarray:
    """Node and half-node values interleaved: t_0, t_0 + h/2, t_1, ..., t_N."""
    out = np.empty((2 * len(at_half) + 1,) + at_nodes.shape[1:])
    out[0::2] = at_nodes
    out[1::2] = at_half
    return out


def _check_node_rows(K: np.ndarray, k: np.ndarray, gain: np.ndarray,
                     upsilon: np.ndarray, grid: TimeGrid) -> None:
    """Raise ConsistencyError at the first node where (K, k) != (Gain, Upsilon)."""
    err = np.maximum(np.max(np.abs(K - gain), axis=(1, 2)),
                     np.max(np.abs(k - upsilon), axis=1))
    scale = 1.0 + np.maximum(np.max(np.abs(K), axis=(1, 2)),
                             np.max(np.abs(k), axis=1))
    bad = np.flatnonzero(~(err <= FEEDBACK_MATCH_TOL * scale))  # NaN fails too
    if bad.size:
        t = float(grid.nodes[bad[0]])
        raise ConsistencyError(
            f"feedback mismatch at node t={t:.6g}: the tabulated feedback "
            f"and the stored gain form differ beyond {FEEDBACK_MATCH_TOL}")


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
    """States and node controls from a start node to the horizon.

    A stack of S runs from the same node has start states (S, n), states
    (S, k, n) and controls (S, k, m).
    """

    start_index: int
    start_state: np.ndarray
    times: np.ndarray     # nodes t_i, i >= start_index
    states: np.ndarray    # (k, n)
    controls: np.ndarray  # (k, m), the control applied at each node

    def __post_init__(self):
        if not np.allclose(self.states[..., 0, :], self.start_state):
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


def _locate_half(grid: TimeGrid, t: float) -> tuple[int, float]:
    """Row j and weight w in [0, 1) of time t in a half-step table.

    w is 0 at a node or half node, up to HALF_STEP_SNAP.
    """
    i, w = _locate(grid, t)
    q = 2.0 * w
    j = round(q)
    if abs(q - j) <= HALF_STEP_SNAP:
        return 2 * i + j, 0.0
    j = int(q)
    return 2 * i + j, q - j


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
    """Equilibrium control u(t, x) = -(K(t) x + k(t)).

    Reads :attr:`EquilibriumSolution.feedback_table`: the exact row at a node
    or half node, linear interpolation between them elsewhere (O(h^2), like
    P and phi).  The table's node rows were checked against the stored Gain
    and Upsilon when it was built.
    """
    x = np.asarray(x, dtype=float).reshape(sol.spec.dims.n)
    K, k = sol.feedback_table
    j, w = _locate_half(sol.grid, t)
    u = K[j] @ x + k[j]
    if w:
        u = (1.0 - w) * u + w * (K[j + 1] @ x + k[j + 1])
    return -u


# ---------------------------------------------------------------------------
# simulation


def simulate_control(spec: ProblemSpec, grid: TimeGrid, u, t_idx: int, x,
                     stop_idx: int | None = None,
                     tables: SpecTables | None = None) -> Trajectory:
    """RK4 integration of y' = A y + B u + b under a given control.

    ``u`` is either a feedback law (t, y) -> control, called on every stage
    state, or an open-loop node table, interpolated linearly onto every
    stage time once per call.  Integration runs from node t_idx to stop_idx
    (default the horizon).

    Several runs advance together in one RK4 loop when the start states are
    stacked (S, n), the open-loop tables are stacked (S, rows, m), or both
    with the same S; an unstacked start or table is shared by every run.
    Their trajectory holds states (S, k, n) and controls (S, k, m).  A
    feedback law takes a single start.
    """
    if tables is None:
        tables = SpecTables(spec, grid)
    n, m = spec.dims.n, spec.dims.m
    N = grid.N
    if stop_idx is None:
        stop_idx = N
    if not (0 <= t_idx <= stop_idx <= N):
        raise TilqError(f"node range [{t_idx}, {stop_idx}] invalid for N={N}")
    k = stop_idx - t_idx + 1
    x = np.asarray(x, dtype=float)
    if x.ndim > 2 or (x.ndim == 2 and (x.shape[1] != n or not len(x))):
        raise TilqError(f"start states have shape {x.shape}; expected ({n},) "
                        f"or a stack (S, {n})")
    runs = len(x) if x.ndim == 2 else 0
    if callable(u):
        if runs:
            raise TilqError("a feedback law takes a single start state")

        def control(j, t, y):
            return np.asarray(u(t, y), dtype=float).reshape(m)
    else:
        u = np.asarray(u, dtype=float)
        if (u.ndim not in (2, 3) or u.shape[-1] != m or not u.size
                or u.shape[-2] not in (k, N + 1)):
            raise TilqError(f"open-loop control table has shape {u.shape}; "
                            f"expected ({N + 1}, {m}) or the node range's "
                            f"({k}, {m}), or a stack (S, rows, {m}) of either")
        if u.ndim == 3:
            if runs and runs != len(u):
                raise TilqError(f"{runs} start states but {len(u)} control "
                                f"tables")
            runs = len(u)
            u = np.moveaxis(u, 0, -1)  # runs along the last axis, like y
        if u.shape[0] == k:
            full = np.zeros((N + 1,) + u.shape[1:])
            full[t_idx:stop_idx + 1] = u
            u = full
        stages = _half_steps(u, _interp_half(u))
        if runs and stages.ndim == 2:
            stages = np.broadcast_to(stages[..., None], stages.shape + (runs,))

        def control(j, t, y):
            return stages[j]
    # a stack of runs is carried as the columns of y, so the stages below
    # are the same matrix products for one run and for many
    b, b_half = tables.b, tables.b_half
    if runs:
        x = np.broadcast_to(x.reshape(-1, n), (runs, n))
        b, b_half = b[..., None], b_half[..., None]
    else:
        x = x.reshape(n)
    h = grid.h
    states = np.empty((k,) + x.T.shape)
    controls = np.empty((k, m) + x.shape[:-1])
    states[0] = x.T
    y = states[0]
    for step, i in enumerate(range(t_idx, stop_idx)):
        t0 = float(grid.nodes[i])
        tm = t0 + 0.5 * h
        t1 = float(grid.nodes[i + 1])
        A0, Am, A1 = tables.A[i], tables.A_half[i], tables.A[i + 1]
        B0, Bm, B1 = tables.B[i], tables.B_half[i], tables.B[i + 1]
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
    return Trajectory(start_index=t_idx, start_state=np.array(x),
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


def _running_cost(Q, S, M, q, rho, Y: np.ndarray, U: np.ndarray,
                  start=0.0) -> np.ndarray:
    """start + <Q y, y> + 2 <S y, u> + <M u, u> + 2 <q, y> + 2 <rho, u> per node.

    The terms are added left to right onto ``start``.  ``Y`` and ``U`` may
    carry leading stack axes, one path per run.
    """
    return (start + np.einsum("jab,...jb,...ja->...j", Q, Y, Y)
            + 2.0 * np.einsum("jmn,...jn,...jm->...j", S, Y, U)
            + np.einsum("jmp,...jp,...jm->...j", M, U, U)
            + 2.0 * np.einsum("ja,...ja->...j", q, Y)
            + 2.0 * np.einsum("jm,...jm->...j", rho, U))


def _quadratic_form(mat, vec, const, x) -> np.ndarray:
    """<mat x, x> + 2 <vec, x> + const, over the operands' leading axes."""
    return (np.einsum("...a,...ab,...b->...", x, mat, x)
            + 2.0 * np.einsum("...a,...a->...", vec, x) + const)


def _terminal_cost(spec: ProblemSpec, t: float, yT: np.ndarray,
                  derivative: bool = False) -> float:
    """<G(t) y, y> + 2 <g(t), y>, or the same form in G'(t), g'(t)."""
    term = spec.terminal
    G, g = (term.dG_dt, term.dg_dt) if derivative else (term.G, term.g)
    G = np.asarray(G(t), dtype=float)
    g = np.asarray(g(t), dtype=float).reshape(-1)
    return float(yT @ G @ yT + 2.0 * g @ yT)


def _frozen_kernels(spec: ProblemSpec, t: float, s: np.ndarray,
                    derivative: bool = False) -> tuple:
    """Q, S, M, q, rho at (t, s) for every s, the first argument frozen at t.

    With ``derivative`` the kernels are their t-derivatives.
    """
    return tuple(f.row(t, s, derivative)
                 for f in (spec.Q, spec.S, spec.M, spec.q, spec.rho))


def _running_integral(kernels: tuple, grid: TimeGrid, a_idx: int, b_idx: int,
                      Y: np.ndarray, U: np.ndarray) -> float:
    """Trapezoid integral over nodes a..b of the running cost of one path.

    ``kernels`` are the five kernel rows over the same nodes.
    """
    return float(quadrature(_running_cost(*kernels, Y, U), grid, a_idx, b_idx))


def cost(spec: ProblemSpec, grid: TimeGrid, traj: Trajectory, t_idx: int) -> float:
    """J(t, x; u) along a trajectory, kernels frozen at t = nodes[t_idx]."""
    if traj.start_index != t_idx:
        raise TilqError(f"trajectory starts at node {traj.start_index}, "
                        f"cost requested from node {t_idx}")
    if traj.states.shape[0] != grid.N + 1 - t_idx:
        raise TilqError("trajectory does not span [t, T] on this grid")
    t = float(grid.nodes[t_idx])
    kernels = _frozen_kernels(spec, t, grid.nodes[t_idx:])
    return (_running_integral(kernels, grid, t_idx, grid.N, traj.states,
                              traj.controls)
            + _terminal_cost(spec, t, traj.states[-1]))


def error_function_direct(sol: EquilibriumSolution, t_idx: int, x) -> float:
    """Equilibrium cost re-weighting R(t, x) from its defining integral.

    Simulates the equilibrium path from (t, x) and integrates the kernel
    time-derivatives along it; the terminal term uses G'(t), g'(t).
    """
    grid = sol.grid
    traj = simulate_equilibrium(sol, t_idx, x)
    t = float(grid.nodes[t_idx])
    kernels = _frozen_kernels(sol.spec, t, grid.nodes[t_idx:], derivative=True)
    return (_running_integral(kernels, grid, t_idx, grid.N, traj.states,
                              traj.controls)
            + _terminal_cost(sol.spec, t, traj.states[-1], derivative=True))


def error_function_closed(sol: EquilibriumSolution, t_idx, x):
    """R(t, x) = <Qbb(t) x, x> + 2 <Sbb(t), x> + omega(t) from stored tables.

    ``t_idx`` is one node, giving a float for one state (n,), or a slice of
    nodes.  States (..., n) broadcast against the nodes' tables, so a slice
    takes one state per node on the second-to-last axis, below any stack
    axes, and gives an array of the states' leading shape.
    """
    R = _quadratic_form(sol.riccati.qbb[t_idx], sol.auxiliary.sbb[t_idx],
                        sol.auxiliary.omega[t_idx], np.asarray(x, dtype=float))
    return float(R) if R.ndim == 0 else R
