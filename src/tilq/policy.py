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
never factors M(t,t).  Every point evaluation (``feedback``, ``value``,
``grad_value``, ``interp_table``) locates its time once, in Python floats
against the grid's cached node list (:func:`_locate`); ``feedback`` reads
its table's row exactly at a time within HALF_STEP_SNAP half steps of a
node or half node, which is where the RK4 stages fall.  A NaN time, or one
outside [0, T] by more than 1e-12, raises TilqError naming it.  The
table's node rows are checked once, when it is built, against the Gain and
Upsilon stored by the solver: a mismatch beyond FEEDBACK_MATCH_TOL at any
node raises ConsistencyError naming the first failing t.

The equilibrium path from (t_i, x) is Y(s) = E_cl(s, t_i) x + btilde(s,
t_i).  It is read off the anchored products of the closed loop bordered
with its drive (:attr:`EquilibriumSolution.path_anchors`, built once per
solution on first use), in O(N n^2) per path; no table over node pairs is
formed.

Cost evaluation freezes the first kernel argument at the evaluation time:
J(t, x; u) integrates Q(t, s), M(t, s), ... over s with t fixed.  That
frozen argument is the defining feature of the whole problem class; the
running-diagonal variant Q(s, s) appears only inside the recursion checks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .auxiliary import (AuxiliarySolution, _bordered_anchors,
                        _trapezoid_increments, solve_auxiliary)
from .errors import ConsistencyError, TilqError
from .grid import TimeGrid, _Anchors, _interp_half, quadrature
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

    @cached_property
    def path_anchors(self) -> _Anchors:
        """Anchored products of the closed loop bordered with its drive.

        Built on first use from the closed loop's one-step propagators and
        the trapezoid cells of btilde's sum over the drive b - B Upsilon
        (:func:`tilq.auxiliary._bordered_anchors`): the product from t_i to
        t_j is [[E_cl(t_j, t_i), btilde(t_j, t_i)], [0, 1]].
        """
        steps = self.riccati.closed_loop
        anchors = _bordered_anchors(steps, _trapezoid_increments(
            steps, self.auxiliary.drive, self.grid.h))
        for products in (anchors.psi, anchors.inv, anchors.links):
            products.flags.writeable = False
        return anchors


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
    """States and node controls over k nodes from one start state.

    A stack of S runs from the same start (n,) under S open-loop tables has
    states (S, k, n) and controls (S, k, m).
    """

    start_index: int
    start_state: np.ndarray  # (n,)
    times: np.ndarray     # nodes t_i, start_index <= i, k of them
    states: np.ndarray    # (k, n)
    controls: np.ndarray  # (k, m), the control applied at each node

    def __post_init__(self):
        # np.allclose's test (rtol 1e-5, atol 1e-8, NaN fails) without its
        # overhead; the simulations start exactly at the start state
        start, want = self.states[..., 0, :], self.start_state
        close = start == want
        if not close.all():
            with np.errstate(invalid="ignore"):  # inf - inf
                close |= abs(start - want) <= 1e-8 + 1e-5 * abs(want)
            if not close.all():
                raise TilqError("trajectory does not start at its start state")


# ---------------------------------------------------------------------------
# interpolation helpers


def _locate(grid: TimeGrid, t: float) -> tuple[int, float]:
    """Interval i and weight w in [0, 1] of time t, as Python numbers.

    A t within 1e-12 of [0, T] is clamped into it; any other t, NaN
    included, raises TilqError naming it.
    """
    t = float(t)
    T = grid.T
    if not -1e-12 <= t <= T + 1e-12:  # NaN fails too
        raise TilqError(f"time {t} outside [0, {T}]")
    if t < 0.0:
        t = 0.0
    elif t > T:
        t = T
    h = grid.h
    i = int(t / h)
    if i >= grid.N:
        i = grid.N - 1
    return i, (t - grid._times[i]) / h


def _row(table: np.ndarray, i: int, w: float) -> np.ndarray:
    """Row i of a node table, or w of the way from it to row i + 1."""
    if w == 0.0:
        return table[i]
    return (1.0 - w) * table[i] + w * table[i + 1]


def interp_table(table: np.ndarray, grid: TimeGrid, t: float) -> np.ndarray:
    """Linear interpolation of a node-tabulated quantity."""
    return _row(table, *_locate(grid, t))


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


def _state(x, n: int) -> np.ndarray:
    """The state x as an (n,) array; TilqError naming both shapes otherwise."""
    x = np.asarray(x, dtype=float)
    try:
        return x.reshape(n)
    except ValueError:
        raise TilqError(f"state has shape {x.shape}; expected ({n},)") from None


def value(sol: EquilibriumSolution, t: float, x) -> float:
    """V(t, x) from the interpolated quadratic form."""
    x = _state(x, sol.spec.dims.n)
    i, w = _locate(sol.grid, t)
    P = _row(sol.riccati.P, i, w)
    phi = _row(sol.auxiliary.phi, i, w)
    psi = float(_row(sol.auxiliary.psi, i, w))
    return float(x.dot(P).dot(x) + (2.0 * phi).dot(x) + psi)


def grad_value(sol: EquilibriumSolution, t: float, x) -> np.ndarray:
    """State gradient of V: 2 P(t) x + 2 phi(t)."""
    x = _state(x, sol.spec.dims.n)
    i, w = _locate(sol.grid, t)
    P = _row(sol.riccati.P, i, w)
    phi = _row(sol.auxiliary.phi, i, w)
    return 2.0 * P.dot(x) + 2.0 * phi


def feedback(sol: EquilibriumSolution, t: float, x) -> np.ndarray:
    """Equilibrium control u(t, x) = -(K(t) x + k(t)).

    Reads :attr:`EquilibriumSolution.feedback_table`: the exact row at a node
    or half node, linear interpolation between them elsewhere (O(h^2), like
    P and phi).  The table's node rows were checked against the stored Gain
    and Upsilon when it was built.
    """
    x = _state(x, sol.spec.dims.n)
    K, k = sol.feedback_table
    j, w = _locate_half(sol.grid, t)
    u = K[j].dot(x) + k[j]
    if w:
        u = (1.0 - w) * u + w * (K[j + 1].dot(x) + k[j + 1])
    return -u


# ---------------------------------------------------------------------------
# simulation


def simulate_control(spec: ProblemSpec, grid: TimeGrid, u, t_idx: int, x,
                     stop_idx: int | None = None,
                     tables: SpecTables | None = None) -> Trajectory:
    """RK4 integration of y' = A y + B u + b under a given control.

    Integration runs from one start state x (n,) at node t_idx to stop_idx
    (default the horizon), over the k = stop_idx - t_idx + 1 nodes of that
    range.  ``u`` is either a feedback law (t, y) -> control, called on
    every stage state, or an open-loop table (k, m) of the controls at those
    nodes, interpolated linearly onto the stage times once per call.  A
    stack of S such tables (S, k, m) advances S runs from x in one RK4
    loop; their trajectory holds states (S, k, n) and controls (S, k, m).
    Any other shape raises TilqError.
    """
    if tables is None:
        tables = SpecTables(spec, grid)
    n, m = spec.dims.n, spec.dims.m
    N = grid.N
    t_idx = _node_index(t_idx, N)
    stop_idx = N if stop_idx is None else _node_index(stop_idx, N)
    if t_idx > stop_idx:
        raise TilqError(f"node range [{t_idx}, {stop_idx}] invalid for N={N}")
    k = stop_idx - t_idx + 1
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise TilqError(f"start state has shape {x.shape}; expected ({n},)")
    if callable(u):
        runs = 0

        def control(j, t, y):
            out = np.asarray(u(t, y), dtype=float)
            try:
                return out.reshape(m)
            except ValueError:
                raise TilqError(f"feedback law returned shape {out.shape} at "
                                f"t={t!r}; expected ({m},)") from None
    else:
        u = np.asarray(u, dtype=float)
        if u.ndim not in (2, 3) or u.shape[-2:] != (k, m) or not u.size:
            raise TilqError(f"open-loop control table has shape {u.shape}; "
                            f"expected the node range's ({k}, {m}) or a "
                            f"stack (S, {k}, {m})")
        runs = len(u) if u.ndim == 3 else 0
        if runs:
            u = np.moveaxis(u, 0, -1)  # runs along the last axis, like y
        stages = _half_steps(u, _interp_half(u))

        def control(j, t, y):
            return stages[j - 2 * t_idx]
    # a stack of runs is carried as the columns of y, so the stages below
    # are the same matrix products for one run and for many
    A, A_half, B, B_half = tables.A, tables.A_half, tables.B, tables.B_half
    b, b_half = tables.b, tables.b_half
    shape = (n, runs) if runs else (n,)
    if runs:
        b, b_half = b[..., None], b_half[..., None]
    times = grid._times
    h = grid.h
    half, sixth = 0.5 * h, h / 6.0
    states = np.empty((k,) + shape)
    controls = np.empty((k, m) + shape[1:])
    states[0] = x[:, None] if runs else x
    y = states[0]
    # each step's end-node operands are the next step's start-node operands
    t1, A1, B1, b1 = times[t_idx], A[t_idx], B[t_idx], b[t_idx]
    for step, i in enumerate(range(t_idx, stop_idx)):
        t0, A0, B0, b0 = t1, A1, B1, b1
        t1, A1, B1, b1 = times[i + 1], A[i + 1], B[i + 1], b[i + 1]
        tm = t0 + half
        Am, Bm, bm = A_half[i], B_half[i], b_half[i]
        u0 = control(2 * i, t0, y)
        controls[step] = u0
        k1 = A0.dot(y) + B0.dot(u0) + b0
        y2 = y + half * k1
        k2 = Am.dot(y2) + Bm.dot(control(2 * i + 1, tm, y2)) + bm
        y3 = y + half * k2
        k3 = Am.dot(y3) + Bm.dot(control(2 * i + 1, tm, y3)) + bm
        y4 = y + h * k3
        k4 = A1.dot(y4) + B1.dot(control(2 * i + 2, t1, y4)) + b1
        y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        states[step + 1] = y
    controls[-1] = control(2 * stop_idx, t1, y)
    if runs:
        states = np.moveaxis(states, -1, 0)
        controls = np.moveaxis(controls, -1, 0)
    return Trajectory(start_index=t_idx, start_state=np.array(x),
                      times=grid.nodes[t_idx:stop_idx + 1],
                      states=states, controls=controls)


def _node_index(t_idx, N: int) -> int:
    """``t_idx`` as a node index: an integer in [0, N], else TilqError."""
    try:
        i = operator.index(t_idx)
    except TypeError:
        i = -1
    if not 0 <= i <= N:
        raise TilqError(f"node index {t_idx!r} invalid for N={N}")
    return i


def simulate_equilibrium(sol: EquilibriumSolution, t_idx: int, x) -> Trajectory:
    """Equilibrium trajectory from the closed loop's bordered anchors.

    Y(s) = E_cl(s, t) x + btilde(s, t) node for node, with the node controls
    -Gain Y - Upsilon.  [Y(t_j); 1] = psi_j psi_i^{-1} [x; 1] over the
    anchors of :attr:`EquilibriumSolution.path_anchors`: v = psi_i^{-1}
    [x; 1] fills i's segment with one matrix-vector product, and moves
    through each link into the next segment.  Row 0 is x exactly.  No table
    over node pairs is formed and nothing is re-integrated: this is the
    representation the closed-form analysis uses, and it doubles as an
    independent cross-check of :func:`simulate_control` run with the
    feedback law.
    """
    N = sol.grid.N
    t_idx = _node_index(t_idx, N)
    n = sol.spec.dims.n
    x = _state(x, n)
    anchors = sol.path_anchors
    starts = anchors.starts
    rows = anchors.psi.reshape(-1, n + 1)  # psi_j's rows, node after node
    k = int(np.searchsorted(starts, t_idx, side="right")) - 1
    v = anchors.inv[t_idx].dot(np.append(x, 1.0))
    bordered = np.empty((N + 1 - t_idx, n + 1))  # [Y(t_j); 1]
    a = t_idx
    for seg, b in enumerate(starts[k + 1:].tolist() + [N + 1], k):
        np.dot(rows[a * (n + 1):b * (n + 1)], v,
               out=bordered[a - t_idx:b - t_idx].reshape(-1))
        if b <= N:
            v = anchors.links[seg].dot(v)
        a = b
    states = bordered[:, :n]
    states[0] = x
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
    axes, and gives an array of the states' leading shape.  A node index
    outside [0, N] raises TilqError.
    """
    if not isinstance(t_idx, slice):
        t_idx = _node_index(t_idx, sol.grid.N)
    R = _quadratic_form(sol.riccati.qbb[t_idx], sol.auxiliary.sbb[t_idx],
                        sol.auxiliary.omega[t_idx], np.asarray(x, dtype=float))
    return float(R) if R.ndim == 0 else R
