"""Executable forms of the defining equilibrium properties.

Four independent probes of a solved problem:

* spike variation: perturb the feedback to a constant v on [t, t+eps],
  difference the costs, and extrapolate the quotient to eps -> 0.  The limit
  must be nonnegative, zero at v = u(t, x), and equal to
  <M(t,t)(v - u), v - u> otherwise.
* recursion (Bellman) residual: the value recursion with diagonal kernels
  and the -R correction must hold with equality along the equilibrium and
  as an inequality for arbitrary candidate controls.
* pointwise stationarity residual: V_t + <grad V, A x> + min_v H at every
  node.  V_t is reconstructed from the coefficient equations' right-hand
  sides, never by numerical time-differencing.  Evaluating R there from the
  stored tables would cancel algebraically to roundoff (the reconstruction
  embeds those very tables), so R is instead rebuilt along an independently
  re-integrated closed-loop response; the residual then measures the true
  discretization defect and shrinks at second order.  Its drive enters by
  RK4 stages (:func:`tilq.grid._rk4_drive_increments`), not the trapezoid
  rule, and its Sbb and omega come from the solver's bordered sum
  (:mod:`tilq.auxiliary`) over those increments.
* integral-form residual: the value function must reproduce itself through
  the terminal term plus the nested running/correction integrals along the
  equilibrium path.

The spike limit is one-sided (eps decreasing to 0) and is probed on a
finite schedule with first-order Richardson extrapolation; a finite
schedule cannot distinguish liminf from lim, which is recorded in every
report.  Candidate-control sampling can falsify the recursion inequality
but never certify the infimum over all square-integrable controls.

Batches.  :func:`run_verification` draws each section's sample points in
turn, in the order a point-by-point loop draws them, and then runs the
spike, error-function, V = J and gradient sections as batches.  Their
equilibrium paths and costs go through the batched path-and-cost layer of
:mod:`tilq.policy`, in batches of about ``tilq.policy.BATCH_BYTES``: a
batch of spike points holds, for each point, the equilibrium from it, the
equilibrium tail from every spike's switch node and every spike's head,
with the kernels frozen at the point's t.  Each path keeps its own sums, so
every quotient, cost and R equals its one-point value bit for bit.  The
gradient section interpolates P, phi and psi at all its times at once and
forms V at all shifted states in one quadratic form; its worst value moves
by rounding, about 1e-12 absolute against a point-by-point loop.  The
Bellman recursion and the integral-form residual stay per point: the
recorded worst values of the two are held to about 2e-15 and 5e-15
absolute, which a regrouped sum could move.  The uniqueness probe iterates
the fixed point for P alone, and on a fixed-point solution solved with the
default options from "terminal" it takes the G(T) start from the solve.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .auxiliary import _correction, _omega_table, _psi_rate, _sbb_table
# Not called here: the uniqueness probe solves for P only.  The names stay
# in this module because perfbench/spans.py wraps them here.
from .auxiliary import solve_auxiliary  # noqa: F401
from .errors import TilqError, _require_count, _require_real
from .grid import (TimeGrid, _rk4_drive_increments, closed_loop_drive,
                   closed_loop_matrices, quadrature, stage_table)
from .policy import (EquilibriumSolution, _batches, _equilibrium_costs,
                     _equilibrium_paths, _joined, _locate, _node_index, _Paths,
                     _quadratic_form, _row_bytes, _running_cost,
                     _running_integrals, _state, _terminal_costs, error_function_closed,
                     feedback, simulate_control, simulate_equilibrium, value)
from .problem import ProblemSpec
from .riccati import (RiccatiSolution, SolveOptions, _fixed_point_p,
                      warn_if_indefinite)
from .riccati import solve_equilibrium_riccati  # noqa: F401
from .tables import SpecTables, cost_terms, suffix_weights

# Pass thresholds of the check battery and its fixed sample sizes.
SPIKE_TOL = 1e-4
SPIKE_MATCH_RTOL = 0.01
BELLMAN_TOL = 1e-4
EQUIVALENCE_RTOL = 1e-4
VALUE_MATCH_TOL = 1e-3
GRADIENT_RTOL = 1e-6
UNIQUENESS_TOL = 1e-6
HJB_STATES = 4
# spike widths as fractions of the horizon
SPIKE_FRACTIONS = (1 / 50, 1 / 100, 1 / 200, 1 / 400)
# constant pieces of each random Bellman candidate control
CANDIDATE_PIECES = 8

LIMINF_NOTE = ("spike limits are probed on a finite schedule of interval "
               "widths with first-order extrapolation; a finite schedule "
               "cannot distinguish liminf from lim")


# ---------------------------------------------------------------------------
# spike variation


@dataclass
class SpikeReport:
    """Difference quotients of one spike perturbation across the schedule."""

    t_idx: int
    x: np.ndarray
    v: np.ndarray
    epsilons: list
    quotients: list
    extrapolated: float
    analytic_reference: float
    note: str = LIMINF_NOTE


def _snap_steps(eps: float, grid: TimeGrid) -> int:
    k = int(round(eps / grid.h))
    return max(k, 2)


def _spike_steps(grid: TimeGrid, t_idx: int) -> list:
    """The spike schedule's widths, in grid steps, that fit after node t_idx.

    Distinct and widest first.
    """
    steps = []
    for frac in SPIKE_FRACTIONS:
        k = _snap_steps(frac * grid.T, grid)
        if t_idx + k <= grid.N and k not in steps:
            steps.append(k)
    return sorted(steps, reverse=True)


def spike_quotient(sol: EquilibriumSolution, t_idx: int, x, v, eps: float) -> float:
    """(J(t,x; perturbed) - J(t,x; equilibrium)) / eps.

    The perturbation holds the constant control v on [t, t+eps] and follows
    the equilibrium feedback afterwards.  eps is snapped to a whole number
    of grid steps (at least 2; narrower spikes cannot be resolved) and the
    quotient uses the snapped width.  The cost of the perturbed law is
    assembled piecewise so the control jump at the switch node never smears
    across a quadrature cell.
    """
    grid = sol.grid
    t_idx = _node_index(t_idx, grid.N)
    if eps < 2 * grid.h * (1 - 1e-9):
        raise TilqError(f"spike width {eps} is below 2 grid steps")
    k = _snap_steps(eps, grid)
    if t_idx + k > grid.N:
        raise TilqError(f"spike [{t_idx}, {t_idx + k}] leaves the horizon")
    x = _state(x, sol.spec.dims.n)[None]
    v = _state(v, sol.spec.dims.m, "control")[None, None]
    return float(_spike_quotients(sol, np.array([t_idx]), x, v, [k])[0, 0, 0])


def _spike_quotients(sol: EquilibriumSolution, t_idx: np.ndarray, X: np.ndarray,
                     vs: np.ndarray, steps: list) -> np.ndarray:
    """Spike quotients (P, S, W) at the points (t_idx[p], X[p]).

    ``vs`` (P, S, m) holds each point's constant controls, and column w
    belongs to a spike of ``steps[w]`` grid steps.  Per point, one stacked
    head integration to the widest spike serves every control and width: a
    constant control is an open-loop table, so each narrower head is a
    prefix of it.  The equilibrium paths from the points and from every
    spike's switch node, and the costs along them and the heads, go through
    the batched path-and-cost layer of :mod:`tilq.policy`, a batch of
    points at a time.  The kernels stay frozen at each point's t throughout.
    """
    spec, grid = sol.spec, sol.grid
    N, n, m = grid.N, spec.dims.n, spec.dims.m
    S, W, widest = vs.shape[1], len(steps), max(steps)
    steps = np.asarray(steps)
    out = np.empty((len(t_idx), S, W))
    rows = (1 + S * W) * (N + 1 - t_idx) + S * W * (widest + 1)
    for part in _batches(t_idx, rows, _row_bytes(spec)):
        at, Xp = t_idx[part], X[part]
        P, spikes = len(at), len(at) * S * W
        heads = [simulate_control(
            spec, grid, np.broadcast_to(v[:, None, :], (S, widest + 1, m)),
            int(i), x, stop_idx=int(i) + widest, tables=sol.tables)
            for i, x, v in zip(at, Xp, vs[part])]
        # spike (p, j, w) is frozen at point p and switches at at[p] + steps[w]
        spike_t = np.repeat(at, S * W)
        switch = spike_t + np.tile(steps, P * S)
        # the equilibrium from each point, then each spike's tail from its
        # switch; then each spike's head
        eq = _equilibrium_paths(sol, np.concatenate([at, switch]), np.concatenate(
            [Xp, np.stack([tr.states[:, steps] for tr in heads]).reshape(-1, n)]))
        head = _Paths(
            first=spike_t,
            offsets=np.concatenate([[0], np.cumsum(np.tile(steps + 1, P * S))]),
            states=np.concatenate([Y[:k + 1] for tr in heads
                                   for Y in tr.states for k in steps]),
            controls=np.concatenate([U[:k + 1] for tr in heads
                                     for U in tr.controls for k in steps]))
        frozen = np.concatenate([at, spike_t])
        run = _running_integrals(spec, grid, np.concatenate([frozen, spike_t]),
                                 _joined(eq, head))
        term = _terminal_costs(spec, grid, frozen, eq.ends)
        J_eq = run[:P] + term[:P]
        J_pert = run[P + spikes:] + run[P:P + spikes] + term[P:]
        out[part] = ((J_pert.reshape(-1, S, W) - J_eq[:, None, None])
                     / (steps * grid.h))
    return out


def run_spike_check(sol: EquilibriumSolution, t_idx, x, v):
    """Quotients over the spike schedule plus the extrapolated limit.

    ``v`` is one constant control (m,), giving one report, or a stack
    (S, m), giving a list of S reports that share the work on (t, x).  The
    schedule keeps the widths that fit before the horizon.

    ``t_idx`` may also be a sequence of P nodes, with x (P, n) and v (P, m)
    or (P, S, m): the points then run as one batch and give a list of P
    reports, or of P lists.  Every point must fit the whole schedule, else
    TilqError names the first that does not.
    """
    grid = sol.grid
    spec = sol.spec
    n, m = spec.dims.n, spec.dims.m
    single = np.ndim(t_idx) == 0
    points = [_node_index(i, grid.N) for i in np.ravel(t_idx).tolist()]
    if not points:
        return []
    steps = _spike_steps(grid, points[0] if single else 0)
    if len(steps) < 2:
        raise TilqError("spike schedule leaves fewer than two usable widths; "
                        "refine the grid or move the probe point away from "
                        "the horizon")
    for i in points:
        if i + steps[0] > grid.N:
            raise TilqError(f"spike [{i}, {i + steps[0]}] leaves the horizon")
    eps_list = [k * grid.h for k in steps]
    P = len(points)
    X, vs = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if single:
        X, vs = X[None], vs[None]
    if (X.shape != (P, n) or vs.ndim not in (2, 3)
            or (vs.shape[0], vs.shape[-1]) != (P, m)):
        want = (f"({n},) and v ({m},) or (S, {m})" if single else
                f"({P}, {n}) and v ({P}, {m}) or ({P}, S, {m})")
        raise TilqError(f"spike check got x {np.shape(x)} and v {np.shape(v)}; "
                        f"expected x {want}")
    stacked = vs.ndim == 3
    vs = vs.reshape(P, -1, m)
    quotients = _spike_quotients(sol, np.array(points), X, vs, steps)
    e1, e2 = eps_list[-2], eps_list[-1]
    out = []
    for i, x_p, v_p, q_p in zip(points, X, vs, quotients):
        t = float(grid.nodes[i])
        u_eq = feedback(sol, t, x_p)
        M = sol.tables.Md[i]
        reports = []
        for v_j, q in zip(v_p, q_p):
            q1, q2 = q[-2], q[-1]
            extrapolated = float((e1 * q2 - e2 * q1) / (e1 - e2))
            du = v_j - u_eq
            reports.append(SpikeReport(t_idx=i, x=x_p, v=v_j, epsilons=eps_list,
                                       quotients=q.tolist(),
                                       extrapolated=extrapolated,
                                       analytic_reference=float(du @ M @ du)))
        out.append(reports if stacked else reports[0])
    return out[0] if single else out


def spike_limit_analytic(sol: EquilibriumSolution, t_idx: int, x, v) -> float:
    """Closed-form value of the spike limit at a node.

    Assembles V_t + <grad V, A x + B v + b> + running terms - R with V_t
    reconstructed from the coefficient equations' right-hand sides and R
    from the stored closed form.  At v = u(t,x) this vanishes identically;
    shifting v adds exactly <M(t,t)(v - u), v - u>.
    """
    spec = sol.spec
    x = _state(x, spec.dims.n)
    v = _state(v, spec.dims.m, "control")[None]
    R = error_function_closed(sol, t_idx, x)
    return float(_hamiltonian_gap(sol, _coefficient_rates(sol),
                                  slice(t_idx, t_idx + 1), x, v, R)[0])


def _coefficient_rates(sol: EquilibriumSolution) -> tuple:
    """(P', phi', psi') at every node from the coefficient equations."""
    tbl = sol.tables
    P, gain, phi = sol.riccati.P, sol.riccati.gain, sol.auxiliary.phi
    GMG = np.einsum("iam,iap,ipc->imc", gain, tbl.Md, gain, optimize=True)
    P_dot = -(np.swapaxes(tbl.A, -1, -2) @ P + P @ tbl.A + tbl.Qd
              - sol.riccati.qbb - GMG)
    A_cl = tbl.A - tbl.B @ gain
    phi_dot = (sol.auxiliary.sbb
               - np.einsum("iab,ib->ia", np.swapaxes(A_cl, -1, -2), phi)
               - np.einsum("iab,ib->ia", P, tbl.b) - tbl.qd
               + np.einsum("ima,im->ia", gain, tbl.rhod))
    psi_dot = _psi_rate(phi, sol.auxiliary.upsilon, sol.auxiliary.omega, tbl)
    return P_dot, phi_dot, psi_dot


def _hamiltonian_gap(sol: EquilibriumSolution, rates: tuple, sl: slice,
                     x: np.ndarray, u: np.ndarray, R) -> np.ndarray:
    """V_t + <grad V, A x + B u + b> + running cost(t, t) - R at nodes ``sl``.

    ``x`` is one state; ``u`` and ``R`` hold one control and one R per node.
    """
    tbl = sol.tables
    P_dot, phi_dot, psi_dot = (r[sl] for r in rates)
    V_t = (np.einsum("a,iab,b->i", x, P_dot, x)
           + 2.0 * np.einsum("ia,a->i", phi_dot, x) + psi_dot)
    grad = 2.0 * (sol.riccati.P[sl] @ x) + 2.0 * sol.auxiliary.phi[sl]
    flow = (np.einsum("iab,b->ia", tbl.A[sl], x)
            + np.einsum("iam,im->ia", tbl.B[sl], u) + tbl.b[sl])
    ham = _running_cost((tbl.Qd[sl], tbl.Sd[sl], tbl.Md[sl], tbl.qd[sl],
                         tbl.rhod[sl]), np.broadcast_to(x, flow.shape), u,
                        start=np.einsum("ia,ia->i", grad, flow))
    return V_t + ham - R


# ---------------------------------------------------------------------------
# Bellman recursion residual


def bellman_residual(sol: EquilibriumSolution, t_idx: int, s_idx: int, x,
                     u):
    """Recursion defect over [t, s] for a candidate control.

    Simulates the candidate from (t, x), accumulates the diagonal-kernel
    running cost minus the closed-form R along the path, adds V(s, y(s)),
    and subtracts V(t, x).  Zero (to discretization) along the equilibrium
    feedback; nonnegative for every admissible candidate.  ``u`` is a
    feedback law or an open-loop table over the nodes t..s (see
    :func:`tilq.policy.simulate_control`); a stack of S tables (S, k, m) is
    integrated as one stacked run and gives an array of S residuals.
    """
    spec, grid = sol.spec, sol.grid
    x = _state(x, spec.dims.n)
    traj = simulate_control(spec, grid, u, t_idx, x, stop_idx=s_idx,
                            tables=sol.tables)  # refuses a bad node range
    tbl = sol.tables
    sl = slice(t_idx, s_idx + 1)
    Y, U = traj.states, traj.controls
    run = _running_cost((tbl.Qd[sl], tbl.Sd[sl], tbl.Md[sl], tbl.qd[sl],
                         tbl.rhod[sl]), Y, U)
    run -= error_function_closed(sol, sl, Y)
    t, s = float(grid.nodes[t_idx]), float(grid.nodes[s_idx])
    # one trapezoid sum and one V(s, y(s)) per run, so that a stacked run
    # rounds as a single run does
    res = np.array([float(quadrature(r, grid, t_idx, s_idx)) + value(sol, s, y)
                    for r, y in zip(run.reshape(-1, run.shape[-1]),
                                    Y[..., -1, :].reshape(-1, spec.dims.n))])
    res -= value(sol, t, x)
    return res if Y.ndim == 3 else float(res[0])


def random_candidate_controls(sol: EquilibriumSolution, t_idx: int, s_idx: int,
                              x, count: int, rng: np.random.Generator) -> list:
    """Piecewise-constant candidates scaled to the local equilibrium control."""
    return _candidates(simulate_equilibrium(sol, t_idx, x).controls,
                       s_idx - t_idx + 1, count, rng)


def _candidates(eq_controls: np.ndarray, k: int, count: int,
                rng: np.random.Generator) -> list:
    """``count`` piecewise-constant (k, m) tables, scaled to ``eq_controls``."""
    m = eq_controls.shape[-1]
    scale = 1.0 + float(np.max(np.abs(eq_controls)))
    out = []
    for _ in range(count):
        breaks = np.sort(rng.integers(0, k, size=CANDIDATE_PIECES - 1))
        levels = rng.uniform(-2.0, 2.0, size=(CANDIDATE_PIECES, m)) * scale
        table = np.empty((k, m))
        start = 0
        for p, stop in enumerate(list(breaks) + [k]):
            table[start:stop] = levels[p]
            start = stop
        out.append(table)
    return out


# ---------------------------------------------------------------------------
# pointwise stationarity residual


def _stationarity_residuals(sol: EquilibriumSolution, states) -> list:
    """The pointwise residual at every node, one array per state.

    The state-independent tables, among them Sbb and omega of the RK4
    responses to the drive b - B Upsilon, are built once for all the states.
    The rates use the stored Sbb and omega (what phi and psi were solved
    against); only R comes from the re-integrated route.
    """
    n = sol.spec.dims.n
    states = np.asarray(states, dtype=float)
    if states.ndim not in (1, 2) or states.shape[-1:] != (n,):
        raise TilqError(f"states have shape {states.shape}; expected ({n},) or "
                        f"(S, {n})")
    gain, ups, qbb = sol.riccati.gain, sol.auxiliary.upsilon, sol.riccati.qbb
    tbl = sol.tables
    B = tbl.stages("B")
    F = closed_loop_matrices(tbl.stages("A"), B, gain)
    w = closed_loop_drive(tbl.stages("b"), B, stage_table(ups))
    corr_re = _correction(gain, ups, sol.riccati.closed_loop_anchors,
                          _rk4_drive_increments(F, w, sol.grid.h), tbl)
    sbb_re, omega_re = _sbb_table(corr_re), _omega_table(corr_re)
    rates = _coefficient_rates(sol)
    out = []
    for x in np.atleast_2d(states):
        R_re = _quadratic_form(qbb, sbb_re, omega_re, x)
        out.append(_hamiltonian_gap(sol, rates, slice(None), x,
                                    -(gain @ x) - ups, R_re))
    return out


def hjb_residual_sup(sol: EquilibriumSolution, states) -> float:
    """Sup of the pointwise stationarity residual over nodes and states."""
    return max((float(np.max(np.abs(r)))
                for r in _stationarity_residuals(sol, states)), default=0.0)


# ---------------------------------------------------------------------------
# integral-form residual


def hjb_integral_residual(sol: EquilibriumSolution, t_idx: int, x) -> float:
    """Defect of the value function in its nested integral representation.

    Walks the equilibrium path Y from (t, x), evaluates the running
    Hamiltonian-like term through the minimizing-control map h as displayed
    in its defining formula, and the two-time correction integrand as the
    bordered closed-loop cost derivative <Y_bar, K Y_bar>, Y_bar = [Y; 1],
    of :func:`tilq.tables.cost_terms` (the path's control h is Gain Y +
    Upsilon): one mat-vec of each term's plane, weighted by
    :func:`tilq.tables.suffix_weights`.  The assembled right side is
    compared against V(t, x).
    """
    spec, grid = sol.spec, sol.grid
    tbl = sol.tables
    N = grid.N
    traj = simulate_equilibrium(sol, t_idx, x)  # refuses a bad node index
    t, x = float(grid.nodes[t_idx]), traj.start_state
    Y = traj.states
    sl = slice(t_idx, N + 1)
    grad = 2.0 * np.einsum("jab,jb->ja", sol.riccati.P[sl], Y) \
        + 2.0 * sol.auxiliary.phi[sl]
    # h(s, x, p) = M^{-1}(s,s) (B^T p / 2 + S(s,s) x + rho(s,s))
    half_bp = 0.5 * np.einsum("jam,ja->jm", tbl.B[sl], grad)
    SxY = np.einsum("jmn,jn->jm", tbl.Sd[sl], Y)
    rhs_h = half_bp + SxY + tbl.rhod[sl]
    h_ctrl = tbl.solve_md(rhs_h)  # at the nodes from t_idx on
    H_run = (np.einsum("jm,jm->j", half_bp - SxY - tbl.rhod[sl], h_ctrl)
             + np.einsum("jab,jb,ja->j", tbl.Qd[sl], Y, Y)
             + 2.0 * np.einsum("ja,ja->j", tbl.qd[sl], Y))
    # F(tau, s, Y(s), grad V(s, Y(s))) on the node triangle, row sums weighted
    Y_bar = np.ones((N + 1 - t_idx, spec.dims.n + 1))  # [Y(s_j); 1]
    Y_bar[:, :-1] = Y
    W = suffix_weights(grid, sl, sl)
    inner = sum((W * plane[sl, sl]) @ np.einsum("jab,jb,ja->j", K[sl], Y_bar, Y_bar)
                for plane, K in cost_terms(tbl, sol.riccati.gain, sol.auxiliary.upsilon))
    outer = quadrature(H_run - inner, grid, t_idx, N)
    # terminal weights frozen at the start time of the representation
    rhs = float(outer) + float(
        _terminal_costs(spec, grid, np.array([t_idx]), Y[-1:])[0])
    return rhs - value(sol, t, x)


# ---------------------------------------------------------------------------
# uniqueness probe


@dataclass
class UniquenessProbe:
    """Largest pairwise P distance between solves from different starts."""

    p_distance: float
    iterations: list


def uniqueness_probe(spec: ProblemSpec, grid: TimeGrid, inits,
                     opts: SolveOptions | None = None,
                     tables: SpecTables | None = None) -> UniquenessProbe:
    """Solve for P from each initial table; report the max pairwise distance.

    Only the Riccati fixed point for P runs: once P is fixed, phi and psi
    solve linear equations, so a second start could not move them, and the
    gain, closed loop and Qbb of a converged P are not needed.  Every start
    runs the damped fixed point, whatever path
    :func:`tilq.policy.solve_equilibrium` would take, because the iteration
    from distinct starts is what the probe measures.  ``opts`` applies to
    every start.  An entry of ``inits`` may also be a fixed-point
    :class:`tilq.riccati.RiccatiSolution` on this grid, solved with those
    options from its own start; its P and iteration count are taken as that
    start's run.  A solution on another grid (N or T) or from the local path
    is refused with TilqError: its P is not that of a fixed-point run here.
    ``tables`` (for example a solution's own) saves rebuilding the kernel
    plane or triangles; tables built for another spec object, or on a grid
    of another N or T, are refused with TilqError naming both.  A run that
    fails to converge raises ConvergenceError with that run's diagnostics
    attached, and a P with negative eigenvalues warns, as a solve does.
    """
    if len(inits) < 2:
        raise TilqError("uniqueness probe needs at least two initial tables")
    base = opts or SolveOptions()
    if tables is None:
        tables = SpecTables(spec, grid)
    elif (tables.spec is not spec or tables.grid.N != grid.N
          or tables.grid.T != grid.T):
        owner = "its" if tables.spec is spec else f"another spec's ({tables.spec.name!r})"
        raise TilqError(
            f"uniqueness probe of {spec.name!r} on N={grid.N}, T={grid.T!r} given "
            f"{owner} tables on N={tables.grid.N}, T={tables.grid.T!r}")
    Ps, iterations = [], []
    for init in inits:
        if isinstance(init, RiccatiSolution):
            if init.grid.N != grid.N or init.grid.T != grid.T:
                raise TilqError(
                    f"uniqueness probe on N={grid.N}, T={grid.T!r} given a "
                    f"solution on N={init.grid.N}, T={init.grid.T!r}")
            if init.options is None:
                raise TilqError("uniqueness probe given a local-path solution; "
                                "a start must be a fixed-point run")
            P, diag = init.P, init.diagnostics
        else:
            P, diag = _fixed_point_p(dataclasses.replace(base, initial=init),
                                     tables)
            warn_if_indefinite(P, diag)
        Ps.append(P)
        iterations.append(diag.iterations)
    p_dist = max(float(np.max(np.abs(a - b)))
                 for a, b in itertools.combinations(Ps, 2))
    return UniquenessProbe(p_distance=p_dist, iterations=iterations)


def _probe_start(sol: EquilibriumSolution):
    """The probe's G(T) start: the solution's own Riccati run where it is one.

    A fixed-point solve with the probe's options, SolveOptions() from
    "terminal" on the same tables, is the probe's G(T) run bit for bit.
    """
    opts = sol.riccati.options  # None on the local path
    if isinstance(getattr(opts, "initial", None), str) and opts == SolveOptions():
        return sol.riccati
    return sol.tables.G_T


# ---------------------------------------------------------------------------
# full battery


@dataclass
class CheckResult:
    name: str
    passed: bool
    tolerance: float
    worst: float
    witness: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    seed: int = 42
    note: str = LIMINF_NOTE

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list:
        return [c.name for c in self.checks if not c.passed]

    def add(self, name, passed, tolerance, worst, witness=""):
        self.checks.append(CheckResult(name=name, passed=bool(passed),
                                       tolerance=float(tolerance),
                                       worst=float(worst), witness=witness))


@dataclass
class VerifyOptions:
    seed: int = 42
    spike_points: int = 30
    bellman_controls: int = 100
    value_points: int = 50
    gradient_points: int = 100
    state_box: float = 2.0

    def __post_init__(self):
        # the minimums PROBLEM_SCHEMA sets on a problem file's settings
        for name in ("spike_points", "bellman_controls", "value_points",
                     "gradient_points"):
            _require_count(name, getattr(self, name))
        _require_real("state_box", self.state_box)
        if not 0 < self.state_box < math.inf:
            raise TilqError(f"state_box must be positive and finite, got "
                            f"{self.state_box!r}")


def _hjb_reference_tol(grid: TimeGrid) -> float:
    # empirical level of the pointwise/integral defects at N = 2000 on the
    # shipped demos, rescaled by the O(h^2) law
    return 1e-3 * (2000.0 * grid.h / max(grid.T, 1e-12)) ** 2


def run_verification(sol: EquilibriumSolution,
                     vopts: VerifyOptions | None = None) -> VerificationReport:
    """The full check battery on one solved problem."""
    vopts = vopts or VerifyOptions()
    spec, grid = sol.spec, sol.grid
    n, m = spec.dims.n, spec.dims.m
    rng = np.random.default_rng(vopts.seed)
    report = VerificationReport(seed=vopts.seed)
    box = vopts.state_box

    # spike variation: the points drawn in turn, then run as one batch
    max_frac = max(SPIKE_FRACTIONS)
    points = [(int(rng.integers(0, int(grid.N * (1 - 2 * max_frac)))),
               rng.uniform(-box, box, size=n), rng.uniform(-box, box, size=m))
              for _ in range(vopts.spike_points)]
    spikes = run_spike_check(
        sol, [i for i, _, _ in points], np.array([x for _, x, _ in points]),
        np.array([[v, feedback(sol, float(grid.nodes[i]), x)]
                  for i, x, v in points]))
    worst_neg, worst_at_u, worst_match = 0.0, 0.0, 0.0
    wit_neg = wit_u = wit_match = ""
    for (t_idx, _, _), (rep, rep_u) in zip(points, spikes):
        if -rep.extrapolated > worst_neg:
            worst_neg = -rep.extrapolated
            wit_neg = f"t_idx={t_idx}"
        if abs(rep.extrapolated - rep.analytic_reference) > worst_match * max(
                1.0, abs(rep.analytic_reference)):
            worst_match = abs(rep.extrapolated - rep.analytic_reference) / max(
                1.0, abs(rep.analytic_reference))
            wit_match = f"t_idx={t_idx}"
        if abs(rep_u.extrapolated) > worst_at_u:
            worst_at_u = abs(rep_u.extrapolated)
            wit_u = f"t_idx={t_idx}"
    report.add("spike quotient nonnegative", worst_neg <= SPIKE_TOL,
               SPIKE_TOL, worst_neg, wit_neg)
    report.add("spike limit zero at equilibrium", worst_at_u <= SPIKE_TOL,
               SPIKE_TOL, worst_at_u, wit_u)
    report.add("spike limit matches quadratic gap",
               worst_match <= SPIKE_MATCH_RTOL, SPIKE_MATCH_RTOL,
               worst_match, wit_match)

    # Bellman recursion
    worst_eq, worst_cand = 0.0, 0.0
    wit_eq = wit_cand = ""
    for trial in range(max(1, vopts.bellman_controls // 10)):
        t_idx = int(rng.integers(0, grid.N - 2))
        s_idx = int(rng.integers(t_idx + 1, grid.N))
        x = rng.uniform(-box, box, size=n)
        # random_candidate_controls' draws, scaled to this one path
        eq_controls = simulate_equilibrium(sol, t_idx, x).controls
        k = s_idx - t_idx + 1
        cands = _candidates(eq_controls, k, 10, rng)
        # the equilibrium's controls and the candidates as one stack
        res = bellman_residual(sol, t_idx, s_idx, x,
                               np.stack([eq_controls[:k]] + cands))
        if abs(res[0]) > worst_eq:
            worst_eq, wit_eq = abs(res[0]), f"t_idx={t_idx}; s_idx={s_idx}"
        worst_here = -res[1:].min()
        if worst_here > worst_cand:
            worst_cand, wit_cand = worst_here, f"t_idx={t_idx}; s_idx={s_idx}"
    report.add("recursion equality along equilibrium",
               worst_eq <= BELLMAN_TOL, BELLMAN_TOL, worst_eq, wit_eq)
    report.add("recursion inequality for candidates",
               worst_cand <= BELLMAN_TOL, BELLMAN_TOL, worst_cand,
               wit_cand)

    # pointwise and integral-form residuals
    hjb_tol = _hjb_reference_tol(grid)
    states = rng.uniform(-box, box, size=(HJB_STATES, n))
    sup_pt = hjb_residual_sup(sol, states)
    report.add("pointwise stationarity residual", sup_pt <= hjb_tol, hjb_tol,
               sup_pt)
    sup_int = 0.0
    for _ in range(8):
        t_idx = int(rng.integers(0, grid.N))
        x = rng.uniform(-box, box, size=n)
        sup_int = max(sup_int, abs(hjb_integral_residual(sol, t_idx, x)))
    report.add("integral-form residual", sup_int <= hjb_tol, hjb_tol, sup_int)

    # error-function equivalence, its points drawn in turn, then batched
    t_idxs, X = _node_states(rng, grid, n, box, vopts.value_points)
    rds = _equilibrium_costs(sol, t_idxs, X, derivative=True)
    worst_eqv = 0.0
    for t_idx, x, rd in zip(t_idxs.tolist(), X, rds.tolist()):
        rc = error_function_closed(sol, t_idx, x)
        worst_eqv = max(worst_eqv, abs(rd - rc) / (1.0 + max(abs(rd), abs(rc))))
    report.add("error-function equivalence", worst_eqv <= EQUIVALENCE_RTOL,
               EQUIVALENCE_RTOL, worst_eqv)

    # value representation V = J along the equilibrium, batched alike
    t_idxs, X = _node_states(rng, grid, n, box, vopts.value_points)
    Js = _equilibrium_costs(sol, t_idxs, X)
    worst_rep = 0.0
    for t_idx, x, J in zip(t_idxs.tolist(), X, Js.tolist()):
        V = value(sol, float(grid.nodes[t_idx]), x)
        worst_rep = max(worst_rep, abs(V - J) / (1.0 + abs(V)))
    report.add("value equals equilibrium cost", worst_rep <= VALUE_MATCH_TOL,
               VALUE_MATCH_TOL, worst_rep)

    # gradient versus central differences, all points in one batch
    ts = np.empty(vopts.gradient_points)
    X = np.empty((vopts.gradient_points, n))
    for k in range(vopts.gradient_points):
        ts[k] = rng.uniform(0.0, grid.T)
        X[k] = rng.uniform(-box, box, size=n)
    worst_grad = float(np.max(_grad_fd_gaps(sol, ts, X), initial=0.0))
    report.add("gradient matches central differences",
               worst_grad <= GRADIENT_RTOL, GRADIENT_RTOL, worst_grad)

    # uniqueness across initializations
    G_T = sol.tables.G_T
    probe = uniqueness_probe(spec, grid, ["zero", _probe_start(sol), 5.0 * G_T],
                             tables=sol.tables)
    report.add("uniqueness across initializations",
               probe.p_distance <= UNIQUENESS_TOL, UNIQUENESS_TOL,
               probe.p_distance)
    return report


def _node_states(rng: np.random.Generator, grid: TimeGrid, n: int, box: float,
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` draws of a node index and then a state in the box, in turn."""
    t_idxs = np.empty(count, dtype=np.intp)
    X = np.empty((count, n))
    for k in range(count):
        t_idxs[k] = rng.integers(0, grid.N + 1)
        X[k] = rng.uniform(-box, box, size=n)
    return t_idxs, X


def grad_value_fd_gap(sol: EquilibriumSolution, t: float, x) -> float:
    """Relative gap between grad V and central differences of V."""
    x = _state(x, sol.spec.dims.n)[None]
    return float(_grad_fd_gaps(sol, np.array([float(t)]), x)[0])


def _grad_fd_gaps(sol: EquilibriumSolution, ts: np.ndarray,
                  X: np.ndarray) -> np.ndarray:
    """:func:`grad_value_fd_gap` at the points (ts[p], X[p]), as one batch.

    P, phi and psi are interpolated at every time at once, and V at all
    2 n shifted states of every point by one quadratic form.
    """
    n = sol.spec.dims.n
    grid = sol.grid
    located = [_locate(grid, t) for t in ts.tolist()]
    i = np.array([k for k, _ in located], dtype=np.intp)
    w = np.array([c for _, c in located])
    P, phi, psi = (_rows_at(table, i, w) for table in
                   (sol.riccati.P, sol.auxiliary.phi, sol.auxiliary.psi))
    g = 2.0 * np.einsum("pab,pb->pa", P, X) + 2.0 * phi
    step = 1e-5 * (1.0 + np.max(np.abs(X), axis=1))
    shifted = X[:, None, None, :] + np.array([1.0, -1.0])[:, None, None] \
        * step[:, None, None, None] * np.eye(n)  # (P, 2, n, n): x +- step e_a
    V = _quadratic_form(P[:, None, None], phi[:, None, None],
                        psi[:, None, None], shifted)
    fd = (V[:, 0] - V[:, 1]) / (2 * step[:, None])
    return np.max(np.abs(fd - g), axis=1) / (1.0 + np.max(np.abs(g), axis=1))


def _rows_at(table: np.ndarray, i: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows i of a node table, each w of the way to row i + 1."""
    w = w.reshape(w.shape + (1,) * (table.ndim - 1))
    return (1.0 - w) * table[i] + w * table[i + 1]
