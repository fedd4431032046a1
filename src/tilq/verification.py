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
  RK4 stages, not the trapezoid rule, and its Sbb and omega come from the
  solver's bordered sum (:mod:`tilq.auxiliary`) over those increments.
* integral-form residual: the value function must reproduce itself through
  the terminal term plus the nested running/correction integrals along the
  equilibrium path.

The spike limit is one-sided (eps decreasing to 0) and is probed on a
finite schedule with first-order Richardson extrapolation; a finite
schedule cannot distinguish liminf from lim, which is recorded in every
report.  Candidate-control sampling can falsify the recursion inequality
but never certify the infimum over all square-integrable controls.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np

from .auxiliary import _correction, _omega_table, _psi_rate, _sbb_table
# Not called here: the uniqueness probe solves for P only.  The name stays
# in this module because perfbench/spans.py wraps it here.
from .auxiliary import solve_auxiliary  # noqa: F401
from .errors import TilqError
from .grid import (TimeGrid, _interp_half, closed_loop_drive,
                   closed_loop_matrices, quadrature)
from .policy import (EquilibriumSolution, _frozen_kernels, _node_index,
                     _quadratic_form, _running_cost, _running_integral,
                     _terminal_cost, cost, error_function_closed,
                     error_function_direct, feedback, grad_value,
                     simulate_control, simulate_equilibrium, value)
from .problem import ProblemSpec
from .riccati import SolveOptions, solve_equilibrium_riccati
from .tables import SpecTables, pair_costs, solve_chol

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
    v = np.asarray(v, dtype=float).reshape(1, sol.spec.dims.m)
    return float(_spike_quotients(sol, t_idx, x, v, [k])[0, 0])


def _spike_quotients(sol: EquilibriumSolution, t_idx: int, x, vs: np.ndarray,
                     steps: list) -> np.ndarray:
    """Spike quotients (S, W) of the constant controls ``vs`` (S, m).

    Column w belongs to a spike of ``steps[w]`` grid steps.  What depends on
    (t, x) alone is done once: the kernel rows at t over [t, T], sliced for
    each width, the equilibrium cost, and one stacked head integration to
    the widest spike.  A constant control is an open-loop table, so each
    narrower head is a prefix of that integration.
    """
    spec, grid = sol.spec, sol.grid
    n, m, N = spec.dims.n, spec.dims.m, grid.N
    x = np.asarray(x, dtype=float).reshape(n)
    t = float(grid.nodes[t_idx])
    kernels = _frozen_kernels(spec, t, grid.nodes[t_idx:])
    eq = simulate_equilibrium(sol, t_idx, x)
    J_eq = (_running_integral(kernels, grid, t_idx, N, eq.states, eq.controls)
            + _terminal_cost(spec, t, eq.states[-1]))
    widest = max(steps)
    head = simulate_control(spec, grid, np.broadcast_to(
        vs[:, None, :], (len(vs), widest + 1, m)), t_idx, x,
        stop_idx=t_idx + widest, tables=sol.tables)
    out = np.empty((len(vs), len(steps)))
    for w, k in enumerate(steps):
        switch = t_idx + k
        head_kernels = tuple(r[:k + 1] for r in kernels)
        tail_kernels = tuple(r[k:] for r in kernels)
        for j in range(len(vs)):
            Y = head.states[j, :k + 1]
            tail = simulate_equilibrium(sol, switch, Y[-1])
            J_pert = (_running_integral(head_kernels, grid, t_idx, switch, Y,
                                        head.controls[j, :k + 1])
                      + _running_integral(tail_kernels, grid, switch, N,
                                          tail.states, tail.controls)
                      + _terminal_cost(spec, t, tail.states[-1]))
            out[j, w] = (J_pert - J_eq) / (k * grid.h)
    return out


def run_spike_check(sol: EquilibriumSolution, t_idx: int, x, v):
    """Quotients over the spike schedule plus the extrapolated limit.

    ``v`` is one constant control (m,), giving one report, or a stack
    (S, m), giving a list of S reports that share the work on (t, x).
    """
    grid = sol.grid
    spec = sol.spec
    t_idx = _node_index(t_idx, grid.N)
    steps = []
    for frac in SPIKE_FRACTIONS:
        k = _snap_steps(frac * grid.T, grid)
        if t_idx + k <= grid.N and k not in steps:
            steps.append(k)
    steps.sort(reverse=True)
    if len(steps) < 2:
        raise TilqError("spike schedule leaves fewer than two usable widths; "
                        "refine the grid or move the probe point away from "
                        "the horizon")
    eps_list = [k * grid.h for k in steps]
    x = np.asarray(x, dtype=float).reshape(spec.dims.n)
    vs = np.asarray(v, dtype=float)
    single = vs.ndim <= 1
    vs = vs.reshape(-1, spec.dims.m)
    t = float(grid.nodes[t_idx])
    u_eq = feedback(sol, t, x)
    M = np.asarray(spec.M(t, t), dtype=float)
    e1, e2 = eps_list[-2], eps_list[-1]
    reports = []
    for v_j, quotients in zip(vs, _spike_quotients(sol, t_idx, x, vs, steps)):
        q1, q2 = quotients[-2], quotients[-1]
        extrapolated = float((e1 * q2 - e2 * q1) / (e1 - e2))
        du = v_j - u_eq
        reports.append(SpikeReport(t_idx=t_idx, x=x, v=v_j, epsilons=eps_list,
                                   quotients=quotients.tolist(),
                                   extrapolated=extrapolated,
                                   analytic_reference=float(du @ M @ du)))
    return reports[0] if single else reports


def spike_limit_analytic(sol: EquilibriumSolution, t_idx: int, x, v) -> float:
    """Closed-form value of the spike limit at a node.

    Assembles V_t + <grad V, A x + B v + b> + running terms - R with V_t
    reconstructed from the coefficient equations' right-hand sides and R
    from the stored closed form.  At v = u(t,x) this vanishes identically;
    shifting v adds exactly <M(t,t)(v - u), v - u>.
    """
    spec = sol.spec
    x = np.asarray(x, dtype=float).reshape(spec.dims.n)
    v = np.asarray(v, dtype=float).reshape(1, spec.dims.m)
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
    A_cl = closed_loop_matrices(tbl.A, tbl.A_half, tbl.B, tbl.B_half, gain)[0]
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
    ham = _running_cost(tbl.Qd[sl], tbl.Sd[sl], tbl.Md[sl], tbl.qd[sl],
                        tbl.rhod[sl], np.broadcast_to(x, flow.shape), u,
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
    x = np.asarray(x, dtype=float).reshape(spec.dims.n)
    traj = simulate_control(spec, grid, u, t_idx, x, stop_idx=s_idx,
                            tables=sol.tables)  # refuses a bad node range
    tbl = sol.tables
    sl = slice(t_idx, s_idx + 1)
    Y, U = traj.states, traj.controls
    run = _running_cost(tbl.Qd[sl], tbl.Sd[sl], tbl.Md[sl], tbl.qd[sl],
                        tbl.rhod[sl], Y, U)
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
    m = sol.spec.dims.m
    scale = 1.0 + float(np.max(np.abs(
        simulate_equilibrium(sol, t_idx, x).controls)))
    k = s_idx - t_idx + 1
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


def _reintegrated_increments(sol: EquilibriumSolution) -> np.ndarray:
    """Zero-state response to the drive b - B Upsilon over each step, by RK4.

    With the stored closed-loop steps, these bordered steps give btilde by a
    second discretization, independent of the solver's trapezoid rule.
    """
    tbl = sol.tables
    h = sol.grid.h
    ups = sol.auxiliary.upsilon
    F, Fm = closed_loop_matrices(tbl.A, tbl.A_half, tbl.B, tbl.B_half,
                                 sol.riccati.gain)
    w = closed_loop_drive(tbl.b, tbl.B, ups)
    wm = closed_loop_drive(tbl.b_half, tbl.B_half, _interp_half(ups))
    k1 = w[:-1]
    k2 = 0.5 * h * np.einsum("iab,ib->ia", Fm, k1) + wm
    k3 = 0.5 * h * np.einsum("iab,ib->ia", Fm, k2) + wm
    k4 = h * np.einsum("iab,ib->ia", F[1:], k3) + w[1:]
    return (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _stationarity_residuals(sol: EquilibriumSolution, states) -> list:
    """The pointwise residual at every node, one array per state.

    The state-independent tables, among them the re-integrated responses'
    Sbb and omega, are built once for all the states.  The rates use the
    stored Sbb and omega (what phi and psi were solved against); only R
    comes from the re-integrated route.
    """
    gain, ups, qbb = sol.riccati.gain, sol.auxiliary.upsilon, sol.riccati.qbb
    corr_re = _correction(gain, ups, sol.riccati.closed_loop_anchors,
                          _reintegrated_increments(sol), sol.tables)
    sbb_re, omega_re = _sbb_table(corr_re), _omega_table(corr_re)
    rates = _coefficient_rates(sol)
    out = []
    for x in np.atleast_2d(np.asarray(states, dtype=float)):
        x = x.reshape(sol.spec.dims.n)
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
    of :func:`tilq.tables.pair_costs` (the path's control h is Gain Y +
    Upsilon), and compares the assembled right side against V(t, x).
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
    h_ctrl = solve_chol(tbl.Md_chol[sl], rhs_h)
    H_run = (np.einsum("jm,jm->j", half_bp - SxY - tbl.rhod[sl], h_ctrl)
             + np.einsum("jab,jb,ja->j", tbl.Qd[sl], Y, Y)
             + 2.0 * np.einsum("ja,ja->j", tbl.qd[sl], Y))
    # F(tau, s, Y(s), grad V(s, Y(s))) on the node triangle, row sums weighted
    Y_bar = np.ones((N + 1, spec.dims.n + 1))  # [Y(s_j); 1]
    Y_bar[sl, :-1] = Y
    inner = np.empty(N + 1)
    for rows, blk, weight, K in pair_costs(
            tbl, sol.riccati.gain, sol.auxiliary.upsilon, t_idx):
        y = Y_bar[blk[-1]]  # on the block's columns
        F = np.einsum("abij,jb,ja->ij", K, y, y)
        inner[rows] = np.einsum("ij,ij->i", F, weight)
    outer = quadrature(H_run - inner[sl], grid, t_idx, N)
    # terminal weights frozen at the start time of the representation
    rhs = float(outer) + _terminal_cost(spec, t, Y[-1])
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

    Only the Riccati fixed point runs: once P is fixed, phi and psi solve
    linear equations, so a second start could not move them.  Every start
    runs the damped fixed point, whatever path
    :func:`tilq.policy.solve_equilibrium` would take, because the iteration
    from distinct starts is what the probe measures.  ``opts`` applies to
    every start.  ``tables`` (for example a solution's own) saves
    rebuilding the kernel plane or triangles.  A run that fails to converge
    raises ConvergenceError with that run's diagnostics attached.
    """
    if len(inits) < 2:
        raise TilqError("uniqueness probe needs at least two initial tables")
    base = opts or SolveOptions()
    if tables is None:
        tables = SpecTables(spec, grid)
    Ps, iterations = [], []
    for init in inits:
        riccati = solve_equilibrium_riccati(
            spec, grid, dataclasses.replace(base, initial=init), tables=tables)
        Ps.append(riccati.P)
        iterations.append(riccati.diagnostics.iterations)
    p_dist = max(float(np.max(np.abs(a - b)))
                 for a, b in itertools.combinations(Ps, 2))
    return UniquenessProbe(p_distance=p_dist, iterations=iterations)


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

    # spike variation
    worst_neg, worst_at_u, worst_match = 0.0, 0.0, 0.0
    wit_neg = wit_u = wit_match = ""
    max_frac = max(SPIKE_FRACTIONS)
    for _ in range(vopts.spike_points):
        t_idx = int(rng.integers(0, int(grid.N * (1 - 2 * max_frac))))
        x = rng.uniform(-box, box, size=n)
        v = rng.uniform(-box, box, size=m)
        u_here = feedback(sol, float(grid.nodes[t_idx]), x)
        rep, rep_u = run_spike_check(sol, t_idx, x, np.stack([v, u_here]))
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
        eq_traj = simulate_equilibrium(sol, t_idx, x)
        cands = random_candidate_controls(sol, t_idx, s_idx, x, count=10,
                                          rng=rng)
        # the equilibrium's controls and the candidates as one stack
        res = bellman_residual(sol, t_idx, s_idx, x, np.stack(
            [eq_traj.controls[: s_idx - t_idx + 1]] + cands))
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

    # error-function equivalence
    worst_eqv = 0.0
    for _ in range(vopts.value_points):
        t_idx = int(rng.integers(0, grid.N + 1))
        x = rng.uniform(-box, box, size=n)
        rd = error_function_direct(sol, t_idx, x)
        rc = error_function_closed(sol, t_idx, x)
        worst_eqv = max(worst_eqv, abs(rd - rc) / (1.0 + max(abs(rd), abs(rc))))
    report.add("error-function equivalence", worst_eqv <= EQUIVALENCE_RTOL,
               EQUIVALENCE_RTOL, worst_eqv)

    # value representation V = J along the equilibrium
    worst_rep = 0.0
    for _ in range(vopts.value_points):
        t_idx = int(rng.integers(0, grid.N + 1))
        x = rng.uniform(-box, box, size=n)
        V = value(sol, float(grid.nodes[t_idx]), x)
        J = cost(spec, grid, simulate_equilibrium(sol, t_idx, x), t_idx)
        worst_rep = max(worst_rep, abs(V - J) / (1.0 + abs(V)))
    report.add("value equals equilibrium cost", worst_rep <= VALUE_MATCH_TOL,
               VALUE_MATCH_TOL, worst_rep)

    # gradient versus central differences
    worst_grad = 0.0
    for _ in range(vopts.gradient_points):
        t = float(rng.uniform(0.0, grid.T))
        x = rng.uniform(-box, box, size=n)
        g = grad_value_fd_gap(sol, t, x)
        worst_grad = max(worst_grad, g)
    report.add("gradient matches central differences",
               worst_grad <= GRADIENT_RTOL, GRADIENT_RTOL, worst_grad)

    # uniqueness across initializations
    G_T = sol.tables.G_T
    probe = uniqueness_probe(spec, grid, ["zero", G_T, 5.0 * G_T],
                             tables=sol.tables)
    report.add("uniqueness across initializations",
               probe.p_distance <= UNIQUENESS_TOL, UNIQUENESS_TOL,
               probe.p_distance)
    return report


def grad_value_fd_gap(sol: EquilibriumSolution, t: float, x) -> float:
    """Relative gap between grad V and central differences of V."""
    n = sol.spec.dims.n
    x = np.asarray(x, dtype=float).reshape(n)
    g = grad_value(sol, t, x)
    fd = np.empty(n)
    step = 1e-5 * (1.0 + float(np.max(np.abs(x))))
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        fd[a] = (value(sol, t, x + e) - value(sol, t, x - e)) / (2 * step)
    return float(np.max(np.abs(fd - g)) / (1.0 + float(np.max(np.abs(g)))))
