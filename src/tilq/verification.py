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
  discretization defect and shrinks at second order.
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

from dataclasses import dataclass, field

import numpy as np

from .auxiliary import _omega_table, _sbb_table, solve_auxiliary
from .errors import TilqError
from .grid import TimeGrid, quadrature, zero_below_diagonal
from .policy import (EquilibriumSolution, cost, error_function_closed,
                     error_function_direct, feedback, grad_value,
                     simulate_control, simulate_equilibrium, value)
from .problem import ProblemSpec
from .riccati import SolveOptions, solve_equilibrium_riccati
from .tables import SpecTables

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
    spec, grid = sol.spec, sol.grid
    n, m = spec.dims.n, spec.dims.m
    if eps < 2 * grid.h * (1 - 1e-9):
        raise TilqError(f"spike width {eps} is below 2 grid steps")
    k = _snap_steps(eps, grid)
    if t_idx + k > grid.N:
        raise TilqError(f"spike [{t_idx}, {t_idx + k}] leaves the horizon")
    x = np.asarray(x, dtype=float).reshape(n)
    v = np.asarray(v, dtype=float).reshape(m)
    eps_actual = k * grid.h
    t = float(grid.nodes[t_idx])
    switch = t_idx + k

    head = simulate_control(spec, grid, lambda _t, _y: v, t_idx, x,
                            stop_idx=switch, tables=sol.tables)
    tail = simulate_equilibrium(sol, switch, head.states[-1])

    J_pert = (_running_cost(spec, grid, t, t_idx, switch, head.states,
                            np.broadcast_to(v, (k + 1, m)))
              + _running_cost(spec, grid, t, switch, grid.N, tail.states,
                              tail.controls)
              + _terminal_cost(spec, t, tail.states[-1]))
    J_eq = cost(spec, grid, simulate_equilibrium(sol, t_idx, x), t_idx)
    return (J_pert - J_eq) / eps_actual


def _running_cost(spec, grid, t_frozen, a_idx, b_idx, Y, U) -> float:
    if a_idx == b_idx:
        return 0.0
    s = grid.nodes[a_idx:b_idx + 1]
    Qr = spec.Q.row(t_frozen, s)
    Sr = spec.S.row(t_frozen, s)
    Mr = spec.M.row(t_frozen, s)
    qr = spec.q.row(t_frozen, s)
    rr = spec.rho.row(t_frozen, s)
    run = (np.einsum("jab,jb,ja->j", Qr, Y, Y)
           + 2.0 * np.einsum("jmn,jn,jm->j", Sr, Y, U)
           + np.einsum("jmp,jp,jm->j", Mr, U, U)
           + 2.0 * np.einsum("ja,ja->j", qr, Y)
           + 2.0 * np.einsum("jm,jm->j", rr, U))
    return float(quadrature(run, grid, a_idx, b_idx))


def _terminal_cost(spec, t_frozen, yT) -> float:
    G = np.asarray(spec.terminal.G(t_frozen), dtype=float)
    g = np.asarray(spec.terminal.g(t_frozen), dtype=float).reshape(-1)
    return float(yT @ G @ yT + 2.0 * g @ yT)


DEFAULT_SPIKE_FRACTIONS = (1 / 50, 1 / 100, 1 / 200, 1 / 400)


def run_spike_check(sol: EquilibriumSolution, t_idx: int, x, v,
                    fractions=DEFAULT_SPIKE_FRACTIONS) -> SpikeReport:
    """Quotients over the spike schedule plus the extrapolated limit."""
    grid = sol.grid
    spec = sol.spec
    steps = []
    for frac in fractions:
        k = _snap_steps(frac * grid.T, grid)
        if t_idx + k <= grid.N and k not in steps:
            steps.append(k)
    steps.sort(reverse=True)
    if len(steps) < 2:
        raise TilqError("spike schedule leaves fewer than two usable widths; "
                        "refine the grid or move the probe point away from "
                        "the horizon")
    eps_list = [k * grid.h for k in steps]
    quotients = [spike_quotient(sol, t_idx, x, v, e) for e in eps_list]
    e1, e2 = eps_list[-2], eps_list[-1]
    q1, q2 = quotients[-2], quotients[-1]
    extrapolated = (e1 * q2 - e2 * q1) / (e1 - e2)
    x = np.asarray(x, dtype=float).reshape(spec.dims.n)
    v = np.asarray(v, dtype=float).reshape(spec.dims.m)
    t = float(grid.nodes[t_idx])
    du = v - feedback(sol, t, x)
    M = np.asarray(spec.M(t, t), dtype=float)
    return SpikeReport(t_idx=t_idx, x=x, v=v, epsilons=eps_list,
                       quotients=quotients, extrapolated=extrapolated,
                       analytic_reference=float(du @ M @ du))


def spike_limit_analytic(sol: EquilibriumSolution, t_idx: int, x, v) -> float:
    """Closed-form value of the spike limit at a node.

    Assembles V_t + <grad V, A x + B v + b> + running terms - R with V_t
    reconstructed from the coefficient equations' right-hand sides and R
    from the stored closed form.  At v = u(t,x) this vanishes identically;
    shifting v adds exactly <M(t,t)(v - u), v - u>.
    """
    spec, grid = sol.spec, sol.grid
    tbl = sol.tables
    i = t_idx
    n, m = spec.dims.n, spec.dims.m
    x = np.asarray(x, dtype=float).reshape(n)
    v = np.asarray(v, dtype=float).reshape(m)
    P = sol.riccati.P[i]
    gain = sol.riccati.gain[i]
    qbb = sol.riccati.qbb[i]
    phi = sol.auxiliary.phi[i]
    ups = sol.auxiliary.upsilon[i]
    sbb = sol.auxiliary.sbb[i]
    om = float(sol.auxiliary.omega[i])
    A, B, b = tbl.A[i], tbl.B[i], tbl.b[i]
    Qd, Sd, Md, qd, rhod = tbl.Qd[i], tbl.Sd[i], tbl.Md[i], tbl.qd[i], tbl.rhod[i]

    P_dot = -(A.T @ P + P @ A + Qd - qbb - gain.T @ Md @ gain)
    phi_dot = sbb - (A - B @ gain).T @ phi - P @ b - qd + gain.T @ rhod
    psi_dot = (om - 2.0 * float(phi @ (b - B @ ups))
               - float((Md @ ups - 2.0 * rhod) @ ups))
    V_t = float(x @ P_dot @ x + 2.0 * phi_dot @ x + psi_dot)
    grad = 2.0 * (P @ x) + 2.0 * phi
    R = error_function_closed(sol, i, x)
    return (V_t + float(grad @ (A @ x + B @ v + b))
            + float(x @ Qd @ x) + 2.0 * float((Sd @ x) @ v)
            + float(v @ Md @ v) + 2.0 * float(qd @ x) + 2.0 * float(rhod @ v)
            - R)


# ---------------------------------------------------------------------------
# Bellman recursion residual


def bellman_residual(sol: EquilibriumSolution, t_idx: int, s_idx: int, x,
                     u) -> float:
    """Recursion defect over [t, s] for a candidate control.

    Simulates the candidate from (t, x), accumulates the diagonal-kernel
    running cost minus the closed-form R along the path, adds V(s, y(s)),
    and subtracts V(t, x).  Zero (to discretization) along the equilibrium
    feedback; nonnegative for every admissible candidate.
    """
    spec, grid = sol.spec, sol.grid
    if not (0 <= t_idx <= s_idx <= grid.N):
        raise TilqError(f"node range [{t_idx}, {s_idx}] invalid")
    x = np.asarray(x, dtype=float).reshape(spec.dims.n)
    if s_idx == t_idx:
        return 0.0
    traj = simulate_control(spec, grid, u, t_idx, x, stop_idx=s_idx,
                            tables=sol.tables)
    tbl = sol.tables
    sl = slice(t_idx, s_idx + 1)
    Y, U = traj.states, traj.controls
    run = (np.einsum("jab,jb,ja->j", tbl.Qd[sl], Y, Y)
           + 2.0 * np.einsum("ja,ja->j", tbl.qd[sl], Y)
           + 2.0 * np.einsum("jmn,jn,jm->j", tbl.Sd[sl], Y, U)
           + np.einsum("jmp,jp,jm->j", tbl.Md[sl], U, U)
           + 2.0 * np.einsum("jm,jm->j", tbl.rhod[sl], U))
    run -= np.asarray([error_function_closed(sol, j, Y[j - t_idx])
                       for j in range(t_idx, s_idx + 1)])
    rhs = float(quadrature(run, grid, t_idx, s_idx))
    rhs += value(sol, float(grid.nodes[s_idx]), Y[-1])
    return rhs - value(sol, float(grid.nodes[t_idx]), x)


def random_candidate_controls(sol: EquilibriumSolution, t_idx: int, s_idx: int,
                              x, count: int, rng: np.random.Generator,
                              pieces: int = 8) -> list:
    """Piecewise-constant candidates scaled to the local equilibrium control."""
    m = sol.spec.dims.m
    scale = 1.0 + float(np.max(np.abs(
        simulate_equilibrium(sol, t_idx, x).controls)))
    k = s_idx - t_idx + 1
    out = []
    for _ in range(count):
        breaks = np.sort(rng.integers(0, k, size=pieces - 1))
        levels = rng.uniform(-2.0, 2.0, size=(pieces, m)) * scale
        table = np.empty((k, m))
        start = 0
        for p, stop in enumerate(list(breaks) + [k]):
            table[start:stop] = levels[p]
            start = stop
        out.append(table)
    return out


# ---------------------------------------------------------------------------
# pointwise stationarity residual


def _reintegrated_offsets(sol: EquilibriumSolution) -> np.ndarray:
    """Zero-state responses rebuilt by RK4 affine accumulation, in pair layout.

    Shares the closed-loop step matrices with the stored propagators but
    accumulates the drive b - B Upsilon through the RK4 stages instead of
    the node trapezoid rule, giving a second, independent discretization of
    the same responses.
    """
    tbl = sol.tables
    grid = sol.grid
    gain = sol.riccati.gain
    ups = sol.auxiliary.upsilon
    h = grid.h
    gain_h = 0.5 * (gain[:-1] + gain[1:])
    ups_h = 0.5 * (ups[:-1] + ups[1:])
    Fm = tbl.A_half - tbl.B_half @ gain_h
    F1 = tbl.A[1:] - tbl.B[1:] @ gain[1:]
    w0 = tbl.b[:-1] - np.einsum("iab,ib->ia", tbl.B[:-1], ups[:-1])
    wm = tbl.b_half - np.einsum("iab,ib->ia", tbl.B_half, ups_h)
    w1 = tbl.b[1:] - np.einsum("iab,ib->ia", tbl.B[1:], ups[1:])
    k1 = w0
    k2 = 0.5 * h * np.einsum("iab,ib->ia", Fm, k1) + wm
    k3 = 0.5 * h * np.einsum("iab,ib->ia", Fm, k2) + wm
    k4 = h * np.einsum("iab,ib->ia", F1, k3) + w1
    r = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    steps = sol.riccati.closed_loop.steps
    N, n = grid.N, sol.spec.dims.n
    Z = np.zeros((N + 1, n))
    for i in range(N):
        Z[i + 1] = steps[i] @ Z[i] + r[i]
    bt = np.einsum("abij,ib->aij", sol.riccati.closed_loop.pair_table(), Z)
    np.subtract(Z.T[:, None, :], bt, out=bt)
    return zero_below_diagonal(bt)


@dataclass
class _StationarityTerms:
    """State-independent tables of the pointwise residual at every node."""

    P_dot: np.ndarray
    phi_dot: np.ndarray
    psi_dot: np.ndarray
    grad_affine: np.ndarray   # 2 phi
    sbb_re: np.ndarray
    omega_re: np.ndarray


def _stationarity_terms(sol: EquilibriumSolution) -> _StationarityTerms:
    tbl = sol.tables
    P = sol.riccati.P
    gain = sol.riccati.gain
    qbb = sol.riccati.qbb
    phi = sol.auxiliary.phi
    ups = sol.auxiliary.upsilon
    A, B, b = tbl.A, tbl.B, tbl.b
    Qd, Md, qd, rhod = tbl.Qd, tbl.Md, tbl.qd, tbl.rhod

    bt_re = _reintegrated_offsets(sol)
    sbb_re = _sbb_table(gain, ups, bt_re, sol.riccati.closed_loop.pair_table(), tbl)
    omega_re = _omega_table(gain, ups, bt_re, tbl)

    GMG = np.einsum("iam,iap,ipc->imc", gain, Md, gain, optimize=True)
    P_dot = -(np.swapaxes(A, -1, -2) @ P + P @ A + Qd - qbb - GMG)
    D = np.swapaxes(A - B @ gain, -1, -2)
    # the reconstruction uses the *stored* Sbb/omega (what phi and psi were
    # solved against); only R below comes from the re-integrated route
    phi_dot = (sol.auxiliary.sbb
               - np.einsum("iab,ib->ia", D, phi)
               - np.einsum("iab,ib->ia", P, b) - qd
               + np.einsum("ima,im->ia", gain, rhod))
    drive = b - np.einsum("iab,ib->ia", B, ups)
    psi_dot = (sol.auxiliary.omega
               - 2.0 * np.einsum("ia,ia->i", phi, drive)
               - np.einsum("im,im->i",
                           np.einsum("iab,ib->ia", Md, ups) - 2.0 * rhod, ups))
    return _StationarityTerms(P_dot=P_dot, phi_dot=phi_dot, psi_dot=psi_dot,
                              grad_affine=2.0 * phi, sbb_re=sbb_re,
                              omega_re=omega_re)


def _stationarity_residual(sol: EquilibriumSolution, terms: _StationarityTerms,
                           x: np.ndarray) -> np.ndarray:
    tbl = sol.tables
    P = sol.riccati.P
    gain = sol.riccati.gain
    qbb = sol.riccati.qbb
    ups = sol.auxiliary.upsilon
    A, B, b = tbl.A, tbl.B, tbl.b
    Qd, Sd, Md, qd, rhod = tbl.Qd, tbl.Sd, tbl.Md, tbl.qd, tbl.rhod
    V_t = (np.einsum("a,iab,b->i", x, terms.P_dot, x)
           + 2.0 * np.einsum("ia,a->i", terms.phi_dot, x) + terms.psi_dot)
    grad = 2.0 * (P @ x) + terms.grad_affine
    u_star = -(gain @ x) - ups
    flow = np.einsum("iab,b->ia", A, x) + np.einsum("iam,im->ia", B, u_star) + b
    ham = (np.einsum("ia,ia->i", grad, flow)
           + np.einsum("a,iab,b->i", x, Qd, x)
           + 2.0 * np.einsum("ima,a,im->i", Sd, x, u_star)
           + np.einsum("imp,ip,im->i", Md, u_star, u_star)
           + 2.0 * np.einsum("ia,a->i", qd, x)
           + 2.0 * np.einsum("im,im->i", rhod, u_star))
    R_re = (np.einsum("a,iab,b->i", x, qbb, x)
            + 2.0 * np.einsum("ia,a->i", terms.sbb_re, x) + terms.omega_re)
    return V_t + ham - R_re


def hjb_residual_all_nodes(sol: EquilibriumSolution, x) -> np.ndarray:
    """Stationarity residual at every node for one state."""
    x = np.asarray(x, dtype=float).reshape(sol.spec.dims.n)
    return _stationarity_residual(sol, _stationarity_terms(sol), x)


def hjb_residual_sup(sol: EquilibriumSolution, states) -> float:
    """Sup of the pointwise stationarity residual over nodes and states.

    The state-independent tables, among them the re-integrated responses
    and their Sbb and omega, are built once for all the states.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    terms = _stationarity_terms(sol)
    sup = 0.0
    for x in states:
        x = x.reshape(sol.spec.dims.n)
        sup = max(sup, float(np.max(np.abs(_stationarity_residual(sol, terms, x)))))
    return sup


# ---------------------------------------------------------------------------
# integral-form residual


def hjb_integral_residual(sol: EquilibriumSolution, t_idx: int, x) -> float:
    """Defect of the value function in its nested integral representation.

    Walks the equilibrium path Y from (t, x), evaluates the running
    Hamiltonian-like term and the two-time correction integrand exactly as
    displayed in their defining formulas (through the minimizing-control map
    h), and compares the assembled right side against V(t, x).
    """
    spec, grid = sol.spec, sol.grid
    tbl = sol.tables
    N = grid.N
    t = float(grid.nodes[t_idx])
    x = np.asarray(x, dtype=float).reshape(spec.dims.n)
    traj = simulate_equilibrium(sol, t_idx, x)
    Y = traj.states
    sl = slice(t_idx, N + 1)
    grad = 2.0 * np.einsum("jab,jb->ja", sol.riccati.P[sl], Y) \
        + 2.0 * sol.auxiliary.phi[sl]
    # h(s, x, p) = M^{-1}(s,s) (B^T p / 2 + S(s,s) x + rho(s,s))
    half_bp = 0.5 * np.einsum("jam,ja->jm", tbl.B[sl], grad)
    SxY = np.einsum("jmn,jn->jm", tbl.Sd[sl], Y)
    rhs_h = half_bp + SxY + tbl.rhod[sl]
    L = tbl.Md_chol[sl]
    h_ctrl = np.linalg.solve(
        np.swapaxes(L, -1, -2), np.linalg.solve(L, rhs_h[..., None]))[..., 0]
    H_run = (np.einsum("jm,jm->j", half_bp - SxY - tbl.rhod[sl], h_ctrl)
             + np.einsum("jab,jb,ja->j", tbl.Qd[sl], Y, Y)
             + 2.0 * np.einsum("ja,ja->j", tbl.qd[sl], Y))
    # F(tau, s, Y(s), grad V(s, Y(s))) on the node triangle
    sq = np.s_[..., t_idx:, t_idx:]
    F = (np.einsum("mpij,jp,jm->ij", tbl.Mt[sq], h_ctrl, h_ctrl, optimize=True)
         - 2.0 * np.einsum("mnij,jn,jm->ij", tbl.St[sq], Y, h_ctrl, optimize=True)
         - 2.0 * np.einsum("mij,jm->ij", tbl.rhot[sq], h_ctrl, optimize=True)
         + np.einsum("abij,jb,ja->ij", tbl.Qt[sq], Y, Y, optimize=True)
         + 2.0 * np.einsum("aij,ja->ij", tbl.qt[sq], Y, optimize=True))
    inner = np.einsum("ij,ij->i", F, tbl.W[sq])
    outer = quadrature(H_run - inner, grid, t_idx, N)
    # terminal weights frozen at the start time of the representation
    G_t = np.asarray(spec.terminal.G(t), dtype=float)
    g_t = np.asarray(spec.terminal.g(t), dtype=float).reshape(-1)
    yT = Y[-1]
    rhs = float(outer) + float(yT @ G_t @ yT + 2.0 * g_t @ yT)
    return rhs - value(sol, t, x)


# ---------------------------------------------------------------------------
# uniqueness probe


@dataclass
class UniquenessProbe:
    """Distances between solves started from different initial tables."""

    p_distance: float
    value_distance: float
    iterations: list


def uniqueness_probe(spec: ProblemSpec, grid: TimeGrid, inits,
                     opts: SolveOptions | None = None,
                     value_samples: int = 20, seed: int = 42,
                     tables: SpecTables | None = None) -> UniquenessProbe:
    """Solve from each initial table; report the max pairwise distances.

    Every start runs the damped fixed point, whatever path
    :func:`tilq.policy.solve_equilibrium` would take, because the iteration
    from distinct starts is what the probe measures.  ``tables`` (for
    example a solution's own) saves rebuilding the kernel triangles.  A run
    that fails to converge raises ConvergenceError with that run's
    diagnostics attached.
    """
    if len(inits) < 2:
        raise TilqError("uniqueness probe needs at least two initial tables")
    base = opts or SolveOptions()
    if tables is None:
        tables = SpecTables(spec, grid)
    runs = []
    for init in inits:
        o = SolveOptions(tolerance=base.tolerance,
                         max_iterations=base.max_iterations,
                         damping=base.damping,
                         damping_floor=base.damping_floor, initial=init)
        riccati = solve_equilibrium_riccati(spec, grid, o, tables=tables)
        aux = solve_auxiliary(spec, grid, riccati)
        runs.append(EquilibriumSolution(spec=spec, grid=grid, riccati=riccati,
                                        auxiliary=aux))
    p_dist = 0.0
    for a in range(len(runs)):
        for bidx in range(a + 1, len(runs)):
            p_dist = max(p_dist, float(np.max(np.abs(
                runs[a].riccati.P - runs[bidx].riccati.P))))
    rng = np.random.default_rng(seed)
    v_dist = 0.0
    for _ in range(value_samples):
        t = float(rng.uniform(0.0, grid.T))
        x = rng.uniform(-2.0, 2.0, size=spec.dims.n)
        vals = [value(r, t, x) for r in runs]
        v_dist = max(v_dist, float(np.max(vals) - np.min(vals)))
    return UniquenessProbe(p_distance=p_dist, value_distance=v_dist,
                           iterations=[r.riccati.diagnostics.iterations
                                       for r in runs])


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
    spike_tol: float = 1e-4
    spike_match_rtol: float = 0.01
    bellman_tol: float = 1e-4
    equivalence_rtol: float = 1e-4
    value_match_tol: float = 1e-3
    gradient_rtol: float = 1e-6
    uniqueness_tol: float = 1e-6
    run_uniqueness: bool = True
    hjb_states: int = 4


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
    max_frac = max(DEFAULT_SPIKE_FRACTIONS)
    for _ in range(vopts.spike_points):
        t_idx = int(rng.integers(0, int(grid.N * (1 - 2 * max_frac))))
        x = rng.uniform(-box, box, size=n)
        v = rng.uniform(-box, box, size=m)
        rep = run_spike_check(sol, t_idx, x, v)
        if -rep.extrapolated > worst_neg:
            worst_neg = -rep.extrapolated
            wit_neg = f"t_idx={t_idx}"
        if abs(rep.extrapolated - rep.analytic_reference) > worst_match * max(
                1.0, abs(rep.analytic_reference)):
            worst_match = abs(rep.extrapolated - rep.analytic_reference) / max(
                1.0, abs(rep.analytic_reference))
            wit_match = f"t_idx={t_idx}"
        u_here = feedback(sol, float(grid.nodes[t_idx]), x)
        rep_u = run_spike_check(sol, t_idx, x, u_here)
        if abs(rep_u.extrapolated) > worst_at_u:
            worst_at_u = abs(rep_u.extrapolated)
            wit_u = f"t_idx={t_idx}"
    report.add("spike quotient nonnegative", worst_neg <= vopts.spike_tol,
               vopts.spike_tol, worst_neg, wit_neg)
    report.add("spike limit zero at equilibrium", worst_at_u <= vopts.spike_tol,
               vopts.spike_tol, worst_at_u, wit_u)
    report.add("spike limit matches quadratic gap",
               worst_match <= vopts.spike_match_rtol, vopts.spike_match_rtol,
               worst_match, wit_match)

    # Bellman recursion
    worst_eq, worst_cand = 0.0, 0.0
    wit_eq = wit_cand = ""
    for trial in range(max(1, vopts.bellman_controls // 10)):
        t_idx = int(rng.integers(0, grid.N - 2))
        s_idx = int(rng.integers(t_idx + 1, grid.N))
        x = rng.uniform(-box, box, size=n)
        eq_traj = simulate_equilibrium(sol, t_idx, x)
        res = bellman_residual(sol, t_idx, s_idx, x,
                               eq_traj.controls[: s_idx - t_idx + 1])
        if abs(res) > worst_eq:
            worst_eq, wit_eq = abs(res), f"t_idx={t_idx}; s_idx={s_idx}"
        for cand in random_candidate_controls(sol, t_idx, s_idx, x,
                                              count=10, rng=rng):
            res = bellman_residual(sol, t_idx, s_idx, x, cand)
            if -res > worst_cand:
                worst_cand, wit_cand = -res, f"t_idx={t_idx}; s_idx={s_idx}"
    report.add("recursion equality along equilibrium",
               worst_eq <= vopts.bellman_tol, vopts.bellman_tol, worst_eq, wit_eq)
    report.add("recursion inequality for candidates",
               worst_cand <= vopts.bellman_tol, vopts.bellman_tol, worst_cand,
               wit_cand)

    # pointwise and integral-form residuals
    hjb_tol = _hjb_reference_tol(grid)
    states = rng.uniform(-box, box, size=(vopts.hjb_states, n))
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
    report.add("error-function equivalence", worst_eqv <= vopts.equivalence_rtol,
               vopts.equivalence_rtol, worst_eqv)

    # value representation V = J along the equilibrium
    worst_rep = 0.0
    for _ in range(vopts.value_points):
        t_idx = int(rng.integers(0, grid.N + 1))
        x = rng.uniform(-box, box, size=n)
        V = value(sol, float(grid.nodes[t_idx]), x)
        J = cost(spec, grid, simulate_equilibrium(sol, t_idx, x), t_idx)
        worst_rep = max(worst_rep, abs(V - J) / (1.0 + abs(V)))
    report.add("value equals equilibrium cost", worst_rep <= vopts.value_match_tol,
               vopts.value_match_tol, worst_rep)

    # gradient versus central differences
    worst_grad = 0.0
    for _ in range(vopts.gradient_points):
        t = float(rng.uniform(0.0, grid.T))
        x = rng.uniform(-box, box, size=n)
        g = grad_value_fd_gap(sol, t, x)
        worst_grad = max(worst_grad, g)
    report.add("gradient matches central differences",
               worst_grad <= vopts.gradient_rtol, vopts.gradient_rtol, worst_grad)

    # uniqueness across initializations
    if vopts.run_uniqueness:
        G_T = sol.tables.G_T
        probe = uniqueness_probe(spec, grid, ["zero", G_T, 5.0 * G_T],
                                 seed=vopts.seed, tables=sol.tables)
        report.add("uniqueness across initializations",
                   probe.p_distance <= vopts.uniqueness_tol,
                   vopts.uniqueness_tol, probe.p_distance)
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
