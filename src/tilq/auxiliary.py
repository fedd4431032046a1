"""Affine and scalar terms of the equilibrium value function.

Given a converged Riccati solution, the linear coefficient phi solves the
backward equation

    phi' + (A - B Gain)^T phi - Sbb(t) + P b + q(t,t) - Gain^T rho(t,t) = 0,
    phi(T) = g(T),

and the scalar term psi integrates

    psi' + 2 <phi, b - B Upsilon> - omega(t) + <M(t,t) Upsilon - 2 rho(t,t),
    Upsilon> = 0,  psi(T) = 0,

where Upsilon(t) = M(t,t)^{-1} (B^T(t) phi(t) + rho(t,t)) is the affine part
of the feedback law, btilde(s,t) is the zero-state closed-loop response

    btilde(s,t) = int_t^s E_cl(s,tau) (b - B Upsilon)(tau) dtau,

and Sbb, omega aggregate the kernel time-derivatives along that response.
Although the phi equation looks like a plain linear ODE, Sbb(t) depends on
phi over all of [t, T] through Upsilon and btilde, so it is solved here by
Picard iteration: freeze phi, rebuild Upsilon/btilde/Sbb, integrate backward
with RK4, repeat.  The nonlocal map is affine in phi, which keeps the
iteration contractive at the scales this library targets; non-convergence
is reported, never masked.

btilde is tabulated by the node trapezoid rule in tau, which runs as a
recursion over the start time t:

    btilde(s, s) = 0,
    btilde(s, t_i) = btilde(s, t_{i+1})
                     + h/2 (E_cl(s, t_i) d_i + E_cl(s, t_{i+1}) d_{i+1}),

with the drive d = b - B Upsilon.  Each step adds the one trapezoid cell
[t_i, t_{i+1}] that the sum over [t_i, s] has and the sum over [t_{i+1}, s]
lacks, so the recursion is that sum term for term (only the order of
additions differs).  The table is held in the pair layout of
:mod:`tilq.tables`, where the recursion runs down the rows.  Sbb and omega
are W-weighted row sums over the same layout, from the identities

    vec   = Q_t btilde + q_t - S_t^T w
            + Gain^T (M_t w - S_t btilde - rho_t),
    Sbb   = E_cl(T,t)^T (g'(t) + G'(t) btilde(T,t))
            + int_t^T E_cl(s,t)^T vec(t,s) ds,
    omega = <G'(t) btilde(T,t) + 2 g'(t), btilde(T,t)>
            + int_t^T <btilde, Q_t btilde + 2 q_t>
                      + <w, M_t w - 2 S_t btilde - 2 rho_t> ds,

where w(t,s) = Upsilon(s) + Gain(s) btilde(s,t) and the kernels are taken
at (t, s).  Both expand to the defining integrands that :func:`sbb_at` and
:func:`omega_at` evaluate row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import AssumptionError, TilqError
from .grid import (TimeGrid, TransitionTable, from_pair_layout, quadrature,
                   to_pair_layout)
from .problem import ProblemSpec
from .riccati import (FixedPointDiagnostics, RiccatiSolution, SolveOptions,
                      _initial_table, damped_fixed_point)
from .tables import SpecTables, cumulative_trapezoid, pair_blocks


@dataclass
class PhiSolution:
    """Converged linear coefficient with its dependent tables."""

    phi: np.ndarray       # (N+1, n)
    upsilon: np.ndarray   # (N+1, m)
    btilde: np.ndarray    # (N+1, N+1, n), [s_idx, t_idx], zero for s < t;
                          # a view of the pair-layout table
    sbb: np.ndarray       # (N+1, n)
    diagnostics: FixedPointDiagnostics


@dataclass
class AuxiliarySolution:
    """phi, psi and every nonlocal quantity entering them.

    The btilde pair table is built from ``closed_loop`` and ``drive`` on its
    first use and kept.
    """

    phi: np.ndarray
    psi: np.ndarray       # (N+1,)
    upsilon: np.ndarray
    sbb: np.ndarray
    omega: np.ndarray     # (N+1,)
    diagnostics: FixedPointDiagnostics
    closed_loop: TransitionTable = field(repr=False)
    drive: np.ndarray = field(repr=False)  # (N+1, n), b - B Upsilon
    _btilde: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def converged(self) -> bool:
        return self.diagnostics.converged

    @property
    def btilde(self) -> np.ndarray:
        """(N+1, N+1, n) [s_idx, t_idx]: a view of the pair-layout table."""
        if self._btilde is None:
            cl = self.closed_loop
            self._btilde = from_pair_layout(
                _btilde_from_drive(cl.pair_table(), self.drive, cl.grid))
        return self._btilde


# ---------------------------------------------------------------------------
# public single-point / single-table operations


def upsilon_from_phi(phi: np.ndarray, spec: ProblemSpec, t: float) -> np.ndarray:
    """Affine feedback component M(t,t)^{-1} (B^T(t) phi + rho(t,t))."""
    phi = np.asarray(phi, dtype=float)
    M = np.asarray(spec.M(t, t), dtype=float)
    rhs = np.asarray(spec.dynamics.B(t), dtype=float).T @ phi + np.asarray(
        spec.rho(t, t), dtype=float)
    try:
        factor = cho_factor(0.5 * (M + M.T), lower=True)
    except np.linalg.LinAlgError as exc:
        raise AssumptionError(
            f"M(t,t) is not positive definite at t={t:.6g}") from exc
    return cho_solve(factor, rhs)


def btilde_table(closed_loop: TransitionTable, upsilon: np.ndarray,
                 dynamics, grid: TimeGrid) -> np.ndarray:
    """Zero-state responses btilde(s, t) for every node pair t <= s.

    Entry [j, i] holds btilde(t_j, t_i); the strict lower region s < t is
    zero, as is the whole diagonal btilde(t, t) = 0.  The result is a view
    of the pair-layout table.
    """
    from .grid import _eval_dynamics

    upsilon = np.asarray(upsilon, dtype=float)
    n = closed_loop.dim
    m = upsilon.shape[1]
    b_nodes = _eval_dynamics(dynamics.b, grid.nodes, (n,))
    B_nodes = _eval_dynamics(dynamics.B, grid.nodes, (n, m))
    drive = b_nodes - np.einsum("tab,tb->ta", B_nodes, upsilon)
    return from_pair_layout(
        _btilde_from_drive(closed_loop.pair_table(), drive, grid))


def _btilde_from_drive(cl_pairs: np.ndarray, drive: np.ndarray,
                       grid: TimeGrid) -> np.ndarray:
    """Pair table [a, i, j] = btilde(t_j, t_i)[a] by the recursion over t."""
    N = grid.N
    bt = np.einsum("abij,ib->aij", cl_pairs, drive)  # E_cl(t_j, t_i) d_i
    for i in range(N):
        # cell sums E(t_j, t_i) d_i + E(t_j, t_{i+1}) d_{i+1}; row i+1 is untouched
        bt[:, i, i + 1:] += bt[:, i + 1, i + 1:]
    bt *= 0.5 * grid.h
    diag = np.arange(N + 1)
    bt[:, diag, diag] = 0.0  # btilde(t, t) = 0
    for i in range(N - 2, -1, -1):
        bt[:, i, i + 1:] += bt[:, i + 1, i + 1:]
    return bt


def sbb_at(t_idx: int, spec: ProblemSpec, grid: TimeGrid,
           closed_loop: TransitionTable, gain: np.ndarray,
           upsilon: np.ndarray, btilde: np.ndarray) -> np.ndarray:
    """Nonlocal drift correction Sbb(t_i) by direct node quadrature.

    All five bracketed terms of the defining integral are assembled from the
    supplied ingredient tables; independent of the batched solver path.
    """
    N = grid.N
    t = float(grid.nodes[t_idx])
    s_range = grid.nodes[t_idx:]
    G = np.asarray(gain, dtype=float)[t_idx:]
    U = np.asarray(upsilon, dtype=float)[t_idx:]
    bt = np.asarray(btilde, dtype=float)[t_idx:, t_idx]
    Qt = spec.Q.row(t, s_range, derivative=True)
    St = spec.S.row(t, s_range, derivative=True)
    Mt = spec.M.row(t, s_range, derivative=True)
    qt = spec.q.row(t, s_range, derivative=True)
    rhot = spec.rho.row(t, s_range, derivative=True)
    w = U + np.einsum("jmn,jn->jm", G, bt)
    vec = (np.einsum("jab,jb->ja", Qt, bt)
           - np.einsum("jma,jmn,jn->ja", G, St, bt)
           - np.einsum("jmn,jm->jn", St, np.einsum("jmn,jn->jm", G, bt))
           + qt
           - np.einsum("jmn,jm->jn", St, U)
           + np.einsum("jma,jmp,jp->ja", G, Mt, w)
           - np.einsum("jma,jm->ja", G, rhot))
    prop = np.asarray([closed_loop.matrix(j, t_idx) for j in range(t_idx, N + 1)])
    integ = quadrature(np.einsum("jba,jb->ja", prop, vec), grid, t_idx, N)
    EN = closed_loop.matrix(N, t_idx)
    gdot = np.asarray(spec.terminal.dg_dt(t), dtype=float).reshape(-1)
    Gdot = np.asarray(spec.terminal.dG_dt(t), dtype=float)
    return EN.T @ (gdot + Gdot @ bt[-1]) + integ


def omega_at(t_idx: int, spec: ProblemSpec, grid: TimeGrid,
             gain: np.ndarray, upsilon: np.ndarray,
             btilde: np.ndarray) -> float:
    """Scalar correction omega(t_i) by direct node quadrature."""
    N = grid.N
    t = float(grid.nodes[t_idx])
    s_range = grid.nodes[t_idx:]
    G = np.asarray(gain, dtype=float)[t_idx:]
    U = np.asarray(upsilon, dtype=float)[t_idx:]
    bt = np.asarray(btilde, dtype=float)[t_idx:, t_idx]
    Qt = spec.Q.row(t, s_range, derivative=True)
    St = spec.S.row(t, s_range, derivative=True)
    Mt = spec.M.row(t, s_range, derivative=True)
    qt = spec.q.row(t, s_range, derivative=True)
    rhot = spec.rho.row(t, s_range, derivative=True)
    w = U + np.einsum("jmn,jn->jm", G, bt)
    quad_term = np.einsum("jac,jc,ja->j", Qt, bt, bt)
    cross = qt - np.einsum("jma,jmn,jn->ja", G, St, bt) \
        - np.einsum("jmn,jm->jn", St, U)
    lin_term = 2.0 * np.einsum("ja,ja->j", cross, bt)
    ctl_term = (np.einsum("jmp,jp,jm->j", Mt, w, w)
                - 2.0 * np.einsum("jm,jm->j", rhot, w))
    integ = float(quadrature(quad_term + lin_term + ctl_term, grid, t_idx, N))
    gdot = np.asarray(spec.terminal.dg_dt(t), dtype=float).reshape(-1)
    Gdot = np.asarray(spec.terminal.dG_dt(t), dtype=float)
    bT = bt[-1]
    return float(np.dot(Gdot @ bT + 2.0 * gdot, bT)) + integ


# ---------------------------------------------------------------------------
# batched tables used by the Picard iteration


def _upsilon_table(phi: np.ndarray, tables: SpecTables) -> np.ndarray:
    rhs = np.einsum("inm,in->im", tables.B, phi) + tables.rhod
    return tables.solve_md(rhs)


def _sbb_table(gain, upsilon, bt, cl_pairs, tables: SpecTables) -> np.ndarray:
    """Sbb at every node from the btilde and closed-loop pair tables."""
    N, n = tables.grid.N, tables.n
    g = np.ascontiguousarray(np.moveaxis(gain, 0, -1))  # Gain(t_j) on column j
    u = upsilon.T
    out = np.empty((N + 1, n))
    for rows, cols in pair_blocks(N + 1, n * n):
        blk = (Ellipsis, rows, cols)
        gb, b = g[..., cols], bt[blk]
        w = np.einsum("paj,aij->pij", gb, b)
        w += u[:, None, cols]
        r = np.einsum("pqij,qij->pij", tables.Mt[blk], w)
        r -= np.einsum("pbij,bij->pij", tables.St[blk], b)
        r -= tables.rhot[blk]
        vec = np.einsum("abij,bij->aij", tables.Qt[blk], b)
        vec += tables.qt[blk]
        vec -= np.einsum("paij,pij->aij", tables.St[blk], w)
        vec += np.einsum("paj,pij->aij", gb, r)
        vec *= tables.W[blk]
        out[rows] = np.einsum("acij,aij->ic", cl_pairs[blk], vec)
    btN = bt[..., N]  # btilde(T, t_i) along i
    out += np.einsum("aci,ia->ic", cl_pairs[..., N],
                     tables.gdot + np.einsum("iab,bi->ia", tables.Gdot, btN))
    return out


def _omega_table(gain, upsilon, bt, tables: SpecTables) -> np.ndarray:
    """omega at every node from the btilde pair table."""
    N, n = tables.grid.N, tables.n
    g = np.ascontiguousarray(np.moveaxis(gain, 0, -1))
    u = upsilon.T
    out = np.empty(N + 1)
    for rows, cols in pair_blocks(N + 1, n * n):
        blk = (Ellipsis, rows, cols)
        gb, b = g[..., cols], bt[blk]
        w = np.einsum("paj,aij->pij", gb, b)
        w += u[:, None, cols]
        acc = np.einsum("abij,bij->aij", tables.Qt[blk], b)
        acc += 2.0 * tables.qt[blk]
        term = np.einsum("aij,aij->ij", b, acc)
        ctl = np.einsum("pbij,bij->pij", tables.St[blk], b)
        ctl += tables.rhot[blk]
        ctl *= -2.0
        ctl += np.einsum("pqij,qij->pij", tables.Mt[blk], w)
        term += np.einsum("pij,pij->ij", w, ctl)
        term *= tables.W[blk]
        out[rows] = term.sum(axis=-1)
    btN = bt[..., N]
    out += np.einsum("ia,ai->i",
                     np.einsum("iab,bi->ia", tables.Gdot, btN) + 2.0 * tables.gdot,
                     btN)
    return out


def _affine_backward_rk4(D_nodes, D_half, c_nodes, c_half, terminal, h):
    """Integrate x' = -D(t) x - c(t) backward from x(T) = terminal.

    The one-step map of an affine system is affine, so the per-step matrices
    and offsets are built in one batch and the time loop is two small
    operations per step.
    """
    N, n = D_half.shape[0], D_half.shape[-1]
    eye = np.eye(n)
    K1 = -D_nodes[1:]
    k1r = -c_nodes[1:]
    K2 = -D_half @ (eye - 0.5 * h * K1)
    k2r = 0.5 * h * np.einsum("iab,ib->ia", D_half, k1r) - c_half
    K3 = -D_half @ (eye - 0.5 * h * K2)
    k3r = 0.5 * h * np.einsum("iab,ib->ia", D_half, k2r) - c_half
    K4 = -D_nodes[:-1] @ (eye - h * K3)
    k4r = h * np.einsum("iab,ib->ia", D_nodes[:-1], k3r) - c_nodes[:-1]
    Tmat = eye - (h / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)
    rvec = -(h / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)
    out = np.empty((N + 1, n))
    out[N] = terminal
    for i in range(N - 1, -1, -1):
        out[i] = Tmat[i] @ out[i + 1] + rvec[i]
    return out


def _interp_half(table: np.ndarray) -> np.ndarray:
    return 0.5 * (table[:-1] + table[1:])


def solve_phi(spec: ProblemSpec, grid: TimeGrid, riccati: RiccatiSolution,
              opts: SolveOptions | None = None) -> PhiSolution:
    """Picard iteration for the linear value-function coefficient.

    Each pass freezes phi, rebuilds Upsilon, btilde and Sbb from it, then
    integrates the backward equation with RK4 from phi(T) = g(T).  The
    returned tables are the ones rebuilt from the converged phi, so they are
    mutually consistent.
    """
    opts = opts or SolveOptions()
    tables = riccati.tables
    if tables.grid.N != grid.N or tables.grid.T != grid.T:
        raise TilqError("riccati solution was computed on a different grid")
    cl_pairs = riccati.closed_loop.pair_table()
    gain = riccati.gain
    h = grid.h

    D_nodes = np.swapaxes(tables.A - tables.B @ gain, -1, -2)
    D_half = np.swapaxes(tables.A_half - tables.B_half @ _interp_half(gain), -1, -2)
    Pb = np.einsum("iab,ib->ia", riccati.P, tables.b)
    Pb_half = np.einsum("iab,ib->ia", _interp_half(riccati.P), tables.b_half)
    g_rho = np.einsum("ima,im->ia", gain, tables.rhod)
    g_rho_half = np.einsum("ima,im->ia", _interp_half(gain), tables.rhod_half)

    def sweep(phi):
        ups = _upsilon_table(phi, tables)
        drive = tables.b - np.einsum("tab,tb->ta", tables.B, ups)
        bt = _btilde_from_drive(cl_pairs, drive, grid)
        sbb = _sbb_table(gain, ups, bt, cl_pairs, tables)
        c_nodes = -sbb + Pb + tables.qd - g_rho
        c_half = -_interp_half(sbb) + Pb_half + tables.qd_half - g_rho_half
        return _affine_backward_rk4(D_nodes, D_half, c_nodes, c_half,
                                    tables.g_T, h)

    phi0 = _initial_table(opts.initial, tables.g_T, grid.N, "phi")
    phi, diag = damped_fixed_point(phi0, sweep, opts, "affine coefficient")

    ups = _upsilon_table(phi, tables)
    drive = tables.b - np.einsum("tab,tb->ta", tables.B, ups)
    bt = _btilde_from_drive(cl_pairs, drive, grid)
    sbb = _sbb_table(gain, ups, bt, cl_pairs, tables)
    return PhiSolution(phi=phi, upsilon=ups, btilde=from_pair_layout(bt),
                       sbb=sbb, diagnostics=diag)


def solve_psi(spec: ProblemSpec, grid: TimeGrid, riccati: RiccatiSolution,
              phi_sol: PhiSolution) -> tuple[np.ndarray, np.ndarray]:
    """Scalar coefficient by suffix quadrature; psi(T) = 0 exactly.

    Returns (psi, omega) on the nodes.
    """
    tables = riccati.tables
    omega = _omega_table(riccati.gain, phi_sol.upsilon,
                         to_pair_layout(phi_sol.btilde), tables)
    drive = tables.b - np.einsum("tab,tb->ta", tables.B, phi_sol.upsilon)
    mu = np.einsum("im,im->i",
                   np.einsum("iab,ib->ia", tables.Md, phi_sol.upsilon)
                   - 2.0 * tables.rhod, phi_sol.upsilon)
    integrand = 2.0 * np.einsum("ia,ia->i", phi_sol.phi, drive) - omega + mu
    running = cumulative_trapezoid(integrand, grid.h, axis=0)
    psi = running[-1] - running
    return psi, omega


def solve_auxiliary(spec: ProblemSpec, grid: TimeGrid, riccati: RiccatiSolution,
                    opts: SolveOptions | None = None) -> AuxiliarySolution:
    """phi then psi, with all dependent tables mutually consistent."""
    phi_sol = solve_phi(spec, grid, riccati, opts)
    psi, omega = solve_psi(spec, grid, riccati, phi_sol)
    tables = riccati.tables
    aux = AuxiliarySolution(
        phi=phi_sol.phi, psi=psi, upsilon=phi_sol.upsilon, sbb=phi_sol.sbb,
        omega=omega, diagnostics=phi_sol.diagnostics,
        closed_loop=riccati.closed_loop,
        drive=tables.b - np.einsum("tab,tb->ta", tables.B, phi_sol.upsilon))
    aux._btilde = phi_sol.btilde
    return aux
