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
Picard iteration: freeze phi, rebuild Upsilon and Sbb, integrate backward
with RK4, repeat.  The nonlocal map is affine in phi, which keeps the
iteration contractive at the scales this library targets; non-convergence
is reported, never masked.

Sbb and omega are blocks of one bordered correction, formed by the anchored
sum that gives Qbb (:func:`tilq.riccati._correction_sum`) in n + 1
dimensions.  With the drive d = b - B Upsilon, the closed loop's one-step
propagators bordered with the affine coordinate are

    Phi_bar_i = [[Phi_i, r_i], [0, 1]],   r_i = h/2 (Phi_i d_i + d_{i+1}),

and their product from t_i to t_j is [[E_cl(t_j, t_i), btilde(t_j, t_i)],
[0, 1]], its btilde column the node trapezoid rule in tau: E_cl(t_j,
t_{k+1}) r_k is the cell h/2 (E_cl(t_j, t_k) d_k + E_cl(t_j, t_{k+1})
d_{k+1}).  Along u = -Gain y - Upsilon the t-derivative of the running cost
is <y_bar, K_bar y_bar> with y_bar = [y; 1] and the bordered closed-loop
costs K_bar = [[K, k], [k^T, kappa]] of :func:`tilq.tables.pair_costs`, and
the terminal term is [[G', g'], [g'^T, 0]].  So the sum run on the bordered
steps and costs gives [[Qbb, Sbb], [Sbb^T, omega]] at every node:

    Sbb   = E_cl(T,t)^T (g'(t) + G'(t) btilde(T,t))
            + int_t^T E_cl(s,t)^T (K btilde + k)(t,s) ds,
    omega = <G'(t) btilde(T,t) + 2 g'(t), btilde(T,t)>
            + int_t^T <btilde, K btilde + 2 k> + kappa ds.

These are the defining integrals: with w(t,s) = Upsilon(s) + Gain(s)
btilde(s,t), Q_t btilde + q_t - S_t^T w + Gain^T (M_t w - S_t btilde -
rho_t) = K btilde + k, and <btilde, Q_t btilde + 2 q_t> + <w, M_t w - 2 S_t
btilde - 2 rho_t> = <btilde, K btilde + 2 k> + kappa, the kernels at (t, s).
:func:`sbb_at` and :func:`omega_at` evaluate the left-hand forms row by
row.  No table over node pairs is formed; :attr:`AuxiliarySolution.btilde`
builds the btilde table when it is read, for those cross-checks.  The
bordered products themselves (:func:`_bordered_anchors`) also give the
equilibrium path, :func:`tilq.policy.simulate_equilibrium`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TilqError
from .grid import (TimeGrid, TransitionTable, _anchored, _Anchors, _border,
                   _interp_half, closed_loop_drive, closed_loop_matrices,
                   from_pair_layout, quadrature)
from .problem import ProblemSpec
from .riccati import (FixedPointDiagnostics, RiccatiSolution, SolveOptions,
                      _correction_sum, _initial_table, damped_fixed_point)
from .tables import SpecTables, cumulative_trapezoid


@dataclass
class PhiSolution:
    """Converged linear coefficient with its dependent tables."""

    phi: np.ndarray       # (N+1, n)
    upsilon: np.ndarray   # (N+1, m)
    sbb: np.ndarray       # (N+1, n)
    diagnostics: FixedPointDiagnostics
    # set by solve_phi: (N+1, n) b - B Upsilon, and (N+1,) omega from the
    # same bordered correction as sbb
    drive: np.ndarray = field(init=False, repr=False, compare=False)
    _omega: np.ndarray = field(init=False, repr=False, compare=False)


@dataclass
class AuxiliarySolution:
    """phi, psi and every nonlocal quantity entering them.

    The btilde pair table is built from ``closed_loop`` and ``drive`` on its
    first use and kept; only the public cross-checks read it.
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


def _btilde_from_drive(cl_pairs: np.ndarray, drive: np.ndarray,
                       grid: TimeGrid) -> np.ndarray:
    """Pair table [a, i, j] = btilde(t_j, t_i)[a], zero where j <= i.

    The trapezoid sum of the module docstring as a recursion over t: each
    row i adds the cell [t_i, t_{i+1}] to row i + 1.
    """
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


def _row_terms(t_idx: int, spec: ProblemSpec, grid: TimeGrid, gain: np.ndarray,
               upsilon: np.ndarray, btilde: np.ndarray) -> tuple:
    """Gain, Upsilon, btilde(., t_i), w, the kernels' t-derivatives, g', G'."""
    t = float(grid.nodes[t_idx])
    s_range = grid.nodes[t_idx:]
    G = np.asarray(gain, dtype=float)[t_idx:]
    U = np.asarray(upsilon, dtype=float)[t_idx:]
    bt = np.asarray(btilde, dtype=float)[t_idx:, t_idx]
    w = U + np.einsum("jmn,jn->jm", G, bt)
    rows = tuple(f.row(t, s_range, derivative=True)
                 for f in (spec.Q, spec.S, spec.M, spec.q, spec.rho))
    gdot = np.asarray(spec.terminal.dg_dt(t), dtype=float).reshape(-1)
    Gdot = np.asarray(spec.terminal.dG_dt(t), dtype=float)
    return (G, U, bt, w) + rows + (gdot, Gdot)


def sbb_at(t_idx: int, spec: ProblemSpec, grid: TimeGrid,
           closed_loop: TransitionTable, gain: np.ndarray,
           upsilon: np.ndarray, btilde: np.ndarray) -> np.ndarray:
    """Nonlocal drift correction Sbb(t_i) by direct node quadrature.

    All five bracketed terms of the defining integral are assembled from the
    supplied ingredient tables; independent of the batched solver path.
    """
    N = grid.N
    G, U, bt, w, Qt, St, Mt, qt, rhot, gdot, Gdot = _row_terms(
        t_idx, spec, grid, gain, upsilon, btilde)
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
    return EN.T @ (gdot + Gdot @ bt[-1]) + integ


def omega_at(t_idx: int, spec: ProblemSpec, grid: TimeGrid,
             gain: np.ndarray, upsilon: np.ndarray,
             btilde: np.ndarray) -> float:
    """Scalar correction omega(t_i) by direct node quadrature."""
    N = grid.N
    G, U, bt, w, Qt, St, Mt, qt, rhot, gdot, Gdot = _row_terms(
        t_idx, spec, grid, gain, upsilon, btilde)
    quad_term = np.einsum("jac,jc,ja->j", Qt, bt, bt)
    cross = qt - np.einsum("jma,jmn,jn->ja", G, St, bt) \
        - np.einsum("jmn,jm->jn", St, U)
    lin_term = 2.0 * np.einsum("ja,ja->j", cross, bt)
    ctl_term = (np.einsum("jmp,jp,jm->j", Mt, w, w)
                - 2.0 * np.einsum("jm,jm->j", rhot, w))
    integ = float(quadrature(quad_term + lin_term + ctl_term, grid, t_idx, N))
    bT = bt[-1]
    return float(np.dot(Gdot @ bT + 2.0 * gdot, bT)) + integ


# ---------------------------------------------------------------------------
# batched tables used by the Picard iteration


def _upsilon_table(phi: np.ndarray, tables: SpecTables) -> np.ndarray:
    rhs = np.einsum("inm,in->im", tables.B, phi) + tables.rhod
    return tables.solve_md(rhs)


def _trapezoid_increments(steps: np.ndarray, drive: np.ndarray,
                          h: float) -> np.ndarray:
    """r_i = h/2 (Phi_i d_i + d_{i+1}): cell [t_i, t_{i+1}] of btilde's sum."""
    return 0.5 * h * (np.einsum("iab,ib->ia", steps, drive[:-1]) + drive[1:])


def _bordered_anchors(steps: np.ndarray, increments: np.ndarray) -> _Anchors:
    """Anchored products of the bordered steps [[steps_i, increments_i], [0, 1]].

    With the closed loop's one-step propagators and its zero-state response
    over each step, the product from t_i to t_j is [[E_cl(t_j, t_i),
    btilde(t_j, t_i)], [0, 1]].  The segments are cut in the coordinates
    [y; c], where the steps are [[steps_i, increments_i / c], [0, 1]], with
    c a power of two above 64 sum |increments|: the increments then add at
    most about 1/32 to the log of the condition bound over the whole grid
    (the limit is log ANCHOR_COND = 4.6), so a large drive cuts no more
    segments than the closed loop.  Each product in those coordinates is the
    unscaled one with its affine column divided by c, exactly since c is a
    power of two, so multiplying that column by c undoes the scale exactly.
    """
    c = 2.0 ** max(math.frexp(64.0 * float(np.abs(increments).sum()))[1], 0)
    anchors = _anchored(_border(steps, increments / c, 0.0, 1.0))
    if c != 1.0:
        for products in (anchors.psi, anchors.inv, anchors.links):
            products[..., :-1, -1] *= c
    return anchors


def _correction(gain, upsilon, steps, increments,
                tables: SpecTables) -> np.ndarray:
    """[[Qbb, Sbb], [Sbb^T, omega]] at every node, by the bordered sum."""
    return _correction_sum(_bordered_anchors(steps, increments), gain, tables,
                           upsilon)


def _sbb_table(correction: np.ndarray) -> np.ndarray:
    """Sbb at every node: the last column of the bordered correction."""
    return correction[:, :-1, -1]


def _omega_table(correction: np.ndarray) -> np.ndarray:
    """omega at every node: the corner of the bordered correction."""
    return correction[:, -1, -1]


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


def _psi_rate(phi, upsilon, omega, tables: SpecTables) -> np.ndarray:
    """psi' = omega - 2 <phi, b - B Upsilon> - <M Upsilon - 2 rho, Upsilon>."""
    drive = closed_loop_drive(tables.b, tables.B, upsilon)
    mu = np.einsum("im,im->i",
                   np.einsum("iab,ib->ia", tables.Md, upsilon) - 2.0 * tables.rhod,
                   upsilon)
    return omega - 2.0 * np.einsum("ia,ia->i", phi, drive) - mu


def solve_phi(spec: ProblemSpec, grid: TimeGrid, riccati: RiccatiSolution,
              opts: SolveOptions | None = None) -> PhiSolution:
    """Picard iteration for the linear value-function coefficient.

    Each pass freezes phi, rebuilds Upsilon and Sbb from it, then
    integrates the backward equation with RK4 from phi(T) = g(T).  The
    returned tables are the ones rebuilt from the converged phi, so they are
    mutually consistent.
    """
    opts = opts or SolveOptions()
    tables = riccati.tables
    if tables.grid.N != grid.N or tables.grid.T != grid.T:
        raise TilqError("riccati solution was computed on a different grid")
    steps = riccati.closed_loop.steps
    gain = riccati.gain
    h = grid.h

    D_nodes, D_half = (np.swapaxes(F, -1, -2) for F in closed_loop_matrices(
        tables.A, tables.A_half, tables.B, tables.B_half, gain))
    Pb = np.einsum("iab,ib->ia", riccati.P, tables.b)
    Pb_half = np.einsum("iab,ib->ia", _interp_half(riccati.P), tables.b_half)
    g_rho = np.einsum("ima,im->ia", gain, tables.rhod)
    g_rho_half = np.einsum("ima,im->ia", _interp_half(gain), tables.rhod_half)

    def correction(phi):
        ups = _upsilon_table(phi, tables)
        drive = closed_loop_drive(tables.b, tables.B, ups)
        return ups, drive, _correction(
            gain, ups, steps, _trapezoid_increments(steps, drive, h), tables)

    def sweep(phi):
        sbb = _sbb_table(correction(phi)[2])
        c_nodes = -sbb + Pb + tables.qd - g_rho
        c_half = -_interp_half(sbb) + Pb_half + tables.qd_half - g_rho_half
        return _affine_backward_rk4(D_nodes, D_half, c_nodes, c_half,
                                    tables.g_T, h)

    phi0 = _initial_table(opts.initial, tables.g_T, grid.N, "phi")
    phi, diag = damped_fixed_point(phi0, sweep, opts, "affine coefficient")

    ups, drive, corr = correction(phi)
    phi_sol = PhiSolution(phi=phi, upsilon=ups, sbb=_sbb_table(corr),
                          diagnostics=diag)
    phi_sol.drive = drive
    phi_sol._omega = _omega_table(corr)
    return phi_sol


def solve_psi(spec: ProblemSpec, grid: TimeGrid, riccati: RiccatiSolution,
              phi_sol: PhiSolution) -> tuple[np.ndarray, np.ndarray]:
    """Scalar coefficient by suffix quadrature; psi(T) = 0 exactly.

    Returns (psi, omega) on the nodes.
    """
    omega = phi_sol._omega
    rate = _psi_rate(phi_sol.phi, phi_sol.upsilon, omega, riccati.tables)
    running = cumulative_trapezoid(-rate, grid.h)
    psi = running[-1] - running
    return psi, omega


def solve_auxiliary(spec: ProblemSpec, grid: TimeGrid, riccati: RiccatiSolution,
                    opts: SolveOptions | None = None) -> AuxiliarySolution:
    """phi then psi, with all dependent tables mutually consistent."""
    phi_sol = solve_phi(spec, grid, riccati, opts)
    psi, omega = solve_psi(spec, grid, riccati, phi_sol)
    return AuxiliarySolution(
        phi=phi_sol.phi, psi=psi, upsilon=phi_sol.upsilon, sbb=phi_sol.sbb,
        omega=omega, diagnostics=phi_sol.diagnostics,
        closed_loop=riccati.closed_loop, drive=phi_sol.drive)
