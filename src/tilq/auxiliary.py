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
costs K_bar = [[K, k], [k^T, kappa]] of :func:`tilq.tables.cost_terms`, and
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
No table over node pairs is formed.  The bordered products themselves
(:func:`_bordered_anchors`) also give the equilibrium path,
:func:`tilq.policy.simulate_equilibrium`.

Bordering by a running sum.  The bordered steps are never anchored by a
scan of their own: the closed loop's anchors, kept with the Riccati
solution, are bordered per drive.  On a segment that starts at t_a,
gamma_a = 0 and gamma_{j+1} = gamma_j + psi_{j+1}^{-1} r_j give the product
[[psi_j, psi_j gamma_j], [0, 1]] from t_a to t_j, so the segments are the
closed loop's however large the drive, and nothing is rescaled.

The anchored affine scan.  With D = (A - B Gain)^T, RK4's backward
one-step map of phi's equation, x_i = T_i x_{i+1} + r_i, has T_i = Phi_i^T
term by term, Phi_i the closed loop's forward step, and r_i is the drive
increment (:func:`tilq.grid._rk4_drive_increments`) of dx/dtau = D x + c
in reversed time.  So a Picard pass forms only the offsets r_i and runs the
recursion on the closed loop's anchors, the ones its Sbb is summed over
(:func:`_affine_backward_rk4`); phi's solve anchors nothing of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TilqError
from .grid import (TimeGrid, _Anchors, _border, _matvec, _rk4_drive_increments,
                   closed_loop_drive, closed_loop_matrices, stage_table)
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
    drive: np.ndarray     # (N+1, n), b - B Upsilon
    omega: np.ndarray     # (N+1,), from the same bordered correction as sbb


@dataclass
class AuxiliarySolution:
    """phi, psi and every nonlocal quantity entering them."""

    phi: np.ndarray
    psi: np.ndarray       # (N+1,)
    upsilon: np.ndarray
    sbb: np.ndarray
    omega: np.ndarray     # (N+1,)
    diagnostics: FixedPointDiagnostics
    drive: np.ndarray = field(repr=False)  # (N+1, n), b - B Upsilon

    @property
    def converged(self) -> bool:
        return self.diagnostics.converged


# Not called by the solvers; perfbench/spans.py wraps it.
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


# ---------------------------------------------------------------------------
# batched tables used by the Picard iteration


def _upsilon_table(phi: np.ndarray, tables: SpecTables) -> np.ndarray:
    rhs = np.einsum("inm,in->im", tables.B, phi) + tables.rhod
    return tables.solve_md(rhs)


def _trapezoid_increments(steps: np.ndarray, drive: np.ndarray,
                          h: float) -> np.ndarray:
    """r_i = h/2 (Phi_i d_i + d_{i+1}): cell [t_i, t_{i+1}] of btilde's sum."""
    return 0.5 * h * (np.einsum("iab,ib->ia", steps, drive[:-1]) + drive[1:])


def _running_offsets(anchors: _Anchors, increments: np.ndarray) -> np.ndarray:
    """gamma_j = sum_{a <= k < j} psi_{k+1}^{-1} r_k, a the start of j's segment.

    For the affine steps x_{k+1} = Phi_k x_k + r_k over the anchors of the
    Phi_k, x_j = psi_j (x_a + gamma_j) on each segment; gamma_a = 0.
    """
    terms = _matvec(anchors.inv[1:], increments)
    gamma = np.zeros((len(terms) + 1, terms.shape[-1]))
    starts = anchors.starts.tolist()
    for a, b in zip(starts[:-1], starts[1:]):
        if b - a > 1:
            np.cumsum(terms[a:b - 1], axis=0, out=gamma[a + 1:b])
    return gamma


def _bordered_anchors(anchors: _Anchors, increments: np.ndarray) -> _Anchors:
    """Anchors of the bordered steps [[Phi_i, r_i], [0, 1]] from those of the Phi_i.

    On a segment that starts at a, the bordered product from t_a to t_j is
    [[psi_j, psi_j gamma_j], [0, 1]] with the running sum gamma of
    :func:`_running_offsets`, its inverse is [[psi_j^{-1}, -gamma_j], [0,
    1]], and the link out of a segment that ends before b is [[L_k, L_k
    gamma_{b-1} + r_{b-1}], [0, 1]].  For the closed loop and the cells of
    btilde's sum the product from t_i to t_j is [[E_cl(t_j, t_i),
    btilde(t_j, t_i)], [0, 1]].  The segments are the closed loop's, however
    large the drive.
    """
    gamma = _running_offsets(anchors, increments)
    last = anchors.starts[1:] - 1
    drift = _matvec(anchors.links, gamma[last]) + increments[last]
    return _Anchors(starts=anchors.starts,
                    psi=_border(anchors.psi, _matvec(anchors.psi, gamma), 0.0, 1.0),
                    inv=_border(anchors.inv, -gamma, 0.0, 1.0),
                    links=_border(anchors.links, drift, 0.0, 1.0))


def _correction(gain, upsilon, anchors: _Anchors, increments,
                tables: SpecTables) -> np.ndarray:
    """[[Qbb, Sbb], [Sbb^T, omega]] at every node, by the bordered sum.

    ``anchors`` are the closed loop's, ``increments`` its drive's cells.
    """
    return _correction_sum(_bordered_anchors(anchors, increments), gain, tables,
                           upsilon)


def _sbb_table(correction: np.ndarray) -> np.ndarray:
    """Sbb at every node: the last column of the bordered correction."""
    return correction[:, :-1, -1]


def _omega_table(correction: np.ndarray) -> np.ndarray:
    """omega at every node: the corner of the bordered correction."""
    return correction[:, -1, -1]


def _affine_backward_rk4(anchors: _Anchors, D, c, terminal, h):
    """Integrate x' = -D(t) x - c(t) backward from x(T) = terminal, D = A_cl^T.

    D and c are stage tables.  RK4's backward one-step map is then x_i =
    Phi_i^T x_{i+1} + r_i, Phi_i the closed loop's RK4 step, so on segment
    k = [t_a, t_b) of ``anchors``

        psi_i^T x_i = L_k^T x_b + sum_{j=i}^{b-1} psi_j^T r_j,

    one reversed running sum per segment, the vector twin of
    :func:`tilq.riccati._open_loop_integral`.  x(T) is ``terminal`` exactly.
    """
    rvec = _rk4_drive_increments(D[::-1], c[::-1], h)[::-1]
    terms = _matvec(np.swapaxes(anchors.psi[:-1], -1, -2), rvec)
    starts = anchors.starts.tolist()
    out = np.empty((len(terms) + 1, terms.shape[-1]))
    out[-1] = terminal
    for k in range(len(anchors.links) - 1, -1, -1):
        a, b = starts[k], starts[k + 1]
        tail = np.cumsum(terms[a:b][::-1], axis=0)[::-1]
        out[a:b] = anchors.links[k].T @ out[b] + tail
    out[:-1] = _matvec(np.swapaxes(anchors.inv[:-1], -1, -2), out[:-1])
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
    steps = riccati.closed_loop
    gain = riccati.gain
    h = grid.h

    anchors = riccati.closed_loop_anchors
    D = np.swapaxes(closed_loop_matrices(tables.stages("A"), tables.stages("B"),
                                         gain), -1, -2)
    Pb = np.einsum("iab,ib->ia", stage_table(riccati.P), tables.stages("b"))
    g_rho = np.einsum("ima,im->ia", stage_table(gain), tables.stages("rhod"))

    def correction(phi):
        ups = _upsilon_table(phi, tables)
        drive = closed_loop_drive(tables.b, tables.B, ups)
        return ups, drive, _correction(
            gain, ups, anchors, _trapezoid_increments(steps, drive, h), tables)

    def sweep(phi):
        c = (-stage_table(_sbb_table(correction(phi)[2])) + Pb
             + tables.stages("qd") - g_rho)
        return _affine_backward_rk4(anchors, D, c, tables.g_T, h)

    phi0 = _initial_table(opts.initial, tables.g_T, grid.N, "phi")
    phi, diag = damped_fixed_point(phi0, sweep, opts, "affine coefficient")

    ups, drive, corr = correction(phi)
    return PhiSolution(phi=phi, upsilon=ups, sbb=_sbb_table(corr),
                       diagnostics=diag, drive=drive, omega=_omega_table(corr))


def solve_psi(spec: ProblemSpec, grid: TimeGrid, riccati: RiccatiSolution,
              phi_sol: PhiSolution) -> tuple[np.ndarray, np.ndarray]:
    """Scalar coefficient by suffix quadrature; psi(T) = 0 exactly.

    Returns (psi, omega) on the nodes.
    """
    omega = phi_sol.omega
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
        omega=omega, diagnostics=phi_sol.diagnostics, drive=phi_sol.drive)
