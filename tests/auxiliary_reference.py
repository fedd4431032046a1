"""Reference implementation of the nonlocal terms of the affine solve.

This is the form the package used before Sbb and omega moved to the
bordered anchored sum: btilde is tabulated over node pairs by the
trapezoid recursion of ``tilq.auxiliary._btilde_from_drive``, and Sbb and
omega are weighted row sums of the closed-loop pair table, the btilde pair
table and the closed-loop costs K, k, kappa over node pairs,

    Sbb   = E_cl(T,t)^T (g' + G' btilde(T,t))
            + int_t^T E_cl(s,t)^T (K btilde + k) ds,
    omega = <G' btilde(T,t) + 2 g', btilde(T,t)>
            + int_t^T <btilde, K btilde + 2 k> + kappa ds.

The checks' re-integrated responses are a pair table too.  The oracle
tests require the package to match it to rounding.  It reads the same
gain, closed-loop steps and damped iteration as the package, so it checks
how the sums are formed, not the data that enter them.  Its Picard pass
(:func:`affine_backward_rk4`) builds RK4's backward maps of phi's equation
from D = A_cl^T (:func:`adjoint_maps`) and steps them node by node, where
the package runs the transposed closed-loop steps as a scan over the closed
loop's anchors.

:func:`sbb_at` and :func:`omega_at` are the row checks: one node's Sbb or
omega by direct node quadrature of the left-hand forms of the defining
integrals (:mod:`tilq.auxiliary`), the kernels' t-derivatives read straight
from the spec.
"""

import dataclasses

import numpy as np

from tilq.auxiliary import _btilde_from_drive, _psi_rate, _upsilon_table
from tilq.grid import (_interp_half, closed_loop_drive, closed_loop_matrices,
                       quadrature, zero_below_diagonal)
from tilq.policy import _quadratic_form, simulate_equilibrium, value
from tilq.riccati import SolveOptions, _initial_table, damped_fixed_point
from tilq.tables import cumulative_trapezoid, pair_blocks, solve_chol
from tilq.verification import _coefficient_rates, _hamiltonian_gap
from pair_tables import from_pair_layout, pair_table


def btilde(cl_pairs, drive, grid):
    """(N+1, N+1, n) [s_idx, t_idx] = btilde(t_s, t_t), zero where s <= t.

    ``cl_pairs`` is the closed loop's pair table (:func:`pair_tables.pair_table`).
    """
    return from_pair_layout(_btilde_from_drive(cl_pairs, drive, grid))


def row_terms(t_idx, spec, grid, gain, upsilon, bt_column):
    """Gain, Upsilon, btilde(., t_i), w, the kernels' t-derivatives, g', G'.

    ``bt_column`` holds btilde(t_j, t_i) for j = i..N.
    """
    t = float(grid.nodes[t_idx])
    s_range = grid.nodes[t_idx:]
    G = np.asarray(gain, dtype=float)[t_idx:]
    U = np.asarray(upsilon, dtype=float)[t_idx:]
    bt = np.asarray(bt_column, dtype=float)
    w = U + np.einsum("jmn,jn->jm", G, bt)
    rows = tuple(f.row(t, s_range, derivative=True)
                 for f in (spec.Q, spec.S, spec.M, spec.q, spec.rho))
    gdot = np.asarray(spec.terminal.dg_dt(t), dtype=float).reshape(-1)
    Gdot = np.asarray(spec.terminal.dG_dt(t), dtype=float)
    return (G, U, bt, w) + rows + (gdot, Gdot)


def sbb_at(t_idx, spec, grid, column, gain, upsilon, bt_column):
    """Nonlocal drift correction Sbb(t_i) by direct node quadrature.

    ``column`` holds the closed loop's propagators E_cl(t_j, t_i) and
    ``bt_column`` btilde(t_j, t_i), for j = i..N (:mod:`pair_tables`).  All
    five bracketed terms of the defining integral are assembled from the
    supplied ingredients; independent of the batched solver path.
    """
    N = grid.N
    G, U, bt, w, Qt, St, Mt, qt, rhot, gdot, Gdot = row_terms(
        t_idx, spec, grid, gain, upsilon, bt_column)
    vec = (np.einsum("jab,jb->ja", Qt, bt)
           - np.einsum("jma,jmn,jn->ja", G, St, bt)
           - np.einsum("jmn,jm->jn", St, np.einsum("jmn,jn->jm", G, bt))
           + qt
           - np.einsum("jmn,jm->jn", St, U)
           + np.einsum("jma,jmp,jp->ja", G, Mt, w)
           - np.einsum("jma,jm->ja", G, rhot))
    prop = np.ascontiguousarray(column)
    integ = quadrature(np.einsum("jba,jb->ja", prop, vec), grid, t_idx, N)
    EN = prop[-1]
    return EN.T @ (gdot + Gdot @ bt[-1]) + integ


def omega_at(t_idx, spec, grid, gain, upsilon, bt_column):
    """Scalar correction omega(t_i) by direct node quadrature."""
    N = grid.N
    G, U, bt, w, Qt, St, Mt, qt, rhot, gdot, Gdot = row_terms(
        t_idx, spec, grid, gain, upsilon, bt_column)
    quad_term = np.einsum("jac,jc,ja->j", Qt, bt, bt)
    cross = qt - np.einsum("jma,jmn,jn->ja", G, St, bt) \
        - np.einsum("jmn,jm->jn", St, U)
    lin_term = 2.0 * np.einsum("ja,ja->j", cross, bt)
    ctl_term = (np.einsum("jmp,jp,jm->j", Mt, w, w)
                - 2.0 * np.einsum("jm,jm->j", rhot, w))
    integ = float(quadrature(quad_term + lin_term + ctl_term, grid, t_idx, N))
    bT = bt[-1]
    return float(np.dot(Gdot @ bT + 2.0 * gdot, bT)) + integ


def closed_loop_costs(g, u, Q, S, M, q, rho):
    """K, k, kappa over pairs (i, j); kernels [..., i, j], g and u [..., j]."""
    K = np.einsum("paj,pqij,qbj->abij", g, M, g)
    GS = np.einsum("paj,pbij->abij", g, S)
    K -= GS
    K -= np.swapaxes(GS, 0, 1)
    K += Q
    r = np.einsum("pqij,qj->pij", M, u)
    r -= rho
    k = np.einsum("paj,pij->aij", g, r)
    k -= np.einsum("paij,pj->aij", S, u)
    k += q
    r -= rho
    return K, k, np.einsum("pj,pij->ij", u, r)


def pair_costs(tables, gain, upsilon, first=0):
    """``(rows, blk, weight, K, k, kappa)`` over blocks of rows from ``first``."""
    g = np.ascontiguousarray(np.moveaxis(gain, 0, -1))
    u = np.ascontiguousarray(upsilon.T)
    separable = tables.spec.kernel is not None
    if separable:
        costs = closed_loop_costs(g, u, *(
            np.moveaxis(d, 0, -1)[..., None, :] / tables.lam_diag
            for d in (tables.Qd, tables.Sd, tables.Md, tables.qd, tables.rhod)))
    for rows, cols in pair_blocks(tables.grid.N + 1, tables.n * tables.n, first):
        blk = (Ellipsis, rows, cols)
        if separable:
            yield (rows, blk, tables.W[blk] * tables.dlam[blk]) + tuple(
                c[..., cols] for c in costs)
        else:
            yield (rows, blk, tables.W[blk]) + closed_loop_costs(
                g[..., cols], u[:, cols], *(getattr(tables, name)[blk] for name in
                                            ("Qt", "St", "Mt", "qt", "rhot")))


def adjoint_maps(D_nodes, D_half, h):
    """RK4's backward one-step maps T_i of x' = -D(t) x, built from D.

    With D = A_cl^T these are the transposes of the closed loop's forward
    steps, which the package's Picard pass uses in their place.
    """
    eye = np.eye(D_half.shape[-1])
    K1 = -D_nodes[1:]
    K2 = -D_half @ (eye - 0.5 * h * K1)
    K3 = -D_half @ (eye - 0.5 * h * K2)
    K4 = -D_nodes[:-1] @ (eye - h * K3)
    return eye - (h / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)


def affine_backward_rk4(D_nodes, D_half, c_nodes, c_half, terminal, h):
    """x' = -D(t) x - c(t) backward from x(T) = terminal, node by node.

    RK4's one-step map x_i = T_i x_{i+1} + r_i, T_i from
    :func:`adjoint_maps`, applied one node at a time: the recursion the
    package runs as a scan over the closed loop's anchors.
    """
    N, n = D_half.shape[0], D_half.shape[-1]
    Tmat = adjoint_maps(D_nodes, D_half, h)
    k1r = -c_nodes[1:]
    k2r = 0.5 * h * np.einsum("iab,ib->ia", D_half, k1r) - c_half
    k3r = 0.5 * h * np.einsum("iab,ib->ia", D_half, k2r) - c_half
    k4r = h * np.einsum("iab,ib->ia", D_nodes[:-1], k3r) - c_nodes[:-1]
    rvec = -(h / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)
    out = np.empty((N + 1, n))
    out[N] = terminal
    for i in range(N - 1, -1, -1):
        out[i] = Tmat[i] @ out[i + 1] + rvec[i]
    return out


def sbb_table(gain, upsilon, bt, cl_pairs, tables):
    """Sbb at every node from the btilde and closed-loop pair tables."""
    N = tables.grid.N
    out = np.empty((N + 1, tables.n))
    for rows, blk, weight, K, k, _ in pair_costs(tables, gain, upsilon):
        vec = np.einsum("abij,bij->aij", K, bt[blk])
        vec += k
        vec *= weight
        out[rows] = np.einsum("acij,aij->ic", cl_pairs[blk], vec)
    btN = bt[..., N]  # btilde(T, t_i) along i
    out += np.einsum("aci,ia->ic", cl_pairs[..., N],
                     tables.gdot + np.einsum("iab,bi->ia", tables.Gdot, btN))
    return out


def omega_table(gain, upsilon, bt, tables):
    """omega at every node from the btilde pair table."""
    N = tables.grid.N
    out = np.empty(N + 1)
    for rows, blk, weight, K, k, kappa in pair_costs(tables, gain, upsilon):
        b = bt[blk]
        acc = np.einsum("abij,bij->aij", K, b)
        acc += 2.0 * k
        term = np.einsum("aij,aij->ij", b, acc)
        term += kappa
        term *= weight
        out[rows] = term.sum(axis=-1)
    btN = bt[..., N]
    out += np.einsum("ia,ai->i",
                     np.einsum("iab,bi->ia", tables.Gdot, btN) + 2.0 * tables.gdot,
                     btN)
    return out


@dataclasses.dataclass
class Auxiliary:
    phi: np.ndarray
    psi: np.ndarray
    sbb: np.ndarray
    omega: np.ndarray
    diagnostics: object


def solve_auxiliary(riccati, opts=None):
    """Picard iteration over the btilde pair table, then psi."""
    opts = opts or SolveOptions()
    tables = riccati.tables
    grid, h = tables.grid, tables.grid.h
    cl_pairs = pair_table(riccati.closed_loop, grid)
    gain = riccati.gain
    D_nodes, D_half = (np.swapaxes(F, -1, -2) for F in closed_loop_matrices(
        tables.A, tables.A_half, tables.B, tables.B_half, gain))
    Pb = np.einsum("iab,ib->ia", riccati.P, tables.b)
    Pb_half = np.einsum("iab,ib->ia", _interp_half(riccati.P), tables.b_half)
    g_rho = np.einsum("ima,im->ia", gain, tables.rhod)
    g_rho_half = np.einsum("ima,im->ia", _interp_half(gain), tables.rhod_half)

    def tables_of(phi):
        ups = _upsilon_table(phi, tables)
        drive = closed_loop_drive(tables.b, tables.B, ups)
        return ups, _btilde_from_drive(cl_pairs, drive, grid)

    def sweep(phi):
        ups, bt = tables_of(phi)
        sbb = sbb_table(gain, ups, bt, cl_pairs, tables)
        c_nodes = -sbb + Pb + tables.qd - g_rho
        c_half = -_interp_half(sbb) + Pb_half + tables.qd_half - g_rho_half
        return affine_backward_rk4(D_nodes, D_half, c_nodes, c_half,
                                   tables.g_T, h)

    phi0 = _initial_table(opts.initial, tables.g_T, grid.N, "phi")
    phi, diag = damped_fixed_point(phi0, sweep, opts, "reference affine")
    ups, bt = tables_of(phi)
    sbb = sbb_table(gain, ups, bt, cl_pairs, tables)
    omega = omega_table(gain, ups, bt, tables)
    running = cumulative_trapezoid(-_psi_rate(phi, ups, omega, tables), h)
    return Auxiliary(phi, running[-1] - running, sbb, omega, diag)


def reintegrated_offsets(sol):
    """The checks' zero-state responses as a pair table, by RK4 accumulation."""
    tbl, grid = sol.tables, sol.grid
    gain, ups, h = sol.riccati.gain, sol.auxiliary.upsilon, grid.h
    F, Fm = closed_loop_matrices(tbl.A, tbl.A_half, tbl.B, tbl.B_half, gain)
    w = closed_loop_drive(tbl.b, tbl.B, ups)
    wm = closed_loop_drive(tbl.b_half, tbl.B_half, _interp_half(ups))
    k1 = w[:-1]
    k2 = 0.5 * h * np.einsum("iab,ib->ia", Fm, k1) + wm
    k3 = 0.5 * h * np.einsum("iab,ib->ia", Fm, k2) + wm
    k4 = h * np.einsum("iab,ib->ia", F[1:], k3) + w[1:]
    r = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    steps = sol.riccati.closed_loop
    Z = np.zeros((grid.N + 1, sol.spec.dims.n))
    for i in range(grid.N):
        Z[i + 1] = steps[i] @ Z[i] + r[i]
    bt = np.einsum("abij,ib->aij", pair_table(steps, grid), Z)
    np.subtract(Z.T[:, None, :], bt, out=bt)
    return zero_below_diagonal(bt)


def hjb_residual_sup(sol, states):
    """Sup of the pointwise stationarity residual, R re-integrated."""
    gain, ups, qbb = sol.riccati.gain, sol.auxiliary.upsilon, sol.riccati.qbb
    bt_re = reintegrated_offsets(sol)
    sbb_re = sbb_table(gain, ups, bt_re, pair_table(sol.riccati.closed_loop, sol.grid),
                       sol.tables)
    omega_re = omega_table(gain, ups, bt_re, sol.tables)
    rates = _coefficient_rates(sol)
    sup = 0.0
    for x in np.atleast_2d(np.asarray(states, dtype=float)):
        R_re = _quadratic_form(qbb, sbb_re, omega_re, x)
        gap = _hamiltonian_gap(sol, rates, slice(None), x, -(gain @ x) - ups, R_re)
        sup = max(sup, float(np.max(np.abs(gap))))
    return sup


def hjb_integral_residual(sol, t_idx, x):
    """The integral-form defect with <Y, K Y> + 2 <k, Y> + kappa per pair."""
    spec, grid, tbl = sol.spec, sol.grid, sol.tables
    N = grid.N
    t = float(grid.nodes[t_idx])
    x = np.asarray(x, dtype=float).reshape(spec.dims.n)
    Y = simulate_equilibrium(sol, t_idx, x).states
    sl = slice(t_idx, N + 1)
    grad = 2.0 * np.einsum("jab,jb->ja", sol.riccati.P[sl], Y) \
        + 2.0 * sol.auxiliary.phi[sl]
    half_bp = 0.5 * np.einsum("jam,ja->jm", tbl.B[sl], grad)
    SxY = np.einsum("jmn,jn->jm", tbl.Sd[sl], Y)
    h_ctrl = solve_chol(tbl.Md_chol[sl], half_bp + SxY + tbl.rhod[sl])
    H_run = (np.einsum("jm,jm->j", half_bp - SxY - tbl.rhod[sl], h_ctrl)
             + np.einsum("jab,jb,ja->j", tbl.Qd[sl], Y, Y)
             + 2.0 * np.einsum("ja,ja->j", tbl.qd[sl], Y))
    Y_at = np.zeros((N + 1, spec.dims.n))
    Y_at[sl] = Y
    inner = np.empty(N + 1)
    for rows, blk, weight, K, k, kappa in pair_costs(
            tbl, sol.riccati.gain, sol.auxiliary.upsilon, t_idx):
        y = Y_at[blk[-1]]
        F = np.einsum("abij,jb,ja->ij", K, y, y)
        F += 2.0 * np.einsum("aij,ja->ij", k, y)
        F += kappa
        inner[rows] = np.einsum("ij,ij->i", F, weight)
    outer = quadrature(H_run - inner[sl], grid, t_idx, N)
    yT = Y[-1]
    G = np.asarray(spec.terminal.G(t), dtype=float)
    g = np.asarray(spec.terminal.g(t), dtype=float).reshape(-1)
    return float(outer) + float(yT @ G @ yT + 2.0 * g @ yT) - value(sol, t, x)
