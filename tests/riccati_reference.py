"""Reference implementation of the nonlocal sums of the fixed-point sweep.

This is the form the package used before the sweep moved to anchored
fundamental-matrix sums: Qbb contracts the closed-loop pair table
(``TransitionTable.pair_table``, built by ``_build_full``) block by block,
and the open-loop integral for P is the backward recursion over the
one-step propagators,

    X_N = G(T) + h/2 inner_N,  X_i = Phi_i^T X_{i+1} Phi_i + h inner_i,
    P = X - h/2 inner.

The oracle tests require the package's sweep to match it to rounding.  It
reads the same gain, closed-loop steps and damped iteration as the
package, so it checks how the sums are formed, not the data that enter
them.  Its closed-loop costs are contracted pair by pair from the kernel
values (:func:`auxiliary_reference.pair_costs`), not read from the
package's plane terms.

:func:`qbb_from_gamma` is the row check: one node's Qbb by direct node
quadrature, with the kernels' t-derivatives read straight from the spec.
"""

import dataclasses

import numpy as np

from tilq.errors import ConsistencyError
from tilq.grid import quadrature
from tilq.riccati import (SWEEP_ASYMMETRY_RTOL, SolveOptions, _closed_loop_table,
                          _gain_table, _initial_table, damped_fixed_point)
from auxiliary_reference import pair_costs
from pair_tables import pair_table


def qbb_from_gamma(gain, column, spec, grid, t_idx):
    """Kernel-derivative correction Qbb(t_i) by direct node quadrature.

    ``column`` holds the closed loop's propagators E_cl(t_j, t_i) for
    j = i..N (:func:`pair_tables.column`, or a column of
    :func:`pair_tables.full_table`).  Self-contained row evaluation,
    independent of the batched sweep path so the two can be cross-checked.
    """
    gain = np.asarray(gain, dtype=float)
    n = spec.dims.n
    nodes = grid.nodes
    t = float(nodes[t_idx])
    s_range = nodes[t_idx:]
    Qt = spec.Q.row(t, s_range, derivative=True)
    St = spec.S.row(t, s_range, derivative=True)
    Mt = spec.M.row(t, s_range, derivative=True)
    G = gain[t_idx:]
    K = (Qt - np.einsum("jab,jac->jbc", G, St)
         - np.einsum("jab,jac->jcb", G, St)
         + np.einsum("jab,jac,jcd->jbd", G, Mt, G))
    prop = np.ascontiguousarray(column)
    integrand = np.einsum("jba,jbc,jcd->jad", prop, K, prop)
    out = quadrature(integrand, grid, t_idx, grid.N)
    EN = prop[-1]
    Gdot = np.asarray(spec.terminal.dG_dt(t), dtype=float).reshape(n, n)
    out = out + EN.T @ Gdot @ EN
    return 0.5 * (out + out.T)


def qbb_table(gain, tables):
    """Qbb at every node from the closed-loop pair table."""
    N, n = tables.grid.N, tables.n
    cl_pairs = pair_table(_closed_loop_table(gain, tables), tables.grid)
    out = np.empty((N + 1, n, n))
    for rows, blk, weight, K, _, _ in pair_costs(tables, gain):
        E = cl_pairs[blk]
        buf = np.einsum("ceij,edij->cdij", K, E)
        buf *= weight
        out[rows] = np.einsum("caij,cdij->iad", E, buf)
    EN = cl_pairs[..., N]  # E_cl(T, t_i) along i
    out += np.einsum("cai,ice,edi->iad", EN, tables.Gdot, EN)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def p_integral(inner, tables):
    """The open-loop integral for P by the backward recursion."""
    N = tables.grid.N
    h_inner = tables.grid.h * inner
    steps = tables.open_loop_steps
    stepsT = np.swapaxes(steps, -1, -2)
    X = np.empty_like(inner)
    X[N] = tables.G_T + 0.5 * h_inner[N]
    for i in range(N - 1, -1, -1):
        X[i] = stepsT[i] @ X[i + 1] @ steps[i] + h_inner[i]
    return X - 0.5 * h_inner


def sweep(P, tables):
    """One sweep: the new P table."""
    N = tables.grid.N
    gain = _gain_table(P, tables)
    qbb = qbb_table(gain, tables)
    inner = (tables.Qd - qbb
             - np.einsum("jab,jac,jcd->jbd", gain, tables.Md, gain, optimize=True))
    P_out = p_integral(inner, tables)
    asym = float(np.max(np.abs(P_out - np.swapaxes(P_out, -1, -2))))
    if asym > SWEEP_ASYMMETRY_RTOL * max(1.0, float(np.max(np.abs(P_out)))):
        raise ConsistencyError("sweep produced an asymmetric P")
    P_out = 0.5 * (P_out + np.swapaxes(P_out, -1, -2))
    P_out[N] = tables.G_T
    return P_out


def solve(tables, initial="terminal", opts=None):
    """Damped fixed point of :func:`sweep`: (P, Qbb, diagnostics)."""
    opts = dataclasses.replace(opts or SolveOptions(), initial=initial)
    P0 = _initial_table(opts.initial, tables.G_T, tables.grid.N, "P")
    P, diag = damped_fixed_point(P0, lambda P: sweep(P, tables), opts,
                                 "reference Riccati")
    gain = _gain_table(P, tables)
    qbb = qbb_table(gain, tables)
    return P, qbb, diag
