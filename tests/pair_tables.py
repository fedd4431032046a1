"""Propagator tables over node pairs, built from one-step propagators.

The package keeps only the one-step propagators of a linear system.  The
cross-checks that integrate along E(s, t) node pair by node pair tabulate
them here.  A pair table is in the layout of :mod:`tilq.tables`: entry
[..., i, j] belongs to (t_i, t_j), zero where j < i.  The node-major view
[j, i, ...] puts the later time first.
"""

import numpy as np

from tilq.grid import TransitionTable


def pair_table(steps, grid):
    """(n, n, N+1, N+1) [a, b, i, j] = Phi(t_j, t_i)[a, b]."""
    return TransitionTable(grid, steps).pair_table()


def from_pair_layout(pairs):
    """View [j, i, ...] of a pair table [..., i, j]: later time first."""
    return np.moveaxis(np.swapaxes(pairs, -1, -2), (-2, -1), (0, 1))


def full_table(steps, grid):
    """(N+1, N+1, n, n) [i, j] = Phi(t_i, t_j) for j <= i, zero above."""
    return from_pair_layout(pair_table(steps, grid))


def column(steps, i):
    """(N+1-i, n, n) [k] = Phi(t_{i+k}, t_i) = steps[i+k-1] ... steps[i].

    One column of the node-major table, in O(N n^2) memory.
    """
    steps = np.asarray(steps, dtype=float)
    out = np.empty((len(steps) + 1 - i,) + steps.shape[1:])
    out[0] = np.eye(steps.shape[-1])
    for k, step in enumerate(steps[i:]):
        out[k + 1] = step @ out[k]
    return out


def btilde_column(steps, drive, h, i):
    """(N+1-i, n) [k] = btilde(t_{i+k}, t_i) for the drive at the nodes.

    The column of the bordered steps [[Phi_j, r_j], [0, 1]] with
    r_j = h/2 (Phi_j d_j + d_{j+1}) holds [[Phi(t_j, t_i), btilde(t_j, t_i)],
    [0, 1]]: the trapezoid sum of Phi(t_j, r) d(r) over [t_i, t_j].
    """
    steps = np.asarray(steps, dtype=float)
    n = steps.shape[-1]
    bordered = np.zeros((len(steps), n + 1, n + 1))
    bordered[:, :n, :n] = steps
    bordered[:, :n, n] = 0.5 * h * (np.einsum("jab,jb->ja", steps, drive[:-1])
                                    + drive[1:])
    bordered[:, n, n] = 1.0
    return column(bordered, i)[:, :n, n]
