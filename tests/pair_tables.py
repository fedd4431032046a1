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
