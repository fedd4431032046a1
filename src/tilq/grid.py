"""Uniform time grids, trapezoid quadrature, and state-transition tables.

Propagators Phi(t_i, t_j) of a linear system x' = F(t) x are built one grid
step at a time with classical fourth-order Runge-Kutta
(:func:`_rk4_linear_steps`).  This coincides with the matrix-exponential
formula exp(int F) whenever the system matrices commute pairwise and is the
correct fundamental solution in general.  :func:`open_loop_transition`
tabulates the open loop F = A from the dynamics callables.  The solvers
never call it: they take the open-loop steps and the closed loop
F = A - B Gain (:func:`closed_loop_matrices`) from the grid evaluations of
:class:`tilq.tables.SpecTables`.

Tables over node pairs are stored in the pair layout described in
:mod:`tilq.tables`; :func:`from_pair_layout` gives the node-major view the
public accessors return.

A table's pair storage is built on first use and kept; every read after
that is of an immutable array.  Two threads that both make the first use
may each build it, with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TilqError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N intervals."""

    T: float
    N: int
    nodes: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def half_nodes(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


def build_grid(T: float, N: int) -> TimeGrid:
    """Uniform grid with nodes i*T/N, i = 0..N.

    Raises for non-positive horizons and for N < 2 (a single interval cannot
    support the interior quadrature and differencing stencils used here).
    """
    if T <= 0:
        raise TilqError(f"horizon must be positive, got {T!r}")
    if N < 2:
        raise TilqError(f"grid needs at least 2 intervals, got {N!r}")
    nodes = np.linspace(0.0, float(T), N + 1)
    nodes.flags.writeable = False
    return TimeGrid(T=float(T), N=int(N), nodes=nodes)


def quadrature(samples: np.ndarray, grid: TimeGrid, a_idx: int = 0,
               b_idx: int | None = None) -> np.ndarray:
    """Composite trapezoid rule over the node range [a_idx, b_idx].

    ``samples`` holds the integrand values at the nodes of the range, one per
    node along axis 0 (entries may themselves be vectors or matrices).  Exact
    for affine integrands; O(h^2) for smooth ones.
    """
    if b_idx is None:
        b_idx = grid.N
    if b_idx < a_idx:
        raise TilqError(f"empty quadrature range [{a_idx}, {b_idx}]")
    samples = np.asarray(samples, dtype=float)
    k = b_idx - a_idx + 1
    if samples.shape[0] != k:
        raise TilqError(
            f"expected {k} samples for node range [{a_idx}, {b_idx}], "
            f"got {samples.shape[0]}")
    if k == 1:
        return np.zeros(samples.shape[1:])
    w = np.full(k, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return np.tensordot(w, samples, axes=(0, 0))


def _rk4_linear_steps(A_nodes: np.ndarray, A_half: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 propagators for X' = A(s) X on every grid interval.

    The one-step map of a linear system is itself linear, so each factor is
    the matrix I + h/6 (k1 + 2 k2 + 2 k3 + k4) with the stages evaluated on
    the identity.
    """
    n = A_nodes.shape[-1]
    eye = np.eye(n)
    k1 = A_nodes[:-1]
    k2 = A_half @ (eye + 0.5 * h * k1)
    k3 = A_half @ (eye + 0.5 * h * k2)
    k4 = A_nodes[1:] @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def from_pair_layout(pairs: np.ndarray) -> np.ndarray:
    """View [j, i, ...] of a pair table [..., i, j]: later time first."""
    return np.moveaxis(np.swapaxes(pairs, -1, -2), (-2, -1), (0, 1))


def to_pair_layout(table: np.ndarray) -> np.ndarray:
    """Inverse of :func:`from_pair_layout`: view [..., i, j] of a [j, i, ...] table."""
    return np.moveaxis(table, (0, 1), (-1, -2))


def zero_below_diagonal(pairs: np.ndarray) -> np.ndarray:
    """Zero the entries [..., i, j] with j < i of a pair table, in place."""
    for i in range(1, pairs.shape[-1]):
        pairs[..., i, :i] = 0.0
    return pairs


class TransitionTable:
    """Propagators Phi(t_i, t_j), j <= i, of a linear time-varying system.

    Phi(i, i) is the identity and the table satisfies the semigroup property
    Phi(i, j) = Phi(i, k) Phi(k, j) up to rounding.  Only the one-step
    factors are computed up front; the (N+1)^2 pair table is built on the
    first call of :meth:`pair_table`, :meth:`full_table` or :meth:`matrix`
    and kept.  Construction is deterministic: identical inputs give
    bit-identical tables.
    """

    def __init__(self, grid: TimeGrid, steps: np.ndarray):
        self.grid = grid
        self.dim = steps.shape[-1]
        steps = np.ascontiguousarray(steps, dtype=float)
        steps.flags.writeable = False
        self.steps = steps
        self._pairs = None

    def _build_full(self) -> np.ndarray:
        N, n = self.grid.N, self.dim
        pairs = np.zeros((n, n, N + 1, N + 1))
        rng = np.arange(N + 1)
        pairs[:, :, rng, rng] = np.eye(n)[:, :, None]
        stepsT = np.ascontiguousarray(np.swapaxes(self.steps, -1, -2))
        for i in range(N - 1, -1, -1):
            # Phi(t_j, t_i) = Phi(t_j, t_{i+1}) Phi_i for every j > i: for each
            # a, the block [a, :, i, i+1:] is Phi_i^T [a, :, i+1, i+1:]
            np.matmul(stepsT[i], pairs[:, :, i + 1, i + 1:],
                      out=pairs[:, :, i, i + 1:])
        pairs.flags.writeable = False
        return pairs

    def pair_table(self) -> np.ndarray:
        """The (n, n, N+1, N+1) pair table [a, b, i, j] = Phi(t_j, t_i)[a, b].

        Zero where j < i.
        """
        if self._pairs is None:
            self._pairs = self._build_full()
        return self._pairs

    def full_table(self) -> np.ndarray:
        """The (N+1, N+1, n, n) view [i, j] = Phi(t_i, t_j) of the pair table."""
        return from_pair_layout(self.pair_table())

    def matrix(self, i: int, j: int) -> np.ndarray:
        """Phi(t_i, t_j) for j <= i."""
        if not (0 <= j <= i <= self.grid.N):
            raise TilqError(f"propagator indices must satisfy 0 <= {j} <= {i} <= N")
        return self.pair_table()[:, :, j, i]


def _eval_dynamics(fn, times: np.ndarray, shape: tuple) -> np.ndarray:
    out = np.empty((len(times),) + shape)
    for i, t in enumerate(times):
        out[i] = np.asarray(fn(float(t)), dtype=float).reshape(shape)
    return out


def open_loop_transition(dynamics, grid: TimeGrid) -> TransitionTable:
    """Fundamental-solution table of x' = A(t) x."""
    n = np.asarray(dynamics.A(0.0), dtype=float).shape[0]
    A_nodes = _eval_dynamics(dynamics.A, grid.nodes, (n, n))
    A_half = _eval_dynamics(dynamics.A, grid.half_nodes, (n, n))
    steps = _rk4_linear_steps(A_nodes, A_half, grid.h)
    return TransitionTable(grid, steps)


def _interp_half(table: np.ndarray) -> np.ndarray:
    """Linear interpolant at the half nodes of a node table."""
    return 0.5 * (table[:-1] + table[1:])


def closed_loop_matrices(A: np.ndarray, A_half: np.ndarray, B: np.ndarray,
                         B_half: np.ndarray, gain: np.ndarray):
    """A - B Gain at the nodes and at the half nodes, from Gain at the nodes."""
    return A - B @ gain, A_half - B_half @ _interp_half(gain)


def closed_loop_drive(b: np.ndarray, B: np.ndarray,
                      upsilon: np.ndarray) -> np.ndarray:
    """The closed loop's drive b - B Upsilon at each tabulated time."""
    return b - np.einsum("tab,tb->ta", B, upsilon)
