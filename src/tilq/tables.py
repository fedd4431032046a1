"""Per-solve tabulation of a problem's coefficients on a time grid.

Everything the solvers touch repeatedly is evaluated once here: dynamics and
diagonal kernel values K(t, t) at nodes and half nodes, the open-loop RK4
steps, terminal weights, and the O(N^2) triangles K_t(t_i, t_j) of the
first-argument derivatives, which only the fixed-point path and the
verification checks build.  The solvers' closed-loop propagators
(:func:`tilq.riccati._closed_loop_table`) and btilde
(:func:`tilq.auxiliary._btilde_from_drive`) are built from these evaluations
only, never again from the problem's callables.

Pair layout.  Every (N+1)^2 table of the solver -- the kernel triangles, the
trapezoid weights W, the closed-loop propagators and btilde -- is one
C-contiguous array of shape ``components + (N+1, N+1)``.  Entry
``[..., i, j]`` belongs to the node pair (t, s) = (t_i, t_j): the evaluation
time t runs along the rows and the integration time s >= t along the
columns, and every component (a, b) of a matrix-valued table is a separate
(N+1, N+1) plane.  Entries with j < i lie outside the domain t <= s and are
exactly zero.  Concretely:

* ``Qt[a, b, i, j] = d/dt Q(t_i, t_j)[a, b]`` and likewise ``St``, ``Mt``,
  ``qt[a, i, j]``, ``rhot[p, i, j]``;
* ``W[i, j]`` is the trapezoid weight of node j in the integral over
  [t_i, T];
* ``TransitionTable.pair_table()[a, b, i, j] = E_cl(t_j, t_i)[a, b]``;
* the solver's btilde table ``[a, i, j] = btilde(t_j, t_i)[a]``.

Quantities integrated over s for every t -- Qbb, Sbb, omega -- are then
W-weighted row sums of element-wise products of aligned planes, and a
coefficient that depends on s only (the gain, Upsilon) broadcasts along
the rows.  Row i of such a sum reads only row i of each table, so the
kernels run over blocks of rows (:func:`pair_blocks`) whose temporaries stay
in cache, and skip the columns left of each block, which are all zero.  The
public node-major views (``TransitionTable.full_table()``,
``AuxiliarySolution.btilde``) index the later time first and are views of
these arrays, not copies.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import AssumptionError
from .grid import (TimeGrid, _eval_dynamics, _rk4_linear_steps,
                   zero_below_diagonal)
from .problem import ProblemSpec, eval_pairs


# Bytes of one block of rows over all planes of a pair table: small enough
# for a block's temporaries to stay in a core's cache, large enough that the
# per-block interpreter overhead is a small share.
PAIR_BLOCK_BYTES = 1 << 18

# Grid nodes per axis probed by SpecTables.max_derivative_scale.
DERIVATIVE_SCALE_SAMPLES = 64


def pair_blocks(K: int, planes: int):
    """(rows, cols) slices covering a K x K pair table by blocks of rows.

    ``cols`` starts at the block's first row: every entry left of it lies
    below the diagonal and is zero.  ``planes`` is the number of (K, K)
    planes a kernel reads per table and sets the block height.
    """
    height = max(1, PAIR_BLOCK_BYTES // (8 * K * planes))
    for start in range(0, K, height):
        yield slice(start, start + height), slice(start, None)


def kernel_triangle(field, grid: TimeGrid) -> np.ndarray:
    """Pair table [..., i, j] = field.dt(t_i, t_j) for j >= i; lower part zeroed.

    Zeroing matters: vectorized kernels may misbehave on the unused t > s
    region (divisions by zero and the like) and a stray inf would poison the
    weighted sums downstream even under zero weights.
    """
    nodes = grid.nodes
    K = grid.N + 1
    fn = field.dvalue_dt
    shape = tuple(field.shape)
    out = np.zeros(shape + (K, K))
    if field.vectorized:
        for rows, cols in pair_blocks(K, int(np.prod(shape))):
            t, s = nodes[rows, None], nodes[None, cols]
            with np.errstate(all="ignore"):
                blk = np.asarray(fn(t, s), dtype=float)
            blk = np.broadcast_to(blk, np.broadcast_shapes(t.shape, s.shape) + shape)
            out[..., rows, cols] = np.moveaxis(blk, (0, 1), (-2, -1))
    else:
        for i in range(K):
            for j in range(i, K):
                out[..., i, j] = np.asarray(fn(float(nodes[i]), float(nodes[j])),
                                            dtype=float).reshape(shape)
    return zero_below_diagonal(out)


def factor_md(M: np.ndarray, times) -> np.ndarray:
    """Cholesky factors of the symmetric part of M(t, t) at a time or a stack.

    Raises AssumptionError naming the first time where the factorization fails.
    """
    M = np.asarray(M, dtype=float)
    sym = 0.5 * (M + np.swapaxes(M, -1, -2))
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        error = exc
    times = np.ravel(times)
    for k, X in enumerate(sym.reshape((-1,) + sym.shape[-2:])):
        try:
            np.linalg.cholesky(X)
        except np.linalg.LinAlgError:
            break
    raise AssumptionError(
        f"M(t,t) is not positive definite at t={times[k]:.6g}; the running "
        f"control weight must be positive definite") from error


def solve_chol(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with (L L^T) X = rhs, for one vector or matrix per factor L."""
    rhs = np.asarray(rhs, dtype=float)
    vec = rhs.ndim == L.ndim - 1
    if vec:
        rhs = rhs[..., None]
    y = np.linalg.solve(L, rhs)
    x = np.linalg.solve(np.swapaxes(L, -1, -2), y)
    return x[..., 0] if vec else x


def _on_diagonal(field, times: np.ndarray) -> np.ndarray:
    """K(t, t) at every time, one call for a vectorized field."""
    return np.array(eval_pairs(field.value, times, times, field.shape,
                               field.vectorized), dtype=float)


def suffix_weights(grid: TimeGrid) -> np.ndarray:
    """W[i, j]: trapezoid weight of node j in the integral over [t_i, T]."""
    N = grid.N
    h = grid.h
    W = np.triu(np.full((N + 1, N + 1), h))
    idx = np.arange(N + 1)
    W[idx, idx] = 0.5 * h
    W[:N, N] = 0.5 * h
    W[N, N] = 0.0
    return W


def cumulative_trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Running integral from the first node along axis 0; C[0] = 0."""
    mids = 0.5 * h * (values[:-1] + values[1:])
    out = np.zeros_like(values)
    np.cumsum(mids, axis=0, out=out[1:])
    return out


class SpecTables:
    """Grid evaluations of one problem, built lazily and cached.

    Instances are read-only after each property materializes; they may be
    shared by every solver stage working on the same (spec, grid) pair.
    """

    def __init__(self, spec: ProblemSpec, grid: TimeGrid):
        self.spec = spec
        self.grid = grid
        self.n = spec.dims.n
        self.m = spec.dims.m

    # -- dynamics ----------------------------------------------------------

    @cached_property
    def A(self) -> np.ndarray:
        return _eval_dynamics(self.spec.dynamics.A, self.grid.nodes, (self.n, self.n))

    @cached_property
    def A_half(self) -> np.ndarray:
        return _eval_dynamics(self.spec.dynamics.A, self.grid.half_nodes,
                              (self.n, self.n))

    @cached_property
    def B(self) -> np.ndarray:
        return _eval_dynamics(self.spec.dynamics.B, self.grid.nodes, (self.n, self.m))

    @cached_property
    def B_half(self) -> np.ndarray:
        return _eval_dynamics(self.spec.dynamics.B, self.grid.half_nodes,
                              (self.n, self.m))

    @cached_property
    def b(self) -> np.ndarray:
        return _eval_dynamics(self.spec.dynamics.b, self.grid.nodes, (self.n,))

    @cached_property
    def b_half(self) -> np.ndarray:
        return _eval_dynamics(self.spec.dynamics.b, self.grid.half_nodes, (self.n,))

    @cached_property
    def open_loop_steps(self) -> np.ndarray:
        """RK4 one-step propagators of x' = A x, one per grid interval."""
        return _rk4_linear_steps(self.A, self.A_half, self.grid.h)

    # -- diagonal kernel values K(t, t) -------------------------------------

    def _diag(self, field) -> np.ndarray:
        return _on_diagonal(field, self.grid.nodes)

    def _diag_half(self, field) -> np.ndarray:
        return _on_diagonal(field, self.grid.half_nodes)

    @cached_property
    def Qd(self) -> np.ndarray:
        return self._diag(self.spec.Q)

    @cached_property
    def Sd(self) -> np.ndarray:
        return self._diag(self.spec.S)

    @cached_property
    def Md(self) -> np.ndarray:
        return self._diag(self.spec.M)

    @cached_property
    def qd(self) -> np.ndarray:
        return self._diag(self.spec.q)

    @cached_property
    def rhod(self) -> np.ndarray:
        return self._diag(self.spec.rho)

    @cached_property
    def Md_chol(self) -> np.ndarray:
        """Stacked Cholesky factors of M(t_i, t_i); fails fast on non-PD data."""
        return factor_md(self.Md, self.grid.nodes)

    @cached_property
    def Qd_half(self) -> np.ndarray:
        return self._diag_half(self.spec.Q)

    @cached_property
    def Sd_half(self) -> np.ndarray:
        return self._diag_half(self.spec.S)

    @cached_property
    def Md_half(self) -> np.ndarray:
        return self._diag_half(self.spec.M)

    @cached_property
    def qd_half(self) -> np.ndarray:
        return self._diag_half(self.spec.q)

    @cached_property
    def rhod_half(self) -> np.ndarray:
        return self._diag_half(self.spec.rho)

    # -- terminal weights ----------------------------------------------------

    @cached_property
    def G_T(self) -> np.ndarray:
        G = np.asarray(self.spec.terminal.G(self.grid.T), dtype=float)
        return 0.5 * (G + G.T)

    @cached_property
    def g_T(self) -> np.ndarray:
        return np.asarray(self.spec.terminal.g(self.grid.T), dtype=float).reshape(self.n)

    @cached_property
    def Gdot(self) -> np.ndarray:
        return np.asarray([self.spec.terminal.dG_dt(float(t)) for t in self.grid.nodes],
                          dtype=float)

    @cached_property
    def gdot(self) -> np.ndarray:
        return np.asarray([self.spec.terminal.dg_dt(float(t)) for t in self.grid.nodes],
                          dtype=float).reshape(-1, self.n)

    # -- derivative triangles and quadrature weights -------------------------

    @cached_property
    def Qt(self) -> np.ndarray:
        return kernel_triangle(self.spec.Q, self.grid)

    @cached_property
    def St(self) -> np.ndarray:
        return kernel_triangle(self.spec.S, self.grid)

    @cached_property
    def Mt(self) -> np.ndarray:
        return kernel_triangle(self.spec.M, self.grid)

    @cached_property
    def qt(self) -> np.ndarray:
        return kernel_triangle(self.spec.q, self.grid)

    @cached_property
    def rhot(self) -> np.ndarray:
        return kernel_triangle(self.spec.rho, self.grid)

    @cached_property
    def W(self) -> np.ndarray:
        return suffix_weights(self.grid)

    # -- linear solves against the diagonal M --------------------------------

    def solve_md(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M(t_i, t_i) X_i = rhs_i for every node via the Cholesky factors."""
        return solve_chol(self.Md_chol, rhs)

    def max_derivative_scale(self) -> float:
        """Sup of the t-derivative fields on a coarse probe; 0 means consistent."""
        nodes = self.grid.nodes
        step = max(1, len(nodes) // DERIVATIVE_SCALE_SAMPLES)
        idx = np.arange(0, len(nodes), step)
        sup = 0.0
        for f in (self.spec.Q, self.spec.S, self.spec.M, self.spec.q, self.spec.rho):
            for i in idx:
                for j in idx[idx >= i]:
                    sup = max(sup, float(np.max(np.abs(f.dt(float(nodes[i]),
                                                            float(nodes[j]))))))
        for t in nodes[idx]:
            sup = max(sup, float(np.max(np.abs(self.spec.terminal.dG_dt(float(t))))))
            sup = max(sup, float(np.max(np.abs(self.spec.terminal.dg_dt(float(t))))))
        return sup
