"""Per-solve tabulation of a problem's coefficients on a time grid.

Everything the solvers touch repeatedly is evaluated once here: dynamics and
diagonal kernel values K(t, t) at nodes and half nodes, the open-loop RK4
steps and their anchored fundamental matrices, terminal weights, and the
O(N^2) first-argument derivatives K_t(t_i, t_j), which only the fixed-point
path and the verification checks build.  The diagonal tables of a
separable spec's fields weigh the kernel's lam(t, t), looked up once on the
nodes and once on the half nodes.  M(t_i, t_i) is factored once: its
Cholesky factors L_i and their inverses are cached, and every gain and
Upsilon solve (:meth:`SpecTables.solve_md`) is the two batched products
L_i^{-T} (L_i^{-1} rhs_i).  The base values of a separable spec's cost
kernels, plain and bordered (:attr:`SpecTables.cost_bases`), which every
sweep and Picard pass reads, are cached too.  The solvers' closed-loop steps
(:func:`tilq.riccati._closed_loop_table`) are built from these evaluations
only, never again from the problem's callables.

Separable problems.  When the spec records its discount kernel
(:func:`tilq.problem.make_discounted`), every cost kernel is
K(t, s) = lam(t, s) K_hat(s), so K_t(t_i, s_j) = dlam(t_i, s_j) K_hat(s_j):
one (N+1)^2 plane ``dlam`` of the kernel's t-derivative and base values
K_hat(s_j) = K(s_j, s_j) / lam(s_j, s_j) read off the diagonal tables.  The
terminal derivatives G'(t_i) = dlam(t_i, T) G(T) / lam(T, T), and g' alike,
come from the plane's last column.  A spec without a recorded kernel gets
one derivative triangle per cost kernel instead (``Qt``, ``St``, ``Mt``,
``qt``, ``rhot``).  Every nonlocal integrand reads its kernels through
:func:`pair_costs`, the one place that chooses between the two.

Pair layout.  Every (N+1)^2 table is one C-contiguous array of shape
``components + (N+1, N+1)``.  Entry ``[..., i, j]`` belongs to the node
pair (t, s) = (t_i, t_j): the evaluation time t runs along the rows and the
integration time s >= t along the columns, and every component (a, b) of a
matrix-valued table is a separate (N+1, N+1) plane.  Entries with j < i lie
outside the domain t <= s and are exactly zero.  Concretely:

* ``dlam[i, j] = d/dt lam(t_i, t_j)``, and K_t(t_i, t_j) = dlam[i, j] K_hat(t_j)
  for every cost kernel K of a separable spec;
* ``Qt[a, b, i, j] = d/dt Q(t_i, t_j)[a, b]`` and likewise ``St``, ``Mt``,
  ``qt[a, i, j]``, ``rhot[p, i, j]`` for a spec without a recorded kernel;
* ``W[i, j]`` is the trapezoid weight of node j in the integral over
  [t_i, T].

No propagator or btilde is tabulated over node pairs: the nonlocal sums and
the equilibrium paths read anchored products of the one-step propagators
(:mod:`tilq.riccati`, :func:`tilq.policy.simulate_equilibrium`).

:func:`pair_costs` yields each node pair's closed-loop cost derivative K,
bordered to [[K, k], [k^T, kappa]] when Upsilon is given, times its
trapezoid weight, by blocks of rows (:func:`pair_blocks`) whose temporaries
stay in cache, skipping the all-zero columns left of each block.  The
fixed-point sums for Qbb, Sbb and omega read the plane or these blocks and
no propagator table (see :mod:`tilq.riccati`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import AssumptionError
from .grid import (TimeGrid, _anchored, _border, _eval_dynamics,
                   _rk4_linear_steps, zero_below_diagonal)
from .problem import ProblemSpec, TwoTimeField, eval_pairs


# Bytes of one block of rows over all planes of a pair table: small enough
# for a block's temporaries to stay in a core's cache, large enough that the
# per-block interpreter overhead is a small share.
PAIR_BLOCK_BYTES = 1 << 18

# Grid nodes per axis probed by SpecTables.max_derivative_scale.
DERIVATIVE_SCALE_SAMPLES = 64


def pair_blocks(K: int, planes: int, first: int = 0,
                columns: slice = slice(0, None)):
    """(rows, cols) slices covering a K x K pair table by blocks of rows.

    The blocks cover the ``columns`` and the rows from ``first`` to the last
    of those columns.  A block's columns start no earlier than its first
    row: every entry left of it lies below the diagonal and is zero.
    ``planes`` is the number of (K, K) planes a kernel reads per table and
    sets the block height.
    """
    lo, hi = columns.start, K if columns.stop is None else columns.stop
    height = max(1, PAIR_BLOCK_BYTES // (8 * (hi - lo) * planes))
    for start in range(first, hi, height):
        yield slice(start, min(start + height, hi)), slice(max(lo, start), hi)


def kernel_triangle(field, grid: TimeGrid) -> np.ndarray:
    """Pair table [..., i, j] = field.dt(t_i, t_j) for j >= i; lower part zeroed.

    The field's derivative is called once per block of rows
    (:func:`pair_blocks`) on the block's broadcast node pairs, the unused
    t > s part of the block included.  Zeroing matters: a kernel may
    misbehave there (divisions by zero and the like) and a stray inf would
    poison the weighted sums downstream even under zero weights.
    """
    nodes = grid.nodes
    K = grid.N + 1
    shape = tuple(field.shape)
    out = np.zeros(shape + (K, K))
    for rows, cols in pair_blocks(K, int(np.prod(shape))):
        with np.errstate(all="ignore"):
            blk = eval_pairs(field.dvalue_dt, nodes[rows, None], nodes[None, cols],
                             shape)
        out[..., rows, cols] = np.moveaxis(blk, (0, 1), (-2, -1))
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
    """K(t, t) at every time, in one call of the field."""
    return np.array(eval_pairs(field.value, times, times, field.shape))


def _kernel_diagonal(kernel, times: np.ndarray) -> np.ndarray:
    """lam(t, t) at every time, in one call of the kernel."""
    return np.array(eval_pairs(kernel.lam, times, times, ()))


def suffix_weights(grid: TimeGrid) -> np.ndarray:
    """W[i, j]: trapezoid weight of node j in the integral over [t_i, T]."""
    N = grid.N
    h = grid.h
    W = zero_below_diagonal(np.full((N + 1, N + 1), h))
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

    def _dynamics(self, name: str, times: np.ndarray) -> np.ndarray:
        shape = {"A": (self.n, self.n), "B": (self.n, self.m), "b": (self.n,)}[name]
        return _eval_dynamics(getattr(self.spec.dynamics, name), times, shape, name)

    @cached_property
    def A(self) -> np.ndarray:
        return self._dynamics("A", self.grid.nodes)

    @cached_property
    def A_half(self) -> np.ndarray:
        return self._dynamics("A", self.grid.half_nodes)

    @cached_property
    def B(self) -> np.ndarray:
        return self._dynamics("B", self.grid.nodes)

    @cached_property
    def B_half(self) -> np.ndarray:
        return self._dynamics("B", self.grid.half_nodes)

    @cached_property
    def b(self) -> np.ndarray:
        return self._dynamics("b", self.grid.nodes)

    @cached_property
    def b_half(self) -> np.ndarray:
        return self._dynamics("b", self.grid.half_nodes)

    @cached_property
    def open_loop_steps(self) -> np.ndarray:
        """RK4 one-step propagators of x' = A x, one per grid interval."""
        return _rk4_linear_steps(self.A, self.A_half, self.grid.h)

    @cached_property
    def open_loop_anchors(self):
        """Anchored fundamental matrices of x' = A x (:func:`tilq.grid._anchored`)."""
        return _anchored(self.open_loop_steps)

    # -- diagonal kernel values K(t, t) -------------------------------------

    def _diag(self, field) -> np.ndarray:
        return self._diagonal(field, self.grid.nodes, "lam_diag")

    def _diag_half(self, field) -> np.ndarray:
        return self._diagonal(field, self.grid.half_nodes, "_lam_half")

    def _diagonal(self, field, times: np.ndarray, lam: str) -> np.ndarray:
        """K(t, t) at every time, in one call of the field.

        A separable field of the spec's kernel weighs the kernel's cached
        lam(t, t) instead (attribute ``lam``), with the same floats, so the
        kernel is looked up twice per solve: on the nodes and half nodes.
        """
        if field.kernel is None or field.kernel is not self.spec.kernel:
            return _on_diagonal(field, times)
        values = field.weigh(getattr(self, lam), times)
        return np.array(np.broadcast_to(values, (len(times),) + tuple(field.shape)))

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
    def Md_chol_inv(self) -> np.ndarray:
        """The inverses L_i^{-1} of :attr:`Md_chol`, read-only."""
        inv = np.linalg.inv(self.Md_chol)
        inv.flags.writeable = False
        return inv

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
        if self.spec.kernel is not None:
            return self.dlam[:, -1, None, None] * (self.G_T / self.lam_diag[-1])
        return np.asarray([self.spec.terminal.dG_dt(float(t)) for t in self.grid.nodes],
                          dtype=float)

    @cached_property
    def gdot(self) -> np.ndarray:
        if self.spec.kernel is not None:
            return self.dlam[:, -1, None] * (self.g_T / self.lam_diag[-1])
        return np.asarray([self.spec.terminal.dg_dt(float(t)) for t in self.grid.nodes],
                          dtype=float).reshape(-1, self.n)

    # -- first-argument derivatives and quadrature weights --------------------

    @cached_property
    def dlam(self) -> np.ndarray:
        """Plane [i, j] = dlam_dt(t_i, t_j) of a separable spec's kernel."""
        kernel = self.spec.kernel
        return kernel_triangle(TwoTimeField(kernel.lam, kernel.dlam_dt, ()),
                               self.grid)

    @cached_property
    def lam_diag(self) -> np.ndarray:
        """lam(t_j, t_j) of a separable spec's kernel at every node."""
        return _kernel_diagonal(self.spec.kernel, self.grid.nodes)

    @cached_property
    def _lam_half(self) -> np.ndarray:
        """lam(t, t) of a separable spec's kernel at every half node."""
        return _kernel_diagonal(self.spec.kernel, self.grid.half_nodes)

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
        """Solve M(t_i, t_i) X_i = rhs_i for every node: L_i^{-T} (L_i^{-1} rhs_i).

        ``rhs`` holds one vector (N+1, m) or one matrix (N+1, m, k) per node.
        """
        inv = self.Md_chol_inv
        vec = rhs.ndim == 2
        if vec:
            rhs = rhs[..., None]
        x = np.swapaxes(inv, -1, -2) @ (inv @ rhs)
        return x[..., 0] if vec else x

    # -- separable cost bases --------------------------------------------------

    @cached_property
    def cost_bases(self) -> tuple:
        """Q, S, M at (s_j, s_j) over lam(s_j, s_j), indexed [..., 0, j].

        The base values K_hat of a separable spec's cost kernels, the layout
        of :func:`_closed_loop_costs` with a row axis of length one.
        """
        return _cost_bases(self.Qd, self.Sd, self.Md, self.lam_diag)

    @cached_property
    def bordered_cost_bases(self) -> tuple:
        """:attr:`cost_bases` of [[Q, q], [q^T, 0]], [S, rho] and M."""
        return _cost_bases(_border(self.Qd, self.qd, self.qd),
                           np.concatenate([self.Sd, self.rhod[..., None]], axis=-1),
                           self.Md, self.lam_diag)

    def max_derivative_scale(self) -> float:
        """Sup of the t-derivative fields on a coarse probe; 0 means consistent.

        Each field is evaluated once, over the probe's node pairs t <= s.
        """
        nodes = self.grid.nodes
        step = max(1, len(nodes) // DERIVATIVE_SCALE_SAMPLES)
        probe = nodes[::step]
        upper = probe[:, None] <= probe[None, :]
        sup = 0.0
        for f in (self.spec.Q, self.spec.S, self.spec.M, self.spec.q, self.spec.rho):
            with np.errstate(all="ignore"):
                d = eval_pairs(f.dvalue_dt, probe[:, None], probe[None, :], f.shape)
            sup = max(sup, float(np.max(np.abs(d[upper]))))
        for t in probe:
            sup = max(sup, float(np.max(np.abs(self.spec.terminal.dG_dt(float(t))))))
            sup = max(sup, float(np.max(np.abs(self.spec.terminal.dg_dt(float(t))))))
        return sup


def _cost_bases(Q, S, M, lam_diag) -> tuple:
    """Node tables over lam(s_j, s_j), node axis last, read-only."""
    out = tuple(np.moveaxis(d, 0, -1)[..., None, :] / lam_diag for d in (Q, S, M))
    for d in out:
        d.flags.writeable = False
    return out


def _closed_loop_costs(g, Q, S, M) -> np.ndarray:
    """K of :func:`pair_costs` from kernel values over pairs (i, j).

    The kernels are indexed [..., i, j] and the gain ``g`` [..., j].
    """
    K = np.einsum("paj,pqij,qbj->abij", g, M, g)
    GS = np.einsum("paj,pbij->abij", g, S)
    K -= GS
    K -= np.swapaxes(GS, 0, 1)
    K += Q
    return K


def _bordered_gain(gain: np.ndarray, upsilon) -> np.ndarray:
    """Gain(t_j) on column j, bordered to [Gain, Upsilon] when Upsilon is given."""
    if upsilon is not None:
        gain = np.concatenate([gain, upsilon[..., None]], axis=-1)
    return np.ascontiguousarray(np.moveaxis(gain, 0, -1))


def _node_costs(tables: SpecTables, gain: np.ndarray, upsilon=None) -> np.ndarray:
    """K_hat of a separable spec at every node s_j, bordered with Upsilon.

    The closed-loop cost of :func:`pair_costs` formed from the cached base
    values K(s_j, s_j) / lam(s_j, s_j), indexed [..., 0, j]: the row axis of
    length one broadcasts along the rows of a pair table.
    """
    bases = tables.cost_bases if upsilon is None else tables.bordered_cost_bases
    return _closed_loop_costs(_bordered_gain(gain, upsilon), *bases)


def pair_costs(tables: SpecTables, gain: np.ndarray, upsilon=None,
               first: int = 0, columns: slice = slice(0, None)):
    """Closed-loop cost derivatives over the node pairs, by blocks of rows.

    Along the closed loop u = -Gain y the t-derivative of the running cost
    at (t, s) is <y, K y> with K = Q_t - Gain^T S_t - S_t^T Gain + Gain^T
    M_t Gain, the kernels at (t, s) and Gain at s.  Along u = -Gain y -
    Upsilon it is <y_bar, K y_bar>, y_bar = [y; 1], with K the same formula
    in [[Q, q], [q^T, 0]], [S, rho] and [Gain, Upsilon]: the bordered
    [[K, k], [k^T, kappa]].  Yields ``(rows, blk, weight, K)`` for the
    blocks of :func:`pair_blocks` from row ``first`` on, over the
    ``columns``: ``blk`` indexes the block's pairs, and K[a, b, i, j] times
    weight[i, j] is the pair's coefficient times its trapezoid weight in
    the integral over [t_i, T].

    For a separable spec K is that of :func:`_node_costs`, formed once per
    node, and weight = W * dlam.  Otherwise it is contracted pair by pair
    from the kernel triangles and weight = W.
    """
    dim = tables.n + (upsilon is not None)
    if tables.spec.kernel is not None:
        K = _node_costs(tables, gain, upsilon)
    else:
        g = _bordered_gain(gain, upsilon)
    for rows, cols in pair_blocks(tables.grid.N + 1, dim * dim, first, columns):
        blk = (Ellipsis, rows, cols)
        if tables.spec.kernel is not None:
            yield rows, blk, tables.W[blk] * tables.dlam[blk], K[..., cols]
            continue
        Q, S, M = tables.Qt[blk], tables.St[blk], tables.Mt[blk]
        if upsilon is not None:  # as _border() does, with the matrix axes first
            n, q = tables.n, tables.qt[blk]
            Qb = np.zeros((n + 1, n + 1) + q.shape[1:])
            Qb[:n, :n], Qb[:n, n], Qb[n, :n] = Q, q, q
            Q, S = Qb, np.concatenate([S, tables.rhot[blk][:, None]], axis=1)
        yield rows, blk, tables.W[blk], _closed_loop_costs(g[..., cols], Q, S, M)
