"""Per-solve tabulation of a problem's coefficients on a time grid.

Everything the solvers touch repeatedly is evaluated once here: dynamics and
diagonal kernel values K(t, t) at the nodes and on the RK4 stage times
(:meth:`SpecTables.stages`), the open-loop RK4 steps and their anchored
fundamental matrices, terminal weights, and the O(N^2) first-argument
derivatives K_t(t_i, t_j), which only the fixed-point path and the
verification checks build.  The diagonal tables of a separable spec's
fields weigh the kernel's lam(t, t), looked up once on the nodes and once
on the half nodes.  M(t, t) is factored once, on its stage table, which is
the one positive-definiteness check of it, between the nodes too; every
solve against M reads the cached inverse factors, two batched products
(:meth:`SpecTables.solve_md`, :meth:`SpecTables.solve_stages`).  The base
values of a separable spec's cost kernels, plain and bordered
(:attr:`SpecTables.cost_bases`), are cached too.  The closed-loop steps
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
``qt``, ``rhot``).

Pair layout.  Every (N+1)^2 table is one C-contiguous array of shape
``components + (N+1, N+1)``.  Entry ``[..., i, j]`` belongs to the node
pair (t, s) = (t_i, t_j): the evaluation time t runs along the rows and the
integration time s >= t along the columns, and every component (a, b) of a
matrix-valued table is a separate (N+1, N+1) plane.  Entries with j < i lie
outside the domain t <= s and are exactly zero.  Concretely:

* ``dlam[i, j] = d/dt lam(t_i, t_j)``, and K_t(t_i, t_j) = dlam[i, j] K_hat(t_j)
  for every cost kernel K of a separable spec;
* ``Qt[a, b, i, j] = d/dt Q(t_i, t_j)[a, b]`` and likewise ``St``, ``Mt``,
  ``qt[a, i, j]``, ``rhot[p, i, j]`` for a spec without a recorded kernel.

No plane of trapezoid weights is kept: :func:`suffix_weights` forms them
where a check needs them.

No propagator or btilde is tabulated over node pairs: the nonlocal sums and
the equilibrium paths read anchored products of the one-step propagators
(:mod:`tilq.riccati`, :func:`tilq.policy.simulate_equilibrium`).

Closed-loop costs.  :func:`cost_terms` writes each node pair's closed-loop
cost derivative K, bordered to [[K, k], [k^T, kappa]] when Upsilon is
given, as a short sum of planes times node terms, K(t_i, s_j) = sum
plane[i, j] K_hat[j]: the one place that chooses between the two layouts
above.  A separable spec has the one term (``dlam``, K_hat); a spec without
a recorded kernel has one term per component of its derivative triangles.
The fixed-point sums for Qbb, Sbb and omega and the integral-form check
read these terms and no propagator table (see :mod:`tilq.riccati`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import AssumptionError, TilqError
from .grid import (TimeGrid, _anchored, _border, _eval_dynamics,
                   _rk4_linear_steps, stage_table, zero_below_diagonal)
from .problem import ProblemSpec, TwoTimeField, eval_pairs


# Bytes of one block of rows over all planes of a pair table: small enough
# for a block's temporaries to stay in a core's cache, large enough that the
# per-block interpreter overhead is a small share.
PAIR_BLOCK_BYTES = 1 << 18

# Grid nodes per axis probed by SpecTables.max_derivative_scale.
DERIVATIVE_SCALE_SAMPLES = 64

# Relative gap between a grid's horizon and its problem's that SpecTables
# accepts: rounding of the same T, not another problem.
HORIZON_RTOL = 1e-12


def pair_blocks(K: int, planes: int):
    """(rows, cols) slices covering a K x K pair table by blocks of rows.

    A block's columns start at its first row: every entry left of it lies
    below the diagonal and is zero.  ``planes`` is the number of (K, K)
    planes a kernel reads per table and sets the block height.
    """
    height = max(1, PAIR_BLOCK_BYTES // (8 * K * planes))
    for start in range(0, K, height):
        yield slice(start, min(start + height, K)), slice(start, K)


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


def _on_diagonal(field, times: np.ndarray) -> np.ndarray:
    """K(t, t) at every time, in one call of the field."""
    return np.array(eval_pairs(field.value, times, times, field.shape))


def _kernel_diagonal(kernel, times: np.ndarray) -> np.ndarray:
    """lam(t, t) at every time, in one call of the kernel."""
    return np.array(eval_pairs(kernel.lam, times, times, ()))


def suffix_weights(grid: TimeGrid, rows: slice = slice(0, None),
                   cols: slice = slice(0, None)) -> np.ndarray:
    """W[i, j]: trapezoid weight of node j in the integral over [t_i, T].

    Formed for the block ``rows`` x ``cols`` only: h above the diagonal, h/2
    on it and in column N for the rows before N, and 0 below it.
    """
    N, h = grid.N, grid.h
    i = np.arange(N + 1)[rows, None]
    j = np.arange(N + 1)[cols]
    W = np.where(j > i, h, 0.0)
    # the end points of [t_i, T]; W[N, N] = 0 is both, the empty integral
    W[(j == i) != (j == N)] = 0.5 * h
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
    Every solve tabulates through here, so a grid that does not span the
    problem's horizon [0, T] is refused here, before any coefficient is
    evaluated outside it.
    """

    def __init__(self, spec: ProblemSpec, grid: TimeGrid):
        if abs(grid.T - spec.horizon) > HORIZON_RTOL * spec.horizon:
            raise TilqError(f"grid horizon {grid.T!r} is not the problem's "
                            f"horizon {spec.horizon!r}")
        self.spec = spec
        self.grid = grid
        self.n = spec.dims.n
        self.m = spec.dims.m
        self._stage_tables = {}

    # -- dynamics ----------------------------------------------------------

    def _dynamics(self, name: str, times: np.ndarray) -> np.ndarray:
        shape = {"A": (self.n, self.n), "B": (self.n, self.m), "b": (self.n,)}[name]
        return _eval_dynamics(getattr(self.spec.dynamics, name), times, shape, name)

    @cached_property
    def A(self) -> np.ndarray:
        return self._dynamics("A", self.grid.nodes)

    @cached_property
    def B(self) -> np.ndarray:
        return self._dynamics("B", self.grid.nodes)

    @cached_property
    def b(self) -> np.ndarray:
        return self._dynamics("b", self.grid.nodes)

    def stages(self, name: str) -> np.ndarray:
        """The node table ``name`` (A, B, b, Qd, Sd, Md, qd or rhod), evaluated
        first, and its values at the half nodes, as a read-only stage table
        (:func:`tilq.grid.stage_table`), built on first use."""
        table = self._stage_tables.get(name)
        if table is None:
            at_nodes = getattr(self, name)
            if name in ("A", "B", "b"):
                at_half = self._dynamics(name, self.grid.half_nodes)
            else:  # Qd -> Q, ..., rhod -> rho
                at_half = self._diag_half(getattr(self.spec, name[:-1]))
            table = self._stage_tables[name] = stage_table(at_nodes, at_half)
            table.flags.writeable = False
        return table

    @cached_property
    def open_loop_steps(self) -> np.ndarray:
        """RK4 one-step propagators of x' = A x, one per grid interval."""
        return _rk4_linear_steps(self.stages("A"), self.grid.h)

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
    def Md_chol_inv(self) -> np.ndarray:
        """Inverse Cholesky factors L^{-1} of M(t, t) on the stage table,
        read-only; AssumptionError names the first stage time where M is not
        positive definite."""
        inv = np.linalg.inv(factor_md(self.stages("Md"), self.grid.stage_times))
        inv.flags.writeable = False
        return inv

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

    # -- linear solves against the diagonal M --------------------------------

    def solve_md(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M(t_i, t_i) X_i = rhs_i at the last k = len(rhs) nodes, for one
        vector (k, m) or matrix (k, m, p) per node."""
        inv = self.Md_chol_inv[2 * (self.grid.N + 1 - len(rhs))::2]
        return _solve_factored(inv, rhs)

    def solve_stages(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M(t, t) X = rhs on every row of the stage table, (2N+1, ...)."""
        return _solve_factored(self.Md_chol_inv, rhs)

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


def _solve_factored(inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L_i^{-T} (L_i^{-1} rhs_i) for each inverse factor and vector or matrix."""
    vec = rhs.ndim == inv.ndim - 1
    if vec:
        rhs = rhs[..., None]
    x = np.swapaxes(inv, -1, -2) @ (inv @ rhs)
    return x[..., 0] if vec else x


def _cost_bases(Q, S, M, lam_diag) -> tuple:
    """Node tables over lam(s_j, s_j), node axis last, read-only."""
    out = tuple(np.moveaxis(d, 0, -1)[..., None, :] / lam_diag for d in (Q, S, M))
    for d in out:
        d.flags.writeable = False
    return out


def _closed_loop_costs(g, Q, S, M) -> np.ndarray:
    """K of :func:`cost_terms` from kernel values over pairs (i, j).

    The kernels are indexed [..., i, j] and the gain ``g`` [..., j].
    """
    K = np.einsum("paj,pqij,qbj->abij", g, M, g)
    GS = np.einsum("paj,pbij->abij", g, S)
    K -= GS
    K -= np.swapaxes(GS, 0, 1)
    K += Q
    return K


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_j v_j^T at every node j."""
    return u[:, :, None] * v[:, None, :]


def cost_terms(tables: SpecTables, gain: np.ndarray, upsilon=None) -> list:
    """Closed-loop cost derivatives as ``(plane, K_hat)`` terms.

    Along the closed loop u = -Gain y the t-derivative of the running cost
    at (t, s) is <y, K y> with K = Q_t - Gain^T S_t - S_t^T Gain + Gain^T
    M_t Gain, the kernels at (t, s) and Gain at s.  Along u = -Gain y -
    Upsilon it is <y_bar, K y_bar>, y_bar = [y; 1], with K the same formula
    in [[Q, q], [q^T, 0]], [S, rho] and [Gain, Upsilon]: the bordered
    [[K, k], [k^T, kappa]].  Over the node pairs K(t_i, s_j) = sum over the
    terms of plane[i, j] K_hat[j], each plane an (N+1, N+1) pair table and
    each K_hat an (N+1, d, d) stack.

    A separable spec has one term: ``dlam`` with K_hat formed once per node
    from :attr:`SpecTables.cost_bases`.  A spec without a recorded kernel
    has one per component of its derivative triangles: ``Qt[a, b]`` with
    e_a e_b^T, ``qt[a]`` with e_a e_n^T + e_n e_a^T, ``St[p, b]`` (and
    ``rhot[p]`` as b = n) with -(g_p e_b^T + e_b g_p^T) and ``Mt[p, q]`` with
    g_p g_q^T, where e_a is a unit vector and g_p row p of [Gain, Upsilon].
    """
    if upsilon is not None:
        gain = np.concatenate([gain, upsilon[..., None]], axis=-1)
    if tables.spec.kernel is not None:
        bases = tables.cost_bases if upsilon is None else tables.bordered_cost_bases
        K_hat = _closed_loop_costs(np.ascontiguousarray(np.moveaxis(gain, 0, -1)),
                                   *bases)
        return [(tables.dlam, np.moveaxis(K_hat[..., 0, :], -1, 0))]
    n, m, d = tables.n, tables.m, gain.shape[-1]
    e = np.broadcast_to(np.eye(d)[:, None], (d, len(gain), d))
    g = np.moveaxis(gain, 1, 0)
    terms = [(tables.Qt[a, b], _outer(e[a], e[b]))
             for a in range(n) for b in range(n)]
    S = tables.St  # S[p][b]: the plane of [S_t, rho_t][p, b]
    if upsilon is not None:
        terms += [(tables.qt[a], _outer(e[a], e[n]) + _outer(e[n], e[a]))
                  for a in range(n)]
        S = [[*tables.St[p], tables.rhot[p]] for p in range(m)]
    terms += [(plane, -(_outer(g[p], e[b]) + _outer(e[b], g[p])))
              for p in range(m) for b, plane in enumerate(S[p])]
    terms += [(tables.Mt[p, q], _outer(g[p], g[q]))
              for p in range(m) for q in range(m)]
    return terms
