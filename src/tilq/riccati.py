"""Equilibrium Riccati solver.

The quadratic coefficient P(t) of the equilibrium value function solves

    P' + A^T P + P A + Q(t,t) - Qbb(t) - Gain^T M(t,t) Gain = 0,  P(T) = G(T),

where Gain(t) = M(t,t)^{-1} (B^T(t) P(t) + S(t,t)) and the correction Qbb(t)
aggregates the first-argument derivatives of the cost kernels along the
closed loop:

    Qbb(t) = E_cl(T,t)^T G'(t) E_cl(T,t)
           + int_t^T E_cl(s,t)^T [Q_t - Gain^T S_t - S_t^T Gain
                                  + Gain^T M_t Gain](t,s) E_cl(s,t) ds.

Qbb couples P(t) to the whole future of Gain through the closed-loop
propagator E_cl, so the equation is nonlocal and cannot be integrated
backward directly.  Each sweep here evaluates the equivalent open-loop
integral form

    P(t) = E(T,t)^T G(T) E(T,t)
         + int_t^T E(s,t)^T [Q(s,s) - Qbb(s) - Gain^T M Gain](s) E(s,t) ds

with Gain, E_cl, Qbb all rebuilt from the incoming P, and the solver runs a
damped fixed-point iteration on these sweeps.  When the kernels do not
depend on the evaluation time, Qbb vanishes and the fixed point is the
classical Riccati solution (see :func:`classical_riccati`, the oracle).

Both integrals use the node trapezoid rule with the weights W[i, j] of
:func:`tilq.tables.suffix_weights`.  Qbb is a weighted row sum over the
pair tables of :mod:`tilq.tables`, with the bracket K(t, s) of its integrand
from :func:`tilq.tables.pair_costs`.  For a separable spec,
K(t_i, s_j) = dlam(t_i, s_j) K_hat(s_j): K_hat is formed once per node from
the diagonal values and the weights are W * dlam, so no kernel is
contracted per node pair.  The open-loop integral is evaluated by
the backward recursion

    P_N = G(T),
    P_i = Phi_i^T (P_{i+1} + h/2 inner_{i+1}) Phi_i + h/2 inner_i,

with inner = Q(t,t) - Qbb - Gain^T M(t,t) Gain and Phi_i the open-loop RK4
step from t_i to t_{i+1}.  This is the same trapezoid sum, reassociated, not
a new discretization.  The propagators compose as
E(t_j, t_i) = E(t_j, t_{i+1}) Phi_i, so Phi_i factors out of every j > i
term of row i.  On the columns j > i, row i of W equals row i+1 except at
j = i+1, where it is larger by exactly h/2 (h/2 becomes h, or W[N, N] = 0
becomes W[N-1, N] = h/2); the recursion adds that h/2 inner_{i+1} inside
the bracket and the j = i term h/2 inner_i outside it.  A sweep costs
O(N n^3) for P instead of O(N^2 n^3), and the open-loop pair table is never
built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError, ConsistencyError, ConvergenceError, TilqError
from .grid import (TimeGrid, TransitionTable, _rk4_linear_steps,
                   closed_loop_matrices)
# Not called here: the solvers read SpecTables.open_loop_steps.  The name
# stays in this module because perfbench/spans.py wraps it here.
from .grid import open_loop_transition  # noqa: F401
from .problem import ProblemSpec
from .tables import SpecTables, factor_md, pair_costs, solve_chol

SWEEP_ASYMMETRY_RTOL = 1e-8
TIME_CONSISTENT_SUP = 1e-12
PSD_WARN_FLOOR = -1e-8
# the fixed point's damping is never halved below this
DAMPING_FLOOR = 0.0625


@dataclass
class SolveOptions:
    """Fixed-point controls shared by the Riccati and affine-term solvers."""

    tolerance: float = 1e-10
    max_iterations: int = 200
    damping: float = 1.0
    initial: object = "terminal"  # "terminal" | "zero" | explicit table

    def __post_init__(self):
        if self.tolerance <= 0:
            raise TilqError("tolerance must be positive")
        if not (0 < self.damping <= 1):
            raise TilqError("damping must lie in (0, 1]")


@dataclass
class FixedPointDiagnostics:
    iterations: int = 0
    deltas: list = field(default_factory=list)
    damping_history: list = field(default_factory=list)
    converged: bool = False
    note: str = ""


def damped_fixed_point(x0: np.ndarray, sweep, opts: SolveOptions,
                       what: str) -> tuple[np.ndarray, FixedPointDiagnostics]:
    """Iterate x <- (1 - theta) x + theta sweep(x) to a sup-norm fixed point.

    The recorded delta is the raw residual ||sweep(x) - x||_sup, so the
    convergence test does not depend on the damping in effect.  The damping
    starts at opts.damping and is halved (down to DAMPING_FLOOR) whenever the
    residual grows on two consecutive iterations.
    """
    diag = FixedPointDiagnostics()
    x = np.array(x0, dtype=float)
    theta = opts.damping
    growth_streak = 0
    decay_streak = 0
    best_x = x
    best_delta = np.inf
    floor_reverts = 0
    for _ in range(opts.max_iterations):
        with np.errstate(over="ignore", invalid="ignore"):
            fx = sweep(x)
            delta = float(np.max(np.abs(fx - x)))
        diag.iterations += 1
        diag.damping_history.append(theta)
        if not np.isfinite(delta):
            # the iterate ran away; restart from the best point seen so far
            diag.deltas.append(np.inf)
            if theta <= DAMPING_FLOOR:
                floor_reverts += 1
                if floor_reverts > 1:
                    break
            theta = max(DAMPING_FLOOR, 0.5 * theta)
            x = best_x
            growth_streak = 0
            continue
        diag.deltas.append(delta)
        if delta <= opts.tolerance:
            diag.converged = True
            return fx, diag
        if delta < best_delta:
            best_delta = delta
            best_x = x
        if len(diag.deltas) >= 2 and delta > diag.deltas[-2]:
            growth_streak += 1
            decay_streak = 0
        else:
            growth_streak = 0
            decay_streak += 1
        if growth_streak >= 2 and theta > DAMPING_FLOOR:
            theta = max(DAMPING_FLOOR, 0.5 * theta)
            growth_streak = 0
        elif decay_streak >= 3 and theta < opts.damping:
            # transient over: let the damping recover toward the configured value
            theta = min(opts.damping, 2.0 * theta)
            decay_streak = 0
        x = (1.0 - theta) * x + theta * fx
    diag.note = (f"{what}: no fixed point within {diag.iterations} iterations "
                 f"(last residual {diag.deltas[-1]:.3e}, damping {theta})")
    raise ConvergenceError(diag.note, diagnostics=diag)


@dataclass
class RiccatiSolution:
    """Converged P, feedback gain, kernel-derivative correction, transitions."""

    grid: TimeGrid
    P: np.ndarray          # (N+1, n, n), symmetric, P[N] = G(T)
    gain: np.ndarray       # (N+1, m, n)
    qbb: np.ndarray        # (N+1, n, n), symmetric
    closed_loop: TransitionTable
    diagnostics: FixedPointDiagnostics
    tables: SpecTables
    # the kernel's exponential sum (tilq.local.ExponentialSum) when the local
    # ODE sweep produced this solution; None on the fixed-point path
    expansion: object = None

    @property
    def converged(self) -> bool:
        return self.diagnostics.converged


# ---------------------------------------------------------------------------
# single-time operations (public contracts)


def gamma_from_p(P: np.ndarray, spec: ProblemSpec, t: float) -> np.ndarray:
    """Feedback gain M(t,t)^{-1} (B^T(t) P + S(t,t)) through a Cholesky solve."""
    P = np.asarray(P, dtype=float)
    rhs = np.asarray(spec.dynamics.B(t), dtype=float).T @ P + np.asarray(
        spec.S(t, t), dtype=float)
    return solve_chol(factor_md(spec.M(t, t), t), rhs)


def qbb_from_gamma(gain: np.ndarray, closed_loop: TransitionTable,
                   spec: ProblemSpec, grid: TimeGrid, t_idx: int) -> np.ndarray:
    """Kernel-derivative correction Qbb(t_i) by direct node quadrature.

    Self-contained row evaluation, deliberately independent of the batched
    sweep path so the two can be cross-checked.
    """
    from .grid import quadrature

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
    prop = np.asarray([closed_loop.matrix(j, t_idx)
                       for j in range(t_idx, grid.N + 1)])
    integrand = np.einsum("jba,jbc,jcd->jad", prop, K, prop)
    out = quadrature(integrand, grid, t_idx, grid.N)
    EN = closed_loop.matrix(grid.N, t_idx)
    Gdot = np.asarray(spec.terminal.dG_dt(t), dtype=float).reshape(n, n)
    out = out + EN.T @ Gdot @ EN
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# batched sweep machinery


def _gain_table(P: np.ndarray, tables: SpecTables) -> np.ndarray:
    rhs = np.swapaxes(tables.B, -1, -2) @ P + tables.Sd
    return tables.solve_md(rhs)


def _closed_loop_table(gain: np.ndarray, tables: SpecTables) -> TransitionTable:
    eff = closed_loop_matrices(tables.A, tables.A_half, tables.B, tables.B_half,
                               gain)
    steps = _rk4_linear_steps(*eff, tables.grid.h)
    return TransitionTable(tables.grid, steps)


def _qbb_table(gain: np.ndarray, cl_pairs: np.ndarray,
               tables: SpecTables) -> np.ndarray:
    """Qbb at every node from the closed-loop pair table.

    The weighted row sums of E_cl^T K E_cl over the blocks of
    :func:`tilq.tables.pair_costs`, plus the terminal term.
    """
    N, n = tables.grid.N, tables.n
    out = np.empty((N + 1, n, n))
    for rows, blk, weight, K, _, _ in pair_costs(tables, gain):
        E = cl_pairs[blk]
        buf = np.einsum("ceij,edij->cdij", K, E)
        buf *= weight
        out[rows] = np.einsum("caij,cdij->iad", E, buf)
    EN = cl_pairs[..., N]  # E_cl(T, t_i) along i
    out += np.einsum("cai,ice,edi->iad", EN, tables.Gdot, EN)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _sweep_core(P: np.ndarray, tables: SpecTables):
    """One full sweep: gain, closed loop, Qbb, then the open-loop integral.

    The integral is the backward recursion of the module docstring, over
    the open-loop RK4 one-step propagators Phi_i of ``tables``.
    """
    grid = tables.grid
    N = grid.N
    gain = _gain_table(P, tables)
    cl = _closed_loop_table(gain, tables)
    qbb = _qbb_table(gain, cl.pair_table(), tables)
    inner = (tables.Qd - qbb
             - np.einsum("jab,jac,jcd->jbd", gain, tables.Md, gain, optimize=True))
    half = (0.5 * grid.h) * inner
    steps = tables.open_loop_steps
    P_out = np.empty_like(inner)
    P_out[N] = tables.G_T
    for i in range(N - 1, -1, -1):
        P_out[i] = steps[i].T @ (P_out[i + 1] + half[i + 1]) @ steps[i] + half[i]
    asym = float(np.max(np.abs(P_out - np.swapaxes(P_out, -1, -2))))
    scale = max(1.0, float(np.max(np.abs(P_out))))
    if asym > SWEEP_ASYMMETRY_RTOL * scale:
        raise ConsistencyError(
            f"sweep produced an asymmetric P (relative asymmetry "
            f"{asym / scale:.3e}); check the problem data")
    P_out = 0.5 * (P_out + np.swapaxes(P_out, -1, -2))
    P_out[N] = tables.G_T
    return P_out, gain, qbb, cl


def warn_if_indefinite(P: np.ndarray, diag: FixedPointDiagnostics) -> None:
    """Warn, and add to ``diag.note``, when a solved P has negative eigenvalues."""
    min_eig = float(np.linalg.eigvalsh(P).min())
    if min_eig < PSD_WARN_FLOOR * max(1.0, float(np.max(np.abs(P)))):
        message = (f"P has negative eigenvalues (min {min_eig:.3e}); "
                   f"semi-definiteness is not guaranteed for coupled costs")
        diag.note = f"{diag.note}; {message}" if diag.note else message
        warnings.warn(message, stacklevel=3)


def _initial_table(initial, terminal: np.ndarray, N: int, what: str) -> np.ndarray:
    """Starting table of a fixed-point solve from ``SolveOptions.initial``.

    "terminal" repeats ``terminal`` at every node and "zero" is all zeros;
    an array of the terminal's shape is repeated at every node, and one of
    shape (N+1,) + that shape is used as given.
    """
    shape = terminal.shape
    if isinstance(initial, str):
        if initial == "terminal":
            return np.broadcast_to(terminal, (N + 1,) + shape).copy()
        if initial == "zero":
            return np.zeros((N + 1,) + shape)
        got = repr(initial)
    else:
        arr = np.asarray(initial, dtype=float)
        if arr.shape == shape:
            return np.broadcast_to(arr, (N + 1,) + shape).copy()
        if arr.shape == (N + 1,) + shape:
            return arr.copy()
        got = f"a table of shape {arr.shape}"
    raise TilqError(f"initial {what} must be 'terminal', 'zero' or a table of "
                    f"shape {shape} or {(N + 1,) + shape}; got {got}")


def solve_equilibrium_riccati(spec: ProblemSpec, grid: TimeGrid,
                              opts: SolveOptions | None = None,
                              tables: SpecTables | None = None) -> RiccatiSolution:
    """Damped fixed-point solve of the equilibrium Riccati equation.

    Returns the converged tables with gain, Qbb and the closed-loop
    propagators all recomputed from the final P, so the stored set is
    mutually consistent to machine precision.  Raises ConvergenceError,
    carrying the iteration diagnostics, when no fixed point is reached:
    uniqueness of solutions is a theorem, existence of this iteration's
    limit is not, so failures are reported rather than masked.
    """
    opts = opts or SolveOptions()
    if tables is None:
        tables = SpecTables(spec, grid)

    def sweep(P):
        return _sweep_core(P, tables)[0]

    P0 = _initial_table(opts.initial, tables.G_T, grid.N, "P")
    P_final, diag = damped_fixed_point(P0, sweep, opts, "equilibrium Riccati")

    gain = _gain_table(P_final, tables)
    cl = _closed_loop_table(gain, tables)
    qbb = _qbb_table(gain, cl.pair_table(), tables)
    warn_if_indefinite(P_final, diag)
    return RiccatiSolution(grid=grid, P=P_final, gain=gain, qbb=qbb,
                           closed_loop=cl, diagnostics=diag, tables=tables)


# ---------------------------------------------------------------------------
# classical (time-consistent) oracle


def classical_riccati(spec: ProblemSpec, grid: TimeGrid) -> np.ndarray:
    """Backward RK4 on the classical Riccati equation; time-consistent specs only.

    With every first-argument derivative identically zero the correction Qbb
    drops out of the equilibrium equation, leaving the textbook terminal
    value problem P' = -(A^T P + P A + Q - Gain^T M Gain), P(T) = G(T).
    This is the independent oracle for the fixed-point solver.
    """
    tables = SpecTables(spec, grid)
    sup = tables.max_derivative_scale()
    if sup > TIME_CONSISTENT_SUP:
        raise AssumptionError(
            f"classical_riccati requires a time-consistent problem; "
            f"kernel t-derivatives reach {sup:.3e}")

    dyn = spec.dynamics

    def rhs(t: float, P: np.ndarray) -> np.ndarray:
        A = np.asarray(dyn.A(t), dtype=float)
        gain = gamma_from_p(P, spec, t)
        M = np.asarray(spec.M(t, t), dtype=float)
        Q = np.asarray(spec.Q(t, t), dtype=float)
        return -(A.T @ P + P @ A + Q - gain.T @ M @ gain)

    N = grid.N
    h = grid.h
    nodes = grid.nodes
    out = np.empty((N + 1, spec.dims.n, spec.dims.n))
    out[N] = tables.G_T
    for i in range(N, 0, -1):
        t1 = float(nodes[i])
        tm = t1 - 0.5 * h
        t0 = float(nodes[i - 1])
        P1 = out[i]
        k1 = rhs(t1, P1)
        k2 = rhs(tm, P1 - 0.5 * h * k1)
        k3 = rhs(tm, P1 - 0.5 * h * k2)
        k4 = rhs(t0, P1 - h * k3)
        Pn = P1 - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i - 1] = 0.5 * (Pn + Pn.T)
    return out
