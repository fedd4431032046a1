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
:func:`tilq.tables.suffix_weights`, and both are sums of one form,

    X_i = sum_{j >= i} C_ij E_ji^T K_j E_ji + E_Ni^T D_i E_Ni,

with E_ji = E(t_j, t_i).  For Qbb, E is the closed loop, K the bracket of
its integrand and D = G'.  For P, E is the open loop, C = W, K = inner =
Q(t,t) - Qbb - Gain^T M(t,t) Gain and D = G(T).  Neither sum forms a
propagator per node pair.  They are anchored fundamental-matrix sums: for
an anchor t_a <= t_i, Psi_j = E(t_j, t_a) gives E_ji = Psi_j Psi_i^{-1}, so
row i is

    X_i = Psi_i^{-T} [sum_j C_ij Psi_j^T K_j Psi_j] Psi_i^{-1}.

The bracket of Qbb is a short sum of planes times node terms,
K(t_i, s_j) = sum plane(t_i, s_j) K_hat(s_j) (:func:`tilq.tables.cost_terms`),
so each term has C = W * plane and K_j = K_hat(s_j), formed once per node.
C is applied as h * plane, and the half weights of W at j = i and j = N are
restored separately, so the brackets of all rows are one matrix product per
term of its plane with the (N+1) x n^2 stack of Psi_j^T K_j Psi_j:
O(N^2 n^2) per term and sweep (:func:`_plane_sum`).  A separable spec has
the one term dlam; a spec without a recorded kernel has one per component
of its derivative triangles, n^2 + mn + m^2 of them.  For P the weights
depend on the column only, and the bracket is a running sum, O(N n^2).

Anchors.  Rounding in these sums grows like eps * kappa^2, kappa the
condition number of Psi.  One anchor at t = 0 is exact on well-conditioned
problems but loses every digit on a stiff, non-normal one, where Psi
contracts one direction like e^{-40 t} and not the other.  So the nodes are
cut into segments (:func:`tilq.grid._anchored`), each anchored at its first
node, on which a bound on kappa stays within ``tilq.grid.ANCHOR_COND``.  Columns past
a segment enter through the next segment's bracket and one link matrix
L_k = E(t_{a_{k+1}}, t_{a_k}):

    R^k_i = sum_{j in segment k} C_ij Psi_j^T K_j Psi_j + L_k^T R^{k+1}_i L_k,

starting from R_i = D_i + C_iN K_N in the frame of node N.  With an anchor at
every node this is the backward recursion P_i = Phi_i^T P_{i+1} Phi_i + ...
over the one-step propagators Phi_i, and Qbb costs O(N^2 n^3), the order of
a propagator table over node pairs.  The open-loop anchors depend on the spec only
and are cached in :class:`tilq.tables.SpecTables`; the closed loop's are
formed once per sweep.  The solution keeps those of its final closed loop
(:attr:`RiccatiSolution.closed_loop_anchors`, read-only; the local path
builds them on first use).  Bordered with the closed loop's drive, they run
the Qbb sum for Sbb and omega too (:mod:`tilq.auxiliary`), and give the
equilibrium paths; transposed, they carry phi's Picard pass backward, since
RK4's backward map of phi's equation is the transposed closed-loop step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (AssumptionError, ConsistencyError, ConvergenceError, TilqError,
                     _require_count, _require_real)
from .grid import (TimeGrid, _anchored, _Anchors, _border, _rk4_linear_steps,
                   closed_loop_matrices)
# Not called here: the solvers read SpecTables.open_loop_steps.  The name
# stays in this module because perfbench/spans.py wraps it here.
from .grid import open_loop_transition  # noqa: F401
from .problem import ProblemSpec
from .tables import SpecTables, cost_terms, factor_md

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
        _require_real("tolerance", self.tolerance)
        _require_real("damping", self.damping)
        if not 0 < self.tolerance < math.inf:
            raise TilqError(f"tolerance must be positive and finite, got "
                            f"{self.tolerance!r}")
        _require_count("max_iterations", self.max_iterations)
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
    """Converged P, feedback gain, kernel-derivative correction, closed loop."""

    grid: TimeGrid
    P: np.ndarray          # (N+1, n, n), symmetric, P[N] = G(T)
    gain: np.ndarray       # (N+1, m, n)
    qbb: np.ndarray        # (N+1, n, n), symmetric
    # (N, n, n), read-only: closed_loop[i] = E_cl(t_{i+1}, t_i), by RK4
    closed_loop: np.ndarray
    diagnostics: FixedPointDiagnostics
    tables: SpecTables
    # the kernel's exponential sum (tilq.local.ExponentialSum) when the local
    # ODE sweep produced this solution; None on the fixed-point path
    expansion: object = None
    # the fixed point's options; None on the local path
    options: SolveOptions | None = None
    # closed_loop's anchors: given by the fixed point, else built on first use
    _anchors: _Anchors | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.diagnostics.converged

    @property
    def closed_loop_anchors(self) -> _Anchors:
        """Anchored products of ``closed_loop`` (:func:`tilq.grid._anchored`), read-only.

        The fixed-point solve keeps the ones its final Qbb was summed over;
        the local path builds them on first use.  The affine solve, the
        equilibrium paths and the stationarity check border them with a drive,
        and phi's Picard pass runs on them transposed.
        """
        if self._anchors is None:
            self._anchors = _anchored(self.closed_loop)
        return self._anchors


# ---------------------------------------------------------------------------
# single-time operations (public contracts)


def gamma_from_p(P: np.ndarray, spec: ProblemSpec, t: float) -> np.ndarray:
    """Feedback gain M(t,t)^{-1} (B^T(t) P + S(t,t)) through a Cholesky solve."""
    P = np.asarray(P, dtype=float)
    rhs = np.asarray(spec.dynamics.B(t), dtype=float).T @ P + np.asarray(
        spec.S(t, t), dtype=float)
    L = factor_md(spec.M(t, t), t)
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


# ---------------------------------------------------------------------------
# batched sweep machinery


def _gain_table(P: np.ndarray, tables: SpecTables) -> np.ndarray:
    rhs = np.swapaxes(tables.B, -1, -2) @ P + tables.Sd
    return tables.solve_md(rhs)


def _closed_loop_table(gain: np.ndarray, tables: SpecTables) -> np.ndarray:
    """The closed loop's one-step RK4 propagators, (N, n, n) and read-only."""
    steps = _rk4_linear_steps(closed_loop_matrices(
        tables.stages("A"), tables.stages("B"), gain), tables.grid.h)
    steps.flags.writeable = False
    return steps


def _carry_back(anchors: _Anchors, out: np.ndarray, segment_sum) -> np.ndarray:
    """Sum the segments' brackets into each row's frame, then map rows back.

    ``out`` (N+1, n, n) starts as each row's term in node N's frame, and
    ``segment_sum(k)`` gives, for the rows before the end of segment k, their
    sums over its columns in its frame.  From the last segment back, those
    rows move into the segment's frame through its link and add their sums.
    Each row ends in its own segment's frame, and is returned multiplied by
    psi_i^{-T} on the left and psi_i^{-1} on the right.
    """
    starts, links = anchors.starts, anchors.links
    n = out.shape[-1]
    # R[a, i, d] = row i's [a, d]: both products of a link are then one call
    R = np.ascontiguousarray(np.swapaxes(out, 0, 1))
    for k in range(len(links) - 1, -1, -1):
        b, L = starts[k + 1], links[k]
        RL = np.matmul(R[:, :b], L).reshape(n, b * n)
        np.add(np.dot(L.T, RL).reshape(n, b, n), np.swapaxes(segment_sum(k), 0, 1),
               out=R[:, :b])
    return np.swapaxes(anchors.inv, -1, -2) @ np.swapaxes(R, 0, 1) @ anchors.inv


def _frame_terms(anchors: _Anchors, K: np.ndarray) -> np.ndarray:
    """psi_j^T K_j psi_j: each column's term in its own segment's frame."""
    return np.swapaxes(anchors.psi, -1, -2) @ K @ anchors.psi


def _open_loop_integral(anchors: _Anchors, inner: np.ndarray,
                        G_T: np.ndarray, h: float) -> np.ndarray:
    """P_i = E_Ni^T G(T) E_Ni + sum_{j >= i} W_ij E_ji^T inner_j E_ji.

    The weights depend on the column only, so every row before a segment
    sees the same sum over it: one matrix is carried back through the links,
    and each segment adds a running sum.  Every column is summed with the
    weight h; the diagonal's half weight is restored at the end.
    """
    starts, links = anchors.starts, anchors.links
    N = len(inner) - 1
    hS = h * _frame_terms(anchors, inner)
    out = np.empty_like(hS)
    out[N] = G_T
    R = G_T + 0.5 * h * inner[N]
    for k in range(len(links) - 1, -1, -1):
        a, b = starts[k], starts[k + 1]
        R = links[k].T @ R @ links[k]
        out[a:b] = R + np.cumsum(hS[a:b][::-1], axis=0)[::-1]
        R = out[a]
    out = np.swapaxes(anchors.inv, -1, -2) @ out @ anchors.inv
    out[:N] -= 0.5 * h * inner[:N]
    return out


def _plane_sum(anchors: _Anchors, terms: list, D: np.ndarray,
               tables: SpecTables) -> np.ndarray:
    """The sum over ``(plane, K)`` terms (:func:`tilq.tables.cost_terms`), D terminal.

    C_ij K_j of the module docstring is sum over the terms of W_ij
    plane[i, j] K[j].  The weights are applied as h * plane, one matrix
    product per term and segment; column N enters with the terminal term and
    the diagonal's half weight is restored at the end.
    """
    starts = anchors.starts
    N, h, d = tables.grid.N, tables.grid.h, D.shape[-1]
    flats = [(plane, h * _frame_terms(anchors, K).reshape(N + 1, d * d))
             for plane, K in terms]

    def segment_sum(k):
        a, b = starts[k], starts[k + 1]
        out = flats[0][0][:b, a:b] @ flats[0][1][a:b]
        for plane, flat in flats[1:]:
            out += plane[:b, a:b] @ flat[a:b]
        return out.reshape(b, d, d)

    out = np.array(D)
    for plane, K in terms:
        out[:N] += (0.5 * h) * plane[:N, N, None, None] * K[N]
    out = _carry_back(anchors, out, segment_sum)
    for plane, K in terms:
        out[:N] -= (0.5 * h) * np.diagonal(plane)[:N, None, None] * K[:N]
    return out


def _correction_sum(anchors: _Anchors, gain: np.ndarray, tables: SpecTables,
                    upsilon=None) -> np.ndarray:
    """Qbb at every node before symmetrization, or bordered with Upsilon.

    With ``upsilon`` the anchors, the costs and G' are all bordered, and the
    sum is [[Qbb, Sbb], [Sbb^T, omega]] (:mod:`tilq.auxiliary`).
    """
    D = tables.Gdot
    if upsilon is not None:
        D = _border(D, tables.gdot, tables.gdot)
    return _plane_sum(anchors, cost_terms(tables, gain, upsilon), D, tables)


def _qbb_table(gain: np.ndarray, anchors: _Anchors,
               tables: SpecTables) -> np.ndarray:
    """Qbb at every node from the closed loop's anchored propagators."""
    out = _correction_sum(anchors, gain, tables)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _sweep_core(P: np.ndarray, tables: SpecTables):
    """One full sweep: gain, closed loop, Qbb, then the open-loop integral.

    Both nonlocal sums are the anchored sums of the module docstring; the
    open-loop anchors are cached in ``tables``.
    """
    N = tables.grid.N
    gain = _gain_table(P, tables)
    cl = _closed_loop_table(gain, tables)
    qbb = _qbb_table(gain, _anchored(cl), tables)
    inner = tables.Qd - qbb - np.swapaxes(gain, -1, -2) @ (tables.Md @ gain)
    P_out = _open_loop_integral(tables.open_loop_anchors, inner, tables.G_T,
                                tables.grid.h)
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
    P_final, diag = _fixed_point_p(opts, tables)
    gain = _gain_table(P_final, tables)
    cl = _closed_loop_table(gain, tables)
    anchors = _anchored(cl)
    qbb = _qbb_table(gain, anchors, tables)
    warn_if_indefinite(P_final, diag)
    return RiccatiSolution(grid=grid, P=P_final, gain=gain, qbb=qbb,
                           closed_loop=cl, diagnostics=diag, tables=tables,
                           options=opts, _anchors=anchors)


def _fixed_point_p(opts: SolveOptions,
                   tables: SpecTables) -> tuple[np.ndarray, FixedPointDiagnostics]:
    """The damped fixed point for P alone, from ``opts.initial``.

    What :func:`solve_equilibrium_riccati` iterates, without the gain, closed
    loop and Qbb it then rebuilds from the converged P.  Raises
    ConvergenceError with the run's diagnostics.
    """
    def sweep(P):
        return _sweep_core(P, tables)[0]

    P0 = _initial_table(opts.initial, tables.G_T, tables.grid.N, "P")
    return damped_fixed_point(P0, sweep, opts, "equilibrium Riccati")


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
