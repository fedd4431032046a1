"""Uniform time grids, trapezoid quadrature, and one-step propagators.

Propagators Phi(t_i, t_j) of a linear system x' = F(t) x are built one grid
step at a time with classical fourth-order Runge-Kutta
(:func:`_rk4_linear_steps`) from F's stage table: F at the 2N + 1 stage
times t_0, t_0 + h/2, t_1, ..., t_N (:func:`stage_table`), whose rows 2i,
2i + 1 and 2i + 2 the step over [t_i, t_{i+1}] reads.  This coincides with
the matrix-exponential formula exp(int F) whenever the system matrices
commute pairwise and is the correct fundamental solution in general.  The
solvers take the open-loop steps and the closed loop F = A - B Gain
(:func:`closed_loop_matrices`) from the stage tables of
:class:`tilq.tables.SpecTables`, and keep only the one-step propagators.
A drive, y' = F y + w, adds its zero-state response over each step, by the
same tableau (:func:`_rk4_drive_increments`).

:func:`_anchored` forms the fundamental matrices of a system from its steps,
anchored segment by segment, for the fixed-point path's sums, by one
log-depth scan within each segment.  The affine solve anchors nothing of its
own: it borders the closed loop's anchors with its drive
(:func:`tilq.auxiliary._bordered_anchors`), and its Picard pass steps phi
backward over them, transposed (:func:`tilq.auxiliary._affine_backward_rk4`).
Anchors are read-only once built.  No propagator is formed for every node
pair.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TilqError, _require_count, _require_real
from .problem import _Constant


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N intervals."""

    T: float
    N: int
    nodes: np.ndarray = field(repr=False)

    @cached_property
    def h(self) -> float:
        return self.T / self.N

    @property
    def half_nodes(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @cached_property
    def stage_times(self) -> np.ndarray:
        """t_0, t_0 + h/2, t_1, ..., t_N: the 2N + 1 RK4 stage times, read-only."""
        times = stage_table(self.nodes)
        times.flags.writeable = False
        return times

    @cached_property
    def _times(self) -> list[float]:
        """The nodes as Python floats, for per-call time lookups."""
        return self.nodes.tolist()


def build_grid(T: float, N: int) -> TimeGrid:
    """Uniform grid with nodes i*T/N, i = 0..N.

    Raises for horizons that are not positive and finite, and for N < 2 (a
    single interval cannot support the interior quadrature and differencing
    stencils used here).
    """
    _require_real("horizon", T)
    if not 0 < T < math.inf:
        raise TilqError(f"horizon must be positive and finite, got {T!r}")
    _require_count("N", N)
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


def stage_table(at_nodes: np.ndarray, at_half: np.ndarray | None = None) -> np.ndarray:
    """Row 2i ``at_nodes[i]``, row 2i + 1 ``at_half[i]``, by default the
    linear interpolant 0.5 (at_nodes[i] + at_nodes[i + 1])."""
    if at_half is None:
        at_half = 0.5 * (at_nodes[:-1] + at_nodes[1:])
    out = np.empty((2 * len(at_half) + 1,) + at_nodes.shape[1:])
    out[0::2] = at_nodes
    out[1::2] = at_half
    return out


def _rk4_linear_steps(A: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 propagators for X' = A(s) X on every grid interval.

    ``A`` is a stage table.  The one-step map of a linear system is itself
    linear, so each factor is the matrix I + h/6 (k1 + 2 k2 + 2 k3 + k4)
    with the stages evaluated on the identity.
    """
    n = A.shape[-1]
    eye = np.eye(n)
    k1 = A[:-1:2]
    k2 = A[1::2] @ (eye + 0.5 * h * k1)
    k3 = A[1::2] @ (eye + 0.5 * h * k2)
    k4 = A[2::2] @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_drive_increments(F: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Zero-state RK4 response of y' = F(s) y + w(s) over every grid interval.

    ``F`` and ``w`` are stage tables.  RK4's step from y_i is Phi_i y_i plus
    this increment, Phi_i the factor of :func:`_rk4_linear_steps`.
    """
    Fm, wm = F[1::2], w[1::2]
    k1 = w[:-1:2]
    k2 = 0.5 * h * _matvec(Fm, k1) + wm
    k3 = 0.5 * h * _matvec(Fm, k2) + wm
    k4 = h * _matvec(F[2::2], k3) + w[2::2]
    return (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats_i vecs_i for every i."""
    return (mats @ vecs[..., None])[..., 0]


def zero_below_diagonal(pairs: np.ndarray) -> np.ndarray:
    """Zero the entries [..., i, j] with j < i of a pair table, in place."""
    np.copyto(pairs, 0.0, where=np.tri(*pairs.shape[-2:], k=-1, dtype=bool))
    return pairs


# Not called by the solvers; perfbench/spans.py wraps _build_full.
class TransitionTable:
    """Propagators Phi(t_i, t_j), j <= i, of a linear time-varying system.

    Holds the one-step factors; :meth:`pair_table` builds the (N+1)^2 pair
    table on first use and keeps it.
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


# Bound on the 2-norm condition number of the anchored fundamental matrices
# of :func:`_anchored`.  A sum anchored at t_a loses about eps * cond^2 of
# them to rounding (see :mod:`tilq.riccati`).
ANCHOR_COND = 1e2


@dataclass(frozen=True)
class _Anchors:
    """Fundamental matrices of a linear system, anchored segment by segment.

    Segment k holds the nodes starts[k] <= j < starts[k+1].  The last start
    is N, and node N is a segment of its own.  ``psi[j]`` is Phi(t_j, t_a)
    for the start a of node j's segment, so psi[a] = I and psi[N] = I, and
    ``inv[j]`` is its inverse.  ``links[k]`` = Phi(t_{starts[k+1]},
    t_{starts[k]}), so Phi(t_j, t_{starts[k]}) = psi[j] links[k] for the
    nodes j of segment k+1.
    """

    starts: np.ndarray
    psi: np.ndarray
    inv: np.ndarray
    links: np.ndarray

    def __post_init__(self):
        for products in (self.starts, self.psi, self.inv, self.links):
            products.flags.writeable = False


def _anchored(steps: np.ndarray) -> _Anchors:
    """Anchored products of the one-step propagators ``steps``.

    A step with delta = ||Phi_i - I||_F < 1 has 2-norm condition number at
    most (1 + delta) / (1 - delta), and a product's condition number is at
    most the product of its factors'.  Each segment runs for as long as that
    bound stays within ANCHOR_COND, and for one step at least, so a step
    past the bound is a segment of its own.  The products within each
    segment are formed by a log-depth (Hillis-Steele) scan of its own.
    """
    N, n = steps.shape[0], steps.shape[-1]
    eye = np.eye(n)
    delta = np.linalg.norm(steps - eye, axis=(-2, -1))
    limit = np.log(ANCHOR_COND)
    step_log = np.full(N, np.inf)
    ok = delta < 1.0
    step_log[ok] = np.log1p(delta[ok]) - np.log1p(-delta[ok])
    # capped past the limit, so the running sum stays finite for a finite bound
    bound = np.concatenate([[0.0], np.cumsum(np.minimum(step_log, limit + 1.0))])
    bound = bound.tolist()  # one cheap bisection per segment, however many
    starts = [0]
    while starts[-1] < N:
        a = starts[-1]
        b = bisect.bisect_right(bound, bound[a] + limit) - 1
        starts.append(min(max(b, a + 1), N))
    psi = np.empty((N + 1, n, n))
    psi[1:] = steps
    for a, b in zip(starts, starts[1:] + [N + 1]):
        # Hillis-Steele: after the pass of stride d, seg[j] is the product
        # of the last min(2d, j) steps into node a + j
        seg = psi[a:b]
        seg[0] = eye
        d = 1
        while d < len(seg):
            seg[d:] = seg[d:] @ seg[:-d]
            d *= 2
    starts = np.array(starts)
    last = starts[1:] - 1
    return _Anchors(starts=starts, psi=psi, inv=np.linalg.inv(psi),
                    links=steps[last] @ psi[last])


def _eval_dynamics(fn, times: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """Table (len(times),) + shape of the dynamics coefficient ``name`` = fn(t).

    A constant coefficient (:class:`tilq.problem._Constant`) is repeated,
    not called; any other callable is called once per time, in one list
    pass.  A value may come in any shape of the right size; one of another
    size raises TilqError naming the coefficient and the first such time.
    """
    const = isinstance(fn, _Constant)
    values = [fn.value] if const else [fn(t) for t in times.tolist()]
    try:
        table = np.asarray(values, dtype=float).reshape((len(values),) + shape)
    except ValueError:
        table = np.empty((len(values),) + shape)
        for k, value in enumerate(values):
            value = np.asarray(value, dtype=float)
            if value.size != math.prod(shape):
                raise TilqError(f"dynamics coefficient {name} has shape "
                                f"{value.shape} at t={times[k]:.6g}, expected "
                                f"{shape}") from None
            table[k] = value.reshape(shape)
    return np.repeat(table, len(times), axis=0) if const else table


# Not called by the solvers; perfbench/spans.py wraps it in tilq.riccati.
def open_loop_transition(dynamics, grid: TimeGrid) -> TransitionTable:
    """Fundamental-solution table of x' = A(t) x."""
    n = np.asarray(dynamics.A(0.0), dtype=float).shape[0]
    A = _eval_dynamics(dynamics.A, grid.stage_times, (n, n), "A")
    return TransitionTable(grid, _rk4_linear_steps(A, grid.h))


def closed_loop_matrices(A: np.ndarray, B: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """A - B Gain on the stage table, from A and B there and Gain at the nodes."""
    return A - B @ stage_table(gain)


def closed_loop_drive(b: np.ndarray, B: np.ndarray,
                      upsilon: np.ndarray) -> np.ndarray:
    """The closed loop's drive b - B Upsilon at each tabulated time."""
    return b - np.einsum("tab,tb->ta", B, upsilon)


def _border(X: np.ndarray, col, row=0.0, corner=0.0) -> np.ndarray:
    """[[X, col], [row, corner]] for a stack X (..., n, n), the rest broadcast."""
    n = X.shape[-1]
    out = np.zeros(X.shape[:-2] + (n + 1, n + 1))
    out[..., :n, :n], out[..., :n, n], out[..., n, :n] = X, col, row
    out[..., n, n] = corner
    return out
