"""Equilibrium value function, feedback law, trajectories and costs.

The solved tables assemble into the quadratic value function

    V(t, x) = <P(t) x, x> + 2 <phi(t), x> + psi(t),

its gradient 2 P(t) x + 2 phi(t), and the equilibrium feedback

    u(t, x) = -M(t,t)^{-1} (1/2 B^T(t) grad V(t,x) + S(t,t) x + rho(t,t))
            = -K(t) x - k(t),

    K(t) = M(t,t)^{-1} (B^T(t) P(t) + S(t,t)),
    k(t) = M(t,t)^{-1} (B^T(t) phi(t) + rho(t,t)).

Tabulated quantities are interpolated linearly between nodes, consistent
with the trapezoid quadrature used everywhere else (both O(h^2)).

The feedback coefficients K and k are tabulated once per solution, on its
first feedback call, as a stage table (:mod:`tilq.grid`): at the nodes and
at the half nodes t_i + h/2 where RK4 evaluates its middle stages
(:attr:`EquilibriumSolution.feedback_table`); P and phi enter the half
nodes by the same linear interpolation.  It solves through the stage factor
of M(t,t) that :class:`tilq.tables.SpecTables` holds, so its node rows are
the solver's Gain and Upsilon bit for bit.  A feedback call reads one row,
or interpolates linearly between two.  A Python float that is exactly a
stage time, as :func:`simulate_control` forms them, reads ``feedback``'s
row directly: row 2i or 2i + 1 for t_i or t_i + h/2, i = int(t / h), and
row 2i + 2 for the nodes t_{i+1} that int(t / h) puts an interval low, T
among them; these are the rows :func:`_locate_half` finds, at w = 0.  Any
other point evaluation (``feedback``, ``value``, ``grad_value``,
``interp_table``) locates its time once, in Python floats against the
grid's cached node list (:func:`_locate`); ``feedback`` reads its table's
row exactly at a time within HALF_STEP_SNAP half steps of a node or half
node.  A NaN time, or one outside [0, T] by more than 1e-12, raises
TilqError naming it.  The table's node rows are checked once, when it is
built, against the Gain and Upsilon stored by the solver (a guard on an
edited solution): a mismatch beyond FEEDBACK_MATCH_TOL at any node raises
ConsistencyError naming the first failing t.

For small n and m a rollout costs what its numpy calls cost, so each makes
as few as give the same bits.  Under a feedback law with n = m = 1,
:func:`simulate_control` steps on Python floats (:func:`_scalar_rollout`),
and ``feedback`` computes a stage row's control as the float
(-K_j) x - k_j: every numpy product there is a single multiplication, so
the floats are the array loop's.  The law still gets a fresh (1,) float64
array of each stage state.  Stacks, open-loop tables and n or m >= 2 take
the array loop, and ``feedback`` otherwise returns (-K) x - k from a cached
-K; float64 states and controls of the right shape skip conversion; the
step scales by 0-d arrays and doubles by k + k.  Both loops check a law's control with
one helper (:func:`_law_control`).  The stage tables of A, B and b are
indexed per step (with ``item`` on the float loop): per-node lists of row
views or floats would cost megabytes of peak memory.

The equilibrium path from (t_i, x) is Y(s) = E_cl(s, t_i) x + btilde(s,
t_i).  It is read off the anchored products of the closed loop bordered
with its drive (:attr:`EquilibriumSolution.path_anchors`, built once per
solution on first use), in O(N n^2) per path; no table over node pairs is
formed.

Paths and costs are batched.  :func:`_equilibrium_paths` reads the paths
from many (node, state) starts with one batched matrix-vector product per
anchor segment, and stores them flat, path after path (:class:`_Paths`).
:func:`_running_integrals` calls each cost kernel once per batch, on the
flat (t, s) pairs of all its rows, so only where s >= t, and
:func:`_terminal_costs` evaluates the terminal weights once per distinct t.
Each path keeps the one-path trapezoid rule's dot product, and the batched
products are those a single path makes, so a path's states, controls and
costs do not depend on the batch it is in: :func:`simulate_equilibrium`,
:func:`cost` and :func:`error_function_direct` are the one-start case.  A
batch holds about BATCH_BYTES of paths, kernels and costs
(:func:`_batches`, neighbouring starts together), which bounds the memory
of the check battery (:mod:`tilq.verification`) whatever its sample counts.

Cost evaluation freezes the first kernel argument at the evaluation time:
J(t, x; u) integrates Q(t, s), M(t, s), ... over s with t fixed.  That
frozen argument is the defining feature of the whole problem class; the
running-diagonal variant Q(s, s) appears only inside the recursion checks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .auxiliary import (AuxiliarySolution, _bordered_anchors,
                        _trapezoid_increments, solve_auxiliary)
from .errors import ConsistencyError, TilqError
from .grid import TimeGrid, _Anchors, stage_table
from .local import local_expansion, solve_local
from .problem import ProblemSpec, eval_pairs
from .riccati import (RiccatiSolution, SolveOptions, _initial_table,
                      solve_equilibrium_riccati)
from .tables import SpecTables

FEEDBACK_MATCH_TOL = 1e-10
# A time within this many half steps of a node or half node reads that row
# of a half-step table exactly; RK4 stage times t_i + h/2 carry rounding.
HALF_STEP_SNAP = 1e-9
_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class EquilibriumSolution:
    """Solved problem: Riccati and auxiliary parts on a shared grid."""

    spec: ProblemSpec
    grid: TimeGrid
    riccati: RiccatiSolution
    auxiliary: AuxiliarySolution

    @property
    def tables(self) -> SpecTables:
        return self.riccati.tables

    @property
    def converged(self) -> bool:
        return self.riccati.converged and self.auxiliary.converged

    @property
    def method(self) -> str:
        """"local" (one local ODE sweep) or "fixed_point"."""
        return "fixed_point" if self.riccati.expansion is None else "local"

    @cached_property
    def feedback_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(K, k) of the feedback u = -(K x + k) on the half-step grid.

        Shapes (2N+1, m, n) and (2N+1, m): row 2i belongs to node t_i and row
        2i+1 to the half node t_i + h/2.  Built on first use through the
        tables' factor of M(t,t) (:meth:`SpecTables.solve_stages`); its node
        rows must match the stored Gain and Upsilon to FEEDBACK_MATCH_TOL,
        else ConsistencyError names the first failing t and nothing is cached.
        """
        tbl = self.tables
        B = tbl.stages("B")
        K = tbl.solve_stages(np.swapaxes(B, -1, -2) @ stage_table(self.riccati.P)
                             + tbl.stages("Sd"))
        k = tbl.solve_stages(np.einsum("inm,in->im", B,
                                       stage_table(self.auxiliary.phi))
                             + tbl.stages("rhod"))
        _check_node_rows(K[::2], k[::2], self.riccati.gain,
                         self.auxiliary.upsilon, self.grid)
        K.flags.writeable = False
        k.flags.writeable = False
        return K, k

    @cached_property
    def _negated_feedback(self) -> tuple[np.ndarray, np.ndarray]:
        """(-K, k) of :attr:`feedback_table`: u = (-K) x - k, bit for bit."""
        K, k = self.feedback_table
        neg_K = -K
        neg_K.flags.writeable = False
        return neg_K, k

    @cached_property
    def path_anchors(self) -> _Anchors:
        """Anchored products of the closed loop bordered with its drive.

        Built on first use by bordering the closed loop's anchors
        (:attr:`tilq.riccati.RiccatiSolution.closed_loop_anchors`) with the
        trapezoid cells of btilde's sum over the drive b - B Upsilon
        (:func:`tilq.auxiliary._bordered_anchors`): the product from t_i to
        t_j is [[E_cl(t_j, t_i), btilde(t_j, t_i)], [0, 1]].
        """
        riccati = self.riccati
        return _bordered_anchors(riccati.closed_loop_anchors, _trapezoid_increments(
            riccati.closed_loop, self.auxiliary.drive, self.grid.h))


def _check_node_rows(K: np.ndarray, k: np.ndarray, gain: np.ndarray,
                     upsilon: np.ndarray, grid: TimeGrid) -> None:
    """Raise ConsistencyError at the first node where (K, k) != (Gain, Upsilon)."""
    err = np.maximum(np.max(np.abs(K - gain), axis=(1, 2)),
                     np.max(np.abs(k - upsilon), axis=1))
    scale = 1.0 + np.maximum(np.max(np.abs(K), axis=(1, 2)),
                             np.max(np.abs(k), axis=1))
    bad = np.flatnonzero(~(err <= FEEDBACK_MATCH_TOL * scale))  # NaN fails too
    if bad.size:
        t = float(grid.nodes[bad[0]])
        raise ConsistencyError(
            f"feedback mismatch at node t={t:.6g}: the tabulated feedback "
            f"and the stored gain form differ beyond {FEEDBACK_MATCH_TOL}")


def solve_equilibrium(spec: ProblemSpec, grid: TimeGrid,
                      riccati_opts: SolveOptions | None = None,
                      phi_opts: SolveOptions | None = None) -> EquilibriumSolution:
    """Full solve of the equilibrium Riccati, affine and scalar terms.

    A separable problem whose discount derivative has an exponential-sum fit
    on [0, T] (:func:`tilq.local.local_expansion`) is solved by one local
    ODE sweep, which iterates nothing: the options' tolerance, iteration and
    damping settings do not apply to it, but their ``initial`` tables are
    checked the same way on both paths.  Every other problem goes through the
    Riccati fixed point and then the Picard iteration for the affine term,
    controlled by ``riccati_opts`` and ``phi_opts``.
    """
    expansion = local_expansion(spec)
    if expansion is not None:
        n = spec.dims.n
        for opts, shape, what in ((riccati_opts, (n, n), "P"),
                                  (phi_opts, (n,), "phi")):
            if opts is not None:
                _initial_table(opts.initial, np.zeros(shape), grid.N, what)
        riccati, auxiliary = solve_local(spec, grid, expansion)
    else:
        riccati = solve_equilibrium_riccati(spec, grid, riccati_opts)
        auxiliary = solve_auxiliary(spec, grid, riccati, phi_opts)
    return EquilibriumSolution(spec=spec, grid=grid, riccati=riccati,
                               auxiliary=auxiliary)


@dataclass(frozen=True)
class Trajectory:
    """States and node controls over k nodes from one start state.

    A stack of S runs from the same start (n,) under S open-loop tables has
    states (S, k, n) and controls (S, k, m).
    """

    start_index: int
    start_state: np.ndarray  # (n,)
    times: np.ndarray     # nodes t_i, start_index <= i, k of them
    states: np.ndarray    # (k, n)
    controls: np.ndarray  # (k, m), the control applied at each node

    def __post_init__(self):
        # np.allclose's test (rtol 1e-5, atol 1e-8, NaN fails) without its
        # overhead; the simulations start exactly at the start state
        start, want = self.states[..., 0, :], self.start_state
        close = start == want
        if not close.all():
            with np.errstate(invalid="ignore"):  # inf - inf
                close |= abs(start - want) <= 1e-8 + 1e-5 * abs(want)
            if not close.all():
                raise TilqError("trajectory does not start at its start state")


# ---------------------------------------------------------------------------
# interpolation helpers


def _locate(grid: TimeGrid, t: float) -> tuple[int, float]:
    """Interval i and weight w in [0, 1] of time t, as Python numbers.

    A t within 1e-12 of [0, T] is clamped into it; any other t, NaN
    included, raises TilqError naming it.
    """
    t = float(t)
    T = grid.T
    if not -1e-12 <= t <= T + 1e-12:  # NaN fails too
        raise TilqError(f"time {t} outside [0, {T}]")
    if t < 0.0:
        t = 0.0
    elif t > T:
        t = T
    h = grid.h
    i = int(t / h)
    if i >= grid.N:
        i = grid.N - 1
    return i, (t - grid._times[i]) / h


def _row(table: np.ndarray, i: int, w: float) -> np.ndarray:
    """Row i of a node table, or w of the way from it to row i + 1."""
    if w == 0.0:
        return table[i]
    return (1.0 - w) * table[i] + w * table[i + 1]


def interp_table(table: np.ndarray, grid: TimeGrid, t: float) -> np.ndarray:
    """Linear interpolation of a node-tabulated quantity."""
    return _row(table, *_locate(grid, t))


def _locate_half(grid: TimeGrid, t: float) -> tuple[int, float]:
    """Row j and weight w in [0, 1) of time t in a half-step table.

    w is 0 at a node or half node, up to HALF_STEP_SNAP.
    """
    i, w = _locate(grid, t)
    q = 2.0 * w
    j = round(q)
    if abs(q - j) <= HALF_STEP_SNAP:
        return 2 * i + j, 0.0
    j = int(q)
    return 2 * i + j, q - j


# ---------------------------------------------------------------------------
# value function and feedback


def _state(x, n: int, what: str = "state") -> np.ndarray:
    """x as an (n,) array; TilqError naming ``what`` and both shapes otherwise.

    A float64 ndarray of shape (n,) is returned as it is."""
    if type(x) is np.ndarray and x.dtype == _FLOAT and x.shape == (n,):
        return x
    x = np.asarray(x, dtype=float)
    try:
        return x.reshape(n)
    except ValueError:
        raise TilqError(f"{what} has shape {x.shape}; expected ({n},)") from None


def value(sol: EquilibriumSolution, t: float, x) -> float:
    """V(t, x) from the interpolated quadratic form."""
    x = _state(x, sol.spec.dims.n)
    i, w = _locate(sol.grid, t)
    P = _row(sol.riccati.P, i, w)
    phi = _row(sol.auxiliary.phi, i, w)
    psi = float(_row(sol.auxiliary.psi, i, w))
    return float(x.dot(P).dot(x) + (2.0 * phi).dot(x) + psi)


def grad_value(sol: EquilibriumSolution, t: float, x) -> np.ndarray:
    """State gradient of V: 2 P(t) x + 2 phi(t)."""
    x = _state(x, sol.spec.dims.n)
    i, w = _locate(sol.grid, t)
    P = _row(sol.riccati.P, i, w)
    phi = _row(sol.auxiliary.phi, i, w)
    return 2.0 * P.dot(x) + 2.0 * phi


def feedback(sol: EquilibriumSolution, t: float, x) -> np.ndarray:
    """Equilibrium control u(t, x) = -(K(t) x + k(t)).

    Reads :attr:`EquilibriumSolution.feedback_table`: the exact row at a node
    or half node, linear interpolation between them elsewhere (O(h^2), like
    P and phi).  The table's node rows were checked against the stored Gain
    and Upsilon when it was built.
    """
    dims = sol.spec.dims
    x = _state(x, dims.n)
    neg_K, k = sol._negated_feedback
    grid = sol.grid
    if type(t) is float and 0.0 <= t <= grid.T:  # an RK4 stage time: its row
        i = int(t / grid.h)  # at most N, since t <= T
        times = grid._times
        t_i = times[i]
        if t == t_i:
            j = 2 * i
        elif t == t_i + 0.5 * grid.h:
            j = 2 * i + 1
        elif i < grid.N and t == times[i + 1]:  # int(t / h) one interval low
            j = 2 * i + 2
        else:
            j = -1
        if j >= 0:
            if dims.n == dims.m == 1:  # one multiplication, as the dot makes it
                return np.array([neg_K.item(j) * x.item() - k.item(j)])
            return neg_K[j].dot(x) - k[j]
    j, w = _locate_half(grid, t)
    u = neg_K[j].dot(x) - k[j]
    if w:
        u = (1.0 - w) * u + w * (neg_K[j + 1].dot(x) - k[j + 1])
    return u


# ---------------------------------------------------------------------------
# simulation


def simulate_control(spec: ProblemSpec, grid: TimeGrid, u, t_idx: int, x,
                     stop_idx: int | None = None,
                     tables: SpecTables | None = None) -> Trajectory:
    """RK4 integration of y' = A y + B u + b under a given control.

    Integration runs from one start state x (n,) at node t_idx to stop_idx
    (default the horizon), over the k = stop_idx - t_idx + 1 nodes of that
    range.  ``u`` is either a feedback law (t, y) -> control, called on
    every stage state, or an open-loop table (k, m) of the controls at those
    nodes, interpolated linearly onto the stage times once per call.  A
    stack of S such tables (S, k, m) advances S runs from x in one RK4
    loop; their trajectory holds states (S, k, n) and controls (S, k, m).
    Any other shape raises TilqError.  A feedback law with n = m = 1 is
    stepped on Python floats, to the same bits (:func:`_scalar_rollout`).
    """
    if tables is None:
        tables = SpecTables(spec, grid)
    n, m = spec.dims.n, spec.dims.m
    N = grid.N
    t_idx = _node_index(t_idx, N)
    stop_idx = N if stop_idx is None else _node_index(stop_idx, N)
    if t_idx > stop_idx:
        raise TilqError(f"node range [{t_idx}, {stop_idx}] invalid for N={N}")
    k = stop_idx - t_idx + 1
    first = 2 * t_idx  # the start node's row of a stage table
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise TilqError(f"start state has shape {x.shape}; expected ({n},)")
    if callable(u):
        if n == m == 1:
            return _scalar_rollout(u, tables, grid, t_idx, stop_idx, x)
        runs = 0

        def control(j, t, y):
            return _law_control(u(t, y), m, t)
    else:
        u = np.asarray(u, dtype=float)
        if u.ndim not in (2, 3) or u.shape[-2:] != (k, m) or not u.size:
            raise TilqError(f"open-loop control table has shape {u.shape}; "
                            f"expected the node range's ({k}, {m}) or a "
                            f"stack (S, {k}, {m})")
        runs = len(u) if u.ndim == 3 else 0
        if runs:
            u = np.moveaxis(u, 0, -1)  # runs along the last axis, like y
        stages = stage_table(u)

        def control(j, t, y):
            return stages[j - first]
    # a stack of runs is carried as the columns of y, so the stages below
    # are the same matrix products for one run and for many
    A, B, b = tables.stages("A"), tables.stages("B"), tables.stages("b")
    shape = (n, runs) if runs else (n,)
    if runs:
        b = b[..., None]
    times = grid._times
    h = grid.h
    half = 0.5 * h  # stage times stay Python floats
    h_half, h_full, h_sixth = np.array(half), np.array(h), np.array(h / 6.0)
    states = np.empty((k,) + shape)
    controls = np.empty((k, m) + shape[1:])
    states[0] = x[:, None] if runs else x
    y = states[0]
    # each step's end-node operands are the next step's; node i is stage 2i
    t1, A1, B1, b1 = times[t_idx], A[first], B[first], b[first]
    for step, j in enumerate(range(first, 2 * stop_idx, 2)):
        t0, A0, B0, b0 = t1, A1, B1, b1
        jm, j1 = j + 1, j + 2
        t1, A1, B1, b1 = times[t_idx + step + 1], A[j1], B[j1], b[j1]
        tm = t0 + half
        Am, Bm, bm = A[jm], B[jm], b[jm]
        u0 = control(j, t0, y)
        controls[step] = u0
        k1 = A0.dot(y) + B0.dot(u0) + b0
        y2 = y + h_half * k1
        k2 = Am.dot(y2) + Bm.dot(control(jm, tm, y2)) + bm
        y3 = y + h_half * k2
        k3 = Am.dot(y3) + Bm.dot(control(jm, tm, y3)) + bm
        y4 = y + h_full * k3
        k4 = A1.dot(y4) + B1.dot(control(j1, t1, y4)) + b1
        y = y + h_sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)
        states[step + 1] = y
    controls[-1] = control(2 * stop_idx, t1, y)
    if runs:
        states = np.moveaxis(states, -1, 0)
        controls = np.moveaxis(controls, -1, 0)
    return Trajectory(start_index=t_idx, start_state=np.array(x),
                      times=grid.nodes[t_idx:stop_idx + 1],
                      states=states, controls=controls)


def _law_control(out, m: int, t) -> np.ndarray:
    """A feedback law's control at t as an (m,) float64 array, else TilqError.

    A float64 ndarray of shape (m,) is returned as it is."""
    if type(out) is np.ndarray and out.dtype == _FLOAT and out.shape == (m,):
        return out
    out = np.asarray(out, dtype=float)
    try:
        return out.reshape(m)
    except ValueError:
        raise TilqError(f"feedback law returned shape {out.shape} at "
                        f"t={t!r}; expected ({m},)") from None


def _scalar_rollout(law, tables: SpecTables, grid: TimeGrid, t_idx: int,
                    stop_idx: int, x: np.ndarray) -> Trajectory:
    """:func:`simulate_control`'s loop under a feedback law for n = m = 1.

    Every product of the array loop is then one multiplication, so this loop
    makes the same operations on Python floats, in the same order, and its
    states and controls are that loop's bits.  The stage coefficients are
    read per step with ``item``; the law gets a fresh (1,) float64 array of
    each stage state.
    """
    A, B, b = (tables.stages(name).ravel() for name in ("A", "B", "b"))
    times, h = grid._times, grid.h
    half, sixth = 0.5 * h, h / 6.0
    k = stop_idx - t_idx + 1
    states, controls = np.empty(k), np.empty(k)

    def control(t, y):
        return _law_control(law(t, np.array([y])), 1, t).item()

    y = states[0] = x.item()
    j = 2 * t_idx  # the start node's row of a stage table
    t1, A1, B1, b1 = times[t_idx], A.item(j), B.item(j), b.item(j)
    for step in range(k - 1):
        t0, A0, B0, b0 = t1, A1, B1, b1
        Am, Bm, bm = A.item(j + 1), B.item(j + 1), b.item(j + 1)
        j += 2
        t1, A1, B1, b1 = times[t_idx + step + 1], A.item(j), B.item(j), b.item(j)
        tm = t0 + half
        u0 = controls[step] = control(t0, y)
        k1 = A0 * y + B0 * u0 + b0
        y2 = y + half * k1
        k2 = Am * y2 + Bm * control(tm, y2) + bm
        y3 = y + half * k2
        k3 = Am * y3 + Bm * control(tm, y3) + bm
        y4 = y + h * k3
        k4 = A1 * y4 + B1 * control(t1, y4) + b1
        y = states[step + 1] = y + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)
    controls[-1] = control(t1, y)
    return Trajectory(start_index=t_idx, start_state=np.array(x),
                      times=grid.nodes[t_idx:stop_idx + 1],
                      states=states.reshape(k, 1), controls=controls.reshape(k, 1))


def _node_index(t_idx, N: int) -> int:
    """``t_idx`` as a node index: an integer in [0, N], else TilqError."""
    try:
        i = operator.index(t_idx)
    except TypeError:
        i = -1
    if not 0 <= i <= N:
        raise TilqError(f"node index {t_idx!r} invalid for N={N}")
    return i


def simulate_equilibrium(sol: EquilibriumSolution, t_idx: int, x) -> Trajectory:
    """Equilibrium trajectory from the closed loop's bordered anchors.

    Y(s) = E_cl(s, t) x + btilde(s, t) node for node, with the node controls
    -Gain Y - Upsilon: the one-start case of :func:`_equilibrium_paths`.
    Row 0 is x exactly.  No table over node pairs is formed and nothing is
    re-integrated: this is the representation the closed-form analysis
    uses, and it doubles as an independent cross-check of
    :func:`simulate_control` run with the feedback law.
    """
    t_idx = _node_index(t_idx, sol.grid.N)
    x = _state(x, sol.spec.dims.n)
    paths = _equilibrium_paths(sol, np.array([t_idx]), x[None])
    return Trajectory(start_index=t_idx, start_state=x,
                      times=sol.grid.nodes[t_idx:],
                      states=paths.states, controls=paths.controls)


# ---------------------------------------------------------------------------
# batched paths and costs


# Bytes of one batch of paths: a batch's states, controls, kernel rows and
# running costs together stay within about this much memory.
BATCH_BYTES = 1 << 20


@dataclass(frozen=True)
class _Paths:
    """Node-by-node paths stored flat: path p is rows offsets[p]:offsets[p+1].

    Its rows belong to the nodes first[p], first[p] + 1, ... in turn.
    """

    first: np.ndarray     # (P,) node of each path's first row
    offsets: np.ndarray   # (P + 1,)
    states: np.ndarray    # (rows, n)
    controls: np.ndarray  # (rows, m)

    @property
    def nodes(self) -> np.ndarray:
        """The node of every row."""
        lengths = np.diff(self.offsets)
        return (np.arange(self.offsets[-1])
                - np.repeat(self.offsets[:-1] - self.first, lengths))

    @property
    def ends(self) -> np.ndarray:
        """Each path's last state, (P, n)."""
        return self.states[self.offsets[1:] - 1]


def _joined(a: _Paths, b: _Paths) -> _Paths:
    """The paths of ``a`` followed by those of ``b``, as one flat set."""
    offsets = np.concatenate([a.offsets, a.offsets[-1] + b.offsets[1:]])
    return _Paths(first=np.concatenate([a.first, b.first]), offsets=offsets,
                  states=np.concatenate([a.states, b.states]),
                  controls=np.concatenate([a.controls, b.controls]))


def _row_bytes(spec: ProblemSpec) -> int:
    """Bytes a batch holds per path node: states, kernels, costs, temporaries."""
    n, m = spec.dims.n, spec.dims.m
    return 8 * (n * n + m * n + m * m + 2 * n + 2 * m + 8)


def _batches(starts, rows, row_bytes: int):
    """Index arrays of the items, taken by increasing start, in batches.

    Item k has ``rows[k]`` path nodes of ``row_bytes`` each, and a batch's
    rows add up to about BATCH_BYTES; every batch holds one item at least.
    Neighbouring starts share a batch, so its paths span few unused nodes.
    """
    order = np.argsort(starts, kind="stable")
    ends = np.cumsum(np.asarray(rows)[order]) * row_bytes
    lo = 0
    while lo < len(order):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + BATCH_BYTES, side="right")),
                 lo + 1)
        yield order[lo:hi]
        lo = hi


def _equilibrium_paths(sol: EquilibriumSolution, starts: np.ndarray,
                       X: np.ndarray) -> _Paths:
    """Equilibrium paths from the nodes ``starts`` (P,) at the states X (P, n).

    [Y(t_j); 1] = psi_j psi_i^{-1} [x; 1] over the anchors of
    :attr:`EquilibriumSolution.path_anchors`.  Per anchor segment, the
    vectors v = psi_i^{-1} [x; 1] of the paths under way there are moved
    into it (through the previous segment's link, or from their start) and
    its rows psi_j are applied to all of them by one batched matrix-vector
    product, from the first node any of them needs.  A path's rows do not
    depend on the batch it is in.  Each path's first state is its x exactly.
    """
    N, n = sol.grid.N, sol.spec.dims.n
    anchors = sol.path_anchors
    order = np.argsort(starts, kind="stable")
    first = starts[order]   # sorted: the paths under way are a prefix
    P, lo = len(first), int(first[0])
    X_bar = np.ones((P, n + 1))
    X_bar[:, :n] = X[order]
    rows = anchors.psi.reshape(-1, n + 1)  # psi_j's rows, node after node
    bordered = np.empty((P, N + 1 - lo, n + 1))  # [Y(t_j); 1], from node lo
    v = np.empty((P, n + 1, 1))
    bounds = anchors.starts.tolist() + [N + 1]
    begun = 0
    for seg in range(int(np.searchsorted(anchors.starts, lo, side="right")) - 1,
                     len(bounds) - 1):
        a, b = max(bounds[seg], lo), bounds[seg + 1]
        upto = int(np.searchsorted(first, b))  # paths begun before b
        if upto > begun:
            v[begun:upto] = np.matmul(anchors.inv[first[begun:upto]],
                                      X_bar[begun:upto, :, None])
            begun = upto
        out = np.matmul(rows[a * (n + 1):b * (n + 1)], v[:upto])
        bordered[:upto, a - lo:b - lo] = out.reshape(upto, b - a, n + 1)
        if b <= N:
            v[:upto] = np.matmul(anchors.links[seg], v[:upto])
    lengths = N + 1 - starts
    offsets = np.zeros(P + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    # flat row r of path p (caller's order) is its node's row of bordered
    where = np.empty(P, dtype=np.intp)
    where[order] = np.arange(P)
    shift = where * (N + 1 - lo) + (starts - lo) - offsets[:-1]
    flat = np.arange(offsets[-1]) + np.repeat(shift, lengths)
    states = bordered.reshape(-1, n + 1)[flat, :n]
    nodes = flat % (N + 1 - lo) + lo
    states[offsets[:-1]] = X
    controls = -(np.einsum("jmn,jn->jm", sol.riccati.gain[nodes], states)
                 + sol.auxiliary.upsilon[nodes])
    return _Paths(first=starts, offsets=offsets, states=states,
                  controls=controls)


# ---------------------------------------------------------------------------
# cost and error functions


def _running_cost(kernels, Y: np.ndarray, U: np.ndarray,
                  start=0.0) -> np.ndarray:
    """start + <Q y, y> + 2 <S y, u> + <M u, u> + 2 <q, y> + 2 <rho, u> per node.

    ``kernels`` yields Q, S, M, q, rho in turn; a generator that evaluates
    each as it is asked for holds one kernel table at a time.  The terms are
    added left to right onto ``start``.  ``Y`` and ``U`` may carry leading
    stack axes, one path per run.
    """
    kernels = iter(kernels)
    out = start + np.einsum("jab,...jb,...ja->...j", next(kernels), Y, Y)
    out += 2.0 * np.einsum("jmn,...jn,...jm->...j", next(kernels), Y, U)
    out += np.einsum("jmp,...jp,...jm->...j", next(kernels), U, U)
    out += 2.0 * np.einsum("ja,...ja->...j", next(kernels), Y)
    out += 2.0 * np.einsum("jm,...jm->...j", next(kernels), U)
    return out


def _quadratic_form(mat, vec, const, x) -> np.ndarray:
    """<mat x, x> + 2 <vec, x> + const, over the operands' leading axes."""
    return (np.einsum("...a,...ab,...b->...", x, mat, x)
            + 2.0 * np.einsum("...a,...a->...", vec, x) + const)


def _running_integrals(spec: ProblemSpec, grid: TimeGrid, frozen: np.ndarray,
                       paths: _Paths, derivative: bool = False) -> np.ndarray:
    """Trapezoid integral of each path's running cost, kernels frozen at t.

    Path p's kernels Q, S, M, q, rho are taken at (t, s), t =
    nodes[frozen[p]], over its nodes s.  Each kernel is called once, on the
    flat (t, s) pairs of all rows, so only where s >= t.  With
    ``derivative`` they are the kernels' t-derivatives.  Each integral is
    the one-path rule's dot product, so it does not depend on the batch.
    """
    lengths = np.diff(paths.offsets)
    t_rows = np.repeat(grid.nodes[frozen], lengths)
    s = grid.nodes[paths.nodes]
    kernels = (
        eval_pairs(f.dvalue_dt if derivative else f.value, t_rows, s, f.shape)
        for f in (spec.Q, spec.S, spec.M, spec.q, spec.rho))
    run = _running_cost(kernels, paths.states, paths.controls)
    weights = np.full(len(run), grid.h)
    weights[paths.offsets[:-1]] = weights[paths.offsets[1:] - 1] = 0.5 * grid.h
    out = np.zeros(len(lengths))
    for p, (a, b) in enumerate(zip(paths.offsets[:-1].tolist(),
                                   paths.offsets[1:].tolist())):
        if b - a > 1:
            out[p] = weights[a:b].dot(run[a:b])
    return out


def _terminal_costs(spec: ProblemSpec, grid: TimeGrid, frozen: np.ndarray,
                    ends: np.ndarray, derivative: bool = False) -> np.ndarray:
    """<G(t) y, y> + 2 <g(t), y> per end state y = ends[p], t = nodes[frozen[p]].

    With ``derivative`` the form is in G'(t), g'(t).  The weights are
    evaluated once per distinct t, and the forms by batched products whose
    floats are the one-state form's.
    """
    term = spec.terminal
    G, g = (term.dG_dt, term.dg_dt) if derivative else (term.G, term.g)
    times = grid.nodes[frozen].tolist()
    at = {}
    for t in times:
        if t not in at:
            at[t] = (np.asarray(G(t), dtype=float),
                     2.0 * np.asarray(g(t), dtype=float).reshape(-1))
    G_p = np.array([at[t][0] for t in times])
    g2_p = np.array([at[t][1] for t in times])
    col = ends[:, :, None]
    return (np.matmul(np.matmul(ends[:, None, :], G_p), col)
            + np.matmul(g2_p[:, None, :], col))[:, 0, 0]


def _equilibrium_costs(sol: EquilibriumSolution, starts, X,
                       derivative: bool = False) -> np.ndarray:
    """J(t, x) along the equilibrium from each start, kernels frozen at t.

    With ``derivative`` it is the error function R(t, x) instead.  The
    starts go through :func:`_equilibrium_paths`, :func:`_running_integrals`
    and :func:`_terminal_costs` in batches of about BATCH_BYTES.
    """
    spec, grid = sol.spec, sol.grid
    starts = np.asarray(starts, dtype=np.intp)
    X = np.asarray(X, dtype=float)
    out = np.empty(len(starts))
    for part in _batches(starts, grid.N + 1 - starts, _row_bytes(spec)):
        at = starts[part]
        paths = _equilibrium_paths(sol, at, X[part])
        out[part] = (_running_integrals(spec, grid, at, paths, derivative)
                     + _terminal_costs(spec, grid, at, paths.ends, derivative))
    return out


def cost(spec: ProblemSpec, grid: TimeGrid, traj: Trajectory, t_idx: int) -> float:
    """J(t, x; u) along a trajectory, kernels frozen at t = nodes[t_idx]."""
    if traj.start_index != t_idx:
        raise TilqError(f"trajectory starts at node {traj.start_index}, "
                        f"cost requested from node {t_idx}")
    k, (n, m) = grid.N + 1 - t_idx, (spec.dims.n, spec.dims.m)
    if traj.states.shape != (k, n) or traj.controls.shape != (k, m):
        raise TilqError(f"trajectory has states {traj.states.shape} and controls "
                        f"{traj.controls.shape}; cost from node {t_idx} expects "
                        f"one run over [t, T], ({k}, {n}) and ({k}, {m})")
    start = np.array([t_idx])
    paths = _Paths(first=start, offsets=np.array([0, grid.N + 1 - t_idx]),
                   states=traj.states, controls=traj.controls)
    return float(_running_integrals(spec, grid, start, paths)[0]
                 + _terminal_costs(spec, grid, start, paths.ends)[0])


def error_function_direct(sol: EquilibriumSolution, t_idx: int, x) -> float:
    """Equilibrium cost re-weighting R(t, x) from its defining integral.

    Simulates the equilibrium path from (t, x) and integrates the kernel
    time-derivatives along it; the terminal term uses G'(t), g'(t).
    """
    t_idx = _node_index(t_idx, sol.grid.N)
    x = _state(x, sol.spec.dims.n)
    return float(_equilibrium_costs(sol, [t_idx], x[None], derivative=True)[0])


def error_function_closed(sol: EquilibriumSolution, t_idx, x):
    """R(t, x) = <Qbb(t) x, x> + 2 <Sbb(t), x> + omega(t) from stored tables.

    ``t_idx`` is one node, giving a float for one state (n,), or a slice of
    nodes.  States (..., n) broadcast against the nodes' tables, so a slice
    takes one state per node on the second-to-last axis, below any stack
    axes, and gives an array of the states' leading shape.  A node index
    outside [0, N] raises TilqError.
    """
    if not isinstance(t_idx, slice):
        t_idx = _node_index(t_idx, sol.grid.N)
    R = _quadratic_form(sol.riccati.qbb[t_idx], sol.auxiliary.sbb[t_idx],
                        sol.auxiliary.omega[t_idx], np.asarray(x, dtype=float))
    return float(R) if R.ndim == 0 else R
