"""Problem data: dynamics, two-time cost kernels, terminal weights, kernels.

The cost of a control applied from time t onward is weighted by kernels
Q(t, s), S(t, s), M(t, s), q(t, s), rho(t, s) whose dependence on the
evaluation time t is the source of time inconsistency.  Every two-time field
carries its derivative in the first argument; built-in discount families
provide that derivative in closed form, tabulated data gets it from second
order finite differences.

Standing assumptions enforced by :func:`validate`: M(t, s) symmetric positive
definite, Q(t, s) and G(t) symmetric positive semi-definite, all fields
finite, and the supplied first-argument derivatives consistent with the
values under finite-difference probing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import TilqError

# Ingestion / validation tolerances.
SYMMETRY_RTOL = 1e-8          # raw asymmetry beyond this is a data error
PSD_EIG_FLOOR = -1e-10        # eigenvalue floor for Q, G semi-definiteness
PD_EIG_RTOL = 1e-12           # M must have min eigenvalue >= this * ||M||
DERIVATIVE_RTOL = 5e-4        # finite-difference probe tolerance


# ---------------------------------------------------------------------------
# helpers


def _as_array(x, shape, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != tuple(shape):
        raise TilqError(f"{what} has shape {arr.shape}, expected {tuple(shape)}")
    return arr


def _symmetrize(arr: np.ndarray, what: str) -> np.ndarray:
    """(X + X^T)/2 with a guard against hiding genuinely asymmetric input."""
    asym = np.max(np.abs(arr - arr.T))
    scale = max(1.0, float(np.max(np.abs(arr))))
    if asym > SYMMETRY_RTOL * scale:
        raise TilqError(f"{what} is asymmetric beyond tolerance "
                        f"(relative asymmetry {asym / scale:.3e})")
    return 0.5 * (arr + arr.T)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def _const_time_fn(arr: np.ndarray) -> Callable[[float], np.ndarray]:
    def fn(t: float) -> np.ndarray:
        return arr
    return fn


def eval_pairs(fn, t, s, shape: tuple, vectorized: bool) -> np.ndarray:
    """Evaluate a two-time callable at paired time arrays.

    Returns an array of shape t.shape + shape.  Vectorized callables are
    invoked once on the broadcast arguments; plain callables are looped.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    want = np.broadcast_shapes(t.shape, s.shape) + tuple(shape)
    if vectorized:
        out = np.asarray(fn(t, s), dtype=float)
        return np.broadcast_to(out, want)
    t_b, s_b = np.broadcast_arrays(t, s)
    out = np.empty(want)
    for idx in np.ndindex(t_b.shape):
        out[idx] = np.asarray(fn(float(t_b[idx]), float(s_b[idx])),
                              dtype=float).reshape(tuple(shape))
    return out


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Dimensions:
    """State and control dimensions."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise TilqError(f"dimensions must be >= 1, got n={self.n}, m={self.m}")


@dataclass(frozen=True)
class DynamicsField:
    """Coefficients of the controlled linear system y' = A y + B u + b."""

    A: Callable[[float], np.ndarray]
    B: Callable[[float], np.ndarray]
    b: Callable[[float], np.ndarray]

    @staticmethod
    def constant(A, B, b) -> "DynamicsField":
        A = _freeze(np.atleast_2d(np.asarray(A, dtype=float)))
        B = _freeze(np.atleast_2d(np.asarray(B, dtype=float)))
        b = _freeze(np.atleast_1d(np.asarray(b, dtype=float)))
        return DynamicsField(A=_const_time_fn(A), B=_const_time_fn(B),
                             b=_const_time_fn(b))


@dataclass(frozen=True)
class TwoTimeField:
    """A kernel on {0 <= t <= s <= T} together with its t-derivative.

    ``vectorized`` callables accept broadcastable array arguments and return
    arrays with the time dimensions leading; plain callables take scalars.
    """

    value: Callable
    dvalue_dt: Callable
    shape: tuple
    vectorized: bool = False

    def __call__(self, t: float, s: float) -> np.ndarray:
        return np.asarray(self.value(t, s), dtype=float).reshape(self.shape)

    def dt(self, t: float, s: float) -> np.ndarray:
        return np.asarray(self.dvalue_dt(t, s), dtype=float).reshape(self.shape)

    def row(self, t: float, s: np.ndarray, derivative: bool = False) -> np.ndarray:
        """Values at a fixed first argument over many second arguments."""
        fn = self.dvalue_dt if derivative else self.value
        return eval_pairs(fn, t, s, self.shape, self.vectorized)

    @staticmethod
    def constant(X) -> "TwoTimeField":
        X = _freeze(np.asarray(X, dtype=float))
        shape = X.shape

        def value(t, s):
            span = np.broadcast_shapes(np.shape(t), np.shape(s))
            return np.broadcast_to(X, span + shape)

        def dvalue(t, s):
            span = np.broadcast_shapes(np.shape(t), np.shape(s))
            return np.zeros(span + shape)

        return TwoTimeField(value, dvalue, shape, vectorized=True)

    @staticmethod
    def separable(kernel: "DiscountKernel", base, shape: tuple) -> "TwoTimeField":
        """Kernel-weighted base coefficient: value(t, s) = lam(t, s) * base(s)."""
        shape = tuple(shape)
        pad = (1,) * len(shape)
        if callable(base):
            # scalar pairs take the plain path; arrays call base once per
            # element of s (once per node for a broadcast grid of pairs)
            def weighted(weight, t, s):
                w = np.asarray(weight(t, s), dtype=float)
                if np.ndim(s) == 0:
                    return w.reshape(w.shape + pad) * np.asarray(base(float(s)),
                                                                 dtype=float)
                s = np.asarray(s, dtype=float)
                at_s = np.asarray([base(float(x)) for x in s.ravel()],
                                  dtype=float).reshape(s.shape + shape)
                return w.reshape(w.shape + pad) * at_s

            def value(t, s):
                return weighted(kernel.lam, t, s)

            def dvalue(t, s):
                return weighted(kernel.dlam_dt, t, s)

            return TwoTimeField(value, dvalue, shape, vectorized=kernel.vectorized)

        base_arr = _freeze(np.asarray(base, dtype=float).reshape(shape))

        def value(t, s):
            lam = np.asarray(kernel.lam(t, s), dtype=float)
            return lam.reshape(lam.shape + pad) * base_arr

        def dvalue(t, s):
            dl = np.asarray(kernel.dlam_dt(t, s), dtype=float)
            return dl.reshape(dl.shape + pad) * base_arr

        return TwoTimeField(value, dvalue, shape, vectorized=kernel.vectorized)


@dataclass(frozen=True)
class TerminalField:
    """Terminal weights G(t), g(t) and their t-derivatives."""

    G: Callable[[float], np.ndarray]
    g: Callable[[float], np.ndarray]
    dG_dt: Callable[[float], np.ndarray]
    dg_dt: Callable[[float], np.ndarray]

    @staticmethod
    def constant(G, g) -> "TerminalField":
        G = _freeze(_symmetrize(np.atleast_2d(np.asarray(G, dtype=float)), "G"))
        g = _freeze(np.atleast_1d(np.asarray(g, dtype=float)))
        zero_G = _freeze(np.zeros_like(G))
        zero_g = _freeze(np.zeros_like(g))
        return TerminalField(G=_const_time_fn(G), g=_const_time_fn(g),
                             dG_dt=_const_time_fn(zero_G),
                             dg_dt=_const_time_fn(zero_g))


@dataclass(frozen=True)
class ProblemSpec:
    """Complete coefficient bundle of one control problem.

    Immutable after construction; all evaluations are pure, so instances are
    safe to share across threads.
    """

    dims: Dimensions
    horizon: float
    dynamics: DynamicsField
    Q: TwoTimeField
    S: TwoTimeField
    M: TwoTimeField
    q: TwoTimeField
    rho: TwoTimeField
    terminal: TerminalField
    name: str = ""
    description: str = ""
    # discount kernel of a separable problem (see make_discounted); None
    # when the kernels are not lam(t, s) * base(s) for one known lam
    kernel: DiscountKernel | None = dc_field(default=None, compare=False)

    def __post_init__(self):
        if self.horizon <= 0:
            raise TilqError(f"horizon must be positive, got {self.horizon!r}")
        n, m = self.dims.n, self.dims.m
        expected = {"Q": (n, n), "S": (m, n), "M": (m, m), "q": (n,), "rho": (m,)}
        for fname, shape in expected.items():
            f = getattr(self, fname)
            if tuple(f.shape) != shape:
                raise TilqError(f"cost field {fname} has shape {f.shape}, "
                                f"expected {shape}")


# ---------------------------------------------------------------------------
# discount kernels


@dataclass(frozen=True)
class DiscountKernel:
    """Discount weight lam(t, s) on t <= s with its t-derivative.

    lam(t, t) = 1 and lam > 0 for every family.  Non-exponential families
    make the weighted cost kernels genuinely depend on the evaluation time,
    which is what renders the control problem time-inconsistent.

    ``expansion``, when present, maps a term count R to arrays (c, a) of an
    exponential sum dlam_dt(t, s) ~= sum_r c_r exp(-a_r (s - t)).  It exists
    only for families whose derivative depends on s - t alone; families with
    an exact sum return it whatever R is asked for.
    """

    family: str
    params: dict = dc_field(repr=True)
    lam: Callable = dc_field(repr=False, default=None)
    dlam_dt: Callable = dc_field(repr=False, default=None)
    vectorized: bool = True
    expansion: Callable | None = dc_field(repr=False, default=None)


def exponential_kernel(delta: float) -> DiscountKernel:
    """lam(t, s) = exp(-delta (s - t)); the time-consistent family."""
    if delta < 0:
        raise TilqError(f"exponential discount rate must be >= 0, got {delta!r}")
    delta = float(delta)

    def lam(t, s):
        return np.exp(-delta * (np.asarray(s, dtype=float) - np.asarray(t, dtype=float)))

    def dlam(t, s):
        return delta * lam(t, s)

    def expansion(terms):
        return np.array([delta]), np.array([delta])

    return DiscountKernel("exponential", {"delta": delta}, lam, dlam,
                          expansion=expansion)


def hyperbolic_kernel(k: float) -> DiscountKernel:
    """lam(t, s) = 1 / (1 + k (s - t)), the classic decreasing-impatience family."""
    if k < 0:
        raise TilqError(f"hyperbolic discount slope must be >= 0, got {k!r}")
    k = float(k)

    def lam(t, s):
        return 1.0 / (1.0 + k * (np.asarray(s, dtype=float) - np.asarray(t, dtype=float)))

    def dlam(t, s):
        d = 1.0 + k * (np.asarray(s, dtype=float) - np.asarray(t, dtype=float))
        return k / (d * d)

    def expansion(terms):
        # k / (1 + k x)^2 = int_0^inf k u e^{-u} e^{-k u x} du, by generalized
        # Gauss-Laguerre quadrature (weight u e^{-u}) in u; imported here so
        # that problems which never ask for it do not load scipy.special
        from scipy.special import roots_genlaguerre
        nodes, weights = roots_genlaguerre(terms, 1)
        return k * weights, k * nodes

    return DiscountKernel("hyperbolic", {"k": k}, lam, dlam, expansion=expansion)


def quasi_hyperbolic_kernel(beta: float, delta: float, width: float) -> DiscountKernel:
    """Smoothed beta-delta discounting.

    lam(t, s) = (beta + (1 - beta) exp(-(s - t)/width)) * exp(-delta (s - t)).
    The smoothing makes the classic present-bias jump at s = t differentiable
    while keeping lam(t, t) = 1 and lam -> beta exp(-delta (s-t)) for
    s - t >> width.
    """
    if not (0 < beta <= 1):
        raise TilqError(f"present-bias factor must lie in (0, 1], got {beta!r}")
    if delta < 0:
        raise TilqError(f"discount rate must be >= 0, got {delta!r}")
    if width <= 0:
        raise TilqError(f"smoothing width must be > 0, got {width!r}")
    beta, delta, width = float(beta), float(delta), float(width)

    def lam(t, s):
        d = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
        return (beta + (1.0 - beta) * np.exp(-d / width)) * np.exp(-delta * d)

    def dlam(t, s):
        d = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
        bump = np.exp(-d / width)
        expd = np.exp(-delta * d)
        return ((1.0 - beta) / width * bump * expd
                + (beta + (1.0 - beta) * bump) * delta * expd)

    def expansion(terms):
        # lam = beta e^{-delta d} + (1 - beta) e^{-(delta + 1/width) d}
        fast = delta + 1.0 / width
        return np.array([beta * delta, (1.0 - beta) * fast]), np.array([delta, fast])

    return DiscountKernel("quasi_hyperbolic",
                          {"beta": beta, "delta": delta, "width": width},
                          lam, dlam, expansion=expansion)


def tabulated_kernel(times, values) -> DiscountKernel:
    """Kernel given by samples lam(t_i, s_j) on a shared time grid.

    Values are interpolated bilinearly; the t-derivative comes from second
    order finite differences of the table (see :func:`finite_diff_t`).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or len(times) < 3:
        raise TilqError("tabulated kernel needs at least 3 grid times")
    if values.shape != (len(times), len(times)):
        raise TilqError(f"kernel table has shape {values.shape}, expected "
                        f"{(len(times), len(times))}")
    if np.any(values <= 0):
        raise TilqError("discount weights must be positive")
    diag = np.diagonal(values)
    if np.max(np.abs(diag - 1.0)) > 1e-8:
        raise TilqError("tabulated kernel must satisfy lam(t, t) = 1")
    tab = finite_diff_t(TabulatedTwoTimeField(times, values, shape=()))

    # queries with t > s (outside the kernel's domain, touched only by
    # broadcast tabulation of the unused triangle) clamp to the diagonal;
    # scalar pairs skip the array lookup, which costs more on one pair
    def lookup(table, t, s):
        if np.ndim(t) == 0 and np.ndim(s) == 0:
            t, s = float(t), float(s)
            return tab._interp(table, min(t, s), s)
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(s, dtype=float))
        return tab._interp_pairs(table, np.minimum(t, s), s)

    def lam(t, s):
        return lookup(tab.table, t, s)

    def dlam(t, s):
        return lookup(tab.dtable, t, s)

    return DiscountKernel("tabulated", {"times": times, "values": values},
                          lam, dlam, vectorized=True)


_KERNEL_FACTORIES = {
    "exponential": exponential_kernel,
    "hyperbolic": hyperbolic_kernel,
    "quasi_hyperbolic": quasi_hyperbolic_kernel,
    "tabulated": tabulated_kernel,
}


def make_kernel(family: str, **params) -> DiscountKernel:
    try:
        factory = _KERNEL_FACTORIES[family]
    except KeyError:
        raise TilqError(f"unknown discount family {family!r}") from None
    return factory(**params)


# ---------------------------------------------------------------------------
# tabulated two-time data and finite differencing


class TabulatedTwoTimeField(TwoTimeField):
    """Two-time field stored on the lower triangle t <= s of a uniform grid.

    Entries (i, j), i <= j hold the value at (times[i], times[j]).  Points
    inside a cell are interpolated bilinearly; cells crossing the diagonal
    use the triangle (i,i), (i,j+1), (i+1,j+1) barycentrically so that only
    stored (t <= s) corners are touched.
    """

    def __init__(self, times, table, shape=None, dtable=None):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) < 3:
            raise TilqError("tabulated two-time field needs at least 3 grid "
                            "points in t")
        spacing = np.diff(times)
        if np.any(spacing <= 0) or np.max(np.abs(spacing - spacing[0])) > 1e-12 * times[-1]:
            raise TilqError("tabulated two-time field requires a uniform, "
                            "increasing time grid")
        table = np.asarray(table, dtype=float)
        if shape is None:
            shape = table.shape[2:]
        shape = tuple(shape)
        if table.shape != (len(times), len(times)) + shape:
            raise TilqError(f"table has shape {table.shape}, expected "
                            f"{(len(times), len(times)) + shape}")
        self.times = _freeze(times)
        self.table = _freeze(table)
        self.dtable = None if dtable is None else _freeze(np.asarray(dtable, dtype=float))
        self.spacing = float(spacing[0])

        def value(t, s):
            return self._interp(self.table, t, s)

        def dvalue(t, s):
            if self.dtable is None:
                raise TilqError("tabulated field has no derivative table; "
                                "apply finite_diff_t first")
            return self._interp(self.dtable, t, s)

        super().__init__(value=value, dvalue_dt=dvalue, shape=shape,
                         vectorized=False)

    def _interp(self, table, t, s):
        t = float(t)
        s = float(s)
        lo, hi = self.times[0], self.times[-1]
        eps = 1e-9 * max(1.0, hi)
        if t > s + eps or t < lo - eps or s > hi + eps:
            raise TilqError(f"tabulated field queried outside its domain at "
                            f"({t}, {s})")
        s = min(max(s, lo), hi)
        t = min(max(t, lo), s)
        h = self.spacing
        i = min(int((t - lo) / h), len(self.times) - 2)
        j = min(int((s - lo) / h), len(self.times) - 2)
        a = (t - self.times[i]) / h
        c = (s - self.times[j]) / h
        if i < j:
            f00, f01 = table[i, j], table[i, j + 1]
            f10, f11 = table[i + 1, j], table[i + 1, j + 1]
            return ((1 - a) * (1 - c) * f00 + (1 - a) * c * f01
                    + a * (1 - c) * f10 + a * c * f11)
        # diagonal cell: interpolate on the stored triangle
        f00, f01, f11 = table[i, j], table[i, j + 1], table[i + 1, j + 1]
        return f00 + a * (f11 - f01) + c * (f01 - f00)

    def _interp_pairs(self, table, t, s):
        """:meth:`_interp` over same-shape arrays of pairs, with its arithmetic."""
        lo, hi = self.times[0], self.times[-1]
        eps = 1e-9 * max(1.0, hi)
        bad = (t > s + eps) | (t < lo - eps) | (s > hi + eps)
        if np.any(bad):
            k = tuple(np.argwhere(bad)[0])
            raise TilqError(f"tabulated field queried outside its domain at "
                            f"({t[k]}, {s[k]})")
        s = np.minimum(np.maximum(s, lo), hi)
        t = np.minimum(np.maximum(t, lo), s)
        h = self.spacing
        last = len(self.times) - 2
        i = np.minimum(((t - lo) / h).astype(np.intp), last)
        j = np.minimum(((s - lo) / h).astype(np.intp), last)
        pad = (...,) + (None,) * len(self.shape)
        a = ((t - self.times[i]) / h)[pad]
        c = ((s - self.times[j]) / h)[pad]
        f00, f01 = table[i, j], table[i, j + 1]
        f10, f11 = table[i + 1, j], table[i + 1, j + 1]
        inside = ((1 - a) * (1 - c) * f00 + (1 - a) * c * f01
                  + a * (1 - c) * f10 + a * c * f11)
        diagonal = f00 + a * (f11 - f01) + c * (f01 - f00)
        return np.where((i < j)[pad], inside, diagonal)


def finite_diff_t(tab: TabulatedTwoTimeField, h: float | None = None) -> TabulatedTwoTimeField:
    """Attach a first-argument derivative table built by finite differences.

    Central differences in the interior, second-order one-sided stencils at
    t = 0 and at the diagonal t = s.  Columns with fewer than three stored
    points (s within two cells of zero) fall back to the widest available
    first-order stencil; they carry too few samples for anything better.

    ``h`` defaults to the table spacing and must not exceed it.  Off-node
    probe points (h < spacing) are read through the interpolant.
    """
    if not isinstance(tab, TabulatedTwoTimeField):
        raise TilqError("finite_diff_t expects a tabulated two-time field")
    spacing = tab.spacing
    if h is None:
        h = spacing
    if h > spacing * (1 + 1e-12):
        raise TilqError(f"differencing step {h} exceeds the table spacing {spacing}")
    times = tab.times
    K = len(times)
    on_nodes = abs(h - spacing) <= 1e-12 * spacing
    dtable = np.zeros_like(tab.table)
    for j in range(K):
        s = times[j]
        if j == 0:
            continue  # single stored point (0, 0); no stencil exists
        if j == 1:
            slope = (tab.table[1, 1] - tab.table[0, 1]) / spacing
            dtable[0, 1] = slope
            dtable[1, 1] = slope
            continue
        for i in range(j + 1):
            t = times[i]
            if on_nodes:
                col = tab.table[:, j]
                if i == 0:
                    d = (-3 * col[0] + 4 * col[1] - col[2]) / (2 * spacing)
                elif i == j:
                    d = (3 * col[j] - 4 * col[j - 1] + col[j - 2]) / (2 * spacing)
                else:
                    d = (col[i + 1] - col[i - 1]) / (2 * spacing)
            else:
                f = lambda tt: tab._interp(tab.table, tt, s)
                if t - h < times[0]:
                    d = (-3 * f(t) + 4 * f(t + h) - f(t + 2 * h)) / (2 * h)
                elif t + h > s:
                    d = (3 * f(t) - 4 * f(t - h) + f(t - 2 * h)) / (2 * h)
                else:
                    d = (f(t + h) - f(t - h)) / (2 * h)
            dtable[i, j] = d
    return TabulatedTwoTimeField(times, tab.table, shape=tab.shape, dtable=dtable)


# ---------------------------------------------------------------------------
# discounted problem construction


@dataclass(frozen=True)
class BaseCosts:
    """Undiscounted cost coefficients, each a constant array or callable of s."""

    Q: object
    S: object
    M: object
    q: object
    rho: object
    G: object
    g: object


def make_discounted(dims: Dimensions, horizon: float, dynamics: DynamicsField,
                    base: BaseCosts, kernel: DiscountKernel,
                    name: str = "", description: str = "") -> ProblemSpec:
    """Problem with separable kernels value(t, s) = lam(t, s) * base(s).

    Derivatives follow from the kernel: dvalue_dt = dlam_dt * base, and the
    terminal pair is G(t) = lam(t, T) G_hat, g(t) = lam(t, T) g_hat with the
    matching derivatives.  With the exponential family at rate zero every
    derivative field is identically zero and the problem is time-consistent.
    The kernel is recorded on the spec, which lets the solver use its
    exponential-sum expansion (:mod:`tilq.local`).
    """
    n, m = dims.n, dims.m
    T = float(horizon)

    def prep(raw, shape, what, sym):
        if callable(raw):
            return raw
        arr = np.asarray(raw, dtype=float).reshape(shape)
        if sym:
            arr = _symmetrize(arr, what)
        return _freeze(arr)

    Q_base = prep(base.Q, (n, n), "Q", sym=True)
    S_base = prep(base.S, (m, n), "S", sym=False)
    M_base = prep(base.M, (m, m), "M", sym=True)
    q_base = prep(base.q, (n,), "q", sym=False)
    rho_base = prep(base.rho, (m,), "rho", sym=False)
    if callable(base.G) or callable(base.g):
        raise TilqError("terminal weights must be constant matrices")
    G_hat = _freeze(_symmetrize(np.asarray(base.G, dtype=float).reshape(n, n), "G"))
    g_hat = _freeze(np.asarray(base.g, dtype=float).reshape(n))

    def term_G(t):
        return float(kernel.lam(t, T)) * G_hat

    def term_g(t):
        return float(kernel.lam(t, T)) * g_hat

    def term_dG(t):
        return float(kernel.dlam_dt(t, T)) * G_hat

    def term_dg(t):
        return float(kernel.dlam_dt(t, T)) * g_hat

    return ProblemSpec(
        dims=dims,
        horizon=T,
        dynamics=dynamics,
        Q=TwoTimeField.separable(kernel, Q_base, (n, n)),
        S=TwoTimeField.separable(kernel, S_base, (m, n)),
        M=TwoTimeField.separable(kernel, M_base, (m, m)),
        q=TwoTimeField.separable(kernel, q_base, (n,)),
        rho=TwoTimeField.separable(kernel, rho_base, (m,)),
        terminal=TerminalField(G=term_G, g=term_g, dG_dt=term_dG, dg_dt=term_dg),
        name=name,
        description=description,
        kernel=kernel,
    )


def time_consistent_projection(spec: ProblemSpec) -> ProblemSpec:
    """Freeze out the evaluation-time dependence of a problem.

    Every two-time kernel is replaced by its running diagonal K(s, s) made
    independent of the first argument, and the terminal pair by its value at
    the horizon; all derivative fields become zero.  The result is the
    time-consistent problem a naive planner at any time would solve, and the
    classical Riccati oracle applies to it.
    """

    def project(f: TwoTimeField) -> TwoTimeField:
        shape = tuple(f.shape)

        def value(t, s):
            out = np.asarray(f.value(s, s), dtype=float)
            span = np.broadcast_shapes(np.shape(t), np.shape(s))
            return np.broadcast_to(out, span + shape)

        def dvalue(t, s):
            span = np.broadcast_shapes(np.shape(t), np.shape(s))
            return np.zeros(span + shape)

        return TwoTimeField(value, dvalue, shape, vectorized=f.vectorized)

    T = spec.horizon
    G_T = _freeze(np.asarray(spec.terminal.G(T), dtype=float))
    g_T = _freeze(np.asarray(spec.terminal.g(T), dtype=float))
    terminal = TerminalField.constant(G_T, g_T)
    return ProblemSpec(
        dims=spec.dims, horizon=T, dynamics=spec.dynamics,
        Q=project(spec.Q), S=project(spec.S), M=project(spec.M),
        q=project(spec.q), rho=project(spec.rho), terminal=terminal,
        name=f"{spec.name}_time_consistent" if spec.name else "",
        description=spec.description)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    assumption: str
    location: tuple
    detail: str

    def __str__(self):
        loc = ", ".join(f"{v:.6g}" for v in self.location)
        return f"{self.assumption} at ({loc}): {self.detail}"


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "all assumptions hold at the sampled points"
        return "\n".join(str(v) for v in self.violations)


def _sample_pairs(T: float, samples: int) -> np.ndarray:
    """Deterministic low-discrepancy cover of the triangle 0 <= t <= s <= T."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    pts = np.empty((samples, 2))
    for k in range(samples):
        u = (k + 0.5) / samples
        w = (k * golden) % 1.0
        s = T * max(u, 1e-6)
        pts[k] = (s * w, s)
    return pts


def validate(spec: ProblemSpec, samples: int = 100,
             derivative_rtol: float = DERIVATIVE_RTOL) -> ValidationReport:
    """Probe the standing assumptions at deterministic sample points.

    Never raises on bad data: every violated assumption is reported with its
    location so callers can list all problems at once.
    """
    out: list[Violation] = []
    T = spec.horizon
    n, m = spec.dims.n, spec.dims.m
    pairs = _sample_pairs(T, samples)
    probe_h = min(1e-3 * T, 0.45 * T / max(samples, 2))

    def check_finite(name, arr, loc):
        if not np.all(np.isfinite(arr)):
            out.append(Violation(f"{name} not finite", loc, "non-finite entries"))
            return False
        return True

    def fd_probe(evaluate, t, lo, hi):
        """Second-order central/one-sided difference of t -> evaluate(t)."""
        h = probe_h
        if hi - lo < 2 * h:
            return None
        if t - h < lo:
            return (-3 * evaluate(t) + 4 * evaluate(t + h) - evaluate(t + 2 * h)) / (2 * h)
        if t + h > hi:
            return (3 * evaluate(t) - 4 * evaluate(t - h) + evaluate(t - 2 * h)) / (2 * h)
        return (evaluate(t + h) - evaluate(t - h)) / (2 * h)

    two_time = [("Q", spec.Q, True, False), ("S", spec.S, False, False),
                ("M", spec.M, True, False), ("q", spec.q, False, False),
                ("rho", spec.rho, False, False)]
    for t, s in pairs:
        loc = (t, s)
        for name, f, symmetric, _ in two_time:
            try:
                v = f(t, s)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                out.append(Violation(f"{name} evaluation failed", loc, repr(exc)))
                continue
            if not check_finite(name, v, loc):
                continue
            if symmetric:
                asym = np.max(np.abs(v - v.T))
                scale = max(1.0, float(np.max(np.abs(v))))
                if asym > SYMMETRY_RTOL * scale:
                    out.append(Violation(f"{name} not symmetric", loc,
                                         f"asymmetry {asym:.3e}"))
            # derivative consistency
            fd = fd_probe(lambda tt: f(tt, s), t, 0.0, s)
            if fd is not None:
                dv = f.dt(t, s)
                err = float(np.max(np.abs(fd - dv)))
                scale = 1.0 + float(np.max(np.abs(fd))) + float(np.max(np.abs(dv)))
                if err > derivative_rtol * scale:
                    out.append(Violation(
                        f"{name} derivative inconsistent", loc,
                        f"finite difference {err:.3e} off the supplied value"))
        # definiteness at this pair
        Mv = 0.5 * (spec.M(t, s) + spec.M(t, s).T)
        if np.all(np.isfinite(Mv)):
            eigs = np.linalg.eigvalsh(Mv)
            if eigs[0] < PD_EIG_RTOL * max(1.0, float(np.max(np.abs(Mv)))):
                out.append(Violation("M not positive definite", loc,
                                     f"min eigenvalue {eigs[0]:.3e}"))
        Qv = 0.5 * (spec.Q(t, s) + spec.Q(t, s).T)
        if np.all(np.isfinite(Qv)):
            q_min = float(np.linalg.eigvalsh(Qv)[0])
            if q_min < PSD_EIG_FLOOR:
                out.append(Violation("Q not positive semi-definite", loc,
                                     f"min eigenvalue {q_min:.3e}"))

    # single-time fields: dynamics and terminal weights
    t_line = np.linspace(0.0, T, max(8, samples // 4))
    for t in t_line:
        loc = (t,)
        for name, fn, shape in [("A", spec.dynamics.A, (n, n)),
                                ("B", spec.dynamics.B, (n, m)),
                                ("b", spec.dynamics.b, (n,))]:
            arr = np.asarray(fn(float(t)), dtype=float)
            if arr.shape != shape:
                out.append(Violation(f"{name} wrong shape", loc,
                                     f"{arr.shape} != {shape}"))
                continue
            check_finite(name, arr, loc)
        Gv = np.asarray(spec.terminal.G(float(t)), dtype=float)
        if check_finite("G", Gv, loc):
            asym = np.max(np.abs(Gv - Gv.T))
            if asym > SYMMETRY_RTOL * max(1.0, float(np.max(np.abs(Gv)))):
                out.append(Violation("G not symmetric", loc, f"asymmetry {asym:.3e}"))
            elif np.linalg.eigvalsh(0.5 * (Gv + Gv.T))[0] < PSD_EIG_FLOOR:
                out.append(Violation("G not positive semi-definite", loc, ""))
        for name, fn, dfn in [("G", spec.terminal.G, spec.terminal.dG_dt),
                              ("g", spec.terminal.g, spec.terminal.dg_dt)]:
            fd = fd_probe(lambda tt: np.asarray(fn(float(tt)), dtype=float),
                          t, 0.0, T)
            if fd is None:
                continue
            dv = np.asarray(dfn(float(t)), dtype=float)
            err = float(np.max(np.abs(fd - dv)))
            scale = 1.0 + float(np.max(np.abs(fd))) + float(np.max(np.abs(dv)))
            if err > derivative_rtol * scale:
                out.append(Violation(f"{name} derivative inconsistent", loc,
                                     f"finite difference {err:.3e} off"))
    return ValidationReport(out)
