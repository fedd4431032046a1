"""Problem data: dynamics, two-time cost kernels, terminal weights, kernels.

The cost of a control applied from time t onward is weighted by kernels
Q(t, s), S(t, s), M(t, s), q(t, s), rho(t, s) whose dependence on the
evaluation time t is the source of time inconsistency.  Every two-time field
carries its derivative in the first argument; built-in discount families
provide that derivative in closed form, tabulated data gets it from second
order finite differences.  A two-time field's callables take broadcastable
arrays of times (:class:`TwoTimeField`), since the solver evaluates them
over whole blocks of node pairs at once.

Standing assumptions enforced by :func:`validate`: M(t, s) symmetric positive
definite, Q(t, s) and G(t) symmetric positive semi-definite, all fields
finite and of their declared shapes, and the supplied first-argument
derivatives consistent with the values under finite-difference probing.
It evaluates each two-time field over all of its sample pairs in a few
whole-array calls, so it also checks the array contract: a field that
evaluates pair by pair but raises on arrays of times is reported as
rejecting time arrays, since the solver could not use it.
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


class _Constant:
    """A coefficient of time that returns the same array ``value`` at every t.

    Tabulation repeats ``value`` instead of calling it once per time
    (:func:`tilq.grid._eval_dynamics`).
    """

    __slots__ = ("value",)

    def __init__(self, value: np.ndarray):
        self.value = value

    def __call__(self, t: float) -> np.ndarray:
        return self.value


def eval_pairs(fn, t, s, shape: tuple) -> np.ndarray:
    """Evaluate a two-time callable once on broadcastable time arrays.

    Returns an array of shape broadcast(t, s).shape + shape; a result that
    does not broadcast to it raises TilqError.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    want = np.broadcast_shapes(t.shape, s.shape) + tuple(shape)
    out = np.asarray(fn(t, s), dtype=float)
    try:
        return np.broadcast_to(out, want)
    except ValueError:
        raise TilqError(f"two-time field of shape {tuple(shape)} returned "
                        f"shape {out.shape} for time arrays of shape "
                        f"{want[:len(want) - len(shape)]}; it must return "
                        f"one that broadcasts to {want}") from None


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
        return DynamicsField(A=_Constant(A), B=_Constant(B), b=_Constant(b))


@dataclass(frozen=True)
class TwoTimeField:
    """A kernel on {0 <= t <= s <= T} together with its t-derivative.

    ``value`` and ``dvalue_dt`` take broadcastable time arrays t, s (scalars
    included) and return an array that broadcasts to
    broadcast(t, s).shape + shape: the time axes lead and the field's own
    axes trail.  Kernels are evaluated over whole blocks of node pairs.

    A separable field (:meth:`separable`) records its discount ``kernel``
    and ``weigh``, the map (w, s) -> w * base(s) that its value and
    derivative apply to lam(t, s) and dlam_dt(t, s), so that lam values
    looked up once serve every field of a problem.
    """

    value: Callable
    dvalue_dt: Callable
    shape: tuple
    kernel: DiscountKernel | None = dc_field(default=None, compare=False)
    weigh: Callable | None = dc_field(default=None, compare=False, repr=False)

    def __call__(self, t: float, s: float) -> np.ndarray:
        return np.asarray(self.value(t, s), dtype=float).reshape(self.shape)

    def dt(self, t: float, s: float) -> np.ndarray:
        return np.asarray(self.dvalue_dt(t, s), dtype=float).reshape(self.shape)

    def row(self, t: float, s: np.ndarray, derivative: bool = False) -> np.ndarray:
        """Values at a fixed first argument over many second arguments."""
        fn = self.dvalue_dt if derivative else self.value
        return eval_pairs(fn, t, s, self.shape)

    @staticmethod
    def constant(X) -> "TwoTimeField":
        X = _freeze(np.asarray(X, dtype=float))
        zero = _freeze(np.zeros_like(X))
        return TwoTimeField(lambda t, s: X, lambda t, s: zero, X.shape)

    @staticmethod
    def separable(kernel: "DiscountKernel", base, shape: tuple) -> "TwoTimeField":
        """Kernel-weighted base coefficient: value(t, s) = lam(t, s) * base(s)."""
        shape = tuple(shape)
        pad = (1,) * len(shape)
        if callable(base):
            # base is called once per distinct time of s, in increasing
            # order where s repeats or is unordered (flat batches of pairs
            # repeat every node), and scattered back to s's elements
            def weigh(w, s):
                s = np.asarray(s, dtype=float)
                times, where = s.ravel(), slice(None)
                if times.size > 1 and not (times[1:] > times[:-1]).all():
                    times, where = np.unique(times, return_inverse=True)
                at_s = np.asarray([base(x) for x in times.tolist()], dtype=float)
                return (w.reshape(w.shape + pad)
                        * at_s[where].reshape(s.shape + shape))
        else:
            base_arr = _freeze(np.asarray(base, dtype=float).reshape(shape))

            def weigh(w, s):
                return w.reshape(w.shape + pad) * base_arr

        def value(t, s):
            return weigh(np.asarray(kernel.lam(t, s), dtype=float), s)

        def dvalue(t, s):
            return weigh(np.asarray(kernel.dlam_dt(t, s), dtype=float), s)

        return TwoTimeField(value, dvalue, shape, kernel=kernel, weigh=weigh)


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
        return TerminalField(G=_Constant(G), g=_Constant(g),
                             dG_dt=_Constant(zero_G), dg_dt=_Constant(zero_g))


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
    # unless, for one known lam, every cost kernel is lam(t, s) * base(s)
    # and the terminal weights are lam(t, T) times their base values
    kernel: DiscountKernel | None = dc_field(default=None, compare=False)

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise TilqError(f"horizon must be positive and finite, got "
                            f"{self.horizon!r}")
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

    lam(t, t) = 1 and lam > 0 for every family, and lam and dlam_dt accept
    broadcastable array arguments as well as scalars.  Non-exponential families
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
        # Gauss-Laguerre quadrature (weight u e^{-u}) in u
        nodes, weights = _gauss_laguerre_alpha1(terms)
        return k * weights, k * nodes

    return DiscountKernel("hyperbolic", {"k": k}, lam, dlam, expansion=expansion)


def _gauss_laguerre_alpha1(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of Gauss quadrature for the weight u e^{-u} on u > 0.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    generalized Laguerre polynomials L^(1) (diagonal 2i + 2, off-diagonal
    sqrt(i (i + 1))), and each weight is the squared first component of its
    eigenvector times the weight's integral Gamma(2) = 1.
    """
    i = np.arange(terms, dtype=float)
    off = np.sqrt(i[1:] * (i[1:] + 1.0))
    jacobi = np.diag(2.0 * i + 2.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, vectors[0] ** 2


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
    """Kernel given by samples lam(t_i, s_j) on a shared uniform time grid.

    Entry (i, j), i <= j, of ``values`` holds lam(times[i], times[j]).
    Points inside a cell are interpolated bilinearly; cells crossing the
    diagonal use the triangle (i,i), (i,j+1), (i+1,j+1) barycentrically so
    that only stored (t <= s) corners are touched.  The t-derivative is
    interpolated the same way from second order finite differences of the
    table (see :func:`_dt_table`).
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
    spacing = np.diff(times)
    if np.any(spacing <= 0) or np.max(np.abs(spacing - spacing[0])) > 1e-12 * times[-1]:
        raise TilqError("tabulated kernel requires a uniform, increasing time grid")
    h = float(spacing[0])
    nodes = _freeze(times)
    table = _freeze(values)
    dtable = _freeze(_dt_table(table, h))

    # queries with t > s (outside the kernel's domain, touched only by
    # broadcast tabulation of the unused triangle) clamp to the diagonal.
    # Three paths with the same floats: scalar pairs skip the array lookup,
    # which costs more on one pair; the outer grid of a column t and a row s
    # (kernel_triangle's blocks) is computed per axis (_interp_outer); any
    # other arrays are broadcast and looked up pair by pair
    def lookup(tab, t, s):
        if np.ndim(t) == 0 and np.ndim(s) == 0:
            t, s = float(t), float(s)
            return _interp(nodes, h, tab, min(t, s), s)
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        if (t.ndim == s.ndim == 2 and t.shape[1] == s.shape[0] == 1
                and _outer_in_domain(nodes, t, s)):
            return _interp_outer(nodes, h, tab, t[:, 0], s[0])
        t, s = np.broadcast_arrays(t, s)
        return _interp_pairs(nodes, h, tab, np.minimum(t, s), s)

    def lam(t, s):
        return lookup(table, t, s)

    def dlam(t, s):
        return lookup(dtable, t, s)

    return DiscountKernel("tabulated", {"times": times, "values": values},
                          lam, dlam)


def _interp(times, h, table, t, s):
    """Value of a stored triangle at one pair t <= s (see tabulated_kernel)."""
    lo, hi = times[0], times[-1]
    eps = 1e-9 * max(1.0, hi)
    if t > s + eps or t < lo - eps or s > hi + eps:
        raise TilqError(f"tabulated kernel queried outside its domain at "
                        f"({t}, {s})")
    s = min(max(s, lo), hi)
    t = min(max(t, lo), s)
    i = min(int((t - lo) / h), len(times) - 2)
    j = min(int((s - lo) / h), len(times) - 2)
    a = (t - times[i]) / h
    c = (s - times[j]) / h
    if i < j:
        f00, f01 = table[i, j], table[i, j + 1]
        f10, f11 = table[i + 1, j], table[i + 1, j + 1]
        return ((1 - a) * (1 - c) * f00 + (1 - a) * c * f01
                + a * (1 - c) * f10 + a * c * f11)
    # diagonal cell: interpolate on the stored triangle
    f00, f01, f11 = table[i, j], table[i, j + 1], table[i + 1, j + 1]
    return f00 + a * (f11 - f01) + c * (f01 - f00)


def _interp_pairs(times, h, table, t, s):
    """:func:`_interp` over same-shape arrays of pairs, with its arithmetic."""
    lo, hi = times[0], times[-1]
    eps = 1e-9 * max(1.0, hi)
    bad = (t > s + eps) | (t < lo - eps) | (s > hi + eps)
    if np.any(bad):
        k = tuple(np.argwhere(bad)[0])
        raise TilqError(f"tabulated kernel queried outside its domain at "
                        f"({t[k]}, {s[k]})")
    s = np.minimum(np.maximum(s, lo), hi)
    t = np.minimum(np.maximum(t, lo), s)
    last = len(times) - 2
    i = np.minimum(((t - lo) / h).astype(np.intp), last)
    j = np.minimum(((s - lo) / h).astype(np.intp), last)
    a = (t - times[i]) / h
    c = (s - times[j]) / h
    f00, f01 = table[i, j], table[i, j + 1]
    f10, f11 = table[i + 1, j], table[i + 1, j + 1]
    inside = ((1 - a) * (1 - c) * f00 + (1 - a) * c * f01
              + a * (1 - c) * f10 + a * c * f11)
    diagonal = f00 + a * (f11 - f01) + c * (f01 - f00)
    return np.where(i < j, inside, diagonal)


def _outer_in_domain(times, t, s) -> bool:
    """Whether the outer grid of a column t and a row s passes the domain
    test of :func:`_interp_pairs` (t clamped to s), with every time finite."""
    lo, hi = times[0], times[-1]
    eps = 1e-9 * max(1.0, hi)
    return bool(t.size and s.size and t.min() >= lo - eps
                and s.min() >= lo - eps and s.max() <= hi + eps)


def _interp_outer(times, h, table, t, s):
    """:func:`_interp_pairs` at the pairs (t[k], s[l]) of 1-D t and s, per axis.

    The same floats: each axis is clamped, and gets its cells and weights,
    once, and each corner term is an outer product of weights times the
    corner values, summed in _interp_pairs's order.  Where t's cell lies
    past s's, _interp_pairs has clamped t to s and reads s's diagonal cell
    at (s, s); within s's cell it does so where t >= s and takes the
    triangle formula where t < s.
    """
    lo, hi = times[0], times[-1]
    last = len(times) - 2
    t = np.minimum(np.maximum(t, lo), hi)
    s = np.minimum(np.maximum(s, lo), hi)
    i = np.minimum(((t - lo) / h).astype(np.intp), last)
    j = np.minimum(((s - lo) / h).astype(np.intp), last)
    a = (t - times[i]) / h
    c = (s - times[j]) / h
    # the rows of the table that t's cells touch, at s's cells' columns
    first = i.min()
    band = table[first:i.max() + 2]
    left, right = band[:, j], band[:, j + 1]
    top, bottom = i - first, i - first + 1
    out = np.multiply.outer(1 - a, 1 - c) * left[top]
    out += np.multiply.outer(1 - a, c) * right[top]
    out += np.multiply.outer(a, 1 - c) * left[bottom]
    out += np.multiply.outer(a, c) * right[bottom]
    f00, f01, f11 = table[j, j], table[j, j + 1], table[j + 1, j + 1]
    np.copyto(out, f00 + c * (f11 - f01) + c * (f01 - f00),
              where=np.greater.outer(i, j))
    r, k = np.divmod(np.flatnonzero(np.equal.outer(i, j)), len(s))
    at = np.where(t[r] >= s[k], c[k], a[r])
    out[r, k] = f00[k] + at * (f11[k] - f01[k]) + c[k] * (f01[k] - f00[k])
    return out


def _dt_table(table: np.ndarray, h: float) -> np.ndarray:
    """First-argument derivative of a stored triangle by finite differences.

    Central differences in the interior, second-order one-sided stencils at
    t = 0 and at the diagonal t = s.  The column s = times[1] has two stored
    points and takes their first-order slope; the point (0, 0) has no
    stencil and gets zero.  Entries below the diagonal are zero.
    """
    K = len(table)
    out = np.zeros_like(table)
    out[1:-1] = (table[2:] - table[:-2]) / (2 * h)
    out[0] = (-3 * table[0] + 4 * table[1] - table[2]) / (2 * h)
    j = np.arange(2, K)
    out[j, j] = (3 * table[j, j] - 4 * table[j - 1, j] + table[j - 2, j]) / (2 * h)
    out[0, 1] = out[1, 1] = (table[1, 1] - table[0, 1]) / h
    out[0, 0] = 0.0
    return np.triu(out)


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
    classical Riccati oracle applies to it.  It is separable in the kernel
    lam = 1 (``exponential_kernel(0.0)``), which it records: its tables hold
    one zero plane instead of a derivative triangle per kernel, and
    :func:`tilq.policy.solve_equilibrium` solves it by the local ODE sweep.
    """

    def project(f: TwoTimeField) -> TwoTimeField:
        zero = _freeze(np.zeros(f.shape))
        return TwoTimeField(lambda t, s: f.row(s, s), lambda t, s: zero,
                            tuple(f.shape))

    T = spec.horizon
    G_T = _freeze(np.asarray(spec.terminal.G(T), dtype=float))
    g_T = _freeze(np.asarray(spec.terminal.g(T), dtype=float))
    terminal = TerminalField.constant(G_T, g_T)
    return ProblemSpec(
        dims=spec.dims, horizon=T, dynamics=spec.dynamics,
        Q=project(spec.Q), S=project(spec.S), M=project(spec.M),
        q=project(spec.q), rho=project(spec.rho), terminal=terminal,
        name=f"{spec.name}_time_consistent" if spec.name else "",
        description=spec.description, kernel=exponential_kernel(0.0))


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
    k = np.arange(samples)
    u = (k + 0.5) / samples
    w = (k * golden) % 1.0
    s = T * np.maximum(u, 1e-6)
    return np.stack([s * w, s], axis=1)


def _at(fn, t: np.ndarray, s: np.ndarray, shape: tuple) -> np.ndarray:
    """:func:`eval_pairs` over 1-D arrays of pairs; no call when there are none."""
    if not len(t):
        return np.empty((0,) + tuple(shape))
    return eval_pairs(fn, t, s, shape)


# Report order within one sample pair: for each two-time field in turn its
# value, symmetry and derivative slots, then the definiteness of M and Q.
_TWO_TIME = (("Q", True), ("S", False), ("M", True), ("q", False),
             ("rho", False))
_M_SLOT = 3 * len(_TWO_TIME)
_Q_SLOT = _M_SLOT + 1


class _PairChecks:
    """The two-time half of :func:`validate`: whole-array checks over pairs.

    Each stage evaluates a field over all of its samples at once; when that
    raises, :meth:`batch` names the samples that raise on their own and runs
    the stage again without them.  Violations are kept with their sample and
    slot and sorted into report order at the end.
    """

    def __init__(self, pairs: np.ndarray, h: float, rtol: float):
        self.t, self.s = pairs[:, 0], pairs[:, 1]
        self.h, self.rtol = h, rtol
        self.found = []  # (sample, slot, Violation)

    def report(self, k, slot: int, assumption: str, detail: str):
        self.found.append((int(k), slot, Violation(
            assumption, (self.t[k], self.s[k]), detail)))

    def violations(self) -> list:
        return [v for _, _, v in sorted(self.found, key=lambda x: x[:2])]

    def batch(self, run, one, sel: np.ndarray, name: str, failure: str,
              slot: int):
        """(sel, run(sel)) without the samples k at which one(k) raises.

        Each dropped sample is reported as ``failure`` with its exception.
        If run still raises on the samples that evaluate one at a time, the
        field breaks the array contract: that is reported once, at the first
        of them, and None is returned.
        """
        try:
            return sel, run(sel)
        except Exception:  # noqa: BLE001 - narrowed to samples below
            pass
        keep = []
        for k in sel:
            try:
                one(k)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                self.report(k, slot, failure, repr(exc))
            else:
                keep.append(k)
        sel = np.asarray(keep, dtype=np.intp)
        try:
            return sel, run(sel)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            self.report(sel[0], slot, f"{name} rejects time arrays", repr(exc))
            return None

    def field(self, slot: int, name: str, f: TwoTimeField, symmetric: bool):
        """Check one field: (samples, values) where it is finite, or None
        when it rejects time arrays."""
        t, s = self.t, self.s
        got = self.batch(lambda sel: _at(f.value, t[sel], s[sel], f.shape),
                         lambda k: f(t[k], s[k]), np.arange(len(t)), name,
                         f"{name} evaluation failed", slot)
        if got is None:
            return None
        sel, V = got
        axes = tuple(range(1, V.ndim))
        finite = np.all(np.isfinite(V), axis=axes)
        for k in sel[~finite]:
            self.report(k, slot, f"{name} not finite", "non-finite entries")
        sel, V = sel[finite], V[finite]
        if symmetric:
            asym = np.max(np.abs(V - np.swapaxes(V, -1, -2)), axis=axes)
            bad = asym > SYMMETRY_RTOL * np.maximum(
                1.0, np.max(np.abs(V), axis=axes))
            for k, a in zip(sel[bad], asym[bad]):
                self.report(k, slot + 1, f"{name} not symmetric",
                            f"asymmetry {a:.3e}")
        if not self.derivative(slot + 2, name, f, sel, V):
            return None
        return sel, V

    def derivative(self, slot: int, name: str, f: TwoTimeField,
                   sel: np.ndarray, V: np.ndarray) -> bool:
        """Supplied t-derivative against a second-order finite difference in
        t on [0, s], at the samples with s >= 2h.  False when the field
        rejects time arrays."""
        t, s, h = self.t, self.s, self.h
        value = np.zeros((len(t),) + V.shape[1:])
        value[sel] = V

        def branches(tt, ss):
            # forward where t - h < 0, backward where t + h > s, else central
            fwd = tt - h < 0.0
            bwd = ~fwd & (tt + h > ss)
            return ((fwd, h, 2 * h), (bwd, -h, -2 * h), (~(fwd | bwd), h, -h))

        def run(sel):
            tt, ss, v0 = t[sel], s[sel], value[sel]
            (fwd, *_), (bwd, *_), (mid, *_) = branches(tt, ss)
            fd = np.empty_like(v0)

            def at(mask, step):
                return _at(f.value, tt[mask] + step, ss[mask], f.shape)

            fd[fwd] = (-3 * v0[fwd] + 4 * at(fwd, h) - at(fwd, 2 * h)) / (2 * h)
            fd[bwd] = (3 * v0[bwd] - 4 * at(bwd, -h) + at(bwd, -2 * h)) / (2 * h)
            fd[mid] = (at(mid, h) - at(mid, -h)) / (2 * h)
            return fd, _at(f.dvalue_dt, tt, ss, f.shape)

        def one(k):
            # the scalar calls of sample k, in the order run makes them
            for is_branch, first, second in branches(t[k], s[k]):
                if is_branch:
                    f(t[k] + first, s[k])
                    f(t[k] + second, s[k])
                    break
            f.dt(t[k], s[k])

        got = self.batch(run, one, sel[s[sel] >= 2 * h], name,
                         f"{name} derivative probe failed", slot)
        if got is None:
            return False
        sel, (fd, dv) = got
        axes = tuple(range(1, fd.ndim))
        err = np.max(np.abs(fd - dv), axis=axes)
        scale = (1.0 + np.max(np.abs(fd), axis=axes)
                 + np.max(np.abs(dv), axis=axes))
        bad = err > self.rtol * scale
        for k, e in zip(sel[bad], err[bad]):
            self.report(k, slot, f"{name} derivative inconsistent",
                        f"finite difference {e:.3e} off the supplied value")
        return True


def _min_eigenvalues(V: np.ndarray) -> tuple:
    """Smallest eigenvalue of each symmetric part (V + V^T)/2, and the parts."""
    sym = 0.5 * (V + np.swapaxes(V, -1, -2))
    if not len(sym):
        return np.empty(0), sym
    return np.linalg.eigvalsh(sym)[:, 0], sym


def validate(spec: ProblemSpec, samples: int = 100,
             derivative_rtol: float = DERIVATIVE_RTOL) -> ValidationReport:
    """Probe the standing assumptions at deterministic sample points.

    Never raises on bad data: every violated assumption, and every
    evaluation that raised, is reported with its location so callers can
    list all problems at once.  A point whose evaluation failed is skipped by
    the checks that need its value.

    Two-time fields are checked at ``samples`` pairs (t, s) of the triangle,
    in whole-array passes: each of Q, S, M, q, rho is called once on all
    pairs for its values, once for its supplied t-derivative, and twice per
    finite-difference branch (central, forward where t - h < 0, backward
    where t + h > s), each branch over its own pairs only.  When a call
    raises, the field's pairs are evaluated one at a time to name the ones
    that fail, and the same array checks run on the rest.  A field that
    evaluates at each pair alone but raises on the arrays breaks the
    contract of :class:`TwoTimeField`; it is reported once as "rejects time
    arrays" and its remaining checks are skipped.  The single-time fields
    A, B, b, G, g take one float each and are checked one time at a time on
    max(8, samples // 4) equally spaced times.
    """
    T = spec.horizon
    n, m = spec.dims.n, spec.dims.m
    probe_h = min(1e-3 * T, 0.45 * T / max(samples, 2))

    checks = _PairChecks(_sample_pairs(T, samples), probe_h, derivative_rtol)
    checked = {name: checks.field(3 * i, name, getattr(spec, name), symmetric)
               for i, (name, symmetric) in enumerate(_TWO_TIME)}
    if checked["M"] is not None:
        sel, V = checked["M"]
        low, Mv = _min_eigenvalues(V)
        bad = low < PD_EIG_RTOL * np.maximum(
            1.0, np.max(np.abs(Mv), axis=(-2, -1)))
        for k, e in zip(sel[bad], low[bad]):
            checks.report(k, _M_SLOT, "M not positive definite",
                          f"min eigenvalue {e:.3e}")
    if checked["Q"] is not None:
        sel, V = checked["Q"]
        low, _ = _min_eigenvalues(V)
        bad = low < PSD_EIG_FLOOR
        for k, e in zip(sel[bad], low[bad]):
            checks.report(k, _Q_SLOT, "Q not positive semi-definite",
                          f"min eigenvalue {e:.3e}")
    out = checks.violations()

    def evaluated(name, loc, evaluate):
        """evaluate() as a finite float array, else None with a violation."""
        try:
            arr = np.asarray(evaluate(), dtype=float)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            out.append(Violation(f"{name} evaluation failed", loc, repr(exc)))
            return None
        if not np.all(np.isfinite(arr)):
            out.append(Violation(f"{name} not finite", loc, "non-finite entries"))
            return None
        return arr

    def shaped(name, loc, arr, shape):
        """arr when it has the field's shape, else None with a violation."""
        if arr is not None and arr.shape != shape:
            out.append(Violation(f"{name} wrong shape", loc,
                                 f"{arr.shape} != {shape}"))
            return None
        return arr

    def fd_probe(evaluate, t):
        """Second-order central/one-sided difference of t -> evaluate(t) on
        [0, T]."""
        h = probe_h
        if T < 2 * h:
            return None
        if t - h < 0.0:
            return (-3 * evaluate(t) + 4 * evaluate(t + h) - evaluate(t + 2 * h)) / (2 * h)
        if t + h > T:
            return (3 * evaluate(t) - 4 * evaluate(t - h) + evaluate(t - 2 * h)) / (2 * h)
        return (evaluate(t + h) - evaluate(t - h)) / (2 * h)

    def check_derivative(name, loc, evaluate, derivative, t):
        """Supplied t-derivative against a finite difference."""
        try:
            fd = fd_probe(evaluate, t)
            if fd is None:
                return
            dv = np.asarray(derivative(t), dtype=float)
            err = float(np.max(np.abs(fd - dv)))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            out.append(Violation(f"{name} derivative probe failed", loc,
                                 repr(exc)))
            return
        scale = 1.0 + float(np.max(np.abs(fd))) + float(np.max(np.abs(dv)))
        if err > derivative_rtol * scale:
            out.append(Violation(
                f"{name} derivative inconsistent", loc,
                f"finite difference {err:.3e} off the supplied value"))

    # single-time fields: dynamics and terminal weights
    terminal = spec.terminal
    for t in np.linspace(0.0, T, max(8, samples // 4)):
        loc = (t,)
        for name, fn, shape in [("A", spec.dynamics.A, (n, n)),
                                ("B", spec.dynamics.B, (n, m)),
                                ("b", spec.dynamics.b, (n,))]:
            shaped(name, loc, evaluated(name, loc, lambda: fn(float(t))), shape)
        Gv = shaped("G", loc, evaluated("G", loc, lambda: terminal.G(float(t))),
                    (n, n))
        if Gv is not None:
            asym = np.max(np.abs(Gv - Gv.T))
            if asym > SYMMETRY_RTOL * max(1.0, float(np.max(np.abs(Gv)))):
                out.append(Violation("G not symmetric", loc,
                                     f"asymmetry {asym:.3e}"))
            elif np.linalg.eigvalsh(0.5 * (Gv + Gv.T))[0] < PSD_EIG_FLOOR:
                out.append(Violation("G not positive semi-definite", loc, ""))
        gv = shaped("g", loc, evaluated("g", loc, lambda: terminal.g(float(t))),
                    (n,))
        for name, arr, fn, dfn in [("G", Gv, terminal.G, terminal.dG_dt),
                                   ("g", gv, terminal.g, terminal.dg_dt)]:
            if arr is not None:
                check_derivative(name, loc,
                                 lambda tt: np.asarray(fn(float(tt)), dtype=float),
                                 lambda tt: dfn(float(tt)), t)
    return ValidationReport(out)
