"""Local-ODE solver for discount kernels with exponential-sum derivatives.

For a separable problem (:func:`tilq.problem.make_discounted`) every cost
kernel is K(t, s) = lam(t, s) K_hat(s) with lam(t, t) = 1, so K_hat(s) is
the diagonal value K(s, s), and the terminal pair is lam(t, T) (G_hat, g_hat).
Suppose the discount derivative is an exponential sum,

    d/dt lam(t, s) = sum_r c_r exp(-a_r (s - t)),   r = 1..R.

Write A_cl = A - B Gain and d = b - B Upsilon for the closed loop and its
drive, and, with every kernel at (t, t),

    K_hat     = Q - Gain^T S - S^T Gain + Gain^T M Gain,
    k_hat     = q - S^T Upsilon + Gain^T (M Upsilon - rho),
    kappa_hat = <Upsilon, M Upsilon - 2 rho>.

Then the nonlocal terms of :mod:`tilq.riccati` and :mod:`tilq.auxiliary`
split into R terms each,

    Qbb = sum_r c_r Y_r,   Sbb = sum_r c_r Z_r,   omega = sum_r c_r w_r,

    Y_r(t) = e^{-a_r (T-t)} E^T G_hat E
             + int_t^T e^{-a_r (s-t)} E^T K_hat E ds,
    Z_r(t) = e^{-a_r (T-t)} E^T (g_hat + G_hat bt)
             + int_t^T e^{-a_r (s-t)} E^T (K_hat bt + k_hat) ds,
    w_r(t) = e^{-a_r (T-t)} <G_hat bt + 2 g_hat, bt>
             + int_t^T e^{-a_r (s-t)} (<bt, K_hat bt + 2 k_hat> + kappa_hat) ds,

with E = E_cl(s, t) and bt = btilde(s, t) (at s = T in the terminal terms).
The three integrands are the blocks of the bordered correction of
:mod:`tilq.auxiliary`, [[Qbb, Sbb], [Sbb^T, omega]], with the common factor
d/dt lam pulled out: E^T K_hat E, E^T (K_hat bt + k_hat) and
<bt, K_hat bt + 2 k_hat> + kappa_hat are the blocks of
E_bar^T K_hat_bar E_bar with E_bar = [[E, bt], [0, 1]] and K_hat_bar =
[[K_hat, k_hat], [k_hat^T, kappa_hat]].  Differentiating in t with d/dt E_cl(s, t) = -E_cl(s, t) A_cl(t)
and d/dt btilde(s, t) = -E_cl(s, t) d(t) gives local equations, integrated
backward from T:

    Y_r' = a_r Y_r - A_cl^T Y_r - Y_r A_cl - K_hat,     Y_r(T) = G_hat,
    Z_r' = a_r Z_r - A_cl^T Z_r - Y_r d - k_hat,        Z_r(T) = g_hat,
    w_r' = a_r w_r - 2 <Z_r, d> - kappa_hat,            w_r(T) = 0,

next to the coefficient equations themselves,

    P'   = -A_cl^T P - P A_cl - K_hat + Qbb,            P(T) = G_hat,
    phi' = -A_cl^T phi + Sbb - P b - q + Gain^T rho,    phi(T) = g_hat,
    psi' = omega - 2 <phi, d> - kappa_hat,              psi(T) = 0.

Gain = M^{-1} (B^T P + S) and Upsilon = M^{-1} (B^T phi + rho) are local in
t, so the system is one terminal-value ODE and nothing is iterated.

It is one Riccati system in n + 1 dimensions.  Bordering every quantity
with the affine coordinate,

    Pi  = [[P, phi], [phi^T, psi]],     Y_bar_r = [[Y_r, Z_r], [Z_r^T, w_r]],
    A_bar = [[A, b], [0, 0]],  B_bar = [[B], [0]],  S_bar = [S, rho],
    Q_bar = [[Q, q], [q^T, 0]],

gives Gain_bar = M^{-1} (B_bar^T Pi + S_bar) = [Gain, Upsilon], the closed
loop A_bar - B_bar Gain_bar = [[A_cl, d], [0, 0]], and the bordered K_hat
[[K_hat, k_hat], [k_hat^T, kappa_hat]].  The blocks of

    Pi'      = -A_bar_cl^T Pi - Pi A_bar_cl - K_hat_bar + sum_r c_r Y_bar_r,
    Y_bar_r' = a_r Y_bar_r - A_bar_cl^T Y_bar_r - Y_bar_r A_bar_cl - K_hat_bar,

are the six equations above, term by term (the off-diagonal block of
-Pi A_bar_cl - K_hat_bar is -P d - k_hat = -P b - q + Gain^T rho).  With the
gain eliminated, K_hat_bar = Q_bar_s + Pi B_bar M^{-1} B_bar^T Pi and
A_bar_cl = A_bar_s - B_bar M^{-1} B_bar^T Pi, where A_bar_s = A_bar -
B_bar M^{-1} S_bar and Q_bar_s = Q_bar - S_bar^T M^{-1} S_bar.  No inverse
of M is formed: with the tables' inverse Cholesky factor L^{-1} of M(t, t)
(:attr:`tilq.tables.SpecTables.Md_chol_inv`), X = L^{-1} S_bar and Y =
L^{-1} B_bar^T give B_bar M^{-1} B_bar^T = Y^T Y, S_bar^T M^{-1} S_bar =
X^T X and B_bar M^{-1} S_bar = Y^T X.

The R + 1 bordered matrices X = (Pi, Y_bar_1..R) are stacked and stepped
backward together, one step per grid interval, in one Python loop over
numpy arrays of shape (R + 1, n + 1, n + 1); the work per step is
O(R n^3), on coefficients formed once as stage tables.  For small n a step
costs what its numpy calls cost: it reads each stage row once and writes
every product into a buffer allocated once per sweep, with the floats that
fresh arrays would hold.  In backward time the stack obeys dX/dtau =
-Lambda X + N(X): the stack operator Lambda = [[0, c^T], [0, diag(a)]]
holds the decays a_r and the coupling Qbb, and N the Lyapunov and quadratic
terms.  The scheme is Lawson RK4 with Lambda's
exact propagators exp(-Lambda h/2) and exp(-Lambda h), in closed form, so
a large a_r h only damps and can never destabilize the step.
The error is O(h^4) plus the relative fit error of the exponential sum,
which :func:`fit_exponential_sum` keeps at or below ``FIT_RTOL``.

Exponential discounting is the sum with R = 1 and smoothed quasi-hyperbolic
discounting with R = 2, both exact; hyperbolic discounting uses generalized
Gauss-Laguerre nodes (Beylkin & Monzon, ACHA 2005, for exponential-sum
approximation; Lubich & Schaedle, SISC 2002, for replacing a convolution
memory by local ODEs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .auxiliary import AuxiliarySolution, _upsilon_table
from .errors import ConvergenceError
from .grid import TimeGrid, _border, closed_loop_drive
from .problem import DiscountKernel, ProblemSpec
from .riccati import (FixedPointDiagnostics, RiccatiSolution, _closed_loop_table,
                      _gain_table, warn_if_indefinite)
from .tables import SpecTables

# An expansion is used only when its relative sup error on [0, T] is at most
# FIT_RTOL; the term counts tried, smallest first.  Both are constants of
# the method, not options: a worse fit would no longer be a solver of the
# same problem to the grid's accuracy.
FIT_RTOL = 1e-12
TERM_LADDER = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64)
FIT_SAMPLES = 4097


@dataclass(frozen=True)
class ExponentialSum:
    """d/dt lam(t, s) ~= sum_r weights[r] exp(-rates[r] (s - t))."""

    weights: np.ndarray
    rates: np.ndarray
    fit_error: float  # relative sup error on [0, T]

    @property
    def terms(self) -> int:
        return len(self.weights)


def fit_exponential_sum(kernel: DiscountKernel | None,
                        horizon: float) -> ExponentialSum | None:
    """The smallest sum of the term ladder within FIT_RTOL on [0, horizon].

    None when the kernel has no expansion or no term count fits.
    """
    if kernel is None or kernel.expansion is None:
        return None
    x = np.linspace(0.0, float(horizon), FIT_SAMPLES)
    exact = np.asarray(kernel.dlam_dt(0.0, x), dtype=float)
    scale = float(np.max(np.abs(exact)))
    for terms in TERM_LADDER:
        weights, rates = (np.asarray(v, dtype=float) for v in kernel.expansion(terms))
        err = float(np.max(np.abs(np.exp(-np.outer(x, rates)) @ weights - exact)))
        if err <= FIT_RTOL * scale:
            return ExponentialSum(weights, rates, err / scale if scale > 0 else 0.0)
    return None


def local_expansion(spec: ProblemSpec) -> ExponentialSum | None:
    """The exponential sum the local path would use for ``spec``, if any."""
    return fit_exponential_sum(spec.kernel, spec.horizon)


# ---------------------------------------------------------------------------
# the bordered sweep


def _bordered(A, B, b, Q, S, Linv, q, rho):
    """A_bar_s, B_bar M^{-1} B_bar^T and Q_bar_s, each (k, n+1, n+1), from M's
    inverse Cholesky factors ``Linv`` (module docstring)."""
    Ab, Qb = _border(A, b), _border(Q, q, q)
    X = Linv @ np.concatenate([S, rho[..., None]], axis=2)
    Y = np.concatenate([Linv @ np.swapaxes(B, -1, -2),
                        np.zeros((len(B), B.shape[-1], 1))], axis=2)
    YT = np.swapaxes(Y, -1, -2)
    Qs = Qb - np.swapaxes(X, -1, -2) @ X
    return Ab - YT @ X, YT @ Y, 0.5 * (Qs + np.swapaxes(Qs, -1, -2))


def _coefficients(t: SpecTables) -> tuple:
    """A_bar_s, B_bar M^{-1} B_bar^T, Q_bar_s on the stage table, (2N+1, ...)."""
    return _bordered(*(t.stages(name) for name in ("A", "B", "b", "Qd", "Sd")),
                     t.Md_chol_inv, t.stages("qd"), t.stages("rhod"))


def _stack_propagator(c, a, s: float) -> np.ndarray:
    """exp(-s Lambda) for the stack operator Lambda = [[0, c^T], [0, diag(a)]]."""
    E = np.diag(np.exp(np.concatenate([[0.0], -s * a])))
    phi = np.full(len(a), float(s))  # int_0^s exp(-a u) du, s where a = 0
    np.divide(-np.expm1(-s * a), a, out=phi, where=a != 0.0)
    E[0, 1:] = -c * phi
    return E


def _sweep(X_T, E_half, E_full, coefficients, h: float) -> np.ndarray:
    """The stack (Pi, Y_bar_1..R) at the nodes, (N+1, R+1, n+1, n+1)."""
    As, BMB, Qs = coefficients
    N, K, n1 = len(As) // 2, len(E_full), len(X_T)
    hh, h6, eye = 0.5 * h, h / 6.0, np.eye(K)
    S = np.empty((5, K) + X_T.shape)  # the slots (k1, X, k2, k3, k4)
    k1, X, k2, k3, k4 = S
    X[:] = X_T
    flat = S.reshape(5 * K, -1)
    # a stage input Z, L = X (As - BMB P) and the update U, and their views
    Z, L, U = np.empty((3, K) + X_T.shape)
    Zf, Uf, L2, LT, UT = (Z.reshape(K, -1), U.reshape(K, -1), L.reshape(-1, n1),
                          L.transpose(0, 2, 1), U.transpose(0, 2, 1))
    X2, Z2, PX, PZ = X.reshape(-1, n1), Z.reshape(-1, n1), X[0], Z[0]

    def rate(Xr, P, A, BM, Q, out):  # backward-time rate N(X) into out
        BP = BM.dot(P)
        Xr.dot(A - BP, out=L2)  # Xr: the stack's rows, (K (n+1), n+1)
        np.add(L, LT, out=out)
        out += Q + P.dot(BP)

    # stage inputs and update: block rows of the Lawson tableau on the slots
    (E2, S2), (E3, S3), (E4, S4) = (
        (np.hstack([hh * E_half, E_half]), flat[:2 * K]),  # (k1, X)
        (np.hstack([E_half, hh * eye]), flat[K:3 * K]),  # (X, k2)
        (np.hstack([E_full, 0 * eye, h * E_half]), flat[K:4 * K]))  # (X, k2, k3)
    update = np.hstack([h6 * E_full, E_full, 2 * h6 * E_half, 2 * h6 * E_half,
                        h6 * eye])
    nodes = np.empty((N + 1,) + X.shape)
    nodes[N] = X
    A1, B1, Q1 = As[-1], BMB[-1], Qs[-1]
    for j in range(2 * N - 2, -1, -2):  # t_{j/2+1} -> t_{j/2}: stages j + 2 .. j
        rate(X2, PX, A1, B1, Q1, k1)  # stage j + 2: the last step's k4 row
        Am, Bm, Qm = As[j + 1], BMB[j + 1], Qs[j + 1]  # the midpoint, k2 and k3
        E2.dot(S2, out=Zf)
        rate(Z2, PZ, Am, Bm, Qm, k2)
        E3.dot(S3, out=Zf)
        rate(Z2, PZ, Am, Bm, Qm, k3)
        A1, B1, Q1 = As[j], BMB[j], Qs[j]
        E4.dot(S4, out=Zf)
        rate(Z2, PZ, A1, B1, Q1, k4)
        update.dot(flat, out=Uf)
        np.add(U, UT, out=X)
        X *= 0.5
        nodes[j // 2] = X
    return nodes


def solve_local(spec: ProblemSpec, grid: TimeGrid, expansion: ExponentialSum
                ) -> tuple[RiccatiSolution, AuxiliarySolution]:
    """One backward Lawson RK4 sweep over the bordered (Pi, Y_bar_r).

    ``expansion`` is the kernel's exponential sum (:func:`local_expansion`);
    ``spec`` must be separable in that kernel.  Returns the Riccati and
    auxiliary parts with the same fields as the fixed-point path, and raises
    ConvergenceError if P escapes.  No (N+1)^2 table is built.
    """
    tables = SpecTables(spec, grid)
    n, h = spec.dims.n, grid.h
    c, a = expansion.weights, expansion.rates
    X_T = np.zeros((n + 1, n + 1))
    X_T[:n, :n] = tables.G_T
    X_T[:n, n] = X_T[n, :n] = tables.g_T
    with np.errstate(over="ignore", invalid="ignore"):
        X = _sweep(X_T, _stack_propagator(c, a, 0.5 * h),
                   _stack_propagator(c, a, h), _coefficients(tables), h)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=(1, 2, 3)))
    diag = FixedPointDiagnostics(
        iterations=1, deltas=[expansion.fit_error], converged=not len(bad),
        note=(f"local ODE sweep (Lawson RK4), R={expansion.terms} exponential "
              f"terms, fit error {expansion.fit_error:.1e}"))
    if len(bad):  # P escapes in finite time: name where, counting back from T
        diag.note += (f": the stack is not finite from t = {grid.nodes[bad[-1]]:.6g}"
                      f" (node {bad[-1]} of {grid.N}) backward")
        raise ConvergenceError(diag.note, diagnostics=diag)
    Pi, bar = X[:, 0], np.einsum("r,irab->iab", c, X[:, 1:])
    P, phi, psi = (np.ascontiguousarray(v)
                   for v in (Pi[:, :n, :n], Pi[:, :n, n], Pi[:, n, n]))
    qbb, sbb, omega = (np.ascontiguousarray(v)
                       for v in (bar[:, :n, :n], bar[:, :n, n], bar[:, n, n]))

    warn_if_indefinite(P, diag)
    gain = _gain_table(P, tables)
    riccati = RiccatiSolution(grid=grid, P=P, gain=gain, qbb=qbb,
                              closed_loop=_closed_loop_table(gain, tables),
                              diagnostics=diag, tables=tables, expansion=expansion)
    ups = _upsilon_table(phi, tables)
    auxiliary = AuxiliarySolution(
        phi=phi, psi=psi, upsilon=ups, sbb=sbb, omega=omega, diagnostics=diag,
        drive=closed_loop_drive(tables.b, tables.B, ups))
    return riccati, auxiliary
