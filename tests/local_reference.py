"""Reference implementation of the local path's Lawson RK4 sweep.

This is the form the package used before the constant stack coupling
Qbb = sum_r c_r Y_bar_r moved into the integrating factor: each stage rate
subtracts the coupling from Pi's rate, and only the decays a_r enter
through the scalar factors exp(-a_r h/2) and exp(-a_r h), one per stack
member.  Every product is a broadcast ``@``.  Both forms are Lawson RK4
schemes of the same equations, so they agree to O(h^4), not to rounding:
on the problems of ``test_local`` to at most 0.2 h^4 relative.  The oracle
tests hold the package's sweep to 0.5 h^4 at N = 80 and 1e-11 at N = 400,
and to rounding where every rate and weight is 0.  It reads the same stage
coefficients and terminal stack as the package, so it checks how the sweep
steps, not the data that enter it.

``bordered_explicit_inverse`` forms the sweep's stage coefficients the way
the package did before it solved through the tables' inverse Cholesky
factor: through an explicit inverse of the symmetric part of M, with
B_bar M^{-1} B_bar^T and Q_bar_s symmetrized afterwards.

``lawson_sweep`` is the package's own scheme in its plain form: the same
Lawson tableau as block rows on the slots (k1, X, k2, k3, k4), with every
rate formed by fresh ``np.dot`` products and reshapes.  The package's sweep
steps it with buffers and views formed once, the same products in the same
order, so the two agree bit for bit.
"""

import numpy as np

from tilq.grid import _border
from tilq.local import _coefficients
from tilq.tables import SpecTables


def _rate(X, c, As, BMB, Qs):
    """Backward-time rate of the stack (Pi, Y_bar_r) without the a_r terms."""
    P = X[0]
    BP = BMB @ P
    AX = np.matmul((As - BP).T, X)
    k = AX + AX.transpose(0, 2, 1)
    k += Qs + P @ BP
    k[0] -= (c @ X[1:].reshape(len(c), -1)).reshape(P.shape)
    return k


def _sweep(X_T, c, eh, ef, coefficients, h: float) -> np.ndarray:
    """The stack (Pi, Y_bar_1..R) at the nodes, (N+1, R+1, n+1, n+1)."""
    As, BMB, Qs = coefficients
    N = len(As) // 2
    X = np.broadcast_to(X_T, (len(c) + 1,) + X_T.shape).copy()
    nodes = np.empty((N + 1,) + X.shape)
    nodes[N] = X
    hh, h6, heh, eh2 = 0.5 * h, h / 6.0, h * eh, 2.0 * eh
    for j in range(2 * N - 2, -1, -2):  # t_{j/2+1} -> t_{j/2}: stages j + 2 .. j
        k1 = _rate(X, c, As[j + 2], BMB[j + 2], Qs[j + 2])
        k2 = _rate(eh * (X + hh * k1), c, As[j + 1], BMB[j + 1], Qs[j + 1])
        k3 = _rate(eh * X + hh * k2, c, As[j + 1], BMB[j + 1], Qs[j + 1])
        k4 = _rate(ef * X + heh * k3, c, As[j], BMB[j], Qs[j])
        X = ef * X + h6 * (ef * k1 + eh2 * (k2 + k3) + k4)
        X = 0.5 * (X + X.transpose(0, 2, 1))
        nodes[j // 2] = X
    return nodes


def _lawson_rate(X, As, BMB, Qs, out):
    """Backward-time rate N(X) of the stack (Pi, Y_bar_r) into ``out``."""
    P = X[0]
    BP = np.dot(BMB, P)
    XL = np.dot(X.reshape(-1, len(P)), As - BP).reshape(X.shape)
    np.add(XL, XL.transpose(0, 2, 1), out=out)
    out += Qs + np.dot(P, BP)


def lawson_sweep(X_T, E_half, E_full, coefficients, h: float) -> np.ndarray:
    """The stack (Pi, Y_bar_1..R) at the nodes, (N+1, R+1, n+1, n+1)."""
    As, BMB, Qs = coefficients
    N, K = len(As) // 2, len(E_full)
    hh, h6, eye = 0.5 * h, h / 6.0, np.eye(K)
    S = np.empty((5, K) + X_T.shape)  # the slots (k1, X, k2, k3, k4)
    k1, X, k2, k3, k4 = S
    X[:] = X_T
    flat = S.reshape(5 * K, -1)
    # stage inputs and update: block rows of the Lawson tableau on the slots
    rows = ((np.hstack([hh * E_half, E_half]), flat[:2 * K]),  # (k1, X)
            (np.hstack([E_half, hh * eye]), flat[K:3 * K]),  # (X, k2)
            (np.hstack([E_full, 0 * eye, h * E_half]), flat[K:4 * K]))  # (X, k2, k3)
    update = np.hstack([h6 * E_full, E_full, 2 * h6 * E_half, 2 * h6 * E_half,
                        h6 * eye])
    nodes = np.empty((N + 1,) + X.shape)
    nodes[N] = X
    for j in range(2 * N - 2, -1, -2):  # t_{j/2+1} -> t_{j/2}: stages j + 2 .. j
        _lawson_rate(X, As[j + 2], BMB[j + 2], Qs[j + 2], k1)
        for (E, slots), i, k in zip(rows, (j + 1, j + 1, j), (k2, k3, k4)):
            _lawson_rate(np.dot(E, slots).reshape(X.shape), As[i], BMB[i], Qs[i], k)
        Y = np.dot(update, flat).reshape(X.shape)
        np.add(Y, Y.transpose(0, 2, 1), out=X)
        X *= 0.5
        nodes[j // 2] = X
    return nodes


def bordered_explicit_inverse(tables):
    """A_bar_s, B_bar M^{-1} B_bar^T and Q_bar_s on the stage table."""
    A, B, b, Q, S, M, q, rho = (tables.stages(name) for name in (
        "A", "B", "b", "Qd", "Sd", "Md", "qd", "rhod"))
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    Ab, Qb = _border(A, b), _border(Q, q, q)
    Bb = np.concatenate([B, np.zeros((len(B), 1, B.shape[-1]))], axis=1)
    Sb = np.concatenate([S, rho[..., None]], axis=2)
    Minv = np.linalg.inv(M)
    MS = Minv @ Sb
    BMB = Bb @ Minv @ np.swapaxes(Bb, -1, -2)
    Qs = Qb - np.swapaxes(Sb, -1, -2) @ MS
    return (Ab - Bb @ MS, 0.5 * (BMB + np.swapaxes(BMB, -1, -2)),
            0.5 * (Qs + np.swapaxes(Qs, -1, -2)))


def sweep_inputs(spec, grid):
    """The terminal stack (G_hat, g_hat bordered) and the stage coefficients."""
    tables = SpecTables(spec, grid)
    n = spec.dims.n
    X_T = np.zeros((n + 1, n + 1))
    X_T[:n, :n] = tables.G_T
    X_T[:n, n] = X_T[n, :n] = tables.g_T
    return X_T, _coefficients(tables)


def sweep(spec, grid, expansion) -> np.ndarray:
    """The reference stack at the nodes for ``spec`` on ``grid``."""
    X_T, coefficients = sweep_inputs(spec, grid)
    h = grid.h
    rates = np.concatenate([[0.0], expansion.rates])[:, None, None]
    return _sweep(X_T, expansion.weights, np.exp(-0.5 * h * rates),
                  np.exp(-h * rates), coefficients, h)
