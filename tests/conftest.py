"""Shared problem builders and session-cached solves."""

from types import SimpleNamespace

import numpy as np
import pytest

from tilq import (BaseCosts, Dimensions, DynamicsField, build_grid,
                  exponential_kernel, hyperbolic_kernel, make_discounted,
                  solve_equilibrium)
from tilq.tables import SpecTables


def classical_scalar_spec():
    """A = 0, B = 1, M = 1, G = 1, everything else zero: P(t) = 1/(2 - t)."""
    return make_discounted(
        Dimensions(1, 1), 1.0,
        DynamicsField.constant([[0.0]], [[1.0]], [0.0]),
        BaseCosts(Q=[[0.0]], S=[[0.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                  G=[[1.0]], g=[0.0]),
        exponential_kernel(0.0), name="classical_scalar")


def hyperbolic_scalar_spec(k=1.0):
    return make_discounted(
        Dimensions(1, 1), 1.0,
        DynamicsField.constant([[-0.2]], [[1.0]], [0.1]),
        BaseCosts(Q=[[1.0]], S=[[0.1]], M=[[1.0]], q=[0.05], rho=[0.02],
                  G=[[1.0]], g=[0.1]),
        hyperbolic_kernel(k), name=f"hyperbolic_scalar_k{k}")


def twostate_spec(kernel=None):
    return make_discounted(
        Dimensions(2, 1), 1.0,
        DynamicsField.constant([[0.0, 1.0], [-0.5, -0.3]], [[0.0], [1.0]],
                               [0.05, 0.0]),
        BaseCosts(Q=[[1.0, 0.1], [0.1, 0.5]], S=[[0.1, 0.0]], M=[[1.0]],
                  q=[0.02, 0.0], rho=[0.01], G=[[0.5, 0.0], [0.0, 0.5]],
                  g=[0.05, 0.0]),
        kernel or hyperbolic_kernel(1.0), name="twostate")


def tabulated_twin(document, points=801):
    """A problem document whose discount is 1 / (1 + (s - t)) tabulated.

    A tabulated discount has no exponential-sum fit, so the twin is solved
    by the fixed point.  The two-state demo needs 801 times: a 401-point
    table fails validation.
    """
    times = np.linspace(0.0, document["horizon"], points)
    lag = np.clip(times[None, :] - times[:, None], 0.0, None)
    return dict(document, discount={"family": "tabulated",
                                    "times": times.tolist(),
                                    "values": (1.0 / (1.0 + lag)).tolist()})


def threestate_spec(kernel=None):
    """n = 3, m = 2: A(t), B(t) vary in time and do not commute, G'(t) != 0.

    Every cost matrix is full (S is non-square), so a transposed index in a
    pair contraction changes the numbers, which n = 1 cannot show.  Q has a
    callable base, which the separable field calls once per node.
    """
    def A(t):
        return np.array([[-0.3, 1.0 + t, 0.0],
                         [-0.5 * t, -0.2, 0.4],
                         [0.2, -t * t, -0.1]])

    def B(t):
        return np.array([[1.0, 0.0], [0.3 * t, 1.0], [0.0, 0.5 - 0.2 * t]])

    def b(t):
        return np.array([0.05, -0.02 * t, 0.03])

    def Q(s):
        return np.array([[1.0 + 0.3 * s, 0.2, 0.1],
                         [0.2, 0.8, -0.1 * s],
                         [0.1, -0.1 * s, 0.6]])

    return make_discounted(
        Dimensions(3, 2), 1.0, DynamicsField(A=A, B=B, b=b),
        BaseCosts(Q=Q, S=[[0.1, 0.05, 0.0], [0.0, 0.1, -0.05]],
                  M=[[1.0, 0.2], [0.2, 0.7]], q=[0.02, -0.01, 0.03],
                  rho=[0.01, -0.02], G=[[0.5, 0.1, 0.0], [0.1, 0.4, 0.05],
                                        [0.0, 0.05, 0.3]],
                  g=[0.05, 0.0, -0.02]),
        kernel or hyperbolic_kernel(1.0), name="threestate")


def zero_cost_spec():
    return make_discounted(
        Dimensions(1, 1), 1.0,
        DynamicsField.constant([[0.3]], [[1.0]], [0.0]),
        BaseCosts(Q=[[0.0]], S=[[0.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                  G=[[0.0]], g=[0.0]),
        hyperbolic_kernel(1.0), name="zero_cost")


@pytest.fixture(scope="session")
def hyperbolic_solution():
    """Solved scalar hyperbolic demo at N = 1000, reused across test modules."""
    spec = hyperbolic_scalar_spec(1.0)
    grid = build_grid(1.0, 1000)
    return solve_equilibrium(spec, grid)


@pytest.fixture(scope="session")
def classical_solution():
    spec = classical_scalar_spec()
    grid = build_grid(1.0, 1000)
    return solve_equilibrium(spec, grid)


@pytest.fixture(scope="session")
def twostate_solution():
    spec = twostate_spec()
    grid = build_grid(1.0, 300)
    return solve_equilibrium(spec, grid)


def classical_exact_p(nodes: np.ndarray) -> np.ndarray:
    return 1.0 / (2.0 - nodes)


def dynamics_tables(dynamics, grid):
    """SpecTables of bare dynamics, for the solver's closed-loop functions.

    Only the dynamics evaluations (A, B, b at nodes and half nodes) exist;
    the cost tables would fail for want of cost kernels.
    """
    n, m = np.atleast_2d(np.asarray(dynamics.B(0.0), dtype=float)).shape
    return SpecTables(SimpleNamespace(dynamics=dynamics, dims=Dimensions(n, m),
                                      horizon=grid.T), grid)
