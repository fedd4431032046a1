import numpy as np
import pytest

from tilq import DynamicsField, TilqError, build_grid, quadrature
from tilq.grid import TransitionTable, open_loop_transition
from tilq.riccati import _closed_loop_table
from conftest import dynamics_tables
from pair_tables import from_pair_layout, full_table


def open_loop_table(dyn, grid):
    """Node-major open-loop propagators Phi(t_i, t_j) from open_loop_transition."""
    return full_table(open_loop_transition(dyn, grid).steps, grid)


class TestBuildGrid:
    def test_nodes_quarter(self):
        grid = build_grid(1.0, 4)
        np.testing.assert_array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_nodes_coarse(self):
        grid = build_grid(2.0, 2)
        np.testing.assert_array_equal(grid.nodes, [0.0, 1.0, 2.0])

    def test_single_interval_rejected(self):
        with pytest.raises(TilqError):
            build_grid(1.0, 1)

    def test_negative_horizon_rejected(self):
        with pytest.raises(TilqError):
            build_grid(-1.0, 10)


class TestQuadrature:
    def test_constant_exact(self):
        # bit-exact when h is a dyadic rational, machine precision otherwise
        grid = build_grid(1.0, 4)
        assert float(quadrature(np.ones(5), grid)) == 1.0
        for N in (7, 100):
            grid = build_grid(1.0, N)
            assert quadrature(np.ones(N + 1), grid) == pytest.approx(1.0, rel=1e-14)

    def test_affine_exact(self):
        grid = build_grid(1.0, 10)
        assert quadrature(grid.nodes, grid) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_second_order(self):
        grid = build_grid(1.0, 1000)
        got = quadrature(grid.nodes ** 2, grid)
        assert abs(got - 1.0 / 3.0) < 1e-6

    def test_subrange(self):
        grid = build_grid(1.0, 10)
        # integral of 1 over [0.2, 0.7]
        assert quadrature(np.ones(6), grid, 2, 7) == pytest.approx(0.5)

    def test_empty_range_rejected(self):
        grid = build_grid(1.0, 10)
        with pytest.raises(TilqError):
            quadrature(np.ones(0), grid, 5, 4)

    def test_matrix_valued(self):
        grid = build_grid(1.0, 50)
        samples = np.repeat(np.eye(2)[None], 51, axis=0)
        np.testing.assert_allclose(quadrature(samples, grid), np.eye(2))


class TestOpenLoopTransition:
    def test_zero_dynamics_identity(self):
        dyn = DynamicsField.constant([[0.0, 0.0], [0.0, 0.0]],
                                     [[1.0], [0.0]], [0.0, 0.0])
        table = open_loop_table(dyn, build_grid(1.0, 8))
        for i in range(9):
            for j in range(i + 1):
                np.testing.assert_array_equal(table[i, j], np.eye(2))

    def test_scalar_exponential(self):
        dyn = DynamicsField.constant([[1.0]], [[1.0]], [0.0])
        table = open_loop_table(dyn, build_grid(1.0, 100))
        assert abs(table[100, 0, 0, 0] - np.e) < 1e-8

    def test_noncommuting_matches_fine_grid(self):
        # A(t) = [[0, 1], [-t, 0]] does not commute with itself across times
        dyn = DynamicsField(A=lambda t: np.array([[0.0, 1.0], [-t, 0.0]]),
                            B=lambda t: np.array([[0.0], [1.0]]),
                            b=lambda t: np.zeros(2))
        coarse = open_loop_table(dyn, build_grid(1.0, 200))
        fine = open_loop_table(dyn, build_grid(1.0, 2000))
        err = np.max(np.abs(coarse[200, 0] - fine[2000, 0]))
        assert err < 1e-6

    def test_rk4_refinement_order(self):
        dyn = DynamicsField(A=lambda t: np.array([[np.sin(t), 1.0],
                                                  [-1.0, np.cos(t)]]),
                            B=lambda t: np.zeros((2, 1)),
                            b=lambda t: np.zeros(2))
        ref = open_loop_table(dyn, build_grid(1.0, 1600))[1600, 0]
        e1 = np.max(np.abs(open_loop_table(dyn, build_grid(1.0, 100))[100, 0] - ref))
        e2 = np.max(np.abs(open_loop_table(dyn, build_grid(1.0, 200))[200, 0] - ref))
        assert e1 / e2 >= 8.0

    def test_determinism(self):
        dyn = DynamicsField(A=lambda t: np.array([[np.sin(3 * t)]]),
                            B=lambda t: np.ones((1, 1)),
                            b=lambda t: np.zeros(1))
        t1 = open_loop_table(dyn, build_grid(1.0, 64))
        t2 = open_loop_table(dyn, build_grid(1.0, 64))
        np.testing.assert_array_equal(t1, t2)

    def test_spec_tables_steps_are_the_same_bits(self):
        # the solvers read SpecTables.open_loop_steps; they must be the steps
        # this function builds from the callables, bit for bit
        dyn = DynamicsField(A=lambda t: np.array([[np.sin(t), 1.0 + t],
                                                  [-t * t, np.cos(t)]]),
                            B=lambda t: np.array([[0.0], [1.0]]),
                            b=lambda t: np.zeros(2))
        grid = build_grid(1.0, 90)
        np.testing.assert_array_equal(
            dynamics_tables(dyn, grid).open_loop_steps,
            open_loop_transition(dyn, grid).steps)


class TestClosedLoopTransition:
    def test_zero_gain_equals_open_loop(self):
        dyn = DynamicsField(A=lambda t: np.array([[np.cos(t)]]),
                            B=lambda t: np.ones((1, 1)),
                            b=lambda t: np.zeros(1))
        grid = build_grid(1.0, 50)
        closed = _closed_loop_table(np.zeros((51, 1, 1)), dynamics_tables(dyn, grid))
        np.testing.assert_array_equal(open_loop_table(dyn, grid),
                                      full_table(closed, grid))

    def test_constant_gain_exponential(self):
        dyn = DynamicsField.constant([[0.0]], [[1.0]], [0.0])
        grid = build_grid(1.0, 100)
        steps = _closed_loop_table(np.ones((101, 1, 1)), dynamics_tables(dyn, grid))
        assert abs(full_table(steps, grid)[100, 0, 0, 0] - np.exp(-1.0)) < 1e-8

    def test_volterra_integral_form(self):
        # Phi(i,j) - E(i,j) + int E(i,tau) B Gamma(tau) Phi(tau,j) dtau = 0
        rng = np.random.default_rng(7)
        a, bb = -0.6, 0.8
        gain_profile = rng.uniform(0.2, 1.0, size=3)

        def gain_fn(t):
            return gain_profile[0] + gain_profile[1] * t + gain_profile[2] * t * t

        dyn = DynamicsField.constant([[a]], [[bb]], [0.0])
        grid = build_grid(1.0, 200)
        gain = np.array([[[gain_fn(t)]] for t in grid.nodes])
        E = open_loop_table(dyn, grid)[..., 0, 0]
        Phi = full_table(_closed_loop_table(gain, dynamics_tables(dyn, grid)),
                         grid)[..., 0, 0]
        h = grid.h
        for (i, j) in [(200, 0), (150, 30), (70, 70)]:
            vals = np.array([E[i, k] * bb * gain[k, 0, 0] * Phi[k, j]
                             for k in range(j, i + 1)])
            integral = quadrature(vals, grid, j, i)
            residual = Phi[i, j] - E[i, j] + integral
            assert abs(residual) <= 5 * h * h

    def test_semigroup_property(self):
        dyn = DynamicsField(A=lambda t: np.array([[np.sin(t), 0.2],
                                                  [0.0, -0.5 * t]]),
                            B=lambda t: np.array([[0.0], [1.0]]),
                            b=lambda t: np.zeros(2))
        grid = build_grid(1.0, 60)
        gain = 0.3 * np.ones((61, 1, 2))
        for full in (open_loop_table(dyn, grid),
                     full_table(_closed_loop_table(gain, dynamics_tables(dyn, grid)),
                                grid)):
            scale = np.max(np.abs(full))
            for (i, k, j) in [(60, 30, 0), (50, 45, 10), (33, 20, 20)]:
                err = np.max(np.abs(full[i, j] - full[i, k] @ full[k, j]))
                assert err <= 1e-8 * scale


def _varying_gain_closed_loop(grid):
    dyn = DynamicsField(A=lambda t: np.array([[0.0, 1.0], [-1.0, -0.3]]),
                        B=lambda t: np.array([[0.0], [1.0 + t]]),
                        b=lambda t: np.zeros(2))
    gain = np.array([[[np.cos(3 * t), 1.0 + t * t]] for t in grid.nodes])
    return TransitionTable(grid, _closed_loop_table(gain, dynamics_tables(dyn, grid)))


class TestStorageBudget:
    def test_on_demand_matches_full(self):
        # the first pair_table() call builds the table, later calls return it.
        # Only n = 2 with A(t) that do not commute, open or closed loop, can
        # tell a step from its transpose.
        grid = build_grid(1.0, 40)
        scalar = DynamicsField(A=lambda t: np.array([[np.cos(2 * t)]]),
                               B=lambda t: np.ones((1, 1)),
                               b=lambda t: np.zeros(1))
        noncommuting = DynamicsField(
            A=lambda t: np.array([[0.0, 1.0 + t], [-2.0 * t, np.sin(3 * t)]]),
            B=lambda t: np.ones((2, 1)), b=lambda t: np.zeros(2))
        for table in (open_loop_transition(scalar, grid),
                      open_loop_transition(noncommuting, grid),
                      _varying_gain_closed_loop(grid)):
            kept = table.pair_table()
            full = from_pair_layout(kept)
            for j in range(grid.N + 1):
                composed = np.eye(table.dim)
                for i in range(j, grid.N + 1):
                    np.testing.assert_allclose(full[i, j], composed,
                                               rtol=0, atol=1e-13)
                    if i < grid.N:
                        composed = table.steps[i] @ composed
            assert table.pair_table() is kept
