import dataclasses

import numpy as np
import pytest

import tilq
from tilq import (BaseCosts, ConsistencyError, Dimensions, DynamicsField,
                  TilqError, build_grid, cost, error_function_closed,
                  error_function_direct, exponential_kernel, feedback,
                  grad_value, make_discounted, simulate_control,
                  simulate_equilibrium, solve_equilibrium, value)
from tilq.policy import interp_table
from conftest import (classical_scalar_spec, hyperbolic_scalar_spec,
                      threestate_spec, twostate_spec, zero_cost_spec)


class TestValueFunction:
    def test_zero_problem_zero_value(self):
        sol = solve_equilibrium(zero_cost_spec(), build_grid(1.0, 100))
        for (t, x) in [(0.0, 1.3), (0.5, -2.0), (1.0, 0.1)]:
            assert value(sol, t, [x]) == pytest.approx(0.0, abs=1e-12)

    def test_classical_value(self, classical_solution):
        # V(0, 2) = P(0) * 4 = 2
        assert value(classical_solution, 0.0, [2.0]) == pytest.approx(2.0,
                                                                      abs=4e-4)

    def test_value_at_origin_is_psi(self, hyperbolic_solution):
        sol = hyperbolic_solution
        for i in (0, 400, 1000):
            t = float(sol.grid.nodes[i])
            assert value(sol, t, np.zeros(1)) == pytest.approx(
                float(sol.auxiliary.psi[i]), abs=1e-14)

    def test_outside_horizon_rejected(self, hyperbolic_solution):
        with pytest.raises(TilqError):
            value(hyperbolic_solution, 1.5, [0.0])
        with pytest.raises(TilqError):
            value(hyperbolic_solution, -0.1, [0.0])


class TestGradient:
    def test_classical_gradient(self, classical_solution):
        got = grad_value(classical_solution, 0.0, [1.0])
        assert got[0] == pytest.approx(1.0, abs=2e-4)

    def test_gradient_at_origin(self, hyperbolic_solution):
        sol = hyperbolic_solution
        got = grad_value(sol, float(sol.grid.nodes[300]), np.zeros(1))
        assert got[0] == pytest.approx(2.0 * sol.auxiliary.phi[300, 0],
                                       abs=1e-14)

    def test_matches_central_differences(self, hyperbolic_solution):
        sol = hyperbolic_solution
        rng = np.random.default_rng(3)
        for _ in range(25):
            t = float(rng.uniform(0, 1))
            x = rng.uniform(-2, 2, size=1)
            g = grad_value(sol, t, x)
            h = 1e-5
            fd = (value(sol, t, x + h) - value(sol, t, x - h)) / (2 * h)
            assert abs(fd - g[0]) <= 1e-6 * (1 + abs(g[0]))

    def test_matches_central_differences_twostate(self, twostate_solution):
        sol = twostate_solution
        rng = np.random.default_rng(4)
        for _ in range(10):
            t = float(rng.uniform(0, 1))
            x = rng.uniform(-2, 2, size=2)
            g = grad_value(sol, t, x)
            h = 1e-5
            for a in range(2):
                e = np.zeros(2)
                e[a] = h
                fd = (value(sol, t, x + e) - value(sol, t, x - e)) / (2 * h)
                assert abs(fd - g[a]) <= 1e-6 * (1 + abs(g[a]))


class TestFeedback:
    def test_zero_problem(self):
        sol = solve_equilibrium(zero_cost_spec(), build_grid(1.0, 80))
        assert feedback(sol, 0.3, [1.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_classical_gain(self, classical_solution):
        assert feedback(classical_solution, 0.0, [1.0])[0] == pytest.approx(
            -0.5, abs=2e-4)

    def test_origin_gives_affine_part(self, hyperbolic_solution):
        sol = hyperbolic_solution
        for i in (0, 500, 1000):
            t = float(sol.grid.nodes[i])
            got = feedback(sol, t, np.zeros(1))
            assert got[0] == pytest.approx(-float(sol.auxiliary.upsilon[i, 0]),
                                           abs=1e-12)

    def test_two_formulas_agree_at_nodes(self, hyperbolic_solution):
        sol = hyperbolic_solution
        rng = np.random.default_rng(5)
        for _ in range(100):
            i = int(rng.integers(0, sol.grid.N + 1))
            x = rng.uniform(-3, 3, size=1)
            u = feedback(sol, float(sol.grid.nodes[i]), x)
            via_gain = -(sol.riccati.gain[i] @ x) - sol.auxiliary.upsilon[i]
            assert np.max(np.abs(u - via_gain)) <= 1e-10 * (1 + np.max(np.abs(u)))


    def test_outside_horizon_rejected(self, hyperbolic_solution):
        for t in (-0.1, 1.5):
            with pytest.raises(TilqError):
                feedback(hyperbolic_solution, t, [0.0])


def gradient_form(sol, t, P, phi, x):
    """-M^{-1}(1/2 B^T grad V + S x + rho) from the spec's callables."""
    spec = sol.spec
    grad = 2.0 * (P @ x) + 2.0 * phi
    rhs = (0.5 * np.asarray(spec.dynamics.B(t)).T @ grad
           + np.asarray(spec.S(t, t)) @ x + np.asarray(spec.rho(t, t)))
    return -np.linalg.solve(np.asarray(spec.M(t, t)), rhs)


FEEDBACK_SPECS = {"scalar": (hyperbolic_scalar_spec, 80),
                  "twostate": (twostate_spec, 60),
                  "threestate": (threestate_spec, 60)}


class TestFeedbackTable:
    """The tabulated feedback against the gradient form, computed here."""

    @pytest.fixture(scope="class", params=sorted(FEEDBACK_SPECS))
    def sol(self, request):
        make, N = FEEDBACK_SPECS[request.param]
        return solve_equilibrium(make(), build_grid(1.0, N))

    def test_matches_gradient_form_at_nodes_and_half_nodes(self, sol):
        grid, n = sol.grid, sol.spec.dims.n
        P, phi = sol.riccati.P, sol.auxiliary.phi
        rng = np.random.default_rng(31)
        K, k = sol.feedback_table
        assert K.shape == (2 * grid.N + 1, sol.spec.dims.m, n)
        assert k.shape == (2 * grid.N + 1, sol.spec.dims.m)
        for i in range(grid.N + 1):
            x = rng.uniform(-2, 2, size=n)
            t = float(grid.nodes[i])
            ref = gradient_form(sol, t, P[i], phi[i], x)
            u = feedback(sol, t, x)
            assert np.max(np.abs(u - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
            if i == grid.N:
                break
            t = t + 0.5 * grid.h
            ref = gradient_form(sol, t, 0.5 * (P[i] + P[i + 1]),
                                0.5 * (phi[i] + phi[i + 1]), x)
            u = feedback(sol, t, x)
            assert np.max(np.abs(u - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))

    def test_off_node_within_h_squared(self, sol):
        grid, n = sol.grid, sol.spec.dims.n
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(200):
            t = float(rng.uniform(0.0, grid.T))
            x = rng.uniform(-2, 2, size=n)
            ref = gradient_form(sol, t, interp_table(sol.riccati.P, grid, t),
                                interp_table(sol.auxiliary.phi, grid, t), x)
            worst = max(worst, float(np.max(np.abs(feedback(sol, t, x) - ref))))
        # C = 0.1 holds with room on threestate (about 0.03); the others are
        # affine in P and phi, so interpolating K and k there is exact
        assert worst <= 0.1 * grid.h ** 2

    def test_open_loop_table_matches_per_stage_interpolation(self, sol):
        spec, grid = sol.spec, sol.grid
        n, m, N = spec.dims.n, spec.dims.m, grid.N
        rng = np.random.default_rng(33)
        table = rng.uniform(-1, 1, size=(N + 1, m))
        table[N // 3:] += 2.0  # a jump, as in the Bellman candidates
        x = rng.uniform(-2, 2, size=n)
        t_idx = 5
        got = simulate_control(spec, grid, table, t_idx, x, tables=sol.tables)
        tbl, h = sol.tables, grid.h
        y = x
        states = [y]
        for i in range(t_idx, N):
            t0 = float(grid.nodes[i])
            u0 = interp_table(table, grid, t0)
            um = interp_table(table, grid, t0 + 0.5 * h)
            u1 = interp_table(table, grid, float(grid.nodes[i + 1]))
            Am, Bm, bm = tbl.A_half[i], tbl.B_half[i], tbl.b_half[i]
            k1 = tbl.A[i] @ y + tbl.B[i] @ u0 + tbl.b[i]
            k2 = Am @ (y + 0.5 * h * k1) + Bm @ um + bm
            k3 = Am @ (y + 0.5 * h * k2) + Bm @ um + bm
            k4 = tbl.A[i + 1] @ (y + h * k3) + tbl.B[i + 1] @ u1 + tbl.b[i + 1]
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            states.append(y)
        scale = 1.0 + np.max(np.abs(states))
        assert np.max(np.abs(got.states - np.array(states))) <= 1e-14 * scale
        np.testing.assert_array_equal(got.controls, table[t_idx:])

    def test_perturbed_gain_raises_at_its_node(self):
        sol = solve_equilibrium(twostate_spec(), build_grid(1.0, 60))
        gain = sol.riccati.gain.copy()
        gain[17, 0, 1] += 1e-6
        bad = dataclasses.replace(
            sol, riccati=dataclasses.replace(sol.riccati, gain=gain))
        t_bad = float(sol.grid.nodes[17])
        # the first call, far from node 17, checks every node
        with pytest.raises(ConsistencyError, match=f"t={t_bad:.6g}"):
            feedback(bad, 0.9, [0.3, -0.2])
        # nothing was cached: the next call raises again
        with pytest.raises(ConsistencyError):
            feedback(bad, 0.0, [0.3, -0.2])
        assert feedback(sol, 0.9, [0.3, -0.2]).shape == (1,)

    def test_rollout_factors_m_once(self, monkeypatch):
        sol = solve_equilibrium(hyperbolic_scalar_spec(), build_grid(1.0, 200))
        calls = []
        original = tilq.tables.factor_md

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (tilq.tables, tilq.policy, tilq.riccati, tilq.auxiliary):
            if hasattr(module, "factor_md"):
                monkeypatch.setattr(module, "factor_md", counting)
        for x in ([1.0], [-0.5]):
            simulate_control(sol.spec, sol.grid, lambda t, y: feedback(sol, t, y),
                             0, x, tables=sol.tables)
        assert len(calls) <= 1


class TestSimulation:
    def test_unforced_rest_state(self):
        spec = zero_cost_spec()
        grid = build_grid(1.0, 60)
        sol = solve_equilibrium(spec, grid)
        traj = simulate_equilibrium(sol, 0, [0.0])
        np.testing.assert_array_equal(traj.states, np.zeros_like(traj.states))

    def test_pure_drift(self):
        # A = B = 0, b = 1 from x = 0: y(s) = s
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.0]], [[0.0]], [1.0]),
            BaseCosts(Q=[[0.0]], S=[[0.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                      G=[[0.0]], g=[0.0]),
            exponential_kernel(0.0))
        grid = build_grid(1.0, 50)
        sol = solve_equilibrium(spec, grid)
        traj = simulate_equilibrium(sol, 0, [0.0])
        np.testing.assert_allclose(traj.states[:, 0], grid.nodes, atol=1e-13)

    def test_uncontrolled_exponential_growth(self):
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[1.0]], [[1.0]], [0.0]),
            BaseCosts(Q=[[0.0]], S=[[0.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                      G=[[0.0]], g=[0.0]),
            exponential_kernel(0.0))
        grid = build_grid(1.0, 100)
        traj = simulate_control(spec, grid, np.zeros((101, 1)), 0, [1.0])
        assert abs(traj.states[-1, 0] - np.e) < 1e-8

    def test_classical_trajectory_closed_form(self, classical_solution):
        sol = classical_solution
        traj = simulate_equilibrium(sol, 0, [1.0])
        exact = (2.0 - sol.grid.nodes) / 2.0
        assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-5

    def test_feedback_rollout_matches_table_path(self, hyperbolic_solution):
        sol = hyperbolic_solution
        a = simulate_equilibrium(sol, 100, [0.5])
        b = simulate_control(sol.spec, sol.grid,
                             lambda t, y: feedback(sol, t, y), 100, [0.5])
        assert np.max(np.abs(a.states - b.states)) < 1e-6

    def test_feedback_rollout_matches_table_path_twostate(self, twostate_solution):
        sol = twostate_solution
        x0 = np.array([0.8, -0.3])
        a = simulate_equilibrium(sol, 30, x0)
        b = simulate_control(sol.spec, sol.grid,
                             lambda t, y: feedback(sol, t, y), 30, x0)
        assert np.max(np.abs(a.states - b.states)) < 1e-6


class TestStackedSimulation:
    """Stacked runs of simulate_control against one run per row."""

    @pytest.fixture(scope="class")
    def sol(self):
        return solve_equilibrium(threestate_spec(), build_grid(1.0, 60))

    @staticmethod
    def assert_rows_match(stacked, singles):
        for j, one in enumerate(singles):
            for got, want in ((stacked.states[j], one.states),
                              (stacked.controls[j], one.controls)):
                scale = 1.0 + np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-14 * scale

    def test_starts_sharing_one_table(self, sol):
        spec, grid = sol.spec, sol.grid
        rng = np.random.default_rng(34)
        table = rng.uniform(-1, 1, size=(grid.N - 8, spec.dims.m))
        starts = rng.uniform(-2, 2, size=(4, spec.dims.n))
        stacked = simulate_control(spec, grid, table, 9, starts,
                                   tables=sol.tables)
        assert stacked.states.shape == (4, grid.N - 8, spec.dims.n)
        assert stacked.controls.shape == (4, grid.N - 8, spec.dims.m)
        np.testing.assert_array_equal(stacked.start_state, starts)
        self.assert_rows_match(stacked, [
            simulate_control(spec, grid, table, 9, x, tables=sol.tables)
            for x in starts])

    def test_tables_from_one_start(self, sol):
        spec, grid = sol.spec, sol.grid
        rng = np.random.default_rng(35)
        tables = rng.uniform(-1, 1, size=(5, 31, spec.dims.m))
        x = rng.uniform(-2, 2, size=spec.dims.n)
        stacked = simulate_control(spec, grid, tables, 12, x, stop_idx=42,
                                   tables=sol.tables)
        self.assert_rows_match(stacked, [
            simulate_control(spec, grid, u, 12, x, stop_idx=42,
                             tables=sol.tables) for u in tables])

    def test_starts_paired_with_tables(self, sol):
        spec, grid = sol.spec, sol.grid
        rng = np.random.default_rng(36)
        tables = rng.uniform(-1, 1, size=(3, grid.N + 1, spec.dims.m))
        starts = rng.uniform(-2, 2, size=(3, spec.dims.n))
        stacked = simulate_control(spec, grid, tables, 0, starts,
                                   tables=sol.tables)
        self.assert_rows_match(stacked, [
            simulate_control(spec, grid, u, 0, x, tables=sol.tables)
            for u, x in zip(tables, starts)])

    @pytest.mark.parametrize("starts, table", [
        ((3, 3), (2, 61, 2)),   # stack sizes differ
        ((3, 2), (61, 2)),      # start width is not n
        ((0, 3), (61, 2)),      # empty stack
        ((2, 1, 3), (61, 2)),   # start states with three axes
        ((3,), (2, 61, 3)),     # control width is not m
        ((3,), (2, 50, 2)),     # rows are neither N + 1 nor the range
        ((3,), (1, 2, 61, 2)),  # tables with four axes
    ])
    def test_bad_stack_shape_raises(self, sol, starts, table):
        with pytest.raises(TilqError):
            simulate_control(sol.spec, sol.grid, np.zeros(table), 0,
                             np.zeros(starts), tables=sol.tables)

    def test_feedback_law_takes_one_start(self, sol):
        with pytest.raises(TilqError):
            simulate_control(sol.spec, sol.grid,
                             lambda t, y: feedback(sol, t, y), 0,
                             np.zeros((2, 3)), tables=sol.tables)


class TestCost:
    def test_pure_state_cost(self):
        # u = 0, y constant 1, Q = 1, G = 1: J = 1 + 1 = 2
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.0]], [[0.0]], [0.0]),
            BaseCosts(Q=[[1.0]], S=[[0.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                      G=[[1.0]], g=[0.0]),
            exponential_kernel(0.0))
        grid = build_grid(1.0, 100)
        traj = simulate_control(spec, grid, np.zeros((101, 1)), 0, [1.0])
        assert cost(spec, grid, traj, 0) == pytest.approx(2.0, abs=1e-12)

    def test_zero_weights_zero_cost(self):
        # cost evaluation does not require a positive definite M, so the
        # all-zero weight bundle is a legal probe of the functional itself
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.3]], [[1.0]], [0.0]),
            BaseCosts(Q=[[0.0]], S=[[0.0]], M=[[0.0]], q=[0.0], rho=[0.0],
                      G=[[0.0]], g=[0.0]),
            exponential_kernel(0.0))
        grid = build_grid(1.0, 60)
        traj = simulate_control(spec, grid, np.ones((61, 1)), 0, [1.0])
        assert cost(spec, grid, traj, 0) == pytest.approx(0.0, abs=1e-12)

    def test_classical_cost_equals_value(self, classical_solution):
        sol = classical_solution
        traj = simulate_equilibrium(sol, 0, [1.0])
        J = cost(sol.spec, sol.grid, traj, 0)
        assert abs(J - value(sol, 0.0, [1.0])) < 1e-3
        assert J == pytest.approx(0.5, abs=1e-3)

    def test_frozen_first_argument(self):
        # kernel depends on the evaluation time only: Q(t, s) = 1 + t.
        # Freezing t = 0 gives J = 1 (+ nothing terminal); accidentally using
        # the running time would integrate 1 + s and give 1.5.
        from tilq import TerminalField, TwoTimeField
        spec = classical_scalar_spec()
        qfield = TwoTimeField(value=lambda t, s: np.array([[1.0 + t]]),
                              dvalue_dt=lambda t, s: np.ones((1, 1)),
                              shape=(1, 1), vectorized=False)
        dyn = DynamicsField.constant([[0.0]], [[0.0]], [0.0])
        spec = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                              dynamics=dyn, Q=qfield, S=spec.S, M=spec.M,
                              q=spec.q, rho=spec.rho,
                              terminal=TerminalField.constant([[0.0]], [0.0]))
        grid = build_grid(1.0, 200)
        traj = simulate_control(spec, grid, np.zeros((201, 1)), 0, [1.0])
        assert cost(spec, grid, traj, 0) == pytest.approx(1.0, abs=1e-12)

    def test_start_mismatch_rejected(self, hyperbolic_solution):
        sol = hyperbolic_solution
        traj = simulate_equilibrium(sol, 10, [1.0])
        with pytest.raises(TilqError):
            cost(sol.spec, sol.grid, traj, 0)

    def test_value_equals_cost_along_equilibrium(self, hyperbolic_solution):
        sol = hyperbolic_solution
        rng = np.random.default_rng(11)
        for _ in range(25):
            i = int(rng.integers(0, sol.grid.N + 1))
            x = rng.uniform(-2, 2, size=1)
            V = value(sol, float(sol.grid.nodes[i]), x)
            J = cost(sol.spec, sol.grid, simulate_equilibrium(sol, i, x), i)
            assert abs(V - J) <= 1e-3 * (1 + abs(V))


class TestErrorFunction:
    def test_time_consistent_zero(self, classical_solution):
        sol = classical_solution
        for i in (0, 500):
            assert error_function_direct(sol, i, [1.0]) == 0.0
            assert error_function_closed(sol, i, [1.0]) == 0.0

    def test_terminal_derivative_term(self):
        # only Gdot = -1 acting on a trajectory frozen at 1: R = -1
        from tilq import TerminalField
        spec = classical_scalar_spec()
        terminal = TerminalField(G=lambda t: np.array([[1.0 - t]]),
                                 g=lambda t: np.zeros(1),
                                 dG_dt=lambda t: np.array([[-1.0]]),
                                 dg_dt=lambda t: np.zeros(1))
        dyn = DynamicsField.constant([[0.0]], [[0.0]], [0.0])
        spec = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                              dynamics=dyn, Q=spec.Q, S=spec.S, M=spec.M,
                              q=spec.q, rho=spec.rho, terminal=terminal)
        grid = build_grid(1.0, 80)
        sol = solve_equilibrium(spec, grid)
        assert error_function_direct(sol, 0, [1.0]) == pytest.approx(-1.0,
                                                                     abs=1e-9)

    def test_closed_form_at_origin_is_omega(self, hyperbolic_solution):
        sol = hyperbolic_solution
        for i in (0, 700):
            assert error_function_closed(sol, i, np.zeros(1)) == pytest.approx(
                float(sol.auxiliary.omega[i]), abs=1e-15)

    def test_direct_matches_closed(self, hyperbolic_solution):
        sol = hyperbolic_solution
        rng = np.random.default_rng(12)
        for _ in range(25):
            i = int(rng.integers(0, sol.grid.N + 1))
            x = rng.uniform(-2, 2, size=1)
            rd = error_function_direct(sol, i, x)
            rc = error_function_closed(sol, i, x)
            assert abs(rd - rc) <= 1e-4 * (1 + max(abs(rd), abs(rc)))

    def test_direct_matches_closed_twostate(self, twostate_solution):
        sol = twostate_solution
        rng = np.random.default_rng(13)
        for _ in range(10):
            i = int(rng.integers(0, sol.grid.N + 1))
            x = rng.uniform(-2, 2, size=2)
            rd = error_function_direct(sol, i, x)
            rc = error_function_closed(sol, i, x)
            assert abs(rd - rc) <= 1e-4 * (1 + max(abs(rd), abs(rc)))


def looped_cost(spec, grid, t_idx, states, controls, derivative=False):
    """Trapezoid sum, node by node, of the five running terms plus the terminal.

    Kernels are frozen at t = nodes[t_idx]; ``derivative`` takes their
    t-derivatives and G'(t), g'(t) instead.
    """
    t = float(grid.nodes[t_idx])
    last = len(states) - 1
    total = 0.0
    for k, (y, u) in enumerate(zip(states, controls)):
        s = float(grid.nodes[t_idx + k])
        Q, S, M, q, rho = (f.dt(t, s) if derivative else f(t, s)
                           for f in (spec.Q, spec.S, spec.M, spec.q, spec.rho))
        run = (y @ Q @ y + 2.0 * (S @ y) @ u + u @ M @ u
               + 2.0 * q @ y + 2.0 * rho @ u)
        total += (0.5 * grid.h if k in (0, last) else grid.h) * run
    term = spec.terminal
    G, g = (term.dG_dt(t), term.dg_dt(t)) if derivative else (term.G(t), term.g(t))
    y = states[-1]
    return total + y @ G @ y + 2.0 * np.ravel(g) @ y


class TestCostFormNonSquare:
    """n = 3, m = 2: the shared cost form against a per-node loop."""

    @pytest.fixture(scope="class")
    def sol(self):
        return solve_equilibrium(threestate_spec(), build_grid(1.0, 60))

    def test_cost_matches_node_loop(self, sol):
        rng = np.random.default_rng(21)
        for i in (0, 17, 45):
            x = rng.uniform(-2, 2, size=3)
            controls = rng.uniform(-1, 1, size=(sol.grid.N + 1 - i, 2))
            traj = simulate_control(sol.spec, sol.grid, controls, i, x)
            ref = looped_cost(sol.spec, sol.grid, i, traj.states, traj.controls)
            assert cost(sol.spec, sol.grid, traj, i) == pytest.approx(ref,
                                                                       rel=1e-12)

    def test_error_function_matches_node_loop(self, sol):
        rng = np.random.default_rng(22)
        for i in (0, 17, 45):
            x = rng.uniform(-2, 2, size=3)
            traj = simulate_equilibrium(sol, i, x)
            ref = looped_cost(sol.spec, sol.grid, i, traj.states, traj.controls,
                              derivative=True)
            assert error_function_direct(sol, i, x) == pytest.approx(ref,
                                                                     rel=1e-12)
