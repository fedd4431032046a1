import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import tilq
from tilq import (BaseCosts, ConsistencyError, Dimensions, DynamicsField,
                  TilqError, build_grid, cost, error_function_closed,
                  error_function_direct, exponential_kernel, feedback,
                  grad_value, hjb_integral_residual, load_shipped_problem,
                  make_discounted, simulate_control, simulate_equilibrium,
                  solve_equilibrium, value)
from tilq.policy import Trajectory, _locate_half, interp_table
from tilq.verification import bellman_residual, run_spike_check, spike_quotient
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


class TestStateShape:
    @pytest.mark.parametrize("entry", [feedback, value, grad_value])
    @pytest.mark.parametrize("fixture, x", [
        ("hyperbolic_solution", [1.0, 2.0, 3.0]),
        ("twostate_solution", [1.0]),
    ])
    def test_wrong_size_state_refused(self, request, entry, fixture, x):
        sol = request.getfixturevalue(fixture)
        n = sol.spec.dims.n
        with pytest.raises(TilqError, match=rf"state has shape \({len(x)},\); "
                                            rf"expected \({n},\)"):
            entry(sol, 0.5, x)


class TestNodeIndex:
    """A node index that is not an integer in [0, N] is refused by name."""

    @pytest.fixture(scope="class")
    def sol(self):
        spec = load_shipped_problem("hyperbolic_scalar_k1").spec
        return solve_equilibrium(spec, build_grid(spec.horizon, 50))

    @pytest.mark.parametrize("entry", [simulate_equilibrium, error_function_closed,
                                       error_function_direct,
                                       hjb_integral_residual])
    @pytest.mark.parametrize("t_idx", [-1, 51, 2.5])
    def test_bad_index_refused(self, sol, entry, t_idx):
        with pytest.raises(TilqError, match=re.escape(
                f"node index {t_idx!r} invalid for N=50")):
            entry(sol, t_idx, [1.0])

    @pytest.mark.parametrize("entry", [
        lambda sol, i: simulate_control(sol.spec, sol.grid, lambda t, y: [0.0],
                                        i, [1.0], tables=sol.tables),
        lambda sol, i: simulate_control(sol.spec, sol.grid, lambda t, y: [0.0],
                                        0, [1.0], stop_idx=i, tables=sol.tables),
        lambda sol, i: spike_quotient(sol, i, [1.0], [0.0], 0.1),
        lambda sol, i: run_spike_check(sol, i, [1.0], [0.0]),
        lambda sol, i: bellman_residual(sol, i, 50, [1.0], lambda t, y: [0.0]),
        lambda sol, i: bellman_residual(sol, 0, i, [1.0], lambda t, y: [0.0]),
    ], ids=["simulate_control", "simulate_control_stop", "spike_quotient",
            "run_spike_check", "bellman_residual", "bellman_residual_stop"])
    @pytest.mark.parametrize("t_idx", [-1, 51, 2.5])
    def test_bad_index_refused_by_checks(self, sol, entry, t_idx):
        with pytest.raises(TilqError, match=re.escape(
                f"node index {t_idx!r} invalid for N=50")):
            entry(sol, t_idx)

    def test_reversed_range_refused(self, sol):
        with pytest.raises(TilqError, match=re.escape(
                "node range [30, 20] invalid for N=50")):
            simulate_control(sol.spec, sol.grid, lambda t, y: [0.0], 30, [1.0],
                             stop_idx=20, tables=sol.tables)
        with pytest.raises(TilqError, match=re.escape(
                "node range [30, 20] invalid for N=50")):
            bellman_residual(sol, 30, 20, [1.0], lambda t, y: [0.0])

    def test_ends_and_numpy_integers_accepted(self, sol):
        for t_idx in (0, 50, np.int64(50)):
            traj = simulate_equilibrium(sol, t_idx, [1.0])
            assert traj.start_index == t_idx
            assert len(traj.states) == 51 - t_idx
        assert error_function_closed(sol, np.int64(50), [1.0]) == \
            error_function_closed(sol, 50, [1.0])

    def test_closed_form_takes_slices(self, sol):
        R = error_function_closed(sol, slice(10, 13), np.ones((3, 1)))
        assert R.shape == (3,)
        assert R[0] == error_function_closed(sol, 10, [1.0])


class TestGridHorizon:
    """A grid that does not span the problem's horizon is refused up front,
    on both paths, before any coefficient is evaluated outside [0, T]."""

    @pytest.mark.parametrize("name, T", [("twostate_exponential", 0.5),
                                         ("twostate_exponential", 2.0),
                                         ("hyperbolic_scalar_k1", 2.0)])
    def test_solve_refuses_another_horizon(self, name, T):
        spec = load_shipped_problem(name).spec
        with pytest.raises(TilqError) as info:
            solve_equilibrium(spec, build_grid(T, 100))
        assert type(info.value) is TilqError  # not a ConvergenceError
        assert str(info.value) == (f"grid horizon {T!r} is not the problem's "
                                   f"horizon {spec.horizon!r}")

    def test_fixed_point_refuses_another_horizon(self):
        spec = dataclasses.replace(twostate_spec(), kernel=None)
        with pytest.raises(TilqError, match="grid horizon 2.0 is not"):
            tilq.solve_equilibrium_riccati(spec, build_grid(2.0, 40))

    def test_rounding_of_the_horizon_accepted(self):
        spec = load_shipped_problem("twostate_exponential").spec
        grid = build_grid(spec.horizon * (1.0 + 1e-13), 50)
        assert solve_equilibrium(spec, grid).converged


class TestTrajectoryStart:
    """The start check has np.allclose's semantics: rtol 1e-5, atol 1e-8."""

    def make(self, states, start):
        k = states.shape[-2]
        return Trajectory(start_index=0, start_state=np.asarray(start),
                          times=np.arange(k, dtype=float), states=states,
                          controls=np.zeros(states.shape[:-1] + (1,)))

    @pytest.mark.parametrize("row0, start, ok", [
        ([1.0, -2.0], [1.0, -2.0], True),
        ([1.0, -2.0], [1.0 + 5e-6, -2.0], True),    # within rtol
        ([0.0, -2.0], [1e-9, -2.0], True),          # within atol of 0
        ([np.inf, -2.0], [np.inf, -2.0], True),     # equal infinities
        ([1.0, -2.0], [1.0 + 2e-5, -2.0], False),   # a shifted start
        ([1.0, -2.0], [np.nan, -2.0], False),
    ])
    def test_start_state(self, row0, start, ok):
        assert np.allclose(row0, start) == ok
        states = np.zeros((4, 2))
        states[0] = row0
        if ok:
            self.make(states, start)
        else:
            with pytest.raises(TilqError, match="does not start"):
                self.make(states, start)

    def test_nan_states_fail(self):
        states = np.full((3, 2), np.nan)
        with pytest.raises(TilqError, match="does not start"):
            self.make(states, [np.nan, np.nan])

    def test_stacked_runs(self):
        states = np.zeros((3, 5, 2))
        states[:, 0] = [1.0, -2.0]
        self.make(states, [1.0, -2.0])
        states[1, 0, 1] += 1e-3  # one run of the stack starts elsewhere
        with pytest.raises(TilqError, match="does not start"):
            self.make(states, [1.0, -2.0])


class TestTimeLookup:
    @pytest.mark.parametrize("N", [400, 2000])
    def test_rk4_stage_times_snap(self, N):
        # simulate_control forms each middle stage time as t_i + h/2
        grid = build_grid(1.0, N)
        h = grid.h
        for i in range(N):
            t0 = float(grid.nodes[i])
            assert _locate_half(grid, t0) == (2 * i, 0.0)
            assert _locate_half(grid, t0 + 0.5 * h) == (2 * i + 1, 0.0)
        assert _locate_half(grid, float(grid.nodes[N])) == (2 * N, 0.0)

    @pytest.mark.parametrize("nan", [float("nan"), np.float64("nan")])
    @pytest.mark.parametrize("entry", ["feedback", "value", "grad_value",
                                       "interp_table"])
    def test_nan_time_refused(self, hyperbolic_solution, entry, nan):
        sol = hyperbolic_solution
        call = {"feedback": lambda: feedback(sol, nan, [0.0]),
                "value": lambda: value(sol, nan, [0.0]),
                "grad_value": lambda: grad_value(sol, nan, [0.0]),
                "interp_table": lambda: interp_table(sol.riccati.P, sol.grid,
                                                     nan)}[entry]
        with pytest.raises(TilqError, match="time nan outside"):
            call()


def located_feedback(sol, t, x):
    """u(t, x) with its table row found by ``_locate_half`` alone."""
    neg_K, k = sol._negated_feedback
    j, w = _locate_half(sol.grid, t)
    u = neg_K[j].dot(x) - k[j]
    if w:
        u = (1.0 - w) * u + w * (neg_K[j + 1].dot(x) - k[j + 1])
    return u


class TestFeedbackStageRows:
    """``feedback`` reads the row of an exact RK4 stage time without
    locating it; every other time takes ``_locate_half`` as before."""

    @pytest.fixture(scope="class", params=[1.0, 0.7], ids=["T1", "T07"])
    def spec(self, request):
        spec = load_shipped_problem("twostate_hyperbolic").spec
        return dataclasses.replace(spec, horizon=request.param)

    @pytest.mark.parametrize("N", [60, 300, 777, 2000, 4000])
    def test_stage_times_give_the_located_rows(self, spec, N, monkeypatch):
        sol = solve_equilibrium(spec, build_grid(spec.horizon, N))
        x = np.array([0.8, -1.3])
        half = 0.5 * sol.grid.h  # the stage times simulate_control forms
        times = [t for t0 in sol.grid.nodes[:-1].tolist() for t in (t0, t0 + half)]
        times.append(float(sol.grid.nodes[-1]))
        want = [located_feedback(sol, t, x).tobytes() for t in times]
        located = []

        def counted(grid, t):
            located.append(t)
            return _locate_half(grid, t)

        monkeypatch.setattr(tilq.policy, "_locate_half", counted)
        assert [feedback(sol, t, x).tobytes() for t in times] == want
        # every stage time is read directly: T itself, and the nodes that
        # int(t / h) puts an interval low (4.1% of them at T = 0.7 and
        # N = 2000), included
        assert located == []

    @pytest.mark.parametrize("name, N", [("twostate_hyperbolic", 400),
                                         ("hyperbolic_scalar_k1", 800),
                                         ("hyperbolic_scalar_k1", 2000)])
    def test_rollout_locates_no_time(self, name, N, monkeypatch):
        spec = load_shipped_problem(name).spec
        sol = solve_equilibrium(spec, build_grid(spec.horizon, N))
        located = []

        def counted(grid, t):
            located.append(t)
            return _locate_half(grid, t)

        monkeypatch.setattr(tilq.policy, "_locate_half", counted)
        simulate_control(spec, sol.grid, lambda t, y: feedback(sol, t, y), 0,
                         np.full(spec.dims.n, 0.5), tables=sol.tables)
        assert located == []

    def test_other_times_as_before(self, spec):
        sol = solve_equilibrium(spec, build_grid(spec.horizon, 300))
        x, T, h = np.array([0.8, -1.3]), spec.horizon, sol.grid.h

        def same(t, want=None):
            got = feedback(sol, t, x).tobytes()
            want = located_feedback(sol, t if want is None else want, x)
            assert got == want.tobytes()

        for t in (-1e-13, T + 1e-13):  # clamped into [0, T]
            same(t, min(max(t, 0.0), T))
        for t in (0.3 * h, 17.25 * h, T - 0.1 * h):  # interpolated
            same(t)
        for t in (0.0, 3 * h, 100.5 * h, T):  # numpy times
            same(np.float64(t))
        for t in {0, int(T)}:  # integer times in [0, T]
            same(t)
        for bad in (float("nan"), -1e-9, T + 1e-9, float("inf")):
            with pytest.raises(TilqError, match="outside"):
                feedback(sol, bad, x)


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
        got = simulate_control(spec, grid, table[t_idx:], t_idx, x,
                               tables=sol.tables)
        tbl, h = sol.tables, grid.h
        A_half, B_half, b_half = (tbl.stages(name)[1::2] for name in ("A", "B", "b"))
        y = x
        states = [y]
        for i in range(t_idx, N):
            t0 = float(grid.nodes[i])
            u0 = interp_table(table, grid, t0)
            um = interp_table(table, grid, t0 + 0.5 * h)
            u1 = interp_table(table, grid, float(grid.nodes[i + 1]))
            Am, Bm, bm = A_half[i], B_half[i], b_half[i]
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

    @pytest.mark.parametrize("starts, table", [
        ((2, 3), (61, 2)),      # a stack of start states
        ((3, 2), (61, 2)),      # start states with two axes
        ((0, 3), (61, 2)),      # an empty stack of start states
        ((2, 1, 3), (61, 2)),   # start states with three axes
        ((3,), (2, 61, 3)),     # control width is not m
        ((3,), (2, 50, 2)),     # rows are not the node range's
        ((3,), (1, 2, 61, 2)),  # tables with four axes
    ])
    def test_bad_stack_shape_raises(self, sol, starts, table):
        with pytest.raises(TilqError):
            simulate_control(sol.spec, sol.grid, np.zeros(table), 0,
                             np.zeros(starts), tables=sol.tables)

    def test_table_must_cover_exactly_the_range(self, sol):
        # a full-horizon table for a later start, or for an earlier stop,
        # is refused rather than sliced
        spec, grid = sol.spec, sol.grid
        full = np.zeros((grid.N + 1, spec.dims.m))
        x = np.zeros(spec.dims.n)
        for t_idx, stop_idx in ((5, None), (0, 40), (5, 40)):
            with pytest.raises(TilqError, match="node range"):
                simulate_control(spec, grid, full, t_idx, x, stop_idx=stop_idx,
                                 tables=sol.tables)
            with pytest.raises(TilqError, match="node range"):
                simulate_control(spec, grid, full[None], t_idx, x,
                                 stop_idx=stop_idx, tables=sol.tables)

    def test_feedback_law_takes_one_start(self, sol):
        with pytest.raises(TilqError):
            simulate_control(sol.spec, sol.grid,
                             lambda t, y: feedback(sol, t, y), 0,
                             np.zeros((2, 3)), tables=sol.tables)

    def test_wrong_shape_control_names_stage(self, twostate_solution):
        sol = twostate_solution
        t_idx = 7
        t = float(sol.grid.nodes[t_idx])
        with pytest.raises(TilqError, match=rf"shape \(3,\) at t={t!r}; "
                                            r"expected \(1,\)"):
            simulate_control(sol.spec, sol.grid, lambda t, y: np.zeros(3),
                             t_idx, [0.8, -0.3], tables=sol.tables)

    # the scalar rollout runs on Python floats, the two-state one on arrays;
    # both refuse a control of the wrong size with the same message
    @pytest.mark.parametrize("fixture, x", [("hyperbolic_solution", [0.5]),
                                            ("twostate_solution", [0.8, -0.3])])
    @pytest.mark.parametrize("out", [np.zeros(2), [], [[1.0, 2.0]]],
                             ids=["pair", "empty", "row"])
    @pytest.mark.parametrize("stage", ["node", "midpoint"])
    def test_wrong_size_control_refused(self, request, fixture, x, out, stage):
        sol = request.getfixturevalue(fixture)
        t0 = float(sol.grid.nodes[7])
        bad = t0 if stage == "node" else t0 + 0.5 * sol.grid.h

        def law(t, y):
            return out if t == bad else feedback(sol, t, y)

        message = (f"feedback law returned shape {np.shape(out)} at t={bad!r}; "
                   f"expected (1,)")
        with pytest.raises(TilqError, match=re.escape(message)):
            simulate_control(sol.spec, sol.grid, law, 7, x, tables=sol.tables)


class TestRolloutMemory:
    """A feedback rollout allocates O(k) for its k nodes, never O(N)."""

    @pytest.fixture(scope="class")
    def sol(self):
        spec = load_shipped_problem("hyperbolic_scalar_k1").spec
        return solve_equilibrium(spec, build_grid(spec.horizon, 4000))

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_first_feedback_builds_only_its_tables(self, sol):
        sol = dataclasses.replace(sol)  # nothing cached yet
        _, peak = self.peak(lambda: feedback(sol, 0.0, [1.0]))
        table_bytes = sum(a.nbytes for a in sol.feedback_table)
        assert peak < 4 * table_bytes  # 3.0x: the build's temporaries

    @pytest.mark.parametrize("stop_idx", [None, 2])
    def test_rollout_peak_is_its_trajectory(self, sol, stop_idx):
        def rollout():
            return simulate_control(sol.spec, sol.grid,
                                    lambda t, y: feedback(sol, t, y), 0, [1.0],
                                    stop_idx=stop_idx, tables=sol.tables)

        rollout()  # builds the feedback table
        traj, peak = self.peak(rollout)
        assert peak <= 2 * (traj.states.nbytes + traj.controls.nbytes) + 2 ** 14


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
        qfield = TwoTimeField(
            value=lambda t, s: (1.0 + np.asarray(t, dtype=float))[..., None, None],
            dvalue_dt=lambda t, s: np.ones((1, 1)), shape=(1, 1))
        dyn = DynamicsField.constant([[0.0]], [[0.0]], [0.0])
        spec = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                              dynamics=dyn, Q=qfield, S=spec.S, M=spec.M,
                              q=spec.q, rho=spec.rho,
                              terminal=TerminalField.constant([[0.0]], [0.0]))
        grid = build_grid(1.0, 200)
        traj = simulate_control(spec, grid, np.zeros((201, 1)), 0, [1.0])
        assert cost(spec, grid, traj, 0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("runs", [2, 11])
    def test_stacked_trajectory_refused(self, runs):
        # a stack of open-loop runs is no trajectory over [t, T]; with as
        # many runs as nodes (11) its first axis used to pass as the nodes'
        spec, grid = twostate_spec(), build_grid(1.0, 10)
        traj = simulate_control(spec, grid, np.zeros((runs, 11, 1)), 0,
                                [1.0, 0.0])
        with pytest.raises(TilqError, match=re.escape(
                f"trajectory has states ({runs}, 11, 2) and controls "
                f"({runs}, 11, 1); cost from node 0 expects one run over "
                f"[t, T], (11, 2) and (11, 1)")):
            cost(spec, grid, traj, 0)

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
