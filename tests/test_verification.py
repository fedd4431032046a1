import numpy as np
import pytest

import tilq
from tilq import (ConvergenceError, SolveOptions, TilqError, bellman_residual,
                  build_grid, feedback, hjb_integral_residual,
                  hjb_residual_sup, run_spike_check, run_verification,
                  simulate_equilibrium, solve_equilibrium,
                  spike_limit_analytic, spike_quotient, uniqueness_probe)
from tilq.problem_io import load_shipped_problem
from tilq.verification import (VerifyOptions, _grad_fd_gaps,
                               _stationarity_residuals, grad_value_fd_gap,
                               random_candidate_controls)
from conftest import hyperbolic_scalar_spec, zero_cost_spec
from test_riccati_reference import tabulated_hyperbolic


class TestSpikeQuotient:
    def test_narrow_spike_rejected(self, hyperbolic_solution):
        sol = hyperbolic_solution
        with pytest.raises(TilqError):
            spike_quotient(sol, 0, [1.0], [0.5], 0.5 * sol.grid.h)

    def test_spike_past_horizon_rejected(self, hyperbolic_solution):
        sol = hyperbolic_solution
        with pytest.raises(TilqError):
            spike_quotient(sol, sol.grid.N - 1, [1.0], [0.5], 0.1)

    def test_zero_problem_control_cost_only(self):
        # with no running or terminal weights except the control weight the
        # quotient of a constant spike v is dominated by <M v, v>
        sol = solve_equilibrium(zero_cost_spec(), build_grid(1.0, 400))
        q = spike_quotient(sol, 0, [0.0], [1.5], 0.05)
        assert q > 0
        rep = run_spike_check(sol, 0, [0.0], [1.5])
        assert rep.extrapolated == pytest.approx(rep.analytic_reference,
                                                 rel=0.01)

    def test_classical_unit_deviation(self, classical_solution):
        # deviation by +1 from the equilibrium control has limit M = 1
        sol = classical_solution
        u0 = feedback(sol, 0.0, [1.0])
        rep = run_spike_check(sol, 0, [1.0], [u0[0] + 1.0])
        assert rep.extrapolated == pytest.approx(1.0, rel=0.01)

    def test_quotient_vanishes_at_equilibrium(self, hyperbolic_solution):
        sol = hyperbolic_solution
        u0 = feedback(sol, float(sol.grid.nodes[200]), [0.7])
        rep = run_spike_check(sol, 200, [0.7], u0)
        assert abs(rep.extrapolated) <= 1e-4

    def test_nonnegative_across_probes(self, hyperbolic_solution):
        sol = hyperbolic_solution
        rng = np.random.default_rng(21)
        for _ in range(10):
            i = int(rng.integers(0, 900))
            x = rng.uniform(-2, 2, size=1)
            v = rng.uniform(-2, 2, size=1)
            rep = run_spike_check(sol, i, x, v)
            assert rep.extrapolated >= -1e-4


    def test_batched_point_past_the_horizon_refused(self, hyperbolic_solution):
        sol = hyperbolic_solution
        N, widest = sol.grid.N, sol.grid.N // 50
        with pytest.raises(TilqError, match=rf"spike \[{N - widest + 1}, "
                                            rf"{N + 1}\] leaves the horizon"):
            run_spike_check(sol, [0, N - widest + 1], [[1.0], [0.5]], [[0.2], [0.3]])
        # alone, that point runs on the widths that still fit
        short = run_spike_check(sol, N - widest + 1, [0.5], [0.3])
        full = run_spike_check(sol, 0, [1.0], [0.2])
        assert len(short.quotients) < len(full.quotients)


class TestSpikeLimitAnalytic:
    def test_zero_at_minimizer(self, hyperbolic_solution):
        sol = hyperbolic_solution
        for i in (0, 333, 800):
            x = np.array([0.9])
            u0 = feedback(sol, float(sol.grid.nodes[i]), x)
            assert abs(spike_limit_analytic(sol, i, x, u0)) <= 1e-8

    def test_quadratic_offset_identity(self, hyperbolic_solution):
        sol = hyperbolic_solution
        rng = np.random.default_rng(22)
        for _ in range(20):
            i = int(rng.integers(0, sol.grid.N + 1))
            x = rng.uniform(-2, 2, size=1)
            w = rng.uniform(-2, 2, size=1)
            t = float(sol.grid.nodes[i])
            u0 = feedback(sol, t, x)
            gap = (spike_limit_analytic(sol, i, x, u0 + w)
                   - spike_limit_analytic(sol, i, x, u0))
            M = sol.spec.M(t, t)
            assert abs(gap - float(w @ M @ w)) <= 1e-8

    def test_matches_extrapolated_quotient(self, hyperbolic_solution):
        sol = hyperbolic_solution
        for (i, xv, vv) in [(0, 0.7, 1.5), (250, -0.8, 0.3)]:
            rep = run_spike_check(sol, i, [xv], [vv])
            analytic = spike_limit_analytic(sol, i, [xv], [vv])
            assert rep.extrapolated == pytest.approx(analytic,
                                                     rel=0.01, abs=1e-4)


class TestBellman:
    def test_zero_length_interval(self, hyperbolic_solution):
        sol = hyperbolic_solution
        assert bellman_residual(sol, 100, 100, [0.5],
                                np.zeros((1, 1))) == 0.0

    def test_equilibrium_equality(self, hyperbolic_solution):
        sol = hyperbolic_solution
        rng = np.random.default_rng(23)
        for _ in range(10):
            t_idx = int(rng.integers(0, sol.grid.N - 1))
            s_idx = int(rng.integers(t_idx + 1, sol.grid.N + 1))
            x = rng.uniform(-2, 2, size=1)
            u = simulate_equilibrium(sol, t_idx, x).controls[:s_idx - t_idx + 1]
            assert abs(bellman_residual(sol, t_idx, s_idx, x, u)) <= 1e-4

    def test_candidates_nonnegative(self, hyperbolic_solution):
        sol = hyperbolic_solution
        rng = np.random.default_rng(24)
        t_idx, s_idx = 100, 800
        x = np.array([0.6])
        for cand in random_candidate_controls(sol, t_idx, s_idx, x, 30, rng):
            assert bellman_residual(sol, t_idx, s_idx, x, cand) >= -1e-4

    def test_candidates_nonnegative_twostate(self, twostate_solution):
        sol = twostate_solution
        rng = np.random.default_rng(25)
        t_idx, s_idx = 20, 250
        x = np.array([0.6, -0.4])
        for cand in random_candidate_controls(sol, t_idx, s_idx, x, 10, rng):
            assert bellman_residual(sol, t_idx, s_idx, x, cand) >= -1e-4


class TestBatchedChecks:
    """Stacked Bellman trials and shared spike work against one call each."""

    def test_stacked_bellman_matches_one_call_per_control(self,
                                                          twostate_solution):
        sol = twostate_solution
        rng = np.random.default_rng(27)
        t_idx, s_idx = 40, 230
        x = np.array([0.9, -0.5])
        eq = simulate_equilibrium(sol, t_idx, x).controls[:s_idx - t_idx + 1]
        stack = np.stack([eq] + random_candidate_controls(
            sol, t_idx, s_idx, x, 10, rng))
        got = bellman_residual(sol, t_idx, s_idx, x, stack)
        want = np.array([bellman_residual(sol, t_idx, s_idx, x, u)
                         for u in stack])
        assert got.shape == (11,)
        scale = 1.0 + np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_stacked_bellman_zero_length_interval(self, hyperbolic_solution):
        got = bellman_residual(hyperbolic_solution, 100, 100, [0.5],
                               np.zeros((3, 1, 1)))
        np.testing.assert_array_equal(got, np.zeros(3))

    @pytest.mark.parametrize("fixture", ["hyperbolic_solution",
                                         "twostate_solution"])
    def test_spike_stack_matches_single_calls_and_quotients(self, fixture,
                                                            request):
        sol = request.getfixturevalue(fixture)
        rng = np.random.default_rng(28)
        n, m = sol.spec.dims.n, sol.spec.dims.m
        t_idx = sol.grid.N // 5
        x = rng.uniform(-2, 2, size=n)
        vs = rng.uniform(-2, 2, size=(3, m))
        reports = run_spike_check(sol, t_idx, x, vs)
        assert len(reports) == 3
        for v, rep in zip(vs, reports):
            one = run_spike_check(sol, t_idx, x, v)
            np.testing.assert_array_equal(rep.v, v)
            assert rep.epsilons == one.epsilons
            np.testing.assert_allclose(rep.quotients, one.quotients,
                                       rtol=1e-12, atol=0)
            assert rep.extrapolated == pytest.approx(one.extrapolated,
                                                     rel=1e-12)
            assert rep.analytic_reference == one.analytic_reference
            for eps, q in zip(rep.epsilons, rep.quotients):
                one_width = spike_quotient(sol, t_idx, x, v, eps)
                assert q == pytest.approx(one_width, rel=1e-12)


# run_verification on the shipped twostate_hyperbolic problem (N = 400,
# seed 42) before the Bellman trials and the spike checks were batched.
# The spike limits divide path differences by spikes of 2 steps, so a change
# of one ulp in the path moves them by about 1e-8 relative: the quadratic
# gap's entry was re-recorded when equilibrium paths moved from the pair
# tables to the bordered anchors (both paths within 4e-15 relative)
TWOSTATE_WORST = {
    "spike quotient nonnegative": 0.0,
    "spike limit zero at equilibrium": 2.4460120684466347e-05,
    "spike limit matches quadratic gap": 2.460989353836318e-05,
    "recursion equality along equilibrium": 1.6108789191449091e-07,
    "recursion inequality for candidates": 0.0,
    "pointwise stationarity residual": 1.0930451366242266e-07,
    "integral-form residual": 5.0296483222744826e-07,
    "error-function equivalence": 2.2890484182286321e-06,
    "value equals equilibrium cost": 8.5656917548415765e-07,
    "gradient matches central differences": 5.233767127242734e-12,
    "uniqueness across initializations": 4.6390669083962166e-12,
}
# these two measure roundoff (a central difference of V, and the distance
# between fixed points converged to 1e-10), which another BLAS or CPU can
# move by more than 1e-8 relative; they are held to an absolute 1e-10
ROUNDOFF_WORST = {"gradient matches central differences",
                  "uniqueness across initializations"}
# Nudging the start state x at each spike limit's witness by one ulp, in each
# of the 8 sign patterns over its two components, moved "spike limit zero at
# equilibrium" (t_idx=269) by up to 8.0e-13 and "spike limit matches
# quadratic gap" (t_idx=275) by up to 1.1e-13: their rounding floors, the
# first above 1e-8 of its value.  Each is held to a few times its floor.
SPIKE_LIMIT_FLOOR = {"spike limit zero at equilibrium": 3e-12,
                     "spike limit matches quadratic gap": 5e-13}


def test_twostate_battery_matches_recorded_worst():
    loaded = load_shipped_problem("twostate_hyperbolic")
    grid = build_grid(loaded.spec.horizon, loaded.grid_points)
    sol = solve_equilibrium(loaded.spec, grid, loaded.solve_options,
                            loaded.solve_options)
    assert (grid.N, loaded.verify_options.seed) == (400, 42)
    report = run_verification(sol, loaded.verify_options)
    assert report.passed, report.failed_names()
    got = {c.name: c.worst for c in report.checks}
    assert set(got) == set(TWOSTATE_WORST)
    for name, want in TWOSTATE_WORST.items():
        tol = 1e-10 if name in ROUNDOFF_WORST else SPIKE_LIMIT_FLOOR.get(
            name, 1e-8 * want)
        assert abs(got[name] - want) <= tol, (name, got[name], want)


class TestHJBResiduals:
    def test_zero_problem(self):
        sol = solve_equilibrium(zero_cost_spec(), build_grid(1.0, 100))
        assert hjb_residual_sup(sol, [[1.0], [-2.0]]) <= 1e-12
        assert abs(hjb_integral_residual(sol, 0, [1.0])) <= 1e-12

    def test_classical_case_negligible(self, classical_solution):
        # every kernel derivative vanishes, so both residual routes agree
        sol = classical_solution
        assert hjb_residual_sup(sol, [[1.0]]) <= 1e-3
        assert abs(hjb_integral_residual(sol, 0, [1.0])) <= 1e-3

    def test_sup_is_max_over_states(self, twostate_solution):
        sol = twostate_solution
        states = np.random.default_rng(26).uniform(-2, 2, size=(4, 2))
        each = max(float(np.max(np.abs(_stationarity_residuals(sol, [x])[0])))
                   for x in states)
        assert hjb_residual_sup(sol, states) == each

    def test_integral_residual_consistent_from_origin(self, hyperbolic_solution):
        sol = hyperbolic_solution
        a = hjb_integral_residual(sol, 0, np.zeros(1))
        b = hjb_integral_residual(sol, 0, np.zeros(1))
        assert a == b

    def test_second_order_refinement(self):
        spec = hyperbolic_scalar_spec()
        sups, ints = {}, {}
        for N in (250, 500, 1000):
            sol = solve_equilibrium(spec, build_grid(1.0, N))
            sups[N] = hjb_residual_sup(sol, [[0.7], [-1.2]])
            ints[N] = max(abs(hjb_integral_residual(sol, 0, [0.7])),
                          abs(hjb_integral_residual(sol, N // 10, [-1.2])))
        assert sups[250] / sups[500] >= 3.5
        assert sups[500] / sups[1000] >= 3.5
        assert ints[250] / ints[500] >= 3.5
        assert ints[500] / ints[1000] >= 3.5


class TestUniqueness:
    def test_duplicate_initializations_distance_zero(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 150)
        probe = uniqueness_probe(spec, grid, ["terminal", "terminal"])
        assert probe.p_distance == 0.0

    def test_distinct_initializations_converge_together(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 200)
        G_T = np.array([[1.0]])
        probe = uniqueness_probe(spec, grid, ["zero", G_T, 5.0 * G_T])
        assert probe.p_distance <= 1e-6

    def test_probe_iterates_on_a_local_path_spec(self):
        # the spec would take the local path in solve_equilibrium; the probe
        # must still iterate the fixed point from every start
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 120)
        sol = solve_equilibrium(spec, grid)
        assert sol.method == "local"
        probe = uniqueness_probe(spec, grid, ["zero", np.array([[5.0]])],
                                 tables=sol.tables)
        assert len(probe.iterations) == 2
        assert all(k > 1 for k in probe.iterations)
        assert probe.p_distance <= 1e-6

    def test_options_reach_every_start(self):
        spec = hyperbolic_scalar_spec()
        with pytest.raises(ConvergenceError):
            uniqueness_probe(spec, build_grid(1.0, 60), ["zero", "terminal"],
                             SolveOptions(max_iterations=1))

    def test_probe_runs_no_phi_solve(self, monkeypatch):
        # phi is unique once P is, so the probe iterates P alone
        def refuse(*args, **kwargs):
            raise AssertionError("the uniqueness probe ran a phi solve")

        monkeypatch.setattr(tilq.auxiliary, "solve_phi", refuse)
        probe = uniqueness_probe(hyperbolic_scalar_spec(), build_grid(1.0, 100),
                                 ["zero", "terminal"])
        assert probe.p_distance <= 1e-6

    def test_single_initialization_rejected(self):
        spec = hyperbolic_scalar_spec()
        with pytest.raises(TilqError):
            uniqueness_probe(spec, build_grid(1.0, 100), ["zero"])

    def test_probe_solves_for_p_only(self, monkeypatch):
        # after convergence nothing is rebuilt from P: one Qbb per sweep
        calls = {"sweep": 0, "qbb": 0}
        for name, key in (("_sweep_core", "sweep"), ("_qbb_table", "qbb")):
            original = getattr(tilq.riccati, name)

            def counted(*args, original=original, key=key, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(tilq.riccati, name, counted)
        probe = uniqueness_probe(hyperbolic_scalar_spec(), build_grid(1.0, 100),
                                 ["zero", "terminal"])
        assert calls["sweep"] == sum(probe.iterations) > 2
        assert calls["qbb"] == calls["sweep"]

    def test_failing_start_reports_its_diagnostics(self):
        spec = hyperbolic_scalar_spec()
        with pytest.raises(ConvergenceError) as info:
            uniqueness_probe(spec, build_grid(1.0, 60), ["zero", "terminal"],
                             SolveOptions(max_iterations=3))
        assert info.value.diagnostics.iterations == 3
        assert not info.value.diagnostics.converged

    def test_indefinite_p_warns(self):
        spec = tilq.make_discounted(
            tilq.Dimensions(1, 1), 1.0,
            tilq.DynamicsField.constant([[0.0]], [[1.0]], [0.0]),
            tilq.BaseCosts(Q=[[0.0]], S=[[1.0]], M=[[1.0]], q=[0.0],
                           rho=[0.0], G=[[0.01]], g=[0.0]),
            tilq.exponential_kernel(0.0))
        with pytest.warns(UserWarning, match="negative eigenvalues"):
            probe = uniqueness_probe(spec, build_grid(1.0, 200),
                                     ["zero", "terminal"])
        assert probe.p_distance <= 1e-6


def tabulated_solution(opts=None):
    """The scalar hyperbolic problem with its kernel tabulated, which takes
    the fixed-point path."""
    spec = tilq.make_discounted(
        tilq.Dimensions(1, 1), 1.0,
        tilq.DynamicsField.constant([[-0.2]], [[1.0]], [0.1]),
        tilq.BaseCosts(Q=[[1.0]], S=[[0.1]], M=[[1.0]], q=[0.05], rho=[0.02],
                       G=[[1.0]], g=[0.1]),
        tabulated_hyperbolic())
    sol = solve_equilibrium(spec, build_grid(1.0, 200), opts)
    assert sol.method == "fixed_point"
    return sol


class TestProbeReusesTheSolve:
    """On a fixed-point solution solved as the probe would solve it, the
    probe's G(T) start is the solution's own run."""

    @staticmethod
    def sweeps_of_battery(sol, monkeypatch):
        count = [0]
        original = tilq.riccati._sweep_core

        def counted(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(tilq.riccati, "_sweep_core", counted)
        report = run_verification(sol, VerifyOptions(
            spike_points=2, bellman_controls=10, value_points=2,
            gradient_points=2))
        monkeypatch.setattr(tilq.riccati, "_sweep_core", original)
        return count[0], report

    def test_g_t_start_taken_from_the_solve(self, monkeypatch):
        sol = tabulated_solution()
        G_T = sol.tables.G_T
        full = uniqueness_probe(sol.spec, sol.grid, ["zero", G_T, 5.0 * G_T],
                                tables=sol.tables)
        rerun = tilq.riccati._fixed_point_p(SolveOptions(initial=G_T), sol.tables)[0]
        assert np.array_equal(rerun, sol.riccati.P)
        assert full.iterations[1] == sol.riccati.diagnostics.iterations
        sweeps, report = self.sweeps_of_battery(sol, monkeypatch)
        assert sweeps == full.iterations[0] + full.iterations[2]
        check = report.checks[-1]
        assert check.name == "uniqueness across initializations"
        assert check.worst == full.p_distance

    @pytest.mark.parametrize("opts", [SolveOptions(damping=0.5),
                                      SolveOptions(initial="zero"),
                                      SolveOptions(tolerance=1e-11)])
    def test_other_options_rerun_every_start(self, opts, monkeypatch):
        sol = tabulated_solution(opts)
        G_T = sol.tables.G_T
        full = uniqueness_probe(sol.spec, sol.grid, ["zero", G_T, 5.0 * G_T],
                                tables=sol.tables)
        sweeps, _ = self.sweeps_of_battery(sol, monkeypatch)
        assert sweeps == sum(full.iterations)

    def test_local_solution_reruns_every_start(self, monkeypatch):
        sol = solve_equilibrium(hyperbolic_scalar_spec(), build_grid(1.0, 200))
        assert sol.method == "local"
        G_T = sol.tables.G_T
        full = uniqueness_probe(sol.spec, sol.grid, ["zero", G_T, 5.0 * G_T],
                                tables=sol.tables)
        sweeps, _ = self.sweeps_of_battery(sol, monkeypatch)
        assert sweeps == sum(full.iterations)

    def test_solution_on_another_grid_refused(self):
        sol = tabulated_solution()
        with pytest.raises(TilqError, match="N=200"):
            uniqueness_probe(sol.spec, build_grid(1.0, 100), ["zero", sol.riccati])


def loop_fd_gap(sol, t, x):
    """The gradient gap point by point: grad V and 2n calls of V."""
    n = sol.spec.dims.n
    g = tilq.grad_value(sol, t, x)
    fd = np.empty(n)
    step = 1e-5 * (1.0 + float(np.max(np.abs(x))))
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        fd[a] = (tilq.value(sol, t, x + e) - tilq.value(sol, t, x - e)) / (2 * step)
    return float(np.max(np.abs(fd - g)) / (1.0 + float(np.max(np.abs(g)))))


@pytest.mark.parametrize("fixture", ["hyperbolic_solution", "twostate_solution"])
def test_batched_gradient_gaps_match_the_loop(request, fixture):
    # one quadratic form for all shifted states rounds differently from V
    # called per state; the check's worst value may move by 1e-10 at most
    sol = request.getfixturevalue(fixture)
    rng = np.random.default_rng(31)
    ts = rng.uniform(0.0, sol.grid.T, size=40)
    ts[:3] = [0.0, sol.grid.T, sol.grid.nodes[7]]
    X = rng.uniform(-2.0, 2.0, size=(40, sol.spec.dims.n))
    gaps = _grad_fd_gaps(sol, ts, X)
    want = [loop_fd_gap(sol, t, x) for t, x in zip(ts.tolist(), X)]
    assert np.max(np.abs(gaps - want)) <= 1e-10
    assert grad_value_fd_gap(sol, ts[5], X[5]) == gaps[5]


class TestBattery:
    def test_full_battery_passes(self):
        spec = hyperbolic_scalar_spec()
        sol = solve_equilibrium(spec, build_grid(1.0, 500))
        report = run_verification(sol, VerifyOptions(
            spike_points=8, bellman_controls=30, value_points=15,
            gradient_points=20))
        assert report.passed, report.failed_names()
        names = {c.name for c in report.checks}
        assert "spike quotient nonnegative" in names
        assert "uniqueness across initializations" in names
        assert "liminf" in report.note

    def test_every_check_records_tolerance(self):
        spec = hyperbolic_scalar_spec()
        sol = solve_equilibrium(spec, build_grid(1.0, 300))
        report = run_verification(sol, VerifyOptions(
            spike_points=4, bellman_controls=10, value_points=5,
            gradient_points=5))
        for check in report.checks:
            assert check.tolerance > 0
            assert np.isfinite(check.worst)
