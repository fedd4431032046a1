import re
import sys

import numpy as np
import pytest

import tilq.auxiliary
from tilq import (AssumptionError, BaseCosts, Dimensions, DynamicsField,
                  SolveOptions, build_grid, classical_riccati,
                  exponential_kernel, gamma_from_p, hjb_residual_sup,
                  hyperbolic_kernel, local_expansion, make_discounted,
                  quadrature, solve_equilibrium, solve_equilibrium_riccati,
                  run_verification, shipped_problem_path, tabulated_kernel,
                  uniqueness_probe)
from tilq import cli
from tilq.errors import ConvergenceError
from tilq.grid import TransitionTable, _anchored
from tilq.riccati import _closed_loop_table, _qbb_table, _sweep_core
from tilq.tables import SpecTables
from conftest import (classical_exact_p, classical_scalar_spec,
                      hyperbolic_scalar_spec, threestate_spec, twostate_spec,
                      zero_cost_spec)
from pair_tables import full_table, pair_table
from riccati_reference import qbb_from_gamma


class TestGainFromP:
    def test_scalar_arithmetic(self):
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.0]], [[1.0]], [0.0]),
            BaseCosts(Q=[[1.0]], S=[[1.0]], M=[[2.0]], q=[0.0], rho=[0.0],
                      G=[[1.0]], g=[0.0]),
            exponential_kernel(0.0))
        gain = gamma_from_p(np.array([[3.0]]), spec, 0.5)
        assert gain[0, 0] == pytest.approx(2.0)  # (3 + 1) / 2

    def test_zero_inputs_zero_gain(self):
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[1.0]], [[0.0]], [0.0]),
            BaseCosts(Q=[[1.0]], S=[[0.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                      G=[[1.0]], g=[0.0]),
            exponential_kernel(0.0))
        assert gamma_from_p(np.array([[5.0]]), spec, 0.2)[0, 0] == 0.0

    def test_identity_algebra(self):
        spec = make_discounted(
            Dimensions(2, 2), 1.0,
            DynamicsField.constant(np.zeros((2, 2)), np.eye(2), np.zeros(2)),
            BaseCosts(Q=np.eye(2), S=np.zeros((2, 2)), M=np.eye(2),
                      q=np.zeros(2), rho=np.zeros(2), G=np.eye(2),
                      g=np.zeros(2)),
            exponential_kernel(0.0))
        P = np.diag([1.0, 2.0])
        np.testing.assert_allclose(gamma_from_p(P, spec, 0.3), P, atol=1e-14)

    def test_indefinite_M_raises(self):
        spec = hyperbolic_scalar_spec()
        bad = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                             dynamics=spec.dynamics, Q=spec.Q, S=spec.S,
                             M=spec.M.constant([[-1.0]]), q=spec.q,
                             rho=spec.rho, terminal=spec.terminal)
        with pytest.raises(AssumptionError):
            gamma_from_p(np.array([[1.0]]), bad, 0.5)


def losing_pd_spec(kernel):
    """M(s) = 1 - 2s: positive definite on [0, 0.5) only."""
    return make_discounted(
        Dimensions(1, 1), 1.0,
        DynamicsField.constant([[-0.2]], [[1.0]], [0.1]),
        BaseCosts(Q=[[1.0]], S=[[0.1]], M=lambda s: np.array([[1.0 - 2.0 * s]]),
                  q=[0.05], rho=[0.02], G=[[1.0]], g=[0.1]),
        kernel)


def failing_time(exc) -> float:
    return float(re.search(r"at t=([0-9.eE+-]+)", str(exc.value)).group(1))


class TestNonPositiveControlWeight:
    def test_md_chol_names_first_bad_node(self):
        grid = build_grid(1.0, 40)
        with pytest.raises(AssumptionError) as exc:
            SpecTables(losing_pd_spec(hyperbolic_kernel(1.0)), grid).Md_chol
        assert failing_time(exc) == 0.5

    def test_local_path_refuses(self):
        spec = losing_pd_spec(hyperbolic_kernel(1.0))
        assert local_expansion(spec) is not None
        with pytest.raises(AssumptionError) as exc:
            solve_equilibrium(spec, build_grid(1.0, 41))
        assert failing_time(exc) >= 0.5

    def test_fixed_point_path_refuses(self):
        times = np.linspace(0.0, 1.0, 21)
        table = 1.0 / (1.0 + np.clip(times[None, :] - times[:, None], 0.0, None))
        spec = losing_pd_spec(tabulated_kernel(times, table))
        assert local_expansion(spec) is None
        with pytest.raises(AssumptionError) as exc:
            solve_equilibrium(spec, build_grid(1.0, 41))
        assert failing_time(exc) >= 0.5

    def test_pointwise_solve_names_its_time(self):
        spec = losing_pd_spec(hyperbolic_kernel(1.0))
        assert gamma_from_p(np.ones((1, 1)), spec, 0.25)[0, 0] == pytest.approx(
            (1.0 + 0.1) / 0.5)
        with pytest.raises(AssumptionError) as exc:
            gamma_from_p(np.ones((1, 1)), spec, 0.75)
        assert failing_time(exc) == 0.75


class TestQbb:
    def test_time_consistent_gives_zero(self):
        spec = classical_scalar_spec()
        grid = build_grid(1.0, 50)
        tables = SpecTables(spec, grid)
        gain = np.ones((51, 1, 1))
        cl = _closed_loop_table(gain, tables)
        qbb = _qbb_table(gain, _anchored(cl), tables)
        np.testing.assert_array_equal(qbb, np.zeros_like(qbb))

    def test_terminal_term_only(self):
        # Gdot = -1 constant, no kernel derivatives, zero gain, A = B = 0:
        # the propagator is the identity and Qbb(t) = Gdot
        spec = classical_scalar_spec()
        grid = build_grid(1.0, 40)
        from tilq import TerminalField
        terminal = TerminalField(G=lambda t: np.array([[1.0 - t]]),
                                 g=lambda t: np.zeros(1),
                                 dG_dt=lambda t: np.array([[-1.0]]),
                                 dg_dt=lambda t: np.zeros(1))
        dyn = DynamicsField.constant([[0.0]], [[0.0]], [0.0])
        spec = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                              dynamics=dyn, Q=spec.Q, S=spec.S, M=spec.M,
                              q=spec.q, rho=spec.rho, terminal=terminal)
        gain = np.zeros((41, 1, 1))
        cl = full_table(_closed_loop_table(gain, SpecTables(spec, grid)), grid)
        qbb = qbb_from_gamma(gain, cl, spec, grid, 0)
        assert qbb[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_per_node_matches_batched(self):
        # the three-state input has full, non-square blocks: n = 1 alone
        # cannot show a transposed index
        grid = build_grid(1.0, 200)
        for spec in (hyperbolic_scalar_spec(), threestate_spec()):
            sol = solve_equilibrium_riccati(spec, grid)
            cl = full_table(sol.closed_loop, grid)
            for i in (0, 77, 199, 200):
                direct = qbb_from_gamma(sol.gain, cl, spec, grid, i)
                np.testing.assert_allclose(direct, sol.qbb[i], atol=1e-13)

    def test_matches_fine_grid_quadrature(self):
        # rebuild Qbb on a 10x finer grid from the interpolated gain
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[-0.2]], [[1.0]], [0.1]),
            BaseCosts(Q=[[1.0]], S=[[0.1]], M=[[1.0]], q=[0.05], rho=[0.02],
                      G=[[1.0]], g=[0.1]),
            exponential_kernel(0.5))
        grid = build_grid(1.0, 400)
        sol = solve_equilibrium_riccati(spec, grid)
        fine = build_grid(1.0, 4000)
        gain_fine = np.interp(fine.nodes, grid.nodes,
                              sol.gain[:, 0, 0])[:, None, None]
        cl_fine = full_table(_closed_loop_table(gain_fine, SpecTables(spec, fine)),
                             fine)
        for i in (0, 120):
            coarse_val = sol.qbb[i, 0, 0]
            fine_val = qbb_from_gamma(gain_fine, cl_fine, spec, fine,
                                      10 * i)[0, 0]
            assert abs(coarse_val - fine_val) < 1e-6


def one_sweep(P_in, spec, grid):
    """One fixed-point sweep of the integral form: the new P table."""
    return _sweep_core(np.asarray(P_in, dtype=float), SpecTables(spec, grid))[0]


class TestSweep:
    def test_trivial_problem_fixed_point_immediately(self):
        # no state cost, constant terminal weight, A = B = 0: the sweep map
        # sends any table to the constant G(T)
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.0]], [[0.0]], [0.0]),
            BaseCosts(Q=[[0.0]], S=[[0.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                      G=[[2.5]], g=[0.0]),
            exponential_kernel(0.0))
        grid = build_grid(1.0, 30)
        for start in (np.zeros((31, 1, 1)), 7.0 * np.ones((31, 1, 1))):
            out = one_sweep(start, spec, grid)
            np.testing.assert_allclose(out, 2.5 * np.ones((31, 1, 1)),
                                       atol=1e-14)

    def test_exact_solution_nearly_invariant(self):
        spec = classical_scalar_spec()
        grid = build_grid(1.0, 400)
        exact = classical_exact_p(grid.nodes)[:, None, None]
        out = one_sweep(exact, spec, grid)
        assert np.max(np.abs(out - exact)) <= 10 * grid.h ** 2

    def test_converged_table_is_fixed(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 300)
        sol = solve_equilibrium_riccati(spec, grid)
        out = one_sweep(sol.P, spec, grid)
        assert np.max(np.abs(out - sol.P)) <= 10 * 1e-10

    def test_matches_explicit_trapezoid_sum(self):
        # the backward recursion against the O(N^2) double sum it reassociates
        spec = threestate_spec()
        grid = build_grid(1.0, 24)
        N, T = grid.N, grid.T
        rng = np.random.default_rng(3)
        X = rng.uniform(-0.3, 0.3, size=(N + 1, 3, 3))
        P_in = 0.5 * np.eye(3) + X + np.swapaxes(X, -1, -2)
        nodes = [float(t) for t in grid.nodes]
        gain = np.array([gamma_from_p(P_in[i], spec, nodes[i])
                         for i in range(N + 1)])
        tables = SpecTables(spec, grid)
        cl = full_table(_closed_loop_table(gain, tables), grid)
        inner = np.array([spec.Q(t, t) - qbb_from_gamma(gain, cl, spec, grid, i)
                          - gain[i].T @ spec.M(t, t) @ gain[i]
                          for i, t in enumerate(nodes)])
        E = full_table(tables.open_loop_steps, grid)
        G_T = np.asarray(spec.terminal.G(T), dtype=float)
        expected = np.empty_like(P_in)
        for i in range(N + 1):
            terms = np.array([E[j, i].T @ inner[j] @ E[j, i]
                              for j in range(i, N + 1)])
            expected[i] = (quadrature(terms, grid, i, N)
                           + E[N, i].T @ G_T @ E[N, i])
        got = one_sweep(P_in, spec, grid)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)

    def test_closed_loop_integral_form_holds(self):
        # the converged open-loop fixed point must also satisfy the
        # equivalent closed-loop representation
        #   P(t) = E_cl(T,t)^T G E_cl(T,t) + int E_cl^T [Q - S^T M^-1 S - Qbb
        #          + P B M^-1 B^T P] E_cl
        # up to quadrature error
        spec = twostate_spec()
        grid = build_grid(1.0, 300)
        sol = solve_equilibrium_riccati(spec, grid)
        tbl = sol.tables
        cl = pair_table(sol.closed_loop, grid)
        SMS = np.einsum("jmn,jmp,jpk->jnk", tbl.Sd,
                        np.linalg.inv(tbl.Md), tbl.Sd)
        BP = np.einsum("jam,jab->jmb", tbl.B, sol.P)
        PBMBP = np.einsum("jma,jmp,jpb->jab", BP, np.linalg.inv(tbl.Md), BP)
        inner = tbl.Qd - SMS - sol.qbb + PBMBP
        integral = np.einsum("caij,jce,edij,ij->iad", cl, inner, cl, tbl.W)
        EN = cl[..., grid.N]
        rhs = integral + np.einsum("cai,ce,edi->iad", EN, tbl.G_T, EN)
        scale = 1.0 + np.max(np.abs(sol.P))
        assert np.max(np.abs(rhs - sol.P)) <= 10 * grid.h ** 2 * scale


class TestPairTableBuilds:
    """Solves, checks and the CLI build no table over node pairs.

    Every such table starts with a ``TransitionTable`` or a
    ``_btilde_from_drive`` call, so both are counted.
    """

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        init = TransitionTable.__init__

        def counted_init(table, grid, steps):
            calls.append(("TransitionTable", grid.N))
            init(table, grid, steps)

        monkeypatch.setattr(TransitionTable, "__init__", counted_init)
        btilde = tilq.auxiliary._btilde_from_drive

        def counted_btilde(cl_pairs, drive, grid):
            calls.append(("_btilde_from_drive", grid.N))
            return btilde(cl_pairs, drive, grid)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "tilq" and hasattr(module, "_btilde_from_drive"):
                monkeypatch.setattr(module, "_btilde_from_drive", counted_btilde)
        return calls

    def test_counters_see_a_build(self, builds):
        grid = build_grid(1.0, 10)
        steps = np.broadcast_to(np.eye(2), (10, 2, 2))
        tilq.auxiliary._btilde_from_drive(pair_table(steps, grid),
                                          np.ones((11, 2)), grid)
        assert builds == [("TransitionTable", 10), ("_btilde_from_drive", 10)]

    def test_uniqueness_probe_builds_none(self, builds):
        spec = twostate_spec()
        G_T = np.asarray(spec.terminal.G(1.0), dtype=float)
        probe = uniqueness_probe(spec, build_grid(1.0, 100),
                                 ["zero", G_T, 5.0 * G_T])
        assert probe.p_distance <= 1e-9
        assert builds == []

    @pytest.fixture(scope="class")
    def tabulated_spec(self):
        times = np.linspace(0.0, 1.0, 101)
        lag = np.clip(times[None, :] - times[:, None], 0.0, None)
        return twostate_spec(tabulated_kernel(times, 1.0 / (1.0 + lag)))

    def test_fixed_point_solve_builds_none(self, builds, tabulated_spec):
        sol = solve_equilibrium(tabulated_spec, build_grid(1.0, 100))
        assert sol.method == "fixed_point"
        assert builds == []

    def test_local_solve_builds_none(self, builds):
        sol = solve_equilibrium(twostate_spec(), build_grid(1.0, 100))
        assert sol.method == "local"
        assert builds == []

    def test_stationarity_residual_builds_none(self, builds, tabulated_spec):
        sol = solve_equilibrium(tabulated_spec, build_grid(1.0, 100))
        states = np.array([[1.0, -0.5], [0.2, 2.0]])
        assert hjb_residual_sup(sol, states) <= 1e-5
        assert builds == []

    def test_verification_builds_none(self, builds, tabulated_spec):
        # the equilibrium paths of the spike, Bellman, value and integral-form
        # checks come from the bordered anchors
        sol = solve_equilibrium(tabulated_spec, build_grid(1.0, 200))
        assert len(run_verification(sol).checks) == 11
        assert builds == []

    def test_cli_solve_builds_none(self, builds, tmp_path):
        # trajectory.csv is one equilibrium path
        problem = str(shipped_problem_path("twostate_hyperbolic"))
        assert cli.main(["solve", problem, "-N", "200",
                         "--out", str(tmp_path / "out")]) == 0
        assert builds == []

    @pytest.mark.parametrize("command", [["verify"], ["compare"],
                                         ["sweep", "--values", "0.5,1.0"]])
    def test_cli_commands_build_none(self, builds, tmp_path, command):
        problem = str(shipped_problem_path("twostate_hyperbolic"))
        assert cli.main([command[0], problem, "-N", "200", *command[1:],
                         "--out", str(tmp_path / "out")]) == 0
        assert builds == []


class TestSolve:
    def test_classical_scalar_closed_form(self):
        spec = classical_scalar_spec()
        grid = build_grid(1.0, 800)
        sol = solve_equilibrium_riccati(spec, grid)
        err = np.max(np.abs(sol.P[:, 0, 0] - classical_exact_p(grid.nodes)))
        assert err < 1e-4 * (2000.0 / 800.0) ** 2
        assert sol.P[0, 0, 0] == pytest.approx(0.5, abs=6e-4)

    def test_zero_cost_gives_zero(self):
        spec = zero_cost_spec()
        grid = build_grid(1.0, 100)
        sol = solve_equilibrium_riccati(spec, grid)
        assert np.max(np.abs(sol.P)) <= 1e-10

    def test_terminal_condition_bit_exact(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 150)
        sol = solve_equilibrium_riccati(spec, grid)
        assert np.array_equal(sol.P[-1], sol.tables.G_T)

    def test_symmetry_and_gain_consistency(self):
        spec = twostate_spec()
        grid = build_grid(1.0, 200)
        sol = solve_equilibrium_riccati(spec, grid)
        np.testing.assert_array_equal(sol.P, np.swapaxes(sol.P, -1, -2))
        np.testing.assert_array_equal(sol.qbb, np.swapaxes(sol.qbb, -1, -2))
        for i in (0, 100, 200):
            np.testing.assert_allclose(
                sol.gain[i],
                gamma_from_p(sol.P[i], spec, float(grid.nodes[i])),
                atol=1e-13)

    def test_initialization_independence(self):
        spec = hyperbolic_scalar_spec(0.5)
        grid = build_grid(1.0, 300)
        sols = [solve_equilibrium_riccati(spec, grid, SolveOptions(initial=s))
                for s in ("zero", "terminal")]
        dist = np.max(np.abs(sols[0].P - sols[1].P))
        assert dist <= 10 * 1e-10

    def test_order_two_self_convergence(self):
        spec = hyperbolic_scalar_spec()
        tables = {}
        for N in (200, 400, 800):
            tables[N] = solve_equilibrium_riccati(spec, build_grid(1.0, N)).P
        d1 = np.max(np.abs(tables[200][:, 0, 0] - tables[400][::2, 0, 0]))
        d2 = np.max(np.abs(tables[400][:, 0, 0] - tables[800][::2, 0, 0]))
        # asymptotic ratio for a second-order scheme is exactly 4
        assert d1 <= 4.5 * d2
        assert d1 >= 3.0 * d2

    def test_nonconvergence_reported(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 60)
        with pytest.raises(ConvergenceError) as info:
            solve_equilibrium_riccati(spec, grid,
                                      SolveOptions(max_iterations=2))
        assert info.value.diagnostics.iterations == 2
        assert not info.value.diagnostics.converged

    def test_indefinite_p_warns_not_errors(self):
        # strong cross-weight with weak state costs drives P negative, which
        # the standing assumptions permit; the solver flags it and proceeds
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.0]], [[1.0]], [0.0]),
            BaseCosts(Q=[[0.0]], S=[[1.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                      G=[[0.01]], g=[0.0]),
            exponential_kernel(0.0))
        with pytest.warns(UserWarning, match="negative eigenvalues"):
            sol = solve_equilibrium_riccati(spec, build_grid(1.0, 200))
        assert sol.converged
        assert sol.P[0, 0, 0] < 0

    def test_diagnostics_recorded(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 100)
        sol = solve_equilibrium_riccati(spec, grid)
        d = sol.diagnostics
        assert d.converged
        assert len(d.deltas) == d.iterations
        assert d.deltas[-1] <= 1e-10
        assert len(d.damping_history) == d.iterations


class TestClassicalRiccati:
    def test_closed_form(self):
        spec = classical_scalar_spec()
        grid = build_grid(1.0, 2000)
        P = classical_riccati(spec, grid)
        err = np.max(np.abs(P[:, 0, 0] - classical_exact_p(grid.nodes)))
        assert err < 1e-8

    def test_zero_costs(self):
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.4]], [[1.0]], [0.0]),
            BaseCosts(Q=[[0.0]], S=[[0.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                      G=[[0.0]], g=[0.0]),
            exponential_kernel(0.0))
        P = classical_riccati(spec, build_grid(1.0, 50))
        np.testing.assert_allclose(P, 0.0, atol=1e-14)

    def test_pure_state_cost_linear(self):
        # A = B = 0, Q = 1, G = 0: P' = -1, so P(t) = 1 - t
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.0]], [[0.0]], [0.0]),
            BaseCosts(Q=[[1.0]], S=[[0.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                      G=[[0.0]], g=[0.0]),
            exponential_kernel(0.0))
        grid = build_grid(1.0, 100)
        P = classical_riccati(spec, grid)
        np.testing.assert_allclose(P[:, 0, 0], 1.0 - grid.nodes, atol=1e-12)

    def test_rejects_time_inconsistent_spec(self):
        with pytest.raises(AssumptionError):
            classical_riccati(hyperbolic_scalar_spec(), build_grid(1.0, 50))

    def test_equilibrium_reduces_to_classical(self):
        spec = twostate_spec(kernel=exponential_kernel(0.0))
        grid = build_grid(1.0, 300)
        eq = solve_equilibrium_riccati(spec, grid)
        cl = classical_riccati(spec, grid)
        scale = 1.0 + np.max(np.abs(cl))
        assert np.max(np.abs(eq.P - cl)) <= 10 * grid.h ** 2 * scale
