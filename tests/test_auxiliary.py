import numpy as np
import pytest

from tilq import (BaseCosts, Dimensions, DynamicsField, SolveOptions,
                  TilqError, build_grid, exponential_kernel, make_discounted,
                  quadrature, solve_auxiliary, solve_equilibrium_riccati,
                  solve_phi, solve_psi)
from tilq.auxiliary import _affine_backward_rk4, _upsilon_table
from tilq.grid import closed_loop_drive
from tilq.tables import SpecTables
from auxiliary_reference import omega_at, sbb_at
from conftest import (classical_scalar_spec, dynamics_tables,
                      hyperbolic_scalar_spec, threestate_spec, twostate_spec,
                      zero_cost_spec)
from pair_tables import from_pair_layout, full_table, pair_table
import auxiliary_reference


def btilde(steps, upsilon, tables):
    """The solver's btilde, node-major [s_idx, t_idx], for a given Upsilon."""
    drive = closed_loop_drive(tables.b, tables.B, upsilon)
    return auxiliary_reference.btilde(pair_table(steps, tables.grid), drive,
                                      tables.grid)


def forced_scalar_spec(kernel=None):
    return make_discounted(
        Dimensions(1, 1), 1.0,
        DynamicsField.constant([[-0.2]], [[1.0]], [0.1]),
        BaseCosts(Q=[[1.0]], S=[[0.1]], M=[[1.0]], q=[0.05], rho=[0.02],
                  G=[[1.0]], g=[0.1]),
        kernel or exponential_kernel(0.0))


def upsilon_table(spec, phi, N=10):
    """The solver's Upsilon table for phi held constant over the nodes."""
    tables = SpecTables(spec, build_grid(spec.horizon, N))
    return _upsilon_table(np.broadcast_to(phi, (N + 1, spec.dims.n)), tables)


class TestUpsilonFromPhi:
    def test_zero_inputs(self):
        spec = classical_scalar_spec()
        assert np.all(upsilon_table(spec, np.zeros(1)) == 0.0)

    def test_scalar_arithmetic(self):
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.0]], [[1.0]], [0.0]),
            BaseCosts(Q=[[1.0]], S=[[0.0]], M=[[2.0]], q=[0.0], rho=[1.0],
                      G=[[1.0]], g=[0.0]),
            exponential_kernel(0.0))
        # (1 * 3 + 1) / 2
        np.testing.assert_allclose(upsilon_table(spec, np.array([3.0])), 2.0)

    def test_no_actuation_leaves_rho_term(self):
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.0]], [[0.0]], [0.0]),
            BaseCosts(Q=[[1.0]], S=[[0.0]], M=[[4.0]], q=[0.0], rho=[2.0],
                      G=[[1.0]], g=[0.0]),
            exponential_kernel(0.0))
        for phi in ([0.0], [17.0]):
            np.testing.assert_allclose(upsilon_table(spec, np.asarray(phi)), 0.5)


class TestBtilde:
    def test_zero_drive(self):
        spec = zero_cost_spec()
        grid = build_grid(1.0, 60)
        sol = solve_equilibrium_riccati(spec, grid)
        bt = btilde(sol.closed_loop, np.zeros((61, 1)), sol.tables)
        np.testing.assert_array_equal(bt, np.zeros_like(bt))

    def test_pure_drift_linear_growth(self):
        # A = B = 0, b = 1: response is s - t, and the trapezoid rule is
        # exact for the constant integrand
        dyn = DynamicsField.constant([[0.0]], [[0.0]], [1.0])
        tables = dynamics_tables(dyn, build_grid(1.0, 50))
        grid = tables.grid
        bt = btilde(tables.open_loop_steps, np.zeros((51, 1)), tables)
        for (j, i) in [(50, 0), (30, 10), (20, 20)]:
            expected = grid.nodes[j] - grid.nodes[i]
            assert bt[j, i, 0] == pytest.approx(expected, abs=1e-13)

    def test_stable_drift_closed_form(self):
        # A = -1, b = 1, B = 0: response is 1 - exp(-(s - t))
        dyn = DynamicsField.constant([[-1.0]], [[0.0]], [1.0])
        tables = dynamics_tables(dyn, build_grid(1.0, 1000))
        grid = tables.grid
        bt = btilde(tables.open_loop_steps, np.zeros((1001, 1)), tables)
        worst = 0.0
        for (j, i) in [(1000, 0), (700, 200), (400, 399)]:
            exact = 1.0 - np.exp(-(grid.nodes[j] - grid.nodes[i]))
            worst = max(worst, abs(bt[j, i, 0] - exact))
        assert worst < 1e-6

    def test_matches_direct_trapezoid_sum(self):
        # btilde(s, t) = int_t^s E_cl(s, tau) (b - B Upsilon)(tau) dtau
        spec = threestate_spec()
        grid = build_grid(1.0, 40)
        riccati = solve_equilibrium_riccati(spec, grid)
        ups = np.column_stack([0.3 - grid.nodes, 0.1 * np.cos(3 * grid.nodes)])
        bt = btilde(riccati.closed_loop, ups, riccati.tables)
        cl = full_table(riccati.closed_loop, grid)
        drive = [spec.dynamics.b(float(t)) - spec.dynamics.B(float(t)) @ ups[k]
                 for k, t in enumerate(grid.nodes)]
        for (j, i) in [(40, 0), (31, 7), (12, 11), (25, 25)]:
            terms = np.array([cl[j, k] @ drive[k] for k in range(i, j + 1)])
            np.testing.assert_allclose(bt[j, i], quadrature(terms, grid, i, j),
                                       rtol=0, atol=1e-13)

    def test_diagonal_zero(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 80)
        riccati = solve_equilibrium_riccati(spec, grid)
        aux = solve_auxiliary(spec, grid, riccati)
        bt = btilde(riccati.closed_loop, aux.upsilon, riccati.tables)
        diag = bt[np.arange(81), np.arange(81)]
        np.testing.assert_array_equal(diag, np.zeros_like(diag))


class TestSbbOmegaPointwise:
    def test_time_consistent_zero(self):
        spec = forced_scalar_spec(exponential_kernel(0.0))
        grid = build_grid(1.0, 100)
        riccati = solve_equilibrium_riccati(spec, grid)
        aux = solve_auxiliary(spec, grid, riccati)
        np.testing.assert_array_equal(aux.sbb, np.zeros_like(aux.sbb))
        np.testing.assert_array_equal(aux.omega, np.zeros_like(aux.omega))

    def test_only_qt_term_survives(self):
        # frozen ingredients: zero gain/upsilon/btilde, identity propagator,
        # q_t equal to a constant, everything else without t-dependence
        from tilq import TwoTimeField
        c = 0.37
        spec = classical_scalar_spec()
        qfield = TwoTimeField(value=lambda t, s: np.zeros(1),
                              dvalue_dt=lambda t, s: np.array([c]),
                              shape=(1,))
        dyn = DynamicsField.constant([[0.0]], [[0.0]], [0.0])
        spec = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                              dynamics=dyn, Q=spec.Q, S=spec.S, M=spec.M,
                              q=qfield, rho=spec.rho, terminal=spec.terminal)
        grid = build_grid(1.0, 40)
        prop = full_table(dynamics_tables(dyn, grid).open_loop_steps, grid)
        zero_gain = np.zeros((41, 1, 1))
        zero_ups = np.zeros((41, 1))
        zero_bt = np.zeros((41, 41, 1))
        got = sbb_at(0, spec, grid, prop, zero_gain, zero_ups, zero_bt)
        assert got[0] == pytest.approx(c, abs=1e-12)

    def test_omega_single_control_term(self):
        # only M_t nonzero and constant, constant upsilon, all else zero:
        # omega(0) = integral of M_t * u0^2 = c * u0^2 over a unit horizon
        from tilq import TwoTimeField
        c, u0 = 0.8, 1.7
        spec = classical_scalar_spec()
        mfield = TwoTimeField(value=lambda t, s: np.ones((1, 1)),
                              dvalue_dt=lambda t, s: np.array([[c]]),
                              shape=(1, 1))
        dyn = DynamicsField.constant([[0.0]], [[0.0]], [0.0])
        spec = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                              dynamics=dyn, Q=spec.Q, S=spec.S, M=mfield,
                              q=spec.q, rho=spec.rho, terminal=spec.terminal)
        grid = build_grid(1.0, 40)
        got = omega_at(0, spec, grid, np.zeros((41, 1, 1)),
                       u0 * np.ones((41, 1)), np.zeros((41, 41, 1)))
        assert got == pytest.approx(c * u0 * u0, abs=1e-12)

    def test_pointwise_matches_batched(self):
        # the three-state input has full, non-square blocks: n = 1 alone
        # cannot show a transposed index
        grid = build_grid(1.0, 150)
        for spec in (hyperbolic_scalar_spec(), threestate_spec()):
            riccati = solve_equilibrium_riccati(spec, grid)
            aux = solve_auxiliary(spec, grid, riccati)
            pairs = pair_table(riccati.closed_loop, grid)
            cl = from_pair_layout(pairs)
            bt = auxiliary_reference.btilde(pairs, aux.drive, grid)
            for i in (0, 50, 149):
                s_direct = sbb_at(i, spec, grid, cl, riccati.gain, aux.upsilon, bt)
                np.testing.assert_allclose(s_direct, aux.sbb[i], atol=1e-13)
                w_direct = omega_at(i, spec, grid, riccati.gain, aux.upsilon, bt)
                assert w_direct == pytest.approx(float(aux.omega[i]), abs=1e-13)

    def test_fine_grid_oracle(self):
        spec = forced_scalar_spec(exponential_kernel(0.5))
        grid = build_grid(1.0, 400)
        riccati = solve_equilibrium_riccati(spec, grid)
        aux = solve_auxiliary(spec, grid, riccati)
        fine = build_grid(1.0, 4000)
        tables_f = SpecTables(spec, fine)
        from tilq.riccati import _closed_loop_table, _gain_table
        P_fine = np.interp(fine.nodes, grid.nodes,
                           riccati.P[:, 0, 0])[:, None, None]
        gain_f = _gain_table(P_fine, tables_f)
        pairs_f = pair_table(_closed_loop_table(gain_f, tables_f), fine)
        cl_f = from_pair_layout(pairs_f)
        ups_f = np.interp(fine.nodes, grid.nodes, aux.upsilon[:, 0])[:, None]
        bt_f = auxiliary_reference.btilde(
            pairs_f, closed_loop_drive(tables_f.b, tables_f.B, ups_f), fine)
        for i in (0, 120):
            s_f = sbb_at(10 * i, spec, fine, cl_f, gain_f, ups_f, bt_f)
            assert abs(s_f[0] - aux.sbb[i, 0]) < 1e-6
            w_f = omega_at(10 * i, spec, fine, gain_f, ups_f, bt_f)
            assert abs(w_f - aux.omega[i]) < 1e-6


class TestSolvePhi:
    def test_zero_forcing_zero_solution(self):
        spec = zero_cost_spec()
        grid = build_grid(1.0, 80)
        riccati = solve_equilibrium_riccati(spec, grid)
        phi_sol = solve_phi(spec, grid, riccati)
        np.testing.assert_array_equal(phi_sol.phi, np.zeros_like(phi_sol.phi))
        np.testing.assert_array_equal(phi_sol.upsilon,
                                      np.zeros_like(phi_sol.upsilon))
        np.testing.assert_array_equal(phi_sol.sbb, np.zeros_like(phi_sol.sbb))

    def test_explicit_initial_tables(self):
        # SolveOptions.initial reaches phi too (solve_equilibrium passes one
        # options object to both stages); only phi-shaped tables apply
        spec = twostate_spec()
        grid = build_grid(1.0, 50)
        riccati = solve_equilibrium_riccati(spec, grid)
        ref = solve_phi(spec, grid, riccati).phi
        for init in ([0.1, -0.2], np.full((51, 2), 0.3), "zero"):
            got = solve_phi(spec, grid, riccati, SolveOptions(initial=init)).phi
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)
        for bad in (np.eye(2), np.zeros((50, 2)), "warm"):
            with pytest.raises(TilqError, match="initial phi"):
                solve_phi(spec, grid, riccati, SolveOptions(initial=bad))

    def test_terminal_condition_exact(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 120)
        riccati = solve_equilibrium_riccati(spec, grid)
        phi_sol = solve_phi(spec, grid, riccati)
        np.testing.assert_array_equal(phi_sol.phi[-1], riccati.tables.g_T)

    def test_upsilon_recomputes_from_stored_phi(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 150)
        riccati = solve_equilibrium_riccati(spec, grid)
        phi_sol = solve_phi(spec, grid, riccati)
        for i in (0, 70, 150):
            # M(t,t)^{-1} (B^T(t) phi + rho(t,t)) from the spec's callables
            t = float(grid.nodes[i])
            fresh = np.linalg.solve(spec.M(t, t), spec.dynamics.B(t).T
                                    @ phi_sol.phi[i] + spec.rho(t, t))
            np.testing.assert_allclose(phi_sol.upsilon[i], fresh, atol=1e-14)

    def test_time_consistent_single_pass_oracle(self):
        # with zero Sbb the Picard map does not depend on phi, so one direct
        # backward integration is the full answer
        spec = forced_scalar_spec(exponential_kernel(0.0))
        grid = build_grid(1.0, 200)
        riccati = solve_equilibrium_riccati(spec, grid)
        phi_sol = solve_phi(spec, grid, riccati)
        tbl = riccati.tables
        gain = riccati.gain
        D_nodes = np.swapaxes(tbl.A - tbl.B @ gain, -1, -2)
        D_half = np.swapaxes(
            tbl.A_half - tbl.B_half @ (0.5 * (gain[:-1] + gain[1:])), -1, -2)
        c_nodes = (np.einsum("iab,ib->ia", riccati.P, tbl.b) + tbl.qd
                   - np.einsum("ima,im->ia", gain, tbl.rhod))
        P_half = 0.5 * (riccati.P[:-1] + riccati.P[1:])
        gain_half = 0.5 * (gain[:-1] + gain[1:])
        c_half = (np.einsum("iab,ib->ia", P_half, tbl.b_half) + tbl.qd_half
                  - np.einsum("ima,im->ia", gain_half, tbl.rhod_half))
        direct = _affine_backward_rk4(D_nodes, D_half, c_nodes, c_half,
                                      tbl.g_T, grid.h)
        assert np.max(np.abs(direct - phi_sol.phi)) <= 1e-10

    def test_initialization_independence(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 200)
        riccati = solve_equilibrium_riccati(spec, grid)
        a = solve_phi(spec, grid, riccati, SolveOptions(initial="zero"))
        b = solve_phi(spec, grid, riccati, SolveOptions(initial="terminal"))
        assert np.max(np.abs(a.phi - b.phi)) <= 10 * 1e-10

    def test_order_two_self_convergence(self):
        spec = hyperbolic_scalar_spec()
        phis = {}
        for N in (200, 400, 800):
            grid = build_grid(1.0, N)
            riccati = solve_equilibrium_riccati(spec, grid)
            phis[N] = solve_phi(spec, grid, riccati).phi[:, 0]
        d1 = np.max(np.abs(phis[200] - phis[400][::2]))
        d2 = np.max(np.abs(phis[400] - phis[800][::2]))
        assert 3.0 * d2 <= d1 <= 4.5 * d2

    def test_ode_residual_at_interior_nodes(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 400)
        riccati = solve_equilibrium_riccati(spec, grid)
        aux = solve_auxiliary(spec, grid, riccati)
        tbl = riccati.tables
        gain = riccati.gain
        h = grid.h
        dphi = (aux.phi[2:] - aux.phi[:-2]) / (2 * h)
        D = np.swapaxes(tbl.A - tbl.B @ gain, -1, -2)[1:-1]
        rhs = (np.einsum("iab,ib->ia", D, aux.phi[1:-1]) - aux.sbb[1:-1]
               + np.einsum("iab,ib->ia", riccati.P[1:-1], tbl.b[1:-1])
               + tbl.qd[1:-1]
               - np.einsum("ima,im->ia", gain[1:-1], tbl.rhod[1:-1]))
        residual = np.max(np.abs(dphi + rhs))
        scale = 1.0 + np.max(np.abs(aux.phi))
        assert residual <= 10 * h * scale


class TestSolvePsi:
    def test_zero_forcing(self):
        spec = zero_cost_spec()
        grid = build_grid(1.0, 60)
        riccati = solve_equilibrium_riccati(spec, grid)
        aux = solve_auxiliary(spec, grid, riccati)
        np.testing.assert_array_equal(aux.psi, np.zeros_like(aux.psi))

    def test_constant_integrand(self):
        # phi = 1, b = 1, B = 0, no control weights active: integrand 2
        spec = make_discounted(
            Dimensions(1, 1), 1.0,
            DynamicsField.constant([[0.0]], [[0.0]], [1.0]),
            BaseCosts(Q=[[0.0]], S=[[0.0]], M=[[1.0]], q=[0.0], rho=[0.0],
                      G=[[0.0]], g=[1.0]),
            exponential_kernel(0.0))
        grid = build_grid(1.0, 100)
        riccati = solve_equilibrium_riccati(spec, grid)
        phi_sol = solve_phi(spec, grid, riccati)
        np.testing.assert_allclose(phi_sol.phi[:, 0], 1.0, atol=1e-12)
        psi, _ = solve_psi(spec, grid, riccati, phi_sol)
        assert psi[0] == pytest.approx(2.0, abs=1e-12)
        assert psi[-1] == 0.0

    def test_terminal_zero_exact(self):
        spec = twostate_spec()
        grid = build_grid(1.0, 120)
        riccati = solve_equilibrium_riccati(spec, grid)
        aux = solve_auxiliary(spec, grid, riccati)
        assert aux.psi[-1] == 0.0

    def test_fine_grid_oracle(self):
        spec = hyperbolic_scalar_spec()
        coarse = build_grid(1.0, 400)
        fine = build_grid(1.0, 1600)
        psi_c = solve_auxiliary(spec, coarse,
                                solve_equilibrium_riccati(spec, coarse)).psi
        psi_f = solve_auxiliary(spec, fine,
                                solve_equilibrium_riccati(spec, fine)).psi
        assert abs(psi_c[0] - psi_f[0]) < 1e-6
