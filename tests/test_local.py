"""The local ODE sweep against the fixed-point path and against itself."""

import numpy as np
import pytest

from tilq import (BaseCosts, SolveOptions, TilqError, build_grid,
                  classical_riccati, cost, exponential_kernel, feedback,
                  hyperbolic_kernel, make_discounted, quasi_hyperbolic_kernel,
                  simulate_control, solve_auxiliary, solve_equilibrium,
                  solve_equilibrium_riccati, tabulated_kernel, value)
from tilq.local import (FIT_RTOL, TERM_LADDER, fit_exponential_sum,
                        local_expansion, solve_local)
from conftest import (classical_scalar_spec, hyperbolic_scalar_spec,
                      threestate_spec, twostate_spec)

SPECS = {
    "scalar_hyperbolic": hyperbolic_scalar_spec,
    "twostate_hyperbolic": twostate_spec,
    "threestate_hyperbolic": threestate_spec,
    "exponential": lambda: twostate_spec(exponential_kernel(0.5)),
    "quasi_hyperbolic": lambda: twostate_spec(
        quasi_hyperbolic_kernel(0.7, 0.1, 0.2)),
}
FIELDS = ("P", "phi", "psi", "qbb", "sbb", "omega")


def fields(riccati, auxiliary):
    return {"P": riccati.P, "phi": auxiliary.phi, "psi": auxiliary.psi,
            "qbb": riccati.qbb, "sbb": auxiliary.sbb, "omega": auxiliary.omega}


def local_fields(spec, N):
    grid = build_grid(spec.horizon, N)
    return fields(*solve_local(spec, grid, local_expansion(spec)))


def fixed_point_fields(spec, N):
    grid = build_grid(spec.horizon, N)
    riccati = solve_equilibrium_riccati(spec, grid)
    return fields(riccati, solve_auxiliary(spec, grid, riccati))


class TestAgainstFixedPoint:
    @pytest.mark.parametrize("name", SPECS)
    def test_agrees_within_discretization_error(self, name):
        spec = SPECS[name]()
        N = 80
        h = spec.horizon / N
        local, fixed = local_fields(spec, N), fixed_point_fields(spec, N)
        for key in FIELDS:
            gap = float(np.max(np.abs(local[key] - fixed[key])))
            tol = 10.0 * h * h * (1.0 + float(np.max(np.abs(fixed[key]))))
            assert gap <= tol, (key, gap, tol)

    def test_exact_families_use_their_exact_sums(self):
        assert local_expansion(SPECS["exponential"]()).terms == 1
        assert local_expansion(SPECS["quasi_hyperbolic"]()).terms == 2

    @pytest.mark.parametrize("name", ["scalar_hyperbolic",
                                      "threestate_hyperbolic"])
    def test_gap_shrinks_at_second_order(self, name):
        # the local sweep is fourth order, so the gap is the fixed point's
        # own O(h^2) error
        spec = SPECS[name]()
        gaps = {}
        for N in (40, 80, 160):
            local, fixed = local_fields(spec, N), fixed_point_fields(spec, N)
            gaps[N] = {k: float(np.max(np.abs(local[k] - fixed[k])))
                       for k in FIELDS}
        for key in FIELDS:
            for N in (40, 80):
                assert gaps[N][key] >= 3.5 * gaps[2 * N][key], (key, N, gaps)


class TestSelfConvergence:
    @pytest.mark.parametrize("name", ["scalar_hyperbolic",
                                      "threestate_hyperbolic",
                                      "quasi_hyperbolic"])
    def test_fourth_order(self, name):
        spec = SPECS[name]()
        runs = {N: local_fields(spec, N) for N in (25, 50, 100)}
        for key in FIELDS:
            # differences on the coarse nodes between successive doublings
            d1 = np.max(np.abs(runs[25][key] - runs[50][key][::2]))
            d2 = np.max(np.abs(runs[50][key] - runs[100][key][::2]))
            assert d1 >= 10.0 * d2, (key, d1, d2)

    def test_rate_zero_reproduces_classical_riccati(self):
        for spec in (classical_scalar_spec(),
                     twostate_spec(exponential_kernel(0.0))):
            grid = build_grid(1.0, 200)
            sol = solve_equilibrium(spec, grid)
            assert sol.method == "local"
            gap = np.max(np.abs(sol.riccati.P - classical_riccati(spec, grid)))
            assert gap <= 1e-12


class TestExpansion:
    @pytest.mark.parametrize("kernel", [
        exponential_kernel(0.0), exponential_kernel(0.5),
        quasi_hyperbolic_kernel(0.7, 0.1, 0.2), hyperbolic_kernel(0.5),
        hyperbolic_kernel(1.0), hyperbolic_kernel(2.0)])
    def test_meets_fit_bound(self, kernel):
        fit = fit_exponential_sum(kernel, 1.0)
        assert fit is not None and fit.fit_error <= FIT_RTOL
        # checked independently on a denser sample than the fit uses
        x = np.linspace(0.0, 1.0, 20001)
        exact = kernel.dlam_dt(0.0, x)
        approx = np.exp(-np.outer(x, fit.rates)) @ fit.weights
        assert np.max(np.abs(approx - exact)) <= FIT_RTOL * max(
            np.max(np.abs(exact)), 1e-300)

    def test_gauss_laguerre_rule_is_exact_on_polynomials(self):
        # R nodes integrate u^j against u e^{-u} exactly up to j = 2R - 1;
        # the moments are (j + 1)!
        import math
        from tilq.problem import _gauss_laguerre_alpha1
        for R in (1, 4, 12):
            nodes, weights = _gauss_laguerre_alpha1(R)
            assert np.all(nodes > 0) and np.all(weights > 0)
            for j in range(2 * R):
                assert weights @ nodes ** j == pytest.approx(math.factorial(j + 1),
                                                             rel=1e-11)

    def test_hyperbolic_takes_the_smallest_fitting_rung(self):
        kernel = hyperbolic_kernel(1.0)
        fit = fit_exponential_sum(kernel, 1.0)
        below = TERM_LADDER[TERM_LADDER.index(fit.terms) - 1]
        weights, rates = kernel.expansion(below)
        x = np.linspace(0.0, 1.0, 4097)
        exact = kernel.dlam_dt(0.0, x)
        err = np.max(np.abs(np.exp(-np.outer(x, rates)) @ weights - exact))
        assert err > FIT_RTOL * np.max(np.abs(exact))


class TestDispatch:
    def test_hyperbolic_takes_the_local_path(self):
        sol = solve_equilibrium(hyperbolic_scalar_spec(), build_grid(1.0, 100))
        assert sol.method == "local" and sol.converged
        diag = sol.riccati.diagnostics
        assert diag.iterations == 1
        assert diag.deltas == [sol.riccati.expansion.fit_error]
        assert "local" in diag.note and "R=16" in diag.note

    @pytest.mark.parametrize("which", ["riccati", "phi"])
    def test_bad_initial_is_refused_on_the_local_path(self, which):
        bad = SolveOptions(initial=np.eye(3))
        opts = {"riccati_opts": bad} if which == "riccati" else {"phi_opts": bad}
        with pytest.raises(TilqError, match="initial"):
            solve_equilibrium(hyperbolic_scalar_spec(), build_grid(1.0, 20),
                              **opts)

    @pytest.mark.filterwarnings("ignore:P has negative eigenvalues")
    def test_steep_hyperbolic_falls_back(self):
        spec = hyperbolic_scalar_spec(50.0)
        assert local_expansion(spec) is None
        sol = solve_equilibrium(spec, build_grid(1.0, 60))
        assert sol.method == "fixed_point"
        assert sol.riccati.diagnostics.iterations > 1

    def test_tabulated_falls_back(self):
        base = hyperbolic_scalar_spec()
        times = np.linspace(0.0, 1.0, 101)
        table = 1.0 / (1.0 + np.clip(times[None, :] - times[:, None], 0.0, None))
        spec = make_discounted(
            base.dims, 1.0, base.dynamics,
            BaseCosts(Q=[[1.0]], S=[[0.1]], M=[[1.0]], q=[0.05], rho=[0.02],
                      G=[[1.0]], g=[0.1]),
            tabulated_kernel(times, table))
        assert local_expansion(spec) is None
        assert solve_equilibrium(spec, build_grid(1.0, 60)).method == "fixed_point"

    def test_value_and_feedback_build_no_pair_table(self):
        spec = hyperbolic_scalar_spec()
        grid = build_grid(1.0, 100)
        sol = solve_equilibrium(spec, grid)
        traj = simulate_control(spec, grid, lambda t, y: feedback(sol, t, y), 3,
                                [1.0], tables=sol.tables)
        assert np.isfinite(cost(spec, grid, traj, 3) - value(sol, grid.nodes[3],
                                                             [1.0]))
        assert sol.riccati.closed_loop.shape == (100, 1, 1)
        assert not sol.riccati.closed_loop.flags.writeable
        assert not ({"Qt", "St", "Mt", "qt", "rhot", "dlam", "W"}
                    & set(vars(sol.tables)))
