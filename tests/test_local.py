"""The local ODE sweep against the fixed-point path, its former scheme and
itself."""

import tracemalloc
import warnings

import numpy as np
import pytest

import local_reference
from tilq import (BaseCosts, ConvergenceError, Dimensions, SolveOptions,
                  TilqError, build_grid, classical_riccati, cost, exponential_kernel,
                  feedback, hyperbolic_kernel, load_shipped_problem,
                  make_discounted, quasi_hyperbolic_kernel,
                  shipped_problem_names, simulate_control, solve_auxiliary,
                  solve_equilibrium, solve_equilibrium_riccati, tabulated_kernel,
                  value)
from tilq.local import (FIT_RTOL, TERM_LADDER, _coefficients, _stack_propagator,
                        _sweep, fit_exponential_sum, local_expansion, solve_local)
from tilq.tables import SpecTables
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


def package_stack(spec, grid, expansion):
    """The package sweep's stack at the nodes, on the reference's inputs."""
    X_T, coefficients = local_reference.sweep_inputs(spec, grid)
    c, a, h = expansion.weights, expansion.rates, grid.h
    return _sweep(X_T, _stack_propagator(c, a, 0.5 * h),
                  _stack_propagator(c, a, h), coefficients, h)


def relative_gap(spec, N):
    grid = build_grid(spec.horizon, N)
    expansion = local_expansion(spec)
    new = package_stack(spec, grid, expansion)
    ref = local_reference.sweep(spec, grid, expansion)
    return float(np.max(np.abs(new - ref)) / (1.0 + np.max(np.abs(ref))))


class TestAgainstReference:
    # Both sweeps are Lawson RK4 schemes of the same equations; they differ
    # in which linear part the integrating factor holds, so they agree to
    # O(h^4), not to rounding: 0.2 h^4 relative at worst (quasi_hyperbolic:
    # 4.8e-9 at N = 80, 7.8e-12 at N = 400), held to 0.5 h^4 at N = 80.
    @pytest.mark.parametrize("N, tol", [(80, 0.5 / 80 ** 4), (400, 1e-11)])
    @pytest.mark.parametrize("name", SPECS)
    def test_agrees_with_the_scalar_factor_sweep(self, name, N, tol):
        gap = relative_gap(SPECS[name](), N)
        assert gap <= tol, gap

    @pytest.mark.parametrize("name", ["scalar_hyperbolic", "quasi_hyperbolic"])
    def test_gap_shrinks_at_fourth_order(self, name):
        assert relative_gap(SPECS[name](), 80) >= 300.0 * relative_gap(
            SPECS[name](), 400)

    def test_identical_where_every_rate_is_zero(self):
        # exponential_kernel(0.0) has c = 0 and a = 0: both factors are I
        spec = twostate_spec(exponential_kernel(0.0))
        for N in (80, 400):
            assert relative_gap(spec, N) <= 1e-14


def varying_m_spec():
    """threestate_spec's dynamics with a time-varying, full 2 x 2 M(s)."""
    def M(s):
        return np.array([[1.0 + 0.3 * s, 0.2 - 0.1 * s],
                         [0.2 - 0.1 * s, 0.7 + s * s]])

    return make_discounted(
        Dimensions(3, 2), 1.0, threestate_spec().dynamics,
        BaseCosts(Q=[[1.0, 0.2, 0.1], [0.2, 0.8, 0.0], [0.1, 0.0, 0.6]],
                  S=[[0.1, 0.05, 0.0], [0.0, 0.1, -0.05]], M=M,
                  q=[0.02, -0.01, 0.03], rho=[0.01, -0.02],
                  G=[[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]],
                  g=[0.05, 0.0, -0.02]),
        hyperbolic_kernel(1.0), name="varying_m")


class TestCoefficients:
    def test_factor_form_matches_explicit_inverse(self):
        # Y^T Y, X^T X and Y^T X through the tables' inverse Cholesky factor
        # against the explicit inverse of M, for m = 2 and M varying in time
        tables = SpecTables(varying_m_spec(), build_grid(1.0, 200))
        got = _coefficients(tables)
        want = local_reference.bordered_explicit_inverse(tables)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert float(np.max(np.abs(g - w))) <= 1e-14 * float(np.max(np.abs(w)))
        BMB = got[1]
        assert np.array_equal(BMB, np.swapaxes(BMB, -1, -2))


class TestStackPropagator:
    @staticmethod
    def taylor_expm(A):
        """Scaling and squaring of a 30-term Taylor series."""
        j = max(0, int(np.ceil(np.log2(max(np.max(np.abs(A)) * len(A), 1.0)))) + 1)
        B = A / 2.0 ** j
        E, term = np.eye(len(A)), np.eye(len(A))
        for k in range(1, 31):
            term = term @ B / k
            E = E + term
        for _ in range(j):
            E = E @ E
        return E

    @pytest.fixture
    def expansion(self):
        return local_expansion(hyperbolic_scalar_spec())

    def test_half_steps_compose_to_a_step(self, expansion):
        c, a = expansion.weights, expansion.rates
        for h in (1.0 / 2000, 1.0 / 80, 0.5):
            half = _stack_propagator(c, a, 0.5 * h)
            full = _stack_propagator(c, a, h)
            assert np.max(np.abs(half @ half - full)) <= 1e-15 * (
                1.0 + np.max(np.abs(full)))

    def test_matches_a_dense_matrix_exponential(self, expansion):
        c, a = expansion.weights, expansion.rates
        K = len(c) + 1
        Lam = np.zeros((K, K))
        Lam[0, 1:] = c
        Lam[1:, 1:] = np.diag(a)
        for s in (1.0 / 4000, 1.0 / 160, 1.0 / 40):  # a s up to 1.3
            dense = self.taylor_expm(-s * Lam)
            E = _stack_propagator(c, a, s)
            assert np.max(np.abs(E - dense)) <= 1e-14 * (1.0 + np.max(np.abs(E)))

    def test_zero_rate_integrates_exactly(self):
        s = 0.37
        E = _stack_propagator(np.array([2.0, -3.0]), np.array([0.0, 1.5]), s)
        assert E[0, 1] == -2.0 * s  # phi = s exactly where a = 0
        assert E[1, 1] == 1.0 and E[0, 0] == 1.0
        assert E[0, 2] == pytest.approx(3.0 * (1.0 - np.exp(-1.5 * s)) / 1.5,
                                        rel=1e-15)

    def test_stiff_rate_stays_finite(self):
        E = _stack_propagator(np.array([4.0]), np.array([800.0]), 1.0)
        assert np.all(np.isfinite(E))
        assert E[1, 1] == 0.0
        assert E[0, 1] == -4.0 / 800.0


def shipped_spec(name):
    return load_shipped_problem(name).spec


class TestBitForBit:
    """The package's buffered sweep against the same tableau stepped with
    fresh products (``local_reference.lawson_sweep``): equal bit for bit."""

    @staticmethod
    def both(spec, N):
        grid = build_grid(spec.horizon, N)
        expansion = local_expansion(spec)
        X_T, coefficients = local_reference.sweep_inputs(spec, grid)
        c, a, h = expansion.weights, expansion.rates, grid.h
        args = (X_T, _stack_propagator(c, a, 0.5 * h), _stack_propagator(c, a, h),
                coefficients, h)
        return _sweep(*args), local_reference.lawson_sweep(*args)

    @pytest.mark.parametrize("N", [80, 400, 2000])
    @pytest.mark.parametrize("name", shipped_problem_names())
    def test_shipped_problems(self, name, N):
        got, want = self.both(shipped_spec(name), N)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("N", [80, 400, 2000])
    @pytest.mark.parametrize("make", [
        lambda: twostate_spec(exponential_kernel(0.5)),  # R = 1
        lambda: twostate_spec(quasi_hyperbolic_kernel(0.7, 0.1, 0.2)),  # R = 2
        lambda: twostate_spec(exponential_kernel(0.0))],  # every rate zero
        ids=["exponential", "quasi_hyperbolic", "zero_rate"])
    def test_exact_sums(self, make, N):
        got, want = self.both(make(), N)
        assert np.array_equal(got, want)

    def test_escape_stops_at_the_same_node(self):
        with np.errstate(all="ignore"):
            got, want = self.both(escaping_spec(), 800)
        assert np.array_equal(got, want, equal_nan=True)
        first = [int(np.flatnonzero(~np.isfinite(X).all(axis=(1, 2, 3)))[-1])
                 for X in (got, want)]
        assert first[0] == first[1] > 0


class TestSweepMemory:
    """The sweep allocates its node table and O(R n^2) work buffers; a
    per-node list of coefficient rows or stack copies would show here."""

    @pytest.mark.parametrize("name, N", [("hyperbolic_scalar_k1", 2000),
                                         ("twostate_hyperbolic", 4000)])
    def test_peak_is_its_output(self, name, N):
        spec = shipped_spec(name)
        grid = build_grid(spec.horizon, N)
        expansion = local_expansion(spec)
        X_T, coefficients = local_reference.sweep_inputs(spec, grid)
        c, a, h = expansion.weights, expansion.rates, grid.h
        E_half, E_full = _stack_propagator(c, a, 0.5 * h), _stack_propagator(c, a, h)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nodes = _sweep(X_T, E_half, E_full, coefficients, h)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= nodes.nbytes + 64 * 1024, (peak - nodes.nbytes)


def escaping_spec():
    """hyperbolic_scalar_spec with Q = -50: P escapes in finite time."""
    base = hyperbolic_scalar_spec()
    return make_discounted(
        base.dims, 1.0, base.dynamics,
        BaseCosts(Q=[[-50.0]], S=[[0.1]], M=[[1.0]], q=[0.05], rho=[0.02],
                  G=[[1.0]], g=[0.1]),
        hyperbolic_kernel(1.0))


class TestEscape:
    def test_nonfinite_stack_raises_naming_the_first_node_back_from_T(self):
        grid = build_grid(1.0, 800)
        spec = escaping_spec()
        with np.errstate(all="ignore"):
            stack = package_stack(spec, grid, local_expansion(spec))
        finite = np.isfinite(stack).all(axis=(1, 2, 3))
        i = int(np.flatnonzero(~finite)[-1])
        assert 0 < i < grid.N and finite[i + 1:].all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning leaks
            with pytest.raises(ConvergenceError, match=(
                    rf"not finite from t = {grid.nodes[i]:.6g} "
                    rf"\(node {i} of 800\)")) as info:
                solve_equilibrium(spec, grid)
        diag = info.value.diagnostics
        assert diag.iterations == 1 and not diag.converged
        assert "local ODE sweep" in diag.note


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
