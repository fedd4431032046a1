import numpy as np
import pytest

import tilq.problem
from tilq import (BaseCosts, Dimensions, DynamicsField, TilqError,
                  TwoTimeField, exponential_kernel, hyperbolic_kernel,
                  make_discounted, quasi_hyperbolic_kernel, tabulated_kernel,
                  time_consistent_projection, validate)
from tilq.problem import _dt_table, _interp, _interp_outer
from conftest import classical_scalar_spec, hyperbolic_scalar_spec


def scalar_spec(Q=1.0, M=1.0, G=1.0, kernel=None):
    return make_discounted(
        Dimensions(1, 1), 1.0,
        DynamicsField.constant([[0.0]], [[1.0]], [0.0]),
        BaseCosts(Q=[[Q]], S=[[0.0]], M=[[M]], q=[0.0], rho=[0.0],
                  G=[[G]], g=[0.0]),
        kernel or exponential_kernel(0.0))


class TestDiscountKernels:
    def test_exponential_values(self):
        k = exponential_kernel(0.5)
        assert k.lam(0.0, 2.0) == pytest.approx(np.exp(-1.0))
        assert k.dlam_dt(0.0, 2.0) == pytest.approx(0.5 * np.exp(-1.0))

    def test_hyperbolic_values(self):
        k = hyperbolic_kernel(1.0)
        assert k.lam(0.25, 0.75) == pytest.approx(1.0 / 1.5)
        assert k.dlam_dt(0.25, 0.75) == pytest.approx(1.0 / 1.5 ** 2)

    def test_unit_on_diagonal(self):
        kernels = [exponential_kernel(0.7), hyperbolic_kernel(2.0),
                   quasi_hyperbolic_kernel(0.7, 0.3, 0.05)]
        for k in kernels:
            for t in np.linspace(0.0, 3.0, 7):
                assert k.lam(t, t) == pytest.approx(1.0, abs=1e-12)

    def test_quasi_hyperbolic_tail(self):
        k = quasi_hyperbolic_kernel(0.7, 0.0, 0.01)
        # far beyond the smoothing width the weight settles at beta
        assert k.lam(0.0, 1.0) == pytest.approx(0.7, rel=1e-8)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for k in [exponential_kernel(0.4), hyperbolic_kernel(1.3),
                  quasi_hyperbolic_kernel(0.8, 0.2, 0.1)]:
            fd = (k.lam(0.3 + h, 0.9) - k.lam(0.3 - h, 0.9)) / (2 * h)
            assert k.dlam_dt(0.3, 0.9) == pytest.approx(fd, rel=1e-7)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TilqError):
            exponential_kernel(-0.1)
        with pytest.raises(TilqError):
            hyperbolic_kernel(-1.0)
        with pytest.raises(TilqError):
            quasi_hyperbolic_kernel(0.0, 0.1, 0.1)
        with pytest.raises(TilqError):
            quasi_hyperbolic_kernel(0.5, 0.1, -1.0)

    def test_tabulated_kernel_interpolates(self):
        times = np.linspace(0.0, 1.0, 101)
        table = 1.0 / (1.0 + (times[None, :] - times[:, None]).clip(min=0.0))
        k = tabulated_kernel(times, table)
        ref = hyperbolic_kernel(1.0)
        assert float(k.lam(0.3, 0.7)) == pytest.approx(float(ref.lam(0.3, 0.7)),
                                                       abs=1e-4)
        assert float(k.dlam_dt(0.3, 0.7)) == pytest.approx(
            float(ref.dlam_dt(0.3, 0.7)), abs=1e-3)

    def test_tabulated_kernel_solves_like_analytic(self):
        from tilq import build_grid, solve_equilibrium
        times = np.linspace(0.0, 1.0, 201)
        table = 1.0 / (1.0 + np.clip(times[None, :] - times[:, None], 0.0,
                                     None))
        spec_tab = hyperbolic_scalar_spec()
        spec_tab = make_discounted(
            spec_tab.dims, spec_tab.horizon, spec_tab.dynamics,
            BaseCosts(Q=[[1.0]], S=[[0.1]], M=[[1.0]], q=[0.05], rho=[0.02],
                      G=[[1.0]], g=[0.1]),
            tabulated_kernel(times, table))
        assert validate(spec_tab, 40, derivative_rtol=5e-3).ok
        grid = build_grid(1.0, 200)
        sol_tab = solve_equilibrium(spec_tab, grid)
        sol_ref = solve_equilibrium(hyperbolic_scalar_spec(1.0), grid)
        gap = abs(sol_tab.riccati.P[0, 0, 0] - sol_ref.riccati.P[0, 0, 0])
        assert gap < 1e-4  # limited by the 201-point kernel table


class TestMakeDiscounted:
    def test_rate_zero_derivatives_vanish(self):
        spec = scalar_spec(kernel=exponential_kernel(0.0))
        rng = np.random.default_rng(1)
        for _ in range(1000):
            s = rng.uniform(0.0, 1.0)
            t = rng.uniform(0.0, s)
            assert spec.Q.dt(t, s).item() == 0.0
            assert spec.M.dt(t, s).item() == 0.0

    def test_hyperbolic_weighting(self):
        spec = scalar_spec(Q=2.0, kernel=hyperbolic_kernel(1.0))
        assert spec.Q(0.0, 1.0).item() == pytest.approx(1.0)   # 2 / (1 + 1)
        assert spec.Q.dt(0.0, 1.0).item() == pytest.approx(0.5)

    def test_terminal_weights_discounted(self):
        spec = scalar_spec(G=2.0, kernel=exponential_kernel(0.5))
        assert np.asarray(spec.terminal.G(0.0)).item() == pytest.approx(2.0 * np.exp(-0.5))
        assert np.asarray(spec.terminal.dG_dt(0.0)).item() == pytest.approx(
            np.exp(-0.5))  # 0.5 * 2 * exp(-0.5)
        assert np.asarray(spec.terminal.G(1.0)).item() == pytest.approx(2.0)

    def test_asymmetric_base_rejected(self):
        base = BaseCosts(Q=[[1.0, 0.5], [0.0, 1.0]], S=[[0.0, 0.0]],
                         M=[[1.0]], q=[0.0, 0.0], rho=[0.0],
                         G=np.eye(2), g=[0.0, 0.0])
        with pytest.raises(TilqError):
            make_discounted(Dimensions(2, 1), 1.0,
                            DynamicsField.constant(np.zeros((2, 2)),
                                                   [[0.0], [1.0]], [0.0, 0.0]),
                            base, hyperbolic_kernel(1.0))

    def test_mild_asymmetry_symmetrized(self):
        eps = 1e-12
        base = BaseCosts(Q=[[1.0, 0.5 + eps], [0.5, 1.0]], S=[[0.0, 0.0]],
                         M=[[1.0]], q=[0.0, 0.0], rho=[0.0],
                         G=np.eye(2), g=[0.0, 0.0])
        spec = make_discounted(Dimensions(2, 1), 1.0,
                               DynamicsField.constant(np.zeros((2, 2)),
                                                      [[0.0], [1.0]],
                                                      [0.0, 0.0]),
                               base, hyperbolic_kernel(1.0))
        Q = spec.Q(0.1, 0.6)
        np.testing.assert_array_equal(Q, Q.T)


class TestKernelTriangle:
    def test_broadcast_path_matches_scalar_queries(self):
        # tabulated kernel with callable and constant bases: the array
        # lookup of the derivative must reproduce the scalar per-pair values
        # bit for bit, off the table's nodes too (30 grid cells against 40
        # table cells)
        from tilq import build_grid
        from tilq.tables import kernel_triangle
        times = np.linspace(0.0, 1.0, 41)
        table = 1.0 / (1.0 + np.clip(times[None, :] - times[:, None], 0.0,
                                     None))
        spec = make_discounted(
            Dimensions(2, 1), 1.0,
            DynamicsField.constant(np.zeros((2, 2)), [[0.0], [1.0]], [0.0, 0.0]),
            BaseCosts(Q=lambda s: np.array([[1.0 + s, 0.1], [0.1, 0.5]]),
                      S=[[0.1, 0.0]], M=lambda s: np.array([[1.0 + 0.5 * s]]),
                      q=[0.02, 0.0], rho=[0.01], G=np.eye(2), g=[0.0, 0.0]),
            tabulated_kernel(times, table))
        grid = build_grid(1.0, 30)
        nodes = [float(t) for t in grid.nodes]
        for field in (spec.Q, spec.S, spec.M, spec.q):
            tri = kernel_triangle(field, grid)
            for i in range(31):
                np.testing.assert_array_equal(tri[..., i, :i], 0.0)
                for j in range(i, 31):
                    np.testing.assert_array_equal(tri[..., i, j],
                                                  field.dt(nodes[i], nodes[j]))


class TestOuterGridLookup:
    """kernel_triangle's blocks reach a tabulated kernel as the outer grid of
    a column t and a row s, which it evaluates per axis: the floats must be
    the scalar lookup's, pair by pair."""

    @staticmethod
    def kernel():
        rng = np.random.default_rng(21)
        times = np.linspace(0.0, 1.0, 201)
        table = rng.uniform(0.5, 1.5, (201, 201))
        np.fill_diagonal(table, 1.0)
        return times, table, tabulated_kernel(times, table)

    # a grid finer than the table's 200 cells, a coarser one, an aligned one
    @pytest.mark.parametrize("N", [300, 100, 200])
    def test_matches_scalar_lookup_pair_by_pair(self, N, monkeypatch):
        per_axis = []

        def counted(*args):
            per_axis.append(args)
            return _interp_outer(*args)

        monkeypatch.setattr(tilq.problem, "_interp_outer", counted)
        times, table, k = self.kernel()
        h = float(times[1] - times[0])
        s = np.linspace(0.0, 1.0, N + 1)
        t = np.random.default_rng(N).permutation(s)  # rows in any order
        for tab, fn in ((table, k.lam), (_dt_table(table, h), k.dlam_dt)):
            want = [[_interp(times, h, tab, min(a, c), c) for c in s.tolist()]
                    for a in t.tolist()]
            np.testing.assert_array_equal(fn(t[:, None], s[None, :]), want)
        assert len(per_axis) == 2
        # the grid holds pairs below the diagonal, and (but for the coarse
        # grid, whose nodes all sit on cell edges) pairs t < s in one cell
        cell = np.minimum((s / h).astype(int), len(times) - 2)
        same_cell = (cell[:, None] == cell[None, :]) & (s[:, None] < s[None, :])
        assert N == 100 or same_cell.any()

    def test_outside_domain_raises_as_pair_lookup(self):
        _, _, k = self.kernel()
        x = np.linspace(0.0, 1.0, 31)
        for t, s in ((x - 0.1, x), (x, x + 0.1), (x, x - 0.2)):
            with pytest.raises(TilqError) as outer:
                k.dlam_dt(t[:, None], s[None, :])
            pairs = [a.ravel() for a in np.broadcast_arrays(t[:, None], s[None, :])]
            with pytest.raises(TilqError) as flat:
                k.dlam_dt(*pairs)
            assert str(outer.value) == str(flat.value)
            assert "outside its domain" in str(outer.value)


class TestFieldContract:
    """Two-time fields take broadcastable time arrays (TwoTimeField)."""

    @staticmethod
    def per_column_field():
        # returns (1, 1) + s.shape instead of s.shape + (1, 1)
        return TwoTimeField(value=lambda t, s: np.array([[s]]),
                            dvalue_dt=lambda t, s: np.array([[s]]),
                            shape=(1, 1))

    def test_wrong_shape_for_arrays_raises(self):
        from tilq import build_grid
        from tilq.tables import kernel_triangle
        field = self.per_column_field()
        assert field(0.2, 0.5).item() == 0.5  # one pair still reshapes
        with pytest.raises(TilqError, match=r"shape \(1, 1\)"):
            field.row(0.0, np.linspace(0.0, 1.0, 5))
        with pytest.raises(TilqError, match=r"shape \(1, 1\)"):
            kernel_triangle(field, build_grid(1.0, 8))

    def test_derivative_probe_evaluates_each_field_once(self):
        from tilq import build_grid
        from tilq.tables import SpecTables
        spec = scalar_spec(kernel=hyperbolic_kernel(1.0))
        calls = []

        def counted(f):
            def dvalue(t, s):
                calls.append(np.broadcast_shapes(np.shape(t), np.shape(s)))
                return f.dvalue_dt(t, s)
            return TwoTimeField(f.value, dvalue, f.shape)

        spec = spec.__class__(
            dims=spec.dims, horizon=spec.horizon, dynamics=spec.dynamics,
            Q=counted(spec.Q), S=counted(spec.S), M=counted(spec.M),
            q=counted(spec.q), rho=counted(spec.rho), terminal=spec.terminal)
        sup = SpecTables(spec, build_grid(1.0, 200)).max_derivative_scale()
        assert len(calls) == 5
        # the largest t-derivative is Q_t = M_t = lam_t = 1 at t = s
        assert sup == 1.0


class TestSeparableCallableBase:
    """A callable base is called once per distinct time of s."""

    @staticmethod
    def field(calls, kernel=None):
        def base(s):
            calls.append(s)
            return [[1.0 + s, 0.5 * s], [0.5 * s, 2.0 - s * s]]
        return TwoTimeField.separable(kernel or hyperbolic_kernel(1.0), base, (2, 2))

    @staticmethod
    def per_element(kernel, t, s):
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(s, dtype=float))
        out = np.empty(t.shape + (2, 2))
        for k in np.ndindex(t.shape):
            x = float(s[k])
            base = np.array([[1.0 + x, 0.5 * x], [0.5 * x, 2.0 - x * x]])
            out[k] = float(kernel.lam(t[k], s[k])) * base
        return out

    @pytest.mark.parametrize("kernel", [hyperbolic_kernel(1.0), tabulated_kernel(
        np.linspace(0.0, 1.0, 41), 1.0 / (1.0 + np.clip(
            np.linspace(0.0, 1.0, 41)[None, :] - np.linspace(0.0, 1.0, 41)[:, None],
            0.0, None)))])
    def test_flat_pairs_with_repeats(self, kernel):
        # the flat (t, s) pairs of several paths repeat every node
        nodes = np.linspace(0.0, 1.0, 21)
        t = np.repeat(nodes[[0, 5, 12]], [21, 16, 9])
        s = np.concatenate([nodes, nodes[5:], nodes[12:]])
        calls = []
        values = self.field(calls, kernel).value(t, s)
        assert sorted(calls) == calls and len(calls) == 21
        assert np.array_equal(values, self.per_element(kernel, t, s))

    def test_increasing_times_called_in_order(self):
        nodes = np.linspace(0.0, 1.0, 31)
        calls = []
        values = self.field(calls).value(0.0, nodes)
        assert calls == nodes.tolist()
        want = self.per_element(hyperbolic_kernel(1.0), 0.0, nodes)
        assert np.array_equal(values, want)

    @pytest.mark.parametrize("s", [0.4, np.array([0.7]), np.array([[0.2, 0.9]])])
    def test_small_s(self, s):
        calls = []
        values = self.field(calls).value(0.1, s)
        assert len(calls) == np.size(s)
        want = self.per_element(hyperbolic_kernel(1.0), 0.1, s)
        assert np.array_equal(values, want)


class TestValidate:
    def test_clean_scalar_passes(self):
        assert validate(scalar_spec(), 100).ok

    def test_all_builtin_families_pass(self):
        for kernel in [exponential_kernel(0.0), exponential_kernel(0.8),
                       hyperbolic_kernel(0.5), hyperbolic_kernel(2.0),
                       quasi_hyperbolic_kernel(0.7, 0.3, 0.1)]:
            spec = hyperbolic_scalar_spec()
            spec = make_discounted(spec.dims, spec.horizon, spec.dynamics,
                                   BaseCosts(Q=[[1.0]], S=[[0.1]], M=[[1.0]],
                                             q=[0.05], rho=[0.02], G=[[1.0]],
                                             g=[0.1]), kernel)
            report = validate(spec, 100)
            assert report.ok, str(report)

    def test_negative_M_reported(self):
        report = validate(scalar_spec(M=-1.0), 40)
        assert not report.ok
        assert any("M not positive definite" in str(v) for v in report.violations)

    def test_negative_Q_reported(self):
        report = validate(scalar_spec(Q=-1.0), 40)
        assert any("Q not positive semi-definite" in str(v)
                   for v in report.violations)

    def test_wrong_derivative_reported(self):
        # value is exp(-(s - t)) but the supplied t-derivative is zero
        bad = TwoTimeField(
            value=lambda t, s: np.exp(np.subtract(t, s))[..., None, None],
            dvalue_dt=lambda t, s: np.zeros((1, 1)), shape=(1, 1))
        spec = scalar_spec()
        spec = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                              dynamics=spec.dynamics, Q=bad, S=spec.S,
                              M=spec.M, q=spec.q, rho=spec.rho,
                              terminal=spec.terminal)
        report = validate(spec, 60)
        assert any("Q derivative inconsistent" in str(v)
                   for v in report.violations)

    def test_raising_field_reported_not_raised(self):
        # M(t, s) = 1 fails to evaluate for s > 0.5, and so does M_t = 0
        def undefined_late(level):
            def fn(t, s):
                if np.any(np.asarray(s) > 0.5):
                    raise ValueError("M undefined for s > 0.5")
                return np.full((1, 1), level)
            return fn

        spec = scalar_spec()
        bad = TwoTimeField(value=undefined_late(1.0),
                           dvalue_dt=undefined_late(0.0), shape=(1, 1))
        spec = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                              dynamics=spec.dynamics, Q=spec.Q, S=spec.S,
                              M=bad, q=spec.q, rho=spec.rho,
                              terminal=spec.terminal)
        report = validate(spec, 20)
        assert report.violations
        assert all(v.assumption == "M evaluation failed" and v.location[1] > 0.5
                   for v in report.violations)

    def test_raising_derivative_reported_not_raised(self):
        spec = scalar_spec()

        def no_derivative(t, s):
            raise ArithmeticError("no t-derivative")

        bad = TwoTimeField(value=spec.Q.value, dvalue_dt=no_derivative,
                           shape=(1, 1))
        spec = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                              dynamics=spec.dynamics, Q=bad, S=spec.S,
                              M=spec.M, q=spec.q, rho=spec.rho,
                              terminal=spec.terminal)
        report = validate(spec, 20)
        assert report.violations
        assert all(v.assumption == "Q derivative probe failed"
                   and "no t-derivative" in v.detail for v in report.violations)

    def test_nonfinite_reported(self):
        bad = TwoTimeField(value=lambda t, s: np.array([[np.inf]]),
                           dvalue_dt=lambda t, s: np.zeros((1, 1)),
                           shape=(1, 1))
        spec = scalar_spec()
        spec = spec.__class__(dims=spec.dims, horizon=spec.horizon,
                              dynamics=spec.dynamics, Q=spec.Q, S=spec.S,
                              M=bad, q=spec.q, rho=spec.rho,
                              terminal=spec.terminal)
        assert not validate(spec, 20).ok


class TestFiniteDiffT:
    @staticmethod
    def tabulate(fn, K):
        # lam(t, s) on t <= s; the unused t > s part holds the diagonal's 1
        times = np.linspace(0.0, 1.0, K)
        table = np.ones((K, K))
        for i in range(K):
            for j in range(i, K):
                table[i, j] = fn(times[i], times[j])
        return times, table

    def test_constant_gives_zero(self):
        kernel = tabulated_kernel(*self.tabulate(lambda t, s: 1.0, 21))
        assert kernel.dlam_dt(0.3, 0.8) == 0.0

    def test_exponential_node_accuracy(self):
        kernel = tabulated_kernel(*self.tabulate(lambda t, s: np.exp(-(s - t)),
                                                 1001))
        assert abs(kernel.dlam_dt(0.5, 1.0) - np.exp(-0.5)) < 1e-6

    def test_short_grid_rejected(self):
        with pytest.raises(TilqError):
            tabulated_kernel(np.array([0.0, 1.0]), np.ones((2, 2)))

    def test_nonuniform_grid_rejected(self):
        times = np.array([0.0, 0.1, 0.3, 1.0])
        with pytest.raises(TilqError, match="uniform"):
            tabulated_kernel(times, np.ones((4, 4)))

    def test_matches_per_node_stencils(self):
        # the whole-array stencils against a per-node loop, bit for bit
        def looped(table, h):
            K = len(table)
            out = np.zeros_like(table)
            for j in range(1, K):
                if j == 1:
                    out[0, 1] = out[1, 1] = (table[1, 1] - table[0, 1]) / h
                    continue
                col = table[:, j]
                for i in range(j + 1):
                    if i == 0:
                        d = (-3 * col[0] + 4 * col[1] - col[2]) / (2 * h)
                    elif i == j:
                        d = (3 * col[j] - 4 * col[j - 1] + col[j - 2]) / (2 * h)
                    else:
                        d = (col[i + 1] - col[i - 1]) / (2 * h)
                    out[i, j] = d
            return out

        rng = np.random.default_rng(11)
        for K in (3, 4, 21, 201):
            table = rng.uniform(0.1, 2.0, size=(K, K))
            h = 1.0 / (K - 1)
            np.testing.assert_array_equal(_dt_table(table, h), looped(table, h))

    def test_second_order_convergence(self):
        # compare node errors against the analytic derivative on the region
        # where a three-point stencil exists (s at least two cells from 0);
        # two-sample columns are first-order by lack of information
        def err(K):
            times, table = self.tabulate(lambda t, s: np.exp(-2.0 * (s - t)), K)
            dtable = _dt_table(table, times[1] - times[0])
            worst = 0.0
            for j in range(2, K):
                for i in range(j + 1):
                    exact = 2.0 * np.exp(-2.0 * (times[j] - times[i]))
                    worst = max(worst, abs(dtable[i, j] - exact))
            return worst

        e_coarse, e_fine = err(51), err(101)
        assert e_coarse / e_fine >= 3.5


class TestTimeConsistentProjection:
    def test_kernels_become_diagonal(self):
        spec = hyperbolic_scalar_spec()
        proj = time_consistent_projection(spec)
        assert proj.Q(0.2, 0.9).item() == pytest.approx(spec.Q(0.9, 0.9).item())
        assert proj.Q.dt(0.2, 0.9).item() == 0.0
        assert np.asarray(proj.terminal.G(0.1)).item() == pytest.approx(
            np.asarray(spec.terminal.G(1.0)).item())

    def test_projection_validates(self):
        assert validate(time_consistent_projection(hyperbolic_scalar_spec()),
                        60).ok

    def test_classical_spec_is_its_own_projection(self):
        spec = classical_scalar_spec()
        proj = time_consistent_projection(spec)
        for (t, s) in [(0.0, 0.5), (0.3, 0.9)]:
            assert proj.M(t, s).item() == pytest.approx(spec.M(t, s).item())
