import dataclasses
import json
import re

import numpy as np
import pytest

import tilq.grid
from tilq import (DynamicsField, TilqError, build_grid, quadrature,
                  solve_equilibrium)
from tilq.auxiliary import _bordered_anchors, _trapezoid_increments
from tilq.grid import (TransitionTable, closed_loop_drive, closed_loop_matrices,
                       open_loop_transition, stage_table)
from tilq.problem import _Constant
from tilq.problem_io import (load_shipped_problem, parse_problem,
                             shipped_problem_path)
from tilq.riccati import _closed_loop_table, solve_equilibrium_riccati
from tilq.tables import SpecTables
from conftest import dynamics_tables, twostate_spec
from pair_tables import column, from_pair_layout, full_table


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

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(TilqError, match="horizon must be positive and finite"):
            build_grid(T, 10)


    @pytest.mark.parametrize("N", [10.0, "10", None, True])
    def test_non_integer_intervals_rejected(self, N):
        # all but True raised a bare TypeError
        with pytest.raises(TilqError, match=f"^N must be an integer >= 1, "
                                            f"got {re.escape(repr(N))}$"):
            build_grid(1.0, N)

    @pytest.mark.parametrize("T", ["1", None, True])
    def test_non_real_horizon_rejected(self, T):
        with pytest.raises(TilqError, match=f"^horizon must be a real number, "
                                            f"got {re.escape(repr(T))}$"):
            build_grid(T, 10)


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

    def test_column_matches_full_table(self):
        # the fine-grid oracles read one column, in O(N n^2) memory
        grid = build_grid(1.0, 40)
        steps = _varying_gain_closed_loop(grid).steps
        full = full_table(steps, grid)
        for i in (0, 17, 39, 40):
            np.testing.assert_allclose(column(steps, i), full[i:, i],
                                       rtol=0, atol=1e-13)


def masked_anchored(steps):
    """The anchored products with every Hillis-Steele pass masked per node.

    The reference for tilq.grid._anchored: the same segments and the same
    scan, with each pass's update written through the mask offset[j] >= d
    whether or not a node is masked.
    """
    N, n = steps.shape[0], steps.shape[-1]
    starts = tilq.grid._anchored(steps).starts
    lengths = np.diff(starts)
    offset = np.arange(N + 1) - np.append(np.repeat(starts[:-1], lengths), N)
    psi = np.empty((N + 1, n, n))
    psi[1:] = steps
    psi[offset == 0] = np.eye(n)
    d = 1
    while d < lengths.max():
        np.copyto(psi[d:N], psi[d:N] @ psi[:N - d],
                  where=(offset[d:N] >= d)[:, None, None])
        d *= 2
    last = starts[1:] - 1
    return starts, psi, np.linalg.inv(psi), steps[last] @ psi[last]


class TestAnchored:
    @staticmethod
    def assert_same_bits(steps):
        got = tilq.grid._anchored(steps)
        for name, want in zip(("starts", "psi", "inv", "links"),
                              masked_anchored(steps)):
            np.testing.assert_array_equal(getattr(got, name), want, err_msg=name)
        return got

    def test_one_segment_matches_masked_scan(self):
        # open-loop steps of a time-varying n = 2 problem, random small
        # steps of n = 3, and the shortest grids
        grid = build_grid(1.0, 300)
        tables = dynamics_tables(
            DynamicsField(A=lambda t: np.array([[0.0, 1.0], [-0.5 - 0.2 * t, -0.3]]),
                          B=lambda t: np.array([[0.0], [1.0]]),
                          b=lambda t: np.zeros(2)), grid)
        rng = np.random.default_rng(5)
        cases = [tables.open_loop_steps,
                 np.eye(3) + 1e-3 * rng.standard_normal((257, 3, 3))]
        cases += [np.eye(2) + 1e-3 * rng.standard_normal((N, 2, 2))
                  for N in (1, 2, 3)]
        for steps in cases:
            got = self.assert_same_bits(steps)
            np.testing.assert_array_equal(got.starts, [0, len(steps)])

    @pytest.mark.parametrize("cond", [None, 1.3])
    def test_segments_match_masked_scan_and_composed_steps(self, cond,
                                                           monkeypatch):
        # this closed loop cuts two segments at the default bound, and a low
        # bound cuts many of uneven length; within each, psi is the product
        # of the segment's steps and links close it
        if cond is not None:
            monkeypatch.setattr(tilq.grid, "ANCHOR_COND", cond)
        grid = build_grid(1.0, 200)
        steps = _varying_gain_closed_loop(grid).steps
        got = self.assert_same_bits(steps)
        starts = got.starts
        assert len(starts) >= (3 if cond is None else 10)
        assert len(set(np.diff(starts))) > 1
        for k, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
            composed = np.eye(steps.shape[-1])
            for j in range(a, b):
                np.testing.assert_allclose(got.psi[j], composed, rtol=0, atol=1e-13)
                composed = steps[j] @ composed
            np.testing.assert_allclose(got.links[k], composed, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(got.psi[grid.N], np.eye(steps.shape[-1]))


def rk4_steps(F, w, h, starts=None):
    """RK4 of y' = F y + w over each interval from starts[i] (default 0),
    one node at a time."""
    if starts is None:
        starts = np.zeros(((len(F) - 1) // 2, F.shape[-1]))
    out = []
    for i, y in enumerate(starts):
        (F0, Fm, F1), (w0, wm, w1) = F[2 * i:2 * i + 3], w[2 * i:2 * i + 3]
        k1 = F0 @ y + w0
        k2 = Fm @ (y + 0.5 * h * k1) + wm
        k3 = Fm @ (y + 0.5 * h * k2) + wm
        k4 = F1 @ (y + h * k3) + w1
        out.append(y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(out)


class TestDriveIncrements:
    @staticmethod
    def twostate_closed_loop():
        sol = solve_equilibrium(twostate_spec(), build_grid(1.0, 120))
        tables, B = sol.tables, sol.tables.stages("B")
        F = closed_loop_matrices(tables.stages("A"), B, sol.riccati.gain)
        w = closed_loop_drive(tables.stages("b"), B, stage_table(sol.auxiliary.upsilon))
        return F, w, sol.grid.h

    @staticmethod
    def random_system():
        rng = np.random.default_rng(11)
        return (rng.standard_normal((2 * 90 + 1, 3, 3)),
                rng.standard_normal((2 * 90 + 1, 3)), 0.02)

    @pytest.mark.parametrize("system", ["twostate_closed_loop", "random_system"])
    @pytest.mark.parametrize("reversed_", [False, True], ids=["forward", "reversed"])
    def test_matches_node_by_node_rk4(self, system, reversed_):
        F, w, h = getattr(self, system)()
        if reversed_:
            F, w = F[::-1], w[::-1]
        got = tilq.grid._rk4_drive_increments(F, w, h)
        want = rk4_steps(F, w, h)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_step_is_linear_factor_plus_increment(self):
        # RK4 from y_i is Phi_i y_i plus the zero-state increment
        F, w, h = self.random_system()
        y = np.random.default_rng(12).standard_normal((len(F) // 2, 3))
        steps = tilq.grid._rk4_linear_steps(F, h)
        got = (steps @ y[..., None])[..., 0] + tilq.grid._rk4_drive_increments(F, w, h)
        np.testing.assert_allclose(got, rk4_steps(F, w, h, y), rtol=0, atol=1e-14)


class TestAnchorsReadOnly:
    """Every anchors object is read-only once built, whoever built it."""

    @staticmethod
    def anchors():
        grid = build_grid(1.0, 60)
        local = solve_equilibrium(twostate_spec(), grid)
        fixed = solve_equilibrium_riccati(twostate_spec(), grid)
        increments = _trapezoid_increments(local.riccati.closed_loop,
                                           local.auxiliary.drive, grid.h)
        return {"open_loop_anchors": local.tables.open_loop_anchors,
                "closed_loop_anchors (local)": local.riccati.closed_loop_anchors,
                "closed_loop_anchors (fixed point)": fixed.closed_loop_anchors,
                "path_anchors": local.path_anchors,
                "_bordered_anchors": _bordered_anchors(
                    local.riccati.closed_loop_anchors, increments)}

    @pytest.mark.parametrize("field", ["starts", "psi", "inv", "links"])
    def test_writes_raise(self, field):
        for what, anchors in self.anchors().items():
            products = getattr(anchors, field)
            with pytest.raises(ValueError, match="read-only"):
                products[0] = products[0]
            assert not products.flags.writeable, what


class TestDynamicsTables:
    FIELDS = (("A", "nodes"), ("A", "half_nodes"), ("B", "nodes"),
              ("B", "half_nodes"), ("b", "nodes"), ("b", "half_nodes"))

    @staticmethod
    def table(tables, name, where):
        """The table of ``name`` at the nodes, or the half-node rows of its stages."""
        return getattr(tables, name) if where == "nodes" else tables.stages(name)[1::2]

    @staticmethod
    def per_node(fn, times, shape):
        out = np.empty((len(times),) + shape)
        for i, t in enumerate(times):
            out[i] = np.asarray(fn(float(t)), dtype=float).reshape(shape)
        return out

    def test_tables_match_per_node_loop(self):
        # constant fields, problem-file fields (constant entries, polynomial
        # entries) and callables, some of them returning flat values
        doc = json.loads(shipped_problem_path("twostate_hyperbolic").read_text())
        doc["dynamics"]["A"] = [[{"poly": [0.0, 1.0]}, 1.0], [-0.5, -0.3]]
        fields = [
            DynamicsField.constant([[0.0, 1.0], [-0.5, -0.3]], [[0.0], [1.0]],
                                   [0.05, 0.0]),
            load_shipped_problem("twostate_hyperbolic").spec.dynamics,
            parse_problem(doc).spec.dynamics,
            DynamicsField(A=lambda t: [0.0, 1.0 + t, -t * t, np.sin(t)],
                          B=lambda t: np.array([[0.3 * t], [1.0]]),
                          b=lambda t: (0.05 * t, 0.0)),
        ]
        # a problem file's constant entries are repeated, its others called
        assert isinstance(fields[1].A, _Constant)
        assert not isinstance(fields[2].A, _Constant)
        grid = build_grid(1.0, 37)
        for dyn in fields:
            tables = dynamics_tables(dyn, grid)
            shapes = {"A": (2, 2), "B": (2, 1), "b": (2,)}
            for name, where in self.FIELDS:
                np.testing.assert_array_equal(
                    self.table(tables, name, where),
                    self.per_node(getattr(dyn, name), getattr(grid, where),
                                  shapes[name]), err_msg=f"{name} at {where}")

    def test_constant_field_is_not_called_per_node(self):
        calls = {"constant": 0, "varying": 0}

        class Counted(_Constant):
            __slots__ = ()

            def __call__(self, t):
                calls["constant"] += 1
                return self.value

        def varying(t):
            calls["varying"] += 1
            return np.array([[0.0], [1.0 + t]])

        dyn = DynamicsField(A=Counted(np.array([[0.0, 1.0], [-0.5, -0.3]])),
                            B=varying, b=Counted(np.zeros(2)))
        grid = build_grid(1.0, 50)
        tables = dynamics_tables(dyn, grid)
        calls.update(constant=0, varying=0)
        for name, where in self.FIELDS:
            self.table(tables, name, where)
        # one call per node and half node for the callable, none for constants
        assert calls == {"constant": 0, "varying": 2 * grid.N + 1}


class TestMisshapedDynamics:
    """A dynamics value of the wrong size raises TilqError naming where."""

    GOOD = {"A": np.array([[0.0, 1.0], [-0.5, -0.3]]),
            "B": np.array([[0.0], [1.0]]), "b": np.array([0.05, 0.0])}
    BAD = {"A": np.eye(3), "B": np.ones((2, 2)), "b": np.zeros(3)}
    EXPECTED = {"A": (2, 2), "B": (2, 1), "b": (2,)}

    def spec(self, fields):
        return dataclasses.replace(twostate_spec(),
                                   dynamics=DynamicsField(**fields))

    @pytest.mark.parametrize("name", ["A", "B", "b"])
    def test_constant_field(self, name):
        fields = {k: _Constant(v) for k, v in self.GOOD.items()}
        fields[name] = _Constant(self.BAD[name])
        want = (f"dynamics coefficient {name} has shape "
                f"{self.BAD[name].shape} at t=0, expected {self.EXPECTED[name]}")
        with pytest.raises(TilqError, match=re.escape(want)):
            solve_equilibrium(self.spec(fields), build_grid(1.0, 20))

    @pytest.mark.parametrize("name", ["A", "B", "b"])
    def test_callable_names_first_failing_time(self, name):
        good, bad = self.GOOD[name], self.BAD[name]
        fields = dict(self.GOOD)
        fields[name] = lambda t: bad if t >= 0.5 else good
        want = (f"dynamics coefficient {name} has shape {bad.shape} at "
                f"t=0.5, expected {self.EXPECTED[name]}")
        spec = self.spec({k: (v if callable(v) else _Constant(v))
                          for k, v in fields.items()})
        grid = build_grid(1.0, 20)
        with pytest.raises(TilqError, match=re.escape(want)):
            getattr(SpecTables(spec, grid), name)
        with pytest.raises(TilqError, match=f"dynamics coefficient {name} "):
            solve_equilibrium(spec, grid)
