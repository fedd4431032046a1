"""The discount-plane path of separable specs against its triangle twin.

A spec that records its kernel is solved from one plane dlam_dt(t_i, t_j)
and per-node base coefficients; the same spec with ``kernel=None`` takes
the per-kernel derivative triangles.  Both solve the same discretization,
so they agree to rounding.
"""

import dataclasses

import numpy as np
import pytest

import tilq.tables
from tilq import (build_grid, hjb_integral_residual, hyperbolic_kernel,
                  solve_auxiliary, solve_equilibrium, solve_equilibrium_riccati,
                  tabulated_kernel, value)
from tilq.policy import EquilibriumSolution
from auxiliary_reference import btilde, omega_at, sbb_at
from conftest import threestate_spec, twostate_spec
from pair_tables import from_pair_layout, pair_table
from riccati_reference import qbb_from_gamma

N = 60
TRIANGLES = {"Qt", "St", "Mt", "qt", "rhot"}


def tabulated(diagonal=1.0):
    """Tabulated hyperbolic kernel, lam(t, t) = ``diagonal`` on its grid."""
    times = np.linspace(0.0, 1.0, 101)
    table = 1.0 / (1.0 + np.clip(times[None, :] - times[:, None], 0.0, None))
    np.fill_diagonal(table, diagonal)
    return tabulated_kernel(times, table)


SPECS = {
    "twostate_hyperbolic": lambda: twostate_spec(hyperbolic_kernel(1.0)),
    "twostate_tabulated": lambda: twostate_spec(tabulated()),
    "threestate_hyperbolic": lambda: threestate_spec(hyperbolic_kernel(1.0)),
    "threestate_tabulated": lambda: threestate_spec(tabulated()),
    # lam(t, t) = 1 + 5e-9, inside tabulated_kernel's 1e-8 tolerance: the
    # base values must be K(s, s) / lam(s, s), not K(s, s)
    "twostate_off_unit_diagonal": lambda: twostate_spec(tabulated(1.0 + 5e-9)),
}


def fixed_point(spec):
    grid = build_grid(1.0, N)
    riccati = solve_equilibrium_riccati(spec, grid)
    auxiliary = solve_auxiliary(spec, grid, riccati)
    return EquilibriumSolution(spec=spec, grid=grid, riccati=riccati,
                               auxiliary=auxiliary)


@pytest.fixture(scope="module", params=sorted(SPECS))
def pair(request):
    spec = SPECS[request.param]()
    return fixed_point(spec), fixed_point(dataclasses.replace(spec, kernel=None))


def fields(sol):
    return {"P": sol.riccati.P, "phi": sol.auxiliary.phi,
            "psi": sol.auxiliary.psi, "qbb": sol.riccati.qbb,
            "sbb": sol.auxiliary.sbb, "omega": sol.auxiliary.omega}


class TestPlaneAgainstTriangles:
    def test_fixed_point_matches_twin(self, pair):
        plane, twin = pair
        assert "dlam" in vars(plane.tables)
        assert TRIANGLES <= set(vars(twin.tables))
        assert (plane.riccati.diagnostics.iterations
                == twin.riccati.diagnostics.iterations)
        assert (plane.auxiliary.diagnostics.iterations
                == twin.auxiliary.diagnostics.iterations)
        got, want = fields(plane), fields(twin)
        for name in want:
            scale = float(np.max(np.abs(want[name])))
            np.testing.assert_allclose(got[name], want[name], rtol=0,
                                       atol=1e-12 * scale, err_msg=name)

    def test_integral_residual_matches_twin(self, pair):
        plane, twin = pair
        n = plane.spec.dims.n
        for t_idx, x in ((0, np.linspace(0.3, 0.9, n)),
                         (N // 3, np.linspace(-1.2, 0.5, n))):
            got = hjb_integral_residual(plane, t_idx, x)
            want = hjb_integral_residual(twin, t_idx, x)
            # the residual is a difference of terms of the value's size, so
            # rounding is relative to that size, not to the residual's
            scale = max(1.0, abs(value(twin, twin.grid.nodes[t_idx], x)))
            assert abs(got - want) <= 1e-12 * scale

    def test_row_oracles_match_plane_tables(self, pair):
        plane, _ = pair
        spec, grid = plane.spec, plane.grid
        ric, aux = plane.riccati, plane.auxiliary
        pairs = pair_table(ric.closed_loop, grid)
        cl, bt = from_pair_layout(pairs), btilde(pairs, aux.drive, grid)
        for i in (0, N // 2, N - 1):
            np.testing.assert_allclose(
                qbb_from_gamma(ric.gain, cl[i:, i], spec, grid, i),
                ric.qbb[i], rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                sbb_at(i, spec, grid, cl[i:, i], ric.gain, aux.upsilon, bt[i:, i]),
                aux.sbb[i], rtol=0, atol=1e-13)
            assert omega_at(i, spec, grid, ric.gain, aux.upsilon,
                            bt[i:, i]) == pytest.approx(float(aux.omega[i]),
                                                        abs=1e-13)

    def test_off_unit_diagonal_is_divided_out(self):
        sol = fixed_point(SPECS["twostate_off_unit_diagonal"]())
        np.testing.assert_allclose(sol.tables.lam_diag, 1.0 + 5e-9, rtol=1e-15)


class TestPlaneStructure:
    def test_one_plane_and_one_kernel_call(self, monkeypatch):
        calls = []
        triangle = tilq.tables.kernel_triangle

        def counted(field, grid):
            calls.append(field.shape)
            return triangle(field, grid)

        monkeypatch.setattr(tilq.tables, "kernel_triangle", counted)
        sol = solve_equilibrium(twostate_spec(tabulated()), build_grid(1.0, N))
        assert sol.method == "fixed_point"
        assert calls == [()]
        square = {name for name, v in vars(sol.tables).items()
                  if isinstance(v, np.ndarray) and v.shape[-2:] == (N + 1, N + 1)}
        assert square == {"dlam"}
        assert sol.tables.dlam.shape == (N + 1, N + 1)
        assert not TRIANGLES & set(vars(sol.tables))


@pytest.mark.parametrize("build", [twostate_spec, threestate_spec])
def test_solve_md_matches_cholesky_solves(build):
    # m = 1 and m = 2: the cached inverse factor against two triangular solves
    spec = build()
    tables = tilq.tables.SpecTables(spec, build_grid(1.0, N))
    m = spec.dims.m
    rng = np.random.default_rng(5)
    for rhs in (rng.standard_normal((N + 1, m)),
                rng.standard_normal((N + 1, m, 3))):
        got = tables.solve_md(rhs)
        want = tilq.tables.solve_chol(tables.Md_chol, rhs)
        assert got.shape == want.shape == rhs.shape
        assert float(np.max(np.abs(got - want))) <= 1e-14 * float(np.max(np.abs(want)))


DIAGONALS = ("Qd", "Sd", "Md", "qd", "rhod",
             "Qd_half", "Sd_half", "Md_half", "qd_half", "rhod_half")


@pytest.mark.parametrize("name", sorted(SPECS))
def test_diagonals_look_the_kernel_up_twice(name, monkeypatch):
    # lam(t, t) once on the nodes and once on the half nodes serves every
    # separable field, with the floats of one field call per table
    spec = SPECS[name]()
    grid = build_grid(1.0, N)
    lookups = []
    interp = tilq.problem._interp_pairs

    def counted(*args):
        lookups.append(args[3].shape)
        return interp(*args)

    monkeypatch.setattr(tilq.problem, "_interp_pairs", counted)
    tables = tilq.tables.SpecTables(spec, grid)
    got = {d: getattr(tables, d) for d in DIAGONALS + ("lam_diag",)}
    if spec.kernel.family == "tabulated":
        assert sorted(lookups) == [(N,), (N + 1,)]
    for d in DIAGONALS:
        field = getattr(spec, d.removesuffix("_half")[:-1])
        times = grid.half_nodes if d.endswith("_half") else grid.nodes
        assert np.array_equal(got[d], tilq.tables._on_diagonal(field, times)), d
    assert np.array_equal(got["lam_diag"],
                          np.array(spec.kernel.lam(grid.nodes, grid.nodes)))


def test_diagonal_of_a_foreign_kernel_field():
    # a separable field of another kernel is evaluated through its own call
    spec = twostate_spec(tabulated())
    spec = dataclasses.replace(spec, M=tilq.TwoTimeField.separable(
        hyperbolic_kernel(2.0), [[1.0]], (1, 1)))
    grid = build_grid(1.0, N)
    tables = tilq.tables.SpecTables(spec, grid)
    assert np.array_equal(tables.Md, tilq.tables._on_diagonal(spec.M, grid.nodes))
    assert np.array_equal(tables.Md_half,
                          tilq.tables._on_diagonal(spec.M, grid.half_nodes))
