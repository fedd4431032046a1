"""The bordered correction's Sbb, omega and checks against the pair-table reference.

Every case is solved by the Riccati fixed point, then for phi and psi by
the package and by :mod:`auxiliary_reference` from the same Riccati
solution; phi, psi, Sbb and omega must agree to 1e-12 relative after the
same number of Picard passes, and the stationarity and integral-form
residuals must agree to rounding.
"""

import dataclasses

import numpy as np
import pytest

import tilq.auxiliary
from tilq import (DynamicsField, build_grid, hjb_integral_residual,
                  hjb_residual_sup, load_shipped_problem, shipped_problem_names,
                  solve_auxiliary, solve_equilibrium_riccati)
from tilq.grid import stage_table
from tilq.policy import EquilibriumSolution
from conftest import threestate_spec, twostate_spec
from test_riccati_reference import (assert_rel, stiff_spec, tabulated_hyperbolic,
                                    without_kernel)
from test_validate import tabulated_poly_spec
import auxiliary_reference as ref


def large_drive(spec):
    """The same problem with b = (500, 0).

    Each bordered step's drive increment is then large, so every step is an
    anchored segment of its own.
    """
    d = spec.dynamics
    return dataclasses.replace(spec, dynamics=DynamicsField(
        A=d.A, B=d.B, b=lambda t: np.array([500.0, 0.0])))


# name -> (spec builder, N); every shipped problem is forced onto the fixed point
CASES = {
    **{name: (lambda name=name: load_shipped_problem(name).spec, 200)
       for name in shipped_problem_names()},
    "twostate_tabulated": (lambda: twostate_spec(tabulated_hyperbolic()), 200),
    "threestate_tabulated": (lambda: threestate_spec(tabulated_hyperbolic()), 120),
    "twostate_tabulated_triangles": (
        lambda: without_kernel(twostate_spec(tabulated_hyperbolic())), 200),
    "threestate_tabulated_triangles": (
        lambda: without_kernel(threestate_spec(tabulated_hyperbolic())), 120),
    "stiff_tabulated": (lambda: stiff_spec(tabulated_hyperbolic()), 400),
    "stiff_triangles": (lambda: without_kernel(stiff_spec()), 200),
    "large_drive": (lambda: large_drive(twostate_spec(tabulated_hyperbolic())), 200),
}


def solve_both(spec, N):
    grid = build_grid(spec.horizon, N)
    riccati = solve_equilibrium_riccati(spec, grid)
    sol = EquilibriumSolution(spec=spec, grid=grid, riccati=riccati,
                              auxiliary=solve_auxiliary(spec, grid, riccati))
    return sol, ref.solve_auxiliary(riccati)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    build, N = CASES[request.param]
    return solve_both(build(), N)


def test_auxiliary_matches_reference(case):
    sol, want = case
    aux = sol.auxiliary
    assert aux.diagnostics.iterations == want.diagnostics.iterations
    for name in ("phi", "psi", "sbb", "omega"):
        assert_rel(getattr(aux, name), getattr(want, name))


def test_checks_match_reference(case):
    sol, _ = case
    n, N = sol.spec.dims.n, sol.grid.N
    # the residuals are differences of terms of the value's size
    scale = 1.0 + sum(float(np.max(np.abs(v))) for v in (
        sol.riccati.P, sol.auxiliary.phi, sol.auxiliary.psi))
    rng = np.random.default_rng(7)
    states = rng.uniform(-2.0, 2.0, size=(3, n))
    assert abs(hjb_residual_sup(sol, states)
               - ref.hjb_residual_sup(sol, states)) <= 1e-12 * scale
    for t_idx in (0, N // 3, N - 1):
        x = rng.uniform(-2.0, 2.0, size=n)
        assert abs(hjb_integral_residual(sol, t_idx, x)
                   - ref.hjb_integral_residual(sol, t_idx, x)) <= 1e-12 * scale


@pytest.mark.parametrize("name", ["stiff_tabulated", "large_drive"])
def test_scanned_pass_matches_node_recursion(name):
    # one Picard pass, its right side the drive term P b plus noise: the
    # package's anchored scan against the reference's node-by-node steps
    build, N = CASES[name]
    spec = build()
    grid = build_grid(spec.horizon, N)
    riccati = solve_equilibrium_riccati(spec, grid)
    tables = riccati.tables
    D_nodes, D_half = ref.adjoint_rates(tables, riccati.gain)
    rng = np.random.default_rng(11)
    c_nodes = (np.einsum("iab,ib->ia", riccati.P, tables.b)
               + rng.standard_normal((N + 1, spec.dims.n)))
    c_half = 0.5 * (c_nodes[:-1] + c_nodes[1:])
    anchors = riccati.closed_loop_anchors
    if name.startswith("stiff"):
        assert len(anchors.starts) > 10  # the scan crosses many links
    got = tilq.auxiliary._affine_backward_rk4(
        anchors, stage_table(D_nodes, D_half), stage_table(c_nodes, c_half),
        tables.g_T, grid.h)
    assert np.array_equal(got[-1], tables.g_T)
    assert_rel(got, ref.affine_backward_rk4(D_nodes, D_half, c_nodes, c_half,
                                            tables.g_T, grid.h))


@pytest.mark.parametrize("build, N", [(tabulated_poly_spec, 300),
                                      CASES["stiff_tabulated"]],
                         ids=["tabulated_poly", "stiff_tabulated"])
def test_adjoint_maps_are_closed_loop_transposes(build, N):
    # the Picard pass steps phi by closed_loop[i]^T in place of RK4's
    # backward map built from D = A_cl^T; the two agree term by term
    spec = build()
    grid = build_grid(spec.horizon, N)
    riccati = solve_equilibrium_riccati(spec, grid)
    steps = riccati.closed_loop
    got = ref.adjoint_maps(*ref.adjoint_rates(riccati.tables, riccati.gain), grid.h)
    gap = float(np.max(np.abs(got - np.swapaxes(steps, -1, -2))))
    assert gap <= 4 * np.spacing(float(np.max(np.abs(steps))))


def test_right_point_drive_misses_reference(monkeypatch):
    # each bordered step's drive increment taken as h d_{i+1} instead of the
    # trapezoid cell h/2 (Phi_i d_i + d_{i+1}): the comparison must see it
    monkeypatch.setattr(tilq.auxiliary, "_trapezoid_increments",
                        lambda steps, drive, h: h * drive[1:])
    build, N = CASES["twostate_tabulated"]
    sol, want = solve_both(build(), N)
    for name in ("sbb", "omega"):
        got, ref_value = getattr(sol.auxiliary, name), getattr(want, name)
        assert float(np.max(np.abs(got - ref_value))) > 1e-8 * float(
            np.max(np.abs(ref_value)))
