"""Equilibrium paths from the bordered anchors against the pair-table reference.

The package forms Y(t_j) = psi_j psi_i^{-1} [x; 1] over the anchored
products of the closed loop bordered with its drive;
:func:`policy_reference.simulate_equilibrium` reads the same path off the
closed-loop and btilde pair tables.  They must agree to 1e-12 relative from
the first node, every segment start, the last two nodes and in between.
"""

import tracemalloc

import numpy as np
import pytest

from tilq import (build_grid, load_shipped_problem, shipped_problem_names,
                  simulate_equilibrium, solve_auxiliary, solve_equilibrium,
                  solve_equilibrium_riccati)
from tilq.auxiliary import _bordered_anchors, _trapezoid_increments
from tilq.grid import _anchored, _border
from tilq.policy import EquilibriumSolution
from conftest import twostate_spec
from test_auxiliary_reference import CASES as auxiliary_reference_cases, large_drive
from test_riccati_reference import assert_rel, stiff_spec, tabulated_hyperbolic
import auxiliary_reference
import policy_reference as ref

RTOL = 1e-12

# name -> (spec builder, N); the shipped problems take their solve path (local)
CASES = {
    **{name: (lambda name=name: load_shipped_problem(name).spec, 200)
       for name in shipped_problem_names()},
    "stiff_tabulated": (lambda: stiff_spec(tabulated_hyperbolic()), 400),
    "large_drive": (lambda: large_drive(twostate_spec(tabulated_hyperbolic())), 400),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    build, N = CASES[request.param]
    spec = build()
    return request.param, solve_equilibrium(spec, build_grid(spec.horizon, N))


def start_nodes(sol):
    N = sol.grid.N
    return sorted({0, N // 3, N - 1, N, *sol.path_anchors.starts.tolist()})


def test_path_matches_table_reference(case):
    name, sol = case
    if name.startswith("stiff"):
        assert sol.method == "fixed_point"
        assert len(sol.path_anchors.starts) > 30  # the path crosses many links
    rng = np.random.default_rng(17)
    for t_idx in start_nodes(sol):
        x = rng.uniform(-2.0, 2.0, size=sol.spec.dims.n)
        traj = simulate_equilibrium(sol, t_idx, x)
        states, controls = ref.simulate_equilibrium(sol, t_idx, x)
        assert traj.states.shape == states.shape
        assert np.array_equal(traj.states[0], x)
        scale = float(np.max(np.abs(states)))
        assert float(np.max(np.abs(traj.states - states))) <= RTOL * scale
        scale = 1.0 + float(np.max(np.abs(controls)))
        assert float(np.max(np.abs(traj.controls - controls))) <= RTOL * scale


class TestLargeDrive:
    """b = (500, 0): the bordered segments are the closed loop's.

    Unscaled, every bordered step of this problem is a segment of its own.
    """

    @pytest.fixture(scope="class")
    def case(self):
        build, N = CASES["large_drive"]
        spec = build()
        grid = build_grid(spec.horizon, N)
        riccati = solve_equilibrium_riccati(spec, grid)
        sol = EquilibriumSolution(spec=spec, grid=grid, riccati=riccati,
                                  auxiliary=solve_auxiliary(spec, grid, riccati))
        return sol, auxiliary_reference.solve_auxiliary(riccati)

    def test_segments_match_the_closed_loop(self, case):
        sol, _ = case
        steps = sol.riccati.closed_loop
        r = _trapezoid_increments(steps, sol.auxiliary.drive, sol.grid.h)
        closed = _anchored(steps).starts
        assert np.array_equal(sol.path_anchors.starts, closed)
        assert len(_anchored(_border(steps, r, 0.0, 1.0)).starts) == sol.grid.N + 1

    def test_sbb_omega_and_path_match_reference(self, case):
        sol, want = case
        assert sol.auxiliary.diagnostics.iterations == want.diagnostics.iterations
        for name in ("sbb", "omega"):
            assert_rel(getattr(sol.auxiliary, name), getattr(want, name))
        x = np.array([1.0, -0.5])
        for t_idx in (0, 150, sol.grid.N - 1):
            states, _ = ref.simulate_equilibrium(sol, t_idx, x)
            assert_rel(simulate_equilibrium(sol, t_idx, x).states, states)


@pytest.mark.parametrize("name", ["twostate_tabulated", "threestate_tabulated",
                                  "stiff_tabulated"])
def test_bordered_anchors_match_direct_anchoring(name):
    # a small drive: the bordered steps, anchored directly, cut the closed
    # loop's segments, so both give the same products up to rounding
    build, N = auxiliary_reference_cases[name]
    spec = build()
    grid = build_grid(spec.horizon, N)
    riccati = solve_equilibrium_riccati(spec, grid)
    steps = riccati.closed_loop
    r = _trapezoid_increments(
        steps, solve_auxiliary(spec, grid, riccati).drive, grid.h)
    got = _bordered_anchors(riccati.closed_loop_anchors, r)
    want = _anchored(_border(steps, r, 0.0, 1.0))
    assert np.array_equal(got.starts, want.starts)
    for products in ("psi", "inv", "links"):
        g, w = getattr(got, products), getattr(want, products)
        assert float(np.max(np.abs(g - w))) <= 1e-13 * float(np.max(np.abs(w)))


def test_one_path_allocates_under_one_mib():
    # the first call builds the bordered anchors, O(N n^2), and no pair table
    spec = load_shipped_problem("twostate_hyperbolic").spec
    sol = solve_equilibrium(spec, build_grid(spec.horizon, 2000))
    tracemalloc.start()
    try:
        simulate_equilibrium(sol, 0, [1.0, -0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
