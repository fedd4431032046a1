"""The fixed-point sweep's anchored sums against the pair-table reference.

Every case is solved from the uniqueness probe's three starts by the
package and by :mod:`riccati_reference`; P and Qbb must agree to 1e-12
relative, after the same number of sweeps (one pinned exception below).
"""

import dataclasses

import numpy as np
import pytest

import tilq.grid
from tilq import (DynamicsField, SolveOptions, build_grid, load_shipped_problem,
                  shipped_problem_names, solve_equilibrium_riccati,
                  tabulated_kernel)
from tilq.grid import _anchored
from tilq.riccati import _closed_loop_table, _gain_table, _sweep_core
from tilq.tables import SpecTables
from conftest import threestate_spec, twostate_spec
import riccati_reference as ref

RTOL = 1e-12
STARTS = ("zero", "G_T", "5 G_T")


def stiff_spec(kernel=None):
    """The two-state problem with A = V diag(-40, -0.1) V^-1, V = [[1, 1], [0, 0.5]].

    A is stiff and far from normal: one fundamental matrix anchored at
    t = 0 has a condition number near 1e17 by t = 1.
    """
    V = np.array([[1.0, 1.0], [0.0, 0.5]])
    A = V @ np.diag([-40.0, -0.1]) @ np.linalg.inv(V)
    return dataclasses.replace(
        twostate_spec(kernel),
        dynamics=DynamicsField.constant(A, [[0.0], [1.0]], [0.05, 0.0]))


def tabulated_hyperbolic():
    times = np.linspace(0.0, 1.0, 201)
    return tabulated_kernel(
        times, 1.0 / (1.0 + np.clip(times[None, :] - times[:, None], 0.0, None)))


def without_kernel(spec):
    """The same problem read through per-kernel derivative triangles."""
    return dataclasses.replace(spec, kernel=None)


# name -> (spec builder, N); every shipped problem is forced onto the fixed point
CASES = {
    **{name: (lambda name=name: load_shipped_problem(name).spec, 200)
       for name in shipped_problem_names()},
    "twostate_tabulated": (lambda: twostate_spec(tabulated_hyperbolic()), 200),
    "twostate_triangles": (lambda: without_kernel(twostate_spec()), 200),
    "threestate_triangles": (lambda: without_kernel(threestate_spec()), 120),
    "stiff": (stiff_spec, 400),
    "stiff_triangles": (lambda: without_kernel(stiff_spec()), 200),
}

# From 5 G(T) the classical problem's iterate runs away before it recovers.
# The reference's closed-loop pair table overflows there and its zero-weight
# Qbb turns to nan, while the anchored sum's Qbb stays exactly zero: the
# reference restarts from its best iterate some sweeps earlier, and the two
# runs go on with different damping.
REFERENCE_OVERFLOWS = {("classical_scalar", "5 G_T")}


def assert_rel(got, want, rtol=RTOL):
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    build, N = CASES[request.param]
    spec = build()
    return request.param, SpecTables(spec, build_grid(spec.horizon, N))


@pytest.mark.parametrize("start", STARTS)
def test_solve_matches_reference(case, start):
    name, tables = case
    initial = {"zero": "zero", "G_T": tables.G_T, "5 G_T": 5.0 * tables.G_T}[start]
    sol = solve_equilibrium_riccati(tables.spec, tables.grid,
                                    SolveOptions(initial=initial), tables=tables)
    P, qbb, diag = ref.solve(tables, initial)
    if (name, start) in REFERENCE_OVERFLOWS:
        # the runs part where the reference alone overflows
        first = int(np.argmax(~np.isfinite(diag.deltas)))
        assert not np.isfinite(diag.deltas[first])
        assert np.all(np.isfinite(sol.diagnostics.deltas[:first + 1]))
        # the sweeps still agree on the converged table
        assert_rel(_sweep_core(P, tables)[0], ref.sweep(P, tables))
        assert float(np.max(np.abs(sol.P - P))) <= 10 * SolveOptions().tolerance
        return
    assert sol.diagnostics.iterations == diag.iterations
    assert_rel(sol.P, P)
    assert_rel(sol.qbb, qbb)


@pytest.fixture(scope="module")
def stiff():
    """The stiff problem's tables and the reference's converged P."""
    tables = SpecTables(stiff_spec(), build_grid(1.0, 400))
    return tables, ref.solve(tables)[0]


class TestStiffAnchors:
    def test_many_anchors_match_reference(self, stiff):
        tables, P = stiff
        steps = _closed_loop_table(_gain_table(P, tables), tables)
        # the starts end with N, so one anchor gives two
        assert len(tables.open_loop_anchors.starts) > 2
        assert len(_anchored(steps).starts) > 2
        assert_rel(_sweep_core(P, tables)[0], ref.sweep(P, tables))

    def test_one_anchor_misses_reference(self, stiff, monkeypatch):
        # the same sum with a single anchor at t = 0: rounding grows like
        # eps * cond(psi)^2 and swamps P
        tables, P = stiff
        monkeypatch.setattr(tilq.grid, "ANCHOR_COND", np.inf)
        unanchored = SpecTables(tables.spec, tables.grid)
        assert len(unanchored.open_loop_anchors.starts) == 2
        got = _sweep_core(P, unanchored)[0]
        want = ref.sweep(P, tables)
        assert float(np.max(np.abs(got - want))) > 1e-6 * float(np.max(np.abs(want)))
