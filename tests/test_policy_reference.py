"""Point evaluations and the RK4 loop against their reference, bit for bit."""

import numpy as np
import pytest

from tilq import build_grid, solve_equilibrium
from tilq.policy import (_locate, _locate_half, feedback, grad_value,
                         interp_table, simulate_control, value)
from tilq.problem_io import load_shipped_problem
import policy_reference as ref

# the benchmark's problems at its N
CASES = {"hyperbolic_scalar_k1": 2000, "twostate_hyperbolic": 400}


@pytest.fixture(scope="module", params=sorted(CASES))
def sol(request):
    spec = load_shipped_problem(request.param).spec
    return solve_equilibrium(spec, build_grid(spec.horizon, CASES[request.param]))


def probe_times(grid):
    """Nodes, half nodes, RK4 middle stage times, seeded off-node times, and
    times within the 1e-12 clamp outside [0, T]."""
    h = grid.h
    stage = [float(t) + 0.5 * h for t in grid.nodes[:-1]]
    rng = np.random.default_rng(41)
    return np.concatenate([grid.nodes, grid.half_nodes, stage,
                           rng.uniform(0.0, grid.T, size=200),
                           [-1e-13, grid.T + 1e-13]]).tolist()


def assert_same(got, want):
    assert type(got) is type(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("as_type", [float, np.float64])
def test_point_evaluations_match_reference(sol, as_type):
    grid, n = sol.grid, sol.spec.dims.n
    tables = (sol.riccati.P, sol.auxiliary.phi, sol.auxiliary.psi)
    times = probe_times(grid)
    states = np.random.default_rng(42).uniform(-2.0, 2.0, size=(len(times), n))
    for t, x in zip(map(as_type, times), states):
        i, w = _locate(grid, t)
        i_ref, w_ref = ref.locate(grid, t)
        assert i == i_ref and w == w_ref
        assert _locate_half(grid, t) == ref.locate_half(grid, t)
        for table in tables:
            assert np.array_equal(interp_table(table, grid, t),
                                  ref.interp_table(table, grid, t))
        assert_same(value(sol, t, x), ref.value(sol, t, x))
        assert_same(grad_value(sol, t, x), ref.grad_value(sol, t, x))
        assert_same(feedback(sol, t, x), ref.feedback(sol, t, x))


@pytest.mark.parametrize("t_idx, stop_idx", [(0, None), (37, 301)])
def test_feedback_rollout_matches_reference(sol, t_idx, stop_idx):
    spec, grid = sol.spec, sol.grid
    x = np.linspace(-1.5, 2.0, spec.dims.n)
    got = simulate_control(spec, grid, lambda t, y: feedback(sol, t, y), t_idx,
                           x, stop_idx=stop_idx, tables=sol.tables)
    states, controls = ref.simulate_control(
        spec, grid, sol.tables, lambda t, y: ref.feedback(sol, t, y), t_idx, x,
        stop_idx=stop_idx)
    assert np.array_equal(got.states, states)
    assert np.array_equal(got.controls, controls)


@pytest.mark.parametrize("runs", [0, 1, 4])
def test_open_loop_rollout_matches_reference(sol, runs):
    spec, grid = sol.spec, sol.grid
    t_idx, stop_idx = 11, grid.N - 5
    k, m = stop_idx - t_idx + 1, spec.dims.m
    rng = np.random.default_rng(43)
    table = rng.uniform(-1.0, 1.0, size=((runs,) if runs else ()) + (k, m))
    table[..., k // 3:, :] += 2.0  # a jump, as in the Bellman candidates
    x = rng.uniform(-2.0, 2.0, size=spec.dims.n)
    got = simulate_control(spec, grid, table, t_idx, x, stop_idx=stop_idx,
                           tables=sol.tables)
    states, controls = ref.simulate_control(spec, grid, sol.tables, table,
                                            t_idx, x, stop_idx=stop_idx)
    assert np.array_equal(got.states, states)
    assert np.array_equal(got.controls, controls)
