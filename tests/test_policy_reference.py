"""Point evaluations and the RK4 loop against their reference, bit for bit."""

import numpy as np
import pytest

from tilq import TilqError, build_grid, solve_equilibrium
from tilq.policy import (_locate, _locate_half, feedback, grad_value,
                         interp_table, simulate_control, value)
from tilq.problem_io import load_shipped_problem
import policy_reference as ref

# the benchmark's problems at its N, and an exponential kernel on a grid
# whose nodes int(t / h) puts an interval low (n = m = 1 rollouts run on
# Python floats, the two-state one on arrays)
CASES = {"hyperbolic_scalar_k1": 2000, "twostate_hyperbolic": 400,
         "classical_scalar": 800}


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


# inputs off the float64 (n,) fast path take the converting path
STATES = {
    "list": lambda x: x.tolist(),
    "int array": lambda x: np.round(x).astype(int),
    "float32 array": lambda x: x.astype(np.float32),
    "row array": lambda x: x[None, :],
    "0-d array": lambda x: x.reshape(()),
    "strided view": lambda x: np.repeat(x, 2)[::2],
}


@pytest.mark.parametrize("kind", sorted(STATES))
def test_feedback_converts_states_as_reference(sol, kind):
    grid, n = sol.grid, sol.spec.dims.n
    if kind == "0-d array" and n != 1:
        with pytest.raises(TilqError, match=rf"shape \(\); expected \({n},\)"):
            feedback(sol, 0.5, np.array(1.0))
        return
    times = probe_times(grid)[::7]
    states = np.random.default_rng(44).uniform(-2.0, 2.0, size=(len(times), n))
    for t, x in zip(times, states):
        x = STATES[kind](x)
        assert_same(feedback(sol, t, x), ref.feedback(sol, t, x))


# laws whose controls take the converting path; both problems have m = 1
LAWS = {
    "list": lambda u: u.tolist(),
    "float": lambda u: float(u[0]),
    "int array": lambda u: np.round(8.0 * u).astype(int),
    "column array": lambda u: u[:, None],
}


@pytest.mark.parametrize("kind", sorted(LAWS))
def test_converted_law_rollout_matches_reference(sol, kind):
    spec, grid = sol.spec, sol.grid
    assert spec.dims.m == 1
    x = np.linspace(-1.5, 2.0, spec.dims.n)
    convert = LAWS[kind]
    got = simulate_control(spec, grid,
                           lambda t, y: convert(feedback(sol, t, y)), 5, x,
                           stop_idx=400, tables=sol.tables)
    states, controls = ref.simulate_control(
        spec, grid, sol.tables, lambda t, y: convert(ref.feedback(sol, t, y)),
        5, x, stop_idx=400)
    assert np.array_equal(got.states, states)
    assert np.array_equal(got.controls, controls)


@pytest.mark.parametrize("law", ["feedback", "table", "stack"])
@pytest.mark.parametrize("end", ["start", "horizon"])
@pytest.mark.parametrize("k", [1, 2])
def test_short_rollouts_match_reference(sol, law, end, k):
    spec, grid = sol.spec, sol.grid
    t_idx = 0 if end == "start" else grid.N + 1 - k
    stop_idx = t_idx + k - 1
    rng = np.random.default_rng(45)
    x = rng.uniform(-2.0, 2.0, size=spec.dims.n)
    if law == "feedback":
        u = lambda t, y: feedback(sol, t, y)  # noqa: E731
        u_ref = lambda t, y: ref.feedback(sol, t, y)  # noqa: E731
    else:
        u = u_ref = rng.uniform(-1.0, 1.0, size=((3,) if law == "stack" else ())
                                + (k, spec.dims.m))
    got = simulate_control(spec, grid, u, t_idx, x, stop_idx=stop_idx,
                           tables=sol.tables)
    states, controls = ref.simulate_control(spec, grid, sol.tables, u_ref,
                                            t_idx, x, stop_idx=stop_idx)
    assert np.array_equal(got.states, states)
    assert np.array_equal(got.controls, controls)
    assert got.states.shape[-2] == k


def test_runaway_rollout_matches_reference(sol):
    # a law that drives the state past the float64 range: the same inf and
    # nan as the reference, whichever loop runs
    spec, grid = sol.spec, sol.grid
    x = np.linspace(-1.5, 2.0, spec.dims.n)

    def law(t, y):
        return 1e8 * y[:1]  # m = 1

    with np.errstate(over="ignore", invalid="ignore"):
        got = simulate_control(spec, grid, law, 0, x, tables=sol.tables)
        states, controls = ref.simulate_control(spec, grid, sol.tables, law, 0, x)
    assert np.isnan(states[-1]).all()
    assert np.array_equal(got.states, states, equal_nan=True)
    assert np.array_equal(got.controls, controls, equal_nan=True)
