"""The batched path-and-cost layer of ``tilq.policy`` against its one-start case.

Many equilibrium paths, their costs, their error functions and many spike
points go through one batch; each must equal, bit for bit, what the
one-start entry points give for it alone.  The stiff tabulated problem is
anchored in many segments, so paths there cross many links.
"""

import tracemalloc

import numpy as np
import pytest

import tilq.policy
from tilq import (VerifyOptions, build_grid, cost, error_function_direct,
                  run_spike_check, run_verification, simulate_equilibrium,
                  solve_equilibrium)
from tilq.policy import _equilibrium_costs, _equilibrium_paths
from tilq.problem_io import load_shipped_problem
from test_riccati_reference import stiff_spec, tabulated_hyperbolic

N = 400
CASES = {
    "twostate_hyperbolic": lambda: load_shipped_problem("twostate_hyperbolic").spec,
    "hyperbolic_scalar_k1": lambda: load_shipped_problem("hyperbolic_scalar_k1").spec,
    "stiff_tabulated": lambda: stiff_spec(tabulated_hyperbolic()),
}


@pytest.fixture(scope="module", params=list(CASES))
def sol(request):
    spec = CASES[request.param]()
    return solve_equilibrium(spec, build_grid(spec.horizon, N))


def points(sol, count=40, seed=5):
    """Random starts, the first two at nodes 0 and N, and random states."""
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, N + 1, size=count)
    starts[:2] = [0, N]
    return starts, rng.uniform(-2.0, 2.0, size=(count, sol.spec.dims.n))


def test_stiff_paths_cross_many_segments():
    spec = stiff_spec(tabulated_hyperbolic())
    sol = solve_equilibrium(spec, build_grid(spec.horizon, N))
    assert sol.method == "fixed_point"
    assert len(sol.path_anchors.starts) > 10


class TestBatchedAgainstOneStart:
    def test_paths(self, sol):
        starts, X = points(sol)
        paths = _equilibrium_paths(sol, starts, X)
        for p, (i, x) in enumerate(zip(starts.tolist(), X)):
            rows = slice(paths.offsets[p], paths.offsets[p + 1])
            one = simulate_equilibrium(sol, i, x)
            assert np.array_equal(paths.states[rows], one.states)
            assert np.array_equal(paths.controls[rows], one.controls)

    def test_value_costs(self, sol):
        starts, X = points(sol)
        J = _equilibrium_costs(sol, starts, X)
        one = [cost(sol.spec, sol.grid, simulate_equilibrium(sol, i, x), i)
               for i, x in zip(starts.tolist(), X)]
        assert np.array_equal(J, one)

    def test_error_functions(self, sol):
        starts, X = points(sol)
        R = _equilibrium_costs(sol, starts, X, derivative=True)
        one = [error_function_direct(sol, i, x)
               for i, x in zip(starts.tolist(), X)]
        assert np.array_equal(R, one)

    def test_spike_quotients(self, sol):
        rng = np.random.default_rng(8)
        m, widest = sol.spec.dims.m, N // 50
        starts = rng.integers(0, N - widest + 1, size=12)
        starts[:2] = [0, N - widest]
        X = rng.uniform(-2.0, 2.0, size=(12, sol.spec.dims.n))
        V = rng.uniform(-2.0, 2.0, size=(12, 3, m))
        batched = run_spike_check(sol, starts, X, V)
        for reports, i, x, v in zip(batched, starts.tolist(), X, V):
            for rep, one in zip(reports, run_spike_check(sol, i, x, v)):
                assert rep.t_idx == one.t_idx
                assert rep.quotients == one.quotients
                assert rep.epsilons == one.epsilons
                assert rep.extrapolated == one.extrapolated
                assert rep.analytic_reference == one.analytic_reference

    def test_batch_split_moves_no_bit(self, sol, monkeypatch):
        starts, X = points(sol)
        whole = (_equilibrium_costs(sol, starts, X),
                 _equilibrium_costs(sol, starts, X, derivative=True))
        monkeypatch.setattr(tilq.policy, "BATCH_BYTES", 1)  # one start a batch
        split = (_equilibrium_costs(sol, starts, X),
                 _equilibrium_costs(sol, starts, X, derivative=True))
        assert all(np.array_equal(a, b) for a, b in zip(whole, split))


class TestGridEnds:
    def test_start_at_horizon_is_its_state(self, sol):
        x = np.linspace(-1.0, 1.0, sol.spec.dims.n)
        traj = simulate_equilibrium(sol, N, x)
        assert traj.states.shape == (1, sol.spec.dims.n)
        assert np.array_equal(traj.states[0], x)
        T = sol.grid.T
        G = np.asarray(sol.spec.terminal.G(T))
        g = np.asarray(sol.spec.terminal.g(T)).reshape(-1)
        assert cost(sol.spec, sol.grid, traj, N) == float(x @ G @ x + 2.0 * g @ x)
        dG = np.asarray(sol.spec.terminal.dG_dt(T))
        dg = np.asarray(sol.spec.terminal.dg_dt(T)).reshape(-1)
        assert error_function_direct(sol, N, x) == float(x @ dG @ x + 2.0 * dg @ x)

    def test_start_at_zero_spans_the_grid(self, sol):
        x = np.linspace(-1.0, 1.0, sol.spec.dims.n)
        traj = simulate_equilibrium(sol, 0, x)
        assert traj.states.shape == (N + 1, sol.spec.dims.n)
        assert np.array_equal(traj.states[0], x)
        assert np.array_equal(traj.times, sol.grid.nodes)

    def test_batch_of_both_ends(self, sol):
        X = np.array([np.full(sol.spec.dims.n, 0.5), np.full(sol.spec.dims.n, -0.5)])
        starts = np.array([N, 0])
        J = _equilibrium_costs(sol, starts, X)
        assert J[0] == cost(sol.spec, sol.grid, simulate_equilibrium(sol, N, X[0]), N)
        assert J[1] == cost(sol.spec, sol.grid, simulate_equilibrium(sol, 0, X[1]), 0)


class TestBatchMemory:
    """The battery's batches are chunked to about ``BATCH_BYTES``.

    The bound is the tracemalloc peak of this battery when every sample
    point ran one at a time, 3.80 MiB, plus half a MiB.  Measured: 3.99 MiB
    chunked, 4.87 MiB with one batch per section.
    """

    BOUND = (3.80 + 0.5) * 2**20

    @staticmethod
    def battery_peak():
        loaded = load_shipped_problem("twostate_hyperbolic")
        sol = solve_equilibrium(loaded.spec, build_grid(loaded.spec.horizon, N),
                                loaded.solve_options, loaded.solve_options)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            report = run_verification(sol, VerifyOptions())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.passed, report.failed_names()
        return peak

    def test_chunked_battery_within_bound(self):
        assert self.battery_peak() <= self.BOUND

    def test_unchunked_battery_exceeds_bound(self, monkeypatch):
        monkeypatch.setattr(tilq.policy, "BATCH_BYTES", 1 << 40)
        assert self.battery_peak() > self.BOUND
