"""One factorization of M(t, t) per problem and grid.

:class:`tilq.tables.SpecTables` factors the running control weight once, on
its stage table, and every solve against M reads that factor: the gains and
Upsilon, the feedback table, the local sweep's coefficients and the
integral-form check.  The problems are the benchmark's three workloads,
built by ``perfbench/workloads.py``, loaded by path.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tilq import (build_grid, cost, feedback, load_shipped_problem,
                  run_verification, simulate_control, solve_equilibrium, value)

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def pool_member(workloads, variant):
    return workloads.tabulated_spec(workloads.tabulated_parameters(variant))


def feedback_rollouts(sol):
    """V - J at two starts: the cost of feedback rollouts, as value_gap forms it."""
    gaps = []
    for t_idx, x in ((0, np.full(sol.spec.dims.n, 1.5)),
                     (3, np.full(sol.spec.dims.n, -0.5))):
        traj = simulate_control(sol.spec, sol.grid,
                                lambda t, y: feedback(sol, t, y), t_idx, x,
                                tables=sol.tables)
        J = cost(sol.spec, sol.grid, traj, t_idx)
        gaps.append(value(sol, float(sol.grid.nodes[t_idx]), x) - J)
    return gaps


@pytest.mark.parametrize("workload", ["scalar_hyp_solve", "twostate_verify",
                                      "tabulated_poly_solve"])
def test_one_cholesky_per_operation(workload, workloads, monkeypatch):
    if workload == "tabulated_poly_solve":
        spec, opts, vopts = pool_member(workloads, 5), None, None
        N = 60
    else:
        loaded = load_shipped_problem(workloads.SHIPPED[workload])
        spec, opts, vopts = (loaded.spec, loaded.solve_options,
                             loaded.verify_options)
        N = 200 if workload == "scalar_hyp_solve" else loaded.grid_points
    grid = build_grid(spec.horizon, N)
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    sol = solve_equilibrium(spec, grid, opts, opts)
    if vopts is None:
        assert all(np.isfinite(feedback_rollouts(sol)))
    else:
        assert run_verification(sol, vopts).passed
    # one call, on the 2N + 1 stage rows
    assert calls == [(2 * N + 1, spec.dims.m, spec.dims.m)]


def test_feedback_node_rows_are_the_stored_gain(workloads):
    for variant in range(workloads.TABULATED_VARIANTS):
        sol = solve_equilibrium(pool_member(workloads, variant), build_grid(1.0, 300))
        K, k = sol.feedback_table
        assert np.array_equal(K[::2], sol.riccati.gain), variant
        assert np.array_equal(k[::2], sol.auxiliary.upsilon), variant


def test_solve_md_reads_the_last_nodes(workloads):
    sol = solve_equilibrium(pool_member(workloads, 0), build_grid(1.0, 60))
    tables = sol.tables
    rhs = np.random.default_rng(3).standard_normal((61, 1, 2))
    full = tables.solve_md(rhs)
    assert np.array_equal(tables.solve_md(rhs[40:]), full[40:])
    assert np.array_equal(tables.solve_md(rhs[40:, :, 0]), full[40:, :, 0])
    assert np.array_equal(tables.solve_stages(tables.stages("Sd"))[::2],
                          tables.solve_md(tables.Sd))
