"""Acceptance battery: one test per release criterion, tolerances pinned.

Each test prints a PASS line with the measured figure so the suite output
doubles as the acceptance record.  Demo problems are the shipped ones; all
sampling is seeded.
"""

import time

import numpy as np
import pytest

from tilq import (bellman_residual, build_grid, classical_riccati, cost,
                  error_function_closed, error_function_direct,
                  exponential_kernel, feedback, grad_value,
                  hjb_integral_residual, hjb_residual_sup,
                  load_shipped_problem, run_spike_check, simulate_equilibrium,
                  solve_equilibrium, solve_equilibrium_riccati,
                  uniqueness_probe, value)
from tilq.verification import random_candidate_controls
from conftest import classical_exact_p, twostate_spec

SEED = 42

SCALAR_DEMOS = ["hyperbolic_scalar_k05", "hyperbolic_scalar_k1",
                "hyperbolic_scalar_k2"]
TWOSTATE_DEMOS = ["twostate_exponential", "twostate_hyperbolic"]


@pytest.fixture(scope="module")
def demo_solution():
    """Scalar hyperbolic k=1 demo solved at N = 1000 (criteria 3, 4, 6, 8)."""
    loaded = load_shipped_problem("hyperbolic_scalar_k1")
    return solve_equilibrium(loaded.spec, build_grid(1.0, 1000),
                             loaded.solve_options, loaded.solve_options)


def test_criterion_1_time_consistent_reduction():
    loaded = load_shipped_problem("classical_scalar")
    grid = build_grid(1.0, 2000)
    started = time.perf_counter()
    sol = solve_equilibrium_riccati(loaded.spec, grid, loaded.solve_options)
    elapsed = time.perf_counter() - started
    err = float(np.max(np.abs(sol.P[:, 0, 0] - classical_exact_p(grid.nodes))))
    assert err <= 1e-4, f"closed-form gap {err:.3e}"
    assert elapsed <= 10.0, f"solve took {elapsed:.1f} s"

    spec2 = twostate_spec(kernel=exponential_kernel(0.0))
    grid2 = build_grid(1.0, 500)
    eq = solve_equilibrium_riccati(spec2, grid2)
    cl = classical_riccati(spec2, grid2)
    gap2 = float(np.max(np.abs(eq.P - cl)))
    bound2 = 10.0 * grid2.h ** 2 * (1.0 + float(np.max(np.abs(cl))))
    assert gap2 <= bound2, f"two-state gap {gap2:.3e} > {bound2:.3e}"
    print(f"\nPASS criterion 1: scalar closed-form gap {err:.2e} "
          f"(tol 1e-4, {elapsed:.1f} s); two-state classical gap {gap2:.2e} "
          f"(bound {bound2:.2e})")


def test_criterion_2_uniqueness_across_initializations():
    started = time.perf_counter()
    worst = 0.0
    for name in SCALAR_DEMOS + TWOSTATE_DEMOS:
        loaded = load_shipped_problem(name)
        grid = build_grid(loaded.spec.horizon, loaded.grid_points)
        G_T = np.asarray(loaded.spec.terminal.G(loaded.spec.horizon))
        probe = uniqueness_probe(loaded.spec, grid,
                                 ["zero", G_T, 5.0 * G_T],
                                 opts=loaded.solve_options)
        assert probe.p_distance <= 1e-6, (name, probe.p_distance)
        worst = max(worst, probe.p_distance)
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"uniqueness battery took {elapsed:.1f} s"
    print(f"\nPASS criterion 2: max pairwise P distance {worst:.2e} over "
          f"{len(SCALAR_DEMOS) + len(TWOSTATE_DEMOS)} demos "
          f"(tol 1e-6, {elapsed:.1f} s)")


def test_criterion_3_value_representation(demo_solution):
    sol = demo_solution
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        t_idx = int(rng.integers(0, sol.grid.N + 1))
        x = rng.uniform(-2.0, 2.0, size=1)
        V = value(sol, float(sol.grid.nodes[t_idx]), x)
        J = cost(sol.spec, sol.grid, simulate_equilibrium(sol, t_idx, x), t_idx)
        gap = abs(V - J) / (1.0 + abs(V))
        worst = max(worst, gap)
        assert gap <= 1e-3
    print(f"\nPASS criterion 3: max |V - J|/(1+|V|) = {worst:.2e} "
          f"over 50 points (tol 1e-3)")


def test_criterion_4_spike_variation(demo_solution):
    sol = demo_solution
    grid = sol.grid
    rng = np.random.default_rng(SEED)
    worst_neg, worst_zero, worst_match = 0.0, 0.0, 0.0
    for _ in range(30):
        t_idx = int(rng.integers(0, int(grid.N * 0.95)))
        x = rng.uniform(-2.0, 2.0, size=1)
        v = rng.uniform(-2.0, 2.0, size=1)
        u_here = feedback(sol, float(grid.nodes[t_idx]), x)
        # keep the deviation resolvable: a 1% relative match is meaningless
        # when the reference quadratic gap sits at rounding level
        if abs(v[0] - u_here[0]) < 0.3:
            v = u_here + np.sign(v - u_here + 1e-12) * 0.5
        rep = run_spike_check(sol, t_idx, x, v)
        worst_neg = max(worst_neg, -rep.extrapolated)
        assert rep.extrapolated >= -1e-4
        match = abs(rep.extrapolated - rep.analytic_reference) / abs(
            rep.analytic_reference)
        worst_match = max(worst_match, match)
        assert match <= 0.01
        rep_u = run_spike_check(sol, t_idx, x, u_here)
        worst_zero = max(worst_zero, abs(rep_u.extrapolated))
        assert abs(rep_u.extrapolated) <= 1e-4
    print(f"\nPASS criterion 4: spike limits over 30 probes: worst negativity "
          f"{worst_neg:.2e} (tol 1e-4), worst |limit| at equilibrium "
          f"{worst_zero:.2e} (tol 1e-4), worst quadratic-gap mismatch "
          f"{worst_match:.2%} (tol 1%)")


def test_criterion_5_bellman_principle():
    rng = np.random.default_rng(SEED)
    worst_eq, worst_cand = 0.0, 0.0
    for name in SCALAR_DEMOS + TWOSTATE_DEMOS:
        loaded = load_shipped_problem(name)
        grid = build_grid(loaded.spec.horizon, loaded.grid_points)
        sol = solve_equilibrium(loaded.spec, grid, loaded.solve_options,
                                loaded.solve_options)
        n = loaded.spec.dims.n
        for _ in range(5):
            t_idx = int(rng.integers(0, grid.N - 1))
            s_idx = int(rng.integers(t_idx + 1, grid.N + 1))
            x = rng.uniform(-2.0, 2.0, size=n)
            u_eq = simulate_equilibrium(sol, t_idx, x).controls[
                : s_idx - t_idx + 1]
            res = bellman_residual(sol, t_idx, s_idx, x, u_eq)
            worst_eq = max(worst_eq, abs(res))
            assert abs(res) <= 1e-4, (name, res)
            for cand in random_candidate_controls(sol, t_idx, s_idx, x,
                                                  count=20, rng=rng):
                res = bellman_residual(sol, t_idx, s_idx, x, cand)
                worst_cand = max(worst_cand, -res)
                assert res >= -1e-4, (name, res)
    print(f"\nPASS criterion 5: recursion residuals over 5 demos: "
          f"|equality| {worst_eq:.2e}, worst candidate negativity "
          f"{worst_cand:.2e} (tol 1e-4, 100 candidates per demo)")


def test_criterion_6_error_function_equivalence(demo_solution):
    sol = demo_solution
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        t_idx = int(rng.integers(0, sol.grid.N + 1))
        x = rng.uniform(-2.0, 2.0, size=1)
        rd = error_function_direct(sol, t_idx, x)
        rc = error_function_closed(sol, t_idx, x)
        gap = abs(rd - rc) / (1.0 + max(abs(rd), abs(rc)))
        worst = max(worst, gap)
        assert gap <= 1e-4
    print(f"\nPASS criterion 6: direct vs closed-form correction, max "
          f"relative gap {worst:.2e} over 50 points (tol 1e-4)")


def test_criterion_7_hjb_residual_refinement():
    loaded = load_shipped_problem("hyperbolic_scalar_k1")
    states = np.array([[0.7], [-1.2]])
    sups, ints = {}, {}
    for N in (500, 1000, 2000):
        sol = solve_equilibrium(loaded.spec, build_grid(1.0, N),
                                loaded.solve_options, loaded.solve_options)
        sups[N] = hjb_residual_sup(sol, states)
        ints[N] = max(abs(hjb_integral_residual(sol, 0, [0.7])),
                      abs(hjb_integral_residual(sol, N // 10, [-1.2])))
    r_pt = (sups[500] / sups[1000], sups[1000] / sups[2000])
    r_int = (ints[500] / ints[1000], ints[1000] / ints[2000])
    assert min(r_pt) >= 3.5, f"pointwise shrink {r_pt}"
    assert min(r_int) >= 3.5, f"integral shrink {r_int}"
    print(f"\nPASS criterion 7: residual shrink factors per doubling: "
          f"pointwise {r_pt[0]:.2f}, {r_pt[1]:.2f}; integral {r_int[0]:.2f}, "
          f"{r_int[1]:.2f} (all >= 3.5); sups at N=2000: "
          f"{sups[2000]:.2e} / {ints[2000]:.2e}")


def test_criterion_8_gradient_check(demo_solution):
    sol = demo_solution
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, sol.grid.T))
        x = rng.uniform(-2.0, 2.0, size=1)
        g = grad_value(sol, t, x)
        step = 1e-5 * (1.0 + abs(float(x[0])))
        fd = (value(sol, t, x + step) - value(sol, t, x - step)) / (2 * step)
        gap = abs(fd - g[0]) / (1.0 + abs(g[0]))
        worst = max(worst, gap)
        assert gap <= 1e-6
    print(f"\nPASS criterion 8: gradient vs central differences, max "
          f"relative gap {worst:.2e} over 100 points (tol 1e-6)")
