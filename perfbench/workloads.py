"""The benchmark's three workloads: how each builds its problem and what it runs.

Every workload is a closed loop with one client: one operation at a time,
each in a fresh process.  An operation is set-up (build and validate the
problem, build the grid), one ``solve_equilibrium`` call, then the
workload's verification stage.

* ``scalar_hyp_solve``: shipped ``hyperbolic_scalar_k1`` at N = 2000.  The
  nonlocal Riccati and Picard layers do almost all the work and the O(N^2)
  tables set peak memory.  Kernel triangles are vectorized here.
* ``twostate_verify``: shipped ``twostate_hyperbolic`` at its own N = 400,
  solved and then put through the full check battery, whose uniqueness
  probe re-solves from three cold starts.
* ``tabulated_poly_solve``: a seeded n = 2, m = 1 problem with a tabulated
  hyperbolic kernel and polynomial-in-time A, Q, M at N = 300.  Building the
  kernel triangles runs the per-pair Python loop of ``kernel_triangle``, and
  only the fixed-point Riccati path applies to tabulated kernels.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def _import_package():
    """Import ``tilq`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "tilq" / "__init__.py").is_file():
        raise SystemExit(f"benchmark needs the package sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import tilq
    if Path(tilq.__file__).resolve().parent != (SRC / "tilq").resolve():
        raise SystemExit(f"imported tilq from {tilq.__file__}, not from {SRC}")
    return tilq


tilq = _import_package()

# Tabulated problems come from a pool of this many parameter draws, chosen by
# seed modulo the pool size, so that every input the benchmark can generate
# has recorded reference values (reference.json) for its correctness gate.
TABULATED_VARIANTS = 16
TABULATED_POINTS = 201
# Finite-difference tolerance for the tabulated kernel.  The 201-point table's
# second-order derivative stencils sit near 1e-3 relative error, so
# ``parse_problem`` (validate at DERIVATIVE_RTOL = 5e-4, 60 samples) refuses it
# with 28 to 32 derivative violations across the pool.  The problem is built
# through ``make_discounted`` and checked at this looser tolerance, the way the
# package's own tests check tabulated kernels, instead of being forced through.
TABULATED_DERIVATIVE_RTOL = 5e-3
TABULATED_VALIDATION_SAMPLES = 40


@dataclass(frozen=True)
class Workload:
    name: str
    N: int            # grid intervals of the benchmark run
    small_N: int      # grid intervals of the self-check
    verify: bool      # run the full battery as the verification stage


WORKLOADS = {
    "scalar_hyp_solve": Workload("scalar_hyp_solve", 2000, 100, False),
    "twostate_verify": Workload("twostate_verify", 400, 400, True),
    "tabulated_poly_solve": Workload("tabulated_poly_solve", 300, 60, False),
}

SHIPPED = {"scalar_hyp_solve": "hyperbolic_scalar_k1",
           "twostate_verify": "twostate_hyperbolic"}


def tabulated_variant(seed: int) -> int:
    return seed % TABULATED_VARIANTS


def tabulated_parameters(variant: int) -> dict:
    """Kernel slope and polynomial slopes of one pool member.

    Ranges keep Q(s) positive definite (its determinant stays above 0.49) and
    M(s) >= 1, so every draw satisfies the standing assumptions.  value_gap
    grows like k^2 here (the kernel table's interpolation error), so k stays
    within 1% of 1 to keep value_gap's seed-to-seed spread inside its bound.
    """
    rng = np.random.default_rng([20230826, variant])
    return {"k": float(rng.uniform(0.99, 1.01)),
            "a": float(rng.uniform(0.0, 0.3)),
            "qa": float(rng.uniform(0.0, 0.5)),
            "qb": float(rng.uniform(0.0, 0.5)),
            "mc": float(rng.uniform(0.0, 0.5))}


def tabulated_spec(params: dict) -> tilq.ProblemSpec:
    """n = 2, m = 1 problem: tabulated hyperbolic kernel, A, Q, M linear in time."""
    k, a, qa, qb, mc = (params[x] for x in ("k", "a", "qa", "qb", "mc"))
    times = np.linspace(0.0, 1.0, TABULATED_POINTS)
    table = 1.0 / (1.0 + k * np.clip(times[None, :] - times[:, None], 0.0, None))
    B = np.array([[0.0], [1.0]])
    b = np.array([0.05, 0.0])
    dynamics = tilq.DynamicsField(
        A=lambda t: np.array([[0.0, 1.0], [-0.5 - a * t, -0.3]]),
        B=lambda t: B, b=lambda t: b)
    base = tilq.BaseCosts(
        Q=lambda s: np.array([[1.0 + qa * s, 0.1], [0.1, 0.5 + qb * s]]),
        S=[[0.1, 0.0]],
        M=lambda s: np.array([[1.0 + mc * s]]),
        q=[0.02, 0.0], rho=[0.01], G=[[0.5, 0.0], [0.0, 0.5]], g=[0.05, 0.0])
    return tilq.problem.make_discounted(tilq.Dimensions(2, 1), 1.0, dynamics, base,
                                        tilq.problem.tabulated_kernel(times, table),
                                        name="tabulated_poly")


@dataclass
class Problem:
    spec: tilq.ProblemSpec
    grid: tilq.TimeGrid
    solve_options: tilq.SolveOptions
    verify_options: object


def set_up(workload: Workload, seed: int, N: int) -> Problem:
    """Everything before the first solver call: build, validate, grid."""
    if workload.name in SHIPPED:
        loaded = tilq.problem_io.load_shipped_problem(SHIPPED[workload.name])
        spec, opts, vopts = loaded.spec, loaded.solve_options, loaded.verify_options
        vopts.seed = seed
    else:
        spec = tabulated_spec(tabulated_parameters(tabulated_variant(seed)))
        report = tilq.problem.validate(spec, TABULATED_VALIDATION_SAMPLES,
                                       derivative_rtol=TABULATED_DERIVATIVE_RTOL)
        if not report.ok:
            raise tilq.AssumptionError(f"generated problem invalid:\n{report}")
        opts, vopts = tilq.SolveOptions(), None
    return Problem(spec, tilq.grid.build_grid(spec.horizon, N), opts, vopts)


def reference_key(workload: Workload, seed: int) -> str:
    """Key of the recorded reference values that gate this input."""
    if workload.name == "tabulated_poly_solve":
        return f"{workload.name}/{tabulated_variant(seed)}"
    return workload.name
