"""Command-line front end.

    tilq solve   <problem.json> [-N grid] [--tol x] [--out dir] [--x0 ...]
    tilq verify  <problem.json> [-N grid] [--tol x] [--seed s] [--out dir]
    tilq compare <problem.json> [-N grid] [--out dir]
    tilq sweep   <problem.json> --values a,b,c [-N grid] [--out dir]

Outputs land in --out, the TILQ_OUT environment variable, or ./tilq_out.
Failures print a machine-readable error JSON to stdout and exit 1;
verification or comparison failures exit 2 with the failing checks named.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .errors import TilqError
from .grid import build_grid
from .policy import (EquilibriumSolution, simulate_equilibrium, solve_equilibrium,
                     value)
from .problem import time_consistent_projection
from .problem_io import (LoadedProblem, format_number, load_problem,
                         matrix_headers, parse_problem, write_csv,
                         write_problem_echo)
from .riccati import classical_riccati, solve_equilibrium_riccati
from .verification import run_spike_check, run_verification

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("TILQ_OUT") or "tilq_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> LoadedProblem:
    loaded = load_problem(args.problem, force=args.force)
    if args.grid_points is not None:
        loaded.grid_points = args.grid_points
    if args.tol is not None:
        loaded.solve_options = dataclasses.replace(loaded.solve_options,
                                                   tolerance=args.tol)
    if getattr(args, "seed", None) is not None:
        loaded.verify_options.seed = args.seed
    return loaded


def _numbers(text: str, flag: str) -> list[float]:
    """The comma-separated entries of ``flag``; each must be a finite number."""
    values = []
    for entry in text.split(","):
        try:
            value = float(entry)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise TilqError(f"{flag} entry {entry.strip()!r} is not a finite number")
        values.append(value)
    return values


def _x0(args, n: int) -> np.ndarray:
    if getattr(args, "x0", None):
        vals = _numbers(args.x0, "--x0")
        if len(vals) != n:
            raise TilqError(f"--x0 needs {n} comma-separated entries")
        return np.asarray(vals)
    return np.ones(n)


def _write_solution_tables(out: Path, loaded: LoadedProblem,
                           sol: EquilibriumSolution, x0: np.ndarray) -> dict:
    grid = sol.grid
    n, m = sol.spec.dims.n, sol.spec.dims.m
    t = grid.nodes

    def flat(table):
        return table.reshape(table.shape[0], -1)

    write_csv(out / "P.csv", ["t"] + matrix_headers("P", (n, n)),
              np.column_stack([t, flat(sol.riccati.P)]))
    write_csv(out / "gain.csv",
              ["t"] + matrix_headers("Gamma", (m, n)) + matrix_headers("Upsilon", (m,)),
              np.column_stack([t, flat(sol.riccati.gain),
                               sol.auxiliary.upsilon]))
    write_csv(out / "affine.csv",
              ["t"] + matrix_headers("phi", (n,)) + ["psi"],
              np.column_stack([t, sol.auxiliary.phi, sol.auxiliary.psi]))
    write_csv(out / "correction.csv",
              ["t"] + matrix_headers("Qbb", (n, n)) + matrix_headers("Sbb", (n,))
              + ["omega"],
              np.column_stack([t, flat(sol.riccati.qbb), sol.auxiliary.sbb,
                               sol.auxiliary.omega]))
    traj = simulate_equilibrium(sol, 0, x0)
    write_csv(out / "trajectory.csv",
              ["t"] + matrix_headers("y", (n,)) + matrix_headers("u", (m,)),
              np.column_stack([traj.times, traj.states, traj.controls]))
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    vals = [value(sol, float(tt), traj.states[i]) for i, tt in enumerate(traj.times)]
    write_csv(plots / "value_vs_t.csv", ["t", "V"],
              np.column_stack([traj.times, vals]))
    write_csv(plots / "state_vs_t.csv", ["t"] + matrix_headers("y", (n,)),
              np.column_stack([traj.times, traj.states]))
    write_csv(plots / "control_vs_t.csv", ["t"] + matrix_headers("u", (m,)),
              np.column_stack([traj.times, traj.controls]))
    write_problem_echo(out / "problem_echo.json", loaded.document)
    return {
        "P0": sol.riccati.P[0].tolist(),
        "value_at_start": float(value(sol, 0.0, x0)),
        "x0": x0.tolist(),
    }


def _method(sol: EquilibriumSolution, tolerance: float) -> tuple[dict, str]:
    """Summary fields and a short description of the path that solved ``sol``.

    The tolerance is reported only for the fixed-point path, the one that
    uses it.
    """
    exp = sol.riccati.expansion
    if exp is not None:
        return ({"method": "local", "expansion_terms": exp.terms,
                 "fit_error": exp.fit_error},
                f"local (R={exp.terms}, fit error {exp.fit_error:.1e})")
    sweeps = sol.riccati.diagnostics.iterations
    return ({"method": "fixed_point", "tolerance": tolerance},
            f"fixed_point ({sweeps} sweeps)")


def cmd_solve(args) -> int:
    loaded = _load(args)
    x0 = _x0(args, loaded.spec.dims.n)
    out = _out_dir(args)
    grid = build_grid(loaded.spec.horizon, loaded.grid_points)
    started = time.perf_counter()
    sol = solve_equilibrium(loaded.spec, grid, loaded.solve_options,
                            loaded.solve_options)
    elapsed = time.perf_counter() - started
    head = _write_solution_tables(out, loaded, sol, x0)
    method, described = _method(sol, loaded.solve_options.tolerance)
    summary = {
        "command": "solve",
        "problem": loaded.spec.name,
        "grid_points": loaded.grid_points,
        **method,
        "riccati_iterations": sol.riccati.diagnostics.iterations,
        "riccati_deltas": sol.riccati.diagnostics.deltas,
        "affine_iterations": sol.auxiliary.diagnostics.iterations,
        "converged": sol.converged,
        "elapsed_seconds": elapsed,
        **head,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"solved {loaded.spec.name or args.problem}: method {described}, "
          f"P(0)[0,0] = {format_number(sol.riccati.P[0, 0, 0])}, "
          f"outputs in {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    loaded = _load(args)
    out = _out_dir(args)
    grid = build_grid(loaded.spec.horizon, loaded.grid_points)
    sol = solve_equilibrium(loaded.spec, grid, loaded.solve_options,
                            loaded.solve_options)
    report = run_verification(sol, loaded.verify_options)
    lines = ["check,passed,tolerance,worst,witness"]
    for c in report.checks:
        lines.append(f"{c.name},{int(c.passed)},{format_number(c.tolerance)},"
                     f"{format_number(c.worst)},{c.witness}")
    (out / "verification.csv").write_text("\n".join(lines) + "\n")

    rng = np.random.default_rng(loaded.verify_options.seed)
    detail = []
    for _ in range(min(8, loaded.verify_options.spike_points)):
        t_idx = int(rng.integers(0, int(grid.N * 0.9)))
        x = rng.uniform(-2.0, 2.0, size=loaded.spec.dims.n)
        v = rng.uniform(-2.0, 2.0, size=loaded.spec.dims.m)
        try:
            rep = run_spike_check(sol, t_idx, x, v)
        except TilqError:
            continue  # probe too close to the horizon for this grid
        detail.append([grid.nodes[t_idx]] + list(rep.quotients)
                      + [rep.extrapolated, rep.analytic_reference])
    if detail:
        k = max(len(row) for row in detail) - 3
        detail = [row for row in detail if len(row) == k + 3]
        write_csv(out / "spike_detail.csv",
                  ["t"] + [f"quotient_{i}" for i in range(k)]
                  + ["extrapolated", "reference"], detail)
    summary = {
        "command": "verify",
        "problem": loaded.spec.name,
        "grid_points": loaded.grid_points,
        "seed": loaded.verify_options.seed,
        **_method(sol, loaded.solve_options.tolerance)[0],
        "passed": report.passed,
        "checks": {c.name: {"passed": c.passed, "tolerance": c.tolerance,
                            "worst": c.worst} for c in report.checks},
        "note": report.note,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if not report.passed:
        print(json.dumps({"failed_checks": report.failed_names()}))
        return EXIT_CHECK_FAILED
    print(f"verify {loaded.spec.name or args.problem}: all "
          f"{len(report.checks)} checks passed, outputs in {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    loaded = _load(args)
    out = _out_dir(args)
    projected = time_consistent_projection(loaded.spec)
    grid = build_grid(projected.horizon, loaded.grid_points)
    riccati = solve_equilibrium_riccati(projected, grid, loaded.solve_options)
    classical = classical_riccati(projected, grid)
    distance = float(np.max(np.abs(riccati.P - classical)))
    scale = 1.0 + float(np.max(np.abs(classical)))
    bound = 10.0 * grid.h ** 2 * scale
    n = projected.dims.n
    flat_eq = riccati.P.reshape(grid.N + 1, -1)
    flat_cl = classical.reshape(grid.N + 1, -1)
    write_csv(out / "compare.csv",
              ["t"] + matrix_headers("P_equilibrium", (n, n))
              + matrix_headers("P_classical", (n, n)),
              np.column_stack([grid.nodes, flat_eq, flat_cl]))
    summary = {
        "command": "compare",
        "problem": loaded.spec.name,
        "grid_points": loaded.grid_points,
        "sup_distance": distance,
        "bound": bound,
        "passed": distance <= bound,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if distance > bound:
        print(json.dumps({"failed_checks": ["classical reduction"],
                          "sup_distance": distance, "bound": bound}))
        return EXIT_CHECK_FAILED
    print(f"compare {loaded.spec.name or args.problem}: sup distance "
          f"{format_number(distance)} within bound {format_number(bound)}")
    return EXIT_OK


_SWEEP_PARAM = {"exponential": "delta", "hyperbolic": "k",
                "quasi_hyperbolic": "beta"}


def cmd_sweep(args) -> int:
    loaded = _load(args)
    family = loaded.document["discount"]["family"]
    if family not in _SWEEP_PARAM:
        raise TilqError(f"sweep does not support the {family!r} family")
    param = _SWEEP_PARAM[family]
    values = _numbers(args.values, "--values")
    x0 = _x0(args, loaded.spec.dims.n)
    out = _out_dir(args)
    n = loaded.spec.dims.n
    rows = []
    for v in values:
        document = json.loads(json.dumps(loaded.document))
        document["discount"][param] = v
        sub = parse_problem(document, source=f"{args.problem}[{param}={v}]",
                            force=args.force)
        grid = build_grid(sub.spec.horizon, loaded.grid_points)
        sol = solve_equilibrium(sub.spec, grid, loaded.solve_options,
                                loaded.solve_options)
        rows.append([v] + list(sol.riccati.P[0].ravel())
                    + [value(sol, 0.0, x0)])
    write_csv(out / "sweep.csv",
              [param] + matrix_headers("P0", (n, n)) + ["V0"], rows)
    summary = {
        "command": "sweep",
        "problem": loaded.spec.name,
        "parameter": param,
        "values": values,
        "grid_points": loaded.grid_points,
        "x0": x0.tolist(),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"sweep over {param} in {values}: outputs in {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilq",
        description="equilibrium solver for time-inconsistent LQ control")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("-N", "--grid-points", type=int, default=None,
                       help="override the grid resolution")
        p.add_argument("--tol", type=float, default=None,
                       help="override the fixed-point tolerance (the local "
                            "ODE path iterates nothing and ignores it)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="proceed despite assumption violations")

    p = sub.add_parser("solve", help="solve and tabulate the equilibrium")
    common(p)
    p.add_argument("--x0", default=None, help="start state, comma separated")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="run the full verification battery")
    common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="seed for verification sampling")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compare", help="equilibrium vs classical solver on "
                                       "the time-consistent projection")
    common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="solve across discount parameters")
    common(p)
    p.add_argument("--values", required=True,
                   help="comma-separated discount parameter values")
    p.add_argument("--x0", default=None, help="start state, comma separated")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TilqError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
