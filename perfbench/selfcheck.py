"""Fast self-check of the benchmark harness at small N (about a minute).

    python3 perfbench/selfcheck.py

Runs every workload through ``run.py`` untraced and traced at the
self-check's grid sizes and fails loudly when:

* an operation fails a correctness gate, or the output breaks the result
  contract (keys, metric names and units of ``BENCHMARK.json``);
* a trace wrapper's target is gone from ``src/`` (a rename that would
  silently drop a span) or a span that the workload must hit recorded
  nothing;
* the self times of the solve layers do not add up to the traced solve;
* the reference gate accepts a shifted reference, the battery gate lets a
  short or failed battery through, or a wrap target that is gone crashes
  the tracer instead of turning its metrics absent.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import gates  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, reference_key, set_up, tilq  # noqa: E402

# per-layer metrics that must be non-zero on every workload / on the verify one
ALWAYS = ["problem.validate_s", "tables.kernel_triangle_calls",
          "tables.triangle_bytes", "grid.full_table_builds",
          "grid.full_table_bytes", "riccati.sweeps", "riccati.qbb_calls",
          "riccati.p_integral_s", "riccati.closed_loop_s", "riccati.gain_s",
          "auxiliary.phi_iterations", "auxiliary.sbb_s", "auxiliary.btilde_s",
          "auxiliary.psi_s", "policy.simulate_control_calls"]
VERIFY_ONLY = ["verification.spike_s", "verification.bellman_s",
               "verification.hjb_pointwise_s", "verification.hjb_integral_s",
               "verification.value_checks_s", "verification.uniqueness_s",
               "verification.uniqueness_sweeps", "verification.worst_margin",
               "policy.simulate_equilibrium_calls"]
SHIPPED_ONLY = ["problem_io.load_s"]


def require(condition, message="self-check condition failed") -> None:
    if not condition:
        raise SystemExit(f"FAILED: {message}")


def run_benchmark(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"FAILED: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_contract(result: dict, declared: list, what: str) -> None:
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, what)
    require(result["correct"] and result["failed"] == 0, f"{what}: {result}")
    require(result["attempted"] >= 1, what)
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    require(got == want, f"{what}: metrics {sorted(set(got) ^ set(want))} differ")


def check_layers(name: str, metrics: dict) -> None:
    need = ALWAYS + (VERIFY_ONLY if WORKLOADS[name].verify else [])
    need += SHIPPED_ONLY if name != "tabulated_poly_solve" else []
    empty = [k for k in need if not metrics[k]["value"] > 0]
    require(not empty, f"{name}: spans recorded nothing: {empty}")
    layers = sum(metrics[f"solve.{x}_self_s"]["value"]
                 for x in ("tables", "grid", "riccati", "auxiliary"))
    traced = metrics["trace.solve_s"]["value"]
    require(abs(traced - layers) <= 0.01 * traced, (
        f"{name}: layer self times {layers:.4f} s vs traced solve {traced:.4f} s"))


def check_gates_and_absent_spans() -> None:
    """Gates reject a shifted reference and a short or failed battery; a
    wrap target that no longer exists turns its metrics absent."""
    wl = WORKLOADS["twostate_verify"]
    ref = json.loads((HERE / "reference.json").read_text())["small"][reference_key(wl, 0)]
    prob = set_up(wl, 0, wl.small_N)
    sol = tilq.solve_equilibrium(prob.spec, prob.grid, prob.solve_options,
                                 prob.solve_options)
    require(gates.check(sol, ref, None) == [])
    shifted = dict(ref, psi0=ref["psi0"] + 2.0 * gates.tolerance(sol.grid.h, ref["psi0"]))
    require(any("psi0" in f for f in gates.check(sol, shifted, None)))
    report = tilq.verification.VerificationReport()
    for i in range(gates.BATTERY_CHECKS - 1):
        report.add(f"check {i}", True, 1.0, 0.5)
    require(any("ran 10 checks" in f for f in gates.check(sol, ref, report)))
    report.add("last", False, 1.0, 2.0)
    require(gates.check(sol, ref, report) == ["check failed: last"])
    require(gates.worst_margin(report) == 2.0)

    tracer = spans.Tracer()
    spans.SPANS["riccati.qbb"].append(("riccati", "_renamed_away"))
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        spans.SPANS["riccati.qbb"].pop()
    _, absent = spans.per_layer_metrics(tracer, 1, {"riccati.final_residual": 0.0,
                                                    "verification.worst_margin": 0.0})
    require(absent == ["riccati.qbb_s", "riccati.qbb_calls", "solve.riccati_self_s"],
            absent)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        check_contract(run_benchmark(name, 0), bench["end_to_end"], f"{name} untraced")
        traced = run_benchmark(name, 1)
        check_contract(traced, bench["per_layer"], f"{name} traced")
        check_layers(name, traced["metrics"])
        print(f"ok  {name}", flush=True)
    check_gates_and_absent_spans()
    print("ok  gates and absent spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
