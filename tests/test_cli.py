import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import tilq
import tilq.cli
import tilq.tables
from tilq import ProblemFileError, load_problem
from tilq.cli import main
from tilq.problem_io import (PROBLEM_SCHEMA, format_number, load_shipped_problem,
                             parse_problem, shipped_problem_names,
                             shipped_problem_path)
from conftest import tabulated_twin


def minimal_document(**overrides):
    doc = {
        "name": "unit",
        "dims": {"n": 1, "m": 1},
        "horizon": 1.0,
        "dynamics": {"A": [[0.0]], "B": [[1.0]], "b": [0.0]},
        "base_costs": {"Q": [[1.0]], "S": [[0.0]], "M": [[1.0]],
                       "q": [0.0], "rho": [0.0], "G": [[1.0]], "g": [0.0]},
        "discount": {"family": "hyperbolic", "k": 1.0},
        "solver": {"grid_points": 120},
    }
    doc.update(overrides)
    return doc


class TestLoadProblem:
    def test_shipped_problems_parse(self):
        names = shipped_problem_names()
        assert "classical_scalar" in names
        assert "twostate_hyperbolic" in names
        for name in names:
            loaded = load_shipped_problem(name)
            assert loaded.validation.ok

    def test_classical_scalar_is_time_consistent(self):
        loaded = load_shipped_problem("classical_scalar")
        spec = loaded.spec
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.uniform(0, 1)
            t = rng.uniform(0, s)
            assert spec.Q.dt(t, s).item() == 0.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFileError, match="file not found"):
            load_problem(tmp_path / "nope.json")

    def test_parse_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ProblemFileError, match="line 2"):
            load_problem(bad)

    def test_unknown_key_rejected(self, tmp_path):
        doc = minimal_document()
        doc["extra_knob"] = 1
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError, match="schema violation"):
            load_problem(path)

    def test_schema_is_a_valid_schema(self):
        # problem_io's walker reads the schema as given and never checks it
        jsonschema.validators.validator_for(PROBLEM_SCHEMA).check_schema(
            PROBLEM_SCHEMA)

    def test_schema_violation_names_path_and_message(self):
        doc = minimal_document()
        doc["dims"]["n"] = 0
        with pytest.raises(ProblemFileError,
                           match="schema violation at /dims/n: 0 is less than "
                                 "the minimum of 1"):
            parse_problem(doc)

    def test_hyperbolic_solve_loads_no_scipy(self):
        code = ("import sys\n"
                "from tilq import build_grid, load_shipped_problem, "
                "solve_equilibrium\n"
                "p = load_shipped_problem('hyperbolic_scalar_k1')\n"
                "solve_equilibrium(p.spec, build_grid(p.spec.horizon, 100))\n"
                "assert 'scipy' not in sys.modules, sorted(sys.modules)\n")
        src = str(Path(tilq.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True, cwd=src,
                       timeout=300)

    def test_indefinite_M_rejected(self, tmp_path):
        doc = minimal_document()
        doc["base_costs"]["M"] = [[-1.0]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError, match="M not positive definite"):
            load_problem(path)
        # --force downgrades the refusal
        loaded = load_problem(path, force=True)
        assert not loaded.validation.ok

    def test_hyperbolic_two_state(self, tmp_path):
        doc = minimal_document()
        doc["dims"] = {"n": 2, "m": 1}
        doc["dynamics"] = {"A": [[0.0, 1.0], [0.0, 0.0]],
                           "B": [[0.0], [1.0]], "b": [0.0, 0.0]}
        doc["base_costs"] = {"Q": [[1.0, 0.0], [0.0, 1.0]], "S": [[0.0, 0.0]],
                             "M": [[1.0]], "q": [0.0, 0.0], "rho": [0.0],
                             "G": [[1.0, 0.0], [0.0, 1.0]], "g": [0.0, 0.0]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        loaded = load_problem(path)
        # analytic derivative of the hyperbolic weight, not a finite difference
        assert loaded.spec.Q.dt(0.0, 1.0)[0, 0] == pytest.approx(0.25)

    def test_polynomial_entries(self, tmp_path):
        doc = minimal_document()
        doc["dynamics"]["A"] = [[{"poly": [0.0, 1.0]}]]   # A(t) = t
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        loaded = load_problem(path)
        assert loaded.spec.dynamics.A(0.5)[0, 0] == pytest.approx(0.5)

    def test_tabulated_field(self, tmp_path):
        doc = minimal_document()
        doc["dynamics"]["b"] = {"tabulated": {"times": [0.0, 0.5, 1.0],
                                              "values": [[0.0], [1.0], [0.0]]}}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        loaded = load_problem(path)
        assert loaded.spec.dynamics.b(0.25)[0] == pytest.approx(0.5)

    def test_round_trip_identical_evaluations(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(minimal_document()))
        first = load_problem(path)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(first.document, indent=2, sort_keys=True))
        second = load_problem(echo)
        rng = np.random.default_rng(1)
        for _ in range(40):
            s = rng.uniform(0, 1)
            t = rng.uniform(0, s)
            assert first.spec.Q(t, s).item() == second.spec.Q(t, s).item()
            assert first.spec.Q.dt(t, s).item() == second.spec.Q.dt(t, s).item()


class TestFormatting:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))
            assert float(format_number(x)) == x


class TestCommands:
    def test_solve_emits_tables(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", str(shipped_problem_path("classical_scalar")),
                   "-N", "400", "--out", str(out)])
        assert rc == 0
        for name in ("P.csv", "gain.csv", "affine.csv", "correction.csv",
                     "trajectory.csv", "summary.json", "problem_echo.json"):
            assert (out / name).exists(), name
        document = json.loads(shipped_problem_path("classical_scalar").read_text())
        assert (out / "problem_echo.json").read_text() == json.dumps(
            document, indent=2, sort_keys=True) + "\n"
        header, first = (out / "P.csv").read_text().splitlines()[:2]
        assert header == "t,P_0_0"
        t0, p0 = first.split(",")
        assert float(t0) == 0.0
        assert abs(float(p0) - 0.5) < 1e-4 * (2000 / 400) ** 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True

    def test_solve_classical_reference_resolution(self, tmp_path):
        out = tmp_path / "ref"
        rc = main(["solve", str(shipped_problem_path("classical_scalar")),
                   "-N", "2000", "--out", str(out)])
        assert rc == 0
        first = (out / "P.csv").read_text().splitlines()[1]
        assert abs(float(first.split(",")[1]) - 0.5) <= 1e-4

    def test_verify_classical_all_pass(self, tmp_path):
        rc = main(["verify", str(shipped_problem_path("classical_scalar")),
                   "-N", "300", "--out", str(tmp_path / "vc")])
        assert rc == 0

    def test_solve_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        problem = str(shipped_problem_path("hyperbolic_scalar_k1"))
        assert main(["solve", problem, "-N", "150", "--out", str(a)]) == 0
        assert main(["solve", problem, "-N", "150", "--out", str(b)]) == 0
        for name in ("P.csv", "gain.csv", "affine.csv", "correction.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_solve_reports_local_method(self, tmp_path, capsys):
        out = tmp_path / "local"
        rc = main(["solve", str(shipped_problem_path("hyperbolic_scalar_k1")),
                   "-N", "100", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "local"
        assert summary["expansion_terms"] == 16
        assert 0.0 <= summary["fit_error"] <= 1e-12
        assert "tolerance" not in summary  # the local path iterates nothing
        assert "method local (R=16" in capsys.readouterr().out

    def test_solve_refuses_an_escaping_solution(self, tmp_path, capsys):
        # Q = -50: P escapes in finite time backward from T on the local path
        doc = json.loads(shipped_problem_path("hyperbolic_scalar_k1").read_text())
        doc["base_costs"]["Q"] = [[-50.0]]
        path = tmp_path / "escape.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["solve", str(path), "--force", "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())["error"]
        assert err["type"] == "ConvergenceError"
        assert "not finite from t = " in err["message"]
        assert not (out / "summary.json").exists()

    def test_solve_refuses_a_grid_of_another_horizon(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(tilq.cli, "build_grid",
                            lambda T, N: tilq.build_grid(2.0 * T, N))
        out = tmp_path / "out"
        rc = main(["solve", str(shipped_problem_path("twostate_exponential")),
                   "-N", "100", "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())["error"]
        assert err["type"] == "TilqError"
        assert err["message"] == "grid horizon 2.0 is not the problem's horizon 1.0"
        assert not (out / "summary.json").exists()

    def test_solve_reports_fixed_point_method(self, tmp_path, capsys):
        doc = minimal_document(discount={"family": "tabulated",
                                         "times": [0.0, 0.5, 1.0],
                                         "values": [[1.0] * 3] * 3})
        path = tmp_path / "tab.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "fixed"
        assert main(["solve", str(path), "-N", "60", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "fixed_point"
        assert summary["tolerance"] == 1e-10
        sweeps = summary["riccati_iterations"]
        assert sweeps >= 1
        assert f"method fixed_point ({sweeps} sweeps)" in capsys.readouterr().out

    def test_solve_missing_file(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "missing.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert "file not found" in err["error"]["message"]

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_refused_up_front(self, tmp_path, capsys, tol):
        # refused before any solve, on the local path (which iterates
        # nothing) and on the fixed-point path alike
        doc = minimal_document(discount={"family": "tabulated",
                                         "times": [0.0, 0.5, 1.0],
                                         "values": [[1.0] * 3] * 3})
        tabulated = tmp_path / "tab.json"
        tabulated.write_text(json.dumps(doc))
        for problem in (str(shipped_problem_path("hyperbolic_scalar_k1")),
                        str(tabulated)):
            rc = main(["solve", problem, "-N", "60", "--tol", tol,
                       "--out", str(tmp_path / "out")])
            assert rc == 1
            err = json.loads(capsys.readouterr().out.strip())["error"]
            assert err["type"] == "TilqError"
            assert "tolerance must be positive" in err["message"]
        assert not (tmp_path / "out" / "P.csv").exists()

    @pytest.mark.parametrize("command, flag, text, entry", [
        ("solve", "--x0", "abc", "abc"),
        ("solve", "--x0", "1,nan", "nan"),
        ("solve", "--x0", "inf", "inf"),
        ("sweep", "--values", "1,x", "x"),
        ("sweep", "--values", "0.5,-inf", "-inf"),
    ])
    def test_bad_number_refused_up_front(self, tmp_path, capsys, command, flag,
                                         text, entry):
        problem = str(shipped_problem_path("hyperbolic_scalar_k1"))
        rc = main([command, problem, "-N", "60", flag, text,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())["error"]
        assert err["type"] == "TilqError"
        assert err["message"] == f"{flag} entry {entry!r} is not a finite number"
        assert not (tmp_path / "out").exists()

    def test_verify_passes_on_demo(self, tmp_path):
        out = tmp_path / "v"
        rc = main(["verify", str(shipped_problem_path("hyperbolic_scalar_k1")),
                   "-N", "250", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["seed"] == 42
        assert (out / "verification.csv").exists()
        assert (out / "spike_detail.csv").exists()

    def test_spike_detail_rows_are_single_probes(self, tmp_path):
        # the batched probes give each row what a probe alone gives
        out = tmp_path / "v"
        path = shipped_problem_path("hyperbolic_scalar_k1")
        assert main(["verify", str(path), "-N", "250", "--out", str(out)]) == 0
        loaded = load_problem(path)
        sol = tilq.solve_equilibrium(loaded.spec, tilq.build_grid(1.0, 250),
                                     loaded.solve_options, loaded.solve_options)
        rng = np.random.default_rng(loaded.verify_options.seed)
        rows = []
        for _ in range(min(8, loaded.verify_options.spike_points)):
            t_idx = int(rng.integers(0, int(250 * 0.9)))
            x, v = rng.uniform(-2.0, 2.0, size=1), rng.uniform(-2.0, 2.0, size=1)
            rep = tilq.run_spike_check(sol, t_idx, x, v)
            rows.append(",".join(format_number(float(a)) for a in (
                [sol.grid.nodes[t_idx]] + rep.quotients
                + [rep.extrapolated, rep.analytic_reference])))
        lines = (out / "spike_detail.csv").read_text().splitlines()
        # widths of 5 and 2 steps at N = 250
        assert lines[0] == "t,quotient_0,quotient_1,extrapolated,reference"
        assert lines[1:] == rows

    def test_verify_passes_on_two_state_demo(self, tmp_path):
        # the n = 2 battery at the problem's own grid and verification keys
        out = tmp_path / "v2"
        rc = main(["verify", str(shipped_problem_path("twostate_hyperbolic")),
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["grid_points"] == 400
        assert len(summary["checks"]) == 11

    def test_verify_passes_on_fixed_point_twin(self, tmp_path):
        # the battery on a fixed-point solve, as CI's installed-script step
        doc = json.loads(shipped_problem_path("twostate_hyperbolic").read_text())
        path = tmp_path / "twostate_tabulated.json"
        path.write_text(json.dumps(tabulated_twin(doc)))
        out = tmp_path / "fixed_point"
        assert main(["verify", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "fixed_point"
        assert len(summary["checks"]) == 11
        assert all(c["passed"] for c in summary["checks"].values())
        assert summary["passed"] is True

    @pytest.mark.parametrize("twin", ["stiff", "large_drive"])
    def test_solve_on_fixed_point_twins(self, twin, tmp_path):
        # CI's installed-script steps: A = V diag(-40, -0.1) V^-1, stiff and
        # far from normal, or b = (500, 0); both run the bordered anchors
        doc = json.loads(shipped_problem_path("twostate_hyperbolic").read_text())
        if twin == "stiff":
            V = np.array([[1.0, 1.0], [0.0, 0.5]])
            doc["dynamics"]["A"] = (V @ np.diag([-40.0, -0.1])
                                    @ np.linalg.inv(V)).tolist()
        else:
            doc["dynamics"]["b"] = [500.0, 0.0]
        path = tmp_path / f"twostate_{twin}.json"
        path.write_text(json.dumps(tabulated_twin(doc)))
        out = tmp_path / twin
        assert main(["solve", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "fixed_point"
        assert summary["converged"] is True
        assert math.isfinite(summary["value_at_start"])

    def test_compare_on_time_inconsistent_spec(self, tmp_path):
        out = tmp_path / "c"
        rc = main(["compare", str(shipped_problem_path("hyperbolic_scalar_k1")),
                   "-N", "300", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sup_distance"] <= summary["bound"]

    def test_compare_builds_one_kernel_plane(self, tmp_path, monkeypatch):
        # the projection records lam = 1, so its tables hold the one dlam
        # plane instead of a derivative triangle per cost kernel
        calls = []
        triangle = tilq.tables.kernel_triangle

        def counted(field, grid):
            calls.append(tuple(field.shape))
            return triangle(field, grid)

        monkeypatch.setattr(tilq.tables, "kernel_triangle", counted)
        rc = main(["compare", str(shipped_problem_path("twostate_hyperbolic")),
                   "-N", "200", "--out", str(tmp_path / "c")])
        assert rc == 0
        assert calls == [()]

    def test_sweep_monotone_in_discount_slope(self, tmp_path):
        out = tmp_path / "s"
        rc = main(["sweep", str(shipped_problem_path("hyperbolic_scalar_k1")),
                   "--values", "0.5,1.0,2.0", "-N", "200", "--out", str(out)])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "k,P0_0_0,V0"
        p_values = [float(r.split(",")[1]) for r in rows[1:]]
        # steeper discounting shrinks the quadratic coefficient at time zero
        assert p_values[0] > p_values[1] > p_values[2]

    def test_verify_failure_exits_nonzero_with_names(self, tmp_path,
                                                     monkeypatch, capsys):
        # force a failing report through the battery to pin the exit contract
        from tilq.verification import VerificationReport
        import tilq.cli as cli

        def fake_battery(sol, vopts):
            report = VerificationReport(seed=vopts.seed)
            report.add("recursion equality along equilibrium", False,
                       1e-4, 0.5, "t_idx=0")
            report.add("gradient matches central differences", True,
                       1e-6, 1e-12)
            return report

        monkeypatch.setattr(cli, "run_verification", fake_battery)
        rc = main(["verify", str(shipped_problem_path("classical_scalar")),
                   "-N", "100", "--out", str(tmp_path / "vf")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["failed_checks"] == [
            "recursion equality along equilibrium"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TILQ_OUT", str(tmp_path / "envout"))
        rc = main(["solve", str(shipped_problem_path("classical_scalar")),
                   "-N", "120"])
        assert rc == 0
        assert (tmp_path / "envout" / "P.csv").exists()
