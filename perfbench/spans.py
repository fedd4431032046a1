"""Spans around calls into each ``tilq`` layer, installed from outside ``src/``.

The benchmark replaces names in the package's module namespaces with timing
wrappers: module globals (``riccati._qbb_table``), class methods
(``TransitionTable._build_full``) and names one module imported from another
(``verification.simulate_control``).  Each name is wrapped where it is
looked up at call time, so the package's own calls go through the wrapper.
Uninstalling restores the original objects.

Every span records its parent through a stack, so a span's self time is its
duration minus the durations of the spans it caused.  ``scoped`` keeps the
same sums restricted to each ancestor, which gives, for example, the self
time each layer spent inside ``solve_equilibrium`` or the Riccati sweeps run
inside the uniqueness probe.

A wrap target that a later refactor removed is reported as missing, and the
per-layer metrics that need it are reported as absent instead of crashing.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# span key -> where the name is looked up at call time: (module, attribute)
# or (module, class, method).  A key may be wrapped at several call sites.
SPANS = {
    "problem_io.load_problem": [("problem_io", "load_problem")],
    "problem.validate": [("problem_io", "validate"), ("problem", "validate")],
    "problem.build": [("problem_io", "make_kernel"),
                      ("problem_io", "make_discounted"),
                      ("problem", "tabulated_kernel"),
                      ("problem", "make_discounted")],
    "grid.build_grid": [("grid", "build_grid")],
    "grid.open_loop_transition": [("riccati", "open_loop_transition")],
    "grid.full_table": [("grid", "TransitionTable", "_build_full")],
    "tables.kernel_triangle": [("tables", "kernel_triangle")],
    "tables.diagonals": [("tables", "_eval_dynamics"),
                         ("tables", "SpecTables", "_diag"),
                         ("tables", "SpecTables", "_diag_half"),
                         ("tables", "suffix_weights")],
    "tables.solve_md": [("tables", "SpecTables", "solve_md")],
    "riccati.solve": [("policy", "solve_equilibrium_riccati"),
                      ("verification", "solve_equilibrium_riccati")],
    "riccati.sweep": [("riccati", "_sweep_core")],
    "riccati.gain": [("riccati", "_gain_table")],
    "riccati.closed_loop": [("riccati", "_closed_loop_table")],
    "riccati.qbb": [("riccati", "_qbb_table")],
    "auxiliary.solve": [("policy", "solve_auxiliary"),
                        ("verification", "solve_auxiliary")],
    "auxiliary.phi": [("auxiliary", "solve_phi")],
    "auxiliary.psi": [("auxiliary", "solve_psi")],
    "auxiliary.upsilon": [("auxiliary", "_upsilon_table")],
    "auxiliary.btilde": [("auxiliary", "_btilde_from_drive")],
    "auxiliary.sbb": [("auxiliary", "_sbb_table")],
    "auxiliary.omega": [("auxiliary", "_omega_table")],
    "auxiliary.picard_pass": [("auxiliary", "_affine_backward_rk4")],
    "policy.solve_equilibrium": [("policy", "solve_equilibrium")],
    "policy.simulate_control": [("policy", "simulate_control"),
                                ("verification", "simulate_control")],
    "policy.simulate_equilibrium": [("policy", "simulate_equilibrium"),
                                    ("verification", "simulate_equilibrium")],
    "verification.run": [("verification", "run_verification")],
    "verification.spike": [("verification", "run_spike_check")],
    "verification.bellman": [("verification", "bellman_residual"),
                             ("verification", "random_candidate_controls")],
    "verification.hjb_pointwise": [("verification", "hjb_residual_sup")],
    "verification.hjb_integral": [("verification", "hjb_integral_residual")],
    "verification.uniqueness": [("verification", "uniqueness_probe")],
}

# spans whose float64 results have their byte size (computed from the array
# shape, not measured) summed into a counter
BYTES_OF_RESULT = {"tables.kernel_triangle", "grid.full_table"}

# the checks of run_verification that have spans of their own; the rest of
# its time is the error-function, V = J and gradient loops
CHECK_SPANS = ("verification.spike", "verification.bellman",
               "verification.hjb_pointwise", "verification.hjb_integral",
               "verification.uniqueness")

SOLVE_LAYERS = ("tables", "grid", "riccati", "auxiliary")


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


class Tracer:
    """In-memory span sums for one operation."""

    def __init__(self):
        self.stack = []     # open spans: [key, child seconds]
        self.stats = {}     # key -> [calls, total s, self s]
        self.scoped = {}    # (ancestor key, key) -> [calls, total s, self s]
        self.bytes = {}     # key -> bytes computed from result shapes
        self.missing = []   # wrap targets not found
        self.missing_keys = set()  # span keys with a target not found
        self._saved = []    # (owner, attribute, original)

    def span(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self._record(key, dt, dt - frame[1])
            if key in BYTES_OF_RESULT:
                self.bytes[key] = self.bytes.get(key, 0) + int(
                    np.asarray(result).size) * 8
            return result
        return wrapper

    def _record(self, key, dt, self_dt):
        _add(self.stats, key, dt, self_dt)
        for ancestor in {f[0] for f in self.stack}:
            _add(self.scoped, (ancestor, key), dt, self_dt)
        if self.stack:
            self.stack[-1][1] += dt

    def install(self) -> None:
        for key, targets in SPANS.items():
            for target in targets:
                owner = _resolve_owner(target)
                attr = target[-1]
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(".".join(target))
                    self.missing_keys.add(key)
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.span(key, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- read-outs -----------------------------------------------------------

    def calls(self, key):
        return self.stats.get(key, [0, 0.0, 0.0])[0]

    def total(self, key):
        return self.stats.get(key, [0, 0.0, 0.0])[1]

    def self_time(self, key):
        return self.stats.get(key, [0, 0.0, 0.0])[2]

    def within(self, ancestor, key, field=1):
        return self.scoped.get((ancestor, key), [0, 0.0, 0.0])[field]

    def layer_self_within(self, ancestor, layer):
        own = self.self_time(ancestor) if layer_of(ancestor) == layer else 0.0
        return own + sum(v[2] for (a, k), v in self.scoped.items()
                         if a == ancestor and layer_of(k) == layer)


def _add(table, key, dt, self_dt):
    rec = table.setdefault(key, [0, 0.0, 0.0])
    rec[0] += 1
    rec[1] += dt
    rec[2] += self_dt


def _resolve_owner(target):
    try:
        owner = importlib.import_module(f"tilq.{target[0]}")
    except ImportError:
        return None
    for name in target[1:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return owner


# per-layer metrics read straight off one span: (metric, span key, read-out)
SPAN_METRICS = [
    ("problem_io.load_s", "problem_io.load_problem", "per_setup"),
    ("problem.validate_s", "problem.validate", "per_setup"),
    ("problem.build_s", "problem.build", "per_setup"),
    ("tables.kernel_triangle_s", "tables.kernel_triangle", "total"),
    ("tables.kernel_triangle_calls", "tables.kernel_triangle", "calls"),
    ("tables.triangle_bytes", "tables.kernel_triangle", "bytes"),
    ("grid.full_table_s", "grid.full_table", "total"),
    ("grid.full_table_builds", "grid.full_table", "calls"),
    ("grid.full_table_bytes", "grid.full_table", "bytes"),
    ("riccati.sweeps", "riccati.sweep", "calls"),
    ("riccati.sweep_s", "riccati.sweep", "total"),
    ("riccati.p_integral_s", "riccati.sweep", "self"),
    ("riccati.qbb_s", "riccati.qbb", "total"),
    ("riccati.qbb_calls", "riccati.qbb", "calls"),
    ("riccati.closed_loop_s", "riccati.closed_loop", "total"),
    ("riccati.gain_s", "riccati.gain", "total"),
    ("auxiliary.phi_iterations", "auxiliary.picard_pass", "calls"),
    ("auxiliary.phi_s", "auxiliary.phi", "total"),
    ("auxiliary.sbb_s", "auxiliary.sbb", "total"),
    ("auxiliary.btilde_s", "auxiliary.btilde", "total"),
    ("auxiliary.psi_s", "auxiliary.psi", "total"),
    ("policy.simulate_control_calls", "policy.simulate_control", "calls"),
    ("policy.simulate_control_s", "policy.simulate_control", "total"),
    ("policy.simulate_equilibrium_calls", "policy.simulate_equilibrium", "calls"),
    ("verification.spike_s", "verification.spike", "total"),
    ("verification.bellman_s", "verification.bellman", "total"),
    ("verification.hjb_pointwise_s", "verification.hjb_pointwise", "total"),
    ("verification.hjb_integral_s", "verification.hjb_integral", "total"),
    ("verification.uniqueness_s", "verification.uniqueness", "total"),
    ("trace.solve_s", "policy.solve_equilibrium", "total"),
]
READ_UNITS = {"per_setup": "s", "total": "s", "self": "s", "calls": "count",
              "bytes": "bytes"}


def per_layer_metrics(tr: Tracer, setup_reps: int, extra: dict) -> tuple[dict, list]:
    """Per-operation layer metrics from one traced operation.

    ``extra`` carries values read from the solver's own results rather than
    from spans (final residual, worst check margin).  Returns the metrics
    whose spans were all installed, and the names of the absent ones.
    """
    read = {"per_setup": lambda k: tr.total(k) / setup_reps, "total": tr.total,
            "self": tr.self_time, "calls": tr.calls,
            "bytes": lambda k: tr.bytes.get(k, 0)}
    # metric -> (unit, span keys it needs, read-out)
    table = {name: (READ_UNITS[how], [key], lambda key=key, how=how: read[how](key))
             for name, key, how in SPAN_METRICS}
    U, V, E = "verification.uniqueness", "verification.run", "policy.solve_equilibrium"
    table.update({
        "riccati.final_residual": ("1", [], lambda: extra["riccati.final_residual"]),
        "verification.value_checks_s": (
            "s", [V, *CHECK_SPANS],
            lambda: tr.total(V) - sum(tr.within(V, c) for c in CHECK_SPANS)),
        "verification.uniqueness_sweeps": (
            "count", [U, "riccati.sweep"], lambda: tr.within(U, "riccati.sweep", 0)),
        "verification.worst_margin": ("1", [], lambda: extra["verification.worst_margin"]),
        "trace.span_calls": ("count", [], lambda: sum(v[0] for v in tr.stats.values())),
    })
    for layer in SOLVE_LAYERS:
        table[f"solve.{layer}_self_s"] = (
            "s", [E] + [k for k in SPANS if layer_of(k) == layer],
            lambda layer=layer: tr.layer_self_within(E, layer))
    metrics, absent = {}, []
    for name, (unit, needs, fn) in table.items():
        if tr.missing_keys.intersection(needs):
            absent.append(name)
        else:
            metrics[name] = {"value": float(fn()), "unit": unit}
    return metrics, absent
