"""Problem files, result serialization, and the shipped demo problems.

A problem file is a JSON document: dimensions, horizon, dynamics, base cost
coefficients, a discount family, and optional solver/verification settings.
Matrix and vector entries are numbers, {"poly": [c0, c1, ...]} polynomials
in time (coefficients in increasing degree), or whole-field tabulations
{"tabulated": {"times": [...], "values": [...]}} interpolated linearly.
Unknown keys are rejected so typos fail loudly.

``PROBLEM_SCHEMA`` is a JSON Schema (draft 2020-12) dict.  Documents are
checked against it by :func:`schema_violation`, a walker over the eleven
keywords the schema uses: ``type``, ``const``, ``oneOf``, ``required``,
``properties``, ``additionalProperties`` (false only), ``items``,
``minItems``, ``minimum``, ``exclusiveMinimum`` and ``maximum``.  Its
messages use jsonschema's wording.  A bool is never a number.  It departs
from jsonschema's default draft twice, on purpose: an ``integer`` is a
Python int only, so ``"n": 2.0`` is refused at its path, where jsonschema
accepts integer-valued floats; and a ``number`` is finite, so the NaN,
Infinity and -Infinity that ``json.loads`` reads are refused at their path
("nan is not of type 'number'"), where jsonschema accepts them.  Where a
``oneOf`` fails, it reports the violation inside the one branch whose
``const`` the document meets, so a bad hyperbolic ``k`` is refused at
``/discount/k``; jsonschema's best match names ``/discount`` there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ProblemFileError
from .problem import (BaseCosts, Dimensions, DynamicsField, ProblemSpec,
                      _Constant, make_discounted, make_kernel, validate)
from .riccati import SolveOptions
from .verification import VerifyOptions

_ENTRY = {
    "oneOf": [
        {"type": "number"},
        {"type": "object", "additionalProperties": False,
         "required": ["poly"],
         "properties": {"poly": {"type": "array", "minItems": 1,
                                 "items": {"type": "number"}}}},
    ]
}

# sample pairs at which a loaded problem's assumptions are probed
VALIDATION_SAMPLES = 60

_NUM_ARRAY_1D = {"type": "array", "minItems": 1, "items": {"type": "number"}}


def _grid_spec(rank: int) -> dict:
    inner, sample = _ENTRY, {"type": "number"}  # sample: values at one time
    for _ in range(rank):
        inner = {"type": "array", "minItems": 1, "items": inner}
        sample = {"type": "array", "minItems": 1, "items": sample}
    return {
        "oneOf": [
            inner,
            {"type": "object", "additionalProperties": False,
             "required": ["tabulated"],
             "properties": {"tabulated": {
                 "type": "object", "additionalProperties": False,
                 "required": ["times", "values"],
                 "properties": {"times": _NUM_ARRAY_1D,
                                "values": {"type": "array", "minItems": 2,
                                           "items": sample}}}}},
        ]
    }


_DISCOUNT = {
    "oneOf": [
        {"type": "object", "additionalProperties": False,
         "required": ["family", "delta"],
         "properties": {"family": {"const": "exponential"},
                        "delta": {"type": "number"}}},
        {"type": "object", "additionalProperties": False,
         "required": ["family", "k"],
         "properties": {"family": {"const": "hyperbolic"},
                        "k": {"type": "number"}}},
        {"type": "object", "additionalProperties": False,
         "required": ["family", "beta", "delta", "width"],
         "properties": {"family": {"const": "quasi_hyperbolic"},
                        "beta": {"type": "number"},
                        "delta": {"type": "number"},
                        "width": {"type": "number"}}},
        {"type": "object", "additionalProperties": False,
         "required": ["family", "times", "values"],
         "properties": {"family": {"const": "tabulated"},
                        "times": _NUM_ARRAY_1D,
                        "values": {"type": "array", "minItems": 3,
                                   "items": _NUM_ARRAY_1D}}},
    ]
}

PROBLEM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dims", "horizon", "dynamics", "base_costs", "discount"],
    "properties": {
        "name": {"type": "string"},
        "description": {"type": "string"},
        "dims": {"type": "object", "additionalProperties": False,
                 "required": ["n", "m"],
                 "properties": {"n": {"type": "integer", "minimum": 1},
                                "m": {"type": "integer", "minimum": 1}}},
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "dynamics": {"type": "object", "additionalProperties": False,
                     "required": ["A", "B", "b"],
                     "properties": {"A": _grid_spec(2), "B": _grid_spec(2),
                                    "b": _grid_spec(1)}},
        "base_costs": {"type": "object", "additionalProperties": False,
                       "required": ["Q", "S", "M", "q", "rho", "G", "g"],
                       "properties": {"Q": _grid_spec(2), "S": _grid_spec(2),
                                      "M": _grid_spec(2), "q": _grid_spec(1),
                                      "rho": _grid_spec(1), "G": _grid_spec(2),
                                      "g": _grid_spec(1)}},
        "discount": _DISCOUNT,
        "solver": {"type": "object", "additionalProperties": False,
                   "properties": {
                       "grid_points": {"type": "integer", "minimum": 2},
                       "tolerance": {"type": "number", "exclusiveMinimum": 0},
                       "max_iterations": {"type": "integer", "minimum": 1},
                       "damping": {"type": "number", "exclusiveMinimum": 0,
                                   "maximum": 1}}},
        "verification": {"type": "object", "additionalProperties": False,
                         "properties": {
                             "seed": {"type": "integer"},
                             "spike_points": {"type": "integer", "minimum": 1},
                             "bellman_controls": {"type": "integer", "minimum": 1},
                             "value_points": {"type": "integer", "minimum": 1},
                             "gradient_points": {"type": "integer", "minimum": 1},
                             "state_box": {"type": "number",
                                           "exclusiveMinimum": 0}}},
    },
}

_TYPES = {"object": dict, "array": list, "string": str,
          "number": (int, float), "integer": int}


def _is_type(instance, kind: str) -> bool:
    if not isinstance(instance, _TYPES[kind]) or isinstance(instance, bool):
        return False
    # json.loads reads NaN, Infinity and -Infinity as floats
    return kind != "number" or not isinstance(instance, float) or math.isfinite(instance)


def schema_violation(instance, schema: dict = PROBLEM_SCHEMA, path: tuple = ()):
    """First violation of ``schema`` by ``instance``: (path, message), or None.

    The keywords are checked in a fixed order, an object's properties before
    its ``additionalProperties`` and ``required``.  Where no branch of a
    ``oneOf`` holds, the one branch whose ``const`` properties the instance
    meets (a discount's ``family``) is reported, where jsonschema's best
    match names the ``oneOf``; failing that, the branch whose first
    violation lies deepest; on a tie, the ``oneOf`` itself.
    """
    if "type" in schema and not _is_type(instance, schema["type"]):
        return path, f"{instance!r} is not of type {schema['type']!r}"
    if "const" in schema and not (type(instance) is type(schema["const"])
                                  and instance == schema["const"]):
        return path, f"{schema['const']!r} was expected"
    if _is_type(instance, "number"):
        if "minimum" in schema and instance < schema["minimum"]:
            return path, (f"{instance!r} is less than the minimum of "
                          f"{schema['minimum']!r}")
        if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
            return path, (f"{instance!r} is less than or equal to the minimum of "
                          f"{schema['exclusiveMinimum']!r}")
        if "maximum" in schema and instance > schema["maximum"]:
            return path, (f"{instance!r} is greater than the maximum of "
                          f"{schema['maximum']!r}")
    if _is_type(instance, "array"):
        if len(instance) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            return path, f"{instance!r} {short}"
        for index, item in enumerate(instance if "items" in schema else ()):
            found = schema_violation(item, schema["items"], path + (index,))
            if found:
                return found
    if _is_type(instance, "object"):
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in instance:
                found = schema_violation(instance[key], sub, path + (key,))
                if found:
                    return found
        if schema.get("additionalProperties") is False:
            extras = sorted((key for key in instance if key not in properties), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                return path, (f"Additional properties are not allowed "
                              f"({', '.join(map(repr, extras))} {verb} unexpected)")
        for key in schema.get("required", ()):
            if key not in instance:
                return path, f"{key!r} is a required property"
    if "oneOf" in schema:
        found = [schema_violation(instance, sub, path) for sub in schema["oneOf"]]
        valid = [sub for sub, f in zip(schema["oneOf"], found) if f is None]
        if len(valid) > 1:
            return path, (f"{instance!r} is valid under each of "
                          f"{', '.join(map(repr, valid[1:] + valid[:1]))}")
        if not valid:
            meant = [f for sub, f in zip(schema["oneOf"], found)
                     if _consts_hold(instance, sub)]
            if len(meant) == 1:
                return meant[0]
            depth = max(len(f[0]) for f in found)
            deepest = [f for f in found if len(f[0]) == depth]
            if len(deepest) == 1:
                return deepest[0]
            return path, f"{instance!r} is not valid under any of the given schemas"
    return None


def _consts_hold(instance, schema: dict) -> bool:
    """Whether ``schema`` has ``const`` properties and the object ``instance``
    has each of them, at its value."""
    consts = [(key, sub) for key, sub in schema.get("properties", {}).items()
              if "const" in sub]
    return bool(consts) and _is_type(instance, "object") and all(
        key in instance and schema_violation(instance[key], sub) is None
        for key, sub in consts)


# ---------------------------------------------------------------------------
# coefficient construction


def _entry_fn(entry):
    """Scalar entry -> callable of t (constants stay constant)."""
    if isinstance(entry, dict):
        coeffs = [float(c) for c in entry["poly"]]
        return lambda t: float(np.polynomial.polynomial.polyval(t, coeffs))
    val = float(entry)
    return lambda t: val


def _shape_error(source: str, path: str, got, expected) -> ProblemFileError:
    return ProblemFileError(
        f"{source}: shape mismatch at {path}: {got}, expected {expected}")


def _field_fn(node, shape, source: str, path: str):
    """Matrix/vector field -> callable of t; errors name the source and path.

    A field with no entry that depends on t is a constant
    (:class:`tilq.problem._Constant`), which tabulation repeats.
    """
    if isinstance(node, dict) and "tabulated" in node:
        times = np.asarray(node["tabulated"]["times"], dtype=float)
        # numbers at the schema's depth: a ragged table has a shorter shape
        vals = np.asarray(node["tabulated"]["values"], dtype=object)
        if vals.shape != (len(times),) + shape:
            raise _shape_error(source, f"{path}/tabulated/values",
                               f"shape {vals.shape}", (len(times),) + shape)
        vals = vals.astype(float)
        if np.any(np.diff(times) <= 0):
            raise ProblemFileError(f"{source}: tabulation times must increase "
                                   f"at {path}/tabulated/times")

        def fn(t, times=times, vals=vals):
            t = min(max(float(t), times[0]), times[-1])
            i = int(np.searchsorted(times, t, side="right") - 1)
            i = min(max(i, 0), len(times) - 2)
            w = (t - times[i]) / (times[i + 1] - times[i])
            return (1.0 - w) * vals[i] + w * vals[i + 1]

        return fn
    arr = np.asarray(node, dtype=object)
    if arr.shape != shape:
        raise _shape_error(source, path, f"shape {arr.shape}", shape)
    flat = [arr[idx] for idx in np.ndindex(shape)]
    if all(not isinstance(e, dict) for e in flat):
        return _Constant(np.asarray(node, dtype=float).reshape(shape))
    fns = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        fns[idx] = _entry_fn(arr[idx])

    def fn(t):
        out = np.empty(shape)
        for idx in np.ndindex(shape):
            out[idx] = fns[idx](t)
        return out

    return fn


def _base_coeff(node, shape, source: str, path: str):
    fn = _field_fn(node, shape, source, path)
    return fn.value if isinstance(fn, _Constant) else fn


def _check_discount_table(disc: dict, source: str) -> None:
    """A tabulated discount's values: one row per time, one entry per time."""
    k = len(disc["times"])
    if len(disc["values"]) != k:
        raise _shape_error(source, "/discount/values",
                           f"{len(disc['values'])} rows", f"{k}, one per time")
    for i, row in enumerate(disc["values"]):
        if len(row) != k:
            raise _shape_error(source, f"/discount/values/{i}",
                               f"{len(row)} entries", f"{k}, one per time")


@dataclass
class LoadedProblem:
    spec: ProblemSpec
    solve_options: SolveOptions
    verify_options: VerifyOptions
    grid_points: int
    document: dict
    validation: object = None


def parse_problem(document: dict, *, source: str = "<memory>",
                  force: bool = False) -> LoadedProblem:
    """Build a validated problem from a parsed JSON document."""
    found = schema_violation(document)
    if found is not None:
        path = "/".join(str(p) for p in found[0])
        raise ProblemFileError(f"{source}: schema violation at /{path}: {found[1]}")

    dims = Dimensions(n=document["dims"]["n"], m=document["dims"]["m"])
    n, m = dims.n, dims.m
    horizon = float(document["horizon"])
    dyn_doc = document["dynamics"]
    A_fn = _field_fn(dyn_doc["A"], (n, n), source, "/dynamics/A")
    B_fn = _field_fn(dyn_doc["B"], (n, m), source, "/dynamics/B")
    b_fn = _field_fn(dyn_doc["b"], (n,), source, "/dynamics/b")
    dynamics = DynamicsField(A=A_fn, B=B_fn, b=b_fn)

    costs = document["base_costs"]
    fields = {name: _base_coeff(costs[name], shape, source, f"/base_costs/{name}")
              for name, shape in (("Q", (n, n)), ("S", (m, n)), ("M", (m, m)),
                                  ("q", (n,)), ("rho", (m,)))}
    try:
        base = BaseCosts(
            **fields,
            G=np.asarray(costs["G"], dtype=float).reshape(n, n),
            g=np.asarray(costs["g"], dtype=float).reshape(n),
        )
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{source}: terminal weights G, g must be "
                               f"constant arrays ({exc})") from exc

    disc = dict(document["discount"])
    family = disc.pop("family")
    if family == "tabulated":
        _check_discount_table(disc, source)
    try:
        kernel = make_kernel(family, **disc)
        spec = make_discounted(dims, horizon, dynamics, base, kernel,
                               name=document.get("name", ""),
                               description=document.get("description", ""))
    except Exception as exc:
        raise ProblemFileError(f"{source}: {exc}") from exc

    report = validate(spec, VALIDATION_SAMPLES)
    if not report.ok and not force:
        raise ProblemFileError(
            f"{source}: problem violates the standing assumptions:\n{report}")

    # the schema admits only the options' fields and grid_points; absent keys default
    solver = dict(document.get("solver", {}))
    grid_points = solver.pop("grid_points", 1000)
    verify_options = VerifyOptions(**document.get("verification", {}))
    return LoadedProblem(spec=spec, solve_options=SolveOptions(**solver),
                         verify_options=verify_options, grid_points=grid_points,
                         document=document, validation=report)


def load_problem(path, *, force: bool = False) -> LoadedProblem:
    """Parse, schema-check and assumption-check a problem file."""
    path = Path(path)
    if not path.exists():
        raise ProblemFileError(f"file not found: {path}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return parse_problem(document, source=str(path), force=force)


# ---------------------------------------------------------------------------
# output serialization


def format_number(x: float) -> str:
    """17 significant digits: round-trips every double exactly."""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_problem_echo(path: Path, document: dict) -> None:
    """The document as indented JSON, streamed to the file: as one string,
    a tabulated discount's text would briefly take several times its size."""
    with open(path, "w") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")


def matrix_headers(prefix: str, shape: tuple) -> list:
    if len(shape) == 0:
        return [prefix]
    if len(shape) == 1:
        return [f"{prefix}_{i}" for i in range(shape[0])]
    return [f"{prefix}_{i}_{j}" for i in range(shape[0]) for j in range(shape[1])]


# ---------------------------------------------------------------------------
# shipped demo problems


def shipped_problem_names() -> list:
    root = resources.files("tilq").joinpath("problems")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def shipped_problem_path(name: str) -> Path:
    """Filesystem path of a packaged demo problem (without .json suffix)."""
    root = resources.files("tilq").joinpath("problems")
    candidate = root.joinpath(f"{name}.json")
    if not candidate.is_file():
        raise ProblemFileError(
            f"no shipped problem {name!r}; available: "
            f"{', '.join(shipped_problem_names())}")
    return Path(str(candidate))


def load_shipped_problem(name: str) -> LoadedProblem:
    return load_problem(shipped_problem_path(name))
