"""The problem-document walker against jsonschema, its independent oracle."""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import tilq
from tilq import ProblemFileError, SolveOptions, VerifyOptions
from tilq.cli import main
from tilq.problem_io import (PROBLEM_SCHEMA, parse_problem, schema_violation,
                             shipped_problem_names, shipped_problem_path)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ORACLE = jsonschema.validators.validator_for(PROBLEM_SCHEMA)(PROBLEM_SCHEMA)
SHIPPED = {name: json.loads(shipped_problem_path(name).read_text())
           for name in shipped_problem_names()}

# every keyword schema_violation implements, and the type names it knows
WALKER_KEYWORDS = {"type", "const", "oneOf", "required", "properties",
                   "additionalProperties", "items", "minItems", "minimum",
                   "exclusiveMinimum", "maximum"}
WALKER_TYPES = {"object", "array", "string", "number", "integer"}

INTEGER_FIELDS = [("dims", "n"), ("dims", "m"), ("solver", "grid_points"),
                  ("solver", "max_iterations"), ("verification", "seed"),
                  ("verification", "spike_points"),
                  ("verification", "bellman_controls"),
                  ("verification", "value_points"),
                  ("verification", "gradient_points")]


# a non-number inside a tabulation's values, and where it is refused
NON_NUMBER_TABLES = {
    "field": ({"dynamics/b": {"tabulated": {
        "times": [0.0, 1.0], "values": [["x", 0.0], [0.0, 0.0]]}}},
        "dynamics/b/tabulated/values/0/0"),
    "discount": ({"discount": {
        "family": "tabulated", "times": [0.0, 0.5, 1.0],
        "values": [[1.0, 0.8, 0.6], ["x", 1.0, 0.8], [1.0, 1.0, 1.0]]}},
        "discount/values/1/0"),
}

# data of the wrong shape that the schema passes, and where it is refused
SHAPE_MISMATCHES = {
    "ragged_discount": ({"discount": {
        "family": "tabulated", "times": [0.0, 0.5, 1.0],
        "values": [[1.0, 0.8, 0.6], [1.0, 0.8], [1.0, 1.0, 1.0]]}},
        "discount/values/1", "2 entries, expected 3, one per time"),
    "short_discount": ({"discount": {
        "family": "tabulated", "times": [0.0, 0.25, 0.5, 1.0],
        "values": [[1.0, 0.9, 0.8, 0.6], [1.0, 1.0, 0.9, 0.8],
                   [1.0, 1.0, 1.0, 0.9]]}},
        "discount/values", "3 rows, expected 4, one per time"),
    "constant_field": ({"base_costs/Q": [[1.0, 0.1, 0.0], [0.1, 0.5, 0.0]]},
                       "base_costs/Q", "shape (2, 3), expected (2, 2)"),
    "ragged_tabulated_field": ({"base_costs/q": {"tabulated": {
        "times": [0.0, 1.0], "values": [[0.02, 0.0], [0.02]]}}},
        "base_costs/q/tabulated/values", "shape (2,), expected (2, 2)"),
}


def twostate(**edits):
    """A copy of the shipped two-state document with {"a/b": value} edits."""
    doc = copy.deepcopy(SHIPPED["twostate_hyperbolic"])
    for where, value in edits.items():
        *parents, last = where.split("/")
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
    return doc


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


class TestWalkerMessages:
    @pytest.mark.parametrize("edits, path, message", [
        ({"extra_knob": 1}, "",
         "Additional properties are not allowed ('extra_knob' was unexpected)"),
        ({"dims/n": 0}, "dims/n", "0 is less than the minimum of 1"),
        ({"horizon": 0}, "horizon", "0 is less than or equal to the minimum of 0"),
        ({"solver/damping": 2}, "solver/damping", "2 is greater than the maximum of 1"),
        ({"dynamics/b": {"tabulated": {"times": [0.0, 1.0],
                                       "values": [[0.05, 0.0]]}}},
         "dynamics/b/tabulated/values", "[[0.05, 0.0]] is too short"),
        ({"dims/n": True}, "dims/n", "True is not of type 'integer'"),
        ({"dynamics/B": [[0.0], ["one"]]}, "dynamics/B/1/0",
         "'one' is not valid under any of the given schemas"),
        ({"discount/family": "hyperbolc"}, "discount",
         "{'family': 'hyperbolc', 'k': 1.0} is not valid under any of the "
         "given schemas"),
    ] + [(edits, path, "'x' is not of type 'number'")
         for edits, path in NON_NUMBER_TABLES.values()])
    def test_path_and_message(self, edits, path, message):
        doc = twostate(**edits)
        expected = f"<memory>: schema violation at /{path}: {message}"
        with pytest.raises(ProblemFileError) as info:
            parse_problem(doc)
        assert str(info.value) == expected
        # jsonschema's best match reports the same path and message
        best = jsonschema.exceptions.best_match(ORACLE.iter_errors(doc))
        assert "/".join(map(str, best.absolute_path)) == path
        assert best.message == message

    # the branch a discount's family names is reported; jsonschema's best
    # match ties the branches and names the oneOf
    @pytest.mark.parametrize("discount, path, message", [
        ({"family": "hyperbolic", "k": "x"}, "discount/k",
         "'x' is not of type 'number'"),
        ({"family": "hyperbolic"}, "discount", "'k' is a required property"),
        ({"family": "exponential", "delta": 0.1, "k": 1.0}, "discount",
         "Additional properties are not allowed ('k' was unexpected)"),
        ({"family": "tabulated", "times": [0.0, 1.0], "values": "x"},
         "discount/values", "'x' is not of type 'array'"),
    ])
    def test_discount_refused_in_its_family(self, discount, path, message):
        doc = twostate(discount=discount)
        with pytest.raises(ProblemFileError) as info:
            parse_problem(doc)
        assert str(info.value) == (f"<memory>: schema violation at /{path}: "
                                   f"{message}")
        best = jsonschema.exceptions.best_match(ORACLE.iter_errors(doc))
        assert list(best.absolute_path) == ["discount"]
        assert best.message.endswith("is not valid under any of the given schemas")

    def test_schema_uses_only_walker_keywords(self):
        def keywords(schema):
            yield from schema
            if "type" in schema:
                assert schema["type"] in WALKER_TYPES, schema["type"]
            # the walker knows additionalProperties: false, no subschema
            assert schema.get("additionalProperties", False) is False
            for sub in schema.get("properties", {}).values():
                yield from keywords(sub)
            for sub in schema.get("oneOf", ()):
                yield from keywords(sub)
            if "items" in schema:
                yield from keywords(schema["items"])

        used = set(keywords(PROBLEM_SCHEMA))
        assert used <= WALKER_KEYWORDS, used - WALKER_KEYWORDS
        assert used == WALKER_KEYWORDS  # the list above stays exact

    def test_overlapping_one_of_refused(self):
        # the shipped schema's branches exclude each other; this one's do not
        schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
        best = jsonschema.exceptions.best_match(
            jsonschema.Draft202012Validator(schema).iter_errors(1))
        assert schema_violation(1, schema) == ((), best.message)
        assert schema_violation(1.5, schema) is None

    def test_shipped_documents_pass(self):
        for name, doc in SHIPPED.items():
            assert schema_violation(doc) is None, name


class TestIntegerValuedFloats:
    """Integer fields take ints only; jsonschema's draft would accept 2.0."""

    @pytest.mark.parametrize("field", INTEGER_FIELDS, ids="/".join)
    def test_parse_refuses_at_path(self, field):
        value = float(lookup(SHIPPED["twostate_hyperbolic"], field))
        doc = twostate(**{"/".join(field): value})
        assert ORACLE.is_valid(doc)
        with pytest.raises(ProblemFileError,
                           match=f"schema violation at /{'/'.join(field)}: "
                                 f"{value!r} is not of type 'integer'$"):
            parse_problem(doc)

    @pytest.mark.parametrize("field", INTEGER_FIELDS, ids="/".join)
    def test_cli_exits_with_error_json(self, field, tmp_path, capsys):
        value = float(lookup(SHIPPED["twostate_hyperbolic"], field))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(twostate(**{"/".join(field): value})))
        command = "verify" if field[0] == "verification" else "solve"
        rc = main([command, str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())["error"]
        assert err["type"] == "ProblemFileError"
        assert err["message"] == (f"{path}: schema violation at "
                                  f"/{'/'.join(field)}: {value!r} is not of "
                                  f"type 'integer'")
        assert not (tmp_path / "out").exists()


# where a non-finite number is put, where it is refused, and the message
NON_FINITE = {
    "horizon": ("horizon", "{v!r} is not of type 'number'"),
    "solver/tolerance": ("solver/tolerance", "{v!r} is not of type 'number'"),
    # refused in the branch its family names
    "discount/k": ("discount/k", "{v!r} is not of type 'number'"),
    "base_costs/Q/0/0": ("base_costs/Q/0/0",
                         "{v!r} is not valid under any of the given schemas"),
}


def non_finite(where, value):
    """The two-state document with ``value`` put at the path ``where``."""
    if where == "base_costs/Q/0/0":
        return twostate(**{"base_costs/Q": [[value, 0.1], [0.1, 0.5]]})
    return twostate(**{where: value})


class TestNonFiniteNumbers:
    """A number is finite: json.loads reads NaN and the infinities as floats."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=repr)
    @pytest.mark.parametrize("where", sorted(NON_FINITE))
    def test_parse_refuses_at_path(self, where, value):
        doc = json.loads(json.dumps(non_finite(where, value)))
        path, message = NON_FINITE[where]
        if value != value:
            assert ORACLE.is_valid(doc)  # jsonschema's draft takes NaN
        with pytest.raises(ProblemFileError) as info:
            parse_problem(doc)
        assert str(info.value) == (f"<memory>: schema violation at /{path}: "
                                   + message.format(v=value))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=repr)
    @pytest.mark.parametrize("where", sorted(NON_FINITE))
    def test_cli_exits_with_error_json(self, where, value, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(non_finite(where, value)))  # writes NaN, Infinity
        rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())["error"]
        where_at, message = NON_FINITE[where]
        assert err["type"] == "ProblemFileError"
        assert err["message"] == (f"{path}: schema violation at /{where_at}: "
                                  + message.format(v=value))
        assert not (tmp_path / "out").exists()


class TestTabulatedValues:
    """A tabulation's values are rank + 1 nested arrays of numbers."""

    @pytest.mark.parametrize("case", sorted(NON_NUMBER_TABLES))
    def test_cli_exits_with_error_json(self, case, tmp_path, capsys):
        edits, where = NON_NUMBER_TABLES[case]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(twostate(**edits)))
        rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())["error"]
        assert err["type"] == "ProblemFileError"
        assert err["message"] == (f"{path}: schema violation at /{where}: "
                                  f"'x' is not of type 'number'")
        assert not (tmp_path / "out").exists()

    def test_ragged_field_refused_with_shape(self):
        doc = twostate(**{"dynamics/b": {"tabulated": {
            "times": [0.0, 1.0], "values": [[0.0], [0.0, 0.0]]}}})
        with pytest.raises(ProblemFileError,
                           match=r"^<memory>: shape mismatch at "
                                 r"/dynamics/b/tabulated/values: shape \(2,\), "
                                 r"expected \(2, 2\)$"):
            parse_problem(doc)


class TestShapeMismatches:
    """Schema-valid data of the wrong shape is refused at its path."""

    @pytest.mark.parametrize("case", sorted(SHAPE_MISMATCHES))
    def test_parse_refuses_at_path(self, case):
        edits, where, message = SHAPE_MISMATCHES[case]
        doc = twostate(**edits)
        assert schema_violation(doc) is None
        with pytest.raises(ProblemFileError) as info:
            parse_problem(doc)
        assert str(info.value) == f"<memory>: shape mismatch at /{where}: {message}"

    @pytest.mark.parametrize("case", sorted(SHAPE_MISMATCHES))
    def test_cli_exits_with_error_json(self, case, tmp_path, capsys):
        edits, where, message = SHAPE_MISMATCHES[case]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(twostate(**edits)))
        rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())["error"]
        assert err["type"] == "ProblemFileError"
        assert err["message"] == f"{path}: shape mismatch at /{where}: {message}"
        assert not (tmp_path / "out").exists()


class TestOptionDefaults:
    """Absent keys take the option dataclasses' own defaults."""

    def test_absent_sections_give_default_options(self):
        doc = twostate()
        del doc["solver"], doc["verification"]
        loaded = parse_problem(doc)
        assert loaded.solve_options == SolveOptions()
        assert loaded.verify_options == VerifyOptions()
        assert loaded.grid_points == 1000

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "grid_points", 123), ("solver", "tolerance", 3e-9),
        ("solver", "max_iterations", 17), ("solver", "damping", 0.25),
        ("verification", "seed", 7), ("verification", "spike_points", 3),
        ("verification", "bellman_controls", 4),
        ("verification", "value_points", 5),
        ("verification", "gradient_points", 6),
        ("verification", "state_box", 1.5)])
    def test_each_key_reaches_its_field(self, section, key, value):
        doc = twostate()
        doc[section] = {key: value}
        loaded = parse_problem(doc)
        opts = (loaded.verify_options if section == "verification" else
                loaded if key == "grid_points" else loaded.solve_options)
        assert getattr(opts, key) == value


def test_runtime_imports_no_jsonschema():
    # any import of jsonschema raises in the child
    code = ("import sys\n"
            "sys.modules['jsonschema'] = None\n"
            "import tilq, tilq.cli\n"
            "from tilq import build_grid, load_shipped_problem, "
            "solve_equilibrium\n"
            "p = load_shipped_problem('hyperbolic_scalar_k1')\n"
            "solve_equilibrium(p.spec, build_grid(p.spec.horizon, 100))\n"
            "roots = {'jsonschema', 'jsonschema_specifications', 'referencing',\n"
            "         'rpds', 'attrs'}\n"
            "loaded = sorted(m for m, mod in sys.modules.items()\n"
            "                if mod is not None and m.split('.')[0] in roots)\n"
            "assert not loaded, loaded\n")
    src = str(Path(tilq.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src, timeout=300)


# ---------------------------------------------------------------------------
# random mutations of the shipped documents


def node_paths(node, path=()):
    """Paths of every node of a JSON document, the root included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from node_paths(child, path + (key,))


NAMES = sorted({key for doc in SHIPPED.values() for path in node_paths(doc)
                for key in path if isinstance(key, str)}
               | {"poly", "tabulated", "times", "values", "delta", "beta",
                  "width", "family", "extra"})
SCALARS = st.one_of(
    st.integers(-3, 500), st.floats(-3.0, 500.0),
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 50.0, float("nan"), float("inf")]),
    st.booleans(), st.none(),
    st.sampled_from(["", "x", "exponential", "hyperbolic", "quasi_hyperbolic",
                     "tabulated", "hyperbolc"]))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.fixed_dictionaries({"poly": st.lists(inner, max_size=3)}),
        st.dictionaries(st.sampled_from(NAMES), inner, max_size=3)),
    max_leaves=6)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(1, 3))):
        *parent_path, key = draw(st.sampled_from(list(node_paths(doc))[1:]))
        parent = lookup(doc, parent_path)
        op = draw(st.sampled_from(["replace", "retype", "drop", "add"]))
        if op == "replace":
            parent[key] = draw(VALUES)
        elif op == "retype" and isinstance(parent[key], (int, float)):
            # 2 -> 2.0 and 2.0 -> 2; bools and fractions stay as they are
            value = parent[key]
            if not isinstance(value, bool) and float(value).is_integer():
                parent[key] = float(value) if isinstance(value, int) else int(value)
        elif op == "drop":
            del parent[key]
        elif op == "add":
            node = parent[key]
            if isinstance(node, dict):
                node[draw(st.sampled_from(NAMES))] = draw(VALUES)
            elif isinstance(node, list):
                node.append(copy.deepcopy(node[0]) if node and draw(st.booleans())
                            else draw(VALUES))
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_walker_agrees_with_jsonschema(doc):
    found = schema_violation(doc)
    if ORACLE.is_valid(doc) == (found is None):
        return
    # the two deliberate differences: an integer-valued float in an integer
    # field, and a NaN or infinity where a number goes (refused at it, or
    # past a oneOf at the deepest node its branches reach)
    assert ORACLE.is_valid(doc), found
    path, message = found
    value = lookup(doc, path)
    nodes = (lookup(value, p) for p in node_paths(value))
    if any(isinstance(v, float) and not math.isfinite(v) for v in nodes):
        assert message in (f"{value!r} is not of type 'number'",
                           f"{value!r} is not valid under any of the given "
                           f"schemas"), found
        return
    assert isinstance(value, float) and value.is_integer(), found
    assert message == f"{value!r} is not of type 'integer'"
