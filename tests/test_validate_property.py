"""validate against its per-sample reference on random problems with one defect."""

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tilq import (BaseCosts, Dimensions, DynamicsField, TwoTimeField,  # noqa: E402
                  make_discounted, make_kernel)
from test_validate import masked, raising_where  # noqa: E402
from validate_reference import reference_validate  # noqa: E402
from tilq import validate  # noqa: E402

DEFECTS = ("none", "indefinite M", "negative Q", "asymmetric Q", "NaN",
           "raises", "derivative raises", "wrong derivative", "non-PSD G",
           "A raises")
FIELDS = ("Q", "S", "M", "q", "rho")


def spd(rng, k, floor):
    X = rng.normal(size=(k, k))
    return X @ X.T / k + floor * np.eye(k)


@st.composite
def defective_problems(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["exponential", "hyperbolic",
                                   "quasi_hyperbolic"]))
    defect, field = draw(st.sampled_from(DEFECTS)), draw(st.sampled_from(FIELDS))
    cut = draw(st.floats(0.05, 0.95))
    params = {"exponential": {"delta": rng.uniform(0.0, 1.0)},
              "hyperbolic": {"k": rng.uniform(0.0, 2.0)},
              "quasi_hyperbolic": {"beta": rng.uniform(0.5, 1.0),
                                   "delta": rng.uniform(0.0, 0.5),
                                   "width": rng.uniform(0.05, 0.3)}}[family]
    costs = dict(Q=spd(rng, n, 0.1), S=0.1 * rng.normal(size=(m, n)),
                 M=spd(rng, m, 1.0), q=0.1 * rng.normal(size=n),
                 rho=0.1 * rng.normal(size=m), G=spd(rng, n, 0.0),
                 g=0.1 * rng.normal(size=n))
    if defect == "indefinite M":
        costs["M"][0, 0] = -1.0 - np.abs(costs["M"]).sum()
    if defect == "negative Q":
        costs["Q"][0, 0] = -1.0
    if defect == "non-PSD G":
        costs["G"][0, 0] = -1.0
    A, B, b = rng.normal(size=(n, n)), rng.normal(size=(n, m)), rng.normal(size=n)

    def A_fn(t):
        if defect == "A raises" and t > cut:
            raise ArithmeticError("A undefined late")
        return A

    spec = make_discounted(Dimensions(n, m), 1.0,
                           DynamicsField(A=A_fn, B=lambda t: B, b=lambda t: b),
                           BaseCosts(**costs), make_kernel(family, **params))
    f = getattr(spec, field)
    late = lambda t, s: np.asarray(s) > cut  # noqa: E731
    if defect == "asymmetric Q" and n > 1:
        bump = np.zeros((n, n))
        bump[0, 1] = 1e-3
        spec = dataclasses.replace(spec, Q=masked(spec.Q, late,
                                                  lambda t, s, v: v + bump))
    elif defect == "NaN":
        f = masked(f, late, lambda t, s, v: np.nan)
    elif defect == "raises":
        f = TwoTimeField(raising_where(f.value, late, "undefined late"),
                         raising_where(f.dvalue_dt, late, "undefined late"),
                         f.shape)
    elif defect == "derivative raises":
        f = TwoTimeField(f.value, raising_where(
            f.dvalue_dt, lambda t, s: np.asarray(t) > cut, "no derivative"),
            f.shape)
    elif defect == "wrong derivative":
        dvalue = f.dvalue_dt
        f = TwoTimeField(f.value, lambda t, s: 3.0 * dvalue(t, s) + 0.5, f.shape)
    spec = dataclasses.replace(spec, **{field: f})
    return spec, draw(st.integers(4, 60))


@settings(max_examples=40, deadline=None)
@given(defective_problems())
def test_matches_reference_with_one_defect(problem):
    spec, samples = problem
    assert (validate(spec, samples).violations
            == reference_validate(spec, samples).violations)
