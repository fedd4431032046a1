"""validate against its per-sample reference, and the checks the reference lacks."""

import dataclasses
import math

import numpy as np
import pytest

from tilq import (BaseCosts, Dimensions, DynamicsField, TerminalField,
                  TwoTimeField, make_discounted, tabulated_kernel, validate)
from tilq.problem import _sample_pairs
from tilq.problem_io import load_shipped_problem, shipped_problem_names
from conftest import threestate_spec, twostate_spec
from validate_reference import reference_validate


def assert_same_report(spec, samples, **kw):
    """validate's violations equal the reference's; returns them."""
    got = validate(spec, samples, **kw).violations
    assert got == reference_validate(spec, samples, **kw).violations
    return got


def tabulated_poly_spec(k=1.0, a=0.2, qa=0.3, qb=0.1, mc=0.4):
    """n = 2, m = 1: tabulated hyperbolic kernel, A, Q, M linear in time.

    Built like the benchmark's generated problem: Q and M have callable
    bases, which the separable fields call once per node.
    """
    times = np.linspace(0.0, 1.0, 201)
    table = 1.0 / (1.0 + k * np.clip(times[None, :] - times[:, None], 0.0, None))
    dynamics = DynamicsField(
        A=lambda t: np.array([[0.0, 1.0], [-0.5 - a * t, -0.3]]),
        B=lambda t: np.array([[0.0], [1.0]]), b=lambda t: np.array([0.05, 0.0]))
    base = BaseCosts(
        Q=lambda s: np.array([[1.0 + qa * s, 0.1], [0.1, 0.5 + qb * s]]),
        S=[[0.1, 0.0]], M=lambda s: np.array([[1.0 + mc * s]]),
        q=[0.02, 0.0], rho=[0.01], G=[[0.5, 0.0], [0.0, 0.5]], g=[0.05, 0.0])
    return make_discounted(Dimensions(2, 1), 1.0, dynamics, base,
                           tabulated_kernel(times, table), name="tabulated_poly")


def with_base(spec, **base):
    """spec's kernel and dynamics with the twostate base costs overridden."""
    costs = dict(Q=[[1.0, 0.1], [0.1, 0.5]], S=[[0.1, 0.0]], M=[[1.0]],
                 q=[0.02, 0.0], rho=[0.01], G=[[0.5, 0.0], [0.0, 0.5]],
                 g=[0.05, 0.0])
    costs.update(base)
    return make_discounted(spec.dims, spec.horizon, spec.dynamics,
                           BaseCosts(**costs), spec.kernel)


def masked(f, where, fill):
    """f with its values replaced by fill(t, s) wherever where(t, s)."""
    def value(t, s):
        v = f.value(t, s)
        hit = np.asarray(where(t, s))
        return np.where(hit.reshape(hit.shape + (1,) * len(f.shape)),
                        fill(t, s, v), v)
    return TwoTimeField(value, f.dvalue_dt, f.shape)


def raising_where(fn, where, message):
    def wrapped(t, s):
        if np.any(where(t, s)):
            raise ValueError(message)
        return fn(t, s)
    return wrapped


def broken_specs():
    spec = twostate_spec()
    Q = spec.Q
    raising_S = TwoTimeField(
        raising_where(spec.S.value, lambda t, s: np.asarray(s) > 0.5,
                      "S undefined for s > 0.5"),
        raising_where(spec.S.dvalue_dt, lambda t, s: np.asarray(s) > 0.5,
                      "S_t undefined for s > 0.5"), spec.S.shape)
    raising_dq = TwoTimeField(
        spec.q.value,
        raising_where(spec.q.dvalue_dt, lambda t, s: np.asarray(t) > 0.4,
                      "q_t undefined for t > 0.4"), spec.q.shape)

    def A_late(t):
        if t > 0.5:
            raise ArithmeticError("A undefined after 0.5")
        return np.array([[0.0, 1.0], [-0.5, -0.3]])

    three = threestate_spec()
    cases = {
        "indefinite M": (dataclasses.replace(
            three, M=TwoTimeField.separable(three.kernel, [[1.0, 2.0], [2.0, 1.0]],
                                            (2, 2))), "M not positive definite"),
        "negative Q": (with_base(spec, Q=[[-1.0, 0.0], [0.0, 0.5]]),
                       "Q not positive semi-definite"),
        "Q asymmetric at some pairs": (dataclasses.replace(spec, Q=masked(
            Q, lambda t, s: (np.asarray(s) > 0.6) & (np.asarray(t) < 0.3),
            lambda t, s, v: v + np.array([[0.0, 1e-3], [0.0, 0.0]]))),
            "Q not symmetric"),
        "NaN for s > 0.7": (dataclasses.replace(spec, rho=masked(
            spec.rho, lambda t, s: np.asarray(s) > 0.7,
            lambda t, s, v: np.nan)), "rho not finite"),
        "S raises for s > 0.5": (dataclasses.replace(spec, S=raising_S),
                                 "S evaluation failed"),
        "q derivative raises": (dataclasses.replace(spec, q=raising_dq),
                                "q derivative probe failed"),
        "wrong M derivative": (dataclasses.replace(spec, M=TwoTimeField(
            spec.M.value, lambda t, s: 3.0 * spec.M.dvalue_dt(t, s),
            spec.M.shape)), "M derivative inconsistent"),
        "non-PSD G": (with_base(spec, G=[[-0.5, 0.0], [0.0, 0.5]]),
                      "G not positive semi-definite"),
        "A raises": (dataclasses.replace(spec, dynamics=dataclasses.replace(
            spec.dynamics, A=A_late)), "A evaluation failed"),
    }
    # several fields broken at once: the report interleaves them per pair
    several = cases["negative Q"][0]
    cases["several at once"] = (dataclasses.replace(
        several, Q=masked(several.Q, lambda t, s: np.asarray(s) > 0.4,
                          lambda t, s, v: v + np.array([[0.0, 1e-3], [0.0, 0.0]])),
        S=raising_S, M=cases["wrong M derivative"][0].M,
        rho=cases["NaN for s > 0.7"][0].rho), "rho not finite")
    return cases


BROKEN = broken_specs()


class TestMatchesReference:
    @pytest.mark.parametrize("name", shipped_problem_names())
    def test_shipped_problems(self, name):
        spec = load_shipped_problem(name).spec
        for samples in (20, 60, 100):
            assert assert_same_report(spec, samples) == []

    def test_threestate(self):
        for samples in (20, 60):
            assert assert_same_report(threestate_spec(), samples) == []

    def test_tabulated_kernel(self):
        spec = tabulated_poly_spec()
        assert assert_same_report(spec, 40, derivative_rtol=5e-3) == []
        # at the default tolerance the table's stencil error shows as
        # derivative violations, whose details must match digit for digit
        found = assert_same_report(spec, 60)
        assert found and all(v.assumption.endswith("derivative inconsistent")
                             for v in found)

    def test_every_stencil_branch(self):
        # at 450 samples the pairs take all three finite-difference stencils
        # and one pair lies too close to s = 0 to be probed at all
        t, s = _sample_pairs(1.0, 450).T
        h = 0.45 / 450
        probed = s >= 2 * h
        forward = probed & (t - h < 0.0)
        backward = probed & ~forward & (t + h > s)
        assert not probed.all() and forward.any() and backward.any()
        found = assert_same_report(BROKEN["wrong M derivative"][0], 450)
        assert sum(v.assumption == "M derivative inconsistent"
                   for v in found) == probed.sum()
        # the tabulated kernel is flat beyond t = s, so a central stencil in
        # place of the backward one would change the reported errors
        assert assert_same_report(tabulated_poly_spec(), 450)

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_broken_spec(self, case):
        spec, expected = BROKEN[case]
        found = assert_same_report(spec, 60)
        assert expected in {v.assumption for v in found}


class TestTerminalShape:
    @pytest.mark.parametrize("G", [np.ones((2, 3)), np.ones(2)])
    def test_wrong_shape_G_reported(self, G):
        spec = load_shipped_problem("twostate_hyperbolic").spec
        terminal = dataclasses.replace(spec.terminal, G=lambda t: G)
        report = validate(dataclasses.replace(spec, terminal=terminal), 40)
        assert report.violations
        assert {v.assumption for v in report.violations} == {"G wrong shape"}
        assert all(v.detail == f"{G.shape} != (2, 2)" for v in report.violations)

    def test_wrong_shape_g_reported(self):
        spec = load_shipped_problem("twostate_hyperbolic").spec
        terminal = dataclasses.replace(spec.terminal, g=lambda t: np.zeros(3))
        report = validate(dataclasses.replace(spec, terminal=terminal), 40)
        assert report.violations
        assert {v.assumption for v in report.violations} == {"g wrong shape"}

    def test_wrong_shape_derivative_reported(self):
        spec = load_shipped_problem("twostate_hyperbolic").spec
        terminal = TerminalField(G=spec.terminal.G, g=spec.terminal.g,
                                 dG_dt=lambda t: np.zeros(3),
                                 dg_dt=spec.terminal.dg_dt)
        report = validate(dataclasses.replace(spec, terminal=terminal), 40)
        assert report.violations
        assert {v.assumption for v in report.violations} == {
            "G derivative probe failed"}


class TestArrayContract:
    def test_scalar_only_field_reported_once(self):
        spec = load_shipped_problem("hyperbolic_scalar_k1").spec
        Q = TwoTimeField(lambda t, s: math.exp(-(s - t)),
                         lambda t, s: math.exp(-(s - t)), (1, 1))
        report = validate(dataclasses.replace(spec, Q=Q), 60)
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.assumption == "Q rejects time arrays"
        assert v.location == tuple(_sample_pairs(1.0, 60)[0])
        assert "TypeError" in v.detail
        # each pair on its own evaluates, so the reference sees nothing
        assert reference_validate(dataclasses.replace(spec, Q=Q), 60).ok

    def test_scalar_only_derivative_reported_once(self):
        spec = load_shipped_problem("hyperbolic_scalar_k1").spec
        M = TwoTimeField(spec.M.value,
                         lambda t, s: np.full((1, 1), -1.0 / (1.0 + float(s - t)) ** 2),
                         (1, 1))
        report = validate(dataclasses.replace(spec, M=M), 60)
        assert [v.assumption for v in report.violations] == [
            "M rejects time arrays"]

    def test_failing_pairs_named_before_contract_check(self):
        # raises at s > 0.5 and on any time array: the late pairs fail alone,
        # the rest evaluate alone but not together
        spec = load_shipped_problem("hyperbolic_scalar_k1").spec

        def value(t, s):
            if s > 0.5:
                raise ValueError("undefined for s > 0.5")
            return math.exp(-(s - t))

        S = TwoTimeField(value, value, (1, 1))
        found = validate(dataclasses.replace(spec, S=S), 40).violations
        rejects = [v for v in found if v.assumption == "S rejects time arrays"]
        failed = [v for v in found if v.assumption == "S evaluation failed"]
        assert len(rejects) == 1 and rejects[0].location[1] <= 0.5
        assert failed and all(v.location[1] > 0.5 for v in failed)
        assert len(found) == len(failed) + 1

    def test_calls_do_not_grow_with_samples(self):
        # each two-time callable is called a fixed number of times, not once
        # per sample: the values once plus twice per finite-difference
        # stencil that some pair takes, the derivative once.  At 40 samples
        # the pairs take the forward and central stencils; at 400 the one
        # forward pair has s < 2h and is not probed, so only the central
        # stencil remains.
        spec = load_shipped_problem("twostate_hyperbolic").spec
        calls = {}

        def counted(name, f):
            def count(key, fn):
                def wrapped(t, s):
                    calls[key] = calls.get(key, 0) + 1
                    return fn(t, s)
                return wrapped
            return TwoTimeField(count(name, f.value), count(f"{name}_t", f.dvalue_dt),
                                f.shape)

        names = ("Q", "S", "M", "q", "rho")
        spec = dataclasses.replace(spec, **{
            name: counted(name, getattr(spec, name)) for name in names})
        for samples, stencils in ((40, 2), (400, 1)):
            calls.clear()
            assert validate(spec, samples).ok
            assert calls == {**{name: 1 + 2 * stencils for name in names},
                             **{f"{name}_t": 1 for name in names}}
