"""Planner tests: frozen worked example, consistency, bound algebra."""

import dataclasses
import math

import numpy as np
import pytest

from inandout import planner
from inandout.planner import Plan, PlanInputs, PlanOverflowError


BASE = PlanInputs(q=2, eps=0.2, M=1, C_PI=1, alpha=1, beta=1, n=2)


def test_worked_example_schedule():
    p = planner.plan(BASE)
    assert p.eps_prime == 0.1
    assert p.eta == 0.025
    # the fixed-point quantity is 32 (2 + log 360) log 10 here
    z = 32.0 * (2.0 + math.log(360.0)) * math.log(10.0)
    assert planner._z_value(BASE) == z
    assert p.T == math.ceil(2.0 * z * math.log(z))
    # frozen regression values (full precision)
    assert p.T == 7397
    assert p.S == 887640.0
    assert p.h == 0.007442720603550961
    assert p.N == 97259223
    assert p.T0 == 0
    assert p.T_tilde == 621.0479675626847


def test_planned_step_size_is_the_regime_helper_value():
    # plan() takes h from the shared regime, below its per-iteration cap
    p = planner.plan(BASE)
    regime = planner.step_size_regime(BASE.n, BASE.beta, BASE.alpha, p.S)
    assert p.h == regime.planned_h
    assert regime.planned_h <= regime.per_iteration_cap <= regime.base_cap


def test_failure_budget_uses_rounded_iteration_count():
    p = planner.plan(BASE)
    assert p.S == 3.0 * p.T * BASE.M / p.eta


def test_consistency_passes_for_planned_schedule():
    rep = planner.check_plan_consistency(planner.plan(BASE), BASE)
    assert rep.ok
    assert rep.violations == []


def test_consistency_catches_doubled_step_size():
    p = planner.plan(BASE)
    rep = planner.check_plan_consistency(dataclasses.replace(p, h=2.0 * p.h), BASE)
    assert not rep.ok
    assert any("per-iteration" in v or "step size" in v for v in rep.violations)


def test_consistency_catches_short_run():
    p = planner.plan(BASE)
    rep = planner.check_plan_consistency(dataclasses.replace(p, T=100), BASE)
    assert not rep.ok


def test_fixed_point_inequality_arithmetic():
    # z = 3: y = 2 z log z = 6.5917, and y / log y = 3.4945 >= z
    z = 3.0
    y = 2.0 * z * math.log(z)
    assert y == pytest.approx(6.591673732008658, rel=1e-15)
    assert y / math.log(y) >= z
    # the same relation holds for every planned schedule by construction
    p = planner.plan(BASE)
    assert p.T / math.log(p.T) >= planner._z_value(BASE)


def test_burn_in_is_zero_for_near_uniform_starts():
    # the burn-in numerator is q (log M - 1): nonpositive until M = e
    for M in (1.0, 2.0, math.e * 0.999):
        p = planner.plan(dataclasses.replace(BASE, M=M))
        assert p.T0 == 0
    p = planner.plan(dataclasses.replace(BASE, M=10.0))
    assert p.T0 > 0


def test_renyi_error_bound_meets_budget():
    p = planner.plan(BASE)
    assert planner.renyi_error_bound(p, BASE, p.eta) <= BASE.eps
    # with a zero failure budget only the contraction term remains
    assert planner.renyi_error_bound(p, BASE, 0.0) <= p.eps_prime


def test_renyi_error_bound_randomized_inputs():
    rng = np.random.default_rng(99)
    for _ in range(50):
        inp = PlanInputs(
            q=float(rng.uniform(2.0, 6.0)),
            eps=float(rng.uniform(0.02, 0.45)),
            M=float(rng.uniform(1.0, 50.0)),
            C_PI=float(rng.uniform(1.0, 10.0)),
            alpha=float(rng.uniform(1.0, 8.0)),
            beta=float(rng.uniform(0.05, 3.0)),
            n=int(rng.integers(2, 8)),
        )
        p = planner.plan(inp)
        assert planner.renyi_error_bound(p, inp, p.eta) <= inp.eps
        assert planner.check_plan_consistency(p, inp).ok


def test_renyi_error_bound_at_burn_in_boundary():
    p = planner.plan(BASE)
    stalled = dataclasses.replace(p, T=p.T0)
    # no contraction has happened yet: the bound is exactly 1 + 4 eta
    assert planner.renyi_error_bound(stalled, BASE, p.eta) == 1.0 + 4.0 * p.eta


def test_renyi_error_bound_rejects_bad_arguments():
    p = planner.plan(BASE)
    with pytest.raises(ValueError):
        planner.renyi_error_bound(p, BASE, -0.1)
    with pytest.raises(ValueError):
        planner.renyi_error_bound(dataclasses.replace(p, T=-1), BASE, 0.0)


def test_iteration_count_monotone_in_difficulty():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        inp = PlanInputs(
            q=float(rng.uniform(2.0, 5.0)),
            eps=float(rng.uniform(0.05, 0.45)),
            M=float(rng.uniform(1.0, 30.0)),
            C_PI=float(rng.uniform(1.0, 8.0)),
            alpha=float(rng.uniform(1.0, 5.0)),
            beta=float(rng.uniform(0.1, 2.0)),
            n=int(rng.integers(2, 6)),
        )
        T = planner.plan(inp).T
        assert planner.plan(dataclasses.replace(inp, q=inp.q + 1.0)).T >= T
        assert planner.plan(dataclasses.replace(inp, C_PI=inp.C_PI * 2.0)).T >= T
        assert planner.plan(dataclasses.replace(inp, M=inp.M * 3.0)).T >= T
        assert planner.plan(dataclasses.replace(inp, eps=inp.eps / 2.0)).T >= T


def test_beta_is_clamped_to_inverse_dimension():
    low = PlanInputs(q=2, eps=0.2, M=1, C_PI=1, alpha=1, beta=1e-6, n=4)
    ref = PlanInputs(q=2, eps=0.2, M=1, C_PI=1, alpha=1, beta=0.25, n=4)
    assert low.beta == 0.25
    assert planner.plan(low) == planner.plan(ref)


def test_desk_scale_overflow():
    huge = PlanInputs(q=8, eps=0.01, M=1e6, C_PI=1e4, alpha=1e6, beta=50.0, n=50)
    with pytest.raises(PlanOverflowError, match="desk-scale exceeded"):
        planner.plan(huge)


def test_input_validation():
    good = dict(q=2, eps=0.2, M=1, C_PI=1, alpha=1, beta=1, n=2)
    for key, bad in [("q", 1.5), ("eps", 0.0), ("eps", 0.5), ("M", 0.5),
                     ("C_PI", 0.0), ("alpha", 0.9), ("beta", 0.0),
                     ("beta", -1.0), ("n", 1), ("n", 2.0), ("n", True)]:
        kw = dict(good)
        kw[key] = bad
        with pytest.raises(ValueError):
            PlanInputs(**kw)


def test_serialization_round_trip():
    p = planner.plan(BASE)
    assert Plan.from_dict(p.to_dict()) == p
    assert PlanInputs.from_dict(BASE.to_dict()) == BASE


def test_expected_total_trials_bound_value():
    # 64 M alpha z (log(6 M z / eta))^2, natural order of evaluation
    z = planner._z_value(BASE)
    eta = BASE.eps / 8.0
    expect = 64.0 * BASE.M * BASE.alpha * z * math.log(6.0 * BASE.M * z / eta) ** 2
    assert planner.expected_total_trials_bound(BASE) == expect
