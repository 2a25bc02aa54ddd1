"""Diagnostics tests: grid oracle, conductance, bound checks, uniformity."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from inandout import bodies, planner
from inandout.diagnostics import (
    SATISFIED,
    VIOLATED,
    BoundCheck,
    GridOracle,
    UnsupportedCheck,
    certificate_soundness_check,
    enlarged_volume_ratio_mc,
    expected_trials_check,
    expected_trials_closed_form,
    failure_rate_slope,
    grid_tv_check,
    local_conductance_mc,
    per_iteration_checks,
    smoothed_conductance_samples,
    stationary_escape_check,
    stationary_failure_check,
)
from inandout.planner import Plan, PlanInputs
from inandout.sampler import make_rng


def triangle():
    """Right triangle with legs 1, carrying a crude two-ball certificate."""
    r = 1.0 / (2.0 + math.sqrt(2.0))
    body = bodies.make_halfspace_polytope(
        [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0],
        [r, r], r)
    R = math.hypot(1.0 - r, r)
    cert = bodies.naive_sandwich_certificate(r, R, 2)
    return bodies.with_growth(body, cert.alpha, cert.beta, cert.source)


def simplex_3d():
    r = 1.0 / (3.0 + math.sqrt(3.0))
    return bodies.make_halfspace_polytope(
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]],
        [0.0, 0.0, 0.0, 1.0], [r, r, r], r)


# ----------------------------------------------------------- BoundCheck


def test_bound_check_verdicts():
    ok = BoundCheck("a", empirical=1.0, theoretical_bound=0.9,
                    mc_std_error=0.05, n_samples=10)
    assert ok.verdict == SATISFIED                 # within three sigma
    bad = BoundCheck("b", empirical=1.0, theoretical_bound=0.9,
                     mc_std_error=0.01, n_samples=10)
    assert bad.verdict == VIOLATED
    d = ok.to_dict()
    assert set(d) == {"name", "empirical", "theoretical_bound",
                      "mc_std_error", "n_samples", "verdict", "note"}


# ---------------------------------------------------- local conductance


def test_local_conductance_certain_acceptance():
    big = bodies.make_box([-100.0, -100.0], [100.0, 100.0])
    p, se = local_conductance_mc(big, [0.0, 0.0], 0.01, 2000, make_rng(1))
    assert p == 1.0
    assert se == 0.0


def test_local_conductance_boundary_half():
    big = bodies.make_box([-100.0, -100.0], [0.0, 100.0])
    p, se = local_conductance_mc(big, [0.0, 0.0], 1.0, 100_000, make_rng(2))
    assert abs(p - 0.5) <= 4.0 * se


def test_local_conductance_matches_quadrature(unit_disk):
    y, h = (0.8, 0.0), 0.25

    def integrand(r, th):
        dx = r * math.cos(th) - y[0]
        dy = r * math.sin(th) - y[1]
        return r / (2.0 * math.pi * h) * math.exp(-(dx * dx + dy * dy) / (2.0 * h))

    exact, quad_err = integrate.dblquad(integrand, 0.0, 2.0 * math.pi,
                                        0.0, 1.0, epsabs=1e-11)
    assert quad_err < 1e-7
    p, se = local_conductance_mc(unit_disk, y, h, 200_000, make_rng(3))
    assert abs(p - exact) <= 4.0 * se


def test_local_conductance_validation(unit_disk):
    with pytest.raises(ValueError):
        local_conductance_mc(unit_disk, [0.0, 0.0], 0.0, 100, make_rng(1))
    with pytest.raises(ValueError):
        local_conductance_mc(unit_disk, [0.0, 0.0], 0.1, 0, make_rng(1))


# ------------------------------------------------- expected trial count


def test_expected_trials_closed_form_values():
    assert expected_trials_closed_form(1.0, 7) == 1.0
    assert expected_trials_closed_form(0.0, 7) == 7.0
    assert expected_trials_closed_form(0.5, 3) == 1.75
    assert expected_trials_closed_form(1e-12, 100) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        expected_trials_closed_form(1.5, 3)
    with pytest.raises(ValueError):
        expected_trials_closed_form(0.5, 0)


def test_expected_trials_closed_form_matches_simulation():
    p, N, n_sim = 0.3, 5, 100_000
    rng = make_rng(11)
    draws = np.minimum(rng.geometric(p, size=n_sim), N)
    target = expected_trials_closed_form(p, N)
    se = draws.std(ddof=1) / math.sqrt(n_sim)
    assert abs(draws.mean() - target) <= 4.0 * se


# ----------------------------------------------------------- grid oracle


@pytest.mark.parametrize("fixture,volume", [
    ("unit_disk", math.pi),
    ("unit_square", 1.0),
    ("annulus", 0.75 * math.pi),
    ("l_shape", 3.0),
    ("cross", 7.0),
])
def test_grid_oracle_volume(request, fixture, volume):
    body = request.getfixturevalue(fixture)
    oracle = GridOracle(body, resolution=400)
    assert abs(oracle.volume_estimate() - volume) <= 0.01 * volume


def test_grid_oracle_samples_land_in_body(unit_disk):
    oracle = GridOracle(unit_disk, resolution=400)
    pts = oracle.sample(make_rng(4), 20_000)
    lo, hi = unit_disk.bbox
    assert np.all(pts >= lo) and np.all(pts <= hi)
    # only boundary-straddling cells can leak outside the body
    assert np.count_nonzero(unit_disk.membership(pts)) >= 0.99 * 20_000


def test_grid_oracle_distance_tracks_analytic(unit_disk):
    oracle = GridOracle(unit_disk, resolution=400)
    pts = np.array([[1.5, 0.0], [0.0, 2.0], [3.0, 4.0], [0.2, -0.1]])
    true = np.maximum(np.hypot(pts[:, 0], pts[:, 1]) - 1.0, 0.0)
    got = oracle.distance(pts)
    diag = math.hypot(*oracle.step)
    assert np.all(np.abs(got - true) <= diag)
    assert got[3] == 0.0


def test_grid_oracle_rejects_other_dims():
    with pytest.raises(UnsupportedCheck):
        GridOracle(simplex_3d())


def test_grid_oracle_cell_index_clips(unit_square):
    oracle = GridOracle(unit_square, resolution=10)
    ij = oracle.cell_index(np.array([[-5.0, 0.5], [0.5, 99.0]]))
    assert ij.min() >= 0 and ij.max() <= 9


# ---------------------------------------------------------- escape check


def test_escape_check_far_distance(unit_disk):
    chk = stationary_escape_check(unit_disk, h=0.05, r=2.0, n_mc=20_000,
                                  rng=make_rng(5))
    assert chk.verdict == SATISFIED
    assert chk.empirical == 0.0
    assert chk.note == ""          # the disk has an exact distance function


def test_escape_check_trivial_regime(unit_disk):
    chk = stationary_escape_check(unit_disk, h=0.05, r=0.01, n_mc=5_000,
                                  rng=make_rng(6))
    assert chk.theoretical_bound > 1.0
    assert chk.verdict == SATISFIED


def test_escape_check_grid_fallback():
    body = triangle()
    beta = body.growth.beta
    h = 0.9 / (2.0 * 8.0 * beta * beta)
    chk = stationary_escape_check(body, h=h, r=1.0, n_mc=20_000,
                                  rng=make_rng(7))
    assert chk.verdict == SATISFIED
    assert "cell diagonal" in chk.note


def test_escape_check_hypothesis_gate(unit_disk):
    with pytest.raises(ValueError, match="regime"):
        stationary_escape_check(unit_disk, h=0.5, r=1.0, n_mc=100,
                                rng=make_rng(8))
    with pytest.raises(ValueError):
        stationary_escape_check(unit_disk, h=0.05, r=-1.0, n_mc=100,
                                rng=make_rng(8))
    bare = dataclasses.replace(unit_disk, growth=None)
    with pytest.raises(ValueError):
        stationary_escape_check(bare, h=0.05, r=1.0, n_mc=100, rng=make_rng(8))


def test_escape_check_gate_at_the_base_cap(unit_disk, annulus):
    for body in (unit_disk, annulus):
        cap = planner.step_size_regime(body.dim, body.growth.beta).base_cap
        chk = stationary_escape_check(body, h=cap, r=1.0, n_mc=100,
                                      rng=make_rng(8))
        assert chk.n_samples == 100
        with pytest.raises(ValueError, match="regime"):
            stationary_escape_check(body, h=cap * (1.0 + 1e-9), r=1.0,
                                    n_mc=100, rng=make_rng(8))


def test_escape_check_unsupported_in_3d():
    body = simplex_3d()
    h = 0.9 / (2.0 * 27.0 * body.growth.beta**2)
    with pytest.raises(UnsupportedCheck):
        stationary_escape_check(body, h=h, r=0.5, n_mc=100, rng=make_rng(9))


# ----------------------------------------- failure and trial-count checks


DISK_PLAN_INPUTS = PlanInputs(q=2, eps=0.2, M=1, C_PI=1, alpha=1.0, beta=1.0, n=2)


def test_failure_check_on_disk(unit_disk):
    p = planner.plan(DISK_PLAN_INPUTS)
    chk = stationary_failure_check(unit_disk, p, n_mc=400, rng=make_rng(10),
                                   inner_mc=2000)
    assert chk.verdict == SATISFIED
    assert chk.theoretical_bound == 3.0 / p.S
    assert chk.empirical <= chk.theoretical_bound
    assert "conservative" in chk.note


def test_trials_check_on_disk(unit_disk):
    p = planner.plan(DISK_PLAN_INPUTS)
    chk = expected_trials_check(unit_disk, p, n_mc=400, rng=make_rng(11),
                                inner_mc=2000)
    assert chk.verdict == SATISFIED
    assert chk.theoretical_bound == 16.0 * math.log(p.S)
    assert 1.0 <= chk.empirical <= chk.theoretical_bound


def test_trials_check_clamps_unresolvable_conductance(annulus):
    # with a coarse inner estimate some smoothed-law points record zero
    # hits; they must not each contribute ~N to the average
    inputs = PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=4.0 / 3.0,
                        beta=1.0, n=2)
    p = planner.plan(inputs)
    chk = expected_trials_check(annulus, p, n_mc=2000, rng=make_rng(30),
                                inner_mc=300)
    assert chk.empirical <= 300.0
    assert chk.verdict == SATISFIED
    if "clamped" in chk.note:
        assert chk.empirical < chk.theoretical_bound  # not saved by the SE


def test_per_iteration_regime_gate(unit_disk):
    p = planner.plan(DISK_PLAN_INPUTS)
    with pytest.raises(ValueError, match="per-iteration regime"):
        stationary_failure_check(unit_disk, dataclasses.replace(p, h=0.5),
                                 n_mc=10, rng=make_rng(1))
    with pytest.raises(ValueError, match="below the required"):
        expected_trials_check(unit_disk, dataclasses.replace(p, N=10),
                              n_mc=10, rng=make_rng(1))


def test_per_iteration_gate_agrees_with_plan_consistency(annulus):
    # the planner and the diagnostics gate read one cap: a schedule at
    # the cap passes both, one a relative 1e-9 above it fails both
    inputs = PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=4.0 / 3.0,
                        beta=1.0, n=2)
    p = planner.plan(inputs)
    cap = planner.step_size_regime(2, 1.0, 4.0 / 3.0, p.S).per_iteration_cap
    assert p.h <= cap
    at_cap = dataclasses.replace(p, h=cap)
    assert planner.check_plan_consistency(at_cap, inputs).ok
    per_iteration_checks(annulus, at_cap, n_mc=10, rng=make_rng(1), inner_mc=10)
    above = dataclasses.replace(p, h=cap * (1.0 + 1e-9))
    assert any("per-iteration cap" in v for v in
               planner.check_plan_consistency(above, inputs).violations)
    with pytest.raises(ValueError, match="per-iteration regime"):
        per_iteration_checks(annulus, above, n_mc=10, rng=make_rng(1), inner_mc=10)


def test_per_iteration_checks_share_one_sample(annulus):
    inputs = PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=4.0 / 3.0,
                        beta=1.0, n=2)
    p = planner.plan(inputs)
    failure, trials = per_iteration_checks(annulus, p, 500, make_rng(21),
                                           inner_mc=300)
    assert failure.to_dict() == stationary_failure_check(
        annulus, p, 500, make_rng(21), inner_mc=300).to_dict()
    assert trials.to_dict() == expected_trials_check(
        annulus, p, 500, make_rng(21), inner_mc=300).to_dict()


def test_smoothed_conductance_samples_shape(unit_square):
    vals = smoothed_conductance_samples(unit_square, 1e-4, 130, 50, make_rng(12))
    assert vals.shape == (130,)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    # a tiny step on a fat body keeps conductance near one
    assert vals.mean() >= 0.9


# ----------------------------------------------------------- TV / chi^2


def test_grid_tv_self_consistency(unit_disk):
    oracle = GridOracle(unit_disk, resolution=400)
    pts = oracle.sample(make_rng(13), 100_000)
    res = grid_tv_check(unit_disk, pts, 256, oracle=oracle)
    assert res.tv_estimate <= 0.03
    assert res.p_value >= 1e-3
    assert res.counts.sum() == 100_000
    assert res.expected.sum() == pytest.approx(100_000)


def test_grid_tv_flags_point_mass(unit_disk):
    pts = np.tile([0.1, 0.2], (5_000, 1))
    res = grid_tv_check(unit_disk, pts, 64)
    assert res.tv_estimate >= 1.0 - 2.0 / 64
    assert res.p_value < 1e-6


def test_grid_tv_validation(unit_disk):
    with pytest.raises(ValueError, match="too few"):
        grid_tv_check(unit_disk, np.zeros((10, 2)), 16)
    with pytest.raises(ValueError):
        grid_tv_check(unit_disk, np.zeros((100, 2)), 1)
    with pytest.raises(UnsupportedCheck):
        grid_tv_check(simplex_3d(), np.zeros((100, 3)), 4)


# ------------------------------------------------------ enlarged volume


def test_enlarged_ratio_degenerate_t(unit_disk):
    ratio, se = enlarged_volume_ratio_mc(unit_disk, 0.0, 10_000, make_rng(14))
    assert ratio == 1.0
    assert se == 0.0


def test_enlarged_ratio_disk_unit_dilation(unit_disk):
    # Vol(disk + 1) / Vol(disk) = (2/1)^2 = 4
    ratio, se = enlarged_volume_ratio_mc(unit_disk, 1.0, 200_000, make_rng(15))
    assert abs(ratio - 4.0) <= 4.0 * se


def test_enlarged_ratio_annulus_fills_hole(annulus):
    # dilating by the hole radius recovers the full 1.5-disk: ratio 3
    ratio, se = enlarged_volume_ratio_mc(annulus, 0.5, 200_000, make_rng(16))
    assert abs(ratio - 3.0) <= 4.0 * se


def test_enlarged_ratio_validation(unit_disk):
    with pytest.raises(ValueError):
        enlarged_volume_ratio_mc(unit_disk, -0.1, 100, make_rng(1))


@pytest.mark.parametrize("fixture", ["unit_disk", "unit_square", "annulus",
                                     "l_shape", "cross"])
@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_certificates_hold_empirically(request, fixture, t):
    body = request.getfixturevalue(fixture)
    chk = certificate_soundness_check(body, t, 40_000, make_rng(17))
    assert chk.verdict == SATISFIED


def test_certificate_check_on_gridded_polytope():
    chk = certificate_soundness_check(triangle(), 0.5, 40_000, make_rng(18))
    assert chk.verdict == SATISFIED


# ------------------------------------------------------------ slope fit


def test_failure_rate_slope_exact_line():
    slope, se = failure_rate_slope([0.1, 0.2, 0.3])
    assert slope == pytest.approx(0.1)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_failure_rate_slope_detects_decay():
    rates = 0.5 * np.exp(-0.3 * np.arange(20))
    slope, _ = failure_rate_slope(rates)
    assert slope < 0.0


def test_failure_rate_slope_noise_has_uncertainty():
    rng = make_rng(19)
    rates = 0.2 + 0.01 * rng.standard_normal(30)
    slope, se = failure_rate_slope(rates)
    assert se > 0.0
    assert abs(slope) <= 5.0 * se


def test_failure_rate_slope_validation():
    with pytest.raises(ValueError):
        failure_rate_slope([0.1, 0.2])
