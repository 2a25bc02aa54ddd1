"""Self-tests of the output checks: wrong inputs are rejected, exact ones pass.

    python3 -m pytest -q bench/test_checks.py

Every input is built with NumPy alone, at the pooled sample sizes the
workloads produce (100 annulus points, 180 ball points).
"""

import math

import numpy as np
import pytest
from scipy import stats

import checks

ANNULUS_N, BALL_N = 100, 180


def uniform_annulus(rng, m, r_lo=0.5):
    r = np.sqrt(rng.uniform(r_lo**2, 1.0, m))
    a = rng.uniform(0.0, 2 * math.pi, m)
    return np.column_stack([r * np.cos(a), r * np.sin(a)])


def uniform_ball(rng, m, n=10, radius_power=1.0):
    z = rng.standard_normal((m, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * (rng.random((m, 1)) ** (1.0 / n)) ** radius_power


def records(points, trials=2000):
    return [{"chain": c, "outcome": "success", "x": list(p), "total_trials": trials,
             "failed_at": None} for c, p in enumerate(points)]


@pytest.mark.parametrize("seed", range(5))
def test_exact_uniform_draws_pass(seed):
    rng = np.random.default_rng(seed)
    ann, ball = uniform_annulus(rng, ANNULUS_N), uniform_ball(rng, BALL_N)
    assert checks.check_uniform("annulus", ann) == []
    assert checks.check_uniform("ball10", ball) == []
    assert checks.check_samples("annulus", records(ann), ANNULUS_N, 2000) == []
    assert checks.check_samples("ball10", records(ball), BALL_N, 2000) == []


@pytest.mark.parametrize("seed", range(5))
def test_full_disk_is_not_the_annulus(seed):
    disk = uniform_annulus(np.random.default_rng(seed), ANNULUS_N, r_lo=0.0)
    # the points from the hole fail both the inside test and the radial law
    assert checks.check_inside("annulus", disk)
    assert any("radial" in p for p in checks.check_uniform("annulus", disk))


@pytest.mark.parametrize("seed", range(5))
def test_squeezed_ball_radii_are_rejected(seed):
    squeezed = uniform_ball(np.random.default_rng(seed), BALL_N, radius_power=2.0)
    assert checks.check_inside("ball10", squeezed) == []
    assert any("radial" in p for p in checks.check_uniform("ball10", squeezed))


def test_a_point_outside_is_rejected():
    rng = np.random.default_rng(0)
    for shape, pts, bad in (("annulus", uniform_annulus(rng, ANNULUS_N), [0.0, 0.49]),
                            ("ball10", uniform_ball(rng, BALL_N), [1.0 + 1e-9] + [0.0] * 9)):
        pts[17] = bad
        assert checks.check_inside(shape, pts)
        assert checks.check_samples(shape, records(pts), len(pts), 2000)


def test_too_few_trials_are_rejected():
    recs = records(uniform_annulus(np.random.default_rng(0), ANNULUS_N))
    recs[3]["total_trials"] = 1999
    assert checks.check_samples("annulus", recs, ANNULUS_N, 2000)


def annulus_report():
    """A diagnose report on the README annulus config, bounds from the formulas."""
    s = checks.SHAPES["annulus"]
    alpha, n = s["alpha"], s["n"]
    plan = checks.shape_plan("annulus")
    h, S = plan["h"], plan["S"]

    def rec(name, bound, empirical=0.0, se=0.0):
        return {"name": name, "empirical": empirical, "theoretical_bound": bound,
                "mc_std_error": se, "n_samples": 20000, "verdict": "satisfied",
                "note": "", "status": "ran"}

    chk = [rec(f"stationary_escape(r={r})",
               alpha * (n + 1) * stats.chi(2 * n).sf(r / math.sqrt(h))) for r in (0.25, 0.5)]
    chk.append(rec("stationary_failure", 3.0 / S))
    chk.append(rec("expected_trials", 16.0 * alpha * math.log(S), 1.9, 0.1))
    chk.append(rec("certificate_soundness(t=0.5)", alpha * 1.5**2, 2.99, 0.03))
    chk.append({"name": "grid_tv", "status": "ran", "p_value": 0.5, "verdict": "satisfied"})
    return {"checks": chk, "environment": {"h": h}}


def test_diagnose_report_passes():
    assert checks.check_diagnose_annulus(annulus_report(), [0.25, 0.5], [0.5]) == []


@pytest.mark.parametrize("index", range(5))
def test_altered_bound_is_rejected(index):
    report = annulus_report()
    report["checks"][index]["theoretical_bound"] *= 1.0 + 1e-9
    assert checks.check_diagnose_annulus(report, [0.25, 0.5], [0.5])


def test_certificate_estimate_off_the_exact_ratio_is_rejected():
    report = annulus_report()
    report["checks"][4]["empirical"] = 3.0 - 5 * 0.03
    assert checks.check_diagnose_annulus(report, [0.25, 0.5], [0.5])


def test_violated_check_is_rejected():
    report = annulus_report()
    report["checks"][5]["verdict"] = "violated_beyond_3se"
    assert checks.check_diagnose_annulus(report, [0.25, 0.5], [0.5])


def test_first_hit_share_against_the_smoothed_law():
    h = checks.shape_plan("annulus")["h"]
    expected = checks.expected_first_hit("annulus", h)
    # X uniform, two Gaussian moves of variance h: Monte Carlo of E[l(Y)]
    rng = np.random.default_rng(1)
    x = uniform_annulus(rng, 400_000)
    z = x + math.sqrt(2 * h) * rng.standard_normal(x.shape)
    r2 = np.sum(z * z, axis=1)
    mc = np.mean((r2 >= 0.25) & (r2 <= 1.0))
    assert abs(mc - expected) < 4 * math.sqrt(expected * (1 - expected) / x.shape[0])
    chains = [(2000, round(2000 * expected))] * 19 + [(2000, 1800)]
    assert checks.check_first_hit("annulus", h, chains)[0] == []
    assert checks.check_first_hit("annulus", h, [(2000, 1900)] * 10 + [(2000, 1950)] * 10)[0]
