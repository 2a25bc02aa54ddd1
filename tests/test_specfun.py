"""Tests for the chi-tail kernel and the closed-form inequalities.

The tail values are checked two independent ways: against direct
numerical quadrature of the chi density (scipy.integrate) and against
a 30-digit reference (mpmath).  Neither route shares code with the
implementation's series/continued-fraction kernel.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy import integrate

from inandout import planner, specfun


def chi_pdf(x: float, m: int) -> float:
    if x <= 0.0:
        return 0.0
    return math.exp(
        (m - 1) * math.log(x) - x * x / 2.0 - specfun.log_chi_norm_const(m)
    )


def quad_tail(m: int, r: float) -> float:
    val, err = integrate.quad(chi_pdf, r, math.inf, args=(m,),
                              epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err < 1e-11
    return val


def mp_tail(m: int, r: float) -> float:
    with mpmath.workdps(30):
        return float(mpmath.gammainc(m / 2.0, r * r / 2.0, mpmath.inf,
                                     regularized=True))


def _chi_tail_even(m: int, r: float) -> float:
    # closed form for even m: Q_m(r) = e^-u * sum_{k<m/2} u^k / k!, u = r^2/2.
    # Evaluated in log space term by term so large u stays accurate.
    u = r * r / 2.0
    if u == 0.0:
        return 1.0
    logu = math.log(u)
    total = 0.0
    for k in range(m // 2):
        total += math.exp(-u + k * logu - math.lgamma(k + 1))
    return min(total, 1.0)


@dataclass(frozen=True)
class ChiTail:
    """Chi upper-tail evaluator for a fixed dimension.

    `method` selects the evaluation route: "gamma" uses the
    incomplete-gamma kernel (any m), "closed_form_even" uses the finite
    Poisson sum available when m is even.  Both agree to roundoff; the
    second is the reference the kernel is cross-checked against.
    """

    m: int
    method: str = "gamma"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"degrees of freedom must be >= 1, got {self.m}")
        if self.method not in ("gamma", "closed_form_even"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "closed_form_even" and self.m % 2 != 0:
            raise ValueError("closed_form_even requires even degrees of freedom")

    def __call__(self, r: float) -> float:
        if self.method == "closed_form_even":
            return _chi_tail_even(self.m, r)
        return specfun.chi_tail(self.m, r)


# ------------------------------------------------------------- chi_tail


def test_tail_two_dim_closed_form():
    # in two dimensions the tail is exactly exp(-r^2/2)
    for r in (0.0, 0.5, 1.0, 2.5, 10.0):
        assert specfun.chi_tail(2, r) == pytest.approx(math.exp(-r * r / 2.0),
                                                       rel=1e-14)


def test_tail_one_dim_matches_two_sided_normal():
    # Pr(|Z| >= r) = erfc(r / sqrt(2)); r = 1.959964 gives the familiar 5%
    r = 1.959964
    assert specfun.chi_tail(1, r) == pytest.approx(math.erfc(r / math.sqrt(2.0)),
                                                   rel=1e-13)
    assert specfun.chi_tail(1, r) == pytest.approx(0.05, abs=1e-6)


def test_tail_at_zero_is_one():
    for m in (1, 2, 7, 100):
        assert specfun.chi_tail(m, 0.0) == 1.0


def test_tail_against_quadrature():
    for m in (1, 2, 3, 5, 10, 50):
        for r in (0.1, 1.0, 3.0, 10.0):
            assert specfun.chi_tail(m, r) == pytest.approx(quad_tail(m, r),
                                                           abs=1e-12)


def test_tail_accuracy_across_contract_domain():
    # absolute error <= 1e-12 for m up to 1e4 with r^2/2 up to 700
    cases = [(1, 37.416), (4, 37.416), (100, 5.0), (1000, 20.0),
             (10_000, 37.0), (10_000, 1.0), (333, 26.0)]
    for m, r in cases:
        assert abs(specfun.chi_tail(m, r) - mp_tail(m, r)) <= 1e-12


def test_tail_monotone_in_radius_and_dimension():
    rs = np.linspace(0.0, 8.0, 33)
    for m in (1, 2, 3, 10, 40):
        vals = [specfun.chi_tail(m, float(r)) for r in rs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    for r in (0.5, 1.0, 3.0):
        vals = [specfun.chi_tail(m, r) for m in range(1, 30)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_tail_even_closed_form_agrees():
    for m in (2, 4, 10, 60):
        ct = ChiTail(m, method="closed_form_even")
        for r in (0.0, 0.3, 1.0, 4.0, 9.0):
            assert ct(r) == pytest.approx(specfun.chi_tail(m, r), rel=1e-12,
                                          abs=1e-15)


def test_tail_rejects_bad_arguments():
    with pytest.raises(ValueError):
        specfun.chi_tail(0, 1.0)
    with pytest.raises(ValueError):
        specfun.chi_tail(2, -0.5)
    with pytest.raises(ValueError):
        specfun.chi_tail(2.5, 1.0)
    with pytest.raises(ValueError):
        ChiTail(3, method="closed_form_even")


def test_gamma_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        specfun.gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.gamma_q(1.0, -1.0)
    assert specfun.gamma_p(3.0, 0.0) == 0.0
    assert specfun.gamma_q(3.0, 0.0) == 1.0


# ------------------------------------------------------ norm constants


def test_norm_const_small_dimensions():
    # closed forms: n=1 gives sqrt(pi/2), n=2 gives 1
    assert specfun.chi_norm_const(1) == pytest.approx(math.sqrt(math.pi / 2.0),
                                                      rel=1e-14)
    assert specfun.chi_norm_const(2) == pytest.approx(1.0, rel=1e-14)
    assert specfun.chi_norm_const(3) == pytest.approx(
        math.sqrt(2.0) * math.gamma(1.5), rel=1e-14)


def test_norm_const_normalizes_the_density():
    for m in (1, 3, 8):
        total, _ = integrate.quad(chi_pdf, 0.0, math.inf, args=(m,))
        assert total == pytest.approx(1.0, rel=1e-10)


def test_norm_const_log_space_consistency():
    # direct and log-space evaluation agree where both are finite
    for n in (250, 299, 300, 301, 320, 340):
        direct = 2.0 ** (n / 2.0 - 1.0) * math.gamma(n / 2.0)
        assert specfun.chi_norm_const(n) == pytest.approx(direct, rel=1e-12)
    assert math.isfinite(specfun.log_chi_norm_const(10_000))


# ----------------------------------------------------- the ratio check


def test_gamma_ratio_bound_in_regime():
    rep = specfun.check_gamma_ratio_bound(1.0 / (2.0 * 4**3 * 1.0), 4, 1.0)
    assert rep.hypothesis_ok
    assert rep.all_below_one
    assert rep.terms[0] == pytest.approx(1.0, abs=1e-15)
    assert rep.max_term <= 1.0 + 1e-12


def test_gamma_ratio_bound_violated_out_of_regime():
    rep = specfun.check_gamma_ratio_bound(10.0 / (2.0 * 4**3 * 1.0), 4, 1.0)
    assert not rep.hypothesis_ok
    assert not rep.all_below_one
    assert rep.max_term > 1.0


def test_gamma_ratio_bound_hypothesis_at_the_base_cap():
    # the gate admits exactly the base cap of the shared regime and
    # refuses a step a relative 1e-9 above it
    for n, beta in ((2, 1.0), (4, 0.3), (7, 2.5)):
        cap = planner.step_size_regime(n, beta).base_cap
        assert specfun.check_gamma_ratio_bound(cap, n, beta).hypothesis_ok
        assert not specfun.check_gamma_ratio_bound(cap * (1.0 + 1e-9), n,
                                                   beta).hypothesis_ok


def test_gamma_ratio_bound_randomized_in_regime():
    rng = np.random.default_rng(515)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        beta = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        h = float(rng.uniform(0.0, 1.0)) / (2.0 * n**3 * beta**2)
        if h == 0.0:
            continue
        rep = specfun.check_gamma_ratio_bound(h, n, beta)
        assert rep.hypothesis_ok
        assert rep.all_below_one, (h, n, beta, rep.max_term)


def test_gamma_ratio_bound_large_dimension():
    n = 5000
    rep = specfun.check_gamma_ratio_bound(1.0 / (2.0 * n**3), n, 1.0)
    assert rep.all_below_one


# ------------------------------------------------- concentration bound


def test_concentration_bound_dominates_tail():
    for n in range(1, 51):
        root = math.sqrt(n)
        for r in np.linspace(root, root + 6.0, 13):
            assert specfun.chi_tail(n, float(r)) <= \
                specfun.gaussian_concentration_bound(n, float(r)) + 1e-15


def test_concentration_bound_rejects_small_radius():
    with pytest.raises(ValueError):
        specfun.gaussian_concentration_bound(4, 1.9)
