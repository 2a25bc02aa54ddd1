"""Chi-distribution tails and related closed-form bounds.

Everything here is scalar math on Python floats.  The tail of the
chi distribution with m degrees of freedom,

    Q_m(r) = Pr(||Z|| >= r),   Z ~ N(0, I_m),

is the regularized upper incomplete gamma function evaluated at
(m/2, r^2/2).  The incomplete-gamma kernel is implemented in this
module (series / continued-fraction split) so that nothing downstream
depends on an external statistics package for these tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .planner import step_size_regime

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 100_000


def gamma_p(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s)."""
    if s <= 0.0:
        raise ValueError(f"shape must be positive, got {s}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _gamma_p_series(s, x)
    return 1.0 - _gamma_q_contfrac(s, x)


def gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s)."""
    if s <= 0.0:
        raise ValueError(f"shape must be positive, got {s}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_p_series(s, x)
    return _gamma_q_contfrac(s, x)


def _log_prefactor(s: float, x: float) -> float:
    # log of x^s e^-x / Gamma(s), the common prefactor of both expansions
    return s * math.log(x) - x - math.lgamma(s)


def _gamma_p_series(s: float, x: float) -> float:
    # power series for P(s, x); converges fast for x < s + 1
    term = 1.0 / s
    total = term
    k = 1
    while k < _MAX_ITER:
        term *= x / (s + k)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
        k += 1
    else:  # pragma: no cover - loop cap is defensive
        raise RuntimeError(f"series for P({s}, {x}) did not converge")
    return total * math.exp(_log_prefactor(s, x))


def _gamma_q_contfrac(s: float, x: float) -> float:
    # modified Lentz continued fraction for Q(s, x); use for x >= s + 1
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _TINY
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:  # pragma: no cover - loop cap is defensive
        raise RuntimeError(f"continued fraction for Q({s}, {x}) did not converge")
    return math.exp(_log_prefactor(s, x)) * h


def chi_tail(m: int, r: float) -> float:
    """Pr(||Z|| >= r) for a standard Gaussian Z in m dimensions.

    Args:
        m: degrees of freedom, integer >= 1.
        r: radius, >= 0.

    Returns:
        The upper tail probability, in [0, 1].
    """
    if not isinstance(m, (int,)) or isinstance(m, bool) or m < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {m!r}")
    if not (r >= 0.0):
        raise ValueError(f"radius must be nonnegative, got {r}")
    return gamma_q(m / 2.0, r * r / 2.0)


def log_chi_norm_const(n: int) -> float:
    """log of the chi-density normalizing constant 2^(n/2 - 1) Gamma(n/2)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return (n / 2.0 - 1.0) * math.log(2.0) + math.lgamma(n / 2.0)


def chi_norm_const(n: int) -> float:
    """Normalizing constant of the chi density in n dimensions.

    For n > 300 the value is assembled in log space before
    exponentiating; it still overflows to inf once the true value
    exceeds the float64 range (n around 305), so ratio work at large n
    should go through log_chi_norm_const.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n > 300:
        try:
            return math.exp(log_chi_norm_const(n))
        except OverflowError:
            return math.inf
    return 2.0 ** (n / 2.0 - 1.0) * math.gamma(n / 2.0)


@dataclass(frozen=True)
class GammaRatioReport:
    """Outcome of the step-size ratio check.

    all_below_one  -- every scaled ratio term was <= 1 (to roundoff)
    max_term       -- the largest term attained over i = 0..n
    hypothesis_ok  -- whether h was within the base regime cap on entry
    terms          -- the individual terms, index i = 0..n
    """

    all_below_one: bool
    max_term: float
    hypothesis_ok: bool
    terms: list = field(default_factory=list)


def check_gamma_ratio_bound(h: float, n: int, beta: float) -> GammaRatioReport:
    """Evaluate (sqrt(h) n beta)^i * N_{n+i}/N_n for i = 0..n.

    N_m is the chi normalizing constant.  Within the base step-size regime
    (planner.step_size_regime) every term is provably <= 1; this evaluates
    all of them in log space and reports the maximum.  Out-of-regime
    inputs are not an error — the report flags the violated hypothesis.
    """
    if h <= 0.0 or beta <= 0.0 or n < 1:
        raise ValueError("need h > 0, beta > 0, n >= 1")
    hypothesis_ok = h <= step_size_regime(n, beta).base_cap * (1.0 + 1e-12)
    log_base = 0.5 * math.log(h) + math.log(n) + math.log(beta)
    log_nn = log_chi_norm_const(n)
    terms = []
    for i in range(n + 1):
        log_term = i * log_base + log_chi_norm_const(n + i) - log_nn
        terms.append(math.exp(log_term))
    max_term = max(terms)
    return GammaRatioReport(
        all_below_one=max_term <= 1.0 + 1e-12,
        max_term=max_term,
        hypothesis_ok=hypothesis_ok,
        terms=terms,
    )


def gaussian_concentration_bound(n: int, r: float) -> float:
    """Closed-form upper bound exp(-(r - sqrt(n))^2 / 2) on the chi tail.

    Valid (and only accepted) for r >= sqrt(n).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    root_n = math.sqrt(n)
    if r < root_n:
        raise ValueError(f"radius {r} below sqrt(n) = {root_n}; bound does not apply")
    return math.exp(-((r - root_n) ** 2) / 2.0)
