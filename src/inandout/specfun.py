"""Chi-distribution tails and related closed-form bounds.

Everything here is scalar math on Python floats.  The tail of the
chi distribution with m degrees of freedom,

    Q_m(r) = Pr(||Z|| >= r),   Z ~ N(0, I_m),

is the regularized upper incomplete gamma function evaluated at
(m/2, r^2/2).  Its shape m/2 is a multiple of 1/2, as is the shape
(cells - 1)/2 of the grid chi-square p-value, and at those shapes the
function has a finite closed form in `exp`, `lgamma` and `erfc`
(`gamma_q`), so the module needs no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .planner import step_size_regime

_EPS = 2.0 ** -53  # half an ulp of 1: a term below this share of the sum is lost


def gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    The shape s must be a positive multiple of 1/2, where Q is a finite
    sum (DLMF 8.4 and the recurrence of 8.8):

        Q(k, x)       = sum_{j<k} e^-x x^j / j!
        Q(k + 1/2, x) = erfc(sqrt x) + sum_{j<k} e^-x x^(j+1/2) / Gamma(j + 3/2)

    Each term is exp(-x + (a - 1) log x - lgamma(a)), so a large x
    underflows no factor on its own.  The terms rise up to a = x and
    fall after it; the sum stops once a falling term is below 2^-53 of
    the running sum, so a shape far above x costs about x terms, not s.
    """
    if not (s > 0.0 and (2.0 * s).is_integer()):
        raise ValueError(f"shape must be a positive multiple of 1/2, got {s}")
    if not (x >= 0.0):
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if float(s).is_integer():
        a, total = 1.0, 0.0
    else:
        a, total = 1.5, math.erfc(math.sqrt(x))
    log_x = math.log(x)
    while a <= s:
        term = math.exp(-x + (a - 1.0) * log_x - math.lgamma(a))
        total += term
        if a > x and term < _EPS * total:
            break
        a += 1.0
    return min(total, 1.0)


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
