"""Parameter planning for the In-and-Out chain.

Given the target accuracy and the coarse facts about the body (warmness
of the start, Poincare constant, volume-growth certificate), this
module computes the full run schedule: iteration count T, failure
budget S, step size h, per-iteration trial threshold N, and the burn-in
/ mixing markers T0 and T_tilde.  All formulas are evaluated on plain
Python floats with natural logarithms; integer quantities are rounded
up at the end, and every rounding direction is the conservative one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

T_LIMIT = 2**31
# Defaults of the `diagnose` settings that diagnostics' signatures share
# with the CLI config; they sit here because every command loads this
# module, and diagnostics only the command that runs it.
RESOLUTION = 400   # GridOracle cells per axis
INNER_MC = 2_000   # proposals per outer point of the nested Monte Carlo


class PlanOverflowError(ValueError):
    """Raised when the computed iteration count leaves desk scale."""


@dataclass(frozen=True)
class PlanInputs:
    """Validated inputs for plan().

    q      -- Renyi order of the target guarantee, >= 2
    eps    -- total Renyi-divergence error budget, in (0, 1/2)
    M      -- warmness of the start distribution, >= 1
    C_PI   -- Poincare constant of the uniform target, >= 1
    alpha  -- growth-certificate prefactor, >= 1
    beta   -- growth-certificate rate; values below 1/n are clamped up
    n      -- ambient dimension, integer >= 2
    """

    q: float
    eps: float
    M: float
    C_PI: float
    alpha: float
    beta: float
    n: int

    def __post_init__(self):
        if not (self.q >= 2.0):
            raise ValueError(f"q must be >= 2, got {self.q}")
        if not (0.0 < self.eps < 0.5):
            raise ValueError(f"eps must lie in (0, 1/2), got {self.eps}")
        if not (self.M >= 1.0):
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not (self.C_PI >= 1.0):
            raise ValueError(f"C_PI must be >= 1, got {self.C_PI}")
        if not (self.alpha >= 1.0):
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        # the schedule is only stated for beta >= 1/n; smaller certified
        # rates are valid but give no extra mileage, so clamp up
        object.__setattr__(self, "beta", max(float(self.beta), 1.0 / self.n))
        for name in ("q", "eps", "M", "C_PI", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class Plan:
    """A complete run schedule.

    eps_prime -- contraction share of the error budget (eps / 2)
    eta       -- failure share of the error budget (eps / 8)
    T         -- iteration count (integer)
    S         -- failure budget parameter, S = 3 T M / eta
    h         -- step size
    N         -- per-iteration trial threshold (integer)
    T0        -- burn-in marker for the divergence recursion (integer)
    T_tilde   -- analytic iteration requirement that T dominates
    """

    eps_prime: float
    eta: float
    T: int
    S: float
    h: float
    N: int
    T0: int
    T_tilde: float


class StepSizeRegime(NamedTuple):
    """The three step sizes step_size_regime returns."""

    base_cap: float
    per_iteration_cap: float
    planned_h: float


def step_size_regime(n: int, beta: float, alpha: float = 1.0,
                     S: float = 1.0) -> StepSizeRegime:
    """The step-size regime the chain's guarantees rest on.

    With base = 2 beta^2 n^3 and excess = log((n+1) alpha S) / n: the
    escape and norm-ratio bounds need h <= base_cap = 1 / base, which is
    free of alpha and S (base-regime callers leave them at their
    defaults); the failure (<= 3/S) and trial (<= 16 alpha log S) bounds
    need h <= per_iteration_cap = 1 / (base max(1, excess)); plan() takes
    planned_h = 1 / (base (1 + excess)), below that cap as excess > 0.
    """
    base = 2.0 * beta**2 * n**3
    excess = math.log((n + 1) * alpha * S) / n
    return StepSizeRegime(1.0 / base, 1.0 / (base * max(1.0, excess)),
                          1.0 / (base * (1.0 + excess)))


def trial_floor(alpha: float, S: float) -> float:
    """The floor 8 alpha S log S that the per-iteration trial threshold N must reach."""
    return 8.0 * alpha * S * math.log(S)


def _z_value(inp: PlanInputs) -> float:
    # the quantity whose near-fixed-point gives the iteration count:
    # T = 2 z log z resolves T >= z * (2 log T-ish) self-consistently
    eta = inp.eps / 8.0
    eps_prime = inp.eps / 2.0
    return (
        4.0
        * inp.q
        * inp.C_PI
        * inp.beta**2
        * inp.n**2
        * (inp.n + math.log(3.0 * (inp.n + 1) * inp.alpha * inp.M / eta))
        * math.log(inp.M / eps_prime)
    )


def plan(inputs: PlanInputs) -> Plan:
    """Compute the full schedule for the given inputs.

    Raises PlanOverflowError when the iteration count would exceed 2^31
    or a quantity of the schedule leaves float range ("desk-scale
    exceeded"): runs that long are out of scope here.
    """
    try:
        eps_prime = inputs.eps / 2.0
        eta = inputs.eps / 8.0

        z = _z_value(inputs)
        t_real = 2.0 * z * math.log(z)
        if not (t_real <= T_LIMIT):
            raise PlanOverflowError(
                f"desk-scale exceeded: iteration count {t_real:.3e} is beyond 2^31"
            )
        T = math.ceil(t_real)

        # the failure budget is computed from the *rounded* T so that the
        # final (T, S, h, N) quadruple is internally consistent
        S = 3.0 * T * inputs.M / eta
        h = step_size_regime(inputs.n, inputs.beta, inputs.alpha, S).planned_h
        N = math.ceil(trial_floor(inputs.alpha, S))

        log_rate = math.log1p(h / inputs.C_PI)
        # warmness enters only through log M; for M < e the burn-in is zero
        T0 = max(0, math.ceil(inputs.q * (math.log(inputs.M) - 1.0) / (2.0 * log_rate)))
        T_tilde = T0 + inputs.q * math.log(1.0 / eps_prime) / log_rate
    except (OverflowError, ZeroDivisionError) as e:
        # extreme inputs push an intermediate out of float range
        raise PlanOverflowError(
            f"desk-scale exceeded: the schedule leaves float range ({e})") from e

    return Plan(
        eps_prime=eps_prime,
        eta=eta,
        T=T,
        S=S,
        h=h,
        N=N,
        T0=T0,
        T_tilde=T_tilde,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def check_plan_consistency(p: Plan, inputs: PlanInputs) -> ConsistencyReport:
    """Re-derive every interlocking constraint the schedule must satisfy.

    Returns a report listing violated assertions; an empty list means
    the plan is internally consistent.
    """
    v = []
    if not (p.S >= 3.0):
        v.append(f"failure budget S = {p.S} below 3")
    if not (p.h <= 0.5):
        v.append(f"step size h = {p.h} above 1/2")
    if not (p.h <= 1.0 / (2.0 * inputs.n)):
        v.append(f"step size h = {p.h} above 1/(2n)")

    # mixing requirement: T must dominate (2 q C_PI / h) log(M / eps')
    t_mix = (2.0 * inputs.q * inputs.C_PI / p.h) * math.log(inputs.M / p.eps_prime)
    if not (p.T >= t_mix):
        v.append(f"T = {p.T} below mixing requirement {t_mix}")
    if not (p.T >= p.T_tilde):
        v.append(f"T = {p.T} below analytic requirement T_tilde = {p.T_tilde}")

    h_cap = step_size_regime(inputs.n, inputs.beta, inputs.alpha, p.S).per_iteration_cap
    if not (p.h <= h_cap):
        v.append(f"step size h = {p.h} above per-iteration cap {h_cap}")
    n_floor = trial_floor(inputs.alpha, p.S)
    if not (p.N >= n_floor):
        v.append(f"trial threshold N = {p.N} below floor {n_floor}")

    # the near-fixed-point relation: y = 2 z log z with z >= 2 implies
    # y / log y >= z, which is how T was sized in the first place
    z = _z_value(inputs)
    if not (z >= 2.0):
        v.append(f"fixed-point argument z = {z} below 2")
    elif not (p.T / math.log(p.T) >= z):
        v.append(f"T / log T = {p.T / math.log(p.T)} below z = {z}")
    return ConsistencyReport(v)


def renyi_error_bound(p: Plan, inputs: PlanInputs, eta_actual: float) -> float:
    """Guaranteed Renyi-q error of the output law after T iterations.

    The first term is the geometric contraction left after burn-in, the
    second is the price of conditioning on no chain failure with budget
    eta_actual.
    """
    if not (0.0 <= eta_actual <= 0.5):
        raise ValueError(f"eta_actual must lie in [0, 1/2], got {eta_actual}")
    if p.T < p.T0:
        raise ValueError(f"T = {p.T} below burn-in T0 = {p.T0}")
    contraction = math.exp(
        -(p.T - p.T0) / inputs.q * math.log1p(p.h / inputs.C_PI)
    )
    return contraction + 4.0 * eta_actual


def expected_total_trials_bound(inputs: PlanInputs) -> float:
    """Closed-form bound on the expected total trial count of a full run.

    Evaluates 64 M alpha z (log(6 M z / eta))^2 with z the fixed-point
    quantity behind the iteration count.
    """
    eta = inputs.eps / 8.0
    z = _z_value(inputs)
    return 64.0 * inputs.M * inputs.alpha * z * math.log(6.0 * inputs.M * z / eta) ** 2
