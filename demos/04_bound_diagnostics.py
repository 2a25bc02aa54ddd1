"""
Checking the guarantees empirically
===================================

Three quantitative bounds underpin the schedule, all statements about
the smoothed stationary law (draw a uniform point, add one Gaussian
step):

  escape   -- mass found at distance > r from the body falls off like a
              chi-square tail in r/sqrt(h);
  failure  -- the chance an in-step exhausts all N attempts is <= 3/S;
  trials   -- the expected number of attempts per in-step is
              <= 16 * alpha * log S.

Each check estimates the left side, compares it with the bound, and
reports "satisfied" or "violated_beyond_3se" (beyond three standard
errors).  The escape check is a Monte Carlo mean.  For a 2-D body the
failure and trial checks are computed by grid quadrature instead: with
X uniform and Y = X + sqrt(h) Z, Y has density ell / vol, where the
local conductance ell = 1_K * phi_h is one blur of the body's bitmap.
Their error is the change from a grid of half the resolution, so they
resolve a failure mass of order 1e-10 against its bound of order 1e-6,
which no feasible Monte Carlo sample could.  The bounds assume
step-size regimes; out-of-regime requests are refused rather than
silently reported.
"""

import dataclasses
import math

from inandout import bodies, diagnostics, planner, sampler

disk = bodies.make_ball([0.0, 0.0], 1.0)
inputs = planner.PlanInputs(q=2, eps=0.2, M=1, C_PI=1,
                            alpha=1.0, beta=1.0, n=2)
plan = planner.plan(inputs)
print(f"disk schedule: h={plan.h:.3e}, N={plan.N}, S={plan.S:.3e}\n")

# escape mass at a few distances
for i, r in enumerate((0.25, 0.5, 1.0)):
    rng = sampler.make_rng(sampler.derive_seed(100, i))
    chk = diagnostics.stationary_escape_check(disk, plan.h, r, 50_000, rng)
    print(f"escape r={r:4.2f}: observed {chk.empirical:.2e}  "
          f"bound {chk.theoretical_bound:.3e}  -> {chk.verdict}")

# exhausting N attempts is rarer than 3/S, and attempts per in-step stay
# near 1 for a fat body; both from one grid of the local conductance (a
# 2-D body takes no Monte Carlo sample here, so n_mc and rng go unused)
rng = sampler.make_rng(sampler.derive_seed(200, 0))
fail, trials = diagnostics.per_iteration_checks(disk, plan, 4_000, rng)
print(f"\nfailure:      grid {fail.empirical:.4e} +- {fail.mc_std_error:.1e}  "
      f"bound {fail.theoretical_bound:.3e}  -> {fail.verdict}")
print(f"trials:       grid {trials.empirical:.4f} +- {trials.mc_std_error:.1e}  "
      f"bound {trials.theoretical_bound:8.2f}  -> {trials.verdict}")
print(f"              ({fail.note})")

# the closed form for E[min(geometric, N)] used by the trials check
print(f"\nE[min(G(0.5), 3)] = "
      f"{diagnostics.expected_trials_closed_form(0.5, 3)} (exactly 1.75)")

# out-of-regime step sizes are refused with a reason
try:
    diagnostics.stationary_escape_check(disk, 0.5, 1.0, 100,
                                        sampler.make_rng(1))
except ValueError as e:
    print(f"\nrefused out-of-regime check: {e}")

# the same refusal protects the per-iteration bounds when N is too small
try:
    diagnostics.per_iteration_checks(disk, dataclasses.replace(plan, N=10),
                                     100, sampler.make_rng(1))
except ValueError as e:
    print(f"refused under-provisioned check: {e}")
