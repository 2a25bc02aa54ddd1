"""
End-to-end: uniform samples from a body with a hole
===================================================

Each chain alternates an out-step (add Gaussian noise, possibly leaving
the body) with an in-step (redraw from the same Gaussian until back
inside, up to N attempts).  Chains that exhaust the threshold report
Failure rather than a biased point.  Here we run an ensemble on the
annulus, then test the output for uniformity with an equal-mass grid
histogram.
"""

import dataclasses
import math

import numpy as np

from inandout import bodies, diagnostics, planner, sampler

annulus = bodies.exclusion(
    bodies.make_ball([0.0, 0.0], 1.0),
    bodies.make_ball([0.0, 0.0], 0.5),
    0.75 * math.pi,
)

inputs = planner.PlanInputs(q=2, eps=0.2, M=1, C_PI=4.0,
                            alpha=annulus.growth.alpha,
                            beta=annulus.growth.beta, n=2)
full = planner.plan(inputs)
# the planned T is a worst-case guarantee; for a demo we truncate it
plan = dataclasses.replace(full, T=min(full.T, 1500))
print(f"schedule: T={plan.T} (planned {full.T}), h={plan.h:.3e}, N={plan.N}")

ens = sampler.run_ensemble(
    annulus,
    warm_start=lambda rng: bodies.sample_uniform(annulus, rng),
    plan=plan,
    n_chains=200,
    seed=42,
)
s = ens.summary
print(f"chains: {s['n_chains']}   failures: {s['failure_fraction']:.3f}")
print(f"in-step trials per chain: mean {s['mean_total_trials']:.1f}, "
      f"max {s['max_total_trials']}")

pts = np.array([r.point for r in ens.results if r.status == sampler.SUCCESS])

# radial sanity: for a uniform annulus, E[r^2] = (R^4 - r0^4)/(2 Vol/pi)
r2 = (pts**2).sum(axis=1)
expect = (1.0**4 - 0.5**4) / (2.0 * 0.75)
print(f"\nmean squared radius: {r2.mean():.4f}  (uniform law: {expect:.4f})")

# equal-mass histogram test against the exact-uniform reference
tv = diagnostics.grid_tv_check(annulus, pts, n_cells=16)
print(f"16-cell uniformity: TV ~ {tv.tv_estimate:.4f}, "
      f"chi2 = {tv.chi2_statistic:.2f}, p = {tv.p_value:.4f}")

# failure accounting per iteration: conditional rates should not trend
# upward as the chain runs (the chain stays warm)
rates = sampler.failure_rate_by_iteration(ens.results)
if np.any(rates > 0):
    slope, se = diagnostics.failure_rate_slope(rates)
    print(f"failure-rate slope: {slope:.2e} +- {se:.2e}")
else:
    print("no chain failed at any iteration")
