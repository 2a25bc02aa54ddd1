"""Microbenchmarks of public calls, one layer at a time.

Each figure is the median over REPEATS timed loops of the per-call (or
per-point) time; the loop length is calibrated so that one loop takes
about `target_s`.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REPEATS = 5
BATCH = 256
UNIFORM_BATCH = 4096


def per_call(fn, target_s: float) -> float:
    """Median seconds per call of fn()."""
    fn()
    t = perf_counter()
    fn()
    once = max(perf_counter() - t, 1e-7)
    inner = max(1, int(target_s / once))
    times = []
    for _ in range(REPEATS):
        t = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - t) / inner)
    return statistics.median(times)


def layer_bodies(pkg):
    """The seven body kinds the membership figures are named after."""
    b = pkg.bodies
    hexagon = np.array([[math.cos(a), math.sin(a)] for a in np.arange(6) * math.pi / 3])
    return {
        "ball2": b.make_ball([0.0, 0.0], 1.0),
        "ball10": b.make_ball(np.zeros(10), 1.0),
        "box2": b.make_box([-1.0, -1.0], [1.0, 1.0]),
        "polytope2": b.make_halfspace_polytope(hexagon, np.ones(6), [0.0, 0.0], 1.0),
        "union2": b.union([b.make_box([0.0, 0.0], [2.0, 1.0]),
                           b.make_box([0.0, 1.0], [1.0, 2.0])], 3.0),
        "exclusion2": b.exclusion(b.make_ball([0.0, 0.0], 1.0),
                                  b.make_ball([0.0, 0.0], 0.5), 0.75 * math.pi),
        "star2": b.star_shaped([b.make_box([-2.0, -0.5], [2.0, 0.5]),
                                b.make_box([-0.5, -2.0], [0.5, 2.0])], 0.5),
    }


def run(pkg, annulus_doc: dict, target_s: float = 0.04) -> dict:
    """Every microbenchmark metric, by name, as (value, unit)."""
    bodies, sampler, diagnostics = pkg.bodies, pkg.sampler, pkg.diagnostics
    specfun, planner, cli = pkg.specfun, pkg.planner, pkg.cli
    rng = np.random.default_rng(12345)
    out = {}

    kinds = layer_bodies(pkg)
    for kind, body in kinds.items():
        lo, hi = body.bbox
        x = rng.uniform(lo, hi)
        xs = rng.uniform(lo, hi, size=(BATCH, body.dim))
        out[f"bodies.membership_point_us.{kind}"] = (1e6 * per_call(
            lambda: body.membership(x), target_s), "us/call")
        out[f"bodies.membership_batch_ns.{kind}"] = (1e9 / BATCH * per_call(
            lambda: body.membership(xs), target_s), "ns/point")

    ann = kinds["exclusion2"]
    prng = sampler.make_rng(7)
    out["bodies.sample_uniform_point_us.exclusion2"] = (1e6 * per_call(
        lambda: bodies.sample_uniform(ann, prng), target_s), "us/call")
    out["bodies.sample_uniform_batch_ns.exclusion2"] = (1e9 / UNIFORM_BATCH * per_call(
        lambda: bodies.sample_uniform(ann, prng, UNIFORM_BATCH), target_s), "ns/point")

    cfg = cli.parse_config(annulus_doc)
    inputs, _ = cli.resolve_plan_inputs(cfg)
    plan = planner.plan(inputs)
    ball10 = kinds["ball10"]
    ball_inputs = planner.PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=1.0, beta=1.0, n=10)
    h10 = planner.plan(ball_inputs).h
    # an out-step point far outside makes every in-step attempt miss
    n_miss = 256
    for tag, body, h in (("d2", ann, plan.h), ("d10", ball10, h10)):
        x0 = np.zeros(body.dim)
        x0[0] = 0.75 if tag == "d2" else 0.5
        far = np.full(body.dim, 5.0)
        out[f"sampler.forward_step_us.{tag}"] = (1e6 * per_call(
            lambda: sampler.forward_step(x0, h, prng), target_s), "us")
        out[f"sampler.backward_step_attempt_us.{tag}"] = (1e6 / n_miss * per_call(
            lambda: sampler.backward_step(far, h, n_miss, body, prng), target_s), "us")

    n_outer, inner = 64, 2000
    out["diagnostics.conductance_mpts_per_s"] = (n_outer * inner / 1e6 / per_call(
        lambda: diagnostics.smoothed_conductance_samples(ann, plan.h, n_outer, inner, prng),
        target_s), "Mpoints/s")
    out["diagnostics.expected_trials_closed_form_us"] = (1e6 * per_call(
        lambda: diagnostics.expected_trials_closed_form(0.37, plan.N), target_s), "us")

    out["specfun.gamma_q_us"] = (1e6 * per_call(
        lambda: specfun.gamma_q(7.5, 4.2), target_s), "us/call")
    out["specfun.chi_tail_us"] = (1e6 * per_call(
        lambda: specfun.chi_tail(4, 3.0), target_s), "us/call")

    out["planner.plan_us"] = (1e6 * per_call(lambda: planner.plan(inputs), target_s), "us")
    out["planner.check_plan_consistency_us"] = (1e6 * per_call(
        lambda: planner.check_plan_consistency(plan, inputs), target_s), "us")

    def parse_build():
        c = cli.parse_config(annulus_doc)
        cli.build_body(c.body_node)

    out["cli.parse_build_us"] = (1e6 * per_call(parse_build, target_s), "us")
    # the records a 200-chain run writes to samples.jsonl
    records200 = [{"chain": c, "outcome": "success", "x": list(rng.uniform(-1, 1, 2)),
                   "total_trials": int(rng.integers(2000, 9000)), "failed_at": None}
                  for c in range(200)]
    out["cli.dumps_canonical_ms.run200"] = (1e3 * per_call(
        lambda: [cli.dumps_canonical(r) for r in records200], target_s), "ms")
    return out
