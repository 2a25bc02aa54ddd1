"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (wall-clock budget included) to the real stdout so
the lines survive pytest's capture.

Every expected number here is either transcribed independently from the
published schedule/bound formulas (and must match the library to the
ulp), frozen from an oracle run, or a statistical requirement with its
tolerance spelled out.
"""

import dataclasses
import json
import math
import sys
import time

import numpy as np
from scipy import integrate

from inandout import bodies, cli, diagnostics, planner, sampler, specfun
from inandout.planner import PlanInputs


def report(capsys, line: str):
    with capsys.disabled():
        print(line, flush=True)


def timed(budget_s: float):
    """Context manager asserting a wall-clock budget."""

    class _Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.t0
            if exc[0] is None:
                assert self.elapsed < budget_s, (
                    f"runtime {self.elapsed:.1f}s exceeds budget {budget_s}s"
                )
            return False

    return _Timer()


def make_annulus():
    outer = bodies.make_ball([0.0, 0.0], 1.0)
    hole = bodies.make_ball([0.0, 0.0], 0.5)
    return bodies.exclusion(outer, hole, 0.75 * math.pi)


# ---------------------------------------------------------------------
# 1. schedule formulas reproduced exactly on 20 frozen inputs
# ---------------------------------------------------------------------

FROZEN_INPUTS = [
    # (q, eps, M, C_PI, alpha, beta, n) -> frozen iteration count
    ((2, 0.2, 1, 1, 1.0, 1.0, 2), 7397),
    ((2, 0.2, 1, 4, 4.0 / 3.0, 1.0, 2), 37519),
    ((2, 0.1, 1, 1, 1.0, 1.0, 2), 11041),
    ((2, 0.4, 1, 1, 1.0, 1.0, 2), 4383),
    ((2, 0.2, 10, 1, 1.0, 1.0, 2), 21964),
    ((2, 0.2, 100, 1, 1.0, 1.0, 2), 43756),
    ((3, 0.2, 1, 1, 1.0, 1.0, 2), 11803),
    ((5, 0.2, 1, 1, 1.0, 1.0, 2), 21155),
    ((2, 0.2, 1, 25, 1.0, 1.0, 2), 278442),
    ((2, 0.2, 1, 1, 1000.0, 1.0, 2), 15248),
    ((2, 0.2, 1, 1, 1.0, 8.0, 2), 782725),
    ((2, 0.2, 1, 1, 1.0, 1e-6, 4), 2013),
    ((2, 0.2, 1, 1, 1.0, 0.25, 4), 2013),
    ((2, 0.2, 1, 1, 2.0, 0.5, 3), 4919),
    ((2, 0.05, 1, 1, 1.0, 1.0, 3), 44535),
    ((2, 0.2, 1, 1, 1.0, 1.0, 10), 656098),
    ((2, 0.2, 1, 1, 1.0, 0.1, 20), 31278),
    ((3, 0.3, 5, 2, 1.5, 0.7, 3), 66390),
    ((2, 0.45, 1, 1, 1.0, 2.0, 5), 243153),
    ((4, 0.25, 2, 9, 2.0, 1.0, 2), 276855),
]


def transcribed_schedule(q, eps, M, C_PI, alpha, beta, n):
    """The schedule evaluated directly from the published formulas."""
    beta = max(beta, 1.0 / n)
    eps_prime = eps / 2.0
    eta = eps / 8.0
    z = (4.0 * q * C_PI * beta**2 * n**2
         * (n + math.log(3.0 * (n + 1) * alpha * M / eta))
         * math.log(M / eps_prime))
    T = math.ceil(2.0 * z * math.log(z))
    S = 3.0 * T * M / eta
    h = 1.0 / (2.0 * beta**2 * n**3
               * (1.0 + math.log((n + 1) * alpha * S) / n))
    N = math.ceil(8.0 * alpha * S * math.log(S))
    return T, S, h, N


def test_criterion_1_planner_exactness(capsys):
    with timed(1.0) as t:
        for (q, eps, M, C_PI, alpha, beta, n), frozen_T in FROZEN_INPUTS:
            inputs = PlanInputs(q=q, eps=eps, M=M, C_PI=C_PI,
                                alpha=alpha, beta=beta, n=n)
            p = planner.plan(inputs)
            T, S, h, N = transcribed_schedule(q, eps, M, C_PI, alpha, beta, n)
            assert p.T == T == frozen_T, (inputs, p.T, T, frozen_T)
            assert p.S == S, (inputs, p.S, S)
            assert p.h == h, (inputs, p.h, h)
            assert p.N == N, (inputs, p.N, N)
            rep = planner.check_plan_consistency(p, inputs)
            assert rep.ok, (inputs, rep.violations)
    report(capsys, f"[acceptance 1] schedule formulas exact to the ulp and "
           f"self-consistent on {len(FROZEN_INPUTS)} frozen inputs: "
           f"PASS ({t.elapsed:.2f}s < 1s)")


# ---------------------------------------------------------------------
# 2. special functions against quadrature and closed-form inequalities
# ---------------------------------------------------------------------


def quadrature_chi_tail(m: int, r: float) -> float:
    norm = math.exp((m / 2.0 - 1.0) * math.log(2.0) + math.lgamma(m / 2.0))
    val, _ = integrate.quad(
        lambda s: s ** (m - 1) * math.exp(-s * s / 2.0) / norm,
        r, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def test_criterion_2_special_functions(capsys):
    with timed(5.0) as t:
        worst = 0.0
        for m in (1, 2, 3, 5, 10, 50):
            for r in (0.1, 1.0, 3.0, 10.0):
                got = specfun.chi_tail(m, r)
                want = quadrature_chi_tail(m, r)
                worst = max(worst, abs(got - want))
        assert worst <= 1e-10, worst

        # tail concentration: Q_n(r) <= exp(-(r - sqrt(n))^2 / 2)
        for n in range(1, 51):
            root = math.sqrt(n)
            for k in range(0, 11):
                r = root + 0.5 * k
                tail = specfun.chi_tail(n, r)
                env = specfun.gaussian_concentration_bound(n, r)
                assert tail <= env * (1.0 + 1e-12), (n, r, tail, env)

        # norm-constant ratio control on randomized in-regime triples
        rng = np.random.default_rng(20240917)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(2, 61))
            beta = 10.0 ** rng.uniform(-3.0, 1.0)
            h = rng.uniform(0.05, 1.0) / (2.0 * n**3 * beta**2)
            chk = specfun.check_gamma_ratio_bound(h, n, beta)
            assert chk.hypothesis_ok
            violations += not chk.all_below_one
        assert violations == 0
    report(capsys, f"[acceptance 2] tail kernel within 1e-10 of quadrature on the "
           f"24-point grid (worst {worst:.2e}); concentration and ratio "
           f"inequalities hold (0/1000 violations): PASS ({t.elapsed:.2f}s < 5s)")


# ---------------------------------------------------------------------
# 3. certificate algebra worked examples + empirical falsification
# ---------------------------------------------------------------------


def test_criterion_3_certificate_algebra(capsys):
    with timed(30.0) as t:
        annulus = make_annulus()
        a, b = annulus.growth.alpha, annulus.growth.beta
        assert abs(a - 4.0 / 3.0) < 1e-12 and abs(b - 1.0) < 1e-12

        disks = bodies.union(
            [bodies.make_ball([-3.0, 0.0], 1.0), bodies.make_ball([3.0, 0.0], 1.0)],
            2.0 * math.pi)
        assert abs(disks.growth.alpha - 1.0) < 1e-12
        assert abs(disks.growth.beta - 1.0) < 1e-12

        # abstract worked case: parts (Vol, alpha, beta) = (1,1,1), (3,2,2)
        part1 = bodies.with_growth(bodies.make_box([0.0, 0.0], [1.0, 1.0]),
                                   1.0, 1.0)
        part2 = bodies.with_growth(bodies.make_box([4.0, 0.0], [5.0, 3.0]),
                                   2.0, 2.0)
        mixed = bodies.union([part1, part2], 4.0)
        assert abs(mixed.growth.alpha - 2.0) < 1e-12
        assert abs(mixed.growth.beta - math.sqrt(3.25)) < 1e-12

        checks = []
        for i, body in enumerate((annulus, disks, mixed)):
            for j, tt in enumerate((0.1, 0.5, 1.0)):
                rng = sampler.make_rng(sampler.derive_seed(20240917, 10 * i + j))
                chk = diagnostics.certificate_soundness_check(body, tt, 100_000, rng)
                checks.append(chk)
                assert chk.verdict == diagnostics.SATISFIED, chk.to_dict()
        margin = min(c.theoretical_bound + 3 * c.mc_std_error - c.empirical
                     for c in checks)
    report(capsys, f"[acceptance 3] union/exclusion certificates match hand values; "
           f"9/9 growth-bound MC checks within 3 SE (tightest slack "
           f"{margin:.4f}): PASS ({t.elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------------
# 4. stationary-law bound suite on disk and annulus
# ---------------------------------------------------------------------


def test_criterion_4_bound_suite(capsys):
    with timed(300.0) as t:
        cases = [
            ("disk", bodies.make_ball([0.0, 0.0], 1.0),
             PlanInputs(q=2, eps=0.2, M=1, C_PI=1, alpha=1.0, beta=1.0, n=2)),
            ("annulus", make_annulus(),
             PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=4.0 / 3.0,
                        beta=1.0, n=2)),
        ]
        lines = []
        for name, body, inputs in cases:
            p = planner.plan(inputs)
            for i, r in enumerate((0.25, 0.5)):
                rng = sampler.make_rng(sampler.derive_seed(41, i))
                chk = diagnostics.stationary_escape_check(body, p.h, r, 100_000, rng)
                assert chk.verdict == diagnostics.SATISFIED, chk.to_dict()
            # both records from one grid quadrature, which takes no draws
            rng = sampler.make_rng(sampler.derive_seed(42, 0))
            fail, trials = diagnostics.per_iteration_checks(body, p, 10_000, rng)
            assert fail.verdict == diagnostics.SATISFIED, fail.to_dict()
            assert trials.verdict == diagnostics.SATISFIED, trials.to_dict()
            lines.append(f"{name}: escape ok, failure {fail.empirical:.2e} <= "
                         f"{fail.theoretical_bound:.2e}, trials "
                         f"{trials.empirical:.2f} <= {trials.theoretical_bound:.1f}")
    report(capsys, f"[acceptance 4] stationary escape/failure/trial bounds satisfied "
           f"({'; '.join(lines)}): PASS ({t.elapsed:.1f}s < 300s)")


# ---------------------------------------------------------------------
# 5. end-to-end statistical run on the annulus
# ---------------------------------------------------------------------


def test_criterion_5_end_to_end_annulus(capsys):
    with timed(600.0) as t:
        annulus = make_annulus()
        inputs = PlanInputs(q=2, eps=0.2, M=1, C_PI=4,
                            alpha=4.0 / 3.0, beta=1.0, n=2)
        full = planner.plan(inputs)
        # documented deviation: the planned T is conservative; the
        # statistical check truncates to 2000 iterations to stay inside
        # the runtime budget
        p = dataclasses.replace(full, T=min(full.T, 2000))
        ens = sampler.run_ensemble(
            annulus, lambda g: bodies.sample_uniform(annulus, g),
            p, 200, 20240917)

        failure_fraction = ens.summary["failure_fraction"]
        fail_cap = 0.2 + 3.0 * math.sqrt(0.16 / 200.0)
        ok_a = failure_fraction <= fail_cap

        pts = np.array([r.point for r in ens.results
                        if r.status == sampler.SUCCESS])
        tv = diagnostics.grid_tv_check(annulus, pts, 16)
        ok_b = tv.p_value >= 0.01

        rates = sampler.failure_rate_by_iteration(ens.results)
        if np.any(rates > 0.0):
            slope, se = diagnostics.failure_rate_slope(rates)
            ok_c = slope <= 0.0 or slope <= 1.645 * se
            c_text = f"failure-rate slope {slope:.2e} (se {se:.2e})"
        else:
            ok_c = True
            c_text = "no failures at any iteration"
    verdict = "PASS" if (ok_a and ok_b and ok_c) else "FAIL"
    report(capsys, f"[acceptance 5] 200 annulus chains: failure fraction "
           f"{failure_fraction:.3f} <= {fail_cap:.3f}; uniformity p = "
           f"{tv.p_value:.4f} >= 0.01 over 16 cells; {c_text}: "
           f"{verdict} ({t.elapsed:.1f}s < 600s)")
    assert ok_a and ok_b and ok_c


# ---------------------------------------------------------------------
# 6. one-step fixed-point property on the unit square
# ---------------------------------------------------------------------


def test_criterion_6_one_step_stationarity(capsys):
    with timed(120.0) as t:
        square = bodies.make_box([0.0, 0.0], [1.0, 1.0])
        p = planner.Plan(eps_prime=0.1, eta=0.025, T=1, S=100.0,
                         h=0.05, N=10_000, T0=0, T_tilde=0.0)
        ens = sampler.run_ensemble(
            square, lambda g: bodies.sample_uniform(square, g),
            p, 20_000, 8)
        pts = np.array([r.point for r in ens.results
                        if r.status == sampler.SUCCESS])
        assert len(pts) >= 19_900
        tv = diagnostics.grid_tv_check(square, pts, 25)
        ok = tv.p_value >= 0.01
    verdict = "PASS" if ok else "FAIL"
    report(capsys, f"[acceptance 6] 20000 one-step updates from uniform stay "
           f"uniform on 25 cells (p = {tv.p_value:.4f} >= 0.01): "
           f"{verdict} ({t.elapsed:.1f}s < 120s)")
    assert ok


# ---------------------------------------------------------------------
# 7. run-to-run determinism of the sampling command
# ---------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path, capsys):
    with timed(60.0) as t:
        cfg = {
            "body": {
                "kind": "exclusion",
                "outer": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                "hole": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5},
                "volume": 0.75 * math.pi,
            },
            "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 4},
            "run": {"n_chains": 20, "seed": 7, "t_cap": 200, "n_cap": 2000},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli.main(["sample", "--config", str(cfg_path),
                             "--out", str(out)])
            assert code == cli.EXIT_OK
            outs.append((out / "samples.jsonl").read_bytes())
        ok = outs[0] == outs[1]
    verdict = "PASS" if ok else "FAIL"
    report(capsys, f"[acceptance 7] two identically seeded runs produced "
           f"byte-identical sample files ({len(outs[0])} bytes): "
           f"{verdict} ({t.elapsed:.1f}s < 60s)")
    assert ok
