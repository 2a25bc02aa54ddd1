"""Output checks computed apart from the program.

Everything here uses NumPy and SciPy on the files the CLI wrote (or on
counts the tracer saw) and never calls into `inandout`: the plan, the
bounds and the laws are re-derived from their formulas.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

# Significance level of every uniformity test.  A run makes a few tests
# and the benchmark is run about a hundred times per commit, so a false
# rejection must stay far below one in a thousand per run.  At the
# pooled sample sizes of the workloads (at least 100 points) the wrong
# laws of the self-tests are still rejected with p below 1e-9.
ALPHA = 1e-5
# A relative agreement this close means the bound was computed from the
# same formula; anything else is a different number.
BOUND_RTOL = 1e-12
# Width, in standard errors, of every "estimate agrees with its exact
# value" test.
N_SE = 4.0

PLAN_DEFAULTS = {"q": 2.0, "eps": 0.2, "M": 1.0, "C_PI": 4.0}


def plan_values(n: int, alpha: float, beta: float, q: float, eps: float,
                M: float, C_PI: float) -> dict:
    """The schedule (T, S, h) re-derived from the paper's formulas."""
    beta = max(beta, 1.0 / n)
    eta, eps_prime = eps / 8.0, eps / 2.0
    z = (4.0 * q * C_PI * beta**2 * n**2
         * (n + math.log(3.0 * (n + 1) * alpha * M / eta))
         * math.log(M / eps_prime))
    T = math.ceil(2.0 * z * math.log(z))
    S = 3.0 * T * M / eta
    h = 1.0 / (2.0 * beta**2 * n**3 * (1.0 + math.log((n + 1) * alpha * S) / n))
    return {"T": T, "S": S, "h": h}


# Round bodies the workloads sample: squared radius bounds, dimension and
# growth certificate (alpha, beta) of the closed body.
SHAPES = {
    "annulus": {"n": 2, "r2_lo": 0.25, "r2_hi": 1.0, "alpha": 4.0 / 3.0, "beta": 1.0},
    "ball10": {"n": 10, "r2_lo": 0.0, "r2_hi": 1.0, "alpha": 1.0, "beta": 1.0},
}


def shape_plan(shape: str) -> dict:
    """The planned (T, S, h) of a shape under the workloads' plan inputs."""
    s = SHAPES[shape]
    return plan_values(s["n"], s["alpha"], s["beta"], **PLAN_DEFAULTS)


def radial_uniform(shape: str, points: np.ndarray) -> np.ndarray:
    """Map each point to a value that is U(0, 1) when the points are uniform.

    On the annulus (|x|^2 - 0.25) / 0.75, on the 10-D unit ball |x|^10.
    """
    s = SHAPES[shape]
    r2 = np.sum(points * points, axis=1)
    return ((r2 - s["r2_lo"]) / (s["r2_hi"] - s["r2_lo"])) ** (s["n"] / 2.0)


def check_inside(shape: str, points: np.ndarray) -> list:
    """Every point lies in the closed body, up to a last-bit tolerance."""
    s = SHAPES[shape]
    r2 = np.sum(points * points, axis=1)
    bad = np.flatnonzero((r2 < s["r2_lo"] * (1 - 1e-12))
                         | (r2 > s["r2_hi"] * (1 + 1e-12)))
    if bad.size:
        return [f"{bad.size} point(s) outside the {shape}, first |x|^2 = {r2[bad[0]]!r}"]
    return []


def check_uniform(shape: str, points: np.ndarray) -> list:
    """Kolmogorov-Smirnov tests of the radial law (and, in 2-D, the angle)."""
    problems = []
    if points.shape[0] < 50:
        return [f"only {points.shape[0]} points to test for uniformity"]
    tests = {"radial": radial_uniform(shape, points)}
    if points.shape[1] == 2:
        tests["angle"] = (np.arctan2(points[:, 1], points[:, 0]) + math.pi) / (2 * math.pi)
    for name, u in tests.items():
        # a value outside [0, 1] is impossible under U(0, 1): p = 0
        p = stats.kstest(u, "uniform").pvalue if np.all((u >= 0) & (u <= 1)) else 0.0
        if not p >= ALPHA:
            problems.append(f"{name} law of {shape} points rejected as uniform (KS p = {p:.3g})")
    return problems


def check_samples(shape: str, records: list, chains: int, T: int) -> list:
    """Structure of one samples.jsonl: one record per chain, sane fields."""
    problems = []
    if [r.get("chain") for r in records] != list(range(chains)):
        problems.append(f"expected chains 0..{chains - 1} in order, got {len(records)} records")
    for r in records:
        if r["outcome"] == "success":
            if r["x"] is None or r["failed_at"] is not None:
                problems.append(f"chain {r['chain']}: success without a point")
            elif r["total_trials"] < T:
                problems.append(f"chain {r['chain']}: {r['total_trials']} trials "
                                f"for {T} iterations")
        elif r["outcome"] == "failure":
            if r["x"] is not None or not (0 <= r["failed_at"] < T):
                problems.append(f"chain {r['chain']}: inconsistent failure record")
        else:
            problems.append(f"chain {r['chain']}: unknown outcome {r['outcome']!r}")
    pts = success_points(records, SHAPES[shape]["n"])
    return problems + check_inside(shape, pts)


def success_points(records: list, n: int) -> np.ndarray:
    pts = [r["x"] for r in records if r["outcome"] == "success"]
    return np.asarray(pts, dtype=float).reshape(-1, n)


def expected_first_hit(shape: str, h: float) -> float:
    """E[l(Y)], the chance that the first in-step proposal lands inside.

    Y = X + sqrt(h) Z with X uniform on the body, and l(y) = Pr(y +
    sqrt(h) Z' in body).  Both Gaussian moves add up to one of variance
    2h, so given |X| = rho, |X + sqrt(2h) W|^2 / (2h) follows a
    noncentral chi-square law with n degrees of freedom and
    noncentrality rho^2 / (2h); integrate it against the radial density.
    """
    s = SHAPES[shape]
    n, v = s["n"], 2.0 * h
    r_lo, r_hi = math.sqrt(s["r2_lo"]), math.sqrt(s["r2_hi"])
    norm = r_hi**n - r_lo**n

    def integrand(rho):
        nc = rho * rho / v
        inside = stats.ncx2.cdf(s["r2_hi"] / v, n, nc)
        if s["r2_lo"] > 0:
            inside -= stats.ncx2.cdf(s["r2_lo"] / v, n, nc)
        return n * rho ** (n - 1) / norm * inside

    val, _ = integrate.quad(integrand, r_lo, r_hi, limit=200, epsabs=1e-10)
    return val


def check_first_hit(shape: str, h: float, per_chain: list) -> tuple:
    """The traced share of first-attempt successes against E[l(Y)].

    per_chain holds (iterations, first hits) for each chain; chains are
    independent, so the standard error comes from the spread of the
    per-chain shares.  Returns (problems, share).
    """
    iters = np.array([c[0] for c in per_chain], dtype=float)
    hits = np.array([c[1] for c in per_chain], dtype=float)
    share = hits.sum() / iters.sum()
    se = np.std(hits / iters, ddof=1) / math.sqrt(len(per_chain))
    expected = expected_first_hit(shape, h)
    problems = []
    if not abs(share - expected) <= N_SE * se:
        problems.append(f"first-hit share {share:.5f} is not within {N_SE:g} SE "
                        f"({se:.2g}) of E[l(Y)] = {expected:.5f}")
    return problems, share


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= BOUND_RTOL * abs(b)


def check_diagnose_annulus(report: dict, r_grid: list, t_grid: list) -> list:
    """Every check ran and is satisfied, and every bound is recomputed exactly.

    Bounds: alpha (n+1) Pr(chi_2n > r / sqrt h) for escape, 3/S for
    failure, 16 alpha log S for trials and alpha (1 + t beta)^n for the
    certificate; certificate estimates must sit within N_SE standard
    errors of the exact annulus ratio ((1+t)^2 - max(0.5-t, 0)^2) / 0.75.
    """
    s = SHAPES["annulus"]
    n, alpha, beta = s["n"], s["alpha"], s["beta"]
    plan = shape_plan("annulus")
    h, S = plan["h"], plan["S"]
    problems = []
    if not _close(report["environment"]["h"], h):
        problems.append(f"report h {report['environment']['h']!r} != planned {h!r}")

    expected = {f"stationary_escape(r={r})":
                alpha * (n + 1) * stats.chi(2 * n).sf(r / math.sqrt(h)) for r in r_grid}
    expected["stationary_failure"] = 3.0 / S
    expected["expected_trials"] = 16.0 * alpha * math.log(S)
    exact_ratio = {}
    for t in t_grid:
        expected[f"certificate_soundness(t={t})"] = alpha * (1.0 + t * beta) ** n
        exact_ratio[f"certificate_soundness(t={t})"] = (
            ((1.0 + t) ** 2 - max(0.5 - t, 0.0) ** 2) / 0.75)

    checks = {c["name"]: c for c in report["checks"]}
    missing = set(expected) | {"grid_tv"}
    missing -= set(checks)
    if missing:
        problems.append(f"missing checks {sorted(missing)}")
    for name, c in checks.items():
        if c.get("status") != "ran" or c.get("verdict") != "satisfied":
            problems.append(f"{name}: status {c.get('status')}, verdict {c.get('verdict')}")
        if name in expected and not _close(c["theoretical_bound"], expected[name]):
            problems.append(f"{name}: bound {c['theoretical_bound']!r} != "
                            f"recomputed {expected[name]!r}")
        if name in exact_ratio and not (
                abs(c["empirical"] - exact_ratio[name]) <= N_SE * c["mc_std_error"]):
            problems.append(f"{name}: estimate {c['empirical']!r} is not within "
                            f"{N_SE:g} SE of the exact ratio {exact_ratio[name]!r}")
    return problems
