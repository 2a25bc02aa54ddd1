"""Diagnostics tests: grid oracle, conductance, bound checks, uniformity."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

from inandout import bodies, cli, diagnostics, planner, specfun
from inandout.diagnostics import (
    SATISFIED,
    VIOLATED,
    BoundCheck,
    GridOracle,
    TvCheckResult,
    UnsupportedCheck,
    certificate_soundness_check,
    expected_trials_check,
    expected_trials_closed_form,
    failure_rate_slope,
    grid_tv_check,
    per_iteration_checks,
    smoothed_conductance_samples,
    stationary_escape_check,
    stationary_failure_check,
)
from inandout.planner import Plan, PlanInputs
from inandout.sampler import make_rng


def triangle():
    """Right triangle with legs 1, carrying a crude two-ball certificate."""
    r = 1.0 / (2.0 + math.sqrt(2.0))
    body = bodies.make_halfspace_polytope(
        [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0],
        [r, r], r)
    R = math.hypot(1.0 - r, r)
    # the inscribed and circumscribed balls give ((R/r)^n, 1/R)
    return bodies.with_growth(body, (R / r) ** 2, 1.0 / R)


def simplex_3d():
    r = 1.0 / (3.0 + math.sqrt(3.0))
    return bodies.make_halfspace_polytope(
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]],
        [0.0, 0.0, 0.0, 1.0], [r, r, r], r)


def shell_3d():
    """Unit ball minus the ball of radius 1/2: certificate (8/7, 1)."""
    outer = bodies.make_ball([0.0, 0.0, 0.0], 1.0)
    hole = bodies.make_ball([0.0, 0.0, 0.0], 0.5)
    return bodies.exclusion(outer, hole, outer.exact_volume - hole.exact_volume)


SHELL_PLAN_INPUTS = PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=8.0 / 7.0,
                               beta=1.0, n=3)


def box_minus_ball_3d():
    """The cube [-1, 1]^3 minus an off-center ball: no shell, so no per-iteration route."""
    box = bodies.make_box([-1.0] * 3, [1.0] * 3)
    hole = bodies.make_ball([0.03, 0.02, 0.0], 0.95)
    return bodies.exclusion(box, hole, box.exact_volume - hole.exact_volume)


def box_minus_ball_plan():
    g = box_minus_ball_3d().growth
    return planner.plan(PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=g.alpha,
                                   beta=g.beta, n=3))


def three_boxes():
    """A box right of the bbox center and two specks in its left corners.

    At resolution 5 only the two cells right of the center, (0.7, 0.5)
    and (0.9, 0.5), are occupied, both at angle 0 around (0.5, 0.5); at
    resolution 2 no cell center lies inside.
    """
    return bodies.union([bodies.make_box([0.6, 0.45], [1.0, 0.55]),
                         bodies.make_box([0.0, 0.0], [0.01, 0.01]),
                         bodies.make_box([0.0, 0.99], [0.01, 1.0])], 0.0402)


def exact_per_iteration_values(r_lo: float, r_hi: float, h: float, N: int,
                               n: int = 2) -> tuple:
    """(failure mass, expected trials) on the shell r_lo <= |x| <= r_hi in n dimensions.

    The local conductance at |y| = rho is Pr(r_lo^2 <= |y + sqrt(h) Z|^2
    <= r_hi^2), a difference of noncentral chi-square laws with n
    degrees of freedom and noncentrality rho^2 / h; Y has density
    ell / vol, so both values are radial integrals of ell against the
    sphere area n omega_n rho^(n-1).
    """
    def ell(rho):
        nc = rho * rho / h
        lo, hi = r_lo * r_lo / h, r_hi * r_hi / h
        # take the difference on the side where both terms are small
        if rho < r_lo:
            return stats.ncx2.sf(lo, n, nc) - stats.ncx2.sf(hi, n, nc)
        below = stats.ncx2.cdf(lo, n, nc) if r_lo > 0.0 else 0.0
        return stats.ncx2.cdf(hi, n, nc) - below

    def log_miss(rho):   # N log(1 - ell), -inf at ell == 1
        e = min(ell(rho), 1.0)
        return -math.inf if e == 1.0 else N * math.log1p(-e)

    omega = math.pi ** (n / 2) / math.gamma(n / 2 + 1)

    def area(rho):
        return n * omega * rho ** (n - 1)

    vol = omega * (r_hi**n - r_lo**n)
    top = r_hi + 12.0 * math.sqrt(h)
    breaks = [r for r in (r_lo, r_hi) if r > 0.0]
    failure = integrate.quad(lambda rho: area(rho) * ell(rho)
                             * math.exp(log_miss(rho)), 0.0, top, points=breaks,
                             limit=500, epsabs=0.0, epsrel=1e-10)[0]
    trials = integrate.quad(lambda rho: -area(rho) * math.expm1(log_miss(rho)),
                            0.0, top, points=breaks, limit=500, epsabs=0.0,
                            epsrel=1e-10)[0]
    return failure / vol, trials / vol


# ----------------------------------------------------------- BoundCheck


def test_bound_check_verdicts():
    ok = BoundCheck("a", empirical=1.0, theoretical_bound=0.9,
                    mc_std_error=0.05, n_samples=10)
    assert ok.verdict == SATISFIED                 # within three sigma
    bad = BoundCheck("b", empirical=1.0, theoretical_bound=0.9,
                     mc_std_error=0.01, n_samples=10)
    assert bad.verdict == VIOLATED
    d = ok.to_dict()
    assert set(d) == {"name", "empirical", "theoretical_bound",
                      "mc_std_error", "n_samples", "verdict", "note"}


# ------------------------------------------------- expected trial count


def test_expected_trials_closed_form_values():
    assert expected_trials_closed_form(1.0, 7) == 1.0
    assert expected_trials_closed_form(0.0, 7) == 7.0
    assert expected_trials_closed_form(0.5, 3) == 1.75
    assert expected_trials_closed_form(1e-12, 100) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        expected_trials_closed_form(1.5, 3)
    with pytest.raises(ValueError):
        expected_trials_closed_form(0.5, 0)


def test_expected_trials_closed_form_matches_simulation():
    p, N, n_sim = 0.3, 5, 100_000
    rng = make_rng(11)
    draws = np.minimum(rng.geometric(p, size=n_sim), N)
    target = expected_trials_closed_form(p, N)
    se = draws.std(ddof=1) / math.sqrt(n_sim)
    assert abs(draws.mean() - target) <= 4.0 * se


# ----------------------------------------------------------- grid oracle


@pytest.mark.parametrize("fixture,volume", [
    ("unit_disk", math.pi),
    ("unit_square", 1.0),
    ("annulus", 0.75 * math.pi),
    ("l_shape", 3.0),
    ("cross", 7.0),
])
def test_grid_oracle_volume(request, fixture, volume):
    body = request.getfixturevalue(fixture)
    oracle = GridOracle(body, resolution=400)
    assert abs(oracle.bitmap.sum() * np.prod(oracle.step) - volume) <= 0.01 * volume


def bitmap_uniform(oracle, rng, size):
    """Exact uniform draws from the union of the oracle's occupied cells."""
    idx = rng.integers(0, oracle.n_occupied, size=size)
    corner = oracle.lo + np.argwhere(oracle.bitmap)[idx] * oracle.step
    return corner + rng.random((size, 2)) * oracle.step


def test_grid_oracle_samples_land_in_body(unit_disk):
    oracle = GridOracle(unit_disk, resolution=400)
    pts = bitmap_uniform(oracle, make_rng(4), 20_000)
    lo, hi = unit_disk.bbox
    assert np.all(pts >= lo) and np.all(pts <= hi)
    # only boundary-straddling cells can leak outside the body
    assert np.count_nonzero(unit_disk.membership(pts)) >= 0.99 * 20_000


def test_grid_oracle_distance_tracks_analytic(unit_disk):
    oracle = GridOracle(unit_disk, resolution=400)
    pts = np.array([[1.5, 0.0], [0.0, 2.0], [3.0, 4.0], [0.2, -0.1]])
    true = np.maximum(np.hypot(pts[:, 0], pts[:, 1]) - 1.0, 0.0)
    got = oracle.distance(pts)
    diag = math.hypot(*oracle.step)
    assert np.all(np.abs(got - true) <= diag)
    assert got[3] == 0.0


def test_grid_oracle_rejects_other_dims():
    with pytest.raises(UnsupportedCheck):
        GridOracle(simplex_3d())


def test_grid_oracle_cell_index_clips(unit_square):
    oracle = GridOracle(unit_square, resolution=10)
    ij = oracle.cell_index(np.array([[-5.0, 0.5], [0.5, 99.0]]))
    assert ij.min() >= 0 and ij.max() <= 9


# ---------------------------------------------------------- escape check


def test_escape_check_far_distance(unit_disk):
    chk = stationary_escape_check(unit_disk, h=0.05, r=2.0, n_mc=20_000,
                                  rng=make_rng(5))
    assert chk.verdict == SATISFIED
    assert chk.empirical == 0.0
    assert chk.note == ""          # the disk has an exact distance function


def test_escape_check_trivial_regime(unit_disk):
    chk = stationary_escape_check(unit_disk, h=0.05, r=0.01, n_mc=5_000,
                                  rng=make_rng(6))
    assert chk.theoretical_bound > 1.0
    assert chk.verdict == SATISFIED


def test_escape_check_grid_fallback():
    body = triangle()
    beta = body.growth.beta
    h = 0.9 / (2.0 * 8.0 * beta * beta)
    chk = stationary_escape_check(body, h=h, r=1.0, n_mc=20_000,
                                  rng=make_rng(7))
    assert chk.verdict == SATISFIED
    assert "cell diagonal" in chk.note


def test_escape_check_hypothesis_gate(unit_disk):
    with pytest.raises(ValueError, match="regime"):
        stationary_escape_check(unit_disk, h=0.5, r=1.0, n_mc=100,
                                rng=make_rng(8))
    with pytest.raises(ValueError):
        stationary_escape_check(unit_disk, h=0.05, r=-1.0, n_mc=100,
                                rng=make_rng(8))
    bare = dataclasses.replace(unit_disk, growth=None)
    with pytest.raises(ValueError):
        stationary_escape_check(bare, h=0.05, r=1.0, n_mc=100, rng=make_rng(8))


@pytest.mark.parametrize("n_mc", [0, -1])
def test_escape_check_needs_a_sample(unit_disk, n_mc):
    rng = make_rng(8)
    with pytest.raises(ValueError, match=f"need at least one sample, got {n_mc}"):
        stationary_escape_check(unit_disk, h=0.05, r=1.0, n_mc=n_mc, rng=rng)
    assert rng.random() == make_rng(8).random()    # no draw was taken


def test_escape_check_gate_at_the_base_cap(unit_disk, annulus):
    for body in (unit_disk, annulus):
        cap = planner.step_size_regime(body.dim, body.growth.beta).base_cap
        chk = stationary_escape_check(body, h=cap, r=1.0, n_mc=100,
                                      rng=make_rng(8))
        assert chk.n_samples == 100
        with pytest.raises(ValueError, match="regime"):
            stationary_escape_check(body, h=cap * (1.0 + 1e-9), r=1.0,
                                    n_mc=100, rng=make_rng(8))


def test_escape_check_unsupported_in_3d():
    body = simplex_3d()
    h = 0.9 / (2.0 * 27.0 * body.growth.beta**2)
    with pytest.raises(UnsupportedCheck):
        stationary_escape_check(body, h=h, r=0.5, n_mc=100, rng=make_rng(9))


# ----------------------------------------- failure and trial-count checks


DISK_PLAN_INPUTS = PlanInputs(q=2, eps=0.2, M=1, C_PI=1, alpha=1.0, beta=1.0, n=2)


ANNULUS_PLAN_INPUTS = PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=4.0 / 3.0,
                                 beta=1.0, n=2)


def test_failure_check_on_disk(unit_disk):
    p = planner.plan(DISK_PLAN_INPUTS)
    chk = stationary_failure_check(unit_disk, p)
    assert chk.verdict == SATISFIED
    assert chk.theoretical_bound == 3.0 / p.S
    assert chk.empirical <= chk.theoretical_bound
    assert "grid quadrature" in chk.note and "resolution 400" in chk.note
    # the grid resolves failure mass far below the bound, unlike 1/n_mc
    assert 0.0 < chk.empirical < 1e-3 * chk.theoretical_bound
    assert chk.mc_std_error < 1e-3 * chk.empirical


def test_trials_check_on_disk(unit_disk):
    p = planner.plan(DISK_PLAN_INPUTS)
    chk = expected_trials_check(unit_disk, p)
    assert chk.verdict == SATISFIED
    assert chk.theoretical_bound == 16.0 * math.log(p.S)
    assert 1.0 <= chk.empirical <= chk.theoretical_bound


@pytest.mark.parametrize("fixture,inputs,r_lo", [
    ("unit_disk", DISK_PLAN_INPUTS, 0.0),
    ("annulus", ANNULUS_PLAN_INPUTS, 0.5),
], ids=["disk", "annulus"])
def test_grid_quadrature_matches_the_exact_radial_integral(request, fixture,
                                                           inputs, r_lo):
    # grids of 200 to 800 cells per axis are within 7e-4 (relative) of
    # the exact values on these two plans; 400 is within 2.3e-4
    body = request.getfixturevalue(fixture)
    p = planner.plan(inputs)
    exact = exact_per_iteration_values(r_lo, 1.0, p.h, p.N)
    records = per_iteration_checks(body, p)
    for chk, value in zip(records, exact):
        assert chk.empirical == pytest.approx(value, rel=1e-3)
        # the change from half the resolution covers the actual error
        assert abs(chk.empirical - value) <= chk.mc_std_error
        assert chk.n_samples == records[0].n_samples > 400**2


def test_grid_quadrature_reuses_the_given_oracle_and_no_randomness(annulus):
    p = planner.plan(ANNULUS_PLAN_INPUTS)
    rng = make_rng(2)
    oracle = GridOracle(annulus, resolution=100)
    failure, trials = per_iteration_checks(annulus, p, oracle=oracle)
    assert rng.random() == make_rng(2).random()    # no draw was taken
    assert "resolution 100" in failure.note and "resolution 50" in trials.note
    # a coarser grid, a larger error, the same value to its error
    fine = per_iteration_checks(annulus, p)
    for coarse, ref in zip((failure, trials), fine):
        assert coarse.mc_std_error > ref.mc_std_error
        assert abs(coarse.empirical - ref.empirical) <= 3.0 * coarse.mc_std_error


@pytest.mark.parametrize("resolution", [2, 3])
def test_grid_quadrature_needs_a_coarser_grid(annulus, resolution):
    p = planner.plan(ANNULUS_PLAN_INPUTS)
    oracle = GridOracle(annulus, resolution=resolution)
    with pytest.raises(ValueError, match="resolution >= 4"):
        per_iteration_checks(annulus, p, oracle=oracle)


def test_grid_quadrature_names_an_empty_grid_of_half_the_resolution():
    body = three_boxes()
    g = body.growth
    p = planner.plan(PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=g.alpha, beta=g.beta,
                                n=2))
    oracle = GridOracle(body, resolution=5)
    assert oracle.n_occupied == 2
    with pytest.raises(ValueError, match="^no grid cell center lies inside the body$"):
        GridOracle(body, resolution=2)
    with pytest.raises(ValueError) as err:
        per_iteration_checks(body, p, oracle=oracle)
    assert str(err.value) == (
        "grid quadrature measures its error as the change from a grid of half the "
        "resolution, and no cell center of the resolution-2 grid lies inside the body "
        "(the resolution-5 grid holds 2)")


@pytest.mark.parametrize("N", [1, 10**5, 736_000_000, 56_300_000_000, 10**18])
def test_padding_leaves_out_at_most_its_cuts(N):
    # every point of a 2-D body lies at least z sqrt(h) inside the padded
    # box, so Y leaves it only where a coordinate of Z exceeds z in size:
    # a Gaussian mass of at most 4 Q(z) = 2 erfc(z / sqrt(2))
    z, (failure_cut, trials_cut) = diagnostics._padding(N)
    assert 2.0 * math.erfc(z / math.sqrt(2.0)) <= failure_cut
    # each point of that mass takes at most N trials
    assert trials_cut == pytest.approx(N * failure_cut, rel=1e-12)


def whole_array_failure_and_trials(oracle, h, N):
    """_grid_failure_and_trials in its tile order, with a whole contiguous
    band per axis and a fresh array for every step: strips of 224 padded
    columns, each the bitmap blurred along y 128 bitmap rows at a time,
    reduced in tiles of 128 padded rows."""
    r = oracle.resolution
    z = max(8.0, math.sqrt(2.0 * math.log(1e6 * N)))
    pads = [math.ceil(z * math.sqrt(h) / s) for s in oracle.step]
    rows, cols = (np.ascontiguousarray(diagnostics._gaussian_band(r, pad, step, h))
                  for pad, step in zip(pads, oracle.step))
    mass, failure, trials = [], [], []
    for j in range(0, cols.shape[0], 224):
        strip = np.concatenate([oracle.bitmap[i:i + 128].astype(float) @ cols[j:j + 224].T
                                for i in range(0, r, 128)])
        for k in range(0, rows.shape[0], 128):
            ell = np.minimum(rows[k:k + 128] @ strip, 1.0)
            with np.errstate(divide="ignore"):
                t = N * np.log1p(-ell)
            mass.append(ell.sum())
            failure.append((ell * np.exp(t)).sum())
            trials.append(-np.expm1(t).sum())
    total = math.fsum(mass)
    return (math.fsum(failure) / total, math.fsum(trials) / total,
            rows.shape[0] * cols.shape[0])


@pytest.mark.parametrize("fixture,resolution", [
    ("annulus", 400), ("annulus", 101), ("annulus", 200), ("flat_box", 400),
    ("flat_box", 150)])
def test_grid_quadrature_keeps_the_bits_of_the_whole_array_formulation(
        annulus, fixture, resolution):
    # a square grid has equal bands on both axes; the flat box, with a
    # step and a pad of its own per axis, has two different ones
    body = annulus if fixture == "annulus" else bodies.make_box([0.0, 0.0], [2.0, 0.7])
    p = planner.plan(ANNULUS_PLAN_INPUTS)
    oracle = GridOracle(body, resolution=resolution)
    got = diagnostics._grid_failure_and_trials(oracle, p.h, p.N)
    assert got == whole_array_failure_and_trials(oracle, p.h, p.N)


def interval_mass(x, lo, hi, h):
    """The N(0, h) mass of [lo, hi] seen from each point of x, free of cancellation.

    Right of the interval both erfc terms are small, left of it their
    mirror images are, and inside it the two tails are."""
    c = 1.0 / math.sqrt(2.0 * h)
    return np.where(
        x > hi, 0.5 * (special.erfc((x - hi) * c) - special.erfc((x - lo) * c)),
        np.where(x < lo, 0.5 * (special.erfc((lo - x) * c) - special.erfc((hi - x) * c)),
                 1.0 - 0.5 * (special.erfc((x - lo) * c) + special.erfc((hi - x) * c))))


@pytest.mark.parametrize("resolution", [7, 101, 150, 400])
def test_grid_quadrature_matches_the_exact_sums_on_a_grid_aligned_box(resolution):
    # the bitmap of a grid-aligned box is the whole box, so the grid's
    # ell at a padded cell center is the product of the exact interval
    # masses along each axis: the failure and trial sums over those
    # nodes do not rest on any order of the products or the sums.  The
    # box's two axes have a step and a pad each; at 400 the padded grid
    # is 672 x 1174 nodes, 6 strips of 4 or 6 tiles.
    body = bodies.make_box([0.0, 0.0], [2.0, 0.7])
    p = planner.plan(ANNULUS_PLAN_INPUTS)
    oracle = GridOracle(body, resolution=resolution)
    assert oracle.n_occupied == resolution**2
    z = diagnostics._padding(p.N)[0]
    masses = []
    for lo, hi, step in zip(oracle.lo, oracle.hi, oracle.step):
        pad = math.ceil(z * math.sqrt(p.h) / step)
        x = lo + (np.arange(resolution + 2 * pad) - pad + 0.5) * step
        masses.append(interval_mass(x, lo, hi, p.h))
    ell = np.minimum(np.multiply.outer(*masses), 1.0).ravel()
    with np.errstate(divide="ignore"):
        t = p.N * np.log1p(-ell)
    total = math.fsum(ell)
    want = (math.fsum(ell * np.exp(t)) / total, -math.fsum(np.expm1(t)) / total)
    failure, trials, n = diagnostics._grid_failure_and_trials(oracle, p.h, p.N)
    assert n == ell.size
    assert failure == pytest.approx(want[0], rel=1e-13, abs=0.0)
    assert trials == pytest.approx(want[1], rel=1e-13, abs=0.0)


def one_call_bitmap(body, oracle):
    """The oracle's bitmap as one membership call on every cell center."""
    r = oracle.resolution
    centers = np.empty((r, r, 2))
    centers[..., 0] = oracle.xs[:, None]
    centers[..., 1] = oracle.ys
    return np.asarray(body.membership(centers.reshape(-1, 2))).reshape(r, r)


@pytest.mark.parametrize("name", ["ball", "box", "polytope", "union", "exclusion",
                                  "star"])
def test_grid_oracle_blocks_give_the_bits_of_one_call(request, name):
    # a polytope's products rest on einsum's loop order, so its bits are
    # the ones a change of batch shape could move
    body = {"ball": lambda: request.getfixturevalue("unit_disk"),
            "box": lambda: bodies.make_box([0.0, 0.0], [2.0, 0.7]),
            "polytope": triangle,
            "union": lambda: request.getfixturevalue("l_shape"),
            "exclusion": off_center_hole,
            "star": lambda: request.getfixturevalue("cross")}[name]()
    # 4 and 7 rows fit one block; 401 and 1000 end in a short block
    for resolution in (4, 7, 401, 1000):
        oracle = GridOracle(body, resolution=resolution)
        rows = -(-diagnostics.ORACLE_BLOCK_POINTS // resolution)
        assert rows > resolution or resolution % rows
        assert oracle.bitmap.dtype == bool
        assert np.array_equal(oracle.bitmap, one_call_bitmap(body, oracle)), resolution


def traced_peak(fn):
    """(peak bytes allocated while fn runs, fn's result).

    NumPy reports its array buffers to tracemalloc, so the peak counts
    them with the Python objects."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_grid_diagnostics_hold_no_resolution_squared_temporary(annulus, tmp_path):
    # at resolution 400 one float per grid cell is 1.28 MB.  Whole-grid
    # temporaries took the peaks to 7.7 MB (the oracle), 7.8 MB (the
    # quadrature pair) and 6.6 MB (grid TV), and the y-blurred bitmap
    # held whole (400 x 672 floats) to 3.6 MB (the quadrature pair).
    # Without them the oracle holds its boolean bitmap and one 8400-point
    # block (0.6 MB), the quadrature one 400 x 224 strip and one scratch
    # buffer for the strip's band rows and the bitmap rows, then a tile's
    # band rows and its three buffers (1.9 MB), and grid TV the occupied
    # cells' angles (1.56 MB; 1.72 MB with the samples' cell angles
    # whole).
    p = planner.plan(ANNULUS_PLAN_INPUTS)
    peak, oracle = traced_peak(lambda: GridOracle(annulus, resolution=400))
    assert peak < 1.0e6
    peak, _ = traced_peak(lambda: per_iteration_checks(annulus, p, oracle=oracle))
    assert peak < 2.2e6
    pts = diagnostics.uniform_reference(annulus, make_rng(2), 20_000)
    peak, _ = traced_peak(lambda: grid_tv_check(annulus, pts, 16, oracle=oracle))
    assert peak < 2.0e6
    # the strip and the scratch buffer grow linearly in the resolution:
    # 3.7 MB at 800 and 7.5 MB at 1600, where the whole y-blurred
    # bitmap took the quadrature pair to 11.5 MB and 40.2 MB
    for resolution, bound in ((800, 5.0e6), (1600, 9.0e6)):
        oracle = GridOracle(annulus, resolution=resolution)
        peak, _ = traced_peak(lambda: per_iteration_checks(annulus, p, oracle=oracle))
        assert peak < bound, resolution
    # a whole diagnose on the README annulus config peaks in grid TV
    # (2.12 MB; 2.25 MB with every array of n_mc rows whole, 3.8 MB with
    # the whole y-blurred bitmap)
    config = Path(__file__).parents[1] / "bench" / "configs" / "annulus.json"
    args = ["diagnose", "--config", str(config), "--out", str(tmp_path / "report.json")]
    peak, code = traced_peak(lambda: cli.main(args))
    assert code == cli.EXIT_OK
    assert peak < 2.2e6


@pytest.mark.parametrize("n_cells,pad,step,h", [
    (400, 120, 2.0 / 400, 6.68e-3), (200, 60, 2.0 / 200, 6.68e-3),
    (5, 0, 0.3, 0.01), (1, 3, 0.1, 1e-4)])
def test_gaussian_band_matches_scipy_erfc(n_cells, pad, step, h):
    # entry (k, i) is the N(0, h) mass of cell i seen from padded cell k
    peak, band = traced_peak(lambda: diagnostics._gaussian_band(n_cells, pad, step, h))
    assert band.shape == (n_cells + 2 * pad, n_cells)
    k, i = np.indices(band.shape)
    d = np.abs(k - pad - i)
    c = step / math.sqrt(2.0 * h)
    ref = 0.5 * (special.erfc((d - 0.5) * c) - special.erfc((d + 0.5) * c))
    assert np.max(np.abs(band - ref)) <= 1e-15
    # a read-only view of the weight vector: building it takes the
    # vector and its erfc terms, not a float per entry of the band
    assert not band.flags.writeable
    assert peak < 100 * (n_cells + pad + 1) + 4096


@pytest.mark.parametrize("threads", ["1", "2"])
def test_grid_quadrature_keeps_the_bits_at_each_blas_thread_count(threads):
    # OpenBLAS picks how it splits a product by its thread count, which
    # it reads when it loads: the whole-array comparison runs in a fresh
    # interpreter per count, on a square grid at an even and an odd
    # resolution and on the flat box's two bands, whose blocks leave a
    # remainder, and so does the exact witness on the flat box
    pinned = (f"{__file__}::"
              "test_grid_quadrature_keeps_the_bits_of_the_whole_array_formulation")
    witness = f"{__file__}::test_grid_quadrature_matches_the_exact_sums_on_a_grid_aligned_box"
    cases = [*(f"{pinned}[{case}]" for case in ("annulus-400", "annulus-101", "flat_box-150")),
             *(f"{witness}[{resolution}]" for resolution in (101, 400))]
    path = (str(Path(diagnostics.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *cases],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "5 passed" in proc.stdout


BALL10_PLAN_INPUTS = PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=1.0, beta=1.0, n=10)


@pytest.mark.parametrize("body,inputs,r_lo", [
    (shell_3d, SHELL_PLAN_INPUTS, 0.5),
    (lambda: bodies.make_ball([0.0] * 10, 1.0), BALL10_PLAN_INPUTS, 0.0),
], ids=["shell3", "ball10"])
def test_radial_quadrature_matches_an_independent_integral(body, inputs, r_lo):
    # the reference integrates scipy.stats' ncx2 by adaptive quadrature,
    # to a relative 1e-10; on the 10-D plan the failure mass is about
    # 6.6e-13 against 3/S = 8.4e-9, and the trials 2.2202
    body = body()
    p = planner.plan(inputs)
    exact = exact_per_iteration_values(r_lo, 1.0, p.h, p.N, n=body.dim)
    rng = make_rng(3)
    records = per_iteration_checks(body, p)
    assert rng.random() == make_rng(3).random()    # no draw was taken
    # the nodes stop z sqrt(h) beyond the shell, which leaves out Y-mass
    # of at most 2e-6 / N: at most that much failure mass, 2e-6 trials.
    # The reference integrates past the cut, so it checks that bound in
    # n dimensions too (on the 10-D plan the cut leaves out 1.8e-20
    # against 3.6e-17)
    for chk, value, left_out in zip(records, exact, (2e-6 / p.N, 2e-6)):
        assert chk.verdict == SATISFIED and chk.empirical < chk.theoretical_bound
        assert "radial quadrature" in chk.note
        assert chk.n_samples == diagnostics.RADIAL_NODES
        # the stated error, with the cut's bound in it, covers the actual error
        assert abs(chk.empirical - value) <= chk.mc_std_error
        assert chk.mc_std_error >= left_out
        # and the change from half the nodes stays as small as it was
        assert chk.mc_std_error - left_out <= 1e-9 * value
    if body.dim == 10:
        assert records[0].empirical == pytest.approx(6.6466e-13, rel=1e-4)
        assert records[1].empirical == pytest.approx(2.22022, rel=1e-5)


def test_radial_quadrature_matches_the_disk_integral(unit_disk):
    # per_iteration_checks keeps 2-D bodies on the grid; the radial rule
    # itself holds in 2-D too
    p = planner.plan(DISK_PLAN_INPUTS)
    fine, coarse, lo, hi = diagnostics._radial_failure_and_trials(unit_disk, p.h, p.N)
    assert lo == 0.0 and hi > 1.0
    exact = exact_per_iteration_values(0.0, 1.0, p.h, p.N)
    for value, other, want, left_out in zip(fine, coarse, exact, (2e-6 / p.N, 2e-6)):
        assert abs(value - want) <= abs(value - other) + left_out
    assert "grid quadrature" in per_iteration_checks(unit_disk, p)[0].note


def test_radial_route_takes_only_shell_bodies_above_2d():
    # a ball wrapped as the benchmark's tracer wraps it keeps the route
    ball = bodies.make_ball([0.0] * 3, 1.0)
    p = planner.plan(dataclasses.replace(SHELL_PLAN_INPUTS, alpha=1.0))
    wrapped = dataclasses.replace(ball, membership=lambda pts: ball.membership(pts))
    plain, same = (per_iteration_checks(b, p) for b in (ball, wrapped))
    assert [c.to_dict() for c in plain] == [c.to_dict() for c in same]
    assert "radial quadrature" in plain[0].note
    box = bodies.make_box([-1.0] * 3, [1.0] * 3)
    with pytest.raises(UnsupportedCheck, match="^no per-iteration quadrature for a "
                       "3-D body without a shell"):
        per_iteration_checks(box, p)


def test_per_iteration_regime_gate(unit_disk):
    p = planner.plan(DISK_PLAN_INPUTS)
    with pytest.raises(ValueError, match="per-iteration regime"):
        stationary_failure_check(unit_disk, dataclasses.replace(p, h=0.5))
    with pytest.raises(ValueError, match="below the required"):
        expected_trials_check(unit_disk, dataclasses.replace(p, N=10))


def test_per_iteration_gate_agrees_with_plan_consistency(annulus):
    # the planner and the diagnostics gate read one cap: a schedule at
    # the cap passes both, one a relative 1e-9 above it fails both
    inputs = PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=4.0 / 3.0,
                        beta=1.0, n=2)
    p = planner.plan(inputs)
    cap = planner.step_size_regime(2, 1.0, 4.0 / 3.0, p.S).per_iteration_cap
    assert p.h <= cap
    at_cap = dataclasses.replace(p, h=cap)
    assert planner.check_plan_consistency(at_cap, inputs).ok
    per_iteration_checks(annulus, at_cap)
    above = dataclasses.replace(p, h=cap * (1.0 + 1e-9))
    assert any("per-iteration cap" in v for v in
               planner.check_plan_consistency(above, inputs).violations)
    with pytest.raises(ValueError, match="per-iteration regime"):
        per_iteration_checks(annulus, above)


def test_per_iteration_checks_share_one_sample(unit_disk):
    # a body without a shell above 2-D has no route, in either wrapper
    body = box_minus_ball_3d()
    p = box_minus_ball_plan()
    for check in (per_iteration_checks, stationary_failure_check, expected_trials_check):
        with pytest.raises(UnsupportedCheck, match="^no per-iteration quadrature for "
                           "a 3-D body without a shell"):
            check(body, p)
    # on a grid body the wrappers are the records of one per_iteration_checks
    p = planner.plan(DISK_PLAN_INPUTS)
    failure, trials = per_iteration_checks(unit_disk, p)
    assert "grid quadrature" in failure.note and failure.n_samples == trials.n_samples
    assert failure.to_dict() == stationary_failure_check(unit_disk, p).to_dict()
    assert trials.to_dict() == expected_trials_check(unit_disk, p).to_dict()


def shell_at(n: int, center, r_in: float, r_out: float):
    """A make_ball ball (r_in 0) or a concentric make_ball exclusion."""
    outer = bodies.make_ball(center, r_out)
    if r_in == 0.0:
        return outer
    hole = bodies.make_ball(center, r_in)
    return bodies.exclusion(outer, hole, outer.exact_volume - hole.exact_volume)


SHELLS = [(2, [0.3, -0.2], 0.5, 1.0), (3, [1.0, 0.5, -2.0], 0.25, 2.0),
          (10, [0.1] * 10, 0.0, 1.5), (10, [-0.2] * 10, 0.9, 1.0)]


@pytest.mark.parametrize("n,center,r_in,r_out", SHELLS,
                         ids=["annulus2", "shell3", "ball10", "shell10"])
def test_uniform_reference_draws_the_shell_exactly(n, center, r_in, r_out):
    body = shell_at(n, center, r_in, r_out)
    assert body.shell[1:] == (r_in, r_out)
    pts = diagnostics.uniform_reference(body, make_rng(40 + n), 20_000)
    assert pts.shape == (20_000, n)
    assert body.membership(pts).all()
    d = pts - np.asarray(center)
    rho = np.linalg.norm(d, axis=1)
    # the radial law: rho^n uniform on [r_in^n, r_out^n]
    u = (rho**n - r_in**n) / (r_out**n - r_in**n)
    assert stats.kstest(u, "uniform").pvalue > 1e-3
    # one coordinate of the direction: (t + 1) / 2 ~ Beta((n-1)/2, (n-1)/2)
    a = (n - 1) / 2.0
    assert stats.kstest((d[:, 0] / rho + 1.0) / 2.0, stats.beta(a, a).cdf).pvalue > 1e-3
    # the draw order: the directions' normals first, then the radii's uniforms
    rng = make_rng(40 + n)
    g = rng.standard_normal((20_000, n))
    v = rng.random(20_000)
    np.testing.assert_allclose(d / rho[:, None], g / np.linalg.norm(g, axis=1)[:, None],
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(rho, (r_in**n + v * (r_out**n - r_in**n)) ** (1.0 / n),
                               rtol=1e-12)


@pytest.mark.parametrize("make_body", [lambda: shell_at(3, [0.0] * 3, 0.5, 1.0),
                                       lambda: bodies.make_box([0.0] * 3, [1.0] * 3)],
                         ids=["shell", "box"])
def test_uniform_reference_ignores_a_membership_wrapper(make_body):
    # bench/tracing.py wraps the body's membership; the shell field
    # survives the copy, so the draw stays exact
    body = make_body()
    calls = []

    def wrapper(pts):
        calls.append(1)
        return body.membership(pts)

    wrapped = dataclasses.replace(body, membership=wrapper)
    assert (wrapped.shell is None) == (body.shell is None)
    same = diagnostics.uniform_reference(wrapped, make_rng(5), 3000)
    assert np.array_equal(same, diagnostics.uniform_reference(body, make_rng(5), 3000))
    # a body without a shell falls back to bbox rejection
    if body.shell is None:
        assert calls
        assert np.array_equal(same, bodies.sample_uniform(body, make_rng(5), 3000))
    else:
        assert not calls


def test_smoothed_conductance_samples_shape(unit_square):
    vals = smoothed_conductance_samples(unit_square, 1e-4, 130, 50, make_rng(12))
    assert vals.shape == (130,)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    # a tiny step on a fat body keeps conductance near one
    assert vals.mean() >= 0.9


# ----------------------------------------------------------- TV / chi^2


def test_grid_tv_self_consistency(unit_disk):
    oracle = GridOracle(unit_disk, resolution=400)
    pts = bitmap_uniform(oracle, make_rng(13), 100_000)
    res = grid_tv_check(unit_disk, pts, 256, oracle=oracle)
    assert res.tv_estimate <= 0.03
    assert res.p_value >= 1e-3


def test_grid_tv_flags_point_mass(unit_disk):
    pts = np.tile([0.1, 0.2], (5_000, 1))
    res = grid_tv_check(unit_disk, pts, 64)
    assert res.tv_estimate >= 1.0 - 2.0 / 64
    assert res.p_value < 1e-6


def test_grid_tv_validation(unit_disk):
    with pytest.raises(ValueError, match="too few"):
        grid_tv_check(unit_disk, np.zeros((10, 2)), 16)
    with pytest.raises(ValueError):
        grid_tv_check(unit_disk, np.zeros((100, 2)), 1)
    with pytest.raises(UnsupportedCheck):
        grid_tv_check(simplex_3d(), np.zeros((100, 3)), 4)


def two_strips():
    # two boxes with a free strip between them across the bbox center,
    # so the cells at the smallest angles are free
    a = bodies.make_box([0.0, 0.0], [3.0, 1.0])
    b = bodies.make_box([0.0, 2.0], [3.0, 3.0])
    return bodies.union([a, b], 6.0)


def off_center_hole():
    disk = bodies.make_ball([0.0, 0.0], 1.0)
    hole = bodies.make_ball([0.3, -0.2], 0.4)
    return bodies.exclusion(disk, hole, disk.exact_volume - hole.exact_volume)


SECTOR_BODIES = {"two_strips": two_strips, "off_center_hole": off_center_hole,
                 "triangle": triangle}


def sector_body(request, name):
    return SECTOR_BODIES[name]() if name in SECTOR_BODIES else request.getfixturevalue(name)


def cell_angles(oracle):
    """Every grid cell's center angle around the bbox center, (resolution, resolution)."""
    center = (oracle.lo + oracle.hi) / 2.0
    return np.arctan2(oracle.ys[None, :] - center[1], oracle.xs[:, None] - center[0])


def brute_force_sectors(oracle, n_cells):
    """(exact law, sector of every grid cell) of grid_tv's sector rule, by masks.

    The occupied cells' sorted angles are split with np.array_split; the
    distinct first angles of the runs that lie above the smallest angle
    start the sectors, and sector k holds every cell, occupied or free,
    whose angle is at least its start and below the next sector's.
    """
    angle = cell_angles(oracle)
    occupied = np.sort(angle[oracle.bitmap])
    starts = sorted({run[0] for run in np.array_split(occupied, n_cells)
                     if run[0] > occupied[0]})
    bounds = [-np.inf, *starts, np.inf]
    sector = np.full(angle.shape, -1)
    exact = []
    for k in range(len(bounds) - 1):
        mask = (angle >= bounds[k]) & (angle < bounds[k + 1])
        sector[mask] = k
        exact.append(np.count_nonzero(mask & oracle.bitmap) / oracle.n_occupied)
    return np.array(exact), sector


def sectors_of_every_cell(oracle, n_cells):
    """(exact law, sector of every grid cell in row-major order) from _sectors's cuts."""
    exact, cuts = diagnostics._sectors(oracle, n_cells)
    return exact, np.searchsorted(cuts, cell_angles(oracle).ravel(), side="right")


def brute_force_tv(oracle, samples, n_cells):
    """grid_tv_check's result fields, each sample counted in its brute-force sector."""
    exact, sector = brute_force_sectors(oracle, n_cells)
    ij = oracle.cell_index(samples)
    counts = np.bincount(sector[ij[:, 0], ij[:, 1]], minlength=exact.size)
    n = len(samples)
    chi2 = math.fsum((counts - n * exact) ** 2 / (n * exact))
    return dict(tv_estimate=0.5 * math.fsum(np.abs(counts / n - exact)),
                chi2_statistic=chi2,
                p_value=specfun.gamma_q((exact.size - 1) / 2.0, chi2 / 2.0),
                n_cells=exact.size, n_samples=n)


@pytest.mark.parametrize("name", ["annulus", "unit_disk", "two_strips",
                                  "off_center_hole", "triangle"])
def test_grid_tv_sectors_equal_the_brute_force_rule(request, name):
    # even and odd resolutions put many cells at exactly one angle (the
    # axes and diagonals through the center); every n_cells cuts the
    # occupied cells at other ranks.  The masks cost one pass over the
    # grid per sector, so the largest n_cells stop at resolution 101.
    body = sector_body(request, name)
    lo, hi = body.bbox
    rng = np.random.default_rng(0)
    for resolution in (4, 5, 8, 13, 30, 31, 64, 101, 400):
        oracle = GridOracle(body, resolution=resolution)
        m = oracle.n_occupied
        wanted = {2, 3, 16} | ({m - 1, m} if resolution <= 101 else set())
        for n_cells in sorted(wanted & set(range(2, m + 1))):
            want_exact, want_sector = brute_force_sectors(oracle, n_cells)
            exact, sector = sectors_of_every_cell(oracle, n_cells)
            assert exact.tolist() == want_exact.tolist(), (resolution, n_cells)
            assert sector.tolist() == want_sector.ravel().tolist(), (resolution, n_cells)
            # points of the bbox and around it, clipped to the grid, end to end
            pts = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo),
                              size=(max(5 * n_cells, 500), 2))
            got = dataclasses.asdict(grid_tv_check(body, pts, n_cells, oracle=oracle))
            assert got.pop("verdict") in (SATISFIED, VIOLATED)
            assert got == brute_force_tv(oracle, pts, n_cells), (resolution, n_cells)


@pytest.mark.parametrize("name", ["annulus", "unit_disk", "off_center_hole"])
def test_grid_tv_sectors_keep_each_ray_whole_and_near_equal(request, name):
    body = sector_body(request, name)
    ties = 0
    for resolution in (4, 5, 8, 13, 30, 31, 64, 101):
        oracle = GridOracle(body, resolution=resolution)
        m = oracle.n_occupied
        angle = cell_angles(oracle).ravel()
        order = np.argsort(angle, kind="stable")
        same = np.diff(angle[order]) == 0.0
        # L: the most occupied cells at one angle
        _, at_angle = np.unique(angle[oracle.bitmap.ravel()], return_counts=True)
        longest = at_angle.max()
        ties += longest > 1
        for n_cells in sorted({2, 3, 7, 16, m // 3, m - 1, m} & set(range(2, m + 1))):
            exact, sector = sectors_of_every_cell(oracle, n_cells)
            # all cells at one angle, occupied or free, share a sector
            assert np.all(np.diff(sector[order])[same] == 0), (resolution, n_cells)
            sizes = np.rint(exact * m)
            assert sizes.sum() == m and sizes.min() >= 1
            assert np.all(np.abs(sizes - m / n_cells) < longest + 1), (resolution, n_cells)
    assert ties >= 4


def test_grid_tv_reports_the_number_of_sectors_used(unit_disk):
    # at 8 x 8 the disk's 52 occupied cells lie on 44 angles (3 cells on
    # each half-diagonal): asking for one cell per sector leaves 44 sectors
    oracle = GridOracle(unit_disk, resolution=8)
    m = oracle.n_occupied
    n_angles = np.unique(cell_angles(oracle)[oracle.bitmap]).size
    assert n_angles < m
    pts = bitmap_uniform(oracle, make_rng(7), 5 * m)
    res = grid_tv_check(unit_disk, pts, m, oracle=oracle)
    assert res.n_cells == n_angles
    assert res.p_value == specfun.gamma_q((n_angles - 1) / 2.0, res.chi2_statistic / 2.0)
    # when no runs merge, n_cells is the number asked for
    assert grid_tv_check(unit_disk, pts, 16, oracle=oracle).n_cells == 16


def test_grid_tv_refuses_a_single_sector():
    # at resolution 5 the two occupied cells, (0.7, 0.5) and (0.9, 0.5),
    # both lie at angle 0 around (0.5, 0.5): one sector, a chi-square
    # with no degrees of freedom
    body = three_boxes()
    oracle = GridOracle(body, resolution=5)
    assert oracle.n_occupied == 2
    pts = np.tile([[0.7, 0.5], [0.9, 0.5]], (5, 1))
    with pytest.raises(ValueError, match="every occupied grid cell lies at one angle "
                                         "from the bbox center"):
        grid_tv_check(body, pts, 2, oracle=oracle)


def test_only_a_body_without_a_distance_builds_the_kd_tree(annulus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("KD-tree built")

    # GridOracle looks the class up on scipy.spatial when it builds a tree
    monkeypatch.setattr("scipy.spatial.cKDTree", refuse)
    p = planner.plan(ANNULUS_PLAN_INPUTS)
    oracle = GridOracle(annulus, resolution=100)
    # exact-uniform points, some of them in free cells of the grid
    pts = bodies.sample_uniform(annulus, make_rng(3), 20_000)
    ij = oracle.cell_index(pts)
    assert not oracle.bitmap[ij[:, 0], ij[:, 1]].all()
    stationary_escape_check(annulus, p.h, 0.5, 2000, make_rng(4), oracle=oracle)
    per_iteration_checks(annulus, p, oracle=oracle)
    certificate_soundness_check(annulus, 0.5, 2000, make_rng(6), oracle=oracle)
    grid_tv_check(annulus, pts, 16, oracle=oracle)
    with pytest.raises(AssertionError, match="KD-tree built"):
        GridOracle(triangle(), resolution=50).distance(np.array([[2.0, 2.0]]))


def test_tv_verdict_is_violated_below_the_one_percent_level():
    def result(p):
        return TvCheckResult(tv_estimate=0.1, chi2_statistic=20.0, p_value=p,
                             n_cells=16, n_samples=1000)

    assert diagnostics.TV_LEVEL == 0.01
    assert result(0.01).verdict == SATISFIED
    assert result(np.nextafter(0.01, 0.0)).verdict == VIOLATED
    assert list(dataclasses.asdict(result(0.5))) == [
        "tv_estimate", "chi2_statistic", "p_value", "n_cells", "n_samples", "verdict"]


# ------------------------------------------------------ enlarged volume


def test_enlarged_ratio_degenerate_t(unit_disk):
    chk = certificate_soundness_check(unit_disk, 0.0, 10_000, make_rng(14))
    assert chk.empirical == 1.0
    assert chk.mc_std_error == 0.0


def test_enlarged_ratio_disk_unit_dilation(unit_disk):
    # Vol(disk + 1) / Vol(disk) = (2/1)^2 = 4
    chk = certificate_soundness_check(unit_disk, 1.0, 200_000, make_rng(15))
    assert abs(chk.empirical - 4.0) <= 4.0 * chk.mc_std_error


def test_enlarged_ratio_annulus_fills_hole(annulus):
    # dilating by the hole radius recovers the full 1.5-disk: ratio 3
    chk = certificate_soundness_check(annulus, 0.5, 200_000, make_rng(16))
    assert abs(chk.empirical - 3.0) <= 4.0 * chk.mc_std_error


def test_enlarged_ratio_validation(unit_disk):
    with pytest.raises(ValueError):
        certificate_soundness_check(unit_disk, -0.1, 100, make_rng(1))
    # NaN is no dilation, not a bbox too wide for floats
    with pytest.raises(ValueError, match="nonnegative, got nan"):
        certificate_soundness_check(unit_disk, math.nan, 100, make_rng(1))


@pytest.mark.parametrize("fixture", ["unit_disk", "unit_square", "annulus",
                                     "l_shape", "cross"])
@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_certificates_hold_empirically(request, fixture, t):
    body = request.getfixturevalue(fixture)
    chk = certificate_soundness_check(body, t, 40_000, make_rng(17))
    assert chk.verdict == SATISFIED


def test_certificate_check_on_gridded_polytope():
    chk = certificate_soundness_check(triangle(), 0.5, 40_000, make_rng(18))
    assert chk.verdict == SATISFIED


# ------------------------------------------- blocks of the Monte Carlo checks


B = diagnostics.ORACLE_BLOCK_POINTS


def whole_array_uniform_reference(body, rng, size):
    """uniform_reference with the uniforms drawn and applied in one call."""
    if body.shell is None:
        return bodies.sample_uniform(body, rng, size)
    c, r_in, r_out = body.shell
    n = body.dim
    g = rng.standard_normal((size, n))
    u = rng.random(size)
    t = (r_in / r_out) ** n
    rho = r_out * (t + u * (1.0 - t)) ** (1.0 / n)
    g *= (rho / bodies._radius(g, 0.0))[:, None]
    g += c
    return g


def whole_array_escape(body, h, r, n_mc, rng, dist):
    """(empirical, mc_std_error) of the escape check with every array of n_mc rows whole."""
    xs = whole_array_uniform_reference(body, rng, n_mc)
    ys = xs + math.sqrt(h) * rng.standard_normal((n_mc, body.dim))
    p = int(np.count_nonzero(np.asarray(dist(ys)) > r)) / n_mc
    return p, math.sqrt(p * (1.0 - p) / n_mc)


def whole_array_certificate(body, t, n_mc, rng, dist):
    """(n_in, n_t) of the certificate check with every array of n_mc rows whole."""
    pts = rng.uniform(body.bbox[0] - t, body.bbox[1] + t, size=(n_mc, body.dim))
    in_x = np.asarray(body.membership(pts))
    in_xt = in_x | (np.asarray(dist(pts)) <= t)
    return int(np.count_nonzero(in_x)), int(np.count_nonzero(in_xt))


def whole_array_tv_counts(oracle, samples, n_cells):
    """The sector counts of grid_tv_check with every sample's cell and angle at once."""
    exact, cuts = diagnostics._sectors(oracle, n_cells)
    center = (oracle.lo + oracle.hi) / 2.0
    ij = oracle.cell_index(samples)
    angle = np.arctan2(oracle.ys[ij[:, 1]] - center[1], oracle.xs[ij[:, 0]] - center[0])
    return exact, np.bincount(np.searchsorted(cuts, angle, side="right"),
                              minlength=exact.size)


# name -> (body, dilation t of the certificate check)
BLOCK_BODIES = {
    # a shell with an analytic distance
    "annulus": lambda request: (request.getfixturevalue("annulus"), 0.5),
    # bbox rejection, and the grid oracle's KD-tree distance
    "triangle": lambda request: (triangle(), 0.1),
    # a shell whose radius takes np.add.reduce's pairwise sum
    "ball10": lambda request: (bodies.make_ball([0.1] * 10, 1.0), 0.5),
}


@pytest.mark.parametrize("n_mc", [1, 5, B, 2 * B + 5], ids=["1", "5", "B", "2B+5"])
@pytest.mark.parametrize("name", list(BLOCK_BODIES))
def test_monte_carlo_blocks_keep_the_bits_of_whole_arrays(request, name, n_mc):
    body, t = BLOCK_BODIES[name](request)
    oracle = GridOracle(body, resolution=101) if body.dim == 2 else None
    dist = body.distance if body.distance is not None else oracle.distance
    h = planner.step_size_regime(body.dim, body.growth.beta).base_cap
    # a tenth of a step's spread: about a third of the planar draws and
    # 8% of the 10-D ones escape, so a block counted twice or not at all
    # moves the count
    r = math.sqrt(h) / 10.0

    got = diagnostics.uniform_reference(body, make_rng(1), n_mc)
    assert np.array_equal(got, whole_array_uniform_reference(body, make_rng(1), n_mc))

    chk = stationary_escape_check(body, h, r, n_mc, make_rng(2), oracle=oracle)
    assert (chk.empirical, chk.mc_std_error) == whole_array_escape(body, h, r, n_mc,
                                                                   make_rng(2), dist)
    n_in, n_t = whole_array_certificate(body, t, n_mc, make_rng(3), dist)
    if n_in == 0:
        with pytest.raises(UnsupportedCheck, match="landed inside the body"):
            certificate_soundness_check(body, t, n_mc, make_rng(3), oracle=oracle)
    else:
        chk = certificate_soundness_check(body, t, n_mc, make_rng(3), oracle=oracle)
        assert chk.empirical == n_t / n_in
        assert chk.mc_std_error == chk.empirical * math.sqrt(max(1 / n_in - 1 / n_t, 0))
    if n_mc == 2 * B + 5:
        assert 0 < n_in < n_t < n_mc

    if oracle is not None:
        # grid_tv needs 5 samples per sector; points around the bbox
        # reach cells that the grid clips
        lo, hi = body.bbox
        pts = make_rng(4).uniform(lo - 0.1, hi + 0.1, size=(max(n_mc, 10), 2))
        for n_cells in (2, 7):
            if 5 * n_cells > len(pts):
                continue
            exact, counts = whole_array_tv_counts(oracle, pts, n_cells)
            got = grid_tv_check(body, pts, n_cells, oracle=oracle)
            n = len(pts)
            assert got.tv_estimate == 0.5 * math.fsum(np.abs(counts / n - exact))
            assert got.chi2_statistic == math.fsum((counts - n * exact) ** 2 / (n * exact))
            assert got.p_value == specfun.gamma_q((exact.size - 1) / 2.0,
                                                  got.chi2_statistic / 2.0)
            assert got.n_samples == n and got.n_cells == exact.size


def test_monte_carlo_checks_hold_no_n_mc_sized_temporary(annulus):
    # one float per draw is 1.6 MB at n_mc 200,000, and the escape
    # check's drawn points are 3.2 MB.  With every array of n_mc rows
    # whole the escape, certificate and grid TV checks peaked at 12.8,
    # 9.8 and 8.0 MB.  In blocks the escape check holds the points and
    # one block (3.6 MB), the certificate check one block (0.40 MB), and
    # grid TV the occupied cells' angles at resolution 400 (1.56 MB); the
    # last two read the same at n_mc 20,000.
    p = planner.plan(ANNULUS_PLAN_INPUTS)
    oracle = GridOracle(annulus, resolution=400)
    for n_mc in (20_000, 200_000):
        peak, _ = traced_peak(lambda: stationary_escape_check(
            annulus, p.h, 0.25, n_mc, make_rng(1), oracle=oracle))
        assert peak < 16 * n_mc + 1.0e6, n_mc
        peak, _ = traced_peak(lambda: certificate_soundness_check(
            annulus, 0.5, n_mc, make_rng(2), oracle=oracle))
        assert peak < 0.6e6, n_mc
        pts = diagnostics.uniform_reference(annulus, make_rng(3), n_mc)
        peak, _ = traced_peak(lambda: grid_tv_check(annulus, pts, 16, oracle=oracle))
        assert peak < 1.8e6, n_mc


# ------------------------------------------------------------ slope fit


def test_failure_rate_slope_exact_line():
    slope, se = failure_rate_slope([0.1, 0.2, 0.3])
    assert slope == pytest.approx(0.1)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_failure_rate_slope_detects_decay():
    rates = 0.5 * np.exp(-0.3 * np.arange(20))
    slope, _ = failure_rate_slope(rates)
    assert slope < 0.0


def test_failure_rate_slope_noise_has_uncertainty():
    rng = make_rng(19)
    rates = 0.2 + 0.01 * rng.standard_normal(30)
    slope, se = failure_rate_slope(rates)
    assert se > 0.0
    assert abs(slope) <= 5.0 * se


def test_failure_rate_slope_validation():
    with pytest.raises(ValueError):
        failure_rate_slope([0.1, 0.2])
