"""Monte Carlo falsification checks for the chain's guarantees.

Each check estimates an observable quantity of the stationary smoothed
law and compares it against its certified bound.  Verdicts are
deliberately one-sided: a check is Satisfied when the empirical value
does not exceed the bound by more than three Monte Carlo standard
errors, so a true bound essentially never fails and a wrong one
reliably does.  All reductions over samples use compensated summation,
making the estimates independent of accumulation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from . import specfun
from .bodies import Body, sample_uniform
from .planner import Plan, step_size_regime

SATISFIED = "satisfied"
VIOLATED = "violated_beyond_3se"


class UnsupportedCheck(RuntimeError):
    """The body lacks what this check needs (e.g. a distance function)."""


@dataclass
class BoundCheck:
    """An empirical estimate paired with its certified bound."""

    name: str
    empirical: float
    theoretical_bound: float
    mc_std_error: float
    n_samples: int
    verdict: str = ""
    note: str = ""

    def __post_init__(self):
        if not self.verdict:
            ok = self.empirical <= self.theoretical_bound + 3.0 * self.mc_std_error
            self.verdict = SATISFIED if ok else VIOLATED

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "empirical": self.empirical,
            "theoretical_bound": self.theoretical_bound,
            "mc_std_error": self.mc_std_error,
            "n_samples": self.n_samples,
            "verdict": self.verdict,
            "note": self.note,
        }


def _mean_and_se(values: np.ndarray) -> tuple:
    n = values.shape[0]
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((values - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)


class GridOracle:
    """Dense 2-D reference model of a body on a regular grid.

    The bitmap marks cells whose center lies inside the body.  It
    supports a volume estimate, exact-uniform sampling over the
    occupied cells, a distance proxy (distance to the nearest occupied
    cell center, exact up to one cell diagonal), and cell indexing for
    histogram tests.
    """

    def __init__(self, body: Body, resolution: int = 400):
        if body.dim != 2:
            raise UnsupportedCheck(f"grid oracle is 2-D only, body has dim {body.dim}")
        if resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {resolution}")
        self.body = body
        self.resolution = resolution
        lo, hi = body.bbox
        self.lo = lo.copy()
        self.hi = hi.copy()
        self.step = (hi - lo) / resolution
        xs = lo[0] + (np.arange(resolution) + 0.5) * self.step[0]
        ys = lo[1] + (np.arange(resolution) + 0.5) * self.step[1]
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        self.bitmap = np.asarray(body.membership(centers)).reshape(resolution, resolution)
        self.cell_volume = float(self.step[0] * self.step[1])
        occ = np.argwhere(self.bitmap)
        if occ.shape[0] == 0:
            raise ValueError("no grid cell center lies inside the body")
        self.occupied_ij = occ
        self.occupied_centers = self.lo + (occ + 0.5) * self.step
        self._tree = cKDTree(self.occupied_centers)

    @property
    def n_occupied(self) -> int:
        return self.occupied_ij.shape[0]

    def volume_estimate(self) -> float:
        return self.n_occupied * self.cell_volume

    def cell_index(self, pts: np.ndarray) -> np.ndarray:
        """Fine-grid (i, j) index of each point, clipped to the grid."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ij = np.floor((pts - self.lo) / self.step).astype(int)
        return np.clip(ij, 0, self.resolution - 1)

    def distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the nearest occupied cell center (0 for points in occupied cells)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ij = self.cell_index(pts)
        # cell_index clips, so only points actually inside the gridded
        # box may claim the zero distance of their cell
        in_box = np.all((pts >= self.lo) & (pts <= self.hi), axis=1)
        inside = in_box & self.bitmap[ij[:, 0], ij[:, 1]]
        d, _ = self._tree.query(pts)
        d = np.asarray(d, dtype=float)
        d[inside] = 0.0
        return d

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Exact uniform draws from the union of occupied cells."""
        idx = rng.integers(0, self.n_occupied, size=size)
        corner = self.lo + self.occupied_ij[idx] * self.step
        return corner + rng.random((size, 2)) * self.step


def local_conductance_mc(body: Body, y, h: float, n_mc: int,
                         rng: np.random.Generator) -> tuple:
    """MC estimate of Pr(y + sqrt(h) Z lands in the body), with its std error."""
    if not (h > 0.0):
        raise ValueError(f"step size must be positive, got {h}")
    if n_mc < 1:
        raise ValueError(f"need at least one sample, got {n_mc}")
    y = np.asarray(y, dtype=float)
    pts = y + math.sqrt(h) * rng.standard_normal((n_mc, body.dim))
    hits = int(np.count_nonzero(body.membership(pts)))
    p = hits / n_mc
    return p, math.sqrt(p * (1.0 - p) / n_mc)


def expected_trials_closed_form(p: float, N: int) -> float:
    """E[min(G, N)] for G geometric with success probability p.

    Equals (1 - (1-p)^N) / p for p > 0 and N at p = 0.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if N < 1:
        raise ValueError(f"threshold must be >= 1, got {N}")
    if p == 0.0:
        return float(N)
    if p == 1.0:
        return 1.0
    # -expm1(N log1p(-p)) = 1 - (1-p)^N without cancellation
    return -math.expm1(N * math.log1p(-p)) / p


def _require_distance(body: Body, oracle: Optional[GridOracle], resolution: int):
    """Pick the distance route: analytic when present, else a 2-D grid."""
    if body.distance is not None:
        return body.distance, ""
    if body.dim == 2:
        oracle = oracle or GridOracle(body, resolution)
        diag = math.hypot(*oracle.step)
        return oracle.distance, (
            f"distance from grid oracle (resolution {oracle.resolution}), "
            f"accurate to one cell diagonal {diag:.2e}"
        )
    raise UnsupportedCheck(
        "no analytic distance function and the body is not 2-D"
    )


def stationary_escape_check(body: Body, h: float, r: float, n_mc: int,
                            rng: np.random.Generator,
                            oracle: Optional[GridOracle] = None,
                            resolution: int = 400) -> BoundCheck:
    """Check the smoothed-law escape bound at distance r.

    Draws X uniform on the body, forms Y = X + sqrt(h) Z, and compares
    the empirical frequency of dist(Y, body) > r against
    alpha (n+1) Q_{2n}(r / sqrt(h)).  Requires h within the base cap
    of planner.step_size_regime.
    """
    if body.growth is None:
        raise ValueError("body has no growth certificate")
    if not (r > 0.0):
        raise ValueError(f"escape distance must be positive, got {r}")
    n = body.dim
    h_cap = step_size_regime(n, body.growth.beta).base_cap
    if not (0.0 < h <= h_cap * (1.0 + 1e-12)):
        raise ValueError(f"step size {h} violates the base regime cap {h_cap}")
    dist, note = _require_distance(body, oracle, resolution)
    xs = sample_uniform(body, rng, n_mc)
    ys = xs + math.sqrt(h) * rng.standard_normal((n_mc, n))
    escapes = int(np.count_nonzero(np.asarray(dist(ys)) > r))
    p = escapes / n_mc
    se = math.sqrt(p * (1.0 - p) / n_mc)
    bound = body.growth.alpha * (n + 1) * specfun.chi_tail(2 * n, r / math.sqrt(h))
    return BoundCheck(
        name=f"stationary_escape(r={r})",
        empirical=p,
        theoretical_bound=bound,
        mc_std_error=se,
        n_samples=n_mc,
        note=note,
    )


def smoothed_conductance_samples(body: Body, h: float, n_outer: int,
                                 inner_mc: int, rng: np.random.Generator,
                                 block: int = 64) -> np.ndarray:
    """Estimated local conductance at n_outer points of the smoothed law.

    Outer points follow X uniform, Y = X + sqrt(h) Z; each inner
    estimate uses inner_mc fresh proposals.  Returns the n_outer
    estimates in [0, 1].
    """
    n = body.dim
    sqrt_h = math.sqrt(h)
    xs = sample_uniform(body, rng, n_outer)
    ys = xs + sqrt_h * rng.standard_normal((n_outer, n))
    out = np.empty(n_outer)
    for start in range(0, n_outer, block):
        yb = ys[start:start + block]
        m = yb.shape[0]
        z = rng.standard_normal((m, inner_mc, n))
        pts = yb[:, None, :] + sqrt_h * z
        hits = np.asarray(body.membership(pts.reshape(-1, n))).reshape(m, inner_mc)
        out[start:start + m] = hits.mean(axis=1)
    return out


def per_iteration_checks(body: Body, p: Plan, n_mc: int,
                         rng: np.random.Generator,
                         inner_mc: int = 10_000) -> tuple:
    """The (stationary_failure, expected_trials) checks on one shared sample.

    After checking the shared step-size and threshold hypotheses, estimates
    the local conductance at n_mc smoothed-law points, inner_mc proposals
    each.  Failure: E[(1 - conductance)^N] against 3/S; the nested
    estimate is biased upward (convexity), i.e. toward a stricter test,
    and a point with zero inner hits counts as a certain failure.

    Trials: E[min(G, N)] against 16 alpha log S, with the geometric
    success probability replaced by its inner estimate.  Estimates
    below the inner resolution 1/inner_mc are clamped to it: a zero-hit
    point would otherwise contribute min(G, N) ~ N on its own and both
    the mean and its std error would be dominated by a region whose
    (exponentially small) mass the escape check bounds separately.
    """
    if body.growth is None:
        raise ValueError("body has no growth certificate")
    alpha = body.growth.alpha
    h_cap = step_size_regime(body.dim, body.growth.beta, alpha, p.S).per_iteration_cap
    if not (p.h <= h_cap * (1.0 + 1e-12)):
        raise ValueError(f"step size {p.h} violates the per-iteration regime cap {h_cap}")
    n_floor = 8.0 * alpha * p.S * math.log(p.S)
    if not (p.N >= n_floor * (1.0 - 1e-12)):
        raise ValueError(
            f"trial threshold {p.N} below the required 8 alpha S log S = {n_floor}"
        )

    ell = smoothed_conductance_samples(body, p.h, n_mc, inner_mc, rng)
    # estimates are multiples of 1/inner_mc: the zero-hit points are
    # exactly the ones below the resolution floor
    zero = ell == 0.0
    source = (f"inner conductance from {inner_mc} proposals per point; "
              f"{np.count_nonzero(zero)}/{n_mc} outer points had zero inner hits")
    # (1 - ell)^N in log space; ell == 0 contributes exactly 1
    vals = np.ones(n_mc)
    with np.errstate(divide="ignore"):
        vals[~zero] = np.exp(p.N * np.log1p(-ell[~zero]))
    mean, se = _mean_and_se(vals)
    failure = BoundCheck(
        name="stationary_failure",
        empirical=mean,
        theoretical_bound=3.0 / p.S,
        mc_std_error=se,
        n_samples=n_mc,
        note=(f"{source}; nested estimate is biased upward (conservative) and "
              f"resolves failure mass only down to 1/{n_mc} = {1.0 / n_mc:.2g}"),
    )
    floor = 1.0 / inner_mc
    vals = np.array([expected_trials_closed_form(max(e, floor), p.N) for e in ell])
    mean, se = _mean_and_se(vals)
    trials = BoundCheck(
        name="expected_trials",
        empirical=mean,
        theoretical_bound=16.0 * alpha * math.log(p.S),
        mc_std_error=se,
        n_samples=n_mc,
        note=f"{source}; these were clamped to the 1/{inner_mc} resolution floor",
    )
    return failure, trials


def stationary_failure_check(body: Body, p: Plan, n_mc: int,
                             rng: np.random.Generator,
                             inner_mc: int = 10_000) -> BoundCheck:
    """Failure mass <= 3/S: the first record of per_iteration_checks."""
    return per_iteration_checks(body, p, n_mc, rng, inner_mc)[0]


def expected_trials_check(body: Body, p: Plan, n_mc: int,
                          rng: np.random.Generator,
                          inner_mc: int = 10_000) -> BoundCheck:
    """Mean in-step trials <= 16 alpha log S: the second record of per_iteration_checks."""
    return per_iteration_checks(body, p, n_mc, rng, inner_mc)[1]


@dataclass
class TvCheckResult:
    """Uniformity test of samples against the grid oracle's cell law."""

    tv_estimate: float
    chi2_statistic: float
    p_value: float
    n_cells: int
    n_samples: int
    counts: np.ndarray = field(repr=False, default=None)
    expected: np.ndarray = field(repr=False, default=None)


def grid_tv_check(body: Body, samples, n_cells: int,
                  oracle: Optional[GridOracle] = None,
                  resolution: int = 400) -> TvCheckResult:
    """Compare samples with exact uniform via equal-mass grid cells.

    The oracle bitmap is carved into n_cells angular groups of equal
    occupied-cell count around the bbox center (for round bodies these
    are sectors).  Reports the half-L1 distance between empirical and
    exact cell histograms and a chi-square goodness-of-fit p-value.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 5 * n_cells:
        raise ValueError(
            f"{samples.shape[0]} samples is too few for {n_cells} cells "
            "(need an expected count of at least 5 per cell)"
        )
    if n_cells < 2:
        raise ValueError(f"need at least 2 cells, got {n_cells}")
    oracle = oracle or GridOracle(body, resolution)
    if n_cells > oracle.n_occupied:
        raise ValueError("more cells requested than occupied grid cells")

    lo, hi = body.bbox
    center = (lo + hi) / 2.0
    rel = oracle.occupied_centers - center
    order = np.lexsort((np.hypot(rel[:, 0], rel[:, 1]),
                        np.arctan2(rel[:, 1], rel[:, 0])))
    group_of_occupied = np.empty(oracle.n_occupied, dtype=int)
    for g, chunk in enumerate(np.array_split(order, n_cells)):
        group_of_occupied[chunk] = g
    sizes = np.bincount(group_of_occupied, minlength=n_cells)
    exact = sizes / oracle.n_occupied

    # map samples to groups via their fine cell; samples whose cell
    # center fell outside the bitmap go to the nearest occupied cell
    flat_to_occ = -np.ones(oracle.resolution**2, dtype=int)
    occ_flat = oracle.occupied_ij[:, 0] * oracle.resolution + oracle.occupied_ij[:, 1]
    flat_to_occ[occ_flat] = np.arange(oracle.n_occupied)
    ij = oracle.cell_index(samples)
    occ_idx = flat_to_occ[ij[:, 0] * oracle.resolution + ij[:, 1]]
    missing = occ_idx < 0
    if np.any(missing):
        _, nearest = oracle._tree.query(samples[missing])
        occ_idx[missing] = nearest
    groups = group_of_occupied[occ_idx]

    n = samples.shape[0]
    counts = np.bincount(groups, minlength=n_cells)
    tv = 0.5 * math.fsum(np.abs(counts / n - exact))
    expected_counts = n * exact
    chi2 = math.fsum((counts - expected_counts) ** 2 / expected_counts)
    p_value = specfun.gamma_q((n_cells - 1) / 2.0, chi2 / 2.0)
    return TvCheckResult(
        tv_estimate=tv,
        chi2_statistic=chi2,
        p_value=p_value,
        n_cells=n_cells,
        n_samples=n,
        counts=counts,
        expected=expected_counts,
    )


def enlarged_volume_ratio_mc(body: Body, t: float, n_mc: int,
                             rng: np.random.Generator,
                             oracle: Optional[GridOracle] = None,
                             resolution: int = 400) -> tuple:
    """MC estimate of Vol(X_t) / Vol(X) with its standard error.

    Samples uniformly in the bbox inflated by t, classifies points by
    distance (in X_t iff dist <= t; in X via membership), and returns
    the count ratio.  The std error accounts for the nesting of the
    two events; it is exactly zero at t = 0.
    """
    if t < 0.0:
        raise ValueError(f"dilation must be nonnegative, got {t}")
    if n_mc < 1:
        raise ValueError(f"need at least one sample, got {n_mc}")
    dist, _ = _require_distance(body, oracle, resolution)
    lo, hi = body.bbox
    pts = rng.uniform(lo - t, hi + t, size=(n_mc, body.dim))
    in_x = np.asarray(body.membership(pts))
    in_xt = in_x | (np.asarray(dist(pts)) <= t)
    n_in = int(np.count_nonzero(in_x))
    n_t = int(np.count_nonzero(in_xt))
    if n_in == 0:
        raise RuntimeError("no Monte Carlo sample landed inside the body")
    ratio = n_t / n_in
    se = ratio * math.sqrt(max(1.0 / n_in - 1.0 / n_t, 0.0))
    return ratio, se


def certificate_soundness_check(body: Body, t: float, n_mc: int,
                                rng: np.random.Generator,
                                oracle: Optional[GridOracle] = None,
                                resolution: int = 400) -> BoundCheck:
    """Falsification check of the growth certificate at dilation t."""
    if body.growth is None:
        raise ValueError("body has no growth certificate")
    ratio, se = enlarged_volume_ratio_mc(body, t, n_mc, rng, oracle, resolution)
    return BoundCheck(
        name=f"certificate_soundness(t={t})",
        empirical=ratio,
        theoretical_bound=body.growth.bound(t, body.dim),
        mc_std_error=se,
        n_samples=n_mc,
    )


def failure_rate_slope(rates: Sequence[float]) -> tuple:
    """Least-squares slope of a per-iteration rate sequence and its std error.

    Used to test that conditional failure rates do not trend upward: a
    warm chain should show a slope statistically indistinguishable
    from <= 0.
    """
    y = np.asarray(rates, dtype=float)
    m = y.shape[0]
    if m < 3:
        raise ValueError("need at least 3 iterations to estimate a slope")
    x = np.arange(m, dtype=float)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean())) / sxx
    resid = y - y.mean() - slope * xc
    var = float(resid @ resid) / (m - 2)
    se = math.sqrt(var / sxx)
    return slope, se
