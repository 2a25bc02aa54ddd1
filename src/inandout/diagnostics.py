"""Falsification checks for the chain's guarantees.

Each check estimates an observable quantity of the stationary smoothed
law and compares it against its certified bound.  Verdicts are
deliberately one-sided: a check is Satisfied when the empirical value
does not exceed the bound by more than three standard errors, so a true
bound essentially never fails and a wrong one reliably does.

Most estimates are Monte Carlo means, and their reductions over samples
use compensated summation, making them independent of accumulation
order.  The per-iteration failure and trial checks of a 2-D body are
computed instead by grid quadrature of the local conductance on the
`GridOracle` bitmap; their error is the change from a grid of half the
resolution, which resolves failure mass far below the 3/S bound (about
3e-14 against 6.7e-7 on the annulus plan).  Other dimensions keep a
nested Monte Carlo, which resolves failure mass only down to 1/n_mc.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy
from numpy.lib.stride_tricks import sliding_window_view

from . import specfun
from .bodies import Body, sample_uniform
from .planner import Plan, step_size_regime, trial_floor

SATISFIED = "satisfied"
VIOLATED = "violated_beyond_3se"
RESOLUTION = 400   # GridOracle cells per axis
INNER_MC = 2_000   # proposals per outer point of the nested Monte Carlo
TV_LEVEL = 0.01    # grid_tv is violated when its p-value falls below this


class UnsupportedCheck(RuntimeError):
    """The body lacks what this check needs (e.g. a distance function), or
    the check's draws cannot resolve it (no draw lands in the body)."""


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
        return asdict(self)


def _mean_and_se(values: np.ndarray) -> tuple:
    n = values.shape[0]
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((values - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)


class GridOracle:
    """Dense 2-D reference model of a body on a regular grid.

    The bitmap marks cells whose center lies inside the body; `xs` and
    `ys` are the cell centers' coordinates along each axis.  It supports
    a distance proxy (distance to the nearest occupied cell center,
    exact up to one cell diagonal), cell indexing for histogram tests,
    and the grid quadrature of the per-iteration checks.
    """

    def __init__(self, body: Body, resolution: int = RESOLUTION):
        if body.dim != 2:
            raise UnsupportedCheck(f"grid oracle is 2-D only, body has dim {body.dim}")
        if resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {resolution}")
        self.resolution = resolution
        lo, hi = body.bbox
        self.lo = lo.copy()
        self.hi = hi.copy()
        self.step = (hi - lo) / resolution
        self.xs = lo[0] + (np.arange(resolution) + 0.5) * self.step[0]
        self.ys = lo[1] + (np.arange(resolution) + 0.5) * self.step[1]
        # cell (i, j) is row i * resolution + j, at (xs[i], ys[j])
        centers = np.empty((resolution, resolution, 2))
        centers[..., 0] = self.xs[:, None]
        centers[..., 1] = self.ys
        self.bitmap = np.asarray(body.membership(centers.reshape(-1, 2))).reshape(
            resolution, resolution)
        self.n_occupied = int(np.count_nonzero(self.bitmap))
        if self.n_occupied == 0:
            raise ValueError("no grid cell center lies inside the body")

    @functools.cached_property
    def _tree(self) -> scipy.spatial.cKDTree:
        # built on the first distance query, which only a body without
        # an analytic distance makes; scipy.spatial loads here
        return scipy.spatial.cKDTree(self.lo + (np.argwhere(self.bitmap) + 0.5) * self.step)

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


def _require_distance(body: Body, oracle: Optional[GridOracle]):
    """Pick the distance route: analytic when present, else a 2-D grid."""
    if body.distance is not None:
        return body.distance, ""
    if body.dim == 2:
        oracle = oracle or GridOracle(body)
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
                            oracle: Optional[GridOracle] = None) -> BoundCheck:
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
    dist, note = _require_distance(body, oracle)
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
                                 inner_mc: int, rng: np.random.Generator) -> np.ndarray:
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
    block = 64  # outer points per membership batch: bounds the proposal array
    for start in range(0, n_outer, block):
        yb = ys[start:start + block]
        m = yb.shape[0]
        z = rng.standard_normal((m, inner_mc, n))
        pts = yb[:, None, :] + sqrt_h * z
        hits = np.asarray(body.membership(pts.reshape(-1, n))).reshape(m, inner_mc)
        out[start:start + m] = hits.mean(axis=1)
    return out


def _gaussian_band(n_cells: int, pad: int, step: float, h: float) -> np.ndarray:
    """Cell masses of N(0, h) seen from the padded grid's cell centers.

    Row k, column i holds the mass of bitmap cell i around the center of
    padded cell k, which depends only on k - pad - i: the rows are
    windows of one weight vector (a Toeplitz matrix of shape
    (n_cells + 2 pad, n_cells)).
    """
    c = step / math.sqrt(2.0 * h)
    d = np.abs(np.arange(-(n_cells + pad - 1), n_cells + pad))
    erfc = scipy.special.erfc
    w = 0.5 * (erfc((d - 0.5) * c) - erfc((d + 0.5) * c))
    # a contiguous copy keeps the products on BLAS
    return np.ascontiguousarray(sliding_window_view(w, n_cells)[:, ::-1])


def _grid_failure_and_trials(oracle: GridOracle, h: float, N: int) -> tuple:
    """(failure mass, expected trials, quadrature nodes) on the oracle's grid.

    With X uniform on the body and Y = X + sqrt(h) Z, Y has density
    ell / vol, where ell = 1_K * phi_h is the local conductance.  So the
    failure mass is sum ell (1 - ell)^N / sum ell, and the expected
    trials E[min(G, N)] are sum (1 - (1 - ell)^N) / sum ell, both over
    the cell centers of the bitmap padded by z sqrt(h) per side.  Every
    point of the body lies at least z sqrt(h) inside the padded box, so
    the mass of Y outside it is at most 4 Q(z) <= 2 exp(-z^2 / 2) with
    Q the normal tail; z = max(8, sqrt(2 log(1e6 N))) keeps the trials
    left out below 2e-6 in relative terms and the failure mass left
    out below 2e-6 / N, far under the 3/S bound.  ell is reduced in
    blocks of rows, so the padded grid is never held whole.
    """
    r = oracle.resolution
    z = max(8.0, math.sqrt(2.0 * math.log(1e6 * N)))
    pads = [math.ceil(z * math.sqrt(h) / s) for s in oracle.step]
    rows = _gaussian_band(r, pads[0], oracle.step[0], h)
    cols = _gaussian_band(r, pads[1], oracle.step[1], h)
    # ell = rows @ bitmap @ cols.T, the bitmap blurred along y first
    blurred = oracle.bitmap.astype(float) @ cols.T
    mass, failure, trials = [], [], []
    for k in range(0, rows.shape[0], 64):
        ell = np.minimum(rows[k:k + 64] @ blurred, 1.0)
        # (1 - ell)^N in log space; ell == 1 gives exactly 0
        with np.errstate(divide="ignore"):
            t = N * np.log1p(-ell)
        mass.append(ell.sum())
        failure.append((ell * np.exp(t)).sum())
        trials.append(-np.expm1(t).sum())
    total = math.fsum(mass)
    return (math.fsum(failure) / total, math.fsum(trials) / total,
            rows.shape[0] * cols.shape[0])


def per_iteration_checks(body: Body, p: Plan, n_mc: int,
                         rng: np.random.Generator,
                         inner_mc: int = INNER_MC,
                         oracle: Optional[GridOracle] = None) -> tuple:
    """The (stationary_failure, expected_trials) checks of the per-iteration bounds.

    Both first check the shared step-size and threshold hypotheses.
    Failure: the chance that all N in-step proposals miss, against 3/S.
    Trials: E[min(G, N)] with G geometric in the local conductance,
    against 16 alpha log S.

    A 2-D body is integrated on a grid (the oracle's, else one of
    resolution RESOLUTION): the local conductance ell = 1_K * phi_h is
    exact up to the bitmap's discretisation, each record's mc_std_error
    is the change from a grid of half the resolution, and n_mc, inner_mc
    and rng are not used.  A resolution below 4 has no such grid and is a
    ValueError.

    Other bodies estimate the local conductance at n_mc smoothed-law
    points, inner_mc proposals each, on one shared sample.  The nested
    failure estimate is biased upward (convexity), i.e. toward a
    stricter test, and a point with zero inner hits counts as a certain
    failure.  For the trials, estimates below the inner resolution
    1/inner_mc are clamped to it, so no point contributes more than
    about inner_mc trials.  The escape check bounds the mass of the
    region ell < 1/inner_mc, not its trials, which can be much of the
    mean (0.69 of 2.22 on a 10-D unit ball plan, from 2.4e-5 of the
    mass).  So the trials estimate is biased low by an amount its std
    error does not include, as the record's note says.
    """
    if body.growth is None:
        raise ValueError("body has no growth certificate")
    alpha = body.growth.alpha
    h_cap = step_size_regime(body.dim, body.growth.beta, alpha, p.S).per_iteration_cap
    if not (p.h <= h_cap * (1.0 + 1e-12)):
        raise ValueError(f"step size {p.h} violates the per-iteration regime cap {h_cap}")
    n_floor = trial_floor(alpha, p.S)
    if not (p.N >= n_floor * (1.0 - 1e-12)):
        raise ValueError(
            f"trial threshold {p.N} below the required 8 alpha S log S = {n_floor}"
        )
    bounds = (3.0 / p.S, 16.0 * alpha * math.log(p.S))
    if body.dim == 2:
        oracle = oracle or GridOracle(body)
        r = oracle.resolution
        if r < 4:
            raise ValueError(
                f"grid quadrature needs resolution >= 4 to measure its error on a "
                f"grid of half the resolution, got {r}")
        *fine, nodes = _grid_failure_and_trials(oracle, p.h, p.N)
        *coarse, _ = _grid_failure_and_trials(GridOracle(body, r // 2), p.h, p.N)
        note = (f"grid quadrature of the local conductance on {nodes} padded "
                f"cells (resolution {r}); the error is the change from "
                f"resolution {r // 2}")
        return tuple(BoundCheck(name=name, empirical=value, theoretical_bound=bound,
                                mc_std_error=abs(value - other), n_samples=nodes,
                                note=note)
                     for name, value, other, bound in zip(
                         ("stationary_failure", "expected_trials"), fine, coarse, bounds))

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
        theoretical_bound=bounds[0],
        mc_std_error=se,
        n_samples=n_mc,
        note=(f"{source}; nested estimate is biased upward (conservative) and "
              f"resolves failure mass only down to 1/{n_mc} = {1.0 / n_mc:.2g}"),
    )
    # expected_trials_closed_form of each estimate clamped into (0, 1];
    # an estimate of 1 gives -expm1(-inf) / 1 = 1 exactly
    q = np.maximum(ell, 1.0 / inner_mc)
    with np.errstate(divide="ignore"):
        vals = -np.expm1(p.N * np.log1p(-q)) / q
    mean, se = _mean_and_se(vals)
    trials = BoundCheck(
        name="expected_trials",
        empirical=mean,
        theoretical_bound=bounds[1],
        mc_std_error=se,
        n_samples=n_mc,
        note=(f"{source}; these were clamped to the 1/{inner_mc} resolution floor, "
              f"so the estimate leaves out the trials of the region where the "
              f"local conductance is below 1/{inner_mc} and is biased low by an "
              f"amount its SE does not include"),
    )
    return failure, trials


def stationary_failure_check(body: Body, p: Plan, n_mc: int,
                             rng: np.random.Generator,
                             inner_mc: int = INNER_MC) -> BoundCheck:
    """Failure mass <= 3/S: the first record of per_iteration_checks.

    bench/tracing.py wraps this name; a caller that needs both records
    calls per_iteration_checks once.
    """
    return per_iteration_checks(body, p, n_mc, rng, inner_mc)[0]


def expected_trials_check(body: Body, p: Plan, n_mc: int,
                          rng: np.random.Generator,
                          inner_mc: int = INNER_MC) -> BoundCheck:
    """Mean in-step trials <= 16 alpha log S: the second record of per_iteration_checks.

    bench/tracing.py wraps this name; a caller that needs both records
    calls per_iteration_checks once.
    """
    return per_iteration_checks(body, p, n_mc, rng, inner_mc)[1]


@dataclass
class TvCheckResult:
    """Uniformity test of samples against the grid oracle's cell law.

    The verdict is violated when the p-value falls below TV_LEVEL, so a
    correct sampler fails on about that share of seeds.
    """

    tv_estimate: float
    chi2_statistic: float
    p_value: float
    n_cells: int
    n_samples: int
    verdict: str = field(init=False)

    def __post_init__(self):
        self.verdict = SATISFIED if self.p_value >= TV_LEVEL else VIOLATED


# a cell's place in grid_tv's order; structured arrays compare field by field
_CELL_KEY = np.dtype([("angle", float), ("radius", float), ("index", np.intp)])


def _cell_labels(oracle: GridOracle, center: np.ndarray, n_cells: int) -> np.ndarray:
    """grid_tv's run of every grid cell, by flat index, without sorting the grid.

    In (angle, radius, flat index) order around center, the occupied
    cells of ranks 0, s_1, s_2, ... (np.array_split's offsets) start
    the n_cells runs, and a cell's run is the number of run starts at or
    before it, minus one; a cell ahead of every start is in the last
    run.  The starts' angles are read off the occupied cells' sorted
    angles (one float key, faster than np.partition at those ranks),
    and one search of every cell's angle among them counts its starts.
    Radius and index decide only at an exact angle tie, so hypot is
    taken only for the cells at a start's angle.
    """
    rx = (oracle.xs - center[0])[:, None]
    ry = (oracle.ys - center[1])[None, :]
    angle = np.arctan2(ry, rx).ravel()

    def keys(cells):
        k = np.empty(cells.size, _CELL_KEY)
        k["angle"] = angle[cells]
        i, j = np.divmod(cells, oracle.resolution)
        k["radius"] = np.hypot(rx[i, 0], ry[0, j])
        k["index"] = cells
        return k

    occupied = np.flatnonzero(oracle.bitmap)
    q, extra = divmod(occupied.size, n_cells)
    runs = np.arange(n_cells)
    first = runs * q + np.minimum(runs, extra)
    occupied_angle = np.sort(angle[occupied])
    start_angle = occupied_angle[first]
    # starts with an angle at or below each cell's; equal ones decide by
    # radius and index (a cell below every start gets 0, and
    # start_angle[-1] is then above its angle)
    after = np.searchsorted(start_angle, angle, side="right")
    tied = np.flatnonzero(start_angle[after - 1] == angle)
    # the start of rank first[k] is the (first[k] - below[k])-th, in
    # order, of the occupied cells with its angle, below[k] being the
    # occupied cells of smaller angles
    below = np.searchsorted(occupied_angle, start_angle)
    candidates = np.sort(keys(tied[oracle.bitmap.ravel()[tied]]))
    starts = candidates[np.searchsorted(candidates["angle"], start_angle)
                        + first - below]
    label = after
    label[tied] = np.searchsorted(starts, keys(tied), side="right")
    label -= 1
    label[label < 0] = n_cells - 1
    return label


def grid_tv_check(body: Body, samples, n_cells: int,
                  oracle: Optional[GridOracle] = None) -> TvCheckResult:
    """Compare samples with exact uniform via equal-mass grid cells.

    The grid cells are ordered by (angle, radius, flat index) around the
    bbox center, and the occupied ones in that order are split into
    n_cells runs of equal count, up to one cell (for round bodies these
    are sectors).  A free cell takes the run of the occupied cell before
    it, the first free cells that of the last, so every cell has a label
    and a sample counts in the run of its own (clipped) cell.  The order
    only defines the labels: they are found without sorting the grid
    (see _cell_labels).  Reports the half-L1 distance between empirical
    and exact run histograms and a chi-square goodness-of-fit p-value.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 5 * n_cells:
        raise ValueError(
            f"{samples.shape[0]} samples is too few for {n_cells} cells "
            "(need an expected count of at least 5 per cell)"
        )
    if n_cells < 2:
        raise ValueError(f"need at least 2 cells, got {n_cells}")
    oracle = oracle or GridOracle(body)
    if n_cells > oracle.n_occupied:
        raise ValueError("more cells requested than occupied grid cells")

    lo, hi = body.bbox
    label = _cell_labels(oracle, (lo + hi) / 2.0, n_cells)
    # the run sizes np.array_split gives
    q, extra = divmod(oracle.n_occupied, n_cells)
    sizes = np.full(n_cells, q)
    sizes[:extra] += 1
    exact = sizes / oracle.n_occupied
    ij = oracle.cell_index(samples)
    groups = label[ij[:, 0] * oracle.resolution + ij[:, 1]]

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
    )


def certificate_soundness_check(body: Body, t: float, n_mc: int,
                                rng: np.random.Generator,
                                oracle: Optional[GridOracle] = None) -> BoundCheck:
    """Falsification check of the growth certificate at dilation t.

    Estimates Vol(X_t) / Vol(X) by Monte Carlo: samples uniformly in the
    bbox inflated by t, classifies points by distance (in X_t iff dist
    <= t; in X via membership) and takes the count ratio.  The std
    error accounts for the nesting of the two events; it is exactly
    zero at t = 0.  When no draw lands in the body, as in high
    dimension, the check is unsupported at this t and n_mc.
    """
    if body.growth is None:
        raise ValueError("body has no growth certificate")
    if t < 0.0:
        raise ValueError(f"dilation must be nonnegative, got {t}")
    if n_mc < 1:
        raise ValueError(f"need at least one sample, got {n_mc}")
    dist, _ = _require_distance(body, oracle)
    lo, hi = body.bbox
    pts = rng.uniform(lo - t, hi + t, size=(n_mc, body.dim))
    in_x = np.asarray(body.membership(pts))
    in_xt = in_x | (np.asarray(dist(pts)) <= t)
    n_in = int(np.count_nonzero(in_x))
    n_t = int(np.count_nonzero(in_xt))
    if n_in == 0:
        raise UnsupportedCheck(
            f"none of the n_mc = {n_mc} uniform draws in the bbox inflated by "
            f"t = {t} landed inside the body")
    ratio = n_t / n_in
    return BoundCheck(
        name=f"certificate_soundness(t={t})",
        empirical=ratio,
        theoretical_bound=body.growth.bound(t, body.dim),
        mc_std_error=ratio * math.sqrt(max(1.0 / n_in - 1.0 / n_t, 0.0)),
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
