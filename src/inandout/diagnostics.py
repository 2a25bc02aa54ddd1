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
resolution plus what its padding leaves out (_padding), which resolves
failure mass far below the 3/S bound (about 3e-14 against 6.7e-7 on
the annulus plan).  Above 2-D, a ball or a concentric shell (a body
with a `shell`) is integrated in the radius instead, with its error the
change from half the nodes plus the same padding cut; other bodies have
no route, and both checks are unsupported there.  The uniform
reference points of the checks are drawn exactly in the radius for a
shell body and by bbox rejection otherwise.

The escape, certificate and grid TV checks draw and reduce their points
ORACLE_BLOCK_POINTS rows at a time, each draw in the order and with the
bits of one whole call, so beyond the drawn reference points themselves
no array of theirs grows with n_mc; their counts are integers and keep
their bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import specfun
from .bodies import Body, _radius, sample_uniform, unit_ball_volume
from .planner import RESOLUTION, Plan, step_size_regime, trial_floor

SATISFIED = "satisfied"
VIOLATED = "violated_beyond_3se"
# Points per membership or distance call (GridOracle's cell centers, the
# Monte Carlo checks' draws), grid rows per block of the quadrature's two
# products and of grid_tv's angles, and padded columns per strip of the
# quadrature: blocks keep every temporary of a 2-D check far below one
# float per grid cell, and of a Monte Carlo check far below one per draw.
ORACLE_BLOCK_POINTS = 8192
GRID_BLOCK_ROWS = 128
GRID_BLOCK_COLS = 224
RADIAL_NODES = 2**15 + 1  # nodes of the radial quadrature; every other is the coarse rule
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


class GridOracle:
    """Dense 2-D reference model of a body on a regular grid.

    The bitmap marks cells whose center lies inside the body; `xs` and
    `ys` are the cell centers' coordinates along each axis.  It supports
    a distance proxy (distance to the nearest occupied cell center,
    exact up to one cell diagonal), cell indexing for histogram tests,
    and the grid quadrature of the per-iteration checks.

    The bitmap is filled a block of whole rows at a time, at least
    ORACLE_BLOCK_POINTS cell centers per membership call (fewer in the
    last), so only the boolean bitmap grows with resolution^2.
    Membership is pointwise, so the bits are those of one call on every
    center.
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
        rows = min(resolution, -(-ORACLE_BLOCK_POINTS // resolution))
        centers = np.empty((rows, resolution, 2))
        centers[..., 1] = self.ys
        self.bitmap = np.empty((resolution, resolution), dtype=bool)
        for i in range(0, resolution, rows):
            block = centers[:resolution - i]
            block[..., 0] = self.xs[i:i + rows, None]
            self.bitmap[i:i + rows] = np.reshape(
                body.membership(block.reshape(-1, 2)), block.shape[:2])
        self.n_occupied = int(np.count_nonzero(self.bitmap))
        if self.n_occupied == 0:
            raise ValueError("no grid cell center lies inside the body")

    @functools.cached_property
    def _tree(self):
        # built on the first distance query, which only a body without
        # an analytic distance makes; scipy.spatial loads here
        import scipy.spatial
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


def uniform_reference(body: Body, rng: np.random.Generator, size: int) -> np.ndarray:
    """size exact uniform points of the body, an array (size, dim).

    A shell body r_in <= |x - c| <= r_out is drawn in the radius: a
    direction g / |g| from g = rng.standard_normal((size, n)), then
    u = rng.random(size) and rho = (r_in^n + u (r_out^n - r_in^n))^(1/n),
    taken as r_out (t + u (1 - t))^(1/n) with t = (r_in / r_out)^n so no
    power overflows.  g is drawn whole and becomes the points; the
    uniforms are drawn and applied ORACLE_BLOCK_POINTS rows at a time,
    after all of g, with the bits of one call.  Any other body falls
    back to sample_uniform's bbox rejection.
    """
    if body.shell is None:
        return sample_uniform(body, rng, size)
    c, r_in, r_out = body.shell
    n = body.dim
    g = rng.standard_normal((size, n))
    t = (r_in / r_out) ** n
    for i in range(0, size, ORACLE_BLOCK_POINTS):
        x = g[i:i + ORACLE_BLOCK_POINTS]
        rho = r_out * (t + rng.random(x.shape[0]) * (1.0 - t)) ** (1.0 / n)
        x *= (rho / _radius(x, 0.0))[:, None]
        x += c
    return g


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

    Draws X uniform on the body (uniform_reference), forms
    Y = X + sqrt(h) Z, and compares the empirical frequency of
    dist(Y, body) > r against alpha (n+1) Q_{2n}(r / sqrt(h)).  Requires
    h within the base cap of planner.step_size_regime.  The X are drawn
    whole; the Z are drawn after them and Y is formed and measured
    ORACLE_BLOCK_POINTS rows at a time, so beyond the X no array grows
    with n_mc.
    """
    if body.growth is None:
        raise ValueError("body has no growth certificate")
    if not (r > 0.0):
        raise ValueError(f"escape distance must be positive, got {r}")
    if n_mc < 1:
        raise ValueError(f"need at least one sample, got {n_mc}")
    n = body.dim
    h_cap = step_size_regime(n, body.growth.beta).base_cap
    if not (0.0 < h <= h_cap * (1.0 + 1e-12)):
        raise ValueError(f"step size {h} violates the base regime cap {h_cap}")
    dist, note = _require_distance(body, oracle)
    xs = uniform_reference(body, rng, n_mc)
    escapes = 0
    for i in range(0, n_mc, ORACLE_BLOCK_POINTS):
        x = xs[i:i + ORACLE_BLOCK_POINTS]
        ys = x + math.sqrt(h) * rng.standard_normal(x.shape)
        escapes += int(np.count_nonzero(np.asarray(dist(ys)) > r))
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
    estimates in [0, 1].  No package code calls it: bench/micro.py times
    it and bench/tracing.py wraps it, and ROADMAP item 4 retires it
    together with the benchmark's conductance metrics.
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
    (n_cells + 2 pad, n_cells)).  The weight at offset d is
    (erfc((d - 1/2) c) - erfc((d + 1/2) c)) / 2, and d + 1/2 is exactly
    (d + 1) - 1/2, so each erfc is evaluated once.  The band is a
    read-only view of that vector, 2 (n_cells + pad) - 1 floats: callers
    copy the rows they need a block at a time.
    """
    c = step / math.sqrt(2.0 * h)
    e = np.array([math.erfc((d - 0.5) * c) for d in range(n_cells + pad + 1)])
    half = 0.5 * (e[:-1] - e[1:])  # offsets 0 .. n_cells + pad - 1
    w = np.concatenate((half[:0:-1], half))
    return sliding_window_view(w, n_cells)[:, ::-1]


def _padding(N: int) -> tuple:
    """(z, cuts): the padding of the per-iteration quadratures at threshold N.

    With X uniform on the body and Y = X + sqrt(h) Z, both quadratures
    integrate Y over the body padded by z sqrt(h): the grid pads each
    side of the bitmap, the radial rule stops that far beyond the shell.
    In 2-D every point of the body lies at least z sqrt(h) inside the
    padded box, so the mass of Y outside it is at most
    4 Q(z) <= 2 exp(-z^2 / 2), Q being the normal tail, and
    z = max(8, sqrt(2 log(1e6 N))) keeps it below 2e-6 / N.  The cuts
    are what the padding leaves out: at most 2e-6 / N of failure mass,
    far under the 3/S bound, and at most N times as many trials, 2e-6.
    Each quadrature record adds its cut to its mc_std_error.
    """
    return max(8.0, math.sqrt(2.0 * math.log(1e6 * N))), (2e-6 / N, 2e-6)


def _grid_failure_and_trials(oracle: GridOracle, h: float, N: int) -> tuple:
    """(failure mass, expected trials, quadrature nodes) on the oracle's grid.

    With X uniform on the body and Y = X + sqrt(h) Z, Y has density
    ell / vol, where ell = 1_K * phi_h is the local conductance.  So the
    failure mass is sum ell (1 - ell)^N / sum ell, and the expected
    trials E[min(G, N)] are sum (1 - (1 - ell)^N) / sum ell, both over
    the cell centers of the bitmap padded by z sqrt(h) per side (see
    _padding).

    ell is rows @ (bitmap @ cols.T), rows and cols being the Gaussian
    bands of the two axes, views of one weight vector each.  The padded
    grid is walked in strips of GRID_BLOCK_COLS padded columns: a strip
    is the bitmap blurred along y, resolution x GRID_BLOCK_COLS floats,
    made GRID_BLOCK_ROWS bitmap rows at a time from a copy of the
    strip's band rows; it is then blurred along x GRID_BLOCK_ROWS padded
    rows at a time, and each such tile is reduced in place to its three
    sums.  The results' bits rest on this tile order.  One scratch
    buffer, reused from strip to strip, holds the strip's band rows and
    the bitmap rows as floats while the strip is made, then each tile's
    band rows and its three elementwise steps, so no array grows with
    resolution^2 and the y-blurred bitmap never exists whole.
    """
    r = oracle.resolution
    z = _padding(N)[0]
    rows, cols = (_gaussian_band(r, math.ceil(z * math.sqrt(h) / s), s, h)
                  for s in oracle.step)
    b, w = GRID_BLOCK_ROWS, min(GRID_BLOCK_COLS, cols.shape[0])
    strip_buf = np.empty(r * w)
    scratch = np.empty(max((w + b) * r, b * (r + 3 * w)))
    mass, failure, trials = [], [], []
    for j in range(0, cols.shape[0], w):
        n = min(w, cols.shape[0] - j)
        strip = strip_buf[:r * n].reshape(r, n)
        # contiguous copies keep both products on BLAS
        band = scratch[:n * r].reshape(n, r)
        np.copyto(band, cols[j:j + n])
        for i in range(0, r, b):
            bits = oracle.bitmap[i:i + b]
            flt = scratch[n * r:n * r + bits.size].reshape(bits.shape)
            np.copyto(flt, bits)
            np.matmul(flt, band.T, out=strip[i:i + b])
        for k in range(0, rows.shape[0], b):
            m = min(b, rows.shape[0] - k)
            band = scratch[:m * r].reshape(m, r)
            ell, t, e = scratch[m * r:m * (r + 3 * n)].reshape(3, m, n)
            np.copyto(band, rows[k:k + m])
            np.matmul(band, strip, out=ell)
            np.minimum(ell, 1.0, out=ell)
            mass.append(ell.sum())
            # t = N log1p(-ell) = log (1 - ell)^N; ell == 1 gives exactly 0
            np.negative(ell, out=t)
            with np.errstate(divide="ignore"):
                np.log1p(t, out=t)
            t *= N
            np.exp(t, out=e)
            e *= ell
            failure.append(e.sum())
            np.expm1(t, out=t)
            trials.append(-t.sum())
    total = math.fsum(mass)
    return (math.fsum(failure) / total, math.fsum(trials) / total,
            rows.shape[0] * cols.shape[0])


def _radial_failure_and_trials(body: Body, h: float, N: int) -> tuple:
    """((failure, trials), the same on half the nodes, lo, hi) of a shell body.

    At |y - c| = rho the local conductance of the shell r_in <= |x - c|
    <= r_out is ell(rho) = F(r_out^2 / h) - F(r_in^2 / h), F being the
    noncentral chi-square law with n degrees of freedom and
    noncentrality rho^2 / h (the second term only when r_in > 0).  The
    sums of _grid_failure_and_trials become integrals in rho against
    the sphere area n omega_n rho^(n-1), by the trapezoid rule on
    RADIAL_NODES nodes over [max(0, r_in - z sqrt(h)), r_out + z sqrt(h)]
    (see _padding); the coarse values take every other node.  A step h
    so small that scipy.special.chndtr is not finite at some node (NaN
    near r_out at h = 1e-10 on the unit 3-ball, with noncentrality about
    1e10) is an UnsupportedCheck.  scipy.special loads here.
    """
    import scipy.special

    _, r_in, r_out = body.shell
    n = body.dim
    z = _padding(N)[0]
    lo, hi = max(0.0, r_in - z * math.sqrt(h)), r_out + z * math.sqrt(h)
    rho = np.linspace(lo, hi, RADIAL_NODES)
    nc = rho * rho / h
    ell = scipy.special.chndtr(r_out * r_out / h, n, nc)
    if r_in > 0.0:
        ell -= scipy.special.chndtr(r_in * r_in / h, n, nc)
    if not np.isfinite(ell).all():
        raise UnsupportedCheck(f"radial local conductance is not finite at h = {h}")
    np.clip(ell, 0.0, 1.0, out=ell)
    area = n * unit_ball_volume(n) * rho ** (n - 1)
    with np.errstate(divide="ignore"):
        t = N * np.log1p(-ell)
    integrands = (ell * area, ell * np.exp(t) * area, -np.expm1(t) * area)
    values = []
    for every in (1, 2):
        mass, failure, trials = (np.trapezoid(f[::every], rho[::every])
                                 for f in integrands)
        values.append((failure / mass, trials / mass))
    return (*values, lo, hi)


def per_iteration_checks(body: Body, p: Plan,
                         oracle: Optional[GridOracle] = None) -> tuple:
    """The (stationary_failure, expected_trials) checks of the per-iteration bounds.

    Both first check the shared step-size and threshold hypotheses.
    Failure: the chance that all N in-step proposals miss, against 3/S.
    Trials: E[min(G, N)] with G geometric in the local conductance,
    against 16 alpha log S.

    A 2-D body is integrated on a grid (the oracle's, else one of
    resolution RESOLUTION): the local conductance ell = 1_K * phi_h is
    exact up to the bitmap's discretisation.  A resolution below 4 has
    no grid of half the resolution, and a body may have no cell center
    on that grid: either is a ValueError that names it.  Above 2-D,
    a body with a shell (a make_ball ball or a concentric make_ball
    exclusion) is integrated in the radius: ell is exact in closed form
    and the integrals are 1-D.  Either quadrature's record has as
    mc_std_error the change from its coarse rule (half the resolution,
    half the nodes) plus the cut its padding leaves out (see _padding).
    Neither takes a random draw.

    Any other body is an UnsupportedCheck, raised after the hypotheses
    are checked.  A Monte Carlo estimate there resolves failure mass
    only down to one over its sample count, orders above 3/S, so it
    could neither confirm nor refute the bound.
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
    if body.dim > 2 and body.shell is None:
        raise UnsupportedCheck(
            f"no per-iteration quadrature for a {body.dim}-D body without a shell: "
            f"only 2-D bodies (grid) and balls or concentric shells (radial) have one")
    bounds = (3.0 / p.S, 16.0 * alpha * math.log(p.S))
    if body.dim == 2:
        oracle = oracle or GridOracle(body)
        r = oracle.resolution
        if r < 4:
            raise ValueError(
                f"grid quadrature needs resolution >= 4 to measure its error on a "
                f"grid of half the resolution, got {r}")
        try:
            half = GridOracle(body, r // 2)
        except ValueError as e:  # its bitmap is empty
            raise ValueError(
                f"grid quadrature measures its error as the change from a grid of "
                f"half the resolution, and no cell center of the resolution-{r // 2} "
                f"grid lies inside the body (the resolution-{r} grid holds "
                f"{oracle.n_occupied})") from e
        *values, n = _grid_failure_and_trials(oracle, p.h, p.N)
        *coarse, _ = _grid_failure_and_trials(half, p.h, p.N)
        source = (f"grid quadrature of the local conductance on {n} padded "
                  f"cells (resolution {r}); the error is the change from "
                  f"resolution {r // 2}")
    else:
        values, coarse, lo, hi = _radial_failure_and_trials(body, p.h, p.N)
        n = RADIAL_NODES
        source = (f"radial quadrature of the exact local conductance on {n} "
                  f"nodes in [{lo:.6g}, {hi:.6g}]; the error is the change from "
                  f"{n // 2 + 1} nodes")
    cuts = _padding(p.N)[1]
    errors = [abs(v - c) + cut for v, c, cut in zip(values, coarse, cuts)]
    notes = [f"{source}, plus at most {cut:.2g} left out beyond the z sqrt(h) padding"
             for cut in cuts]
    return tuple(BoundCheck(name=name, empirical=value, theoretical_bound=bound,
                            mc_std_error=se, n_samples=n, note=note)
                 for name, value, bound, se, note in zip(
                     ("stationary_failure", "expected_trials"), values, bounds, errors,
                     notes))


def stationary_failure_check(body: Body, p: Plan) -> BoundCheck:
    """Failure mass <= 3/S: the first record of per_iteration_checks.

    bench/tracing.py wraps this name; a caller that needs both records
    calls per_iteration_checks once.
    """
    return per_iteration_checks(body, p)[0]


def expected_trials_check(body: Body, p: Plan) -> BoundCheck:
    """Mean in-step trials <= 16 alpha log S: the second record of per_iteration_checks.

    bench/tracing.py wraps this name; a caller that needs both records
    calls per_iteration_checks once.
    """
    return per_iteration_checks(body, p)[1]


@dataclass
class TvCheckResult:
    """Uniformity test of samples against the grid oracle's sector law.

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


def _offsets(oracle: GridOracle) -> tuple:
    """(x, y): the cell centers' offsets from the bbox center along each axis."""
    center = (oracle.lo + oracle.hi) / 2.0
    return oracle.xs - center[0], oracle.ys - center[1]


def _sectors(oracle: GridOracle, n_cells: int) -> tuple:
    """(exact law, cuts): grid_tv's sectors.

    The center angles of the occupied cells around the bbox center,
    filled a block of GRID_BLOCK_ROWS rows at a time, are sorted and
    split at np.array_split's ranks into n_cells runs.  The distinct
    angles at those ranks that lie above the smallest angle start the
    sectors, so all cells at one angle share a sector, every sector
    holds at least one occupied cell, and runs that start at one angle
    merge.  The exact law is each sector's share of the occupied cells.
    A cell, occupied or free, whose center lies at angle a is in sector
    np.searchsorted(cuts, a, side="right"): the sector of that angle,
    and the first sector when a is below every start.
    """
    rx, ry = _offsets(oracle)
    angle = np.empty(oracle.n_occupied)
    filled = 0
    for i in range(0, oracle.resolution, GRID_BLOCK_ROWS):
        block = np.arctan2(ry, rx[i:i + GRID_BLOCK_ROWS, None])
        block = block[oracle.bitmap[i:i + GRID_BLOCK_ROWS]]
        angle[filled:filled + block.size] = block
        filled += block.size
    angle.sort()
    # the first angle of each run, at np.array_split's offsets; np.unique
    # would import numpy.ma (1.1 MB) on its first call
    q, extra = divmod(angle.size, n_cells)
    start = angle[np.arange(n_cells) * q + np.minimum(np.arange(n_cells), extra)]
    cuts = start[1:][start[1:] > start[:-1]]
    exact = np.diff(np.searchsorted(angle, cuts), prepend=0, append=angle.size) / angle.size
    return exact, cuts


def grid_tv_check(body: Body, samples, n_cells: int,
                  oracle: Optional[GridOracle] = None) -> TvCheckResult:
    """Compare samples with exact uniform via equal-mass angular sectors.

    Around the bbox center, the occupied grid cells are split by the
    angle of their center into sectors of about n_occupied / n_cells
    cells (see _sectors).  A ray from the center is never split, so a
    sector's size differs from n_occupied / n_cells by less than L + 1,
    L being the most occupied cells at one angle, and the report's
    n_cells is the number of sectors used, fewer than asked when runs
    merge at a tied angle.  A sample counts in the sector of its own
    (clipped) cell's center angle, whether that cell is occupied or
    free; the samples are indexed, angled and counted
    ORACLE_BLOCK_POINTS at a time, so beyond the samples no array grows
    with their number.  Reports the half-L1 distance between empirical
    and exact sector histograms and a chi-square goodness-of-fit
    p-value.  When every occupied cell lies at one angle, one sector is
    left and the chi-square has no degrees of freedom: a ValueError.
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

    exact, cuts = _sectors(oracle, n_cells)
    if exact.size == 1:
        raise ValueError("every occupied grid cell lies at one angle from the bbox "
                         "center, which leaves one sector and no degrees of freedom")
    n = samples.shape[0]
    rx, ry = _offsets(oracle)
    counts = np.zeros(exact.size, dtype=np.intp)
    for i in range(0, n, ORACLE_BLOCK_POINTS):
        ij = oracle.cell_index(samples[i:i + ORACLE_BLOCK_POINTS])
        sector = np.searchsorted(cuts, np.arctan2(ry[ij[:, 1]], rx[ij[:, 0]]), side="right")
        counts += np.bincount(sector, minlength=exact.size)
    tv = 0.5 * math.fsum(np.abs(counts / n - exact))
    chi2 = math.fsum((counts - n * exact) ** 2 / (n * exact))
    p_value = specfun.gamma_q((exact.size - 1) / 2.0, chi2 / 2.0)
    return TvCheckResult(
        tv_estimate=tv,
        chi2_statistic=chi2,
        p_value=p_value,
        n_cells=exact.size,
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
    zero at t = 0.  The points are drawn, classified and counted
    ORACLE_BLOCK_POINTS rows at a time, with the bits of one draw, so no
    array grows with n_mc.  When the inflated bbox is wider than the float
    range (its width overflows), or when no draw lands in the body, as
    in high dimension, the check is unsupported at this t and n_mc.
    """
    if body.growth is None:
        raise ValueError("body has no growth certificate")
    if not (t >= 0.0):
        raise ValueError(f"dilation must be nonnegative, got {t}")
    if n_mc < 1:
        raise ValueError(f"need at least one sample, got {n_mc}")
    dist, _ = _require_distance(body, oracle)
    lo, hi = body.bbox[0] - t, body.bbox[1] + t
    with np.errstate(over="ignore"):
        if not np.isfinite(hi - lo).all():
            raise UnsupportedCheck(f"the bbox inflated by t = {t} exceeds the float range")
    n_in = n_t = 0
    for i in range(0, n_mc, ORACLE_BLOCK_POINTS):
        pts = rng.uniform(lo, hi, size=(min(ORACLE_BLOCK_POINTS, n_mc - i), body.dim))
        in_x = np.asarray(body.membership(pts))
        n_in += int(np.count_nonzero(in_x))
        n_t += int(np.count_nonzero(in_x | (np.asarray(dist(pts)) <= t)))
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
