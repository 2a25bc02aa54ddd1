"""Compact bodies as membership oracles, with volume-growth certificates.

A Body couples a deterministic membership test with the small set of
facts the sampler and planner need: dimension, a bounding box, and —
when available — exact volume, an inscribed ball, a certified growth
pair (alpha, beta), an interior test, and a Euclidean distance
function.  Bodies are immutable; membership functions are pure and safe
to call from multiple threads.

A certificate (alpha, beta) asserts Vol(X_t) / Vol(X) <= alpha (1 + t
beta)^n for every t > 0, where X_t is the t-enlargement of X.  The
constructors below derive certificates for balls, boxes, polytopes with
a known inscribed ball, finite unions, set differences, and
star-shaped unions of convex pieces; `with_growth` attaches a pair the
caller certifies by other means.

All membership/interior/distance callables accept a single point of
shape (n,) or a batch of shape (m, n) and vectorize over the batch.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class CertificateError(ValueError):
    """A supplied geometric certificate fails its feasibility check."""


class EmptyBodyError(RuntimeError):
    """Rejection sampling found no point where the body's volume expects many."""


class GrowthSource(enum.Enum):
    CONVEX = "convex"
    STAR_SHAPED = "star_shaped"
    UNION = "union"
    EXCLUSION = "exclusion"
    MANUAL = "manual"


@dataclass(frozen=True)
class GrowthCertificate:
    """Certified pair bounding enlargement volume: Vol(X_t)/Vol(X) <= alpha (1 + t beta)^n."""

    alpha: float
    beta: float
    source: GrowthSource = GrowthSource.MANUAL

    def __post_init__(self):
        if not (self.alpha >= 1.0):
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not (self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")

    def bound(self, t: float, n: int) -> float:
        """The certified enlargement-volume ratio at dilation t in dimension n."""
        if t < 0.0:
            raise ValueError(f"dilation must be nonnegative, got {t}")
        return self.alpha * (1.0 + t * self.beta) ** n


def _freeze(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Body:
    """An immutable compact body described by a membership oracle.

    membership / interior / distance all follow the same calling
    convention: a point (n,) or a batch (m, n); boolean or float
    results with matching leading shape.  interior and distance are
    optional (None when no closed form is known).

    shell, when set, is (center, r_in, r_out) and states that the body
    is exactly the closed shell r_in <= |x - center| <= r_out (a ball
    when r_in is 0), membership and interior being make_ball's radius
    tests.  exclusion fuses such tests, sample_uniform draws such bodies
    in the radius and diagnostics integrates them there; a copy whose
    membership wraps the original keeps it, one that changes the set
    must drop it.
    """

    dim: int
    membership: Callable[[np.ndarray], np.ndarray]
    bbox: tuple
    exact_volume: Optional[float] = None
    growth: Optional[GrowthCertificate] = None
    inner_ball: Optional[tuple] = None  # (center, radius)
    interior: Optional[Callable[[np.ndarray], np.ndarray]] = None
    distance: Optional[Callable[[np.ndarray], np.ndarray]] = None
    shell: Optional[tuple] = None  # (center, r_in, r_out)

    def __post_init__(self):
        lo, hi = self.bbox
        lo, hi = _freeze(lo), _freeze(hi)
        if lo.shape != (self.dim,) or hi.shape != (self.dim,):
            raise ValueError("bbox arrays must have shape (dim,)")
        # a finite extent keeps uniform draws from the bbox, whose width
        # hi - lo they scale by, in float range
        with np.errstate(over="ignore"):
            extent = hi - lo
        if not np.all((extent > 0.0) & (extent < np.inf)):
            raise ValueError(f"bbox must have a positive, finite extent on every "
                             f"axis, got {extent}")
        object.__setattr__(self, "bbox", (lo, hi))
        if self.inner_ball is not None:
            c, r = self.inner_ball
            c = _freeze(c)
            if c.shape != (self.dim,) or not (r > 0.0):
                raise ValueError("inner ball needs a (dim,) center and positive radius")
            object.__setattr__(self, "inner_ball", (c, float(r)))
        if self.shell is not None:
            c, r_in, r_out = self.shell
            c = _freeze(c)
            if c.shape != (self.dim,) or not (0.0 <= r_in < r_out < math.inf):
                raise ValueError("shell needs a (dim,) center and radii "
                                 "0 <= r_in < r_out < inf")
            object.__setattr__(self, "shell", (c, float(r_in), float(r_out)))
        if self.exact_volume is not None and not (0.0 < self.exact_volume < math.inf):
            raise ValueError(
                f"exact volume must be positive and finite, got {self.exact_volume}")


def _squared_radius(pts, center) -> np.ndarray:
    # squared Euclidean distance to center: the sum whose root has the
    # bits of np.linalg.norm(..., axis=-1)
    d = np.asarray(pts, dtype=float) - center
    d *= d
    n = d.shape[-1]
    if n >= 8:
        return np.add.reduce(d, axis=-1)
    # np.add.reduce adds fewer than 8 terms in order (from 8 on it sums
    # pairwise), so adding the columns gives its bits without its inner
    # loop over each row
    s = d[..., 0]
    for k in range(1, n):
        s = s + d[..., k]
    return s


def _radius(pts, center) -> np.ndarray:
    # Euclidean distance to center: the bits of
    # np.linalg.norm(..., axis=-1), without its dispatch
    return np.sqrt(_squared_radius(pts, center))


def _squared_bound(r: float) -> float:
    # The largest double s with sqrt(s) <= r.  IEEE sqrt is correctly
    # rounded, hence monotone, so for every sum of squares s (inf and
    # NaN included) `s <= _squared_bound(r)` is `sqrt(s) <= r`, and
    # `s >= nextafter(_squared_bound(nextafter(r, 0)), inf)` is
    # `sqrt(s) >= r`: a ball's radius test without the root.  r * r
    # alone would not do: at r = 1, s = 1 + 2**-52 has sqrt(s) = 1.0.
    s = r * r
    while math.sqrt(s) > r:
        s = math.nextafter(s, 0.0)
    while math.sqrt(math.nextafter(s, math.inf)) <= r:
        s = math.nextafter(s, math.inf)
    return s


def unit_ball_volume(n: int) -> float:
    """Lebesgue volume of the unit ball in n dimensions."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _ball_volume(n: int, r: float) -> float:
    """Volume of an n-dimensional ball of radius r, inf past the float range.

    The direct product is kept wherever it is finite; where a factor
    overflows (gamma from n = 342 on, or r**n), the sum of logarithms
    is used instead."""
    try:
        return unit_ball_volume(n) * r**n
    except OverflowError:
        try:
            return math.exp(n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0)
                            + n * math.log(r))
        except OverflowError:
            return math.inf


def make_ball(center, radius: float) -> Body:
    """Closed Euclidean ball with the convex certificate (1, 1/radius)."""
    center = _freeze(center)
    if center.ndim != 1:
        raise ValueError("center must be a 1-D point")
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius}")
    n = center.shape[0]
    r = float(radius)
    r2 = _squared_bound(r)

    def membership(pts):
        return _squared_radius(pts, center) <= r2

    def interior(pts):
        return _radius(pts, center) < r

    def distance(pts):
        return np.maximum(_radius(pts, center) - r, 0.0)

    return Body(
        dim=n,
        membership=membership,
        bbox=(center - r, center + r),
        exact_volume=_ball_volume(n, r),
        growth=GrowthCertificate(1.0, 1.0 / r, GrowthSource.CONVEX),
        inner_ball=(center, r),
        interior=interior,
        distance=distance,
        shell=(center, 0.0, r),
    )


def make_box(lo, hi) -> Body:
    """Axis-aligned box; the convex certificate uses half the shortest side."""
    lo, hi = _freeze(lo), _freeze(hi)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("lo and hi must be 1-D points of equal dimension")
    with np.errstate(over="ignore"):  # Body rejects an overflowing side or volume
        sides = hi - lo
        volume = float(np.prod(sides))
    if not np.all(sides > 0.0):
        raise ValueError("box must have positive extent on every axis")
    n = lo.shape[0]
    half_min = float(np.min(sides)) / 2.0
    center = (lo + hi) / 2.0

    def membership(pts):
        pts = np.asarray(pts, dtype=float)
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    def interior(pts):
        pts = np.asarray(pts, dtype=float)
        return np.all((pts > lo) & (pts < hi), axis=-1)

    def distance(pts):
        pts = np.asarray(pts, dtype=float)
        gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
        return np.linalg.norm(gap, axis=-1)

    return Body(
        dim=n,
        membership=membership,
        bbox=(lo, hi),
        exact_volume=volume,
        growth=GrowthCertificate(1.0, 1.0 / half_min, GrowthSource.CONVEX),
        inner_ball=(center, half_min),
        interior=interior,
        distance=distance,
    )


def make_halfspace_polytope(A, b, inner_center, inner_radius: float) -> Body:
    """Bounded polytope {x : A x <= b} with a caller-certified inscribed ball.

    The inscribed ball is verified row by row (A_i . c + r ||A_i|| <=
    b_i); a violation raises CertificateError.  The bounding box is the
    tightest axis-aligned box, obtained from 2n linear programs, which
    also catches unbounded input.
    """
    A = _freeze(A)
    b = _freeze(b)
    c = _freeze(inner_center)
    r = float(inner_radius)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError("A must be (k, n) and b must be (k,)")
    n = A.shape[1]
    if c.shape != (n,):
        raise ValueError("inner_center dimension does not match A")
    if not (r > 0.0):
        raise ValueError(f"inner_radius must be positive, got {r}")
    row_norms = np.linalg.norm(A, axis=1)
    if np.any(row_norms == 0.0):
        raise ValueError("A contains a zero row")
    slack = b - (A @ c + r * row_norms)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(b))))
    if np.any(slack < -tol):
        bad = int(np.argmin(slack))
        raise CertificateError(
            f"inscribed ball violates constraint row {bad}: slack {slack[bad]:.3e}"
        )

    import scipy.optimize  # loads here, for the polytope's box only

    lo = np.empty(n)
    hi = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        for sign, dest in ((1.0, lo), (-1.0, hi)):
            res = scipy.optimize.linprog(sign * e, A_ub=A, b_ub=b,
                                         bounds=[(None, None)] * n, method="highs")
            if not res.success:
                raise ValueError(
                    f"polytope is unbounded or infeasible along axis {i}: {res.message}"
                )
            dest[i] = sign * res.fun

    def membership(pts):
        return np.all(_products(pts, A) <= b, axis=-1)

    def interior(pts):
        return np.all(_products(pts, A) < b, axis=-1)

    return Body(
        dim=n,
        membership=membership,
        bbox=(lo, hi),
        exact_volume=None,
        growth=GrowthCertificate(1.0, 1.0 / r, GrowthSource.CONVEX),
        inner_ball=(c, r),
        interior=interior,
        distance=None,
    )


def _products(pts, A) -> np.ndarray:
    # pts @ A.T by the same float operations for a point, a batch and any
    # view of one: BLAS takes gemv for one point and gemm for a batch,
    # which differ in the last bit, and einsum's own loop does neither
    return np.einsum("...j,kj->...k", np.asarray(pts, dtype=float), A)


def _hull_bbox(parts: Sequence[Body]) -> tuple:
    los = np.stack([p.bbox[0] for p in parts])
    his = np.stack([p.bbox[1] for p in parts])
    return los.min(axis=0), his.max(axis=0)


def _common_dim(parts: Sequence[Body]) -> int:
    dims = {p.dim for p in parts}
    if len(dims) != 1:
        raise ValueError(f"parts live in different dimensions: {sorted(dims)}")
    return dims.pop()


def _fold(fns: list, op: Callable) -> Optional[Callable]:
    # the union's oracle: the parts' results combined left to right with
    # op (distance to a union is the minimum of the part distances,
    # exactly); None when a part lacks the oracle
    if any(f is None for f in fns):
        return None

    def folded(pts):
        out = fns[0](pts)
        for f in fns[1:]:
            out = op(out, f(pts))
        return out

    return folded


def union(parts: Sequence[Body], union_volume: float) -> Body:
    """Finite union with the combined growth certificate.

    Every part must carry a certificate and an exact volume; the
    caller supplies the exact volume of the union (parts may overlap).
    The combined pair is

        A = (max_i alpha_i) * (sum_i Vol_i) / union_volume
        B = (sum_i Vol_i beta_i^n / sum_j Vol_j)^(1/n)

    and B never exceeds max_i beta_i.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("union needs at least one part")
    n = _common_dim(parts)
    for i, p in enumerate(parts):
        if p.growth is None:
            raise ValueError(f"part {i} has no growth certificate")
        if p.exact_volume is None:
            raise ValueError(f"part {i} has no exact volume")
    vols = np.array([p.exact_volume for p in parts])
    with np.errstate(over="ignore"):
        total = float(vols.sum())
    if not math.isfinite(total):
        raise ValueError(f"the sum of the part volumes {vols.tolist()} overflows")
    if not (0.0 < union_volume <= total * (1.0 + 1e-12)):
        raise ValueError(
            f"union volume {union_volume} must lie in (0, {total}] (sum of part volumes)"
        )

    alpha = max(p.growth.alpha for p in parts)
    # a union volume above the total is rounding (the allowance above),
    # and the volume ratio it would give is below 1
    if union_volume <= total:
        alpha = alpha * total / union_volume
    betas = np.array([p.growth.beta for p in parts])
    beta_max = float(betas.max())
    # factor out the largest rate so the n-th powers stay tame
    beta = beta_max * float(
        np.sum((vols / total) * (betas / beta_max) ** n) ** (1.0 / n)
    )

    return Body(
        dim=n,
        membership=_fold([p.membership for p in parts], operator.or_),
        bbox=_hull_bbox(parts),
        exact_volume=float(union_volume),
        growth=GrowthCertificate(alpha, beta, GrowthSource.UNION),
        inner_ball=None,
        interior=_fold([p.interior for p in parts], operator.or_),
        distance=_fold([p.distance for p in parts], np.minimum),
    )


def exclusion(outer: Body, hole: Body, remaining_volume: float) -> Body:
    """Set difference outer minus the interior of hole (a closed set).

    Removing only the interior keeps the hole boundary inside the
    result.  The certificate scales the outer one by the volume ratio:
    (alpha * Vol(outer) / remaining_volume, beta).
    """
    if outer.dim != hole.dim:
        raise ValueError("outer and hole live in different dimensions")
    if outer.growth is None:
        raise ValueError("outer body has no growth certificate")
    if outer.exact_volume is None:
        raise ValueError("outer body has no exact volume")
    if hole.interior is None:
        raise ValueError("hole body has no interior test")
    # equality is allowed: a volume-negligible hole leaves the exact
    # remaining volume indistinguishable from the outer volume
    if not (0.0 < remaining_volume <= outer.exact_volume):
        raise ValueError(
            f"remaining volume {remaining_volume} must lie in "
            f"(0, {outer.exact_volume}]"
        )

    outer_mem, hole_int = outer.membership, hole.interior
    # (center, radius) of each body that is a ball, or None
    (c_out, r_out), (c_in, r_in) = ((b.shell[0], b.shell[2])
                                    if b.shell is not None and b.shell[1] == 0.0
                                    else (None, None) for b in (outer, hole))
    balls = c_out is not None and c_in is not None
    concentric = balls and np.array_equal(c_out, c_in)
    if concentric:
        # two make_ball tests around one center: one squared radius
        # serves both, against the exact bounds of rho <= r_out and
        # rho >= r_in, with the booleans of the two tests
        lo = math.nextafter(_squared_bound(math.nextafter(r_in, 0.0)), math.inf)
        hi = _squared_bound(r_out)

        def membership(pts):
            s = _squared_radius(pts, c_out)
            return (s <= hi) & (s >= lo)
    else:
        def membership(pts):
            return outer_mem(pts) & ~hole_int(pts)

    interior = None
    if outer.interior is not None:
        outer_int, hole_mem = outer.interior, hole.membership

        def interior(pts):
            return outer_int(pts) & ~hole_mem(pts)

    distance = None
    if balls and np.allclose(c_out, c_in, rtol=0.0, atol=1e-12 * r_out) and r_in < r_out:
        # an annulus, up to rounding of the centers at the scale of r_out
        def distance(pts):
            rho = _radius(pts, c_out)
            return np.maximum(np.maximum(rho - r_out, r_in - rho), 0.0)

    g = outer.growth
    return Body(
        dim=outer.dim,
        membership=membership,
        bbox=outer.bbox,
        exact_volume=float(remaining_volume),
        growth=GrowthCertificate(
            g.alpha * outer.exact_volume / remaining_volume, g.beta,
            GrowthSource.EXCLUSION,
        ),
        inner_ball=None,
        interior=interior,
        distance=distance,
        shell=(c_out, r_in, r_out) if concentric and r_in < r_out else None,
    )


_STAR_PROBES = 128


def star_shaped(parts: Sequence[Body], core_inner_radius: float) -> Body:
    """Union of convex parts that all contain the ball B(0, core_inner_radius).

    The core containment is the caller's certificate; construction
    probes it with a fixed batch of random points in the core ball and
    rejects on any miss.  The resulting set is star-shaped around the
    origin and gets the certificate (1, 1/core_inner_radius).
    """
    parts = list(parts)
    if not parts:
        raise ValueError("star_shaped needs at least one part")
    n = _common_dim(parts)
    r = float(core_inner_radius)
    if not (r > 0.0):
        raise ValueError(f"core radius must be positive, got {r}")
    for i, p in enumerate(parts):
        if p.growth is None or p.growth.source is not GrowthSource.CONVEX:
            raise ValueError(f"part {i} is not certified convex")

    # deterministic probe batch: uniform in the core ball, by
    # sample_uniform's radial draw (make_ball refuses a core ball whose
    # volume underflows, as in high dimension)
    probes = _radial_draw((np.zeros(n), 0.0, r), np.random.default_rng(20240917),
                          _STAR_PROBES)
    for i, p in enumerate(parts):
        if not np.all(p.membership(probes)):
            raise CertificateError(
                f"core ball of radius {r} is not contained in part {i}"
            )

    return Body(
        dim=n,
        membership=_fold([p.membership for p in parts], operator.or_),
        bbox=_hull_bbox(parts),
        exact_volume=None,
        growth=GrowthCertificate(1.0, 1.0 / r, GrowthSource.STAR_SHAPED),
        inner_ball=(np.zeros(n), r),
        interior=_fold([p.interior for p in parts], operator.or_),
        distance=_fold([p.distance for p in parts], np.minimum),
    )


def with_growth(body: Body, alpha: float, beta: float) -> Body:
    """Copy of the body carrying a caller-asserted growth certificate."""
    return dataclasses.replace(body, growth=GrowthCertificate(alpha, beta))


# hits a body's claimed volume must expect before zero hits refute it
_EXPECTED_HITS = 64
# rows per block of the radial draw's uniforms; diagnostics takes it as
# its points per membership or distance call
ORACLE_BLOCK_POINTS = 8192


def sample_uniform(body: Body, rng: np.random.Generator, size: Optional[int] = None):
    """Exact uniform samples from the body, the one draw of every caller.

    Returns one point of shape (dim,) when size is None, else an array
    (size, dim); the point is row 0 of a size-1 draw from the same
    generator state.  Draws are sequential on the supplied generator, so
    results are reproducible for a fixed generator state.

    A body with a shell is drawn in the radius (_radial_draw), at a cost
    linear in size and dim.  Any other body is drawn by rejection from
    its bbox, vol(bbox) / vol(body) draws per point in expectation, in
    batches of 64 up to 65536 draws.  Rejection raises EmptyBodyError
    when no draw has hit after enough draws that the body's claimed
    volume (its exact volume, else its inner ball's) expects 64 hits:
    under a true claim that happens with probability e^-64.  A body with
    neither claim is sampled without this check.
    """
    want = 1 if size is None else int(size)
    if want < 1:
        raise ValueError(f"size must be positive, got {size}")
    if body.shell is not None:
        out = _radial_draw(body.shell, rng, want)
        return out[0] if size is None else out
    out = np.empty((want, body.dim))
    got = drawn = 0
    # modest batches keep single-sample calls cheap while amortizing
    # vectorized membership for bulk requests
    batch = max(64, min(4 * want, 65536))
    while got < want:
        pts = rng.uniform(*body.bbox, size=(batch, body.dim))
        keep = pts[body.membership(pts)]
        take = min(want - got, keep.shape[0])
        out[got:got + take] = keep[:take]
        got += take
        drawn += batch
        if got == 0:
            _refute_volume_claim(body, drawn)
    return out[0] if size is None else out


def _radial_draw(shell: tuple, rng: np.random.Generator, size: int) -> np.ndarray:
    """size exact uniform points of the shell r_in <= |x - c| <= r_out.

    A direction g / |g| from g = rng.standard_normal((size, n)), then
    u = rng.random(size) and rho = (r_in^n + u (r_out^n - r_in^n))^(1/n),
    taken as r_out (t + u (1 - t))^(1/n) with t = (r_in / r_out)^n so no
    power overflows.  g is drawn whole and becomes the points; the
    uniforms are drawn and applied ORACLE_BLOCK_POINTS rows at a time,
    after all of g, with the bits of one call.  A shell is never empty
    (Body requires r_in < r_out), so no volume claim needs refuting.
    """
    c, r_in, r_out = shell
    n = c.shape[0]
    g = rng.standard_normal((size, n))
    t = (r_in / r_out) ** n
    for i in range(0, size, ORACLE_BLOCK_POINTS):
        x = g[i:i + ORACLE_BLOCK_POINTS]
        rho = r_out * (t + rng.random(x.shape[0]) * (1.0 - t)) ** (1.0 / n)
        x *= (rho / _radius(x, 0.0))[:, None]
        x += c
    return g


def _refute_volume_claim(body: Body, drawn: int):
    """Raise EmptyBodyError if drawn hitless bbox draws refute the body's volume."""
    claimed = body.exact_volume
    if claimed is None and body.inner_ball is not None:
        claimed = _ball_volume(body.dim, body.inner_ball[1])
    if claimed is None:
        return
    lo, hi = body.bbox
    expected = drawn * claimed / float(np.prod(hi - lo))
    if expected >= _EXPECTED_HITS:
        raise EmptyBodyError(
            f"no point of the body in {drawn} uniform draws from its bounding "
            f"box, where its claimed volume {claimed:.6g} expects {expected:.0f} "
            f"hits: the body is empty or much smaller than claimed")
