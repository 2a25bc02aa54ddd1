"""Bodies: constructors, certificate algebra, set semantics, immutability."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from inandout import bodies
from inandout.bodies import (
    CertificateError,
    EmptyBodyError,
    GrowthCertificate,
    GrowthSource,
    exclusion,
    make_ball,
    make_box,
    make_halfspace_polytope,
    sample_uniform,
    star_shaped,
    union,
    unit_ball_volume,
    with_growth,
)


def probe_grid(lo, hi, k=200):
    xs = np.linspace(lo[0], hi[0], k)
    ys = np.linspace(lo[1], hi[1], k)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


# --------------------------------------------------------- constructors


def test_ball_basics():
    b = make_ball([1.0, -2.0], 3.0)
    assert b.dim == 2
    assert b.exact_volume == pytest.approx(math.pi * 9.0, rel=1e-14)
    assert b.growth.alpha == 1.0
    assert b.growth.beta == pytest.approx(1.0 / 3.0)
    assert b.growth.source is GrowthSource.CONVEX
    assert bool(b.membership(np.array([4.0, -2.0])))        # boundary point
    assert not bool(b.interior(np.array([4.0, -2.0])))
    assert not bool(b.membership(np.array([4.0001, -2.0])))
    np.testing.assert_allclose(b.bbox[0], [-2.0, -5.0])
    np.testing.assert_allclose(b.bbox[1], [4.0, 1.0])


def test_ball_distance():
    b = make_ball([0.0, 0.0], 1.0)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 4.0]])
    np.testing.assert_allclose(b.distance(pts), [0.0, 0.0, 4.0])


def test_ball_volume_formula_small_dimensions():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def mpmath_ball_volume(n, r):
    with mpmath.workdps(40):
        n = mpmath.mpf(n)
        return float(mpmath.pi ** (n / 2) / mpmath.gamma(n / 2 + 1) * mpmath.mpf(r) ** n)


@pytest.mark.parametrize("n", [2, 3, 10, 57, 100, 171, 250, 300, 341])
@pytest.mark.parametrize("r", [0.75, 1.0, 2.0, 7.25, 20.0])
def test_ball_volume_keeps_the_direct_product_where_it_is_finite(n, r):
    try:
        direct = math.pi ** (n / 2) / math.gamma(n / 2 + 1) * r**n
    except OverflowError:  # r**n past the float range
        direct = None
    volume = make_ball([0.0] * n, r).exact_volume
    if direct is not None:
        assert volume == direct
    assert volume == pytest.approx(mpmath_ball_volume(n, r), rel=1e-12)


@pytest.mark.parametrize("n,r", [(342, 1.0), (342, 20.0), (400, 1.0), (400, 20.0)])
def test_ball_volume_past_the_gamma_overflow_matches_mpmath(n, r):
    # math.gamma(n / 2 + 1) overflows from n = 342 on
    with pytest.raises(OverflowError):
        math.gamma(n / 2 + 1)
    assert make_ball([0.0] * n, r).exact_volume == pytest.approx(mpmath_ball_volume(n, r),
                                                                 rel=1e-12)


def test_inner_ball_claim_past_the_gamma_overflow_is_computed():
    # a 400-D star whose core ball is its only volume claim: 64 hitless
    # draws are far too few to refute it, and the claim itself is finite
    star = star_shaped([make_box([-1.0] * 400, [1.0] * 400)], 1.0)
    assert star.exact_volume is None
    assert bodies._refute_volume_claim(star, 64) is None


def test_box_basics():
    b = make_box([0.0, 0.0, 0.0], [2.0, 1.0, 4.0])
    assert b.exact_volume == 8.0
    assert b.growth.beta == 2.0            # two over the shortest side
    center, r = b.inner_ball
    np.testing.assert_allclose(center, [1.0, 0.5, 2.0])
    assert r == 0.5


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        make_ball([0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        make_box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        GrowthCertificate(0.5, 1.0)
    with pytest.raises(ValueError):
        GrowthCertificate(1.0, 0.0)


@pytest.mark.filterwarnings("error")
def test_extent_and_volume_must_be_finite():
    # uniform draws from the bbox scale by its width hi - lo, so a width
    # that overflows must fail at construction, not in the generator
    with pytest.raises(ValueError, match="finite extent"):
        make_box([-1e308, 0.0], [1e308, 1.0])
    with pytest.raises(ValueError, match="finite extent"):
        make_box([-math.inf, 0.0], [1.0, 1.0])
    halves = [make_box([-1e308, 0.0], [0.0, 1e-300]),
              make_box([0.0, 0.0], [1e308, 1e-300])]
    with pytest.raises(ValueError, match="finite extent"):  # the hull of a union
        union(halves, 1e8)
    with pytest.raises(ValueError, match="exact volume must be positive and finite"):
        make_box([0.0, 0.0], [1e200, 1e200])
    with pytest.raises(ValueError, match="exact volume must be positive and finite"):
        make_ball([0.0, 0.0], 1e300)


def test_polytope_matches_box_on_probes():
    # the unit square written as four halfspaces
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 1.0, 0.0])
    poly = make_halfspace_polytope(A, b, [0.5, 0.5], 0.5)
    box = make_box([0.0, 0.0], [1.0, 1.0])
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 1.5, size=(1000, 2))
    np.testing.assert_array_equal(poly.membership(pts), box.membership(pts))
    np.testing.assert_allclose(poly.bbox[0], [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(poly.bbox[1], [1.0, 1.0], atol=1e-9)
    assert poly.growth.beta == pytest.approx(2.0)


def test_polytope_triangle_certificate():
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 2.0])
    tri = make_halfspace_polytope(A, b, [0.5, 0.5], 0.5)
    assert tri.growth.alpha == 1.0
    assert tri.growth.beta == 2.0
    # certificate violated: the ball pokes through the hypotenuse
    with pytest.raises(CertificateError):
        make_halfspace_polytope(A, b, [0.9, 0.9], 0.5)


def _hexagon_rows():
    angles = np.arange(6) * math.pi / 3
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _rotated_cube_rows():
    q, _ = np.linalg.qr(np.random.default_rng(31).standard_normal((10, 10)))
    return np.concatenate([q, -q])


@pytest.mark.parametrize("rows", [_hexagon_rows, _rotated_cube_rows])
def test_polytope_gives_one_point_the_bits_of_a_batch(rows):
    # points on the facets (unit rows, b = 1), where the last bit of A x
    # decides membership: the blocked in-step tests proposals in batches
    # and must see what testing them one at a time sees
    A = rows()
    k, n = A.shape
    poly = make_halfspace_polytope(A, np.ones(k), np.zeros(n), 1.0)
    rng = np.random.default_rng(29)
    y = rng.uniform(-1.0, 1.0, size=(5_000, n))
    a = A[rng.integers(0, k, size=5_000)]
    pts = y + (1.0 - np.sum(a * y, axis=1))[:, None] * a
    for test in (poly.membership, poly.interior):
        batch = test(pts)
        assert 0 < np.count_nonzero(batch) < len(pts)
        assert [bool(test(p)) for p in pts] == batch.tolist()
        assert test(pts[:777]).tolist() == batch[:777].tolist()


@pytest.mark.parametrize("n,k", [(2, 6), (3, 4), (10, 20), (12, 2)])
def test_polytope_products_have_one_set_of_bits(n, k):
    # a point, a batch, a strided view (the window's first proposals are
    # every other row of its buffer) and sub-batches of one batch get the
    # same bits of A x, at the in-step's block sizes and a large batch
    rng = np.random.default_rng(100 * n + k)
    A = bodies._freeze(rng.standard_normal((k, n)))
    for m in (1, 4, 16, 1024):
        buf = rng.standard_normal((2 * m + 1, n))
        batch = np.ascontiguousarray(buf[1::2])
        want = bodies._products(batch, A)
        assert want.shape == (m, k)
        views = [np.stack([bodies._products(x, A) for x in batch]),
                 bodies._products(buf[1::2], A),
                 bodies._products(batch[None], A)[0],
                 np.concatenate([bodies._products(batch[i:i + 3], A)
                                 for i in range(0, m, 3)])]
        for got in views:
            assert got.tobytes() == want.tobytes()


def test_polytope_rejects_unbounded():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])     # no lower bounds: a quadrant
    b = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        make_halfspace_polytope(A, b, [0.0, 0.0], 0.5)


# --------------------------------------------------- certificate algebra


def test_annulus_certificate(annulus):
    assert annulus.growth.alpha == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert annulus.growth.beta == 1.0
    assert annulus.growth.source is GrowthSource.EXCLUSION
    assert annulus.exact_volume == pytest.approx(0.75 * math.pi)


def test_disjoint_disks_certificate():
    d1 = make_ball([-2.0, 0.0], 1.0)
    d2 = make_ball([2.0, 0.0], 1.0)
    disks = union([d1, d2], d1.exact_volume + d2.exact_volume)
    assert disks.growth.alpha == pytest.approx(1.0)
    assert disks.growth.beta == pytest.approx(1.0)
    assert disks.growth.source is GrowthSource.UNION


def test_mixed_union_certificate():
    # parts with (volume, alpha, beta) = (1, 1, 1) and (3, 2, 2),
    # disjoint, so the union volume is 4: expect A = 2, B = sqrt(3.25)
    p1 = with_growth(make_box([0.0, 0.0], [1.0, 1.0]), 1.0, 1.0)
    p2 = with_growth(make_box([2.0, 0.0], [5.0, 1.0]), 2.0, 2.0)
    u = union([p1, p2], 4.0)
    assert u.growth.alpha == pytest.approx(2.0, rel=1e-14)
    assert u.growth.beta == pytest.approx(math.sqrt(3.25), rel=1e-14)


def test_union_rate_never_exceeds_largest_part_rate():
    rng = np.random.default_rng(21)
    for _ in range(25):
        parts = []
        for i in range(int(rng.integers(2, 5))):
            side = float(rng.uniform(0.2, 3.0))
            lo = rng.uniform(-5.0, 5.0, size=2)
            box = make_box(lo, lo + side)
            parts.append(with_growth(box, float(rng.uniform(1.0, 4.0)),
                                     float(rng.uniform(0.1, 6.0))))
        total = sum(p.exact_volume for p in parts)
        u = union(parts, total * float(rng.uniform(0.5, 1.0)))
        assert u.growth.beta <= max(p.growth.beta for p in parts) + 1e-12
        assert u.growth.alpha >= max(p.growth.alpha for p in parts) - 1e-12


def test_union_validation():
    b1 = make_box([0.0, 0.0], [1.0, 1.0])
    b2 = make_box([2.0, 0.0], [3.0, 1.0])
    with pytest.raises(ValueError):
        union([b1, b2], 2.5)            # exceeds the sum of part volumes
    with pytest.raises(ValueError):
        union([b1, b2], 0.0)
    with pytest.raises(ValueError):
        union([], 1.0)
    tri = make_halfspace_polytope(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
        np.array([0.0, 0.0, 2.0]), [0.5, 0.5], 0.5)
    with pytest.raises(ValueError):
        union([b1, tri], 1.0)           # polytope has no exact volume


def test_exclusion_keeps_hole_boundary(annulus):
    # the hole is removed open: its boundary stays inside the body
    assert bool(annulus.membership(np.array([0.5, 0.0])))
    assert not bool(annulus.membership(np.array([0.49999, 0.0])))
    assert bool(annulus.membership(np.array([1.0, 0.0])))
    assert not bool(annulus.membership(np.array([0.0, 0.0])))


def test_exclusion_of_a_box_hole_keeps_its_boundary():
    # the box's interior test carves the hole: its faces and corners stay
    outer, hole = make_box([-2.0, -2.0], [2.0, 2.0]), make_box([-1.0, -1.0], [1.0, 1.0])
    carved = exclusion(outer, hole, 12.0)
    below = np.nextafter(1.0, 0.0)
    pts = np.array([[1.0, 0.0], [-1.0, 0.5], [0.3, -1.0], [1.0, 1.0], [-1.0, -1.0],
                    [1.5, 0.0], [2.0, 2.0],
                    [0.0, 0.0], [below, 0.0], [0.5, -below], [below, below]])
    want = [True] * 7 + [False] * 4
    assert carved.membership(pts).tolist() == want
    assert [bool(carved.membership(p)) for p in pts] == want


def test_exclusion_of_an_annulus_hole_keeps_both_its_circles(annulus):
    # the annulus's own interior test carves the hole: the open ring
    # 1/2 < r < 1 goes, both circles and the disk inside them stay
    outer = make_ball([0.0, 0.0], 2.0)
    carved = exclusion(outer, annulus, outer.exact_volume - annulus.exact_volume)
    pts = np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [0.5, 0.0], [0.3, -0.4],
                    [0.0, 0.0], [0.25, 0.0], [1.5, 0.0], [2.0, 0.0],
                    [0.75, 0.0], [0.0, np.nextafter(1.0, 0.0)],
                    [np.nextafter(0.5, 1.0), 0.0], [0.6, 0.6]])
    want = [True] * 9 + [False] * 4
    assert carved.membership(pts).tolist() == want
    assert [bool(carved.membership(p)) for p in pts] == want


def test_exclusion_validation(unit_disk):
    hole = make_ball([0.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        exclusion(unit_disk, hole, unit_disk.exact_volume * 1.001)  # grew?
    with pytest.raises(ValueError):
        exclusion(unit_disk, hole, 0.0)
    with pytest.raises(ValueError):
        exclusion(unit_disk, hole, -1.0)


def test_exclusion_with_negligible_hole_keeps_certificate(unit_disk):
    hole = make_ball([0.25, 0.0], 1e-9)
    remaining = unit_disk.exact_volume - hole.exact_volume
    carved = exclusion(unit_disk, hole, remaining)
    # the volume ratio rounds to 1 in floats: certificate equals the disk's
    assert carved.growth.alpha == unit_disk.growth.alpha
    assert carved.growth.beta == unit_disk.growth.beta


def test_star_shaped_cross(cross):
    assert cross.growth.alpha == 1.0
    assert cross.growth.beta == 2.0
    assert cross.growth.source is GrowthSource.STAR_SHAPED
    assert bool(cross.membership(np.array([1.5, 0.0])))
    assert bool(cross.membership(np.array([0.0, -1.7])))
    assert not bool(cross.membership(np.array([1.0, 1.0])))


def test_star_shaped_rejects_uncovered_core():
    # parts that miss the origin cannot contain any core ball around it
    a = make_box([1.0, 1.0], [2.0, 2.0])
    b = make_box([1.0, -2.0], [2.0, -1.0])
    with pytest.raises(CertificateError):
        star_shaped([a, b], 0.5)


def test_star_shaped_rejects_nonconvex_parts(annulus, unit_square):
    with pytest.raises(ValueError):
        star_shaped([annulus, unit_square], 0.1)


def test_with_growth_validates():
    sq = make_box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        with_growth(sq, 0.5, 1.0)


# ---------------------------------------------------------- set algebra


def test_union_membership_equals_brute_force(l_shape):
    a = make_box([0.0, 0.0], [2.0, 1.0])
    b = make_box([0.0, 1.0], [1.0, 2.0])
    pts = probe_grid(*l_shape.bbox)
    np.testing.assert_array_equal(
        l_shape.membership(pts), a.membership(pts) | b.membership(pts))


def test_exclusion_membership_equals_brute_force(annulus, unit_disk):
    hole = make_ball([0.0, 0.0], 0.5)
    pts = probe_grid(*annulus.bbox)
    np.testing.assert_array_equal(
        annulus.membership(pts),
        unit_disk.membership(pts) & ~hole.interior(pts))


def test_concentric_exclusion_membership_is_bitwise_the_parts():
    # the annulus tests one radius for both balls; its bits must be those
    # of the two tests, also on both circles and one ulp either side
    outer, hole = make_ball([0.0, 0.0], 1.0), make_ball([0.0, 0.0], 0.5)
    annulus = exclusion(outer, hole, 0.75 * math.pi)
    rng = np.random.default_rng(23)
    on = [[0.5, 0.0], [0.0, -0.5], [0.3, 0.4], [1.0, 0.0], [0.0, -1.0],
          [0.6, 0.8], [-0.8, 0.6]]
    ulps = [[np.nextafter(r, r + s), 0.0] for r in (0.5, 1.0) for s in (-1, 1)]
    pts = np.concatenate([on, ulps, rng.uniform(-1.1, 1.1, size=(20_000, 2))])
    want = outer.membership(pts) & ~hole.interior(pts)
    assert annulus.membership(pts).tolist() == want.tolist()
    assert [bool(annulus.membership(p)) for p in pts[:11]] == want[:11].tolist()
    assert want[:11].tolist() == [True] * 7 + [False, True, True, False]


@pytest.mark.parametrize("n", range(1, 13))
def test_radius_has_the_bits_of_the_reduce(n):
    # below 8 dimensions _radius adds the columns, from 8 on it reduces;
    # either way a point and a batch get np.add.reduce's bits, also on
    # points within one ulp of a sphere, where the last bit decides a
    # ball's membership
    rng = np.random.default_rng(n)
    center = rng.uniform(-1.0, 1.0, n)
    for shape in ((n,), (1, n), (4, n), (16, n), (65_536, n)):
        u = rng.standard_normal(shape)
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        pts = center + rng.uniform(0.1, 10.0, shape[:-1] + (1,)) * u
        ulps = rng.integers(-1, 2, shape)
        pts = np.where(ulps == 0, pts, np.nextafter(pts, np.copysign(np.inf, ulps)))
        d = pts - center
        want = np.sqrt(np.add.reduce(d * d, axis=-1))
        got = bodies._radius(pts, center)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_concentric_exclusion_membership_at_and_beside_both_radii():
    # points whose computed radius is each circle's radius or one ulp
    # either side, in many directions, and NaN: the annulus's one
    # comparison per radius gives the verdicts of not being in the
    # hole's interior, and of the two ball tests
    outer, hole = make_ball([0.0, 0.0], 1.0), make_ball([0.0, 0.0], 0.5)
    annulus = exclusion(outer, hole, 0.75 * math.pi)
    angles = np.linspace(0.0, 2.0 * math.pi, 2_000)
    units = np.column_stack([np.cos(angles), np.sin(angles)])
    targets = [np.nextafter(r, r + s) for r in (0.5, 1.0) for s in (-1.0, 0.0, 1.0)]
    scales = np.array([np.nextafter(t, t + s) for t in targets for s in (-1.0, 0.0, 1.0)])
    pts = (scales[:, None, None] * units).reshape(-1, 2)
    rho = bodies._radius(pts, np.zeros(2))
    assert set(targets) <= set(rho.tolist())
    pts = np.concatenate([pts[np.isin(rho, targets)], [[np.nan, 0.0], [0.0, np.nan]]])
    rho = bodies._radius(pts, np.zeros(2))
    got = annulus.membership(pts)
    assert got.tolist() == ((rho <= 1.0) & ~(rho < 0.5)).tolist()
    assert got.tolist() == (outer.membership(pts) & ~hole.interior(pts)).tolist()
    assert got.tolist() == ((rho >= 0.5) & (rho <= 1.0)).tolist()
    assert not got[-2:].any()


def ulps_around(x, k):
    """x and the doubles up to k ulps either side of it, ascending."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


SQUARED_BOUND_RADII = [0.5, 1.0, 0.75, 1 / 3, 1.3522987986828883, 1e-160, 1e150,
                       *np.random.default_rng(31).uniform(0.01, 10.0, 6)]


@pytest.mark.parametrize("r", SQUARED_BOUND_RADII)
def test_squared_bounds_are_the_exact_root_tests(r):
    # a ball tests its squared radius s against _squared_bound(r), and an
    # annulus its hole against the next double above the bound of the
    # radius just below r_in; on every s near r * r they must be the
    # root's tests, which r * r itself is not at r = 1 (s = 1 + 2**-52
    # has root 1.0)
    outer = bodies._squared_bound(r)
    inner = math.nextafter(bodies._squared_bound(math.nextafter(r, 0.0)), math.inf)
    s = np.concatenate([ulps_around(r * r, 64), ulps_around(outer, 4),
                        ulps_around(inner, 4), [0.0, np.inf, np.nan]])
    assert (s <= outer).tolist() == (np.sqrt(s) <= r).tolist()
    assert (s >= inner).tolist() == (np.sqrt(s) >= r).tolist()
    assert math.sqrt(outer) <= r < math.sqrt(math.nextafter(outer, math.inf))
    assert math.sqrt(math.nextafter(inner, 0.0)) < r <= math.sqrt(inner)


@pytest.mark.parametrize("n", [2, 3, 10])
def test_balls_and_annuli_keep_the_root_tests_beside_their_spheres(n):
    # points whose computed radius is within a few ulps of each sphere,
    # and points with NaN and infinite coordinates: a ball and a
    # concentric annulus give the booleans of comparing the root
    rng = np.random.default_rng(n)
    center = rng.uniform(-1.0, 1.0, n)
    units = rng.standard_normal((500, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    specials = np.array([np.nan, np.inf, -np.inf])
    odd = np.full((6, n), 0.5)
    odd[:3, -1] = specials       # one coordinate
    odd[3:] = specials[:, None]  # every coordinate
    r_in, r_out = 1 / 3, 1.3522987986828883
    ball, hole = make_ball(center, r_out), make_ball(center, r_in)
    annulus = exclusion(ball, hole, ball.exact_volume - hole.exact_volume)
    assert annulus.shell is not None
    for r in (r_in, r_out):
        scales = ulps_around(r, 8)
        pts = center + (scales[:, None, None] * units).reshape(-1, n)
        pts = np.concatenate([pts, odd])
        rho = bodies._radius(pts, center)
        assert np.isin(ulps_around(r, 2), rho).all()
        for body, want in ((ball, rho <= r_out), (hole, rho <= r_in),
                           (annulus, (rho <= r_out) & (rho >= r_in))):
            assert body.membership(pts).tolist() == want.tolist()
            one = np.r_[0:len(pts):97, -6:0]
            assert [bool(body.membership(p)) for p in pts[one]] == want[one].tolist()
        assert not annulus.membership(odd).any()


def test_exclusion_of_nearly_concentric_balls_tests_each_ball():
    # centers 1e-13 apart: a shared radius would misplace points that
    # lie between the two hole circles
    outer = make_ball([0.0, 0.0], 1.0)
    hole = make_ball([1e-13, 0.0], 0.5)
    carved = exclusion(outer, hole, 0.75 * math.pi)
    pts = np.array([[-0.5 + 5e-14, 0.0], [0.5 + 5e-14, 0.0], [0.5, 0.0], [-0.5, 0.0]])
    want = outer.membership(pts) & ~hole.interior(pts)
    assert want.tolist() == [True, False, False, True]
    assert carved.membership(pts).tolist() == want.tolist()
    # the distance is the annulus's up to rounding; holes 1e-6 off center
    # (also far from the origin), or as large as the outer ball, get none
    far = np.array([[0.75, 0.0], [0.0, 0.25], [2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(carved.distance(far), [0.0, 0.25, 1.0, 0.5])
    assert exclusion(outer, make_ball([1e-6, 0.0], 0.5), 2.0).distance is None
    assert exclusion(make_ball([1e3, 0.0], 1.0), make_ball([1e3 + 1e-6, 0.0], 0.5),
                     2.0).distance is None
    assert exclusion(outer, make_ball([0.0, 0.0], 1.0), 1.0).distance is None


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_exclusion_annulus_tolerance_scales_with_the_outer_radius(scale):
    # at scale 1e-12 a hole 9e-13 off center is no annulus: its distance
    # would read 1e-13 at the hole's center, a point 1e-12 from the body
    outer = make_ball([0.0, 0.0], 2.0 * scale)

    def carve(offset):
        hole = make_ball([offset, 0.0], scale)
        return exclusion(outer, hole, outer.exact_volume - hole.exact_volume)

    assert carve(0.9 * scale).distance is None
    # centers 1e-14 of the radius apart are an annulus at every scale
    near = carve(1e-14 * scale)
    np.testing.assert_allclose(near.distance(np.array([[0.0, 0.0], [3.0 * scale, 0.0]])),
                               [scale, scale])


def test_shell_is_set_for_balls_and_exactly_concentric_ball_exclusions():
    c = [0.5, -1.0, 2.0]
    ball = make_ball(c, 2.0)
    assert np.array_equal(ball.shell[0], c) and ball.shell[1:] == (0.0, 2.0)
    assert with_growth(ball, 2.0, 1.0).shell[1:] == (0.0, 2.0)
    hole = make_ball(c, 0.5)
    shell = exclusion(ball, hole, ball.exact_volume - hole.exact_volume)
    assert np.array_equal(shell.shell[0], c) and shell.shell[1:] == (0.5, 2.0)
    # a membership wrapper keeps the field, and the fused test with it
    wrapped = exclusion(dataclasses.replace(ball, membership=lambda p: ball.membership(p)),
                        hole, ball.exact_volume - hole.exact_volume)
    assert wrapped.shell[1:] == (0.5, 2.0)
    assert wrapped.membership.__code__ is shell.membership.__code__
    # no shell: a hole that covers the outer ball, centers apart by
    # rounding, a box, an annulus as the outer body, unions and stars
    assert exclusion(hole, ball, 0.1).shell is None
    nudged = make_ball([0.5 + 1e-15, -1.0, 2.0], 0.5)
    assert exclusion(ball, nudged, ball.exact_volume - nudged.exact_volume).shell is None
    box = make_box([-3.0] * 3, [3.0] * 3)
    assert box.shell is None
    assert exclusion(box, make_ball([0.0] * 3, 1.0), 200.0).shell is None
    assert exclusion(shell, make_ball(c, 1.0), 1.0).shell is None
    assert union([ball], ball.exact_volume).shell is None
    assert star_shaped([make_ball([0.0] * 3, 1.0)], 0.5).shell is None


@pytest.mark.parametrize("shell", [([0.0, 0.0], 1.0, 1.0), ([0.0, 0.0], -0.5, 1.0),
                                   ([0.0, 0.0, 0.0], 0.0, 1.0),
                                   ([0.0, 0.0], 0.0, math.inf)])
def test_body_rejects_a_bad_shell(shell):
    ball = make_ball([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="shell"):
        dataclasses.replace(ball, shell=shell)


def test_union_distance_is_min_of_parts():
    d1 = make_ball([-2.0, 0.0], 1.0)
    d2 = make_ball([2.0, 0.0], 1.0)
    disks = union([d1, d2], d1.exact_volume + d2.exact_volume)
    pts = np.random.default_rng(17).uniform(-4, 4, size=(500, 2))
    np.testing.assert_allclose(
        disks.distance(pts), np.minimum(d1.distance(pts), d2.distance(pts)))


def test_annulus_distance(annulus):
    pts = np.array([[0.75, 0.0], [0.0, 0.25], [2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(annulus.distance(pts), [0.0, 0.25, 1.0, 0.5])


# ----------------------------------------------------------- invariants


@pytest.mark.parametrize("fixture", ["unit_disk", "unit_square", "annulus",
                                     "l_shape", "cross"])
def test_membership_deterministic_and_in_bbox(fixture, request):
    body = request.getfixturevalue(fixture)
    lo, hi = body.bbox
    rng = np.random.default_rng(5)
    pts = rng.uniform(lo - 0.5, hi + 0.5, size=(1000, body.dim))
    first = body.membership(pts)
    second = body.membership(pts)
    np.testing.assert_array_equal(first, second)
    inside = pts[first]
    assert np.all(inside >= lo) and np.all(inside <= hi)


def test_membership_thread_safe(annulus):
    pts = np.random.default_rng(11).uniform(-1, 1, size=(4000, 2))
    expect = annulus.membership(pts)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(annulus.membership, [pts] * 16))
    for got in results:
        np.testing.assert_array_equal(got, expect)


def test_inner_ball_points_are_members(unit_disk, unit_square, cross):
    rng = np.random.default_rng(23)
    for body in (unit_disk, unit_square, cross):
        center, r = body.inner_ball
        z = rng.standard_normal((500, body.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        pts = center + z * (r * rng.random((500, 1)) ** (1.0 / body.dim))
        assert np.all(body.membership(pts))


def test_bodies_are_immutable(unit_disk):
    with pytest.raises(Exception):
        unit_disk.dim = 3
    with pytest.raises(ValueError):
        unit_disk.bbox[0][0] = -5.0


def test_sample_uniform_stays_inside_and_reproduces(annulus):
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    pts1 = sample_uniform(annulus, rng1, 2000)
    pts2 = sample_uniform(annulus, rng2, 2000)
    np.testing.assert_array_equal(pts1, pts2)
    assert np.all(annulus.membership(pts1))
    # symmetric body: the sample mean sits near the origin
    assert np.linalg.norm(pts1.mean(axis=0)) < 0.05
    single = sample_uniform(annulus, np.random.default_rng(1))
    assert single.shape == (2,)


@pytest.mark.parametrize("make", [
    lambda: make_ball([0.5, -1.0, 2.0], 1.5),
    lambda: exclusion(make_ball([0.1] * 4, 1.0), make_ball([0.1] * 4, 0.5),
                      (1.0 - 0.5**4) * bodies.unit_ball_volume(4)),
    lambda: make_box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),
], ids=["ball", "shell", "box"])
def test_sample_uniform_single_point_is_row_0_of_a_one_point_draw(make):
    # a shell's radial draw and a box's rejection alike
    body = make()
    one = sample_uniform(body, np.random.default_rng(8))
    rows = sample_uniform(body, np.random.default_rng(8), 1)
    assert one.shape == (body.dim,) and rows.shape == (1, body.dim)
    assert np.array_equal(one, rows[0])


@pytest.mark.parametrize("n,r", [(500, 1.0), (2, 1e-170)])
def test_star_shaped_probes_a_core_that_make_ball_cannot_build(n, r):
    # the core ball's volume underflows to 0, so make_ball refuses it;
    # the probes are drawn in the radius all the same
    with pytest.raises(ValueError, match="exact volume must be positive"):
        make_ball([0.0] * n, r)
    star = star_shaped([make_box([-1.0] * n, [1.0] * n)], r)
    assert star.inner_ball[1] == r


@pytest.mark.parametrize("size,draws", [(None, 2560), (1, 2560), (1000, 4000)])
def test_sample_uniform_refutes_an_empty_body(time_limit, size, draws):
    # a hole that covers the outer ball leaves nothing, yet the claimed
    # volume 0.1 is admissible; no bbox draw can ever hit.  At a claimed
    # hit rate of 0.1 / 4, 64 hits take 2560 draws, counted in batches.
    empty = exclusion(make_ball([0.0, 0.0], 1.0), make_ball([0.0, 0.0], 2.0), 0.1)
    with time_limit(30), pytest.raises(EmptyBodyError,
                                       match=f"in {draws} uniform draws"):
        sample_uniform(empty, np.random.default_rng(3), size)


def test_sample_uniform_refutes_a_body_smaller_than_its_inner_ball(time_limit):
    # without an exact volume the inner ball's volume is the claim
    square = make_halfspace_polytope(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([1.0, 1.0, 1.0, 1.0]), [0.0, 0.0], 1.0)
    assert square.exact_volume is None
    hollow = dataclasses.replace(
        square, membership=lambda pts: np.zeros(len(pts), dtype=bool))
    with time_limit(30), pytest.raises(EmptyBodyError, match="claimed volume 3.14159"):
        sample_uniform(hollow, np.random.default_rng(4), 10)
