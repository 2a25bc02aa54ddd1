"""Property tests of the input documents, the chain record and the certificates.

A malformed input document is an exit code, never a crash: each example
replaces one leaf of a valid document with an arbitrary JSON value.
Only parsing and planning run there, because a mutated N can make one
in-step loop for up to 1e9 attempts.  The chain examples run the
sampler itself with T and N of at most 50, and check it bit for bit
against a reference chain that tests one proposal at a time.  The
certificate examples build unions, exclusions and star-shaped bodies
from random convex parts and check the combined (alpha, beta) against
the parts'.
"""

import copy
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inandout import bodies, cli, planner, sampler
from inandout.cli import ConfigError, main, read_plan_document

# the annulus config of the README
README_CONFIG = {
    "body": {
        "kind": "exclusion",
        "outer": {"kind": "ball", "center": [0, 0], "radius": 1.0},
        "hole": {"kind": "ball", "center": [0, 0], "radius": 0.5},
        "volume": 2.356194490192345,
    },
    "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 4,
             "alpha": "auto", "beta": "auto", "n": "auto"},
    "run": {"n_chains": 200, "seed": 42, "t_cap": 2000, "n_cap": 100000},
    "diagnose": {"seed": 7, "n_mc": 20000, "r_grid": [0.25, 0.5], "t_grid": [0.5]},
}


def readme_plan_document() -> dict:
    inputs, _, p = cli.resolve_run(cli.parse_config(README_CONFIG))
    report = planner.check_plan_consistency(p, inputs)
    return json.loads(cli.dumps_canonical(cli.plan_document(inputs, p, report)))


def leaves(node, path=()):
    """Paths to every value of the document that is not an object or list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in leaves(child, path + (key,))]


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# numbers at the edges of float range, where a formula can overflow or
# underflow to a zero divisor; a 400-digit integer does not fit a float
extremes = st.sampled_from([0, -1, 5e-324, 1e-300, 1e200, 1e300, 10**400])
leaf_values = st.one_of(json_values, extremes, st.floats(), st.integers(-3, 10**6))

# derandomized: a tier-1 test gives the same verdict on every run
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@PROPERTY
@given(st.sampled_from(leaves(README_CONFIG)), leaf_values)
def test_any_one_config_leaf_gives_an_exit_code(path, value):
    with tempfile.TemporaryDirectory() as d:
        cfg = Path(d) / "config.json"
        cfg.write_text(json.dumps(replaced(README_CONFIG, path, value)),
                       encoding="utf-8")
        assert main(["plan", "--config", str(cfg)]) in (0, 1, 2)


PLAN_DOCUMENT = readme_plan_document()


@PROPERTY
@given(st.sampled_from(leaves(PLAN_DOCUMENT)), leaf_values)
def test_any_one_plan_document_leaf_reads_or_is_a_config_error(path, value):
    doc = replaced(PLAN_DOCUMENT, path, value)
    try:
        inputs, p = read_plan_document(doc, "plan document")
    except ConfigError:
        return
    # what is read is what the document holds
    assert dataclasses.asdict(p) == doc["plan"]
    assert inputs.n == doc["inputs"]["n"]


def _annulus():
    disk = bodies.make_ball([0.0, 0.0], 1.0)
    hole = bodies.make_ball([0.0, 0.0], 0.5)
    return bodies.exclusion(disk, hole, disk.exact_volume - hole.exact_volume)


def _hexagon():
    angles = np.arange(6) * math.pi / 3
    A = np.column_stack([np.cos(angles), np.sin(angles)])
    return bodies.make_halfspace_polytope(A, np.ones(6), [0.0, 0.0], 1.0)


# (body, start point); the thin box fails most runs, the disk few
KERNEL_BODIES = {
    "disk": (bodies.make_ball([0.0, 0.0], 1.0), [0.5, 0.0]),
    "hexagon": (_hexagon(), [0.5, 0.0]),
    "thin box": (bodies.make_box([0.0, 0.0], [1.0, 1e-3]), [0.5, 5e-4]),
    "annulus": (_annulus(), [0.75, 0.0]),
    "3-D ball": (bodies.make_ball([0.0, 0.0, 0.0], 1.0), [0.0, 0.5, 0.0]),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(KERNEL_BODIES)), st.integers(0, 50),
       st.integers(1, 50), st.floats(1e-6, 1.0), st.integers(0, 2**64 - 1))
def test_chain_record_invariants(name, T, N, h, seed):
    body, x0 = KERNEL_BODIES[name]
    calls = points = 0

    def counting(pts):
        nonlocal calls, points
        calls += 1
        points += 1 if pts.ndim == 1 else pts.shape[0]
        return body.membership(pts)

    counted = dataclasses.replace(body, membership=counting)
    plan = planner.Plan(eps_prime=0.1, eta=0.025, T=T, S=100.0, h=h, N=N,
                        T0=0, T_tilde=0.0)
    res = sampler.run_in_and_out(counted, x0, plan, seed=seed)
    # one call checks the start point; every other one is an in-step's,
    # which tests its trials and, in its last block, points past the hit
    assert calls - 1 == res.membership_calls
    assert points - 1 == res.membership_points
    assert res.membership_calls <= res.total_trials <= res.membership_points
    succeeded = res.status == sampler.SUCCESS
    assert succeeded == (res.point is not None) == (res.failed_at is None)
    if succeeded:
        assert res.iterations == T
        assert res.y_at_failure is None
    else:
        # a chain that fails at its last iteration has run T iterations too
        assert res.status == sampler.FAILURE
        assert res.iterations == res.failed_at + 1 <= T
        # the out-step point whose N in-step proposals all missed; it may
        # itself lie inside the body
        assert res.y_at_failure.shape == (body.dim,)
    assert res.iterations <= res.total_trials <= res.iterations * N


def reference_chain(body, x0, h, T, N, rng):
    """The chain as the paper states it: one proposal at a time, each on
    its own `standard_normal(n)` call.  Returns (failed, failed_at,
    iterations, total_trials, point, y_at_failure)."""
    x = np.asarray(x0, dtype=float)
    sqrt_h = math.sqrt(h)
    total = 0
    for i in range(T):
        y = x + sqrt_h * rng.standard_normal(x.shape[0])
        for k in range(1, N + 1):
            x = y + sqrt_h * rng.standard_normal(y.shape[0])
            if body.membership(x):
                break
        else:
            return True, i, i + 1, total + N, None, y
        total += k
    return False, None, T, total, x, None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(KERNEL_BODIES)), st.integers(0, 50),
       st.integers(1, 50), st.floats(1e-6, 4.0), st.integers(0, 2**64 - 1))
def test_blocked_chain_equals_the_one_at_a_time_chain(name, T, N, h, seed):
    body, x0 = KERNEL_BODIES[name]
    plan = planner.Plan(eps_prime=0.1, eta=0.025, T=T, S=100.0, h=h, N=N,
                        T0=0, T_tilde=0.0)
    res = sampler.run_in_and_out(body, x0, plan, seed=seed)
    failed, failed_at, iterations, total, point, y = reference_chain(
        body, x0, h, T, N, sampler.make_rng(seed))
    assert res.status == (sampler.FAILURE if failed else sampler.SUCCESS)
    assert (res.failed_at, res.iterations, res.total_trials) == (failed_at, iterations, total)
    for got, want in ((res.point, point), (res.y_at_failure, y)):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()


def _chain_outcome(res):
    """Everything a chain reports but its oracle traffic."""
    return (res.status, res.failed_at, res.iterations, res.total_trials,
            None if res.point is None else res.point.tobytes(),
            None if res.y_at_failure is None else res.y_at_failure.tobytes())


@pytest.mark.parametrize("name", sorted(KERNEL_BODIES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 50), st.integers(1, 50), st.floats(1e-6, 4.0),
       st.integers(0, 2**64 - 1))
def test_chain_does_not_depend_on_the_window(name, T, N, h, seed):
    # a window of one iteration tests each first proposal alone; longer
    # ones test ahead past misses, and none may change an output, nor
    # the one in-step call per iteration through which the chain is
    # observed: its attempt counts, in order
    body, x0 = KERNEL_BODIES[name]
    plan = planner.Plan(eps_prime=0.1, eta=0.025, T=T, S=100.0, h=h, N=N,
                        T0=0, T_tilde=0.0)
    outcomes, attempts = [], []
    step = sampler.backward_step
    for window in (1, 2, 16, 64):
        seen = []

        def spy(*args, **kwargs):
            out = step(*args, **kwargs)
            seen.append(out[1])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_WINDOW", window)
            mp.setattr(sampler, "backward_step", spy)
            res = sampler.run_in_and_out(body, x0, plan, seed)
        assert (len(seen), sum(seen)) == (res.iterations, res.total_trials)
        outcomes.append(_chain_outcome(res))
        attempts.append(seen)
    assert outcomes[1:] == outcomes[:-1]
    assert attempts[1:] == attempts[:-1]


# ------------------------------------------------ combinator certificates


@st.composite
def convex_parts(draw, n: int, certified: bool = True):
    """A ball or a box in n dimensions, sometimes with a hand-set certificate."""
    coords = st.floats(-5.0, 5.0)
    sizes = st.floats(1e-3, 10.0)
    center = draw(st.lists(coords, min_size=n, max_size=n))
    if draw(st.booleans()):
        part = bodies.make_ball(center, draw(sizes))
    else:
        sides = draw(st.lists(sizes, min_size=n, max_size=n))
        part = bodies.make_box(center, [c + s for c, s in zip(center, sides)])
    if certified and draw(st.booleans()):
        part = bodies.with_growth(part, draw(st.floats(1.0, 1e3)),
                                  draw(st.floats(1e-3, 1e3)))
    return part


@st.composite
def star_parts(draw, n: int, r: float):
    """A box around the core ball B(0, r)."""
    reach = st.floats(0.0, 5.0)
    lo = [-r - draw(reach) for _ in range(n)]
    hi = [r + draw(reach) for _ in range(n)]
    return bodies.make_box(lo, hi)


dims = st.integers(1, 4)
# the union and exclusion volumes their validators accept: any fraction
# of the parts' total, and the total up to its 1e-12 rounding allowance
volume_fractions = st.one_of(st.floats(1e-6, 1.0), st.just(1.0 + 1e-12))


@PROPERTY
@given(st.data(), dims, volume_fractions)
def test_union_certificate(data, n, fraction):
    parts = data.draw(st.lists(convex_parts(n), min_size=1, max_size=4))
    total = sum(p.exact_volume for p in parts)
    u = bodies.union(parts, total * fraction)
    assert u.growth.alpha >= 1.0
    assert u.growth.alpha >= max(p.growth.alpha for p in parts)
    assert u.growth.beta <= max(p.growth.beta for p in parts)


@PROPERTY
@given(convex_parts(2), convex_parts(2, certified=False), st.floats(1e-6, 1.0))
def test_exclusion_certificate(outer, hole, fraction):
    carved = bodies.exclusion(outer, hole, outer.exact_volume * fraction)
    assert carved.growth.alpha >= max(1.0, outer.growth.alpha)
    assert carved.growth.beta == outer.growth.beta


@PROPERTY
@given(st.data(), dims, st.floats(1e-3, 2.0))
def test_star_shaped_certificate(data, n, r):
    parts = data.draw(st.lists(star_parts(n, r), min_size=1, max_size=4))
    star = bodies.star_shaped(parts, r)
    assert star.growth.alpha >= 1.0
    assert star.growth.beta == 1.0 / r
