"""Sampler tests: RNG derivation, kernel laws, chain mechanics, ensembles."""

import dataclasses
import math
import os
import signal

import numpy as np
import pytest
from scipy import stats

from inandout import bodies, diagnostics, planner, sampler
from inandout.planner import Plan, PlanInputs
from inandout.sampler import (
    FAILURE,
    SUCCESS,
    backward_step,
    derive_seed,
    failure_rate_by_iteration,
    forward_step,
    make_rng,
    run_ensemble,
    run_in_and_out,
    splitmix64,
)


def small_plan(T, h, N):
    return Plan(eps_prime=0.1, eta=0.025, T=T, S=100.0, h=h, N=N, T0=0,
                T_tilde=0.0)


# ----------------------------------------------------------------- RNG


def test_splitmix64_reference_vectors():
    # first outputs of the reference SplitMix64 stream from state 0 and 1
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1


def test_derive_seed_is_frozen_and_collision_free():
    assert derive_seed(42, 0) == 6332618229526065668
    assert derive_seed(42, 1) == 18036798128018490698
    seeds = {derive_seed(7, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert derive_seed(7, 3) != derive_seed(8, 3)


# -------------------------------------------------------------- kernel


def test_forward_step_frozen_draw():
    rng = make_rng(7)
    y = forward_step(np.zeros(2), 1.0, rng)
    assert y.tolist() == [-1.7496944402112695, 0.5745441092559128]


def test_forward_step_scales_with_h():
    rng1, rng2 = make_rng(3), make_rng(3)
    x = np.array([1.0, 2.0, 3.0])
    y1 = forward_step(x, 0.01, rng1)
    y2 = forward_step(x, 1.0, rng2)
    np.testing.assert_allclose((y1 - x) * 10.0, y2 - x, rtol=1e-12)


def test_forward_step_increments_are_standard_normal():
    rng = make_rng(99)
    x = np.array([0.3, -0.7])
    draws = np.array([forward_step(x, 0.25, rng) - x for _ in range(100_000)])
    z = draws / 0.5
    assert np.all(np.abs(z.mean(axis=0)) <= 0.02)
    assert np.all(np.abs(z.var(axis=0) - 1.0) <= 3.0 * math.sqrt(2.0 / 100_000.0))
    # distribution-level check on one component
    assert stats.kstest(z[:, 0], "norm").pvalue >= 1e-3


@pytest.mark.parametrize("h", [-0.01, 0.0, float("nan")])
def test_forward_step_rejects_a_nonpositive_step(h):
    rng = make_rng(4)
    with pytest.raises(ValueError, match="step size must be positive"):
        forward_step(np.zeros(2), h, rng)
    assert rng.random() == make_rng(4).random()    # no draw was taken


def test_backward_step_near_certain_acceptance():
    big = bodies.make_ball([0.0, 0.0], 100.0)
    rng = make_rng(5)
    attempts = [backward_step(np.zeros(2), 1.0, 50, big, rng)[1]
                for _ in range(10_000)]
    assert 1.0 <= np.mean(attempts) <= 1.001


def test_backward_step_boundary_mean_two_attempts():
    # y on a face of a huge box: acceptance probability one half,
    # so the attempt count is geometric with mean 2
    half = bodies.make_box([-50.0, -50.0], [0.0, 50.0])
    rng = make_rng(17)
    y = np.zeros(2)
    attempts = [backward_step(y, 1.0, 1000, half, rng)[1] for _ in range(10_000)]
    assert 1.94 <= np.mean(attempts) <= 2.06


def test_backward_step_exhaustion_frequency():
    half = bodies.make_box([-50.0, -50.0], [0.0, 50.0])
    rng = make_rng(29)
    y = np.zeros(2)
    fails = 0
    for _ in range(10_000):
        pt, k = backward_step(y, 1.0, 1, half, rng)
        assert k == 1
        fails += pt is None
    assert abs(fails / 10_000 - 0.5) <= 0.02


def read(stream):
    """The stream's next row, consumed: a peek of one row and a skip."""
    row = stream.peek(1)[0].copy()
    stream.skip(1)
    return row


def test_normal_stream_hands_out_the_sequential_draws():
    # 5-row refills: single reads cross refills, and a peek of 24 rows
    # needs more than a refill draws; every row is sqrt(h) times the
    # sequential draw
    n, h = 3, 0.3
    reference = make_rng(11)
    want = np.array([math.sqrt(h) * reference.standard_normal(n) for _ in range(80)])
    stream = sampler._Normals(make_rng(11), n, h)
    stream.wanted = 5
    got = [read(stream) for _ in range(7)]
    ahead = stream.peek(24).copy()
    assert ahead.tobytes() == want[7:31].tobytes()
    assert stream.peek(3).tobytes() == want[7:10].tobytes()
    stream.skip(2)
    got += list(ahead[:2])
    got += [read(stream) for _ in range(20)]
    got += list(stream.peek(4).copy())
    stream.skip(4)
    got += [read(stream) for _ in range(47)]
    assert np.array(got).tobytes() == want.tobytes()


def test_normal_refill_holds_the_wanted_rows_up_to_4096_or_the_peek():
    # (peek, wanted, rows after the refill): max(peek, min(wanted, 4096))
    for k, wanted, rows in [(1, 1, 1), (4, 1, 4), (1, 34, 34), (32, 34, 34),
                            (32, 10_000, 4096), (5000, 10_000, 5000), (5000, 1, 5000)]:
        rng = make_rng(1)
        stream = sampler._Normals(rng, 2, 0.1)
        stream.wanted = wanted
        stream.peek(k)
        assert (stream.end, rows_drawn(1, rng, 2, 6000)) == (rows, rows)
    # the undrawn rest counts toward a refill's rows
    rng = make_rng(1)
    stream = sampler._Normals(rng, 2, 0.1)
    stream.wanted = 10
    stream.peek(10)
    stream.skip(7)
    stream.peek(5)
    assert (stream.end, rows_drawn(1, rng, 2, 100)) == (10, 17)


def test_bare_generator_in_step_draws_only_the_rows_it_tests(unit_disk):
    # far outside the disk all 10 attempts miss, in blocks of 1, 4 and 5
    rng = make_rng(6)
    assert backward_step(np.array([100.0, 0.0]), 0.01, 10, unit_disk, rng) == (None, 10)
    assert rows_drawn(6, rng, 2, 100) == 10


def test_backward_step_consumes_only_up_to_the_first_hit(annulus):
    # y deep in the hole: the first hit comes several blocks in, past
    # 5-row refills, and the stream then stands where one draw per
    # proposal would stand.  A missed first proposal handed in,
    # its row consumed, goes on from attempt 2 the same way; a hit
    # handed in comes back untested, and the stream stays where it was.
    y, h = np.array([0.3, 0.0]), 0.01
    reference = make_rng(4)
    draws = []
    while not draws or not annulus.membership(y + draws[-1]):
        draws.append(math.sqrt(h) * reference.standard_normal(2))
    after = math.sqrt(h) * reference.standard_normal(2)
    for first in (None, (y + draws[0], False)):
        stream = sampler._Normals(make_rng(4), 2, h)
        stream.wanted = 5
        if first is not None:
            read(stream)
        point, attempts = backward_step(y, h, 10_000, annulus, stream, first=first)
        assert attempts == len(draws) > 13
        assert point.tobytes() == (y + draws[-1]).tobytes()
        assert read(stream).tobytes() == after.tobytes()
    stream = sampler._Normals(make_rng(4), 2, h)
    stream.wanted = 5
    untested = dataclasses.replace(annulus, membership=None)
    hit = np.array([0.75, 0.0])
    point, attempts = backward_step(y, h, 10_000, untested, stream, first=(hit, True))
    assert (point.tobytes(), attempts) == (hit.tobytes(), 1)
    assert stream.membership_calls == stream.membership_points == 0
    assert read(stream).tobytes() == draws[0].tobytes()


def test_backward_step_validation(unit_disk):
    rng = make_rng(1)
    with pytest.raises(ValueError):
        backward_step(np.zeros(2), 0.0, 5, unit_disk, rng)
    with pytest.raises(ValueError):
        backward_step(np.zeros(2), 0.1, 0, unit_disk, rng)
    # a chain's stream is drawn for one step size
    with pytest.raises(ValueError):
        backward_step(np.zeros(2), 0.2, 5, unit_disk, sampler._Normals(rng, 2, 0.1))
    # a handed-in miss is checked as a call without one is
    miss = (np.array([2.0, 0.0]), False)
    with pytest.raises(ValueError, match="step size must be positive"):
        backward_step(np.zeros(2), 0.0, 5, unit_disk, rng, first=miss)
    with pytest.raises(ValueError, match="stream draws steps of size"):
        backward_step(np.zeros(2), 0.2, 5, unit_disk, sampler._Normals(rng, 2, 0.1),
                      first=miss)


# -------------------------------------------------------------- chains


def test_zero_iterations_returns_start(unit_disk, attempts):
    res = run_in_and_out(unit_disk, [0.25, 0.0], small_plan(0, 0.04, 10), seed=1)
    assert res.status == SUCCESS
    assert res.point.tolist() == [0.25, 0.0]
    assert attempts == []
    assert res.iterations == 0
    assert res.total_trials == 0


def test_frozen_trajectory(unit_disk, attempts):
    res = run_in_and_out(unit_disk, [0.5, 0.0], small_plan(5, 0.04, 50), seed=42)
    assert res.status == SUCCESS
    assert attempts == [1, 1, 1, 2, 2]
    assert res.iterations == 5
    assert res.total_trials == 7
    assert res.point.tolist() == [0.3734700347515981, 0.1773882209160056]
    # byte-for-byte reproducible
    rerun = run_in_and_out(unit_disk, [0.5, 0.0], small_plan(5, 0.04, 50), seed=42)
    assert rerun.point.tolist() == res.point.tolist()
    assert attempts[5:] == attempts[:5]


def test_failure_records_iteration_and_outside_point(thin_box, attempts):
    # a huge step on a sliver body exhausts a threshold of one quickly
    res = run_in_and_out(thin_box, [0.5, 5e-4], small_plan(100, 0.25, 1), seed=3)
    assert res.status == FAILURE
    assert res.point is None
    assert res.failed_at is not None
    assert res.iterations == res.failed_at + 1
    assert attempts == [1] * res.iterations
    assert not bool(thin_box.membership(res.y_at_failure))
    assert res.total_trials == sum(attempts)


def test_validation_of_start_and_seed(unit_disk):
    p = small_plan(5, 0.04, 10)
    with pytest.raises(ValueError):
        run_in_and_out(unit_disk, [2.0, 0.0], p, seed=1)        # outside


@pytest.mark.parametrize("h,N,message", [
    (-0.01, 10, "step size must be positive"),
    (0.0, 10, "step size must be positive"),
    (float("nan"), 10, "step size must be positive"),
    (0.04, 0, "attempt threshold must be >= 1"),
])
def test_chain_checks_its_step_before_drawing(unit_disk, h, N, message):
    # the in-step's own messages, before the chain's normal stream (whose
    # sqrt(h) a negative h would fail in) draws anything
    rng = make_rng(1)
    with pytest.raises(ValueError, match=message):
        sampler._run_chain(unit_disk, np.array([0.25, 0.0]), h, 5, N, rng)
    assert rng.random() == make_rng(1).random()    # no draw was taken


def test_trial_accounting_matches_oracle_calls(annulus):
    calls = points = 0

    def counting(pts):
        nonlocal calls, points
        pts = np.asarray(pts)
        calls += 1
        points += 1 if pts.ndim == 1 else pts.shape[0]
        return annulus.membership(pts)

    counted = dataclasses.replace(annulus, membership=counting)
    res = run_in_and_out(counted, [0.75, 0.0], small_plan(50, 0.01, 100), seed=9)
    assert res.status == SUCCESS
    # one call validates the start point; the rest happen in in-steps
    assert calls - 1 == res.membership_calls
    assert points - 1 == res.membership_points
    # blocks test points past the first hit, so some were never trials
    assert res.membership_calls < res.total_trials < res.membership_points


def test_proximal_long_run_stays_inside(unit_square, attempts):
    # a threshold of 10^9 is never reached: the chain without a failure outcome
    res = run_in_and_out(unit_square, [0.5, 0.5], small_plan(10_000, 0.01, 10**9),
                         seed=13)
    assert res.status == SUCCESS
    assert bool(unit_square.membership(res.point))
    assert len(attempts) == res.iterations == 10_000
    assert all(k >= 1 for k in attempts)


def rows_drawn(seed, rng, n, most):
    """Normal n-vectors that rng, keyed by seed, gave before its next draw."""
    stream = make_rng(seed).standard_normal((most, n)).ravel()
    probe = rng.standard_normal(8)
    for i in np.flatnonzero(stream == probe[0]):
        if i % n == 0 and np.array_equal(stream[i:i + 8], probe):
            return i // n
    raise AssertionError(f"rng is more than {most} draws ahead")


@pytest.mark.parametrize("name,h,slack", [
    # mostly first hits: a refill asks for the rows the rest of the run
    # takes, at least 2 per iteration, plus a window's peek
    ("disk", 1e-4, 2 * sampler._WINDOW + 1),
    ("disk", 1e-2, 2 * sampler._WINDOW + 1),
    ("ball10", 1.558e-4, 2 * sampler._WINDOW + 1),
    # a straggler's block can be the last refill, and its hit ends it early
    ("annulus", 4.69e-3, sampler._BLOCK_CAP),
])
def test_chain_draws_few_normals_past_those_it_uses(unit_disk, annulus, name, h, slack):
    # a chain uses one normal vector per out-step and one per in-step
    # proposal, and draws ahead of them by less than the slack
    body, x0 = {"disk": (unit_disk, [0.0, 0.0]), "annulus": (annulus, [0.75, 0.0]),
                "ball10": (bodies.make_ball(np.zeros(10), 1.0), np.zeros(10))}[name]
    for T in (1, 5, 40, 300, 2000):
        for seed in (1, 2, 3):
            rng = make_rng(seed)
            res = sampler._run_chain(body, np.array(x0), h, T, 100_000, rng)
            assert res.status == SUCCESS
            used = T + res.total_trials
            assert used <= rows_drawn(seed, rng, body.dim, used + 5000) < used + slack


# ------------------------------------------------------------ ensembles


def test_single_chain_ensemble_reduces_to_plain_run(annulus, attempts):
    p = small_plan(25, 0.01, 50)
    master = 1234
    ens = run_ensemble(annulus, lambda g: bodies.sample_uniform(annulus, g),
                       p, 1, master)
    rng = make_rng(derive_seed(master, 0))
    x0 = bodies.sample_uniform(annulus, rng)
    direct = sampler._run_chain(annulus, x0, p.h, p.T, p.N, rng)
    assert ens.results[0].point.tolist() == direct.point.tolist()
    assert attempts[:25] == attempts[25:]
    assert ens.results[0].total_trials == direct.total_trials
    assert ens.summary == {"n_chains": 1, "failure_fraction": 0.0,
                           "mean_total_trials": float(direct.total_trials),
                           "max_total_trials": direct.total_trials}


@pytest.mark.parametrize("name,h,N,status", [
    ("annulus", 0.01, 50, SUCCESS),   # T = 37 ends inside a window
    ("thin_box", 0.25, 1, FAILURE),   # the chains fail at a window miss
])
def test_returned_points_own_their_data(request, name, h, N, status):
    # each chain reuses one window buffer; its returned point or failing
    # out-step point is a copy, equal to that of the chain run alone
    body = request.getfixturevalue(name)
    p = small_plan(37, h, N)
    ens = run_ensemble(body, lambda g: bodies.sample_uniform(body, g), p, 7, 2024)
    arrays = []
    for c, res in enumerate(ens.results):
        assert res.status == status
        rng = make_rng(derive_seed(2024, c))
        alone = sampler._run_chain(body, bodies.sample_uniform(body, rng), h, 37, N, rng)
        for got, want in ((res.point, alone.point), (res.y_at_failure, alone.y_at_failure)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()
                assert got.flags.owndata
                arrays.append(got)
    assert len(arrays) == 7
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[:i])


def test_ensemble_reproducible_and_summary_consistent(annulus, attempts):
    p = small_plan(10, 0.01, 50)
    ws = lambda g: bodies.sample_uniform(annulus, g)
    e1 = run_ensemble(annulus, ws, p, 30, 55)
    first = len(attempts)
    e2 = run_ensemble(annulus, ws, p, 30, 55)
    assert attempts[first:] == attempts[:first]
    for a, b in zip(e1.results, e2.results):
        assert a.status == b.status
        assert (a.iterations, a.total_trials) == (b.iterations, b.total_trials)
        if a.status == SUCCESS:
            assert a.point.tolist() == b.point.tolist()
    totals = [r.total_trials for r in e1.results]
    assert e1.summary["max_total_trials"] == max(totals)
    assert e1.summary["mean_total_trials"] == pytest.approx(np.mean(totals))
    n_fail = sum(1 for r in e1.results if r.status == FAILURE)
    assert e1.summary["failure_fraction"] == n_fail / 30


def test_stationarity_preserved_small_scale(unit_disk):
    # exact uniform start, five iterations: the output law stays uniform
    p = small_plan(5, 0.04, 10_000)
    ens = run_ensemble(unit_disk, lambda g: bodies.sample_uniform(unit_disk, g),
                       p, 20_000, 101)
    pts = np.array([r.point for r in ens.results if r.status == SUCCESS])
    assert len(pts) >= 19_990
    check = diagnostics.grid_tv_check(unit_disk, pts, 16)
    assert check.p_value >= 0.01


def test_failure_rate_does_not_trend_upward(unit_disk):
    # modest threshold forces a visible failure rate; warmness keeps the
    # conditional per-iteration rate from increasing with depth
    p = small_plan(30, 0.04, 4)
    ens = run_ensemble(unit_disk, lambda g: bodies.sample_uniform(unit_disk, g),
                       p, 2000, 333)
    rates = failure_rate_by_iteration(ens.results)
    assert rates.shape == (30,)
    # the direct count over chains is the reference, to the bit
    reference = [sum(r.failed_at == i for r in ens.results)
                 / sum(r.iterations > i for r in ens.results) for i in range(30)]
    assert rates.tolist() == reference
    slope, se = diagnostics.failure_rate_slope(rates)
    assert slope <= 1.645 * se or slope <= 0.0


def _record(status, iterations, failed_at=None):
    done = status == SUCCESS
    return sampler.RunResult(status=status, point=np.zeros(2) if done else None,
                             failed_at=failed_at,
                             y_at_failure=None if done else np.full(2, 9.0),
                             iterations=iterations, total_trials=iterations,
                             membership_calls=iterations,
                             membership_points=iterations)


def test_failure_rate_by_iteration_exact_values():
    results = [
        _record(SUCCESS, 4),
        _record(FAILURE, 1, failed_at=0),
        _record(FAILURE, 3, failed_at=2),
        _record(SUCCESS, 0),             # a zero-iteration chain reaches nothing
    ]
    # reached per iteration: 3, 2, 2, 1
    assert failure_rate_by_iteration(results).tolist() == [1 / 3, 0.0, 0.5, 0.0]
    empty = failure_rate_by_iteration([_record(SUCCESS, 0), _record(SUCCESS, 0)])
    assert empty.shape == (0,)
    with pytest.raises(ValueError):
        failure_rate_by_iteration([])


def test_mean_trials_within_planned_budget(annulus):
    inputs = PlanInputs(q=2, eps=0.2, M=1, C_PI=4, alpha=4.0 / 3.0, beta=1.0, n=2)
    p = dataclasses.replace(planner.plan(inputs), T=500)
    ens = run_ensemble(annulus, lambda g: bodies.sample_uniform(annulus, g),
                       p, 50, 4321)
    assert ens.summary["failure_fraction"] == 0.0
    assert ens.summary["mean_total_trials"] <= \
        planner.expected_total_trials_bound(inputs)


def test_ensemble_validation(annulus):
    with pytest.raises(ValueError):
        run_ensemble(annulus, lambda g: bodies.sample_uniform(annulus, g),
                     small_plan(1, 0.01, 10), 0, 1)


# -------------------------------------------------------- process split


def observed(monkeypatch):
    """Bind `sampler.backward_step` to a pass-through wrapper, which keeps
    an ensemble in the caller's process."""
    step = sampler.backward_step
    monkeypatch.setattr(sampler, "backward_step", lambda *a, **k: step(*a, **k))


def outcome(ens):
    return ens.summary, [
        (r.status, None if r.point is None else r.point.tobytes(),
         None if r.y_at_failure is None else r.y_at_failure.tobytes(), r.failed_at,
         r.iterations, r.total_trials, r.membership_calls, r.membership_points)
        for r in ens.results]


@pytest.mark.parametrize("name,h,N", [
    ("annulus", 0.01, 50),
    ("thin_box", 0.25, 1),   # every chain fails
])
@pytest.mark.parametrize("n_chains", [1, 2, 3, 7, 30])
def test_split_ensemble_equals_the_serial_one(request, monkeypatch, name, h, N, n_chains):
    body = request.getfixturevalue(name)
    ws = lambda g: bodies.sample_uniform(body, g)
    split = run_ensemble(body, ws, small_plan(37, h, N), n_chains, 2024)
    observed(monkeypatch)
    serial = run_ensemble(body, ws, small_plan(37, h, N), n_chains, 2024)
    assert outcome(split) == outcome(serial)


def test_split_ensemble_passes_results_larger_than_one_pipe_read(monkeypatch):
    # each 10,000-D point pickles to about 80 KB, more than a 64 KiB pipe
    # read, so a worker's message reaches the caller in pieces
    n = 10_000
    box = bodies.make_box(np.zeros(n), np.ones(n))
    ws = lambda g: np.full(n, 0.5)
    plan = small_plan(1, 1.0 / (2 * n), 10)
    split = run_ensemble(box, ws, plan, 4, 5)
    assert [r.status for r in split.results] == [SUCCESS] * 4
    observed(monkeypatch)
    assert outcome(split) == outcome(run_ensemble(box, ws, plan, 4, 5))


two_cores = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="an ensemble splits across processes only with fork and 2 usable cores")


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@two_cores
def test_ensemble_splits_unless_the_in_step_is_observed(annulus, tmp_path, monkeypatch):
    log = tmp_path / "pids"

    def warm_start(g):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()}\n")
        return bodies.sample_uniform(annulus, g)

    run_ensemble(annulus, warm_start, small_plan(5, 0.01, 50), 4, 1)
    pids = log.read_text(encoding="utf-8").split()
    assert len(pids) == 4 and len(set(pids)) == 2 and str(os.getpid()) in pids
    log.unlink()
    observed(monkeypatch)
    run_ensemble(annulus, warm_start, small_plan(5, 0.01, 50), 4, 1)
    assert log.read_text(encoding="utf-8").split() == [str(os.getpid())] * 4
    no_children_left()


def by_process(annulus, caller, worker):
    """A warm start that calls caller(k) in the caller's process and
    worker(k) in a worker, k counting that process's warm starts."""
    me, count = os.getpid(), [0]

    def warm_start(g):
        count[0] += 1
        (caller if os.getpid() == me else worker)(count[0])
        return bodies.sample_uniform(annulus, g)

    return warm_start


def fail(message, at=1, kind=ValueError):
    def act(k):
        if k >= at:
            raise kind(message)
    return act


@two_cores
@pytest.mark.parametrize("caller,worker,expected,match", [
    (fail("unused", at=99), fail("unused", at=99), None, None),
    # chain 1 raises in the worker while the caller still runs chains
    (fail("unused", at=99), fail("worker"), ValueError, "worker"),
    # chain 0 raises in the caller while the worker runs a long chain
    (fail("caller"), lambda k: None, ValueError, "caller"),
    (fail("caller", kind=KeyboardInterrupt), lambda k: None, KeyboardInterrupt, "caller"),
    # both raise: the lowest chain index wins, as in the serial loop
    (fail("caller", at=2), fail("worker"), ValueError, "worker"),
    (fail("caller"), fail("worker"), ValueError, "caller"),
    # a worker that dies before reporting its first chain
    (fail("unused", at=99), lambda k: os.kill(os.getpid(), signal.SIGKILL),
     RuntimeError, f"chain 1 ended with wait status {signal.SIGKILL}"),
])
def test_split_ensemble_errors_and_clean_up(annulus, time_limit, caller, worker,
                                            expected, match):
    # the long chains take minutes; an error or a dead worker must end the run at once
    T = 10**7 if expected in (ValueError, KeyboardInterrupt) and match == "caller" else 5
    ws = by_process(annulus, caller, worker)
    with time_limit(20):
        if expected is None:
            ens = run_ensemble(annulus, ws, small_plan(T, 0.01, 10**6), 4, 3)
            assert len(ens.results) == 4
        else:
            with pytest.raises(expected, match=match):
                run_ensemble(annulus, ws, small_plan(T, 0.01, 10**6), 4, 3)
    no_children_left()


@two_cores
def test_split_ensemble_reports_a_worker_that_dies_mid_message(time_limit):
    # chain 1's 80 KB point overfills the worker's 64 KiB pipe, which the
    # caller reads only once the worker has died in the write
    n = 10_000
    box = bodies.make_box(np.zeros(n), np.ones(n))
    me = os.getpid()

    def warm_start(g):
        if os.getpid() == me:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        else:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.setitimer(signal.ITIMER_REAL, 0.5)
        return np.full(n, 0.5)

    with time_limit(20):
        with pytest.raises(RuntimeError,
                           match=f"chain 1 ended with wait status {signal.SIGALRM}"):
            run_ensemble(box, warm_start, small_plan(1, 1.0 / (2 * n), 10), 2, 5)
    no_children_left()


@two_cores
def test_split_ensemble_reaps_its_workers_on_a_timeout(annulus, time_limit):
    ws = by_process(annulus, lambda k: None, lambda k: None)
    with pytest.raises(TimeoutError):
        with time_limit(1):
            run_ensemble(annulus, ws, small_plan(10**7, 0.01, 10**6), 2, 3)
    no_children_left()


@two_cores
def test_split_ensemble_reports_a_worker_exception_that_cannot_be_pickled(annulus,
                                                                         time_limit):
    def worker(k):
        raise ValueError(lambda: 0)

    with time_limit(20):
        with pytest.raises(RuntimeError, match=r"chain 1 raised ValueError\("):
            run_ensemble(annulus, by_process(annulus, lambda k: None, worker),
                         small_plan(5, 0.01, 10**6), 2, 3)
    no_children_left()


@two_cores
def test_split_ensemble_reports_a_dead_worker_at_its_first_chain(annulus, time_limit,
                                                                 monkeypatch):
    # a worker reports its chains in one message, so when it dies at its
    # second chain (3) none of its results arrive, its first (1) included
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def worker(k):
        if k == 2:
            os.kill(os.getpid(), signal.SIGKILL)

    with time_limit(20):
        with pytest.raises(RuntimeError,
                           match=f"chain 1 ended with wait status {signal.SIGKILL}"):
            run_ensemble(annulus, by_process(annulus, lambda k: None, worker),
                         small_plan(5, 0.01, 10**6), 4, 3)
    no_children_left()


@two_cores
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open file descriptors in /proc/self/fd")
def test_split_ensembles_leave_no_fd_or_process_behind(annulus, time_limit):
    cases = [
        (lambda k: None, lambda k: None, None),
        (lambda k: None, fail("worker"), ValueError),
        (fail("caller"), lambda k: None, ValueError),
        (lambda k: None, lambda k: os.kill(os.getpid(), signal.SIGKILL), RuntimeError),
    ]
    fds = len(os.listdir("/proc/self/fd"))
    with time_limit(60):
        for _ in range(5):
            for caller, worker, expected in cases:
                ws = by_process(annulus, caller, worker)
                if expected is None:
                    run_ensemble(annulus, ws, small_plan(5, 0.01, 10**6), 4, 3)
                else:
                    with pytest.raises(expected):
                        run_ensemble(annulus, ws, small_plan(5, 0.01, 10**6), 4, 3)
    assert len(os.listdir("/proc/self/fd")) == fds
    no_children_left()
