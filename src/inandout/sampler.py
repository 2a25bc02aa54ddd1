"""The In-and-Out chain.

One iteration from x does two things:

  out-step:  y  = x + sqrt(h) * g,          g  ~ N(0, I_n)
  in-step:   x' = y + sqrt(h) * g_k,        g_k ~ N(0, I_n) i.i.d.,
             keeping the first proposal that lands inside the body.

The in-step retries at most N times; running out of attempts ends the
whole run (Failure).

Randomness: each chain runs on a counter-based Philox generator keyed
by a 64-bit seed.  Per-chain seeds come from `derive_seed`, a frozen
SplitMix64 construction, so ensembles are reproducible and order
independent.  Gaussian variates use numpy's standard_normal (ziggurat);
this transform is part of the frozen contract for regression tests.
A chain draws its normals ahead in blocks, each refill as many rows as
the rest of the run can use but at most 4096 unless one peek needs
more, and hands them out in the order of one draw per proposal, so
buffering changes no output.

The chain works a window of iterations ahead, on the assumption that
each in-step keeps its first proposal: from x it adds the next normals
in turn into out-step points and first proposals, in one buffer the
chain reuses from window to window, and tests the window's first
proposals in one membership call.  Each in-step then takes its first
proposal from the window; up to the first miss every point is, bit for
bit, the one a step-by-step chain computes, and the iteration that
misses ends the window.  The window's rows are consumed at once: a miss
at its j-th iteration consumes the 2 (j + 1) rows up to its first
proposal before its in-step draws on, and a window without a miss
consumes its 2 m rows, m iterations, at its end.  The chain's
`membership_calls` and `membership_points` count one call of _WINDOW
points per window.

Every iteration, a window hit included, makes exactly one call of
`backward_step`, looked up in this module's namespace when called, in
the process that runs the chain.  The calls are how the chain is
observed from outside: the benchmark's tracer (bench/tracing.py) and the
tests' `attempts` fixture wrap the name and read each call's attempt
count.  A hit costs that call and nothing more, since a handed-in hit
returns at once.  The contract holds until the chain keeps these counts
itself (the per-chain `RunStats` that ROADMAP.md plans).

An ensemble splits its chains across processes, one per usable core
(`run_ensemble`).  Each chain's stream depends only on the master seed
and its index, so the split changes no output.  A wrapper sees only the
calls made in its own process, so while `backward_step` is bound to
anything but this module's function the ensemble runs in the caller's
process alone, and an observer sees every chain.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bodies import Body
from .planner import Plan

_M64 = (1 << 64) - 1

SUCCESS = "success"
FAILURE = "failure"


def splitmix64(x: int) -> int:
    """One SplitMix64 step: advance by the golden gamma and mix."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Frozen per-stream seed derivation: splitmix64(splitmix64(master) + index)."""
    return splitmix64((splitmix64(master & _M64) + index) & _M64)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _M64))


@dataclass
class RunResult:
    """Outcome of one chain.

    status is "success" (point holds the final iterate) or "failure"
    (the in-step exhausted its N attempts at iteration failed_at;
    y_at_failure is the out-step point that could not be re-entered).
    iterations counts the executed iterations, the failing one
    included: T on success, failed_at + 1 otherwise.  total_trials is
    the number of in-step proposals up to each first hit (the paper's
    trial count).  In-steps test proposals in blocks and the chain tests
    its windows' first proposals ahead, so the oracle traffic is counted
    apart: membership_calls and membership_points are the calls of the
    in-steps and windows and the points those calls evaluated, at least
    total_trials of them.  Each window counts one call of _WINDOW
    points.
    """

    status: str
    point: Optional[np.ndarray]
    failed_at: Optional[int]
    y_at_failure: Optional[np.ndarray]
    iterations: int
    total_trials: int
    membership_calls: int
    membership_points: int


# Rows a refill of a normal buffer draws at most, unless one peek needs
# more: a long chain draws 4096 (320 KB in 10-D) at a time.
_MAX_ROWS = 4096
# Iterations a chain works out ahead, assuming every first proposal
# hits, with all their first proposals tested in one membership call.
# Most first proposals hit (93% on a 10-D ball, 82% on the README
# annulus), so a window serves several iterations.  Against 16, chains
# on the benchmark plans (T 2000, 16 rounds alternated in one process on
# a 2-core x86-64 machine) took 1.16x (10-D ball) and 1.09x (annulus)
# as long per iteration with windows of 8, and 0.97x and 1.02x with 24
# or 32.  Outputs do not depend on it.
_WINDOW = 16
# The in-step's first block after a missed proposal, and its largest.
# One call costs about as much as testing a hundred points in a batch,
# so stragglers save calls and waste little.
_FIRST_BLOCK = 4
_BLOCK_CAP = 1024


class _Normals:
    """A generator's normal vectors scaled by sqrt(h), drawn ahead.

    Row i is `math.sqrt(h) * v`, where v is the i-th vector that
    sequential `rng.standard_normal(n)` calls give: filling an array
    makes the same draws, and scaling it rounds each product as scaling
    one row does.  `peek(k)` returns the next k rows without consuming
    them and `skip(j)`, j <= k, consumes the first j of them.  Returned
    arrays are views of the buffer, valid until the next peek.  A peek
    past the drawn rows refills the buffer to max(k, min(wanted, 4096))
    rows, the undrawn rest included; `wanted`, 1 unless the owner raises
    it, is the rows the owner can still use.  The in-steps and windows
    that draw from the stream tally their membership calls and points
    on it.
    """

    __slots__ = ("rng", "h", "buf", "pos", "end", "wanted",
                 "membership_calls", "membership_points")

    def __init__(self, rng: np.random.Generator, n: int, h: float):
        self.rng, self.h = rng, h
        self.buf = np.empty((0, n))
        self.pos = self.end = 0  # rows pos..end-1 are drawn and not consumed
        self.wanted = 1
        self.membership_calls = self.membership_points = 0

    def peek(self, k: int) -> np.ndarray:
        if self.end - self.pos < k:
            self._refill(k)
        return self.buf[self.pos:self.pos + k]

    def skip(self, k: int):
        self.pos += k

    def _refill(self, k: int):
        # keep the undrawn rest in front and fill the rows behind it
        rest = self.end - self.pos
        rows = max(k, min(self.wanted, _MAX_ROWS))
        if rows > self.buf.shape[0]:
            grown = np.empty((rows, self.buf.shape[1]))
            grown[:rest] = self.buf[self.pos:self.end]
            self.buf = grown
        else:
            self.buf[:rest] = self.buf[self.pos:self.end]
        fresh = self.buf[rest:rows]
        self.rng.standard_normal(out=fresh)
        np.multiply(fresh, math.sqrt(self.h), out=fresh)
        self.pos, self.end = 0, rows


def forward_step(x: np.ndarray, h: float, rng: np.random.Generator) -> np.ndarray:
    """The out-step: one Gaussian move of scale sqrt(h).

    A chain makes its out-steps in its windows, with the same bits (see
    the module docstring); this is the one-step form.
    """
    _check_step(h)
    x = np.asarray(x, dtype=float)
    return x + math.sqrt(h) * rng.standard_normal(x.shape[0])


def _check_step(h: float, N: int = 1):
    if not (h > 0.0):
        raise ValueError(f"step size must be positive, got {h}")
    if N < 1:
        raise ValueError(f"attempt threshold must be >= 1, got {N}")


def backward_step(y: np.ndarray, h: float, N: int, body: Body,
                  rng: np.random.Generator, first: Optional[tuple] = None):
    """The in-step: rejection-sample N(y, h I) restricted to the body.

    Returns (point, attempts) on success and (None, N) when all N
    attempts landed outside.  rng is a Generator, which is wrapped in a
    stream of its own that draws only the rows it tests, or a chain's
    normal stream, which must be drawn for h.  A chain passes
    `first=(point, hit)`, its window's first proposal from y and whether
    it is inside the body.  A handed-in hit is returned as it is,
    `(point, 1)`, unchecked: neither y, h, N nor the stream is looked at,
    for the chain has checked h and N once and drawn its stream for h.
    A handed-in miss, its row already consumed, is checked as a call
    without `first` is and goes on from attempt 2.  Proposals are
    tested in blocks of 1, 4, 8, ... up to 1024 (from 4 after a handed-in
    miss), one membership call per block.  Only the proposals up to the
    first hit are consumed, so the point, `attempts` and the stream
    position are those of testing one proposal at a time, while the body
    sees points past the hit.
    """
    if first is not None and first[1]:
        return first[0], 1
    _check_step(h, N)
    y = np.asarray(y, dtype=float)
    normals = rng if isinstance(rng, _Normals) else _Normals(rng, y.shape[0], h)
    if h != normals.h:
        raise ValueError(f"stream draws steps of size {normals.h}, asked for {h}")
    k, block = (0, 1) if first is None else (1, _FIRST_BLOCK)
    while k < N:
        m = min(block, N - k)
        xs = y + normals.peek(m)
        normals.membership_calls += 1
        normals.membership_points += m
        hit = body.membership(xs)
        j = int(hit.argmax())
        if hit[j]:
            normals.skip(j + 1)
            return xs[j], k + j + 1
        normals.skip(m)
        k += m
        block = min(max(2 * block, _FIRST_BLOCK), _BLOCK_CAP)
    return None, N


# The in-step as this module defines it; an ensemble splits across
# processes only while the module's name is bound to it.
_BACKWARD_STEP = backward_step


def _run_chain(body: Body, x0, h: float, T: int, N: int,
               rng: np.random.Generator) -> RunResult:
    x = np.asarray(x0, dtype=float)
    if x.shape != (body.dim,):
        raise ValueError(f"start point has shape {x.shape}, body dimension is {body.dim}")
    if not bool(body.membership(x)):
        raise ValueError("start point is outside the body")
    if T < 0:
        raise ValueError(f"iteration count must be >= 0, got {T}")
    _check_step(h, N)
    normals = _Normals(rng, body.dim, h)
    # row 0 is x, row 2j + 1 the j-th out-step point and row 2j + 2 its
    # first proposal, as if every first proposal before it hit
    win = np.empty((2 * _WINDOW + 1, body.dim))
    ys, firsts = win[1::2], win[2::2]
    total = i = 0
    while i < T:
        # the rest of the run takes at least 2 rows per iteration, and
        # its last window peeks up to 2 _WINDOW rows past them
        normals.wanted = 2 * (T - i + _WINDOW)
        win[0] = x
        win[1:] = normals.peek(2 * _WINDOW)
        np.add.accumulate(win, axis=0, out=win)
        hits = body.membership(firsts).tolist()
        normals.membership_calls += 1
        normals.membership_points += _WINDOW
        m = min(_WINDOW, T - i)
        for j, y, first, hit in zip(range(m), ys, firsts, hits):
            if not hit:
                normals.skip(2 * (j + 1))
            x, k = backward_step(y, h, N, body, normals, first=(first, hit))
            if not hit:  # past the first miss the window's points are not the chain's
                total += j + k
                if x is None:
                    return RunResult(status=FAILURE, point=None, failed_at=i + j,
                                     y_at_failure=y.copy(), iterations=i + j + 1,
                                     total_trials=total,
                                     membership_calls=normals.membership_calls,
                                     membership_points=normals.membership_points)
                i += j + 1
                break
        else:
            normals.skip(2 * m)
            total += m
            i += m
    # the point may be a row of the window, which the result must not share
    return RunResult(status=SUCCESS, point=x.copy(), failed_at=None, y_at_failure=None,
                     iterations=T, total_trials=total,
                     membership_calls=normals.membership_calls,
                     membership_points=normals.membership_points)


def run_in_and_out(body: Body, x0, plan: Plan, seed: int) -> RunResult:
    """Run one chain for plan.T iterations with threshold plan.N.

    The chain draws from the frozen Philox generator keyed by seed.
    """
    return _run_chain(body, x0, plan.h, plan.T, plan.N, make_rng(seed))


@dataclass
class EnsembleResult:
    results: list
    summary: dict


def run_ensemble(body: Body, warm_start: Callable[[np.random.Generator], np.ndarray],
                 plan: Plan, n_chains: int, seed: int) -> EnsembleResult:
    """Run n_chains independent chains from one master seed.

    Chain c uses the generator keyed by derive_seed(seed, c) for both
    its warm-start draw and the chain itself, so any subset of chains
    reproduces identically regardless of execution order or process.

    The chains run in P = min(n_chains, usable cores) processes.  The
    caller's process runs chains 0, P, 2P, ... and each of P - 1 forked
    workers runs the chains c = w (mod P), w = 1 .. P - 1, and sends
    their results back through a pipe; each result lands at its chain
    index.  P is 1, and the chains run in order in the caller's process,
    when the platform has no `os.fork` or `os.sched_getaffinity` or when
    `backward_step` is observed (see the module docstring).

    A split ensemble raises what the serial one would: the exception of
    the lowest chain index that raised, in either process.  A worker
    that ends before reporting a chain raises RuntimeError, with its
    wait status, at that chain.  On every way out, an exception or an
    interrupt included, the workers still running are killed and every
    worker is waited for.
    """
    if n_chains < 1:
        raise ValueError(f"need at least one chain, got {n_chains}")

    def chain(c: int) -> RunResult:
        rng = make_rng(derive_seed(seed, c))
        x0 = warm_start(rng)
        return _run_chain(body, x0, plan.h, plan.T, plan.N, rng)

    P = _processes(n_chains)
    if P == 1:
        results = [chain(c) for c in range(n_chains)]
    else:
        results = _run_split(chain, n_chains, P)
    failures = sum(1 for r in results if r.status != SUCCESS)
    totals = [r.total_trials for r in results]
    summary = {
        "n_chains": n_chains,
        "failure_fraction": failures / n_chains,
        "mean_total_trials": math.fsum(totals) / n_chains,
        "max_total_trials": max(totals),
    }
    return EnsembleResult(results=results, summary=summary)


def _processes(n_chains: int) -> int:
    if (backward_step is not _BACKWARD_STEP or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(n_chains, len(os.sched_getaffinity(0)))


def _run_split(chain: Callable[[int], RunResult], n_chains: int, P: int) -> list:
    results = [None] * n_chains
    raised = []  # (chain index, exception) of each chain known to have raised
    workers = []
    try:
        for w in range(1, P):
            workers.append(_Worker(chain, range(w, n_chains, P)))
        end = n_chains  # the lowest chain index known to have raised
        for c in range(0, n_chains, P):
            if c > end:
                break
            try:
                results[c] = chain(c)
            except Exception as exc:
                raised.append((c, exc))
                end = c
                break
            for worker in workers:  # keep the pipes from filling up
                worker.receive(results, n_chains, block=False)
                end = min(end, worker.raised[0] if worker.raised else n_chains)
        # the serial loop stops at the first chain that raises, so only
        # the chains below it have to report
        for worker in workers:
            worker.receive(results, end, block=True)
            if worker.raised:
                raised.append(worker.raised)
                end = min(end, worker.raised[0])
    finally:
        for worker in workers:
            worker.reap()
    if raised:
        raise min(raised, key=lambda r: r[0])[1]
    return results


class _Worker:
    """A forked process that runs the chains `indices` in order.

    It sends one message per chain through a pipe, each a pickled
    (index, RunResult, None) prefixed by its length in 8 bytes, and
    stops after a chain that raised, whose message is (index, None,
    exception).  It leaves only through os._exit, so it runs none of
    the caller's `finally` or `atexit` code and flushes none of its
    buffers.
    """

    __slots__ = ("pid", "fd", "indices", "buf", "got", "raised")

    def __init__(self, chain: Callable[[int], RunResult], indices: range):
        r, w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            code = 1
            try:
                # garbage the caller left is not the worker's to finalize
                gc.freeze()
                os.close(r)
                _work(chain, indices, w)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self.pid, self.fd, self.indices = pid, r, indices
        self.buf = bytearray()
        self.got = 0  # chains reported
        self.raised = None  # (index, exception) of the chain that raised

    def receive(self, results: list, end: int, block: bool):
        """Reads messages until every chain below `end` has reported;
        without `block`, only as far as the pipe holds data."""
        os.set_blocking(self.fd, block)
        while (self.raised is None and self.got < len(self.indices)
               and self.indices[self.got] < end):
            try:
                data = os.read(self.fd, 1 << 16)
            except BlockingIOError:
                return
            if not data:
                _, status = os.waitpid(self.pid, 0)
                self.pid = None
                self.raised = (self.indices[self.got], RuntimeError(
                    f"the worker running chain {self.indices[self.got]} ended "
                    f"with wait status {status} before reporting it"))
                return
            self.buf += data
            while len(self.buf) >= 8:
                size = 8 + int.from_bytes(self.buf[:8], "little")
                if len(self.buf) < size:
                    break
                c, result, exc = pickle.loads(self.buf[8:size])
                del self.buf[:size]
                self.got += 1
                if exc is not None:
                    self.raised = (c, exc)
                    break
                # unpickled arrays share the message's bytes
                for name in ("point", "y_at_failure"):
                    a = getattr(result, name)
                    if a is not None:
                        setattr(result, name, a.copy())
                results[c] = result

    def reap(self):
        os.close(self.fd)
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _work(chain: Callable[[int], RunResult], indices: range, fd: int):
    for c in indices:
        try:
            message = (c, chain(c), None)
        except BaseException as exc:  # MemoryError and interrupts included
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"chain {c} raised {exc!r}")
            message = (c, None, exc)
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        view = memoryview(len(data).to_bytes(8, "little") + data)
        while view:
            view = view[os.write(fd, view):]
        if message[2] is not None:
            return


def failure_rate_by_iteration(results) -> np.ndarray:
    """Conditional per-iteration failure rate across an ensemble.

    Entry i is (#chains failing at iteration i) / (#chains reaching
    iteration i).  Chains reach iteration i when they ran more than i
    iterations; the array has max(iterations) entries.
    """
    if not results:
        raise ValueError("no results")
    iterations = np.array([r.iterations for r in results], dtype=np.intp)
    T = int(iterations.max())
    reached = len(results) - np.cumsum(np.bincount(iterations))[:T]
    failed_at = np.array([r.failed_at for r in results if r.failed_at is not None],
                         dtype=np.intp)
    return np.bincount(failed_at, minlength=T) / reached
