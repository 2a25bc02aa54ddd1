"""Spans around the public calls of `inandout`, installed from outside.

`install` replaces public names in the package's modules with timing
wrappers and returns a function that puts the originals back.  Nothing
in the package is edited: the wrappers take effect because the package
looks these names up in its module namespaces at call time.

Every span has a name, a start, an end and a parent.  Hot spans (the
per-call ones, millions per run) are only aggregated per (parent, name)
as a count, a total and a self time; the others are also kept as
individual records.  Membership calls on the top-level body are counted
in calls and in points, and every span carries the points evaluated
beneath it.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
from time import perf_counter

HOT = frozenset({"membership", "forward_step", "backward_step"})


class Frame:
    __slots__ = ("name", "start", "child", "points", "id")

    def __init__(self, name, start, span_id):
        self.name, self.start, self.child, self.points, self.id = name, start, 0.0, 0, span_id


class Tracer:
    """Span stack, per-(parent, name) aggregates and chain traffic counters."""

    def __init__(self):
        self.stack = []
        # (parent, name) -> [count, total_s, self_s, points beneath]
        self.agg = collections.defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.spans = []  # cold spans: (id, name, start, end, parent id, points)
        self.membership_calls = 0
        self.membership_points = 0
        self.attempts = collections.Counter()  # in-step attempts -> iterations
        self.per_chain = []  # [iterations, first hits] per chain
        self._next_id = 0

    def open(self, name):
        self._next_id += 1
        frame = Frame(name, perf_counter(), self._next_id)
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = perf_counter()
        self.stack.pop()
        dur = end - frame.start
        parent = self.stack[-1] if self.stack else None
        a = self.agg[(parent.name if parent else None, frame.name)]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame.child
        a[3] += frame.points
        if parent is not None:
            parent.child += dur
            parent.points += frame.points
        if frame.name not in HOT:
            self.spans.append((frame.id, frame.name, frame.start, end,
                               parent.id if parent else None, frame.points))

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(result) sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if after is not None:
                after(out)
            return out

        return traced

    def traced_membership(self, fn):
        def membership(pts):
            k = 1 if getattr(pts, "ndim", 1) == 1 else len(pts)
            self.membership_calls += 1
            self.membership_points += k
            frame = self.open("membership")
            try:
                return fn(pts)
            finally:
                # closing hands the points on to every enclosing span
                frame.points = k
                self.close(frame)

        return membership

    def on_backward(self, out):
        k = out[1]
        self.attempts[k] += 1
        chain = self.per_chain[-1]
        chain[0] += 1
        chain[1] += (k == 1 and out[0] is not None)

    def on_sample_uniform(self, out):
        # a single-point draw inside run_ensemble is a chain's warm start
        if out.ndim == 1 and any(f.name == "run_ensemble" for f in self.stack):
            self.per_chain.append([0, 0])

    # ------------------------------------------------------------ reads

    def total(self, name, parent=Ellipsis):
        """Summed (count, total_s, self_s, points) of a span name."""
        rows = [v for (p, n), v in self.agg.items()
                if n == name and (parent is Ellipsis or p == parent)]
        return tuple(sum(r[i] for r in rows) for i in range(4))

    def to_json(self) -> dict:
        return {
            "aggregates": [
                {"parent": p, "name": n, "count": v[0], "total_s": v[1],
                 "self_s": v[2], "membership_points": v[3]}
                for (p, n), v in sorted(self.agg.items(), key=lambda kv: str(kv[0]))
            ],
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "membership_points": k}
                for i, n, s, e, p, k in self.spans
            ],
            "membership_calls": self.membership_calls,
            "membership_points": self.membership_points,
            "attempt_histogram": {str(k): v for k, v in sorted(self.attempts.items())},
        }


DIAGNOSTIC_SPANS = ("stationary_escape_check", "stationary_failure_check",
                    "expected_trials_check", "certificate_soundness_check",
                    "grid_tv_check", "smoothed_conductance_samples", "GridOracle")


def install(tracer: Tracer, pkg) -> callable:
    """Wrap the public calls of the imported package; returns the undo."""
    bodies, sampler, diagnostics = pkg.bodies, pkg.sampler, pkg.diagnostics
    planner, cli = pkg.planner, pkg.cli
    saved = []

    def patch(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    depth = [0]
    build_body = cli.build_body

    def traced_build_body(*args, **kwargs):
        # build_body recurses through the module name; only the
        # outermost body is the one the commands call
        depth[0] += 1
        try:
            body = build_body(*args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            body = dataclasses.replace(
                body, membership=tracer.traced_membership(body.membership))
        return body

    patch(cli, "build_body", traced_build_body)
    for name in ("cmd_sample", "cmd_diagnose", "dumps_canonical"):
        patch(cli, name, tracer.wrap(name, getattr(cli, name)))
    patch(planner, "plan", tracer.wrap("plan", planner.plan))
    patch(sampler, "run_ensemble", tracer.wrap("run_ensemble", sampler.run_ensemble))
    patch(sampler, "forward_step", tracer.wrap("forward_step", sampler.forward_step))
    patch(sampler, "backward_step",
          tracer.wrap("backward_step", sampler.backward_step, tracer.on_backward))
    uniform = tracer.wrap("sample_uniform", bodies.sample_uniform, tracer.on_sample_uniform)
    patch(bodies, "sample_uniform", uniform)
    patch(diagnostics, "sample_uniform", uniform)
    for name in DIAGNOSTIC_SPANS:
        patch(diagnostics, name, tracer.wrap(name, getattr(diagnostics, name)))

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo
