import contextlib
import os
import signal
from pathlib import Path

import pytest

from inandout import bodies, sampler

# pytest finds the package under src (pyproject's pythonpath); the
# interpreters the tests start find it there too, without an install
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH"))))


@pytest.fixture
def unit_disk():
    return bodies.make_ball([0.0, 0.0], 1.0)


@pytest.fixture
def unit_square():
    return bodies.make_box([0.0, 0.0], [1.0, 1.0])


@pytest.fixture
def annulus():
    # radii 1/2 and 1, centered at the origin: certificate (4/3, 1)
    disk = bodies.make_ball([0.0, 0.0], 1.0)
    hole = bodies.make_ball([0.0, 0.0], 0.5)
    return bodies.exclusion(disk, hole, disk.exact_volume - hole.exact_volume)


@pytest.fixture
def l_shape():
    # two unit-thickness boxes sharing an edge; exact union volume 3
    a = bodies.make_box([0.0, 0.0], [2.0, 1.0])
    b = bodies.make_box([0.0, 1.0], [1.0, 2.0])
    return bodies.union([a, b], 3.0)


@pytest.fixture
def cross():
    arm1 = bodies.make_box([-2.0, -0.5], [2.0, 0.5])
    arm2 = bodies.make_box([-0.5, -2.0], [0.5, 2.0])
    return bodies.star_shaped([arm1, arm2], 0.5)


@pytest.fixture
def thin_box():
    return bodies.make_box([0.0, 0.0], [1.0, 1e-3])


@pytest.fixture
def attempts(monkeypatch):
    """In-step attempt counts, one per `sampler.backward_step` call, in order.

    Chains call the in-step through the module name, so the spy sees
    every iteration of every chain run while the fixture is active.
    """
    seen = []
    step = sampler.backward_step

    def spy(*args, **kwargs):
        out = step(*args, **kwargs)
        seen.append(out[1])
        return out

    monkeypatch.setattr(sampler, "backward_step", spy)
    return seen


@pytest.fixture
def time_limit():
    """Context manager that turns a call running past `seconds` into a failure."""

    @contextlib.contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
