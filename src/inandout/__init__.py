"""Uniform sampling from compact membership-oracle bodies.

The package couples five pieces, which `cli` runs from a JSON config:

* `bodies`      -- membership oracles with volume-growth certificates
* `planner`     -- the full run schedule (T, S, h, N, ...) for a target
                   accuracy, plus consistency and error-bound helpers
* `sampler`     -- the In-and-Out chain and its idealized variant
* `diagnostics` -- falsification checks of every bound (Monte Carlo, and
                   grid quadrature for the per-iteration bounds in 2-D)
* `specfun`     -- chi tails and the closed-form inequalities behind them
"""

import importlib

from . import bodies, diagnostics, planner, sampler, specfun
from .bodies import (
    Body,
    CertificateError,
    EmptyBodyError,
    GrowthCertificate,
    GrowthSource,
    exclusion,
    make_ball,
    make_box,
    make_halfspace_polytope,
    naive_sandwich_certificate,
    sample_uniform,
    star_shaped,
    union,
    with_growth,
)
from .planner import (
    Plan,
    PlanInputs,
    PlanOverflowError,
    check_plan_consistency,
    expected_total_trials_bound,
    plan,
    renyi_error_bound,
)
from .sampler import (
    EnsembleResult,
    RunResult,
    backward_step,
    derive_seed,
    forward_step,
    make_rng,
    run_ensemble,
    run_in_and_out,
    run_proximal_ideal,
)

__version__ = "0.1.0"


def __getattr__(name):
    # `cli` loads on first use: importing it here would make
    # `python -m inandout.cli` find it in sys.modules before running it
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
