"""Uniform sampling from compact membership-oracle bodies.

The package couples five pieces, which `cli` runs from a JSON config:

* `bodies`      -- membership oracles with volume-growth certificates
* `planner`     -- the full run schedule (T, S, h, N, ...) for a target
                   accuracy, plus consistency and error-bound helpers
* `sampler`     -- the In-and-Out chain, with its failures recorded
* `diagnostics` -- falsification checks of every bound (Monte Carlo, and
                   grid quadrature for the per-iteration bounds in 2-D)
* `specfun`     -- chi tails and the closed-form inequalities behind them
"""

import importlib

from . import bodies, diagnostics, planner, sampler, specfun

__version__ = "0.1.0"


def __getattr__(name):
    # `cli` loads on first use: importing it here would make
    # `python -m inandout.cli` find it in sys.modules before running it
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
