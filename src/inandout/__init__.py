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

__version__ = "0.1.0"

_SUBMODULES = ("bodies", "cli", "diagnostics", "planner", "sampler", "specfun")


def __getattr__(name):
    # a submodule loads on first use, so a command loads only the
    # modules it runs; importing `cli` here would also make
    # `python -m inandout.cli` find it in sys.modules before running it
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
