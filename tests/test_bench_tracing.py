"""The benchmark reaches package names by getattr and by import.

Its traced mode wraps them, its microbenchmarks call them and its
set-up probe imports them, so a rename in the package would otherwise
break `bench/run.py` only when the benchmark runs.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import inandout
from inandout import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
ANNULUS = BENCH / "configs" / "annulus.json"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_undoes(tmp_path):
    tracing = load_bench("tracing")
    modules = [inandout.bodies, inandout.sampler, inandout.diagnostics,
               inandout.planner, inandout.cli]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, inandout)
    try:
        changed = {name for m, old in zip(modules, before)
                   for name, value in vars(m).items() if old.get(name) is not value}
        assert {"build_body", "cmd_sample", "run_ensemble", "backward_step",
                *tracing.DIAGNOSTIC_SPANS} <= changed
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "body": {"kind": "exclusion",
                     "outer": {"kind": "ball", "center": [0, 0], "radius": 1.0},
                     "hole": {"kind": "ball", "center": [0, 0], "radius": 0.5},
                     "volume": 0.75 * math.pi},
            "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 4},
            "run": {"n_chains": 2, "seed": 1, "t_cap": 20, "n_cap": 1000},
        }), encoding="utf-8")
        assert cli.main(["sample", "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 0
    finally:
        undo()
    assert [dict(vars(m)) for m in modules] == before
    assert tracer.total("cmd_sample")[0] == 1
    assert tracer.total("backward_step")[0] == 40
    assert tracer.membership_calls > 0
    assert len(tracer.per_chain) == 2


def test_microbenchmarks_run_on_the_package():
    micro = load_bench("micro")
    doc = json.loads(ANNULUS.read_text(encoding="utf-8"))
    metrics = micro.run(inandout, doc, target_s=1e-3)
    assert "cli.dumps_canonical_ms.run200" in metrics
    assert all(math.isfinite(value) and value > 0 for value, _ in metrics.values())


def test_setup_probe_imports_and_plans():
    res = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                          str(ROOT / "src"), str(ANNULUS)],
                         capture_output=True, text=True, check=True, timeout=120)
    probe = json.loads(res.stdout)
    assert probe["dim"] == 2 and probe["T"] > 0 and probe["import_s"] > 0
