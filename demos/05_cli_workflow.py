"""
The config-driven command line, end to end
==========================================

Everything the library does is reachable through three subcommands —

    inandout plan     --config cfg.json [--out plan.json]
    inandout sample   --config cfg.json --out rundir [--plan plan.json]
    inandout diagnose --config cfg.json --out report.json [--samples f.jsonl]

— with a single JSON config naming the body, the accuracy targets, and
run/diagnose knobs.  This script drives the same entry points in
process and walks through the artifacts they write.
"""

import json
import math
import tempfile
from pathlib import Path

from inandout import cli

tmp = tempfile.TemporaryDirectory(prefix="inandout-demo-")
workdir = Path(tmp.name)

config = {
    "body": {
        "kind": "exclusion",
        "outer": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "hole": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5},
        "volume": 0.75 * math.pi,
    },
    # alpha/beta/n are resolved from the body's certificate
    "plan": {"q": 2, "eps": 0.2, "M": 1, "C_PI": 4,
             "alpha": "auto", "beta": "auto", "n": "auto"},
    # caps keep the demo fast; drop them for a full guaranteed run
    "run": {"n_chains": 50, "seed": 123, "t_cap": 500, "n_cap": 5000},
    "diagnose": {"seed": 7, "n_mc": 4000, "r_grid": [0.5], "t_grid": [0.5],
                 "n_cells": 8},
}
cfg_path = workdir / "config.json"
cfg_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
print(f"config written to {cfg_path}\n")

# --- plan: compute the schedule and check it ---------------------------

print("$ inandout plan --config config.json --out plan.json")
code = cli.main(["plan", "--config", str(cfg_path),
                 "--out", str(workdir / "plan.json")])
print(f"(exit {code})\n")

# --- sample: run the ensemble, reusing the planned schedule ------------

print("$ inandout sample --config config.json --out run1 --plan plan.json")
code = cli.main(["sample", "--config", str(cfg_path),
                 "--out", str(workdir / "run1"),
                 "--plan", str(workdir / "plan.json")])
print(f"(exit {code})\n")

first = json.loads((workdir / "run1" / "samples.jsonl")
                   .read_text(encoding="utf-8").splitlines()[0])
print(f"first sample record: {first}\n")

# --- diagnose: bound checks plus uniformity of the actual output -------

print("$ inandout diagnose --config config.json --out report.json "
      "--samples run1/samples.jsonl")
code = cli.main(["diagnose", "--config", str(cfg_path),
                 "--out", str(workdir / "report.json"),
                 "--samples", str(workdir / "run1" / "samples.jsonl")])
print(f"(exit {code})\n")

report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
print("check verdicts:")
for check in report["checks"]:
    label = check.get("verdict", check["status"])
    print(f"  {check['name']:32s} {label}")

# determinism: the same config and seed reproduce the run byte for byte
cli.main(["sample", "--config", str(cfg_path), "--out", str(workdir / "run2"),
          "--plan", str(workdir / "plan.json")])
same = ((workdir / "run1" / "samples.jsonl").read_bytes()
        == (workdir / "run2" / "samples.jsonl").read_bytes())
print(f"\nrerun byte-identical: {same}")
tmp.cleanup()
print(f"removed the work directory {workdir}")
