"""Set-up from a fresh interpreter: import, parse the config, build the body, plan.

    python3 bench/setup_probe.py SRC_DIR CONFIG_JSON

Prints one JSON line with the monotonic clock when the plan was built
(the parent started its clock before launching this interpreter) and
the import time alone.
"""

import json
import sys
import time

t0 = time.monotonic()
sys.path.insert(0, sys.argv[1])
from inandout import cli, planner  # noqa: E402

t1 = time.monotonic()
with open(sys.argv[2], encoding="utf-8") as f:
    cfg = cli.parse_config(json.load(f))
inputs, body = cli.resolve_plan_inputs(cfg)
plan = planner.plan(inputs)
done = time.monotonic()
print(json.dumps({"done": done, "import_s": t1 - t0, "T": plan.T, "dim": body.dim}))
