"""Command-line front end.

Three subcommands share one JSON config format:

    inandout plan     --config cfg.json [--out plan.json]
    inandout sample   --config cfg.json --out outdir [--seed S] [--chains K]
                      [--plan plan.json]
    inandout diagnose --config cfg.json --out report.json [--seed S]
                      [--samples samples.jsonl]

Exit codes: 0 success / all bounds satisfied, 1 a bound or consistency
check failed, 2 invalid config (an empty body, or work too large to
allocate, included), 3 I/O failure.  `diagnose` exits 1 exactly when a
record of its report is a `hypothesis_violation` or has a verdict other
than `satisfied`, or when every record is `skipped`, so that no check
ran.

Floats in every emitted document are formatted with 17 significant
digits, which round-trips 64-bit values exactly and keeps reruns
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# `sampler` and `diagnostics` load in the commands that run them
from . import bodies, planner

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


# ---------------------------------------------------------------- JSON


def dumps_canonical(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite float {x} in output document")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {dumps_canonical(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ------------------------------------------------------------- config
#
# Every value read from outside passes a checker of its kind: a call
# (value, where) that returns the value to use or raises a ConfigError
# naming the key path where.  PlanInputs and the body constructors check
# their own ranges.


def _integer(least: Optional[int] = None, end: Optional[int] = None):
    """Checker of an integer >= least and < end; a bool is not one."""
    need = ("an integer" + ("" if least is None else f" >= {least}")
            + ("" if end is None else f" and < {end}"))

    def check(value, where: str) -> int:
        if (not isinstance(value, int) or isinstance(value, bool)
                or (least is not None and value < least)
                or (end is not None and value >= end)):
            raise ConfigError(f"{where}: need {need}, got {value!r}")
        return value
    return check


def _number(sign: Optional[str] = None):
    """Checker of a number that converts to a finite float (so no bool, NaN
    or inf), "positive" or "nonnegative" if sign says so."""
    need = "a finite number" if sign is None else f"a finite {sign} number"

    def check(value, where: str):
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not abs(value) <= sys.float_info.max
                or (sign and value < 0) or (sign == "positive" and value == 0)):
            raise ConfigError(f"{where}: need {need}, got {value!r}")
        return value
    return check


def _list(check, most: Optional[int] = None):
    """Checker of a list whose every item passes check, of at most `most`
    items if given."""
    def checked(value, where: str) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: need a list, got {value!r}")
        if most is not None and len(value) > most:
            raise ConfigError(f"{where}: need at most {most} entries, got {len(value)}")
        return [check(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return checked


def _auto(check):
    return lambda value, where: value if value == "auto" else check(value, where)


def _section(node, spec: dict, where: str, defaults: dict = {}) -> dict:
    """Each key of spec in the object node, its value checked by spec[key].

    A key without a default is required; a default of None makes it
    optional, and its None value, like any value of a None checker, is
    taken as it is."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(node) - set(spec)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = set(spec) - set(defaults) - set(node)
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {sorted(missing)}")
    out = {}
    for key, check in spec.items():
        value = node.get(key, defaults.get(key))
        unset = value is None and key in defaults and defaults[key] is None
        out[key] = value if unset or check is None else check(value, f"{where}.{key}")
    return out


def _object(spec: dict, defaults: dict = {}):
    return lambda value, where: _section(value, spec, where, defaults)


# a seed keys 64-bit generators, so seeds lie in [0, 2^64) and none alias
_SEED, _COUNT = _integer(0, 1 << 64), _integer(1)
_FINITE, _POSITIVE, _NONNEGATIVE = (_number(), _number("positive"),
                                     _number("nonnegative"))
_POINT = _list(_FINITE)


def _body(node, where: str) -> bodies.Body:
    return build_body(node, where)  # the module name, which bench/tracing.py wraps


# kind -> (constructor, checker of each of its arguments in order)
_BODY_KINDS = {
    "ball": (bodies.make_ball, {"center": _POINT, "radius": _FINITE}),
    "box": (bodies.make_box, {"lo": _POINT, "hi": _POINT}),
    "polytope": (bodies.make_halfspace_polytope,
                 {"A": _list(_POINT), "b": _POINT, "inner_center": _POINT,
                  "inner_radius": _FINITE}),
    "union": (bodies.union, {"parts": _list(_body), "volume": _FINITE}),
    "exclusion": (bodies.exclusion,
                  {"outer": _body, "hole": _body, "volume": _FINITE}),
    "star": (bodies.star_shaped, {"parts": _list(_body), "core_radius": _FINITE}),
}


def build_body(node: dict, where: str = "body") -> bodies.Body:
    """Construct a Body from a config tree node, every key and value checked."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = node["kind"]
    if not isinstance(kind, str) or kind not in _BODY_KINDS:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    make, spec = _BODY_KINDS[kind]
    args = _section({k: v for k, v in node.items() if k != "kind"}, spec, where)
    try:
        return make(*args.values())
    except (ValueError, TypeError, ArithmeticError) as e:
        raise ConfigError(f"{where}: {e}") from e


@dataclass
class RunConfig:
    """Parsed and validated configuration document, defaults filled in."""

    body_node: Optional[dict]
    plan_node: Optional[dict]
    run_node: dict
    diagnose_node: dict


_INPUTS = {**dict.fromkeys(("q", "eps", "M", "C_PI", "alpha", "beta"), _POSITIVE),
           "n": _integer()}
_AUTO = ("alpha", "beta", "n")
_CONFIG = {
    "body": None,  # checked when it is built
    "plan": _object({**_INPUTS, **{k: _auto(_INPUTS[k]) for k in _AUTO}},
                    dict.fromkeys(_AUTO, "auto")),
    "run": _object({"n_chains": _COUNT, "seed": _SEED, "t_cap": _COUNT, "n_cap": _COUNT},
                   {"n_chains": 1, "seed": 0, "t_cap": None, "n_cap": None}),
    # escape distances must be positive, dilations may be zero; at most
    # 100 of each keeps their generator streams (keys 100 + i and 400 + i
    # of stream() in _diagnose_checks) off those keyed 200 and 500
    "diagnose": _object(
        {"seed": _SEED, "n_mc": _COUNT, "resolution": _integer(2),
         "n_cells": _integer(2), "r_grid": _list(_POSITIVE, 100),
         "t_grid": _list(_NONNEGATIVE, 100), "h_override": _POSITIVE},
        {"seed": 0, "n_mc": 20_000, "resolution": planner.RESOLUTION, "n_cells": 16,
         "r_grid": [0.25, 0.5, 1.0], "t_grid": [0.1, 0.5, 1.0], "h_override": None}),
}
_PLAN_DOCUMENT = {
    "inputs": _object(_INPUTS),
    "plan": _object({"eps_prime": _NONNEGATIVE, "eta": _NONNEGATIVE, "T": _COUNT,
                     "S": _POSITIVE, "h": _POSITIVE, "N": _COUNT, "T0": _integer(0),
                     "T_tilde": _NONNEGATIVE}),
    "consistency": None,  # written by `plan`, not read
}


def _plan_inputs(node: dict, where: str) -> planner.PlanInputs:
    """PlanInputs from checked fields; PlanInputs checks their ranges."""
    try:
        return planner.PlanInputs(**node)
    except (ValueError, ArithmeticError) as e:  # n too large for a float
        raise ConfigError(f"{where}: {e}") from e


def read_plan_document(doc, where: str) -> tuple:
    """(PlanInputs, Plan) from a document `inandout plan` wrote.

    Keys and types are checked strictly; the schedule is not re-checked
    for consistency, so hand-made out-of-regime plans still run.
    """
    node = _section(doc, _PLAN_DOCUMENT, where, {"consistency": None})
    return _plan_inputs(node["inputs"], f"{where}.inputs"), planner.Plan(**node["plan"])


def parse_config(doc: dict) -> RunConfig:
    node = _section(doc, _CONFIG, "config",
                    {"body": None, "plan": None, "run": {}, "diagnose": {}})
    return RunConfig(**{f"{key}_node": value for key, value in node.items()})


def resolve_plan_inputs(cfg: RunConfig) -> tuple:
    """Build (PlanInputs, Body-or-None) from the config, resolving 'auto'."""
    if cfg.plan_node is None:
        raise ConfigError("config.plan: required for this command")
    body = build_body(cfg.body_node) if cfg.body_node is not None else None
    node = dict(cfg.plan_node)
    for key in _AUTO:
        if node[key] == "auto":
            need = "a body" if key == "n" else "a body with a growth certificate"
            if body is None or (key != "n" and body.growth is None):
                raise ConfigError(f"config.plan.{key}: 'auto' needs {need}")
            node[key] = body.dim if key == "n" else getattr(body.growth, key)
    return _plan_inputs(node, "config.plan"), body


def resolve_run(cfg: RunConfig, plan_path: Optional[str] = None,
                task: Optional[str] = None) -> tuple:
    """(PlanInputs, Body-or-None, Plan) for a command.

    The schedule is read from the plan document at plan_path when one is
    given, else planned from the config's plan section.  A task names a
    command that cannot run without a body.
    """
    if task is not None and cfg.body_node is None:
        raise ConfigError(f"config.body: required to {task}")
    if plan_path is None:
        where, p = "config.plan", None
        inputs, body = resolve_plan_inputs(cfg)
    else:
        doc = f"plan document {plan_path}"
        inputs, p = read_plan_document(_load_json(plan_path, "plan document"), doc)
        where = f"{doc}.inputs"
        body = build_body(cfg.body_node)
    if body is not None and inputs.n != body.dim:
        raise ConfigError(
            f"{where}.n: {inputs.n} differs from the body dimension {body.dim}")
    return inputs, body, planner.plan(inputs) if p is None else p


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise OSError(f"cannot read {what} {path}: {e}") from e
    except ValueError as e:  # bad JSON or bad UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {e}") from e


# ------------------------------------------------------------ commands


def _emit(obj, path: Optional[str], what: str):
    """Print obj as a canonical document, first written to path if one is given."""
    doc = dumps_canonical(obj)
    if path is not None:
        try:
            Path(path).write_text(doc + "\n", encoding="utf-8")
        except OSError as e:
            raise OSError(f"cannot write {what} {path}: {e}") from e
    print(doc)


def plan_document(inputs: planner.PlanInputs, p: planner.Plan,
                  report) -> dict:
    return {
        "inputs": dataclasses.asdict(inputs),
        "plan": dataclasses.asdict(p),
        "consistency": {"ok": report.ok, "violations": list(report.violations)},
    }


def cmd_plan(cfg: RunConfig, out_path: Optional[str]) -> int:
    inputs, _, p = resolve_run(cfg)
    report = planner.check_plan_consistency(p, inputs)
    _emit(plan_document(inputs, p, report), out_path or None, "plan")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_sample(cfg: RunConfig, out_dir: str, seed_override: Optional[int],
               chains_override: Optional[int],
               plan_path: Optional[str]) -> int:
    _, body, p = resolve_run(cfg, plan_path, "sample")
    run = cfg.run_node
    n_chains = (run["n_chains"] if chains_override is None
                else _COUNT(chains_override, "--chains"))
    seed = run["seed"] if seed_override is None else _SEED(seed_override, "--seed")
    if run["t_cap"] is not None:
        p = dataclasses.replace(p, T=min(p.T, run["t_cap"]))
    if run["n_cap"] is not None:
        p = dataclasses.replace(p, N=min(p.N, run["n_cap"]))

    from . import sampler
    t0 = time.monotonic()
    ens = sampler.run_ensemble(
        body, lambda rng: bodies.sample_uniform(body, rng), p, n_chains, seed
    )
    wall = time.monotonic() - t0

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "samples.jsonl", "w", encoding="utf-8") as f:
            for c, res in enumerate(ens.results):
                rec = {
                    "chain": c,
                    "outcome": res.status,
                    "x": None if res.point is None else list(res.point),
                    "total_trials": res.total_trials,
                    "failed_at": res.failed_at,
                }
                f.write(dumps_canonical(rec) + "\n")
        summary = {**ens.summary, "plan": dataclasses.asdict(p), "seed": seed,
                   "all_failed": ens.summary["failure_fraction"] == 1.0}
        (out / "summary.json").write_text(
            dumps_canonical(summary) + "\n", encoding="utf-8"
        )
    except OSError as e:
        raise OSError(f"cannot write outputs under {out_dir}: {e}") from e
    print(dumps_canonical({"out": str(out), **{k: summary[k] for k in
                                               ("n_chains", "failure_fraction",
                                                "all_failed")},
                           "wall_time_s": wall}))
    return EXIT_OK


def _diagnose_checks(body: bodies.Body, p: planner.Plan, diag: dict,
                     samples: Optional[np.ndarray]) -> list:
    """The records of every applicable check, in order: the dicts a check
    returns with status "ran", or one record per name of a check that was
    skipped or whose hypotheses do not hold."""
    from . import diagnostics, sampler

    seed, n_mc, n_cells = diag["seed"], diag["n_mc"], diag["n_cells"]

    def stream(key: int) -> np.random.Generator:
        # keys: 100 + i for escape radius i, 200 for the draw above 2-D,
        # 400 + i for dilation i and 500 for grid_tv
        return sampler.make_rng(sampler.derive_seed(seed, key))

    oracle = None
    if body.dim == 2:
        try:
            oracle = diagnostics.GridOracle(body, diag["resolution"])
        except ValueError as e:  # the bitmap is empty
            raise ConfigError(f"config.body: {e} at resolution "
                              f"{diag['resolution']}") from e
    else:
        # one draw refutes a false volume claim (EmptyBodyError), as the
        # empty bitmap does in 2-D, even when every check is skipped
        bodies.sample_uniform(body, stream(200), 1)

    def bound_check(check, *args):
        """The run of a check that returns one BoundCheck."""
        return lambda: [check(*args, oracle=oracle).to_dict()]

    def grid_tv():
        if oracle is None:
            raise diagnostics.UnsupportedCheck("grid oracle is 2-D only")
        if n_cells > oracle.n_occupied:  # before drawing 5 n_cells points
            raise ValueError(f"config.diagnose.n_cells: {n_cells} is more than the "
                             f"{oracle.n_occupied} cells the body occupies at "
                             f"resolution {diag['resolution']}")
        pts, src = samples, "supplied sample file"
        if samples is None:
            pts = bodies.sample_uniform(body, stream(500), max(n_mc, 5 * n_cells))
            route = "bbox rejection" if body.shell is None else "radial draw"
            src = f"exact-uniform reference ({route})"
        tv = diagnostics.grid_tv_check(body, pts, n_cells, oracle=oracle)
        # "status" sits second, where the record keeps it
        return [{"name": "grid_tv", "status": "ran", **dataclasses.asdict(tv),
                 "note": f"samples: {src}"}]

    table = [
        *(([f"stationary_escape(r={r})"], bound_check(
            diagnostics.stationary_escape_check, body, p.h, r, n_mc, stream(100 + i)))
          for i, r in enumerate(diag["r_grid"])),
        (["stationary_failure", "expected_trials"],
         lambda: [c.to_dict() for c in diagnostics.per_iteration_checks(
             body, p, oracle=oracle)]),
        *(([f"certificate_soundness(t={t})"], bound_check(
            diagnostics.certificate_soundness_check, body, t, n_mc, stream(400 + i)))
          for i, t in enumerate(diag["t_grid"])),
        (["grid_tv"], grid_tv),
    ]
    records = []
    for names, run in table:
        try:
            records += [{**check, "status": "ran"} for check in run()]
        except (diagnostics.UnsupportedCheck, ValueError) as e:
            status = ("skipped" if isinstance(e, diagnostics.UnsupportedCheck)
                      else "hypothesis_violation")
            records += [{"name": name, "status": status, "reason": str(e)}
                        for name in names]
    return records


def _read_samples(path: str, dim: int) -> np.ndarray:
    """Points of the successful chains in a samples.jsonl file, checked."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = list(f)
    except OSError as e:
        raise OSError(f"cannot read samples {path}: {e}") from e
    except ValueError as e:  # bad UTF-8
        raise ConfigError(f"samples file {path}: {e}") from e
    pts = []
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"samples file {path} line {i}"
        try:
            rec = json.loads(line)
        except ValueError as e:
            raise ConfigError(f"{where}: not valid JSON: {e}") from e
        if not isinstance(rec, dict):
            raise ConfigError(f"{where}: expected an object")
        outcome = rec.get("outcome")
        if outcome not in ("success", "failure"):
            raise ConfigError(f"{where}: outcome must be \"success\" or \"failure\", "
                              f"got {outcome!r}")
        if outcome == "failure":
            continue
        x = rec.get("x")
        try:
            ok = len(_POINT(x, where)) == dim
        except ConfigError:
            ok = False
        if not ok:
            raise ConfigError(f"{where}: x needs {dim} finite numbers, got {x!r}")
        pts.append(x)
    if not pts:
        raise ConfigError(f"samples file {path} holds no successful chains")
    return np.asarray(pts, dtype=float)


def cmd_diagnose(cfg: RunConfig, out_path: str, seed_override: Optional[int],
                 samples_path: Optional[str]) -> int:
    _, body, p = resolve_run(cfg, task="diagnose")
    diag = dict(cfg.diagnose_node)
    if seed_override is not None:
        diag["seed"] = _SEED(seed_override, "--seed")
    if diag["h_override"] is not None:
        p = dataclasses.replace(p, h=float(diag["h_override"]))

    samples = None if samples_path is None else _read_samples(samples_path, body.dim)
    records = _diagnose_checks(body, p, diag, samples)
    env = {**{k: diag[k] for k in ("seed", "n_mc", "resolution")}, "h": p.h}
    _emit({"checks": records, "environment": env}, out_path, "report")
    from .diagnostics import SATISFIED
    # a ran record's outcome is its verdict, any other record's its status
    outcomes = {r.get("verdict", r["status"]) for r in records}
    if outcomes == {"skipped"}:
        print("diagnose: no check ran; every record is skipped", file=sys.stderr)
    ok = SATISFIED in outcomes and outcomes <= {SATISFIED, "skipped"}
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="inandout",
                                 description="In-and-Out uniform sampler toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="compute and check a run schedule")
    p_plan.add_argument("--config", required=True)
    p_plan.add_argument("--out")

    p_sample = sub.add_parser("sample", help="run an ensemble of chains")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--out", required=True)
    p_sample.add_argument("--seed", type=int)
    p_sample.add_argument("--chains", type=int)
    p_sample.add_argument("--plan", dest="plan_file")

    p_diag = sub.add_parser("diagnose", help="run the bound-check suite")
    p_diag.add_argument("--config", required=True)
    p_diag.add_argument("--out", required=True)
    p_diag.add_argument("--seed", type=int)
    p_diag.add_argument("--samples")

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(_load_json(args.config, "config"))
        if args.command == "plan":
            return cmd_plan(cfg, args.out)
        if args.command == "sample":
            return cmd_sample(cfg, args.out, args.seed, args.chains, args.plan_file)
        return cmd_diagnose(cfg, args.out, args.seed, args.samples)
    except (ConfigError, bodies.EmptyBodyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except MemoryError as e:  # e.g. a diagnose resolution or n_mc too large
        print(f"config error: out of memory: {str(e) or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_BAD_CONFIG
    except planner.PlanOverflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


def entrypoint():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
