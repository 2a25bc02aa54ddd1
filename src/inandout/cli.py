"""Command-line front end.

Three subcommands share one JSON config format:

    inandout plan     --config cfg.json [--out plan.json]
    inandout sample   --config cfg.json --out outdir [--seed S] [--chains K]
                      [--plan plan.json]
    inandout diagnose --config cfg.json --out report.json [--seed S]
                      [--samples samples.jsonl]

Exit codes: 0 success / all bounds satisfied, 1 a bound or consistency
check failed, 2 invalid config, 3 I/O failure.

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

from . import bodies, diagnostics, planner, sampler

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


# ---------------------------------------------------------------- JSON


def _render(obj) -> str:
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
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_render(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    return _render(obj)


# ------------------------------------------------------------- config


def _require_keys(node: dict, allowed: set, required: set, where: str):
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(node)
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {sorted(missing)}")


_BODY_KINDS = {"ball", "box", "polytope", "union", "exclusion", "star"}


def build_body(node: dict, where: str = "body") -> bodies.Body:
    """Construct a Body from a config tree node (strict key checking)."""
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = node["kind"]
    if kind not in _BODY_KINDS:
        raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
    try:
        if kind == "ball":
            _require_keys(node, {"kind", "center", "radius"},
                          {"center", "radius"}, where)
            return bodies.make_ball(node["center"], node["radius"])
        if kind == "box":
            _require_keys(node, {"kind", "lo", "hi"}, {"lo", "hi"}, where)
            return bodies.make_box(node["lo"], node["hi"])
        if kind == "polytope":
            _require_keys(node, {"kind", "A", "b", "inner_center", "inner_radius"},
                          {"A", "b", "inner_center", "inner_radius"}, where)
            return bodies.make_halfspace_polytope(
                node["A"], node["b"], node["inner_center"], node["inner_radius"]
            )
        if kind == "union":
            _require_keys(node, {"kind", "parts", "volume"}, {"parts", "volume"}, where)
            parts = [build_body(p, f"{where}.parts[{i}]")
                     for i, p in enumerate(node["parts"])]
            return bodies.union(parts, node["volume"])
        if kind == "exclusion":
            _require_keys(node, {"kind", "outer", "hole", "volume"},
                          {"outer", "hole", "volume"}, where)
            return bodies.exclusion(
                build_body(node["outer"], f"{where}.outer"),
                build_body(node["hole"], f"{where}.hole"),
                node["volume"],
            )
        _require_keys(node, {"kind", "parts", "core_radius"},
                      {"parts", "core_radius"}, where)
        parts = [build_body(p, f"{where}.parts[{i}]")
                 for i, p in enumerate(node["parts"])]
        return bodies.star_shaped(parts, node["core_radius"])
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"{where}: {e}") from e


@dataclass
class RunConfig:
    """Parsed and validated configuration document, defaults filled in."""

    body_node: Optional[dict]
    plan_node: Optional[dict]
    run_node: dict
    diagnose_node: dict


# default and least value of each integer setting; a default of None makes
# the setting optional, a least value of None admits any integer
_RUN_INTEGERS = {"n_chains": (1, 1), "seed": (0, None),
                 "t_cap": (None, 1), "n_cap": (None, 1)}
_DIAGNOSE_INTEGERS = {"seed": (0, None), "n_mc": (20_000, 1), "inner_mc": (2_000, 1),
                      "resolution": (400, 2), "n_cells": (16, 2)}
_DIAGNOSE_NUMBERS = {"r_grid": [0.25, 0.5, 1.0], "t_grid": [0.1, 0.5, 1.0],
                     "h_override": None}


def _integer(value, where: str, least: Optional[int] = None) -> int:
    if (not isinstance(value, int) or isinstance(value, bool)
            or (least is not None and value < least)):
        need = "an integer" if least is None else f"an integer >= {least}"
        raise ConfigError(f"{where}: need {need}, got {value!r}")
    return value


def _number(value, where: str, positive: bool = True):
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not 0 <= value < math.inf or (positive and value == 0)):
        need = "a positive" if positive else "a nonnegative"
        raise ConfigError(f"{where}: need {need} number, got {value!r}")


def _settings(node, integers: dict, numbers: dict, where: str) -> dict:
    """Check a settings section's keys and integers; fill in its defaults."""
    _require_keys(node, set(integers) | set(numbers), set(), where)
    out = {**{k: default for k, (default, _) in integers.items()}, **numbers, **node}
    for key, (default, least) in integers.items():
        if out[key] is not None or default is not None:
            _integer(out[key], f"{where}.{key}", least)
    return out


def parse_config(doc: dict) -> RunConfig:
    _require_keys(doc, {"body", "plan", "run", "diagnose"}, set(), "config")
    plan_node = doc.get("plan")
    if plan_node is not None:
        _require_keys(plan_node, {"q", "eps", "M", "C_PI", "alpha", "beta", "n"},
                      {"q", "eps", "M", "C_PI"}, "config.plan")
    run_node = _settings(doc.get("run", {}), _RUN_INTEGERS, {}, "config.run")
    diag = _settings(doc.get("diagnose", {}), _DIAGNOSE_INTEGERS, _DIAGNOSE_NUMBERS,
                     "config.diagnose")
    # escape distances must be positive, dilations may be zero
    for key in ("r_grid", "t_grid"):
        if not isinstance(diag[key], list):
            raise ConfigError(f"config.diagnose.{key}: need a list, got {diag[key]!r}")
        for i, v in enumerate(diag[key]):
            _number(v, f"config.diagnose.{key}[{i}]", positive=key == "r_grid")
    if diag["h_override"] is not None:
        _number(diag["h_override"], "config.diagnose.h_override")
    return RunConfig(body_node=doc.get("body"), plan_node=plan_node,
                     run_node=run_node, diagnose_node=diag)


def resolve_plan_inputs(cfg: RunConfig) -> tuple:
    """Build (PlanInputs, Body-or-None) from the config, resolving 'auto'."""
    if cfg.plan_node is None:
        raise ConfigError("config.plan: required for this command")
    node = dict(cfg.plan_node)
    body = build_body(cfg.body_node) if cfg.body_node is not None else None

    def resolved(key):
        val = node.get(key, "auto")
        if val == "auto":
            if body is None or body.growth is None:
                raise ConfigError(
                    f"config.plan.{key}: 'auto' needs a body with a growth certificate"
                )
            return getattr(body.growth, key)
        return val

    alpha = resolved("alpha")
    beta = resolved("beta")
    n = node.get("n", "auto")
    if n == "auto":
        if body is None:
            raise ConfigError("config.plan.n: 'auto' needs a body")
        n = body.dim
    try:
        inputs = planner.PlanInputs(
            q=node["q"], eps=node["eps"], M=node["M"], C_PI=node["C_PI"],
            alpha=alpha, beta=beta, n=n,
        )
    except ValueError as e:
        raise ConfigError(f"config.plan: {e}") from e
    if body is not None and inputs.n != body.dim:
        raise ConfigError(
            f"config.plan.n: {inputs.n} differs from the body dimension {body.dim}")
    return inputs, body


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise OSError(f"cannot read {what} {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} {path} is not valid JSON: {e}") from e


# ------------------------------------------------------------ commands


def plan_document(inputs: planner.PlanInputs, p: planner.Plan,
                  report) -> dict:
    return {
        "inputs": inputs.to_dict(),
        "plan": p.to_dict(),
        "consistency": {"ok": report.ok, "violations": list(report.violations)},
    }


def cmd_plan(cfg: RunConfig, out_path: Optional[str]) -> int:
    inputs, _ = resolve_plan_inputs(cfg)
    try:
        p = planner.plan(inputs)
    except planner.PlanOverflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    report = planner.check_plan_consistency(p, inputs)
    doc = dumps_canonical(plan_document(inputs, p, report))
    if out_path:
        Path(out_path).write_text(doc + "\n", encoding="utf-8")
    print(doc)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_sample(cfg: RunConfig, out_dir: str, seed_override: Optional[int],
               chains_override: Optional[int],
               plan_path: Optional[str]) -> int:
    if plan_path is not None:
        doc = _load_json(plan_path, "plan document")
        try:
            inputs = planner.PlanInputs.from_dict(doc["inputs"])
            p = planner.Plan.from_dict(doc["plan"])
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"plan document {plan_path}: {e}") from e
        if cfg.body_node is None:
            raise ConfigError("config.body: required to sample")
        body = build_body(cfg.body_node)
    else:
        inputs, body = resolve_plan_inputs(cfg)
        if body is None:
            raise ConfigError("config.body: required to sample")
        p = planner.plan(inputs)

    run = cfg.run_node
    n_chains = (run["n_chains"] if chains_override is None
                else _integer(chains_override, "--chains", 1))
    seed = run["seed"] if seed_override is None else seed_override
    if run["t_cap"] is not None:
        p = dataclasses.replace(p, T=min(p.T, run["t_cap"]))
    if run["n_cap"] is not None:
        p = dataclasses.replace(p, N=min(p.N, run["n_cap"]))

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
        summary = {
            "n_chains": ens.summary["n_chains"],
            "failure_fraction": ens.summary["failure_fraction"],
            "mean_total_trials": ens.summary["mean_total_trials"],
            "max_total_trials": ens.summary["max_total_trials"],
            "plan": p.to_dict(),
            "seed": seed,
            "all_failed": ens.summary["failure_fraction"] == 1.0,
        }
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
                     samples: Optional[np.ndarray]) -> tuple:
    """Run every applicable check; returns (records, any_violation)."""
    seed, n_mc, n_cells = diag["seed"], diag["n_mc"], diag["n_cells"]
    oracle = None
    if body.dim == 2:
        oracle = diagnostics.GridOracle(body, diag["resolution"])

    records = []
    violated = False

    def run(names, fn):
        """Record the checks fn returns, one per name, or why none ran."""
        nonlocal violated
        try:
            checks = fn()
        except diagnostics.UnsupportedCheck as e:
            records.extend({"name": name, "status": "skipped", "reason": str(e)}
                           for name in names)
            return
        except ValueError as e:
            records.extend({"name": name, "status": "hypothesis_violation",
                            "reason": str(e)} for name in names)
            violated = True
            return
        for check in checks:
            rec = check.to_dict()
            rec["status"] = "ran"
            records.append(rec)
            if check.verdict != diagnostics.SATISFIED:
                violated = True

    for i, r in enumerate(diag["r_grid"]):
        rng = sampler.make_rng(sampler.derive_seed(seed, 100 + i))
        run([f"stationary_escape(r={r})"],
            lambda r=r, rng=rng: [diagnostics.stationary_escape_check(
                body, p.h, r, n_mc, rng, oracle=oracle)])
    rng = sampler.make_rng(sampler.derive_seed(seed, 200))
    run(["stationary_failure", "expected_trials"],
        lambda: diagnostics.per_iteration_checks(body, p, min(n_mc, 4000), rng,
                                                 inner_mc=diag["inner_mc"]))
    for i, t in enumerate(diag["t_grid"]):
        rng = sampler.make_rng(sampler.derive_seed(seed, 400 + i))
        run([f"certificate_soundness(t={t})"],
            lambda t=t, rng=rng: [diagnostics.certificate_soundness_check(
                body, t, n_mc, rng, oracle=oracle)])

    if body.dim != 2:
        records.append({"name": "grid_tv", "status": "skipped",
                        "reason": "grid oracle is 2-D only"})
    else:
        rng = sampler.make_rng(sampler.derive_seed(seed, 500))
        if samples is None:
            pts = bodies.sample_uniform(body, rng, max(n_mc, 5 * n_cells))
            src = "exact-uniform reference (bbox rejection)"
        else:
            pts = samples
            src = "supplied sample file"
        try:
            tv = diagnostics.grid_tv_check(body, pts, n_cells, oracle=oracle)
            ok = tv.p_value >= 0.01
            records.append({
                "name": "grid_tv",
                "status": "ran",
                "tv_estimate": tv.tv_estimate,
                "chi2_statistic": tv.chi2_statistic,
                "p_value": tv.p_value,
                "n_cells": tv.n_cells,
                "n_samples": tv.n_samples,
                "verdict": diagnostics.SATISFIED if ok else diagnostics.VIOLATED,
                "note": f"samples: {src}",
            })
            if not ok:
                violated = True
        except ValueError as e:
            records.append({"name": "grid_tv", "status": "hypothesis_violation",
                            "reason": str(e)})
            violated = True
    return records, violated


def cmd_diagnose(cfg: RunConfig, out_path: str, seed_override: Optional[int],
                 samples_path: Optional[str]) -> int:
    inputs, body = resolve_plan_inputs(cfg)
    if body is None:
        raise ConfigError("config.body: required to diagnose")
    p = planner.plan(inputs)
    diag = dict(cfg.diagnose_node)
    if seed_override is not None:
        diag["seed"] = seed_override
    if diag["h_override"] is not None:
        p = dataclasses.replace(p, h=float(diag["h_override"]))

    samples = None
    if samples_path is not None:
        pts = []
        try:
            with open(samples_path, "r", encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    if rec.get("outcome") == "success" and rec.get("x") is not None:
                        pts.append(rec["x"])
        except OSError as e:
            raise OSError(f"cannot read samples {samples_path}: {e}") from e
        if not pts:
            raise ConfigError(f"samples file {samples_path} holds no successful chains")
        samples = np.asarray(pts, dtype=float)

    records, violated = _diagnose_checks(body, p, diag, samples)
    report = {
        "checks": records,
        "environment": {
            **{k: diag[k] for k in ("seed", "n_mc", "inner_mc", "resolution")},
            "h": p.h,
        },
    }
    doc = dumps_canonical(report)
    try:
        Path(out_path).write_text(doc + "\n", encoding="utf-8")
    except OSError as e:
        raise OSError(f"cannot write report {out_path}: {e}") from e
    print(doc)
    return EXIT_CHECK_FAILED if violated else EXIT_OK


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
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
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
