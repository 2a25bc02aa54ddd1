"""Benchmark of `inandout sample` and `inandout diagnose`.

    python3 bench/run.py --workload annulus-sample --seed 1 --seconds 36 --trace 0

Runs the workload's CLI command in-process through `cli.main`, over and
over for `--seconds` seconds, checks every output against values
computed apart from the program (bench/checks.py), and prints one JSON
line with the end-to-end metrics (`--trace 0`) or the per-layer
metrics (`--trace 1`).  The package is imported from `src/` of the
checkout this file sits in; without it the benchmark exits 2.  A side
file with the machine, every repetition's time and the sha256 of every
output file goes to bench/out/runs/, and traced runs also write their
spans to bench/out/traces/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import micro
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CONFIGS = HERE / "configs"


@dataclasses.dataclass(frozen=True)
class Workload:
    command: str   # "sample" or "diagnose"
    config: str    # file in bench/configs
    shape: str     # key of checks.SHAPES
    chains: int    # --chains of each sample command
    seeds: int     # distinct --seed values per round

    def load_config(self) -> dict:
        return json.loads((CONFIGS / self.config).read_text())


# annulus.json is the README's annulus config; ball10.json is the 10-D
# unit ball with its planned h and the same T and N caps.  A sample
# command's cost depends on its seed through the in-step's heavy tail,
# so each round runs several seeds and wall_s is the median command.
# The diagnose command's work does not depend on its seed, and on about
# 1% of seeds its grid TV test rejects exact-uniform reference points,
# so it keeps the config's own seed (7).
WORKLOADS = {
    "annulus-sample": Workload("sample", "annulus.json", "annulus", chains=5, seeds=20),
    "ball10-sample": Workload("sample", "ball10.json", "ball10", chains=10, seeds=18),
    "annulus-diagnose": Workload("diagnose", "annulus.json", "annulus", chains=0, seeds=1),
}
MIN_ROUNDS = 2      # repetitions must agree byte for byte
SETUP_PROBES = 6    # fresh interpreters for setup_s, two per round from the first


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "inandout" / "__init__.py").is_file():
        fail(f"no package source at {SRC}/inandout; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import inandout
    if Path(inandout.__file__).resolve().parent != (SRC / "inandout").resolve():
        fail(f"imported inandout from {inandout.__file__}, not from {SRC}")
    return inandout


# --------------------------------------------------------------- machine


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        model = next((line.split(":", 1)[1].strip() for line in f
                      if line.startswith("model name")), model)
    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


# -------------------------------------------------------------- commands


class Command:
    """One CLI invocation of a workload, with the files it writes."""

    def __init__(self, wl: Workload, out: Path, seed: int):
        self.wl, self.seed = wl, seed
        config_path = CONFIGS / wl.config
        if wl.command == "sample":
            self.argv = ["sample", "--config", str(config_path), "--out", str(out),
                         "--seed", str(seed), "--chains", str(wl.chains)]
            self.files = [out / "samples.jsonl", out / "summary.json"]
        else:
            out.mkdir(parents=True, exist_ok=True)
            self.argv = ["diagnose", "--config", str(config_path),
                         "--out", str(out / "report.json")]
            self.files = [out / "report.json"]

    def invoke(self, cli) -> tuple:
        """(exit code, seconds, {file: sha256}, digest of the deterministic bytes)."""
        with contextlib.redirect_stdout(io.StringIO()):
            t = time.perf_counter()
            code = cli.main(self.argv)
            dt = time.perf_counter() - t
        if code != 0:
            return code, dt, {}, None
        shas = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in self.files}
        digest = dict(shas)
        if self.wl.command == "sample":
            # summary.json carries wall_time_s, the one field that differs
            summary = json.loads(self.files[1].read_text())
            summary.pop("wall_time_s", None)
            digest["summary.json"] = json.dumps(summary, sort_keys=True)
        return code, dt, shas, digest

    def problems(self, checks) -> list:
        """Output checks of this command's files."""
        if self.wl.command == "diagnose":
            report = json.loads(self.files[0].read_text())
            d = self.wl.load_config()["diagnose"]
            return checks.check_diagnose_annulus(report, d["r_grid"], d["t_grid"])
        return checks.check_samples(self.wl.shape, self.records(), self.wl.chains, self.T)

    def records(self) -> list:
        with open(self.files[0], encoding="utf-8") as f:
            return [json.loads(line) for line in f]

    @property
    def T(self) -> int:
        from checks import shape_plan
        return min(shape_plan(self.wl.shape)["T"], self.wl.load_config()["run"]["t_cap"])


def workload_seeds(wl: Workload, seed: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(wl.seeds)]


def setup_probe(config: str) -> dict:
    """setup_s and import_s of one fresh interpreter."""
    start = time.monotonic()
    res = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                          str(CONFIGS / config)], capture_output=True, text=True,
                         timeout=120, check=False)
    if res.returncode != 0:
        fail(f"setup probe failed: {res.stderr.strip()}")
    probe = json.loads(res.stdout)
    return {"setup_s": probe["done"] - start, "import_s": probe["import_s"]}


# ------------------------------------------------------------------ runs


def measure(pkg, commands: list, log: list, digests: dict, rounds=None,
            seconds: float = 0.0, probes: list = None) -> list:
    """Whole rounds over the commands; returns their times.

    Runs `rounds` rounds, or else rounds while the next one is expected
    to end within `seconds` (at least MIN_ROUNDS).  Set-up probes, when
    asked for, run two at the start of each round until there are
    SETUP_PROBES, so that they sample the same stretch of machine time
    as the commands.  Every invocation goes
    to log, and its output digest must equal the first one seen for its
    seed (kept in digests).
    """
    times = []
    start = time.monotonic()
    done = 0
    while True:
        elapsed = time.monotonic() - start
        if rounds is not None and done == rounds:
            break
        if rounds is None and done >= MIN_ROUNDS and elapsed * (done + 1) / done > seconds:
            break
        while probes is not None and len(probes) < min(SETUP_PROBES, 2 * (done + 1)):
            probes.append(setup_probe(commands[0].wl.config))
        for cmd in commands:
            code, dt, shas, digest = cmd.invoke(pkg.cli)
            same = digest is not None and digests.setdefault(cmd.seed, digest) == digest
            log.append({"round": done, "seed": cmd.seed, "seconds": dt, "exit": code,
                        "sha256": shas, "ok": code == 0 and same})
            times.append(dt)
        done += 1
    return times


def run_untraced(pkg, wl, commands, seconds, side) -> dict:
    log, probes = side["invocations"], side["setup"]
    times = measure(pkg, commands, log, {}, seconds=seconds, probes=probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # imported only now: SciPy's stats and integrate would count in peak_rss_mb
    import checks
    problems = output_problems(checks, wl, commands)
    bad_seeds = {seed for seed, _ in problems}
    side["problems"] = [p for _, p in problems]
    # the first invocation pays lazy set-up (imports, allocator growth)
    return {
        "attempted": len(log),
        "failed": sum(1 for e in log if not e["ok"] or e["seed"] in bad_seeds),
        "metrics": {
            "wall_s": (statistics.median(times[1:]), "s"),
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def output_problems(checks, wl, commands) -> list:
    """(seed, problem) pairs; a pooled uniformity failure blames every seed."""
    problems = []
    for cmd in commands:
        if cmd.files[0].is_file():
            problems += [(cmd.seed, p) for p in cmd.problems(checks)]
    if wl.command == "sample":
        n = checks.SHAPES[wl.shape]["n"]
        pts = [checks.success_points(c.records(), n) for c in commands if c.files[0].is_file()]
        for p in checks.check_uniform(wl.shape, np.concatenate(pts) if pts else np.empty((0, n))):
            problems += [(c.seed, p) for c in commands]
    return problems


def run_traced(pkg, wl, commands, side, workdir) -> dict:
    """One untraced and one traced round of the workload, then a traced
    round of the companion workload, the microbenchmarks and the probes."""
    import checks

    side["setup"] = [setup_probe(wl.config) for _ in range(3)]
    log, digests = side["invocations"], {}
    measure(pkg, commands[:1], log, digests, rounds=1)  # warm-up
    untraced = measure(pkg, commands, log, digests, rounds=1)

    # the layer the workload does not use is traced on a round of the
    # companion workload, so every traced run reports every layer
    owl = WORKLOADS["annulus-diagnose" if wl.command == "sample" else "annulus-sample"]
    companion = [Command(owl, workdir / f"companion{i}", s)
                 for i, s in enumerate(workload_seeds(owl, side["seed"]))]

    tracers, traced = {}, []
    for kind, cmds in ((wl.command, commands), (owl.command, companion)):
        tracer = tracers[kind] = tracing.Tracer()
        undo = tracing.install(tracer, pkg)
        try:
            for cmd in cmds:
                code, dt, shas, digest = cmd.invoke(pkg.cli)
                ok = code == 0 and (cmd not in commands or digest == digests[cmd.seed])
                log.append({"round": "traced", "seed": cmd.seed, "seconds": dt, "exit": code,
                            "sha256": shas, "ok": ok, "command": cmd.argv[0]})
                if cmd in commands:
                    traced.append(dt)
        finally:
            undo()

    problems = [] if all(e["ok"] for e in log) else [
        "a command failed or tracing changed its outputs"]
    problems += [p for _, p in output_problems(checks, wl, commands)]
    problems += [p for _, p in output_problems(checks, owl, companion)]

    tr = tracers[wl.command]
    metrics = {
        "trace.overhead_s": (sum(traced) - sum(untraced), "s"),
        "bodies.membership_calls": (tr.membership_calls, "count"),
        "bodies.membership_points": (tr.membership_points, "count"),
        "cli.write_outputs_ms": (1e3 * write_outputs_s(tr), "ms"),
    }
    scmd = commands[0] if wl.command == "sample" else companion[0]
    sm, first_hit_problems = sampler_metrics(checks, tracers["sample"], scmd)
    problems += first_hit_problems
    metrics.update(sm)
    metrics.update(diagnostics_metrics(tracers["diagnose"]))
    metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in side["setup"]), "s")
    metrics.update(micro.run(pkg, WORKLOADS["annulus-sample"].load_config()))

    OUT.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_file = OUT / "traces" / f"{side['name']}.json"
    trace_file.write_text(json.dumps({k: v.to_json() for k, v in tracers.items()}))
    side["trace_file"] = str(trace_file.relative_to(ROOT))
    side["problems"] = problems
    return {"attempted": len(log), "failed": len(log) if problems else 0, "metrics": metrics}


def write_outputs_s(tr) -> float:
    """Mean time per command in cmd_* after its last compute span:
    serialisation and file writes."""
    gaps = []
    for cmd in (s for s in tr.spans if s[1] in ("cmd_sample", "cmd_diagnose")):
        last = max(s[3] for s in tr.spans if s[4] == cmd[0] and s[1] != "dumps_canonical")
        gaps.append(cmd[3] - last)
    return statistics.fmean(gaps)


def sampler_metrics(checks, tr, cmd) -> tuple:
    hist = tr.attempts
    iters = sum(hist.values())
    ordered = sorted(hist.items())
    cum, p99 = 0, None
    for k, c in ordered:
        cum += c
        if p99 is None and cum >= 0.99 * iters:
            p99 = k
    problems, share = checks.check_first_hit(
        cmd.wl.shape, checks.shape_plan(cmd.wl.shape)["h"], tr.per_chain)
    metrics = {
        "sampler.chain_iter_us": (1e6 * tr.total("run_ensemble")[1] / iters, "us"),
        "sampler.outstep_s": (tr.total("forward_step")[1], "s"),
        "sampler.instep_s": (tr.total("backward_step")[1], "s"),
        "sampler.warm_start_s": (tr.total("sample_uniform", parent="run_ensemble")[1], "s"),
        "sampler.trials_per_iter_mean": (sum(k * c for k, c in ordered) / iters, "count"),
        "sampler.trials_per_iter_p99": (p99, "count"),
        "sampler.trials_per_iter_max": (ordered[-1][0], "count"),
        "sampler.straggler_iters": (sum(c for k, c in ordered if k > 4), "count"),
        "sampler.first_hit_share": (share, "ratio"),
    }
    return metrics, problems


def diagnostics_metrics(tr) -> dict:
    top = [tr.total(name, parent="cmd_diagnose") for name in tracing.DIAGNOSTIC_SPANS]
    return {
        "diagnostics.grid_oracle_s": (tr.total("GridOracle")[1], "s"),
        "diagnostics.escape_s": (tr.total("stationary_escape_check")[1], "s"),
        "diagnostics.failure_s": (tr.total("stationary_failure_check")[1], "s"),
        "diagnostics.trials_s": (tr.total("expected_trials_check")[1], "s"),
        "diagnostics.certificate_s": (tr.total("certificate_soundness_check")[1], "s"),
        "diagnostics.grid_tv_s": (tr.total("grid_tv_check")[1], "s"),
        "diagnostics.conductance_points": (
            tr.total("membership", parent="smoothed_conductance_samples")[3], "count"),
        "diagnostics.membership_points": (sum(t[3] for t in top), "count"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be non-negative")

    pkg = import_package()
    wl = WORKLOADS[args.workload]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / name
    workdir.mkdir(parents=True, exist_ok=True)
    side = {"name": name, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "machine": machine(),
            "setup": [], "invocations": []}
    try:
        commands = [Command(wl, workdir / f"out{i}", s)
                    for i, s in enumerate(workload_seeds(wl, args.seed))]
        if args.trace:
            result = run_traced(pkg, wl, commands, side, workdir)
        else:
            result = run_untraced(pkg, wl, commands, args.seconds, side)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not side["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    side["result"] = result
    OUT.joinpath("runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{name}.json").write_text(json.dumps(side, indent=1))
    for p in side["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
