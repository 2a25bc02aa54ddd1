"""sha256 of the files each workload's commands write, for any commit.

    mkdir -p bench/out/c && git archive <commit> src | tar -x -C bench/out/c
    python3 bench/hashes.py --src bench/out/c/src --seed 1

Runs every command of one round of each workload, for the given
benchmark seed, with the package found under --src, and prints one line
per output file: workload, the command's --seed (the diagnose command
keeps its config's seed) and the sha256 of samples.jsonl or of the
diagnose report.  summary.json is left out because it holds the
command's wall time.
"""

import argparse
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="the src/ directory of the commit")
    ap.add_argument("--seed", required=True, type=int)
    args = ap.parse_args()
    src = Path(args.src).resolve()
    if not (src / "inandout" / "__init__.py").is_file():
        run.fail(f"no package source at {src}/inandout")
    sys.path.insert(0, str(src))
    from inandout import cli

    work = run.OUT / "hashes"
    try:
        for name, wl in run.WORKLOADS.items():
            for i, seed in enumerate(run.workload_seeds(wl, args.seed)):
                cmd = run.Command(wl, work / f"{name}{i}", seed)
                code, _, shas, _ = cmd.invoke(cli)
                if code != 0:
                    run.fail(f"{name} --seed {seed} exited {code}")
                shas.pop("summary.json", None)
                for file, sha in shas.items():
                    shown = seed if wl.command == "sample" else "config"
                    print(f"{name} {shown} {file} {sha}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
