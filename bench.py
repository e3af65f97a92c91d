"""Record the benchmark's numbers in BENCH_<n>.json.

    python3 bench.py 1                   write BENCH_1.json
    python3 bench.py 1 --seconds 8       shorter end-to-end runs

Run from the root of a checkout.  Each of the four workloads of
BENCHMARK.json runs once end to end (`--trace 0`) and once traced
(`--trace 1`) through `perfbench/run.py`, each in its own process.  The
file keeps, per run, the runner's `# machine:` record and its JSON result
line, with `git rev-parse HEAD` and the arguments.  Every BENCH file comes
from this script, so two of them compare field by field.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "decompose", "verify", "cli")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The machine record and the result of one run of the runner."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    machine = next(line for line in lines if line.startswith("# machine: "))
    return {"machine": json.loads(machine.removeprefix("# machine: ")),
            "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("n", type=int, help="the file's number: BENCH_<n>.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of each end-to-end run's timed region")
    args = p.parse_args(argv)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    runs = {w: {"end_to_end": run(w, args.seed, args.seconds, 0),
                "traced": run(w, args.seed, args.seconds, 1)} for w in WORKLOADS}
    doc = {"commit": commit, "seed": args.seed, "seconds": args.seconds, "runs": runs}
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
