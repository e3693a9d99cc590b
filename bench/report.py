"""Every metric of every workload, with its unit, in one command.

Usage (from the root of a checkout):

    python3 bench/report.py [--seed N] [--seconds S] [--out FILE]

S defaults to run_seconds of BENCHMARK.json.

Runs bench/run.py on each workload, untraced and traced, prints its
metric lines, and optionally writes the result objects to FILE as JSON
(for example to keep a baseline).  Exits 1 when any output fails its check
or any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description="run every workload and print every metric")
    ap.add_argument("--seed", type=int, default=1)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--out", type=Path)
    a = ap.parse_args()
    results, status = {}, 0
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(trace)]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if p.returncode != 0:
                print(f"{w} trace={trace}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                status = 1
            if lines and lines[-1].startswith("{"):
                results[f"{w}/trace{trace}"] = json.loads(lines[-1])
    if a.out:
        a.out.write_text(json.dumps({"seed": a.seed, "seconds": a.seconds, "python": sys.version,
                                     "results": results}, indent=2) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
