"""Self-test of the benchmark itself.

Usage (from the root of a checkout): python3 bench/selftest.py

1. Deterministic counts repeat exactly: two passes of seed 1, each in
   its own process, report the same counts on every workload.
2. A planted wrong document is counted as failed, and the true document
   of the same request is not.

Exits 0 when both checks hold.
"""

from __future__ import annotations

import fnmatch
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_work" / "selftest"
SEED = 1

# (request key pattern, text to replace, replacement) on the true output
# of the first request whose key matches; the text is in every document
# a matching request writes.
PLANTS = [
    ("cyclic/7/3", '"colength": 1', '"colength": 2'),
    ("cyclic/9/8", '"min_gens": 3', '"min_gens": 4'),
    ("verify/E6", '"matched": true', '"matched": false'),
    ("invariants/E7/3Z0", '"multiplicity": 18', '"multiplicity": 17'),
    ("fundamental/D5", '"cycle": [\n      1,', '"cycle": [\n      2,'),
    ("graph/cyclic/*", '"text": "vertices ', '"text": "vertices 1'),
]


def counts_repeat() -> list[str]:
    problems = []
    for w in workloads.WORKLOADS:
        seen = []
        for k in range(2):
            cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", w, "--seed", str(SEED),
                   "--mode", "cli", "--work", str(WORK / f"{w}{k}")]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            seen.append(json.loads(p.stdout.splitlines()[-1])["counts"])
        status = "repeat" if seen[0] == seen[1] else "DIFFER"
        print(f"{w}: counts {status}: {seen[0]}")
        if seen[0] != seen[1]:
            problems.append(f"{w}: counts differ between two passes of seed {SEED}")
    return problems


def planted_documents() -> list[str]:
    from dualcycles import cli

    reqs = workloads.generate("request_mix", SEED, WORK / "plant")
    picked, problems = [], []
    for pattern, old, new in PLANTS:
        req = next(r for r in reqs if fnmatch.fnmatchcase(r.key, pattern))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stderr(err):
            code = cli.main(list(req.argv), out)
        true = ("ok", code, out.getvalue(), err.getvalue())
        if old not in true[2]:
            problems.append(f"{req.key}: no {old!r} in its document to plant on")
            continue
        planted = ("ok", code, true[2].replace(old, new, 1), true[3])
        picked.append((req, true, planted))
    for req, true, planted in picked:
        failed_true, _ = worker.judge([req], [true])
        failed_planted, _ = worker.judge([req], [planted])
        wrong_exit, _ = worker.judge([req], [("ok", req.exit + 1, true[2], true[3])])
        print(f"{req.key}: true document "
              f"{'FAILED' if failed_true else 'passes'}; planted document "
              f"{failed_planted[0]['reason'] if failed_planted else 'PASSES'}")
        if failed_true:
            problems.append(f"{req.key}: true document counted as failed: {failed_true}")
        if not failed_planted:
            problems.append(f"{req.key}: planted wrong document counted as correct")
        if not wrong_exit:
            problems.append(f"{req.key}: wrong exit code counted as correct")
    return problems


def main() -> int:
    try:
        problems = planted_documents() + counts_repeat()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if WORK.parent.is_dir() and not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
