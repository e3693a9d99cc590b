"""Benchmark of the dualcycles command line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {large_rank,oracle_box,request_mix}
                         --seed N --seconds S --trace {0,1}

Runs passes over the workload's seeded request list, each pass in a
fresh process (worker.py), one request at a time: as many passes as fit
in S seconds when the workloads were fixed (workloads.PASS_S).  Prints
every metric with its unit, then, as the last line, one JSON object: the
end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1.  Exits 1 when an output fails its check, and 2 without a
result when the checkout holds no program.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

LIMIT_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 15
SUBCOMMANDS = ("graph", "validate", "fundamental", "invariants", "classify", "oracle", "verify-rdp")
LAYERS = {  # per-layer metric -> (span name, "s" for time or "calls" for a count)
    "builders.build_s": ("builders.build", "s"),
    "builders.parse_s": ("builders.parse", "s"),
    "builders.validate_s": ("builders.validate", "s"),
    "builders.validate_calls": ("builders.validate", "calls"),
    "invariants.fundamental_cycle_s": ("invariants.fundamental_cycle", "s"),
    "invariants.entry_s": ("invariants.entry", "s"),
    "invariants.entry_calls": ("invariants.entry", "calls"),
    "classify.enumerate_special_s": ("classify.enumerate_special", "s"),
    "classify.enumerate_ulrich_s": ("classify.enumerate_ulrich", "s"),
    "classify.box_search_s": ("classify.box_search", "s"),
    "classify.pointwise_s": ("classify.pointwise", "s"),
    "classify.pointwise_calls": ("classify.pointwise", "calls"),
}
COUNTS = ("workload.graphs", "workload.vertices", "classify.cycles_out",
          "classify.chain_steps_out", "cli.bytes_out")


class BenchError(Exception):
    pass


def worker(a, mode: str, work: Path, started: float, check: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
           "--seed", str(a.seed), "--mode", mode, "--work", str(work), "--check", str(int(check))]
    left = LIMIT_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("out of time before the pass could start")
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not end within the run's time limit") from None
    if p.returncode != 0:
        raise BenchError(f"{mode} pass failed (exit {p.returncode}):\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.splitlines()[-1])


def med(values) -> float:
    return statistics.median(values)


def tail(lat_ms: list[float]) -> dict | None:
    """Highest of p99/p95/p90 with at least ten requests beyond it."""
    s = sorted(lat_ms)
    for p in (99, 95, 90):
        rank = math.ceil(p / 100 * len(s))
        if len(s) - rank >= 10:
            return {"pct": p, "value": s[rank - 1], "beyond": len(s) - rank}
    return None


class Passes:
    """The cli passes of one run.

    The first pass checks every output; later passes must reproduce its
    outputs byte for byte.  A request's latency is the lowest of its
    timings over the passes (see README.md, "Noise").  A request that
    ran into its deadline in any pass counts as failed, and its time,
    which is the deadline's, is left out of every time metric.
    """

    def __init__(self, cli: list[dict]):
        first = cli[0]
        self.n = len(first["lat_ms"])
        self.passes = len(cli)
        timed_out = set().union(*(p["timeouts"] for p in cli))
        self.timed = [i for i in range(self.n) if i not in timed_out]
        self.best = [min(p["lat_ms"][i] for p in cli) for i in self.timed]
        self.subs = [first["subs"][i] for i in self.timed]
        self.counts = first["counts"]
        self.rss = med(p["peak_rss_mb"] for p in cli)
        self.failures = list(first["failures"])
        failed_first = {f["index"] for f in first["failures"]}
        self.failed = len(first["failures"])
        for k, p in enumerate(cli[1:], start=2):
            for i, (d0, d) in enumerate(zip(first["digests"], p["digests"])):
                if d != d0:
                    self.failures.append({"index": i, "key": f"request {i} in pass {k}",
                                          "reason": "output differs from the first pass",
                                          "defect": None})
                self.failed += d != d0 or i in failed_first

    @property
    def attempted(self) -> int:
        return self.n * self.passes

    @property
    def wall_s(self) -> float:
        return sum(self.best) / 1000

    def sub_ms(self, sub: str) -> float:
        lat = [ms for ms, s in zip(self.best, self.subs) if s == sub]
        return med(lat) if lat else 0.0


def end_to_end(cli: Passes, setup: list[float]) -> dict:
    return {
        "setup_s": (min(setup), "s"),
        "wall_s": (cli.wall_s, "s"),
        "req_p50_ms": (med(cli.best), "ms"),
        "peak_rss_mb": (cli.rss, "MB"),
    }


def self_s(cli: Passes, on: list[dict]) -> float:
    """Request latency minus the replayed work spans of the same request,
    both the lowest over their passes, summed over the requests."""
    work = [min(p["work_ms"][i] for p in on) for i in cli.timed]
    return (sum(cli.best) - sum(work)) / 1000


def per_layer(cli: Passes, on: list[dict], off: list[dict]) -> dict:
    m = {}
    for name, (span, kind) in LAYERS.items():
        field = "layer_s" if kind == "s" else "calls"
        m[name] = (med(p[field].get(span, 0) for p in on), "s" if kind == "s" else "count")
    m["classify.box_cycles"] = (med(p["box_cycles"] for p in on), "count")
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_ms"] = (cli.sub_ms(sub), "ms")
    m["cli.self_s"] = (self_s(cli, on), "s")
    for name in COUNTS:
        m[name] = (cli.counts[name], "bytes" if name == "cli.bytes_out" else "count")
    m["trace.overhead_s"] = (med(p["wall_s"] for p in on) - med(p["wall_s"] for p in off), "s")
    return m


def notes(cli: Passes, on: list[dict]) -> list[str]:
    """Lines beyond the metrics: failures, tail latency and layer shares."""
    lines = [f"ops_failed_frac {cli.failed / cli.attempted:.6g} ({cli.failed} of "
             f"{cli.attempted} requests, {cli.n} a pass, {cli.passes} passes)"]
    if len(cli.timed) < cli.n:
        lines.append(f"{cli.n - len(cli.timed)} request(s) ran into the deadline; "
                     "their time is left out of the time metrics")
    t = tail(cli.best)
    if t:
        lines.append(f"req_tail_ms {t['value']:.6g} ms (p{t['pct']} of {cli.n} requests, "
                     f"{t['beyond']} beyond it)")
    else:
        lines.append(f"req_tail_ms omitted: {cli.n} requests leave fewer than 10 beyond p90")
    for f in cli.failures:
        tag = f"known defect, {f['defect']}" if f["defect"] else "UNEXPECTED"
        lines.append(f"failed {f['key']}: {f['reason']} ({tag})")
    if on:
        layer = {k: med(p["layer_s"].get(k, 0) for p in on) for k in on[0]["layer_s"]}
        for k, v in sorted(layer.items(), key=lambda kv: -kv[1]):
            lines.append(f"share of wall_s {k} {v / cli.wall_s:.3f}")
        lines.append(f"share of wall_s cli.self {self_s(cli, on) / cli.wall_s:.3f}")
    return lines


def run(a) -> int:
    if not (ROOT / "src" / "dualcycles" / "__init__.py").is_file():
        print(f"no program under {ROOT / 'src'}: nothing to measure", file=sys.stderr)
        return 2
    started = time.monotonic()
    base = ROOT / ".bench_work"
    work = base / f"run-{a.workload}-{a.seed}"
    passes: dict[str, list[dict]] = {"cli": [], "replay": [], "replay-off": []}
    kinds = ["cli", "replay", "replay-off"] if a.trace else ["cli"]
    rounds = max(1, int(a.seconds // (workloads.PASS_S[a.workload] * len(kinds))))
    try:
        for r in range(rounds):
            for mode in kinds if r % 2 == 0 else kinds[:1] + kinds[:0:-1]:
                check = mode == "cli" and not passes["cli"]
                passes[mode].append(worker(a, mode, work, started, check))
        setup = [p["setup_s"] for ps in passes.values() for p in ps]
        while not a.trace and len(setup) < SETUP_SAMPLES:
            setup.append(worker(a, "setup", work, started)["setup_s"])
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()

    cli = Passes(passes["cli"])
    if a.trace:
        metrics = per_layer(cli, passes["replay"], passes["replay-off"])
    else:
        metrics = end_to_end(cli, setup)
    correct = all(f["defect"] for f in cli.failures)

    for name, (value, unit) in metrics.items():
        print(f"{a.workload} {name} {value:.6g} {unit}")
    for line in notes(cli, passes["replay"]):
        print(f"{a.workload} {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": cli.attempted,
        "failed": cli.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
