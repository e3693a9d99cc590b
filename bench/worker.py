"""One pass over a workload's request list, in a fresh process.

Usage: worker.py --workload W --seed N --mode {cli,replay,replay-off,setup}
                 --work DIR [--check {0,1}]

Modes:
  cli         run every request through dualcycles.cli.main and time it;
              then digest every output and, with --check 1, check it
              against its expected outcome;
  replay      replay every request's library calls with spans (replay.py);
  replay-off  the same replay without spans, for the tracing overhead;
  setup       stop after set-up (import and input generation).

Prints one JSON object on stdout.  The program's module-level caches
live as long as the process, so every pass needs its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import signal
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

import expect as ex
import workloads

ROOT = Path(__file__).resolve().parent.parent


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI cannot swallow it."""


def on_alarm(signum, frame):
    raise RequestTimeout


def timed(deadline: float, fn, *args):
    """(seconds, outcome, value): outcome is 'ok', 'timeout' or 'raised X'."""
    signal.setitimer(signal.ITIMER_REAL, deadline)
    t0 = time.perf_counter()
    value, outcome = None, "ok"
    try:
        value = fn(*args)
    except RequestTimeout:
        outcome = "timeout"
    except Exception as e:  # noqa: BLE001 - a failed request is recorded, not fatal
        outcome = f"raised {type(e).__name__}"
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, outcome, value


def verdict(req, outcome, code, out: str, err: str, lookup) -> str | None:
    """None when the request met its expected outcome, else the reason."""
    if outcome != "ok":
        return outcome
    if code != req.exit:
        return f"exit {code}, expected {req.exit}"
    try:
        if req.check is not None:
            req.check(out, err, lookup)
    except ex.Mismatch as m:
        return str(m)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        return f"malformed output: {type(e).__name__}: {e}"
    return None


def judge(reqs, results) -> tuple[list[dict], dict]:
    """Failures and deterministic counts of one pass.

    ``results[i]`` is (outcome, exit code, stdout, stderr) of ``reqs[i]``.
    """
    by_key = {r.key: i for i, r in enumerate(reqs)}

    def lookup(key):
        return results[by_key[key]][2]

    graphs = {(r.g.weights, tuple(r.g.edges)) for r in reqs if r.g is not None and r.exit == 0}
    c = {"workload.graphs": len(graphs), "workload.vertices": sum(len(w) for w, _ in graphs),
         "classify.cycles_out": 0, "classify.chain_steps_out": 0,
         "cli.bytes_out": sum(len(out.encode()) for _, _, out, _ in results)}
    failures = []
    for i, (req, (outcome, code, out, err)) in enumerate(zip(reqs, results)):
        reason = verdict(req, outcome, code, out, err, lookup)
        if reason is not None:
            failures.append({"index": i, "key": req.key, "reason": reason, "defect": req.defect})
        elif req.sub in ("classify", "oracle", "verify-rdp") and out.startswith("{"):
            res = workloads.parse_doc(out)["results"]
            for kind in ("special", "ulrich", "actual"):
                for item in res.get(kind, []):
                    c["classify.cycles_out"] += 1
                    if "chain" in item:
                        c["classify.chain_steps_out"] += len(item["chain"]["steps"])
    return failures, c


def run_cli(reqs, deadline: float, work: Path, check: bool) -> dict:
    from dualcycles import cli

    spill = work / "outputs.txt"
    lat, meta = [], []
    with open(spill, "w", encoding="utf-8") as fh:
        for req in reqs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stderr(err):
                dt, outcome, code = timed(deadline, cli.main, list(req.argv), out)
            text = out.getvalue()
            fh.write(text)
            lat.append(dt * 1000)
            meta.append((outcome, code, len(text), err.getvalue()))
    result = {"lat_ms": lat, "subs": [r.sub for r in reqs],
              "timeouts": [i for i, m in enumerate(meta) if m[0] == "timeout"],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    results = []
    with open(spill, encoding="utf-8") as fh:
        for outcome, code, n, err in meta:
            results.append((outcome, code, fh.read(n), err))
    result["digests"] = [
        hashlib.sha1(f"{outcome}|{code}|{out}|{err}".encode()).hexdigest()
        for outcome, code, out, err in results
    ]
    if check:
        result["failures"], result["counts"] = judge(reqs, results)
    return result


def run_replay(reqs, deadline: float, on: bool) -> dict:
    import replay

    tr = replay.Tracer(on)
    wall, box_cycles = 0.0, 0
    for rid, req in enumerate(reqs):
        tr.rid, mark = rid, len(tr.spans)
        dt, outcome, n = timed(deadline, replay.replay, tr, req)
        if outcome == "timeout":  # the deadline's time, not the program's
            del tr.spans[mark:]
            continue
        wall += dt
        box_cycles += n or 0
    layer_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work_ms = [0.0] * len(reqs)
    for rid, name, share, seconds in tr.spans:
        layer_s[name] = layer_s.get(name, 0.0) + seconds
        calls[name] = calls.get(name, 0) + 1
        if share == "work":
            work_ms[rid] += seconds * 1000
    return {"wall_s": wall, "layer_s": layer_s, "calls": calls, "work_ms": work_ms,
            "box_cycles": box_cycles}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("cli", "replay", "replay-off", "setup"), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1,
                    help="check outputs (otherwise only digest them)")
    a = ap.parse_args()
    signal.signal(signal.SIGALRM, on_alarm)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import dualcycles
    import dualcycles.cli  # noqa: F401 - the CLI is part of what a user imports

    if not Path(dualcycles.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dualcycles imported from {dualcycles.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    reqs = workloads.generate(a.workload, a.seed, a.work)
    result = {"mode": a.mode, "setup_s": time.perf_counter() - t0}

    deadline = workloads.DEADLINE[a.workload]
    if a.mode == "cli":
        result.update(run_cli(reqs, deadline, a.work, bool(a.check)))
    elif a.mode != "setup":
        result.update(run_replay(reqs, deadline, a.mode == "replay"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
