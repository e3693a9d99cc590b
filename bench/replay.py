"""Traced replay of each request's library calls.

A request is replayed through the public names of ``dualcycles`` in the
order its subcommand makes them, with a span around each call.  Spans
are kept in memory by the ``Tracer`` and summed when the pass ends.

Each span has a share:

- ``work``: the CLI request does this work, once, in this call or in the
  call this one stands for.  ``fundamental_cycle`` is replayed before the
  call that would run Laufer's loop internally; the result is cached, so
  the loop moves out of that call and into its own span.
- ``repeat``: the call re-does work the CLI request does inside another
  call, to time that layer alone: the explicit ``validate`` before a
  classifying or oracle call (whose own internal validation stays inside
  its span) and the invariants of each output cycle after a
  classification.

``cli.self_s`` subtracts only ``work`` spans from the request latency.
Every library call the CLI makes has a span, except ``serialize_graph``
on graph requests, which ``dualcycles`` does not export; its time counts
as ``cli`` time.  ``lattice.direct`` spans the lattice calls the
``invariants`` subcommand makes itself; it has no metric of its own.
"""

from __future__ import annotations

import time
from pathlib import Path

import dualcycles as dc

ENTRY = (dc.colength, dc.multiplicity, dc.min_gens, dc.u_invariant, dc.special_module_indices)


class Tracer:
    """Spans (request, name, share, seconds) of one pass, kept in memory."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[tuple] = []
        self.rid = 0

    def call(self, name, share, fn, *args):
        if not self.on:
            return fn(*args)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.rid, name, share, time.perf_counter() - t0))


def build(tr: Tracer, spec: tuple):
    if spec[0] == "ade":
        return tr.call("builders.build", "work", dc.build_ade, spec[1], spec[2])
    if spec[0] == "cyclic":
        return tr.call("builders.build", "work", dc.build_cyclic, spec[1], spec[2])
    text = Path(spec[1]).read_text(encoding="utf-8")
    return tr.call("builders.parse", "work", dc.parse_graph, text)


def z0(tr: Tracer, req, g) -> None:
    if req.z0_defined:
        tr.call("invariants.fundamental_cycle", "work", dc.fundamental_cycle, g)


def entries(tr: Tracer, g, cycles, share: str) -> None:
    for z in cycles:
        for fn in ENTRY:
            tr.call("invariants.entry", share, fn, g, z)


def classify(tr: Tracer, req, g, special: bool, ulrich: bool, max_colength) -> list:
    z0(tr, req, g)
    tr.call("builders.validate", "repeat", dc.validate, g)
    out = []
    if special:
        m = max_colength or 10 * g.vertex_count
        out += tr.call("classify.enumerate_special", "work", dc.enumerate_special, g, m)
    if ulrich:
        out += tr.call("classify.enumerate_ulrich", "work", dc.enumerate_ulrich, g)
    entries(tr, g, [e.cycle for e in out], "repeat")
    return out


def oracle(tr: Tracer, req, g, bound: int) -> int:
    """oracle_classify, call by call; returns the number of box cycles."""
    z0(tr, req, g)
    tr.call("builders.validate", "repeat", dc.validate, g)
    cycles = tr.call("classify.box_search", "work", dc.brute_force_anti_nef, g, bound)
    for test in (dc.is_special_cycle, dc.is_ulrich_cycle):
        for z in cycles:
            tr.call("classify.pointwise", "work", test, g, z)
    return len(cycles)


def invariants(tr: Tracer, req, g, cycle) -> None:
    if cycle is None:
        return
    z = tr.call("lattice.direct", "work", g.check_cycle, cycle)
    if any(a < 0 for a in z) or not tr.call("lattice.direct", "work", dc.is_anti_nef, g, z):
        return
    z0(tr, req, g)
    tr.call("invariants.filtration", "work", dc.filtration, g, z)
    tr.call("lattice.direct", "work", dc.virtual_genus, g, z)
    entries(tr, g, [z], "work")


def replay(tr: Tracer, req) -> int:
    """Replay one request; returns the number of oracle box cycles."""
    call = req.call
    if call is None:
        return 0
    op = call["op"]
    if op == "verify-rdp":
        g = build(tr, req.graph)
        classify(tr, req, g, False, True, None)
        for table in (dc.golden_table, dc.expected_ulrich_count):
            tr.call("classify.golden_table", "work", table, req.graph[1], req.graph[2])
        build(tr, req.graph)
        return 0
    g = build(tr, req.graph)
    if op == "validate":
        z0(tr, req, g)
        tr.call("builders.validate", "work", dc.validate, g)
    elif op == "fundamental":
        support = call["support"]
        tr.call("invariants.fundamental_cycle", "work", dc.fundamental_cycle, g,
                None if support is None else frozenset(support))
    elif op == "invariants":
        invariants(tr, req, g, call["cycle"])
    elif op == "classify":
        classify(tr, req, g, call["special"], call["ulrich"], call["max_colength"])
    elif op == "oracle":
        return oracle(tr, req, g, call["bound"])
    return 0
