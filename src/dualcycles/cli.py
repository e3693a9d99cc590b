"""Command-line surface.

Subcommands build or load a dual graph, validate it, compute invariants
of a cycle, classify special/Ulrich cycles, run the brute-force oracle,
and verify the ADE golden tables.  Output is a plain table by default or
a schema-stable JSON document with ``--format json``.  Exit codes:
0 success, 1 validation failure (or a request that runs out of memory
or recursion depth), 2 parse/usage error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .builders import GraphFormatError, build_ade, build_cyclic, parse_graph
from .classify import (
    BoxLimitError,
    ChainDepthError,
    ClassificationEntry,
    InvalidGraphError,
    _classify,
    oracle_classify,
    verify_rdp,
)
from .invariants import (
    Filtration,
    _filtration,
    _graph_record,
    _pointwise,
    fundamental_cycle,
    validate,
)
from .lattice import Cycle, CycleError, DualGraph, pairing_vector

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3


def serialize_graph(g: DualGraph) -> str:
    """Emit the graph text format (round-trips through parse_graph)."""
    lines = [f"vertices {g.vertex_count}"]
    for i, w in enumerate(g.weights):
        if w != -2:
            lines.append(f"weight {i + 1} {w}")
    for i, j in sorted(g.edges):
        lines.append(f"edge {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def _filtration_dict(f: Filtration) -> dict:
    return {"base": f.base, "steps": [{"increment": y, "cycle": z} for y, z in f.steps]}


def _render_graph(g: DualGraph, out) -> None:
    rows = ["graph:\n"]
    for i, w in enumerate(g.weights):
        nbrs = " ".join(f"E{j + 1}" for j in g.neighbors(i)) or "-"
        rows.append(f"  E{i + 1} ({w}): {nbrs}\n")
    out.write("".join(rows))


def _render_cycle(z: Cycle, marked: frozenset[int] = frozenset()) -> str:
    parts = list(map(str, z))
    for i in marked:
        parts[i] += "*"
    return " ".join(parts)


def _render_entries(entries: list[ClassificationEntry]) -> str:
    """The table lines of ``entries``, one string."""
    return "".join(
        f"  {_render_cycle(e.cycle, e.module_indices):<30}"
        f" colength={e.colength} mult={e.multiplicity}"
        f" min_gens={e.min_gens} kind={e.kind}\n"
        for e in entries
    )


def _int_list(text: str, name: str) -> tuple[int, ...]:
    """The integers of the comma-separated option ``name``."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise GraphFormatError(f"{name} {text!r} is not a comma-separated integer list")


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("graph source (choose one)")
    src.add_argument("--graph", metavar="FILE", help="load graph from a text file")
    src.add_argument("--family", choices=list("ADEade"), help="ADE family")
    src.add_argument("--index", type=int, help="ADE index n")
    src.add_argument("--n", type=int, help="cyclic quotient order n")
    src.add_argument("--q", type=int, help="cyclic quotient parameter q")


def _resolve_graph(args) -> DualGraph:
    ade = args.family is not None or args.index is not None
    cyclic = args.n is not None or args.q is not None
    if (args.graph is not None) + ade + cyclic > 1:
        raise GraphFormatError("choose one graph source: --graph, --family/--index or --n/--q")
    if args.graph is not None:
        with open(args.graph, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    if ade:
        if args.family is None or args.index is None:
            raise GraphFormatError("--family and --index go together")
        return build_ade(args.family, args.index)
    if cyclic:
        if args.n is None or args.q is None:
            raise GraphFormatError("--n and --q go together")
        return build_cyclic(args.n, args.q)
    raise GraphFormatError("no graph given: use --graph, --family/--index or --n/--q")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommand parsers by name, built on
    the first ``main`` call and reused.

    Building it costs far more than parsing a small request, so each
    process builds it once.  Reuse is safe: ``parse_args`` returns a fresh
    namespace each call, no default is mutable, and usage errors and
    ``--version`` write to whatever ``sys.stderr``/``sys.stdout`` is
    current at call time.
    """
    top = argparse.ArgumentParser(
        prog="dualcycles",
        description="classify Ulrich and special cycles on resolution dual graphs",
    )
    top.add_argument("--format", choices=["table", "json"], default="table")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="build or load a graph and print it")
    # Each subcommand sets its own source; _resolve_graph reads them all.
    graph.set_defaults(graph=None, family=None, index=None, n=None, q=None)
    gsub = graph.add_subparsers(dest="graph_command", required=True)
    g_ade = gsub.add_parser("ade")
    g_ade.add_argument("--family", choices=list("ADEade"), required=True)
    g_ade.add_argument("--index", type=int, required=True)
    g_ade.add_argument("--out", metavar="FILE")
    g_cyc = gsub.add_parser("cyclic")
    g_cyc.add_argument("--n", type=int, required=True)
    g_cyc.add_argument("--q", type=int, required=True)
    g_cyc.add_argument("--out", metavar="FILE")
    g_load = gsub.add_parser("load")
    g_load.add_argument("graph", metavar="FILE")
    g_load.add_argument("--out", metavar="FILE")

    p = sub.add_parser("validate", help="structural report on a graph")
    _add_graph_source(p)

    p = sub.add_parser("fundamental", help="fundamental cycle (optionally on a sub-support)")
    _add_graph_source(p)
    p.add_argument("--support", metavar="i,j,...", help="1-based vertex list")

    p = sub.add_parser("invariants", help="invariants of one anti-nef cycle")
    _add_graph_source(p)
    p.add_argument("--cycle", metavar="a1,a2,...", required=True)

    p = sub.add_parser("classify", help="enumerate special and/or Ulrich cycles")
    _add_graph_source(p)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--special", action="store_true")
    kind.add_argument("--ulrich", action="store_true")
    p.add_argument("--max-colength", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)

    p = sub.add_parser("oracle", help="brute-force classification up to bound * Z0")
    _add_graph_source(p)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("verify-rdp", help="diff enumerated Ulrich cycles against the ADE table")
    p.add_argument("--family", choices=list("ADEade"), required=True)
    p.add_argument("--index", type=int, required=True)

    return top, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the top parser's ``parse_args`` parses it.

    The top parser hands every argument after the subcommand to that
    subcommand's parser, so an argv ``[--format table|json] <subcommand>
    ...`` is parsed by the subcommand's parser alone, into a namespace
    that already holds ``format`` and ``command``: one scan of the argv,
    not two.  When that leaves an argument unparsed, or the argv has any
    other shape, the top parser parses it again, so every conversion,
    choice check, usage line, help text and exit status is argparse's own.
    """
    top, subs = _build_parser()
    head = 2 if argv[:1] == ["--format"] and argv[1:2] in (["table"], ["json"]) else 0
    sub = subs.get(argv[head]) if len(argv) > head else None
    if sub is not None:
        known = argparse.Namespace(format=argv[1] if head else "table", command=argv[head])
        args, unparsed = sub.parse_known_args(argv[head + 1:], known)
        if not unparsed:
            return args
    return top.parse_args(argv)


def _ints(v, pad: str) -> str:
    """``json.dumps`` of a sequence of ints indented at ``pad``."""
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(map(str, v))}{pad}]" if v else "[]"


def _int_rows(rows, pad: str) -> str:
    """``json.dumps`` of a list of int sequences indented at ``pad``."""
    return _ints([_ints(r, pad + "  ") for r in rows], pad)  # str() keeps each row's text


# json.dumps(doc, indent=2) of one ClassificationEntry in a classify
# document, after its separator, up to its chain's first step and after
# its last one; and of one chain step.
_ENTRY = """%s{
        "cycle": %s,
        "colength": %d,
        "multiplicity": %d,
        "min_gens": %d,
        "module_indices": %s,
        "chain": {
          "base": %s,
          "steps": %s"""
_ENTRY_END = """%s
        },
        "kind": "%s"
      }"""
_STEP = """{
              "increment": %s,
              "cycle": %s
            }"""


def _classify_chunks(special, ulrich) -> list[str]:
    """The pieces of a classify document's ``results`` at depth 1: a key
    for each list that is not None, and in it each entry from the
    ``_ENTRY`` template.  Each distinct chain step's text is built once
    from ``_STEP`` (keyed on the identity of the walk's step pair, which
    every chain through it shares and which outlives this call) and is
    its own piece wherever a chain holds it.  A ``ulrich`` list that is
    the ``special`` list repeats its pieces."""
    steps: dict[int, str] = {}

    def listing(entries) -> list[str]:
        pieces = []
        base = entries and _ints(entries[0].chain.base, "\n          ")  # every chain's Z_0
        for k, e in enumerate(entries):
            chain = e.chain.steps
            pieces.append(_ENTRY % (",\n      " if k else "[\n      ", _ints(e.cycle, "\n        "),
                                    e.colength, e.multiplicity, e.min_gens,
                                    _ints(sorted(i + 1 for i in e.module_indices), "\n        "),
                                    base, "[\n            " if chain else "[]"))
            for j, pair in enumerate(chain):
                if id(pair) not in steps:
                    steps[id(pair)] = _STEP % (_ints(pair[0], "\n              "),
                                               _ints(pair[1], "\n              "))
                pieces += (",\n            ", steps[id(pair)]) if j else (steps[id(pair)],)
            pieces.append(_ENTRY_END % ("\n          ]" if chain else "", e.kind))
        return pieces + ["\n    ]"] if entries else ["[]"]

    pieces = ['{\n    "special": ', *listing(special)] if special is not None else []
    if ulrich is not None:
        key = ("," if pieces else "{") + '\n    "ulrich": '
        pieces += [key, *(pieces[1:] if ulrich is special else listing(ulrich))]
    return pieces + ["\n  }"]


# json.dumps(doc, indent=2) of a document up to its results, for the
# command, the vertex count, the weights' digits and the edges.
_HEAD = """{
  "tool": {
    "name": "dualcycles",
    "version": %s
  },
  "command": "%s",
  "graph": {
    "vertices": %d,
    "weights": [
      %s
    ],
    "edges": %s
  },
  "results": """
_EDGE = "[\n        %d,\n        %d\n      ]"

# json.dumps(doc, indent=2) of an oracle document's results, for the bound
# and the two cycle lists.
_ORACLE = """{
    "bound": %d,
    "special": %s,
    "ulrich": %s
  }"""


def _emit(command: str, g: DualGraph, results: dict | tuple, out) -> None:
    """Write the JSON document of a command: ``tool``, ``command``, the
    ``graph`` (vertex count, weights, sorted 1-based edges) and
    ``results``.

    The text is ``json.dumps(doc, indent=2)`` plus a newline, byte for
    byte.  The head and the documents whose size grows with their output
    come from templates: classify's pair of entry lists is written in
    pieces (``_classify_chunks``) and the oracle's ``results`` from
    ``_ORACLE``.  Every other ``results`` dict is ``json.dumps``'s own
    text, indented one level: json.dumps escapes every newline inside a
    string, so each newline it writes is a line break.
    """
    edges = ",\n      ".join(_EDGE % (i + 1, j + 1) for i, j in sorted(g.edges))
    out.write(_HEAD % (encode_basestring_ascii(__version__), command, g.vertex_count,
                       ",\n      ".join(map(str, g.weights)),
                       "[\n      " + edges + "\n    ]" if edges else "[]"))
    if command == "classify":
        out.writelines(_classify_chunks(*results))
    elif command == "oracle":
        out.write(_ORACLE % (results["bound"], _int_rows(results["special"], "\n    "),
                             _int_rows(results["ulrich"], "\n    ")))
    else:
        out.write(json.dumps(results, indent=2).replace("\n", "\n  "))
    out.write("\n}\n")


def _cmd_graph(args, out) -> int:
    g = _resolve_graph(args)
    text = serialize_graph(g)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format == "json":
        _emit("graph", g, {"text": text}, out)
    elif args.out is None:
        out.write(text)
    return EXIT_OK


def _cmd_validate(args, out) -> int:
    g = _resolve_graph(args)
    rep = validate(g)
    if args.format == "json":
        _emit("validate", g, rep._asdict(), out)
    else:
        _render_graph(g, out)
        for name in ("connected", "negative_definite", "tree", "rational", "gorenstein"):
            print(f"  {name}: {getattr(rep, name)}", file=out)
        print(f"  multiplicity: {rep.multiplicity}", file=out)
        for f in rep.failures:
            print(f"finding: {f}", file=sys.stderr)
    return EXIT_OK if rep.ok else EXIT_VALIDATION


def _cmd_fundamental(args, out) -> int:
    g = _resolve_graph(args)
    supp = None
    if args.support is not None:
        supp = frozenset(i - 1 for i in _int_list(args.support, "support"))
    record = _graph_record(g)
    if not record.negative_definite:
        raise InvalidGraphError("intersection matrix is not negative definite")
    z = fundamental_cycle(g, supp)
    if args.format == "json":
        _emit("fundamental", g, {"cycle": z}, out)
    else:
        print(_render_cycle(z), file=out)
    return EXIT_OK


def _cmd_invariants(args, out) -> int:
    g = _resolve_graph(args)
    z = g.check_cycle(_int_list(args.cycle, "cycle"))
    rep = validate(g)
    if not rep.ok:
        raise InvalidGraphError(f"invalid graph: {rep.failures[0]}")
    pairing = pairing_vector(g, z)
    if min(z) < 0 or max(pairing) > 0:
        raise CycleError("cycle is not anti-nef (represents no ideal)")
    record = _graph_record(g)
    inv = _pointwise(g, z, record, pairing)
    results = {
        "cycle": z,
        "virtual_genus": inv.genus,
        "colength": inv.colength,
        "multiplicity": inv.multiplicity,
        "min_gens": inv.min_gens,
        "u_invariant": inv.u,
        "special_module_indices": sorted(i + 1 for i in inv.indices),
    }
    if args.format == "json":
        # One step per multiple of Z_0 below Z: built only when printed.
        results["filtration"] = _filtration_dict(_filtration(z, record.z0))
        _emit("invariants", g, results, out)
    else:
        for key in list(results)[1:]:  # all but the cycle
            print(f"  {key}: {results[key]}", file=out)
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    g = _resolve_graph(args)
    special, ulrich = _classify(g, args.max_colength, args.max_steps,
                                not args.ulrich, not args.special)
    if args.format == "json":
        _emit("classify", g, (special, ulrich), out)
    else:
        _render_graph(g, out)
        lines = "" if special is None else _render_entries(special)
        for name, entries in (("special", special), ("ulrich", ulrich)):
            if entries is not None:
                print(f"{name} cycles ({len(entries)}):", file=out)
                # Equal lists are one object: its lines are written again.
                out.write(lines if entries is special else _render_entries(entries))
    return EXIT_OK


def _cmd_oracle(args, out) -> int:
    g = _resolve_graph(args)
    special, ulrich = oracle_classify(g, args.bound)
    results = {
        "bound": args.bound,
        "special": special,
        "ulrich": ulrich,
    }
    if args.format == "json":
        _emit("oracle", g, results, out)
    else:
        _render_graph(g, out)
        for name, cycles in (("special", special), ("ulrich", ulrich)):
            print(f"{name} cycles ({len(cycles)}):", file=out)
            for z in cycles:
                print(f"  {_render_cycle(z)}", file=out)
    return EXIT_OK


def _cmd_verify_rdp(args, out) -> int:
    rep = verify_rdp(args.family, args.index)
    results = {
        "family": rep.family,
        "index": rep.index,
        "matched": rep.matched,
        "expected_count": rep.expected_count,
        "actual_count": len(rep.actual),
        "expected": [{"cycle": z, "colength": c} for z, c in rep.expected],
        "actual": [{"cycle": z, "colength": c} for z, c in rep.actual],
        "missing": rep.missing,
        "extra": rep.extra,
        "colength_mismatches": [
            {"cycle": z, "expected": a, "actual": b}
            for z, a, b in rep.colength_mismatches
        ],
    }
    if args.format == "json":
        _emit("verify-rdp", build_ade(args.family, args.index), results, out)
    else:
        verdict = "match" if rep.matched else "MISMATCH"
        print(
            f"{rep.family}{rep.index}: {verdict}, "
            f"{len(rep.actual)} cycles (expected {rep.expected_count})",
            file=out,
        )
        for z, c in rep.actual:
            print(f"  {_render_cycle(z)}  colength={c}", file=out)
        if not rep.matched:
            for z in rep.missing:
                print(f"missing: {_render_cycle(z)}", file=sys.stderr)
            for z in rep.extra:
                print(f"extra: {_render_cycle(z)}", file=sys.stderr)
            for z, a, b in rep.colength_mismatches:
                print(
                    f"colength mismatch at {_render_cycle(z)}: expected {a}, got {b}",
                    file=sys.stderr,
                )
    return EXIT_OK if rep.matched else EXIT_MISMATCH


_DISPATCH = {
    "graph": _cmd_graph,
    "validate": _cmd_validate,
    "fundamental": _cmd_fundamental,
    "invariants": _cmd_invariants,
    "classify": _cmd_classify,
    "oracle": _cmd_oracle,
    "verify-rdp": _cmd_verify_rdp,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """Run one request and return its exit code.  Handlers raise typed
    errors; every ``error:`` line and failure exit code is chosen here."""
    out = out or sys.stdout
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.command](args, out)
    except (CycleError, InvalidGraphError, ChainDepthError, BoxLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GraphFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, RecursionError) as e:  # the last resort, no traceback
        name = type(e).__name__
        print(f"error: {name}: the request is too large for this process", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
