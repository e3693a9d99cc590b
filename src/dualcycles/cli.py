"""Command-line surface.

Subcommands build or load a dual graph, validate it, compute invariants
of a cycle, classify special/Ulrich cycles, run the brute-force oracle,
and verify the ADE golden tables.  Output is a plain table by default or
a schema-stable JSON document with ``--format json``.  Exit codes:
0 success, 1 validation failure (or a request that runs out of memory
or recursion depth, or whose output cannot be written), 2 parse/usage
error, 3 verification mismatch.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

from . import __version__
from .builders import (GraphFormatError, build_ade, build_cyclic, check_digits, parse_graph,
                       serialize_graph)
from .classify import BoxLimitError, ClassificationEntry, _classify, oracle_classify, verify_rdp
from .invariants import (
    CycleError,
    Filtration,
    InvalidGraphError,
    _filtration,
    _pointwise,
    fundamental_cycle,
    validate,
)
from .lattice import Cycle, DualGraph

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3


def _filtration_dict(f: Filtration) -> dict:
    return {"base": f.base, "steps": [{"increment": y, "cycle": z} for y, z in f.steps]}


def _render_graph(g: DualGraph) -> list[str]:
    rows = ["graph:\n"]
    for i, w in enumerate(g.weights):
        nbrs = " ".join(f"E{j + 1}" for j in g.neighbors(i)) or "-"
        rows.append(f"  E{i + 1} ({w}): {nbrs}\n")
    return rows


def _render_cycle(z: Cycle, marked: frozenset[int] = frozenset()) -> str:
    parts = list(map(str, z))
    for i in marked:
        parts[i] += "*"
    return " ".join(parts)


def _render_entries(entries: list[ClassificationEntry]) -> list[str]:
    """The table lines of ``entries``."""
    return [
        f"  {_render_cycle(e.cycle, e.module_indices):<30}"
        f" colength={e.colength} mult={e.multiplicity}"
        f" min_gens={e.min_gens} kind={e.kind}\n"
        for e in entries
    ]


def _render_cycles(cycles: list[Cycle]) -> list[str]:
    """The table lines of ``cycles``."""
    return [f"  {_render_cycle(z)}\n" for z in cycles]


def _render_lists(g: DualGraph, special, ulrich, render) -> list[str]:
    """The table form of a list command: the graph's rows, then a titled
    block of ``render``'s lines for each list that is not None.  A
    ``ulrich`` list equal to the ``special`` list writes its lines again,
    rendered once."""
    pieces = _render_graph(g)
    lines = [] if special is None else render(special)
    for name, items in (("special", special), ("ulrich", ulrich)):
        if items is not None:
            pieces.append(f"{name} cycles ({len(items)}):\n")
            pieces += lines if items == special else render(items)
    return pieces


def _int_list(text: str, name: str) -> tuple[int, ...]:
    """The integers of the comma-separated option ``name``, each of at
    most MAX_DIGITS digits."""
    parts = text.split(",")
    for p in parts:
        check_digits(p, f"a {name} entry")
    try:
        return tuple(map(int, parts))
    except ValueError:
        raise GraphFormatError(f"{name} {text!r} is not a comma-separated integer list")


def _integer(flag: str):
    """``int`` for the option ``flag``, refusing text of more than
    MAX_DIGITS digits (``check_digits``) with OverflowError.  ``_scan``
    leaves such an argv to the top parser, and argparse, which turns a
    ValueError of ``type`` into its usage block with an echo of the
    value, passes any other error on: ``main`` refuses it with one
    ``error:`` line."""
    def read(text: str) -> int:
        try:
            check_digits(text, flag)
        except GraphFormatError as e:
            raise OverflowError(e) from None
        return int(text)

    read.__name__ = "int"  # argparse's "invalid int value" names the type
    return read


def _resolve_graph(args) -> DualGraph:
    # graph ade|cyclic|load set one source
    graph, family, index, n, q = map(vars(args).get, ("graph", "family", "index", "n", "q"))
    ade = family is not None or index is not None
    cyclic = n is not None or q is not None
    if (graph is not None) + ade + cyclic > 1:
        raise GraphFormatError("choose one graph source: --graph, --family/--index or --n/--q")
    if graph is not None:
        with open(graph, encoding="utf-8") as fh:  # no utf-8-sig: it loads a codec module
            return parse_graph(fh.read().removeprefix("\ufeff"))
    if ade:
        if family is None or index is None:
            raise GraphFormatError("--family and --index go together")
        return build_ade(family, index)
    if cyclic:
        if n is None or q is None:
            raise GraphFormatError("--n and --q go together")
        return build_cyclic(n, q)
    raise GraphFormatError("no graph given: use --graph, --family/--index or --n/--q")


def _opt(flag: str, group=None, dest=None, **kw) -> tuple:
    """A row of an option table: flag ('' for a positional), dest, group
    (None, a title or ``_EXCLUSIVE``) and ``add_argument``'s keywords."""
    return flag, dest or flag[2:].replace("-", "_"), group, kw


_EXCLUSIVE = "exclusive"  # the mutually exclusive group
_SOURCE = "graph source (choose one)"
_GRAPH_SOURCE = [
    _opt("--graph", _SOURCE, metavar="FILE", help="load graph from a text file"),
    _opt("--family", _SOURCE, choices=list("ADEade"), help="ADE family"),
    _opt("--index", _SOURCE, type=_integer("--index"), help="ADE index n"),
    _opt("--n", _SOURCE, type=_integer("--n"), help="cyclic quotient order n"),
    _opt("--q", _SOURCE, type=_integer("--q"), help="cyclic quotient parameter q"),
]


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``_top_parser().parse_args(argv)`` gives a well-formed
    argv, read off the option tables: ``[--format table|json] <subcommand>
    ...``, exact options each given once as ``--opt value`` or
    ``--opt=value``, values that ``type`` converts or ``choices`` holds,
    and the required options.  None for any other argv."""
    head = 2 if argv[:1] == ["--format"] and argv[1:2] in (["table"], ["json"]) else 0
    try:
        ns = {"format": argv[1] if head else "table", "command": argv[head]}
        scan, rest = _SCAN[argv[head]], argv[head + 1:]
        if type(scan) is dict:  # graph, then one of its own subcommands
            ns["graph_command"], scan, rest = rest[0], scan[rest[0]], rest[1:]
        defaults, table, required, exclusive = scan
        ns.update(defaults)
        table, tokens = table.copy(), iter(rest)
        for tok in tokens:
            flag, eq, value = tok.partition("=") if tok[:1] == "-" else ("", "=", tok)
            _, dest, group, kw = table.pop(flag)  # a repeat is not found
            if group == _EXCLUSIVE:  # nor the rest of its group
                for f in exclusive:
                    table.pop(f, None)
            if "action" in kw:  # store_true
                value = None if eq else True
            elif not eq:  # argparse may read a "-" token as an option
                value = next(tokens, "-")
                value = None if value[:1] == "-" else value
            if value in (None, "--") or "choices" in kw and value not in kw["choices"]:
                return None  # argparse drops "--" from "--opt=--"
            ns[dest] = kw["type"](value) if "type" in kw else value
    except (IndexError, KeyError, ValueError, OverflowError):
        return None
    return None if not required.isdisjoint(table) else SimpleNamespace(**ns)


def _scan_table(rows) -> tuple:
    """What ``_scan`` reads of an option table, built once: its defaults,
    its rows by flag, its required flags ('' for a positional) and its
    exclusive flags."""
    return ({dest: False if "action" in kw else None for _, dest, _, kw in rows},
            {row[0]: row for row in rows},
            frozenset(flag for flag, _, _, kw in rows if not flag or "required" in kw),
            tuple(flag for flag, _, group, _ in rows if group == _EXCLUSIVE))


@functools.cache
def _top_parser():
    """The whole parser, built from the option tables for the argvs that
    ``_scan`` does not read (help, errors, abbreviations, ``--`` and the
    like): the one place argparse is imported."""
    import argparse

    def add(p, rows) -> None:
        if type(rows) is dict:  # graph's own subcommands
            sub = p.add_subparsers(dest="graph_command", required=True)
            for name, sub_rows in rows.items():
                add(sub.add_parser(name), sub_rows)
            return
        groups = {None: p, _SOURCE: p.add_argument_group(_SOURCE)}  # hidden when empty
        for flag, dest, group, kw in rows:
            if group not in groups:  # an empty exclusive group breaks usage
                groups[group] = p.add_mutually_exclusive_group()
            groups[group].add_argument(flag or dest, **kw)

    top = argparse.ArgumentParser(prog="dualcycles", description=(
        "classify Ulrich and special cycles on resolution dual graphs"))
    top.add_argument("--format", choices=["table", "json"], default="table")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (text, rows, _) in _SUBCOMMANDS.items():
        add(sub.add_parser(name, help=text), rows)
    return top


def _parse(argv: list[str]):
    """``argv`` parsed as ``_top_parser().parse_args`` parses it.  A
    well-formed argv is read by ``_scan`` and builds no parser; any other
    goes to the top parser, so usage, help, errors and exit statuses are
    argparse's own.  An option whose value argparse reads as a list, as
    3.10-3.12.1 read ``--opt=--`` (3.13 hands over the string ``--``), is
    refused here through the top parser's ``error``, naming the option.
    OverflowError on an integer option of more than MAX_DIGITS digits
    (``_integer``)."""
    ns = _scan(argv)
    if ns is None:
        ns = _top_parser().parse_args(argv)
        for dest in (d for d, value in vars(ns).items() if type(value) is list):
            _top_parser().error(f"argument --{dest.replace('_', '-')}: expected one argument")
    return ns


class _IntText(dict):
    """``str(k)`` of each int k.  One table serves every document of the
    process (``_INT_TEXT``), whose many integers take few values: the text
    of an int in -1024..1023 is built the first time it is looked up and
    kept, so the table holds at most 2,048 texts; any other int is
    formatted on each lookup and not kept."""

    def __missing__(self, k: int) -> str:
        text = str(k)
        if -1024 <= k < 1024:
            self[k] = text
        return text


_INT_TEXT = _IntText()


def _ints(v, pad: str, fmt) -> str:
    """``json.dumps`` of a sequence of ints indented at ``pad``, each item's
    text ``fmt(item)``: an ``_IntText`` table's ``__getitem__``, or ``str``
    for items that are text already."""
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(map(fmt, v))}{pad}]" if v else "[]"


def _int_rows(rows, pad: str, fmt) -> str:
    """``json.dumps`` of a list of int sequences indented at ``pad``."""
    return _ints([_ints(r, pad + "  ", fmt) for r in rows], pad, str)  # str() keeps each row's text


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


def _listing(entries, steps: dict[int, str]) -> list[str]:
    """The pieces of one entry list of ``_classify_chunks``, each chain
    step's text looked up in, or added to, ``steps``."""
    fmt, pieces = _INT_TEXT.__getitem__, []
    base = entries and _ints(entries[0].chain.base, "\n          ", fmt)  # every chain's Z_0
    for k, e in enumerate(entries):
        chain = e.chain.steps
        pieces.append(_ENTRY % (",\n      " if k else "[\n      ",
                                _ints(e.cycle, "\n        ", fmt),
                                e.colength, e.multiplicity, e.min_gens,
                                _ints(sorted(i + 1 for i in e.module_indices), "\n        ", fmt),
                                base, "[\n            " if chain else "[]"))
        for j, pair in enumerate(chain):
            if id(pair) not in steps:
                steps[id(pair)] = _STEP % (_ints(pair[0], "\n              ", fmt),
                                           _ints(pair[1], "\n              ", fmt))
            pieces += (",\n            ", steps[id(pair)]) if j else (steps[id(pair)],)
        pieces.append(_ENTRY_END % ("\n          ]" if chain else "", e.kind))
    return pieces + ["\n    ]"] if entries else ["[]"]


def _classify_chunks(special, ulrich) -> list[str]:
    """The pieces of a classify document's ``results`` at depth 1: a key
    for each list that is not None, and in it each entry from the
    ``_ENTRY`` template.  Each distinct chain step's text is built once
    from ``_STEP`` (keyed on the identity of the walk's step pair, which
    every chain through it shares and which outlives this call) and is
    its own piece wherever a chain holds it.  A ``ulrich`` list equal to
    the ``special`` list repeats its pieces.  Every integer's text comes
    from the process's ``_IntText`` table."""
    steps: dict[int, str] = {}
    pieces = ['{\n    "special": ', *_listing(special, steps)] if special is not None else []
    if ulrich is not None:
        key = ("," if pieces else "{") + '\n    "ulrich": '
        pieces += [key, *(pieces[1:] if ulrich == special else _listing(ulrich, steps))]
    return pieces + ["\n  }"]


# json.dumps(doc, indent=2) of a document up to its results, for the
# command, the vertex count, the weights' digits and the edges.
_HEAD = """{
  "tool": {
    "name": "dualcycles",
    "version": """ + f'"{__version__}"' + """
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


def _emit(command: str, g: DualGraph, results: dict | tuple) -> list[str]:
    """The pieces of the JSON document of a command: ``tool``,
    ``command``, the ``graph`` (vertex count, weights, sorted 1-based
    edges) and ``results``.

    The text is ``json.dumps(doc, indent=2)`` plus a newline, byte for
    byte.  The head and the documents whose size grows with their output
    come from templates: classify's pair of entry lists is built in
    pieces (``_classify_chunks``) and the oracle's ``results`` from
    ``_ORACLE``, with one text for its two lists when they are equal.
    Every other ``results`` dict is ``json.dumps``'s own text, indented
    one level: json.dumps escapes every newline inside a string, so each
    newline it writes is a line break.
    """
    edges = ",\n      ".join([_EDGE % (i + 1, j + 1) for i, j in sorted(g.edges)])
    head = _HEAD % (command, g.vertex_count, ",\n      ".join(map(str, g.weights)),
                    "[\n      " + edges + "\n    ]" if edges else "[]")
    if command == "classify":
        return [head, *_classify_chunks(*results), "\n}\n"]
    if command == "oracle":
        fmt, special, ulrich = _INT_TEXT.__getitem__, results["special"], results["ulrich"]
        text = _int_rows(special, "\n    ", fmt)
        body = _ORACLE % (results["bound"], text,
                          text if ulrich == special else _int_rows(ulrich, "\n    ", fmt))
    else:
        import json  # only these documents need it

        body = json.dumps(results, indent=2).replace("\n", "\n  ")
    return [head, body, "\n}\n"]


# Each handler takes the parsed arguments and the graph, and returns its
# exit code and the pieces of its whole stdout, which ``main`` writes.
def _cmd_graph(args, g) -> tuple[int, list[str]]:
    text = serialize_graph(g)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format == "json":
        return EXIT_OK, _emit("graph", g, {"text": text})
    return EXIT_OK, [text] if args.out is None else []


def _cmd_validate(args, g) -> tuple[int, list[str]]:
    rep = validate(g)
    results = dict(zip(rep._fields, rep[:7]))  # the verdicts, then the failures
    code = EXIT_OK if rep.ok else EXIT_VALIDATION
    if args.format == "json":
        return code, _emit("validate", g, results)
    for f in rep.failures:
        print(f"finding: {f}", file=sys.stderr)
    return code, _render_graph(g) + [f"  {key}: {results[key]}\n" for key in list(results)[:-1]]


def _cmd_fundamental(args, g) -> tuple[int, list[str]]:
    z = fundamental_cycle(g, None if args.support is None else
                          frozenset(i - 1 for i in _int_list(args.support, "support")))
    if args.format == "json":
        return EXIT_OK, _emit("fundamental", g, {"cycle": z})
    return EXIT_OK, [_render_cycle(z) + "\n"]


def _cmd_invariants(args, g) -> tuple[int, list[str]]:
    z, rep, inv = _pointwise(g, _int_list(args.cycle, "cycle"))
    results = dict(
        cycle=z, virtual_genus=1 - inv.colength, colength=inv.colength,
        multiplicity=inv.multiplicity, min_gens=inv.min_gens, u_invariant=inv.u,
        special_module_indices=sorted(i + 1 for i in inv.indices),
    )
    if args.format == "json":
        # One step per multiple of Z_0 below Z: built only when printed.
        results["filtration"] = _filtration_dict(_filtration(z, rep.z0))
        return EXIT_OK, _emit("invariants", g, results)
    return EXIT_OK, [f"  {key}: {results[key]}\n" for key in list(results)[1:]]  # all but the cycle


def _cmd_classify(args, g) -> tuple[int, list[str]]:
    special, ulrich = _classify(g, args.max_colength, not args.ulrich, not args.special)
    if args.format == "json":
        return EXIT_OK, _emit("classify", g, (special, ulrich))
    return EXIT_OK, _render_lists(g, special, ulrich, _render_entries)


def _cmd_oracle(args, g) -> tuple[int, list[str]]:
    special, ulrich = oracle_classify(g, args.bound)
    if args.format == "json":
        results = {"bound": args.bound, "special": special, "ulrich": ulrich}
        return EXIT_OK, _emit("oracle", g, results)
    return EXIT_OK, _render_lists(g, special, ulrich, _render_cycles)


def _cmd_verify_rdp(args, g) -> tuple[int, list[str]]:
    rep = verify_rdp(args.family, args.index)
    results = dict(
        family=rep.family, index=rep.index, matched=rep.matched,
        expected_count=rep.expected_count, actual_count=len(rep.actual),
        expected=[{"cycle": z, "colength": c} for z, c in rep.expected],
        actual=[{"cycle": z, "colength": c} for z, c in rep.actual],
        missing=rep.missing, extra=rep.extra, colength_mismatches=[
            {"cycle": z, "expected": a, "actual": b} for z, a, b in rep.colength_mismatches],
    )
    code = EXIT_OK if rep.matched else EXIT_MISMATCH
    if args.format == "json":
        return code, _emit("verify-rdp", g, results)
    for z in rep.missing:  # empty when the tables match
        print(f"missing: {_render_cycle(z)}", file=sys.stderr)
    for z in rep.extra:
        print(f"extra: {_render_cycle(z)}", file=sys.stderr)
    for z, a, b in rep.colength_mismatches:
        print(f"colength mismatch at {_render_cycle(z)}: expected {a}, got {b}", file=sys.stderr)
    verdict = "match" if rep.matched else "MISMATCH"
    return code, [f"{rep.family}{rep.index}: {verdict}, "
                  f"{len(rep.actual)} cycles (expected {rep.expected_count})\n",
                  *(f"  {_render_cycle(z)}  colength={c}\n" for z, c in rep.actual)]


# Each subcommand's help line, option table (graph: one per subcommand of
# its own) and handler, in the order of the usage text.
_FAMILY = _opt("--family", choices=list("ADEade"), required=True)
_INDEX = _opt("--index", type=_integer("--index"), required=True)
_OUT = _opt("--out", metavar="FILE")
_SUBCOMMANDS = {
    "graph": ("build or load a graph and print it", {
        "ade": [_FAMILY, _INDEX, _OUT],
        "cyclic": [*(_opt(flag, type=_integer(flag), required=True) for flag in ("--n", "--q")),
                   _OUT],
        "load": [_opt("", dest="graph", metavar="FILE"), _OUT]}, _cmd_graph),
    "validate": ("structural report on a graph", _GRAPH_SOURCE, _cmd_validate),
    "fundamental": ("fundamental cycle (optionally on a sub-support)", _GRAPH_SOURCE + [
        _opt("--support", metavar="i,j,...", help="1-based vertex list")], _cmd_fundamental),
    "invariants": ("invariants of one anti-nef cycle", _GRAPH_SOURCE + [
        _opt("--cycle", metavar="a1,a2,...", required=True)], _cmd_invariants),
    "classify": ("enumerate special and/or Ulrich cycles", _GRAPH_SOURCE + [
        _opt("--special", _EXCLUSIVE, action="store_true"),
        _opt("--ulrich", _EXCLUSIVE, action="store_true"),
        _opt("--max-colength", type=_integer("--max-colength"))], _cmd_classify),
    "oracle": ("brute-force classification up to bound * Z0", _GRAPH_SOURCE + [
        _opt("--bound", type=_integer("--bound"), required=True)], _cmd_oracle),
    "verify-rdp": ("diff enumerated Ulrich cycles against the ADE table", [_FAMILY, _INDEX],
                   _cmd_verify_rdp),
}
_SCAN = {name: {sub: _scan_table(r) for sub, r in rows.items()} if type(rows) is dict
         else _scan_table(rows) for name, (_, rows, _) in _SUBCOMMANDS.items()}


def main(argv: list[str] | None = None, out=None) -> int:
    """Run one request and return its exit code.  Handlers raise typed
    errors; every ``error:`` line and failure exit code is chosen here.
    The request's whole stdout is built before any of it is written, in
    one ``writelines`` call: a request that fails writes nothing to
    ``out``."""
    out, pieces = out or sys.stdout, None
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code, pieces = _SUBCOMMANDS[args.command][2](args, _resolve_graph(args))
        out.writelines(pieces)
        out.flush()  # a closed pipe or a full disk fails here, not at exit
        return code
    except SystemExit as e:  # argparse's usage, help and version
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except (CycleError, InvalidGraphError, BoxLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GraphFormatError, ValueError, OverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        # OverflowError: an integer option of too many digits (``_integer``).
        # A failed write of the output (a closed pipe, a full disk) is not
        # a usage error: the request parsed and ran.
        return EXIT_USAGE if pieces is None else EXIT_VALIDATION
    except (MemoryError, RecursionError) as e:  # the last resort, no traceback
        name = type(e).__name__
        print(f"error: {name}: the request is too large for this process", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
