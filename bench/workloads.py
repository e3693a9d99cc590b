"""Seeded request lists for the three workloads.

Generation uses only the standard library and ``expect``: the program
receives nothing but the argv lists and the graph files written here.
A seed changes which graphs, cycles and supports appear and the order of
the requests, but not the amount of work, so that runs with different
seeds measure the same thing (see README.md).
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import expect as ex

WORKLOADS = ("large_rank", "oracle_box", "request_mix")

# Seconds one pass took on a 2-vCPU machine when these workloads were
# fixed.  A run of S seconds makes S // PASS_S passes (at least one): the
# number of passes must not depend on how fast the program or the machine
# is, because a request's latency is the lowest over the passes.
PASS_S = {"large_rank": 4.2, "oracle_box": 2.5, "request_mix": 6.0}

# Per-request deadline in seconds.  It only guards against hangs; it is
# several times the slowest legitimate request of its workload.
DEADLINE = {"large_rank": 60.0, "oracle_box": 60.0, "request_mix": 1.0}

EXIT_OK, EXIT_VALIDATION, EXIT_USAGE = 0, 1, 2

ADE_SMALL = (
    [("A", n) for n in range(1, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)]
)


@dataclass
class Request:
    """One CLI request with its expected outcome and its library replay.

    ``check(out, err, lookup)`` raises ``expect.Mismatch`` when the output
    is wrong; ``lookup(key)`` returns the parsed JSON document of another
    request of the same pass.  ``call`` names the library operation the
    replay performs (None: the request fails before reaching the library).
    """

    key: str
    sub: str
    argv: list[str]
    exit: int
    check: Callable | None = None
    graph: tuple | None = None
    call: dict | None = None
    g: ex.Graph | None = None
    defect: str | None = None
    z0_defined: bool = True  # Laufer's loop terminates on this graph


@functools.lru_cache(maxsize=1)
def parse_doc(out: str) -> dict:
    """json.loads, remembered for the document checked last (they are large)."""
    return json.loads(out)


def doc_results(out: str, command: str, g: ex.Graph | None) -> dict:
    doc = parse_doc(out)
    ex.need(doc["tool"]["name"] == "dualcycles", "document names another tool")
    ex.need(doc["command"] == command, f"document is for {doc['command']!r}")
    if g is not None:
        ex.need(doc["graph"] == g.as_doc(), "document describes another graph")
    return doc["results"]


def no_output(out: str, err: str) -> None:
    ex.need(out == "", "error path wrote to stdout")
    ex.need(err.strip() != "", "error path is silent on stderr")


def source(spec: tuple) -> list[str]:
    kind = spec[0]
    if kind == "ade":
        return ["--family", spec[1], "--index", str(spec[2])]
    if kind == "cyclic":
        return ["--n", str(spec[1]), "--q", str(spec[2])]
    return ["--graph", spec[1]]


def graph_of(spec: tuple) -> ex.Graph:
    if spec[0] == "ade":
        return ex.ade(spec[1], spec[2])
    if spec[0] == "cyclic":
        return ex.chain(ex.hj(spec[1], spec[2]))
    return spec[2]


def file_spec(work: Path, name: str, g: ex.Graph, comment: str = "") -> tuple:
    path = work / f"{name}.txt"
    path.write_text(g.text(comment), encoding="utf-8")
    return ("file", str(path), g)


# ------------------------------------------------------------ classify


def classify_call(special=True, ulrich=True, max_colength=None) -> dict:
    return {"op": "classify", "special": special, "ulrich": ulrich, "max_colength": max_colength}


def classify(key, spec, check, *, special=True, ulrich=True, max_colength=None,
             g=None) -> Request:
    argv = ["--format", "json", "classify"] + source(spec)
    if special and not ulrich:
        argv.append("--special")
    if ulrich and not special:
        argv.append("--ulrich")
    if max_colength is not None:
        argv += ["--max-colength", str(max_colength)]
    return Request(key, "classify", argv, EXIT_OK, check, spec,
                   classify_call(special, ulrich, max_colength),
                   g if g is not None else graph_of(spec))


def rdp_classify_check(g: ex.Graph, family: str, n: int):
    def check(out, err, lookup):
        res = doc_results(out, "classify", g)
        ex.check_rdp_entries(g, family, n, res["special"])
        ex.check_rdp_entries(g, family, n, res["ulrich"])
    return check


def unique_ulrich_check(g: ex.Graph):
    def check(out, err, lookup):
        res = doc_results(out, "classify", g)
        ex.need(set(res) == {"ulrich"}, "--ulrich document lists other kinds")
        ex.check_unique_ulrich(g, res["ulrich"])
    return check


def cyclic_classify(n: int, q: int) -> Request:
    spec = ("cyclic", n, q)
    g = graph_of(spec)
    if q == n - 1:  # the Gorenstein chain A_{n-1}
        return classify(f"cyclic/{n}/{q}", spec, rdp_classify_check(g, "A", n - 1), g=g)
    return classify(f"cyclic/{n}/{q}", spec, unique_ulrich_check(g), special=False, g=g)


# ---------------------------------------------------------- large_rank


def large_rank(rng: random.Random, work: Path) -> list[Request]:
    """Few requests on graphs of rank 70-100: validation and the chain walk.

    Ranks are drawn within +-1 of fixed centres so that a seed changes the
    graphs but not the O(r^4) validation work; above rank 100 one request
    runs for seconds, too long to time steadily on a shared machine.
    D_92, whose document is the largest and sets peak memory, is the same
    under every seed, and the order is fixed because peak memory also
    depends on what the heap held before.  The chains carry one -3 vertex at a seeded position,
    which takes the multiplicity-3 branch of ``enumerate_ulrich`` that
    A_n and D_n never reach.
    """
    reqs = []
    for family, centre, jitter in (("C", 70, 1), ("A", 80, 1), ("D", 92, 0), ("C", 100, 1)):
        r = centre + rng.randint(-jitter, jitter)
        if family == "C":
            bs = [2] * r
            bs[rng.randrange(r)] = 3
            n, q = ex.chain_nq(bs)
            spec = ("cyclic", n, q)
            g = graph_of(spec)
            reqs.append(classify(f"chain/{r}", spec, unique_ulrich_check(g), special=False))
        else:
            spec = ("ade", family, r)
            reqs.append(classify(f"{family}{r}", spec, rdp_classify_check(graph_of(spec), family, r)))
    return reqs


# ---------------------------------------------------------- oracle_box

ADE_BOUNDS = (4, 5, 6)
TREE_BOUNDS = (5, 6, 7, 8)
TREES = 6
TREE_BOX = (3_000, 6_000)  # range of a tree's box volume prod(b*n_i + 1)


def random_tree(rng: random.Random) -> tuple[ex.Graph, int]:
    """Rational tree of at most 8 vertices, parents numbered before children,
    with a bound b in 5-8 whose box b*Z_0 holds TREE_BOX points.

    Rejection-sampled like the acceptance suite's corpus.  Today's oracle
    visits most of the box: a box of millions of points would take longer
    than the whole pass, and like volumes keep the pass's work, and where
    the median request falls, the same under every seed.
    """
    while True:
        n = rng.randint(2, 8)
        g = ex.Graph(
            [rng.choice((-2, -2, -3, -4, -5)) for _ in range(n)],
            [(rng.randrange(i), i) for i in range(1, n)],
        )
        if not (ex.negative_definite(g) and ex.rational(g)):
            continue
        z0 = ex.fundamental(g)
        fits = [b for b in TREE_BOUNDS
                if TREE_BOX[0] <= math.prod(b * a + 1 for a in z0) <= TREE_BOX[1]]
        if fits:
            return g, rng.choice(fits)


def oracle_requests(name: str, spec, g: ex.Graph, bound: int, family=None, n=None) -> list:
    """``oracle --bound b`` and the two chain-route requests it is checked
    against, as ``chain_cycles_in_box`` in the acceptance tests does:
    ``classify --special --max-colength b*|Z_0|+1`` and ``classify --ulrich``.
    On ADE graphs all three are also checked against the golden table.
    """
    skey, ukey = f"{name}/special/{bound}", f"{name}/ulrich/{bound}"
    table = ex.golden(family, n) if family else None

    def chain_check(kind):
        def check(out, err, lookup):
            res = doc_results(out, "classify", g)
            ex.need(set(res) == {kind}, f"--{kind} document lists other kinds")
            if table:
                ex.check_rdp_entries(g, family, n, res[kind])
            for e in res[kind]:
                ex.check_chain(g, e)
        return check

    def oracle_check(out, err, lookup):
        res = doc_results(out, "oracle", g)
        if table:
            box = [bound * a for a in ex.fundamental(g)]
            inside = [list(z) for z, _ in table if ex.in_box(z, box)]
            ex.need(res["ulrich"] == inside, "oracle Ulrich cycles differ from the golden table")
            ex.need(res["special"] == inside, "RDP special cycles differ from the golden table")
        chain = {"special": doc_results(lookup(skey), "classify", g)["special"],
                 "ulrich": doc_results(lookup(ukey), "classify", g)["ulrich"]}
        ex.check_box_agreement(g, bound, res, chain)

    argv = ["--format", "json", "oracle"] + source(spec) + ["--bound", str(bound)]
    m = bound * sum(ex.fundamental(g)) + 1
    return [
        Request(f"{name}/oracle/{bound}", "oracle", argv, EXIT_OK, oracle_check, spec,
                {"op": "oracle", "bound": bound}, g),
        classify(skey, spec, chain_check("special"), ulrich=False, max_colength=m, g=g),
        classify(ukey, spec, chain_check("ulrich"), special=False, g=g),
    ]


def oracle_box(rng: random.Random, work: Path) -> list[Request]:
    """oracle --bound b with its matching chain-route requests on small graphs.

    The ADE graphs run at every bound in 4-6, because E_8 dominates the
    pass and its cost grows steeply with the bound; at bounds 7 and 8 one
    E_8 request runs for seconds, too long to time steadily on a shared
    machine.  The seed draws the random trees, their bounds in 5-8, and
    the order.  Two thirds of the
    requests are the cheap chain-route ones, so the median request is one
    of them and wall_s is the box search.
    """
    reqs = []
    for family, n in (("D", 5), ("D", 6), ("D", 7), ("D", 8), ("E", 6), ("E", 7), ("E", 8)):
        spec = ("ade", family, n)
        for b in ADE_BOUNDS:
            reqs += oracle_requests(f"{family}{n}", spec, graph_of(spec), b, family, n)
    for t in range(TREES):
        g, b = random_tree(rng)
        spec = file_spec(work, f"tree{t}", g, "seeded random rational tree")
        reqs += oracle_requests(f"tree{t}", spec, g, b)
    rng.shuffle(reqs)
    return reqs


# --------------------------------------------------------- request_mix

# ROADMAP item 3's repros.  Both graphs are outside the tool's scope, so
# the documented outcome is exit code 1; today neither request gets there.
TREE9 = ex.Graph(
    (-3, -2, -2, -2, -3, -2, -2, -2, -3),
    [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 7), (5, 6), (5, 8)],
)
STAR5 = ex.Graph((-2,) * 6, [(0, i) for i in range(1, 6)])


def validate_request(key, spec, expected: dict | None, exit=EXIT_OK, z0_defined=True) -> Request:
    g = graph_of(spec)

    def check(out, err, lookup):
        res = doc_results(out, "validate", g)
        if expected is None:  # an invalid graph: some finding must explain it
            ex.need(res["failures"], "invalid graph reported without findings")
        else:
            ex.need(res == expected, "validation report differs from the expected one")

    return Request(key, "validate", ["--format", "json", "validate"] + source(spec),
                   exit, check, spec, {"op": "validate"}, g, z0_defined=z0_defined)


def verify_request(family: str, n: int) -> Request:
    g = ex.ade(family, n)
    table = ex.golden(family, n)

    def check(out, err, lookup):
        res = doc_results(out, "verify-rdp", g)
        rows = [{"cycle": list(z), "colength": c} for z, c in table]
        ex.need(res["matched"] is True, "verify-rdp reports a mismatch")
        ex.need(res["expected"] == rows and res["actual"] == rows, "table rows differ")
        ex.need(res["expected_count"] == res["actual_count"] == ex.golden_count(family, n),
                "counts differ from the closed form")
        ex.need(not (res["missing"] or res["extra"] or res["colength_mismatches"]),
                "verify-rdp lists differences")

    argv = ["--format", "json", "verify-rdp", "--family", family, "--index", str(n)]
    return Request(f"verify/{family}{n}", "verify-rdp", argv, EXIT_OK, check,
                   ("ade", family, n), {"op": "verify-rdp"}, g)


def random_support(rng: random.Random, g: ex.Graph) -> list[int]:
    """A connected vertex set grown from a random vertex."""
    size = rng.randint(1, g.r)
    verts = {rng.randrange(g.r)}
    while len(verts) < size:
        verts.add(rng.choice([u for v in verts for u in g.nbrs[v] if u not in verts]))
    return sorted(verts)


def fundamental_request(key, spec, support=None, fmt_json=True) -> Request:
    g = graph_of(spec)
    argv = (["--format", "json"] if fmt_json else []) + ["fundamental"] + source(spec)
    if support is not None:
        argv += ["--support", ",".join(str(i + 1) for i in support)]

    def check(out, err, lookup):
        z0 = list(ex.fundamental(g, support))
        if fmt_json:
            ex.need(doc_results(out, "fundamental", g) == {"cycle": z0}, "wrong fundamental cycle")
        else:
            ex.need(out == " ".join(map(str, z0)) + "\n", "wrong fundamental cycle")

    return Request(key, "fundamental", argv, EXIT_OK, check, spec,
                   {"op": "fundamental", "support": support}, g)


def invariants_request(key, spec, cycle, expected: dict | None, exit=EXIT_OK) -> Request:
    g = graph_of(spec)
    argv = ["--format", "json", "invariants"] + source(spec) + ["--cycle=" + ",".join(map(str, cycle))]

    def check(out, err, lookup):
        if expected is None:
            no_output(out, err)
        else:
            ex.need(doc_results(out, "invariants", g) == expected, "invariants differ")

    return Request(key, "invariants", argv, exit, check, spec,
                   {"op": "invariants", "cycle": list(cycle)}, g)


def graph_request(key, sub_argv, spec, fmt_json) -> Request:
    g = graph_of(spec)
    argv = (["--format", "json"] if fmt_json else []) + ["graph"] + sub_argv

    def check(out, err, lookup):
        if fmt_json:
            res = doc_results(out, "graph", g)
            ex.need(res == {"text": g.canonical_text()}, "graph text does not round-trip")
        else:
            ex.need(out == g.canonical_text(), "graph text does not round-trip")

    return Request(key, "graph", argv, EXIT_OK, check, spec, {"op": "graph"}, g)


def error_request(key, sub, argv, exit, spec=None, call=None, z0_defined=True) -> Request:
    return Request(key, sub, argv, exit, lambda out, err, lookup: no_output(out, err),
                   spec, call, z0_defined=z0_defined)


def request_mix(rng: random.Random, work: Path) -> list[Request]:
    """Hundreds of small requests across every subcommand, in seeded order."""
    reqs = [
        cyclic_classify(n, q)
        for n in range(2, 51)
        for q in range(1, n)
        if math.gcd(n, q) == 1
    ]
    cyclic_pairs = [(n, q) for n in range(3, 51) for q in range(1, n) if math.gcd(n, q) == 1]

    ok_report = {"connected": True, "negative_definite": True, "tree": True,
                 "rational": True, "gorenstein": True, "multiplicity": 2, "failures": []}
    for family, n in ADE_SMALL:
        spec = ("ade", family, n)
        g = graph_of(spec)
        reqs.append(validate_request(f"validate/{family}{n}", spec, ok_report))
        reqs.append(verify_request(family, n))
        reqs.append(fundamental_request(f"fundamental/{family}{n}", spec))
        reqs.append(fundamental_request(f"fundamental/{family}{n}/support", spec,
                                        random_support(rng, g), fmt_json=False))
    for n, q in rng.sample(cyclic_pairs, 8):
        spec = ("cyclic", n, q)
        g = graph_of(spec)
        mult = -ex.dot(g, (1,) * g.r, (1,) * g.r)
        report = dict(ok_report, gorenstein=mult == 2, multiplicity=mult)
        reqs.append(validate_request(f"validate/cyclic/{n}/{q}", spec, report))

    for family, n in rng.sample(ADE_SMALL, 6):
        reqs.append(graph_request(f"graph/ade/{family}{n}",
                                  ["ade", "--family", family, "--index", str(n)],
                                  ("ade", family, n), fmt_json=False))
    for n, q in rng.sample(cyclic_pairs, 6):
        reqs.append(graph_request(f"graph/cyclic/{n}/{q}",
                                  ["cyclic", "--n", str(n), "--q", str(q)],
                                  ("cyclic", n, q), fmt_json=True))
    for family, n in rng.sample(ADE_SMALL, 6):
        spec = file_spec(work, f"ade-{family}{n}", ex.ade(family, n), f"{family}_{n}")
        reqs.append(graph_request(f"graph/load/{family}{n}", ["load", spec[1]], spec,
                                  fmt_json=rng.random() < 0.5))

    # Several cycles of the same graph: powers of the maximal ideal and
    # the golden Ulrich cycles.
    for family, n in (("A", 7), ("D", 6), ("E", 6), ("E", 7), ("E", 8)):
        spec = ("ade", family, n)
        g = graph_of(spec)
        for k in (1, 2, 3):
            z = [k * a for a in ex.fundamental(g)]
            reqs.append(invariants_request(f"invariants/{family}{n}/{k}Z0", spec, z,
                                           ex.power_invariants(g, k)))
        for z, ell in ex.golden(family, n):
            reqs.append(invariants_request(f"invariants/{family}{n}/{list(z)}", spec, z,
                                           ex.ulrich_invariants(g, z, ell)))
    for n, q in rng.sample(cyclic_pairs, 4):
        spec = ("cyclic", n, q)
        g = graph_of(spec)
        for k in (1, 2):
            reqs.append(invariants_request(f"invariants/cyclic/{n}/{q}/{k}Z0", spec,
                                           [k] * g.r, ex.power_invariants(g, k)))

    # Error paths with their documented exit codes.
    star5 = file_spec(work, "star5", STAR5, "-2 star with five -2 leaves")
    tree9 = file_spec(work, "tree9", TREE9, "negative definite, not rational")
    apart = file_spec(work, "apart", ex.Graph((-2, -2), []), "disconnected")
    bad = work / "bad.txt"
    bad.write_text("vertices 2\nweight 1 -1\nedge 1 2\n", encoding="utf-8")
    missing = str(work / "missing.txt")
    a3 = ("ade", "A", 3)
    reqs += [
        error_request("usage/unknown-command", "usage", ["frobnicate"], EXIT_USAGE),
        error_request("usage/bad-format", "usage", ["--format", "xml", "validate"], EXIT_USAGE),
        error_request("usage/no-graph", "classify", ["classify"], EXIT_USAGE),
        error_request("usage/family-alone", "classify", ["classify", "--family", "A"], EXIT_USAGE),
        error_request("usage/special-and-ulrich", "usage",
                      ["classify", "--special", "--ulrich", "--n", "7", "--q", "3"], EXIT_USAGE),
        error_request("usage/no-cycle", "usage", ["invariants"] + source(a3), EXIT_USAGE),
        error_request("usage/bad-cycle", "invariants",
                      ["invariants"] + source(a3) + ["--cycle", "1,x,1"], EXIT_USAGE,
                      a3, {"op": "invariants", "cycle": None}),
        error_request("usage/short-cycle", "invariants",
                      ["invariants"] + source(a3) + ["--cycle", "1,1"], EXIT_USAGE,
                      a3, {"op": "invariants", "cycle": [1, 1]}),
        error_request("usage/bound-0", "oracle",
                      ["oracle", "--family", "E", "--index", "6", "--bound", "0"], EXIT_USAGE,
                      ("ade", "E", 6), {"op": "oracle", "bound": 0}),
        error_request("usage/not-coprime", "graph", ["graph", "cyclic", "--n", "6", "--q", "4"],
                      EXIT_USAGE, ("cyclic", 6, 4), {"op": "graph"}),
        error_request("usage/E9", "validate", ["validate", "--family", "E", "--index", "9"],
                      EXIT_USAGE, ("ade", "E", 9), {"op": "validate"}),
        error_request("usage/missing-file", "classify", ["classify", "--graph", missing],
                      EXIT_USAGE),
        error_request("usage/bad-weight", "validate", ["validate", "--graph", str(bad)],
                      EXIT_USAGE, ("file", str(bad), None), {"op": "validate"}),
        validate_request("invalid/validate/star5", star5, None, EXIT_VALIDATION, False),
        validate_request("invalid/validate/tree9", tree9, None, EXIT_VALIDATION),
        validate_request("invalid/validate/disconnected", apart, None, EXIT_VALIDATION, False),
        error_request("invalid/classify/star5", "classify", ["classify"] + source(star5),
                      EXIT_VALIDATION, star5, classify_call(), z0_defined=False),
        error_request("invalid/classify/tree9", "classify", ["classify", "--ulrich"] + source(tree9),
                      EXIT_VALIDATION, tree9, classify_call(special=False)),
        invariants_request("invalid/invariants/A3", a3, [1, 0, 0], None, EXIT_VALIDATION),
        invariants_request("invalid/invariants/E6", ("ade", "E", 6), [1] * 6, None,
                           EXIT_VALIDATION),
        invariants_request("invalid/invariants/negative", ("ade", "D", 5), [-1, 1, 1, 1, 1],
                           None, EXIT_VALIDATION),
    ]

    defect = invariants_request("defect/invariants/tree9", tree9,
                                list(ex.fundamental(TREE9)), None, EXIT_VALIDATION)
    defect.check = lambda out, err, lookup: no_output(out, err)
    defect.defect = "ROADMAP item 3: AssertionError from special_module_indices on a non-rational graph"
    reqs.append(defect)
    defect = fundamental_request("defect/fundamental/star5", star5)
    defect.exit, defect.check = EXIT_VALIDATION, lambda out, err, lookup: no_output(out, err)
    defect.defect = "ROADMAP item 3: fundamental_cycle never terminates on an indefinite graph"
    reqs.append(defect)

    rng.shuffle(reqs)
    return reqs


def generate(workload: str, seed: int, work: Path) -> list[Request]:
    """The request list of one workload; graph files go to ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return {"large_rank": large_rank, "oracle_box": oracle_box,
            "request_mix": request_mix}[workload](rng, work)
