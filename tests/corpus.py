"""The shared test corpus: every graph, Hypothesis strategy, reference
search and helper that more than one test module uses, defined once.

This is not a test module, so pytest does not collect it; the test
modules import it as ``corpus`` (the CI drivers run with
``PYTHONPATH=src:tests``), and no test module imports another.  Its
references (the census encoding, intersection numbers, canonical
degrees and the formula site's four sums, dense determinants,
flood-fill components, breadth-first order and Laufer's loop) use only
the public constructors of ``dualcycles`` and ``DualGraph.neighbors``,
never the code they check; ``chain_cycles_in_box`` is the chain route
itself, as the oracle comparisons read it.
"""

import collections
import functools
import itertools
import math
import os
import subprocess
import sys

from hypothesis import strategies as st

import dualcycles
from dualcycles import (
    Cycle,
    DualGraph,
    build_ade,
    build_cyclic,
    enumerate_special,
    enumerate_ulrich,
    fundamental_cycle,
)

# A -3 centre with arms 1-0, 3-4 and 5-6: rational, not Gorenstein,
# multiplicity 3, and its special cycles are its three Ulrich cycles.
STAR = DualGraph(
    (-2, -2, -3, -2, -2, -2, -2),
    [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)],
)

# A -2 centre with five -2 leaves: not negative definite, and Laufer's loop
# never ends on it.
INDEFINITE_STAR = DualGraph((-2,) * 6, [(0, i) for i in range(1, 6)])

# Negative definite but not rational: p_a(Z_0) = 1.
NON_RATIONAL_TREE = DualGraph(
    (-3, -2, -2, -2, -3, -2, -2, -2, -3),
    [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 7), (5, 6), (5, 8)],
)

# A definite caterpillar: a spine of nine -2 vertices, each with a -11
# leaf.  Laufer's loop needs 360 bumps to reach Z_0, past its budget of
# 8 * 18 + 64, so an elimination (``is_negative_definite``) decides
# definiteness.
CATERPILLAR = DualGraph(
    (-2,) * 9 + (-11,) * 9, [(i, i + 1) for i in range(8)] + [(i, 9 + i) for i in range(9)]
)
CATERPILLAR_Z0 = (17, 32, 44, 52, 55, 52, 44, 32, 17, 2, 3, 4, 5, 5, 5, 4, 3, 2)

# Small ADE graphs, cyclic quotients and STAR, where the chain route must
# equal the oracle at bound 4; each entry names its graph for oracle_graph.
ORACLE_CORPUS = (
    [("ade", f, n) for f, rng in (("A", range(1, 7)), ("D", range(4, 7)), ("E", (6,))) for n in rng]
    + [("cyclic", n, q) for n in range(3, 9) for q in range(2, n) if math.gcd(n, q) == 1]
    + [("star", 0, 0)]
)


def oracle_graph(kind, a, b) -> DualGraph:
    """The graph of one ORACLE_CORPUS entry."""
    if kind == "ade":
        return build_ade(a, b)
    return build_cyclic(a, b) if kind == "cyclic" else STAR


# The tree census: every tree with weights in WEIGHTS up to isomorphism,
# one encoding per class.  A tree rooted at a centre is written with each
# vertex as "(" + its -weight + its children's encodings in sorted order
# + ")", and a class's encoding is the least such string over its one or
# two centres.
WEIGHTS = (-2, -3, -4)


def canonical(weights, edges) -> str:
    """The least rooted encoding of the tree over its centres."""
    nbrs = collections.defaultdict(list)
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    centres = set(range(len(weights)))
    while len(centres) > 2:  # strip the leaves until one or two vertices stay
        centres -= {v for v in centres if sum(u in centres for u in nbrs[v]) == 1}

    def encode(v, parent):
        kids = sorted(encode(u, v) for u in nbrs[v] if u != parent)
        return f"({-weights[v]}{''.join(kids)})"

    return min(encode(c, None) for c in centres)


def graph_of(code: str) -> DualGraph:
    """The tree of an encoding, vertices numbered in preorder."""
    weights, edges, path = [], [], []
    for ch in code:
        if ch == "(":
            continue
        if ch == ")":
            path.pop()
            continue
        v = len(weights)
        weights.append(-int(ch))
        if path:
            edges.append((path[-1], v))
        path.append(v)
    return DualGraph(weights, edges)


@functools.cache
def _level(vertices: int) -> frozenset[str]:
    """The encodings of the classes with exactly ``vertices`` vertices,
    each grown from the level below by one leaf; computed once a process."""
    if vertices == 1:
        return frozenset(canonical((w,), ()) for w in WEIGHTS)
    grown = set()
    for code in _level(vertices - 1):
        g = graph_of(code)
        r = g.vertex_count
        for v in range(r):
            for w in WEIGHTS:
                grown.add(canonical(g.weights + (w,), sorted(g.edges) + [(v, r)]))
    return frozenset(grown)


def tree_classes(max_vertices: int) -> list[str]:
    """The encodings of every class with at most ``max_vertices``
    vertices, sorted."""
    return sorted(set().union(*map(_level, range(1, max_vertices + 1))))


def add(z, w) -> tuple:
    return tuple(a + b for a, b in zip(z, w, strict=True))


def scale(k: int, z) -> tuple:
    return tuple(k * a for a in z)


def inf_cycles(z, w) -> tuple:
    """Componentwise minimum."""
    return tuple(map(min, z, w))


def unit(g: DualGraph, i: int) -> Cycle:
    """The cycle E_i."""
    z = [0] * g.vertex_count
    z[i] = 1
    return tuple(z)


def path_graph(n: int, weights=None) -> DualGraph:
    """A chain of n vertices, all -2 unless ``weights`` are given."""
    return DualGraph(weights or (-2,) * n, [(i, i + 1) for i in range(n - 1)])


def intersection(g: DualGraph, z, w) -> int:
    """Intersection number Z.W: the sum over vertices i of z_i (M.W)_i,
    where (M.W)_i is w_i times the weight of i plus w over i's neighbours."""
    return sum(a * (e * b + sum(w[u] for u in g.neighbors(i)))
               for i, (a, e, b) in enumerate(zip(z, g.weights, w, strict=True)))


def canonical_degree(g: DualGraph, z) -> int:
    """K.Z = sum a_i (-w_i - 2), K the canonical divisor: K.E_i = -E_i^2 - 2."""
    return sum(a * (-w - 2) for a, w in zip(z, g.weights, strict=True))


def cycle_sums(g: DualGraph, z, z0) -> tuple[int, int, int, int]:
    """The four sums of the formula site for a cycle Z given Z_0 = sum n_i
    E_i: Z^2, K.Z, Z.Z_0 and max_i a_i L/n_i with L = lcm(n)."""
    lcm = math.lcm(*z0)
    return (intersection(g, z, z), canonical_degree(g, z), intersection(g, z0, z),
            max(a * lcm // n for a, n in zip(z, z0)))


def check_ulrich_numbers(e: int, rows) -> int:
    """Assert min_gens = e + 1 and multiplicity = e colength on each
    (colength, multiplicity, min_gens) row of an Ulrich cycle Z of a
    multiplicity-e graph; the number of rows.  Both follow from
    Z.Z_0 = Z_0^2 = -e (``classify._walk``) and U(Z) = Z^2 - (Z.Z_0)
    colength(Z) = 0, at every multiplicity."""
    count = 0
    for ell, mult, mu in rows:
        assert (mu, mult) == (e + 1, e * ell), (e, ell, mult, mu)
        count += 1
    return count


def balanced_star(e: int, k: int) -> DualGraph:
    """The balanced star S(e, k), k >= 1: a centre of weight -e, vertex 0,
    with e arms of k (-2)-curves each; arm a holds vertices a k + 1, ...,
    a k + k, from the centre out.  Z_0 is all ones and -Z_0^2 = e."""
    edges = []
    for a in range(e):
        arm = range(a * k + 1, a * k + k + 1)
        edges += [(0, arm[0]), *zip(arm, arm[1:])]
    return DualGraph((-e,) + (-2,) * (e * k), edges)


def balanced_star_ulrich(e: int, k: int) -> list[tuple[tuple, int]]:
    """The Ulrich cycles of ``balanced_star(e, k)`` in closed form, as
    sorted (cycle, colength) pairs: for j = 1, ..., k + 1, U_j has
    coefficient j at the centre and min(j, k + 1 - d) at distance d on
    each arm (the A_n plateau of ``golden_table`` on each arm), and
    colength j.  Observed, not proved: checked against both routes."""
    return [((j,) + tuple(min(j, k + 1 - d) for d in range(1, k + 1)) * e, j)
            for j in range(1, k + 2)]


def minus_m(g: DualGraph) -> list[list[int]]:
    """-M as a dense list of rows."""
    r = g.vertex_count
    m = [[0] * r for _ in range(r)]
    for i, w in enumerate(g.weights):
        m[i][i] = -w
    for i, j in g.edges:
        m[i][j] = m[j][i] = -1
    return m


def det(m: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination with row
    exchanges: the dense reference for the sparse elimination."""
    n = len(m)
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def block_minors(m: list[list[int]]) -> list[int]:
    """det of every leading block, each by its own elimination."""
    return [det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]


def components(g: DualGraph, verts) -> list[set[int]]:
    """Components of the subgraph induced on ``verts``, one flood fill each."""
    left, comps = set(verts), []
    while left:
        comp = grown = {left.pop()}
        while grown:
            grown = {u for v in grown for u in g.neighbors(v)} & left
            left -= grown
            comp |= grown
        comps.append(comp)
    return comps


def bfs_order(g: DualGraph, start: int, inside) -> list[int]:
    """``start`` and every vertex of ``inside`` reachable from it inside
    it, in breadth-first order: a FIFO queue from ``start``, each dequeued
    vertex enqueueing its unseen neighbours in ``inside`` in index order."""
    inside, order = set(inside), [start]
    queue, seen = collections.deque(order), {start}
    while queue:
        v = queue.popleft()
        for u in sorted(g.neighbors(v)):
            if u in inside and u not in seen:
                seen.add(u)
                order.append(u)
                queue.append(u)
    return order


def laufer_by_recomputation(g: DualGraph, support) -> tuple:
    """Reference Laufer loop on a connected, definite ``support``: from 1
    there, recompute every pairing over it before each bump and bump the
    least vertex whose pairing is positive; the fundamental cycle of the
    support, as a cycle of the whole graph."""
    z = dict.fromkeys(sorted(support), 1)
    while True:
        bump = [v for v in z if g.weights[v] * z[v] + sum(z.get(u, 0) for u in g.neighbors(v)) > 0]
        if not bump:
            return tuple(z.get(v, 0) for v in range(g.vertex_count))
        z[bump[0]] += 1


def chain_cycles_in_box(g: DualGraph, bound: int) -> tuple[list, list]:
    """The chain route's special and Ulrich cycles inside ``bound`` Z_0's
    box, each list sorted: what ``oracle_classify(g, bound)`` must return."""
    z0 = fundamental_cycle(g)
    box = [bound * n for n in z0]
    inbox = lambda es: sorted(e.cycle for e in es if all(map(int.__le__, e.cycle, box)))
    return inbox(enumerate_special(g, bound * sum(z0) + 1)), inbox(enumerate_ulrich(g))


@st.composite
def random_trees(draw, max_vertices: int) -> DualGraph:
    """Random trees on at most ``max_vertices`` vertices, weights in -5..-2."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    weights = draw(st.lists(st.integers(-5, -2), min_size=n, max_size=n))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    return DualGraph(weights, edges)


def cycles_for(g: DualGraph, lo=-4, hi=6):
    """Cycles on ``g`` with coefficients in [lo, hi]."""
    return st.tuples(*(st.integers(lo, hi) for _ in range(g.vertex_count)))


@st.composite
def graph_and_cycles(draw, k=1, lo=-4, hi=6):
    """A random tree of at most 8 vertices and ``k`` cycles on it."""
    g = draw(random_trees(8))
    zs = [draw(cycles_for(g, lo, hi)) for _ in range(k)]
    return (g, *zs)


@st.composite
def connected_graphs(draw, max_vertices: int, least_weight: int) -> DualGraph:
    """Connected graphs on at most ``max_vertices`` vertices with weights in
    ``least_weight``..-1: a random tree plus up to three more edges, so
    cycles are common."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    weights = draw(st.lists(st.integers(least_weight, -1), min_size=n, max_size=n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    return DualGraph(weights, edges)


@st.composite
def random_graphs(draw) -> DualGraph:
    """Graphs up to 7 vertices with weights in -12..1 and arbitrary edges."""
    n = draw(st.integers(min_value=1, max_value=7))
    weights = draw(st.lists(st.integers(-12, 1), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return DualGraph(weights, edges)


def counting(calls: list, key, fn):
    """``fn``, appending ``key`` to ``calls`` on every call."""
    def wrapper(*args):
        calls.append(key)
        return fn(*args)
    return wrapper


def run_child(*args: str, timeout: float = 30, preexec_fn=None, **env: str):
    """``python *args`` in a child process with ``dualcycles`` on its path
    and ``env`` added to its environment; its output captured as text."""
    path = os.path.dirname(os.path.dirname(dualcycles.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path, **env), preexec_fn=preexec_fn)


# The output digest corpus (tests/test_digests.py and its golden file):
# every subcommand, in both forms, on these graphs.  The files of the
# graphs given by name are written under a directory that the argvs name
# as DIGEST_DIR.
DIGEST_DIR = "{tmp}"
DIGEST_FILES = {
    "star": STAR,
    "caterpillar": CATERPILLAR,
    "non-rational-tree": NON_RATIONAL_TREE,
    "indefinite-star": INDEFINITE_STAR,
}

# Graphs whose rows come after every other row of the corpus, so that
# adding one only appends rows.  INDEFINITE_STAR with a seventh, isolated
# vertex is both disconnected and indefinite.
LATE_DIGEST_FILES = {
    "indefinite-star-and-a-vertex": DualGraph((-2,) * 7, INDEFINITE_STAR.edges),
}

# Graphs of the corpus's last group, after the integer options' rows.
# A_2 beside A_1 is disconnected and definite, and the plain classify
# walk of the -4 tree meets a cycle that is neither special nor Ulrich;
# both get the rows of every graph.  On the last two, classify
# --max-colength 1 drops a component before Laufer's loop, and a step
# after it.
LAST_DIGEST_FILES = {
    "a2-and-a1": DualGraph((-2,) * 3, [(0, 1)]),
    "plain-walked-cycle": graph_of("(2(2(2)(4))(2(2)))"),
    "capped-before-laufer": graph_of("(2(2(2)(2))(3(2)))"),
    "capped-after-laufer": graph_of("(3(2(2))(2(2))(2)(2))"),
}


# One malformed graph text for each error of ``parse_graph``, each written
# next to the DIGEST_FILES graphs as <name>.txt.
MALFORMED_FILES = {
    "bad-duplicate-vertices": "vertices 2\nvertices 2\n",
    "bad-argument-count": "vertices 2 3\n",
    "bad-not-an-integer": "vertices 2\nedge 1 x\n",
    "bad-no-vertices": "vertices 0\n",
    "bad-too-many-vertices": "vertices 1000001\n",
    "bad-vertices-not-first": "edge 1 2\nvertices 2\n",
    "bad-weight-vertex": "vertices 2\nweight 3 -2\n",
    "bad-duplicate-weight": "vertices 2\nweight 1 -3\nweight 1 -4\n",
    "bad-weight-above-minus-two": "vertices 2\nweight 1 -1\n",
    "bad-self-loop": "vertices 2\nedge 2 2\n",
    "bad-edge-range": "vertices 2\nedge 1 3\n",
    "bad-duplicate-edge": "vertices 2\nedge 1 2\nedge 2 1\n",
    "bad-unknown-directive": "vertices 2\nvertex 1\n",
    "bad-missing-vertices": "# only a comment\n\n",
}


# Two graphs whose weights pass builders.MAX_DIGITS, each written next to
# the DIGEST_FILES graphs as <name>.txt: two joined vertices of weight
# -(10**4300 - 1), the longest int that CPython's str() writes, and two of
# weight -77...7 with 2,000 sevens.  Requests on them once died on that
# str() limit after writing part of their output.
OVERSIZED_FILES = {
    f"oversized-{digits}-digits": "vertices 2\n" + "".join(
        f"weight {i} -{digit * digits}\n" for i in (1, 2)) + "edge 1 2\n"
    for digits, digit in ((4300, "9"), (2000, "7"))
}


def write_digest_graphs(directory) -> None:
    """Write each graph of DIGEST_FILES, LATE_DIGEST_FILES and
    LAST_DIGEST_FILES and each text of MALFORMED_FILES and OVERSIZED_FILES
    to ``directory``/<name>.txt."""
    texts = {**MALFORMED_FILES, **OVERSIZED_FILES}
    for name, g in {**DIGEST_FILES, **LATE_DIGEST_FILES, **LAST_DIGEST_FILES}.items():
        lines = [f"vertices {g.vertex_count}"]
        lines += [f"weight {i + 1} {w}" for i, w in enumerate(g.weights)]
        lines += [f"edge {i + 1} {j + 1}" for i, j in sorted(g.edges)]
        texts[name] = "\n".join(lines) + "\n"
    for name, text in texts.items():
        with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)


def digest_argvs() -> list[list[str]]:
    """The argvs of the output digest corpus, DIGEST_DIR standing for the
    directory of ``write_digest_graphs``:

    - on A_1-A_30, D_4-D_30, E_6-E_8, every (1/n)(1, q) with n < 20 and
      the graphs of DIGEST_FILES, in table and JSON form: ``graph``,
      ``validate``, ``fundamental``, ``invariants`` at Z_0 and 2 Z_0 (the
      all-ones cycle where Z_0 is not computable), ``classify``,
      ``oracle`` at bounds 1-4 and, on the ADE graphs, ``verify-rdp``;
    - ``classify`` in both forms, for each list choice, with
      --max-colength in {none, 1, 2, 3, 10}, on A_9, D_8, E_7, A_20, STAR
      and (1/19)(1, 7);

    then, after those rows, in both forms:

    - on every graph above, ``fundamental --support`` on its first,
      middle and last vertex alone, on the full vertex list, on "1,1",
      "0" and r + 1, and on its first pair of vertices that are not
      adjacent, if any; ``invariants`` at the zero cycle, at -E_1, at E_1
      (not anti-nef unless vertex 1 is isolated) and at a cycle of r + 1
      ones; ``oracle`` at bounds 0 and -1;
    - ``classify`` on the six capped graphs with --max-colength in
      {0, 4-7, 13};
    - ``classify`` on A_9 with the removed --max-steps, a usage error,
      and (table form only) with --max, which argparse reads as
      --max-colength;
    - ``validate`` on two graph sources at once, on half-given sources,
      and on each file of MALFORMED_FILES;
    - the small CI tripwires: a 1,999-vertex support of D_2000, A_1 at
      the cycle 2,000,000, and two oracle boxes past the box limit;

    then, in both forms, on the 4,300-digit file of OVERSIZED_FILES:
    ``graph load``, ``validate``, ``classify``, ``invariants`` at 1,1 and
    ``oracle`` at bound 2; and on the 2,000-digit file ``invariants`` at
    a cycle of two 1,000-digit coefficients;

    then, on each graph of LATE_DIGEST_FILES, the rows of every graph
    above, in the same order; then, in both forms, each integer option
    (``--index``, ``--n``, ``--q``, ``--bound``, ``--max-colength``) at
    400, 401 and 5,000 nines, one request each;

    then, on the first two graphs of LAST_DIGEST_FILES, the rows of every
    graph above; then, in both forms, ``classify --max-colength 1`` on
    the other two, and ``classify`` on D_3, E_9, A_0 and (1/6)(1, 4),
    out of range.
    """
    ade = [(f, n) for f, ns in (("A", range(1, 31)), ("D", range(4, 31)), ("E", (6, 7, 8)))
           for n in ns]
    cyclic = [(n, q) for n in range(2, 20) for q in range(1, n) if math.gcd(n, q) == 1]
    sources = (
        [(build_ade(f, n), ["ade"], ["--family", f, "--index", str(n)]) for f, n in ade]
        + [(build_cyclic(n, q), ["cyclic"], ["--n", str(n), "--q", str(q)]) for n, q in cyclic]
        + [(g, ["load"], ["--graph", f"{DIGEST_DIR}/{name}.txt"]) for name, g in DIGEST_FILES.items()]
    )
    late = [(g, ["load"], ["--graph", f"{DIGEST_DIR}/{name}.txt"])
            for name, g in LATE_DIGEST_FILES.items()]
    forms = ([], ["--format", "json"])
    argvs = _graph_rows(sources, forms)
    capped = (["--family", "A", "--index", "9"], ["--family", "D", "--index", "8"],
              ["--family", "E", "--index", "7"], ["--family", "A", "--index", "20"],
              ["--graph", f"{DIGEST_DIR}/star.txt"], ["--n", "19", "--q", "7"])
    colengths = (None, 1, 2, 3, 10)
    for source, form in itertools.product(capped, forms):
        for lists in ([], ["--special"], ["--ulrich"]):
            for colength in colengths:
                argvs.append(form + ["classify"] + source + lists
                             + ([] if colength is None else ["--max-colength", str(colength)]))
    argvs += _edge_rows(sources, forms)
    for source, form in itertools.product(capped, forms):
        argvs += [form + ["classify"] + source + ["--max-colength", str(colength)]
                  for colength in (0, 4, 5, 6, 7, 13)]
    for form in forms:
        argvs += [form + ["classify"] + capped[0] + extra
                  for extra in (["--max-steps", "2"], ["--max-steps=-1"])]
    argvs.append(["classify"] + capped[0] + ["--max", "1"])
    bad_sources = (["--family", "A", "--index", "3", "--n", "5", "--q", "2"],
                   ["--graph", f"{DIGEST_DIR}/star.txt", "--family", "A", "--index", "3"],
                   ["--family", "A"], ["--q", "2"])
    tripwires = (
        ["fundamental", "--family", "D", "--index", "2000",
         "--support", ",".join(map(str, range(1, 2000)))],
        ["invariants", "--family", "A", "--index", "1", "--cycle", "2000000"],
        ["oracle", "--n", "2", "--q", "1", "--bound", "99999999"],
        ["oracle", "--family", "E", "--index", "8", "--bound", "1000"],
    )
    for form in forms:
        argvs += [form + ["validate"] + source for source in bad_sources]
        argvs += [form + ["validate", "--graph", f"{DIGEST_DIR}/{name}.txt"]
                  for name in MALFORMED_FILES]
        argvs += [form + argv for argv in tripwires]
    huge, long = (f"{DIGEST_DIR}/oversized-{digits}-digits.txt" for digits in (4300, 2000))
    nines = "9" * 1000
    oversized = (["graph", "load", huge], ["validate", "--graph", huge], ["classify", "--graph", huge],
                 ["invariants", "--graph", huge, "--cycle", "1,1"],
                 ["oracle", "--graph", huge, "--bound", "2"],
                 ["invariants", "--graph", long, "--cycle", f"{nines},{nines}"])
    for form in forms:
        argvs += [form + argv for argv in oversized]
    argvs += _graph_rows(late, forms) + _edge_rows(late, forms)
    options = (["classify", "--family", "A", "--index"], ["classify", "--q", "1", "--n"],
               ["classify", "--n", "7", "--q"], ["oracle", "--family", "A", "--index", "3", "--bound"],
               ["classify", "--family", "A", "--index", "3", "--max-colength"])
    for form in forms:
        argvs += [form + argv + ["9" * digits] for argv in options for digits in (400, 401, 5000)]
    last = [(g, ["load"], ["--graph", f"{DIGEST_DIR}/{name}.txt"])
            for name, g in list(LAST_DIGEST_FILES.items())[:2]]
    argvs += _graph_rows(last, forms) + _edge_rows(last, forms)
    out_of_range = (["--family", "D", "--index", "3"], ["--family", "E", "--index", "9"],
                    ["--family", "A", "--index", "0"], ["--n", "6", "--q", "4"])
    for form in forms:
        argvs += [form + ["classify", "--graph", f"{DIGEST_DIR}/{name}.txt", "--max-colength", "1"]
                  for name in list(LAST_DIGEST_FILES)[2:]]
        argvs += [form + ["classify"] + source for source in out_of_range]
    return argvs


def _graph_rows(sources, forms) -> list[list[str]]:
    """``digest_argvs``' first rows on each of ``sources``."""
    argvs = []
    for g, kind, source in sources:
        try:
            z0 = fundamental_cycle(g)
        except ValueError:
            z0 = (1,) * g.vertex_count
        cycles = [",".join(str(k * a) for a in z0) for k in (1, 2)]
        load = source[1:] if kind == ["load"] else source  # graph load takes a positional FILE
        for form in forms:
            argvs.append(form + ["graph"] + kind + load)
            argvs += [form + [cmd] + source for cmd in ("validate", "fundamental", "classify")]
            argvs += [form + ["invariants"] + source + ["--cycle", z] for z in cycles]
            argvs += [form + ["oracle"] + source + ["--bound", str(b)] for b in range(1, 5)]
            if kind == ["ade"]:
                argvs.append(form + ["verify-rdp"] + source)
    return argvs


def _edge_rows(sources, forms) -> list[list[str]]:
    """``digest_argvs``' rows on each of ``sources`` at the edges of what a
    request accepts: supports, cycles and bounds."""
    argvs = []
    for (g, _, source), form in itertools.product(sources, forms):
        r = g.vertex_count
        apart = [f"{i + 1},{j + 1}" for i in range(r) for j in range(i + 1, r)
                 if j not in g.neighbors(i)][:1]
        supports = [*map(str, dict.fromkeys((1, (r + 1) // 2, r))),
                    ",".join(map(str, range(1, r + 1))), "1,1", "0", str(r + 1), *apart]
        argvs += [form + ["fundamental"] + source + ["--support", s] for s in supports]
        zeros = ["0"] * r
        cycles = (zeros, ["-1"] + zeros[1:], ["1"] + zeros[1:], ["1"] * (r + 1))
        argvs += [form + ["invariants"] + source + ["--cycle=" + ",".join(z)] for z in cycles]
        argvs += [form + ["oracle"] + source + ["--bound", b] for b in ("0", "-1")]
    return argvs
