"""The chain walk's lemmas as checked facts.

Every entry of ``_classify`` is read off its walk node; here it is
checked against the pointwise definitions: its witness chain is its
canonical filtration Z_k = inf(Z, (k+1) Z_0), its module indices are the
vertices with a_i = n_i colength(Z), and its kind is "special" or "both"
(an Ulrich cycle is special).

``chain_verdicts`` is a pointwise chain criterion written from the
definitions alone, with no walk code: it tests Z's canonical filtration
step by step, and its verdicts must equal the oracle's own on every
anti-nef cycle of a box: the special and Ulrich columns that
``invariants._formulas`` reads off the four sums ``_box_search`` keeps.

``check_walk`` checks the four sums the walk keeps for every node, Z^2,
K.Z, Z.Z_0 and max_i a_i L/n_i, against their reductions from the
lattice definitions.

Run the three checks over the 7-vertex tree census with
``PYTHONPATH=src:tests python -c "import test_chains; print(test_chains.check_census(7))"``.
"""

import functools
import itertools
import math
import time

from dualcycles.builders import build_ade, build_cyclic
from dualcycles.classify import _box_search, _classify, _rows, _walk
from dualcycles.invariants import (
    _filtration, _formulas, _rational, special_module_indices, validate,
)
from dualcycles.lattice import DualGraph, pairing_vector
from corpus import (
    ORACLE_CORPUS, components, cycle_sums, graph_of, oracle_graph, tree_classes,
)


@functools.cache
def census_graphs(max_vertices: int) -> list[DualGraph]:
    """The rational tree classes of the census with at most
    ``max_vertices`` vertices."""
    graphs = map(graph_of, tree_classes(max_vertices))
    return [g for g in graphs if validate(g).rational]


def check_entries(g: DualGraph) -> int:
    """Assert the three entry facts on every entry of ``_classify(g)``;
    the number of distinct entries."""
    special, ulrich = _classify(g)
    z0 = _rational(g).z0
    entries = {e.cycle: e for e in special + ulrich}
    for z, e in entries.items():
        assert e.chain == _filtration(z, z0), z
        assert e.module_indices == special_module_indices(g, z), z
        assert e.kind in ("special", "both"), z
    assert all(e.kind == "both" for e in ulrich)
    return len(entries)


def check_walk(g: DualGraph) -> int:
    """Assert that each node of ``_classify(g)``'s walk keeps its cycle's
    four sums (``corpus.cycle_sums``), and the depth lemma of ``_walk``:
    each step's support lies strictly inside the previous step's (all
    vertices at the root), so no chain has more than z = #{v: (M.Z_0)_v
    = 0} steps; the number of nodes."""
    record = _rational(g)
    r = g.vertex_count
    z = pairing_vector(g, record.z0).count(0)
    best = _walk(g, record, r, True)
    for cycle, (chain, _, _, sums) in best.items():
        assert sums == cycle_sums(g, cycle, record.z0), cycle
        assert len(chain) <= z, cycle
        inside = set(range(r))
        for y, _ in chain:
            support = {v for v, a in enumerate(y) if a}
            assert support < inside, cycle
            inside = support
    return len(best)


def _fundamental(g: DualGraph, support: frozenset) -> tuple:
    """Laufer's fundamental cycle on a connected, definite ``support``:
    from 1 everywhere, bump any vertex whose pairing over it is positive."""
    z = dict.fromkeys(support, 1)
    while True:
        bump = [v for v in z if g.weights[v] * z[v] + sum(z.get(u, 0) for u in g.neighbors(v)) > 0]
        if not bump:
            return tuple(z.get(v, 0) for v in range(g.vertex_count))
        z[bump[0]] += 1


def chain_verdicts(g: DualGraph, z: tuple, z0: tuple, fundamental) -> tuple[bool, bool]:
    """(special, Ulrich) of an anti-nef Z >= Z_0 by its canonical filtration.

    Step k, Y_k = Z_k - Z_{k-1}, is a walk step when supp(Y_k) is one
    connected component of the zero locus of M.Z_{k-1} inside supp(Y_{k-1})
    (inside every vertex at k = 1), Y_k is that component's fundamental
    cycle (``fundamental(support)``), and Z_k is anti-nef.  Special: every
    step is a walk step and some vertex keeps its full Z_0 coefficient at
    the last one (Z_0 itself: every vertex).  Ulrich: special, and every
    vertex of weight <= -3 keeps its full coefficient.
    """
    prev, inside, y = z0, set(range(len(z))), z0
    for k in itertools.count(2):
        if prev == z:
            break
        zk = tuple(min(a, k * n) for a, n in zip(z, z0))
        y = tuple(b - a for a, b in zip(prev, zk))
        support = {v for v, a in enumerate(y) if a}
        p = pairing_vector(g, prev)
        zeros = {v for v in inside if p[v] == 0}
        if support not in components(g, zeros):
            return False, False
        if y != fundamental(frozenset(support)) or max(pairing_vector(g, zk)) > 0:
            return False, False
        prev, inside = zk, support
    full = {v for v, (a, n) in enumerate(zip(y, z0)) if a == n}
    heavy = {v for v, w in enumerate(g.weights) if w <= -3}
    return bool(full), bool(full) and heavy <= full


def check_criterion(g: DualGraph, bound: int) -> int:
    """Assert that ``chain_verdicts`` equals the oracle's special and
    Ulrich verdicts, which ``_formulas`` reads off the sums of the box
    search, on every anti-nef cycle of ``bound`` Z_0's box; the number of
    boxed cycles."""
    record = _rational(g)
    zs, *sums = _box_search(g, bound, record)
    special, ulrich = _formulas(*sums, record)[4:]
    fundamental = functools.lru_cache(maxsize=None)(functools.partial(_fundamental, g))
    for z, s, u in zip(_rows(zs, g.vertex_count), special, ulrich):
        assert chain_verdicts(g, z, record.z0, fundamental) == (s, u), z
    return len(special)


def check_census(max_vertices: int) -> tuple[int, int, int]:
    """The three checks on every rational tree class with at most
    ``max_vertices`` vertices, the criterion at bound 2: (classes,
    entries, boxed cycles)."""
    graphs = census_graphs(max_vertices)
    entries = sum(map(check_entries, graphs))
    for g in graphs:
        check_walk(g)
    cycles = sum(check_criterion(g, 2) for g in graphs)
    return len(graphs), entries, cycles


CHAIN_CORPUS = (
    [build_ade("A", n) for n in range(1, 31)]
    + [build_ade("D", n) for n in range(4, 31)]
    + [build_ade("E", n) for n in (6, 7, 8)]
    + [build_cyclic(n, q) for n in range(2, 30) for q in range(1, n) if math.gcd(n, q) == 1]
)


def test_entries_are_read_off_the_walk():
    start = time.monotonic()
    graphs = census_graphs(6) + CHAIN_CORPUS
    entries = sum(map(check_entries, graphs))
    elapsed = time.monotonic() - start
    assert (len(graphs), entries) == (2378, 5310)
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_walk_keeps_each_nodes_sums():
    assert sum(map(check_walk, census_graphs(6))) == 4174


def test_chain_criterion_matches_the_pointwise_verdicts():
    start = time.monotonic()
    cycles = sum(check_criterion(g, 2) for g in census_graphs(6))
    assert cycles == 50368
    assert sum(check_criterion(oracle_graph(*c), 4) for c in ORACLE_CORPUS) == 732
    elapsed = time.monotonic() - start
    assert elapsed < 3.0, f"took {elapsed:.2f}s"


def test_criterion_on_a3():
    # Z_0 = (1, 1, 1) pairs to (-1, 0, -1): the one step from it is the
    # middle vertex's fundamental cycle, so (1, 2, 1) is reached and 2 Z_0,
    # whose step (1, 1, 1) leaves the zero locus, is not.
    g = build_ade("A", 3)
    fundamental = functools.partial(_fundamental, g)
    assert chain_verdicts(g, (1, 1, 1), (1, 1, 1), fundamental) == (True, True)
    assert chain_verdicts(g, (1, 2, 1), (1, 1, 1), fundamental) == (True, True)
    assert chain_verdicts(g, (2, 2, 2), (1, 1, 1), fundamental) == (False, False)
