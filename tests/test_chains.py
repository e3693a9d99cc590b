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
lattice definitions, Z.Z_0 = Z_0^2 on every node, and the order the
walk's heap yields its nodes in: strictly ascending, each after its
parent.

``check_one_chain`` checks the one-chain theorem of ``_walk`` off the
Gorenstein locus, and ``check_balanced_star`` the closed form of the
Ulrich cycles of the balanced stars ``corpus.balanced_star(e, k)``,
k + 1 of them at any multiplicity e.  ``step_ulrich`` writes that one
chain's step condition on the graph alone, with no walk code, and
``ulrich_census`` compares it with ``_classify`` over the census.

Run the three checks over the 7-vertex tree census with
``PYTHONPATH=src:tests python -c "import test_chains; print(test_chains.check_census(7))"``,
and the Ulrich checks over the 8-vertex census with
``PYTHONPATH=src:tests python -c "import test_chains; print(test_chains.ulrich_census(8))"``.
"""

import collections
import functools
import itertools
import math
import operator
import time

from dualcycles.builders import build_ade, build_cyclic
from dualcycles.classify import _box_search, _classify, _rows, _walk, oracle_classify
from dualcycles.invariants import (
    _filtration, _formulas, _rational, special_module_indices, validate,
)
from dualcycles.lattice import DualGraph, pairing_vector
from corpus import (
    ORACLE_CORPUS, add, balanced_star, balanced_star_ulrich, check_ulrich_numbers, components,
    cycle_sums, graph_of, laufer_by_recomputation, oracle_graph, tree_classes,
)


@functools.cache
def census_graphs(max_vertices: int) -> list[DualGraph]:
    """The rational tree classes of the census with at most
    ``max_vertices`` vertices."""
    graphs = map(graph_of, tree_classes(max_vertices))
    return [g for g in graphs if validate(g).rational]


def check_entries(g: DualGraph) -> int:
    """Assert the three entry facts on every entry of ``_classify(g)``,
    and ``corpus.check_ulrich_numbers`` on its Ulrich entries; the number
    of distinct entries."""
    special, ulrich = _classify(g)
    record = _rational(g)
    entries = {e.cycle: e for e in special + ulrich}
    for z, e in entries.items():
        assert e.chain == _filtration(z, record.z0), z
        assert e.module_indices == special_module_indices(g, z), z
        assert e.kind in ("special", "both"), z
    assert all(e.kind == "both" for e in ulrich)
    check_ulrich_numbers(record.multiplicity, (e[1:4] for e in ulrich))
    return len(entries)


def check_walk(g: DualGraph) -> int:
    """Assert that each node of ``_classify(g)``'s walk keeps its cycle's
    four sums (``corpus.cycle_sums``), Z.Z_0 = Z_0^2 among them, and the
    depth lemma of ``_walk``:
    each step's support lies strictly inside the previous step's (all
    vertices at the root), so no chain has more than z = #{v: (M.Z_0)_v
    = 0} steps; and the heap's order: the cycles come strictly ascending,
    Z_0 first, each after its parent; the number of nodes."""
    record = _rational(g)
    r = g.vertex_count
    z = pairing_vector(g, record.z0).count(0)
    nodes = list(_walk(g, record, r, True))
    cycles = [node[0] for node in nodes]
    assert cycles[0] == record.z0 and all(map(operator.lt, cycles, cycles[1:])), cycles
    rank = {cycle: k for k, cycle in enumerate(cycles)}
    for k, (cycle, chain, _, _, sums) in enumerate(nodes):
        if chain:
            assert rank[chain[-2][1] if len(chain) > 1 else record.z0] < k, cycle
        assert sums == cycle_sums(g, cycle, record.z0), cycle
        assert sums[2] == -record.multiplicity, cycle  # Z.Z_0 = Z_0^2
        assert len(chain) <= z, cycle
        inside = set(range(r))
        for y, _ in chain:
            support = {v for v, a in enumerate(y) if a}
            assert support < inside, cycle
            inside = support
    return len(nodes)


def check_one_chain(g: DualGraph) -> int:
    """Off the Gorenstein locus, assert the one-chain theorem of ``_walk``:
    the Ulrich cycles are totally ordered, Z_0 < U_1 < ... < U_m
    coefficientwise, and every Ulrich entry's chain is a prefix of the
    longest one, U_j's of j steps; the number of Ulrich entries, 0 on a
    Gorenstein graph."""
    if _rational(g).gorenstein:
        return 0
    ulrich = _classify(g, special=False)[1]
    cycles = [e.cycle for e in ulrich]
    assert all(all(map(operator.le, z, w)) for z, w in zip(cycles, cycles[1:])), cycles
    longest = ulrich[-1].chain.steps
    assert [e.chain.steps for e in ulrich] == [longest[:j] for j in range(len(ulrich))], cycles
    return len(ulrich)


def check_balanced_star(e: int, k: int) -> int:
    """Assert that both lists of ``_classify`` on ``corpus.balanced_star(e,
    k)`` equal its closed form ``corpus.balanced_star_ulrich(e, k)``, as
    (cycle, colength) pairs, and ``corpus.check_ulrich_numbers`` on every
    row; the number of Ulrich cycles, k + 1."""
    special, ulrich = _classify(balanced_star(e, k))
    rows = lambda entries: [(x.cycle, x.colength) for x in entries]
    assert rows(special) == balanced_star_ulrich(e, k) == rows(ulrich), (e, k)
    return check_ulrich_numbers(e, (x[1:4] for x in ulrich))


def step_ulrich(g: DualGraph) -> list[tuple]:
    """The Ulrich cycles of a rational graph with a heavy vertex (weight
    <= -3), by the one chain's step condition on the graph alone, with no
    walk code.  U_0 = Z_0.  From U_j, take the component of the zero
    locus of M.U_j inside the last step's support (every vertex at U_0)
    that holds every heavy vertex, and its fundamental cycle Y
    (``corpus.laufer_by_recomputation``); U_{j+1} = U_j + Y when Y keeps
    every heavy vertex v at n_v and U_j + Y is anti-nef.  The chain ends
    at the first U_j with no such component or no such step."""
    r = g.vertex_count
    z0 = laufer_by_recomputation(g, range(r))
    heavy = {v for v, w in enumerate(g.weights) if w <= -3}
    chain, inside = [z0], set(range(r))
    while True:
        pairing = pairing_vector(g, chain[-1])
        zeros = {v for v in inside if pairing[v] == 0}
        inside = next((c for c in components(g, zeros) if heavy <= c), None)
        if inside is None:
            return chain
        y = laufer_by_recomputation(g, inside)
        u = add(chain[-1], y)
        if any(y[v] != z0[v] for v in heavy) or max(pairing_vector(g, u)) > 0:
            return chain
        chain.append(u)


def step_mismatches(graphs) -> list[DualGraph]:
    """The graphs off the Gorenstein locus among ``graphs`` on which
    ``step_ulrich`` differs from the Ulrich list of ``_classify``."""
    return [g for g in graphs if not _rational(g).gorenstein
            and step_ulrich(g) != [e.cycle for e in _classify(g, special=False)[1]]]


def ulrich_table(graphs) -> dict[int, dict[int, int]]:
    """{e: {Ulrich cycles: classes}} over ``graphs``, by multiplicity e."""
    table = collections.defaultdict(collections.Counter)
    for g in graphs:
        table[_rational(g).multiplicity][len(_classify(g, special=False)[1])] += 1
    return {e: dict(counts) for e, counts in sorted(table.items())}


def ulrich_census(max_vertices: int) -> tuple:
    """``check_one_chain`` and the step condition on every rational class
    of the census with at most ``max_vertices`` vertices: (non-Gorenstein
    classes, their Ulrich entries, those with more than one, the classes
    where ``step_ulrich`` differs from ``_classify``, the Ulrich-count
    table by multiplicity)."""
    graphs = census_graphs(max_vertices)
    counts = [check_one_chain(g) for g in graphs]
    return (sum(map(bool, counts)), sum(counts), sum(c > 1 for c in counts),
            step_mismatches(graphs), ulrich_table(graphs))


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
    fundamental = functools.lru_cache(maxsize=None)(functools.partial(laufer_by_recomputation, g))
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


def test_ulrich_cycles_off_the_gorenstein_locus_form_one_chain():
    counts = [check_one_chain(g) for g in census_graphs(6)]
    # (non-Gorenstein classes, their Ulrich entries, those with more than one)
    assert (sum(map(bool, counts)), sum(counts), sum(c > 1 for c in counts)) == (2039, 2052, 13)


def test_ulrich_step_condition_on_the_graph_alone():
    stars = [balanced_star(e, k) for e in range(3, 9) for k in range(1, 13)]
    assert step_mismatches(census_graphs(6) + stars) == []
    # The 6-vertex census's Ulrich counts by multiplicity e: from e = 5
    # on, one Ulrich cycle on every class.
    one_each = zip(range(5, 17), (156, 269, 334, 374, 316, 241, 135, 70, 22, 8, 1, 1))
    assert ulrich_table(census_graphs(6)) == {
        2: {1: 2, 2: 3, 3: 3, 4: 1, 5: 1},
        3: {1: 18, 2: 9},
        4: {1: 81, 2: 4},
        **{e: {1: classes} for e, classes in one_each},
    }


def test_balanced_stars_have_k_plus_one_ulrich_cycles():
    # Every special cycle of S(e, k) is Ulrich, and there are k + 1 of
    # them: no bound on the number of Ulrich cycles at any multiplicity.
    assert sum(check_balanced_star(e, k) for e in range(3, 9) for k in range(1, 13)) == 540


def test_oracle_agrees_on_balanced_stars():
    # Each bound holds every cycle of colength <= k + 1, so it holds both
    # of the walk's lists; MAX_BOX refuses S(5, 2) at bound r = 11.
    for e, k, bound in ((4, 2, 9), (5, 1, 6), (6, 1, 7), (5, 2, 4), (4, 3, 5), (3, 4, 6)):
        cycles = [z for z, _ in balanced_star_ulrich(e, k)]
        assert oracle_classify(balanced_star(e, k), bound) == (cycles, cycles), (e, k, bound)


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
    fundamental = functools.partial(laufer_by_recomputation, g)
    assert chain_verdicts(g, (1, 1, 1), (1, 1, 1), fundamental) == (True, True)
    assert chain_verdicts(g, (1, 2, 1), (1, 1, 1), fundamental) == (True, True)
    assert chain_verdicts(g, (2, 2, 2), (1, 1, 1), fundamental) == (False, False)
