"""Exhaustive census of small rational trees: the chain walk against the
oracle on every vertex-weighted tree up to isomorphism.

Trees are grown one leaf at a time (``corpus.tree_classes``) and kept
once per isomorphism class, keyed by a canonical encoding: the tree
rooted at a centre, each vertex written as "(" + its -weight + its
children's encodings in sorted order + ")", and the least such string
over the one or two centres.  Every class is built from its encoding,
vertices numbered in the encoding's preorder, so the census does not
depend on how the classes were found.

On every rational class the special and Ulrich cycles of ``_classify``
must equal ``oracle_classify(g, b)`` at b = max(2, the largest colength
listed): a special cycle of colength l has every a_i <= n_i l, so it lies
in l Z_0's box, and every cycle listed meets the oracle.  One seeded
random relabelling must give the relabelled entries, witness chains
included.  Up to 5 vertices (6 in CI), a second check sets the oracle's
bound a priori, to r: ``_walk``'s depth lemma puts every walked cycle's
colength at most r.
Run the 7-vertex census with ``PYTHONPATH=src:tests python -c "import
test_census; print(test_census.census(7))"``.
"""

import collections
import random
import time
from typing import NamedTuple

from dualcycles.builders import build_ade
from dualcycles.classify import _classify, oracle_classify
from dualcycles.invariants import fundamental_cycle, validate
from dualcycles.lattice import DualGraph
from corpus import canonical, graph_of, tree_classes


def entries(special, ulrich, label=lambda v: v) -> list:
    """The entries of both lists with vertices renamed by ``label``, chains
    included: each cycle has one chain, so it does not depend on the
    labelling."""
    def relabel(z):
        out = [0] * len(z)
        for v, a in enumerate(z):
            out[label(v)] = a
        return tuple(out)

    def key(e):
        indices = frozenset(map(label, e.module_indices))
        chain = relabel(e.chain.base), tuple((relabel(y), relabel(z)) for y, z in e.chain.steps)
        return relabel(e.cycle), e.colength, e.multiplicity, e.min_gens, indices, e.kind, chain

    return [sorted(map(key, special)), sorted(map(key, ulrich))]


class Census(NamedTuple):
    classes: int
    rational: int
    ulrich_counts: dict[int, int]  # number of Ulrich cycles -> classes
    multi_ulrich_non_gorenstein: list[str]  # encodings


def census(max_vertices: int, seed: int = 1) -> Census:
    """Both routes on every rational tree class with at most
    ``max_vertices`` vertices, and a relabelling of each; AssertionError
    on the first class where they disagree."""
    rng = random.Random(seed)
    codes = tree_classes(max_vertices)
    rational, counts, multi = 0, collections.Counter(), []
    for code in codes:
        g = graph_of(code)
        rep = validate(g)
        if not rep.rational:
            continue
        rational += 1
        z0 = fundamental_cycle(g)
        cap = 2 * sum(z0) + 1
        special, ulrich = _classify(g, cap)
        # A special cycle in b Z_0's box has colength <= b <= cap, so the
        # oracle finds no special cycle that the cap left out.
        bound = max(2, *(e.colength for e in special))
        cycles = lambda es: sorted(e.cycle for e in es)
        assert (cycles(special), cycles(ulrich)) == oracle_classify(g, bound), code

        r = g.vertex_count
        perm = rng.sample(range(r), r)  # vertex v becomes perm[v]
        inverse = sorted(range(r), key=perm.__getitem__)
        h = DualGraph([g.weights[v] for v in inverse], [(perm[i], perm[j]) for i, j in g.edges])
        assert entries(*_classify(h, cap)) == entries(special, ulrich, perm.__getitem__), code

        counts[len(ulrich)] += 1
        if len(ulrich) > 1 and not rep.gorenstein:
            multi.append(code)
    return Census(len(codes), rational, dict(counts), multi)


# The non-Gorenstein classes with more than one Ulrich cycle, up to six
# vertices: a unique Ulrich cycle is a cyclic-quotient fact, not a
# non-Gorenstein one.
MULTI_ULRICH_NON_GORENSTEIN_6 = [
    "(2(2(2)(2))(3(2)))",
    "(2(2(2))(2(2))(3))",
    "(2(2(2))(2)(3(2)))",
    "(2(2(2))(3(2)(2)))",
    "(2(2)(2)(3(2)))",
    "(2(2)(2)(4(2)(2)))",
    "(2(2)(3(2)(2)))",
    "(2(2)(4(2)(2)(2)))",
    "(3(2(2)(2))(2(2)))",
    "(3(2(2))(2(2))(2))",
    "(3(2)(2)(2))",
    "(3(2)(2)(3(2)(2)))",
    "(4(2)(2)(2)(2))",
]


def test_encoding_is_canonical():
    # Decoding and encoding again gives the same string, and a tree
    # numbered another way gets the same encoding.
    for code in tree_classes(5):
        g = graph_of(code)
        assert canonical(g.weights, g.edges) == code
    star = canonical((-3, -2, -2, -2, -2), [(0, 1), (0, 3), (1, 2), (1, 4)])
    assert star == canonical((-2, -2, -2, -3, -2), [(3, 4), (3, 0), (4, 1), (4, 2)])
    assert star == "(2(2)(2)(3(2)))"


def test_census_of_trees_up_to_six_vertices():
    start = time.monotonic()
    got = census(6)
    elapsed = time.monotonic() - start
    histogram = {1: 2028, 2: 16, 3: 3, 4: 1, 5: 1}
    assert got == Census(2217, 2049, histogram, MULTI_ULRICH_NON_GORENSTEIN_6)
    # Two Ulrich cycles on weights (-3, -2, -2, -2, -2), edges 1-2, 1-4,
    # 2-3, 2-5: not Gorenstein, not a cyclic quotient.
    g = DualGraph((-3, -2, -2, -2, -2), [(0, 1), (0, 3), (1, 2), (1, 4)])
    assert validate(g).multiplicity == 3
    assert len(_classify(g)[1]) == 2
    print(f"PASS census: {got.classes} classes, {got.rational} rational, {elapsed:.2f}s")
    assert elapsed < 3.0, f"took {elapsed:.2f}s"


def oracle_at_the_depth_lemma_bound(max_vertices: int) -> int:
    """Both lists of ``_classify`` against ``oracle_classify`` at bound r on
    every rational tree class with at most ``max_vertices`` vertices, then
    on A_1-A_10, D_4-D_10 and E_6-E_8; returns the number of rational
    classes, AssertionError on the first graph where the routes differ.

    The bound is r, set before the walk runs, not read off its output as
    ``census`` does: a chain has at most r - 1 steps (``_walk``), so no
    walked cycle has colength above r, and the box at bound r holds every
    cycle of colength at most r.  So both lists must equal the oracle's
    there.
    """
    graphs = [g for g in map(graph_of, tree_classes(max_vertices)) if validate(g).rational]
    rational = len(graphs)
    graphs += [build_ade(family, n) for family, ns in
               (("A", range(1, 11)), ("D", range(4, 11)), ("E", (6, 7, 8))) for n in ns]
    for g in graphs:
        special, ulrich = _classify(g)
        cycles = lambda es: [e.cycle for e in es]
        assert oracle_classify(g, g.vertex_count) == (cycles(special), cycles(ulrich)), g
    return rational


def test_oracle_at_the_depth_lemma_bound_equals_the_walk():
    # CI runs the same at 6 vertices, on 2,049 rational classes.
    assert oracle_at_the_depth_lemma_bound(5) == 429
