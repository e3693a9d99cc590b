"""Tests for the classification layer: chain enumerators, oracle, tables."""

import copy
import gc
import inspect
import itertools
import math
import pickle
import resource
import sys
import time
import tracemalloc
import weakref

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dualcycles
from dualcycles import classify, invariants, lattice
from dualcycles.builders import MAX_VERTICES, build_ade, build_cyclic
from dualcycles.classify import (
    _box_search,
    _classify,
    _walk,
    _zero_components,
    brute_force_anti_nef,
    enumerate_special,
    enumerate_ulrich,
    expected_ulrich_count,
    golden_table,
    oracle_classify,
    verify_rdp,
)
from dualcycles.invariants import (
    InvalidGraphError,
    colength,
    fundamental_cycle,
    is_anti_nef,
    is_negative_definite,
    is_special_cycle,
    is_ulrich_cycle,
    min_gens,
    multiplicity,
    special_module_indices,
    u_invariant,
    validate,
    virtual_genus,
)
from dualcycles.lattice import DualGraph, pairing_vector
from corpus import (
    INDEFINITE_STAR,
    ORACLE_CORPUS,
    STAR,
    canonical_degree,
    chain_cycles_in_box,
    components,
    connected_graphs,
    counting,
    cycle_sums,
    graph_of,
    intersection,
    oracle_graph,
    random_trees,
    run_child,
    scale,
    tree_classes,
)

# A chain 0-1-2-3 into a -3 fork at 4 with arms 5-6 and 7: the branch
# vertex is far from vertex 0, and its nearest leaf is 7.
FAR_BRANCH = DualGraph(
    (-2, -2, -2, -2, -3, -2, -2, -2),
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)],
)


class TestGuards:
    def test_rejects_invalid_graph(self):
        g = DualGraph((-2, -2), [])  # disconnected
        with pytest.raises(InvalidGraphError):
            enumerate_special(g, 3)
        with pytest.raises(InvalidGraphError):
            enumerate_ulrich(g)
        with pytest.raises(InvalidGraphError):
            oracle_classify(g, 2)

    def test_rejects_non_minimal_graph(self):
        # validate refuses a weight > -2, and so do the classifiers: the
        # chain criteria need K.E_v >= 0 at every vertex.
        g = DualGraph((-3, -1), [(0, 1)])
        assert not validate(g).ok
        for call in (
            lambda: enumerate_special(g, 3),
            lambda: enumerate_ulrich(g),
            lambda: oracle_classify(g, 2),
            lambda: is_special_cycle(g, (1, 1)),
            lambda: is_ulrich_cycle(g, (1, 1)),
        ):
            with pytest.raises(InvalidGraphError, match="not a minimal resolution"):
                call()
        assert brute_force_anti_nef(g, 1) == [(1, 1)]  # needs definiteness only

    def test_brute_force_refuses_disconnected_graph(self):
        # Definite, so it once reached Laufer's loop and raised a bare
        # ValueError about a support that was never given.
        g = DualGraph((-2,) * 4, [(0, 1), (2, 3)])
        with pytest.raises(InvalidGraphError, match="^graph is not connected$"):
            brute_force_anti_nef(g, 1)

    @pytest.mark.parametrize(
        "g",
        [
            INDEFINITE_STAR,
            DualGraph((-2, -2, -1, -1), [(0, 1), (2, 3)]),  # disconnected and indefinite
        ],
        ids=["indefinite", "disconnected-indefinite"],
    )
    def test_brute_force_fails_as_the_fundamental_cycle_does(self, g):
        with pytest.raises(InvalidGraphError) as fundamental:
            fundamental_cycle(g)
        with pytest.raises(InvalidGraphError) as brute:
            brute_force_anti_nef(g, 1)
        assert str(brute.value) == str(fundamental.value)

    def test_classifying_keeps_no_graph_alive(self):
        # Classifying many distinct graphs, by both routes, keeps none of
        # them alive once dropped: no report or search plan is stored
        # between calls.  Memos bounded by count once kept 256 of them.
        # The graphs are distinct: the chain determines n/q.
        pairs = ((n, q) for n in itertools.count(5) for q in (1, 2, 3) if math.gcd(n, q) == 1)
        refs = []
        for n, q in itertools.islice(pairs, 1000):
            g = build_cyclic(n, q)
            enumerate_ulrich(g)
            oracle_classify(g, 1)
            refs.append(weakref.ref(g))
        del g
        gc.collect()
        assert sum(r() is not None for r in refs) == 0

    def test_dropped_graphs_release_their_memory(self):
        # 40 distinct 2,000-vertex -3 chains (one path, relabelled by a
        # rotation), each validated, classified and dropped in turn: the
        # traced memory falls back to where it was.  A memo bounded by
        # count held every one, about 0.44 MB each (17.7 MB in all).  The
        # child's address space is capped, in the child only.
        code = (
            "import gc, tracemalloc\n"
            "from dualcycles import DualGraph, enumerate_ulrich, validate\n"
            "r = 2000\n"
            "tracemalloc.start()\n"
            "gc.collect()\n"
            "before = tracemalloc.get_traced_memory()[0]\n"
            "for k in range(40):\n"
            "    path = [*range(k, r), *range(k)]\n"
            "    g = DualGraph((-3,) * r, zip(path, path[1:]))\n"
            "    assert validate(g).ok and len(enumerate_ulrich(g)) == 1\n"
            "    del g, path\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0] - before)\n"
        )
        cap = 2**30  # 1 GB

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = run_child("-c", code, timeout=120, preexec_fn=limit)
        assert proc.returncode == 0, proc.stderr
        assert abs(int(proc.stdout)) < 2**20

    def test_rejects_bad_bounds(self):
        g = build_ade("A", 2)
        with pytest.raises(ValueError):
            enumerate_special(g, 0)
        with pytest.raises(ValueError):
            brute_force_anti_nef(g, 0)

    def test_box_limit_counts_coefficients(self, monkeypatch):
        # A box of exactly MAX_BOX coefficients is searched; one fewer is
        # refused, whatever the bound.
        g = build_ade("E", 6)
        held = len(brute_force_anti_nef(g, 3)) * g.vertex_count
        monkeypatch.setattr(classify, "MAX_BOX", held)
        assert len(brute_force_anti_nef(g, 3)) * g.vertex_count == held
        assert oracle_classify(g, 3)[0]
        monkeypatch.setattr(classify, "MAX_BOX", held - 1)
        for search in (brute_force_anti_nef, oracle_classify):
            with pytest.raises(classify.BoxLimitError, match=f"more than {held - 1} coefficients"):
                search(g, 3)
        with pytest.raises(classify.BoxLimitError):
            oracle_classify(g, 10**9)

    @pytest.mark.parametrize("bound", [1, 2, 5])
    def test_box_limit_at_its_edge_on_one_leaf_interval(self, monkeypatch, bound):
        # On one vertex the whole box is the last position's interval: bound
        # cycles of one coefficient each, checked before they are appended.
        g = build_ade("A", 1)
        monkeypatch.setattr(classify, "MAX_BOX", bound)
        assert brute_force_anti_nef(g, bound) == [(a,) for a in range(1, bound + 1)]
        monkeypatch.setattr(classify, "MAX_BOX", bound - 1)
        with pytest.raises(classify.BoxLimitError) as refused:
            brute_force_anti_nef(g, bound)
        assert refused.value.args == (
            f"the box holds more than {bound - 1} coefficients "
            "of anti-nef cycles (cycles times vertices)",
        )

    def test_box_search_refuses_indefinite_graph_in_time(self):
        # A -2 centre with five -2 leaves: Laufer's loop never ends on it.
        code = (
            "from dualcycles.classify import brute_force_anti_nef\n"
            "from dualcycles.invariants import InvalidGraphError\n"
            "from dualcycles.lattice import DualGraph\n"
            "g = DualGraph((-2,) * 6, [(0, i) for i in range(1, 6)])\n"
            "try:\n"
            "    brute_force_anti_nef(g, 1)\n"
            "except InvalidGraphError:\n"
            "    print('refused')\n"
        )
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "refused\n"


class TestBruteForce:
    @pytest.mark.parametrize(
        "family, index, bound",
        [
            *(("A", 1, bound) for bound in (1, 2, 3)),  # one vertex: the box is one leaf interval
            ("A", 3, 4), ("A", 5, 3), ("D", 4, 3), ("D", 6, 2),
            ("E", 6, 2), ("E", 7, 1), ("E", 8, 1),
        ],
    )
    def test_matches_naive_enumeration(self, family, index, bound):
        g = build_ade(family, index)
        assert brute_force_anti_nef(g, bound) == naive_anti_nef(g, bound)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_naive_enumeration_on_random_graphs(self, data):
        g = data.draw(connected_graphs(6, -6))
        bound = data.draw(st.integers(1, 4))
        if not is_negative_definite(g):
            with pytest.raises(InvalidGraphError):
                brute_force_anti_nef(g, bound)
            return
        z0 = fundamental_cycle(g)
        while bound > 1 and math.prod(bound * n + 1 for n in z0) > 5000:
            bound -= 1
        assume(math.prod(bound * n + 1 for n in z0) <= 5000)
        assert brute_force_anti_nef(g, bound) == naive_anti_nef(g, bound)

    @pytest.mark.parametrize(
        "g, bounds",
        [
            (build_cyclic(5, 1), (1, 2, 3)),  # one vertex
            (build_cyclic(13, 5), (1, 2, 3)),  # a chain
            (FAR_BRANCH, (1, 2)),
            # two vertices: the last two positions' nested loop and no main loop
            (build_cyclic(5, 2), (1, 2, 3)),
            (build_cyclic(7, 4), (1, 2, 3)),
        ],
    )
    def test_matches_naive_enumeration_beyond_ade(self, g, bounds):
        for bound in bounds:
            assert brute_force_anti_nef(g, bound) == naive_anti_nef(g, bound)

    @pytest.mark.parametrize(
        "g, start",
        [
            *((build_ade("D", n), n - 2) for n in (5, 6, 12)),
            (build_ade("E", 6), 5),
            (build_ade("E", 7), 6),
            (build_ade("E", 8), 7),
            (  # a star: arms 2-1-0, 4 and 5-6 round a -3 centre, 3
                DualGraph(
                    (-2, -2, -2, -3, -2, -2, -2), [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (5, 6)]
                ),
                4,
            ),
            (FAR_BRANCH, 7),
            *((build_ade("A", n), 0) for n in (1, 2, 5)),
            (DualGraph((-2, -2, -2), [(0, 1), (0, 2)]), 1),  # a chain: its lowest-index leaf
        ],
    )
    def test_search_starts_at_the_leaf_nearest_a_branch_vertex(self, monkeypatch, g, start):
        # The order is seen through the plans it is handed; the results
        # are sorted, so they cannot show it.
        orders = []
        plans = classify._lower_bound_plans

        def spy(g, order):
            orders.append(order)
            return plans(g, order)

        monkeypatch.setattr(classify, "_lower_bound_plans", spy)
        brute_force_anti_nef(g, 1)
        assert [order[0] for order in orders] == [start]

    def test_search_is_planned_once_per_request(self, monkeypatch):
        # The order, the step tuples and the lower-bound plans do not
        # depend on the box: each request on E_8 validates its graph once
        # and plans its search once, off that report, whatever the bound.
        calls = []
        monkeypatch.setattr(classify, "_lower_bound_plans",
                            counting(calls, "plans", classify._lower_bound_plans))
        spy = counting(calls, "validate", invariants.validate)
        monkeypatch.setattr(invariants, "validate", spy)  # the one module holding it
        g = build_ade("E", 8)
        for bound in (4, 5, 6):
            calls.clear()
            special, ulrich = oracle_classify(g, bound)
            assert ulrich == [z for z, _ in golden_table("E", 8)]
            assert ulrich is special  # multiplicity 2: one sorted list for both
            assert calls == ["validate", "plans"]
            calls.clear()
            assert len(brute_force_anti_nef(g, bound)) >= len(special)
            assert calls == ["validate", "plans"]

    def test_every_result_is_anti_nef_and_in_box(self):
        g = STAR
        box = scale(3, fundamental_cycle(g))
        for z in brute_force_anti_nef(g, 3):
            assert is_anti_nef(g, z)
            assert all(0 <= a <= b for a, b in zip(z, box))

    def test_contains_fundamental_multiples(self):
        g = build_cyclic(19, 7)
        z0 = fundamental_cycle(g)
        cycles = set(brute_force_anti_nef(g, 4))
        for k in (1, 2, 3, 4):
            assert scale(k, z0) in cycles


class TestPointwiseTests:
    def test_fundamental_cycle_is_always_special(self):
        for g in (build_ade("A", 6), build_ade("E", 7), STAR, build_cyclic(11, 4)):
            assert is_special_cycle(g, fundamental_cycle(g))

    def test_fundamental_cycle_is_always_ulrich(self):
        for g in (build_ade("D", 7), STAR, build_cyclic(7, 3)):
            assert is_ulrich_cycle(g, fundamental_cycle(g))

    def test_cyclic_7_3(self):
        g = build_cyclic(7, 3)
        assert is_special_cycle(g, (1, 2, 1))
        assert not is_ulrich_cycle(g, (1, 2, 1))

    def test_rdp_special_and_ulrich_coincide(self):
        g = build_ade("A", 5)
        for z in brute_force_anti_nef(g, 4):
            assert is_special_cycle(g, z) == is_ulrich_cycle(g, z)


class TestEnumerators:
    def test_a3_special_cycles(self):
        g = build_ade("A", 3)
        got = {e.cycle for e in enumerate_special(g, 2)}
        assert got == {(1, 1, 1), (1, 2, 1)}

    def test_d5_ulrich_cycles(self):
        g = build_ade("D", 5)
        got = {e.cycle for e in enumerate_ulrich(g)}
        assert got == {(1, 2, 2, 1, 1), (1, 2, 3, 2, 2), (2, 2, 2, 1, 1)}

    def test_star_special_equals_ulrich(self):
        sp = {e.cycle for e in enumerate_special(STAR, 20)}
        ul = {e.cycle for e in enumerate_ulrich(STAR)}
        assert sp == ul
        assert len(sp) == 3

    def test_cyclic_7_3_sets(self):
        g = build_cyclic(7, 3)
        assert {e.cycle for e in enumerate_special(g, 6)} == {(1, 1, 1), (1, 2, 1)}
        assert [e.cycle for e in enumerate_ulrich(g)] == [(1, 1, 1)]
        assert u_invariant(g, (1, 2, 1)) != 0

    def test_entries_carry_consistent_invariants(self):
        g = build_ade("E", 7)
        for e in enumerate_ulrich(g):
            assert e.colength == colength(g, e.cycle)
            assert u_invariant(g, e.cycle) == 0
            assert [e.chain.base, *(zk for _, zk in e.chain.steps)][-1] == e.cycle
            assert e.kind == "both"

    def test_chain_witnesses_rebuild_the_cycle(self):
        for e in enumerate_special(build_ade("D", 8), 6):
            acc = list(e.chain.base)
            for y, zk in e.chain.steps:
                acc = [a + b for a, b in zip(acc, y)]
                assert tuple(acc) == zk
            assert tuple(acc) == e.cycle

    def test_chain_walk_does_not_recurse_per_step(self):
        # A_301's Ulrich chains have 150 steps; a recursive walk needs a
        # frame per step.
        g = build_ade("A", 301)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            entries = enumerate_ulrich(g)
        finally:
            sys.setrecursionlimit(limit)
        assert len(entries) == expected_ulrich_count("A", 301)
        assert max(len(e.chain.steps) for e in entries) == 150

    def test_ulrich_walk_skips_components_without_every_heavy_vertex(self, monkeypatch):
        # A 100-vertex chain with one -3, at vertex 41: Z_0's zero locus is
        # two components, of 39 and 58 vertices, and neither holds the -3,
        # so neither can start an Ulrich chain and no Laufer loop runs.
        g = DualGraph(tuple(-3 if i == 40 else -2 for i in range(100)),
                      [(i, i + 1) for i in range(99)])
        real, sizes = classify._laufer, []

        def spy(g, verts, *args):
            sizes.append(len(verts))
            return real(g, verts, *args)

        monkeypatch.setattr(classify, "_laufer", spy)
        assert [e.cycle for e in enumerate_ulrich(g)] == [(1,) * 100]
        assert sizes == []
        assert len(enumerate_special(g, 2)) == 3  # depth 1 walks both components
        assert sorted(sizes) == [39, 58]  # in search order, which is not part of the contract

    @pytest.mark.parametrize("n, q", [(37, 10), (395, 296)], ids=["37-10", "395-296"])
    def test_ulrich_walk_searches_no_zero_locus_that_yields_no_step(self, monkeypatch, n, q):
        # Z_0 = (1, ..., 1) pairs to w + 2 <= -1 with each -3 or lower vertex
        # of these chains ((1/37)(1,10) is -4 -4 -2 -2; (1/395)(1,296) has
        # 100 vertices and one -3), which then lies in no zero-locus
        # component: no step past Z_0 can keep K, so the walk searches none.
        g = build_cyclic(n, q)
        reference = _classify(g)[1]  # both lists: the search runs to full depth
        calls = []
        for name in ("_zero_components", "_reach"):
            real = getattr(classify, name)
            monkeypatch.setattr(classify, name, lambda *a, real=real, name=name: (
                calls.append(name) or real(*a)))
        assert enumerate_ulrich(g) == reference
        assert [e.cycle for e in reference] == [(1,) * g.vertex_count]
        assert calls == []

    @pytest.mark.parametrize("family, index, work", [
        ("A", 400, (200, 199, 39_800, 199)),
        ("D", 300, (152, 299, 22_499, 299)),
        ("E", 8, (2, 2, 13, 2)),
    ], ids=["A400", "D300", "E8"])
    def test_walk_work_is_exact(self, monkeypatch, family, index, work):
        # The full walk's work, counted: (nodes, Laufer loops, vertices
        # those loops start from, zero-locus searches).  One loop per
        # candidate component and one search per component, so a walk
        # that re-scans a component or re-walks a chain fails here on any
        # machine.
        g = build_ade(family, index)
        record = validate(g)
        sizes, searches = [], []
        laufer, reach = classify._laufer, classify._reach
        monkeypatch.setattr(classify, "_laufer", lambda g, verts, *a: (
            sizes.append(len(verts)) or laufer(g, verts, *a)))
        monkeypatch.setattr(classify, "_reach", counting(searches, "_reach", reach))
        best = _walk(g, record, math.inf, True)
        assert (len(best), len(sizes), sum(sizes), len(searches)) == work

    @pytest.mark.parametrize("family, index", [("A", 400), ("D", 300)], ids=["A400", "D300"])
    def test_walk_peak_memory_is_about_what_it_returns(self, family, index):
        # The stack holds one item per pending candidate step, sharing its
        # parent's pairing list, so the walk peaks at about what it
        # returns: 1.00 on A_400 and 1.19 on D_300.  A stack that kept a
        # zero-locus set for every node on the path peaks near 2.
        g = build_ade(family, index)
        record = validate(g)
        gc.collect()
        tracemalloc.start()
        try:
            best = _walk(g, record, math.inf, True)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(best) > 100
        assert peak <= 1.4 * held, (peak, held)

    ENTRY_CORPUS = {
        "ade": [
            build_ade(f, n)
            for f, ns in (("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8)))
            for n in ns
        ],
        "cyclic": [
            build_cyclic(n, q) for n in range(2, 31) for q in range(1, n) if math.gcd(n, q) == 1
        ],
        "minus3_chains": [
            DualGraph(
                tuple(-3 if i == at else -2 for i in range(r)),
                [(i, i + 1) for i in range(r - 1)],
            )
            for r, at in ((4, 0), (7, 3), (12, 5), (20, 19))
        ],
    }

    @pytest.mark.parametrize("corpus", list(ENTRY_CORPUS))
    def test_entries_agree_with_public_invariants(self, corpus):
        # The entries and the public functions read one formula site; the
        # reference here is built from the lattice definitions instead.
        for g in self.ENTRY_CORPUS[corpus]:
            z0 = fundamental_cycle(g)
            mult2 = -intersection(g, z0, z0) == 2
            for e in enumerate_special(g, 10 * g.vertex_count) + enumerate_ulrich(g):
                z = e.cycle
                zz, z0z = intersection(g, z, z), intersection(g, z0, z)
                genus = (zz + canonical_degree(g, z)) // 2 + 1
                assert genus == virtual_genus(g, z)
                ell = 1 - genus
                indices = frozenset(i for i, (a, n) in enumerate(zip(z, z0)) if a == n * ell)
                u = z0z * (genus - 1) + zz
                expected = (ell, -zz, 1 - z0z, indices)
                assert (e.colength, e.multiplicity, e.min_gens, e.module_indices) == expected
                public = (colength, multiplicity, min_gens, special_module_indices)
                assert tuple(f(g, z) for f in public) == expected
                assert u_invariant(g, z) == u
                special, ulrich = bool(indices), bool(indices) if mult2 else u == 0
                assert special and is_special_cycle(g, z)  # an Ulrich cycle is special
                assert (e.kind == "both") == ulrich == is_ulrich_cycle(g, z)

    @pytest.mark.parametrize(
        "g, longest, count",
        [(build_ade("A", 9), 4, 5), (build_ade("D", 8), 3, 6), (STAR, 2, 3)],
        ids=["A9", "D8", "star"],
    )
    def test_one_walk_gives_both_lists(self, g, longest, count):
        entries = enumerate_ulrich(g)
        assert len(entries) == count
        assert max(len(e.chain.steps) for e in entries) == longest
        for max_colength in (None, 1, longest, longest + 1, longest + 2, 10 * g.vertex_count):
            special, ulrich = _classify(g, max_colength)
            cap = 10 * g.vertex_count if max_colength is None else max_colength
            assert special == enumerate_special(g, cap)
            assert ulrich == entries
            assert (special is ulrich) == (special == ulrich)

    def test_special_respects_colength_cap(self):
        g = build_ade("A", 9)
        for cap in (1, 2, 3):
            assert all(e.colength <= cap for e in enumerate_special(g, cap))


@pytest.mark.parametrize(
    "family, index",
    [("A", 0), ("A", -3), ("D", 3), ("E", 5), ("E", 9), ("F", 4),
     ("A", MAX_VERTICES + 1), ("D", 10**30)],
)
def test_bad_ade_type_is_refused_alike(family, index):
    messages = set()
    for fn in (build_ade, golden_table, expected_ulrich_count):
        with pytest.raises(ValueError) as info:
            fn(family, index)
        messages.add(str(info.value))
    assert len(messages) == 1


class TestOracleAgreement:
    @pytest.mark.parametrize("kind, a, b", ORACLE_CORPUS)
    def test_chain_route_equals_oracle(self, kind, a, b):
        g = oracle_graph(kind, a, b)
        assert chain_cycles_in_box(g, 4) == oracle_classify(g, 4)

    @pytest.mark.parametrize("index", [7, 8])
    def test_large_bounds_match_golden_table_and_chain_route(self, index):
        g = build_ade("E", index)
        golden = [z for z, _ in golden_table("E", index)]
        start = time.monotonic()
        for bound in (7, 8, 9):
            special, ulrich = chain_cycles_in_box(g, bound)
            assert ulrich == golden
            assert oracle_classify(g, bound) == (special, golden)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"took {elapsed:.2f}s"

    def test_oracle_reuses_the_box_search_pairing(self, monkeypatch):
        # Each boxed cycle's invariants are read off the sums the box
        # search keeps; no pairing vector is built per cycle.
        g = build_ade("E", 8)
        expected = oracle_classify(g, 6)  # the validate report is built here
        calls = []
        spy = counting(calls, "pairing_vector", pairing_vector)
        for module in (invariants, lattice):  # every module holding the name
            monkeypatch.setattr(module, "pairing_vector", spy)
        assert oracle_classify(g, 6) == expected
        assert len(calls) <= 1  # one per boxed cycle, 61, when built per cycle

    def test_oracle_evaluates_invariants_once_per_request(self, monkeypatch):
        # One formula-site call reads the verdicts of all 61 boxed cycles
        # off the search's sums; no cycle gets a pointwise call of its own,
        # and no row is reduced.
        g = build_ade("E", 8)
        expected = oracle_classify(g, 6)
        assert len(brute_force_anti_nef(g, 6)) == 61
        calls = []
        for name in ("_pointwise", "_formulas"):
            wrapper = counting(calls, name, getattr(invariants, name, None))
            for module in (invariants, classify):
                monkeypatch.setattr(module, name, wrapper, raising=False)
        assert oracle_classify(g, 6) == expected
        assert calls == ["_formulas"]  # 61 _pointwise calls when evaluated per cycle


class TestGoldenTables:
    @pytest.mark.parametrize(
        "family, index",
        [("A", n) for n in range(1, 13)]
        + [("D", n) for n in range(4, 13)]
        + [("E", n) for n in (6, 7, 8)],
    )
    def test_table_entries_are_anti_nef_with_stated_colength(self, family, index):
        g = build_ade(family, index)
        table = golden_table(family, index)
        assert len(table) == expected_ulrich_count(family, index)
        for z, ell in table:
            assert is_anti_nef(g, z)
            assert colength(g, z) == ell
            assert is_ulrich_cycle(g, z)

    def test_d5_table_values(self):
        assert golden_table("D", 5) == [
            ((1, 2, 2, 1, 1), 1),
            ((1, 2, 3, 2, 2), 2),
            ((2, 2, 2, 1, 1), 2),
        ]

    def test_verify_rdp_matches(self):
        for family, index in [("A", 4), ("D", 6), ("E", 8)]:
            rep = verify_rdp(family, index)
            assert rep.matched
            assert not rep.missing and not rep.extra

    def test_verify_rdp_reports_are_complete(self):
        rep = verify_rdp("E", 7)
        assert rep.expected_count == 3 == len(rep.actual)
        assert rep.family == "E" and rep.index == 7

    def test_verify_rdp_reports_a_disagreeing_table(self, monkeypatch):
        # A_4's Ulrich cycles are (1,1,1,1) of colength 1 and (1,2,2,1) of
        # colength 2; this table misses one, adds one and misstates one.
        monkeypatch.setattr(
            classify, "golden_table", lambda family, index: [((1, 1, 1, 1), 2), ((2, 2, 2, 2), 1)]
        )
        rep = verify_rdp("A", 4)
        assert not rep.matched
        assert rep.missing == [(2, 2, 2, 2)]
        assert rep.extra == [(1, 2, 2, 1)]
        assert rep.colength_mismatches == [((1, 1, 1, 1), 2, 1)]
        assert rep.actual == [((1, 1, 1, 1), 1), ((1, 2, 2, 1), 2)]


def naive_anti_nef(g: DualGraph, bound: int) -> list:
    """Every point of the box 0..bound * Z_0, filtered by the definition."""
    box = scale(bound, fundamental_cycle(g))
    return sorted(
        z
        for z in itertools.product(*(range(b + 1) for b in box))
        if any(z) and is_anti_nef(g, z)
    )


@settings(max_examples=40, deadline=None)
@given(random_trees(7))
def test_random_graph_chain_route_equals_oracle(g):
    rep = validate(g)
    assume(rep.connected and rep.negative_definite and rep.rational)
    assert chain_cycles_in_box(g, 3) == oracle_classify(g, 3)


@settings(max_examples=60, deadline=None)
@given(random_trees(7), st.integers(1, 3))
@example(build_ade("E", 6), 3)  # multiplicity 2: Ulrich is special
@example(build_cyclic(7, 3), 4)  # multiplicity 3, with an Ulrich cycle
@example(STAR, 2)  # multiplicity 3
def test_oracle_equals_a_naive_filter_of_the_box(g, bound):
    # The oracle's verdicts, read in one columnar pass, against the
    # definitions evaluated cycle by cycle with the lattice's public
    # functions: special when some a_i = n_i * colength(Z); Ulrich when
    # special at multiplicity 2, else when U(Z) = (Z.Z_0)(p_a(Z) - 1) + Z^2
    # vanishes.  Most random trees have a vertex of weight <= -3, so the
    # U(Z) path runs.
    rep = validate(g)
    assume(rep.connected and rep.negative_definite and rep.rational)
    z0 = fundamental_cycle(g)
    special, ulrich = [], []
    for z in brute_force_anti_nef(g, bound):
        genus = virtual_genus(g, z)
        saturated = any(a == n * (1 - genus) for a, n in zip(z, z0))
        u = intersection(g, z, z0) * (genus - 1) + intersection(g, z, z)
        if saturated:
            special.append(z)
        if saturated if rep.multiplicity == 2 else u == 0:
            ulrich.append(z)
    assert oracle_classify(g, bound) == (special, ulrich)


def test_naive_filter_examples_reach_both_ulrich_paths():
    # The explicit examples above are not vacuous: each has Ulrich cycles
    # in its box, by the multiplicity-2 rule and by U(Z) = 0.
    for g, bound, mult in ((build_ade("E", 6), 3, 2), (build_cyclic(7, 3), 4, 3)):
        assert validate(g).multiplicity == mult
        assert oracle_classify(g, bound)[1]


@settings(max_examples=80, deadline=None)
@given(st.one_of(random_trees(7), connected_graphs(6, -6)), st.integers(1, 3))
@example(build_cyclic(7, 4), 3)  # two vertices: no main-loop position
@example(build_ade("A", 1), 2)  # one vertex
def test_box_search_keeps_each_cycles_sums(g, bound):
    # The oracle trusts the four running sums the box search keeps for
    # each cycle to be Z^2, K.Z, Z.Z_0 and max_i a_i L/n_i (L = lcm(n)):
    # each is checked against its own reduction of the row.  The search
    # takes any connected, negative definite graph, rational or not.
    rep = validate(g)
    assume(rep.connected and rep.negative_definite)
    z0, r = rep.z0, g.vertex_count
    assume(math.prod(bound * n + 1 for n in z0) <= 20000)
    lcm = math.lcm(*z0)
    zs, *sums = _box_search(g, bound, rep)
    cycles = list(zip(*[iter(zs)] * r))  # flat, one row per cycle
    assert sorted(cycles) == brute_force_anti_nef(g, bound)
    for z, square, canonical, pairing, top in zip(cycles, *sums, strict=True):
        assert square == sum(map(int.__mul__, z, pairing_vector(g, z)))
        assert canonical == sum(a * (-w - 2) for a, w in zip(z, g.weights))
        assert pairing == sum(map(int.__mul__, z, rep.pairing))
        assert top == max(a * lcm // n for a, n in zip(z, z0))


@settings(max_examples=60, deadline=None)
@given(random_trees(7), st.integers(1, 3), st.data())
def test_box_search_order_cannot_be_seen(g, bound, data):
    # Relabelling moves the search's start leaf and its order, but the
    # cycles come out relabelled and sorted all the same.
    rep = validate(g)
    assume(rep.connected and rep.negative_definite and rep.rational)
    perm = data.draw(st.permutations(range(g.vertex_count)))  # vertex i becomes perm[i]
    back = sorted(range(g.vertex_count), key=perm.__getitem__)  # perm[back[j]] == j
    h = DualGraph([g.weights[i] for i in back], [(perm[i], perm[j]) for i, j in g.edges])
    relabel = lambda z: tuple(z[i] for i in back)
    assert brute_force_anti_nef(h, bound) == sorted(map(relabel, brute_force_anti_nef(g, bound)))


def test_walk_keeps_only_k_steps_past_max_depth():
    # Past max_depth a step enters only when it keeps K.  Here the step
    # Y = E_0 + E_1 + E_5 from Z_0 = (1, 2, 2, 1, 2, 1, 1) holds the one
    # heavy vertex, 1, and keeps Z anti-nef, yet drops K, as Y takes 1
    # there where Z_0 takes 2: only the check after Laufer's loop stops it.
    g = DualGraph((-2, -3, -2, -2, -2, -2, -2), [(0, 1), (1, 2), (2, 3), (1, 4), (4, 6), (1, 5)])
    for depth in range(3):
        best = _walk(g, validate(g), depth, True)
        assert all(keeps for chain, _, keeps, _ in best.values() if len(chain) > depth)


@settings(max_examples=60, deadline=None)
@given(random_trees(7))
def test_every_walked_chain_has_colength_minus_one_steps(g):
    # Each step Y is the fundamental cycle of a piece of Z's zero locus,
    # so p_a(Y) = 0 and Z.Y = 0: p_a drops by one per step.  With every
    # Y <= Z_0 and K.E_v >= 0, a chain keeps K.Y = K.Z_0 exactly when the
    # vertices of weight <= -3 survive, which is then a property of Z
    # alone.  The one walk of ``_classify`` rests on both facts.
    rep = validate(g)
    assume(rep.connected and rep.negative_definite and rep.rational)
    z0 = fundamental_cycle(g)
    k0 = canonical_degree(g, z0)
    heavy = {v for v, w in enumerate(g.weights) if w <= -3}
    best = _walk(g, invariants.validate(g), 10 * g.vertex_count, False)
    for z, (chain, surviving, keeps, sums) in best.items():
        assert len(chain) == colength(g, z) - 1
        indices = special_module_indices(g, z)
        assert surviving == indices
        assert keeps == all(canonical_degree(g, y) == k0 for y, _ in chain)
        assert keeps == (heavy <= indices)
        # The walk carries Z^2, K.Z, Z.Z_0 and max_i a_i L/n_i from node
        # to node; _classify trusts them.
        assert sums == cycle_sums(g, z, z0)
        # The increments decrease (from Z_0 down), and the chains form a
        # tree: a chain without its last step is its parent's, which a
        # second chain to the parent would have overwritten.
        ys = [z0] + [y for y, _ in chain]
        assert all(all(map(int.__le__, y, prev)) for prev, y in zip(ys, ys[1:]))
        if chain:
            parent = chain[-2][1] if len(chain) > 1 else z0
            assert best[parent][0] == chain[:-1]


@settings(max_examples=100, deadline=None)
@given(random_trees(7), st.data())
def test_zero_components_split_the_zero_list(g, data):
    # The walk's search splits a list of zero vertices, in any order, into
    # the components of the set it lists: disjoint, connected and covering
    # it.  Their order is not part of the contract: _classify sorts the
    # cycles, and no cycle is reached twice
    # (test_walk_sibling_order_cannot_be_seen).
    r = g.vertex_count
    zeros = data.draw(st.permutations(range(r)))[:data.draw(st.integers(0, r))]
    got = _zero_components(g, zeros)
    assert isinstance(got, list)  # the walk pushes them all at once
    assert sorted(v for c in got for v in c) == sorted(zeros)
    assert sorted(map(sorted, got)) == sorted(map(sorted, components(g, zeros)))


def test_walk_sibling_order_cannot_be_seen(monkeypatch):
    # The walk meets a node's components in the reverse of their search
    # order; met in search order instead, they give the same walk and the
    # same lists, chains, module indices and sums included, as no cycle is
    # reached twice and _classify sorts the cycles.
    graphs = [g for g in map(graph_of, tree_classes(5)) if validate(g).rational]
    assert len(graphs) == 429
    graphs += [build_ade(family, n) for family, ns in
               (("A", range(1, 31)), ("D", range(4, 31)), ("E", (6, 7, 8))) for n in ns]
    graphs += [build_cyclic(n, q) for n in range(2, 30) for q in range(1, n) if math.gcd(n, q) == 1]
    both = lambda: [(_walk(g, validate(g), math.inf, True), _classify(g)) for g in graphs]
    before = both()
    real, forks = classify._zero_components, []

    def reversed_components(g, zeros):
        comps = real(g, zeros)
        forks.append(len(comps) > 1)
        return comps[::-1]

    monkeypatch.setattr(classify, "_zero_components", reversed_components)
    assert both() == before
    assert sum(forks) > 100  # nodes whose siblings the reversal reorders


def test_classify_builds_no_pairing_vector(monkeypatch):
    # Each walked cycle's pairing is built from its parent's, and Z_0's
    # comes from the warm validate report: none is computed from scratch.
    g = build_ade("D", 30)
    invariants.validate(g)  # warm the report
    calls = []
    spy = counting(calls, "pairing_vector", pairing_vector)
    for module in (invariants, lattice):  # every module holding the name
        monkeypatch.setattr(module, "pairing_vector", spy)
    special, ulrich = _classify(g, 300)
    assert len(special) > 1 and ulrich is special
    assert calls == []


# Walked to (1,1,1,1,1) (special and Ulrich), (2,2,1,1,1) (special, not
# Ulrich) and (3,2,1,1,1) (neither).
FORK = DualGraph((-2, -2, -2, -3, -3), [(0, 1), (1, 2), (0, 3), (0, 4)])


@pytest.mark.parametrize("column, name", [(4, "special"), (5, "Ulrich")])
@pytest.mark.parametrize("verdict", [True, False])
def test_chain_criteria_meet_the_pointwise_tests_both_ways(monkeypatch, column, name, verdict):
    # One pointwise verdict of either column flipped, either way: the
    # chain criterion of that column disagrees with it.
    real = classify._formulas

    def flipped(*args):
        cols = list(real(*args))
        k = cols[column].index(verdict)
        cols[column] = cols[column][:k] + [not verdict] + cols[column][k + 1:]
        return tuple(cols)

    _classify(FORK)
    monkeypatch.setattr(classify, "_formulas", flipped)
    with pytest.raises(AssertionError, match=f"^{name} chain criterion disagrees"):
        _classify(FORK)


# Each record of the library: one built the way the library builds it,
# and its field names in order.
RECORDS = {
    "ValidationReport": (lambda: validate(build_ade("E", 6)), (
        "connected", "negative_definite", "tree", "rational", "gorenstein", "multiplicity",
        "failures", "z0", "pairing", "canonical", "lcm", "scales")),
    "CycleInvariants": (lambda: invariants._invariants_of(build_ade("E", 6), (1, 2, 3, 2, 1, 2)), (
        "colength", "multiplicity", "min_gens", "u", "indices", "special", "ulrich")),
    "Filtration": (lambda: invariants.filtration(build_ade("E", 6), (2, 4, 6, 4, 2, 3)),
                   ("base", "steps")),
    "ClassificationEntry": (lambda: enumerate_ulrich(build_ade("E", 6))[-1], (
        "cycle", "colength", "multiplicity", "min_gens", "module_indices", "chain", "kind")),
    "RdpVerification": (lambda: verify_rdp("E", 6), (
        "family", "index", "matched", "expected", "actual", "expected_count", "missing",
        "extra", "colength_mismatches")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_the_tuple_contract(name):
    make, fields = RECORDS[name]
    rec = make()
    assert type(rec).__qualname__ == name
    assert rec._fields == fields and tuple(rec._asdict()) == fields
    assert tuple(rec._asdict().values()) == tuple(rec) and rec == tuple(rec)
    assert not hasattr(rec, "__dict__")
    for copied in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(copied) is type(rec) and copied == rec


def test_validation_report_defaults_its_last_five_fields():
    rep = invariants.ValidationReport(False, False, False, False, False, None, ("finding",))
    assert rep[7:] == (None,) * 5 and not rep.ok
    assert rep._replace(failures=()).ok
