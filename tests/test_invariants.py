"""Tests for fundamental cycles, ideal invariants and filtrations."""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import dualcycles
from dualcycles import classify, invariants
from dualcycles.builders import (
    build_ade,
    build_cyclic,
    hj_expansion,
)
from dualcycles.invariants import (
    MAX_FILTRATION,
    CycleError,
    _co_genera,
    _formulas,
    _laufer,
    _pointwise,
    InvalidGraphError,
    colength,
    filtration,
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
from dualcycles.lattice import Cycle, DimensionError, DualGraph, pairing_vector
from corpus import (
    CATERPILLAR,
    CATERPILLAR_Z0,
    INDEFINITE_STAR,
    NON_RATIONAL_TREE,
    STAR,
    add,
    bfs_order,
    block_minors,
    canonical_degree,
    components,
    connected_graphs,
    counting,
    graph_and_cycles,
    graph_of,
    inf_cycles,
    intersection,
    laufer_by_recomputation,
    minus_m,
    path_graph,
    random_graphs,
    random_trees,
    run_child,
    scale,
    tree_classes,
    unit,
)

# Graphs outside the library's domain, each with a cycle that is anti-nef
# on it where possible: every invariant function must refuse them.
INVALID_GRAPHS = {
    "non-rational-tree": (NON_RATIONAL_TREE, (2, 1, 1, 2, 1, 2, 1, 1, 1)),
    "disconnected": (DualGraph((-2, -2), []), (1, 1)),
    "affine-D4": (DualGraph((-2,) * 5, [(0, i) for i in range(1, 5)]), (2, 1, 1, 1, 1)),
    "indefinite-star": (INDEFINITE_STAR, (1,) * 6),
    # Rational and definite, but a -1 curve: not a minimal resolution.
    "non-minimal": (DualGraph((-3, -1), [(0, 1)]), (1, 1)),
}


def minimal_anti_nef_by_search(g, box=4):
    """Oracle: smallest nonzero anti-nef cycle in a box, by exhaustion."""
    best = None
    ranges = [range(box + 1)] * g.vertex_count
    for z in itertools.product(*ranges):
        if not any(z):
            continue
        if not is_anti_nef(g, z):
            continue
        if best is None or all(a <= b for a, b in zip(z, best)):
            best = z
    return best


class TestFundamentalCycle:
    @pytest.mark.parametrize(
        "family, index, expected",
        [
            ("A", 1, (1,)),
            ("A", 4, (1, 1, 1, 1)),
            ("D", 4, (1, 2, 1, 1)),
            ("D", 6, (1, 2, 2, 2, 1, 1)),
            ("E", 6, (1, 2, 3, 2, 1, 2)),
            ("E", 7, (2, 3, 4, 3, 2, 1, 2)),
            ("E", 8, (2, 4, 6, 5, 4, 3, 2, 3)),
        ],
    )
    def test_known_ade_values(self, family, index, expected):
        assert fundamental_cycle(build_ade(family, index)) == expected

    def test_cyclic_quotients_have_all_ones(self):
        # every chain with weights <= -2 pairs nonpositively with all-ones
        for n, q in [(7, 3), (7, 4), (11, 4), (19, 7)]:
            g = build_cyclic(n, q)
            assert fundamental_cycle(g) == (1,) * g.vertex_count

    def test_star_graph(self):
        assert fundamental_cycle(STAR) == (1,) * 7

    @pytest.mark.parametrize(
        "family, index",
        [("A", 3), ("A", 5), ("D", 4), ("D", 5), ("E", 6)],
    )
    def test_agrees_with_exhaustive_minimum(self, family, index):
        g = build_ade(family, index)
        assert fundamental_cycle(g) == minimal_anti_nef_by_search(g)

    def test_sub_support(self):
        g = build_ade("D", 5)
        assert fundamental_cycle(g, frozenset({0, 1})) == (1, 1, 0, 0, 0)
        assert fundamental_cycle(g, frozenset({1, 2, 3, 4})) == (0, 1, 2, 1, 1)
        assert fundamental_cycle(build_ade("A", 5), frozenset({1, 2, 3})) == (0, 1, 1, 1, 0)

    def test_rejects_empty_or_disconnected_support(self):
        for g in (build_ade("A", 4), build_ade("A", 5)):
            with pytest.raises(ValueError, match="nonempty"):
                fundamental_cycle(g, frozenset())
            with pytest.raises(ValueError, match="connected"):
                fundamental_cycle(g, frozenset({0, 2}))

    def test_full_support_gives_z0(self):
        # An explicit full support takes the support path (one Laufer
        # loop), not a read of validate's report; the caterpillar's loop
        # passes its budget, so its elimination runs.
        graphs = [g for g in map(graph_of, tree_classes(6)) if validate(g).rational]
        graphs += [build_ade(f, n) for f, ns in (("A", range(1, 31)), ("D", range(4, 31)),
                                                 ("E", (6, 7, 8))) for n in ns]
        graphs += [build_cyclic(n, q) for n in range(2, 30) for q in range(1, n)
                   if math.gcd(n, q) == 1]
        for g in graphs + [CATERPILLAR]:
            assert fundamental_cycle(g, range(g.vertex_count)) == fundamental_cycle(g), g

    def test_support_runs_one_search_and_one_certificate(self, monkeypatch):
        # Z_0 is one report, whose validation runs one Laufer loop, which
        # searches its own component and certifies it; a support runs one
        # loop and no validation.
        g = build_ade("E", 8)
        calls = []
        for name in ("_laufer", "validate"):
            monkeypatch.setattr(invariants, name, counting(calls, name, getattr(invariants, name)))
        assert fundamental_cycle(g) == (2, 4, 6, 5, 4, 3, 2, 3)
        assert calls == ["validate", "_laufer"]
        calls.clear()
        assert fundamental_cycle(g, range(8)) == (2, 4, 6, 5, 4, 3, 2, 3)
        assert calls == ["_laufer"]
        # A disconnected support is refused after the one loop, which
        # takes out its least vertex's component only.
        calls.clear()
        with pytest.raises(ValueError, match="^fundamental cycle needs a connected support$"):
            fundamental_cycle(g, {0, 1, 3, 4})
        assert calls == ["_laufer"]

    @pytest.mark.parametrize("verts", [{-1}, {98}, {0, 1, 3}], ids=["-1", "98", "0,1,3"])
    def test_rejects_support_outside_the_graph(self, verts):
        # -1 once read as the last vertex and 98 raised IndexError.
        with pytest.raises(ValueError, match="outside"):
            fundamental_cycle(build_ade("A", 3), frozenset(verts))

    def test_refuses_indefinite_support_in_time(self):
        # A -2 centre with five -2 leaves, alone (full support) and with a
        # seventh vertex hung on a leaf (sub-support): Laufer's loop never
        # ends on either.
        code = (
            "from dualcycles.invariants import fundamental_cycle\n"
            "from dualcycles.lattice import DualGraph\n"
            "star = [(0, i) for i in range(1, 6)]\n"
            "for g, verts in ((DualGraph((-2,) * 6, star), None),\n"
            "                 (DualGraph((-2,) * 7, star + [(5, 6)]), frozenset(range(6)))):\n"
            "    try:\n"
            "        fundamental_cycle(g, verts)\n"
            "    except ValueError as e:\n"
            "        print(e)\n"
        )
        proc = run_child("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "intersection matrix is not negative definite\n"
            "fundamental cycle needs a negative definite support\n"
        )

    def test_disconnected_graph_without_support_is_invalid(self):
        # Once a bare ValueError naming a support the caller never gave.
        g = DualGraph((-2,) * 4, [(0, 1), (2, 3)])
        with pytest.raises(InvalidGraphError, match="^graph is not connected$"):
            fundamental_cycle(g)
        with pytest.raises(ValueError, match="^fundamental cycle needs a connected support$"):
            fundamental_cycle(g, frozenset(range(4)))  # a support given: named as such

    def test_indefinite_graph_without_support_is_invalid(self):
        # Once a bare ValueError naming a support the caller never gave;
        # the full support, given, keeps its ValueError.
        with pytest.raises(InvalidGraphError, match="^intersection matrix is not negative definite$"):
            fundamental_cycle(INDEFINITE_STAR)
        with pytest.raises(ValueError, match="^fundamental cycle needs a negative definite support$") as e:
            fundamental_cycle(INDEFINITE_STAR, frozenset(range(6)))
        assert type(e.value) is ValueError

    def test_result_is_anti_nef_with_full_support(self):
        for g in (build_ade("E", 7), build_cyclic(19, 7), STAR):
            z0 = fundamental_cycle(g)
            assert is_anti_nef(g, z0)
            assert min(z0) > 0


# The seven per-cycle functions, then filtration: each one _pointwise call.
PER_CYCLE = [colength, multiplicity, min_gens, u_invariant, special_module_indices,
             is_special_cycle, is_ulrich_cycle, filtration]


class TestGraphChecks:
    @pytest.mark.parametrize("fn", PER_CYCLE, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("g, z", INVALID_GRAPHS.values(), ids=list(INVALID_GRAPHS))
    def test_invalid_graph_raises_typed_error(self, fn, g, z):
        with pytest.raises(InvalidGraphError):
            fn(g, z)
        # A cycle one coefficient too long is refused before the graph is
        # judged, as the CLI exits 2 on it.
        r = g.vertex_count
        with pytest.raises(DimensionError, match=f"^cycle has {r + 1} coefficients, graph has {r} "):
            fn(g, z + (1,))

    @pytest.mark.parametrize("fn", [classify.brute_force_anti_nef, classify.oracle_classify],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("g, finding", [
        (DualGraph((-2,) * 3, [(0, 1)]), "graph is not connected"),
        (INDEFINITE_STAR, "intersection matrix is not negative definite"),
    ], ids=["disconnected", "indefinite"])
    @pytest.mark.parametrize("bound", [0, -1, 1.5])
    def test_oracle_refuses_the_graph_before_the_bound(self, fn, g, finding, bound):
        with pytest.raises(InvalidGraphError, match=f"^{finding}$"):
            fn(g, bound)

    @pytest.mark.parametrize(
        "fn",
        [colength, filtration, lambda g, z: classify.enumerate_ulrich(g),
         lambda g, z: classify.oracle_classify(g, 2)],
        ids=["colength", "filtration", "enumerate_ulrich", "oracle_classify"],
    )
    @pytest.mark.parametrize(
        "g, finding",
        [
            (DualGraph((-2,) * 3, [(0, 1)]), "graph is not connected"),
            (INDEFINITE_STAR, "intersection matrix is not negative definite"),
            (DualGraph((-2,) * 7, INDEFINITE_STAR.edges),
             "intersection matrix is not negative definite"),
            (NON_RATIONAL_TREE, "not rational: fundamental cycle has virtual genus 1"),
            (DualGraph((-3, -1), [(0, 1)]),
             "weights > -2 at vertices [2] (not a minimal resolution)"),
        ],
        ids=["disconnected", "indefinite", "disconnected-indefinite", "non-rational", "minus-one"],
    )
    def test_refusal_is_a_finding_of_validate(self, fn, g, finding):
        # One gate, in one order: not negative definite, not connected, a
        # weight above -2, not rational; its text is validate's own.
        with pytest.raises(InvalidGraphError) as e:
            fn(g, (1,) * g.vertex_count)
        assert str(e.value) == finding
        assert finding in validate(g).failures

    def test_one_error_class(self):
        # Defined in invariants and imported from there; classify, which
        # never raises it itself, does not re-export it.
        assert InvalidGraphError is invariants.InvalidGraphError is dualcycles.InvalidGraphError
        assert not hasattr(classify, "InvalidGraphError")

    def test_validation_does_its_work_once(self, monkeypatch):
        # One Laufer loop per call on a connected graph, which searches
        # the graph, and no elimination on a definite one, whose loop
        # certifies it; one elimination on a graph whose loop runs past
        # its budget.  The validator, Z_0 and the classifiers each
        # validate once per call, and no call keeps its report for the
        # next.  A disconnected graph takes one loop per component.
        calls = []
        for name, key in (("is_negative_definite", "eliminations"), ("_laufer", "search")):
            monkeypatch.setattr(invariants, name, counting(calls, key, getattr(invariants, name)))
        g = DualGraph((-3, -2, -5, -2, -2, -4, -2, -7), [(i, i + 1) for i in range(7)])
        assert validate(g).ok
        assert calls == ["search"]
        first, second = validate(g), validate(g)
        assert first == second and first is not second
        for call in (validate, fundamental_cycle, classify.enumerate_ulrich):
            calls.clear()
            call(g)
            assert calls == ["search"], call
        calls.clear()
        assert validate(CATERPILLAR).negative_definite
        assert sorted(calls) == ["eliminations", "search"]
        calls.clear()
        assert fundamental_cycle(CATERPILLAR) == CATERPILLAR_Z0
        assert sorted(calls) == ["eliminations", "search"]
        calls.clear()
        assert not validate(DualGraph((-2,) * 5, [(0, 3), (1, 4)])).connected
        assert calls == ["search"] * 3


class TestReportConstants:
    # The per-graph constants of the formula site: K.E_i, L = lcm(n_i)
    # and L/n_i, with Z_0 = sum n_i E_i.
    @pytest.mark.parametrize("g", [DualGraph((-2, -3), []), INDEFINITE_STAR],
                             ids=["disconnected", "indefinite"])
    def test_none_without_z0(self, g):
        rep = validate(g)
        assert rep.z0 is None
        assert (rep.canonical, rep.lcm, rep.scales) == (None, None, None)

    @pytest.mark.parametrize("g", [
        build_ade("A", 5), build_ade("D", 7), build_ade("E", 8), build_cyclic(19, 7),
        STAR, CATERPILLAR, NON_RATIONAL_TREE,
    ])
    def test_constants_of_definite_graphs(self, g):
        rep = validate(g)
        z0 = fundamental_cycle(g)
        lcm = next(m for m in itertools.count(max(z0), max(z0)) if all(m % n == 0 for n in z0))
        assert rep.canonical == tuple(-w - 2 for w in g.weights)
        assert (rep.lcm, rep.scales) == (lcm, tuple(lcm // n for n in z0))
        genus = (intersection(g, z0, z0) + canonical_degree(g, z0)) // 2 + 1
        assert rep.rational == (genus == 0)


def star_tree(centre: int, arms: list[list[int]]) -> tuple[DualGraph, Cycle]:
    """A -2 tree of paths from one centre, with the cycle that takes
    ``centre`` there and each arm's coefficients along its path."""
    edges, z = [], [centre]
    for arm in arms:
        for k, a in enumerate(arm):
            edges.append((0 if k == 0 else len(z) - 1, len(z)))
            z.append(a)
    return DualGraph((-2,) * len(z), edges), tuple(z)


def affine_dynkin() -> dict[str, tuple[DualGraph, Cycle]]:
    """The affine Dynkin graphs that are simple graphs, all weights -2,
    each with its null root: the positive Z with M.Z = 0 and gcd 1."""
    graphs = {}
    for n in range(2, 9):  # a cycle of n + 1 vertices
        cycle = [(i, (i + 1) % (n + 1)) for i in range(n + 1)]
        graphs[f"A~{n}"] = (DualGraph((-2,) * (n + 1), cycle), (1,) * (n + 1))
    for n in range(4, 10):  # two forks joined by a path of n - 3 vertices
        edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
        graphs[f"D~{n}"] = (DualGraph((-2,) * (n + 1), edges), (1, 1) + (2,) * (n - 3) + (1, 1))
    graphs["E~6"] = star_tree(3, [[2, 1], [2, 1], [2, 1]])
    graphs["E~7"] = star_tree(4, [[3, 2, 1], [3, 2, 1], [2]])
    graphs["E~8"] = star_tree(6, [[5, 4, 3, 2, 1], [4, 2], [3]])
    return graphs


def certify(g: DualGraph, verts) -> tuple[object, int]:
    """(``_laufer`` from the least vertex of ``verts`` inside them, the
    number of eliminations it ran); every vertex of ``verts`` is taken out."""
    left = set(verts)
    with mock.patch.object(invariants, "is_negative_definite",
                           wraps=invariants.is_negative_definite) as eliminate:
        found = _laufer(g, min(verts), left)
    assert not left
    return found, eliminate.call_count


class TestDefinitenessCertificate:
    """``_laufer`` decides definiteness as the elimination does, with an
    elimination past its bump budget of 8 a vertex plus 64 only."""

    def test_every_six_vertex_tree_class(self):
        outcomes = {"certified": 0, "null": 0, "budget": 0}
        for code in tree_classes(6):
            g = graph_of(code)
            definite = is_negative_definite(g)
            found, eliminations = certify(g, range(g.vertex_count))
            assert (found is not None) == definite, code
            outcome = "budget" if eliminations else "certified" if found else "null"
            assert (outcome == "certified") == definite, code
            outcomes[outcome] += 1
        # Every definite class is certified by the loop; five classes are
        # affine (M.Z = 0) and eight run past the budget.
        assert outcomes == {"certified": 2204, "null": 5, "budget": 8}

    def test_affine_dynkin_graphs_stop_at_the_null_root(self):
        # The loop stops within its budget, at the null root, where M.Z = 0
        # refuses the graph with no elimination.
        for name, (g, root) in affine_dynkin().items():
            assert pairing_vector(g, root) == (0,) * g.vertex_count, name
            verts = range(g.vertex_count)
            assert laufer_by_recomputation(g, verts) == root, name
            assert sum(root) - len(root) <= 8 * len(root) + 64, name
            assert certify(g, verts) == (None, 0), name
            assert not is_negative_definite(g), name

    @settings(max_examples=300, deadline=None)
    @given(connected_graphs(8, -4), st.data())
    def test_random_graphs_with_cycles(self, g, data):
        verts = range(g.vertex_count)
        found = certify(g, verts)[0]
        assert (found is not None) == is_negative_definite(g)
        if found is not None:
            z = tuple(found[0].get(v, 0) for v in verts)
            assert z == laufer_by_recomputation(g, frozenset(verts))
        # ... and on a connected sub-support, as fundamental_cycle reads it.
        sub_verts = frozenset(data.draw(st.sets(st.sampled_from(list(verts)), min_size=1)))
        assume(len(components(g, sub_verts)) == 1)
        assert (certify(g, sub_verts)[0] is not None) == is_negative_definite(g, sub_verts)

    def test_budget_fallback(self):
        # The caterpillar needs 360 bumps, past its budget of 8 * 18 + 64:
        # one elimination over it, and the same loop then finishes.
        verts = range(CATERPILLAR.vertex_count)
        assert sum(CATERPILLAR_Z0) - len(verts) == 360 > 8 * len(verts) + 64
        (z, pairing, leaving), eliminations = certify(CATERPILLAR, verts)
        assert eliminations == 1
        assert list(z) == list(pairing) == bfs_order(CATERPILLAR, 0, verts)
        assert z == dict(enumerate(CATERPILLAR_Z0))
        assert pairing == dict(enumerate(pairing_vector(CATERPILLAR, CATERPILLAR_Z0)))
        assert leaving == []  # the whole graph: no edge leaves it
        # An indefinite graph runs past the budget too; the elimination
        # refuses it.
        assert certify(INDEFINITE_STAR, range(6)) == (None, 1)

    @pytest.mark.parametrize("spine, leaves, weight, tail, over", [
        (9, 4, 8, 11, 0), (5, 5, 9, 8, 1)], ids=["at-budget", "one-past"])
    def test_budget_is_eight_bumps_a_vertex_plus_64(self, spine, leaves, weight, tail, over):
        # A -2 spine with a -weight leaf on each of its first vertices and
        # a -2 tail from its last: Laufer's loop needs exactly the budget,
        # or one bump more, and only the latter runs an elimination.
        edges = [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(leaves)]
        path = [spine - 1] + list(range(spine + leaves, spine + leaves + tail))
        g = DualGraph((-2,) * spine + (-weight,) * leaves + (-2,) * tail,
                      edges + list(zip(path, path[1:])))
        r = g.vertex_count
        assert sum(fundamental_cycle(g)) - r == 8 * r + 64 + over
        found, eliminations = certify(g, range(r))
        assert found is not None and eliminations == over

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.one_of(random_graphs(), connected_graphs(8, -4), st.sampled_from(
            [CATERPILLAR, INDEFINITE_STAR, build_ade("E", 8)])),
        min_size=2, max_size=4))
    def test_disjoint_unions(self, parts):
        # validate certifies each component on its own: its verdict is the
        # dense one, and no elimination runs when every component's loop
        # stops within its budget.  E_8's loop takes 21 bumps on 8
        # vertices, so a budget cut to a bump a vertex fails here.
        weights, edges, comps = [], [], []
        for part in parts:
            base = len(weights)
            weights += part.weights
            edges += [(base + i, base + j) for i, j in part.edges]
            taken = set()
            for s in range(part.vertex_count):
                if s not in taken:
                    comp = bfs_order(part, s, range(part.vertex_count))
                    taken.update(comp)
                    comps.append([base + v for v in comp])
        g = DualGraph(weights, edges)
        with mock.patch.object(invariants, "is_negative_definite",
                               wraps=invariants.is_negative_definite) as eliminate:
            report = validate(g)
        assert report.negative_definite == all(d > 0 for d in block_minors(minus_m(g)))
        assert not report.connected
        over = [certify(g, c)[1] for c in comps]
        if not any(over):
            assert eliminate.call_count == 0
        assert eliminate.call_count <= sum(over)


# Numbers that are not integers, at the public entry points.  int() once
# truncated each of the first seven but the edge end to a neighbouring
# integer; the caps were once used as given, and the bounds and the
# support vertex failed only deep inside the search.
NON_INTEGRAL = {
    "weight": lambda: DualGraph((-2.7, -2), [(0, 1)]),
    "edge-end": lambda: DualGraph((-2, -2), [(0, 1.0)]),
    "cycle": lambda: colength(build_ade("A", 3), (1.9, 1.2, 1.0)),
    "ade-index": lambda: build_ade("A", 3.5),
    "hj-n": lambda: hj_expansion(7.5, 3),
    "hj-q": lambda: hj_expansion(7, 3.0),
    "rdp-index": lambda: classify.verify_rdp("E", 6.0),
    "special-cap": lambda: classify.enumerate_special(build_ade("D", 5), 2.5),
    "ulrich-cap": lambda: classify.enumerate_ulrich(build_ade("D", 5), 2.5),
    "box-bound": lambda: classify.brute_force_anti_nef(build_ade("D", 5), 1.5),
    "oracle-bound": lambda: classify.oracle_classify(build_ade("D", 5), 1.5),
    "support-vertex": lambda: fundamental_cycle(build_ade("D", 5), frozenset({0.0, 1.0})),
}


@pytest.mark.parametrize("call", NON_INTEGRAL.values(), ids=list(NON_INTEGRAL))
def test_non_integral_numbers_are_refused(call):
    with pytest.raises(TypeError):
        call()


# A bool is an integer: operator.index reads True as 1 and False as 0, so
# each call equals its 0/1 form, and no bool reaches its result.
BOOLEANS = {
    "ade-index": (lambda: build_ade("A", True), lambda: build_ade("A", 1)),
    "hj-q": (lambda: hj_expansion(3, True), lambda: hj_expansion(3, 1)),
    "special-cap": (lambda: classify.enumerate_special(build_ade("D", 5), True),
                    lambda: classify.enumerate_special(build_ade("D", 5), 1)),
    "oracle-bound": (lambda: classify.oracle_classify(build_ade("D", 5), True),
                     lambda: classify.oracle_classify(build_ade("D", 5), 1)),
    "support-vertex": (lambda: fundamental_cycle(build_ade("A", 3), [True]),
                       lambda: fundamental_cycle(build_ade("A", 3), [1])),
    "cycle": (lambda: colength(build_ade("A", 3), (True,) * 3),
              lambda: colength(build_ade("A", 3), (1,) * 3)),
    "edge-end": (lambda: DualGraph((-2, -2), [(False, True)]),
                 lambda: DualGraph((-2, -2), [(0, 1)])),
}


@pytest.mark.parametrize("call, integral", BOOLEANS.values(), ids=list(BOOLEANS))
def test_bools_are_read_as_integers(call, integral):
    assert repr(call()) == repr(integral())


def canonical_of(g: DualGraph, z: Cycle) -> int:
    """K.Z as ``virtual_genus`` computes it: 2 p_a(Z) - 2 - Z^2."""
    return 2 * virtual_genus(g, z) - 2 - intersection(g, z, z)


class TestGenus:
    def test_canonical_degree_zero_on_minus_two_graphs(self):
        g = path_graph(5)
        assert canonical_of(g, (3, 1, 4, 1, 5)) == 0

    def test_canonical_degree_counts_heavy_vertices(self):
        g = path_graph(3, (-3, -2, -4))
        assert canonical_of(g, (2, 7, 3)) == 2 * 1 + 0 + 3 * 2

    @given(graph_and_cycles(k=1))
    def test_canonical_degree_matches_its_definition(self, gz):
        # K.E_i = -w_i - 2, summed with the coefficients of Z
        g, z = gz
        assert canonical_of(g, z) == canonical_degree(g, z)

    def test_parity_violation_is_reported(self):
        # Z^2 + K.Z is even for every true Z^2; an odd one is refused.
        g = path_graph(3, (-2, -3, -2))
        z = (1, 2, 1)
        zz, kz = intersection(g, z, z), canonical_degree(g, z)
        assert _co_genera((zz,), (kz,)) == [1 - virtual_genus(g, z)]
        with pytest.raises(AssertionError, match="parity"):
            _co_genera((zz + 1,), (kz,))

    def test_virtual_genus_of_unit(self):
        # a single smooth rational curve has genus 0
        g = path_graph(3, (-2, -3, -2))
        for i in range(3):
            assert virtual_genus(g, unit(g, i)) == 0

    @given(graph_and_cycles(k=1))
    def test_virtual_genus_is_an_integer(self, gz):
        # the defining quotient never truncates: Z^2 + K.Z is always even
        g, z = gz
        assert isinstance(virtual_genus(g, z), int)

    @given(graph_and_cycles(k=2))
    def test_genus_additivity(self, gzw):
        g, z, w = gzw
        lhs = virtual_genus(g, add(z, w))
        rhs = virtual_genus(g, z) + virtual_genus(g, w) + intersection(g, z, w) - 1
        assert lhs == rhs


class TestAntiNef:
    def test_rejects_negative_coefficients(self):
        g = path_graph(2)
        with pytest.raises(CycleError):
            is_anti_nef(g, (1, -1))

    def test_small_cases(self):
        g = path_graph(3)
        assert is_anti_nef(g, (1, 1, 1))
        assert is_anti_nef(g, (1, 2, 1))
        assert not is_anti_nef(g, (2, 1, 2))  # middle vertex pairs positively
        assert not is_anti_nef(g, (0, 1, 0))
        assert is_anti_nef(g, (0, 0, 0))

    def test_inf_preserves_anti_nef_exhaustively(self):
        g = path_graph(3, (-2, -3, -2))
        box = range(4)
        anti = [
            z
            for z in itertools.product(box, box, box)
            if is_anti_nef(g, z)
        ]
        for z in anti:
            for w in anti:
                assert is_anti_nef(g, inf_cycles(z, w))

    @given(graph_and_cycles(k=2, lo=0, hi=5))
    def test_sum_of_anti_nef_is_anti_nef(self, gzw):
        g, z, w = gzw
        if is_anti_nef(g, z) and is_anti_nef(g, w):
            assert is_anti_nef(g, add(z, w))


class TestIdealInvariants:
    def test_fundamental_cycle_has_colength_one(self):
        for g in (build_ade("A", 6), build_ade("E", 8), STAR, build_cyclic(7, 3)):
            assert colength(g, fundamental_cycle(g)) == 1

    def test_rejects_non_anti_nef(self):
        g = build_ade("A", 3)
        with pytest.raises(CycleError):
            colength(g, (1, 3, 1))
        with pytest.raises(CycleError):
            multiplicity(g, (0, 0, 0))

    def test_e6_second_cycle(self):
        g = build_ade("E", 6)
        z = (2, 3, 4, 3, 2, 2)
        assert colength(g, z) == 2
        assert multiplicity(g, z) == 4
        assert min_gens(g, z) == 3
        assert u_invariant(g, z) == 0

    def test_star_tower(self):
        expected = {
            (1, 1, 1, 1, 1, 1, 1): (1, 3, 4),
            (1, 2, 2, 2, 1, 2, 1): (2, 6, 4),
            (1, 2, 3, 2, 1, 2, 1): (3, 9, 4),
        }
        for z, (ell, e, mu) in expected.items():
            assert colength(STAR, z) == ell
            assert multiplicity(STAR, z) == e
            assert min_gens(STAR, z) == mu
            assert u_invariant(STAR, z) == 0

    def test_cyclic_7_3_values(self):
        g = build_cyclic(7, 3)
        assert colength(g, (1, 1, 1)) == 1
        assert u_invariant(g, (1, 1, 1)) == 0
        assert colength(g, (1, 2, 1)) == 2
        assert u_invariant(g, (1, 2, 1)) == 1

    def test_min_gens_identity(self):
        # mu - 1 = -Z.Z_0 ties multiplicity, colength and U together
        for g in (build_ade("D", 6), STAR, build_cyclic(11, 4)):
            z0 = fundamental_cycle(g)
            for k in (1, 2, 3):
                z = scale(k, z0)
                mu = min_gens(g, z)
                assert u_invariant(g, z) == -multiplicity(g, z) + (mu - 1) * colength(
                    g, z
                )


ANTI_NEF = "cycle is not anti-nef (represents no ideal)"


class TestPointwiseErrors:
    """``_pointwise`` is the one path of a one-cycle question, for the
    library and the CLI alike: the length, then the graph gate, then
    anti-nefness (no negative coefficient and no positive pairing, one
    message), then the zero cycle."""

    @pytest.mark.parametrize(
        "z, error, message",
        [
            pytest.param((1, 1), DimensionError, "cycle has 2 coefficients, graph has 3 vertices",
                         id="z0-DimensionError-coefficients"),
            pytest.param((1, 1, 1, 1), DimensionError,
                         "cycle has 4 coefficients, graph has 3 vertices",
                         id="z1-DimensionError-coefficients"),
            pytest.param((0, 0, 0), CycleError, "expected a positive cycle",
                         id="z2-CycleError-expected a positive cycle"),
            # Nonpositive too: anti-nefness is checked first.
            pytest.param((0, -1, 0), CycleError, ANTI_NEF, id="z3-CycleError-not anti-nef"),
            pytest.param((1, -1, 1), CycleError, ANTI_NEF, id="z4-CycleError-not anti-nef"),
            pytest.param((1, 3, 1), CycleError, ANTI_NEF, id="z5-CycleError-not anti-nef"),
        ],
    )
    def test_errors_in_order(self, z, error, message):
        with pytest.raises(error) as e:
            _pointwise(build_ade("A", 3), z)
        assert type(e.value) is error and str(e.value) == message

    def test_non_anti_nef_pairing_is_refused(self):
        # Above Z_0 = (1, 1, 1) with every coefficient positive: the
        # pairing alone refuses it, (2, 1, 1).E_2 = 1.
        with pytest.raises(CycleError) as e:
            _pointwise(build_ade("A", 3), (2, 1, 1))
        assert str(e.value) == ANTI_NEF

    def test_length_before_the_graph_gate(self):
        # On a disconnected graph: the wrong length is refused as such,
        # and a cycle of the right length gets the gate's finding.
        g = DualGraph((-2,) * 3, [(0, 1)])
        with pytest.raises(DimensionError, match="^cycle has 2 coefficients, graph has 3 vertices$"):
            _pointwise(g, (1, 1))
        with pytest.raises(InvalidGraphError, match="^graph is not connected$"):
            _pointwise(g, (1, 1, 1))


class TestFormulas:
    """``_formulas`` on made-up sums, which no real cycle has."""

    # One positive cycle's four sums: Z^2, K.Z, Z.Z_0 and L max_i a_i/n_i.
    # Z^2 = -2 and K.Z = 0 give colength 1.
    @staticmethod
    def columns(square, canonical, zz0, top, **report):
        record = invariants.validate(build_ade("A", 1))._replace(**report)  # Z_0 = (1,), L = 1
        return _formulas([square], [canonical], [zz0], [top], record)

    def test_ulrich_is_u_zero_at_multiplicity_two(self):
        # Special (top = L colength) with U = Z^2 - (Z.Z_0) colength = 1 on a
        # multiplicity-2 report: not Ulrich.  The verdict is read off U(Z),
        # never copied from the special column.
        mult, ell, mu, u, special, ulrich = self.columns(-2, 0, -3, 1, multiplicity=2)
        assert (mult, ell, mu, u) == ([2], [1], [4], [1])
        assert special == [True] and ulrich == [False]
        assert self.columns(-2, 0, -2, 1, multiplicity=2)[4:] == ([True], [True])  # U = 0

    def test_assertions_are_reachable_through_made_up_sums(self):
        # Z^2 + K.Z = -1 is odd; colength 0 is below the top 2, and
        # colength 1 just below it; min_gens 1 - Z.Z_0 = 2 is too few.
        with pytest.raises(AssertionError, match="parity"):
            self.columns(-1, 0, -1, 1)
        for square in (0, -2):
            with pytest.raises(AssertionError, match="coefficient bound"):
                self.columns(square, 0, -2, 2)
        with pytest.raises(CycleError, match=r"needs mu\(I\) > 2"):
            self.columns(-2, 0, -1, 1)


class TestFiltration:
    def test_base_only(self):
        g = build_ade("A", 5)
        f = filtration(g, fundamental_cycle(g))
        assert f == (fundamental_cycle(g), ())

    def test_steps_reconstruct_the_cycle(self):
        g = build_ade("E", 7)
        z = scale(3, fundamental_cycle(g))
        f = filtration(g, z)
        assert f.steps[-1][1] == z
        acc = f.base
        for y, zk in f.steps:
            acc = add(acc, y)
            assert acc == zk

    def test_increments_decrease_and_stay_below_base(self):
        g = build_ade("D", 8)
        z0 = fundamental_cycle(g)
        z = add(scale(2, z0), z0)
        f = filtration(g, z)
        prev = z0
        for y, _ in f.steps:
            assert all(a <= b for a, b in zip(y, prev))
            prev = y

    def test_colength_recursion(self):
        # each layer drops the colength by Y.Z_prev - 1 + p_a(Y)
        for g in (build_ade("E", 8), STAR, build_cyclic(19, 7)):
            z0 = fundamental_cycle(g)
            z = scale(4, z0)
            f = filtration(g, z)
            ell = colength(g, f.base)
            prev = f.base
            for y, zk in f.steps:
                ell = ell - intersection(g, y, prev) + 1 - virtual_genus(g, y)
                assert colength(g, zk) == ell
                prev = zk

    def test_rejects_cycle_below_fundamental(self):
        g = build_cyclic(7, 3)
        with pytest.raises(CycleError):
            filtration(g, (1, 0, 1))

    @pytest.mark.parametrize("g", [build_ade("A", 1), build_ade("D", 5)], ids=["A1", "D5"])
    def test_oversized_filtration_is_refused_before_it_is_built(self, g):
        # The step count ceil(max_i a_i/n_i) - 1 is known up front: Z = k Z_0
        # has k - 1 steps of r coefficients each.
        r = g.vertex_count
        z0 = fundamental_cycle(g)
        k = MAX_FILTRATION // r + 2  # just past the limit
        for z in (scale(k, z0), scale(10**20, z0)):
            with pytest.raises(CycleError, match=f"more than {MAX_FILTRATION} coefficients"):
                filtration(g, z)
        assert len(filtration(g, scale(1000, z0)).steps) == 999

    @pytest.mark.parametrize("g", [build_ade("A", 1), build_ade("D", 5)], ids=["A1", "D5"])
    def test_filtration_limit_admits_the_limit_itself(self, g, monkeypatch):
        # 5 Z_0 has 4 steps of r coefficients: exactly the limit.
        r = g.vertex_count
        monkeypatch.setattr(invariants, "MAX_FILTRATION", 4 * r)
        z0 = fundamental_cycle(g)
        assert len(filtration(g, scale(5, z0)).steps) == 4
        with pytest.raises(CycleError, match=f"more than {4 * r} coefficients"):
            filtration(g, scale(6, z0))


class TestSpecialModuleIndices:
    def test_fundamental_cycle_saturates_everywhere(self):
        g = build_ade("D", 5)
        z0 = fundamental_cycle(g)
        assert special_module_indices(g, z0) == frozenset(range(5))

    def test_known_e6_indices(self):
        g = build_ade("E", 6)
        # (2,3,4,3,2,2) has colength 2; only E_1 and E_5 reach n_i * 2
        assert special_module_indices(g, (2, 3, 4, 3, 2, 2)) == frozenset({0, 4})

    def test_non_special_cycle_has_empty_set(self):
        g = build_cyclic(7, 4)  # weights -2, -4
        z = scale(2, fundamental_cycle(g))
        assert colength(g, z) == 6
        assert special_module_indices(g, z) == frozenset()

    def test_coefficient_bound_holds_on_random_towers(self):
        for g in (build_ade("A", 7), build_ade("E", 8), STAR):
            z0 = fundamental_cycle(g)
            for k in range(1, 6):
                z = scale(k, z0)
                ell = colength(g, z)
                assert all(a <= n * ell for a, n in zip(z, z0))


@settings(max_examples=80, deadline=None)
@given(random_trees(8), st.integers(1, 4), st.integers(1, 4))
def test_colength_and_multiplicity_of_sums(g, a, b):
    """ell(Z + W) = ell(Z) + ell(W) - Z.W, and multiplicity is quadratic."""
    rep = validate(g)
    assume(rep.connected and rep.negative_definite and rep.rational)
    z0 = fundamental_cycle(g)
    z, w = scale(a, z0), scale(b, z0)
    s = add(z, w)
    zw = intersection(g, z, w)
    assert colength(g, s) == colength(g, z) + colength(g, w) - zw
    assert multiplicity(g, s) == multiplicity(g, z) + multiplicity(g, w) - 2 * zw


@settings(max_examples=150, deadline=None)
@given(random_trees(8), st.data())
def test_incremental_laufer_matches_recomputation(g, data):
    assume(is_negative_definite(g))
    verts = frozenset(
        data.draw(st.sets(st.integers(0, g.vertex_count - 1), min_size=1))
    )
    assume(len(components(g, verts)) == 1)
    expected = laufer_by_recomputation(g, verts)
    assert fundamental_cycle(g, verts) == expected
    # The fixed point does not depend on the vertex the loop starts from,
    # which fixes the breadth-first order of its search.
    start = data.draw(st.sampled_from(sorted(verts)))
    z, pairing, leaving = _laufer(g, start, set(verts))
    order = bfs_order(g, start, verts)
    assert list(z.items()) == [(v, expected[v]) for v in order]
    # ... and its pairing over verts is M.Z there, Z being supported on verts.
    full = pairing_vector(g, expected)
    assert list(pairing.items()) == [(v, full[v]) for v in order]
    # ... and it lists every edge that leaves verts, from the inside end,
    # in the order of the search.
    assert leaving == [(v, u) for v in order for u in g.neighbors(v) if u not in verts]
