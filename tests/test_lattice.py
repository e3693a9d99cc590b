"""Unit and property tests for the cycle arithmetic layer."""

import copy
import itertools
import weakref

import pytest
from hypothesis import given, strategies as st

from dualcycles.invariants import CycleError, _co_genera, is_anti_nef, virtual_genus
from dualcycles.lattice import Cycle, DimensionError, DualGraph, pairing_vector, scale, sub
from corpus import add, canonical_degree, inf_cycles, intersection, random_trees


def unit(g: DualGraph, i: int) -> Cycle:
    """The cycle E_i."""
    z = [0] * g.vertex_count
    z[i] = 1
    return tuple(z)


def path_graph(n: int, weights=None) -> DualGraph:
    return DualGraph(weights or (-2,) * n, [(i, i + 1) for i in range(n - 1)])


def cycles_for(g: DualGraph, lo=-4, hi=6):
    return st.tuples(*(st.integers(lo, hi) for _ in range(g.vertex_count)))


@st.composite
def graph_and_cycles(draw, k=1, lo=-4, hi=6):
    g = draw(random_trees(8))
    zs = [draw(cycles_for(g, lo, hi)) for _ in range(k)]
    return (g, *zs)


class TestDualGraph:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DualGraph((), [])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            DualGraph((-2, -2), [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            DualGraph((-2, -2), [(0, 1), (1, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            DualGraph((-2, -2), [(0, 2)])

    def test_edge_normalization(self):
        g = DualGraph((-2, -2, -2), [(2, 0), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert g.neighbors(2) == (0, 1)

    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] < e[1])),
           st.randoms())
    def test_neighbours_ascend(self, pairs, rnd):
        # Whatever the order and orientation of the edges given.
        edges = [(j, i) if rnd.random() < 0.5 else (i, j) for i, j in pairs]
        rnd.shuffle(edges)
        g = DualGraph((-2,) * 8, edges)
        for v in range(8):
            assert g.neighbors(v) == tuple(sorted({a + b - v for a, b in pairs if v in (a, b)}))

    def test_intersection_matrix(self):
        # column i of M is the pairing vector of E_i
        g = path_graph(3, (-2, -3, -2))
        assert [pairing_vector(g, unit(g, i)) for i in range(3)] == [
            (-2, 1, 0),
            (1, -3, 1),
            (0, 1, -2),
        ]

    def test_check_cycle_dimension(self):
        g = path_graph(2)
        with pytest.raises(DimensionError):
            g.check_cycle((1, 1, 1))

    def test_hashable_and_equal(self):
        a = DualGraph((-2, -2), [(0, 1)])
        b = DualGraph((-2, -2), [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != DualGraph((-2, -3), [(0, 1)]) and a != DualGraph((-2, -2), [])
        assert (a == object()) is False and a != (a.weights, a.edges)
        # Graphs key validate's memo: no field can change after
        # construction, and weak references to a graph work.
        with pytest.raises(AttributeError):
            a.weights = (-3, -2)
        with pytest.raises(AttributeError):
            del a.edges
        assert a.weights == (-2, -2)
        assert weakref.ref(a)() is a
        assert copy.deepcopy(a) == a
        assert repr(a) == "DualGraph(weights=(-2, -2), edges=frozenset({(0, 1)}))"


class TestArithmetic:
    def test_add_sub_scale(self):
        assert add((1, 2), (3, 4)) == (4, 6)
        assert sub((1, 2), (3, 4)) == (-2, -2)
        assert scale(3, (1, -2)) == (3, -6)

    def test_inf(self):
        assert inf_cycles((1, 5), (2, 3)) == (1, 3)


class TestPairing:
    def test_pairing_vector_matches_matrix(self):
        g = path_graph(4, (-2, -3, -2, -4))
        z = (1, 2, 0, 3)
        m = [[-2, 1, 0, 0], [1, -3, 1, 0], [0, 1, -2, 1], [0, 0, 1, -4]]
        expected = tuple(sum(m[i][j] * z[j] for j in range(4)) for i in range(4))
        assert pairing_vector(g, z) == expected

    def test_intersection_via_units(self):
        g = path_graph(3)
        assert intersection(g, unit(g, 0), unit(g, 1)) == 1
        assert intersection(g, unit(g, 0), unit(g, 2)) == 0
        assert intersection(g, unit(g, 1), unit(g, 1)) == -2

    @given(graph_and_cycles(k=2))
    def test_intersection_symmetric(self, gzw):
        g, z, w = gzw
        assert intersection(g, z, w) == intersection(g, w, z)

    @given(graph_and_cycles(k=3))
    def test_intersection_bilinear(self, gzw):
        g, z, w, v = gzw
        assert intersection(g, add(z, w), v) == intersection(g, z, v) + intersection(
            g, w, v
        )

    @given(graph_and_cycles(k=1))
    def test_pairing_vector_consistent_with_intersection(self, gz):
        g, z = gz
        pv = pairing_vector(g, z)
        for i in range(g.vertex_count):
            assert pv[i] == intersection(g, z, unit(g, i))


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
