"""Unit and property tests for the cycle arithmetic layer."""

import copy
import weakref

import pytest
from hypothesis import given, strategies as st

from dualcycles.lattice import DimensionError, DualGraph, pairing_vector
from corpus import add, graph_and_cycles, inf_cycles, intersection, path_graph, unit


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
        # A graph is a value: no field can change after construction,
        # and weak references to a graph work.
        with pytest.raises(AttributeError):
            a.weights = (-3, -2)
        with pytest.raises(AttributeError):
            del a.edges
        assert a.weights == (-2, -2)
        assert weakref.ref(a)() is a
        assert copy.deepcopy(a) == a
        assert repr(a) == "DualGraph(weights=(-2, -2), edges=frozenset({(0, 1)}))"


class TestArithmetic:
    def test_add(self):
        assert add((1, 2), (3, 4)) == (4, 6)

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
