"""Tests for graph construction, parsing and validation."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualcycles import builders
from dualcycles.builders import (
    MAX_VERTICES,
    GraphFormatError,
    build_ade,
    build_cyclic,
    hj_expansion,
    parse_graph,
)
from dualcycles.invariants import is_negative_definite, validate
from dualcycles.lattice import DualGraph
from corpus import STAR, block_minors, det, minus_m, random_graphs


def last_pivot(g: DualGraph) -> int:
    """det(-M), the last leading principal minor of -M: on a negative
    definite graph, the order of its discriminant group."""
    return det(minus_m(g))


def continued_fraction_value(bs):
    """Evaluate b_1 - 1/(b_2 - 1/(...)) exactly."""
    value = Fraction(bs[-1])
    for b in reversed(bs[:-1]):
        value = b - 1 / value
    return value


class TestAde:
    def test_a_n_is_a_path(self):
        g = build_ade("A", 4)
        assert g.weights == (-2,) * 4
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_d_n_fork(self):
        g = build_ade("D", 5)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (2, 4)})

    def test_e_n_branch_vertex(self):
        for n in (6, 7, 8):
            g = build_ade("E", n)
            degrees = [len(g.neighbors(i)) for i in range(n)]
            assert degrees.count(3) == 1
            assert degrees[2] == 3

    def test_lowercase_family(self):
        assert build_ade("a", 3) == build_ade("A", 3)

    @pytest.mark.parametrize("family", ["A", "D"])
    def test_vertex_limit_is_checked_before_allocating(self, family):
        for n in (MAX_VERTICES + 1, 10**9, 10**30):
            with pytest.raises(ValueError, match=f"{family}_{n} has more than {MAX_VERTICES}"):
                build_ade(family, n)

    @pytest.mark.parametrize("family", ["A", "D"])
    def test_vertex_limit_admits_the_limit_itself(self, family, monkeypatch):
        monkeypatch.setattr(builders, "MAX_VERTICES", 6)
        assert build_ade(family, 6).vertex_count == 6
        with pytest.raises(ValueError, match=f"^{family}_7 has more than 6 vertices$"):
            build_ade(family, 7)

    @pytest.mark.parametrize(
        "family, index", [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("F", 4)]
    )
    def test_rejects_bad_parameters(self, family, index):
        with pytest.raises(ValueError):
            build_ade(family, index)

    @pytest.mark.parametrize(
        "family, index", [("A", n) for n in range(1, 9)]
        + [("D", n) for n in range(4, 9)]
        + [("E", n) for n in (6, 7, 8)]
    )
    def test_all_ade_graphs_validate_gorenstein(self, family, index):
        rep = validate(build_ade(family, index))
        assert rep.ok
        assert rep.rational and rep.gorenstein and rep.tree
        assert rep.multiplicity == 2

    def test_determinants(self):
        # classical discriminant group orders: n+1, 4, 3, 2, 1
        assert last_pivot(build_ade("A", 5)) == 6
        assert last_pivot(build_ade("D", 6)) == 4
        assert last_pivot(build_ade("E", 6)) == 3
        assert last_pivot(build_ade("E", 7)) == 2
        assert last_pivot(build_ade("E", 8)) == 1


class TestHjExpansion:
    @pytest.mark.parametrize(
        "n, q, expected",
        [
            (7, 3, [3, 2, 2]),
            (7, 4, [2, 4]),
            (4, 1, [4]),
            (4, 3, [2, 2, 2]),
            (3, 2, [2, 2]),
            (5, 2, [3, 2]),
            (19, 7, [3, 4, 2]),
        ],
    )
    def test_known_expansions(self, n, q, expected):
        assert hj_expansion(n, q) == expected

    @pytest.mark.parametrize("n, q", [(4, 2), (6, 3), (5, 0), (5, 5), (5, 7)])
    def test_rejects_bad_parameters(self, n, q):
        with pytest.raises(ValueError):
            hj_expansion(n, q)

    @given(
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=1, max_value=199),
    )
    def test_expansion_reproduces_the_fraction(self, n, q):
        if not (1 <= q < n and math.gcd(n, q) == 1):
            return
        bs = hj_expansion(n, q)
        assert all(b >= 2 for b in bs)
        assert continued_fraction_value(bs) == Fraction(n, q)

    def test_vertex_limit(self):
        # (q+1)/q expands to q terms of 2.
        assert hj_expansion(MAX_VERTICES + 1, MAX_VERTICES) == [2] * MAX_VERTICES
        for q in (MAX_VERTICES + 1, 10**9 - 1, 10**30 - 1):
            start = time.monotonic()
            with pytest.raises(ValueError, match=f"more than {MAX_VERTICES} vertices"):
                hj_expansion(q + 1, q)
            assert time.monotonic() - start < 2.0


class TestCyclic:
    def test_chain_shape(self):
        g = build_cyclic(7, 3)
        assert g.weights == (-3, -2, -2)
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_determinant_equals_group_order(self):
        for n in range(3, 30):
            for q in range(1, n):
                if math.gcd(n, q) == 1:
                    assert last_pivot(build_cyclic(n, q)) == n

    def test_all_small_cyclic_graphs_are_rational(self):
        for n in range(3, 20):
            for q in range(1, n):
                if math.gcd(n, q) == 1:
                    rep = validate(build_cyclic(n, q))
                    assert rep.ok and rep.rational


class TestParse:
    def test_round_trip_example(self):
        text = """
        # a chain with one heavy vertex
        vertices 3
        weight 1 -3
        edge 1 2
        edge 2 3
        """
        g = parse_graph(text)
        assert g == build_cyclic(7, 3)

    def test_default_weight_is_minus_two(self):
        g = parse_graph("vertices 2\nedge 1 2\n")
        assert g.weights == (-2, -2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("edge 1 2\n", "first directive"),
            ("vertices 2\nvertices 2\n", "duplicate 'vertices'"),
            ("vertices 0\n", ">= 1"),
            ("vertices 2\nweight 3 -2\n", "out of range"),
            ("vertices 2\nweight 1 -1\n", "<= -2"),
            ("vertices 2\nweight 1 -3\nweight 1 -4\n", "duplicate weight"),
            ("vertices 2\nedge 1 1\n", "self-loop"),
            ("vertices 2\nedge 1 3\n", "out of range"),
            ("vertices 2\nedge 1 2\nedge 2 1\n", "duplicate edge"),
            ("vertices 2\nfrobnicate 1\n", "unknown directive"),
            ("vertices 2\nedge 1\n", "argument"),
            ("vertices two\n", "not an integer"),
            # The count first, then the first argument that is not an
            # integer, then the range.
            ("vertices 2\nweight x\n", "'weight' takes 2 argument"),
            ("vertices 2\nweight 9 x\n", "'weight' argument 'x' is not an integer"),
            ("vertices 2\nedge x y\n", "'edge' argument 'x' is not an integer"),
            ("vertices 2\nedge 1 1.0\n", "'edge' argument '1.0' is not an integer"),
            ("", "missing 'vertices'"),
        ],
    )
    def test_rejects_malformed_text(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_graph(text)

    def test_vertex_limit_is_checked_before_allocating(self):
        for r in (MAX_VERTICES + 1, 10**9, 10**30):
            with pytest.raises(GraphFormatError, match=f"must be <= {MAX_VERTICES}") as err:
                parse_graph(f"# huge\nvertices {r}\n")
            assert err.value.line == 2

    def test_vertex_limit_admits_the_limit_itself(self, monkeypatch):
        monkeypatch.setattr(builders, "MAX_VERTICES", 3)
        assert parse_graph("vertices 3\n").vertex_count == 3
        with pytest.raises(GraphFormatError, match="vertex count must be <= 3, got 4"):
            parse_graph("vertices 4\n")

    def test_error_carries_line_number(self):
        err = None
        try:
            parse_graph("vertices 2\n\nedge 1 1\n")
        except GraphFormatError as e:
            err = e
        assert err is not None and err.line == 3


class TestValidate:
    def test_disconnected(self):
        g = DualGraph((-2, -2), [])
        rep = validate(g)
        assert not rep.ok and not rep.connected
        assert any("not connected" in f for f in rep.failures)

    def test_not_negative_definite(self):
        # the extended A_1 lattice: two -2 curves meeting twice is not
        # representable here, but a 0-weighted vertex breaks definiteness
        g = DualGraph((0,), [])
        rep = validate(g)
        assert not rep.negative_definite and not rep.ok

    def test_weight_finding(self):
        g = DualGraph((-1, -2), [(0, 1)])
        rep = validate(g)
        assert any("not a minimal resolution" in f for f in rep.failures)

    def test_triangle_of_minus_twos_is_degenerate(self):
        g = DualGraph((-2, -2, -2), [(0, 1), (1, 2), (0, 2)])
        rep = validate(g)
        assert not rep.negative_definite and not rep.ok

    def test_star_graph_is_rational_not_gorenstein(self):
        rep = validate(STAR)
        assert rep.ok and rep.rational and not rep.gorenstein
        assert rep.multiplicity == 3


def star(leaves: int, centre_weight: int, centre_last: bool) -> DualGraph:
    c = leaves if centre_last else 0
    others = [v for v in range(leaves + 1) if v != c]
    weights = [-2] * (leaves + 1)
    weights[c] = centre_weight
    return DualGraph(weights, [(c, v) for v in others])


def relabel(g: DualGraph, order: list[int]) -> DualGraph:
    """The graph with vertex order[k] renamed k."""
    new = {v: k for k, v in enumerate(order)}
    weights = [g.weights[v] for v in order]
    return DualGraph(weights, [(new[i], new[j]) for i, j in g.edges])


# Graphs whose elimination leaves rows untouched for many steps before
# reading them, or fills rows in: each row's own scale and the sparse
# updates must give the dense minors' verdict.
SKIPPED_ROW_GRAPHS = {
    "star-centre-last": star(8, -5, centre_last=True),
    "indefinite-star-centre-last": star(8, -3, centre_last=True),
    "star-centre-first": star(8, -5, centre_last=False),  # full fill-in
    "path-reversed": relabel(build_cyclic(1009, 390), list(range(8))[::-1]),
    "path-ends-inwards": relabel(build_ade("A", 11), [0, 10, 1, 9, 2, 8, 3, 7, 4, 6, 5]),
    "D9-fork-first": relabel(build_ade("D", 9), list(range(9))[::-1]),
    "E8-branch-first": relabel(build_ade("E", 8), [2, 7, 6, 5, 4, 3, 1, 0]),
    "tree-fill-in": DualGraph(
        (-3, -2, -2, -2, -4, -2, -2, -2, -3, -2),
        [(0, 3), (0, 6), (0, 9), (3, 1), (3, 8), (6, 2), (6, 5), (9, 4), (9, 7)],
    ),
}


class TestNegativeDefinite:
    @pytest.mark.parametrize("family, index", [("A", 7), ("D", 7), ("E", 8)])
    def test_ade_is_negative_definite(self, family, index):
        assert is_negative_definite(build_ade(family, index))

    def test_affine_e8_shape_is_not(self):
        # appending one more -2 vertex to the E_8 chain end gives the
        # affine diagram, whose form is only semidefinite
        g = DualGraph(
            (-2,) * 9,
            [(i, i + 1) for i in range(7)] + [(2, 8)],
        )
        assert not is_negative_definite(g)

    def test_determinant_sign_alternation(self):
        # -M is positive definite, so every pivot is positive and the last
        # one is det(-M), the order n of the group of (1/n)(1, q)
        g = build_cyclic(11, 4)
        assert last_pivot(g) == 11

    @pytest.mark.parametrize("g", SKIPPED_ROW_GRAPHS.values(), ids=SKIPPED_ROW_GRAPHS)
    def test_skipped_rows_match_block_determinants(self, g):
        assert is_negative_definite(g) == all(d > 0 for d in block_minors(minus_m(g)))

    @settings(max_examples=300, deadline=None)
    @given(random_graphs(), st.data())
    def test_sylvester_verdict(self, g, data):
        m = minus_m(g)
        assert is_negative_definite(g) == all(d > 0 for d in block_minors(m))
        # ... and on the block of any sub-support, connected or not.
        verts = sorted(data.draw(st.sets(st.integers(0, g.vertex_count - 1), min_size=1)))
        block = [[m[i][j] for j in verts] for i in verts]
        assert is_negative_definite(g, frozenset(verts)) == all(d > 0 for d in block_minors(block))

    def test_validate_scales_to_rank_300(self):
        # one elimination pass takes about a second on a 2-vCPU machine;
        # r separate determinants took minutes
        start = time.perf_counter()
        rep = validate(build_ade("A", 300))
        elapsed = time.perf_counter() - start
        assert rep.ok
        assert elapsed < 30.0, f"validate(A_300) took {elapsed:.1f}s"

    def test_validate_chain_of_1000_in_budget(self):
        # the sparse pass touches O(r) entries on a chain; the dense pass
        # took tens of seconds here
        start = time.perf_counter()
        rep = validate(build_ade("A", 1000))
        elapsed = time.perf_counter() - start
        assert rep.ok
        assert elapsed < 2.0, f"validate(A_1000) took {elapsed:.2f}s"
