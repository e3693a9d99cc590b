"""Acceptance suite: one test per criterion, each with its own time budget.

Each test prints a single PASS line on success (visible with -v through
the test outcome, and with -s through the print).  Randomized suites are
seeded for reproducibility.
"""

import math
import random
import time

from dualcycles.builders import build_ade, build_cyclic
from dualcycles.classify import (
    brute_force_anti_nef,
    enumerate_special,
    enumerate_ulrich,
    expected_ulrich_count,
    oracle_classify,
    verify_rdp,
)
from dualcycles.invariants import (
    colength,
    filtration,
    fundamental_cycle,
    is_anti_nef,
    is_special_cycle,
    is_ulrich_cycle,
    min_gens,
    multiplicity,
    u_invariant,
    validate,
    virtual_genus,
)
from dualcycles.lattice import DualGraph
from corpus import STAR, add, chain_cycles_in_box, inf_cycles, intersection

ADE_ALL = (
    [("A", n) for n in range(1, 13)]
    + [("D", n) for n in range(4, 13)]
    + [("E", n) for n in (6, 7, 8)]
)
ADE_SMALL = [(f, n) for f, n in ADE_ALL if n <= 8]


def random_rational_tree(rng: random.Random, max_vertices: int = 8) -> DualGraph:
    """Rejection-sample a connected, negative definite, rational tree."""
    while True:
        n = rng.randint(1, max_vertices)
        weights = [rng.choice((-2, -2, -3, -4, -5)) for _ in range(n)]
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        g = DualGraph(weights, edges)
        rep = validate(g)
        if rep.connected and rep.negative_definite and rep.rational:
            return g


def test_criterion_1_ade_golden_tables():
    start = time.monotonic()
    for family, index in ADE_ALL:
        rep = verify_rdp(family, index)
        assert rep.matched, f"{family}{index}: {rep.missing} {rep.extra}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 1: ADE golden tables exact ({elapsed:.2f}s)")


def test_criterion_2_closed_form_counts():
    for m in range(1, 7):
        g = build_ade("A", 2 * m)
        assert len(enumerate_ulrich(g)) == m == expected_ulrich_count("A", 2 * m)
        g = build_ade("A", 2 * m + 1)
        assert len(enumerate_ulrich(g)) == m + 1 == expected_ulrich_count("A", 2 * m + 1)
    for m in range(2, 7):
        g = build_ade("D", 2 * m)
        assert len(enumerate_ulrich(g)) == m + 2 == expected_ulrich_count("D", 2 * m)
        g = build_ade("D", 2 * m + 1)
        assert len(enumerate_ulrich(g)) == m + 1 == expected_ulrich_count("D", 2 * m + 1)
    for n, count in ((6, 2), (7, 3), (8, 2)):
        assert len(enumerate_ulrich(build_ade("E", n))) == count
    print("PASS criterion 2: closed-form Ulrich counts reproduced")


def test_criterion_3_cyclic_quotients_have_unique_ulrich_cycle():
    start = time.monotonic()
    checked = 0
    for n in range(3, 51):
        for q in range(2, n - 1):  # q = n-1 gives the Gorenstein chain A_{n-1}
            if math.gcd(n, q) != 1:
                continue
            g = build_cyclic(n, q)
            assert not validate(g).gorenstein
            entries = enumerate_ulrich(g)
            assert [e.cycle for e in entries] == [fundamental_cycle(g)]
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        f"PASS criterion 3: {checked} non-Gorenstein cyclic quotients have "
        f"exactly one Ulrich cycle ({elapsed:.2f}s)"
    )


def test_criterion_4_star_graph_tower():
    expected = {
        (1, 1, 1, 1, 1, 1, 1): (1, 3, 4),
        (1, 2, 2, 2, 1, 2, 1): (2, 6, 4),
        (1, 2, 3, 2, 1, 2, 1): (3, 9, 4),
    }
    special = enumerate_special(STAR, 6 * 7 + 1)
    ulrich = enumerate_ulrich(STAR)
    assert {e.cycle for e in special} == set(expected)
    assert {e.cycle for e in ulrich} == set(expected)
    for e in ulrich:
        ell, mult, mu = expected[e.cycle]
        assert e.colength == ell
        assert e.multiplicity == mult
        assert e.min_gens == mu
        assert u_invariant(STAR, e.cycle) == 0
    # pointwise cross-check on the whole box up to 6 * Z_0
    for z in brute_force_anti_nef(STAR, 6):
        assert is_special_cycle(STAR, z) == is_ulrich_cycle(STAR, z) == (z in expected)
    print("PASS criterion 4: star graph invariants and special = Ulrich tower")


def test_criterion_5_weighted_chain_example():
    g = build_cyclic(7, 3)
    assert g.weights == (-3, -2, -2)
    assert {e.cycle for e in enumerate_special(g, 10)} == {(1, 1, 1), (1, 2, 1)}
    assert [e.cycle for e in enumerate_ulrich(g)] == [(1, 1, 1)]
    assert u_invariant(g, (1, 2, 1)) != 0
    print("PASS criterion 5: special but non-Ulrich cycle on the (-3,-2,-2) chain")


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    graphs = [build_ade(f, n) for f, n in ADE_SMALL]
    graphs += [
        build_cyclic(n, q)
        for n in range(3, 13)
        for q in range(2, n)
        if math.gcd(n, q) == 1
    ]
    graphs.append(STAR)
    for g in graphs:
        assert chain_cycles_in_box(g, 6) == oracle_classify(g, 6)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        f"PASS criterion 6: chain and oracle classifications agree on "
        f"{len(graphs)} graphs at bound 6 ({elapsed:.2f}s)"
    )


def test_criterion_7_randomized_property_suites():
    start = time.monotonic()
    rng = random.Random(20260826)
    graphs = [random_rational_tree(rng) for _ in range(50)]
    anti_nef_pool = {g: brute_force_anti_nef(g, 3) for g in graphs}

    # suite 1: bilinear form identities on arbitrary integer cycles
    cases = 0
    while cases < 1000:
        g = rng.choice(graphs)
        r = g.vertex_count
        z = tuple(rng.randint(-4, 6) for _ in range(r))
        w = tuple(rng.randint(-4, 6) for _ in range(r))
        assert intersection(g, z, w) == intersection(g, w, z)
        assert intersection(g, add(z, w), w) == intersection(g, z, w) + intersection(
            g, w, w
        )
        pa = virtual_genus(g, add(z, w))
        assert pa == virtual_genus(g, z) + virtual_genus(g, w) + intersection(
            g, z, w
        ) - 1
        cases += 1

    # suite 2: the anti-nef cone is closed under inf and addition, and its
    # nonzero members all dominate the fundamental cycle
    cases = 0
    while cases < 1000:
        g = rng.choice(graphs)
        pool = anti_nef_pool[g]
        z0 = fundamental_cycle(g)
        z = rng.choice(pool)
        w = rng.choice(pool)
        assert is_anti_nef(g, inf_cycles(z, w))
        assert is_anti_nef(g, add(z, w))
        assert all(a >= b for a, b in zip(z, z0))
        cases += 1

    # suite 3: colength bookkeeping along canonical filtrations
    cases = 0
    while cases < 1000:
        g = rng.choice(graphs)
        z = rng.choice(anti_nef_pool[g])
        ell = colength(g, z)
        assert multiplicity(g, z) >= 1
        assert min_gens(g, z) >= 2
        z0 = fundamental_cycle(g)
        assert all(a <= n * ell for a, n in zip(z, z0))
        f = filtration(g, z)
        running = colength(g, f.base)
        prev = f.base
        for y, zk in f.steps:
            running += -intersection(g, y, prev) + 1 - virtual_genus(g, y)
            assert colength(g, zk) == running
            prev = zk
        assert prev == z
        cases += 1

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(
        f"PASS criterion 7: three property suites, 1000 randomized cases each "
        f"({elapsed:.2f}s)"
    )


def test_criterion_8_rdp_cross_check():
    start = time.monotonic()
    checked = 0
    for family, index in ADE_SMALL:
        g = build_ade(family, index)
        for z in brute_force_anti_nef(g, 6):
            special = is_special_cycle(g, z)
            assert special == (u_invariant(g, z) == 0)
            assert special == is_ulrich_cycle(g, z)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        f"PASS criterion 8: U(Z) = 0 matches specialness on {checked} "
        f"anti-nef cycles over the small ADE graphs ({elapsed:.2f}s)"
    )
