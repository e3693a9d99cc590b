"""Special and Ulrich cycle classification.

Two independent routes are provided for every question.  The chain route
walks the tree of admissible filtration steps once (each increment is
the fundamental cycle of a connected component of the current
zero-pairing locus) and reads both lists off that one walk: a chain
witnesses a special endpoint when some vertex keeps its full Z_0
coefficient at every step, and an Ulrich one when every step keeps
K.(Z_0 - Y) = 0.  The oracle brute-forces all anti-nef cycles in a box
and applies the pointwise tests (coefficient saturation for special,
vanishing U invariant for Ulrich).  The two routes are compared by the
differential tests and must never disagree.  Each public entry point
computes the graph's ``validate`` report once per call
(InvalidGraphError unless it accepts the graph) and passes that report
down; nothing is kept between calls.  The cycle invariants and verdicts
come from one ``invariants._formulas`` call per request, over the four
sums per cycle that the chain walk and the oracle's box search each
keep as they go.  Also: the ADE golden tables.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from operator import mul

from .builders import _ade_type, build_ade
from .invariants import (
    Filtration,
    ValidationReport,
    _formulas,
    _laufer,
    _rational,
    _z0_report,
)
from .lattice import Cycle, DualGraph, _reach


# The most coefficients (cycles times r) the oracle's box search may hold.
# It is checked once per interval of the last vertex's values, before that
# interval's cycles are appended, so a box with more is refused with
# BoxLimitError before its cycles exhaust time or memory, whatever its
# bound.  E_8 at bound 25, 33,723 cycles, holds 269,784.
MAX_BOX = 1_000_000


class BoxLimitError(RuntimeError):
    """The oracle's box holds more than MAX_BOX coefficients."""


class ClassificationEntry(namedtuple("ClassificationEntry", (
        "cycle colength multiplicity min_gens module_indices chain kind"))):
    """One classified cycle together with its invariants and a witness chain:
    three ints, the frozenset of its special module indices, a Filtration,
    and ``kind``, "special" or "both" (Ulrich too; an Ulrich cycle is
    special)."""

    __slots__ = ()


def _zero_components(g: DualGraph, zeros: list[int]):
    """The components of the vertices ``zeros`` as a list, each in its
    search order: one ``lattice._reach`` inside them starts at each vertex
    of ``zeros`` that no earlier search reached (``_reach`` takes its
    component out of the set)."""
    left = set(zeros)
    return [_reach(g, s, left) for s in zeros if s in left]


def _walk(g: DualGraph, record: ValidationReport, max_depth: int, ulrich: bool):
    """The admissible filtration chains from Z_0, walked once for both lists.

    Candidate increments at each node are the fundamental cycles of the
    connected components of the zero-pairing locus inside the previous
    increment's support (all of Z_0's at the root); a candidate extends
    the chain when it keeps Z anti-nef.  Returns {cycle: (its chain, its
    surviving set, K bit, its sums)}, Z_0 included: the chain is a
    tuple of (Y_k, Z_k) pairs, each pair one object shared by every chain
    through its node, the surviving set the vertices i with coeff(Y_k) =
    n_i at every step, the K bit whether every step keeps
    K.(Z_0 - Y_k) = 0, the Ulrich condition, and the sums the four of
    ``invariants._formulas``.

    The chains form a tree of bounded depth, by four lemmas on a child's
    increment Y', the fundamental cycle of a connected component C' of
    the zero locus inside supp(Y):

    - the increments decrease, Y' <= Y (and Y_1 <= Z_0).  Y is positive
      and anti-nef on its support (a fundamental cycle; Z_0 everywhere);
      dropping its coefficients off C' only lowers the pairings on C', so
      its restriction to C' is positive and anti-nef on C', and Laufer's
      minimality puts Y' below it;
    - the supports shrink strictly, C' is a proper subset of supp(Y) = C
      (and C_1 of all vertices).  The parent's pairing is zero on C, so
      on C the node's pairing is M.Y, and Y^2 = sum over v in C of
      y_v (M.Y)_v < 0 (the graph is negative definite): some vertex of C
      pairs negatively and leaves the zero locus.  At the root Z_0^2 < 0
      does the same.  So a chain has at most z = #{v: (M.Z_0)_v = 0}
      <= r - 1 steps, every walked cycle has colength <= z + 1 <= r
      (below), and the walk needs no step cap;
    - no cycle is reached twice.  Siblings add increments on disjoint
      components, and every later increment stays inside its parent's
      support, so two chains that part at a node add nonzero cycles on
      disjoint supports from there on, and a chain's extension adds a
      nonzero one.  So the walk's nodes are its cycles, and each cycle
      has exactly one chain;
    - the surviving set is {v in C': coeff(Y') = n_v}.  With
      Y' <= Y_{k-1} <= ... <= Y_1 <= Z_0, a coefficient n_v at Y' forces
      n_v at every earlier step.

    A step past ``max_depth`` is dropped unless ``ulrich`` is set and the
    step keeps K.  The surviving set lies inside C, so a component that
    misses a heavy vertex (weight <= -3) cannot keep K: past
    ``max_depth`` such a component, and every component when ``ulrich``
    is false, is dropped before Laufer's loop runs.  A node whose
    children all fall past ``max_depth`` gets no zero-locus search at all
    (no ``_zero_components``, no ``_reach``) when none of them can keep
    K: when ``ulrich`` is false, when the node's own step does not keep K
    (the increments decrease, so no later step gets back a heavy vertex's
    full coefficient), or when its pairing is nonzero at a heavy vertex,
    which then lies in no component.  So ``classify --ulrich`` on a graph
    whose Z_0 pairs nonzero with a heavy vertex, such as every
    non-Gorenstein chain, walks Z_0 alone.

    Checked, not proved: every chain that ends at a special or Ulrich
    cycle Z is Z's canonical filtration Z_k = inf(Z, (k+1) Z_0)
    (``invariants._filtration``).  Tier-1 checks it on every entry of the
    tree census up to 6 vertices, A_1-A_30, D_4-D_30, E_6-E_8 and every
    (1/n)(1, q) with n < 30, and CI on the 7-vertex census.  It fails on
    walked cycles that are not entries, whose canonical filtration can be
    shorter.

    With K.E_v = -w_v - 2 >= 0 on a minimal graph and every Y_k <= Z_0,
    K.Y_k = K.Z_0 holds exactly when Y_k takes the full coefficient n_v
    at every vertex of weight <= -3, that is when those vertices all
    survive.  A step Y is the fundamental cycle of a connected piece of
    Z's zero locus, so p_a(Y) = 0 (Laufer) and Z.Y = 0, whence
    p_a(Z + Y) = p_a(Z) - 1: every chain to Z has colength(Z) - 1 steps,
    and a vertex survives exactly when a_v = n_v * colength(Z).

    A step Y on a component C does O(|C| + boundary) Python work and O(r)
    at C speed: Laufer's loop, then one pass over C.  Laufer's loop runs
    on C alone (connected by construction, definite inside a definite
    graph) and also returns the edges (v, u) that leave C.  P = M.Z moves
    by M.Y only on C and its boundary.  On C the parent's P is zero, so
    the child's is the pairing of Y over C that Laufer's loop returns,
    <= 0.  Off C, y_v is added at the far end u of each leaving edge, and
    the step is dropped at the first positive sum: the anti-nef test reads
    the boundary only, as every other entry stays as the anti-nef
    parent's.  The one pass over C writes Y, Z + Y and the child's P on C,
    moves the four sums, and collects the surviving set and the child's
    zero vertices, whose components ``_zero_components`` lists, each then
    one step on the stack: ``_classify`` sorts the cycles and none is
    reached twice, so the order the walk meets them in cannot be seen.
    Y and Z + Y are length-r tuples and P a length-r list, each built
    from the parent's, and Z_0's P comes from the graph's report: the
    walk builds no pairing vector.  P lives only while the node's steps
    are on the stack; a node keeps its four sums,
    moved exactly over C alone: Z.Y = 0, so Z^2 gains Y^2 = sum y_v (M.Y)_v,
    K.Z gains y_v K.E_v and Z.Z_0 gains y_v (M.Z_0)_v, and the new
    a_v L/n_v enters the maximum.  Z_0's are -Z_0^2, K.Z_0 = -Z_0^2 - 2
    (p_a(Z_0) = 0) and L.
    """
    z0, root, canonical, scales = record.z0, record.pairing, record.canonical, record.scales
    heavy = frozenset(v for v, w in enumerate(g.weights) if w < -2)
    sums = (-record.multiplicity, record.multiplicity - 2, -record.multiplicity, record.lcm)
    best = {z0: ((), frozenset(range(g.vertex_count)), True, sums)}

    # A stack of candidate steps (component, parent's Z, pairing, chain,
    # sums), a node's all pushed when it is recorded, so chain length is
    # not bounded by the interpreter's recursion.
    stack = []
    if max_depth > 0 or ulrich and not any(root[v] for v in heavy):
        zeros = [v for v, p in enumerate(root) if not p]
        stack = [(c, z0, root, (), sums) for c in _zero_components(g, zeros)]
    while stack:
        comp, z_prev, pairing, chain, (sq, kz, zz, top) = stack.pop()
        if len(chain) >= max_depth and not (ulrich and heavy.issubset(comp)):
            continue  # only a K step enters past max_depth, and K needs every heavy vertex in C
        ys, on_c, leaving = _laufer(g, comp)
        p_new = list(pairing)
        for v, u in leaving:
            p_new[u] += ys[v]
            if p_new[u] > 0:
                break  # not anti-nef: the step is dropped
        else:
            y, z_new, surviving, zeros = [0] * len(z0), list(z_prev), set(), []
            for v, a in ys.items():
                p = p_new[v] = on_c[v]
                y[v] = a
                z_new[v] += a
                # The sums become the child's; each step pops its parent's.
                sq, kz, zz = sq + a * p, kz + a * canonical[v], zz + a * root[v]
                if z_new[v] * scales[v] > top:
                    top = z_new[v] * scales[v]
                if a == z0[v]:
                    surviving.add(v)
                if not p:
                    zeros.append(v)
            keeps = heavy <= surviving
            if not (keeps and ulrich) and len(chain) >= max_depth:
                continue  # past max_depth, only an Ulrich step is walked
            z_new = tuple(z_new)
            new_chain = chain + ((tuple(y), z_new),)
            sums = (sq, kz, zz, top)
            best[z_new] = (new_chain, frozenset(surviving), keeps, sums)
            if len(new_chain) < max_depth or keeps and ulrich and not any(p_new[v] for v in heavy):
                stack += [(c, z_new, p_new, new_chain, sums) for c in _zero_components(g, zeros)]
    return best


def _classify(g: DualGraph, max_colength: int | None = None, special: bool = True,
              ulrich: bool = True):
    """(special cycles of colength <= max_colength, Ulrich cycles) from one
    ``_walk``, with None in place of a list that is not asked for.

    ``max_colength`` caps the special list only, and None, its default,
    means no cap (``_walk``: no walked cycle has colength above r).  It
    is checked whichever lists are asked for.  One ``_formulas`` call
    over the sums the walk keeps for every walked cycle gives the
    pointwise tests, and both chain criteria must agree with them both
    ways (AssertionError else): a nonempty surviving set with the special
    verdict, the K bit with the Ulrich one.  Each cycle that is special
    or Ulrich gets one entry, with its one chain, shared by both lists,
    read off its walk node: the module indices are the surviving set
    ({i: a_i = n_i colength(Z)}, as ``_walk`` shows) and the kind is
    "both" when the K bit holds, else "special" (the K bit puts every
    heavy vertex in the surviving set, so an Ulrich cycle is special).
    Equal lists are returned as one list object.  Errors come in this
    order: InvalidGraphError with the graph's first finding in the order
    of ``invariants._rational``, TypeError on a max_colength that is not
    an integer, ValueError on one below 1, then those of ``_formulas``.
    """
    record = _rational(g)
    max_colength = math.inf if max_colength is None else operator.index(max_colength)
    if max_colength < 1:
        raise ValueError("max_colength must be >= 1")
    max_depth = max_colength - 1 if special else 0
    best = _walk(g, record, max_depth, ulrich)
    cycles = sorted(best)
    cols = _formulas(*zip(*(best[z][3] for z in cycles)), record)

    specials, ulrichs = [], []
    for z, mult, ell, mu, _, saturated, is_ulrich in zip(cycles, *cols):
        chain, surviving, keeps, _ = best[z]
        if bool(surviving) != saturated:
            raise AssertionError(f"special chain criterion disagrees with pointwise test at {z}")
        if keeps != is_ulrich:
            raise AssertionError(f"Ulrich chain criterion disagrees with pointwise test at {z}")
        in_special = saturated and len(chain) <= max_depth
        in_ulrich = keeps and ulrich
        if not (in_special or in_ulrich):
            continue
        entry = ClassificationEntry(z, ell, mult, mu, surviving, Filtration(record.z0, chain),
                                    "both" if keeps else "special")
        if in_special:
            specials.append(entry)
        if in_ulrich:
            ulrichs.append(entry)
    if specials == ulrichs:
        ulrichs = specials
    return specials if special else None, ulrichs if ulrich else None


def enumerate_special(g: DualGraph, max_colength: int) -> list[ClassificationEntry]:
    """All special cycles of colength <= max_colength, by the chain criterion.

    A chain witnesses specialness of its endpoint when some vertex index
    has coeff(Y_k) = n_i at every step; as the increments decrease, that
    is the last step's coefficient, and the cycle is emitted when some
    vertex keeps it.
    """
    return _classify(g, max_colength, ulrich=False)[0]


def enumerate_ulrich(g: DualGraph) -> list[ClassificationEntry]:
    """All Ulrich cycles of the graph.

    These are the endpoints of the chains whose every increment leaves
    the canonical degree of Z_0 - Y_k at zero (every vertex with weight
    <= -3 keeps its full Z_0 coefficient).  On a multiplicity-2 graph
    every weight is -2, so every chain qualifies and Ulrich and special
    cycles coincide.  No chain has more than r - 1 steps (``_walk``), so
    the walk needs no cap.
    """
    return _classify(g, special=False)[1]


def _lower_bound_plans(g: DualGraph, order: list[int]) -> list[tuple[list, list, int]]:
    """For each position k: (vertices, coefficients, det) with a_p >=
    ceil(sum c_v a_v / det).

    With p = order[k], U = order[k:] and det = det(-M_U), the vertices are
    the assigned vertices v with a nonzero c_v = sum of adj(-M_U)[p][u]
    over the neighbours u of v in U, in order, and the coefficients their
    c_v, so that sum c_v a_v = (adj(-M_U) b)_p.  The
    adjugates are grown from the last position backwards by the bordering
    (Schur complement) update, all in exact integers: O(r^3) in all, run
    once per search by ``_search_plan``.  The dets are leading minors of
    -M, positive as the graph must be negative definite (Sylvester's
    criterion).
    """
    pos: dict[int, int] = {}  # vertex -> row of `adj`, for the vertices of U
    adj: list[list[int]] = []
    d = 1
    plans: list = [None] * len(order)
    for k in range(len(order) - 1, -1, -1):
        p = order[k]
        near = [pos[q] for q in g.neighbors(p) if q in pos]
        t = [sum(row[j] for j in near) for row in adj]
        det = -g.weights[p] * d - sum(t[j] for j in near)
        adj = [
            [(det * x + ti * tj) // d for x, tj in zip(row, t)] + [ti]
            for row, ti in zip(adj, t)
        ]
        adj.append(t + [d])
        pos[p] = len(adj) - 1
        d = det
        row = adj[-1]
        vs, cs = [], []
        for v in order[:k]:
            c = sum(row[pos[u]] for u in g.neighbors(v) if u in pos)
            if c:
                vs.append(v)
                cs.append(c)
        plans[k] = (vs, cs, det)
    return plans


def _rows(flat, r: int):
    """The consecutive length-r rows of a flat sequence, as tuples, at C speed."""
    return zip(*[iter(flat)] * r)


def brute_force_anti_nef(g: DualGraph, bound: int) -> list[Cycle]:
    """All anti-nef cycles 0 < Z <= bound * Z_0 (``_box_search``), bound >= 1,
    sorted.  Z_0 is read off one report through ``invariants._z0_report``,
    the gate of ``fundamental_cycle(g)``, so a graph that is not negative
    definite, then one that is not connected, raises its
    InvalidGraphError; any other graph is searched, rational or not.
    BoxLimitError when the cycles would hold more than MAX_BOX
    coefficients; TypeError on a bound that is not an integer."""
    if operator.index(bound) < 1:
        raise ValueError("bound must be >= 1")
    record = _z0_report(g)
    return sorted(_rows(_box_search(g, operator.index(bound), record)[0], g.vertex_count))


def _search_plan(g: DualGraph, record: ValidationReport) -> tuple:
    """What ``_box_search`` needs of a graph apart from the box, given its
    ``validate`` report, computed afresh on each call and kept nowhere:
    (the step tuples of the main loop's positions, the second-to-last
    position's step tuple, the last position's tuple).

    The search order starts at the first leaf that a ``lattice._reach``
    from the lowest-index branch vertex (degree > 2) meets, so that the
    fork and its short arms are assigned early and their bounds cut the
    long arms; a chain starts at its lowest-index leaf (vertex 0 when there
    is none).  The order is that leaf's breadth-first ``_reach``, which
    meets every vertex of a connected graph.  A step tuple holds the
    vertex p, w_p, p's neighbours, those assigned before it (the upper
    bound's), the lower bound's vertices, coefficients and det
    (``_lower_bound_plans``), n_p, K.E_p, (M.Z_0)_p and L/n_p with L =
    lcm(n).  The last vertex x's tuple holds x, w_x, n_x, K.E_x,
    (M.Z_0)_x, L/n_x, then how far x's own pairing moves per unit of a_q
    (q the second-to-last vertex), the neighbours of x whose pairing a_q
    does not move, and (u, d) for each one whose pairing it moves by d.  A
    one-vertex graph has no q: its place holds a step whose interval is
    {0} and which moves nothing.  Z_0, M.Z_0, K.E_p and L/n_p come from
    the report, so every connected, negative definite graph is planned,
    rational or not.
    """
    r, nbrs, weights, z0 = g.vertex_count, g._neighbors, g.weights, record.z0
    branch = next((v for v in range(r) if len(nbrs[v]) > 2), None)
    seek = range(r) if branch is None else _reach(g, branch, set(range(r)))
    order = _reach(g, next((v for v in seek if len(nbrs[v]) == 1), 0), set(range(r)))
    rank = {v: k for k, v in enumerate(order)}
    steps = [
        (p, weights[p], nbrs[p], [u for u in nbrs[p] if rank[u] < k], *plan, z0[p],
         record.canonical[p], record.pairing[p], record.scales[p])
        for k, (p, plan) in enumerate(zip(order[:-1], _lower_bound_plans(g, order)))
    ]
    x = order[-1]
    inner = steps.pop() if r > 1 else (x, 0, (), (), (), (), 1, 0, 0, 0, 0)  # q's interval is {0}
    moves = dict.fromkeys(inner[2], 1) | {inner[0]: inner[1]}  # pairings moved per unit of a_q
    last = (x, weights[x], z0[x], record.canonical[x], record.pairing[x], record.scales[x],
            moves.get(x, 0), [u for u in nbrs[x] if not moves.get(u)],
            [(u, moves[u]) for u in nbrs[x] if moves.get(u)])
    return steps, inner, last


def _box_search(g: DualGraph, bound: int, record: ValidationReport) -> tuple[list[int], ...]:
    """Every anti-nef cycle 0 < Z <= bound * Z_0 on a connected, negative
    definite graph whose ``validate`` report is ``record`` (unchecked: both
    callers check that it holds Z_0, which needs both), by pruned
    enumeration, as five flat lists in the order of the search (not
    sorted): the coefficients of each cycle found, r per cycle, and four
    sums per cycle, Z^2, K.Z, Z.Z_0 and L max_i a_i/n_i with L = lcm(n),
    the input of ``invariants._formulas``.  No tuple and no pairing row
    is built per cycle.

    Coefficients are assigned in the order of ``_search_plan``.  The
    interval of the vertex p being assigned is cut from both sides by the
    pointwise definition Z.E_i <= 0 alone, so nothing here uses the chain
    results or the theorem Z >= Z_0:

    - upper: unassigned coefficients are nonnegative, so each assigned
      neighbour u of p must keep its pairing over the assigned vertices,
      a_p included, nonpositive;
    - lower: with U the unassigned vertices (p among them) and b_u the sum
      of the assigned neighbours of u, anti-nefness on U reads
      (-M_U) x >= b.  -M_U is a positive definite Z-matrix, hence a
      nonsingular M-matrix with an entrywise nonnegative inverse (Berman
      and Plemmons), so a_p >= ((-M_U)^-1 b)_p, computed exactly as
      ceil(adj(-M_U) b / det(-M_U)) from ``_lower_bound_plans``.

    A main-loop step moves a_p by s, with the running pairing M.Z over the
    assigned vertices and the sums, exactly: with P_p the pairing of p
    before the step, Z^2 gains s (2 P_p + s w_p), K.Z gains s K.E_p and
    Z.Z_0 gains s (M.Z_0)_p; the maximum is one prefix value per depth.
    Every vertex's pairing is final, and checked, once it and its
    neighbours are assigned, so every value in the last vertex x's
    interval is a result, the zero cycle excepted: a lower end of 0 is
    raised to 1, as a_x = 0 is a result only in the zero cycle (a nonzero
    anti-nef cycle on a connected graph has full support, since a vertex
    off the support but next to it would pair positively with it).  The
    last two positions, q then x, run as one nested loop, not as trips
    through the main loop: for each a_q in q's interval, x's interval is
    [ceil(P_x / -w_x), the least of its box and -P_u over x's neighbours
    u], where P_x and the P_u move with a_q as the plan says.  Each a in
    it is a cycle
    Z = Z' + a E_x with a_x = 0 in Z', appended with its sums in closed
    form: Z^2 = Z'^2 + 2a P'_x + a^2 w_x, K.Z = K.Z' + a K.E_x, Z.Z_0 =
    Z'.Z_0 + a (M.Z_0)_x and max(top(Z'), a L/n_x).  The MAX_BOX check
    runs once per interval of x, before its n cycles are appended:
    BoxLimitError when the cycles would then hold more than MAX_BOX
    coefficients, which refuses exactly the boxes whose cycles hold more.

    Cost: the plan, O(r^3) once per search, then O(r) per main-loop step,
    O(deg) per value of q, and per cycle O(1) plus one extend of r
    coefficients.  On E_8 the search tries 474 values for the
    61 cycles at bound 6 and 1,435 for the 255 at bound 9 (510 and 1,715
    from the lowest-index leaf); with the neighbour bound ceil(S / -w_p)
    as the only lower bound it tried 226,667 and 2,189,834.  Its main
    loop runs 709 and 1,941 times there, and 38,929 times for the 33,723
    cycles at bound 25, against 827, 2,361 and 69,855 with only the last
    vertex in an inner loop.  On D_12 at bound 12 the main loop runs 3,313
    times for 3,543 cycles, against 6,929 then and 80,239 from the
    lowest-index leaf with one trip per cycle.
    """
    steps, (q, wq, _, qcaps, qvs, qcs, qdet, nq, kcq, mq, lnq), last = _search_plan(g, record)
    x, wx, nx, kcx, mx, lnx, dx, fixed, varying = last
    r = g.vertex_count
    zs, squares, canonicals, pairings, tops = [], [], [], [], []
    coeffs, pairing = [0] * r, [0] * r  # the pairing over the assigned coefficients only
    his, prefix = [0] * r, [0] * r  # prefix[k]: max a_v L/n_v over the positions before k
    get = coeffs.__getitem__
    sq = kz = zz = 0
    k, fresh, nest = 0, True, len(steps)
    while k >= 0:
        if k == nest:  # q and x, the last two positions, in one nested loop
            lo1 = -(-sum(map(mul, qcs, map(get, qvs))) // qdet)
            hi1 = nq * bound
            for u in qcaps:
                if -pairing[u] < hi1:
                    hi1 = -pairing[u]
            cap = nx * bound
            for u in fixed:
                if -pairing[u] < cap:
                    cap = -pairing[u]
            pq, px, top0 = pairing[q], pairing[x], prefix[k]
            for a1 in range(lo1, hi1 + 1):
                s = px + dx * a1  # x's pairing, a_x still 0
                lo, hi = -(s // wx) or 1, cap  # not the zero cycle
                for u, d in varying:
                    if -pairing[u] - d * a1 < hi:
                        hi = -pairing[u] - d * a1
                if lo > hi:
                    continue
                if len(zs) + (hi - lo + 1) * r > MAX_BOX:
                    raise BoxLimitError(f"the box holds more than {MAX_BOX} coefficients "
                                        "of anti-nef cycles (cycles times vertices)")
                coeffs[q] = a1
                sq1, kz1, zz1 = sq + a1 * (2 * pq + a1 * wq), kz + a1 * kcq, zz + a1 * mq
                top1 = max(top0, a1 * lnq)
                for a in range(lo, hi + 1):
                    coeffs[x] = a
                    zs += coeffs
                    squares.append(sq1 + a * (2 * s + a * wx))
                    canonicals.append(kz1 + a * kcx)
                    pairings.append(zz1 + a * mx)
                    t = a * lnx
                    tops.append(t if t > top1 else top1)
            coeffs[q] = coeffs[x] = 0
            k, fresh = k - 1, False
            continue
        p, w, near, caps, vs, cs, det, n, kc, m, ln = steps[k]
        if fresh:
            lo = -(-sum(map(mul, cs, map(get, vs))) // det)
            hi = n * bound
            for u in caps:
                if -pairing[u] < hi:
                    hi = -pairing[u]
            if lo > hi:
                k, fresh = k - 1, False
                continue
            his[k] = hi
            step = lo
        elif coeffs[p] < his[k]:
            step = 1
        else:
            step = -coeffs[p]
        sq += step * (2 * pairing[p] + step * w)
        kz += step * kc
        zz += step * m
        coeffs[p] += step
        pairing[p] += w * step
        for u in near:
            pairing[u] += step
        if fresh or step > 0:
            t, top = coeffs[p] * ln, prefix[k]
            prefix[k + 1] = t if t > top else top
            k, fresh = k + 1, True
        else:
            k -= 1
    return zs, squares, canonicals, pairings, tops


def oracle_classify(g: DualGraph, bound: int) -> tuple[list[Cycle], list[Cycle]]:
    """Reference classification with no chain reasoning: the sorted special
    and Ulrich cycles among the brute-force anti-nef cycles, by the
    pointwise tests.  One ``_formulas`` call reads every boxed cycle's
    verdicts off the four sums that ``_box_search`` keeps, the Ulrich one
    U(Z) = 0 at every multiplicity; only the special and Ulrich rows
    become tuples.  When the two verdict columns are equal, as the paper
    shows on a multiplicity-2 graph, the rows are sorted once and
    returned as one list object, as ``_classify`` does.  Errors come in
    this order: InvalidGraphError as in ``_classify``, TypeError on a
    bound that is not an integer, ValueError on one below 1, then
    BoxLimitError as in ``brute_force_anti_nef``."""
    record = _rational(g)
    if operator.index(bound) < 1:
        raise ValueError("bound must be >= 1")
    zs, *sums = _box_search(g, operator.index(bound), record)
    special, ulrich = _formulas(*sums, record)[4:]
    rows = lambda verdicts: sorted(itertools.compress(_rows(zs, g.vertex_count), verdicts))
    found = rows(special)
    return found, found if ulrich == special else rows(ulrich)


def golden_table(family: str, index: int) -> list[tuple[Cycle, int]]:
    """Expected Ulrich cycles of an ADE graph with their colengths.

    Closed forms: A_n takes the plateau cycles min(i, k+1, n+1-i); D_n
    takes the staircase cycles plus the three exceptional members on the
    fork; E_6/E_7/E_8 are fixed lists.  Sorted lexicographically.
    """
    family, n = _ade_type(family, index)
    entries: list[tuple[Cycle, int]] = []
    if family == "A":
        top = (n - 1) // 2 if n % 2 else n // 2 - 1
        for k in range(top + 1):
            z = tuple(min(i, k + 1, n + 1 - i) for i in range(1, n + 1))
            entries.append((z, k + 1))
    elif family == "D":
        m = n // 2
        for k in range(m - 1):
            chain = tuple(min(i, 2 * k + 2) for i in range(1, n - 1))
            entries.append((chain + (k + 1, k + 1), k + 1))
        stair = tuple(range(1, n - 1))
        if n % 2 == 0:
            entries.append((stair + (m, m - 1), m))
            entries.append((stair + (m - 1, m), m))
        else:
            entries.append((stair + (m, m), m))
        entries.append(((2,) * (n - 2) + (1, 1), 2))
    else:
        entries = {
            6: [
                ((1, 2, 3, 2, 1, 2), 1),
                ((2, 3, 4, 3, 2, 2), 2),
            ],
            7: [
                ((2, 3, 4, 3, 2, 1, 2), 1),
                ((2, 4, 6, 5, 4, 2, 3), 2),
                ((2, 4, 6, 5, 4, 3, 3), 3),
            ],
            8: [
                ((2, 4, 6, 5, 4, 3, 2, 3), 1),
                ((4, 7, 10, 8, 6, 4, 2, 5), 2),
            ],
        }[n]
    return sorted(entries)


def expected_ulrich_count(family: str, index: int) -> int:
    """Number of Ulrich cycles of an ADE graph: m / m+1 / m+2 / m+1 for
    A_2m / A_2m+1 / D_2m / D_2m+1, and 2 / 3 / 2 for E_6 / E_7 / E_8."""
    family, n = _ade_type(family, index)
    if family == "A":
        return n // 2 if n % 2 == 0 else (n - 1) // 2 + 1
    if family == "D":
        return n // 2 + 2 if n % 2 == 0 else (n - 1) // 2 + 1
    return {6: 2, 7: 3, 8: 2}[n]


class RdpVerification(namedtuple("RdpVerification", (
        "family index matched expected actual expected_count missing extra"
        " colength_mismatches"))):
    """Diff between the enumerated and the expected ADE Ulrich table:
    ``expected`` and ``actual`` list (cycle, colength) pairs, ``missing``
    and ``extra`` cycles, and ``colength_mismatches`` (cycle, expected,
    actual) triples."""

    __slots__ = ()


def verify_rdp(family: str, index: int) -> RdpVerification:
    """Enumerate the Ulrich cycles of an ADE graph and diff against the
    expected table, including the closed-form count."""
    g = build_ade(family, index)
    expected = golden_table(family, index)
    actual = [(e.cycle, e.colength) for e in enumerate_ulrich(g)]
    exp_map = dict(expected)
    act_map = dict(actual)
    missing = sorted(set(exp_map) - set(act_map))
    extra = sorted(set(act_map) - set(exp_map))
    mismatches = [
        (z, exp_map[z], act_map[z])
        for z in sorted(set(exp_map) & set(act_map))
        if exp_map[z] != act_map[z]
    ]
    count = expected_ulrich_count(family, index)
    matched = not missing and not extra and not mismatches and len(actual) == count
    return RdpVerification(
        family=family.upper(),
        index=operator.index(index),
        matched=matched,
        expected=expected,
        actual=actual,
        expected_count=count,
        missing=missing,
        extra=extra,
        colength_mismatches=mismatches,
    )
