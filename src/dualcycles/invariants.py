"""Judging graphs and cycles: the structural verdicts on a graph and the
numerical invariants of its anti-nef cycles, each formula in one place.

``validate`` returns one report per call, kept nowhere: its verdicts
and findings, with Z_0, M.Z_0, K.E_i, L = lcm(n_i) and L/n_i when Z_0
exists.  Connectedness and negative definiteness are one ``_laufer`` per
component, which searches the component and certifies it, with the exact
elimination of ``is_negative_definite`` only on a component whose loop
passes its bump budget.  ``fundamental_cycle`` reads Z_0 off the report,
or decides a given support with one ``_laufer``.  Each
entry point, the classifiers' included, computes the report once per
call and hands it to the functions below; ``_z0_report`` is the one
gate of the entry points that need Z_0 alone, and ``_rational`` of the
rest, each raising InvalidGraphError with the report's own finding.
``_formulas`` reads every invariant of many anti-nef cycles off four
sums per cycle, one columnar pass per invariant; the oracle's box search
and the chain walk keep those sums as they go.  ``_pointwise`` is the
one path of every one-cycle question: the cycle's length, then
``_rational``, then the cycle's own checks.  Also: filtrations, and the
virtual genus and anti-nef test of any cycle.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterable

from .lattice import Cycle, DualGraph, pairing_vector


# The most coefficients a filtration may hold, steps times r.  Its step
# count, ceil(max_i a_i/n_i) - 1, is known before any step is built, so a
# longer filtration is refused up front with CycleError.  A_1 at this
# limit builds in about 2 s.
MAX_FILTRATION = 100_000


class InvalidGraphError(ValueError):
    """The graph fails validation (classification is undefined on it)."""


class CycleError(ValueError):
    """A cycle violates a precondition (negativity, not anti-nef, ...)."""


def _laufer(g: DualGraph, start: int, left: set[int]):
    """({vertex: coefficient}, {vertex: pairing}, [(v, u), ...]) of the
    component C of ``start`` inside the set ``left``, or None when C is
    not negative definite: the fundamental cycle Z and M.Z over C, and
    the edges from a v in C to a u outside it, in the order the search
    meets them.  C is taken out of ``left``.  The keys of both dicts are
    C in breadth-first order from ``start``, neighbours in index order:
    a contract, which the oracle's search order
    (``classify._search_plan``) reads.

    The first loop is the search, and it tests every neighbour of C for
    membership, so it also gives the pairing of all ones over C and the
    leaving edges.  Then Laufer's loop bumps any vertex whose pairing over
    C is positive.  A bump below the fundamental cycle stays below it, so
    the loop ends at that cycle whatever the order, after sum(Z) - |C|
    bumps: no order is observable, and no heap is needed to pick the
    vertex.  The positive vertices are kept on a stack, the last pushed
    bumped first (deterministic, so traces are reproducible): a bump costs
    O(deg), nothing costs O(r).  Stopping certifies C: at Z > 0 with
    M.Z <= 0, -M over C is an irreducible Z-matrix, and it is a
    nonsingular M-matrix, so positive definite being symmetric, exactly
    when M.Z != 0 (Berman and Plemmons); M.Z = 0 makes Z^2 = 0.  On an
    indefinite C the loop may never end, so past a budget of 8 bumps a
    vertex plus 64, one exact integer elimination over C alone
    (``is_negative_definite``) decides, and a definite C finishes the loop.
    """
    z, order = {start: 1}, [start]
    weights, nbrs = g.weights, g._neighbors
    # The pairing of all ones, and exactly the vertices where it is positive.
    pairing, positive, leaving = {}, [], []
    for v in order:  # the list grows while it is walked: a queue
        p = weights[v]
        for u in nbrs[v]:
            if u in z:
                p += 1
            elif u in left:
                z[u] = 1
                order.append(u)
                p += 1
            else:
                leaving.append((v, u))
        pairing[v] = p
        if p > 0:
            positive.append(v)
    left.difference_update(order)
    budget = 8 * len(order) + 64
    while positive:
        if not budget and not is_negative_definite(g, order):
            return None
        budget -= 1
        i = positive[-1]
        z[i] += 1
        pairing[i] += weights[i]
        if pairing[i] <= 0:
            positive.pop()
        for j in nbrs[i]:
            if j in z:
                pairing[j] += 1
                if pairing[j] == 1:
                    positive.append(j)
    return (z, pairing, leaving) if any(pairing.values()) else None


def is_negative_definite(g: DualGraph, vertices: Iterable[int] | None = None) -> bool:
    """Sylvester's criterion on -M, or on its block over ``vertices`` (the
    induced subgraph): every pivot of its symmetric elimination without
    row exchanges is positive (pivot k is D_k/D_{k-1}, a ratio of leading
    principal minors).

    Exact over the integers, on the sparse upper triangle of -M: row i
    holds c_i > 0 times its row of the current Schur complement.  Step k
    rewrites only the rows i with an entry f at (k, i), as c_k p row_i -
    c_i f row_k with p the pivot entry of row k, and divides that row and
    its c_i by their gcd.  It stops at the first pivot <= 0.  Cost: O(r +
    fill-in) entry updates, so O(r) on a path and at most O(r^3) on a
    dense block.
    """
    verts = range(g.vertex_count) if vertices is None else sorted(vertices)
    pos = {v: k for k, v in enumerate(verts)}
    rows = [{k: -g.weights[v]} for k, v in enumerate(verts)]
    for v, k in pos.items():
        for u in g._neighbors[v]:
            if pos.get(u, -1) > k:
                rows[k][pos[u]] = -1
    scales = [1] * len(rows)
    for k, row in enumerate(rows):
        p = row.pop(k, 0)  # the rest of row k lies right of the diagonal
        if p <= 0:
            return False
        cp = scales[k] * p
        for i, f in row.items():
            ci = scales[i]
            cf = ci * f
            upd = {j: cp * x for j, x in rows[i].items()}
            for j, y in row.items():
                if j >= i:
                    upd[j] = upd.get(j, 0) - cf * y
            d = math.gcd(ci * cp, *upd.values())
            rows[i] = {j: x // d for j, x in upd.items() if x}
            scales[i] = ci * cp // d
    return True


def fundamental_cycle(g: DualGraph, vertices: Iterable[int] | None = None) -> Cycle:
    """Minimal nonzero cycle Z with Supp(Z) = vertices and Z.E_i <= 0 there.

    With no support, Z_0 from ``validate``'s report, or the InvalidGraphError
    of ``_z0_report``: the graph is not negative definite, then it is not
    connected.  A support, full or not, is deduplicated and sorted (TypeError
    first on a vertex that is not an integer), then decided in this order,
    each failure a ValueError: it is nonempty, inside 0..r-1, the one
    component of its least vertex, and negative definite, all read off one
    ``_laufer`` from that vertex, whose loop gives Z.
    """
    if vertices is None:
        return _z0_report(g).z0
    verts = sorted(set(map(operator.index, vertices)))
    if not verts:
        raise ValueError("fundamental cycle needs a nonempty support")
    if verts[0] < 0 or verts[-1] >= g.vertex_count:
        raise ValueError(
            f"support has vertices outside the graph's {g.vertex_count} vertices"
        )
    left = set(verts)
    found = _laufer(g, verts[0], left)
    if left:
        raise ValueError("fundamental cycle needs a connected support")
    if found is None:
        raise ValueError("fundamental cycle needs a negative definite support")
    return tuple(found[0].get(v, 0) for v in range(g.vertex_count))


class ValidationReport(namedtuple("ValidationReport", (
        "connected negative_definite tree rational gorenstein multiplicity failures"
        " z0 pairing canonical lcm scales"), defaults=(None,) * 5)):
    """Structural verdicts on a dual graph.

    ``connected``, ``negative_definite``, ``tree``, ``rational`` and
    ``gorenstein`` are bools and ``failures`` a tuple of finding strings.
    ``rational`` and ``gorenstein`` are only meaningful when the graph is
    connected and negative definite; otherwise they are False and a
    finding explains why they are undetermined.  When Z_0 = sum n_i E_i
    is computable, ``multiplicity`` is -Z_0^2, ``z0`` Z_0, ``pairing``
    M.Z_0, ``canonical`` K.E_i = -w_i - 2, ``lcm`` L = lcm(n_i) and
    ``scales`` L/n_i; else all six are None.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def validate(g: DualGraph) -> ValidationReport:
    """Full structural report; never raises, all findings are collected,
    the first of them "graph is not connected" or "intersection matrix is
    not negative definite" when Z_0 is not computable.

    One ``_laufer`` per component, which searches the component and
    certifies its definiteness.  A connected graph takes one, from vertex
    0, which gives Z_0 and M.Z_0, whence p_a(Z_0).  On a disconnected
    graph the components after vertex 0's are taken lazily, by least
    vertex.  No elimination runs over more than one component, and the
    first component that is not definite ends the check.
    Nothing is kept between calls: each call returns a fresh, equal
    report, so a caller computes it once and passes it down, and a
    dropped graph holds no memory here.
    """
    r = len(g.weights)
    left = set(range(r))
    found = _laufer(g, 0, left)
    connected = not left  # the first search reached every vertex
    definite = found is not None and (connected or all(
        _laufer(g, v, left) for v in range(r) if v in left))
    failures = []
    if not connected:
        failures.append("graph is not connected")
    if not definite:
        failures.append("intersection matrix is not negative definite")
    bad_weights = [i + 1 for i, w in enumerate(g.weights) if w > -2]
    if bad_weights:
        failures.append(f"weights > -2 at vertices {bad_weights} (not a minimal resolution)")
    tree = connected and len(g.edges) == r - 1
    if not (connected and definite):
        failures.append(
            "rationality/Gorenstein-ness undetermined (needs a connected, "
            "negative definite graph)"
        )
        return ValidationReport(connected, definite, tree, False, False, None, tuple(failures))
    z0, pairing = tuple(map(found[0].get, range(r))), tuple(map(found[1].get, range(r)))
    canonical = tuple([-2 - w for w in g.weights])
    lcm = math.lcm(*z0)
    zz = sum(map(operator.mul, z0, pairing))
    genus = 1 - _co_genera((zz,), (sum(map(operator.mul, z0, canonical)),))[0]
    if genus:
        failures.append(f"not rational: fundamental cycle has virtual genus {genus}")
        if zz == -2:
            failures.append("multiplicity 2 but not rational: outside this tool's scope")
    return ValidationReport(connected, True, tree, genus == 0, zz == -2, -zz, tuple(failures),
                            z0, pairing, canonical, lcm, tuple([lcm // n for n in z0]))


def _z0_report(g: DualGraph) -> ValidationReport:
    """``validate``'s report on a graph where Z_0 is computable, a
    connected, negative definite one, rational or not; else
    InvalidGraphError with the report's finding that the graph is not
    negative definite, or failing that, that it is not connected."""
    record = validate(g)
    if record.z0 is None:  # on a disconnected graph indefiniteness is the second finding
        raise InvalidGraphError(record.failures[not (record.connected or record.negative_definite)])
    return record


def _rational(g: DualGraph) -> ValidationReport:
    """``validate``'s report on a graph it accepts: connected, negative
    definite and rational, with every weight <= -2.  On any other graph,
    InvalidGraphError with the report's own finding, in one order: not
    negative definite, not connected (``_z0_report``), then a weight
    above -2, then not rational."""
    record = _z0_report(g)
    if not record.ok:
        raise InvalidGraphError(record.failures[0])
    return record


class CycleInvariants(namedtuple("CycleInvariants",
                                  "colength multiplicity min_gens u indices special ulrich")):
    """The invariants of one anti-nef cycle (``_pointwise``): four ints,
    the frozenset of its special module indices and the two verdicts."""

    __slots__ = ()


def _co_genera(squares, canonicals) -> list[int]:
    """1 - p_a(Z) = -(Z^2 + K.Z)/2 of each cycle, given its Z^2 and K.Z,
    with p_a(Z) = (Z^2 + K.Z)/2 + 1; passes at C speed."""
    q = list(map(operator.add, squares, canonicals))
    if any(map(operator.mod, q, itertools.repeat(2))):
        raise AssertionError("parity violation: Z^2 + K.Z is odd (malformed graph)")
    return list(map(operator.floordiv, q, itertools.repeat(-2)))


def _formulas(squares: list, canonicals: list, pairings: list, tops: list,
              record: ValidationReport) -> tuple[list, ...]:
    """The columns (multiplicity, colength, min_gens, U, special, Ulrich),
    one entry per cycle, of positive anti-nef cycles on a rational graph
    whose report holds Z_0 = sum n_i E_i, -Z_0^2 and L = lcm(n), read off
    four sums per cycle (trusted): Z^2, K.Z, Z.Z_0 and L max_i a_i/n_i.
    Every formula of a cycle lives here:

    - multiplicity -Z^2;
    - colength 1 - p_a(Z), the length of A/I_Z (Riemann-Roch), with
      p_a(Z) = (Z^2 + K.Z)/2 + 1 (``_co_genera``);
    - min_gens 1 - Z.Z_0;
    - U(Z) = (Z.Z_0)(p_a(Z) - 1) + Z^2 = (min_gens - 1) colength + Z^2;
    - special: some a_i = n_i * colength(Z).  With every a_i <= n_i *
      colength(Z) (asserted), that is L max_i a_i/n_i = L * colength(Z):
      one comparison per cycle, not one per vertex;
    - Ulrich: U(Z) = 0, at every multiplicity.  The criterion of Goto,
      Ozeki, Takahashi, Watanabe and Yoshida needs mu(I_Z) > 2, and
      mu(I_Z) = 1 - Z.Z_0 >= 1 - Z_0^2 >= 3 for every positive anti-nef
      Z.  On a multiplicity-2 graph the paper's classification makes the
      Ulrich and special cycles one set, which this column does not
      assume: ``classify._classify`` checks the chain walk's K bit
      against it on every walked cycle.

    Each column is one pass at C speed: no Python frame per cycle.  Each
    check runs over every cycle before the next one: AssertionError on
    odd Z^2 + K.Z, then on a coefficient above n_i * colength(Z) (both
    impossible on a rational graph), then CycleError on mu(I_Z) <= 2
    (impossible for anti-nef cycles).
    """
    repeat = itertools.repeat
    ell = _co_genera(squares, canonicals)
    bounds = list(map(operator.mul, ell, repeat(record.lcm)))  # L colength(Z)
    if any(map(operator.gt, tops, bounds)):
        raise AssertionError("coefficient bound violated: input graph is not rational")
    special = list(map(operator.eq, tops, bounds))
    mult = list(map(operator.neg, squares))
    min_gens = list(map(operator.sub, repeat(1), pairings))
    u = list(map(operator.sub, squares, map(operator.mul, pairings, ell)))  # Z^2 - Z.Z_0 colength
    if min(min_gens) <= 2:
        raise CycleError("U-criterion needs mu(I) > 2; impossible for anti-nef cycles")
    return mult, ell, min_gens, u, special, list(map(operator.not_, u))


def _pointwise(g: DualGraph, z: Cycle) -> tuple[Cycle, ValidationReport, CycleInvariants]:
    """(Z, the graph's report, Z's invariants): the one path of every
    one-cycle question, for the library and the CLI alike.  It refuses in
    one order: DimensionError on a cycle of the wrong length, then the
    InvalidGraphError of ``_rational``, then CycleError "cycle is not
    anti-nef (represents no ideal)" on a negative coefficient or a
    positive pairing Z.E_i, then CycleError on the zero cycle, then the
    errors of ``_formulas`` on Z, which give the invariants with the
    vertices i where a_i = n_i * colength(Z) (Z_0 = sum n_i E_i).
    """
    z = g.check_cycle(z)
    record = _rational(g)
    pairing = pairing_vector(g, z)
    if min(z) < 0 or max(pairing) > 0:
        raise CycleError("cycle is not anti-nef (represents no ideal)")
    if max(z) <= 0:
        raise CycleError("expected a positive cycle")
    sums = ([sum(map(operator.mul, z, v))] for v in (pairing, record.canonical, record.pairing))
    cols = _formulas(*sums, [max(map(operator.mul, z, record.scales))], record)
    mult, ell, mu, u, special, ulrich = (c[0] for c in cols)
    indices = frozenset(i for i, (a, n) in enumerate(zip(z, record.z0)) if a == n * ell)
    return z, record, CycleInvariants(ell, mult, mu, u, indices, special, ulrich)


def virtual_genus(g: DualGraph, z: Cycle) -> int:
    """p_a(Z) = (Z^2 + K.Z)/2 + 1, always an exact integer; K.E_i = -w_i - 2."""
    z = g.check_cycle(z)
    zz = sum(map(operator.mul, z, pairing_vector(g, z)))
    kz = -2 * sum(z) - sum(map(operator.mul, z, g.weights))
    return 1 - _co_genera((zz,), (kz,))[0]


def is_anti_nef(g: DualGraph, z: Cycle) -> bool:
    """True iff Z.E_i <= 0 for every vertex.  Requires Z >= 0."""
    z = g.check_cycle(z)
    if min(z) < 0:
        raise CycleError("anti-nef test requires a nonnegative cycle")
    return max(pairing_vector(g, z)) <= 0


def colength(g: DualGraph, z: Cycle) -> int:
    """Length of A/I_Z, which is 1 - p_a(Z) by the Riemann-Roch formula."""
    return _pointwise(g, z)[2].colength


def multiplicity(g: DualGraph, z: Cycle) -> int:
    """Multiplicity of the represented ideal: -Z^2."""
    return _pointwise(g, z)[2].multiplicity


def min_gens(g: DualGraph, z: Cycle) -> int:
    """Minimal number of generators of I_Z, recovered as 1 - Z.Z_0.

    Derived identity: it is the unique value making the U invariant equal
    to -Z^2 - (mu - 1) * colength; cross-checked against the known
    generator counts of the classified ideals.
    """
    return _pointwise(g, z)[2].min_gens


def u_invariant(g: DualGraph, z: Cycle) -> int:
    """U(Z) = (Z_0.Z)(p_a(Z) - 1) + Z^2; zero exactly on Ulrich cycles."""
    return _pointwise(g, z)[2].u


class Filtration(namedtuple("Filtration", "base steps")):
    """Chain Z_0 <= Z_1 <= ... <= Z_s with increments Y_k = Z_k - Z_{k-1}.

    ``steps[k-1] == (Y_k, Z_k)``; every Z_k is anti-nef and the Y_k
    decrease componentwise, staying below Z_0.
    """

    __slots__ = ()


def filtration(g: DualGraph, z: Cycle) -> Filtration:
    """Canonical filtration of an anti-nef Z: Z_k = inf(Z, (k+1)Z_0).

    Every positive anti-nef Z on a connected graph dominates Z_0, so the
    chain starts at Z_0 and ends at Z.  The errors of ``_pointwise``, in
    its order, then CycleError when the chain would hold more than
    MAX_FILTRATION coefficients (steps times r).
    """
    z, record, _ = _pointwise(g, z)
    return _filtration(z, record.z0)


def _filtration(z: Cycle, z0: Cycle) -> Filtration:
    """``filtration`` of a Z that ``_pointwise`` has already accepted;
    CycleError when it would hold more than MAX_FILTRATION coefficients."""
    top = max(-(-a // n) for a, n in zip(z, z0))  # the least k with Z <= k Z_0
    if (top - 1) * len(z) > MAX_FILTRATION:
        raise CycleError(f"the filtration has more than {MAX_FILTRATION} coefficients")
    zs = [z0] + [tuple([min(a, k * n) for a, n in zip(z, z0)]) for k in range(2, top + 1)]
    return Filtration(base=z0, steps=tuple((tuple(map(operator.sub, b, a)), b)
                                           for a, b in zip(zs, zs[1:])))


def special_module_indices(g: DualGraph, z: Cycle) -> frozenset[int]:
    """Vertices i whose coefficient reaches the bound n_i * colength(Z).

    Each such vertex marks an indecomposable module that stays free modulo
    the represented ideal; a nonempty set makes Z a special cycle.  The
    upper bound itself holds for every anti-nef cycle on a rational graph
    and is asserted.
    """
    return _pointwise(g, z)[2].indices


def is_special_cycle(g: DualGraph, z: Cycle) -> bool:
    """Coefficient-saturation test: some a_i equals n_i * colength(Z)."""
    return _pointwise(g, z)[2].special


def is_ulrich_cycle(g: DualGraph, z: Cycle) -> bool:
    """Ulrich test: U(Z) = 0 decides at every multiplicity, as mu(I_Z) =
    1 - Z.Z_0 >= 3 for every positive anti-nef Z.  On a multiplicity-2
    graph the paper shows the verdict is the special test's; this one
    does not assume it."""
    return _pointwise(g, z)[2].ulrich
