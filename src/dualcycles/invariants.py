"""Numerical invariants of anti-nef cycles.

Fundamental cycles (globally and on sub-supports), colength and
multiplicity of the represented ideal, minimal generator count, the U
invariant whose vanishing detects Ulrich cycles, canonical filtrations,
and the vertex set picking out special modules.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .builders import is_connected, is_negative_definite
from .lattice import (
    Cycle,
    CycleError,
    DualGraph,
    inf_cycles,
    intersection,
    is_anti_nef,
    scale,
    sub,
    virtual_genus,
)

_Z0_CACHE: dict[DualGraph, Cycle] = {}


def _laufer(g: DualGraph, verts: frozenset[int]) -> dict[int, int]:
    """{vertex: coefficient} of the fundamental cycle on ``verts``.

    Laufer's loop: start from 1 everywhere and bump the lowest-index vertex
    whose pairing over ``verts`` is positive (the fixed point is order
    independent; the rule makes traces reproducible).  The pairing is
    updated per bump and its positive vertices kept in a heap: a bump
    costs O(deg log |verts|), nothing costs O(r).  ``verts`` must be
    connected and negative definite, unchecked, or the loop never ends.
    """
    z = dict.fromkeys(verts, 1)
    weights, nbrs = g.weights, g._neighbors
    pairing = {v: weights[v] + sum(map(z.__contains__, nbrs[v])) for v in z}
    # Exactly the vertices with positive pairing; a sorted list is a heap.
    positive = sorted(v for v, p in pairing.items() if p > 0)
    while positive:
        i = positive[0]
        z[i] += 1
        pairing[i] += weights[i]
        if pairing[i] <= 0:
            heapq.heappop(positive)
        for j in nbrs[i]:
            if j in z:
                pairing[j] += 1
                if pairing[j] == 1:
                    heapq.heappush(positive, j)
    return z


def fundamental_cycle(g: DualGraph, vertices: frozenset[int] | None = None) -> Cycle:
    """Minimal nonzero cycle Z with Supp(Z) = vertices and Z.E_i <= 0 there.

    Laufer's algorithm (``_laufer``).  Requires the support to be
    nonempty, inside 0..r-1, connected (guaranteed on full vertex sets of
    connected graphs) and negative definite, else ValueError.  The
    definiteness test is one sparse Bareiss pass over the support's
    induced subgraph, O(|support| + fill-in); on the full support it runs
    once per graph, since Z_0 is cached.
    """
    everything = frozenset(range(g.vertex_count))
    full = vertices is None or vertices == everything
    if full and g in _Z0_CACHE:
        return _Z0_CACHE[g]
    verts = everything if vertices is None else frozenset(vertices)
    if not verts:
        raise ValueError("fundamental cycle needs a nonempty support")
    if not verts <= everything:
        raise ValueError(
            f"support has vertices outside the graph's {g.vertex_count} vertices"
        )
    if not is_connected(g, verts):
        raise ValueError("fundamental cycle needs a connected support")
    if not is_negative_definite(g, verts):
        raise ValueError("fundamental cycle needs a negative definite support")

    z = [0] * g.vertex_count
    for v, a in _laufer(g, verts).items():
        z[v] = a
    result = tuple(z)
    if full:
        _Z0_CACHE[g] = result
    return result


def _require_anti_nef(g: DualGraph, z: Cycle) -> Cycle:
    z = g.check_cycle(z)
    if not any(a > 0 for a in z):
        raise CycleError("expected a positive cycle")
    if not is_anti_nef(g, z):
        raise CycleError(f"cycle {z} is not anti-nef: it represents no ideal")
    return z


def colength(g: DualGraph, z: Cycle) -> int:
    """Length of A/I_Z, which is 1 - p_a(Z) by the Riemann-Roch formula."""
    z = _require_anti_nef(g, z)
    return 1 - virtual_genus(g, z)


def multiplicity(g: DualGraph, z: Cycle) -> int:
    """Multiplicity of the represented ideal: -Z^2."""
    z = _require_anti_nef(g, z)
    return -intersection(g, z, z)


def min_gens(g: DualGraph, z: Cycle) -> int:
    """Minimal number of generators of I_Z, recovered as 1 - Z.Z_0.

    Derived identity: it is the unique value making the U invariant equal
    to -Z^2 - (mu - 1) * colength; cross-checked against the known
    generator counts of the classified ideals.
    """
    z = _require_anti_nef(g, z)
    return 1 - intersection(g, z, fundamental_cycle(g))


def u_invariant(g: DualGraph, z: Cycle) -> int:
    """U(Z) = (Z_0.Z)(p_a(Z) - 1) + Z^2; zero exactly on Ulrich cycles
    once the graph has multiplicity >= 3."""
    z = _require_anti_nef(g, z)
    z0 = fundamental_cycle(g)
    return intersection(g, z0, z) * (virtual_genus(g, z) - 1) + intersection(g, z, z)


@dataclass(frozen=True)
class Filtration:
    """Chain Z_0 <= Z_1 <= ... <= Z_s with increments Y_k = Z_k - Z_{k-1}.

    ``steps[k-1] == (Y_k, Z_k)``; every Z_k is anti-nef and the Y_k
    decrease componentwise, staying below Z_0.
    """

    base: Cycle
    steps: tuple[tuple[Cycle, Cycle], ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def top(self) -> Cycle:
        return self.steps[-1][1] if self.steps else self.base

    def increments(self) -> list[Cycle]:
        return [y for y, _ in self.steps]


def filtration(g: DualGraph, z: Cycle) -> Filtration:
    """Canonical filtration of an anti-nef Z >= Z_0: Z_k = inf(Z, (k+1)Z_0)."""
    z = _require_anti_nef(g, z)
    z0 = fundamental_cycle(g)
    if any(a < b for a, b in zip(z, z0)):
        raise CycleError("anti-nef cycles dominate the fundamental cycle")
    s = 0
    while any(a > (s + 1) * b for a, b in zip(z, z0)):
        s += 1
    steps = []
    prev = z0
    for k in range(1, s + 1):
        zk = inf_cycles(z, scale(k + 1, z0))
        steps.append((sub(zk, prev), zk))
        prev = zk
    return Filtration(base=z0, steps=tuple(steps))


def special_module_indices(g: DualGraph, z: Cycle) -> frozenset[int]:
    """Vertices i whose coefficient reaches the bound n_i * colength(Z).

    Each such vertex marks an indecomposable module that stays free modulo
    the represented ideal; a nonempty set makes Z a special cycle.  The
    upper bound itself holds for every anti-nef cycle on a rational graph
    and is asserted here.
    """
    z = _require_anti_nef(g, z)
    z0 = fundamental_cycle(g)
    ell = colength(g, z)
    for a, n in zip(z, z0):
        if a > n * ell:
            raise AssertionError(
                "coefficient bound violated: input graph is not rational"
            )
    return frozenset(i for i, (a, n) in enumerate(zip(z, z0)) if a == n * ell)
