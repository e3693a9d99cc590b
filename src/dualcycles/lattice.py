"""The dual graph type, its one graph search, and exact integer
arithmetic on cycles over a fixed graph.

A dual graph is a weighted simple graph: vertices are exceptional curves,
the weight of a vertex is its self-intersection number, and an edge means
the two curves meet transversally in one point.  ``_reach`` is the
breadth-first search that every component and connectedness question
runs.  A cycle is an integer coefficient vector over the vertices.
Everything here is exact integer arithmetic; coefficients may be
negative (differences of cycles are legitimate lattice elements),
positivity is enforced by callers that need it.  ``invariants`` judges
cycles.
"""

from __future__ import annotations

import operator

Cycle = tuple[int, ...]


class DimensionError(ValueError):
    """A cycle's length does not match the graph's vertex count."""


class DualGraph:
    """Weighted simple graph carrying the intersection form.

    ``weights[i]`` is the self-intersection of vertex i (normally <= -2 on
    a minimal resolution; the constructor does not enforce that, the
    validator reports it).  ``edges`` holds unordered pairs (i, j) with
    i < j, each meaning intersection number 1.  Vertices are 0-based here;
    all I/O uses 1-based labels.  A graph is immutable, and equality and
    hash read ``(weights, edges)`` only.
    """

    __slots__ = ("weights", "edges", "_neighbors", "__weakref__")

    def __init__(self, weights, edges):
        weights = tuple(map(operator.index, weights))
        if not weights:
            raise ValueError("a dual graph needs at least one vertex")
        r = len(weights)
        index, norm = operator.index, set()
        for i, j in edges:
            i, j = index(i), index(j)
            if i == j:
                raise ValueError(f"self-loop at vertex {i + 1}")
            if not (0 <= i < r and 0 <= j < r):
                raise ValueError(f"edge ({i + 1},{j + 1}) out of range")
            pair = (i, j) if i < j else (j, i)
            if pair in norm:
                raise ValueError(f"duplicate edge ({pair[0] + 1},{pair[1] + 1})")
            norm.add(pair)
        setslot = object.__setattr__
        setslot(self, "weights", weights)
        setslot(self, "edges", frozenset(norm))
        nbrs: list[list[int]] = [[] for _ in range(r)]
        # In sorted order v's neighbours i < v arrive first, from the pairs
        # (i, v) by i, then its j > v from (v, j) by j: each list ascends.
        for i, j in sorted(norm):
            nbrs[i].append(j)
            nbrs[j].append(i)
        setslot(self, "_neighbors", tuple(map(tuple, nbrs)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"DualGraph is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not DualGraph:
            return NotImplemented
        return (self.weights, self.edges) == (other.weights, other.edges)

    def __hash__(self):
        return hash((self.weights, self.edges))

    def __repr__(self):
        return f"DualGraph(weights={self.weights!r}, edges={self.edges!r})"

    def __reduce__(self):
        return DualGraph, (self.weights, self.edges)

    @property
    def vertex_count(self) -> int:
        return len(self.weights)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors[i]

    def check_cycle(self, z: Cycle) -> Cycle:
        z = tuple(map(operator.index, z))
        if len(z) != self.vertex_count:
            raise DimensionError(
                f"cycle has {len(z)} coefficients, graph has {self.vertex_count} vertices"
            )
        return z


def _reach(g: DualGraph, start: int, inside: set[int]) -> list[int]:
    """``start`` and the vertices of the set ``inside`` reachable from it
    inside it, in breadth-first order with neighbours in index order.
    Each vertex reached is taken out of ``inside``, which the caller owns:
    the set is also the record of what is left to reach."""
    inside.discard(start)
    order = [start]
    for v in order:  # the list grows while it is walked: a queue
        for u in g._neighbors[v]:
            if u in inside:
                inside.remove(u)
                order.append(u)
    return order


def sub(z: Cycle, w: Cycle) -> Cycle:
    return tuple(a - b for a, b in zip(z, w, strict=True))


def scale(k: int, z: Cycle) -> Cycle:
    return tuple(k * a for a in z)


def pairing_vector(g: DualGraph, z: Cycle) -> Cycle:
    """The vector (Z.E_1, ..., Z.E_r), i.e. the intersection matrix applied to Z."""
    z = g.check_cycle(z)
    at = list(z).__getitem__  # a list's method indexes faster than a tuple's
    return tuple([
        w * a + sum(map(at, nbrs)) for w, a, nbrs in zip(g.weights, z, g._neighbors)
    ])
