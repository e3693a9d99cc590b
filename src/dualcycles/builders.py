"""Making dual graphs, and their text format both ways.

Provides the ADE families, cyclic quotient chains via Hirzebruch-Jung
continued fractions, and a line-oriented text format for user-supplied
graphs: ``parse_graph`` reads it and ``serialize_graph`` writes it.
Whether a graph is connected, negative definite or rational is judged by
``invariants.validate``.
"""

from __future__ import annotations

import math
import operator

from .lattice import DualGraph

# The most vertices a graph may have.  Every way of making a graph
# (``build_ade``, ``hj_expansion`` and so ``build_cyclic``, and
# ``parse_graph``) refuses a larger one before allocating it, so an
# oversized request fails at once instead of running out of time or memory.
# It is far above any graph this tool can classify in reasonable time.
MAX_VERTICES = 10**6


class GraphFormatError(ValueError):
    """Malformed graph text (carries a 1-based line number when known)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _ade_type(family: str, index: int) -> tuple[str, int]:
    """(upper-cased family, n) of an ADE type; ValueError unless the family
    is A, D or E and n >= 1, n >= 4 or n in {6, 7, 8} respectively, and
    unless n <= MAX_VERTICES."""
    family, n = family.upper(), operator.index(index)
    need = {"A": "n >= 1", "D": "n >= 4", "E": "n in {6, 7, 8}"}.get(family)
    if need is None:
        raise ValueError(f"unknown family {family!r}, expected one of A, D, E")
    if not (n >= 1 if family == "A" else n >= 4 if family == "D" else n in (6, 7, 8)):
        raise ValueError(f"{family}_n requires {need}, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"{family}_{n} has more than {MAX_VERTICES} vertices")
    return family, n


def build_ade(family: str, index: int) -> DualGraph:
    """Dual graph of the rational double point of the given ADE type.

    All weights are -2.  A_n is the path E_1 - ... - E_n; D_n is the path
    E_1 - ... - E_{n-2} with E_{n-1} and E_n both joined to E_{n-2}; E_n
    (n in {6,7,8}) is the path E_1 - ... - E_{n-1} with E_n joined to E_3.
    ValueError on an n above MAX_VERTICES, before any edge is built.
    """
    family, n = _ade_type(family, index)
    if family == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(n - 3)]
        edges += [(n - 3, n - 2), (n - 3, n - 1)]
    else:
        edges = [(i, i + 1) for i in range(n - 2)]
        edges.append((2, n - 1))
    return DualGraph((-2,) * n, edges)


def hj_expansion(n: int, q: int) -> list[int]:
    """Hirzebruch-Jung continued fraction of n/q.

    Returns the unique [b_1, ..., b_r] with every b_i >= 2 and
    n/q = b_1 - 1/(b_2 - 1/(... - 1/b_r)).  Each step takes the ceiling
    b = ceil(n/q) and recurses on (q, b*q - n).  ValueError once the
    expansion would pass MAX_VERTICES terms.
    """
    n, q = operator.index(n), operator.index(q)
    if not 1 <= q < n:
        raise ValueError(f"need 1 <= q < n, got q={q}, n={n}")
    if math.gcd(n, q) != 1:
        raise ValueError(f"n={n} and q={q} are not coprime")
    out = []
    while q > 0:
        if len(out) == MAX_VERTICES:
            raise ValueError(f"the chain of n/q has more than {MAX_VERTICES} vertices")
        b = -(-n // q)
        out.append(b)
        n, q = q, b * q - n
    return out


def build_cyclic(n: int, q: int) -> DualGraph:
    """Dual graph of the cyclic quotient singularity of type (1/n)(1, q):
    a chain with weights (-b_1, ..., -b_r) from the expansion of n/q.
    """
    bs = hj_expansion(n, q)
    r = len(bs)
    return DualGraph(map(operator.neg, bs), zip(range(r - 1), range(1, r)))


def parse_graph(text: str) -> DualGraph:
    """Parse the line-oriented graph format.

    '#' starts a comment, blank lines are ignored.  Directives:
      vertices <r>        required first, 1 <= r <= MAX_VERTICES
      weight <i> <w>      optional, 1-based i, integer w <= -2 (default -2)
      edge <i> <j>        1-based, i != j, at most once per unordered pair
    """
    r: int | None = None
    weights: list[int] = []
    weight_seen: set[int] = set()
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive, args = parts[0], parts[1:]
        if directive == "vertices":
            if r is not None:
                raise GraphFormatError("duplicate 'vertices' directive", lineno)
            (r,) = _int_args(args, 1, "vertices", lineno)
            if r < 1:
                raise GraphFormatError(f"vertex count must be >= 1, got {r}", lineno)
            if r > MAX_VERTICES:
                raise GraphFormatError(f"vertex count must be <= {MAX_VERTICES}, got {r}", lineno)
            weights = [-2] * r
            continue
        if r is None:
            raise GraphFormatError("'vertices' must be the first directive", lineno)
        if directive == "weight":
            i, w = _int_args(args, 2, "weight", lineno)
            if not 1 <= i <= r:
                raise GraphFormatError(f"vertex {i} out of range 1..{r}", lineno)
            if i in weight_seen:
                raise GraphFormatError(f"duplicate weight for vertex {i}", lineno)
            if w > -2:
                raise GraphFormatError(
                    f"weight must be <= -2 on a minimal resolution, got {w}", lineno
                )
            weight_seen.add(i)
            weights[i - 1] = w
        elif directive == "edge":
            i, j = _int_args(args, 2, "edge", lineno)
            if i == j:
                raise GraphFormatError(f"self-loop at vertex {i}", lineno)
            if not (1 <= i <= r and 1 <= j <= r):
                raise GraphFormatError(f"edge {i} {j} out of range 1..{r}", lineno)
            pair = (min(i, j) - 1, max(i, j) - 1)
            if pair in edge_seen:
                raise GraphFormatError(f"duplicate edge {i} {j}", lineno)
            edge_seen.add(pair)
            edges.append(pair)
        else:
            raise GraphFormatError(f"unknown directive {directive!r}", lineno)

    if r is None:
        raise GraphFormatError("missing 'vertices' directive")
    return DualGraph(weights, edges)


def _int_args(args: list[str], want: int, directive: str, lineno: int) -> list[int]:
    """The ``want`` integers of a directive, in order; GraphFormatError on
    any other argument count, else naming the first argument that is not
    an integer."""
    if len(args) != want:
        raise GraphFormatError(
            f"'{directive}' takes {want} argument(s), got {len(args)}", lineno
        )
    out = []
    try:
        for a in args:
            out.append(int(a))
    except ValueError:
        raise GraphFormatError(f"'{directive}' argument {a!r} is not an integer", lineno) from None
    return out


def serialize_graph(g: DualGraph) -> str:
    """Emit the graph text format (round-trips through parse_graph)."""
    lines = [f"vertices {g.vertex_count}"]
    lines += [f"weight {i + 1} {w}" for i, w in enumerate(g.weights) if w != -2]
    lines += [f"edge {i + 1} {j + 1}" for i, j in sorted(g.edges)]
    return "\n".join(lines) + "\n"
