"""Expected outcomes, computed without importing the program.

Every check the benchmark makes rests on a source that is independent of
the two routes the program uses to classify cycles:

- the ADE golden tables and their closed-form counts;
- closed forms from commutative algebra: an Ulrich ideal of a rational
  double point has colength l, multiplicity 2l and 3 generators, and the
  power m^k of the maximal ideal of a rational singularity of
  multiplicity e has colength e*k(k-1)/2 + k, multiplicity e*k^2 and
  e*k + 1 generators (so U = (mu - 1)*l - e vanishes only at k = 1);
- the unique Ulrich cycle Z_0 on non-Gorenstein cyclic quotients;
- agreement of the chain walk with the oracle inside the box bound*Z_0,
  both taken from the program's own documents;
- the documented exit codes.

The small lattice helpers below (intersection form, Laufer's loop for
Z_0, an exact definiteness test) are written from the textbook
definitions and used only to derive these expectations.
"""

from __future__ import annotations

from fractions import Fraction

# ----------------------------------------------------------------- graphs


class Graph:
    """Weights and 0-based edges (i < j) of a dual graph."""

    def __init__(self, weights, edges):
        self.weights = tuple(weights)
        self.edges = sorted((min(i, j), max(i, j)) for i, j in edges)
        self.nbrs = [[] for _ in self.weights]
        for i, j in self.edges:
            self.nbrs[i].append(j)
            self.nbrs[j].append(i)

    @property
    def r(self) -> int:
        return len(self.weights)

    def as_doc(self) -> dict:
        """The ``graph`` member of the program's JSON documents."""
        return {
            "vertices": self.r,
            "weights": list(self.weights),
            "edges": [[i + 1, j + 1] for i, j in self.edges],
        }

    def text(self, comment: str = "") -> str:
        """The program's graph text format, every weight spelled out."""
        lines = [f"# {comment}"] if comment else []
        lines.append(f"vertices {self.r}")
        lines += [f"weight {i + 1} {w}" for i, w in enumerate(self.weights)]
        lines += [f"edge {i + 1} {j + 1}" for i, j in self.edges]
        return "\n".join(lines) + "\n"

    def canonical_text(self) -> str:
        """What ``dualcycles graph`` prints: -2 weights are implicit."""
        lines = [f"vertices {self.r}"]
        lines += [f"weight {i + 1} {w}" for i, w in enumerate(self.weights) if w != -2]
        lines += [f"edge {i + 1} {j + 1}" for i, j in self.edges]
        return "\n".join(lines) + "\n"


def ade(family: str, n: int) -> Graph:
    """ADE graph in the program's builder labelling (see README)."""
    if family == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    else:
        edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    return Graph((-2,) * n, edges)


def hj(n: int, q: int) -> list[int]:
    """Hirzebruch-Jung continued fraction [b_1, ..., b_r] of n/q."""
    out = []
    while q > 0:
        b = -(-n // q)
        out.append(b)
        n, q = q, b * q - n
    return out


def chain_nq(bs: list[int]) -> tuple[int, int]:
    """(n, q) whose continued fraction n/q = b_1 - 1/(b_2 - ...) is ``bs``."""
    x = Fraction(bs[-1])
    for b in reversed(bs[:-1]):
        x = b - 1 / x
    return x.numerator, x.denominator


def chain(bs: list[int]) -> Graph:
    return Graph([-b for b in bs], [(i, i + 1) for i in range(len(bs) - 1)])


# ---------------------------------------------------------------- lattice


def dot(g: Graph, z, w) -> int:
    s = sum(wt * a * b for wt, a, b in zip(g.weights, z, w))
    return s + sum(z[i] * w[j] + z[j] * w[i] for i, j in g.edges)


def pairings(g: Graph, z) -> list[int]:
    return [g.weights[i] * z[i] + sum(z[j] for j in g.nbrs[i]) for i in range(g.r)]


def genus(g: Graph, z) -> int:
    """Virtual genus p_a(Z) = 1 + (Z^2 + K.Z)/2 with K.E_i = -w_i - 2."""
    kz = sum(a * (-w - 2) for a, w in zip(z, g.weights))
    return 1 + (dot(g, z, z) + kz) // 2


def negative_definite(g: Graph) -> bool:
    """Sylvester's criterion on -M: every leading principal minor is
    positive.  Fraction-free (Bareiss) elimination, whose k-th pivot is
    the k-th leading principal minor, keeps it in integers."""
    r = g.r
    m = [[0] * r for _ in range(r)]
    for i, w in enumerate(g.weights):
        m[i][i] = -w
    for i, j in g.edges:
        m[i][j] = m[j][i] = -1
    prev = 1
    for k in range(r):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return True


def fundamental(g: Graph, verts=None) -> tuple[int, ...]:
    """Laufer's loop on a connected support; needs a negative definite graph."""
    verts = set(range(g.r)) if verts is None else set(verts)
    z = [1 if i in verts else 0 for i in range(g.r)]
    while True:
        p = pairings(g, z)
        bump = [i for i in sorted(verts) if p[i] > 0]
        if not bump:
            return tuple(z)
        z[bump[0]] += 1


def rational(g: Graph) -> bool:
    """Artin's criterion on a connected, negative definite graph."""
    return genus(g, fundamental(g)) == 0


# ----------------------------------------------------------- golden data


def golden(family: str, n: int) -> list[tuple[tuple[int, ...], int]]:
    """Ulrich cycles of an ADE graph with their colengths, sorted."""
    if family == "A":
        top = (n - 1) // 2 if n % 2 else n // 2 - 1
        rows = [
            (tuple(min(i, k + 1, n + 1 - i) for i in range(1, n + 1)), k + 1)
            for k in range(top + 1)
        ]
    elif family == "D":
        m = n // 2
        rows = [
            (tuple(min(i, 2 * k + 2) for i in range(1, n - 1)) + (k + 1, k + 1), k + 1)
            for k in range(m - 1)
        ]
        stair = tuple(range(1, n - 1))
        if n % 2 == 0:
            rows += [(stair + (m, m - 1), m), (stair + (m - 1, m), m)]
        else:
            rows.append((stair + (m, m), m))
        rows.append(((2,) * (n - 2) + (1, 1), 2))
    else:
        rows = {
            6: [((1, 2, 3, 2, 1, 2), 1), ((2, 3, 4, 3, 2, 2), 2)],
            7: [
                ((2, 3, 4, 3, 2, 1, 2), 1),
                ((2, 4, 6, 5, 4, 2, 3), 2),
                ((2, 4, 6, 5, 4, 3, 3), 3),
            ],
            8: [((2, 4, 6, 5, 4, 3, 2, 3), 1), ((4, 7, 10, 8, 6, 4, 2, 5), 2)],
        }[n]
    return sorted(rows)


def golden_count(family: str, n: int) -> int:
    """Closed-form number of Ulrich cycles of an ADE graph."""
    if family == "A":
        return n // 2 if n % 2 == 0 else n // 2 + 1
    if family == "D":
        return n // 2 + 2 if n % 2 == 0 else n // 2 + 1
    return {6: 2, 7: 3, 8: 2}[n]


# ----------------------------------------------------------------- checks
#
# A check returns when the output is as expected and raises Mismatch with
# a one-line reason otherwise.


class Mismatch(Exception):
    pass


def need(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def check_chain(g: Graph, e: dict) -> None:
    """A witness chain starts at Z_0, adds its increments and ends at Z."""
    ch = e["chain"]
    z0 = fundamental(g)
    need(ch["base"] == list(z0), "chain base is not Z_0")
    prev = ch["base"]
    for step in ch["steps"]:
        need(
            step["cycle"] == [a + b for a, b in zip(prev, step["increment"])],
            "chain step is not previous cycle plus increment",
        )
        prev = step["cycle"]
    need(prev == e["cycle"], "chain does not end at its cycle")


def check_rdp_entries(g: Graph, family: str, n: int, entries: list) -> None:
    """Entries of an ADE graph: the golden table with Ulrich invariants."""
    table = golden(family, n)
    need(len(table) == golden_count(family, n), "golden table disagrees with count")
    need(
        [(tuple(e["cycle"]), e["colength"]) for e in entries] == table,
        f"{family}{n}: cycles or colengths differ from the golden table",
    )
    z0 = fundamental(g)
    for e in entries:
        ell = e["colength"]
        need(e["multiplicity"] == 2 * ell, "Ulrich multiplicity is not 2*colength")
        need(e["min_gens"] == 3, "Ulrich ideal on an RDP needs 3 generators")
        need(e["kind"] == "both", "RDP Ulrich cycle is not also special")
        sat = [i + 1 for i, (a, m) in enumerate(zip(e["cycle"], z0)) if a == m * ell]
        need(e["module_indices"] == sat and sat, "module indices are not the saturated vertices")
        check_chain(g, e)


def check_unique_ulrich(g: Graph, entries: list) -> None:
    """Non-Gorenstein cyclic quotient: Z_0 (all ones) is the only Ulrich cycle."""
    need(len(entries) == 1, f"{len(entries)} Ulrich cycles, expected exactly Z_0")
    e = entries[0]
    mult = -dot(g, (1,) * g.r, (1,) * g.r)
    need(e["cycle"] == [1] * g.r, "Ulrich cycle is not Z_0")
    need(
        (e["colength"], e["multiplicity"], e["min_gens"]) == (1, mult, mult + 1),
        "invariants of Z_0 are not (1, e, e+1)",
    )
    need(e["module_indices"] == list(range(1, g.r + 1)), "Z_0 saturates every vertex")
    need(e["kind"] == "both" and e["chain"]["steps"] == [], "Z_0 entry malformed")


def power_invariants(g: Graph, k: int) -> dict:
    """Invariants of k*Z_0, the cycle of m^k, from the Hilbert function."""
    z0 = fundamental(g)
    e = -dot(g, z0, z0)
    ell = e * k * (k - 1) // 2 + k
    return {
        "cycle": [k * a for a in z0],
        "virtual_genus": 1 - ell,
        "colength": ell,
        "multiplicity": e * k * k,
        "min_gens": e * k + 1,
        "u_invariant": e * k * ell - e * k * k,
        "special_module_indices": list(range(1, g.r + 1)) if k == 1 else [],
        "filtration": {
            "base": list(z0),
            "steps": [
                {"increment": list(z0), "cycle": [(j + 1) * a for a in z0]}
                for j in range(1, k)
            ],
        },
    }


def ulrich_invariants(g: Graph, z, ell: int) -> dict:
    """Invariants of a golden-table Ulrich cycle on an ADE graph."""
    z0 = fundamental(g)
    s = 0
    while any(a > (s + 1) * b for a, b in zip(z, z0)):
        s += 1
    steps, prev = [], list(z0)
    for k in range(1, s + 1):
        zk = [min(a, (k + 1) * b) for a, b in zip(z, z0)]
        steps.append({"increment": [a - b for a, b in zip(zk, prev)], "cycle": zk})
        prev = zk
    return {
        "cycle": list(z),
        "virtual_genus": 1 - ell,
        "colength": ell,
        "multiplicity": 2 * ell,
        "min_gens": 3,
        "u_invariant": 0,
        "special_module_indices": [
            i + 1 for i, (a, m) in enumerate(zip(z, z0)) if a == m * ell
        ],
        "filtration": {"base": list(z0), "steps": steps},
    }


def in_box(z, box) -> bool:
    return all(a <= b for a, b in zip(z, box))


def check_box_agreement(g: Graph, bound: int, oracle: dict, classify: dict) -> None:
    """Chain walk and oracle agree inside bound*Z_0 (acceptance criterion 6)."""
    box = [bound * a for a in fundamental(g)]
    need(oracle["bound"] == bound, "oracle reports another bound")
    for kind in ("special", "ulrich"):
        chain_side = sorted(e["cycle"] for e in classify[kind] if in_box(e["cycle"], box))
        need(
            sorted(oracle[kind]) == oracle[kind], f"oracle {kind} list is not sorted"
        )
        need(
            chain_side == [z for z in oracle[kind] if in_box(z, box)],
            f"chain and oracle disagree on {kind} cycles inside {bound}*Z_0",
        )
