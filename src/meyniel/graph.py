"""Simple undirected graphs: construction, parsing, and seeded generators.

Vertices are 0..n-1.  Adjacency is stored both as per-vertex bitmask rows
(one Python int per vertex, bit v of row u set iff uv is an edge) and as
ascending neighbor tuples, so membership tests are O(1) and neighbor
iteration is cheap.  Graphs are immutable once built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class GraphInputError(ValueError):
    """Bad vertex count, edge endpoints, or generator parameters."""


class GraphParseError(GraphInputError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Graph:
    """Immutable simple graph (no loops, no parallel edges)."""

    __slots__ = ("n", "m", "_rows", "_nbrs")

    def __init__(self, n: int, rows: tuple[int, ...], nbrs: tuple[tuple[int, ...], ...]):
        self.n = n
        self._rows = rows
        self._nbrs = nbrs
        self.m = sum(len(a) for a in nbrs) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return (self._rows[u] >> v) & 1 == 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return self._nbrs[v]

    def neighbor_mask(self, v: int) -> int:
        """Neighbors of v as a bitmask int."""
        return self._rows[v]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in self._nbrs[u] if u < v]

    def subgraph(self, verts: list[int] | tuple[int, ...]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on `verts` plus the old-vertex map.

        Returns (h, old_of) where h has len(verts) vertices and old_of[i]
        is the original label of h's vertex i.  `verts` must be distinct.
        """
        old_of = sorted(verts)
        if len(set(old_of)) != len(old_of):
            raise GraphInputError("subgraph vertices must be distinct")
        pos = {old: i for i, old in enumerate(old_of)}
        es = []
        for i, old in enumerate(old_of):
            for w in self._nbrs[old]:
                j = pos.get(w)
                if j is not None and i < j:
                    es.append((i, j))
        return build(len(old_of), es), tuple(old_of)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build(n: int, edges) -> Graph:
    """Build a graph from an edge iterable; duplicates are collapsed.

    Rejects negative n, self-loops, and out-of-range endpoints.
    """
    if n < 0:
        raise GraphInputError(f"vertex count must be >= 0, got {n}")
    rows = [0] * n
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    nbrs = tuple(tuple(_bits(r)) for r in rows)
    return Graph(n, tuple(rows), nbrs)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse(text: str, fmt: str = "dimacs") -> Graph:
    """Parse graph text in `dimacs` or `edgelist` format.

    dimacs: one "p edge <n> <m>" line, then "e <u> <v>" lines (1-based);
    "c ..." lines are comments.  edgelist: first non-blank line is "<n>",
    then "<u> <v>" lines (0-based); blank lines are ignored.
    """
    if fmt == "dimacs":
        return _parse_dimacs(text)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    raise GraphInputError(f"unknown format {fmt!r}")


def _parse_dimacs(text: str) -> Graph:
    n = None
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError(ln, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(ln, f"expected 'p edge <n> <m>', got {line!r}")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise GraphParseError(ln, f"bad problem line {line!r}") from None
            if n < 0:
                raise GraphParseError(ln, f"negative vertex count {n}")
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError(ln, "edge before problem line")
            if len(parts) != 3:
                raise GraphParseError(ln, f"expected 'e <u> <v>', got {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(ln, f"bad edge line {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(ln, f"endpoint out of range in {line!r}")
            if u == v:
                raise GraphParseError(ln, f"self-loop in {line!r}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphParseError(ln, f"unrecognized line {line!r}")
    if n is None:
        raise GraphParseError(1, "missing problem line")
    return build(n, edges)


def _parse_edgelist(text: str) -> Graph:
    n = None
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise GraphParseError(ln, f"expected vertex count, got {line!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise GraphParseError(ln, f"bad vertex count {line!r}") from None
            if n < 0:
                raise GraphParseError(ln, f"negative vertex count {n}")
            continue
        if len(parts) != 2:
            raise GraphParseError(ln, f"expected '<u> <v>', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(ln, f"bad edge line {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(ln, f"endpoint out of range in {line!r}")
        if u == v:
            raise GraphParseError(ln, f"self-loop in {line!r}")
        edges.append((u, v))
    if n is None:
        raise GraphParseError(1, "empty input")
    return build(n, edges)


def to_dimacs(g: Graph) -> str:
    """Serialize to DIMACS text (inverse of parse up to comments)."""
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


FAMILIES = ("gnp", "chordal", "bipartite", "cycle", "complete", "edgeless", "builtin")

# Two hand-built instances used as goldens throughout the test suite.
#
# p6bar: complement of the path u-v-w-x-y-z; the smallest graph whose
# greedy-clique run fails and yields an odd cycle with one chord.
_P6BAR_VERTS = "uvwxyz"
_P6BAR_NONEDGES = (("u", "v"), ("v", "w"), ("w", "x"), ("x", "y"), ("y", "z"))

# sec5: three disjoint triangles {a,d,e}, {b,f,g}, {c,h,i} joined by a
# sparse matching-like set of cross edges; its stable sets exercise the
# nice-ordering checker.
_SEC5_VERTS = "abcdefghi"
_SEC5_EDGES = (
    ("a", "d"), ("a", "e"), ("d", "e"),
    ("b", "f"), ("b", "g"), ("f", "g"),
    ("c", "h"), ("c", "i"), ("h", "i"),
    ("a", "f"), ("a", "h"), ("b", "d"), ("b", "i"), ("c", "e"), ("c", "g"),
)


def _builtin(name: str) -> Graph:
    if name == "p6bar":
        idx = {ch: k for k, ch in enumerate(_P6BAR_VERTS)}
        non = {tuple(sorted((idx[a], idx[b]))) for a, b in _P6BAR_NONEDGES}
        es = [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in non]
        return build(6, es)
    if name == "sec5":
        idx = {ch: k for k, ch in enumerate(_SEC5_VERTS)}
        return build(9, [(idx[a], idx[b]) for a, b in _SEC5_EDGES])
    raise GraphInputError(f"unknown builtin {name!r} (expected p6bar or sec5)")


@dataclass(frozen=True)
class GenSpec:
    """Parameters for generate().  Unused fields may stay at defaults."""

    family: str
    n: int = 0
    p: float = 0.5
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GraphInputError(f"unknown family {self.family!r}")
        if self.family != "builtin" and self.n < 0:
            raise GraphInputError(f"n must be >= 0, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise GraphInputError(f"p must be in [0, 1], got {self.p}")


def generate(spec: GenSpec) -> Graph:
    """Generate a graph; same spec (seed included) gives the same graph."""
    fam, n = spec.family, spec.n
    if fam == "builtin":
        return _builtin(spec.name)
    if fam == "edgeless":
        return build(n, [])
    if fam == "complete":
        return build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if fam == "cycle":
        if n in (1, 2):
            raise GraphInputError(f"cycle needs n=0 or n>=3, got {n}")
        return build(n, [(v, (v + 1) % n) for v in range(n)])
    if fam == "gnp":
        return _gnp(n, spec.p, spec.seed)
    if fam == "bipartite":
        return _bipartite(n, spec.p, spec.seed)
    if fam == "chordal":
        return _chordal(n, spec.p, spec.seed)
    raise AssertionError(fam)


def _gnp(n: int, p: float, seed: int) -> Graph:
    import numpy as np  # imported here: only `gen` needs it, and it dominates import time

    rng = np.random.default_rng(seed)
    mat = rng.random((n, n)) < p
    iu = np.triu_indices(n, k=1)
    us, vs = iu[0][mat[iu]], iu[1][mat[iu]]
    return build(n, zip(us.tolist(), vs.tolist()))


def _bipartite(n: int, p: float, seed: int) -> Graph:
    import numpy as np

    left = n // 2
    rng = np.random.default_rng(seed)
    mat = rng.random((left, n - left)) < p
    us, vs = np.nonzero(mat)
    return build(n, zip(us.tolist(), (vs + left).tolist()))


def _chordal(n: int, p: float, seed: int) -> Graph:
    # Grow vertex by vertex, attaching each new vertex to a random subset
    # of a previously formed clique; the reverse insertion order is then a
    # perfect elimination order, so the result is chordal.
    rng = random.Random(seed)
    edges = []
    cliques: list[list[int]] = []  # cliques[v] = the clique {v} ∪ attachment(v)
    for v in range(n):
        if v == 0:
            cliques.append([0])
            continue
        base = cliques[rng.randrange(v)]
        attach = [u for u in base if rng.random() < p]
        edges.extend((u, v) for u in attach)
        cliques.append(attach + [v])
    return build(n, edges)
