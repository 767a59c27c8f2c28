"""Simple undirected graphs: construction, parsing, and seeded generators.

Vertices are 0..n-1.  Adjacency is one ascending neighbor tuple per
vertex: neighbor iteration is a tuple walk and membership is a binary
search.  Parsing and `build` fill per-vertex lists in one pass over the
edges, so input costs O(n + m) plus the per-vertex sort.  Graphs are
immutable once built.

One streaming loop parses both text formats.  It takes the text as
pieces of about 16 KiB, each ending just after a "\n", so only one
piece's lines exist at once.  `parse` cuts a str into such pieces;
`parse_stream` reads them from a text file object, so a file's text is
never held whole.  A piece after the header made only of canonical edge
lines ("e 12 7", single spaces, no leading zeros) is checked in bulk:
split once, each new token range-checked once, self-loops found by
string equality.  Any other piece takes the line loop, whose hot
branch takes edge lines; every other line (header, comment, blank or
malformed) goes to one cold helper.  Both routes intern endpoint tokens: a token
seen before costs one dict lookup, and every occurrence of it shares
one int object in the neighbor tuples.  The token dict lives until the
graph is built; it is largest when every token is distinct, as in a
perfect matching.

`parse_stream` can also keep a set of vertices: only they get neighbor
tuples, each complete, and every other vertex gets `()`.  Such a graph
answers only questions about kept vertices, and its `m` counts only the
stored edges; `meyniel verify` reads an obstruction's graph this way,
keeping the cycle.  The pieces, their checks and errors are the same.

`dimacs_pieces` serializes a graph the other way, one vertex's edge
lines at a time, so writing a graph holds no edge list and no whole text.
"""

from __future__ import annotations

import random
import re
import sys
from bisect import bisect_left
from collections import deque
from itertools import chain, compress, filterfalse
from operator import eq
from typing import NamedTuple

from .record import record


class GraphInputError(ValueError):
    """Bad vertex count, edge endpoints, or generator parameters."""


class GraphParseError(GraphInputError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Graph:
    """Immutable simple graph (no loops, no parallel edges)."""

    __slots__ = ("n", "m", "_nbrs")

    def __init__(self, nbrs: tuple[tuple[int, ...], ...]):
        """`nbrs[v]` must be v's neighbors, ascending, symmetric, loop-free."""
        self.n = len(nbrs)
        self._nbrs = nbrs
        self.m = sum(map(len, nbrs)) // 2

    # A negative vertex would index `_nbrs` from the end and answer for
    # another vertex: reject it with IndexError, like one >= n

    def has_edge(self, u: int, v: int) -> bool:
        if u < 0:
            raise IndexError(f"vertex {u} out of range")
        a = self._nbrs[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        if v < 0:
            raise IndexError(f"vertex {v} out of range")
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        if v < 0:
            raise IndexError(f"vertex {v} out of range")
        return len(self._nbrs[v])

    def subgraph(self, verts: list[int] | tuple[int, ...]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on `verts` plus the old-vertex map.

        Returns (h, old_of) where h has len(verts) vertices and old_of[i]
        is the original label of h's vertex i.  `verts` must be distinct
        vertices of this graph.
        """
        old_of = sorted(verts)
        if len(set(old_of)) != len(old_of):
            raise GraphInputError("subgraph vertices must be distinct")
        if old_of and not (0 <= old_of[0] and old_of[-1] < self.n):
            raise GraphInputError(f"subgraph vertices must be in 0..{self.n - 1}")
        pos = {old: i for i, old in enumerate(old_of)}
        # old_of is ascending, so pos is monotone and each kept tuple
        # stays ascending and duplicate-free: no re-sort, no re-check
        nbrs = self._nbrs
        h = Graph(tuple(tuple([pos[w] for w in nbrs[old] if w in pos]) for old in old_of))
        return h, tuple(old_of)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._nbrs == other._nbrs

    def __hash__(self) -> int:
        return hash(self._nbrs)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _freeze(adj: list) -> Graph:
    # in place, so each list is freed as soon as its tuple exists
    for v, a in enumerate(adj):
        adj[v] = tuple(sorted(set(a)))
    return Graph(tuple(adj))


def build(n: int, edges) -> Graph:
    """Build a graph from an edge iterable; duplicates are collapsed.

    Rejects negative n, self-loops, and out-of-range endpoints.
    """
    if n < 0:
        raise GraphInputError(f"vertex count must be >= 0, got {n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    ids = list(range(n))  # one int object per vertex, shared by every neighbor tuple
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        adj[u].append(ids[v])
        adj[v].append(ids[u])
    return _freeze(adj)


def parse(text: str, fmt: str = "dimacs") -> Graph:
    """Parse graph text in `dimacs` or `edgelist` format.

    dimacs: one "p edge <n> <m>" line, then "e <u> <v>" lines (1-based);
    "c ..." lines are comments.  edgelist: first non-blank line is "<n>",
    then "<u> <v>" lines (0-based); blank lines are ignored.
    """
    return _parse(_text_pieces(text), fmt)


def parse_stream(fh, fmt: str = "dimacs", keep=None) -> Graph:
    """`parse` of the text that a text file object `fh` reads.

    Reads `fh.read(_SLICE)` blocks (16 KiB) until EOF, so only about one
    block of the text is held at a time.  Lines, line numbers and errors
    are those of `parse(fh.read(), fmt)`, except that an error `fh` raises
    while reading (such as a UnicodeDecodeError) comes only when its block
    is read, after any error in the lines before it.

    With `keep`, a set of vertices, only the kept vertices get neighbor
    tuples, each one complete; every other vertex gets `()`, and `m`
    (half the stored neighbor entries) counts only the stored edges.
    Such a graph answers only questions about kept vertices.  The blocks
    and the route each takes do not depend on `keep`, so the errors are
    the same as without it.  Kept vertices outside 0..n-1 are ignored.
    """
    return _parse(_file_pieces(fh), fmt, keep)


# The parse loop takes the text in pieces that end just after a "\n",
# about every _SLICE characters (the last piece may end without one).
# A cut after "\n" is also a `str.splitlines` boundary, so lines and line
# numbers match splitting the whole text, without holding every line or
# the whole text at once.  At 16 KiB the token lists that `_plain_edges`
# splits from a piece stay small beside the graph.
_SLICE = 1 << 14


def _text_pieces(text: str):
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _SLICE - 1) + 1 or len(text)
        yield text[start:cut]
        start = cut


def _file_pieces(fh):
    # Each block is cut after its last "\n" and the tail carried on.  A
    # block without "\n" is only held, and the held blocks are joined
    # once, so one huge line costs linear time, not quadratic.
    held: list[str] = []
    while block := fh.read(_SLICE):
        cut = block.rfind("\n") + 1
        if cut:
            held.append(block[:cut])
            yield "".join(held)
            held = [block[cut:]]
        else:
            held.append(block)
    yield "".join(held)


def _endpoints(tok: dict, a: str, b: str, base: int, n: int, ln: int, raw: str) -> tuple[int, int]:
    """0-based endpoints of tokens a, b of which at least one is new to `tok`.

    Checks as every edge line once did: bad int, then out of range.
    Only tokens that pass are stored, so later lines find them in `tok`.
    """
    try:
        u, v = int(a) - base, int(b) - base
    except ValueError:
        raise GraphParseError(ln, f"bad edge line {raw.strip()!r}") from None
    if not (0 <= u < n and 0 <= v < n):
        raise GraphParseError(ln, f"endpoint out of range in {raw.strip()!r}")
    return tok.setdefault(a, u), tok.setdefault(b, v)


def _parse(pieces, fmt: str, keep=None) -> Graph:
    """Both formats in one pass; `keep` as in `parse_stream`.

    After the header each piece goes to `_plain_edges`, and one it
    declines to the line loop.
    """
    if fmt not in ("dimacs", "edgelist"):
        raise GraphInputError(f"unknown format {fmt!r}")
    dimacs = fmt == "dimacs"
    edgelist = not dimacs
    base = 1 if dimacs else 0  # index of an edge line's first endpoint, and number of vertex 0
    last = base + 1
    n = 0
    adj = None  # per-vertex neighbor lists, created by the header line
    width = -1  # parts in an edge line; no line matches before the header
    tok: dict[str, int] = {}  # endpoint token -> 0-based vertex
    get = tok.get
    kept = None  # with keep: the canonical tokens of the kept vertices
    plain = _plain_patterns(dimacs)
    ln = 0
    for piece in pieces:
        if adj is not None and _plain_edges(piece, plain, tok, kept, adj, base):
            ln += piece.count("\n")
            continue
        for ln, raw in enumerate(piece.splitlines(), ln + 1):
            parts = raw.split()
            if len(parts) == width and (edgelist or parts[0] == "e"):
                a, b = parts[base], parts[last]
                u, v = get(a), get(b)
                if u is None or v is None:
                    u, v = _endpoints(tok, a, b, base, n, ln, raw)
                if u == v:
                    raise GraphParseError(ln, f"self-loop in {raw.strip()!r}")
                adj[u].append(v)
                adj[v].append(u)
            elif (count := _other_line(parts, raw, ln, dimacs, adj is not None)) is not None:
                n = count
                if keep is None:
                    adj = [[] for _ in range(n)]
                else:  # one discarding sink for every vertex that is not kept
                    adj = [deque(maxlen=0)] * n
                    ids = [v for v in keep if 0 <= v < n]
                    for v in ids:
                        adj[v] = []
                    kept = {str(v + base) for v in ids}
                width = last + 1
    if adj is None:
        raise GraphParseError(1, "missing problem line" if dimacs else "empty input")
    return _freeze(adj)


def _plain_patterns(dimacs: bool) -> tuple[re.Pattern, re.Pattern]:
    """The canonical edge line, and a "\n" that neither ends the piece nor starts one.

    Canonical: ASCII digits without a leading zero (a lone "0" is an
    edge-list vertex), single spaces, and "\n".  A piece is plain when
    its first line is canonical and the second pattern is not found.  A
    search keeps the regex engine's memory constant, where a fullmatch
    of `(?:line)*` would stack state for every line.
    """
    num = "[1-9][0-9]*" if dimacs else "(?:0|[1-9][0-9]*)"
    line = f"e {num} {num}\n" if dimacs else f"{num} {num}\n"
    return re.compile(line), re.compile(f"\n(?!{line}|\\Z)")


def _plain_edges(piece: str, plain, tok: dict, kept: set | None, adj: list, base: int) -> bool:
    """Take a piece of canonical edge lines in bulk; else return False having stored no edge.

    On canonical lines the line loop's checks reduce to two: each new
    token is below n (it cannot be below 0), and no line's two tokens
    are equal.
    A token that passes is stored in `tok` at once: `tok` only ever
    holds valid tokens, so it stays right even when the piece is
    declined, and the line loop then raises the exact error.  With
    `kept`, the tokens of the kept vertices, only edges with a kept
    endpoint are stored; with None, every edge.  Never raises.
    """
    line, brk = plain
    if not line.match(piece) or brk.search(piece):
        return False
    parts = piece.split()
    width = base + 2
    a, b = parts[base::width], parts[base + 1::width]
    n = len(adj)
    digits = len(str(n))  # a longer canonical token is out of range, and int() may refuse it
    for t in filterfalse(tok.__contains__, chain(a, b)):
        if len(t) > digits or (v := int(t) - base) >= n:
            return False
        tok[t] = v
    if any(map(eq, a, b)):
        return False
    if kept is None:
        for x, y in zip(a, b):
            u, v = tok[x], tok[y]
            adj[u].append(v)
            adj[v].append(u)
        return True
    for x, y in compress(zip(a, b), map(kept.__contains__, a)):
        adj[tok[x]].append(tok[y])
    for x, y in compress(zip(a, b), map(kept.__contains__, b)):
        adj[tok[y]].append(tok[x])
    return True


def _other_line(parts: list[str], raw: str, ln: int, dimacs: bool, started: bool) -> int | None:
    """The vertex count of a header line, None for a blank or comment line; else raise.

    `started` says a header was already read.
    """
    if not parts:
        return None
    line = raw.strip()
    if dimacs:
        tag = parts[0]
        if tag == "e":
            raise GraphParseError(ln, f"expected 'e <u> <v>', got {line!r}" if started
                                  else "edge before problem line")
        if tag.startswith("c"):
            return None
        if tag != "p":
            raise GraphParseError(ln, f"unrecognized line {line!r}")
        if started:
            raise GraphParseError(ln, "duplicate problem line")
        if len(parts) != 4 or parts[1] != "edge":
            raise GraphParseError(ln, f"expected 'p edge <n> <m>', got {line!r}")
        nums, what = parts[2:], "problem line"  # the edge count must be an int too
    else:
        if started:
            raise GraphParseError(ln, f"expected '<u> <v>', got {line!r}")
        if len(parts) != 1:
            raise GraphParseError(ln, f"expected vertex count, got {line!r}")
        nums, what = parts, "vertex count"
    try:
        n = int(nums[0])
        int(nums[-1])
    except ValueError:
        raise GraphParseError(ln, f"bad {what} {line!r}") from None
    if n < 0:
        raise GraphParseError(ln, f"negative vertex count {n}")
    if n > sys.maxsize:  # no list can have an entry per vertex
        raise GraphParseError(ln, f"vertex count {n} exceeds {sys.maxsize}")
    return n


def to_dimacs(g: Graph) -> str:
    """Serialize to DIMACS text (inverse of parse up to comments)."""
    return "".join(dimacs_pieces(g))


def dimacs_pieces(g: Graph):
    """The text of `to_dimacs(g)` in pieces: the header, then each vertex's edge lines.

    Edges come as (u, v) with u < v, lexicographically sorted, walked
    straight from the neighbor tuples.
    """
    yield f"p edge {g.n} {g.m}\n"
    for u, a in enumerate(g._nbrs, 1):  # 1-based u: the later neighbors are those >= u
        yield "".join([f"e {u} {v + 1}\n" for v in a[bisect_left(a, u):]])


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


class _GenFields(NamedTuple):
    family: str
    n: int = 0
    p: float = 0.5
    seed: int = 0
    name: str = ""


@record
class GenSpec(_GenFields):
    """Parameters for generate().  Unused fields may stay at defaults."""

    __slots__ = ()

    # NamedTuple reserves __new__ in its own body, hence the field base
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise GraphInputError(f"unknown family {self.family!r}")
        if self.family != "builtin" and self.n < 0:
            raise GraphInputError(f"n must be >= 0, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise GraphInputError(f"p must be in [0, 1], got {self.p}")
        return self


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

    # One row of the n x n uniform matrix at a time: the Generator yields
    # the same stream in row-sized draws, so graphs match the full-matrix
    # draw bit for bit in O(n) floats.  Row u keeps its entries above u.
    rng = np.random.default_rng(seed)

    def edges():
        for u in range(n):
            row = rng.random(n)
            for v in np.flatnonzero(row[u + 1:] < p).tolist():
                yield u, u + 1 + v

    return build(n, edges())


def _bipartite(n: int, p: float, seed: int) -> Graph:
    import numpy as np

    left = n // 2
    rng = np.random.default_rng(seed)

    def edges():
        for u in range(left):
            for v in np.flatnonzero(rng.random(n - left) < p).tolist():
                yield u, left + v

    return build(n, edges())


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
