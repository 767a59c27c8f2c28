import contextlib
import io
import itertools
import os
import random
import sys
import tempfile
from array import array
from bisect import insort
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
import pytest

from meyniel import graph
from meyniel.app import _summary, main
from meyniel.certify import CertificateFormatError, CertificateInvalidError, decode
from meyniel.graph import Graph, GraphInputError, GraphParseError, build, to_dimacs
from meyniel.lexcolor import ColorTrace, ForcedOrderError
from meyniel.niceset import NiceCheckWitness, NotMaximalError, NotStableSetError
from meyniel.oracle import _guard, _neighbor_mask


@pytest.fixture(autouse=True)
def no_child_left():
    """No test leaves a child process behind, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def split_reads(on: bool = True):
    """Make `graph.parse_split` split every file it can (on), or none (off).

    On, the size threshold is 0 and two CPUs count as usable, whatever
    the host has, so the child is forked on any host with `os.fork`.
    """
    saved = graph._SPLIT, graph._cpus
    graph._SPLIT, graph._cpus = (0, lambda: 2) if on else (sys.maxsize, saved[1])
    try:
        yield
    finally:
        graph._SPLIT, graph._cpus = saved


@contextlib.contextmanager
def counted_forks():
    """Record the pid of each process that calls `os.fork` in this block."""
    forks: list[int] = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    os.fork = counted
    try:
        yield forks
    finally:
        os.fork = fork


class CountingGraph(Graph):
    """`g` with its adjacency reads counted: 1 per `has_edge`, len + 1 per `neighbors`.

    Every pipeline stage reaches the graph only through these two
    methods, and no caller scans a returned array twice, so `count`
    bounds the adjacency work from above without a clock.
    """

    __slots__ = ("count",)

    def __init__(self, g: Graph):
        super().__init__(g._nbrs)
        self.count = 0

    def has_edge(self, u: int, v: int) -> bool:
        self.count += 1
        return super().has_edge(u, v)

    def neighbors(self, v: int) -> array:
        a = super().neighbors(v)
        self.count += len(a) + 1
        return a


@st.composite
def graphs(draw, min_n=0, max_n=12):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return build(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return build(n, edges)


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """All edges as (u, v) with u < v, lexicographically sorted."""
    return [(u, v) for u in range(g.n) for v in g.neighbors(u) if u < v]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build(n, edges)


def all_graphs(n: int):
    """Every graph on n labeled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield build(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def naive_lex_color(g: Graph, first=()) -> ColorTrace:
    """Reference coloring: rescan every uncolored vertex at every step.

    The vertices of `first` go first, each checked against the best
    rescanned vertex.  Labels are sparse (color, value) lists sorted by
    descending color; all stored values are nonzero, so plain list order
    is the reverse lexicographic order of the dense vectors.  Quadratic
    in n, and kept here only as the trace every test of `lex_color`
    compares against.
    """
    n = g.n
    if len(set(first)) != len(first) or not all(0 <= v < n for v in first):
        raise ValueError("first must list distinct vertices of the graph")
    labs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    color_of = [0] * n
    step_of = [0] * n
    order: list[int] = []
    for i in range(1, n + 1):
        best = -1
        for v in range(n):
            if color_of[v] == 0 and (best < 0 or labs[v] > labs[best]):
                best = v
        if i <= len(first):
            x = first[i - 1]
            if labs[x] < labs[best]:
                raise ForcedOrderError(i, x, best)
        else:
            x = best
        taken = {color_of[y] for y in g.neighbors(x)}
        c = 1
        while c in taken:
            c += 1
        color_of[x] = c
        step_of[x] = i
        order.append(x)
        for y in g.neighbors(x):
            if color_of[y] == 0 and all(col != c for col, _ in labs[y]):
                insort(labs[y], (c, n - i), key=lambda e: -e[0])
    num_colors = max(color_of, default=0)
    classes = tuple(
        tuple(v for v in order if color_of[v] == k) for k in range(1, num_colors + 1)
    )
    return ColorTrace(
        order=tuple(order),
        step_of=tuple(step_of),
        color_of=tuple(color_of),
        classes=classes,
        num_colors=num_colors,
    )


def random_legal_order(g: Graph, rng: random.Random) -> list[int]:
    """A coloring order that picks a random lex-maximal vertex at each step."""
    n = g.n
    labels = [[0] * n for _ in range(n)]  # labels[v][c - 1]
    color = [0] * n
    order = []
    for step in range(1, n + 1):
        rev = {v: labels[v][::-1] for v in range(n) if not color[v]}
        top = max(rev.values())
        x = rng.choice([v for v, lab in rev.items() if lab == top])
        taken = {color[u] for u in g.neighbors(x)}
        c = 1
        while c in taken:
            c += 1
        color[x] = c
        order.append(x)
        for y in g.neighbors(x):
            if not color[y] and labels[y][c - 1] == 0:
                labels[y][c - 1] = n - step
    return order


def quadratic_nice_check(g: Graph, order) -> NiceCheckWitness | None:
    """Reference niceness check: at each position, loop over every vertex.

    Same contract as `meyniel.niceset.nice_check` (first witness in
    (index, a, b) order, same errors in the same precedence), without the
    neighbor-list scan that makes the library version linear.
    """
    s = tuple(order)
    n = g.n
    if len(set(s)) != len(s):
        raise ValueError("stable set entries must be distinct")
    for v in s:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
    for ii, u in enumerate(s):
        for w in s[ii + 1:]:
            if g.has_edge(u, w):
                raise NotStableSetError(f"adjacent pair {u}-{w} in stable set")
    in_s = [False] * n
    for v in s:
        in_s[v] = True
    first_s = [0] * n
    for idx, sv in enumerate(s, start=1):
        for u in g.neighbors(sv):
            if first_s[u] == 0:
                first_s[u] = idx
    for u in range(n):
        if not in_s[u] and first_s[u] == 0:
            raise NotMaximalError(f"vertex {u} has no neighbor in the set")
    newly = [[] for _ in range(len(s) + 1)]
    for u in range(n):
        if 0 < first_s[u] <= len(s):
            newly[first_s[u]].append(u)
    for i in range(2, len(s) + 1):
        si = s[i - 1]
        bs = newly[i]
        if not bs:
            continue
        for a in range(n):
            if 0 < first_s[a] < i and not g.has_edge(a, si):
                for b in bs:
                    if g.has_edge(a, b):
                        return NiceCheckWitness(index=i, a=a, b=b)
    return None


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques (Bron-Kerbosch with pivoting), up to 30 vertices."""
    _guard(g, 30, "maximal_cliques")
    if g.n == 0:
        return []
    rows = [_neighbor_mask(g, v) for v in range(g.n)]
    out: list[tuple[int, ...]] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(tuple(_bits(r)))
            return
        pool = p | x
        piv = -1
        piv_deg = -1
        for u in _bits(pool):
            d = (p & rows[u]).bit_count()
            if d > piv_deg:
                piv, piv_deg = u, d
        ext = p & ~rows[piv]
        while ext:
            bit = ext & -ext
            ext ^= bit
            v = bit.bit_length() - 1
            bk(r | bit, p & rows[v], x & rows[v])
            p ^= bit
            x |= bit

    bk(0, (1 << g.n) - 1, 0)
    return out


def is_stable_set(g: Graph, verts) -> bool:
    vs = list(verts)
    if len(set(vs)) != len(vs):
        raise ValueError("repeated vertices")
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return all(not g.has_edge(u, w) for i, u in enumerate(vs) for w in vs[i + 1:])


def is_strong_stable_set(g: Graph, verts) -> bool:
    """Does this stable set meet every maximal clique?  Up to 30 vertices.

    Raises ValueError when the input is not stable; an empty graph has
    no maximal cliques to meet, so the empty set qualifies there.
    """
    _guard(g, 30, "is_strong_stable_set")
    if not is_stable_set(g, verts):
        raise ValueError("input is not a stable set")
    smask = 0
    for v in verts:
        smask |= 1 << v
    for q in maximal_cliques(g):
        qmask = 0
        for v in q:
            qmask |= 1 << v
        if smask & qmask == 0:
            return False
    return True


def _reference_build(n: int, edges) -> tuple[int, list[tuple[int, int]]]:
    """The bigint-row build: one n-bit int per vertex, read back bit by bit.

    Returns (n, edges with u < v in lexicographic order).
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
    return n, [(u, v) for u in range(n) for v in _bits(rows[u]) if u < v]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_parse(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Reference DIMACS parser: collect an edge list, then build from bigint rows.

    Splits the whole text at once and runs `int()` and the range check
    on every endpoint.  Same accepted texts, errors, line numbers and
    messages as `meyniel.graph.parse`, which splits one slice at a time,
    interns endpoint tokens and fills neighbor lists in a single pass;
    the tests compare the two on generated text.
    """
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
            if n > sys.maxsize:
                raise GraphParseError(ln, f"vertex count {n} exceeds {sys.maxsize}")
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
    return _reference_build(n, edges)


def decode_outcome(g: Graph, data) -> tuple[int, str, str]:
    """What `meyniel verify` must print for `data`, by `decode` on the fully built g.

    (exit code, stdout, stderr), as `main` reports each outcome.
    """
    try:
        cert = decode(g, data)
    except CertificateInvalidError as exc:
        return 1, f"INVALID: {exc}\n", ""
    except CertificateFormatError as exc:
        return 2, "", f"error: {exc}\n"
    return 0, f"VALID {_summary(cert)}\n", ""


def cli_verify(graph_path: str, cert_path: str) -> tuple[int, str, str]:
    """`main(["verify", graph_path, cert_path])` in process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", graph_path, cert_path])
    return code, out.getvalue(), err.getvalue()


def assert_verify_matches_decode(g: Graph, data) -> None:
    """`meyniel verify` on g's DIMACS file prints what `decode` on the full g says.

    For an obstruction the CLI reads only the subgraph induced by the
    cycle, padded to g's n vertices.  It runs at the default slice and at
    a small one, where every piece after the header is a few lines and
    plain ones are taken in bulk.
    """
    want = decode_outcome(g, data)
    saved = graph._SLICE
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, cert_path = os.path.join(tmp, "g.col"), os.path.join(tmp, "cert.json")
        with open(graph_path, "w", encoding="utf-8") as fh:
            fh.write(to_dimacs(g))
        with open(cert_path, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        try:
            for size in (saved, 16):
                graph._SLICE = size
                assert cli_verify(graph_path, cert_path) == want, size
        finally:
            graph._SLICE = saved
