"""Simple undirected graphs: construction, parsing and serialization.

Vertices are 0..n-1.  Adjacency is one ascending `array("I")` of
neighbors per vertex, 4 bytes per stored edge end: neighbor iteration
is an array walk and membership is a binary search.  Parsing and `build`
fill the per-vertex arrays in one pass over the edges, so input costs
O(n + m) plus the per-vertex sort of any array that is not already
strictly ascending.  Every vertex without a neighbor shares one empty
array.  Graphs are immutable once built: the arrays are read-only by
contract.

One streaming loop parses DIMACS text.  It takes the text as
pieces of about 16 KiB, each ending just after a "\n", so only one
piece's lines exist at once.  One cutter makes them from fixed-size
blocks, which `parse` slices from a str and `parse_stream` reads from a
text file object, so a file's text is never held whole.  Line 1 is a
piece of its own.  A piece after the header made only of canonical edge
lines ("e 12 7": single spaces, two distinct tokens in 1..n without a
leading zero) is taken in bulk.  One regex, built from the header's n,
checks every line's shape, endpoint range and self-loop at once, and
the piece is then split once.  Any other piece takes the line loop,
whose hot branch takes edge lines; every other line (header, comment,
blank or malformed) goes to one cold helper.  Both routes intern
endpoint tokens: a token seen before costs one dict lookup.  A vertex's
array is made where its first token is interned, so a header alone
allocates one list of n `None`s and no per-vertex object.  The token
dict lives until the graph is built; it is largest when every token is
distinct, as in a perfect matching.

`parse_stream` can also keep a set S of vertices: it returns G[S], the
subgraph induced by S, padded to n vertices, so every vertex outside S
gets the empty array.  `meyniel verify` reads an obstruction's graph
this way, keeping the cycle.  The pieces, their checks and errors are
the same, but a plain piece is split only when S has more than
`_PICK_MAX` vertices.  Up to that, a second pattern, compiled once per
parse from S's tokens, finds the lines with both ends in S by one search
of the checked piece, in line order.

`read_graph` reads a graph file, a large one on two cores when it can
(`_parse_split`).  When line 1 is the header, it cuts the file just
after the first "\n" at or past its middle byte and forks one child.
The parent runs the parse loop over the first half, and the child over
the header line followed by the second half.  Each half checks which of
its arrays are strictly ascending.  Through a pipe the child then sends
the length of each vertex's neighbor array, its checks, then the arrays'
bytes; the parent reads them straight onto its own arrays.  It sorts
only a joined array with a part that is not strictly ascending, or whose
child part does not start above the parent's last entry, so the check
runs in parallel.  A cut after "\n" is a line boundary, and no UTF-8
sequence contains a "\n" byte, so each line lands whole in one half.
Should anything fail, `read_graph` reads the file again serially, with
`parse_stream`, which reports the error as it would have anyway.

`dimacs_pieces` serializes a graph the other way, one vertex's edge
lines at a time, so writing a graph holds no edge list and no whole text.
"""

from __future__ import annotations

import io
import os
import re
import stat
import sys
from array import array
from bisect import bisect_left
from codecs import getincrementaldecoder
from collections import deque
from functools import partial
from itertools import chain, compress, islice
from operator import lt


class GraphInputError(ValueError):
    """Bad vertex count, edge endpoints, or generator parameters."""


class GraphParseError(GraphInputError):
    """Malformed graph text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def quoted(x) -> str:
    """`repr(x)` as an error message quotes an input line or value: cut after 80 characters, then "..."."""
    r = repr(x)
    return r if len(r) <= 80 else r[:80] + "..."


class Graph:
    """Immutable simple graph (no loops, no parallel edges)."""

    __slots__ = ("n", "m", "_nbrs")

    def __init__(self, nbrs: tuple[array, ...]):
        """`nbrs[v]` must be v's neighbors as an `array("I")`, ascending, symmetric, loop-free."""
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

    def neighbors(self, v: int) -> array:
        """Neighbors of v in ascending order, as the graph's own `array("I")`: read it, never change it."""
        if v < 0:
            raise IndexError(f"vertex {v} out of range")
        return self._nbrs[v]

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
        # old_of is ascending, so pos is monotone and each kept array
        # stays ascending and duplicate-free: no re-sort, no re-check
        nbrs = self._nbrs
        h = Graph(tuple(array("I", [pos[w] for w in nbrs[old] if w in pos]) for old in old_of))
        return h, tuple(old_of)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._nbrs == other._nbrs

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


_EMPTY = array("I")  # the neighbors of every vertex with none


def _freeze(adj: list, ascends: bytearray | None = None) -> Graph:
    """The graph of per-vertex arrays; None or any empty entry means no neighbor.

    A strictly ascending array is kept as it is, as the arrays of sorted
    DIMACS text are; any other is sorted and its repeats dropped, in
    place, so each replaced array is freed as soon as its successor exists.
    `ascends` says which arrays are; by default `_ascents(adj)` checks them.
    """
    if ascends is None:
        ascends = _ascents(adj)
    for v, a in enumerate(adj):
        if not a:  # None, the keep read's sink, or an empty array
            adj[v] = _EMPTY
        elif not ascends[v]:
            adj[v] = array("I", sorted(set(a)))
    return Graph(tuple(adj))


def _ascents(adj: list) -> bytearray:
    """One byte per vertex: 1 if its array is strictly ascending or empty, else 0."""
    return bytearray(not a or all(map(lt, a, islice(a, 1, None))) for a in adj)


def build(n: int, edges) -> Graph:
    """Build a graph from an edge iterable; duplicates are collapsed.

    Rejects negative n, self-loops, and out-of-range endpoints.
    """
    if n < 0:
        raise GraphInputError(f"vertex count must be >= 0, got {n}")
    adj = [array("I") for _ in range(n)]
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        adj[u].append(v)
        adj[v].append(u)
    return _freeze(adj)


def parse(text: str) -> Graph:
    """Parse DIMACS graph text.

    One "p edge <n> <m>" line, then "e <u> <v>" lines (1-based); "c ..."
    lines are comments, and blank lines are ignored.
    """
    return _freeze(_parse(_cut(text[i:i + _SLICE] for i in range(0, len(text), _SLICE))))


def parse_stream(fh, keep=None) -> Graph:
    """`parse` of the text that a text file object `fh` reads.

    Reads `fh.read(_SLICE)` blocks (16 KiB) until EOF, so only about one
    block of the text is held at a time.  Lines, line numbers and errors
    are those of `parse(fh.read())`, except that an error `fh` raises
    while reading (such as a UnicodeDecodeError) comes only when its block
    is read, after any error in the lines before it.

    With `keep`, a set S of vertices, it returns the subgraph induced by
    S, padded to n vertices: only the edges with both ends in S are
    stored, and every other vertex gets the empty array.  The blocks and
    the route each takes do not depend on `keep`, so the errors are the
    same as without it.  Kept vertices outside 0..n-1 are ignored.
    """
    return _freeze(_parse(_cut(iter(partial(fh.read, _SLICE), "")), keep))


def read_graph(path: str, keep=None) -> Graph:
    """The graph in the file at `path` ("-" for stdin), read as strict UTF-8; `keep` as in `parse_stream`.

    A large regular file is parsed on two cores by a fork when it can be
    (`_parse_split`), so the process should run no other thread.  Else,
    or should that fail, `parse_stream` reads it and raises the input's
    error.  Input that is not UTF-8 or exhausts memory raises GraphInputError.
    """
    try:
        if path == "-":
            # stdin's own decoding follows the locale and may escape bad
            # bytes; decode its bytes as open() does, then leave them open
            fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
            try:
                return parse_stream(fh, keep)
            finally:
                fh.detach()
        with open(path, encoding="utf-8") as fh:
            return parse_stream(fh, keep) if (g := _parse_split(fh, keep)) is None else g
    except UnicodeDecodeError as exc:  # its position counts from the block, not the file
        raise GraphInputError(f"graph input is not valid UTF-8: {exc.reason}") from None
    except MemoryError:  # the input, not the program, is at fault
        raise GraphInputError("graph input is too large: out of memory while reading it") from None


# The parse loop takes the text in pieces that end just after a "\n",
# about every _SLICE characters (the last piece may end without one).
# A cut after "\n" is also a `str.splitlines` boundary, so lines and line
# numbers match splitting the whole text, without holding every line or
# the whole text at once.  At 16 KiB the token lists that `_plain_edges`
# splits from a piece stay small beside the graph.
_SLICE = 1 << 14


def _cut(blocks):
    # Each text block is cut after its last "\n" and the tail carried on.
    # A block without "\n" is only held, and the held blocks are joined
    # once, so one huge line costs linear time, not quadratic.  Line 1 is
    # a piece of its own, cut at its "\n", so that when it is the header
    # every later line can reach the bulk route, even in a file of one
    # block; the rest of its block is carried into the next piece.
    held: list[str] = []
    find = str.find
    for block in blocks:
        cut = find(block, "\n") + 1
        if cut:
            held.append(block[:cut])
            yield "".join(held)
            held = [block[cut:]]
            find = str.rfind
        else:
            held.append(block)
    if tail := "".join(held):
        yield tail


# A regular file of at least _SPLIT bytes is parsed on two cores when it
# can be (see `_parse_split`).  Below it the fork and the transfer cost
# more than the second core saves: at 1 MiB a full read of a dense graph
# gains and one of a sparse graph breaks even (measured in the README).
_SPLIT = 1 << 20


def _parse_split(fh, keep=None) -> Graph | None:
    """`parse_stream(fh, keep)` of a large file, parsed by two processes; or None.

    `fh` is a text file that `open(path, encoding="utf-8")` returned and
    nothing has read yet.  The read is split only if `fh` is a regular
    file of at least `_SPLIT` bytes, `os.fork` exists, two CPUs are
    usable, line 1 is a header that ends within the first `_SLICE`
    bytes and declares no more vertices than the file has bytes, and a
    "\n" lies past the middle byte.  The parent then parses up to just
    after the first "\n" at or past the middle byte, and one forked
    child parses the header line followed by the rest.

    Returns None in every other case, and whenever either half raises,
    the child dies or its arrays end short.  Both halves read by
    position, so `fh` is then still at its start for the serial read.
    The child is reaped before this returns, and killed first unless it
    exited on its own; a KeyboardInterrupt still propagates.
    """
    try:
        fd = fh.fileno()
        info = os.fstat(fd)
        if not (stat.S_ISREG(info.st_mode) and info.st_size >= _SPLIT
                and hasattr(os, "fork") and _cpus() > 1):
            return None
        cut = _probe(fd, info.st_size)
        return _parse_halves(fd, *cut, keep) if cut else None
    except Exception:  # reported, if it is the input's, by the serial read
        return None


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _probe(fd: int, size: int) -> tuple[str, int] | None:
    """(head, mid) if the file may be split, else None; raises if line 1 is malformed.

    `head` is the text up to the first "\n", when line 1 is a header of
    at most `size` vertices; `mid` is the byte after the first "\n" at
    or past size // 2, when it precedes the last byte.  Any further line
    before the first "\n" (after a "\r", say) is parsed by both halves,
    and its edges are stored by both, which `_freeze` collapses.  A file
    with more vertices than bytes holds mostly isolated vertices, whose
    zero lengths the child would only send.
    """
    block = os.pread(fd, _SLICE, 0)
    head = block[:block.find(b"\n") + 1].decode("utf-8")
    line = head.splitlines()[0] if head else ""
    n = _other_line(line.split(), line, 1, False)
    if n is None or n > size:
        return None
    pos = size // 2
    while block := os.pread(fd, _SLICE, pos):
        cut = block.find(b"\n")
        if cut >= 0:
            mid = pos + cut + 1
            return (head, mid) if mid < size else None
        pos += len(block)
    return None


def _decoded(fd: int, start: int, end: int | None = None):
    """Bytes start..end of the file (to EOF if end is None) as strict UTF-8 text blocks.

    Reads by position: the file offset, which a forked child shares with
    its parent, never moves.
    """
    decode = getincrementaldecoder("utf-8")().decode
    while start != end and (block := os.pread(fd, _SLICE if end is None else min(_SLICE, end - start), start)):
        start += len(block)
        yield decode(block)
    yield decode(b"", True)


def _parse_halves(fd: int, head: str, mid: int, keep) -> Graph | None:
    """The graph, the parent parsing bytes 0..mid and a forked child the rest; None if the child fails."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        _child(r, w, fd, head, mid, keep)
    os.close(w)
    status = None
    try:
        with open(r, "rb") as stream:
            adj = _parse(_cut(_decoded(fd, 0, mid)), keep)
            ascends = _ascents(adj)
            _receive(stream, adj, ascends)
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:  # the parent failed or was interrupted, or the arrays ended short
            from signal import SIGKILL  # only this path needs the module

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    return _freeze(adj, ascends) if status == 0 else None


def _child(r: int, w: int, fd: int, head: str, mid: int, keep) -> None:
    """The forked child's whole life: parse from `mid` after `head`, send the arrays, exit.

    It leaves only through `os._exit`, whatever is raised (a broken pipe
    included), so it runs no atexit handler and flushes none of the
    caller's stdio; its status is 0 only once its last array is sent.
    """
    code = 1
    try:
        os.close(r)
        with open(w, "wb") as out:
            _send(out, _parse(chain([head], _cut(_decoded(fd, mid))), keep))
        code = 0
    finally:
        os._exit(code)


def _send(out, adj: list) -> None:
    """Write the length of every vertex's array (0 for None), their `_ascents`, then each nonempty array as it is."""
    out.write(array("I", [len(a) if a else 0 for a in adj]))
    out.write(_ascents(adj))
    for a in filter(None, adj):
        out.write(a)


def _receive(stream, adj: list, ascends: bytearray) -> None:
    """Read what `_send` wrote onto the ends of `adj`'s arrays; EOFError if it ends short.

    `ascends` holds `_ascents(adj)` on entry, and on return says which
    joined arrays are strictly ascending: those whose two parts are and
    whose child part starts above the parent's last entry.  A vertex the
    parent has not seen gets its array here.
    """
    lengths = array("I")
    lengths.fromfile(stream, len(adj))
    theirs = stream.read(len(adj))  # short only at EOF, where the next array read raises
    for v, k in enumerate(lengths):
        if k:
            a = adj[v]
            if a is None:
                a = adj[v] = array("I")
            last = a[-1] if a else -1
            a.fromfile(stream, k)
            ascends[v] = ascends[v] and theirs[v] and a[-k] > last


def _endpoints(tok: dict, a: str, b: str, n: int, ln: int, raw: str, adj: list) -> tuple[int, int]:
    """0-based endpoints of tokens a, b of which at least one is new to `tok`.

    Checks as every edge line once did: bad int, then out of range.
    Only tokens that pass are stored, so later lines find them in `tok`,
    and a vertex with no array in `adj` gets one.
    """
    try:
        u, v = int(a) - 1, int(b) - 1
    except ValueError:
        raise GraphParseError(ln, f"bad edge line {quoted(raw.strip())}") from None
    if not (0 <= u < n and 0 <= v < n):
        raise GraphParseError(ln, f"endpoint out of range in {quoted(raw.strip())}")
    for w in u, v:
        if adj[w] is None:
            adj[w] = array("I")
    return tok.setdefault(a, u), tok.setdefault(b, v)


def _parse(pieces, keep=None) -> list:
    """The one pass over the pieces; `keep` as in `parse_stream`.

    Returns the per-vertex neighbor arrays, for `_freeze`: None for a
    vertex whose token never occurs.  After the header each piece goes
    to `_plain_edges`, and one it declines to the line loop.  With
    `keep`, the line loop stores a kept vertex's edges to every vertex,
    and those to unkept ones are dropped at the end.
    """
    n = 0
    adj = None  # per-vertex neighbor arrays, listed by the header line
    width = -1  # parts in an edge line; no line matches before the header
    tok: dict[str, int] = {}  # endpoint token -> 0-based vertex
    get = tok.get
    ids = kept = None  # with keep: the kept vertices, and their canonical tokens mapped to them
    canon = None  # the break pattern of canonical lines, built from the header's n
    pick = None  # with at most _PICK_MAX kept tokens: the pattern of lines with both kept
    ln = 0
    for piece in pieces:
        if canon is not None and _plain_edges(piece, canon, tok, kept, pick, adj):
            ln += piece.count("\n")
            continue
        for ln, raw in enumerate(piece.splitlines(), ln + 1):
            parts = raw.split()
            if len(parts) == width and parts[0] == "e":
                a, b = parts[1], parts[2]
                u, v = get(a), get(b)
                if u is None or v is None:
                    u, v = _endpoints(tok, a, b, n, ln, raw, adj)
                if u == v:
                    raise GraphParseError(ln, f"self-loop in {quoted(raw.strip())}")
                adj[u].append(v)
                adj[v].append(u)
            elif (count := _other_line(parts, raw, ln, adj is not None)) is not None:
                n = count
                if keep is None:
                    adj = [None] * n
                else:  # one discarding sink for every vertex that is not kept
                    adj = [deque(maxlen=0)] * n
                    ids = {v for v in keep if 0 <= v < n}
                    for v in ids:
                        adj[v] = array("I")
                    kept = {str(v + 1): v for v in ids}
                    if len(kept) <= _PICK_MAX:
                        pick = _kept_lines(kept)
                canon = _canonical(n)
                width = 3
    if adj is None:
        raise GraphParseError(1, "missing problem line")
    for v in ids or ():
        adj[v] = array("I", filter(ids.__contains__, adj[v]))
    return adj


def _canonical(n: int) -> re.Pattern:
    """The break pattern of canonical edge lines for n vertices.

    A canonical line is "e", two distinct ASCII-digit tokens in 1..n
    without a leading zero, single spaces and "\n".  A break is a "\n"
    that neither ends the text nor starts a canonical line, so a piece
    is plain when "\n" + piece holds no break: the prepended "\n" puts
    the first line to the same check.  A search keeps the regex engine's
    memory constant, where a fullmatch of `(?:line)*` would stack state
    per line.  One pattern is compiled per parse.
    """
    x = _upto(n)
    line = f"e ({x}) (?!\\1\n)(?:{x})\n"  # the second token is not the first
    return re.compile(f"\n(?!{line}|\\Z)")


def _upto(n: int) -> str:
    """An alternation that matches exactly the decimal forms of 1..n, without a leading zero.

    For n = 2000 it is "2000|1[0-9]{3}|[1-9][0-9]{0,2}": n itself, then,
    for each digit of n above its floor, the tokens that share n's digits
    before it and are smaller there, then every shorter token.
    """
    if n < 1:
        return "(?!)"  # never matches
    s = str(n)
    alts = [s]
    for i, c in enumerate(s):
        low, top = "0" if i else "1", chr(ord(c) - 1)
        if top >= low:
            rest = len(s) - i - 1
            digit = low if top == low else f"[{low}-{top}]"
            alts.append(s[:i] + digit + (f"[0-9]{{{rest}}}" if rest else ""))
    if len(s) > 1:
        alts.append("[1-9]" + (f"[0-9]{{0,{len(s) - 2}}}" if len(s) > 2 else ""))
    return "|".join(alts)


# A keep read of at most _PICK_MAX kept vertices finds the lines with
# both ends kept by one search of `_kept_lines`; one of more kept
# vertices splits each piece.  The search tries each kept token on every
# line, so it slows as they grow.  Against the split, serial keep reads
# with random kept sets of k vertices broke even between k = 24 and 32
# on a 10.9 MB G(2000, 1/2), sorted or shuffled, and between 32 and 40 on
# a 0.59 MB G(10^4, 10/n) (measured in the README).
_PICK_MAX = 24


def _kept_lines(kept: dict) -> re.Pattern:
    """The pattern of a canonical line whose tokens are both in `kept`, from its preceding "\n".

    Its two groups are the tokens.  The space after the first and the
    "\n" after the second, which it does not consume, make each match a
    whole token, so a search finds every such line of "\n" + piece.
    """
    x = "|".join(sorted(kept))
    return re.compile(f"\ne ({x}) ({x})(?=\n)")


def _plain_edges(piece: str, canon: re.Pattern, tok: dict, kept: dict | None,
                 pick: re.Pattern | None, adj: list) -> bool:
    """Take a piece of canonical edge lines in bulk; else return False having stored no edge.

    `canon` is `_canonical(n)`.  One search of it checks what the line
    loop would on each line: both tokens are in 1..n and differ.  Any other
    piece is declined, and the line loop raises the exact error.  With
    None for `kept`, every edge is stored, and each token is stored in
    `tok` at its first use, where its vertex gets an array if it has none.
    With `kept`, the tokens of the kept vertices, each mapped to its
    vertex, only the edges with both ends kept are stored, in the order
    of their lines.  With `pick`, `_kept_lines(kept)`, one search of it
    finds them, and no line is split.  Without it, the piece is split,
    and one with no kept token among its first ends or among its second
    ends is done once split.  Never raises.
    """
    text = "\n" + piece
    if canon.search(text):
        return False
    if pick is not None:
        if not kept:
            return True
        pairs = pick.findall(text)
        tok = kept  # it maps every token of these pairs
    else:
        parts = piece.split()
        a, b = parts[1::3], parts[2::3]
        pairs = zip(a, b)
        if kept is not None:
            # a piece with no kept token at one end stores nothing; edge lines
            # usually come grouped by one end, so most pieces are such
            if kept.keys().isdisjoint(b) or kept.keys().isdisjoint(a):
                return True
            # else the few lines whose first end is kept, then both ends
            pairs = [(x, y) for x, y in compress(pairs, map(kept.__contains__, a)) if y in kept]
            tok = kept
    get = tok.get
    for x, y in pairs:
        if (u := get(x)) is None:
            u = tok[x] = int(x) - 1
            if adj[u] is None:
                adj[u] = array("I")
        if (v := get(y)) is None:
            v = tok[y] = int(y) - 1
            if adj[v] is None:
                adj[v] = array("I")
        adj[u].append(v)
        adj[v].append(u)
    return True


def _other_line(parts: list[str], raw: str, ln: int, started: bool) -> int | None:
    """The vertex count of a header line, None for a blank or comment line; else raise.

    `started` says a header was already read.
    """
    if not parts:
        return None
    tag = parts[0]
    if tag == "e":
        raise GraphParseError(ln, f"expected 'e <u> <v>', got {quoted(raw.strip())}" if started
                              else "edge before problem line")
    if tag.startswith("c"):
        return None
    if tag != "p":
        raise GraphParseError(ln, f"unrecognized line {quoted(raw.strip())}")
    if started:
        raise GraphParseError(ln, "duplicate problem line")
    if len(parts) != 4 or parts[1] != "edge":
        raise GraphParseError(ln, f"expected 'p edge <n> <m>', got {quoted(raw.strip())}")
    try:
        n = int(parts[2])
        int(parts[3])  # the edge count must be an int too
    except ValueError:
        raise GraphParseError(ln, f"bad problem line {quoted(raw.strip())}") from None
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
    straight from the neighbor arrays.
    """
    yield f"p edge {g.n} {g.m}\n"
    for u, a in enumerate(g._nbrs, 1):  # 1-based u: the later neighbors are those >= u
        yield "".join([f"e {u} {v + 1}\n" for v in a[bisect_left(a, u):]])
