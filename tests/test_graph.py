import contextlib
import hashlib
import io
import os
import random
import re
import signal
import sys
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from meyniel import graph
from meyniel.gen import GenSpec, generate
from meyniel.graph import (
    GraphInputError,
    GraphParseError,
    build,
    parse,
    parse_stream,
    read_graph,
    to_dimacs,
)

from conftest import counted_forks, edge_list, graphs, reference_parse, split_reads


def assert_whole_graph(g) -> None:
    """g keeps the `Graph` constructor's contract, and its DIMACS text parses back to it.

    Every list is an `array("I")`, ascending, loop-free and in range,
    every edge is stored at both ends, and m is half the stored entries.
    """
    nbrs = tuple(map(g.neighbors, range(g.n)))
    for v, a in enumerate(nbrs):
        assert type(a) is array and a.typecode == "I", v
        assert list(a) == sorted(set(a)) and v not in a, v
        assert all(0 <= w < g.n and v in nbrs[w] for w in a), v
    assert 2 * g.m == sum(map(len, nbrs))
    assert parse(to_dimacs(g)) == g


def test_build_basic():
    g = build(4, [(0, 1), (1, 2), (1, 2)])
    assert_whole_graph(g)
    assert g.n == 4
    assert g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert tuple(g.neighbors(1)) == (0, 2)
    assert len(g.neighbors(3)) == 0
    assert edge_list(g) == [(0, 1), (1, 2)]


def test_negative_vertex_raises_index_error():
    g = build(3, [(0, 2)])
    for v in (-1, -3, 3):
        with pytest.raises(IndexError):
            g.has_edge(v, 0)
        with pytest.raises(IndexError):
            g.neighbors(v)


def test_build_rejects_bad_input():
    with pytest.raises(GraphInputError):
        build(-1, [])
    with pytest.raises(GraphInputError):
        build(3, [(0, 0)])
    with pytest.raises(GraphInputError):
        build(3, [(0, 3)])


def test_subgraph_relabels():
    g = build(5, [(0, 1), (1, 3), (3, 4), (0, 4)])
    sub, old = g.subgraph([4, 1, 3])
    assert old == (1, 3, 4)
    assert sub.n == 3
    assert edge_list(sub) == [(0, 1), (1, 2)]
    with pytest.raises(GraphInputError):
        g.subgraph([1, 1])
    for bad in ([-1, 0], [5]):
        with pytest.raises(GraphInputError):
            g.subgraph(bad)


@given(graphs(max_n=10), st.data())
def test_subgraph_matches_rebuild(g, data):
    verts = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), unique=True, max_size=g.n))
    sub, old = g.subgraph(verts)
    assert_whole_graph(sub)
    k = len(old)
    assert sub == build(k, [(i, j) for i in range(k) for j in range(i + 1, k) if g.has_edge(old[i], old[j])])


def test_parse_dimacs_roundtrip():
    g = build(4, [(0, 2), (1, 3)])
    assert parse(to_dimacs(g)) == g


def test_parse_dimacs_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as exc:
        parse("p edge 3 1\ne 1 5\n")
    assert exc.value.line == 2
    with pytest.raises(GraphParseError):
        parse("e 1 2\np edge 3 1\n")
    with pytest.raises(GraphParseError):
        parse("c no problem line\n")
    with pytest.raises(GraphParseError):
        parse("p edge 2 1\ne 1 1\n")


# Tests whose ids name the input format take it as a one-value "fmt"
# parameter: DIMACS is the only format the readers take
DIMACS = pytest.mark.parametrize("fmt", ["dimacs"])


@pytest.mark.parametrize("count", [sys.maxsize + 1, 99999999999999999999999])
@DIMACS
def test_vertex_count_no_list_can_hold_is_a_parse_error(fmt, count):
    text = f"\np edge {count} 1\ne 1 2\n"
    # the keep read first: without the check it fails at once, where a
    # full read allocates until the process is killed
    for read in (lambda: parse_stream(io.StringIO(text), keep={0}),
                 lambda: parse_stream(io.StringIO(text)),
                 lambda: parse(text)):
        with pytest.raises(GraphParseError) as exc:
            read()
        assert exc.value.line == 2
        assert str(exc.value) == f"line 2: vertex count {count} exceeds {sys.maxsize}"


def test_parse_edgelist():
    # the edge-list grammar is gone: its vertex-count line is no DIMACS line
    text = "3\n0 1\n\n1 2\n"
    for read in (lambda: parse(text), lambda: parse_stream(io.StringIO(text))):
        with pytest.raises(GraphParseError) as exc:
            read()
        assert (exc.value.line, str(exc.value)) == (1, "line 1: unrecognized line '3'")


@given(graphs(max_n=10))
def test_dimacs_roundtrip_property(g):
    assert parse(to_dimacs(g)) == g


def test_generate_deterministic():
    spec = GenSpec(family="gnp", n=30, p=0.4, seed=9)
    assert generate(spec) == generate(spec)
    other = GenSpec(family="gnp", n=30, p=0.4, seed=10)
    assert generate(other) != generate(spec)


def test_generate_families():
    cyc = generate(GenSpec(family="cycle", n=5))
    assert cyc.m == 5 and all(len(cyc.neighbors(v)) == 2 for v in range(5))
    comp = generate(GenSpec(family="complete", n=6))
    assert comp.m == 15
    assert generate(GenSpec(family="edgeless", n=7)).m == 0
    bip = generate(GenSpec(family="bipartite", n=9, p=0.5, seed=1))
    half = 9 // 2
    assert all(not bip.has_edge(u, v) for u in range(half) for v in range(u + 1, half))


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError):
        GenSpec(family="nosuch", n=3)
    with pytest.raises(ValueError):
        GenSpec(family="gnp", n=-1)
    with pytest.raises(ValueError):
        GenSpec(family="gnp", n=3, p=1.5)
    with pytest.raises(ValueError):
        generate(GenSpec(family="cycle", n=2))


# sha256 of to_dimacs(generate(spec)), taken when gnp and bipartite still
# drew the whole n x n matrix at once; row-by-row draws must not change them
GENERATED_SHA256 = [
    (GenSpec("gnp", n=0, p=0.5, seed=0), "b18efc2666c663cba2fb1c2b37a5a0c8c18a8489374194e7415afccd6fe2d355"),
    (GenSpec("gnp", n=1, p=0.5, seed=3), "8d8fcdfafbd591f3b2b1a1ad6b6570c756c07b7a276fc8b08032bdc8152048e0"),
    (GenSpec("gnp", n=30, p=0.4, seed=9), "7fa35ec0ee2e83915ee752c242ed8ad6f3f161877d3d9fb08c3f9eb207b38f03"),
    (GenSpec("gnp", n=200, p=0.1, seed=7), "bba3e542312b5663e7bbccf799dbdb44f3eba3828efa178a99156dd353d7ca89"),
    (GenSpec("gnp", n=57, p=0.9, seed=123), "7fc4f183a94f192a81fe02f4c44c58402c96cd76ae212fa27d355ee1138a95c8"),
    (GenSpec("bipartite", n=1, p=0.5, seed=1), "8d8fcdfafbd591f3b2b1a1ad6b6570c756c07b7a276fc8b08032bdc8152048e0"),
    (GenSpec("bipartite", n=9, p=0.5, seed=1), "64ed6620a4079cef6b5d3026caa404bf2f55fa25fb0daae982df49341c275865"),
    (GenSpec("bipartite", n=101, p=0.3, seed=42), "a3491d08ec77302a747a318a9583cf3369bd0fcc6f768536ab24a462ec2297f3"),
    (GenSpec("bipartite", n=60, p=0.7, seed=5), "0e45b39361d8fcbcaae37faded9767bb4647419a98b96e8ac59a5aa1c9dd1150"),
    # every other family, taken before the generators moved to meyniel.gen
    (GenSpec("chordal", n=40, p=0.9, seed=2), "a5311a8bcf4e485ee36380652fe03c498b83971b78e0589eb06188855a0b0dbb"),
    (GenSpec("chordal", n=120, p=0.3, seed=11), "d0d0faf6c0bfc0e7183258b9e89b3f2e4ad1f8170ce2836bac4158153ab700da"),
    (GenSpec("cycle", n=7), "c54f81957d34f47c49e9ad9a31703f38338723700e754bae0fefb63cb99196b5"),
    (GenSpec("complete", n=6), "b773e905c718366fff42d165620f18f3ceee229bbade2420bd942d91f4b44b58"),
    (GenSpec("edgeless", n=4), "5526a0e741337b1f4f87989736f5e93207c42114efa8b7f9cad5d50e7ddff28b"),
]


def test_generated_graphs_are_pinned():
    for spec, digest in GENERATED_SHA256:
        g = generate(spec)
        assert_whole_graph(g)
        assert hashlib.sha256(to_dimacs(g).encode()).hexdigest() == digest, spec


SLICES = (1, 2, 7, 64, graph._SLICE)
FAULTS = ("none", "arity", "bad int", "range", "loop", "junk", "header", "twice", "missing", "late", "empty")


def graph_text(rng: random.Random, n: int, fault: str, newline: str, plain: bool = False) -> str:
    """A DIMACS text: well formed, then with `fault` injected.

    Well-formed texts carry comments, blank lines, duplicate and
    reversed edges, `+3` and `03` ints, and random spacing with tabs.  A
    `plain` text has only canonical edge lines after the header (single
    spaces, no padding, no `+3` or `03`, "\n" ends), so every piece the
    fault does not touch is taken in bulk, and a canonical fault such as
    an out-of-range token or a self-loop is met by the bulk checks.
    """
    tag = ["e"]
    if plain:
        newline = "\n"

    def num(k):
        return str(k) if plain else rng.choice([str(k)] * 3 + [f"+{k}", f"0{k}"])

    header = ["p", "edge", str(n), num(rng.randint(0, 9))]
    lines = [header]
    for _ in range(rng.randint(0, 60)):
        kind = "edge" if plain else rng.choice(["edge"] * 6 + ["blank", "comment"])
        if kind == "edge" and n >= 2:
            u, v = rng.sample(range(1, n + 1), 2)
            lines.append(tag + [num(u), num(v)])
        elif kind == "comment":
            lines.append(rng.choice([["c"], ["c", "e", "1", "1"], ["comment"], ["cx", "1"]]))
        elif not plain:
            lines.append([])
    at = rng.randint(1, len(lines))
    if fault == "arity":
        lines.insert(at, rng.choice([tag, tag + ["1"], tag + ["1", "2", "3"]]))
    elif fault == "bad int":
        lines.insert(at, tag + rng.sample(["1", rng.choice(["x", "1.5", "--1", "0x1"])], 2))
    elif fault == "range":
        k = rng.choice([0, n + 1, n + 2])
        lines.insert(at, tag + rng.sample([str(k), rng.choice(["1", str(k)])], 2))
    elif fault == "loop":
        lines.insert(at, tag + ["1"] * 2)
    elif fault == "junk":
        lines.insert(at, rng.choice([["x", "1", "2"], ["E", "1", "2"], ["p"]]))
    elif fault == "header":
        lines[0] = rng.choice([["p", "edge", "x", "0"], ["p", "edge", "3", "y"], ["p", "col", str(n), "0"],
                               ["p", "edge", str(n)], ["p", "edge", "-2", "0"]])
    elif fault == "twice":
        lines.insert(at, header)
    elif fault == "missing":
        lines.pop(0)
    elif fault == "late":
        lines.insert(at, lines.pop(0))
    elif fault == "empty":
        lines = [t for t in lines[1:] if not t or t[0].startswith("c")]
    space = [""] if plain else ["", "", " ", "\t", "  ", " \t "]
    sep = " " if plain else rng.choice([" ", "\t", "  "])
    return "".join(rng.choice(space) + sep.join(t) + rng.choice(space) + newline for t in lines)


def parse_outcome(parser, source):
    """The graph `parser` returns, or the type, line and message of its GraphInputError."""
    try:
        return parser(source)
    except GraphInputError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def view(got) -> tuple:
    """n, m and a tuple of every vertex's neighbors, the graph checked whole; an error as it is."""
    if isinstance(got, graph.Graph):
        assert_whole_graph(got)
        return got.n, got.m, tuple(tuple(got.neighbors(v)) for v in range(got.n))
    return got


def keep_read(text: str, keep):
    """`parse_stream` with `keep`: the graph, or its error as `parse_outcome` gives it."""
    return parse_outcome(lambda src: parse_stream(src, keep=keep), io.StringIO(text))


def kept_view(full, keep) -> tuple:
    """What `view` of a keep parse must give when the full parse gave `full`.

    That is the subgraph induced by `keep`, padded to n vertices, or the
    same error.
    """
    if not isinstance(full, graph.Graph):
        return full
    nbrs = tuple(tuple(w for w in full.neighbors(v) if w in keep) if v in keep else ()
                 for v in range(full.n))
    return full.n, sum(map(len, nbrs)) // 2, nbrs


def _check_against_reference(text: str, keeps=(), slices=SLICES) -> None:
    # at every slice size, parse_stream reads the same text block by block
    # and gives the same graph or the same error; with a keep set it gives
    # the same error, or the full parse's subgraph induced by the kept
    # vertices.  Every graph built keeps the `Graph` contract
    full = parse_outcome(parse, text)
    want = view(full)
    saved = graph._SLICE
    try:
        for size in slices:
            graph._SLICE = size
            assert view(parse_outcome(parse, text)) == want, size
            assert view(parse_outcome(parse_stream, io.StringIO(text))) == want, size
            for keep in keeps:
                assert view(keep_read(text, keep)) == kept_view(full, keep), (size, keep)
    finally:
        graph._SLICE = saved
    try:
        want = reference_parse(text)
    except GraphInputError as exc:
        with pytest.raises(GraphInputError) as got:
            parse(text)
        assert type(got.value) is type(exc)
        assert (got.value.line, str(got.value)) == (exc.line, str(exc))
        return
    g = parse(text)
    assert (g.n, edge_list(g)) == want
    for u in range(g.n):
        nbrs = set(g.neighbors(u))
        assert all(g.has_edge(u, v) == (v in nbrs) for v in range(g.n))


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(0, 50),
    st.sampled_from(("none",) * 3 + FAULTS),
    st.sampled_from(["\n", "\r\n", "\r", "\v", "\x1c", " "]),
    st.booleans(),
    st.lists(st.sets(st.integers(0, 55), max_size=8), min_size=1, max_size=3),
    st.randoms(use_true_random=True),
)
def test_parse_matches_reference(n, fault, newline, plain, keeps, rng):
    text = graph_text(rng, n, fault, newline, plain)
    _check_against_reference(text, [set()] + keeps)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@DIMACS
def test_read_graph_matches_parse_of_whole_file(tmp_path, fmt, newline):
    """A file streamed by the CLI's reader, split in two or not, parses as its whole decoded text does."""
    for split in (False, True):
        rng = random.Random(fmt + newline)
        path = tmp_path / "g.txt"
        saved = graph._SLICE
        try:
            for k in range(100):
                fault = FAULTS[k % len(FAULTS)] if k % 2 else "none"
                path.write_bytes(graph_text(rng, rng.randint(0, 50), fault, newline).encode())
                graph._SLICE = SLICES[k % len(SLICES)]
                with open(path, encoding="utf-8") as fh:
                    want = parse_outcome(parse, fh.read())
                with split_reads(split):
                    assert parse_outcome(read_graph, str(path)) == want, split
        finally:
            graph._SLICE = saved


def test_read_graph_never_holds_the_file(tmp_path):
    """Reading a file costs the graph plus well under the file's size."""
    path = tmp_path / "dense.col"
    path.write_text(to_dimacs(generate(GenSpec("gnp", n=1000, p=0.5, seed=1))))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        g = read_graph(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 1000 and size > 2_000_000
    assert peak - kept < size / 2, (peak - kept, size)


def test_read_graph_with_keep_holds_a_fraction_of_the_graph(tmp_path):
    """Keeping 5 vertices of G(1000, 1/2) peaks under a quarter of what the full graph holds."""
    path = tmp_path / "dense.col"
    path.write_text(to_dimacs(generate(GenSpec("gnp", n=1000, p=0.5, seed=1))))
    tracemalloc.start()
    try:
        g = read_graph(str(path))
        full, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    keep = {0, 1, 2, 500, 999}
    tracemalloc.start()
    try:
        h = read_graph(str(path), keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m > 200_000
    assert view(h) == kept_view(g, keep)
    assert peak < full / 4, (peak, full)


def read_outcome(path, keep=None, split: bool = True) -> tuple:
    """`read_graph` with the split forced on or off: `view` of the graph, or the error's type and message.

    Only the GraphInputError family is caught; anything else fails the test.
    """
    with split_reads(split):
        try:
            g = read_graph(str(path), keep)
        except GraphInputError as exc:
            return type(exc), str(exc)
    return view(g)


@contextlib.contextmanager
def counted_serial_reads():
    """Record each serial `parse_stream` read that `read_graph` makes in this block."""
    reads: list[int] = []
    saved = graph.parse_stream

    def counted(*args):
        reads.append(1)
        return saved(*args)

    graph.parse_stream = counted
    try:
        yield reads
    finally:
        graph.parse_stream = saved


# Lines for the fuzzed files: DIMACS tokens, the newlines that
# `splitlines` knows, and two non-ASCII characters
FUZZ_TOKENS = ["e", "p", "edge", "c", "0", "1", "2", "5", "6", "7", "-1", "+2", "01", "99",
               " ", "\t", "\n", "\n", "\n", "\r", "\r\n", "\v", "é", "\x85"]
FUZZ_HEADS = ["p edge 6 4\n", "p edge 6 4\r\n", "c x\np edge 6 4\n", "p edge 6\n", ""]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_split_read_matches_serial_read(tmp_path_factory, data):
    """Every file, text or not, read with the split forced on, gives what the serial read gives."""
    head = data.draw(st.sampled_from(FUZZ_HEADS) | st.text(max_size=12), "head")
    body = data.draw(st.one_of(
        st.lists(st.sampled_from(FUZZ_TOKENS), max_size=80).map("".join).map(str.encode),
        st.text(max_size=60).map(str.encode),
        st.binary(max_size=60),
        # canonical edge lines, so that a keep set meets kept-kept edges
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda e: e[0] != e[1]),
                 max_size=12).map(lambda es: "".join(f"e {u} {v}\n" for u, v in es).encode()),
    ), "body")
    keep = data.draw(st.none() | st.sets(st.integers(-1, 8), max_size=4), "keep")
    size = data.draw(st.sampled_from(SLICES), "slice")
    path = tmp_path_factory.mktemp("split") / "g.txt"
    path.write_bytes(head.encode() + body)
    saved = graph._SLICE
    graph._SLICE = size
    try:
        want = read_outcome(path, keep, split=False)
        with counted_forks() as forks, counted_serial_reads() as serial:
            assert read_outcome(path, keep) == want
        if keep is not None and isinstance(want[0], int):  # the full graph's induced subgraph
            assert want == kept_view(parse(path.read_text(encoding="utf-8")), keep)
    finally:
        graph._SLICE = saved
    # a valid file that was split needs no serial read
    assert len(serial) == (not forks or not isinstance(want[0], int))


def edge_lines(first: int, count: int) -> bytes:
    """DIMACS edge lines `first`..`first + count - 1` of 60 distinct edges on vertices 1..40."""
    return b"".join(b"e %d %d\n" % (1 + k % 20, 21 + (k + k // 20 * 3) % 20)
                    for k in range(first, first + count))


HEAD = b"p edge 40 60\n"
HALF = edge_lines(0, 30)
WHOLE = HEAD + HALF + edge_lines(30, 30)  # the cut falls inside the second 30 lines
SPLIT_CASES = {
    # name: (file bytes, keep, is the read split?); a fault in the
    # first half comes right after the header, one in the second at the end
    "plain": (WHOLE, None, True),
    "plain kept": (WHOLE, {0, 5, 27, 39}, True),
    "kept out of range": (WHOLE, {-1, 3, 40, 99}, True),
    "comment before the header": (b"c first\n" + WHOLE, None, False),
    "more vertices than bytes": (b"p edge 5000 60\n" + WHOLE[len(HEAD):], None, False),
    "duplicate header in the second half": (WHOLE + HEAD, None, True),
    "bad UTF-8 in the first half": (HEAD + b"e 1 2\xff\n" + HALF + HALF, None, True),
    "bad UTF-8 in the second half": (WHOLE + b"e 1 2\xc3\n", None, True),
    "bad UTF-8 in both halves": (HEAD + b"e \xe2\x82\n" + HALF + HALF + b"c \xff\n", None, True),
    # a comment would parse in either half: only the decoding can refuse it
    "bad UTF-8 in a comment in the first half": (HEAD + b"c caf\xe9\n" + HALF + HALF, None, True),
    "bad UTF-8 in a comment in the second half": (WHOLE + b"c caf\xe9\n", {3}, True),
    "errors in both halves": (HEAD + b"e 1 41\n" + HALF + HALF + b"e 3 3\n", None, True),
    "error in the second half": (WHOLE + b"e 3 3\n", {2}, True),
    "no newline past the middle": (HEAD + b"e 1 2\n" + b"c" * 2000, None, False),
    # the cut falls after HALF's last line, so the child's half is one line without "\n"
    "second half with no newline": (HEAD + HALF + b"e 1 40".ljust(len(HEAD + HALF) - 4), None, True),
    "newlines all CR": (WHOLE.replace(b"\n", b"\r"), None, False),
    "newlines CR LF": (WHOLE.replace(b"\n", b"\r\n"), None, True),
    # both halves get the edges before the first "\n", and `_freeze` collapses them
    "CR before the first LF": (HEAD.replace(b"\n", b"\re 1 40\r") + HALF + HALF + b"e 2 40\n", None, True),
    # the cut falls in the second HALF, so both halves store its later
    # edges, and the parent's last neighbor of a vertex is not below the child's first
    "edges in both halves": (HEAD + HALF + HALF, None, True),
    "edges in both halves kept": (HEAD + HALF + HALF, {0, 3, 20, 23, 26}, True),
    # an edge list's line 1 is no header: the serial read reports it
    "edge list": (b"41\n" + WHOLE[len(HEAD):].replace(b"e ", b""), None, False),
    "edge list kept": (b"41\n" + WHOLE[len(HEAD):].replace(b"e ", b""), {0, 40, 41}, False),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_read_cases(tmp_path, case):
    """The split is taken exactly when it may be, with one child, and gives the serial outcome.

    A split read of a valid file needs no serial read; an invalid one is
    read again serially, which reports the error.
    """
    data, keep, split = SPLIT_CASES[case]
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    want = read_outcome(path, keep, split=False)
    with counted_forks() as forks, counted_serial_reads() as serial:
        assert read_outcome(path, keep) == want
    assert len(forks) == split
    assert len(serial) == (not split or not isinstance(want[0], int))
    known = {  # m of a graph, or the message of an error: the first in file order
        "plain": 60, "newlines CR LF": 60, "second half with no newline": 31,
        "CR before the first LF": 32, "edges in both halves": 30, "edges in both halves kept": 4,
        "errors in both halves": "line 2: endpoint out of range in 'e 1 41'",
        "edge list": "line 1: unrecognized line '41'", "edge list kept": "line 1: unrecognized line '41'",
    }
    if case in known:
        assert want[1] == known[case]


def child_fault(monkeypatch, fault):
    """Make the forked child fail as `fault` says, partway through its half."""
    parent, parse_lists = os.getpid(), graph._parse

    def pieces_then_fault(pieces):
        yield next(pieces)
        if fault == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(0 if fault == "exits 0" else 1)

    def faulty(pieces, keep=None):
        if os.getpid() != parent:
            pieces = pieces_then_fault(iter(pieces))
        return parse_lists(pieces, keep)

    monkeypatch.setattr(graph, "_parse", faulty)


# The bytes a child sends, cut as each fault says, and then it exits 0
SHORT_SENDS = {
    "sends nothing": lambda data, n: b"",
    "sends fewer than n lengths": lambda data, n: data[:4 * (n - 1)],
    "sends fewer than n ascents": lambda data, n: data[:5 * n - 1],
    "sends a list shorter than its length": lambda data, n: data[:-4],
}


@pytest.mark.parametrize("fault", ["killed", "exits 0", "exits 1", *SHORT_SENDS, "fails after sending"])
def test_split_read_falls_back_when_the_child_fails(tmp_path, monkeypatch, fault):
    """A child that dies, ends its lists short or exits nonzero is reaped and the serial read runs."""
    data, keep, _ = SPLIT_CASES["plain"]
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    want = read_outcome(path, keep, split=False)
    send = graph._send

    def send_short(out, adj):
        sent = io.BytesIO()
        send(sent, adj)
        out.write(SHORT_SENDS[fault](sent.getvalue(), len(adj)))

    def send_then_fail(out, adj):
        send(out, adj)
        raise RuntimeError("after the last list")

    if fault in SHORT_SENDS:
        monkeypatch.setattr(graph, "_send", send_short)
    elif fault == "fails after sending":
        monkeypatch.setattr(graph, "_send", send_then_fail)
    else:
        child_fault(monkeypatch, fault)
    with counted_forks() as forks, counted_serial_reads() as serial:
        assert read_outcome(path, keep) == want
    assert len(forks) == 1 and serial == [1]


def test_split_read_kills_the_child_on_keyboard_interrupt(tmp_path, monkeypatch):
    """An interrupt in the parent's half kills and reaps the child, then propagates."""
    data, keep, _ = SPLIT_CASES["plain"]
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    parent = os.getpid()

    def interrupted(pieces, keep=None):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(graph, "_parse", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        read_outcome(path, keep)
    assert time.perf_counter() - t0 < 30


# Faults that fit a plain line's width: `plain_pieces_text` puts one on
# the last line of a plain piece, or ends the text without its "\n"
BULK_FAULTS = {
    "range": "123 999", "loop": "123 123", "zero": "123 045", "plus": "123 +45",
    "digit": "123 4٣5", "tab": "123\t456", "space": "12 456 ", "comment": None,
    "newline": None,
}


def plain_pieces_text(fault: str, spy: list) -> tuple[str, int, int]:
    """A text of 400 canonical edge lines, n = 998, with `fault` injected.

    Returns the text, the fault's line number, and the index among the
    `_plain_edges` calls of the piece that holds it (-1: the last one).
    Every edge line has the same width, so the fault leaves the pieces
    where the clean text has them; `spy` holds (piece, taken) of each
    call, and the clean text's calls are cleared.
    """
    rng = random.Random("dimacs" + fault)
    lines = ["p edge 998 400"]
    lines += [f"e {u} {v}" for u, v in (rng.sample(range(100, 998), 2) for _ in range(400))]
    parse_stream(io.StringIO("\n".join(lines) + "\n"))
    taken = [k for k, (_, ok) in enumerate(spy) if ok]
    assert len(taken) > 10
    counts = [piece.count("\n") for piece, _ in spy]
    first = len(lines) - sum(counts)  # lines of the header's piece, which the line loop takes
    k = taken[2]
    at = first + sum(counts[:k + 1])  # the last line of a plain piece
    spy.clear()
    if fault == "newline":
        return "\n".join(lines), len(lines), -1
    if fault == "comment":
        lines[at - 1] = "c 1234567"
    else:
        lines[at - 1] = "e " + BULK_FAULTS[fault]
    return "\n".join(lines) + "\n", at, k


def reference_outcome(text: str, keep) -> tuple:
    """What `view` of `keep_read` must give, by the reference parser, which has no bulk route."""
    try:
        n, edges = reference_parse(text)
    except GraphInputError as exc:
        return type(exc), exc.line, str(exc)
    return kept_view(build(n, edges), range(n) if keep is None else keep)


def check_plain_pieces_in_bulk(monkeypatch, fault: str, keep) -> None:
    """Plain pieces are taken in bulk; the faulty one falls back to the line loop."""
    spy = []
    bulk = graph._plain_edges

    def spied(piece, *args):
        spy.append((piece, bulk(piece, *args)))
        return spy[-1][1]

    monkeypatch.setattr(graph, "_plain_edges", spied)
    monkeypatch.setattr(graph, "_SLICE", 100)  # blocks of 100 characters
    text, at, k = plain_pieces_text(fault, spy)
    want = reference_outcome(text, keep)
    got = keep_read(text, keep)
    taken = [ok for _, ok in spy]  # before `view` parses the graph's text again
    assert view(got) == want
    k %= len(taken)
    assert any(taken[:k]) and not taken[k]
    if fault in ("range", "loop"):
        assert want[:2] == (GraphParseError, at)
    else:
        assert isinstance(want[0], int)
        assert fault == "newline" or any(taken[k + 1:])


@pytest.mark.parametrize("fault", BULK_FAULTS)
@DIMACS
def test_keep_parse_takes_plain_pieces_in_bulk(monkeypatch, fmt, fault):
    keep = {v - 1 for v in (12, 45, 123, 456, 997)} | {5, 700}
    check_plain_pieces_in_bulk(monkeypatch, fault, keep)


@pytest.mark.parametrize("fault", BULK_FAULTS)
@DIMACS
def test_full_parse_takes_plain_pieces_in_bulk(monkeypatch, fmt, fault):
    check_plain_pieces_in_bulk(monkeypatch, fault, None)


def in_range(n: int, tokens: list[str]) -> list[str]:
    """The tokens that the canonical line's endpoint alternation for n matches whole."""
    return re.findall(f"^(?:{graph._upto(n)})$", "\n".join(tokens), re.M)


def test_endpoint_alternation_matches_exactly_one_to_n():
    for n in range(3001):
        tokens = [str(t) for t in range(n + 31)] + [str(10 * n)]
        assert in_range(n, tokens) == [t for t in tokens if 1 <= int(t) <= n], n
    rng = random.Random("range")
    for _ in range(200):
        n = rng.randint(1, sys.maxsize)
        near = [n + d for k in range(len(str(n))) for d in (-10 ** k, 10 ** k)]
        tokens = [str(t) for t in [0, 1, n - 1, n, n + 1, 10 * n, rng.randint(1, 10 * n), *near] if t >= 0]
        assert in_range(n, tokens) == [t for t in tokens if 1 <= int(t) <= n], n
    for n in (1, 9, 10, 998, 2000, sys.maxsize):
        assert in_range(n, ["0", "00", "01", "007", f"0{n}", "+1", "-1", "٣", "1٣", " 1", ""]) == []


# A line that fits a plain line's width, put on line `offset` of a plain
# piece (0: its first line, which the piece's `match` checks; any later
# line is met by its `search`), and whether the bulk route takes it
BULK_BOUNDARIES = {
    "loop first": ("123 123", 0, False),
    "loop later": ("456 456", 3, False),
    "n first": ("998 123", 0, True),
    "n later": ("123 998", 3, True),
    "n + 1": ("123 999", 3, False),
    "longer than n": ("1000 12", 3, False),
}


@pytest.mark.parametrize("case", BULK_BOUNDARIES)
@pytest.mark.parametrize("keep", [None, {0, 122, 455, 997}])
def test_bulk_boundaries_match_reference(monkeypatch, case, keep):
    body, offset, taken = BULK_BOUNDARIES[case]
    spy = []
    bulk = graph._plain_edges

    def spied(piece, *args):
        spy.append(bulk(piece, *args))
        return spy[-1]

    monkeypatch.setattr(graph, "_plain_edges", spied)
    monkeypatch.setattr(graph, "_SLICE", 100)
    rng = random.Random("boundary")
    lines = ["p edge 998 400"] + [f"e {u} {v}" for u, v in (rng.sample(range(100, 998), 2) for _ in range(400))]
    text = "\n".join(lines) + "\n"
    pieces = list(graph._cut(text[i:i + 100] for i in range(0, len(text), 100)))
    k = 5  # `body` goes to pieces[k + 1], whose call is spy[k]: the header's piece is never offered
    assert pieces[0] == lines[0] + "\n" and offset < pieces[k + 1].count("\n") - 1
    at = sum(p.count("\n") for p in pieces[:k + 1]) + offset + 1
    lines[at - 1] = "e " + body
    text = "\n".join(lines) + "\n"
    want = reference_outcome(text, keep)
    assert view(keep_read(text, keep)) == want
    assert spy[k] is taken and all(spy[:k]) and all(spy[k + 1:])
    if taken:
        assert isinstance(want[0], int)
    else:
        assert want[:2] == (GraphParseError, at)


def test_canonical_text_after_the_header_is_stored_in_bulk(monkeypatch):
    """Every line after line 1 of `to_dimacs` text is stored by `_plain_edges`, in small graphs too.

    The small graphs are those of the bench's small-batch stream, G(n, p)
    with n in 8..60, whose text is one block; the last one spans blocks.
    """
    stored = []
    bulk = graph._plain_edges

    def spied(piece, *args):
        taken = bulk(piece, *args)
        stored.append(piece.count("\n") if taken else 0)
        return taken

    monkeypatch.setattr(graph, "_plain_edges", spied)
    rng = random.Random("small-batch")
    specs = [GenSpec("gnp", n=rng.randint(8, 60), p=rng.choice((0.2, 0.5, 0.8)), seed=k) for k in range(30)]
    specs.append(GenSpec("gnp", n=150, p=0.5, seed=1))
    for spec in specs:
        text = to_dimacs(generate(spec))
        for read in (parse, lambda t: parse_stream(io.StringIO(t)), lambda t: parse_stream(io.StringIO(t), {0, 3})):
            stored.clear()
            read(text)
            assert sum(stored) == text.count("\n") - 1, spec
    assert len(text) > graph._SLICE


def test_one_parse_compiles_one_pattern(monkeypatch):
    """The bulk route's checks are one pattern, so `re`'s cache of 512 serves 512 vertex counts."""
    text = to_dimacs(generate(GenSpec("gnp", n=40, p=0.5, seed=1)))
    compiled = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *args: compiled.append(args) or compile_(*args))
    parse(text)
    assert len(compiled) == 1


def kept_tokens_text(layout: str) -> tuple[str, list[int]]:
    """The text of G(600, 0.3) with its lines laid out as `layout` says, and vertices to keep.

    The vertices start with those of tokens 5, 57 and 571, each a
    decimal prefix of the next, then the rest in random order.
    """
    g = generate(GenSpec("gnp", n=600, p=0.3, seed=5))
    edges = [(u + 1, v + 1) for u, v in edge_list(g)]  # u < v, sorted: grouped by the first end
    rng = random.Random(layout)
    if layout == "second end":  # as the bench writes them
        edges.sort(key=lambda e: (e[1], e[0]))
    elif layout == "shuffled":
        rng.shuffle(edges)
    text = f"p edge 600 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    rest = [v for v in range(600) if v not in (4, 56, 570)]
    return text, [4, 56, 570] + rng.sample(rest, graph._PICK_MAX)


@pytest.mark.parametrize("layout", ["first end", "second end", "shuffled"])
def test_keep_reads_on_both_routes_give_the_induced_subgraph(tmp_path, layout):
    """Kept sets just below, at and just above `_PICK_MAX`, read serial and split."""
    text, order = kept_tokens_text(layout)
    path = tmp_path / "g.txt"
    path.write_text(text)
    full = parse(text)
    for size in (graph._PICK_MAX - 1, graph._PICK_MAX, graph._PICK_MAX + 1):
        keep = set(order[:size])
        want = kept_view(full, keep)
        assert want[1] > size  # kept pairs to store
        for split in (False, True):
            with counted_forks() as forks:
                assert read_outcome(path, keep, split) == want, (size, split)
            assert len(forks) == split
    assert len(graph._EMPTY) == 0


class Unsplit(str):
    """A piece that must not be split."""

    def split(self, *args):
        raise AssertionError("split a plain piece")


@pytest.mark.parametrize("layout", ["first end", "shuffled"])
def test_keep_read_splits_no_plain_piece_up_to_the_cap(monkeypatch, layout):
    """Up to `_PICK_MAX` kept vertices one search finds the kept lines; above it each piece is split."""
    text, order = kept_tokens_text(layout)
    sizes = (0, 1, graph._PICK_MAX)
    cut = graph._cut
    with monkeypatch.context() as patch:
        patch.setattr(graph, "_cut", lambda blocks: map(Unsplit, cut(blocks)))
        got = [keep_read(text, set(order[:size])) for size in sizes]
        with pytest.raises(AssertionError, match="split a plain piece"):
            keep_read(text, set(order[:graph._PICK_MAX + 1]))
    full = parse(text)
    for size, g in zip(sizes, got):
        assert view(g) == kept_view(full, set(order[:size])), size


def test_one_keep_read_compiles_two_patterns_up_to_the_cap(monkeypatch):
    """The check and, up to `_PICK_MAX` kept vertices, the kept lines' pattern; one above it."""
    text, order = kept_tokens_text("first end")
    compiled = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *args: compiled.append(args) or compile_(*args))
    for size, count in ((1, 2), (graph._PICK_MAX, 2), (graph._PICK_MAX + 1, 1)):
        compiled.clear()
        parse_stream(io.StringIO(text), set(order[:size]))
        assert len(compiled) == count, size


def test_parse_stream_joins_one_long_line_in_linear_time():
    # 125,000 blocks without a "\n", from a file and from a str.  On a
    # 2-core Xeon each read takes about 0.1 s; a reader that re-joined its
    # held tail on every block took 14 s
    saved = graph._SLICE
    graph._SLICE = 16
    try:
        t0 = time.perf_counter()
        with pytest.raises(GraphParseError) as exc:
            parse_stream(io.StringIO("x" * 2_000_000))
        with pytest.raises(GraphParseError) as text_exc:
            parse("x" * 2_000_000)
        assert time.perf_counter() - t0 < 5.0
    finally:
        graph._SLICE = saved
    assert exc.value.line == text_exc.value.line == 1


@DIMACS
@pytest.mark.parametrize("fault", ["none", "bad int", "range", "loop", "arity", "twice"])
def test_parse_across_many_slices_matches_reference(fmt, fault):
    # about 30,000 edge lines span several default slices; the fault sits
    # near the end, so its line number counts lines over every cut
    rng = random.Random(fmt + fault)
    n = 500
    lines = ["p edge 500 30000"]
    for _ in range(30000):
        u, v = rng.sample(range(1, n + 1), 2)
        lines.append(f"e {u} {v}" + rng.choice(["", " ", "\t"]))
        if rng.random() < 0.02:
            lines.append(rng.choice(["", "  ", "c note"]))
    bad = {
        "none": None,
        "bad int": "e 1 x2",
        "range": f"e 1 {n + 1}",
        "loop": "e 7 7",
        "arity": "e 1 2 3",
        "twice": lines[0],
    }[fault]
    if bad is not None:
        lines.insert(len(lines) - 25, bad)
    text = "\n".join(lines) + "\n"
    assert len(text) > 2 * graph._SLICE
    _check_against_reference(text, [set(), {0, 6, 7, n - 1}], slices=(64, graph._SLICE))


@DIMACS
def test_full_and_keep_reads_store_4_byte_arrays(fmt):
    src = generate(GenSpec("gnp", n=1000, p=0.1, seed=3))
    text = to_dimacs(src)
    g = parse(text)
    assert g == src
    assert_whole_graph(g)
    keep = set(range(0, 1000, 3))
    kept = parse_stream(io.StringIO(text), keep=keep)
    assert_whole_graph(kept)
    assert kept.m == src.subgraph(sorted(keep))[0].m
    # a vertex with no stored edge holds the one shared empty array
    assert {id(kept.neighbors(v)) for v in range(kept.n) if v not in keep} == {id(graph._EMPTY)}


def test_split_read_stores_4_byte_arrays_in_each_half(tmp_path):
    """The parent reads the child's array bytes straight onto its own arrays.

    Vertices 1000 and 1001 occur only in the last line, so only the
    child sees them, and the parent makes their arrays as it reads.
    """
    g = generate(GenSpec("gnp", n=1000, p=0.1, seed=3))
    src = build(1002, edge_list(g) + [(1000, 1001)])
    path = tmp_path / "g.txt"
    path.write_text(to_dimacs(src))
    with split_reads(), counted_forks() as forks:
        g = read_graph(str(path))
    assert g == src and len(forks) == 1
    assert_whole_graph(g)


@pytest.mark.parametrize("family", ["gnp", "bipartite"])
def test_built_graphs_store_4_byte_arrays(family):
    g = generate(GenSpec(family, n=600, p=0.5, seed=1))
    assert_whole_graph(g)
    h, _ = g.subgraph(range(0, 600, 2))
    assert_whole_graph(h)


def test_full_read_stores_about_4_bytes_per_neighbor_entry():
    """The graph a read keeps: measured 8.2 bytes per entry with tuples of shared ints, 4.3 with arrays."""
    text = to_dimacs(generate(GenSpec("gnp", n=1000, p=0.5, seed=1)))
    tracemalloc.start()
    try:
        g = parse(text)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 6 * 2 * g.m


def test_header_alone_makes_no_array_per_vertex():
    """A read's peak for "p edge 200000 0": measured 64 bytes a vertex with a list per vertex, 16 now.

    The 16 are the list of n Nones and the graph's tuple; one empty
    array alone takes 80 bytes.
    """
    n = 200_000
    tracemalloc.start()
    try:
        g = parse(f"p edge {n} 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == n and g.m == 0
    assert peak < 24 * n


def test_equal_graphs_compare_equal():
    a = generate(GenSpec("gnp", n=40, p=0.3, seed=2))
    b = parse(to_dimacs(a))
    assert a is not b and a == b
    assert a != build(40, [])
