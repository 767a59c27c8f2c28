import contextlib
import hashlib
import io
import os
import random
import signal
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from meyniel import app, graph
from meyniel.app import _read_graph, main
from meyniel.graph import (
    GenSpec,
    GraphInputError,
    GraphParseError,
    build,
    generate,
    parse,
    parse_stream,
    to_dimacs,
)

from conftest import counted_forks, edge_list, graphs, reference_parse, split_reads


def test_build_basic():
    g = build(4, [(0, 1), (1, 2), (1, 2)])
    assert g.n == 4
    assert g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == (0, 2)
    assert g.degree(3) == 0
    assert edge_list(g) == [(0, 1), (1, 2)]


def test_negative_vertex_raises_index_error():
    g = build(3, [(0, 2)])
    for v in (-1, -3, 3):
        with pytest.raises(IndexError):
            g.has_edge(v, 0)
        with pytest.raises(IndexError):
            g.neighbors(v)
        with pytest.raises(IndexError):
            g.degree(v)


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


@pytest.mark.parametrize("count", [sys.maxsize + 1, 99999999999999999999999])
@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_vertex_count_no_list_can_hold_is_a_parse_error(fmt, count):
    header = f"p edge {count} 1" if fmt == "dimacs" else str(count)
    text = f"\n{header}\n" + ("e 1 2\n" if fmt == "dimacs" else "0 1\n")
    # the keep read first: without the check it fails at once, where a
    # full read allocates until the process is killed
    for read in (lambda: parse_stream(io.StringIO(text), fmt, keep={0}),
                 lambda: parse_stream(io.StringIO(text), fmt),
                 lambda: parse(text, fmt)):
        with pytest.raises(GraphParseError) as exc:
            read()
        assert exc.value.line == 2
        assert str(exc.value) == f"line 2: vertex count {count} exceeds {sys.maxsize}"


def test_parse_edgelist():
    g = parse("3\n0 1\n\n1 2\n", fmt="edgelist")
    assert edge_list(g) == [(0, 1), (1, 2)]


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
    assert cyc.m == 5 and all(cyc.degree(v) == 2 for v in range(5))
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
    with pytest.raises(ValueError):
        generate(GenSpec(family="builtin", name="nosuch"))


def test_builtin_shapes():
    # complement of the 6-path u-v-w-x-y-z
    g = generate(GenSpec(family="builtin", name="p6bar"))
    assert g.n == 6 and g.m == 15 - 5
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)
    s = generate(GenSpec(family="builtin", name="sec5"))
    assert s.n == 9 and s.m == 15
    for tri in ((0, 3, 4), (1, 5, 6), (2, 7, 8)):
        a, b, c = tri
        assert s.has_edge(a, b) and s.has_edge(a, c) and s.has_edge(b, c)


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
]


def test_generated_graphs_are_pinned():
    for spec, digest in GENERATED_SHA256:
        assert hashlib.sha256(to_dimacs(generate(spec)).encode()).hexdigest() == digest, spec


SLICES = (1, 2, 7, 64, graph._SLICE)
FAULTS = ("none", "arity", "bad int", "range", "loop", "junk", "header", "twice", "missing", "late", "empty")


def graph_text(rng: random.Random, fmt: str, n: int, fault: str, newline: str, plain: bool = False) -> str:
    """A graph text: well formed, then with `fault` injected.

    Well-formed texts carry comments (dimacs), blank lines, duplicate and
    reversed edges, `+3` and `03` ints, and random spacing with tabs.  A
    `plain` text has only canonical edge lines after the header (single
    spaces, no padding, no `+3` or `03`, "\n" ends), so every piece the
    fault does not touch is taken in bulk, and a canonical fault such as
    an out-of-range token or a self-loop is met by the bulk checks.
    """
    base = 1 if fmt == "dimacs" else 0
    tag = ["e"] if fmt == "dimacs" else []
    if plain:
        newline = "\n"

    def num(k):
        return str(k) if plain else rng.choice([str(k)] * 3 + [f"+{k}", f"0{k}"])

    header = ["p", "edge", str(n), num(rng.randint(0, 9))] if fmt == "dimacs" else [str(n)]
    lines = [header]
    for _ in range(rng.randint(0, 60)):
        kind = "edge" if plain else rng.choice(["edge"] * 6 + ["blank", "comment"])
        if kind == "edge" and n >= 2:
            u, v = rng.sample(range(base, n + base), 2)
            lines.append(tag + [num(u), num(v)])
        elif kind == "comment" and fmt == "dimacs":
            lines.append(rng.choice([["c"], ["c", "e", "1", "1"], ["comment"], ["cx", "1"]]))
        elif not plain:
            lines.append([])
    at = rng.randint(1, len(lines))
    if fault == "arity":
        lines.insert(at, rng.choice([tag, tag + ["1"], tag + ["1", "2", "3"]]))
    elif fault == "bad int":
        lines.insert(at, tag + rng.sample(["1", rng.choice(["x", "1.5", "--1", "0x1"])], 2))
    elif fault == "range":
        k = rng.choice([base - 1, n + base, n + base + 1])
        lines.insert(at, tag + rng.sample([str(k), rng.choice([str(base), str(k)])], 2))
    elif fault == "loop":
        lines.insert(at, tag + [str(base)] * 2)
    elif fault == "junk":
        lines.insert(at, rng.choice([["x", "1", "2"], ["E", "1", "2"], ["p"]]))
    elif fault == "header":
        bad = [["p", "edge", "x", "0"], ["p", "edge", "3", "y"], ["p", "col", str(n), "0"],
               ["p", "edge", str(n)], ["p", "edge", "-2", "0"]]
        lines[0] = rng.choice(bad if fmt == "dimacs" else [["-2"], ["x"], [str(n), "4"]])
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


def parse_outcome(parser, source, fmt):
    """The graph `parser` returns, or the type, line and message of its GraphInputError."""
    try:
        return parser(source, fmt)
    except GraphInputError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def keep_outcome(text: str, fmt: str, keep) -> tuple:
    """`parse_stream` with `keep`: n and every vertex's tuple, or its error."""
    got = parse_outcome(lambda src, f: parse_stream(src, f, keep=keep), io.StringIO(text), fmt)
    if isinstance(got, graph.Graph):
        return got.n, tuple(got.neighbors(v) for v in range(got.n))
    return got


def kept_view(full, keep) -> tuple:
    """What a keep parse must give when the full parse gave `full`."""
    if isinstance(full, graph.Graph):
        return full.n, tuple(full.neighbors(v) if v in keep else () for v in range(full.n))
    return full


def _check_against_reference(text: str, fmt: str, keeps=(), slices=SLICES) -> None:
    # at every slice size, parse_stream reads the same text block by block
    # and gives the same graph or the same error; with a keep set it gives
    # the same error, or the full parse's tuples for the kept vertices only
    want = parse_outcome(parse, text, fmt)
    saved = graph._SLICE
    try:
        for size in slices:
            graph._SLICE = size
            assert parse_outcome(parse, text, fmt) == want, size
            assert parse_outcome(parse_stream, io.StringIO(text), fmt) == want, size
            for keep in keeps:
                assert keep_outcome(text, fmt, keep) == kept_view(want, keep), (size, keep)
    finally:
        graph._SLICE = saved
    try:
        want = reference_parse(text, fmt)
    except GraphInputError as exc:
        with pytest.raises(GraphInputError) as got:
            parse(text, fmt)
        assert type(got.value) is type(exc)
        assert (got.value.line, str(got.value)) == (exc.line, str(exc))
        return
    g = parse(text, fmt)
    assert (g.n, edge_list(g)) == want
    for u in range(g.n):
        nbrs = set(g.neighbors(u))
        assert all(g.has_edge(u, v) == (v in nbrs) for v in range(g.n))


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from(["dimacs", "edgelist"]),
    st.integers(0, 50),
    st.sampled_from(("none",) * 3 + FAULTS),
    st.sampled_from(["\n", "\r\n", "\r", "\v", "\x1c", " "]),
    st.booleans(),
    st.lists(st.sets(st.integers(0, 55), max_size=8), min_size=1, max_size=3),
    st.randoms(use_true_random=True),
)
def test_parse_matches_reference(fmt, n, fault, newline, plain, keeps, rng):
    text = graph_text(rng, fmt, n, fault, newline, plain)
    _check_against_reference(text, fmt, [set()] + keeps)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_read_graph_matches_parse_of_whole_file(tmp_path, fmt, newline):
    """A file streamed by the CLI's reader, split in two or not, parses as its whole decoded text does."""
    for split in (False, True):
        rng = random.Random(fmt + newline)
        path = tmp_path / "g.txt"
        saved = graph._SLICE
        try:
            for k in range(100):
                fault = FAULTS[k % len(FAULTS)] if k % 2 else "none"
                path.write_bytes(graph_text(rng, fmt, rng.randint(0, 50), fault, newline).encode())
                graph._SLICE = SLICES[k % len(SLICES)]
                with open(path, encoding="utf-8") as fh:
                    want = parse_outcome(parse, fh.read(), fmt)
                with split_reads(split):
                    assert parse_outcome(_read_graph, str(path), fmt) == want, split
        finally:
            graph._SLICE = saved


def test_read_graph_never_holds_the_file(tmp_path):
    """Reading a file costs the graph plus well under the file's size."""
    path = tmp_path / "dense.col"
    path.write_text(to_dimacs(generate(GenSpec("gnp", n=1000, p=0.5, seed=1))))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        g = _read_graph(str(path), "dimacs")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 1000 and size > 2_000_000
    assert peak - kept < size / 2, (peak - kept, size)


def test_read_graph_with_keep_holds_a_fraction_of_the_graph(tmp_path):
    """Keeping 5 vertices of G(1000, 1/2) peaks under a quarter of what the full graph holds."""
    path = tmp_path / "dense.col"
    with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        assert main(["gen", "--family", "gnp", "--n", "1000", "--p", "0.5", "--seed", "1"]) == 0
    tracemalloc.start()
    try:
        g = _read_graph(str(path), "dimacs")
        full, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    keep = {0, 1, 2, 500, 999}
    tracemalloc.start()
    try:
        h = _read_graph(str(path), "dimacs", keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m > 200_000
    assert [h.neighbors(v) for v in range(h.n)] == [g.neighbors(v) if v in keep else () for v in range(g.n)]
    assert peak < full / 4, (peak, full)


def read_outcome(path, fmt: str, keep=None, split: bool = True) -> tuple:
    """`_read_graph` with the split forced on or off: n, m and every tuple, or the error's type and message.

    Only the GraphInputError family is caught; anything else fails the test.
    """
    with split_reads(split):
        try:
            g = _read_graph(str(path), fmt, keep)
        except GraphInputError as exc:
            return type(exc), str(exc)
    return g.n, g.m, tuple(map(g.neighbors, range(g.n)))


@contextlib.contextmanager
def counted_serial_reads():
    """Record each serial `parse_stream` read that `_read_graph` makes in this block."""
    reads: list[int] = []
    saved = app.parse_stream

    def counted(*args):
        reads.append(1)
        return saved(*args)

    app.parse_stream = counted
    try:
        yield reads
    finally:
        app.parse_stream = saved


# Lines for the fuzzed files: both formats' tokens, the newlines that
# `splitlines` knows, and two non-ASCII characters
FUZZ_TOKENS = ["e", "p", "edge", "c", "0", "1", "2", "5", "6", "7", "-1", "+2", "01", "99",
               " ", "\t", "\n", "\n", "\n", "\r", "\r\n", "\v", "é", "\x85"]
FUZZ_HEADS = {"dimacs": ["p edge 6 4\n", "p edge 6 4\r\n", "c x\np edge 6 4\n", "p edge 6\n", ""],
              "edgelist": ["6\n", "6\r\n", "6 1\n", ""]}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["dimacs", "edgelist"]), st.data())
def test_split_read_matches_serial_read(tmp_path_factory, fmt, data):
    """Every file, text or not, read with the split forced on, gives what the serial read gives."""
    head = data.draw(st.sampled_from(FUZZ_HEADS[fmt]) | st.text(max_size=12), "head")
    body = data.draw(st.one_of(
        st.lists(st.sampled_from(FUZZ_TOKENS), max_size=80).map("".join).map(str.encode),
        st.text(max_size=60).map(str.encode),
        st.binary(max_size=60),
    ), "body")
    keep = data.draw(st.none() | st.sets(st.integers(-1, 8), max_size=4), "keep")
    size = data.draw(st.sampled_from(SLICES), "slice")
    path = tmp_path_factory.mktemp("split") / "g.txt"
    path.write_bytes(head.encode() + body)
    saved = graph._SLICE
    graph._SLICE = size
    try:
        want = read_outcome(path, fmt, keep, split=False)
        with counted_forks() as forks, counted_serial_reads() as serial:
            assert read_outcome(path, fmt, keep) == want
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
    # name: (file bytes, format, keep, is the read split?); a fault in the
    # first half comes right after the header, one in the second at the end
    "plain": (WHOLE, "dimacs", None, True),
    "plain kept": (WHOLE, "dimacs", {0, 5, 27, 39}, True),
    "kept out of range": (WHOLE, "dimacs", {-1, 3, 40, 99}, True),
    "comment before the header": (b"c first\n" + WHOLE, "dimacs", None, False),
    "more vertices than bytes": (b"p edge 5000 60\n" + WHOLE[len(HEAD):], "dimacs", None, False),
    "duplicate header in the second half": (WHOLE + HEAD, "dimacs", None, True),
    "bad UTF-8 in the first half": (HEAD + b"e 1 2\xff\n" + HALF + HALF, "dimacs", None, True),
    "bad UTF-8 in the second half": (WHOLE + b"e 1 2\xc3\n", "dimacs", None, True),
    "bad UTF-8 in both halves": (HEAD + b"e \xe2\x82\n" + HALF + HALF + b"c \xff\n", "dimacs", None, True),
    # a comment would parse in either half: only the decoding can refuse it
    "bad UTF-8 in a comment in the first half": (HEAD + b"c caf\xe9\n" + HALF + HALF, "dimacs", None, True),
    "bad UTF-8 in a comment in the second half": (WHOLE + b"c caf\xe9\n", "dimacs", {3}, True),
    "errors in both halves": (HEAD + b"e 1 41\n" + HALF + HALF + b"e 3 3\n", "dimacs", None, True),
    "error in the second half": (WHOLE + b"e 3 3\n", "dimacs", {2}, True),
    "no newline past the middle": (HEAD + b"e 1 2\n" + b"c" * 2000, "dimacs", None, False),
    # the cut falls after HALF's last line, so the child's half is one line without "\n"
    "second half with no newline": (HEAD + HALF + b"e 1 40".ljust(len(HEAD + HALF) - 4), "dimacs", None, True),
    "newlines all CR": (WHOLE.replace(b"\n", b"\r"), "dimacs", None, False),
    "newlines CR LF": (WHOLE.replace(b"\n", b"\r\n"), "dimacs", None, True),
    # both halves get the edges before the first "\n", and `_freeze` collapses them
    "CR before the first LF": (HEAD.replace(b"\n", b"\re 1 40\r") + HALF + HALF + b"e 2 40\n", "dimacs", None, True),
    "edge list": (b"41\n" + WHOLE[len(HEAD):].replace(b"e ", b""), "edgelist", None, True),
    "edge list kept": (b"41\n" + WHOLE[len(HEAD):].replace(b"e ", b""), "edgelist", {0, 40, 41}, True),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_read_cases(tmp_path, case):
    """The split is taken exactly when it may be, with one child, and gives the serial outcome.

    A split read of a valid file needs no serial read; an invalid one is
    read again serially, which reports the error.
    """
    data, fmt, keep, split = SPLIT_CASES[case]
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    want = read_outcome(path, fmt, keep, split=False)
    with counted_forks() as forks, counted_serial_reads() as serial:
        assert read_outcome(path, fmt, keep) == want
    assert len(forks) == split
    assert len(serial) == (not split or not isinstance(want[0], int))
    known = {  # m of a graph, or the message of an error: the first in file order
        "plain": 60, "newlines CR LF": 60, "edge list": 60, "second half with no newline": 31,
        "CR before the first LF": 32,
        "errors in both halves": "line 2: endpoint out of range in 'e 1 41'",
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

    def faulty(pieces, fmt, keep=None):
        if os.getpid() != parent:
            pieces = pieces_then_fault(iter(pieces))
        return parse_lists(pieces, fmt, keep)

    monkeypatch.setattr(graph, "_parse", faulty)


@pytest.mark.parametrize("fault", ["killed", "exits 0", "exits 1", "sends nothing", "fails after sending"])
def test_split_read_falls_back_when_the_child_fails(tmp_path, monkeypatch, fault):
    """A child that dies, ends without its records or exits nonzero is reaped and the serial read runs."""
    data, fmt, keep, _ = SPLIT_CASES["plain"]
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    want = read_outcome(path, fmt, keep, split=False)
    send = graph._send

    def send_then_fail(out, adj):
        send(out, adj)
        raise RuntimeError("after the last record")

    if fault == "sends nothing":
        monkeypatch.setattr(graph, "_send", lambda out, adj: None)
    elif fault == "fails after sending":
        monkeypatch.setattr(graph, "_send", send_then_fail)
    else:
        child_fault(monkeypatch, fault)
    with counted_forks() as forks, counted_serial_reads() as serial:
        assert read_outcome(path, fmt, keep) == want
    assert len(forks) == 1 and serial == [1]


def test_split_read_kills_the_child_on_keyboard_interrupt(tmp_path, monkeypatch):
    """An interrupt in the parent's half kills and reaps the child, then propagates."""
    data, fmt, keep, _ = SPLIT_CASES["plain"]
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    parent = os.getpid()

    def interrupted(pieces, fmt, keep=None):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(graph, "_parse", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        read_outcome(path, fmt, keep)
    assert time.perf_counter() - t0 < 30


# Faults that fit a plain line's width: `plain_pieces_text` puts one on
# the last line of a plain piece, or ends the text without its "\n"
BULK_FAULTS = {
    "range": "123 999", "loop": "123 123", "zero": "123 045", "plus": "123 +45",
    "digit": "123 4٣5", "tab": "123\t456", "space": "12 456 ", "comment": None,
    "newline": None,
}


def plain_pieces_text(fmt: str, fault: str, spy: list) -> tuple[str, int, int]:
    """A text of 400 canonical edge lines, n = 998, with `fault` injected.

    Returns the text, the fault's line number, and the index among the
    `_plain_edges` calls of the piece that holds it (-1: the last one).
    Every edge line has the same width, so the fault leaves the pieces
    where the clean text has them; `spy` holds (piece, taken) of each
    call, and the clean text's calls are cleared.
    """
    rng = random.Random(fmt + fault)
    tag = "e " if fmt == "dimacs" else ""
    lines = ["p edge 998 400" if fmt == "dimacs" else "998"]
    lines += [f"{tag}{u} {v}" for u, v in (rng.sample(range(100, 998), 2) for _ in range(400))]
    parse_stream(io.StringIO("\n".join(lines) + "\n"), fmt)
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
        lines[at - 1] = "c 1234567" if fmt == "dimacs" else " " * len(lines[at - 1])
    else:
        lines[at - 1] = tag + BULK_FAULTS[fault]
    return "\n".join(lines) + "\n", at, k


def reference_outcome(text: str, fmt: str, keep) -> tuple:
    """What `keep_outcome` must give, by the reference parser, which has no bulk route."""
    try:
        n, edges = reference_parse(text, fmt)
    except GraphInputError as exc:
        return type(exc), exc.line, str(exc)
    return kept_view(build(n, edges), range(n) if keep is None else keep)


def check_plain_pieces_in_bulk(monkeypatch, fmt: str, fault: str, keep) -> None:
    """Plain pieces are taken in bulk; the faulty one falls back to the line loop."""
    spy = []
    bulk = graph._plain_edges

    def spied(piece, *args):
        spy.append((piece, bulk(piece, *args)))
        return spy[-1][1]

    monkeypatch.setattr(graph, "_plain_edges", spied)
    monkeypatch.setattr(graph, "_SLICE", 100)  # blocks of 100 characters
    text, at, k = plain_pieces_text(fmt, fault, spy)
    want = reference_outcome(text, fmt, keep)
    assert keep_outcome(text, fmt, keep) == want
    taken = [ok for _, ok in spy]
    k %= len(taken)
    assert any(taken[:k]) and not taken[k]
    if fault in ("range", "loop"):
        assert want[:2] == (GraphParseError, at)
    else:
        assert isinstance(want[0], int)
        assert fault == "newline" or any(taken[k + 1:])


@pytest.mark.parametrize("fault", BULK_FAULTS)
@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_keep_parse_takes_plain_pieces_in_bulk(monkeypatch, fmt, fault):
    base = 1 if fmt == "dimacs" else 0
    keep = {v - base for v in (12, 45, 123, 456, 997)} | {5, 700}
    check_plain_pieces_in_bulk(monkeypatch, fmt, fault, keep)


@pytest.mark.parametrize("fault", BULK_FAULTS)
@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_full_parse_takes_plain_pieces_in_bulk(monkeypatch, fmt, fault):
    check_plain_pieces_in_bulk(monkeypatch, fmt, fault, None)


def test_parse_stream_joins_one_long_line_in_linear_time():
    # 125,000 blocks without a "\n".  On a 2-core Xeon this takes about
    # 0.1 s; a reader that re-joined its held tail on every block took 14 s
    saved = graph._SLICE
    graph._SLICE = 16
    try:
        t0 = time.perf_counter()
        with pytest.raises(GraphParseError) as exc:
            parse_stream(io.StringIO("x" * 2_000_000))
        assert time.perf_counter() - t0 < 5.0
    finally:
        graph._SLICE = saved
    assert exc.value.line == 1


@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
@pytest.mark.parametrize("fault", ["none", "bad int", "range", "loop", "arity", "twice"])
def test_parse_across_many_slices_matches_reference(fmt, fault):
    # about 30,000 edge lines span several default slices; the fault sits
    # near the end, so its line number counts lines over every cut
    rng = random.Random(fmt + fault)
    n, base = 500, (1 if fmt == "dimacs" else 0)
    tag = "e " if fmt == "dimacs" else ""
    lines = ["p edge 500 30000" if fmt == "dimacs" else "500"]
    for _ in range(30000):
        u, v = rng.sample(range(base, n + base), 2)
        lines.append(f"{tag}{u} {v}" + rng.choice(["", " ", "\t"]))
        if rng.random() < 0.02:
            lines.append(rng.choice(["", "  ", "c note"] if fmt == "dimacs" else ["", "  "]))
    bad = {
        "none": None,
        "bad int": f"{tag}1 x2",
        "range": f"{tag}{base} {n + base}",
        "loop": f"{tag}7 7",
        "arity": f"{tag}1 2 3",
        "twice": lines[0],
    }[fault]
    if bad is not None:
        lines.insert(len(lines) - 25, bad)
    text = "\n".join(lines) + "\n"
    assert len(text) > 2 * graph._SLICE
    _check_against_reference(text, fmt, [set(), {0, 6, 7, n - 1}], slices=(64, graph._SLICE))


def _edgelist(g) -> str:
    return f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in edge_list(g))


@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_parse_shares_one_int_per_vertex(fmt):
    src = generate(GenSpec("gnp", n=1000, p=0.1, seed=3))
    text = to_dimacs(src) if fmt == "dimacs" else _edgelist(src)
    g = parse(text, fmt)
    assert g == src
    assert len({id(x) for v in range(g.n) for x in g.neighbors(v)}) <= g.n


@pytest.mark.parametrize("family", ["gnp", "bipartite"])
def test_generated_graphs_share_one_int_per_vertex(family):
    g = generate(GenSpec(family, n=600, p=0.5, seed=1))
    assert len({id(x) for v in range(g.n) for x in g.neighbors(v)}) <= g.n
