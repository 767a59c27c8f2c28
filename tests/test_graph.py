import hashlib
import io
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from meyniel import graph
from meyniel.app import _read_graph
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

from conftest import graphs, reference_parse


def test_build_basic():
    g = build(4, [(0, 1), (1, 2), (1, 2)])
    assert g.n == 4
    assert g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == (0, 2)
    assert g.degree(3) == 0
    assert g.edges() == [(0, 1), (1, 2)]


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
    assert sub.edges() == [(0, 1), (1, 2)]
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


def test_parse_edgelist():
    g = parse("3\n0 1\n\n1 2\n", fmt="edgelist")
    assert g.edges() == [(0, 1), (1, 2)]


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


def graph_text(rng: random.Random, fmt: str, n: int, fault: str, newline: str) -> str:
    """A graph text: well formed, then with `fault` injected.

    Well-formed texts carry comments (dimacs), blank lines, duplicate and
    reversed edges, `+3` and `03` ints, and random spacing with tabs.
    """
    base = 1 if fmt == "dimacs" else 0
    tag = ["e"] if fmt == "dimacs" else []

    def num(k):
        return rng.choice([str(k)] * 3 + [f"+{k}", f"0{k}"])

    header = ["p", "edge", str(n), num(rng.randint(0, 9))] if fmt == "dimacs" else [str(n)]
    lines = [header]
    for _ in range(rng.randint(0, 60)):
        kind = rng.choice(["edge"] * 6 + ["blank", "comment"])
        if kind == "edge" and n >= 2:
            u, v = rng.sample(range(base, n + base), 2)
            lines.append(tag + [num(u), num(v)])
        elif kind == "comment" and fmt == "dimacs":
            lines.append(rng.choice([["c"], ["c", "e", "1", "1"], ["comment"], ["cx", "1"]]))
        else:
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
    space = ["", "", " ", "\t", "  ", " \t "]
    sep = rng.choice([" ", "\t", "  "])
    return "".join(rng.choice(space) + sep.join(t) + rng.choice(space) + newline for t in lines)


def parse_outcome(parser, source, fmt):
    """The graph `parser` returns, or the type, line and message of its GraphInputError."""
    try:
        return parser(source, fmt)
    except GraphInputError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def _check_against_reference(text: str, fmt: str) -> None:
    # parse_stream reads the same text block by block: same graph or same error
    assert parse_outcome(parse_stream, io.StringIO(text), fmt) == parse_outcome(parse, text, fmt)
    try:
        want = reference_parse(text, fmt)
    except GraphInputError as exc:
        with pytest.raises(GraphInputError) as got:
            parse(text, fmt)
        assert type(got.value) is type(exc)
        assert (got.value.line, str(got.value)) == (exc.line, str(exc))
        return
    g = parse(text, fmt)
    assert (g.n, g.edges()) == want
    for u in range(g.n):
        nbrs = set(g.neighbors(u))
        assert all(g.has_edge(u, v) == (v in nbrs) for v in range(g.n))


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from(["dimacs", "edgelist"]),
    st.integers(0, 50),
    st.sampled_from(("none",) * 3 + FAULTS),
    st.sampled_from(["\n", "\r\n", "\r", "\v", "\x1c", " "]),
    st.sampled_from(SLICES),
    st.randoms(use_true_random=True),
)
def test_parse_matches_reference(fmt, n, fault, newline, slice_size, rng):
    text = graph_text(rng, fmt, n, fault, newline)
    saved = graph._SLICE
    graph._SLICE = slice_size
    try:
        _check_against_reference(text, fmt)
    finally:
        graph._SLICE = saved


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_read_graph_matches_parse_of_whole_file(tmp_path, fmt, newline):
    """A file streamed by the CLI's reader parses as its whole decoded text does."""
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
            assert parse_outcome(_read_graph, str(path), fmt) == want
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
    _check_against_reference(text, fmt)


def _edgelist(g) -> str:
    return f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_parse_shares_one_int_per_vertex(fmt):
    src = generate(GenSpec("gnp", n=1000, p=0.1, seed=3))
    text = to_dimacs(src) if fmt == "dimacs" else _edgelist(src)
    g = parse(text, fmt)
    assert g == src
    assert len({id(x) for v in range(g.n) for x in g.neighbors(v)}) <= g.n
