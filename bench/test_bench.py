"""Tests of the benchmark itself: generators, checker and printed metrics.

    python3 -m pytest bench

The last test runs every workload once, briefly, in both modes.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

ROOT = os.path.dirname(HERE)


def _is_chordal(n, edges):
    """Maximum cardinality search, then test the elimination order."""
    adj = check.adjacency(n, edges)
    weight = [0] * n
    order, seen = [], [False] * n
    for _ in range(n):
        v = max((u for u in range(n) if not seen[u]), key=lambda u: weight[u])
        seen[v] = True
        order.append(v)
        for u in adj[v]:
            if not seen[u]:
                weight[u] += 1
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [u for u in adj[v] if pos[u] < pos[v]]
        if earlier:
            parent = max(earlier, key=pos.get)
            if not set(earlier) - {parent} <= adj[parent]:
                return False
    return True


def test_gnp_is_deterministic_and_simple():
    a = gen.gnp(300, 0.05, gen.rng_for(7, "sparse"))
    b = gen.gnp(300, 0.05, gen.rng_for(7, "sparse"))
    c = gen.gnp(300, 0.05, gen.rng_for(8, "sparse"))
    assert a == b
    assert a != c
    assert len(set(a)) == len(a)
    assert all(0 <= u < v < 300 for u, v in a)
    # 300 * 299 / 2 * 0.05 = 2242.5 expected edges
    assert 1900 < len(a) < 2600


def test_gnp_with_p_one_enumerates_every_pair():
    assert gen.gnp(40, 1.0, gen.rng_for(0, "x")) == [
        (u, v) for v in range(40) for u in range(v)
    ]


def test_chordal_is_deterministic_and_chordal():
    a = gen.chordal(300, 6, gen.rng_for(3, "chordal-stable"))
    assert a == gen.chordal(300, 6, gen.rng_for(3, "chordal-stable"))
    assert a != gen.chordal(300, 6, gen.rng_for(4, "chordal-stable"))
    assert all(0 <= u < v < 300 for u, v in a)
    assert _is_chordal(300, a)


def test_small_stream_is_deterministic():
    a = list(gen.small_stream(50, gen.rng_for(1, "small-batch")))
    assert a == list(gen.small_stream(50, gen.rng_for(1, "small-batch")))
    assert a != list(gen.small_stream(50, gen.rng_for(2, "small-batch")))
    assert all(8 <= n <= 60 for n, _ in a)
    texts = [gen.dimacs(n, es) for n, es in a]
    assert gen.digest_of(texts) == gen.digest_of(list(texts))


def test_adjacency_from_dimacs_reads_back_the_edges():
    edges = gen.gnp(30, 0.3, gen.rng_for(5, "x"))
    assert check.adjacency_from_dimacs(gen.dimacs(30, edges)) == check.adjacency(30, edges)


# A 5-cycle 0-1-2-3-4 with the chord 0-2, plus vertex 5 adjacent to 1.
C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 5)]
C5 = check.adjacency(6, C5_EDGES)


def _doc(**fields):
    return json.dumps(fields)


def test_checker_accepts_valid_certificates():
    assert check.check_solve(C5, _doc(kind="obstruction", cycle=[0, 1, 2, 3, 4], chord=[0, 2])) is None
    tri = check.adjacency(3, [(0, 1), (1, 2), (0, 2)])
    assert check.check_solve(tri, _doc(kind="optimal", coloring=[1, 2, 3], clique=[2, 0, 1])) is None
    assert check.check_stable(C5, _doc(kind="nice_stable_set", order=[1, 3]), 3) is None


@pytest.mark.parametrize("doc", [
    # coloring with a monochromatic edge
    _doc(kind="optimal", coloring=[1, 2, 1], clique=[0, 1, 2]),
    # colors not contiguous
    _doc(kind="optimal", coloring=[1, 2, 4], clique=[0, 1, 2]),
    # clique smaller than the color count
    _doc(kind="optimal", coloring=[1, 2, 3], clique=[0, 1]),
])
def test_checker_rejects_tampered_optimal_pair(doc):
    tri = check.adjacency(3, [(0, 1), (1, 2), (0, 2)])
    assert check.check_solve(tri, doc) is not None


@pytest.mark.parametrize("doc", [
    # the chord 0-2 exists but is not declared
    _doc(kind="obstruction", cycle=[0, 1, 2, 3, 4], chord=None),
    # a declared chord that is a cycle edge
    _doc(kind="obstruction", cycle=[0, 1, 2, 3, 4], chord=[0, 1]),
    # a cycle step that is not an edge
    _doc(kind="obstruction", cycle=[0, 2, 1, 3, 4], chord=None),
    # too short
    _doc(kind="obstruction", cycle=[0, 1, 2], chord=None),
])
def test_checker_rejects_tampered_obstruction(doc):
    assert check.check_solve(C5, doc) is not None


@pytest.mark.parametrize("order,vertex", [
    ([1, 3, 5], 3),  # 1 and 5 are adjacent
    ([3], 3),  # not maximal: 1 and 5 could join
    ([1, 3], 4),  # does not contain the requested vertex
])
def test_checker_rejects_tampered_stable_set(order, vertex):
    assert check.check_stable(C5, _doc(kind="nice_stable_set", order=order), vertex) is not None


def test_checker_rejects_malformed_documents():
    assert check.check_solve(C5, b"not json") is not None
    assert check.check_solve(C5, _doc(kind="optimal", coloring=[1])) is not None
    assert check.check_stable(C5, "[1, 3]", 3) is not None


# Every metric named by the workload definitions, and where it applies.
END_TO_END = ["setup_s", "solve_s", "verify_s", "iteration_s", "peak_rss_mb", "failed_frac"]
ONLY_ON = {
    "chordal-stable": ["stableset_s", "stable_verify_s", "colorbystable_s"],
    "small-batch": ["batch_graphs_per_s", "batch_p50_ms", "batch_p99_ms"],
}
PER_LAYER = [
    "graph.parse_s", "graph.input_mb", "graph.subgraph_s", "graph.subgraph_calls",
    "lexcolor.lex_color_s", "lexcolor.calls", "lexcolor.colors",
    "clique.greedy_clique_s", "clique.depth", "clique.completed", "clique.calls",
    "niceset.nice_check_s", "niceset.verify_nice_check_s", "niceset.set_size",
    "niceset.witness_found",
    "obstruction.extract_s", "obstruction.calls", "obstruction.cycle_len_mean",
    "obstruction.chorded_share",
    "certify.verify_pair_s", "certify.verify_obstruction_s",
    "certify.verify_obstruction_calls", "certify.encode_s", "certify.decode_s",
    "certify.cert_bytes",
    "app.self_s", "app.import_s", "trace.overhead_frac",
]


def _report(lines):
    """name -> unit for the metric lines of a report."""
    out = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            float(parts[1])
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["dense", "sparse", "chordal-stable", "small-batch"])
def test_every_metric_is_printed_with_a_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed
    }
    printed = _report(lines[:-1])
    wanted = PER_LAYER if trace else END_TO_END + ONLY_ON.get(workload, [])
    missing = [name for name in wanted if not printed.get(name)]
    assert not missing
    assert any(line.startswith("input sha256 ") for line in lines)
    assert any("python=" in line and "nproc=" in line and "commit=" in line for line in lines)
