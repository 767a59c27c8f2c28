"""Acceptance suite: one test and one printed pass/fail line per claim.

These are the binding end-to-end checks for the package: exhaustive
small-graph sweeps, randomized sweeps with oracle cross-checks, two
pinned golden runs, structured-family behavior, per-vertex stable set
extraction, scaling, adjacency reads linear in n + m, equivalence with
the naive reference coloring under every legal tie-break, and
certificate tampering.
Run with -rA (or -s) to see the summary lines for passing tests too.
"""

import hashlib
import random
import statistics
import time
from itertools import combinations

from meyniel.app import color_via_stable_sets, robust_solve, robust_stable_set
from meyniel.certify import (
    MeynielObstruction,
    NiceStableSetCert,
    OptimalPair,
    decode,
    encode,
    verify_obstruction,
    verify_optimal_pair,
)
from meyniel.clique import CliqueComplete, CliqueFailure, greedy_clique
from meyniel.gen import GenSpec, generate
from meyniel.graph import build
from meyniel.lexcolor import lex_color
from meyniel.niceset import nice_check
from meyniel.oracle import chromatic_bf, is_meyniel_bf, omega_bf

from conftest import (
    CountingGraph,
    all_graphs,
    edge_list,
    is_strong_stable_set,
    naive_lex_color,
    random_graph,
    random_legal_order,
)


def report(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] {name}{tail}"
    print(line)
    assert ok, line


def certified(g, cert):
    """Round-trip through the wire format, which re-runs every verifier."""
    back = decode(g, encode(cert))
    return back == cert and type(back) is type(cert)


# sha256 of the concatenated `encode` output of each sweep below: a change
# to the algorithm, its tie-breaks or the wire form shows up here first
SIX_VERTEX_SOLVE_SHA256 = "be2f1323013ec5f21a366ee3b09432b1491416b360a513f2d7c25ee86e2935ad"
SIX_VERTEX_STRIPPING_SHA256 = "4548adf1e752fbd8b51cfd6201ec057de26633327fb035ca80b82fab6f542397"
RANDOM_SWEEP_SHA256 = "326643ca15920c60b0ca6c74418f246e61685d473251005769126cb418554977"
STABLE_SET_SWEEP_SHA256 = "b097ed37aa74d45a6661ffad3596a07aadaf69f89947ebca88bb057734a0c131"


def test_exhaustive_six_vertex_sweep():
    t0 = time.perf_counter()
    total = optimal = obstructed = 0
    solved, stripped = hashlib.sha256(), hashlib.sha256()
    for g in all_graphs(6):
        cert = robust_solve(g)
        assert certified(g, cert)
        solved.update(encode(cert))
        stripped.update(encode(color_via_stable_sets(g)))
        if isinstance(cert, OptimalPair):
            optimal += 1
            k = cert.num_colors
            assert k == chromatic_bf(g) == omega_bf(g), edge_list(g)
        else:
            obstructed += 1
        total += 1
    elapsed = time.perf_counter() - t0
    assert solved.hexdigest() == SIX_VERTEX_SOLVE_SHA256
    assert stripped.hexdigest() == SIX_VERTEX_STRIPPING_SHA256
    report(
        "every graph on 6 vertices gets a verified certificate",
        total == 32768 and elapsed < 120.0,
        f"{total} graphs, {optimal} optimal, {obstructed} obstructed, {elapsed:.1f}s",
    )


def test_random_sweep_with_oracle_cross_checks():
    rng = random.Random(2024)
    bad = 0
    optimal = obstructed = 0
    digest = hashlib.sha256()
    for t in range(10000):
        n = 7 + t % 6
        p = (t % 9 + 1) / 10
        g = random_graph(rng, n, p)
        cert = robust_solve(g)
        digest.update(encode(cert))
        if not certified(g, cert):
            bad += 1
            continue
        if isinstance(cert, OptimalPair):
            optimal += 1
            if not cert.num_colors == chromatic_bf(g) == omega_bf(g):
                bad += 1
        else:
            obstructed += 1
            if n <= 10 and is_meyniel_bf(g):
                bad += 1
    assert digest.hexdigest() == RANDOM_SWEEP_SHA256
    report(
        "10000 random graphs: certificates verify, oracles concur",
        bad == 0,
        f"{optimal} optimal, {obstructed} obstructed, {bad} failures",
    )


def test_golden_run_path_complement():
    g = generate(GenSpec(family="builtin", name="p6bar"))
    order = (1, 4, 2, 0, 3, 5)
    trace = lex_color(g, order)
    ok = tuple(trace.color_of) == (3, 1, 1, 2, 2, 4)
    res = greedy_clique(g, trace)
    ok = ok and res == CliqueFailure(color=1, clique=(5, 0, 3))
    ob = robust_solve(g, order)
    ok = ok and isinstance(ob, MeynielObstruction)
    ok = ok and set(ob.cycle) == {0, 1, 2, 3, 4} and ob.chord == (0, 4)
    ok = ok and certified(g, ob)
    report(
        "pinned run on the 6-path complement: stuck clique and chorded 5-cycle",
        ok,
        f"cycle {ob.cycle}, chord {ob.chord}",
    )


def test_golden_run_three_triangles():
    g = generate(GenSpec(family="builtin", name="sec5"))
    order = (3, 1, 5, 6, 2, 8, 7, 0, 4)
    trace = lex_color(g, order)
    ok = tuple(trace.color_of) == (3, 2, 1, 1, 2, 1, 3, 2, 3)
    res = greedy_clique(g, trace)
    ok = ok and res == CliqueComplete(clique=(0, 4, 3))
    cert = robust_solve(g, order)
    ok = ok and isinstance(cert, OptimalPair) and certified(g, cert)
    # every color class here is maximal but meets no clique transversal
    for cls in ((2, 3, 5), (1, 4, 7), (0, 6, 8)):
        ok = ok and not is_strong_stable_set(g, cls)
    report(
        "pinned run on the triangle triple: optimal despite non-strong classes",
        ok,
        f"colors {trace.num_colors}, clique {res.clique}",
    )


def test_structured_families_always_color():
    rng = random.Random(77)
    bad = 0
    small_checked = 0
    for base, fam in ((0, "chordal"), (1000, "bipartite")):
        for t in range(1000):
            n = rng.randint(1, 200)
            p = rng.choice([0.2, 0.4, 0.6, 0.8])
            g = generate(GenSpec(family=fam, n=n, p=p, seed=base + t))
            cert = robust_solve(g)
            if not isinstance(cert, OptimalPair) or not certified(g, cert):
                bad += 1
                continue
            if n <= 12:
                small_checked += 1
                if cert.num_colors != chromatic_bf(g):
                    bad += 1
    report(
        "chordal and bipartite instances always color optimally",
        bad == 0,
        f"2000 instances, {small_checked} oracle-checked, {bad} failures",
    )


def test_stable_set_for_every_vertex():
    rng = random.Random(4242)
    bad = nice_n = obstructed = 0
    digest = hashlib.sha256()
    for _ in range(2000):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.85]))
        for v in range(n):
            res = robust_stable_set(g, v)
            digest.update(encode(res))
            if isinstance(res, NiceStableSetCert):
                nice_n += 1
                if res.order[0] != v or nice_check(g, res.order) is not None:
                    bad += 1
                elif not is_strong_stable_set(g, res.order):
                    bad += 1
            else:
                obstructed += 1
                if not verify_obstruction(g, res):
                    bad += 1
    assert digest.hexdigest() == STABLE_SET_SWEEP_SHA256
    report(
        "every vertex of 2000 random graphs: nice stable set or obstruction",
        bad == 0,
        f"{nice_n} nice, {obstructed} obstructed, {bad} failures",
    )


def test_first_color_class_strong_on_meyniel_instances():
    rng = random.Random(99)
    findings = []
    checked = 0
    instances = []
    for t in range(400):
        fam = ("chordal", "bipartite")[t % 2]
        instances.append(generate(GenSpec(family=fam, n=rng.randint(1, 12), p=0.5, seed=t)))
    made = 0
    while made < 800:
        g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.6, 0.8]))
        if is_meyniel_bf(g):
            instances.append(g)
            made += 1
    for g in instances:
        if g.n == 0:
            continue
        cls = lex_color(g).class_of(1)
        checked += 1
        if not is_strong_stable_set(g, cls):
            findings.append((edge_list(g), cls))
    for edges, cls in findings:
        print(f"FINDING: first color class {cls} not strong on {edges}")
    report(
        "first color class is strong on every Meyniel instance",
        not findings,
        f"{checked} instances, {len(findings)} findings",
    )


def test_near_linear_scaling():
    times = {}
    for n in (250, 500, 1000, 2000):
        g = generate(GenSpec(family="gnp", n=n, p=0.5, seed=17))
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            trace = lex_color(g)
            greedy_clique(g, trace)
            runs.append(time.perf_counter() - t0)
        times[n] = statistics.median(runs)
    ratios = {n: times[2 * n] / times[n] for n in (250, 500, 1000)}
    ok = all(r <= 5.0 for r in ratios.values()) and times[2000] <= 10.0
    report(
        "doubling n at density 1/2 at most quintuples the time",
        ok,
        "ratios "
        + ", ".join(f"{2 * n}/{n}={r:.2f}" for n, r in ratios.items())
        + f", t(2000)={times[2000]:.2f}s",
    )


# Families on which every pipeline below is linear today: dense and sparse
# G(n, p), chordal and bipartite graphs, at sizes that take about 1 s in all
ADJACENCY_SPECS = (
    [GenSpec("gnp", n=n, p=0.5, seed=17) for n in (250, 500, 1000)]
    + [GenSpec("gnp", n=n, p=10 / n, seed=17) for n in (2000, 4000)]
    + [GenSpec("chordal", n=n, p=0.9, seed=17) for n in (1000, 4000)]
    + [GenSpec("bipartite", n=500, p=0.5, seed=17), GenSpec("bipartite", n=4000, p=10 / 2000, seed=17)]
)

# count <= c * (n + m) for each pipeline; the largest ratios on the specs
# above are 3.98 (solve, bipartite), 7.91 (stable set, sparse bipartite)
# and 3.04 (decode of that stable set)
ADJACENCY_BOUNDS = {"robust_solve": 5, "robust_stable_set": 10, "decode": 4}


def hole_certificates():
    """(name, graph, obstruction) for long holes, built by hand.

    A permuted C_4001, the same hole with one declared chord between
    positions 0 and 2000, and the K_4 blow-up of a permuted C_1001 (each
    vertex a bag of 4, adjacent bags complete to each other; n = 4,004,
    m = 22,022) with one vertex per bag as the cycle.  Only `decode`
    runs on them: extraction is still quadratic in the cycle length.
    """
    rng = random.Random(17)
    lab = rng.sample(range(4001), 4001)
    ring = [(lab[i], lab[i - 1]) for i in range(4001)]
    yield "C_4001", build(4001, ring), MeynielObstruction(cycle=tuple(lab))
    chord = (min(lab[0], lab[2000]), max(lab[0], lab[2000]))
    yield "C_4001 + chord", build(4001, ring + [chord]), MeynielObstruction(cycle=tuple(lab), chord=chord)
    lab = rng.sample(range(4004), 4004)
    bags = [lab[4 * i:4 * i + 4] for i in range(1001)]
    edges = [e for bag in bags for e in combinations(bag, 2)]
    edges += [(a, b) for i in range(1001) for a in bags[i] for b in bags[i - 1]]
    yield "K_4 blow-up of C_1001", build(4004, edges), MeynielObstruction(cycle=tuple(bag[0] for bag in bags))


def test_adjacency_reads_are_linear():
    """Deterministic complexity gate: adjacency reads per unit of n + m, not seconds."""
    worst = {key: (0.0, "") for key in ADJACENCY_BOUNDS}

    def read(key, spec, g, call):
        g.count = 0
        out = call()
        worst[key] = max(worst[key], (g.count / (g.n + g.m), repr(spec)))
        return out

    for spec in ADJACENCY_SPECS:
        g = CountingGraph(generate(spec))
        cert = read("robust_solve", spec, g, lambda: robust_solve(g))
        read("decode", spec, g, lambda: decode(g, encode(cert)))
        cert = read("robust_stable_set", spec, g, lambda: robust_stable_set(g, 0))
        read("decode", spec, g, lambda: decode(g, encode(cert)))
    for name, h, cert in hole_certificates():
        g = CountingGraph(h)
        read("decode", name, g, lambda: decode(g, encode(cert)))
    report(
        "every pipeline reads O(n + m) adjacency entries",
        all(worst[key][0] <= c for key, c in ADJACENCY_BOUNDS.items()),
        "; ".join(f"{key} {ratio:.2f} (n + m) on {spec}, bound {ADJACENCY_BOUNDS[key]}"
                  for key, (ratio, spec) in worst.items()),
    )


def test_lex_color_reads_each_neighbor_list_once():
    """lex_color alone reads exactly n + 2m: one `neighbors` call per vertex, no `has_edge`.

    The gate above bounds whole pipelines from above, so an engine that
    read the adjacency some other way would pass it by undercounting.
    """
    off = []
    for spec in ADJACENCY_SPECS:
        g = CountingGraph(generate(spec))
        lex_color(g)
        if g.count != g.n + 2 * g.m:
            off.append(f"{spec!r}: {g.count} reads, n + 2m = {g.n + 2 * g.m}")
    report(
        "lex_color reads every neighbor list once and nothing else",
        not off,
        "; ".join(off) or f"{len(ADJACENCY_SPECS)} graphs",
    )


def test_strategies_trace_identically():
    rng = random.Random(31)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(1, 100)
        g = random_graph(rng, n, rng.choice([0.05, 0.2, 0.5, 0.8]))
        if lex_color(g) != naive_lex_color(g):
            mismatches += 1
    report(
        "the coloring engine traces exactly like the naive reference",
        mismatches == 0,
        f"1000 graphs, {mismatches} mismatches",
    )


def test_every_legal_tie_break_gives_a_certificate():
    """Color first a prefix of a random lex-maximal order, of length 0, 1, k or n.

    The engine traces like the reference, and `robust_solve` returns a
    certificate that its verifiers accept and the wire format keeps.
    """
    rng = random.Random(14)
    mismatches = broken = obstructed = 0
    for _ in range(3000):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        order = random_legal_order(g, rng)
        for k in sorted({0, 1, rng.randint(0, n), n}):
            first = tuple(order[:k])
            mismatches += lex_color(g, first) != naive_lex_color(g, first)
            cert = robust_solve(g, first)
            broken += not certified(g, cert)
            obstructed += isinstance(cert, MeynielObstruction)
    report(
        "every legal tie-break leads to a verified certificate",
        mismatches == broken == 0 and obstructed > 500,
        f"3000 graphs, {obstructed} obstructions, {mismatches} mismatches, {broken} broken",
    )


def test_corrupted_certificates_are_rejected():
    g = generate(GenSpec(family="builtin", name="p6bar"))
    s = generate(GenSpec(family="builtin", name="sec5"))
    opt = robust_solve(s, (3, 1, 5, 6, 2, 8, 7, 0, 4))
    ob = robust_solve(g, (1, 4, 2, 0, 3, 5))
    checks = []

    def expect(label, verdict, want):
        checks.append((label, not verdict and want in verdict.reason, verdict.reason))

    flipped = list(opt.coloring)
    flipped[3] = flipped[4]  # spoil an edge of the first triangle
    expect("flip a color onto a neighbor",
           verify_optimal_pair(s, flipped, opt.clique), "monochromatic")

    escaped = list(opt.coloring)
    escaped[0] = 4  # proper again, but now one color too many
    expect("flip a color past the clique size",
           verify_optimal_pair(s, escaped, opt.clique), "clique size 3 != color count 4")

    expect("drop a clique vertex",
           verify_optimal_pair(s, opt.coloring, opt.clique[1:]), "clique size 2")

    even = MeynielObstruction(cycle=(0, 2, 4, 1, 3, 5), chord=None)
    expect("even cycle", verify_obstruction(g, even), "even")

    two_chords = MeynielObstruction(cycle=(1, 3, 0, 2, 5), chord=(0, 5))
    expect("cycle carrying a second chord",
           verify_obstruction(g, two_chords), "undeclared chord 3-5")

    ghost = MeynielObstruction(cycle=ob.cycle, chord=(1, 2))
    expect("declared chord pointing at the wrong pair",
           verify_obstruction(g, ghost), "undeclared chord 0-4")

    c5 = generate(GenSpec(family="cycle", n=5))
    phantom = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 2))
    expect("declared chord that is not an edge",
           verify_obstruction(c5, phantom), "not an edge")

    bad = [label for label, ok, _ in checks if not ok]
    for label, ok, reason in checks:
        if not ok:
            print(f"FINDING: {label} was not rejected as expected ({reason!r})")
    report(
        "every hand-corrupted certificate is rejected with a pointed reason",
        not bad,
        f"{len(checks)} corruptions",
    )
