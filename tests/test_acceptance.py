"""Acceptance suite: one test and one printed pass/fail line per claim.

These are the binding end-to-end checks for the package: exhaustive
small-graph sweeps, randomized sweeps with oracle cross-checks, two
pinned golden runs, structured-family behavior, per-vertex stable set
extraction, scaling, equivalence with the naive reference coloring, and
certificate tampering.
Run with -rA (or -s) to see the summary lines for passing tests too.
"""

import random
import statistics
import time

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
from meyniel.graph import GenSpec, generate
from meyniel.lexcolor import TieBreak, lex_color
from meyniel.niceset import nice_check
from meyniel.oracle import (
    chromatic_bf,
    is_meyniel_bf,
    is_strong_stable_set,
    omega_bf,
)

from conftest import all_graphs, naive_lex_color, random_graph


def report(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] {name}{tail}"
    print(line)
    assert ok, line


def certified(g, cert):
    """Round-trip through the wire format, which re-runs every verifier."""
    return decode(g, encode(cert)) == cert


def test_exhaustive_six_vertex_sweep():
    t0 = time.perf_counter()
    total = optimal = obstructed = 0
    for g in all_graphs(6):
        cert = robust_solve(g)
        assert certified(g, cert)
        if isinstance(cert, OptimalPair):
            optimal += 1
            k = cert.num_colors
            assert k == chromatic_bf(g) == omega_bf(g), g.edges()
        else:
            obstructed += 1
        total += 1
    elapsed = time.perf_counter() - t0
    report(
        "every graph on 6 vertices gets a verified certificate",
        total == 32768 and elapsed < 120.0,
        f"{total} graphs, {optimal} optimal, {obstructed} obstructed, {elapsed:.1f}s",
    )


def test_random_sweep_with_oracle_cross_checks():
    rng = random.Random(2024)
    bad = 0
    optimal = obstructed = 0
    for t in range(10000):
        n = 7 + t % 6
        p = (t % 9 + 1) / 10
        g = random_graph(rng, n, p)
        cert = robust_solve(g)
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
    report(
        "10000 random graphs: certificates verify, oracles concur",
        bad == 0,
        f"{optimal} optimal, {obstructed} obstructed, {bad} failures",
    )


def test_golden_run_path_complement():
    g = generate(GenSpec(family="builtin", name="p6bar"))
    tb = TieBreak.forced((1, 4, 2, 0, 3, 5))
    trace = lex_color(g, tb)
    ok = tuple(trace.color_of) == (3, 1, 1, 2, 2, 4)
    res = greedy_clique(g, trace)
    ok = ok and res == CliqueFailure(color=1, clique=(5, 0, 3))
    ob = robust_solve(g, tb)
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
    tb = TieBreak.forced((3, 1, 5, 6, 2, 8, 7, 0, 4))
    trace = lex_color(g, tb)
    ok = tuple(trace.color_of) == (3, 2, 1, 1, 2, 1, 3, 2, 3)
    res = greedy_clique(g, trace)
    ok = ok and res == CliqueComplete(clique=(0, 4, 3))
    cert = robust_solve(g, tb)
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
    for _ in range(2000):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.85]))
        for v in range(n):
            res = robust_stable_set(g, v)
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
            findings.append((g.edges(), cls))
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


def test_corrupted_certificates_are_rejected():
    g = generate(GenSpec(family="builtin", name="p6bar"))
    s = generate(GenSpec(family="builtin", name="sec5"))
    opt = robust_solve(s, TieBreak.forced((3, 1, 5, 6, 2, 8, 7, 0, 4)))
    ob = robust_solve(g, TieBreak.forced((1, 4, 2, 0, 3, 5)))
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
