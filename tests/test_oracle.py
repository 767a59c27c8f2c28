import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from meyniel.gen import generate, GenSpec
from meyniel.graph import build, to_dimacs

from conftest import (
    OracleSizeError,
    _bits,
    _neighbor_mask,
    chromatic_bf,
    edge_list,
    graphs,
    is_meyniel_bf,
    is_stable_set,
    is_strong_stable_set,
    maximal_cliques,
    omega_bf,
    p6bar,
    random_graph,
    sec5,
)


def cycle(n, chords=()):
    return build(n, [(i, (i + 1) % n) for i in range(n)] + list(chords))


def complete(n):
    return build(n, list(itertools.combinations(range(n), 2)))


def test_chromatic_known_values():
    assert chromatic_bf(build(0, [])) == 0
    assert chromatic_bf(build(4, [])) == 1
    assert chromatic_bf(cycle(5)) == 3
    assert chromatic_bf(cycle(6)) == 2
    assert chromatic_bf(complete(7)) == 7
    petersen = build(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                          (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                          (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])
    assert chromatic_bf(petersen) == 3


def test_omega_known_values():
    assert omega_bf(build(0, [])) == 0
    assert omega_bf(build(3, [])) == 1
    assert omega_bf(cycle(5)) == 2
    assert omega_bf(complete(6)) == 6
    # K4 plus a tail
    assert omega_bf(build(6, list(itertools.combinations(range(4), 2)) + [(3, 4), (4, 5)])) == 4


@given(graphs(max_n=10))
@settings(max_examples=200)
def test_omega_agrees_with_clique_listing(g):
    cliques = maximal_cliques(g)
    assert omega_bf(g) == max((len(q) for q in cliques), default=0)


def naive_maximal_cliques(g):
    out = []
    for r in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if any(not g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                continue
            ext = [w for w in range(g.n)
                   if w not in sub and all(g.has_edge(w, u) for u in sub)]
            if not ext:
                out.append(sub)
    return sorted(out)


@given(graphs(max_n=8))
@settings(max_examples=150)
def test_maximal_cliques_vs_naive(g):
    assert sorted(maximal_cliques(g)) == naive_maximal_cliques(g)


def test_stable_set_checks():
    g = cycle(5)
    assert is_stable_set(g, [0, 2])
    assert not is_stable_set(g, [0, 1])
    with pytest.raises(ValueError):
        is_stable_set(g, [0, 0])
    with pytest.raises(ValueError):
        is_stable_set(g, [0, 9])


def test_strong_stable_set():
    p4 = build(4, [(0, 1), (1, 2), (2, 3)])
    assert is_strong_stable_set(p4, [0, 2])
    assert not is_strong_stable_set(p4, [0, 3])  # misses the middle edge
    c5 = cycle(5)
    assert not is_strong_stable_set(c5, [0, 2])
    with pytest.raises(ValueError, match="not a stable set"):
        is_strong_stable_set(c5, [0, 1])
    assert is_strong_stable_set(build(0, []), [])


def meyniel_ref(g):
    """Check every odd cycle directly via permutation enumeration."""
    n = g.n
    for size in range(5, n + 1, 2):
        for sub in itertools.combinations(range(n), size):
            for perm in itertools.permutations(sub[1:]):
                if perm[0] > perm[-1]:
                    continue  # each cycle once per orientation
                cyc = (sub[0],) + perm
                if not all(g.has_edge(cyc[i], cyc[(i + 1) % size]) for i in range(size)):
                    continue
                chords = sum(
                    1
                    for i in range(size)
                    for j in range(i + 2, size)
                    if not (i == 0 and j == size - 1) and g.has_edge(cyc[i], cyc[j])
                )
                if chords <= 1:
                    return False
    return True


def test_meyniel_known_cases():
    assert not is_meyniel_bf(cycle(5))
    assert not is_meyniel_bf(cycle(7))
    assert not is_meyniel_bf(cycle(5, [(0, 2)]))
    assert is_meyniel_bf(cycle(5, [(0, 2), (0, 3)]))
    assert is_meyniel_bf(cycle(6))  # no odd cycles at all
    assert is_meyniel_bf(complete(6))
    # two chords on C7 can still leave a chordless 5-cycle inside
    assert not is_meyniel_bf(cycle(7, [(0, 2), (0, 3)]))
    assert not is_meyniel_bf(p6bar())
    # sec5 solves without a hitch but is not itself chord-rich: a-d-b-i-h
    # (0-3-1-8-7) is a chordless 5-cycle
    assert not is_meyniel_bf(sec5())


def test_meyniel_vs_permutation_reference():
    rng = random.Random(7)
    for _ in range(250):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        assert is_meyniel_bf(g) == meyniel_ref(g), edge_list(g)


def test_chordal_and_bipartite_are_meyniel():
    rng = random.Random(19)
    for fam in ("chordal", "bipartite"):
        for seed in range(40):
            g = generate(GenSpec(family=fam, n=rng.randint(1, 10), seed=seed))
            assert is_meyniel_bf(g)


def test_size_guards():
    with pytest.raises(OracleSizeError):
        chromatic_bf(build(15, []))
    with pytest.raises(OracleSizeError):
        omega_bf(build(21, []))
    with pytest.raises(OracleSizeError):
        maximal_cliques(build(31, []))
    with pytest.raises(OracleSizeError):
        is_strong_stable_set(build(31, []), [])
    with pytest.raises(OracleSizeError):
        is_meyniel_bf(build(11, []))


@given(graphs(max_n=8), st.integers(0, 7))
def test_neighbor_mask_matches_neighbors(g, v):
    if v >= g.n:
        return
    mask = _neighbor_mask(g, v)
    assert [u for u in range(g.n) if mask >> u & 1] == list(g.neighbors(v))
    assert list(_bits(mask)) == list(g.neighbors(v))


def test_golden_shapes():
    # complement of the 6-path u-v-w-x-y-z
    g = p6bar()
    assert g.n == 6 and g.m == 15 - 5
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)
    s = sec5()
    assert s.n == 9 and s.m == 15
    for tri in ((0, 3, 4), (1, 5, 6), (2, 7, 8)):
        a, b, c = tri
        assert s.has_edge(a, b) and s.has_edge(a, c) and s.has_edge(b, c)


def test_goldens_are_pinned():
    """sha256 of each golden's DIMACS text, taken while `meyniel gen` still built them."""
    for make, digest in (
        (p6bar, "5ae7aa7a0c32684dcd3358311b439c0d4dc09325609ac865746e48a11982942d"),
        (sec5, "b79dd7784d1021e3892a61492a424d66de6ea1a32438744c5bcca6ab130f81d4"),
    ):
        assert hashlib.sha256(to_dimacs(make()).encode()).hexdigest() == digest, make.__name__
