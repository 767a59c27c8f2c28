"""Staged exercises for the odd-cycle extraction machinery.

The integration fuzzer walks real clique failures one reduction round at
a time and demands a clean validator report at every state.  Since the
rarer closing cases (a chord right at the head of the path) almost never
arise from random graphs, near obstructions are also synthesized
directly, which reaches every closing branch of near_to_obstruction.
"""

import hashlib
import random
from collections import Counter
from itertools import compress, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from meyniel.certify import verify_obstruction
from meyniel.clique import CliqueFailure, greedy_clique
from meyniel.graph import build
from meyniel.lexcolor import ColorTrace, lex_color
from meyniel.obstruction import (
    BadPath,
    InternalInvariantError,
    NearObstruction,
    build_view,
    extract_obstruction,
    find_z,
    initial_bad_path,
    near_to_obstruction,
    reduce_bad_path,
)
from conftest import is_meyniel_bf, p6bar, random_graph


def validate_bad_path(g, trace, view, bp):
    """List every violated bad-path invariant (empty when sound).

    Vertices colored below the view's color play no part in the
    extraction, so none may appear on the path.
    """
    probs = []
    vs = bp.verts
    p = len(vs)
    i = bp.index
    if p < 3 or p % 2 == 0:
        probs.append(f"length {p} not odd and >= 3")
    if len(set(vs)) != p:
        probs.append("repeated vertices")
    if not 2 <= i <= len(view.class_verts):
        probs.append(f"index {i} out of range")
        return probs
    if vs[-1] != view.class_verts[i - 1]:
        probs.append("last vertex is not x_index")
    # class vertices may appear inside the path as leftover landing
    # points, but only from positions beyond the current index; the
    # prefix x_1..x_{i-1} stays untouched
    pos_of = {x: t for t, x in enumerate(view.class_verts, start=1)}
    for v in vs[:-1]:
        if trace.color_of[v] < view.color:
            probs.append(f"vertex {v} was removed")
        if pos_of.get(v, i + 1) < i:
            probs.append(f"prefix class vertex {v} inside the path")
    f1 = view.first_idx[vs[0]]
    if not 1 <= f1 <= i - 1:
        probs.append(f"head attaches at {f1}, not inside prefix")
    for v in vs[1:]:
        fv = view.first_idx[v]
        if 1 <= fv <= i - 1:
            probs.append(f"interior vertex {v} attaches inside prefix at {fv}")
    for t in range(p - 1):
        if not g.has_edge(vs[t], vs[t + 1]):
            probs.append(f"missing path edge {vs[t]}-{vs[t + 1]}")
    mid = bp.chord_mid
    declared = set()
    if mid is not None:
        if not 1 <= mid <= p - 3:
            probs.append(f"chord position {mid} out of range")
        else:
            if not g.has_edge(vs[mid - 1], vs[mid + 1]):
                probs.append("declared chord is not an edge")
            declared.add(frozenset((mid - 1, mid + 1)))
    for s in range(p):
        for t in range(s + 2, p):
            if g.has_edge(vs[s], vs[t]) and frozenset((s, t)) not in declared:
                probs.append(f"undeclared adjacency {vs[s]}-{vs[t]}")
    return probs


def validate_near_obstruction(g, near):
    """List every violated near-obstruction invariant (empty when sound)."""
    probs = []
    w = near.verts
    z = near.apex
    n = len(w)
    if n < 4 or n % 2 == 1:
        probs.append(f"vertex count {n} not even and >= 4")
    if len(set(w)) != n:
        probs.append("repeated vertices")
    if z in w:
        probs.append("apex lies on the path")
    for t in range(n - 1):
        if not g.has_edge(w[t], w[t + 1]):
            probs.append(f"missing path edge {w[t]}-{w[t + 1]}")
    if not g.has_edge(z, w[0]):
        probs.append("apex misses the start")
    if not g.has_edge(z, w[-1]):
        probs.append("apex misses the end")
    mid = near.chord_mid
    declared = set()
    if mid is not None:
        if not 1 <= mid <= n - 3:
            probs.append(f"chord position {mid} out of range")
        else:
            if not g.has_edge(w[mid - 1], w[mid + 1]):
                probs.append("declared chord is not an edge")
            declared.add(frozenset((mid - 1, mid + 1)))
    for s in range(n):
        for t in range(s + 2, n):
            if g.has_edge(w[s], w[t]) and frozenset((s, t)) not in declared:
                probs.append(f"undeclared adjacency {w[s]}-{w[t]}")
    k = near.kind
    if k == 1:
        if mid != 1:
            probs.append("kind 1 needs the chord at w_0..w_2")
        if g.has_edge(z, w[1]) or g.has_edge(z, w[2]):
            probs.append("kind 1 apex must miss w_1 and w_2")
    elif k == 2:
        if mid != 2:
            probs.append("kind 2 needs the chord at w_1..w_3")
        elif g.has_edge(z, w[1]) and g.has_edge(z, w[3]):
            probs.append("kind 2 apex must miss w_1 or w_3")
    elif k == 3:
        if mid == 1:
            probs.append("kind 3 forbids a chord at w_0..w_2")
        if g.has_edge(z, w[1]):
            probs.append("kind 3 apex must miss w_1")
    elif k == 4:
        if mid in (1, 2):
            probs.append("kind 4 forbids a chord touching w_1")
        if not g.has_edge(z, w[1]) or g.has_edge(z, w[2]):
            probs.append("kind 4 apex must hit w_1 and miss w_2")
    else:
        probs.append(f"unknown kind {k}")
    return probs


def staged_extract(g, trace, failure, stats=None):
    """extract_obstruction with a validator audit after every round."""
    view = build_view(g, trace, failure.color)
    bp = initial_bad_path(g, view, failure)
    assert validate_bad_path(g, trace, view, bp) == []
    while True:
        z = find_z(g, trace, view, bp)
        nxt = reduce_bad_path(g, view, bp, z)
        if isinstance(nxt, NearObstruction):
            assert validate_near_obstruction(g, nxt) == []
            if stats is not None:
                stats[f"kind{nxt.kind}"] += 1
            ob = near_to_obstruction(g, nxt)
            assert verify_obstruction(g, ob)
            return ob
        assert nxt.index < bp.index
        assert validate_bad_path(g, trace, view, nxt) == []
        if stats is not None:
            stats["extra_rounds"] += 1
            if nxt.chord_mid is not None:
                stats["chorded_path"] += 1
        bp = nxt


def failures(rng, count, lo=5, hi=12, ps=(0.3, 0.45, 0.6, 0.75)):
    got = 0
    while got < count:
        g = random_graph(rng, rng.randint(lo, hi), rng.choice(ps))
        trace = lex_color(g)
        res = greedy_clique(g, trace)
        if isinstance(res, CliqueFailure):
            got += 1
            yield g, trace, res


def test_staged_fuzz_every_state_validates():
    stats = Counter()
    for g, trace, res in failures(random.Random(3), 260):
        staged = staged_extract(g, trace, res, stats)
        assert staged == extract_obstruction(g, trace, res)
    # the corpus must actually exercise the machinery, not skate past it
    assert stats["kind3"] > 0 and stats["kind4"] > 0
    assert stats["kind2"] > 0
    assert stats["extra_rounds"] > 0


def test_staged_fuzz_larger_denser():
    stats = Counter()
    for g, trace, res in failures(random.Random(12), 120, lo=10, hi=18, ps=(0.55, 0.7)):
        staged_extract(g, trace, res, stats)
    assert stats["extra_rounds"] > 0


def test_extracted_cycle_refutes_meyniel():
    for g, trace, res in failures(random.Random(9), 60, lo=5, hi=10):
        extract_obstruction(g, trace, res)
        assert not is_meyniel_bf(g)


def test_initial_bad_path_shape():
    for g, trace, res in failures(random.Random(21), 80):
        view = build_view(g, trace, res.color)
        bp = initial_bad_path(g, view, res)
        a, b, xh = bp.verts
        assert xh == view.class_verts[bp.index - 1]
        assert bp.index == max(view.first_idx[v] for v in res.clique)
        assert a in res.clique and b in res.clique
        assert not g.has_edge(a, xh)
        assert g.has_edge(b, xh) and view.first_idx[b] == bp.index
        assert bp.chord_mid is None


def test_find_z_matches_definition():
    for g, trace, res in failures(random.Random(33), 80):
        view = build_view(g, trace, res.color)
        bp = initial_bad_path(g, view, res)
        z = find_z(g, trace, view, bp)
        xi = bp.verts[-1]
        cands = [
            u for u in g.neighbors(xi)
            if trace.step_of[u] < trace.step_of[xi]
            and trace.color_of[u] > view.color
            and 1 <= view.first_idx[u] <= bp.index - 1
            and not (g.has_edge(u, bp.verts[0]) and g.has_edge(u, bp.verts[1]))
        ]
        assert z in cands
        assert trace.step_of[z] == min(trace.step_of[u] for u in cands)


@st.composite
def synthetic_nears(draw):
    half = draw(st.integers(2, 6))
    n = 2 * half
    kind = draw(st.sampled_from([1, 2, 3, 4]))
    if kind == 1:
        mid = 1
    elif kind == 2:
        if n < 6:
            n = 6
        mid = 2
    elif kind == 3:
        mid = draw(st.sampled_from([None] + list(range(2, n - 2))))
    else:
        mid = draw(st.sampled_from([None] + list(range(3, n - 2))))

    z = n
    hits = [draw(st.booleans()) for _ in range(n)]
    hits[0] = hits[n - 1] = True
    if kind == 1:
        hits[1] = hits[2] = False
    elif kind == 2:
        if hits[1] and hits[3]:
            hits[draw(st.sampled_from([1, 3]))] = False
    elif kind == 3:
        hits[1] = False
    else:
        hits[1], hits[2] = True, False

    es = [(t, t + 1) for t in range(n - 1)]
    if mid is not None:
        es.append((mid - 1, mid + 1))
    es += [(z, t) for t in range(n) if hits[t]]
    g = build(n + 1, es)
    near = NearObstruction(verts=tuple(range(n)), chord_mid=mid, apex=z, kind=kind)
    return g, near


@given(synthetic_nears())
@settings(max_examples=600)
def test_synthetic_near_always_closes(case):
    g, near = case
    assert validate_near_obstruction(g, near) == []
    ob = near_to_obstruction(g, near)
    assert verify_obstruction(g, ob)
    assert set(ob.cycle) <= set(near.verts) | {near.apex}


def test_synthetic_corpus_reaches_every_kind():
    rng = random.Random(100)
    kinds = Counter()
    for _ in range(400):
        half = rng.randint(2, 6)
        n = 2 * half
        kind = rng.randint(1, 4)
        if kind == 2 and n < 6:
            n = 6
        mid = {1: 1, 2: 2}.get(kind)
        if kind == 3:
            mid = rng.choice([None] + list(range(2, n - 2)))
        elif kind == 4:
            mid = rng.choice([None] + list(range(3, n - 2)))
        hits = [rng.random() < 0.4 for _ in range(n)]
        hits[0] = hits[n - 1] = True
        if kind == 1:
            hits[1] = hits[2] = False
        elif kind == 2 and hits[1] and hits[3]:
            hits[rng.choice([1, 3])] = False
        elif kind == 3:
            hits[1] = False
        elif kind == 4:
            hits[1], hits[2] = True, False
        es = [(t, t + 1) for t in range(n - 1)]
        if mid is not None:
            es.append((mid - 1, mid + 1))
        es += [(n, t) for t in range(n) if hits[t]]
        g = build(n + 1, es)
        near = NearObstruction(tuple(range(n)), mid, n, kind)
        assert validate_near_obstruction(g, near) == []
        ob = near_to_obstruction(g, near)
        assert verify_obstruction(g, ob)
        kinds[kind] += 1
    assert all(kinds[k] > 0 for k in (1, 2, 3, 4))


def synthetic_bad_path(p, mid, hits, fwd):
    """One reduction round built by hand: (g, trace, view, bad path, z).

    The bad path is 0, 1, ..., p-1 at index 3, with the chord at `mid`.
    The class is x_1 = p+1, x_2 = p+2, x_3 = p-1; z = p.  z sees x_3 and
    the path positions in `hits`.  With `fwd`, v_1 attaches at 1 and z
    at 2, so the rewritten path runs forward into x_2; otherwise v_1
    attaches at 2 and z at 1, and it runs backward.  The trace only
    names the class (color 1; every other vertex has color 2): no
    coloring run produced it.
    """
    z, x1, x2, x3 = p, p + 1, p + 2, p - 1
    es = [(t, t + 1) for t in range(p - 1)] + [(z, t) for t in {*hits, x3}]
    if mid is not None:
        es.append((mid - 1, mid + 1))
    es += [(0, x1), (z, x2)] if fwd else [(0, x2), (z, x1)]
    g = build(p + 3, es)
    cls = (x1, x2, x3)
    rest = tuple(range(p - 1)) + (z,)
    order = cls + rest
    step_of = [0] * g.n
    for step, v in enumerate(order, start=1):
        step_of[v] = step
    color_of = tuple(1 if v in cls else 2 for v in range(g.n))
    trace = ColorTrace(order, tuple(step_of), color_of, (cls, rest), 2)
    view = build_view(g, trace, 1)
    return g, trace, view, BadPath(index=3, verts=tuple(range(p)), chord_mid=mid), z


def check_round(g, trace, view, bp, z):
    """Run one round on a sound bad path; the result must be sound too."""
    assert validate_bad_path(g, trace, view, bp) == []
    nxt = reduce_bad_path(g, view, bp, z)
    if isinstance(nxt, NearObstruction):
        assert validate_near_obstruction(g, nxt) == []
        ob = near_to_obstruction(g, nxt)
        assert verify_obstruction(g, ob)
    else:
        assert nxt.index < bp.index
        assert validate_bad_path(g, trace, view, nxt) == []
    return nxt


# Every outcome of reduce_bad_path for an even k with a chord at `mid`,
# on the path vs = 0..8 with z = 9 and x_2 = 11: (mid, hits, forward
# result, backward result).  As there, z's first neighbor on the path is
# vs[k-1]; k = 4, except k = 2 in the last.  A near obstruction does not
# depend on the orientation.
CHORD_OUTCOMES = {
    "splice": (
        2, {3}, BadPath(2, (0, 1, 3, 9, 11), None), BadPath(2, (9, 3, 1, 0, 11), None)),
    "mid=k-1, misses vs[k]": (
        3, {3}, NearObstruction((3, 4, 5, 6, 7, 8), None, 9, 3), None),
    "mid=k-1, hits vs[k], vs[k+1]": (
        3, {3, 4, 5}, BadPath(2, (0, 1, 2, 4, 5, 9, 11), 4), BadPath(2, (9, 5, 4, 2, 1, 0, 11), 1)),
    "mid=k-1, hits vs[k] only": (
        3, {3, 4}, NearObstruction((3, 4, 5, 6, 7, 8), None, 9, 4), None),
    "mid=k, hits vs[k]": (
        4, {3, 4}, BadPath(2, (0, 1, 2, 3, 4, 9, 11), 4), BadPath(2, (9, 4, 3, 2, 1, 0, 11), 1)),
    "mid=k, hits vs[k+1] only": (
        4, {3, 5}, BadPath(2, (0, 1, 2, 3, 5, 9, 11), 4), BadPath(2, (9, 5, 3, 2, 1, 0, 11), 1)),
    "mid=k, misses both": (
        4, {3}, NearObstruction((3, 4, 5, 6, 7, 8), 1, 9, 1), None),
    "mid>k, misses vs[k]": (
        4, {1}, NearObstruction((1, 2, 3, 4, 5, 6, 7, 8), 3, 9, 3), None),
}


@pytest.mark.parametrize("fwd", [True, False], ids=["forward", "backward"])
@pytest.mark.parametrize("outcome", CHORD_OUTCOMES)
def test_chord_outcomes_of_reduce_bad_path(outcome, fwd):
    mid, hits, forward, backward = CHORD_OUTCOMES[outcome]
    want = forward if fwd or backward is None else backward
    assert check_round(*synthetic_bad_path(9, mid, hits, fwd)) == want


def every_near(top):
    """Every sound near obstruction on 4, 6, ..., top path vertices: (g, near).

    The path is 0..n-1 and the apex n.  Each kind comes with every chord
    position it allows and every set of inner vertices its apex may hit.
    """
    for n in range(4, top + 1, 2):
        for kind, mids in ((1, [1]), (2, [2]), (3, [None, *range(2, n - 2)]), (4, [None, *range(3, n - 2)])):
            if kind == 2 and n < 6:
                continue
            for mid, inner in product(mids, product((False, True), repeat=n - 2)):
                hits = (True, *inner, True)
                if (kind == 1 and (hits[1] or hits[2]) or kind == 2 and hits[1] and hits[3]
                        or kind == 3 and hits[1] or kind == 4 and (not hits[1] or hits[2])):
                    continue
                es = [(t, t + 1) for t in range(n - 1)] + [(n, t) for t in range(n) if hits[t]]
                if mid is not None:
                    es.append((mid - 1, mid + 1))
                yield build(n + 1, es), NearObstruction(tuple(range(n)), mid, n, kind)


# sha256 of the repr of every result in the test below, pinned before the
# reduction round and the closing shared their first-touch case split
EVERY_CUT_SHA256 = "7fbd4da663c02d424fb2f3e4392eb8e8ef4aea086002ce4ef8d89710874499e3"


def test_every_small_round_and_closing_is_pinned():
    """Every round of synthetic_bad_path up to 11 vertices and every closing up to 14, exactly."""
    digest = hashlib.sha256()
    rounds = closings = 0
    for p in (3, 5, 7, 9, 11):
        for mid, bits, fwd in product((None, *range(1, p - 2)), product((0, 1), repeat=p - 1), (True, False)):
            g, _, view, bp, z = synthetic_bad_path(p, mid, set(compress(range(p - 1), bits)), fwd)
            digest.update(repr(reduce_bad_path(g, view, bp, z)).encode())
            rounds += 1
    for g, near in every_near(14):
        digest.update(repr(near_to_obstruction(g, near)).encode())
        closings += 1
    assert (rounds, closings) == (22760, 46420)
    assert digest.hexdigest() == EVERY_CUT_SHA256


@st.composite
def synthetic_chorded_rounds(draw):
    """A chorded bad path whose z first touches vs[k-1] for an even k, any outcome.

    z's edges to vs[:decided + 1] fix the outcome; past it they are
    drawn freely.
    """
    p = draw(st.sampled_from([7, 9, 11, 13]))
    case = draw(st.sampled_from(["splice", "k-1", "k", "beyond"]))
    hits = set()
    if case == "splice":
        k = draw(st.sampled_from(range(4, p - 1, 2)))
        mid = draw(st.integers(1, min(k - 2, p - 3)))
        decided = k - 1
    elif case == "beyond":
        k = draw(st.sampled_from(range(2, p - 4, 2)))
        mid = draw(st.integers(k + 1, p - 3))
        decided = k  # z misses vs[k]
    else:
        k = draw(st.sampled_from(range(2, p - 2, 2)))
        mid = k - 1 if case == "k-1" else k
        decided = k + 1
        hits = {t for t in (k, k + 1) if draw(st.booleans())}
    hits |= {k - 1} | {t for t in range(decided + 1, p - 1) if draw(st.booleans())}
    return synthetic_bad_path(p, mid, hits, draw(st.booleans()))


@given(synthetic_chorded_rounds())
@settings(max_examples=400)
def test_synthetic_chorded_round_is_sound(case):
    check_round(*case)


def test_apex_touching_no_later_path_vertex_is_an_invariant_failure():
    """A missing first touch raises InternalInvariantError, not a bare StopIteration."""
    g = build(5, [(0, 1), (1, 2), (2, 3), (4, 0)])  # the apex sees w_0 only
    with pytest.raises(InternalInvariantError, match="touches the path nowhere"):
        near_to_obstruction(g, NearObstruction((0, 1, 2, 3), None, 4, 3))
    g, trace, view, bp, z = synthetic_bad_path(5, None, set(), True)
    x2 = 7  # adjacent to z alone, so to no path vertex
    with pytest.raises(InternalInvariantError, match="touches the path nowhere"):
        reduce_bad_path(g, view, bp, x2)


def test_unknown_near_obstruction_kind_is_an_invariant_failure():
    g = build(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 3)])
    with pytest.raises(InternalInvariantError, match="unknown near obstruction kind 5"):
        near_to_obstruction(g, NearObstruction((0, 1, 2, 3), None, 4, 5))


class TestValidatorsCatchCorruption:
    def near_fixture(self):
        # 4-path 0-1-2-3 with apex 4 on both ends, kind 3
        g = build(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 3)])
        return g, NearObstruction(verts=(0, 1, 2, 3), chord_mid=None, apex=4, kind=3)

    def test_fixture_is_clean(self):
        g, near = self.near_fixture()
        assert validate_near_obstruction(g, near) == []
        ob = near_to_obstruction(g, near)
        assert verify_obstruction(g, ob)
        assert set(ob.cycle) == {0, 1, 2, 3, 4}

    def test_wrong_kind(self):
        g, near = self.near_fixture()
        probs = validate_near_obstruction(g, near._replace(kind=4))
        assert any("kind 4 apex" in pr for pr in probs)

    def test_apex_on_path(self):
        g, near = self.near_fixture()
        probs = validate_near_obstruction(g, near._replace(apex=0))
        assert "apex lies on the path" in probs

    def test_odd_path(self):
        g, near = self.near_fixture()
        probs = validate_near_obstruction(g, near._replace(verts=(0, 1, 2)))
        assert any("not even" in pr for pr in probs)

    def test_phantom_chord(self):
        g, near = self.near_fixture()
        probs = validate_near_obstruction(g, near._replace(chord_mid=1, kind=1))
        assert "declared chord is not an edge" in probs

    def test_broken_path_edge(self):
        g, near = self.near_fixture()
        probs = validate_near_obstruction(g, near._replace(verts=(0, 1, 3, 2)))
        assert any("missing path edge" in pr for pr in probs)

    def test_undeclared_adjacency(self):
        g = build(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 3), (0, 2)])
        near = NearObstruction(verts=(0, 1, 2, 3), chord_mid=None, apex=4, kind=3)
        probs = validate_near_obstruction(g, near)
        assert any("undeclared adjacency 0-2" in pr for pr in probs)

    def test_bad_path_validator(self):
        g, trace, res = next(failures(random.Random(2), 1))
        view = build_view(g, trace, res.color)
        bp = initial_bad_path(g, view, res)
        assert validate_bad_path(g, trace, view, bp) == []
        assert any("not odd" in pr
                   for pr in validate_bad_path(g, trace, view, bp._replace(verts=bp.verts[:2])))
        assert any("chord position" in pr or "declared chord" in pr
                   for pr in validate_bad_path(g, trace, view, bp._replace(chord_mid=1)))
        assert any("out of range" in pr
                   for pr in validate_bad_path(g, trace, view, bp._replace(index=0)))
        # head must attach strictly inside the prefix
        swapped = bp._replace(verts=(bp.verts[1], bp.verts[0]) + bp.verts[2:])
        assert validate_bad_path(g, trace, view, swapped) != []


def test_golden_forced_run():
    # complement of the 6-path: the stuck clique sits at color 1 and the
    # machinery returns the 5-wheel-ish odd cycle on the other vertices
    g = p6bar()
    trace = lex_color(g, (1, 4, 2, 0, 3, 5))
    res = greedy_clique(g, trace)
    assert res == CliqueFailure(color=1, clique=(5, 0, 3))
    ob = staged_extract(g, trace, res)
    assert set(ob.cycle) == {0, 1, 2, 3, 4}
    assert ob.chord == (0, 4)
