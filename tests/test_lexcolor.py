"""The coloring is checked against a slow dense replay of its own rules:
labels recomputed from scratch each step, lex-maximality verified by direct
vector comparison, colors by explicit mex.  No packed keys, no heap.  Whole
traces are also compared with the naive rescanning reference in conftest."""

import random
from heapq import heapify
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from meyniel.gen import generate, GenSpec
from meyniel.graph import build
from meyniel import lexcolor
from meyniel.lexcolor import (
    ColorTrace,
    ForcedOrderError,
    lex_color,
)

from conftest import edge_list, graphs, naive_lex_color, random_graph, random_legal_order


def _revlex_dense(a, b):
    for c in range(max(len(a), len(b)) - 1, -1, -1):
        av = a[c] if c < len(a) else 0
        bv = b[c] if c < len(b) else 0
        if av != bv:
            return 1 if av > bv else -1
    return 0


def replay_and_check(g, trace, check_choice=True, any_tie=False):
    n = g.n
    assert sorted(trace.order) == list(range(n))
    labels = [[0] * (n + 1) for _ in range(n)]
    colored = [False] * n
    for step, x in enumerate(trace.order, start=1):
        assert trace.step_of[x] == step
        if check_choice:
            for v in range(n):
                if colored[v] or v == x:
                    continue
                cmp = _revlex_dense(labels[x], labels[v])
                assert cmp >= 0, f"step {step}: {v} outranks chosen {x}"
                if cmp == 0 and not any_tie:
                    assert x < v, f"step {step}: tie broken upward to {x} over {v}"
        nbr_cols = {trace.color_of[u] for u in g.neighbors(x) if colored[u]}
        mex = 1
        while mex in nbr_cols:
            mex += 1
        assert trace.color_of[x] == mex
        colored[x] = True
        for y in g.neighbors(x):
            c = trace.color_of[x]
            if not colored[y] and labels[y][c - 1] == 0:
                labels[y][c - 1] = n - step
    by_color = {}
    for x in trace.order:
        by_color.setdefault(trace.color_of[x], []).append(x)
    assert trace.num_colors == (max(by_color) if by_color else 0)
    assert trace.classes == tuple(
        tuple(by_color[c]) for c in range(1, trace.num_colors + 1)
    )


@given(graphs(max_n=10))
@settings(max_examples=300)
def test_default_run_matches_dense_replay(g):
    replay_and_check(g, lex_color(g))


@given(graphs(max_n=14))
@settings(max_examples=300)
def test_strategies_agree(g):
    """The engine traces exactly like the naive reference, ascending and anchored."""
    assert lex_color(g) == naive_lex_color(g)
    for v in range(g.n):
        assert lex_color(g, (v,)) == naive_lex_color(g, (v,))


def test_random_lex_maximal_orders_are_accepted():
    rng = random.Random(5)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        order = random_legal_order(g, rng)
        trace = lex_color(g, order)
        assert list(trace.order) == order
        replay_and_check(g, trace, any_tie=True)
        assert trace == naive_lex_color(g, order)


def _outcome(color, g, order):
    try:
        return color(g, order)
    except ForcedOrderError as exc:
        return (exc.step, exc.vertex, exc.competitor)


def test_illegal_forced_orders_fail_like_reference():
    rng = random.Random(6)
    failures = 0
    for t in range(600):
        g = random_graph(rng, rng.randint(2, 25), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        if t % 2:
            order = list(range(g.n))
            rng.shuffle(order)
        else:
            # a legal order with two positions swapped fails late, if at all
            order = random_legal_order(g, rng)
            i, j = rng.sample(range(g.n), 2)
            order[i], order[j] = order[j], order[i]
        got = _outcome(lex_color, g, order)
        assert got == _outcome(naive_lex_color, g, order)
        failures += type(got) is tuple  # ColorTrace is a tuple subclass
    assert failures > 300


def _layout_edge_graphs():
    """Graphs at the edges of the packed key layout.

    G(150, 1/2) plus an isolated last vertex has keys of many 30-bit
    digits and rebuilds its heap again and again, while that vertex keeps
    the key 0 until the last step.  In K_60 every step is a tie that only
    the tie-break bits decide.  At n = 2**k - 1, 2**k and 2**k + 1 the
    largest tie-break n - 1 fills its w-bit field but for one value,
    leaves the top bit unused, or sets the top bit alone.
    """
    rng = random.Random(11)
    yield build(151, edge_list(random_graph(rng, 150, 0.5)))
    yield build(60, list(combinations(range(60), 2)))
    for n in (0, 1) + tuple(2**k + d for k in (2, 3, 5, 6) for d in (-1, 0, 1)):
        yield build(n, list(combinations(range(n), 2)))
        yield random_graph(rng, n, 0.5)


def test_packed_layout_at_its_edges(monkeypatch):
    rebuilds = []
    monkeypatch.setattr(lexcolor, "heapify", lambda h: (rebuilds.append(len(h)), heapify(h)))
    rng = random.Random(12)
    failures = 0
    for g in _layout_edge_graphs():
        rebuilds.clear()
        trace = lex_color(g)
        assert trace == naive_lex_color(g)
        if g.n == 151:
            # keys of 5 digits or more, and the heap rebuilt again and again
            assert trace.num_colors * g.n.bit_length() > 5 * 30
            assert len(rebuilds) >= 5
        for v in sorted({0, g.n // 2, g.n - 1} & set(range(g.n))):
            assert lex_color(g, (v,)) == naive_lex_color(g, (v,))
        for _ in range(4 if g.n >= 2 else 0):
            order = random_legal_order(g, rng)
            i, j = rng.sample(range(g.n), 2)
            order[i], order[j] = order[j], order[i]
            got = _outcome(lex_color, g, order)
            assert got == _outcome(naive_lex_color, g, order)
            failures += type(got) is tuple
    assert failures > 30


def test_forced_order_runs_and_errors():
    g = generate(GenSpec(family="builtin", name="p6bar"))
    trace = lex_color(g, (1, 4, 2, 0, 3, 5))
    assert trace.order == (1, 4, 2, 0, 3, 5)
    replay_and_check(g, trace, check_choice=False)
    # u is a non-neighbor of v, so its label is still empty at step 2
    with pytest.raises(ForcedOrderError) as exc:
        lex_color(g, (1, 0, 2, 3, 4, 5))
    assert exc.value.step == 2
    assert exc.value.vertex == 0
    assert exc.value.competitor == 3


def test_forced_order_must_be_permutation():
    """`first` lists distinct vertices of g; a legal proper prefix is enough."""
    g = build(3, [(0, 1)])
    for bad in ((0, 1, 1), (0, 3), (-1,), (2, -3)):
        with pytest.raises(ValueError):
            lex_color(g, bad)
        with pytest.raises(ValueError):
            naive_lex_color(g, bad)
    for prefix in ((0, 1), (2,), (1, 0)):
        trace = lex_color(g, prefix)
        assert trace.order[:len(prefix)] == prefix
        assert trace == naive_lex_color(g, prefix)


@given(graphs(min_n=1, max_n=10), st.integers(0, 9))
def test_anchored_starts_at_anchor(g, v):
    if v >= g.n:
        return
    trace = lex_color(g, (v,))
    assert trace.order[0] == v
    assert trace.color_of[v] == 1
    replay_and_check(g, trace, check_choice=False)


def test_anchor_out_of_range():
    g = build(2, [])
    for v in (2, -1):
        with pytest.raises(ValueError):
            lex_color(g, (v,))


def test_trace_class_of():
    g = build(3, [(0, 1)])
    trace = lex_color(g)
    assert isinstance(trace, ColorTrace)
    assert trace.class_of(1) == trace.classes[0]
    with pytest.raises(ValueError):
        trace.class_of(0)
    with pytest.raises(ValueError):
        trace.class_of(trace.num_colors + 1)
