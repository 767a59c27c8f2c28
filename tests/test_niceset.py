import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from meyniel.graph import build
from meyniel.lexcolor import lex_color
from meyniel.niceset import NiceCheckWitness, NotMaximalError, NotStableSetError, nice_check

from conftest import edge_list, graphs, is_strong_stable_set, quadratic_nice_check, random_graph


def prefix_adjacent(g, order, i, u):
    """Is u adjacent to one of the first i vertices of `order`?"""
    return any(g.has_edge(u, s) for s in order[:i])


def naive_witness(g, s):
    """Quartic restatement of the definition, for cross-checking."""
    k = len(s)
    for i in range(2, k + 1):
        si = s[i - 1]
        for a in range(g.n):
            if not prefix_adjacent(g, s, i - 1, a) or g.has_edge(a, si):
                continue
            for b in range(g.n):
                if (g.has_edge(b, si)
                        and not prefix_adjacent(g, s, i - 1, b)
                        and g.has_edge(a, b)):
                    return NiceCheckWitness(index=i, a=a, b=b)
    return None


def random_ordered_mss(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    s = []
    for v in perm:
        if all(not g.has_edge(v, u) for u in s):
            s.append(v)
    rng.shuffle(s)
    return s


@given(graphs(max_n=10), st.integers(0, 2 ** 30))
@settings(max_examples=400)
def test_matches_naive_reference(g, seed):
    if g.n == 0:
        return
    s = random_ordered_mss(random.Random(seed), g)
    assert nice_check(g, s) == naive_witness(g, s)


@given(graphs(max_n=10), st.integers(0, 2 ** 30))
@settings(max_examples=400)
def test_nice_implies_strong(g, seed):
    if g.n == 0:
        return
    s = random_ordered_mss(random.Random(seed), g)
    if nice_check(g, s) is None:
        assert is_strong_stable_set(g, s)


def check_outcome(check, g, order):
    """The witness, or the type and message of the error raised."""
    try:
        return check(g, order)
    except ValueError as exc:
        return type(exc), str(exc)


def test_matches_quadratic_reference():
    rng = random.Random(8)
    witnesses = errors = 0
    for _ in range(1500):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.choice([0.05, 0.15, 0.3, 0.5, 0.8]))
        orders = [lex_color(g, (rng.randrange(n),)).class_of(1),
                  random_ordered_mss(rng, g)]
        # not stable, not maximal, repeated or out of range
        broken = random_ordered_mss(rng, g) + [rng.randrange(n + 1), rng.randrange(n)]
        rng.shuffle(broken)
        orders += [broken, orders[1][:-1]]
        for order in orders:
            got = check_outcome(nice_check, g, order)
            assert got == check_outcome(quadratic_nice_check, g, order), (edge_list(g), order)
            witnesses += isinstance(got, NiceCheckWitness)
            errors += type(got) is tuple  # NiceCheckWitness is a tuple subclass
    assert witnesses > 100 and errors > 1000


def test_first_witness_on_path():
    # 0-1-2-3 path ordered (0, 3): 1 hangs off the prefix, 2 is new at step 2
    g = build(4, [(0, 1), (1, 2), (2, 3)])
    assert nice_check(g, (0, 3)) == NiceCheckWitness(index=2, a=1, b=2)
    # the other end-pair order is symmetric
    assert nice_check(g, (3, 0)) == NiceCheckWitness(index=2, a=2, b=1)
    # interleaved stable set {0, 2} is nice
    assert nice_check(g, (0, 2)) is None


def test_error_precedence():
    g = build(4, [(0, 1)])
    # (0, 1) is adjacent and leaves 2, 3 uncovered: stability wins
    with pytest.raises(NotStableSetError):
        nice_check(g, (0, 1))
    with pytest.raises(NotMaximalError):
        nice_check(g, (0,))


def test_input_validation():
    g = build(3, [])
    with pytest.raises(ValueError, match="distinct"):
        nice_check(g, (0, 0, 1, 2))
    with pytest.raises(ValueError, match="out of range"):
        nice_check(g, (0, 3))


def test_prefix_adjacent():
    g = build(4, [(0, 1), (2, 3)])
    order = (0, 2)
    assert prefix_adjacent(g, order, 1, 1)
    assert not prefix_adjacent(g, order, 1, 3)
    assert prefix_adjacent(g, order, 2, 3)
    assert not prefix_adjacent(g, order, 2, 0)
