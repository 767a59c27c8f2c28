import itertools
import random
from bisect import insort

import hypothesis.strategies as st

from meyniel.graph import Graph, build
from meyniel.lexcolor import ColorTrace, ForcedOrderError, TieBreak


@st.composite
def graphs(draw, min_n=0, max_n=12):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return build(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return build(n, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build(n, edges)


def all_graphs(n: int):
    """Every graph on n labeled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield build(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def naive_lex_color(g: Graph, tb: TieBreak | None = None) -> ColorTrace:
    """Reference coloring: rescan every uncolored vertex at every step.

    Labels are sparse (color, value) lists sorted by descending color;
    all stored values are nonzero, so plain list order is the reverse
    lexicographic order of the dense vectors.  Quadratic in n, and kept
    here only as the trace every test of `lex_color` compares against.
    """
    tb = tb or TieBreak.ascending()
    n = g.n
    labs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    color_of = [0] * n
    step_of = [0] * n
    order: list[int] = []
    for i in range(1, n + 1):
        best = -1
        for v in range(n):
            if color_of[v] == 0 and (best < 0 or labs[v] > labs[best]):
                best = v
        if tb.mode == "forced":
            x = tb.order[i - 1]
            if labs[x] < labs[best]:
                raise ForcedOrderError(i, x, best)
        elif tb.mode == "anchored" and i == 1:
            x = tb.anchor
        else:
            x = best
        taken = {color_of[y] for y in g.neighbors(x)}
        c = 1
        while c in taken:
            c += 1
        color_of[x] = c
        step_of[x] = i
        order.append(x)
        for y in g.neighbors(x):
            if color_of[y] == 0 and all(col != c for col, _ in labs[y]):
                insort(labs[y], (c, n - i), key=lambda e: -e[0])
    num_colors = max(color_of, default=0)
    classes = tuple(
        tuple(v for v in order if color_of[v] == k) for k in range(1, num_colors + 1)
    )
    return ColorTrace(
        order=tuple(order),
        step_of=tuple(step_of),
        color_of=tuple(color_of),
        classes=classes,
        num_colors=num_colors,
    )
