"""Lexicographic greedy coloring driven by per-color labels.

Vertices are colored one per step.  Every uncolored vertex x carries a
label vector over colors: label_x(c) stays 0 until the first neighbor of
x receives color c, at which point it freezes to n - i, where i is the
1-based step of that neighbor.  Each step selects an uncolored vertex
whose label vector is maximal in reverse lexicographic order (the highest
color at which two vectors differ decides), gives it the smallest color
absent from its colored neighborhood, and updates the labels of its
uncolored neighbors.  After the vertices of `first`, ties go to the
lowest index.

The whole label vector of x is packed into one int key: label_x(c) sits
in bits (c-1)*w .. c*w-1 with w = n.bit_length().  Every label value is
at most n - 1 < 2**w, so fields never carry into each other, and the
reverse lexicographic order of the vectors is exactly the order of the
keys.  The uncolored vertices sit in a heap of (-key, v) entries; a
label update pushes a fresh entry and leaves the old one to be dropped
when it surfaces.  Keys only grow, so the freshest entry of a vertex is
also its best one, and the heap top is the lowest-index lex-maximal
vertex.  Stale entries can outnumber live ones a hundredfold on dense
graphs, so the heap is rebuilt from the live keys whenever it passes 3n
entries.

Each vertex also keeps a bitmask of the colors on its colored
neighbors.  It is exact: every neighbor colored before x was colored
while x was still uncolored, and at that moment set its color's bit on
x.  So the free color of x is the lowest zero bit of its mask, and the
same bit tells whether label_x(c) is still 0.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .graph import Graph
from .record import record


class ForcedOrderError(ValueError):
    """A forced coloring order picked a vertex that is not lex-maximal."""

    def __init__(self, step: int, vertex: int, competitor: int):
        super().__init__(
            f"forced vertex {vertex} at step {step} is not lex-maximal: "
            f"vertex {competitor} has a strictly greater label"
        )
        self.step = step
        self.vertex = vertex
        self.competitor = competitor


@record
class ColorTrace(NamedTuple):
    """Full record of one coloring run.

    order: vertices in coloring order.
    step_of: vertex -> 1-based step at which it was colored.
    color_of: vertex -> color in 1..num_colors.
    classes: classes[c-1] is the tuple of vertices with color c, in
        coloring order.
    """

    order: tuple[int, ...]
    step_of: tuple[int, ...]
    color_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    num_colors: int

    def class_of(self, color: int) -> tuple[int, ...]:
        if not 1 <= color <= self.num_colors:
            raise ValueError(f"color {color} out of range")
        return self.classes[color - 1]


def lex_color(g: Graph, first: tuple[int, ...] = ()) -> ColorTrace:
    """Color g greedily under the label order; returns the full trace.

    The vertices of `first` are colored first, in the order given.
    Raises ForcedOrderError if one of them is not lex-maximal at its
    step (at step 1 every vertex is), and ValueError unless `first`
    lists distinct vertices of g.
    """
    n = g.n
    if len(set(first)) != len(first):
        raise ValueError("first repeats a vertex")
    for v in first:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
    forced = len(first)
    w = n.bit_length()
    key = [0] * n
    used = [0] * n  # bit c-1 set iff a colored neighbor has color c
    color_of = [0] * n
    step_of = [0] * n
    order: list[int] = []
    heap = [(0, v) for v in range(n)]
    for i in range(1, n + 1):
        nk, top = heap[0]
        while -nk != key[top]:
            heappop(heap)
            nk, top = heap[0]
        if i <= forced:
            x = first[i - 1]
            if key[x] < -nk:
                raise ForcedOrderError(i, x, top)
        else:
            x = top
        mask = used[x]
        bit = ~mask & (mask + 1)
        c = bit.bit_length()
        color_of[x] = c
        step_of[x] = i
        order.append(x)
        # x stays in the heap: key -1 makes all its entries stale, and
        # mask -1 (every bit set) keeps the updates below off it
        key[x] = used[x] = -1
        add = (n - i) << ((c - 1) * w)
        for y in g.neighbors(x):
            if not used[y] & bit:
                used[y] |= bit
                k = key[y] + add
                key[y] = k
                heappush(heap, (-k, y))
        if len(heap) > 3 * n:
            # drop the stale entries: O(n) work that leaves at most n
            # entries, so at least 2n pushes pass before the next rebuild
            heap = [(-k, v) for v, k in enumerate(key) if k >= 0]
            heapify(heap)
    return _make_trace(order, color_of, step_of)


def _make_trace(order: list[int], color_of: list[int], step_of: list[int]) -> ColorTrace:
    num_colors = max(color_of, default=0)
    classes: list[list[int]] = [[] for _ in range(num_colors)]
    for v in order:
        classes[color_of[v] - 1].append(v)
    return ColorTrace(
        order=tuple(order),
        step_of=tuple(step_of),
        color_of=tuple(color_of),
        classes=tuple(tuple(cl) for cl in classes),
        num_colors=num_colors,
    )
