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

The whole label vector of x and its tie-break are packed into one int:
label_x(c) sits in bits c*w .. (c+1)*w-1 with w = n.bit_length(), and
n - 1 - x in bits 0 .. w-1.  Every field value is at most n - 1 < 2**w,
so fields never carry into each other, and the order of the ints is the
reverse lexicographic order of the vectors, ties to the lower index.
The key of x is that int negated, or 1 once x is colored, and the heap
holds the keys themselves: a label update stores a new key and pushes
the same int, leaving the old one to be dropped when it surfaces.  Keys
only fall, so an entry is live iff it equals its vertex's key, and the
live top is the lex-maximal vertex.  Stale entries pile up on dense
graphs (250,108 pushes against 2,140 pops on the benchmark's G(2000,
1/2)), so the heap is rebuilt from the live keys whenever it passes 3n
entries, 52 times there.

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
    low = (1 << w) - 1
    # uncolored v: -(label_v << w | (n - 1 - v)); colored v: 1
    nkey = list(range(1 - n, 1))
    used = [0] * n  # bit c-1 set iff a colored neighbor has color c
    color_of = [0] * n
    step_of = [0] * n
    order: list[int] = []
    heap = nkey[:]
    for i in range(1, n + 1):
        e = heap[0]
        top = n - 1 - (-e & low)
        while e != nkey[top]:
            heappop(heap)
            e = heap[0]
            top = n - 1 - (-e & low)
        if i <= forced:
            x = first[i - 1]
            if -nkey[x] >> w < -e >> w:
                raise ForcedOrderError(i, x, top)
        else:
            x = top
        mask = used[x]
        bit = ~mask & (mask + 1)
        c = bit.bit_length()
        color_of[x] = c
        step_of[x] = i
        order.append(x)
        # x stays in the heap: key 1 matches none of its entries, and
        # mask -1 (every bit set) keeps the updates below off it
        nkey[x], used[x] = 1, -1
        add = (n - i) << (c * w)
        for y in g.neighbors(x):
            if not used[y] & bit:
                used[y] |= bit
                k = nkey[y] - add
                nkey[y] = k
                heappush(heap, k)
        if len(heap) > 3 * n:
            # drop the stale entries: O(n) work that leaves at most n
            # entries, so at least 2n pushes pass before the next rebuild
            heap = [k for k in nkey if k <= 0]
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
