"""Greedy clique extraction over the color classes of a trace.

Colors are processed from highest to lowest, keeping a clique q with one
vertex per processed color.  For each color the candidate maximizing
|N(x) ∩ q| is chosen (ties by lowest vertex index); a per-vertex counter
incremented along chosen vertices' neighborhoods makes that O(n + m)
overall.  A candidate adjacent to all of q has counter exactly |q|; the
first color where even the maximizer falls short stops the run, and that
failure is the entry point for obstruction extraction.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph
from .lexcolor import ColorTrace
from .record import record


@record
class CliqueComplete(NamedTuple):
    """One vertex per color, pairwise adjacent; listed from the top color down."""

    clique: tuple[int, ...]


@record
class CliqueFailure(NamedTuple):
    """No vertex of `color` is adjacent to all of `clique` (one vertex per higher color)."""

    color: int
    clique: tuple[int, ...]


def greedy_clique(g: Graph, trace: ColorTrace) -> CliqueComplete | CliqueFailure:
    """Run the greedy over trace's color classes, top color first."""
    return greedy_clique_over(g, trace.classes)


def greedy_clique_over(g: Graph, classes) -> CliqueComplete | CliqueFailure:
    """Same greedy over any explicit list of color classes (1-based by position)."""
    cnt = [0] * g.n
    q: list[int] = []
    for c in range(len(classes), 0, -1):
        best = -1
        for v in sorted(classes[c - 1]):
            if best < 0 or cnt[v] > cnt[best]:
                best = v
        if cnt[best] < len(q):
            return CliqueFailure(color=c, clique=tuple(q))
        q.append(best)
        for y in g.neighbors(best):
            cnt[y] += 1
    return CliqueComplete(clique=tuple(q))
