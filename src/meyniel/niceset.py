"""Nice orderings of maximal stable sets.

An ordered maximal stable set s_1, ..., s_k is *nice* when for every
i >= 2 there is no induced four-vertex path t - a - b - s_i in which t
stands for the already-placed part: concretely, no pair a, b with

    a adjacent to some s_j with j < i,
    a and b adjacent,
    b adjacent to s_i,
    a not adjacent to s_i,
    b not adjacent to any s_j with j < i.

Such a pair is returned as a witness; it seeds the odd-path machinery in
the obstruction module.  An outside vertex b can only serve at the
position of its first neighbor in the set, so each neighbor list is
scanned a bounded number of times and the check is linear in n + m.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph
from .record import record


class NotStableSetError(ValueError):
    """The given order contains an adjacent pair."""


class NotMaximalError(ValueError):
    """Some outside vertex has no neighbor in the set."""


@record
class NiceCheckWitness(NamedTuple):
    """The pair (a, b) violating niceness at position `index` (1-based, >= 2)."""

    index: int
    a: int
    b: int


def nice_check(g: Graph, order) -> NiceCheckWitness | None:
    """Check an ordered stable set for niceness.

    Returns None if the order is nice, else the first witness in
    (index, a, b) lexicographic order.  Raises NotStableSetError or
    NotMaximalError (in that precedence) if the input is not a maximal
    stable set, and ValueError for out-of-range or repeated vertices.
    """
    s = tuple(order)
    n = g.n
    if len(set(s)) != len(s):
        raise ValueError("stable set entries must be distinct")
    for v in s:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
    # pos[v]: 1-based position of v in s (0 if v is not a member)
    pos = [0] * n
    for idx, v in enumerate(s, start=1):
        pos[v] = idx
    for u in s:
        later = [pos[w] for w in g.neighbors(u) if pos[w] > pos[u]]
        if later:
            raise NotStableSetError(f"adjacent pair {u}-{s[min(later) - 1]} in stable set")
    # first_s[u]: 1-based position of the first member adjacent to u (0 if none)
    first_s = [0] * n
    for idx, sv in enumerate(s, start=1):
        for u in g.neighbors(sv):
            if first_s[u] == 0:
                first_s[u] = idx
    for u in range(n):
        if not pos[u] and not first_s[u]:
            raise NotMaximalError(f"vertex {u} has no neighbor in the set")

    newly = [[] for _ in range(len(s) + 1)]
    for u in range(n):
        if first_s[u]:
            newly[first_s[u]].append(u)
    # near[u] == i marks u as adjacent to s_i while position i is scanned
    near = [0] * n
    for i in range(2, len(s) + 1):
        if not newly[i]:
            continue
        for u in g.neighbors(s[i - 1]):
            near[u] = i
        best = None
        for b in newly[i]:
            # neighbors ascend, so the first qualifying a is b's smallest
            for a in g.neighbors(b):
                if 0 < first_s[a] < i and near[a] != i:
                    if best is None or (a, b) < best:
                        best = (a, b)
                    break
        if best is not None:
            return NiceCheckWitness(index=i, a=best[0], b=best[1])
    return None
