"""Small brute-force reference implementations.

These exist to cross-check the fast certifying pipeline on small
instances, so they trade speed for obviousness and share nothing with
it.  Each entry point guards its input size explicitly; the limits are
where exhaustive search stops being comfortable, not hard walls.
"""

from __future__ import annotations

from .graph import Graph


class OracleSizeError(ValueError):
    """Instance too large for the requested brute-force computation."""


def _guard(g: Graph, limit: int, what: str) -> None:
    if g.n > limit:
        raise OracleSizeError(f"{what} is limited to {limit} vertices, got {g.n}")


def _neighbor_mask(g: Graph, v: int) -> int:
    """Neighbors of v as a bitmask int (bit u set iff uv is an edge)."""
    mask = 0
    for u in g.neighbors(v):
        mask |= 1 << u
    return mask


def chromatic_bf(g: Graph) -> int:
    """Exact chromatic number by backtracking, up to 14 vertices."""
    _guard(g, 14, "chromatic_bf")
    n = g.n
    if n == 0:
        return 0
    if g.m == 0:
        return 1
    order = sorted(range(n), key=lambda v: -g.degree(v))
    col = [0] * n

    def fits(idx: int, k: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        forb = 0
        for u in g.neighbors(v):
            forb |= 1 << col[u]
        cap = min(k, used + 1)
        for c in range(1, cap + 1):
            if forb >> c & 1:
                continue
            col[v] = c
            if fits(idx + 1, k, max(used, c)):
                return True
            col[v] = 0
        return False

    for k in range(1, n + 1):
        if fits(0, k, 0):
            return k
    raise AssertionError("unreachable")


def omega_bf(g: Graph) -> int:
    """Exact clique number by branch and bound, up to 20 vertices."""
    _guard(g, 20, "omega_bf")
    if g.n == 0:
        return 0
    rows = [_neighbor_mask(g, v) for v in range(g.n)]
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            bit = cand & -cand
            cand ^= bit
            expand(cand & rows[bit.bit_length() - 1], size + 1)

    expand((1 << g.n) - 1, 0)
    return best


def is_meyniel_bf(g: Graph) -> bool:
    """Does every odd cycle of length >= 5 carry at least two chords?

    Exhaustive cycle enumeration, up to 10 vertices.  Each cycle is
    visited once: smallest vertex first, oriented so the second entry is
    below the last.  A branch whose partial path already holds two
    chords is abandoned, since any cycle through it is fine.
    """
    _guard(g, 10, "is_meyniel_bf")
    n = g.n
    path = [0] * (n + 1)

    def extend(s: int, depth: int, chords: int) -> bool:
        # returns True when a bad cycle (odd >= 5, <= 1 chord) exists
        last = path[depth - 1]
        for u in g.neighbors(last):
            if u <= s or u in path[1:depth]:
                continue
            added = 0
            for t in range(1, depth - 1):
                if g.has_edge(u, path[t]):
                    added += 1
            # the edge back to the start is a closing edge for u but a
            # chord for every vertex placed beyond it
            prev_close = 1 if depth >= 3 and g.has_edge(s, last) else 0
            total = chords + added + prev_close
            if total >= 2:
                continue
            path[depth] = u
            if depth >= 4 and depth % 2 == 0 and g.has_edge(u, s) and path[1] < u:
                return True
            if extend(s, depth + 1, total):
                return True
        return False

    for s in range(n):
        path[0] = s
        if extend(s, 1, 0):
            return False
    return True
