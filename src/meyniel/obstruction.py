"""Extraction of an odd cycle with at most one chord from a greedy failure.

When the clique builder gets stuck at color c, the coloring itself
encodes a reason: an odd cycle of length at least five carrying at most
one chord.  This module digs it out.  Everything happens relative to the
color-c class x_1, ..., x_m listed in coloring order, with two kinds of
adjacency in play: real edges of the graph, and "prefix" attachment
first_idx(v) = the smallest j with v adjacent to x_j.

The working object is a *bad path* at index i: an odd sequence
v_1, ..., v_p of real vertices whose last entry is x_i, consecutive
entries adjacent, carrying at most one short chord (joining two entries
two apart), with no other adjacency inside, such that v_1 attaches to
the prefix x_1..x_{i-1} and no later entry does.  Each round picks an
attachment vertex z next to x_i and either rewrites the path at a
strictly smaller index or produces a *near obstruction*: an even path
w_0, ..., w_p (again at most one short chord) plus an apex z adjacent to
both ends.  A final case analysis on where the apex first touches the
path closes the cycle.  Every step is pure bookkeeping over edges, so a
failed invariant raises InternalInvariantError instead of returning a
wrong certificate, and the pipelines in `app` verify the emitted cycle
before it leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import MeynielObstruction
# not called here; kept bound because bench/tracing.py wraps it by name
from .certify import verify_obstruction  # noqa: F401
from .clique import CliqueFailure
from .graph import Graph
from .lexcolor import ColorTrace


class InternalInvariantError(RuntimeError):
    """A structural invariant of the extraction machinery failed."""


@dataclass(frozen=True)
class ContractionView:
    """Prefix-attachment table for one color class.

    class_verts lists the class in coloring order; first_idx[v] is the
    smallest 1-based j with v adjacent to class_verts[j-1], or 0 when v
    has no neighbor in the class.
    """

    color: int
    class_verts: tuple[int, ...]
    first_idx: tuple[int, ...]


@dataclass(frozen=True)
class BadPath:
    """Odd path v_1..v_p ending at x_index, at most one short chord.

    chord_mid, when set, is the 0-based position of the skipped vertex:
    the chord joins verts[chord_mid - 1] and verts[chord_mid + 1].
    """

    index: int
    verts: tuple[int, ...]
    chord_mid: int | None


@dataclass(frozen=True)
class NearObstruction:
    """Even path w_0..w_p with an apex adjacent to both endpoints.

    chord_mid as in BadPath.  kind records what is known about how the
    apex meets the start of the path, which drives the closing cases:

      1: chord joins w_0 and w_2; apex misses w_1 and w_2
      2: chord joins w_1 and w_3; apex misses w_1 or w_3
      3: no chord at w_1; apex misses w_1
      4: no chord at w_1 or w_2; apex hits w_1 but not w_2
    """

    verts: tuple[int, ...]
    chord_mid: int | None
    apex: int
    kind: int


def build_view(g: Graph, trace: ColorTrace, color: int) -> ContractionView:
    cls = trace.class_of(color)
    first = [0] * g.n
    for idx, x in enumerate(cls, start=1):
        for u in g.neighbors(x):
            if first[u] == 0:
                first[u] = idx
    return ContractionView(color=color, class_verts=tuple(cls), first_idx=tuple(first))


def initial_bad_path(g: Graph, view: ContractionView, failure: CliqueFailure) -> BadPath:
    """Seed the reduction from a stuck clique.

    h is the deepest prefix attachment over the stuck clique; the first
    clique vertex missing x_h and the first one whose attachment is
    exactly h bracket it into a three-vertex bad path.
    """
    q = failure.clique
    if not q:
        raise InternalInvariantError("stuck clique is empty")
    h = max(view.first_idx[v] for v in q)
    if h < 2:
        raise InternalInvariantError(f"attachment depth {h} below 2")
    xh = view.class_verts[h - 1]
    a = next((v for v in q if not g.has_edge(v, xh)), None)
    b = next((v for v in q if g.has_edge(v, xh) and view.first_idx[v] == h), None)
    if a is None:
        raise InternalInvariantError(f"every clique vertex is adjacent to x_{h}")
    if b is None:
        raise InternalInvariantError(f"no clique vertex attaches first at {h}")
    return BadPath(index=h, verts=(a, b, xh), chord_mid=None)


def find_z(g: Graph, trace: ColorTrace, view: ContractionView, bp: BadPath) -> int:
    """Pick the attachment vertex for one reduction round.

    Candidates are neighbors of x_i colored before it with color above
    the view's, attached inside the prefix; among those, the first in
    coloring order that misses one of the two path vertices guarding
    the chord position.
    """
    vs = bp.verts
    i = bp.index
    xi = vs[-1]
    step_xi = trace.step_of[xi]
    if bp.chord_mid == 1:
        va, vb = vs[0], vs[2]
    else:
        va, vb = vs[0], vs[1]
    cands = [
        u
        for u in g.neighbors(xi)
        if trace.step_of[u] < step_xi
        and trace.color_of[u] > view.color
        and 1 <= view.first_idx[u] <= i - 1
    ]
    cands.sort(key=lambda u: trace.step_of[u])
    for u in cands:
        if not (g.has_edge(u, va) and g.has_edge(u, vb)):
            return u
    raise InternalInvariantError(f"no attachment vertex at index {i}")


def reduce_bad_path(
    g: Graph, view: ContractionView, bp: BadPath, z: int
) -> "BadPath | NearObstruction":
    """One reduction round: rewrite at a smaller index, or finish.

    If the landing vertex x_j sees both z and v_1 the path closes into a
    near obstruction with apex z.  Otherwise exactly one of them sees
    x_j, which fixes the orientation of the rewritten path; the case
    split on k (where z first touches the path) against the chord
    position keeps the rewritten path odd with at most one short chord.
    """
    vs = bp.verts
    mid = bp.chord_mid
    p = len(vs)
    f1 = view.first_idx[vs[0]]
    fz = view.first_idx[z]
    j = max(f1, fz)
    xj = view.class_verts[j - 1]

    if g.has_edge(xj, vs[0]) and g.has_edge(xj, z):
        if mid == 1:
            kind = 2
        elif not g.has_edge(z, vs[0]):
            kind = 3
        else:
            kind = 4
        nmid = None if mid is None else mid + 1
        return NearObstruction(verts=(xj,) + vs, chord_mid=nmid, apex=z, kind=kind)

    orient_fwd = fz == j
    k = next(t for t in range(1, p + 1) if g.has_edge(z, vs[t - 1]))

    core: tuple[int, ...]
    pair: tuple[int, int] | None
    if k % 2 == 1:
        core = vs[:k]
        pair = (vs[mid - 1], vs[mid + 1]) if mid is not None and mid <= k - 2 else None
    elif mid is not None and mid <= k - 2:
        # chord inside the kept stretch: splice it in as a path edge
        core = vs[:mid] + vs[mid + 1:k]
        pair = None
    elif mid == k - 1:
        if not g.has_edge(z, vs[k]):
            return NearObstruction(vs[k - 1:], None, z, 3)
        if g.has_edge(z, vs[k + 1]):
            core = vs[:k - 1] + (vs[k], vs[k + 1])
            pair = (z, vs[k])
        else:
            return NearObstruction(vs[k - 1:], None, z, 4)
    elif mid == k:
        if g.has_edge(z, vs[k]):
            core = vs[:k + 1]
            pair = (z, vs[k - 1])
        elif g.has_edge(z, vs[k + 1]):
            core = vs[:k] + (vs[k + 1],)
            pair = (z, vs[k - 1])
        else:
            return NearObstruction(vs[k - 1:], 1, z, 1)
    else:
        # chord absent or strictly beyond the landing stretch
        if g.has_edge(z, vs[k]):
            core = vs[:k + 1]
            pair = (z, vs[k - 1])
        else:
            nmid = None if mid is None else mid - (k - 1)
            return NearObstruction(vs[k - 1:], nmid, z, 3)

    if orient_fwd:
        nverts = core + (z, xj)
    else:
        nverts = (z,) + tuple(reversed(core)) + (xj,)
    nmid = None
    if pair is not None:
        pos = {v: t for t, v in enumerate(nverts)}
        p1, p2 = pos[pair[0]], pos[pair[1]]
        if abs(p1 - p2) != 2:
            raise InternalInvariantError("rewritten chord is not short")
        nmid = (p1 + p2) // 2
    return BadPath(index=j, verts=nverts, chord_mid=nmid)


def bad_path_to_near(
    g: Graph, trace: ColorTrace, view: ContractionView, bp: BadPath
) -> NearObstruction:
    guard = bp.index
    while True:
        z = find_z(g, trace, view, bp)
        nxt = reduce_bad_path(g, view, bp, z)
        if isinstance(nxt, NearObstruction):
            return nxt
        if nxt.index >= guard:
            raise InternalInvariantError("reduction index failed to decrease")
        guard = nxt.index
        bp = nxt


def _emit(cyc: tuple[int, ...], pair: tuple[int, int] | None) -> MeynielObstruction:
    chord = None if pair is None else (min(pair), max(pair))
    return MeynielObstruction(cycle=tuple(cyc), chord=chord)


def near_to_obstruction(g: Graph, near: NearObstruction) -> MeynielObstruction:
    """Close a near obstruction into an odd cycle with at most one chord.

    r is where the apex first touches the path (from w_3 on for kind 4,
    since there it hits w_1 by definition).  Odd r closes directly; even
    r either reroutes through the chord, drops one path vertex, or
    restarts on the tail w_r.. with a smaller near obstruction.
    """
    w = near.verts
    mid = near.chord_mid
    z = near.apex
    kind = near.kind
    while True:
        last = len(w) - 1
        lo = 3 if kind == 4 else 1
        r = next(t for t in range(lo, last + 1) if g.has_edge(z, w[t]))

        if kind == 1:
            if r % 2 == 1:
                return _emit((z,) + w[:r + 1], (w[0], w[2]))
            return _emit((z, w[0]) + w[2:r + 1], None)

        if kind == 2:
            hits1 = g.has_edge(z, w[1])
            hits2 = g.has_edge(z, w[2])
            if not hits1 and not hits2:
                if r % 2 == 1:
                    return _emit((z,) + w[:r + 1], (w[1], w[3]))
                return _emit((z, w[0], w[1]) + w[3:r + 1], None)
            if not hits1:
                # apex lands on w_2 first
                if not g.has_edge(z, w[3]):
                    return _emit((z, w[0], w[1], w[3], w[2]), (w[1], w[2]))
                if g.has_edge(z, w[4]):
                    return _emit((z, w[0], w[1], w[3], w[4]), (z, w[3]))
                w = w[2:]
                mid = None
                kind = 4
                continue
            # apex hits w_1, hence misses w_3: reroute through the chord
            w = (w[1],) + w[3:]
            mid = None
            kind = 3
            continue

        if kind == 3:
            if r % 2 == 1:
                keep = mid is not None and mid + 1 <= r
                return _emit((z,) + w[:r + 1], (w[mid - 1], w[mid + 1]) if keep else None)
            if mid is not None and mid < r:
                return _emit((z,) + w[:mid] + w[mid + 1:r + 1], None)
            if mid == r:
                if not g.has_edge(z, w[r + 1]):
                    return _emit((z,) + w[:r] + (w[r + 1], w[r]), (w[r - 1], w[r]))
                if g.has_edge(z, w[r + 2]):
                    return _emit((z,) + w[:r] + (w[r + 1], w[r + 2]), (z, w[r + 1]))
                w = w[r:]
                mid = None
                kind = 4
                continue
            if mid == r + 1:
                if g.has_edge(z, w[r + 1]):
                    return _emit((z,) + w[:r + 2], (z, w[r]))
                if g.has_edge(z, w[r + 2]):
                    return _emit((z,) + w[:r + 1] + (w[r + 2],), (z, w[r]))
                w = w[r:]
                mid = 1
                kind = 1
                continue
            if g.has_edge(z, w[r + 1]):
                return _emit((z,) + w[:r + 2], (z, w[r]))
            w = w[r:]
            mid = None if mid is None else mid - r
            kind = 3
            continue

        if kind == 4:
            inside = mid is not None and 2 < mid < r
            if inside:
                if r % 2 == 1:
                    return _emit((z,) + w[1:mid] + w[mid + 1:r + 1], None)
                return _emit((z,) + w[1:r + 1], (w[mid - 1], w[mid + 1]))
            if r % 2 == 1:
                return _emit((z,) + w[:r + 1], (z, w[1]))
            return _emit((z,) + w[1:r + 1], None)

        raise InternalInvariantError(f"unknown near obstruction kind {kind}")


def extract_obstruction(
    g: Graph, trace: ColorTrace, failure: CliqueFailure
) -> MeynielObstruction:
    view = build_view(g, trace, failure.color)
    bp = initial_bad_path(g, view, failure)
    near = bad_path_to_near(g, trace, view, bp)
    return near_to_obstruction(g, near)
