"""Seeded graph generators.

`generate(GenSpec(...))` returns the same graph for the same spec, seed
included.  `FAMILIES` names what it can build: G(n, p), random chordal
and random bipartite graphs, cycles, complete and edgeless graphs.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .graph import Graph, GraphInputError, build
from .record import record


FAMILIES = ("gnp", "chordal", "bipartite", "cycle", "complete", "edgeless")


class _GenFields(NamedTuple):
    family: str
    n: int = 0
    p: float = 0.5
    seed: int = 0


@record
class GenSpec(_GenFields):
    """Parameters for generate(): a family of FAMILIES, n >= 0, p in [0, 1] and a seed.

    A family that draws no edges at random ignores p and seed.
    """

    __slots__ = ()

    # NamedTuple reserves __new__ in its own body, hence the field base
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise GraphInputError(f"unknown family {self.family!r}")
        if self.n < 0:
            raise GraphInputError(f"n must be >= 0, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise GraphInputError(f"p must be in [0, 1], got {self.p}")
        return self


def generate(spec: GenSpec) -> Graph:
    """Generate a graph; same spec (seed included) gives the same graph."""
    fam, n = spec.family, spec.n
    if fam == "edgeless":
        return build(n, [])
    if fam == "complete":
        return build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if fam == "cycle":
        if n in (1, 2):
            raise GraphInputError(f"cycle needs n=0 or n>=3, got {n}")
        return build(n, [(v, (v + 1) % n) for v in range(n)])
    if fam == "gnp":
        return _gnp(n, spec.p, spec.seed)
    if fam == "bipartite":
        return _bipartite(n, spec.p, spec.seed)
    if fam == "chordal":
        return _chordal(n, spec.p, spec.seed)
    raise AssertionError(fam)


def _gnp(n: int, p: float, seed: int) -> Graph:
    import numpy as np  # imported here: only `gen` needs it, and it dominates import time

    # One row of the n x n uniform matrix at a time: the Generator yields
    # the same stream in row-sized draws, so graphs match the full-matrix
    # draw bit for bit in O(n) floats.  Row u keeps its entries above u.
    rng = np.random.default_rng(seed)

    def edges():
        for u in range(n):
            row = rng.random(n)
            for v in np.flatnonzero(row[u + 1:] < p).tolist():
                yield u, u + 1 + v

    return build(n, edges())


def _bipartite(n: int, p: float, seed: int) -> Graph:
    import numpy as np

    left = n // 2
    rng = np.random.default_rng(seed)

    def edges():
        for u in range(left):
            for v in np.flatnonzero(rng.random(n - left) < p).tolist():
                yield u, left + v

    return build(n, edges())


def _chordal(n: int, p: float, seed: int) -> Graph:
    # Grow vertex by vertex, attaching each new vertex to a random subset
    # of a previously formed clique; the reverse insertion order is then a
    # perfect elimination order, so the result is chordal.
    rng = random.Random(seed)
    edges = []
    cliques: list[list[int]] = []  # cliques[v] = the clique {v} ∪ attachment(v)
    for v in range(n):
        if v == 0:
            cliques.append([0])
            continue
        base = cliques[rng.randrange(v)]
        attach = [u for u in base if rng.random() < p]
        edges.extend((u, v) for u in attach)
        cliques.append(attach + [v])
    return build(n, edges)
