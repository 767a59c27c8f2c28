"""Seeded input generators for the benchmark, independent of `meyniel`.

Every graph is an edge list over vertices 0..n-1 with u < v in each
pair; the same seed always gives the same graphs.  The package's own
generators are not used: `meyniel.graph.generate` draws an n x n float
matrix for G(n, p) (3.2 GB at n = 20,000), and a later change to it
must not silently change the benchmark's inputs.

* `gnp` uses geometric skipping (Batagelj & Brandes, "Efficient
  generation of large random networks", Phys. Rev. E 71:036113, 2005):
  the gaps between successive edges in the linear order of vertex pairs
  are geometric, so the cost is O(n + m), not O(n^2).
* `chordal` glues cliques along a clique tree: each new clique shares a
  random part of one earlier clique.  Every graph built this way is
  chordal, hence Meyniel, so the solver must always return an optimal
  pair.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np


def _pair_of_index(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert k = v(v-1)/2 + w (0 <= w < v) for an int64 array of indices."""
    v = ((1.0 + np.sqrt(1.0 + 8.0 * k.astype(np.float64))) / 2.0).astype(np.int64)
    # float rounding can put v one off near triangular numbers; fix exactly
    v -= (v * (v - 1) // 2 > k).astype(np.int64)
    v += ((v + 1) * v // 2 <= k).astype(np.int64)
    w = k - v * (v - 1) // 2
    return w, v


def gnp(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """G(n, p) by geometric skipping over the n(n-1)/2 vertex pairs."""
    total = n * (n - 1) // 2
    if total == 0 or p <= 0.0:
        return []
    if p >= 1.0:
        k = np.arange(total, dtype=np.int64)
    else:
        chunks = []
        last = -1
        expect = total * p
        while last < total:
            size = int(expect + 6.0 * math.sqrt(expect) + 64)
            gaps = rng.geometric(p, size=size).astype(np.int64)
            pos = last + np.cumsum(gaps)
            chunks.append(pos)
            last = int(pos[-1])
        k = np.concatenate(chunks)
        k = k[k < total]
    w, v = _pair_of_index(k)
    return list(zip(w.tolist(), v.tolist()))


def chordal(n: int, clique: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Chordal graph on n vertices from cliques of size `clique` on a tree.

    Each new clique keeps a random nonempty proper part of a random
    earlier clique and adds fresh vertices up to `clique`.  Vertex labels
    are shuffled so that no label order is a perfect elimination order.
    """
    label = rng.permutation(n).tolist()
    cliques = [list(range(min(clique, n)))]
    edges = {(a, b) for i, a in enumerate(cliques[0]) for b in cliques[0][i + 1:]}
    nxt = len(cliques[0])
    while nxt < n:
        base = cliques[int(rng.integers(len(cliques)))]
        keep = int(rng.integers(1, len(base))) if len(base) > 1 else 1
        shared = rng.choice(base, size=keep, replace=False).tolist()
        fresh = list(range(nxt, min(n, nxt + clique - keep)))
        nxt += len(fresh)
        members = shared + fresh
        cliques.append(members)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if a in fresh or b in fresh:
                    edges.add((a, b))
    out = []
    for a, b in edges:
        u, v = label[a], label[b]
        out.append((u, v) if u < v else (v, u))
    out.sort()
    return out


def small_stream(count: int, rng: np.random.Generator):
    """Yield `count` small G(n, p) graphs, n uniform in 8..60, p in {0.2, ..., 0.8}."""
    ps = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    for _ in range(count):
        n = int(rng.integers(8, 61))
        p = ps[int(rng.integers(len(ps)))]
        yield n, gnp(n, p, rng)


def dimacs(n: int, edges: list[tuple[int, int]]) -> str:
    """DIMACS `p edge` text with 1-based endpoints, one edge per line."""
    body = "".join([f"e {u + 1} {v + 1}\n" for u, v in edges])
    return f"p edge {n} {len(edges)}\n" + body


def write_input(path: str, text: str) -> str:
    """Write text to a new file at path; return the sha256 hex digest of its bytes.

    An existing file is removed first: on ext4, truncating and rewriting
    a file makes close() wait for its blocks to be written out, and that
    wait, not the work, would dominate the set-up time.
    """
    data = text.encode("ascii")
    remove_quietly(path)
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def digest_of(parts) -> str:
    """sha256 over several texts, in order, for a stream of inputs."""
    h = hashlib.sha256()
    for text in parts:
        h.update(text.encode("ascii"))
        h.update(b"\0")
    return h.hexdigest()


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named stream)."""
    salt = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "little")
    return np.random.default_rng([seed, salt])


def remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
