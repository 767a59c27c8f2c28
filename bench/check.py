"""Independent checker for the certificates the benchmark collects.

It shares no code with `meyniel.certify`: it reads the JSON wire form
with the standard library and checks it against the benchmark's own
edge list, by definition.  Every function returns None when the
certificate holds and a one-line reason when it does not.

Niceness of a stable-set order is left to `meyniel verify`; here a
stable-set certificate must be a maximal stable set through the
requested vertex.
"""

from __future__ import annotations

import json


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def adjacency_from_dimacs(text: str) -> list[set[int]]:
    """Adjacency of the benchmark's own DIMACS text (header, then `e u v` lines)."""
    lines = text.split("\n")
    n = int(lines[0].split()[2])
    pairs = (line.split() for line in lines[1:] if line)
    return adjacency(n, ((int(u) - 1, int(v) - 1) for _, u, v in pairs))


def _int_list(doc: dict, key: str):
    val = doc.get(key)
    if not isinstance(val, list) or any(type(x) is not int for x in val):
        return None
    return val


def _check_optimal(adj: list[set[int]], doc: dict) -> str | None:
    n = len(adj)
    colors = _int_list(doc, "coloring")
    clique = _int_list(doc, "clique")
    if colors is None or clique is None:
        return "coloring and clique must be lists of integers"
    if len(colors) != n:
        return f"coloring has {len(colors)} entries for {n} vertices"
    if any(c < 1 or c > n for c in colors):
        return "a color lies outside 1..n"
    k = max(colors, default=0)
    if len(set(colors)) != k:
        return f"colors are not exactly 1..{k}"
    for u in range(n):
        for v in adj[u]:
            if colors[u] == colors[v]:
                return f"edge {u}-{v} has both ends colored {colors[u]}"
    if len(clique) != k:
        return f"clique has {len(clique)} vertices, coloring uses {k} colors"
    if len(set(clique)) != len(clique) or any(not 0 <= v < n for v in clique):
        return "clique vertices repeat or lie out of range"
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            if v not in adj[u]:
                return f"clique pair {u}-{v} is not an edge"
    return None


def _check_obstruction(adj: list[set[int]], doc: dict) -> str | None:
    n = len(adj)
    cycle = _int_list(doc, "cycle")
    if cycle is None:
        return "cycle must be a list of integers"
    p = len(cycle)
    if p < 5 or p % 2 == 0:
        return f"cycle length {p} is not odd and at least 5"
    if len(set(cycle)) != p or any(not 0 <= v < n for v in cycle):
        return "cycle vertices repeat or lie out of range"
    for i in range(p):
        if cycle[(i + 1) % p] not in adj[cycle[i]]:
            return f"cycle step {cycle[i]}-{cycle[(i + 1) % p]} is not an edge"
    chords = set()
    for i in range(p):
        for j in range(i + 2, p):
            if (i, j) != (0, p - 1) and cycle[j] in adj[cycle[i]]:
                chords.add(frozenset((cycle[i], cycle[j])))
    declared = doc.get("chord")
    if declared is None:
        want = set()
    elif (
        isinstance(declared, list)
        and len(declared) == 2
        and all(type(x) is int for x in declared)
    ):
        want = {frozenset(declared)}
    else:
        return "chord must be null or a pair of integers"
    if chords != want:
        return f"cycle has {len(chords)} chords, certificate declares {len(want)}"
    return None


def check_solve(adj: list[set[int]], data: bytes | str) -> str | None:
    """An optimal pair or a Meyniel obstruction, valid for this graph."""
    doc = _load(data)
    if isinstance(doc, str):
        return doc
    kind = doc.get("kind")
    if kind == "optimal" and set(doc) == {"kind", "coloring", "clique"}:
        return _check_optimal(adj, doc)
    if kind == "obstruction" and set(doc) == {"kind", "cycle", "chord"}:
        return _check_obstruction(adj, doc)
    return f"unexpected certificate of kind {kind!r} with fields {sorted(doc)}"


def check_stable(adj: list[set[int]], data: bytes | str, vertex: int) -> str | None:
    """A maximal stable set through `vertex`, or a Meyniel obstruction."""
    doc = _load(data)
    if isinstance(doc, str):
        return doc
    kind = doc.get("kind")
    if kind == "obstruction" and set(doc) == {"kind", "cycle", "chord"}:
        return _check_obstruction(adj, doc)
    if kind != "nice_stable_set" or set(doc) != {"kind", "order"}:
        return f"unexpected certificate of kind {kind!r} with fields {sorted(doc)}"
    n = len(adj)
    order = _int_list(doc, "order")
    if order is None:
        return "order must be a list of integers"
    members = set(order)
    if len(members) != len(order) or any(not 0 <= v < n for v in order):
        return "stable set vertices repeat or lie out of range"
    if vertex not in members:
        return f"stable set does not contain vertex {vertex}"
    for u in order:
        if adj[u] & members:
            return f"stable set vertex {u} has a neighbor in the set"
    for u in range(n):
        if u not in members and not adj[u] & members:
            return f"vertex {u} could be added: the stable set is not maximal"
    return None


def summary(data: bytes | str) -> str:
    """The summary line the CLI prints for this certificate."""
    doc = json.loads(data)
    kind = doc["kind"]
    if kind == "optimal":
        return f"OPTIMAL {max(doc['coloring'], default=0)}"
    if kind == "obstruction":
        chords = 0 if doc["chord"] is None else 1
        return f"OBSTRUCTION len={len(doc['cycle'])} chords={chords}"
    return f"NICE_STABLE_SET {len(doc['order'])}"


def _load(data: bytes | str) -> dict | str:
    try:
        doc = json.loads(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return f"certificate is not JSON: {exc}"
    if not isinstance(doc, dict):
        return "certificate is not a JSON object"
    return doc
