"""Certificates and their independent verifiers.

The solver emits three certificate types, together the union
`Certificate`: an OptimalPair (coloring plus clique of the same size), a
MeynielObstruction, or a NiceStableSetCert.  Each is re-checkable here
against the graph alone, by direct definition.  The verifiers
deliberately share no code with the procedures that construct the
certificates: a coloring is checked edge by edge, a clique pair by pair,
an obstruction cycle by walking it.  `encode`/`decode` give a stable JSON wire form; decoding
always re-verifies, so a tampered document cannot round-trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import Graph
from .niceset import nice_check


class CertificateFormatError(ValueError):
    """The document is not a well-formed certificate (JSON or schema)."""


class CertificateInvalidError(ValueError):
    """The document parses but fails verification against the graph."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification: truthy iff ok, else carries a reason."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _ok() -> Verdict:
    return Verdict(True)


def _bad(reason: str) -> Verdict:
    return Verdict(False, reason)


@dataclass(frozen=True)
class MeynielObstruction:
    """An odd cycle of length >= 5 with at most one chord.

    `cycle` lists the vertices in cyclic order; `chord` is the single
    chord as a vertex pair, or None if the cycle is chordless.
    """

    cycle: tuple[int, ...]
    chord: tuple[int, int] | None = None


@dataclass(frozen=True)
class OptimalPair:
    """A proper coloring, indexed by vertex, and a clique of the same size.

    The clique forces at least as many colors as the coloring uses, so
    the pair proves the coloring optimal.
    """

    coloring: tuple[int, ...]
    clique: tuple[int, ...]

    @property
    def num_colors(self) -> int:
        return max(self.coloring, default=0)


@dataclass(frozen=True)
class NiceStableSetCert:
    """A maximal stable set in an order that passed nice_check."""

    order: tuple[int, ...]


# Everything the pipelines return and the wire form carries.
Certificate = OptimalPair | MeynielObstruction | NiceStableSetCert


def verify_coloring(g: Graph, coloring) -> Verdict:
    """Proper coloring using each color 1..k for some k, indexed by vertex."""
    cols = list(coloring)
    if len(cols) != g.n:
        return _bad(f"coloring has {len(cols)} entries for {g.n} vertices")
    for v, c in enumerate(cols):
        if not isinstance(c, int) or c < 1:
            return _bad(f"vertex {v} has invalid color {c!r}")
        if c > g.n:
            # no proper coloring needs more colors than vertices; checking
            # here also keeps the contiguity set below at most n entries
            return _bad(f"vertex {v} has color {c} > {g.n} vertices")
    if cols:
        k = max(cols)
        missing = set(range(1, k + 1)) - set(cols)
        if missing:
            return _bad(f"colors not contiguous: {min(missing)} unused below {k}")
    for u, v in g.edges():
        if cols[u] == cols[v]:
            return _bad(f"edge {u}-{v} is monochromatic (color {cols[u]})")
    return _ok()


def verify_clique(g: Graph, clique) -> Verdict:
    vs = list(clique)
    if len(set(vs)) != len(vs):
        return _bad("clique has repeated vertices")
    for v in vs:
        if not 0 <= v < g.n:
            return _bad(f"clique vertex {v} out of range")
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if not g.has_edge(u, v):
                return _bad(f"clique pair {u}-{v} not adjacent")
    return _ok()


def verify_optimal_pair(g: Graph, coloring, clique) -> Verdict:
    vc = verify_coloring(g, coloring)
    if not vc:
        return vc
    vq = verify_clique(g, clique)
    if not vq:
        return vq
    k = max(coloring, default=0)
    if len(tuple(clique)) != k:
        return _bad(f"clique size {len(tuple(clique))} != color count {k}")
    return _ok()


def verify_obstruction(g: Graph, ob: MeynielObstruction) -> Verdict:
    """Odd cycle of length >= 5, and its only chord is the declared one."""
    cyc = list(ob.cycle)
    p = len(cyc)
    if p < 5:
        return _bad(f"cycle has {p} < 5 vertices")
    if p % 2 == 0:
        return _bad(f"cycle length {p} is even")
    if len(set(cyc)) != p:
        return _bad("cycle has repeated vertices")
    for v in cyc:
        if not 0 <= v < g.n:
            return _bad(f"cycle vertex {v} out of range")
    for i in range(p):
        u, v = cyc[i], cyc[(i + 1) % p]
        if not g.has_edge(u, v):
            return _bad(f"consecutive cycle pair {u}-{v} not adjacent")
    declared: set[frozenset[int]] = set()
    if ob.chord is not None:
        cu, cv = ob.chord
        pos = {v: i for i, v in enumerate(cyc)}
        if cu not in pos or cv not in pos or cu == cv:
            return _bad(f"chord {cu}-{cv} is not a pair of cycle vertices")
        gap = (pos[cu] - pos[cv]) % p
        if gap in (1, p - 1):
            return _bad(f"chord {cu}-{cv} joins consecutive cycle vertices")
        declared.add(frozenset((cu, cv)))
    actual: set[frozenset[int]] = set()
    for i in range(p):
        for jj in range(i + 2, p):
            if i == 0 and jj == p - 1:
                continue
            if g.has_edge(cyc[i], cyc[jj]):
                actual.add(frozenset((cyc[i], cyc[jj])))
    if actual != declared:
        extra = actual - declared
        if extra:
            u, v = sorted(next(iter(extra)))
            return _bad(f"undeclared chord {u}-{v}")
        u, v = sorted(next(iter(declared)))
        return _bad(f"declared chord {u}-{v} is not an edge")
    return _ok()


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(doc: dict, key: str) -> tuple[int, ...]:
    val = doc[key]
    if not isinstance(val, list) or not all(_is_int(x) for x in val):
        raise CertificateFormatError(f"field {key!r} must be a list of integers")
    return tuple(val)


def _require_keys(doc: dict, *keys: str) -> None:
    if set(doc) != {"kind", *keys}:
        raise CertificateFormatError(
            f"{doc['kind']} certificate needs exactly kind/{'/'.join(keys)}"
        )


def encode(cert: Certificate) -> bytes:
    """Serialize a certificate to canonical JSON bytes."""
    if isinstance(cert, OptimalPair):
        doc = {"kind": "optimal", "coloring": list(cert.coloring), "clique": list(cert.clique)}
    elif isinstance(cert, MeynielObstruction):
        chord = list(cert.chord) if cert.chord is not None else None
        doc = {"kind": "obstruction", "cycle": list(cert.cycle), "chord": chord}
    elif isinstance(cert, NiceStableSetCert):
        doc = {"kind": "nice_stable_set", "order": list(cert.order)}
    else:
        raise TypeError(f"cannot encode {type(cert).__name__}")
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("ascii")


def decode(g: Graph, data: bytes | str) -> Certificate:
    """Parse and fully re-verify a certificate document against g.

    Raises CertificateFormatError for malformed documents and
    CertificateInvalidError when verification against the graph fails.
    Returns the same certificate object the solver would have produced.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CertificateFormatError(f"not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise CertificateFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CertificateFormatError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate document must be a JSON object")
    kind = doc.get("kind")
    if kind == "optimal":
        _require_keys(doc, "coloring", "clique")
        cert = OptimalPair(coloring=_int_list(doc, "coloring"), clique=_int_list(doc, "clique"))
        verdict = verify_optimal_pair(g, cert.coloring, cert.clique)
    elif kind == "obstruction":
        _require_keys(doc, "cycle", "chord")
        cycle = _int_list(doc, "cycle")
        chord = doc["chord"]
        if chord is not None:
            if not isinstance(chord, list) or len(chord) != 2 or not all(map(_is_int, chord)):
                raise CertificateFormatError("field 'chord' must be null or a pair of integers")
            chord = tuple(chord)
        cert = MeynielObstruction(cycle=cycle, chord=chord)
        verdict = verify_obstruction(g, cert)
    elif kind == "nice_stable_set":
        _require_keys(doc, "order")
        cert = NiceStableSetCert(order=_int_list(doc, "order"))
        try:
            witness = nice_check(g, cert.order)
        except ValueError as exc:  # not distinct, not stable or not maximal
            raise CertificateInvalidError(str(exc)) from exc
        verdict = _ok() if witness is None else _bad(
            f"order is not nice: witness pair {witness.a},{witness.b} at position {witness.index}"
        )
    else:
        raise CertificateFormatError(f"unknown certificate kind {kind!r}")
    if not verdict:
        raise CertificateInvalidError(verdict.reason)
    return cert
