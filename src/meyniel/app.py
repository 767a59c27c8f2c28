"""High-level pipelines and the command line front end.

robust_solve ties the coloring, the clique builder, and the obstruction
extraction together.  Each public pipeline hands its result to
`_verified`, the one place where solver output is re-checked by the
independent verifiers before it leaves, so a bug in the fast path
surfaces as InternalInvariantError instead of a wrong answer.
"""

from __future__ import annotations

import argparse
import io
import sys

from .certify import (
    Certificate,
    CertificateFormatError,
    CertificateInvalidError,
    MeynielObstruction,
    NiceStableSetCert,
    OptimalPair,
    decode,
    encode,
    load,
    verify_nice_order,
    verify_obstruction,
    verify_optimal_pair,
)
from .clique import CliqueFailure, greedy_clique, greedy_clique_over
from .gen import FAMILIES, GenSpec, generate
# `parse` has no caller here; it stays bound as `meyniel.app.parse` for the
# in-process callers in bench/run.py and the span wrapper in bench/tracing.py
from .graph import Graph, GraphInputError, dimacs_pieces, parse, parse_split, parse_stream
from .lexcolor import lex_color
from .niceset import nice_check
from .obstruction import (
    BadPath,
    InternalInvariantError,
    bad_path_to_near,
    build_view,
    extract_obstruction,
    near_to_obstruction,
)


def _verified(g: Graph, cert: Certificate) -> Certificate:
    """Return cert once the independent verifiers accept it on g."""
    if isinstance(cert, OptimalPair):
        verdict = verify_optimal_pair(g, cert.coloring, cert.clique)
    elif isinstance(cert, MeynielObstruction):
        verdict = verify_obstruction(g, cert)
    else:
        verdict = verify_nice_order(g, cert.order)
    if not verdict:
        raise InternalInvariantError(
            f"{type(cert).__name__} failed verification: {verdict.reason}"
        )
    return cert


def robust_solve(g: Graph, first: tuple[int, ...] = ()) -> OptimalPair | MeynielObstruction:
    """Color, pair with a clique, or explain the failure.  Always verified.

    The vertices of `first` are colored first, as in lex_color.
    """
    trace = lex_color(g, first)
    res = greedy_clique(g, trace)
    if isinstance(res, CliqueFailure):
        return _verified(g, extract_obstruction(g, trace, res))
    return _verified(g, OptimalPair(coloring=trace.color_of, clique=res.clique))


def robust_stable_set(g: Graph, v: int) -> NiceStableSetCert | MeynielObstruction:
    """A nice stable set through v, or an odd cycle with at most one chord."""
    return _verified(g, _stable_set(g, v))


def _stable_set(g: Graph, v: int) -> NiceStableSetCert | MeynielObstruction:
    """robust_stable_set without the final verification.

    The coloring is rerun with v forced first, so v lands in the first
    color class; that class, in coloring order, either passes the
    niceness check or hands the odd-path machinery its starting point.
    """
    trace = lex_color(g, (v,))
    order = trace.class_of(1)
    if order[0] != v:
        raise InternalInvariantError(f"anchor {v} did not land first in its class")
    witness = nice_check(g, order)
    if witness is None:
        return NiceStableSetCert(order=order)
    view = build_view(g, trace, 1)
    bp = BadPath(
        index=witness.index,
        verts=(witness.a, witness.b, order[witness.index - 1]),
        chord_mid=None,
    )
    near = bad_path_to_near(g, trace, view, bp)
    return near_to_obstruction(g, near)


def color_via_stable_sets(g: Graph) -> OptimalPair | MeynielObstruction:
    """Color by repeatedly stripping a nice stable set.

    Each round anchors at the lowest surviving vertex; a niceness
    failure anywhere converts into an obstruction for the whole graph.
    The stripped classes are paired with a clique at the end.  The
    rounds are not verified one by one; only the final result, lifted
    back to g, is.
    """
    remaining = g
    old = tuple(range(g.n))
    classes: list[tuple[int, ...]] = []
    while remaining.n:
        res = _stable_set(remaining, 0)
        if isinstance(res, MeynielObstruction):
            cycle = tuple(old[u] for u in res.cycle)
            # old is ascending, so the lifted chord stays (low, high)
            chord = None if res.chord is None else (old[res.chord[0]], old[res.chord[1]])
            return _verified(g, MeynielObstruction(cycle=cycle, chord=chord))
        members = set(res.order)
        classes.append(tuple(old[u] for u in res.order))
        keep = [u for u in range(remaining.n) if u not in members]
        remaining, sub_old = remaining.subgraph(keep)
        old = tuple(old[u] for u in sub_old)
    coloring = [0] * g.n
    for c, cls in enumerate(classes, start=1):
        for u in cls:
            coloring[u] = c
    res = greedy_clique_over(g, classes)
    if isinstance(res, CliqueFailure):
        raise InternalInvariantError(
            f"clique builder got stuck at stripped class {res.color}"
        )
    return _verified(g, OptimalPair(coloring=tuple(coloring), clique=res.clique))


def _read_graph(path: str, keep=None) -> Graph:
    """The graph in `path` ('-' for stdin), read as strict UTF-8; `keep` as in parse_stream.

    A large file is parsed on two cores by `parse_split`; whenever that
    declines or fails, the serial `parse_stream` reads the file and
    raises the input's error.
    """
    try:
        if path == "-":
            # stdin's own decoding follows the locale and may escape bad
            # bytes; decode its bytes as open() does, then leave them open
            fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
            try:
                return parse_stream(fh, keep)
            finally:
                fh.detach()
        with open(path, "r", encoding="utf-8") as fh:
            g = parse_split(fh, keep)
            return parse_stream(fh, keep) if g is None else g
    except UnicodeDecodeError as exc:  # its position counts from the block, not the file
        raise GraphInputError(f"graph input is not valid UTF-8: {exc.reason}") from None
    except MemoryError:  # the input, not the program, is at fault
        raise GraphInputError("graph input is too large: out of memory while reading it") from None


def _verify(path: str, cert_path: str) -> int:
    """`meyniel verify`: 0 valid, 1 invalid; errors propagate as in `main`.

    The certificate is loaded first, so that an obstruction's graph is
    read as the subgraph induced by the cycle, and `decode` verifies the
    loaded one.  An error reading or loading it waits until the graph
    has been read, so a graph error still comes first.
    """
    try:
        with open(cert_path, "rb") as fh:
            cert = load(fh.read())
    except (OSError, CertificateFormatError):
        _read_graph(path, keep=())
        raise
    g = _read_graph(path, set(cert.cycle) if isinstance(cert, MeynielObstruction) else None)
    try:
        cert = decode(g, cert)
    except CertificateInvalidError as exc:
        print(f"INVALID: {exc}")
        return 1
    print(f"VALID {_summary(cert)}")
    return 0


def _write_cert(cert, out: str | None) -> None:
    data = encode(cert).decode("ascii")
    if out is None:
        print(data)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(data + "\n")


def _summary(cert: Certificate) -> str:
    if isinstance(cert, OptimalPair):
        return f"OPTIMAL {cert.num_colors}"
    if isinstance(cert, MeynielObstruction):
        chords = 0 if cert.chord is None else 1
        return f"OBSTRUCTION len={len(cert.cycle)} chords={chords}"
    return f"NICE_STABLE_SET {len(cert.order)}"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="meyniel",
        description="Certified coloring: optimal coloring plus matching clique, "
        "or an odd cycle with at most one chord.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("graph", nargs="?", default="-", help="DIMACS graph file, '-' for stdin")

    solve = sub.add_parser("solve", help="color the graph or produce an obstruction")
    add_graph_args(solve)
    solve.add_argument("--order", help="comma-separated vertex order to force")

    stable = sub.add_parser("stableset", help="nice stable set through a vertex, or obstruction")
    add_graph_args(stable)
    stable.add_argument("--vertex", type=int, required=True)

    by_stable = sub.add_parser("colorbystable", help="color by stripping nice stable sets")
    add_graph_args(by_stable)

    for p in (solve, stable, by_stable):  # the commands that write a certificate
        p.add_argument("--out", help="write the certificate here instead of stdout")

    p = sub.add_parser("verify", help="re-check a certificate against a graph")
    add_graph_args(p)
    p.add_argument("cert", help="certificate file, as produced by solve/stableset")

    p = sub.add_parser("gen", help="generate a graph and print it in DIMACS form")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="", help="builtin graph name")

    p = sub.add_parser("oracle", help="small brute-force reference values")
    add_graph_args(p)
    p.add_argument("--what", choices=("chromatic", "omega", "meyniel"), required=True)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            spec = GenSpec(
                family=args.family, n=args.n, p=args.p, seed=args.seed, name=args.name
            )
            sys.stdout.writelines(dimacs_pieces(generate(spec)))
            return 0

        if args.command == "verify":
            return _verify(args.graph, args.cert)

        g = _read_graph(args.graph)

        if args.command == "oracle":
            from .oracle import chromatic_bf, is_meyniel_bf, omega_bf  # only this command needs it

            if args.what == "chromatic":
                print(chromatic_bf(g))
            elif args.what == "omega":
                print(omega_bf(g))
            else:
                print("meyniel" if is_meyniel_bf(g) else "not_meyniel")
            return 0

        if args.command == "solve":
            first = ()
            if args.order is not None:
                first = tuple(int(tok) for tok in args.order.split(","))
                if sorted(first) != list(range(g.n)):
                    raise ValueError("forced order must be a permutation of all vertices")
            cert = robust_solve(g, first)
        elif args.command == "stableset":
            cert = robust_stable_set(g, args.vertex)
        else:
            cert = color_via_stable_sets(g)
        print(_summary(cert))
        _write_cert(cert, args.out)
        return 0
    except (InternalInvariantError, MemoryError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # GraphInputError and CertificateFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
