"""High-level pipelines and the command line front end.

robust_solve ties the coloring, the clique builder, and the obstruction
extraction together and never returns an unverified certificate: every
outcome is re-checked by the independent verifiers before it leaves, so
a bug in the fast path surfaces as InternalInvariantError instead of a
wrong answer.
"""

from __future__ import annotations

import argparse
import sys

from .certify import (
    CertificateFormatError,
    CertificateInvalidError,
    MeynielObstruction,
    SolveCertificate,
    decode,
    encode,
    verify_obstruction,
    verify_optimal_pair,
)
from .clique import CliqueFailure, greedy_clique, greedy_clique_over
from .graph import FAMILIES, GenSpec, Graph, GraphInputError, generate, parse, to_dimacs
from .lexcolor import TieBreak, lex_color
from .niceset import NiceStableSetCert, nice_check
from .obstruction import (
    BadPath,
    InternalInvariantError,
    bad_path_to_near,
    build_view,
    extract_obstruction,
    near_to_obstruction,
)
from .oracle import OracleSizeError, chromatic_bf, is_meyniel_bf, omega_bf


def robust_solve(g: Graph, tb: TieBreak | None = None) -> SolveCertificate:
    """Color, pair with a clique, or explain the failure.  Always verified."""
    trace = lex_color(g, tb)
    res = greedy_clique(g, trace)
    if isinstance(res, CliqueFailure):
        ob = extract_obstruction(g, trace, res)
        verdict = verify_obstruction(g, ob)
        if not verdict:
            raise InternalInvariantError(f"obstruction failed verification: {verdict.reason}")
        return SolveCertificate.from_obstruction(ob)
    verdict = verify_optimal_pair(g, trace.color_of, res.clique)
    if not verdict:
        raise InternalInvariantError(f"optimal pair failed verification: {verdict.reason}")
    return SolveCertificate.optimal(trace.color_of, res.clique)


def robust_stable_set(g: Graph, v: int) -> "NiceStableSetCert | MeynielObstruction":
    """A nice stable set through v, or an odd cycle with at most one chord.

    The coloring is rerun with v forced first, so v lands in the first
    color class; that class, in coloring order, either passes the
    niceness check or hands the odd-path machinery its starting point.
    """
    trace = lex_color(g, TieBreak.anchored(v))
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
    ob = near_to_obstruction(g, near)
    verdict = verify_obstruction(g, ob)
    if not verdict:
        raise InternalInvariantError(f"obstruction failed verification: {verdict.reason}")
    return ob


def color_via_stable_sets(g: Graph) -> SolveCertificate:
    """Color by repeatedly stripping a nice stable set.

    Each round anchors at the lowest surviving vertex; a niceness
    failure anywhere converts into an obstruction for the whole graph.
    The stripped classes are paired with a clique at the end.
    """
    remaining = g
    old = tuple(range(g.n))
    classes: list[tuple[int, ...]] = []
    while remaining.n:
        res = robust_stable_set(remaining, 0)
        if isinstance(res, MeynielObstruction):
            cycle = tuple(old[u] for u in res.cycle)
            chord = res.chord
            if chord is not None:
                lifted = (old[chord[0]], old[chord[1]])
                chord = (min(lifted), max(lifted))
            ob = MeynielObstruction(cycle=cycle, chord=chord)
            verdict = verify_obstruction(g, ob)
            if not verdict:
                raise InternalInvariantError(
                    f"lifted obstruction failed verification: {verdict.reason}"
                )
            return SolveCertificate.from_obstruction(ob)
        members = set(res.order)
        classes.append(tuple(sorted(old[u] for u in members)))
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
    verdict = verify_optimal_pair(g, coloring, res.clique)
    if not verdict:
        raise InternalInvariantError(f"optimal pair failed verification: {verdict.reason}")
    return SolveCertificate.optimal(coloring, res.clique)


def _read_graph(path: str, fmt: str) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse(text, fmt=fmt)


def _write_cert(cert, out: str | None) -> None:
    data = encode(cert).decode("ascii")
    if out is None:
        print(data)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(data + "\n")


def _summary(cert) -> str:
    if isinstance(cert, NiceStableSetCert):
        return f"NICE_STABLE_SET {len(cert.order)}"
    if isinstance(cert, MeynielObstruction):
        cert = SolveCertificate.from_obstruction(cert)
    if cert.kind == "optimal":
        return f"OPTIMAL {cert.num_colors}"
    ob = cert.obstruction
    chords = 0 if ob.chord is None else 1
    return f"OBSTRUCTION len={len(ob.cycle)} chords={chords}"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="meyniel",
        description="Certified coloring: optimal coloring plus matching clique, "
        "or an odd cycle with at most one chord.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("graph", nargs="?", default="-", help="graph file, '-' for stdin")
        p.add_argument("--format", choices=("dimacs", "edgelist"), default="dimacs")

    p = sub.add_parser("solve", help="color the graph or produce an obstruction")
    add_graph_args(p)
    p.add_argument("--order", help="comma-separated vertex order to force")
    p.add_argument("--out", help="write the certificate here instead of stdout")

    p = sub.add_parser("stableset", help="nice stable set through a vertex, or obstruction")
    add_graph_args(p)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--out", help="write the certificate here instead of stdout")

    p = sub.add_parser("colorbystable", help="color by stripping nice stable sets")
    add_graph_args(p)
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
            sys.stdout.write(to_dimacs(generate(spec)))
            return 0

        g = _read_graph(args.graph, getattr(args, "format", "dimacs"))

        if args.command == "solve":
            tb = None
            if args.order is not None:
                order = tuple(int(tok) for tok in args.order.split(","))
                tb = TieBreak.forced(order)
            cert = robust_solve(g, tb)
            print(_summary(cert))
            _write_cert(cert, args.out)
            return 0

        if args.command == "stableset":
            cert = robust_stable_set(g, args.vertex)
            print(_summary(cert))
            _write_cert(cert, args.out)
            return 0

        if args.command == "colorbystable":
            cert = color_via_stable_sets(g)
            print(_summary(cert))
            _write_cert(cert, args.out)
            return 0

        if args.command == "verify":
            with open(args.cert, "rb") as fh:
                data = fh.read()
            try:
                cert = decode(g, data)
            except CertificateInvalidError as exc:
                print(f"INVALID: {exc}")
                return 1
            print(f"VALID {_summary(cert)}")
            return 0

        if args.command == "oracle":
            if args.what == "chromatic":
                print(chromatic_bf(g))
            elif args.what == "omega":
                print(omega_bf(g))
            else:
                print("meyniel" if is_meyniel_bf(g) else "not_meyniel")
            return 0
    except (GraphInputError, CertificateFormatError, OracleSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    sys.exit(main())
