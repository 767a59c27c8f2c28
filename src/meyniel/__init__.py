"""Certified graph coloring via lexicographic labels.

For any simple graph the solver returns either an optimal coloring
together with a clique of the same size, or an explicit obstruction: an
odd cycle of length at least five carrying at most one chord.  A second
pipeline produces, for any chosen vertex, a "nice" ordered maximal
stable set through it or again such a cycle.  Every certificate is
re-checked by independent verifiers before it is handed out.
"""

from .app import color_via_stable_sets, main, robust_solve, robust_stable_set
from .certify import (
    Certificate,
    CertificateFormatError,
    CertificateInvalidError,
    MeynielObstruction,
    NiceStableSetCert,
    OptimalPair,
    Verdict,
    decode,
    encode,
    verify_clique,
    verify_coloring,
    verify_nice_order,
    verify_obstruction,
    verify_optimal_pair,
)
from .clique import CliqueComplete, CliqueFailure, greedy_clique, greedy_clique_over
from .gen import GenSpec, generate
from .graph import Graph, GraphInputError, GraphParseError, build, parse, parse_stream, to_dimacs
from .lexcolor import ColorTrace, ForcedOrderError, lex_color
from .niceset import NiceCheckWitness, nice_check
from .obstruction import InternalInvariantError, extract_obstruction

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateFormatError",
    "CertificateInvalidError",
    "CliqueComplete",
    "CliqueFailure",
    "ColorTrace",
    "ForcedOrderError",
    "GenSpec",
    "Graph",
    "GraphInputError",
    "GraphParseError",
    "InternalInvariantError",
    "MeynielObstruction",
    "NiceCheckWitness",
    "NiceStableSetCert",
    "OptimalPair",
    "Verdict",
    "build",
    "color_via_stable_sets",
    "decode",
    "encode",
    "extract_obstruction",
    "generate",
    "greedy_clique",
    "greedy_clique_over",
    "lex_color",
    "main",
    "nice_check",
    "parse",
    "parse_stream",
    "robust_solve",
    "robust_stable_set",
    "to_dimacs",
    "verify_clique",
    "verify_coloring",
    "verify_nice_order",
    "verify_obstruction",
    "verify_optimal_pair",
]
