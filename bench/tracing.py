"""Spans around the layers of `meyniel`, installed from outside at run time.

Nothing under `src/` knows about tracing.  `Tracer.install` replaces the
public functions as `meyniel.app`, `meyniel.certify` and
`meyniel.obstruction` bind them, plus `Graph.subgraph`, with wrappers
that record a span (name, start, end, parent, request id) and count what
the call returned; `Tracer.uninstall` puts the originals back.  Spans stay
in memory until the run ends.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Calls are sequential (one thread), so the children of
a span never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); the span name's prefix is the layer.
_SOLVER_BINDINGS = (
    ("app", "main", "app.main"),
    ("app", "robust_solve", "app.robust_solve"),
    ("app", "robust_stable_set", "app.robust_stable_set"),
    ("app", "color_via_stable_sets", "app.color_via_stable_sets"),
    ("app", "parse", "graph.parse"),
    ("app", "lex_color", "lexcolor.lex_color"),
    ("app", "greedy_clique", "clique.greedy_clique"),
    ("app", "greedy_clique_over", "clique.greedy_clique"),
    ("app", "nice_check", "niceset.nice_check"),
    ("app", "extract_obstruction", "obstruction.extract"),
    ("app", "build_view", "obstruction.extract"),
    ("app", "bad_path_to_near", "obstruction.extract"),
    ("app", "near_to_obstruction", "obstruction.extract"),
    ("app", "verify_obstruction", "certify.verify_obstruction"),
    ("obstruction", "verify_obstruction", "certify.verify_obstruction"),
    ("app", "verify_optimal_pair", "certify.verify_pair"),
    ("app", "encode", "certify.encode"),
    ("app", "decode", "certify.decode"),
    # the calls decode makes, bound in meyniel.certify
    ("certify", "nice_check", "niceset.verify_nice_check"),
    ("certify", "verify_optimal_pair", "certify.verify_pair"),
    ("certify", "verify_obstruction", "certify.verify_obstruction"),
)

# Span names whose self time is the layer metric of the same stem.
SELF_TIME_METRICS = {
    "graph.parse_s": ("graph.parse",),
    "graph.subgraph_s": ("graph.subgraph",),
    "lexcolor.lex_color_s": ("lexcolor.lex_color",),
    "clique.greedy_clique_s": ("clique.greedy_clique",),
    "niceset.nice_check_s": ("niceset.nice_check",),
    "niceset.verify_nice_check_s": ("niceset.verify_nice_check",),
    "obstruction.extract_s": ("obstruction.extract",),
    "certify.verify_pair_s": ("certify.verify_pair",),
    "certify.verify_obstruction_s": ("certify.verify_obstruction",),
    "certify.encode_s": ("certify.encode",),
    "certify.decode_s": ("certify.decode",),
    "app.self_s": (
        "app.main",
        "app.robust_solve",
        "app.robust_stable_set",
        "app.color_via_stable_sets",
    ),
}


class Tracer:
    """In-memory span recorder plus the counters read at the same boundaries."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self.request = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            count(tracer.counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, count) -> None:
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, name, count))

    def install(self, modules: dict) -> None:
        """Wrap the bindings; `modules` maps app/certify/obstruction/graph to modules."""
        for mod, attr, name in _SOLVER_BINDINGS:
            counter = _COUNTERS.get((mod, attr), _no_count)
            self._patch(modules[mod], attr, name, counter)
        self._patch(modules["graph"].Graph, "subgraph", "graph.subgraph", _count_subgraph)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")


def _no_count(counts, args, result) -> None:
    pass


def _count_parse(counts, args, result) -> None:
    counts["graph.parse_calls"] += 1
    counts["graph.input_bytes"] += len(args[0])


def _count_subgraph(counts, args, result) -> None:
    counts["graph.subgraph_calls"] += 1


def _count_lex(counts, args, result) -> None:
    counts["lexcolor.calls"] += 1
    counts["lexcolor.colors_total"] += result.num_colors


def _count_clique(counts, args, result) -> None:
    counts["clique.calls"] += 1
    counts["clique.depth_total"] += len(result.clique)
    if not hasattr(result, "color"):
        counts["clique.completed"] += 1


def _count_nice(counts, args, result) -> None:
    counts["niceset.calls"] += 1
    counts["niceset.set_size_total"] += len(args[1])
    if result is not None:
        counts["niceset.witness_found"] += 1


def _count_obstruction(counts, args, result) -> None:
    counts["obstruction.calls"] += 1
    counts["obstruction.cycle_len_total"] += len(result.cycle)
    if result.chord is not None:
        counts["obstruction.chorded"] += 1


def _count_solver_verify_obstruction(counts, args, result) -> None:
    counts["certify.solver_verify_obstruction_calls"] += 1


def _count_encode(counts, args, result) -> None:
    counts["certify.encode_calls"] += 1
    counts["certify.cert_bytes_total"] += len(result)
    if result.startswith(b'{"chord"'):
        counts["certify.obstructions_encoded"] += 1


_COUNTERS = {
    ("app", "parse"): _count_parse,
    ("app", "lex_color"): _count_lex,
    ("app", "greedy_clique"): _count_clique,
    ("app", "greedy_clique_over"): _count_clique,
    ("app", "nice_check"): _count_nice,
    ("certify", "nice_check"): _count_nice,
    ("app", "extract_obstruction"): _count_obstruction,
    ("app", "near_to_obstruction"): _count_obstruction,
    ("app", "verify_obstruction"): _count_solver_verify_obstruction,
    ("obstruction", "verify_obstruction"): _count_solver_verify_obstruction,
    ("app", "encode"): _count_encode,
}


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-layer metrics: self times per iteration, counts over the run."""
    own = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    for s, t in zip(tracer.spans, own):
        by_name[s[0]] += t
    out = {
        metric: sum(by_name[name] for name in names) / iterations
        for metric, names in SELF_TIME_METRICS.items()
    }
    c = tracer.counts

    def mean(total: str, calls: str) -> float:
        return c[total] / c[calls] if c[calls] else 0.0

    out.update({
        "graph.input_mb": mean("graph.input_bytes", "graph.parse_calls") / 1e6,
        "graph.subgraph_calls": c["graph.subgraph_calls"],
        "lexcolor.calls": c["lexcolor.calls"],
        "lexcolor.colors": mean("lexcolor.colors_total", "lexcolor.calls"),
        "clique.calls": c["clique.calls"],
        "clique.completed": c["clique.completed"],
        "clique.depth": mean("clique.depth_total", "clique.calls"),
        "niceset.set_size": mean("niceset.set_size_total", "niceset.calls"),
        "niceset.witness_found": c["niceset.witness_found"],
        "obstruction.calls": c["obstruction.calls"],
        "obstruction.cycle_len_mean": mean("obstruction.cycle_len_total", "obstruction.calls"),
        "obstruction.chorded_share": mean("obstruction.chorded", "obstruction.calls"),
        "certify.verify_obstruction_calls": mean(
            "certify.solver_verify_obstruction_calls", "certify.obstructions_encoded"
        ),
        "certify.cert_bytes": mean("certify.cert_bytes_total", "certify.encode_calls"),
    })
    return out


def request_split(tracer: Tracer, kinds: dict[int, str]) -> dict[str, dict[str, float]]:
    """Self time by layer for each request kind; `kinds` maps request id to kind."""
    own = tracer.self_times()
    split: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, t in zip(tracer.spans, own):
        split[kinds[s[4]]][s[0].split(".")[0]] += t
    return {k: dict(v) for k, v in split.items()}


def self_sum_by_request(tracer: Tracer) -> dict[int, float]:
    """Sum of the self times of every span of each request."""
    own = tracer.self_times()
    total: dict[int, float] = defaultdict(float)
    for s, t in zip(tracer.spans, own):
        total[s[4]] += t
    return dict(total)
