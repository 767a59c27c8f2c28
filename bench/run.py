"""Benchmark for `meyniel`: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from `src/`
of the working directory and nothing needs installing.  The benchmark
makes its inputs from the seed, runs a closed loop with one client (each
request waits for the previous one; no threads, no parallel processes)
for `--seconds`, checks every certificate with its own checker
(`check.py`) outside the timed region, and prints a report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones, timed with tracing
off.  CLI workloads time whole `python3 -m meyniel ...` processes.  With
`--trace 1` the same requests run in-process through `meyniel.app.main`,
once plain and once with the layer wrappers of `tracing.py` installed;
the metrics are per-layer, and the report gives the tracing overhead.
The full report, the input digests and the environment go to
`.bench_work/results/`, and traced runs also leave their spans there.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Set-up is timed at least SETUP_REPEATS times and until SETUP_BUDGET_S
# seconds are spent (at most SETUP_MAX times); the median is reported.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0
SETUP_MAX = 30
# chordal-stable iteration: SOLVES_PER_ITERATION x (solve, verify) so that
# the short processes get enough samples, then colorbystable, then
# STABLE_PER_ITERATION x (stableset, verify)
SOLVES_PER_ITERATION = 4
STABLE_PER_ITERATION = 2
BATCH_GRAPHS = 4000  # graphs in the small-batch stream; the loop cycles over it
BATCH_BLOCK = 50  # small-batch graphs per iteration
IMPORT_REPEATS = 5

# The reason for each workload; NOTES.md gives the predicted layer split.
WORKLOADS = {
    "dense": "G(2000, 1/2), solve then verify: parsing and dense lex_color; "
    "stops at a 5-cycle, so niceset and the optimal-pair verifiers stay idle",
    "sparse": "G(10000, p) with mean degree 10, solve then verify: lex_color "
    "dominates and a long odd cycle is extracted; parsing is small",
    "chordal-stable": "chordal n=4000 from cliques of 10: optimal pairs, "
    "colorbystable and stableset queries, so nice_check and the verifiers do full work",
    "small-batch": "4000 small G(n, p) graphs in-process: fixed cost per call "
    "of every layer, thousands of obstruction extractions",
}

# end-to-end metrics printed with --trace 0: name -> unit
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "iteration_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics printed with --trace 1: name -> unit
PER_LAYER = {
    "graph.parse_s": "s",
    "graph.input_mb": "MB",
    "graph.subgraph_s": "s",
    "graph.subgraph_calls": "count",
    "lexcolor.lex_color_s": "s",
    "lexcolor.calls": "count",
    "lexcolor.colors": "count",
    "clique.greedy_clique_s": "s",
    "clique.calls": "count",
    "clique.completed": "count",
    "clique.depth": "count",
    "niceset.nice_check_s": "s",
    "niceset.verify_nice_check_s": "s",
    "niceset.set_size": "count",
    "niceset.witness_found": "count",
    "obstruction.extract_s": "s",
    "obstruction.calls": "count",
    "obstruction.cycle_len_mean": "count",
    "obstruction.chorded_share": "frac",
    "certify.verify_pair_s": "s",
    "certify.verify_obstruction_s": "s",
    "certify.verify_obstruction_calls": "count",
    "certify.encode_s": "s",
    "certify.decode_s": "s",
    "certify.cert_bytes": "bytes",
    "app.self_s": "s",
    "app.import_s": "s",
    "trace.overhead_frac": "frac",
    "trace.self_sum_gap_frac": "frac",
}

# Report-only metrics named after the CLI commands; they apply to some
# workloads only, so they are not in the JSON result line.
REPORT_UNITS = {
    "stableset_s": "s",
    "stable_verify_s": "s",
    "colorbystable_s": "s",
    "batch_graphs_per_s": "1/s",
    "batch_p50_ms": "ms",
    "batch_p99_ms": "ms",
    "failed_frac": "frac",
    "trace.plain_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.self_sum_gap_max_frac": "frac",
    "trace.spans": "count",
}


@dataclass
class Inputs:
    """What set-up produced: one graph file, or a stream of small graphs."""

    n: int = 0
    edges: list = field(default_factory=list)
    path: str = ""
    stream: list = field(default_factory=list)  # DIMACS texts
    digest: str = ""
    sample: list = field(default_factory=list)  # stableset vertices


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def make_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    rng = gen.rng_for(seed, workload)
    if workload == "small-batch":
        stream = [gen.dimacs(n, es) for n, es in gen.small_stream(BATCH_GRAPHS, rng)]
        path = os.path.join(workdir, "stream.col")
        gen.write_input(path, "".join(stream))
        return Inputs(path=path, stream=stream, digest=gen.digest_of(stream))
    if workload == "dense":
        n, edges = 2000, gen.gnp(2000, 0.5, rng)
    elif workload == "sparse":
        n = 10000
        edges = gen.gnp(n, 10.0 / (n - 1), rng)
    elif workload == "chordal-stable":
        n, edges = 4000, gen.chordal(4000, 10, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = os.path.join(workdir, "graph.col")
    digest = gen.write_input(path, gen.dimacs(n, edges))
    sample = []
    if workload == "chordal-stable":
        sample = gen.rng_for(seed, "stableset-sample").permutation(n).tolist()
    return Inputs(n=n, edges=edges, path=path, digest=digest, sample=sample)


def timed_setup(workload: str, seed: int, workdir: str) -> tuple[Inputs, float]:
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        inputs = None  # let the previous set of inputs go before the next is made
        t0 = perf_counter()
        inputs = make_inputs(workload, seed, workdir)
        times.append(perf_counter() - t0)
    return inputs, statistics.median(times)


# --- CLI workloads -------------------------------------------------------


@dataclass
class Request:
    kind: str
    args: list
    check: object  # (stdout text) -> reason or None


def cli_requests(workload: str, inputs: Inputs, adj, iteration: int, workdir: str):
    """The requests of one iteration, in order; each checks its own output."""
    g = inputs.path
    cert = os.path.join(workdir, "solve.json")

    def produced(path, checker, out):
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return f"no certificate: {exc}"
        reason = checker(data)
        if reason is None and out.splitlines()[:1] != [check.summary(data)]:
            reason = f"summary {out.splitlines()[:1]} does not match the certificate"
        return reason

    def verified(path, out):
        try:
            with open(path, "rb") as fh:
                want = "VALID " + check.summary(fh.read())
        except (OSError, ValueError, KeyError) as exc:
            return f"no certificate to verify: {exc}"
        return None if out.strip() == want else f"verify printed {out.strip()[:80]!r}"

    def solve_check(data):
        return check.check_solve(adj, data)

    for _ in range(SOLVES_PER_ITERATION if workload == "chordal-stable" else 1):
        gen.remove_quietly(cert)
        yield Request("solve", ["solve", g, "--out", cert],
                      lambda out: produced(cert, solve_check, out))
        yield Request("verify", ["verify", g, cert], lambda out: verified(cert, out))
    if workload != "chordal-stable":
        return
    cbs = os.path.join(workdir, "colorbystable.json")
    gen.remove_quietly(cbs)
    yield Request("colorbystable", ["colorbystable", g, "--out", cbs],
                  lambda out: produced(cbs, solve_check, out))
    for j in range(STABLE_PER_ITERATION):
        v = inputs.sample[(iteration * STABLE_PER_ITERATION + j) % len(inputs.sample)]
        ss = os.path.join(workdir, f"stable{j}.json")
        gen.remove_quietly(ss)
        yield Request("stableset", ["stableset", g, "--vertex", str(v), "--out", ss],
                      lambda out, ss=ss, v=v: produced(
                          ss, lambda data: check.check_stable(adj, data, v), out))
        yield Request("stable_verify", ["verify", g, ss], lambda out, ss=ss: verified(ss, out))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """The small process (launch.py) that starts and times measured commands."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )

    def run(self, argv: list) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def run_cli(workload, inputs, seconds, workdir, tally, launcher) -> dict:
    adj = check.adjacency(inputs.n, inputs.edges)
    samples: dict[str, list[float]] = {}
    iterations: list[float] = []
    deadline = perf_counter() + seconds
    it = 0
    while it == 0 or perf_counter() < deadline:
        busy = 0.0
        for req in cli_requests(workload, inputs, adj, it, workdir):
            done = launcher.run([sys.executable, "-m", "meyniel", *req.args])
            busy += done["wall"]
            samples.setdefault(req.kind, []).append(done["wall"])
            if done["returncode"] != 0:
                tally.record(f"{req.kind} exited {done['returncode']}: "
                             f"{done['stderr'].strip()[-200:]}")
            else:
                tally.record(req.check(done["stdout"]))
        iterations.append(busy)
        it += 1
    rss = done["maxrss_kib"] * 1024 / 1e6
    metrics = {
        "solve_s": statistics.median(samples["solve"]),
        "verify_s": statistics.median(samples["verify"]),
        "iteration_s": statistics.median(iterations),
        "peak_rss_mb": rss,
    }
    extra = {}
    for kind, name in (("stableset", "stableset_s"), ("stable_verify", "stable_verify_s"),
                       ("colorbystable", "colorbystable_s")):
        if kind in samples:
            extra[name] = statistics.median(samples[kind])
    counts = {kind: len(v) for kind, v in samples.items()}
    counts["iterations"] = len(iterations)
    return {"metrics": metrics, "extra": extra, "samples": counts}


# --- small-batch ------------------------------------------------------------


def import_meyniel() -> dict:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import meyniel.app
    import meyniel.certify
    import meyniel.graph
    import meyniel.obstruction

    return {"app": meyniel.app, "certify": meyniel.certify,
            "obstruction": meyniel.obstruction, "graph": meyniel.graph}


def batch_once(app, text: str):
    """DIMACS text -> parse -> robust_solve -> encode -> decode, timed."""
    t0 = perf_counter()
    g = app.parse(text)
    cert = app.robust_solve(g)
    data = app.encode(cert)
    t1 = perf_counter()
    back = app.decode(g, data)
    t2 = perf_counter()
    return t1 - t0, t2 - t1, cert, data, back


def batch_check(text, cert, data, back) -> str | None:
    if back != cert:
        return "decode did not give back the certificate"
    return check.check_solve(check.adjacency_from_dimacs(text), data)


def run_batch(inputs, seconds, tally) -> dict:
    app = import_meyniel()["app"]
    solve, verify, latency, blocks = [], [], [], []
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        block = 0.0
        for _ in range(BATCH_BLOCK):
            text = inputs.stream[i % len(inputs.stream)]
            i += 1
            try:
                ts, tv, cert, data, back = batch_once(app, text)
            except Exception as exc:  # any exception is a failed operation
                tally.record(f"graph {i - 1}: {type(exc).__name__}: {exc}")
                continue
            solve.append(ts)
            verify.append(tv)
            latency.append(ts + tv)
            block += ts + tv
            tally.record(batch_check(text, cert, data, back))
        blocks.append(block)
    q = statistics.quantiles(latency, n=100)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "metrics": {
            "solve_s": statistics.median(solve),
            "verify_s": statistics.median(verify),
            "iteration_s": statistics.median(blocks),
            "peak_rss_mb": rss,
        },
        "extra": {
            "batch_graphs_per_s": len(latency) / sum(latency),
            "batch_p50_ms": statistics.median(latency) * 1e3,
            "batch_p99_ms": q[98] * 1e3,
        },
        "samples": {"graphs": len(latency), "iterations": len(blocks)},
    }


# --- traced run ---------------------------------------------------------------


def import_seconds(env) -> float:
    """Median time of `import meyniel.app` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import meyniel.app; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        times.append(float(out))
    return statistics.median(times)


def run_traced(workload, inputs, seconds, workdir, tally, spans_path) -> dict:
    mods = import_meyniel()
    app = mods["app"]
    tracer = tracing.Tracer()
    kinds: dict[int, str] = {}
    walls = {"plain": 0.0, "traced": 0.0}
    gaps = []

    def call(kind, fn, traced):
        """Run fn once; with tracing, as its own request.  Returns its result."""
        if traced:
            tracer.request += 1
            kinds[tracer.request] = kind
            tracer.install(mods)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            wall = perf_counter() - t0
            if traced:
                tracer.uninstall()
                gaps.append((tracer.request, wall))
            walls["traced" if traced else "plain"] += wall

    adj = check.adjacency(inputs.n, inputs.edges) if inputs.edges else None
    deadline = perf_counter() + seconds
    it = 0
    while it == 0 or perf_counter() < deadline:
        order = (False, True) if it % 2 == 0 else (True, False)
        if workload == "small-batch":
            text = inputs.stream[it % len(inputs.stream)]
            for traced in order:
                def one():
                    if not traced:
                        return batch_once(app, text)
                    rec = tracer.begin("bench.request")
                    try:
                        return batch_once(app, text)
                    finally:
                        tracer.end(rec)
                try:
                    _, _, cert, data, back = call("batch", one, traced)
                except Exception as exc:  # any exception is a failed operation
                    tally.record(f"{type(exc).__name__}: {exc}")
                    continue
                tally.record(batch_check(text, cert, data, back))
        else:
            for req in cli_requests(workload, inputs, adj, it, workdir):
                for traced in order:
                    out = io.StringIO()

                    def one():
                        with redirect_stdout(out):
                            return app.main(req.args)
                    try:
                        rc = call(req.kind, one, traced)
                    except (Exception, SystemExit) as exc:
                        tally.record(f"{req.kind}: {type(exc).__name__}: {exc}")
                        continue
                    tally.record(f"{req.kind} returned {rc}" if rc != 0
                                 else req.check(out.getvalue()))
        it += 1

    own = tracing.self_sum_by_request(tracer)
    metrics = tracing.layer_metrics(tracer, it)
    metrics["app.import_s"] = import_seconds(child_env())
    metrics["trace.overhead_frac"] = (walls["traced"] - walls["plain"]) / walls["plain"]
    metrics["trace.self_sum_gap_frac"] = (
        sum(abs(wall - own[rid]) for rid, wall in gaps) / sum(wall for _, wall in gaps))
    tracer.dump(spans_path)
    return {
        "metrics": metrics,
        "extra": {
            "trace.plain_wall_s": walls["plain"],
            "trace.traced_wall_s": walls["traced"],
            "trace.self_sum_gap_max_frac": max(abs(wall - own[rid]) / wall for rid, wall in gaps),
            "trace.spans": len(tracer.spans),
        },
        "split": tracing.request_split(tracer, kinds),
        "samples": {"iterations": it, "requests": len(gaps)},
    }


# --- environment, report, main ------------------------------------------------


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
                               "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": gen.np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "machine_tuning": "none: no pinning, no governor or affinity settings",
    }


def report(workload, seed, trace, inputs, setup_s, result, tally, env) -> None:
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print(f"why: {WORKLOADS[workload]}")
    print(f"input sha256 {inputs.digest}")
    print("load: closed loop, one client")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("samples: " + "  ".join(f"{k}={v}" for k, v in result["samples"].items()))
    units = {**END_TO_END, **PER_LAYER, **REPORT_UNITS}
    shown = dict(result["metrics"])
    if not trace:
        shown["setup_s"] = setup_s
        shown["failed_frac"] = tally.failed / tally.attempted
    shown.update(result["extra"])
    for name, value in shown.items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")
    if trace:
        print("oracle: not benchmarked (a test-only brute-force reference no pipeline calls)")
        print("self time by layer for each request kind (share of the kind's traced wall):")
        for kind, layers in result["split"].items():
            total = sum(layers.values())
            parts = "  ".join(f"{k}={v / total:.1%}" for k, v in
                              sorted(layers.items(), key=lambda kv: -kv[1]))
            print(f"  {kind:14s} {total:10.4f} s  {parts}")
    for reason in tally.reasons:
        print(f"FAILED: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark one meyniel workload.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "meyniel", "app.py")):
        print(f"error: no meyniel sources under {SRC}; run from the root of the source tree",
              file=sys.stderr)
        return 2

    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    # started first, while this process is small (see launch.py)
    launcher = Launcher()
    try:
        # compile and cache the sources before anything is timed
        warm = launcher.run([sys.executable, "-c", "import meyniel.app"])
        if warm["returncode"] != 0:
            raise RuntimeError(f"cannot import meyniel: {warm['stderr'].strip()[-500:]}")
        inputs, setup_s = timed_setup(args.workload, args.seed, workdir)
        if args.trace:
            result = run_traced(args.workload, inputs, args.seconds, workdir, tally,
                                os.path.join(results_dir, tag + ".spans.jsonl"))
        elif args.workload == "small-batch":
            result = run_batch(inputs, args.seconds, tally)
        else:
            result = run_cli(args.workload, inputs, args.seconds, workdir, tally, launcher)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    report(args.workload, args.seed, args.trace, inputs, setup_s, result, tally, env)
    if args.trace:
        metrics = {k: result["metrics"][k] for k in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {**result["metrics"], "setup_s": setup_s}
        units = END_TO_END
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"result": line, "extra": result["extra"], "samples": result["samples"],
                   "split": result.get("split"), "setup_s": setup_s,
                   "input_sha256": inputs.digest, "env": env}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
