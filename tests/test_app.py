import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings

from meyniel import graph, obstruction
from meyniel.app import color_via_stable_sets, main, robust_solve, robust_stable_set
from meyniel.certify import (
    CertificateInvalidError,
    MeynielObstruction,
    NiceStableSetCert,
    OptimalPair,
    decode,
    encode,
    verify_obstruction,
)
from meyniel.clique import CliqueComplete, greedy_clique
from meyniel.gen import GenSpec, generate
from meyniel.graph import parse, to_dimacs
from meyniel.niceset import nice_check
from meyniel.obstruction import InternalInvariantError, extract_obstruction
from meyniel.oracle import chromatic_bf, is_meyniel_bf, omega_bf

from conftest import (
    assert_verify_matches_decode,
    cli_verify,
    counted_forks,
    graphs,
    is_strong_stable_set,
    naive_lex_color,
    random_graph,
    split_reads,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def child_env():
    """This environment with `src` on PYTHONPATH, so `python -m meyniel` runs uninstalled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@given(graphs(max_n=9))
@settings(max_examples=250)
def test_robust_solve_certified_and_optimal(g):
    cert = robust_solve(g)
    if isinstance(cert, OptimalPair):
        k = cert.num_colors
        assert k == chromatic_bf(g) == omega_bf(g)
        assert len(cert.clique) == k
    else:
        assert verify_obstruction(g, cert)
        assert not is_meyniel_bf(g)


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=200)
def test_robust_stable_set_every_vertex(g):
    for v in range(g.n):
        res = robust_stable_set(g, v)
        if isinstance(res, NiceStableSetCert):
            assert res.order[0] == v
            assert nice_check(g, res.order) is None
            assert is_strong_stable_set(g, res.order)
        else:
            assert verify_obstruction(g, res)
            assert not is_meyniel_bf(g)


@given(graphs(max_n=9))
@settings(max_examples=200)
def test_color_via_stable_sets_certified(g):
    cert = color_via_stable_sets(g)
    if isinstance(cert, OptimalPair):
        assert cert.num_colors == chromatic_bf(g)
    else:
        assert verify_obstruction(g, cert)


def test_both_strategies_give_same_certificate(monkeypatch):
    """The certificate is the one the naive reference coloring leads to."""
    gs = [generate(GenSpec(family="gnp", n=30, p=0.4, seed=s)) for s in range(5, 10)]
    certs = [robust_solve(g) for g in gs]
    monkeypatch.setattr("meyniel.app.lex_color", naive_lex_color)
    assert [robust_solve(g) for g in gs] == certs


def partial_clique_as_complete(made, g, trace):
    res = greedy_clique(g, trace)
    made.append(OptimalPair(coloring=trace.color_of, clique=res.clique))
    return CliqueComplete(clique=res.clique)


def obstruction_with_false_chord(made, g, trace, stuck):
    cycle = extract_obstruction(g, trace, stuck).cycle
    made.append(MeynielObstruction(cycle=cycle, chord=(cycle[0], cycle[2])))
    return made[-1]


def every_order_nice(made, g, order):
    made.append(NiceStableSetCert(order=tuple(order)))
    return None


@pytest.mark.parametrize("target, fake, pipeline", [
    ("greedy_clique", partial_clique_as_complete, robust_solve),
    ("extract_obstruction", obstruction_with_false_chord, robust_solve),
    ("nice_check", every_order_nice, lambda g: robust_stable_set(g, 0)),
], ids=["OptimalPair", "MeynielObstruction", "NiceStableSetCert"])
def test_pipeline_rejects_broken_certificate(monkeypatch, target, fake, pipeline):
    """A stage that hands back a broken certificate trips the boundary check.

    The error carries the reason `decode` gives for the same certificate.
    On the 7-cycle the clique builder gets stuck and the first color class
    through vertex 0 is not nice, so each stage is reached.
    """
    g = generate(GenSpec(family="cycle", n=7))
    made = []
    monkeypatch.setattr(f"meyniel.app.{target}", lambda *args: fake(made, *args))
    with pytest.raises(InternalInvariantError) as failure:
        pipeline(g)
    (cert,) = made
    with pytest.raises(CertificateInvalidError) as rejection:
        decode(g, encode(cert))
    assert_verify_matches_decode(g, encode(cert))
    assert str(failure.value) == f"{type(cert).__name__} failed verification: {rejection.value}"


def write_graph(tmp_path, g, name="g.col"):
    path = tmp_path / name
    path.write_text(to_dimacs(g))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_gen_round_trips(capsys):
    code, out, err = run(capsys, "gen", "--family", "cycle", "--n", "7")
    assert code == 0 and err == ""
    g = parse(out)
    assert g.n == 7 and g.m == 7

    code, out, _ = run(capsys, "gen", "--family", "builtin", "--name", "p6bar")
    assert code == 0
    assert parse(out).m == 10


def test_cli_solve_optimal(tmp_path, capsys):
    g = generate(GenSpec(family="chordal", n=12, p=0.6, seed=3))
    path = write_graph(tmp_path, g)
    code, out, err = run(capsys, "solve", path)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0].startswith("OPTIMAL ")
    cert = decode(g, lines[1])
    assert isinstance(cert, OptimalPair)


def test_cli_solve_forced_obstruction(tmp_path, capsys):
    g = generate(GenSpec(family="builtin", name="p6bar"))
    path = write_graph(tmp_path, g)
    out_file = tmp_path / "cert.json"
    code, out, _ = run(capsys, "solve", path, "--order", "1,4,2,0,3,5",
                       "--out", str(out_file))
    assert code == 0
    assert out.strip() == "OBSTRUCTION len=5 chords=1"
    cert = decode(g, out_file.read_text())
    assert isinstance(cert, MeynielObstruction)
    assert set(cert.cycle) == {0, 1, 2, 3, 4}
    assert cert.chord == (0, 4)

    code, out, _ = run(capsys, "verify", path, str(out_file))
    assert code == 0
    assert out.strip() == "VALID OBSTRUCTION len=5 chords=1"


def test_cli_verify_rejects_tampering(tmp_path, capsys):
    g = generate(GenSpec(family="chordal", n=10, p=0.5, seed=1))
    path = write_graph(tmp_path, g)
    out_file = tmp_path / "cert.json"
    assert run(capsys, "solve", path, "--out", str(out_file))[0] == 0
    doc = json.loads(out_file.read_text())
    doc["coloring"][0] = doc["coloring"][0] + 1
    out_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", path, str(out_file))
    assert code == 1
    assert out.startswith("INVALID: ")
    assert_verify_matches_decode(g, json.dumps(doc))

    out_file.write_text("{broken")
    code, _, err = run(capsys, "verify", path, str(out_file))
    assert code == 2
    assert "error:" in err
    assert_verify_matches_decode(g, "{broken")


def test_cli_stableset(tmp_path, capsys):
    g = parse("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    path = write_graph(tmp_path, g)
    code, out, _ = run(capsys, "stableset", path, "--vertex", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "NICE_STABLE_SET 2"
    assert decode(g, lines[1]) == NiceStableSetCert(order=(0, 2))


def test_cli_colorbystable(tmp_path, capsys):
    g = generate(GenSpec(family="bipartite", n=14, p=0.5, seed=2))
    path = write_graph(tmp_path, g)
    code, out, _ = run(capsys, "colorbystable", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith(("OPTIMAL ", "OBSTRUCTION "))
    decode(g, lines[1])


def test_cli_oracle(tmp_path, capsys):
    c5 = generate(GenSpec(family="cycle", n=5))
    path = write_graph(tmp_path, c5)
    assert run(capsys, "oracle", path, "--what", "chromatic")[1].strip() == "3"
    assert run(capsys, "oracle", path, "--what", "omega")[1].strip() == "2"
    assert run(capsys, "oracle", path, "--what", "meyniel")[1].strip() == "not_meyniel"
    c6 = generate(GenSpec(family="cycle", n=6))
    path6 = write_graph(tmp_path, c6, "c6.col")
    assert run(capsys, "oracle", path6, "--what", "meyniel")[1].strip() == "meyniel"


def test_cli_stdin(capsys, monkeypatch):
    g = generate(GenSpec(family="complete", n=4))
    # a real stdin has bytes underneath, which the CLI decodes as strict UTF-8
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(to_dimacs(g).encode()), encoding="utf-8"))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0
    assert out.splitlines()[0] == "OPTIMAL 4"


def test_cli_error_paths(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.col"))
    assert code == 2 and "error:" in err

    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 5\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2 and "error:" in err

    g = generate(GenSpec(family="cycle", n=5))
    path = write_graph(tmp_path, g)
    code, _, err = run(capsys, "solve", path, "--order", "0,1,2")
    assert code == 2 and "error:" in err

    big = write_graph(tmp_path, generate(GenSpec(family="edgeless", n=40)), "big.col")
    code, _, err = run(capsys, "oracle", big, "--what", "chromatic")
    assert code == 2 and "limited to" in err

    # every command reads DIMACS only: an edge list is malformed input,
    # and there is no option to choose a format
    edges = tmp_path / "edges.txt"
    edges.write_text("3\n0 1\n1 2\n")
    assert run(capsys, "solve", str(edges)) == (2, "", "error: line 1: unrecognized line '3'\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--format", "dimacs", path])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err

    with pytest.raises(SystemExit):
        main(["solve", "--no-such-flag"])


@pytest.mark.parametrize("args", [
    ["stableset", "--vertex", "-1"],
    ["stableset", "--vertex", "5"],
    ["solve", "--order=-1,1,2,3,4"],
    ["solve", "--order", "0,1,2,3,3"],
    ["solve", "--order", "0,1,2,3,5"],
])
def test_cli_vertex_outside_the_graph_exits_2(tmp_path, capsys, args):
    path = write_graph(tmp_path, generate(GenSpec(family="cycle", n=5)))
    code, out, err = run(capsys, args[0], path, *args[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_vertex_count_no_list_can_hold_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.col"
    path.write_text("p edge 99999999999999999999999 1\n")
    cert = tmp_path / "cert.json"
    cert.write_bytes(obstruction_doc([0, 1, 2, 3, 4]))
    # verify first: without the header check it fails at once, where
    # solve allocates until the process is killed
    for args in (["verify", str(path), str(cert)], ["solve", str(path)]):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, ""), args
        assert err == f"error: line 1: vertex count 99999999999999999999999 exceeds {sys.maxsize}\n"


@pytest.mark.parametrize("where", ["path", "stdin"])
@pytest.mark.parametrize("offset", [30, 120_000])
def test_cli_graph_not_utf8(tmp_path, capsys, monkeypatch, where, offset):
    """A bad byte in the first block or past it: exit 2, one line, no block position."""
    text = to_dimacs(generate(GenSpec(family="cycle", n=20_000))).encode()
    cut = text.index(b"\n", offset) + 1
    data = text[:cut] + b"c \xff\n" + text[cut:]
    assert len(text) > 2 * 65536
    if where == "path":
        path = tmp_path / "bad.col"
        path.write_bytes(data)
        code, out, err = run(capsys, "solve", str(path))
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code, out, err = run(capsys, "solve", "-")
    assert (code, out) == (2, "")
    assert err == "error: graph input is not valid UTF-8: invalid start byte\n"


def test_cli_verify_hostile_certificates(tmp_path):
    """A tiny hostile certificate gets a verdict or a format error, not a traceback."""
    import resource

    graph = tmp_path / "one.col"
    graph.write_text("p edge 1 0\n")
    huge = tmp_path / "huge.json"
    huge.write_text('{"kind":"optimal","coloring":[1000000000],"clique":[0]}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)

    def cap_memory():  # a regression then fails fast instead of exhausting memory
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    def verify(cert):
        return subprocess.run(
            [sys.executable, "-m", "meyniel", "verify", str(graph), str(cert)],
            env=child_env(), capture_output=True, text=True, preexec_fn=cap_memory,
        )

    res = verify(huge)
    assert (res.returncode, res.stderr) == (1, "")
    assert res.stdout.startswith("INVALID: vertex 0 has color 1000000000")
    res = verify(deep)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def obstruction_doc(cycle, chord=None) -> bytes:
    return json.dumps({"chord": chord, "cycle": cycle, "kind": "obstruction"}).encode()


def hostile_documents(g, cert):
    """Documents built from g's obstruction `cert`: valid, tampered and hostile."""
    cyc, chord = list(cert.cycle), cert.chord and list(cert.chord)
    off = next(v for v in range(g.n) if v not in cyc)
    yield encode(cert)
    yield obstruction_doc(cyc[1:] + cyc[:1], chord)  # rotated: still valid
    yield obstruction_doc(cyc[:-1] + [g.n])  # a cycle vertex out of range
    yield obstruction_doc(cyc[:-1] + [-1])
    yield obstruction_doc(cyc[:-1] + [10 ** 30])
    yield obstruction_doc(cyc, [cyc[0], off])  # a chord off the cycle
    yield obstruction_doc(cyc, [cyc[0], cyc[2]] if chord is None else None)  # chord declared wrongly
    yield obstruction_doc([cyc[0], cyc[2], cyc[1], cyc[3], cyc[4]])  # undeclared chords, missing edges
    yield obstruction_doc(cyc[:4] + [off])
    yield obstruction_doc(cyc[:3])
    yield obstruction_doc(cyc + [cyc[0], cyc[1]])
    yield obstruction_doc([True] + cyc[1:])
    yield obstruction_doc(cyc, "0-2")
    yield b'{"kind":"obstruction","cycle":' + json.dumps(cyc).encode() + b"}"
    yield b'{"kind":"optimal","coloring":[1000000000],"clique":[0]}'  # huge
    yield b"[" * 200_000  # deep
    yield b'{"kind":"obstruction","cycle":[' + b"[" * 100_000 + b"]}"
    yield encode(cert)[:-1]
    yield encode(cert).decode().replace("obstruction", "obs\\u0074ruction").encode()
    yield b"\xff" + encode(cert)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_matches_decode_on_hostile_obstructions(seed):
    """`verify` reads only the subgraph induced by the cycle, and prints what decode on the full graph does."""
    g = generate(GenSpec(family="gnp", n=60, p=0.5, seed=seed))
    cert = robust_solve(g)
    assert isinstance(cert, MeynielObstruction)
    for data in hostile_documents(g, cert):
        assert_verify_matches_decode(g, data)


def test_verify_reports_a_graph_error_first(tmp_path):
    """A bad graph is reported before a missing or malformed certificate, as before."""
    good = write_graph(tmp_path, generate(GenSpec(family="cycle", n=5)))
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 9\ne 5 1\n")
    graph_error = "error: line 5: endpoint out of range in 'e 4 9'\n"
    missing = str(tmp_path / "missing.json")
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{broken")
    valid = tmp_path / "valid.json"
    valid.write_bytes(obstruction_doc([0, 1, 2, 3, 4]))
    for cert in (missing, malformed, valid):
        assert cli_verify(str(bad), str(cert)) == (2, "", graph_error)
    code, out, err = cli_verify(good, missing)
    assert (code, out) == (2, "") and err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    code, out, err = cli_verify(good, str(malformed))
    assert (code, out) == (2, "") and err.startswith("error: not valid JSON: ")
    assert cli_verify(good, str(valid)) == (0, "VALID OBSTRUCTION len=5 chords=0\n", "")
    code, out, err = cli_verify(str(tmp_path / "nograph.col"), missing)
    assert (code, out) == (2, "") and "nograph.col" in err


@pytest.mark.parametrize("cycle", [[0, 1, 2, 3, 4], [0, 1, 2, 4, 3]])
def test_verify_parses_the_certificate_once(tmp_path, monkeypatch, cycle):
    """`verify` parses the certificate's JSON once, whether it is valid or not."""
    path = write_graph(tmp_path, generate(GenSpec(family="cycle", n=5)))
    cert = tmp_path / "cert.json"
    cert.write_bytes(obstruction_doc(cycle))
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    code, _, _ = cli_verify(path, str(cert))
    assert code == (0 if cycle == [0, 1, 2, 3, 4] else 1)
    assert calls == [1]


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_cli_stdin_is_strict_utf8(tmp_path, locale):
    """Bad UTF-8 on stdin exits as it does from a path, whatever the locale."""
    data = b"p edge 2 1\nc \xff\ne 1 2\n"
    path = tmp_path / "bad.col"
    path.write_bytes(data)
    env = child_env()
    env.pop("PYTHONIOENCODING", None)
    env.pop("PYTHONUTF8", None)
    env["LC_ALL"] = locale

    def solve(source, stdin):
        res = subprocess.run([sys.executable, "-m", "meyniel", "solve", source], input=stdin,
                             env=env, capture_output=True)
        return res.returncode, res.stdout, res.stderr

    want = (2, b"", b"error: graph input is not valid UTF-8: invalid start byte\n")
    assert solve(str(path), b"") == want
    assert solve("-", data) == want


@pytest.mark.parametrize("exc", [InternalInvariantError("stuck at color 2"), MemoryError()])
def test_cli_internal_failure_exits_3(tmp_path, capsys, monkeypatch, exc):
    def broken(g, first=()):
        raise exc

    monkeypatch.setattr("meyniel.app.robust_solve", broken)
    path = write_graph(tmp_path, generate(GenSpec(family="cycle", n=5)))
    code, out, err = run(capsys, "solve", path)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert type(exc).__name__ in err and "Traceback" not in err


def test_cli_out_of_memory_reading_the_graph_exits_2(tmp_path, capsys, monkeypatch):
    """Running out of memory while the graph is read means the input is too large.

    Also when the read is split and one half runs out first: the serial
    read that follows runs out too, and reports it.
    """
    def huge(fh, keep=None):
        raise MemoryError

    monkeypatch.setattr("meyniel.app.parse_stream", huge)
    path = write_graph(tmp_path, generate(GenSpec(family="cycle", n=5)))
    cert = tmp_path / "cert.json"
    cert.write_bytes(obstruction_doc([0, 1, 2, 3, 4]))
    parent, parse_lists = os.getpid(), graph._parse
    for half in (None, "parent", "child"):
        def out_of_memory_in_half(pieces, keep=None):
            if (os.getpid() == parent) == (half == "parent"):
                raise MemoryError
            return parse_lists(pieces, keep)

        monkeypatch.setattr(graph, "_parse", parse_lists if half is None else out_of_memory_in_half)
        for args in (["solve", path], ["verify", path, str(cert)], ["oracle", path, "--what", "omega"]):
            with split_reads(half is not None), counted_forks() as forks:
                code, out, err = run(capsys, *args)
            assert (code, out, len(forks)) == (2, "", half is not None), (half, args)
            assert err == "error: graph input is too large: out of memory while reading it\n"


def test_split_read_gives_the_serial_outputs(tmp_path, capsys):
    """Every command prints and exits the same whether its graph file is split or not."""
    g = generate(GenSpec(family="gnp", n=60, p=0.5, seed=4))
    path = write_graph(tmp_path, g)
    cert = tmp_path / "cert.json"
    cert.write_bytes(encode(robust_solve(g)))
    commands = (["solve", path], ["verify", path, str(cert)], ["stableset", path, "--vertex", "7"],
                ["colorbystable", path], ["oracle", path, "--what", "omega"])
    for args in commands:
        outcomes = []
        for split in (False, True):
            with split_reads(split), counted_forks() as forks:
                outcomes.append(run(capsys, *args))
            assert len(forks) == split, args
        assert outcomes[0] == outcomes[1], args


def test_import_leaves_numpy_unloaded():
    code = "import sys, meyniel.app; assert 'numpy' not in sys.modules, 'numpy loaded'"
    res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_import_leaves_process_pools_unloaded():
    """The split read forks by hand: no CLI process pays for a pool or subprocess module."""
    code = ("import sys, meyniel.app; "
            "loaded = {'multiprocessing', 'concurrent.futures', 'subprocess'} & set(sys.modules); "
            "assert not loaded, sorted(loaded)")
    res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_import_skips_dataclasses():
    """Records are NamedTuples: no CLI process pays for dataclass code generation."""
    code = ("import sys, meyniel.app; "
            "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
            "assert not loaded, sorted(loaded)")
    res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_import_leaves_oracle_unloaded():
    """Only the `oracle` command loads the brute-force references."""
    code = "import sys, meyniel.app; assert 'meyniel.oracle' not in sys.modules, 'oracle loaded'"
    res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_census_script_runs(monkeypatch):
    script = os.path.join(ROOT, "scripts", "obstruction_census.py")
    res = subprocess.run(
        [sys.executable, script, "--ns", "6,20", "--ps", "0.2", "--per-cell", "30"],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    rows = [line.split() for line in res.stdout.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["6", "0.20"], ["20", "0.20"]]
    for row in rows:
        obstructed = int(row[3])
        assert sum(map(int, row[5].split("/"))) == obstructed  # one near-obstruction kind per obstruction
        if obstructed:
            mean, top = row[6].split("/")
            assert 1 <= float(mean) <= int(top)
        else:
            assert row[6] == "-"
    assert int(rows[1][6].split("/")[1]) > 1  # some obstruction took several rounds
    # the rounds counted are those robust_solve itself makes
    spec = importlib.util.spec_from_file_location("obstruction_census", script)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    calls = []
    real = obstruction.reduce_bad_path
    monkeypatch.setattr(obstruction, "reduce_bad_path", lambda *args: calls.append(args) or real(*args))
    rng = random.Random(6)
    counts = []
    while len(counts) < 30:
        g = random_graph(rng, 20, 0.2)
        calls.clear()
        if isinstance(robust_solve(g), MeynielObstruction):
            counts.append(len(calls))
            assert census.near_stages(g)[1] == len(calls)
    assert max(counts) > 1


def test_read_timing_script_runs(tmp_path):
    path = tmp_path / "g.col"
    path.write_text(to_dimacs(generate(GenSpec("gnp", n=40, p=0.5, seed=1))))
    script = os.path.join(ROOT, "scripts", "read_timing.py")
    for sizes in (None, "1,5,30"):
        res = subprocess.run(
            [sys.executable, script, str(path), "--repeats", "2"] + (["--keep-sizes", sizes] if sizes else []),
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        head, rule, row = res.stdout.splitlines()
        keeps = (sizes or "5").split(",")
        assert head == "| file | size | full read |" + "".join(f" keep {k} |" for k in keeps)
        name, size, *reads = (c.strip() for c in row.strip("|").split("|"))
        assert name == "g.col" and size.endswith(" MB")
        assert len(reads) == 1 + len(keeps), row
        assert all(re.fullmatch(r"[0-9.]+ → [0-9.]+ ms", c) for c in reads), row


def test_cli_timing_script_runs(tmp_path):
    path = tmp_path / "g.col"
    path.write_text(to_dimacs(generate(GenSpec("gnp", n=12, p=0.5, seed=1))))
    script = os.path.join(ROOT, "scripts", "cli_timing.py")
    res = subprocess.run(
        [sys.executable, script, ROOT, ROOT, "--repeats", "1", "--", "solve", str(path)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    title, blank, head, rule, *rows = res.stdout.splitlines()
    assert title == f"`meyniel solve {path}`, medians of 1:" and blank == ""
    assert head == "| tree | wall | CPU | peak RSS | exit |"
    assert len(rows) == 2
    for row in rows:
        tree, wall, cpu, rss, code = (c.strip() for c in row.strip("|").split("|"))
        assert tree == ROOT and code == "0", row
        assert re.fullmatch(r"[0-9.]+ s", wall) and re.fullmatch(r"[0-9.]+ s", cpu), row
        assert re.fullmatch(r"[0-9.]+ MB", rss) and float(rss.split()[0]) > 1, row


def test_module_entry_point():
    res = subprocess.run(
        [sys.executable, "-m", "meyniel", "gen", "--family", "complete", "--n", "3"],
        env=child_env(), capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert parse(res.stdout).m == 3
