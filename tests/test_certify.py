import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from meyniel.certify import (
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
    verify_obstruction,
    verify_optimal_pair,
)
from meyniel.graph import build
from meyniel.app import robust_solve, robust_stable_set

from conftest import graphs


def cycle_graph(n, chords=()):
    es = [(i, (i + 1) % n) for i in range(n)]
    es += list(chords)
    return build(n, es)


def test_verdict_truthiness():
    assert Verdict(True)
    assert not Verdict(False, "because")
    assert Verdict(False, "because").reason == "because"


class TestVerifyColoring:
    def test_accepts_proper(self):
        g = build(3, [(0, 1), (1, 2)])
        assert verify_coloring(g, [1, 2, 1])

    def test_length_mismatch(self):
        g = build(3, [])
        v = verify_coloring(g, [1, 1])
        assert not v and "2 entries for 3" in v.reason

    def test_bad_color_value(self):
        g = build(2, [])
        assert "invalid color 0" in verify_coloring(g, [1, 0]).reason
        assert "invalid color" in verify_coloring(g, [1, "2"]).reason

    def test_color_above_vertex_count(self):
        v = verify_coloring(build(1, []), [3])
        assert not v and "color 3 > 1 vertices" in v.reason

    def test_gap_in_colors(self):
        g = build(3, [])
        v = verify_coloring(g, [1, 3, 1])
        assert not v and "not contiguous: 2" in v.reason

    def test_monochromatic_edge(self):
        g = build(3, [(0, 1), (1, 2)])
        v = verify_coloring(g, [2, 2, 1])
        assert not v and "0-1" in v.reason and "monochromatic" in v.reason

    def test_empty_graph(self):
        assert verify_coloring(build(0, []), [])


class TestVerifyClique:
    def test_accepts(self):
        g = build(4, [(0, 1), (0, 2), (1, 2)])
        assert verify_clique(g, [0, 1, 2])
        assert verify_clique(g, [])

    def test_repeat(self):
        g = build(3, [(0, 1)])
        assert "repeated" in verify_clique(g, [0, 1, 0]).reason

    def test_range(self):
        g = build(3, [(0, 1)])
        assert "out of range" in verify_clique(g, [0, 5]).reason

    def test_non_edge(self):
        g = build(3, [(0, 1)])
        v = verify_clique(g, [0, 1, 2])
        assert not v and "not adjacent" in v.reason


def test_optimal_pair_size_check():
    g = build(3, [(0, 1)])
    assert verify_optimal_pair(g, [1, 2, 1], [0, 1])
    v = verify_optimal_pair(g, [1, 2, 1], [0])
    assert not v and "clique size 1 != color count 2" in v.reason
    # coloring problems surface before clique problems
    v = verify_optimal_pair(g, [1, 1, 1], [0, 5])
    assert "monochromatic" in v.reason


class TestVerifyObstruction:
    def test_chordless_cycle(self):
        g = cycle_graph(5)
        assert verify_obstruction(g, MeynielObstruction(cycle=(0, 1, 2, 3, 4)))

    def test_one_chord(self):
        g = cycle_graph(5, [(0, 2)])
        ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 2))
        assert verify_obstruction(g, ob)

    def test_too_short(self):
        g = build(3, [(0, 1), (1, 2), (2, 0)])
        v = verify_obstruction(g, MeynielObstruction(cycle=(0, 1, 2)))
        assert "3 < 5" in v.reason

    def test_even_length(self):
        g = cycle_graph(6)
        v = verify_obstruction(g, MeynielObstruction(cycle=(0, 1, 2, 3, 4, 5)))
        assert "even" in v.reason

    def test_repeats_and_range(self):
        g = cycle_graph(5)
        assert "repeated" in verify_obstruction(
            g, MeynielObstruction(cycle=(0, 1, 2, 3, 0))).reason
        assert "out of range" in verify_obstruction(
            g, MeynielObstruction(cycle=(0, 1, 2, 3, 7))).reason

    def test_missing_cycle_edge(self):
        g = cycle_graph(5)
        v = verify_obstruction(g, MeynielObstruction(cycle=(0, 1, 2, 4, 3)))
        assert "not adjacent" in v.reason

    def test_chord_must_use_cycle_vertices(self):
        g = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 5))
        assert "not a pair of cycle vertices" in verify_obstruction(g, ob).reason

    def test_chord_cannot_be_cycle_edge(self):
        g = cycle_graph(5)
        ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(3, 4))
        assert "consecutive" in verify_obstruction(g, ob).reason

    def test_undeclared_chord(self):
        g = cycle_graph(5, [(0, 2)])
        v = verify_obstruction(g, MeynielObstruction(cycle=(0, 1, 2, 3, 4)))
        assert v.reason == "undeclared chord 0-2"

    def test_second_chord_rejected(self):
        g = cycle_graph(5, [(0, 2), (1, 3)])
        ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 2))
        assert "undeclared chord 1-3" == verify_obstruction(g, ob).reason

    def test_declared_chord_absent(self):
        g = cycle_graph(5)
        ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 2))
        assert "declared chord 0-2 is not an edge" == verify_obstruction(g, ob).reason


def test_encode_is_canonical():
    cert = OptimalPair(coloring=(1, 1), clique=(0,))
    assert encode(cert) == b'{"clique":[0],"coloring":[1,1],"kind":"optimal"}'
    ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=None)
    assert encode(ob) == b'{"chord":null,"cycle":[0,1,2,3,4],"kind":"obstruction"}'
    nice = NiceStableSetCert(order=(2, 0))
    assert encode(nice) == b'{"kind":"nice_stable_set","order":[2,0]}'


def test_round_trip_all_kinds():
    g = cycle_graph(5, [(0, 2)])
    ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 2))
    assert decode(g, encode(ob)) == ob

    h = build(3, [(0, 1)])
    opt = OptimalPair(coloring=(1, 2, 1), clique=(0, 1))
    assert decode(h, encode(opt)) == opt

    nice = NiceStableSetCert(order=(2,))
    hh = build(3, [(0, 2), (1, 2)])
    assert decode(hh, encode(nice)) == nice
    # decode -> encode is byte identical
    for graph, cert in [(g, ob), (h, opt), (hh, nice)]:
        blob = encode(cert)
        assert encode(decode(graph, blob)) == blob


@given(graphs(max_n=9))
@settings(max_examples=150)
def test_solver_output_round_trips(g):
    cert = robust_solve(g)
    assert decode(g, encode(cert)) == cert


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers() | st.sampled_from([2 ** 64, -(2 ** 64), 10 ** 4000]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=12,
)
field_values = (st.lists(st.integers(-1, 6), max_size=7) | json_values
                | st.sampled_from(["optimal", "obstruction", "nice_stable_set"]))


@st.composite
def graphs_and_documents(draw):
    """A solver certificate as a JSON object, with some fields made arbitrary."""
    g = draw(graphs(min_n=5, max_n=8))
    if draw(st.booleans()):
        cert = robust_solve(g)
    else:
        cert = robust_stable_set(g, draw(st.integers(0, g.n - 1)))
    doc = json.loads(encode(cert))
    for key in sorted(doc):
        if draw(st.integers(0, 3)) == 0:
            doc[key] = draw(field_values)
    if draw(st.integers(0, 3)) == 0:  # one key missing or one too many
        key = draw(st.sampled_from(["kind", "coloring", "clique", "cycle", "chord", "order", "x"]))
        if key in doc:
            del doc[key]
        else:
            doc[key] = draw(field_values)
    return g, doc


def decodes_or_rejects(g, data):
    """decode raises only its two documented errors; a result re-encodes exactly."""
    try:
        cert = decode(g, data)
    except (CertificateFormatError, CertificateInvalidError):
        return None
    blob = encode(cert)
    assert decode(g, blob) == cert
    return blob


@given(graphs(max_n=6), st.binary(max_size=120) | st.text(max_size=60).map(str.encode))
@settings(max_examples=300)
def test_decode_fuzz_bytes(g, data):
    decodes_or_rejects(g, data)


@given(graphs_and_documents())
@settings(max_examples=600)
def test_decode_fuzz_documents(case):
    g, doc = case
    blob = decodes_or_rejects(g, json.dumps(doc).encode())
    if blob is not None:
        assert blob == json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


class TestDecodeRejects:
    g5 = cycle_graph(5)

    def expect_format(self, data):
        with pytest.raises(CertificateFormatError):
            decode(self.g5, data)

    def test_not_json(self):
        self.expect_format(b"{nope")

    def test_deep_nesting(self):
        self.expect_format(b"[" * 200_000)

    def test_int_literal_past_digit_limit(self):
        # json.loads raises a plain ValueError for ints of more than 4300 digits
        self.expect_format(b'{"clique":[0],"coloring":[' + b"9" * 5000 + b'],"kind":"optimal"}')

    def test_not_utf8(self):
        self.expect_format(b"\xff\xfe")

    def test_not_object(self):
        self.expect_format(b"[1,2]")

    def test_unknown_kind(self):
        self.expect_format(b'{"kind":"proof"}')

    def test_extra_key(self):
        self.expect_format(
            b'{"chord":null,"cycle":[0,1,2,3,4],"kind":"obstruction","note":"hi"}')

    def test_missing_key(self):
        self.expect_format(b'{"cycle":[0,1,2,3,4],"kind":"obstruction"}')

    def test_bool_is_not_int(self):
        self.expect_format(b'{"kind":"nice_stable_set","order":[true]}')

    def test_chord_shape(self):
        self.expect_format(b'{"chord":[1],"cycle":[0,1,2,3,4],"kind":"obstruction"}')
        self.expect_format(b'{"chord":"0-2","cycle":[0,1,2,3,4],"kind":"obstruction"}')

    def test_semantic_failures_are_invalid_not_format(self):
        with pytest.raises(CertificateInvalidError, match="even"):
            decode(cycle_graph(6),
                   b'{"chord":null,"cycle":[0,1,2,3,4,5],"kind":"obstruction"}')
        g = build(2, [(0, 1)])
        with pytest.raises(CertificateInvalidError, match="monochromatic"):
            decode(g, b'{"clique":[0],"coloring":[1,1],"kind":"optimal"}')

    def test_nice_kind_is_reverified(self):
        g = build(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(CertificateInvalidError, match="adjacent pair"):
            decode(g, b'{"kind":"nice_stable_set","order":[0,1]}')
        with pytest.raises(CertificateInvalidError, match="no neighbor"):
            decode(g, b'{"kind":"nice_stable_set","order":[0]}')
        with pytest.raises(CertificateInvalidError, match="not nice"):
            decode(g, b'{"kind":"nice_stable_set","order":[0,3]}')
        cert = decode(g, b'{"kind":"nice_stable_set","order":[0,2]}')
        assert cert == NiceStableSetCert(order=(0, 2))


def test_tampered_solver_cert_rejected():
    g = build(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    cert = robust_solve(g)
    doc = json.loads(encode(cert))
    assert doc["kind"] == "optimal"
    doc["coloring"][3] = doc["coloring"][2]
    with pytest.raises(CertificateInvalidError):
        decode(g, json.dumps(doc))
