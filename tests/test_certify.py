import json
import random
from itertools import chain

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
    load,
    verify_clique,
    verify_coloring,
    verify_obstruction,
    verify_optimal_pair,
)
from meyniel.graph import build
from meyniel.app import robust_solve, robust_stable_set

from conftest import CountingGraph, assert_verify_matches_decode, graphs


def cycle_graph(n, chords=()):
    es = [(i, (i + 1) % n) for i in range(n)]
    es += list(chords)
    return build(n, es)


def obstruction_verdict(g, ob):
    """verify_obstruction(g, ob), once `meyniel verify` of ob agrees with decode on g."""
    assert_verify_matches_decode(g, encode(ob))
    return verify_obstruction(g, ob)


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
        # several bad edges: the lexicographically first one is reported
        v = verify_coloring(build(4, [(2, 3), (1, 2), (0, 3)]), [1, 2, 2, 1])
        assert v.reason == "edge 0-3 is monochromatic (color 1)"

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

    @staticmethod
    def pairwise(g, clique) -> Verdict:
        """The clique check as a scan of every pair, the reference for each reason."""
        vs = list(clique)
        if len(set(vs)) != len(vs):
            return Verdict(False, "clique has repeated vertices")
        for v in vs:
            if not 0 <= v < g.n:
                return Verdict(False, f"clique vertex {v} out of range")
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if not g.has_edge(u, v):
                    return Verdict(False, f"clique pair {u}-{v} not adjacent")
        return Verdict(True)

    def test_mutated_cliques_give_the_pair_scans_reasons(self):
        # K_8 on 0..7; vertex 8 misses 2 and 6, vertex 9 misses only 0
        rng = random.Random(5)
        base = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        extra = [(8, v) for v in range(8) if v not in (2, 6)] + [(9, v) for v in range(1, 9)]
        g = build(11, base + extra)
        q = list(range(8))
        rng.shuffle(q)
        cases = [q, q[:5] + [9] + q[5:]]
        for i in range(len(q)):
            cases += [q[:i] + [8] + q[i + 1:], q[:i] + [9] + q[i + 1:], q[:i] + [10] + q[i:],
                      q[:i] + [q[-1 - i]] + q[i:], q[:i] + [11] + q[i + 1:], q[:i] + [-1] + q[i:]]
        for c in cases:
            assert verify_clique(g, c) == self.pairwise(g, c), c
        assert [c for c in cases if verify_clique(g, c)] == [q, [9 if v == 0 else v for v in q]]
        for drop in base[::5]:  # the graph loses one clique edge
            h = build(11, [e for e in base + extra if e != drop])
            assert not verify_clique(h, q)
            assert verify_clique(h, q) == self.pairwise(h, q), drop

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_n=9), st.data())
    def test_matches_the_pair_scan(self, g, data):
        c = data.draw(st.lists(st.integers(-1, g.n), max_size=g.n + 1))
        assert verify_clique(g, c) == self.pairwise(g, c)
        q = data.draw(st.permutations(range(g.n)))[:data.draw(st.integers(0, g.n))]
        assert verify_clique(g, q) == self.pairwise(g, q)

    def test_a_valid_clique_costs_one_read_of_each_members_list(self):
        g = CountingGraph(build(60, [(u, v) for u in range(60) for v in range(u + 1, 60) if u < 25 or (u + v) % 3]))
        q = list(range(25))
        assert verify_clique(g, q)
        # CountingGraph adds deg + 1 per neighbors read and 1 per has_edge
        assert g.count == sum(g.degree(v) + 1 for v in q)


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
        assert obstruction_verdict(g, MeynielObstruction(cycle=(0, 1, 2, 3, 4)))

    def test_one_chord(self):
        g = cycle_graph(5, [(0, 2)])
        ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 2))
        assert obstruction_verdict(g, ob)

    def test_too_short(self):
        g = build(3, [(0, 1), (1, 2), (2, 0)])
        v = obstruction_verdict(g, MeynielObstruction(cycle=(0, 1, 2)))
        assert "3 < 5" in v.reason

    def test_even_length(self):
        g = cycle_graph(6)
        v = obstruction_verdict(g, MeynielObstruction(cycle=(0, 1, 2, 3, 4, 5)))
        assert "even" in v.reason

    def test_repeats_and_range(self):
        g = cycle_graph(5)
        assert "repeated" in obstruction_verdict(
            g, MeynielObstruction(cycle=(0, 1, 2, 3, 0))).reason
        assert "out of range" in obstruction_verdict(
            g, MeynielObstruction(cycle=(0, 1, 2, 3, 7))).reason

    def test_missing_cycle_edge(self):
        g = cycle_graph(5)
        v = obstruction_verdict(g, MeynielObstruction(cycle=(0, 1, 2, 4, 3)))
        assert "not adjacent" in v.reason

    def test_chord_must_use_cycle_vertices(self):
        g = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 5))
        assert "not a pair of cycle vertices" in obstruction_verdict(g, ob).reason

    def test_chord_cannot_be_cycle_edge(self):
        g = cycle_graph(5)
        ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(3, 4))
        assert "consecutive" in obstruction_verdict(g, ob).reason

    def test_undeclared_chord(self):
        g = cycle_graph(5, [(0, 2)])
        v = obstruction_verdict(g, MeynielObstruction(cycle=(0, 1, 2, 3, 4)))
        assert v.reason == "undeclared chord 0-2"

    def test_second_chord_rejected(self):
        g = cycle_graph(5, [(0, 2), (1, 3)])
        ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 2))
        assert "undeclared chord 1-3" == obstruction_verdict(g, ob).reason

    def test_declared_chord_absent(self):
        g = cycle_graph(5)
        ob = MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 2))
        assert "declared chord 0-2 is not an edge" == obstruction_verdict(g, ob).reason

    # The 7-cycle 6, 5, ..., 0 with chords at cycle positions (1, 4), (2, 6)
    # and (3, 5): the reason names the first undeclared one in (i, j)
    # order, not the one with the smallest labels
    CYCLE = (6, 5, 4, 3, 2, 1, 0)
    CHORDS = {(1, 4): (5, 2), (2, 6): (4, 0), (3, 5): (3, 1)}

    def chorded(self, *at):
        c = self.CYCLE
        return build(7, [(c[i], c[i - 1]) for i in range(7)] + [self.CHORDS[ij] for ij in at])

    @pytest.mark.parametrize("at", [[(2, 6), (1, 4)], [(3, 5), (2, 6), (1, 4)]])
    def test_first_undeclared_chord_in_cycle_order(self, at):
        v = obstruction_verdict(self.chorded(*at), MeynielObstruction(cycle=self.CYCLE))
        assert v.reason == "undeclared chord 2-5"

    @pytest.mark.parametrize("at, declared, named", [
        ([(1, 4), (3, 5)], (5, 2), "1-3"),
        ([(1, 4), (3, 5)], (1, 3), "2-5"),
        ([(1, 4), (2, 6), (3, 5)], (2, 5), "0-4"),
        ([(1, 4), (2, 6), (3, 5)], (0, 4), "2-5"),
    ])
    def test_undeclared_chord_beside_a_declared_one(self, at, declared, named):
        g = self.chorded(*at)
        ob = MeynielObstruction(cycle=self.CYCLE, chord=declared)
        assert obstruction_verdict(g, ob).reason == f"undeclared chord {named}"

    # A permuted C_2001 with two chords, each a pair of cycle positions.
    # The positions in `high` get the largest labels and those in `low`
    # the smallest, so the pair that comes first in (i, j) order has the
    # larger labels: neighbor tuples ascend by label, and the reason must
    # still follow cycle positions
    @staticmethod
    def long_cycle(chords, high, low):
        lab = random.Random(2001).sample(range(2001), 2001)
        for x, i in chain(zip(range(2000, -1, -1), high), zip(range(2001), low)):
            j = lab.index(x)
            lab[i], lab[j] = lab[j], lab[i]
        es = [(lab[i], lab[i - 1]) for i in range(2001)] + [(lab[i], lab[j]) for i, j in chords]
        return build(2001, es), tuple(lab)

    @pytest.mark.parametrize("other, high, low", [
        ((700, 712), (10, 1500), (700, 712)),  # after (10, 1500): the least i decides
        ((10, 1500), (10, 20), (1500,)),  # after (10, 20): then the least j
    ], ids=["least i", "least j"])
    def test_first_undeclared_chord_on_a_long_cycle(self, other, high, low):
        g, cyc = self.long_cycle([high, other], high, low)
        assert obstruction_verdict(g, MeynielObstruction(cycle=cyc)).reason == "undeclared chord 1999-2000"

    def test_undeclared_chord_before_an_absent_declared_one_on_a_long_cycle(self):
        g, cyc = self.long_cycle([(700, 712)], (10, 1500), (700, 712))
        ob = MeynielObstruction(cycle=cyc, chord=(cyc[10], cyc[1500]))
        assert obstruction_verdict(g, ob).reason == "undeclared chord 0-1"


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
        assert load(blob) == cert
        assert_verify_matches_decode(graph, blob)
        back = decode(graph, blob)
        assert type(back) is type(cert)
        assert encode(back) == blob


@given(graphs(max_n=9))
@settings(max_examples=150)
def test_solver_output_round_trips(g):
    cert = robust_solve(g)
    assert_verify_matches_decode(g, encode(cert))
    back = decode(g, encode(cert))
    assert back == cert and type(back) is type(cert)


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
    """decode raises only its two documented errors; a result re-encodes exactly.

    `meyniel verify` of the same document agrees with decode.
    """
    assert_verify_matches_decode(g, data)
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
        with pytest.raises(CertificateFormatError) as exc:
            decode(self.g5, data)
        with pytest.raises(CertificateFormatError) as again:
            load(data)
        assert str(again.value) == str(exc.value)
        assert_verify_matches_decode(self.g5, data)

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
        even = b'{"chord":null,"cycle":[0,1,2,3,4,5],"kind":"obstruction"}'
        assert load(even) == MeynielObstruction(cycle=(0, 1, 2, 3, 4, 5))  # load checks no graph
        with pytest.raises(CertificateInvalidError, match="even"):
            decode(cycle_graph(6), even)
        assert_verify_matches_decode(cycle_graph(6), even)
        g = build(2, [(0, 1)])
        with pytest.raises(CertificateInvalidError, match="monochromatic"):
            decode(g, b'{"clique":[0],"coloring":[1,1],"kind":"optimal"}')
        assert_verify_matches_decode(g, b'{"clique":[0],"coloring":[1,1],"kind":"optimal"}')

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
        for order in (b"[0,1]", b"[0]", b"[0,3]", b"[0,2]"):
            assert_verify_matches_decode(g, b'{"kind":"nice_stable_set","order":' + order + b"}")


def test_tampered_solver_cert_rejected():
    g = build(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    cert = robust_solve(g)
    doc = json.loads(encode(cert))
    assert doc["kind"] == "optimal"
    doc["coloring"][3] = doc["coloring"][2]
    with pytest.raises(CertificateInvalidError):
        decode(g, json.dumps(doc))
    assert_verify_matches_decode(g, json.dumps(doc))
