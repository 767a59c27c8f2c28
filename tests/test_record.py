"""Value semantics of the package's records (`meyniel.record`)."""

import pytest

from meyniel.certify import MeynielObstruction, NiceStableSetCert, OptimalPair, Verdict
from meyniel.clique import CliqueComplete, CliqueFailure
from meyniel.gen import GenSpec
from meyniel.graph import build
from meyniel.lexcolor import lex_color
from meyniel.niceset import NiceCheckWitness
from meyniel.obstruction import BadPath, ContractionView, NearObstruction

RECORDS = [
    Verdict(False, "because"),
    MeynielObstruction(cycle=(0, 1, 2, 3, 4), chord=(0, 2)),
    OptimalPair(coloring=(1, 2, 1), clique=(0, 1)),
    NiceStableSetCert(order=(2, 0)),
    CliqueComplete(clique=(1, 0)),
    CliqueFailure(color=2, clique=(3,)),
    GenSpec(family="cycle", n=5),
    lex_color(build(3, [(0, 1)])),
    NiceCheckWitness(index=2, a=0, b=1),
    ContractionView(color=1, class_verts=(0, 2), first_idx=(0, 1, 0)),
    BadPath(index=2, verts=(0, 1, 2), chord_mid=None),
    NearObstruction(verts=(0, 1, 2, 3), chord_mid=None, apex=4, kind=3),
]


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(rec):
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_records_equal_only_their_own_type(rec):
    fields = tuple(rec)
    twin = type(rec)(*fields)
    assert twin is not rec and twin == rec and not twin != rec
    assert hash(twin) == hash(rec) and len({twin, rec}) == 1
    # a plain tuple with the same fields is a different value, either way round
    assert rec != fields and fields != rec
    assert not rec == fields and not fields == rec


def test_certificates_of_different_types_differ():
    a, b = (1, 2, 1), (0, 1)
    assert OptimalPair(a, b) != MeynielObstruction(a, b)
    assert not OptimalPair(a, b) == MeynielObstruction(a, b)
    assert MeynielObstruction(a, b) != OptimalPair(a, b)
    x = (0, 2)
    assert CliqueComplete(x) != NiceStableSetCert(x)
    assert NiceStableSetCert(x) != CliqueComplete(x)
    assert not CliqueComplete(x) == NiceStableSetCert(x)
