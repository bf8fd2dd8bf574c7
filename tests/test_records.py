"""The record types' contract: construction, value semantics, repr, immutability.

Every record is built positionally and by keyword, compares and hashes by
value, prints the same repr text, and refuses assignment.
"""

from __future__ import annotations

import pytest

from antimagic.constructors import Family
from antimagic.errors import InvalidLabeling
from antimagic.graph import Component, Graph, LevelPartition
from antimagic.labeling import EdgeLabeling, Verdict
from antimagic.spectrum import ShiftStatus, SpectrumReport, WindowResult
from antimagic.trails import Trail, TrailDecomposition


def _graph():
    return Graph(3, ((0, 1), (1, 2)))


def _labeling():
    return EdgeLabeling(_graph(), (2, 1))


def _window():
    return WindowResult(-2, -1, "strong", _labeling())


G = "Graph(n=3, edges=((0, 1), (1, 2)))"
F = f"EdgeLabeling(graph={G}, labels=(2, 1), base=None)"
W = f"WindowResult(lo=-2, hi=-1, method='strong', certificate={F})"

# (class, factory of positional args, keyword args of the same record,
#  the same record with one field changed, repr)
CASES = [
    (Graph, lambda: (3, ((0, 1), (1, 2))),
     lambda: {"n": 3, "edges": ((0, 1), (1, 2))},
     lambda: Graph(3, ((0, 1),)), G),
    (Component, lambda: (_graph(), (4, 7, 9)),
     lambda: {"graph": _graph(), "vertices": (4, 7, 9)},
     lambda: Component(_graph(), (4, 7, 8)),
     f"Component(graph={G}, vertices=(4, 7, 9))"),
    (LevelPartition, lambda: (1, ((1,), (0, 2))),
     lambda: {"root": 1, "levels": ((1,), (0, 2))},
     lambda: LevelPartition(0, ((1,), (0, 2))),
     "LevelPartition(root=1, levels=((1,), (0, 2)))"),
    (EdgeLabeling, lambda: (_graph(), (2, 1)),
     lambda: {"graph": _graph(), "labels": (2, 1), "base": None},
     lambda: EdgeLabeling(_graph(), (2, 1), 0), F),
    (EdgeLabeling, lambda: (_graph(), (0, -1), -2),
     lambda: {"labels": (0, -1), "base": -2, "graph": _graph()},
     lambda: EdgeLabeling(_graph(), (-1, 0), -2),
     f"EdgeLabeling(graph={G}, labels=(0, -1), base=-2)"),
    (Verdict, lambda: (True,),
     lambda: {"ok": True, "code": None, "witness": None, "detail": None},
     lambda: Verdict(False),
     "Verdict(ok=True, code=None, witness=None, detail=None)"),
    (Verdict, lambda: (False, "duplicate-label", ((0, 1), (1, 2), 1), "label 1 used twice"),
     lambda: {"detail": "label 1 used twice", "witness": ((0, 1), (1, 2), 1),
              "code": "duplicate-label", "ok": False},
     lambda: Verdict(False, "duplicate-label", ((0, 1), (1, 2), 2), "label 1 used twice"),
     "Verdict(ok=False, code='duplicate-label', witness=((0, 1), (1, 2), 1), "
     "detail='label 1 used twice')"),
    (Trail, lambda: ((0, 1, 2), "W"),
     lambda: {"vertices": (0, 1, 2), "kind": "W"},
     lambda: Trail((0, 1, 2), "M"),
     "Trail(vertices=(0, 1, 2), kind='W')"),
    (TrailDecomposition, lambda: (_graph(), (1,), ((1, (0, 1)),), (Trail((1, 2), "N"),)),
     lambda: {"cross": _graph(), "deep": (1,), "sigma": ((1, (0, 1)),),
              "trails": (Trail((1, 2), "N"),)},
     lambda: TrailDecomposition(_graph(), (1,), ((1, (1, 2)),), (Trail((1, 0), "N"),)),
     f"TrailDecomposition(cross={G}, deep=(1,), sigma=((1, (0, 1)),), "
     "trails=(Trail(vertices=(1, 2), kind='N'),))"),
    (WindowResult, lambda: (-2, -1, "strong", _labeling()),
     lambda: {"lo": -2, "hi": -1, "method": "strong", "certificate": _labeling()},
     lambda: WindowResult(-2, -1, "sdds", _labeling()), W),
    (ShiftStatus, lambda: (0, "feasible", "search", _labeling()),
     lambda: {"k": 0, "status": "feasible", "via": "search", "certificate": _labeling()},
     lambda: ShiftStatus(0, "feasible", "mirror", _labeling()),
     f"ShiftStatus(k=0, status='feasible', via='search', certificate={F})"),
    (ShiftStatus, lambda: (-2, "infeasible", "mirror", None),
     lambda: {"k": -2, "status": "infeasible", "via": "mirror", "certificate": None},
     lambda: ShiftStatus(-1, "infeasible", "mirror", None),
     "ShiftStatus(k=-2, status='infeasible', via='mirror', certificate=None)"),
    (SpectrumReport,
     lambda: (_graph(), _window(), -2, -1, (-2,), (ShiftStatus(-2, "infeasible", "search", None),)),
     lambda: {"graph": _graph(), "window": _window(), "sweep_lo": -2, "sweep_hi": -1,
              "excluded": (-2,), "entries": (ShiftStatus(-2, "infeasible", "search", None),)},
     lambda: SpectrumReport(_graph(), None, -2, -1, (-2,), ()),
     f"SpectrumReport(graph={G}, window={W}, sweep_lo=-2, sweep_hi=-1, excluded=(-2,), "
     "entries=(ShiftStatus(k=-2, status='infeasible', via='search', certificate=None),))"),
    (Family, lambda: (("n",), len),
     lambda: {"params": ("n",), "build": len, "construct": None, "excluded": None},
     lambda: Family(("n",), len, len),
     "Family(params=('n',), build=<built-in function len>, shape=None, construct=None, excluded=None)"),
]

IDS = [f"{case[0].__name__}-{i}" for i, case in enumerate(CASES)]


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, other, text):
    assert cls(*args()) == cls(**kwargs())
    assert type(cls(**kwargs())) is cls


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_equality_and_hash_by_value(cls, args, kwargs, other, text):
    a, b = cls(*args()), cls(*args())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and not a == other()


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_repr_text(cls, args, kwargs, other, text):
    assert repr(cls(*args())) == text


@pytest.mark.parametrize("cls, args, kwargs, other, text", CASES, ids=IDS)
def test_assignment_raises_attribute_error(cls, args, kwargs, other, text):
    rec = cls(*args())
    for field in kwargs():
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert rec == cls(*args())


def test_graph_caches_survive_immutability():
    g = _graph()
    assert g.adjacency() is g.adjacency() == [[1], [0, 2], [1]]
    assert g.degrees() is g.degrees() == [1, 2, 1]
    assert g == _graph() and hash(g) == hash(_graph())


@pytest.mark.parametrize(
    "labels, message", [((1,), "1 labels for 2 edges"), ((1, 2, 3), "3 labels for 2 edges")]
)
def test_length_mismatch_raises_incomplete_labeling(labels, message):
    with pytest.raises(InvalidLabeling) as info:
        EdgeLabeling(_graph(), labels)
    assert str(info.value) == message
    with pytest.raises(InvalidLabeling) as info:
        EdgeLabeling(graph=_graph(), labels=labels, base=0)
    assert str(info.value) == message


@pytest.mark.parametrize("ok", [True, False])
def test_verdict_truth_is_ok(ok):
    assert bool(Verdict(ok)) is ok
    assert bool(Verdict(ok, "code", (), "detail")) is ok
    assert bool(Verdict.accept()) is True
    assert bool(Verdict.reject("c", (1,), "d")) is False
