"""The value types are plain classes, not dataclasses, and keep what the
dataclasses gave: construction by position and by keyword, equality by
value, the same repr, and for the frozen ones a hash by value and no
assignment.  Every report gets lists of its own."""

import copy
import json
import pickle

import pytest

from detchern.classes import StrataVector
from detchern.cli import OutputDocument, ScanReport, TableReport
from detchern.lagrangian import SymmetryReport
from detchern.microlocal import IndexSystem
from detchern.schubert import Box

FROZEN = [  # value, the same built by keyword, a different value, repr, a field
    (Box(2, 3), Box(rows=2, cols=3), Box(3, 2), "Box(rows=2, cols=3)", "rows"),
    (StrataVector(1, (1, 2)), StrataVector(lo=1, values=(1, 2)), StrataVector(1, (1, 3)),
     "StrataVector(lo=1, values=(1, 2))", "values"),
    (IndexSystem((1,), ((1,),)), IndexSystem(chi=(1,), e=((1,),)), IndexSystem((2,), ((1,),)),
     "IndexSystem(chi=(1,), e=((1,),))", "chi"),
]


@pytest.mark.parametrize("value,same,other,text,field", FROZEN, ids=["Box", "StrataVector", "IndexSystem"])
def test_frozen_value_type_contract(value, same, other, text, field):
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert repr(value) == text
    assert {value: 1}[same] == 1
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == same
    assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)


def test_frozen_hash_is_the_hash_of_the_fields():
    # as a frozen dataclass's: lru_cache keys built from a Box hash alike
    assert hash(Box(2, 3)) == hash((2, 3)) and Box(2, 3) != (2, 3)
    assert hash(StrataVector(1, (1, 2))) == hash((1, (1, 2)))


@pytest.mark.parametrize("make,lists", [
    (lambda: ScanReport(3, 3), ("effectivity_violations", "vanishing_violations")),
    (lambda: SymmetryReport(4, 4), ("checks",)),
    (TableReport, ("mismatches",)),
], ids=["ScanReport", "SymmetryReport", "TableReport"])
def test_reports_never_share_a_list(make, lists):
    first, second = make(), make()
    assert first == second
    with pytest.raises(TypeError):
        hash(first)
    for name in lists:
        getattr(first, name).append(("x", True))
        assert getattr(second, name) == []
    assert first != second
    assert pickle.loads(pickle.dumps(first)) == first


def test_report_construction_and_repr():
    report = ScanReport(3, 3, instances_checked=4, vanishing_violations=[(3, 3, 1, 0, 1)])
    assert (report.instances_checked, report.vanishing_violations) == (4, [(3, 3, 1, 0, 1)])
    assert not report.ok and report.effectivity_violations == []
    assert repr(ScanReport(3, 3)) == (
        "ScanReport(m_max=3, n_max=3, instances_checked=0, "
        "effectivity_violations=[], vanishing_violations=[])"
    )
    assert repr(TableReport()) == "TableReport(cells_checked=0, mismatches=[])"
    assert repr(SymmetryReport(4, 4)) == "SymmetryReport(m=4, n=4, checks=[])"
    assert SymmetryReport(m=4, n=4, checks=[("a", True)]).ok


def test_output_document_keys_and_repr():
    doc = OutputDocument("cm", 3, 3, 1, "projective", ["1"], {"a": 1})
    assert repr(doc) == (
        "OutputDocument(kind='cm', m=3, n=3, k=1, basis='projective', "
        "coefficients=['1'], meta={'a': 1}, version='1')"
    )
    assert json.loads(doc.to_json()).keys() == {
        "kind", "m", "n", "k", "basis", "coefficients", "meta", "version"
    }
    assert OutputDocument(**json.loads(doc.to_json())) == doc
    blank = OutputDocument("cm", 3, 3, 1, "projective", [])
    assert blank.meta == {} and blank.meta is not OutputDocument("cm", 3, 3, 1, "projective", []).meta
