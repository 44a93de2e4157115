"""The value semantics of the package's record classes.

Every record is immutable; two records built from equal
fields are equal, and hash equal unless a field is a dict or list.
"""

import pytest

from spinmcg.algebra import Element, get_model
from spinmcg.betti import BettiTable
from spinmcg.gf2 import F2Subspace
from spinmcg.loops import PolynomialityReport, PrimitiveLabel, SquareZeroWitness
from spinmcg.maps import CokernelReport
from spinmcg.verify import Check, TargetResult

from oracles import AFunctorPresentation


def frozen_records():
    """(record, hashable) for each immutable record class; every call
    builds fresh field objects."""
    model = get_model("rp-inf")
    e1 = model.gen_element((), 1)
    witness = SquareZeroWitness(1, Element(model, frozenset(e1.monos)))
    return [
        (F2Subspace((frozenset({0}), frozenset({1, 2})), (0, 1)), True),
        (Element(model, frozenset(e1.monos)), True),
        (BettiTable(((0, 1), (1, 1)), {"tail_policy": "zero"}), False),
        (AFunctorPresentation((1, 2), {0: (1,)}), False),
        (PrimitiveLabel((2,), 1), True),
        (witness, True),
        (PolynomialityReport(2, False, (witness,)), True),
        (CokernelReport("zero", 2, (0, 1, 0), (1, 0, 1)), True),
        (Check("one", True, "detail"), True),
        (TargetResult("thm2", 2, (Check("one", True),), ("note",)), True),
    ]


def field_names(record):
    return getattr(record, "_fields", None) or record.__slots__


def test_records_are_immutable_values():
    for (a, hashable), (b, _) in zip(frozen_records(), frozen_records()):
        name = type(a).__name__
        assert a is not b and a == b and not a != b, name
        if hashable:
            assert hash(a) == hash(b), name
        else:
            with pytest.raises(TypeError):
                hash(a)
        for field in field_names(a):
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(b, field))
        assert a == b, name


def test_records_differ_when_a_field_differs():
    model = get_model("rp-inf")
    assert F2Subspace((frozenset({0}),), (0,)) != F2Subspace((frozenset({1}),), (1,))
    assert model.gen_element((), 1) != model.gen_element((), 2)
    assert PrimitiveLabel((2,), 1) != PrimitiveLabel((3,), 1)
    assert len({PrimitiveLabel((2,), 1), PrimitiveLabel((2,), 1), PrimitiveLabel((), 3)}) == 2
    assert AFunctorPresentation((1, 2), {0: (1,)}) != AFunctorPresentation((1, 2))
    assert BettiTable(((0, 1),), {}) != BettiTable(((0, 1),), {"tail_policy": "zero"})
