from functools import partial

import pytest

from spinmcg.algebra import get_model
from spinmcg.errors import NonUnique
from spinmcg.loops import (
    LoopTower,
    PrimitiveLabel,
    canonical_primitives,
    exterior_dims,
    primitive_basis,
    primitive_labels,
)
from oracles import admissible_words, presentation

FULL = get_model("rp-inf")
BASED = get_model("rp-inf", reduced=True)
PRIMS = canonical_primitives("rp-inf", False)
PRIMS_BASED = canonical_primitives("rp-inf", True)


def e(n, model=FULL):
    return model.gen_element((), n)


def test_label_validation():
    with pytest.raises(ValueError):
        PrimitiveLabel((3, 1), 0)  # inadmissible
    with pytest.raises(ValueError):
        PrimitiveLabel((1,), 3)  # excess below index
    with pytest.raises(ValueError):
        PrimitiveLabel((2,), 0)  # all even
    assert PrimitiveLabel((2,), 1).degree == 3


def test_label_rendering():
    assert str(PrimitiveLabel((), 3)) == "p_3"
    assert str(PrimitiveLabel((2,), 1)) == "p_(2,1)"


def test_labels_degree_1():
    got = {str(l) for l in primitive_labels(1)}
    assert got == {"p_1", "p_(1,0)"}


def test_labels_degree_4():
    got = {str(l) for l in primitive_labels(4)}
    assert got == {"p_(3,1)", "p_(2,1,1)", "p_(2,1,1,0)"}
    based = {str(l) for l in primitive_labels(4, reduced=True)}
    assert based == {"p_(3,1)", "p_(2,1,1)"}


def test_labels_match_label_rules():
    # every (word, index) of the degree that PrimitiveLabel accepts
    candidates = [((), n) for n in range(13)] + [
        (word, index)
        for word in admissible_words(12)
        for index in range(13 - sum(word))
    ]
    for degree in range(-1, 13):
        for reduced in (False, True):
            want = set()
            for word, index in candidates:
                if sum(word) + index != degree or (reduced and index == 0):
                    continue
                try:
                    want.add(PrimitiveLabel(word, index))
                except ValueError:
                    continue
            got = primitive_labels(degree, reduced=reduced)
            assert len(got) == len(want) and set(got) == want
            assert got == sorted(got, key=lambda l: (l.index, l.word))


def test_canonical_p3():
    p3 = PRIMS.element(PrimitiveLabel((), 3))
    assert p3 == e(3) + e(1) * e(2) + e(1) * e(1) * e(1)
    p3b = PRIMS_BASED.element(PrimitiveLabel((), 3))
    eb = lambda n: BASED.gen_element((), n)
    assert p3b == eb(3) + eb(1) * eb(2) + eb(1) * eb(1) * eb(1)


def test_canonical_p11_is_square():
    p11 = PRIMS.element(PrimitiveLabel((1,), 1))
    assert p11 == e(1) * e(1)


def test_lambda_prime_on_p3_and_p21():
    p3 = PRIMS.element(PrimitiveLabel((), 3))
    p21 = PRIMS.element(PrimitiveLabel((2,), 1))
    p11 = PRIMS.element(PrimitiveLabel((1,), 1))
    assert FULL.lambda_op("lambda'", p3) == p11
    assert FULL.lambda_op("lambda'", p21) == p11
    assert FULL.lambda_op("lambda'", p3 + p21) == FULL.zero()


def test_odd_degree_solutions_unique():
    # ties in odd degrees would mean primitive squares of odd degree
    PRIMS.element(PrimitiveLabel((4,), 3))  # must not raise NonUnique


def test_primitive_basis_matches_lemma_counts():
    for degree in range(1, 13):
        pairs = primitive_basis(degree)
        assert len(pairs) == FULL.primitives(degree).dim
    for degree in range(1, 13):
        pairs = primitive_basis(degree, reduced=True)
        assert len(pairs) == BASED.primitives(degree).dim


def test_hand_counted_primitive_dims():
    # label enumeration oracle: degree 3 gives p_3, p_(2,1), p_(3,0), p_(2,1,0);
    # degree 5 gives p_5, p_(3,2), p_(4,1), p_(5,0), p_(3,2,0)
    assert FULL.primitives(3).dim == 4
    assert FULL.primitives(5).dim == 5
    assert FULL.primitives(7).dim == 8
    assert BASED.primitives(3).dim == 2


def test_tower_klam():
    tower = LoopTower(8)
    assert tower.klam(3).dim == 2
    # lambda' sends both p_(4,1) and p_(3,2) to p_(2,1): one kernel line
    assert tower.klam(5).dim == 1
    assert tower.klam(4).dim == 3  # even degrees: all of PH
    based = LoopTower(8, reduced=True)
    assert based.klam(3).dim == 1


def test_tower_polynomiality_level1_true():
    tower = LoopTower(11)
    report = tower.polynomiality(1, 4)
    assert report.polynomial
    # levels 1 and 2 only
    for level in (0, 3):
        with pytest.raises(ValueError):
            tower.polynomiality(level, 2)


def test_tower_polynomiality_level2_false_with_witness():
    tower = LoopTower(8, reduced=True)
    report = tower.polynomiality(2, 2)
    assert not report.polynomial
    assert report.square_zero
    w = report.square_zero[0]
    assert w.model_degree == 1
    p3 = PRIMS_BASED.element(PrimitiveLabel((), 3))
    p21 = PRIMS_BASED.element(PrimitiveLabel((2,), 1))
    assert w.witness == p3 + p21


def test_level1_presentation_dims():
    tower = LoopTower(7)
    pres = presentation(tower, 1, 4)
    # V1_k has dim PH_{k+1}: (2, 4, 3, 5) for k = 1..4
    assert pres.degrees == (1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4)
    dims = tower.dims(1, 4)
    assert dims == exterior_dims(pres.degrees, 4)
    assert dims[0] == 1 and dims[1] == 2


def test_level1_xi_injective_in_range():
    # transpose of a surjective map is injective
    tower = LoopTower(9)
    pres = presentation(tower, 1, 4)
    for g in range(len(pres.degrees)):
        if 2 * pres.degrees[g] <= 4:
            assert pres.xi.get(g), f"generator {g} should have nonzero square"


def test_level2_dims_consistent():
    tower = LoopTower(9)
    dims = tower.dims(2, 6)
    assert dims[0] == 1
    assert dims[1] == tower.klam(3).dim


def test_level_accessors_raise_past_the_tower_cap():
    # model degree k of level l needs primitive data in degree k + l
    tower = LoopTower(5)
    for call in (partial(presentation, tower), tower.dims, tower.polynomiality):
        with pytest.raises(ValueError, match="tower cap"):
            call(1, 10)
        with pytest.raises(ValueError, match="tower cap"):
            call(1, 5)
        with pytest.raises(ValueError, match="tower cap"):
            call(2, 4)
        call(1, 4)
        call(2, 3)
