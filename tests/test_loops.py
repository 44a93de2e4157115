import json
import random
import subprocess
import sys
from functools import partial

import pytest

from spinmcg import loops
from spinmcg.algebra import DEGREE_CAP, Element, get_model
from spinmcg.errors import BasisMismatch, DegreeOverflow, NotPolynomial
from spinmcg.loops import (
    LoopTower,
    PrimitiveLabel,
    exterior_dims,
    primitive_basis,
    primitive_labels,
    tower,
)
from oracles import admissible_words, presentation

FULL = get_model("rp-inf")
BASED = get_model("rp-inf", reduced=True)
TOWER = tower()
BASED_TOWER = tower(reduced=True)


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
    p3 = TOWER.canonical(PrimitiveLabel((), 3))
    assert p3 == e(3) + e(1) * e(2) + e(1) * e(1) * e(1)
    p3b = BASED_TOWER.canonical(PrimitiveLabel((), 3))
    eb = lambda n: BASED.gen_element((), n)
    assert p3b == eb(3) + eb(1) * eb(2) + eb(1) * eb(1) * eb(1)


def test_canonical_p11_is_square():
    p11 = TOWER.canonical(PrimitiveLabel((1,), 1))
    assert p11 == e(1) * e(1)


def test_lambda_prime_on_p3_and_p21():
    p3 = TOWER.canonical(PrimitiveLabel((), 3))
    p21 = TOWER.canonical(PrimitiveLabel((2,), 1))
    p11 = TOWER.canonical(PrimitiveLabel((1,), 1))
    assert FULL.lambda_op("lambda'", p3) == p11
    assert FULL.lambda_op("lambda'", p21) == p11
    assert FULL.lambda_op("lambda'", p3 + p21) == FULL.zero()


def test_odd_degree_solutions_unique():
    # ties in odd degrees would mean primitive squares of odd degree
    TOWER.canonical(PrimitiveLabel((4,), 3))  # must not raise NonUnique


def test_primitive_basis_matches_lemma_counts():
    for degree in range(1, 13):
        pairs = primitive_basis(degree)
        assert len(pairs) == FULL.primitives(degree).dim
    for degree in range(1, 13):
        pairs = primitive_basis(degree, reduced=True)
        assert len(pairs) == BASED.primitives(degree).dim


def test_primitive_basis_starts_in_degree_one_like_the_tower():
    # degree 0 has no primitive data; it raises as QAlgebra.primitives(0) does
    for reduced in (False, True):
        with pytest.raises(ValueError, match="primitive data starts in degree 1"):
            primitive_basis(0, reduced=reduced)


def test_primitive_basis_refuses_labels_that_miss_a_primitive(monkeypatch):
    def drop_first(degree, *, reduced=False):
        return primitive_labels(degree, reduced=reduced)[1:]

    monkeypatch.setattr(loops, "primitive_labels", drop_first)
    with pytest.raises(BasisMismatch) as caught:
        primitive_basis(3)
    assert str(caught.value) == "labels of degree 3 do not give a primitive basis"


def test_hand_counted_primitive_dims():
    # label enumeration oracle: degree 3 gives p_3, p_(2,1), p_(3,0), p_(2,1,0);
    # degree 5 gives p_5, p_(3,2), p_(4,1), p_(5,0), p_(3,2,0)
    assert FULL.primitives(3).dim == 4
    assert FULL.primitives(5).dim == 5
    assert FULL.primitives(7).dim == 8
    assert BASED.primitives(3).dim == 2


def test_tower_klam():
    assert TOWER.klam(3).dim == 2
    # lambda' sends both p_(4,1) and p_(3,2) to p_(2,1): one kernel line
    assert TOWER.klam(5).dim == 1
    assert TOWER.klam(4).dim == 3  # even degrees: all of PH
    assert BASED_TOWER.klam(3).dim == 1


def test_tower_polynomiality_level1_true():
    report = TOWER.polynomiality(1, 9)
    assert report.polynomial


def test_tower_polynomiality_level2_false_with_witness():
    report = BASED_TOWER.polynomiality(2, 6)
    assert not report.polynomial
    assert report.square_zero
    w = report.square_zero[0]
    assert w.model_degree == 1
    p3 = BASED_TOWER.canonical(PrimitiveLabel((), 3))
    p21 = BASED_TOWER.canonical(PrimitiveLabel((2,), 1))
    assert w.witness == p3 + p21


def test_level1_presentation_dims():
    pres = presentation(TOWER, 1, 4)
    # V1_k has dim PH_{k+1}: (2, 4, 3, 5) for k = 1..4
    assert pres.degrees == (1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 4)
    dims = TOWER.dims(1, 4)
    assert dims == exterior_dims(pres.degrees, 4)
    assert dims[0] == 1 and dims[1] == 2


def test_level1_xi_injective_in_range():
    # transpose of a surjective map is injective
    pres = presentation(TOWER, 1, 4)
    for g in range(len(pres.degrees)):
        if 2 * pres.degrees[g] <= 4:
            assert pres.xi.get(g), f"generator {g} should have nonzero square"


def test_level2_dims_consistent():
    dims = TOWER.dims(2, 6)
    assert dims[0] == 1
    assert dims[1] == TOWER.klam(3).dim


def test_level_accessors_raise_past_the_degree_cap():
    # model degree k of level l needs primitive data in degree k + l; the
    # top degree is read first, so each call raises before any work
    with pytest.raises(DegreeOverflow):
        TOWER.model.primitives(DEGREE_CAP + 1)
    for level in (1, 2):
        with pytest.raises(DegreeOverflow):
            TOWER.dims(level, DEGREE_CAP + 1 - level)
        with pytest.raises(DegreeOverflow):
            TOWER.polynomiality(level, DEGREE_CAP + level)


def test_levels_other_than_one_and_two_are_rejected():
    for call in (TOWER.dims, TOWER.polynomiality, partial(presentation, TOWER)):
        for level in (0, 3):
            with pytest.raises(ValueError, match="levels 1 and 2 only"):
                call(level, 4)


def test_polynomiality_checks_every_source_degree_through_upstairs(monkeypatch):
    """polynomiality(1, 11) reads the degree-11 halving table and fails once
    a row that no other row spans is dropped; polynomiality(1, 10) stops at
    source degree 9."""
    monkeypatch.setattr(loops, "_TOWERS", {})  # a fresh shared table
    model = tower().model
    rows = tower().halving(11)
    lone = next(
        i for i in range(len(rows))
        if not model.span(rows[:i] + rows[i + 1:]).contains(rows[i])
    )
    original = LoopTower.halving
    read = []

    def drop_row(self, n):
        read.append(n)
        table = original(self, n)
        return table[:lone] + (frozenset(),) + table[lone + 1:] if n == 11 else table

    monkeypatch.setattr(LoopTower, "halving", drop_row)
    assert tower().polynomiality(1, 10).polynomial
    assert max(read) == 9
    report = tower().polynomiality(1, 11)
    assert not report.polynomial
    assert [w.model_degree for w in report.square_zero] == [5]


def test_one_tower_per_model():
    assert tower() is tower()
    assert tower(reduced=True) is tower(reduced=True)
    assert tower(reduced=True) is not tower()
    assert (tower().model, tower(reduced=True).model) == (FULL, BASED)


BUILD_COUNTER = """
import collections, functools, json
from spinmcg.loops import LoopTower
from spinmcg.verify import TARGETS, run_target

built = collections.Counter()

def counted(name, attr):
    build = getattr(LoopTower, attr).__wrapped__

    def counting(self, n):
        built[name, self.model.reduced, n] += 1
        return build(self, n)
    return functools.cache(counting)

# klam reads the cached _klam
for name, attr in (("halving", "halving"), ("klam", "_klam")):
    setattr(LoopTower, attr, counted(name, attr))
for target in sorted(TARGETS):
    run_target(target, 12)
print(json.dumps(sorted(built.items())))
"""


def test_every_target_builds_each_table_once():
    """In a fresh process, every target at degree 12 builds each halving
    table and each Ker(lambda') of each model once."""
    proc = subprocess.run([sys.executable, "-c", BUILD_COUNTER], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    built = json.loads(proc.stdout)
    assert {(name, reduced) for (name, reduced, _), _ in built} == {
        ("halving", False), ("halving", True), ("klam", False), ("klam", True)
    }
    assert all(count == 1 for _, count in built), built


def test_halve_is_lambda_on_sums_of_primitive_rows():
    """halve(n, v) sums halving-table rows; lambda_op on the element v is the
    graded Sq pass on v as a whole.  They agree on every sum of PH_n rows
    (a seeded sample of 64 where there are more), n <= 12, both models."""
    rng = random.Random(29)
    for t in (TOWER, BASED_TOWER):
        for n in range(1, 13):
            kind = "lambda'" if n % 2 else "lambda''"
            basis = t.model.primitives(n).basis
            masks = range(1, 1 << len(basis))
            if len(masks) > 64:
                masks = rng.sample(masks, 64)
            for mask in masks:
                vec = frozenset()
                for i, row in enumerate(basis):
                    if mask >> i & 1:
                        vec ^= row
                want = t.model.lambda_op(kind, Element(t.model, vec)).monos
                assert t.halve(n, vec) == want, (n, mask)


def leave_the_target(monkeypatch, t, n, target):
    """Patch the degree-n halving table of the tower t: row 0 gains a
    monomial whose singleton lies outside the target subspace."""
    table = t.halving(n)
    stray = next(m for m in t.model.basis(n // 2 + 1) if not target.contains({m}))
    patched = (table[0] ^ {stray},) + table[1:]
    original = t.halving
    monkeypatch.setattr(t, "halving", lambda k: patched if k == n else original(k))


def test_klam_stability_check_can_fail(monkeypatch):
    """check_klam_stable raises once a degree-8 halving row leaves
    Ker(lambda') in degree 5, and not at degree 6."""
    fresh = LoopTower()
    fresh.check_klam_stable(8)
    leave_the_target(monkeypatch, fresh, 8, fresh.klam(5))
    fresh.check_klam_stable(6)
    with pytest.raises(NotPolynomial) as caught:
        fresh.check_klam_stable(8)
    assert str(caught.value) == "lambda'' does not stabilize Ker(lambda') at degree 8"
