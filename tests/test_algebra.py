import itertools
from functools import cache, partial

import pytest

from oracles import (
    F2Matrix,
    SquareFreeQuotient,
    adem_normalize_word,
    basis_index,
    canonical_in_coset_by_solve,
    cartan_by_factors,
    dense_echelon,
    from_vector,
    full_row_primitives,
    full_row_stage_one,
    left_kernel,
    reduced_coproduct,
    rref,
    to_monos,
)
from spinmcg import gf2
from spinmcg.algebra import Element, QAlgebra, get_model
from spinmcg.errors import EngineError, NonUnique, NoSolution, ParityMismatch, SpaceMismatch
from spinmcg.loops import exterior_dims, primitive_labels
from spinmcg.maps import partial_on_generator
from spinmcg.words import generator_words


FULL = get_model("rp-inf")
BASED = get_model("rp-inf", reduced=True)
SIGMA = get_model("sigma-cp-inf")


def e(n, model=FULL):
    return model.gen_element((), n)


def q(word, n, model=FULL):
    return model.gen_element(tuple(word), n)


def mono_product(model, a, b):
    """Product of two monomials through the public factor API."""
    return model.mono(model.factors(a) + model.factors(b))


def psi(model, mono):
    """The coproduct of one monomial."""
    return model.coproduct(model.from_monos([mono]))


def decomposables(model, degree):
    """The span of the basis monomials with more than one factor."""
    return model.span(
        frozenset({m}) for m in model.basis(degree) if len(model.factors(m)) != 1
    )


def squares(model, degree):
    """The span of the squares of the monomials of half the degree."""
    if degree % 2:
        return model.span([])
    return model.span(
        frozenset({mono_product(model, m, m)}) for m in model.basis(degree // 2)
    )


def tensor(model, pairs):
    return frozenset((model.mono(l), model.mono(r)) for l, r in pairs)


def g(word, index, model=FULL):
    return model.gen_id(word, index)


# ----- product -----

def test_product_unit():
    x = q([2], 1)
    assert FULL.product(x, FULL.unit()) == x


def test_product_square_is_legal_monomial():
    sq = FULL.product(e(1), e(1))
    assert len(sq.monos) == 1
    (mono,) = tuple(sq.monos)
    assert mono == FULL.mono((g((), 1), g((), 1)))


def test_product_bilinear():
    x = e(1) + e(2)
    got = FULL.product(x, e(1))
    assert got == FULL.product(e(1), e(1)) + FULL.product(e(2), e(1))


def test_product_space_mismatch():
    with pytest.raises(SpaceMismatch):
        FULL.product(e(1), SIGMA.gen_element((), 0))


def test_add_space_mismatch():
    with pytest.raises(SpaceMismatch):
        e(1) + e(1, BASED)


# ----- instability and Adem normal forms -----

def test_q1_e1_is_square():
    assert q([1], 1) == e(1) * e(1)


def test_q2q1_e1_is_fourth_power():
    e1 = e(1)
    assert q([2, 1], 1) == e1 * e1 * e1 * e1


def test_q5q1_e0_is_square_of_q3():
    got = q([5, 1], 0)
    q3 = q([3], 0)
    assert got == q3 * q3


def test_q3q1_e1_vanishes():
    assert q([3, 1], 1) == FULL.zero()


def test_below_degree_vanishes():
    assert FULL.q_apply(1, e(2)) == FULL.zero()


def test_adem_confluence_inner_vs_outer():
    # same normal form whether the word is normalized first or the
    # operations are applied one at a time
    for base_idx, model in [(0, FULL), (1, FULL), (2, FULL), (1, BASED)]:
        base_deg = base_idx
        for a, b, c in itertools.product(range(1, 9), repeat=3):
            if a + b + c + base_deg > 12:
                continue
            inner_first = model.q_word((a, b, c), model.base(base_idx))
            outer = model.zero()
            for w in adem_normalize_word((a, b, c)):
                outer = outer + model.q_word(w, model.base(base_idx))
            assert inner_first == outer


# ----- coproduct -----

def test_psi_e1_primitive():
    x = e(1)
    assert FULL.is_primitive(x)
    assert BASED.is_primitive(e(1, BASED))


def test_psi_e2_value():
    got = FULL.coproduct(e(2))
    e1m = (g((), 1),)
    e2m = (g((), 2),)
    assert got == tensor(FULL, [(e2m, ()), (e1m, e1m), ((), e2m)])


def test_psi_multiplicative_spot():
    x = e(1)
    lhs = FULL.coproduct(x * x)
    pairs = FULL.coproduct(x)
    prod = set()
    for l1, r1 in pairs:
        for l2, r2 in pairs:
            key = (mono_product(FULL, l1, l2), mono_product(FULL, r1, r2))
            prod.symmetric_difference_update({key})
    assert lhs == frozenset(prod)


def test_psi_q2e1_component_normalized():
    # Q^2 e_1 (x) 1 + 1 (x) Q^2 e_1 + e_1^2 (x) Q^1 e_0 + Q^1 e_0 (x) e_1^2
    got = FULL.coproduct(q([2], 1))
    e1sq = (g((), 1), g((), 1))
    q1e0 = (g((1,), 0),)
    q2e1 = (g((2,), 1),)
    assert got == tensor(
        FULL, [(q2e1, ()), ((), q2e1), (e1sq, q1e0), (q1e0, e1sq)]
    )


def test_based_q_words_on_e1_primitive():
    for s in (2, 3, 4, 5):
        assert BASED.is_primitive(BASED.gen_element((s,), 1))


def test_suspension_generators_primitive():
    for word, idx in [((), 0), ((), 1), ((2,), 0), ((3,), 0), ((4, 2), 0)]:
        assert SIGMA.is_primitive(SIGMA.gen_element(word, idx))


def test_coassociativity_low_degrees():
    for model in (FULL, BASED, SIGMA):
        for degree in range(1, 7):
            for mono in model.basis(degree):
                x = model.from_monos([mono])
                pairs = model.coproduct(x)
                left = set()
                for l, r in pairs:
                    for l2, r2 in psi(model, l):
                        left.symmetric_difference_update({(l2, r2, r)})
                right = set()
                for l, r in pairs:
                    for l2, r2 in psi(model, r):
                        right.symmetric_difference_update({(l, l2, r2)})
                assert left == right


def test_counit_property():
    # terms with empty left factor reconstruct x, same on the right
    for model in (FULL, SIGMA):
        for degree in range(1, 8):
            for mono in model.basis(degree):
                x = model.from_monos([mono])
                pairs = model.coproduct(x)
                left_unit = {r for l, r in pairs if not l}
                right_unit = {l for l, r in pairs if not r}
                assert left_unit == {mono}
                assert right_unit == {mono}


# ----- frobenius -----

def test_frobenius_is_coalgebra_map():
    for degree in range(1, 6):
        for mono in FULL.basis(degree):
            x = FULL.from_monos([mono])
            lhs = FULL.coproduct(x * x)
            rhs = set()
            for l, r in FULL.coproduct(x):
                rhs.symmetric_difference_update(
                    {(mono_product(FULL, l, l), mono_product(FULL, r, r))}
                )
            assert lhs == frozenset(rhs)


# ----- dual Steenrod action -----

def test_lambda_q4e2():
    assert FULL.lambda_op("lambda", q([4], 2)) == q([2], 1)


def test_lambda_on_square_of_e1():
    assert FULL.lambda_op("lambda", e(1) * e(1)) == FULL.zero()


def test_lambda_parity_mismatch():
    with pytest.raises(ParityMismatch):
        FULL.lambda_op("lambda", e(3))


def sq_on_monomials(model):
    """Sq^a_* of one monomial, read off sq_star on the one-monomial element
    and cached, since the factor pairs repeat across a and b."""
    return cache(lambda a, mono: model.sq_star(a, model.from_monos([mono])).monos)


def test_sq_star_total_is_coalgebra_map():
    sq_mono = sq_on_monomials(FULL)
    for degree in range(1, 8):
        for mono in FULL.basis(degree):
            x = FULL.from_monos([mono])
            for a in range(1, degree + 1):
                lhs = FULL.coproduct(FULL.sq_star(a, x))
                rhs = set()
                for l, r in FULL.coproduct(x):
                    ld = FULL.mono_degree(l)
                    for b in range(a + 1):
                        ls = sq_mono(b, l)
                        rs = sq_mono(a - b, r)
                        for lm in ls:
                            for rm in rs:
                                rhs.symmetric_difference_update({(lm, rm)})
                assert lhs == frozenset(rhs)


def test_sq_star_preserves_primitives():
    p3 = e(3) + e(1) * e(2) + e(1) * e(1) * e(1)
    assert FULL.is_primitive(p3)
    assert FULL.is_primitive(FULL.sq_star(1, p3))


def test_lambda_prime_p3():
    p3 = e(3) + e(1) * e(2) + e(1) * e(1) * e(1)
    assert FULL.lambda_op("lambda'", p3) == e(1) * e(1)


# ----- bases, primitives, indecomposables -----

def test_dims_hand_counted():
    assert [FULL.dim(d) for d in range(4)] == [1, 2, 5, 12]
    assert [BASED.dim(d) for d in range(4)] == [1, 1, 2, 4]
    assert [SIGMA.dim(d) for d in range(5)] == [1, 1, 1, 3, 4]


def test_everything_primitive_in_degree_one():
    assert FULL.primitives(1).dim == FULL.dim(1) == 2


def test_ph2_full():
    prim = FULL.primitives(2)
    assert prim == FULL.span([(e(1) * e(1)).monos, q([1, 1], 0).monos])


def test_p3_in_ph3():
    p3 = e(3) + e(1) * e(2) + e(1) * e(1) * e(1)
    assert FULL.primitives(3).contains(p3.monos)


def test_ph4_based_two_dimensional():
    prim = BASED.primitives(4)
    assert prim == BASED.span([q([3], 1, BASED).monos, q([2, 1], 1, BASED).monos])
    assert prim.dim == 2


def test_ph4_full_has_extra_class():
    assert FULL.primitives(4).dim == 3


def tensor_offsets(model, degree):
    """(left degree, offset, block width) for the middle tensor blocks."""
    out = []
    offset = 0
    for k in range(1, degree):
        width = model.dim(k) * model.dim(degree - k)
        out.append((k, offset, width))
        offset += width
    return out


def tensor_dim(model, degree):
    return sum(w for (_, _, w) in tensor_offsets(model, degree))


def tensor_vector(model, pairs, degree):
    """Coordinates of a homogeneous tensor in the middle blocks, with every
    left (x) right basis pair numbered."""
    offsets = {k: off for (k, off, _) in tensor_offsets(model, degree)}
    vec = 0
    for l_mono, r_mono in pairs:
        ld = model.mono_degree(l_mono)
        rd = model.mono_degree(r_mono)
        if ld == 0 or rd == 0:
            continue
        if ld + rd != degree:
            raise ValueError("inhomogeneous tensor pair")
        pos = (
            offsets[ld]
            + basis_index(model, ld)[l_mono] * len(basis_index(model, rd))
            + basis_index(model, rd)[r_mono]
        )
        vec ^= 1 << pos
    return vec


def _full_tensor_primitives(model, degree):
    """The left kernel of the whole reduced-coproduct matrix, as a dense RREF."""
    rows = tuple(
        tensor_vector(model, reduced_coproduct(model, model.from_monos([m])), degree)
        for m in model.basis(degree)
    )
    return left_kernel(F2Matrix(rows, max(tensor_dim(model, degree), 1)))


@pytest.mark.parametrize(
    "space,reduced",
    [
        ("rp-inf", False),
        ("rp-inf", True),
        ("bspin2", False),
        ("bspin2", True),
        ("bspin3", False),
        ("sigma-cp-inf", False),
    ],
)
def test_primitives_match_full_tensor_kernel(space, reduced):
    model = get_model(space, reduced)
    for n in range(1, 11):
        assert dense_echelon(model, n, model.primitives(n)) == _full_tensor_primitives(model, n), n


def test_canonical_in_coset_is_primitive_with_same_generator_part():
    x = q([4], 1)  # degree 5; its coset holds p_(4,1)
    p = FULL.canonical_in_coset(x)
    assert FULL.is_primitive(p)
    assert FULL.generator_part(p) == FULL.generator_part(x)
    assert FULL.canonical_in_coset(p) == p


def test_canonical_in_coset_without_primitive_raises():
    # e_2 + decomposables is never primitive: PH_2 is spanned by squares
    with pytest.raises(NoSolution):
        FULL.canonical_in_coset(e(2))


def test_canonical_in_coset_refuses_decomposable_primitives_in_odd_degree(monkeypatch):
    # a primitive solver that puts the decomposable e_1 e_2 in P_3
    fresh = QAlgebra("rp-inf")
    e1e2 = fresh.product(e(1, fresh), e(2, fresh))
    monkeypatch.setattr(fresh, "primitives", lambda degree: fresh.span([e1e2.monos]))
    with pytest.raises(NonUnique) as caught:
        fresh.canonical_in_coset(e1e2)
    assert str(caught.value) == "decomposable primitives in odd degree 3"


def test_canonical_in_coset_refuses_a_representative_that_is_not_primitive(monkeypatch):
    # a primitive solver that puts e_3 in P_3: e_3 reduces to zero against
    # it, and e_3 itself is not primitive
    fresh = QAlgebra("rp-inf")
    monkeypatch.setattr(fresh, "primitives", lambda degree: fresh.span([e(3, fresh).monos]))
    with pytest.raises(NoSolution) as caught:
        fresh.canonical_in_coset(e(3, fresh))
    assert str(caught.value) == "coset representative of e_3 is not primitive"


def test_honest_q_word_refuses_an_element_of_another_model():
    with pytest.raises(SpaceMismatch) as caught:
        FULL.honest_q_word((2,), e(1, BASED))
    assert str(caught.value) == "element not in this model"


def test_honest_q_word_refuses_a_result_off_the_base_component(monkeypatch):
    # every Q^s(u^z) comes back one unit power higher, so Q^2 on the class
    # u^-1 e_1 of e_1 leaves u^-1 Q^2 e_1, where the base component needs u^-2
    fresh = QAlgebra("rp-inf")
    unit_power, one = fresh._q_unit_power, 1 << fresh._pair_shift
    monkeypatch.setattr(
        fresh, "_q_unit_power", lambda s, z: frozenset(c + one for c in unit_power(s, z))
    )
    with pytest.raises(ValueError) as caught:
        fresh.honest_q_word((2,), e(1, fresh))
    assert str(caught.value) == "honest action left the base component"


def _coset_outcome(solve, value):
    try:
        return solve(value)
    except (NoSolution, NonUnique) as exc:
        return type(exc)


def test_canonical_in_coset_matches_the_solve_route():
    """One reduction against P gives the representative that solving for a
    primitive and reducing against the decomposable primitives gives: on
    the lead of every label of both rp-inf models, and on every raw
    zero-tail boundary value, through degree 14."""
    cases = []
    for model in (FULL, BASED):
        for n in range(1, 15):
            for label in primitive_labels(n, reduced=model.reduced):
                cases.append((model, model.gen_element(label.word, label.index)))
    for n in range(1, 15):
        for gen in SIGMA.generators_in_degree(n):
            word, r = SIGMA.gen_word_index(gen)
            cases.append((FULL, FULL.honest_q_word(word, partial_on_generator(r, "zero"))))
    assert len(cases) > 200
    for model, value in cases:
        want = _coset_outcome(partial(canonical_in_coset_by_solve, model), value)
        assert _coset_outcome(model.canonical_in_coset, value) == want, value


def test_indecomposables():
    assert len(FULL.generators_in_degree(2)) == 2  # e_2 and Q^2 e_0
    assert len(SIGMA.generators_in_degree(2)) == 0
    for n in range(1, 9):
        # dim QH_n, the codimension of the decomposables
        assert FULL.dim(n) - decomposables(FULL, n).dim == len(FULL.generators_in_degree(n))


def test_primitive_decomposables_are_squares():
    # kernel of PH -> QH equals PH ∩ ξA, degreewise
    for model in (FULL, SIGMA):
        for n in range(2, 9):
            prim = model.primitives(n)
            assert gf2.subspace_intersection(
                prim, decomposables(model, n)
            ) == gf2.subspace_intersection(prim, squares(model, n))


def test_milnor_moore_on_primitively_generated_model():
    # dim PH_n = dim QH_n + dim P(ξH)_n when the algebra is primitively generated
    for n in range(1, 11):
        prim = SIGMA.primitives(n)
        qdim = len(SIGMA.generators_in_degree(n))
        pxi = gf2.subspace_intersection(prim, squares(SIGMA, n)).dim
        assert prim.dim == qdim + pxi


# ----- the word relation suite -----

def relation_pairs(model, max_degree):
    for d in range(0, max_degree + 1):
        for gen in model.generators_in_degree(d) if d else []:
            yield d, model.from_monos([model.mono((gen,))])


def test_word_relations_small():
    # λ Q^{2s} x = Q^s λ x and the four companions, degrees <= 9
    N = 9
    for d in range(1, N + 1):
        for gen in FULL.generators_in_degree(d):
            x = FULL.from_monos([FULL.mono((gen,))])
            for s in range(1, (N - d) // 2 + 1):
                if d % 2 == 0:
                    lhs = FULL.lambda_op("lambda", FULL.q_apply(2 * s, x))
                    rhs = FULL.q_apply(s, FULL.lambda_op("lambda", x))
                    assert lhs == rhs
                    lam_x = FULL.lambda_op("lambda", x)
                    if not lam_x:
                        lhs = FULL.lambda_op("lambda''", FULL.q_apply(2 * s, x))
                        rhs = FULL.q_apply(s, FULL.lambda_op("lambda''", x))
                        assert lhs == rhs
                else:
                    lhs = FULL.lambda_op("lambda'", FULL.q_apply(2 * s, x))
                    rhs = FULL.q_apply(s, FULL.lambda_op("lambda'", x))
                    assert lhs == rhs
    # odd Q index cases
    for d in range(1, N + 1):
        for gen in FULL.generators_in_degree(d):
            x = FULL.from_monos([FULL.mono((gen,))])
            for s in range(1, (N - d) // 2 + 2):
                if 2 * s - 1 + d > N + 2:
                    continue
                if d % 2 == 0:
                    lam_x = FULL.lambda_op("lambda", x)
                    target = FULL.q_apply(s, lam_x)
                    coeff = (s + d // 2) % 2  # parity of deg Q^s λx
                    lhs = FULL.lambda_op("lambda'", FULL.q_apply(2 * s - 1, x))
                    assert lhs == (target if coeff else FULL.zero())
                else:
                    lamp_x = FULL.lambda_op("lambda'", x)
                    target = FULL.q_apply(s, lamp_x)
                    coeff = (1 + s + (d + 1) // 2) % 2  # 1 + deg Q^s λ' x
                    lhs = FULL.lambda_op("lambda''", FULL.q_apply(2 * s - 1, x))
                    assert lhs == (target if coeff else FULL.zero())


def test_rendering():
    x = q([2], 1) + e(1) * e(2) + e(1) * e(1) * e(1)
    assert str(x) == "Q^2 e_1 + e_1*e_2 + e_1^3"
    assert str(q([1], 0) * q([1], 0)) == "(Q^1 e_0)^2"
    assert str(FULL.zero()) == "0"
    assert str(FULL.unit()) == "1"


def test_psi_multiplicative_random_pairs():
    import random

    rng = random.Random(17)
    for model in (FULL, SIGMA):
        for _ in range(15):
            da = rng.randint(1, 4)
            db = rng.randint(1, 4)
            xa = model.from_monos(
                rng.sample(model.basis(da), k=min(2, model.dim(da)))
            )
            xb = model.from_monos(
                rng.sample(model.basis(db), k=min(2, model.dim(db)))
            )
            lhs = model.coproduct(xa * xb)
            rhs = set()
            for l1, r1 in model.coproduct(xa):
                for l2, r2 in model.coproduct(xb):
                    rhs.symmetric_difference_update(
                        {(mono_product(model, l1, l2), mono_product(model, r1, r2))}
                    )
            assert lhs == frozenset(rhs)


def test_cartan_compat_other_spaces():
    for model in (get_model("bspin2"), get_model("bspin3"), SIGMA):
        sq_mono = sq_on_monomials(model)
        for degree in range(1, 9):
            for mono in model.basis(degree)[:8]:
                x = model.from_monos([mono])
                for a in (1, 2, 4):
                    lhs = model.coproduct(model.sq_star(a, x))
                    rhs = set()
                    for l, r in model.coproduct(x):
                        for b in range(a + 1):
                            for lm in sq_mono(b, l):
                                for rm in sq_mono(a - b, r):
                                    rhs.symmetric_difference_update({(lm, rm)})
                    assert lhs == frozenset(rhs)


def test_normalization_preserves_degree():
    import random

    rng = random.Random(23)
    for _ in range(30):
        length = rng.randint(1, 3)
        word = tuple(rng.randint(1, 5) for _ in range(length))
        idx = rng.choice([0, 1, 2])
        value = FULL.gen_element(word, idx)
        expected = sum(word) + idx
        for mono in value.monos:
            assert FULL.mono_degree(mono) == expected


# ----- interned generator ids -----

ALL_MODELS = [
    ("rp-inf", False), ("rp-inf", True), ("bspin2", False), ("bspin2", True),
    ("bspin3", False), ("bspin3", True), ("sigma-cp-inf", False),
]


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_id_order_is_generator_key_order_and_rendering_unchanged(space, reduced):
    model = get_model(space, reduced)
    prefix = {"rp-inf": "e", "bspin2": "a", "bspin3": "b", "sigma-cp-inf": "abar"}[space]

    def text(word, index):
        ops = " ".join(f"Q^{i}" for i in word)
        return f"{ops} {prefix}_{index}" if ops else f"{prefix}_{index}"

    # the generator words in (degree, index, word) order, rendered here
    want = [
        ((word, index), text(word, index))
        for d in range(1, 13)
        for word, index in sorted(generator_words(space, d), key=lambda wi: (wi[1], wi[0]))
        if not (reduced and index == 0)
    ]
    ids = model.generators(12)
    assert ids == sorted(ids)
    assert [(model.gen_word_index(g), model.render_gen(g)) for g in ids] == want
    for g in ids:
        word, index = model.gen_word_index(g)
        assert model.gen_id(word, index) == g
        assert model.gen_degree(g) == sum(word) + model.gen_degree(model.gen_id((), index))


def test_ids_do_not_depend_on_first_use_order():
    from spinmcg.algebra import QAlgebra

    fresh = QAlgebra("rp-inf")
    for d in range(12, 0, -1):  # reach the degrees top down
        fresh.generators_in_degree(d)
    assert fresh.generators(12) == FULL.generators(12)
    late = QAlgebra("rp-inf", reduced=True)
    assert late.gen_id((4, 2), 1) == BASED.gen_id((4, 2), 1)


def test_unit_and_index_zero_generators_have_ids_in_the_based_model():
    unit = BASED.gen_id((), 0)
    assert BASED.gen_degree(unit) == 0
    assert unit < min(BASED.generators(3))
    q2e0 = BASED.gen_id((2,), 0)
    assert BASED.gen_word_index(q2e0) == ((2,), 0)
    assert q2e0 not in BASED.generators(2)
    with pytest.raises(ValueError):
        BASED.gen_id((1, 1), 1)  # inadmissible word


def _naive_power_coproduct(model, gen, m):
    acc = {(model.mono(()), model.mono(()))}
    for _ in range(m):
        nxt = set()
        for l1, r1 in acc:
            for l2, r2 in psi(model, model.mono((gen,))):
                nxt.symmetric_difference_update(
                    {(mono_product(model, l1, l2), mono_product(model, r1, r2))}
                )
        acc = nxt
    return frozenset(acc)


@pytest.mark.parametrize(
    "space,reduced", [("rp-inf", False), ("rp-inf", True), ("sigma-cp-inf", False)]
)
def test_frobenius_coproduct_of_powers(space, reduced):
    model = get_model(space, reduced)
    for g in model.generators(3):
        for m in range(2, 6):
            assert psi(model, model.mono((g,) * m)) == _naive_power_coproduct(model, g, m)
    g, h = model.generators(3)[:2]
    mixed = model.mono(sorted((g,) * 3 + (h,) * 2))
    naive = set()
    for l1, r1 in _naive_power_coproduct(model, g, 3):
        for l2, r2 in _naive_power_coproduct(model, h, 2):
            naive.symmetric_difference_update(
                {(mono_product(model, l1, l2), mono_product(model, r1, r2))}
            )
    assert psi(model, mixed) == frozenset(naive)


# ----- packed monomials -----


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_mono_and_factors_round_trip_on_every_basis_monomial(space, reduced):
    model = get_model(space, reduced)
    for degree in range(13):
        for m in model.basis(degree):
            f = model.factors(m)
            assert list(f) == sorted(f)
            assert model.mono(f) == m
            assert model.mono_degree(m) == sum(model.gen_degree(g) for g in f) == degree


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_basis_is_ordered_by_factor_count_then_factors(space, reduced):
    model = get_model(space, reduced)

    def key(m):
        return len(model.factors(m)), model.factors(m)

    for degree in range(13):
        monos = model.basis(degree)
        assert list(monos) == sorted(monos, key=key)


def test_mono_mul_is_the_mono_of_the_merged_factors():
    import random

    rng = random.Random(5)
    for model in (FULL, BASED, SIGMA, get_model("bspin2")):
        for _ in range(200):
            da, db = rng.randint(0, 6), rng.randint(0, 6)
            a = rng.choice(model.basis(da))
            b = rng.choice(model.basis(db))
            merged = sorted(model.factors(a) + model.factors(b))
            # a product of monomials is the sum of their packed exponent vectors
            assert a + b == model.mono(merged) == mono_product(model, a, b)
            assert model.factors(a + b) == tuple(merged)


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_doubled_packed_pair_is_the_termwise_square_of_psi(space, reduced):
    model = get_model(space, reduced)
    for g in model.generators(6):
        shift, right_mask = model._pair_shift, model._right_mask
        doubled = frozenset(
            (p >> shift, p & right_mask) for p in (2 * pair for pair in model._psi_gen_pairs(g))
        )
        termwise = frozenset(
            (mono_product(model, l, l), mono_product(model, r, r))
            for l, r in psi(model, model.mono((g,)))
        )
        assert doubled == termwise
        assert doubled == psi(model, model.mono((g, g)))


def swap(model, pair):
    """l (x) r -> r (x) l on a packed pair."""
    return ((pair & model._right_mask) << model._pair_shift) | (pair >> model._pair_shift)


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_every_generator_coproduct_is_swap_invariant(space, reduced):
    # multiply_out keeps half of each product on the ground of this
    from spinmcg.algebra import DEGREE_CAP

    model = get_model(space, reduced)
    for gen in model.generators(DEGREE_CAP):
        table = set(model._psi_gen_pairs(gen))
        assert {swap(model, p) for p in table} == table, model.render_gen(gen)


def test_swap_guard_refuses_an_asymmetric_generator_table(monkeypatch):
    model = QAlgebra("rp-inf")  # fresh memo tables
    gen = model.gen_id((), 3)
    full, eta = model._psi_full, model._pair_eta
    table = full(gen)
    dropped = next(p for p in table if swap(model, p & eta) != p & eta)
    monkeypatch.setattr(model, "_psi_full", lambda h: table - {dropped} if h == gen else full(h))
    with pytest.raises(EngineError) as caught:
        model._psi_gen_pairs(gen)
    assert str(caught.value) == "the coproduct of e_3 is not cocommutative"


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_half_psi_bar_is_the_full_coproduct_filtered(space, reduced):
    """On every basis monomial through degree 10: the full coproduct,
    multiplied out one factor copy at a time from the generator tables
    with no doubling and no cut, is what coproduct rebuilds from the half,
    and its two-sided pairs with left degree at most half are the row
    _psi_bar gives."""
    model = get_model(space, reduced)
    shift, right_mask = model._pair_shift, model._right_mask
    for n in range(11):
        for m in model.basis(n):
            full = {0}
            for gen in model.factors(m):
                acc = set()
                for a in full:
                    acc ^= {a + b for b in model._psi_gen_pairs(gen)}
                full = acc
            want = {(p >> shift, p & right_mask) for p in full}
            assert model.coproduct(model.from_monos([m])) == want, model.render_mono(m)
            half = {
                p for p in full
                if p >> shift and p & right_mask and 2 * model.mono_degree(p >> shift) <= n
            }
            assert model._psi_bar([m]) == half, model.render_mono(m)


def test_square_free_quotient_target_basis_unchanged():
    model = get_model("bspin2")
    quotient = SquareFreeQuotient(model)
    degrees = [model.gen_degree(g) for g in model.generators(12)]
    exterior = exterior_dims(degrees, 12)
    for n in range(13):
        got = quotient.target_basis(n)
        assert len(got) == exterior[n]


def test_past_the_degree_cap_raises_instead_of_carrying(monkeypatch):
    from spinmcg.algebra import DEGREE_CAP
    from spinmcg.betti import spin_betti
    from spinmcg.errors import DegreeOverflow, EngineError
    from spinmcg.maps import cokernel_generators

    e1 = g((), 1)
    top = FULL.mono((e1,) * DEGREE_CAP)
    assert FULL.factors(top) == (e1,) * DEGREE_CAP
    with pytest.raises(DegreeOverflow):
        FULL.mono((e1,) * (DEGREE_CAP + 1))
    with pytest.raises(DegreeOverflow):
        FULL.product(FULL.from_monos([top]), e(1))
    # the least power of e_1 whose square is past the cap
    x = FULL.from_monos([FULL.mono((e1,) * (DEGREE_CAP // 2 + 1))])
    with pytest.raises(DegreeOverflow):
        FULL.product(x, x)
    with pytest.raises(DegreeOverflow):
        FULL.q_apply(DEGREE_CAP, e(1))
    with pytest.raises(DegreeOverflow):
        FULL.gen_element((), DEGREE_CAP + 1)
    with pytest.raises(DegreeOverflow):
        FULL.basis(DEGREE_CAP + 1)
    with pytest.raises(DegreeOverflow):
        FULL.dim(DEGREE_CAP + 1)
    # the degree-zero class has its own bound, and Q^0 squares it
    unit = g((), 0)
    with pytest.raises(DegreeOverflow):
        FULL.mono((unit,) * 32)
    power = FULL.mono((unit,) * 16)
    with pytest.raises(DegreeOverflow):
        FULL.q_mono_apply(0, power)
    assert issubclass(DegreeOverflow, OverflowError)
    assert issubclass(DegreeOverflow, EngineError)
    # a Betti range that reads primitive data past the cap raises before
    # any primitive is computed
    def no_primitives(self, degree):
        raise AssertionError(f"primitives({degree}) computed before the cap check")

    monkeypatch.setattr(QAlgebra, "primitives", no_primitives)
    for tail in ("primitive", "zero"):
        with pytest.raises(DegreeOverflow):
            spin_betti(DEGREE_CAP - 1, tail)
        with pytest.raises(DegreeOverflow):
            cokernel_generators(DEGREE_CAP - 1, tail)


# ----- the Cartan step of Q and Sq_* on monomials -----

@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_cartan_by_set_bits_matches_the_factor_by_factor_oracle(space, reduced):
    """Every basis monomial through degree 8 under every Sq_* index and every
    Q index with a result through degree 16, and the powers g^2..g^5 and
    g^3 h^2 of the two lowest generators under every Q index up to the cap.
    (Every index up to the cap on all of degree 8 takes seconds, nearly all
    of them in the oracle.)"""
    from spinmcg.algebra import DEGREE_CAP

    model = get_model(space, reduced)
    checks = [(m, 16) for n in range(9) for m in model.basis(n)]
    gens = model.generators(8)[:2]
    words = [(g,) * k for g in gens for k in range(2, 6)] + [
        (gens[0],) * 3 + (gens[-1],) * 2
    ]
    if not reduced and space != "sigma-cp-inf":
        # powers of the degree-zero class, which Q^0 squares
        unit = model.gen_id((), 0)
        words += [(unit,) * k + (gens[0],) * j for k in (1, 2, 3) for j in range(4)]
    checks += [
        (model.mono(w), DEGREE_CAP)
        for w in words
        if sum(model.gen_degree(g) for g in w) <= DEGREE_CAP
    ]
    for m, top in checks:
        degree = model.mono_degree(m)
        for s in range(degree, top - degree + 1):
            want = cartan_by_factors(model, model.q_gen_apply, s, m, q=True)
            assert model.q_mono_apply(s, m) == want, (s, model.render_mono(m))
            assert model.q_mono_apply(s, m) == want
        for a in range(degree + 2):
            want = cartan_by_factors(model, model.sq_gen_apply, a, m, q=False)
            got = model.sq_star(a, model.from_monos([m])).monos
            assert got == want, (a, model.render_mono(m))


@pytest.mark.parametrize("space", ["rp-inf", "sigma-cp-inf"])
def test_graded_sq_pass_matches_sq_star_at_every_index(space):
    """sq_star_upto(top, x)[a] == sq_star(a, x) for a <= top: every basis
    monomial of degrees 0..10 (the unit included), the multi-monomial
    echelon primitives of degrees 1..10 and the sum of each degree's
    echelon primitives, and the squares g^(2^k) of the low generators,
    where the graded pass doubles its terms; top runs from 0 to past the
    degree."""
    model = get_model(space)
    elements = [model.from_monos([m]) for n in range(11) for m in model.basis(n)]
    for n in range(1, 11):
        prims = [Element(model, row) for row in model.primitives(n).basis]
        elements += [x for x in prims if len(x.monos) > 1]
        if len(prims) > 1:  # sigma-cp-inf's echelon primitives are monomials
            elements.append(sum(prims[1:], prims[0]))
    for gen in model.generators(4):
        for k in range(1, 4):
            if model.gen_degree(gen) << k <= 16:
                elements.append(model.from_monos([model.mono((gen,) * (1 << k))]))
    assert model.unit() in elements
    assert any(len(x.monos) > 1 for x in elements)
    for x in elements:
        degree = x.degree
        for top in sorted({0, degree // 2, degree + 1}):
            got = model.sq_star_upto(top, x)
            assert len(got) == top + 1
            for a, y in enumerate(got):
                assert y == model.sq_star(a, x), (top, a, str(x))


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_one_bucket_passes_match_the_graded_pass_at_every_index(space, reduced):
    """sq_star(a, .) and q_mono_apply(s, .) build only their own bucket; on
    every basis monomial through degree 12 they equal that bucket of the
    graded pass, for every Sq index through one past the degree and every
    Q index through 12 that stays under the cap."""
    from spinmcg.algebra import DEGREE_CAP

    model = get_model(space, reduced)
    for n in range(13):
        for m in model.basis(n):
            x = model.from_monos([m])
            graded = model.sq_star_upto(n + 1, x)
            for a in range(n + 2):
                assert model.sq_star(a, x) == graded[a], (a, model.render_mono(m))
            top = min(12, DEGREE_CAP - n)
            buckets = model._cartan(model.q_gen_apply, 0, top, m, q=True)
            for s in range(top + 1):
                want = frozenset(buckets.get(s, ()))
                assert model.q_mono_apply(s, m) == want, (s, model.render_mono(m))


def test_cartan_pass_with_an_empty_factor_is_zero():
    # a factor whose every piece is empty makes the product zero, in every
    # bucket, whatever the other factors give
    m = FULL.mono((g((), 1), g((), 2)))
    e1 = g((), 1)

    def gen_apply(i, gen):
        return frozenset() if gen == e1 else FULL.sq_gen_apply(i, gen)

    assert FULL._cartan(gen_apply, 0, 3, m, q=False) == {}
    assert FULL._cartan(FULL.sq_gen_apply, 0, 3, m, q=False)


def test_graded_sq_pass_fills_no_per_index_memo(monkeypatch):
    """sq_star_upto takes one graded Sq Cartan pass per monomial, through
    its top index, and no other Sq pass."""
    model = QAlgebra("rp-inf")
    x = model.from_monos([model.mono((model.gen_id((), 1),) * 3)]) + q([2], 1, model)
    passes = []
    cartan = QAlgebra._cartan

    def counted_cartan(self, gen_apply, least, total, mono, *, q):
        if not q:
            passes.append((least, total, mono))
        return cartan(self, gen_apply, least, total, mono, q=q)

    monkeypatch.setattr(QAlgebra, "_cartan", counted_cartan)
    assert model.sq_star_upto(4, x)[1] == model.from_monos(
        [model.mono((model.gen_id((), 1),) * 2)]
    )
    assert sorted(passes) == sorted((0, 4, m) for m in x.monos)


def test_q_mono_apply_past_the_cap_raises_on_every_call():
    from spinmcg.algebra import DEGREE_CAP
    from spinmcg.errors import DegreeOverflow

    e1 = FULL.mono((g((), 1),))
    power = FULL.mono((g((), 0),) * 16)
    for s, mono in ((DEGREE_CAP, e1), (DEGREE_CAP - 1, mono_product(FULL, e1, e1)), (0, power)):
        for _ in range(2):
            with pytest.raises(DegreeOverflow):
                FULL.q_mono_apply(s, mono)


def test_from_monos_is_an_f2_sum():
    m = FULL.mono((g((), 1),))
    assert FULL.from_monos([m, m]) == FULL.zero()
    assert FULL.from_monos([m, m, m]) == FULL.from_monos([m])
    assert FULL.from_monos(iter([m, m, m])).monos == frozenset({m})


# ----- triangular stage one of primitives -----


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_primitives_match_the_full_row_oracle(space, reduced):
    """The engine's echelon rows of PH_n, sets of monomials numbered
    nowhere, are the rows of the oracle's dense RREF over the numbered
    basis mapped to monomials, in the same order, each led by its first
    monomial in basis order: so the pivots are the dense ones."""
    model = get_model(space, reduced)
    top = 16 if space == "rp-inf" else 14
    for n in range(1, top + 1):
        prims = model.primitives(n)
        want = tuple(to_monos(model, vec, n) for vec in full_row_primitives(model, n))
        assert prims.basis == want, n
        assert prims.pivots == tuple(min(row, key=model.order_key) for row in want), n


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_dim_counts_the_enumerated_monomials(space, reduced):
    model = get_model(space, reduced)
    for n in range(17):
        assert model.dim(n) == len(model.basis(n)), n
    assert model.dim(-1) == 0


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_odd_degree_stage_one_kernel_is_primitive(space, reduced):
    # no decomposable primitive has odd degree (Milnor-Moore, Prop. 4.21),
    # so in odd degrees K = P and the engine skips stage two
    model = get_model(space, reduced)
    top = 15 if space == "rp-inf" else 12
    checked = 0
    for n in range(1, top + 1, 2):
        for vec in full_row_stage_one(model, n):
            assert model.is_primitive(from_vector(model, vec, n)), n
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("space,reduced", [m for m in ALL_MODELS if m != ("bspin3", True)])
def test_stage_two_is_needed_in_some_even_degree(space, reduced):
    # the parity is what makes K = P: every model but based bspin3 has an
    # even degree <= 12 where K is strictly larger than P (rp-inf: 6 against
    # 3 at degree 4), so the engine must keep stage two there
    model = get_model(space, reduced)
    smaller = []
    for n in range(2, 13, 2):
        kernel = full_row_stage_one(model, n)
        prims = dense_echelon(model, n, model.primitives(n))
        assert rref(kernel + prims) == kernel, n  # P inside K
        if len(prims) < len(kernel):
            smaller.append(n)
    assert smaller


def test_odd_degree_primitives_compute_no_coproduct_of_a_monomial(monkeypatch):
    calls = []
    multiply_out = QAlgebra.multiply_out

    def counted(self, monos):
        calls.append(monos)
        return multiply_out(self, monos)

    monkeypatch.setattr(QAlgebra, "multiply_out", counted)
    model = QAlgebra("rp-inf")  # fresh memo tables
    model.primitives(13)
    assert calls == []
    model.primitives(12)
    # stage two makes one pass per stage-one vector, not one per monomial
    # of their supports: 107 vectors over 248 distinct monomials
    assert 0 < len(calls) < len(set().union(*calls))


@pytest.mark.parametrize("space,reduced", ALL_MODELS)
def test_stage_one_rows_lead_with_distinct_top_keys(space, reduced):
    # a decomposable monomial with an odd exponent leads with (m / g) (x) g,
    # g its greatest factor of odd exponent; a square has the zero row
    model = get_model(space, reduced)
    for degree in range(1, 11):
        tops = []
        for m in model.basis(degree):
            factors = model.factors(m)
            row = model._stage_one_row(m)
            odd = [h for h in set(factors) if factors.count(h) % 2]
            if not odd:
                assert row == frozenset(), model.render_mono(m)
                continue
            # every key of every row names the one monomial it leads, if any
            for key in row:
                lead = model._top_monomial(key, degree)
                assert lead is None or max(model._stage_one_row(lead)) == key
            if len(factors) == 1:
                # a generator row: 1 (x) m is dropped from it, and leads no row
                assert model._top_monomial(factors[0] << model._deg_shift, degree) is None
                continue
            top = max(odd)
            rest = list(factors)
            rest.remove(top)
            want = (top << model._deg_shift) | (model.mono(rest) & model._field_mask)
            assert max(row) == want, model.render_mono(m)
            assert model._top_monomial(want, degree) == m
            tops.append(want)
        assert len(set(tops)) == len(tops), degree
