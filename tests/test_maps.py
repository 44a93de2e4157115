import subprocess
import sys

import pytest

from oracles import CoordinateMap, formal_boundary, formal_ranks, naturality_failures_by_index
from spinmcg import gf2, maps
from spinmcg.algebra import QAlgebra, get_model
from spinmcg.errors import DegreeOverflow, NonDoubledWord, NoSolution, SpaceMismatch
from spinmcg.loops import PrimitiveLabel, tower
from spinmcg.maps import (
    PrimitiveBoundary,
    cokernel_generators,
    doubled_t3_generators,
    kernel_poincare,
    partial_on_generator,
    theorem2_composite,
    transfer_iota_plus_c,
)

RP = get_model("rp-inf")
B2 = get_model("bspin2")
SIGMA = get_model("sigma-cp-inf")


def e(n):
    return RP.gen_element((), n)


def steenrod_naturality_failures(fmap, max_degree):
    """Pairs ((word, index), a) where Sq^a_* does not commute with the map."""
    failures = []
    for gen in fmap.source.generators(max_degree):
        d = fmap.source.mono_degree(gen)
        x = fmap.source.from_monos([fmap.source.mono((gen,))])
        for a in range(1, d + 1):
            lhs = fmap.target.sq_star(a, fmap.value(gen))
            rhs = fmap.apply(fmap.source.sq_star(a, x))
            if lhs != rhs:
                failures.append((fmap.source.gen_word_index(gen), a))
    return failures


def q_equivariance_failures(fmap, max_degree):
    """Monomials and s where f(Q^s m) != Q^s f(m), in the checked range."""
    failures = []
    for n in range(1, max_degree + 1):
        for mono in fmap.source.basis(n):
            x = fmap.source.from_monos([mono])
            fx = fmap.apply(x)
            for s in range(1, max_degree - n + 1):
                lhs = fmap.apply(fmap.source.q_apply(s, x))
                rhs = fmap.target.q_apply(s, fx)
                if lhs != rhs:
                    failures.append((fmap.source.factors(mono), s))
    return failures


def q(word, n, model=RP):
    return model.gen_element(tuple(word), n)


# ----- the boundary map seeds -----

def test_partial_r1_zero_tail():
    assert partial_on_generator(1, "zero") == e(3) + q([2], 1)


def test_partial_r0():
    # both policies coincide: the leading terms are already primitive
    want = e(1) + q([1], 0)
    assert partial_on_generator(0, "zero") == want
    assert partial_on_generator(0, "primitive") == want


def test_partial_r1_primitive_tail():
    full = tower()
    want = full.canonical(PrimitiveLabel((), 3)) + full.canonical(PrimitiveLabel((2,), 1))
    got = partial_on_generator(1, "primitive")
    assert got == want
    assert RP.is_primitive(got)


def test_partial_rejects_bad_policy():
    with pytest.raises(ValueError):
        partial_on_generator(1, "canonical")


# ----- the formal Q-extension, the oracle of the per-monomial ranks -----

def test_transfer_word_value_zero_tail():
    got = formal_boundary("zero", 3).value(SIGMA.gen_id((2,), 0))
    assert got == q([2], 1) + q([2, 1], 0)


def test_transfer_apply_is_multiplicative():
    fmap = formal_boundary("zero", 3)
    x = SIGMA.gen_element((), 0)
    y = SIGMA.gen_element((), 1)
    assert fmap.apply(x * y) == fmap.apply(x) * fmap.apply(y)


def test_transfer_rejects_wrong_space():
    with pytest.raises(SpaceMismatch):
        formal_boundary("zero", 2).apply(e(1))


def test_apply_rejects_a_value_in_another_model():
    fmap = CoordinateMap(B2, B2, {B2.gen_id((), 1): e(1)})
    with pytest.raises(SpaceMismatch):
        fmap.apply(B2.gen_element((), 1))


def test_apply_refuses_a_product_past_the_degree_cap():
    fmap = CoordinateMap(RP, RP, {RP.gen_id((), 1): e(20)})
    assert fmap.apply(e(1)) == e(20)
    with pytest.raises(DegreeOverflow):
        fmap.apply(e(1) * e(1))


def test_q_equivariance_of_formal_extension():
    assert q_equivariance_failures(formal_boundary("zero", 5), 5) == []


def test_injectivity_both_policies():
    """The formal map is injective degreewise, in full and on the source
    primitives, under both tails: the dense per-monomial ranks are full."""
    for policy in ("zero", "primitive"):
        full, prim = formal_ranks(policy, 16)
        assert all(r == d for _, r, d in full + prim)
        assert [d for _, _, d in full] == [SIGMA.dim(n) for n in range(1, 17)]


@pytest.mark.parametrize("policy", ["zero", "primitive"])
def test_sparse_ranks_match_dense_coordinate_ranks(policy):
    """The pivot counts of the sparse image rows equal the dense ranks of
    the images in rp-inf basis coordinates, in full and on the source
    primitives."""
    fmap = formal_boundary(policy, 10)
    full, prim = formal_ranks(policy, 10)
    for n in range(1, 11):
        images = [fmap.apply(SIGMA.from_monos([m])).monos for m in SIGMA.basis(n)]
        assert gf2.sparse_rank(images) == full[n - 1][1]
        ph = SIGMA.primitives(n).basis
        assert gf2.sparse_rank(fmap.apply(SIGMA.from_monos(v)).monos for v in ph) == prim[n - 1][1]


@pytest.mark.parametrize("policy", ["zero", "primitive"])
def test_generator_parts_of_formal_and_honest_values_agree(policy):
    """The formal and honest values on each source generator agree modulo
    decomposables, under either tail, and the two tails agree with each
    other: so cor2.7's rank on indecomposables is that of either tail."""
    fmap = formal_boundary(policy, 16)
    honest, primitive = maps.boundary(policy), maps.boundary("primitive")
    for gen in SIGMA.generators(16):
        want = RP.generator_part(primitive.value((gen, 0)))
        assert RP.generator_part(fmap.value(gen)) == want
        assert RP.generator_part(honest.value((gen, 0))) == want


def test_injectivity_checks_fail_when_two_generators_share_a_value(monkeypatch):
    """abar_1 is sent where Q^2 abar_0 goes: abar_1 + Q^2 abar_0, a
    primitive of degree 3, then maps to zero, and so does its square."""
    from spinmcg.verify import run_target

    abar1, q2abar0 = (SIGMA.gen_id((), 1), 0), (SIGMA.gen_id((2,), 0), 0)
    shared = {policy: maps.boundary(policy) for policy in maps.TAIL_POLICIES}
    monkeypatch.setattr(maps, "_BOUNDARIES", {})  # patched below, dropped after
    fresh = maps.boundary("primitive")
    honest = fresh.value
    monkeypatch.setattr(fresh, "value", lambda label: honest(q2abar0 if label == abar1 else label))
    result = run_target("cor2.7", 6)
    assert not result.passed
    assert [c.passed for c in result.checks] == [False] * 3
    assert result.checks[0].details == "3:1/2"
    monkeypatch.undo()
    for policy, kept in shared.items():
        assert maps.boundary(policy) is kept
        assert kept.value(abar1) != kept.value(q2abar0)
    assert run_target("cor2.7", 6).passed


def test_honest_injectivity_check_fails_on_zero_values(monkeypatch):
    from spinmcg.verify import run_target

    monkeypatch.setattr(PrimitiveBoundary, "value", lambda self, label: RP.zero())
    result = run_target("cor2.7", 4)
    honest = [c for c in result.checks if c.name == "honest primitive-level boundary injective"]
    assert [c.passed for c in honest] == [False]
    assert not result.passed


def rp_inf_basis_degrees(call):
    """The degrees at which the rp-inf monomials get enumerated while a
    statement runs in a fresh process (the models are shared in this one):
    the degrees that the function behind the QAlgebra.basis cache is
    called with."""
    probe = (
        "import functools\n"
        "from spinmcg.algebra import QAlgebra, get_model\n"
        "from spinmcg.betti import spin_betti\n"
        "from spinmcg.verify import run_target\n"
        "built = set()\n"
        "enumerate_basis = QAlgebra.basis.__wrapped__\n"
        "def recorded(model, degree):\n"
        "    if model is get_model('rp-inf'):\n"
        "        built.add(degree)\n"
        "    return enumerate_basis(model, degree)\n"
        "QAlgebra.basis = functools.cache(recorded)\n"
        f"{call}\n"
        "print(*sorted(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [int(d) for d in proc.stdout.split()]


def test_cor27_builds_no_even_degree_rp_inf_basis():
    """The ranks are taken from sparse rows and the canonical seed
    primitives sit in odd degrees, where primitives enumerates no
    monomials, so cor2.7 builds no rp-inf basis at all."""
    assert rp_inf_basis_degrees("assert run_target('cor2.7', 14).passed") == []


def test_primitives_and_betti_build_no_top_degree_basis():
    """primitives(n) enumerates monomials only in degree n/2, for the
    squares of even degree n: none for primitives(13), and degrees 1..6
    for spin_betti(10), which reads primitives through degree 12."""
    assert rp_inf_basis_degrees("get_model('rp-inf').primitives(13)") == []
    degrees = rp_inf_basis_degrees("spin_betti(10)")
    assert degrees == list(range(1, 7))


# ----- the honest primitive-level boundary -----

def test_honest_q_word_correction_term():
    seed = e(1) + q([1], 0)
    got = RP.honest_q_word((2,), seed)
    want = q([2], 1) + q([2, 1], 0) + e(1) * e(1) * q([1], 0)
    assert got == want
    assert RP.is_primitive(got)


def test_honest_values_primitive_and_injective():
    boundary = PrimitiveBoundary("primitive")
    for n in range(1, 10):
        image = boundary.image(n)
        assert image.dim == SIGMA.primitives(n).dim
        assert image.is_subspace_of(RP.primitives(n))


def test_honest_boundary_steenrod_natural():
    boundary = PrimitiveBoundary("primitive")
    assert boundary.naturality_failures(8) == []


@pytest.mark.parametrize("max_degree", [12, 16])
def test_naturality_scan_matches_the_per_index_oracle(max_degree):
    boundary = PrimitiveBoundary("primitive")
    assert boundary.naturality_failures(max_degree) == []
    assert naturality_failures_by_index(boundary, max_degree) == []


def test_naturality_scan_fails_on_a_perturbed_boundary_value(monkeypatch):
    """abar_3 is sent to its honest value plus that of Q^4 abar_1, another
    primitive of degree 7; the scan and cor2.7 must both catch it."""
    from spinmcg.verify import run_target

    victim = SIGMA.gen_id((), 3)
    other = SIGMA.gen_id((4,), 1)
    honest = PrimitiveBoundary.value

    def perturbed(self, label):
        value = honest(self, label)
        if label == (victim, 0):
            value = value + honest(self, (other, 0))
        return value

    monkeypatch.setattr(PrimitiveBoundary, "value", perturbed)
    boundary = PrimitiveBoundary("primitive")
    assert RP.is_primitive(boundary.value((victim, 0)))
    failures = boundary.naturality_failures(8)
    assert failures == [(((), 3), 1)]
    assert naturality_failures_by_index(boundary, 8) == failures
    result = run_target("cor2.7", 8)
    assert not result.passed
    # only the Sq-naturality check sees it
    assert [c.passed for c in result.checks] == [True] * 2 + [False]
    assert result.checks[-1].name.startswith("honest boundary commutes with Sq_*")


def test_boundary_is_one_instance_per_policy():
    assert maps.boundary("primitive") is maps.boundary("primitive")
    assert maps.boundary("zero") is maps.boundary("zero")
    assert maps.boundary("zero") is not maps.boundary("primitive")
    assert maps.boundary("zero").policy == "zero"
    assert PrimitiveBoundary("primitive") is not maps.boundary("primitive")
    with pytest.raises(ValueError):
        maps.boundary("honest")


def test_cor27_reuses_the_honest_values_of_the_betti_table(monkeypatch):
    from spinmcg.betti import spin_betti
    from spinmcg.verify import run_target

    monkeypatch.setattr(maps, "_BOUNDARIES", {})  # a fresh shared table
    calls = []
    honest_q_word = QAlgebra.honest_q_word

    def counted(self, word, x):
        calls.append(word)
        return honest_q_word(self, word, x)

    monkeypatch.setattr(QAlgebra, "honest_q_word", counted)
    spin_betti(6)
    assert calls
    calls.clear()
    assert run_target("cor2.7", 8).passed
    assert calls == []


def test_shared_boundary_keeps_only_honest_values(monkeypatch):
    """A perturbed value read through the shared boundary does not stay
    in its table: the table answers the next read with the honest value,
    and once the perturbation is undone cor2.7 passes again."""
    from spinmcg.verify import run_target

    monkeypatch.setattr(maps, "_BOUNDARIES", {})  # filled under the perturbation
    victim = SIGMA.gen_id((), 3)
    other = SIGMA.gen_id((4,), 1)
    honest = PrimitiveBoundary.value

    def perturbed(self, label):
        value = honest(self, label)
        if label == (victim, 0):
            value = value + honest(self, (other, 0))
        return value

    with monkeypatch.context() as patch:
        patch.setattr(PrimitiveBoundary, "value", perturbed)
        assert not run_target("cor2.7", 8).passed
    shared = maps.boundary("primitive")
    before = PrimitiveBoundary._honest_value.cache_info()
    kept = shared.value((victim, 0))
    after = PrimitiveBoundary._honest_value.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert kept == PrimitiveBoundary("primitive").value((victim, 0))
    assert run_target("cor2.7", 8).passed
    assert maps.boundary("primitive") is shared


def test_apply_primitive_sums_the_values_of_generator_powers():
    boundary = PrimitiveBoundary("primitive")
    gen = SIGMA.gen_id
    a0, a1 = SIGMA.gen_element((), 0), SIGMA.gen_element((), 1)
    q2, q5 = SIGMA.gen_element((2,), 0), SIGMA.gen_element((5,), 0)
    # degree 6: Q^5 abar_0 + (Q^2 abar_0)^2 + abar_1^2
    x = q5 + q2 * q2 + a1 * a1
    want = (
        boundary.value((gen((5,), 0), 0))
        + boundary.value((gen((2,), 0), 1))
        + boundary.value((gen((), 1), 1))
    )
    assert boundary.apply_primitive(x) == want
    # degree 4: abar_0^4
    assert boundary.apply_primitive(a0 * a0 * a0 * a0) == boundary.value((gen((), 0), 2))
    assert boundary.apply_primitive(SIGMA.zero()) == RP.zero()
    for bad in (a0 * a1, a0 * a0 * a0, SIGMA.unit()):
        with pytest.raises(NoSolution):
            boundary.apply_primitive(bad)


def test_formal_zero_tail_naturality_reported_not_required():
    # the formal word extension with bare leading terms need not commute
    # with the Steenrod action: with zero tails Sq^1_* fails on abar_1, and
    # with primitive tails nothing fails through degree 6
    assert steenrod_naturality_failures(formal_boundary("zero", 6), 6) == [(((), 1), 1)]
    assert steenrod_naturality_failures(formal_boundary("primitive", 6), 6) == []


# ----- independent checks of the honest (Laurent) action -----

def test_honest_action_is_cartan_multiplicative():
    # Q^s(ab) = sum Q^i a Q^j b holds for the translated action as well
    degree_pool = [
        RP.gen_element((), 1),
        RP.gen_element((1,), 0),
        RP.gen_element((), 2),
        RP.gen_element((2,), 0),
        RP.gen_element((2,), 1),
    ]
    for a in degree_pool:
        for b in degree_pool:
            ab = a * b
            for s in range(1, 7):
                lhs = RP.honest_q_word((s,), ab)
                rhs = RP.zero()
                for i in range(s + 1):
                    rhs = rhs + RP.honest_q_word((i,), a) * RP.honest_q_word(
                        (s - i,), b
                    )
                assert lhs == rhs


def test_honest_action_matches_formal_mod_decomposables():
    for x in [RP.gen_element((), 1), RP.gen_element((), 3), RP.gen_element((2,), 1)]:
        for word in [(2,), (3,), (4, 2), (5,)]:
            honest = RP.honest_q_word(word, x)
            formal = RP.q_word(word, x)
            assert RP.generator_part(honest) == RP.generator_part(formal)


def test_honest_action_halving_relations():
    # the commutation rules hold for the translated action too
    for x in [e(1) + q([1], 0), e(2), q([2], 1)]:
        d = x.degree
        for s in (1, 2, 3):
            if d % 2 == 0:
                lhs = RP.lambda_op("lambda", RP.honest_q_word((2 * s,), x))
                rhs = RP.honest_q_word((s,), RP.lambda_op("lambda", x))
                assert lhs == rhs
            else:
                lhs = RP.lambda_op("lambda'", RP.honest_q_word((2 * s,), x))
                rhs = RP.honest_q_word((s,), RP.lambda_op("lambda'", x))
                assert lhs == rhs


def test_unit_powers_cancel_against_their_inverses():
    # Q^s(u^z u^-z) = Q^s(1) = 0 for s > 0, so the Cartan sum of the two
    # Laurent expansions cancels; every term has degree s, and Q^0 doubles
    # the unit power
    shift, right_mask = RP._pair_shift, RP._right_mask
    for z in range(-3, 4):
        (square,) = RP._q_unit_power(0, z)
        assert square >> shift == 2 * z and square & right_mask == 0
        for s in range(1, 7):
            assert all(
                RP.mono_degree(c & right_mask) == s for c in RP._q_unit_power(s, z)
            )
            acc = set()
            for i in range(s + 1):
                for a in RP._q_unit_power(i, z):
                    acc.symmetric_difference_update(
                        {a + b for b in RP._q_unit_power(s - i, -z)}
                    )
            assert not acc


def test_honest_action_trivial_cases():
    assert RP.honest_q_word((), e(1)) == e(1)
    assert RP.honest_q_word((3,), RP.zero()) == RP.zero()
    assert RP.honest_q_word((3,), RP.unit()) == RP.zero()
    # connected models fall back to the plain action
    x = SIGMA.gen_element((), 0)
    assert SIGMA.honest_q_word((2,), x) == SIGMA.q_word((2,), x)


# ----- transfer and the squaring composite -----

def test_transfer_values():
    a = lambda i: B2.gen_element((), i)
    assert transfer_iota_plus_c(2) == a(1) * a(1)
    assert transfer_iota_plus_c(3) == B2.zero()
    assert transfer_iota_plus_c(0) == a(0) * a(0)


def test_theorem2_values():
    a = lambda i: B2.gen_element((), i)
    assert theorem2_composite((), 1) == a(1) * a(1)
    q3a1 = B2.gen_element((3,), 1)
    assert theorem2_composite((6,), 1) == q3a1 * q3a1
    assert theorem2_composite((), 0) == a(0) * a(0)


def test_theorem2_rejects_odd_words():
    with pytest.raises(NonDoubledWord):
        theorem2_composite((3,), 1)
    with pytest.raises(ValueError):
        theorem2_composite((2,), 1)  # e(I) = 2 is not > 4


def test_theorem2_agrees_with_dyer_lashof_route():
    for gen in doubled_t3_generators(10):
        word, i = gen
        value = theorem2_composite(word, i)
        route = B2.q_word(word, transfer_iota_plus_c(2 * i))
        assert value == route


def test_kernel_poincare():
    dims = kernel_poincare(12)
    assert dims == [1, 0, 1, 0, 3, 0, 5, 0, 10, 0, 17, 0, 32]
    assert all(dims[n] == 0 for n in range(1, 13, 2))
    # the degree-1 generator of the target squares into degree 2
    assert dims[2] == 1
    a1sq = B2.gen_element((), 1) * B2.gen_element((), 1)
    basis4 = B2.basis(4)
    assert all(m in basis4 for m in a1sq.monos)
    assert dims[4] == 3


# ----- the cokernel data -----

def test_cokernel_policy_independent():
    prim = cokernel_generators(7, "primitive")
    zero = cokernel_generators(7, "zero")
    assert prim.g_dims == zero.g_dims
    assert prim.kernel_algebra_dims == zero.kernel_algebra_dims
    # the boundary image has the source's primitive dimension under both
    for policy in ("primitive", "zero"):
        boundary = PrimitiveBoundary(policy)
        for n in range(1, 10):
            assert boundary.image(n).dim == SIGMA.primitives(n).dim


def test_cokernel_dimension_formula():
    # dim of the dual kernel in degree n is dim PH_n - dim PH_n(source)
    cokernel_generators(6, "primitive")
    boundary = PrimitiveBoundary("primitive")
    for n in range(1, 9):
        im_dim = boundary.image(n).dim
        src_dim = SIGMA.primitives(n).dim
        assert im_dim == src_dim
        assert tower().model.primitives(n).dim - im_dim >= 0


def test_generator_dims_against_leading_term_formula():
    # independent route: with K = Ker(lambda'), Im the boundary image and
    # Xi the primitive squares, dim G_(n-2) = dim Xi_n + dim(K-bar + Im-bar)
    # - dim Im_n, where the bars are spans of indecomposable parts.  This
    # only uses Xi <= K, squaring injectivity, and PH/Xi -> QH injective.
    from oracles import rref
    from spinmcg.algebra import Element

    max_degree = 7
    upstairs = max_degree + 2
    report = cokernel_generators(max_degree, "primitive")
    boundary = PrimitiveBoundary("primitive")
    model = boundary.target

    def qh_span(vectors, n):
        gens = model.generators_in_degree(n)
        pos = {g: i for i, g in enumerate(gens)}
        rows = []
        for vec in vectors:
            row = 0
            for g in model.generator_part(Element(model, vec)):
                row |= 1 << pos[g]
            rows.append(row)
        return rref(rows)

    for n in range(3, upstairs + 1):
        k_sub = tower().klam(n)
        im = boundary.image(n)
        xi_dim = model.primitives(n // 2).dim if n % 2 == 0 else 0
        kbar = qh_span(k_sub.basis, n)
        imbar = qh_span(im.basis, n)
        predicted = xi_dim + len(rref(kbar + imbar)) - im.dim
        assert predicted == report.g_dims[n - 2]


def test_cokernel_raises_when_the_boundary_image_loses_a_vector(monkeypatch):
    from spinmcg import gf2
    from spinmcg.errors import NoSolution

    image = PrimitiveBoundary.image

    def short_image(self, degree):
        full = image(self, degree)
        if degree != 5:
            return full
        return gf2.F2Subspace(full.basis[1:], full.pivots[1:])

    monkeypatch.setattr(PrimitiveBoundary, "image", short_image)
    with pytest.raises(NoSolution, match="not the source.s 2 primitives, in degree 5"):
        cokernel_generators(4)


def test_cokernel_squaring_closure_check_can_fail(monkeypatch):
    """On a fresh tower, one degree-8 halving row at a pivot that a vector of
    Ker(lambda') ∩ Im carries gains a monomial outside that space in
    degree 5: the generating space then leaves itself under squaring at
    model degree 3, and not below."""
    from spinmcg import loops
    from spinmcg.errors import NotClosedUnderSquaring

    monkeypatch.setattr(loops, "_TOWERS", {})
    fresh = tower()
    cap = {
        n: gf2.subspace_intersection(fresh.klam(n), maps.boundary("primitive").image(n))
        for n in (5, 8)
    }
    cokernel_generators(6)
    table, pivots = fresh.halving(8), fresh.model.primitives(8).pivots
    i = next(i for i, p in enumerate(pivots) if p in cap[8].basis[0])
    stray = next(m for m in RP.basis(5) if not cap[5].contains({m}))
    patched = table[:i] + (table[i] ^ {stray},) + table[i + 1:]
    original = fresh.halving
    monkeypatch.setattr(fresh, "halving", lambda n: patched if n == 8 else original(n))
    cokernel_generators(5)
    with pytest.raises(NotClosedUnderSquaring) as caught:
        cokernel_generators(6)
    assert str(caught.value) == "squaring leaves the generating space at model degree 3"


def test_cokernel_raises_when_the_boundary_image_leaves_the_primitives(monkeypatch):
    image = PrimitiveBoundary.image

    def stray_image(self, degree):
        # e_2 is not primitive: its reduced coproduct is e_1 (x) e_1
        return RP.span([e(2).monos]) if degree == 2 else image(self, degree)

    monkeypatch.setattr(PrimitiveBoundary, "image", stray_image)
    with pytest.raises(NoSolution) as caught:
        cokernel_generators(1)
    assert str(caught.value) == "boundary image leaves the primitives in degree 2"


def plain_seeds(monkeypatch):
    """The plain base class e_(2r+1) as the seed of abar_r, without its
    decomposable correction, read by a fresh boundary of each policy."""
    monkeypatch.setattr(maps, "partial_on_generator", lambda r, policy: e(2 * r + 1))
    monkeypatch.setattr(maps, "_BOUNDARIES", {})


def test_betti_refuses_a_seed_that_is_not_primitive(monkeypatch):
    # the Betti route checks each honest value once, by image ⊆ PH_n
    plain_seeds(monkeypatch)
    from spinmcg.betti import spin_betti

    with pytest.raises(NoSolution) as caught:
        spin_betti(4)
    assert str(caught.value) == "boundary image leaves the primitives in degree 3"


def test_cor27_refuses_a_seed_that_is_not_primitive(monkeypatch):
    # cor2.7 checks psi-bar of every generator value it reads
    plain_seeds(monkeypatch)
    from spinmcg.verify import run_target

    with pytest.raises(NoSolution) as caught:
        run_target("cor2.7", 4)
    assert str(caught.value) == "honest value of abar_1 is not primitive"


def test_source_labels_refuse_a_primitive_count_mismatch(monkeypatch):
    # a primitive solver that finds nothing in the source
    monkeypatch.setattr(QAlgebra, "primitives", lambda model, degree: gf2.F2Subspace((), ()))
    partial = PrimitiveBoundary("primitive")
    with pytest.raises(NoSolution) as caught:
        partial.source_labels(1)
    assert str(caught.value) == "source primitive count mismatch in degree 1"
