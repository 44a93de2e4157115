"""Acceptance suite: one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the criterion exactly at its stated tolerance; everything here
is exact arithmetic over the two-element field, so tolerances are
equalities and inequalities of integers.
"""

import time

from spinmcg.algebra import get_model
from spinmcg.betti import spin_betti
from spinmcg.loops import PrimitiveLabel, exterior_dims, tower
from spinmcg.maps import cokernel_generators
from spinmcg.verify import TARGETS, run_target

from oracles import AFunctorPresentation, brute_dims, formal_ranks

MAX = 12


def report(number: int, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status}{tail}")
    assert passed


def test_criterion_01_base_halving_suite():
    t0 = time.monotonic()
    result = run_target("lemma3.6", MAX)
    elapsed = time.monotonic() - t0
    report(1, result.passed and elapsed < 1.0, f"{len(result.checks)} identities, {elapsed:.2f}s")


def test_criterion_02_word_relation_suite():
    t0 = time.monotonic()
    result = run_target("lemma3.7", MAX)
    elapsed = time.monotonic() - t0
    instances = "; ".join(c.details for c in result.checks)
    report(2, result.passed and elapsed < 60.0, f"{instances}, {elapsed:.1f}s")


def test_criterion_03_surjectivity():
    r38 = run_target("prop3.8", MAX)
    r39 = run_target("prop3.9", MAX)
    report(3, r38.passed and r39.passed)


def test_criterion_04_halving_defect_witness():
    result = run_target("prop3.10", MAX)
    model = get_model("rp-inf", reduced=True)
    report(4, result.passed and model.primitives(4).dim == 2, "witness p_(2,1) + p_3")


def test_criterion_05_boundary_injective():
    result = run_target("cor2.7", MAX)
    # the formal map's dense per-monomial ranks, full and on primitives
    both = all(
        r == d
        for policy in ("zero", "primitive")
        for ranks in formal_ranks(policy, MAX)
        for _, r, d in ranks
    )
    report(5, result.passed and both)


def test_criterion_06_transfer_and_composite():
    result = run_target("thm2", MAX)
    report(6, result.passed)


def test_criterion_07_dimension_laws_and_nonpolynomiality():
    r3 = run_target("thm3", MAX)
    r4 = run_target("thm4", MAX)
    # square-collapse dimension law at the full envelope on explicit
    # presentations with generators through degree 12
    synthetic = [
        AFunctorPresentation(tuple(range(1, 13))),
        AFunctorPresentation((1, 2, 4, 8), {0: (1,), 1: (2,), 2: (3,)}),
        AFunctorPresentation((3, 5, 6, 12), {0: (2,), 2: (3,)}),
    ]
    laws = all(
        exterior_dims(p.degrees, MAX) == brute_dims(p.degrees, p.xi, MAX) for p in synthetic
    )
    # the exhibited square-zero generator: dual of the degree-3 witness,
    # double desuspension (the single-desuspension indexing is degree 2)
    based = tower(reduced=True)
    poly = based.polynomiality(2, 6)
    wanted = based.canonical(PrimitiveLabel((), 3)) + based.canonical(
        PrimitiveLabel((2,), 1)
    )
    witness = (
        not poly.polynomial
        and any(
            w.model_degree == 1
            and w.model_degree + 2 - 1 == 2  # suspension indexing
            and w.witness == wanted
            for w in poly.square_zero
        )
    )
    report(7, r3.passed and r4.passed and laws and witness,
           "square-zero generator exhibited (degree 2 in suspension indexing)")


def test_criterion_08_kuenneth_bound():
    result = run_target("cor1.8", 10)
    # each check is named "degree d: dim <= bound"
    pairs = [c.name.split(": ")[1].split(" <= ") for c in result.checks]
    margins = [int(bound) - int(dim) for dim, bound in pairs]
    report(8, result.passed and len(margins) == 11, f"margins {margins[:6]}...")


def test_criterion_09_cross_policy_determinism():
    betti_prim = spin_betti(10, "primitive")
    betti_zero = spin_betti(10, "zero")
    cok_prim = cokernel_generators(8, "primitive")
    cok_zero = cokernel_generators(8, "zero")
    same = (
        betti_prim.rows == betti_zero.rows
        and cok_prim.g_dims == cok_zero.g_dims
        and cok_prim.kernel_algebra_dims == cok_zero.kernel_algebra_dims
    )
    report(9, same, f"betti {[v for _, v in betti_prim.rows]}")


def test_criterion_10_performance_envelope():
    t0 = time.monotonic()
    all_pass = all(run_target(t, MAX).passed for t in TARGETS)
    suite_time = time.monotonic() - t0
    t1 = time.monotonic()
    spin_betti(10, "primitive")
    betti_time = time.monotonic() - t1
    report(
        10,
        all_pass and suite_time <= 300.0 and betti_time <= 60.0,
        f"suite {suite_time:.1f}s <= 300s, betti(10) {betti_time:.1f}s <= 60s",
    )
