import json

import pytest

from spinmcg.verify import TARGETS, Check, TargetResult, run_target


def test_all_targets_pass_at_eight():
    for target in TARGETS:
        result = run_target(target, 8)
        assert result.passed, result.to_text()


def test_json_round_trip():
    result = run_target("lemma3.6", 8)
    blob = json.loads(result.to_json())
    assert blob["target"] == "lemma3.6"
    assert blob["passed"] is True
    assert blob["fail_count"] == 0
    assert blob["pass_count"] == len(blob["checks"])


def test_text_rendering():
    result = run_target("prop3.10", 8)
    text = result.to_text()
    assert text.startswith("[PASS] prop3.10 (degrees <= 8): 7 checks passed, 0 failed\n")
    assert "p_(2,1) + p_3" in text


def test_no_check_is_not_a_pass():
    # every target refuses a degree at which it would run no check, so the
    # empty result is built by hand
    with pytest.raises(ValueError, match="lemma3.6 needs max degree >= 2"):
        run_target("lemma3.6", -3)
    result = TargetResult("lemma3.6", -3, ())
    assert result.counts() == (0, 0)
    assert not result.passed
    assert json.loads(result.to_json())["passed"] is False
    assert result.to_text().split("\n")[0] == (
        "[FAIL] lemma3.6 (degrees <= -3): 0 checks passed, 0 failed"
    )


def test_reported_degree_is_the_degree_checked():
    # thm3 and thm4 run at the requested degree past the default working
    # range; prop3.10 checks degrees 3 and 4 whatever the request
    thm3 = run_target("thm3", 14)
    assert thm3.max_degree == 14
    assert [(c.name, c.passed) for c in thm3.checks] == [("once-looped model polynomial", True)]
    assert run_target("thm4", 14).max_degree == 14
    assert run_target("prop3.10", 1).max_degree == 4
    assert run_target("thm3", 8).max_degree == 8
    assert run_target("prop3.10", 6).max_degree == 6


def test_cor27_checks_sq_naturality_through_the_requested_degree():
    result = run_target("cor2.7", 12)
    names = [c.name for c in result.checks]
    assert "honest boundary commutes with Sq_* (degrees <= 12)" in names


def test_thm4_checks_that_lambda_second_keeps_ker_lambda_prime(monkeypatch):
    from spinmcg import loops
    from spinmcg.loops import LoopTower

    monkeypatch.setattr(loops, "_TOWERS", {})  # a fresh shared table
    seen = []
    original = LoopTower.check_klam_stable

    def spy(tower, max_degree):
        seen.append(max_degree)
        return original(tower, max_degree)

    monkeypatch.setattr(LoopTower, "check_klam_stable", spy)
    assert run_target("thm4", 8).passed
    assert seen == [8]


def test_thm3_fails_when_lambda_prime_misses_a_primitive(monkeypatch):
    # zero the image of one basis vector of PH_5 under lambda', one whose
    # image no other row of the degree-5 table spans
    from spinmcg import loops
    from spinmcg.loops import LoopTower

    monkeypatch.setattr(loops, "_TOWERS", {})  # a fresh shared table
    original = LoopTower.halving

    def drop_row(tower, n):
        rows = original(tower, n)
        return (frozenset(),) + rows[1:] if n == 5 else rows

    assert run_target("thm3", 12).passed
    monkeypatch.setattr(LoopTower, "halving", drop_row)
    result = run_target("thm3", 12)
    assert [(c.name, c.passed) for c in result.checks] == [
        ("once-looped model polynomial", False)
    ]


def test_unknown_target():
    with pytest.raises(KeyError):
        run_target("lemma9.9", 8)


def test_every_interface_target_exists():
    assert set(TARGETS) == {
        "lemma3.6", "lemma3.7", "prop3.8", "prop3.9", "prop3.10",
        "cor2.7", "thm2", "thm3", "thm4", "cor1.8",
    }


def test_relation_without_instance_is_not_a_pass():
    # at degree 0 none of the five relations has an instance: a usage error
    with pytest.raises(ValueError, match="lemma3.7 needs max degree >= 1"):
        run_target("lemma3.7", 0)
    # at degree 1 only relation (11), on e_0, has one
    result = run_target("lemma3.7", 1)
    assert result.passed
    assert [c.name for c in result.checks] == ["relation (11)"]
    assert len(result.notes) == 4
    # at degree 4 relation (12) has none; it is noted, not counted
    result = run_target("lemma3.7", 4)
    assert result.passed
    assert "relation (12)" not in [c.name for c in result.checks]
    assert result.notes == ("relation (12) has no instance in degrees <= 4",)
    assert "0 instances" not in result.to_text()


def test_doubling_formula_without_instance_is_not_a_pass():
    with pytest.raises(ValueError, match="prop3.8 needs max degree >= 2"):
        run_target("prop3.8", 1)
    # lambda e_2 = e_1 and lambda Q^2 e_0 = Q^1 e_0 are the first instances
    result = run_target("prop3.8", 2)
    assert result.passed
    assert result.checks[-1] == Check(
        "doubling formula lambda Q^2I e_2r = Q^I e_r", True, "2 instances"
    )


def test_thm2_checks_the_first_odd_class_at_its_least_degree():
    with pytest.raises(ValueError, match="thm2 needs max degree >= 2"):
        run_target("thm2", 1)
    result = run_target("thm2", 2)
    assert result.passed
    assert "transfer kills odd classes" in [c.name for c in result.checks]


def test_cor27_refuses_a_degree_with_no_boundary_class():
    with pytest.raises(ValueError, match="cor2.7 needs max degree >= 1"):
        run_target("cor2.7", 0)
    result = run_target("cor2.7", 1)
    assert result.passed
    assert result.checks[0] == Check("boundary injective on indecomposables", True, "1:1/1")


def test_prop39_refuses_degrees_below_its_first_surjectivity_check():
    # below degree 3 prop3.9 would check only the identity in degree 1
    for degree in (0, 1, 2):
        with pytest.raises(ValueError, match="prop3.9 needs max degree >= 3"):
            run_target("prop3.9", degree)
    result = run_target("prop3.9", 3)
    assert result.max_degree == 3
    assert result.to_text().split("\n")[0] == (
        "[PASS] prop3.9 (degrees <= 3): 2 checks passed, 0 failed"
    )
    assert result.checks[-1] == Check("lambda' onto primitives 3 -> 2", True, "image dim 2 of 2")


def test_identity_only_degrees_are_refused():
    # below degree 2 every lemma3.6 instance is Sq^0_*, and at degree 0
    # cor1.8 would check only the row 1 <= 1 that the table forces
    for target, degree, least in (("lemma3.6", 0, 2), ("lemma3.6", 1, 2), ("cor1.8", 0, 1)):
        with pytest.raises(ValueError, match=f"{target} needs max degree >= {least}"):
            run_target(target, degree)
    assert [c.name for c in run_target("lemma3.6", 2).checks][1] == "lambda e_2 = e_1"
    assert run_target("cor1.8", 1).checks == (
        Check("degree 0: 1 <= 1", True), Check("degree 1: 1 <= 3", True),
    )


def test_cor18_clamps_to_the_betti_ceiling():
    from spinmcg.betti import BETTI_CEILING
    from spinmcg.verify import verify_cor18

    result = verify_cor18(BETTI_CEILING + 3)
    assert result.max_degree == BETTI_CEILING
    assert result.checks[-1].name.startswith(f"degree {BETTI_CEILING}:")


def _thm2_checks(monkeypatch, name, fake):
    from spinmcg import verify

    monkeypatch.setattr(verify, name, fake)
    result = run_target("thm2", 8)
    assert result.passed is False
    return [(c.name, c.passed, c.details) for c in result.checks]


def test_thm2_fails_on_an_unsquared_composite(monkeypatch):
    from spinmcg.algebra import get_model

    b2 = get_model("bspin2")

    def unsquared(word, i):
        return b2.q_word(tuple(s // 2 for s in word), b2.gen_element((), i))

    assert _thm2_checks(monkeypatch, "theorem2_composite", unsquared) == [
        ("transfer value on even classes is the square", True, ""),
        ("transfer kills odd classes", True, ""),
        ("composite maps Q^2I b_i to (Q^I a_i)^2", False,
         "Dyer-Lashof route differs at Q^() b_0; Dyer-Lashof route differs at Q^(2,) b_0; "
         "Dyer-Lashof route differs at Q^(4,) b_0"),
        ("composite spans the squared generators degreewise", True, ""),
    ]


def test_thm2_fails_on_a_transfer_with_an_extra_term(monkeypatch):
    from spinmcg.algebra import get_model
    from spinmcg.maps import transfer_iota_plus_c

    b2 = get_model("bspin2")

    def extra(i):
        return transfer_iota_plus_c(i) + b2.product(b2.gen_element((), 0), b2.gen_element((), i))

    assert _thm2_checks(monkeypatch, "transfer_iota_plus_c", extra) == [
        ("transfer value on even classes is the square", False,
         "failures: ['a_0', 'a_2', 'a_4']"),
        ("transfer kills odd classes", False, "failures: ['a_1', 'a_3']"),
        ("composite maps Q^2I b_i to (Q^I a_i)^2", False,
         "Dyer-Lashof route differs at Q^() b_0; Dyer-Lashof route differs at Q^(2,) b_0; "
         "Dyer-Lashof route differs at Q^(4,) b_0"),
        ("composite spans the squared generators degreewise", True, ""),
    ]


def test_thm2_fails_when_a_doubled_generator_is_missing(monkeypatch):
    from spinmcg.maps import doubled_t3_generators

    def drop_last(max_degree):
        return doubled_t3_generators(max_degree)[:-1]

    assert _thm2_checks(monkeypatch, "doubled_t3_generators", drop_last) == [
        ("transfer value on even classes is the square", True, ""),
        ("transfer kills odd classes", True, ""),
        ("composite maps Q^2I b_i to (Q^I a_i)^2", True, ""),
        ("composite spans the squared generators degreewise", False, "degree 8 span mismatch"),
    ]


def _lambda_zero_on(monkeypatch, word, index):
    """lambda_op with the plain lambda of one rp-inf element set to zero."""
    from spinmcg.algebra import QAlgebra, get_model

    bad = get_model("rp-inf").gen_element(word, index)
    original = QAlgebra.lambda_op

    def perturbed(model, kind, x):
        if kind == "lambda" and x == bad:
            return model.zero()
        return original(model, kind, x)

    monkeypatch.setattr(QAlgebra, "lambda_op", perturbed)


def test_lemma37_fails_when_lambda_breaks_one_relation(monkeypatch):
    # Q^2 e_2 = e_2^2, whose lambda is e_1^2 = Q^1 lambda e_2
    _lambda_zero_on(monkeypatch, (2,), 2)
    result = run_target("lemma3.7", 4)
    assert result.passed is False
    assert [(c.name, c.passed, c.details) for c in result.checks] == [
        ("relation (8)", False, "4 instances, 1 failures: ['(8) Q^2 e_2']"),
        ("relation (10)", True, "2 instances"),
        ("relation (11)", True, "4 instances"),
        ("relation (13)", True, "8 instances"),
    ]


def test_lemma37_reports_each_relation_with_its_own_failures(monkeypatch):
    # lambda e_2 = e_1 breaks three relations at once; each lists only its own
    _lambda_zero_on(monkeypatch, (), 2)
    result = run_target("lemma3.7", 6)
    assert [(c.name, c.passed, c.details) for c in result.checks] == [
        ("relation (8)", False, "10 instances, 2 failures: ['(8) Q^2 e_2', '(8) Q^4 e_2']"),
        ("relation (10)", True, "8 instances"),
        ("relation (11)", False, "10 instances, 1 failures: ['(11) Q^3 e_2']"),
        ("relation (12)", False, "3 instances, 1 failures: ['(12) Q^4 e_2']"),
        ("relation (13)", True, "19 instances"),
    ]


def test_prop38_fails_when_lambda_misses_a_doubled_generator(monkeypatch):
    # lambda e_2 = e_1, which both the rank in degree 2 and the doubling
    # formula read
    _lambda_zero_on(monkeypatch, (), 2)
    result = run_target("prop3.8", 4)
    assert result.passed is False
    assert [(c.name, c.passed, c.details) for c in result.checks] == [
        ("lambda onto indecomposables 2 -> 1", False, "rank 1 of 2"),
        ("lambda onto indecomposables 4 -> 2", True, "rank 2 of 2"),
        ("doubling formula lambda Q^2I e_2r = Q^I e_r", False,
         "4 instances, 1 failures: ['e_2']"),
    ]
