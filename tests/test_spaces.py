import math

import pytest

from spinmcg import spaces


def lambda_base(kind, space, index):
    """Degree-halving operation on a base class; zero on parity mismatch."""
    k = spaces.lambda_sq_index(kind, spaces.class_degree(space, index))
    if k is None:
        return {}
    return spaces.steenrod_dual(space, k, index)


def test_class_degrees():
    assert spaces.class_degree("rp-inf", 3) == 3
    assert spaces.class_degree("bspin2", 3) == 6
    assert spaces.class_degree("bspin3", 2) == 8
    assert spaces.class_degree("sigma-cp-inf", 2) == 5


def test_lucas_binomials_match_math_comb():
    for n in range(0, 40):
        for k in range(0, 40):
            expected = (math.comb(n, k) % 2) if k <= n else 0
            assert spaces.binom_mod2(n, k) == expected
    assert spaces.binom_mod2(-1, 0) == 0
    assert spaces.binom_mod2(2, -1) == 0


def test_steenrod_dual_examples():
    # Sq^2_* e_4 = C(2,2) e_2 = e_2
    assert spaces.steenrod_dual("rp-inf", 2, 4) == {2: 1}
    # Sq^2_* e_5 = C(3,2) e_3 = e_3
    assert spaces.steenrod_dual("rp-inf", 2, 5) == {3: 1}
    # Sq^1_* e_4 = C(3,1) e_3 = e_3
    assert spaces.steenrod_dual("rp-inf", 1, 4) == {3: 1}


def test_steenrod_dual_identity_and_vanishing():
    for space, idx in [("rp-inf", 5), ("bspin2", 3), ("bspin3", 2), ("sigma-cp-inf", 4)]:
        assert spaces.steenrod_dual(space, 0, idx) == {idx: 1}
    assert spaces.steenrod_dual("bspin2", 1, 3) == {}
    assert spaces.steenrod_dual("bspin3", 2, 3) == {}
    assert spaces.steenrod_dual("sigma-cp-inf", 3, 3) == {}


def test_steenrod_dual_lowers_by_k():
    for space in spaces.SPACES:
        for k in range(1, 13):
            for idx in spaces.indices_up_to(space, 12):
                for tgt, coeff in spaces.steenrod_dual(space, k, idx).items():
                    assert coeff == 1
                    assert (
                        spaces.class_degree(space, idx) - spaces.class_degree(space, tgt)
                        == k
                    )


def test_halving_relations_on_base_classes():
    # lambda e_{2r} = e_r ; lambda' e_{2r-1} = r e_r ; lambda'' e_{2r-2} = C(r,2) e_r
    for r in range(0, 7):
        assert lambda_base("lambda", "rp-inf", 2 * r) == {r: 1}
    for r in range(1, 7):
        expected = {r: 1} if r % 2 else {}
        assert lambda_base("lambda'", "rp-inf", 2 * r - 1) == expected
    for r in range(1, 8):
        expected = {r: 1} if spaces.binom_mod2(r, 2) else {}
        assert lambda_base("lambda''", "rp-inf", 2 * r - 2) == expected


def test_lambda_specific_values():
    assert lambda_base("lambda", "rp-inf", 4) == {2: 1}         # lambda e_4 = e_2
    assert lambda_base("lambda'", "rp-inf", 7) == {}            # 4 e_4 = 0
    assert lambda_base("lambda''", "rp-inf", 4) == {3: 1}       # C(3,2) e_3


def test_lambda_parity_mismatch_is_zero():
    assert lambda_base("lambda", "rp-inf", 3) == {}
    assert lambda_base("lambda'", "rp-inf", 4) == {}


def test_unknown_space_rejected():
    with pytest.raises(ValueError):
        spaces.class_degree("cp-inf", 1)
