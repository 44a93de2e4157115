import itertools
import math

from oracles import adem_normalize_word, admissible_words
from spinmcg import words
from spinmcg.algebra import get_model
from spinmcg.spaces import SPACES, class_degree, has_degree_zero_class, indices_up_to


def test_excess_examples():
    assert words.excess((2, 1)) == 1
    assert words.excess(()) == math.inf
    assert words.excess((4, 2, 1)) == 1


def test_admissibility():
    assert words.is_admissible((2, 1))
    assert words.is_admissible((3, 2))
    assert not words.is_admissible((3, 1))
    assert not words.is_admissible((0,))
    assert words.is_admissible(())


def test_adem_pair_q5_q1():
    # Q^5 Q^1 = Q^3 Q^3 (single surviving summand)
    assert words.adem_word(5, 1) == frozenset({(3, 3)})


def test_adem_pair_q3_q1_vanishes():
    assert words.adem_word(3, 1) == frozenset()


def test_adem_normalize_leaves_admissible_alone():
    assert adem_normalize_word((2, 1)) == frozenset({(2, 1)})


def test_adem_normalize_degree_preserving_and_admissible():
    for word in [(5, 1), (7, 2), (9, 1, 1), (6, 2, 1), (10, 3)]:
        total = sum(word)
        for out in adem_normalize_word(word):
            assert words.is_admissible(out)
            assert sum(out) == total
            # renormalizing is the identity
            assert adem_normalize_word(out) == frozenset({out})


def rendered(space, max_degree):
    """Text of every generator of degree <= max_degree, as basis prints it."""
    model = get_model(space)
    return [
        model.render_mono(model.gen_id(word, index))
        for d in range(max_degree + 1)
        for word, index in words.generator_words(space, d)
    ]


def test_generator_set_rp_degree_1():
    got = set(rendered("rp-inf", 1))
    assert got == {"e_0", "e_1", "Q^1 e_0"}


def test_generator_set_rp_degree_2():
    got = set(rendered("rp-inf", 2))
    assert got == {"e_0", "e_1", "Q^1 e_0", "e_2", "Q^2 e_0"}


def test_generator_set_bspin3_degree_3():
    got = set(rendered("bspin3", 3))
    assert got == {"b_0", "Q^1 b_0", "Q^2 b_0", "Q^3 b_0", "Q^2 Q^1 b_0"}


def test_generator_set_deterministic_and_monotone():
    def listed(top):
        return [wi for d in range(top + 1) for wi in words.generator_words("rp-inf", d)]

    first = listed(9)
    second = listed(9)
    assert first == second
    smaller = set(listed(7))
    larger = set(first)
    assert smaller <= larger


def test_generator_counts_hand_enumerated():
    counts = {d: len(words.generator_words("rp-inf", d)) for d in range(1, 6)}
    assert counts[1] == 2  # e_1, Q^1 e_0
    assert counts[2] == 2  # e_2, Q^2 e_0
    assert counts[3] == 4  # e_3, Q^2 e_1, Q^3 e_0, Q^2 Q^1 e_0
    assert counts[4] == 3  # e_4, Q^3 e_1, Q^4 e_0
    assert counts[5] == 5  # e_5, Q^4 e_1, Q^3 e_2, Q^5 e_0, Q^3 Q^2 e_0


def test_rendering():
    model = get_model("rp-inf")
    assert model.render_mono(model.gen_id((4, 2), 1)) == "Q^4 Q^2 e_1"


def compositions(n):
    """All words of positive integers with sum n."""
    for cuts in itertools.product([0, 1], repeat=max(n - 1, 0)):
        word, part = [], 1
        for cut in cuts:
            if cut:
                word.append(part)
                part = 1
            else:
                part += 1
        yield tuple(word + [part])


def test_admissible_words_match_brute_force():
    for budget in range(-1, 13):
        got = list(admissible_words(budget))
        want = {
            w for n in range(1, budget + 1) for w in compositions(n)
            if words.is_admissible(w)
        }
        assert len(got) == len(set(got))
        assert set(got) == want


def test_generators_match_brute_force_through_degree_20():
    # a generator word has excess > deg(x) >= 0, so it is (i,) + t with
    # i > |t| and |t| <= 9 below degree 21: filter every such candidate by
    # the definitions of admissibility and excess
    tails = [()] + [t for n in range(1, 10) for t in compositions(n)]
    top = 20
    for space in SPACES:
        want = {d: [] for d in range(top + 1)}
        for index in indices_up_to(space, top):
            base = class_degree(space, index)
            want[base].append(((), index))
            for t in tails:
                for i in range(sum(t) + 1, top - base - sum(t) + 1):
                    word = (i,) + t
                    if words.is_admissible(word) and words.excess(word) > base:
                        want[base + sum(word)].append((word, index))
        for d in range(top + 1):
            want[d].sort(key=lambda wi: (wi[1], wi[0]))
            assert words.generator_words(space, d) == want[d], (space, d)
        # the model's generator table, in the order basis lists it
        model = get_model(space)
        ids = model.generators(top)
        if has_degree_zero_class(space):
            ids = [model.gen_id((), 0)] + ids
        listed = [model.gen_word_index(g) for g in ids]
        assert listed == [wi for d in range(top + 1) for wi in want[d]]
