"""Dyer-Lashof words: admissibility, excess, Adem pairs, generator words.

A word I = (i_1, ..., i_k) of positive integers is admissible when
i_j <= 2 i_{j+1} for consecutive entries.  The excess e(I) = i_1 - (i_2 +
... + i_k) controls which applications Q^I x are polynomial generators:
the generators used here require e(I) strictly greater than the degree
of the base class.  Index 0 never occurs in a word; degree-zero
components are handled by the algebra layer.
"""

from __future__ import annotations

import math
from functools import cache
from typing import FrozenSet, Iterator, List, Tuple

from .spaces import binom_mod2, class_degree, indices_up_to

Word = Tuple[int, ...]


def excess(word: Word) -> float:
    """i_1 - (i_2 + ... + i_k); +inf for the empty word."""
    if not word:
        return math.inf
    return word[0] - sum(word[1:])


def is_admissible(word: Word) -> bool:
    if any(i <= 0 for i in word):
        return False
    return all(a <= 2 * b for a, b in zip(word, word[1:]))


@cache
def adem_word(r: int, s: int) -> FrozenSet[Word]:
    """Rewrite the inadmissible pair Q^r Q^s (r > 2s) as admissible pairs.

    Q^r Q^s = sum_i C(i-s-1, 2i-r) Q^(r+s-i) Q^i over F2.
    """
    if r <= 2 * s:
        raise ValueError("pair already admissible")
    out = set()
    for i in range((r + 1) // 2, r - s):
        if binom_mod2(i - s - 1, 2 * i - r):
            pair = (r + s - i, i)
            out.symmetric_difference_update({pair})
    return frozenset(out)


@cache
def words_of_weight(weight: int) -> Tuple[Word, ...]:
    """All admissible words of exactly this weight, built once per process.

    Weight w holds (w,) and every (i,) + t with t of weight w - i and
    i <= 2 t[0]; the tails come from the lower weights' tuples.
    """
    return tuple(words_of_excess(weight, 2 - weight))


def words_of_excess(weight: int, least: int) -> Iterator[Word]:
    """Admissible words of exactly this weight with excess >= least.

    The excess of (i,) + t is 2i - weight, so the bound is a lower bound
    on the first entry i; the tails are read off the memoized tuples of
    the lower weights.
    """
    if weight < 1:
        return
    first = max(1, -(-(weight + least) // 2))
    for i in range(first, weight):
        for tail in words_of_weight(weight - i):
            if i <= 2 * tail[0]:
                yield (i,) + tail
    if first <= weight:
        yield (weight,)


def generator_words(space: str, degree: int) -> List[Tuple[Word, int]]:
    """(word, index) of every Q^I x of exactly this degree with e(I) > deg(x),
    in (index, word) order."""
    out = []
    for index in indices_up_to(space, degree):
        base_deg = class_degree(space, index)
        found = sorted(words_of_excess(degree - base_deg, base_deg + 1))
        if base_deg == degree:
            found.insert(0, ())
        out.extend((word, index) for word in found)
    return out

