"""Word-level oracles that more than one test module checks the engine against."""

from functools import lru_cache

from spinmcg.words import adem_word, is_admissible, words_of_weight


def admissible_words(budget):
    """All admissible nonempty words of total degree <= budget."""
    for weight in range(1, budget + 1):
        yield from words_of_weight(weight)


@lru_cache(maxsize=None)
def adem_normalize_word(word):
    """Normal form of a word as an F2 set of admissible words.

    Operates purely at the operation level (no instability); innermost
    inadmissible pairs are rewritten first.
    """
    if is_admissible(word):
        return frozenset({word})
    # rightmost (innermost) inadmissible pair
    pos = max(j for j in range(len(word) - 1) if word[j] > 2 * word[j + 1])
    head, (r, s), tail = word[:pos], word[pos:pos + 2], word[pos + 2:]
    result = set()
    for pair in adem_word(r, s):
        for w in adem_normalize_word(head + pair + tail):
            result.symmetric_difference_update({w})
    return frozenset(result)
