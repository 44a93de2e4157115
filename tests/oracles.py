"""Word-level oracles that more than one test module checks the engine against."""

from functools import lru_cache

from spinmcg import gf2
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


def sparse_combine(combo, rows):
    """XOR of the sparse rows (sets of column keys) that combo selects:
    bit i selects rows[i]."""
    out = set()
    while combo:
        low = combo & -combo
        out.symmetric_difference_update(rows[low.bit_length() - 1])
        combo ^= low
    return frozenset(out)


def cartan_by_factors(model, gen_apply, total, mono, *, q):
    """Cartan formula one factor copy at a time (a power g^m is m factors).

    Sums, over the splittings of total into one index per factor copy, the
    products of gen_apply(index, factor); on the Q side (q=True) a factor's
    index starts at its degree.  No squaring shortcut and no memo.
    """
    if not mono:
        return frozenset({0}) if total == 0 else frozenset()
    state = {0: {0}}
    for g in model.factors(mono):
        nxt = {}
        low = model.gen_degree(g) if q else 0
        for spent, partial in state.items():
            for i in range(low, total - spent + 1):
                piece = gen_apply(i, g)
                if not piece:
                    continue
                bucket = nxt.setdefault(spent + i, set())
                for m in partial:
                    bucket.symmetric_difference_update({m + p for p in piece})
        state = nxt
        if not state:
            return frozenset()
    return frozenset(state.get(total, ()))


def full_row_stage_one(model, degree):
    """The stage-one kernel K, from a row for every basis monomial.

    K is the kernel of (1 (x) pi) psi-bar, where pi keeps the right
    factors that are single generators.  Column keys are (left monomial,
    right generator) pairs built through the public model API, with no
    packed layout and no triangular shortcut.
    """
    single_right = {}  # g -> the terms left (x) h of psi(g) with h one generator
    rows = []
    for mono in model.basis(degree).monomials:
        factors = model.factors(mono)
        acc = set()
        for g in sorted(set(factors)):
            if factors.count(g) % 2 == 0:
                continue  # the copies of g give equal terms that cancel in pairs
            if g not in single_right:
                single_right[g] = [
                    (left, model.factors(right)[0])
                    for left, right in model.psi_gen(g)
                    if len(model.factors(right)) == 1
                ]
            rest = list(factors)
            rest.remove(g)
            rest = model.mono(rest)
            acc.symmetric_difference_update(
                {(model.mono_mul(rest, left), h) for left, h in single_right[g]}
            )
        if len(factors) == 1:
            acc.discard((0, factors[0]))  # 1 (x) mono
        rows.append(frozenset(acc))
    return gf2.sparse_left_kernel(rows)


def full_row_stage_two(model, degree, stage1):
    """The primitives P = ker(psi-bar) inside the stage-one kernel."""
    basis = model.basis(degree)
    support = 0
    for vec in stage1.basis:
        support |= vec
    psi_bar = {
        i: model.reduced_coproduct(model.from_monos([basis.monomials[i]]))
        for i in range(support.bit_length())
        if support >> i & 1
    }
    stage2 = gf2.sparse_left_kernel(
        [sparse_combine(vec, psi_bar) for vec in stage1.basis]
    )
    return gf2.F2Subspace.from_vectors(
        (gf2.combine(combo, stage1.basis) for combo in stage2.basis), basis.dim
    )


def full_row_primitives(model, degree):
    """Primitives from a stage-one row for every basis monomial, with stage
    two in every degree."""
    return full_row_stage_two(model, degree, full_row_stage_one(model, degree))
