"""The free commutative algebra model of H_*(Q X_+) over F2.

For each base space the model is the free commutative algebra on the
positive-degree generator set {Q^I x : I admissible, e(I) > deg x}.  For
spaces with a degree-zero class the coproduct is computed in the larger
algebra where that class is a polynomial variable (it is the group-like
[1] of the zeroth homology), and then normalized to the degree-zero
component by sending that variable to 1 in each tensor factor.  This is
exactly translation to the base component, so dimensions, primitives and
the dual Steenrod action below agree with the homology of the base
component.

Dyer-Lashof applications are kept in normal form: instability collapses
Q^s x to 0 or x^2 at the edge, inadmissible compositions are rewritten
through the Adem relations, and the dual Steenrod action commutes past
Q-operations through the Nishida relations

    Sq^a_* Q^r = sum_b C(r-a, a-2b) Q^(r-a+b) Sq^b_*.

A `reduced` model drops the whole index-zero family (the model of the
based space rather than the space with disjoint basepoint).

Representation: a monomial is one int, its exponent vector.  Every
generator Q^I x_i through DEGREE_CAP owns a bit field, wide enough for
the largest power of it that fits under DEGREE_CAP, and the degree sits
in a field on top.  A generator is its own monomial: the int with a 1 in
its field and its degree on top.  The fields are laid out in the
canonical (degree, index, word) order, so comparing generators as ints
is comparing that key.  A product is then the sum of two ints and the
degree a shift.  A tensor pair l (x) r is the int (l << W) | r, so
pairs multiply by addition as well, and every F2 product of two sums of
packed terms (the product, the coproduct, the Cartan steps of both
actions and of the honest action, the stage-one rows) is the one
function _times: a set XOR of {a + b for b in piece}, where adding a
fixed a is injective, so the inner loop runs in C.

The coproduct of a monomial and the two actions on it are one
computation, _power_product: the product over the factors g^e of the
monomial of a per-generator table of packed terms to the e, taken by the
set bits of e with the table doubled termwise (p + p) between them, and
cut to a window on the field on top.  That field is a degree, and the
degree is the index: Q^i g has degree i + deg g and Sq^b_* g degree
deg g - b, so Q^s m is the degree s + deg m part of the product of the
Q^i g, and Sq^a_* m its degree deg m - a part.  On a packed pair the
field on top is the left degree, and psi is cocommutative, so
multiply_out builds psi-bar as the pairs of left degree at least 1 (the
counit term 1 (x) m has left degree 0) and at most half, the window
[1, deg m // 2].  Each model keeps psi per generator only: the
coproduct of a monomial is rebuilt from those tables on each call and
streamed into the caller's XOR, never stored; it keeps the Q results
per (index, monomial).

The honest action on base-component classes carries a power u^z of the
group-like degree-zero class u beside a monomial m, as the Laurent class
(z << W) + m: the unit power takes the left slot of the pair layout,
Python ints keep a negative z exact (c >> W is z, c & (2^W - 1) is m),
and a product is again an addition.  So one Cartan step on the two
slots (_cartan_pairs) serves both the coproduct recursion of a generator
(_psi_full) and the honest action.  The degree-zero class, which no
degree bounds, owns the lowest field, so it is the int 1; the field is
sized for the 2^(word length) power of it that the unnormalized
coproduct reaches.  A result past DEGREE_CAP, or past that power,
raises DegreeOverflow instead of carrying into a neighbouring field.
Packed monomials are private to one model: code outside goes through
gen_id(word, index), gen_word_index(gen), mono(gens) and factors(mono),
and orders and renders monomials by their sorted factor tuples.

Memoization: every table per generator, degree, index or monomial (the
two actions, psi, the stage-one keys, the basis, the primitives, the
unit powers, the basis order key) is functools.cache on the method that
computes it, keyed on the model and the arguments, with cache_info() for
its hits and misses; primitives reads a cached _primitives, since
bench/tracer.py times plain functions only.  A guard that raises stores
nothing and raises on every call.  A cached result keeps its model alive
for the life of the process: get_model interns the engine's models
anyway, and fresh ones that tests build are kept too.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import chain, repeat
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import gf2
from .errors import (
    DegreeOverflow,
    EngineError,
    NonUnique,
    NoSolution,
    ParityMismatch,
    SpaceMismatch,
)
from .spaces import (
    binom_mod2,
    check_space,
    class_degree,
    class_prefix,
    has_degree_zero_class,
    lambda_sq_index,
    steenrod_dual,
)
from .words import Word, adem_word, excess, generator_words, is_admissible

DEFAULT_MAX_DEGREE = 12
HARD_MAX_DEGREE = 20
# the cokernel data reads primitives two degrees above the requested one
DEGREE_CAP = HARD_MAX_DEGREE + 2

Mono = int  # packed exponent vector: one field per generator, degree on top
Gen = Mono  # a generator: a 1 in its own field, its degree on top
Monos = FrozenSet[Mono]
Terms = Tuple[int, ...]  # packed terms in ascending order
Pairs = FrozenSet[int]  # packed tensor pairs (l << W) | r
Laurents = FrozenSet[int]  # packed Laurent classes u^z m as (z << W) + m

_EMPTY: Monos = frozenset()
_UNIT: Monos = frozenset({0})


def _times(
    xs: Iterable[int], ys: Sequence[int], least: int = 0, below: Optional[int] = None
) -> set:
    """The F2 product of two sums of packed terms: every x + y, equal terms
    cancelling in pairs.  Adding a fixed x is injective, so each inner set
    has no repeats and its loop runs in C.  With below, ys ascending, only
    the terms in [least, below) are formed: for each x the ys in
    [least - x, below - x)."""
    acc: set = set()
    if below is None:
        for x in xs:
            acc.symmetric_difference_update({x + y for y in ys})
    else:
        for x in xs:
            acc.symmetric_difference_update(
                {x + y for y in ys[bisect_left(ys, least - x) : bisect_left(ys, below - x)]}
            )
    return acc


def _toggle(acc: set, item) -> None:
    """Add item to acc over F2: insert it, or cancel an equal term."""
    if item in acc:
        acc.remove(item)
    else:
        acc.add(item)


class Element:
    """An F2 linear combination of monomials in one algebra model."""

    __slots__ = ("model", "monos")

    def __init__(self, model: "QAlgebra", monos: Monos):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "monos", monos)

    def __setattr__(self, name, value):
        raise AttributeError(f"Element is immutable; cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not Element:
            return NotImplemented
        return self.model is other.model and self.monos == other.monos

    def __hash__(self):
        return hash((self.model, self.monos))

    def __add__(self, other: "Element") -> "Element":
        if self.model is not other.model:
            raise SpaceMismatch("elements live in different models")
        return Element(self.model, self.monos ^ other.monos)

    def __mul__(self, other: "Element") -> "Element":
        return self.model.product(self, other)

    def __bool__(self) -> bool:
        return bool(self.monos)

    @property
    def degree(self) -> Optional[int]:
        degs = {self.model.mono_degree(m) for m in self.monos}
        if len(degs) != 1:
            return None
        return degs.pop()

    def __str__(self) -> str:
        return self.model.render(self)

    __repr__ = __str__


class QAlgebra:
    """One model: a space tag plus the reduced/unreduced choice.

    Instances are interned via get_model; identity comparison is safe.
    """

    def __init__(self, space: str, reduced: bool = False):
        check_space(space)
        if not has_degree_zero_class(space):
            reduced = False  # already based and connected
        self.space = space
        self.reduced = reduced
        self._intern()

    # ----- generators, the packed layout and degrees -----

    def _intern(self) -> None:
        """Fields, names and rendered text of every generator through
        DEGREE_CAP, the index-zero family and the degree-zero class
        included (the reduced model, the unnormalized coproduct and the
        Laurent action all name them).  The per-degree lists that
        generators_in_degree reads leave the index-zero family out of a
        reduced model.

        A generator of degree d > 0 has exponent at most DEGREE_CAP // d in
        a monomial under the cap.  The degree-zero class is not bounded by
        degree: Q^0 squares it, so the unnormalized coproduct of a
        generator holds it to the power 2^(word length) at most.

        Every field is sized first, in (degree, index, word) order, so that
        the place of the degree field is known; then each generator is
        named by its own monomial.  The degree-zero class is the only
        generator of degree 0, so its field is the lowest and it is the
        int 1.
        """
        prefix = class_prefix(self.space)
        found = [generator_words(self.space, d) for d in range(DEGREE_CAP + 1)]
        longest = max(
            (len(w) for words in found for w, i in words if class_degree(self.space, i) == 0),
            default=-1,
        )
        self._unit_max = (1 << (longest + 1)) - 1 if longest >= 0 else 0
        self._unit_mask = self._unit_max  # the unit field is the lowest
        widths = [
            (DEGREE_CAP // d if d else self._unit_max).bit_length()
            for d in range(DEGREE_CAP + 1)
        ]
        self._deg_shift = sum(widths[d] * len(words) for d, words in enumerate(found))
        self._field_mask = (1 << self._deg_shift) - 1
        self._pair_shift = self._deg_shift + DEGREE_CAP.bit_length()
        self._right_mask = (1 << self._pair_shift) - 1
        # sends the degree-zero class to 1 on both sides of a pair
        self._pair_eta = ~(self._unit_mask | (self._unit_mask << self._pair_shift))
        self._ids: Dict[Tuple[Word, int], Gen] = {}
        self._word_index: Dict[Gen, Tuple[Word, int]] = {}
        self._text: Dict[Gen, str] = {}
        self._interned: List[List[Gen]] = []
        # (offset, field mask, generator) of the field that owns each bit
        self._owner: List[Tuple[int, int, Gen]] = []
        self._low_bits = 0  # the lowest bit of every field
        for degree, words in enumerate(found):
            width = widths[degree]
            gens = []
            for word, index in words:
                offset = len(self._owner)
                gen = (1 << offset) | (degree << self._deg_shift)
                self._ids[(word, index)] = gen
                self._word_index[gen] = (word, index)
                ops = " ".join(f"Q^{i}" for i in word)
                base = f"{prefix}_{index}"
                self._text[gen] = f"{ops} {base}" if ops else base
                self._low_bits |= 1 << offset
                self._owner.extend([(offset, (1 << width) - 1, gen)] * width)
                if index or not self.reduced:
                    gens.append(gen)
            self._interned.append(gens)

    def _guard(self, degree: int, unit_power: int = 0) -> None:
        """Refuse a monomial that its packed fields cannot hold."""
        if degree > DEGREE_CAP:
            raise DegreeOverflow(
                f"degree {degree} is past the model cap {DEGREE_CAP}"
            )
        if unit_power > self._unit_max:
            raise DegreeOverflow(
                f"power {unit_power} of the degree-zero class is past its "
                f"field (at most {self._unit_max})"
            )

    def gen_id(self, word: Sequence[int], index: int) -> Gen:
        """Id of the generator Q^word x_index (admissible, strict excess)."""
        key = (tuple(word), index)
        gen = self._ids.get(key)
        if gen is None:
            self._guard(class_degree(self.space, index) + sum(key[0]))
            raise ValueError(f"{key} is not a generator of the {self.space} model")
        return gen

    def gen_word_index(self, gen: Gen) -> Tuple[Word, int]:
        """(Dyer-Lashof word, base class index) of a generator."""
        return self._word_index[gen]

    def mono(self, gens: Iterable[Gen]) -> Mono:
        """The monomial with these factors (repeated for powers)."""
        gens = tuple(gens)
        packed = sum(gens)
        self._guard(packed >> self._deg_shift, gens.count(1))  # 1 is the degree-zero class
        return packed

    def _powers(self, mono: Mono) -> List[Tuple[Gen, int]]:
        """(generator, exponent) of each distinct factor, ascending."""
        out = []
        rest = mono & self._field_mask
        owner = self._owner
        while rest:
            offset, mask, gen = owner[(rest & -rest).bit_length() - 1]
            power = (rest >> offset) & mask
            out.append((gen, power))
            rest ^= power << offset
        return out

    def factors(self, mono: Mono) -> Tuple[Gen, ...]:
        """The sorted factors of a monomial (repeated for powers)."""
        return tuple(g for g, power in self._powers(mono) for _ in range(power))

    def mono_degree(self, mono: Mono) -> int:
        return mono >> self._deg_shift

    def generators(self, max_degree: int) -> List[Gen]:
        """Positive-degree generators of the model, ordered canonically."""
        out: List[Gen] = []
        for d in range(1, max_degree + 1):
            out.extend(self.generators_in_degree(d))
        return out

    def generators_in_degree(self, degree: int) -> List[Gen]:
        """The generators of one degree, ordered canonically; degree 0
        holds the degree-zero class of an unreduced model."""
        self._guard(degree)
        return self._interned[degree] if degree >= 0 else []

    # ----- element constructors -----

    def zero(self) -> Element:
        return Element(self, _EMPTY)

    def unit(self) -> Element:
        return Element(self, _UNIT)

    def from_monos(self, monos: Iterable[Mono]) -> Element:
        """The F2 sum of the monomials: a repeated one cancels in pairs."""
        acc: set = set()
        for m in monos:
            _toggle(acc, m)
        return Element(self, frozenset(acc))

    def gen_element(self, word: Word, index: int) -> Element:
        """Normal form of the (possibly inadmissible) application Q^word x."""
        if self.reduced and index == 0:
            raise ValueError("reduced model has no index-zero classes")
        word = tuple(word)
        if is_admissible(word) and excess(word) > class_degree(self.space, index):
            return Element(self, frozenset({self.gen_id(word, index)}))
        return self.q_word(word, self.gen_element((), index))

    # ----- product -----

    def product(self, x: Element, y: Element) -> Element:
        """x * y.  SpaceMismatch for a factor of another model; unless a
        factor is zero, DegreeOverflow when the factors' top degrees (the
        largest ints, the degree being on top) or top powers of the
        degree-zero class sum past the fields.  Short of that no field
        carries: no term of the product has degree past the summed top
        degree, and a field holds every exponent of its generator under
        the cap."""
        if x.model is not self or y.model is not self:
            raise SpaceMismatch("operands belong to a different model")
        if not x.monos or not y.monos:
            return self.zero()
        shift, unit = self._deg_shift, self._unit_mask
        self._guard(
            (max(x.monos) >> shift) + (max(y.monos) >> shift),
            max(m & unit for m in x.monos) + max(m & unit for m in y.monos),
        )
        return Element(self, frozenset(_times(x.monos, y.monos)))

    def _power_product(
        self, mono: Mono, table: Callable[[Gen], Terms], least: int, most: int, top: int
    ) -> set:
        """The terms of the product over the factors g^e of mono of the sum
        table(g) to the e whose field from bit top up lies in [least, most].

        table(g) is an ascending tuple of packed terms, and the field from
        bit top up (a degree: of a monomial, or the left degree of a pair)
        is at least 0 and adds along the product.  g^e is the product of
        the g^(2^a) over the set bits a of e, and over F2 the cross terms of
        a square cancel in pairs, so the terms of table(g)^(2^(a+1)) are
        those of table(g)^(2^a) doubled termwise, p + p; a term whose double
        is past most is dropped before doubling.  Each set bit is one step
        of the product.  A term of the product is a partial term plus one
        term of each later step, as ints, so a partial term is formed only
        if it plus the least through the greatest terms of the later steps
        can meet the window, the ints [least << top, (most + 1) << top)
        (_times with least and below).  An empty table makes the product 0.
        """
        steps = []
        # the window's ends, less the greatest and the least term of each step
        lower, upper = least << top, (most + 1) << top
        half = (most // 2 + 1) << top  # the terms whose double is at most most
        for g, power in self._powers(mono):
            piece = table(g)
            while power:
                if power & 1:
                    if not piece:
                        return set()
                    steps.append(piece)
                    lower -= piece[-1]
                    upper -= piece[0]
                power >>= 1
                if power:
                    piece = tuple(p + p for p in piece[: bisect_left(piece, half)])
        if lower > 0 or upper <= 0:  # no term meets the window, as for mono 1
            return set()
        acc = {0}
        for piece in steps:
            lower += piece[-1]
            upper += piece[0]
            acc = _times(acc, piece, lower, upper)
        return acc

    # ----- Dyer-Lashof action -----

    @cache
    def q_gen_apply(self, s: int, gen: Gen) -> Terms:
        """Normal form of Q^s applied to a single generator, ascending."""
        d = gen >> self._deg_shift
        if s < d:
            return ()
        if s == d:
            self._guard(2 * d)
            return (2 * gen,)
        self._guard(s + d)
        word, index = self._word_index[gen]
        if not word or s <= 2 * word[0]:
            return (self.gen_id((s,) + word, index),)
        inner = self.gen_id(word[1:], index)
        acc: set = set()
        for outer, mid in adem_word(s, word[0]):
            acc.symmetric_difference_update(
                self.q_apply_monos(outer, self.q_gen_apply(mid, inner))
            )
        return tuple(sorted(acc))

    def _cartan_pairs(self, s: int, upper, classes: Iterable[int]) -> set:
        """Q^s on a sum of two-slot classes (high << W) + low, by Cartan.

        Q^s(high * low) = sum_i upper(s - i, high) * Q^i(low), where upper
        gives the terms of Q^j on the high slot already packed in place:
        the left tensor factor of a pair, or the unit power of a Laurent
        class.  Q^i(low) = 0 below the degree of low, so i starts there.
        """
        shift, right_mask, deg_shift = self._pair_shift, self._right_mask, self._deg_shift
        acc: set = set()
        for c in classes:
            high, low = c >> shift, c & right_mask
            for i in range(low >> deg_shift, s + 1):
                lows = self.q_mono_apply(i, low)
                if lows:
                    acc ^= _times(upper(s - i, high), lows)
        return acc

    @cache
    def q_mono_apply(self, s: int, mono: Mono) -> Monos:
        """Q^s on one monomial, by the Cartan formula: Q^i g has degree
        i + deg g, so Q^s mono is the degree s + deg mono part of the
        product of the Q^i g over its factors g.  Q^i g = 0 below deg g,
        so every other factor takes at least its degree and one factor's
        index is at most s - deg mono + deg g."""
        degree = mono >> self._deg_shift
        if s < degree:
            return _EMPTY
        # Q^0 squares the degree-zero class
        self._guard(s + degree, 2 * (mono & self._unit_mask))
        span, q_table = s - degree, self._q_table

        def table(g: Gen) -> Terms:
            return q_table(span, g)

        return frozenset(
            self._power_product(mono, table, s + degree, s + degree, self._deg_shift)
        )

    @cache
    def _q_table(self, span: int, g: Gen) -> Terms:
        """The terms of Q^i g for deg g <= i <= deg g + span: one factor's
        table for the Cartan product of q_mono_apply."""
        d = g >> self._deg_shift
        return tuple(chain.from_iterable(map(self.q_gen_apply, range(d, d + span + 1), repeat(g))))

    def q_apply_monos(self, s: int, monos: Monos) -> Monos:
        """Q^s on the F2 sum of the monomials.  Q^s is 0 on a monomial of
        degree above s, which is skipped, so no empty result is cached."""
        acc: set = set()
        for m in monos:
            if s >= m >> self._deg_shift:
                acc.symmetric_difference_update(self.q_mono_apply(s, m))
        return frozenset(acc)

    def q_apply(self, s: int, x: Element) -> Element:
        return Element(self, self.q_apply_monos(s, x.monos))

    def q_word(self, word: Sequence[int], x: Element) -> Element:
        out = x
        for s in reversed(tuple(word)):
            out = self.q_apply(s, out)
        return out

    # ----- coproduct -----

    @cache
    def _psi_full(self, gen: Gen) -> Pairs:
        """Coproduct of one generator before component normalization.

        This is the one statement of the base coproducts: a base class of
        rp-inf, bspin2 or bspin3 has the binomial coproduct, each
        splitting x_i (x) x_(index - i) once (dual to a polynomial
        cohomology ring on one generator), and a suspension class abar_r
        of sigma-cp-inf is primitive.  A Dyer-Lashof generator's
        coproduct follows from its inner class's by the Cartan formula,
        with the degree-zero base class treated as a polynomial variable.
        """
        shift = self._pair_shift
        word, index = self._word_index[gen]
        acc: set = set()
        if not word:
            if self.space == "sigma-cp-inf":
                acc = {gen << shift, gen}
            else:
                eta = self._pair_eta if self.reduced else -1
                for i in range(index + 1):
                    left, right = self.gen_id((), i), self.gen_id((), index - i)
                    _toggle(acc, ((left << shift) | right) & eta)
        else:
            def left(j: int, l_mono: Mono) -> List[int]:
                if j < l_mono >> self._deg_shift:
                    return []  # Q^j is 0 below the degree
                return [m << shift for m in self.q_mono_apply(j, l_mono)]

            inner = self._psi_full(self.gen_id(word[1:], index))
            acc = self._cartan_pairs(word[0], left, inner)
        return frozenset(acc)

    @cache
    def _psi_gen_pairs(self, gen: Gen) -> Tuple[int, ...]:
        """Component-normalized coproduct of one generator, as packed pairs
        in ascending order.  The coproduct is cocommutative (Milnor-Moore,
        On the structure of Hopf algebras, Ann. of Math. 81 (1965)), and
        multiply_out keeps half of each product on that ground, so the
        table must be swap-invariant: EngineError if it is not."""
        shift, right_mask, eta = self._pair_shift, self._right_mask, self._pair_eta
        acc: set = set()
        for pair in self._psi_full(gen):
            _toggle(acc, pair & eta)
        if any(((p & right_mask) << shift) | (p >> shift) not in acc for p in acc):
            raise EngineError(f"the coproduct of {self._text[gen]} is not cocommutative")
        return tuple(sorted(acc))

    def multiply_out(self, monos: Iterable[Mono]) -> set:
        """Half of psi-bar of the F2 sum of the monomials, as packed pairs:
        for each monomial m, the pairs l (x) r with 0 < deg l <= deg m / 2
        of the product over its factors g^e of the packed coproduct of g
        (_psi_gen_pairs) to the e.  The left degree sits on top of a packed
        pair and adds along the product, so these are the window
        [1, deg m // 2] of _power_product.  The pairs of left degree 0 are
        the counit term 1 (x) m, which psi-bar drops: the degree-zero class
        goes to 1 in each tensor factor, so no other left side has degree
        0.  psi is cocommutative, and every generator's table is checked
        to be swap-invariant, so psi-bar of a sum of monomials is the half
        and its swap: it vanishes exactly when its half does, and a set of
        half rows has the kernel of the full rows.  The first product is
        returned, not copied.  The caller makes sure no field can carry."""
        out: set = set()
        product, table, shift = self._power_product, self._psi_gen_pairs, self._deg_shift
        top = self._pair_shift + shift
        for mono in monos:
            acc = product(mono, table, 1, (mono >> shift) // 2, top)
            if out:
                out ^= acc
            else:
                out = acc
        return out

    def is_primitive(self, x: Element) -> bool:
        return not self.multiply_out(x.monos)

    # ----- dual Steenrod action -----

    @cache
    def sq_gen_apply(self, a: int, gen: Gen) -> Terms:
        """Sq^a_* applied to a single generator, ascending."""
        if a == 0:
            return (gen,)
        word, index = self._word_index[gen]
        if not word:
            return tuple(self.gen_id((), idx) for idx in steenrod_dual(self.space, a, index))
        acc: set = set()
        r = word[0]
        inner = self.gen_id(word[1:], index)
        for b in range(a // 2 + 1):
            if not binom_mod2(r - a, a - 2 * b):
                continue
            acc.symmetric_difference_update(
                self.q_apply_monos(r - a + b, self.sq_gen_apply(b, inner))
            )
        return tuple(sorted(acc))

    def _sq_product(self, least: int, most: int, mono: Mono) -> set:
        """The terms of Sq^a_* mono for least <= a <= most, by the Cartan
        formula: Sq^b_* g has degree deg g - b, so the index of a term is
        its degree's distance below deg mono, and these terms are the
        degrees deg mono - most through deg mono - least of the product of
        the Sq^b_* g over its factors g, for b up to the lesser of most and
        deg g (the total operation is multiplicative: Milnor, The Steenrod
        algebra and its dual, Ann. of Math. 67 (1958))."""
        deg_shift = self._deg_shift
        degree = mono >> deg_shift
        sq_table = self._sq_table

        def table(g: Gen) -> Terms:
            return sq_table(min(most, g >> deg_shift), g)

        return self._power_product(mono, table, degree - most, degree - least, self._deg_shift)

    @cache
    def _sq_table(self, top: int, g: Gen) -> Terms:
        """The terms of Sq^b_* g for top >= b >= 0: one factor's table for
        the Cartan product of _sq_product."""
        return tuple(chain.from_iterable(map(self.sq_gen_apply, range(top, -1, -1), repeat(g))))

    def sq_star(self, a: int, x: Element) -> Element:
        """Sq^a_* x, one degree of a Cartan product per monomial."""
        acc: set = set()
        for m in x.monos:
            acc.symmetric_difference_update(self._sq_product(a, a, m))
        return Element(self, frozenset(acc))

    def sq_star_upto(self, top: int, x: Element) -> List[Element]:
        """[Sq^0_* x, ..., Sq^top_* x] from one Cartan product per monomial
        of x, its terms sorted by degree into the indices."""
        accs: List[set] = [set() for _ in range(top + 1)]
        shift = self._deg_shift
        for m in x.monos:
            degree = m >> shift
            for t in self._sq_product(0, top, m):
                _toggle(accs[degree - (t >> shift)], t)
        return [Element(self, frozenset(acc)) for acc in accs]

    def lambda_op(self, kind: str, x: Element) -> Element:
        """λ, λ' or λ'' on a homogeneous element; ParityMismatch when the
        operation is undefined in its degree (lambda_sq_index)."""
        if not x.monos:
            return self.zero()
        deg = x.degree
        if deg is None:
            raise ValueError("lambda operations need homogeneous input")
        k = lambda_sq_index(kind, deg)
        if k is None:
            raise ParityMismatch(f"{kind} undefined in degree {deg}")
        return self.sq_star(k, x)

    # ----- monomials of one degree -----

    @cache
    def basis(self, degree: int) -> Tuple[Mono, ...]:
        """Every monomial of the degree, in basis order (order_key).

        The engine enumerates them only where it needs each one: the
        squares in primitives(2k) are the doubles of basis(k)."""
        if degree == 0:
            return (0,)
        gens = self.generators(degree)
        degrees = [g >> self._deg_shift for g in gens]
        # the ascending DFS meets the sorted factor tuples in lexicographic
        # order, so bucketing by factor count gives the (count, factors)
        # order without building a tuple
        by_count: List[List[Mono]] = [[] for _ in range(degree + 1)]

        def extend(mono: Mono, remaining: int, start: int, count: int) -> None:
            if remaining == 0:
                by_count[count].append(mono)
                return
            for i in range(start, len(gens)):
                d = degrees[i]
                if d > remaining:
                    break
                extend(mono + gens[i], remaining - d, i, count + 1)

        extend(0, degree, 0, 0)
        return tuple(m for bucket in by_count for m in bucket)

    def dim(self, degree: int) -> int:
        """The number of monomials of the degree: the coefficient of t^degree
        in the product of 1 / (1 - t^deg g) over the generators g."""
        if degree < 0:
            return 0
        coeffs = [1] + [0] * degree
        for g in self.generators(degree):
            d = g >> self._deg_shift
            for n in range(d, degree + 1):
                coeffs[n] += coeffs[n - d]
        return coeffs[degree]

    @cache
    def order_key(self, mono: Mono) -> Tuple[int, Tuple[Gen, ...]]:
        """The basis order: factor count first, then the sorted factors.

        Generators come first in it, then products of two factors, and so on.
        """
        factors = self.factors(mono)
        return len(factors), factors

    def span(self, vectors: Iterable[Monos]) -> gf2.F2Subspace:
        """The reduced echelon basis of the span of these sums of monomials,
        each row led by its first monomial in basis order."""
        return gf2.F2Subspace.from_vectors(vectors, self.order_key)

    # ----- honest Dyer-Lashof action on base-component classes -----
    #
    # An A-monomial M stands for the base-component class u^-c(M) M, where
    # u is the group-like degree-zero class and c(M) its component.  The
    # Q-operations do not commute with that translation; the honest action
    # tracks a net (possibly negative) power of u alongside each monomial,
    # packed as the Laurent class (z << W) + M.  Negative powers obey the
    # Cartan recursion obtained from Q^s(1) = 0.

    def component(self, mono: Mono) -> int:
        return sum(
            power << len(self._word_index[g][0]) for g, power in self._powers(mono)
        )

    @cache
    def _q_unit_power(self, s: int, z: int) -> Laurents:
        """Q^s applied to u^z, as packed Laurent classes."""
        shift = self._pair_shift
        acc: set = set()
        if s == 0:
            acc.add(2 * z << shift)
        elif z == 1:
            acc.add(self.gen_id((s,), 0))
        elif z == -1:
            # 0 = Q^s(u u^-1) = u^2 Q^s(u^-1) + sum_{i>0} Q^i(u) Q^(s-i)(u^-1)
            for i in range(1, s + 1):
                term = self.gen_id((i,), 0) - (2 << shift)  # Q^i(u) u^-2
                acc ^= _times((term,), self._q_unit_power(s - i, -1))
        elif z:
            # Cartan on u^z = u^step u^(z-step), one unit at a time
            step = 1 if z > 0 else -1
            for i in range(s + 1):
                acc ^= _times(self._q_unit_power(i, step), self._q_unit_power(s - i, z - step))
        return frozenset(acc)

    def honest_q_word(self, word: Sequence[int], x: Element) -> Element:
        """Q^word on a base-component class, translated back to A-coordinates.

        Every output monomial must land in the base component again; a
        leftover unit power means the input was not a base-component
        class and is reported as a hard error.
        """
        if x.model is not self:
            raise SpaceMismatch("element not in this model")
        if not has_degree_zero_class(self.space):
            return self.q_word(word, x)
        shift, right_mask = self._pair_shift, self._right_mask
        classes = {(-self.component(m) << shift) + m for m in x.monos}
        for s in reversed(tuple(word)):
            monos = [c & right_mask for c in classes]
            if monos:
                self._guard(
                    s + max(m >> self._deg_shift for m in monos),
                    2 * max(m & self._unit_mask for m in monos),
                )
            classes = self._cartan_pairs(s, self._q_unit_power, classes)
        monos = []
        for c in classes:
            mono = c & right_mask
            if c >> shift != -self.component(mono):
                raise ValueError("honest action left the base component")
            monos.append(mono)
        return self.from_monos(monos)

    # ----- distinguished subspaces -----

    def primitives(self, degree: int) -> gf2.F2Subspace:
        """Kernel of the reduced coproduct: the reduced echelon basis of
        PH_n, each row a set of monomials led by its first in basis order.

        Computed in two exact stages, with no numbering of the monomials.
        Stage one takes the kernel K of (1 (x) pi) psi-bar, where pi keeps
        the right factors that are single generators.  A right factor that
        is a single generator g takes the whole right side from one factor
        of the monomial m, every other factor going left, and the k copies
        of g in m give k equal terms: so the row of m is the XOR, over the
        factors g of odd exponent, of (m / g) (x) 1 times the
        single-generator-right part of psi(g), less the term 1 (x) m when
        m is itself a generator.

        Stage one's column keys are the swapped terms h (x) l, packed
        pairs with the single generator h on the left.  psi is
        cocommutative (Milnor-Moore, On the structure of Hopf algebras,
        Ann. of Math. 81 (1965)), so the terms h (x) l of psi(g) with h a
        single generator are exactly the swaps of its terms l (x) h, and
        _stage_one_keys reads them off the swap-invariant table
        _psi_gen_pairs(g).  The row of m adds m / g into their right slot,
        so each of its keys is the swap of one of its terms.  The left slot
        sits on top of a packed pair, so the keys are ordered by the
        generator h first.

        Stage one is triangular.  Let m be a decomposable monomial with a
        factor of odd exponent, and g the greatest one: the row of m then
        leads with its top key g (x) (m / g), since every other key has a
        smaller generator on the left (a lower term h (x) l of psi(g') has
        deg h < deg g' <= deg g, and generators are ordered degree first).
        Distinct monomials have distinct top keys, so these rows are in
        echelon form already, and a square has the zero row.  So K is
        spanned by the squares and the kernel combinations of the
        generator rows, and only the rows that the reduction of a
        generator row reaches get built: at a key the pivot table misses,
        the row of the monomial whose top key it is, if there is one.  A
        combination of stage-one rows is tracked as the set of monomials
        whose rows it adds, so a kernel combination is a vector of K as it
        stands.  The squares of degree 2k are the doubles 2 * m of the
        packed monomials m of degree k.  Stage two applies psi-bar to each
        of those vectors as a whole, in one multiply-out pass that builds
        only the half of it with left degree at most n / 2 (multiply_out),
        and keeps P = ker(psi-bar) inside K.  Both stages eliminate sparse
        rows: sets of packed pairs, swapped in stage one.

        In odd degrees K = P, so stage two is skipped there (Milnor-Moore,
        On the structure of Hopf algebras, Ann. of Math. 81 (1965), Prop.
        4.21: in a connected commutative Hopf algebra over F2 every
        decomposable primitive is a sum of squares).  Elementary proof:
        (a) Let x be a decomposable primitive and x_k its part with the
        fewest factors, k >= 2.  Every lower term l (x) r of psi(g) has
        more factors than g, so the k-factor part of psi-bar(x) is the
        reduced coproduct of x_k for the coproduct in which the generators
        are primitive.  It vanishes, so x_k is a sum of g^(2^j) with
        j >= 1, and deg x is even.  (b) Dually, let V* be the span of the
        duals of the generators in the dual algebra H*, and D the
        decomposables of H*.  Stage one is dual to the product
        H*_+ (x) V* -> H*, so K_n is the annihilator of (H*_+ . V*)_n,
        and P_n that of D_n.  By (a), in odd degree n no nonzero element
        of P_n vanishes on V*_n (that is, is decomposable), so H*_n =
        V*_n + D_n.  By induction over odd degrees D_n = (H*_+ . V*)_n: a
        product a . b in odd degree n has a factor b of odd degree less
        than n (H* is commutative), and b lies in V* + H*_+ . V* by the
        induction hypothesis.  So K_n = P_n.
        """
        return self._primitives(degree)

    @cache
    def _primitives(self, degree: int) -> gf2.F2Subspace:
        if degree < 1:
            raise ValueError("primitive data starts in degree 1")

        def supply(key: int):
            mono = self._top_monomial(key)
            if mono is None:
                return None
            return self._stage_one_row(mono), frozenset({mono})

        gens = self.generators_in_degree(degree)
        kernel = gf2.eliminate(
            [self._stage_one_row(m) for m in gens],
            [frozenset({m}) for m in gens],
            lead=max,
            supply=supply,
        )[1]
        if degree % 2:
            return self.span(kernel)  # K = P
        squares = [frozenset({2 * m}) for m in self.basis(degree // 2)]
        return self._stage_two(squares + kernel)

    def _stage_two(self, stage1: List[Monos]) -> gf2.F2Subspace:
        """P = ker(psi-bar) inside the span of the stage-one kernel vectors.

        The row of a vector is the half of psi-bar of the vector as a
        whole (multiply_out): psi-bar of a sum of monomials is swap-invariant,
        and keeping its pairs of left degree at most n / 2 is injective on
        swap-invariant sums, so the half rows have the kernel of the full
        ones at half their length.  psi is linear and the filters commute
        with XOR, so this is the sum of the rows of its monomials; but no
        row of a single monomial is kept, because the supports of the
        vectors barely overlap and a per-monomial table would be built
        once and read once, at several times the size of the vector rows.
        Each row is tagged with its vector (gf2.eliminate), so a row that
        reduces to zero leaves behind a vector of P as it stands.  The
        rows are built as the elimination reaches them, so a row that
        reduces to zero is freed at once, and frozen, so a pivot row takes
        no more room than its pairs need."""
        rows = (frozenset(self.multiply_out(vec)) for vec in stage1)
        return self.span(gf2.eliminate(rows, stage1)[1])

    def _stage_one_row(self, mono: Mono) -> FrozenSet[int]:
        """The stage-one row of a monomial, as a set of column keys."""
        owner = self._owner
        acc: set = set()
        odd = mono & self._low_bits  # the fields of odd exponent
        while odd:
            low = odd & -odd
            g = owner[low.bit_length() - 1][2]
            acc ^= _times((mono - g,), self._stage_one_keys(g))  # m / g into the right slot
            odd ^= low
        if mono in self._word_index:
            acc.discard(mono << self._pair_shift)  # mono (x) 1, the swap of 1 (x) mono
        return frozenset(acc)

    def _top_monomial(self, key: int) -> Optional[Mono]:
        """The monomial whose stage-one row leads with key.

        For key = h (x) q that is m = q * h, provided m is decomposable and
        h is its greatest factor of odd exponent (the lemma in
        primitives); any other key leads no row of one monomial.
        """
        h, q = key >> self._pair_shift, key & self._right_mask
        low = h & self._field_mask
        odd = (q + h) & self._low_bits
        if not q or not odd & low or odd >= low << 1:
            return None
        return q + h

    @cache
    def _stage_one_keys(self, gen: Gen) -> Tuple[int, ...]:
        """Stage-one columns of psi(gen): its terms h (x) l with h a single
        generator, ascending.  They are the swaps of its terms l (x) h,
        since the table is swap-invariant (_psi_gen_pairs)."""
        shift, single = self._pair_shift, self._word_index
        return tuple(p for p in self._psi_gen_pairs(gen) if p >> shift in single)

    def canonical_in_coset(self, value: Element) -> Element:
        """The canonical primitive in the coset value + decomposables.

        The echelon basis of P = PH_n takes its pivots in basis order, in
        which the generators come first (order_key), so P pivots first on
        generators, then on decomposable monomials.  Reducing value against
        P gives the unique element r of value + P with no monomial at any
        pivot of P, and value + r is the result.  The pivot order fixes r,
        and with it the even-degree representatives that tests/golden
        pins.

        r is the representative the two-step route (solve for a primitive
        x with the generator part of value, then reduce the decomposable
        difference x + value against the decomposable primitives) gives:
        that residual lies in value + P, has no generators and no monomial
        at the decomposable pivots, so it is r.  The coset holds a
        primitive exactly when r has no generators, since value + r is a
        primitive whose generator part differs from value's by r's.  In
        odd degrees there are no decomposable primitives (no odd squares),
        so the primitive is unique.
        """
        degree = value.degree
        if degree is None or degree < 1:
            raise ValueError("canonical primitives need a homogeneous element")
        prims = self.primitives(degree)
        residual = prims.reduce(value.monos)
        if any(m in self._word_index for m in residual):
            raise NoSolution(f"no primitive in the coset of {value} modulo decomposables")
        if degree % 2 and any(p not in self._word_index for p in prims.pivots):
            raise NonUnique(f"decomposable primitives in odd degree {degree}")
        result = value + Element(self, residual)
        if not self.is_primitive(result):
            raise NoSolution(f"coset representative of {value} is not primitive")
        return result

    def generator_part(self, x: Element) -> List[Gen]:
        """Single-factor monomials of x (its class modulo decomposables)."""
        return sorted(m for m in x.monos if m in self._word_index)

    # ----- rendering -----

    def render_mono(self, mono: Mono) -> str:
        if not mono:
            return "1"
        powers = self._powers(mono)
        parts = []
        for gen, power in powers:
            text = self._text[gen]
            if " " in text and (power > 1 or len(powers) > 1):
                text = f"({text})"
            parts.append(f"{text}^{power}" if power > 1 else text)
        return "*".join(parts)

    def render(self, x: Element) -> str:
        if not x.monos:
            return "0"
        keyed = sorted(x.monos, key=lambda m: (self.mono_degree(m), self.order_key(m)))
        return " + ".join(self.render_mono(m) for m in keyed)


_MODELS: Dict[Tuple[str, bool], QAlgebra] = {}


def get_model(space: str, reduced: bool = False) -> QAlgebra:
    """Interned model lookup; element equality relies on this."""
    check_space(space)
    key = (space, bool(reduced) and has_degree_zero_class(space))
    if key not in _MODELS:
        _MODELS[key] = QAlgebra(*key)
    return _MODELS[key]
