"""Looped models of Q RP^inf_+ and the canonical primitive basis.

The primitive subspaces carry three degree-halving operations (dual to
Sq_0 = squaring, Sq_1 and Sq_2 on cohomology indecomposables).  Looping
once replaces the cohomology by A(s^-1 Q, s^-1 Sq_1); looping twice by
A(s^-2 Coker Sq_1, s^-2 Sq_2).  Everything here is computed in homology
coordinates: the squaring map of the level-one model is the transpose of
lambda' on primitives, that of the level-two model the transpose of
lambda'' restricted to Ker(lambda').

Canonical primitives: for a label (I, i) with e(I) >= i and not all of
(I, i) even, the class has leading term Q^I e_i.  When e(I) = i the
leading term is itself a square and the class is the square of the
canonical primitive of the halved label; otherwise it is the leading
generator plus a decomposable correction solving the primitivity
equations.  In odd degrees that correction is unique; in even degrees the
solution is only unique modulo primitive squares and the engine picks the
canonical coset representative.

The canonical primitives, the halving tables and Ker(lambda') are
functools.cache on the methods that compute them (klam reads a cached
_klam, since bench/tracer.py times plain functions only), and a cached
result keeps its tower alive for the life of the process.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import gf2
from .algebra import Element, get_model
from .errors import BasisMismatch, NotPolynomial
from .words import Word, excess, is_admissible, words_of_excess


class PrimitiveLabel:
    """Label (I, i) of a canonical primitive class with leading Q^I e_i."""

    __slots__ = ("word", "index")

    def __init__(self, word: Word, index: int):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "index", index)
        if not is_admissible(word):
            raise ValueError(f"inadmissible word {word}")
        if index < 0:
            raise ValueError("negative index")
        if excess(word) < index:
            raise ValueError(f"excess below index for {self}")
        if all(i % 2 == 0 for i in word) and index % 2 == 0:
            raise ValueError(f"all-even label {self}")

    def __setattr__(self, name, value):
        raise AttributeError(f"PrimitiveLabel is immutable; cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not PrimitiveLabel:
            return NotImplemented
        return self.word == other.word and self.index == other.index

    def __hash__(self):
        return hash((self.word, self.index))

    @property
    def degree(self) -> int:
        return sum(self.word) + self.index

    def __str__(self) -> str:
        if not self.word:
            return f"p_{self.index}"
        flat = ",".join(str(i) for i in self.word + (self.index,))
        return f"p_({flat})"


def primitive_labels(degree: int, *, reduced: bool = False) -> List[PrimitiveLabel]:
    """All valid labels of the given degree, canonically ordered."""
    if degree < 1:
        return []
    out = [PrimitiveLabel((), degree)] if degree % 2 else []
    for index in range(1 if reduced else 0, degree):
        for word in words_of_excess(degree - index, index):
            if all(i % 2 == 0 for i in word) and index % 2 == 0:
                continue
            out.append(PrimitiveLabel(word, index))
    out.sort(key=lambda l: (l.index, l.word))
    return out


def primitive_basis(
    degree: int, *, reduced: bool = False
) -> List[Tuple[PrimitiveLabel, Element]]:
    """Canonical primitives of one degree; checked to be a basis of PH."""
    rp_inf = tower(reduced)
    labels = primitive_labels(degree, reduced=reduced)
    pairs = [(label, rp_inf.canonical(label)) for label in labels]
    span = rp_inf.model.span(el.monos for _, el in pairs)
    if span.dim != len(labels) or span != rp_inf.model.primitives(degree):
        raise BasisMismatch(
            f"labels of degree {degree} do not give a primitive basis"
        )
    return pairs


# ----- the loop tower -----


def exterior_dims(degrees: Sequence[int], max_degree: int) -> List[int]:
    """Coefficients of prod (1 + t^d) through max_degree.

    These are the graded dimensions of a square-collapse algebra A(V, xi):
    the free commutative algebra on V modulo x^2 = xi(x), for V with
    generators of the given degrees.  Under an order that counts factors
    first, the relations x_g^2 + xi(x_g) have pairwise coprime leading
    terms x_g^2, so they are a Groebner basis whatever xi is (Cox, Little
    & O'Shea, *Ideals, Varieties, and Algorithms*, section 2.9).  The
    square-free monomials are then a basis of the quotient, so its
    dimensions are those of the exterior algebra on V and do not depend
    on xi.
    """
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    for d in degrees:
        for n in range(max_degree, d - 1, -1):
            coeffs[n] += coeffs[n - d]
    return coeffs


class SquareZeroWitness(NamedTuple):
    """A model generator with vanishing squaring map.

    model_degree is its degree in the twice-looped model; the witness
    vector is the dual primitive class upstairs (degree model_degree + 2).
    """

    model_degree: int
    witness: Element


class PolynomialityReport(NamedTuple):
    level: int
    polynomial: bool
    square_zero: Tuple[SquareZeroWitness, ...]


class LoopTower:
    """Primitive data of H_*(Q RP^inf_+) and its loop models.

    tower(reduced) holds the one instance per model in the process, so
    every canonical primitive and every table below is built once however
    many callers read it; LoopTower(reduced) still builds a fresh one.
    Degrees are bounded only by the model's DEGREE_CAP, past which the
    primitive data raises DegreeOverflow.

    Every space is a reduced echelon basis of sparse rows, sets of
    monomials with their pivots in basis order (QAlgebra.span).  One table
    per degree n carries the halving maps: the images of the echelon basis
    of PH_n under lambda' for odd n and lambda'' for even n, in degree
    n // 2 + 1.  In even degrees Ker(lambda') is all of PH_n, so the same
    table serves both levels.  Only this class reads the table's layout:
    a vector of PH_n is the sum of the basis rows at the pivots it
    carries, so its image (halve) is the sum of the table rows there.
    """

    def __init__(self, reduced: bool = False):
        self.model = get_model("rp-inf", reduced)

    # -- level 0 data --

    @cache
    def canonical(self, label: PrimitiveLabel) -> Element:
        """The canonical primitive class of the label (module docstring)."""
        if self.model.reduced and label.index == 0:
            raise ValueError("index-zero label in reduced model")
        if label.word and excess(label.word) == label.index:
            inner = self.canonical(PrimitiveLabel(label.word[1:], label.index))
            return self.model.product(inner, inner)
        lead = self.model.gen_element(label.word, label.index)
        return self.model.canonical_in_coset(lead)

    @cache
    def halving(self, n: int) -> Tuple[FrozenSet, ...]:
        """Images of the basis of PH_n under lambda' (n odd) or lambda''
        (n even), as sets of monomials of degree n // 2 + 1."""
        kind = "lambda'" if n % 2 else "lambda''"
        model = self.model
        return tuple(
            model.lambda_op(kind, Element(model, row)).monos for row in model.primitives(n).basis
        )

    def halve(self, n: int, vec: FrozenSet) -> FrozenSet:
        """The halving map of degree n on a vector of PH_n: the sum of the
        halving(n) rows at the pivots of PH_n that vec carries."""
        acc: set = set()
        for p, row in zip(self.model.primitives(n).pivots, self.halving(n)):
            if p in vec:
                acc.symmetric_difference_update(row)
        return frozenset(acc)

    def lambda_image(self, n: int) -> gf2.F2Subspace:
        """Span of the halving map on PH_n, inside degree n // 2 + 1."""
        return self.model.span(self.halving(n))

    def klam(self, n: int) -> gf2.F2Subspace:
        """Ker(lambda') inside PH_n; all of PH_n in even degrees.  Each
        halving row is tagged with the basis vector of PH_n it is the image
        of, so the rows that reduce to zero leave behind the kernel."""
        return self._klam(n)

    @cache
    def _klam(self, n: int) -> gf2.F2Subspace:
        if n % 2 == 0:
            return self.model.primitives(n)
        return self.model.span(gf2.eliminate(self.halving(n), self.model.primitives(n).basis)[1])

    def squaring_escape(
        self, space: Callable[[int], gf2.F2Subspace], degrees: Iterable[int]
    ) -> Optional[int]:
        """The first even n of degrees where lambda'' carries a vector of
        space(n) out of space(n // 2 + 1), or None: is the space closed
        under the model squaring?"""
        for n in degrees:
            target = space(n // 2 + 1)
            if not all(target.contains(self.halve(n, v)) for v in space(n).basis):
                return n
        return None

    def check_klam_stable(self, max_degree: int) -> None:
        """lambda'' must carry Ker(lambda') into Ker(lambda')."""
        n = self.squaring_escape(self.klam, range(2, max_degree + 1, 2))
        if n is not None:
            raise NotPolynomial(f"lambda'' does not stabilize Ker(lambda') at degree {n}")

    # -- loop models --
    #
    # Level 1 is A(s^-1 Q H^*, s^-1 Sq_1): generators V1_k dual to PH_{k+1},
    # squaring the transpose of lambda'.  Level 2 is A(s^-2 Coker Sq_1,
    # s^-2 Sq_2): generators V2_k dual to Ker(lambda') in degree k+2,
    # squaring the transpose of lambda''.  The level is the shift, and the
    # squaring on V_k is the transpose of halving(2k + level).  Both
    # readers below take the top degree first, so a range that reads past
    # DEGREE_CAP raises DegreeOverflow before any work.

    def _space(self, level: int) -> Callable[[int], gf2.F2Subspace]:
        """The generating space upstairs of a level model, by degree."""
        if level not in (1, 2):
            raise ValueError("levels 1 and 2 only")
        return self.model.primitives if level == 1 else self.klam

    def dims(self, level: int, max_degree: int) -> List[int]:
        """Graded dimensions of the level model through max_degree: the
        exterior series on its generators, whatever the squaring."""
        space = self._space(level)
        degrees = [k for k in range(max_degree, 0, -1) for _ in range(space(k + level).dim)]
        return exterior_dims(degrees, max_degree)

    # -- polynomiality --

    def polynomiality(self, level: int, upstairs: int) -> PolynomialityReport:
        """Is the level-`level` cohomology model polynomial, as far as the
        primitive data through degree `upstairs` shows?

        Level 1 is polynomial iff lambda' is onto PH degreewise; level 2
        iff lambda'' restricted to Ker(lambda') is onto degreewise.  The
        halving map sends source degree 2m - level onto degree m, and
        every source degree <= upstairs is checked.  A failure in degree
        m yields a square-zero model generator of degree m - level.
        """
        space = self._space(level)
        witnesses: List[SquareZeroWitness] = []
        for m in range((upstairs + level) // 2, level, -1):
            reach = self.lambda_image(2 * m - level)
            missed = []
            for v in space(m).basis:
                if not reach.contains(v):
                    missed.append(SquareZeroWitness(m - level, Element(self.model, v)))
                    reach = self.model.span(reach.basis + (v,))
            witnesses[:0] = missed  # reported in ascending degree
        return PolynomialityReport(level, not witnesses, tuple(witnesses))


_TOWERS: Dict[bool, LoopTower] = {}


def tower(reduced: bool = False) -> LoopTower:
    """The one LoopTower of the rp-inf model in the process."""
    if reduced not in _TOWERS:
        _TOWERS[reduced] = LoopTower(reduced)
    return _TOWERS[reduced]
