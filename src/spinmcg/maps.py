"""The maps between the Q-space homologies and their rank data.

The once-delooped boundary map is specified on the suspension classes by

    abar_r  |->  e_{2r+1} + Q^(r+1) e_r   (modulo decomposables)

and extended to the other generators Q-equivariantly.  The engine
evaluates it on the primitives of the source only, the 2^k-th powers of
its generators: the map comes from an infinite loop map, so it is a map
of connected Hopf algebras and is injective once it is injective on
primitives (see verify.verify_cor27).  Two tail policies are supported:
`zero` takes the stated leading terms as is, `primitive` replaces them
by the canonical primitives with those leading terms (the suspension
classes are primitive, so an honest chain-level map must take primitive
values).  All rank and dimension outputs are checked to agree across the
two policies.

Each honest value is checked to be primitive once, by the route that
reads it: cokernel_generators (the Betti route) checks that the image of
every degree lies in PH_n, and verify.verify_cor27 checks psi-bar of
every generator value it reads; the other values are 2^k-th powers of
those, primitive with them.  Under the zero tail canonical_in_coset
checks its representative as well.  Membership in PH_n is primitivity:
in even degrees PH_n is the exact kernel of psi-bar (stage two of
QAlgebra.primitives), and in odd degrees it is the stage-one kernel,
which is all of the primitives by Milnor-Moore's Prop. 4.21 (its proof
is in the QAlgebra.primitives docstring).

`boundary(policy)` is the one object of the map per tail
policy in a process, each of its values computed on first read and
kept, with no degree bound but the model cap: value and source_labels
read functools.cache twins (bench/tracer.py times plain functions only),
which keep the boundary alive for the life of the process.

The Becker-Gottlieb transfer of the sphere bundle acts by the
Pontryagin sum of the inclusion and the orientation reversal; modulo 2
it sends a_{2i} to a_i^2 and kills the odd classes.  The squaring
composite sends a doubled-word generator Q^{2I} b_i to (Q^I a_i)^2.
"""

from __future__ import annotations

from functools import cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import gf2
from .algebra import DEGREE_CAP, Element, Gen, get_model
from .errors import DegreeOverflow, NonDoubledWord, NoSolution, NotClosedUnderSquaring
from .loops import PrimitiveLabel, exterior_dims, tower
from .words import Word, excess, is_admissible

TAIL_POLICIES = ("zero", "primitive")


def check_policy(policy: str) -> None:
    if policy not in TAIL_POLICIES:
        raise ValueError(f"tail policy must be one of {TAIL_POLICIES}")


def partial_on_generator(r: int, policy: str = "primitive") -> Element:
    """Image of the degree 2r+1 suspension class under the boundary map."""
    check_policy(policy)
    if r < 0:
        raise ValueError("negative index")
    target = get_model("rp-inf")
    if policy == "zero":
        return target.gen_element((), 2 * r + 1) + target.gen_element((r + 1,), r)
    full = tower()
    return full.canonical(PrimitiveLabel((), 2 * r + 1)) + full.canonical(
        PrimitiveLabel((r + 1,), r)
    )


def transfer_iota_plus_c(i: int) -> Element:
    """Becker-Gottlieb transfer value on a_i: the Pontryagin square sum."""
    if i < 0:
        raise ValueError("negative index")
    model = get_model("bspin2")
    out = model.zero()
    for r in range(i + 1):
        out = out + model.product(model.gen_element((), r), model.gen_element((), i - r))
    return out


def theorem2_composite(word: Sequence[int], i: int) -> Element:
    """Value of the squaring composite on the doubled generator Q^word b_i.

    Only defined on T_3 generators whose word is a doubling 2I; the
    output (Q^I a_i)^2 lands in the squares subalgebra.
    """
    word = tuple(word)
    if i < 0:
        raise ValueError("negative index")
    if any(s % 2 for s in word):
        raise NonDoubledWord(f"word {word} is not a doubling")
    if not is_admissible(word) or excess(word) <= 4 * i:
        raise ValueError(f"Q^{word} b_{i} is not a polynomial generator")
    half = tuple(s // 2 for s in word)
    model = get_model("bspin2")
    value = model.gen_element(half, i)
    return model.product(value, value)


def doubled_t3_generators(max_degree: int) -> List[Tuple[Word, int]]:
    """(word, index) of the T_3 generators with doubled words, up to the
    given total degree."""
    model = get_model("bspin3")
    out = []
    for gen in model.generators_in_degree(0) + model.generators(max_degree):
        word, i = model.gen_word_index(gen)
        if all(s % 2 == 0 for s in word):
            out.append((word, i))
    return out


def kernel_poincare(max_degree: int) -> List[int]:
    """Dimensions of the squares subalgebra of H_*(Q BSpin(2)_+).

    Odd degrees vanish; degree 2n counts the full algebra in degree n
    (the free commutative algebra on the squared generators).
    """
    model = get_model("bspin2")
    return [model.dim(n // 2) if n % 2 == 0 else 0 for n in range(max_degree + 1)]


# ----- the twice-looped cokernel data -----


class CokernelReport(NamedTuple):
    """Generating data of the image of the twice-looped homology.

    g_dims[k] is the number of model generators in degree k: the image
    of Ker(lambda') in the cokernel of the primitive-level boundary map,
    desuspended twice.  kernel_algebra_dims are the graded dimensions of
    the subalgebra they generate.
    """

    policy: str
    max_degree: int
    g_dims: Tuple[int, ...]
    kernel_algebra_dims: Tuple[int, ...]


class PrimitiveBoundary:
    """The boundary map of one tail policy, by its honest values on the
    primitives of the source, each computed on first read.

    The value of Q^I abar_r applies the operations to the seed value of
    abar_r through the Laurent-coefficient action
    (algebra.honest_q_word), which tracks the group-like unit powers
    exactly, so with the primitive tail policy it is primitive on the
    nose; the plain Q-word of the seed is only right modulo
    decomposables.  With the zero tail policy the seeds are off by
    decomposables, and each value is taken to the canonical
    representative of its primitive coset; all emitted dimensions must
    nevertheless agree between the policies.  A value is not checked to
    be primitive here but by its reader (module docstring): the Betti
    route's image-in-PH_n test, or cor2.7's psi-bar test.
    """

    def __init__(self, policy: str = "primitive"):
        check_policy(policy)
        self.policy = policy
        self.source = get_model("sigma-cp-inf")
        self.target = get_model("rp-inf")

    # the primitives of the source are the 2^k-th powers of generators
    def source_labels(self, degree: int) -> List[Tuple[Gen, int]]:
        return self._source_labels(degree)

    @cache
    def _source_labels(self, degree: int) -> List[Tuple[Gen, int]]:
        labels = []
        for gen in self.source.generators(degree):
            power, rest = divmod(degree, self.source.mono_degree(gen))
            if not rest and power & (power - 1) == 0:
                labels.append((gen, power.bit_length() - 1))
        expected = self.source.primitives(degree).dim if degree >= 1 else 0
        if len(labels) != expected:
            raise NoSolution(f"source primitive count mismatch in degree {degree}")
        return labels

    def value(self, label: Tuple[Gen, int]) -> Element:
        return self._honest_value(label)

    @cache
    def _honest_value(self, label: Tuple[Gen, int]) -> Element:
        gen, k = label
        if k > 0:
            inner = self.value((gen, k - 1))
            return self.target.product(inner, inner)
        word, r = self.source.gen_word_index(gen)
        result = self.target.honest_q_word(word, partial_on_generator(r, self.policy))
        if self.policy == "zero":
            # zero tails are off by decomposables; land in the same
            # primitive coset and take its canonical representative
            return self.target.canonical_in_coset(result)
        return result

    def image(self, degree: int) -> gf2.F2Subspace:
        return self.target.span(self.value(label).monos for label in self.source_labels(degree))

    def apply_primitive(self, x: Element) -> Element:
        """Value on a primitive of the source: a sum of monomials g^(2^k),
        each sent to value((g, k))."""
        out = self.target.zero()
        for mono in x.monos:
            factors = self.source.factors(mono)
            power = len(factors)
            if len(set(factors)) != 1 or power & (power - 1):
                raise NoSolution("class is not primitive in the source")
            out = out + self.value((factors[0], power.bit_length() - 1))
        return out

    def naturality_failures(self, max_degree: int) -> List[Tuple[Tuple[Word, int], int]]:
        """Generators, as (word, index), and a where Sq^a_* fails to
        commute with the map.  Every a in 1..d-1 is tried on a generator of
        degree d; one graded Cartan pass per monomial gives them all."""
        failures = []
        for gen in self.source.generators(max_degree):
            d = self.source.mono_degree(gen)
            x = self.source.from_monos([gen])
            lhs = self.target.sq_star_upto(d - 1, self.value((gen, 0)))
            rhs = self.source.sq_star_upto(d - 1, x)
            for a in range(1, d):
                if lhs[a] != self.apply_primitive(rhs[a]):
                    failures.append((self.source.gen_word_index(gen), a))
        return failures


_BOUNDARIES: Dict[str, PrimitiveBoundary] = {}


def boundary(policy: str) -> PrimitiveBoundary:
    """The one PrimitiveBoundary of this tail policy in the process, so each
    value is computed and checked once however many callers read it;
    PrimitiveBoundary(policy) still builds a fresh one."""
    if policy not in _BOUNDARIES:
        _BOUNDARIES[policy] = PrimitiveBoundary(policy)
    return _BOUNDARIES[policy]


def cokernel_generators(max_degree: int, policy: str = "primitive") -> CokernelReport:
    """Generators and dimensions of the twice-looped image algebra.

    Works at level-two model degrees 1..max_degree, which needs
    primitive data up to max_degree + 2; past DEGREE_CAP that raises
    DegreeOverflow here, top degree first, before any primitive is
    computed.
    """
    upstairs = max_degree + 2
    if upstairs > DEGREE_CAP:
        raise DegreeOverflow(
            f"max_degree {max_degree} needs primitive data in degree "
            f"{upstairs}, past the model cap {DEGREE_CAP}"
        )
    partial = boundary(policy)
    full = tower()
    sigma = partial.source

    g_dims = [0] * (max_degree + 1)
    klam_cap: Dict[int, gf2.F2Subspace] = {}
    for n in range(1, upstairs + 1):
        image = partial.image(n)
        source_dim = sigma.primitives(n).dim
        if image.dim != source_dim:
            raise NoSolution(
                f"boundary image has dim {image.dim}, not the source's "
                f"{source_dim} primitives, in degree {n}"
            )
        if not image.is_subspace_of(full.model.primitives(n)):
            raise NoSolution(f"boundary image leaves the primitives in degree {n}")
        if n >= 3:
            kl = full.klam(n)
            cap = gf2.subspace_intersection(kl, image)
            klam_cap[n] = cap
            g_dims[n - 2] = kl.dim - cap.dim

    # closure of the generating space under the model squaring: lambda''
    # must carry Ker(lambda') ∩ Im from degree n to n // 2 + 1, for every
    # even n >= 4 through upstairs (model degree n // 2 - 1 >= 1)
    n = full.squaring_escape(klam_cap.__getitem__, range(4, upstairs + 1, 2))
    if n is not None:
        raise NotClosedUnderSquaring(
            f"squaring leaves the generating space at model degree {n // 2 - 1}"
        )

    degrees: List[int] = []
    for k, g in enumerate(g_dims):
        degrees.extend([k] * g)
    kernel_dims = exterior_dims(degrees, max_degree)
    return CokernelReport(policy, max_degree, tuple(g_dims), tuple(kernel_dims))

