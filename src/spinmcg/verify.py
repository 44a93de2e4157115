"""Named verification targets for the command line and the test suite.

Every target checks one computational statement degree by degree and
returns a structured result: individual named checks with pass/fail and
a short detail string.  Each counted check (a relation of Lemma 3.7,
the doubling formula of Prop. 3.8) reports how many instances it ran
and, on failure, how many of them fail and its own first three
failures.  A failing check over a list of classes (the Sq-naturality of
Cor. 2.7, the transfer values of Theorem 2) names its first three
failing classes.
Output ordering is deterministic so runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, NamedTuple, Tuple

from . import gf2
from .algebra import get_model
from .betti import BETTI_CEILING, convolve, spin_betti
from .errors import NoSolution
from .loops import PrimitiveLabel, tower
from .maps import (
    boundary,
    doubled_t3_generators,
    theorem2_composite,
    transfer_iota_plus_c,
)
from .spaces import binom_mod2, lambda_sq_index


class Check(NamedTuple):
    name: str
    passed: bool
    details: str = ""


class TargetResult(NamedTuple):
    target: str
    max_degree: int
    checks: Tuple[Check, ...]
    notes: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """True when at least one check ran and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def counts(self) -> Tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks) - good

    def to_json(self) -> str:
        good, bad = self.counts()
        return json.dumps(
            {
                "target": self.target,
                "max_degree": self.max_degree,
                "passed": self.passed,
                "pass_count": good,
                "fail_count": bad,
                "checks": [
                    {"name": c.name, "passed": c.passed, "details": c.details}
                    for c in self.checks
                ],
                "notes": list(self.notes),
            },
            sort_keys=True,
        )

    def to_text(self) -> str:
        good, bad = self.counts()
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.target} "
                 f"(degrees <= {self.max_degree}): {good} checks passed, {bad} failed"]
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            detail = f"  {c.details}" if c.details else ""
            lines.append(f"  {mark:>4}  {c.name}{detail}")
        for note in self.notes:
            lines.append(f"  note  {note}")
        return "\n".join(lines)


def _require_degree(target: str, max_degree: int, least: int, why: str) -> None:
    """Refuse a degree below the first one at which every check of the
    target runs, or below which it would check only identities that hold
    by construction (a usage error, not a failed check)."""
    if max_degree < least:
        raise ValueError(
            f"{target} needs max degree >= {least} ({why}); got {max_degree}"
        )


def _tally(name: str, instances: List[Tuple[bool, str]]) -> Check:
    """The check that every one of its (holds, description) instances holds:
    the detail counts the instances it ran and, on failure, the failures
    and the first three of them."""
    failures = [desc for ok, desc in instances if not ok]
    detail = f"{len(instances)} instances"
    if failures:
        detail += f", {len(failures)} failures: {failures[:3]}"
    return Check(name, not failures, detail)


def _first_failures(failures: List[object]) -> str:
    """The detail of an uncounted check: its first three failures, or
    nothing when it passes."""
    return f"failures: {failures[:3]}" if failures else ""


def verify_lemma36(max_degree: int) -> TargetResult:
    """Base-class halving identities: λe_2r = e_r, λ'e_2r-1 = r e_r,
    λ''e_2r-2 = C(r,2) e_r."""
    _require_degree(
        "lemma3.6", max_degree, 2, "below it every instance is the identity Sq^0_*"
    )
    model = get_model("rp-inf")
    e = lambda n: model.gen_element((), n)
    checks = []
    for r in range(0, max_degree // 2 + 1):
        got = model.lambda_op("lambda", e(2 * r))
        checks.append(Check(f"lambda e_{2*r} = e_{r}", got == e(r)))
    for r in range(1, (max_degree + 1) // 2 + 1):
        want = e(r) if r % 2 else model.zero()
        got = model.lambda_op("lambda'", e(2 * r - 1))
        checks.append(Check(f"lambda' e_{2*r-1} = {r % 2} * e_{r}", got == want))
    for r in range(2, max_degree // 2 + 2):
        want = e(r) if binom_mod2(r, 2) else model.zero()
        got = model.lambda_op("lambda''", e(2 * r - 2))
        checks.append(Check(f"lambda'' e_{2*r-2} = C({r},2) * e_{r}", got == want))
    return TargetResult("lemma3.6", max_degree, tuple(checks))


def verify_lemma37(max_degree: int) -> TargetResult:
    """The five commutation rules between the halving operations and the
    Dyer-Lashof action, on every generator within the degree envelope."""
    _require_degree("lemma3.7", max_degree, 1, "relation (11) on e_0 is the first instance")
    model = get_model("rp-inf")
    relations: Dict[str, List[Tuple[bool, str]]] = {
        eq: [] for eq in ("8", "10", "11", "12", "13")
    }
    # a generator of degree max_degree has no instance
    for d in range(0, max_degree):
        # (8) and (11) on even degrees, (10) and (13) on odd ones: the first
        # halving op on even Q-indices, the next one down on odd Q-indices
        even = d % 2 == 0
        up_eq, down_eq = ("8", "11") if even else ("10", "13")
        op, down = ("lambda", "lambda'") if even else ("lambda'", "lambda''")
        shift = d // 2 if even else 1 + (d + 1) // 2
        for gen in model.generators_in_degree(d):
            x = model.from_monos([gen])
            name = model.render_mono(gen)
            lam = model.lambda_op(op, x)
            # (12) on the even generators that lambda kills
            lam2 = model.lambda_op("lambda''", x) if even and not lam else None
            for s in range(1, (max_degree - d) // 2 + 1):
                up = model.q_apply(2 * s, x)
                ok = model.lambda_op(op, up) == model.q_apply(s, lam)
                relations[up_eq].append((ok, f"({up_eq}) Q^{2*s} {name}"))
                if lam2 is not None:
                    ok = model.lambda_op("lambda''", up) == model.q_apply(s, lam2)
                    relations["12"].append((ok, f"(12) Q^{2*s} {name}"))
            for s in range(1, (max_degree - d + 1) // 2 + 1):
                want = model.q_apply(s, lam) if (s + shift) % 2 else model.zero()
                ok = model.lambda_op(down, model.q_apply(2 * s - 1, x)) == want
                relations[down_eq].append((ok, f"({down_eq}) Q^{2*s-1} {name}"))

    checks = []
    notes = []
    for eq, instances in relations.items():
        if instances:
            checks.append(_tally(f"relation ({eq})", instances))
        else:
            # a relation with no instance in range tested nothing
            notes.append(f"relation ({eq}) has no instance in degrees <= {max_degree}")
    return TargetResult("lemma3.7", max_degree, tuple(checks), tuple(notes))


def verify_prop38(max_degree: int) -> TargetResult:
    """Surjectivity of λ on indecomposables, plus the doubling formula
    λ Q^2I e_2r = Q^I e_r on the nose."""
    _require_degree("prop3.8", max_degree, 2, "both of its checks start in degree 2")
    model = get_model("rp-inf")
    checks = []
    for n in range(2, max_degree + 1, 2):
        target_gens = model.generators_in_degree(n // 2)
        # a row is the set of generators that the image of one generator
        # carries modulo decomposables
        rank = gf2.sparse_rank(
            frozenset(model.generator_part(
                model.lambda_op("lambda", model.from_monos([g]))
            ))
            for g in model.generators_in_degree(n)
        )
        checks.append(
            Check(
                f"lambda onto indecomposables {n} -> {n // 2}",
                rank == len(target_gens),
                f"rank {rank} of {len(target_gens)}",
            )
        )
    doubled = []
    for g in model.generators(max_degree):
        word, r = model.gen_word_index(g)
        if any(s % 2 for s in word) or r % 2:
            continue
        half = tuple(s // 2 for s in word)
        lhs = model.lambda_op("lambda", model.from_monos([g]))
        doubled.append((lhs == model.gen_element(half, r // 2), model.render_mono(g)))
    checks.append(_tally("doubling formula lambda Q^2I e_2r = Q^I e_r", doubled))
    return TargetResult("prop3.8", max_degree, tuple(checks))


def verify_prop39(max_degree: int) -> TargetResult:
    """Surjectivity of λ' on primitives, degreewise from each odd degree."""
    _require_degree(
        "prop3.9", max_degree, 3, "lambda' onto PH_2 is the first surjectivity check"
    )
    full = tower()
    checks = []
    for n in range(3, max_degree + 1, 2):
        target = n - lambda_sq_index("lambda'", n)
        image = full.lambda_image(n)
        ph_target = full.model.primitives(target)
        ok = image == ph_target
        checks.append(
            Check(
                f"lambda' onto primitives {n} -> {target}",
                ok,
                f"image dim {image.dim} of {ph_target.dim}",
            )
        )
    # degree 1 is the identity on the primitive line
    image1 = full.lambda_image(1)
    checks.insert(0, Check("lambda' identity in degree 1", image1 == full.model.primitives(1)))
    return TargetResult("prop3.9", max_degree, tuple(checks))


def verify_prop310(max_degree: int) -> TargetResult:
    """The halving defect: the witness class in Ker(lambda') that the
    second halving operation misses, in the based model."""
    based = tower(reduced=True)
    model = based.model
    checks = []
    p3 = based.canonical(PrimitiveLabel((), 3))
    p21 = based.canonical(PrimitiveLabel((2,), 1))
    p11 = based.canonical(PrimitiveLabel((1,), 1))
    e = lambda n: model.gen_element((), n)
    checks.append(
        Check("p_3 = e_3 + e_1 e_2 + e_1^3", p3 == e(3) + e(1) * e(2) + e(1) * e(1) * e(1))
    )
    checks.append(Check("lambda' p_3 = p_(1,1)", model.lambda_op("lambda'", p3) == p11))
    checks.append(Check("lambda' p_(2,1) = p_(1,1)", model.lambda_op("lambda'", p21) == p11))
    witness = p3 + p21
    checks.append(Check("p_(2,1) + p_3 in Ker(lambda')",
                        model.lambda_op("lambda'", witness) == model.zero()))
    ph4 = model.primitives(4)
    v1 = model.gen_element((3,), 1).monos
    v2 = model.gen_element((2, 1), 1).monos
    checks.append(
        Check(
            "PH_4 has basis {Q^3 e_1, Q^2 Q^1 e_1}",
            ph4 == model.span([v1, v2]) and ph4.dim == 2,
            f"dim {ph4.dim}",
        )
    )
    checks.append(Check("lambda'' kills PH_4", not any(based.halving(4))))
    reach = based.lambda_image(4)
    checks.append(
        Check(
            "witness p_(2,1) + p_3 not hit by lambda''",
            bool(witness.monos) and not reach.contains(witness.monos),
            "witness: p_(2,1) + p_3",
        )
    )
    # the checks sit in degrees 3 and 4 whatever the request
    return TargetResult("prop3.10", max(max_degree, 4), tuple(checks),
                        notes=("witness p_(2,1) + p_3",))


def verify_cor27(max_degree: int) -> TargetResult:
    """Injectivity of the boundary map H_*(Q Sigma CP^inf_+) ->
    H_*(Q RP^inf_+), by two routes on its honest values, then their
    Sq-naturality.  Two lemmas turn the ranks into injectivity:

    - Polynomial generators: an algebra map between connected polynomial
      algebras of finite type that is injective on indecomposables is
      injective.  Extend the images of the source generators by target
      generators to a basis of the target's indecomposables; these
      generate the target (the graded Nakayama lemma, Milnor-Moore, "On
      the structure of Hopf algebras", Ann. of Math. 81 (1965)), and a
      polynomial algebra on generators of those degrees has the target's
      Poincare series, so they are algebraically independent.  Both
      models are polynomial, so the first check, the rank of the
      generator parts of the values on the source generators, proves
      the boundary injective.  It holds under either tail: the seeds of
      the two tails differ by decomposables, which the Dyer-Lashof
      action keeps decomposable, and so do the honest and plain Q-words.
    - Milnor-Moore (op. cit.; source paper, Cor. 2.7): the boundary comes
      from an infinite loop map, so it is a map of connected Hopf
      algebras, and a map of connected coalgebras that is injective on
      primitives is injective.  The second check ranks the honest values
      on a basis of the source primitives.

    Every rank is the pivot count of sparse rows streamed into the
    elimination, so no rp-inf basis is built for it.  The boundary does
    not check its values; this target checks psi-bar of the value of
    every source generator it reads (NoSolution if one is not
    primitive), the other values being 2^k-th powers of those.  That is
    a psi-bar check rather than a PH_n one, so no even-degree rp-inf
    basis is built for it either."""
    _require_degree("cor2.7", max_degree, 1, "the boundary starts in degree 1")
    partial = boundary("primitive")
    source, target = partial.source, partial.target
    ranks = []
    honest_ok = True
    for n in range(1, max_degree + 1):
        gens = source.generators_in_degree(n)
        values = [partial.value((g, 0)) for g in gens]
        for g, value in zip(gens, values):
            if not target.is_primitive(value):
                raise NoSolution(f"honest value of {source.render_mono(g)} is not primitive")
        indecomposable = gf2.sparse_rank(frozenset(target.generator_part(v)) for v in values)
        ranks.append((n, indecomposable, len(gens)))
        rank = gf2.sparse_rank(partial.value(label).monos for label in partial.source_labels(n))
        honest_ok = honest_ok and rank == source.primitives(n).dim
    # the first failing degrees, or the top three when all pass
    shown = [(n, r, d) for n, r, d in ranks if r != d] or ranks[-3:]
    failures = partial.naturality_failures(max_degree)
    checks = (
        Check(
            "boundary injective on indecomposables",
            all(r == d for _, r, d in ranks),
            "; ".join(f"{n}:{r}/{d}" for n, r, d in shown[:3]),
        ),
        Check("honest primitive-level boundary injective", honest_ok),
        Check(
            f"honest boundary commutes with Sq_* (degrees <= {max_degree})",
            not failures,
            _first_failures(failures),
        ),
    )
    return TargetResult("cor2.7", max_degree, checks)


def verify_thm2(max_degree: int) -> TargetResult:
    """The squaring composite of Theorem 2 through the transfer: (iota + c)
    sends a_2i to a_i^2 and kills odd classes, and the composite sends
    Q^2I b_i to (Q^I a_i)^2, spanning the squared generators degreewise.
    The kernel of the once-looped boundary itself is not computed."""
    _require_degree("thm2", max_degree, 2, "the first odd class, a_1, sits in degree 2")
    model = get_model("bspin2")
    a = lambda i: model.gen_element((), i)
    # transfer route: (iota + c) a_2i = a_i^2, odd classes die
    unsquared = [
        f"a_{2 * i}" for i in range(0, max_degree // 4 + 1)
        if transfer_iota_plus_c(2 * i) != model.product(a(i), a(i))
    ]
    surviving = [
        f"a_{2 * i + 1}" for i in range(0, (max_degree // 2 - 1) // 2 + 1)
        if transfer_iota_plus_c(2 * i + 1)
    ]
    # the composite, built as (Q^I a_i)^2, agrees with the Dyer-Lashof
    # expansion Q^2I of the transfer value on a_2i
    routes = []
    by_degree: Dict[int, set] = {}
    for word, i in doubled_t3_generators(max_degree):
        value = theorem2_composite(word, i)
        if model.q_word(word, transfer_iota_plus_c(2 * i)) != value:
            routes.append(f"Dyer-Lashof route differs at Q^{word} b_{i}")
        half = tuple(s // 2 for s in word)
        by_degree.setdefault(2 * sum(half) + 4 * i, set()).add((half, i))
    spans = []
    for d in range(1, max_degree + 1):
        squared_gens = {
            model.gen_word_index(g) for g in model.generators_in_degree(d // 2)
        } if d % 2 == 0 else set()
        if by_degree.get(d, set()) != squared_gens:
            spans.append(f"degree {d} span mismatch")
    checks = (
        Check("transfer value on even classes is the square", not unsquared,
              _first_failures(unsquared)),
        Check("transfer kills odd classes", not surviving, _first_failures(surviving)),
        Check("composite maps Q^2I b_i to (Q^I a_i)^2", not routes, "; ".join(routes[:3])),
        Check("composite spans the squared generators degreewise", not spans,
              "; ".join(spans[:3])),
    )
    return TargetResult("thm2", max_degree, checks)


def verify_thm3(max_degree: int) -> TargetResult:
    """Once-looped model: polynomial, since lambda' is onto PH degreewise.

    That its indecomposables are dual to Ker(lambda') upstairs follows
    from rank-nullity alone, so no check of it could fail."""
    _require_degree(
        "thm3", max_degree, 3, "lambda' onto PH_2 is the first polynomiality check"
    )
    report = tower().polynomiality(1, max_degree)
    checks = (Check("once-looped model polynomial", report.polynomial),)
    return TargetResult("thm3", max_degree, checks)


def verify_thm4(max_degree: int) -> TargetResult:
    """Twice-looped model: not polynomial; a square-zero generator is
    exhibited."""
    _require_degree(
        "thm4", max_degree, 4, "the square-zero witness needs lambda'' from degree 4"
    )
    full, based = tower(), tower(reduced=True)
    # the level-two model is defined only if lambda'' keeps Ker(lambda')
    full.check_klam_stable(max_degree)
    checks = []
    report = full.polynomiality(2, max_degree)
    checks.append(Check("twice-looped model NOT polynomial", not report.polynomial))
    based_report = based.polynomiality(2, 4)
    p3 = based.canonical(PrimitiveLabel((), 3))
    p21 = based.canonical(PrimitiveLabel((2,), 1))
    wanted = p3 + p21
    witness_ok = (
        not based_report.polynomial
        and any(
            w.model_degree == 1 and w.witness == wanted
            for w in based_report.square_zero
        )
    )
    checks.append(
        Check(
            "square-zero generator dual to p_(2,1) + p_3 exhibited",
            witness_ok,
            "model degree 1 (degree 3 upstairs, double desuspension)",
        )
    )
    return TargetResult(
        "thm4",
        max_degree,
        tuple(checks),
        notes=(
            "the exhibited square-zero generator sits in model degree 1 = "
            "(witness degree 3) - 2; its single desuspension indexing is degree 2",
        ),
    )


def verify_cor18(max_degree: int) -> TargetResult:
    """Cor. 1.8 as an exact inequality, degree by degree: the Betti rows
    never exceed the Künneth bound, the Poincare series of the
    twice-looped model times that of the free algebra on BSpin(3).  The
    rows are the primitive-tail table, which equals the zero-tail one,
    and stop at the Betti ceiling."""
    _require_degree("cor1.8", max_degree, 1, "degree 0 is 1 <= 1 by the table's construction")
    cap = min(max_degree, BETTI_CEILING)
    bspin3 = get_model("bspin3")
    bound = convolve(tower().dims(2, cap), [bspin3.dim(n) for n in range(cap + 1)], cap)
    checks = [
        Check(f"degree {d}: {dim} <= {bound[d]}", dim <= bound[d])
        for d, dim in spin_betti(cap).rows
    ]
    return TargetResult("cor1.8", cap, tuple(checks))


TARGETS: Dict[str, Callable[[int], TargetResult]] = {
    "lemma3.6": verify_lemma36,
    "lemma3.7": verify_lemma37,
    "prop3.8": verify_prop38,
    "prop3.9": verify_prop39,
    "prop3.10": verify_prop310,
    "cor2.7": verify_cor27,
    "thm2": verify_thm2,
    "thm3": verify_thm3,
    "thm4": verify_thm4,
    "cor1.8": verify_cor18,
}


def run_target(target: str, max_degree: int) -> TargetResult:
    if target not in TARGETS:
        raise KeyError(f"unknown target {target!r}; valid: {sorted(TARGETS)}")
    return TARGETS[target](max_degree)
