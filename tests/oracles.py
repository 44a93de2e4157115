"""Oracles that the tests check the engine against: dense ranks,
word-level rewriting, full-row primitives, canonical cosets by an
explicit solve, the Sq-naturality scan one index at a time, map images in
basis coordinates, brute-force Hopf kernels, and explicit square-collapse
presentations with their brute-force counts."""

from functools import lru_cache

from spinmcg import gf2
from spinmcg.errors import NonUnique, NoSolution
from spinmcg.maps import GeneratorMap
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


def rank(m):
    """Rank of an F2Matrix: the number of pivots of its forward elimination."""
    return len(gf2._eliminate(m.rows, track=False)[0])


def canonical_in_coset_by_solve(model, value):
    """The canonical primitive in value + decomposables, by solving for it.

    Solves for a primitive x whose generator part is that of value, as a
    combination of the echelon basis of P restricted to the generator
    columns, then reduces the decomposable difference x + value against
    the decomposable primitives (the basis vectors of P pivoting past the
    generators).  The engine instead reduces value against all of P once.
    """
    degree = value.degree
    prims = model.primitives(degree)
    n_gens = len(model.generators_in_degree(degree))
    gen_mask = (1 << n_gens) - 1
    vec = model.to_vector(value, degree)
    pivots = gf2._eliminate([b & gen_mask for b in prims.basis])[0]
    combo, target = 0, vec & gen_mask
    while target:
        hit = pivots.get((target & -target).bit_length() - 1)
        if hit is None:
            raise NoSolution(f"no primitive in the coset of {value} modulo decomposables")
        target ^= hit[0]
        combo ^= hit[1]
    x = gf2.combine(combo, prims.basis)
    dec_prims = gf2.F2Subspace(
        prims.ambient_dim,
        tuple(b for p, b in zip(prims.pivots, prims.basis) if p >= n_gens),
    )
    if degree % 2 and dec_prims.dim:
        raise NonUnique(f"decomposable primitives in odd degree {degree}")
    result = value + model.from_vector(dec_prims.reduce(x ^ vec), degree)
    if not model.is_primitive(result):
        raise NoSolution(f"coset representative of {value} is not primitive")
    return result


def sparse_combine(combo, rows):
    """XOR of the sparse rows (sets of column keys) that combo selects:
    bit i selects rows[i]."""
    out = set()
    while combo:
        low = combo & -combo
        out.symmetric_difference_update(rows[low.bit_length() - 1])
        combo ^= low
    return frozenset(out)


def reduced_coproduct(model, x):
    """The terms of psi(x) with both tensor factors of positive degree."""
    return frozenset((l, r) for l, r in model.coproduct(x) if l and r)


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


def naturality_failures_by_index(boundary, max_degree):
    """PrimitiveBoundary.naturality_failures one Steenrod index at a time.

    For each source generator of degree d and each a in 1..d-1, compares
    Sq^a_* of its value with the value of Sq^a_* of it, both through the
    per-index sq_star (one Cartan pass per index and monomial).
    """
    source, target = boundary.source, boundary.target
    failures = []
    for gen in source.generators(max_degree):
        d = source.gen_degree(gen)
        x = source.from_monos([source.mono((gen,))])
        for a in range(1, d):
            lhs = target.sq_star(a, boundary.value((gen, 0)))
            rhs = boundary.apply_primitive(source.sq_star(a, x))
            if lhs != rhs:
                failures.append((source.gen_word_index(gen), a))
    return failures


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
                    (model.factors(left), model.factors(right)[0])
                    for left, right in model.coproduct(model.from_monos([model.mono((g,))]))
                    if len(model.factors(right)) == 1
                ]
            rest = list(factors)
            rest.remove(g)
            acc.symmetric_difference_update(
                {(model.mono(rest + list(left)), h) for left, h in single_right[g]}
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
        i: reduced_coproduct(model, model.from_monos([basis.monomials[i]]))
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


class CoordinateMap(GeneratorMap):
    """A GeneratorMap that also gives its images in target basis
    coordinates, the dense form that the Hopf-kernel oracle reads."""

    def __init__(self, name, source, target, values):
        super().__init__(name, source, target, values)
        self._images = {}

    def image_vectors(self, degree):
        """Target coordinates of the image of each source basis monomial."""
        if degree not in self._images:
            self._images[degree] = tuple(
                self.target.to_vector(self.apply(self.source.from_monos([mono])), degree)
                for mono in self.source.basis(degree).monomials
            )
        return self._images[degree]


class SquareFreeQuotient:
    """The quotient Hopf map A -> A/(g^2 : g generator).

    The target is an exterior algebra and its Hopf kernel is the squares
    by construction, which makes it a known map to run the cotensor
    kernel on.
    """

    def __init__(self, model):
        self.source = model
        self.target = self  # the target's dimensions are read as target.dim(n)

    def target_basis(self, degree):
        """The square-free basis monomials, in basis order."""
        factors = self.source.factors
        return [
            m for m in self.source.basis(degree).monomials
            if len(set(factors(m))) == len(factors(m))
        ]

    def dim(self, degree):
        return len(self.target_basis(degree))

    def image_vectors(self, degree):
        """Image of each source basis monomial: itself if square-free, else 0."""
        position = {m: t for t, m in enumerate(self.target_basis(degree))}
        return [
            1 << position[m] if m in position else 0
            for m in self.source.basis(degree).monomials
        ]


def hopf_kernel_dims(f, max_degree):
    """Degreewise dimensions of the Hopf kernel of f.

    f provides .source (a QAlgebra), .target.dim(n) and .image_vectors(n)
    (the target coordinates of f on each source basis monomial); the
    kernel in degree n is the space of x with f(x) = 0 and
    (id (x) f) psi-bar(x) = 0.  Degree zero always contributes 1.
    Each of target.dim and image_vectors is called once per degree.
    """
    model = f.source
    degrees = range(1, max_degree + 1)
    width = {d: f.target.dim(d) for d in degrees}
    cols = {d: f.image_vectors(d) for d in degrees}
    where = {}  # source monomial -> (degree, basis index)
    image = {}  # source monomial -> its target coordinates under f
    for d in degrees:
        for j, mono in enumerate(model.basis(d).monomials):
            where[mono] = (d, j)
            image[mono] = cols[d][j]
    dims = [1]
    for n in degrees:
        offsets = [0] * n  # offsets[k]: start of the block with left degree k
        offset = width[n]
        for k in range(1, n):
            offsets[k] = offset
            offset += model.dim(k) * width[n - k]
        rows = []
        for j, mono in enumerate(model.basis(n).monomials):
            vec = cols[n][j]
            for l_mono, r_mono in reduced_coproduct(model, model.from_monos([mono])):
                col = image[r_mono]
                if col:
                    k, li = where[l_mono]
                    vec ^= col << (offsets[k] + li * width[n - k])
            rows.append(vec)
        dims.append(gf2.left_kernel(gf2.F2Matrix(tuple(rows), max(offset, 1))).dim)
    return dims


class AFunctorPresentation:
    """A graded vector space V with a squaring map xi: V_n -> V_2n.

    Generators are indexed 0..len(degrees)-1; xi maps a generator to an
    F2 sum of generators of doubled degree.  The square-collapse algebra
    A(V, xi) is the free commutative algebra on V modulo x^2 = xi(x).
    """

    __slots__ = ("degrees", "xi")

    def __init__(self, degrees, xi=None):
        xi = {} if xi is None else xi
        for i, targets in xi.items():
            for j in targets:
                if degrees[j] != 2 * degrees[i]:
                    raise ValueError("xi must double degrees")
        if any(d <= 0 for d in degrees):
            raise ValueError("generator degrees must be positive")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "xi", xi)

    def __setattr__(self, name, value):
        raise AttributeError(f"AFunctorPresentation is immutable; cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not AFunctorPresentation:
            return NotImplemented
        return self.degrees == other.degrees and self.xi == other.xi


def presentation(tower, level, max_degree):
    """Explicit (V, xi) of a LoopTower's level model through max_degree.

    V_k is dual to PH_{k+1} (level 1) or to Ker(lambda') in degree k + 2
    (level 2), and xi on V_k is the transpose of the halving map on
    degree 2k + level, read off the tower's halving table.
    """
    space = tower._space(level, max_degree)
    if level == 2:
        tower.check_klam_stable(min(2 * max_degree + 2, tower.N))
    degrees = [k for k in range(1, max_degree + 1) for _ in range(space(k + level).dim)]
    offset = {}
    for i, k in enumerate(degrees):
        offset.setdefault(k, i)
    xi = {}
    for k in sorted(offset):
        if 2 * k not in offset:
            continue
        tgt = space(k + level)
        cols = {j: [] for j in range(tgt.dim)}
        for i, img in enumerate(tower.halving(2 * k + level)):
            combo = tgt.coordinates(img)
            for j in cols:
                if (combo >> j) & 1:
                    cols[j].append(i)
        for j, hits in cols.items():
            if hits:
                xi[offset[k] + j] = tuple(offset[2 * k] + i for i in hits)
    return AFunctorPresentation(tuple(degrees), xi)


def sv_monomials(degrees, max_degree):
    """All polynomial monomials of degree <= max_degree in generators of the
    given degrees, as sorted index tuples, listed by degree.

    One DFS over the generators in ascending degree: every prefix of a
    monomial is itself a monomial, so each node is filed under its degree
    as it is reached, and a branch stops at the first generator that
    passes max_degree.
    """
    table = [[] for _ in range(max_degree + 1)]
    order = sorted(range(len(degrees)), key=degrees.__getitem__)
    ordered = [degrees[i] for i in order]

    def extend(partial, degree, start):
        table[degree].append(tuple(sorted(partial)))
        for k in range(start, len(order)):
            d = degree + ordered[k]
            if d > max_degree:
                break
            extend(partial + (order[k],), d, k)

    extend((), 0, 0)
    return table


def brute_dims(degrees, xi, max_degree):
    """dim SV_n / (x^2 - xi x) by explicit rank of the ideal, where xi maps
    a generator index to the indices of its square's terms."""
    table = sv_monomials(degrees, max(max_degree, 0))
    dims = [1]
    for n in range(1, max_degree + 1):
        monos = table[n]
        index = {m: i for i, m in enumerate(monos)}
        ideal_rows = []
        for g, gdeg in enumerate(degrees):
            if 2 * gdeg > n:
                continue
            for cof in table[n - 2 * gdeg]:
                vec = 1 << index[tuple(sorted(cof + (g, g)))]
                for target in xi.get(g, ()):
                    vec ^= 1 << index[tuple(sorted(cof + (target,)))]
                ideal_rows.append(vec)
        dims.append(len(monos) - rank(gf2.F2Matrix(tuple(ideal_rows), len(monos))))
    return dims
