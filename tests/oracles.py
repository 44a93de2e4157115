"""Oracles that the tests check the engine against: dense linear algebra
over a numbered monomial basis, word-level rewriting, the full coproduct
rebuilt from the engine's half, the Cartan formula one factor copy at a
time, full-row primitives, canonical cosets by an explicit solve, the
Sq-naturality scan one index at a time, map images in basis
coordinates, the formal boundary map with its dense per-monomial ranks,
brute-force Hopf kernels, and explicit square-collapse presentations
with their brute-force counts.

The engine keeps every subspace as sparse rows of monomials and numbers
no basis.  The dense route here is the reference: a vector of degree n
is an int bitset whose bit i is the i-th monomial of model.basis(n), and
a matrix is a tuple of such rows."""

from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Tuple

from spinmcg.algebra import Element, get_model
from spinmcg.errors import NonUnique, NoSolution, SpaceMismatch
from spinmcg.maps import partial_on_generator
from spinmcg.words import adem_word, is_admissible, words_of_weight


# ----- dense linear algebra over GF(2): rows are int bitsets -----


class F2Matrix(NamedTuple):
    """Bit-packed matrix; rows[i] holds row i, bit j is column j."""

    rows: Tuple[int, ...]
    n_cols: int

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def _lsb(x):
    return (x & -x).bit_length() - 1


def _set_bits(vec):
    out = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return out


def dense_eliminate(rows, *, lead=_lsb, track=True):
    """Forward elimination, tracking combinations (bit i selects input row
    i) unless track is False: the pivot table {column: (row, combination)}
    and the combinations of the rows that reduce to zero.  Rows are int
    bitsets led by their lowest set bit, or with lead=min sets of column
    keys led by their least key."""
    pivots = {}
    kernel = []
    for i, row in enumerate(rows):
        combo = 1 << i if track else 0
        while row:
            p = lead(row)
            hit = pivots.get(p)
            if hit is None:
                pivots[p] = (row, combo)
                break
            row = row ^ hit[0]
            combo ^= hit[1]
        else:
            kernel.append(combo)
    return pivots, kernel


def rref(rows):
    """Reduced row echelon form of int rows, ordered by pivot column: the
    forward elimination, then back-substitution from the last pivot."""
    pivots = dense_eliminate(rows, track=False)[0]
    done = {}
    mask = 0  # pivot columns of the finished rows
    for p in sorted(pivots, reverse=True):
        row = pivots[p][0]
        hits = row & mask
        while hits:
            row ^= done[_lsb(hits)]
            hits &= hits - 1
        done[p] = row
        mask |= 1 << p
    return tuple(done[p] for p in sorted(done))


def gauss_jordan_rref(rows):
    """Reference RREF: reduce each row by every pivot, then clear the new
    pivot from the others; rows ordered by pivot column."""
    basis = {}  # pivot column -> row; pivot columns are unit columns
    for row in rows:
        for p, b in basis.items():
            if (row >> p) & 1:
                row ^= b
        if not row:
            continue
        p = _lsb(row)
        for q, other in basis.items():
            if (other >> p) & 1:
                basis[q] = other ^ row
        basis[p] = row
    return tuple(basis[p] for p in sorted(basis))


def rank(m):
    """Rank of an F2Matrix: the number of pivots of its forward elimination."""
    return len(dense_eliminate(m.rows, track=False)[0])


def left_kernel(m):
    """RREF basis of the combinations x of the rows (bit i selects row i)
    with x . rows = 0."""
    return rref(dense_eliminate(m.rows)[1])


def sparse_rows_kernel(rows):
    """left_kernel of the matrix whose rows are sets of column keys."""
    return rref(dense_eliminate(rows, lead=min)[1])


def combine(combo, vectors):
    """XOR of the int bitsets that combo selects: bit i selects vectors[i]."""
    out = 0
    for i in _set_bits(combo):
        out ^= vectors[i]
    return out


def bit_set(vec):
    """The set bits of an int: the sparse row of its column numbers."""
    return frozenset(_set_bits(vec))


# ----- coordinates over the numbered monomial basis -----


@lru_cache(maxsize=None)
def basis_index(model, degree):
    """Monomial -> its position in model.basis(degree)."""
    return {m: i for i, m in enumerate(model.basis(degree))}


def to_vector(model, monos, degree):
    """Dense coordinates of a sum of monomials of the degree."""
    index = basis_index(model, degree)
    vec = 0
    for m in monos:
        vec |= 1 << index[m]
    return vec


def to_monos(model, vec, degree):
    """The sum of monomials with these dense coordinates."""
    basis = model.basis(degree)
    return frozenset(basis[i] for i in _set_bits(vec))


def from_vector(model, vec, degree):
    return Element(model, to_monos(model, vec, degree))


def dense_echelon(model, degree, subspace):
    """The dense RREF of an engine subspace of monomial rows."""
    return rref([to_vector(model, row, degree) for row in subspace.basis])


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


def canonical_in_coset_by_solve(model, value):
    """The canonical primitive in value + decomposables, by solving for it.

    Solves for a primitive x whose generator part is that of value, as a
    combination of the echelon basis of P restricted to the generator
    columns, then reduces the decomposable difference x + value against
    the decomposable primitives (the basis vectors of P pivoting past the
    generators).  The engine instead reduces value against all of P once.
    Works in dense coordinates, where the generators are the first bits.
    """
    degree = value.degree
    prims = dense_echelon(model, degree, model.primitives(degree))
    n_gens = len(model.generators_in_degree(degree))
    gen_mask = (1 << n_gens) - 1
    vec = to_vector(model, value.monos, degree)
    pivots = dense_eliminate([b & gen_mask for b in prims])[0]
    combo, target = 0, vec & gen_mask
    while target:
        hit = pivots.get(_lsb(target))
        if hit is None:
            raise NoSolution(f"no primitive in the coset of {value} modulo decomposables")
        target ^= hit[0]
        combo ^= hit[1]
    x = combine(combo, prims)
    dec_prims = [b for b in prims if _lsb(b) >= n_gens]
    if degree % 2 and dec_prims:
        raise NonUnique(f"decomposable primitives in odd degree {degree}")
    residual = x ^ vec
    for b in dec_prims:
        if residual >> _lsb(b) & 1:
            residual ^= b
    result = value + from_vector(model, residual, degree)
    if not model.is_primitive(result):
        raise NoSolution(f"coset representative of {value} is not primitive")
    return result


def coproduct(model, x):
    """Component-normalized coproduct, as (left, right) monomial pairs: the
    counit terms (the window of left degree 0 of the model's product of
    generator coproducts), the half of psi-bar that model.multiply_out
    builds, and the swap of each of their pairs whose left degree is under
    half the total (at exactly half, both orders are in the half
    already)."""
    shift, right_mask = model._pair_shift, model._right_mask
    top = shift + model._deg_shift
    counit = set()
    for m in x.monos:
        counit ^= model._power_product(m, model._psi_gen_pairs, 0, 0, top)
    out = set()
    for p in chain(counit, model.multiply_out(x.monos)):
        left, right = p >> shift, p & right_mask
        out.add((left, right))
        if model.mono_degree(left) < model.mono_degree(right):
            out.add((right, left))
    return frozenset(out)


def reduced_coproduct(model, x):
    """The terms of psi(x) with both tensor factors of positive degree."""
    return frozenset((l, r) for l, r in coproduct(model, x) if l and r)


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
        low = model.mono_degree(g) if q else 0
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
        d = source.mono_degree(gen)
        x = source.from_monos([source.mono((gen,))])
        for a in range(1, d):
            lhs = target.sq_star(a, boundary.value((gen, 0)))
            rhs = boundary.apply_primitive(source.sq_star(a, x))
            if lhs != rhs:
                failures.append((source.gen_word_index(gen), a))
    return failures


@lru_cache(maxsize=None)
def full_row_stage_one(model, degree):
    """The stage-one kernel K as a dense RREF, from a row for every basis
    monomial.

    K is the kernel of (1 (x) pi) psi-bar, where pi keeps the right
    factors that are single generators.  Column keys are (left monomial,
    right generator) pairs built through the public model API, with no
    packed layout and no triangular shortcut.
    """
    single_right = {}  # g -> the terms left (x) h of psi(g) with h one generator
    rows = []
    for mono in model.basis(degree):
        factors = model.factors(mono)
        acc = set()
        for g in sorted(set(factors)):
            if factors.count(g) % 2 == 0:
                continue  # the copies of g give equal terms that cancel in pairs
            if g not in single_right:
                single_right[g] = [
                    (model.factors(left), model.factors(right)[0])
                    for left, right in coproduct(model, model.from_monos([model.mono((g,))]))
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
    return sparse_rows_kernel(rows)


def full_row_stage_two(model, degree, stage1):
    """The primitives P = ker(psi-bar) inside the stage-one kernel, as a
    dense RREF."""
    basis = model.basis(degree)
    rows = []
    for vec in stage1:
        acc = set()
        for i in _set_bits(vec):
            acc.symmetric_difference_update(
                reduced_coproduct(model, model.from_monos([basis[i]]))
            )
        rows.append(frozenset(acc))
    stage2 = sparse_rows_kernel(rows)
    return rref(combine(combo, stage1) for combo in stage2)


@lru_cache(maxsize=None)
def full_row_primitives(model, degree):
    """The dense RREF of the primitives, from a stage-one row for every
    basis monomial, with stage two in every degree."""
    return full_row_stage_two(model, degree, full_row_stage_one(model, degree))


class CoordinateMap:
    """An algebra map given by its values on the source generators.

    `apply` multiplies the values of the factors of each monomial out one
    target product at a time, and `image_vectors` gives the images of the
    source basis monomials in target basis coordinates, the dense form
    that the Hopf-kernel oracle reads."""

    def __init__(self, source, target, values):
        self.source = source
        self.target = target
        self.values = values  # keyed by source generators
        self._images = {}

    def value(self, gen):
        return self.values[gen]

    def apply(self, x):
        if x.model is not self.source:
            raise SpaceMismatch("element not in the source algebra")
        out = self.target.zero()
        for mono in x.monos:
            term = self.target.unit()
            for gen in self.source.factors(mono):
                term = self.target.product(term, self.value(gen))
            out = out + term
        return out

    def image_vectors(self, degree):
        """Target coordinates of the image of each source basis monomial."""
        if degree not in self._images:
            self._images[degree] = tuple(
                to_vector(self.target, self.apply(self.source.from_monos([mono])).monos, degree)
                for mono in self.source.basis(degree)
            )
        return self._images[degree]


def formal_boundary(policy, max_degree):
    """The formal boundary map through max_degree: Q^I abar_r goes to the
    plain Q-word Q^I of the seed value of abar_r, extended multiplicatively.
    It agrees with the boundary only modulo decomposables, and is the
    reference for the per-monomial ranks."""
    source, target = get_model("sigma-cp-inf"), get_model("rp-inf")
    values = {}
    for gen in source.generators(max_degree):
        word, r = source.gen_word_index(gen)
        values[gen] = target.q_word(word, partial_on_generator(r, policy))
    return CoordinateMap(source, target, values)


def formal_ranks(policy, max_degree):
    """(degree, rank, source dim) of the formal boundary map degreewise, in
    full and on the source primitives, as dense ranks in rp-inf basis
    coordinates."""
    fmap = formal_boundary(policy, max_degree)
    source = fmap.source
    full, prim = [], []
    for n in range(1, max_degree + 1):
        images = fmap.image_vectors(n)
        width = max(fmap.target.dim(n), 1)
        full.append((n, rank(F2Matrix(images, width)), source.dim(n)))
        ph = source.primitives(n)
        prim_images = tuple(combine(to_vector(source, v, n), images) for v in ph.basis)
        prim.append((n, rank(F2Matrix(prim_images, width)), ph.dim))
    return full, prim


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
            m for m in self.source.basis(degree)
            if len(set(factors(m))) == len(factors(m))
        ]

    def dim(self, degree):
        return len(self.target_basis(degree))

    def image_vectors(self, degree):
        """Image of each source basis monomial: itself if square-free, else 0."""
        position = {m: t for t, m in enumerate(self.target_basis(degree))}
        return [
            1 << position[m] if m in position else 0
            for m in self.source.basis(degree)
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
        for j, mono in enumerate(model.basis(d)):
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
        for j, mono in enumerate(model.basis(n)):
            vec = cols[n][j]
            for l_mono, r_mono in reduced_coproduct(model, model.from_monos([mono])):
                col = image[r_mono]
                if col:
                    k, li = where[l_mono]
                    vec ^= col << (offsets[k] + li * width[n - k])
            rows.append(vec)
        dims.append(len(left_kernel(F2Matrix(tuple(rows), max(offset, 1)))))
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
    if level not in (1, 2):
        raise ValueError("levels 1 and 2 only")
    space = tower.model.primitives if level == 1 else tower.klam
    if level == 2:
        tower.check_klam_stable(2 * max_degree + 2)
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
            # a vector of tgt is the sum of its echelon rows at the pivots
            # it carries
            if not tgt.contains(img):
                raise ValueError(f"a halving image leaves the level-{level} space")
            for j, p in enumerate(tgt.pivots):
                if p in img:
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
        dims.append(len(monos) - rank(F2Matrix(tuple(ideal_rows), len(monos))))
    return dims
