import itertools
import random

from spinmcg import gf2

from oracles import F2Matrix, bit_set, gauss_jordan_rref, left_kernel, rank, rref


def dense(rows, n_cols=None):
    """Matrix from lists of 0/1 entries."""
    if n_cols is None:
        n_cols = len(rows[0]) if rows else 0
    return F2Matrix(tuple(sum((v & 1) << j for j, v in enumerate(row)) for row in rows), n_cols)


def sparse(m):
    """The rows of a dense matrix as the engine's sparse rows: sets of the
    column numbers of their set bits."""
    return [bit_set(row) for row in m.rows]


def transpose(m):
    cols = [0] * m.n_cols
    for i, row in enumerate(m.rows):
        for j in range(m.n_cols):
            if (row >> j) & 1:
                cols[j] |= 1 << i
    return F2Matrix(tuple(cols), m.n_rows)


def apply(m, vec):
    """m times the column vector vec (a set of column numbers), as a bitset
    over the rows."""
    return sum((sum(row >> j & 1 for j in vec) & 1) << i for i, row in enumerate(m.rows))


def engine_rank(m):
    """The rank of m from the engine: the dimension of the span of its rows."""
    return gf2.F2Subspace.from_vectors(sparse(m)).dim


def test_rank_identity():
    m = dense([[1, 0], [0, 1]])
    assert rank(m) == engine_rank(m) == 2


def test_rank_zero_matrix():
    m = dense([[0, 0, 0, 0]] * 3, 4)
    assert rank(m) == engine_rank(m) == 0


def test_rank_dependent_rows():
    m = dense([[1, 1], [1, 1]])
    assert rank(m) == engine_rank(m) == 1


def tracked_kernel(rows):
    """The combinations of the rows that sum to zero, each as the set of the
    positions of the rows it adds: row i is tagged with {i}, and the rows
    that reduce to zero leave their tags behind."""
    tags = [frozenset({i}) for i in range(len(rows))]
    return gf2.F2Subspace.from_vectors(gf2.eliminate(rows, tags)[1])


def xor_sum(vectors):
    """The F2 sum of sparse rows."""
    acc = frozenset()
    for vec in vectors:
        acc ^= vec
    return acc


def right_kernel(m):
    """Right null space of m, as the left kernel of its transpose."""
    return tracked_kernel(sparse(transpose(m)))


def column_space(m):
    return gf2.F2Subspace.from_vectors(sparse(transpose(m)))


def test_kernel_identity_empty():
    assert right_kernel(dense([[1, 0], [0, 1]])).dim == 0


def test_kernel_zero_matrix_full():
    ker = right_kernel(dense([[0, 0, 0]] * 2, 3))
    assert ker.dim == 3


def test_kernel_hand_solved():
    ker = right_kernel(dense([[1, 1, 0], [0, 0, 1]]))
    assert ker.dim == 1
    assert ker.basis == (frozenset({0, 1}),)  # (1,1,0)
    assert ker.pivots == (0,)


def test_image_identity_full():
    img = column_space(dense([[1, 0], [0, 1]]))
    assert img.dim == 2


def test_image_zero_empty():
    assert column_space(dense([[0, 0]] * 2, 2)).dim == 0


def test_image_hand_solved():
    img = column_space(dense([[1, 0], [1, 0]]))
    assert img.basis == (frozenset({0, 1}),)  # column space spanned by (1,1)


def codim(sub, ambient):
    """Dimension of ambient / sub, for sub contained in ambient."""
    assert sub.is_subspace_of(ambient)
    return ambient.dim - sub.dim


def span_of(*vecs):
    return gf2.F2Subspace.from_vectors(bit_set(v) for v in vecs)


def test_quotient_dim_equal_spaces():
    s = span_of(0b01, 0b10)
    assert codim(s, s) == 0


def test_quotient_dim_zero_in_five():
    zero = span_of()
    full = span_of(*(1 << i for i in range(5)))
    assert codim(zero, full) == 5


def test_quotient_dim_line_in_three():
    line = span_of(0b011)
    full = span_of(0b001, 0b010, 0b100)
    assert codim(line, full) == 2


def test_quotient_dim_rejects_non_subspace():
    line = span_of(0b100)
    plane = span_of(0b001, 0b010)
    assert not line.is_subspace_of(plane)
    assert not plane.contains(line.basis[0])
    assert plane.reduce(line.basis[0]) == frozenset({2})


def test_rank_nullity_exhaustive_small():
    for n_rows, n_cols in [(2, 3), (3, 2), (3, 3)]:
        for bits in itertools.product([0, 1], repeat=n_rows * n_cols):
            rows = [
                sum(bits[i * n_cols + j] << j for j in range(n_cols))
                for i in range(n_rows)
            ]
            m = F2Matrix(tuple(rows), n_cols)
            assert rank(m) == engine_rank(m)
            assert engine_rank(m) + right_kernel(m).dim == n_cols


def test_rank_nullity_random_larger():
    rng = random.Random(7)
    for _ in range(25):
        n_rows, n_cols = rng.randint(1, 30), rng.randint(1, 30)
        rows = tuple(rng.getrandbits(n_cols) for _ in range(n_rows))
        m = F2Matrix(rows, n_cols)
        ker = right_kernel(m)
        assert engine_rank(m) + ker.dim == n_cols
        assert ker.basis == tuple(bit_set(v) for v in left_kernel(transpose(m)))
        for v in ker.basis:
            assert apply(m, v) == 0


def test_echelon_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        s = span_of(*(rng.getrandbits(16) for _ in range(6)))
        again = gf2.F2Subspace.from_vectors(s.basis)
        assert s == again


def test_coordinates_roundtrip():
    # a vector of the span is the sum of the echelon rows at the pivots it
    # carries, and those rows are the ones that were added
    s = span_of(0b0110, 0b1010, 0b0001)
    for combo in range(1 << s.dim):
        chosen = [i for i in range(s.dim) if combo >> i & 1]
        vec = xor_sum(s.basis[i] for i in chosen)
        assert s.contains(vec)
        assert [i for i, p in enumerate(s.pivots) if p in vec] == chosen


def test_sum_and_intersection():
    a = span_of(0b011, 0b100)
    b = span_of(0b011)
    assert gf2.F2Subspace.from_vectors(a.basis + b.basis) == a
    inter = gf2.subspace_intersection(a, b)
    assert inter == b
    # generic sanity: dim(a+b) + dim(a∩b) == dim a + dim b
    rng = random.Random(3)
    for _ in range(20):
        u = span_of(*(rng.getrandbits(10) for _ in range(4)))
        w = span_of(*(rng.getrandbits(10) for _ in range(4)))
        assert (
            gf2.F2Subspace.from_vectors(u.basis + w.basis).dim
            + gf2.subspace_intersection(u, w).dim
            == u.dim + w.dim
        )


def test_intersection_matches_brute_force():
    def span(sub):
        out = {frozenset()}
        for b in sub.basis:
            out |= {v ^ b for v in out}
        return out

    rng = random.Random(5)
    for _ in range(200):
        dim = rng.randint(1, 6)
        u = span_of(*(rng.getrandbits(dim) for _ in range(3)))
        w = span_of(*(rng.getrandbits(dim) for _ in range(3)))
        want = gf2.F2Subspace.from_vectors(span(u) & span(w))
        assert gf2.subspace_intersection(u, w) == want


def random_matrices(rng, count):
    """Seeded shapes: empty, zero rows, duplicates, sparse, and wide rows."""
    yield [], 5
    yield [0, 0, 0], 4
    yield [0b1011] * 3, 4
    for i in range(count):
        kind = i % 4
        if kind == 0:  # dense, any aspect
            n_rows, n_cols = rng.randint(0, 14), rng.randint(1, 24)
            rows = [rng.getrandbits(n_cols) for _ in range(n_rows)]
        elif kind == 1:  # sparse, so rows often depend on each other
            n_rows, n_cols = rng.randint(1, 20), rng.randint(1, 16)
            rows = [
                sum(1 << j for j in range(n_cols) if rng.random() < 0.15)
                for _ in range(n_rows)
            ]
        elif kind == 2:  # duplicates and zero rows drawn from a small pool
            n_cols = rng.randint(1, 20)
            pool = [0] + [rng.getrandbits(n_cols) for _ in range(3)]
            rows = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
        else:  # much wider than tall
            n_cols = rng.randint(100, 600)
            rows = [rng.getrandbits(n_cols) for _ in range(rng.randint(1, 6))]
            rows.append(rows[0] ^ rows[-1])
        yield rows, n_cols


def test_echelon_and_rank_match_gauss_jordan():
    rng = random.Random(2024)
    seen = 0
    for rows, n_cols in random_matrices(rng, 2400):
        want = gauss_jordan_rref(rows)
        got = span_of(*rows)
        assert got.basis == tuple(bit_set(w) for w in want)
        assert got.pivots == tuple(min(bit_set(w)) for w in want)
        assert rank(F2Matrix(tuple(rows), n_cols)) == len(want)
        assert rref(rows) == want  # the oracles' fast dense RREF
        seen += 1
    assert seen >= 2000


def test_echelon_under_a_key_order_is_gauss_jordan_on_permuted_columns():
    # with key, a row is led by its least column in that order: the same
    # echelon basis as the dense one after moving column j to place key(j)
    rng = random.Random(31)
    for rows, n_cols in random_matrices(rng, 400):
        place = list(range(n_cols))
        rng.shuffle(place)
        moved = [sum(1 << place[j] for j in bit_set(row)) for row in rows]
        back = {place[j]: j for j in range(n_cols)}
        want = tuple(frozenset(back[c] for c in bit_set(w)) for w in gauss_jordan_rref(moved))
        got = gf2.F2Subspace.from_vectors((bit_set(r) for r in rows), key=place.__getitem__)
        assert got.basis == want


def test_reduce_leaves_no_key_at_a_pivot():
    rng = random.Random(17)
    for rows, n_cols in random_matrices(rng, 200):
        s = span_of(*rows)
        vec = bit_set(rng.getrandbits(n_cols))
        residual = s.reduce(vec)
        assert not residual & set(s.pivots)
        assert s.contains(residual ^ vec)


def test_rank_equals_echelon_length_and_tracked_kernel():
    # the span eliminates without combination tracking; the tracked route
    # (tracked_kernel) must agree through rank + nullity = rows, and the
    # pivot count (sparse_rank) with the rank itself
    rng = random.Random(11)
    for _ in range(200):
        n_rows, n_cols = rng.randint(1, 40), rng.randint(1, 40)
        rows = [rng.getrandbits(n_cols) for _ in range(n_rows)]
        for _ in range(rng.randint(0, 5)):  # force some dependent rows
            rows.append(rng.choice(rows) ^ rng.choice(rows))
        m = F2Matrix(tuple(rows), n_cols)
        r = rank(m)
        assert r == engine_rank(m)
        assert r + tracked_kernel(sparse(m)).dim == len(rows)
        # a rank is a pivot count over rows that may stream past once
        assert gf2.sparse_rank(iter(sparse(m))) == r


def test_tracked_kernel_matches_the_bitset_kernel():
    rng = random.Random(11)
    for _ in range(60):
        n_rows, n_cols = rng.randint(0, 12), rng.randint(1, 14)
        rows = tuple(rng.getrandbits(n_cols) & rng.getrandbits(n_cols) for _ in range(n_rows))
        # any ordered keys serve as columns: here strings, not column numbers
        keyed = [frozenset(f"c{j:02d}" for j in range(n_cols) if row >> j & 1) for row in rows]
        want = left_kernel(F2Matrix(rows, n_cols))
        got = tracked_kernel(keyed)
        assert got.basis == tuple(bit_set(combo) for combo in want)
        for combo in got.basis:
            assert xor_sum(keyed[i] for i in combo) == frozenset()


def test_supplied_pivots_give_the_kernel_of_all_rows():
    # rows led by distinct largest keys are in echelon form already, so they
    # can be supplied at the leads a reduction reaches instead of passed in
    rng = random.Random(13)
    for _ in range(100):
        n_cols = rng.randint(1, 16)
        leads = rng.sample(range(n_cols), rng.randint(0, n_cols))
        echelon = {p: frozenset({p} | {j for j in range(p) if rng.random() < 0.4}) for p in leads}
        free = [
            frozenset(j for j in range(n_cols) if rng.random() < 0.3)
            for _ in range(rng.randint(0, 6))
        ]
        rows = free + [echelon[p] for p in leads]

        def supply(p):
            if p not in echelon:
                return None
            return echelon[p], frozenset({len(free) + leads.index(p)})

        kernel = gf2.eliminate(
            free, [frozenset({i}) for i in range(len(free))], lead=max, supply=supply
        )[1]
        want = left_kernel(F2Matrix(tuple(sum(1 << j for j in row) for row in rows), n_cols))
        assert gf2.F2Subspace.from_vectors(kernel).basis == tuple(bit_set(c) for c in want)


def test_tracked_combinations_may_be_sets_of_keys():
    # a combination tracked as the set of the keys of the rows it adds is
    # the kernel vector itself, as primitives tracks monomials
    rng = random.Random(19)
    for _ in range(100):
        names = [f"m{i}" for i in range(rng.randint(1, 10))]
        bits = [rng.getrandbits(6) for _ in names]
        rows = {m: bit_set(b) for m, b in zip(names, bits)}
        kernel = gf2.eliminate(list(rows.values()), [frozenset({m}) for m in names])[1]
        for vec in kernel:
            assert vec and xor_sum(rows[m] for m in vec) == frozenset()
        assert len(kernel) == len(left_kernel(F2Matrix(tuple(bits), 6)))
