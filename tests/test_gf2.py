import itertools
import random

import pytest

from spinmcg import gf2
from spinmcg.errors import NotASubspace

from oracles import rank, sparse_combine


def dense(rows, n_cols=None):
    """Matrix from lists of 0/1 entries."""
    if n_cols is None:
        n_cols = len(rows[0]) if rows else 0
    return gf2.F2Matrix(tuple(sum((v & 1) << j for j, v in enumerate(row)) for row in rows), n_cols)


def transpose(m):
    cols = [0] * m.n_cols
    for i, row in enumerate(m.rows):
        for j in range(m.n_cols):
            if (row >> j) & 1:
                cols[j] |= 1 << i
    return gf2.F2Matrix(tuple(cols), m.n_rows)


def apply(m, vec):
    """m times the column vector vec, as a bitset over the rows."""
    return sum(((row & vec).bit_count() & 1) << i for i, row in enumerate(m.rows))


def test_rank_identity():
    assert rank(dense([[1, 0], [0, 1]])) == 2


def test_rank_zero_matrix():
    assert rank(dense([[0, 0, 0, 0]] * 3, 4)) == 0


def test_rank_dependent_rows():
    assert rank(dense([[1, 1], [1, 1]])) == 1


def right_kernel(m):
    """Right null space of m, as the left kernel of its transpose."""
    return gf2.left_kernel(transpose(m))


def column_space(m):
    return gf2.F2Subspace.from_vectors(transpose(m).rows, m.n_rows)


def test_kernel_identity_empty():
    assert right_kernel(dense([[1, 0], [0, 1]])).dim == 0


def test_kernel_zero_matrix_full():
    ker = right_kernel(dense([[0, 0, 0]] * 2, 3))
    assert ker.dim == 3


def test_kernel_hand_solved():
    ker = right_kernel(dense([[1, 1, 0], [0, 0, 1]]))
    assert ker.dim == 1
    assert ker.basis == (0b011,)  # (1,1,0)


def test_image_identity_full():
    img = column_space(dense([[1, 0], [0, 1]]))
    assert img.dim == 2


def test_image_zero_empty():
    assert column_space(dense([[0, 0]] * 2, 2)).dim == 0


def test_image_hand_solved():
    img = column_space(dense([[1, 0], [1, 0]]))
    assert img.basis == (0b11,)  # column space spanned by (1,1)


def codim(sub, ambient):
    """Dimension of ambient / sub, for sub contained in ambient."""
    assert sub.is_subspace_of(ambient)
    return ambient.dim - sub.dim


def test_quotient_dim_equal_spaces():
    s = gf2.F2Subspace.from_vectors([0b01, 0b10], 2)
    assert codim(s, s) == 0


def test_quotient_dim_zero_in_five():
    zero = gf2.F2Subspace.from_vectors([], 5)
    full = gf2.F2Subspace.from_vectors([1 << i for i in range(5)], 5)
    assert codim(zero, full) == 5


def test_quotient_dim_line_in_three():
    line = gf2.F2Subspace.from_vectors([0b011], 3)
    full = gf2.F2Subspace.from_vectors([0b001, 0b010, 0b100], 3)
    assert codim(line, full) == 2


def test_quotient_dim_rejects_non_subspace():
    line = gf2.F2Subspace.from_vectors([0b100], 3)
    plane = gf2.F2Subspace.from_vectors([0b001, 0b010], 3)
    assert not line.is_subspace_of(plane)
    with pytest.raises(NotASubspace):
        plane.coordinates(line.basis[0])


def test_rank_nullity_exhaustive_small():
    for n_rows, n_cols in [(2, 3), (3, 2), (3, 3)]:
        for bits in itertools.product([0, 1], repeat=n_rows * n_cols):
            rows = [
                sum(bits[i * n_cols + j] << j for j in range(n_cols))
                for i in range(n_rows)
            ]
            m = gf2.F2Matrix(tuple(rows), n_cols)
            assert rank(m) + gf2.left_kernel(transpose(m)).dim == n_cols


def test_rank_nullity_random_larger():
    rng = random.Random(7)
    for _ in range(25):
        n_rows, n_cols = rng.randint(1, 30), rng.randint(1, 30)
        rows = tuple(rng.getrandbits(n_cols) for _ in range(n_rows))
        m = gf2.F2Matrix(rows, n_cols)
        ker = gf2.left_kernel(transpose(m))
        assert rank(m) + ker.dim == n_cols
        for v in ker.basis:
            assert apply(m, v) == 0


def test_echelon_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        vecs = [rng.getrandbits(16) for _ in range(6)]
        s = gf2.F2Subspace.from_vectors(vecs, 16)
        again = gf2.F2Subspace.from_vectors(s.basis, 16)
        assert s == again


def test_coordinates_roundtrip():
    s = gf2.F2Subspace.from_vectors([0b0110, 0b1010, 0b0001], 4)
    for combo in range(1 << s.dim):
        vec = 0
        for i, b in enumerate(s.basis):
            if (combo >> i) & 1:
                vec ^= b
        assert s.coordinates(vec) == combo
        assert gf2.combine(combo, s.basis) == vec


def test_sum_and_intersection():
    a = gf2.F2Subspace.from_vectors([0b011, 0b100], 3)
    b = gf2.F2Subspace.from_vectors([0b011], 3)
    assert gf2.subspace_sum(a, b) == a
    inter = gf2.subspace_intersection(a, b)
    assert inter == b
    # generic sanity: dim(a+b) + dim(a∩b) == dim a + dim b
    rng = random.Random(3)
    for _ in range(20):
        u = gf2.F2Subspace.from_vectors([rng.getrandbits(10) for _ in range(4)], 10)
        w = gf2.F2Subspace.from_vectors([rng.getrandbits(10) for _ in range(4)], 10)
        assert (
            gf2.subspace_sum(u, w).dim + gf2.subspace_intersection(u, w).dim
            == u.dim + w.dim
        )


def test_intersection_matches_brute_force():
    def span(sub):
        out = {0}
        for b in sub.basis:
            out |= {v ^ b for v in out}
        return out

    rng = random.Random(5)
    for _ in range(200):
        dim = rng.randint(1, 6)
        u = gf2.F2Subspace.from_vectors([rng.getrandbits(dim) for _ in range(3)], dim)
        w = gf2.F2Subspace.from_vectors([rng.getrandbits(dim) for _ in range(3)], dim)
        want = gf2.F2Subspace.from_vectors(span(u) & span(w), dim)
        assert gf2.subspace_intersection(u, w) == want


def test_combine_xors_the_selected_vectors():
    rng = random.Random(11)
    for _ in range(200):
        vectors = [rng.getrandbits(12) for _ in range(rng.randint(0, 9))]
        combo = rng.getrandbits(len(vectors))
        want = 0
        for i, v in enumerate(vectors):
            if (combo >> i) & 1:
                want ^= v
        assert gf2.combine(combo, vectors) == want
    assert gf2.combine(0b101, {0: 0b11, 2: 0b110}) == 0b101


def test_mixed_ambient_dims_rejected():
    a = gf2.F2Subspace.from_vectors([0b1], 2)
    b = gf2.F2Subspace.from_vectors([0b1], 3)
    with pytest.raises(NotASubspace):
        gf2.subspace_sum(a, b)
    with pytest.raises(NotASubspace):
        gf2.subspace_intersection(a, b)


def gauss_jordan_rref(rows):
    """Reference RREF: reduce each row by every pivot, then clear the new pivot."""
    basis = {}  # pivot column -> row; pivot columns are unit columns
    for row in rows:
        for p, b in basis.items():
            if (row >> p) & 1:
                row ^= b
        if not row:
            continue
        p = (row & -row).bit_length() - 1
        for q, other in basis.items():
            if (other >> p) & 1:
                basis[q] = other ^ row
        basis[p] = row
    return tuple(basis[p] for p in sorted(basis))


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
        assert gf2.F2Subspace.from_vectors(rows, n_cols).basis == want
        assert rank(gf2.F2Matrix(tuple(rows), n_cols)) == len(want)
        seen += 1
    assert seen >= 2000


def test_rank_equals_echelon_length_and_tracked_kernel():
    # rank and _rref eliminate without combination tracking; the tracked
    # route (left_kernel) must agree through rank + nullity = rows
    rng = random.Random(11)
    for _ in range(200):
        n_rows, n_cols = rng.randint(1, 40), rng.randint(1, 40)
        rows = [rng.getrandbits(n_cols) for _ in range(n_rows)]
        for _ in range(rng.randint(0, 5)):  # force some dependent rows
            rows.append(rng.choice(rows) ^ rng.choice(rows))
        m = gf2.F2Matrix(tuple(rows), n_cols)
        r = rank(m)
        assert r == len(gf2.F2Subspace.from_vectors(rows, n_cols).basis)
        assert r + gf2.left_kernel(m).dim == len(rows)


def test_sparse_left_kernel_matches_the_bitset_kernel():
    rng = random.Random(11)
    for _ in range(60):
        n_rows, n_cols = rng.randint(0, 12), rng.randint(1, 14)
        rows = tuple(rng.getrandbits(n_cols) & rng.getrandbits(n_cols) for _ in range(n_rows))
        # any ordered keys serve as columns: here strings, not column numbers
        sparse = [frozenset(f"c{j:02d}" for j in range(n_cols) if row >> j & 1) for row in rows]
        want = gf2.left_kernel(gf2.F2Matrix(rows, n_cols))
        assert gf2.sparse_left_kernel(sparse) == want
        for combo in want.basis:
            assert sparse_combine(combo, sparse) == frozenset()


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
            return echelon[p], 1 << (len(free) + leads.index(p))

        kernel = gf2._eliminate(free, lead=max, supply=supply)[1]
        assert gf2.F2Subspace.from_vectors(kernel, len(rows)) == gf2.sparse_left_kernel(rows)
