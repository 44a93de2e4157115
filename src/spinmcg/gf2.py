"""Exact linear algebra over GF(2) using int bitsets.

Rows are Python ints; bit j is column j.  Addition is XOR.  All bases are
kept in canonical reduced echelon form so subspace equality is structural
equality.  Very sparse rows can instead be frozensets of column keys
(sparse_left_kernel), which need neither column numbers nor an int as
wide as all columns.

A combination of vectors is an int bitset too: bit i selects vectors[i]
(combine).  Solving in a subspace is a reduction against its echelon
basis: the residual is the unique element of the coset vec + span with
no bits at any pivot, zero exactly when vec lies in the span.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from .errors import NotASubspace


def _lsb(x: int) -> int:
    """Index of the least significant set bit."""
    return (x & -x).bit_length() - 1


def _rref(rows: Iterable[int]) -> Tuple[int, ...]:
    """Reduced row echelon form, rows ordered by pivot column.

    Back-substitution over the pivot table of the forward elimination:
    pivots are finished in descending order, and a finished row has no
    bits at any other pivot column, so each row is cleared by XORing in
    the finished rows at its set pivot bits above its own pivot.
    """
    pivots = _eliminate(rows, track=False)[0]
    done: Dict[int, int] = {}
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


class F2Matrix(NamedTuple):
    """Bit-packed matrix; rows[i] holds row i, bit j is column j."""

    rows: Tuple[int, ...]
    n_cols: int

    @property
    def n_rows(self) -> int:
        return len(self.rows)


class F2Subspace(NamedTuple):
    """Subspace given by a reduced echelon basis of row vectors."""

    ambient_dim: int
    basis: Tuple[int, ...]

    @staticmethod
    def from_vectors(vectors: Iterable[int], ambient_dim: int) -> "F2Subspace":
        return F2Subspace(ambient_dim, _rref(vectors))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> Tuple[int, ...]:
        return tuple(_lsb(b) for b in self.basis)

    def reduce(self, vec: int) -> int:
        """Residual of vec after reduction against the basis."""
        for b in self.basis:
            if (vec >> _lsb(b)) & 1:
                vec ^= b
        return vec

    def contains(self, vec: int) -> bool:
        return self.reduce(vec) == 0

    def coordinates(self, vec: int) -> int:
        """vec as a combination of the echelon basis (bit i selects
        basis[i]); vec must lie in the span."""
        combo = 0
        for i, b in enumerate(self.basis):
            if (vec >> _lsb(b)) & 1:
                vec ^= b
                combo |= 1 << i
        if vec:
            raise NotASubspace("vector outside subspace")
        return combo

    def is_subspace_of(self, other: "F2Subspace") -> bool:
        return all(other.contains(b) for b in self.basis)


def combine(combo: int, vectors) -> int:
    """XOR of the int bitsets that combo selects: bit i selects vectors[i]."""
    out = 0
    while combo:
        out ^= vectors[_lsb(combo)]
        combo &= combo - 1
    return out


def _eliminate(
    rows: Iterable,
    *,
    track: bool = True,
    lead: Callable = _lsb,
    supply: Optional[Callable] = None,
) -> Tuple[Dict, List[int]]:
    """Forward elimination, optionally with combination tracking.

    Rows are int bitsets led by their lowest set bit, or, with lead=min
    or lead=max, sparse rows: frozensets of totally ordered column keys,
    led by their smallest or largest key (XOR is symmetric difference for
    both).  Returns the pivot table (pivot column -> (reduced row,
    combination of the input rows)) and the combinations of the rows
    that reduce to zero.  With track=False every combination is 0, so
    callers that only need the reduced rows do not pay for a bitset as
    wide as the input.  No transposition of wide rows.

    supply(p), when given, is asked for a pivot at a lead p that the
    table misses: it returns (a row led by p, its combination), which
    joins the table, or None, and then the row being reduced becomes the
    pivot.  So the rows of a system whose leads are already distinct
    are built only when a reduction reaches them.
    """
    pivots: Dict = {}
    kernel_combos = []
    for i, row in enumerate(rows):
        combo = 1 << i if track else 0
        while row:
            p = lead(row)
            hit = pivots.get(p)
            if hit is None:
                hit = supply(p) if supply is not None else None
                if hit is None:
                    pivots[p] = (row, combo)
                    break
                pivots[p] = hit
            row = row ^ hit[0]
            combo ^= hit[1]
        else:
            kernel_combos.append(combo)
    return pivots, kernel_combos


def left_kernel(m: F2Matrix) -> F2Subspace:
    """Combinations x of the rows with x . rows = 0.

    Rows that reduce to zero leave their combination behind, so no wide
    matrix is transposed.  For the right null space of m, pass the
    columns of m as the rows.
    """
    return F2Subspace.from_vectors(_eliminate(m.rows)[1], m.n_rows)


def sparse_left_kernel(rows: Sequence[FrozenSet]) -> F2Subspace:
    """left_kernel of the matrix whose rows are these sets of column keys.

    The keys need no numbering, and a row costs its length, not the
    width of all columns: the right form for a few nonzero entries per
    row among very many columns.
    """
    return F2Subspace.from_vectors(_eliminate(rows, lead=min)[1], len(rows))


def subspace_sum(a: F2Subspace, b: F2Subspace) -> F2Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise NotASubspace("ambient dimensions differ")
    return F2Subspace.from_vectors(a.basis + b.basis, a.ambient_dim)


def subspace_intersection(a: F2Subspace, b: F2Subspace) -> F2Subspace:
    """Intersection via the left kernel of the stacked basis matrix."""
    if a.ambient_dim != b.ambient_dim:
        raise NotASubspace("ambient dimensions differ")
    stacked = F2Matrix(a.basis + b.basis, a.ambient_dim)
    a_part = (1 << len(a.basis)) - 1
    vectors = [combine(combo & a_part, a.basis) for combo in left_kernel(stacked).basis]
    return F2Subspace.from_vectors(vectors, a.ambient_dim)

