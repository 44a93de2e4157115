"""Exact linear algebra over GF(2) on sparse rows.

A row is a frozenset of column keys and addition is symmetric difference,
so a row costs its length, not the width of all columns, and the columns
need no numbering: the engine's keys are packed monomials and packed
tensor pairs.  A subspace is kept as its reduced echelon basis, each row
led by its least key under a total order of the keys, so subspace
equality under one order is structural equality.

Solving in a subspace is a reduction against that basis: the residual is
the unique element of the coset vec + span with no key at any pivot,
empty exactly when vec lies in the span.  A vector of the span is the sum
of the basis rows whose pivots it carries.

One forward elimination (eliminate) serves every span, rank and kernel.
A rank is a pivot count: the rows are fed to it one at a time, with no
combination tracked, so a caller may stream them from a generator and
only the pivot rows are ever held.  A kernel is what the rows that
reduce to zero leave behind, each row tagged with the vector it stands
for.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple


class F2Subspace(NamedTuple):
    """Subspace given by a reduced echelon basis of sparse rows.

    basis[i] is led by pivots[i]: the least key of the row under the order
    the subspace was built with, and a key of no other row.  Rows are
    ordered by pivot.
    """

    basis: Tuple[FrozenSet, ...]
    pivots: Tuple

    @staticmethod
    def from_vectors(vectors: Iterable[Iterable], key: Optional[Callable] = None) -> "F2Subspace":
        """The reduced echelon basis of the span of the vectors.

        key orders the column keys (their natural order when None).  It is
        evaluated once per key in the support of the vectors.
        """
        rows = [frozenset(v) for v in vectors if v]
        if key is None:
            order_of, lead = None, min
        else:
            order_of = {c: key(c) for row in rows for c in row}.__getitem__

            def lead(row):
                return min(row, key=order_of)

        pivots = eliminate(rows, lead=lead)[0]
        # back-substitution, pivots finished from the last: a finished row
        # has no key at any other finished pivot, so each row is cleared by
        # the finished rows at the pivots it carries
        done: Dict = {}
        for p in sorted(pivots, key=order_of, reverse=True):
            row = pivots[p][0]
            for q in done.keys() & row:
                row = row ^ done[q]
            done[p] = row
        order = tuple(sorted(done, key=order_of))
        return F2Subspace(tuple(done[p] for p in order), order)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: Iterable) -> FrozenSet:
        """Residual of vec after reduction against the basis."""
        acc = set(vec)
        for p, row in zip(self.pivots, self.basis):
            if p in acc:
                acc.symmetric_difference_update(row)
        return frozenset(acc)

    def contains(self, vec: Iterable) -> bool:
        return not self.reduce(vec)

    def is_subspace_of(self, other: "F2Subspace") -> bool:
        return all(other.contains(b) for b in self.basis)


def eliminate(
    rows: Iterable,
    tags: Optional[Iterable] = None,
    *,
    lead: Callable = min,
    supply: Optional[Callable] = None,
) -> Tuple[Dict, List]:
    """Forward elimination of sparse rows, with combination tracking: the
    one elimination behind every span, rank and kernel.

    Each row is led by lead(row), its smallest key by default.  tags[i] is
    what rows[i] stands for, anything closed under ^: in practice the
    vector, a frozenset of keys, whose image the row is.  Returns the
    pivot table (pivot -> (reduced row, its tag)) and the tags of the rows
    that reduce to zero.  Such a row leaves behind the sum of the tags it
    combined, so with vectors as tags the second result spans the kernel
    of the map that sends each vector to its row, and nothing is
    transposed.  Without tags every tag is 0, so callers that need only
    the reduced rows pay for no tracking.

    supply(p), when given, is asked for a pivot at a lead p that the
    table misses: it returns (a row led by p, its tag), which joins the
    table, or None, and then the row being reduced becomes the pivot.  So
    the rows of a system whose leads are already distinct are built only
    when a reduction reaches them.
    """
    pivots: Dict = {}
    kernel = []
    for row, combo in zip(rows, repeat(0) if tags is None else tags):
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
            combo = combo ^ hit[1]
        else:
            kernel.append(combo)
    return pivots, kernel


def sparse_rank(rows: Iterable[FrozenSet]) -> int:
    """The rank of the rows: the number of pivots their elimination finds,
    with nothing tracked or back-substituted; rows may stream from any
    iterable."""
    return len(eliminate(rows)[0])


def subspace_intersection(a: F2Subspace, b: F2Subspace) -> F2Subspace:
    """a ∩ b, from the kernel of the stacked bases: a sum of rows of a that
    equals a sum of rows of b lies in both.  The rows of a are tagged with
    themselves and those of b with zero, so each kernel tag is the a-side
    of such a sum."""
    tags = a.basis + (frozenset(),) * b.dim
    return F2Subspace.from_vectors(eliminate(a.basis + b.basis, tags)[1])
