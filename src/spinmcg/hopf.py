"""Hopf-algebra kernels and the square-collapse functor A(V, xi).

The kernel of a map f of commutative cocommutative Hopf algebras is
computed degreewise through the cotensor condition: x lies in the kernel
iff f(x) = 0 and (id (x) f) of the reduced coproduct of x vanishes.  The
functor A(V, xi) is the free commutative algebra on V modulo x^2 = xi(x);
rewriting every square terminates in the square-free monomial basis, so
its graded dimensions agree with those of the exterior algebra on V.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .algebra import QAlgebra


class SquareFreeQuotient:
    """The quotient Hopf map A -> A/(g^2 : g generator).

    The target is an exterior algebra and the induced map on
    indecomposables is the identity.  It stands in for the once-looped
    boundary map; that the kernel computation sees no more of that map
    than this is a claim, not something the package tests.
    """

    def __init__(self, model: QAlgebra):
        self.source = model
        self.target_label = f"{model.space} mod squares"

    def target_basis(self, degree: int) -> List:
        square_free = self.source.square_free
        return [m for m in self.source.basis(degree).monomials if square_free(m)]

    def target_dim(self, degree: int) -> int:
        return len(self.target_basis(degree))

    def image_vectors(self, degree: int) -> List[int]:
        """Image of each source basis monomial: itself if square-free, else 0."""
        position = {m: t for t, m in enumerate(self.target_basis(degree))}
        return [
            1 << position[m] if m in position else 0
            for m in self.source.basis(degree).monomials
        ]


def hopf_kernel_dims(f, max_degree: int) -> List[int]:
    """Degreewise dimensions of the Hopf kernel of f.

    f provides .source (a QAlgebra), .target_dim(n) and .image_vectors(n)
    (the target coordinates of f on each source basis monomial); the
    kernel in degree n is the space of x with f(x) = 0 and
    (id (x) f) psi-bar(x) = 0.  Degree zero always contributes 1.
    Each of target_dim and image_vectors is called once per degree.
    """
    model: QAlgebra = f.source
    degrees = range(1, max_degree + 1)
    width = {d: f.target_dim(d) for d in degrees}
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
            for l_mono, r_mono in model.reduced_coproduct(model.from_monos([mono])):
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
    F2 sum of generators of doubled degree.
    """

    __slots__ = ("degrees", "xi")

    def __init__(self, degrees: Tuple[int, ...], xi: Optional[Dict[int, Tuple[int, ...]]] = None):
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

    def dims(self, max_degree: int) -> List[int]:
        """Graded dimensions of A(V, xi): square-free monomial counts."""
        return exterior_dims(self.degrees, max_degree)

    def sv_monomials(self, max_degree: int) -> List[List[Tuple[int, ...]]]:
        """All polynomial monomials of degree <= max_degree, as sorted index
        tuples, listed by degree.

        One DFS over the generators in ascending degree: every prefix of a
        monomial is itself a monomial, so each node is filed under its
        degree as it is reached, and a branch stops at the first generator
        that passes max_degree.
        """
        table: List[List[Tuple[int, ...]]] = [[] for _ in range(max_degree + 1)]
        order = sorted(range(len(self.degrees)), key=self.degrees.__getitem__)
        degrees = [self.degrees[i] for i in order]

        def extend(partial: Tuple[int, ...], degree: int, start: int) -> None:
            table[degree].append(tuple(sorted(partial)))
            for k in range(start, len(order)):
                d = degree + degrees[k]
                if d > max_degree:
                    break
                extend(partial + (order[k],), d, k)

        extend((), 0, 0)
        return table

    def brute_dims(self, max_degree: int) -> List[int]:
        """dim SV_n / (x^2 - xi x) by explicit ideal rank (test oracle)."""
        table = self.sv_monomials(max(max_degree, 0))
        dims = [1]
        for n in range(1, max_degree + 1):
            monos = table[n]
            index = {m: i for i, m in enumerate(monos)}
            ideal_rows = []
            for g, gdeg in enumerate(self.degrees):
                if 2 * gdeg > n:
                    continue
                for cof in table[n - 2 * gdeg]:
                    vec = 1 << index[tuple(sorted(cof + (g, g)))]
                    for target in self.xi.get(g, ()):
                        vec ^= 1 << index[tuple(sorted(cof + (target,)))]
                    ideal_rows.append(vec)
            rank = gf2.rank(gf2.F2Matrix(tuple(ideal_rows), len(monos)))
            dims.append(len(monos) - rank)
        return dims


def exterior_dims(degrees: Sequence[int], max_degree: int) -> List[int]:
    """Coefficients of prod (1 + t^d) through max_degree."""
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    for d in degrees:
        if d > max_degree:
            continue
        for n in range(max_degree, d - 1, -1):
            coeffs[n] += coeffs[n - d]
    return coeffs


def convolve(a: Sequence[int], b: Sequence[int], max_degree: int) -> List[int]:
    out = [0] * (max_degree + 1)
    for i, ai in enumerate(a[: max_degree + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: max_degree + 1 - i]):
            out[i + j] += ai * bj
    return out
