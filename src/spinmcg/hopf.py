"""The square-collapse functor A(V, xi) and graded series helpers.

A(V, xi) is the free commutative algebra on V modulo x^2 = xi(x).  Under
an order that counts factors first, the relations x_g^2 + xi(x_g) have
pairwise coprime leading terms x_g^2, so they are a Groebner basis
whatever xi is (Cox, Little & O'Shea, *Ideals, Varieties, and
Algorithms*, section 2.9).  The square-free monomials are then a basis of
the quotient, and its graded dimensions are those of the exterior algebra
on V.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


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
