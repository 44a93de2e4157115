"""Assembly of the stable mod-2 Betti table.

The homology of the stable spin mapping class group splits, as a graded
vector space, into the tensor product of two graded factors: the image
of the twice-looped free algebra (an exterior-type algebra on the
generating space computed in maps.cokernel_generators) and the squares
subalgebra of H_*(Q BSpin(2)_+).  The table, the convolution of the two
Poincare series, is data: `spinmcg betti` prints it, and the cor1.8
verification target checks it against its Künneth bound.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .algebra import DEFAULT_MAX_DEGREE
from .maps import check_policy, cokernel_generators, kernel_poincare

# the table needs primitive data two degrees up, and the default model
# degree is where that data is checked
BETTI_CEILING = DEFAULT_MAX_DEGREE - 2


def convolve(a: Sequence[int], b: Sequence[int], max_degree: int) -> List[int]:
    """Product of two Poincare series through max_degree."""
    out = [0] * (max_degree + 1)
    for i, ai in enumerate(a[: max_degree + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: max_degree + 1 - i]):
            out[i + j] += ai * bj
    return out


class BettiTable:
    """degree -> dimension, with the factorization that produced it; data
    only, printed by `spinmcg betti`."""

    __slots__ = ("rows", "provenance")

    def __init__(self, rows: Tuple[Tuple[int, int], ...], provenance: Dict[str, object]):
        if dict(rows).get(0) != 1:
            raise ValueError("degree zero must contribute exactly 1")
        if any(v < 0 for _, v in rows):
            raise ValueError("negative Betti number")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name, value):
        raise AttributeError(f"BettiTable is immutable; cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not BettiTable:
            return NotImplemented
        return self.rows == other.rows and self.provenance == other.provenance

    def dim(self, degree: int) -> int:
        return dict(self.rows)[degree]

    @property
    def max_degree(self) -> int:
        return max(d for d, _ in self.rows)


def spin_betti(max_degree: int, policy: str = "primitive") -> BettiTable:
    """Stable mod-2 Betti numbers through max_degree.

    Needs primitive data up to max_degree + 2, so the one degree bound is
    the model's DEGREE_CAP: cokernel_generators raises DegreeOverflow
    before any work when max_degree + 2 is past it.  The command line's
    narrower limit is BETTI_CEILING.
    """
    check_policy(policy)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    report = cokernel_generators(max_degree, policy)
    loop_dims = list(report.kernel_algebra_dims)
    squares = kernel_poincare(max_degree)
    dims = convolve(loop_dims, squares, max_degree)
    rows = tuple((d, dims[d]) for d in range(max_degree + 1))
    provenance = {
        "tail_policy": policy,
        "loop_image_dims": loop_dims,
        "squares_dims": squares,
        "generator_dims": list(report.g_dims),
        "component_convention": "dimensions taken in the base component; "
        "the transfer lands in the 2-component and is translated",
    }
    return BettiTable(rows, provenance)
