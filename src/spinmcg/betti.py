"""Assembly of the stable mod-2 Betti table.

The homology of the stable spin mapping class group splits, as a graded
vector space, into the tensor product of two graded factors: the image
of the twice-looped free algebra (an exterior-type algebra on the
generating space computed in maps.cokernel_generators) and the squares
subalgebra of H_*(Q BSpin(2)_+).  The table is the convolution of the
two Poincare series.  A Künneth upper bound from the twice-looped model
and the free algebra on BSpin(3) serves as an exact inequality check.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .algebra import DEFAULT_MAX_DEGREE, get_model
from .loops import tower
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
    """degree -> dimension, with the factorization that produced it."""

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

    def to_csv(self) -> str:
        lines = ["degree,dimension"]
        lines.extend(f"{d},{v}" for d, v in self.rows)
        return "\n".join(lines) + "\n"

    def to_json_rows(self) -> List[str]:
        loop_factor = self.provenance["loop_image_dims"]
        squares = self.provenance["squares_dims"]
        out = []
        for d, v in self.rows:
            factors = {
                "loop_image": [
                    [p, loop_factor[p], squares[d - p]]
                    for p in range(d + 1)
                    if loop_factor[p] and squares[d - p]
                ],
            }
            out.append(
                json.dumps({"degree": d, "dim": v, "factors": factors}, sort_keys=True)
            )
        return out


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


class BoundReport(NamedTuple):
    rows: Tuple[Tuple[int, int, int], ...]  # (degree, dim, bound)

    @property
    def holds(self) -> bool:
        return all(dim <= bound for (_, dim, bound) in self.rows)


def corollary18_check(max_degree: int) -> BoundReport:
    """Exact inequality: Betti dims never exceed the Künneth bound from
    the twice-looped model tensored with the free algebra on BSpin(3).
    The table is the primitive-tail one; both tails give the same rows."""
    table = spin_betti(max_degree)
    omega2 = tower().dims(2, max_degree)
    bspin3 = get_model("bspin3")
    b3_dims = [bspin3.dim(n) for n in range(max_degree + 1)]
    bound = convolve(omega2, b3_dims, max_degree)
    rows = tuple((d, table.dim(d), bound[d]) for d in range(max_degree + 1))
    return BoundReport(rows)
