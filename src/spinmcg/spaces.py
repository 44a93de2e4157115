"""Base space homology models.

Four graded coalgebras over F2, each with one basis class per index:

  rp-inf        e_r  in degree r       (r >= 0)
  bspin2        a_i  in degree 2i      (i >= 0)
  bspin3        b_i  in degree 4i      (i >= 0)
  sigma-cp-inf  abar_r in degree 2r+1  (r >= 0)

The first three carry the binomial (divided power) coproduct dual to a
polynomial cohomology ring on one generator; the suspension classes
abar_r are primitive.  Both coproducts are stated once, by the model:
QAlgebra._psi_full (algebra.py) builds the coproduct of each base class
there, and of every Dyer-Lashof generator from it.  This module states
the classes and their dual Steenrod action, which is determined by
Sq^k w^n = C(n, k) w^(n+k) on the cohomology generator w, transcribed
through Lucas' theorem; for bspin2/bspin3/sigma-cp-inf only the
operations of degree divisible by 2 resp. 4 resp. 2 act.
"""

from __future__ import annotations

from typing import Dict, List

SPACES = ("rp-inf", "bspin2", "bspin3", "sigma-cp-inf")

# degree of the class with a given index: degree = _STEP * index + _SHIFT.
# _STEP is also the degree of the cohomology generator, so the Steenrod
# operations Sq^k that can act nontrivially have k = 0 mod _STEP
_STEP = {"rp-inf": 1, "bspin2": 2, "bspin3": 4, "sigma-cp-inf": 2}
_SHIFT = {"rp-inf": 0, "bspin2": 0, "bspin3": 0, "sigma-cp-inf": 1}
_PREFIX = {"rp-inf": "e", "bspin2": "a", "bspin3": "b", "sigma-cp-inf": "abar"}


def binom_mod2(n: int, k: int) -> int:
    """C(n, k) mod 2 by Lucas; zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if (k & (n - k)) == 0 else 0


def check_space(space: str) -> None:
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")


def class_degree(space: str, index: int) -> int:
    check_space(space)
    if index < 0:
        raise ValueError("negative class index")
    return _STEP[space] * index + _SHIFT[space]


def class_prefix(space: str) -> str:
    return _PREFIX[space]


def has_degree_zero_class(space: str) -> bool:
    return _SHIFT[space] == 0


def indices_up_to(space: str, max_degree: int) -> List[int]:
    step, shift = _STEP[space], _SHIFT[space]
    out = []
    i = 0
    while step * i + shift <= max_degree:
        out.append(i)
        i += 1
    return out


def steenrod_dual(space: str, k: int, index: int) -> Dict[int, int]:
    """Dual Steenrod operation Sq^k_* on the class, as {index: coeff}.

    Sq^k_* lowers degree by exactly k and vanishes unless k is a
    multiple of the space's cohomology generator degree.
    """
    check_space(space)
    if k < 0:
        raise ValueError("negative Steenrod index")
    step = _STEP[space]
    if k % step:
        return {}
    m = k // step
    coeff = binom_mod2(index - m, m)
    return {index - m: coeff} if coeff else {}


_LAMBDA_OFFSET = {"lambda": 0, "lambda'": 1, "lambda''": 2}


def lambda_sq_index(kind: str, degree: int) -> int | None:
    """The k with lambda-kind = Sq^k_* on classes of this degree.

    Returns None when the degree parity does not match the kind
    (deg 2k for lambda, 2k+1 for lambda', 2k+2 for lambda'').  The
    operation lands in degree `degree - k`.
    """
    if kind not in _LAMBDA_OFFSET:
        raise ValueError(f"unknown lambda kind {kind!r}")
    offset = _LAMBDA_OFFSET[kind]
    if (degree - offset) % 2 or degree - offset < 0:
        return None
    return (degree - offset) // 2

