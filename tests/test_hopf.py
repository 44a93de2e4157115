import itertools
import random

import pytest

from spinmcg.algebra import get_model
from spinmcg.betti import convolve
from spinmcg.loops import exterior_dims, tower

from oracles import (
    AFunctorPresentation,
    CoordinateMap,
    F2Matrix,
    SquareFreeQuotient,
    basis_index,
    brute_dims,
    hopf_kernel_dims,
    left_kernel,
    presentation,
    reduced_coproduct,
    sv_monomials,
)


B2 = get_model("bspin2")


def polynomial_dims(degrees, max_degree):
    """Coefficients of prod 1/(1 - t^d) through max_degree."""
    coeffs = [0] * (max_degree + 1)
    coeffs[0] = 1
    for d in degrees:
        if d > max_degree:
            continue
        for n in range(d, max_degree + 1):
            coeffs[n] += coeffs[n - d]
    return coeffs


def identity_map(model, max_degree):
    values = {g: model.from_monos([model.mono((g,))]) for g in model.generators(max_degree)}
    return CoordinateMap(model, model, values)


def trivial_map(model, max_degree):
    values = {g: model.zero() for g in model.generators(max_degree)}
    return CoordinateMap(model, model, values)


def test_kernel_of_identity_is_trivial():
    dims = hopf_kernel_dims(identity_map(B2, 8), 8)
    assert dims == [1] + [0] * 8


def test_kernel_of_trivial_is_everything():
    dims = hopf_kernel_dims(trivial_map(B2, 8), 8)
    assert dims == [B2.dim(n) for n in range(9)]


def test_kernel_of_square_free_quotient_is_squares():
    dims = hopf_kernel_dims(SquareFreeQuotient(B2), 10)
    assert dims == [B2.dim(n // 2) if n % 2 == 0 else 0 for n in range(11)]


def per_term_kernel_dims(f, max_degree):
    """Reference cotensor kernel: looks up f and the basis positions afresh
    for every psi-bar term."""
    model = f.source
    dims = [1]
    for n in range(1, max_degree + 1):
        offsets = {}
        offset = f.target.dim(n)
        for k in range(1, n):
            offsets[k] = offset
            offset += model.dim(k) * f.target.dim(n - k)
        rows = []
        for mono in model.basis(n):
            vec = f.image_vectors(n)[basis_index(model, n)[mono]]
            for l_mono, r_mono in reduced_coproduct(model, model.from_monos([mono])):
                k = model.mono_degree(l_mono)
                fr = f.image_vectors(n - k)[basis_index(model, n - k)[r_mono]]
                pos = offsets[k] + basis_index(model, k)[l_mono] * f.target.dim(n - k)
                vec ^= fr << pos
            rows.append(vec)
        dims.append(len(left_kernel(F2Matrix(tuple(rows), max(offset, 1)))))
    return dims


@pytest.mark.parametrize(
    "make",
    [
        lambda: SquareFreeQuotient(B2),
        lambda: identity_map(B2, 8),
        lambda: trivial_map(B2, 8),
    ],
    ids=["square-free-quotient", "identity", "trivial"],
)
def test_kernel_matches_per_term_reference(make):
    assert hopf_kernel_dims(make(), 8) == per_term_kernel_dims(make(), 8)


class CountingMap:
    """Wraps f and counts the calls per degree of target.dim and image_vectors."""

    def __init__(self, f):
        self.f = f
        self.source = f.source
        self.target = self
        self.calls = []

    def dim(self, degree):
        self.calls.append(("target.dim", degree))
        return self.f.target.dim(degree)

    def image_vectors(self, degree):
        self.calls.append(("image_vectors", degree))
        return self.f.image_vectors(degree)


def test_kernel_reads_each_degree_of_f_once():
    f = CountingMap(SquareFreeQuotient(B2))
    hopf_kernel_dims(f, 6)
    assert sorted(f.calls) == sorted(
        (name, d) for name in ("image_vectors", "target.dim") for d in range(1, 7)
    )


def test_kernel_closed_under_products():
    # spot check on the one-variable toy: even powers multiply to even powers
    sig = get_model("sigma-cp-inf")
    dims = hopf_kernel_dims(SquareFreeQuotient(sig), 8)
    assert dims == [sig.dim(n // 2) if n % 2 == 0 else 0 for n in range(9)]


def test_afunctor_rejects_bad_xi():
    with pytest.raises(ValueError):
        AFunctorPresentation((1, 3), {0: (1,)})  # 3 != 2*1


def test_afunctor_exterior_when_xi_zero():
    assert brute_dims((1, 2, 3), {}, 6) == exterior_dims((1, 2, 3), 6)


def test_afunctor_single_generator():
    assert exterior_dims((1,), 4) == [1, 1, 0, 0, 0]
    assert brute_dims((1,), {}, 4) == [1, 1, 0, 0, 0]


def test_afunctor_polynomial_chain():
    # v, xi v, xi^2 v: dims of F2[v] through degree 4
    degrees, xi = (1, 2, 4), {0: (1,), 1: (2,)}
    assert brute_dims(degrees, xi, 4) == [1, 1, 1, 1, 1]
    assert exterior_dims(degrees, 4) == brute_dims(degrees, xi, 4)


def test_afunctor_brute_matches_square_free_count():
    rng = random.Random(5)
    for _ in range(6):
        degrees = tuple(sorted(rng.choice([1, 1, 2, 2, 3, 4]) for _ in range(5)))
        xi = {}
        for i, d in enumerate(degrees):
            targets = tuple(
                j for j, e in enumerate(degrees) if e == 2 * d and rng.random() < 0.5
            )
            if targets:
                xi[i] = targets
        pres = AFunctorPresentation(degrees, xi)
        assert exterior_dims(pres.degrees, 8) == brute_dims(pres.degrees, pres.xi, 8)


@pytest.mark.parametrize("level", [1, 2])
def test_monomial_table_counts_the_polynomial_algebra(level):
    pres = presentation(tower(), level, 5)
    table = sv_monomials(pres.degrees, 10)
    assert [len(monos) for monos in table] == polynomial_dims(pres.degrees, 10)
    for n, monos in enumerate(table):
        assert len(set(monos)) == len(monos)
        for mono in monos:
            assert list(mono) == sorted(mono)
            assert sum(pres.degrees[i] for i in mono) == n


@pytest.mark.parametrize("degrees", [(1, 2, 2, 3, 5, 9), (3, 1, 4, 1, 5, 2), (7, 2, 12, 1)])
def test_monomial_table_is_every_sorted_index_multiset(degrees):
    """Ascending or not, the degrees give every multiset of indices once."""
    table = sv_monomials(degrees, 9)
    want = [set() for _ in range(10)]
    for size in range(10):
        for mono in itertools.combinations_with_replacement(range(len(degrees)), size):
            n = sum(degrees[i] for i in mono)
            if n <= 9:
                want[n].add(mono)
    assert [sorted(monos) for monos in table] == [sorted(w) for w in want]


def test_series_helpers():
    assert exterior_dims((1, 2), 4) == [1, 1, 1, 1, 0]
    assert polynomial_dims((1,), 4) == [1, 1, 1, 1, 1]
    assert polynomial_dims((2, 2), 6) == [1, 0, 2, 0, 3, 0, 4]
    assert convolve([1, 1], [1, 2, 1], 3) == [1, 3, 3, 1]
