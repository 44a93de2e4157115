import json
import subprocess
import sys

import pytest

from spinmcg.algebra import get_model
from spinmcg.betti import BettiTable, convolve, corollary18_check, spin_betti
from spinmcg.loops import exterior_dims, primitive_labels
from spinmcg.maps import TAIL_POLICIES, cokernel_generators, kernel_poincare
from spinmcg.spaces import lambda_sq_index


def test_degree_zero_is_one():
    table = spin_betti(4)
    assert table.dim(0) == 1


def test_invalid_table_rejected():
    with pytest.raises(ValueError):
        BettiTable(((0, 2),), {})
    with pytest.raises(ValueError):
        BettiTable(((0, 1), (1, -1)), {"loop_image_dims": [], "squares_dims": []})


def test_policy_independence():
    a = spin_betti(7, "primitive")
    b = spin_betti(7, "zero")
    assert a.rows == b.rows


def test_csv_shape():
    table = spin_betti(5)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "degree,dimension"
    assert lines[1] == "0,1"
    assert len(lines) == 7


def test_json_rows_parse():
    table = spin_betti(4)
    for line in table.to_json_rows():
        row = json.loads(line)
        assert set(row) == {"degree", "dim", "factors"}
        contribs = row["factors"]["loop_image"]
        assert row["dim"] == sum(l * s for (_, l, s) in contribs)


def test_provenance_fields():
    table = spin_betti(4)
    assert table.provenance["tail_policy"] == "primitive"
    assert table.provenance["squares_dims"][2] == 1
    assert len(table.provenance["loop_image_dims"]) == 5


def test_convolution_consistency():
    table = spin_betti(6)
    loops = table.provenance["loop_image_dims"]
    squares = table.provenance["squares_dims"]
    for d, v in table.rows:
        assert v == sum(loops[p] * squares[d - p] for p in range(d + 1))


def test_corollary18_bound_holds():
    report = corollary18_check(8)
    assert report.holds
    assert report.rows[0] == (0, 1, 1)
    assert all(bound - dim >= 0 for _, dim, bound in report.rows)


def test_max_degree_guard():
    with pytest.raises(ValueError):
        spin_betti(-1)


MEMO_COUNTS = """
import json
from spinmcg.algebra import QAlgebra
from spinmcg.betti import spin_betti

spin_betti(6)
print(json.dumps({
    name: getattr(QAlgebra, name).cache_info()._asdict()
    for name in ("q_mono_apply", "_psi_gen_pairs")
}))
"""


def test_betti_reports_memo_hits_and_misses():
    """The Q-action and coproduct memo tables are functools caches, so a
    fresh process that builds a small Betti table can read their hits and
    misses off cache_info()."""
    proc = subprocess.run([sys.executable, "-c", MEMO_COUNTS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert sorted(counts) == ["_psi_gen_pairs", "q_mono_apply"]
    for name, info in counts.items():
        assert info["hits"] > 0 and info["misses"] > 0, (name, info)


BELOW_DEGREE_CALLS = """
from functools import cache
from spinmcg.algebra import QAlgebra
from spinmcg.betti import spin_betti

apply = QAlgebra.q_mono_apply.__wrapped__
below = []

def recorded(model, s, mono):
    if s < model.mono_degree(mono):
        below.append((s, mono))
    return apply(model, s, mono)

QAlgebra.q_mono_apply = cache(recorded)
spin_betti(10)
print(len(below), QAlgebra.q_mono_apply.cache_info().currsize)
"""


def test_betti_asks_for_no_q_below_the_degree():
    """Q^s is 0 on a monomial of degree above s, so no caller asks for it
    and the Q-action cache of a fresh process holds no such empty result
    after a Betti table through degree 10."""
    proc = subprocess.run(
        [sys.executable, "-c", BELOW_DEGREE_CALLS], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    below, cached = map(int, proc.stdout.split())
    assert below == 0 and cached > 0


def label_count_generators(max_degree):
    """The generator counts g[n - 2] of the twice-looped image algebra for
    3 <= n <= max_degree + 2 (model degrees 1 through max_degree; degree 0
    has none), from label counts alone.  #labels(n) is dim PH_n, and
    #src(n) is the dimension of the boundary's source primitives in degree
    n: the sigma-cp-inf generators of degree n / 2^k over k >= 0 (a
    primitive of a polynomial algebra is a sum of 2^k-th powers of
    generators).  In even n, Ker(lambda') is all of PH_n and holds the
    boundary image; in odd n, lambda' is onto PH_h (Prop. 3.9) and carries
    the image onto the image in degree h."""
    sigma = get_model("sigma-cp-inf")

    def labels(n):
        return len(primitive_labels(n))

    def src(n):
        return sum(
            len(sigma.generators_in_degree(n >> k))
            for k in range(n.bit_length())
            if n % (1 << k) == 0
        )

    g = [0] * (max_degree + 1)
    for n in range(3, max_degree + 3):
        if n % 2:
            h = n - lambda_sq_index("lambda'", n)
            g[n - 2] = labels(n) - labels(h) - src(n) + src(h)
        else:
            g[n - 2] = labels(n) - src(n)
    return g


@pytest.mark.parametrize("tail", TAIL_POLICIES)
def test_label_counts_give_the_generators_and_the_table(tail):
    """The generator counts, and the Betti rows as the exterior series on
    them times the squares subalgebra's series, follow from label counts
    alone and match the engine's under both tails."""
    g = label_count_generators(12)
    assert tuple(g) == cokernel_generators(12, tail).g_dims
    degrees = [k for k, count in enumerate(g) for _ in range(count)]
    rows = convolve(exterior_dims(degrees, 12), kernel_poincare(12), 12)
    assert tuple(enumerate(rows)) == spin_betti(12, tail).rows
