"""Frozen engine outputs; regenerate only when the verified suites change."""

import json
from pathlib import Path

import pytest

from spinmcg.algebra import get_model
from spinmcg.betti import spin_betti
from spinmcg.cli import main
from spinmcg.loops import primitive_labels, tower
from spinmcg.maps import TAIL_POLICIES, PrimitiveBoundary
from spinmcg.spaces import SPACES

GOLDEN = Path(__file__).parent / "golden"


def betti_csv(tail: str, readouterr) -> str:
    assert main(["betti", "--max-degree", "10", "--tail", tail, "--format", "csv"]) == 0
    return readouterr().out


def test_betti_table_matches_golden(capsys):
    assert betti_csv("primitive", capsys.readouterr) == (GOLDEN / "betti_degree_10.csv").read_text()


def test_betti_golden_policy_free(capsys):
    assert betti_csv("zero", capsys.readouterr) == (GOLDEN / "betti_degree_10.csv").read_text()


def cli_formats_stdout(line: str) -> str:
    """The stdout that cli_formats.txt records for one argv line."""
    block = (GOLDEN / "cli_formats.txt").read_text().split(f"$ spinmcg {line}\n", 1)[1]
    return block.split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]


@pytest.mark.parametrize("tail", TAIL_POLICIES)
def test_betti_formats_agree_with_the_golden_rows(tail, capsys):
    """The text and json tables through 10 print the golden CSV's rows
    (the csv format is the two tests above), their lines through degree 8
    are those cli_formats.txt records at --max-degree 8, and each json
    row's factors sum to its dim."""
    golden = (GOLDEN / "betti_degree_10.csv").read_text().splitlines()[1:]
    rows = [tuple(map(int, line.split(","))) for line in golden]
    out = {}
    for fmt in ("text", "json"):
        assert main(["betti", "--max-degree", "10", "--tail", tail, "--format", fmt]) == 0
        out[fmt] = capsys.readouterr().out
    text = out["text"].splitlines()
    assert [tuple(map(int, line.split())) for line in text] == rows
    blobs = [json.loads(line) for line in out["json"].splitlines()]
    assert [(blob["degree"], blob["dim"]) for blob in blobs] == rows
    for blob in blobs:
        contributions = blob["factors"]["loop_image"]
        assert blob["dim"] == sum(loops * squares for _, loops, squares in contributions)
    for fmt, lines in (("text", text), ("json", out["json"].splitlines())):
        recorded = cli_formats_stdout(f"betti --max-degree 8 --tail {tail} --format {fmt}")
        assert "".join(line + "\n" for line in lines[:9]) == recorded


def test_betti_past_the_cli_ceiling_needs_no_keyword():
    # the library's one bound is DEGREE_CAP: rows through 12 read primitive
    # data through 14, past the default model degree, and extend the golden
    prim, zero = (spin_betti(12, tail) for tail in TAIL_POLICIES)
    assert prim.rows == zero.rows and prim.max_degree == 12
    golden = (GOLDEN / "betti_degree_10.csv").read_text().splitlines()[1:]
    assert [f"{d},{v}" for d, v in prim.rows[:11]] == golden


def test_lambda_prime_on_collapsing_word():
    model = get_model("rp-inf")
    frozen = (GOLDEN / "lambda_prime_q5_q4_e2.txt").read_text().strip()
    # route one: instability collapses Q^5 Q^4 e_2 before the operation acts
    x = model.q_word((5, 4), model.gen_element((), 2))
    direct = model.lambda_op("lambda'", x)
    assert str(direct) == frozen
    # route two: commute the operation through Q^5 first
    inner = model.gen_element((4,), 2)
    lam_inner = model.lambda_op("lambda", inner)
    shifted = model.q_apply(3, lam_inner)
    coeff = shifted.degree % 2 if shifted.monos else 0
    relation = shifted if coeff else model.zero()
    assert str(relation) == frozen


def render_canonical_primitives(max_degree: int) -> str:
    """Every canonical primitive and every boundary value, one per line."""
    lines = []
    for reduced in (False, True):
        prims = tower(reduced)
        tag = "based" if reduced else "full"
        for n in range(1, max_degree + 1):
            for label in primitive_labels(n, reduced=reduced):
                lines.append(f"{tag} {label} = {prims.canonical(label)}")
    for policy in TAIL_POLICIES:
        boundary = PrimitiveBoundary(policy)
        for n in range(1, max_degree + 1):
            for label in boundary.source_labels(n):
                gen, k = label  # the source primitive gen^(2^k)
                source = boundary.source.from_monos([boundary.source.mono((gen,) * 2**k)])
                lines.append(f"{policy} d({source}) = {boundary.value(label)}")
    return "\n".join(lines) + "\n"


def test_canonical_primitives_and_boundary_values_match_golden():
    frozen = (GOLDEN / "canonical_primitives_12.txt").read_text()
    assert render_canonical_primitives(12) == frozen


def test_basis_listing_matches_golden(capsys):
    # every generator through degree 20 of all four spaces, in SPACES order
    for space in SPACES:
        assert main(["basis", "--space", space, "--max-degree", "20", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "basis_degree_20.csv").read_text()


def test_map_eval_partial_matches_golden(capsys):
    # the honest action on the boundary seeds, for both tail policies
    for tail in ("primitive", "zero"):
        for index in range(4):
            for word in ("2", "3", "5", "4,2", "6,3"):
                argv = ["map-eval", "--map", "partial", "--index", str(index),
                        "--word", word, "--tail", tail]
                assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "map_eval_partial.txt").read_text()


def test_poincare_series_matches_golden(capsys):
    # the monomial counts of all four spaces through degree 20, in SPACES order
    for space in SPACES:
        assert main(["poincare", "--space", space, "--max-degree", "20", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "poincare_degree_20.csv").read_text()


# every verb in every format it takes, at small degrees, then one input
# that breaks each usage rule, in the order the rules are applied
CLI_FORMAT_ARGVS = [
    *(f"basis --space rp-inf --max-degree 6 --format {fmt}" for fmt in ("text", "csv", "json")),
    "basis --space bspin2 --max-degree 4",
    *(f"poincare --space sigma-cp-inf --max-degree 8 --format {fmt}" for fmt in ("text", "csv", "json")),
    *(f"primitives --space rp-inf --max-degree 8 --format {fmt}" for fmt in ("text", "csv", "json")),
    "primitives --space rp-inf --degree 8 --reduced",
    "primitives --space rp-inf --degree 8 --reduced --format json",
    "primitives --space bspin3 --max-degree 8",
    "primitives --space bspin3 --max-degree 8 --format json",
    *(f"betti --max-degree 8 --tail {tail} --format {fmt}"
      for tail in ("primitive", "zero") for fmt in ("text", "csv", "json")),
    *(f"verify --target all --max-degree 8 --format {fmt}" for fmt in ("text", "json")),
    "map-eval --map partial --index 1",
    *(f"map-eval --map partial --index 1 --word 3 --tail zero --format {fmt}" for fmt in ("text", "json")),
    *(f"map-eval --map iota-plus-c --index 2 --format {fmt}" for fmt in ("text", "json")),
    "map-eval --map theorem2 --index 2",
    *(f"map-eval --map theorem2 --index 1 --word 6 --format {fmt}" for fmt in ("text", "json")),
    # usage errors
    "primitives --space rp-inf --degree -1",
    "betti --max-degree -1",
    "basis --space rp-inf --max-degree 21",
    "betti --max-degree 21",
    "betti --max-degree 11",
    "primitives --space bspin2 --degree 0 --reduced",
    "primitives --space rp-inf --degree 0",
    "primitives --space rp-inf --max-degree 0",
    "map-eval --map iota-plus-c --index 1 --word 3",
    "verify --target thm4 --max-degree 3",
]


def render_cli_formats(readouterr) -> str:
    """Exit code, stdout and stderr of main on each CLI_FORMAT_ARGVS line;
    readouterr() returns what was printed since its last call."""
    blocks = []
    for line in CLI_FORMAT_ARGVS:
        code = main(line.split())
        out, err = readouterr()
        blocks.append(f"$ spinmcg {line}\n--- exit {code}\n--- stdout\n{out}--- stderr\n{err}")
    return "".join(blocks)


def test_cli_formats_match_golden(capsys):
    capsys.readouterr()
    assert render_cli_formats(capsys.readouterr) == (GOLDEN / "cli_formats.txt").read_text()
