import json

import pytest

from spinmcg.betti import BettiTable, corollary18_check, spin_betti


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
