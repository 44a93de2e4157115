import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinmcg.algebra import DEGREE_CAP, HARD_MAX_DEGREE
from spinmcg.cli import main


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "spinmcg.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_usage_error_exit_2():
    code, _, _ = run_cli(["verify"])  # missing --target
    assert code == 2
    code, _, _ = run_cli(["verify", "--target", "lemma9.9"])
    assert code == 2
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2
    code, _, err = run_cli(["verify", "--target", "lemma3.6", "--tail", "zero"])
    assert code == 2 and "--tail" in err
    # flags that would be accepted and then ignored
    for args, flag in [
        (["primitives", "--space", "rp-inf", "--degree", "3", "--max-degree", "5"], "--max-degree"),
        # the default value itself, which argparse exempts when it is a default
        (["primitives", "--space", "rp-inf", "--degree", "3", "--max-degree", "12"], "--max-degree"),
        (["verify", "--target", "lemma3.6", "--format", "csv"], "--format"),
        (["map-eval", "--map", "partial", "--index", "1", "--format", "csv"], "--format"),
    ]:
        code, out, err = run_cli(args)
        assert code == 2 and out == "" and flag in err, args


def test_verify_pass_exit_0():
    code, out, _ = run_cli(["verify", "--target", "lemma3.6", "--max-degree", "8"])
    assert code == 0
    assert out.startswith("[PASS] lemma3.6")


def test_verify_json_line():
    code, out, _ = run_cli(
        ["verify", "--target", "lemma3.6", "--max-degree", "6", "--format", "json"]
    )
    assert code == 0
    blob = json.loads(out.strip())
    assert blob["passed"] is True


def test_verify_prop310_prints_witness():
    code, out, _ = run_cli(["verify", "--target", "prop3.10"])
    assert code == 0
    assert "p_(2,1) + p_3" in out


def test_betti_csv_rows():
    code, out, _ = run_cli(["betti", "--max-degree", "6", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "degree,dimension"
    assert lines[1] == "0,1"
    assert len(lines) == 8


def test_betti_defaults_to_its_ceiling(capsys):
    assert main(["betti"]) == 0
    default = capsys.readouterr()
    assert main(["betti", "--max-degree", "10"]) == 0
    assert capsys.readouterr() == default
    assert default.out.split("\n")[-2].startswith(" 10  ")


def test_betti_ceiling_guard():
    code, _, err = run_cli(["betti", "--max-degree", "11"])
    assert code == 2
    assert "limited" in err


def test_map_eval_outputs():
    code, out, _ = run_cli(["map-eval", "--map", "iota-plus-c", "--index", "2"])
    assert code == 0
    assert out.strip() == "a_2 |-> a_1^2"
    code, out, _ = run_cli(
        ["map-eval", "--map", "theorem2", "--index", "1", "--word", "6"]
    )
    assert code == 0
    assert out.strip() == "Q^6 b_1 |-> (Q^3 a_1)^2"


def test_basis_and_poincare():
    code, out, _ = run_cli(["basis", "--space", "rp-inf", "--max-degree", "1"])
    assert code == 0
    assert [l.split()[1:] for l in out.strip().split("\n")] == [
        ["e_0"], ["Q^1", "e_0"], ["e_1"]
    ]
    code, out, _ = run_cli(["poincare", "--space", "sigma-cp-inf", "--max-degree", "4",
                            "--format", "csv"])
    assert code == 0
    assert out.strip().split("\n") == [
        "degree,dimension", "0,1", "1,1", "2,1", "3,3", "4,4"
    ]


def test_primitives_listing():
    code, out, _ = run_cli(
        ["primitives", "--space", "rp-inf", "--degree", "3", "--format", "json"]
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row["dim"] == 4
    assert "p_3" in row["labels"]


def test_primitives_degree_below_one_is_usage_error(capsys):
    for flag, degree in (
        ("--degree", "0"),
        ("--degree", "-2"),
        ("--max-degree", "0"),
        ("--max-degree", "-1"),
    ):
        assert main(["primitives", "--space", "rp-inf", flag, degree]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err


def test_determinism():
    args = ["verify", "--target", "lemma3.6", "--max-degree", "8", "--format", "json"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


def test_main_callable_directly(capsys):
    assert main(["poincare", "--space", "bspin3", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert out.split("\n")[0].strip() == "0  1"


def test_verify_all_targets():
    code, out, _ = run_cli(["verify", "--target", "all", "--max-degree", "6"])
    assert code == 0
    assert out.count("[PASS]") == 10
    # fixed emission order
    order = [l.split()[1] for l in out.split("\n") if l.startswith("[PASS]")]
    assert order == sorted(order)


def test_bad_inputs_are_usage_errors(capsys):
    code, _, err = run_cli(["map-eval", "--map", "partial", "--index", "-1"])
    assert code == 2 and "error:" in err
    code, _, err = run_cli(
        ["map-eval", "--map", "theorem2", "--index", "1", "--word", "3"]
    )
    assert code == 2 and "doubling" in err
    for word in ("-2", "3,-1", "-1 3"):
        for verb in ("partial", "theorem2"):
            with pytest.raises(SystemExit) as exit_info:
                main(["map-eval", "--map", verb, "--index", "0", "--word", word])
            captured = capsys.readouterr()
            assert exit_info.value.code == 2, (verb, word)
            assert captured.out == "" and "must be >= 0" in captured.err, (verb, word)


def test_poincare_past_the_hard_cap_exits_2_and_below_it_prints():
    past = str(HARD_MAX_DEGREE + 1)
    code, _, err = run_cli(["poincare", "--space", "rp-inf", "--max-degree", past])
    assert code == 2
    code, out, _ = run_cli(
        ["poincare", "--space", "sigma-cp-inf", "--max-degree", "13", "--format", "csv"]
    )
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("13,")


def test_degree_guard_on_every_verb(capsys):
    cases = [
        ["basis", "--space", "rp-inf", "--max-degree", "-1"],
        ["poincare", "--space", "rp-inf", "--max-degree", "-1"],
        ["verify", "--target", "lemma3.6", "--max-degree", "-3"],
        ["primitives", "--space", "rp-inf", "--max-degree", "-1"],
        ["primitives", "--space", "rp-inf", "--degree", "-2"],
        ["betti", "--max-degree", "-1"],
    ]
    for args in cases:
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >= 0" in captured.err
    past = str(HARD_MAX_DEGREE + 1)  # one step past the command line's cap
    for args in (
        ["primitives", "--space", "rp-inf", "--degree", past],
        ["primitives", "--space", "rp-inf", "--max-degree", past],
        ["basis", "--space", "bspin2", "--max-degree", past],
        ["verify", "--target", "lemma3.6", "--max-degree", past],
        ["betti", "--max-degree", past],
    ):
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"max degree capped at {HARD_MAX_DEGREE}" in captured.err


def test_output_ignores_a_cache_directory(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    for args in (
        ["verify", "--target", "lemma3.6", "--max-degree", "6", "--format", "json"],
        ["verify", "--target", "lemma3.6", "--max-degree", "6"],
        ["betti", "--max-degree", "4", "--format", "csv"],
    ):
        plain = run_cli(args)
        assert plain[0] == 0, args
        assert run_cli(args, {"SPINMCG_CACHE_DIR": str(cache)}) == plain, args
        assert run_cli(args, {"SPINMCG_CACHE_DIR": str(cache)}) == plain, args
    assert list(cache.iterdir()) == []


def test_loop_targets_refuse_degrees_below_their_checks(capsys):
    # thm3 first checks polynomiality from degree 3 and thm4 finds its
    # square-zero witness from degree 4; below that they are usage errors
    for target, degree in (
        ("thm3", 0), ("thm3", 1), ("thm3", 2),
        ("thm4", 0), ("thm4", 1), ("thm4", 2), ("thm4", 3),
    ):
        args = ["verify", "--target", target, "--max-degree", str(degree)]
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{target} needs max degree >= " in captured.err
    assert main(["verify", "--target", "thm3", "--max-degree", "3"]) == 0
    assert main(["verify", "--target", "thm4", "--max-degree", "4"]) == 0


def test_targets_refuse_degrees_with_no_instance(capsys):
    # below degree 1 cor2.7 ranks nothing, and below degree 2 thm2 has no
    # odd class for the transfer to kill (a_1 sits in degree 2); below their
    # floors lemma3.6 checks only Sq^0_* rows, prop3.9 only the degree-1
    # identity and cor1.8 only the row 1 <= 1 the table forces
    floors = {"cor2.7": 1, "thm2": 2, "lemma3.6": 2, "prop3.9": 3, "cor1.8": 1}
    for target, least in floors.items():
        for degree in range(least):
            args = ["verify", "--target", target, "--max-degree", str(degree)]
            assert main(args) == 2, args
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{target} needs max degree >= {least} " in captured.err
        assert main(["verify", "--target", target, "--max-degree", str(least)]) == 0
        assert capsys.readouterr().out.startswith(f"[PASS] {target} (degrees <= {least})")


def test_map_eval_past_the_degree_cap_is_usage_error(capsys):
    # e_(2r+1) and Q^s abar_2 (degree s + 5), each one step past the models'
    # degree cap
    r, s = DEGREE_CAP // 2, DEGREE_CAP - 4
    for extra in (["--index", str(r)], ["--index", "2", "--word", str(s)]):
        assert main(["map-eval", "--map", "partial", "--tail", "zero"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"degree {DEGREE_CAP + 1} is past the model cap {DEGREE_CAP}" in captured.err


def test_cli_import_loads_no_dataclasses():
    # every command starts a fresh process, so what importing the package
    # pulls in is paid on every run: dataclasses alone brings inspect, ast
    # and dis along, and its decorators exec their generated methods
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import spinmcg.cli; "
        "print(spinmcg.cli.__file__); "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe, src], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    imported, loaded = proc.stdout.split("\n")[:2]
    assert Path(imported).resolve().is_relative_to(Path(src).resolve())
    assert loaded == ""


def test_closed_stdout_pipe_exits_141_without_traceback():
    # like `spinmcg verify ... | head -1` once head has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spinmcg.cli", "verify", "--target", "lemma3.7", "--max-degree", "6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""
