"""The fresh-process run manifest is well formed, and its runner fails on
each kind of fault it exists to catch."""

from pathlib import Path

from fresh_runs import GOLDEN, MANIFEST, Run, run_all
from spinmcg.cli import _usage_error, build_parser

CHEAP = next(run for run in MANIFEST if run.name == "primitives-13")


def test_every_run_names_a_golden_that_exists_or_snippets_that_compile():
    for run in MANIFEST:
        assert run.commands and run.why
        assert run.golden is None or run.golden.is_file(), run.name
        for command in run.commands:
            if isinstance(command, str):
                compile(command, run.name, "exec")


def test_every_cli_argv_passes_the_usage_rules():
    parser = build_parser()
    argvs = [command for run in MANIFEST for command in run.commands
             if not isinstance(command, str)]
    assert argvs
    for argv in argvs:
        assert _usage_error(parser.parse_args(argv)) is None, argv


def test_every_golden_is_read_by_a_run_or_a_test():
    tests = "".join(path.read_text() for path in Path(__file__).parent.glob("test_*.py"))
    read = {run.golden.name for run in MANIFEST if run.golden is not None}
    orphans = [path.name for path in GOLDEN.iterdir()
               if path.name not in read and f'"{path.name}"' not in tests]
    assert orphans == []


def test_runner_passes_a_cheap_run_and_reports_its_peaks(capsys):
    assert run_all([CHEAP])
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("PASS  primitives-13")
    assert "VmPeak    0.0" not in line and "VmHWM    0.0" not in line


def test_runner_fails_on_a_golden_mismatch(tmp_path, capsys):
    golden = tmp_path / CHEAP.golden.name
    golden.write_bytes(CHEAP.golden.read_bytes() + b"\n")
    assert not run_all([CHEAP._replace(golden=golden)])
    assert "stdout differs from the golden file" in capsys.readouterr().out


def test_runner_fails_on_a_wrong_exit_status(capsys):
    run = Run("past-the-ceiling", ["betti --max-degree 11".split()], None, None, "a usage error")
    assert not run_all([run])
    assert "exit 2" in capsys.readouterr().out


def test_runner_fails_on_a_breached_limit(capsys):
    # 4 MB leave no room for the interpreter to start
    assert not run_all([CHEAP._replace(limit_mb=4)])
    assert capsys.readouterr().out.startswith("FAIL  primitives-13")
