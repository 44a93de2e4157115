"""Fresh-process golden runs: the engine's outputs at the top of its range.

    python tests/fresh_runs.py

Every model memoizes per process, so only a fresh process shows the cold
path's output and its memory peak.  Each run in MANIFEST starts one
interpreter per command, with its address space capped by RLIMIT_AS
before the interpreter starts, as `ulimit -v` does.  A command is a CLI
argv (a list, run as `python -m spinmcg.cli`) or a library snippet (a
str).  A run passes when every command exits 0 and, if the run names a
golden file, the commands' stdout, concatenated, equals that file byte
for byte.

For each run the runner prints its wall time (interpreter start-up
included), the largest VmPeak and VmHWM of its processes, each read by
the process itself from /proc/self/status at exit and reported on
stderr, and its limit; MB means 2**20 bytes.  It exits 0 when every run
passes, 1 otherwise.  Stdlib only; needs Linux (RLIMIT_AS, /proc).

To add a run, add an entry: its commands, its golden file or exit rule,
a limit sized from the VmPeak this runner reports for it, and why.
"""

from __future__ import annotations

import difflib
import os
import resource
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MB = 1 << 20
PEAKS = "fresh-run peaks (kB):"

# the child's own peaks, written at exit, after the code it was given
BOOT = f"""\
import atexit, sys
def peaks():
    with open("/proc/self/status") as status:
        fields = dict(line.split(":", 1) for line in status)
    print({PEAKS!r}, fields["VmPeak"].split()[0], fields["VmHWM"].split()[0], file=sys.stderr)
atexit.register(peaks)
exec(sys.argv.pop(1), {{"__name__": "__main__"}})
"""
CLI = 'import runpy; runpy.run_module("spinmcg.cli", run_name="__main__")'


class Run(NamedTuple):
    name: str
    commands: list  # each a CLI argv (a list of str) or a library snippet (a str)
    golden: Optional[Path]  # None: exiting 0 is the whole rule
    limit_mb: Optional[int]  # RLIMIT_AS of each process; None: no limit
    why: str  # what the run pins, and what its limit guards against


MANIFEST = [
    Run("betti-10", ["betti --max-degree 10 --format csv".split()],
        GOLDEN / "betti_degree_10.csv", None,
        "the paper's table through the CLI ceiling"),
    Run("betti-10-zero", ["betti --max-degree 10 --format csv --tail zero".split()],
        GOLDEN / "betti_degree_10.csv", None,
        "the zero tail gives the same table"),
    Run("verify-12", ["verify --target all --max-degree 12 --format json".split()],
        GOLDEN / "verify_all_degree_12.json", None,
        "every target at the default degree"),
    Run("verify-16", ["verify --target all --max-degree 16 --format json".split()],
        GOLDEN / "verify_all_degree_16.json", None,
        "every target above degree 12, where the zero tail's canonical cosets reach degree 16"),
    Run("verify-20", ["verify --target all --max-degree 20 --format json".split()],
        GOLDEN / "verify_all_degree_20.json", 80,
        "HARD_MAX_DEGREE, the top of the CLI range: pins thm3, thm4 and prop3.9 where "
        "polynomiality reads every source degree; the limit guards against a peak twice today's"),
    Run("primitives-13", ["primitives --space rp-inf --degree 13 --format json".split()],
        GOLDEN / "primitives_rp_inf_degree_13.json", None,
        "an odd degree past the default, in the full model"),
    Run("primitives-19", ["primitives --space rp-inf --degree 19 --format json".split()],
        GOLDEN / "primitives_rp_inf_degree_19.json", 1024,
        "the odd-degree pin at the top of the range, where stage two is skipped; the limit "
        "guards against the full-row stage one's 3 GB peak coming back"),
    Run("primitives-20", ["primitives --space rp-inf --degree 20 --format json".split()],
        GOLDEN / "primitives_rp_inf_degree_20.json", 1024,
        "the even-degree pin at the top of the range; the limit guards against the full-row "
        "stage one's 3 GB peak coming back"),
    Run("cor2.7-22", ["""\
import sys
from spinmcg.verify import run_target
result = run_target("cor2.7", 22)
print(result.to_text())
sys.exit(0 if result.passed and result.max_degree == 22 else 1)
"""], None, 64,
        "cor2.7 at upstairs degree 22, past the CLI cap of 20; the limit guards against ranking "
        "a formal boundary map on every source monomial (115 MB under both tails) coming back"),
    Run("betti-18-both-tails", ["""\
import sys
from spinmcg.betti import spin_betti
prim, zero = (spin_betti(18, tail) for tail in ("primitive", "zero"))
print("degree,dimension", *(f"{d},{v}" for d, v in prim.rows), sep="\\n")
sys.exit(0 if prim.rows == zero.rows and prim.max_degree == 18 else 1)
"""], None, 70,
        "the two tails' rows agree through 18; in one process they peak where one tail alone "
        "does, and the limit guards against a peak near twice that"),
    Run("betti-20", ["""\
import sys
from spinmcg.betti import spin_betti
table = spin_betti(20)
print("degree,dimension", *(f"{d},{v}" for d, v in table.rows), sep="\\n")
sys.exit(0 if table.max_degree == 20 else 1)
"""], None, 76,
        "HARD_MAX_DEGREE through the library; the limit guards against psi-bar checks of "
        "every boundary value, two-half psi-bar rows and all-bucket Sq passes (78 MB "
        "together) coming back"),
    Run("betti-20-zero-refuses", ["""\
import sys
from spinmcg.betti import spin_betti
from spinmcg.errors import NotClosedUnderSquaring
try:
    spin_betti(20, "zero")
except NotClosedUnderSquaring as exc:
    print(exc)
    sys.exit(0 if str(exc) == "squaring leaves the generating space at model degree 10" else 1)
sys.exit(1)
"""], None, 76,
        "the zero tail's closure check refuses row 20, a finding recorded, not hidden; "
        "the limit is betti-20's, so the refusal costs no more memory than the full table"),
    Run("poincare-20", [f"poincare --space {space} --max-degree 20 --format csv".split()
                        for space in ("rp-inf", "bspin2", "bspin3", "sigma-cp-inf")],
        GOLDEN / "poincare_degree_20.csv", None,
        "the monomial counts of all four spaces"),
    Run("basis-20", [f"basis --space {space} --max-degree 20 --format csv".split()
                     for space in ("rp-inf", "bspin2", "bspin3", "sigma-cp-inf")],
        GOLDEN / "basis_degree_20.csv", None,
        "the generators of all four spaces"),
    Run("map-eval-partial",
        [f"map-eval --map partial --index {index} --word {word} --tail {tail}".split()
         for tail in ("primitive", "zero") for index in range(4)
         for word in ("2", "3", "5", "4,2", "6,3")],
        GOLDEN / "map_eval_partial.txt", None,
        "the boundary seeds under the honest action, under both tails"),
]


def execute(run: Run) -> bool:
    """Run each command of run in its own process, stopping at the first
    that fails; print the run's report line, and the fault if any."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cap = None if run.limit_mb is None else partial(
        resource.setrlimit, resource.RLIMIT_AS, (run.limit_mb * MB, run.limit_mb * MB))
    stdout, wall, vm_peak, vm_hwm, fault = b"", 0.0, 0, 0, None
    for command in run.commands:
        code, args = (command, []) if isinstance(command, str) else (CLI, command)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", BOOT, code, *args], cwd=ROOT, env=env,
                                  capture_output=True, preexec_fn=cap)
        except OSError as exc:  # a limit can leave no room to exec the interpreter
            fault = f"could not start: {exc}"
            break
        finally:
            wall += time.perf_counter() - start
        stdout += proc.stdout
        stderr = proc.stderr.decode(errors="replace").splitlines()
        for line in stderr:
            if line.startswith(PEAKS):
                peak, hwm = map(int, line[len(PEAKS):].split())
                vm_peak, vm_hwm = max(vm_peak, peak), max(vm_hwm, hwm)
        if proc.returncode != 0:
            shown = [line for line in stderr if not line.startswith(PEAKS)]
            if run.golden is None:
                shown = proc.stdout.decode(errors="replace").splitlines() + shown
            fault = "\n".join([f"exit {proc.returncode}", *shown[-12:]])
            break
    if fault is None and run.golden is not None:
        expected = run.golden.read_bytes()
        if stdout != expected:
            diff = difflib.unified_diff(
                expected.decode().splitlines(), stdout.decode(errors="replace").splitlines(),
                run.golden.name, "stdout", lineterm="")
            fault = "\n".join(["stdout differs from the golden file", *list(diff)[:20]])
    limit = "none" if run.limit_mb is None else f"{run.limit_mb} MB"
    print(f"{'PASS' if fault is None else 'FAIL'}  {run.name:<22} {wall:6.2f} s"
          f"  VmPeak {vm_peak / 1024:6.1f} MB  VmHWM {vm_hwm / 1024:6.1f} MB  limit {limit}",
          flush=True)
    if fault is not None:
        print("    " + fault.replace("\n", "\n    "), flush=True)
    return fault is None


def run_all(runs) -> bool:
    """Execute every run and print the total; True when all passed."""
    start = time.perf_counter()
    passed = sum(execute(run) for run in runs)
    print(f"{passed} of {len(runs)} runs passed in {time.perf_counter() - start:.1f} s", flush=True)
    return passed == len(runs)


if __name__ == "__main__":
    sys.exit(0 if run_all(MANIFEST) else 1)
