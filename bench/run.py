"""Cold-process benchmark of the spinmcg command line.

Each workload is one CLI command.  Every job runs it in a fresh interpreter,
because every model memoizes per process and a user pays the cold cost on
every call.  Jobs run one at a time from this one parent process and
their output is checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or ``all`` for every workload in one run.  A run
repeats rounds until another round would pass S seconds (at least one
round).  A round holds one untraced job per workload and, with --trace 0,
several set-up probes (a fresh interpreter importing ``spinmcg.cli``);
with --trace 1 it holds one untraced and one traced job per workload.  The
seed shuffles the order of the items within each round; the workloads
themselves are fixed, because the engine is deterministic.

With --trace 0 the result holds the end-to-end metrics: the median wall
time and peak resident set of a job, and the median set-up time.  With
--trace 1 a traced job (``tracer.py``) reports per-layer self times,
call counts and matrix shapes.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Other options: --smoke runs the same workloads at tiny degrees; --out FILE
appends the full record of the run (provenance, every job) as a JSON
line; --summarize FILE... prints the median and quartile spread of every
metric over recorded runs.

Jobs import spinmcg from this checkout's ``src`` in isolated mode (-I), so
neither an installed copy nor PYTHON* variables leak in, with every
SPINMCG_* variable (the result cache, the degree cap) removed.  Byte code
goes to a private cache prefix that a first, untimed probe fills, so the
timings do not depend on whether a ``__pycache__`` existed before.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "betti_degree_10.csv"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = ROOT / ".bench_build" / "spinmcg-bench"
PYFLAGS = ["-I", "-X", f"pycache_prefix={WORK / 'pycache'}"]

BOOT = "import sys; sys.path.insert(0, sys.argv.pop(1)); from spinmcg.cli import main; raise SystemExit(main())"
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import spinmcg, spinmcg.cli; print(spinmcg.__file__)"

PROBES_PER_ROUND = 10
JOB_TIMEOUT_S = 150.0

VERIFY_TARGETS = (
    "cor1.8", "cor2.7", "lemma3.6", "lemma3.7", "prop3.10",
    "prop3.8", "prop3.9", "thm2", "thm3", "thm4",
)

# Degrees of the full workloads and of the smoke mode.
FULL = {"betti": 10, "verify": 12, "prims": 13, "prims_dim": 14}
SMOKE = {"betti": 4, "verify": 4, "prims": 8, "prims_dim": 6}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ----- workloads and output checks -----

def check_betti(out: str, size: dict) -> Optional[str]:
    golden = GOLDEN.read_text().splitlines(keepends=True)
    if out != "".join(golden[: size["betti"] + 2]):
        return "stdout differs from tests/golden/betti_degree_10.csv"
    return None


def check_verify(out: str, size: dict) -> Optional[str]:
    try:
        rows = [json.loads(line) for line in out.splitlines()]
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON lines: {exc}"
    names = sorted(str(r.get("target")) for r in rows)
    if names != sorted(VERIFY_TARGETS):
        return f"targets {names}, expected {sorted(VERIFY_TARGETS)}"
    bad = [r["target"] for r in rows if r.get("passed") is not True or not r.get("pass_count", 0) >= 1]
    return f"targets without a passing check: {bad}" if bad else None


def check_prims(out: str, size: dict) -> Optional[str]:
    try:
        rows = [json.loads(line) for line in out.splitlines()]
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON lines: {exc}"
    want = (size["prims"], size["prims_dim"])
    if len(rows) != 1 or (rows[0].get("degree"), rows[0].get("dim")) != want:
        return f"expected one row with (degree, dim) = {want}, got {rows}"
    labels = rows[0].get("labels", [])
    if len(labels) != want[1] or len(set(labels)) != want[1]:
        return f"expected {want[1]} distinct labels, got {labels}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[dict], list]
    check: Callable[[str, dict], Optional[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("betti", lambda s: ["betti", "--max-degree", str(s["betti"]), "--format", "csv"],
                 check_betti),
        Workload("betti-zero", lambda s: ["betti", "--max-degree", str(s["betti"]), "--format", "csv",
                                          "--tail", "zero"], check_betti),
        Workload("verify", lambda s: ["verify", "--target", "all", "--max-degree", str(s["verify"]),
                                      "--format", "json"], check_verify),
        Workload("prims-deep", lambda s: ["primitives", "--space", "rp-inf", "--degree", str(s["prims"]),
                                          "--format", "json"], check_prims),
    )
}


# ----- cold processes -----

@dataclass
class Job:
    workload: str
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: Optional[str]
    layers: Optional[dict] = None


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("SPINMCG_")}


def spawn(cmd: list, stdout_path: Path) -> tuple:
    """Run cmd to completion; (wall s, cpu s, peak RSS MB, exit code, stderr)."""
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace")


def run_job(workload: Workload, size: dict, traced: bool, workdir: Path) -> Job:
    argv = workload.argv(size)
    out_path = workdir / f"{workload.name}{'-traced' if traced else ''}.out"
    layers_path = workdir / f"{workload.name}-layers.json"
    if traced:
        cmd = [sys.executable, *PYFLAGS, str(TRACER), str(SRC), str(layers_path), "--", *argv]
    else:
        cmd = [sys.executable, *PYFLAGS, "-c", BOOT, str(SRC), *argv]
    wall, cpu, rss, code, stderr = spawn(cmd, out_path)
    if code != 0:
        error = f"exit code {code}: {stderr.strip()[-500:]}"
    else:
        error = workload.check(out_path.read_text(), size)
    layers = None
    if traced and error is None:
        layers = json.loads(layers_path.read_text())
        check_import(layers.pop("spinmcg_file"))
    return Job(workload.name, traced, wall, cpu, rss, error, layers)


def check_import(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"spinmcg was imported from {path}, not from {SRC}")


def probe_setup(workdir: Path) -> tuple:
    """Wall time of a fresh interpreter importing spinmcg.cli, and the file imported."""
    out_path = workdir / "probe.out"
    wall, _, _, code, stderr = spawn([sys.executable, *PYFLAGS, "-c", PROBE, str(SRC)], out_path)
    if code != 0:
        raise BenchError(f"importing spinmcg.cli failed: {stderr.strip()[-500:]}")
    imported = out_path.read_text().strip()
    check_import(imported)
    return wall, imported


# ----- a run -----

def prepare() -> Path:
    for needed in (SRC / "spinmcg" / "cli.py", GOLDEN, TRACER):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} is missing; run from a spinmcg checkout")
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def run_rounds(names: list, size: dict, trace: bool, seconds: int, rng: random.Random,
               workdir: Path) -> tuple:
    jobs: list[Job] = []
    probes: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        items = [("job", n) for n in names]
        items += [("traced", n) for n in names] if trace else [("probe", None)] * PROBES_PER_ROUND
        rng.shuffle(items)
        for kind, name in items:
            if kind == "probe":
                probes.append(probe_setup(workdir)[0])
            else:
                jobs.append(run_job(WORKLOADS[name], size, kind == "traced", workdir))
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            return jobs, probes


def end_to_end_metrics(jobs: list, probes: list) -> dict:
    # a failed job counts as a miss: it sorts as infinitely slow
    wall = statistics.median([j.wall_s if j.error is None else math.inf for j in jobs])
    return {
        "wall_s": (None if math.isinf(wall) else wall, "s"),
        "peak_rss_mb": (statistics.median(j.peak_rss_mb for j in jobs), "MB"),
        "setup_s": (statistics.median(probes), "s"),
    }


LAYER_SECONDS = (
    "algebra.psi", "algebra.encode", "algebra.action",
    "gf2.left_kernel", "gf2.span_solve", "gf2.rank",
    "hopf.cotensor", "hopf.brute",
    "loops.canonical", "loops.tower",
    "maps.boundary", "maps.matrix", "maps.cokernel",
    "words.generators", "betti.assemble",
) + tuple(f"verify.{t}" for t in VERIFY_TARGETS)

LAYER_COUNTS = (
    ("algebra.psi_rows", "count"), ("algebra.psi_cells", "cells"),
    ("algebra.primitive_dim", "count"),
    ("gf2.left_kernel_cells", "cells"), ("gf2.span_solve_calls", "count"),
    ("gf2.span_solve_rows", "count"), ("gf2.rank_cells", "cells"),
    ("loops.canonical_labels", "count"),
)


def per_layer_metrics(jobs: list) -> dict:
    plain = [j for j in jobs if not j.traced]
    traced = [j for j in jobs if j.traced and j.layers is not None]
    if not traced:
        return {}
    out = {}
    for layer in LAYER_SECONDS:
        out[f"{layer}_s"] = (statistics.median(j.layers["layers_s"].get(layer, 0.0) for j in traced), "s")
    for name, unit in LAYER_COUNTS:
        out[name] = (statistics.median(j.layers["counters"].get(name, 0) for j in traced), unit)
    out["cli.cpu_s"] = (statistics.median(j.cpu_s for j in plain), "s")
    out["cli.wait_s"] = (statistics.median(j.wall_s - j.cpu_s for j in plain), "s")
    traced_wall = statistics.median(j.wall_s for j in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - statistics.median(j.wall_s for j in plain), "s")
    return out


def git_state() -> tuple:
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    try:
        rev = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except OSError:  # no git on this machine
        return None, None
    if rev.returncode != 0:
        return None, None
    return rev.stdout.strip(), bool(dirty.stdout.strip())


def run(args) -> tuple:
    workdir = prepare()
    try:
        _, imported = probe_setup(workdir)  # untimed: fills the byte-code cache
        rev, dirty = git_state()
        provenance = {
            "git_rev": rev,
            "git_dirty": dirty,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_before": os.getloadavg(),
            "seed": args.seed,
            "spinmcg_file": str(Path(imported).resolve().relative_to(ROOT)),
        }
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        size = SMOKE if args.smoke else FULL
        jobs, probes = run_rounds(names, size, bool(args.trace), args.seconds,
                                  random.Random(args.seed), workdir)
        provenance["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_workload = {}
    for name in names:
        mine = [j for j in jobs if j.workload == name]
        metrics = per_layer_metrics(mine) if args.trace else end_to_end_metrics(
            [j for j in mine if not j.traced], probes)
        per_workload[name] = (mine, metrics)
    return provenance, jobs, probes, per_workload


def report(args, provenance, jobs, probes, per_workload) -> dict:
    print("provenance " + json.dumps(provenance, sort_keys=True))
    metrics = {}
    for name, (mine, values) in per_workload.items():
        failed = [j for j in mine if j.error is not None]
        print(f"workload {name}: {len(mine)} jobs, {len(failed)} failed")
        for j in failed:
            print(f"  FAILED {'traced ' if j.traced else ''}job: {j.error}")
        for metric, (value, unit) in values.items():
            shown = "n/a" if value is None else f"{value:.4f}"
            print(f"  {metric:<28} {shown:>14} {unit}")
            key = metric if args.workload != "all" else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        print(f"  {'error_rate':<28} {len(failed) / len(mine):>14.4f} ratio ({len(failed)} of {len(mine)} jobs failed)")
        if args.trace:
            absent = sorted({a for j in mine if j.layers for a in j.layers["absent"]})
            print(f"  absent entry points: {', '.join(absent) if absent else 'none'}")
    if not args.trace:
        print(f"setup probes: {len(probes)}")
    failed = sum(j.error is not None for j in jobs)
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}


# ----- summaries of recorded runs -----

def summarize(paths: list) -> None:
    """Median and quartile spread of every metric, per workload and mode."""
    groups: dict = {}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            key = (record["workload"], record["trace"], record["smoke"])
            for metric, entry in record["result"]["metrics"].items():
                groups.setdefault(key, {}).setdefault(metric, []).append(entry)
    for (workload, trace, smoke), metrics in sorted(groups.items()):
        print(f"workload {workload} trace {trace}{' smoke' if smoke else ''}")
        for metric, entries in metrics.items():
            values = [e["value"] for e in entries if e["value"] is not None]
            if len(values) < 2:
                print(f"  {metric:<28} n={len(values)}")
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {metric:<28} n={len(values):<3} median {median:12.4f} {entries[0]['unit']:<6}"
                  f" q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny degrees, for the benchmark's tests")
    parser.add_argument("--out", help="append the full record of this run to this JSON-lines file")
    parser.add_argument("--summarize", nargs="+", metavar="FILE", help="summarize recorded runs")
    args = parser.parse_args(argv)
    if args.summarize:
        summarize(args.summarize)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        provenance, jobs, probes, per_workload = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = report(args, provenance, jobs, probes, per_workload)
    if args.out:
        record = {
            "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
            "seconds": args.seconds, "provenance": provenance,
            "jobs": [{k: v for k, v in asdict(j).items() if k != "layers"} for j in jobs],
            "layers": [j.layers for j in jobs if j.layers is not None],
            "setup_probes_s": probes, "result": result,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
