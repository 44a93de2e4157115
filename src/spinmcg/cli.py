"""Command line front end.

Verbs: basis, primitives, verify, map-eval, poincare, betti.  Exit code
0 on success or a verified target, 1 on a verification failure, 2 on
usage errors, 141 when the reader of stdout has gone away.  All output
is deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .algebra import DEFAULT_MAX_DEGREE, HARD_MAX_DEGREE, get_model
from .betti import BETTI_CEILING, spin_betti
from .errors import EngineError
from .loops import primitive_basis
from .maps import TAIL_POLICIES, partial_on_generator, theorem2_composite, transfer_iota_plus_c
from .spaces import SPACES
from .verify import TARGETS, run_target


def _usage_error(args) -> str | None:
    """The first usage rule that args break, or None.  The rules run in a
    fixed order, so one input always gets the same message."""
    given = [(f"--{name.replace('_', '-')}", getattr(args, name, None))
             for name in ("degree", "max_degree")]
    given = [(flag, value) for flag, value in given if value is not None]
    for flag, value in given:
        if value < 0:
            return f"{flag} must be >= 0"
        if value > HARD_MAX_DEGREE:
            return f"max degree capped at {HARD_MAX_DEGREE}"
    if args.verb == "betti" and args.max_degree > BETTI_CEILING:
        return (
            f"betti table is limited to degree {BETTI_CEILING} on the command line "
            f"(row n reads primitive data in degree n + 2, and verify checks that "
            f"data through degree {DEFAULT_MAX_DEGREE} by default)"
        )
    if args.verb == "primitives":
        if args.reduced and args.space != "rp-inf":
            return "--reduced only applies to rp-inf"
        for flag, value in given:
            if value == 0:
                return f"{flag} must be at least 1"
    if args.verb == "map-eval" and args.map == "iota-plus-c" and args.word:
        return "iota-plus-c takes no word"
    return None


def _write(fmt: str, rows: list, header: str, text: str) -> None:
    """Print row dicts as JSON lines, as CSV (the header, then the first two
    fields of each row) or as text lines: the template text filled from
    each row, a list field as its items joined by spaces."""
    if fmt == "csv":
        print(header)
    for row in rows:
        if fmt == "json":
            print(json.dumps(row, sort_keys=True))
        elif fmt == "csv":
            print(*list(row.values())[:2], sep=",")
        else:
            fields = {k: " ".join(v) if isinstance(v, list) else v for k, v in row.items()}
            print(text.format_map(fields))


def _parse_word(text: str) -> tuple:
    if not text:
        return ()
    try:
        word = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad word {text!r}; expected e.g. '3,1'")
    if any(s < 0 for s in word):
        raise argparse.ArgumentTypeError(f"bad word {text!r}; Dyer-Lashof indices must be >= 0")
    return word


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmcg",
        description="Exact mod-2 homology of free infinite loop spaces and "
        "the stable spin mapping class group Betti table.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def add_common(p, *, degree=False, space=False, tail=False, formats=("text", "csv", "json")):
        if space:
            p.add_argument("--space", choices=SPACES, required=True)
        if degree:
            # no parser default for --max-degree: argparse does not count a
            # flag given at its default value, so --degree 3 --max-degree 12
            # would pass the exclusion
            which = p.add_mutually_exclusive_group()
            which.add_argument("--degree", type=int)
            which.add_argument("--max-degree", type=int)
        else:
            p.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
        if tail:
            p.add_argument("--tail", choices=TAIL_POLICIES, default="primitive")
        p.add_argument("--format", choices=formats, default="text")

    p = verb("basis", cmd_basis, "list polynomial generators")
    add_common(p, space=True)

    p = verb("primitives", cmd_primitives, "primitive dimensions and label basis")
    add_common(p, space=True, degree=True)
    p.add_argument("--reduced", action="store_true",
                   help="use the based model (no index-zero family)")

    p = verb("verify", cmd_verify, "run a named verification target")
    p.add_argument("--target", required=True, choices=sorted(TARGETS) + ["all"])
    add_common(p, formats=("text", "json"))

    p = verb("map-eval", cmd_map_eval, "evaluate a named map on a generator")
    p.add_argument("--map", required=True,
                   choices=("partial", "iota-plus-c", "theorem2"))
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--word", type=_parse_word, default=())
    p.add_argument("--tail", choices=TAIL_POLICIES, default="primitive")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = verb("poincare", cmd_poincare, "graded dimensions of a model")
    add_common(p, space=True)

    p = verb("betti", cmd_betti, "stable spin mapping class group Betti table")
    add_common(p, tail=True)
    p.set_defaults(max_degree=BETTI_CEILING)
    return parser


def cmd_basis(args) -> int:
    model = get_model(args.space)
    gens = model.generators_in_degree(0) + model.generators(args.max_degree)
    rows = [{"degree": model.mono_degree(g), "generator": model.render_mono(g)} for g in gens]
    _write(args.format, rows, "degree,generator", "{degree:3d}  {generator}")
    return 0


def cmd_primitives(args) -> int:
    model = get_model(args.space, args.reduced)
    top = args.max_degree or DEFAULT_MAX_DEGREE  # a given --max-degree is at least 1
    degrees = [args.degree] if args.degree is not None else range(1, top + 1)
    rows = []
    for n in degrees:
        row = {"degree": n, "dim": model.primitives(n).dim}
        if args.space == "rp-inf":
            row["labels"] = [str(l) for l, _ in primitive_basis(n, reduced=model.reduced)]
        rows.append(row)
    text = "{degree:3d}  dim {dim}" + ("  {labels}" if args.space == "rp-inf" else "")
    _write(args.format, rows, "degree,dimension", text)
    return 0


def cmd_verify(args) -> int:
    targets = sorted(TARGETS) if args.target == "all" else [args.target]
    # results are buffered per target and emitted in a fixed order
    results = [run_target(target, args.max_degree) for target in targets]
    for result in results:
        print(result.to_json() if args.format == "json" else result.to_text())
    return 0 if all(r.passed for r in results) else 1


def cmd_map_eval(args) -> int:
    if args.map == "partial":
        value, base = partial_on_generator(args.index, args.tail), "abar"
        if args.word:
            value = get_model("rp-inf").honest_q_word(args.word, value)
    elif args.map == "iota-plus-c":
        value, base = transfer_iota_plus_c(args.index), "a"
    else:
        value, base = theorem2_composite(args.word, args.index), "b"
    ops = " ".join(f"Q^{s}" for s in args.word)
    source = f"{ops} {base}_{args.index}".strip()
    if args.format == "json":
        print(json.dumps({"source": source, "value": str(value)}, sort_keys=True))
    else:
        print(f"{source} |-> {value}")
    return 0


def cmd_poincare(args) -> int:
    model = get_model(args.space)
    rows = [{"degree": n, "dim": model.dim(n)} for n in range(args.max_degree + 1)]
    _write(args.format, rows, "degree,dimension", "{degree:3d}  {dim}")
    return 0


def cmd_betti(args) -> int:
    table = spin_betti(args.max_degree, args.tail)
    loops, squares = table.provenance["loop_image_dims"], table.provenance["squares_dims"]
    # factors: each [p, loop image dim in p, squares dim in d - p] that
    # contributes to the row, printed by the json format only
    rows = [
        {"degree": d, "dim": v, "factors": {"loop_image": [
            [p, loops[p], squares[d - p]]
            for p in range(d + 1) if loops[p] and squares[d - p]
        ]}}
        for d, v in table.rows
    ]
    _write(args.format, rows, "degree,dimension", "{degree:3d}  {dim}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    error = _usage_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    try:
        code = args.run(args)
        sys.stdout.flush()
        # the verb's work is done: take what it built out of the collector's
        # view, so interpreter teardown does not traverse it
        gc.freeze()
        return code
    except (ValueError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # a closed pipe is not a failure; keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
