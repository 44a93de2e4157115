"""Command line front end.

Verbs: basis, primitives, verify, map-eval, poincare, betti.  Exit code
0 on success or a verified target, 1 on a verification failure, 2 on
usage errors, 141 when the reader of stdout has gone away.  All output
is deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import DEFAULT_MAX_DEGREE, HARD_MAX_DEGREE, get_model
from .betti import BETTI_CEILING, spin_betti
from .errors import EngineError
from .loops import primitive_basis
from .maps import TAIL_POLICIES, partial_on_generator, theorem2_composite, transfer_iota_plus_c
from .spaces import SPACES, has_degree_zero_class
from .verify import TARGETS, run_target


def _degree_error(args) -> str | None:
    """Usage error for a --degree or --max-degree below 0 or over the cap."""
    for flag in ("degree", "max_degree"):
        value = getattr(args, flag, None)
        if value is None:
            continue
        if value < 0:
            return f"--{flag.replace('_', '-')} must be >= 0"
        if value > HARD_MAX_DEGREE:
            return f"max degree capped at {HARD_MAX_DEGREE}"
    return None


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

    p = sub.add_parser("basis", help="list polynomial generators")
    add_common(p, space=True)

    p = sub.add_parser("primitives", help="primitive dimensions and label basis")
    add_common(p, space=True, degree=True)
    p.add_argument("--reduced", action="store_true",
                   help="use the based model (no index-zero family)")

    p = sub.add_parser("verify", help="run a named verification target")
    p.add_argument("--target", required=True, choices=sorted(TARGETS) + ["all"])
    add_common(p, formats=("text", "json"))

    p = sub.add_parser("map-eval", help="evaluate a named map on a generator")
    p.add_argument("--map", required=True,
                   choices=("partial", "iota-plus-c", "theorem2"))
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--word", type=_parse_word, default=())
    p.add_argument("--tail", choices=TAIL_POLICIES, default="primitive")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("poincare", help="graded dimensions of a model")
    add_common(p, space=True)

    p = sub.add_parser("betti", help="stable spin mapping class group Betti table")
    add_common(p, tail=True)
    p.set_defaults(max_degree=BETTI_CEILING)
    return parser


def cmd_basis(args) -> int:
    model = get_model(args.space)
    gens = model.generators(args.max_degree)
    if has_degree_zero_class(args.space):
        gens = [model.gen_id((), 0)] + gens
    rows = [(model.gen_degree(g), model.render_gen(g)) for g in gens]
    if args.format == "csv":
        print("degree,generator")
        for d, text in rows:
            print(f"{d},{text}")
    elif args.format == "json":
        for d, text in rows:
            print(json.dumps({"degree": d, "generator": text}, sort_keys=True))
    else:
        for d, text in rows:
            print(f"{d:3d}  {text}")
    return 0


def cmd_primitives(args) -> int:
    if args.space != "rp-inf" and args.reduced:
        print("--reduced only applies to rp-inf", file=sys.stderr)
        return 2
    for flag in ("degree", "max_degree"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            print(f"--{flag.replace('_', '-')} must be at least 1", file=sys.stderr)
            return 2
    model = get_model(args.space, args.reduced if args.space == "rp-inf" else False)
    if args.degree is not None:
        degrees = [args.degree]
    else:
        top = DEFAULT_MAX_DEGREE if args.max_degree is None else args.max_degree
        degrees = list(range(1, top + 1))
    rows = []
    for n in degrees:
        dim = model.primitives(n).dim
        entry = {"degree": n, "dim": dim}
        if args.space == "rp-inf":
            labels = [str(l) for l, _ in primitive_basis(n, reduced=model.reduced)]
            entry["labels"] = labels
        rows.append(entry)
    if args.format == "csv":
        print("degree,dimension")
        for r in rows:
            print(f"{r['degree']},{r['dim']}")
    elif args.format == "json":
        for r in rows:
            print(json.dumps(r, sort_keys=True))
    else:
        for r in rows:
            labels = "  " + " ".join(r.get("labels", [])) if "labels" in r else ""
            print(f"{r['degree']:3d}  dim {r['dim']}{labels}")
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
        value = partial_on_generator(args.index, args.tail)
        source = f"abar_{args.index}"
        if args.word:
            model = get_model("rp-inf")
            value = model.honest_q_word(args.word, value)
            ops = " ".join(f"Q^{s}" for s in args.word)
            source = f"{ops} abar_{args.index}"
    elif args.map == "iota-plus-c":
        if args.word:
            print("iota-plus-c takes no word", file=sys.stderr)
            return 2
        value = transfer_iota_plus_c(args.index)
        source = f"a_{args.index}"
    else:
        value = theorem2_composite(args.word, args.index)
        ops = " ".join(f"Q^{s}" for s in args.word)
        source = f"{ops} b_{args.index}".strip()
    if args.format == "json":
        print(json.dumps({"source": source, "value": str(value)}, sort_keys=True))
    else:
        print(f"{source} |-> {value}")
    return 0


def cmd_poincare(args) -> int:
    model = get_model(args.space)
    rows = [(n, model.dim(n)) for n in range(args.max_degree + 1)]
    if args.format == "csv":
        print("degree,dimension")
        for n, d in rows:
            print(f"{n},{d}")
    elif args.format == "json":
        for n, d in rows:
            print(json.dumps({"degree": n, "dim": d}, sort_keys=True))
    else:
        for n, d in rows:
            print(f"{n:3d}  {d}")
    return 0


def cmd_betti(args) -> int:
    if args.max_degree > BETTI_CEILING:
        print(
            f"betti table is limited to degree {BETTI_CEILING} "
            f"(primitive data tops out at {DEFAULT_MAX_DEGREE})",
            file=sys.stderr,
        )
        return 2
    table = spin_betti(args.max_degree, args.tail)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    elif args.format == "json":
        for line in table.to_json_rows():
            print(line)
    else:
        for d, v in table.rows:
            print(f"{d:3d}  {v}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    error = _degree_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    handlers = {
        "basis": cmd_basis,
        "primitives": cmd_primitives,
        "verify": cmd_verify,
        "map-eval": cmd_map_eval,
        "poincare": cmd_poincare,
        "betti": cmd_betti,
    }
    try:
        code = handlers[args.verb](args)
        sys.stdout.flush()
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
