"""Run one spinmcg CLI command in this process with per-layer timing spans.

Usage: python3 tracer.py SRC_DIR OUT_JSON -- CLI_ARGS...

Imports spinmcg from SRC_DIR, wraps the public entry points of each layer
(listed in ENTRY_POINTS) in timing spans, calls ``spinmcg.cli.main`` with
CLI_ARGS and exits with its return code.  Spans are kept in memory; when
the command ends they are reduced to per-layer self times and counters and
written once, as JSON, to OUT_JSON.

Names are patched where callers look them up: on the class for methods,
and in every loaded ``spinmcg`` module that imported a function by name
(``from .hopf import hopf_kernel_dims`` and the like).  An entry point that
no longer exists is reported under ``absent`` instead of failing the run.

Per-monomial accessors (``QAlgebra.basis``, ``dim``, ``gen_degree``,
``mono_mul``) and the ``spaces`` helpers are deliberately not wrapped:
they run millions of times inside the coproduct loops, so a span around
them would cost more than the work it measures.  Their time lands in the
self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

# (module, attribute path, layer).  A layer's self time is the time spent in
# its entry points minus the time of any wrapped call they make.
ENTRY_POINTS = [
    ("spinmcg.cli", "main", "cli"),
    ("spinmcg.words", "generator_set", "words.generators"),
    ("spinmcg.words", "generator_counts", "words.generators"),
    ("spinmcg.algebra", "QAlgebra.coproduct", "algebra.psi"),
    ("spinmcg.algebra", "QAlgebra.reduced_coproduct", "algebra.psi"),
    ("spinmcg.algebra", "QAlgebra.reduced_coproduct_rows", "algebra.psi"),
    ("spinmcg.algebra", "QAlgebra.primitives", "algebra.psi"),
    ("spinmcg.algebra", "QAlgebra.tensor_vector", "algebra.encode"),
    ("spinmcg.algebra", "QAlgebra.q_apply", "algebra.action"),
    ("spinmcg.algebra", "QAlgebra.q_word", "algebra.action"),
    ("spinmcg.algebra", "QAlgebra.sq_star", "algebra.action"),
    ("spinmcg.algebra", "QAlgebra.lambda_op", "algebra.action"),
    ("spinmcg.algebra", "QAlgebra.honest_q_word", "algebra.action"),
    ("spinmcg.gf2", "left_kernel", "gf2.left_kernel"),
    ("spinmcg.gf2", "span_solve", "gf2.span_solve"),
    ("spinmcg.gf2", "rank", "gf2.rank"),
    ("spinmcg.hopf", "hopf_kernel_dims", "hopf.cotensor"),
    ("spinmcg.hopf", "AFunctorPresentation.brute_dims", "hopf.brute"),
    ("spinmcg.loops", "CanonicalPrimitives.element", "loops.canonical"),
    ("spinmcg.loops", "primitive_basis", "loops.canonical"),
    ("spinmcg.loops", "LoopTower.ph", "loops.tower"),
    ("spinmcg.loops", "LoopTower.lambda_on_vector", "loops.tower"),
    ("spinmcg.loops", "LoopTower.lambda_image", "loops.tower"),
    ("spinmcg.loops", "LoopTower.klam", "loops.tower"),
    ("spinmcg.loops", "LoopTower.level1_presentation", "loops.tower"),
    ("spinmcg.loops", "LoopTower.level2_presentation", "loops.tower"),
    ("spinmcg.loops", "LoopTower.level1_dims", "loops.tower"),
    ("spinmcg.loops", "LoopTower.level2_dims", "loops.tower"),
    ("spinmcg.loops", "LoopTower.loop_model", "loops.tower"),
    ("spinmcg.loops", "LoopTower.polynomiality", "loops.tower"),
    ("spinmcg.maps", "partial_on_generator", "maps.boundary"),
    ("spinmcg.maps", "PrimitiveBoundary.source_labels", "maps.boundary"),
    ("spinmcg.maps", "PrimitiveBoundary.value", "maps.boundary"),
    ("spinmcg.maps", "PrimitiveBoundary.image", "maps.boundary"),
    ("spinmcg.maps", "PrimitiveBoundary.apply_primitive", "maps.boundary"),
    ("spinmcg.maps", "PrimitiveBoundary.naturality_failures", "maps.boundary"),
    ("spinmcg.maps", "GeneratorMap.apply", "maps.matrix"),
    ("spinmcg.maps", "GeneratorMap.matrix", "maps.matrix"),
    ("spinmcg.maps", "GeneratorMap.image_vectors", "maps.matrix"),
    ("spinmcg.maps", "s1_transfer", "maps.matrix"),
    ("spinmcg.maps", "transfer_iota_plus_c", "maps.matrix"),
    ("spinmcg.maps", "theorem2_composite", "maps.matrix"),
    ("spinmcg.maps", "verify_partial_injective", "maps.matrix"),
    ("spinmcg.maps", "steenrod_naturality_failures", "maps.matrix"),
    ("spinmcg.maps", "q_equivariance_failures", "maps.matrix"),
    ("spinmcg.maps", "cokernel_generators", "maps.cokernel"),
    ("spinmcg.maps", "kernel_poincare", "maps.cokernel"),
    ("spinmcg.betti", "spin_betti", "betti.assemble"),
    ("spinmcg.betti", "corollary18_check", "betti.assemble"),
    ("spinmcg.betti", "BettiTable.to_csv", "betti.assemble"),
    ("spinmcg.betti", "BettiTable.to_json_rows", "betti.assemble"),
    ("spinmcg.verify", "run_target", "verify.run_target"),
]


class Tracer:
    """In-memory spans: (entry point, parent span, start, end)."""

    def __init__(self):
        self.entries: list[tuple[str, str]] = []  # (qualified name, layer)
        self.spans: list = []
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.seen: set = set()
        self.absent: list[str] = []
        self.inclusive: set[str] = set()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def count_first(self, key, name: str, amount) -> None:
        """Count once per key, so memoized repeats are not counted again."""
        if key not in self.seen:
            self.seen.add(key)
            self.count(name, amount())

    def wrap(self, fn, qualname: str, layer: str, counter=None):
        entry = len(self.entries)
        self.entries.append((qualname, layer))
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (entry, parent, start, end)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self, module_name: str, path: str, layer: str, counter=None) -> None:
        """Wrap one entry point, or record it as absent."""
        qualname = f"{module_name}.{path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(qualname)
            return
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(name) if owner is not None else None
        if not isinstance(original, types.FunctionType):
            self.absent.append(qualname)
            return
        wrapped = self.wrap(original, qualname, layer, counter)
        setattr(owner, name, wrapped)
        if not outer:
            self.rebind(original, wrapped)

    def rebind(self, original, wrapped) -> None:
        """Replace every by-name import of original in the spinmcg modules."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spinmcg" and not mod_name.startswith("spinmcg."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    def install_targets(self) -> None:
        """Each verification target is its own inclusive span."""
        try:
            targets = importlib.import_module("spinmcg.verify").TARGETS
        except (ImportError, AttributeError):
            self.absent.append("spinmcg.verify.TARGETS")
            return
        for name, fn in list(targets.items()):
            layer = f"verify.{name}"
            self.inclusive.add(layer)
            wrapped = self.wrap(fn, f"spinmcg.verify.TARGETS[{name}]", layer)
            targets[name] = wrapped
            self.rebind(fn, wrapped)

    def report(self) -> dict:
        n = len(self.spans)
        child = [0.0] * n
        calls = [0] * len(self.entries)
        total = [0.0] * len(self.entries)
        self_time = [0.0] * len(self.entries)
        # a child span opens after its parent, so it has a higher index
        for i in range(n - 1, -1, -1):
            entry, parent, start, end = self.spans[i]
            duration = end - start
            calls[entry] += 1
            total[entry] += duration
            self_time[entry] += duration - child[i]
            if parent >= 0:
                child[parent] += duration
        layers: dict[str, float] = {}
        for (_, layer), tot, own in zip(self.entries, total, self_time):
            layers[layer] = layers.get(layer, 0.0) + (tot if layer in self.inclusive else own)
        return {
            "layers_s": layers,
            "counters": self.counters,
            "entry_points": {
                q: {"calls": c, "total_s": t, "self_s": s}
                for (q, _), c, t, s in zip(self.entries, calls, total, self_time)
            },
            "absent": self.absent,
            "spans": n,
        }


# Counters: matrix shapes and distinct work items, taken where the work happens.

def _psi_rows(tracer, args, rows):
    model, degree = args[0], args[1]
    tracer.count_first(("psi_rows", id(model), degree), "algebra.psi_rows", lambda: len(rows))
    tracer.count_first(
        ("psi_cells", id(model), degree), "algebra.psi_cells",
        lambda: len(rows) * model.tensor_dim(degree),
    )


def _primitive_dim(tracer, args, space):
    tracer.count_first(("prim", id(args[0]), args[1]), "algebra.primitive_dim", lambda: space.dim)


def _matrix_cells(name):
    def count(tracer, args, _result):
        m = args[0]
        tracer.count(name, m.n_rows * m.n_cols)
    return count


def _span_solve(tracer, args, _result):
    tracer.count("gf2.span_solve_calls", 1)
    tracer.count("gf2.span_solve_rows", len(args[0]))


def _canonical_label(tracer, args, _result):
    tracer.count_first(("label", id(args[0]), args[1]), "loops.canonical_labels", lambda: 1)


COUNTERS = {
    "QAlgebra.reduced_coproduct_rows": _psi_rows,
    "QAlgebra.primitives": _primitive_dim,
    "left_kernel": _matrix_cells("gf2.left_kernel_cells"),
    "rank": _matrix_cells("gf2.rank_cells"),
    "span_solve": _span_solve,
    "CanonicalPrimitives.element": _canonical_label,
}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SRC_DIR OUT_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    src, out_path, cli_args = argv[0], argv[1], argv[3:]
    sys.path.insert(0, src)
    import spinmcg
    import spinmcg.cli  # loads every layer, so by-name imports exist to patch

    tracer = Tracer()
    for module_name, path, layer in ENTRY_POINTS:
        tracer.install(module_name, path, layer, COUNTERS.get(path))
    tracer.install_targets()
    code = 1
    try:
        code = spinmcg.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        report = tracer.report()
        report["spinmcg_file"] = spinmcg.__file__
        with open(out_path, "w") as fh:
            json.dump(report, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
