"""Command-line front end: solve, verify, generate, convert, bench.

Values go to standard output as a single integer line; diagnostics go to
standard error.  Exit codes: 0 success, 1 some verify check failed, 2 bad
input or incompatible problem/class, 3 oracle cap or node budget exceeded.

``solve`` runs four steps, each returning a value or raising ``CliError``:
read the graph or the model (with any floors it carries), read the weakL
floors, choose the solver (the model's class, a recognizer, the auto chain
or the oracle within its vertex cap), then solve and check the witness.
The cap (``RAINBOWDOM_ORACLE_CAP``, default 24) is ``solve``'s policy
alone: the choose step checks it once, before the oracle runs, and
``verify`` and ``bench`` never read it.  A witness is validated, and its
cost compared with the printed value, before either is written; a model
file's witness is validated on the model, so ``solve --model`` builds no
graph.  The (class, problem) table lives in ``rainbowdom.registry``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time

from .graph import GraphParseError, parse_graph, render_graph
from .semantics import RainbowFunction, WeightFunction, check_witness
from .oracle import DEFAULT_VERTEX_CAP, InfeasibleInstance, OracleBudgetExceeded
from .cograph import Cotree
from .trivially_perfect import parse_assignment
from .gadgets import render_split_partition
from .generators import FAMILIES, generate
from .registry import PROBLEMS, REGISTRY, recognize_auto


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _fail(message: str, code: int = 2):
    raise CliError(message, code)


def _check_k(entry, cls: str, k) -> None:
    if k is None or k < 1:
        _fail("--k must be a positive integer")
    if entry is not None and entry.k2_only and k != 2:
        _fail(f"class {cls} supports only k=2 for this problem")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}")


def _oracle_cap() -> int:
    """The oracle's vertex cap: ``RAINBOWDOM_ORACLE_CAP`` if set, else the
    default.  Only ``solve`` applies it."""
    env = os.environ.get("RAINBOWDOM_ORACLE_CAP")
    if not env:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        _fail(f"RAINBOWDOM_ORACLE_CAP must be a positive integer, got {env!r}")
    return cap


CLASSES = ("auto",) + tuple(REGISTRY)


def _read_model(cls: str, path: str):
    text = _read(path)
    try:
        return REGISTRY[cls].load(text)
    except ValueError as exc:
        _fail(f"cannot parse model for class {cls}: {exc}")


def _witness_json(problem: str, k: int, value: int, witness) -> str:
    doc = {"problem": problem, "k": k, "value": value}
    if isinstance(witness, RainbowFunction):
        doc["labels"] = {str(v): sorted(lab) for v, lab in enumerate(witness.labels)}
    elif isinstance(witness, WeightFunction):
        doc["weights"] = {str(v): w for v, w in enumerate(witness.weights)}
    return json.dumps(doc, sort_keys=True)


def cmd_solve(args) -> int:
    problem, cls, k, j = args.problem, args.klass, args.k, args.j
    entry = REGISTRY.get(cls)
    if entry is not None and problem not in entry.solvers:
        _fail(f"problem {problem} cannot be solved with class {cls}")
    _check_k(entry, cls, k)
    if problem == "jkdom" and (j is None or not 1 <= j <= k):
        _fail("--j must satisfy 1 <= j <= k")
    instance, carried = _read_input(args, entry)
    L = _read_floors(args, instance, carried)
    chosen, model = _choose(args, entry, instance, L)
    value, witness = _solve(args, chosen, model, instance, L)
    if args.witness:
        _write(args.witness, _witness_json(problem, k, value, witness) + "\n")
        print(f"witness written to {args.witness}", file=sys.stderr)
    print(value)
    return 0


def _read_input(args, entry):
    """Step 1: the graph from --graph, or the model from --model and the
    floors it carries (None when it carries none)."""
    loads = entry is not None and entry.load is not None
    if args.graph and args.model:
        _fail("give --graph or --model, not both")
    if args.model and loads:
        model = _read_model(args.klass, args.model)
        if not hasattr(model, "assignment"):
            return model, None
        if model.k != args.k:
            _fail(f"instance file has k={model.k}, flag says k={args.k}")
        return model, model.assignment()
    if not args.graph:
        _fail(f"class {args.klass} needs " + ("--model or --graph" if loads else "--graph"))
    try:
        return parse_graph(_read(args.graph)), None
    except GraphParseError as exc:
        _fail(f"cannot parse graph: {exc}")


def _read_floors(args, instance, carried):
    """Step 2: the weakL floors, from the model or from --assignment."""
    if carried is not None or args.problem != "weakL":
        if args.assignment:
            _fail("the model file carries the floors; drop --assignment" if carried
                  else f"problem {args.problem} reads no --assignment")
        return carried
    if not args.assignment:
        _fail("problem weakL needs --assignment")
    try:
        L = parse_assignment(_read(args.assignment), args.k)
    except ValueError as exc:
        _fail(f"cannot parse assignment: {exc}")
    if len(L.pairs) != instance.n:
        _fail("assignment size disagrees with the instance")
    return L


def _choose(args, entry, instance, L):
    """Step 3: the class to solve as and its model: the model file, the
    named class's recognizer, the auto chain, or the oracle within its cap."""
    # no decomposition tree models the empty instance; the oracle answers it
    chosen = "oracle" if instance.n == 0 else args.klass
    auto = chosen == "auto"
    if auto:
        chosen, model = recognize_auto(args.problem, instance, L)
    elif args.model or chosen == "oracle":
        model = instance
    elif entry.recognize is None:
        _fail(f"class {chosen} cannot be recognized from a bare graph; supply --model")
    elif isinstance(model := entry.recognize(instance, L), str):
        _fail(model)
    if chosen == "oracle":
        # the one cap check, however the oracle was chosen; the oracle's
        # searches are given no cap
        cap = _oracle_cap()
        size = instance.n * args.k if args.problem == "rainbow" else instance.n
        if size > cap:
            why = "no structured class recognized and the" if auto else "the"
            _fail(
                f"{why} instance exceeds the oracle cap ({size} > {cap}); "
                f"raise RAINBOWDOM_ORACLE_CAP or supply --class with a model",
                code=3,
            )
    if auto:
        print(f"auto: solving as {chosen}", file=sys.stderr)
    return chosen, model


def _solve(args, chosen, model, instance, L):
    """Step 4: the value and a witness checked on the input, model or graph."""
    try:
        value, witness = REGISTRY[chosen].solvers[args.problem](model, args.k, args.j, L)
    except OracleBudgetExceeded as exc:
        _fail(str(exc), code=3)
    except InfeasibleInstance as exc:
        _fail(f"infeasible: {exc}")
    fault = check_witness(args.problem, instance, value, witness, args.j, L)
    if fault is not None:
        raise AssertionError(f"internal error: {fault}")
    return value, witness


def cmd_verify(args) -> int:
    from .harness import CertificationPlan, default_plan, run_plan
    if args.workers < 1:
        _fail(f"--workers must be at least 1, got {args.workers}")
    if args.plan:
        try:
            plan = CertificationPlan.from_json(_read(args.plan))
        except ValueError as exc:
            _fail(f"cannot parse plan: {exc}")
        if args.seed is not None:
            plan = CertificationPlan(args.seed, plan.checks)
    else:
        plan = default_plan(
            "full" if args.full else "quick",
            seed=args.seed if args.seed is not None else 0,
        )
    report = run_plan(plan, workers=args.workers)
    doc = report.to_json(include_timing=args.timing)
    if args.out:
        _write(args.out, doc + "\n")
    else:
        print(doc)
    print(report.summary(), file=sys.stderr)
    return 0 if report.all_passed else 1


def cmd_generate(args) -> int:
    family = args.family
    if family not in FAMILIES:
        _fail(f"unknown generator family {family!r}")
    try:
        g, model = generate(family, *args.params, seed=args.seed)
    except ValueError as exc:
        _fail(f"bad generator parameters: {exc}")
    out = args.out or family
    _write(out + ".graph", render_graph(g))
    written = [out + ".graph"]
    if model is not None:
        from .gadgets import SplitPartition
        from .generators import BipartitePartition

        if isinstance(model, Cotree):
            path = out + (".p4tree" if "S" in model.kind else ".cotree")
            _write(path, model.to_text() + "\n")
            written.append(path)
        elif isinstance(model, SplitPartition):
            _write(out + ".split", render_split_partition(model))
            written.append(out + ".split")
        elif isinstance(model, BipartitePartition):
            _write(out + ".sides", f"{len(model.side1)} {len(model.side2)}\n")
            written.append(out + ".sides")
    print("wrote " + " ".join(written), file=sys.stderr)
    return 0


def cmd_convert(args) -> int:
    cls = next(c for c, entry in REGISTRY.items() if entry.kind == args.kind)
    g = REGISTRY[cls].to_graph(_read_model(cls, args.model))
    text = render_graph(g)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    entry = REGISTRY.get(args.klass)
    if entry is None or entry.sample is None:
        _fail(f"bench does not support class {args.klass!r}")
    sizes = args.sizes.split(",")
    if not all(s.strip().isdecimal() and int(s) > 0 for s in sizes):
        _fail(f"--sizes must be comma-separated positive integers, got {args.sizes!r}")
    sizes = [int(s) for s in sizes]
    _check_k(entry, args.klass, args.k)
    rng = random.Random(args.seed)
    rows = []
    for n in sizes:
        instance = entry.sample(n, rng)
        t0 = time.perf_counter()
        try:
            entry.timed(instance, args.k)
        except OracleBudgetExceeded as exc:
            _fail(str(exc), code=3)
        rows.append((n, time.perf_counter() - t0))
    print(f"{'n':>10}  {'seconds':>10}")
    for n, dt in rows:
        print(f"{n:>10}  {dt:>10.3f}")
    return 0


@functools.cache  # built once per process, however often main runs
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rainbowdom",
        description="Exact rainbow/weak domination solvers with oracle certification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one instance")
    sp.add_argument("--problem", required=True, choices=PROBLEMS)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--j", type=int)
    sp.add_argument("--class", dest="klass", default="auto", choices=CLASSES)
    sp.add_argument("--graph", help="edge-list file")
    sp.add_argument("--model", help="class-specific model file")
    sp.add_argument("--assignment", help="per-vertex (a, b) floors file")
    sp.add_argument("--witness", help="write the witness as JSON here")
    sp.set_defaults(func=cmd_solve)

    vp = sub.add_parser("verify", help="run the certification harness")
    vp.add_argument("--plan", help="plan JSON file (default: built-in plan)")
    vp.add_argument("--seed", type=int)
    vp.add_argument("--full", action="store_true", help="certification-suite scale")
    vp.add_argument("--workers", type=int, default=1,
                    help="processes running checks, this one included")
    vp.add_argument("--timing", action="store_true",
                    help="add each check's seconds to the report")
    vp.add_argument("--out", help="write the report JSON here")
    vp.set_defaults(func=cmd_verify)

    gp = sub.add_parser("generate", help="write a named family instance")
    gp.add_argument("family")
    gp.add_argument("params", nargs="*", type=float)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out", help="output path prefix")
    gp.set_defaults(func=cmd_generate)

    cp = sub.add_parser("convert", help="turn a model file into an edge list")
    cp.add_argument("--kind", required=True,
                    choices=tuple(e.kind for e in REGISTRY.values() if e.kind))
    cp.add_argument("model")
    cp.add_argument("--out")
    cp.set_defaults(func=cmd_convert)

    bp = sub.add_parser("bench", help="time a solver over a size grid")
    bp.add_argument("--class", dest="klass", required=True)
    bp.add_argument("--sizes", required=True, help="comma-separated sizes")
    bp.add_argument("--k", type=int, default=2)
    bp.add_argument("--seed", type=int, default=0)
    bp.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
