"""Command-line front end: solve, verify, generate, convert, bench.

Values go to standard output as a single integer line; diagnostics go to
standard error.  Exit codes: 0 success, 2 bad input or incompatible
problem/class, 3 oracle cap exceeded.  Any witness is validated before it
is written.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable

from .graph import Graph, GraphParseError, parse_graph, render_graph
from .semantics import (
    KAssignment,
    RainbowFunction,
    WeightFunction,
    is_jk_dom,
    is_k_dom,
    is_rainbow,
    is_weak_k,
    is_weak_kL,
    rainbow_cost,
)
from . import oracle as _oracle
from .oracle import (
    InfeasibleInstance,
    OracleBudgetExceeded,
    OracleCapExceeded,
)
from .cograph import (
    Cotree,
    CotreeBuilder,
    CotreeParseError,
    SpiderPartition,
    cotree_to_graph,
    kdom_cograph,
    parse_cotree,
    rainbow_cograph,
    recognize_cograph,
    random_cotree,
    weak_cograph,
)
from .p4sparse import recognize_p4sparse
from .trivially_perfect import (
    RootedTreeModel,
    build_tree_model,
    gamma_rk_tp,
    gamma_wkL,
    gamma_wk_tp,
    jk_domination_tp,
    parse_assignment,
    parse_tree_model,
    random_tree_model,
)
from .interval import (
    IntervalModel,
    build_arrangement,
    interval_graph,
    parse_intervals,
    rainbow2_interval,
    weak2_interval,
)
from .permutation import (
    diagram_to_graph,
    parse_permutation,
    rainbow2_permutation,
    weak2_permutation,
)
from .bipartite import (
    complete_bipartite_graph,
    instance_from_assignment,
    parse_bipartite_instance,
    weakL_complete_bipartite,
)
from .gadgets import render_split_partition
from .generators import FAMILIES, generate
from .harness import CertificationPlan, default_plan, run_plan

PROBLEMS = ("rainbow", "weak", "kdom", "jkdom", "weakL")


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _fail(message: str, code: int = 2):
    raise CliError(message, code)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")


# --- the (class, problem) table ------------------------------------------------


@dataclass(frozen=True)
class GraphClass:
    """How solve, auto, convert and bench handle one graph class.

    ``solvers`` maps each supported problem to ``solver(model, k, j, L)``,
    which returns (value, witness or None); the oracle's model is the
    graph.  ``load`` parses a model file (``kind`` names the file for
    convert), ``recognize(g, L)`` returns a model of g or the refusal
    message, and ``to_graph`` builds the graph a model encodes.  bench
    times ``timed(instance, k)`` on each ``instance = sample(n, rng)``."""

    solvers: dict[str, Callable]
    load: Callable | None = None
    kind: str | None = None
    recognize: Callable | None = None
    to_graph: Callable | None = None
    k2_only: bool = False        # the sweeps solve k = 2 only
    value_only: tuple = ()       # problems solved without a witness
    sample: Callable | None = None
    timed: Callable | None = None


def _load_cotree(text: str) -> Cotree:
    t = parse_cotree(text)
    if "S" in t.kind:
        raise CotreeParseError("a cotree has no spider nodes")
    return t


def _recognize_cograph(g: Graph, _L):
    t = recognize_cograph(g)
    return t if isinstance(t, Cotree) else f"not a cograph: induced path on vertices {t.p4}"


def _recognize_p4sparse(g: Graph, _L):
    t = recognize_p4sparse(g)
    if isinstance(t, Cotree):
        return t
    return f"not in class: vertices {t.witness} induce two 4-paths"


def _recognize_tp(g: Graph, _L):
    m = build_tree_model(g)
    if isinstance(m, RootedTreeModel):
        return m
    return f"not in class: induced {m.kind} on vertices {m.vertices}"


def _recognize_complete_bipartite(g: Graph, L: KAssignment):
    """Instance for the linear solver when g is complete bipartite with the
    first side 0..n1-1 and the floors are all zero."""
    refusal = "not complete bipartite with zero floors"
    if g.n < 2 or any(a for a, _b in L.pairs):
        return refusal
    side1 = sorted(set(range(g.n)) - g.neighbors(0) - {0}) + [0]
    side1 = sorted(side1)
    side2 = sorted(set(range(g.n)) - set(side1))
    if side1 != list(range(len(side1))) or not side2:
        return refusal
    n1 = len(side1)
    set1, set2 = frozenset(side1), frozenset(side2)
    if any(g.neighbors(u) != set2 for u in side1) or any(
        g.neighbors(v) != set1 for v in side2
    ):
        return refusal
    return instance_from_assignment(
        n1, len(side2),
        KAssignment(L.k, tuple(L.pairs[v] for v in side1 + side2)),
    )


def _oracle_cap() -> int:
    try:
        return _oracle.vertex_cap()
    except ValueError as exc:
        _fail(str(exc))


def _oracle_solver(problem: str) -> Callable:
    def solve(g, k, j, L):
        if problem == "rainbow":
            res = _oracle.exact_rainbow(g, k)
        else:
            variant = {"weak": "weak_k", "kdom": "k_dom", "jkdom": "jk_dom",
                       "weakL": "weak_kL"}[problem]
            res = _oracle.exact_weight_variant(g, variant, k, j=j, assignment=L)
        return res.value, res.witness
    return solve


def _solve_bipartite(m, k, j, L):
    value, _xy, w = weakL_complete_bipartite(m)
    return value, w


def _random_arrangement(n: int, rng):
    spans = tuple(
        tuple(sorted((rng.randint(1, n), rng.randint(1, n)))) for _ in range(n)
    )
    return build_arrangement(IntervalModel(spans))


def _random_permutation(n: int, rng) -> tuple:
    pi = list(range(n))
    rng.shuffle(pi)
    return tuple(pi)


def _seeded(make: Callable) -> Callable:
    return lambda n, rng: make(n, rng.randrange(1 << 30))


def _tree_rainbow(t, k, j, L):
    return rainbow_cograph(t, k)


REGISTRY: dict[str, GraphClass] = {
    "cograph": GraphClass(
        {"rainbow": _tree_rainbow,
         "weak": lambda t, k, j, L: weak_cograph(t, k),
         "kdom": lambda t, k, j, L: kdom_cograph(t, k)},
        load=_load_cotree, kind="cotree", recognize=_recognize_cograph,
        to_graph=cotree_to_graph, sample=_seeded(random_cotree), timed=rainbow_cograph,
    ),
    "p4sparse": GraphClass(
        {"rainbow": _tree_rainbow},
        load=parse_cotree, kind="p4tree", recognize=_recognize_p4sparse,
        to_graph=cotree_to_graph,
    ),
    "trivially-perfect": GraphClass(
        {"rainbow": lambda m, k, j, L: (gamma_rk_tp(m, k), None),
         "weak": lambda m, k, j, L: gamma_wk_tp(m, k),
         "jkdom": lambda m, k, j, L: jk_domination_tp(m, j, k),
         "weakL": lambda m, k, j, L: gamma_wkL(m, L)},
        load=parse_tree_model, kind="tree", recognize=_recognize_tp,
        to_graph=lambda m: m.derived_graph(), value_only=("rainbow",),
        sample=_seeded(random_tree_model), timed=gamma_wk_tp,
    ),
    "interval": GraphClass(
        {"rainbow": lambda m, k, j, L: rainbow2_interval(build_arrangement(m)),
         "weak": lambda m, k, j, L: weak2_interval(build_arrangement(m))},
        load=parse_intervals, kind="intervals", to_graph=interval_graph, k2_only=True,
        sample=_random_arrangement, timed=lambda arr, k: weak2_interval(arr),
    ),
    "permutation": GraphClass(
        {"rainbow": lambda pi, k, j, L: rainbow2_permutation(pi),
         "weak": lambda pi, k, j, L: weak2_permutation(pi)},
        load=parse_permutation, kind="permutation", to_graph=diagram_to_graph,
        k2_only=True, sample=_random_permutation,
        timed=lambda pi, k: rainbow2_permutation(pi),
    ),
    "complete-bipartite": GraphClass(
        {"weakL": _solve_bipartite},
        load=parse_bipartite_instance, recognize=_recognize_complete_bipartite,
        to_graph=lambda m: complete_bipartite_graph(m.n1, m.n2),
    ),
    "oracle": GraphClass(
        {p: _oracle_solver(p) for p in PROBLEMS},
        sample=lambda n, rng: generate("random", n, 0.4, seed=rng.randrange(1 << 30))[0],
        timed=lambda g, k: _oracle.exact_rainbow(g, k, cap=max(48, g.n * k)),
    ),
}

CLASSES = ("auto",) + tuple(REGISTRY)

# problem -> classes --class auto recognizes, in order, before the oracle;
# every trivially perfect graph is a cograph, so rainbow and weak never
# need the trivially perfect recognizer
AUTO = {
    "rainbow": ("p4sparse",),
    "weak": ("cograph",),
    "kdom": ("cograph",),
    "jkdom": ("trivially-perfect",),
    "weakL": ("trivially-perfect", "complete-bipartite"),
}


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
    return json.dumps(doc, indent=2, sort_keys=True)


def _validate_witness(problem, g, k, j, L, witness) -> None:
    if witness is None:
        return
    if problem == "rainbow":
        ok, viol = is_rainbow(g, witness)
        ok = ok and rainbow_cost(witness) is not None
    elif problem == "weak":
        ok, viol = is_weak_k(g, witness)
    elif problem == "kdom":
        ok, viol = is_k_dom(g, witness)
    elif problem == "jkdom":
        ok, viol = is_jk_dom(g, witness, j)
    else:
        ok, viol = is_weak_kL(g, witness, L)
    if not ok:
        raise AssertionError(f"internal error: witness fails validation at {viol}")


def cmd_solve(args) -> int:
    problem = args.problem
    cls = args.klass
    entry = REGISTRY.get(cls)
    if entry is not None and problem not in entry.solvers:
        _fail(f"problem {problem} cannot be solved with class {cls}")
    k = args.k
    if k is None or k < 1:
        _fail("--k must be a positive integer")
    j = args.j
    if problem == "jkdom":
        if j is None or not (1 <= j <= k):
            _fail("--j must satisfy 1 <= j <= k")
    if entry is not None and entry.k2_only and k != 2:
        _fail(f"class {cls} supports only k=2 for this problem")
    if entry is not None and problem in entry.value_only and args.witness:
        _fail("this class computes the rainbow number only; no witness available")

    L = None
    model = None

    if cls == "complete-bipartite":
        if not args.model:
            _fail("class complete-bipartite needs --model (instance file)")
        model = _read_model(cls, args.model)
        if model.k != k:
            _fail(f"instance file has k={model.k}, flag says k={k}")
        g = entry.to_graph(model)
        b1 = [0] * model.n1
        for pos, orig in enumerate(model.order1):
            b1[orig] = model.b_sorted[pos]
        b2 = [0] * model.n2
        for pos, orig in enumerate(model.order2):
            b2[orig] = model.b_prime_sorted[pos]
        L = KAssignment(k, tuple((0, b) for b in b1 + b2))
    elif entry is not None and entry.load is not None:
        if args.model:
            model = _read_model(cls, args.model)
            g = entry.to_graph(model)
        elif args.graph:
            g = _parse_graph_file(args.graph)
            if g.n:
                if entry.recognize is None:
                    _fail(f"class {cls} cannot be recognized from a bare graph; "
                          f"supply --model")
                model = entry.recognize(g, L)
                if isinstance(model, str):
                    _fail(model)
        else:
            _fail(f"class {cls} needs --model or --graph")
    else:  # oracle or auto
        if not args.graph:
            _fail(f"class {cls} needs --graph")
        g = _parse_graph_file(args.graph)

    if problem == "weakL" and cls != "complete-bipartite":
        if not args.assignment:
            _fail("problem weakL needs --assignment")
        try:
            L = parse_assignment(_read(args.assignment), k)
        except ValueError as exc:
            _fail(f"cannot parse assignment: {exc}")
        if len(L.pairs) != g.n:
            _fail("assignment size disagrees with the instance")

    # no decomposition tree models the empty graph; the oracle answers it
    chosen = "oracle" if g.n == 0 else cls
    if chosen == "auto":
        chosen = "oracle"
        for name in AUTO[problem]:
            got = REGISTRY[name].recognize(g, L)
            if not isinstance(got, str):
                chosen, model = name, got
                break
        if chosen == "p4sparse" and "S" not in model.kind:
            chosen = "cograph"
        if chosen == "oracle":
            cap = _oracle_cap()
            size = g.n * k if problem == "rainbow" else g.n
            if size > cap:
                _fail(
                    f"no structured class recognized and the instance exceeds "
                    f"the oracle cap ({size} > {cap}); raise "
                    f"RAINBOWDOM_ORACLE_CAP or supply --class with a model",
                    code=3,
                )
        print(f"auto: solving as {chosen}", file=sys.stderr)
    if chosen == "oracle":
        _oracle_cap()
        model = g

    try:
        value, witness = REGISTRY[chosen].solvers[problem](model, k, j, L)
    except (OracleCapExceeded, OracleBudgetExceeded) as exc:
        _fail(str(exc), code=3)
    except InfeasibleInstance as exc:
        _fail(f"infeasible: {exc}")

    _validate_witness(problem, g, k, j, L, witness)
    print(value)
    if args.witness:
        if witness is None:
            _fail("no witness available for this solver")
        with open(args.witness, "w") as fh:
            fh.write(_witness_json(problem, k, value, witness) + "\n")
        print(f"witness written to {args.witness}", file=sys.stderr)
    return 0


def _parse_graph_file(path: str) -> Graph:
    try:
        return parse_graph(_read(path))
    except GraphParseError as exc:
        _fail(f"cannot parse graph: {exc}")


def cmd_verify(args) -> int:
    if args.workers < 1:
        _fail(f"--workers must be at least 1, got {args.workers}")
    _oracle_cap()
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
    try:
        report = run_plan(plan, workers=args.workers)
    except KeyError as exc:
        _fail(f"plan references an unknown check: {exc}")
    print(report.summary(), file=sys.stderr)
    doc = report.to_json(include_timing=args.timing)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    return 0 if report.all_passed else 1


def cmd_generate(args) -> int:
    family = args.family
    if family not in FAMILIES or family in ("union", "join"):
        _fail(f"unknown generator family {family!r}")
    params = args.params
    try:
        g, model = generate(family, *params, seed=args.seed)
    except (ValueError, IndexError) as exc:
        _fail(f"bad generator parameters: {exc}")
    out = args.out or family
    with open(out + ".graph", "w") as fh:
        fh.write(render_graph(g))
    written = [out + ".graph"]
    if model is not None:
        from .gadgets import SplitPartition
        from .generators import BipartitePartition

        if isinstance(model, Cotree):
            with open(out + ".cotree", "w") as fh:
                fh.write(model.to_text() + "\n")
            written.append(out + ".cotree")
        elif isinstance(model, SpiderPartition):
            b = CotreeBuilder()
            head_node = -1
            if model.head:  # generated heads are edgeless
                head_node = b.leaf(model.head[0])
                for v in model.head[1:]:
                    head_node = b.node("U", head_node, b.leaf(v))
            node = b.spider_node(model, head_node)
            with open(out + ".p4tree", "w") as fh:
                fh.write(b.tree(node).to_text() + "\n")
            written.append(out + ".p4tree")
        elif isinstance(model, SplitPartition):
            with open(out + ".split", "w") as fh:
                fh.write(render_split_partition(model))
            written.append(out + ".split")
        elif isinstance(model, BipartitePartition):
            with open(out + ".sides", "w") as fh:
                fh.write(f"{len(model.side1)} {len(model.side2)}\n")
            written.append(out + ".sides")
    print("wrote " + " ".join(written), file=sys.stderr)
    return 0


def cmd_convert(args) -> int:
    cls = next(c for c, entry in REGISTRY.items() if entry.kind == args.kind)
    g = REGISTRY[cls].to_graph(_read_model(cls, args.model))
    text = render_graph(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    entry = REGISTRY.get(args.klass)
    if entry is None or entry.sample is None:
        _fail(f"bench does not support class {args.klass!r}")
    rng = random.Random(args.seed)
    rows = []
    for n in sizes:
        instance = entry.sample(n, rng)
        t0 = time.time()
        entry.timed(instance, args.k)
        rows.append((n, time.time() - t0))
    print(f"{'n':>10}  {'seconds':>10}")
    for n, dt in rows:
        print(f"{n:>10}  {dt:>10.3f}")
    return 0


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
