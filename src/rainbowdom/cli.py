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
    weight_cost,
)
from . import oracle as _oracle
from .oracle import (
    InfeasibleInstance,
    OracleBudgetExceeded,
    OracleCapExceeded,
)
from .cograph import (
    Cotree,
    CotreeParseError,
    CographRefusal,
    cotree_to_graph,
    kdom_cograph,
    parse_cotree,
    rainbow_cograph,
    recognize_cograph,
    random_cotree,
    weak_cograph,
)
from .p4sparse import (
    P4SparseRefusal,
    P4SparseTree,
    P4TreeParseError,
    p4sparse_to_graph,
    parse_p4sparse_tree,
    rainbow_p4sparse,
    recognize_p4sparse,
    render_p4sparse_tree,
)
from .trivially_perfect import (
    RootedTreeModel,
    TPRefusal,
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
    instance_from_assignment,
    parse_bipartite_instance,
    weakL_complete_bipartite,
)
from .gadgets import render_split_partition
from .generators import FAMILIES, generate
from .harness import CertificationPlan, default_plan, run_plan

PROBLEMS = ("rainbow", "weak", "kdom", "jkdom", "weakL")
CLASSES = (
    "auto",
    "cograph",
    "p4sparse",
    "trivially-perfect",
    "interval",
    "permutation",
    "complete-bipartite",
    "oracle",
)

_COMPAT = {
    "rainbow": {"auto", "cograph", "p4sparse", "trivially-perfect", "interval", "permutation", "oracle"},
    "weak": {"auto", "cograph", "trivially-perfect", "interval", "permutation", "oracle"},
    "kdom": {"auto", "cograph", "oracle"},
    "jkdom": {"auto", "trivially-perfect", "oracle"},
    "weakL": {"auto", "trivially-perfect", "complete-bipartite", "oracle"},
}


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


def _load_model(cls: str, path: str):
    text = _read(path)
    try:
        if cls == "cograph":
            return parse_cotree(text)
        if cls == "p4sparse":
            return parse_p4sparse_tree(text)
        if cls == "trivially-perfect":
            return parse_tree_model(text)
        if cls == "interval":
            return parse_intervals(text)
        if cls == "permutation":
            return parse_permutation(text)
        if cls == "complete-bipartite":
            return parse_bipartite_instance(text)
    except (ValueError, CotreeParseError, P4TreeParseError) as exc:
        _fail(f"cannot parse model for class {cls}: {exc}")
    _fail(f"class {cls} takes no model file")


def _solve_on_class(problem, cls, model, g, k, j, L):
    """Dispatch to the class solver; returns (value, witness-or-None)."""
    if cls == "cograph":
        if problem == "rainbow":
            return rainbow_cograph(model, k)
        if problem == "weak":
            return weak_cograph(model, k)
        if problem == "kdom":
            return kdom_cograph(model, k)
    if cls == "p4sparse":
        return rainbow_p4sparse(model, k)
    if cls == "trivially-perfect":
        if problem == "rainbow":
            return gamma_rk_tp(model, k), None
        if problem == "weak":
            return gamma_wk_tp(model, k)
        if problem == "jkdom":
            return jk_domination_tp(model, j, k)
        if problem == "weakL":
            return gamma_wkL(model, L)
    if cls == "interval":
        arr = build_arrangement(model)
        if problem == "weak":
            return weak2_interval(arr)
        return rainbow2_interval(arr)
    if cls == "permutation":
        if problem == "weak":
            return weak2_permutation(model)
        return rainbow2_permutation(model)
    if cls == "complete-bipartite":
        value, _xy, w = weakL_complete_bipartite(model)
        return value, w
    raise AssertionError(f"no dispatch for {problem}/{cls}")


def _solve_oracle(problem, g, k, j, L):
    if problem == "rainbow":
        res = _oracle.exact_rainbow(g, k)
    elif problem == "weak":
        res = _oracle.exact_weight_variant(g, "weak_k", k)
    elif problem == "kdom":
        res = _oracle.exact_weight_variant(g, "k_dom", k)
    elif problem == "jkdom":
        res = _oracle.exact_weight_variant(g, "jk_dom", k, j=j)
    else:
        res = _oracle.exact_weight_variant(g, "weak_kL", k, assignment=L)
    return res.value, res.witness


def _auto_class(problem, g):
    """Try the recognizers appropriate for the problem, cheapest first."""
    order = {
        "rainbow": ("cograph", "p4sparse", "trivially-perfect"),
        "weak": ("cograph", "trivially-perfect"),
        "kdom": ("cograph",),
        "jkdom": ("trivially-perfect",),
        "weakL": ("trivially-perfect",),
    }[problem]
    for cls in order:
        if cls == "cograph":
            t = recognize_cograph(g)
            if isinstance(t, Cotree):
                return cls, t
        elif cls == "p4sparse":
            t = recognize_p4sparse(g)
            if isinstance(t, P4SparseTree):
                return cls, t
        else:
            m = build_tree_model(g)
            if isinstance(m, RootedTreeModel):
                return cls, m
    return None, None


def _try_complete_bipartite(g: Graph, L: KAssignment):
    """Instance for the linear solver when g is complete bipartite with the
    first side 0..n1-1 and the floors are all zero; None otherwise."""
    if g.n < 2 or any(a for a, _b in L.pairs):
        return None
    side1 = sorted(set(range(g.n)) - g.neighbors(0) - {0}) + [0]
    side1 = sorted(side1)
    side2 = sorted(set(range(g.n)) - set(side1))
    if side1 != list(range(len(side1))) or not side2:
        return None
    n1 = len(side1)
    set1, set2 = frozenset(side1), frozenset(side2)
    if any(g.neighbors(u) != set2 for u in side1) or any(
        g.neighbors(v) != set1 for v in side2
    ):
        return None
    return instance_from_assignment(
        n1, len(side2),
        KAssignment(L.k, tuple(L.pairs[v] for v in side1 + side2)),
    )


def cmd_solve(args) -> int:
    problem = args.problem
    cls = args.klass
    if cls not in _COMPAT[problem]:
        _fail(f"problem {problem} cannot be solved with class {cls}")
    k = args.k
    if k is None or k < 1:
        _fail("--k must be a positive integer")
    j = args.j
    if problem == "jkdom":
        if j is None or not (1 <= j <= k):
            _fail("--j must satisfy 1 <= j <= k")
    if problem in ("rainbow", "weak") and cls in ("interval", "permutation") and k != 2:
        _fail(f"class {cls} supports only k=2 for this problem")
    if problem == "rainbow" and cls == "trivially-perfect" and args.witness:
        _fail("this class computes the rainbow number only; no witness available")

    L = None
    g = None
    model = None

    if cls == "complete-bipartite":
        if not args.model:
            _fail("class complete-bipartite needs --model (instance file)")
        model = _load_model(cls, args.model)
        if model.k != k:
            _fail(f"instance file has k={model.k}, flag says k={k}")
        from .bipartite import complete_bipartite_graph

        g = complete_bipartite_graph(model.n1, model.n2)
        L = KAssignment(k, tuple((0, 0) for _ in range(g.n)))
        b1 = [0] * model.n1
        for pos, orig in enumerate(model.order1):
            b1[orig] = model.b_sorted[pos]
        b2 = [0] * model.n2
        for pos, orig in enumerate(model.order2):
            b2[orig] = model.b_prime_sorted[pos]
        L = KAssignment(k, tuple((0, b) for b in b1 + b2))
    elif cls in ("cograph", "p4sparse", "trivially-perfect", "interval", "permutation"):
        if args.model:
            model = _load_model(cls, args.model)
        elif args.graph:
            g = _parse_graph_file(args.graph)
            model = _recognize_for(cls, g) if g.n else None
        else:
            _fail(f"class {cls} needs --model or --graph")
        if g is None:
            g = _model_graph(cls, model)
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
        chosen, model = _auto_class(problem, g)
        if chosen is None and problem == "weakL":
            inst = _try_complete_bipartite(g, L)
            if inst is not None:
                chosen, model = "complete-bipartite", inst
        if chosen is None:
            cap = _oracle.vertex_cap()
            size = g.n * k if problem == "rainbow" else g.n
            if size > cap:
                _fail(
                    f"no structured class recognized and the instance exceeds "
                    f"the oracle cap ({size} > {cap}); raise "
                    f"RAINBOWDOM_ORACLE_CAP or supply --class with a model",
                    code=3,
                )
            chosen = "oracle"
        print(f"auto: solving as {chosen}", file=sys.stderr)
        if problem == "rainbow" and chosen == "trivially-perfect" and args.witness:
            _fail("this class computes the rainbow number only; no witness available")

    try:
        if chosen == "oracle":
            value, witness = _solve_oracle(problem, g, k, j, L)
        else:
            value, witness = _solve_on_class(problem, chosen, model, g, k, j, L)
    except OracleCapExceeded as exc:
        _fail(str(exc), code=3)
    except OracleBudgetExceeded as exc:
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


def _recognize_for(cls: str, g: Graph):
    if cls == "cograph":
        t = recognize_cograph(g)
        if isinstance(t, CographRefusal):
            _fail(f"not a cograph: induced path on vertices {t.p4}")
        return t
    if cls == "p4sparse":
        t = recognize_p4sparse(g)
        if isinstance(t, P4SparseRefusal):
            _fail(f"not in class: vertices {t.witness} induce two 4-paths")
        return t
    if cls == "trivially-perfect":
        m = build_tree_model(g)
        if isinstance(m, TPRefusal):
            _fail(f"not in class: induced {m.kind} on vertices {m.vertices}")
        return m
    _fail(f"class {cls} cannot be recognized from a bare graph; supply --model")


def _model_graph(cls: str, model) -> Graph:
    if cls == "cograph":
        return cotree_to_graph(model)
    if cls == "p4sparse":
        return p4sparse_to_graph(model)
    if cls == "trivially-perfect":
        return model.derived_graph()
    if cls == "interval":
        return interval_graph(model)
    if cls == "permutation":
        return diagram_to_graph(model)
    raise AssertionError(cls)


def cmd_verify(args) -> int:
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
        from .p4sparse import SpiderPartition, _TreeBuilder
        from .gadgets import SplitPartition
        from .generators import BipartitePartition

        if isinstance(model, Cotree):
            with open(out + ".cotree", "w") as fh:
                fh.write(model.to_text() + "\n")
            written.append(out + ".cotree")
        elif isinstance(model, SpiderPartition):
            b = _TreeBuilder()
            head_node = -1
            if model.head:  # generated heads are edgeless
                head_node = b.leaf(model.head[0])
                for v in model.head[1:]:
                    head_node = b.node("U", head_node, b.leaf(v))
            node = b.spider_node(model, head_node)
            with open(out + ".p4tree", "w") as fh:
                fh.write(render_p4sparse_tree(b.tree(node)) + "\n")
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
    kind_to_class = {
        "cotree": "cograph",
        "p4tree": "p4sparse",
        "tree": "trivially-perfect",
        "intervals": "interval",
        "permutation": "permutation",
    }
    if args.kind not in kind_to_class:
        _fail(f"unknown model kind {args.kind!r}")
    cls = kind_to_class[args.kind]
    model = _load_model(cls, args.model)
    g = _model_graph(cls, model)
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
    k = args.k
    rng = random.Random(args.seed)
    rows = []
    for n in sizes:
        if args.klass == "cograph":
            t = random_cotree(n, rng.randrange(1 << 30))
            t0 = time.time()
            rainbow_cograph(t, k)
            dt = time.time() - t0
        elif args.klass == "trivially-perfect":
            m = random_tree_model(n, rng.randrange(1 << 30))
            t0 = time.time()
            gamma_wk_tp(m, k)
            dt = time.time() - t0
        elif args.klass == "interval":
            spans = tuple(
                tuple(sorted((rng.randint(1, n), rng.randint(1, n))))
                for _ in range(n)
            )
            arr = build_arrangement(IntervalModel(spans))
            t0 = time.time()
            weak2_interval(arr)
            dt = time.time() - t0
        elif args.klass == "permutation":
            pi = list(range(n))
            rng.shuffle(pi)
            t0 = time.time()
            rainbow2_permutation(tuple(pi))
            dt = time.time() - t0
        elif args.klass == "oracle":
            from .generators import generate as _gen

            g, _ = _gen("random", n, 0.4, seed=rng.randrange(1 << 30))
            t0 = time.time()
            _oracle.exact_rainbow(g, k, cap=max(48, n * k))
            dt = time.time() - t0
        else:
            _fail(f"bench does not support class {args.klass!r}")
        rows.append((n, dt))
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
                    choices=("cotree", "p4tree", "tree", "intervals", "permutation"))
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
