"""Certification driver: exhaustive per-class instance enumeration and the
oracle cross-checks that gate every polynomial solver.

Instance generators enumerate each solver's true input space directly
(cotrees, decomposition trees, rooted forests, interval models,
permutations) rather than filtering arbitrary graphs.  Interval graphs are
enumerated by extension closure -- every such graph minus a vertex is again
one -- with isomorphism-class deduplication and a consecutive-ones test
over the maximal cliques.

Every class solver is reached through the (class, problem) table of
``rainbowdom.registry``, so the checks certify the entries ``solve`` runs.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import Callable

from .graph import Graph
from .semantics import KAssignment, check_witness
from .oracle import (
    InfeasibleInstance,
    exact_domination,
    exact_rainbow,
    exact_rainbow_direct,
    exact_weight_variant,
)
from .cograph import CotreeBuilder, SpiderPartition, cotree_to_graph
from .trivially_perfect import RootedTreeModel
from .interval import IntervalModel
from .permutation import diagram_to_graph
from .bipartite import BipartiteInstance, complete_bipartite_graph
from .gadgets import split_partition, verify_gadget_identities
from .generators import generate
from .registry import ORACLE_VARIANT, REGISTRY

__all__ = [
    "CertificationPlan",
    "CertificationReport",
    "CheckResult",
    "run_plan",
    "default_plan",
    "sweep_global_invariants",
    "enumerate_cographs",
    "enumerate_p4sparse_trees",
    "enumerate_rooted_forests",
    "enumerate_interval_models",
    "graphs_isomorphic",
    "CHECKS",
]


# --- isomorphism utilities ----------------------------------------------------


def _refine_colors(g: Graph, colors):
    for _ in range(g.n):
        new = {}
        sig = {}
        for v in range(g.n):
            sig[v] = (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = [palette[sig[v]] for v in range(g.n)]
        if new == colors:
            break
        colors = new
    return colors


def _invariant_key(g: Graph):
    colors = _refine_colors(g, [g.degree(v) for v in range(g.n)])
    return (g.n, g.m, tuple(sorted(colors)))


def graphs_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism by color-refined backtracking; meant for n <= 10."""
    if a.n != b.n or a.m != b.m:
        return False
    ca = _refine_colors(a, [a.degree(v) for v in range(a.n)])
    cb = _refine_colors(b, [b.degree(v) for v in range(b.n)])
    if sorted(ca) != sorted(cb):
        return False
    order = sorted(range(a.n), key=lambda v: (ca[v], -a.degree(v)))
    image = [-1] * a.n
    used = [False] * b.n

    def rec(i: int) -> bool:
        if i == a.n:
            return True
        v = order[i]
        for w in range(b.n):
            if used[w] or cb[w] != ca[v]:
                continue
            ok = True
            for u in order[:i]:
                if a.has_edge(v, u) != b.has_edge(w, image[u]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if rec(i + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return rec(0)


class _IsoCollection:
    """Set of graphs up to isomorphism, bucketed by a refinement invariant."""

    def __init__(self):
        self.buckets: dict = {}
        self.items: list = []

    def add(self, g: Graph, payload) -> bool:
        key = _invariant_key(g)
        bucket = self.buckets.setdefault(key, [])
        for h, _p in bucket:
            if graphs_isomorphic(g, h):
                return False
        bucket.append((g, payload))
        self.items.append((g, payload))
        return True


# --- canonical enumerations ---------------------------------------------------


def _multisets(atoms, total, min_parts, start=0, acc=None, out=None):
    """Index-monotone multisets of (size, form) atoms with sizes summing to
    total and at least min_parts parts."""
    if acc is None:
        acc, out = [], []
    if total == 0:
        if len(acc) >= min_parts:
            out.append(tuple(acc))
        return out
    for idx in range(start, len(atoms)):
        size, form = atoms[idx]
        if size > total:
            continue
        acc.append(form)
        _multisets(atoms, total - size, min_parts, idx, acc, out)
        acc.pop()
    return out


def _tree_forms(max_n: int, spiders: bool):
    """Canonical unlabeled decomposition-tree shapes per size: a form is
    ('L',), (tag, children) with children none of them tag-rooted, or,
    with ``spiders``, a spider atom ('S', kind, s, head form or None)."""
    leaf = ("L",)
    forms: dict[int, list] = {1: [leaf]}
    for n in range(2, max_n + 1):
        out = []
        for tag in ("U", "J"):
            atoms = [(1, leaf)]
            for m in range(2, n):
                for f in forms[m]:
                    if f[0] != tag:
                        atoms.append((m, f))
            for children in _multisets(atoms, n, 2):
                out.append((tag, children))
        for s in range(2, n // 2 + 1) if spiders else ():
            head_n = n - 2 * s
            for kind in ["thin"] + (["thick"] if s >= 3 else []):
                for hf in forms[head_n] if head_n else (None,):
                    out.append(("S", kind, s, hf))
        forms[n] = out
    return forms


def _form_build(form, b: CotreeBuilder, counter):
    if form == ("L",):
        v = counter[0]
        counter[0] += 1
        return b.leaf(v)
    if form[0] == "S":
        _tag, kind, s, head_form = form
        feet = tuple(range(counter[0], counter[0] + s))
        body = tuple(range(counter[0] + s, counter[0] + 2 * s))
        counter[0] += 2 * s
        head_node = _form_build(head_form, b, counter) if head_form is not None else -1
        return b.spider_node(SpiderPartition(kind, feet, body, ()), head_node)
    tag, children = form
    nodes = [_form_build(c, b, counter) for c in children]
    acc = nodes[0]
    for nd in nodes[1:]:
        acc = b.node(tag, acc, nd)
    return acc


def _enumerate_trees(max_n: int, spiders: bool):
    forms = _tree_forms(max_n, spiders)
    out = []
    for n in range(1, max_n + 1):
        for form in forms[n]:
            b = CotreeBuilder()
            tree = b.tree(_form_build(form, b, [0]))
            out.append((tree, cotree_to_graph(tree)))
    return out


def enumerate_cographs(max_n: int):
    """All cographs up to isomorphism per size, as (Cotree, Graph) pairs."""
    return _enumerate_trees(max_n, spiders=False)


def enumerate_p4sparse_trees(max_n: int):
    """Decomposition trees (with spiders) per size, as (Cotree, Graph)."""
    return _enumerate_trees(max_n, spiders=True)


def _rooted_tree_forms(max_n: int):
    forms: dict[int, list] = {1: [()]}
    for n in range(2, max_n + 1):
        atoms = []
        for m in range(1, n):
            for f in forms[m]:
                atoms.append((m, f))
        forms[n] = [children for children in _multisets(atoms, n - 1, 1)]
    return forms


def _tree_form_attach(form, parents, parent):
    me = len(parents)
    parents.append(parent)
    for child in form:
        _tree_form_attach(child, parents, me)


def enumerate_rooted_forests(max_n: int):
    """All rooted forests (= models of the P4/C4-free graphs) per size."""
    tree_forms = _rooted_tree_forms(max_n)
    out = []
    for n in range(1, max_n + 1):
        atoms = []
        for m in range(1, n + 1):
            for f in tree_forms[m]:
                atoms.append((m, f))
        for forest in _multisets(atoms, n, 1):
            parents: list[int] = []
            for tree in forest:
                _tree_form_attach(tree, parents, -1)
            out.append(RootedTreeModel(parents))
    return out


# --- interval graph enumeration ------------------------------------------------


def _maximal_cliques(g: Graph):
    cliques = []

    def bk(r: set, p: set, x: set):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(g.neighbors(v) & p), default=None)
        for v in sorted(p - (g.neighbors(pivot) if pivot is not None else set())):
            bk(r | {v}, p & g.neighbors(v), x & g.neighbors(v))
            p = p - {v}
            x = x | {v}

    bk(set(), set(range(g.n)), set())
    return cliques


def _consecutive_clique_order(g: Graph):
    """An ordering of the maximal cliques in which every vertex's cliques
    are contiguous, or None.  Backtracking with an open/closed vertex
    prune; intended for small clique counts."""
    cliques = _maximal_cliques(g)
    t = len(cliques)
    state = [0] * g.n  # 0 unseen, 1 open, 2 closed
    orderout: list[int] = []
    used = [False] * t

    def rec() -> bool:
        if len(orderout) == t:
            return True
        for ci in range(t):
            if used[ci]:
                continue
            K = cliques[ci]
            if any(state[v] == 2 for v in K):
                continue
            closed_now = [
                v for v in range(g.n) if state[v] == 1 and v not in K
            ]
            opened_now = [v for v in K if state[v] == 0]
            for v in closed_now:
                state[v] = 2
            for v in K:
                state[v] = 1
            used[ci] = True
            orderout.append(ci)
            if rec():
                return True
            orderout.pop()
            used[ci] = False
            for v in opened_now:
                state[v] = 0
            for v in closed_now:
                state[v] = 1
        return False

    if not rec():
        return None
    return [cliques[i] for i in orderout]


def model_from_clique_order(order, n: int) -> IntervalModel:
    first = [None] * n
    last = [None] * n
    for i, K in enumerate(order):
        for v in K:
            if first[v] is None:
                first[v] = i
            last[v] = i
    return IntervalModel(tuple((first[v], last[v]) for v in range(n)))


_interval_cache: dict[int, list] = {}


def enumerate_interval_models(max_n: int):
    """One interval model per isomorphism class of interval graphs, for
    every size up to max_n, by single-vertex extension closure."""
    if max_n in _interval_cache:
        return list(_interval_cache[max_n])
    levels: list[list[tuple[Graph, IntervalModel]]] = []
    k1 = Graph(1)
    levels.append([(k1, IntervalModel(((0, 0),)))])
    for n in range(2, max_n + 1):
        coll = _IsoCollection()
        for g_prev, _model in levels[-1]:
            base_edges = list(g_prev.edges)
            for mask in range(1 << g_prev.n):
                edges = base_edges + [
                    (v, g_prev.n) for v in range(g_prev.n) if mask >> v & 1
                ]
                g = Graph(n, edges)
                order = _consecutive_clique_order(g)
                if order is None:
                    continue
                coll.add(g, model_from_clique_order(order, n))
        levels.append([(g, m) for g, m in coll.items])
    out = []
    for level in levels:
        out.extend(level)
    _interval_cache[max_n] = out
    return list(out)


# --- plan / report machinery ---------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: str | None
    seconds: float


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_SIZE = (False, 1)
_COUNT = (False, 0)
_KS = (True, 1)

# check -> parameter -> (is a list, least value); a list parameter must be
# non-empty with every member at least the least value
_PARAM_RULES = {
    "oracle_cross": {"max_n": _SIZE, "max_k": _SIZE},
    "global_invariants": {"count": _COUNT, "max_n": _SIZE, "ks": _KS},
    "cograph_cert": {"max_leaves": _SIZE, "ks": _KS},
    "p4sparse_cert": {"max_n": _SIZE, "ks": _KS, "feet": (True, 2), "heads": (True, 0)},
    "tp_cert": {"max_n": _SIZE, "ks": _KS, "assignments": _COUNT, "jk_max": _SIZE},
    "tp_rainbow_equality": {"max_n": _SIZE, "ks": _KS},
    "interval_cert": {"max_n": _SIZE},
    "permutation_cert": {"max_n": _SIZE},
    "permutation_weak_gap": {"max_n": _SIZE, "randoms": _COUNT, "rand_n": _SIZE},
    "bipartite_cert": {"max_side": _SIZE, "max_k": _SIZE, "randoms": _COUNT,
                       "rand_k": _SIZE},
    "gadget_cert": {"count": _COUNT, "max_total": (False, 2), "max_k": _SIZE,
                    "product_cap": _SIZE},
    "perf_gates": {
        **{f"{c}_n": _SIZE for c in ("tp", "interval", "permutation")},
        "cograph_leaves": _SIZE,
        **{f"{c}_budget": _COUNT for c in ("cograph", "tp", "interval", "permutation")},
    },
}


def _check_param(name: str, key: str, value) -> None:
    """Raise ValueError unless the value keeps the check's rule for the
    parameter; without a rule, any integer or list of integers will do."""
    rule = _PARAM_RULES.get(name, {}).get(key)
    if rule is None:
        if not (_is_int(value) or isinstance(value, list) and all(map(_is_int, value))):
            raise ValueError(
                f"{name} parameter {key!r} must be an integer or a list of integers"
            )
        return
    is_list, least = rule
    values = value if is_list and isinstance(value, list) else [value]
    if is_list != isinstance(value, list) or not values or not all(
        _is_int(v) and v >= least for v in values
    ):
        what = "a non-empty list of integers" if is_list else "an integer"
        raise ValueError(f"{name} parameter {key!r} must be {what} >= {least}")


@dataclass(frozen=True)
class CertificationPlan:
    seed: int
    checks: tuple[tuple[str, dict], ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "checks": [
                    {"name": name, "params": params} for name, params in self.checks
                ],
            },
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "CertificationPlan":
        """Parse ``{"seed": int, "checks": [{"name": str, "params": {...}}]}``
        where every parameter is an integer or a list of integers within
        its check's range; raises ValueError on anything else, before any
        check runs."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a plan must be a JSON object")
        seed = doc.get("seed", 0)
        if not _is_int(seed):
            raise ValueError("seed must be an integer")
        checks = doc.get("checks")
        if not isinstance(checks, list) or not all(isinstance(c, dict) for c in checks):
            raise ValueError("checks must be a list of objects")
        parsed = []
        for c in checks:
            name, params = c.get("name"), c.get("params", {})
            if not isinstance(name, str):
                raise ValueError("every check needs a string name")
            if not isinstance(params, dict):
                raise ValueError(f"params of {name} must be an object")
            for key, value in params.items():
                _check_param(name, key, value)
            parsed.append((name, params))
        return CertificationPlan(seed, tuple(parsed))


@dataclass(frozen=True)
class CertificationReport:
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self, include_timing: bool = False) -> str:
        """Canonical report document.  Timing is volatile and excluded by
        default so equal-seed runs serialize byte-identically."""
        entries = []
        for r in self.results:
            e = {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "counterexample": r.counterexample,
            }
            if include_timing:
                e["seconds"] = round(r.seconds, 3)
            entries.append(e)
        return json.dumps(
            {
                "seed": self.seed,
                "all_passed": self.all_passed,
                "results": entries,
            },
            indent=2,
            sort_keys=True,
        )

    def summary(self) -> str:
        lines = []
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"{mark} {r.name}: {r.detail} ({r.seconds:.1f}s)")
        lines.append("ALL PASS" if self.all_passed else "FAILURES PRESENT")
        return "\n".join(lines)


def _result(name, t0, passed, detail, counterexample=None) -> CheckResult:
    return CheckResult(name, passed, detail, counterexample, time.perf_counter() - t0)


# --- the checks ----------------------------------------------------------------


def _oracle_value(problem: str, g: Graph, k: int, j=None, L=None) -> int | None:
    """The oracle's value of ``problem`` on g, or None when no function
    exists."""
    try:
        if problem == "rainbow":
            return exact_rainbow(g, k, cap=g.n * k).value
        return exact_weight_variant(g, ORACLE_VARIANT[problem], k, j=j, assignment=L).value
    except InfeasibleInstance:
        return None


def _compare(cls: str, problem: str, g: Graph, model, k: int, j=None, L=None,
             expect=None):
    """Run the table's solver for (cls, problem) on ``model``, a model of g,
    against the oracle's value on g, or against ``expect`` where the caller
    already has that value.  Returns (value, witness, fault): value is None
    when the solver finds no function, and fault is None when both values
    agree and the witness is valid and costs the value."""
    entry = REGISTRY[cls]
    try:
        value, witness = entry.solvers[problem](model, k, j, L)
    except InfeasibleInstance:
        value, witness = None, None
    if expect is None:
        expect = _oracle_value(problem, g, k, j, L)
    if value != expect:
        return value, witness, f"solver={value} oracle={expect}"
    if value is None:
        return value, witness, None
    return value, witness, check_witness(problem, g, value, witness, j, L)


def check_reference_constants(params: dict, rng) -> CheckResult:
    """Two externally known value pairs: the 6-cycle by oracle, the
    12-vertex gap cograph by oracle and by the cograph table entries on
    its recognized and its generated cotree."""
    t0 = time.perf_counter()
    c6, _ = generate("cycle", 6)
    gap, gap_tree = generate("rainbow_gap")
    for g, k, weak_expect, rainbow_expect in ((c6, 2, 3, 4), (gap, 3, 4, 6)):
        if _oracle_value("weak", g, k) != weak_expect:
            return _result("reference_constants", t0, False, f"weak oracle k={k}")
        if _oracle_value("rainbow", g, k) != rainbow_expect:
            return _result("reference_constants", t0, False, f"rainbow oracle k={k}")
    tree = REGISTRY["cograph"].recognize(gap, None)
    if isinstance(tree, str):
        return _result("reference_constants", t0, False, "gap graph not recognized")
    for problem, expect in (("weak", 4), ("rainbow", 6)):
        for model in (tree, gap_tree):
            _v, _w, fault = _compare("cograph", problem, gap, model, 3, expect=expect)
            if fault:
                return _result(
                    "reference_constants", t0, False, f"{problem} DP on gap graph", fault
                )
    return _result("reference_constants", t0, True, "both value pairs reproduced")


def check_oracle_cross(params: dict, rng) -> CheckResult:
    """Product-route rainbow oracle versus direct label enumeration."""
    t0 = time.perf_counter()
    max_n = params.get("max_n", 5)
    max_k = params.get("max_k", 2)
    count = 0
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            for k in range(1, max_k + 1):
                a = exact_rainbow(g, k).value
                b = exact_rainbow_direct(g, k).value
                if a != b:
                    return _result(
                        "oracle_cross", t0, False,
                        f"disagreement n={n} k={k}",
                        f"edges={sorted(g.edges)} product={a} direct={b}",
                    )
                count += 1
    return _result("oracle_cross", t0, True, f"{count} instances agree")


def sweep_global_invariants(corpus, ks, cap=None):
    """Order bounds, the product upper bound, the weak-rainbow inequality
    and k-monotonicity, all by oracle.  Returns (ok, failure detail)."""
    for idx, g in enumerate(corpus):
        gamma = exact_domination(g, cap=cap).value
        prev = None
        for k in ks:
            rk = exact_rainbow(g, k, cap=cap).value
            wk = exact_weight_variant(g, "weak_k", k).value
            if not (min(k, g.n) <= rk <= g.n):
                return False, f"order bounds fail: graph {idx} k={k} rk={rk}"
            if rk > k * gamma:
                return False, f"product bound fails: graph {idx} k={k}"
            if wk > rk:
                return False, f"weak exceeds rainbow: graph {idx} k={k}"
            if prev is not None and rk < prev:
                return False, f"rainbow not monotone in k: graph {idx} k={k}"
            prev = rk
        if g.n <= 4:
            if exact_rainbow(g, g.n, cap=cap).value != g.n:
                return False, f"saturation at k=n fails: graph {idx}"
    return True, None


def check_global_invariants(params: dict, rng) -> CheckResult:
    t0 = time.perf_counter()
    count = params.get("count", 100)
    max_n = params.get("max_n", 8)
    ks = tuple(params.get("ks", (1, 2, 3)))
    corpus = []
    for i in range(count):
        n = rng.randint(1, max_n)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        g, _ = generate("random", n, p, seed=rng.randrange(1 << 30))
        corpus.append(g)
    ok, detail = sweep_global_invariants(corpus, ks)
    return _result(
        "global_invariants", t0, ok,
        detail or f"{len(corpus)} graphs x k in {list(ks)}",
    )


def check_cograph_cert(params: dict, rng) -> CheckResult:
    """Every cograph from exhaustive cotree shapes: each problem of the
    cograph table entry against the oracle, and weak never above rainbow."""
    t0 = time.perf_counter()
    max_leaves = params.get("max_leaves", 8)
    ks = tuple(params.get("ks", (1, 2, 3)))
    count = 0
    for tree, g in enumerate_cographs(max_leaves):
        for k in ks:
            values = {}
            for problem in REGISTRY["cograph"].solvers:
                values[problem], _w, fault = _compare("cograph", problem, g, tree, k)
                if fault:
                    return _result(
                        "cograph_cert", t0, False, f"{problem} mismatch k={k}",
                        f"cotree={tree.to_text()} {fault}",
                    )
            if values["weak"] > values["rainbow"]:
                return _result(
                    "cograph_cert", t0, False, "weak exceeds rainbow",
                    tree.to_text(),
                )
            count += 1
    return _result("cograph_cert", t0, True, f"{count} (cograph, k) pairs")


def check_p4sparse_cert(params: dict, rng) -> CheckResult:
    """The spider rule of the rainbow DP over a grid of recognized thin and
    thick spiders, plus full trees, vs oracle."""
    t0 = time.perf_counter()
    max_n = params.get("max_n", 8)
    ks = tuple(params.get("ks", (1, 2, 3)))
    feet = tuple(params.get("feet", (2, 3, 4, 5)))
    heads = tuple(params.get("heads", (0, 1, 2, 3)))
    for s in feet:
        for h in heads:
            for kind in ("thin", "thick"):
                if kind == "thick" and s < 3:
                    continue  # a thick spider has at least three feet
                spider, _ = generate(f"{kind}_spider", s, h)
                tree = REGISTRY["p4sparse"].recognize(spider, None)
                for k in ks:
                    _v, _w, fault = _compare("p4sparse", "rainbow", spider, tree, k)
                    if fault:
                        return _result(
                            "p4sparse_cert", t0, False,
                            f"{kind} spider s={s} head={h} k={k}", fault,
                        )
    count = 0
    for tree, g in enumerate_p4sparse_trees(max_n):
        for k in ks:
            _v, _w, fault = _compare("p4sparse", "rainbow", g, tree, k)
            if fault:
                return _result(
                    "p4sparse_cert", t0, False, f"tree mismatch k={k}",
                    f"tree={tree.to_text()} {fault}",
                )
            count += 1
    return _result("p4sparse_cert", t0, True, f"grid + {count} (tree, k) pairs")


def check_tp_cert(params: dict, rng) -> CheckResult:
    """Weak {k}-L on every rooted forest with random assignments, and the
    level rule for (j,k)."""
    t0 = time.perf_counter()
    max_n = params.get("max_n", 8)
    ks = tuple(params.get("ks", (1, 2, 3)))
    per_graph = params.get("assignments", 100)
    jk_max = params.get("jk_max", 3)
    models = [(m, m.derived_graph()) for m in enumerate_rooted_forests(max_n)]
    count = 0
    for model, g in models:
        n = model.n
        for k in ks:
            for _ in range(per_graph):
                L = KAssignment(
                    k,
                    tuple(
                        (rng.randint(0, k), rng.randint(0, k)) for _ in range(n)
                    ),
                )
                _v, _w, fault = _compare("trivially-perfect", "weakL", g, model, k, L=L)
                if fault:
                    return _result(
                        "tp_cert", t0, False, f"weak-L mismatch k={k}",
                        f"parents={model.parents} pairs={L.pairs} {fault}",
                    )
                count += 1
    jk_count = 0
    for model, g in models:
        for k in range(1, jk_max + 1):
            for j in range(1, k + 1):
                _v, _w, fault = _compare("trivially-perfect", "jkdom", g, model, k, j=j)
                if fault:
                    return _result(
                        "tp_cert", t0, False, f"(j,k) mismatch j={j} k={k}",
                        f"parents={model.parents} {fault}",
                    )
                jk_count += 1
    return _result(
        "tp_cert", t0, True,
        f"{count} weak-L instances + {jk_count} (j,k) instances",
    )


def check_tp_rainbow_equality(params: dict, rng) -> CheckResult:
    """The rainbow number equals the weak number on every forest model: the
    table's rainbow entry against the rainbow oracle, then its value
    against the table's weak entry."""
    t0 = time.perf_counter()
    max_n = params.get("max_n", 8)
    ks = tuple(params.get("ks", (1, 2, 3)))
    weak = REGISTRY["trivially-perfect"].solvers["weak"]
    count = 0
    for model in enumerate_rooted_forests(max_n):
        g = model.derived_graph()
        for k in ks:
            value, _w, fault = _compare("trivially-perfect", "rainbow", g, model, k)
            if not fault:
                weak_value = weak(model, k, None, None)[0]
                if weak_value != value:
                    fault = f"rainbow={value} weak={weak_value}"
            if fault:
                return _result(
                    "tp_rainbow_equality", t0, False, f"mismatch k={k}",
                    f"parents={model.parents} {fault}",
                )
            count += 1
    return _result("tp_rainbow_equality", t0, True, f"{count} instances")


def check_interval_cert(params: dict, rng) -> CheckResult:
    """Sweep DP vs oracle on every interval graph class, re-verifying the
    weak/rainbow equality on the way."""
    t0 = time.perf_counter()
    max_n = params.get("max_n", 8)
    count = 0
    for g, model in enumerate_interval_models(max_n):
        v, _w, fault = _compare("interval", "weak", g, model, 2)
        if fault:
            return _result(
                "interval_cert", t0, False, "weak mismatch",
                f"model={model.intervals} {fault}",
            )
        rv, _w, fault = _compare("interval", "rainbow", g, model, 2)
        if fault:
            return _result(
                "interval_cert", t0, False, "rainbow mismatch",
                f"model={model.intervals} {fault}",
            )
        if rv != v:
            return _result(
                "interval_cert", t0, False, "rainbow/weak equality fails",
                f"model={model.intervals} weak={v} rainbow={rv}",
            )
        count += 1
    return _result("interval_cert", t0, True, f"{count} interval classes")


def check_permutation_cert(params: dict, rng) -> CheckResult:
    """Scanline DP vs oracle on all permutations up to the stated size; the
    oracle runs once per distinct graph."""
    t0 = time.perf_counter()
    max_n = params.get("max_n", 8)
    count = 0
    cache: dict = {}
    for n in range(1, max_n + 1):
        for pi in itertools.permutations(range(n)):
            g = diagram_to_graph(pi)
            key = (n, tuple(sorted(g.edges)))
            if key not in cache:
                cache[key] = _oracle_value("rainbow", g, 2)
            _v, _w, fault = _compare("permutation", "rainbow", g, pi, 2, expect=cache[key])
            if fault:
                return _result(
                    "permutation_cert", t0, False, f"mismatch n={n}", f"pi={pi} {fault}",
                )
            count += 1
    return _result("permutation_cert", t0, True, f"{count} permutations")


def check_bipartite_cert(params: dict, rng) -> CheckResult:
    """Exhaustive demand vectors for small sides, plus seeded random larger
    demands."""
    t0 = time.perf_counter()
    max_side = params.get("max_side", 4)
    max_k = params.get("max_k", 2)
    randoms = params.get("randoms", 1000)
    rand_k = params.get("rand_k", 3)
    exhaustive = (
        ("exhaustive", n1, n2, k, bs)
        for n1 in range(1, max_side + 1)
        for n2 in range(1, max_side + 1)
        for k in range(1, max_k + 1)
        for bs in itertools.product(range(k + 1), repeat=n1 + n2)
    )
    sampled = (
        ("random", n1, n2, rand_k, tuple(rng.randint(0, rand_k) for _ in range(n1 + n2)))
        for n1, n2 in (
            (rng.randint(1, max_side), rng.randint(1, max_side)) for _ in range(randoms)
        )
    )
    graphs: dict = {}
    count = 0
    for how, n1, n2, k, bs in itertools.chain(exhaustive, sampled):
        if (n1, n2) not in graphs:
            graphs[n1, n2] = complete_bipartite_graph(n1, n2)
        inst = BipartiteInstance.from_labels(k, bs[:n1], bs[n1:])
        L = KAssignment(k, tuple((0, b) for b in bs))
        _v, _w, fault = _compare(
            "complete-bipartite", "weakL", graphs[n1, n2], inst, k, L=L
        )
        if fault:
            return _result(
                "bipartite_cert", t0, False, f"{how} mismatch",
                f"n1={n1} n2={n2} k={k} b={bs} {fault}",
            )
        count += 1
    return _result("bipartite_cert", t0, True, f"{count} instances")


def check_gadget_cert(params: dict, rng) -> CheckResult:
    """Both pendant identities on seeded random split graphs."""
    t0 = time.perf_counter()
    count_target = params.get("count", 200)
    max_total = params.get("max_total", 7)
    max_k = params.get("max_k", 3)
    product_cap = params.get("product_cap", 48)
    done = 0
    attempts = 0
    while done < count_target:
        attempts += 1
        c = rng.randint(1, max_total - 1)
        i = rng.randint(0, max_total - c)
        k = rng.randint(1, max_k)
        g, part_gen = generate(
            "random_splitgraph", c, i, rng.choice((0.3, 0.5, 0.7)),
            seed=rng.randrange(1 << 30),
        )
        part = split_partition(g)
        if part is None:
            return _result(
                "gadget_cert", t0, False, "split recognizer refused a split graph",
                f"edges={sorted(g.edges)}",
            )
        n_gadget = g.n + len(part.C) * (k - 1)
        if n_gadget * k > product_cap:
            continue  # keep the oracle inside its budget; resample
        rep = verify_gadget_identities(g, part, k, cap=product_cap)
        if not rep.ok:
            return _result(
                "gadget_cert", t0, False, "identity fails",
                f"edges={sorted(g.edges)} C={sorted(part.C)} k={k} report={rep}",
            )
        done += 1
        if attempts > 50 * count_target:
            return _result("gadget_cert", t0, False, "sampling stalled")
    return _result("gadget_cert", t0, True, f"{done} split graphs")


def check_permutation_weak_gap(params: dict, rng) -> CheckResult:
    """Experiment, not an assumption: compare the weak {2} and 2-rainbow
    numbers on permutation graphs and report whether they ever differ."""
    t0 = time.perf_counter()
    max_n = params.get("max_n", 6)
    randoms = params.get("randoms", 100)
    rand_n = params.get("rand_n", 9)
    entry = REGISTRY["permutation"]
    exhaustive = (
        pi for n in range(1, max_n + 1) for pi in itertools.permutations(range(n))
    )
    sampled = (entry.sample(rand_n, rng) for _ in range(randoms))
    gaps = []
    checked = 0
    for pi in itertools.chain(exhaustive, sampled):
        wv, _ = entry.solvers["weak"](pi, 2, None, None)
        rv, _ = entry.solvers["rainbow"](pi, 2, None, None)
        if wv > rv:
            return _result(
                "permutation_weak_gap", t0, False,
                "weak exceeded rainbow", f"pi={pi}",
            )
        if wv != rv:
            gaps.append(pi)
        checked += 1
    if gaps:
        detail = (
            f"equality FAILS on this class: {len(gaps)}/{checked} instances "
            f"differ, first pi={gaps[0]}"
        )
    else:
        detail = f"values equal on all {checked} instances tried"
    return _result("permutation_weak_gap", t0, True, detail)


# gated class -> (size parameter, default size, k, budget parameter,
# default budget in seconds)
_GATES = {
    "cograph": ("cograph_leaves", 100_000, 8, "cograph_budget", 1.0),
    "trivially-perfect": ("tp_n", 100_000, 8, "tp_budget", 2.0),
    "interval": ("interval_n", 25, 2, "interval_budget", 60.0),
    "permutation": ("permutation_n", 30, 2, "permutation_budget", 120.0),
}


def check_perf_gates(params: dict, rng) -> CheckResult:
    """Throughput gates for the linear-time claims at desk scale: each gate
    times its class's ``timed`` on an instance from its ``sample``, the
    pair ``bench`` runs."""
    t0 = time.perf_counter()
    results = []
    for cls, (size_key, n, k, budget_key, budget) in _GATES.items():
        entry = REGISTRY[cls]
        instance = entry.sample(params.get(size_key, n), rng)
        t1 = time.perf_counter()
        entry.timed(instance, k)
        results.append((cls, time.perf_counter() - t1, params.get(budget_key, budget)))
    slow = [(name, dt, cap) for name, dt, cap in results if dt >= cap]
    if slow:
        detail = ", ".join(f"{name}={dt:.2f}s" for name, dt, _ in results)
        return _result("perf_gates", t0, False, "over budget: " + detail)
    # measured times are volatile; the canonical detail only records the gates
    return _result(
        "perf_gates", t0, True,
        f"{len(results)} gates within budget",
    )


CHECKS: dict[str, Callable] = {
    "reference_constants": check_reference_constants,
    "oracle_cross": check_oracle_cross,
    "global_invariants": check_global_invariants,
    "cograph_cert": check_cograph_cert,
    "p4sparse_cert": check_p4sparse_cert,
    "tp_cert": check_tp_cert,
    "tp_rainbow_equality": check_tp_rainbow_equality,
    "interval_cert": check_interval_cert,
    "permutation_cert": check_permutation_cert,
    "permutation_weak_gap": check_permutation_weak_gap,
    "bipartite_cert": check_bipartite_cert,
    "gadget_cert": check_gadget_cert,
    "perf_gates": check_perf_gates,
}


def default_plan(profile: str = "quick", seed: int = 0) -> CertificationPlan:
    """The quick plan runs every check at reduced scale in a few minutes;
    the full plan uses the certification-suite scales."""
    if profile == "quick":
        checks = (
            ("reference_constants", {}),
            ("oracle_cross", {"max_n": 4, "max_k": 2}),
            ("global_invariants", {"count": 40, "max_n": 7}),
            ("cograph_cert", {"max_leaves": 6}),
            ("p4sparse_cert", {"max_n": 6, "feet": [2, 3], "heads": [0, 1], "ks": [1, 2]}),
            ("tp_cert", {"max_n": 6, "assignments": 15, "jk_max": 2}),
            ("tp_rainbow_equality", {"max_n": 6}),
            ("interval_cert", {"max_n": 6}),
            ("permutation_cert", {"max_n": 6}),
            ("bipartite_cert", {"max_side": 3, "max_k": 2, "randoms": 100}),
            ("gadget_cert", {"count": 30, "max_total": 6, "max_k": 2}),
        )
    elif profile == "full":
        checks = (
            ("reference_constants", {}),
            ("oracle_cross", {"max_n": 5, "max_k": 2}),
            ("global_invariants", {"count": 500, "max_n": 8}),
            ("cograph_cert", {"max_leaves": 8}),
            ("p4sparse_cert", {"max_n": 8}),
            ("tp_cert", {"max_n": 8, "assignments": 100, "jk_max": 3}),
            ("tp_rainbow_equality", {"max_n": 8}),
            ("interval_cert", {"max_n": 8}),
            ("permutation_cert", {"max_n": 8}),
            ("permutation_weak_gap", {"max_n": 7, "randoms": 200}),
            ("bipartite_cert", {"max_side": 4, "max_k": 2, "randoms": 1000}),
            ("gadget_cert", {"count": 200, "max_total": 7, "max_k": 3, "product_cap": 80}),
            ("perf_gates", {}),
        )
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return CertificationPlan(seed, checks)


def _run_checks(seed: int, checks) -> list[CheckResult]:
    """Run ``checks`` one after another.  Module level, with picklable
    arguments, so a process pool can send it under any start method."""
    return [
        CHECKS[name](params, random.Random(f"{seed}:{name}"))
        for name, params in checks
    ]


# Fixed cost weight of each check in milliseconds, for dealing checks to
# workers: the median of five `verify --timing` runs of the benchmark plan
# (perfbench/certify_plan.json, seed 101, one worker; perf_gates from one
# run of its full-plan parameters) on a 2-core host, Python 3.11.  Only
# their ratios matter, and they only balance the deal: a report does not
# depend on them.
CHECK_COST: dict[str, int] = {
    "reference_constants": 57,
    "oracle_cross": 368,
    "global_invariants": 79,
    "cograph_cert": 633,
    "p4sparse_cert": 100,
    "tp_cert": 584,
    "tp_rainbow_equality": 125,
    "interval_cert": 325,
    "permutation_cert": 754,
    "permutation_weak_gap": 179,
    "bipartite_cert": 230,
    "gadget_cert": 54,
    "perf_gates": 3632,
}


def _deal(checks, w: int) -> list[list[int]]:
    """Indices of the checks each of ``w`` workers runs: each check, in plan
    order, goes to the worker with the least ``CHECK_COST`` dealt so far
    (ties to the lowest worker)."""
    loads = [0] * w
    shares: list[list[int]] = [[] for _ in range(w)]
    for i, (name, _params) in enumerate(checks):
        j = loads.index(min(loads))
        shares[j].append(i)
        loads[j] += CHECK_COST[name]
    return shares


def run_plan(plan: CertificationPlan, workers: int = 1) -> CertificationReport:
    """Execute all checks in ``w = min(workers, len(plan.checks))``
    processes, the caller being worker 0.  Each check, in plan order, goes
    to the worker with the least ``CHECK_COST`` dealt so far (``_deal``),
    so the deal depends only on the plan and ``w``; each check gets its own
    seed-derived generator, so the report is identical for every worker
    count.  The pool uses the interpreter's start method, which the
    application may choose."""
    for name, _params in plan.checks:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}")
    w = max(1, min(workers, len(plan.checks)))
    if w == 1:
        results = _run_checks(plan.seed, plan.checks)
    else:
        # imported here so that solve never pays for it
        from concurrent.futures import ProcessPoolExecutor

        shares = _deal(plan.checks, w)
        checks = [[plan.checks[i] for i in share] for share in shares]
        results = [None] * len(plan.checks)
        with ProcessPoolExecutor(max_workers=w - 1) as pool:
            futures = [
                pool.submit(_run_checks, plan.seed, share) for share in checks[1:]
            ]
            done = [_run_checks(plan.seed, checks[0])]
            done += [future.result() for future in futures]
        for share, share_results in zip(shares, done):
            for i, result in zip(share, share_results):
                results[i] = result
    return CertificationReport(plan.seed, tuple(results))
