"""Certification driver: exhaustive per-class instance enumeration and the
oracle cross-checks that gate every polynomial solver.

Instance generators enumerate each solver's true input space directly
(cotrees, decomposition trees, interval models, permutations) rather than
filtering arbitrary graphs.  The rooted forests are the exception: they
are read off the enumerated cographs by the trivially perfect recognizer
``solve`` runs, which accepts exactly the trivially perfect ones, so one
shape enumerator serves all three tree classes.

Every class solver is reached through the (class, problem) table of
``rainbowdom.registry``, so the checks certify the entries ``solve`` runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
from .trivially_perfect import RootedTreeModel, gamma_wkL
from .interval import IntervalModel
from .permutation import Permutation, diagram_to_graph
from .bipartite import BipartiteInstance, complete_bipartite_graph
from .gadgets import split_partition, verify_gadget_identities
from .generators import generate
from .registry import REGISTRY

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
    "DECLARATIONS",
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


def _colors(g: Graph) -> list[int]:
    return _refine_colors(g, [g.degree(v) for v in range(g.n)])


def graphs_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism by color-refined backtracking; meant for n <= 10."""
    return _isomorphic(a, _colors(a), b, _colors(b))


def _isomorphic(a: Graph, ca: list[int], b: Graph, cb: list[int]) -> bool:
    """``graphs_isomorphic`` given both graphs' refined colors."""
    if a.n != b.n or a.m != b.m or sorted(ca) != sorted(cb):
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
    """Set of graphs up to isomorphism, bucketed by size and the multiset
    of refined colors; each stored graph keeps its colors."""

    def __init__(self):
        self.buckets: dict = {}
        self.items: list = []

    def add(self, g: Graph, payload) -> bool:
        colors = _colors(g)
        bucket = self.buckets.setdefault((g.n, g.m, tuple(sorted(colors))), [])
        for h, ch in bucket:
            if _isomorphic(g, colors, h, ch):
                return False
        bucket.append((g, colors))
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


def enumerate_rooted_forests(max_n: int):
    """All rooted forests per size, as (RootedTreeModel, Graph) pairs: the
    models that the solve recognizer of trivially perfect graphs gives the
    cographs it accepts (every trivially perfect graph is a cograph), each
    with the cograph it accepted."""
    recognize = REGISTRY["trivially-perfect"].recognize
    pairs = ((recognize(g, None), g) for _tree, g in enumerate_cographs(max_n))
    return [(m, g) for m, g in pairs if isinstance(m, RootedTreeModel)]


# --- interval graph enumeration ------------------------------------------------


def enumerate_interval_models(max_n: int):
    """One interval model per isomorphism class of interval graphs, for
    every size up to max_n, as (Graph, IntervalModel) pairs.

    Every interval graph has a vertex order in which u < v < w and uw an
    edge imply uv an edge (Olariu 1991), so v_i, i < j, sees v_j exactly
    when j <= r_i, the position of v_i's last neighbour.  The models
    [i, r_i] with i <= r_i <= n - 1 thus give every class; the first of
    each class in product order is kept."""
    out = []
    for n in range(1, max_n + 1):
        coll = _IsoCollection()
        for ends in itertools.product(*(range(i, n) for i in range(n))):
            g = Graph(n, [(i, j) for i, r in enumerate(ends) for j in range(i + 1, r + 1)])
            coll.add(g, IntervalModel(tuple(enumerate(ends))))
        out += coll.items
    return out


# --- plan / report machinery ---------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: str | None
    seconds: float


class Declaration(NamedTuple):
    """What a check states about itself besides its body.

    ``cost`` is a fixed weight in milliseconds for dealing checks to
    workers: the median of five `verify --timing` runs of the benchmark
    plan (perfbench/certify_plan.json, seed 101, one worker; perf_gates
    from one run of its full-plan parameters) on a 2-core host, Python
    3.11.  Only the ratios matter, and they only balance the deal: a report
    does not depend on them.  ``params`` maps each parameter to (default,
    least value); a list default makes a list parameter, which a plan must
    give as a non-empty list with every member at least the least value."""

    cost: int
    params: dict


CHECKS: dict[str, Callable] = {}
DECLARATIONS: dict[str, Declaration] = {}


def _declare(cost: int, **params):
    """Register the decorated body as the check ``<name>`` of its function
    name ``check_<name>``, declared by ``cost`` and ``params`` (see
    ``Declaration``).  The body takes ``rng`` and the parameters as
    keywords and returns (passed, detail, counterexample); the registered
    check takes (params, rng), fills in the defaults of parameters the
    params leave out, times the body and returns its ``CheckResult``."""
    defaults = {key: default for key, (default, _least) in params.items()}

    def register(body):
        name = body.__name__.removeprefix("check_")

        @functools.wraps(body)
        def check(given: dict, rng) -> CheckResult:
            t0 = time.perf_counter()
            passed, detail, counterexample = body(rng, **{**defaults, **given})
            return CheckResult(name, passed, detail, counterexample,
                               time.perf_counter() - t0)

        CHECKS[name] = check
        DECLARATIONS[name] = Declaration(cost, params)
        return check

    return register


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_param(name: str, key: str, value) -> None:
    """Raise ValueError unless ``key`` is a declared parameter of the check
    and the value is of its kind and at least its least value.  A float
    default makes a number parameter, which takes an int or a float."""
    declared = DECLARATIONS[name].params
    if key not in declared:
        raise ValueError(f"{name} has no parameter {key!r}")
    default, least = declared[key]
    is_list = isinstance(default, list)
    is_number = isinstance(default, float)
    values = value if is_list and isinstance(value, list) else [value]
    if is_list != isinstance(value, list) or not values or not all(
        (_is_int(v) or is_number and isinstance(v, float)) and v >= least
        for v in values
    ):
        what = ("a non-empty list of integers" if is_list
                else "a number" if is_number else "an integer")
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
        where every name is a declared check and every parameter one of its
        declared parameters, within its range; raises ValueError on
        anything else, before any check runs."""
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
            if name not in DECLARATIONS:
                raise ValueError(f"unknown check {name!r}")
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


# --- the checks ----------------------------------------------------------------


def _oracle_value(problem: str, g: Graph, k: int, j=None, L=None) -> int | None:
    """The oracle's value of ``problem`` on g, or None when no function
    exists."""
    try:
        return REGISTRY["oracle"].solvers[problem](g, k, j, L)[0]
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


@_declare(cost=57)
def check_reference_constants(rng):
    """Two externally known value pairs: the 6-cycle by oracle, the
    12-vertex gap cograph by oracle and by the cograph table entries on
    its recognized and its generated cotree."""
    c6, _ = generate("cycle", 6)
    gap, gap_tree = generate("rainbow_gap")
    for g, k, weak_expect, rainbow_expect in ((c6, 2, 3, 4), (gap, 3, 4, 6)):
        if _oracle_value("weak", g, k) != weak_expect:
            return False, f"weak oracle k={k}", None
        if _oracle_value("rainbow", g, k) != rainbow_expect:
            return False, f"rainbow oracle k={k}", None
    tree = REGISTRY["cograph"].recognize(gap, None)
    if isinstance(tree, str):
        return False, "gap graph not recognized", None
    for problem, expect in (("weak", 4), ("rainbow", 6)):
        for model in (tree, gap_tree):
            _v, _w, fault = _compare("cograph", problem, gap, model, 3, expect=expect)
            if fault:
                return False, f"{problem} DP on gap graph", fault
    return True, "both value pairs reproduced", None


@_declare(cost=368, max_n=(5, 1), max_k=(2, 1))
def check_oracle_cross(rng, max_n, max_k):
    """Product-route rainbow oracle versus direct label enumeration."""
    count = 0
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            for k in range(1, max_k + 1):
                a = exact_rainbow(g, k).value
                b = exact_rainbow_direct(g, k).value
                if a != b:
                    return (
                        False, f"disagreement n={n} k={k}",
                        f"edges={sorted(g.edges)} product={a} direct={b}",
                    )
                count += 1
    return True, f"{count} instances agree", None


def sweep_global_invariants(corpus, ks):
    """Order bounds, the product upper bound, the weak-rainbow inequality
    and k-monotonicity, all by oracle.  Returns (ok, failure detail)."""
    for idx, g in enumerate(corpus):
        gamma = exact_domination(g).value
        prev = None
        for k in ks:
            rk = exact_rainbow(g, k).value
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
            if exact_rainbow(g, g.n).value != g.n:
                return False, f"saturation at k=n fails: graph {idx}"
    return True, None


@_declare(cost=79, count=(100, 0), max_n=(8, 1), ks=([1, 2, 3], 1))
def check_global_invariants(rng, count, max_n, ks):
    """``sweep_global_invariants`` over seeded random graphs."""
    corpus = []
    for i in range(count):
        n = rng.randint(1, max_n)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        g, _ = generate("random", n, p, seed=rng.randrange(1 << 30))
        corpus.append(g)
    ok, detail = sweep_global_invariants(corpus, ks)
    return ok, detail or f"{len(corpus)} graphs x k in {list(ks)}", None


@_declare(cost=633, max_leaves=(8, 1), ks=([1, 2, 3], 1))
def check_cograph_cert(rng, max_leaves, ks):
    """Every cograph from exhaustive cotree shapes: each problem of the
    cograph table entry against the oracle, and weak never above rainbow."""
    count = 0
    for tree, g in enumerate_cographs(max_leaves):
        for k in ks:
            values = {}
            for problem in REGISTRY["cograph"].solvers:
                values[problem], _w, fault = _compare("cograph", problem, g, tree, k)
                if fault:
                    return (
                        False, f"{problem} mismatch k={k}",
                        f"cotree={tree.to_text()} {fault}",
                    )
            if values["weak"] > values["rainbow"]:
                return False, "weak exceeds rainbow", tree.to_text()
            count += 1
    return True, f"{count} (cograph, k) pairs", None


@_declare(cost=100, max_n=(8, 1), ks=([1, 2, 3], 1), feet=([2, 3, 4, 5], 2),
        heads=([0, 1, 2, 3], 0))
def check_p4sparse_cert(rng, max_n, ks, feet, heads):
    """The spider rule of the rainbow DP over a grid of recognized thin and
    thick spiders, plus full trees, vs oracle."""
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
                        return False, f"{kind} spider s={s} head={h} k={k}", fault
    count = 0
    for tree, g in enumerate_p4sparse_trees(max_n):
        for k in ks:
            _v, _w, fault = _compare("p4sparse", "rainbow", g, tree, k)
            if fault:
                return False, f"tree mismatch k={k}", f"tree={tree.to_text()} {fault}"
            count += 1
    return True, f"grid + {count} (tree, k) pairs", None


@_declare(cost=584, max_n=(8, 1), ks=([1, 2, 3], 1), assignments=(100, 0),
        jk_max=(3, 1))
def check_tp_cert(rng, max_n, ks, assignments, jk_max):
    """Weak {k}-L on every rooted forest with random assignments, and the
    level rule for (j,k)."""
    models = enumerate_rooted_forests(max_n)
    count = 0
    for model, g in models:
        n = model.n
        for k in ks:
            for _ in range(assignments):
                L = KAssignment(
                    k,
                    tuple(
                        (rng.randint(0, k), rng.randint(0, k)) for _ in range(n)
                    ),
                )
                _v, _w, fault = _compare("trivially-perfect", "weakL", g, model, k, L=L)
                if fault:
                    return (
                        False, f"weak-L mismatch k={k}",
                        f"parents={model.parents} pairs={L.pairs} {fault}",
                    )
                count += 1
    jk_count = 0
    for model, g in models:
        for k in range(1, jk_max + 1):
            for j in range(1, k + 1):
                _v, _w, fault = _compare("trivially-perfect", "jkdom", g, model, k, j=j)
                if fault:
                    return (
                        False, f"(j,k) mismatch j={j} k={k}",
                        f"parents={model.parents} {fault}",
                    )
                jk_count += 1
    return True, f"{count} weak-L instances + {jk_count} (j,k) instances", None


@_declare(cost=125, max_n=(8, 1), ks=([1, 2, 3], 1))
def check_tp_rainbow_equality(rng, max_n, ks):
    """The rainbow number equals the weak number on every forest model: the
    table's rainbow entry against the rainbow oracle, the table's weak
    entry against the weak number from the forest DP at uniform floors,
    then the two values against each other."""
    count = 0
    for model, g in enumerate_rooted_forests(max_n):
        for k in ks:
            weak_value = gamma_wkL(model, KAssignment.uniform(k, model.n))[0]
            value, _w, fault = _compare("trivially-perfect", "rainbow", g, model, k)
            if not fault:
                _v, _w, fault = _compare("trivially-perfect", "weak", g, model, k,
                                         expect=weak_value)
            if not fault and weak_value != value:
                fault = f"rainbow={value} weak={weak_value}"
            if fault:
                return False, f"mismatch k={k}", f"parents={model.parents} {fault}"
            count += 1
    return True, f"{count} instances", None


@_declare(cost=325, max_n=(8, 1))
def check_interval_cert(rng, max_n):
    """Sweep DP vs oracle on every interval graph class, re-verifying the
    weak/rainbow equality on the way."""
    count = 0
    for g, model in enumerate_interval_models(max_n):
        v, _w, fault = _compare("interval", "weak", g, model, 2)
        if fault:
            return False, "weak mismatch", f"model={model.intervals} {fault}"
        rv, _w, fault = _compare("interval", "rainbow", g, model, 2)
        if fault:
            return False, "rainbow mismatch", f"model={model.intervals} {fault}"
        if rv != v:
            return (
                False, "rainbow/weak equality fails",
                f"model={model.intervals} weak={v} rainbow={rv}",
            )
        count += 1
    return True, f"{count} interval classes", None


@_declare(cost=754, max_n=(8, 1))
def check_permutation_cert(rng, max_n):
    """Scanline DP vs oracle on all permutations up to the stated size; the
    oracle runs once per distinct graph."""
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
                return False, f"mismatch n={n}", f"pi={pi} {fault}"
            count += 1
    return True, f"{count} permutations", None


@_declare(cost=179, max_n=(6, 1), randoms=(100, 0), rand_n=(9, 1))
def check_permutation_weak_gap(rng, max_n, randoms, rand_n):
    """Experiment, not an assumption: compare the weak {2} and 2-rainbow
    numbers on permutation graphs and report whether they ever differ,
    after checking both witnesses."""
    entry = REGISTRY["permutation"]
    exhaustive = (
        pi for n in range(1, max_n + 1) for pi in itertools.permutations(range(n))
    )
    sampled = (entry.sample(rand_n, rng) for _ in range(randoms))
    gaps = []
    checked = 0
    for pi in itertools.chain(exhaustive, sampled):
        wv, w = entry.solvers["weak"](pi, 2, None, None)
        rv, f = entry.solvers["rainbow"](pi, 2, None, None)
        for problem, value, witness in (("weak", wv, w), ("rainbow", rv, f)):
            fault = check_witness(problem, Permutation(pi), value, witness)
            if fault:
                return False, f"invalid {problem} witness", f"pi={pi} {fault}"
        if wv > rv:
            return False, "weak exceeded rainbow", f"pi={pi}"
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
    return True, detail, None


@_declare(cost=230, max_side=(4, 1), max_k=(2, 1), randoms=(1000, 0), rand_k=(3, 1))
def check_bipartite_cert(rng, max_side, max_k, randoms, rand_k):
    """Exhaustive demand vectors for small sides, plus seeded random larger
    demands."""
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
            return False, f"{how} mismatch", f"n1={n1} n2={n2} k={k} b={bs} {fault}"
        count += 1
    return True, f"{count} instances", None


@_declare(cost=54, count=(200, 0), max_total=(7, 2), max_k=(3, 1), product_cap=(48, 1))
def check_gadget_cert(rng, count, max_total, max_k, product_cap):
    """Both pendant identities on seeded random split graphs."""
    done = 0
    attempts = 0
    while done < count:
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
            return (
                False, "split recognizer refused a split graph",
                f"edges={sorted(g.edges)}",
            )
        n_gadget = g.n + len(part.C) * (k - 1)
        if n_gadget * k > product_cap:
            continue  # keep the oracle inside its budget; resample
        rep = verify_gadget_identities(g, part, k)
        if not rep.ok:
            return (
                False, "identity fails",
                f"edges={sorted(g.edges)} C={sorted(part.C)} k={k} report={rep}",
            )
        done += 1
        if attempts > 50 * count:
            return False, "sampling stalled", None
    return True, f"{done} split graphs", None


@_declare(cost=3632, cograph_leaves=(100_000, 1), cograph_budget=(1.0, 0),
        tp_n=(100_000, 1), tp_budget=(2.0, 0), interval_n=(25, 1),
        interval_budget=(60.0, 0), permutation_n=(30, 1), permutation_budget=(120.0, 0))
def check_perf_gates(rng, cograph_leaves, cograph_budget, tp_n, tp_budget, interval_n,
                     interval_budget, permutation_n, permutation_budget):
    """Throughput gates for the linear-time claims at desk scale: each gate
    times its class's ``timed`` at k on an instance of the given size from
    its ``sample``, the pair ``bench`` runs, against a budget in seconds."""
    results = []
    for cls, n, k, budget in (
        ("cograph", cograph_leaves, 8, cograph_budget),
        ("trivially-perfect", tp_n, 8, tp_budget),
        ("interval", interval_n, 2, interval_budget),
        ("permutation", permutation_n, 2, permutation_budget),
    ):
        entry = REGISTRY[cls]
        instance = entry.sample(n, rng)
        t1 = time.perf_counter()
        entry.timed(instance, k)
        results.append((cls, time.perf_counter() - t1, budget))
    slow = [(name, dt, cap) for name, dt, cap in results if dt >= cap]
    if slow:
        detail = ", ".join(f"{name}={dt:.2f}s" for name, dt, _ in results)
        return False, "over budget: " + detail, None
    # measured times are volatile; the canonical detail only records the gates
    return True, f"{len(results)} gates within budget", None


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


def _deal(checks, w: int) -> list[list[int]]:
    """Indices of the checks each of ``w`` workers runs: each check, in plan
    order, goes to the worker with the least declared cost dealt so far
    (ties to the lowest worker)."""
    loads = [0] * w
    shares: list[list[int]] = [[] for _ in range(w)]
    for i, (name, _params) in enumerate(checks):
        j = loads.index(min(loads))
        shares[j].append(i)
        loads[j] += DECLARATIONS[name].cost
    return shares


def run_plan(plan: CertificationPlan, workers: int = 1) -> CertificationReport:
    """Execute all checks in ``w = min(workers, len(plan.checks))``
    processes, the caller being worker 0.  Each check, in plan order, goes
    to the worker with the least declared cost dealt so far (``_deal``),
    so the deal depends only on the plan and ``w``; each check gets its own
    seed-derived generator, so the report is identical for every worker
    count.  The pool uses the interpreter's start method, which the
    application may choose."""
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
