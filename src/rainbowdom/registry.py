"""The (class, problem) table: per graph class, how to load, recognize,
convert, bench and solve it.

``solve``, ``--class auto``, ``convert``, ``bench`` and every check of the
certification harness read this one table, so the entries ``solve``
dispatches through are the ones ``verify`` certifies.  This module imports
neither the command line nor the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graph import Graph
from .semantics import KAssignment
from . import oracle as _oracle
from .cograph import (
    Cotree,
    CotreeParseError,
    cotree_to_graph,
    kdom_cograph,
    parse_cotree,
    rainbow_cograph,
    random_cotree,
    recognize_cograph,
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
from .generators import generate

__all__ = ["PROBLEMS", "ORACLE_VARIANT", "GraphClass", "REGISTRY", "AUTO", "recognize_auto"]

PROBLEMS = ("rainbow", "weak", "kdom", "jkdom", "weakL")

# problem -> the oracle's name for it among the weight variants
ORACLE_VARIANT = {"weak": "weak_k", "kdom": "k_dom", "jkdom": "jk_dom", "weakL": "weak_kL"}


@dataclass(frozen=True)
class GraphClass:
    """How solve, auto, convert, bench and verify handle one graph class.

    ``solvers`` maps each supported problem to ``solver(model, k, j, L)``,
    which returns (value, witness); the oracle's model is the graph.
    ``load`` parses a model file (``kind`` names the file for convert),
    ``recognize(g, L)`` returns a model of g or the refusal message; the
    model names g's own vertices (a complete bipartite instance keeps g's
    sides and L's demands), so its witnesses need no relabelling.
    A model that carries its own weakL floors has ``k`` and
    ``assignment()``, as a complete bipartite instance does; solve takes
    the floors from it and refuses ``--assignment`` beside it.
    ``to_graph`` builds the graph a model file encodes, for convert.
    Every loaded model has ``n`` and ``open_sums``, which is all
    ``semantics.check_witness`` reads, so solve checks a model's witness
    on the model.  bench and the harness's perf gates time
    ``timed(instance, k)`` on each ``instance = sample(n, rng)``."""

    solvers: dict[str, Callable]
    load: Callable | None = None
    kind: str | None = None
    recognize: Callable | None = None
    to_graph: Callable | None = None
    k2_only: bool = False        # the sweeps solve k = 2 only
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
    """Instance on g's own vertices when g is complete bipartite and the
    floors are all zero; side 1 is the non-neighbours of vertex 0."""
    refusal = "not complete bipartite with zero floors"
    if g.n < 2 or any(a for a, _b in L.pairs):
        return refusal
    set2 = g.neighbors(0)
    set1 = frozenset(range(g.n)) - set2
    if not set2 or any(g.neighbors(u) != set2 for u in set1) or any(
        g.neighbors(v) != set1 for v in set2
    ):
        return refusal
    return instance_from_assignment(sorted(set1), sorted(set2), L)


def _oracle_solver(problem: str) -> Callable:
    def solve(g, k, j, L):
        if problem == "rainbow":
            res = _oracle.exact_rainbow(g, k)
        else:
            res = _oracle.exact_weight_variant(
                g, ORACLE_VARIANT[problem], k, j=j, assignment=L
            )
        return res.value, res.witness
    return solve


def _random_intervals(n: int, rng) -> IntervalModel:
    return IntervalModel(tuple(
        tuple(sorted((rng.randint(1, n), rng.randint(1, n)))) for _ in range(n)
    ))


def _random_permutation(n: int, rng) -> tuple:
    pi = list(range(n))
    rng.shuffle(pi)
    return tuple(pi)


def _seeded(make: Callable) -> Callable:
    return lambda n, rng: make(n, rng.randrange(1 << 30))


def _tree_rainbow(t, k, j, L):
    return rainbow_cograph(t, k)


def _interval_weak(m, k, j, L):
    return weak2_interval(build_arrangement(m))


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
        {"rainbow": lambda m, k, j, L: gamma_rk_tp(m, k),
         "weak": lambda m, k, j, L: gamma_wk_tp(m, k),
         "jkdom": lambda m, k, j, L: jk_domination_tp(m, j, k),
         "weakL": lambda m, k, j, L: gamma_wkL(m, L)},
        load=parse_tree_model, kind="tree", recognize=_recognize_tp,
        to_graph=lambda m: m.derived_graph(), sample=_seeded(random_tree_model),
        timed=lambda m, k: gamma_wkL(m, KAssignment.uniform(k, m.n)),
    ),
    "interval": GraphClass(
        {"rainbow": lambda m, k, j, L: rainbow2_interval(build_arrangement(m)),
         "weak": _interval_weak},
        load=parse_intervals, kind="intervals", to_graph=interval_graph, k2_only=True,
        sample=_random_intervals, timed=lambda m, k: _interval_weak(m, k, None, None),
    ),
    "permutation": GraphClass(
        {"rainbow": lambda pi, k, j, L: rainbow2_permutation(pi),
         "weak": lambda pi, k, j, L: weak2_permutation(pi)},
        load=parse_permutation, kind="permutation", to_graph=diagram_to_graph,
        k2_only=True, sample=_random_permutation,
        timed=lambda pi, k: rainbow2_permutation(pi),
    ),
    "complete-bipartite": GraphClass(
        {"weakL": lambda inst, k, j, L: weakL_complete_bipartite(inst)},
        load=parse_bipartite_instance, recognize=_recognize_complete_bipartite,
    ),
    "oracle": GraphClass(
        {p: _oracle_solver(p) for p in PROBLEMS},
        sample=lambda n, rng: generate("random", n, 0.4, seed=rng.randrange(1 << 30))[0],
        timed=lambda g, k: _oracle.exact_rainbow(g, k),
    ),
}

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



def recognize_auto(problem: str, g: Graph, L: KAssignment | None):
    """The class ``--class auto`` solves g as, and its model: the first of
    AUTO[problem] that recognizes g, else ("oracle", g).  A P4-sparse
    model without spider nodes is named a cograph."""
    for name in AUTO[problem]:
        model = REGISTRY[name].recognize(g, L)
        if not isinstance(model, str):
            return ("cograph" if name == "p4sparse" and "S" not in model.kind else name), model
    return "oracle", g
