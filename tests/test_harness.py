import concurrent.futures
import json
import os
import subprocess
import sys
from itertools import combinations

import pytest

import rainbowdom
from rainbowdom.graph import Graph
from rainbowdom.harness import (
    CHECKS,
    DECLARATIONS,
    CertificationPlan,
    CertificationReport,
    check_cograph_cert,
    default_plan,
    enumerate_cographs,
    enumerate_interval_models,
    enumerate_p4sparse_trees,
    enumerate_rooted_forests,
    graphs_isomorphic,
    run_plan,
    sweep_global_invariants,
)
from rainbowdom.generators import generate
from rainbowdom.interval import interval_graph
from rainbowdom.registry import REGISTRY
import random

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_cograph_counts_match_published_sequence():
    by_n = {}
    for t, g in enumerate_cographs(7):
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert [by_n[i] for i in range(1, 8)] == [1, 2, 4, 10, 24, 66, 180]


def test_forest_counts_match_published_sequence():
    by_n = {}
    for m, g in enumerate_rooted_forests(8):
        by_n[m.n] = by_n.get(m.n, 0) + 1
        assert m.derived_graph() == g, m.parents
    assert [by_n[i] for i in range(1, 9)] == [1, 2, 4, 9, 20, 48, 115, 286]


def test_interval_counts_match_published_sequence():
    by_n = {}
    for g, m in enumerate_interval_models(7):
        by_n[g.n] = by_n.get(g.n, 0) + 1
        assert interval_graph(m) == g
    assert [by_n[i] for i in range(1, 8)] == [1, 2, 4, 10, 27, 92, 369]


def _is_interval_by_lekkerkerker_boland(g):
    """Chordal (simplicial vertices can be removed until none is left) and
    free of asteroidal triples: three pairwise non-adjacent vertices, each
    two joined by a path that avoids the closed neighbourhood of the third."""
    left = set(range(g.n))
    while left:
        simplicial = next((v for v in left if all(
            g.has_edge(a, b) for a, b in combinations(g.neighbors(v) & left, 2)
        )), None)
        if simplicial is None:
            return False
        left.discard(simplicial)

    def joined(a, b, avoid):
        seen, stack = {a}, [a]
        while stack:
            for u in g.neighbors(stack.pop()) - avoid - seen:
                seen.add(u)
                stack.append(u)
        return b in seen

    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c):
            continue
        if all(joined(x, y, g.neighbors(z) | {z})
               for x, y, z in ((a, b, c), (a, c, b), (b, c, a))):
            return False
    return True


def test_interval_enumeration_matches_reference():
    """Every labelled interval graph on at most 5 vertices is isomorphic to
    exactly one enumerated graph, and every enumerated graph on at most 6
    vertices is an interval graph."""
    by_n = {}
    for g, _m in enumerate_interval_models(6):
        assert _is_interval_by_lekkerkerker_boland(g), g.edges
        by_n.setdefault(g.n, []).append(g)
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if _is_interval_by_lekkerkerker_boland(g):
                assert sum(graphs_isomorphic(g, h) for h in by_n[n]) == 1, g.edges


def test_p4sparse_trees_cover_p4():
    trees = enumerate_p4sparse_trees(4)
    graphs = [g for _t, g in trees if g.n == 4]
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert any(graphs_isomorphic(g, p4) for g in graphs)


def test_isomorphism_checker():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c4b = Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert graphs_isomorphic(c4, c4b)
    assert not graphs_isomorphic(c4, p4)


def test_sweep_global_invariants_ok(c6, gap12):
    ok, detail = sweep_global_invariants([c6, Graph(1)], (1, 2, 3), cap=36)
    assert ok, detail
    ok, detail = sweep_global_invariants([gap12], (3,), cap=40)
    assert ok, detail


def test_empty_plan():
    report = run_plan(CertificationPlan(0, ()))
    assert report.all_passed and not report.results


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        run_plan(CertificationPlan(0, (("no_such_check", {}),)))


def test_report_determinism_and_roundtrip():
    plan = default_plan("quick", seed=7)
    plan2 = CertificationPlan.from_json(plan.to_json())
    assert plan2 == plan
    r1 = run_plan(plan)
    for workers in (2, 3):
        assert run_plan(plan, workers=workers).to_json() == r1.to_json()
    assert r1.all_passed
    doc = json.loads(r1.to_json())
    assert doc["all_passed"] is True


def _value_one_too_high(solver):
    def broken(tree, k, j, L):
        v, w = solver(tree, k, j, L)
        # corrupt the value on joins of two multi-vertex parts
        if tree.kind[tree.root] == "J" and tree.n >= 4:
            return v + 1, w
        return v, w
    return broken


def _witness_dropped(solver):
    def broken(tree, k, j, L):
        return solver(tree, k, j, L)[0], None
    return broken


def test_mutation_is_caught(monkeypatch):
    """A deliberately broken table solver must produce a counterexample:
    one mutation of the value, one of the witness."""
    solvers = REGISTRY["cograph"].solvers
    for mutate in (_value_one_too_high, _witness_dropped):
        with monkeypatch.context() as m:
            m.setitem(solvers, "rainbow", mutate(solvers["rainbow"]))
            result = check_cograph_cert({"max_leaves": 5, "ks": (2,)}, random.Random(0))
        assert not result.passed, mutate.__name__
        assert result.counterexample is not None
        assert "cotree=" in result.counterexample


@pytest.mark.parametrize("cls, problem, check, params", [
    ("trivially-perfect", "weak", "tp_rainbow_equality", {"max_n": 4}),
    ("permutation", "weak", "permutation_weak_gap", {"max_n": 4, "randoms": 0}),
    ("permutation", "rainbow", "permutation_weak_gap", {"max_n": 4, "randoms": 0}),
])
def test_dropped_witness_is_caught(monkeypatch, cls, problem, check, params):
    solvers = REGISTRY[cls].solvers
    monkeypatch.setitem(solvers, problem, _witness_dropped(solvers[problem]))
    result = CHECKS[check](params, random.Random(0))
    assert not result.passed and "no witness" in result.counterexample


def _bench_plan(seed):
    with open(os.path.join(ROOT, "perfbench", "certify_plan.json")) as fh:
        return CertificationPlan(seed, CertificationPlan.from_json(fh.read()).checks)


def test_quick_plan_report_is_pinned():
    """The quick plan's seed-3 report and the benchmark plan's seed-101
    report, byte for byte as `verify --out` wrote them before the checks
    went through the class table and before the trivially perfect rainbow
    entry built a witness, respectively."""
    for plan, name in (
        (default_plan("quick", 3), "verify_quick_seed3.json"),
        (_bench_plan(101), "verify_bench_seed101.json"),
    ):
        with open(os.path.join(DATA, name)) as fh:
            pinned = fh.read()
        assert run_plan(plan).to_json() + "\n" == pinned, name


def test_verify_certifies_what_solve_runs(monkeypatch):
    """The benchmark plan calls every solver of the table but the oracle's."""
    calls = {}

    def counted(key, solver):
        def solve(*args):
            calls[key] += 1
            return solver(*args)
        return solve

    for cls, entry in REGISTRY.items():
        if cls != "oracle":
            for problem, solver in list(entry.solvers.items()):
                calls[cls, problem] = 0
                monkeypatch.setitem(entry.solvers, problem, counted((cls, problem), solver))
    assert run_plan(_bench_plan(101)).all_passed
    assert [key for key, count in calls.items() if not count] == []


SMALL_PLAN = CertificationPlan(3, (
    ("reference_constants", {}),
    ("oracle_cross", {"max_n": 3, "max_k": 1}),
    ("cograph_cert", {"max_leaves": 4}),
))


def test_pool_gets_one_process_per_share_beyond_the_caller(monkeypatch):
    """workers=8 on two checks: the caller runs check 0 and a pool of one
    process gets check 1.  The spy runs the share inline, so no pool starts."""
    pools, shares = [], []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, seed, checks):
            shares.append([name for name, _params in checks])
            future = concurrent.futures.Future()
            future.set_result(fn(seed, checks))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    plan = CertificationPlan(3, SMALL_PLAN.checks[:2])
    assert run_plan(plan, workers=8).to_json() == run_plan(plan).to_json()
    assert pools == [1]
    assert shares == [["oracle_cross"]]

    # the heavy cograph_cert fills the caller, so both light checks go to
    # the other worker (check i mod 2 would give the caller oracle_cross)
    rc, oc, cc = SMALL_PLAN.checks
    assert DECLARATIONS["cograph_cert"].cost > DECLARATIONS["reference_constants"].cost
    pools.clear()
    shares.clear()
    plan = CertificationPlan(3, (cc, rc, oc))
    assert run_plan(plan, workers=2).to_json() == run_plan(plan).to_json()
    assert pools == [1]
    assert shares == [["reference_constants", "oracle_cross"]]


def test_every_check_has_a_cost_weight():
    assert all(declared.cost > 0 for declared in DECLARATIONS.values())


SPAWN_SCRIPT = """\
import multiprocessing
import sys

from rainbowdom.harness import CertificationPlan, run_plan

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    plan = CertificationPlan.from_json(sys.stdin.read())
    sys.stdout.write(run_plan(plan, 2).to_json())
"""


def test_pool_works_under_spawn(tmp_path):
    script = tmp_path / "spawn_run.py"
    script.write_text(SPAWN_SCRIPT)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowdom.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script)], input=SMALL_PLAN.to_json(),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_plan(SMALL_PLAN).to_json()


@pytest.mark.parametrize("doc", [
    {"checks": [{"name": "tp_cert", "params": {"max_n": "x"}}]},
    {"checks": [{"name": "tp_cert", "params": [1]}]},
    {"checks": [{"name": "tp_cert", "params": {"ks": [1, True]}}]},
    {"checks": [{"name": ["tp_cert"]}]},
    {"checks": [1]},
    {"checks": {"name": "tp_cert"}},
    {"seed": None, "checks": []},
    [1],
    {"checks": [{"name": "cograph_cert", "params": {"max_leafs": 3}}]},
    {"checks": [{"name": "reference_constants", "params": {"max_n": [5]}}]},
    {"checks": [{"name": "no_such_check"}]},
])
def test_malformed_plan_rejected(doc):
    with pytest.raises(ValueError):
        CertificationPlan.from_json(json.dumps(doc))


def test_number_parameters_take_ints_and_floats():
    doc = {"checks": [{"name": "perf_gates",
                       "params": {"tp_budget": 2.5, "cograph_budget": 1}}]}
    plan = CertificationPlan.from_json(json.dumps(doc))
    assert plan.checks == (("perf_gates", {"tp_budget": 2.5, "cograph_budget": 1}),)
    for value in ("2", True, -1.0):
        doc["checks"][0]["params"] = {"tp_budget": value}
        with pytest.raises(ValueError, match="must be a number >= 0"):
            CertificationPlan.from_json(json.dumps(doc))


def test_builtin_plans_keep_the_parameter_rules():
    for profile in ("quick", "full"):
        plan = default_plan(profile, seed=3)
        assert CertificationPlan.from_json(plan.to_json()) == plan
