"""Acceptance suite: every certification criterion at its stated scale and
time budget, one pass/fail line per criterion.

Integer results are compared exactly.  Each criterion runs with its own
seed-derived generator, so the suite is deterministic end to end.
"""

import random
import time

import pytest

from rainbowdom.graph import Graph, cartesian_product_complete
from rainbowdom.oracle import exact_domination, exact_rainbow
from rainbowdom.harness import (
    check_bipartite_cert,
    check_cograph_cert,
    check_gadget_cert,
    check_global_invariants,
    check_interval_cert,
    check_oracle_cross,
    check_p4sparse_cert,
    check_reference_constants,
    check_perf_gates,
    check_permutation_cert,
    check_tp_cert,
    check_tp_rainbow_equality,
)


def _run(number, budget_s, check, params):
    rng = random.Random(f"acceptance:{number}")
    t0 = time.time()
    result = check(params, rng)
    elapsed = time.time() - t0
    status = "PASS" if result.passed and elapsed < budget_s else "FAIL"
    print(
        f"\nACCEPTANCE {number}: {status} [{elapsed:.1f}s / {budget_s:.0f}s] "
        f"{result.name}: {result.detail}"
    )
    if result.counterexample:
        print(f"  counterexample: {result.counterexample}")
    assert result.passed, f"criterion {number}: {result.detail}"
    assert elapsed < budget_s, f"criterion {number} over budget: {elapsed:.1f}s"
    return result


def test_criterion_1_reference_constants():
    _run(1, 1.0, check_reference_constants, {})


def test_criterion_2_oracle_identity_and_cross_check():
    # the product identity holds by construction; assert it explicitly on a
    # sample, then run the independent label-enumeration oracle exhaustively
    rng = random.Random("acceptance:2-identity")
    for _ in range(10):
        n = rng.randint(1, 5)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        for k in (1, 2):
            assert (
                exact_rainbow(g, k).value
                == exact_domination(cartesian_product_complete(g, k)).value
            )
    _run(2, 300.0, check_oracle_cross, {"max_n": 5, "max_k": 2})


def test_criterion_3_global_invariants_500_graphs():
    _run(3, 600.0, check_global_invariants, {"count": 500, "max_n": 8, "ks": [1, 2, 3]})


def test_criterion_4_cograph_certification():
    _run(4, 900.0, check_cograph_cert, {"max_leaves": 8, "ks": [1, 2, 3]})


def test_criterion_5_p4sparse_certification():
    _run(
        5, 1200.0, check_p4sparse_cert,
        {"max_n": 8, "ks": [1, 2, 3], "feet": [2, 3, 4, 5], "heads": [0, 1, 2, 3]},
    )


def test_criterion_6_trivially_perfect_certification():
    _run(
        6, 1800.0, check_tp_cert,
        {"max_n": 8, "ks": [1, 2, 3], "assignments": 100, "jk_max": 3},
    )
    # the paper's equality: rainbow (with a witness) vs oracle and weak
    _run(6, 600.0, check_tp_rainbow_equality, {"max_n": 8, "ks": [1, 2, 3]})


def test_criterion_7_interval_certification():
    _run(7, 1800.0, check_interval_cert, {"max_n": 8})


def test_criterion_8_permutation_certification():
    _run(8, 3600.0, check_permutation_cert, {"max_n": 8})


def test_criterion_9_bipartite_certification():
    _run(
        9, 1200.0, check_bipartite_cert,
        {"max_side": 4, "max_k": 2, "randoms": 1000, "rand_k": 3},
    )


def test_criterion_10_gadget_identities():
    _run(
        10, 1800.0, check_gadget_cert,
        {"count": 200, "max_total": 7, "max_k": 3, "product_cap": 80},
    )


def test_criterion_11_scalability_gates():
    _run(
        11, 300.0, check_perf_gates,
        {
            "cograph_leaves": 100_000,
            "cograph_budget": 1.0,
            "tp_n": 100_000,
            "tp_budget": 2.0,
            "interval_n": 25,
            "interval_budget": 60.0,
            "permutation_n": 30,
            "permutation_budget": 120.0,
        },
    )
