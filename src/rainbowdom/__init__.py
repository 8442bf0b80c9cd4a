"""Exact solvers for rainbow domination and related domination variants on
structured graph classes, certified against brute-force oracles."""

from .graph import (
    Graph,
    GraphParseError,
    parse_graph,
    render_graph,
)
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
    rainbow_to_weight,
    weight_cost,
)
from .oracle import (
    InfeasibleInstance,
    OracleBudgetExceeded,
    OracleCapExceeded,
    OracleResult,
    exact_domination,
    exact_rainbow,
    exact_rainbow_direct,
    exact_weight_variant,
)

__version__ = "0.1.0"
