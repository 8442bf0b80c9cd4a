"""Rebuild ``expected.json``: the expected value and exit code of every
pool spec of every solve workload.

    python3 perfbench/make_expected.py

The program's own answer is recorded only where nothing independent exists.
Otherwise the expected value comes from:

* ``rainbowdom.oracle`` wherever n * k fits under the default oracle cap,
  and beyond it while the search stays within a node budget;
* for the cotrees deeper than the recursion limit, ``rainbow_cograph`` /
  ``weak_cograph`` on a ``Cotree`` built directly from parallel arrays,
  whose traversals are iterative.

It also checks that the program reads every model file as the graph the
benchmark validates witnesses against (``rainbowdom convert``).  Any
disagreement is printed; the independent value is the one stored.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from rainbowdom import oracle  # noqa: E402
from rainbowdom.cli import main as cli_main  # noqa: E402
from rainbowdom.cograph import Cotree, rainbow_cograph, weak_cograph  # noqa: E402
from rainbowdom.graph import Graph  # noqa: E402
from rainbowdom.semantics import KAssignment  # noqa: E402

ORACLE_BUDGET = 200_000
CONVERT_KIND = {"cotree": "cotree", "p4tree": "p4tree", "tree": "tree", "iv": "intervals",
                "perm": "permutation"}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    except RecursionError:
        rc = None
    return rc, out.getvalue()


def _oracle_value(inst):
    g = Graph(inst.n, inst.edges())
    k = inst.k
    if inst.n * k > oracle.DEFAULT_VERTEX_CAP and inst.n > 40:
        return None
    try:
        if inst.problem == "rainbow":
            return oracle.exact_rainbow(g, k, cap=inst.n * k, node_budget=ORACLE_BUDGET).value
        variant = {"weak": "weak_k", "kdom": "k_dom", "jkdom": "jk_dom", "weakL": "weak_kL"}
        assignment = KAssignment(k, inst.floors) if inst.floors else None
        return oracle.exact_weight_variant(g, variant[inst.problem], k, j=inst.j,
                                           assignment=assignment,
                                           node_budget=ORACLE_BUDGET).value
    except (oracle.OracleBudgetExceeded, oracle.OracleCapExceeded):
        return None


def _deep_cotree_value(inst):
    """The deep cotree's value from an array-built Cotree (no recursion)."""
    t, root = inst.tree
    kind = [node[0] for node in t.nodes]
    left = [node[1] for node in t.nodes]
    right = [node[2] for node in t.nodes]
    leaf = [node[3] if node[0] == "L" else -1 for node in t.nodes]
    tree = Cotree(kind, left, right, leaf, root)
    solver = rainbow_cograph if inst.problem == "rainbow" else weak_cograph
    return solver(tree, inst.k, want_witness=False)[0]


def _same_graph(inst, paths) -> bool | None:
    for suffix, kind in CONVERT_KIND.items():
        if suffix in paths:
            rc, text = _cli(["convert", "--kind", kind, paths[suffix]])
            if rc != 0:
                return None
            lines = text.split("\n")
            got = {tuple(map(int, ln.split())) for ln in lines[1:] if ln.strip()}
            want = {(min(u, v), max(u, v)) for u, v in inst.edges()}
            return got == want
    return True


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_work", "expected")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    table, problems = {}, 0
    try:
        for stratum in workloads.STRATA:
            for i in range(stratum.pool):
                inst = workloads.make_instance(stratum, i)
                paths = {}
                for suffix, text in inst.files.items():
                    paths[suffix] = os.path.join(work, f"x.{suffix}")
                    with open(paths[suffix], "w") as fh:
                        fh.write(text)
                argv = [a.format(**paths) if a.startswith("{") else a for a in inst.argv]
                rc, out = _cli(argv)
                program = int(out) if rc == 0 else None
                if stratum.name == "cotree_deep":
                    value, source, exit_code = _deep_cotree_value(inst), "iterative-dp", 0
                elif rc == 3:
                    value, source, exit_code = None, "program-exit", 3
                else:
                    value = _oracle_value(inst)
                    source = "oracle" if value is not None else "program"
                    if value is None:
                        value = program
                    exit_code = 0
                sid = f"{stratum.name}/{i}"
                if source == "program" and inst.n * inst.k <= oracle.DEFAULT_VERTEX_CAP:
                    print(f"{sid}: the oracle did not confirm it within its budget",
                          file=sys.stderr)
                    problems += 1
                same = _same_graph(inst, paths) if stratum.name != "cotree_deep" else None
                if same is False:
                    print(f"{sid}: program reads the model as another graph", file=sys.stderr)
                    problems += 1
                if (rc, program) != (exit_code, value) and stratum.known_defect is None:
                    print(f"{sid}: program gave exit {rc} value {program}, "
                          f"expected exit {exit_code} value {value} ({source})", file=sys.stderr)
                    problems += 1
                table[sid] = {"value": value, "exit": exit_code, "source": source}
            print(f"{stratum.name}: {stratum.pool} specs", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"generated_at_commit": commit, "oracle_node_budget": ORACLE_BUDGET,
           "instances": table}
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} specs, {problems} disagreements", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
