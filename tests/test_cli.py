import json
import subprocess
import sys

import pytest

from rainbowdom.cli import main


def run_cli(*argv, cwd=None):
    """Run in-process; returns (exit_code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def gap_files(tmp_path):
    code, _o, _e = run_cli(
        "generate", "rainbow_gap", "--out", str(tmp_path / "gap")
    )
    assert code == 0
    return tmp_path / "gap.graph", tmp_path / "gap.cotree"


def test_solve_rainbow_cograph_model(gap_files):
    _graph, cotree = gap_files
    code, out, _ = run_cli(
        "solve", "--problem", "rainbow", "--k", "3",
        "--class", "cograph", "--model", str(cotree),
    )
    assert code == 0 and out.strip() == "6"


def test_solve_weak_oracle_c6(tmp_path):
    run_cli("generate", "cycle", "6", "--out", str(tmp_path / "c6"))
    code, out, _ = run_cli(
        "solve", "--problem", "weak", "--k", "2",
        "--class", "oracle", "--graph", str(tmp_path / "c6.graph"),
    )
    assert code == 0 and out.strip() == "3"


def test_solve_auto_picks_cograph(gap_files):
    graph, _ = gap_files
    code, out, err = run_cli(
        "solve", "--problem", "rainbow", "--k", "3",
        "--class", "auto", "--graph", str(graph),
    )
    assert code == 0 and out.strip() == "6"
    assert "cograph" in err


def test_solve_jkdom_tree_model(tmp_path):
    (tmp_path / "star.tree").write_text("0 -1\n1 0\n2 0\n3 0\n")
    code, out, _ = run_cli(
        "solve", "--problem", "jkdom", "--j", "1", "--k", "2",
        "--class", "trivially-perfect", "--model", str(tmp_path / "star.tree"),
    )
    assert code == 0 and out.strip() == "4"


def test_solve_weakL_bipartite_instance(tmp_path):
    (tmp_path / "inst.bip").write_text("2 2 2\n2 1\n1 1\n")
    code, out, _ = run_cli(
        "solve", "--problem", "weakL", "--k", "2",
        "--class", "complete-bipartite", "--model", str(tmp_path / "inst.bip"),
    )
    assert code == 0 and out.strip() == "2"


def test_witness_json_schema(tmp_path):
    run_cli("generate", "cycle", "6", "--out", str(tmp_path / "c6"))
    wpath = tmp_path / "w.json"
    code, out, _ = run_cli(
        "solve", "--problem", "rainbow", "--k", "2", "--class", "oracle",
        "--graph", str(tmp_path / "c6.graph"), "--witness", str(wpath),
    )
    assert code == 0
    doc = json.loads(wpath.read_text())
    assert doc["problem"] == "rainbow" and doc["k"] == 2 and doc["value"] == 4
    assert set(doc) == {"problem", "k", "value", "labels"}
    assert sum(len(v) for v in doc["labels"].values()) == 4


def test_incompatible_class_exit_2(tmp_path):
    code, _o, err = run_cli(
        "solve", "--problem", "kdom", "--k", "2",
        "--class", "interval", "--model", "whatever",
    )
    assert code == 2 and "cannot be solved" in err


def test_parse_failure_exit_2(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    code, _o, err = run_cli(
        "solve", "--problem", "weak", "--k", "2",
        "--class", "oracle", "--graph", str(bad),
    )
    assert code == 2


def test_oracle_cap_exit_3(tmp_path):
    run_cli("generate", "random", "30", "0.5", "--out", str(tmp_path / "big"))
    code, _o, err = run_cli(
        "solve", "--problem", "rainbow", "--k", "3",
        "--class", "oracle", "--graph", str(tmp_path / "big.graph"),
    )
    assert code == 3


def test_interval_requires_k2(tmp_path):
    (tmp_path / "m.ivl").write_text("0 0 1\n1 1 2\n")
    code, _o, err = run_cli(
        "solve", "--problem", "rainbow", "--k", "3",
        "--class", "interval", "--model", str(tmp_path / "m.ivl"),
    )
    assert code == 2 and "k=2" in err


def test_solve_interval_and_permutation_models(tmp_path):
    (tmp_path / "m.ivl").write_text("\n".join(f"{i} {i} {i+1}" for i in range(6)) + "\n")
    code, out, _ = run_cli(
        "solve", "--problem", "weak", "--k", "2",
        "--class", "interval", "--model", str(tmp_path / "m.ivl"),
    )
    assert code == 0 and out.strip().isdigit()
    (tmp_path / "pi.perm").write_text("4 3 2 1\n")
    code, out, _ = run_cli(
        "solve", "--problem", "rainbow", "--k", "2",
        "--class", "permutation", "--model", str(tmp_path / "pi.perm"),
    )
    assert code == 0 and out.strip() == "2"


@pytest.mark.parametrize("cls", ["auto", "cograph", "oracle"])
@pytest.mark.parametrize("problem", ["rainbow", "weak"])
def test_solve_empty_graph(tmp_path, cls, problem):
    (tmp_path / "empty.graph").write_text("0 0\n")
    witness = tmp_path / "w.json"
    code, out, _ = run_cli(
        "solve", "--problem", problem, "--k", "2", "--class", cls,
        "--graph", str(tmp_path / "empty.graph"), "--witness", str(witness),
    )
    assert code == 0 and out.strip() == "0"
    doc = json.loads(witness.read_text())
    assert doc["value"] == 0
    assert doc["labels" if problem == "rainbow" else "weights"] == {}


def test_generate_and_convert_roundtrip(tmp_path):
    run_cli("generate", "thin_spider", "3", "1", "--out", str(tmp_path / "sp"))
    code, out, _ = run_cli(
        "convert", "--kind", "p4tree", str(tmp_path / "sp.p4tree")
    )
    assert code == 0
    assert out == (tmp_path / "sp.graph").read_text()


def test_verify_quick_plan(tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        "verify", "--seed", "5", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["all_passed"] is True
    # determinism: same seed, byte-identical report
    out2 = tmp_path / "report2.json"
    run_cli("verify", "--seed", "5", "--out", str(out2))
    assert out_path.read_text() == out2.read_text()


def test_verify_custom_plan(tmp_path):
    plan = {
        "seed": 1,
        "checks": [{"name": "reference_constants", "params": {}}],
    }
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    code, _o, err = run_cli("verify", "--plan", str(p))
    assert code == 0


def test_verify_unknown_check(tmp_path):
    p = tmp_path / "plan.json"
    p.write_text(json.dumps({"seed": 0, "checks": [{"name": "nope"}]}))
    code, _o, err = run_cli("verify", "--plan", str(p))
    assert code == 2


@pytest.mark.parametrize("params", [{"max_n": "x"}, [1]])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_malformed_plan_exit_2(tmp_path, params, workers):
    p = tmp_path / "plan.json"
    p.write_text(json.dumps({"checks": [{"name": "tp_cert", "params": params}]}))
    code, out, err = run_cli("verify", "--plan", str(p), "--workers", workers)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot parse plan")


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_verify_workers_below_one_exit_2(workers):
    code, _o, err = run_cli("verify", "--workers", workers)
    assert code == 2 and "--workers" in err


def test_verify_timing(tmp_path):
    plan = {"seed": 1, "checks": [{"name": "reference_constants", "params": {}}]}
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan))
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert run_cli("verify", "--plan", str(p), "--out", str(plain))[0] == 0
    assert run_cli("verify", "--plan", str(p), "--timing", "--out", str(timed))[0] == 0
    assert "seconds" not in plain.read_text()
    doc = json.loads(timed.read_text())
    assert doc["results"][0]["seconds"] > 0
    del doc["results"][0]["seconds"]
    assert doc == json.loads(plain.read_text())


# class -> (sizes, k) small enough for a quick run
BENCH_SIZES = {
    "cograph": ("100,1000", "3"),
    "trivially-perfect": ("100,1000", "3"),
    "interval": ("8,12", "2"),
    "permutation": ("8,12", "2"),
    "oracle": ("4,6", "2"),
}


def test_bench_smoke():
    """bench runs every class that has a sample."""
    from rainbowdom.registry import REGISTRY

    assert [c for c, e in REGISTRY.items() if e.sample] == list(BENCH_SIZES)
    for cls, (sizes, k) in BENCH_SIZES.items():
        code, out, err = run_cli("bench", "--class", cls, "--sizes", sizes, "--k", k)
        assert code == 0, (cls, err)
        lines = out.strip().splitlines()
        assert len(lines) == 3, cls  # header + two rows


@pytest.mark.parametrize("argv", [
    ("cograph", "--sizes", "10,x"), ("cograph", "--sizes", "0"), ("cograph", "--sizes", "-3"),
    ("cograph", "--sizes", "10", "--k", "0"),
    ("permutation", "--sizes", "10", "--k", "3"), ("interval", "--sizes", "10", "--k", "3"),
])
def test_bench_bad_arguments_exit_2(argv):
    code, out, err = run_cli("bench", "--class", *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if argv[0] != "cograph":  # the sweeps refuse k = 3 as solve does
        assert err.strip() == f"error: class {argv[0]} supports only k=2 for this problem"


def test_registry_imports_neither_cli_nor_harness():
    import os

    import rainbowdom

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowdom.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, rainbowdom.registry; "
        "print(sorted(m for m in ('rainbowdom.cli', 'rainbowdom.harness') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_weakL_tree_model_with_assignment(tmp_path):
    (tmp_path / "star.tree").write_text("0 -1\n1 0\n2 0\n3 0\n")
    (tmp_path / "L.assign").write_text("0 0 2\n1 0 2\n2 0 2\n3 0 2\n")
    code, out, _ = run_cli(
        "solve", "--problem", "weakL", "--k", "2",
        "--class", "trivially-perfect",
        "--model", str(tmp_path / "star.tree"),
        "--assignment", str(tmp_path / "L.assign"),
    )
    assert code == 0 and out.strip() == "2"
    # oracle on the derived graph agrees
    (tmp_path / "star.graph").write_text("4 3\n0 1\n0 2\n0 3\n")
    code, out, _ = run_cli(
        "solve", "--problem", "weakL", "--k", "2", "--class", "oracle",
        "--graph", str(tmp_path / "star.graph"),
        "--assignment", str(tmp_path / "L.assign"),
    )
    assert code == 0 and out.strip() == "2"


def test_weakL_auto_detects_complete_bipartite(tmp_path):
    (tmp_path / "k23.graph").write_text("5 6\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n")
    (tmp_path / "L.assign").write_text("0 0 2\n1 0 1\n2 0 1\n3 0 1\n4 0 0\n")
    code, out, err = run_cli(
        "solve", "--problem", "weakL", "--k", "2", "--class", "auto",
        "--graph", str(tmp_path / "k23.graph"),
        "--assignment", str(tmp_path / "L.assign"),
    )
    assert code == 0 and out.strip() == "2"
    assert "complete-bipartite" in err


def test_oracle_cap_env_override(tmp_path, monkeypatch):
    (tmp_path / "k23.graph").write_text("5 6\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n")
    monkeypatch.setenv("RAINBOWDOM_ORACLE_CAP", "10")
    code, _o, _e = run_cli(
        "solve", "--problem", "rainbow", "--k", "3", "--class", "oracle",
        "--graph", str(tmp_path / "k23.graph"),
    )
    assert code == 3
    monkeypatch.setenv("RAINBOWDOM_ORACLE_CAP", "24")
    code, out, _e = run_cli(
        "solve", "--problem", "rainbow", "--k", "3", "--class", "oracle",
        "--graph", str(tmp_path / "k23.graph"),
    )
    assert code == 0


@pytest.mark.parametrize("cap", ["abc", "-5"])
def test_bad_oracle_cap_env_exit_2(tmp_path, monkeypatch, cap):
    (tmp_path / "p3.graph").write_text("3 2\n0 1\n1 2\n")
    monkeypatch.setenv("RAINBOWDOM_ORACLE_CAP", cap)
    code, out, err = run_cli(
        "solve", "--problem", "rainbow", "--k", "2", "--class", "oracle",
        "--graph", str(tmp_path / "p3.graph"),
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: RAINBOWDOM_ORACLE_CAP must be a positive integer, got {cap!r}"
    ]


@pytest.mark.parametrize("check, params", [
    ("cograph_cert", {"ks": []}),
    ("p4sparse_cert", {"feet": [-1]}),
    ("cograph_cert", {"max_leafs": 3}),
    ("reference_constants", {"max_n": [5]}),
    ("no_such_check", {}),
])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_out_of_range_plan_exit_2(tmp_path, check, params, workers):
    p = tmp_path / "plan.json"
    p.write_text(json.dumps({"checks": [{"name": check, "params": params}]}))
    code, out, err = run_cli("verify", "--plan", str(p), "--workers", workers)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot parse plan")


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "weak", "--k", "2", "--class", "oracle",
     "--graph", "{p3}", "--witness", "{bad}/w.json"),
    ("verify", "--plan", "{plan}", "--out", "{bad}/report.json"),
    ("generate", "cycle", "4", "--out", "{bad}/c4"),
    ("convert", "--kind", "tree", "{tree}", "--out", "{bad}/t.graph"),
])
def test_unwritable_output_exit_2(tmp_path, argv):
    (tmp_path / "p3.graph").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "t.tree").write_text("0 -1\n1 0\n")
    (tmp_path / "plan.json").write_text(json.dumps(
        {"seed": 1, "checks": [{"name": "reference_constants", "params": {}}]}
    ))
    paths = {"p3": tmp_path / "p3.graph", "tree": tmp_path / "t.tree",
             "plan": tmp_path / "plan.json", "bad": tmp_path / "missing"}
    code, out, err = run_cli(*(a.format(**paths) for a in argv))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write")


# each file lists a vertex twice; keeping the last line would solve a
# different instance
@pytest.mark.parametrize("problem, cls, model, assignment", [
    ("weak", "interval", "0 1 2\n0 5 6\n1 1 2\n", None),
    ("weak", "trivially-perfect", "0 -1\n1 0\n1 -1\n", None),
    ("weakL", "trivially-perfect", "0 -1\n1 0\n", "0 0 1\n0 0 2\n1 0 1\n"),
])
def test_repeated_vertex_line_exit_2(tmp_path, problem, cls, model, assignment):
    (tmp_path / "model").write_text(model)
    argv = ["solve", "--problem", problem, "--k", "2", "--class", cls,
            "--model", str(tmp_path / "model")]
    if assignment is not None:
        (tmp_path / "L.assign").write_text(assignment)
        argv += ["--assignment", str(tmp_path / "L.assign")]
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "exactly once" in err


@pytest.mark.parametrize("problem", ["rainbow", "weak", "kdom"])
def test_cograph_class_refuses_spider_model(tmp_path, problem):
    (tmp_path / "sp.p4tree").write_text("(U (S thin (0 1) (2 3)) 4)\n")
    code, out, err = run_cli(
        "solve", "--problem", problem, "--k", "2", "--class", "cograph",
        "--model", str(tmp_path / "sp.p4tree"),
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "spider" in err


# the (problem, class) support matrix before the classes moved into one
# table; the table must neither widen nor narrow it
COMPAT = {
    "rainbow": {"auto", "cograph", "p4sparse", "trivially-perfect", "interval", "permutation", "oracle"},
    "weak": {"auto", "cograph", "trivially-perfect", "interval", "permutation", "oracle"},
    "kdom": {"auto", "cograph", "oracle"},
    "jkdom": {"auto", "trivially-perfect", "oracle"},
    "weakL": {"auto", "trivially-perfect", "complete-bipartite", "oracle"},
}


@pytest.fixture
def star_inputs(tmp_path):
    """The star K_{1,2} (centre 0) in every input form the CLI reads."""
    files = {
        "graph": "3 2\n0 1\n0 2\n",
        "cotree": "(J 0 (U 1 2))\n",
        "tree": "0 -1\n1 0\n2 0\n",
        "intervals": "0 0 2\n1 0 0\n2 2 2\n",
        "permutation": "3 1 2\n",
        "bip": "1 2 2\n2\n2 2\n",
        "assign": "0 0 2\n1 0 2\n2 0 2\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"star.{name}"
        paths[name].write_text(text)
    return paths


def _read_witness(path, problem):
    """The function a `solve --witness` file holds."""
    from rainbowdom.semantics import RainbowFunction, WeightFunction

    doc = json.loads(path.read_text())
    assert doc["problem"] == problem
    if problem == "rainbow":
        labels = doc["labels"]
        return RainbowFunction(doc["k"], tuple(
            frozenset(labels[str(v)]) for v in range(len(labels))))
    weights = doc["weights"]
    return WeightFunction(doc["k"], tuple(weights[str(v)] for v in range(len(weights))))


def test_class_table_matches_support_matrix(star_inputs, tmp_path):
    """Every supported pair solves the star and writes a witness that
    check_witness accepts; every other pair is refused."""
    from rainbowdom.cli import CLASSES, PROBLEMS
    from rainbowdom.graph import parse_graph
    from rainbowdom.semantics import check_witness
    from rainbowdom.trivially_perfect import parse_assignment

    inputs = {
        "cograph": "cotree", "p4sparse": "cotree", "trivially-perfect": "tree",
        "interval": "intervals", "permutation": "permutation",
        "complete-bipartite": "bip",
    }
    assert set(COMPAT) == set(PROBLEMS)
    g = parse_graph(star_inputs["graph"].read_text())
    L = parse_assignment(star_inputs["assign"].read_text(), 2)
    for problem in PROBLEMS:
        for cls in CLASSES:
            argv = ["solve", "--problem", problem, "--k", "2", "--class", cls]
            if problem == "jkdom":
                argv += ["--j", "1"]
            if cls in inputs:
                argv += ["--model", str(star_inputs[inputs[cls]])]
            else:
                argv += ["--graph", str(star_inputs["graph"])]
            if problem == "weakL" and cls != "complete-bipartite":
                argv += ["--assignment", str(star_inputs["assign"])]
            code, out, err = run_cli(*argv)
            if cls not in COMPAT[problem]:
                assert code == 2 and "cannot be solved" in err, (problem, cls)
                continue
            assert code == 0 and out.strip().isdigit(), (problem, cls, err)
            wpath = tmp_path / f"{problem}-{cls}.json"
            code, _out, err = run_cli(*argv, "--witness", str(wpath))
            assert code == 0, (problem, cls, err)
            assert check_witness(
                problem, g, int(out), _read_witness(wpath, problem), 1, L
            ) is None, (problem, cls)


def test_model_inputs_build_no_graph(star_inputs, monkeypatch):
    """Every (class, problem) pair that reads a model file prints the same
    with every class's to_graph and the Graph constructor refusing to run:
    the witness is checked on the model."""
    import dataclasses

    from rainbowdom.graph import Graph
    from rainbowdom.registry import REGISTRY

    inputs = {
        "cograph": "cotree", "p4sparse": "cotree", "trivially-perfect": "tree",
        "interval": "intervals", "permutation": "permutation",
        "complete-bipartite": "bip",
    }
    runs = []
    for cls, name in inputs.items():
        for problem in REGISTRY[cls].solvers:
            argv = ["solve", "--problem", problem, "--k", "2", "--class", cls,
                    "--model", str(star_inputs[name])]
            if problem == "jkdom":
                argv += ["--j", "1"]
            if problem == "weakL" and cls != "complete-bipartite":
                argv += ["--assignment", str(star_inputs["assign"])]
            runs.append(argv)
    before = [run_cli(*argv) for argv in runs]
    assert all(code == 0 for code, _out, _err in before)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a --model solve built a graph")

    for cls, entry in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, cls, dataclasses.replace(entry, to_graph=refuse))
    monkeypatch.setattr(Graph, "__init__", refuse)
    assert [run_cli(*argv) for argv in runs] == before


def test_large_cotree_model_solves(tmp_path):
    """A 20,000-leaf cotree solves from a file.  Its graph has 1.3 * 10^8
    edges, so a witness check that built it would run out of memory."""
    from rainbowdom.cograph import random_cotree

    path = tmp_path / "big.cotree"
    path.write_text(random_cotree(20000, 1).to_text() + "\n")
    code, out, err = run_cli("solve", "--problem", "rainbow", "--k", "8",
                             "--class", "cograph", "--model", str(path))
    assert code == 0 and out.strip().isdigit(), err
