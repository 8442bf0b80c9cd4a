import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rainbowdom.cli import main
from rainbowdom.graph import parse_graph
from rainbowdom.semantics import KAssignment, WeightFunction, is_weak_kL


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



@pytest.mark.parametrize("header", ["3000000 0", "99999999999 0"])
def test_hostile_vertex_count_exit_2(tmp_path, header):
    # the header's n sizes the neighbour lists, so it is refused before
    # anything is allocated; 3000000 used to end in a MemoryError traceback
    # and 99999999999 in a hang
    import os

    import rainbowdom

    bad = tmp_path / "big.graph"
    bad.write_text(header)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowdom.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowdom.cli", "solve", "--problem", "weak",
         "--k", "2", "--class", "auto", "--graph", str(bad)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    n = header.split()[0]
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"error: cannot parse graph: vertex count {n} exceeds the limit of 1000000\n"
    )


@pytest.mark.parametrize("header", ["2 1", "2 1 2 9", "2 x 2"])
def test_bipartite_header_wording(tmp_path, header):
    # a header without three integers is worded as such, not by Python's
    # tuple unpacking
    (tmp_path / "inst").write_text(f"{header}\n5\n1 2\n")
    code, out, err = run_cli(
        "solve", "--problem", "weakL", "--k", "2", "--class", "complete-bipartite",
        "--model", str(tmp_path / "inst"),
    )
    assert code == 2 and out == ""
    assert err == (
        "error: cannot parse model for class complete-bipartite: "
        f"malformed header line: {header!r}\n"
    )


# tokens of hostile model files: integers in other spellings, a number no
# vertex count reaches, and every kind of whitespace and line break
_TOKENS = [*"0123456789", "x", "-1", "+1", "01", "12345678901234567890",
           " ", "\t", "\n", "\r", "\v"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join),
       st.sampled_from([("permutation", "rainbow"), ("permutation", "weak"),
                        ("complete-bipartite", "weakL")]))
def test_model_files_fuzzed(tmp_path_factory, text, case):
    # every text is solved or refused with one line, never a traceback
    cls, problem = case
    path = tmp_path_factory.getbasetemp() / "fuzzed.model"
    path.write_text(text, newline="")
    code, out, err = run_cli(
        "solve", "--problem", problem, "--k", "2", "--class", cls, "--model", str(path),
    )
    assert code in (0, 2), (text, err)
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, (text, err)


def test_oracle_cap_exit_3(tmp_path):
    run_cli("generate", "random", "30", "0.5", "--out", str(tmp_path / "big"))
    code, _o, err = run_cli(
        "solve", "--problem", "rainbow", "--k", "3",
        "--class", "oracle", "--graph", str(tmp_path / "big.graph"),
    )
    assert code == 3


@pytest.mark.parametrize("problem", ["weak", "kdom", "jkdom", "weakL"])
def test_oracle_cap_exit_3_for_weight_problems(tmp_path, problem):
    """--class oracle checks the vertex cap for every problem, not only
    for rainbow, whose search checks n*k itself."""
    run_cli("generate", "random", "30", "0.5", "--out", str(tmp_path / "big"))
    (tmp_path / "big.assign").write_text("".join(f"{v} 0 2\n" for v in range(30)))
    extra = {"jkdom": ["--j", "1"],
             "weakL": ["--assignment", str(tmp_path / "big.assign")]}
    code, out, err = run_cli(
        "solve", "--problem", problem, "--k", "2", "--class", "oracle",
        "--graph", str(tmp_path / "big.graph"), *extra.get(problem, []),
    )
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "error: the instance exceeds the oracle cap (30 > 24); raise "
        "RAINBOWDOM_ORACLE_CAP or supply --class with a model"
    ]


def test_oracle_under_cap_solves_weak(tmp_path):
    run_cli("generate", "random", "12", "0.3", "--out", str(tmp_path / "small"))
    code, out, _e = run_cli(
        "solve", "--problem", "weak", "--k", "2", "--class", "oracle",
        "--graph", str(tmp_path / "small.graph"),
    )
    assert code == 0 and int(out) >= 1


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
    for family, params, value in (("thin_spider", ("3", "1"), "4"),
                                  ("thin_spider", ("3", "2"), "4"),
                                  ("thick_spider", ("4", "2"), "3")):
        code, _o, _e = run_cli("generate", family, *params, "--out", str(tmp_path / "sp"))
        assert code == 0
        code, out, _ = run_cli(
            "convert", "--kind", "p4tree", str(tmp_path / "sp.p4tree")
        )
        assert code == 0
        assert out == (tmp_path / "sp.graph").read_text()
        code, out, _ = run_cli(
            "solve", "--problem", "rainbow", "--k", "2", "--class", "p4sparse",
            "--model", str(tmp_path / "sp.p4tree"),
        )
        assert code == 0 and out.strip() == value


@pytest.mark.parametrize("params", [
    ("path", "2.5"),
    ("complete_bipartite", "2.9", "3"),
    ("random", "5", "1.7"),
    ("cycle", "3", "4", "5"),
])
def test_generate_bad_parameters_exit_2(tmp_path, params):
    code, _o, err = run_cli("generate", *params, "--out", str(tmp_path / "g"))
    assert code == 2
    assert err.startswith("error: bad generator parameters") and err.count("\n") == 1
    assert not (tmp_path / "g.graph").exists()


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


def test_cli_import_leaves_the_harness_unloaded():
    # solve never runs the certification harness, so importing the command
    # line must not compile it; verify imports it when it runs
    import os

    import rainbowdom

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowdom.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, rainbowdom.cli; print('rainbowdom.harness' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("cls, name, text", [
    ("cograph", "p3.cotree", "(J (U 0 1) 2)\n"),
    ("trivially-perfect", "p3.tree", "0 2\n1 2\n2 -1\n"),
])
def test_rainbow_at_huge_k_on_a_small_model(tmp_path, cls, name, text):
    # nothing may grow with k: labels are checked by their extreme colours
    # and the all-colour label is built only where it is placed.  The
    # address-space limit makes a regression fail fast instead of
    # filling the host's memory.
    import os
    import resource

    import rainbowdom

    (tmp_path / name).write_text(text)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowdom.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "rainbowdom.cli", "solve", "--problem", "rainbow",
         "--k", str(10**8), "--class", cls, "--model", str(tmp_path / name)],
        capture_output=True, text=True, env=env, preexec_fn=limit_memory,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "3"


def test_complete_bipartite_at_huge_k(tmp_path):
    # the scan visits O(n1 + n2) side totals, not all k of them: a scan up
    # to n1 + k would take hours here and hit the timeout
    import os

    import rainbowdom

    (tmp_path / "k1e9.bip").write_text("1 1 1000000000\n5\n7\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowdom.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowdom.cli", "solve", "--class", "complete-bipartite",
         "--problem", "weakL", "--k", str(10**9), "--model", str(tmp_path / "k1e9.bip")],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n"


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


def test_weakL_auto_complete_bipartite_any_labelling(tmp_path):
    # K_{13,13} with sides {even} and {odd}: 26 vertices exceed the oracle
    # cap, so only the complete bipartite solver answers
    edges = [(u, v) for u in range(0, 26, 2) for v in range(1, 26, 2)]
    text = f"26 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    (tmp_path / "k13.graph").write_text(text)
    (tmp_path / "L.assign").write_text("".join(f"{v} 0 2\n" for v in range(26)))
    code, out, err = run_cli(
        "solve", "--problem", "weakL", "--k", "2", "--class", "auto",
        "--graph", str(tmp_path / "k13.graph"),
        "--assignment", str(tmp_path / "L.assign"),
        "--witness", str(tmp_path / "w.json"),
    )
    assert code == 0 and out.strip() == "4"
    assert "auto: solving as complete-bipartite" in err
    doc = json.loads((tmp_path / "w.json").read_text())
    w = WeightFunction(2, tuple(doc["weights"][str(v)] for v in range(26)))
    assert sum(w.weights) == 4
    assert is_weak_kL(parse_graph(text), w, KAssignment.uniform(2, 26)) == (True, None)


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
    ("perf_gates", {"tp_budget": -0.5}),
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
