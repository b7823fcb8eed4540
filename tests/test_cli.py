import inspect
import json
import re

import pytest

from outbranching import (OutTree, analysis, cli, leaf_pipeline, parse_instance,
                          treedp, validate_out_tree)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


STAR = "4 3\n0 1\n0 2\n0 3\nroot 0\n"
PATH4 = "4 3\n0 1\n1 2\n2 3\n"
PATH8 = "8 7\n" + "".join(f"{i} {i + 1}\n" for i in range(7))


def test_generate_two_by_two(capsys):
    code, out, _ = run(capsys, "generate", "--family", "grid",
                       "--rows", "2", "--cols", "2", "--p2", "1.0")
    assert code == 0
    assert out.splitlines()[0] == "4 8"
    again_code, again, _ = run(capsys, "generate", "--family", "grid",
                               "--rows", "2", "--cols", "2", "--p2", "1.0")
    assert again == out


def test_generate_with_root_line(capsys, tmp_path):
    target = tmp_path / "grid.txt"
    code, _, _ = run(capsys, "generate", "--family", "grid", "--rows", "3",
                     "--cols", "3", "--seed", "7", "--p2", "0.5",
                     "--root", "0", "--output", str(target))
    assert code == 0
    assert target.read_text().strip().endswith("root 0")


def test_solve_lob_star(capsys, tmp_path):
    path = write_instance(tmp_path, STAR)
    code, out, _ = run(capsys, "solve-lob", "--input", path, "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is True
    assert payload["root"] == 0
    assert len(payload["witness"]["arcs"]) == 3
    code, out, _ = run(capsys, "solve-lob", "--input", path, "--k", "4",
                       "--no-witness")
    assert json.loads(out)["answer"] is False


def test_root_flag_overrides_file(capsys, tmp_path):
    path = write_instance(tmp_path, "3 2\n1 0\n1 2\nroot 0\n")
    code, out, _ = run(capsys, "solve-lob", "--input", path, "--k", "2")
    assert json.loads(out)["answer"] is False
    code, out, _ = run(capsys, "solve-lob", "--input", path, "--k", "2",
                       "--root", "1")
    assert json.loads(out)["answer"] is True


def test_solve_iob_and_kpath(capsys, tmp_path):
    path = write_instance(tmp_path, PATH4)
    code, out, _ = run(capsys, "solve-iob", "--input", path, "--k", "3",
                       "--root", "0")
    payload = json.loads(out)
    assert code == 0 and payload["answer"] is True
    assert payload["witness"]["root"] == 0
    code, out, _ = run(capsys, "solve-kpath", "--input", path, "--k", "3",
                       "--b", "2")
    payload = json.loads(out)
    assert code == 0 and payload["answer"] is True
    assert payload["path"] == [0, 1, 2, 3]
    # on an 8-vertex path the first region at k=3, b=2 covers 0..3 and
    # misses 4 vertices, so the cover runs
    path8 = write_instance(tmp_path, PATH8, name="path8.txt")
    code, out, _ = run(capsys, "solve-kpath", "--input", path8, "--k", "3",
                       "--b", "2")
    payload = json.loads(out)
    assert code == 0 and payload["answer"] is True
    assert payload["path"] == [0, 1, 2, 3]
    assert payload["stats"]["whole_graph"] is False
    # at k=2, b=1 the first ball, around 0, misses only vertex 3
    code, out, _ = run(capsys, "solve-kpath", "--input", path, "--k", "2",
                       "--b", "1")
    payload = json.loads(out)
    assert code == 0 and payload["answer"] is True
    assert payload["stats"]["whole_graph"] is True
    assert "hit_subset" not in payload["stats"]
    code, out, _ = run(capsys, "solve-kpath", "--input", path, "--k", "4",
                       "--b", "1")
    assert json.loads(out)["answer"] is False


def test_verify_agrees(capsys, tmp_path):
    path = write_instance(tmp_path, STAR)
    for problem, k in (("lob", 3), ("iob", 1), ("kpath", 1)):
        argv = ["verify", "--input", path, "--k", str(k),
                "--problem", problem]
        if problem == "kpath":
            argv += ["--b", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["match"] is True


def test_verify_kpath_without_b_exits_two(capsys, tmp_path):
    path = write_instance(tmp_path, PATH4)
    code, out, err = run(capsys, "verify", "--input", path, "--problem",
                         "kpath", "--k", "2")
    assert code == 2 and out == ""
    assert err == "error: invalid: --b is required for --problem kpath\n"


def test_verify_kpath_on_a_long_path(capsys, tmp_path):
    # the oracle's search goes 1099 arcs deep, past the recursion limit
    n = 1100
    text = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))
    path = write_instance(tmp_path, text)
    code, out, err = run(capsys, "verify", "--input", path, "--problem",
                         "kpath", "--k", "3", "--b", "1")
    assert code == 0, err
    assert json.loads(out)["match"] is True


def test_verify_mismatch_exits_four(capsys, tmp_path, monkeypatch):
    path = write_instance(tmp_path, STAR)

    class Fake:
        satisfiable = False

    monkeypatch.setattr(cli, "solve", lambda *a, **kw: Fake())
    code, out, err = run(capsys, "verify", "--input", path, "--k", "3",
                         "--problem", "lob")
    assert code == 4
    assert json.loads(out)["match"] is False
    assert err.startswith("error: verify mismatch")


@pytest.mark.parametrize("argv, text", [
    (("solve-lob", "--k", "3"), STAR),
    (("solve-iob", "--k", "1"), STAR),
    (("solve-kpath", "--k", "3", "--b", "1"), PATH4),
])
def test_dp_invariant_exit_five(capsys, tmp_path, monkeypatch, argv, text):
    # a witness that lost an arc must stop the run, not come out as an answer
    collect = treedp._collect_arcs
    monkeypatch.setattr(treedp, "_collect_arcs",
                        lambda arcs, mask: collect(arcs, mask)[1:])
    path = write_instance(tmp_path, text)
    code, out, err = run(capsys, argv[0], "--input", path, *argv[1:])
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal:") and err.count("\n") == 1


K4 = "4 12\n" + "".join(f"{u} {v}\n" for u in range(4) for v in range(4) if u != v)


def test_witness_fault_exit_five(capsys, tmp_path, monkeypatch):
    # a witness the solver itself built that fails validation is an
    # internal fault, not bad input
    expand = leaf_pipeline.expand_through_steps

    def dropping(tree, steps):
        tree = expand(tree, steps)
        return OutTree(tree.root, {c: p for c, p in tree.parents.items()
                                   if c != max(tree.leaves())})

    monkeypatch.setattr(leaf_pipeline, "expand_through_steps", dropping)
    path = write_instance(tmp_path, K4)
    code, out, err = run(capsys, "solve-lob", "--input", path, "--k", "2",
                         "--root", "0")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal:") and "does not span" in err


def test_parse_error_exit_two(capsys, tmp_path):
    path = write_instance(tmp_path, "not a header\n")
    code, _, err = run(capsys, "solve-lob", "--input", path, "--k", "1")
    assert code == 2
    assert err.startswith("error: parse:")


@pytest.mark.parametrize("argv", [
    ("solve-lob",),
    ("verify", "--problem", "lob"),
    ("analyze",),
    ("solve-iob",),
])
def test_unknown_root_exit_two(capsys, tmp_path, argv):
    path = write_instance(tmp_path, "3 2\n0 1\n1 2\n")
    code, out, err = run(capsys, argv[0], "--input", path, "--k", "2",
                         "--root", "7", *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "error: invalid: root 7 not in digraph\n"


@pytest.mark.parametrize("command, flag, value", [
    ("solve-kpath", "--root", "7"),
    ("generate", "--format", "csv"),
])
def test_flags_a_subcommand_would_ignore_exit_two(capsys, tmp_path, command,
                                                  flag, value):
    # solve-kpath has no root and generate writes only the instance format
    argv = {"solve-kpath": ("--input", write_instance(tmp_path, PATH4),
                            "--k", "2", "--b", "1"),
            "generate": ("--family", "grid", "--rows", "2", "--cols", "2")}
    assert run(capsys, command, *argv[command])[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *argv[command], flag, value])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {value}" in err


@pytest.mark.parametrize("problem, flag, value", [
    ("kpath", "--root", "2"),
    ("lob", "--b", "2"),
    ("iob", "--b", "2"),
    ("lob", "--budget", "5"),
])
def test_verify_rejects_a_flag_the_solver_would_ignore(capsys, tmp_path, problem,
                                                       flag, value):
    path = write_instance(tmp_path, PATH4)
    argv = ["verify", "--input", path, "--problem", problem, "--k", "2"]
    if problem == "kpath":
        argv += ["--b", "1"]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: invalid: {flag} does not apply to --problem {problem}\n"


def test_verify_kpath_keeps_a_root_line_of_the_file(capsys, tmp_path):
    path = write_instance(tmp_path, PATH4 + "root 2\n")
    code, out, err = run(capsys, "verify", "--input", path, "--problem",
                         "kpath", "--k", "3", "--b", "1")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["root"] == 2 and payload["match"] is True


def recorded_solves(monkeypatch):
    """Swap analysis.solve, under both names that bind it, for a recorder
    that runs the real dispatch and keeps each call's arguments."""
    calls = []
    real = analysis.solve

    def recorder(problem, digraph, k, root=None, b=None, budget=None,
                 witness=True):
        calls.append((problem, root, b, budget, witness))
        return real(problem, digraph, k, root=root, b=b, budget=budget,
                    witness=witness)

    monkeypatch.setattr(cli, "solve", recorder)
    monkeypatch.setattr(analysis, "solve", recorder)
    return calls


@pytest.mark.parametrize("argv, expected", [
    (("solve-lob", "--k", "2"), ("lob", 0, None, None, True)),
    (("solve-lob", "--k", "2", "--root", "1", "--no-witness"),
     ("lob", 1, None, None, False)),
    (("solve-iob", "--k", "2", "--budget", "9"), ("iob", 0, None, 9, True)),
    (("solve-iob", "--k", "2", "--no-witness"), ("iob", 0, None, None, False)),
    (("solve-kpath", "--k", "2", "--b", "1"), ("kpath", 0, 1, None, True)),
    (("solve-kpath", "--k", "2", "--b", "2", "--budget", "9"),
     ("kpath", 0, 2, 9, True)),
    (("verify", "--problem", "lob", "--k", "2"), ("lob", 0, None, None, False)),
    (("verify", "--problem", "iob", "--k", "2", "--root", "1", "--budget", "9"),
     ("iob", 1, None, 9, False)),
    (("verify", "--problem", "kpath", "--k", "2", "--b", "1"),
     ("kpath", 0, 1, None, False)),
])
def test_every_command_solves_through_one_dispatch(capsys, tmp_path, monkeypatch,
                                                   argv, expected):
    calls = recorded_solves(monkeypatch)
    path = write_instance(tmp_path, PATH4 + "root 0\n")
    code, _, err = run(capsys, argv[0], "--input", path, *argv[1:])
    assert code == 0, err
    assert calls == [expected]


def test_bench_solves_through_one_dispatch(capsys, tmp_path, monkeypatch):
    calls = recorded_solves(monkeypatch)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"spec": GRID, "problem": "lob", "k": 1, "root": 0},
        {"spec": GRID, "problem": "iob", "k": 1},
        {"spec": GRID, "problem": "kpath", "k": 2, "b": 2},
    ]))
    code, _, err = run(capsys, "bench", "--suite", str(suite), "--budget", "99")
    assert code == 0, err
    assert calls == [("lob", 0, None, 99, False), ("iob", None, None, 99, False),
                     ("kpath", None, 2, 99, False)]


def test_verify_without_budget_uses_the_solver_defaults(capsys, tmp_path,
                                                        monkeypatch):
    # verify used to pass budget=None, which switches the budget off
    solvers = (analysis.solve_iob, analysis.solve_kpath_ballcover)
    budgets = []
    for real in solvers:
        def recorder(*args, real=real, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            budgets.append(bound.arguments["budget"])
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, real.__name__, recorder)
    path = write_instance(tmp_path, PATH4)
    for extra in (("--problem", "iob"), ("--problem", "kpath", "--b", "1")):
        code, _, err = run(capsys, "verify", "--input", path, "--k", "2", *extra)
        assert code == 0, err
    defaults = [inspect.signature(f).parameters["budget"].default for f in solvers]
    assert None not in defaults
    assert budgets == defaults


@pytest.mark.parametrize("argv", [
    ("solve-lob", "--k", "1", "--input", "{dir}"),
    ("generate", "--family", "grid", "--rows", "2", "--cols", "2",
     "--output", "{dir}"),
    ("bench", "--suite", "{dir}"),
])
def test_a_directory_for_a_file_exits_two(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: io:") and err.count("\n") == 1


def test_missing_file_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "solve-lob", "--input",
                       str(tmp_path / "nope.txt"), "--k", "1")
    assert code == 2
    assert err.startswith("error: io:")


def test_invalid_b_exit_two(capsys, tmp_path):
    path = write_instance(tmp_path, PATH4)
    code, _, err = run(capsys, "solve-kpath", "--input", path, "--k", "2",
                       "--b", "9")
    assert code == 2
    assert err.startswith("error: invalid:")


def test_budget_exit_three(capsys, tmp_path):
    path = write_instance(tmp_path, PATH4)
    code, _, err = run(capsys, "solve-kpath", "--input", path, "--k", "1",
                       "--b", "2", "--budget", "1")
    assert code == 3
    assert err.startswith("error: budget:")


def test_dp_state_budget_exit_three(capsys, tmp_path, monkeypatch):
    n = 10
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    text = f"{n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
    path = write_instance(tmp_path, text)
    monkeypatch.setattr(treedp, "DP_STATE_BUDGET", 10_000)
    code, out, err = run(capsys, "solve-iob", "--input", path, "--k", "4", "--root", "0")
    assert code == 3 and out == ""
    assert err.startswith("error: budget:") and "dp states" in err
    assert err.count("\n") == 1


def test_analyze_json_and_csv(capsys, tmp_path):
    path = write_instance(tmp_path, STAR)
    code, out, _ = run(capsys, "analyze", "--input", path, "--k", "1")
    payload = json.loads(out)
    assert code == 0 and payload["outcome"] == "reduced"
    code, out, _ = run(capsys, "analyze", "--input", path, "--k", "1",
                       "--format", "csv")
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("root,k,outcome")


def test_analyze_without_a_root_takes_the_lowest_vertex(capsys, tmp_path):
    # vertex 0 reaches nothing, so its report differs from every other root's
    path = write_instance(tmp_path, "4 3\n1 0\n1 2\n1 3\n")
    code, out, err = run(capsys, "analyze", "--input", path, "--k", "1")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["root"] == 0 and payload["outcome"] == "disconnected"
    assert run(capsys, "analyze", "--input", path, "--k", "1", "--root", "0")[1] == out


def test_bench_default_and_suite(capsys, tmp_path):
    code, out, _ = run(capsys, "bench")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0].startswith("instance,family")
    assert len(lines) == 7

    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"spec": {"family": "grid", "rows": 2, "cols": 2,
                  "seed": 0, "p2": 1.0},
         "problem": "lob", "k": 1, "root": 0},
    ]))
    code, out, _ = run(capsys, "bench", "--suite", str(suite))
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_bench_json_goes_to_output_file(capsys, tmp_path):
    target = tmp_path / "rows.json"
    code, out, _ = run(capsys, "bench", "--format", "json",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    rows = json.loads(target.read_text())
    assert isinstance(rows, list) and len(rows) == 6


@pytest.mark.parametrize("entries, message", [
    ([{"spec": {"family": "grid", "rows": 2, "cols": 2}, "problem": "lob",
       "root": 0}], "suite entry 0: missing 'k'"),
    ([{"problem": "lob", "k": 1, "root": 0}], "suite entry 0: missing 'spec'"),
    ([{"spec": {"family": "grid", "rows": 2, "cols": 2}, "problem": "lob",
       "k": 1, "root": 0},
      {"spec": {"family": "grid", "rows": 2, "cols": 2}, "problem": "kpath",
       "k": 1}], "suite entry 1: missing 'b'"),
    ([5], "suite entry 0: not an object"),
])
def test_bench_suite_missing_key_exit_two(capsys, tmp_path, entries, message):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(entries))
    code, out, err = run(capsys, "bench", "--suite", str(suite))
    assert code == 2
    assert out == ""
    assert err == f"error: invalid: {message}\n"


@pytest.mark.parametrize("suite, kind", [(5, "int"), (None, "NoneType"),
                                         ({"a": 1}, "dict")])
def test_bench_suite_not_a_list_exit_two(capsys, tmp_path, suite, kind):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    code, out, err = run(capsys, "bench", "--suite", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: invalid: suite must be a list of entries, got {kind}\n"


GRID = {"family": "grid", "rows": 2, "cols": 2}


@pytest.mark.parametrize("entry, message", [
    ({"spec": {"family": "grid", "rows": 2, "colz": 2}, "problem": "lob",
      "k": 1, "root": 0}, r"bad 'spec': .*'colz'"),
    ({"spec": GRID, "problem": "lob", "k": "x", "root": 0},
     r"'k' must be an integer, got 'x'"),
    ({"spec": GRID, "problem": "kpath", "k": 2, "b": 1.5},
     r"'b' must be an integer, got 1\.5"),
    ({"spec": GRID, "problem": "lob", "k": True, "root": 0},
     r"'k' must be an integer, got True"),
    ({"spec": GRID, "problem": "tsp", "k": 1}, r"unknown problem 'tsp'"),
    ({"spec": [2, 2], "problem": "lob", "k": 1}, r"'spec' is not an object"),
    ({"spec": dict(GRID, rows=0), "problem": "lob", "k": 1},
     r"grid needs rows >= 1 and cols >= 1, got 0x2"),
    ({"spec": GRID, "problem": "lob", "k": 1, "root": True},
     r"'root' must be an integer, got True"),
    ({"spec": GRID, "problem": "iob", "k": 1, "root": "0"},
     r"'root' must be an integer, got '0'"),
    ({"spec": GRID, "problem": "iob", "k": 1, "root": 99},
     r"root 99 not in the generated digraph's vertices 0\.\.3"),
    ({"spec": GRID, "problem": "lob", "k": 0, "root": 0}, r"'k' must be >= 1, got 0"),
    ({"spec": GRID, "problem": "kpath", "k": -1, "b": 1}, r"'k' must be >= 1, got -1"),
    ({"spec": GRID, "problem": "kpath", "k": 2, "b": 0}, r"'b' must be in 1\.\.4, got 0"),
    ({"spec": GRID, "problem": "kpath", "k": 2, "b": 5}, r"'b' must be in 1\.\.4, got 5"),
    ({"spec": GRID, "problem": "kpath", "k": 2, "b": 1, "root": 3},
     r"'root' does not apply to problem 'kpath'"),
    ({"spec": GRID, "problem": "lob", "k": 1, "b": 99},
     r"'b' does not apply to problem 'lob'"),
    ({"spec": GRID, "problem": "iob", "k": 1, "root": 0, "b": 1},
     r"'b' does not apply to problem 'iob'"),
    ({"spec": dict(GRID, rows=2.5), "problem": "lob", "k": 1},
     r"'rows' must be an integer, got 2\.5"),
    ({"spec": {"family": "random-sparse", "n": 4, "m": 2.0}, "problem": "lob",
      "k": 1}, r"'m' must be an integer, got 2\.0"),
    ({"spec": dict(GRID, seed=[1]), "problem": "lob", "k": 1},
     r"'seed' must be an integer, got \[1\]"),
    ({"spec": dict(GRID, rows=True), "problem": "lob", "k": 1},
     r"'rows' must be an integer, got True"),
    ({"spec": dict(GRID, p2="1"), "problem": "lob", "k": 1},
     r"'p2' must be a number, got '1'"),
])
def test_bench_suite_bad_entry_exit_two(capsys, tmp_path, monkeypatch, entry, message):
    def no_generate(spec):
        raise AssertionError("an entry ran before the suite was checked")

    monkeypatch.setattr("outbranching.analysis.generate", no_generate)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"spec": GRID, "problem": "iob", "k": 1}, entry]))
    code, out, err = run(capsys, "bench", "--suite", str(suite))
    assert code == 2
    assert out == ""
    assert re.fullmatch(f"error: invalid: suite entry 1: {message}\n", err), err


def test_solve_lob_on_a_long_grid(capsys, tmp_path):
    # a 2 x 500 grid has width 2 but a decomposition tree hundreds of
    # nodes deep, which must not hit the interpreter's recursion limit
    target = tmp_path / "grid.txt"
    code, _, _ = run(capsys, "generate", "--family", "grid", "--rows", "2",
                     "--cols", "500", "--p2", "1.0", "--output", str(target))
    assert code == 0
    code, out, err = run(capsys, "solve-lob", "--input", str(target),
                         "--k", "100", "--root", "0")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["answer"] is True
    digraph, _ = parse_instance(target.read_text())
    witness = payload["witness"]
    tree = OutTree(witness["root"], {h: t for t, h in witness["arcs"]})
    validate_out_tree(digraph, tree, spanning=True)
    assert witness["root"] == 0 and len(tree.leaves()) >= 100


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(STAR))
    code, out, _ = run(capsys, "solve-lob", "--input", "-", "--k", "2")
    assert code == 0
    assert json.loads(out)["answer"] is True
