import json

import pytest

from outbranching import cli, treedp


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


def test_verify_mismatch_exits_four(capsys, tmp_path, monkeypatch):
    path = write_instance(tmp_path, STAR)

    class Fake:
        satisfiable = False

    monkeypatch.setattr(cli, "solve_lob", lambda *a, **kw: Fake())
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
                        lambda step, state: collect(step, state)[1:])
    path = write_instance(tmp_path, text)
    code, out, err = run(capsys, argv[0], "--input", path, *argv[1:])
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal:") and err.count("\n") == 1


def test_parse_error_exit_two(capsys, tmp_path):
    path = write_instance(tmp_path, "not a header\n")
    code, _, err = run(capsys, "solve-lob", "--input", path, "--k", "1")
    assert code == 2
    assert err.startswith("error: parse:")


@pytest.mark.parametrize("argv", [
    ("solve-lob",),
    ("verify", "--problem", "lob"),
])
def test_unknown_root_exit_two(capsys, tmp_path, argv):
    path = write_instance(tmp_path, "3 2\n0 1\n1 2\n")
    code, out, err = run(capsys, argv[0], "--input", path, "--k", "2",
                         "--root", "7", *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "error: invalid: root 7 not in digraph\n"


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


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(STAR))
    code, out, _ = run(capsys, "solve-lob", "--input", "-", "--k", "2")
    assert code == 0
    assert json.loads(out)["answer"] is True
