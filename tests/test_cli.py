import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest

import dimerlab as dl
from dimerlab.cli import main, parse_triangulation_spec
from dimerlab.quiver import QuiverWithFaces
from dimerlab.rewrite import DEFAULT_MAX_VISITED

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_spec_grammar():
    assert parse_triangulation_spec(5, "1-3,1-4").diagonals == {(1, 3), (1, 4)}
    assert parse_triangulation_spec(3, "").diagonals == frozenset()


def test_build_fan_at_an_apex():
    code, out = run_cli(["build", "--n", "5", "--m", "2", "--fan", "2"])
    assert code == 0
    assert json.loads(out)["triangulation"]["diagonals"] == [[2, 4], [2, 5]]


def test_a_fan_apex_that_is_not_an_int_is_a_usage_error(capsys):
    code, out = run_cli(["build", "--n", "5", "--m", "2", "--fan", "x"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        "error: dimerlab build: argument --fan: invalid int value: 'x'\n"
    )


def test_build_dot_triangle():
    code, out = run_cli(["build", "--n", "3", "--m", "2", "--fan", "--format", "dot"])
    assert code == 0
    assert out.count("pos=") == 6  # rim vertices
    assert out.count("->") == 9  # edges


def test_build_json_round_trip():
    code, out = run_cli(["build", "--n", "5", "--m", "2", "--fan"])
    assert code == 0
    data = json.loads(out)
    Q = QuiverWithFaces.from_json(data["quiver"])
    T = dl.Triangulation.from_json(data["triangulation"])
    assert Q == dl.dual_quiver(dl.reduce_dimer(dl.build_dimer(T, 2)))


def test_build_fan_equals_explicit_diagonals():
    _, out1 = run_cli(["build", "--n", "5", "--m", "2", "--fan"])
    _, out2 = run_cli(["build", "--n", "5", "--m", "2", "--diagonals", "1-3,1-4"])
    assert out1 == out2


def test_build_deterministic():
    _, out1 = run_cli(["build", "--n", "6", "--m", "3", "--fan", "--what", "both"])
    _, out2 = run_cli(["build", "--n", "6", "--m", "3", "--fan", "--what", "both"])
    assert out1 == out2


def test_verify_fan_pentagon_exit_zero():
    code, out = run_cli(["verify", "--n", "5", "--m", "2", "--fan"])
    assert code == 0
    assert json.loads(out)["outcome"]["passed"] is True


def test_verify_starved_budget_exit_two():
    code, out = run_cli(
        ["verify", "--n", "5", "--m", "2", "--fan", "--budget-visited", "1"]
    )
    assert code == 2
    assert json.loads(out)["outcome"]["inconclusive"]


def test_verify_starved_extraction_has_no_presentation():
    # a closure of the extraction runs out: no presentation, and the one
    # inconclusive entry names the budget
    code, out = run_cli(["verify", "--n", "6", "--m", "3", "--fan", "--budget-visited", "2"])
    assert code == 2
    outcome = json.loads(out)["outcome"]
    assert outcome["presentation"] is None and outcome["passed"] is False
    (entry,) = outcome["inconclusive"]
    assert entry.startswith("presentation: cannot decide within budget (max_visited=2) ")


def test_budget_dimension_not_given_keeps_per_query_default():
    argv = ["verify", "--n", "5", "--m", "2", "--fan"]
    code, out = run_cli(argv + ["--budget-visited", "1000000"])
    _, default = run_cli(argv)
    assert code == 0
    data = json.loads(out)
    assert data["budget"] == {"max_visited": 1000000, "max_path_length": "per-query"}
    assert data["outcome"] == json.loads(default)["outcome"]


def test_verify_edge_as_diagonal_exit_one(capsys):
    code, _ = run_cli(["verify", "--n", "5", "--m", "2", "--diagonals", "1-2"])
    assert code == 1


def test_verify_malformed_spec_exit_one():
    code, _ = run_cli(["verify", "--n", "5", "--m", "2", "--diagonals", "nonsense"])
    assert code == 1


def test_sweep_m2_up_to_six():
    code, out = run_cli(["sweep", "--max-n", "6", "--m", "2"])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["rows"]) == 1 + 2 + 5 + 14
    assert rep["all_matched"] is True


def test_sweep_empty_grid(capsys):
    # a grid with no polygon is refused, not passed with no rows
    code, out = run_cli(["sweep", "--max-n", "2", "--m", "2"])
    assert code == 1 and out == ""
    assert "--max-n must be at least 3, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_worker(capsys, workers):
    code, out = run_cli(["sweep", "--max-n", "4", "--m", "2", "--workers", workers])
    assert code == 1 and out == ""
    assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err


def test_sweep_deterministic_and_parallel_agrees():
    # 12 rotation orbits, so the pool runs several tasks of several rows
    argv = ["sweep", "--max-n", "6", "--m", "2", "3"]
    _, serial = run_cli(argv)
    _, serial2 = run_cli(argv)
    assert serial == serial2
    _, parallel = run_cli(argv + ["--workers", "2"])
    assert parallel == serial


def test_sweep_never_starts_more_workers_than_tasks(monkeypatch):
    # a process pool starts all of its workers at once, so --workers is
    # capped at the number of tasks, one per rotation orbit (at --max-n 4,
    # the triangle's and the square's), and one task runs without a pool;
    # the pool here records its size and maps in-process, so nothing forks
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for max_n, pools in (("3", []), ("4", [2])):
        _, serial = run_cli(["sweep", "--max-n", max_n, "--m", "2"])
        sizes.clear()
        code, pooled = run_cli(["sweep", "--max-n", max_n, "--m", "2", "--workers", "100000"])
        assert code == 0 and pooled == serial and sizes == pools


def test_sweep_starved_budget_exit_two():
    code, out = run_cli(["sweep", "--max-n", "4", "--m", "3", "--budget-visited", "2"])
    assert code == 2
    rows = json.loads(out)["rows"]
    assert len(rows) == 1 + 2 and all(row["inconclusive"] for row in rows)


def test_sweep_timings_only_add_runtimes():
    # --timings adds runtime_ms to each row and changes nothing else
    _, canonical = run_cli(["sweep", "--max-n", "5", "--m", "2"])
    code, timed = run_cli(["sweep", "--max-n", "5", "--m", "2", "--timings"])
    canonical, timed = json.loads(canonical), json.loads(timed)
    assert code == 0 and len(timed["rows"]) == 1 + 2 + 5
    for row, timed_row in zip(canonical["rows"], timed["rows"]):
        runtime = timed_row.pop("runtime_ms")
        assert isinstance(runtime, float) and runtime >= 0
        assert timed_row == row
    assert timed == canonical


def test_sweep_runs_a_repeated_m_once():
    code, repeated = run_cli(["sweep", "--max-n", "4", "--m", "3", "2", "3"])
    _, once = run_cli(["sweep", "--max-n", "4", "--m", "2", "3"])
    assert code == 0 and repeated == once
    assert json.loads(once)["grid"]["m"] == [2, 3]


def test_sweep_output_matches_the_benchmark_reference():
    # the stdout bytes of the benchmark's sweep, against the digest the
    # benchmark checks (perfbench/reference.json, under the default budget)
    with open(REFERENCE) as f:
        reference = json.load(f)
    assert reference["budget_visited"] == DEFAULT_MAX_VISITED
    argv = ["sweep", "--max-n", "7", "--m", "2", "3"]
    ref = reference["sweep-n7"]
    assert ref["argv"] == argv
    code, out = run_cli(argv)
    assert code == ref["exit_code"]
    assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"]


def test_sweep_output_at_m_4_is_pinned():
    # a grid the benchmark does not cover, by the sha256 of its stdout
    code, out = run_cli(["sweep", "--max-n", "6", "--m", "4"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "9d91c5325b81a7d8c980017059c521641e418a7d0a0958975c83bc7bf8a59d4f"
    )


def test_sweep_output_at_n_8_is_pinned():
    # a larger grid of the benchmark's m, where most rows are rotations
    code, out = run_cli(["sweep", "--max-n", "8", "--m", "2", "3"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "739c959d167baf2725bb2c44f3e9ff17a54b1f252d9082bb75f2cf3208b8d627"
    )


def test_sweep_walks_and_searches_only_what_no_rotation_carries():
    # the benchmark's sweep, by counts the same on every machine: the 26
    # first members of its rotation orbits are extracted by the walk and
    # its 1,560 closures, and the 102 other rows take their classes from
    # their first member; 1,566 equality queries are left to search
    names = ("boundary_generators", "factors_through_boundary", "paths_equal")
    dl.boundary._extract.cache_clear()  # a walk kept from an earlier test is not run again
    with contextlib.ExitStack() as stack:
        spies = {
            name: stack.enter_context(
                mock.patch.object(dl.boundary, name, wraps=getattr(dl.boundary, name))
            )
            for name in names
        }
        code, _ = run_cli(["sweep", "--max-n", "7", "--m", "2", "3"])
    assert code == 0
    assert [spies[name].call_count for name in names] == [26, 1_560, 1_566]


def test_sweep_m3():
    code, out = run_cli(["sweep", "--max-n", "5", "--m", "3"])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["rows"]) == 8
    assert rep["all_matched"] is True


def test_gamma_json_and_dot():
    code, out = run_cli(["gamma", "--n", "5", "--m", "2"])
    assert code == 0
    g = json.loads(out)["gamma"]
    assert len(g["arrows"]) == 15 and g["vertices"] == 10
    code, dot = run_cli(["gamma", "--n", "5", "--m", "2", "--format", "dot"])
    assert code == 0
    assert dot.count("->") == 15


def test_gamma_dot_bytes_are_pinned():
    code, dot = run_cli(["gamma", "--n", "5", "--m", "2", "--format", "dot"])
    assert code == 0
    assert '  v1 [label="1", pos="0.0,2.5!"];' in dot.splitlines()
    assert hashlib.sha256(dot.encode()).hexdigest() == (
        "0f803ff6c565f420461821bf77212ab5278da51f99f1e8ae5b7058ef59671dd8"
    )


def test_rim_vertices_sit_at_one_position_in_both_dot_exports():
    def positions(dot, prefix):
        return {
            line.split()[0][len(prefix) :]: line.split('pos="')[1].split('"')[0]
            for line in dot.splitlines()
            if "pos=" in line
        }

    n, m = 5, 3
    _, quiver_dot = run_cli(["build", "--n", str(n), "--m", str(m), "--fan", "--format", "dot"])
    _, gamma_dot = run_cli(["gamma", "--n", str(n), "--m", str(m), "--format", "dot"])
    rim = positions(quiver_dot, "b")
    assert len(rim) == m * n
    assert rim == positions(gamma_dot, "v")


def test_flip_check():
    code, out = run_cli(["flip-check", "--n", "5", "--m", "2", "--fan", "--flip", "1-3"])
    assert code == 0
    assert json.loads(out)["certificate"]["ok"] is True


def test_flip_check_starved_budget_prints_inconclusive_certificate():
    argv = ["flip-check", "--n", "6", "--m", "3", "--fan", "--flip", "1-4"]
    code, out = run_cli(argv + ["--budget-visited", "2"])
    assert code == 2
    cert = json.loads(out)["certificate"]
    assert len(cert["inconclusive"]) == 1
    assert cert["inconclusive"][0].startswith("presentation: ")
    assert cert["unaffected_identical"] is None  # no class was compared
    assert cert["ok"] is False


def test_flip_check_bad_diagonal_exit_one():
    code, _ = run_cli(["flip-check", "--n", "5", "--m", "2", "--fan", "--flip", "1-2"])
    assert code == 1


@pytest.mark.parametrize(
    "args, err",
    [
        (["verify", "--fan", "--diagonals", ""], "give either --fan or --diagonals, not both"),
        (["verify", "--diagonals", "1-3,3-1,1-4"], "diagonal (1, 3) is given twice"),
        (["flip-check", "--fan", "--flip", "1-3-4"], "bad diagonal '1-3-4'"),
        (["flip-check", "--fan", "--flip", "x"], "bad diagonal 'x'"),
        (["flip-check", "--fan", "--flip", "1-x"], "bad diagonal '1-x'"),
        (["verify", "--fan", "9"], "apex 9 out of range for the 5-gon"),
    ],
)
def test_invalid_triangulation_or_flip_is_a_one_line_error(capsys, args, err):
    code, out = run_cli(args + ["--n", "5", "--m", "2"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "5", "--m", "2", "--fan"],
        ["sweep", "--max-n", "4", "--m", "2"],
        ["flip-check", "--n", "5", "--m", "2", "--fan", "--flip", "1-3"],
        ["build", "--n", "5", "--m", "2", "--fan"],
        ["gamma", "--n", "3", "--m", "2"],
    ],
)
def test_non_integer_env_budget_is_ignored(monkeypatch, capsys, argv):
    # the budget is --budget-visited or its default, whatever the
    # environment holds: DIMERLAB_BUDGET_VISITED changes no byte
    expected = run_cli(argv)
    for raw in ("abc", ""):
        monkeypatch.setenv("DIMERLAB_BUDGET_VISITED", raw)
        assert run_cli(argv) == expected
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "5", "--m", "2", "--fan"],
        ["sweep", "--max-n", "4", "--m", "2"],
        ["flip-check", "--n", "5", "--m", "2", "--fan", "--flip", "1-3"],
        ["build", "--n", "5", "--m", "2", "--fan"],
        ["gamma", "--n", "3", "--m", "2"],
    ],
)
def test_non_positive_env_budget_is_ignored(monkeypatch, capsys, argv):
    expected = run_cli(argv)
    for raw in ("0", "-5"):
        monkeypatch.setenv("DIMERLAB_BUDGET_VISITED", raw)
        assert run_cli(argv) == expected
    assert capsys.readouterr().err == ""


def test_the_environment_does_not_change_a_run():
    # in fresh processes, as a shell runs the CLI
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {k: v for k, v in os.environ.items() if k != "DIMERLAB_BUDGET_VISITED"}
    env["PYTHONPATH"] = src

    def run(argv, **extra):
        return subprocess.run(
            [sys.executable, "-m", "dimerlab.cli", *argv],
            env=dict(env, **extra),
            capture_output=True,
            timeout=120,
        )

    verify = ["verify", "--n", "5", "--m", "2", "--fan"]
    unset = run(verify)
    assert unset.returncode == 0 and unset.stderr == b""
    assert json.loads(unset.stdout)["budget"]["max_visited"] == DEFAULT_MAX_VISITED
    for raw in ("1", "abc"):
        proc = run(verify, DIMERLAB_BUDGET_VISITED=raw)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, unset.stdout, b"")
    for argv in (["--version"], ["gamma", "--n", "3", "--m", "2"]):
        proc = run(argv, DIMERLAB_BUDGET_VISITED="abc")
        assert proc.returncode == 0 and proc.stdout and proc.stderr == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "5", "--m", "2", "--fan"],
        ["sweep", "--max-n", "4", "--m", "2"],
        ["flip-check", "--n", "5", "--m", "2", "--fan", "--flip", "1-3"],
    ],
)
def test_non_positive_budget_flag_is_a_usage_error_naming_the_flag(capsys, argv):
    for raw in ("0", "-5"):
        code, out = run_cli(argv + ["--budget-visited", raw])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            f"error: dimerlab {argv[0]}: argument --budget-visited: "
            f"must be positive, got {raw}\n"
        )


def test_cli_import_leaves_the_process_pool_unloaded():
    # only sweep --workers > 1 needs concurrent.futures
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, dimerlab.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "5", "--m", "2", "--fan", "--bogus"],
        ["verify", "--n", "five", "--m", "2", "--fan"],
        ["verify", "--n", "5", "--m", "2", "--fan", "--budget-length", "64"],
        ["verify", "--n", "5", "--fan"],
        ["build", "--n", "5", "--m", "2", "--fan", "--what", "gamma"],
        [],
    ],
)
def test_usage_errors_are_invalid_input(capsys, argv):
    # exit 2 means inconclusive, so argparse's own usage exit must not leak
    code, out = run_cli(argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: dimerlab") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out
