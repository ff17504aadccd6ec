"""Checks of the benchmark itself (slow: about two minutes).

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of a checkout.  Traced runs of every workload must
verify every item, report each per-layer metric as nonzero on the
workloads that exercise that layer (so a function that dimerlab rebinds
cannot silently zero a layer), and repeat their counts exactly for the
same seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END_UNITS  # noqa: E402
from spans import Recorder  # noqa: E402

ALL = {"fan-extract", "sweep-n7", "flip-walk"}
# Where each per-layer metric must be nonzero; every other metric: ALL.
EXERCISED = {
    "polygon.flip_sequence_s": {"flip-walk"},
    "polygon.flip_moves": {"flip-walk"},
    "polygon.enumerate_s": {"sweep-n7"},
    "polygon.triangulations": {"sweep-n7"},
    "boundary.central_s": {"fan-extract", "sweep-n7"},
    "boundary.flip_transport_s": {"flip-walk"},
    "cli.self_s": {"sweep-n7"},
    "rewrite.unknown": set(),  # no workload exhausts a search budget
    "trace.overhead_s": set(),  # a difference of two timings
}


def run_bench(workload, seed, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(res):
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] != "s"}


def bench_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert {w["name"] for w in json.load(f)["workloads"]} == ALL
    assert bench_metrics("end_to_end") == END_TO_END_UNITS
    layer = list(bench_metrics("per_layer"))
    assert layer == list(Recorder().layer_metrics()) + ["trace.overhead_s"]


@pytest.mark.parametrize("workload", sorted(ALL))
def test_traced_runs_are_deterministic_and_cover_every_layer(workload):
    first = result(run_bench(workload, 7, 1))
    second = result(run_bench(workload, 7, 1))
    other_seed = result(run_bench(workload, 8, 1))
    for res in (first, second, other_seed):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert counts(first) == counts(second)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == bench_metrics("per_layer")
    for name, metric in first["metrics"].items():
        if workload in EXERCISED.get(name, ALL):
            assert metric["value"] > 0, name


def test_untraced_run_reports_end_to_end_metrics():
    res = result(run_bench("sweep-n7", 3, 0))
    assert res["correct"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == bench_metrics("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-n7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
