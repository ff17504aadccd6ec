"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python tools/ab.py PARENT CHANGE --workload NAME [--seed N] [--seconds S] [--pairs K]

PARENT and CHANGE are the roots of two checkouts.  Each pair runs the
benchmark command of BENCHMARK.json (``perfbench/run.py``, untraced) once
in each checkout.  The checkout that runs first alternates from one pair
to the next, because whichever runs second can read slower on a shared
host.  Every ``__pycache__`` under both checkouts is deleted before each
run, so each run compiles ``src/`` cold, which counts in ``setup_s``.

Prints every run's end-to-end metrics as it ends, then one row per metric:
the median of each side, the parent's quartiles, and the pairs in which
the change was better, worse or tied (the direction comes from
BENCHMARK.json).  Then one verdict per metric (see verdict): ``claim met``,
``over bound``, ``unresolved`` or ``within bound``.  Exits 1 if a run fails
or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def clear_pycache(*checkouts: str) -> None:
    for checkout in checkouts:
        for path, dirs, _ in os.walk(checkout):
            if ".git" in dirs:
                dirs.remove(".git")
            if "__pycache__" in dirs:
                dirs.remove("__pycache__")
                shutil.rmtree(os.path.join(path, "__pycache__"))


def pairs_won(old: list, new: list, better: str) -> tuple[int, int]:
    """The pairs in which the change was better, and those in which it was
    worse; better is 'lower' or 'higher'."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
    return wins, losses


def verdict(old: list, new: list, better: str, bound: float) -> str:
    """The verdict on one metric from paired runs, old[i] and new[i] the
    parent's and the change's values in pair i.

    'claim met' when the change is better in at least 9 of 10 pairs and its
    median is better than the parent's by more than the parent's q3 - q1;
    'over bound' when its median is worse than the parent's by more than
    bound, a fraction of the parent's median; 'unresolved' when the
    parent's q3 - q1 is wider than that bound, so the runs cannot show a
    loss within it, unless every run of the change is better than every
    run of the parent; 'within bound' otherwise.
    """
    wins, _ = pairs_won(old, new, better)
    q1, _, q3 = statistics.quantiles(old, n=4)
    parent = statistics.median(old)
    sign = 1 if better == "higher" else -1
    gain = sign * (statistics.median(new) - parent)
    if 10 * wins >= 9 * len(old) and gain > q3 - q1:
        return "claim met"
    if -gain > bound * abs(parent):
        return "over bound"
    always_better = min(sign * b for b in new) > max(sign * a for a in old)
    if q3 - q1 > bound * abs(parent) and not always_better:
        return "unresolved"
    return "within bound"


def run_once(command: list, checkout: str, args) -> dict:
    """One untraced benchmark run in checkout; its metrics, name -> value."""
    argv = command + ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run in {checkout} failed (exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give the parent's quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            clear_pycache(*sides.values())
            metrics = run_once(bench["command"], sides[side], args)
            runs[side].append(metrics)
            shown = "  ".join(f"{k}={metrics[k]:.6g}" for k in better)
            print(f"pair {i + 1} {side:6s} {shown}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s runs, {args.pairs} pairs")
    print(f"{'metric':14s} {'parent':>10s} {'change':>10s} {'parent q1..q3':>21s}  better/worse/tied")
    verdicts = []
    for name, direction in better.items():
        old = [m[name] for m in runs["parent"]]
        new = [m[name] for m in runs["change"]]
        q1, _, q3 = statistics.quantiles(old, n=4)
        wins, losses = pairs_won(old, new, direction)
        print(f"{name:14s} {statistics.median(old):10.6g} {statistics.median(new):10.6g} "
              f"{q1:10.6g}..{q3:<10.6g} {wins}/{losses}/{args.pairs - wins - losses}")
        verdicts.append(f"{name:14s} {verdict(old, new, direction, bounds[name])}")
    print("", *verdicts, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
