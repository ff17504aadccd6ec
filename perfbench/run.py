"""dimerlab benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dimerlab is imported from its ``src/``.
Passes of the workload repeat until about ``--seconds`` have elapsed.  Each
pass starts from a freshly imported dimerlab, as a new CLI invocation
would, so nothing cached at module level carries over between passes.
Set-up is timed per pass as a cold import of dimerlab.cli in a fresh
interpreter (what each CLI invocation pays) plus input generation.
End-to-end times are rescaled to the host's reference speed by speed
probes run between the program's calls (see speed.py).

Every pass of a run gets the same inputs, made from ``--seed``.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports the
per-layer metrics, recorded by wrapping dimerlab's public functions from
outside (see spans.py), and the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from types import SimpleNamespace

from spans import Recorder, rebound
from speed import SpeedClock
from workloads import FAILED, INCONCLUSIVE, VERIFIED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The search budget is pinned: default_max_visited() reads this variable on
# every query, so a stray value in the environment would change the work.
BUDGET_ENV = "DIMERLAB_BUDGET_VISITED"
BUDGET_VISITED = 1_000_000

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}
TAIL_BEYOND = 10  # samples beyond the tail percentile
SETUP_REPEATS = 2  # cold imports timed per pass
SETUP_PROBES = 3  # speed probes around each of them


def pin_budget() -> None:
    os.environ[BUDGET_ENV] = str(BUDGET_VISITED)


def load_dimerlab() -> SimpleNamespace:
    """Import dimerlab afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "dimerlab" or n.startswith("dimerlab.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("dimerlab.cli")
    package = sys.modules["dimerlab"]
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "dimerlab"):
        raise ImportError(f"dimerlab was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        polygon=sys.modules["dimerlab.polygon"],
        rewrite=sys.modules["dimerlab.rewrite"],
        boundary=sys.modules["dimerlab.boundary"],
        cli=cli,
    )


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def item_stats(items) -> tuple[float, float, float, int]:
    """Median item time, tail time, tail percentile and item count.

    An item counts once, at its median over the passes of the run.
    The tail is the highest percentile with TAIL_BEYOND items beyond it;
    with fewer items than that it is the slowest item (percentile 100).
    """
    by_key: dict = {}
    for item in items:
        by_key.setdefault(item.key, []).append(item.seconds)
    times = sorted(statistics.median(v) for v in by_key.values())
    count = len(times)
    if count > TAIL_BEYOND:
        tail, pct = times[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count
    else:
        tail, pct = times[-1], 100.0
    return statistics.median(times), tail, pct, count


def cold_import(clock: SpeedClock) -> tuple[float, float]:
    """Start a fresh interpreter and import dimerlab.cli, the set-up every
    CLI invocation pays; returns the interval it took."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import dimerlab.cli"],
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )
    t1 = perf_counter()
    clock.probe_now(SETUP_PROBES)
    return t0, t1


def run_passes(workload, seed: int, seconds: float, reference: dict, trace: bool) -> list:
    """Passes until the next one would end after ``seconds``.  With tracing,
    passes alternate traced and untraced, at least one of each, and times
    are raw seconds; without, they are rescaled to the reference speed."""
    passes = []
    start = perf_counter()
    durations = []
    while True:
        i = len(passes)
        t0 = perf_counter()
        clock = SpeedClock(enabled=not trace)
        clock.probe_now(SETUP_PROBES)
        imports = [cold_import(clock) for _ in range(SETUP_REPEATS)]
        dl = load_dimerlab()
        gc.collect()  # the previous pass's garbage must not count in this one
        t1 = perf_counter()
        inputs = workload.inputs(seed, reference)
        t2 = perf_counter()
        clock.probe_now(SETUP_PROBES)
        generate = clock.seconds(t1, t2)
        recorder = Recorder() if trace and i % 2 == 0 else None
        if recorder is not None:
            with recorder.installed():
                wall, items = workload.run(dl, inputs, reference, clock)
        elif trace:
            wall, items = workload.run(dl, inputs, reference, clock)
        else:
            # Probe inside long calls too: paths_equal runs many times a
            # second in every workload, and flip throughout flip_sequence.
            probed = (dl.rewrite.paths_equal, dl.polygon.flip)
            with rebound({f: clock.probing(f) for f in probed}):
                wall, items = workload.run(dl, inputs, reference, clock)
        setups = [clock.seconds(*span) + generate for span in imports]
        passes.append(SimpleNamespace(setups=setups, wall=wall, items=items, recorder=recorder))
        durations.append(perf_counter() - t0)
        if len(passes) >= (2 if trace else 1):
            if perf_counter() - start + statistics.median(durations) > seconds:
                return passes


def layer_report(passes) -> tuple[dict, dict, bool]:
    """Per-layer metrics of the traced passes: times are medians over them,
    counts those of the first (and must repeat in the others)."""
    traced = [p for p in passes if p.recorder is not None]
    untraced = [p for p in passes if p.recorder is None]
    per_pass = [p.recorder.layer_metrics() for p in traced]
    metrics, units = {}, {}
    for name in per_pass[0]:
        if name.endswith("_s"):
            metrics[name] = statistics.median(m[name] for m in per_pass)
            units[name] = "s"
        else:
            metrics[name] = per_pass[0][name]
            units[name] = "ratio" if name.endswith("_ratio") else "count"
    same = all(
        m[k] == per_pass[0][k] for m in per_pass for k in m if not k.endswith("_s")
    )
    metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in untraced
    )
    units["trace.overhead_s"] = "s"
    return metrics, units, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dimerlab", "__init__.py")):
        sys.stderr.write(f"no dimerlab sources under {SRC}\n")
        return 2
    pin_budget()
    reference = load_reference()
    passes = run_passes(WORKLOADS[args.workload], args.seed, args.seconds, reference, bool(args.trace))

    items = [it for p in passes for it in p.items]
    statuses = [it.status for it in items]
    attempted = len(items)
    failed = statuses.count(FAILED)
    inconclusive = statuses.count(INCONCLUSIVE)
    verified = statuses.count(VERIFIED)
    correct = attempted > 0 and verified == attempted

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"trace {args.trace}  budget {BUDGET_ENV}={BUDGET_VISITED}")
    print(f"items {attempted}: verified {verified}, failed {failed} "
          f"(failed_frac {failed / max(attempted, 1):.4g}), inconclusive {inconclusive} "
          f"(inconclusive_frac {inconclusive / max(attempted, 1):.4g})")

    if args.trace:
        metrics, units, same = layer_report(passes)
        if not same:
            print("per-layer counts differ between passes on identical inputs")
            correct = False
    else:
        p50, tail, pct, count = item_stats(items)
        metrics = {
            "wall_s": statistics.median(p.wall for p in passes),
            "setup_s": statistics.median(s for p in passes for s in p.setups),
            "item_p50_s": p50,
            "item_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verified_frac": verified / max(attempted, 1),
        }
        units = END_TO_END_UNITS
        print(f"item_tail_s is p{pct:.4g} of {count} distinct items")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - verified,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
