"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload is a closed loop with one caller: the next call into
dimerlab starts when the previous one has returned.  A pass returns the
seconds spent in dimerlab calls (checks run after the clock stops) and
one ``Item`` per triangulation or flip move, with its own time and status.
All times come from a ``SpeedClock`` (speed.py), which probes the host's
speed between calls and reports seconds at its reference speed.

Outputs are checked against ``reference.json`` (written by
``make_reference.py``): the SHA-256 of the canonical JSON of each output
must match, besides the program's own verdict.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from time import perf_counter
from typing import Callable, NamedTuple

from spans import Recorder, rebound
from speed import SpeedClock

VERIFIED, FAILED, INCONCLUSIVE = "verified", "failed", "inconclusive"

FAN_GRID = ((3, 8), (4, 5), (4, 6), (5, 4))  # (m, n), fan at apex 1
SWEEP_ARGV = ["sweep", "--max-n", "7", "--m", "2", "3"]
# Flip-walk pools, keyed "n,m": targets at the largest flip distance from
# the fan at apex 1 (no diagonal at vertex 1), walked from that fan.
WALK_POOLS = {"11,2": 48, "8,3": 42}  # pool sizes
# Walks per pass from each pool.  A move at n = 11 takes about 14 ms and
# one at n = 8, m = 3 about 200 ms, with no overlap.  With 64 moves from
# the first pool and 25 from the second, the median move falls inside the
# first population and the tail (10 moves beyond it) inside the second,
# so neither sits on the gap between them, where the seed would move it.
WALKS_PER_PASS = {"11,2": 8, "8,3": 5}
BOUNDARY_PROBES = 3  # speed probes at the start and end of a pass, and between fans


class Item(NamedTuple):
    key: tuple
    seconds: float
    status: str


def sha256_json(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _status(passed: bool, inconclusive: bool, matches: bool) -> str:
    if inconclusive:
        return INCONCLUSIVE
    return VERIFIED if passed and matches else FAILED


# ---------------------------------------------------------------------------
# fan-extract: verify_boundary_algebra on the apex-1 fans of FAN_GRID.


def fan_inputs(seed: int, reference: dict) -> list:
    return list(FAN_GRID)


def fan_run(dl, fans: list, reference: dict, clock) -> tuple[float, list]:
    timed = []
    clock.probe_now(BOUNDARY_PROBES)
    t0 = perf_counter()
    for m, n in fans:
        T = dl.polygon.fan_triangulation(n, 1)
        clock.probe_now(BOUNDARY_PROBES)
        t1 = perf_counter()
        outcome = dl.boundary.verify_boundary_algebra(T, m)
        timed.append(((m, n), t1, perf_counter(), outcome))
    t_end = perf_counter()
    clock.probe_now(BOUNDARY_PROBES)
    wall = clock.seconds(t0, t_end)
    items = []
    for (m, n), t1, t2, outcome in timed:
        seconds = clock.seconds(t1, t2)
        matches = sha256_json(outcome.to_json()) == reference["fan-extract"][f"{m},{n}"]
        items.append(
            Item(("fan", m, n), seconds, _status(outcome.passed, bool(outcome.inconclusive), matches))
        )
    return wall, items


def fan_outputs(dl) -> dict:
    """Reference digests for fan-extract."""
    out = {}
    for m, n in FAN_GRID:
        outcome = dl.boundary.verify_boundary_algebra(dl.polygon.fan_triangulation(n, 1), m)
        assert outcome.passed, (m, n)
        out[f"{m},{n}"] = sha256_json(outcome.to_json())
    return out


# ---------------------------------------------------------------------------
# sweep-n7: the CLI sweep in-process, stdout captured, no worker pool.


def sweep_inputs(seed: int, reference: dict) -> list:
    return list(SWEEP_ARGV)


def _run_cli(dl, argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dl.cli.main(argv)
    return code, buf.getvalue()


def sweep_run(dl, argv: list, reference: dict, clock) -> tuple[float, list]:
    row_times = {}
    verify = dl.boundary.verify_boundary_algebra

    def timed_verify(T, m, *args, **kwargs):
        clock.probe()
        t1 = perf_counter()
        outcome = verify(T, m, *args, **kwargs)
        row_times[(m, T.n, T.sorted_diagonals)] = (t1, perf_counter())
        return outcome

    with rebound({verify: timed_verify}):
        clock.probe_now(BOUNDARY_PROBES)
        t0 = perf_counter()
        code, stdout = _run_cli(dl, argv)
        t_end = perf_counter()
        clock.probe_now(BOUNDARY_PROBES)
    wall = clock.seconds(t0, t_end)
    row_seconds = {key: clock.seconds(*span) for key, span in row_times.items()}
    ref = reference["sweep-n7"]
    matches = code == ref["exit_code"] and hashlib.sha256(stdout.encode()).hexdigest() == ref["sha256"]
    items = []
    for row in json.loads(stdout)["rows"]:
        key = (row["m"], row["n"], tuple(tuple(d) for d in row["diagonals"]))
        status = _status(row["passed"], bool(row["inconclusive"]), matches)
        items.append(Item(("row",) + key, row_seconds.pop(key), status))
    if row_seconds:  # a verify call with no row in the report
        items.extend(Item(("row",) + key, s, FAILED) for key, s in row_seconds.items())
    return wall, items


def sweep_outputs(dl) -> dict:
    code, stdout = _run_cli(dl, SWEEP_ARGV)
    assert code == 0
    return {"argv": SWEEP_ARGV, "exit_code": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


# ---------------------------------------------------------------------------
# flip-walk: flip_sequence from the fan to a target, then
# verify_flip_transport at every move of the walk.


def walk_inputs(seed: int, reference: dict) -> list:
    """WALKS_PER_PASS walks from each pool, the pools interleaved evenly so
    each stretch of a pass mixes small and large m.

    A pool is cut into as many strata as walks are picked from it, by the
    walks' residue-call counts (machine-independent work, recorded with
    the reference), and the seed picks one walk per stratum.  Walk costs
    at n = 8 spread about threefold, so a plain random pick would make the
    run's cost depend on the seed.  (At n = 11 every walk makes the same
    number of calls.)
    """
    walks = reference["flip-walk"]
    rng = random.Random(seed)
    placed = []
    for pool, count in WALKS_PER_PASS.items():
        members = sorted(
            (w["residue_calls"], i) for i, w in enumerate(walks) if f"{w['n']},{w['m']}" == pool
        )
        bounds = [len(members) * k // count for k in range(count + 1)]
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            placed.append(((k + 0.5) / count, rng.choice(members[lo:hi])[1]))
    return [wid for _, wid in sorted(placed)]


def _walk(dl, n: int, m: int, diagonals, clock) -> tuple[bool, list]:
    """One walk: whether the moves reach the target, and per move the
    interval it took and its certificate."""
    fan = dl.polygon.fan_triangulation(n, 1)
    target = dl.polygon.Triangulation(n, [tuple(d) for d in diagonals])
    clock.probe()
    moves = dl.polygon.flip_sequence(fan, target)
    steps = []
    cur = fan
    for move in moves:
        clock.probe()
        t1 = perf_counter()
        cert = dl.boundary.verify_flip_transport(cur, move.removed, m)
        steps.append(((t1, perf_counter()), cert))
        cur, _ = dl.polygon.flip(cur, move.removed)
    return cur.key() == target.key(), steps


def walk_run(dl, walk_ids: list, reference: dict, clock) -> tuple[float, list]:
    walks = reference["flip-walk"]
    done = []
    clock.probe_now(BOUNDARY_PROBES)
    t0 = perf_counter()
    for wid in walk_ids:
        w = walks[wid]
        done.append((wid, _walk(dl, w["n"], w["m"], w["diagonals"], clock)))
    t_end = perf_counter()
    clock.probe_now(BOUNDARY_PROBES)
    wall = clock.seconds(t0, t_end)
    items = []
    for wid, (reached, steps) in done:
        certs = [cert.to_json() for _, cert in steps]
        matches = reached and sha256_json(certs) == walks[wid]["sha256"]
        for k, (span, cert) in enumerate(steps):
            status = _status(cert.ok, bool(cert.inconclusive), matches)
            items.append(Item(("move", wid, k), clock.seconds(*span), status))
        if not steps:  # a walk must move: targets are never the fan
            items.append(Item(("move", wid, 0), 0.0, FAILED))
    return wall, items


def walk_pool(dl, n: int, size: int, rng: random.Random) -> list:
    """Distinct targets with no diagonal at vertex 1, each found by random
    flips from the fan at apex 1 (all of them when ``size`` reaches their
    number, C(n-3))."""
    fan = dl.polygon.fan_triangulation(n, 1)
    found = {}
    while len(found) < size:
        T = fan
        while any(1 in d for d in T.diagonals):
            T, _ = dl.polygon.flip(T, rng.choice(T.sorted_diagonals))
        found.setdefault(T.key(), T)
    return sorted(found.values(), key=lambda T: T.sorted_diagonals)


def walk_outputs(dl, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for pool, size in WALK_POOLS.items():
        n, m = map(int, pool.split(","))
        for T in walk_pool(dl, n, size, rng):
            recorder = Recorder()
            with recorder.installed():
                reached, steps = _walk(dl, n, m, T.sorted_diagonals, SpeedClock(enabled=False))
            assert reached and all(cert.ok for _, cert in steps), T
            out.append(
                {
                    "n": n,
                    "m": m,
                    "diagonals": [list(d) for d in T.sorted_diagonals],
                    "moves": len(steps),
                    "residue_calls": recorder.layer_metrics()["rewrite.residue_calls"],
                    "sha256": sha256_json([cert.to_json() for _, cert in steps]),
                }
            )
    return out


class Workload(NamedTuple):
    inputs: Callable  # (seed, reference) -> plain-data inputs
    run: Callable  # (dimerlab modules, inputs, reference, SpeedClock) -> (seconds, items)


WORKLOADS = {
    "fan-extract": Workload(fan_inputs, fan_run),
    "sweep-n7": Workload(sweep_inputs, sweep_run),
    "flip-walk": Workload(walk_inputs, walk_run),
}
