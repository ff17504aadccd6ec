"""Command-line front end: build artifacts, verify single triangulations,
sweep whole flip classes, print Gamma(m, n), and check flip transport.

Exit codes: 0 verified, 1 invalid input (usage errors included),
2 inconclusive (budget ran out), 3 verification failed.  Output is
canonical: keys sorted, no timestamps, budgets and tool version included,
so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .boundary import (
    BoundaryError,
    build_gamma,
    verify_boundary_algebra,
    verify_flip_transport,
)
from .dimer import DimerError, build_dimer, reduce_dimer
from .polygon import (
    PolygonError,
    Triangulation,
    enumerate_triangulations,
    fan_triangulation,
    normalize_diagonal,
)
from .quiver import QuiverError, dual_quiver
from .rewrite import DEFAULT_MAX_VISITED, RewriteError, SearchBudget

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_FAILED = 3


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input (exit 1), not argparse's exit 2,
    which this CLI reserves for inconclusive runs."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def parse_triangulation_spec(n: int, spec: str) -> Triangulation:
    """Grammar: 'fan', 'fan:APEX', or comma-separated 'a-b' diagonal pairs."""
    spec = spec.strip()
    if spec == "fan":
        return fan_triangulation(n)
    if spec.startswith("fan:"):
        try:
            apex = int(spec[4:])
        except ValueError:
            raise CliError(f"bad fan apex in {spec!r}")
        return fan_triangulation(n, apex)
    parts = spec.split(",") if spec else []
    return Triangulation(
        n, [parse_diagonal(n, part, f" at position {pos}") for pos, part in enumerate(parts)]
    )


def parse_diagonal(n: int, part: str, where: str = "") -> tuple[int, int]:
    """Grammar: 'a-b', a diagonal of the n-gon.  where, appended to the
    error, places part in a list."""
    try:
        a, b = map(int, part.split("-"))  # a count other than two is a ValueError too
    except ValueError:
        raise CliError(f"bad diagonal {part!r}{where}")
    return normalize_diagonal(n, (a, b))


def _triangulation_from_args(args) -> Triangulation:
    if args.fan is not None and args.diagonals is not None:
        raise CliError("give either --fan or --diagonals, not both")
    if args.fan is not None:
        spec = "fan" if args.fan == "" else f"fan:{args.fan}"
    elif args.diagonals is not None:
        spec = args.diagonals
    else:
        raise CliError("a triangulation is required (--fan or --diagonals)")
    return parse_triangulation_spec(args.n, spec)


def _emit(data: dict) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _add_common(sub):
    sub.add_argument("--n", type=int, required=True, help="polygon vertex count")
    sub.add_argument("--m", type=int, required=True, help="dimer order (m >= 2)")
    sub.add_argument("--diagonals", help="comma-separated a-b diagonal pairs")
    sub.add_argument(
        "--fan",
        nargs="?",
        const="",
        default=None,
        metavar="APEX",
        help="fan triangulation (optionally with apex)",
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_budget(sub):
    sub.add_argument(
        "--budget-visited",
        type=_positive_int,
        default=DEFAULT_MAX_VISITED,
        help=f"max paths one search may visit, an equality query or an extraction "
        f"closure (default {DEFAULT_MAX_VISITED})",
    )


def cmd_build(args) -> int:
    T = _triangulation_from_args(args)
    D = reduce_dimer(build_dimer(T, args.m))
    Q = dual_quiver(D)
    if args.format == "dot":
        if args.what == "quiver":
            sys.stdout.write(Q.to_dot())
        else:
            raise CliError("DOT output is only available for the quiver")
        return EXIT_OK
    out = {"version": __version__, "triangulation": T.to_json()}
    if args.what in ("dimer", "both"):
        out["dimer"] = D.to_json()
    if args.what in ("quiver", "both"):
        out["quiver"] = Q.to_json()
    _emit(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    T = _triangulation_from_args(args)
    budget = SearchBudget(args.budget_visited)
    outcome = verify_boundary_algebra(T, args.m, budget=budget)
    _emit(
        {
            "version": __version__,
            "budget": _budget_json(budget),
            "outcome": outcome.to_json(),
        }
    )
    if outcome.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if outcome.passed else EXIT_FAILED


def _budget_json(budget: SearchBudget) -> dict:
    # no length bound is applied; the key keeps the report's bytes as they were
    return {"max_visited": budget.max_visited, "max_path_length": "per-query"}


def _sweep_row(task) -> dict:
    import time

    T, m, index, budget, timings = task
    t0 = time.monotonic()
    outcome = verify_boundary_algebra(T, m, budget=budget)
    row = {
        "n": T.n,
        "m": m,
        "index": index,
        "diagonals": [list(d) for d in T.sorted_diagonals],
        "matched": outcome.matched,
        "generators": outcome.generator_count,
        "relations": outcome.relations.passed if outcome.relations else False,
        "central_element": outcome.central.passed if outcome.central else False,
        "inconclusive": outcome.inconclusive,
        "passed": outcome.passed,
    }
    if timings:
        # runtimes are excluded in canonical mode so reports stay byte-identical
        row["runtime_ms"] = round(1000 * (time.monotonic() - t0), 3)
    return row


def cmd_sweep(args) -> int:
    if args.max_n < 3:  # a grid without a polygon would pass vacuously
        raise CliError(f"--max-n must be at least 3, got {args.max_n}")
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    budget = SearchBudget(args.budget_visited)
    ms = sorted(set(args.m))  # a repeated value runs once
    # a Triangulation pickles as it is, so the pool needs no conversion
    tasks = [
        (T, m, index, budget, args.timings)
        for m in ms
        for n in range(3, args.max_n + 1)
        for index, T in enumerate(enumerate_triangulations(n))
    ]
    # a pool starts all its workers at once, so it never gets more than tasks
    workers = min(args.workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    report = {
        "version": __version__,
        "budget": _budget_json(budget),
        "grid": {"max_n": args.max_n, "m": ms},
        "rows": rows,
        "all_matched": all(r["passed"] for r in rows),
    }
    _emit(report)
    if any(r["inconclusive"] for r in rows):
        return EXIT_INCONCLUSIVE
    return EXIT_OK if report["all_matched"] else EXIT_FAILED


def cmd_gamma(args) -> int:
    G = build_gamma(args.m, args.n)
    if args.format == "dot":
        sys.stdout.write(G.to_dot())
    else:
        _emit({"version": __version__, "gamma": G.to_json()})
    return EXIT_OK


def cmd_flip_check(args) -> int:
    T = _triangulation_from_args(args)
    d = parse_diagonal(args.n, args.flip)
    budget = SearchBudget(args.budget_visited)
    cert = verify_flip_transport(T, d, args.m, budget=budget)
    _emit(
        {
            "version": __version__,
            "budget": _budget_json(budget),
            "certificate": cert.to_json(),
        }
    )
    if cert.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if cert.ok else EXIT_FAILED


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dimerlab",
        description="GL_m-dimer models of polygon triangulations and their boundary algebras",
    )
    parser.add_argument("--version", action="version", version=f"dimerlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="emit the (reduced) dimer and/or dual quiver")
    _add_common(b)
    b.add_argument("--what", choices=["dimer", "quiver", "both"], default="quiver")
    b.add_argument("--format", choices=["json", "dot"], default="json")
    b.set_defaults(func=cmd_build)

    v = subs.add_parser("verify", help="verify one triangulation against Gamma(m, n)")
    _add_common(v)
    _add_budget(v)
    v.set_defaults(func=cmd_verify)

    s = subs.add_parser("sweep", help="verify every triangulation of a grid")
    s.add_argument("--max-n", type=int, required=True)
    s.add_argument("--m", type=int, nargs="+", required=True)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument(
        "--timings",
        action="store_true",
        help="include per-row runtimes (leaves canonical byte-identical mode)",
    )
    _add_budget(s)
    s.set_defaults(func=cmd_sweep)

    g = subs.add_parser("gamma", help="print the canonical quiver Gamma(m, n)")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--format", choices=["json", "dot"], default="json")
    g.set_defaults(func=cmd_gamma)

    f = subs.add_parser("flip-check", help="certify flip transport of the presentation")
    _add_common(f)
    _add_budget(f)
    f.add_argument("--flip", required=True, metavar="A-B", help="diagonal to flip")
    f.set_defaults(func=cmd_flip_check)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except (
        CliError,
        PolygonError,
        DimerError,
        QuiverError,
        RewriteError,
        BoundaryError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
