"""One digest over the reports of a grid, to show that a change keeps them.

    PYTHONPATH=src python tools/report_digest.py --max-n N --m M [M ...]

For each m, each n from 3 to N and each triangulation of the n-gon (the
grid of ``dimerlab sweep``), the report of ``verify_boundary_algebra``,
then that of ``verify_flip_transport`` on each of the triangulation's
first two diagonals (in sorted order).  Prints one line: the number of
reports and the sha256 over their canonical JSON (sorted keys), one
report a line, in that order.  Two checkouts whose reports are byte for
byte the same print the same line.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from dimerlab import enumerate_triangulations, verify_boundary_algebra, verify_flip_transport


def reports(max_n: int, ms: list[int]):
    """Every report of the grid, in the order they are hashed."""
    for m in ms:
        for n in range(3, max_n + 1):
            for T in enumerate_triangulations(n):
                yield verify_boundary_algebra(T, m).to_json()
                for d in T.sorted_diagonals[:2]:
                    yield verify_flip_transport(T, d, m).to_json()


def digest(max_n: int, ms: list[int]) -> str:
    h = hashlib.sha256()
    count = 0
    for report in reports(max_n, ms):
        h.update(json.dumps(report, sort_keys=True).encode() + b"\n")
        count += 1
    return f"{count} reports sha256 {h.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, required=True, help="largest polygon")
    parser.add_argument("--m", type=int, nargs="+", required=True, help="dimer orders")
    args = parser.parse_args(argv)
    print(digest(args.max_n, args.m))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
