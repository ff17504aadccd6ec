"""tools/report_digest.py: one line per grid, the same in every run."""

import os
import subprocess
import sys
from pathlib import Path

import dimerlab as dl

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_digest.py"


def run_digest(*args, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(TOOL), *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_two_runs_print_the_same_line_over_every_report():
    # one report per triangulation of each n-gon, 3 <= n <= 5, and one per
    # flip of its first two diagonals; string hashing must not change a byte
    first, second = (run_digest("--max-n", "5", "--m", "2", hash_seed=s) for s in ("0", "1"))
    assert first == second and first.count("\n") == 1
    tris = [T for n in range(3, 6) for T in dl.enumerate_triangulations(n)]
    count = len(tris) + sum(min(len(T.diagonals), 2) for T in tris)
    assert count == 20
    assert first.startswith(f"{count} reports sha256 ")
    assert len(first.split()[-1]) == 64


def test_the_digest_of_the_sweep_grid_is_pinned():
    # every verify and flip report of the grid of `sweep --max-n 7 --m 2 3`,
    # byte for byte.  A change that means to alter report bytes regenerates
    # this value, and states the old and new values in CHANGES.md
    line = run_digest("--max-n", "7", "--m", "2", "3", hash_seed="0")
    assert line == (
        "376 reports sha256 2533d6a4b41795173aa38bb2985d0da7d31474a2823e52dde23623363f453b62\n"
    )
