"""The README's examples run as written: the library quick start, and
each `dimerlab ...` line of the CLI block through the CLI's main,
in-process."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from dimerlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


CLI_ARGVS = [
    shlex.split(line, comments=True)[1:]
    for block in fenced("sh")
    for line in block.splitlines()
    if line.startswith("dimerlab ")
]


def test_readme_quick_start_runs():
    (code,) = fenced("python")
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", CLI_ARGVS, ids=" ".join)
def test_readme_cli_line_exits_zero(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0 and out.getvalue()


def test_readme_cli_block_is_found():
    assert [argv[0] for argv in CLI_ARGVS] == [
        "build", "build", "build", "verify", "sweep", "gamma", "flip-check"
    ]
