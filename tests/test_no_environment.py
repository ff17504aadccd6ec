"""No module of the library reads the environment: every input of a run
is an argument, so identical invocations print identical bytes in any
environment.  The check parses each module under src/dimerlab."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dimerlab"
READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each place source reads the environment: an attribute named like one
    of os's readers (os.environ, os.getenv, ...), or such a name imported
    from os."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                f"line {node.lineno}: from os import {alias.name}"
                for alias in node.names
                if alias.name in READERS | {"*"}
            ]
    return found


def test_the_check_sees_each_way_of_reading():
    assert environment_reads("import os\nos.environ.get('X')\n") == ["line 2: .environ"]
    assert environment_reads("import os as o\nx = o.getenv('X')\n") == ["line 2: .getenv"]
    assert environment_reads("from os import environ as e\n") == [
        "line 1: from os import environ"
    ]
    assert environment_reads("import os\nos.path.join('a')\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_reads_the_environment(module):
    assert environment_reads((SRC / module).read_text()) == []
