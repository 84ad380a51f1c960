"""Rules the package source keeps, checked on its syntax tree.

The modules under ``src/stardefect`` are parsed with ``ast``; they are neither
imported nor run.  The rules:

- no ``assert`` statement: a correctness check must not vanish under
  ``python -O``;
- no function-local ``from .x import``: the layers import each other at the
  top of the module, so every dependency between them is visible there;
- no ``from .module import _name``: a module's underscore names are its own;
- no read of the process environment (``os.environ``, ``os.getenv``): the
  program's behaviour is set by its arguments and inputs, never by a hidden
  knob.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stardefect"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def violations(tree: ast.AST) -> dict[str, list[int]]:
    """Line numbers breaking each rule in one parsed module."""
    nodes = list(ast.walk(tree))
    functions = [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    relative = [n for n in nodes if isinstance(n, ast.ImportFrom) and n.level]
    local = {n for f in functions for n in ast.walk(f)}
    return {
        "assert": [n.lineno for n in nodes if isinstance(n, ast.Assert)],
        "local-relative-import": [n.lineno for n in relative if n in local],
        "private-import": [n.lineno for n in relative if any(a.name.startswith("_") for a in n.names)],
        "environment-read": [
            n.lineno
            for n in nodes
            if isinstance(n, ast.Attribute) and n.attr in ENVIRONMENT and isinstance(n.value, ast.Name) and n.value.id == "os"
            or isinstance(n, ast.ImportFrom) and n.module == "os" and any(a.name in ENVIRONMENT for a in n.names)
        ],
    }


def test_source_files_are_found():
    assert {"poly.py", "gradedideal.py", "points.py", "stargeneral.py"} <= {p.name for p in SRC.glob("*.py")}


@pytest.mark.parametrize("rule", ["assert", "local-relative-import", "private-import", "environment-read"])
def test_package_source_keeps_rule(rule):
    broken = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in violations(ast.parse(path.read_text(), filename=str(path)))[rule]
    ]
    assert not broken, f"{rule} at {', '.join(broken)}"


@pytest.mark.parametrize(
    "rule, source",
    [
        ("assert", "def f(x):\n    assert x\n"),
        ("local-relative-import", "def f():\n    from .poly import multiply\n"),
        ("local-relative-import", "class A:\n    def f(self):\n        from . import poly\n"),
        ("private-import", "from .poly import HomogPoly, _basis_index\n"),
        ("environment-read", "import os\n\ndef f():\n    return os.environ.get('P')\n"),
        ("environment-read", "import os\nP = os.getenv('P', '32003')\n"),
        ("environment-read", "from os import environ\n"),
    ],
    ids=[
        "assert",
        "local-relative-import",
        "local-relative-import-in-method",
        "private-import",
        "environment-read",
        "environment-read-getenv",
        "environment-read-from-import",
    ],
)
def test_rule_catches_its_violation(rule, source):
    found = violations(ast.parse(source))
    assert found[rule] and not any(v for r, v in found.items() if r != rule)


def test_top_level_and_absolute_imports_pass():
    source = "from .poly import multiply\nimport os\nimport numpy as np\n\ndef f():\n    from fractions import Fraction\n    return os.path.join('a', 'b')\n"
    assert not any(violations(ast.parse(source)).values())
