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
  knob;
- no dead code: every module-level function, class or assigned name, and
  every method, is named somewhere other than its own definition, in
  ``src/``, ``tests/`` or ``perfbench/`` (``__dunder__`` names are read by
  Python).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stardefect"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name the tree refers to outside ``skip``: identifiers, attributes,
    imported names, and identifiers inside string constants other than
    docstrings (a name may be reached through ``getattr`` or a dotted
    string, but a docstring that mentions a name does not use it)."""
    inside = set(ast.walk(skip)) if skip is not None else set()
    inside.update(n.value for n in ast.walk(tree) if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))
    out: set[str] = set()
    for n in ast.walk(tree):
        if n in inside:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(IDENTIFIER.findall(n.value))
    return out


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level functions, classes and assigned names, and the methods of
    those classes, each with the statement that defines it."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    top = [n for n in tree.body if isinstance(n, kinds)]
    methods = [m for c in top if isinstance(c, ast.ClassDef) for m in c.body if isinstance(m, kinds[:2])]
    assigned = [
        (t.id, n)
        for n in tree.body
        if isinstance(n, (ast.Assign, ast.AnnAssign))
        for target in (n.targets if isinstance(n, ast.Assign) else [n.target])
        for t in (target.elts if isinstance(target, ast.Tuple) else [target])
        if isinstance(t, ast.Name)
    ]
    return [(d.name, d) for d in top + methods] + assigned


def unnamed_definitions(tree: ast.Module, elsewhere: set[str]) -> list[int]:
    """Lines of definitions named neither in ``elsewhere`` nor in the module outside their own statement."""
    return [
        d.lineno
        for name, d in definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in elsewhere
        and name not in names_used(tree, skip=d)
    ]


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


def test_package_source_has_no_dead_code():
    files = sorted(p for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in files}
    used = {p: names_used(t) for p, t in trees.items()}
    broken = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in unnamed_definitions(trees[path], set().union(*(u for p, u in used.items() if p != path)))
    ]
    assert not broken, f"dead code at {', '.join(broken)}"


@pytest.mark.parametrize(
    "source, dead",
    [
        ("def used():\n    return 1\n\ndef unused():\n    return used()\n", [4]),
        ("def again(n):\n    return again(n - 1) if n else 0\n", [1]),
        ("class A:\n    def __init__(self):\n        self.x = 1\n\n    def stale(self):\n        return self.x\n\nA()\n", [5]),
        ("class Unused:\n    pass\n", [1]),
        ("_UNUSED = 3\n", [1]),
        ("USED: int = 1\nSTALE, ALSO = USED, 2\n__all__ = []\n", [2, 2]),
    ],
    ids=["unused-function", "only-named-in-its-own-body", "unused-method", "unused-class", "unused-constant", "unused-assigned-names"],
)
def test_dead_code_rule_catches_its_violation(source, dead):
    assert unnamed_definitions(ast.parse(source), set()) == dead


def test_dead_code_rule_passes_names_used_elsewhere_or_by_string():
    source = "def f():\n    return 1\n\nclass A:\n    def g(self):\n        return 2\n"
    assert unnamed_definitions(ast.parse(source), {"f", "A", "g"}) == []
    assert unnamed_definitions(ast.parse(source + "\nSPANS = ['mod.f', 'A.g']\nA, SPANS\n"), set()) == []
    assert unnamed_definitions(ast.parse('"""f and A.g are named only here."""\n' + source), set()) == [2, 5, 6]
