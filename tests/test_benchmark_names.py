"""The names the benchmark harness in perfbench/ pins still sit where it looks.

The tracer self-check of ``perfbench/run.py --trace 1`` fails when a span it
expects is never reached, and the worker's Betti probe reads the tables that
``stargeneral.verify_resolution_theorems`` returns.  These tests read the
perfbench files (without importing or changing them) so that moving a pinned
name fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from stardefect.gradedideal import BettiTable
from stardefect.stargeneral import random_star_config, verify_resolution_theorems

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def literal(path: Path, name: str):
    """The literal value assigned to a module-level name in a source file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


def pinned_spans() -> list[str]:
    run = PERFBENCH / "run.py"
    spans = list(literal(run, "SELF_CHECK_SPANS"))
    spans += [span for _, span, _ in literal(run, "SPAN_METRICS")]
    return sorted(set(spans))


@pytest.mark.parametrize("span", pinned_spans())
def test_pinned_span_is_defined_in_its_layer(span):
    layer, name = span.split(".")
    mod = importlib.import_module(f"stardefect.{layer}")
    obj = getattr(mod, name, None)
    public_function = (
        not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
    )
    methods = literal(PERFBENCH / "spans.py", "METHODS").get(layer, {})
    traced_method = any(
        name in names and callable(getattr(getattr(mod, cls), name, None)) for cls, names in methods.items()
    )
    assert public_function or traced_method, f"{span} is neither a public function nor a traced method"


def test_resolution_theorems_return_the_probed_tables():
    res = verify_resolution_theorems(random_star_config(3, 2, [1, 1, 1], 1))
    assert isinstance(res["square"], BettiTable)
    assert isinstance(res["symbolic"], BettiTable)
