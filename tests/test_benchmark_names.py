"""The names the benchmark harness in perfbench/ pins still sit where it looks.

The tracer self-check of ``perfbench/run.py --trace 1`` fails when a span it
expects is never reached, and the worker's Betti probe reads the tables that
``stargeneral.verify_resolution_theorems`` returns.  These tests read the
perfbench files (without changing them) so that moving a pinned name fails
here first; one runs the self-check job under the perfbench tracer, in a
fresh interpreter, so that a pinned span the job no longer reaches fails here
too.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stardefect.gradedideal import BettiTable
from stardefect.stargeneral import random_star_config, verify_resolution_theorems

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


# Runs the self-check job under the benchmark's tracer in a fresh interpreter
# and prints the exit code and the names of the spans that recorded a call.
_TRACED_JOB = """
import contextlib, io, json, sys
import stardefect.cli
from spans import Tracer

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = stardefect.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "spans": sorted(tracer.summary()["spans"])}))
"""


def test_self_check_job_reaches_every_pinned_span():
    run = PERFBENCH / "run.py"
    job = literal(run, "SELF_CHECK_JOB")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_JOB, json.dumps(job)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    missing = sorted(set(literal(run, "SELF_CHECK_SPANS")) - set(out["spans"]))
    assert not missing, f"spans with no recorded call: {missing}"


# Installs the worker's Betti probe, runs the resolution-thm job in a fresh
# interpreter and prints the exit code and the tables the probe recorded.
_PROBED_JOB = """
import contextlib, io, json
import stardefect.cli
from worker import install_betti_probe

records = install_betti_probe()
with contextlib.redirect_stdout(io.StringIO()):
    code = stardefect.cli.main(["verify", "resolution-thm", "--seed", "1", "--json"])
print(json.dumps({"code": code, "betti": records}))
"""


def test_resolution_thm_job_reaches_the_betti_probe_once_per_expected_table():
    expected = json.loads((PERFBENCH / "expected.json").read_text())["resolution-thm"]["betti"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-c", _PROBED_JOB], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    assert len(out["betti"]) == len(expected) == 7
    assert out["betti"] == expected
