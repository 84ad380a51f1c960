"""Canonical --json reports compared byte for byte with stored golden files.

Pieces carry canonical RREF bases, so a refactor that keeps the mathematics
must keep these bytes.  After an intended change of a report, rewrite its
file with ``PYTHONPATH=src python tests/test_golden_reports.py NAME ...``
(every case when no NAME is given).  Each rewritten file is printed with
whether its bytes changed; an unknown NAME exits 1 and writes nothing.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stardefect.cli import main

GOLDEN = Path(__file__).parent / "golden"
STAR = "random:degrees=[1,1,2],seed=7,c=2"

CASES = {
    "sdefect_points": ["sdefect", "--points", "random:s=5,seed=1", "--m", "0..3"],
    "sdefect_star": ["sdefect", "--star", STAR, "--m", "1..2"],
    "hilbert_points": ["hilbert", "--points", "random:s=5,seed=1", "--m", "1"],
    "betti_points": ["betti", "--points", "random:s=5,seed=1", "--m", "2"],
    "hilbert_star": ["hilbert", "--star", STAR, "--m", "2"],
    "betti_star": ["betti", "--star", STAR, "--m", "2"],
    "sdefect_points_s8": ["sdefect", "--points", "random:s=8,seed=1", "--m", "0..7"],
    "sdefect_lines": ["sdefect", "--lines", "random:s=5,seed=3", "--m", "1..3"],
    "sdefect_star_c2": ["sdefect", "--star", "random:degrees=[1,1,2,2],seed=7,c=2", "--m", "1..3"],
    "hilbert_points_s10": ["hilbert", "--points", "random:s=10,seed=1", "--m", "4"],
    "betti_star_p3": ["betti", "--star", "random:degrees=[1,1,1,1,1],seed=7,c=3,vars=4", "--m", "2"],
}


def report_bytes(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    assert code == 0, argv
    return out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert report_bytes(CASES[name]) == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][0] == "betti"))
def test_default_betti_reports_are_certified(name):
    report = json.loads((GOLDEN / f"{name}.json").read_bytes())
    assert "--degree-bound" not in CASES[name]
    assert report["betti_certified"] is True and report["degree_bound"] >= report["ceiling"]


def test_regenerating_an_unknown_case_exits_1_and_writes_nothing():
    before = {f.name: (f.read_bytes(), f.stat().st_mtime_ns) for f in GOLDEN.iterdir()}
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, __file__, "betti_points", "no_such_case"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1 and "no_such_case" in proc.stderr and proc.stdout == ""
    assert {f.name: (f.read_bytes(), f.stat().st_mtime_ns) for f in GOLDEN.iterdir()} == before


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        print(f"unknown golden case: {', '.join(unknown)} (known: {', '.join(CASES)})", file=sys.stderr)
        sys.exit(1)
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        path = GOLDEN / f"{name}.json"
        new = report_bytes(CASES[name])
        changed = not path.exists() or path.read_bytes() != new
        path.write_bytes(new)
        print(f"{path}: {'changed' if changed else 'unchanged'}")
    sys.exit(0)
