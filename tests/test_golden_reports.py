"""Canonical --json reports compared byte for byte with stored golden files.

Pieces carry canonical RREF bases, so a refactor that keeps the mathematics
must keep these bytes.  After an intended change of a report, rewrite the
files with ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
import json
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_bytes(report_bytes(argv))
    sys.exit(0)
