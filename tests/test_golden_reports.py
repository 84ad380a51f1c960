"""Canonical --json reports compared byte for byte with stored golden files.

Pieces carry canonical RREF bases, so a refactor that keeps the mathematics
must keep these bytes.  After an intended change of a report, rewrite the
files with ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import io
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_bytes(report_bytes(argv))
    sys.exit(0)
