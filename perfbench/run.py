"""stardefect benchmark: three CLI workloads, checked answers, traced layers.

    python3 perfbench/run.py --workload points-seq --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
Each pass runs the workload's job list through ``stardefect.cli.main`` in a
fresh child interpreter (module caches start cold, as for a CLI user). A run
makes at least one pass, and more while the next would still end within
``--seconds``. Every answer is checked against ``expected.json``.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` runs the tracer self-check, then untraced and traced passes,
and prints the per-layer metrics. The last stdout line is the result object;
the line before it and ``.perfbench/<workload>-seed<N>-trace<T>.json`` hold
the details: machine facts, seeds used, every pass and every failure.
README.md in this directory says why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())
FIELD_PRIME = 32003  # the CLI default; no job passes --field
SETUP_REPEATS = 12
PASS_TIMEOUT_S = 170
RUN_BUDGET_S = 150  # no new pass starts once one more would likely end past this
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import stardefect.cli\n"
    "stardefect.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def derive_seed(workload: str, seed: int) -> int:
    """Input seed for the program, a fixed function of the benchmark seed."""
    return random.Random(f"{workload}/{seed}").randrange(1, 1_000_000)


# ---------------------------------------------------------------------------
# workloads: job lists and answer checks
# ---------------------------------------------------------------------------


def points_seq(seed):
    k = derive_seed("points-seq", seed)
    return [["sdefect", "--points", f"random:s=8,seed={k}", "--m", "0..7", "--json"]], {"point_seed": k}


def monomial_grid(seed):
    # The grid is fixed by the paper; the seed is recorded and changes nothing.
    return [["verify", "monomial-grid", "--n-max", "5", "--m-max", "3", "--json"]], {}


def resolution_thm(seed):
    k = derive_seed("resolution-thm", seed)
    return [["verify", "resolution-thm", "--seed", str(k), "--json"]], {"star_seed": k}


def check_points_seq(rep: dict, probe: list) -> list[str]:
    exp = EXPECTED["points-seq"]
    res = rep["results"]
    errs = []
    if len(rep["input"]["points"]) != 8:
        errs.append(f"expected 8 points, got {len(rep['input']['points'])}")
    if [r["m"] for r in res] != exp["m"]:
        errs.append(f"m values {[r['m'] for r in res]}")
    if [r["total"] for r in res] != exp["total"]:
        errs.append(f"totals {[r['total'] for r in res]} != {exp['total']}")
    if [r["per_degree"] for r in res] != exp["per_degree"]:
        errs.append(f"per-degree counts {[r['per_degree'] for r in res]}")
    if not all(r["total_certified"] for r in res):
        errs.append("a total is not certified")
    return errs


def check_monomial_grid(rep: dict, probe: list) -> list[str]:
    exp = EXPECTED["monomial-grid"]
    checks = rep["checks"]
    errs = []
    if rep["ok"] is not True or not all(c["ok"] for c in checks):
        errs.append(f"failed checks: {[c for c in checks if not c['ok']]}")
    counts = dict(Counter(c["check"] for c in checks))
    if counts != exp["check_counts"]:
        errs.append(f"check counts {counts}")
    skipped = sorted([c["n"], c["c"], c["m"]] for c in checks if c["check"] == "oracle-equivalence-skipped")
    if skipped != exp["skipped"]:
        errs.append(f"skipped oracle cells {skipped}")
    return errs


def check_resolution_thm(rep: dict, probe: list) -> list[str]:
    exp = EXPECTED["resolution-thm"]
    checks = rep["checks"]
    errs = []
    if rep["ok"] is not True or not all(c["ok"] for c in checks):
        errs.append(f"failed checks: {[c for c in checks if not c['ok']]}")
    names = [[c["check"], c.get("vars"), c.get("degrees"), c.get("s")] for c in checks]
    if names != exp["checks"]:
        errs.append(f"check list {names}")
    if probe != exp["betti"]:
        errs.append(f"Betti tables {probe} != predicted {exp['betti']}")
    return errs


WORKLOADS = {
    "points-seq": (points_seq, check_points_seq),
    "monomial-grid": (monomial_grid, check_monomial_grid),
    "resolution-thm": (resolution_thm, check_resolution_thm),
}

# The small traced job of the tracer self-check, and the spans it must reach.
SELF_CHECK_JOB = ["sdefect", "--points", "random:s=4,seed=1", "--m", "2", "--json"]
SELF_CHECK_SPANS = (
    "cli.main",
    "points.random_general_points",
    "points.regularity_points",
    "points.ideal_of_points",
    "points.symbolic_power_pieces",
    "points.power_ideal",
    "gradedideal.sdefect",
    "gradedideal.graded_piece",
    "linalg.echelon",
    "linalg.rank",
    "linalg.kernel_basis",
    "linalg.matmul_mod",
    "poly.rank_exponents",
    "poly.multiply",
)

# Per-layer metrics read off one span: (metric, span, field). Layer sums and
# the elimination counters are added in layer_metrics.
SPAN_METRICS = [
    ("linalg.echelon.calls", "linalg.echelon", "calls"),
    ("linalg.echelon.self_s", "linalg.echelon", "self_s"),
    ("linalg.rank.self_s", "linalg.rank", "self_s"),
    ("linalg.kernel_basis.self_s", "linalg.kernel_basis", "self_s"),
    ("linalg.matmul_mod.calls", "linalg.matmul_mod", "calls"),
    ("linalg.matmul_mod.self_s", "linalg.matmul_mod", "self_s"),
    ("poly.rank_exponents.calls", "poly.rank_exponents", "calls"),
    ("poly.rank_exponents.self_s", "poly.rank_exponents", "self_s"),
    ("poly.multiply.calls", "poly.multiply", "calls"),
    ("poly.multiply.self_s", "poly.multiply", "self_s"),
    ("gradedideal.graded_piece.calls", "gradedideal.graded_piece", "calls"),
    ("gradedideal.graded_piece.self_s", "gradedideal.graded_piece", "self_s"),
    ("gradedideal.sdefect.self_s", "gradedideal.sdefect", "self_s"),
    ("gradedideal.min_gens.self_s", "gradedideal.min_gens", "self_s"),
    ("gradedideal.graded_betti.self_s", "gradedideal.graded_betti", "self_s"),
    ("points.symbolic_power_pieces.self_s", "points.symbolic_power_pieces", "self_s"),
    ("points.regularity_points.calls", "points.regularity_points", "calls"),
    ("points.ideal_of_points.calls", "points.ideal_of_points", "calls"),
    ("points.power_ideal.self_s", "points.power_ideal", "self_s"),
    ("points.random_general_points.self_s", "points.random_general_points", "self_s"),
    ("stargeneral.certify.calls", "stargeneral.certify", "calls"),
    ("stargeneral.certify.self_s", "stargeneral.certify", "self_s"),
    ("stargeneral.colon_lemma_check.self_s", "stargeneral.colon_lemma_check", "self_s"),
]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: Path, repeats: int, write_bytecode: bool = False) -> list[float]:
    """Seconds to import stardefect and build the CLI parser, per fresh interpreter.

    With ``write_bytecode`` one untimed import first writes the bytecode
    caches an installed package would already have.
    """
    env = child_env(root)
    times = []
    for i in range(repeats + write_bytecode):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True
        )
        if i or not write_bytecode:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_pass(root: Path, jobs: list, trace: bool, spans_out: str | None = None) -> dict:
    spec = {"src": str(root / "src"), "jobs": jobs, "trace": trace, "spans_out": spans_out}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec),
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def check_pass(p: dict, check, reference: list | None) -> list[str]:
    """Failures of one pass: one entry per failed job, empty when all pass.

    ``reference`` holds the parsed answers of an earlier pass of the same jobs;
    every pass must give the same mathematical content.
    """
    failures = []
    for idx, job in enumerate(p["jobs"]):
        if job["code"] != 0:
            failures.append(f"{job['argv']}: exit code {job['code']}: {job['stderr'][-500:]}")
            continue
        try:
            rep = json.loads(job["stdout"])
            errs = check(rep, p["betti_probe"])
        except (ValueError, KeyError, TypeError) as exc:
            errs = [f"unreadable report: {exc!r}"]
            rep = None
        if reference is not None and rep != reference[idx]:
            errs.append("answer differs from the first pass")
        if errs:
            failures.append(f"{job['argv']}: " + "; ".join(errs))
    return failures


def answers(p: dict) -> list:
    out = []
    for job in p["jobs"]:
        try:
            out.append(json.loads(job["stdout"]))
        except ValueError:
            out.append(None)
    return out


def timed_passes(root, jobs, trace, seconds, started, count=None, spans_out=None):
    """At least one pass; more while the next one would still end within
    ``seconds`` (or exactly ``count`` passes). A run never starts a pass that
    would likely end past RUN_BUDGET_S."""
    passes = []
    t0 = time.monotonic()
    while True:
        if count is not None and len(passes) >= count:
            break
        if passes:
            elapsed = time.monotonic() - t0
            per_pass = elapsed / len(passes)
            if count is None and elapsed + per_pass > seconds:
                break
            if time.monotonic() - started + per_pass > RUN_BUDGET_S:
                break
        passes.append(run_pass(root, jobs, trace, spans_out))
    return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(trace: dict) -> dict:
    spans = trace["spans"]
    get = lambda name, field: spans.get(name, {}).get(field, 0)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + ".")), "s")
    out["monomial.calls"] = (sum(v["calls"] for k, v in spans.items() if k.startswith("monomial.")), "count")
    for metric, span, field in SPAN_METRICS:
        out[metric] = (get(span, field), "s" if field == "self_s" else "count")
    e = trace["elim"]
    out["linalg.elim.calls"] = (e["calls"], "count")
    out["linalg.elim.rows"] = (e["rows"], "count")
    out["linalg.elim.cells"] = (e["cells"], "count")
    out["linalg.elim.rank_frac"] = (e["rank"] / e["rows"] if e["rows"] else 0.0, "ratio")
    out["linalg.elim.big_calls"] = (e["big_calls"], "count")
    gp = trace["graded_piece"]
    out["gradedideal.graded_piece.elim_free_frac"] = (gp["elim_free"] / gp["calls"] if gp["calls"] else 0.0, "ratio")
    return out


def counts_of(trace: dict) -> dict:
    """The parts of a trace that must repeat exactly between runs."""
    return {
        "calls": {k: v["calls"] for k, v in trace["spans"].items()},
        "elim": trace["elim"],
        "graded_piece": trace["graded_piece"],
    }


def self_check(root: Path) -> list[str]:
    """The tracer's own checks on a small job; returns the failures."""
    plain = run_pass(root, [SELF_CHECK_JOB], trace=False)
    traced = [run_pass(root, [SELF_CHECK_JOB], trace=True) for _ in range(2)]
    errs = []
    for p in [plain] + traced:
        if p["jobs"][0]["code"] != 0:
            errs.append(f"self-check job exited {p['jobs'][0]['code']}: {p['jobs'][0]['stderr'][-500:]}")
    spans = traced[0]["trace"]["spans"]
    missing = [s for s in SELF_CHECK_SPANS if spans.get(s, {}).get("calls", 0) < 1]
    if missing:
        errs.append(f"spans with no recorded call: {missing}")
    for t in traced:
        total_self = sum(v["self_s"] for v in t["trace"]["spans"].values())
        if total_self > t["wall_s"]:
            errs.append(f"self times sum to {total_self} s, more than the traced wall {t['wall_s']} s")
        if answers(t) != answers(plain):
            errs.append("traced answer differs from the untraced one")
    if counts_of(traced[0]["trace"]) != counts_of(traced[1]["trace"]):
        errs.append("trace counts differ between two traced runs")
    return errs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "stardefect" / "cli.py").is_file():
        print(f"error: no stardefect sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    make_jobs, check = WORKLOADS[args.workload]
    jobs, seeds = make_jobs(args.seed)

    details: dict = {"workload": args.workload, "seed": args.seed, "jobs": jobs, "input_seeds": seeds, "field": FIELD_PRIME}
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    failures: list[str] = []
    attempted = 0
    if args.trace == 0:
        # half the set-up samples before the passes and half after, so that a
        # slow or fast spell of a shared machine does not set them all
        setup = measure_setup(root, SETUP_REPEATS // 2, write_bytecode=True)
        passes = timed_passes(root, jobs, False, args.seconds, started)
        setup += measure_setup(root, SETUP_REPEATS - SETUP_REPEATS // 2)
        reference = answers(passes[0])
        for p in passes:
            failures += check_pass(p, check, reference)
        attempted = len(jobs) * len(passes)
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
            "ok_frac": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
        }
        details["setup_s"] = setup
    else:
        sc = self_check(root)
        attempted += 1
        if sc:
            failures.append("tracer self-check: " + "; ".join(sc))
        plain = timed_passes(root, jobs, False, args.seconds, started)
        spans_out = str(out_dir / f"{stem}-spans.json")
        traced = timed_passes(root, jobs, True, args.seconds, started, count=len(plain), spans_out=spans_out)
        reference = answers(plain[0])
        for p in plain:
            failures += check_pass(p, check, reference)
        for t in traced:
            errs = check_pass(t, check, reference)
            if not errs and counts_of(t["trace"]) != counts_of(traced[0]["trace"]):
                errs = ["trace counts differ from the first traced pass"]
            failures += errs
        attempted += len(jobs) * (len(plain) + len(traced))
        per_pass = [layer_metrics(t["trace"]) for t in traced]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
            for name, (_, unit) in per_pass[0].items()
        }
        overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        details["trace"] = traced[0]["trace"]
        passes = plain + traced
    if args.workload == "points-seq":
        details["input_seeds"]["point_seed_used"] = [a[0]["input"]["seed"] if a[0] else None for a in map(answers, passes)]
    details["facts"] = passes[0]["facts"]
    details["passes"] = [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")} | {"traced": "trace" in p} for p in passes]
    details["failures"] = failures

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
