"""Command-line interface: sdefect / hilbert / betti reports and the
theorem-verification suites, with canonical JSON output.

Exit codes: 0 success, 1 input or certification error (or an input too
large to hold in memory), 2 a verification ran but a theorem check failed.
Every command runs on one OpenBLAS thread (``linalg.one_blas_thread``); the
count the caller had is back when ``main`` returns.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import comb

from .gradedideal import GradedIdeal, graded_betti, sdefect as lab_sdefect
from .linalg import PrimeField, one_blas_thread
from .monomial import (
    sdefect_star_monomial,
    star_monomial,
    symbolic_power_star,
    verify_cube_decomposition,
    verify_square_decomposition,
    verify_support_decomposition,
)
from .poly import HomogPoly, ParseError, basis_size, parse_form
from .points import (
    PointSet,
    make_point_set,
    power_ideal,
    random_general_lines,
    random_general_points,
    regularity_points,
    sdefect2_fits_classification,
    sdefect_points,
    star_points_from_lines,
    symbolic_power_points,
)
from .stargeneral import (
    CertificationError,
    StarConfig,
    colon_lemma_check,
    random_star_config,
    star_ideal,
    symbolic_power_star_general,
    verify_cube_decomposition_general,
    verify_power_identity,
    verify_resolution_theorems,
    verify_square_decomposition_general,
)
from .tables import verify_table1, verify_table2

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2


def canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


_SPEC_ITEM = re.compile(r"(\w+)=(\[[^\[\]]*\]|[^,\[\]]*)(?:,|$)")


def _parse_kv_spec(spec: str, schema: dict[str, type], required: str) -> dict:
    """Parse 'random:s=8,seed=1' / 'random:degrees=[1,1,2,2],seed=7' specs.

    ``schema`` maps each accepted key to ``int`` or ``list`` (of ints); the
    key ``required`` must be present.  Anything else is a ValueError.
    """
    body = spec.split(":", 1)[1]
    out: dict = {}
    pos = 0
    while pos < len(body):
        item = _SPEC_ITEM.match(body, pos)
        if item is None:
            raise ValueError(f"malformed spec {spec!r}: expected key=value items at {body[pos:]!r}")
        key, text = item.groups()
        kind = schema.get(key)
        if kind is None:
            raise ValueError(f"spec {spec!r}: unknown key {key!r} (accepted: {', '.join(schema)})")
        if key in out:
            raise ValueError(f"spec {spec!r}: {key} given twice")
        is_list = text.startswith("[")
        if is_list != (kind is list):
            raise ValueError(f"spec {spec!r}: {key} must be {'a list like [1,2]' if kind is list else 'an integer'}")
        try:
            out[key] = [int(t) for t in text[1:-1].split(",") if t] if is_list else int(text)
        except ValueError:
            raise ValueError(f"spec {spec!r}: {key} must hold integers") from None
        pos = item.end()
    if required not in out:
        raise ValueError(f"spec {spec!r} needs {required}=")
    return out


def load_points(spec: str, field: PrimeField, default_seed: int) -> PointSet:
    if spec.startswith("random:"):
        kv = _parse_kv_spec(spec, {"s": int, "seed": int}, "s")
        return random_general_points(kv["s"], kv.get("seed", default_seed), field.p)
    rows = []
    with open(spec) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":")
            if len(parts) != 3:
                raise ValueError(f"{spec}:{lineno}: expected a:b:c")
            try:
                rows.append(tuple(field.of(Fraction(t)) for t in parts))
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"{spec}:{lineno}: entries must be integers or p/q with q nonzero mod {field.p}"
                ) from None
    if not rows:
        raise ValueError(f"{spec}: no points")
    return make_point_set(rows, field)


def load_lines(spec: str, field: PrimeField, default_seed: int) -> list[HomogPoly]:
    if spec.startswith("random:"):
        kv = _parse_kv_spec(spec, {"s": int, "seed": int}, "s")
        return random_general_lines(kv["s"], kv.get("seed", default_seed), field.p)
    out = []
    with open(spec) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            form = parse_form(raw, field, num_vars=3)
            if form.degree != 1:
                raise ValueError(f"line file contains a non-linear form: {raw!r}")
            out.append(form)
    return out


def load_point_input(args, field: PrimeField) -> PointSet:
    """The points of --points, or the pairwise meets of the --lines."""
    if args.c is not None:
        raise ValueError("--c applies only with --star")
    if args.points:
        return load_points(args.points, field, args.seed)
    return star_points_from_lines(load_lines(args.lines, field, args.seed))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _codimension(given, c_flag: int | None, where: str):
    """The codimension of a star input: its own value, or --c; both given and different is an error."""
    if given is not None and c_flag is not None and given != c_flag:
        raise ValueError(f"--c {c_flag} conflicts with c = {given!r} in {where}")
    return c_flag if given is None else given


def load_star(spec: str, c_flag: int | None, field: PrimeField, default_seed: int) -> StarConfig:
    if spec.startswith("random:"):
        kv = _parse_kv_spec(spec, {"degrees": list, "seed": int, "c": int, "vars": int}, "degrees")
        c = _codimension(kv.get("c"), c_flag, f"star spec {spec!r}")
        nv = kv.get("vars", 3)
        if c is None:
            raise ValueError("star spec needs c= or --c")
        return random_star_config(nv, c, kv["degrees"], kv.get("seed", default_seed), field.p)
    with open(spec) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{spec}: star config must be a JSON object")
    nv = data.get("vars")
    forms = data.get("forms")
    c = _codimension(data.get("c"), c_flag, spec)
    if not _is_int(nv) or nv < 2:
        raise ValueError(f'{spec}: "vars" must be an integer >= 2')
    if not isinstance(forms, list) or not all(isinstance(t, str) for t in forms):
        raise ValueError(f'{spec}: "forms" must be a list of polynomial strings')
    if c is None:
        raise ValueError("star config needs a codimension")
    if not _is_int(c):
        raise ValueError(f'{spec}: "c" must be an integer')
    return StarConfig.build(nv, c, [parse_form(t, field, num_vars=nv) for t in forms])


def degree_flag(text: str) -> int:
    """A degree flag (--degree-bound, --max-degree): an integer >= 0."""
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if d < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {d}")
    return d


def parse_m_range(text: str) -> list[int]:
    """Powers for sdefect: 'M' or 'A..B' with 0 <= A <= B."""
    lo, dots, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if dots else a
    except ValueError:
        raise ValueError(f"--m must be an integer or a range A..B, got {text!r}") from None
    if a < 0 or b < a:
        raise ValueError(f"--m needs 0 <= A <= B, got {text!r}")
    return list(range(a, b + 1))


def parse_power(text: str | None) -> int:
    """The one power m >= 1 of hilbert and betti (default 1)."""
    if text is None:
        return 1
    try:
        m = int(text)
    except ValueError:
        raise ValueError(f"--m must be an integer, got {text!r}") from None
    if m < 1:
        raise ValueError(f"--m must be at least 1, got {m}")
    return m


def _points_json(X: PointSet) -> list[str]:
    return [f"{a}:{b}:{c}" for a, b, c in X.points]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_sdefect(args, field) -> tuple[int, dict]:
    ms = parse_m_range(args.m)
    results = []
    report = {"command": "sdefect", "field": field.p}
    if args.points or args.lines:
        if args.degree_bound is not None:
            raise ValueError("--degree-bound applies to sdefect only with --star")
        X = load_point_input(args, field)
        report["input"] = {
            "points": _points_json(X),
            "seed": X.seed,
            "certificate": X.certificate,
        }
        for m, rep in zip(ms, sdefect_points(X, ms)):
            results.append(
                {
                    "m": m,
                    "per_degree": {str(d): v for d, v in sorted(rep.per_degree.items())},
                    "total": rep.total,
                    "degree_bound": rep.degree_bound_used,
                    "total_certified": True,
                }
            )
    else:
        cfg = load_star(args.star, args.c, field, args.seed)
        report["input"] = {
            "vars": cfg.num_vars,
            "c": cfg.c,
            "degrees": cfg.degrees,
            "certificate": cfg.certificate,
        }
        ic = star_ideal(cfg)
        for m in ms:
            sym = symbolic_power_star_general(cfg, m)
            pw = power_ideal(ic, m)
            if args.degree_bound is not None:
                D = args.degree_bound
            else:
                D = max((g.degree for g in sym.gens + pw.gens), default=0)
            # images of the generators of I^(m) generate I^(m)/I^m
            certified = D >= sym.top_gen_degree()
            rep = lab_sdefect(sym, pw, D)
            results.append(
                {
                    "m": m,
                    "per_degree": {str(d): v for d, v in sorted(rep.per_degree.items())},
                    "total": rep.total if certified else None,
                    "observed_total_up_to_bound": rep.total,
                    "degree_bound": D,
                    "total_certified": certified,
                }
            )
    report["results"] = results
    return EXIT_OK, report


def cmd_hilbert(args, field) -> tuple[int, dict]:
    report = {"command": "hilbert", "field": field.p}
    m = parse_power(args.m)
    if args.points or args.lines:
        X = load_point_input(args, field)
        J = symbolic_power_points(X, m)
        top = args.max_degree if args.max_degree is not None else m * regularity_points(X) + 1
        report["input"] = {"points": _points_json(X), "seed": X.seed}
        # R/I_X^(m) is Cohen-Macaulay of dimension 1 and degree e: HF stays at e once it gets there
        e = len(X) * comb(m + 1, 2)
    else:
        cfg = load_star(args.star, args.c, field, args.seed)
        J = symbolic_power_star_general(cfg, m)
        top = args.max_degree if args.max_degree is not None else max(g.degree for g in J.gens) + 2
        report["input"] = {"vars": cfg.num_vars, "c": cfg.c, "degrees": cfg.degrees}
        e = None  # every degree of a star's HF is read off its piece
    hf: list[int] = []
    for d in range(top + 1):
        hf.append(e if hf and hf[-1] == e else J.hilbert_function(d))
    report["m"] = m
    report["hilbert_function"] = hf
    report["max_degree"] = top
    return EXIT_OK, report


def cmd_betti(args, field) -> tuple[int, dict]:
    report = {"command": "betti", "field": field.p}
    m = parse_power(args.m)
    if args.points or args.lines:
        X = load_point_input(args, field)
        # beta_{i,j} != 0 only for j <= reg(I_X^(m)) + i <= m*reg(I_X) + 1 (Hilbert-Burch)
        ceiling = m * regularity_points(X) + 1
        J = symbolic_power_points(X, m)
        report["input"] = {"points": _points_json(X), "seed": X.seed}
    else:
        cfg = load_star(args.star, args.c, field, args.seed)
        J = symbolic_power_star_general(cfg, m)
        ceiling = m * cfg.total_degree  # the Taylor ceiling, carried over by substitution
        report["input"] = {"vars": cfg.num_vars, "c": cfg.c, "degrees": cfg.degrees}
    D = args.degree_bound if args.degree_bound is not None else ceiling
    table = graded_betti(J, D)
    report["m"] = m
    report["degree_bound"] = D
    report["ceiling"] = ceiling
    report["betti_certified"] = D >= ceiling
    report["betti"] = table.to_json()["betti"]
    report["display"] = table.display()
    return EXIT_OK, report


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def monomial_ideal_to_graded(I, field):
    gens = [HomogPoly(I.num_vars, sum(mono), {mono: field.of(1)}, field) for mono in I.gens]
    return GradedIdeal(I.num_vars, gens, field)


def record(checks: list[dict], name: str, ok, **info):
    """Append one named check, its verdict and its details to a suite's list."""
    checks.append({"check": name, "ok": bool(ok), **info})


DESK_SCALE_COLUMNS = 3100  # largest graded-piece width the dense engine takes on


def verify_monomial_grid(n_max: int, m_max: int, field: PrimeField) -> dict:
    checks = []
    sdefects: dict[tuple[int, int, int], int] = {}

    def combinatorial(n: int, c: int, m: int) -> int:
        """sdefect_star_monomial(n, c, m), computed once per cell of the report."""
        if (n, c, m) not in sdefects:
            sdefects[n, c, m] = sdefect_star_monomial(n, c, m)
        return sdefects[n, c, m]

    for n in range(1, n_max + 1):
        for c in range(1, n + 1):
            for m in range(1, m_max + 1):
                record(
                    checks,
                    "support-decomposition",
                    verify_support_decomposition(n, c, m),
                    n=n, c=c, m=m,
                )
                got = combinatorial(n, c, m)
                record(
                    checks,
                    "sdefect-one-iff-c2m2",
                    (got == 1) == (c == 2 and m == 2),
                    n=n, c=c, m=m, sdefect=got,
                )
            if c >= 2:
                record(checks, "square-decomposition", verify_square_decomposition(n, c), n=n, c=c)
                record(
                    checks,
                    "square-sdefect-binomial",
                    combinatorial(n, c, 2) == comb(n + 1, c - 2),
                    n=n, c=c,
                )
            if c >= 3:
                record(checks, "cube-decomposition", verify_cube_decomposition(n, c), n=n, c=c)
    # combinatorial vs graded-linear-algebra sdefect, within dense desk scale
    for n in range(1, n_max + 1):
        for c in range(1, n + 1):
            for m in range(1, m_max + 1):
                isym = symbolic_power_star(n, c, m)
                ipow = star_monomial(n, c).power(m)
                D = max(sum(g) for g in isym.gens + ipow.gens) + 1
                if basis_size(n + 1, D) > DESK_SCALE_COLUMNS:
                    record(checks, "oracle-equivalence-skipped", True, n=n, c=c, m=m, reason="piece width beyond dense desk scale")
                    continue
                rep = lab_sdefect(
                    monomial_ideal_to_graded(isym, field),
                    monomial_ideal_to_graded(ipow, field),
                    D,
                )
                record(
                    checks,
                    "oracle-equivalence",
                    rep.total == combinatorial(n, c, m),
                    n=n, c=c, m=m, lab=rep.total,
                )
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def verify_general_points(s_max: int, seeds: list[int], field: PrimeField) -> dict:
    rows = []
    for s in range(1, s_max + 1):
        per_seed = [sdefect_points(random_general_points(s, seed, field.p), [2])[0].total for seed in seeds]
        ok = len(set(per_seed)) == 1 and sdefect2_fits_classification(s, per_seed[0])
        rows.append({"s": s, "sdefect2": per_seed, "seeds": seeds, "ok": ok})
    return {"ok": all(r["ok"] for r in rows), "rows": rows}


def verify_star_decompositions(field: PrimeField, seed: int) -> dict:
    checks = []
    # monomial specializations agree with the combinatorial verifiers
    coords3 = [HomogPoly.variable(3, j, field) for j in range(3)]
    cfg = StarConfig.build(3, 2, coords3)
    record(checks, "square-monomial-specialization", verify_square_decomposition_general(cfg), n=2, c=2)
    coords4 = [HomogPoly.variable(4, j, field) for j in range(4)]
    record(
        checks,
        "cube-monomial-specialization",
        verify_cube_decomposition_general(StarConfig.build(4, 3, coords4)),
        n=3, c=3,
    )
    # generic samples
    cfg_lines = random_star_config(4, 2, [1, 1, 1, 1], seed, field.p)
    record(checks, "square-4-lines-P3", verify_square_decomposition_general(cfg_lines), degrees=[1, 1, 1, 1])
    cfg_quad = random_star_config(4, 3, [2, 2, 2, 2, 2], seed, field.p)
    record(checks, "square-5-quadrics-P3", verify_square_decomposition_general(cfg_quad), degrees=[2] * 5)
    record(checks, "cube-5-quadrics-P3", verify_cube_decomposition_general(cfg_quad), degrees=[2] * 5)
    cfg_mixed = random_star_config(3, 2, [1, 1, 2, 2], seed, field.p)
    record(checks, "square-mixed-P2", verify_square_decomposition_general(cfg_mixed), degrees=[1, 1, 2, 2])
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def verify_resolution_suite(field: PrimeField, seed: int) -> dict:
    checks = []
    patterns = [
        (3, [1, 1, 1]),
        (3, [1, 1, 2, 2]),
        (3, [1, 2, 2, 3]),
        (4, [1, 1, 2, 2]),
        (4, [1, 2, 2, 3]),
    ]
    for nv, degrees in patterns:
        cfg = random_star_config(nv, 2, degrees, seed, field.p)
        res = verify_resolution_theorems(cfg)
        record(checks, "square-betti", res["square_ok"], vars=nv, degrees=degrees)
        record(checks, "symbolic-square-betti", res["symbolic_ok"], vars=nv, degrees=degrees)
        record(checks, "colon-identity", colon_lemma_check(cfg), vars=nv, degrees=degrees)
    # linear specialization of the closed form
    for s in (4, 5):
        lines = random_general_lines(s, seed, field.p)
        cfg = StarConfig.build(3, 2, lines)
        res = verify_resolution_theorems(cfg)
        sym = res["symbolic"]
        ok = (
            res["symbolic_ok"]
            and sym.row(0) == {s: 1, 2 * s - 2: s}
            and sym.row(1) == {2 * s - 1: s}
        )
        record(checks, "linear-specialization", ok, s=s)
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def verify_power_identity_suite(field: PrimeField, seed: int) -> dict:
    checks = []
    for s in (4, 5):
        lines = random_general_lines(s, seed, field.p)
        X = star_points_from_lines(lines)
        for m, rep in zip((1, 2), sdefect_points(X, [2, 4])):
            ok = verify_power_identity(lines, m)
            bound = 1 + s * (m - 1)
            record(checks, "power-identity", ok and rep.total <= bound, s=s, m=m, identity=bool(ok), sdefect_2m=rep.total, bound=bound)
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def verify_paper_tables() -> dict:
    t1 = verify_table1()
    t2 = verify_table2()
    return {"ok": t1["ok"] and t2["ok"], "table1": t1, "table2": t2}


# suite name -> (runner, the suite's size flags with their defaults)
VERIFY_SUITES = {
    "monomial-grid": (lambda a, f: verify_monomial_grid(a.n_max, a.m_max, f), {"n_max": 5, "m_max": 3}),
    "general-points": (
        lambda a, f: verify_general_points(a.s_max, [a.seed + i for i in range(a.seeds)], f),
        {"s_max": 10, "seeds": 1},
    ),
    "star-decompositions": (lambda a, f: verify_star_decompositions(f, a.seed), {}),
    "resolution-thm": (lambda a, f: verify_resolution_suite(f, a.seed), {}),
    "power-identity": (lambda a, f: verify_power_identity_suite(f, a.seed), {}),
    "paper-tables": (lambda a, f: verify_paper_tables(), {}),
}
SIZE_FLAGS = [flag for _, sizes in VERIFY_SUITES.values() for flag in sizes]
SEEDED_SUITES = ("general-points", "star-decompositions", "resolution-thm", "power-identity")


def cmd_verify(args, field) -> tuple[int, dict]:
    run, sizes = VERIFY_SUITES[args.suite]
    for flag in SIZE_FLAGS:
        value, name = getattr(args, flag), "--" + flag.replace("_", "-")
        if value is None:
            setattr(args, flag, sizes.get(flag))
        elif flag not in sizes:
            raise ValueError(f"{name} does not apply to verify {args.suite}")
        elif value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if args.seed is None:
        args.seed = 1
    elif args.suite not in SEEDED_SUITES:
        raise ValueError(f"--seed does not apply to verify {args.suite}")
    out = run(args, field)
    report = {"command": "verify", "suite": args.suite, "field": field.p, **out}
    return (EXIT_OK if out["ok"] else EXIT_MISMATCH), report


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1 with an error: line, like any other
    malformed input, instead of argparse's own exit code 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


FIELD_HELP = "prime p with 5 <= p <= 8388593, the range of exact elimination (default 32003)"


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="stardefect",
        description="Exact symbolic powers, symbolic defects, Hilbert functions "
        "and graded Betti numbers for star configurations and plane point sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, degree_bound=True):
        p.add_argument("--field", type=int, default=32003, help=FIELD_HELP)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--json", action="store_true", help="canonical JSON on stdout")
        if degree_bound:
            p.add_argument("--degree-bound", type=degree_flag, default=None)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--points", help="file of a:b:c rows, or random:s=8,seed=1")
        g.add_argument("--lines", help="file of linear forms, or random:s=5,seed=3")
        g.add_argument("--star", help="JSON config file, or random:degrees=[1,1,2,2],seed=7")
        p.add_argument("--c", type=int, default=None, help="codimension for --star")

    p = sub.add_parser("sdefect", help="symbolic defect report")
    common(p)
    p.add_argument("--m", default="2", help="power or range, e.g. 2 or 0..6")

    p = sub.add_parser("hilbert", help="Hilbert function of R/I^(m)")
    common(p, degree_bound=False)  # --max-degree is the hilbert bound
    p.add_argument("--m", default=None)
    p.add_argument("--max-degree", type=degree_flag, default=None)

    p = sub.add_parser("betti", help="graded Betti table of I^(m)")
    common(p)
    p.add_argument("--m", default=None)

    p = sub.add_parser("verify", help="theorem verification suites")
    p.add_argument("suite", choices=list(VERIFY_SUITES))
    p.add_argument("--field", type=int, default=32003, help=FIELD_HELP)
    p.add_argument("--seed", type=int, default=None, help=f"{', '.join(SEEDED_SUITES)} only (default 1)")
    for suite, (_, sizes) in VERIFY_SUITES.items():
        for flag, default in sizes.items():
            p.add_argument("--" + flag.replace("_", "-"), type=int, default=None, help=f"{suite} only (default {default})")
    p.add_argument("--json", action="store_true")
    return ap


def _human_lines(report: dict) -> str:
    cmd = report.get("command")
    out = []
    if cmd == "sdefect":
        for row in report["results"]:
            total = row["total"] if row["total"] is not None else f"≥{row['observed_total_up_to_bound']} (uncertified)"
            out.append(f"m={row['m']}: sdefect={total} per-degree={row['per_degree']} (degree bound {row['degree_bound']})")
    elif cmd == "hilbert":
        out.append(f"HF of R/I^({report['m']}) for degrees 0..{report['max_degree']}:")
        out.append(" ".join(str(v) for v in report["hilbert_function"]))
    elif cmd == "betti":
        out.append(report["display"])
        if not report["betti_certified"]:
            out.append(f"(uncertified: degree bound {report['degree_bound']} < ceiling {report['ceiling']})")
    elif cmd == "verify":
        n_ok = 0
        payload = report.get("checks") or report.get("rows") or []
        for c in payload:
            n_ok += bool(c.get("ok"))
            status = "pass" if c.get("ok") else "FAIL"
            desc = {k: v for k, v in c.items() if k not in ("ok",)}
            out.append(f"{status}: {desc}")
        if "table1" in report:
            out.append(f"table1: {'pass' if report['table1']['ok'] else 'FAIL'}")
            out.append(f"table2: {'pass' if report['table2']['ok'] else 'FAIL'}")
            if report["table2"]["transposed_cells"]:
                out.append(f"note: published cells transposed in rows {[a['x'] for a in report['table2']['transposed_cells']]}")
        out.append(f"suite {report['suite']}: {'PASS' if report['ok'] else 'FAIL'}")
    return "\n".join(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        field = PrimeField(args.field)
        # built per call, so a command rebound on this module (the perfbench
        # tracer wraps each one) is the one that runs
        commands = {"sdefect": cmd_sdefect, "hilbert": cmd_hilbert, "betti": cmd_betti, "verify": cmd_verify}
        with one_blas_thread():
            code, report = commands[args.command](args, field)
    except (ValueError, ParseError, CertificationError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        sys.stdout.write(canonical_json(report))
    else:
        print(_human_lines(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
