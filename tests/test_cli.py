import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from stardefect import gradedideal, linalg
from stardefect.cli import main
from stardefect.gradedideal import graded_betti
from stardefect.points import (
    random_general_lines,
    random_general_points,
    regularity_points,
    star_points_from_lines,
    symbolic_power_points,
)
from stardefect.stargeneral import random_star_config, symbolic_power_star_general


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sdefect_points_json(capsys):
    code, out = run(capsys, "sdefect", "--points", "random:s=5,seed=1", "--m", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["total"] == 1
    assert rep["results"][0]["per_degree"] == {"5": 1}
    assert rep["input"]["certificate"]["hf_generic"] is True


def test_sdefect_m_range(capsys):
    code, out = run(capsys, "sdefect", "--points", "random:s=3,seed=1", "--m", "0..2", "--json")
    rep = json.loads(out)
    assert [r["total"] for r in rep["results"]] == [0, 0, 1]


def test_points_file_input(tmp_path, capsys):
    f = tmp_path / "pts.pts"
    f.write_text("1:0:0\n0:1:0\n0:0:1\n1:1:1\n# comment\n")
    code, out = run(capsys, "hilbert", "--points", str(f), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["hilbert_function"][:3] == [1, 3, 4]


def test_lines_input_star_points(capsys):
    code, out = run(capsys, "sdefect", "--lines", "random:s=4,seed=2", "--m", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"][0]["total"] == 1
    assert len(rep["input"]["points"]) == 6


def test_star_input_uncertified_total(capsys):
    star = "random:degrees=[1,1,1,1],seed=3,c=2,vars=3"
    # the default bound reaches the top generator degree of I^(2): exact total
    code, out = run(capsys, "sdefect", "--star", star, "--m", "2", "--json")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["total"] == 1 and row["total_certified"] is True
    assert row["observed_total_up_to_bound"] == 1
    # a bound below that degree (4) certifies nothing
    code, out = run(capsys, "sdefect", "--star", star, "--m", "2", "--degree-bound", "3", "--json")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["total"] is None and row["total_certified"] is False
    assert row["observed_total_up_to_bound"] == 0
    code, out = run(capsys, "sdefect", "--star", star, "--m", "2", "--degree-bound", "3")
    assert "sdefect=≥0 (uncertified)" in out


def test_star_config_file(tmp_path, capsys):
    cfgf = tmp_path / "star.json"
    cfgf.write_text(json.dumps({"vars": 3, "c": 2, "forms": ["x0", "x1", "x2"]}))
    code, out = run(capsys, "betti", "--star", str(cfgf), "--json")
    assert code == 0
    rep = json.loads(out)
    assert {(e["i"], e["j"]): e["rank"] for e in rep["betti"]} == {(0, 2): 3, (1, 3): 2}


def betti_counts(rep) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    for e in rep["betti"]:
        out.setdefault(e["i"], {})[e["j"]] = e["rank"]
    return out


def test_betti_star_default_bound_reaches_top_syzygy(capsys):
    # Hilbert-Burch needs 5 syzygies of the 6 generators; one in degree 7
    # lies above the old default bound 2 * sum(deg F) = 6
    code, out = run(capsys, "betti", "--star", "random:degrees=[1,1,1],seed=7,c=2", "--m", "3", "--json")
    assert code == 0
    rep = json.loads(out)
    table = betti_counts(rep)
    assert rep["degree_bound"] == 9
    assert sum(table[1].values()) == 5 and table[1][7] == 3


@pytest.mark.parametrize("degrees", [[1, 1, 1], [1, 1, 2]])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_betti_star_default_table_is_hilbert_burch(capsys, degrees, m):
    # I^(m) of a codimension-two star is perfect of codimension two: its
    # table has #beta_1 = #beta_0 - 1 and no beta_2, within m * sum(deg F)
    star = f"random:degrees=[{','.join(map(str, degrees))}],seed=7,c=2"
    code, out = run(capsys, "betti", "--star", star, "--m", str(m), "--json")
    assert code == 0
    rep = json.loads(out)
    table = betti_counts(rep)
    assert rep["degree_bound"] == m * sum(degrees)
    assert set(table) == {0, 1}
    assert sum(table[1].values()) == sum(table[0].values()) - 1


@pytest.mark.parametrize(
    "argv,ceiling",
    [
        (["--points", "random:s=6,seed=2", "--m", "1", "--degree-bound", "2"], 4),
        (["--star", "random:degrees=[1,1,2],seed=7,c=2", "--m", "2", "--degree-bound", "3"], 8),
    ],
)
def test_betti_below_the_ceiling_is_reported_uncertified(capsys, argv, ceiling):
    # points: m*reg(I_X) + 1 with reg(I_X) = 3 for six general points; stars: m*sum(deg F_i)
    code, out = run(capsys, "betti", *argv, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ceiling"] == ceiling and rep["betti_certified"] is False
    code, out = run(capsys, "betti", *argv)
    assert code == 0
    assert out.splitlines()[-1] == f"(uncertified: degree bound {argv[-1]} < ceiling {ceiling})"


def test_betti_text_at_the_default_bound_has_no_uncertified_line(capsys):
    code, out = run(capsys, "betti", "--points", "random:s=6,seed=2", "--m", "1")
    assert code == 0 and "uncertified" not in out


def _points_case(make):
    """I_X^(m) with a bound one above the ceiling m*reg(I_X) + 1, the default of ``betti --points``."""

    def build(m):
        X = make()
        return symbolic_power_points(X, m), m * regularity_points(X) + 2

    return build


def _star_case(nv, c, degrees):
    """I^(m) of a random star with the default bound of ``betti --star``."""

    def build(m):
        cfg = random_star_config(nv, c, degrees, 7)
        return symbolic_power_star_general(cfg, m), m * cfg.total_degree

    return build


_SATURATED_CASES = (
    [(f"points-{s}", _points_case(lambda s=s: random_general_points(s, 1))) for s in range(1, 11)]
    + [(f"lines-{k}", _points_case(lambda k=k: star_points_from_lines(random_general_lines(k, 2)))) for k in (3, 4, 5)]
    + [
        (f"star-vars{nv}-c{c}-{''.join(map(str, degrees))}", _star_case(nv, c, degrees))
        for nv, c, degrees in [(3, 1, [1, 1]), (3, 1, [1, 2, 2]), (3, 2, [1, 1, 1]), (3, 2, [1, 1, 2]), (2, 1, [1, 1]), (2, 1, [1, 2, 3])]
    ]
)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name,build", _SATURATED_CASES, ids=[c[0] for c in _SATURATED_CASES])
def test_betti_of_a_saturated_ideal_stops_below_num_vars_minus_one(monkeypatch, name, build, m):
    # a saturated J has depth R/J >= 1, so beta_i(J) = 0 for i >= num_vars - 1
    # (Auslander-Buchsbaum); in at most three variables the first syzygies are then
    # free, and the exactness count of graded_betti leaves no degree for a level-2 kernel
    J, D = build(m)
    real = gradedideal._kernel_steps
    levels = []  # the kernel degrees of each syzygy level, as graded_betti hands them over

    def steps(reps, target, degrees, field, dims):
        levels.append(list(degrees))
        return real(reps, target, degrees, field, dims)

    monkeypatch.setattr(gradedideal, "_kernel_steps", steps)
    table = graded_betti(J, D)
    assert all(i < J.num_vars - 1 for (i, _), _ in table.entries)
    if J.num_vars <= 3:
        assert levels[1:] in ([], [[]])


def test_bad_input_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.pts"
    f.write_text("1:2\n")
    code = main(["sdefect", "--points", str(f)])
    assert code == 1
    code = main(["sdefect", "--points", "random:s=3,seed=1", "--field", "15"])
    assert code == 1
    code = main(["sdefect", "--points", "random:s=3,seed=1", "--field", "p"])
    assert code == 1
    f.write_text("# no points\n")
    code = main(["sdefect", "--points", str(f)])
    assert code == 1
    assert capsys.readouterr().err.endswith(f"error: {f}: no points\n")


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_field_range(capsys):
    code, out = run(capsys, "sdefect", "--points", "random:s=4,seed=1", "--m", "2", "--field", "8388593", "--json")
    assert code == 0 and json.loads(out)["field"] == 8388593
    for p in ("8388617", str(10**18 + 3)):  # the next prime; a prime far too large to test by trial division
        code, err = run_err(capsys, "verify", "power-identity", "--field", p)
        assert code == 1 and err.startswith("error:") and "8388593" in err


@pytest.mark.parametrize("flag", ["--points", "--lines"])
def test_random_spec_without_size(capsys, flag):
    code, err = run_err(capsys, "sdefect", flag, "random:seed=1")
    assert code == 1
    assert err.startswith("error:") and "s=" in err


def test_star_file_without_vars(tmp_path, capsys):
    cfgf = tmp_path / "star.json"
    cfgf.write_text(json.dumps({"c": 2, "forms": ["x0", "x1", "x2"]}))
    code, err = run_err(capsys, "sdefect", "--star", str(cfgf))
    assert code == 1
    assert err.startswith("error:") and '"vars"' in err


def test_points_file_zero_denominator(tmp_path, capsys):
    f = tmp_path / "pts.pts"
    f.write_text("1:0:0\n1/0:1:1\n")
    code, err = run_err(capsys, "sdefect", "--points", str(f))
    assert code == 1
    assert err.startswith(f"error: {f}:2:")


@pytest.mark.parametrize("s", ["0", "1"])
def test_random_lines_need_two(capsys, s):
    code, err = run_err(capsys, "sdefect", "--lines", f"random:s={s},seed=1")
    assert code == 1
    assert err == "error: need at least two lines\n"


@pytest.mark.parametrize("command", ["hilbert", "betti"])
def test_power_below_one_rejected(capsys, command):
    code, err = run_err(capsys, command, "--points", "random:s=3,seed=1", "--m", "0")
    assert code == 1
    assert err.startswith("error:") and "--m" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "monomial-grid", "--n-max", "-1", "--m-max", "0"],
        ["verify", "monomial-grid", "--m-max", "0"],
        ["verify", "general-points", "--s-max", "0"],
    ],
)
def test_verify_sizes_below_one_rejected(capsys, argv):
    # a grid or range with no cells would report a vacuous "ok": true
    assert main(argv + ["--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "paper-tables", "--n-max", "3"],
        ["verify", "monomial-grid", "--seeds", "4"],
        ["verify", "resolution-thm", "--s-max", "2"],
        ["verify", "general-points", "--m-max", "2"],
        ["verify", "power-identity", "--seeds", "1"],
        ["verify", "star-decompositions", "--n-max", "5"],
    ],
)
def test_verify_size_flag_of_another_suite_rejected(capsys, argv):
    # --n-max/--m-max size monomial-grid and --s-max/--seeds general-points only
    code, err = run_err(capsys, *argv, "--json")
    assert code == 1
    assert err.startswith("error:") and argv[2] in err and "does not apply" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "paper-tables", "--seed", "9"],
        ["verify", "monomial-grid", "--n-max", "1", "--m-max", "1", "--seed", "9"],
        ["verify", "monomial-grid", "--seed", "1"],
    ],
)
def test_verify_seed_of_unseeded_suite_rejected(capsys, argv):
    # only general-points, star-decompositions, resolution-thm and power-identity draw at random
    code, err = run_err(capsys, *argv, "--json")
    assert code == 1
    assert err.startswith("error:") and "--seed does not apply to verify " + argv[1] in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "general-points", "--s-max", "2"],
        ["verify", "power-identity"],
    ],
)
def test_verify_seed_defaults_to_one(capsys, argv):
    _, default = run(capsys, *argv, "--json")
    _, one = run(capsys, *argv, "--seed", "1", "--json")
    assert json.loads(default)["ok"] and default == one


def test_hilbert_rejects_degree_bound(capsys):
    # --max-degree is the hilbert bound; --degree-bound is not a hilbert flag
    assert main(["hilbert", "--points", "random:s=3,seed=1", "--degree-bound", "1", "--json"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["hilbert", "--points", "random:s=3,seed=1", "--max-degree", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["hilbert_function"] == [1, 3]


@pytest.mark.parametrize("kind", ["--points", "--lines"])
def test_sdefect_points_reject_degree_bound(capsys, kind):
    # the points report certifies its own bound m*reg+1; only --star takes one
    code, err = run_err(capsys, "sdefect", kind, "random:s=3,seed=1", "--m", "2", "--degree-bound", "1", "--json")
    assert code == 1
    assert err.startswith("error:") and "--degree-bound" in err


@pytest.mark.parametrize("command", ["sdefect", "hilbert", "betti"])
@pytest.mark.parametrize("kind", ["--points", "--lines"])
def test_codimension_flag_needs_star(capsys, command, kind):
    code, err = run_err(capsys, command, kind, "random:s=3,seed=1", "--c", "7", "--json")
    assert code == 1
    assert err.startswith("error:") and "--c" in err


def _star_input(tmp_path, source):
    """A c = 2 star as a random spec, or as a JSON config file."""
    if source == "spec":
        return "random:degrees=[1,1,1],seed=7,c=2"
    f = tmp_path / "star.json"
    f.write_text(json.dumps({"vars": 3, "c": 2, "forms": ["x0", "x1", "x2", "x0+x1+x2"]}))
    return str(f)


@pytest.mark.parametrize("command", ["sdefect", "hilbert", "betti"])
@pytest.mark.parametrize("source", ["spec", "file"])
def test_codimension_flag_that_conflicts_with_the_star_input_exits_1(capsys, tmp_path, command, source):
    code, err = run_err(capsys, command, "--star", _star_input(tmp_path, source), "--c", "1", "--json")
    assert code == 1
    assert err.startswith("error:") and "--c 1" in err and "c = 2" in err


@pytest.mark.parametrize("command", ["sdefect", "hilbert", "betti"])
@pytest.mark.parametrize("source", ["spec", "file"])
def test_codimension_flag_equal_to_the_star_input_changes_nothing(capsys, tmp_path, command, source):
    star = _star_input(tmp_path, source)
    code, out = run(capsys, command, "--star", star, "--c", "2", "--json")
    assert code == 0 and json.loads(out)["input"]["c"] == 2
    assert (code, out) == run(capsys, command, "--star", star, "--json")


def test_star_report_carries_certificate(capsys):
    code, out = run(capsys, "sdefect", "--star", "random:degrees=[1,1,2,2],seed=7,c=2,vars=4", "--m", "2", "--json")
    assert code == 0
    cert = json.loads(out)["input"]["certificate"]
    assert [e["subset"] for e in cert] == [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    assert [e["degree"] for e in cert] == [2, 2, 3, 3]
    assert all(isinstance(e["seed"], int) for e in cert)


_int_text = st.integers(-3, 9).map(str)
_junk = st.text(alphabet="abs=,[]:/.-x ", max_size=6)  # no digits: never a valid value


def _spec(items):
    return "random:" + ",".join(items)


# spec bodies that can never describe a point set: no s=, an unknown key, or
# a value of the wrong shape
_bad_points_spec = st.one_of(
    st.lists(_int_text.map(lambda v: "seed=" + v), max_size=2).map(_spec),
    st.tuples(st.sampled_from(["t", "S", "degrees", "c"]), _int_text).map(lambda kv: _spec(["s=3", "=".join(kv)])),
    st.sampled_from(["s=", "s=[3]", "s=3,s=4", "s", "s=3]", "s==3", "seed=[1],s=3"]).map(lambda b: "random:" + b),
    _junk.map(lambda t: "random:" + t + "x"),
)
_bad_star_spec = st.one_of(
    st.sampled_from(["c=2", "degrees=1,c=2", "degrees=[1,a],c=2", "degrees=[1,1,1],c=[2]", "degrees=[1,1,1],k=2"]),
    _junk.map(lambda t: "degrees" + t + "x"),
).map(lambda b: "random:" + b)
_bad_row = st.one_of(
    st.sampled_from(["1/0:1:1", "1:2", "1:2:3:4", "a:b:c", "0:0:0", "1:1/32003:1", "::", "1:2:3/0"]),
    st.tuples(_junk, _junk).map(lambda t: f"{t[0]}x:{t[1]}:1"),
)
_bad_star_json = st.sampled_from(
    [
        "[]",
        "{",
        '{"c": 2, "forms": ["x0", "x1", "x2"]}',
        '{"vars": "3", "c": 2, "forms": ["x0", "x1", "x2"]}',
        '{"vars": 3, "c": 2, "forms": "x0"}',
        '{"vars": 3, "c": 2, "forms": [1, 2, 3]}',
        '{"vars": 3, "c": true, "forms": ["x0", "x1", "x2"]}',
        '{"vars": 3, "c": 2, "forms": ["x0", "x0+x1", "x1"]}',
        '{"vars": 3, "c": 2, "forms": ["1", "x1", "x2"]}',
        '{"vars": 3, "c": 2, "forms": ["x0", "x1", "x7"]}',
    ]
)
_bad_range = st.one_of(
    st.sampled_from(["", "..", "1..", "..2", "3..1", "-1", "1..2..3", "a", "0x2", "[2]", "-:", "--x"]),
    _junk,
)


def _run_quiet(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("points"), _bad_points_spec),
        st.tuples(st.just("lines"), _bad_points_spec),
        st.tuples(st.just("star"), _bad_star_spec),
        st.tuples(st.just("points-file"), st.lists(_bad_row, min_size=1, max_size=3)),
        st.tuples(st.just("star-file"), _bad_star_json),
        st.tuples(st.just("sdefect-m"), _bad_range),
        st.tuples(st.sampled_from(["hilbert-m", "betti-m"]), st.one_of(_bad_range, st.integers(-5, 0).map(str))),
        st.tuples(st.just("seeds"), st.integers(-3, 0).map(str)),
        st.tuples(st.sampled_from(["n-max", "m-max", "s-max"]), st.integers(-3, 0).map(str)),
        st.tuples(
            st.sampled_from(["sdefect-star", "betti-points", "hilbert-points", "hilbert-max"]),
            st.one_of(st.integers(-9, -1).map(str), _junk),
        ),
    )
)
def test_malformed_input_exits_one_without_traceback(case):
    kind, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        if kind == "points":
            argv = ["sdefect", "--points", payload]
        elif kind == "lines":
            argv = ["sdefect", "--lines", payload]
        elif kind == "star":
            argv = ["sdefect", "--star", payload]
        elif kind == "points-file":
            with open(path, "w") as fh:
                fh.write("1:0:0\n" + "\n".join(payload) + "\n")
            argv = ["sdefect", "--points", path]
        elif kind == "star-file":
            with open(path, "w") as fh:
                fh.write(payload)
            argv = ["sdefect", "--star", path]
        elif kind == "seeds":
            argv = ["verify", "general-points", "--s-max", "1", "--seeds", payload]
        elif kind.endswith("-max") and kind != "hilbert-max":
            suite = "general-points" if kind == "s-max" else "monomial-grid"
            argv = ["verify", suite, f"--{kind}", payload]
        elif kind == "sdefect-star":
            argv = ["sdefect", "--star", "random:degrees=[1,1,1],c=2", "--degree-bound", payload]
        elif kind.endswith("-points"):
            argv = [kind.split("-")[0], "--points", "random:s=3,seed=1", "--degree-bound", payload]
        elif kind == "hilbert-max":
            argv = ["hilbert", "--points", "random:s=3,seed=1", "--max-degree", payload]
        else:
            argv = [kind.split("-")[0], "--points", "random:s=3,seed=1", "--m", payload]
        code, err = _run_quiet(argv)
    assert code == 1, (argv, err)
    assert err.startswith("error:") and "Traceback" not in err, (argv, err)


def test_verify_paper_tables(capsys):
    code, out = run(capsys, "verify", "paper-tables", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert [a["x"] for a in rep["table2"]["transposed_cells"]] == [12]


def test_verify_monomial_grid_small(capsys):
    code, out = run(capsys, "verify", "monomial-grid", "--n-max", "3", "--m-max", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True


def test_byte_identical_reports(capsys):
    _, out1 = run(capsys, "sdefect", "--points", "random:s=4,seed=7", "--m", "0..2", "--json")
    _, out2 = run(capsys, "sdefect", "--points", "random:s=4,seed=7", "--m", "0..2", "--json")
    assert out1.encode() == out2.encode()


def test_human_output(capsys):
    code, out = run(capsys, "sdefect", "--points", "random:s=5,seed=1", "--m", "2")
    assert code == 0
    assert "sdefect=1" in out


def test_main_runs_on_one_blas_thread_and_restores_the_count(capsys, monkeypatch):
    counts = [3]  # a stand-in thread count: get reads the last entry, set appends
    monkeypatch.setattr(linalg, "_blas_thread_calls", lambda: (lambda: counts[-1], counts.append))
    assert run(capsys, "sdefect", "--points", "random:s=3,seed=1", "--m", "2", "--json")[0] == 0
    assert counts == [3, 1, 3]
    code, err = run_err(capsys, "sdefect", "--points", "random:s=3,seed=1", "--m", "2..1")
    assert code == 1 and err.startswith("error:")
    assert counts == [3, 1, 3, 1, 3]


def test_main_leaves_the_real_blas_thread_count(capsys):
    calls = linalg._blas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread control in this process")
    before = calls[0]()
    assert run(capsys, "hilbert", "--points", "random:s=4,seed=1", "--json")[0] == 0
    assert calls[0]() == before


def test_m_range_too_large_to_hold_is_an_input_error(capsys):
    # the list of 10**12 powers fails at allocation, before any memory fills
    code, err = run_err(capsys, "sdefect", "--points", "random:s=3,seed=1", "--m", "1..1000000000000")
    assert code == 1 and err == "error: out of memory\n"
