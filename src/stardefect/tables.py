"""Recomputation of the two published integer tables used by the
degree-restriction argument for large general point sets.

Table 1 lists binom(2a+1, 2) - 1 for a = 4..11 (the degree-(2a-1) case);
Table 2 runs the case analysis for degrees >= 2a over 10 <= |X| <= 35.
Every numeric cell is recomputed from the stated formulas with pure integer
arithmetic and compared against the published values.

One anomaly is tolerated and reported rather than hidden: in the published
row |X| = 12 the two equality-test cells read 39 and 38, while the column
formulas give 38 and 39; the pair is checked as an unordered pair there and
positionally everywhere else.
"""

from __future__ import annotations

from math import comb

TABLE1_PRINTED = {4: 35, 5: 54, 6: 77, 7: 104, 8: 135, 9: 170, 10: 209, 11: 252}
TABLE1_DIVISIBLE_BY_3 = {5, 8, 11}

# |X| -> (alpha, inequality verdict, d, (eq-1 cell, eq cell)) as printed
TABLE2_PRINTED: dict[int, tuple[int, bool, int | None, tuple[int, int] | None]] = {
    10: (4, False, None, None),
    11: (4, False, None, None),
    12: (4, True, 3, (39, 38)),
    13: (4, True, 2, (41, 42)),
    14: (4, True, 1, (43, 44)),
    15: (5, False, None, None),
    16: (5, False, None, None),
    17: (5, False, None, None),
    18: (5, False, None, None),
    19: (5, True, 2, (62, 63)),
    20: (5, True, 1, (64, 65)),
    21: (6, False, None, None),
    22: (6, False, None, None),
    23: (6, False, None, None),
    24: (6, False, None, None),
    25: (6, False, None, None),
    26: (6, True, 2, (87, 88)),
    27: (6, True, 1, (89, 90)),
    28: (7, False, None, None),
    29: (7, False, None, None),
    30: (7, False, None, None),
    31: (7, False, None, None),
    32: (7, False, None, None),
    33: (7, False, None, None),
    34: (7, False, None, None),
    35: (7, True, 1, (118, 119)),
}


def alpha_of_generic(x: int) -> int:
    """Initial degree of the ideal of x generic-HF points in the plane."""
    a = 0
    while comb(a + 2, 2) <= x:
        a += 1
    return a


def verify_table1() -> dict:
    rows = []
    ok = True
    for a, printed in TABLE1_PRINTED.items():
        value = comb(2 * a + 1, 2) - 1
        div3 = value % 3 == 0
        match = value == printed and div3 == (a in TABLE1_DIVISIBLE_BY_3)
        ok = ok and match
        rows.append({"alpha": a, "value": value, "printed": printed, "divisible_by_3": div3, "match": match})
    return {"ok": ok, "rows": rows}


def verify_table2() -> dict:
    rows = []
    ok = True
    anomalies = []
    for x, (alpha_p, ineq_p, d_p, cells_p) in TABLE2_PRINTED.items():
        alpha = alpha_of_generic(x)
        lo = comb(2 * alpha + 1, 2)
        hi = comb(2 * alpha + 2, 2)
        ineq = lo <= 3 * x < hi
        row = {"x": x, "alpha": alpha, "ineq": ineq}
        match = alpha == alpha_p and ineq == ineq_p
        if ineq:
            d = comb(alpha + 2, 2) - x
            eq_minus1 = hi - comb(d + 1, 2) - 1
            eq_plain = hi - comb(d + 1, 2)
            none_hold = eq_minus1 != 3 * x and eq_plain != 3 * x
            row.update({"d": d, "cells": (eq_minus1, eq_plain), "equalities_hold": not none_hold})
            match = match and d == d_p and none_hold
            if (eq_minus1, eq_plain) == cells_p:
                pass
            elif {eq_minus1, eq_plain} == set(cells_p):
                anomalies.append({"x": x, "computed": (eq_minus1, eq_plain), "printed": cells_p})
            else:
                match = False
        row["match"] = match
        ok = ok and match
        rows.append(row)
    return {"ok": ok, "rows": rows, "transposed_cells": anomalies}
