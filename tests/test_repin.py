"""The re-pin audit's diff (tests/repin.py), on planted moves."""

from __future__ import annotations

import repin


def test_diff_reports_each_planted_move():
    witness = {"trial": 1, "cube": {"level": 2, "index": [1, 3]}, "lhs": 1, "rhs": 3.0}
    base = [
        {"rows": [{"depth": 4, "max_ratio": 0.5, "witness": witness}], "passed": True},
        repin.parse("csv", "depth,max_ratio,slope\n4,0.5,0.25\n"),
    ]
    moved = {"cube": {"level": 2, "index": [1, 2]}, "lhs": 1 + 3 * 2.0**-52, "rhs": 3.0}
    head = [
        # 1 ulp on a float, 3 ulp on an integral float written as an int,
        # the key "trial" renamed, a witness cube moved and a CSV cell changed
        {"rows": [{"depth": 4, "max_ratio": 0.5 + 2.0**-53, "witness": {**moved, "trials": 1}}],
         "passed": True},
        repin.parse("csv", "depth,max_ratio,slope\n5,0.5,0.25\n"),
    ]
    assert repin.diff(base, head) == (5, 2, 3, [
        ("/0/rows/0/witness/trial", "(key)", "(no key)"),
        ("/0/rows/0/witness/cube/index/1", "3", "2"),
        ("/0/rows/0/witness/trials", "(no key)", "(key)"),
        ("/1/1/0", "4", "5"),
    ])
    # the integral float is an int on both sides, so no float pair
    assert repin.diff(base, base) == (4, 0, 0, [])


def test_table_says_nothing_moved_per_pin():
    side = {"a": [["json", '{"x": [0.1, 2]}\n'], ["csv", "x\n0.1\n"]], "b": [["f64", "AAAAAAAA8D8="]]}
    moved = {**side, "b": [["f64", "AQAAAAAA8D8="]]}  # 1.0 and the next double
    # -0.0 and 0.0 print as the ints -0 and 0: the texts differ, no value does
    side["c"], moved["c"] = [["json", "[-0]\n"]], [["json", "[0]\n"]]
    lines = repin.table(side, moved).splitlines()
    assert lines[1].split() == ["a", "2", "0", "0", "nothing", "moved"]
    assert lines[2].split() == ["b", "1", "1", "1"]
    assert lines[3].split() == ["c", "0", "0", "0"]
    assert lines[4] == "    /: text -> other text, same values"
    assert len(lines) == 5
