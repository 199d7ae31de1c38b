"""tools/bench_pairs.py: the pair summary on fixed numbers, and one run on stub trees."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.0, 1.1, 1.2, 1.05, 1.15, 1.1, 1.0, 1.2, 1.1, 1.05]


def test_summary_gain_holds():
    s = bench_pairs.summarize(PARENT, [0.9] * 10, "lower")
    # sorted parent: 1.0 1.0 1.05 1.05 1.1 1.1 1.1 1.15 1.2 1.2; exclusive quartiles
    # sit at positions 2.75 and 8.25
    assert s["parent"] == pytest.approx((1.0375, 1.1, 1.1625))
    assert s["change"] == pytest.approx((0.9, 0.9, 0.9))
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["gap"] == pytest.approx(0.2) and s["parent_iqr"] == pytest.approx(0.125)
    assert s["gain_holds"]


def test_summary_needs_nine_of_ten_wins():
    change = [0.9] * 8 + [1.3, 1.3]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and s["gap"] > s["parent_iqr"]
    assert not s["gain_holds"]


def test_summary_needs_gap_beyond_parent_spread():
    change = [p - 0.01 for p in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and s["gap"] == pytest.approx(0.01)
    assert not s["gain_holds"]


def test_summary_needs_no_more_failed_checks_than_parent():
    change = [0.9] * 10
    assert bench_pairs.summarize(PARENT, change, "lower", failed=(2, 2))["gain_holds"]
    s = bench_pairs.summarize(PARENT, change, "lower", failed=(0, 1))
    assert s["wins"] == 10 and s["gap"] > s["parent_iqr"]
    assert not s["gain_holds"]


def test_summary_direction_ties_and_failed_runs():
    s = bench_pairs.summarize(PARENT, [2.0] * 10, "higher")
    assert s["wins"] == 10 and s["gap"] == pytest.approx(0.9) and s["gain_holds"]
    s = bench_pairs.summarize([1.0, 1.0, 1.0], [1.0, 0.5, None], "lower")
    assert s["wins"] == 1                       # a tie and a failed run win nothing
    assert s["change"] == pytest.approx((0.375, 0.75, 1.125))   # exclusive method extrapolates
    assert not s["gain_holds"]
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0, 2.0], "lower")
    row = bench_pairs.format_row("wall_s", "s", bench_pairs.summarize(PARENT, [0.9] * 10, "lower"))
    assert "wins 10/10" in row and "gain holds" in row


def test_summary_regression_mirrors_the_gain_rule():
    """A regression shows when the parent wins 9 of 10 pairs and its median is
    better by more than the change's IQR, or when the change failed more checks."""
    worse = [p + 0.2 for p in PARENT]
    s = bench_pairs.summarize(PARENT, worse, "lower")
    assert s["parent_wins"] == 10 and s["wins"] == 0
    assert s["gap"] == pytest.approx(-0.2) and s["change_iqr"] == pytest.approx(0.125)
    assert s["regression_shows"] and not s["gain_holds"]
    assert "parent wins 10/10" in bench_pairs.format_row("wall_s", "s", s)
    assert "regression shows" in bench_pairs.format_row("wall_s", "s", s)
    # the parent wins only 8 of 10, though its median is far better
    s = bench_pairs.summarize(PARENT, [p + 0.5 for p in PARENT[:8]]
                              + [p - 0.01 for p in PARENT[8:]], "lower")
    assert s["parent_wins"] == 8 and -s["gap"] > s["change_iqr"]
    assert not s["regression_shows"]
    # 10 of 10 wins inside the change's spread is no regression
    s = bench_pairs.summarize(PARENT, [p + 0.01 for p in PARENT], "lower")
    assert s["parent_wins"] == 10 and not s["regression_shows"]
    # higher is better; a failed change run counts as a parent win, a failed parent run does not
    s = bench_pairs.summarize([2.0] * 9 + [None], [1.0] * 8 + [None, 0.5], "higher")
    assert s["parent_wins"] == 9 and s["regression_shows"]
    # more failed checks on the change side are a regression whatever the timings
    s = bench_pairs.summarize(PARENT, [0.9] * 10, "lower", failed=(0, 1))
    assert s["parent_wins"] == 0 and s["regression_shows"]
    assert not bench_pairs.summarize(PARENT, [0.9] * 10, "lower", failed=(1, 1))["regression_shows"]


def test_summary_marks_spread_beyond_the_bound_unresolved():
    """IQR over median above the bound on either side is unresolved, unless
    every change run is better than every parent run."""
    assert not bench_pairs.summarize(PARENT, [0.9] * 10, "lower")["unresolved"]
    # parent IQR 0.125 over median 1.1 is 0.114
    assert not bench_pairs.summarize(PARENT, [0.9] * 10, "lower", bound=0.25)["unresolved"]
    assert bench_pairs.summarize(PARENT, [1.05] * 10, "lower", bound=0.1)["unresolved"]
    wide = [0.5, 1.5] * 5
    s = bench_pairs.summarize(PARENT, wide, "lower", bound=0.25)
    assert s["unresolved"] and "unresolved" in bench_pairs.format_row("wall_s", "s", s)
    # as wide, but every change run beats every parent run
    s = bench_pairs.summarize(PARENT, [0.4, 0.9] * 5, "lower", bound=0.25)
    assert s["change_iqr"] > 0.25 * s["change"][1] and not s["unresolved"]
    assert bench_pairs.summarize([None] * 3, [1.0] * 3, "lower", bound=0.25)["unresolved"]


def _stub_tree(root: Path, wall: float, failed: int = 0) -> Path:
    """A tree whose perfbench/run.py prints one fixed result line."""
    (root / "perfbench").mkdir(parents=True)
    metrics = {"wall_s": {"value": wall, "unit": "s"}}
    (root / "perfbench" / "run.py").write_text(
        "import json\nprint('rep 1')\n"
        f"print(json.dumps({{'correct': {not failed}, 'attempted': 1, 'failed': {failed}, "
        f"'metrics': {metrics!r}}}))\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    return root


def test_main_on_stub_trees(tmp_path, capsys):
    parent = _stub_tree(tmp_path / "parent", 1.0)
    change = _stub_tree(tmp_path / "change", 0.5)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--seed", "0", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "pair 1/2 (parent first)" in out and "pair 2/2 (change first)" in out
    assert "failed checks: parent 0, change 0" in out
    assert "wins 2/2" in out and "gain holds" in out
    assert "parent wins 0/2" in out and "regression not shown" in out


def test_main_refuses_gain_with_more_failed_checks(tmp_path, capsys):
    parent = _stub_tree(tmp_path / "parent", 1.0)
    change = _stub_tree(tmp_path / "change", 0.5, failed=1)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--seed", "0", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "failed checks: parent 0, change 2" in out
    assert "wins 2/2" in out and "gain not shown" in out and "regression shows" in out
