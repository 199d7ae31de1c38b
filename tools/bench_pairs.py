"""Alternating before/after pairs of the benchmark, and whether a gain holds.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N

Each pair runs `perfbench/run.py --workload W --seed S --seconds 12 --trace 0`
once in each tree, each tree with its own benchmark and sources; the tree
that goes first alternates from pair to pair.  For every end-to-end metric
the summary gives each side's median and quartiles, the number of pairs the
change won (ties count for neither side, a pair with a failed run counts as
lost), and whether a gain holds by the rule: the change won at least 9 of
10 pairs run, its median is better than the parent's by more than the
parent's interquartile range, and it failed no more correctness checks than
the parent over all pairs.  Metric directions come from CHANGE_DIR's
BENCHMARK.json.  Standard library only; nothing in either tree is changed
except what the benchmark itself writes (its `.perfbench/` output).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN_SECONDS = 12


def run_once(tree: Path, workload: str, seed: int):
    """(metric values by name, failed checks) of one run in `tree`, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{tree}: run failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(f"{tree}: last output line is not JSON: {lines[-1][:200]}\n")
        return None
    return {k: m["value"] for k, m in result["metrics"].items()}, result["failed"]


def quartiles(values):
    """(q1, median, q3); statistics.quantiles' default (exclusive) method."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(parent, change, better: str, failed=(0, 0)) -> dict:
    """Compare paired values of one metric; None marks a failed run.

    `better` is "lower" or "higher".  The gap is the parent's median minus the
    change's, signed so that positive means the change is better.  `failed`
    is (parent, change): the correctness checks each side failed over all
    pairs; a gain does not hold when the change failed more.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change values")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(p is not None and c is not None and sign * (p - c) > 0.0
               for p, c in zip(parent, change))
    p_vals = [p for p in parent if p is not None]
    c_vals = [c for c in change if c is not None]
    p_q = quartiles(p_vals) if p_vals else (float("nan"),) * 3
    c_q = quartiles(c_vals) if c_vals else (float("nan"),) * 3
    gap = sign * (p_q[1] - c_q[1])
    iqr = p_q[2] - p_q[0]
    return {"parent": p_q, "change": c_q, "wins": wins, "pairs": len(parent),
            "gap": gap, "parent_iqr": iqr,
            "gain_holds": wins >= 0.9 * len(parent) and gap > iqr and failed[1] <= failed[0]}


def format_row(name: str, unit: str, s: dict) -> str:
    def q(v):
        return f"{v[1]:.4g} [{v[0]:.4g}, {v[2]:.4g}]"
    return (f"{name:<12} {unit:<4} parent {q(s['parent'])}  change {q(s['change'])}  "
            f"wins {s['wins']}/{s['pairs']}  gap {s['gap']:+.4g} vs iqr {s['parent_iqr']:.4g}  "
            f"gain {'holds' if s['gain_holds'] else 'not shown'}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_dir", type=Path)
    p.add_argument("change_dir", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    trees = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rec = run_once(trees[side], args.workload, args.seed)
            runs[side].append(rec[0] if rec else None)
            failed[side] += rec[1] if rec else 1
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): " + "  ".join(
            f"{side} wall_s={r['wall_s']:.4f}" if (r := runs[side][-1]) else f"{side} failed"
            for side in ("parent", "change")), flush=True)
    print(f"workload={args.workload} seed={args.seed} pairs={args.pairs} "
          f"failed checks: parent {failed['parent']}, change {failed['change']}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r[name] if r else None for r in runs[side]] for side in runs}
        print(format_row(name, metric["unit"],
                         summarize(values["parent"], values["change"], metric["better"],
                                   (failed["parent"], failed["change"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
