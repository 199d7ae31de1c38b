"""The four benchmark workloads: inputs from the seed, timed calls, checks.

Every workload is the acceptance configuration of its layer, scaled so one
repetition takes a few seconds on a 2-core machine while the same layer
still does almost all of the work:

* spectral-lowest: the extremal-eigenpair Lanczos solve (three nested
  alpha=3 boxes, Lt = 4, 8, 12, plus the dim-432 dense-oracle solve).
  Where an ARPACK swap shows.
* spectral-count: the count below Lambda=3.1 on nested alpha=2 boxes, with
  the criterion-8 budgets and k_start values.  Where an inertia count
  shows, and where it must not cost memory.
* thinness-mc: the Monte Carlo thinness integral (inner sample count as in
  criterion 7, outer count scaled), the three scaling fits (sample count
  scaled) and the nine threshold-law integrals.  Small potential batches,
  many calls.
* quadrature: the conjugation ladder, the six Weyl scans and one
  `srlab potential` CLI call.  Large potential batches and per-row
  formatting; bypasses spectral and sublevel.

`run` calls srlab only through module attributes, so the traced run can
wrap the functions it times.  `check` compares within the acceptance
tolerances; no float output is compared byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from srlab import cli, forms, spectral, sublevel
from srlab.group import make_heisenberg

HEIS = make_heisenberg()


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], dict]
    run: Callable[[dict, Path], dict]
    check: Callable[[dict, dict], list]
    n_checks: int


# --- spectral-lowest ------------------------------------------------------

def lowest_inputs(seed: int) -> dict:
    # Lanczos grows its basis in blocks of 256, 512, 1024 vectors; these boxes
    # take 280-290, 360-390 and 440-470 iterations over seeds, clear of a
    # block edge, so peak memory does not jump with the seed.
    return {"alpha": 3.0, "boxes": [(3.0, 4.0, 10, 10), (3.0, 8.0, 10, 20), (3.0, 12.0, 10, 30)],
            "k": 5, "tol": 1e-6, "max_iter": 2000, "seed": seed,
            "oracle_box": (2.0, 2.0, 6, 12), "oracle_k": 8, "oracle_tol": 1e-10}


def lowest_run(inp: dict, workdir: Path) -> dict:
    solves = []
    for lx, lt, nx, nt in inp["boxes"]:
        grid = spectral.Grid3(HEIS, lx, lt, nx, nt)
        op = spectral.assemble_operator(inp["alpha"], HEIS, grid)
        solves.append(spectral.lanczos_lowest(op, k=inp["k"], tol=inp["tol"],
                                              max_iter=inp["max_iter"],
                                              seed=inp["seed"], grid=grid))
    op = spectral.assemble_operator(inp["alpha"], HEIS,
                                    spectral.Grid3(HEIS, *inp["oracle_box"]))
    dense = np.linalg.eigvalsh(op.to_dense())
    oracle = spectral.lanczos_lowest(op, k=inp["oracle_k"], tol=inp["oracle_tol"],
                                     seed=inp["seed"])
    gap = float(np.max(np.abs(oracle.eigenvalues - dense[: inp["oracle_k"]])))
    return {"solves": solves, "oracle_gap": gap}


def lowest_check(inp: dict, out: dict) -> list:
    solves, k = out["solves"], inp["k"]
    checks = [(f"box_{i}_converged", r.converged) for i, r in enumerate(solves)]
    for i, (inner, outer) in enumerate(zip(solves, solves[1:])):
        same_k = len(inner.eigenvalues) == k and len(outer.eigenvalues) == k
        rel = np.abs(outer.eigenvalues[:k] - inner.eigenvalues[:k]) / np.abs(inner.eigenvalues[:k])
        checks.append((f"box_{i}_to_{i + 1}_rel_change_below_1pct",
                       same_k and bool(np.all(rel < 0.01))))
    checks.append(("dense_oracle_gap_le_1e-8", out["oracle_gap"] <= 1e-8))
    return checks


# --- spectral-count -------------------------------------------------------

# (lx, lt, nx, nt), budget, k_start, max_iter, reference count.  The
# reference counts are those of numpy.linalg.eigvalsh on the assembled
# operators (eigenvalues 2.78 and 3.14 bracket the level on both boxes);
# test_perfbench recomputes them.
COUNT_BOXES = (((2.0, 8.0, 8, 16), 36, 28, 2500, 20),
               ((2.0, 16.0, 8, 32), 48, 40, 3500, 36))


def count_inputs(seed: int) -> dict:
    return {"alpha": 2.0, "level": 3.1, "tol": 1e-4, "boxes": COUNT_BOXES,
            "seed": seed}


def count_run(inp: dict, workdir: Path) -> dict:
    counts = []
    for box, budget, k_start, max_iter, _ in inp["boxes"]:
        op = spectral.assemble_operator(inp["alpha"], HEIS, spectral.Grid3(HEIS, *box))
        counts.append(spectral.eigen_count_below(op, inp["level"], budget=budget,
                                                 tol=inp["tol"], max_iter=max_iter,
                                                 seed=inp["seed"], k_start=k_start))
    return {"counts": counts}


def count_check(inp: dict, out: dict) -> list:
    small, large = out["counts"]
    refs = [box[-1] for box in inp["boxes"]]
    return [("small_box_count_exact", not small.is_lower_bound),
            ("large_box_count_exact", not large.is_lower_bound),
            ("count_ratio_ge_1.5", large.count >= 1.5 * small.count),
            ("small_box_count_is_reference", small.count == refs[0]),
            ("large_box_count_is_reference", large.count == refs[1])]


# --- thinness-mc ----------------------------------------------------------

def thinness_inputs(seed: int) -> dict:
    return {"integral": {"alpha": 3.0, "level": 10.0, "r": 1.0, "ell": 2.0,
                         "truncation_T": 64.0, "outer_samples": 8_000,
                         "inner_samples": 10_000},
            "fit_level": 10.0, "fit_samples": 50_000,
            "t_ranges": {2.5: (512.0, 1024.0, 2048.0, 4096.0),
                         3.0: (8.0, 16.0, 32.0, 64.0),
                         4.0: (8.0, 16.0, 32.0, 64.0)},
            "law_level": 5.0, "law_truncation_T": 16.0, "law_outer": 40,
            "law_inner": 10, "seed": seed}


def thinness_integral(inp: dict):
    """The workload's integral; the thread probe repeats exactly this call."""
    p = inp["integral"]
    return sublevel.thinness_integral(
        sublevel.SublevelSpec(p["alpha"], p["level"]), HEIS, p["r"], p["ell"],
        truncation_T=p["truncation_T"], outer_samples=p["outer_samples"],
        inner_samples=p["inner_samples"], seed=inp["seed"])


def thinness_run(inp: dict, workdir: Path) -> dict:
    integral = thinness_integral(inp)
    fits = {alpha: sublevel.scaling_fit(sublevel.SublevelSpec(alpha, inp["fit_level"]),
                                        HEIS, 1.0, ts, inp["fit_samples"], seed=inp["seed"])
            for alpha, ts in inp["t_ranges"].items()}
    law = []
    for alpha in inp["t_ranges"]:
        crit = HEIS.m / (HEIS.n * (alpha - 2.0))
        for ell, expect in ((1.25 * crit, True), (0.8 * crit, False), (crit, False)):
            est = sublevel.thinness_integral(
                sublevel.SublevelSpec(alpha, inp["law_level"]), HEIS, 1.0, ell,
                truncation_T=inp["law_truncation_T"], outer_samples=inp["law_outer"],
                inner_samples=inp["law_inner"], seed=inp["seed"])
            law.append((alpha, expect, est))
    return {"integral": integral, "fits": fits, "law": law}


def thinness_check(inp: dict, out: dict) -> list:
    checks = [(f"slope_alpha_{alpha}",
               abs(fit.slope - HEIS.n * (2.0 - alpha)) <= 0.15)
              for alpha, fit in out["fits"].items()]
    checks += [(f"threshold_law_alpha_{alpha}_ell_{est.ell:.4g}",
                est.tail_finite == expect and math.isfinite(est.tail_bound) == expect)
               for alpha, expect, est in out["law"]]
    est = out["integral"]
    checks.append(("integral_positive_tail_finite",
                   est.value > 0.0 and est.tail_finite and math.isfinite(est.tail_bound)))
    return checks


# --- quadrature -----------------------------------------------------------

CLI_N = 24


def quadrature_inputs(seed: int) -> dict:
    # Criteria 5 and 6 use an alpha=2 ladder of 24/48/96, every n in 2..64
    # for the bounded scans and a 48-point grid for the growth scans; the
    # CLI step was specified at 64^3 rows.  The Weyl scans keep the
    # 110,592-node grid, so potential_value_xt still sees large batches.
    return {"ladder": {3.0: (12, 24, 48), 2.0: (18, 36, 72)},
            "bounded_alphas": (1.0, 1.5, 2.0), "bounded_n": (2, 8, 32, 64),
            "bounded_grid": 48,
            "growth_alphas": (2.5, 3.0, 4.0), "growth_n": (4, 8, 16, 32, 64),
            "growth_grid": 32,
            "cli_args": ["potential", "--alpha", "2.5", "--nx", str(CLI_N),
                         "--nt", str(CLI_N), "--seed", str(seed)],
            "seed": seed}


def quadrature_run(inp: dict, workdir: Path) -> dict:
    bump = forms.SmoothBump(1.0, 1.0)
    ladder = {alpha: [forms.conjugation_residual(alpha, HEIS, bump,
                                                 forms.QuadratureGrid(HEIS, 1.0, 1.0, n, n))
                      for n in ns]
              for alpha, ns in inp["ladder"].items()}
    g = inp["bounded_grid"]
    grid = forms.QuadratureGrid(HEIS, 1.0, 1.0, g, g)
    bounded = {alpha: forms.weyl_scan(alpha, HEIS, bump, inp["bounded_n"], grid,
                                      seed=inp["seed"])
               for alpha in inp["bounded_alphas"]}
    wide = forms.SmoothBump(3.0, 2.0)
    g = inp["growth_grid"]
    wgrid = forms.QuadratureGrid(HEIS, 3.0, 2.0, g, g)
    growth = {alpha: forms.weyl_scan(alpha, HEIS, wide, inp["growth_n"], wgrid, lam=0.0,
                                     seed=inp["seed"])
              for alpha in inp["growth_alphas"]}
    path = workdir / "potential.csv"
    code = cli.run(inp["cli_args"] + ["--output", str(path)])
    return {"ladder": ladder, "bounded": bounded, "growth": growth,
            "cli_code": code, "cli_path": path,
            "cli_rows": CLI_N ** HEIS.horizontal_dim * CLI_N ** HEIS.m,
            "cli_bytes": path.stat().st_size if path.exists() else 0}


def read_potential_csv(path: Path) -> np.ndarray:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def quadrature_check(inp: dict, out: dict) -> list:
    checks = []
    for alpha, res in out["ladder"].items():
        for i in range(len(res) - 1):
            checks.append((f"halving_ratio_alpha_{alpha}_{i}", 3.0 <= res[i] / res[i + 1] <= 5.0))
    for alpha, scan in out["bounded"].items():
        checks.append((f"bounded_alpha_{alpha}",
                       all(r.residual <= scan.bound
                           and abs(r.overlap_check - 2.0 * r.psi_norm ** 2) <= 1e-10
                           for r in scan.records)))
    for alpha, scan in out["growth"].items():
        res = [r.residual for r in scan.records]
        slope = forms.fit_loglog_slope(inp["growth_n"], res)
        checks.append((f"growth_alpha_{alpha}",
                       all(b > a for a, b in zip(res, res[1:]))
                       and abs(slope - (alpha - 2.0)) <= 0.15))
    path = out["cli_path"]
    rows = read_potential_csv(path) if out["cli_code"] == 0 else np.zeros((0, 0))
    checks += [("cli_exit_0", out["cli_code"] == 0),
               ("cli_row_count", rows.shape[0] == out["cli_rows"]),
               ("cli_values_finite", rows.size > 0 and bool(np.all(np.isfinite(rows))))]
    return checks


WORKLOADS = {
    "spectral-lowest": Workload(lowest_inputs, lowest_run, lowest_check, 6),
    "spectral-count": Workload(count_inputs, count_run, count_check, 5),
    "thinness-mc": Workload(thinness_inputs, thinness_run, thinness_check, 13),
    "quadrature": Workload(quadrature_inputs, quadrature_run, quadrature_check, 13),
}
