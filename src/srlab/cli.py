"""Command-line entry point wiring the laboratory together.

Subcommands: verify, potential, gamma, weyl, spectrum, thinness.  Every run
echoes its fully resolved configuration (defaults included) into the output
header, CSV numbers carry 17 significant digits, JSON numbers are raw
doubles (infinities as the strings "inf"/"-inf"), a NaN bound for either
format is a validation failure, and identical seeded invocations produce
byte-identical output.  `spectrum` reports `iterations` as the number of
operator applications of the eigensolver.

Exit codes: 0 success, 1 validation failure, 2 numerical non-convergence,
64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import forms, potential, spectral, sublevel
from .group import MetivierStructure, make_heisenberg, product, verify_metivier
from .norms import _weight, estimate_gamma, norm_xt, quasi_distance_xt, weight_xt

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        if math.isnan(x):
            raise ValueError("NaN in CSV output")
        return f"{x:.17g}"
    return str(x)


def _csv(config: dict, header: list, rows) -> str:
    """CSV text; `rows` is a list of mixed-type rows or a 2-D float ndarray,
    which is checked for NaN and formatted as one block ("%.17g" % x is
    f"{x:.17g}")."""
    lines = [f"# {k} = {_fmt(v)}" for k, v in config.items()]
    lines.append(",".join(header))
    if isinstance(rows, np.ndarray):
        if np.isnan(rows).any():
            raise ValueError("NaN in CSV output")
        if rows.size:
            template = ",".join(["%.17g"] * rows.shape[1])
            lines.append("\n".join([template] * rows.shape[0]) % tuple(rows.ravel().tolist()))
    else:
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(config: dict, payload: dict) -> str:
    def clean(obj):
        if isinstance(obj, np.ndarray):
            return clean(obj.tolist())
        if isinstance(obj, (np.floating,)):
            return clean(float(obj))
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.bool_,)):
            return bool(obj)
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, float) and math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj

    doc = {"config": clean(config)}
    doc.update(clean(payload))
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _load_structure(source: str) -> MetivierStructure:
    if source == "heisenberg":
        return make_heisenberg()
    try:
        with open(source) as fh:
            return MetivierStructure.from_json(fh.read())
    except FileNotFoundError:
        raise ValueError(f"structure file not found: {source}")


def _add_common(p: argparse.ArgumentParser, default_format: str):
    p.add_argument("--structure", default="heisenberg",
                   help="builtin name 'heisenberg' or path to a structure JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=default_format)


def build_parser() -> _Parser:
    p = _Parser(prog="srlab", description=__doc__.splitlines()[0])
    subs = p.add_subparsers(dest="command", required=True)

    v = subs.add_parser("verify", help="run the structural invariant suite")
    _add_common(v, "csv")
    v.add_argument("--samples", type=int, default=10_000)

    g = subs.add_parser("gamma", help="estimate the quasi-triangle constant (lower bound)")
    _add_common(g, "json")
    g.add_argument("--samples", type=int, default=100_000)

    q = subs.add_parser("potential", help="evaluate V_alpha with sandwich bounds")
    _add_common(q, "csv")
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--lx", type=float, default=2.0)
    q.add_argument("--lt", type=float, default=2.0)
    q.add_argument("--nx", type=int, default=8)
    q.add_argument("--nt", type=int, default=8)
    q.add_argument("--points", default=None,
                   help="CSV file of coordinates x1..x2n,t1..tm (overrides the grid)")

    w = subs.add_parser("weyl", help="central-translate residual experiment")
    _add_common(w, "csv")
    w.add_argument("--alpha", type=float, required=True)
    w.add_argument("--n-max", type=int, default=64)
    w.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="spectral shift (default: auto from the potential floor)")
    w.add_argument("--grid", type=int, default=None,
                   help="quadrature points per axis (default: the largest even count "
                        "<= 48 with count^(2n+m) <= 48^3 nodes)")
    w.add_argument("--x-radius", type=float, default=1.0)
    w.add_argument("--t-radius", type=float, default=1.0)

    sp = subs.add_parser("spectrum", help="lowest eigenvalues of the discretised operator")
    _add_common(sp, "json")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--lx", type=float, default=3.0)
    sp.add_argument("--lt", type=float, default=8.0)
    sp.add_argument("--nx", type=int, default=24)
    sp.add_argument("--nt", type=int, default=48)
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--max-iter", type=int, default=3000)

    t = subs.add_parser("thinness", help="sublevel-set thinness integral")
    _add_common(t, "json")
    t.add_argument("--alpha", type=float, required=True)
    t.add_argument("--m-level", type=float, required=True)
    t.add_argument("--r", type=float, default=1.0)
    t.add_argument("--ell", type=float, required=True)
    t.add_argument("--truncation", type=float, default=64.0)
    t.add_argument("--outer", type=int, default=100_000)
    t.add_argument("--inner", type=int, default=10_000)
    return p


def _run_verify(args, s):
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(args.seed)
    n_pts = args.samples
    checks = []

    def draw(count):
        x = rng.uniform(-10.0, 10.0, size=(count, s.horizontal_dim))
        t = rng.uniform(-10.0, 10.0, size=(count, s.m))
        return x, t

    x1, t1 = draw(n_pts)
    x2, t2 = draw(n_pts)
    x3, t3 = draw(n_pts)
    ax, at = product(s, *product(s, x1, t1, x2, t2), x3, t3)
    bx, bt = product(s, x1, t1, *product(s, x2, t2, x3, t3))
    assoc = max(float(np.max(np.abs(ax - bx))), float(np.max(np.abs(at - bt))))
    checks.append(("associativity", assoc, 1e-12))

    r = np.exp(rng.uniform(-1.5, 1.5, size=n_pts))
    dx, dt_ = r[:, None] * x1, (r ** 2)[:, None] * t1
    ex, et = r[:, None] * x2, (r ** 2)[:, None] * t2
    px, pt = product(s, dx, dt_, ex, et)
    qx, qt = product(s, x1, t1, x2, t2)
    auto = max(float(np.max(np.abs(px - r[:, None] * qx))),
               float(np.max(np.abs(pt - (r ** 2)[:, None] * qt))))
    checks.append(("dilation_automorphism", auto, 1e-12))

    hom = float(np.max(np.abs(norm_xt(dx, dt_) - r * norm_xt(x1, t1))))
    checks.append(("norm_homogeneity", hom, 1e-12))

    gx, gt = draw(n_pts)
    d0 = quasi_distance_xt(s, x1, t1, x2, t2)
    lx_, lt_ = product(s, gx, gt, x1, t1)
    mx, mt = product(s, gx, gt, x2, t2)
    d1 = quasi_distance_xt(s, lx_, lt_, mx, mt)
    checks.append(("distance_left_invariance", float(np.max(np.abs(d0 - d1))), 1e-12))

    wt = _weight(2.0, r * norm_xt(x1, t1))
    checks.append(("weight_homogeneity_transfer",
                   float(np.max(np.abs(weight_xt(2.0, dx, dt_) - wt))), 1e-12))

    est = verify_metivier(s, args.samples, seed=args.seed)
    checks.append(("metivier_condition_c0_positive", -est.c0, -1e-12))

    rep = potential.check_sandwich(3.0, s, (x1 * 0.2, t1 * 0.2), est=est)
    checks.append(("sandwich_violations_alpha3", float(rep.n_violations), 0.5))

    rows = [(name, value, bound, "pass" if value <= bound else "FAIL")
            for name, value, bound in checks]
    ok = all(v <= b for _, v, b in checks)
    config = {"command": "verify", "structure": args.structure, "samples": args.samples,
              "seed": args.seed, "c0": est.c0, "C0": est.C0}
    header = ["check", "value", "bound", "status"]
    return (config, header, rows, {"checks": [dict(zip(header, r)) for r in rows]},
            EXIT_OK if ok else EXIT_VALIDATION)


def _run_gamma(args, s):
    est = estimate_gamma(s, args.samples, seed=args.seed)
    config = {"command": "gamma", "structure": args.structure,
              "samples": args.samples, "seed": args.seed,
              "note": "gamma_hat is a sampled lower bound on the true constant"}
    return (config, ["gamma_hat", "samples", "seed"],
            [(est.gamma_hat, est.samples, est.seed)], {"gamma_hat": est.gamma_hat}, EXIT_OK)


def _run_potential(args, s):
    const = potential.potential_bounds(args.alpha, None, s)
    if args.points:
        data = np.loadtxt(args.points, delimiter=",", ndmin=2)
        if data.shape[1] != s.horizontal_dim + s.m:
            raise ValueError(f"points file must have {s.horizontal_dim + s.m} columns")
        if not np.isfinite(data).all():
            raise ValueError(f"points file {args.points} holds a non-finite coordinate")
        x, t = data[:, : s.horizontal_dim], data[:, s.horizontal_dim:]
    else:
        grid = forms.QuadratureGrid(s, args.lx, args.lt, args.nx, args.nt)
        x, t = grid.nodes()
    jet = potential._norm_jet(s, x, t)
    v = potential._potential(args.alpha, jet)
    lo, hi = potential._sandwich(const, jet.x2, jet.n)
    config = {"command": "potential", "structure": args.structure, "alpha": args.alpha,
              "seed": args.seed, "points": args.points or "grid",
              "lx": args.lx, "lt": args.lt, "nx": args.nx, "nt": args.nt,
              "c_a1": const.c_a1, "c_a2": const.c_a2, "c_a3": const.c_a3,
              "c_a4": const.c_a4}
    header = ([f"x{i+1}" for i in range(s.horizontal_dim)]
              + [f"t{k+1}" for k in range(s.m)]
              + ["N", "grad_norm_sq", "LN", "V_alpha", "lower_bound", "upper_bound"])
    rows = np.column_stack([x, t, jet.n, jet.gns, jet.ln, v, lo, hi])
    return config, header, rows, {"columns": header, "rows": rows}, EXIT_OK


def _default_weyl_grid(s) -> int:
    """Largest even per-axis count g <= 48 with g^(2n+m) <= 48^3 (Heisenberg's 48; at least 2)."""
    g = 48
    while g > 2 and g ** (s.horizontal_dim + s.m) > 48 ** 3:
        g -= 2
    return g


def _run_weyl(args, s):
    if args.n_max < 2:
        raise ValueError("need --n-max >= 2")
    per_axis = args.grid if args.grid is not None else _default_weyl_grid(s)
    bump = forms.SmoothBump(args.x_radius, args.t_radius)
    grid = forms.QuadratureGrid(s, args.x_radius, args.t_radius, per_axis, per_axis)
    n_values = [n for n in (2 ** k for k in range(1, 30)) if n <= args.n_max]
    if n_values[-1] != args.n_max:
        n_values.append(args.n_max)
    scan = forms.weyl_scan(args.alpha, s, bump, n_values, grid, lam=args.lam,
                           seed=args.seed)
    config = {"command": "weyl", "structure": args.structure, "alpha": args.alpha,
              "n_max": args.n_max, "lambda": scan.lam, "grid": per_axis,
              "x_radius": args.x_radius, "t_radius": args.t_radius,
              "seed": args.seed, "sup_cylinder": scan.sup_cylinder,
              "psi_norm": scan.psi_norm, "L_psi_norm": scan.l_psi_norm}
    header = ["n", "residual", "bound", "psi_norm"]
    rows = [(r.n_index, r.residual, scan.bound, r.psi_norm) for r in scan.records]
    return config, header, rows, {"records": [dict(zip(header, r)) for r in rows]}, EXIT_OK


def _run_spectrum(args, s):
    grid = spectral.Grid3(s, args.lx, args.lt, args.nx, args.nt)
    op = spectral.assemble_operator(args.alpha, s, grid)
    result = spectral.lanczos_lowest(op, k=args.k, tol=args.tol,
                                     max_iter=args.max_iter, seed=args.seed, grid=grid)
    config = {"command": "spectrum", "structure": args.structure, "alpha": args.alpha,
              "lx": args.lx, "lt": args.lt, "nx": args.nx, "nt": args.nt,
              "k": args.k, "tol": args.tol, "max_iter": args.max_iter,
              "seed": args.seed, "dim": op.dim}
    payload = {"grid": grid.describe(), "eigenvalues": result.eigenvalues,
               "residuals": result.residual_norms, "iterations": result.iterations,
               "converged": result.converged}
    rows = [(i, ev, res) for i, (ev, res)
            in enumerate(zip(result.eigenvalues, result.residual_norms))]
    return (config, ["index", "eigenvalue", "residual"], rows, payload,
            EXIT_OK if result.converged else EXIT_NO_CONVERGENCE)


def _run_thinness(args, s):
    spec = sublevel.SublevelSpec(args.alpha, args.m_level)
    est = sublevel.thinness_integral(spec, s, r=args.r, ell=args.ell,
                                     truncation_T=args.truncation,
                                     outer_samples=args.outer,
                                     inner_samples=args.inner, seed=args.seed)
    config = {"command": "thinness", "structure": args.structure, "alpha": args.alpha,
              "m_level": args.m_level, "r": args.r, "ell": args.ell,
              "truncation": args.truncation, "outer": args.outer,
              "inner": args.inner, "seed": args.seed}
    d = asdict(est)
    return config, list(d), [tuple(d.values())], {"estimate": d}, EXIT_OK


# Each runner maps (args, structure) to (config, CSV header, CSV rows, JSON payload,
# exit code); the rows are a list of tuples or, for an all-float table, one ndarray.
_RUNNERS = {
    "verify": _run_verify,
    "gamma": _run_gamma,
    "potential": _run_potential,
    "weyl": _run_weyl,
    "spectrum": _run_spectrum,
    "thinness": _run_thinness,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        s = _load_structure(args.structure)
        config, header, rows, payload, code = _RUNNERS[args.command](args, s)
        text = _csv(config, header, rows) if args.format == "csv" else _json(config, payload)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
