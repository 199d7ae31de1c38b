"""Per-layer numbers: where the traced run wraps srlab, and the direct probes.

`install` wraps each layer's public function at every module attribute a
caller looks it up through (`potential_value_xt` is imported by name into
four modules, so it is wrapped in all four).  `traced_metrics` turns the
spans into the traced per-layer metrics; a layer the workload never calls
reports zero calls and zero seconds.  `direct_probes` and `thread_probe`
time calls the benchmark makes itself, on inputs drawn from the seed.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from dataclasses import astuple

import numpy as np

from srlab import cli, forms, group, norms, potential, spectral, sublevel

from tracer import Tracer
from workloads import HEIS, thinness_integral

PROBE_POINTS = 1_000_000
LARGE_BATCH = 100_000
SMALL_BATCH, SMALL_BATCHES = 3_500, 30
SANDWICH_ALPHAS = (1.0, 2.0, 2.5, 3.0, 4.0)
BALL_CALLS, BALL_SAMPLES = 20, 10_000
PROBE_SPEC = sublevel.SublevelSpec(3.0, 10.0)


def _points(args: dict) -> int:
    return int(np.asarray(args["x"]).size // HEIS.horizontal_dim)


def _grid_nodes(args: dict) -> int:
    grid = args["grid"]
    return grid.nx ** HEIS.horizontal_dim * grid.nt ** HEIS.m


def install(tracer: Tracer) -> None:
    tracer.patch(spectral, "assemble_operator", "spectral.assemble_operator",
                 lambda a, r: {"dim": r.dim, "nnz": r.nnz})
    tracer.patch(spectral, "lanczos_lowest", "spectral.lanczos_lowest",
                 lambda a, r: {"iterations": r.iterations, "converged": r.converged,
                               "max_residual": float(np.max(r.residual_norms))})
    tracer.patch(spectral, "eigen_count_below", "spectral.eigen_count_below",
                 lambda a, r: {"count": r.count})
    tracer.patch(sublevel, "thinness_integral", "sublevel.thinness_integral",
                 lambda a, r: {"outer": a["outer_samples"]})
    tracer.patch(sublevel, "scaling_fit", "sublevel.scaling_fit")
    tracer.patch(sublevel, "ball_intersection_volume", "sublevel.ball_intersection_volume",
                 lambda a, r: {"samples": r.n_samples, "hits": r.hit_count})
    tracer.patch(sublevel, "cylinder_radius", "sublevel.cylinder_radius")
    for module in (sublevel, potential):
        tracer.patch(module, "potential_bounds", "potential.potential_bounds")
    for module in (spectral, sublevel, forms, potential):
        tracer.patch(module, "potential_value_xt", "potential.potential_value_xt",
                     lambda a, r: {"points": _points(a)})
    tracer.patch(forms, "conjugation_residual", "forms.conjugation_residual")
    tracer.patch(forms, "weyl_scan", "forms.weyl_scan")
    tracer.patch(forms, "weyl_residual", "forms.weyl_residual",
                 lambda a, r: {"nodes": _grid_nodes(a)})
    tracer.patch(forms, "sub_laplacian_apply", "forms.sub_laplacian_apply")
    tracer.patch(cli, "run", "cli.run")


def traced_metrics(spans, results: dict) -> dict:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    names = {s.id: s.name for s in spans}

    def seconds(name):
        return sum(s.duration for s in by_name[name])

    def attr_sum(items, key):
        return sum(s.attrs[key] for s in items)

    def share(items, key):
        return sum(bool(s.attrs[key]) for s in items) / len(items) if items else 0.0

    def under(name, parent):
        return [s for s in by_name[name] if names.get(s.parent) == parent]

    lanczos = by_name["spectral.lanczos_lowest"]
    counted = under("spectral.lanczos_lowest", "spectral.eigen_count_below")
    operators = by_name["spectral.assemble_operator"]
    balls = by_name["sublevel.ball_intersection_volume"]
    outer = attr_sum(by_name["sublevel.thinness_integral"], "outer")
    samples = attr_sum(balls, "samples")
    weyl_s = seconds("forms.weyl_scan")
    cli_s = seconds("cli.run")
    cli_rows = results.get("cli_rows", 0)
    return {
        "spectral.lanczos_lowest.s": seconds("spectral.lanczos_lowest"),
        "spectral.lanczos_lowest.iterations": attr_sum(lanczos, "iterations"),
        "spectral.lanczos_lowest.max_residual": max((s.attrs["max_residual"] for s in lanczos),
                                                    default=0.0),
        "spectral.lanczos_lowest.converged": share(lanczos, "converged"),
        "spectral.eigen_count_below.s": seconds("spectral.eigen_count_below"),
        "spectral.eigen_count_below.lanczos_calls": len(counted),
        "spectral.eigen_count_below.lanczos_iterations": attr_sum(counted, "iterations"),
        "spectral.eigen_count_below.count": attr_sum(by_name["spectral.eigen_count_below"],
                                                     "count"),
        "spectral.eigen_count_below.converged": share(counted, "converged"),
        "spectral.assemble_operator.s": seconds("spectral.assemble_operator"),
        "spectral.operator.dim": max((s.attrs["dim"] for s in operators), default=0),
        "spectral.operator.nnz": max((s.attrs["nnz"] for s in operators), default=0),
        "sublevel.thinness_integral.s": seconds("sublevel.thinness_integral"),
        "sublevel.thinness_integral.member_ratio":
            len(under("sublevel.ball_intersection_volume", "sublevel.thinness_integral"))
            / outer if outer else 0.0,
        "sublevel.ball_intersection_volume.calls": len(balls),
        "sublevel.ball_intersection_volume.hit_ratio":
            attr_sum(balls, "hits") / samples if samples else 0.0,
        "sublevel.cylinder_radius.calls": len(by_name["sublevel.cylinder_radius"]),
        "sublevel.scaling_fit.s": seconds("sublevel.scaling_fit"),
        "sublevel.workers": sublevel.worker_count(),
        "potential.potential_value_xt.calls": len(by_name["potential.potential_value_xt"]),
        "potential.potential_bounds.calls": len(by_name["potential.potential_bounds"]),
        "forms.weyl_scan.s": weyl_s,
        "forms.weyl_scan.nodes_per_s":
            attr_sum(by_name["forms.weyl_residual"], "nodes") / weyl_s if weyl_s else 0.0,
        "forms.weyl_residual.calls": len(by_name["forms.weyl_residual"]),
        "forms.sub_laplacian_apply.s": seconds("forms.sub_laplacian_apply"),
        "forms.conjugation_residual.s": seconds("forms.conjugation_residual"),
        "cli.potential.s": cli_s,
        "cli.potential.rows_per_s": cli_rows / cli_s if cli_s else 0.0,
        "cli.potential.output_bytes": results.get("cli_bytes", 0),
    }


def probe_inputs(seed: int) -> dict:
    """Every probe input, drawn from the seed."""
    rng = np.random.default_rng(seed)
    n, hd, m = PROBE_POINTS, HEIS.horizontal_dim, HEIS.m
    pts = {name: rng.uniform(-2.0, 2.0, size=(n, dim))
           for name, dim in (("x1", hd), ("t1", m), ("x2", hd), ("t2", m))}
    # a fixed member of {V_3 <= 10} as ball centre, drawn like an outer sample
    c = sublevel.cylinder_radius(PROBE_SPEC, HEIS)
    cx = rng.uniform(-c, c, size=(4096, hd))
    ct = rng.uniform(-64.0, 64.0, size=(4096, m))
    member = np.nonzero(sublevel.in_sublevel_xt(PROBE_SPEC, HEIS, cx, ct))[0]
    if member.size == 0:
        raise RuntimeError("no sublevel member among the probe candidates")
    pts["center"] = group.GroupPoint(cx[member[0]], ct[member[0]])
    pts["ball_seeds"] = rng.integers(0, 2 ** 63, size=BALL_CALLS)
    return pts


def median_time(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def direct_probes(seed: int) -> dict:
    p = probe_inputs(seed)
    x1, t1, x2, t2 = p["x1"], p["t1"], p["x2"], p["t2"]
    n = PROBE_POINTS
    big = slice(0, LARGE_BATCH)
    small = [slice(i * SMALL_BATCH, (i + 1) * SMALL_BATCH) for i in range(SMALL_BATCHES)]

    def small_batches():
        for sl in small:
            potential.potential_value_xt(3.0, HEIS, x2[sl], t2[sl])

    def sandwich():
        for alpha in SANDWICH_ALPHAS:
            potential.check_sandwich(alpha, HEIS, (x2[big], t2[big]))

    def balls():
        for s in p["ball_seeds"]:
            sublevel.ball_intersection_volume(PROBE_SPEC, HEIS, p["center"], 1.0,
                                              BALL_SAMPLES, rng=np.random.default_rng(s))

    return {
        "group.product.points_per_s":
            n / median_time(lambda: group.product(HEIS, x1, t1, x2, t2), 5),
        "norms.norm_xt.points_per_s": n / median_time(lambda: norms.norm_xt(x1, t1), 5),
        "norms.quasi_distance_xt.points_per_s":
            n / median_time(lambda: norms.quasi_distance_xt(HEIS, x1, t1, x2, t2), 5),
        "potential.potential_value_xt.points_per_s":
            LARGE_BATCH / median_time(
                lambda: potential.potential_value_xt(3.0, HEIS, x1[big], t1[big]), 5),
        "potential.potential_value_xt.small_batch_points_per_s":
            SMALL_BATCH * SMALL_BATCHES / median_time(small_batches, 5),
        "potential.check_sandwich.s": median_time(sandwich, 3),
        "sublevel.cylinder_radius.s":
            median_time(lambda: sublevel.cylinder_radius(PROBE_SPEC, HEIS), 5),
        "sublevel.ball_intersection_volume.samples_per_s":
            BALL_CALLS * BALL_SAMPLES / median_time(balls, 3),
    }


def blas_probe(inputs: dict) -> float:
    """Seconds for the largest spectral-lowest solve, assembly excluded."""
    grid = spectral.Grid3(HEIS, *inputs["boxes"][-1])
    op = spectral.assemble_operator(inputs["alpha"], HEIS, grid)
    return median_time(lambda: spectral.lanczos_lowest(
        op, k=inputs["k"], tol=inputs["tol"], max_iter=inputs["max_iter"],
        seed=inputs["seed"], grid=grid), 3)


def thread_probe(inputs: dict, nproc: int):
    """The thinness-mc integral at 1 worker and at nproc workers.

    Returns the metrics and the check that both estimates are bit-identical.
    """
    saved = os.environ.get("SRL_THREADS")
    runs = {}
    try:
        for workers in (1, nproc):
            os.environ["SRL_THREADS"] = str(workers)
            t0 = time.perf_counter()
            est = thinness_integral(inputs)
            runs[workers] = (time.perf_counter() - t0, est)
    finally:
        if saved is None:
            os.environ.pop("SRL_THREADS", None)
        else:
            os.environ["SRL_THREADS"] = saved
    (t_one, est_one), (t_all, est_all) = runs[1], runs[nproc]
    metrics = {"sublevel.threads1_s": t_one, "sublevel.parallel_speedup": t_one / t_all}
    return metrics, [("threads_bit_identical", astuple(est_one) == astuple(est_all))]
