"""Metric names and units, and the reduction of traced iterations to per-layer metrics."""

from __future__ import annotations

import statistics

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "steps_per_ref": "1/ref",
}

CLI = ("mollow_scan", "traj_linear", "moments_pairs")
ENSEMBLE = ("traj_linear", "moments_pairs", "traj_nonlinear_pool")

# Per-layer metric -> (unit, workloads on which it must be non-zero).  Span
# metrics end in .calls, .s (total) or .self_s (total minus child spans);
# the others are counters the tracer derives from call arguments.
LAYER_METRICS = {
    "statistics.spectrum_scan.self_s": ("s", ("mollow_scan",)),
    "model.r_at.calls": ("count", ("mollow_scan", "moments_pairs")),
    "model.r_at.s": ("s", ("mollow_scan", "moments_pairs")),
    "master.master_series.calls": ("count", ("mollow_scan", "moments_pairs")),
    "master.master_series.s": ("s", ("mollow_scan", "moments_pairs")),
    "master.rk4_steps": ("count", ("mollow_scan", "moments_pairs", "traj_nonlinear_pool")),
    "statistics.analytic_second_moment.self_s": ("s", ("moments_pairs",)),
    "statistics.analytic_second_moment.calls": ("count", ("moments_pairs",)),
    "trajectories.run_linear_ensemble.s": ("s", ("traj_linear", "moments_pairs")),
    "trajectories.run_nonlinear_ensemble.s": ("s", ("traj_nonlinear_pool",)),
    "trajectories.traj_steps": ("count", ENSEMBLE),
    "trajectories.noise_bytes_computed": ("B", ENSEMBLE),
    "model.tabulate.s": ("s", ENSEMBLE),
    "model.k_at.calls": ("count", ENSEMBLE),
    "master.stationary_state.s": ("s", ("mollow_scan",)),
    "mollow.find_spectrum_peaks.s": ("s", ("mollow_scan",)),
    "statistics.mc_output_moments.self_s": ("s", ("moments_pairs",)),
    "statistics.wiener_law_tests.s": ("s", ("traj_linear",)),
    "linalg.matrix_exp.calls": ("count", ("mollow_scan", "moments_pairs")),
    "cli.emit.s": ("s", CLI),
    "cli.emit.bytes": ("B", CLI),
    "config.parse_config.s": ("s", CLI + ("traj_nonlinear_pool",)),
    "cli.run_command.self_s": ("s", CLI),
    "trace.overhead_s": ("s", ()),
}
PER_LAYER = {name: unit for name, (unit, _) in LAYER_METRICS.items()}

_SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def _value(report: dict, metric: str):
    if metric in report["counters"]:
        return report["counters"][metric]
    span, _, field = metric.rpartition(".")
    if field in _SPAN_FIELDS and span in report["spans"]:
        return report["spans"][span][_SPAN_FIELDS[field]]
    return 0


def layer_metrics(traced: list[dict]) -> tuple[dict, list[str]]:
    """Medians of times and sizes; counts must repeat exactly across iterations."""
    metrics, failures = {}, []
    for metric, unit in PER_LAYER.items():
        if metric == "trace.overhead_s":
            continue
        values = [_value(r, metric) for r in traced]
        if unit == "count":
            if len(set(values)) > 1:
                failures.append(f"{metric} differs between traced iterations: {values}")
            metrics[metric] = values[0]
        else:
            # Times, and byte sizes: the JSON document emit writes carries the wall time.
            metrics[metric] = float(statistics.median(values))
    return metrics, failures
