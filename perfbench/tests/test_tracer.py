"""Self-test of the benchmark's tracer.

The unit tests check span bookkeeping on small functions.  The workload test
runs every workload in two traced workers, one untraced and one traced
iteration each (about two minutes on two cores), and asserts that each named
per-layer metric fires on its workload, that call and step counts repeat
exactly, and prints the tracing overhead.

    PYTHONPATH=src python3 -m pytest perfbench/tests -s
"""

from __future__ import annotations

import inspect

import pytest

import run
from layers import LAYER_METRICS, PER_LAYER, _value, layer_metrics
from tracer import LAYERS, Tracer


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(20000)))

    def outer():
        return inner() + inner()

    tracer.wrap("m.outer", outer)()
    calls, total, self_s = tracer.spans["m.outer"]
    assert calls == 1 and tracer.spans["m.inner"][0] == 2
    assert self_s == pytest.approx(total - tracer.spans["m.inner"][1])
    assert 0.0 <= self_s < total


def test_span_recorded_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("m.boom", boom)()
    assert tracer.spans["m.boom"][0] == 1
    assert tracer._stack == []


def test_install_covers_functions_imported_by_name():
    import qsde.cli
    import qsde.master
    import qsde.mollow
    import qsde.statistics
    from qsde.linalg import matrix_exp as original_exp
    from qsde.statistics import spectrum_scan as original_scan

    tracer = Tracer()
    tracer.install()
    try:
        # cli and mollow import spectrum_scan by name; master and statistics
        # import matrix_exp by name.  Each must see the same wrapper.
        wrapped = qsde.statistics.spectrum_scan
        assert wrapped is not original_scan
        assert qsde.cli.spectrum_scan is wrapped and qsde.mollow.spectrum_scan is wrapped
        assert qsde.master.matrix_exp is qsde.statistics.matrix_exp is not original_exp
        for layer in LAYERS:
            module = __import__(f"qsde.{layer}", fromlist=["_"])
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in (original_scan, original_exp):
                    pytest.fail(f"qsde.{layer}.{attr} still holds the unwrapped function")
    finally:
        tracer.uninstall()
    assert qsde.cli.spectrum_scan is original_scan
    assert qsde.master.matrix_exp is original_exp


def test_probe_counts_from_call_arguments():
    import numpy as np
    from qsde.mollow import build_mollow_model, canonical_config

    tracer = Tracer()
    tracer.install()
    try:
        from qsde import master, model, trajectories
        coeffs = model.build_coefficients(build_mollow_model(canonical_config()))
        trajectories.run_linear_ensemble(coeffs, np.array([1.0, 0.0]), dt=1e-2, nsteps=50,
                                         ntraj=48, base_seed=7, chunk_size=32)
        master.master_series(master.LindbladPropagator(coeffs), np.eye(2) / 2,
                             0.01 * np.arange(31))
    finally:
        tracer.uninstall()
    assert tracer.counters["trajectories.traj_steps"] == 48 * 50
    assert tracer.counters["trajectories.noise_bytes_computed"] == 32 * 50 * 2 * 8
    assert tracer.counters["master.rk4_steps"] == 30
    assert tracer.spans["model.tabulate"][0] == 1
    assert tracer.spans["master.master_series"][0] == 1


def test_layer_metrics_flags_counts_that_differ():
    a = {"spans": {"model.r_at": [3, 0.5, 0.5]}, "counters": {}}
    b = {"spans": {"model.r_at": [4, 0.7, 0.7]}, "counters": {}}
    metrics, failures = layer_metrics([a, b])
    assert metrics["model.r_at.s"] == pytest.approx(0.6)
    assert any("model.r_at.calls" in f for f in failures)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_spans_fire_and_counts_repeat(workload):
    # Each traced worker runs one untraced and one traced iteration.
    plain, first = run._worker(workload, run.SEED, "--trace")[1]["iterations"]
    second = run._worker(workload, run.SEED, "--trace")[1]["iterations"][1]
    assert not plain["traced"] and first["traced"] and second["traced"]
    for record in (plain, first, second):
        assert record["failures"] == []
    assert first["digest"] == second["digest"] == plain["digest"]

    silent = [m for m, (_, homes) in LAYER_METRICS.items()
              if workload in homes and not _value(first, m) > 0]
    assert silent == [], f"per-layer metrics that did not fire on {workload}"
    for metric, unit in PER_LAYER.items():
        if unit == "count":
            assert _value(first, metric) == _value(second, metric), metric
    overhead = first["wall_s"] - plain["wall_s"]
    print(f"\n{workload}: untraced {plain['wall_s']:.3f} s, traced {first['wall_s']:.3f} s, "
          f"overhead {overhead:+.3f} s; model.r_at.calls {_value(first, 'model.r_at.calls')}")
