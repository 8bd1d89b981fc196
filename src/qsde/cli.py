"""Batch front end: one config file in, machine-readable results out.

Usage::

    qsde --config run.json [--seed N] [--out DIR]

The command in the config's run section selects what to compute (verify,
trajectories, master, moments, spectrum, mollow); results are emitted as
CSV tables plus a single JSON document mirroring the whole bundle.  The
exit code is 0 only if every internal physics check passed, so CI can gate
on it.  Identical (config, seed) pairs give byte-identical CSV output
regardless of the worker count (QSDE_WORKERS).
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .master import (
    STATIONARY_RESIDUAL_TOL,
    DegenerateStationaryState,
    LindbladPropagator,
    StationaryResult,
    master_series,
    stationary_state,
    validate_density,
)
from .model import build_coefficients, operator_norm_bounds, verify_weight_identity
from .mollow import find_spectrum_peaks, mollow_checks, rabi_frequency
from .statistics import (Check, judge, mc_mean_output, mc_output_moments, spectrum_scan,
                         standard_error, wiener_law_tests)
from .trajectories import Ensemble, run_linear_ensemble, worker_count

__all__ = ["ResultBundle", "Table", "Check", "run_command", "emit", "main"]


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass
class ResultBundle:
    command: str
    metadata: dict
    tables: dict[str, Table] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "metadata": self.metadata,
            "tables": {name: {"columns": list(t.columns),
                              "rows": [list(r) for r in t.rows]}
                       for name, t in self.tables.items()},
            "checks": [c._asdict() for c in self.checks],
        }


def _start(cfg: RunConfig):
    """Coefficients and initial vector of a run: normalised run.initial_state or basis state 0."""
    psi0 = cfg.run.initial_state
    if psi0 is None:
        psi0 = np.eye(cfg.model.dim, dtype=complex)[0]
    return build_coefficients(cfg.model), psi0


def _ensemble_diagnostics(ens: Ensemble) -> dict:
    """Per checkpoint: trajectories frozen by then, Kish's effective sample
    fraction ESS/N = (sum w)^2 / (N sum w^2), the largest and the mean weight."""
    w = ens.weight
    frozen = (ens.frozen_at[:, None] >= 0) & (ens.frozen_at[:, None] <= ens.grid.index(ens.times))
    return {"t": ens.times.tolist(), "frozen": frozen.sum(axis=0).tolist(),
            "ess_fraction": (w.sum(axis=0) ** 2 / (ens.ntraj * (w ** 2).sum(axis=0))).tolist(),
            "max_weight": w.max(axis=0).tolist(), "mean_weight": w.mean(axis=0).tolist()}


def _report_stationary(st: StationaryResult, bundle: ResultBundle):
    """Nullity and residual of a stationary solve into the JSON metadata (a
    residual that is not finite as null), and a unique state's residual check."""
    bundle.metadata["stationary"] = {
        "nullity": st.nullity, "residual": st.residual if np.isfinite(st.residual) else None}
    if not st.degenerate:
        bundle.checks.append(judge(
            "stationary-residual", st.residual, 0.0, slack=st.bound,
            detail=f"residual {st.residual:.3e} vs tol {STATIONARY_RESIDUAL_TOL:.1e} "
                   "x max(1, max-entry of L_*)")[0])


def _run_verify(cfg: RunConfig, bundle: ResultBundle):
    coeffs = build_coefficients(cfg.model)
    times = np.linspace(0.0, cfg.run.horizon, 11)
    report = verify_weight_identity(coeffs, times, tol=cfg.run.identity_tol)
    bundle.tables["residuals"] = Table(
        columns=("t", "residual"),
        rows=tuple((float(t), float(r)) for t, r in zip(report.times, report.residuals)))
    bundle.checks.append(judge(
        "weight-identity", report.residuals, 0.0, slack=report.bounds,
        detail=f"max residual {report.max_residual:.3e} vs tol {cfg.run.identity_tol:.1e} "
               "x max(1, max-entry of sum_j R_j^* R_j)")[0])
    bounds = operator_norm_bounds(coeffs, cfg.run.horizon)
    bundle.tables["norm_bounds"] = Table(
        columns=("horizon", "sup_rr", "sup_k"),
        rows=((bounds.horizon, bounds.sup_rr, bounds.sup_k),))


def _trajectory_ensemble(cfg: RunConfig, bundle: ResultBundle, coeffs, psi0, record_times):
    """The run's trajectory ensemble, its diagnostics put in the JSON metadata."""
    run, grid = cfg.run, cfg.grid
    ens = run_linear_ensemble(coeffs, psi0, dt=grid.h, nsteps=grid.nsteps, ntraj=run.ntraj,
                              base_seed=run.seed, record_times=record_times,
                              chunk_size=run.chunk_size)
    bundle.metadata["ensemble"] = _ensemble_diagnostics(ens)
    return ens


def _run_trajectories(cfg: RunConfig, bundle: ResultBundle):
    coeffs, psi0 = _start(cfg)
    ens = _trajectory_ensemble(cfg, bundle, coeffs, psi0, cfg.run.record_times)
    mean_w = ens.weight.mean(axis=0)
    se_w = standard_error(ens.weight)
    # E[w_t] = E[w_0]: the null is the mean initial weight, as the t = 0 row rounds it.
    mean_w0 = mean_w[0] if ens.times[0] == 0.0 else np.vdot(psi0, psi0).real
    # A checkpoint where every weight is equal (se 0) passes whatever its mean;
    # ROADMAP item "The normalized equation as the CLI default, with checks that
    # can fail" replaces this clause with an inconclusive outcome.
    check, ok = judge("martingale", mean_w, mean_w0, np.where(se_w == 0.0, np.inf, se_w),
                      detail="mean weight within 3 standard errors of the mean initial "
                             "weight at every checkpoint")
    bundle.tables["weights"] = Table(
        columns=("t", "mean_weight", "stderr", "passed"),
        rows=tuple((float(t), float(m), float(se), int(p))
                   for t, m, se, p in zip(ens.times, mean_w, se_w, ok)))
    bundle.checks.append(check)

    nchan = ens.w_path.shape[2]
    bundle.tables["outputs"] = Table(
        columns=("t", "channel", "mean", "stderr"),
        rows=tuple((float(t), k, *mc_mean_output(ens, k, t))
                   for t in ens.times for k in range(nchan)))

    if len(ens.times) >= 3:
        check, rows = wiener_law_tests(ens)
        bundle.tables["wiener_law"] = Table(
            columns=("test", "statistic", "expected", "stderr", "passed"),
            rows=tuple((r.name, float(r.statistic), float(r.expected),
                        float(r.stderr), int(r.passed)) for r in rows))
        bundle.checks.append(check)

    path_rows = []
    for b in range(ens.ntraj):
        path_rows.append((b, float(ens.weight[b, -1]),
                          *(float(ens.w_path[b, -1, k]) for k in range(nchan)),
                          int(ens.frozen_at[b])))
    bundle.tables["paths"] = Table(
        columns=("trajectory", "final_weight", *(f"W{k}" for k in range(nchan)), "frozen_at"),
        rows=tuple(path_rows))


def _run_master(cfg: RunConfig, bundle: ResultBundle):
    coeffs, psi0 = _start(cfg)
    gen = LindbladPropagator(coeffs)
    grid = cfg.grid
    times = grid.times
    series = master_series(gen, np.outer(psi0, psi0.conj()), times)
    rows = []
    for n in grid.checkpoints(cfg.run.record_times):
        for i in range(gen.dim):
            for j in range(gen.dim):
                rows.append((float(times[n]), i, j,
                             float(series[n, i, j].real), float(series[n, i, j].imag)))
    bundle.tables["rho"] = Table(columns=("t", "i", "j", "re", "im"), rows=tuple(rows))
    try:
        validate_density(series[-1])
        bundle.checks.append(Check(name="final-state-valid", passed=True,
                                   detail="Hermitian, unit trace, positive"))
    except ValueError as exc:
        bundle.checks.append(Check(name="final-state-valid", passed=False, detail=str(exc)))
    if gen.time_independent:
        st = stationary_state(gen)
        if st.degenerate:
            bundle.tables["stationary"] = Table(columns=("nullity",), rows=((st.nullity,),))
        else:
            srows = tuple((i, j, float(st.rho[i, j].real), float(st.rho[i, j].imag))
                          for i in range(gen.dim) for j in range(gen.dim))
            bundle.tables["stationary"] = Table(columns=("i", "j", "re", "im"), rows=srows)
        _report_stationary(st, bundle)


def _run_moments(cfg: RunConfig, bundle: ResultBundle):
    coeffs, psi0 = _start(cfg)
    run, grid = cfg.run, cfg.grid
    pair_times = [t for (_, _, t1, t2) in run.pairs for t in (t1, t2)]
    record = np.union1d(grid.checkpoints(run.record_times), grid.index(pair_times))
    ens = _trajectory_ensemble(cfg, bundle, coeffs, psi0, grid.times[record])
    report = mc_output_moments(ens, LindbladPropagator(coeffs), np.outer(psi0, psi0.conj()),
                               pairs=run.pairs)
    slack = run.bias_coeff * run.dt
    rule = f"3 sigma + {slack:.2e} slack"
    bundle.tables["mean"] = Table(
        columns=("t", "channel", "analytic", "mc", "stderr"),
        rows=tuple((float(t), k, float(report.analytic_mean[m, k]), float(report.mc_mean[m, k]),
                    float(report.mc_mean_stderr[m, k]))
                   for m, t in enumerate(report.times) for k in range(report.mc_mean.shape[1])))
    bundle.checks.append(judge("first-moment", report.mc_mean, report.analytic_mean,
                               report.mc_mean_stderr, slack=slack, detail=rule)[0])
    if report.second:
        second = report.second
        bundle.tables["second"] = Table(
            columns=("i", "j", "t1", "t2", "analytic", "mc", "stderr"),
            rows=tuple((r.i, r.j, r.t1, r.t2, r.analytic, r.mc, r.stderr) for r in second))
        bundle.checks.append(judge("second-moment", [r.mc for r in second],
                                   [r.analytic for r in second], [r.stderr for r in second],
                                   slack=slack, detail=rule)[0])


def _run_spectrum(cfg: RunConfig, bundle: ResultBundle):
    run = cfg.run
    psi0 = run.initial_state
    rho0 = None if psi0 is None else np.outer(psi0, psi0.conj())
    scan = spectrum_scan(cfg.model, run.nu_grid, horizon=run.horizon,
                         dt=run.dt, rho0=rho0)
    if scan.stationary is not None:
        _report_stationary(scan.stationary, bundle)
    bundle.tables["spectrum"] = Table(
        columns=("nu", "s"),
        rows=tuple((float(n), float(s)) for n, s in zip(scan.nu, scan.values)))
    peaks = find_spectrum_peaks(scan.nu, scan.values)
    bundle.tables["peaks"] = Table(columns=("nu",), rows=tuple((float(p),) for p in peaks))
    bundle.checks.append(Check(
        name="spectrum-nonnegative", passed=bool(np.min(scan.values) >= -1e-6),
        detail=f"min S = {np.min(scan.values):.3e}"))
    return scan, peaks


def _run_mollow(cfg: RunConfig, bundle: ResultBundle):
    scan, peaks = _run_spectrum(cfg, bundle)
    bundle.metadata["rabi_frequency"] = rabi_frequency(cfg.mollow)
    bundle.checks.extend(mollow_checks(cfg.mollow, scan, peaks))


_DISPATCH = {
    "verify": _run_verify,
    "trajectories": _run_trajectories,
    "master": _run_master,
    "moments": _run_moments,
    "spectrum": _run_spectrum,
    "mollow": _run_mollow,
}


def run_command(cfg: RunConfig) -> ResultBundle:
    """Execute the configured command and collect tables plus check results."""
    start = time.time()
    bundle = ResultBundle(command=cfg.run.command,
                          metadata={"config": cfg.echo, "seed": cfg.run.seed,
                                    "version": __version__})
    try:
        _DISPATCH[cfg.run.command](cfg, bundle)
    except DegenerateStationaryState as exc:
        bundle.checks.append(Check(name="stationary-unique", passed=False, detail=str(exc)))
    bundle.metadata["walltime_s"] = time.time() - start
    return bundle


def _format_value(v, precision: int) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.{precision}g}"
    return str(v)


def emit(bundle: ResultBundle, directory: str | Path, formats=("csv", "json"),
         precision: int = 17) -> list[Path]:
    """Write the bundle as CSV tables and/or one JSON document (one line, sorted keys).

    CSV bytes are a pure function of the payload (metadata such as wall
    time goes only into the JSON document).
    """
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    seed = bundle.metadata.get("seed", 0)
    if "csv" in formats:
        for name, table in bundle.tables.items():
            path = outdir / f"{bundle.command}_{name}_{seed}.csv"
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(table.columns)
            for row in table.rows:
                writer.writerow([_format_value(v, precision) for v in row])
            path.write_text(buf.getvalue(), encoding="utf-8")
            written.append(path)
    if "json" in formats:
        path = outdir / f"{bundle.command}_{seed}.json"
        # One line: any indent makes json fall back from its C encoder to pure Python.
        path.write_text(json.dumps(bundle.to_json_dict(), sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)
    return written


def main(argv=None) -> int:
    import argparse   # here, not at the top: a library import of qsde.cli does not need it

    parser = argparse.ArgumentParser(prog="qsde", description=__doc__)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    parser.add_argument("--out", default=None, help="override output.directory")
    args = parser.parse_args(argv)

    try:
        worker_count()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        if args.seed is not None:   # the override is read like the config's own seed
            cfg.echo["run"]["seed"] = args.seed
            cfg = parse_config(json.dumps(cfg.echo))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outdir = Path(args.out if args.out is not None else cfg.output.directory)
    try:   # before the run, so an unusable directory costs no work
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    bundle = run_command(cfg)
    paths = emit(bundle, outdir, formats=cfg.output.formats, precision=cfg.output.precision)
    for c in bundle.checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    for p in paths:
        print(f"wrote {p}")
    return 0 if bundle.passed else 2


if __name__ == "__main__":
    sys.exit(main())
