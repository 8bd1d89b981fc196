"""The four benchmark workloads: set-up, timed work and output verification.

Each workload is set up from its config under ``perfbench/configs`` with the
run seed replaced by the benchmark seed, then does its work once.  The CLI
workloads call ``run_command`` and ``emit`` exactly as ``qsde --config``
does; ``traj_nonlinear_pool`` calls the library, because the nonlinear
stepper and the worker pool have no CLI route.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Calls go through the module objects so that the tracer's wrappers apply.
from qsde import cli, config, master, model, trajectories

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Slack of acceptance criterion 03: trace distance <= 3 sigma + C_TRACE * dt.
C_TRACE = 15.0
NONLINEAR_CHECK_TIMES = (0.5, 1.0, 2.0, 4.0)
MOLLOW_PEAKS = (5.0, 10.0, 15.0)


@dataclass
class Outcome:
    failures: list[str]   # empty when the outputs verify
    digest: str           # SHA-256 over the CSV bytes (or result arrays)


def load_config(name: str, seed: int) -> config.RunConfig:
    """Parse the workload's config with ``run.seed`` set to ``seed``."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    doc["run"]["seed"] = seed
    return config.parse_config(json.dumps(doc))


def setup(name: str, seed: int):
    """Parsed config plus built coefficients: the end of the set-up phase."""
    cfg = load_config(name, seed)
    return cfg, model.build_coefficients(cfg.model)


def run(name: str, cfg: config.RunConfig, coeffs, outdir: Path) -> Outcome:
    if name == "traj_nonlinear_pool":
        return _nonlinear_pool(cfg, coeffs)
    bundle = cli.run_command(cfg)
    paths = cli.emit(bundle, outdir, formats=cfg.output.formats, precision=cfg.output.precision)
    failures = [f"check {c.name} failed: {c.detail}" for c in bundle.checks if not c.passed]
    if name == "mollow_scan":
        failures += _mollow_peak_failures(bundle)
    digest = hashlib.sha256()
    for path in sorted(p for p in paths if p.suffix == ".csv"):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return Outcome(failures=failures, digest=digest.hexdigest())


def _mollow_peak_failures(bundle) -> list[str]:
    nu = np.array([row[0] for row in bundle.tables["spectrum"].rows])
    peaks = [row[0] for row in bundle.tables["peaks"].rows]
    tol = 2.0 * (nu[1] - nu[0]) + 1e-12
    if len(peaks) != len(MOLLOW_PEAKS) or any(
            abs(p - want) > tol for p, want in zip(peaks, MOLLOW_PEAKS)):
        return [f"peaks {peaks} not at {list(MOLLOW_PEAKS)} within {tol:.3g}"]
    return []


def _nonlinear_pool(cfg: config.RunConfig, coeffs) -> Outcome:
    """Nonlinear ensemble checked against the RK4 master equation.

    The rule is acceptance criterion 03: at each check time the trace
    distance between the ensemble-averaged state and the master-equation
    state is at most 3 sigma + C_TRACE * dt.
    """
    run = cfg.run
    nsteps = int(round(run.horizon / run.dt))
    psi0 = np.zeros(cfg.model.dim, dtype=complex)
    psi0[0] = 1.0
    ens = trajectories.run_nonlinear_ensemble(coeffs, psi0, dt=run.dt, nsteps=nsteps, ntraj=run.ntraj,
                                 base_seed=run.seed, record_times=NONLINEAR_CHECK_TIMES,
                                 chunk_size=run.chunk_size)
    series = master.apriori_from_trajectories(ens)
    grid = run.dt * np.arange(nsteps + 1)
    exact = master.master_series(master.LindbladPropagator(coeffs),
                                 np.outer(psi0, psi0.conj()), grid)
    failures = []
    for m, t in enumerate(series.times):
        dist = master.trace_distance(series.rho[m], exact[int(round(t / run.dt))])
        sigma = np.sqrt(2) / 2 * np.sqrt(np.sum(series.stderr[m] ** 2))
        bound = 3.0 * sigma + C_TRACE * run.dt
        if not dist <= bound:
            failures.append(f"t={t:g}: trace distance {dist:.4g} > {bound:.4g}")
    digest = hashlib.sha256()
    for arr in (ens.psihat, ens.w_path, ens.frozen_at):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return Outcome(failures=failures, digest=digest.hexdigest())
