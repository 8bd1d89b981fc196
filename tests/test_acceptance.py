"""Acceptance suite: one test per release criterion, tolerances pinned,
plus a check that the normalized equation's step map meets criterion 03
as the Euler-Maruyama route it replaced does.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Statistical tolerances are 3 standard errors plus a
discretization allowance C*dt wherever a weak-order-1 Euler bias enters;
the C constants are frozen from step-halving calibration runs (the bias
halving itself is asserted in criterion 3).
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_model
from qsde.cli import emit, run_command
from qsde.config import parse_config
from qsde.linalg import adjoint
from qsde.master import (
    LindbladPropagator,
    apriori_from_trajectories,
    master_series,
    trace_distance,
)
from qsde.model import (
    DetectionSpec,
    DriveSpec,
    SystemModel,
    TimeGrid,
    _sum_rr,
    build_coefficients,
    verify_weight_identity,
)
from qsde.mollow import (
    SIGMA_MINUS,
    build_mollow_model,
    canonical_config,
    find_spectrum_peaks,
    mollow_checks,
)
from qsde.statistics import (
    analytic_mean_series,
    analytic_second_moment,
    mc_mean_output,
    mc_second_moment,
    spectrum_scan,
    standard_error,
    wiener_law_tests,
)
from qsde.trajectories import (
    _Stack,
    _lane_noise,
    _step_ops,
    generate_wiener,
    run_linear_ensemble,
    run_nonlinear_ensemble,
)

E0 = np.array([1.0, 0.0], dtype=complex)
RHO0 = np.outer(E0, E0.conj())
DT = 1e-3
HORIZON = 2.0
NTRAJ = 10_000
# Euler weak-order-1 slack constants, frozen from step-halving calibration
# (measured trace-distance slope ~7/dt, moment bias well under 10*dt).
C_TRACE = 15.0
C_MOMENT = 25.0
# Rounding bound on the difference of two routes that agree in exact arithmetic.
PATH_TOL = 1e-12

MARTINGALE_CHECKPOINTS = np.round(np.arange(1, 11) * 0.2, 10)
RECORD_TIMES = np.unique(np.concatenate([MARTINGALE_CHECKPOINTS, [0.5, 1.0]]))
# R = identity, K = -(i/2) identity: the exactly solvable scalar model.
IDENTITY_CHANNEL = SystemModel(hamiltonian=np.zeros((2, 2)), channels=(np.eye(2),),
                               drive=DriveSpec(amplitudes=[0.0]),
                               detection=DetectionSpec(), frame=np.zeros((2, 2)))


def report(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def canonical():
    coeffs = build_coefficients(build_mollow_model(canonical_config()))
    return coeffs, LindbladPropagator(coeffs)


@pytest.fixture(scope="module")
def mollow_linear(canonical):
    coeffs, _ = canonical
    return run_linear_ensemble(coeffs, E0, dt=DT, nsteps=int(HORIZON / DT), ntraj=NTRAJ,
                               base_seed=424242, record_times=RECORD_TIMES)


@pytest.fixture(scope="module")
def mollow_nonlinear(canonical):
    coeffs, _ = canonical
    return run_nonlinear_ensemble(coeffs, E0, dt=DT, nsteps=int(HORIZON / DT), ntraj=NTRAJ,
                                  base_seed=434343, record_times=RECORD_TIMES)


@pytest.fixture(scope="module")
def identity_channel_ensemble():
    return run_linear_ensemble(build_coefficients(IDENTITY_CHANNEL), E0, dt=DT, nsteps=1000,
                               ntraj=NTRAJ, base_seed=515151,
                               record_times=np.linspace(0.1, 1.0, 10))


def test_criterion_01_martingale(mollow_linear):
    ens = mollow_linear
    idx = [int(np.argmin(np.abs(ens.times - t))) for t in MARTINGALE_CHECKPOINTS]
    mean = ens.weight.mean(axis=0)[idx]
    se = (ens.weight.std(axis=0, ddof=1) / np.sqrt(ens.ntraj))[idx]
    dev = np.abs(mean - 1.0)
    report(1, bool(np.all(dev <= 3.0 * se)),
           f"max |mean weight - 1| = {dev.max():.4f} vs 3se = {(3 * se).max():.4f} "
           f"at {len(idx)} checkpoints (N = {ens.ntraj})")


def test_criterion_02_weight_identity_randomized():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        nchan = int(rng.integers(1, 4))

        def herm():
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return m + m.conj().T

        if rng.uniform() < 0.5:
            detection = DetectionSpec(kind="diagonal-phase", nu=rng.uniform(-5, 5))
        else:
            q = np.linalg.qr(rng.normal(size=(nchan, nchan))
                             + 1j * rng.normal(size=(nchan, nchan)))[0]
            detection = DetectionSpec(kind="constant-unitary", matrix=q)
        model = SystemModel(
            hamiltonian=herm(),
            channels=tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                           for _ in range(nchan)),
            drive=DriveSpec(amplitudes=rng.normal(size=nchan) + 1j * rng.normal(size=nchan),
                            carrier=rng.uniform(-5, 5)),
            detection=detection,
            frame=herm())
        rep = verify_weight_identity(build_coefficients(model), rng.uniform(0.0, 5.0, size=10))
        worst = max(worst, rep.max_residual)
        assert (rep.residuals <= rep.bounds).all()
    report(2, worst <= 1e-11,
           f"20 random models x 10 times, max residual {worst:.2e} <= 1e-11")


def test_criterion_03_trajectory_master_equivalence(canonical, mollow_linear, mollow_nonlinear):
    coeffs, gen = canonical
    grid = DT * np.arange(int(HORIZON / DT) + 1)
    rho_exact = master_series(gen, RHO0, grid)
    checks = [0.5, 1.0, 2.0]
    detail = []
    ok = True
    for label, ens in (("weighted", mollow_linear), ("normalized", mollow_nonlinear)):
        series = apriori_from_trajectories(ens)
        for t in checks:
            m = int(np.argmin(np.abs(series.times - t)))
            n = int(round(t / DT))
            dist = trace_distance(series.rho[m], rho_exact[n])
            bound = 3.0 * _trace_sigma(series.stderr[m]) + C_TRACE * DT
            ok &= dist <= bound
            detail.append(f"{label} t={t}: {dist:.4f}<={bound:.4f}")
    # weak-order-1 evidence: with the bias dominant (coarse steps), halving
    # the step roughly halves the distance
    ratios = []
    dists = {}
    for dt_c in (1.6e-2, 8e-3):
        nst = int(round(HORIZON / dt_c))
        lin = run_linear_ensemble(coeffs, E0, dt=dt_c, nsteps=nst, ntraj=20_000,
                                  base_seed=616161, record_times=[HORIZON])
        series = apriori_from_trajectories(lin)
        rho_c = master_series(gen, RHO0, TimeGrid.covering(HORIZON, 1e-3).times)[-1]
        dists[dt_c] = trace_distance(series.rho[0], rho_c)
    ratio = dists[8e-3] / dists[1.6e-2]
    ok &= 0.3 <= ratio <= 0.8
    detail.append(f"halving ratio {ratio:.2f} in [0.3, 0.8]")
    report(3, bool(ok), "; ".join(detail))


def _trace_sigma(stderr) -> float:
    """Criterion 03's standard error of a trace distance, from the error bars
    of the density matrix entries."""
    return np.sqrt(2) / 2 * np.sqrt(np.sum(stderr ** 2))


def _paired_stderr(a, b, m: int) -> np.ndarray:
    """Error bars of the entries of the averaged-state difference of two
    ensembles of the same paths at checkpoint m, from the per-path
    difference of |psi><psi|: the shared noise cancels in it, which the two
    ensembles' own error bars would count twice."""
    proj_a, proj_b = (np.einsum("bk,bl->bkl", e.psi[:, m], e.psi[:, m].conj()) for e in (a, b))
    diff = proj_a - proj_b
    return np.sqrt(standard_error(diff.real) ** 2 + standard_error(diff.imag) ** 2)


def _normalized_em_states(coeffs, initial, grid, ntraj, base_seed, record_idx):
    """States (ntraj, nrec, d) of the normalized equation stepped by
    Euler-Maruyama on ``run_nonlinear_ensemble``'s innovation noise and
    renormalized after each step: the engine's route before the step map
    M_n.  No path freezes.

    With m_j = <psi|R_j psi> and G = -i dt [(K+K^*)/2 - (i/2) sum_j R_j^*R_j],
    the step -i Khat psi dt + sum_j (R_j - m_j) psi dWhat_j is
    G psi + sum_j e_j R_j psi - s psi, with e_j = dt conj(m_j) + dWhat_j and
    s = sum_j m_j (dt/2 conj(m_j) + dWhat_j).
    """
    dt, block = grid.h, 128
    k, r = coeffs.tabulate(grid.times)
    g = -1j * dt * (0.5 * (k + adjoint(k)) - 0.5j * _sum_rr(r))
    noise = _lane_noise(base_seed, 0, 1, ntraj, coeffs.nchannels, dt)
    psi = np.repeat(initial[:, None] / np.linalg.norm(initial), ntraj, axis=1)
    record, states = set(record_idx.tolist()), []
    for start in range(0, grid.nsteps + 1, block):
        dw = noise(slice(start, min(start + block, grid.nsteps)))[:, 0]
        for n in range(start, min(start + block, grid.nsteps + 1)):
            if n in record:
                states.append(psi)
            if n == grid.nsteps:
                break
            rpsi = np.einsum("jkl,lc->jkc", r[n], psi)
            m = np.einsum("kc,jkc->jc", psi.conj(), rpsi)
            e = dt * m.conj() + dw[n - start]
            s = (m * (0.5 * dt * m.conj() + dw[n - start])).sum(axis=0)
            psi = psi + g[n] @ psi + (e[:, None] * rpsi).sum(axis=0) - s * psi
            psi = psi / np.linalg.norm(psi, axis=0)
    return np.stack(states).transpose(2, 0, 1)


@pytest.mark.parametrize("which", ["mollow", "random"])
def test_step_map_and_euler_routes_meet_criterion_03(which, canonical):
    """The normalized equation's step map M_n and the Euler-Maruyama route it
    replaced, driven by the same innovation noise, give averaged states
    that agree within 3 sigma + C_TRACE dt at the checkpoints, sigma the
    standard error of the paired difference, and each meets criterion 03's
    rule against master_series, on the canonical Mollow model and on a
    model whose coefficients depend on time."""
    if which == "mollow":
        (coeffs, gen), initial, horizon = canonical, E0, HORIZON
    else:
        coeffs = build_coefficients(random_model(np.random.default_rng(303)))
        gen, initial, horizon = LindbladPropagator(coeffs), np.array([1.0, 0j, 0j]), 1.0
    checks = horizon * np.array([0.25, 0.5, 1.0])
    grid = TimeGrid.covering(horizon, DT)
    new = run_nonlinear_ensemble(coeffs, initial, dt=DT, nsteps=grid.nsteps, ntraj=4096,
                                 base_seed=454545, record_times=checks)
    old = replace(new, psi=_normalized_em_states(coeffs, initial, grid, new.ntraj, 454545,
                                                 grid.checkpoints(checks)))
    series = {label: apriori_from_trajectories(ens) for label, ens in (("new", new), ("old", old))}
    rho_exact = master_series(gen, np.outer(initial, initial.conj()), grid.times)
    for m, n in enumerate(grid.index(checks)):
        for label, ser in series.items():
            dist = trace_distance(ser.rho[m], rho_exact[n])
            assert dist <= 3.0 * _trace_sigma(ser.stderr[m]) + C_TRACE * DT, (label, m, dist)
        dist = trace_distance(series["new"].rho[m], series["old"].rho[m])
        sigma = _trace_sigma(_paired_stderr(new, old, m))
        assert dist <= 3.0 * sigma + C_TRACE * DT, (m, dist)


def test_criterion_04_closed_form_decay():
    gamma = 1.0
    model = SystemModel(hamiltonian=np.zeros((2, 2)),
                        channels=(np.sqrt(gamma) * SIGMA_MINUS,),
                        drive=DriveSpec(amplitudes=[0.0]),
                        detection=DetectionSpec(), frame=np.zeros((2, 2)))
    coeffs = build_coefficients(model)
    gen = LindbladPropagator(coeffs)
    t = 3.0 / gamma
    rho = master_series(gen, RHO0, TimeGrid.covering(t, DT).times)[-1]
    exact = np.exp(-gamma * t)
    rel = abs(rho[0, 0].real - exact) / exact
    # a-posteriori (normalized) unraveling: per-path populations fluctuate,
    # so the standard error honestly reflects the sampling noise
    ens = run_nonlinear_ensemble(coeffs, E0, dt=DT, nsteps=int(t / DT), ntraj=4000,
                                 base_seed=717171, record_times=[t])
    contrib = np.abs(ens.psihat[:, 0, 0]) ** 2
    mc = contrib.mean()
    se = contrib.std(ddof=1) / np.sqrt(len(contrib))
    mc_dev = abs(mc - exact)
    ok = rel <= 1e-6 and mc_dev <= 3.0 * se
    report(4, bool(ok),
           f"master rel err {rel:.2e} <= 1e-6; MC dev {mc_dev:.4f} <= 3se = {3 * se:.4f}")


def test_criterion_05_output_first_moment(canonical, mollow_linear, identity_channel_ensemble):
    _, gen = canonical
    detail, ok = [], True
    for k in range(2):
        ana = analytic_mean_series(gen, RHO0, TimeGrid.covering(1.0, DT))[-1, k]
        mc, se = mc_mean_output(mollow_linear, k, 1.0)
        bound = 3.0 * se + C_MOMENT * DT
        ok &= abs(ana - mc) <= bound
        detail.append(f"mollow ch{k}: |{ana:.4f}-{mc:.4f}|<={bound:.4f}")
    # identity channel: exact value 2t
    gen_i = LindbladPropagator(build_coefficients(IDENTITY_CHANNEL))
    for t in (0.5, 1.0):
        ana = analytic_mean_series(gen_i, np.eye(2) / 2, TimeGrid.covering(t, DT))[-1, 0]
        ok &= abs(ana - 2.0 * t) <= 1e-10
        mc, se = mc_mean_output(identity_channel_ensemble, 0, t)
        bound = 3.0 * se + C_MOMENT * DT
        ok &= abs(mc - 2.0 * t) <= bound
        detail.append(f"identity t={t}: analytic={ana:.12f}, |mc-{2 * t}|<={bound:.4f}")
    report(5, bool(ok), "; ".join(detail))


def test_criterion_06_output_second_moment(canonical, mollow_linear):
    _, gen = canonical
    detail, ok = [], True
    for (i, j) in ((0, 0), (0, 1)):
        for (t1, t2) in ((1.0, 1.0), (1.0, 0.5)):
            ana, = analytic_second_moment(gen, RHO0, TimeGrid.covering(max(t1, t2), DT),
                                          [(i, j, t1, t2)])
            mc, se = mc_second_moment(mollow_linear, i, j, t1, t2)
            bound = 3.0 * se + C_MOMENT * DT
            ok &= abs(ana - mc) <= bound
            detail.append(f"({i},{j},{t1},{t2}): |{ana:.4f}-{mc:.4f}|<={bound:.4f}")
    # noise-only control is exact
    zero_model = SystemModel(hamiltonian=np.diag([1.0, -1.0]).astype(complex),
                             channels=(np.zeros((2, 2)), np.zeros((2, 2))),
                             drive=DriveSpec(amplitudes=[0.0, 0.0]),
                             detection=DetectionSpec(), frame=np.zeros((2, 2)))
    gz = LindbladPropagator(build_coefficients(zero_model))
    same, cross = analytic_second_moment(gz, np.eye(2) / 2, TimeGrid.covering(1.0, 1e-2),
                                         [(0, 0, 1.0, 0.5), (0, 1, 1.0, 0.5)])
    ok &= same == 0.5 and cross == 0.0
    detail.append(f"noise-only controls: {same}, {cross}")
    report(6, bool(ok), "; ".join(detail))


def test_criterion_07_girsanov_law(mollow_linear, identity_channel_ensemble):
    law, rows = wiener_law_tests(mollow_linear)
    failed = [r.name for r in rows if not r.passed]
    _, control = wiener_law_tests(identity_channel_ensemble, reweight=False)
    control_mean_failed = not {r.name: r for r in control}["mean[0]"].passed
    ok = law.passed and control_mean_failed
    report(7, bool(ok),
           f"{len(rows)} reweighted tests pass at 99% (failed: {failed or 'none'}); "
           f"unweighted negative control mean test fails: {control_mean_failed}")


def test_criterion_08_mollow_spectrum():
    nus = np.linspace(0.0, 20.0, 201)
    ok, details = True, []
    for big_omega, expected in ((5.0, {"peak-count", "sideband-locations", "spectrum-symmetry"}),
                                (0.1, {"peak-count", "spectrum-symmetry"})):
        cfg = canonical_config(big_omega=big_omega)
        scan = spectrum_scan(build_mollow_model(cfg), nus, horizon=200.0, dt=5e-3)
        peaks = find_spectrum_peaks(scan.nu, scan.values)
        checks = mollow_checks(cfg, scan, peaks)
        # every expected check must have run, so none can pass by being skipped
        ok &= {name for name, _, _ in checks} == expected
        ok &= all(passed for _, passed, _ in checks)
        details.append(f"Omega={big_omega}: {len(peaks)} peaks at {peaks}; "
                       + ", ".join(f"{name} {'ok' if passed else 'FAIL'} ({detail})"
                                   for name, passed, detail in checks))
    report(8, bool(ok), "; ".join(details))


def _path_defects(coeffs, dt: float, dw: np.ndarray) -> np.ndarray:
    """max over the grid of |psihat_lin - psihat_nl| per path: the normalized
    path driven by the linear path's innovation against that path's psihat."""
    npaths, nst, _ = dw.shape
    ops = _step_ops(*coeffs.tabulate(dt * np.arange(nst + 1)), dt)
    psi0 = np.broadcast_to(E0[None, :, None], (1, 2, npaths))
    every = np.arange(nst + 1)
    # the paths as one G = 1 stack, stepped through the whole table as one block
    linear = _Stack(psi0, 2, dt, every, nonlinear=False)
    linear.advance(ops, dw.transpose(1, 2, 0)[:, None])
    psi, weight, drift, w_path, _ = linear.result()
    dw_hat = np.diff(w_path - 2.0 * drift, axis=1).transpose(1, 2, 0)[:, None]
    normalized = _Stack(psi0, 2, dt, every, nonlinear=True)
    normalized.advance(ops, dw_hat)
    psihat = normalized.result()[0]
    return np.abs(psi / np.sqrt(weight)[..., None] - psihat).max(axis=(1, 2))


def test_criterion_09_nonlinear_linear_consistency(canonical):
    coeffs, _ = canonical
    npaths, nst = 100, 1000
    dw = np.stack([generate_wiener(818181, DT, nst, 2, stream=s).increments
                   for s in range(npaths)])
    # Brownian-bridge refinement: the same paths at half the step
    xi = 0.5 * np.stack([generate_wiener(828282, DT, nst, 2, stream=s).increments
                         for s in range(npaths)])
    dw_half = np.empty((npaths, 2 * nst, 2))
    dw_half[:, 0::2] = 0.5 * dw + xi
    dw_half[:, 1::2] = 0.5 * dw - xi
    # both equations step the map M_n, the normalized one on the output
    # increments, so the two states agree in exact arithmetic, phase included
    worst = [_path_defects(coeffs, dt, inc).max() for dt, inc in ((DT, dw), (DT / 2, dw_half))]
    report(9, max(worst) <= PATH_TOL,
           f"|psihat_lin - psihat_nl| <= {PATH_TOL:g} on {npaths} paths at every grid time: "
           f"max {worst[0]:.1e} at dt, {worst[1]:.1e} at dt/2")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    doc = {
        "model": {"preset": "mollow"},
        "run": {"command": "trajectories", "dt": 1e-3, "horizon": 0.5,
                "ntraj": 64, "seed": 909090, "chunk_size": 16},
        "output": {"directory": str(tmp_path), "formats": ["csv"]},
    }
    cfg = parse_config(json.dumps(doc))
    monkeypatch.setenv("QSDE_WORKERS", "1")
    run1 = emit(run_command(cfg), tmp_path / "r1", formats=("csv",))
    run2 = emit(run_command(cfg), tmp_path / "r2", formats=("csv",))
    monkeypatch.setenv("QSDE_WORKERS", "4")
    run3 = emit(run_command(cfg), tmp_path / "r3", formats=("csv",))
    ok = True
    for f1, f2, f3 in zip(run1, run2, run3):
        ok &= f1.read_bytes() == f2.read_bytes() == f3.read_bytes()
    report(10, bool(ok),
           f"{len(run1)} CSV files byte-identical across reruns and worker counts")
