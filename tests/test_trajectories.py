import collections
import itertools
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

import qsde.trajectories as trajectories
from conftest import ConstantCoefficients, random_model, simple_model
from qsde.linalg import matrix_exp, max_abs
from qsde.model import PROBE_TIMES, Coefficients, TimeGrid, build_coefficients
from qsde.mollow import SIGMA_MINUS, build_mollow_model, canonical_config
from qsde.trajectories import (
    WienerPath,
    _Stack,
    _blocks,
    _constant_ops,
    _lane_noise,
    _step_ops,
    generate_wiener,
    integrate_linear,
    integrate_nonlinear,
    run_linear_ensemble,
    run_nonlinear_ensemble,
)

E0 = np.array([1.0, 0.0], dtype=complex)


def test_noise_free_schrodinger_limit():
    h = np.array([[1.0, 0.4], [0.4, -1.0]], dtype=complex)
    coeffs = build_coefficients(simple_model(hamiltonian=h))
    path = generate_wiener(3, 1e-3, 1000, 1)
    rec = integrate_linear(coeffs, E0, path)
    exact = matrix_exp(h, -1j) @ E0
    # Euler global error is O(dt) for the drift-only equation
    assert max_abs(rec.psi[0, -1] - exact) <= 5e-3
    assert abs(rec.weight[0, -1] - 1.0) <= 5e-3
    assert np.all(rec.weight > 0)


def test_scalar_geometric_euler_product():
    """K = 0, R = c*I: each step multiplies by (1 + c dW), exactly."""
    c = 0.7
    nsteps, dt = 300, 1e-3
    coeffs = ConstantCoefficients(np.zeros((2, 2)), [c * np.eye(2)])
    path = generate_wiener(11, dt, nsteps, 1)
    rec = integrate_linear(coeffs, E0, path)
    product = np.cumprod(1.0 + c * path.increments[:, 0])
    assert max_abs(rec.psi[0, 1:, 0] - product) <= 1e-13
    assert max_abs(rec.psi[0, :, 1]) == 0.0


def test_martingale_mean_weight(mollow_coeffs):
    ens = run_linear_ensemble(mollow_coeffs, E0, dt=1e-3, nsteps=1000, ntraj=3000,
                              base_seed=99, record_times=[0.25, 0.5, 0.75, 1.0])
    mean = ens.weight.mean(axis=0)
    se = ens.weight.std(axis=0, ddof=1) / np.sqrt(ens.ntraj)
    assert np.all(np.abs(mean - 1.0) <= 3.0 * se)


def test_girsanov_shift_cases():
    nsteps, dt = 400, 1e-3
    path = generate_wiener(21, dt, nsteps, 1)
    # R = 0: innovation equals the driving noise
    coeffs0 = build_coefficients(simple_model(hamiltonian=np.diag([1.0, -1.0])))
    rec = integrate_linear(coeffs0, E0, path)
    assert max_abs(rec.innovation[0] - rec.w_path[0]) == 0.0
    # purely imaginary expectation: R = i 1 gives Re <R> = 0
    coeffs_i = ConstantCoefficients(np.zeros((2, 2)), [1j * np.eye(2)])
    rec = integrate_linear(coeffs_i, E0, path)
    assert max_abs(rec.innovation[0] - rec.w_path[0]) == 0.0
    # R = 1: <R> = 1, innovation removes the 2t drift exactly on the grid
    coeffs_1 = build_coefficients(simple_model(channels=(np.eye(2),)))
    rec = integrate_linear(coeffs_1, E0, path)
    assert max_abs(rec.innovation[0, :, 0] - (rec.w_path[0, :, 0] - 2.0 * rec.times)) <= 1e-12


def test_scale_equivariance_bit_exact(mollow_coeffs):
    path = generate_wiener(17, 1e-3, 500, 2)
    base = integrate_linear(mollow_coeffs, E0, path)
    for c in (2.0, 2.0j):
        scaled = integrate_linear(mollow_coeffs, c * E0, path)
        assert np.array_equal(scaled.psi, c * base.psi)


def test_phase_invariance_of_functionals(mollow_coeffs):
    path = generate_wiener(23, 1e-3, 500, 2)
    a = integrate_linear(mollow_coeffs, E0, path)
    b = integrate_linear(mollow_coeffs, np.exp(0.73j) * E0, path)
    assert max_abs(a.weight - b.weight) <= 1e-12
    assert max_abs(a.innovation - b.innovation) <= 1e-12
    na, nb = a.psihat[0], b.psihat[0]
    proj_a = np.einsum("tk,tl->tkl", na, na.conj())
    proj_b = np.einsum("tk,tl->tkl", nb, nb.conj())
    assert max_abs(proj_a - proj_b) <= 1e-12


def test_linear_path_psihat_is_scale_free_unit_state():
    nsteps, dt = 50, 1e-2
    coeffs = build_coefficients(simple_model(hamiltonian=np.diag([0.3, -0.3])))
    path = generate_wiener(2, dt, nsteps, 1)
    rec = integrate_linear(coeffs, E0, path)
    norm = rec.psihat[0]
    assert np.allclose(np.linalg.norm(norm, axis=1), 1.0, atol=1e-12)
    # scaling the state leaves the posterior unchanged
    rec2 = integrate_linear(coeffs, 2.0 * E0, path)
    norm2 = rec2.psihat[0]
    assert max_abs(norm - norm2) <= 1e-12
    assert max_abs(rec.innovation - rec2.innovation) <= 1e-12


def test_nonlinear_deterministic_limits(mollow_coeffs):
    h = np.array([[0.7, 0.2], [0.2, -0.7]], dtype=complex)
    coeffs = build_coefficients(simple_model(hamiltonian=h))
    path = generate_wiener(4, 1e-3, 1000, 1)
    rec = integrate_nonlinear(coeffs, E0, path)
    exact = matrix_exp(h, -1j) @ E0
    assert max_abs(rec.psihat[0, -1] - exact) <= 5e-3
    assert np.allclose(np.linalg.norm(rec.psihat[0], axis=1), 1.0, atol=1e-12)
    # R = c*identity: the centered diffusion vanishes identically
    nsteps, dt = 300, 1e-3
    coeffs = build_coefficients(simple_model(channels=(0.5 * np.eye(2),)))
    p1 = generate_wiener(5, dt, nsteps, 1)
    p2 = generate_wiener(6, dt, nsteps, 1)
    r1 = integrate_nonlinear(coeffs, E0, p1)
    r2 = integrate_nonlinear(coeffs, E0, p2)
    assert max_abs(r1.psihat - r2.psihat) <= 1e-12


def test_nonlinear_requires_unit_norm(mollow_coeffs):
    path = generate_wiener(1, 1e-3, 10, 2)
    with pytest.raises(ValueError, match="unit norm"):
        integrate_nonlinear(mollow_coeffs, 2.0 * E0, path)


def test_single_paths_reject_malformed_states(mollow_coeffs):
    """A NaN state slipped past the unit-norm check (|nan - 1| > 1e-9 is
    false) and gave NaN paths; a zero state gave an all-zero linear path; a
    (states, probabilities) tuple gave numpy's bare shape error."""
    path = generate_wiener(1, 1e-3, 10, 2)
    for integrate in (integrate_linear, integrate_nonlinear):
        for psi0, problem in ((np.array([np.nan, 1.0]), "finite amplitudes"),
                              (np.ones(3) / np.sqrt(3.0), "must have 2 amplitudes"),
                              ((np.eye(2), [0.5, 0.5]), "^initial state: ")):
            with pytest.raises(ValueError, match=problem):
                integrate(mollow_coeffs, psi0, path)
    with pytest.raises(ValueError, match="must be nonzero"):
        integrate_linear(mollow_coeffs, np.zeros(2), path)


SINGLE = {False: (integrate_linear, run_linear_ensemble),
          True: (integrate_nonlinear, run_nonlinear_ensemble)}


@pytest.mark.parametrize("nonlinear", [False, True])
def test_single_path_is_an_ensemble_of_one(nonlinear, mollow_coeffs):
    """A single path is an Ensemble with ntraj = 1 recorded at every grid
    time, frozen_at -1 when it never freezes; every field equals, bit for
    bit, the one-trajectory ensemble run on the same stream."""
    integrate, run = SINGLE[nonlinear]
    dt, nsteps = 1e-3, 150
    path = generate_wiener(19, dt, nsteps, 2)
    single = integrate(mollow_coeffs, E0, path)
    grid = TimeGrid(dt, nsteps)
    assert single.grid == grid and single.ntraj == 1
    assert np.array_equal(single.times, grid.times)
    assert single.psi.shape == (1, nsteps + 1, 2) and single.weight.shape == (1, nsteps + 1)
    for field in ("w_path", "innovation"):
        assert getattr(single, field).shape == (1, nsteps + 1, 2)
    assert single.frozen_at.shape == (1,) and single.frozen_at[0] == -1
    ens = run(mollow_coeffs, E0, dt=dt, nsteps=nsteps, ntraj=1, base_seed=19,
              record_times=grid.times)
    for field, value in vars(ens).items():
        if isinstance(value, np.ndarray):
            assert getattr(single, field).tobytes() == value.tobytes(), field


BAD_PATHS = {
    "900_increments_for_1000_steps": (dict(increments=np.zeros((900, 2))),
                                      r"increments must have shape \(1000, 2\)"),
    "one_channel_for_two": (dict(increments=np.zeros((1000, 1))), "increments must have shape"),
    "nan_increment": (dict(increments=np.where(np.arange(1000)[:, None] == 7, np.nan,
                                               np.zeros((1000, 2)))), "increments must be finite"),
    "inf_increment": (dict(increments=np.full((1000, 2), np.inf)), "increments must be finite"),
    "dt_-1e-3": (dict(dt=-1e-3), "dt must be finite and positive"),
    "dt_0": (dict(dt=0.0), "dt must be"),
    "dt_nan": (dict(dt=np.nan), "dt must be"),
    "dt_inf": (dict(dt=np.inf), "dt must be"),
    "nsteps_0": (dict(nsteps=0, increments=np.zeros((0, 2))),
                 "nsteps must be an integer of at least 1"),
    "nsteps_float": (dict(nsteps=1000.0), "nsteps must be"),
    "nsteps_bool": (dict(nsteps=True, increments=np.zeros((1, 2))), "nsteps must be"),
    "nchannels_0": (dict(nchannels=0, increments=np.zeros((1000, 0))),
                    "nchannels must be an integer of at least 1"),
}


@pytest.mark.parametrize("case", list(BAD_PATHS))
def test_malformed_wiener_paths_rejected(case, mollow_coeffs, monkeypatch):
    """900 increments for 1000 steps gave the uninitialized tail of the
    records as weights, NaN increments a NaN weight, dt -1e-3 a run to
    t = -1 and generate_wiener NaN or inf increments for dt NaN or inf: a
    path is checked on construction, drawn or built by hand, so neither
    integrator can be given one of these."""
    bad, problem = BAD_PATHS[case]
    fields = dict(dt=1e-3, nsteps=1000, nchannels=2, increments=np.zeros((1000, 2))) | bad
    monkeypatch.setattr(trajectories, "_run_stacks", _no_work)
    with pytest.raises(ValueError, match=problem):
        WienerPath(**fields)
    if "increments" not in bad:
        args = {k: fields[k] for k in ("dt", "nsteps", "nchannels")}
        monkeypatch.setattr(trajectories, "_philox_stream", _no_work)
        with pytest.raises(ValueError, match=problem):
            generate_wiener(seed=0, **args)
    for integrate in (integrate_linear, integrate_nonlinear):
        with pytest.raises(ValueError, match=problem):
            integrate(mollow_coeffs, E0, WienerPath(**fields))


def test_wiener_path_accepts_numpy_counts():
    """numpy integers are valid counts, and a hand-built path's increments
    are kept as a float array."""
    path = WienerPath(dt=np.float64(0.1), nsteps=np.int64(3), nchannels=np.int32(1),
                      increments=[[0.1], [-0.2], [0.3]])
    assert path.increments.dtype == float and path.increments.shape == (3, 1)


def test_wiener_path_increments_are_read_only(mollow_coeffs):
    """A NaN written into a drawn path's increments used to reach the
    integrators as NaN weights: the path holds a read-only copy, and the
    caller's own array stays writable."""
    path = generate_wiener(3, 1e-3, 100, 2)
    with pytest.raises(ValueError, match="read-only"):
        path.increments[50, 0] = np.nan
    own = np.zeros((100, 2))
    built = WienerPath(dt=1e-3, nsteps=100, nchannels=2, increments=own)
    own[50, 0] = np.nan
    assert np.isfinite(built.increments).all()
    assert np.isfinite(integrate_linear(mollow_coeffs, E0, built).weight).all()


def test_linear_nonlinear_path_consistency(mollow_coeffs):
    """Driving the normalized equation with the innovation extracted from a
    linear path reproduces that path's psihat, phase included, to rounding."""
    dt, nsteps = 1e-3, 1000
    for s in range(5):
        path = generate_wiener(500 + s, dt, nsteps, 2)
        lin = integrate_linear(mollow_coeffs, E0, path)
        innov = WienerPath(dt=dt, nsteps=nsteps, nchannels=2,
                           increments=np.diff(lin.innovation[0], axis=0))
        nl = integrate_nonlinear(mollow_coeffs, E0, innov)
        assert max_abs(lin.psihat - nl.psihat) <= 1e-12
        assert max_abs(lin.w_path - nl.w_path) <= 1e-12


def test_weight_floor_freezes_trajectory(monkeypatch):
    """A strongly contracting scalar model underflows and freezes, flagged."""
    nsteps, dt = 4000, 1e-3
    c = 3.0
    coeffs = ConstantCoefficients(np.zeros((2, 2)), [c * np.eye(2)])
    monkeypatch.setattr(trajectories, "WEIGHT_FLOOR", 1e-6)
    frozen = 0
    for s in range(20):
        path = generate_wiener(900 + s, dt, nsteps, 1)
        rec = integrate_linear(coeffs, E0, path)
        if rec.frozen_at[0] >= 0:
            frozen += 1
            n = rec.frozen_at[0]
            assert rec.weight[0, n] < 1e-6
            assert np.array_equal(rec.psi[0, n], rec.psi[0, -1])
    assert frozen > 0


def test_ensemble_rerun_is_bit_identical(mollow_coeffs):
    common = dict(initial=E0, dt=1e-3, nsteps=200, ntraj=37, base_seed=12,
                  record_times=[0.1, 0.2], chunk_size=8)
    a = run_linear_ensemble(mollow_coeffs, **common)
    b = run_linear_ensemble(mollow_coeffs, **common)
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.innovation, b.innovation)


def test_ensemble_chunking_invariance(mollow_coeffs):
    """Chunk grouping only batches the arithmetic; results agree to rounding
    (BLAS kernels for different batch shapes may differ in the last ulp)."""
    common = dict(initial=E0, dt=1e-3, nsteps=200, ntraj=37, base_seed=12,
                  record_times=[0.1, 0.2])
    a = run_linear_ensemble(mollow_coeffs, chunk_size=8, **common)
    b = run_linear_ensemble(mollow_coeffs, chunk_size=37, **common)
    assert max_abs(a.psi - b.psi) <= 1e-13
    assert max_abs(a.innovation - b.innovation) <= 1e-13
    an = run_nonlinear_ensemble(mollow_coeffs, chunk_size=5, **common)
    bn = run_nonlinear_ensemble(mollow_coeffs, chunk_size=64, **common)
    assert max_abs(an.psihat - bn.psihat) <= 1e-13


def test_ensemble_worker_count_invariance(mollow_coeffs, monkeypatch):
    common = dict(initial=E0, dt=1e-3, nsteps=100, ntraj=24, base_seed=5,
                  record_times=[0.05, 0.1], chunk_size=6)
    monkeypatch.setenv("QSDE_WORKERS", "1")
    a = run_linear_ensemble(mollow_coeffs, **common)
    an = run_nonlinear_ensemble(mollow_coeffs, **common)
    monkeypatch.setenv("QSDE_WORKERS", "3")
    b = run_linear_ensemble(mollow_coeffs, **common)
    bn = run_nonlinear_ensemble(mollow_coeffs, **common)
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.weight, b.weight)
    for field in ("psihat", "w_path", "innovation", "frozen_at"):
        assert np.array_equal(getattr(an, field), getattr(bn, field))


def test_ensemble_matches_single_trajectories(mollow_coeffs):
    """Ensemble member k reproduces integrate_linear with stream k (same
    noise stream; batched vs single BLAS paths agree to rounding)."""
    dt, nsteps = 1e-3, 100
    ens = run_linear_ensemble(mollow_coeffs, E0, dt=dt, nsteps=nsteps, ntraj=3,
                              base_seed=77, record_times=dt * np.arange(nsteps + 1))
    for b in range(3):
        path = generate_wiener(77, dt, nsteps, 2, stream=b)
        rec = integrate_linear(mollow_coeffs, E0, path)
        assert max_abs(ens.psi[b] - rec.psi[0]) <= 1e-13
        assert max_abs(ens.weight[b] - rec.weight[0]) <= 1e-13



def test_normalized_ensemble_has_unit_weights_and_psihat_is_psi(mollow_coeffs):
    """Both equations give one Ensemble type: a normalized ensemble's weights
    are exactly 1, so its psihat is its psi bit for bit; so is a single
    normalized path's."""
    ens = run_nonlinear_ensemble(mollow_coeffs, E0, dt=1e-3, nsteps=100, ntraj=5,
                                 base_seed=4, record_times=[0.0, 0.05, 0.1])
    path = integrate_nonlinear(mollow_coeffs, E0, generate_wiener(4, 1e-3, 100, 2))
    for result in (ens, path):
        assert result.weight.shape == result.psi.shape[:2] and np.all(result.weight == 1.0)
        assert result.psihat.tobytes() == result.psi.tobytes()


def test_linear_psihat_matches_single_path_psihat(mollow_coeffs):
    """A linear ensemble's psihat is the psihat of the single path on the
    same stream, at the checkpoints."""
    dt, nsteps = 1e-3, 100
    ens = run_linear_ensemble(mollow_coeffs, E0, dt=dt, nsteps=nsteps, ntraj=3,
                              base_seed=77, record_times=[0.02, 0.05, 0.1])
    idx = ens.grid.index(ens.times)
    for b in range(3):
        rec = integrate_linear(mollow_coeffs, E0, generate_wiener(77, dt, nsteps, 2, stream=b))
        assert max_abs(ens.psihat[b] - rec.psihat[0, idx]) <= 1e-14


def test_psihat_rejects_zero_norm_state(mollow_coeffs):
    """psihat has no value for a zero-norm state."""
    ens = run_linear_ensemble(mollow_coeffs, E0, dt=1e-3, nsteps=10, ntraj=2, base_seed=1)
    weight = ens.weight.copy()
    weight[1, -1] = 0.0
    with pytest.raises(ValueError, match="zero-norm state"):
        replace(ens, weight=weight).psihat

def test_record_times_are_grid_points(mollow_coeffs):
    """Record times are looked up on the grid n dt: repeats collapse, and a
    time between grid points or past the horizon is an error."""
    common = dict(initial=E0, dt=1e-3, nsteps=100, ntraj=2, base_seed=3)
    ens = run_linear_ensemble(mollow_coeffs, record_times=[0.1, 0.05, 0.1], **common)
    assert ens.times.tolist() == [0.05, 0.1] and ens.grid.nsteps == 100
    for bad in ([0.0503], [0.05, 0.2], [-1e-3]):
        with pytest.raises(ValueError, match="not points of the grid"):
            run_nonlinear_ensemble(mollow_coeffs, record_times=bad, **common)


def test_girsanov_two_time_moments(mollow_coeffs):
    """Reweighted innovation moments: mean zero and covariance
    delta_{jk} min(t, s) within 3 standard errors plus O(dt)."""
    dt, nsteps, ntraj = 1e-3, 1000, 4000
    ens = run_linear_ensemble(mollow_coeffs, E0, dt=dt, nsteps=nsteps, ntraj=ntraj,
                              base_seed=640, record_times=[0.4, 1.0])
    w = ens.weight[:, -1]
    for m, t in enumerate(ens.times):
        for k in range(2):
            contrib = w * ens.innovation[:, m, k]
            se = contrib.std(ddof=1) / np.sqrt(ntraj)
            assert abs(contrib.mean()) <= 3.0 * se
    pairs = [(0, 0, 1.0, 0.4), (0, 1, 1.0, 1.0), (1, 1, 1.0, 1.0), (0, 1, 1.0, 0.4)]
    for (j, k, t, s) in pairs:
        mt = int(np.argmin(np.abs(ens.times - t)))
        ms = int(np.argmin(np.abs(ens.times - s)))
        contrib = w * ens.innovation[:, mt, j] * ens.innovation[:, ms, k]
        se = contrib.std(ddof=1) / np.sqrt(ntraj)
        expected = min(t, s) if j == k else 0.0
        assert abs(contrib.mean() - expected) <= 3.0 * se + 10 * dt


def test_weighted_vs_nonlinear_functional_agreement(mollow_coeffs):
    """Reweighted linear mean of a bounded functional matches the nonlinear
    ensemble mean within combined errors (measure-change consistency)."""
    dt, nsteps, ntraj = 1e-3, 1000, 3000
    lin = run_linear_ensemble(mollow_coeffs, E0, dt=dt, nsteps=nsteps, ntraj=ntraj,
                              base_seed=1001, record_times=[1.0])
    nl = run_nonlinear_ensemble(mollow_coeffs, E0, dt=dt, nsteps=nsteps, ntraj=ntraj,
                                base_seed=2002, record_times=[1.0])
    # g = excited-state population of the normalized state
    g_lin = np.abs(lin.psi[:, 0, 0]) ** 2 / lin.weight[:, 0]
    a = lin.weight[:, 0] * g_lin
    b = np.abs(nl.psihat[:, 0, 0]) ** 2
    se = np.sqrt(a.var(ddof=1) / ntraj + b.var(ddof=1) / ntraj)
    assert abs(a.mean() - b.mean()) <= 3.0 * se + 10 * dt


def _reference_step(k, r, dt, psi, dw_n, nonlinear):
    """One step of the map M_n, transcribed plainly, before renormalization.

    Linear:     psi += -i K psi dt + sum_j R_j psi dW_j.
    Normalized: the same map on the output increments
                dY_j = dWhat_j + 2 dt Re <psi|R_j psi> (unit-norm psi).
    """
    if nonlinear:
        dw_n = [dw_j + 2.0 * dt * np.vdot(psi, rj @ psi).real for dw_j, rj in zip(dw_n, r)]
    return psi - 1j * dt * (k @ psi) + sum(dw_j * (rj @ psi) for dw_j, rj in zip(dw_n, r))


def _reference_paths(k, r, dt, psi0, dw, nonlinear):
    """States (nsteps+1, d) and expectations <R_j> (nsteps+1, J) per path,
    stepping with :func:`_reference_step` (normalized after each step for
    the nonlinear equation)."""
    states, expects = [], []
    for b in range(psi0.shape[1]):
        psi = psi0[:, b] / (np.linalg.norm(psi0[:, b]) if nonlinear else 1.0)
        path_states, path_expects = [psi], []
        for n in range(len(dw) + 1):
            path_expects.append(
                np.array([np.vdot(psi, rj @ psi) for rj in r[n]]) / np.vdot(psi, psi).real)
            if n == len(dw):
                break
            psi = _reference_step(k[n], r[n], dt, psi, dw[n, :, b], nonlinear)
            if nonlinear:
                psi = psi / np.linalg.norm(psi)
            path_states.append(psi)
        states.append(path_states)
        expects.append(path_expects)
    return np.array(states), np.array(expects)


# (d, J) of the time-dependent random models: a misplaced block of the real
# step table shows only where d differs from J or from 2
TRANSCRIPTION_MODELS = {"random": (3, 2), "random-d1-j1": (1, 1), "random-d4-j3": (4, 3)}


@pytest.mark.parametrize("which", ["mollow", *TRANSCRIPTION_MODELS])
def test_steppers_match_per_step_transcription(which, mollow_coeffs):
    """The stacked-operator kernel is an algebraic rewrite of the textbook
    step map of either equation: equal to rounding on time-dependent
    models of several sizes too."""
    rng = np.random.default_rng(61)
    coeffs = mollow_coeffs if which == "mollow" else build_coefficients(
        random_model(rng, *TRANSCRIPTION_MODELS[which]))
    d, nchan = coeffs.dim, coeffs.nchannels
    dt, nsteps, batch = 1e-3, 400, 3
    table = coeffs.tabulate(dt * np.arange(nsteps + 1))
    psi0 = rng.normal(size=(d, batch)) + 1j * rng.normal(size=(d, batch))
    dw = rng.normal(0.0, np.sqrt(dt), size=(nsteps, nchan, batch))
    every = np.arange(nsteps + 1)
    for nonlinear in (False, True):
        # the batch as a G = 1 stack, stepped through the whole table as one block
        stack = _Stack(psi0[None], nchan, dt, every, nonlinear=nonlinear)
        stack.advance(_step_ops(*table, dt), dw[:, None])
        psi, _, drift, _, frozen = stack.result()
        ref_psi, ref_rexp = _reference_paths(*table, dt, psi0, dw, nonlinear)
        # the drift integral int_0^t Re <R_j> ds, left-point sums of the reference <R_j>
        ref_drift = np.zeros(ref_rexp.shape)
        ref_drift[:, 1:] = dt * np.cumsum(ref_rexp.real[:, :-1], axis=1)
        scale = np.max(np.abs(ref_psi))
        assert np.all(frozen == -1)
        assert max_abs(psi - ref_psi) <= 1e-12 * scale
        assert max_abs(drift - ref_drift) <= 1e-12 * max(1.0, max_abs(ref_drift))


@pytest.mark.parametrize("law", ["engine", "planted"])
def test_three_point_increments_give_gaussian_em_second_moments_exactly(law, mollow_coeffs):
    """The linear step is affine in each step's increments, so E_ref[psi psi^*]
    takes from their law only its means and covariances.  Every sequence of
    atoms over three steps of two channels is a lane of one stack, 3^6 =
    729 lanes weighted by their probabilities: their weighted mean of
    psi psi^* equals the Gaussian Euler-Maruyama recursion
    X <- A X A^* + dt sum_j R_j X R_j^*, A = I - i dt K(t_n), at every step,
    to rounding (8.4e-15 here).  The planted law, p = 1/4 with
    a = sqrt(3 dt), has variance 1.5 dt and misses it by 0.07."""
    dt, nsteps, nchan = 0.05, 3, mollow_coeffs.nchannels
    if law == "engine":     # the engine's P(+a) and atom +a, the largest of its draws
        p = trajectories._THREE_POINT_LO / 2**32
        atom = generate_wiener(1, dt, 1000, 1).increments.max()
    else:
        p, atom = 0.25, np.sqrt(3 * dt)
    atoms, probs = np.array([-atom, 0.0, atom]), np.array([p, 1.0 - 2.0 * p, p])
    seqs = np.array(list(itertools.product(range(3), repeat=nsteps * nchan)))
    dw = atoms[seqs].T.reshape(nsteps, 1, nchan, len(seqs))
    weight = probs[seqs].prod(axis=1)
    k, r = mollow_coeffs.tabulate(dt * np.arange(nsteps + 1))
    psi0 = np.broadcast_to(E0[None, :, None], (1, 2, len(seqs)))
    stack = _Stack(psi0, nchan, dt, np.arange(nsteps + 1), nonlinear=False)
    stack.advance(_step_ops(k, r, dt), dw)
    psi = stack.result()[0]
    mean = np.einsum("b,bni,bnj->nij", weight, psi, psi.conj())
    exact = [np.outer(E0, E0.conj())]
    for n in range(nsteps):
        a, x = np.eye(2) - 1j * dt * k[n], exact[-1]
        exact.append(a @ x @ a.conj().T + dt * sum(rj @ x @ rj.conj().T for rj in r[n]))
    # rounding: a sum of n terms is off by at most about n eps times their size
    gap, bound = max_abs(mean - np.array(exact)), len(seqs) * np.finfo(float).eps
    assert bool(gap <= bound * max_abs(np.array(exact))) is (law == "engine"), gap


@pytest.mark.parametrize("d, nchan", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_step_table_is_the_real_block_form(d, nchan):
    """The step table times [Re psi; Im psi] gives the complex rows
    [psi; R_j psi; (I - i dt K) psi] split into real and imaginary parts,
    and a linear stack's drift after one step is dt Re <psi|R_j psi> /
    ||psi||^2: each within twice the rounding bound of a 2d-term dot
    product, 4 d eps times the sum of the terms' magnitudes.  The identity
    rows give psi itself, equal in value."""
    rng = np.random.default_rng(100 * d + nchan)
    nrows, dt, lanes, eps = 3, 1e-2, 5, np.finfo(float).eps

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    k, r, psi = cnormal(nrows, d, d), cnormal(nrows, nchan, d, d), cnormal(d, lanes)
    ops = _step_ops(k, r, dt)
    assert ops.dtype == float and ops.shape == (nrows, (nchan + 2) * 2 * d, 2 * d)

    def magnitudes(z):
        return np.abs(z.real) + np.abs(z.imag)

    rows = np.concatenate([psi.real, psi.imag])
    for n in range(nrows):
        ops_c = np.concatenate([np.eye(d), *r[n], np.eye(d) - 1j * dt * k[n]])
        want = ops_c @ psi
        bound = 4 * d * eps * (magnitudes(ops_c) @ magnitudes(psi))
        got = (ops[n] @ rows).reshape(nchan + 2, 2, d, lanes)
        assert np.all(np.abs(got[:, 0] - want.real.reshape(nchan + 2, d, lanes))
                      <= bound.reshape(nchan + 2, d, lanes))
        assert np.all(np.abs(got[:, 1] - want.imag.reshape(nchan + 2, d, lanes))
                      <= bound.reshape(nchan + 2, d, lanes))
        assert np.array_equal(got[0], np.stack([psi.real, psi.imag]))
    stack = _Stack(psi[None], nchan, dt, np.arange(2), nonlinear=False)
    stack.advance(ops[:2], np.zeros((1, 1, nchan, lanes)))
    drift = stack.result()[2][:, 1]
    sq_norm = np.sum(np.abs(psi) ** 2, axis=0)
    for j in range(nchan):
        rpsi = r[0, j] @ psi
        want = dt * np.einsum("kc,kc->c", psi.conj(), rpsi).real / sq_norm
        scale = np.sum(magnitudes(psi) * (magnitudes(r[0, j]) @ magnitudes(psi)), axis=0)
        assert np.all(np.abs(drift[:, j] - want) <= 4 * d * eps * dt * scale / sq_norm)


def test_real_stack_round_trip_is_exact():
    """Complex initial states go into the real stack [Re psi; Im psi] and
    come back as complex records bit for bit, signed zeros included."""
    rng = np.random.default_rng(5)
    psi0 = np.empty((2, 3, 4), dtype=complex)
    psi0.real, psi0.imag = rng.normal(size=psi0.shape), rng.normal(size=psi0.shape)
    psi0.real[:, 0, :2], psi0.imag[:, 1, 1:3] = -0.0, -0.0
    psi0.real[:, 2, 3], psi0.imag[:, 2, 0] = 0.0, 0.0
    stack = _Stack(psi0, 1, 1e-2, np.arange(1), nonlinear=False)
    stack.advance(_step_ops(np.zeros((1, 3, 3)), np.zeros((1, 1, 3, 3)), 1e-2),
                  np.zeros((0, 2, 1, 4)))
    psi = stack.result()[0]
    assert psi.tobytes() == np.moveaxis(psi0, 2, 1).reshape(8, 1, 3).tobytes()


def test_nonlinear_partial_freeze(monkeypatch):
    """Only some paths of a batch freeze: their state and drift stop, the
    others are stepped exactly as they would be on their own."""
    coeffs = build_coefficients(simple_model(channels=(2.0 * SIGMA_MINUS,)))
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    # ||M psihat||^2 moves at O(sqrt(dt)): its minima over the 12 paths span
    # 0.719-0.867, and 0.74 lies between the 8th (0.722) and 9th (0.746)
    dt, nsteps, ntraj, floor = 0.01, 30, 12, 0.74
    monkeypatch.setattr(trajectories, "WEIGHT_FLOOR", floor)
    grid = dt * np.arange(nsteps + 1)
    ens = run_nonlinear_ensemble(coeffs, psi0, dt=dt, nsteps=nsteps, ntraj=ntraj,
                                 base_seed=73, record_times=grid)
    frozen = ens.frozen_at >= 0
    assert 0 < frozen.sum() < ntraj
    drift = 0.5 * (ens.w_path - ens.innovation)
    k, r = coeffs.tabulate(grid)
    for b in range(ntraj):
        path = generate_wiener(73, dt, nsteps, 1, stream=b)
        alone = integrate_nonlinear(coeffs, psi0, path)
        assert max_abs(ens.psihat[b] - alone.psihat[0]) <= 1e-14
        n = ens.frozen_at[b]
        assert alone.frozen_at[0] == n
        # the freeze step is the first whose unnormalized result falls below the floor
        last = nsteps if n < 0 else n
        for i in range(last):
            psi_new = _reference_step(k[i], r[i], dt, ens.psihat[b, i],
                                      path.increments[i], nonlinear=True)
            assert (np.vdot(psi_new, psi_new).real < floor) == (i == n - 1)
        if n >= 0:
            assert np.all(ens.psihat[b, n - 1:] == ens.psihat[b, n - 1])
            assert max_abs(drift[b, n - 1:] - drift[b, n - 1]) <= 1e-15


@pytest.mark.parametrize("nchan, nsteps", [(2, 50), (1, 51)])
def test_block_noise_and_tables_match_whole_path(nchan, nsteps, mollow_coeffs, monkeypatch):
    """Blocks of 16 steps over a 50- or 51-step grid (a partial last block;
    with one channel its 3 increments use one and a half Philox words): each
    lane's increments equal its whole-path draw, bit for bit.  A
    time-dependent model's block tables equal the rows of the full-grid step
    table at the steps' times, bit for bit; every row a constant model's
    blocks serve is its one row, the t = 0 row."""
    monkeypatch.setattr(trajectories, "_BLOCK_STEPS", 16)
    grid, groups, lanes, first = TimeGrid(1e-3, nsteps), 2, 3, 5
    noise = _lane_noise(8, first, groups, lanes, nchan, grid.h)
    coeffs = build_coefficients(random_model(np.random.default_rng(nsteps)))
    assert _constant_ops(coeffs, grid.h) is None
    blocks = list(_blocks(coeffs, grid, None))
    assert [len(ops) for ops, _ in blocks] == [16, 16, 16, nsteps - 48]
    dw = [noise(steps) for _, steps in blocks]
    assert [len(block) for block in dw] == [16, 16, 16, nsteps - 48]
    dw = np.concatenate(dw)
    assert dw.shape == (nsteps, groups, nchan, lanes)
    for b in range(groups * lanes):
        path = generate_wiener(8, grid.h, nsteps, nchan, stream=first + b)
        assert np.array_equal(dw[:, b // lanes, :, b % lanes], path.increments)
    full = _step_ops(*coeffs.tabulate(grid.times[:-1]), grid.h)
    assert np.array_equal(np.concatenate([ops for ops, _ in blocks]), full)
    one = _constant_ops(mollow_coeffs, grid.h)
    assert np.array_equal(one, _step_ops(*mollow_coeffs.tabulate(np.zeros(1)), grid.h))
    constant = list(_blocks(mollow_coeffs, grid, one))
    assert [steps for _, steps in constant] == [steps for _, steps in blocks]
    for ops, steps in constant:
        assert len(ops) == steps.stop - steps.start and all(np.array_equal(op, one[0]) for op in ops)


@pytest.mark.parametrize("nchan", [1, 2, 3])
def test_lane_noise_refills_match_whole_path(nchan, monkeypatch):
    """Blocks of 16 steps draw their words in refills of _REFILL_BLOCKS = 4
    blocks: over 201 steps each lane makes ceil(201 / 64) = 4 random_raw
    calls (one per block made 13), and its increments equal its whole-path
    draw, bit for bit, with one, two or three channels (the last slice holds
    9, 18 and 27 increments, inside the fourth refill).  So do slices of
    other lengths, some of which run across a refill's end."""
    monkeypatch.setattr(trajectories, "_BLOCK_STEPS", 16)
    calls, philox = collections.Counter(), trajectories._philox_stream

    class CountedStream:
        def __init__(self, seed, stream):
            self.bits, self.stream = philox(seed, stream), stream

        def random_raw(self, size):
            calls[self.stream] += 1
            return self.bits.random_raw(size)

    monkeypatch.setattr(trajectories, "_philox_stream", CountedStream)
    dt, nsteps, groups, lanes, first = 1e-3, 201, 2, 3, 5
    refill = trajectories._REFILL_BLOCKS * 16
    for cuts in (range(0, nsteps + 16, 16), (0, 63, 64, 100, 130, 131, 200, 201)):
        calls.clear()
        noise = _lane_noise(8, first, groups, lanes, nchan, dt)
        dw = np.concatenate([noise(slice(a, min(b, nsteps))) for a, b in zip(cuts[:-1], cuts[1:])])
        assert dw.shape == (nsteps, groups, nchan, lanes)
        assert calls == {first + b: -(-nsteps // refill) for b in range(groups * lanes)}, calls
        for b in range(groups * lanes):
            path = generate_wiener(8, dt, nsteps, nchan, stream=first + b)
            assert np.array_equal(dw[:, b // lanes, :, b % lanes], path.increments)


def test_lane_noise_rejects_slices_out_of_order():
    """The noise source holds the signs of a refill until slices have read
    them, so a slice that does not start where the last one stopped (a
    repeat, a gap, or a first slice after step 0) is a ValueError."""
    noise = _lane_noise(8, 5, 2, 3, 2, 1e-3)
    with pytest.raises(ValueError, match="step 0 next, not 16"):
        noise(slice(16, 32))
    noise(slice(0, 16))
    for bad in (slice(0, 16), slice(8, 24), slice(32, 48)):
        with pytest.raises(ValueError, match=f"step 16 next, not {bad.start}"):
            noise(bad)
    assert noise(slice(16, 32)).shape == (16, 2, 2, 3)


def test_lane_noise_is_a_c_contiguous_float_block():
    """The step contracts each step's (G, J, C) increments with the states;
    on a strided block, such as the transpose of a lane-major draw, those
    contractions ran 2.8 times slower.  So the noise comes C-contiguous."""
    dw = _lane_noise(8, 5, 2, 3, 2, 1e-3)(slice(0, 7))
    assert dw.shape == (7, 2, 2, 3) and dw.dtype == np.float64 and dw.flags.c_contiguous


# Floors that freeze some paths, not all, and none in the first chunk.  The
# normalized paths' minima of ||M psihat||^2 run from 0.7194106 to 0.867,
# crowded near the lowest because the increments take three values; 0.71942
# freezes only trajectory 23 (chunk 2), below the first chunk's lowest
# minimum, 0.7194246 (trajectory 3).
FREEZING = {False: (run_linear_ensemble, 0.25), True: (run_nonlinear_ensemble, 0.71942)}
LOCKSTEP_LANES = trajectories._LOCKSTEP_LANES


@pytest.mark.parametrize("nonlinear", [False, True])
def test_lockstep_stacks_match_single_chunks(nonlinear, monkeypatch):
    """37 trajectories in chunks of 8 (ragged tail of 5), with a floor that
    freezes paths in some chunks of a stack and in none of another: every
    field equals, bit for bit, a run that steps each chunk on its own, with
    1, 2 and 3 workers and stacks of up to 16 lanes (several stacks per
    process) or of the default width (one)."""
    run, floor = FREEZING[nonlinear]
    coeffs = build_coefficients(simple_model(channels=(2.0 * SIGMA_MINUS,)))
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    common = dict(dt=0.01, nsteps=30, ntraj=37, base_seed=73, chunk_size=8)
    monkeypatch.setattr(trajectories, "WEIGHT_FLOOR", floor)
    monkeypatch.setenv("QSDE_WORKERS", "1")
    monkeypatch.setattr(trajectories, "_LOCKSTEP_LANES", 1)
    alone = run(coeffs, psi0, **common)
    frozen_per_chunk = (alone.frozen_at[:32] >= 0).reshape(4, 8).sum(axis=1)
    assert frozen_per_chunk.min() == 0 and frozen_per_chunk.max() > 0
    for lanes, workers in itertools.product((16, LOCKSTEP_LANES), ("1", "2", "3")):
        monkeypatch.setattr(trajectories, "_LOCKSTEP_LANES", lanes)
        monkeypatch.setenv("QSDE_WORKERS", workers)
        stacked = run(coeffs, psi0, **common)
        for field, value in vars(alone).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(stacked, field), value), (lanes, workers, field)


def test_masked_step_equals_unmasked_step_when_nothing_freezes(rng, monkeypatch):
    """WEIGHT_FLOOR = 0 steps with the freeze masks from the first step, while
    1e-12 skips them as long as no path freezes: on a model whose
    coefficients depend on time, every ensemble field agrees bit for bit,
    for both unravelings."""
    coeffs = build_coefficients(random_model(rng))
    psi0 = np.array([1.0, 0.5j, -0.3]) / np.sqrt(1.34)
    common = dict(dt=1e-2, nsteps=100, ntraj=19, base_seed=29,
                  record_times=1e-2 * np.arange(101), chunk_size=8)
    for nonlinear, run in ((False, run_linear_ensemble), (True, run_nonlinear_ensemble)):
        lane = psi0[None, :, None]
        runs = []
        for floor in (0.0, 1e-12):
            monkeypatch.setattr(trajectories, "WEIGHT_FLOOR", floor)
            masks = _Stack(lane, 2, 1e-2, np.arange(1), nonlinear=nonlinear).active is not None
            assert masks is (floor == 0.0)
            runs.append(run(coeffs, psi0, **common))
        masked, unmasked = runs
        assert np.all(unmasked.frozen_at == -1)
        for field, value in vars(unmasked).items():
            if isinstance(value, np.ndarray):
                assert getattr(masked, field).tobytes() == value.tobytes(), (nonlinear, field)


# Floors at which some paths freeze on the first, a middle and the last step
# of 4-step blocks: the freeze steps include 9, 10, 11 and 12 for the linear
# equation at 0.4 and 1, 2, 3 and 4 for the normalized one at 0.75.
EDGE_FLOORS = {False: 0.4, True: 0.75}


@pytest.mark.parametrize("nonlinear", [False, True])
def test_freezes_at_block_edges(nonlinear, monkeypatch):
    """Blocks of 4 steps, 24 paths, floors that freeze paths on the first, a
    middle and the last step of a block.  Each freeze step is the first
    whose step map, transcribed plainly, falls below the floor; up to it the
    path follows the transcription, and from it on keeps its state (a linear
    path the first state below the floor, a normalized one its last state
    above it) and its drift.  Every field equals the run in one block of the
    default size: bit for bit for the linear equation, to rounding for the
    normalized one, which is renormalized at other points."""
    _, run = SINGLE[nonlinear]
    coeffs = build_coefficients(simple_model(channels=(2.0 * SIGMA_MINUS,)))
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    dt, nsteps, ntraj, floor = 0.01, 30, 24, EDGE_FLOORS[nonlinear]
    grid = dt * np.arange(nsteps + 1)
    common = dict(dt=dt, nsteps=nsteps, ntraj=ntraj, base_seed=73, record_times=grid,
                  chunk_size=8)
    monkeypatch.setattr(trajectories, "WEIGHT_FLOOR", floor)
    whole = run(coeffs, psi0, **common)
    monkeypatch.setattr(trajectories, "_BLOCK_STEPS", 4)
    ens = run(coeffs, psi0, **common)
    positions = set(((ens.frozen_at[ens.frozen_at >= 0] - 1) % 4).tolist())
    assert {0, 3} <= positions and positions & {1, 2}, positions
    assert np.array_equal(ens.frozen_at, whole.frozen_at)
    for field in ("psi", "weight", "w_path", "innovation"):
        a, b = getattr(ens, field), getattr(whole, field)
        assert np.array_equal(a, b) if not nonlinear else max_abs(a - b) <= 1e-14, field
    drift = 0.5 * (ens.w_path - ens.innovation)
    k, r = coeffs.tabulate(grid)
    for b in range(ntraj):
        increments = generate_wiener(73, dt, nsteps, 1, stream=b).increments
        n = ens.frozen_at[b]
        for i in range(nsteps if n < 0 else n):
            psi_new = _reference_step(k[i], r[i], dt, ens.psi[b, i], increments[i], nonlinear)
            sq_norm = np.vdot(psi_new, psi_new).real
            assert (sq_norm < floor) == (i == n - 1), (b, i)
            if i < n - 1 or n < 0 or not nonlinear:
                want = psi_new / np.sqrt(sq_norm) if nonlinear else psi_new
                assert max_abs(ens.psi[b, i + 1] - want) <= 1e-15
        if n >= 0:
            kept = n - 1 if nonlinear else n
            assert np.all(ens.psi[b, kept:] == ens.psi[b, kept])
            assert max_abs(drift[b, kept:] - drift[b, kept]) <= 1e-15


def test_one_lane_one_channel_stacks_sum_in_step_order(monkeypatch):
    """A stack of one lane and one channel is the case in which a row of the
    block's running sums holds the fewest numbers: W is the increments'
    running sum in step order, bit for bit, and chunks of one lane give the
    same numbers stacked together (one worker) or alone (one per worker)."""
    coeffs = build_coefficients(simple_model(channels=(SIGMA_MINUS,),
                                             hamiltonian=np.diag([0.5, -0.5])))
    path = generate_wiener(5, 1e-3, 300, 1)
    for integrate in (integrate_linear, integrate_nonlinear):
        single = integrate(coeffs, E0, path)
        noise = single.innovation if integrate is integrate_nonlinear else single.w_path
        assert np.array_equal(noise[0, 1:, 0], np.cumsum(path.increments[:, 0]))
    # sparse records: the block's sums then run over whole segments of steps
    common = dict(initial=E0, dt=1e-3, nsteps=300, ntraj=3, base_seed=5, chunk_size=1,
                  record_times=[0.15, 0.3])
    for run in (run_linear_ensemble, run_nonlinear_ensemble):
        runs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("QSDE_WORKERS", workers)
            runs.append(run(coeffs, **common))
        for field, value in vars(runs[0]).items():
            if isinstance(value, np.ndarray):
                assert getattr(runs[1], field).tobytes() == value.tobytes(), field


def test_constant_models_build_one_step_table_per_run(mollow_coeffs, monkeypatch):
    """The default Mollow preset has constant K and R_j in its frame; the
    preset at nu = 12 != omega0 (heterodyne detection) and a random model do
    not.  A run calls ``Coefficients.tabulate`` once on the probe times, and
    for a time-dependent model once more per block, on the block's times: a
    constant model's spans build no table of their own."""
    assert _constant_ops(mollow_coeffs, 1e-3) is not None
    heterodyne = build_coefficients(build_mollow_model(canonical_config(nu=12.0)))
    for coeffs in (heterodyne, build_coefficients(random_model(np.random.default_rng(3)))):
        assert _constant_ops(coeffs, 1e-3) is None
    calls = []
    original = Coefficients.tabulate

    def spy(self, times):
        calls.append(len(times))
        return original(self, times)

    monkeypatch.setattr(Coefficients, "tabulate", spy)
    monkeypatch.setenv("QSDE_WORKERS", "1")
    for coeffs, blocks in ((mollow_coeffs, []), (heterodyne, [128, 128, 44])):
        for run in (run_linear_ensemble, run_nonlinear_ensemble):
            calls.clear()
            run(coeffs, E0, dt=1e-3, nsteps=300, ntraj=3, base_seed=1)
            assert calls == [len(PROBE_TIMES), *blocks]


def test_normalized_records_are_unit_between_block_renormalizations():
    """A normalized path steps unnormalized through a block and is
    renormalized at its end and in its records.  Every record has
    |~||psi||^2 - 1| <= 4 d eps, weight exactly 1 and psihat equal to psi bit
    for bit.  With a strong drive and damping at a large step (gamma dt =
    0.2), the products of ||M_n psihat||^2 over a block, the squared norm a
    path reaches before its renormalization, are far from 1 (beyond 10^5
    here), and every number stays finite."""
    dt, nsteps, ntraj = 0.01, 384, 16
    coeffs = build_coefficients(build_mollow_model(canonical_config(big_omega=40.0, gamma=20.0)))
    ens = run_nonlinear_ensemble(coeffs, E0, dt=dt, nsteps=nsteps, ntraj=ntraj, base_seed=3,
                                 record_times=dt * np.arange(nsteps + 1), chunk_size=8)
    assert np.all(ens.frozen_at == -1)
    for field in ("psi", "w_path", "innovation"):
        assert np.isfinite(getattr(ens, field)).all(), field
    eps = np.finfo(float).eps
    assert np.abs(np.sum(np.abs(ens.psi) ** 2, axis=-1) - 1.0).max() <= 4 * 2 * eps
    assert np.all(ens.weight == 1.0) and ens.psihat.tobytes() == ens.psi.tobytes()
    # ||M_n psihat_n||^2 of every path and step, from the records
    k, r = coeffs.tabulate(dt * np.arange(nsteps))
    psi, dw = ens.psi[:, :-1], np.diff(ens.innovation, axis=1)
    rpsi = np.einsum("njkl,bnl->bnjk", r, psi)
    dy = dw + 2.0 * dt * np.einsum("bnk,bnjk->bnj", psi.conj(), rpsi).real
    mapped = psi - 1j * dt * np.einsum("nkl,bnl->bnk", k, psi) + np.einsum("bnj,bnjk->bnk", dy, rpsi)
    block_products = np.log10(np.sum(np.abs(mapped) ** 2, axis=-1)).reshape(ntraj, -1, 128).sum(-1)
    assert np.abs(block_products).max() > 5.0


MALFORMED_INITIALS = {
    "zero_state": (np.zeros(2), "must be nonzero"),
    # squared norms that underflow to 0 and overflow to inf
    "norm_underflow": (np.array([1e-170, 0.0]), "squared norm 0.0, not a positive finite"),
    "norm_overflow": (np.array([1e200, 0.0]), "squared norm inf, not a positive finite"),
    # subnormal squared norms, which have lost their digits
    "norm_subnormal_3e-162": (np.array([3e-162, 0.0]), "squared norm 1e-323, not a positive"),
    "norm_subnormal_1e-160": (np.array([1e-160, 0.0]), "squared norm 1e-320, not a positive"),
    "nan_amplitude": (np.array([1.0, np.nan]), "finite amplitudes"),
    "three_amplitudes": (np.ones(3) / np.sqrt(3.0), "must have 2 amplitudes"),
    "mixture_tuple": ((np.eye(2), [0.5, 0.5]), "^initial state: "),
    # The former (states, probabilities) mixture inputs, valid or not, are
    # each rejected whole as not a state vector.
    "zero_state_in_mixture": ((np.array([[1.0, 0.0], [0.0, 0.0]]), [0.5, 0.5]),
                              "^initial state: "),
    "probabilities_0_0": ((np.eye(2), [0.0, 0.0]), "^initial state: "),
    "probabilities_-1_2": ((np.eye(2), [-1.0, 2.0]), "^initial state: "),
    "nan_probability": ((np.eye(2), [np.nan, 1.0]), "^initial state: "),
    "one_probability_two_states": ((np.eye(2), [1.0]), "^initial state: "),
    "matrix": (np.eye(2), "^initial state must have 2 amplitudes, got shape \\(2, 2\\)"),
}


def _no_work(*args, **kwargs):
    raise AssertionError("stepped or forked before the initial state was checked")


@pytest.mark.parametrize("case", list(MALFORMED_INITIALS))
@pytest.mark.parametrize("run", [run_linear_ensemble, run_nonlinear_ensemble])
def test_malformed_initial_state_rejected_before_any_work(run, case, mollow_coeffs,
                                                          monkeypatch):
    """A zero state gave all-NaN normalized paths, a NaN entry NaN paths and a
    3-vector broke a broadcast.  [1e-170, 0] gave non-finite normalized states
    and all-zero linear weights, [1e200, 0] normalized paths frozen at step 1
    and infinite linear weights.  [3e-162, 0] and [1e-160, 0], whose squared
    norms are subnormal, gave linear weight ratios w_T / w_0 off by up to 50%
    and 2e-4 from those of [1, 0].  A (states, probabilities) mixture, whatever
    its probabilities, or a matrix is not a state vector: each is a ValueError
    naming the initial state and the problem, raised before any step or fork."""
    initial, problem = MALFORMED_INITIALS[case]
    monkeypatch.setenv("QSDE_WORKERS", "2")
    monkeypatch.setattr(trajectories, "_run_span", _no_work)
    monkeypatch.setattr(multiprocessing, "get_context", _no_work)
    with pytest.raises(ValueError, match=problem):
        run(mollow_coeffs, initial, dt=1e-3, nsteps=10, ntraj=8, base_seed=1, chunk_size=4)


BAD_RUN_ARGS = {
    "ntraj_0": (dict(ntraj=0), "ntraj must be an integer of at least 1"),
    "ntraj_-3": (dict(ntraj=-3), "ntraj must be"),
    "ntraj_float": (dict(ntraj=8.0), "ntraj must be"),
    "chunk_size_0": (dict(chunk_size=0), "chunk_size must be"),
    "chunk_size_-2": (dict(chunk_size=-2), "chunk_size must be"),
    "nsteps_-2": (dict(nsteps=-2), "nsteps must be"),
    "nsteps_bool": (dict(nsteps=True), "nsteps must be"),
    "dt_0": (dict(dt=0.0), "dt must be finite and positive"),
    "dt_-0.01": (dict(dt=-0.01), "dt must be"),
    "dt_nan": (dict(dt=np.nan), "dt must be"),
    "dt_inf": (dict(dt=np.inf), "dt must be"),
}


@pytest.mark.parametrize("case", list(BAD_RUN_ARGS))
@pytest.mark.parametrize("run", [run_linear_ensemble, run_nonlinear_ensemble])
def test_bad_run_arguments_rejected_before_any_work(run, case, mollow_coeffs, monkeypatch):
    """ntraj <= 0 and chunk_size 0 divided by zero, chunk_size -2 reached the
    pool, nsteps -2 the noise draw, dt 0 ran with every checkpoint at t = 0
    and a negative or NaN dt gave NaN paths: each is a ValueError naming the
    argument, raised before any step or fork."""
    bad, problem = BAD_RUN_ARGS[case]
    monkeypatch.setenv("QSDE_WORKERS", "2")
    monkeypatch.setattr(trajectories, "_run_span", _no_work)
    monkeypatch.setattr(multiprocessing, "get_context", _no_work)
    args = dict(dt=1e-3, nsteps=10, ntraj=8, base_seed=1, chunk_size=4) | bad
    with pytest.raises(ValueError, match=problem):
        run(mollow_coeffs, E0, **args)


def _no_stream(*args, **kwargs):
    raise AssertionError("drew noise, stepped or forked before the seed was checked")


@pytest.mark.parametrize("value", [-1, 2**64])
@pytest.mark.parametrize("entry", ["generate_wiener-seed", "generate_wiener-stream",
                                   "run_linear_ensemble", "run_nonlinear_ensemble"])
def test_philox_keys_outside_64_bits_rejected_before_any_work(entry, value, mollow_coeffs,
                                                              monkeypatch):
    """The Philox key was masked to 64 bits, so seed -1 drew the stream of
    seed 2^64 - 1: a seed or stream outside [0, 2^64 - 1] is a ValueError
    naming it, raised before any noise is drawn or step taken."""
    monkeypatch.setenv("QSDE_WORKERS", "2")
    monkeypatch.setattr(trajectories, "_philox_stream", _no_stream)
    monkeypatch.setattr(trajectories, "_run_stacks", _no_stream)
    monkeypatch.setattr(multiprocessing, "get_context", _no_stream)
    name = {"generate_wiener-stream": "stream", "generate_wiener-seed": "seed"}.get(
        entry, "base_seed")
    with pytest.raises(ValueError, match=rf"{name} must be an integer in \[0, {2**64 - 1}\]"):
        if entry.startswith("generate_wiener"):
            generate_wiener(**{"seed": 1, "dt": 1e-3, "nsteps": 10, "nchannels": 2, name: value})
        else:
            getattr(trajectories, entry)(mollow_coeffs, E0, dt=1e-3, nsteps=10, ntraj=8,
                                         base_seed=value, chunk_size=4)


@pytest.mark.parametrize("run", [run_linear_ensemble, run_nonlinear_ensemble])
def test_empty_record_times_rejected_before_any_work(run, mollow_coeffs, monkeypatch):
    """record_times=[] ended in a reshape error after the whole ensemble had
    run; it is now a ValueError naming it, raised before any step or fork."""
    monkeypatch.setenv("QSDE_WORKERS", "2")
    monkeypatch.setattr(trajectories, "_run_span", _no_work)
    monkeypatch.setattr(multiprocessing, "get_context", _no_work)
    with pytest.raises(ValueError, match="record times is empty"):
        run(mollow_coeffs, E0, dt=1e-3, nsteps=10, ntraj=8, base_seed=1, chunk_size=4,
            record_times=[])


@pytest.mark.parametrize("run", [run_linear_ensemble, run_nonlinear_ensemble])
def test_numpy_run_arguments_accepted(run, mollow_coeffs):
    """numpy integers and floats are valid counts, steps and seeds (a numpy
    chunk size or seed overflowed the Philox key)."""
    plain = run(mollow_coeffs, E0, dt=1e-3, nsteps=10, ntraj=5, base_seed=1, chunk_size=4)
    numpy = run(mollow_coeffs, E0, dt=np.float64(1e-3), nsteps=np.int64(10), ntraj=np.int32(5),
                base_seed=np.int64(1), chunk_size=np.int64(4))
    for field, value in vars(plain).items():
        if isinstance(value, np.ndarray):
            assert getattr(numpy, field).tobytes() == value.tobytes(), field
