import numpy as np
import pytest

from conftest import assert_peaks_match_scipy
from qsde.linalg import max_abs
from qsde.model import build_coefficients, verify_weight_identity
from qsde.mollow import (
    EXCITED_PROJECTOR,
    SIGMA_MINUS,
    SIGMA_PLUS,
    MollowConfig,
    build_mollow_model,
    canonical_config,
    find_spectrum_peaks,
    rabi_frequency,
    run_mollow_spectrum,
)


def test_config_invariants():
    with pytest.raises(ValueError, match="undriven"):
        MollowConfig(omega=1, omega0=1, nu=1, alphas=[1.0, 1.0], lambdas=[1.0, 0.0])
    with pytest.raises(ValueError, match="coupling"):
        MollowConfig(omega=1, omega0=1, nu=1, alphas=[0.0], lambdas=[0.0])
    with pytest.raises(ValueError, match="length"):
        MollowConfig(omega=1, omega0=1, nu=1, alphas=[1.0], lambdas=[0.0, 1.0])


def test_canonical_config_scales():
    cfg = canonical_config()
    assert cfg.gamma == pytest.approx(1.0)
    assert rabi_frequency(cfg) == pytest.approx(5.0)
    assert cfg.omega == cfg.omega0 == cfg.nu == 10.0


def test_undriven_reduction_to_detuned_decay():
    cfg = MollowConfig(omega=10.0, omega0=8.0, nu=8.0,
                       alphas=[0.6, 0.8], lambdas=[0.0, 0.0])
    coeffs = build_coefficients(build_mollow_model(cfg))
    gamma = cfg.gamma
    k_expected = ((cfg.omega - cfg.omega0) * EXCITED_PROJECTOR
                  - 0.5j * gamma * (SIGMA_PLUS @ SIGMA_MINUS))
    for t in (0.0, 0.7):
        assert max_abs(coeffs.k_at(t) - k_expected) <= 1e-13


def test_resonant_coefficients_time_independent():
    coeffs = build_coefficients(build_mollow_model(canonical_config()))
    k0, r0 = coeffs.at(0.0)
    for t in (0.3, 1.7, 6.1):
        k, r = coeffs.at(t)
        assert max_abs(k - k0) <= 1e-12
        assert max_abs(r - r0) <= 1e-12


def test_weight_identity_for_random_configs(rng):
    for _ in range(5):
        cfg = MollowConfig(
            omega=rng.uniform(1, 20), omega0=rng.uniform(1, 20), nu=rng.uniform(1, 20),
            alphas=rng.normal(size=3) + 1j * rng.normal(size=3),
            lambdas=np.concatenate([[0.0], rng.normal(size=2) + 1j * rng.normal(size=2)]))
        report = verify_weight_identity(build_coefficients(build_mollow_model(cfg)),
                                        rng.uniform(0, 3, size=5), tol=1e-12)
        assert report.passed


def test_rabi_frequency_cases():
    assert rabi_frequency(MollowConfig(omega=1, omega0=1, nu=1,
                                       alphas=[1.0], lambdas=[0.0])) == 0.0
    cfg = MollowConfig(omega=1, omega0=1, nu=1, alphas=[1.0, 0.5], lambdas=[0.0, 1.0])
    assert rabi_frequency(cfg) == pytest.approx(1.0)
    phase = np.exp(0.9j)
    cfg_rot = MollowConfig(omega=1, omega0=1, nu=1,
                           alphas=[phase, 0.5 * phase], lambdas=[0.0, phase])
    assert rabi_frequency(cfg_rot) == pytest.approx(rabi_frequency(cfg))


def test_find_spectrum_peaks_filters_ripples():
    nu = np.linspace(0, 10, 101)
    values = np.exp(-((nu - 5.0) ** 2)) + 1e-4 * np.sin(40 * nu)
    peaks = find_spectrum_peaks(nu, values, rel_prominence=0.02)
    assert len(peaks) == 1 and abs(peaks[0] - 5.0) <= 0.1
    assert len(find_spectrum_peaks(nu, np.ones_like(nu))) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_find_spectrum_peaks_rejects_non_finite(bad):
    nu = np.linspace(0, 10, 11)
    values = np.exp(-((nu - 5.0) ** 2))
    values[3] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        find_spectrum_peaks(nu, values)


def test_peak_finder_matches_scipy_on_random_arrays():
    rng = np.random.default_rng(20261018)
    for n in (4, 5, 7, 16, 50, 201):
        for _ in range(40):
            assert_peaks_match_scipy(rng.normal(size=n))


def test_peak_finder_matches_scipy_on_plateaus():
    """Integer values make flat tops, flat bases and flat edges common."""
    rng = np.random.default_rng(7)
    for n in (4, 5, 8, 13, 40):
        for _ in range(60):
            assert_peaks_match_scipy(rng.integers(0, 4, size=n).astype(float))
    for x in ([2, 2, 1, 3, 3], [0, 3, 3, 3, 0], [0, 3, 3, 3, 3], [3, 3, 0, 1, 1, 0],
              [1, 2, 2, 1, 2, 2, 2, 1], [0, 5, 5, 2, 5, 5, 0], [1, 1, 1, 1]):
        assert_peaks_match_scipy(np.array(x, dtype=float))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_peak_finder_matches_scipy_on_short_arrays(n):
    rng = np.random.default_rng(n)
    assert_peaks_match_scipy(np.zeros(n))
    for _ in range(20):
        assert_peaks_match_scipy(rng.integers(0, 3, size=n).astype(float))
        assert_peaks_match_scipy(rng.normal(size=n))


def test_peak_count_transition_small_scan():
    """One line for weak drive, three for strong, on a coarse resonant scan."""
    nus = np.linspace(2.0, 18.0, 81)
    weak = run_mollow_spectrum(canonical_config(big_omega=0.1), nus, horizon=60.0, dt=0.01)
    strong = run_mollow_spectrum(canonical_config(big_omega=5.0), nus, horizon=60.0, dt=0.01)
    assert weak.npeaks == 1
    assert strong.npeaks == 3
    assert abs(weak.peaks[0] - 10.0) <= 0.2 + 1e-12


def test_strong_drive_sidebands_and_symmetry_small_scan():
    nus = np.linspace(0.0, 20.0, 101)
    res = run_mollow_spectrum(canonical_config(), nus, horizon=80.0, dt=0.01)
    assert res.npeaks == 3
    spacing = nus[1] - nus[0]
    assert abs(res.peaks[0] - (10.0 - res.rabi)) <= 2 * spacing + 1e-12
    assert abs(res.peaks[-1] - (10.0 + res.rabi)) <= 2 * spacing + 1e-12
    v = res.scan.values
    assert np.max(np.abs(v - v[::-1])) <= 1e-3 * np.max(v)


def test_mc_spectrum_matches_analytic_on_coarse_grid():
    """Reweighted trajectory estimate of the same variance-rate functional
    agrees with the analytic scan at each frequency (matched horizon)."""
    from qsde.master import LindbladPropagator, stationary_state
    from qsde.statistics import mc_second_moment, spectrum_scan
    from qsde.trajectories import run_linear_ensemble

    horizon, dt, ntraj = 2.0, 1e-3, 1500
    nus = np.linspace(5.0, 15.0, 11)

    model = build_mollow_model(canonical_config())
    gen = LindbladPropagator(build_coefficients(model))
    st = stationary_state(gen)
    evals, evecs = np.linalg.eigh(st.rho)
    initial = (evecs.T, np.clip(evals, 0.0, None))  # rows are the eigenstates
    scan = spectrum_scan(model, nus, horizon=horizon, dt=dt)
    for k, nu in enumerate(nus):
        coeffs_nu = build_coefficients(build_mollow_model(canonical_config(nu=nu)))
        ens = run_linear_ensemble(coeffs_nu, initial, dt=dt, nsteps=int(horizon / dt),
                                  ntraj=ntraj, base_seed=7000 + k, record_times=[horizon])
        mc, se = mc_second_moment(ens, 0, 0, horizon, horizon)
        s_mc = mc / horizon
        assert abs(s_mc - scan.values[k]) <= 3.0 * se / horizon + 10 * dt, (
            nu, s_mc, scan.values[k], se / horizon)
