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
)
from qsde.statistics import spectrum_scan


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
    k0, r0 = coeffs.k_at(0.0), coeffs.r_at(0.0)
    for t in (0.3, 1.7, 6.1):
        k, r = coeffs.k_at(t), coeffs.r_at(t)
        assert max_abs(k - k0) <= 1e-12
        assert max_abs(r - r0) <= 1e-12


def test_weight_identity_for_random_configs(rng, monkeypatch):
    monkeypatch.setattr("qsde.model.IDENTITY_TOL", 1e-12)
    for _ in range(5):
        cfg = MollowConfig(
            omega=rng.uniform(1, 20), omega0=rng.uniform(1, 20), nu=rng.uniform(1, 20),
            alphas=rng.normal(size=3) + 1j * rng.normal(size=3),
            lambdas=np.concatenate([[0.0], rng.normal(size=2) + 1j * rng.normal(size=2)]))
        report = verify_weight_identity(build_coefficients(build_mollow_model(cfg)),
                                        rng.uniform(0, 3, size=5))
        assert (report.residuals <= report.bounds).all()


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
    peaks = find_spectrum_peaks(nu, values)
    assert len(peaks) == 1 and abs(peaks[0] - 5.0) <= 0.1
    assert len(find_spectrum_peaks(nu, np.ones_like(nu))) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_find_spectrum_peaks_rejects_non_finite(bad):
    nu = np.linspace(0, 10, 11)
    values = np.exp(-((nu - 5.0) ** 2))
    values[3] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        find_spectrum_peaks(nu, values)


@pytest.mark.parametrize("nu, values", [
    (np.arange(3.0), [0.0, 1.0, 0.0, 2.0, 0.0]),
    (np.arange(7.0), [0.0, 1.0, 0.0, 2.0, 0.0]),
    (np.arange(6.0).reshape(2, 3), np.zeros((2, 3))),
    (np.arange(5.0)[::-1], [0.0, 1.0, 0.0, 2.0, 0.0]),
    ([0.0, 1.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 2.0, 0.0]),
    ([0.0, 2.0, 1.0, 3.0, 4.0], [0.0, 1.0, 0.0, 2.0, 0.0]),
    ([0.0, np.nan, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 2.0, 0.0])],
    ids=["nu-short", "nu-long", "2-D", "descending", "repeated", "shuffled", "nan"])
def test_find_spectrum_peaks_rejects_misaligned_grids(nu, values):
    """A short nu raised IndexError and a long one gave peaks at the wrong
    frequencies; a grid out of order reads neighbours that are not."""
    with pytest.raises(ValueError, match="1-D and of one length, nu strictly increasing"):
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

    def peaks(big_omega):
        model = build_mollow_model(canonical_config(big_omega=big_omega))
        return find_spectrum_peaks(nus, spectrum_scan(model, nus, horizon=60.0, dt=0.01).values)

    weak, strong = peaks(0.1), peaks(5.0)
    assert len(weak) == 1
    assert len(strong) == 3
    assert abs(weak[0] - 10.0) <= 0.2 + 1e-12


def test_strong_drive_sidebands_and_symmetry_small_scan():
    nus = np.linspace(0.0, 20.0, 101)
    cfg = canonical_config()
    v = spectrum_scan(build_mollow_model(cfg), nus, horizon=80.0, dt=0.01).values
    peaks, rabi = find_spectrum_peaks(nus, v), rabi_frequency(cfg)
    assert len(peaks) == 3
    spacing = nus[1] - nus[0]
    assert abs(peaks[0] - (10.0 - rabi)) <= 2 * spacing + 1e-12
    assert abs(peaks[-1] - (10.0 + rabi)) <= 2 * spacing + 1e-12
    assert np.max(np.abs(v - v[::-1])) <= 1e-3 * np.max(v)


def test_mc_spectrum_matches_analytic_on_coarse_grid():
    """Reweighted trajectory estimate of the same variance-rate functional
    agrees with the analytic scan at each frequency (matched horizon).

    The scan starts from rho_ss = sum_s p_s |e_s><e_s|; the ensembles sample
    it by strata, one ensemble per eigenvector e_s with round(p_s N)
    trajectories, combined as sum_s p_s mc_s with error sqrt(sum_s (p_s se_s)^2).
    """
    from qsde.master import LindbladPropagator, stationary_state
    from qsde.statistics import mc_second_moment, spectrum_scan
    from qsde.trajectories import run_linear_ensemble

    horizon, dt, ntraj = 2.0, 1e-3, 1500
    nus = np.linspace(5.0, 15.0, 11)

    model = build_mollow_model(canonical_config())
    gen = LindbladPropagator(build_coefficients(model))
    probs, states = np.linalg.eigh(stationary_state(gen).rho)
    strata = [(s, p, states[:, s], round(p * ntraj)) for s, p in enumerate(probs)]
    scan = spectrum_scan(model, nus, horizon=horizon, dt=dt)
    for k, nu in enumerate(nus):
        coeffs_nu = build_coefficients(build_mollow_model(canonical_config(nu=nu)))
        mc, var = 0.0, 0.0
        for s, p, state, n in strata:
            ens = run_linear_ensemble(coeffs_nu, state, dt=dt, nsteps=int(horizon / dt),
                                      ntraj=n, base_seed=7000 + k + 100 * s,
                                      record_times=[horizon])
            mc_s, se_s = mc_second_moment(ens, 0, 0, horizon, horizon)
            mc, var = mc + p * mc_s, var + (p * se_s) ** 2
        s_mc, se = mc / horizon, np.sqrt(var)
        assert abs(s_mc - scan.values[k]) <= 3.0 * se / horizon + 10 * dt, (
            nu, s_mc, scan.values[k], se / horizon)
