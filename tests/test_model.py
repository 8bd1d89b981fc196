import numpy as np
import pytest

from conftest import random_hermitian, random_model, simple_model
from qsde.linalg import max_abs
from qsde.model import (
    DetectionSpec,
    DriveSpec,
    SystemModel,
    TimeGrid,
    build_coefficients,
    effective_hamiltonian,
    operator_norm_bounds,
    verify_weight_identity,
    weight_identity_residual,
)
from qsde.mollow import EXCITED_PROJECTOR, SIGMA_MINUS, SIGMA_PLUS, build_mollow_model, canonical_config


def _table_models(rng):
    """Mollow; constant-unitary detection with two driven channels and a
    random frame; one driven channel; no drive; random d = 3, J = 2."""
    unitary = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    constant_unitary = SystemModel(
        hamiltonian=random_hermitian(rng, 2), channels=(SIGMA_MINUS, 0.4 * EXCITED_PROJECTOR),
        drive=DriveSpec(amplitudes=np.array([0.5, 0.2j]), carrier=1.3),
        detection=DetectionSpec(kind="constant-unitary", matrix=unitary),
        frame=random_hermitian(rng, 2))
    one_driven = simple_model(hamiltonian=random_hermitian(rng, 2), channels=(SIGMA_MINUS,),
                              amplitudes=[0.3 - 0.8j], carrier=2.1,
                              frame=random_hermitian(rng, 2))
    plain = simple_model(channels=(SIGMA_MINUS,),
                         detection=DetectionSpec(kind="diagonal-phase", nu=2.5))
    return (build_mollow_model(canonical_config()), constant_unitary, one_driven, plain,
            random_model(rng))


def test_r_table_equals_per_time_values_bitwise():
    times = 0.013 * np.arange(1001)
    # r_at evaluates a one-time grid: the table rows must not depend on the
    # grid length, so that tabulated and per-time coefficients agree exactly.
    for model in _table_models(np.random.default_rng(41)):
        coeffs = build_coefficients(model)
        table = coeffs.r_table(times)
        assert table.tobytes() == np.stack([coeffs.r_at(t) for t in times]).tobytes()


def test_k_table_equals_per_time_values_bitwise():
    times = 0.013 * np.arange(1001)
    for model in _table_models(np.random.default_rng(43)):
        coeffs = build_coefficients(model)
        k, _ = coeffs.tabulate(times)
        assert k.tobytes() == np.stack([coeffs.k_at(t) for t in times]).tobytes()


def test_non_contiguous_operators_accepted():
    """SIGMA_PLUS is a transposed view; Fortran order is not C-contiguous either."""
    assert not SIGMA_PLUS.flags.c_contiguous
    m = simple_model(channels=(SIGMA_PLUS,), hamiltonian=np.asfortranarray(
        np.array([[1.0, 0.5j], [-0.5j, -1.0]])))
    assert np.array_equal(m.channels[0], SIGMA_PLUS)
    with pytest.raises(ValueError, match="non-finite"):
        simple_model(channels=(np.array([[0, np.nan], [0, 0]], dtype=complex).T,))


def test_model_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        simple_model(hamiltonian=SIGMA_MINUS)
    with pytest.raises(ValueError, match="channel"):
        simple_model(channels=())
    with pytest.raises(ValueError, match="shape"):
        simple_model(channels=(np.zeros((3, 3)),))
    with pytest.raises(ValueError, match="amplitude count"):
        simple_model(channels=(SIGMA_MINUS,), amplitudes=[0.0, 1.0])
    with pytest.raises(ValueError, match="unitary"):
        DetectionSpec(kind="constant-unitary", matrix=np.array([[2.0, 0], [0, 1.0]]))


def test_effective_hamiltonian_cases():
    m = simple_model(hamiltonian=np.diag([1.0, -1.0]).astype(complex))
    assert np.array_equal(effective_hamiltonian(m), np.diag([1.0, -1.0]))
    m = simple_model(channels=(SIGMA_MINUS,))
    assert max_abs(effective_hamiltonian(m) + 0.5j * np.diag([1.0, 0.0])) == 0.0
    alphas = (0.6, 0.8j)
    m = simple_model(channels=tuple(a * SIGMA_MINUS for a in alphas),
                     amplitudes=[0.0, 0.0])
    expected = -0.5j * (abs(alphas[0]) ** 2 + abs(alphas[1]) ** 2) * (SIGMA_PLUS @ SIGMA_MINUS)
    assert max_abs(effective_hamiltonian(m) - expected) <= 1e-15


def test_coefficients_trivial_dressing(rng):
    """H0 = 0, no drive, identity detection: K = Keff and R_j = L_j exactly."""
    d = 3
    channels = tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2))
    m = simple_model(hamiltonian=random_hermitian(rng, d), channels=channels, dim=d)
    coeffs = build_coefficients(m)
    for t in (0.0, 0.9, 4.2):
        k, r = coeffs.k_at(t), coeffs.r_at(t)
        assert max_abs(k - effective_hamiltonian(m)) == 0.0
        for j, L in enumerate(channels):
            assert max_abs(r[j] - L) == 0.0


def test_mollow_coefficients_closed_form():
    """Time-independent K and pure-phase R for the driven two-level atom."""
    cfg = canonical_config(big_omega=5.0, gamma=1.0, omega=10.0, nu=11.5)
    coeffs = build_coefficients(build_mollow_model(cfg))
    c = np.sum(np.conj(cfg.lambdas) * cfg.alphas)
    k_expected = ((cfg.omega - cfg.omega0) * EXCITED_PROJECTOR
                  - 0.5j * cfg.gamma * (SIGMA_PLUS @ SIGMA_MINUS)
                  + 1j * (c * SIGMA_MINUS - np.conj(c) * SIGMA_PLUS))
    for t in (0.0, 0.37, 1.9):
        k, r = coeffs.k_at(t), coeffs.r_at(t)
        assert max_abs(k - k_expected) <= 1e-13
        for j in range(2):
            r_expected = np.exp(1j * (cfg.nu - cfg.omega0) * t) * cfg.alphas[j] * SIGMA_MINUS
            assert max_abs(r[j] - r_expected) <= 1e-13


def test_mollow_resonant_detection_is_constant():
    cfg = canonical_config()  # nu = omega0
    coeffs = build_coefficients(build_mollow_model(cfg))
    r0 = coeffs.r_at(0.0)
    for t in (0.4, 1.3, 7.7):
        assert max_abs(coeffs.r_at(t) - r0) <= 1e-12


def test_weight_identity_constructed_coefficients(rng):
    """Built coefficients satisfy the martingale identity at every time."""
    for trial in range(5):
        m = random_model(np.random.default_rng(100 + trial))
        report = verify_weight_identity(build_coefficients(m), rng.uniform(0, 5, size=6))
        assert (report.residuals <= report.bounds).all(), report.residuals


def test_weight_identity_hand_built_failure():
    k = np.zeros((2, 2), dtype=complex)
    r = SIGMA_MINUS[None]
    assert weight_identity_residual(k, r) == pytest.approx(1.0)
    k_ok = -0.5j * (SIGMA_PLUS @ SIGMA_MINUS)
    assert weight_identity_residual(k_ok, r) == 0.0
    assert weight_identity_residual(np.stack([k, k_ok]), np.stack([r, r])).tolist() == [1.0, 0.0]


def test_weight_identity_report_interface(mollow_coeffs, monkeypatch):
    """A report can fail: the times are a non-empty list of finite times (no
    times passed vacuously).  Its bounds use model.IDENTITY_TOL, here 1e-12."""
    monkeypatch.setattr("qsde.model.IDENTITY_TOL", 1e-12)
    report = verify_weight_identity(mollow_coeffs, [0.0, 0.5, 1.0])
    assert (report.residuals <= report.bounds).all() and report.max_residual <= 1e-12
    for times in [[], [0.0, np.nan], [0.0, np.inf], 0.5]:
        with pytest.raises(ValueError, match="times"):
            verify_weight_identity(mollow_coeffs, times)


def test_rr_norm_time_independent(rng):
    """|| sum_j R_j^* R_j || does not depend on t (detection is unitary)."""
    m = random_model(np.random.default_rng(42))
    coeffs = build_coefficients(m)

    def rr_norm(t):
        r = coeffs.r_at(t)
        return np.linalg.norm(np.einsum("jlk,jlm->km", r.conj(), r), 2)

    base = rr_norm(0.0)
    for t in rng.uniform(0, 10, size=5):
        assert abs(rr_norm(t) - base) <= 1e-10 * max(base, 1.0)


def test_operator_norm_bounds():
    cfg = canonical_config()
    bounds = operator_norm_bounds(build_coefficients(build_mollow_model(cfg)), horizon=3.0)
    assert bounds.sup_rr == pytest.approx(cfg.gamma, abs=1e-10)

    zero = simple_model()
    b0 = operator_norm_bounds(build_coefficients(zero), horizon=1.0)
    assert b0.sup_rr == 0.0 and b0.sup_k == 0.0

    decay = simple_model(channels=(SIGMA_MINUS,))
    bd = operator_norm_bounds(build_coefficients(decay), horizon=1.0)
    assert bd.sup_k == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        operator_norm_bounds(build_coefficients(zero), horizon=-1.0)


@pytest.mark.parametrize("horizon", [np.nan, np.inf, 0.0])
def test_operator_norm_bounds_reject_what_they_cannot_bound(mollow_coeffs, horizon):
    """A non-finite horizon ended in an SVD that did not converge."""
    with pytest.raises(ValueError, match="horizon"):
        operator_norm_bounds(mollow_coeffs, horizon)


@pytest.mark.parametrize("horizon, dt", [(0.3, 0.1), (50, 0.005), (2.0, 5e-4), (1.0, 0.25),
                                         (0.45, 1e-2)])
def test_time_grid_covering_matches_uniform_grid_rule(horizon, dt):
    """covering is nsteps = max(1, round(horizon / dt)), h = horizon / nsteps,
    t_n = h * n, bit for bit."""
    nsteps = max(1, int(round(horizon / dt)))
    grid = TimeGrid.covering(horizon, dt)
    assert grid.nsteps == nsteps and grid.h == horizon / nsteps
    assert np.array_equal(grid.times, (horizon / nsteps) * np.arange(nsteps + 1))


def test_time_grid_rejects_step_counts_past_int64():
    """Every grid index fits an int64: a larger step count, or a covering
    whose horizon / dt overflows to inf, is a ValueError, not an
    OverflowError or a grid that np.arange cannot make."""
    top = np.iinfo(np.int64).max
    assert TimeGrid(1.0, top).nsteps == top
    for make in (lambda: TimeGrid(1.0, top + 1), lambda: TimeGrid.covering(1e10, 1e-300),
                 lambda: TimeGrid.covering(1e300, 1e-3), lambda: TimeGrid.covering(1e19, 1.0)):
        with pytest.raises(ValueError, match="int64 index limit"):
            make()


@pytest.mark.parametrize("horizon, dt", [(0.3, 0.1), (50, 0.005), (2.0, 5e-4), (0.45, 1e-2)])
def test_time_grid_index_round_trips_every_grid_time(horizon, dt):
    grid = TimeGrid.covering(horizon, dt)
    assert np.array_equal(grid.index(grid.times), np.arange(grid.nsteps + 1))
    assert grid.index(grid.times[-1]) == grid.nsteps and isinstance(grid.index(0.0), int)
    # decimal times a user would write for grid points
    assert grid.index(horizon) == grid.nsteps
    assert grid.index([dt, 2 * dt]).tolist() == [1, 2]


def test_time_grid_index_rejects_off_grid_and_out_of_range_times():
    grid = TimeGrid.covering(0.1, 1e-3)
    for bad in (0.0503, 0.1004, -1e-3, 0.101, 7.0, float("nan")):
        with pytest.raises(ValueError, match="not points of the grid"):
            grid.index(bad)
    with pytest.raises(ValueError) as err:
        grid.index([0.05, 0.0503, 0.06, 0.2])
    assert "[0.0503, 0.2]" in str(err.value)


def test_time_grid_default_checkpoints():
    """Eleven evenly spread indices, or every index on a grid of fewer than
    ten steps; given times become their sorted distinct indices."""
    assert TimeGrid.covering(4.0, 1e-3).checkpoints().tolist() == list(range(0, 4001, 400))
    assert TimeGrid.covering(1.0, 0.25).checkpoints().tolist() == [0, 1, 2, 3, 4]
    assert TimeGrid.covering(1.0, 0.25).checkpoints([1.0, 0.25, 0.5, 0.25]).tolist() == [1, 2, 4]


@pytest.mark.parametrize("times", [[], (), np.array([])])
def test_time_grid_rejects_empty_checkpoint_times(times):
    """An empty list of record times is an error naming the problem, not an
    empty set of checkpoints that later fails to reshape."""
    with pytest.raises(ValueError, match="record times is empty"):
        TimeGrid.covering(1.0, 0.25).checkpoints(times)
