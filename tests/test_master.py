import dataclasses
import inspect

import numpy as np
import pytest

from conftest import random_model, simple_model
from qsde import master
from qsde.linalg import devectorize, matrix_exp, max_abs, vectorize
from qsde.master import (
    LindbladPropagator,
    PositivityError,
    _lindblad,
    apriori_from_trajectories,
    master_series,
    stationary_state,
    trace_distance,
    validate_density,
)
from qsde.model import Coefficients, TimeGrid, build_coefficients
from qsde.mollow import EXCITED_PROJECTOR, SIGMA_MINUS, MollowConfig, build_mollow_model
from qsde.statistics import analytic_second_moment
from qsde.trajectories import run_linear_ensemble, run_nonlinear_ensemble

E0 = np.array([1.0, 0.0], dtype=complex)


def random_state(rng, d=2):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def heisenberg_generator(coeffs, t):
    """Superoperator matrix of the observable-picture generator L(t), column m
    the vec of L applied to the m-th vec basis matrix, transcribed from

        L[a] = (i/2) [K + K^*, a] + sum_j ( R_j^* a R_j - (1/2) {R_j^* R_j, a} )

    with plain matrix products, independently of the state-picture L_*."""
    k, r = coeffs.k_at(t), coeffs.r_at(t)
    kh = k + k.conj().T
    d = len(k)

    def lindblad(a):
        out = 0.5j * (kh @ a - a @ kh)
        for rj in r:
            rr = rj.conj().T @ rj
            out += rj.conj().T @ a @ rj - 0.5 * (rr @ a + a @ rr)
        return out

    return np.stack([vectorize(lindblad(devectorize(e, d))) for e in np.eye(d * d)], axis=1)


def test_heisenberg_energy_conservation():
    h = np.array([[1.2, 0.5 - 0.3j], [0.5 + 0.3j, -0.4]], dtype=complex)
    coeffs = build_coefficients(simple_model(hamiltonian=h))
    gen = heisenberg_generator(coeffs, 0.0)
    assert max_abs(devectorize(gen @ vectorize(h), 2)) <= 1e-12


def test_heisenberg_unitality(mollow_coeffs):
    gen = heisenberg_generator(mollow_coeffs, 0.3)
    assert max_abs(devectorize(gen @ vectorize(np.eye(2)), 2)) <= 1e-10


def test_heisenberg_projector_decay(decay_coeffs):
    gen = heisenberg_generator(decay_coeffs, 0.0)
    out = devectorize(gen @ vectorize(EXCITED_PROJECTOR), 2)
    assert max_abs(out + EXCITED_PROJECTOR) <= 1e-14


def test_duality_on_random_pairs(mollow_coeffs, rng):
    ls = LindbladPropagator(mollow_coeffs).generator_at(0.4)
    lh = heisenberg_generator(mollow_coeffs, 0.4)
    for _ in range(20):
        rho = random_state(rng)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = np.trace(devectorize(ls @ vectorize(rho), 2) @ a)
        rhs = np.trace(rho @ devectorize(lh @ vectorize(a), 2))
        assert abs(lhs - rhs) <= 1e-10


def test_schrodinger_trace_preservation(mollow_coeffs, rng):
    ls = LindbladPropagator(mollow_coeffs).generator_at(0.0)
    for _ in range(10):
        out = devectorize(ls @ vectorize(random_state(rng)), 2)
        assert abs(np.trace(out)) <= 1e-10


def time_dependent_models():
    """A carrier-driven atom, the driven atom of the frame tests in the lab
    frame, and three random models with a random frame."""
    cfg = MollowConfig(omega=10.0, omega0=9.0, nu=9.0, alphas=[0.7, 0.5], lambdas=[0.0, 2j])
    return [simple_model(channels=(SIGMA_MINUS, 0.5 * SIGMA_MINUS), amplitudes=[0.4, 0.3],
                         carrier=1.5),
            dataclasses.replace(build_mollow_model(cfg), frame=np.zeros((2, 2)))] + [
        random_model(np.random.default_rng(seed)) for seed in (300, 301, 302)]


@pytest.mark.parametrize("model", time_dependent_models())
def test_generator_of_a_table_is_the_generator_at_each_time(model):
    """_lindblad of one K and one R table gives, row by row, the generator
    built at each time alone, bit for bit."""
    coeffs = build_coefficients(model)
    gen = LindbladPropagator(coeffs)
    assert not gen.time_independent
    ts = 0.0137 + 0.01 * np.arange(120)
    stacked = _lindblad(coeffs.k_table(ts), coeffs.r_table(ts))
    assert stacked.shape == (len(ts),) + (coeffs.dim ** 2,) * 2
    for t, row in zip(ts, stacked):
        assert row.tobytes() == gen.generator_at(t).tobytes(), t


def test_time_dependent_series_evaluates_no_coefficients_one_time_at_a_time(monkeypatch):
    """master_series builds a time-dependent generator's Magnus steps from
    K and R tables: no k_at or r_at call (the per-time route made two per
    step)."""
    gen = LindbladPropagator(build_coefficients(time_dependent_models()[0]))
    assert not gen.time_independent
    calls = []
    for name in ("k_at", "r_at"):
        def spy(self, t, one_time=getattr(Coefficients, name)):
            calls.append(t)
            return one_time(self, t)

        monkeypatch.setattr(Coefficients, name, spy)
    master_series(gen, np.diag([1.0, 0.0]), TimeGrid.covering(0.5, 1e-2).times)
    assert calls == []


def test_two_level_decay_closed_form():
    gamma = 0.8
    coeffs = build_coefficients(simple_model(channels=(np.sqrt(gamma) * SIGMA_MINUS,)))
    gen = LindbladPropagator(coeffs)
    rho0 = np.array([[0.9, 0.3], [0.3, 0.1]], dtype=complex)
    t = 3.0 / gamma
    rho = master_series(gen, rho0, TimeGrid.covering(t, 1e-3).times)[-1]
    expected = np.exp(-gamma * t) * rho0[0, 0].real
    assert abs(rho[0, 0].real - expected) <= 1e-6 * expected
    # coherence decays at gamma/2
    assert abs(rho[0, 1] - np.exp(-gamma * t / 2) * rho0[0, 1]) <= 1e-8


def test_constant_generator_steps_by_matrix_exp(mollow_coeffs, rng):
    """A constant generator's series is repeated exact steps e^{hG}, state by
    state to rounding, and stays within 1e-8 of the four-stage RK4 march it
    replaced."""
    gen = LindbladPropagator(mollow_coeffs)
    g = gen.generator_at(0.0)
    h, nsteps = 0.005, 4000
    rho0 = random_state(rng)
    series = master_series(gen, rho0, h * np.arange(nsteps + 1))
    step = matrix_exp(g, h)
    exact = rk4 = vectorize(rho0)
    for n in range(1, nsteps + 1):
        exact = step @ exact
        k1 = g @ rk4
        k2 = g @ (rk4 + 0.5 * h * k1)
        k3 = g @ (rk4 + 0.5 * h * k2)
        k4 = g @ (rk4 + h * k3)
        rk4 = rk4 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for v, tol in ((exact, 1e-13), (rk4, 1e-8)):
            rho = devectorize(v, 2)
            rho = 0.5 * (rho + rho.conj().T)
            assert max_abs(series[n] - rho / np.trace(rho).real) <= tol, (n, tol)


def test_constant_generator_series_runs_through_march(mollow_coeffs, monkeypatch):
    """master_series hands a constant generator to master._rk4_march with its
    step count as ``nsteps``, the argument the benchmark tracer reads."""
    calls = []
    march = master._rk4_march

    def spy(*args, **kwargs):
        calls.append(inspect.signature(march).bind(*args, **kwargs).arguments["nsteps"])
        return march(*args, **kwargs)

    monkeypatch.setattr(master, "_rk4_march", spy)
    master_series(LindbladPropagator(mollow_coeffs), np.eye(2) / 2, 0.01 * np.arange(31))
    assert calls == [30]


@pytest.mark.parametrize("block", [256, 7])
def test_constant_march_by_block_powers_matches_step_by_step(mollow_coeffs, block, monkeypatch):
    """A constant generator's march makes each block's states as one product
    of the powers E, ..., E^n, built by doubling, with the block's start
    state.  On 4000 steps of h = 1e-3, in blocks of 256 and of 7, each state
    v_n is within n eps ||E||_2^n ||v_0|| (||v_0|| = 1) of the step-by-step
    march v_n = E v_{n-1}, the scale of either route's rounding (the gap is
    at most a quarter of it), and every block's steps are E."""
    monkeypatch.setattr(master, "_STEP_BLOCK", block)
    gen = LindbladPropagator(mollow_coeffs)
    h, nsteps = 1e-3, 4000
    e = matrix_exp(gen.generator_at(0.0), h)
    v = vectorize(np.diag([1.0, 0.0]).astype(complex))
    blocks = list(master._rk4_march(gen, v, 0.0, nsteps, h))
    assert [first for first, _, _ in blocks] == list(range(0, nsteps, block))
    assert all(np.array_equal(step, e) for _, steps, _ in blocks for step in steps)
    states = np.concatenate([states for _, _, states in blocks])
    stepped = np.empty_like(states)
    for n in range(nsteps):
        stepped[n] = v = e @ v
    n = np.arange(1, nsteps + 1)
    bound = n * np.finfo(float).eps * np.linalg.norm(e, 2) ** n
    assert np.all(np.abs(states - stepped).max(axis=1) <= bound)


def test_master_series_rejects_grid_off_by_a_millionth_step(mollow_coeffs):
    """A grid is uniform by the TimeGrid rule, GRID_TOL = 1e-9 of a step;
    np.allclose's defaults would pass a point 1e-6 h off."""
    gen = LindbladPropagator(mollow_coeffs)
    h = 0.01
    times = h * np.arange(31)
    master_series(gen, np.eye(2) / 2, times)
    times[17] += 1e-6 * h
    with pytest.raises(ValueError, match="uniform"):
        master_series(gen, np.eye(2) / 2, times)
    with pytest.raises(ValueError, match="uniform"):
        master_series(gen, np.eye(2) / 2, np.zeros(3))


def test_lab_frame_rk4_series_matches_rotating_frame_exact_series():
    """The same driven atom in two frames: in the lab frame its generator is
    time dependent and master_series marches it by fourth-order Magnus steps
    (the test is named for the RK4 march they replaced); in the frame
    H0 = omega0 P_e it is constant and stepped exactly by e^{hG}.  The two
    series agree, rho_rot(t) = e^{i H0 t} rho_lab(t) e^{-i H0 t}, with the
    gap falling like h^4 (about 16x per halving of h)."""
    cfg = MollowConfig(omega=10.0, omega0=9.0, nu=9.0, alphas=[0.7, 0.5], lambdas=[0.0, 2j])
    rotating = build_mollow_model(cfg)
    lab = dataclasses.replace(rotating, frame=np.zeros((2, 2)))
    gen_rot, gen_lab = (LindbladPropagator(build_coefficients(m)) for m in (rotating, lab))
    assert gen_rot.time_independent and not gen_lab.time_independent
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    gaps = []
    for dt in (4e-3, 2e-3, 1e-3):
        times = TimeGrid.covering(2.0, dt).times
        u = np.exp(1j * np.multiply.outer(times, cfg.omega0 * np.diag(EXCITED_PROJECTOR)))
        rho_lab = master_series(gen_lab, rho0, times)
        to_rotating = u[:, :, None] * rho_lab * u.conj()[:, None, :]
        gaps.append(max_abs(to_rotating - master_series(gen_rot, rho0, times)))
    assert gaps[-1] <= 1e-8, gaps
    assert gaps[0] / gaps[1] >= 10 and gaps[1] / gaps[2] >= 10, gaps


def test_time_dependent_series_does_not_depend_on_step_block(monkeypatch):
    """master_series and the two-time sums of analytic_second_moment build the
    Magnus steps of a time-dependent generator a block at a time; the states
    and the second moments are the same, bit for bit, for any block."""
    model = simple_model(channels=(SIGMA_MINUS, 0.5 * SIGMA_MINUS), amplitudes=[0.4, 0.3],
                         carrier=1.5)
    gen = LindbladPropagator(build_coefficients(model))
    assert not gen.time_independent
    grid = TimeGrid.covering(0.5, 1e-2)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    pairs = [(0, 0, 0.5, 0.5), (0, 1, 0.5, 0.23), (1, 0, 0.07, 0.41), (1, 1, 0.3, 0.3)]
    runs = []
    for block in (256, 7):
        monkeypatch.setattr(master, "_STEP_BLOCK", block)
        runs.append((master_series(gen, rho0, grid.times),
                     analytic_second_moment(gen, rho0, grid, pairs)))
    (series, moments), (series_7, moments_7) = runs
    assert np.array_equal(series_7, series)
    assert moments_7 == moments


def test_propagate_identity_generator():
    coeffs = build_coefficients(simple_model())
    gen = LindbladPropagator(coeffs)
    rho0 = np.array([[0.25, 0.1j], [-0.1j, 0.75]], dtype=complex)
    rho = master_series(gen, rho0, TimeGrid.covering(2.0, 1e-2).times)[-1]
    assert max_abs(rho - rho0) <= 1e-14


def test_propagate_unitary_conjugation():
    h = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, -0.5]], dtype=complex)
    gen = LindbladPropagator(build_coefficients(simple_model(hamiltonian=h)))
    rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
    u = matrix_exp(h, -1j)
    exact = u @ rho0 @ u.conj().T
    rho = master_series(gen, rho0, TimeGrid.covering(1.0, 1e-3).times)[-1]
    assert max_abs(rho - exact) <= 1e-8


def test_master_series_rejects_backward_grid(decay_coeffs):
    """The oracle only evolves forward: a grid whose step is negative is
    rejected, not marched backward through a dissipative generator."""
    gen = LindbladPropagator(decay_coeffs)
    rho0 = np.eye(2, dtype=complex) / 2
    for times in ([1.0, 0.0], 1.0 - 1e-2 * np.arange(101)):
        with pytest.raises(ValueError, match="increasing"):
            master_series(gen, rho0, times)


def test_propagator_preserves_trace_and_hermiticity(mollow_coeffs, rng):
    gen = LindbladPropagator(mollow_coeffs)
    u = matrix_exp(gen.generator_at(0.3), 1.4)
    for _ in range(5):
        rho = random_state(rng)
        out = devectorize(u @ vectorize(rho), 2)
        assert abs(np.trace(out) - 1.0) <= 1e-8
        assert max_abs(out - out.conj().T) <= 1e-8


def test_stationary_state_decay(decay_coeffs):
    st = stationary_state(LindbladPropagator(decay_coeffs))
    assert st.nullity == 1
    assert max_abs(st.rho - np.diag([0.0, 1.0])) <= 1e-12


def test_stationary_state_degenerate():
    st = stationary_state(LindbladPropagator(build_coefficients(simple_model())))
    assert st.degenerate and st.nullity == 4 and st.rho is None


def test_stationary_state_mollow(mollow_coeffs):
    gen = LindbladPropagator(mollow_coeffs)
    st = stationary_state(gen)
    assert st.nullity == 1 and st.residual <= 1e-10
    pop = st.rho[0, 0].real
    assert 0.0 < pop < 0.5
    rho_long = master_series(gen, np.diag([1.0, 0.0]).astype(complex),
                             TimeGrid.covering(50.0, 1e-3).times)[-1]
    assert trace_distance(rho_long, st.rho) <= 1e-6


def test_stationary_requires_time_independence():
    model = simple_model(channels=(SIGMA_MINUS,), amplitudes=[0.5], carrier=2.0)
    gen = LindbladPropagator(build_coefficients(model))
    with pytest.raises(ValueError):
        stationary_state(gen)


def test_apriori_single_deterministic_trajectory():
    h = np.diag([0.5, -0.5]).astype(complex)
    coeffs = build_coefficients(simple_model(hamiltonian=h))
    ens = run_linear_ensemble(coeffs, E0, dt=1e-3, nsteps=100, ntraj=1,
                              base_seed=0, record_times=[0.05, 0.1])
    series = apriori_from_trajectories(ens)
    for m in range(len(series.times)):
        expected = np.outer(ens.psi[0, m], ens.psi[0, m].conj())
        assert max_abs(series.rho[m] - expected) <= 1e-15
    # one trajectory gives no standard error, so no check can pass on it
    assert np.isnan(series.stderr).all()


def test_apriori_weighted_and_normalized_forms_agree(mollow_coeffs):
    dt, nsteps, ntraj = 1e-3, 500, 2000
    lin = run_linear_ensemble(mollow_coeffs, E0, dt=dt, nsteps=nsteps, ntraj=ntraj,
                              base_seed=311, record_times=[0.5])
    nl = run_nonlinear_ensemble(mollow_coeffs, E0, dt=dt, nsteps=nsteps, ntraj=ntraj,
                                base_seed=412, record_times=[0.5])
    a, b = apriori_from_trajectories(lin), apriori_from_trajectories(nl)
    sigma = np.sqrt(np.sum(a.stderr[0] ** 2) + np.sum(b.stderr[0] ** 2))
    assert trace_distance(a.rho[0], b.rho[0]) <= 3.0 * sigma + 20 * dt


def test_apriori_empty_ensemble_rejected(mollow_coeffs):
    ens = run_linear_ensemble(mollow_coeffs, E0, dt=1e-3, nsteps=10, ntraj=2,
                              base_seed=1, record_times=[0.01])
    import dataclasses
    empty = dataclasses.replace(ens, psi=ens.psi[:0], weight=ens.weight[:0])
    with pytest.raises(ValueError, match="empty"):
        apriori_from_trajectories(empty)


def test_validate_density():
    validate_density(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density(np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.diag([0.7, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="negative"):
        validate_density(np.diag([1.5, -0.5]).astype(complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_validate_density_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        validate_density(np.full((2, 2), bad))
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        validate_density(rho)


def test_trace_distance_basic():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == 0.0
