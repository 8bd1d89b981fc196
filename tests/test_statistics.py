import dataclasses
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from conftest import random_model, simple_model
from qsde import master, statistics
from qsde.config import parse_config
from qsde.linalg import adjoint, matrix_exp, max_abs, vectorize
from qsde.master import LindbladPropagator, PositivityError, master_series, stationary_state
from qsde.model import (
    PROBE_TIMES,
    PROBE_TOL,
    DetectionSpec,
    DriveSpec,
    SystemModel,
    TimeGrid,
    build_coefficients,
)
from qsde.mollow import (
    EXCITED_PROJECTOR,
    SIGMA_MINUS,
    MollowConfig,
    build_mollow_model,
    canonical_config,
)
from qsde.statistics import (
    Check,
    _closed_form_term,
    _constant_steps,
    _two_sided_z,
    analytic_mean_series,
    analytic_second_moment,
    judge,
    mc_mean_output,
    mc_output_moments,
    mc_second_moment,
    spectrum_scan,
    standard_error,
    wiener_law_tests,
)
from qsde.trajectories import run_linear_ensemble, run_nonlinear_ensemble

ROOT = Path(__file__).resolve().parents[1]
E0 = np.array([1.0, 0.0], dtype=complex)
RHO_E = np.outer(E0, E0.conj())


def naive_ordered_term(coeffs, gen, rho0, i, j, t_outer, t_inner, dt):
    """Independent O(n^2) iterated-trapezoid evaluation of one ordered
    double integral (time-independent generators only)."""
    n_out = int(round(t_outer / dt))
    n_cap = int(round(t_inner / dt))
    times = dt * np.arange(max(n_out, n_cap) + 1)
    rho = master_series(gen, rho0, times)
    e_step = matrix_exp(gen.generator_at(0.0), dt)
    powers = [np.eye(gen.dim ** 2, dtype=complex)]
    for _ in range(n_out):
        powers.append(e_step @ powers[-1])
    total = 0.0
    for n1 in range(n_out + 1):
        ri = coeffs.r_at(n1 * dt)[i]
        q = vectorize(ri + adjoint(ri)).conj()
        cap = min(n1, n_cap)
        if cap == 0:
            continue
        inner = 0.0
        for n2 in range(cap + 1):
            rj = coeffs.r_at(n2 * dt)[j]
            mv = vectorize(rj @ rho[n2] + rho[n2] @ adjoint(rj))
            w2 = 0.5 if n2 in (0, cap) else 1.0
            inner += w2 * (q @ (powers[n1 - n2] @ mv)).real * dt
        w1 = 0.5 if n1 in (0, n_out) else 1.0
        total += w1 * inner * dt
    return total


def cf4_step(gen, t, dt):
    """The fourth-order commutator-free Magnus step from t to t + dt (Blanes &
    Moan 2006, Appl. Numer. Math. 56:1519), one step at a time:
    e^{dt (a2 G1 + a1 G2)} e^{dt (a1 G1 + a2 G2)} with G_{1,2} the generator
    at the Gauss nodes t + (1/2 -+ sqrt(3)/6) dt and a_{1,2} = 1/4 +- sqrt(3)/6."""
    c = np.sqrt(3.0) / 6.0
    g1 = gen.generator_at(t + (0.5 - c) * dt)
    g2 = gen.generator_at(t + (0.5 + c) * dt)
    return matrix_exp((0.25 - c) * g1 + (0.25 + c) * g2, dt) @ matrix_exp(
        (0.25 + c) * g1 + (0.25 - c) * g2, dt)


def reference_ordered_term(gen, r, rho, i, j, t_outer, t_inner, dt):
    """One ordered term by the per-step, unfolded trapezoid recurrence.

    Carries the whole inner sum acc (both halves of m_n, no Hermitian fold,
    no blocks) one step at a time, with ``cf4_step`` as the step, or one
    exponential for a constant generator.  ``r`` and ``rho`` are the R table
    and the states on the grid of spacing dt.
    """
    n_out = int(round(t_outer / dt))
    n_cap = int(round(t_inner / dt))
    if n_out == 0 or n_cap == 0:
        return 0.0
    constant = gen.time_independent
    if constant:
        e_step = matrix_exp(gen.generator_at(0.0), dt)
    ri = r[:n_out + 1, i]
    q = vectorize(ri + ri.conj().swapaxes(-1, -2)).conj()
    n_m = min(n_cap, n_out) + 1
    rj, rho_j = r[:n_m, j], rho[:n_m]
    m = vectorize(rj @ rho_j + rho_j @ rj.conj().swapaxes(-1, -2))
    acc = np.zeros(gen.dim ** 2, dtype=complex)
    total = 0.0
    for n1 in range(n_out + 1):
        w_out = 0.5 if n1 in (0, n_out) else 1.0
        total += w_out * (q[n1] @ acc).real * dt
        if n1 == n_out:
            break
        step = e_step if constant else cf4_step(gen, n1 * dt, dt)
        if n1 < n_cap:
            acc = step @ (acc + (0.5 * dt) * m[n1]) + (0.5 * dt) * m[n1 + 1]
        else:
            acc = step @ acc
    return total


def reference_second_moment(coeffs, gen, rho0, i, j, t1, t2, dt):
    """E[W_i(t1) W_j(t2)] from the reference recurrence: an independent
    route to the closed form and the folded sweep behind
    analytic_second_moment and spectrum_scan."""
    t_max = max(t1, t2)
    nsteps = max(1, int(round(t_max / dt)))
    h = t_max / nsteps
    times = h * np.arange(nsteps + 1)
    rho = master_series(gen, rho0, times)
    r = coeffs.r_table(times)
    return ((min(t1, t2) if i == j else 0.0)
            + reference_ordered_term(gen, r, rho, i, j, t1, t2, h)
            + reference_ordered_term(gen, r, rho, j, i, t2, t1, h))


def dense_trapezoid(read, y0, h, stages):
    """Trapezoid sum sum_{n=0}^{N} w_n read.y_n of y_{n+1} = M y_n, y_0 = y0,
    by powers of the dense augmented matrix [[1, h read], [0, M]].

    The route the block-form kernel replaced, kept as its reference.
    ``stages`` lists (M, steps) pairs run in turn, N being their total;
    leading axes of ``read`` and the M broadcast into one stack.  The sum
    is taken in the precision of ``read``.
    """
    m = y0.shape[-1]
    batch = np.broadcast_shapes(read.shape[:-1], *(mat.shape[:-2] for mat, _ in stages))
    aug = np.zeros(batch + (m + 1, m + 1), dtype=read.dtype)
    aug[..., 0, 0] = 1.0
    aug[..., 0, 1:] = h * read
    state = np.zeros(batch + (m + 1,), dtype=read.dtype)
    state[..., 1:] = y0
    for mat, steps in stages:
        aug[..., 1:, 1:] = mat
        state = (np.linalg.matrix_power(aug, steps) @ state[..., None])[..., 0]
    return state[..., 0] + 0.5 * h * ((read * state[..., 1:]).sum(-1) - read @ y0)


def dense_closed_form_term(e, p, v0, h, outer, inner, nu, n_out, n_cap, dtype=complex):
    """``_closed_form_term`` by the dense augmented (1 + 2 d^2)-square matrix
    of the statistics docstring, with the coupling block zeroed after n_cap.

    From the double inputs (e, p, v0, the operators and the phase factors
    psi, phi) on, the arithmetic is done in ``dtype``.
    """
    d2 = len(v0)
    out_gaps, out_ops = outer
    in_gaps, in_ops = inner
    nu = nu[:, None]
    a = np.concatenate([vectorize(out_ops).conj(), vectorize(out_ops.swapaxes(-1, -2))])
    psi = np.exp(1j * h * np.concatenate([-(out_gaps + nu), out_gaps + nu], axis=1))
    phi = np.exp(1j * h * (in_gaps + nu))
    psi, phi = psi[:, :, None, None, None], phi[:, None, :, None, None]
    m = np.kron(np.eye(int(round(np.sqrt(d2)))), in_ops)
    e, p, v0, a, psi, phi, m = (np.asarray(x, dtype=dtype) for x in (e, p, v0, a, psi, phi, m))
    mat = np.zeros(np.broadcast_shapes(psi.shape, phi.shape)[:3] + (2 * d2, 2 * d2),
                   dtype=dtype)
    x, z = slice(d2), slice(d2, None)
    mat[..., x, x] = psi * e
    mat[..., x, z] = (0.5 * h) * psi * (e @ m + phi * (m @ p))
    mat[..., z, z] = psi * phi * p
    k = min(n_cap, n_out)
    stages = [(mat, k)]
    if n_out > k:
        free = mat.copy()
        free[..., x, z] = 0.0
        stages.append((free, n_out - k))
    read = np.concatenate([a, np.zeros_like(a)], axis=1)[:, None]
    y0 = np.concatenate([np.zeros(d2, dtype=dtype), v0])
    return 2.0 * dense_trapezoid(read, y0, h, stages).real.sum(axis=(1, 2))


def mollow_at(nu):
    return build_mollow_model(canonical_config(nu=nu))


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def dephasing_model(detection=None):
    """Decay plus 0.7 P_e dephasing in the frame 3 P_e: R_j has gaps -3 and 0."""
    return simple_model(hamiltonian=0.8 * EXCITED_PROJECTOR,
                        channels=(SIGMA_MINUS, 0.7 * EXCITED_PROJECTOR),
                        detection=detection, frame=3.0 * EXCITED_PROJECTOR)


def trivial_frame_model():
    """Driven decay plus dephasing with H0 = 0 and diagonal-phase detection."""
    return simple_model(hamiltonian=0.6 * EXCITED_PROJECTOR,
                        channels=(SIGMA_MINUS, 0.5 * EXCITED_PROJECTOR),
                        amplitudes=[0.0, 0.9], detection=DetectionSpec(nu=1.3))


# Constant-generator models whose channel operators carry several phase
# components between them: the closed-form route of the correlation kernel.
CONSTANT_MODELS = {
    "dephasing-hadamard": dephasing_model(DetectionSpec(kind="constant-unitary",
                                                        matrix=HADAMARD)),
    "dephasing-diagonal": dephasing_model(),
    "trivial-frame": trivial_frame_model(),
    "mollow-detuned-lo": mollow_at(7.5),
}


def random_ladder_model(rng):
    """A random d = 3 model with a constant generator and two phase components
    per channel operator.

    In the frame diag(0, w, 2 w), two random lowering channels rotate at gap
    -w and a random dephasing channel at 0; a drive on the first at carrier w
    keeps K(t) constant, and a random unitary mixes the three channels, so
    each R_j carries both gaps.
    """
    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    w = rng.uniform(1.0, 4.0)
    mix = np.linalg.qr(cplx(3, 3))[0]
    return SystemModel(
        hamiltonian=np.diag(rng.normal(size=3)).astype(complex),
        channels=(np.diag(cplx(2), k=1), np.diag(cplx(2), k=1), np.diag(cplx(3))),
        drive=DriveSpec(amplitudes=[complex(*rng.normal(size=2)), 0.0, 0.0], carrier=w),
        detection=DetectionSpec(kind="constant-unitary", matrix=mix),
        frame=np.diag([0.0, w, 2.0 * w]))


KERNEL_MODELS = {**CONSTANT_MODELS,
                 **{f"random-ladder-{seed}": random_ladder_model(np.random.default_rng(seed))
                    for seed in (400, 401)}}


@pytest.fixture(scope="module")
def mollow_setup():
    coeffs = build_coefficients(build_mollow_model(canonical_config()))
    return coeffs, LindbladPropagator(coeffs)


def test_second_moment_shot_noise_floor():
    coeffs = build_coefficients(simple_model(hamiltonian=np.diag([1.0, -1.0]).astype(complex)))
    gen = LindbladPropagator(coeffs)
    rho0 = np.eye(2, dtype=complex) / 2
    pairs = [(0, 0, 1.0, 0.5), (0, 0, 1.0, 1.0)]
    assert analytic_second_moment(gen, rho0, TimeGrid.covering(1.0, 1e-2), pairs) == [0.5, 1.0]


def test_second_moment_matches_naive_double_sum(mollow_setup):
    coeffs, gen = mollow_setup
    dt = 0.05
    pairs = [(0, 0, 1.0, 1.0), (0, 1, 1.0, 0.5), (1, 0, 0.6, 1.2)]
    values = analytic_second_moment(gen, RHO_E, TimeGrid.covering(1.2, dt), pairs)
    for (i, j, t1, t2), fast in zip(pairs, values):
        slow = ((min(t1, t2) if i == j else 0.0)
                + naive_ordered_term(coeffs, gen, RHO_E, i, j, t1, t2, dt)
                + naive_ordered_term(coeffs, gen, RHO_E, j, i, t2, t1, dt))
        assert abs(fast - slow) <= 1e-12


def test_second_moment_pair_swap_symmetry(mollow_setup):
    coeffs, gen = mollow_setup
    a, b = analytic_second_moment(gen, RHO_E, TimeGrid.covering(1.0, 1e-2),
                                  [(0, 1, 1.0, 0.5), (1, 0, 0.5, 1.0)])
    assert abs(a - b) <= 1e-9


def test_second_moment_time_dependent_generator_route():
    """The batched Magnus-step stack agrees with the per-step reference on
    models whose generator depends on time: a carrier-driven atom and
    random models with a random frame, for i != j and t1 != t2."""
    models = [simple_model(channels=(SIGMA_MINUS, 0.5 * SIGMA_MINUS),
                           amplitudes=[0.4, 0.3], carrier=1.5)]
    models += [random_model(np.random.default_rng(seed)) for seed in (300, 301, 302)]
    for model in models:
        coeffs = build_coefficients(model)
        gen = LindbladPropagator(coeffs)
        assert not gen.time_independent
        psi = np.arange(1, gen.dim + 1) + 0.5j
        rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        pairs = [(0, 1, 0.5, 0.3), (1, 0, 0.2, 0.45), (1, 1, 0.4, 0.25)]
        values = analytic_second_moment(gen, rho0, TimeGrid.covering(0.5, 1e-2), pairs)
        for (i, j, t1, t2), fast in zip(pairs, values):
            ref = reference_second_moment(coeffs, gen, rho0, i, j, t1, t2, 1e-2)
            assert abs(fast - ref) <= 1e-12 * abs(ref), (i, j, t1, t2, fast, ref)


def test_time_dependent_second_moments_build_each_magnus_step_once(monkeypatch):
    """The states and the two-time sums of a time-dependent generator share one
    march: over an N-step grid, N Magnus steps are built, not 2N."""
    gen = LindbladPropagator(build_coefficients(random_model(np.random.default_rng(300))))
    built = []
    magnus = master._magnus_steps

    def spy(gen, starts, h):
        built.append(len(starts))
        return magnus(gen, starts, h)

    # in every qsde module that binds it, so that an import by name is counted too
    for module in [m for name, m in sys.modules.items() if name.startswith("qsde.")]:
        if getattr(module, "_magnus_steps", None) is magnus:
            monkeypatch.setattr(module, "_magnus_steps", spy)
    analytic_second_moment(gen, np.eye(3) / 3, TimeGrid(1e-2, 600), [(0, 1, 6.0, 2.5)])
    assert sum(built) == 600


def test_time_dependent_second_moment_memory_does_not_grow_with_horizon():
    """The two-time sums hold one block of Magnus steps at a time: on a d = 4
    time-dependent model at 2000 steps, the traced peak of
    analytic_second_moment exceeds that of master_series on the same grid by at
    most 4 _STEP_BLOCK d^4 16 B.  A stack of every step held 159 MB more."""
    gen = LindbladPropagator(build_coefficients(random_model(np.random.default_rng(300), d=4)))
    assert not gen.time_independent
    rho0 = np.eye(4) / 4
    grid = TimeGrid(1e-3, 2000)
    pairs = [(0, 0, 2.0, 2.0), (0, 1, 2.0, 1.0), (1, 1, 0.5, 1.5)]
    peaks = []
    for run in (lambda: master_series(gen, rho0, grid.times),
                lambda: analytic_second_moment(gen, rho0, grid, pairs)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 4 * master._STEP_BLOCK * gen.dim**4 * 16, peaks


def test_time_dependent_second_moment_peak_memory_is_flat_in_nsteps():
    """The two-time sums keep the march's current block and a running sum:
    on a d = 3, J = 2 time-dependent model with two pairs at h = 1e-3, the
    traced peak of analytic_second_moment at 8000 steps is within 10% of
    that at 1000.  Full-grid state and pairing arrays took it from 7.98 MB at
    2000 steps to 9.00 MB at 8000 and 13.05 MB at 32000."""
    gen = LindbladPropagator(build_coefficients(random_model(np.random.default_rng(300))))
    assert not gen.time_independent
    rho0 = np.eye(3) / 3
    analytic_second_moment(gen, rho0, TimeGrid(1e-3, 10), [(0, 1, 0.01, 0.005)])
    peaks = []
    for nsteps in (1000, 8000):
        t = 1e-3 * nsteps
        tracemalloc.start()
        try:
            analytic_second_moment(gen, rho0, TimeGrid(1e-3, nsteps),
                                   [(0, 1, t, t / 2), (1, 1, t, t)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_lab_frame_second_moments_match_rotating_frame_closed_form():
    """The driven atom of the master-equation frame test: in the lab frame its
    generator is time dependent and the second moments run the Magnus-step
    sweep; in the frame H0 = omega0 P_e they take the exact closed form.  The
    output W does not depend on the frame, so the two agree, with the gap
    falling like h^4 (about 16x per halving of h).  The midpoint steps these
    replaced fell 4x, to 2.9e-7 at h = 1e-3."""
    cfg = MollowConfig(omega=10.0, omega0=9.0, nu=9.0, alphas=[0.7, 0.5], lambdas=[0.0, 2j])
    rotating = build_mollow_model(cfg)
    lab = dataclasses.replace(rotating, frame=np.zeros((2, 2)))
    gen_rot, gen_lab = (LindbladPropagator(build_coefficients(m)) for m in (rotating, lab))
    assert gen_rot.time_independent and not gen_lab.time_independent
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    pairs = [(0, 0, 1.0, 1.0), (0, 1, 1.0, 0.6)]
    lab_rot = [[analytic_second_moment(gen, rho0, TimeGrid.covering(1.0, dt), pairs)
                for gen in (gen_lab, gen_rot)] for dt in (4e-3, 2e-3, 1e-3)]
    for k, pair in enumerate(pairs):
        gaps = [abs(lab[k] - rot[k]) for lab, rot in lab_rot]
        assert gaps[-1] <= 1e-11, (pair, gaps)
        if pair[:2] == (0, 0):
            assert gaps[0] / gaps[1] >= 10 and gaps[1] / gaps[2] >= 10, gaps


def test_constant_models_have_constant_generators():
    for name, model in CONSTANT_MODELS.items():
        assert LindbladPropagator(build_coefficients(model)).time_independent, name
    gaps, _ = build_coefficients(CONSTANT_MODELS["dephasing-hadamard"]).r_components(0)
    assert np.allclose(gaps, [-3.0, 0.0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("model", list(CONSTANT_MODELS.values()) + [
    random_model(np.random.default_rng(seed)) for seed in (300, 301)],
    ids=list(CONSTANT_MODELS) + ["random-300", "random-301"])
def test_r_components_reproduce_r_table(model):
    coeffs = build_coefficients(model)
    times = np.linspace(0.0, 5.0, 41)
    table = coeffs.r_table(times)
    for j in range(model.nchannels):
        gaps, ops = coeffs.r_components(j)
        assert len(gaps) == len(ops) and all(np.any(op != 0) for op in ops)
        rebuilt = np.einsum("ng,gkl->nkl", np.exp(1j * np.outer(times, gaps)), ops)
        assert max_abs(rebuilt - table[:, j]) <= 1e-13 * max(1.0, max_abs(table[:, j]))


def test_r_components_drop_zero_channels():
    gaps, ops = build_coefficients(simple_model()).r_components(0)
    assert gaps.shape == (0,) and ops.shape == (0, 2, 2)


@pytest.mark.parametrize("name", list(CONSTANT_MODELS))
def test_second_moment_closed_form_matches_reference(name):
    """The closed form agrees with the per-step recurrence for i != j,
    t1 != t2, and an inner cut-off below and above the outer end."""
    coeffs = build_coefficients(CONSTANT_MODELS[name])
    gen = LindbladPropagator(coeffs)
    psi = np.array([1.0, 0.6 - 0.3j])
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    pairs = [(0, 1, 0.5, 0.3), (1, 0, 0.2, 0.45), (1, 1, 0.4, 0.25), (0, 0, 0.35, 0.35)]
    values = analytic_second_moment(gen, rho0, TimeGrid.covering(0.5, 1e-2), pairs)
    for (i, j, t1, t2), fast in zip(pairs, values):
        ref = reference_second_moment(coeffs, gen, rho0, i, j, t1, t2, 1e-2)
        assert abs(fast - ref) <= 1e-12 * abs(ref), (i, j, t1, t2, fast, ref)


def test_random_ladder_models_are_constant_with_two_components():
    for seed in (400, 401):
        coeffs = build_coefficients(KERNEL_MODELS[f"random-ladder-{seed}"])
        assert LindbladPropagator(coeffs).time_independent
        assert all(len(coeffs.r_components(j)[0]) == 2 for j in range(3))


def kernel_and_dense_errors(coeffs, e, p, v0, nsteps, **kernel):
    """Errors of ``_closed_form_term`` (called with ``kernel``) and of the
    dense double route, each relative to the dense route in long double,
    over every channel pair and the inner cut-off n_cap below (down to one
    step), at and above the outer end n_out; h = 0.005.  ``p`` steps the
    dense route's states."""
    h, nus = 0.005, np.array([-3.0, 0.0, 1.3, 8.0])
    comps = [coeffs.r_components(j) for j in range(coeffs.nchannels)]
    cuts = {(nsteps, max(1, nsteps // 3)), (nsteps, nsteps), (max(1, nsteps // 2), nsteps),
            (nsteps, 1)}
    block_err, dense_err = [], []
    for outer in comps:
        for inner in comps:
            for n_out, n_cap in sorted(cuts):
                args = (v0, h, outer, inner, nus, n_out, n_cap)
                fast = _closed_form_term(e, *args, **kernel)
                dense = dense_closed_form_term(e, p, *args)
                exact = dense_closed_form_term(e, p, *args, dtype=np.clongdouble)
                scale = max_abs(exact)
                if scale == 0.0:   # a term that vanishes identically, in every route
                    assert max_abs(fast) == max_abs(dense) == 0.0
                    continue
                block_err.append(max_abs(fast - exact) / scale)
                dense_err.append(max_abs(dense - exact) / scale)
    return block_err, dense_err


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the exact sums need a long double wider than a double")
@pytest.mark.parametrize("nsteps", [1, 2, 7, 10_000, 40_000])
@pytest.mark.parametrize("name", list(KERNEL_MODELS))
def test_block_kernel_matches_dense_route(name, nsteps):
    """The block-form powers are as accurate as the dense augmented-matrix
    powers they replace, to 1e-13 relative: every channel pair and the inner
    cut-off n_cap below (down to one step), at and above the outer end n_out.
    Like the kernel, the dense route steps the states with the propagator E
    itself.

    "Exact" is the dense route in long double on the same double inputs.
    Both double routes err from it by up to about 1.6e-12 relative at 40 000
    steps, mostly through the phase powers psi^n, whose rounding grows like
    n u; on one term either route may be the luckier, so the worst error of
    the block route over all terms is held to the dense route's worst.
    """
    coeffs = build_coefficients(KERNEL_MODELS[name])
    gen = LindbladPropagator(coeffs)
    psi = np.arange(1, gen.dim + 1) - 0.4j
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    e, v0 = _constant_steps(gen, rho0, 0.005, nsteps)
    block_err, dense_err = kernel_and_dense_errors(coeffs, e, e, v0, nsteps)
    assert max(block_err) <= max(dense_err) + 1e-13, (max(block_err), max(dense_err))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the exact sums need a long double wider than a double")
@pytest.mark.parametrize("nsteps", [1, 2, 7, 10_000, 40_000])
# The other KERNEL_MODELS relax to the ground state, which their channel
# operators annihilate from either side, so every stationary term vanishes.
@pytest.mark.parametrize("name", ["mollow-detuned-lo", "random-ladder-400", "random-ladder-401"])
def test_stationary_kernel_matches_dense_route(name, nsteps):
    """The stationary start of the block kernel (z-chain in span{vec rho_ss},
    F = [1]) is as accurate as the dense augmented-matrix powers on the same
    inputs, to 1e-13 relative, by the rule of the general-start test above.

    "Exact" is the dense route in long double with the z-chain held at
    vec rho_ss (its propagator the identity), which is the sum the
    stationary route takes: E vec rho_ss = vec rho_ss holds to the
    stationary residual, which this compares neither route against.
    """
    coeffs = build_coefficients(KERNEL_MODELS[name])
    gen = LindbladPropagator(coeffs)
    st = stationary_state(gen)
    assert not st.degenerate, name
    e, v0 = _constant_steps(gen, st.rho, 0.005, nsteps)
    block_err, dense_err = kernel_and_dense_errors(coeffs, e, np.eye(len(v0)), v0, nsteps,
                                                   stationary=True)
    assert max(block_err) <= max(dense_err) + 1e-13, (max(block_err), max(dense_err))


@pytest.mark.parametrize("lo", [7.5, 10.0])
def test_spectrum_stationary_start_matches_supplied_stationary_state(lo):
    """The default start (the scan's own stationary solve, z-chain in
    span{vec rho_ss}) and the same state supplied as rho0 (the general
    route, z-chain stepped by E) agree within the 1.6e-12 of max S that the
    statistics docstring states for 40 000 steps, on the Mollow model with
    the local oscillator detuned and at resonance."""
    model = mollow_at(lo)
    nus = np.array([-3.0, -0.4, 0.0, 1.3, 5.1, 8.0, 10.0])
    default = spectrum_scan(model, nus, horizon=200.0, dt=0.005)
    supplied = spectrum_scan(model, nus, horizon=200.0, dt=0.005, rho0=default.stationary.rho)
    assert supplied.stationary is None
    gap = max_abs(default.values - supplied.values)
    assert gap <= 1.6e-12 * max_abs(supplied.values), gap


def test_default_start_spectrum_runs_one_column_coupling_block(monkeypatch):
    """Guard on the stationary route: a default-start scan powers blocks whose
    coupling U has one column (F = [1]); a supplied rho0 has d^2 columns."""
    model = mollow_at(10.0)
    shapes = []
    original = statistics._apply_power

    def spy(step, n, state):
        shapes.append((step.u.shape[:2], step.f.shape, state[2].shape[0]))
        return original(step, n, state)

    monkeypatch.setattr(statistics, "_apply_power", spy)
    default = spectrum_scan(model, [5.0, 10.0], horizon=1.0, dt=0.01)
    assert shapes and set(shapes) == {((4, 1), (1, 1), 1)}, shapes
    shapes.clear()
    spectrum_scan(model, [5.0, 10.0], horizon=1.0, dt=0.01, rho0=default.stationary.rho)
    assert shapes and set(shapes) == {((4, 4), (4, 4), 4)}, shapes


def test_second_moment_computes_each_distinct_term_once(monkeypatch):
    """On the perfbench moments_pairs config the twelve pairs have 24 ordered
    terms, of which the three i = j, t1 = t2 pairs repeat one each: 21 closed
    forms, and every value bit-identical to summing both terms of each pair."""
    cfg = parse_config((ROOT / "perfbench" / "configs" / "moments_pairs.json").read_text())
    coeffs = build_coefficients(cfg.model)
    gen = LindbladPropagator(coeffs)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    pairs = cfg.run.pairs
    calls = []
    original = statistics._closed_form_term

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(statistics, "_closed_form_term", spy)
    values = analytic_second_moment(gen, rho0, cfg.grid, pairs)
    assert len(calls) == 21
    monkeypatch.undo()
    h = cfg.grid.h
    e, v0 = _constant_steps(gen, rho0, h, cfg.grid.nsteps)
    comps = [coeffs.r_components(c) for c in range(coeffs.nchannels)]
    for (i, j, t1, t2), value in zip(pairs, values):
        n1, n2 = cfg.grid.index([t1, t2])
        terms = [original(e, v0, h, comps[a], comps[b], np.zeros(1), n_out, n_cap)[0]
                 for a, b, n_out, n_cap in ((i, j, n1, n2), (j, i, n2, n1))]
        assert value == float((min(t1, t2) if i == j else 0.0) + terms[0] + terms[1])


# The constant and the time-dependent generators that the probe must tell apart.
PROBE_MODELS = {**KERNEL_MODELS,
                **{f"random-{seed}": random_model(np.random.default_rng(seed))
                   for seed in (300, 301, 302)},
                "carrier-driven-atom": simple_model(channels=(SIGMA_MINUS, 0.5 * SIGMA_MINUS),
                                                    amplitudes=[0.4, 0.3], carrier=1.5)}


@pytest.mark.parametrize("name", list(PROBE_MODELS))
def test_stacked_time_independence_probe_matches_per_time_loop(name):
    """LindbladPropagator's probe builds the three later probe times as one
    stack; its verdict and the bytes of L_*(0) are those of the per-time
    loop it replaced."""
    coeffs = build_coefficients(PROBE_MODELS[name])
    g0, *later = (master._lindblad(coeffs.k_at(t), coeffs.r_at(t)) for t in PROBE_TIMES)
    scale = max(max_abs(g0), 1.0)
    verdict = all(max_abs(g - g0) <= PROBE_TOL * scale for g in later)
    gen = LindbladPropagator(coeffs)
    assert gen.time_independent is verdict
    assert verdict is (name in KERNEL_MODELS)
    assert gen.generator_at(0.0).tobytes() == g0.tobytes()


@pytest.mark.parametrize("name, channel", [
    ("dephasing-diagonal", 0), ("dephasing-diagonal", 1),
    ("trivial-frame", 0), ("trivial-frame", 1), ("mollow-detuned-lo", 0)])
def test_spectrum_closed_form_matches_reference(name, channel):
    """The scan of channel 0 matches the reference recurrence; channel 1 is
    scanned as channel 0 of the model with its channels and drive amplitudes
    reversed, which has the same generator."""
    model = CONSTANT_MODELS[name]
    gen = LindbladPropagator(build_coefficients(model))
    horizon, dt = 3.0, 0.02
    nus = np.array([-3.0, -0.4, 0.0, 1.3, 8.0])
    # trivial-frame relaxes to the ground state, which both channel operators
    # annihilate: from there S = 1 at every nu on both routes, so it starts excited
    rho = stationary_state(gen).rho if name == "mollow-detuned-lo" else RHO_E
    order = slice(None, None, 1 if channel == 0 else -1)
    scanned = dataclasses.replace(model, channels=model.channels[order], drive=DriveSpec(
        amplitudes=model.drive.amplitudes[order], carrier=model.drive.carrier))
    scan = spectrum_scan(scanned, nus, horizon=horizon, dt=dt, rho0=rho)
    assert np.ptp(scan.values) > 1e-3 * scan.values.max()
    for k, nu in enumerate(nus):
        c_nu = build_coefficients(dataclasses.replace(model, detection=DetectionSpec(nu=nu)))
        second = reference_second_moment(c_nu, gen, rho, channel, channel,
                                         horizon, horizon, dt)
        assert abs(scan.values[k] - second / horizon) <= 1e-9


def test_spectrum_checks_final_state_positivity(monkeypatch):
    """Like master_series, the scan checks its final state: with a threshold
    no state can meet, it raises."""
    model = mollow_at(10.0)
    spectrum_scan(model, [10.0], horizon=1.0, dt=0.01)
    monkeypatch.setattr(master, "POSITIVITY_FAIL", 2.0)
    with pytest.raises(PositivityError):
        spectrum_scan(model, [10.0], horizon=1.0, dt=0.01)


def test_analytic_mean_identity_channel():
    table_model = simple_model(channels=(np.eye(2),))
    coeffs = build_coefficients(table_model)
    gen = LindbladPropagator(coeffs)
    rho0 = np.eye(2, dtype=complex) / 2
    means = analytic_mean_series(gen, rho0, TimeGrid.covering(1.0, 1e-3))
    assert means[-1, 0] == pytest.approx(2.0, abs=1e-12)
    assert means[0, 0] == 0.0


def test_analytic_mean_anti_hermitian_channel():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    coeffs = build_coefficients(simple_model(channels=(1j * x,)))
    gen = LindbladPropagator(coeffs)
    assert analytic_mean_series(gen, RHO_E, TimeGrid.covering(1.0, 1e-3))[-1, 0] == 0.0


def test_mc_mean_output_identity_channel():
    coeffs = build_coefficients(simple_model(channels=(np.eye(2),)))
    ens = run_linear_ensemble(coeffs, E0, dt=1e-3, nsteps=1000, ntraj=4000,
                              base_seed=8, record_times=[0.5, 1.0])
    for t in (0.5, 1.0):
        value, se = mc_mean_output(ens, 0, t)
        assert abs(value - 2.0 * t) <= 3.0 * se


def test_mc_moments_report_and_split_consistency(mollow_setup):
    coeffs, gen = mollow_setup
    dt, nsteps, ntraj = 1e-3, 1000, 3000
    ens = run_linear_ensemble(coeffs, E0, dt=dt, nsteps=nsteps, ntraj=ntraj,
                              base_seed=55, record_times=[0.5, 1.0])
    report = mc_output_moments(ens, gen, RHO_E, pairs=((0, 0, 1.0, 1.0), (0, 1, 1.0, 0.5)))
    slack = 25 * dt
    for m in range(len(report.times)):
        for k in range(2):
            dev = abs(report.analytic_mean[m, k] - report.mc_mean[m, k])
            assert dev <= 3.0 * report.mc_mean_stderr[m, k] + slack
    for row in report.second:
        assert abs(row.analytic - row.mc) <= 3.0 * row.stderr + slack
    # split halves: full estimate within 3 sigma of each half
    half1 = dataclasses.replace(ens, psi=ens.psi[:1500], weight=ens.weight[:1500],
                                w_path=ens.w_path[:1500], innovation=ens.innovation[:1500],
                                frozen_at=ens.frozen_at[:1500])
    v_full, _ = mc_mean_output(ens, 0, 1.0)
    v_half, se_half = mc_mean_output(half1, 0, 1.0)
    assert abs(v_full - v_half) <= 3.0 * se_half


@pytest.mark.parametrize("model", [
    build_mollow_model(canonical_config()),
    simple_model(channels=(SIGMA_MINUS, 0.5 * SIGMA_MINUS), amplitudes=[0.4, 0.3], carrier=1.5)],
    ids=["constant", "time-dependent"])
def test_moment_report_pairs_match_analytic_second_moment(model):
    """The report builds its propagators, states and channel components once,
    on the ensemble grid up to the latest pair time; each pair still gets
    the value analytic_second_moment gives it alone."""
    coeffs = build_coefficients(model)
    gen = LindbladPropagator(coeffs)
    dt = 1e-2
    ens = run_linear_ensemble(coeffs, E0, dt=dt, nsteps=60, ntraj=4, base_seed=3,
                              record_times=[0.0, 0.2, 0.3, 0.5, 0.6])
    pairs = ((0, 0, 0.3, 0.3), (0, 1, 0.3, 0.2), (1, 0, 0.2, 0.0), (1, 1, 0.5, 0.2))
    report = mc_output_moments(ens, gen, RHO_E, pairs=pairs)
    for row, (i, j, t1, t2) in zip(report.second, pairs):
        alone, = analytic_second_moment(gen, RHO_E, TimeGrid.covering(max(t1, t2), dt),
                                        [(i, j, t1, t2)])
        assert abs(row.analytic - alone) <= 1e-13 * max(abs(alone), 1.0), (row, alone)


def test_mc_second_moment_grid_mismatch(mollow_setup):
    coeffs, _ = mollow_setup
    ens = run_linear_ensemble(coeffs, E0, dt=1e-3, nsteps=100, ntraj=10,
                              base_seed=2, record_times=[0.05, 0.1])
    with pytest.raises(ValueError, match="checkpoint"):
        mc_second_moment(ens, 0, 0, 0.07, 0.1)
    # 0.02 is a grid time but not a checkpoint
    with pytest.raises(ValueError, match="checkpoint"):
        mc_mean_output(ens, 0, 0.02)


def test_decay_second_moment_mc_agreement():
    """Pure decay from the excited state: output variance from the
    two-time formula vs a reweighted trajectory ensemble."""
    gamma = 1.0
    coeffs = build_coefficients(simple_model(channels=(np.sqrt(gamma) * SIGMA_MINUS,)))
    gen = LindbladPropagator(coeffs)
    dt, t = 1e-3, 1.0
    ana, = analytic_second_moment(gen, RHO_E, TimeGrid.covering(t, dt), [(0, 0, t, t)])
    ens = run_linear_ensemble(coeffs, E0, dt=dt, nsteps=int(t / dt), ntraj=5000,
                              base_seed=611, record_times=[t])
    mc, se = mc_second_moment(ens, 0, 0, t, t)
    assert abs(ana - mc) <= 3.0 * se + 25 * dt


def test_judge_entry_at_the_bound_passes_and_next_float_fails():
    """|estimate - expected| <= z stderr + slack: 3 * 0.5 + 0.25 = 1.75 exactly."""
    at = judge("c", 1.75, 0.0, 0.5, slack=0.25, detail="d")[0]
    above = judge("c", np.nextafter(1.75, np.inf), 0.0, 0.5, slack=0.25, detail="d")[0]
    assert at.passed is True and above.passed is False
    assert judge("c", -1.75, 0.0, 0.5, slack=0.25, detail="d")[0].passed


def test_judge_nan_fails():
    for estimate, stderr, verdicts in ((np.nan, 1.0, [True, False]),
                                       (0.0, np.nan, [False, False])):
        check, ok = judge("c", [0.0, estimate], 0.0, stderr, detail="d")
        assert not check.passed and ok.tolist() == verdicts


def test_judge_scalar_and_2d_inputs():
    check, ok = judge("scalar", 0.5, 0.0, slack=1.0, detail="d")
    assert check == Check("scalar", True, "d, worst excess 0.00e+00") and ok.shape == ()
    estimate = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    check, ok = judge("grid", estimate, np.array([0.0, 1.0, 2.0]), np.ones((2, 3)), z=1.0,
                      detail="d")
    assert not check.passed and ok.tolist() == [[True, True, True], [False, False, False]]
    assert isinstance(check.passed, bool)


def test_judge_detail_ends_with_worst_excess():
    """The caller's text, then the largest amount by which an entry exceeds
    its bound: here 4 - (3 * 0.5 + 1) = 1.5."""
    check, _ = judge("c", [1.0, 4.0, 2.0], 0.0, 0.5, slack=1.0, detail="3 sigma + 1 slack")
    assert check.detail == "3 sigma + 1 slack, worst excess 1.50e+00"
    name, passed, detail = check
    assert (name, passed, detail) == ("c", False, check.detail)


def test_standard_error_is_the_textbook_formula(rng):
    """sqrt(sum (x - mean)^2 / (n - 1)) / sqrt(n) per column; one trajectory
    has no error estimate (NaN), so a check judged with it fails."""
    x = rng.normal(size=(500, 3))
    n = len(x)
    textbook = np.sqrt(((x - x.mean(axis=0)) ** 2).sum(axis=0) / (n - 1)) / np.sqrt(n)
    assert standard_error(x) == pytest.approx(textbook, rel=1e-12)
    assert float(standard_error(x[:, 0])) == pytest.approx(textbook[0], rel=1e-12)
    assert np.isnan(standard_error(x[:1])).all() and standard_error(x[:1]).shape == (3,)
    assert not judge("one", 0.0, 0.0, standard_error(x[:1, 0]), slack=1.0, detail="d")[0].passed


def test_wiener_law_pass_for_pure_noise():
    coeffs = build_coefficients(simple_model(hamiltonian=np.diag([1.0, -1.0]).astype(complex),
                                             channels=(np.zeros((2, 2)), np.zeros((2, 2))),
                                             amplitudes=[0.0, 0.0]))
    ens = run_linear_ensemble(coeffs, E0, dt=1e-3, nsteps=1000, ntraj=2000,
                              base_seed=91, record_times=np.linspace(0.1, 1.0, 10))
    check, rows = wiener_law_tests(ens)
    assert check.passed, [r for r in rows if not r.passed]


def test_wiener_law_negative_control_identity_channel():
    """Without reweighting, the innovation of the R = identity model keeps
    its -2t drift and the mean test must fail decisively."""
    coeffs = build_coefficients(simple_model(channels=(np.eye(2),)))
    ens = run_linear_ensemble(coeffs, E0, dt=1e-3, nsteps=1000, ntraj=500,
                              base_seed=14, record_times=np.linspace(0.1, 1.0, 10))
    _, bad = wiener_law_tests(ens, reweight=False)
    assert not {r.name: r for r in bad}["mean[0]"].passed
    _, good = wiener_law_tests(ens, reweight=True)
    assert {r.name: r for r in good}["mean[0]"].passed



def test_wiener_law_reweighting_is_identity_on_normalized_ensemble(mollow_setup):
    """A normalized ensemble's weights are exactly 1: reweighting by them
    leaves every row as it is."""
    coeffs, _ = mollow_setup
    ens = run_nonlinear_ensemble(coeffs, E0, dt=1e-3, nsteps=200, ntraj=50, base_seed=17,
                                 record_times=[0.05, 0.1, 0.15, 0.2])
    assert wiener_law_tests(ens, reweight=True)[1] == wiener_law_tests(ens, reweight=False)[1]


def test_apriori_state_of_linear_ensemble_is_weighted_posterior_mean(mollow_setup):
    """The plain mean of |psi><psi| over a linear ensemble is the
    weight-weighted mean of |psihat><psihat|."""
    coeffs, _ = mollow_setup
    ens = run_linear_ensemble(coeffs, E0, dt=1e-3, nsteps=200, ntraj=50, base_seed=17,
                              record_times=[0.05, 0.1, 0.2])
    psihat = ens.psihat
    weighted = np.einsum("bt,btk,btl->tkl", ens.weight, psihat, psihat.conj()) / ens.ntraj
    assert max_abs(master.apriori_from_trajectories(ens).rho - weighted) <= 1e-14

@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
def test_critical_value_matches_scipy(confidence):
    expected = norm.ppf(0.5 * (1.0 + confidence))
    assert abs(_two_sided_z(confidence) - expected) <= 1e-15 * expected


def test_spectrum_zero_channels_is_shot_noise():
    model = simple_model(hamiltonian=np.diag([2.0, -2.0]).astype(complex))
    rho0 = np.eye(2, dtype=complex) / 2
    scan = spectrum_scan(model, np.linspace(0.0, 4.0, 9), horizon=5.0, dt=0.01, rho0=rho0)
    assert max_abs(scan.values - 1.0) == 0.0


def test_spectrum_requires_rho0_when_degenerate():
    from qsde.master import DegenerateStationaryState

    with pytest.raises(DegenerateStationaryState):
        spectrum_scan(simple_model(), np.array([1.0]), horizon=1.0, dt=0.01)


def test_spectrum_empty_grid_rejected():
    with pytest.raises(ValueError, match="empty"):
        spectrum_scan(simple_model(), np.array([]), horizon=1.0, dt=0.01)


BAD_RHO0 = {
    "nan": (np.full((2, 2), np.nan), "density matrix contains non-finite entries"),
    "3x3": (np.eye(3) / 3, r"expected shape \(2, 2\), got \(3, 3\)"),
    "trace_2": (2.0 * RHO_E, "density matrix trace is not 1"),
    "negative": (np.diag([1.5, -0.5]), "density matrix has a negative eigenvalue"),
}

BAD_ANALYTIC_INPUTS = {
    # analytic_second_moment on the grid covering [0, 1] with step dt, of the
    # two-channel Mollow model: (i, j, t1, t2, dt)
    "dt_-0.01": ("moment", (0, 0, 1.0, 1.0, -0.01), "dt must be finite and positive"),
    "dt_0": ("moment", (0, 0, 1.0, 1.0, 0.0), "dt must be finite and positive"),
    "dt_nan": ("moment", (0, 0, 1.0, 1.0, np.nan), "dt must be finite and positive"),
    "dt_inf": ("moment", (0, 0, 1.0, 1.0, np.inf), "dt must be finite and positive"),
    "t_0_dt_-1": ("moment", (0, 0, 0.0, 0.0, -1.0), "dt must be finite and positive"),
    "t1_nan": ("moment", (0, 0, np.nan, 1.0, 0.01),
               r"pair \(0, 0, nan, 1.0\): times must be finite and non-negative"),
    "t2_inf": ("moment", (0, 1, 1.0, np.inf, 0.01),
               r"pair \(0, 1, 1.0, inf\): times must be finite and non-negative"),
    "t1_-0.5": ("moment", (0, 1, -0.5, 1.0, 0.01),
                r"pair \(0, 1, -0.5, 1.0\): times must be finite and non-negative"),
    "t1_off_grid": ("moment", (0, 0, 0.505, 1.0, 0.01),
                    r"pair \(0, 0, 0.505, 1.0\): times \[0.505\] are not points of the grid"),
    "t2_past_grid": ("moment", (1, 0, 1.0, 1.5, 0.01),
                     r"pair \(1, 0, 1.0, 1.5\): times \[1.5\] are not points of the grid"),
    "i_-1": ("moment", (-1, 0, 1.0, 1.0, 0.01),
             r"pair \(-1, 0, 1.0, 1.0\): i must be an integer in \[0, 1\]"),
    "j_2": ("moment", (0, 2, 1.0, 1.0, 0.01),
            r"pair \(0, 2, 1.0, 1.0\): j must be an integer in \[0, 1\]"),
    "i_1.0": ("moment", (1.0, 0, 1.0, 1.0, 0.01),
              r"pair \(1.0, 0, 1.0, 1.0\): i must be an integer in"),
    # mc_output_moments on an ensemble of dt 0.01 up to 0.2: (i, j, t1, t2)
    "report_j_2": ("report", (0, 2, 0.1, 0.2), r"pair \(0, 2, 0.1, 0.2\): j must be an integer"),
    "report_t2_nan": ("report", (0, 0, 0.1, np.nan), r"pair \(0, 0, 0.1, nan\): times must be"),
    # spectrum_scan(horizon, dt)
    "horizon_nan": ("scan", (np.nan, 0.01), "horizon and dt must be finite and positive"),
    "scan_dt_inf": ("scan", (1.0, np.inf), "horizon and dt must be finite and positive"),
    # spectrum_scan(nu_grid) at horizon 1, dt 0.01
    "nu_nan": ("nu", [np.nan, 10.0], "nu_grid must be non-empty, 1-D, finite and strictly"),
    "nu_inf": ("nu", [9.0, np.inf], "nu_grid must be"),
    "nu_descending": ("nu", [10.0, 9.0], "nu_grid must be"),
    "nu_repeated": ("nu", [9.0, 9.0, 10.0], "nu_grid must be"),
    "nu_shuffled": ("nu", [9.0, 11.0, 10.0], "nu_grid must be"),
    "nu_2d": ("nu", [[9.0, 10.0]], "nu_grid must be"),
    "nu_scalar": ("nu", 9.0, "nu_grid must be"),
    # analytic_second_moment on TimeGrid(h, nsteps) built directly
    "grid_h_-0.01": ("grid", (-0.01, 100), "h must be finite and positive"),
    "grid_h_0": ("grid", (0.0, 10), "h must be finite and positive"),
    "grid_h_nan": ("grid", (np.nan, 5), "h must be finite and positive"),
    "grid_nsteps_-1": ("grid", (0.1, -1), "nsteps must be an integer of at least 0"),
    "grid_nsteps_2.5": ("grid", (0.1, 2.5), "nsteps must be an integer"),
    "grid_nsteps_True": ("grid", (0.1, True), "nsteps must be an integer"),
    # rho0 of analytic_second_moment (constant and time-dependent generator),
    # master_series and spectrum_scan: (target, rho0)
    **{f"rho0_{bad}_{target}": ("rho0", (target, rho0), f"rho0: {problem}")
       for bad, (rho0, problem) in BAD_RHO0.items()
       for target in ("moment", "marched", "series", "scan")},
}


@pytest.mark.parametrize("case", list(BAD_ANALYTIC_INPUTS))
def test_analytic_route_inputs_fail_loudly(case, mollow_setup, monkeypatch):
    """dt = -0.01 gave the one-step answer, dt = 0 a ZeroDivisionError and a
    NaN time a conversion error: each is a ValueError that names the input,
    before any propagator is built.  A bad pair is named, also behind a good one and in
    a moment report, where channel 2 was an IndexError of the Monte Carlo side.
    A NaN frequency gave S = nan and a descending grid was scanned as given; a
    TimeGrid built directly with h = -0.01 marched backwards into a
    PositivityError and h = 0 divided by zero.  A NaN rho0 gave S = nan, a
    3 x 3 one a matmul or broadcast error, master_series renormalized a
    trace-2 rho0, and a non-positive one raised PositivityError only after
    the whole march."""
    route, args, problem = BAD_ANALYTIC_INPUTS[case]
    coeffs, gen = mollow_setup
    if route == "report":
        ens = run_linear_ensemble(coeffs, E0, dt=0.01, nsteps=20, ntraj=4, base_seed=1,
                                  record_times=[0.1, 0.2])

    def no_propagators(*args):
        raise AssertionError("a propagator was built before every input was checked")

    for module, name in ((statistics, "_constant_steps"), (statistics, "_rk4_march"),
                         (master, "_rk4_march")):
        monkeypatch.setattr(module, name, no_propagators)
    with pytest.raises(ValueError, match=problem):
        if route == "moment":
            *pair, dt = args
            analytic_second_moment(gen, RHO_E, TimeGrid.covering(1.0, dt),
                                   [(0, 0, 0.5, 0.5), tuple(pair)])
        elif route == "report":
            mc_output_moments(ens, gen, RHO_E, pairs=((0, 0, 0.1, 0.1), args))
        elif route == "nu":
            spectrum_scan(mollow_at(10.0), args, 1.0, 0.01)
        elif route == "grid":
            analytic_second_moment(gen, RHO_E, TimeGrid(*args), [(0, 0, 0.0, 0.0)])
        elif route == "rho0":
            target, rho0 = args
            if target == "series":
                master_series(gen, rho0, 0.01 * np.arange(101))
            elif target == "scan":
                spectrum_scan(mollow_at(10.0), [9.0, 10.0], 1.0, 0.01, rho0=rho0)
            else:
                if target == "marched":
                    gen = LindbladPropagator(build_coefficients(simple_model(
                        channels=(SIGMA_MINUS,), amplitudes=[0.4], carrier=1.5)))
                    assert not gen.time_independent
                analytic_second_moment(gen, rho0, TimeGrid.covering(1.0, 0.01),
                                       [(0, 0, 0.5, 0.5)])
        else:
            spectrum_scan(mollow_at(10.0), [9.0, 10.0], *args)


def test_spectrum_rejects_constant_unitary_detection():
    model = simple_model(detection=DetectionSpec(kind="constant-unitary", matrix=np.eye(1)))
    with pytest.raises(ValueError, match="diagonal-phase"):
        spectrum_scan(model, np.array([1.0]), horizon=1.0, dt=0.01, rho0=RHO_E)


def test_spectrum_ignores_model_detection_frequency():
    """The scan sets the detection frequency itself: the model's own nu
    changes nothing, bit for bit."""
    nus = np.linspace(7.0, 13.0, 7)
    ref = spectrum_scan(mollow_at(10.0), nus, horizon=3.0, dt=0.01)
    for nu in (0.0, -2.5, 123.0):
        scan = spectrum_scan(mollow_at(nu), nus, horizon=3.0, dt=0.01)
        assert np.array_equal(scan.values, ref.values)


def test_spectrum_matches_per_frequency_route(mollow_setup):
    coeffs, gen = mollow_setup
    horizon, dt = 5.0, 0.02
    nus = np.array([8.0, 9.5, 10.0, 11.0])
    st = stationary_state(gen)
    scan = spectrum_scan(mollow_at(10.0), nus, horizon=horizon, dt=dt)
    for k, nu in enumerate(nus):
        c_nu = build_coefficients(mollow_at(nu))
        direct = reference_second_moment(c_nu, gen, st.rho, 0, 0, horizon, horizon, dt) / horizon
        assert abs(scan.values[k] - direct) <= 1e-9


@pytest.mark.parametrize("horizon, rho0", [
    (13.0, None),      # 650 steps from the stationary state
    (10.24, RHO_E),    # 512 steps from the excited state
])
def test_spectrum_blocks_and_start_state_match_per_frequency_route(mollow_setup, horizon, rho0):
    coeffs, gen = mollow_setup
    dt = 0.02
    start = stationary_state(gen).rho if rho0 is None else rho0
    nus = np.array([5.0, 9.5, 10.0, 14.0])
    scan = spectrum_scan(mollow_at(10.0), nus, horizon=horizon, dt=dt, rho0=rho0)
    for k, nu in enumerate(nus):
        c_nu = build_coefficients(mollow_at(nu))
        direct = reference_second_moment(c_nu, gen, start, 0, 0, horizon, horizon, dt) / horizon
        assert abs(scan.values[k] - direct) <= 1e-9


def test_spectrum_undriven_decay_lorentzian():
    """Atom prepared excited, no drive: a single emission line at the atomic
    frequency with half-width set by the decay rate."""
    omega, gamma = 3.0, 1.0
    model = simple_model(hamiltonian=omega * EXCITED_PROJECTOR,
                         channels=(np.sqrt(gamma) * SIGMA_MINUS,))
    nus = np.linspace(omega - 4.0, omega + 4.0, 81)
    scan = spectrum_scan(model, nus, horizon=30.0, dt=5e-3, rho0=RHO_E)
    peak_idx = int(np.argmax(scan.values))
    assert abs(nus[peak_idx] - omega) <= 0.1 + 1e-12
    peak = scan.values[peak_idx] - 1.0
    half_lo = np.interp(omega - gamma / 2, nus, scan.values) - 1.0
    half_hi = np.interp(omega + gamma / 2, nus, scan.values) - 1.0
    for half in (half_lo, half_hi):
        assert 0.3 * peak <= half <= 0.7 * peak


def test_spectrum_invariant_under_coupling_phase_rotation():
    """Globally rotating the channel-coupling phases is a gauge change and
    leaves S(nu) untouched."""
    nus = np.linspace(7.0, 13.0, 13)
    cfg = canonical_config()
    rotated = build_mollow_model(MollowConfig(
        omega=cfg.omega, omega0=cfg.omega0, nu=cfg.nu,
        alphas=np.exp(0.61j) * cfg.alphas, lambdas=cfg.lambdas))
    a = spectrum_scan(build_mollow_model(cfg), nus, horizon=20.0, dt=5e-3)
    b = spectrum_scan(rotated, nus, horizon=20.0, dt=5e-3)
    assert max_abs(a.values - b.values) <= 1e-8
