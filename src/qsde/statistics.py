"""Measurement-output statistics: analytic moments, Monte Carlo estimators,
Wiener-law diagnostics and the heterodyne spectrum scan.

Analytic side.  The first moment of the output of channel k is

    E[W_k(t)] = int_0^t Tr{ rho_s (R_k(s) + R_k^*(s)) } ds

along the master-equation solution, and the second moments are

    E[W_i(t1) W_j(t2)] = min(t1, t2)
      + int_0^{t1} ds1 int_0^{min(t2, s1)} ds2
            Tr{ (R_i(s1)+R_i^*(s1)) U(s1,s2)[ R_j(s2) rho_{s2} + rho_{s2} R_j^*(s2) ] }
      + (the same with (i, t1) and (j, t2) exchanged),

with U the two-time master propagator.  The double integrals are iterated
trapezoid sums over the triangular domains.

Monte Carlo side.  Physical-law expectations are reference-measure averages
weighted by ||psi||^2 at the latest time entering each functional (linear
unraveling), or plain averages over normalized trajectories (nonlinear
unraveling).  Error bars are leave-one-trajectory-out jackknife.

Spectrum.  S(nu) = E[W_0(T)^2] / T with the system started in the
stationary state, scanned over the local-oscillator frequency nu; a
variance-rate variant subtracting E[W_0(T)]^2/T is available (it removes
the coherent-scattering line at the carrier).  With diagonal-phase
detection the measured operator is R^{(nu)}(s) = p(s) B(s), p(s) = e^{i nu s},
B the operator at nu = 0, so the states, the B table and the propagators
are shared by all nu.

Correlation kernel.  Second moments and the spectrum run one recurrence,
``_folded_sweep``.  With E_n the one-step propagator from t_n to t_{n+1} on
the grid t_n = n h, the inner trapezoid sum obeys

    acc_{n+1} = E_n (acc_n + (h/2) m_n) + (h/2) m_{n+1}   (E_n acc_n from n_cap on),
    m_n = p_n vec(B_n rho_n) + conj(p_n) vec(rho_n B_n^*),

which is the trapezoid sum exactly, at O(n) cost; n_cap = t_inner / h ends
the inner integral at min(t_inner, s1).  ``_step_propagators`` builds the
stack of E_n^T once per grid: a broadcast of one exponential for a constant
generator, the midpoint exponentials otherwise.  The spectrum takes
B = R_channel at every nu; each ordered second-moment term takes nu = 0, R_j in m_n and
R_i in the outer sum.

Every rho_n is exactly Hermitian (master_series symmetrizes each state) and
each E_n maps X^* to (E_n X)^*, as every Lindblad-form generator does, so
m_n is vec-Hermitian and acc_n = c_n + P conj(c_n), with P the vec-transpose
permutation and c_n driven by p_n vec(B_n rho_n) alone.  The outer operator
R_i + R_i^* is Hermitian for any i, so its pairing with acc_n is twice the
real part of its pairing with c_n: the summand folds to
2 Re(conj(p_n) c_n.q1_n + p_n c_n.q2_n), q1 = conj vec(R_i),
q2 = conj vec(R_i^*), for i != j as for i = j.  The fold carries one d^2
vector per nu and changes the sum by rounding only.  Times are swept in
fixed blocks, so the working memory is O(block x len(nu_grid) x d^2) on top
of the O(nsteps x d^2) streams (and the O(nsteps x d^4) propagator stack of
a time-dependent generator), whatever the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import norm as _norm

from .linalg import matrix_exp, vectorize
from .master import (
    DegenerateStationaryState,
    LindbladPropagator,
    master_series,
    stationary_state,
)
from .model import Coefficients, DetectionSpec, SystemModel, build_coefficients
from .trajectories import LinearEnsemble

__all__ = [
    "analytic_mean_series",
    "analytic_mean_output",
    "analytic_second_moment",
    "mc_mean_output",
    "mc_second_moment",
    "mc_output_moments",
    "MomentReport",
    "SecondMomentRow",
    "wiener_law_tests",
    "WienerLawReport",
    "WienerLawRow",
    "spectrum_scan",
    "SpectrumScan",
    "jackknife_stderr",
]


# ---------------------------------------------------------------------------
# Analytic moments
# ---------------------------------------------------------------------------

def _uniform_grid(t: float, dt: float) -> np.ndarray:
    nsteps = max(1, int(round(t / dt)))
    return (t / nsteps) * np.arange(nsteps + 1)


def analytic_mean_series(coeffs: Coefficients, gen: LindbladPropagator, rho0: np.ndarray,
                         t: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative E[W_k(s)] for all channels on the grid covering [0, t].

    Trapezoid quadrature of Tr{rho_s (R_k + R_k^*)} along the RK4 solution,
    on the same grid.  Returns (times, means) with means[n, k].
    """
    times = _uniform_grid(t, dt)
    rho = master_series(gen, rho0, times)
    integrand = 2.0 * np.einsum("njkl,nlk->nj", coeffs.r_table(times), rho).real
    h = times[1] - times[0] if len(times) > 1 else 0.0
    means = np.zeros_like(integrand)
    if len(times) > 1:
        avg = 0.5 * (integrand[1:] + integrand[:-1])
        means[1:] = h * np.cumsum(avg, axis=0)
    return times, means


def analytic_mean_output(coeffs: Coefficients, gen: LindbladPropagator, rho0: np.ndarray,
                         k: int, t: float, dt: float) -> float:
    """E[W_k(t)] under the physical law."""
    if t == 0:
        return 0.0
    _, means = analytic_mean_series(coeffs, gen, rho0, t, dt)
    return float(means[-1, k])


def _step_propagators(gen: LindbladPropagator, times: np.ndarray) -> np.ndarray:
    """Stack of transposed one-step propagators E_n^T on a uniform grid.

    A constant generator gives a read-only broadcast of one exponential (no
    copy); otherwise E_n is the exponential at the step midpoint.
    """
    h = times[1] - times[0]
    nsteps = len(times) - 1
    if gen.time_independent:
        e_t = np.ascontiguousarray(matrix_exp(gen.generator_at(0.0), h).T)
        return np.broadcast_to(e_t, (nsteps,) + e_t.shape)
    return np.stack([matrix_exp(gen.generator_at((n + 0.5) * h), h).T
                     for n in range(nsteps)])


def _kernel_streams(r: np.ndarray, rho: np.ndarray):
    """vec(R rho), conj vec(R) and conj vec(R^*) = vec(R^T) for R tables on a grid."""
    return vectorize(r @ rho), vectorize(r).conj(), vectorize(r.swapaxes(-1, -2))


def analytic_second_moment(coeffs: Coefficients, gen: LindbladPropagator, rho0: np.ndarray,
                           i: int, j: int, t1: float, t2: float, dt: float) -> float:
    """E[W_i(t1) W_j(t2)] under the physical law.

    Shot-noise term delta_{ij} min(t1, t2) plus both ordered double
    integrals, each one run of the correlation kernel at nu = 0; with all
    channel operators zero this reduces exactly to delta_{ij} min(t1, t2).
    The Kronecker delta on the shot-noise term follows from the
    independence of the shifted noises: distinct channels carry no common
    white-noise component.
    """
    if t1 < 0 or t2 < 0:
        raise ValueError("times must be nonnegative")
    t_max = max(t1, t2)
    if t_max == 0:
        return 0.0
    times = _uniform_grid(t_max, dt)
    h = times[1] - times[0]
    rho = master_series(gen, rho0, times)
    mu, q1, q2 = _kernel_streams(coeffs.r_table(times), rho[:, None])
    e_ts = _step_propagators(gen, times)
    total = min(t1, t2) if i == j else 0.0
    for a, b, t_outer, t_inner in ((i, j, t1, t2), (j, i, t2, t1)):
        n_out, n_cap = int(round(t_outer / h)), int(round(t_inner / h))
        if n_out > 0 and n_cap > 0:
            out = slice(n_out + 1)
            term, _ = _folded_sweep(np.zeros(1), times[out], mu[out, b], q1[out, a],
                                    q2[out, a], e_ts[:n_out], n_cap)
            total += term[0]
    return float(total)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def jackknife_stderr(contributions: np.ndarray) -> float:
    """Leave-one-out jackknife standard error of a mean over trajectories."""
    a = np.asarray(contributions, dtype=float)
    n = len(a)
    if n < 2:
        return 0.0
    theta = a.mean()
    loo = (n * theta - a) / (n - 1)
    return float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def _weights_at(ensemble, idx: int) -> np.ndarray:
    if isinstance(ensemble, LinearEnsemble):
        return ensemble.weight[:, idx]
    return np.ones(ensemble.ntraj)


def _time_index(ensemble, t: float) -> int:
    idx = np.where(np.isclose(ensemble.times, t, rtol=0.0, atol=1e-9))[0]
    if len(idx) == 0:
        raise ValueError(f"time {t} is not a checkpoint of the ensemble grid")
    return int(idx[0])


def mc_mean_output(ensemble, k: int, t: float) -> tuple[float, float]:
    """Weighted estimate of E[W_k(t)] with jackknife standard error."""
    idx = _time_index(ensemble, t)
    contrib = _weights_at(ensemble, idx) * ensemble.w_path[:, idx, k]
    return float(contrib.mean()), jackknife_stderr(contrib)


def mc_second_moment(ensemble, i: int, j: int, t1: float, t2: float) -> tuple[float, float]:
    """Weighted estimate of E[W_i(t1) W_j(t2)] with jackknife standard error.

    The weight is taken at max(t1, t2), the earliest time at which the
    product is measurable.
    """
    i1 = _time_index(ensemble, t1)
    i2 = _time_index(ensemble, t2)
    iw = i1 if t1 >= t2 else i2
    contrib = (_weights_at(ensemble, iw)
               * ensemble.w_path[:, i1, i] * ensemble.w_path[:, i2, j])
    return float(contrib.mean()), jackknife_stderr(contrib)


@dataclass(frozen=True)
class SecondMomentRow:
    i: int
    j: int
    t1: float
    t2: float
    analytic: float
    mc: float
    stderr: float


@dataclass(frozen=True)
class MomentReport:
    """First and second output moments: analytic values vs MC estimates."""

    times: np.ndarray
    analytic_mean: np.ndarray   # (ntimes, J)
    mc_mean: np.ndarray         # (ntimes, J)
    mc_mean_stderr: np.ndarray  # (ntimes, J)
    second: tuple[SecondMomentRow, ...] = field(default=())
    ntraj: int = 0


def mc_output_moments(ensemble, coeffs: Coefficients, gen: LindbladPropagator,
                      rho0: np.ndarray, dt: float,
                      pairs: tuple[tuple[int, int, float, float], ...] = ()) -> MomentReport:
    """Build a full moment report for the ensemble checkpoints.

    ``pairs`` lists (i, j, t1, t2) second-moment requests; checkpoint grids
    of the ensemble must contain the requested times.
    """
    times = ensemble.times
    nchan = ensemble.w_path.shape[2]
    horizon = float(times[-1])
    _, mean_series = analytic_mean_series(coeffs, gen, rho0, horizon, dt) if horizon > 0 else (
        times, np.zeros((len(times), nchan)))
    if horizon > 0:
        grid = _uniform_grid(horizon, dt)
        analytic = np.empty((len(times), nchan))
        for m, t in enumerate(times):
            analytic[m] = mean_series[int(round(t / (grid[1] - grid[0])))]
    else:
        analytic = np.zeros((len(times), nchan))
    mc = np.empty((len(times), nchan))
    se = np.empty((len(times), nchan))
    for m in range(len(times)):
        w = _weights_at(ensemble, m)
        for k in range(nchan):
            contrib = w * ensemble.w_path[:, m, k]
            mc[m, k] = contrib.mean()
            se[m, k] = jackknife_stderr(contrib)
    rows = []
    for (i, j, t1, t2) in pairs:
        value, stderr = mc_second_moment(ensemble, i, j, t1, t2)
        ana = analytic_second_moment(coeffs, gen, rho0, i, j, t1, t2, dt)
        rows.append(SecondMomentRow(i=i, j=j, t1=t1, t2=t2, analytic=ana,
                                    mc=value, stderr=stderr))
    return MomentReport(times=times, analytic_mean=analytic, mc_mean=mc,
                        mc_mean_stderr=se, second=tuple(rows), ntraj=ensemble.ntraj)


# ---------------------------------------------------------------------------
# Wiener-law diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WienerLawRow:
    name: str
    statistic: float
    expected: float
    stderr: float
    passed: bool


@dataclass(frozen=True)
class WienerLawReport:
    confidence: float
    reweighted: bool
    rows: tuple[WienerLawRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def row(self, name: str) -> WienerLawRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def wiener_law_tests(ensemble, confidence: float = 0.99, reweight: bool = True) -> WienerLawReport:
    """Moment tests of the shifted noises under the physical law.

    Checkpoint increments of the innovation path, scaled to unit variance,
    are tested for mean 0, variance 1, vanishing cross-channel covariance
    and vanishing lag-1 autocovariance.  Linear ensembles are reweighted by
    the final-time weight (valid for all earlier functionals by the
    martingale property); ``reweight=False`` is the negative control.
    """
    times = ensemble.times
    if len(times) < 3:
        raise ValueError("need at least two checkpoint increments")
    dts = np.diff(times)
    z = np.diff(ensemble.innovation, axis=1) / np.sqrt(dts)[None, :, None]
    ntraj, nint, nchan = z.shape
    if reweight and isinstance(ensemble, LinearEnsemble):
        w = ensemble.weight[:, -1]
    else:
        w = np.ones(ntraj)
    zcrit = float(_norm.ppf(0.5 * (1.0 + confidence)))

    def run(name: str, per_traj: np.ndarray, expected: float) -> WienerLawRow:
        contrib = w * per_traj
        stat = float(contrib.mean())
        se = jackknife_stderr(contrib)
        passed = abs(stat - expected) <= zcrit * se
        return WienerLawRow(name=name, statistic=stat, expected=expected,
                            stderr=se, passed=passed)

    rows = []
    for k in range(nchan):
        rows.append(run(f"mean[{k}]", z[:, :, k].mean(axis=1), 0.0))
        rows.append(run(f"variance[{k}]", (z[:, :, k] ** 2).mean(axis=1), 1.0))
        if nint >= 2:
            rows.append(run(f"lag1[{k}]",
                            (z[:, :-1, k] * z[:, 1:, k]).mean(axis=1), 0.0))
    for a in range(nchan):
        for b in range(a + 1, nchan):
            rows.append(run(f"cross[{a},{b}]",
                            (z[:, :, a] * z[:, :, b]).mean(axis=1), 0.0))
    return WienerLawReport(confidence=confidence, reweighted=reweight, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Spectrum scan
# ---------------------------------------------------------------------------

# Time steps per block of the spectrum sweep.  A block holds the carried
# accumulator, its forcing terms and its phases for every nu, so the sweep's
# working memory is O(_SPECTRUM_BLOCK x len(nu_grid) x d^2) at any horizon.
_SPECTRUM_BLOCK = 256


@dataclass(frozen=True)
class SpectrumScan:
    """S(nu) on a local-oscillator frequency grid."""

    nu: np.ndarray
    values: np.ndarray
    horizon: float
    dt: float
    channel: int
    subtract_mean: bool


def spectrum_scan(model: SystemModel, nu_grid, horizon: float, dt: float,
                  channel: int = 0, rho0: np.ndarray | None = None,
                  subtract_mean: bool = False) -> SpectrumScan:
    """Scan S(nu) = E[W_channel(T)^2] / T over the detection frequency grid.

    ``model`` must use diagonal-phase detection; its ``detection.nu`` is
    ignored, the scan taking the frequencies from ``nu_grid``.  The initial
    state defaults to the stationary state of the (detection independent)
    generator; a non-unique stationary manifold is an error unless ``rho0``
    is supplied.  The sweep is the correlation kernel of the module
    docstring, in blocks of _SPECTRUM_BLOCK time steps, so no array spans
    both the nu grid and the whole time grid.  Each value equals, to
    rounding, the iterated trapezoid evaluation of the printed second-moment
    formula at t1 = t2 = horizon.
    """
    nu_grid = np.asarray(nu_grid, dtype=float)
    if len(nu_grid) == 0:
        raise ValueError("empty frequency grid")
    if horizon <= 0 or dt <= 0:
        raise ValueError("horizon and dt must be positive")
    if model.detection.kind != "diagonal-phase":
        raise ValueError("spectrum scan requires diagonal-phase detection")
    base = build_coefficients(replace(model, detection=DetectionSpec(nu=0.0)))
    gen = LindbladPropagator(base)
    if not gen.time_independent:
        raise ValueError("spectrum scan requires a time-independent generator")
    if rho0 is None:
        st = stationary_state(gen)
        if st.degenerate:
            raise DegenerateStationaryState(
                f"stationary manifold has dimension {st.nullity}; supply rho0")
        rho0 = st.rho
    times = _uniform_grid(horizon, dt)
    rho = master_series(gen, rho0, times)

    # nu-independent streams: with diagonal-phase detection the measured
    # channel operator is R^{(nu)}(s) = e^{i nu s} B(s).
    mu1, q1, q2 = _kernel_streams(base.r_table(times)[:, channel], rho)
    total, mean_acc = _folded_sweep(nu_grid, times, mu1, q1, q2,
                                    _step_propagators(gen, times), len(times) - 1)

    second = horizon + 2.0 * total
    values = second / horizon
    if subtract_mean:
        mean = 2.0 * mean_acc.real
        values = (second - mean ** 2) / horizon
    return SpectrumScan(nu=nu_grid, values=values, horizon=horizon, dt=times[1] - times[0],
                        channel=channel, subtract_mean=subtract_mean)


def _folded_sweep(nu_grid, times, mu1, q1, q2, e_ts, n_cap):
    """The correlation kernel of the module docstring, block by block.

    Returns the double-integral sum and the first-moment sum
    sum_n w_n p_n Tr(B_n rho_n), one entry per nu.  The carried c_n are row
    vectors (rows: nu), so E_n acts as e_ts[n] = E_n^T.  A block's phases,
    forcing terms and reductions are whole-array operations; only the
    matrix step is taken once per time.
    """
    nsteps = len(times) - 1
    h = times[1] - times[0]
    d = math.isqrt(mu1.shape[1])
    block = min(_SPECTRUM_BLOCK, nsteps)
    w = np.full(nsteps + 1, h)
    w[[0, -1]] = 0.5 * h
    half_mu = (0.5 * h) * mu1
    # Forcing of step n: [p_n, p_{n+1}] @ [(h/2) mu1_n E_n^T; (h/2) mu1_{n+1}].
    kicks = np.stack([np.matmul(half_mu[:-1, None], e_ts)[:, 0], half_mu[1:]], axis=1)
    kicks[n_cap:] = 0.0   # the inner integral ends at t_{n_cap}
    q12 = np.stack([q1, q2], axis=-1)
    tr_b_rho = mu1[:, ::d + 1].sum(axis=1)   # the diagonal of B rho, column-stacked
    block_phase = np.exp(1j * np.outer(h * np.arange(block + 1), nu_grid))
    c = np.zeros((block + 1, len(nu_grid), mu1.shape[1]), dtype=complex)
    rows = list(c)   # row views made once: indexing c anew costs a third of each step
    total = np.zeros(len(nu_grid))
    mean_acc = np.zeros(len(nu_grid), dtype=complex)
    for n0 in range(0, nsteps + 1, block):
        m = min(block, nsteps + 1 - n0)        # times n0 .. n0 + m - 1 are reduced here
        k_end = min(m, nsteps - n0)            # steps taken: c[k_end] is c_{n0 + k_end}
        ph = np.exp(1j * nu_grid * times[n0]) * block_phase[:k_end + 1]
        force = np.stack([ph[:k_end], ph[1:]], axis=-1) @ kicks[n0:n0 + k_end]
        for k, f in enumerate(force):
            np.matmul(rows[k], e_ts[n0 + k], out=rows[k + 1])
            rows[k + 1] += f
        sl = slice(n0, n0 + m)
        ph = ph[:m]
        dots = c[:m] @ q12[sl]
        total += 2.0 * (w[sl] @ (ph.conj() * dots[..., 0] + ph * dots[..., 1]).real)
        mean_acc += (w[sl] * tr_b_rho[sl]) @ ph
        c[0] = c[k_end]
    return total, mean_acc
