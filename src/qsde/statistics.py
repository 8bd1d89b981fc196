"""Measurement-output statistics: analytic moments, Monte Carlo estimators,
Wiener-law diagnostics and the heterodyne spectrum scan, plus ``judge``, the
one rule that decides every comparison check of a result bundle.

Analytic side.  The first moment of the output of channel k is

    E[W_k(t)] = int_0^t Tr{ rho_s (R_k(s) + R_k^*(s)) } ds

along the master-equation solution, and the second moments are

    E[W_i(t1) W_j(t2)] = min(t1, t2)
      + int_0^{t1} ds1 int_0^{min(t2, s1)} ds2
            Tr{ (R_i(s1)+R_i^*(s1)) U(s1,s2)[ R_j(s2) rho_{s2} + rho_{s2} R_j^*(s2) ] }
      + (the same with (i, t1) and (j, t2) exchanged),

with U the two-time master propagator.  The first moment is the trapezoid
sum along ``master_series`` (``analytic_mean_series``, every grid time at
once; E[W_k(t)] at one t is the last row on the grid covering [0, t]).  The
double integrals are iterated trapezoid sums over the triangular domains.

Monte Carlo side.  Physical-law expectations are means over an ensemble
weighted by its ``weight`` at the latest time entering each functional:
||psi||^2 for the linear unraveling (reference-measure averages), exactly 1
for the normalized one, so every estimator takes either ensemble.  Error
bars are the standard error of the mean over trajectories,
std(ddof=1) / sqrt(N) (``standard_error``).

Spectrum.  S(nu) = E[W_0(T)^2] / T of the measured channel 0, with the
system started in the stationary state, scanned over the local-oscillator
frequency nu.  With diagonal-phase detection the measured operator is
R^{(nu)}(s) = p(s) B(s), p(s) = e^{i nu s}, B the operator at nu = 0, so
the states and the propagators are shared by all nu.

Correlation kernel.  With E_n the one-step propagator from t_n to t_{n+1}
on the grid t_n = n h, the inner trapezoid sum of an ordered term obeys

    acc_{n+1} = E_n (acc_n + (h/2) m_n) + (h/2) m_{n+1}   (E_n acc_n from n_cap on),
    m_n = p_n vec(B_n rho_n) + conj(p_n) vec(rho_n B_n^*),

which is the trapezoid sum exactly; n_cap = t_inner / h ends the inner
integral at min(t_inner, s1).  The spectrum takes B = R_0 at every nu;
each ordered second-moment term takes nu = 0, R_j in m_n and R_i in the
outer sum.

Every rho_n is Hermitian and each E_n maps X^* to (E_n X)^*, as every
Lindblad-form generator does, so m_n is vec-Hermitian and
acc_n = c_n + T conj(c_n), with T the vec-transpose permutation and c_n
driven by p_n vec(B_n rho_n) alone.  The outer operator R_i + R_i^* is
Hermitian for any i, so its pairing with acc_n is twice the real part of
its pairing with c_n, for i != j as for i = j.  The fold changes the sum by
rounding only.

Closed form (constant generator).  The grid, h, E = e^{hG} (which also
steps master_series: rho_n = E^n rho0) and the trapezoid weights are those
of the recurrence; only the way the sum is taken differs.  Each channel
operator is a finite sum of phase components, R(t_n) = sum_g phi_g^n C_g
with phi_g = e^{i gap_g h} (``Coefficients.r_components``; diagonal-phase
detection adds nu to every gap).  The outer operator contributes
a = conj vec(D) with psi = e^{-i gap h} and a = conj vec(D^*) with
psi = e^{+i gap h} per component D.  For one (nu, outer, inner) triple, put
x_n = psi^n c_n and z_n = (psi phi)^n E^n vec(rho0); then, with M = I kron C
(vec(C rho) = M vec(rho)),

    x_{n+1} = psi E x_n + (h/2) psi (E M + phi M E) z_n,   z_{n+1} = psi phi E z_n,

and sigma_{n+1} = sigma_n + h a.x_n gathers the outer sum.  The z-chain
never leaves an E-invariant subspace that holds vec(rho0): with its basis
B (E B = B F) and vec(rho0) = B z_0, z_n = (psi phi)^n B F^n z_0, so it is
carried in the coordinates of B.  These three lines are the matrix

    A = [[1, h a^T, 0], [0, psi E, (h/2) psi (E M B + phi M B F)], [0, 0, psi phi F]],

and the trapezoid sum is sigma_N + (h/2) a.x_N (x_0 = 0), read from
A_0^{n_out - k} A^k [0; 0; z_0], k = min(n_cap, n_out), where A_0 is A
with its coupling block zeroed (no forcing after n_cap).  A general start
takes B = I, F = E, z_0 = vec(rho0): A is (1 + 2 d^2)-square.  The
spectrum's default start, its own stationary solve, takes B = vec(rho_ss),
F = [1], z_0 = [1], using E vec(rho_ss) = vec(rho_ss), which holds to the
stationary residual: A is (2 + d^2)-square, and U and t below are one
column per item.  Every power keeps the block form

    A^n = [[1, s_n, t_n], [0, psi^n E^n, U_n], [0, 0, (psi phi)^n F^n]],

and the product of two of them, A^a A^b, is

    s = s_b + psi^b s_a E^b,   t = t_b + s_a U_b + (psi phi)^b t_a F^b,
    U = psi^a E^a U_b + (psi phi)^b U_a F^b.

So the squares A^(2^j) are taken by repeated squaring on a stack of
(nu, outer, inner) items that share E^n and F^n; psi^n and (psi phi)^n are
scalars and s_n, t_n, U_n are stored per item, items last (``_Block``).
Each squaring is one matrix product over the stack for each of E U, U F,
s E and t F plus elementwise passes, O(log N) of them instead of N steps,
and A^k is never formed: the state [0; 0; z_0] of every item is carried
through, each square whose bit is set in k applied to it, then likewise
through A_0^(n_out - k), and the sum is read off the end state.  In double
precision this route and the dense (1 + 2 d^2)- or (2 + d^2)-square powers
err from the exact sum of their inputs by rounding that grows like N u
(u = 2^-53; up to 1.6e-12 relative at N = 40 000 on the test models, mostly
through psi^n) and agree to 1.0e-13 of max S on the canonical Mollow scan;
tests/test_statistics.py keeps the dense routes as the reference.  The
stationary start moves S from the general start's value by that rounding
only: 1.6e-13 of max S at N = 10 000 and 6.7e-13 at N = 40 000 on the
canonical Mollow scan, where each route errs by 1.5-1.6e-13 / 5.7-5.9e-13
from a long-double dense sum of its own inputs.
A time-dependent generator has no such form: ``analytic_second_moment``
then takes the recurrence step by step (nu = 0) inside the one
master-equation march (``master`` module docstring): each block of Magnus
steps E_n, built once, steps the states, then one (d^2, 2P) matrix whose
columns are the c_n of the 2P ordered terms, with the m_n of the block's
own states, each pairing added to a running trapezoid sum: no array grows
with the number of steps.  The spectrum requires constant G.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .linalg import adjoint, devectorize, matrix_exp, spre, vectorize
from .master import (
    DegenerateStationaryState,
    LindbladPropagator,
    StationaryResult,
    _checked_rho0,
    _cleanup,
    _rk4_march,
    master_series,
    stationary_state,
)
from .model import DetectionSpec, SystemModel, TimeGrid, _check_integers, build_coefficients

__all__ = [
    "Check",
    "judge",
    "analytic_mean_series",
    "analytic_second_moment",
    "mc_mean_output",
    "mc_second_moment",
    "mc_output_moments",
    "MomentReport",
    "SecondMomentRow",
    "wiener_law_tests",
    "WienerLawRow",
    "spectrum_scan",
    "SpectrumScan",
    "standard_error",
]

WIENER_LAW_CONFIDENCE = 0.99


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """One verdict of a result bundle; ``detail`` says what was compared."""

    name: str
    passed: bool
    detail: str


def judge(name: str, estimate, expected, stderr=0.0, z: float = 3.0, slack: float = 0.0, *,
          detail: str) -> tuple[Check, np.ndarray]:
    """|estimate - expected| <= z stderr + slack, entry by entry (the arguments
    broadcast; a NaN entry fails), as the check, passed when every entry is,
    and the per-entry verdicts.  The check's detail is ``detail`` and then the
    worst excess of an entry over its bound (0 when all pass).  A
    deterministic bound is ``stderr`` 0 with the bound as ``slack``.
    """
    dev = np.abs(np.asarray(estimate, dtype=float) - expected)
    bound = z * np.asarray(stderr, dtype=float) + slack
    ok = dev <= bound
    worst = float(np.max(dev - bound, initial=0.0))
    return Check(name, bool(ok.all()), f"{detail}, worst excess {worst:.2e}"), ok


# ---------------------------------------------------------------------------
# Analytic moments
# ---------------------------------------------------------------------------

def analytic_mean_series(gen: LindbladPropagator, rho0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Cumulative E[W_k(t_n)] for all channels of ``gen.coeffs`` on ``grid``, as means[n, k].

    Trapezoid quadrature of Tr{rho_s (R_k + R_k^*)} along the master_series
    states on the same grid (exact steps e^{hG} for a constant G, else
    fourth-order Magnus steps).
    """
    times = grid.times
    rho = master_series(gen, rho0, times)
    integrand = 2.0 * np.einsum("njkl,nlk->nj", gen.coeffs.r_table(times), rho).real
    means = np.zeros_like(integrand)
    means[1:] = grid.h * np.cumsum(0.5 * (integrand[1:] + integrand[:-1]), axis=0)
    return means


def _constant_steps(gen: LindbladPropagator, rho0: np.ndarray, h: float, nsteps: int):
    """E = e^{hG} and vec(rho0) for a constant generator G.

    The states rho_n = E^n rho0 are those master_series would record; like
    it, this checks the positivity of the final state E^nsteps rho0.
    """
    e = matrix_exp(gen.generator_at(0.0), h)
    v0 = vectorize(_cleanup(np.asarray(rho0, dtype=complex), check_positivity=False))
    _cleanup(devectorize(np.linalg.matrix_power(e, nsteps) @ v0, gen.dim),
             check_positivity=True)
    return e, v0


class _Block(NamedTuple):
    """A^n = [[1, s, t], [0, alpha E, U], [0, 0, beta F]] for a stack of N items.

    E (d^2-square) and F (k-square, F = E or [1]) are the powers shared by
    every item; the rest is stored items last, alpha and beta (N,), s (d^2, N),
    t (k, N), u (d^2, k, N) with u[l, m, i] = U_i[l, m], so that elementwise
    passes and the s U reduction run over a contiguous item axis and E U,
    U F, s E and t F are one matrix product each.  ``_apply`` multiplies a
    state (sigma (N,), x (d^2, N), z (k, N)).
    """

    alpha: np.ndarray
    beta: np.ndarray
    e: np.ndarray
    f: np.ndarray
    s: np.ndarray
    t: np.ndarray
    u: np.ndarray


def _combine(x: _Block, y: _Block) -> _Block:
    """The block product x y."""
    et, ft = y.e.T, y.f.T
    # In place, and s U by einsum: a fresh (d^2, k, N) temporary costs more than its arithmetic.
    u = (x.e @ y.u.reshape(len(et), -1)).reshape(y.u.shape)
    u *= x.alpha
    uf = ft @ x.u
    uf *= y.beta
    u += uf
    return _Block(alpha=x.alpha * y.alpha, beta=x.beta * y.beta, e=x.e @ y.e, f=x.f @ y.f,
                  s=y.s + y.alpha * (et @ x.s),
                  t=y.t + np.einsum("ki,kmi->mi", x.s, y.u) + y.beta * (ft @ x.t), u=u)


def _apply(b: _Block, state):
    """The block times the per-item state (sigma, x, z)."""
    sigma, x, z = state
    return (sigma + (b.s * x).sum(0) + (b.t * z).sum(0),
            b.alpha * (b.e @ x) + np.einsum("kmi,mi->ki", b.u, z), b.beta * (b.f @ z))


def _apply_power(step: _Block, n: int, state):
    """step^n times the state, by binary powering: the squares of ``step``
    are applied to the state at the set bits of n, and A^n is never formed."""
    while n:
        if n & 1:
            state = _apply(step, state)
        n >>= 1
        if n:
            step = _combine(step, step)
    return state


def _closed_form_term(e, v0, h, outer, inner, nu, n_out, n_cap, stationary=False):
    """One ordered double-integral sum for a constant generator, per nu.

    ``outer`` and ``inner`` are the (gaps, ops) phase components of the
    outer and inner channel operators at nu = 0 (``Coefficients.r_components``);
    every gap is shifted by each entry of ``nu``.  The z-chain runs in the
    E-invariant subspace B of vec rho0 = ``v0``: B = [v0] with F = [1] when
    ``stationary`` (E v0 = v0), else B = I with F = E.  See the module docstring.
    """
    d2 = len(v0)
    out_gaps, out_ops = outer
    in_gaps, in_ops = inner
    if len(out_gaps) == 0 or len(in_gaps) == 0:
        return np.zeros(len(nu))
    nu = nu[:, None]
    # R + R^* splits into conj vec(D) at -(gap + nu) and conj vec(D^*) at +(gap + nu).
    a = np.concatenate([vectorize(out_ops).conj(), vectorize(out_ops.swapaxes(-1, -2))])
    psi = np.exp(1j * h * np.concatenate([-(out_gaps + nu), out_gaps + nu], axis=1))
    phi = np.exp(1j * h * (in_gaps + nu))
    psi, phi = psi[:, :, None], phi[:, None, :]   # items (nu, outer, inner)
    shape = np.broadcast_shapes(psi.shape, phi.shape)
    m = spre(in_ops)   # vec(C rho) = (I kron C) vec(rho)
    # M B, F and the start z0 (B z0 = v0): B = [v0], F = [1] on the stationary start, else B = I.
    mb, f, z0 = (m @ v0[:, None], np.ones((1, 1)), np.ones(1)) if stationary else (m, e, v0)
    u = (0.5 * h) * psi[..., None, None] * (e @ mb + phi[..., None, None] * (mb @ f))
    s = np.moveaxis(np.broadcast_to(h * a[:, None], shape + (d2,)), -1, 0).reshape(d2, -1)
    step = _Block(alpha=np.broadcast_to(psi, shape).ravel(), beta=(psi * phi).ravel(),
                  e=e, f=f, s=s, t=np.zeros((len(f), s.shape[1]), dtype=complex),
                  u=np.moveaxis(u, (-2, -1), (0, 1)).reshape(d2, len(f), -1))
    z = np.broadcast_to(z0[:, None], step.t.shape)   # [sigma; x; z] = [0; 0; z0] per item
    state = _apply_power(step, min(n_cap, n_out), (np.zeros_like(s[0]), np.zeros_like(s), z))
    # The inner integral ends at t_{n_cap}: A_0 (A with U zeroed) for the rest.
    sigma, x, _ = _apply_power(step._replace(u=np.zeros_like(step.u)), max(n_out - n_cap, 0), state)
    # Trapezoid end weights: sigma = h sum_{n<N} a.x_n, plus (h/2) a.x_N (x_0 = 0).
    return 2.0 * (sigma + 0.5 * (s * x).sum(0)).real.reshape(shape[0], -1).sum(axis=1)


# Named for the benchmark's statistics.analytic_second_moment.* metrics, which are keyed on it.
def analytic_second_moment(gen: LindbladPropagator, rho0: np.ndarray, grid: TimeGrid,
                           pairs) -> list[float]:
    """E[W_i(t1) W_j(t2)] under the physical law for each (i, j, t1, t2) of
    ``pairs``, all on ``grid``.

    Shot-noise term delta_{ij} min(t1, t2) plus both ordered double
    integrals: in closed form for a constant generator, else step by step
    in the master-equation march (module docstring).  With all channel operators zero this
    reduces exactly to delta_{ij} min(t1, t2).  The Kronecker delta on the
    shot-noise term follows from the independence of the shifted noises:
    distinct channels carry no common white-noise component.

    ValueError naming the first bad pair, before any work, unless i and j are
    channels of ``gen.coeffs`` and t1, t2 finite, non-negative times of
    ``grid``, and naming rho0 unless it is a d x d state.  Everything is
    built once for all pairs, up to the latest pair time (one step at
    least), where the state's positivity is checked.
    """
    coeffs = gen.coeffs
    rho0 = _checked_rho0(rho0, gen.dim)
    indices = []
    for pair in pairs:
        try:
            i, j, t1, t2 = pair
            _check_integers(0, coeffs.nchannels - 1, i=i, j=j)
            if not (0 <= t1 < np.inf and 0 <= t2 < np.inf):
                raise ValueError(f"times must be finite and non-negative, got {t1!r}, {t2!r}")
            indices.append(grid.index([t1, t2]).tolist())
        except ValueError as exc:
            raise ValueError(f"pair {tuple(pair)!r}: {exc}") from None
    grid = TimeGrid(grid.h, int(np.max(indices, initial=1)))
    terms = [((i, j, n1, n2), (j, i, n2, n1)) for (i, j, _, _), (n1, n2) in zip(pairs, indices)]
    # Each distinct (outer, inner, n_out, n_cap) once: i = j with t1 = t2 gives one term twice.
    distinct = list(dict.fromkeys(term for both in terms for term in both))
    if gen.time_independent:
        e, v0 = _constant_steps(gen, rho0, grid.h, grid.nsteps)
        comps = [coeffs.r_components(c) for c in range(coeffs.nchannels)]
        sums = [_closed_form_term(e, v0, grid.h, comps[a], comps[b], np.zeros(1), n_out, n_cap)[0]
                if n_out and n_cap else 0.0 for a, b, n_out, n_cap in distinct]
    else:
        sums = _marched_terms(gen, rho0, grid, distinct)
    sums = dict(zip(distinct, sums))
    return [float((min(t1, t2) if i == j else 0.0) + sums[first] + sums[second])
            for (i, j, t1, t2), (first, second) in zip(pairs, terms)]


def _marched_terms(gen: LindbladPropagator, rho0: np.ndarray, grid: TimeGrid,
                   terms) -> np.ndarray:
    """The sums of the ordered terms (outer a, inner b, n_out, n_cap) of a
    time-dependent generator by the recurrence of the module docstring, each
    term's c_n a column of c, stepped by each block of the march."""
    d, h, nsteps = gen.dim, grid.h, grid.nsteps
    outer, inner, n_out, n_cap = np.array(terms, dtype=int).reshape(-1, 4).T
    v = vectorize(np.asarray(rho0, dtype=complex))
    c = np.zeros((d * d, len(terms)), dtype=complex)
    total = np.zeros(len(terms))   # sum_n w_n Re q_n . c_n per term, c_0 = 0
    for first, steps, states in _rk4_march(gen, v, 0.0, nsteps, h):
        n = np.arange(first, first + len(steps) + 1)
        rho = _cleanup(devectorize(np.concatenate([v[None], states]), d),
                       check_positivity=n[-1] == nsteps)
        v = states[-1]
        r = gen.coeffs.r_table(h * n)
        half_m = (0.5 * h) * vectorize(r[:, inner] @ rho[:, None]).swapaxes(1, 2)
        live = n[:-1, None, None] < n_cap   # the inner integral ends at t_{n_cap}
        pre, post = half_m[:-1] * live, half_m[1:] * live
        block = np.empty_like(pre)
        for k, step in enumerate(steps):
            c[:] = block[k] = step @ (c + pre[k]) + post[k]
        q = vectorize(r[1:] + adjoint(r[1:]))[:, outer].conj().swapaxes(1, 2)
        m = n[1:, None]
        w = h * ((m <= n_out) - 0.5 * (m == n_out))   # trapezoid weights to t_{n_out}
        for row in w * (q * block).sum(1).real:   # in step order: no sum depends on _STEP_BLOCK
            total += row
    return 2.0 * total


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def standard_error(samples) -> np.ndarray:
    """Standard error of the mean over axis 0 (the trajectories),
    std(ddof=1) / sqrt(n), one per entry of the other axes; NaN for n < 2,
    which no check passes."""
    a = np.asarray(samples, dtype=float)
    if len(a) < 2:
        return np.full(a.shape[1:], np.nan)
    return a.std(axis=0, ddof=1) / np.sqrt(len(a))


def _checkpoint(ensemble, t: float) -> int:
    """Position of time t among the ensemble's checkpoints."""
    grid = ensemble.grid
    # exact: the checkpoint times are entries of grid.times = h * arange
    pos = np.flatnonzero(ensemble.times == grid.h * grid.index(t))
    if len(pos) == 0:
        raise ValueError(f"time {t} is not a checkpoint of the ensemble")
    return int(pos[0])


def mc_mean_output(ensemble, k: int, t: float) -> tuple[float, float]:
    """Weighted estimate of E[W_k(t)] with its standard error."""
    idx = _checkpoint(ensemble, t)
    contrib = ensemble.weight[:, idx] * ensemble.w_path[:, idx, k]
    return float(contrib.mean()), float(standard_error(contrib))


def mc_second_moment(ensemble, i: int, j: int, t1: float, t2: float) -> tuple[float, float]:
    """Weighted estimate of E[W_i(t1) W_j(t2)] with its standard error.

    The weight is taken at max(t1, t2), the earliest time at which the
    product is measurable.
    """
    i1 = _checkpoint(ensemble, t1)
    i2 = _checkpoint(ensemble, t2)
    iw = i1 if t1 >= t2 else i2
    contrib = ensemble.weight[:, iw] * ensemble.w_path[:, i1, i] * ensemble.w_path[:, i2, j]
    return float(contrib.mean()), float(standard_error(contrib))


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


def mc_output_moments(ensemble, gen: LindbladPropagator, rho0: np.ndarray,
                      pairs: tuple[tuple[int, int, float, float], ...] = ()) -> MomentReport:
    """Build a full moment report for the ensemble checkpoints.

    The analytic side runs on the ensemble's own grid: the means up to its
    last checkpoint, the second moments up to the latest requested time.
    ``pairs`` lists (i, j, t1, t2) second-moment requests, checked first by
    ``analytic_second_moment``; the requested times must be checkpoints.
    """
    times, grid = ensemble.times, ensemble.grid
    exact = analytic_second_moment(gen, rho0, grid, pairs)
    idx = grid.index(times)
    analytic = analytic_mean_series(gen, rho0, TimeGrid(grid.h, idx[-1]))[idx]
    mc, se = np.moveaxis([[mc_mean_output(ensemble, k, t) for k in range(ensemble.w_path.shape[2])]
                          for t in times], -1, 0)
    estimates = [mc_second_moment(ensemble, i, j, t1, t2) for (i, j, t1, t2) in pairs]
    rows = [SecondMomentRow(i=i, j=j, t1=t1, t2=t2, analytic=ana, mc=value, stderr=stderr)
            for (i, j, t1, t2), ana, (value, stderr) in zip(pairs, exact, estimates)]
    return MomentReport(times=times, analytic_mean=analytic, mc_mean=mc,
                        mc_mean_stderr=se, second=tuple(rows))


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


def _two_sided_z(confidence: float) -> float:
    """Standard-normal quantile at (1 + confidence) / 2."""
    from statistics import NormalDist   # the stdlib module, which loads fractions and decimal

    return NormalDist().inv_cdf(0.5 * (1.0 + confidence))


def wiener_law_tests(ensemble, reweight: bool = True) -> tuple[Check, tuple[WienerLawRow, ...]]:
    """Moment tests of the shifted noises under the physical law.

    Checkpoint increments of the innovation path, scaled to unit variance,
    are tested for mean 0, variance 1, vanishing cross-channel covariance
    and vanishing lag-1 autocovariance.  They are reweighted by the
    final-time weight (valid for all earlier functionals by the martingale
    property; 1 for a normalized ensemble); ``reweight=False`` is the
    negative control.  One ``judge`` call judges each row on its own at the
    two-sided WIENER_LAW_CONFIDENCE quantile; its check is returned with the
    rows, as ``judge`` returns its check with the verdicts.
    """
    times = ensemble.times
    if len(times) < 3:
        raise ValueError("need at least two checkpoint increments")
    dts = np.diff(times)
    z = np.diff(ensemble.innovation, axis=1) / np.sqrt(dts)[None, :, None]
    ntraj, nint, nchan = z.shape
    w = ensemble.weight[:, -1] if reweight else np.ones(ntraj)

    tests = []   # (name, per-trajectory value, expected mean)
    for k in range(nchan):
        tests.append((f"mean[{k}]", z[:, :, k].mean(axis=1), 0.0))
        tests.append((f"variance[{k}]", (z[:, :, k] ** 2).mean(axis=1), 1.0))
        if nint >= 2:
            tests.append((f"lag1[{k}]", (z[:, :-1, k] * z[:, 1:, k]).mean(axis=1), 0.0))
    for a in range(nchan):
        for b in range(a + 1, nchan):
            tests.append((f"cross[{a},{b}]", (z[:, :, a] * z[:, :, b]).mean(axis=1), 0.0))
    names, values, expected = zip(*tests)
    stats = [float((w * v).mean()) for v in values]
    stderr = standard_error(np.transpose([w * v for v in values])).tolist()
    check, ok = judge("wiener-law", stats, expected, stderr, z=_two_sided_z(WIENER_LAW_CONFIDENCE),
                      detail=f"{len(tests)} tests at {WIENER_LAW_CONFIDENCE:.0%}")
    return check, tuple(WienerLawRow(*row, passed=bool(p))
                        for *row, p in zip(names, stats, expected, stderr, ok))


# ---------------------------------------------------------------------------
# Spectrum scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumScan:
    """S(nu) on a local-oscillator frequency grid."""

    nu: np.ndarray
    values: np.ndarray
    stationary: StationaryResult | None   # the solve behind the default rho0


def spectrum_scan(model: SystemModel, nu_grid, horizon: float, dt: float,
                  rho0: np.ndarray | None = None) -> SpectrumScan:
    """Scan S(nu) = E[W_0(T)^2] / T of the measured channel 0 over the
    detection frequency grid.

    ``model`` must use diagonal-phase detection; its ``detection.nu`` is
    ignored, the scan taking the frequencies from ``nu_grid``, which must be
    1-D, non-empty, finite and strictly increasing (ValueError).  The initial
    state defaults to the stationary state of the (detection independent)
    generator; a non-unique stationary manifold is an error unless ``rho0``
    is supplied, and a supplied ``rho0`` must be a d x d state (ValueError
    before any work).  That stationary solve is returned as ``stationary``, its
    residual left to the caller to judge.  Each value is the iterated
    trapezoid evaluation of the printed second-moment formula at
    t1 = t2 = horizon, summed in closed form (module docstring) at a cost
    independent of horizon / dt; from the default start the states' row of
    the kernel is the one column vec(rho_ss).
    """
    nu_grid = np.asarray(nu_grid, dtype=float)
    if not (nu_grid.ndim == 1 and len(nu_grid) and np.isfinite(nu_grid).all()
            and np.all(np.diff(nu_grid) > 0)):
        raise ValueError("nu_grid must be non-empty, 1-D, finite and strictly increasing")
    grid = TimeGrid.covering(horizon, dt)
    if rho0 is not None:
        rho0 = _checked_rho0(rho0, model.dim)
    if model.detection.kind != "diagonal-phase":
        raise ValueError("spectrum scan requires diagonal-phase detection")
    base = build_coefficients(replace(model, detection=DetectionSpec(nu=0.0)))
    gen = LindbladPropagator(base)
    if not gen.time_independent:
        raise ValueError("spectrum scan requires a time-independent generator")
    st = None
    if rho0 is None:
        st = stationary_state(gen)
        if st.degenerate:
            raise DegenerateStationaryState(
                f"stationary manifold has dimension {st.nullity}; supply rho0")
        rho0 = st.rho
    h, nsteps = grid.h, grid.nsteps
    e, v0 = _constant_steps(gen, rho0, h, nsteps)
    # With diagonal-phase detection R^{(nu)}(s) = e^{i nu s} B(s): the
    # components of B, each gap shifted by nu.
    comps = base.r_components(0)
    second = horizon + 2.0 * _closed_form_term(e, v0, h, comps, comps, nu_grid, nsteps, nsteps,
                                               stationary=st is not None)
    return SpectrumScan(nu=nu_grid, values=second / horizon, stationary=st)

