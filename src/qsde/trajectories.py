"""Seeded Wiener paths and trajectory integrators.

Two unravelings of the same open dynamics are implemented:

* the linear equation
      d psi = sum_j R_j(t) psi dW_j - i K(t) psi dt
  integrated under the reference (Wiener) measure; the squared norm
  ||psi_t||^2 is the importance weight that converts reference-measure
  averages into physical ones, and the shifted noises
      What_k(t) = W_k(t) - 2 int_0^t Re <R_k> ds
  are standard Wiener processes under the physical law (Girsanov);

* the nonlinear (normalized, a-posteriori) equation
      d psihat = -i Khat(t, psihat) dt + sum_k Rhat_k(t, psihat) dWhat_k
  driven directly by the innovation noises, with
      Rhat_k(t, f) = (R_k - <f|R_k f>/||f||^2) f
  and Khat containing the matching drift corrections.

Both use the Euler-Maruyama scheme (weak order 1) with left-point
evaluation of all time-dependent quantities, so the two routes agree up to
O(dt) and can be cross-checked path by path through the shared noise.

Kernel layout: a batch of B states is stored column-major as a (d, B)
array, and the noise of a chunk time-major as (nsteps, J, B).  Before
stepping, one batched call stacks the per-step operators

    ops[n] = [G_n; R_1(t_n); ...; R_J(t_n)],    shape ((J+1)d, d),

so that one product ``ops[n] @ psi`` yields G_n psi and every R_j psi.
For the linear equation G_n = -i dt K(t_n) and a step is
dpsi = G psi + sum_j dW_j R_j psi.  For the normalized one, write
m_j = <psi|R_j psi> (psi has unit norm) and

    Khat = (K+K^*)/2 - (i/2) sum_j (R_j^*R_j - 2 conj(m_j) R_j + |m_j|^2),

the drift of the normalized equation.  Splitting off the psi-independent
part G_n = -i dt [(K+K^*)/2 - (i/2) sum_j R_j^*R_j], the step
-i Khat psi dt + sum_j (R_j - m_j) psi dW_j is exactly

    dpsi = G psi + sum_j e_j R_j psi - s psi,
    e_j = dt conj(m_j) + dW_j,   s = sum_j m_j (dt/2 conj(m_j) + dW_j),

so a step costs one small matmul plus a few elementwise operations on
(J, B) arrays.  W at the record times is summed in the same loop.  The
freeze masks are applied only once some path has frozen.  Ensembles with
several workers fork a pool whose initializer hands each worker the step
table once; chunks then carry only their trajectory range.

Reproducibility: every trajectory owns a Philox counter-based stream keyed
by (seed, trajectory index), so ensembles are bit-reproducible regardless
of chunking or worker scheduling.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from .model import CoefficientTable, Coefficients, TimeGrid

__all__ = [
    "WienerPath",
    "TrajectoryRecord",
    "NormalizedRecord",
    "LinearEnsemble",
    "NonlinearEnsemble",
    "generate_wiener",
    "integrate_linear",
    "apply_girsanov_shift",
    "integrate_nonlinear",
    "normalize_posterior",
    "run_linear_ensemble",
    "run_nonlinear_ensemble",
    "worker_count",
]

WEIGHT_FLOOR = 1e-12

_UINT64 = np.uint64
_MASK64 = (1 << 64) - 1
# Counter offset for auxiliary draws (initial-state sampling): disjoint from
# the increment stream, which counts up from zero.
_AUX_COUNTER = 1 << 192


def _philox_stream(seed: int, stream: int, counter: int = 0) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=_UINT64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@dataclass(frozen=True)
class WienerPath:
    """Discretized multi-channel Brownian increments.

    ``increments[n, j] = W_j(t_{n+1}) - W_j(t_n)``, drawn iid Normal(0, dt).
    Bit-reproducible from (seed, stream, dt, nsteps, nchannels).
    """

    dt: float
    nsteps: int
    nchannels: int
    increments: np.ndarray
    seed: int
    stream: int = 0

    def cumulative(self) -> np.ndarray:
        """W_j(t_n) on the full grid, shape (nsteps + 1, nchannels)."""
        out = np.zeros((self.nsteps + 1, self.nchannels))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out


def generate_wiener(seed: int, dt: float, nsteps: int, nchannels: int, stream: int = 0) -> WienerPath:
    """Draw a Wiener path from the counter-based stream (seed, stream)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if nsteps < 1:
        raise ValueError("nsteps must be at least 1")
    if nchannels < 1:
        raise ValueError("nchannels must be at least 1")
    rng = _philox_stream(seed, stream)
    increments = rng.normal(0.0, np.sqrt(dt), size=(nsteps, nchannels))
    return WienerPath(dt=dt, nsteps=nsteps, nchannels=nchannels,
                      increments=increments, seed=seed, stream=stream)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Full record of one linear trajectory on the integration grid.

    ``weight`` is ||psi||^2, ``r_expect[n, k]`` is <psi|R_k psi>/||psi||^2,
    ``drift_integral`` is the left-point running integral of Re r_expect,
    and ``innovation_path`` (the Girsanov-shifted noise) is filled by
    :func:`apply_girsanov_shift`.
    """

    times: np.ndarray
    psi: np.ndarray
    weight: np.ndarray
    r_expect: np.ndarray
    w_path: np.ndarray
    drift_integral: np.ndarray
    seed: int
    stream: int = 0
    frozen_at: int | None = None
    innovation_path: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.psi.shape[1]

    @property
    def nchannels(self) -> int:
        return self.r_expect.shape[1]


@dataclass(frozen=True)
class NormalizedRecord:
    """Record of a unit-norm (a-posteriori) trajectory.

    ``innovation_path`` is the driving noise; ``w_path`` is the physical
    output reconstructed as innovation + 2 int Re r_expect ds.
    """

    times: np.ndarray
    psihat: np.ndarray
    r_expect: np.ndarray
    innovation_path: np.ndarray
    w_path: np.ndarray
    seed: int
    stream: int = 0
    frozen_at: int | None = None


def _as_table(coeffs: Coefficients | CoefficientTable, times: np.ndarray) -> CoefficientTable:
    if isinstance(coeffs, CoefficientTable):
        if len(coeffs.times) != len(times) or not np.allclose(coeffs.times, times):
            raise ValueError("coefficient table grid does not match the integration grid")
        return coeffs
    return coeffs.tabulate(times)


def _step_ops(table: CoefficientTable, dt: float, nonlinear: bool) -> np.ndarray:
    """Per-step operator stack ops[n] = [G_n; R_1(t_n); ...; R_J(t_n)].

    Shape (n, (J+1)d, d), so that ``ops[n] @ psi`` gives the drift term
    G_n psi and every R_j psi in one product.  G_n = -i dt K_n for the
    linear equation and -i dt [(K_n + K_n^*)/2 - (i/2) sum_j R_j^* R_j]
    for the normalized one.
    """
    k, r = table.k, table.r
    if nonlinear:
        rr = np.einsum("njlk,njlm->nkm", r.conj(), r)
        k = 0.5 * (k + k.conj().swapaxes(-1, -2)) - 0.5j * rr
    n, nchan, d, _ = r.shape
    return np.concatenate([(-1j * dt) * k, r.reshape(n, nchan * d, d)], axis=1)


def _sq_norm(psi: np.ndarray) -> np.ndarray:
    """||psi||^2 per column of a (d, B) batch."""
    return np.einsum("kb,kb->b", psi.conj(), psi).real


def _step_linear_batch(ops: np.ndarray, dt: float, psi0: np.ndarray, dw: np.ndarray,
                       record_idx: np.ndarray, weight_floor: float):
    """Euler-Maruyama for a batch of linear trajectories.

    ops: the linear step table of :func:`_step_ops`; psi0: (d, B) initial
    states; dw: (nsteps, J, B) increments.  Returns, at ``record_idx``, the
    states (nrec, d, B), weights (nrec, B), normalized expectations, drift
    integrals and noise W (each (nrec, J, B)), plus the per-path freeze
    step (-1 if never frozen).
    """
    nsteps, nchan, batch = dw.shape
    d = psi0.shape[0]
    psi = np.ascontiguousarray(psi0, dtype=complex)
    weight = _sq_norm(psi)
    floor = weight_floor * weight
    drift = np.zeros((nchan, batch))
    w = np.zeros((nchan, batch))
    frozen_step = np.full(batch, -1, dtype=np.int64)
    # None while no path is frozen: the masks below are needed only after
    # the first freeze (or when a floor is zero and weights may vanish).
    active = None if np.all(floor > 0) else np.ones(batch, dtype=bool)

    nrec = len(record_idx)
    rec_psi = np.empty((nrec, d, batch), dtype=complex)
    rec_weight = np.empty((nrec, batch))
    rec_rexp = np.empty((nrec, nchan, batch), dtype=complex)
    rec_drift = np.empty((nrec, nchan, batch))
    rec_w = np.empty((nrec, nchan, batch))
    rec_pos = {int(idx): pos for pos, idx in enumerate(record_idx)}

    for n in range(nsteps + 1):
        y = ops[n] @ psi
        rpsi = y[d:].reshape(nchan, d, batch)
        num = (psi.conj() * rpsi).sum(axis=1)
        if active is None:
            rexp = num / weight
        else:
            rexp = np.where(weight > 0, num / np.where(weight > 0, weight, 1.0), 0.0)
        pos = rec_pos.get(n)
        if pos is not None:
            rec_psi[pos] = psi
            rec_weight[pos] = weight
            rec_rexp[pos] = rexp
            rec_drift[pos] = drift
            rec_w[pos] = w
        if n == nsteps:
            break
        dw_n = dw[n]
        dpsi = y[:d] + (dw_n[:, None] * rpsi).sum(axis=0)
        w = w + dw_n
        if active is None:
            psi = psi + dpsi
            drift = drift + dt * rexp.real
            weight = _sq_norm(psi)
            newly_frozen = weight < floor
        else:
            psi = psi + np.where(active, dpsi, 0.0)
            drift = drift + np.where(active, dt * rexp.real, 0.0)
            weight = np.where(active, _sq_norm(psi), weight)
            newly_frozen = active & (weight < floor)
        if newly_frozen.any():
            frozen_step[newly_frozen] = n + 1
            active = ~newly_frozen if active is None else active & ~newly_frozen

    return rec_psi, rec_weight, rec_rexp, rec_drift, rec_w, frozen_step


def integrate_linear(coeffs: Coefficients | CoefficientTable, psi0: np.ndarray,
                     path: WienerPath, weight_floor: float = WEIGHT_FLOOR) -> TrajectoryRecord:
    """Integrate the linear trajectory equation along one noise path.

    The scheme is linear in psi0, so the flow is scale- and
    phase-equivariant; unit norm is only required for the probabilistic
    interpretation of the weight.
    """
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    times = TimeGrid(path.dt, path.nsteps).times
    table = _as_table(coeffs, times)
    if table.dim != psi0.size:
        raise ValueError("initial state dimension does not match the coefficients")
    if table.nchannels != path.nchannels:
        raise ValueError("noise channel count does not match the coefficients")
    psi, weight, rexp, drift, w, frozen = _step_linear_batch(
        _step_ops(table, path.dt, nonlinear=False), path.dt, psi0[:, None],
        path.increments[:, :, None], np.arange(path.nsteps + 1), weight_floor)
    frozen_at = None if frozen[0] < 0 else int(frozen[0])
    return TrajectoryRecord(
        times=times, psi=psi[..., 0], weight=weight[:, 0], r_expect=rexp[..., 0],
        w_path=w[..., 0], drift_integral=drift[..., 0],
        seed=path.seed, stream=path.stream, frozen_at=frozen_at)


def apply_girsanov_shift(record: TrajectoryRecord) -> TrajectoryRecord:
    """Fill the innovation path What = W - 2 int Re r_expect ds.

    Uses the stored left-point running integral, consistent with the Ito
    convention of the integrator.
    """
    innovation = record.w_path - 2.0 * record.drift_integral
    return replace(record, innovation_path=innovation)


def _step_nonlinear_batch(ops: np.ndarray, dt: float, psi0: np.ndarray, dw: np.ndarray,
                          record_idx: np.ndarray, weight_floor: float):
    """Euler-Maruyama for the normalized equation, renormalizing each step.

    Same layout as :func:`_step_linear_batch` with the nonlinear step table;
    returns states, expectations, drift integrals, W and freeze steps.
    """
    nsteps, nchan, batch = dw.shape
    d = psi0.shape[0]
    psi = np.ascontiguousarray(psi0, dtype=complex)
    psi = psi / np.sqrt(_sq_norm(psi))
    drift = np.zeros((nchan, batch))
    w = np.zeros((nchan, batch))
    frozen_step = np.full(batch, -1, dtype=np.int64)
    active = None if weight_floor > 0 else np.ones(batch, dtype=bool)  # as in the linear stepper
    half_dt = 0.5 * dt

    nrec = len(record_idx)
    rec_psi = np.empty((nrec, d, batch), dtype=complex)
    rec_rexp = np.empty((nrec, nchan, batch), dtype=complex)
    rec_drift = np.empty((nrec, nchan, batch))
    rec_w = np.empty((nrec, nchan, batch))
    rec_pos = {int(idx): pos for pos, idx in enumerate(record_idx)}

    for n in range(nsteps + 1):
        y = ops[n] @ psi
        rpsi = y[d:].reshape(nchan, d, batch)
        m = (psi.conj() * rpsi).sum(axis=1)
        pos = rec_pos.get(n)
        if pos is not None:
            rec_psi[pos] = psi
            rec_rexp[pos] = m
            rec_drift[pos] = drift
            rec_w[pos] = w
        if n == nsteps:
            break
        # dpsi = G psi + sum_j e_j R_j psi - s psi (module docstring)
        dw_n = dw[n]
        m_conj = m.conj()
        e = dt * m_conj + dw_n
        s = (m * (half_dt * m_conj + dw_n)).sum(axis=0)
        psi_new = psi + (y[:d] + (e[:, None] * rpsi).sum(axis=0) - s * psi)
        w = w + dw_n
        nn = _sq_norm(psi_new)
        newly_frozen = nn < weight_floor if active is None else active & (nn < weight_floor)
        if newly_frozen.any():
            frozen_step[newly_frozen] = n + 1
            active = ~newly_frozen if active is None else active & ~newly_frozen
        if active is None:
            psi = psi_new * (1.0 / np.sqrt(nn))
            drift = drift + dt * m.real
        else:
            scale = np.where(active & (nn > 0), 1.0 / np.sqrt(np.where(nn > 0, nn, 1.0)), 1.0)
            psi = np.where(active, psi_new * scale, psi)
            drift = drift + np.where(active, dt * m.real, 0.0)

    return rec_psi, rec_rexp, rec_drift, rec_w, frozen_step


def integrate_nonlinear(coeffs: Coefficients | CoefficientTable, psihat0: np.ndarray,
                        path: WienerPath, weight_floor: float = WEIGHT_FLOOR) -> NormalizedRecord:
    """Integrate the normalized trajectory equation driven by innovation noise.

    ``path`` is interpreted as the innovation process What (standard Wiener
    under the physical law).  The state is projected back to unit norm after
    every Euler step; the continuous-time flow preserves the norm exactly,
    the discretized one only to O(dt).
    """
    psihat0 = np.asarray(psihat0, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(psihat0)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("initial state must have unit norm")
    times = TimeGrid(path.dt, path.nsteps).times
    table = _as_table(coeffs, times)
    if table.dim != psihat0.size:
        raise ValueError("initial state dimension does not match the coefficients")
    if table.nchannels != path.nchannels:
        raise ValueError("noise channel count does not match the coefficients")
    psi, rexp, drift, innovation, frozen = _step_nonlinear_batch(
        _step_ops(table, path.dt, nonlinear=True), path.dt, psihat0[:, None],
        path.increments[:, :, None], np.arange(path.nsteps + 1), weight_floor)
    frozen_at = None if frozen[0] < 0 else int(frozen[0])
    return NormalizedRecord(
        times=times, psihat=psi[..., 0], r_expect=rexp[..., 0],
        innovation_path=innovation[..., 0], w_path=innovation[..., 0] + 2.0 * drift[..., 0],
        seed=path.seed, stream=path.stream, frozen_at=frozen_at)


def normalize_posterior(record: TrajectoryRecord) -> NormalizedRecord:
    """Normalize a linear record pointwise: psihat = psi / ||psi||.

    The stochastic phase that would make psihat satisfy the autonomous
    nonlinear equation is deliberately not applied; every exported
    functional (projector, weight, channel expectations) is phase
    invariant, so cross-checks against nonlinear trajectories compare
    |<psihat_lin | psihat_nl>| rather than raw vectors.
    """
    norms = np.sqrt(record.weight)
    if np.any(norms <= 0):
        raise ValueError("record contains a zero-norm state")
    rec = record if record.innovation_path is not None else apply_girsanov_shift(record)
    return NormalizedRecord(
        times=rec.times, psihat=rec.psi / norms[:, None], r_expect=rec.r_expect,
        innovation_path=rec.innovation_path,
        w_path=rec.w_path, seed=rec.seed, stream=rec.stream, frozen_at=rec.frozen_at)


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearEnsemble:
    """Linear trajectories sampled at checkpoint times.

    Arrays are indexed (trajectory, checkpoint, ...).  ``w_path`` holds the
    driving noise W, ``innovation`` the Girsanov-shifted What.  The
    checkpoints are points of the integration ``grid``.
    """

    times: np.ndarray
    psi: np.ndarray
    weight: np.ndarray
    r_expect: np.ndarray
    w_path: np.ndarray
    innovation: np.ndarray
    frozen_at: np.ndarray
    base_seed: int
    grid: TimeGrid

    @property
    def ntraj(self) -> int:
        return self.psi.shape[0]


@dataclass(frozen=True)
class NonlinearEnsemble:
    """Normalized trajectories sampled at checkpoint times (weights are 1)."""

    times: np.ndarray
    psihat: np.ndarray
    r_expect: np.ndarray
    w_path: np.ndarray
    innovation: np.ndarray
    frozen_at: np.ndarray
    base_seed: int
    grid: TimeGrid

    @property
    def ntraj(self) -> int:
        return self.psihat.shape[0]


def worker_count() -> int:
    """Worker processes for ensemble runs; QSDE_WORKERS overrides (default 1)."""
    raw = os.environ.get("QSDE_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"QSDE_WORKERS must be an integer, got {raw!r}")
    return max(1, n)


def _draw_initials(initial, ntraj: int, first: int, dim: int, base_seed: int) -> np.ndarray:
    """Per-trajectory initial states; mixtures sample from the aux stream."""
    if isinstance(initial, tuple):
        states, probs = initial
        states = np.asarray(states, dtype=complex)
        probs = np.asarray(probs, dtype=float)
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        out = np.empty((ntraj, dim), dtype=complex)
        for b in range(ntraj):
            rng = _philox_stream(base_seed, first + b, counter=_AUX_COUNTER)
            pick = int(np.searchsorted(cdf, rng.uniform()))
            out[b] = states[min(pick, len(states) - 1)]
        return out
    vec = np.asarray(initial, dtype=complex).reshape(-1)
    return np.broadcast_to(vec, (ntraj, dim)).copy()


def _chunk_noise(base_seed: int, first: int, ntraj: int, dt: float,
                 nsteps: int, nchannels: int) -> np.ndarray:
    """Increments of trajectories first..first+ntraj-1, time-major (nsteps, J, B)."""
    dw = np.empty((nsteps, nchannels, ntraj))
    sigma = np.sqrt(dt)
    for b in range(ntraj):
        rng = _philox_stream(base_seed, first + b)
        dw[:, :, b] = rng.normal(0.0, sigma, size=(nsteps, nchannels))
    return dw


@dataclass(frozen=True)
class _Job:
    """What every chunk of one ensemble shares."""

    stepper: Callable  # _step_linear_batch or _step_nonlinear_batch
    ops: np.ndarray
    grid: TimeGrid
    initial: object
    base_seed: int
    record_idx: np.ndarray
    weight_floor: float


def _run_chunk(job: _Job, first: int, ntraj: int) -> list[np.ndarray]:
    """Step trajectories first..first+ntraj-1; arrays come back batch-first.

    They are made C-contiguous here, so that downstream reductions see the
    same memory layout whether a chunk ran in this process or in a worker.
    """
    _, rows, dim = job.ops.shape
    h, nsteps = job.grid.h, job.grid.nsteps
    dw = _chunk_noise(job.base_seed, first, ntraj, h, nsteps, rows // dim - 1)
    psi0 = _draw_initials(job.initial, ntraj, first, dim, job.base_seed).T
    out = job.stepper(job.ops, h, psi0, dw, job.record_idx, job.weight_floor)
    return [np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in out]


_worker_job: _Job | None = None


def _adopt_job(job: _Job):
    """Pool initializer: each worker receives the job, step table included, once."""
    global _worker_job
    _worker_job = job


def _pool_chunk(first: int, ntraj: int) -> list[np.ndarray]:
    return _run_chunk(_worker_job, first, ntraj)


def _run_chunks(job: _Job, ntraj: int, chunk_size: int) -> list[np.ndarray]:
    """Run all chunks and join their arrays along the trajectory axis."""
    spans = [(first, min(chunk_size, ntraj - first)) for first in range(0, ntraj, chunk_size)]
    nworkers = min(worker_count(), len(spans))
    if nworkers > 1:
        with get_context("fork").Pool(processes=nworkers, initializer=_adopt_job,
                                      initargs=(job,)) as pool:
            results = pool.starmap(_pool_chunk, spans)
    else:
        results = [_run_chunk(job, *span) for span in spans]
    return [np.concatenate(parts) for parts in zip(*results)]


def run_linear_ensemble(coeffs: Coefficients | CoefficientTable, initial, dt: float,
                        nsteps: int, ntraj: int, base_seed: int,
                        record_times=None, weight_floor: float = WEIGHT_FLOOR,
                        chunk_size: int = 1024) -> LinearEnsemble:
    """Integrate ``ntraj`` linear trajectories with per-trajectory streams.

    ``initial`` is a state vector shared by all trajectories, or a tuple
    (states, probabilities) sampled per trajectory (mixed initial state).
    ``record_times`` must be points of the grid n dt, n = 0..nsteps.
    Results are independent of chunk scheduling and worker count; chunking
    only groups trajectories for vectorized stepping.
    """
    grid = TimeGrid(dt, nsteps)
    record_idx = grid.checkpoints(record_times)
    job = _Job(_step_linear_batch, _step_ops(_as_table(coeffs, grid.times), dt, nonlinear=False),
               grid, initial, base_seed, record_idx, weight_floor)
    psi, weight, rexp, drift, w, frozen = _run_chunks(job, ntraj, chunk_size)
    return LinearEnsemble(times=grid.times[record_idx], psi=psi, weight=weight,
                          r_expect=rexp, w_path=w, innovation=w - 2.0 * drift,
                          frozen_at=frozen, base_seed=base_seed, grid=grid)


def run_nonlinear_ensemble(coeffs: Coefficients | CoefficientTable, initial, dt: float,
                           nsteps: int, ntraj: int, base_seed: int,
                           record_times=None, weight_floor: float = WEIGHT_FLOOR,
                           chunk_size: int = 1024) -> NonlinearEnsemble:
    """Integrate ``ntraj`` normalized trajectories driven by innovation noise."""
    grid = TimeGrid(dt, nsteps)
    record_idx = grid.checkpoints(record_times)
    job = _Job(_step_nonlinear_batch, _step_ops(_as_table(coeffs, grid.times), dt, nonlinear=True),
               grid, initial, base_seed, record_idx, weight_floor)
    psi, rexp, drift, what, frozen = _run_chunks(job, ntraj, chunk_size)
    return NonlinearEnsemble(times=grid.times[record_idx], psihat=psi, r_expect=rexp,
                             w_path=what + 2.0 * drift, innovation=what,
                             frozen_at=frozen, base_seed=base_seed, grid=grid)
