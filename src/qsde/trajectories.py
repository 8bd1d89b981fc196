"""Seeded Wiener paths and trajectory integrators.

Two unravelings of the same open dynamics are implemented:

* the linear equation
      d psi = sum_j R_j(t) psi dW_j - i K(t) psi dt
  integrated under the reference (Wiener) measure; the squared norm
  ||psi_t||^2 is the importance weight that converts reference-measure
  averages into physical ones, and the shifted noises
      What_k(t) = W_k(t) - 2 int_0^t Re <R_k> ds
  are standard Wiener processes under the physical law (Girsanov);

* the nonlinear (normalized, a-posteriori) equation, whose solution is
  the linear one's divided by its norm, psihat_t = psi_t / ||psi_t||,
  driven by the innovation noises What, so that the output is
      W_k(t) = What_k(t) + 2 int_0^t Re <psihat|R_k psihat> ds.

Both are stepped by one map, with left-point evaluation of all
time-dependent quantities,

    M_n = I - i dt K(t_n) + sum_j dY_j R_j(t_n).

The linear equation takes dY = dW (Euler-Maruyama).  The normalized one
takes the output increments dY_j = dWhat_j + 2 dt Re <psihat_n|R_j psihat_n>
and sets psihat_{n+1} = M_n psihat_n / ||M_n psihat_n||, the filter form of
Rouchon & Ralph (2015), Phys. Rev. A 91:012118.  Both schemes are weak
order 1, and a normalized path driven by a linear path's innovation is
that path's psi / ||psi||, up to rounding.

The two describe one physical law, tied by the Girsanov weight ||psi||^2,
so an ensemble of either is states plus importance weights: one
:class:`Ensemble`, whose weights are exactly 1 for the normalized equation.
A single path is an ensemble of one, recorded at every grid time, with
both W and What: :func:`integrate_linear` and :func:`integrate_nonlinear`
differ from the ensemble runs only in taking a given :class:`WienerPath`.

Kernel layout: trajectories are the lanes of a (G, 2d, C) real stack, G
chunks of C states each, every chunk column-major as a (2d, C) array whose
rows are [Re psi; Im psi].  On these rows a complex d x d operator A acts
as the real block [[Re A, -Im A], [Im A, Re A]], and the per-step operators
are stacked as the blocks of

    [-i dt K(t_n); R_1(t_n); ...; R_J(t_n)],    shape ((J+1)2d, 2d),

so that one real product ``ops[n] @ psi`` yields -i dt K psi and every
R_j psi, split into real and imaginary rows.  Re <psi|R_j psi>, the
update sum_j dY_j R_j psi and ||psi||^2 are each one real contraction over
the 2d rows: the step does no complex arithmetic, and nothing computes
the imaginary part of <psi|R_j psi>, which no step reads.  numpy makes the
product one (2d, C) matrix product per chunk, so a chunk's results do not
depend on how many chunks share its stack.  A step M_n psi then costs
that product plus a few operations on (G, J, C) arrays, for every lane of
the stack at once.  The checkpoint records of psi are complex d-vectors
again.  One stack class and one step table serve both equations.  They
share the product, the forms Re <psi|R_j psi>, the drift integral
int_0^t Re <R_j> ds, the sum W, the checkpoint records of psi, ||psi||^2,
the drift integral and W, and the freeze bookkeeping, and differ only in
dY, in the renormalization after each normalized step and in the state a
freezing path keeps.  The freeze masks are applied only once some path
has frozen.

Lockstep engine: each process steps one contiguous span of whole chunks.
Its full chunks are stacked up to _LOCKSTEP_LANES lanes at a time, and a
ragged last chunk is a stack of its own (G = 1).  Time runs in blocks of
_BLOCK_STEPS grid points: per block the process tabulates the coefficients
on the block's times once, by ``Coefficients.tabulate``, the engine's one
source of K and R (each row equals the full-grid table's bit for bit, so
the tables always lie on the run grid), and every stack in turn draws the
block's increments, shape (L, G, J, C), and steps through it.  Each lane
draws from its own stream block after block, which gives the numbers of one
whole-path draw.  So a process holds its lanes' states, checkpoint
records and streams, plus one block of step table and of one stack's
noise: nothing grows with the horizon.  With several workers, the calling
process steps the first span and a forked pool one span per further
worker.

Reproducibility: every trajectory owns a Philox counter-based stream keyed
by (seed, trajectory index), so for a given chunk size ensembles are
bit-reproducible regardless of stacking, worker count or scheduling.  One
function draws every increment, so ``generate_wiener(seed, dt, n, J,
stream=b)`` is trajectory b's noise in an ensemble with ``base_seed=seed``,
by construction.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import Coefficients, TimeGrid, _check_integers

__all__ = [
    "WienerPath",
    "Ensemble",
    "generate_wiener",
    "integrate_linear",
    "integrate_nonlinear",
    "run_linear_ensemble",
    "run_nonlinear_ensemble",
    "worker_count",
]

# A path freezes once its squared norm falls below this fraction of its initial one.
WEIGHT_FLOOR = 1e-12

# Lockstep layout (module docstring): whole chunks are stacked up to this many
# lanes, and noise and step table are made this many grid times at a time.  A
# stack's block of noise, drawn through a buffer of the same size, then takes
# at most 2 x max(1024, chunk_size) x 128 x J doubles (4 MB for two channels
# and chunks of up to 1024 lanes), at any horizon.
_LOCKSTEP_LANES = 1024
_BLOCK_STEPS = 128

# The Philox key is two 64-bit words, (seed, stream); wider values are rejected, not wrapped.
_KEY_MAX = (1 << 64) - 1


def _philox_stream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([int(seed), int(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_counts(dt: float, **counts):
    """ValueError unless every count is an integer of at least 1 and ``dt``
    is finite and positive."""
    _check_integers(1, np.inf, **counts)
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")


@dataclass(frozen=True)
class WienerPath:
    """Discretized multi-channel Brownian increments.

    ``increments[n, j] = W_j(t_{n+1}) - W_j(t_n)``, drawn iid Normal(0, dt)
    by :func:`generate_wiener`, bit-reproducible from its arguments.  A
    path, drawn or built by hand, is checked on construction: ValueError
    unless the counts and ``dt`` are valid and ``increments`` is a finite
    (nsteps, nchannels) array.  The path keeps a read-only copy of the
    increments, so the checked values are the ones stepped.
    """

    dt: float
    nsteps: int
    nchannels: int
    increments: np.ndarray

    def __post_init__(self):
        _check_counts(self.dt, nsteps=self.nsteps, nchannels=self.nchannels)
        increments = np.array(self.increments, dtype=float)
        if increments.shape != (self.nsteps, self.nchannels):
            raise ValueError(f"increments must have shape ({self.nsteps}, {self.nchannels}), "
                             f"got {increments.shape}")
        if not np.isfinite(increments).all():
            raise ValueError("increments must be finite")
        increments.flags.writeable = False
        object.__setattr__(self, "increments", increments)


def generate_wiener(seed: int, dt: float, nsteps: int, nchannels: int, stream: int = 0) -> WienerPath:
    """Draw a Wiener path from the counter-based stream (seed, stream), as a
    one-lane stack of the ensemble's noise source."""
    _check_counts(dt, nsteps=nsteps, nchannels=nchannels)
    _check_integers(0, _KEY_MAX, seed=seed, stream=stream)
    increments = _lane_noise(seed, stream, 1, 1, nchannels, dt)(slice(0, nsteps))[:, 0, :, 0]
    return WienerPath(dt=dt, nsteps=nsteps, nchannels=nchannels, increments=increments)


@dataclass(frozen=True)
class Ensemble:
    """Trajectories of either unraveling sampled at checkpoint times.

    Arrays are indexed (trajectory, checkpoint, ...).  ``psi`` holds the
    linear equation's states, which carry their weight ||psi||^2, or the
    normalized equation's unit states, whose ``weight`` is exactly 1.
    ``w_path`` holds the output W, ``innovation`` the shifted noise What,
    and ``frozen_at`` each trajectory's freeze step (-1 if never frozen).
    The checkpoints are points of the integration ``grid``.  A single path
    (:func:`integrate_linear`, :func:`integrate_nonlinear`) is an ensemble
    of one, recorded at every grid time.
    """

    times: np.ndarray
    psi: np.ndarray
    weight: np.ndarray
    w_path: np.ndarray
    innovation: np.ndarray
    frozen_at: np.ndarray
    grid: TimeGrid

    @property
    def ntraj(self) -> int:
        return self.psi.shape[0]

    @property
    def psihat(self) -> np.ndarray:
        """The a-posteriori states psi / ||psi|| (``psi`` itself, bit for bit,
        for a normalized ensemble); ValueError on a zero-norm state.

        A linear path's psihat equals, to rounding and with the same phase,
        the state of the normalized path driven by its ``innovation``.
        """
        if np.any(self.weight <= 0):
            raise ValueError("a zero-norm state has no a-posteriori state")
        return self.psi / np.sqrt(self.weight)[..., None]


def _step_ops(k: np.ndarray, r: np.ndarray, dt: float) -> np.ndarray:
    """Per-step real block table of [-i dt K_n; R_1(t_n); ...; R_J(t_n)]
    from the K table (n, d, d) and R table (n, J, d, d) of
    ``Coefficients.tabulate``.

    Shape (n, (J+1)2d, 2d): each operator A is the block
    [[Re A, -Im A], [Im A, Re A]], so that ``ops[n] @ psi`` on a real stack
    [Re psi; Im psi] gives the drift term -i dt K_n psi and every R_j psi,
    each as its rows [Re; Im], in one product.
    """
    n, nchan, d, _ = r.shape
    a = np.concatenate([(-1j * dt) * k[:, None], r], axis=1)
    return np.block([[a.real, -a.imag], [a.imag, a.real]]).reshape(n, (nchan + 1) * 2 * d, 2 * d)


def _blocks(coeffs: Coefficients, grid: TimeGrid):
    """Yield (ops, steps) for each block of _BLOCK_STEPS grid times.

    ``ops`` is the step table on the block's times, tabulated for that block
    alone (its rows equal those of a full-grid table bit for bit), and
    ``steps`` the slice of step indices whose increments the block uses.
    The last block has one table row more than steps: the final time is
    evaluated, not stepped.
    """
    for start in range(0, grid.nsteps + 1, _BLOCK_STEPS):
        stop = min(start + _BLOCK_STEPS, grid.nsteps + 1)
        yield (_step_ops(*coeffs.tabulate(grid.h * np.arange(start, stop)), grid.h),
               slice(start, min(stop, grid.nsteps)))


def _sq_norm(psi: np.ndarray) -> np.ndarray:
    """||psi||^2 per lane of a real (G, 2d, C) stack [Re psi; Im psi], shape (G, 1, C)."""
    return np.einsum("gkc,gkc->gc", psi, psi)[:, None]


def _lanes_first(rec: np.ndarray) -> np.ndarray:
    """Records (nrec, G, [X,] C) as a C-contiguous lane-first (G*C, nrec[, X]) array."""
    out = np.ascontiguousarray(np.moveaxis(rec, (1, -1), (0, 1)))
    return out.reshape(-1, *out.shape[2:])


class _Stack:
    """State of a stack of complex (G, d, C) initial states under the step map
    M_n (module docstring), held as the real (G, 2d, C) stack [Re psi; Im psi]
    and stepped one block at a time.

    ``nonlinear`` selects the normalized equation, whose states are
    renormalized after every step; otherwise the stack steps the linear one.
    ``advance(ops, dw)`` runs one block: ``ops`` holds the block's rows of
    the real block table (:func:`_step_ops`), ``dw`` the increments of its
    steps, shape (L, G, J, C).  The final block has one row of ``ops`` more
    than increments; its last row evaluates the final time.  ``result()``
    returns the records at ``record_idx`` lane-first: the complex states
    (G*C, nrec, d), the weights ||psi||^2 (G*C, nrec; 1 for the normalized
    equation), the drift integrals int_0^t Re <R_j> ds and the noise W (each
    (G*C, nrec, J)), then the per-lane freeze step (-1 if never frozen).

    A path freezes at the first step whose squared norm (a normalized
    path's ||M_n psihat||^2) falls below WEIGHT_FLOOR times its initial
    one.  A linear path keeps that first
    state below the floor; a normalized path keeps its last state above it.
    """

    def __init__(self, psi0: np.ndarray, nchan: int, dt: float, record_idx: np.ndarray,
                 nonlinear: bool):
        groups, d, lanes = psi0.shape
        self.dt, self.nonlinear, self.n = dt, nonlinear, 0
        self.psi = np.concatenate([psi0.real, psi0.imag], axis=1)
        self.weight = _sq_norm(self.psi)
        if nonlinear:
            self.psi = self.psi / np.sqrt(self.weight)
            self.weight = np.ones_like(self.weight)
        self.floor = WEIGHT_FLOOR * self.weight
        # None while no path is frozen: the masks are needed only after the
        # first freeze (or when a floor is zero and norms may vanish).
        self.active = None if np.all(self.floor > 0) else np.ones(self.weight.shape, dtype=bool)
        self.drift = np.zeros((groups, nchan, lanes))
        self.w = np.zeros((groups, nchan, lanes))
        self.frozen_step = np.full((groups, 1, lanes), -1, dtype=np.int64)
        self.rec_pos = {int(idx): pos for pos, idx in enumerate(record_idx)}
        # records of [Re psi; Im psi], ||psi||^2, the drift integral and W
        self.records = [np.empty((len(record_idx), groups, *inner, lanes))
                        for inner in ((2 * d,), (), (nchan,), (nchan,))]

    def advance(self, ops: np.ndarray, dw: np.ndarray):
        groups, rows, lanes = self.psi.shape
        nchan, dt, floor, nonlinear = self.drift.shape[1], self.dt, self.floor, self.nonlinear
        psi, weight, drift, w, active, n = (self.psi, self.weight, self.drift, self.w,
                                            self.active, self.n)
        for i, op in enumerate(ops):
            y = (op @ psi).reshape(groups, nchan + 1, rows, lanes)
            rpsi = y[:, 1:]
            rexp = np.einsum("gkc,gjkc->gjc", psi, rpsi)    # Re <psi|R_j psi>
            if not nonlinear:                        # a normalized psi has unit norm
                rexp = rexp / weight if active is None else np.where(
                    weight > 0, rexp / np.where(weight > 0, weight, 1.0), 0.0)
            pos = self.rec_pos.get(n)
            if pos is not None:
                for rec, value in zip(self.records, (psi, weight[:, 0], drift, w)):
                    rec[pos] = value
            if i == len(dw):
                break
            dw_n = dw[i]
            d_drift = dt * rexp
            # the normalized equation steps on the output increments dWhat + 2 dt Re <R>
            dy = dw_n + 2.0 * d_drift if nonlinear else dw_n
            psi_new = psi + (y[:, 0] + np.einsum("gjc,gjkc->gkc", dy, rpsi))
            w = w + dw_n
            nn = _sq_norm(psi_new)
            newly_frozen = nn < floor if active is None else active & (nn < floor)
            n += 1
            # the lanes whose step is kept: a linear path keeps the step that
            # froze it, a normalized path drops it
            taken = active
            if newly_frozen.any():
                self.frozen_step[newly_frozen] = n
                active = ~newly_frozen if active is None else active & ~newly_frozen
            if nonlinear:
                taken = active
                psi_new = psi_new * (1.0 / np.sqrt(nn if taken is None
                                                   else np.where(nn > 0, nn, 1.0)))
            else:
                weight = nn if taken is None else np.where(taken, nn, weight)
            if taken is None:
                psi, drift = psi_new, drift + d_drift
            else:
                psi = np.where(taken, psi_new, psi)
                drift = drift + np.where(taken, d_drift, 0.0)
        self.psi, self.weight, self.drift, self.w, self.active, self.n = (psi, weight, drift, w,
                                                                          active, n)

    def result(self) -> list[np.ndarray]:
        rows, *rest = map(_lanes_first, self.records)
        re, im = np.split(rows, 2, axis=-1)
        # part by part: re + 1j * im would turn an im of -0.0 into +0.0
        psi = np.empty(re.shape, dtype=complex)
        psi.real, psi.imag = re, im
        return [psi, *rest, self.frozen_step.reshape(-1)]


def _run_stacks(stacks, coeffs: Coefficients, grid: TimeGrid) -> list[list[np.ndarray]]:
    """Step (stack, noise) pairs through the grid; ``noise(steps)`` returns the
    increments of a slice of steps.  Each block's table is built once and
    serves every stack."""
    for ops, steps in _blocks(coeffs, grid):
        for stack, noise in stacks:
            stack.advance(ops, noise(steps))
    return [stack.result() for stack, _ in stacks]


def _result(nonlinear: bool, grid: TimeGrid, record_idx: np.ndarray,
            results: list[list[np.ndarray]]) -> Ensemble:
    """The :class:`Ensemble` of stacks' results, in trajectory order."""
    psi, weight, drift, noise, frozen = (np.concatenate(parts) for parts in zip(*results))
    # the driving noise is W for the linear equation and What for the normalized one
    w, innovation = (noise + 2.0 * drift, noise) if nonlinear else (noise, noise - 2.0 * drift)
    return Ensemble(times=grid.times[record_idx], psi=psi, weight=weight, w_path=w,
                    innovation=innovation, frozen_at=frozen, grid=grid)


def _run_path(coeffs: Coefficients, psi0: np.ndarray, path: WienerPath,
              nonlinear: bool) -> Ensemble:
    """Step one state along ``path`` as a G = C = 1 stack, recorded at every
    grid time."""
    grid = TimeGrid(path.dt, path.nsteps)
    psi0 = _checked_initial(psi0, coeffs.dim)
    if nonlinear and abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial state must have unit norm")
    if coeffs.nchannels != path.nchannels:
        raise ValueError("noise channel count does not match the coefficients")
    record_idx = np.arange(path.nsteps + 1)
    stack = _Stack(psi0[None, :, None], path.nchannels, path.dt, record_idx, nonlinear)
    return _result(nonlinear, grid, record_idx, _run_stacks(
        [(stack, lambda steps: path.increments[steps, None, :, None])], coeffs, grid))


def integrate_linear(coeffs: Coefficients, psi0: np.ndarray, path: WienerPath) -> Ensemble:
    """Integrate the linear trajectory equation along one noise path W.

    The scheme is linear in psi0, so the flow is scale- and
    phase-equivariant; unit norm is only required for the probabilistic
    interpretation of the weight.
    """
    return _run_path(coeffs, psi0, path, nonlinear=False)


def integrate_nonlinear(coeffs: Coefficients, psihat0: np.ndarray, path: WienerPath) -> Ensemble:
    """Integrate the normalized trajectory equation driven by innovation noise.

    ``path`` is interpreted as the innovation process What (standard Wiener
    under the physical law).  Each step applies the linear equation's step
    map to the output increments dWhat + 2 dt Re <R> and divides by the
    norm (module docstring).
    """
    return _run_path(coeffs, psihat0, path, nonlinear=True)


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def worker_count() -> int:
    """Worker processes for ensemble runs: QSDE_WORKERS, default 1.

    Raises ValueError unless the variable is an integer of at least 1.
    """
    raw = os.environ.get("QSDE_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"QSDE_WORKERS must be an integer of at least 1, got {raw!r}")
    return n


def _checked_initial(initial, dim: int) -> np.ndarray:
    """The initial state as a (dim,) complex array; ValueError naming the
    initial state unless it has ``dim`` amplitudes and a squared norm, the
    weight every path starts from, that is a finite normal double (a
    subnormal one has lost its digits)."""
    try:
        psi0 = np.asarray(initial, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"initial state: {exc}") from None
    if psi0.shape != (dim,):
        raise ValueError(f"initial state must have {dim} amplitudes, got shape {psi0.shape}")
    sq_norm = float(np.vdot(psi0, psi0).real)
    if not np.finfo(float).tiny <= sq_norm < np.inf:
        raise ValueError("initial state " + (
            "must have finite amplitudes" if not np.isfinite(psi0).all() else
            "must be nonzero" if not psi0.any() else
            f"has squared norm {sq_norm!r}, not a positive finite normal double"))
    return psi0


def _lane_noise(base_seed: int, first: int, groups: int, lanes: int, nchannels: int,
                dt: float) -> Callable[[slice], np.ndarray]:
    """Noise source of the (G, ., C) stack of trajectories first, first + 1, ...

    ``noise(steps)`` returns the increments of a slice of steps, shape
    (L, G, J, C), and must be called for consecutive slices.  Each lane
    draws block after block from its own Philox stream, which yields the
    numbers of one whole-path draw, bit for bit.
    """
    streams = [_philox_stream(base_seed, first + b) for b in range(groups * lanes)]
    sigma = np.sqrt(dt)

    def noise(steps: slice) -> np.ndarray:
        z = np.empty((groups * lanes, steps.stop - steps.start, nchannels))
        for b, rng in enumerate(streams):
            rng.standard_normal(out=z[b])
        dw = np.empty((z.shape[1], groups, nchannels, lanes))
        np.multiply(z.reshape(groups, lanes, *z.shape[1:]).transpose(2, 0, 3, 1), sigma, out=dw)
        return dw

    return noise


def _run_span(nonlinear: bool, coeffs: Coefficients, grid: TimeGrid, initial: np.ndarray,
              base_seed: int, record_idx: np.ndarray, chunk_size: int,
              first: int, stop: int) -> list[list[np.ndarray]]:
    """Step trajectories first..stop-1 (whole chunks of C = ``chunk_size``
    lanes, stacked up to _LOCKSTEP_LANES // C at a time; a ragged last chunk
    is its own G = 1 stack), every stack block by block."""
    per = max(1, _LOCKSTEP_LANES // chunk_size)
    full = (stop - first) // chunk_size
    shapes = [(first + g * chunk_size, min(per, full - g), chunk_size) for g in range(0, full, per)]
    if (stop - first) % chunk_size:
        shapes.append((first + full * chunk_size, 1, (stop - first) % chunk_size))
    dim, nchan, h = coeffs.dim, coeffs.nchannels, grid.h
    stacks = []
    for start, groups, lanes in shapes:
        psi0 = np.broadcast_to(initial[:, None], (groups, dim, lanes))
        stacks.append((_Stack(psi0, nchan, h, record_idx, nonlinear),
                       _lane_noise(base_seed, start, groups, lanes, nchan, h)))
    return _run_stacks(stacks, coeffs, grid)


def _ensemble(nonlinear: bool, coeffs: Coefficients, initial, dt: float, nsteps: int, ntraj: int,
              base_seed: int, record_times, chunk_size: int) -> Ensemble:
    """Run either unraveling into an :class:`Ensemble`, checking the counts,
    ``dt``, ``base_seed`` and ``initial`` before any fork.  Each worker
    process steps one contiguous span of chunks: this process the first, a
    forked pool the rest."""
    _check_counts(dt, ntraj=ntraj, nsteps=nsteps, chunk_size=chunk_size)
    _check_integers(0, _KEY_MAX, base_seed=base_seed)
    grid = TimeGrid(dt, nsteps)
    record_idx = grid.checkpoints(record_times)
    step_span = partial(_run_span, nonlinear, coeffs, grid, _checked_initial(initial, coeffs.dim),
                        base_seed, record_idx, chunk_size)
    nchunks = -(-ntraj // chunk_size)
    nworkers = min(worker_count(), nchunks)
    cuts = [min(ntraj, chunk_size * (nchunks * k // nworkers)) for k in range(nworkers + 1)]
    spans = list(zip(cuts[:-1], cuts[1:]))
    if nworkers == 1:
        results = [step_span(*spans[0])]
    else:
        from multiprocessing import get_context   # here: a run with no pool skips its import

        with get_context("fork").Pool(processes=nworkers - 1) as pool:
            others = pool.starmap_async(step_span, spans[1:])
            results = [step_span(*spans[0]), *others.get()]
    return _result(nonlinear, grid, record_idx, [stack for part in results for stack in part])


def run_linear_ensemble(coeffs: Coefficients, initial, dt: float, nsteps: int, ntraj: int,
                        base_seed: int, record_times=None, chunk_size: int = 1024) -> Ensemble:
    """Integrate ``ntraj`` linear trajectories with per-trajectory streams.

    ``initial`` is the state vector every trajectory starts from.
    ``record_times`` must be points of the grid n dt, n = 0..nsteps.
    Results are independent of chunk scheduling and worker count;
    ``chunk_size`` fixes the shape of the batched matrix products.
    """
    return _ensemble(False, coeffs, initial, dt, nsteps, ntraj, base_seed, record_times, chunk_size)


def run_nonlinear_ensemble(coeffs: Coefficients, initial, dt: float, nsteps: int, ntraj: int,
                           base_seed: int, record_times=None, chunk_size: int = 1024) -> Ensemble:
    """Integrate ``ntraj`` normalized trajectories, as :func:`run_linear_ensemble`."""
    return _ensemble(True, coeffs, initial, dt, nsteps, ntraj, base_seed, record_times, chunk_size)
