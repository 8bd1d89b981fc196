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

The increments dW (What for the normalized equation) are the three-point
increments of the simplified weak Euler scheme (Kloeden & Platen 1992,
Numerical Solution of SDEs, sec. 14.1): iid, -a or +a with probability p
each and 0 otherwise, p = 715827883 / 2^32 (1/6 rounded up to 2^-32) and
a = sqrt(dt / (2p)).  Their mean, variance and third moment equal the
Gaussian's: 0, dt and 0; the fourth moment is 3 dt^2 (1 - 4.7e-10) and
the fifth 0.  The linear step is affine in each step's increments, so
E_ref[psi psi^*] after every step, and with it the mean weight and the
averaged state, equals Gaussian Euler-Maruyama's exactly, as does every
expectation of degree at most 3 in each step's increments.  The
normalized route differs from its Gaussian form at O(dt), the scheme's own
order.

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

    [I; R_1(t_n); ...; R_J(t_n); I - i dt K(t_n)],    shape ((J+2)2d, 2d).

A step is one real product ``ops[n] @ psi``, giving psi, every R_j psi and
(I - i dt K) psi; one contraction of psi with the first J+1 of these, giving
||psi||^2 and every Re <psi|R_j psi> (no step reads the imaginary part, so
nothing computes it); dY; one contraction of [dY_1, ..., dY_J, 1] with the
last J+1, giving M_n psi; and the sum W.  numpy makes the product one
(2d, C) matrix product per chunk, so a chunk's results do not depend on how
many chunks share its stack.  A step neither renormalizes a state nor
tests the freeze floor: the map is linear, so a normalized path can step
unnormalized, with dY taking Re <R_j> as Re <psi|R_j psi> / ||psi||^2, and
be renormalized at the end of each block and in its records; its
||M_n psihat||^2 is then the ratio of successive squared norms.  The norms
and forms of a block are kept in a (L+2, G, J+1, C) table, from which the
freeze test, the drift integral int_0^t Re <R_j> ds and the records'
weights are made once per block.  One stack class, one step table and one
loop body serve both equations, which differ only in dY, in renormalizing
and in the state a freezing path keeps (:class:`_Stack`).

Lockstep engine: each process steps one contiguous span of whole chunks.
Its full chunks are stacked up to _LOCKSTEP_LANES lanes at a time, and a
ragged last chunk is a stack of its own (G = 1).  Time runs in blocks of
_BLOCK_STEPS grid points.  ``Coefficients.tabulate`` is the engine's one
source of K and R.  Once per run the engine asks whether they are constant
(:func:`_constant_ops`: one call on ``model.PROBE_TIMES``, judged by the
rule ``LindbladPropagator`` applies to L_*); if so, their t = 0 row of the
step table serves every step.  Otherwise the process tabulates each block's
times once (each row equals the full-grid table's bit for bit).  Every
stack in turn takes the block's increments, shape (L, G, J, C), from its
noise source, which draws words _REFILL_BLOCKS blocks at a time and holds
them as int8 signs, and steps through them.  So a process holds its lanes'
states, records, streams and signs, plus one block of step table, of one
stack's noise and of the table its stacks share: nothing grows with the
horizon.  With several workers, the calling process steps the first span
and a forked pool one span per further worker.

Reproducibility: every trajectory owns a Philox counter-based stream keyed
by (seed, trajectory index), so for a given chunk size ensembles are
bit-reproducible regardless of stacking, worker count or scheduling.  Its
increments, in (step, channel) order, are the 32-bit halves of the
stream's raw 64-bit words, low half first (taken by value, so no number
depends on byte order), each mapped to the three-point law (uniform u
below 715827883 gives -a, from 2^32 - 715827883 on +a).  Every refill of a
lane's words starts at an even increment count, so its numbers are those
of one whole-path draw, and ``generate_wiener(seed, dt, n, J, stream=b)``,
drawn by the same function, is trajectory b's noise in an ensemble with
``base_seed=seed``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import PROBE_TIMES, Coefficients, TimeGrid, _check_integers, _constant_at_probes

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
# lanes, step table and noise are made this many grid times at a time, and raw
# words drawn this many blocks at a time.  Per increment of a block (of
# max(1024, chunk_size) x 128 x J), a stack holds 8 bytes of noise (9 while
# transposed) and 4 of signs, and its process's stacks share a table of 8 (J+1)/J:
# tracing a span of one 1024-lane stack with two channels peaks at 8.2 MB, at any
# horizon.  _BLOCK_STEPS must be even: a refill then holds whole Philox words.
_LOCKSTEP_LANES = 1024
_BLOCK_STEPS = 128
_REFILL_BLOCKS = 4

# The Philox key is two 64-bit words, (seed, stream); wider values are rejected, not wrapped.
_KEY_MAX = (1 << 64) - 1

# P(+a) = P(-a) = _THREE_POINT_LO / 2**32 for the three-point increments (module docstring).
_THREE_POINT_LO = 715_827_883     # ceil(2**32 / 6)


def _philox_stream(seed: int, stream: int) -> np.random.Philox:
    return np.random.Philox(key=np.array([int(seed), int(stream)], dtype=np.uint64))


def _check_counts(dt: float, **counts):
    """ValueError unless every count is an integer of at least 1 and ``dt``
    is finite and positive."""
    _check_integers(1, np.inf, **counts)
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")


@dataclass(frozen=True)
class WienerPath:
    """Discretized multi-channel Brownian increments.

    ``increments[n, j] = W_j(t_{n+1}) - W_j(t_n)``, drawn by
    :func:`generate_wiener` as iid three-point increments (module
    docstring: mean 0, variance dt, third moment 0), bit-reproducible from
    its arguments.  An integrator steps any finite increments.  A
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
    """Draw a path of three-point increments (mean 0, variance dt; module
    docstring) from the counter-based stream (seed, stream), as a one-lane
    stack of the ensemble's noise source."""
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
    """Per-step real block table of [I; R_1(t_n); ...; R_J(t_n); I - i dt K_n]
    from the K table (n, d, d) and R table (n, J, d, d) of
    ``Coefficients.tabulate``.

    Shape (n, (J+2)2d, 2d): each operator A is the block
    [[Re A, -Im A], [Im A, Re A]], so that ``ops[n] @ psi`` on a real stack
    [Re psi; Im psi] gives psi itself, every R_j psi and (I - i dt K_n) psi,
    each as its rows [Re; Im], in one product.
    """
    n, nchan, d, _ = r.shape
    eye = np.broadcast_to(np.eye(d), (n, 1, d, d))
    a = np.concatenate([eye, r, eye + (-1j * dt) * k[:, None]], axis=1)
    return np.block([[a.real, -a.imag], [a.imag, a.real]]).reshape(n, (nchan + 2) * 2 * d, 2 * d)


def _constant_ops(coeffs: Coefficients, dt: float) -> np.ndarray | None:
    """The step table's one row, shape (1, (J+2)2d, 2d), if K(t) and the R_j(t)
    are constant, else None.  Both come from one ``Coefficients.tabulate``
    call on ``model.PROBE_TIMES``: the family is constant when K and R each
    pass ``model._constant_at_probes``, the rule ``LindbladPropagator``
    applies to L_*, and its row is then the t = 0 row, bit for bit."""
    k, r = coeffs.tabulate(np.array(PROBE_TIMES))
    if _constant_at_probes(k[0], k[1:]) and _constant_at_probes(r[0], r[1:]):
        return _step_ops(k[:1], r[:1], dt)
    return None


def _blocks(coeffs: Coefficients, grid: TimeGrid, constant: np.ndarray | None):
    """Yield (ops, steps) for each block of up to _BLOCK_STEPS steps.

    ``steps`` is the slice of step indices the block takes and ``ops`` the
    step table's rows at their times.  Every block of a constant family
    serves its one row ``constant`` (:func:`_constant_ops`), built once per
    run; otherwise each block is tabulated on its own times, and its rows
    equal those of a full-grid table bit for bit.
    """
    for start in range(0, grid.nsteps, _BLOCK_STEPS):
        steps = slice(start, min(start + _BLOCK_STEPS, grid.nsteps))
        if constant is None:
            ops = _step_ops(*coeffs.tabulate(grid.h * np.arange(start, steps.stop)), grid.h)
        else:
            ops = np.broadcast_to(constant, (steps.stop - start, *constant.shape[1:]))
        yield ops, steps


def _quotient(num: np.ndarray, den: np.ndarray, masked: bool) -> np.ndarray:
    """num / den; with the freeze masks on, 0 where den is 0 (a frozen or
    unfloored path's norm may vanish), with the same bits elsewhere."""
    if not masked:
        return num / den
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def _scratch(pool: dict, key: str, shape: tuple) -> np.ndarray:
    """An uninitialized float array of ``shape`` on memory that ``pool`` keeps under
    ``key`` from one block to the next: block-sized arrays made afresh for
    every block page-faulted anew, per 4 KiB, and doubled a span's page faults."""
    size = int(np.prod(shape))
    if pool.get(key, np.empty(0)).size < size:
        pool[key] = np.empty(size)
    return pool[key][:size].reshape(shape)


def _lanes_first(rec: np.ndarray) -> np.ndarray:
    """Records (nrec, G, [X,] C) as a C-contiguous lane-first (G*C, nrec[, X]) array."""
    out = np.ascontiguousarray(np.moveaxis(rec, (1, -1), (0, 1)))
    return out.reshape(-1, *out.shape[2:])


class _Stack:
    """State of a stack of complex (G, d, C) initial states under the step map
    M_n (module docstring), held as the real (G, 2d, C) stack [Re psi; Im psi]
    and stepped one block at a time.

    ``nonlinear`` selects the normalized equation, else the linear one.
    ``advance(ops, dw)`` runs one block: ``ops`` holds the block's rows of
    the real block table (:func:`_step_ops`; rows past the last step are not
    read), ``dw`` the increments of its steps, shape (L, G, J, C).
    ``record_idx`` are sorted grid indices.  ``result()`` returns the
    records at ``record_idx`` lane-first: the complex states (G*C, nrec, d),
    the weights ||psi||^2 (G*C, nrec; 1 for the normalized equation), the
    drift integrals int_0^t Re <R_j> ds and the noise W (each
    (G*C, nrec, J)), then the per-lane freeze step (-1 if never frozen).

    A step (:meth:`_pass`) neither renormalizes nor tests the floor (module
    docstring, *Kernel layout*); :meth:`_close` finishes each block from
    its table of squared norms and forms.  Between renormalizations a
    normalized path's squared norm is the product of up to _BLOCK_STEPS
    factors ||M_n psihat||^2, so it stays a finite normal double unless
    these average beyond about 10^(+-2.3) over a block, far past the
    scheme's stable steps.  ``scratch`` keeps the memory of the table and of
    the update's coefficients; stacks stepped in turn share one.

    A path freezes at the first step whose squared norm (a normalized
    path's ||M_n psihat||^2) falls below WEIGHT_FLOOR times its initial
    one.  A linear path keeps that first state below the floor; a
    normalized path keeps its last state above it.  A block in which some
    path freezes is stepped again from its start, with masks that only
    select, so every other lane's numbers are those of the unmasked step;
    once a path has frozen, later blocks are stepped with the masks.
    """

    def __init__(self, psi0: np.ndarray, nchan: int, dt: float, record_idx: np.ndarray,
                 nonlinear: bool, scratch: dict | None = None):
        groups, d, lanes = psi0.shape
        self.dt, self.nonlinear, self.n = dt, nonlinear, 0
        self.scratch = {} if scratch is None else scratch
        self.psi = np.concatenate([psi0.real, psi0.imag], axis=1)
        weight = np.einsum("gkc,gkc->gc", self.psi, self.psi)[:, None]
        if nonlinear:
            self.psi = self.psi / np.sqrt(weight)
            weight = np.ones_like(weight)
        self.floor = WEIGHT_FLOOR * weight
        # None while no path is frozen: the masks are needed only after the
        # first freeze (or when a floor is zero and norms may vanish).
        self.active = None if np.all(self.floor > 0) else np.ones(weight.shape, dtype=bool)
        self.drift = np.zeros((groups, nchan, lanes))
        self.w = np.zeros((groups, nchan, lanes))
        self.frozen_step = np.full((groups, 1, lanes), -1, dtype=np.int64)
        self.record_idx = np.asarray(record_idx)
        # records of [Re psi; Im psi], ||psi||^2, the drift integral and W
        self.records = [np.empty((len(record_idx), groups, *inner, lanes))
                        for inner in ((2 * d,), (), (nchan,), (nchan,))]
        if self.record_idx[0] == 0:
            for rec, value in zip(self.records, (self.psi, weight[:, 0], self.drift, self.w)):
                rec[0] = value

    def advance(self, ops: np.ndarray, dw: np.ndarray):
        nsteps, n = len(dw), self.n
        # the record position of each recorded step count k = 1..L of the block
        lo, hi = np.searchsorted(self.record_idx, [n + 1, n + nsteps + 1])
        marks = {int(self.record_idx[pos]) - n: pos for pos in range(lo, hi)}
        live = None if self.active is None else np.where(self.active, nsteps, 0)
        psi, w, table = self._pass(ops, dw, live, marks)
        nn = table[1:, :, :1]
        crossed = nn[1:] < (self.floor * nn[:-1] if self.nonlinear else self.floor)
        if self.active is not None:
            crossed &= self.active
        newly = crossed.any(axis=0)
        if newly.any():
            first = crossed.argmax(axis=0)
            self.frozen_step[newly] = n + 1 + first[newly]
            self.active = ~newly if self.active is None else self.active & ~newly
            # the steps a freezing path takes: a linear path keeps the step
            # that froze it, a normalized path drops it
            live = np.where(newly, first + (0 if self.nonlinear else 1),
                            nsteps if live is None else live)
            psi, w, table = self._pass(ops, dw, live, marks)
        self._close(psi, w, table, live, marks)

    def _pass(self, ops, dw, live, marks):
        """Step the block from ``self.psi``, recording its states and W as they
        come; ``live`` holds each lane's number of steps taken (None: all).
        Returns the end states, the end W and the block's table
        (L+2, G, J+1, C): row n+1 holds ||psi||^2 before step n and its forms
        Re <psi|R_j psi>, row L+1 in column 0 the end's ||psi||^2.  W is summed
        here, one add a step: summed per block in step order, it would need a
        copy of the noise."""
        groups, rows, lanes = self.psi.shape
        nchan, masked, two_dt = self.drift.shape[1], live is not None, 2.0 * self.dt
        table = _scratch(self.scratch, "table", (len(dw) + 2, groups, nchan + 1, lanes))
        # the update's coefficients [dY_1, ..., dY_J, 1]
        coef = _scratch(self.scratch, "coef", (groups, nchan + 1, lanes))
        coef[:, -1] = 1.0
        psi, w, (rec_psi, _, _, rec_w) = self.psi, self.w.copy(), self.records
        for i, dw_n in enumerate(dw):
            # y = [psi; R_1 psi; ...; R_J psi; (I - i dt K) psi]
            y = (ops[i] @ psi).reshape(groups, nchan + 2, rows, lanes)
            forms = np.einsum("gkc,gjkc->gjc", psi, y[:, :-1], out=table[i + 1])
            if self.nonlinear:   # on the output increments dWhat + 2 dt Re <R>
                np.add(dw_n, forms[:, 1:] * _quotient(two_dt, forms[:, :1], masked),
                       out=coef[:, :-1])
            else:
                coef[:, :-1] = dw_n
            psi_new = np.einsum("gjc,gjkc->gkc", coef, y[:, 1:])
            psi = psi_new if live is None else np.where(i < live, psi_new, psi)
            np.add(w, dw_n, out=w)
            pos = marks.get(i + 1)
            if pos is not None:
                rec_psi[pos], rec_w[pos] = psi, w
        np.einsum("gkc,gkc->gc", psi, psi, out=table[-1, :, 0])
        return psi, w, table

    def _close(self, psi, w, table, live, marks):
        """Finish the block from its table: the records' weights, the
        normalized equation's renormalization of the end state and of the
        recorded ones, and the drift integral.  A path frozen before the
        block (live 0) keeps its state as it is."""
        nsteps, masked, nonlinear = len(table) - 2, live is not None, self.nonlinear
        nn = table[1:, :, :1]     # ||psi||^2 after step count k = 0..L of the block

        def unit(k):
            """1 / ||psi|| after step count k of the block (1 on unmoved lanes)."""
            inv = 1.0 / np.sqrt(nn[k])
            return np.where(live > 0, inv, 1.0) if masked else inv

        rec_psi, rec_weight, rec_drift, _ = self.records
        for k, pos in marks.items():
            if nonlinear:
                rec_psi[pos] *= unit(k)
            rec_weight[pos] = 1.0 if nonlinear else nn[k, :, 0]
        self.psi = psi * unit(nsteps) if nonlinear else psi
        # the drift increments dt Re <R_j> (the forms over ||psi||^2, rows
        # 1..L), after a row holding the drift at the block's start; column 0 is cleared
        forms = table[1:-1]
        scale = _quotient(self.dt, forms[:, :, :1], masked)
        if masked:
            scale = np.where(np.arange(nsteps)[:, None, None, None] < live, scale, 0.0)
        np.multiply(forms[:, :, 1:], scale, out=forms[:, :, 1:])
        table[:, :, 0] = 0.0
        table[0, :, 1:] = self.drift
        # Running sums, one segment between recorded steps at a time, each
        # overwriting the segment's last row.  numpy adds the rows of an
        # axis-0 reduction one after another when a row holds more than one
        # number (here at least 2, with column 0), so every sum is taken in
        # step order, whatever the records or the stacking.
        start = 0
        for k in sorted({*marks, nsteps}):
            table[k] = np.add.reduce(table[start:k + 1], axis=0)
            start = k
        for k, pos in marks.items():
            rec_drift[pos] = table[k, :, 1:]
        self.drift, self.w = table[nsteps, :, 1:].copy(), w
        self.n += nsteps

    def result(self) -> list[np.ndarray]:
        rows, *rest = map(_lanes_first, self.records)
        re, im = np.split(rows, 2, axis=-1)
        # part by part: re + 1j * im would turn an im of -0.0 into +0.0
        psi = np.empty(re.shape, dtype=complex)
        psi.real, psi.imag = re, im
        return [psi, *rest, self.frozen_step.reshape(-1)]


def _run_stacks(stacks, coeffs: Coefficients, grid: TimeGrid,
                constant: np.ndarray | None) -> list[list[np.ndarray]]:
    """Step (stack, noise) pairs through the grid; ``noise(steps)`` returns the
    increments of a slice of steps.  Each block's table (:func:`_blocks`)
    serves every stack."""
    for ops, steps in _blocks(coeffs, grid, constant):
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
        [(stack, lambda steps: path.increments[steps, None, :, None])], coeffs, grid,
        _constant_ops(coeffs, path.dt)))


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

    ``noise(steps)`` returns the increments of a slice of steps, a
    C-contiguous (L, G, J, C) array; ValueError unless the slice starts
    where the last one stopped (the first at step 0).  A refill draws each
    lane's words (module docstring, *Reproducibility*) for _REFILL_BLOCKS
    blocks of steps, or a longer slice rounded up to an even step count, in
    one ``random_raw`` call, and holds them as int8 signs until slices have
    read them.
    """
    streams = [_philox_stream(base_seed, first + b) for b in range(groups * lanes)]
    lo, hi = _THREE_POINT_LO, 2**32 - _THREE_POINT_LO
    atom = np.sqrt(dt * 2.0**31 / lo)        # a = sqrt(dt / (2p)): the variance is dt
    # signs holds the increments of steps start..stop-1; the next slice starts at step ``at``
    signs, start, stop, at = np.empty((len(streams), 0), dtype=np.int8), 0, 0, 0

    def refill(out: np.ndarray):
        """Cut each lane's next out.shape[1] (even) increments into ``out``,
        2^14 raw words at a time."""
        part = max(1, 2**15 // out.shape[1])
        for g in range(0, len(out), part):
            words = np.empty((len(out[g:g + part]), out.shape[1] // 2), dtype=np.uint64)
            for b, row in enumerate(words):
                row[:] = streams[g + b].random_raw(len(row))
            # split by value, not through a uint32 view, so no number depends on byte order
            u = np.empty((len(words), 2 * words.shape[1]), dtype=np.uint32)
            u[:, 0::2], u[:, 1::2] = words & 0xFFFFFFFF, words >> 32
            np.subtract((u >= hi).view(np.int8), (u < lo).view(np.int8), out=out[g:g + len(u)])

    def noise(steps: slice) -> np.ndarray:
        nonlocal signs, start, stop, at
        if steps.start != at:
            raise ValueError(f"noise slices must be consecutive: step {at} next, not {steps.start}")
        at = steps.stop
        if steps.stop > stop:
            held = signs[:, (steps.start - start) * nchannels:]
            more = max(_REFILL_BLOCKS * _BLOCK_STEPS, steps.stop - stop + (steps.stop - stop) % 2)
            if held.size or signs.shape[1] != more * nchannels:
                signs = np.concatenate([held, np.empty((len(signs), more * nchannels), np.int8)], 1)
            refill(signs[:, held.shape[1]:])
            start, stop = steps.start, stop + more
        block = signs[:, (steps.start - start) * nchannels:(steps.stop - start) * nchannels]
        # transposed as int8, then scaled: on a strided block the step's contractions ran 3x slower
        return atom * np.ascontiguousarray(
            block.reshape(groups, lanes, steps.stop - steps.start, nchannels).transpose(2, 0, 3, 1))

    return noise


def _run_span(nonlinear: bool, coeffs: Coefficients, grid: TimeGrid,
              constant: np.ndarray | None, initial: np.ndarray, base_seed: int,
              record_idx: np.ndarray, chunk_size: int, first: int,
              stop: int) -> list[list[np.ndarray]]:
    """Step trajectories first..stop-1 (whole chunks of C = ``chunk_size``
    lanes, stacked up to _LOCKSTEP_LANES // C at a time; a ragged last chunk
    is its own G = 1 stack), every stack block by block; ``constant`` is the
    run's :func:`_constant_ops`."""
    per = max(1, _LOCKSTEP_LANES // chunk_size)
    full = (stop - first) // chunk_size
    shapes = [(first + g * chunk_size, min(per, full - g), chunk_size) for g in range(0, full, per)]
    if (stop - first) % chunk_size:
        shapes.append((first + full * chunk_size, 1, (stop - first) % chunk_size))
    dim, nchan, h = coeffs.dim, coeffs.nchannels, grid.h
    stacks, scratch = [], {}
    for start, groups, lanes in shapes:
        psi0 = np.broadcast_to(initial[:, None], (groups, dim, lanes))
        stacks.append((_Stack(psi0, nchan, h, record_idx, nonlinear, scratch),
                       _lane_noise(base_seed, start, groups, lanes, nchan, h)))
    return _run_stacks(stacks, coeffs, grid, constant)


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
    psi0 = _checked_initial(initial, coeffs.dim)
    step_span = partial(_run_span, nonlinear, coeffs, grid, _constant_ops(coeffs, dt), psi0,
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
