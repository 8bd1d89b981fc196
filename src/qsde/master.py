"""Deterministic master-equation oracle.

The statistical operator averaged over trajectories obeys
d rho/dt = L_*(t)[rho] with the Lindblad-form generator

    L_*(t)[rho] = -(i/2) [K + K^*, rho]
                  + sum_j ( R_j rho R_j^* - (1/2) {R_j^* R_j, rho} )

whose trace dual acts on observables as

    L(t)[a] = +(i/2) [K + K^*, a]
              + sum_j ( R_j^* a R_j - (1/2) {R_j^* R_j, a} )
            = +(i/2) [K + K^*, a] + (1/2) sum_j ( R_j^*[a, R_j] + [R_j^*, a] R_j ).

Only L_* is built here; the tests check it against an independent
transcription of L through the duality Tr{L_*[rho] a} = Tr{rho L[a]}, which
with the Schrodinger-picture evolution (e.g. rho_t = e^{-iHt} rho e^{iHt}
for a purely Hamiltonian K = H) fixes the Heisenberg commutator sign.

Everything here is a dense superoperator on column-vectorized matrices, and
one formula, ``_lindblad``, builds L_* from K and R at one time or on a grid.
One march, ``_rk4_march``, evolves every state: exact steps E = e^{hG} for a
constant generator G, else fourth-order Magnus steps (``_magnus_steps``, one
K and one R table per Gauss node), each built once, a block at a time.
``master_series`` records its states on a uniform grid; the two-time sums
of ``statistics`` take each block's steps as their propagators.  A state at
a single time t is the last entry of the series on the grid covering
[0, t].  It serves as the exact cross-check for the trajectory ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    adjoint,
    devectorize,
    ensure_finite,
    matrix_exp,
    max_abs,
    sandwich,
    spost,
    spre,
    vectorize,
)
from .model import GRID_TOL, Coefficients

__all__ = [
    "PositivityError",
    "DegenerateStationaryState",
    "build_schrodinger_generator",
    "LindbladPropagator",
    "master_series",
    "stationary_state",
    "StationaryResult",
    "apriori_from_trajectories",
    "DensitySeries",
    "validate_density",
    "trace_distance",
]

DENSITY_HERMITIAN_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-8
POSITIVITY_FAIL = -1e-6
# Largest change of L_*(t) across the probe times, relative to max(1, max|L_*(0)|),
# of a generator taken as constant.
PROBE_TOL = 1e-12
# _rk4_march builds a time-dependent generator's Magnus steps this many at a
# time, so that the steps it holds do not grow with the number of steps.
_STEP_BLOCK = 256


class PositivityError(RuntimeError):
    """Raised when an evolved state develops a clearly negative eigenvalue."""


class DegenerateStationaryState(RuntimeError):
    """Raised by callers that require a unique stationary state."""


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace and numerical positivity of
    a state, to the DENSITY_* tolerances."""
    rho = ensure_finite(rho, "density matrix")
    tr = np.trace(rho)
    if max_abs(rho - rho.conj().T) > DENSITY_HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(tr.real - 1.0) > DENSITY_TRACE_TOL or abs(tr.imag) > DENSITY_TRACE_TOL:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < DENSITY_EIG_FLOOR:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 for Hermitian matrices."""
    diff = 0.5 * ((a - b) + (a - b).conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _lindblad(k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """L_*(t) of K (..., d, d) and R (..., J, d, d): one superoperator matrix
    per leading index, each bitwise the one its (K, R) alone gives."""
    d = k.shape[-1]
    kh = k + adjoint(k)
    gain = np.zeros(k.shape[:-2] + (d * d, d * d), dtype=complex)
    rr = np.zeros(k.shape, dtype=complex)
    for rj in np.moveaxis(r, -3, 0):
        gain += sandwich(rj, adjoint(rj))
        rr += adjoint(rj) @ rj
    return -0.5j * (spre(kh) - spost(kh)) + (gain - 0.5 * (spre(rr) + spost(rr)))


def build_schrodinger_generator(coeffs: Coefficients, t: float) -> np.ndarray:
    """Superoperator matrix of the state-evolution generator L_*(t)."""
    return _lindblad(*coeffs.at(t))


class LindbladPropagator:
    """Generator family t -> L_*(t) with a cache for the constant case.

    Time independence is probed numerically at a few incommensurate times;
    models whose time dependence sits entirely in detection/frame phases
    have a constant generator even though K(t), R_j(t) vary.
    """

    _PROBE_TIMES = (0.0, 0.3331, 0.7177, 1.6183)

    def __init__(self, coeffs: Coefficients):
        self.coeffs = coeffs
        self.dim = coeffs.dim
        g0 = build_schrodinger_generator(coeffs, self._PROBE_TIMES[0])
        scale = max(max_abs(g0), 1.0)
        self.time_independent = all(
            max_abs(build_schrodinger_generator(coeffs, t) - g0) <= PROBE_TOL * scale
            for t in self._PROBE_TIMES[1:]
        )
        self._g0 = g0 if self.time_independent else None

    def generator_at(self, t: float) -> np.ndarray:
        if self._g0 is not None:
            return self._g0
        return build_schrodinger_generator(self.coeffs, t)


def _magnus_steps(gen: LindbladPropagator, starts: np.ndarray, h: float) -> np.ndarray:
    """The fourth-order commutator-free Magnus steps (Blanes & Moan 2006,
    Appl. Numer. Math. 56:1519) from each t_n of ``starts`` to t_n + h, as one
    (n, d^2, d^2) stack whose exponentials are one batched call:

        E_n = e^{h(a2 G1 + a1 G2)} e^{h(a1 G1 + a2 G2)},   a_{1,2} = 1/4 +- sqrt(3)/6,

    with G_{1,2} = L_*(t_n + (1/2 -+ sqrt(3)/6) h), each node's generators one
    ``_lindblad`` of one K and one R table.  Global error O(h^4).
    """
    c = np.sqrt(3.0) / 6.0
    a1, a2 = 0.25 + c, 0.25 - c
    g1, g2 = (_lindblad(gen.coeffs.k_table(t), gen.coeffs.r_table(t))
              for t in (starts + (0.5 - c) * h, starts + (0.5 + c) * h))
    first, second = np.split(
        matrix_exp(np.concatenate([a1 * g1 + a2 * g2, a2 * g1 + a1 * g2]), h), 2)
    return second @ first


# Named for the benchmark tracer's ``master.rk4_steps`` probe, which binds it and its nsteps.
def _rk4_march(gen: LindbladPropagator, v: np.ndarray, t0: float, nsteps: int,
               h: float, record: np.ndarray, sweep=None) -> None:
    """March vec(rho) nsteps steps of h into record[1:]: the exact step e^{hG}
    of a constant generator G, or Magnus steps built _STEP_BLOCK at a time,
    each block handed on as ``sweep(first, steps)`` once its states are recorded."""
    exact = matrix_exp(gen.generator_at(t0), h) if gen.time_independent else None
    for first in range(0, nsteps, _STEP_BLOCK):
        starts = t0 + h * np.arange(first, min(first + _STEP_BLOCK, nsteps))
        steps = [exact] * len(starts) if exact is not None else _magnus_steps(gen, starts, h)
        for n, step in enumerate(steps, first + 1):
            v = step @ v
            record[n] = v
        if sweep is not None:
            sweep(first, steps)


def _cleanup(rho: np.ndarray, check_positivity: bool) -> np.ndarray:
    """Symmetrize and trace-normalize a state or a stack of states.

    The positivity check, when asked for, looks at the last state only.
    """
    rho = 0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    last = rho.reshape((-1,) + rho.shape[-2:])[-1]
    if check_positivity and np.linalg.eigvalsh(last).min() < POSITIVITY_FAIL:
        raise PositivityError("master-equation state developed a negative eigenvalue")
    return rho


def master_series(gen: LindbladPropagator, rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States on a uniform, increasing grid (times[0] = start), shape
    (len(times), d, d): by the ``TimeGrid`` rule, each times[n] within
    GRID_TOL steps of times[0] + n (times[1] - times[0]).  PositivityError
    if the last state has an eigenvalue below POSITIVITY_FAIL."""
    times = np.asarray(times, dtype=float)
    nsteps = len(times) - 1
    d = gen.dim
    record = np.empty((nsteps + 1, d * d), dtype=complex)
    record[0] = vectorize(np.asarray(rho0, dtype=complex))
    if nsteps:
        h = times[1] - times[0]
        if not h > 0 or not np.all(
                np.abs((times - times[0]) / h - np.arange(nsteps + 1)) <= GRID_TOL):
            raise ValueError("master_series needs a uniform, increasing time grid")
        _rk4_march(gen, record[0], times[0], nsteps, h, record)
    return _cleanup(devectorize(record, d), check_positivity=True)


@dataclass(frozen=True)
class StationaryResult:
    """Null-space solve of L_*[rho] = 0 with Tr rho = 1.

    ``nullity`` > 1 flags a degenerate stationary manifold; ``rho`` is then
    None and the caller decides whether to proceed.
    """

    rho: np.ndarray | None
    nullity: int
    residual: float

    @property
    def degenerate(self) -> bool:
        return self.nullity != 1


def stationary_state(gen: LindbladPropagator) -> StationaryResult:
    """Extract the stationary state from the generator's null space; its
    residual max|L_*[rho]| is reported, for the caller to judge."""
    if not gen.time_independent:
        raise ValueError("stationary state requires a time-independent generator")
    g = gen.generator_at(0.0)
    _, svals, vh = np.linalg.svd(g)
    smax = svals[0] if len(svals) else 0.0
    null_tol = max(smax * 1e-10, 1e-14)
    nullity = int(np.sum(svals <= null_tol))
    if nullity != 1:
        return StationaryResult(rho=None, nullity=nullity, residual=float("nan"))
    v = vh[-1].conj()
    rho = devectorize(v, gen.dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12 * max(max_abs(rho), 1e-300):
        return StationaryResult(rho=None, nullity=nullity, residual=float("inf"))
    rho = rho / tr
    residual = max_abs(devectorize(g @ vectorize(rho), gen.dim))
    return StationaryResult(rho=validate_density(rho), nullity=1, residual=residual)


@dataclass(frozen=True)
class DensitySeries:
    """Ensemble estimate of the averaged state with per-entry standard errors."""

    times: np.ndarray
    rho: np.ndarray       # (ntimes, d, d)
    stderr: np.ndarray    # (ntimes, d, d) real, combined re/im standard error
    ntraj: int


def apriori_from_trajectories(ensemble) -> DensitySeries:
    """Averaged-state estimator from an ensemble of either unraveling.

    The plain mean of |psi><psi| is the weighted mean of |psihat><psihat|:
    the states of a linear ensemble carry the importance weight ||psi||^2,
    and those of a normalized one have weight 1.
    """
    states, ntraj = ensemble.psi, ensemble.ntraj
    if ntraj == 0:
        raise ValueError("empty ensemble")
    outer = np.einsum("btk,btl->btkl", states, states.conj())
    rho = outer.mean(axis=0)
    if ntraj > 1:
        var = outer.real.var(axis=0, ddof=1) + outer.imag.var(axis=0, ddof=1)
        stderr = np.sqrt(var / ntraj)
    else:
        stderr = np.zeros_like(rho, dtype=float)
    return DensitySeries(times=ensemble.times, rho=rho, stderr=stderr, ntraj=ntraj)
