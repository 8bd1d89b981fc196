"""Physical model data and construction of the SDE coefficients.

A :class:`SystemModel` bundles the system Hamiltonian H, the coupling
operators L_j of the emission channels, a monochromatic drive, the detection
unitary family V(t) and an arbitrary Hermitian rotating-frame generator H0.
From these the pair of coefficient families

    K(t) = e^{i H0 t} ( H - (i/2) sum_j L_j^* L_j - H0
                        + i sum_j [ conj(f_j(t)) L_j - f_j(t) L_j^* ] ) e^{-i H0 t}

    R_j(t) = sum_i conj(V(t))_{ij} e^{i H0 t} L_i e^{-i H0 t}

with f_j(t) = lambda_j e^{-i omega0 t} drives both the linear and the
nonlinear trajectory equations as well as the master-equation oracle.

The identity -i (K(t)^* - K(t)) = sum_j R_j(t)^* R_j(t) is what makes the
squared norm of the linear solution a martingale (a probability density);
:func:`verify_weight_identity` checks it on a time grid, relative to the
scale of sum_j R_j^* R_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, ensure_finite, is_hermitian, max_abs

__all__ = [
    "DriveSpec",
    "DetectionSpec",
    "SystemModel",
    "Coefficients",
    "effective_hamiltonian",
    "build_coefficients",
    "verify_weight_identity",
    "operator_norm_bounds",
    "WeightIdentityReport",
    "NormBoundReport",
    "TimeGrid",
]

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
DETECTION_KINDS = ("diagonal-phase", "constant-unitary")
# A time is a grid point, and a step equals dt, to this fraction of a step.
GRID_TOL = 1e-9
NORM_BOUND_POINTS = 101


def _check_integers(lo: int, hi: float, **values):
    """ValueError unless each value is an integer in [lo, hi] (numpy's too, bool not)."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not lo <= v <= hi:
            bound = f"of at least {lo}" if hi == np.inf else f"in [{lo}, {hi}]"
            raise ValueError(f"{name} must be an integer {bound}, got {v!r}")


@dataclass(frozen=True)
class TimeGrid:
    """The uniform grid t_n = n h, n = 0..nsteps, shared by the trajectory,
    master-equation and analytic routes; ValueError unless h is finite and
    positive and nsteps an integer >= 0."""

    h: float
    nsteps: int

    def __post_init__(self):
        if not 0 < self.h < np.inf:
            raise ValueError(f"h must be finite and positive, got {self.h!r}")
        _check_integers(0, np.inf, nsteps=self.nsteps)

    @classmethod
    def covering(cls, horizon: float, dt: float) -> "TimeGrid":
        """The grid of [0, horizon] with nsteps = max(1, round(horizon / dt));
        ValueError unless horizon and dt are finite and positive."""
        if not (0 < horizon < np.inf and 0 < dt < np.inf):
            raise ValueError(f"horizon and dt must be finite and positive, got {horizon}, {dt}")
        nsteps = max(1, int(round(horizon / dt)))
        return cls(h=horizon / nsteps, nsteps=nsteps)

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(self.nsteps + 1)

    def index(self, t):
        """Grid index of each time in ``t`` (an int for a scalar); ValueError names
        every time more than GRID_TOL steps from a grid point or outside the grid."""
        t = np.asarray(t, dtype=float)
        n = np.rint(t / self.h)
        bad = ~(np.abs(t / self.h - n) <= GRID_TOL) | (n < 0) | (n > self.nsteps)
        if bad.any():
            raise ValueError(f"times {np.atleast_1d(t)[np.atleast_1d(bad)].tolist()} are not "
                             f"points of the grid n * {self.h!r}, n = 0..{self.nsteps}")
        return n.astype(int) if n.ndim else int(n)

    def checkpoints(self, times=None) -> np.ndarray:
        """Sorted distinct indices of ``times``; by default eleven indices
        spread evenly from 0 to nsteps (every index on a shorter grid)."""
        if times is None:
            return np.unique(np.rint(np.linspace(0, self.nsteps, min(self.nsteps, 10) + 1))
                             .astype(int))
        if np.size(times) == 0:
            raise ValueError("no checkpoint times: the list of record times is empty")
        return np.unique(self.index(times))


@dataclass(frozen=True)
class DriveSpec:
    """Monochromatic drive f_j(t) = amplitudes[j] * exp(-i carrier t).

    ``amplitudes`` has one complex entry per channel; ``carrier`` is the
    angular frequency of the stimulating field.  A constant drive is
    carrier = 0.
    """

    amplitudes: np.ndarray
    carrier: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", ensure_finite(amps, "drive amplitudes"))
        object.__setattr__(self, "carrier", float(self.carrier))


@dataclass(frozen=True)
class DetectionSpec:
    """Detection unitary family V(t) acting on the channel index.

    kind = "diagonal-phase": V_{ij}(t) = exp(-i nu t) delta_{ij} with local
    oscillator frequency ``nu`` (balanced heterodyne detection).
    kind = "constant-unitary": a fixed J x J unitary ``matrix``.
    """

    kind: str = "diagonal-phase"
    nu: float = 0.0
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in DETECTION_KINDS:
            raise ValueError(f"unknown detection kind {self.kind!r}")
        if self.kind == "constant-unitary":
            if self.matrix is None:
                raise ValueError("constant-unitary detection needs a matrix")
            v = ensure_finite(self.matrix, "detection matrix")
            if v.ndim != 2 or v.shape[0] != v.shape[1]:
                raise ValueError("detection matrix must be square")
            if max_abs(v.conj().T @ v - np.eye(v.shape[0])) > UNITARY_TOL:
                raise ValueError("detection matrix is not unitary")
            object.__setattr__(self, "matrix", v)
        object.__setattr__(self, "nu", float(self.nu))

    def conj_transpose_on(self, times: np.ndarray, nchannels: int) -> np.ndarray:
        """V(t)^dagger for each of ``times``, shape (n, J, J)."""
        if self.kind == "diagonal-phase":
            return np.exp(1j * self.nu * times)[:, None, None] * np.eye(nchannels)
        return np.broadcast_to(self.matrix.conj().T, (len(times), nchannels, nchannels))


@dataclass(frozen=True)
class SystemModel:
    """Physical inputs of a continuously monitored open system.

    Basis convention for two-level examples: index 0 = excited state.
    """

    hamiltonian: np.ndarray
    channels: tuple[np.ndarray, ...]
    drive: DriveSpec
    detection: DetectionSpec
    frame: np.ndarray

    def __post_init__(self):
        h = ensure_finite(self.hamiltonian, "H")
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("H must be square")
        d = h.shape[0]
        if not is_hermitian(h, HERMITIAN_TOL):
            raise ValueError("H must be Hermitian")
        chans = tuple(ensure_finite(L, f"L[{j}]") for j, L in enumerate(self.channels))
        if len(chans) < 1:
            raise ValueError("at least one channel operator is required")
        for j, L in enumerate(chans):
            if L.shape != (d, d):
                raise ValueError(f"L[{j}] has shape {L.shape}, expected {(d, d)}")
        h0 = ensure_finite(self.frame, "H0")
        if h0.shape != (d, d) or not is_hermitian(h0, HERMITIAN_TOL):
            raise ValueError("H0 must be a Hermitian matrix of the system dimension")
        if len(self.drive.amplitudes) != len(chans):
            raise ValueError("drive amplitude count must match channel count")
        if self.detection.kind == "constant-unitary" and self.detection.matrix.shape[0] != len(chans):
            raise ValueError("detection matrix dimension must match channel count")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "frame", h0)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def nchannels(self) -> int:
        return len(self.channels)


def effective_hamiltonian(model: SystemModel) -> np.ndarray:
    """Non-Hermitian effective Hamiltonian H - (i/2) sum_j L_j^* L_j."""
    acc = model.hamiltonian.astype(complex).copy()
    for L in model.channels:
        acc -= 0.5j * (adjoint(L) @ L)
    return acc


class Coefficients:
    """Time-indexed coefficient pair t -> (K(t), [R_j(t)]).

    Immutable and reentrant; the Hermitian frame generator is diagonalized
    once so that e^{+-i H0 t} costs two small matmuls per evaluation.
    """

    def __init__(self, model: SystemModel):
        self.model = model
        self.dim = model.dim
        self.nchannels = model.nchannels
        self._keff = effective_hamiltonian(model)
        self._frame_eigs, self._frame_vecs = np.linalg.eigh(model.frame)
        self._frame_trivial = max_abs(model.frame) == 0.0
        self._lstack = np.stack(model.channels)

    def _frame_rotation(self, t) -> np.ndarray:
        """e^{i H0 t} from the cached eigendecomposition; an array of times
        gives a stack of rotations."""
        phases = np.exp(1j * self._frame_eigs * np.expand_dims(t, -1))
        return (self._frame_vecs * phases[..., None, :]) @ self._frame_vecs.conj().T

    def k_at(self, t: float) -> np.ndarray:
        """K(t), shape (d, d)."""
        return self.k_table(np.array([t], dtype=float))[0]

    def k_table(self, times: np.ndarray) -> np.ndarray:
        """Stacked (n, d, d) array of the K(t) on a time grid."""
        times = np.asarray(times, dtype=float)
        model = self.model
        phase = np.exp(-1j * model.drive.carrier * times)
        core = np.broadcast_to(self._keff - model.frame, (len(times), self.dim, self.dim))
        for amplitude, L in zip(model.drive.amplitudes, model.channels):
            if amplitude != 0:
                # f_j(t) as one scalar-times-grid product per channel: numpy
                # rounds it the same way for every grid length, so each row
                # equals the one-time table k_at builds, bit for bit.
                f = (amplitude * phase)[:, None, None]
                core = core + 1j * (np.conj(f) * L - f * adjoint(L))
        if self._frame_trivial:
            return np.array(core)
        u = self._frame_rotation(times)
        return u @ core @ u.conj().swapaxes(-1, -2)

    def r_at(self, t: float) -> np.ndarray:
        """Stacked (J, d, d) array of the R_j(t)."""
        return self.r_table(np.array([t], dtype=float))[0]

    def r_table(self, times: np.ndarray) -> np.ndarray:
        """Stacked (n, J, d, d) array of the R_j(t) on a time grid."""
        times = np.asarray(times, dtype=float)
        vdag = self.model.detection.conj_transpose_on(times, self.nchannels)
        if self._frame_trivial:
            rotated = np.broadcast_to(self._lstack, (len(times),) + self._lstack.shape)
        else:
            u = self._frame_rotation(times)[:, None]
            rotated = u @ self._lstack @ u.conj().swapaxes(-1, -2)
        return np.einsum("nji,nikl->njkl", vdag, rotated)

    def r_components(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Phase components of R_j: R_j(t) = sum_g exp(i gaps[g] t) ops[g].

        In the frame eigenbasis, entry (a, b) of the detection-mixed coupling
        rotates at the eigen-gap lambda_a - lambda_b; diagonal-phase
        detection adds nu to every gap.  Entries sharing a gap form one
        component, and components that vanish exactly are dropped.
        """
        detection = self.model.detection
        mixed = np.einsum("i,ikl->kl",
                          detection.conj_transpose_on(np.zeros(1), self.nchannels)[0, j],
                          self._lstack)
        vecs = self._frame_vecs
        in_basis = vecs.conj().T @ mixed @ vecs
        gaps, which = np.unique(np.subtract.outer(self._frame_eigs, self._frame_eigs),
                                return_inverse=True)
        masked = (which.reshape(in_basis.shape) == np.arange(len(gaps))[:, None, None]) * in_basis
        keep = masked.any(axis=(1, 2))
        shift = detection.nu if detection.kind == "diagonal-phase" else 0.0
        return gaps[keep] + shift, vecs @ masked[keep] @ vecs.conj().T

    def tabulate(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pair (K table (n, d, d), R table (n, J, d, d)) on a time grid,
        each row as ``k_at`` and ``r_at`` give it at one time: the trajectory
        engine's one source of coefficients, each block of its run grid
        tabulated on its own."""
        return self.k_table(times), self.r_table(times)


def build_coefficients(model: SystemModel) -> Coefficients:
    return Coefficients(model)


@dataclass(frozen=True)
class WeightIdentityReport:
    """Residuals of -i(K^* - K) = sum_j R_j^* R_j on a time grid, each
    passing when at most its bound tol * max(1, max-entry of sum_j R_j^* R_j)."""

    times: np.ndarray
    residuals: np.ndarray
    bounds: np.ndarray

    @property
    def passed(self) -> bool:
        return bool(np.all(self.residuals <= self.bounds))

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def _sum_rr(r: np.ndarray) -> np.ndarray:
    """sum_j R_j^* R_j for R of shape (..., J, d, d)."""
    return np.einsum("...jlk,...jlm->...km", r.conj(), r)


def weight_identity_residual(k: np.ndarray, r: np.ndarray):
    """Max-entry norm of -i(K^* - K) - sum_j R_j^* R_j, for K of shape
    (..., d, d) and R of shape (..., J, d, d): one residual per leading index."""
    lhs = -1j * (adjoint(k) - k)
    return np.abs(lhs - _sum_rr(r)).max(axis=(-2, -1))


def verify_weight_identity(coeffs: Coefficients, times, tol: float = 1e-11) -> WeightIdentityReport:
    """Check the martingale (weight-conservation) identity at each time.

    The residual at t is judged relative to the channels' scale: its bound
    is tol * max(1, max-entry of sum_j R_j^* R_j(t)), since rounding in K
    and R grows with their entries.  A failure is reported, not raised:
    hand-built coefficients may violate the identity on purpose.
    ValueError unless ``tol`` is finite and positive and ``times`` is a
    non-empty list of finite times.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not len(times) or not np.isfinite(times).all():
        raise ValueError(f"times must be a non-empty list of finite times, got {times!r}")
    r = coeffs.r_table(times)
    scale = np.abs(_sum_rr(r)).max(axis=(-2, -1))
    return WeightIdentityReport(times=times,
                                residuals=weight_identity_residual(coeffs.k_table(times), r),
                                bounds=tol * np.maximum(1.0, scale))


@dataclass(frozen=True)
class NormBoundReport:
    """Suprema of ||sum_j R_j^* R_j|| and ||K|| over NORM_BOUND_POINTS points of [0, horizon]."""

    horizon: float
    sup_rr: float
    sup_k: float


def operator_norm_bounds(coeffs: Coefficients, horizon: float) -> NormBoundReport:
    """Coefficient norm bounds on NORM_BOUND_POINTS evenly spaced points of
    [0, horizon]; ValueError unless the horizon is finite and positive."""
    if not 0 < horizon < np.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    times = np.linspace(0.0, horizon, NORM_BOUND_POINTS)
    r = coeffs.r_table(times)
    sup_rr, sup_k = (float(np.linalg.norm(m, 2, axis=(-2, -1)).max())
                     for m in (_sum_rr(r), coeffs.k_table(times)))
    return NormBoundReport(horizon=horizon, sup_rr=sup_rr, sup_k=sup_k)
