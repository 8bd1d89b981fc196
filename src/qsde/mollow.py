"""Laser-driven two-level atom under heterodyne detection.

The concrete experiment of this package: an atom of transition frequency
``omega`` is driven by a laser at ``omega0`` and its fluorescence is mixed
with a local oscillator at ``nu``.  Channel 0 is the measured, undriven
channel; scanning nu and recording the output-variance rate
S(nu) = E[W_0(T)^2]/T produces the atom's emission spectrum, which in the
strong-drive resonant regime is the three-peaked Mollow triplet with
sidebands split by the Rabi frequency.

Basis convention: index 0 = excited state, index 1 = ground state, so
H = omega * diag(1, 0) and the lowering operator is [[0, 0], [1, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DetectionSpec, DriveSpec, SystemModel
# spectrum_scan is imported by name only: perfbench/tests/test_tracer.py checks
# that the benchmark's tracer wraps it here too (ROADMAP item 1).
from .statistics import Check, SpectrumScan, judge, spectrum_scan  # noqa: F401

__all__ = [
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "EXCITED_PROJECTOR",
    "MollowConfig",
    "canonical_config",
    "build_mollow_model",
    "rabi_frequency",
    "find_spectrum_peaks",
    "mollow_checks",
]

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
EXCITED_PROJECTOR = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class MollowConfig:
    """Parameters of the driven two-level atom experiment.

    ``alphas`` are the channel couplings (L_j = alphas[j] * sigma_minus,
    total decay rate gamma = sum |alpha_j|^2); ``lambdas`` the drive
    amplitudes with lambda_0 = 0 so the measured channel is undriven.
    """

    omega: float
    omega0: float
    nu: float
    alphas: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=complex).reshape(-1)
        lambdas = np.asarray(self.lambdas, dtype=complex).reshape(-1)
        if len(alphas) != len(lambdas):
            raise ValueError("alphas and lambdas must have the same length")
        if lambdas[0] != 0:
            raise ValueError("the measured channel (index 0) must be undriven")
        if not np.sum(np.abs(alphas) ** 2) > 0:
            raise ValueError("total coupling must be positive")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "lambdas", lambdas)

    @property
    def gamma(self) -> float:
        return float(np.sum(np.abs(self.alphas) ** 2))


def canonical_config(big_omega: float = 5.0, gamma: float = 1.0,
                     omega: float = 10.0, nu: float | None = None) -> MollowConfig:
    """Resonant two-channel configuration with all scales O(1) - O(10).

    Channel 0 is measured and undriven, channel 1 carries the drive; the
    drive phase is chosen so the drive Hamiltonian is proportional to
    sigma_x, which makes the resonant spectrum exactly symmetric about the
    carrier.  ``big_omega`` is the Rabi frequency.
    """
    alpha = np.sqrt(gamma / 2.0)
    lam = 1j * big_omega / (2.0 * alpha)
    return MollowConfig(
        omega=omega, omega0=omega, nu=omega if nu is None else nu,
        alphas=np.array([alpha, alpha]), lambdas=np.array([0.0, lam]))


def build_mollow_model(cfg: MollowConfig) -> SystemModel:
    """Assemble the two-level model: H = omega P_e, L_j = alpha_j sigma_-,
    drive f_j(t) = lambda_j e^{-i omega0 t}, frame H0 = omega0 P_e, and
    diagonal-phase detection at nu."""
    return SystemModel(
        hamiltonian=cfg.omega * EXCITED_PROJECTOR,
        channels=tuple(a * SIGMA_MINUS for a in cfg.alphas),
        drive=DriveSpec(amplitudes=cfg.lambdas, carrier=cfg.omega0),
        detection=DetectionSpec(kind="diagonal-phase", nu=cfg.nu),
        frame=cfg.omega0 * EXCITED_PROJECTOR)


def rabi_frequency(cfg: MollowConfig) -> float:
    """Drive-induced splitting Omega = 2 |sum_j conj(lambda_j) alpha_j|.

    This is the coefficient of the drive term in the rotating-frame
    Hamiltonian; it predicts the sideband offsets and is validated against
    the analytic spectrum peaks rather than assumed.
    """
    return 2.0 * abs(np.sum(np.conj(cfg.lambdas) * cfg.alphas))


def _prominent_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of a finite 1-D array whose topographic
    prominence is at least min_prominence.

    The rules of ``scipy.signal.find_peaks(x, prominence=...)``: a local
    maximum is a strict rise, an optional flat top and a strict fall, and a
    flat top reports its middle index.  A peak's base on each side is the
    minimum of x from the peak out to (not including) the first strictly
    higher value, or to the edge; its prominence is its height minus the
    higher of the two bases.
    """
    n = len(x)
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])   # runs of equal values
    ends = np.r_[starts[1:] - 1, n - 1]
    inner = (starts > 0) & (ends < n - 1)
    starts, ends = starts[inner], ends[inner]
    top = (x[starts - 1] < x[starts]) & (x[ends + 1] < x[ends])
    peaks = (starts[top] + ends[top]) // 2
    if len(peaks) == 0:
        return peaks
    height = x[peaks][:, None]
    idx = np.arange(n)
    left = idx < peaks[:, None]
    higher = x > height
    lo = np.where(higher & left, idx, -1).max(axis=1)[:, None]
    hi = np.where(higher & ~left, idx, n).min(axis=1)[:, None]
    base_l = np.where((idx > lo) & left, x, np.inf).min(axis=1)
    base_r = np.where((idx < hi) & ~left, x, np.inf).min(axis=1)
    prominence = height[:, 0] - np.maximum(base_l, base_r)
    return peaks[prominence >= min_prominence]


def find_spectrum_peaks(nu: np.ndarray, values: np.ndarray,
                        rel_prominence: float = 0.08) -> np.ndarray:
    """Frequencies of local maxima with topographic prominence above
    rel_prominence * (max - min); filters quadrature ripples without
    missing broad peaks.  NaN or inf values raise ValueError."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("spectrum values contain NaN or inf")
    span = float(values.max() - values.min())
    if span == 0.0:
        return np.array([])
    return np.asarray(nu)[_prominent_peaks(values, rel_prominence * span)]


def mollow_checks(cfg: MollowConfig, scan: SpectrumScan, peaks: np.ndarray) -> list[Check]:
    """The Mollow line-shape checks of a scan.

    peak-count: three peaks for a strong drive (Rabi frequency above
    gamma / 2), one otherwise.  sideband-locations (strong drive, three
    peaks found): the outer peaks lie within two grid spacings of
    omega0 -+ Omega.  spectrum-symmetry (resonant drive on a grid symmetric
    about omega0): max |S(nu) - S(2 omega0 - nu)| <= 1e-3 max S.
    """
    omega = rabi_frequency(cfg)
    strong = omega > 0.5 * cfg.gamma
    expected = 3 if strong else 1
    checks = [Check("peak-count", len(peaks) == expected,
                    f"found {len(peaks)}, expected {expected}")]
    if strong and len(peaks) == 3:
        tol = 2 * (scan.nu[1] - scan.nu[0]) + 1e-12
        lo, hi = cfg.omega0 - omega, cfg.omega0 + omega
        found = f"peaks {peaks[0]:.3f}/{peaks[-1]:.3f} vs {lo:.3f}/{hi:.3f}"
        checks.append(judge("sideband-locations", [peaks[0], peaks[-1]], [lo, hi], slack=tol,
                            detail=found)[0])
    grid_sym = np.allclose(scan.nu + scan.nu[::-1], 2 * cfg.omega0, atol=1e-9)
    if cfg.omega == cfg.omega0 and grid_sym:
        asym = float(np.max(np.abs(scan.values - scan.values[::-1])))
        checks.append(judge("spectrum-symmetry", asym, 0.0,
                            slack=1e-3 * float(np.max(scan.values)),
                            detail=f"max asymmetry {asym:.3e}")[0])
    return checks
