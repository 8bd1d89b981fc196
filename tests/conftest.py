"""Shared fixtures: small reference models used across the suite, and a
cross-check of the peak finder against scipy on every spectrum scan."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.signal import find_peaks

import qsde.cli
import qsde.mollow
import qsde.statistics
from qsde.model import DetectionSpec, DriveSpec, SystemModel, build_coefficients
from qsde.mollow import SIGMA_MINUS, _prominent_peaks, build_mollow_model, canonical_config

ZERO2 = np.zeros((2, 2), dtype=complex)


def simple_model(hamiltonian=None, channels=None, amplitudes=None, carrier=0.0,
                 detection=None, frame=None, dim=2):
    """SystemModel with trivial drive/detection/frame unless overridden."""
    h = ZERO2 if dim == 2 else np.zeros((dim, dim), dtype=complex)
    channels = channels if channels is not None else (np.zeros((dim, dim), dtype=complex),)
    amps = amplitudes if amplitudes is not None else [0.0] * len(channels)
    return SystemModel(
        hamiltonian=h if hamiltonian is None else hamiltonian,
        channels=tuple(channels),
        drive=DriveSpec(amplitudes=np.asarray(amps, dtype=complex), carrier=carrier),
        detection=detection if detection is not None else DetectionSpec(),
        frame=np.zeros((dim, dim)) if frame is None else frame)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


def random_model(rng, d=3, nchan=2):
    """Random model whose K(t) and R_j(t) depend on time (random frame)."""
    channels = tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                     for _ in range(nchan))
    q = np.linalg.qr(rng.normal(size=(nchan, nchan))
                     + 1j * rng.normal(size=(nchan, nchan)))[0]
    detection = DetectionSpec(kind="constant-unitary", matrix=q) if rng.uniform() < 0.5 \
        else DetectionSpec(kind="diagonal-phase", nu=rng.uniform(-3, 3))
    return SystemModel(
        hamiltonian=random_hermitian(rng, d),
        channels=channels,
        drive=DriveSpec(amplitudes=rng.normal(size=nchan) + 1j * rng.normal(size=nchan),
                        carrier=rng.uniform(-5, 5)),
        detection=detection,
        frame=random_hermitian(rng, d))


@pytest.fixture(scope="session")
def mollow_coeffs():
    return build_coefficients(build_mollow_model(canonical_config()))


@pytest.fixture(scope="session")
def decay_coeffs():
    """Pure decay at rate gamma = 1: single channel sigma_minus."""
    return build_coefficients(simple_model(channels=(SIGMA_MINUS,)))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260811)


def assert_peaks_match_scipy(x, rel_prominences=(0.0, 0.02, 0.08, 0.5)):
    """qsde's peak finder gives the indices of scipy.signal.find_peaks at
    each prominence threshold rel * (max - min)."""
    x = np.asarray(x, dtype=float)
    span = float(np.ptp(x)) if len(x) else 0.0
    for rel in rel_prominences:
        threshold = rel * span
        expected, _ = find_peaks(x, prominence=threshold)
        got = _prominent_peaks(x, threshold)
        assert np.array_equal(got, expected), (rel, got, expected, x)


@pytest.fixture(autouse=True)
def _peaks_match_scipy_on_every_scan(request, monkeypatch):
    """Every finite spectrum scan a test makes also checks the peak finder."""
    original = qsde.statistics.spectrum_scan

    def checked(*args, **kwargs):
        scan = original(*args, **kwargs)
        if np.isfinite(scan.values).all():
            assert_peaks_match_scipy(scan.values)
        return scan

    for module in (qsde.statistics, qsde.mollow, qsde.cli, request.module):
        if getattr(module, "spectrum_scan", None) is original:
            monkeypatch.setattr(module, "spectrum_scan", checked)
