"""Shared fixtures: small reference models used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from qsde.model import DetectionSpec, DriveSpec, SystemModel, build_coefficients
from qsde.mollow import SIGMA_MINUS, build_mollow_model, canonical_config

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
