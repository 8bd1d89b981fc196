"""Dense complex linear algebra for small operator spaces.

Operators live on a d-dimensional Hilbert space (d up to a few dozen) and
are stored as dense complex128 numpy arrays.  Superoperators act on
column-vectorized d x d matrices and are stored as d^2 x d^2 arrays.

Vectorization convention (fixed globally): column stacking, so that
vec(A X B) = kron(B.T, A) @ vec(X).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm as _expm

__all__ = [
    "adjoint",
    "commutator",
    "anticommutator",
    "matrix_exp",
    "vectorize",
    "devectorize",
    "is_hermitian",
    "spre",
    "spost",
    "sandwich",
    "max_abs",
    "spectral_norm",
    "ensure_finite",
]


def ensure_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex array, raising if any entry is NaN/Inf."""
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba for square matrices of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"commutator needs equal square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab + ba for square matrices of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"anticommutator needs equal square matrices, got {a.shape} and {b.shape}")
    return a @ b + b @ a


def matrix_exp(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t*m) by scaling-and-squaring (Pade kernel).

    Accuracy is far below the Monte Carlo noise floor of any ensemble
    computation in this package; the self-consistency
    exp(t*m) = (exp(t*m/2))^2 holds to better than 1e-10 for the operator
    scales used here.
    """
    m = ensure_finite(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix_exp needs a square matrix")
    return _expm(t * m)


def vectorize(m: np.ndarray) -> np.ndarray:
    """Column-stack a d x d matrix into a length-d^2 vector.

    Acts on the last two axes, so a stack of matrices gives a stack of
    vectors.
    """
    m = np.asarray(m, dtype=complex)
    return np.swapaxes(m, -1, -2).reshape(m.shape[:-2] + (-1,))


def devectorize(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vectorize`, on the last axis."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != (d * d,):
        raise ValueError(f"shape {v.shape} cannot hold vectorized {d}x{d} matrices")
    return np.swapaxes(v.reshape(v.shape[:-1] + (d, d)), -1, -2)


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff the max-entry norm of m - m^dagger is at most ``tol``."""
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def spre(a: np.ndarray) -> np.ndarray:
    """Superoperator matrix of x -> a x."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    return np.kron(np.eye(d), a)


def spost(b: np.ndarray) -> np.ndarray:
    """Superoperator matrix of x -> x b."""
    b = np.asarray(b, dtype=complex)
    d = b.shape[0]
    return np.kron(b.T, np.eye(d))


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator matrix of x -> a x b."""
    return np.kron(np.asarray(b, dtype=complex).T, np.asarray(a, dtype=complex))


def max_abs(m: np.ndarray) -> float:
    """Max-entry norm."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def spectral_norm(m: np.ndarray) -> float:
    """Operator 2-norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))
