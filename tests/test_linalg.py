import numpy as np
import pytest

from qsde.linalg import (
    adjoint,
    anticommutator,
    commutator,
    devectorize,
    is_hermitian,
    matrix_exp,
    max_abs,
    sandwich,
    spost,
    spre,
    vectorize,
)

SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)


def random_matrix(rng, d=3):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_adjoint_basic():
    assert np.array_equal(adjoint(np.eye(2)), np.eye(2))
    assert np.array_equal(adjoint(SIGMA_MINUS), np.array([[0, 1], [0, 0]]))
    assert np.array_equal(adjoint(np.diag([1j, 0])), np.diag([-1j, 0]))


def test_adjoint_involution(rng):
    for _ in range(5):
        m = random_matrix(rng)
        assert np.array_equal(adjoint(adjoint(m)), m)


def test_commutator_cases():
    pe = adjoint(SIGMA_MINUS) @ SIGMA_MINUS
    assert max_abs(commutator(pe, pe)) == 0.0
    # [sigma-, sigma+] = diag(-1, 1) in the (excited, ground) basis
    assert np.array_equal(commutator(SIGMA_MINUS, adjoint(SIGMA_MINUS)), np.diag([-1.0, 1.0]))
    b = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert max_abs(commutator(np.eye(2), b)) == 0.0


def test_commutator_traceless(rng):
    for _ in range(10):
        a, b = random_matrix(rng), random_matrix(rng)
        assert abs(np.trace(commutator(a, b))) <= 1e-12


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_matrix_exp_cases():
    m = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    assert max_abs(matrix_exp(m, 0.0) - np.eye(2)) <= 1e-15
    t = 0.7
    d = matrix_exp(np.diag([1.3j, -0.4j]), t)
    assert max_abs(d - np.diag([np.exp(1.3j * t), np.exp(-0.4j * t)])) <= 1e-14
    rot = matrix_exp(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0)
    expected = np.array([[np.cos(1), np.sin(1)], [-np.sin(1), np.cos(1)]])
    assert max_abs(rot - expected) <= 1e-12


def test_matrix_exp_halving_consistency(rng):
    for _ in range(5):
        m = random_matrix(rng)
        m *= 5.0 / max(np.abs(np.linalg.eigvals(m)))
        full = matrix_exp(m, 1.0)
        half = matrix_exp(m, 0.5)
        assert max_abs(full - half @ half) <= 1e-10 * max(max_abs(full), 1.0)


def test_matrix_exp_inverse(rng):
    for _ in range(5):
        m = random_matrix(rng)
        m *= 5.0 / max(np.abs(np.linalg.eigvals(m)))
        assert max_abs(matrix_exp(m, 1.0) @ matrix_exp(m, -1.0) - np.eye(3)) <= 1e-9


def test_matrix_exp_rejects_nan():
    with pytest.raises(ValueError):
        matrix_exp(np.array([[np.nan, 0], [0, 0]]))


def test_vectorize_convention():
    assert np.array_equal(vectorize(np.eye(2)), np.array([1, 0, 0, 1]))
    assert np.array_equal(vectorize(np.zeros((2, 2))), np.zeros(4))
    # column stacking: [[a, b], [c, d]] -> (a, c, b, d)
    assert np.array_equal(vectorize(np.array([[1, 2], [3, 4]])), np.array([1, 3, 2, 4]))


def test_vectorize_roundtrip_and_linearity(rng):
    m = random_matrix(rng)
    assert np.array_equal(devectorize(vectorize(m), 3), m)
    a, b = random_matrix(rng), random_matrix(rng)
    alpha = 0.3 - 1.7j
    assert np.array_equal(vectorize(alpha * a + b), alpha * vectorize(a) + vectorize(b))
    with pytest.raises(ValueError):
        devectorize(np.zeros(5), 2)


def test_vectorize_acts_on_last_two_axes(rng):
    stack = np.stack([random_matrix(rng) for _ in range(4)]).reshape(2, 2, 3, 3)
    vecs = vectorize(stack)
    assert vecs.shape == (2, 2, 9)
    assert np.array_equal(vecs[1, 0], vectorize(stack[1, 0]))
    assert np.array_equal(devectorize(vecs, 3), stack)
    with pytest.raises(ValueError):
        devectorize(np.zeros((3, 5)), 2)


def test_vectorize_sandwich_identity(rng):
    """vec(A X B) = kron(B.T, A) vec(X), the fixed global convention."""
    a, b, x = (random_matrix(rng) for _ in range(3))
    lhs = vectorize(a @ x @ b)
    rhs = sandwich(a, b) @ vectorize(x)
    assert max_abs(lhs - rhs) <= 1e-12
    assert max_abs(spre(a) @ vectorize(x) - vectorize(a @ x)) <= 1e-12
    assert max_abs(spost(b) @ vectorize(x) - vectorize(x @ b)) <= 1e-12


def test_is_hermitian(rng):
    assert is_hermitian(np.diag([2.5, 0.0]))
    assert not is_hermitian(SIGMA_MINUS)
    m = random_matrix(rng)
    assert is_hermitian(m + adjoint(m), tol=1e-12)


def test_anticommutator():
    pe = np.diag([1.0, 0.0]).astype(complex)
    rho = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
    assert max_abs(anticommutator(pe, rho) - (pe @ rho + rho @ pe)) == 0.0
