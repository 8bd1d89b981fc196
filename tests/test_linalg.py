import numpy as np
import pytest
from scipy.linalg import expm

from qsde.linalg import (
    adjoint,
    devectorize,
    is_hermitian,
    matrix_exp,
    max_abs,
    sandwich,
    spost,
    spre,
    vectorize,
)
from qsde.master import LindbladPropagator

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


def relative_gap(a, ref):
    """Max-entry difference relative to the largest entry of ``ref``."""
    return max_abs(a - ref) / max_abs(ref)


def test_matrix_exp_matches_scipy_on_random_matrices(rng):
    for n in range(1, 26):
        for norm in np.geomspace(1e-8, 100.0, 11):
            m = random_matrix(rng, n)
            m *= norm / np.abs(m).sum(axis=0).max()
            assert relative_gap(matrix_exp(m), expm(m)) <= 1e-13, (n, norm)


def test_matrix_exp_matches_scipy_on_mollow_generator(mollow_coeffs):
    """e^{hL} of the canonical Mollow generator, ||hL||_1 up to 350.  Both
    routes square up to s = 7 times, each squaring about doubling an error
    of unit roundoff u, so they may differ by 2 * 2^7 u = 2.8e-14."""
    g = LindbladPropagator(mollow_coeffs).generator_at(0.0)
    for h in np.geomspace(5e-3, 50.0, 41):
        assert relative_gap(matrix_exp(g, h), expm(h * g)) <= 2.0 ** 8 * 2.0 ** -53, h


def test_matrix_exp_stack_is_bitwise_per_matrix(rng, mollow_coeffs):
    """Each matrix is scaled and squared on its own, so its exponential is
    the same bits alone, in a stack and in a stack of another shape."""
    for n in (1, 2, 4, 7):
        norms = np.geomspace(1e-6, 80.0, 12)   # from no squaring to 4 squarings
        stack = np.stack([random_matrix(rng, n) for _ in norms])
        stack *= (norms / np.abs(stack).sum(axis=1).max(axis=1))[:, None, None]
        whole = matrix_exp(stack, 0.7)
        assert whole.shape == stack.shape
        for m, e in zip(stack, whole):
            assert np.array_equal(matrix_exp(m, 0.7), e)
        assert np.array_equal(matrix_exp(stack[::-3], 0.7), whole[::-3])
        assert np.array_equal(matrix_exp(stack.reshape(3, 4, n, n), 0.7),
                              whole.reshape(3, 4, n, n))
    g = LindbladPropagator(mollow_coeffs).generator_at(0.0)
    hs = np.array([5e-3, 0.4, 3.0, 50.0])
    for h, e in zip(hs, matrix_exp(hs[:, None, None] * g)):
        assert np.array_equal(matrix_exp(h * g), e)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (2, 3, 3, 2)])
def test_matrix_exp_rejects_non_square(shape):
    with pytest.raises(ValueError, match="square"):
        matrix_exp(np.zeros(shape))


def test_matrix_exp_rejects_nan_in_a_stack():
    stack = np.zeros((5, 3, 3), dtype=complex)
    stack[3, 1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        matrix_exp(stack)
    stack[3, 1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        matrix_exp(stack)


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


def signed_zero_matrix(rng, d):
    """Random complex entries with signed zeros and unit parts mixed in, so that
    products of zeros and negative numbers carry their signs."""
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])
    re = np.where(rng.uniform(size=(d, d)) < 0.5, rng.choice(pool, (d, d)), rng.normal(size=(d, d)))
    im = np.where(rng.uniform(size=(d, d)) < 0.5, rng.choice(pool, (d, d)), rng.normal(size=(d, d)))
    return re + 1j * im


@pytest.mark.parametrize("d", [2, 3, 5])
def test_superoperators_are_bitwise_kron(rng, d):
    """spre, spost and sandwich take the products of np.kron: the same bytes,
    signed zeros included.  On a stack, adjoint and the superoperators give
    each matrix's own result, bit for bit."""
    a, b = signed_zero_matrix(rng, d), signed_zero_matrix(rng, d)
    assert spre(a).tobytes() == np.kron(np.eye(d), a).tobytes()
    assert spost(b).tobytes() == np.kron(b.T, np.eye(d)).tobytes()
    assert sandwich(a, b).tobytes() == np.kron(b.T, a).tobytes()
    assert spre(a).shape == spost(b).shape == sandwich(a, b).shape == (d * d, d * d)
    stack = np.stack([a, b, signed_zero_matrix(rng, d)])
    others = np.stack([signed_zero_matrix(rng, d) for _ in stack])
    for fn, args in ((spre, (stack,)), (spost, (stack,)), (adjoint, (stack,)),
                     (sandwich, (stack, others))):
        stacked = fn(*args)
        assert stacked.shape[0] == len(stack), fn.__name__
        for n, row in enumerate(stacked):
            assert row.tobytes() == fn(*(x[n] for x in args)).tobytes(), (fn.__name__, n)


def test_is_hermitian(rng):
    assert is_hermitian(np.diag([2.5, 0.0]))
    assert not is_hermitian(SIGMA_MINUS)
    m = random_matrix(rng)
    assert is_hermitian(m + adjoint(m), tol=1e-12)
