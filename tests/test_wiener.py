import numpy as np
import pytest
from scipy.stats import chi2

import qsde.trajectories as trajectories
from qsde.trajectories import generate_wiener


def test_reproducibility_bit_exact():
    a = generate_wiener(7, 0.01, 3, 1)
    b = generate_wiener(7, 0.01, 3, 1)
    assert np.array_equal(a.increments, b.increments)
    assert a.increments.shape == (3, 1)


def test_increments_are_raw_philox_halves_on_three_points():
    """Increment i of a path is half i % 2 of raw word i // 2 of the Philox
    stream keyed (seed, stream), the low half first, taken by value so that
    no byte order enters; it is -a below LO, +a from 2^32 - LO on and 0
    between, with p = LO / 2^32 and a = sqrt(dt / (2p)).  An odd count
    drops the last word's high half.  The law has mean 0 and variance dt."""
    dt, lo = 0.02, trajectories._THREE_POINT_LO
    p = lo / 2**32
    a = np.sqrt(dt / (2.0 * p))
    words = np.random.Philox(key=np.array([5, 3], dtype=np.uint64)).random_raw(32)
    halves = [int(word) >> shift & 0xFFFFFFFF for word in words for shift in (0, 32)][:63]
    signs = [-1 if u < lo else 1 if u >= 2**32 - lo else 0 for u in halves]
    assert set(signs) == {-1, 0, 1}
    path = generate_wiener(5, dt, 21, 3, stream=3)
    assert np.sign(path.increments).ravel().tolist() == signs
    assert np.allclose(np.abs(path.increments)[path.increments != 0], a, rtol=1e-15, atol=0)
    assert 2.0 * p * a**2 == pytest.approx(dt, rel=1e-15)


def test_streams_differ_by_seed_and_index():
    base = generate_wiener(7, 0.01, 100, 2)
    assert not np.array_equal(base.increments, generate_wiener(8, 0.01, 100, 2).increments)
    assert not np.array_equal(base.increments,
                              generate_wiener(7, 0.01, 100, 2, stream=1).increments)


def test_increment_variance_chi2_bound():
    """Sample variance of 1e6 increments inside a 4-sigma-equivalent chi2 band."""
    dt = 0.01
    n = 1_000_000
    path = generate_wiener(123, dt, n, 1)
    s2 = np.var(path.increments, ddof=1)
    lo = dt * chi2.ppf(3.2e-5, n - 1) / (n - 1)
    hi = dt * chi2.ppf(1 - 3.2e-5, n - 1) / (n - 1)
    assert lo <= s2 <= hi
    assert abs(s2 - dt) <= 0.01 * dt


def test_mean_within_five_standard_errors():
    dt = 0.02
    n = 200_000
    path = generate_wiener(9, dt, n, 1)
    se = np.sqrt(dt / n)
    assert abs(path.increments.mean()) <= 5 * se


def test_cross_channel_correlation():
    n = 1_000_000
    path = generate_wiener(31, 0.01, n, 2)
    x, y = path.increments[:, 0], path.increments[:, 1]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) <= 5.0 / np.sqrt(n)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        generate_wiener(1, -0.1, 10, 1)
    with pytest.raises(ValueError):
        generate_wiener(1, 0.1, 0, 1)
    with pytest.raises(ValueError):
        generate_wiener(1, 0.1, 10, 0)
