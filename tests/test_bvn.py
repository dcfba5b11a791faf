import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import multivariate_normal, norm

from vinerisk.bvn import bvn_cdf


def test_quadrant_closed_form():
    # P(X<=0, Y<=0) = 1/4 + asin(rho)/(2 pi)
    for rho in (-0.95, -0.5, 0.0, 0.3, 0.8, 0.999):
        expected = 0.25 + np.arcsin(rho) / (2.0 * np.pi)
        assert_allclose(bvn_cdf(0.0, 0.0, rho), expected, rtol=0, atol=1e-14)


def test_marginal_reduction():
    x = np.array([-2.0, -0.5, 0.0, 1.3, 3.0])
    for rho in (-0.7, 0.0, 0.6):
        assert_allclose(bvn_cdf(x, np.inf, rho), norm.cdf(x), atol=1e-15)
        assert_allclose(bvn_cdf(np.inf, x, rho), norm.cdf(x), atol=1e-15)
    assert bvn_cdf(-np.inf, 1.0, 0.5) == 0.0
    assert bvn_cdf(np.inf, np.inf, -0.3) == 1.0


def test_symmetry_in_arguments():
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    for rho in (-0.925, -0.4, 0.2, 0.95):
        assert_allclose(bvn_cdf(x, y, rho), bvn_cdf(y, x, rho), rtol=0, atol=5e-16)


def test_perfect_correlation_limits():
    x = np.array([-1.0, 0.2, 2.0])
    y = np.array([0.5, 0.2, -1.0])
    assert_allclose(bvn_cdf(x, y, 1.0), norm.cdf(np.minimum(x, y)), atol=1e-15)
    expected = np.maximum(norm.cdf(x) + norm.cdf(y) - 1.0, 0.0)
    assert_allclose(bvn_cdf(x, y, -1.0), expected, atol=1e-15)


@pytest.mark.parametrize("rho", [-0.999, -0.926, -0.9, -0.5, 0.0, 0.31, 0.7, 0.924, 0.98, 0.999])
def test_against_scipy(rho):
    # scipy integrates the density independently of the series expansion here
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3.5, 3.5, size=(40, 2))
    mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
    expected = mvn.cdf(pts)
    got = bvn_cdf(pts[:, 0], pts[:, 1], rho)
    assert_allclose(got, expected, rtol=0, atol=5e-15)


def test_monotone_in_rho():
    # positive quadrant dependence: P(X<=x, Y<=y) increases with rho
    rhos = np.linspace(-0.99, 0.99, 45)
    vals = [bvn_cdf(0.3, -0.4, r) for r in rhos]
    assert np.all(np.diff(vals) > 0)


# 6-, 12- and 20-point rules, and the expansion for |rho| >= 0.925
@pytest.mark.parametrize("rho", [0.2, -0.5, 0.8, -0.9, 0.95, -0.97])
def test_a_point_does_not_depend_on_its_batch(rho):
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 600))
    whole = bvn_cdf(x, y, rho)
    assert_array_equal(whole, [bvn_cdf(a, b, rho) for a, b in zip(x, y)])
    order = rng.permutation(x.size)
    assert_array_equal(bvn_cdf(x[order], y[order], rho), whole[order])
