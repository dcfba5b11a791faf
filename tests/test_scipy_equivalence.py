"""The package's replacements for ``scipy.stats`` and ``scipy.integrate``
calls against scipy itself: bitwise where they take scipy's own steps, and
within a stated tolerance where the arithmetic differs."""

import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import pdtr, stdtr, stdtrit

from vinerisk.bicop import PairObs, _frank_tau_abs, _t_pdf, _t_quantile, empirical_tau, kendall_tau_b
from vinerisk.diagnostics import conditional_spearman
from vinerisk.latent import midranks
from vinerisk.simulation import poisson_quantile


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _tau_cases(rng, count):
    """Pairs of samples of 2 to 900 rows: continuous, ties on one side, ties
    on both."""
    for i in range(count):
        n = int(rng.integers(2, 901))
        kind = i % 4
        if kind in (0, 2):
            x = rng.normal(size=n)
        else:
            x = rng.integers(0, int(rng.integers(1, 8)), n).astype(float)
        if kind in (0, 1):
            y = x + rng.normal(size=n)
        else:
            y = rng.integers(0, int(rng.integers(1, 8)), n).astype(float)
        yield x, y


def test_kendall_tau_b_is_scipys_to_the_bit():
    rng = np.random.default_rng(20261019)
    for x, y in _tau_cases(rng, 400):
        want = stats.kendalltau(x, y).statistic
        got = kendall_tau_b(x, y)
        if np.isnan(want):
            assert math.isnan(got)
        else:
            assert _bits(got) == _bits(want), (x.size, got, want)


@pytest.mark.parametrize(
    "x, y",
    [([0.0, 1.0], [0.0, 1.0]), ([0.0, 1.0], [1.0, 0.0]), ([0.0, 1.0], [2.0, 2.0]), ([3.0, 3.0], [0.0, 1.0])],
)
def test_kendall_tau_b_on_two_rows(x, y):
    want = stats.kendalltau(x, y).statistic
    got = kendall_tau_b(x, y)
    assert (math.isnan(got) and np.isnan(want)) or _bits(got) == _bits(want)


def test_empirical_tau_of_discrete_midpoints_is_scipys():
    rng = np.random.default_rng(7)
    for n, levels in ((50, 2), (300, 3), (700, 5)):
        codes = rng.integers(1, levels + 1, n)
        cum = np.concatenate(([0.0], np.cumsum(rng.dirichlet(np.ones(levels)))))
        cont = rng.uniform(size=n)
        for u_disc, v_disc in ((True, False), (False, True), (True, True)):
            other = rng.integers(1, levels + 1, n)
            u_plus, u_minus = (cum[codes], cum[codes - 1]) if u_disc else (cont, None)
            v_plus, v_minus = (cum[other], cum[other - 1]) if v_disc else (cont, None)
            obs = PairObs(u_plus, v_plus, u_minus, v_minus, u_disc, v_disc)
            want = stats.kendalltau(*obs.midpoints()).statistic
            assert _bits(empirical_tau(obs)) == _bits(want)


def test_empirical_tau_is_zero_for_a_constant_side():
    u = np.linspace(0.05, 0.95, 30)
    assert empirical_tau(PairObs(u, np.full(30, 0.5))) == 0.0
    assert empirical_tau(PairObs(np.full(30, 0.5), u)) == 0.0


def test_midranks_are_rankdatas_to_the_bit():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 300, 1000):
        for x in (rng.normal(size=n), rng.integers(0, 4, n).astype(float), np.round(rng.normal(size=n), 1)):
            want = stats.rankdata(x)
            got = midranks(x)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_conditional_spearman_is_spearmanrs_to_the_bit():
    rng = np.random.default_rng(5)
    n = 600
    z = rng.integers(1, 5, n)
    x = np.round(rng.normal(size=n), 1)
    y = np.round(x * z + rng.normal(size=n), 1)
    got = conditional_spearman(x, y, z)
    assert set(got) == {1, 2, 3, 4}
    for cat, rho in got.items():
        mask = z == cat
        assert _bits(rho) == _bits(stats.spearmanr(x[mask], y[mask]).statistic)


@pytest.mark.parametrize("lam", [0.3, 2.0, 7.5, 40.0])
def test_poisson_quantile_is_scipys_to_the_bit(lam):
    rng = np.random.default_rng(3)
    # the CDF's own values hit the step down from pdtrik's rounded-up k
    q = np.concatenate(
        [rng.uniform(size=2000), pdtr(np.arange(60), lam), [1e-10, 1e-300, 1.0 - 1e-10, 0.5]]
    )
    q = q[(q > 0.0) & (q < 1.0)]
    want = stats.poisson.ppf(q, lam)
    got = poisson_quantile(q, lam)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nu", [2.05, 2.5, 4.0, 6.0, 11.3, 30.0])
def test_t_density_is_scipys_within_two_ulp(nu):
    x = np.concatenate([np.linspace(-60.0, 60.0, 2401), [0.0, 1e-300, 1e10]])
    want = stats.t.pdf(x, nu)
    assert np.all(np.abs(_t_pdf(x, nu) - want) <= 2.0 * np.spacing(want))
    u = np.linspace(1e-6, 1.0 - 1e-6, 501)
    t = stdtrit(nu, u)
    former = t - (stdtr(nu, t) - u) / stats.t.pdf(t, nu)
    np.testing.assert_allclose(_t_quantile(nu, u), former, rtol=1e-15, atol=0.0)


def test_frank_tau_rule_matches_the_adaptive_quadrature():
    for theta in np.geomspace(0.01, 35.0, 120):
        debye, _ = integrate.quad(lambda t: t / math.expm1(t), 0.0, theta, limit=200)
        former = 1.0 - 4.0 / theta * (1.0 - debye / theta)
        assert abs(_frank_tau_abs(theta) - former) <= 1e-13, theta
