"""The package's replacements for ``scipy.stats``, ``scipy.integrate`` and
``scipy.optimize`` calls against scipy itself: bitwise where they take
scipy's own steps, and within a stated tolerance where the arithmetic
differs."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats
from scipy.special import pdtr, stdtr, stdtrit

from vinerisk.bicop import (
    PairObs,
    _frank_tau_abs,
    _Joe,
    _joe_tau,
    _t_pdf,
    _t_quantile,
    empirical_tau,
    family_tau_range,
    kendall_tau_b,
)
from vinerisk.diagnostics import conditional_spearman
from vinerisk.latent import midranks
from vinerisk.optim import brentq, minimize_bounded
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
            obs = PairObs(u_plus, v_plus, u_minus, v_minus)
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


def _bounded_cases(rng, count):
    """``(func, lo, hi)``: smooth functions with interior minima, functions
    that are ``+inf`` on part of the interval, minima at either bound and
    flat functions."""
    for i in range(count):
        c = rng.normal(size=4)
        lo, hi = sorted(rng.uniform(-5.0, 5.0, 2))
        kind = i % 5
        if kind == 0:
            yield (lambda x, c=c: c[0] ** 2 * (x - c[1]) ** 2 + c[2] * math.sin(3.0 * x)), lo, hi
        elif kind == 1:
            yield (lambda x, c=c: np.inf if x > c[0] else (x - c[1]) ** 4 + c[2] * x), lo, hi
        elif kind == 2:
            yield (lambda x, c=c: np.float64(abs(c[0]) * x)), lo, hi
        elif kind == 3:
            yield (lambda x, c=c: -abs(c[0]) * x), lo, hi
        else:
            yield (lambda x: 1.0), lo, hi


def test_minimize_bounded_is_scipys_to_the_bit():
    rng = np.random.default_rng(20261019)
    for func, lo, hi in _bounded_cases(rng, 1000):
        with np.errstate(invalid="ignore"):
            want = optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded")
            x, fx = minimize_bounded(func, lo, hi)
        assert (_bits(x), _bits(fx)) == (_bits(want.x), _bits(want.fun)), (lo, hi, x, want.x)


@pytest.mark.parametrize("xatol", [1e-3, 1e-7])
def test_minimize_bounded_with_xatol_is_scipys_to_the_bit(xatol):
    rng = np.random.default_rng(20261020)
    for func, lo, hi in _bounded_cases(rng, 300):
        with np.errstate(invalid="ignore"):
            want = optimize.minimize_scalar(
                func, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
            )
            x, fx = minimize_bounded(func, lo, hi, xatol=xatol)
        assert (_bits(x), _bits(fx)) == (_bits(want.x), _bits(want.fun)), (lo, hi, x, want.x)


def _tau_grid(family):
    lo, hi = family_tau_range(family)
    return np.linspace(1e-3, min(hi, 0.95) - 1e-3, 200)


def test_brentq_inverts_the_joe_and_frank_tau_as_scipy_does():
    lo, hi = _Joe.bounds[0]
    for tau in _tau_grid("joe"):
        f = lambda d, tau=tau: _joe_tau(d) - tau  # noqa: E731
        want = optimize.brentq(f, lo + 1e-9, hi, xtol=1e-10)
        assert _bits(brentq(f, lo + 1e-9, hi, xtol=1e-10)) == _bits(want), tau
    for tau in _tau_grid("frank"):
        f = lambda t, tau=tau: _frank_tau_abs(t) - tau  # noqa: E731
        want = optimize.brentq(f, 1e-6, 35.0, xtol=1e-10)
        assert _bits(brentq(f, 1e-6, 35.0, xtol=1e-10)) == _bits(want), tau


def test_brentq_is_scipys_to_the_bit_on_bracketed_functions():
    rng = np.random.default_rng(7)
    shapes = (
        lambda x, r, s: s * (x - r),
        lambda x, r, s: math.tanh(3.0 * (x - r)),
        lambda x, r, s: math.expm1(x - r),
        lambda x, r, s: math.copysign(abs(x - r) ** 0.3, x - r),
        lambda x, r, s: (x - r) ** 3 + 0.01 * (x - r),
        lambda x, r, s: float(math.floor(4.0 * (x - r))) + 0.5,
    )
    for i in range(1200):
        r = rng.uniform(-3.0, 3.0)
        a, b = r - rng.uniform(0.01, 4.0), r + rng.uniform(0.01, 4.0)
        s = 10.0 ** rng.integers(-200, 200)
        f = lambda x, g=shapes[i % len(shapes)], r=r, s=s: g(x, r, s)  # noqa: E731
        xtol = 10.0 ** rng.uniform(-14.0, -2.0)
        want = optimize.brentq(f, a, b, xtol=xtol)
        assert _bits(brentq(f, a, b, xtol=xtol)) == _bits(want), (i, a, b, r)


def _outcome(solver, f, a, b, xtol):
    try:
        return solver(f, a, b, xtol=xtol)
    except (ValueError, RuntimeError) as err:
        return type(err)


@pytest.mark.parametrize(
    "f, a, b, xtol",
    [
        (lambda x: x - 0.3, 0.3, 1.0, 1e-10),  # a root at the lower end
        (lambda x: x - 1.0, 0.3, 1.0, 1e-10),  # and at the upper end
        (lambda x: x + 1.0, 0.0, 1.0, 1e-10),  # f(a) and f(b) share a sign
        (lambda x: 1e-200, 0.0, 1.0, 1e-10),  # a sign no product may lose
        (lambda x: np.nan if x > 0.5 else x - 0.3, 0.0, 1.0, 1e-10),  # NaN at b
        (lambda x: np.nan if 0.2 < x < 0.4 else x - 0.3, 0.0, 1.0, 1e-10),  # NaN inside
        (lambda x: math.copysign(1.0, x), -1.0, 1.0, 1e-300),  # 100 halvings fall short
    ],
)
def test_brentq_ends_as_scipy_does(f, a, b, xtol):
    want = _outcome(optimize.brentq, f, a, b, xtol)
    got = _outcome(brentq, f, a, b, xtol)
    assert got == want if isinstance(want, type) else _bits(got) == _bits(want)
