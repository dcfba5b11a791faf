import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats
from scipy.special import gammaln, ndtr, ndtri, stdtr, stdtrit

from vinerisk import bicop as bicop_module
from vinerisk.bicop import (
    CONTRIB_FLOOR,
    EPS,
    FAMILIES,
    INDEP,
    LOG_FLOOR,
    MASS_FLOOR,
    PairObs,
    REFLECTIONS,
    ROTATABLE,
    ROTATIONS,
    TAU_HALF_WIDTH,
    Bicop,
    bicop_condition,
    bicop_contributions,
    bicop_fit,
    bicop_loglik,
    bicop_start,
    empirical_tau,
    family_tau_range,
    tau_to_param,
    _FAM,
    _Args,
    _clip,
    _frank_tau_abs,
    _joe_tau,
    _newton_hinv,
    _search_interval,
    _t_mixture_rule,
    _t_quantile,
)
from vinerisk.bvn import bvn_cdf
from vinerisk.errors import NoConvergence
from vinerisk.optim import minimize_bounded
from vinerisk.margins import OrdinalMargin

ALL_COMBOS = [("gaussian", 0), ("studentt", 0), ("frank", 0)] + [
    (f, r) for f in ROTATABLE for r in (0, 90, 180, 270)
]


def make(family, rotation, tau=0.5):
    return Bicop(family, rotation, tau_to_param(family, tau, rotation))


# ---------------------------------------------------------------------------
# closed-form CDF values, written out naively as an independent route
# ---------------------------------------------------------------------------


def test_clayton_cdf_naive_formula():
    theta = 2.0
    c = Bicop("clayton", 0, (theta,))
    for u, v in [(0.3, 0.7), (0.05, 0.9), (0.5, 0.5)]:
        expected = (u ** -theta + v ** -theta - 1.0) ** (-1.0 / theta)
        assert_allclose(c.cdf(u, v), expected, rtol=1e-12)


def test_gumbel_cdf_naive_formula():
    delta = 2.5
    c = Bicop("gumbel", 0, (delta,))
    for u, v in [(0.3, 0.7), (0.05, 0.9), (0.5, 0.5)]:
        expected = math.exp(
            -(((-math.log(u)) ** delta + (-math.log(v)) ** delta) ** (1.0 / delta))
        )
        assert_allclose(c.cdf(u, v), expected, rtol=1e-12)


def test_frank_cdf_naive_formula():
    theta = 5.0
    c = Bicop("frank", 0, (theta,))
    for u, v in [(0.3, 0.7), (0.05, 0.9), (0.5, 0.5)]:
        num = (math.exp(-theta * u) - 1.0) * (math.exp(-theta * v) - 1.0)
        expected = -math.log(1.0 + num / (math.exp(-theta) - 1.0)) / theta
        assert_allclose(c.cdf(u, v), expected, rtol=1e-12)


def _frank_reference(u, v, theta):
    """C, h(u | v) and log c of Frank's closed forms to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        u, v, t = Decimal(u), Decimal(v), Decimal(theta)
        gu, gv, g1 = ((-t * x).exp() - 1 for x in (u, v, Decimal(1)))
        denom = g1 + gu * gv
        cdf = -(1 + gu * gv / g1).ln() / t
        h = (-t * v).exp() * gu / denom
        logpdf = (-t * g1 * (-t * (u + v)).exp() / denom**2).ln()
        return float(cdf), float(h), float(logpdf)


_FRANK_AXIS = np.array([1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6])


@pytest.mark.parametrize("theta", [20.0, 35.0, -35.0])
def test_frank_against_50_digit_reference(theta):
    # at large theta the closed forms cancel where u + v > 1 unless they
    # are evaluated through radial symmetry
    u, v = (g.ravel() for g in np.meshgrid(_FRANK_AXIS, _FRANK_AXIS))
    ref = np.array([_frank_reference(a, b, theta) for a, b in zip(u, v)])
    c = Bicop("frank", 0, (theta,))
    assert np.max(np.abs(c.cdf(u, v) - ref[:, 0])) <= 1e-9
    assert np.max(np.abs(c.hfunc(u, v, "1|2") - ref[:, 1])) <= 1e-8
    assert np.max(np.abs(c.logpdf(u, v) - ref[:, 2])) <= 1e-7


def test_frank_hinv_round_trip_at_strong_dependence():
    c = Bicop("frank", 0, (35.0,))
    axis = np.concatenate([_FRANK_AXIS, np.linspace(0.0, 1.0, 101)])
    q, cond = (g.ravel() for g in np.meshgrid(axis, axis))
    for direction in ("1|2", "2|1"):
        x = c.hinv(q, cond, direction)
        h = c.hfunc(x, cond, "1|2") if direction == "1|2" else c.hfunc(cond, x, "2|1")
        interior = (x > 1e-8) & (x < 1.0 - 1e-8)
        assert interior.sum() > 0.5 * x.size
        assert np.max(np.abs(h - _clip(q))[interior]) <= 1e-8


def test_joe_cdf_naive_formula():
    delta = 3.0
    c = Bicop("joe", 0, (delta,))
    for u, v in [(0.3, 0.7), (0.05, 0.9), (0.5, 0.5)]:
        a, b = (1.0 - u) ** delta, (1.0 - v) ** delta
        expected = 1.0 - (a + b - a * b) ** (1.0 / delta)
        assert_allclose(c.cdf(u, v), expected, rtol=1e-12)


def test_gaussian_density_at_median():
    # c(1/2, 1/2) = 1/sqrt(1 - rho^2)
    c = Bicop("gaussian", 0, (0.5,))
    assert_allclose(c.pdf(0.5, 0.5), 2.0 / math.sqrt(3.0), rtol=1e-12)


def test_studentt_cdf_against_scipy():
    # scipy's quad of the t density times the conditional CDF: deterministic,
    # unlike multivariate_t.cdf, whose quasi-Monte Carlo estimate is unseeded
    rho, nu = 0.55, 4.0
    c = Bicop("studentt", 0, (rho, nu))
    u, v = np.array([0.3, 0.5, 0.1]), np.array([0.7, 0.5, 0.9])
    assert_allclose(c.cdf(u, v), _quad_studentt_cdf(u, v, rho, nu), atol=5e-5)


@pytest.mark.parametrize(
    "params,u,v",
    [((-0.5, 4.0), 1 - 1e-10, 0.3), ((-0.9, 2.05), 1.0, 0.98), ((0.9, 2.05), 1 - 1e-6, 0.3)],
)
def test_studentt_cdf_with_an_argument_deep_in_the_tail(params, u, v):
    # C(u, v) = v - int_u^1 h(v | w) dw; the integral is below 1e-10 at the
    # first two points and 1.8e-8 at the third, the t's upper tail dependence
    cop = Bicop("studentt", 0, params)
    tail, _ = integrate.quad(
        lambda w: cop.hfunc(w, v, "2|1"), min(u, 1 - EPS), 1 - EPS, epsabs=1e-15
    )
    assert abs(cop.cdf(u, v) - (v - tail)) < 1e-9


#: The clamp edges, 1e-8, 1e-4, their mirrors and an interior grid.  Its
#: 0.49999999999999994 is where scipy's ``stdtrit`` at nu = 4 is off by 1.1e-8.
_T_AXIS = np.concatenate(
    [[EPS, 1e-8, 1e-4], np.linspace(0.01, 0.99, 15), [1 - 1e-4, 1 - 1e-8, 1 - EPS]]
)


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.5, 0.9, -0.9, 0.999, -0.999])
@pytest.mark.parametrize("nu", [2.05, 4.0, 30.0])
def test_studentt_cdf_frechet_bounds_and_margins(rho, nu):
    cop = Bicop("studentt", 0, (rho, nu))
    a, b = (g.ravel() for g in np.meshgrid(_T_AXIS, _T_AXIS))
    c = cop.cdf(a, b)
    assert np.all(c >= np.maximum(a + b - 1.0, 0.0) - 1e-12)
    assert np.all(c <= np.minimum(a, b) + 1e-12)
    assert_allclose(cop.cdf(_T_AXIS, 1 - EPS), _T_AXIS, rtol=0, atol=1e-9)


def _quad_studentt_cdf(u, v, rho, nu):
    """The t copula CDF as one quadrature per point of the t density times
    the conditional CDF: the formula the scale-mixture rule replaced."""
    out = np.empty(np.shape(u))
    scale = math.sqrt(1.0 - rho * rho)
    for i in np.ndindex(out.shape):
        xu = float(stdtrit(nu, u[i]))
        yv = float(stdtrit(nu, v[i]))

        def integrand(t):
            cond = (yv - rho * t) / (scale * math.sqrt((nu + t * t) / (nu + 1.0)))
            return stats.t.pdf(t, nu) * stdtr(nu + 1.0, cond)

        out[i], _ = integrate.quad(integrand, -np.inf, xu, epsabs=1e-12, epsrel=1e-10, limit=200)
    return out


@pytest.mark.parametrize("rho,nu", [(0.45, 5.0), (-0.7, 2.05), (0.95, 4.0), (-0.2, 30.0)])
def test_studentt_cdf_matches_quadrature(rho, nu):
    grid = np.linspace(1e-3, 1 - 1e-3, 9)
    a, b = (g.ravel() for g in np.meshgrid(grid, grid))
    cop = Bicop("studentt", 0, (rho, nu))
    assert_allclose(cop.cdf(a, b), _quad_studentt_cdf(a, b, rho, nu), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# tau <-> parameter maps
# ---------------------------------------------------------------------------


def test_tau_map_frozen_values():
    assert_allclose(tau_to_param("clayton", 0.75), (6.0,), rtol=1e-12)
    assert_allclose(tau_to_param("gumbel", 0.9), (10.0,), rtol=1e-12)
    assert_allclose(tau_to_param("gaussian", 0.5), (math.sin(math.pi / 4),), rtol=1e-12)
    # literature values for the transcendental families
    assert_allclose(tau_to_param("frank", 0.5), (5.736283,), atol=1e-4)
    assert_allclose(Bicop("joe", 0, (2.0,)).tau, 0.3550659, atol=1e-5)


@pytest.mark.parametrize("family,rotation", ALL_COMBOS)
@pytest.mark.parametrize("tau", [0.3, 0.6])
def test_tau_round_trip(family, rotation, tau):
    signed = -tau if rotation in (90, 270) else tau
    cop = make(family, rotation, signed)
    assert_allclose(cop.tau, signed, atol=1e-8)


def test_tau_unattainable():
    with pytest.raises(ValueError):
        tau_to_param("clayton", -0.3)  # needs rotation 90/270
    tau_to_param("clayton", -0.3, rotation=90)  # fine
    with pytest.raises(ValueError):
        tau_to_param("gumbel", 0.99)  # above delta bound's range
    with pytest.raises(ValueError):
        tau_to_param("indep", 0.1)
    with pytest.raises(ValueError):
        tau_to_param("gaussian", -0.3, rotation=90)  # the gaussian is never rotated
    with pytest.raises(ValueError):
        tau_to_param("clayton", 0.3, rotation=45)


# ---------------------------------------------------------------------------
# h-functions and inverses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,rotation", ALL_COMBOS)
def test_hfunc_matches_cdf_derivative(family, rotation):
    cop = make(family, rotation, -0.5 if rotation in (90, 270) else 0.5)
    u = np.array([0.15, 0.4, 0.85])
    v = np.array([0.3, 0.75, 0.6])
    eps = 1e-6
    fd_2g1 = (cop.cdf(u + eps, v) - cop.cdf(u - eps, v)) / (2 * eps)
    assert_allclose(cop.hfunc(u, v, "2|1"), fd_2g1, atol=2e-6)
    fd_1g2 = (cop.cdf(u, v + eps) - cop.cdf(u, v - eps)) / (2 * eps)
    assert_allclose(cop.hfunc(u, v, "1|2"), fd_1g2, atol=2e-6)


@pytest.mark.parametrize("family,rotation", ALL_COMBOS)
def test_pdf_matches_mixed_cdf_difference(family, rotation):
    cop = make(family, rotation, -0.5 if rotation in (90, 270) else 0.5)
    e = 5e-5
    for u, v in [(0.35, 0.6), (0.8, 0.25)]:
        rect = (
            cop.cdf(u + e, v + e)
            - cop.cdf(u - e, v + e)
            - cop.cdf(u + e, v - e)
            + cop.cdf(u - e, v - e)
        ) / (4 * e * e)
        assert_allclose(cop.pdf(u, v), rect, rtol=5e-4, atol=5e-4)


@pytest.mark.parametrize("family,rotation", ALL_COMBOS)
def test_hinv_round_trip(family, rotation):
    cop = make(family, rotation, -0.55 if rotation in (90, 270) else 0.55)
    w = np.linspace(0.02, 0.98, 9)
    cond = np.full_like(w, 0.37)
    # 1|2: recover u given v; 2|1: recover v given u
    u = cop.hinv(w, cond, "1|2")
    assert_allclose(cop.hfunc(u, cond, "1|2"), w, atol=1e-8)
    v = cop.hinv(w, cond, "2|1")
    assert_allclose(cop.hfunc(cond, v, "2|1"), w, atol=1e-8)


def test_gaussian_hinv_closed_form():
    from scipy.stats import norm

    rho = 0.6
    cop = Bicop("gaussian", 0, (rho,))
    w, v = 0.3, 0.7
    expected = norm.cdf(norm.ppf(w) * math.sqrt(1 - rho**2) + rho * norm.ppf(v))
    assert_allclose(cop.hinv(w, v, "2|1"), expected, rtol=1e-9)


# ---------------------------------------------------------------------------
# rotations, checked through sample transformations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ROTATABLE)
def test_rotation_carries_samples(family):
    # if (U,V) ~ C_90 then (1-U, V) ~ C_0, and similarly for 180/270
    n = 4000
    base = make(family, 0, 0.6)
    maps = {
        90: lambda s: np.column_stack([1 - s[:, 0], s[:, 1]]),
        180: lambda s: 1 - s,
        270: lambda s: np.column_stack([s[:, 0], 1 - s[:, 1]]),
    }
    for rot, back in maps.items():
        cop = make(family, rot, -0.6 if rot in (90, 270) else 0.6)
        s = back(cop.sample(n, np.random.default_rng(rot)))
        # compare empirical CDF of the mapped sample with the base CDF
        for u, v in [(0.3, 0.3), (0.5, 0.7), (0.8, 0.5)]:
            emp = np.mean((s[:, 0] <= u) & (s[:, 1] <= v))
            assert abs(emp - base.cdf(u, v)) < 4.0 / math.sqrt(n)


def test_sample_tau_sign_flips_under_rotation():
    for rot, sign in ((0, 1), (90, -1), (180, 1), (270, -1)):
        cop = make("clayton", rot, sign * 0.5)
        s = cop.sample(3000, np.random.default_rng(5))
        obs = PairObs(u_plus=s[:, 0], v_plus=s[:, 1])
        assert abs(empirical_tau(obs) - sign * 0.5) < 0.05


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_COMBOS),
    st.floats(0.05, 0.75),
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
)
def test_frechet_bounds(combo, tau, u, v):
    family, rotation = combo
    signed = -tau if rotation in (90, 270) else tau
    cop = make(family, rotation, signed)
    c = np.asarray(cop.cdf(u, v)).reshape(-1)[0]
    assert max(u + v - 1.0, 0.0) - 1e-9 <= c <= min(u, v) + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.floats(0.02, 0.98), st.floats(0.02, 0.98))
def test_hinv_inverts_h_property(w, u):
    cop = make("frank", 0, 0.4)
    v = float(cop.hinv(w, u, "2|1"))
    assert abs(float(cop.hfunc(u, v, "2|1")) - w) < 1e-7


def test_independence_copula():
    u = np.array([0.2, 0.5, 0.9])
    v = np.array([0.7, 0.5, 0.1])
    assert_allclose(INDEP.cdf(u, v), u * v)
    assert_allclose(INDEP.logpdf(u, v), 0.0)
    assert_allclose(INDEP.hfunc(u, v, "2|1"), v)
    assert_allclose(INDEP.hfunc(u, v, "1|2"), u)
    assert INDEP.npar == 0 and INDEP.tau == 0.0


# ---------------------------------------------------------------------------
# mixed-observation contributions
# ---------------------------------------------------------------------------


def test_contributions_continuous_equals_logpdf():
    cop = make("gumbel", 0, 0.5)
    rng = np.random.default_rng(2)
    u, v = rng.uniform(0.05, 0.95, (2, 40))
    obs = PairObs(u_plus=u, v_plus=v)
    assert_allclose(bicop_contributions(cop, obs), cop.logpdf(u, v), rtol=1e-12)


def test_contributions_discrete_cases():
    cop = make("gaussian", 0, 0.6)
    up, um = np.array([0.7]), np.array([0.4])
    vp, vm = np.array([0.8]), np.array([0.55])

    # discrete u, continuous v: difference of conditional CDFs over u's mass
    obs = PairObs(u_plus=up, v_plus=vp, u_minus=um, u_disc=True)
    expected = np.log(cop.hfunc(up, vp, "1|2") - cop.hfunc(um, vp, "1|2")) - np.log(up - um)
    assert_allclose(bicop_contributions(cop, obs), expected, rtol=1e-10)

    # continuous u, discrete v
    obs = PairObs(u_plus=up, v_plus=vp, v_minus=vm, v_disc=True)
    expected = np.log(cop.hfunc(up, vp, "2|1") - cop.hfunc(up, vm, "2|1")) - np.log(vp - vm)
    assert_allclose(bicop_contributions(cop, obs), expected, rtol=1e-10)

    # both discrete: rectangle probability over both masses
    obs = PairObs(u_plus=up, v_plus=vp, u_minus=um, v_minus=vm, u_disc=True, v_disc=True)
    rect = cop.cdf(up, vp) - cop.cdf(um, vp) - cop.cdf(up, vm) + cop.cdf(um, vm)
    expected = np.log(rect) - np.log(up - um) - np.log(vp - vm)
    assert_allclose(bicop_contributions(cop, obs), expected, rtol=1e-10)


def test_rectangle_probability_matches_monte_carlo():
    cop = make("clayton", 0, 0.5)
    s = cop.sample(40000, np.random.default_rng(8))
    up, um, vp, vm = 0.7, 0.4, 0.8, 0.55
    mc = np.mean((s[:, 0] > um) & (s[:, 0] <= up) & (s[:, 1] > vm) & (s[:, 1] <= vp))
    obs = PairObs(
        u_plus=np.array([up]),
        v_plus=np.array([vp]),
        u_minus=np.array([um]),
        v_minus=np.array([vm]),
        u_disc=True,
        v_disc=True,
    )
    rect = np.exp(bicop_contributions(cop, obs))[0] * (up - um) * (vp - vm)
    assert_allclose(rect, mc, atol=0.01)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["gaussian", "clayton", "gumbel", "frank", "joe"])
def test_fit_recovers_tau(family):
    true = make(family, 0, 0.5)
    s = true.sample(2000, np.random.default_rng(13))
    obs = PairObs(u_plus=s[:, 0], v_plus=s[:, 1])
    fit, _ = bicop_fit(family, 0, obs)
    assert abs(fit.tau - 0.5) < 0.05
    assert bicop_loglik(fit, obs) >= bicop_loglik(true, obs) - 1e-6


def test_fit_studentt_recovers_rho():
    true = Bicop("studentt", 0, (0.6, 5.0))
    s = true.sample(3000, np.random.default_rng(21))
    obs = PairObs(u_plus=s[:, 0], v_plus=s[:, 1])
    fit, _ = bicop_fit("studentt", 0, obs)
    assert abs(fit.params[0] - 0.6) < 0.06
    assert 2.05 <= fit.params[1] <= 30.0


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_with_given_tau_is_bitwise_equal(family):
    s = make("gaussian", 0, 0.4).sample(400, np.random.default_rng(5))
    obs = PairObs(u_plus=s[:, 0], v_plus=s[:, 1])
    given = bicop_fit(family, 0, obs, tau=empirical_tau(obs))
    assert given == bicop_fit(family, 0, obs)


def _discretized_obs(family, rotation, u_disc, v_disc, n=300, levels=4, seed=17):
    """A sample of the combination with each discrete side cut into
    ``levels`` equal-mass codes."""
    tau = -0.4 if rotation in (90, 270) else 0.4
    s = make(family, rotation, tau).sample(n, np.random.default_rng(seed))
    sides = []
    for x, disc in ((s[:, 0], u_disc), (s[:, 1], v_disc)):
        if disc:
            code = np.ceil(x * levels)
            sides.append((code / levels, (code - 1.0) / levels))
        else:
            sides.append((x, None))
    (up, um), (vp, vm) = sides
    return PairObs(up, vp, um, vm, u_disc=u_disc, v_disc=v_disc)


_DISCRETENESS = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize(
    "family,rotation,u_disc,v_disc",
    [
        (family, rotation, u_disc, v_disc)
        for family, rotation in ALL_COMBOS
        for u_disc, v_disc in _DISCRETENESS
        if family != "studentt" or not (u_disc or v_disc)
    ],
)
def test_fit_returns_the_loglik_of_its_copula(family, rotation, u_disc, v_disc):
    obs = _discretized_obs(family, rotation, u_disc, v_disc)
    cop, ll = bicop_fit(family, rotation, obs)
    assert ll == bicop_loglik(cop, obs)


@pytest.mark.parametrize("u_disc,v_disc", _DISCRETENESS)
def test_independence_contributes_zero(u_disc, v_disc):
    obs = _discretized_obs("gaussian", 0, u_disc, v_disc)
    contrib = bicop_contributions(INDEP, obs)
    if u_disc and v_disc:  # the rectangle of u * v rounds apart from the masses
        assert_allclose(contrib, 0.0, rtol=0.0, atol=1e-12)
    else:
        assert_array_equal(contrib, 0.0)
    assert bicop_fit("indep", 0, obs) == (INDEP, bicop_loglik(INDEP, obs))


def test_fit_needs_enough_rows():
    from vinerisk.errors import TooFewObservations

    obs = PairObs(u_plus=np.array([0.1, 0.5]), v_plus=np.array([0.2, 0.6]))
    with pytest.raises(TooFewObservations):
        bicop_fit("gaussian", 0, obs)


@pytest.mark.parametrize("family", ["frank", "gumbel"])
def test_hinv_rejects_unknown_direction(family):
    with pytest.raises(ValueError):
        make(family, 0).hinv(0.5, 0.5, "2-1")


def test_constructor_validation():
    with pytest.raises(ValueError):
        Bicop("gaussian", 90, (0.5,))  # only archimedean tail families rotate
    with pytest.raises(ValueError):
        Bicop("clayton", 45, (2.0,))
    with pytest.raises(ValueError):
        Bicop("gumbel", 0, (0.5,))  # delta below 1
    with pytest.raises(ValueError):
        Bicop("studentt", 0, (0.5, 1.5))  # df too small
    with pytest.raises(ValueError):
        Bicop("frank", 0, (0.0,))


@pytest.mark.parametrize("family,rotation", ALL_COMBOS)
def test_serialization_round_trip(family, rotation):
    cop = make(family, rotation, -0.45 if rotation in (90, 270) else 0.45)
    back = Bicop.from_dict(cop.to_dict())
    assert back == cop
    u, v = 0.3, 0.8
    assert_allclose(back.pdf(u, v), cop.pdf(u, v), rtol=1e-15)


def test_family_tau_ranges():
    # ranges follow directly from the declared parameter bounds
    lo, hi = family_tau_range("clayton")
    assert 0.0 <= lo < 1e-4 and 0.9 < hi < 1.0
    lo, hi = family_tau_range("frank")
    assert lo < -0.85 and hi > 0.85 and lo == -hi
    lo, hi = family_tau_range("gaussian")
    assert lo < -0.99 and hi > 0.99
    assert family_tau_range("gumbel")[0] == 0.0


def test_family_tau_ranges_equal_the_closed_forms():
    # tau at the parameter bounds, exactly as the per-family closed forms
    # that family_tau_range replaced
    gauss = 2.0 / math.pi * math.asin(0.9999)
    t = 2.0 / math.pi * math.asin(0.999)
    frank = _frank_tau_abs(35.0)
    want = {
        "indep": (0.0, 0.0),
        "gaussian": (-gauss, gauss),
        "studentt": (-t, t),
        "clayton": (1e-4 / (1e-4 + 2.0), 28.0 / (28.0 + 2.0)),
        "gumbel": (0.0, 1.0 - 1.0 / 20.0),
        "frank": (-frank, frank),
        "joe": (0.0, _joe_tau(30.0)),
    }
    assert set(want) == set(_FAM)
    for family, (lo, hi) in want.items():
        assert family_tau_range(family) == (lo, hi), family


# ---------------------------------------------------------------------------
# Joe's Kendall tau: closed form against the generator integral
# ---------------------------------------------------------------------------


def _joe_tau_quad(delta):
    """Kendall tau of the Joe copula by quadrature of the generator integral
    ``1 + 4 / delta^2 * int_0^1 log(1 - w) (1 - w) w^(2/delta - 2) dw``."""
    if delta <= 1.0:
        return 0.0
    expo = 2.0 / delta - 2.0

    def integrand(w):
        if w <= 0.0 or w >= 1.0:
            return 0.0
        return math.log1p(-w) * (1.0 - w) * w**expo

    val, _ = integrate.quad(
        integrand, 0.0, 1.0, points=[1e-6, 1e-4, 1e-2, 0.5], limit=500
    )
    return 1.0 + 4.0 * val / delta**2


@pytest.mark.parametrize(
    "delta",
    [1 + 1e-6, 1.01, 1.5, 2 - 1e-5, 2 - 1e-8, 2.0, 2 + 1e-8, 2 + 1e-5, 3.0, 7.3, 15.0, 30.0],
)
def test_joe_tau_closed_form_matches_integral(delta):
    assert abs(_joe_tau(delta) - _joe_tau_quad(delta)) < 1e-9


@pytest.mark.parametrize("tau", [0.01, 0.3, 2.0 - math.pi**2 / 6.0, 0.6, 0.93])
def test_joe_tau_round_trip_against_integral(tau):
    delta = tau_to_param("joe", tau)[0]
    assert abs(_joe_tau_quad(delta) - tau) < 1e-9


# ---------------------------------------------------------------------------
# rotations: the reflection table against the explicit branch ladders
# ---------------------------------------------------------------------------


def _kernel(family, name):
    """``(a, b, p) -> kernel(_Args(a, b), p)`` of ``family``'s ``name`` kernel."""
    kernel = getattr(_FAM[family], name)
    return lambda a, b, p: kernel(_Args(a, b), p)


def _ladder_cdf(cop, u, v):
    u, v = _clip(u), _clip(v)
    cdf = _kernel(cop.family, "cdf_k")
    if cop.rotation == 0:
        return cdf(u, v, cop.params)
    if cop.rotation == 90:
        return v - cdf(1.0 - u, v, cop.params)
    if cop.rotation == 180:
        return u + v - 1.0 + cdf(1.0 - u, 1.0 - v, cop.params)
    return u - cdf(u, 1.0 - v, cop.params)


def _ladder_logpdf(cop, u, v):
    u, v = _clip(u), _clip(v)
    if cop.rotation == 90:
        u = 1.0 - u
    elif cop.rotation == 180:
        u, v = 1.0 - u, 1.0 - v
    elif cop.rotation == 270:
        v = 1.0 - v
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _kernel(cop.family, "logpdf_k")(u, v, cop.params)
    return np.nan_to_num(out, nan=LOG_FLOOR, neginf=LOG_FLOOR, posinf=700.0)


@pytest.mark.parametrize(
    "values",
    [
        np.array([0.5, np.nan, -np.inf, np.inf, -1.0, 1e308]),
        np.array([[np.nan, 2.0], [np.inf, -np.inf]]),
        np.array([0.25, -3.0]),
        np.array(np.nan),
        np.array(np.inf),
        np.array(-np.inf),
        np.array(-2.5),
        np.float64(np.nan),
        np.float64(1.5),
        np.array([]),
    ],
)
def test_logpdf_floors_non_finite_values_as_nan_to_num(monkeypatch, values):
    monkeypatch.setattr(_FAM["gaussian"], "logpdf_k", staticmethod(lambda t, p: values.copy()))
    got = Bicop("gaussian", 0, (0.5,))._logpdf(0.3, 0.6)
    want = np.nan_to_num(values, nan=LOG_FLOOR, neginf=LOG_FLOOR, posinf=700.0)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _ladder_hfunc(cop, u, v, direction):
    u, v = _clip(u), _clip(v)
    h, p, rot = _kernel(cop.family, "hfunc_k"), cop.params, cop.rotation
    if direction == "1|2":
        if rot == 0:
            out = h(u, v, p)
        elif rot == 90:
            out = 1.0 - h(1.0 - u, v, p)
        elif rot == 180:
            out = 1.0 - h(1.0 - u, 1.0 - v, p)
        else:
            out = h(u, 1.0 - v, p)
    else:
        if rot == 0:
            out = h(v, u, p)
        elif rot == 90:
            out = h(v, 1.0 - u, p)
        elif rot == 180:
            out = 1.0 - h(1.0 - v, 1.0 - u, p)
        else:
            out = 1.0 - h(1.0 - v, u, p)
    return np.clip(out, 0.0, 1.0)


def _ladder_hinv(cop, q, cond, direction):
    q, cond = _clip(q), _clip(cond)
    inv, p, rot = _FAM[cop.family].hinv, cop.params, cop.rotation
    if direction == "1|2":
        if rot == 0:
            out = inv(q, cond, p)
        elif rot == 90:
            out = 1.0 - inv(1.0 - q, cond, p)
        elif rot == 180:
            out = 1.0 - inv(1.0 - q, 1.0 - cond, p)
        else:
            out = inv(q, 1.0 - cond, p)
    else:
        if rot == 0:
            out = inv(q, cond, p)
        elif rot == 90:
            out = inv(q, 1.0 - cond, p)
        elif rot == 180:
            out = 1.0 - inv(1.0 - q, 1.0 - cond, p)
        else:
            out = 1.0 - inv(1.0 - q, cond, p)
    return _clip(out)


#: 43 points per axis: the clamp edges, values outside [0, 1] and an interior grid.
_EDGE_AXIS = np.concatenate(
    [
        [-0.5, 0.0, 1e-12, EPS, 2 * EPS, 1e-6],
        np.linspace(0.01, 0.99, 31),
        [1 - 1e-6, 1 - 2 * EPS, 1 - EPS, 1 - 1e-12, 1.0, 1.5],
    ]
)


@pytest.mark.parametrize("family,rotation", ALL_COMBOS)
@pytest.mark.parametrize("tau", [0.3, 0.75])
def test_reflection_table_matches_branch_ladders(family, rotation, tau):
    cop = make(family, rotation, -tau if rotation in (90, 270) else tau)
    a, b = (g.ravel() for g in np.meshgrid(_EDGE_AXIS, _EDGE_AXIS))
    with np.errstate(all="ignore"):
        assert_array_equal(cop.cdf(a, b), _ladder_cdf(cop, a, b))
        assert_array_equal(cop.logpdf(a, b), _ladder_logpdf(cop, a, b))
        for direction in ("1|2", "2|1"):
            assert_array_equal(cop.hfunc(a, b, direction), _ladder_hfunc(cop, a, b, direction))
            assert_array_equal(cop.hinv(a, b, direction), _ladder_hinv(cop, a, b, direction))


# ---------------------------------------------------------------------------
# h-function inversion: safeguarded Newton against the bisection it replaced
# ---------------------------------------------------------------------------


def _bisect_monotone(fun, q, max_iter=200, tol=1e-13):
    """Solve fun(x) = q for x in (0, 1), fun increasing, elementwise: the
    inversion ``Bicop.hinv`` used for Gumbel and Joe before Newton steps."""
    q = np.asarray(q, dtype=float)
    lo = np.full(q.shape, EPS)
    hi = np.full(q.shape, 1.0 - EPS)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        above = fun(mid) > q
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        if np.max(hi - lo) < tol:
            return 0.5 * (lo + hi)
    raise NoConvergence("h-function inversion did not converge in 200 bisections")


def _bisect_hinv(cop, q, cond, direction):
    q, cond = _clip(q), _clip(cond)
    if direction == "1|2":
        return _bisect_monotone(lambda x: _ladder_hfunc(cop, x, cond, "1|2"), q)
    return _bisect_monotone(lambda x: _ladder_hfunc(cop, cond, x, "2|1"), q)


def _newton_cases():
    for family in ("gumbel", "joe"):
        lo, hi = _FAM[family].bounds[0]
        for rotation in ROTATIONS:
            for tau in (0.3, 0.75):
                yield make(family, rotation, -tau if rotation in (90, 270) else tau)
            for delta in (lo, hi):
                yield Bicop(family, rotation, (delta,))


NEWTON_CASES = list(_newton_cases())


@pytest.mark.parametrize(
    "cop", NEWTON_CASES, ids=lambda c: f"{c.family}-{c.rotation}-{c.params[0]:.4g}"
)
def test_newton_hinv_matches_bisection(cop):
    q, cond = (g.ravel() for g in np.meshgrid(_EDGE_AXIS, _EDGE_AXIS))
    for direction in ("1|2", "2|1"):
        x = cop.hinv(q, cond, direction)
        old = _bisect_hinv(cop, q, cond, direction)
        if direction == "1|2":
            h, dens = cop.hfunc(x, cond, "1|2"), cop.pdf(old, cond)
        else:
            h, dens = cop.hfunc(cond, x, "2|1"), cop.pdf(cond, old)
        # Within 1e-11, except where h is so flat that both answers are
        # roots to rounding: there the gap times the density dh/dx, the
        # change in h between them, stays below 1e-13.
        assert np.all(np.abs(x - old) <= 1e-11 + 1e-13 / dens)
        # Round trip wherever the root is interior.  Within 1e-8 of the
        # clamp, h steps by more than 1e-8 between neighbouring doubles or
        # the root lies beyond the clamp, and bisection misses too.
        interior = (old > 1e-8) & (old < 1.0 - 1e-8)
        assert np.max(np.abs(h - _clip(q))[interior]) <= 1e-8


def _bisect_spearman(cop, n, seed):
    w = np.random.default_rng(seed).random((n, 2))
    v = _bisect_hinv(cop, w[:, 1], w[:, 0], "2|1")
    return float(stats.spearmanr(w[:, 0], v).statistic)


@pytest.mark.parametrize("family,delta", [("joe", 2.3270908886114174), ("gumbel", 1.8)])
def test_newton_sampling_keeps_model_spearman(family, delta):
    cop = Bicop(family, 0, (delta,))
    for seed in range(4):
        old = _bisect_spearman(cop, 100_000, seed)
        s = cop.sample(100_000, np.random.default_rng(seed))
        assert abs(stats.spearmanr(s[:, 0], s[:, 1]).statistic - old) <= 1e-12


@pytest.mark.parametrize("family,rotation", ALL_COMBOS)
def test_hinv_nan_in_nan_out(family, rotation):
    cop = make(family, rotation, -0.4 if rotation in (90, 270) else 0.4)
    q = np.array([np.nan, 0.3, 0.6, np.nan])
    cond = np.array([0.5, np.nan, 0.4, np.nan])
    for direction in ("1|2", "2|1"):
        assert np.isnan(cop.hinv(np.nan, 0.5, direction))
        assert np.isnan(cop.hinv(0.5, np.nan, direction))
        out = cop.hinv(q, cond, direction)
        assert_array_equal(np.isnan(out), [True, True, False, True])
        assert out[2] == cop.hinv(0.6, 0.4, direction)


def test_independence_hinv_ignores_the_conditioning_value():
    # the inverse of the independence copula is q whatever the condition
    assert np.isnan(INDEP.hinv(np.nan, 0.5))
    assert INDEP.hinv(0.5, np.nan) == 0.5


class _Stub:
    """A family namespace around ``base`` that counts the points evaluated
    and can replace the density with a constant."""

    def __init__(self, base, logpdf=None):
        self.base, self.const, self.points = base, logpdf, 0

    def hfunc_k(self, t, p):
        self.points += np.size(t.u)
        return self.base.hfunc_k(t, p)

    def logpdf_k(self, t, p):
        if self.const is None:
            return self.base.logpdf_k(t, p)
        return np.full(np.shape(t.u), self.const)


def test_newton_hinv_skips_nan_points():
    stub = _Stub(_FAM["joe"])
    q = np.array([np.nan, 0.3, 0.7, 0.2])
    y = np.array([0.5, np.nan, 0.4, 0.9])
    out = _newton_hinv(stub, q, y, (2.5,))
    assert_array_equal(np.isnan(out), [True, True, False, False])
    single = _Stub(_FAM["joe"])
    _newton_hinv(single, q[2:], y[2:], (2.5,))
    assert stub.points == single.points


@pytest.mark.parametrize("logpdf", [-np.inf, np.inf, np.nan])
def test_newton_hinv_bisects_when_density_is_useless(logpdf):
    # a zero, infinite or NaN density gives no usable Newton step; the
    # bracket still converges, as plain bisection would
    q, y = (g.ravel() for g in np.meshgrid(np.linspace(0.01, 0.99, 9), [0.1, 0.5, 0.9]))
    stub = _Stub(_FAM["gumbel"], logpdf)
    x = _newton_hinv(stub, q, y, (2.0,))
    assert_allclose(_FAM["gumbel"].hfunc_k(_Args(x, y), (2.0,)), q, atol=1e-12)
    assert stub.points >= 40 * q.size


def test_newton_hinv_raises_at_iteration_cap():
    with pytest.raises(NoConvergence):
        _newton_hinv(_FAM["joe"], np.array([0.3, 0.8]), np.array([0.5, 0.2]), (2.5,), 3)


def test_newton_hinv_work_per_draw():
    # the served Joe edge of the benchmark's reference model: bisection
    # spends 44 h-function evaluations per point
    w = np.random.default_rng(0).random((100_000, 2))
    stub = _Stub(_FAM["joe"])
    _newton_hinv(stub, w[:, 1], w[:, 0], (2.3270908886114174,))
    assert stub.points / 100_000 <= 9


def test_newton_hinv_shapes():
    cop = make("gumbel", 90, -0.5)
    scalar = cop.hinv(0.3, 0.6, "2|1")
    assert np.ndim(scalar) == 0 and np.ndim(_newton_hinv(_FAM["joe"], 0.3, 0.6, (2.0,))) == 0
    grid = cop.hinv(np.array([[0.2], [0.5], [0.8]]), np.array([0.1, 0.4, 0.7, 0.9]), "1|2")
    assert grid.shape == (3, 4)
    assert grid[1, 2] == cop.hinv(0.5, 0.7, "1|2")
    assert cop.hinv(np.array([0.2, 0.5]), 0.6).shape == (2,)


@pytest.mark.parametrize("family,rotation", ALL_COMBOS)
def test_contributions_equal_clipped_public_methods(family, rotation):
    # the likelihood path skips the public methods' clip: PairObs has
    # already clipped, and clipping twice changes nothing
    cop = make(family, rotation, -0.45 if rotation in (90, 270) else 0.45)
    rng = np.random.default_rng(4)
    up = np.concatenate([rng.uniform(0.2, 1.0, 30), [1.0, 1.5]])
    um = np.concatenate([up[:30] - rng.uniform(0.0, 0.2, 30), [-0.5, 0.0]])
    vp, vm = up[::-1].copy(), um[::-1].copy()
    log_mass_u = np.log(np.maximum(_clip(up) - _clip(um), MASS_FLOOR))
    log_mass_v = np.log(np.maximum(_clip(vp) - _clip(vm), MASS_FLOOR))
    obs = PairObs(u_plus=up, v_plus=vp)
    assert_array_equal(bicop_contributions(cop, obs), np.maximum(cop.logpdf(up, vp), LOG_FLOOR))
    obs = PairObs(u_plus=up, v_plus=vp, u_minus=um, u_disc=True)
    diff = cop.hfunc(up, vp, "1|2") - cop.hfunc(um, vp, "1|2")
    want = np.log(np.maximum(diff, CONTRIB_FLOOR)) - log_mass_u
    assert_array_equal(bicop_contributions(cop, obs), want)
    obs = PairObs(u_plus=up, v_plus=vp, v_minus=vm, v_disc=True)
    diff = cop.hfunc(up, vp, "2|1") - cop.hfunc(up, vm, "2|1")
    want = np.log(np.maximum(diff, CONTRIB_FLOOR)) - log_mass_v
    assert_array_equal(bicop_contributions(cop, obs), want)
    obs = PairObs(u_plus=up, v_plus=vp, u_minus=um, v_minus=vm, u_disc=True, v_disc=True)
    rect = cop.cdf(up, vp) - cop.cdf(up, vm) - cop.cdf(um, vp) + cop.cdf(um, vm)
    want = np.log(np.maximum(rect, CONTRIB_FLOOR)) - log_mass_u - log_mass_v
    assert_array_equal(bicop_contributions(cop, obs), want)


# ---------------------------------------------------------------------------
# bicop_condition against the vine's former two-module route
# ---------------------------------------------------------------------------


@dataclass
class _Col:
    up: np.ndarray
    lo: np.ndarray
    disc: bool


def _propagate_reference(cop, ca, cb):
    """The vine's conditioning before it moved into bicop_condition."""

    def cond_on(target, other, target_is_u):
        if not other.disc:
            direction = "1|2" if target_is_u else "2|1"

            def h(t):
                return (
                    cop.hfunc(t, other.up, direction)
                    if target_is_u
                    else cop.hfunc(other.up, t, direction)
                )

            up = h(target.up)
            lo = h(target.lo) if target.disc else up
        else:
            mass = np.maximum(other.up - other.lo, MASS_FLOOR)

            def ratio(t):
                if target_is_u:
                    return (cop.cdf(t, other.up) - cop.cdf(t, other.lo)) / mass
                return (cop.cdf(other.up, t) - cop.cdf(other.lo, t)) / mass

            up = ratio(target.up)
            lo = ratio(target.lo) if target.disc else up
        up = np.clip(up, EPS, 1.0 - EPS)
        if target.disc:
            lo = np.minimum(np.clip(lo, EPS, 1.0 - EPS), up)
        else:
            lo = up
        return _Col(up=up, lo=lo, disc=target.disc)

    return cond_on(ca, cb, True), cond_on(cb, ca, False)


def _contributions_reference(cop, obs):
    """bicop_contributions before it shared its terms with bicop_condition."""
    if not obs.u_disc and not obs.v_disc:
        return np.maximum(cop._logpdf(obs.u_plus, obs.v_plus), LOG_FLOOR)
    if obs.u_disc and not obs.v_disc:
        diff = cop._hfunc(obs.u_plus, obs.v_plus, "1|2") - cop._hfunc(
            obs.u_minus, obs.v_plus, "1|2"
        )
        return np.log(np.maximum(diff, CONTRIB_FLOOR))
    if not obs.u_disc and obs.v_disc:
        diff = cop._hfunc(obs.u_plus, obs.v_plus, "2|1") - cop._hfunc(
            obs.u_plus, obs.v_minus, "2|1"
        )
        return np.log(np.maximum(diff, CONTRIB_FLOOR))
    rect = (
        cop._cdf(obs.u_plus, obs.v_plus)
        - cop._cdf(obs.u_plus, obs.v_minus)
        - cop._cdf(obs.u_minus, obs.v_plus)
        + cop._cdf(obs.u_minus, obs.v_minus)
    )
    return np.log(np.maximum(rect, CONTRIB_FLOOR))


def _step_reference(cop, ca, cb):
    """Contributions with the vine's former mass normalisation, and the
    conditioned columns of _propagate_reference."""
    obs = PairObs(
        u_plus=ca.up,
        v_plus=cb.up,
        u_minus=ca.lo if ca.disc else None,
        v_minus=cb.lo if cb.disc else None,
        u_disc=ca.disc,
        v_disc=cb.disc,
    )
    contrib = _contributions_reference(cop, obs)
    if ca.disc:
        contrib = contrib - np.log(np.maximum(ca.up - ca.lo, MASS_FLOOR))
    if cb.disc:
        contrib = contrib - np.log(np.maximum(cb.up - cb.lo, MASS_FLOOR))
    return (contrib, *_propagate_reference(cop, ca, cb)), obs


def _oracle_columns():
    """Columns on a grid reaching the EPS edges, with masses from 0 and
    below MASS_FLOOR up to 0.4, crossed between the two sides."""
    tops = [EPS, 1e-7, 0.05, 0.3, 0.5, 0.8, 0.97, 1.0 - 1e-7, 1.0 - EPS]
    widths = [0.0, 5e-13, 1e-4, 0.1, 0.4]
    up, w = (g.ravel() for g in np.meshgrid(tops, widths))
    lo = np.maximum(up - w, EPS)
    i, j = (g.ravel() for g in np.meshgrid(np.arange(up.size), np.arange(up.size)))
    return (up[i], lo[i]), (up[j], lo[j])


# every combination on continuous pairs; the vine never pairs the
# Student-t with a discrete side
_CONDITION_CASES = [
    (family, rotation, u_disc, v_disc)
    for family, rotation in ALL_COMBOS
    for u_disc, v_disc in [(False, False), (True, False), (False, True), (True, True)]
    if family != "studentt" or not (u_disc or v_disc)
]


@pytest.mark.parametrize("family,rotation,u_disc,v_disc", _CONDITION_CASES)
@pytest.mark.parametrize("tau", [0.3, 0.75])
def test_condition_matches_former_vine_route(family, rotation, u_disc, v_disc, tau):
    cop = make(family, rotation, -tau if rotation in (90, 270) else tau)
    (up, ulo), (vp, vlo) = _oracle_columns()
    ca = _Col(up=up, lo=ulo if u_disc else up, disc=u_disc)
    cb = _Col(up=vp, lo=vlo if v_disc else vp, disc=v_disc)
    (want, want_a, want_b), obs = _step_reference(cop, ca, cb)
    contrib, u_given, v_given = bicop_condition(cop, obs)
    assert_array_equal(bicop_contributions(cop, obs), want)
    assert_array_equal(contrib, want)
    for (plus, minus), ref in ((u_given, want_a), (v_given, want_b)):
        assert_array_equal(plus, ref.up)
        if ref.disc:
            assert_array_equal(minus, ref.lo)
        else:
            assert minus is None


@pytest.mark.parametrize(
    "u_disc,v_disc,calls",
    [
        (True, True, {"_cdf": 1}),
        (True, False, {"_hfunc": 1, "_cdf": 1}),
        (False, True, {"_hfunc": 1, "_cdf": 1}),
        (False, False, {"_logpdf": 1, "_hfunc": 2}),
    ],
)
def test_condition_evaluates_each_copula_term_once(monkeypatch, u_disc, v_disc, calls):
    counts = {}
    for name in ("_cdf", "_hfunc", "_logpdf"):
        method = getattr(Bicop, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] = counts.get(_name, 0) + 1
            return _method(self, *args)

        monkeypatch.setattr(Bicop, name, counted)
    (up, ulo), (vp, vlo) = _oracle_columns()
    obs = PairObs(
        u_plus=up,
        v_plus=vp,
        u_minus=ulo if u_disc else None,
        v_minus=vlo if v_disc else None,
        u_disc=u_disc,
        v_disc=v_disc,
    )
    bicop_condition(make("gumbel", 0, 0.5), obs)
    assert counts == calls


@pytest.mark.parametrize("u_disc,v_disc", [(False, False), (True, False), (False, True), (True, True)])
def test_independence_hands_each_side_on_unchanged(u_disc, v_disc):
    (up, ulo), (vp, vlo) = _oracle_columns()
    obs = PairObs(
        u_plus=up,
        v_plus=vp,
        u_minus=ulo if u_disc else None,
        v_minus=vlo if v_disc else None,
        u_disc=u_disc,
        v_disc=v_disc,
    )
    contrib, u_given, v_given = bicop_condition(INDEP, obs)
    assert_array_equal(contrib, bicop_contributions(INDEP, obs))
    for (plus, minus), side_plus, side_minus, disc in (
        (u_given, obs.u_plus, obs.u_minus, u_disc),
        (v_given, obs.v_plus, obs.v_minus, v_disc),
    ):
        assert_array_equal(plus, side_plus)
        if disc:
            assert_array_equal(minus, side_minus)
        else:
            assert minus is None


def test_independence_keeps_a_binary_side_binary():
    # a binary x 3-level pair: dividing C differences by the masses used to
    # spread the binary side's two values over four
    z = np.random.default_rng(0).standard_normal((500, 2))
    a = np.digitize(z[:, 0], [0.0]) + 1.0
    b = np.digitize(z[:, 1], [-0.5, 0.5]) + 1.0
    ma, mb = OrdinalMargin.fit(a, 2), OrdinalMargin.fit(b, 3)
    obs = PairObs(ma.cdf(a), mb.cdf(b), ma.cdf_left(a), mb.cdf_left(b), u_disc=True, v_disc=True)
    _, (up, um), (vp, vm) = bicop_condition(INDEP, obs)
    assert np.unique(up).size == np.unique(um).size == 2
    assert np.unique(vp).size == np.unique(vm).size == 3


@pytest.mark.parametrize("family,rotation", ALL_COMBOS + [("indep", 0)])
def test_scalar_arguments_give_scalars(family, rotation):
    tau = -0.4 if rotation in (90, 270) else 0.4
    cop = INDEP if family == "indep" else make(family, rotation, tau)
    results = (
        cop.cdf(0.3, 0.6),
        cop.logpdf(0.3, 0.6),
        cop.hfunc(0.3, 0.6, "1|2"),
        cop.hfunc(0.3, 0.6, "2|1"),
        cop.hinv(0.3, 0.6, "1|2"),
        cop.hinv(0.3, 0.6, "2|1"),
    )
    assert [np.shape(r) for r in results] == [()] * len(results)


# ---------------------------------------------------------------------------
# the prepared kernels against the family formulas they were split from
# ---------------------------------------------------------------------------
#
# Each family's logpdf, cdf and hfunc as written before they were split into
# parameter-free transforms (``_Args``) and a kernel, with the copula
# methods, likelihood and conditioning built on them the same way.  The split
# keeps every expression's association order, so the two agree to the bit.


class _RefIndep:
    @staticmethod
    def logpdf(u, v, p):
        return np.zeros(np.broadcast(u, v).shape)

    @staticmethod
    def cdf(u, v, p):
        return u * v

    @staticmethod
    def hfunc(x, y, p):
        return np.broadcast_to(x, np.broadcast(x, y).shape).astype(float)


class _RefGaussian:
    @staticmethod
    def logpdf(u, v, p):
        rho = p[0]
        x, y = ndtri(u), ndtri(v)
        r2 = 1.0 - rho * rho
        return -0.5 * math.log(r2) + (
            2.0 * rho * x * y - rho * rho * (x * x + y * y)
        ) / (2.0 * r2)

    @staticmethod
    def cdf(u, v, p):
        return bvn_cdf(ndtri(u), ndtri(v), p[0])

    @staticmethod
    def hfunc(x, y, p):
        rho = p[0]
        return ndtr((ndtri(x) - rho * ndtri(y)) / math.sqrt(1.0 - rho * rho))


class _RefStudentT:
    @staticmethod
    def logpdf(u, v, p):
        rho, nu = p
        x, y = stdtrit(nu, u), stdtrit(nu, v)
        r2 = 1.0 - rho * rho
        quad_form = (x * x - 2.0 * rho * x * y + y * y) / (nu * r2)
        log_joint = (
            gammaln((nu + 2.0) / 2.0)
            + gammaln(nu / 2.0)
            - 2.0 * gammaln((nu + 1.0) / 2.0)
            - 0.5 * math.log(r2)
        )
        log_joint = log_joint - (nu + 2.0) / 2.0 * np.log1p(quad_form)
        log_margs = -(nu + 1.0) / 2.0 * (np.log1p(x * x / nu) + np.log1p(y * y / nu))
        return log_joint - log_margs

    @staticmethod
    def cdf(u, v, p):
        rho, nu = p
        x, y = _t_quantile(nu, u), _t_quantile(nu, v)
        out = np.zeros(np.broadcast(x, y).shape)
        for s, w in zip(*_t_mixture_rule(nu)):
            out += w * bvn_cdf(x * s, y * s, rho)
        return out[()]

    @staticmethod
    def hfunc(x, y, p):
        rho, nu = p
        tx, ty = stdtrit(nu, x), stdtrit(nu, y)
        scale = np.sqrt((1.0 - rho * rho) * (nu + ty * ty) / (nu + 1.0))
        return stdtr(nu + 1.0, (tx - rho * ty) / scale)


class _RefClayton:
    @staticmethod
    def _log_gen_sum(u, v, theta):
        a = -theta * np.log(u)
        b = -theta * np.log(v)
        m = np.maximum(a, b)
        return m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))

    @classmethod
    def logpdf(cls, u, v, p):
        theta = p[0]
        la = cls._log_gen_sum(u, v, theta)
        return (
            math.log1p(theta)
            - (theta + 1.0) * (np.log(u) + np.log(v))
            - (2.0 + 1.0 / theta) * la
        )

    @classmethod
    def cdf(cls, u, v, p):
        return np.exp(-cls._log_gen_sum(u, v, p[0]) / p[0])

    @classmethod
    def hfunc(cls, x, y, p):
        theta = p[0]
        la = cls._log_gen_sum(x, y, theta)
        return np.exp(-(theta + 1.0) * np.log(y) - (1.0 + 1.0 / theta) * la)


class _RefGumbel:
    @staticmethod
    def _log_s(u, v, delta):
        a = delta * np.log(-np.log(u))
        b = delta * np.log(-np.log(v))
        m = np.maximum(a, b)
        return m + np.log1p(np.exp(np.minimum(a, b) - m))

    @classmethod
    def cdf(cls, u, v, p):
        return np.exp(-np.exp(cls._log_s(u, v, p[0]) / p[0]))

    @classmethod
    def logpdf(cls, u, v, p):
        delta = p[0]
        lx = np.log(-np.log(u))
        ly = np.log(-np.log(v))
        ls = cls._log_s(u, v, delta)
        s_pow = np.exp(ls / delta)
        return (
            -s_pow
            - np.log(u)
            - np.log(v)
            + (delta - 1.0) * (lx + ly)
            + (1.0 / delta - 2.0) * ls
            + np.log(s_pow + delta - 1.0)
        )

    @classmethod
    def hfunc(cls, x, y, p):
        delta = p[0]
        ls = cls._log_s(x, y, delta)
        log_h = (
            -np.exp(ls / delta)
            + (delta - 1.0) * np.log(-np.log(y))
            + (1.0 / delta - 1.0) * ls
            - np.log(y)
        )
        return np.exp(log_h)


class _RefFrank:
    @staticmethod
    def _g(x, theta):
        return np.expm1(-theta * x)

    @staticmethod
    def _lower(u, v):
        up = u + v > 1.0
        return up, np.where(up, 1.0 - u, u), np.where(up, 1.0 - v, v)

    @classmethod
    def cdf(cls, u, v, p):
        theta = p[0]
        up, a, b = cls._lower(u, v)
        gu, gv, g1 = cls._g(a, theta), cls._g(b, theta), cls._g(1.0, theta)
        c = -np.log1p(gu * gv / g1) / theta
        return np.where(up, u + v - 1.0 + c, c)[()]

    @classmethod
    def logpdf(cls, u, v, p):
        theta = p[0]
        _, u, v = cls._lower(u, v)
        gu, gv, g1 = cls._g(u, theta), cls._g(v, theta), cls._g(1.0, theta)
        denom = -g1 - gu * gv
        num = -theta * g1 * np.exp(-theta * (u + v))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(num) - 2.0 * np.log(np.abs(denom))

    @classmethod
    def hfunc(cls, x, y, p):
        theta = p[0]
        up, a, b = cls._lower(x, y)
        gx, gy, g1 = cls._g(a, theta), cls._g(b, theta), cls._g(1.0, theta)
        h = np.exp(-theta * b) * gx / (g1 + gx * gy)
        return np.where(up, 1.0 - h, h)[()]


class _RefJoe:
    @staticmethod
    def _log_t(u, v, delta):
        a = delta * np.log1p(-u)
        b = delta * np.log1p(-v)
        m = np.maximum(a, b)
        return m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(a + b - m))

    @classmethod
    def cdf(cls, u, v, p):
        return 1.0 - np.exp(cls._log_t(u, v, p[0]) / p[0])

    @classmethod
    def logpdf(cls, u, v, p):
        delta = p[0]
        lt = cls._log_t(u, v, delta)
        return (
            (1.0 / delta - 2.0) * lt
            + (delta - 1.0) * (np.log1p(-u) + np.log1p(-v))
            + np.log(delta - 1.0 + np.exp(lt))
        )

    @classmethod
    def hfunc(cls, x, y, p):
        delta = p[0]
        lt = cls._log_t(x, y, delta)
        one_minus_xd = -np.expm1(delta * np.log1p(-x))
        with np.errstate(divide="ignore"):
            log_h = (
                (1.0 / delta - 1.0) * lt
                + (delta - 1.0) * np.log1p(-y)
                + np.log(one_minus_xd)
            )
        return np.exp(log_h)


_REF_FAM = {
    "indep": _RefIndep,
    "gaussian": _RefGaussian,
    "studentt": _RefStudentT,
    "clayton": _RefClayton,
    "gumbel": _RefGumbel,
    "frank": _RefFrank,
    "joe": _RefJoe,
}


def _ref_mirror(x, flip):
    return 1.0 - x if flip else x


class _RefCop:
    """``cop``'s copula methods on the reference formulas."""

    def __init__(self, cop):
        self.fam, self.rotation, self.params = _REF_FAM[cop.family], cop.rotation, cop.params
        self.is_indep = cop.family == "indep"

    def _cdf(self, u, v):
        flip_u, flip_v = REFLECTIONS[self.rotation]
        c = self.fam.cdf(_ref_mirror(u, flip_u), _ref_mirror(v, flip_v), self.params)
        if flip_u and flip_v:
            return u + v - 1.0 + c
        if flip_u or flip_v:
            return (v if flip_u else u) - c
        return c

    def _logpdf(self, u, v):
        flip_u, flip_v = REFLECTIONS[self.rotation]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = self.fam.logpdf(_ref_mirror(u, flip_u), _ref_mirror(v, flip_v), self.params)
        out = np.asarray(out)
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.where(out > 0, 700.0, LOG_FLOOR))
        return out[()] if out.ndim == 0 else out

    def _hfunc(self, u, v, direction):
        flip_u, flip_v = REFLECTIONS[self.rotation]
        u, v = _ref_mirror(u, flip_u), _ref_mirror(v, flip_v)
        target, cond, flip = (u, v, flip_u) if direction == "1|2" else (v, u, flip_v)
        out = self.fam.hfunc(target, cond, self.params)
        return np.clip(_ref_mirror(out, flip), 0.0, 1.0)

    def cdf(self, u, v):
        return self._cdf(_clip(u), _clip(v))

    def logpdf(self, u, v):
        return self._logpdf(_clip(u), _clip(v))

    def hfunc(self, u, v, direction):
        return self._hfunc(_clip(u), _clip(v), direction)

    def likelihood(self, obs):
        up, um, vp, vm = obs.u_plus, obs.u_minus, obs.v_plus, obs.v_minus
        if obs.u_disc and obs.v_disc:
            (cpp, cpm), (cmp_, cmm) = self._cdf(np.stack([up, um])[:, None], np.stack([vp, vm]))
            terms = cpp, cpm, cmp_, cmm
            prob = cpp - cpm - cmp_ + cmm
        elif obs.u_disc:
            terms = tuple(self._hfunc(np.stack([up, um]), vp, "1|2"))
            prob = terms[0] - terms[1]
        elif obs.v_disc:
            terms = tuple(self._hfunc(up, np.stack([vp, vm]), "2|1"))
            prob = terms[0] - terms[1]
        else:
            return np.maximum(self._logpdf(up, vp), LOG_FLOOR), ()
        contrib = np.log(np.maximum(prob, CONTRIB_FLOOR))
        for mass in obs.masses:
            if mass is not None:
                contrib = contrib - np.log(mass)
        return contrib, terms

    def condition(self, obs):
        contrib, terms = self.likelihood(obs)
        up, um, vp, vm = obs.u_plus, obs.u_minus, obs.v_plus, obs.v_minus
        mass_u, mass_v = obs.masses
        if self.is_indep:
            sides = (up, um if obs.u_disc else None), (vp, vm if obs.v_disc else None)
        elif obs.u_disc and obs.v_disc:
            cpp, cpm, cmp_, cmm = terms
            sides = (
                ((cpp - cpm) / mass_v, (cmp_ - cmm) / mass_v),
                ((cpp - cmp_) / mass_u, (cpm - cmm) / mass_u),
            )
        elif obs.u_disc:
            sides = terms, (np.subtract(*self._cdf(np.stack([up, um]), vp)) / mass_u, None)
        elif obs.v_disc:
            sides = (np.subtract(*self._cdf(up, np.stack([vp, vm]))) / mass_v, None), terms
        else:
            sides = (self._hfunc(up, vp, "1|2"), None), (self._hfunc(up, vp, "2|1"), None)
        return contrib, *(
            (_clip(plus), None if minus is None else _clip(np.minimum(minus, plus)))
            for plus, minus in sides
        )


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


#: Parameters at, near and between each family's bounds.
_EDGE_PARAMS = {
    "indep": [()],
    "gaussian": [(-0.9999,), (-0.9998,), (0.35,), (0.9998,), (0.9999,)],
    "studentt": [(-0.999, 2.05), (0.5, 2.0501), (0.5, 5.0), (0.998, 29.99), (0.999, 30.0)],
    "clayton": [(1e-4,), (2e-4,), (1.2,), (27.99,), (28.0,)],
    "gumbel": [(1.0,), (1.0001,), (1.7,), (19.99,), (20.0,)],
    "frank": [(-35.0,), (-34.99,), (-1e-4,), (4.0,), (34.99,), (35.0,)],
    "joe": [(1.0,), (1.0001,), (2.2,), (29.99,), (30.0,)],
}


def _edge_columns(n=40, seed=11):
    """Plus and minus corners of two sides, reaching EPS and 1 - EPS, with
    masses from 0 up to 0.5."""
    rng = np.random.default_rng(seed)
    up = np.concatenate([[EPS, 1.0 - EPS, EPS, 1.0 - EPS, 0.5], rng.uniform(EPS, 1.0, n)])
    um = np.maximum(up - rng.choice([0.0, 1e-13, 1e-4, 0.1, 0.5], up.size), EPS)
    um[:2] = EPS
    return up, um


_KINDS = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize("family,rotation", [("indep", 0)] + ALL_COMBOS)
@pytest.mark.parametrize("u_disc,v_disc", _KINDS)
def test_prepared_kernels_equal_the_reference_formulas_to_the_bit(family, rotation, u_disc, v_disc):
    up, um = _edge_columns(seed=11)
    vp, vm = _edge_columns(seed=12)
    vp[:4], vm[:4] = vp[[1, 0, 0, 1]], vm[[1, 0, 0, 1]]  # cross the EPS edges

    def pair(*memo_rotations):
        out = PairObs(up, vp, um if u_disc else None, vm if v_disc else None, u_disc, v_disc)
        for r in memo_rotations:
            out.kernel_args(r)
        return out

    obs = pair()
    for params in _EDGE_PARAMS[family]:
        cop = Bicop(family, rotation, params)
        ref = _RefCop(cop)
        with np.errstate(all="ignore"):
            want = ref.condition(obs)
            got = bicop_condition(cop, pair())
            # a fresh pair, one whose memo holds this rotation, one that holds another
            for case in (pair(), pair(rotation), pair((rotation + 90) % 360)):
                assert _bits(bicop_loglik(cop, case)) == _bits(float(np.sum(want[0]))), params
            assert _bits(bicop_contributions(cop, pair(rotation))) == _bits(want[0]), params
            assert _bits(got[0]) == _bits(want[0]), params
            for side, ref_side in zip(got[1:], want[1:]):
                assert _bits(side[0]) == _bits(ref_side[0]), params
                assert (side[1] is None) == (ref_side[1] is None)
                if side[1] is not None:
                    assert _bits(side[1]) == _bits(ref_side[1]), params


@pytest.mark.parametrize("family,rotation", [("indep", 0)] + ALL_COMBOS)
def test_public_methods_equal_the_reference_formulas_to_the_bit(family, rotation):
    a, b = (g.ravel() for g in np.meshgrid(_EDGE_AXIS, _EDGE_AXIS))
    for params in _EDGE_PARAMS[family]:
        cop = Bicop(family, rotation, params)
        ref = _RefCop(cop)
        with np.errstate(all="ignore"):
            assert _bits(cop.cdf(a, b)) == _bits(ref.cdf(a, b)), params
            assert _bits(cop.logpdf(a, b)) == _bits(ref.logpdf(a, b)), params
            for direction in ("1|2", "2|1"):
                assert _bits(cop.hfunc(a, b, direction)) == _bits(ref.hfunc(a, b, direction))
            assert _bits(cop.cdf(0.3, EPS)) == _bits(ref.cdf(0.3, EPS))
            assert _bits(cop.logpdf(1.0 - EPS, 0.3)) == _bits(ref.logpdf(1.0 - EPS, 0.3))


# ---------------------------------------------------------------------------
# bicop_fit's search: the tau interval around the start and its widening
# ---------------------------------------------------------------------------


def _counting_searches(monkeypatch):
    """Record the interval of every ``minimize_bounded`` call of ``bicop_fit``."""
    calls, search = [], bicop_module.minimize_bounded

    def counting(func, lo, hi, **kwargs):
        calls.append((lo, hi))
        return search(func, lo, hi, **kwargs)

    monkeypatch.setattr(bicop_module, "minimize_bounded", counting)
    return calls


def _full_range_optimum(family, rotation, obs):
    def neg_ll(t):
        return -bicop_loglik(Bicop(family, rotation, (t,)), obs)

    return minimize_bounded(neg_ll, *_FAM[family].bounds[0])


def test_an_optimum_past_the_interval_widens_the_search(monkeypatch):
    # a Clayton fitted to Gumbel data: the MLE's tau lies more than 0.1
    # below the tau-inversion start's
    s = make("gumbel", 0, 0.6).sample(500, np.random.default_rng(1))
    obs = PairObs(s[:, 0], s[:, 1])
    start = bicop_start("clayton", 0, obs)
    calls = _counting_searches(monkeypatch)
    cop, ll = bicop_fit("clayton", 0, obs, start=start)
    assert calls == [_search_interval("clayton", start[0]), _FAM["clayton"].bounds[0]]
    assert cop.tau < start[0].tau - TAU_HALF_WIDTH
    x, fx = _full_range_optimum("clayton", 0, obs)
    assert cop.params == (x,) and ll == -fx


def test_an_optimum_inside_the_interval_searches_it_alone(monkeypatch):
    s = make("gumbel", 0, 0.6).sample(500, np.random.default_rng(1))
    obs = PairObs(s[:, 0], s[:, 1])
    start = bicop_start("gumbel", 0, obs)
    calls = _counting_searches(monkeypatch)
    cop, ll = bicop_fit("gumbel", 0, obs, start=start)
    lo, hi = _search_interval("gumbel", start[0])
    assert calls == [(lo, hi)] and lo < cop.params[0] < hi
    assert start[0].tau - TAU_HALF_WIDTH == pytest.approx(Bicop("gumbel", 0, (lo,)).tau)
    assert ll >= -_full_range_optimum("gumbel", 0, obs)[1] - 1e-8


def test_interval_ends_past_the_attainable_taus_are_the_bounds():
    lo, hi = _search_interval("gumbel", Bicop("gumbel", 0, (1.05,)))
    assert lo == 1.0 and hi == pytest.approx(1.0 / (1.0 - (1.0 - 1.0 / 1.05 + TAU_HALF_WIDTH)))
    assert _search_interval("clayton", Bicop("clayton", 0, (27.0,)))[1] == 28.0
    lo, hi = _search_interval("gaussian", Bicop("gaussian", 0, (0.1,)))
    assert -0.9999 < lo < 0.0 < hi < 0.9999


def test_a_frank_interval_across_independence_never_evaluates_theta_zero(monkeypatch):
    # the tau target 0 of the lower end is theta = 0 itself, which no Frank
    # copula takes; the search evaluates it as the worst value
    start = Bicop("frank", 0, tau_to_param("frank", TAU_HALF_WIDTH))
    assert _search_interval("frank", start)[0] == 0.0
    s = make("gaussian", 0, 0.1).sample(300, np.random.default_rng(2))
    obs = PairObs(s[:, 0], s[:, 1])
    search, seen = bicop_module.minimize_bounded, []

    def probing(func, lo, hi, **kwargs):
        seen.append(func(0.0))
        return search(func, lo, hi, **kwargs)

    monkeypatch.setattr(bicop_module, "minimize_bounded", probing)
    cop, ll = bicop_fit("frank", 0, obs, start=(start, bicop_loglik(start, obs)))
    assert seen[0] == np.inf and cop.params[0] != 0.0 and np.isfinite(ll)


def test_studentt_searches_log_nu_at_the_start_rho(monkeypatch):
    true = Bicop("studentt", 0, (0.5, 6.0))
    s = true.sample(700, np.random.default_rng(3))
    obs = PairObs(s[:, 0], s[:, 1])
    start = bicop_start("studentt", 0, obs)
    calls = _counting_searches(monkeypatch)
    cop, ll = bicop_fit("studentt", 0, obs, start=start)
    assert calls == [(math.log(2.05), math.log(30.0))]
    assert cop.params[0] == start[0].params[0] and 2.05 < cop.params[1] < 30.0
    assert ll == bicop_loglik(cop, obs)


@pytest.mark.parametrize("u_disc,v_disc", [(False, False), (True, False), (False, True), (True, True)])
def test_condition_reuses_the_transforms_of_the_likelihood(monkeypatch, u_disc, v_disc):
    # a fit leaves the pair's kernel arguments in its memo; conditioning the
    # sides on the fitted copula then computes no transform again
    calls = []

    def counted_ndtri(x):
        calls.append(np.shape(x))
        return ndtri(x)

    (up, ulo), (vp, vlo) = _oracle_columns()
    obs = PairObs(up, vp, ulo if u_disc else None, vlo if v_disc else None, u_disc, v_disc)
    cop = make("gaussian", 0, 0.4)
    bicop_module.bicop_loglik(cop, obs)
    monkeypatch.setattr(bicop_module, "ndtri", counted_ndtri)
    bicop_condition(cop, obs)
    assert calls == []
