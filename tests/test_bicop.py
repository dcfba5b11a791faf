import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats

from vinerisk.bicop import (
    CONTRIB_FLOOR,
    EPS,
    FAMILIES,
    INDEP,
    LOG_FLOOR,
    MASS_FLOOR,
    PairObs,
    ROTATABLE,
    ROTATIONS,
    Bicop,
    bicop_condition,
    bicop_contributions,
    bicop_fit,
    bicop_loglik,
    empirical_tau,
    family_tau_range,
    param_to_tau,
    tau_to_param,
    _FAM,
    _clip,
    _joe_tau,
    _newton_hinv,
)
from vinerisk.errors import NoConvergence

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
    from scipy.stats import multivariate_t

    rho, nu = 0.55, 4.0
    c = Bicop("studentt", 0, (rho, nu))
    from scipy.stats import t as tdist

    pts = [(0.3, 0.7), (0.5, 0.5), (0.1, 0.9)]
    mvt = multivariate_t(loc=[0, 0], shape=[[1, rho], [rho, 1]], df=nu)
    for u, v in pts:
        expected = mvt.cdf([tdist.ppf(u, nu), tdist.ppf(v, nu)])
        assert_allclose(c.cdf(u, v), expected, atol=5e-5)


# ---------------------------------------------------------------------------
# tau <-> parameter maps
# ---------------------------------------------------------------------------


def test_tau_map_frozen_values():
    assert_allclose(tau_to_param("clayton", 0.75), (6.0,), rtol=1e-12)
    assert_allclose(tau_to_param("gumbel", 0.9), (10.0,), rtol=1e-12)
    assert_allclose(tau_to_param("gaussian", 0.5), (math.sin(math.pi / 4),), rtol=1e-12)
    # literature values for the transcendental families
    assert_allclose(tau_to_param("frank", 0.5), (5.736283,), atol=1e-4)
    assert_allclose(param_to_tau(Bicop("joe", 0, (2.0,))), 0.3550659, atol=1e-5)


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

    # discrete u, continuous v: difference of conditional CDFs
    obs = PairObs(u_plus=up, v_plus=vp, u_minus=um, u_disc=True)
    expected = np.log(cop.hfunc(up, vp, "1|2") - cop.hfunc(um, vp, "1|2"))
    assert_allclose(bicop_contributions(cop, obs), expected, rtol=1e-10)

    # continuous u, discrete v
    obs = PairObs(u_plus=up, v_plus=vp, v_minus=vm, v_disc=True)
    expected = np.log(cop.hfunc(up, vp, "2|1") - cop.hfunc(up, vm, "2|1"))
    assert_allclose(bicop_contributions(cop, obs), expected, rtol=1e-10)

    # both discrete: rectangle probability
    obs = PairObs(u_plus=up, v_plus=vp, u_minus=um, v_minus=vm, u_disc=True, v_disc=True)
    rect = cop.cdf(up, vp) - cop.cdf(um, vp) - cop.cdf(up, vm) + cop.cdf(um, vm)
    assert_allclose(bicop_contributions(cop, obs), np.log(rect), rtol=1e-10)


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
    assert_allclose(np.exp(bicop_contributions(cop, obs))[0], mc, atol=0.01)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["gaussian", "clayton", "gumbel", "frank", "joe"])
def test_fit_recovers_tau(family):
    true = make(family, 0, 0.5)
    s = true.sample(2000, np.random.default_rng(13))
    obs = PairObs(u_plus=s[:, 0], v_plus=s[:, 1])
    fit = bicop_fit(family, 0, obs)
    assert abs(fit.tau - 0.5) < 0.05
    assert bicop_loglik(fit, obs) >= bicop_loglik(true, obs) - 1e-6


def test_fit_studentt_recovers_rho():
    true = Bicop("studentt", 0, (0.6, 5.0))
    s = true.sample(3000, np.random.default_rng(21))
    obs = PairObs(u_plus=s[:, 0], v_plus=s[:, 1])
    fit = bicop_fit("studentt", 0, obs)
    assert abs(fit.params[0] - 0.6) < 0.06
    assert 2.05 <= fit.params[1] <= 30.0


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_with_given_tau_is_bitwise_equal(family):
    s = make("gaussian", 0, 0.4).sample(400, np.random.default_rng(5))
    obs = PairObs(u_plus=s[:, 0], v_plus=s[:, 1])
    given = bicop_fit(family, 0, obs, tau=empirical_tau(obs))
    assert given == bicop_fit(family, 0, obs)


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


def _ladder_cdf(cop, u, v):
    u, v = _clip(u), _clip(v)
    fam = _FAM[cop.family]
    if cop.rotation == 0:
        return fam.cdf(u, v, cop.params)
    if cop.rotation == 90:
        return v - fam.cdf(1.0 - u, v, cop.params)
    if cop.rotation == 180:
        return u + v - 1.0 + fam.cdf(1.0 - u, 1.0 - v, cop.params)
    return u - fam.cdf(u, 1.0 - v, cop.params)


def _ladder_logpdf(cop, u, v):
    u, v = _clip(u), _clip(v)
    if cop.rotation == 90:
        u = 1.0 - u
    elif cop.rotation == 180:
        u, v = 1.0 - u, 1.0 - v
    elif cop.rotation == 270:
        v = 1.0 - v
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _FAM[cop.family].logpdf(u, v, cop.params)
    return np.nan_to_num(out, nan=LOG_FLOOR, neginf=LOG_FLOOR, posinf=700.0)


def _ladder_hfunc(cop, u, v, direction):
    u, v = _clip(u), _clip(v)
    h, p, rot = _FAM[cop.family].hfunc, cop.params, cop.rotation
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
        if family != "studentt":  # the t CDF is a quadrature per point
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

    def hfunc(self, x, y, p):
        self.points += np.size(x)
        return self.base.hfunc(x, y, p)

    def logpdf(self, x, y, p):
        if self.const is None:
            return self.base.logpdf(x, y, p)
        return np.full(np.shape(x), self.const)


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
    assert_allclose(_FAM["gumbel"].hfunc(x, y, (2.0,)), q, atol=1e-12)
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
    obs = PairObs(u_plus=up, v_plus=vp)
    assert_array_equal(bicop_contributions(cop, obs), np.maximum(cop.logpdf(up, vp), LOG_FLOOR))
    obs = PairObs(u_plus=up, v_plus=vp, u_minus=um, u_disc=True)
    diff = cop.hfunc(up, vp, "1|2") - cop.hfunc(um, vp, "1|2")
    assert_array_equal(bicop_contributions(cop, obs), np.log(np.maximum(diff, CONTRIB_FLOOR)))
    obs = PairObs(u_plus=up, v_plus=vp, v_minus=vm, v_disc=True)
    diff = cop.hfunc(up, vp, "2|1") - cop.hfunc(up, vm, "2|1")
    assert_array_equal(bicop_contributions(cop, obs), np.log(np.maximum(diff, CONTRIB_FLOOR)))
    if family != "studentt":  # the t CDF is a quadrature per point
        obs = PairObs(u_plus=up, v_plus=vp, u_minus=um, v_minus=vm, u_disc=True, v_disc=True)
        rect = cop.cdf(up, vp) - cop.cdf(up, vm) - cop.cdf(um, vp) + cop.cdf(um, vm)
        assert_array_equal(bicop_contributions(cop, obs), np.log(np.maximum(rect, CONTRIB_FLOOR)))


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
    contrib, given = bicop_condition(cop, obs)
    assert_array_equal(bicop_contributions(cop, obs), _contributions_reference(cop, obs))
    assert_array_equal(contrib, want)
    assert (given.u_disc, given.v_disc) == (u_disc, v_disc)
    assert_array_equal(given.u_plus, want_a.up)
    assert_array_equal(given.u_minus, want_a.lo)
    assert_array_equal(given.v_plus, want_b.up)
    assert_array_equal(given.v_minus, want_b.lo)


def test_mass_total_keeps_one_sum_per_side():
    (up, ulo), (vp, vlo) = _oracle_columns()
    obs = PairObs(u_plus=up, v_plus=vp, u_minus=ulo, v_minus=vlo, u_disc=True, v_disc=True)
    want = 0.0
    want += float(np.sum(np.log(np.maximum(up - ulo, MASS_FLOOR))))
    want += float(np.sum(np.log(np.maximum(vp - vlo, MASS_FLOOR))))
    assert obs.log_mass_total() == want
    assert PairObs.continuous(up, vp).log_mass_total() == 0.0


@pytest.mark.parametrize(
    "u_disc,v_disc,calls",
    [
        (True, True, {"_cdf": 4}),
        (True, False, {"_hfunc": 2, "_cdf": 2}),
        (False, True, {"_hfunc": 2, "_cdf": 2}),
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
