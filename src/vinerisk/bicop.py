"""Parametric bivariate copulas ("pair-copulas") with rotations.

Families
--------
``indep``, ``gaussian``, ``studentt`` (continuous pairs only), ``clayton``,
``gumbel``, ``frank`` and ``joe``.  The single-parameter Archimedean
families with asymmetric tail behaviour (``clayton``, ``gumbel``, ``joe``)
support rotations 0/90/180/270; ``frank`` and the elliptical families cover
negative dependence natively and are never rotated.

Rotations are reflections of the unit square (Czado 2019, section 3.8),
kept in one table, ``REFLECTIONS``: rotation -> (mirror u, mirror v).  With
base copula ``C``::

    rotation   mirrors   C_rot(u, v)
    90         u         v - C(1 - u, v)
    180        u, v      u + v - 1 + C(1 - u, 1 - v)
    270        v         u - C(u, 1 - v)

Densities evaluate the base family at the mirrored arguments.  An
h-function or its inverse also mirrors its output (``1 - x``) exactly when
its target argument is mirrored.  Mirroring one axis negates Kendall's tau
(:func:`rotated_tau`); 180 is the survival copula.

Likelihood contributions for pairs with discrete components use CDF finite
differences: one-sided differences of the conditional CDF when one side is
discrete and rectangle probabilities when both are.  The same copula terms
also condition each side on the other for a vine's next tree, both in one
step: :func:`bicop_condition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy import integrate, optimize, stats
from scipy.special import digamma, gammaln, ndtr, ndtri, stdtr, stdtrit, zetac

from .bvn import bvn_cdf
from .errors import NoConvergence, TooFewObservations

#: Clamp applied to all copula arguments.
EPS = 1e-10

#: Floor for individual likelihood contributions before taking logs.
CONTRIB_FLOOR = 1e-300
LOG_FLOOR = math.log(CONTRIB_FLOOR)

#: Floor for a discrete side's probability mass, the denominator of its conditional CDFs.
MASS_FLOOR = 1e-12

FAMILIES = ("indep", "gaussian", "studentt", "clayton", "gumbel", "frank", "joe")

#: Families that admit rotations (asymmetric, positive-dependence base form).
ROTATABLE = ("clayton", "gumbel", "joe")

#: rotation -> (mirror u, mirror v): the reflection that rotates a copula.
REFLECTIONS = {0: (False, False), 90: (True, False), 180: (True, True), 270: (False, True)}
ROTATIONS = tuple(REFLECTIONS)


def _clip(u):
    return np.clip(np.asarray(u, dtype=float), EPS, 1.0 - EPS)


def _mirror(x, flip: bool):
    return 1.0 - x if flip else x


def _newton_hinv(fam, q, y, p, max_iter=100, tol=1e-13):
    """Solve ``fam.hfunc(x, y, p) = q`` for x in [EPS, 1 - EPS], elementwise.

    Safeguarded Newton (``rtsafe``, Press et al., *Numerical Recipes*,
    section 9.4).  The derivative of h in x is the copula density
    ``exp(fam.logpdf(x, y, p))``.  Every point starts at ``q``, the
    independence answer, with the bracket [EPS, 1 - EPS], which each
    evaluation narrows (h increases in x).  A point bisects its bracket
    instead of taking the Newton step when that step is not finite, leaves
    the bracket or is more than half the point's previous step, so it
    converges at least as surely as bisection.  A point retires once its
    step or its bracket is below ``tol`` or its residual is exactly 0; only
    the others are evaluated again.  NaN in ``q`` or ``y`` gives NaN at no
    cost.  ``q`` broadcasts against ``y``; scalars give a scalar.

    Raises
    ------
    NoConvergence
        If a point is still active after ``max_iter`` evaluations.
    """
    q, y = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(y, dtype=float))
    shape = q.shape
    x = np.where(np.isnan(y), np.nan, q).ravel()
    todo = np.flatnonzero(~np.isnan(x))
    xa, qa, ya = x[todo], q.ravel()[todo], y.ravel()[todo]
    lo = np.full(todo.size, EPS)
    hi = np.full(todo.size, 1.0 - EPS)
    step = hi - lo
    for _ in range(max_iter):
        if todo.size == 0:
            return x.reshape(shape)[()]
        with np.errstate(all="ignore"):
            f = fam.hfunc(xa, ya, p) - qa
            dens = np.exp(fam.logpdf(xa, ya, p))
            nxt = np.where(np.isfinite(dens), xa - f / dens, np.nan)
        np.copyto(hi, xa, where=f > 0.0)
        np.copyto(lo, xa, where=f < 0.0)
        bisect = ~((lo <= nxt) & (nxt <= hi) & (np.abs(nxt - xa) <= 0.5 * np.abs(step)))
        np.copyto(nxt, 0.5 * (lo + hi), where=bisect)
        step = nxt - xa
        x[todo] = np.where(f == 0.0, xa, nxt)
        go = (f != 0.0) & (np.abs(step) >= tol) & (hi - lo >= tol)
        del f, dens, bisect  # lowers the peak memory of the compaction below
        todo, xa, qa, ya, lo, hi, step = (a[go] for a in (todo, nxt, qa, ya, lo, hi, step))
    raise NoConvergence(f"h-function inversion did not converge in {max_iter} iterations")


def _check_rotation(family: str, rotation: int) -> None:
    if rotation not in REFLECTIONS:
        raise ValueError(f"rotation must be one of {ROTATIONS}")
    if rotation != 0 and family not in ROTATABLE:
        raise ValueError(f"family {family!r} does not support rotations")


def rotated_tau(tau: float, rotation: int) -> float:
    """Kendall's tau after ``rotation``: mirroring exactly one axis negates
    it.  The map is its own inverse, so it also takes a rotated tau back to
    the base family's."""
    flip_u, flip_v = REFLECTIONS[rotation]
    return -tau if flip_u != flip_v else tau


# ---------------------------------------------------------------------------
# family primitives (base, unrotated parameterization)
#
# Each family namespace provides, on the clamped unit square:
#   logpdf(u, v, p)   log copula density
#   cdf(u, v, p)      C(u, v)
#   hfunc(x, y, p)    conditional CDF P(X <= x | Y = y) = dC/dy  (families
#                     here are exchangeable, so one direction suffices)
#   hinv(q, y, p)     inverse of hfunc in x: closed form, or the safeguarded
#                     Newton solver _newton_hinv (gumbel, joe)
#   tau(p) / par_from_tau(tau)
#   tau_range()       attainable Kendall-tau interval within ``bounds``
# ---------------------------------------------------------------------------


class _Indep:
    name = "indep"
    npar = 0
    bounds = ()

    @staticmethod
    def logpdf(u, v, p):
        return np.zeros(np.broadcast(u, v).shape)

    @staticmethod
    def cdf(u, v, p):
        return u * v

    @staticmethod
    def hfunc(x, y, p):
        return np.broadcast_to(x, np.broadcast(x, y).shape).astype(float)

    @staticmethod
    def hinv(q, y, p):
        return np.broadcast_to(q, np.broadcast(q, y).shape).astype(float)

    @staticmethod
    def tau(p):
        return 0.0

    @staticmethod
    def par_from_tau(tau):
        raise ValueError("independence copula has no parameter")

    @staticmethod
    def tau_range():
        return (0.0, 0.0)


class _Gaussian:
    name = "gaussian"
    npar = 1
    bounds = ((-0.9999, 0.9999),)

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

    @staticmethod
    def hinv(q, y, p):
        rho = p[0]
        return ndtr(ndtri(q) * math.sqrt(1.0 - rho * rho) + rho * ndtri(y))

    @staticmethod
    def tau(p):
        return 2.0 / math.pi * math.asin(p[0])

    @staticmethod
    def par_from_tau(tau):
        return (math.sin(math.pi * tau / 2.0),)

    @classmethod
    def tau_range(cls):
        r = 2.0 / math.pi * math.asin(cls.bounds[0][1])
        return (-r, r)


class _StudentT(_Gaussian):
    """Shares the Gaussian's tau map: Kendall's tau of the t depends on rho
    alone."""

    name = "studentt"
    npar = 2
    bounds = ((-0.999, 0.999), (2.05, 30.0))

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
        ub, vb = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        out = np.empty(ub.shape)
        scale = math.sqrt(1.0 - rho * rho)
        for i in np.ndindex(out.shape):
            xu = float(stdtrit(nu, ub[i]))
            yv = float(stdtrit(nu, vb[i]))

            def integrand(t):
                cond = (yv - rho * t) / (scale * math.sqrt((nu + t * t) / (nu + 1.0)))
                return stats.t.pdf(t, nu) * stdtr(nu + 1.0, cond)

            val, _ = integrate.quad(
                integrand, -np.inf, xu, epsabs=1e-12, epsrel=1e-10, limit=200
            )
            out[i] = val
        return out[()]

    @staticmethod
    def hfunc(x, y, p):
        rho, nu = p
        tx, ty = stdtrit(nu, x), stdtrit(nu, y)
        scale = np.sqrt((1.0 - rho * rho) * (nu + ty * ty) / (nu + 1.0))
        return stdtr(nu + 1.0, (tx - rho * ty) / scale)

    @staticmethod
    def hinv(q, y, p):
        rho, nu = p
        ty = stdtrit(nu, y)
        scale = np.sqrt((1.0 - rho * rho) * (nu + ty * ty) / (nu + 1.0))
        return stdtr(nu, stdtrit(nu + 1.0, q) * scale + rho * ty)

    @staticmethod
    def par_from_tau(tau):
        # tau fixes rho; bicop_fit profiles the degrees of freedom from 5
        return (math.sin(math.pi * tau / 2.0), 5.0)


class _Clayton:
    name = "clayton"
    npar = 1
    bounds = ((1e-4, 28.0),)

    @staticmethod
    def _log_gen_sum(u, v, theta):
        # log(u^-theta + v^-theta - 1), stable for tiny u, v
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

    @staticmethod
    def hinv(q, y, p):
        theta = p[0]
        log_qy = np.log(q) + (theta + 1.0) * np.log(y)
        gen = np.exp(-theta / (theta + 1.0) * log_qy) + 1.0 - np.exp(-theta * np.log(y))
        return np.exp(-np.log(gen) / theta)

    @staticmethod
    def tau(p):
        return p[0] / (p[0] + 2.0)

    @staticmethod
    def par_from_tau(tau):
        return (2.0 * tau / (1.0 - tau),)

    @classmethod
    def tau_range(cls):
        lo, hi = cls.bounds[0]
        return (lo / (lo + 2.0), hi / (hi + 2.0))


class _Gumbel:
    name = "gumbel"
    npar = 1
    bounds = ((1.0, 20.0),)

    @staticmethod
    def _log_s(u, v, delta):
        # log((-log u)^delta + (-log v)^delta)
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

    hinv = classmethod(_newton_hinv)

    @staticmethod
    def tau(p):
        return 1.0 - 1.0 / p[0]

    @staticmethod
    def par_from_tau(tau):
        return (1.0 / (1.0 - tau),)

    @classmethod
    def tau_range(cls):
        return (0.0, 1.0 - 1.0 / cls.bounds[0][1])


class _Frank:
    """Frank is radially symmetric, ``C(u, v) = u + v - 1 + C(1 - u, 1 - v)``.
    Its closed forms cancel catastrophically where ``u + v > 1`` at large
    theta (``g(1) + g(u) g(v)`` nears 0 as a difference of two terms near
    1), so there they are evaluated at the mirrored point instead."""

    name = "frank"
    npar = 1
    bounds = ((-35.0, 35.0),)

    @staticmethod
    def _g(x, theta):
        return np.expm1(-theta * x)

    @staticmethod
    def _lower(u, v):
        # (mask of u + v > 1, u and v mirrored there)
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

    @classmethod
    def hinv(cls, q, y, p):
        # h(x | y) = 1 - h(1 - x | 1 - y), so the inverse is taken at y <= 1/2
        theta = p[0]
        up = y > 0.5
        q, y = np.where(up, 1.0 - q, q), np.where(up, 1.0 - y, y)
        gy, g1 = cls._g(y, theta), cls._g(1.0, theta)
        gx = q * g1 / (np.exp(-theta * y) - q * gy)
        x = -np.log1p(gx) / theta
        return np.where(up, 1.0 - x, x)[()]

    @staticmethod
    def tau(p):
        theta = p[0]
        return math.copysign(_frank_tau_abs(abs(theta)), theta)

    @staticmethod
    def par_from_tau(tau):
        return (math.copysign(_frank_theta_abs(abs(tau)), tau),)

    @classmethod
    def tau_range(cls):
        r = _frank_tau_abs(cls.bounds[0][1])
        return (-r, r)


class _Joe:
    name = "joe"
    npar = 1
    bounds = ((1.0, 30.0),)

    @staticmethod
    def _log_t(u, v, delta):
        # log(ub^d + vb^d - ub^d * vb^d) with ub = 1-u, vb = 1-v
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

    hinv = classmethod(_newton_hinv)

    @staticmethod
    def tau(p):
        return _joe_tau(p[0])

    @staticmethod
    def par_from_tau(tau):
        if tau <= 0.0:
            return (1.0,)
        lo, hi = _Joe.bounds[0]
        return (optimize.brentq(lambda d: _joe_tau(d) - tau, lo + 1e-9, hi, xtol=1e-10),)

    @classmethod
    def tau_range(cls):
        return (0.0, _joe_tau(cls.bounds[0][1]))


@lru_cache(maxsize=512)
def _frank_tau_abs(theta: float) -> float:
    """Kendall tau of the Frank copula for theta > 0 (Debye-1 quadrature)."""
    if theta == 0.0:
        return 0.0
    debye, _ = integrate.quad(lambda t: t / math.expm1(t), 0.0, theta, limit=200)
    return 1.0 - 4.0 / theta * (1.0 - debye / theta)


@lru_cache(maxsize=512)
def _frank_theta_abs(tau: float) -> float:
    if tau <= 0.0:
        raise ValueError("frank copula needs a nonzero tau target")
    hi = _Frank.bounds[0][1]
    if tau >= _frank_tau_abs(hi):
        raise ValueError(f"tau {tau} not attainable by the frank copula")
    return optimize.brentq(lambda t: _frank_tau_abs(t) - tau, 1e-6, hi, xtol=1e-10)


def _joe_tau(delta: float) -> float:
    """Kendall tau of the Joe copula in closed form (Joe 2014, section 4.7):

        tau = 1 + 2 / (2 - delta) * (psi(2) - psi(2 / delta + 1))

    with psi the digamma function.  The removable singularity at delta = 2
    is handled by the series of the difference quotient in h = 2/delta - 1,
    (psi(2 + h) - psi(2)) / h = sum_k zetac(k + 1) (-h)^(k - 1), which gives
    tau = 1 - (1 + h) * sum near delta = 2 (tau(2) = 2 - pi^2 / 6).
    """
    if delta <= 1.0:
        return 0.0
    if abs(delta - 2.0) < 1e-2:
        h = (2.0 - delta) / delta
        quotient = sum(zetac(k + 1.0) * (-h) ** (k - 1) for k in range(1, 10))
        return 1.0 - (1.0 + h) * quotient
    return 1.0 + 2.0 / (2.0 - delta) * (digamma(2.0) - digamma(2.0 / delta + 1.0))


_FAM = {
    f.name: f for f in (_Indep, _Gaussian, _StudentT, _Clayton, _Gumbel, _Frank, _Joe)
}


def family_tau_range(family: str) -> tuple[float, float]:
    """Attainable Kendall-tau interval of the base (unrotated) family."""
    return _FAM[family].tau_range()


# ---------------------------------------------------------------------------
# rotation-aware copula object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bicop:
    """A bivariate copula: family, rotation and parameter vector."""

    family: str
    rotation: int = 0
    params: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.family not in _FAM:
            raise ValueError(f"unknown copula family {self.family!r}")
        _check_rotation(self.family, self.rotation)
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        fam = _FAM[self.family]
        if len(params) != fam.npar:
            raise ValueError(
                f"{self.family} expects {fam.npar} parameter(s), got {len(params)}"
            )
        for p, (lo, hi) in zip(params, fam.bounds):
            if not lo <= p <= hi:
                raise ValueError(
                    f"{self.family} parameter {p} outside [{lo}, {hi}]"
                )
        if self.family == "frank" and params[0] == 0.0:
            raise ValueError("frank copula parameter must be nonzero")

    # -- core surface ------------------------------------------------------
    # The public methods clip their arguments into [EPS, 1 - EPS].  The
    # likelihood calls the unclipped ``_cdf``, ``_logpdf`` and ``_hfunc`` on
    # ``PairObs`` columns, which are clipped once at construction.

    def cdf(self, u, v):
        return self._cdf(_clip(u), _clip(v))

    def _cdf(self, u, v):
        flip_u, flip_v = REFLECTIONS[self.rotation]
        c = _FAM[self.family].cdf(_mirror(u, flip_u), _mirror(v, flip_v), self.params)
        if flip_u and flip_v:
            return u + v - 1.0 + c
        if flip_u or flip_v:
            return (v if flip_u else u) - c
        return c

    def logpdf(self, u, v):
        return self._logpdf(_clip(u), _clip(v))

    def _logpdf(self, u, v):
        flip_u, flip_v = REFLECTIONS[self.rotation]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _FAM[self.family].logpdf(_mirror(u, flip_u), _mirror(v, flip_v), self.params)
        return np.nan_to_num(out, nan=LOG_FLOOR, neginf=LOG_FLOOR, posinf=700.0)

    def pdf(self, u, v):
        return np.exp(self.logpdf(u, v))

    def _target_first(self, u, v, direction):
        """``(target, conditioning, target mirrored)`` of an h-function call
        on ``(u, v)``, each argument mirrored as the rotation says."""
        flip_u, flip_v = REFLECTIONS[self.rotation]
        u, v = _mirror(u, flip_u), _mirror(v, flip_v)
        if direction == "1|2":
            return u, v, flip_u
        if direction == "2|1":
            return v, u, flip_v
        raise ValueError("direction must be '1|2' or '2|1'")

    def hfunc(self, u, v, direction="1|2"):
        """Conditional CDF: ``1|2`` is P(U <= u | V = v), ``2|1`` the reverse."""
        return self._hfunc(_clip(u), _clip(v), direction)

    def _hfunc(self, u, v, direction):
        target, cond, flip = self._target_first(u, v, direction)
        out = _FAM[self.family].hfunc(target, cond, self.params)
        return np.clip(_mirror(out, flip), 0.0, 1.0)

    def hinv(self, q, cond, direction="1|2"):
        """Inverse of :meth:`hfunc` in its first ("target") argument.

        For ``1|2`` returns the u with ``hfunc(u, cond) = q``; for ``2|1``
        the v with ``hfunc(cond, v, "2|1") = q``.  The base family's inverse
        is taken at the mirrored arguments: in closed form, or for Gumbel
        and Joe by safeguarded Newton steps whose derivative is the base
        density (:func:`_newton_hinv`).  NaN in ``q`` or ``cond`` gives NaN.
        """
        q, cond = _clip(q), _clip(cond)
        uv = (q, cond) if direction == "1|2" else (cond, q)
        q, cond, flip = self._target_first(*uv, direction)
        return _clip(_mirror(_FAM[self.family].hinv(q, cond, self.params), flip))

    @property
    def tau(self) -> float:
        """Kendall's tau implied by the parameters (sign follows rotation)."""
        return rotated_tau(_FAM[self.family].tau(self.params), self.rotation)

    @property
    def npar(self) -> int:
        return _FAM[self.family].npar

    def sample(self, n, rng):
        """Draw ``n`` pairs by conditional inversion."""
        w = rng.random((n, 2))
        u = w[:, 0]
        v = self.hinv(w[:, 1], u, "2|1")
        return np.column_stack([u, v])

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "rotation": self.rotation,
            "params": list(self.params),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Bicop":
        return cls(
            family=obj["family"],
            rotation=int(obj.get("rotation", 0)),
            params=tuple(obj.get("params", ())),
        )


INDEP = Bicop("indep")


def tau_to_param(family: str, tau: float, rotation: int = 0) -> tuple:
    """Parameters whose Kendall tau matches ``tau`` under the given rotation.

    Raises
    ------
    ValueError
        If the family does not take the rotation, or ``tau`` is not
        attainable by the family/rotation combination.
    """
    if family not in _FAM:
        raise ValueError(f"unknown copula family {family!r}")
    if family == "indep":
        raise ValueError("independence copula has no parameter")
    _check_rotation(family, rotation)
    base_tau = rotated_tau(tau, rotation)
    lo, hi = family_tau_range(family)
    if not lo <= base_tau <= hi:
        raise ValueError(
            f"tau {tau} (rotation {rotation}) not attainable by {family}; "
            f"base range is [{lo:.4f}, {hi:.4f}]"
        )
    return _FAM[family].par_from_tau(base_tau)


def param_to_tau(b: Bicop) -> float:
    return b.tau


# ---------------------------------------------------------------------------
# pseudo-observations and likelihood
# ---------------------------------------------------------------------------


@dataclass
class PairObs:
    """Paired pseudo-observations on the copula scale.

    For a discrete component the pair carries the CDF evaluated at the
    observed code (``*_plus``) and just below it (``*_minus``); for a
    continuous component the two coincide.
    """

    u_plus: np.ndarray
    v_plus: np.ndarray
    u_minus: Optional[np.ndarray] = None
    v_minus: Optional[np.ndarray] = None
    u_disc: bool = False
    v_disc: bool = False

    def __post_init__(self):
        self.u_plus = _clip(self.u_plus)
        self.v_plus = _clip(self.v_plus)
        self.u_minus = self.u_plus if self.u_minus is None else _clip(self.u_minus)
        self.v_minus = self.v_plus if self.v_minus is None else _clip(self.v_minus)

    @property
    def n(self) -> int:
        return self.u_plus.shape[0]

    @classmethod
    def continuous(cls, u, v) -> "PairObs":
        return cls(u_plus=np.asarray(u, float), v_plus=np.asarray(v, float))

    def midpoints(self):
        return 0.5 * (self.u_plus + self.u_minus), 0.5 * (self.v_plus + self.v_minus)

    def swapped(self) -> "PairObs":
        return PairObs(
            u_plus=self.v_plus,
            v_plus=self.u_plus,
            u_minus=self.v_minus,
            v_minus=self.u_minus,
            u_disc=self.v_disc,
            v_disc=self.u_disc,
        )

    def masses(self) -> tuple:
        """Per side, ``plus - minus`` floored at ``MASS_FLOOR``: the probability
        of a discrete side's observed code; None for a continuous side."""
        return tuple(
            np.maximum(plus - minus, MASS_FLOOR) if disc else None
            for plus, minus, disc in (
                (self.u_plus, self.u_minus, self.u_disc),
                (self.v_plus, self.v_minus, self.v_disc),
            )
        )

    def log_mass_total(self) -> float:
        """Summed log masses of the discrete sides, one sum per side."""
        total = 0.0
        for mass in self.masses():
            if mass is not None:
                total += float(np.sum(np.log(mass)))
        return total


def _likelihood(cop: Bicop, obs: PairObs) -> tuple:
    """The log contributions of :func:`bicop_contributions` and the terms
    they are built from: the h-functions at a discrete side's (plus, minus)
    corners, C at the four corners ``(++, +-, -+, --)`` when both sides are
    discrete, none for a continuous pair."""
    up, um, vp, vm = obs.u_plus, obs.u_minus, obs.v_plus, obs.v_minus
    if obs.u_disc and obs.v_disc:
        c = cop._cdf(up, vp), cop._cdf(up, vm), cop._cdf(um, vp), cop._cdf(um, vm)
        return np.log(np.maximum(c[0] - c[1] - c[2] + c[3], CONTRIB_FLOOR)), c
    if obs.u_disc:
        h = cop._hfunc(up, vp, "1|2"), cop._hfunc(um, vp, "1|2")
    elif obs.v_disc:
        h = cop._hfunc(up, vp, "2|1"), cop._hfunc(up, vm, "2|1")
    else:
        return np.maximum(cop._logpdf(up, vp), LOG_FLOOR), ()
    return np.log(np.maximum(h[0] - h[1], CONTRIB_FLOOR)), h


def bicop_contributions(cop: Bicop, obs: PairObs) -> np.ndarray:
    """Per-row log likelihood contributions of a pair-copula.

    Continuous x continuous pairs contribute the log density; pairs with a
    discrete side contribute log finite differences of the conditional CDF,
    and fully discrete pairs log rectangle probabilities.  Each contribution
    is floored at ``log(1e-300)``.
    """
    return _likelihood(cop, obs)[0]


def _conditioned_side(plus, minus):
    """A conditioned side clipped into [EPS, 1 - EPS]; a discrete side's
    lower corner is capped at its upper one."""
    plus = np.clip(plus, EPS, 1.0 - EPS)
    if minus is None:
        return plus, None
    return plus, np.minimum(np.clip(minus, EPS, 1.0 - EPS), plus)


def bicop_condition(cop: Bicop, obs: PairObs) -> tuple[np.ndarray, PairObs]:
    """One pair-copula step of a vine: ``(contributions, conditioned)``.

    ``contributions`` are :func:`bicop_contributions` less each discrete
    side's log mass (:meth:`PairObs.masses`), so independence contributes
    zero.  ``conditioned`` holds ``u | v`` and ``v | u``, the next tree's
    pseudo-observations: an h-function given a continuous side, the
    difference of C across a discrete side's code over its mass
    (Panagiotelis, Czado & Joe 2012).  Each copula term is evaluated once.
    """
    contrib, terms = _likelihood(cop, obs)
    up, um, vp, vm = obs.u_plus, obs.u_minus, obs.v_plus, obs.v_minus
    mass_u, mass_v = obs.masses()
    if obs.u_disc and obs.v_disc:
        cpp, cpm, cmp_, cmm = terms
        u_given = (cpp - cpm) / mass_v, (cmp_ - cmm) / mass_v
        v_given = (cpp - cmp_) / mass_u, (cpm - cmm) / mass_u
    elif obs.u_disc:
        u_given = terms
        v_given = (cop._cdf(up, vp) - cop._cdf(um, vp)) / mass_u, None
    elif obs.v_disc:
        u_given = (cop._cdf(up, vp) - cop._cdf(up, vm)) / mass_v, None
        v_given = terms
    else:
        u_given = cop._hfunc(up, vp, "1|2"), None
        v_given = cop._hfunc(up, vp, "2|1"), None
    for mass in (mass_u, mass_v):
        if mass is not None:
            contrib = contrib - np.log(mass)
    (u_plus, u_minus), (v_plus, v_minus) = (_conditioned_side(*s) for s in (u_given, v_given))
    return contrib, PairObs(u_plus, v_plus, u_minus, v_minus, obs.u_disc, obs.v_disc)


def bicop_loglik(cop: Bicop, obs: PairObs) -> float:
    return float(np.sum(bicop_contributions(cop, obs)))


def empirical_tau(obs: PairObs) -> float:
    """Kendall's tau-b of the pseudo-observation midpoints."""
    um, vm = obs.midpoints()
    tau = stats.kendalltau(um, vm).statistic
    return 0.0 if np.isnan(tau) else float(tau)


def _start_params(family: str, rotation: int, tau_emp: float):
    """Tau-inversion starting point, clipped into the attainable range."""
    lo, hi = family_tau_range(family)
    base_tau = rotated_tau(tau_emp, rotation)
    pad = 1e-3
    base_tau = min(max(base_tau, lo + pad), hi - pad)
    if family == "frank" and abs(base_tau) < 5e-3:
        base_tau = math.copysign(5e-3, base_tau if base_tau != 0.0 else 1.0)
    return _FAM[family].par_from_tau(base_tau)


def bicop_fit(
    family: str,
    rotation: int,
    obs: PairObs,
    min_obs: int = 10,
    tau: Optional[float] = None,
) -> Bicop:
    """Maximum-likelihood fit of one family/rotation to paired pseudo-obs.

    The start is the tau-inversion point for Kendall's tau ``tau`` (the
    empirical tau of ``obs`` when not given).  A bounded Brent search then
    fits the last parameter with the others held at the start: the one
    parameter of the one-parameter families, and for the Student-t the
    degrees of freedom at the tau-inverted rho (a profile likelihood, as in
    the ``itau`` estimator of Czado 2019, section 7).  The fit never
    returns a likelihood below the start's.
    """
    if obs.n < min_obs:
        raise TooFewObservations(
            f"pair-copula fit needs at least {min_obs} observations, got {obs.n}"
        )
    if family == "indep":
        return INDEP
    fam = _FAM[family]
    start = _start_params(family, rotation, empirical_tau(obs) if tau is None else tau)
    fixed = start[:-1]

    def neg_ll(params):
        try:
            cop = Bicop(family, rotation, tuple(np.atleast_1d(params)))
        except ValueError:
            return np.inf
        return -bicop_loglik(cop, obs)

    start_val = neg_ll(start)
    res = optimize.minimize_scalar(
        lambda t: neg_ll(fixed + (t,)), bounds=fam.bounds[-1], method="bounded"
    )
    best_p = fixed + (float(res.x),) if res.fun < start_val else start
    return Bicop(family, rotation, best_p)
