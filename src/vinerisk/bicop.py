"""Parametric bivariate copulas ("pair-copulas") with rotations.

Families
--------
``indep``, ``gaussian``, ``studentt`` (continuous pairs only), ``clayton``,
``gumbel``, ``frank`` and ``joe``.  The single-parameter Archimedean
families with asymmetric tail behaviour (``clayton``, ``gumbel``, ``joe``)
support rotations 0/90/180/270; ``frank`` and the elliptical families cover
negative dependence natively and are never rotated.

Every family's CDF is vectorised.  The Student t's is a normal scale
mixture (Demarta & McNeil 2005): C(u, v) = E[Phi2(x S, y S; rho)] at the t
quantiles x, y of u, v, with nu S^2 ~ chi2_nu, averaged by a fixed
trapezoid rule (:func:`_t_mixture_rule`) over the Gaussian's ``bvn_cdf``.

Kendall's tau, from which every fit starts by tau inversion, is computed
in the package: :func:`kendall_tau_b` takes ``scipy.stats.kendalltau``'s
steps with a merge-sort count of discordant pairs, and the Frank tau's
Debye integral is a fixed 64-node Gauss-Legendre rule.  The bounded search
of :func:`bicop_fit` and the Joe and Frank tau inversions are Brent's
methods in :mod:`vinerisk.optim`.  A one-parameter family's search covers
the parameters whose tau is within ``TAU_HALF_WIDTH`` of the start's, and
its whole bounds only when the optimum lands on an inner end of that
interval; the Student-t's searches log nu.  So the module needs only
``scipy.special``; importing scipy's statistics, integration and
optimisation subpackages would add most of a second to every ``vinerisk``
command.

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

Each family's log density, CDF and h-function is split in two: the
transforms of its arguments that no parameter enters (:class:`_Args`:
``log u``, ``log(-log u)``, ``log1p(-u)``, ``ndtri(u)``, Frank's fold),
and a kernel that takes them with the parameters.  A pair's likelihood
arguments, the mirrored and stacked corners, and their transforms are
computed once per pair and rotation (:meth:`PairObs.kernel_args`) and
shared by every candidate family's start and search and by the fitted
copula's conditioning step, so each step of a search evaluates only the
kernel.  The transforms are the subexpressions the kernels would compute
in place, so the values are the same to the bit.

Likelihood contributions for pairs with discrete components use CDF finite
differences: one-sided differences of the conditional CDF when one side is
discrete and rectangle probabilities when both are, each over the discrete
sides' masses so that independence contributes zero.  The same copula terms
also condition each side on the other for a vine's next tree, both in one
step: :func:`bicop_condition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import digamma, gammaln, ndtr, ndtri, poch, stdtr, stdtrit, zetac

from .bvn import bvn_cdf
from .data import MIN_ROWS
from .errors import NoConvergence, TooFewObservations
from .optim import brentq, minimize_bounded

#: Clamp applied to all copula arguments, margin CDFs included.
EPS = 1e-10

#: Floor for individual likelihood contributions before taking logs.
CONTRIB_FLOOR = 1e-300
LOG_FLOOR = math.log(CONTRIB_FLOOR)

#: Floor for a discrete side's probability mass, the denominator of its conditional CDFs.
MASS_FLOOR = 1e-12

#: :func:`bicop_fit`'s search: the half-width in Kendall's tau of a
#: one-parameter family's interval around its start, the share of the
#: interval's width within which an optimum at an inner end widens the
#: search to the family's bounds, and the Student-t's tolerance in log nu.
TAU_HALF_WIDTH = 0.1
EDGE_SHARE = 1e-3
LOG_NU_XATOL = 1e-3

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
    """Solve ``fam.hfunc_k(_Args(x, y), p) = q`` for x in [EPS, 1 - EPS],
    elementwise.

    Safeguarded Newton (``rtsafe``, Press et al., *Numerical Recipes*,
    section 9.4).  The derivative of h in x is the copula density
    ``exp(fam.logpdf_k(_Args(x, y), p))``; both kernels of an iteration
    share its ``_Args``.  Every point starts at ``q``, the
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
        t = _Args(xa, ya)
        with np.errstate(all="ignore"):
            f = fam.hfunc_k(t, p) - qa
            dens = np.exp(fam.logpdf_k(t, p))
            nxt = np.where(np.isfinite(dens), xa - f / dens, np.nan)
        np.copyto(hi, xa, where=f > 0.0)
        np.copyto(lo, xa, where=f < 0.0)
        bisect = ~((lo <= nxt) & (nxt <= hi) & (np.abs(nxt - xa) <= 0.5 * np.abs(step)))
        np.copyto(nxt, 0.5 * (lo + hi), where=bisect)
        step = nxt - xa
        x[todo] = np.where(f == 0.0, xa, nxt)
        go = (f != 0.0) & (np.abs(step) >= tol) & (hi - lo >= tol)
        del t, f, dens, bisect  # lowers the peak memory of the compaction below
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
#   logpdf_k(t, p)    log copula density
#   cdf_k(t, p)       C(u, v)
#   hfunc_k(t, p)     conditional CDF P(X <= x | Y = y) = dC/dy  (families
#                     here are exchangeable, so one direction suffices)
#   hinv(q, y, p)     inverse of the h-function in x: closed form, or the
#                     safeguarded Newton solver _newton_hinv (gumbel, joe)
#   tau(p) / par_from_tau(tau)
# and ``bounds``, one (lower, upper) pair per parameter.  Tau at the lower and
# at the upper bounds spans the attainable interval (:func:`family_tau_range`).
#
# The kernels take ``t``, an ``_Args`` of the two arguments (``u, v``, or
# ``x, y`` of an h-function) and the transforms of them that no parameter
# enters.  A likelihood's ``_Args`` are computed once per pair and rotation,
# shared by every candidate family and every step of its search.
# ---------------------------------------------------------------------------


class _Args:
    """The two arguments of a family kernel, ``u`` and ``v`` (``x`` and
    ``y`` of an h-function), and their parameter-free transforms, each a
    ``(of u, of v)`` pair computed on first use and then kept.  Each
    transform is a whole subexpression of the kernels, so a kernel's value
    does not depend on whether its transforms were computed for its call
    or kept from an earlier one."""

    def __init__(self, u, v):
        self.u, self.v = u, v

    @cached_property
    def log(self):
        return np.log(self.u), np.log(self.v)

    @cached_property
    def loglog(self):
        # log(-log u), Gumbel's
        lu, lv = self.log
        return np.log(-lu), np.log(-lv)

    @cached_property
    def log1m(self):
        # log(1 - u), Joe's
        return np.log1p(-self.u), np.log1p(-self.v)

    @cached_property
    def ndtri(self):
        return ndtri(self.u), ndtri(self.v)

    @cached_property
    def fold(self):
        # Frank's: (mask of u + v > 1, u and v mirrored there, their sum)
        up = self.u + self.v > 1.0
        a, b = np.where(up, 1.0 - self.u, self.u), np.where(up, 1.0 - self.v, self.v)
        return up, a, b, a + b

    def swapped(self) -> "_Args":
        """The arguments in the other order, ``(v, u)``, keeping the
        transforms computed so far: each is one per argument, swapped, and
        the fold's mask and sum do not depend on the order (``+`` commutes
        exactly)."""
        out = _Args(self.v, self.u)
        for name, value in vars(self).items():
            if name == "fold":
                up, a, b, total = value
                out.__dict__[name] = up, b, a, total
            elif name not in ("u", "v"):
                out.__dict__[name] = value[::-1]
        return out


class _Indep:
    name = "indep"
    npar = 0
    bounds = ()

    @staticmethod
    def logpdf_k(t, p):
        return np.zeros(np.broadcast(t.u, t.v).shape)

    @staticmethod
    def cdf_k(t, p):
        return t.u * t.v

    @staticmethod
    def hfunc_k(t, p):
        return np.broadcast_to(t.u, np.broadcast(t.u, t.v).shape).astype(float)

    @staticmethod
    def hinv(q, y, p):
        return np.broadcast_to(q, np.broadcast(q, y).shape).astype(float)

    @staticmethod
    def tau(p):
        return 0.0

    @staticmethod
    def par_from_tau(tau):
        raise ValueError("independence copula has no parameter")


class _Gaussian:
    name = "gaussian"
    npar = 1
    bounds = ((-0.9999, 0.9999),)

    @staticmethod
    def logpdf_k(t, p):
        rho = p[0]
        x, y = t.ndtri
        r2 = 1.0 - rho * rho
        return -0.5 * math.log(r2) + (
            2.0 * rho * x * y - rho * rho * (x * x + y * y)
        ) / (2.0 * r2)

    @staticmethod
    def cdf_k(t, p):
        return bvn_cdf(*t.ndtri, p[0])

    @staticmethod
    def hfunc_k(t, p):
        rho = p[0]
        x, y = t.ndtri
        return ndtr((x - rho * y) / math.sqrt(1.0 - rho * rho))

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


def _t_mixture_rule(nu):
    """Scales ``s`` and weights of a trapezoid rule for E[f(S)], nu S^2 ~ chi2_nu.

    The rule is taken in r = log S, whose density, proportional to
    exp(nu r - nu e^{2r} / 2), is smooth and decays fast on both sides: step
    0.2 / sqrt(nu) over [-40/nu - 1/2, log1p(90/nu)/2 + 1/4], 76 to 159 nodes
    for nu in [2.05, 30].
    """
    step = 0.2 / math.sqrt(nu)
    r = np.arange(-40.0 / nu - 0.5, 0.5 * math.log1p(90.0 / nu) + 0.25, step)
    log_w = nu * r - 0.5 * nu * np.exp(2.0 * r)
    w = np.exp(log_w - log_w.max())
    return np.exp(r), w / w.sum()


def _t_pdf(x, nu):
    """Student t density, in the closed form ``scipy.stats.t.pdf`` evaluates."""
    return np.exp(
        np.log(poch(0.5 * nu, 0.5))
        - 0.5 * (np.log(nu) + np.log(np.pi))
        - (nu + 1.0) / 2.0 * np.log1p(x * x / nu)
    )


def _t_quantile(nu, u):
    """``stdtrit`` refined by one Newton step: scipy's closed forms at nu = 4
    and 6 lose up to 1.4e-8 of ``u`` near 1/2."""
    x = stdtrit(nu, u)
    return x - (stdtr(nu, x) - u) / _t_pdf(x, nu)


class _StudentT(_Gaussian):
    """Shares the Gaussian's tau map: Kendall's tau of the t depends on rho
    alone.  The CDF is the scale mixture of the module docstring, summed one
    node at a time so its temporaries grow with the points, not points x
    nodes.  Its quantiles depend on nu, so its kernels keep no transform."""

    name = "studentt"
    npar = 2
    bounds = ((-0.999, 0.999), (2.05, 30.0))

    @staticmethod
    def logpdf_k(t, p):
        rho, nu = p
        x, y = stdtrit(nu, t.u), stdtrit(nu, t.v)
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
    def cdf_k(t, p):
        rho, nu = p
        x, y = _t_quantile(nu, t.u), _t_quantile(nu, t.v)
        out = np.zeros(np.broadcast(x, y).shape)
        for s, w in zip(*_t_mixture_rule(nu)):
            out += w * bvn_cdf(x * s, y * s, rho)
        return out[()]

    @staticmethod
    def hfunc_k(t, p):
        rho, nu = p
        tx, ty = stdtrit(nu, t.u), stdtrit(nu, t.v)
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
    def _log_gen_sum(t, theta):
        # log(u^-theta + v^-theta - 1), stable for tiny u, v
        lu, lv = t.log
        a = -theta * lu
        b = -theta * lv
        m = np.maximum(a, b)
        return m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))

    @classmethod
    def logpdf_k(cls, t, p):
        theta = p[0]
        la = cls._log_gen_sum(t, theta)
        lu, lv = t.log
        return (
            math.log1p(theta)
            - (theta + 1.0) * (lu + lv)
            - (2.0 + 1.0 / theta) * la
        )

    @classmethod
    def cdf_k(cls, t, p):
        return np.exp(-cls._log_gen_sum(t, p[0]) / p[0])

    @classmethod
    def hfunc_k(cls, t, p):
        theta = p[0]
        la = cls._log_gen_sum(t, theta)
        return np.exp(-(theta + 1.0) * t.log[1] - (1.0 + 1.0 / theta) * la)

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


class _Gumbel:
    name = "gumbel"
    npar = 1
    bounds = ((1.0, 20.0),)

    @staticmethod
    def _log_s(t, delta):
        # log((-log u)^delta + (-log v)^delta)
        lx, ly = t.loglog
        a = delta * lx
        b = delta * ly
        m = np.maximum(a, b)
        return m + np.log1p(np.exp(np.minimum(a, b) - m))

    @classmethod
    def cdf_k(cls, t, p):
        return np.exp(-np.exp(cls._log_s(t, p[0]) / p[0]))

    @classmethod
    def logpdf_k(cls, t, p):
        delta = p[0]
        lx, ly = t.loglog
        lu, lv = t.log
        ls = cls._log_s(t, delta)
        s_pow = np.exp(ls / delta)
        return (
            -s_pow
            - lu
            - lv
            + (delta - 1.0) * (lx + ly)
            + (1.0 / delta - 2.0) * ls
            + np.log(s_pow + delta - 1.0)
        )

    @classmethod
    def hfunc_k(cls, t, p):
        delta = p[0]
        ls = cls._log_s(t, delta)
        log_h = (
            -np.exp(ls / delta)
            + (delta - 1.0) * t.loglog[1]
            + (1.0 / delta - 1.0) * ls
            - t.log[1]
        )
        return np.exp(log_h)

    hinv = classmethod(_newton_hinv)

    @staticmethod
    def tau(p):
        return 1.0 - 1.0 / p[0]

    @staticmethod
    def par_from_tau(tau):
        return (1.0 / (1.0 - tau),)


class _Frank:
    """Frank is radially symmetric, ``C(u, v) = u + v - 1 + C(1 - u, 1 - v)``.
    Its closed forms cancel catastrophically where ``u + v > 1`` at large
    theta (``g(1) + g(u) g(v)`` nears 0 as a difference of two terms near
    1), so there they are evaluated at the mirrored point instead
    (:attr:`_Args.fold`)."""

    name = "frank"
    npar = 1
    bounds = ((-35.0, 35.0),)

    @staticmethod
    def _g(x, theta):
        return np.expm1(-theta * x)

    @classmethod
    def cdf_k(cls, t, p):
        theta = p[0]
        up, a, b, _ = t.fold
        gu, gv, g1 = cls._g(a, theta), cls._g(b, theta), cls._g(1.0, theta)
        c = -np.log1p(gu * gv / g1) / theta
        return np.where(up, t.u + t.v - 1.0 + c, c)[()]

    @classmethod
    def logpdf_k(cls, t, p):
        theta = p[0]
        _, u, v, uv = t.fold
        gu, gv, g1 = cls._g(u, theta), cls._g(v, theta), cls._g(1.0, theta)
        denom = -g1 - gu * gv
        num = -theta * g1 * np.exp(-theta * uv)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(num) - 2.0 * np.log(np.abs(denom))

    @classmethod
    def hfunc_k(cls, t, p):
        theta = p[0]
        up, a, b, _ = t.fold
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


class _Joe:
    name = "joe"
    npar = 1
    bounds = ((1.0, 30.0),)

    @staticmethod
    def _log_t(t, delta):
        # log(ub^d + vb^d - ub^d * vb^d) with ub = 1-u, vb = 1-v
        lu, lv = t.log1m
        a = delta * lu
        b = delta * lv
        m = np.maximum(a, b)
        return m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(a + b - m))

    @classmethod
    def cdf_k(cls, t, p):
        return 1.0 - np.exp(cls._log_t(t, p[0]) / p[0])

    @classmethod
    def logpdf_k(cls, t, p):
        delta = p[0]
        lt = cls._log_t(t, delta)
        lu, lv = t.log1m
        return (
            (1.0 / delta - 2.0) * lt
            + (delta - 1.0) * (lu + lv)
            + np.log(delta - 1.0 + np.exp(lt))
        )

    @classmethod
    def hfunc_k(cls, t, p):
        delta = p[0]
        lt = cls._log_t(t, delta)
        lx, ly = t.log1m
        one_minus_xd = -np.expm1(delta * lx)
        with np.errstate(divide="ignore"):
            log_h = (
                (1.0 / delta - 1.0) * lt
                + (delta - 1.0) * ly
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
        return (brentq(lambda d: _joe_tau(d) - tau, lo + 1e-9, hi, xtol=1e-10),)


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


# the rule of the Frank tau's Debye integral
_DEBYE_RULE = _gauss_legendre(64)


def _frank_tau_abs(theta: float) -> float:
    """Kendall tau of the Frank copula for theta > 0, 1 - 4/theta (1 - D1(theta)).

    The Debye function D1(theta) = 1/theta int_0^theta t / (e^t - 1) dt is
    the mean of its analytic integrand over [0, theta], taken by a fixed
    64-node Gauss-Legendre rule.  For theta in [0.01, 35] that D1 is within
    1.2e-14 relative of a 40-digit value.
    """
    if theta == 0.0:
        return 0.0
    x, w = _DEBYE_RULE
    t = theta * x
    debye = float(w @ (t / np.expm1(t)))
    return 1.0 - 4.0 / theta * (1.0 - debye)


def _frank_theta_abs(tau: float) -> float:
    if tau <= 0.0:
        raise ValueError("frank copula needs a nonzero tau target")
    hi = _Frank.bounds[0][1]
    if tau >= _frank_tau_abs(hi):
        raise ValueError(f"tau {tau} not attainable by the frank copula")
    return brentq(lambda t: _frank_tau_abs(t) - tau, 1e-6, hi, xtol=1e-10)


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
FAMILIES = tuple(_FAM)


def family_tau_range(family: str) -> tuple[float, float]:
    """Attainable Kendall-tau interval of the base (unrotated) family: tau at
    the lower and at the upper parameter bounds."""
    fam = _FAM[family]
    lower, upper = (tuple(bound[end] for bound in fam.bounds) for end in (0, 1))
    return fam.tau(lower), fam.tau(upper)


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
    # ``PairObs`` columns, which are clipped once at construction, and passes
    # ``t``, the family arguments of :meth:`PairObs.kernel_args`: computed
    # once per pair and rotation, shared by every candidate.  Without ``t``
    # they are built from the mirrored arguments.  Either way the family
    # kernel runs on them.

    def cdf(self, u, v):
        return self._cdf(_clip(u), _clip(v))

    def _cdf(self, u, v, t=None):
        flip_u, flip_v = REFLECTIONS[self.rotation]
        if t is None:
            t = _Args(_mirror(u, flip_u), _mirror(v, flip_v))
        c = _FAM[self.family].cdf_k(t, self.params)
        if flip_u and flip_v:
            return u + v - 1.0 + c
        if flip_u or flip_v:
            return (v if flip_u else u) - c
        return c

    def logpdf(self, u, v):
        return self._logpdf(_clip(u), _clip(v))

    def _logpdf(self, u, v, t=None):
        if t is None:
            flip_u, flip_v = REFLECTIONS[self.rotation]
            t = _Args(_mirror(u, flip_u), _mirror(v, flip_v))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = _FAM[self.family].logpdf_k(t, self.params)
        out = np.asarray(out)
        finite = np.isfinite(out)
        if not finite.all():  # NaN and -inf to LOG_FLOOR, +inf to 700
            out = np.where(finite, out, np.where(out > 0, 700.0, LOG_FLOOR))
        return out[()] if out.ndim == 0 else out

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

    def _hfunc(self, u, v, direction, t=None):
        if t is None:
            t = _Args(*self._target_first(u, v, direction)[:2])
        flip = REFLECTIONS[self.rotation][direction == "2|1"]
        out = _FAM[self.family].hfunc_k(t, self.params)
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


# ---------------------------------------------------------------------------
# pseudo-observations and likelihood
# ---------------------------------------------------------------------------


@dataclass
class PairObs:
    """Paired pseudo-observations on the copula scale.

    A side is discrete exactly when it is given a minus column, and
    ``u_disc``/``v_disc`` say so: the CDF just below the observed code
    (``*_minus``) beside the CDF at it (``*_plus``).  A continuous side's
    minus is its plus column.  ``masses`` holds each discrete side's code
    probability ``plus - minus``, floored at ``MASS_FLOOR``.

    ``rows`` is the row map: row ``i`` of the pair is entry ``rows[i]`` of
    the columns, so a vine edge holds its columns once per distinct
    combination of its inputs and is fitted and scored there.  Without a
    row map every entry is a row.  :attr:`n`, :func:`bicop_contributions`,
    :func:`bicop_loglik` and :func:`empirical_tau` are the rows'; the
    kernels run on the columns only.  They are elementwise and do not
    depend on the batch, and the contributions are summed in row order, so
    a pair with a row map gives bitwise what the pair of its rows gives.

    ``kernel_memo`` maps a rotation to the pair's :meth:`kernel_args` for
    it, computed on first use: every candidate family of that rotation, its
    start and its search share them, and so does :func:`bicop_condition`.
    Nothing reassigns a pair's columns after construction, so the memo is
    never stale.
    """

    u_plus: np.ndarray
    v_plus: np.ndarray
    u_minus: Optional[np.ndarray] = None
    v_minus: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None
    u_disc: bool = field(init=False)
    v_disc: bool = field(init=False)
    masses: tuple = field(init=False, repr=False)
    kernel_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.u_disc, self.v_disc = self.u_minus is not None, self.v_minus is not None
        self.u_plus = _clip(self.u_plus)
        self.v_plus = _clip(self.v_plus)
        self.u_minus = self.u_plus if self.u_minus is None else _clip(self.u_minus)
        self.v_minus = self.v_plus if self.v_minus is None else _clip(self.v_minus)
        self.masses = (
            np.maximum(self.u_plus - self.u_minus, MASS_FLOOR) if self.u_disc else None,
            np.maximum(self.v_plus - self.v_minus, MASS_FLOOR) if self.v_disc else None,
        )

    @property
    def n(self) -> int:
        """The number of rows."""
        return (self.u_plus if self.rows is None else self.rows).shape[0]

    def midpoints(self):
        """Each row's midpoints ``(plus + minus) / 2`` of the two sides."""
        mid = 0.5 * (self.u_plus + self.u_minus), 0.5 * (self.v_plus + self.v_minus)
        return mid if self.rows is None else tuple(m[self.rows] for m in mid)

    def kernel_args(self, rotation: int) -> tuple:
        """``(u, v, t)``: the arguments :func:`_likelihood` passes to a
        copula of ``rotation``, and ``t``, their family kernel arguments.

        ``u`` and ``v`` stack a discrete side's (plus, minus) corners along
        a leading axis; with both sides discrete they are ``(2, 1, n)`` and
        ``(2, n)``, C's four corners.  ``t`` is :class:`_Args` of the two
        mirrored as the rotation says, in the family kernel's order: the
        target side first for an h-function (``v`` when only it is
        discrete).  No parameter enters ``t``, so every family of the
        rotation shares it.  They are computed once per pair and rotation
        and kept in :attr:`kernel_memo`.
        """
        if rotation in self.kernel_memo:
            return self.kernel_memo[rotation]
        up, um, vp, vm = self.u_plus, self.u_minus, self.v_plus, self.v_minus
        if self.u_disc and self.v_disc:
            u, v = np.stack([up, um])[:, None], np.stack([vp, vm])
        elif self.u_disc:
            u, v = np.stack([up, um]), vp
        elif self.v_disc:
            u, v = up, np.stack([vp, vm])
        else:
            u, v = up, vp
        flip_u, flip_v = REFLECTIONS[rotation]
        mu, mv = _mirror(u, flip_u), _mirror(v, flip_v)
        t = _Args(mv, mu) if self.v_disc and not self.u_disc else _Args(mu, mv)
        self.kernel_memo[rotation] = u, v, t
        return u, v, t


def _likelihood(cop: Bicop, obs: PairObs) -> tuple:
    """The log contributions of :func:`bicop_contributions`, on the pair's
    columns (before the row map), and the terms they are built from: the
    h-functions at a discrete side's (plus, minus) corners, C at the four
    corners ``(++, +-, -+, --)`` when both sides are discrete, none for a
    continuous pair.  Each corner set is one kernel call on
    :meth:`PairObs.kernel_args`, the corners stacked along a leading axis
    against the shared side: the kernels are elementwise, so each corner is
    what a call of its own gives."""
    u, v, t = obs.kernel_args(cop.rotation)
    if obs.u_disc and obs.v_disc:
        (cpp, cpm), (cmp_, cmm) = cop._cdf(u, v, t)
        terms = cpp, cpm, cmp_, cmm
        prob = cpp - cpm - cmp_ + cmm
    elif obs.u_disc or obs.v_disc:
        terms = tuple(cop._hfunc(u, v, "1|2" if obs.u_disc else "2|1", t))
        prob = terms[0] - terms[1]
    else:
        return np.maximum(cop._logpdf(u, v, t), LOG_FLOOR), ()
    contrib = np.log(np.maximum(prob, CONTRIB_FLOOR))
    for mass in obs.masses:
        if mass is not None:
            contrib = contrib - np.log(mass)
    return contrib, terms


def bicop_contributions(cop: Bicop, obs: PairObs) -> np.ndarray:
    """Per-row log likelihood contributions of a pair-copula.

    Continuous x continuous pairs contribute the log density; pairs with a
    discrete side contribute log finite differences of the conditional CDF,
    and fully discrete pairs log rectangle probabilities, each floored at
    ``log(1e-300)`` and then less the log mass of each discrete side
    (:attr:`PairObs.masses`), so independence contributes zero.  They are
    computed on the pair's columns and taken to the rows by the row map.
    """
    contrib = _likelihood(cop, obs)[0]
    return contrib if obs.rows is None else contrib[obs.rows]


def bicop_condition(cop: Bicop, obs: PairObs, sides=(True, True)) -> tuple:
    """One pair-copula step of a vine: ``(contributions, u_given, v_given)``.

    All three are on the pair's columns, before its row map:
    ``contributions`` are :func:`bicop_contributions` there.  ``u_given``
    and ``v_given`` are ``u | v`` and ``v | u``, the next tree's
    pseudo-observations: an h-function given a continuous side, the
    difference of C across a discrete side's code over its mass
    (Panagiotelis, Czado & Joe 2012).  Each is ``(plus, minus)`` clipped
    into [EPS, 1 - EPS], ``minus`` capped at ``plus`` for a discrete side
    and None for a continuous one.  ``sides`` says which of the two to
    compute, ``(u | v, v | u)``; a side not asked for comes back as None.
    Each copula term is evaluated once, and a corner set in one kernel
    call, on the pair's :meth:`PairObs.kernel_args` for the rotation (in the
    other order, :meth:`_Args.swapped`, where the kernel takes the sides the
    other way round).  An independence edge hands both sides on as they
    came: ``u | v = u``.
    """
    contrib, terms = _likelihood(cop, obs)
    u, v, t = obs.kernel_args(cop.rotation)
    up, um, vp, vm = obs.u_plus, obs.u_minus, obs.v_plus, obs.v_minus
    mass_u, mass_v = obs.masses
    if cop.family == "indep":
        given = (
            lambda: (up, um if obs.u_disc else None),
            lambda: (vp, vm if obs.v_disc else None),
        )
    elif obs.u_disc and obs.v_disc:
        cpp, cpm, cmp_, cmm = terms
        given = (
            lambda: ((cpp - cpm) / mass_v, (cmp_ - cmm) / mass_v),
            lambda: ((cpp - cmp_) / mass_u, (cpm - cmm) / mass_u),
        )
    elif obs.u_disc:
        given = (
            lambda: terms,
            lambda: (np.subtract(*cop._cdf(u, v, t)) / mass_u, None),
        )
    elif obs.v_disc:
        given = (
            lambda: (np.subtract(*cop._cdf(u, v, t.swapped())) / mass_v, None),
            lambda: terms,
        )
    else:
        given = (
            lambda: (cop._hfunc(u, v, "1|2", t), None),
            lambda: (cop._hfunc(u, v, "2|1", t.swapped()), None),
        )
    return contrib, *(_clip_given(*side()) if want else None for side, want in zip(given, sides))


def _clip_given(plus, minus):
    return _clip(plus), None if minus is None else _clip(np.minimum(minus, plus))


def bicop_loglik(cop: Bicop, obs: PairObs) -> float:
    return float(np.sum(bicop_contributions(cop, obs)))


def _discordant_pairs(y: np.ndarray) -> int:
    """Pairs ``i < j`` with ``y[i] > y[j]``, by bottom-up merge sort
    (Knight 1966, JASA 61).

    ``y`` is padded to a power-of-two length with a value above all others,
    which adds no pair.  Each pass merges neighbouring sorted runs of
    ``width`` with one stable row-wise argsort.  A right-run element that
    lands at merged position ``m`` after ``j`` right-run elements has
    ``m - j`` left-run elements at or below it, so ``width - m + j`` above.
    """
    n = y.size
    size = 1 << (n - 1).bit_length()
    y = np.concatenate([y, np.full(size - n, y.max() + 1, dtype=y.dtype)])
    dis = 0
    width = 1
    while width < size:
        runs = y.reshape(-1, 2 * width)
        order = np.argsort(runs, axis=1, kind="stable")
        merged_pos = np.nonzero(order >= width)[1]
        # the sum of width + j over each row's right run is width (3 width - 1) / 2
        dis += runs.shape[0] * width * (3 * width - 1) // 2 - int(merged_pos.sum())
        y = np.take_along_axis(runs, order, axis=1).ravel()
        width *= 2
    return dis


def _dense_ranks(sorted_values: np.ndarray) -> np.ndarray:
    new = np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
    return new.cumsum(dtype=np.intp)


def _tied_pairs(ranks: np.ndarray) -> int:
    cnt = np.bincount(ranks)
    return int((cnt * (cnt - 1) // 2).sum())


def kendall_tau_b(x, y) -> float:
    """Kendall's tau-b of two samples; NaN when either is constant.

    The steps of ``scipy.stats.kendalltau`` without its p-value, so the
    result is the same to the bit: dense ranks, the discordant pairs, the
    ties in x, in y and in both, and

        (tot - xtie - ytie + ntie - 2 dis) / sqrt(tot - xtie) / sqrt(tot - ytie)

    clipped to [-1, 1], with ``tot = n (n - 1) / 2``.
    """
    x, y = np.asarray(x, dtype=float).ravel(), np.asarray(y, dtype=float).ravel()
    n = x.size
    if n < 2:
        return math.nan
    perm = np.argsort(y)
    x, y = x[perm], _dense_ranks(y[perm])
    # stable, so y ascends within ties of x and only strict inversions count
    perm = np.argsort(x, kind="mergesort")
    x, y = _dense_ranks(x[perm]), y[perm]
    dis = _discordant_pairs(y)
    joint = np.concatenate(([True], (x[1:] != x[:-1]) | (y[1:] != y[:-1]))).cumsum()
    ntie, xtie, ytie = _tied_pairs(joint), _tied_pairs(x), _tied_pairs(y)
    tot = n * (n - 1) // 2
    if xtie == tot or ytie == tot:
        return math.nan
    tau = (tot - xtie - ytie + ntie - 2 * dis) / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    return min(1.0, max(-1.0, tau))


def empirical_tau(obs: PairObs) -> float:
    """Kendall's tau-b (:func:`kendall_tau_b`) of the pseudo-observation
    midpoints; 0.0 when a side is constant."""
    tau = kendall_tau_b(*obs.midpoints())
    return 0.0 if math.isnan(tau) else tau


def _start_params(family: str, rotation: int, tau_emp: float):
    """Tau-inversion starting point, clipped into the attainable range."""
    lo, hi = family_tau_range(family)
    base_tau = rotated_tau(tau_emp, rotation)
    pad = 1e-3
    base_tau = min(max(base_tau, lo + pad), hi - pad)
    if family == "frank" and abs(base_tau) < 5e-3:
        base_tau = math.copysign(5e-3, base_tau if base_tau != 0.0 else 1.0)
    return _FAM[family].par_from_tau(base_tau)


def bicop_start(
    family: str, rotation: int, obs: PairObs, tau: Optional[float] = None
) -> tuple[Bicop, float]:
    """The tau-inversion start of :func:`bicop_fit` and its :func:`bicop_loglik`:
    ``(copula, loglik)``, for Kendall's tau ``tau`` (the empirical tau of
    ``obs`` when not given).  This is the ``itau`` estimate of Czado 2019,
    section 7, for the one-parameter families.
    """
    cop = Bicop(
        family, rotation, _start_params(family, rotation, empirical_tau(obs) if tau is None else tau)
    )
    return cop, bicop_loglik(cop, obs)


def _search_interval(family: str, start: Bicop) -> tuple[float, float]:
    """The parameter interval whose base taus are the start's within
    ``TAU_HALF_WIDTH``, clipped to the family's attainable tau range: an end
    past that range is the family's bound.  A Frank end whose tau is too
    close to 0 for its inversion (below the tau at theta = 1e-6) is theta =
    0, independence, which the search never evaluates."""
    fam = _FAM[family]
    tau = fam.tau(start.params)
    ends = []
    for end, bound, tau_bound in zip((-1.0, 1.0), fam.bounds[0], family_tau_range(family)):
        target = tau + end * TAU_HALF_WIDTH
        if end * (target - tau_bound) >= 0.0:
            ends.append(bound)
        elif family == "frank" and abs(target) <= _frank_tau_abs(1e-6):
            ends.append(0.0)
        else:
            ends.append(fam.par_from_tau(target)[0])
    return ends[0], ends[1]


def bicop_fit(
    family: str, rotation: int, obs: PairObs, start: Optional[tuple[Bicop, float]] = None
) -> tuple[Bicop, float]:
    """Maximum-likelihood fit of one family/rotation to paired pseudo-obs:
    ``(copula, loglik)``, the :func:`bicop_loglik` the search computed there.

    The search starts from ``start``, a :func:`bicop_start` of this family,
    rotation and ``obs``; without one it starts from the start at the
    pair's empirical tau.  A bounded Brent search then fits the last
    parameter with the others held at the start:

    - a one-parameter family searches the parameters whose Kendall tau is
      within ``TAU_HALF_WIDTH`` of the start's, clipped to the family's
      attainable taus (:func:`_search_interval`).  When the best point lies
      within ``EDGE_SHARE`` of the interval's width of an end that is not
      a family bound, the optimum may lie past it, and the search is run
      again over the family's whole bounds;
    - the Student-t searches log nu over the log of its bounds, to within
      ``LOG_NU_XATOL``, at the tau-inverted rho (a profile likelihood, as
      in the ``itau`` estimator of Czado 2019, section 7).

    Each step evaluates only the family kernel, through
    :func:`bicop_loglik`, on the arguments ``obs`` holds for ``rotation``
    (:meth:`PairObs.kernel_args`): computed once per pair and rotation and
    shared by every candidate.  The fit never returns a likelihood below
    the start's.
    """
    if obs.n < MIN_ROWS:
        raise TooFewObservations(
            f"pair-copula fit needs at least {MIN_ROWS} observations, got {obs.n}"
        )
    if family == "indep":
        return INDEP, bicop_loglik(INDEP, obs)
    start_cop, start_ll = bicop_start(family, rotation, obs) if start is None else start
    fixed = start_cop.params[:-1]

    def neg_ll(t):
        try:
            cop = Bicop(family, rotation, fixed + (t,))
        except ValueError:
            return np.inf
        return -bicop_loglik(cop, obs)

    lo, hi = _FAM[family].bounds[-1]
    if family == "studentt":
        s, fx = minimize_bounded(
            lambda s: neg_ll(math.exp(s)), math.log(lo), math.log(hi), xatol=LOG_NU_XATOL
        )
        x = math.exp(s)
    else:
        a, b = _search_interval(family, start_cop)
        x, fx = minimize_bounded(neg_ll, a, b)
        margin = EDGE_SHARE * (b - a)
        if (a != lo and x - a <= margin) or (b != hi and b - x <= margin):
            wide = minimize_bounded(neg_ll, lo, hi)
            if wide[1] < fx:
                x, fx = wide
    if fx < -start_ll:
        return Bicop(family, rotation, fixed + (float(x),)), -float(fx)
    return start_cop, start_ll
