"""Bivariate standard-normal CDF.

Vectorized port of the Drezner-Wesolowsky algorithm as refined by Genz
(TVPACK's ``BVND``): Gauss-Legendre quadrature on the arcsin-transformed
correlation integral for moderate correlation, and an asymptotic expansion
plus quadrature for ``|rho| > 0.925``.  Absolute accuracy is around 5e-16,
far below what the discrete-likelihood and polychoric routines need.
Every operation is elementwise, so a point's value does not depend on the
other points of the call.
"""

import math

import numpy as np
from scipy.special import ndtr

# Gauss-Legendre half-rules used by TVPACK (6, 12 and 20 point rules).
_GL_W = {
    6: np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904]),
    12: np.array(
        [
            0.04717533638651177,
            0.1069393259953183,
            0.1600783285433464,
            0.2031674267230659,
            0.2334925365383547,
            0.2491470458134029,
        ]
    ),
    20: np.array(
        [
            0.01761400713915212,
            0.04060142980038694,
            0.06267204833410906,
            0.08327674157670475,
            0.1019301198172404,
            0.1181945319615184,
            0.1316886384491766,
            0.1420961093183821,
            0.1491729864726037,
            0.1527533871307259,
        ]
    ),
}
_GL_X = {
    6: np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970]),
    12: np.array(
        [
            0.9815606342467191,
            0.9041172563704750,
            0.7699026741943050,
            0.5873179542866171,
            0.3678314989981802,
            0.1252334085114692,
        ]
    ),
    20: np.array(
        [
            0.9931285991850949,
            0.9639719272779138,
            0.9122344282513259,
            0.8391169718222188,
            0.7463319064601508,
            0.6360536807265150,
            0.5108670019508271,
            0.3737060887154196,
            0.2277858511416451,
            0.07652652113349733,
        ]
    ),
}

_TWOPI = 2.0 * math.pi


def _rule(rho):
    if abs(rho) < 0.3:
        n = 6
    elif abs(rho) < 0.75:
        n = 12
    else:
        n = 20
    return _GL_X[n], _GL_W[n]


def _bvnd(h, k, rho):
    """P(X > h, Y > k) for standard bivariate normal with correlation rho.

    ``h`` and ``k`` are finite 1-d float arrays of equal length; ``rho`` is
    a scalar with ``|rho| < 1``.
    """
    x, w = _rule(rho)
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    hk = h * k
    bvn = np.zeros_like(h)

    if abs(rho) < 0.925:
        if rho != 0.0:
            hs = (h * h + k * k) / 2.0
            asr = math.asin(rho)
            # node by node, elementwise: a matrix product's rounding would
            # depend on how many points share the call
            for sign in (-1.0, 1.0):
                for sn, wi in zip(np.sin(asr * (sign * x + 1.0) / 2.0), w):
                    bvn += wi * np.exp((sn * hk - hs) / (1.0 - sn * sn))
            bvn = bvn * asr / (2.0 * _TWOPI)
        return bvn + ndtr(-h) * ndtr(-k)

    # |rho| >= 0.925: expansion around rho = +/-1.
    if rho < 0.0:
        k = -k
        hk = -hk
    if abs(rho) < 1.0:
        a_sq = (1.0 - rho) * (1.0 + rho)
        a = math.sqrt(a_sq)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr0 = -(bs / a_sq + hk) / 2.0
        m = asr0 > -100.0
        if np.any(m):
            bvn[m] = (
                a
                * np.exp(asr0[m])
                * (
                    1.0
                    - c[m] * (bs[m] - a_sq) * (1.0 - d[m] * bs[m] / 5.0) / 3.0
                    + c[m] * d[m] * a_sq * a_sq / 5.0
                )
            )
        m = -hk < 100.0
        if np.any(m):
            b = np.sqrt(bs[m])
            bvn[m] -= (
                np.exp(-hk[m] / 2.0)
                * math.sqrt(_TWOPI)
                * ndtr(-b / a)
                * b
                * (1.0 - c[m] * bs[m] * (1.0 - d[m] * bs[m] / 5.0) / 3.0)
            )
        a2 = a / 2.0
        for sign in (-1.0, 1.0):
            for xi, wi in zip(x, w):
                xs = (a2 * (sign * xi + 1.0)) ** 2
                rs = math.sqrt(1.0 - xs)
                asr1 = -(bs / xs + hk) / 2.0
                m = asr1 > -100.0
                if np.any(m):
                    bvn[m] += (
                        a2
                        * wi
                        * np.exp(asr1[m])
                        * (
                            np.exp(-hk[m] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                            - (1.0 + c[m] * xs * (1.0 + d[m] * xs))
                        )
                    )
        bvn = -bvn / _TWOPI
    if rho > 0.0:
        return bvn + ndtr(-np.maximum(h, k))
    bvn = -bvn
    m = k > h
    if np.any(m):
        lo = h[m]
        hi = k[m]
        tail = np.where(lo < 0.0, ndtr(hi) - ndtr(lo), ndtr(-lo) - ndtr(-hi))
        bvn[m] += tail
    return bvn


def bvn_cdf(x, y, rho):
    """P(X <= x, Y <= y) under a standard bivariate normal with correlation rho.

    Parameters
    ----------
    x, y : array_like
        Upper integration limits; may contain ``+/-inf``.
    rho : float
        Correlation in [-1, 1].

    Returns
    -------
    ndarray or float
        Probabilities clipped to [0, 1].
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    scalar = x.ndim == 0
    x = np.atleast_1d(x).copy()
    y = np.atleast_1d(y).copy()
    out = np.empty_like(x)

    if rho >= 1.0:
        out = ndtr(np.minimum(x, y))
    elif rho <= -1.0:
        out = np.maximum(ndtr(x) + ndtr(y) - 1.0, 0.0)
    else:
        neg_inf = np.isneginf(x) | np.isneginf(y)
        x_inf = np.isposinf(x)
        y_inf = np.isposinf(y)
        finite = ~(neg_inf | x_inf | y_inf)
        out[neg_inf] = 0.0
        # one argument at +inf: marginal normal CDF of the other
        m = x_inf & ~neg_inf
        out[m] = ndtr(y[m])
        m = y_inf & ~neg_inf & ~x_inf
        out[m] = ndtr(x[m])
        if np.any(finite):
            out[finite] = _bvnd(-x[finite], -y[finite], rho)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out.reshape(x.shape)
