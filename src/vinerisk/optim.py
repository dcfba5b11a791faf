"""The two one-dimensional solvers the package needs.

:func:`minimize_bounded` is Brent's bounded minimiser (Brent 1973, ch. 5;
``fminbound``), which fits a pair-copula's last parameter and the latent
polyserial and polychoric correlations.  :func:`brentq` is Brent's
bracketed root finder (Brent 1973, ch. 4), which inverts Kendall's tau for
the Joe and Frank families.

Both take the floating-point steps of scipy's ``minimize_scalar(method=
"bounded")`` and ``brentq`` with their default settings, so they return
bitwise the same values.  Importing scipy's optimisers for these two loops
would load ``scipy.linalg`` and about a quarter of a second of other
modules on every ``vinerisk`` command.
"""

from __future__ import annotations

import math
from typing import Optional

_SQRT_EPS = math.sqrt(2.2e-16)  # fminbound's rounded machine epsilon
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))

#: :func:`minimize_bounded`'s absolute tolerance in x and its evaluation budget.
XATOL = 1e-5
MAXFUN = 500

#: :func:`brentq`'s relative tolerance (four machine epsilons) and step budget.
RTOL = 4 * 2.220446049250313e-16
MAXITER = 100


def _sign_or_one(d):
    """``np.sign(d) + (d == 0)`` of a number: +1 at +-0.0."""
    return 1.0 if d >= 0 else -1.0


def minimize_bounded(func, lo: float, hi: float, xatol: Optional[float] = None):
    """Minimise ``func`` over ``[lo, hi]``: ``(x, func(x))`` at the best point
    evaluated.

    Golden-section steps safeguard parabolic interpolation; the search stops
    when the bracket around the best point is within ``2 * tol1`` of it,
    ``tol1 = sqrt(eps) |x| + xatol / 3``, or after ``MAXFUN`` evaluations.
    ``xatol`` is scipy's ``options={"xatol": ...}``, ``XATOL`` when not given.
    """
    if xatol is None:
        xatol = XATOL
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= MAXFUN:
            break
    return xf, fx


def _value(f, x) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    Inverse quadratic extrapolation (secant steps when only two points are
    known) safeguarded by bisection, to within ``xtol + RTOL |x|``.  Raises
    ``ValueError`` when ``f(a)`` and ``f(b)`` have the same sign or ``f``
    returns NaN, and ``RuntimeError`` after ``MAXITER`` steps without
    convergence.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or NaN step fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
                spre, scur = scur, stry
                bisect = False
        if bisect:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
