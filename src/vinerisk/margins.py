"""Univariate margin models for the two-stage estimation pipeline.

Continuous variables get either a Gaussian kernel density (Silverman
rule-of-thumb bandwidth) or a piecewise-linear empirical CDF on the
``rank/(n+1)`` scale; ordinal variables get smoothed category frequencies
with half a pseudo-count per level.  All CDF evaluations are clamped to
``[EPS, 1-EPS]`` so downstream copula arguments stay strictly inside the
unit interval.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import norm

from .data import VariableSpec
from .errors import DegenerateMargin, OrdinalOutOfRange, TooFewObservations

#: Clamp for probability-scale outputs handed to copulas.
EPS = 1e-10


def _clamp(u):
    return np.clip(u, EPS, 1.0 - EPS)


def ordinal_codes(x) -> np.ndarray:
    """``x`` as integer codes; OrdinalOutOfRange if a value is not whole."""
    x = np.asarray(x, dtype=float)
    codes = x.astype(int)
    if np.any(codes != x):
        bad = x[codes != x][0]
        raise OrdinalOutOfRange(f"ordinal codes must be whole numbers, got {bad:g}")
    return codes


def _level_codes(x, levels: int) -> np.ndarray:
    """``x`` as integer codes of an ordinal variable with ``levels`` levels."""
    codes = ordinal_codes(x)
    if np.any(codes < 1) or np.any(codes > levels):
        raise OrdinalOutOfRange(f"ordinal codes must lie in 1..{levels}")
    return codes


class KernelMargin:
    """Gaussian kernel density estimate of a continuous margin."""

    kind = "kernel"
    is_discrete = False

    def __init__(self, centers, bandwidth):
        self.centers = np.asarray(centers, dtype=float)
        self.bandwidth = float(bandwidth)
        if self.bandwidth <= 0:
            raise DegenerateMargin("kernel bandwidth must be positive")

    @classmethod
    def fit(cls, values) -> "KernelMargin":
        values = np.asarray(values, dtype=float)
        n = values.size
        if n < 2:
            raise TooFewObservations("kernel margin needs at least 2 observations")
        sd = values.std(ddof=1)
        if sd == 0.0:
            raise DegenerateMargin("constant column cannot be modeled as continuous")
        iqr = np.subtract(*np.percentile(values, [75, 25]))
        spread = min(sd, iqr / 1.349) if iqr > 0 else sd
        bw = 0.9 * spread * n ** (-0.2)
        return cls(values, bw)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self.centers) / self.bandwidth
        return np.exp(-0.5 * z * z).mean(axis=-1) / (
            self.bandwidth * np.sqrt(2.0 * np.pi)
        )

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self.centers) / self.bandwidth
        return _clamp(ndtr(z).mean(axis=-1))

    def cdf_left(self, x):
        return self.cdf(x)

    def quantile(self, u):
        scalar = np.ndim(u) == 0
        uu = _clamp(np.atleast_1d(np.asarray(u, dtype=float)))
        lo = self.centers.min() + self.bandwidth * (norm.ppf(uu.min()) - 1.0)
        hi = self.centers.max() + self.bandwidth * (norm.ppf(uu.max()) + 1.0)
        out = np.empty_like(uu)
        for i, ui in enumerate(uu):
            out[i] = brentq(
                lambda t: float(ndtr((t - self.centers) / self.bandwidth).mean()) - ui,
                lo,
                hi,
                xtol=1e-12,
            )
        return float(out[0]) if scalar else out.reshape(np.shape(u))

    def to_dict(self):
        return {
            "kind": self.kind,
            "centers": self.centers.tolist(),
            "bandwidth": self.bandwidth,
        }


class EmpiricalMargin:
    """Piecewise-linear CDF through the points ``(x_(i), rank_i/(n+1))``.

    Ties take the highest rank.  Between knots the CDF is interpolated
    linearly, which makes ``quantile`` an exact inverse on the interior.
    """

    kind = "empirical"
    is_discrete = False

    def __init__(self, knots_x, knots_p):
        self.knots_x = np.asarray(knots_x, dtype=float)
        self.knots_p = np.asarray(knots_p, dtype=float)
        if self.knots_x.size < 2:
            raise DegenerateMargin("empirical margin needs at least 2 distinct values")

    @classmethod
    def fit(cls, values) -> "EmpiricalMargin":
        values = np.asarray(values, dtype=float)
        n = values.size
        if n < 2:
            raise TooFewObservations("empirical margin needs at least 2 observations")
        xs, counts = np.unique(values, return_counts=True)
        if xs.size < 2:
            raise DegenerateMargin("constant column cannot be modeled as continuous")
        ranks = np.cumsum(counts)
        return cls(xs, ranks / (n + 1.0))

    def cdf(self, x):
        return _clamp(np.interp(np.asarray(x, dtype=float), self.knots_x, self.knots_p))

    def cdf_left(self, x):
        return self.cdf(x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        slopes = np.diff(self.knots_p) / np.diff(self.knots_x)
        idx = np.clip(np.searchsorted(self.knots_x, x, side="right") - 1, 0, slopes.size - 1)
        inside = (x >= self.knots_x[0]) & (x <= self.knots_x[-1])
        return np.where(inside, slopes[idx], 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return np.interp(u, self.knots_p, self.knots_x)

    def to_dict(self):
        return {
            "kind": self.kind,
            "knots_x": self.knots_x.tolist(),
            "knots_p": self.knots_p.tolist(),
        }


class OrdinalMargin:
    """Smoothed category frequencies for an ordinal margin.

    Each of the ``levels`` categories receives half a pseudo-count, so every
    probability is strictly positive even for levels unseen in training.
    """

    kind = "categorical"
    is_discrete = True

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)
        if np.any(self.probs <= 0):
            raise DegenerateMargin("ordinal probabilities must be strictly positive")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise DegenerateMargin("ordinal probabilities must sum to 1")
        self._cum = np.cumsum(self.probs)

    @property
    def levels(self) -> int:
        return self.probs.size

    @classmethod
    def fit(cls, values, levels) -> "OrdinalMargin":
        values = np.asarray(values, dtype=float)
        if values.size < 1:
            raise TooFewObservations("ordinal margin needs at least 1 observation")
        codes = _level_codes(values, levels)
        counts = np.bincount(codes, minlength=levels + 1)[1:]
        probs = (counts + 0.5) / (values.size + 0.5 * levels)
        return cls(probs)

    def cdf(self, x):
        return _clamp(self._cum[_level_codes(x, self.levels) - 1])

    def cdf_left(self, x):
        codes = _level_codes(x, self.levels)
        left = np.where(codes > 1, self._cum[np.maximum(codes - 2, 0)], 0.0)
        return _clamp(left)

    def pdf(self, x):
        return self.probs[_level_codes(x, self.levels) - 1]

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return np.searchsorted(self._cum, u, side="left") + 1.0

    def to_dict(self):
        return {"kind": self.kind, "probs": self.probs.tolist()}


def fit_margin(values, spec: VariableSpec, method: str = "kernel"):
    """Fit the margin model appropriate for ``spec``.

    ``method`` selects the continuous estimator (``"kernel"`` or
    ``"empirical"``); ordinal variables always get smoothed frequencies.
    """
    if spec.is_ordinal:
        return OrdinalMargin.fit(values, spec.levels)
    if method == "kernel":
        return KernelMargin.fit(values)
    if method == "empirical":
        return EmpiricalMargin.fit(values)
    raise ValueError(f"unknown margin method {method!r}")


def margin_from_dict(obj: dict):
    kind = obj.get("kind")
    if kind == "kernel":
        return KernelMargin(obj["centers"], obj["bandwidth"])
    if kind == "empirical":
        return EmpiricalMargin(obj["knots_x"], obj["knots_p"])
    if kind == "categorical":
        return OrdinalMargin(obj["probs"])
    raise ValueError(f"unknown margin kind {kind!r}")
