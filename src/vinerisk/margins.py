"""Univariate margin models for the two-stage estimation pipeline.

Continuous variables get either a Gaussian kernel density (Silverman
rule-of-thumb bandwidth), evaluated by cubic Hermite interpolation on a grid
of nodes a tenth of a bandwidth apart (:class:`KernelMargin`), or a
piecewise-linear empirical CDF on the ``rank/(n+1)`` scale; ordinal
variables get smoothed category frequencies with half a pseudo-count per
level (:func:`smoothed_level_probs`, shared with the latent thresholds).
Ordinal values pass :func:`~vinerisk.data.ordinal_codes` on fit and on every
evaluation.  All CDF evaluations are clamped to ``[EPS, 1-EPS]`` so
downstream copula arguments stay strictly inside the unit interval.  Every
constructor rejects non-finite or inconsistent parameters with
``DegenerateMargin``, so a saved model cannot carry them into scoring.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .bicop import EPS, _clip  # noqa: F401  (EPS: the copulas' clamp, re-exported)
from .data import VariableSpec, ordinal_codes
from .errors import DegenerateMargin, TooFewObservations

#: Cells (values x centres) of one block of a kernel margin evaluation.
BLOCK_CELLS = 32768

#: A kernel margin's grid reaches this many bandwidths beyond its outermost
#: centres, at a spacing of at most ``GRID_STEP`` bandwidths, with at most
#: ``GRID_MAX_NODES`` nodes.
GRID_REACH = 8.5
GRID_STEP = 0.1
GRID_MAX_NODES = 4096


def smoothed_level_probs(codes, levels: int) -> np.ndarray:
    """Category frequencies of ``codes`` with half a pseudo-count per level,
    ``(counts + 0.5) / (n + 0.5 * levels)``, for valid integer codes."""
    counts = np.bincount(codes, minlength=levels + 1)[1:]
    return (counts + 0.5) / (codes.size + 0.5 * levels)


class KernelMargin:
    """Gaussian kernel density estimate of a continuous margin.

    The estimate is tabulated once, at construction, on a uniform grid over
    ``[min(centres) - GRID_REACH h, max(centres) + GRID_REACH h]`` at a
    spacing of at most ``GRID_STEP`` bandwidths ``h``:

    - the density ``f`` and its slope ``f'`` at each node are exact kernel
      means, which take ``exp`` only;
    - the CDF ``F`` at the first node is the exact kernel mean of ``ndtr``;
      from node to node it adds the integral of the cubic Hermite of ``f``,
      ``d/2 (f_k + f_k+1) + d^2/12 (f'_k - f'_k+1)``;
    - where the kernel mean underflows to 0 at a node, ``log f`` is taken of
      the smallest normal double (about 2.2e-308) and its slope is 0, so the
      density there reads about 1e-308 and never NaN.

    ``cdf`` is the cubic Hermite through ``(F, f)``, clamped, and ``pdf`` the
    ``exp`` of the cubic Hermite through ``(log f, f'/f)``.  Their error is
    at most about 5.5e-7 in ``F`` for any margin (one kernel's fourth
    derivative bounds the interpolation and the node-to-node integration);
    on the benchmark's reference margins, 413 to 607 nodes each, it is at
    most 3.7e-8 in ``F`` and 1.9e-5 in ``log f`` wherever ``f > 1e-6``.
    A value off the grid is evaluated by the exact kernel mean, for ``cdf``
    and ``pdf`` alike.  A margin whose grid would need more than
    ``GRID_MAX_NODES`` nodes (centres spanning over about 400 bandwidths)
    keeps an empty grid, so every value is evaluated exactly.  The grid is
    derived state: the saved form is the centres and the bandwidth only.
    """

    kind = "kernel"
    is_discrete = False

    def __init__(self, centers, bandwidth):
        self.centers = np.asarray(centers, dtype=float)
        self.bandwidth = float(bandwidth)
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise DegenerateMargin("kernel bandwidth must be positive and finite")
        if self.centers.size == 0:
            raise DegenerateMargin("kernel margin needs at least one centre")
        if not np.all(np.isfinite(self.centers)):
            raise DegenerateMargin("kernel centres must be finite")
        h = self.bandwidth
        self._lo = float(self.centers.min()) - GRID_REACH * h
        span = float(self.centers.max()) + GRID_REACH * h - self._lo
        nodes = np.ceil(span / (GRID_STEP * h)) + 1
        if not nodes <= GRID_MAX_NODES:
            nodes = 0
        self._step = span / max(nodes - 1, 1)
        x = self._lo + self._step * np.arange(int(nodes))
        e_mean, ze_mean = np.empty(x.size), np.empty(x.size)
        buf = None
        for rows, z in self._blocks(x):
            # _gauss(z) and z * _gauss(z), each step in place
            buf = np.empty_like(z) if buf is None else buf
            e = buf[: z.shape[0]]
            np.multiply(z, -0.5, out=e)
            np.multiply(e, z, out=e)
            np.exp(e, out=e)
            e_mean[rows] = e.mean(axis=-1)
            np.multiply(z, e, out=z)
            ze_mean[rows] = z.mean(axis=-1)
        scale = h * np.sqrt(2.0 * np.pi)
        self._f = e_mean / scale
        df = -ze_mean / (h * scale)
        floored = np.maximum(e_mean, np.finfo(float).tiny)
        self._logf = np.log(floored / scale)
        self._dlogf = -ze_mean / (h * floored)
        d = self._step
        steps = d / 2 * (self._f[:-1] + self._f[1:]) + d * d / 12 * (df[:-1] - df[1:])
        first = self._kernel_mean(self._lo, ndtr)
        self._cdf = first + np.concatenate(([0.0], np.cumsum(steps)))

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

    def _blocks(self, flat):
        """Row slices of the values ``flat`` and their (values x centres)
        standardised distances ``z = (x - centre) / bandwidth``, in row
        blocks of at most ``BLOCK_CELLS`` cells, so that temporaries stay in
        cache.  Each block is computed into one buffer, which the next block
        overwrites, so a caller may also overwrite it."""
        rows = max(1, BLOCK_CELLS // self.centers.size)
        buf = np.empty((min(rows, flat.size), self.centers.size))
        for i in range(0, flat.size, rows):
            z = buf[: min(rows, flat.size - i)]
            np.subtract(flat[i : i + rows, None], self.centers, out=z)
            z /= self.bandwidth
            yield slice(i, i + rows), z

    def _kernel_mean(self, x, kernel):
        """Mean of ``kernel(z)`` over the centres for each value of ``x``;
        each row is reduced exactly as from the whole matrix."""
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        out = np.empty(flat.size)
        for rows, z in self._blocks(flat):
            out[rows] = kernel(z).mean(axis=-1)
        return out.reshape(x.shape)[()]

    def _evaluate(self, x, on_grid, exact):
        """``on_grid(k, t)`` for each value of ``x`` on the grid, in node
        interval ``k`` at position ``t`` in [0, 1); ``exact`` of the others."""
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        s = (flat - self._lo) / self._step
        k = np.floor(s)
        inside = (k >= 0) & (k < self._f.size - 1)
        out = np.empty(flat.size)
        k = k[inside].astype(np.intp)
        out[inside] = on_grid(k, s[inside] - k)
        if not inside.all():
            out[~inside] = exact(flat[~inside])
        return out.reshape(x.shape)[()]

    def _hermite(self, y, dy, k, t):
        """Cubic Hermite through values ``y`` and slopes ``dy`` at the nodes."""
        y0, rise = y[k], y[k + 1] - y[k]
        d0, d1 = self._step * dy[k], self._step * dy[k + 1]
        return y0 + t * (d0 + t * (3.0 * rise - 2.0 * d0 - d1 + t * (d0 + d1 - 2.0 * rise)))

    def pdf(self, x):
        return self._evaluate(
            x,
            lambda k, t: np.exp(self._hermite(self._logf, self._dlogf, k, t)),
            lambda v: self._kernel_mean(v, _gauss) / (self.bandwidth * np.sqrt(2.0 * np.pi)),
        )

    def cdf(self, x):
        return _clip(
            self._evaluate(
                x,
                lambda k, t: self._hermite(self._cdf, self._f, k, t),
                lambda v: self._kernel_mean(v, ndtr),
            )
        )

    def cdf_left(self, x):
        return self.cdf(x)

    def to_dict(self):
        return {
            "kind": self.kind,
            "centers": self.centers.tolist(),
            "bandwidth": self.bandwidth,
        }


def _gauss(z):
    # z * z overflows to inf for an extreme finite value, whose density is 0
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z)


class EmpiricalMargin:
    """Piecewise-linear CDF through the points ``(x_(i), rank_i/(n+1))``.

    Ties take the highest rank.  Between knots the CDF is interpolated
    linearly.
    """

    kind = "empirical"
    is_discrete = False

    def __init__(self, knots_x, knots_p):
        self.knots_x = np.asarray(knots_x, dtype=float)
        self.knots_p = np.asarray(knots_p, dtype=float)
        if self.knots_x.size < 2:
            raise DegenerateMargin("empirical margin needs at least 2 distinct values")
        x, p = self.knots_x, self.knots_p
        if p.shape != x.shape:
            raise DegenerateMargin("empirical margin needs one probability per knot")
        if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
            raise DegenerateMargin("empirical knots must be finite and strictly increasing")
        if not (np.all((p >= 0) & (p <= 1)) and np.all(np.diff(p) >= 0)):
            raise DegenerateMargin("empirical knot probabilities must be non-decreasing in [0, 1]")

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
        return _clip(np.interp(np.asarray(x, dtype=float), self.knots_x, self.knots_p))

    def cdf_left(self, x):
        return self.cdf(x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        slopes = np.diff(self.knots_p) / np.diff(self.knots_x)
        idx = np.clip(np.searchsorted(self.knots_x, x, side="right") - 1, 0, slopes.size - 1)
        inside = (x >= self.knots_x[0]) & (x <= self.knots_x[-1])
        return np.where(inside, slopes[idx], 0.0)

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
        if not np.all(self.probs > 0):
            raise DegenerateMargin("ordinal probabilities must be strictly positive")
        if not abs(self.probs.sum() - 1.0) <= 1e-12:
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
        return cls(smoothed_level_probs(ordinal_codes(values, levels), levels))

    def cdf(self, x):
        return _clip(self._cum[ordinal_codes(x, self.levels) - 1])

    def cdf_left(self, x):
        codes = ordinal_codes(x, self.levels)
        left = np.where(codes > 1, self._cum[np.maximum(codes - 2, 0)], 0.0)
        return _clip(left)

    def pdf(self, x):
        return self.probs[ordinal_codes(x, self.levels) - 1]

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
