"""Dependence diagnostics for fitted vines on mixed data.

Two visual checks back the simplifying assumption and pair-copula fits:
Spearman's rho of a continuous pair within each category of an ordinal
conditioner (with bootstrap bands), and a latent-Gaussian rendering of a
continuous-ordinal pair that preserves the polyserial correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .data import ordinal_codes
from .latent import midranks, normal_scores, ordinal_thresholds, polyserial_rho
from .vine import VineModel, model_spearman

MIN_CATEGORY_ROWS = 3
#: Bootstrap resample counts are held this many cells (replicates x rows) at
#: a time, which bounds memory on large inputs.
BLOCK_CELLS = 1 << 21


def _columns(x, y, z) -> list:
    """``x`` and ``y`` as finite float arrays and ``z`` as ordinal codes
    (:func:`~vinerisk.data.ordinal_codes`), checked to be 1-D and equally
    long."""
    cols = [np.asarray(v, dtype=float) for v in (x, y, z)]
    if any(c.ndim != 1 for c in cols):
        raise ValueError("x, y and z must be 1-D")
    if not all(np.all(np.isfinite(c)) for c in cols[:2]):
        raise ValueError("x and y must be finite")
    cols[2] = ordinal_codes(cols[2])
    if len({c.size for c in cols}) != 1:
        raise ValueError(
            f"x, y and z differ in length ({cols[0].size}, {cols[1].size}, {cols[2].size})"
        )
    return cols


def conditional_spearman(x, y, z) -> dict:
    """Spearman's rho of (x, y) within each category of the ordinal z.

    Categories with fewer than ``MIN_CATEGORY_ROWS`` rows are omitted, as
    are degenerate ones (a constant column leaves rho undefined).  Rho is
    the Pearson correlation of the midranks, as ``scipy.stats.spearmanr``
    computes it.
    """
    x, y, z = _columns(x, y, z)
    out = {}
    for cat in np.unique(z):
        mask = z == cat
        if int(mask.sum()) < MIN_CATEGORY_ROWS:
            continue
        xs, ys = x[mask], y[mask]
        if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
            continue
        ranks = np.column_stack([midranks(xs), midranks(ys)])
        out[int(cat)] = float(np.corrcoef(ranks, rowvar=False)[1, 0])
    return out


@dataclass
class ConditionalRhoResult:
    """Observed conditional Spearman with bootstrap band per category."""

    categories: list[int]
    observed: dict
    lower: dict
    upper: dict
    modeled: Optional[dict]
    level: float
    replicates: int

    def rows(self) -> list[dict]:
        out = []
        for cat in self.categories:
            out.append(
                {
                    "category": cat,
                    "observed": self.observed[cat],
                    "lower": self.lower[cat],
                    "upper": self.upper[cat],
                    "modeled": self.modeled.get(cat) if self.modeled else None,
                }
            )
        return out


def _midranks(values, counts) -> np.ndarray:
    """Twice the rank of each row's value within each resample, ties sharing
    midranks, in the integer dtype of ``counts``.

    ``counts[r, i]`` is how often resample ``r`` drew row ``i``.  A value
    drawn ``w`` times after ``c`` draws of smaller values spans ranks
    ``c+1 .. c+w`` and gets their mean, as ``scipy.stats.rankdata`` would
    give it in the expanded resample; twice that is ``c + (c + w) + 1``.
    """
    _, group, sizes = np.unique(values, return_inverse=True, return_counts=True)
    order = np.argsort(group, kind="stable")
    upto = np.cumsum(counts[:, order], axis=1, dtype=counts.dtype)[:, np.cumsum(sizes) - 1]
    below = np.zeros_like(upto)
    below[:, 1:] = upto[:, :-1]
    return (below + upto + 1)[:, group]


#: Rows up to which resample counts and doubled midranks are int32.  A count
#: is at most n and a doubled deviation from the mean rank at most n in size,
#: so their product stays below n**2 < 2**31; larger inputs take int64.
INT32_ROWS = 46_340


def _resample_counts(rng, n: int, k: int) -> np.ndarray:
    """How often each of ``n`` rows is drawn in each of ``k`` resamples with
    replacement, shape ``(k, n)``, as int32 up to ``INT32_ROWS`` rows.

    One ``rng.integers(0, n, size=(k, n))`` call and one offset ``bincount``;
    numpy fills the draw row by row, so the stream and the generator's final
    state are those of ``k`` calls of ``size=n``.
    """
    idx = rng.integers(0, n, size=(k, n)) + n * np.arange(k)[:, None]
    counts = np.bincount(idx.ravel(), minlength=k * n).reshape(k, n)
    return counts.astype(np.int32 if n <= INT32_ROWS else np.int64)


def _resample_spearman(x, y, counts) -> np.ndarray:
    """Spearman's rho of ``(x, y)`` in each usable resample given by ``counts``.

    Rho is the count-weighted Pearson correlation of midranks.  A resample
    is unusable when it holds fewer than ``MIN_CATEGORY_ROWS`` draws or
    either column is constant; those are left out, as in
    :func:`conditional_spearman`.  The deviations of doubled midranks from
    their mean ``N + 1`` are integers, and so are the sums of their squares
    and products, which are exact in float64 below 2**53 (about 2e5 rows):
    a constant column has a sum of squares of exactly zero and any other
    column a positive one.  Doubling scales every sum by 4, which leaves rho
    unchanged to the bit.
    """
    draws = counts.sum(axis=1, dtype=counts.dtype)
    dx = _midranks(x, counts) - (draws[:, None] + 1)
    dy = _midranks(y, counts) - (draws[:, None] + 1)
    cx = counts * dx
    sxx = np.einsum("ij,ij->i", cx, dx, dtype=float)
    syy = np.einsum("ij,ij->i", counts * dy, dy, dtype=float)
    sxy = np.einsum("ij,ij->i", cx, dy, dtype=float)
    ok = (draws >= MIN_CATEGORY_ROWS) & (sxx > 0.0) & (syy > 0.0)
    return np.clip(sxy[ok] / np.sqrt(sxx[ok] * syy[ok]), -1.0, 1.0)


def bootstrap_bands(
    x,
    y,
    z,
    replicates: int = 1000,
    level: float = 0.90,
    seed: int = 0,
) -> ConditionalRhoResult:
    """Percentile bootstrap band for the conditional Spearman per category.

    Rows are resampled with replacement; replicates where a category falls
    under the minimum size or has a constant column are skipped for that
    category.  Each replicate is ``n`` draws of ``rng.integers(0, n)``, the
    same seed stream as resampling rows one replicate at a time, but it is
    kept as per-row counts (:func:`_resample_counts`): rho within a category
    is the count-weighted Pearson correlation of midranks taken from
    cumulative counts over the category's sorted distinct values (the
    multinomial-weights form of the nonparametric bootstrap, Efron &
    Tibshirani 1993, ch. 6).  All replicates of a block are drawn and
    computed in one vectorised pass.
    """
    if replicates < 100:
        raise ValueError("need at least 100 bootstrap replicates")
    if not 0.0 < level < 1.0:
        raise ValueError("band level must lie in (0, 1)")
    x, y, z = _columns(x, y, z)
    n = x.size
    observed = conditional_spearman(x, y, z)
    cats = sorted(observed)
    rows = {cat: z == cat for cat in cats}
    rng = np.random.default_rng(seed)
    draws: dict = {cat: [] for cat in cats}
    block = max(1, BLOCK_CELLS // max(n, 1))
    for start in range(0, replicates, block):
        counts = _resample_counts(rng, n, min(block, replicates - start))
        for cat in cats:
            r = rows[cat]
            draws[cat].append(_resample_spearman(x[r], y[r], counts[:, r]))
    tail = (1.0 - level) / 2.0
    lower = {}
    upper = {}
    for cat in cats:
        vals = np.concatenate(draws[cat])
        if vals.size == 0:
            lower[cat] = upper[cat] = observed[cat]
            continue
        lower[cat] = float(np.quantile(vals, tail))
        upper[cat] = float(np.quantile(vals, 1.0 - tail))
    return ConditionalRhoResult(
        categories=cats,
        observed=observed,
        lower=lower,
        upper=upper,
        modeled=None,
        level=level,
        replicates=replicates,
    )


def model_conditional_spearman(
    model: VineModel,
    conditioned: tuple[int, int],
    categories,
    n_samples: int = 100_000,
    seed: int = 0,
) -> dict:
    """Model-implied Spearman's rho of a vine edge, repeated per category.

    A simplified vine uses one pair copula regardless of the conditioning
    value, so every category receives the same number.  That number is
    :func:`~vinerisk.vine.model_spearman`'s deterministic quadrature;
    ``n_samples`` and ``seed`` are ignored.
    """
    a, b = sorted(conditioned)
    for tree in model.trees:
        for fe in tree:
            if fe.edge.conditioned == (a, b):
                rho = model_spearman(fe.bicop)
                return {int(cat): rho for cat in categories}
    raise KeyError(f"no fitted edge with conditioned pair ({a}, {b})")


def latent_normal_scores(x, codes, levels: int, seed: int = 0) -> tuple:
    """Latent-Gaussian score pair for a continuous-ordinal variable pair.

    The continuous side becomes normal scores; the ordinal side is drawn
    from the conditional normal given those scores (polyserial correlation,
    marginal thresholds), truncated to each observation's level interval.
    Returns ``(z_continuous, z_latent)``.
    """
    x = np.asarray(x, dtype=float)
    codes = ordinal_codes(codes, levels)
    rho = polyserial_rho(x, codes, levels)
    thresholds = ordinal_thresholds(codes, levels)
    zx = normal_scores(x)
    lo = thresholds[codes - 1]
    hi = thresholds[codes]
    mean = rho * zx
    sd = np.sqrt(1.0 - rho * rho)
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=x.size)
    # inverse-CDF sampling of the truncated normal on (a, b)
    fa = ndtr(a)
    fb = ndtr(b)
    p = np.clip(fa + u * (fb - fa), 1e-15, 1.0 - 1e-15)
    zk = mean + sd * ndtri(p)
    zk = np.clip(zk, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf))
    return zx, zk
