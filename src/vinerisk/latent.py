"""Latent Gaussian correlation estimates used for vine structure selection.

Continuous-continuous pairs use the Pearson correlation of normal scores,
continuous-ordinal pairs a two-step polyserial estimate and ordinal-ordinal
pairs a two-step polychoric estimate (thresholds from the smoothed category
proportions of :func:`~vinerisk.margins.smoothed_level_probs`, then
one-dimensional likelihood maximization over the latent correlation).
Normal scores rank by :func:`midranks`, computed in the package as
``scipy.stats.rankdata`` computes average ranks, so importing the package
does not load ``scipy.stats``.
Ordinal codes pass :func:`~vinerisk.data.ordinal_codes` first, so a code
outside ``1..levels`` raises OrdinalOutOfRange instead of shifting the
thresholds.
The matrix computes each column's transforms once (:class:`LatentColumn`:
whether it is ordinal, an ordinal column's codes and thresholds, a
continuous column's normal scores) and hands them to
:func:`pairwise_latent_rho` for every pair it joins.  The assembled matrix
is repaired to positive definiteness by eigenvalue clipping, and partial
correlations are read off the inverse of its principal sub-matrices.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

from .bvn import bvn_cdf
from .data import MIN_ROWS, Dataset, ordinal_codes
from .errors import DegenerateMargin, NearSingular, TooFewObservations
from .margins import smoothed_level_probs
from .optim import minimize_bounded

#: Floor for cell probabilities inside latent likelihoods.
PROB_FLOOR = 1e-12

#: Eigenvalue floor used by the positive-definiteness repair.
EIG_FLOOR = 1e-6

_RHO_BOUNDS = (-0.999, 0.999)


def midranks(x) -> np.ndarray:
    """Ranks 1..n of a finite sample, tied values sharing the mean of the
    ranks they span (``scipy.stats.rankdata``'s "average" method)."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    upto = np.cumsum(counts)
    return ((upto - counts + upto + 1.0) / 2.0)[group]


def normal_scores(x) -> np.ndarray:
    """Map a sample to normal scores ``ndtri(rank / (n + 1))`` (midranks)."""
    x = np.asarray(x, dtype=float)
    return ndtri(midranks(x) / (x.size + 1.0))


def _check_rows(n: int) -> None:
    if n < MIN_ROWS:
        raise TooFewObservations(f"need at least {MIN_ROWS} rows, got {n}")


def normal_scores_pearson(x, y) -> float:
    """Pearson correlation of the normal scores of two continuous samples."""
    x = np.asarray(x, float)
    _check_rows(x.size)
    return _pearson(normal_scores(x), normal_scores(y))


def _pearson(zx, zy) -> float:
    if zx.std() == 0.0 or zy.std() == 0.0:
        raise DegenerateMargin("constant column in correlation estimate")
    return float(np.corrcoef(zx, zy)[0, 1])


def ordinal_thresholds(codes, levels: int) -> np.ndarray:
    """Latent normal cut points from smoothed category proportions.

    Returns an array of length ``levels + 1`` including ``-inf`` and ``inf``.
    """
    return _thresholds(ordinal_codes(codes, levels), levels)


def _thresholds(codes, levels: int) -> np.ndarray:
    cum = np.cumsum(smoothed_level_probs(codes, levels))[:-1]
    return np.concatenate(([-np.inf], ndtri(cum), [np.inf]))


class LatentColumn:
    """One variable's transforms for its latent correlations, computed once
    from its values ``x`` and its ``spec``: ``is_ordinal``, and an ordinal
    column's integer ``codes`` and ``thresholds``
    (:func:`ordinal_thresholds`) or a continuous column's normal
    ``scores``.  ``n`` is the number of rows."""

    def __init__(self, x, spec):
        self.is_ordinal = spec.is_ordinal
        if spec.is_ordinal:
            self.codes = ordinal_codes(x, spec.levels)
            self.thresholds = _thresholds(self.codes, spec.levels)
            self.n = self.codes.size
        else:
            x = np.asarray(x, float)
            self.scores = normal_scores(x)
            self.n = x.size


def polyserial_rho(x, codes, levels: int) -> float:
    """Two-step polyserial correlation of a continuous and an ordinal sample."""
    x = np.asarray(x, float)
    codes = ordinal_codes(codes, levels)
    _check_rows(x.size)
    return _polyserial(normal_scores(x), codes, _thresholds(codes, levels))


def _polyserial(z, codes, thr) -> float:
    if z.std() == 0.0:
        raise DegenerateMargin("constant continuous column in polyserial estimate")
    t_hi = thr[codes]
    t_lo = thr[codes - 1]

    def neg_ll(rho):
        s = math.sqrt(1.0 - rho * rho)
        p = ndtr((t_hi - rho * z) / s) - ndtr((t_lo - rho * z) / s)
        return -float(np.sum(np.log(np.maximum(p, PROB_FLOOR))))

    return float(minimize_bounded(neg_ll, *_RHO_BOUNDS)[0])


def polychoric_rho(codes1, levels1: int, codes2, levels2: int) -> float:
    """Two-step polychoric correlation of two ordinal samples."""
    codes1 = ordinal_codes(codes1, levels1)
    codes2 = ordinal_codes(codes2, levels2)
    _check_rows(codes1.size)
    return _polychoric(codes1, _thresholds(codes1, levels1), codes2, _thresholds(codes2, levels2))


def _polychoric(codes1, thr1, codes2, thr2) -> float:
    counts = np.zeros((thr1.size - 1, thr2.size - 1))
    np.add.at(counts, (codes1 - 1, codes2 - 1), 1.0)
    g1, g2 = np.meshgrid(thr1, thr2, indexing="ij")

    def neg_ll(rho):
        grid = bvn_cdf(g1, g2, rho)
        cells = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
        return -float(np.sum(counts * np.log(np.maximum(cells, PROB_FLOOR))))

    return float(minimize_bounded(neg_ll, *_RHO_BOUNDS)[0])


def pairwise_latent_rho(ci: LatentColumn, cj: LatentColumn) -> float:
    """Latent correlation of two columns' :class:`LatentColumn`, dispatched
    on whether each is ordinal: the estimate, its checks and its errors are
    those of :func:`normal_scores_pearson`, :func:`polyserial_rho` (in
    either order) or :func:`polychoric_rho` on the columns' values.
    """
    _check_rows(ci.n)
    if ci.is_ordinal and cj.is_ordinal:
        return _polychoric(ci.codes, ci.thresholds, cj.codes, cj.thresholds)
    if ci.is_ordinal:
        return _polyserial(cj.scores, ci.codes, ci.thresholds)
    if cj.is_ordinal:
        return _polyserial(ci.scores, cj.codes, cj.thresholds)
    return _pearson(ci.scores, cj.scores)


def make_positive_definite(m, floor: float = EIG_FLOOR) -> np.ndarray:
    """Clip eigenvalues at ``floor`` and rescale to unit diagonal."""
    m = np.asarray(m, dtype=float)
    eigval, eigvec = np.linalg.eigh(m)
    if eigval.min() >= floor:
        return m
    repaired = (eigvec * np.maximum(eigval, floor)) @ eigvec.T
    scale = np.sqrt(np.diag(repaired))
    repaired = repaired / np.outer(scale, scale)
    np.fill_diagonal(repaired, 1.0)
    return repaired


def latent_correlation_matrix(ds: Dataset) -> np.ndarray:
    """Pairwise latent correlations of all modeled variables, PD-repaired.

    Each column's transforms are computed once (:class:`LatentColumn`), and
    each pair's :func:`pairwise_latent_rho` reads them.
    """
    d, specs = ds.d, ds.schema.variables
    m = np.eye(d)
    cols = [LatentColumn(ds.x[:, j], spec) for j, spec in enumerate(specs)] if d > 1 else []
    for i in range(d):
        for j in range(i + 1, d):
            m[i, j] = m[j, i] = pairwise_latent_rho(cols[i], cols[j])
    return make_positive_definite(m)


def partial_correlation(m, a: int, b: int, conditioning=()) -> float:
    """Partial correlation of variables ``a`` and ``b`` given a set:
    ``-P[0, 1] / sqrt(P[0, 0] P[1, 1])``, where ``P`` is the inverse of
    ``m`` restricted to ``[a, b, *sorted(conditioning)]``.  With an empty
    set it is the plain entry ``m[a, b]``.

    Raises
    ------
    NearSingular
        If that sub-matrix has an eigenvalue below ``PROB_FLOOR``.  A matrix
        from :func:`latent_correlation_matrix` never does: its eigenvalues
        are at least ``EIG_FLOOR``, and by Cauchy interlacing so are those of
        each principal sub-matrix.
    """
    m = np.asarray(m, dtype=float)
    if not conditioning:
        return float(m[a, b])
    idx = [a, b, *sorted(conditioning)]
    sub = m[np.ix_(idx, idx)]
    if np.linalg.eigvalsh(sub)[0] < PROB_FLOOR:
        raise NearSingular(f"correlations of {idx} are singular")
    p = np.linalg.inv(sub)
    return float(-p[0, 1] / math.sqrt(p[0, 0] * p[1, 1]))
