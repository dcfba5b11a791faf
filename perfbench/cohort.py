"""Seeded input generator for the benchmark, written with numpy and scipy only.

The package's own simulator and copula samplers are deliberately not used:
a change to the program must never change the inputs it is measured on.

Each class is a tree of pair copulas over a latent root and seven observed
variables, four continuous and three ordinal with five levels.  Rows are
drawn by conditional inversion along the tree, root first.
The edge families include rotated and negative ones, and one edge joins two
ordinal variables, so the fit exercises family selection and the discrete
CDF-rectangle likelihood.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

NAMES = ("c1", "c2", "c3", "c4", "o1", "o2", "o3")
ORDINAL = ("o1", "o2", "o3")
LEVELS = 5

#: Per class: (child, parent, family, rotation, parameter), in sampling order.
#: ``L`` is a latent root that is never observed; marginalising it out leaves
#: its four children mutually dependent, which a first tree cannot capture,
#: so the fitted vines need deeper trees and propagate through them.
_TREES = {
    1: (
        ("c1", "L", "gumbel", 0, 2.0),
        ("c3", "L", "clayton", 90, 1.2),
        ("o2", "L", "gaussian", 0, 0.6),
        ("c4", "L", "frank", 0, 4.0),
        ("c2", "c1", "clayton", 180, 1.5),
        ("o1", "c2", "gaussian", 0, -0.5),
        ("o3", "o2", "clayton", 0, 1.5),
    ),
    0: (
        ("c1", "L", "gaussian", 0, 0.6),
        ("c3", "L", "gumbel", 180, 1.7),
        ("o2", "L", "clayton", 270, 0.9),
        ("c4", "L", "gaussian", 0, 0.5),
        ("c2", "c1", "frank", 0, 3.0),
        ("o1", "c2", "clayton", 0, 0.8),
        ("o3", "o2", "gaussian", 0, 0.35),
    ),
}

#: Per class location shift of the continuous margins.
_SHIFT = {1: (0.8, 0.5, -0.4, 0.3), 0: (0.0, 0.0, 0.0, 0.0)}

#: Per class cumulative probabilities of ordinal levels 1..4 (level 5 takes the rest).
_CUTS = {
    1: (0.10, 0.30, 0.55, 0.80),
    0: (0.25, 0.50, 0.72, 0.90),
}

_CLIP = 1e-12


def _clip(u):
    return np.clip(u, _CLIP, 1.0 - _CLIP)


def _gumbel_h(v, u, theta):
    """P(V <= v | U = u) for the unrotated Gumbel copula."""
    lu, lv = -np.log(u), -np.log(v)
    s = lu**theta + lv**theta
    c = np.exp(-(s ** (1.0 / theta)))
    return c / u * lu ** (theta - 1.0) * s ** (1.0 / theta - 1.0)


def _base_hinv(family, w, u, theta):
    """Inverse in v of the base family's conditional CDF P(V <= v | U = u)."""
    if family == "gaussian":
        return ndtr(theta * ndtri(u) + np.sqrt(1.0 - theta * theta) * ndtri(w))
    if family == "clayton":
        inner = (w * u ** (theta + 1.0)) ** (-theta / (theta + 1.0)) + 1.0 - u ** (-theta)
        return inner ** (-1.0 / theta)
    if family == "frank":
        a = np.expm1(-theta)
        b = np.exp(-theta * u)
        return -np.log1p(w * a / (b - w * (b - 1.0))) / theta
    if family == "gumbel":
        lo, hi = np.full(w.shape, _CLIP), np.full(w.shape, 1.0 - _CLIP)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            above = _gumbel_h(mid, u, theta) > w
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        return 0.5 * (lo + hi)
    raise ValueError(family)


def _conditional_draw(family, rotation, theta, u, w):
    """Draw V given U = u for a rotated family by conditional inversion."""
    if rotation == 0:
        return _base_hinv(family, w, u, theta)
    if rotation == 90:
        return _base_hinv(family, w, 1.0 - u, theta)
    if rotation == 180:
        return 1.0 - _base_hinv(family, w, 1.0 - u, theta)
    return 1.0 - _base_hinv(family, w, u, theta)


def _class_rows(label: int, n: int, rng: np.random.Generator) -> np.ndarray:
    u = {"L": _clip(rng.random(n))}
    for child, parent, family, rotation, theta in _TREES[label]:
        w = _clip(rng.random(n))
        u[child] = _clip(_conditional_draw(family, rotation, theta, u[parent], w))
    shift = _SHIFT[label]
    cols = [
        ndtri(u["c1"]) + shift[0],
        np.exp(0.5 * ndtri(u["c2"])) + shift[1],
        -np.log1p(-u["c3"]) + shift[2],
        2.0 * ndtri(u["c4"]) + shift[3],
    ]
    cuts = np.asarray(_CUTS[label])
    for name in ORDINAL:
        cols.append(np.searchsorted(cuts, u[name], side="left") + 1.0)
    return np.column_stack(cols)


def cohort(seed, n_per_class: int) -> tuple[np.ndarray, np.ndarray]:
    """``n_per_class`` rows of each class, shuffled; returns ``(x, labels)``."""
    rng = np.random.default_rng(seed)
    x = np.vstack([_class_rows(1, n_per_class, rng), _class_rows(0, n_per_class, rng)])
    labels = np.repeat([1, 0], n_per_class)
    order = rng.permutation(x.shape[0])
    return x[order], labels[order]


def split_cohort(seed, n_train: int, n_test: int):
    """A cohort split per class into train and held-out parts.

    Returns ``(x_train, y_train, x_test, y_test)``.
    """
    rng = np.random.default_rng(seed)
    parts = {}
    for label in (1, 0):
        rows = _class_rows(label, n_train + n_test, rng)
        parts[label] = (rows[:n_train], rows[n_train:])
    out = []
    for k in (0, 1):
        x = np.vstack([parts[1][k], parts[0][k]])
        y = np.repeat([1, 0], x.shape[0] // 2)
        order = rng.permutation(x.shape[0])
        out += [x[order], y[order]]
    return tuple(out)


def rows(seed, n: int) -> np.ndarray:
    """``n`` unlabelled rows from an even mixture of the two classes."""
    x, _ = cohort(seed, (n + 1) // 2)
    return x[:n]
