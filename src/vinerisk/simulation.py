"""Synthetic benchmark: copula-generated classes vs a logistic baseline.

Two data-generating processes are provided, both read from one generator
table, :data:`CLASS_GENERATORS`.  Both draw class 1 from a Frank copula (tau
0.5) and class 0 from a Gumbel copula (tau 0.9) on the unit square and push
coordinate 1 through normal quantiles with class-specific means.  The
continuous variant also maps coordinate 2 through a normal quantile; the
mixed variant maps it through a Poisson quantile and stores it as 1-based
ordinal codes.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import expit, ndtri, pdtr, pdtrik

from .bicop import Bicop, tau_to_param
from .classifier import evaluate_probs, fit_classifier, posterior
from .data import Dataset, Schema, VariableSpec
from .errors import DegenerateLabels
from .vine import FitConfig


class ClassGenerator(NamedTuple):
    """One class's row of :data:`CLASS_GENERATORS`."""

    family: str
    tau: float
    x1_mean: float
    stream: int


#: The generator per class label, in row order: the copula family and its
#: Kendall's tau, the mean of ``x1`` and the seed sub-stream the class draws
#: from.  The sub-streams must never change, or every seed draws other data.
CLASS_GENERATORS = {
    1: ClassGenerator("frank", 0.5, -1.5, 0),
    0: ClassGenerator("gumbel", 0.9, 0.0, 1),
}

#: Poisson mean of the mixed variant's ``x2`` counts.
POISSON_MEAN = 2.0


@dataclass(frozen=True)
class DgpConfig:
    """Benchmark generator settings; defaults follow the reference setup."""

    variant: str = "continuous"  # or "mixed"
    n_train: int = 700  # per class
    n_test: int = 300  # per class
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("continuous", "mixed"):
            raise ValueError("variant must be 'continuous' or 'mixed'")
        if self.n_train < 1 or self.n_test < 0:
            raise ValueError("split sizes must be positive")


def poisson_quantile(q, lam: float) -> np.ndarray:
    """Smallest ``k`` with ``P(K <= k) >= q`` for ``K ~ Poisson(lam)``, as
    floats, for ``q`` in (0, 1) (``Bicop.sample`` keeps its draws inside):
    ``scipy.stats.poisson.ppf``'s steps, ``k`` from ``pdtrik`` rounded up
    and one step down where the CDF already reaches ``q``."""
    k = np.ceil(pdtrik(q, lam))
    below = np.maximum(k - 1.0, 0.0)
    return np.where(pdtr(below, lam) >= q, below, k)


def simulate_dgp(cfg: DgpConfig) -> Dataset:
    """Draw ``n_train + n_test`` rows per class, deterministically per seed.

    Rows are ordered class 1 then class 0, each block train rows first, so
    :func:`split_train_test` can slice positionally.
    """
    n = cfg.n_train + cfg.n_test
    x1, v = [], []
    for g in CLASS_GENERATORS.values():
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(g.stream,)))
        u = Bicop(g.family, 0, tau_to_param(g.family, g.tau)).sample(n, rng)
        x1.append(ndtri(u[:, 0]) + g.x1_mean)
        v.append(u[:, 1])
    x1, v = np.concatenate(x1), np.concatenate(v)
    if cfg.variant == "continuous":
        x2 = ndtri(v)
        spec2 = VariableSpec("x2", "continuous")
    else:
        x2 = poisson_quantile(v, POISSON_MEAN) + 1.0  # 1-based ordinal codes
        spec2 = VariableSpec("x2", "ordinal", levels=int(x2.max()))
    labels = np.concatenate([np.full(n, label) for label in CLASS_GENERATORS])
    schema = Schema(variables=[VariableSpec("x1", "continuous"), spec2], label="y")
    return Dataset(schema, np.column_stack([x1, x2]), labels=labels)


def split_train_test(ds: Dataset, cfg: DgpConfig) -> tuple[Dataset, Dataset]:
    """Positional train/test split matching :func:`simulate_dgp` row order."""
    n = cfg.n_train + cfg.n_test
    train_idx = np.concatenate(
        [np.arange(0, cfg.n_train), np.arange(n, n + cfg.n_train)]
    )
    test_idx = np.concatenate(
        [np.arange(cfg.n_train, n), np.arange(n + cfg.n_train, 2 * n)]
    )
    return ds.subset(train_idx), ds.subset(test_idx)


# ---------------------------------------------------------------------------
# weighted logistic regression baseline
# ---------------------------------------------------------------------------


@dataclass
class LogisticModel:
    """Intercept-first coefficient vector of a weighted logistic fit."""

    coef: np.ndarray
    ridged: bool = False

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return expit(self.coef[0] + x @ self.coef[1:])


def class_weights(labels: np.ndarray) -> np.ndarray:
    """Per-row weights inversely proportional to class frequency, scaled to
    sum to the number of rows."""
    labels = np.asarray(labels)
    values, counts = np.unique(labels, return_counts=True)
    lookup = {v: 1.0 / c for v, c in zip(values, counts)}
    w = np.array([lookup[v] for v in labels], dtype=float)
    return w * (labels.size / w.sum())


def _irls(xd, y, w, ridge: float, max_iter: int, tol: float):
    beta = np.zeros(xd.shape[1])
    for _ in range(max_iter):
        p = expit(xd @ beta)
        wls = w * p * (1.0 - p)
        h = xd.T @ (wls[:, None] * xd)
        if ridge > 0.0:
            h = h + ridge * np.eye(h.shape[0])
        g = xd.T @ (w * (y - p)) - ridge * beta
        step = np.linalg.solve(h, g)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            return beta, True
    return beta, False


def fit_weighted_logistic(
    train: Dataset, max_iter: int = 100, tol: float = 1e-8
) -> LogisticModel:
    """Weighted maximum likelihood via iteratively reweighted least squares.

    Ordinal variables enter as their numeric codes.  If the plain fit does
    not converge (e.g. perfect separation), a small ridge penalty (1e-6) is
    applied and a warning emitted.
    """
    if train.labels is None or len(set(train.labels.tolist())) != 2:
        raise DegenerateLabels("weighted logistic needs two classes")
    y = (train.labels == max(train.labels)).astype(float)
    w = class_weights(train.labels)
    xd = np.column_stack([np.ones(train.n), train.x])
    try:
        beta, converged = _irls(xd, y, w, 0.0, max_iter, tol)
    except np.linalg.LinAlgError:
        converged = False
    if not converged:
        warnings.warn(
            "logistic fit did not converge; refitting with ridge penalty 1e-6"
        )
        beta, _ = _irls(xd, y, w, 1e-6, max_iter, tol)
        return LogisticModel(coef=beta, ridged=True)
    return LogisticModel(coef=beta)


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

_ORACLE_FAMILIES = {label: (g.family,) for label, g in CLASS_GENERATORS.items()}
#: copula fits of :func:`benchmark_run`: generating families only, or full selection
MODES = ("oracle", "mbic")


def _metric_rows(seed, method, mode, split, metrics) -> list[dict]:
    rows = []

    def add(metric, value):
        if value is not None:
            rows.append(
                {
                    "seed": seed,
                    "method": method,
                    "mode": mode,
                    "split": split,
                    "metric": metric,
                    "value": float(value),
                }
            )

    add("nll_sum", metrics["nll_sum"])
    add("nll_mean", metrics["nll_mean"])
    for cls, v in metrics["nll_per_class"].items():
        add(f"nll_class{cls}", v)
    for cls, v in metrics["brier_per_class"].items():
        add(f"brier_class{cls}", v)
    add("auc", metrics["auc"])
    return rows


def _grid_points(train: Dataset, points: int) -> np.ndarray:
    x1 = train.x[:, 0]
    g1 = np.linspace(x1.min() - 0.5, x1.max() + 0.5, points)
    spec2 = train.schema.variables[1]
    if spec2.kind == "ordinal":
        g2 = np.arange(1, spec2.levels + 1, dtype=float)
    else:
        x2 = train.x[:, 1]
        g2 = np.linspace(x2.min() - 0.5, x2.max() + 0.5, points)
    m1, m2 = np.meshgrid(g1, g2, indexing="ij")
    return np.column_stack([m1.ravel(), m2.ravel()])


def _logistic_posterior(model: LogisticModel, x) -> np.ndarray:
    p1 = model.predict(x)
    return np.column_stack([1.0 - p1, p1])


def benchmark_run(
    cfg: DgpConfig,
    seeds,
    fit_config: Optional[FitConfig] = None,
    modes: tuple = MODES,
    grid_points: int = 0,
) -> tuple[list[dict], list[dict]]:
    """Train both methods per seed on identical splits and score both splits.

    Returns ``(metric_rows, grid_rows)``: long-format metric records and,
    when ``grid_points`` > 0, class-1 probability grids (first seed only)
    for decision-boundary plots.
    """
    unknown = sorted(set(modes) - set(MODES))
    if unknown:
        raise ValueError(f"unknown benchmark modes {unknown}; choose from {', '.join(MODES)}")
    fit_config = fit_config or FitConfig()
    metric_rows: list[dict] = []
    grid_rows: list[dict] = []
    for seed in seeds:
        run_cfg = dataclasses.replace(cfg, seed=seed)
        full = simulate_dgp(run_cfg)
        train, test = split_train_test(full, run_cfg)
        classes = [0, 1]

        # each fitted method's scorer: (n, 2) probabilities of classes 0 and 1
        logit = fit_weighted_logistic(train)
        scorers = {("logistic", "plain"): functools.partial(_logistic_posterior, logit)}
        for mode in modes:
            families = _ORACLE_FAMILIES if mode == "oracle" else None
            model = fit_classifier(train, fit_config, class_families=families)
            scorers[("copula", mode)] = functools.partial(posterior, model)

        for (method, mode), score in scorers.items():
            for split_name, ds in (("train", train), ("test", test)):
                metrics = evaluate_probs(score(ds.x), ds.labels, classes)
                metric_rows.extend(
                    _metric_rows(seed, method, mode, split_name, metrics)
                )
            if grid_points > 0 and seed == seeds[0]:
                pts = _grid_points(train, grid_points)
                for row, p in zip(pts, score(pts)[:, 1]):
                    grid_rows.append(
                        {
                            "seed": seed,
                            "method": method,
                            "mode": mode,
                            "x1": float(row[0]),
                            "x2": float(row[1]),
                            "p_class1": float(p),
                        }
                    )
    return metric_rows, grid_rows
