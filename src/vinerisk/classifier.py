"""Generative two-class (or K-class) classifier built on per-class vines.

One vine copula model is fitted to each class's rows; Bayes' rule turns the
class-conditional log densities into posterior probabilities.  Calibration
is reported with per-class negative log likelihood and Brier scores, and
the adverse-class posterior drives low/moderate/high risk grouping.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .data import MIN_ROWS, Dataset, Schema, check_rows
from .errors import DegenerateLabels, TooFewObservations
from .latent import latent_correlation_matrix, midranks
from .margins import fit_margin
from .vine import (
    FitConfig,
    VineModel,
    distinct_columns,
    fit_vine,
    select_structure,
    vine_logdensity,
)

PROB_FLOOR = 1e-300

RISK_GROUPS = ("low", "moderate", "high")


@dataclass
class ClassifierModel:
    """Per-class vines plus priors; immutable after fitting."""

    schema: Schema
    classes: list[int]
    priors: np.ndarray
    vines: list[VineModel]

    def __post_init__(self):
        self.priors = np.asarray(self.priors, dtype=float)
        if len(self.classes) != len(self.vines) or len(self.classes) != self.priors.size:
            raise ValueError("classes, priors and vines must align")
        if np.any(self.priors <= 0) or abs(self.priors.sum() - 1.0) > 1e-12:
            raise ValueError("priors must be positive and sum to one")

    def class_index(self, label: int) -> int:
        return self.classes.index(label)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema.to_dict(),
            "classes": list(self.classes),
            "priors": self.priors.tolist(),
            "vines": [v.to_dict() for v in self.vines],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ClassifierModel":
        return cls(
            schema=Schema.from_dict(obj["schema"]),
            classes=[int(c) for c in obj["classes"]],
            priors=np.asarray(obj["priors"], dtype=float),
            vines=[VineModel.from_dict(v) for v in obj["vines"]],
        )

    def save(self, path) -> None:
        # json.dumps takes the C encoder; json.dump to a file would not
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path) -> "ClassifierModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def fit_classifier(
    train: Dataset,
    config: Optional[FitConfig] = None,
    class_families: Optional[dict] = None,
) -> ClassifierModel:
    """Fit one vine per class; priors equal by default or empirical by flag.

    ``class_families`` optionally restricts the candidate copula families
    per class label (used e.g. when the true families are known).
    """
    config = config or FitConfig()
    if train.labels is None:
        raise DegenerateLabels("training data has no labels")
    per_class = train.split_by_class()
    classes = sorted(c for c, ds in per_class.items() if ds.n > 0)
    if len(classes) < 2:
        raise DegenerateLabels(f"need at least two classes, got {classes}")
    vines = []
    for cls in classes:
        ds = per_class[cls]
        if ds.n < MIN_ROWS:
            raise TooFewObservations(f"class {cls} has only {ds.n} rows (need {MIN_ROWS})")
        cfg = config
        if class_families and cls in class_families:
            cfg = dataclasses.replace(config, families=tuple(class_families[cls]))
        margins = [
            fit_margin(ds.x[:, j], spec, method=cfg.margin_method)
            for j, spec in enumerate(ds.schema.variables)
        ]
        corr = latent_correlation_matrix(ds)
        structure = select_structure(corr)
        vines.append(fit_vine(ds.x, margins, structure, cfg))
    if config.priors == "empirical":
        counts = np.array([per_class[c].n for c in classes], dtype=float)
        priors = counts / counts.sum()
    else:
        priors = np.full(len(classes), 1.0 / len(classes))
    return ClassifierModel(
        schema=train.schema, classes=classes, priors=priors, vines=vines
    )


def class_logdensity(model: ClassifierModel, x: np.ndarray) -> np.ndarray:
    """Matrix of per-class log densities, one column per class, of the rows
    of ``x`` checked by :func:`~vinerisk.data.check_rows`."""
    x = check_rows(model.schema, np.atleast_2d(x))
    distinct = distinct_columns(x)
    return np.column_stack([vine_logdensity(v, x, distinct) for v in model.vines])


def posteriors_from_logdensity(logf: np.ndarray, priors) -> np.ndarray:
    """Bayes' rule on log densities with log-sum-exp stabilization."""
    logf = np.atleast_2d(np.asarray(logf, dtype=float))
    logw = logf + np.log(np.asarray(priors, dtype=float))[None, :]
    return np.exp(logw - logsumexp(logw, axis=1, keepdims=True))


def posterior(model: ClassifierModel, x: np.ndarray) -> np.ndarray:
    """Posterior class probabilities per row; rows sum to one."""
    return posteriors_from_logdensity(class_logdensity(model, x), model.priors)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_class_nll(probs: np.ndarray, labels: np.ndarray, classes) -> dict:
    """Mean negative log posterior of the true class, per class.

    Returns per-class values plus the observation-weighted overall mean and
    the plain sum over all rows (two conventions, both reported).
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    labels = np.asarray(labels)
    out = {"per_class": {}, "counts": {}}
    total = 0.0
    n_total = 0
    for k, cls in enumerate(classes):
        mask = labels == cls
        nj = int(mask.sum())
        out["counts"][cls] = nj
        if nj == 0:
            out["per_class"][cls] = None
            continue
        logp = np.log(np.maximum(probs[mask, k], PROB_FLOOR))
        out["per_class"][cls] = float(-logp.mean())
        total += float(-logp.sum())
        n_total += nj
    out["sum"] = total
    out["mean"] = total / n_total if n_total else None
    return out


def per_class_brier(probs: np.ndarray, labels: np.ndarray, classes) -> dict:
    """Mean squared probability error restricted to each class's rows."""
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    labels = np.asarray(labels)
    out = {}
    for k, cls in enumerate(classes):
        mask = labels == cls
        if not mask.any():
            out[cls] = None
            continue
        out[cls] = float(np.mean((1.0 - probs[mask, k]) ** 2))
    return out


def auc(scores: np.ndarray, labels: np.ndarray, positive) -> float:
    """Mann-Whitney AUC of ``scores`` for the positive class, midranks for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == positive
    n1 = int(pos.sum())
    n0 = scores.size - n1
    if n1 == 0 or n0 == 0:
        raise DegenerateLabels("AUC needs both classes present")
    ranks = midranks(scores)
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


# ---------------------------------------------------------------------------
# risk groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskPolicy:
    """Threshold parameter and the class whose posterior is thresholded."""

    alpha: float
    adverse_class: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")


def assign_risk_groups(p_adverse: np.ndarray, policy: RiskPolicy) -> np.ndarray:
    """Bucket each probability: low if p <= alpha, high if p >= 1 - alpha,
    moderate otherwise (boundaries inclusive on the outer buckets)."""
    p = np.asarray(p_adverse, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both comparisons
        raise ValueError("probabilities must be finite and lie in [0, 1]")
    groups = np.full(p.shape, "moderate", dtype=object)
    groups[p <= policy.alpha] = "low"
    groups[p >= 1.0 - policy.alpha] = "high"
    return groups


def risk_group_report(
    p_adverse: np.ndarray,
    labels: np.ndarray,
    alphas,
    adverse_class: int = 1,
    aux: Optional[np.ndarray] = None,
) -> list[dict]:
    """Per (alpha, group): class counts and auxiliary-outcome mean/sd.

    The sd uses the n-1 denominator; empty groups report zero counts and
    absent statistics.
    """
    p = np.asarray(p_adverse, dtype=float)
    labels = np.asarray(labels)
    class_values = sorted(set(int(v) for v in labels))
    rows = []
    for alpha in alphas:
        groups = assign_risk_groups(p, RiskPolicy(alpha, adverse_class))
        for name in RISK_GROUPS:
            mask = groups == name
            row = {"alpha": float(alpha), "group": name, "n": int(mask.sum())}
            for cls in class_values:
                row[f"n_class{cls}"] = int(np.sum(mask & (labels == cls)))
            if aux is not None and mask.any():
                vals = np.asarray(aux, dtype=float)[mask]
                row["aux_mean"] = float(vals.mean())
                row["aux_sd"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            else:
                row["aux_mean"] = None
                row["aux_sd"] = None
            rows.append(row)
    return rows


def evaluate_probs(probs: np.ndarray, labels: np.ndarray, classes) -> dict:
    """Bundle of calibration/discrimination metrics for one scored split."""
    probs = np.atleast_2d(np.asarray(probs, dtype=float))
    nll = per_class_nll(probs, labels, classes)
    brier = per_class_brier(probs, labels, classes)
    labels_arr = np.asarray(labels)
    auc_val: Optional[float] = None
    if len(classes) == 2 and len(set(labels_arr.tolist())) == 2:
        k_pos = len(classes) - 1
        auc_val = auc(probs[:, k_pos], labels_arr, classes[k_pos])
    return {
        "nll_per_class": nll["per_class"],
        "nll_mean": nll["mean"],
        "nll_sum": nll["sum"],
        "brier_per_class": brier,
        "counts": nll["counts"],
        "auc": auc_val,
    }
