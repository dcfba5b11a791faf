"""The one minimum-rows rule, ``data.MIN_ROWS``, at every estimator that
enforces it: one row fewer raises TooFewObservations, exactly that many
rows do not."""

import numpy as np
import pytest

from vinerisk.bicop import PairObs, bicop_fit
from vinerisk.classifier import fit_classifier
from vinerisk.data import MIN_ROWS, Dataset, Schema, VariableSpec
from vinerisk.errors import TooFewObservations
from vinerisk.latent import normal_scores_pearson, polychoric_rho, polyserial_rho
from vinerisk.margins import KernelMargin
from vinerisk.vine import fit_vine, select_structure


def _normals(n, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.multivariate_normal(np.zeros(d), 0.5 * np.eye(d) + 0.5, size=n)


def _codes(n, offset=0):
    return (np.arange(n) + offset) % 3 + 1.0


def _pearson(n):
    z = _normals(n)
    normal_scores_pearson(z[:, 0], z[:, 1])


def _polyserial(n):
    polyserial_rho(_normals(n)[:, 0], _codes(n), 3)


def _polychoric(n):
    polychoric_rho(_codes(n), 3, _codes(n, offset=n // 2), 3)


def _bicop_fit(n):
    u = (np.argsort(np.argsort(_normals(n), axis=0), axis=0) + 1.0) / (n + 1.0)
    bicop_fit("gaussian", 0, PairObs(u[:, 0], u[:, 1]))


def _fit_vine(n):
    x = _normals(n, d=3)
    margins = [KernelMargin.fit(x[:, j]) for j in range(3)]
    fit_vine(x, margins, select_structure(np.eye(3)))


def _fit_classifier(short_class):
    def fit(n):
        sizes = {short_class: n, 1 - short_class: 3 * MIN_ROWS}
        x = np.vstack([_normals(sizes[c], seed=c) for c in (0, 1)])
        labels = np.repeat([0, 1], [sizes[0], sizes[1]])
        schema = Schema(
            variables=(VariableSpec("a", "continuous"), VariableSpec("b", "continuous")),
            label="y",
        )
        fit_classifier(Dataset(schema, x, labels=labels))

    return fit


def _class_short(label):
    return rf"class {label} has only {MIN_ROWS - 1} rows \(need {MIN_ROWS}\)"


#: estimator -> (fit on n rows, the message of its own check at MIN_ROWS - 1)
LATENT = f"need at least {MIN_ROWS} rows, got {MIN_ROWS - 1}"
ESTIMATORS = {
    "normal_scores_pearson": (_pearson, LATENT),
    "polyserial_rho": (_polyserial, LATENT),
    "polychoric_rho": (_polychoric, LATENT),
    "bicop_fit": (_bicop_fit, f"at least {MIN_ROWS} observations, got {MIN_ROWS - 1}"),
    "fit_vine": (_fit_vine, f"vine fit needs at least {MIN_ROWS} rows, got {MIN_ROWS - 1}"),
    "fit_classifier_class0": (_fit_classifier(0), _class_short(0)),
    "fit_classifier_class1": (_fit_classifier(1), _class_short(1)),
}


@pytest.mark.parametrize("fit, message", ESTIMATORS.values(), ids=ESTIMATORS.keys())
def test_min_rows_boundary(fit, message):
    with pytest.raises(TooFewObservations, match=message):
        fit(MIN_ROWS - 1)
    fit(MIN_ROWS)
