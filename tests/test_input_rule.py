"""One input rule for modeled values, at every entry point that takes them.

A non-finite cell of a table (``Dataset``, ``posterior``, ``risk_curve``,
``BaseProfile.row``) raises MissingValue; every other bad ordinal value, at
those and at the margin, grid and latent entry points, raises
OrdinalOutOfRange.
"""

import numpy as np
import pytest

from vinerisk.classifier import fit_classifier, posterior
from vinerisk.data import Dataset, Schema, VariableSpec
from vinerisk.diagnostics import latent_normal_scores
from vinerisk.errors import MissingValue, OrdinalOutOfRange, SchemaError
from vinerisk.latent import ordinal_thresholds, polychoric_rho, polyserial_rho
from vinerisk.margins import OrdinalMargin
from vinerisk.scenario import BaseProfile, GridSpec, risk_curve

LEVELS = 3
SCHEMA = Schema(
    variables=(VariableSpec("x", "continuous"), VariableSpec("k", "ordinal", LEVELS)),
    label="y",
)
BAD = [0.0, LEVELS + 1.0, 1.5, np.nan, np.inf, -np.inf]
BAD_IDS = ["zero", "levels+1", "1.5", "nan", "inf", "-inf"]


def _sample(n=60, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.multivariate_normal([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]], size=n)
    codes = np.digitize(z[:, 1], [-0.5, 0.5]) + 1.0
    return z[:, 0], codes


@pytest.fixture(scope="module")
def model():
    x0, k0 = _sample(40, seed=1)
    x1, k1 = _sample(40, seed=2)
    x = np.column_stack([np.concatenate([x0, x1 + 1.0]), np.concatenate([k0, k1])])
    labels = np.repeat([0, 1], 40)
    return fit_classifier(Dataset(SCHEMA, x, labels=labels))


def _codes_with(bad):
    x, codes = _sample()
    codes[7] = bad
    return x, codes


def _table_with(bad):
    x, codes = _codes_with(bad)
    return np.column_stack([x, codes])


def _margin():
    return OrdinalMargin.fit(_sample()[1], LEVELS)


TABLE_CHECKS = {
    "Dataset": lambda bad, m: Dataset(SCHEMA, _table_with(bad)),
    "BaseProfile.row": lambda bad, m: BaseProfile({"x": 0.0, "k": bad}).row(SCHEMA),
    "posterior": lambda bad, m: posterior(m, _table_with(bad)),
    "risk_curve": lambda bad, m: risk_curve(
        m, BaseProfile({"x": 0.0, "k": bad}), GridSpec.linspace("x", -1.0, 1.0, 5)
    ),
}

CODE_CHECKS = {
    "OrdinalMargin.fit": lambda bad, m: OrdinalMargin.fit(_codes_with(bad)[1], LEVELS),
    "OrdinalMargin.cdf": lambda bad, m: _margin().cdf(np.array([1.0, bad])),
    "OrdinalMargin.pdf": lambda bad, m: _margin().pdf(bad),
    "OrdinalMargin.cdf_left": lambda bad, m: _margin().cdf_left(np.array([bad, 2.0])),
    "GridSpec": lambda bad, m: GridSpec.level_list("k", [1, bad]).validate(SCHEMA),
    "ordinal_thresholds": lambda bad, m: ordinal_thresholds(_codes_with(bad)[1], LEVELS),
    "polyserial_rho": lambda bad, m: polyserial_rho(*_codes_with(bad), LEVELS),
    "polychoric_rho": lambda bad, m: polychoric_rho(
        _codes_with(bad)[1], LEVELS, _sample()[1], LEVELS
    ),
    "latent_normal_scores": lambda bad, m: latent_normal_scores(*_codes_with(bad), LEVELS),
}


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("entry", sorted(TABLE_CHECKS))
def test_table_checks(entry, bad, model):
    want = OrdinalOutOfRange if np.isfinite(bad) else MissingValue
    with pytest.raises(want):
        TABLE_CHECKS[entry](bad, model)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("entry", sorted(CODE_CHECKS))
def test_code_checks(entry, bad, model):
    with pytest.raises(OrdinalOutOfRange):
        CODE_CHECKS[entry](bad, model)


@pytest.mark.parametrize("entry", sorted(TABLE_CHECKS) + sorted(CODE_CHECKS))
def test_valid_codes_pass(entry, model):
    (TABLE_CHECKS | CODE_CHECKS)[entry](2.0, model)


def test_ordinal_codes():
    from vinerisk.data import ordinal_codes

    codes = ordinal_codes([1.0, 3.0, 2.0], LEVELS)
    assert codes.dtype.kind == "i" and codes.tolist() == [1, 3, 2]
    assert ordinal_codes([7.0, 1.0]).tolist() == [7, 1]  # no upper end without levels
    assert ordinal_codes(np.empty(0), LEVELS).size == 0
    for bad in (0.0, -2.0, 2.0**53 + 2.0, 0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(OrdinalOutOfRange):
            ordinal_codes([1.0, bad])


def test_posterior_checks_continuous_cells_and_width(model):
    x = _table_with(2.0)
    for bad in (np.nan, np.inf, -np.inf):
        x[3, 0] = bad
        with pytest.raises(MissingValue, match="column 'x', row 3"):
            posterior(model, x)
    with pytest.raises(SchemaError):
        posterior(model, np.ones((4, 3)))


def test_grid_bounds_must_be_finite(model):
    for lo, hi in ((-np.inf, 2.0), (0.0, np.inf), (np.nan, 2.0)):
        with pytest.raises(ValueError, match="finite"):
            GridSpec.linspace("x", lo, hi, 5)
    # a grid built around linspace still meets the row check
    grid = GridSpec("x", lo=-np.inf, hi=2.0, points=5)
    with np.errstate(invalid="ignore"), pytest.raises(MissingValue):
        risk_curve(model, BaseProfile({"x": 0.0, "k": 2}), grid)
