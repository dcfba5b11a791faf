import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

from vinerisk.classifier import ClassifierModel
from vinerisk.data import Schema, VariableSpec
from vinerisk.errors import OrdinalOutOfRange
from vinerisk.margins import KernelMargin, OrdinalMargin
from vinerisk.scenario import (
    BMI_CATEGORIES,
    BaseProfile,
    GridSpec,
    risk_curve,
    risk_surface,
)
from vinerisk.vine import Edge, VineModel, VineStructure


def _schema(names=("x1", "x2")):
    return Schema(
        variables=tuple(VariableSpec(n, "continuous") for n in names), label="y"
    )


def _indep_vine(margins):
    structure = VineStructure(d=len(margins), trees=[[Edge((0, 1))]])
    return VineModel(
        margins=margins, structure=structure, trees=[], truncation=0, nobs=50, psi0=0.9
    )


def _shift_model(shifts, names=("x1", "x2")):
    """Two independence classes of unit-variance normals; class 1 shifted.

    The log density ratio is linear, so the adverse posterior is
    ``expit(sum_j a_j x_j - a_j^2 / 2)`` in closed form.
    """
    base = [KernelMargin(centers=[0.0], bandwidth=1.0) for _ in shifts]
    shifted = [KernelMargin(centers=[a], bandwidth=1.0) for a in shifts]
    return ClassifierModel(
        schema=_schema(names),
        classes=[0, 1],
        priors=np.array([0.5, 0.5]),
        vines=[_indep_vine(base), _indep_vine(shifted)],
    )


def _expected_prob(shifts, xs):
    xs = np.atleast_2d(xs)
    score = sum(a * xs[:, j] - a * a / 2.0 for j, a in enumerate(shifts))
    return expit(score)


class TestGridSpec:
    def test_linspace_values(self):
        g = GridSpec.linspace("x1", -2.0, 2.0, 5)
        assert_allclose(g.values, [-2, -1, 0, 1, 2], atol=1e-15)

    def test_default_resolution(self):
        g = GridSpec.linspace("x1", 0.0, 1.0)
        assert g.points == 200 and g.values.size == 200

    def test_level_list_values(self):
        g = GridSpec.level_list("x2", [1, 3])
        assert_allclose(g.values, [1.0, 3.0], atol=1e-15)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            GridSpec.linspace("x1", 1.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec.linspace("x1", 0.0, 1.0, points=1)
        with pytest.raises(ValueError):
            GridSpec.level_list("x1", [])
        with pytest.raises(OrdinalOutOfRange):
            GridSpec.level_list("o1", [1.5, 2])

    def test_schema_validation(self):
        schema = Schema(
            variables=(
                VariableSpec("x1", "continuous"),
                VariableSpec("k", "ordinal", 3),
            )
        )
        GridSpec.linspace("x1", 0, 1).validate(schema)
        GridSpec.level_list("k", [1, 2, 3]).validate(schema)
        with pytest.raises(ValueError):
            GridSpec.level_list("x1", [1, 2]).validate(schema)
        with pytest.raises(ValueError):
            GridSpec.linspace("k", 1, 3).validate(schema)
        with pytest.raises(OrdinalOutOfRange):
            GridSpec.level_list("k", [4]).validate(schema)


class TestBaseProfile:
    def test_row_follows_schema_order(self):
        schema = _schema()
        row = BaseProfile({"x2": 2.0, "x1": -1.0}).row(schema)
        assert_allclose(row, [-1.0, 2.0], atol=1e-15)

    def test_missing_variable(self):
        with pytest.raises(ValueError):
            BaseProfile({"x1": 0.0}).row(_schema())

    def test_ordinal_values_checked(self):
        schema = Schema(
            variables=(VariableSpec("x1", "continuous"), VariableSpec("k", "ordinal", 3))
        )
        with pytest.raises(OrdinalOutOfRange):
            BaseProfile({"x1": 0.0, "k": 2.5}).row(schema)
        with pytest.raises(OrdinalOutOfRange):
            BaseProfile({"x1": 0.0, "k": 4}).row(schema)
        assert_allclose(BaseProfile({"x1": 0.0, "k": 3}).row(schema), [0.0, 3.0])


class TestRiskCurve:
    def test_matches_closed_form(self):
        model = _shift_model([1.0, 0.0])
        grid = GridSpec.linspace("x1", -3.0, 3.0, 41)
        curve = risk_curve(model, BaseProfile({"x1": 0.0, "x2": 0.3}), grid)
        xs = np.column_stack([grid.values, np.full(41, 0.3)])
        assert_allclose(curve.probs, _expected_prob([1.0, 0.0], xs), rtol=1e-12)
        assert np.all(np.diff(curve.probs) > 0)

    def test_inactive_variable_gives_flat_curve(self):
        model = _shift_model([1.0, 0.0])
        grid = GridSpec.linspace("x2", -3.0, 3.0, 21)
        curve = risk_curve(model, BaseProfile({"x1": 0.4, "x2": 0.0}), grid)
        assert_allclose(curve.probs, curve.probs[0], rtol=1e-12)
        assert_allclose(curve.probs[0], _expected_prob([1.0], [[0.4]]), rtol=1e-12)

    def test_probabilities_stay_in_unit_interval(self):
        model = _shift_model([1.0, 0.7])
        grid = GridSpec.linspace("x1", -30.0, 30.0, 31)
        curve = risk_curve(model, BaseProfile({"x1": 0.0, "x2": 0.0}), grid)
        assert np.all(curve.probs >= 0) and np.all(curve.probs <= 1)
        assert np.all(np.isfinite(curve.probs))

    def test_adverse_class_defaults_to_last(self):
        model = _shift_model([1.0, 0.0])
        base = BaseProfile({"x1": 0.0, "x2": 0.0})
        grid = GridSpec.linspace("x1", -1.0, 1.0, 5)
        default = risk_curve(model, base, grid)
        explicit = risk_curve(model, base, grid, adverse_class=1)
        flipped = risk_curve(model, base, grid, adverse_class=0)
        assert_allclose(default.probs, explicit.probs, rtol=1e-15)
        assert_allclose(flipped.probs, 1.0 - default.probs, atol=1e-12)

    def test_rows(self):
        model = _shift_model([1.0, 0.0])
        curve = risk_curve(
            model, BaseProfile({"x1": 0.0, "x2": 0.0}), GridSpec.linspace("x1", 0, 1, 3)
        )
        rows = curve.rows()
        assert len(rows) == 3
        assert rows[0]["value"] == 0.0
        assert 0.0 <= rows[0]["probability"] <= 1.0


class TestRiskSurface:
    def test_matches_closed_form_and_curve(self):
        shifts = [1.0, 0.7]
        model = _shift_model(shifts)
        g1 = GridSpec.linspace("x1", -2.0, 2.0, 9)
        g2 = GridSpec.linspace("x2", -2.0, 2.0, 7)
        base = BaseProfile({"x1": 0.0, "x2": 0.0})
        surf = risk_surface(model, base, g1, g2)
        assert surf.probs.shape == (9, 7)
        for j, t in enumerate(g2.values):
            curve = risk_curve(model, BaseProfile({"x1": 0.0, "x2": t}), g1)
            assert_allclose(surf.probs[:, j], curve.probs, rtol=1e-12)
        xs = np.column_stack(
            [np.repeat(g1.values, 7), np.tile(g2.values, 9)]
        )
        assert_allclose(surf.probs.ravel(), _expected_prob(shifts, xs), rtol=1e-12)

    def test_contour_detected_when_level_is_crossed(self):
        model = _shift_model([1.0, 0.7])
        surf = risk_surface(
            model,
            BaseProfile({"x1": 0.0, "x2": 0.0}),
            GridSpec.linspace("x1", -2.0, 2.0, 15),
            GridSpec.linspace("x2", -2.0, 2.0, 15),
        )
        assert surf.contour_present
        assert surf.on_contour.any()
        # flagged points hug the level set
        assert np.all(np.abs(surf.probs[surf.on_contour] - 0.5) < 0.25)
        meta = surf.metadata()
        assert meta["contour_present"] is True and meta["contour_level"] == 0.5

    def test_identical_classes_report_no_contour(self):
        model = _shift_model([0.0, 0.0])
        surf = risk_surface(
            model,
            BaseProfile({"x1": 0.0, "x2": 0.0}),
            GridSpec.linspace("x1", -1.0, 1.0, 11),
            GridSpec.linspace("x2", -1.0, 1.0, 11),
        )
        assert_allclose(surf.probs, 0.5, atol=1e-12)
        assert not surf.contour_present
        assert not surf.on_contour.any()

    def test_one_sided_surface_has_no_contour(self):
        model = _shift_model([1.0, 0.0])
        surf = risk_surface(
            model,
            BaseProfile({"x1": 0.0, "x2": 0.0}),
            GridSpec.linspace("x1", 1.0, 3.0, 5),
            GridSpec.linspace("x2", -1.0, 1.0, 5),
        )
        assert np.all(surf.probs > 0.5)
        assert not surf.contour_present

    def test_same_variable_twice_rejected(self):
        model = _shift_model([1.0, 0.0])
        with pytest.raises(ValueError):
            risk_surface(
                model,
                BaseProfile({"x1": 0.0, "x2": 0.0}),
                GridSpec.linspace("x1", -1, 1, 5),
                GridSpec.linspace("x1", -1, 1, 5),
            )

    def test_bmi_axis_metadata(self):
        model = _shift_model([1.0, 0.7], names=("bmi", "x2"))
        surf = risk_surface(
            model,
            BaseProfile({"bmi": 0.0, "x2": 0.0}),
            GridSpec.linspace("bmi", -1, 1, 5),
            GridSpec.linspace("x2", -1, 1, 5),
        )
        meta = surf.metadata()
        assert meta["var1_categories"] == BMI_CATEGORIES
        assert "var2_categories" not in meta
        assert set(BMI_CATEGORIES) == {"underweight", "normal", "overweight", "obese"}

    def test_curve_metadata_names_its_axis(self):
        model = _shift_model([1.0, 0.7], names=("bmi", "x2"))
        base = BaseProfile({"bmi": 0.0, "x2": 0.0})
        bmi = risk_curve(model, base, GridSpec.linspace("bmi", -1, 1, 5))
        assert bmi.metadata() == {"variable": "bmi", "categories": BMI_CATEGORIES}
        x2 = risk_curve(model, base, GridSpec.linspace("x2", -1, 1, 5))
        assert x2.metadata() == {"variable": "x2"}

    def test_rows_enumerate_grid(self):
        model = _shift_model([1.0, 0.0])
        surf = risk_surface(
            model,
            BaseProfile({"x1": 0.0, "x2": 0.0}),
            GridSpec.linspace("x1", 0, 1, 3),
            GridSpec.linspace("x2", 0, 1, 2),
        )
        rows = surf.rows()
        assert len(rows) == 6
        assert rows[0]["v1"] == 0.0 and rows[0]["v2"] == 0.0
        assert rows[1]["v2"] == 1.0  # var2 varies fastest
        assert isinstance(rows[0]["on_contour"], bool)


class TestOrdinalGrids:
    def test_curve_over_ordinal_levels(self):
        codes = np.array([1.0, 2.0, 2.0, 3.0, 2.0, 1.0, 3.0, 2.0])
        schema = Schema(
            variables=(VariableSpec("x1", "continuous"), VariableSpec("k", "ordinal", 3)),
            label="y",
        )
        margins0 = [KernelMargin(centers=[0.0], bandwidth=1.0), OrdinalMargin.fit(codes, 3)]
        margins1 = [KernelMargin(centers=[1.0], bandwidth=1.0), OrdinalMargin.fit(codes, 3)]
        model = ClassifierModel(
            schema=schema,
            classes=[0, 1],
            priors=np.array([0.5, 0.5]),
            vines=[_indep_vine(margins0), _indep_vine(margins1)],
        )
        curve = risk_curve(
            model, BaseProfile({"x1": 0.2, "k": 2}), GridSpec.level_list("k", [1, 2, 3])
        )
        assert_allclose(curve.values, [1.0, 2.0, 3.0])
        # the ordinal margin is shared between classes, so it cancels
        assert_allclose(curve.probs, np.full(3, _expected_prob([1.0], [[0.2]])[0]), rtol=1e-12)
