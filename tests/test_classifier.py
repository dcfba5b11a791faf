import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from vinerisk.classifier import (
    RISK_GROUPS,
    ClassifierModel,
    RiskPolicy,
    assign_risk_groups,
    auc,
    class_logdensity,
    evaluate_probs,
    fit_classifier,
    per_class_brier,
    per_class_nll,
    posterior,
    posteriors_from_logdensity,
    risk_group_report,
)
from vinerisk.data import Dataset, Schema, VariableSpec
from vinerisk.errors import DegenerateLabels, TooFewObservations
from vinerisk.vine import FitConfig


def _two_class_data(n_per_class=100, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.multivariate_normal([0, 0], [[1, 0.3], [0.3, 1]], size=n_per_class)
    x1 = rng.multivariate_normal([1.5, 1.5], [[1, 0.6], [0.6, 1]], size=n_per_class)
    schema = Schema(
        variables=(VariableSpec("x1", "continuous"), VariableSpec("x2", "continuous")),
        label="y",
    )
    x = np.vstack([x0, x1])
    labels = np.repeat([0, 1], n_per_class)
    return Dataset(schema, x, labels=labels)


class TestPosterior:
    def test_worked_example(self):
        # densities 2:1, priors 0.2:0.8 -> posterior 1/3 : 2/3
        p = posteriors_from_logdensity(np.log([[2.0, 1.0]]), [0.2, 0.8])
        assert_allclose(p, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)

    def test_equal_priors_reduce_to_density_ratio(self):
        p = posteriors_from_logdensity(np.log([[3.0, 1.0]]), [0.5, 0.5])
        assert_allclose(p, [[0.75, 0.25]], atol=1e-14)

    def test_extreme_logdensities_stay_finite(self):
        logf = np.array([[-1000.0, -1001.0], [500.0, 499.0], [-745.0, 745.0]])
        p = posteriors_from_logdensity(logf, [0.5, 0.5])
        assert np.all(np.isfinite(p))
        assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert_allclose(p[0], [expit(1.0), expit(-1.0)], atol=1e-12)
        assert_allclose(p[2], [0.0, 1.0], atol=1e-300)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(5)
        logf = rng.normal(size=(20, 3))
        shifted = logf + rng.normal(size=(20, 1)) * 50.0
        assert_allclose(
            posteriors_from_logdensity(shifted, [0.2, 0.3, 0.5]),
            posteriors_from_logdensity(logf, [0.2, 0.3, 0.5]),
            atol=1e-12,
        )

    def test_prior_monotonicity(self):
        logf = np.log([[1.0, 1.0]])
        lo = posteriors_from_logdensity(logf, [0.3, 0.7])[0, 0]
        hi = posteriors_from_logdensity(logf, [0.6, 0.4])[0, 0]
        assert hi > lo

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rows_always_normalize(self, seed):
        rng = np.random.default_rng(seed)
        logf = rng.uniform(-800, 800, size=(6, 3))
        priors = rng.dirichlet(np.ones(3))
        p = posteriors_from_logdensity(logf, priors)
        assert np.all(p >= 0) and np.all(p <= 1)
        assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestMetrics:
    def setup_method(self):
        # classes (0, 1); columns give the probability of each class
        self.probs = np.array([[0.8, 0.2], [0.5, 0.5], [0.4, 0.6]])
        self.labels = np.array([0, 1, 0])

    def test_per_class_nll_worked_example(self):
        out = per_class_nll(self.probs, self.labels, [0, 1])
        assert_allclose(out["per_class"][0], -(math.log(0.8) + math.log(0.4)) / 2, rtol=1e-14)
        assert_allclose(out["per_class"][1], -math.log(0.5), rtol=1e-14)
        assert out["counts"] == {0: 2, 1: 1}
        total = -(math.log(0.8) + math.log(0.4) + math.log(0.5))
        assert_allclose(out["sum"], total, rtol=1e-14)
        assert_allclose(out["mean"], total / 3.0, rtol=1e-14)

    def test_mean_is_count_weighted_combination(self):
        out = per_class_nll(self.probs, self.labels, [0, 1])
        recomposed = (2 * out["per_class"][0] + 1 * out["per_class"][1]) / 3.0
        assert_allclose(out["mean"], recomposed, rtol=1e-12)

    def test_absent_class_reports_none(self):
        out = per_class_nll(self.probs[:1], self.labels[:1], [0, 1])
        assert out["per_class"][1] is None
        assert out["counts"][1] == 0

    def test_perfect_probabilities(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        out = per_class_nll(probs, labels, [0, 1])
        assert out["sum"] == 0.0
        brier = per_class_brier(probs, labels, [0, 1])
        assert brier == {0: 0.0, 1: 0.0}

    def test_per_class_brier_worked_example(self):
        out = per_class_brier(self.probs, self.labels, [0, 1])
        assert_allclose(out[0], (0.2**2 + 0.6**2) / 2, rtol=1e-14)
        assert_allclose(out[1], 0.25, rtol=1e-14)

    def test_uninformative_brier_is_quarter(self):
        probs = np.full((10, 2), 0.5)
        labels = np.tile([0, 1], 5)
        assert per_class_brier(probs, labels, [0, 1]) == {0: 0.25, 1: 0.25}


class TestAuc:
    def test_hand_counted_pairs(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert_allclose(auc(scores, labels, 1), 0.75, rtol=1e-15)

    def test_perfect_and_reversed(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert auc(scores, labels, 1) == 1.0
        assert auc(-scores, labels, 1) == 0.0

    def test_constant_scores_are_chance(self):
        assert auc(np.full(6, 0.4), np.tile([0, 1], 3), 1) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=200)
        labels = rng.integers(0, 2, size=200)
        assert_allclose(auc(scores, labels, 1), auc(expit(scores), labels, 1), rtol=1e-14)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(10)
        scores = rng.uniform(size=4000)
        labels = rng.integers(0, 2, size=4000)
        assert abs(auc(scores, labels, 1) - 0.5) < 0.05

    def test_single_class_raises(self):
        with pytest.raises(DegenerateLabels):
            auc(np.array([0.1, 0.2]), np.array([1, 1]), 1)


class TestRiskGroups:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RiskPolicy(0.0)
        with pytest.raises(ValueError):
            RiskPolicy(0.5)
        RiskPolicy(0.25)

    def test_worked_assignment(self):
        p = np.array([0.95, 0.10, 0.60, 0.25, 0.75])
        got = assign_risk_groups(p, RiskPolicy(0.25))
        assert list(got) == ["high", "low", "moderate", "low", "high"]

    def test_every_point_lands_in_exactly_one_group(self):
        p = np.linspace(0.0, 1.0, 101)
        groups = assign_risk_groups(p, RiskPolicy(0.2))
        assert set(groups) <= set(RISK_GROUPS)
        counts = {g: int(np.sum(groups == g)) for g in RISK_GROUPS}
        assert sum(counts.values()) == p.size

    def test_outer_groups_grow_with_alpha(self):
        p = np.random.default_rng(3).uniform(size=500)
        sizes = []
        for alpha in (0.1, 0.2, 0.3, 0.4):
            groups = assign_risk_groups(p, RiskPolicy(alpha))
            sizes.append(int(np.sum(groups != "moderate")))
        assert sizes == sorted(sizes)

    def test_invalid_probabilities_raise(self):
        with pytest.raises(ValueError):
            assign_risk_groups(np.array([-0.1]), RiskPolicy(0.2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_raise(self, bad):
        # NaN passes both range comparisons; it must not become "moderate"
        p = np.array([bad, 0.1, 0.95])
        with pytest.raises(ValueError, match="finite"):
            assign_risk_groups(p, RiskPolicy(0.2))
        with pytest.raises(ValueError, match="finite"):
            risk_group_report(p, np.array([0, 0, 1]), [0.2])

    def test_report_rows(self):
        p = np.array([0.05, 0.10, 0.60, 0.95, 0.92])
        labels = np.array([0, 0, 1, 1, 1])
        aux = np.array([1.0, 2.0, 3.0, 4.0, 6.0])
        rows = risk_group_report(p, labels, [0.15, 0.20, 0.25], aux=aux)
        assert len(rows) == 9
        assert [r["group"] for r in rows[:3]] == list(RISK_GROUPS)
        first = rows[0]
        assert first["alpha"] == 0.15 and first["n"] == 2
        assert first["n_class0"] == 2 and first["n_class1"] == 0
        assert_allclose(first["aux_mean"], 1.5, rtol=1e-15)
        assert_allclose(first["aux_sd"], np.std([1.0, 2.0], ddof=1), rtol=1e-15)
        high = rows[2]
        assert high["n"] == 2 and high["n_class1"] == 2
        assert_allclose(high["aux_mean"], 5.0, rtol=1e-15)

    def test_report_empty_group(self):
        rows = risk_group_report(np.array([0.5, 0.6]), np.array([0, 1]), [0.2])
        low = rows[0]
        assert low["group"] == "low" and low["n"] == 0
        assert low["aux_mean"] is None and low["aux_sd"] is None


class TestFitClassifier:
    def test_fit_separated_classes(self):
        train = _two_class_data()
        model = fit_classifier(train, FitConfig())
        assert model.classes == [0, 1]
        assert_allclose(model.priors, [0.5, 0.5], rtol=1e-15)
        probs = posterior(model, train.x)
        assert probs.shape == (train.n, 2)
        assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert auc(probs[:, 1], train.labels, 1) > 0.8

    def test_empirical_priors(self):
        train = _two_class_data()
        keep = np.r_[0:100, 100:125]  # 100 class-0 rows, 25 class-1 rows
        model = fit_classifier(train.subset(keep), FitConfig(priors="empirical"))
        assert_allclose(model.priors, [100 / 125, 25 / 125], rtol=1e-15)

    def test_class_family_override(self):
        train = _two_class_data(seed=4)
        model = fit_classifier(
            train, FitConfig(), class_families={0: ("frank",), 1: ("gumbel",)}
        )
        fams0 = {fe.bicop.family for v in [model.vines[0]] for fe in v.all_edges()}
        fams1 = {fe.bicop.family for v in [model.vines[1]] for fe in v.all_edges()}
        assert fams0 <= {"frank", "indep"}
        assert fams1 <= {"gumbel", "indep"}

    def test_single_class_raises(self):
        train = _two_class_data()
        with pytest.raises(DegenerateLabels), pytest.warns(UserWarning):
            fit_classifier(train.subset(train.labels == 1))

    def test_tiny_class_raises(self):
        train = _two_class_data()
        keep = np.r_[0:100, 100:105]
        with pytest.raises(TooFewObservations):
            fit_classifier(train.subset(keep))

    def test_unlabeled_raises(self):
        train = _two_class_data()
        bare = Dataset(train.schema, train.x)
        with pytest.raises(DegenerateLabels):
            fit_classifier(bare)

    def test_round_trip_preserves_posterior(self, tmp_path):
        train = _two_class_data(n_per_class=60, seed=7)
        model = fit_classifier(train, FitConfig())
        path = tmp_path / "model.json"
        model.save(path)
        back = ClassifierModel.load(path)
        assert back.classes == model.classes
        assert_array_equal(posterior(back, train.x), posterior(model, train.x))

    def test_saved_file_is_the_json_text_of_the_model(self, tmp_path):
        train = _two_class_data(n_per_class=60, seed=8)
        model = fit_classifier(train, FitConfig())
        path = tmp_path / "model.json"
        model.save(path)
        assert path.read_bytes() == json.dumps(model.to_dict()).encode()
        back = ClassifierModel.load(path)
        assert_array_equal(posterior(back, train.x), posterior(model, train.x))

    def test_priors_must_normalize(self):
        train = _two_class_data(n_per_class=40, seed=2)
        model = fit_classifier(train, FitConfig())
        with pytest.raises(ValueError):
            ClassifierModel(model.schema, model.classes, [0.5, 0.6], model.vines)


class TestEvaluateProbs:
    def test_bundle_matches_direct_calls(self):
        probs = np.array([[0.8, 0.2], [0.5, 0.5], [0.4, 0.6], [0.1, 0.9]])
        labels = np.array([0, 1, 0, 1])
        out = evaluate_probs(probs, labels, [0, 1])
        nll = per_class_nll(probs, labels, [0, 1])
        assert out["nll_per_class"] == nll["per_class"]
        assert out["nll_mean"] == nll["mean"]
        assert out["nll_sum"] == nll["sum"]
        assert out["brier_per_class"] == per_class_brier(probs, labels, [0, 1])
        assert out["auc"] == auc(probs[:, 1], labels, 1)

    def test_auc_absent_when_one_class_observed(self):
        probs = np.array([[0.8, 0.2], [0.7, 0.3]])
        out = evaluate_probs(probs, np.array([0, 0]), [0, 1])
        assert out["auc"] is None

    def test_logdensity_columns_align_with_classes(self):
        train = _two_class_data(n_per_class=50, seed=11)
        model = fit_classifier(train, FitConfig())
        logf = class_logdensity(model, train.x[:5])
        assert logf.shape == (5, 2)
