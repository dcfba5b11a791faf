import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from vinerisk.errors import DegenerateLabels
from vinerisk.simulation import (
    POISSON_MEAN,
    DgpConfig,
    LogisticModel,
    benchmark_run,
    class_weights,
    fit_weighted_logistic,
    simulate_dgp,
    split_train_test,
)
from vinerisk.vine import FitConfig


class TestDgp:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DgpConfig(variant="nope")
        with pytest.raises(ValueError):
            DgpConfig(n_train=0)

    def test_deterministic_per_seed(self):
        cfg = DgpConfig(n_train=50, n_test=20, seed=3)
        a = simulate_dgp(cfg)
        b = simulate_dgp(cfg)
        assert_array_equal(a.x, b.x)
        assert_array_equal(a.labels, b.labels)
        c = simulate_dgp(DgpConfig(n_train=50, n_test=20, seed=4))
        assert not np.array_equal(a.x, c.x)

    def test_row_layout(self):
        cfg = DgpConfig(n_train=30, n_test=10)
        ds = simulate_dgp(cfg)
        assert ds.n == 80
        assert_array_equal(ds.labels[:40], 1)
        assert_array_equal(ds.labels[40:], 0)
        assert ds.schema.names == ["x1", "x2"]
        assert ds.schema.label == "y"

    def test_continuous_moments_and_dependence(self):
        cfg = DgpConfig(n_train=2000, n_test=0, seed=0)
        ds = simulate_dgp(cfg)
        x1_cls1, x1_cls0 = ds.x[:2000, 0], ds.x[2000:, 0]
        assert abs(x1_cls1.mean() + 1.5) < 0.1
        assert abs(x1_cls0.mean()) < 0.1
        assert abs(x1_cls1.std(ddof=1) - 1.0) < 0.1
        assert abs(ds.x[:, 1].mean()) < 0.1
        tau1 = stats.kendalltau(ds.x[:2000, 0], ds.x[:2000, 1]).statistic
        tau0 = stats.kendalltau(ds.x[2000:, 0], ds.x[2000:, 1]).statistic
        assert abs(tau1 - 0.5) < 0.05
        assert abs(tau0 - 0.9) < 0.03

    def test_mixed_variant_codes(self):
        cfg = DgpConfig(variant="mixed", n_train=2000, n_test=0, seed=1)
        ds = simulate_dgp(cfg)
        codes = ds.x[:, 1]
        assert np.all(codes == np.round(codes))
        assert codes.min() == 1.0
        spec = ds.schema.variables[1]
        assert spec.kind == "ordinal"
        assert spec.levels == int(codes.max())
        # codes are 1-based Poisson counts, so their mean sits near POISSON_MEAN + 1
        assert abs(codes.mean() - (POISSON_MEAN + 1.0)) < 0.1

    def test_split_is_positional(self):
        cfg = DgpConfig(n_train=30, n_test=10, seed=5)
        ds = simulate_dgp(cfg)
        train, test = split_train_test(ds, cfg)
        assert train.n == 60 and test.n == 20
        assert int((train.labels == 1).sum()) == 30
        assert int((test.labels == 1).sum()) == 10
        assert_array_equal(train.x[:30], ds.x[:30])
        assert_array_equal(test.x[:10], ds.x[30:40])
        assert_array_equal(test.x[10:], ds.x[70:80])


class TestLogistic:
    def test_class_weights_balance_the_sample(self):
        labels = np.array([0] * 518 + [1] * 62)
        w = class_weights(labels)
        assert_allclose(w.sum(), 580.0, rtol=1e-12)
        assert_allclose(w[0], 580.0 / (2 * 518), rtol=1e-12)
        assert_allclose(w[-1], 580.0 / (2 * 62), rtol=1e-12)
        # total weight per class is equal
        assert_allclose(w[labels == 0].sum(), w[labels == 1].sum(), rtol=1e-12)

    def test_symmetric_problem_has_zero_intercept(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(-1, 1, 400), rng.normal(1, 1, 400)])
        labels = np.repeat([0, 1], 400)
        from vinerisk.data import Dataset, Schema, VariableSpec

        schema = Schema(variables=(VariableSpec("x1", "continuous"),), label="y")
        model = fit_weighted_logistic(Dataset(schema, x[:, None], labels=labels))
        assert not model.ridged
        assert abs(model.coef[0]) < 0.2
        assert model.coef[1] > 1.0

    def test_weighting_recenters_imbalanced_data(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(-1, 1, 600), rng.normal(1, 1, 100)])
        labels = np.array([0] * 600 + [1] * 100)
        from vinerisk.data import Dataset, Schema, VariableSpec

        schema = Schema(variables=(VariableSpec("x1", "continuous"),), label="y")
        model = fit_weighted_logistic(Dataset(schema, x[:, None], labels=labels))
        # with balancing weights the decision point stays near zero
        assert abs(model.coef[0]) < 0.25

    def test_stationarity_of_weighted_score(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 2))
        labels = (x[:, 0] + 0.5 * x[:, 1] + rng.normal(size=300) > 0).astype(int)
        from vinerisk.data import Dataset, Schema, VariableSpec

        schema = Schema(
            variables=(VariableSpec("x1", "continuous"), VariableSpec("x2", "continuous")),
            label="y",
        )
        train = Dataset(schema, x, labels=labels)
        model = fit_weighted_logistic(train)
        xd = np.column_stack([np.ones(train.n), train.x])
        w = class_weights(train.labels)
        p = LogisticModel(model.coef).predict(train.x)
        grad = xd.T @ (w * (train.labels - p))
        assert np.max(np.abs(grad)) < 1e-6

    def test_separation_falls_back_to_ridge(self):
        from vinerisk.data import Dataset, Schema, VariableSpec

        x = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])
        labels = np.repeat([0, 1], 20)
        schema = Schema(variables=(VariableSpec("x1", "continuous"),), label="y")
        with pytest.warns(UserWarning, match="ridge"):
            model = fit_weighted_logistic(Dataset(schema, x[:, None], labels=labels))
        assert model.ridged
        assert np.all(np.isfinite(model.coef))
        preds = model.predict(x[:, None])
        assert np.all((preds >= 0) & (preds <= 1))
        # the fit is steep but finite, and oriented the right way
        assert preds[0] < 0.5 < preds[-1]

    def test_single_class_raises(self):
        from vinerisk.data import Dataset, Schema, VariableSpec

        schema = Schema(variables=(VariableSpec("x1", "continuous"),), label="y")
        ds = Dataset(schema, np.random.default_rng(0).normal(size=(20, 1)), labels=np.ones(20, dtype=int))
        with pytest.raises(DegenerateLabels):
            fit_weighted_logistic(ds)

    def test_predict_shape(self):
        model = LogisticModel(coef=np.array([0.0, 1.0]))
        out = model.predict(np.array([[0.0], [100.0], [-100.0]]))
        assert out.shape == (3,)
        assert_allclose(out[0], 0.5, rtol=1e-15)
        assert 0.0 <= out.min() and out.max() <= 1.0


class TestBenchmark:
    def test_row_structure_and_determinism(self):
        cfg = DgpConfig(n_train=60, n_test=40, seed=0)
        rows_a, grid_a = benchmark_run(
            cfg, seeds=[0, 1], fit_config=FitConfig(), modes=("oracle",), grid_points=5
        )
        rows_b, grid_b = benchmark_run(
            cfg, seeds=[0, 1], fit_config=FitConfig(), modes=("oracle",), grid_points=5
        )
        assert rows_a == rows_b
        assert grid_a == grid_b
        methods = {(r["method"], r["mode"]) for r in rows_a}
        assert methods == {("logistic", "plain"), ("copula", "oracle")}
        assert {r["split"] for r in rows_a} == {"train", "test"}
        assert {r["seed"] for r in rows_a} == {0, 1}
        metrics = {r["metric"] for r in rows_a}
        assert {"nll_sum", "nll_mean", "auc", "nll_class0", "brier_class1"} <= metrics

    def test_unknown_mode_is_rejected_before_fitting(self):
        cfg = DgpConfig(n_train=60, n_test=0, seed=0)
        with pytest.raises(ValueError, match="typo"):
            benchmark_run(cfg, seeds=[0], modes=("oracle", "typo"))

    def test_grid_rows_limited_to_first_seed(self):
        cfg = DgpConfig(n_train=60, n_test=0, seed=0)
        _, grid = benchmark_run(
            cfg, seeds=[3, 4], fit_config=FitConfig(), modes=("oracle",), grid_points=4
        )
        assert {r["seed"] for r in grid} == {3}
        # 4x4 grid for each of the two methods
        assert len(grid) == 2 * 16
        assert all(0.0 <= r["p_class1"] <= 1.0 for r in grid)

    def test_copula_beats_logistic_on_the_dependent_dgp(self):
        cfg = DgpConfig(n_train=300, n_test=200, seed=0)
        rows, _ = benchmark_run(cfg, seeds=[0], fit_config=FitConfig(), modes=("oracle",))
        by_key = {
            (r["method"], r["split"], r["metric"]): r["value"] for r in rows
        }
        assert by_key[("copula", "test", "nll_sum")] < by_key[("logistic", "test", "nll_sum")]
