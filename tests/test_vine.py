import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats
from scipy.special import ndtr, ndtri, roots_legendre

from vinerisk import bicop as bicop_module
from vinerisk import vine as vine_module
from vinerisk.bicop import ROTATABLE, Bicop, PairObs, empirical_tau, tau_to_param
from vinerisk.errors import TooFewObservations
from vinerisk.classifier import ClassifierModel, posterior
from vinerisk.data import Schema, VariableSpec
from vinerisk.margins import EmpiricalMargin, KernelMargin, OrdinalMargin
from vinerisk.vine import (
    Edge,
    FitConfig,
    FittedEdge,
    VineModel,
    VineStructure,
    _fit_edge,
    _gauss_legendre,
    _quadrature_spearman,
    edge_penalty,
    edge_report,
    fit_vine,
    independence_vine,
    model_spearman,
    select_structure,
    tau_independence_pvalue,
    vine_copula_loglik,
    vine_logdensity,
    vine_loglik,
    vine_mbic,
    vine_num_params,
)


def _chain_structure(d):
    trees = []
    for level in range(1, d):
        trees.append(
            [
                Edge((j, j + level), frozenset(range(j + 1, j + level)))
                for j in range(d - level)
            ]
        )
    return VineStructure(d=d, trees=trees)


class TestEdge:
    def test_conditioned_pair_is_sorted(self):
        e = Edge((3, 1))
        assert e.conditioned == (1, 3)
        assert Edge((3, 1)) == Edge((1, 3))

    def test_labels(self):
        assert Edge((0, 1)).label() == "12"
        assert Edge((2, 1), frozenset({0})).label() == "23;1"
        assert Edge((0, 3), frozenset({1, 2})).label() == "14;23"
        # indices past 9 switch to comma-separated form
        assert Edge((0, 11)).label() == "1,12"

    def test_all_vars(self):
        e = Edge((0, 3), frozenset({1, 2}))
        assert e.all_vars == frozenset({0, 1, 2, 3})


class TestSelectStructure:
    def test_ar1_gives_chain(self):
        rho = 0.8
        idx = np.arange(4)
        corr = rho ** np.abs(idx[:, None] - idx[None, :])
        s = select_structure(corr)
        assert s.trees[0] == [Edge((0, 1)), Edge((1, 2)), Edge((2, 3))]
        assert s.trees[1] == [Edge((0, 2), {1}), Edge((1, 3), {2})]
        assert s.trees[2] == [Edge((0, 3), {1, 2})]

    def test_single_factor_gives_star(self):
        corr = np.full((4, 4), 0.81)
        corr[0, :] = corr[:, 0] = 0.9
        np.fill_diagonal(corr, 1.0)
        s = select_structure(corr)
        assert s.trees[0] == [Edge((0, 1)), Edge((0, 2)), Edge((0, 3))]
        assert s.trees[1] == [Edge((1, 2), {0}), Edge((1, 3), {0})]
        assert s.trees[2] == [Edge((2, 3), {0, 1})]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_matrices_satisfy_proximity(self, seed):
        rng = np.random.default_rng(seed)
        d = 5
        a = rng.standard_normal((d, d))
        cov = a @ a.T + d * np.eye(d)
        sd = np.sqrt(np.diag(cov))
        corr = cov / np.outer(sd, sd)
        s = select_structure(corr)
        assert len(s.trees) == d - 1
        for level, tree in enumerate(s.trees, start=1):
            assert len(tree) == d - level
            for e in tree:
                assert len(e.conditioning) == level - 1
                assert len(e.all_vars) == level + 1
        # first tree spans the variables
        reached = {0}
        edges = list(s.trees[0])
        while edges:
            progressed = False
            for e in list(edges):
                if set(e.conditioned) & reached:
                    reached |= set(e.conditioned)
                    edges.remove(e)
                    progressed = True
            assert progressed
        assert reached == set(range(d))
        # each deeper edge merges two adjacent nodes of the previous tree
        for level in range(2, d):
            prev = [e.all_vars for e in s.trees[level - 2]]
            for e in s.trees[level - 1]:
                assert any(
                    prev[i] | prev[j] == e.all_vars
                    and len(prev[i] & prev[j]) == level - 1
                    for i in range(len(prev))
                    for j in range(i + 1, len(prev))
                )

    def test_structure_round_trip(self):
        corr = np.array([[1.0, 0.7, 0.2], [0.7, 1.0, 0.5], [0.2, 0.5, 1.0]])
        s = select_structure(corr)
        assert VineStructure.from_dict(s.to_dict()).trees == s.trees


class TestFitConfig:
    def test_defaults_and_alternatives_are_accepted(self):
        FitConfig()
        FitConfig(indep_test_level=None, margin_method="empirical", priors="empirical")

    def test_rejects_unknown_priors(self):
        with pytest.raises(ValueError, match="priors"):
            FitConfig(priors="Empirical")

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.05, 1.5, float("nan")])
    def test_rejects_indep_test_level_outside_unit_interval(self, level):
        with pytest.raises(ValueError, match="indep_test_level"):
            FitConfig(indep_test_level=level)

    def test_rejects_unknown_margin_method(self):
        with pytest.raises(ValueError, match="margin_method"):
            FitConfig(margin_method="kde")


class TestCriterion:
    def test_edge_penalty_values(self):
        # independence keeps no parameters but pays the prior odds of sparsity
        assert_allclose(edge_penalty(1, 0, 500, 0.9, True), -2.0 * math.log(0.1), rtol=1e-15)
        assert_allclose(
            edge_penalty(2, 1, 500, 0.9, False),
            math.log(500) - 2.0 * math.log(0.81),
            rtol=1e-15,
        )

    def test_tau_pvalue(self):
        assert tau_independence_pvalue(0.0, 100) == 1.0
        z = 3.0 * 0.1 * math.sqrt(100 * 99) / math.sqrt(2 * 205)
        assert_allclose(tau_independence_pvalue(0.1, 100), 2 * (1 - ndtr(z)), rtol=1e-13)
        assert tau_independence_pvalue(0.5, 400) < 1e-15
        assert tau_independence_pvalue(0.9, 2) == 1.0


def _normal_margin():
    return KernelMargin(centers=[0.0], bandwidth=1.0)


def _manual_model(truncation):
    """Chain vine on three exact standard-normal margins with fixed copulas."""
    structure = _chain_structure(3)
    c01 = Bicop("gaussian", 0, (0.6,))
    c12 = Bicop("clayton", 0, (2.0,))
    c02 = Bicop("gaussian", 0, (0.3,))
    trees = [
        [
            FittedEdge(Edge((0, 1)), c01, 0.0, 0.0),
            FittedEdge(Edge((1, 2)), c12, 0.0, 0.0),
        ]
    ]
    if truncation == 2:
        trees.append([FittedEdge(Edge((0, 2), {1}), c02, 0.0, 0.0)])
    return VineModel(
        margins=[_normal_margin() for _ in range(3)],
        structure=structure,
        trees=trees,
        truncation=truncation,
        nobs=100,
        psi0=0.9,
    )


class TestLogDensity:
    def test_truncated_chain_matches_pairwise_composition(self):
        model = _manual_model(1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 3))
        u = ndtr(x)
        expected = stats.norm.logpdf(x).sum(axis=1)
        expected += model.trees[0][0].bicop.logpdf(u[:, 0], u[:, 1])
        expected += model.trees[0][1].bicop.logpdf(u[:, 1], u[:, 2])
        assert_allclose(vine_logdensity(model, x), expected, rtol=1e-12)

    def test_full_chain_adds_conditional_pair(self):
        model = _manual_model(2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 3))
        u = ndtr(x)
        c01 = model.trees[0][0].bicop
        c12 = model.trees[0][1].bicop
        c02 = model.trees[1][0].bicop
        expected = stats.norm.logpdf(x).sum(axis=1)
        expected += c01.logpdf(u[:, 0], u[:, 1]) + c12.logpdf(u[:, 1], u[:, 2])
        u0_given_1 = c01.hfunc(u[:, 0], u[:, 1], "1|2")
        u2_given_1 = c12.hfunc(u[:, 1], u[:, 2], "2|1")
        expected += c02.logpdf(u0_given_1, u2_given_1)
        assert_allclose(vine_logdensity(model, x), expected, rtol=1e-12)

    def test_loglik_is_row_sum(self):
        model = _manual_model(2)
        x = np.random.default_rng(4).standard_normal((20, 3))
        assert_allclose(vine_loglik(model, x), vine_logdensity(model, x).sum(), rtol=1e-15)

    def test_independence_vine_is_margin_product(self):
        model = independence_vine(_manual_model(2))
        assert model.truncation == 0 and model.trees == []
        x = np.random.default_rng(5).standard_normal((20, 3))
        assert_allclose(vine_logdensity(model, x), stats.norm.logpdf(x).sum(axis=1), rtol=1e-12)

    def test_mixed_model_mass_is_one(self):
        rng = np.random.default_rng(11)
        rho = 0.7
        z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=500)
        codes = (np.digitize(z[:, 1], [-0.6, 0.6]) + 1).astype(float)
        x = np.column_stack([z[:, 0], codes])
        margins = [KernelMargin.fit(x[:, 0]), OrdinalMargin.fit(codes, 3)]
        model = fit_vine(x, margins, _chain_structure(2), FitConfig())
        assert model.truncation == 1
        nodes, weights = roots_legendre(120)
        grid = 0.5 * (nodes + 1.0) * 16.0 - 8.0
        w = weights * 8.0
        total = 0.0
        for k in (1.0, 2.0, 3.0):
            pts = np.column_stack([grid, np.full_like(grid, k)])
            total += float(np.exp(vine_logdensity(model, pts)) @ w)
        assert_allclose(total, 1.0, atol=1e-6)


class TestFitVine:
    def test_independent_data_truncates_to_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((400, 3))
        margins = [KernelMargin.fit(x[:, j]) for j in range(3)]
        model = fit_vine(x, margins, _chain_structure(3), FitConfig())
        assert model.truncation == 0
        assert model.trees == []
        assert vine_num_params(model) == 0
        assert vine_copula_loglik(model) == 0.0

    def test_gaussian_chain_recovery(self):
        rng = np.random.default_rng(8)
        rho = 0.7
        idx = np.arange(3)
        corr = rho ** np.abs(idx[:, None] - idx[None, :])
        x = rng.multivariate_normal(np.zeros(3), corr, size=800)
        margins = [KernelMargin.fit(x[:, j]) for j in range(3)]
        model = fit_vine(x, margins, _chain_structure(3), FitConfig())
        assert model.truncation >= 1
        tau_true = 2.0 / math.pi * math.asin(rho)
        for fe in model.trees[0]:
            assert fe.bicop.family != "indep"
            assert abs(fe.bicop.tau - tau_true) < 0.08

    def test_mixed_edge_recovers_latent_tau(self):
        rng = np.random.default_rng(21)
        rho = 0.8
        z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=900)
        codes = (np.digitize(z[:, 1], [-0.5, 0.7]) + 1).astype(float)
        x = np.column_stack([z[:, 0], codes])
        margins = [KernelMargin.fit(x[:, 0]), OrdinalMargin.fit(codes, 3)]
        model = fit_vine(x, margins, _chain_structure(2), FitConfig())
        assert model.truncation == 1
        fe = model.trees[0][0]
        assert fe.bicop.family != "indep"
        assert abs(fe.bicop.tau - 2.0 / math.pi * math.asin(rho)) < 0.12

    def test_pretest_can_veto_a_weak_edge(self):
        rng = np.random.default_rng(0)
        z = rng.multivariate_normal([0, 0], [[1, 0.13], [0.13, 1]], size=150)
        margins = [KernelMargin.fit(z[:, j]) for j in range(2)]
        structure = _chain_structure(2)
        cfg = FitConfig(families=("gaussian",), indep_test_level=0.01)
        assert fit_vine(z, margins, structure, cfg).truncation == 0
        cfg_off = FitConfig(families=("gaussian",), indep_test_level=None)
        assert fit_vine(z, margins, structure, cfg_off).truncation == 1

    def test_full_search_matches_greedy_on_clean_signal(self):
        rng = np.random.default_rng(13)
        rho = 0.6
        z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=500)
        margins = [KernelMargin.fit(z[:, j]) for j in range(2)]
        structure = _chain_structure(2)
        greedy = fit_vine(z, margins, structure, FitConfig(truncation_search="greedy"))
        full = fit_vine(z, margins, structure, FitConfig(truncation_search="full"))
        assert greedy.truncation == full.truncation == 1
        assert greedy.trees[0][0].bicop.to_dict() == full.trees[0][0].bicop.to_dict()

    @pytest.mark.parametrize("rho,nu", [(0.6, 4.0), (-0.5, 6.0)])
    def test_fit_edge_selects_studentt(self, rho, nu):
        s = Bicop("studentt", 0, (rho, nu)).sample(700, np.random.default_rng(0))
        obs = PairObs(u_plus=s[:, 0], v_plus=s[:, 1])
        cop, _, _ = _fit_edge(obs, 1, 700, FitConfig())
        assert cop.family == "studentt"
        assert abs(cop.params[0] - rho) < 0.08

    def test_empirical_tau_runs_once_per_edge(self, monkeypatch):
        counts = {"tau": 0, "edges": 0}
        fit_edge = vine_module._fit_edge

        def counting_tau(obs):
            counts["tau"] += 1
            return empirical_tau(obs)

        def counting_fit_edge(*args):
            counts["edges"] += 1
            return fit_edge(*args)

        monkeypatch.setattr(vine_module, "empirical_tau", counting_tau)
        monkeypatch.setattr(bicop_module, "empirical_tau", counting_tau)
        monkeypatch.setattr(vine_module, "_fit_edge", counting_fit_edge)
        rng = np.random.default_rng(3)
        idx = np.arange(3)
        z = rng.multivariate_normal(np.zeros(3), 0.6 ** np.abs(idx[:, None] - idx), size=300)
        margins = [KernelMargin.fit(z[:, j]) for j in range(3)]
        model = fit_vine(z, margins, _chain_structure(3), FitConfig())
        assert model.truncation >= 1
        assert counts["edges"] >= 2
        assert counts["tau"] == counts["edges"]

    @pytest.mark.parametrize("search", ["greedy", "full"])
    def test_scoring_the_training_rows_repeats_the_fitted_loglik(self, search):
        # fitting and scoring share one traversal, so the training rows'
        # log density minus the margins is the copula loglik of the fit
        rng = np.random.default_rng(1)
        s = Bicop("clayton", 90, tau_to_param("clayton", -0.5, 90)).sample(400, rng)
        z = ndtri(s)
        latent = 0.6 * z[:, 0] + 0.6 * z[:, 1] + 0.6 * rng.standard_normal(400)
        codes = (np.digitize(latent, [-0.5, 0.5]) + 1).astype(float)
        x = np.column_stack([z, codes])
        margins = [KernelMargin.fit(z[:, 0]), KernelMargin.fit(z[:, 1]), OrdinalMargin.fit(codes, 3)]
        model = fit_vine(x, margins, _chain_structure(3), FitConfig(truncation_search=search))
        assert model.truncation == 2
        assert any(fe.bicop.rotation != 0 for fe in model.all_edges())
        log_margins = sum(np.log(m.pdf(x[:, j])).sum() for j, m in enumerate(margins))
        copula_part = vine_logdensity(model, x).sum() - log_margins
        assert_allclose(copula_part, vine_copula_loglik(model), rtol=1e-9)

    def test_too_few_rows(self):
        x = np.random.default_rng(0).standard_normal((9, 2))
        margins = [KernelMargin.fit(x[:, j]) for j in range(2)]
        with pytest.raises(TooFewObservations):
            fit_vine(x, margins, _chain_structure(2), FitConfig())

    def test_dimension_mismatch(self):
        x = np.random.default_rng(0).standard_normal((50, 2))
        margins = [KernelMargin.fit(x[:, j]) for j in range(2)]
        with pytest.raises(ValueError):
            fit_vine(x, margins, _chain_structure(3), FitConfig())


class TestCriterionValue:
    def test_manual_model_value(self):
        model = _manual_model(1)
        # attach known log likelihoods
        model.trees[0][0].loglik = 10.0
        model.trees[0][1].loglik = 5.0
        prior = 2 * math.log(0.9) + math.log(1 - 0.81)
        expected = -2.0 * 15.0 + 2.0 * math.log(100) - 2.0 * prior
        assert_allclose(vine_mbic(model), expected, rtol=1e-14)

    def test_all_independence_value(self):
        model = independence_vine(_manual_model(2))
        prior = 2 * math.log(1 - 0.9) + math.log(1 - 0.81)
        assert_allclose(vine_mbic(model), -2.0 * prior, rtol=1e-14)

    def test_sample_size_override(self):
        model = _manual_model(1)
        assert vine_mbic(model, n=1000) > vine_mbic(model, n=100)


def _debye(k, x):
    return k / x**k * integrate.quad(lambda t: t**k / math.expm1(t), 0.0, x, epsabs=1e-14)[0]


def _frank_spearman(theta):
    # rho = 1 - 12 / theta * (D1(theta) - D2(theta)) with Debye functions D_k,
    # written for |theta| (rho is odd in theta)
    a = abs(theta)
    return math.copysign(1.0 - 12.0 / a * (_debye(1, a) - _debye(2, a)), theta)


def _spearman_cases():
    yield Bicop("indep")
    yield Bicop("gaussian", 0, (0.5,))
    yield Bicop("studentt", 0, (0.5, 4.0))
    yield Bicop("studentt", 0, (-0.7, 2.5))
    yield Bicop("frank", 0, tau_to_param("frank", -0.5))
    for family in ROTATABLE:
        for rotation in (0, 90, 180, 270):
            tau = -0.5 if rotation in (90, 270) else 0.5
            yield Bicop(family, rotation, tau_to_param(family, tau, rotation))


def _cop_id(cop):
    return "-".join([cop.family, str(cop.rotation)] + [f"{p:.4g}" for p in cop.params])


class TestModelSpearmanQuadrature:
    @pytest.mark.parametrize("rho", [-0.9999, -0.99, -0.5, 0.0, 0.25, 0.5, 0.99, 0.9999])
    def test_gaussian_closed_form(self, rho):
        expected = 6.0 / math.pi * math.asin(rho / 2.0)
        assert abs(model_spearman(Bicop("gaussian", 0, (rho,))) - expected) <= 1e-15

    @pytest.mark.parametrize("theta", [-35.0, -5.0, 0.5, 5.0, 20.0, 35.0])
    def test_frank_debye_closed_form(self, theta):
        assert abs(model_spearman(Bicop("frank", 0, (theta,))) - _frank_spearman(theta)) <= 1e-6

    @pytest.mark.parametrize("family", ROTATABLE)
    @pytest.mark.parametrize("tau", [0.3, 0.8])
    def test_rotation_symmetries(self, family, tau):
        par = tau_to_param(family, tau)
        rho = {r: model_spearman(Bicop(family, r, par)) for r in (0, 90, 180, 270)}
        assert rho[0] > 0.0
        assert_allclose([-rho[90], rho[180], -rho[270]], rho[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cop", list(_spearman_cases()), ids=_cop_id)
    def test_agrees_with_sampling(self, cop):
        # Spearman of 200 000 draws, with its standard error from 20 batches
        s = cop.sample(200_000, np.random.default_rng(5))
        observed = stats.spearmanr(s[:, 0], s[:, 1]).statistic
        batches = [stats.spearmanr(b[:, 0], b[:, 1]).statistic for b in np.split(s, 20)]
        se = np.std(batches, ddof=1) / math.sqrt(20)
        assert abs(model_spearman(cop) - observed) <= 4.0 * se

    @pytest.mark.parametrize(
        "cop",
        [
            Bicop("gaussian", 0, (0.9999,)),
            Bicop("gaussian", 0, (-0.9,)),
            Bicop("studentt", 0, (0.999, 2.05)),
            Bicop("studentt", 0, (-0.5, 30.0)),
            Bicop("clayton", 0, (28.0,)),
            Bicop("gumbel", 180, (20.0,)),
            Bicop("frank", 0, (35.0,)),
            Bicop("joe", 90, (30.0,)),
            Bicop("joe", 0, (2.3270908886114174,)),
        ],
        ids=_cop_id,
    )
    def test_rule_has_converged(self, cop):
        fine = _quadrature_spearman(cop, _gauss_legendre(256))
        assert abs(model_spearman(cop) - fine) <= 1e-5


class TestReportAndSerialization:
    def test_gaussian_spearman_closed_form(self):
        cop = Bicop("gaussian", 0, (0.5,))
        expected = 6.0 / math.pi * math.asin(0.25)
        assert abs(model_spearman(cop) - expected) < 0.01

    def test_model_spearman_is_deterministic(self):
        cop = Bicop("gumbel", 0, tau_to_param("gumbel", 0.5))
        assert model_spearman(cop) == model_spearman(cop)

    def test_model_spearman_draws_no_samples(self, monkeypatch):
        cop = Bicop("joe", 0, (2.3270908886114174,))
        expected = model_spearman(cop)

        def no_sampling(self, n, rng):
            raise AssertionError("model_spearman drew samples")

        monkeypatch.setattr(Bicop, "sample", no_sampling)
        assert model_spearman(cop) == expected

    def test_edge_report_rows(self):
        model = _manual_model(2)
        rows = edge_report(model)
        assert [r["edge"] for r in rows] == ["12", "23", "13;2"]
        assert [r["tree"] for r in rows] == [1, 1, 2]
        assert rows[0]["family"] == "gaussian"
        assert_allclose(rows[0]["tau"], 2.0 / math.pi * math.asin(0.6), rtol=1e-12)

    def test_round_trip_preserves_density(self):
        rng = np.random.default_rng(17)
        rho = 0.65
        z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=400)
        codes = (np.digitize(z[:, 1], [0.0]) + 1).astype(float)
        x = np.column_stack([z[:, 0], codes])
        margins = [KernelMargin.fit(x[:, 0]), OrdinalMargin.fit(codes, 2)]
        model = fit_vine(x, margins, _chain_structure(2), FitConfig())
        blob = json.dumps(model.to_dict())
        back = VineModel.from_dict(json.loads(blob))
        pts = np.column_stack([np.linspace(-2, 2, 9), np.tile([1.0, 2.0], 5)[:9]])
        assert_array_equal(vine_logdensity(back, pts), vine_logdensity(model, pts))
        assert back.truncation == model.truncation


def _three_margin_vine(seed):
    """Fitted vine with a kernel, an empirical and an ordinal margin."""
    rng = np.random.default_rng(seed)
    corr = [[1.0, 0.6, 0.4], [0.6, 1.0, 0.5], [0.4, 0.5, 1.0]]
    z = rng.multivariate_normal(np.zeros(3), corr, size=300)
    codes = (np.digitize(z[:, 2], [-0.5, 0.5]) + 1).astype(float)
    x = np.column_stack([z[:, 0], z[:, 1], codes])
    margins = [
        KernelMargin.fit(x[:, 0]),
        EmpiricalMargin.fit(x[:, 1]),
        OrdinalMargin.fit(codes, 3),
    ]
    model = fit_vine(x, margins, _chain_structure(3), FitConfig())
    assert model.truncation >= 1
    return model


def _repeated_grid():
    """Rows built from few values per column, so every value repeats."""
    a, b, c = np.meshgrid(np.linspace(-2, 2, 6), np.linspace(-1.5, 1.5, 4), [1.0, 2.0, 3.0])
    grid = np.column_stack([a.ravel(), b.ravel(), c.ravel()])
    return np.vstack([grid, grid[::-1]])


class TestPerDistinctMargins:
    def test_logdensity_and_posterior_match_rowwise_evaluation(self):
        vines = [_three_margin_vine(41), _three_margin_vine(42)]
        grid = _repeated_grid()
        for model in vines:
            rowwise = np.concatenate([vine_logdensity(model, row[None, :]) for row in grid])
            assert_array_equal(vine_logdensity(model, grid), rowwise)
        schema = Schema(
            (
                VariableSpec("k", "continuous"),
                VariableSpec("e", "continuous"),
                VariableSpec("o", "ordinal", 3),
            )
        )
        clf = ClassifierModel(schema=schema, classes=[0, 1], priors=[0.5, 0.5], vines=vines)
        rowwise = np.vstack([posterior(clf, row[None, :]) for row in grid])
        assert_array_equal(posterior(clf, grid), rowwise)

    def test_margins_only_see_distinct_values(self):
        model = _three_margin_vine(43)
        seen = []

        def recording(method):
            def wrapper(x):
                seen.append(np.asarray(x))
                return method(x)

            return wrapper

        for m in model.margins:
            for name in ("pdf", "cdf", "cdf_left"):
                setattr(m, name, recording(getattr(m, name)))
        vine_logdensity(model, _repeated_grid())
        assert len(seen) >= 2 * model.d
        for values in seen:
            assert values.ndim == 1 and np.unique(values).size == values.size
