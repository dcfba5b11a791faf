import collections
import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats
from scipy.special import ndtr, ndtri, roots_legendre

from vinerisk import bicop as bicop_module
from vinerisk import optim as optim_module
from vinerisk import vine as vine_module
from vinerisk.bicop import (
    CONTRIB_FLOOR,
    EPS,
    INDEP,
    ROTATABLE,
    Bicop,
    PairObs,
    _gauss_legendre,
    bicop_condition,
    bicop_contributions,
    bicop_fit,
    bicop_loglik,
    bicop_start,
    empirical_tau,
    tau_to_param,
    _FAM,
)
from vinerisk.errors import TooFewObservations
from vinerisk.optim import minimize_bounded
from vinerisk.latent import partial_correlation
from vinerisk.classifier import ClassifierModel, fit_classifier, posterior
from vinerisk.data import Dataset, Schema, VariableSpec
from vinerisk.margins import EmpiricalMargin, KernelMargin, OrdinalMargin
from vinerisk.scenario import BaseProfile, GridSpec, risk_surface
from vinerisk.vine import (
    Edge,
    FitConfig,
    FittedEdge,
    VineModel,
    VineStructure,
    _edge_candidates,
    _fit_edge,
    _quadrature_spearman,
    edge_penalty,
    edge_report,
    fit_vine,
    model_spearman,
    select_structure,
    tau_independence_pvalue,
    vine_copula_loglik,
    vine_logdensity,
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


def _kruskal_structure(corr):
    """Reference: each tree by Kruskal's algorithm with a union-find over
    the same sorted candidates."""
    d = corr.shape[0]
    trees = []
    nodes = [(frozenset([j]), (j,)) for j in range(d)]
    for level in range(1, d):
        candidates = []
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                (vi, ei), (vj, ej) = nodes[i], nodes[j]
                if level > 1 and not set(ei) & set(ej):
                    continue
                cg = vi & vj
                cd = tuple(sorted(vi ^ vj))
                weight = abs(partial_correlation(corr, cd[0], cd[1], cg))
                candidates.append((-weight, cd, tuple(sorted(cg)), i, j))
        candidates.sort()
        parent = list(range(len(nodes)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        chosen = []
        for _, cd, cg, i, j in candidates:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                chosen.append((cd, frozenset(cg), i, j))
        chosen.sort(key=lambda c: (c[0], tuple(sorted(c[1]))))
        trees.append([Edge(cd, cg) for cd, cg, _, _ in chosen])
        nodes = [(Edge(cd, cg).all_vars, (i, j)) for cd, cg, i, j in chosen]
    return VineStructure(d=d, trees=trees)


def _structure_matrices():
    """Random, rounded (to 0.1, so weights tie) and equicorrelation matrices."""
    rng = np.random.default_rng(17)
    cases = []
    for d in range(2, 11):
        for _ in range(3):
            a = rng.standard_normal((d, d))
            cov = a @ a.T + rng.uniform(0.1, d) * np.eye(d)
            sd = np.sqrt(np.diag(cov))
            cases.append(pytest.param(cov / np.outer(sd, sd), id=f"random-{d}"))
            cov = a @ a.T + d * np.eye(d)
            sd = np.sqrt(np.diag(cov))
            rounded = np.round(cov / np.outer(sd, sd), 1)
            np.fill_diagonal(rounded, 1.0)
            cases.append(pytest.param(rounded, id=f"rounded-{d}"))
        for rho in (-0.5 / (d - 1), 0.0, 0.3, 0.8):
            equi = np.full((d, d), rho)
            np.fill_diagonal(equi, 1.0)
            cases.append(pytest.param(equi, id=f"equicorrelation-{d}-{rho:.2f}"))
    return cases


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

    @pytest.mark.parametrize("corr", _structure_matrices())
    def test_prim_matches_kruskal(self, corr):
        assert select_structure(corr).to_dict() == _kruskal_structure(corr).to_dict()

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


class _NormalMargin:
    """Exact standard-normal margin (kernel margins are tabulated on a grid),
    so vine composition is checked to rounding."""

    is_discrete = False

    def cdf(self, x):
        return np.clip(ndtr(x), EPS, 1.0 - EPS)

    def pdf(self, x):
        return stats.norm.pdf(x)


def _normal_margin():
    return _NormalMargin()


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
        rowwise = sum(vine_logdensity(model, x[i : i + 1])[0] for i in range(len(x)))
        assert_allclose(rowwise, vine_logdensity(model, x).sum(), rtol=1e-13)

    def test_independence_vine_is_margin_product(self):
        model = dataclasses.replace(_manual_model(2), trees=[], truncation=0)
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

    @pytest.mark.parametrize("u_disc,v_disc", [(False, False), (True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("rho", [0.5, -0.5])
    def test_fit_edge_builds_one_kernel_args_per_rotation(self, monkeypatch, u_disc, v_disc, rho):
        built, rotations, fits = [], set(), []
        init, loglik, fit = bicop_module._Args.__init__, bicop_module.bicop_loglik, vine_module.bicop_fit

        def counting_init(self, *args):
            built.append(type(self).__name__)
            init(self, *args)

        def recording_loglik(cop, obs):
            rotations.add(cop.rotation)
            return loglik(cop, obs)

        def counting_fit(*args, **kwargs):
            fits.append(args[:2])
            return fit(*args, **kwargs)

        monkeypatch.setattr(bicop_module._Args, "__init__", counting_init)
        monkeypatch.setattr(bicop_module, "bicop_loglik", recording_loglik)
        monkeypatch.setattr(vine_module, "bicop_loglik", recording_loglik)
        monkeypatch.setattr(vine_module, "bicop_fit", counting_fit)
        z = np.random.default_rng(5).multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=400)
        sides = []
        for col, disc in zip(z.T, (u_disc, v_disc)):
            if disc:
                codes = np.digitize(col, [-1.0, 0.0, 1.0]) + 1.0
                margin = OrdinalMargin.fit(codes, 4)
                sides.append((margin.cdf(codes), margin.cdf_left(codes)))
            else:
                sides.append((stats.rankdata(col) / (col.size + 1), None))
        (up, um), (vp, vm) = sides
        _fit_edge(PairObs(up, vp, um, vm), 1, 400, FitConfig())
        assert fits and len(rotations) >= 2
        assert len(built) == len(rotations)

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


def _full_search(obs, level, n, config):
    """Reference for ``_fit_edge``: the bounded MLE for every admissible candidate."""
    indep_ll = bicop_loglik(INDEP, obs)
    best = (INDEP, indep_ll, -2.0 * indep_ll + edge_penalty(level, 0, n, config.psi0, True))
    tau = empirical_tau(obs)
    if tau_independence_pvalue(tau, obs.n) >= config.indep_test_level:
        return best
    for fam, rot in _edge_candidates(config.families, tau, obs.u_disc or obs.v_disc, False):
        try:
            cop, ll = bicop_fit(fam, rot, obs, start=bicop_start(fam, rot, obs, tau))
        except (ValueError, FloatingPointError):
            continue
        score = -2.0 * ll + edge_penalty(level, cop.npar, n, config.psi0, False)
        if score < best[2] - 1e-12:
            best = (cop, ll, score)
    return best


def _simulated_pair(cop, n, discrete, seed, levels=5):
    """``n`` draws of ``cop`` with the sides named in ``discrete`` cut into
    ``levels`` equal-mass codes."""
    s = cop.sample(n, np.random.default_rng(seed))
    sides = []
    for j, side in enumerate("uv"):
        if side in discrete:
            code = np.ceil(s[:, j] * levels)
            sides.append((code / levels, (code - 1.0) / levels))
        else:
            sides.append((s[:, j], None))
    (up, um), (vp, vm) = sides
    return PairObs(up, vp, um, vm)


_SCREEN_CASES = [(f, 0, sign) for f in ("gaussian", "studentt", "frank") for sign in (1, -1)] + [
    (f, r, -1 if r in (90, 270) else 1) for f in ROTATABLE for r in (0, 90, 180, 270)
]


class TestCandidateScreen:
    @pytest.mark.parametrize("family,rotation,sign", _SCREEN_CASES)
    def test_screen_matches_the_full_search(self, family, rotation, sign):
        config = FitConfig()
        for i, tau in enumerate((0.1, 0.3, 0.6)):
            params = tau_to_param(family, sign * tau, rotation)
            if family == "studentt":
                params = (params[0], 4.0)
            cop = Bicop(family, rotation, params)
            for discrete in ("", "u", "v", "uv"):
                obs = _simulated_pair(cop, 300, discrete, seed=(i, len(discrete)))
                assert _fit_edge(obs, 1, 300, config) == _full_search(obs, 1, 300, config)

    @pytest.mark.parametrize("family,rotation,sign", _SCREEN_CASES)
    def test_the_tau_interval_picks_what_the_full_range_search_picks(
        self, monkeypatch, family, rotation, sign
    ):
        # bicop_fit searches near the start; the former search took the
        # whole bounds.  The Student-t's log-nu tolerance of 1e-3 costs up
        # to about 1e-7 of its likelihood, so it gets a looser bound.
        def full_range_fit(family, rotation, obs, start):
            start_cop, start_ll = start
            fixed = start_cop.params[:-1]

            def neg_ll(t):
                try:
                    cop = Bicop(family, rotation, fixed + (t,))
                except ValueError:
                    return np.inf
                return -bicop_loglik(cop, obs)

            x, fx = minimize_bounded(neg_ll, *_FAM[family].bounds[-1])
            if fx < -start_ll:
                return Bicop(family, rotation, fixed + (float(x),)), -float(fx)
            return start

        config = FitConfig()
        for i, tau in enumerate((0.05, 0.2, 0.45, 0.7)):
            params = tau_to_param(family, sign * tau, rotation)
            if family == "studentt":
                params = (params[0], 4.0)
            cop = Bicop(family, rotation, params)
            for discrete in ("", "u", "v", "uv"):
                obs = _simulated_pair(cop, 300, discrete, seed=(7, i, len(discrete)))
                got = _fit_edge(obs, 1, 300, config)
                with monkeypatch.context() as patch:
                    patch.setattr(vine_module, "bicop_fit", full_range_fit)
                    full = _fit_edge(obs, 1, 300, config)
                assert (got[0].family, got[0].rotation) == (full[0].family, full[0].rotation)
                slack = 1e-6 if got[0].family == "studentt" else 1e-8
                assert got[1] >= full[1] - slack

    def test_few_candidates_get_the_full_search(self):
        config = FitConfig(families=("indep", "gaussian", "frank"))
        cop = Bicop("frank", 0, tau_to_param("frank", 0.4))
        for discrete in ("", "v", "uv"):
            obs = _simulated_pair(cop, 300, discrete, seed=3)
            assert _fit_edge(obs, 1, 300, config) == _full_search(obs, 1, 300, config)

    def test_a_candidate_whose_start_raises_is_skipped(self, monkeypatch):
        cop = Bicop("gumbel", 0, tau_to_param("gumbel", 0.5))
        obs = _simulated_pair(cop, 300, "", seed=5)
        fitted = []
        start, fit = vine_module.bicop_start, vine_module.bicop_fit

        def failing_start(family, rotation, obs, tau):
            if family == "gumbel":
                raise ValueError("no start")
            return start(family, rotation, obs, tau)

        def counting_fit(family, rotation, obs, **kwargs):
            fitted.append(family)
            return fit(family, rotation, obs, **kwargs)

        monkeypatch.setattr(vine_module, "bicop_start", failing_start)
        monkeypatch.setattr(vine_module, "bicop_fit", counting_fit)
        got = _fit_edge(obs, 1, 300, FitConfig())
        # 7 candidates remain without the two Gumbel rotations; the sides
        # are continuous, so SCREEN_KEEP (3) of them are fitted
        assert len(fitted) == vine_module.SCREEN_KEEP == 3 and "gumbel" not in fitted
        families = tuple(f for f in FitConfig().families if f != "gumbel")
        assert got == _full_search(obs, 1, 300, FitConfig(families=families))

    def test_fits_at_most_four_and_evaluates_each_start_once(self, monkeypatch):
        edges = []
        fit_edge, start = vine_module._fit_edge, vine_module.bicop_start
        fit, loglik = vine_module.bicop_fit, bicop_module.bicop_loglik

        def counting_fit_edge(obs, *args):
            keep = vine_module.SCREEN_KEEP + (obs.u_disc and obs.v_disc)
            edges.append({"starts": [], "fits": 0, "evals": collections.Counter(), "keep": keep})
            return fit_edge(obs, *args)

        def counting_start(*args):
            cop, ll = start(*args)
            edges[-1]["starts"].append(cop)
            return cop, ll

        def counting_fit(*args, **kwargs):
            edges[-1]["fits"] += 1
            return fit(*args, **kwargs)

        def counting_loglik(cop, obs):
            edges[-1]["evals"][cop] += 1
            return loglik(cop, obs)

        monkeypatch.setattr(vine_module, "_fit_edge", counting_fit_edge)
        monkeypatch.setattr(vine_module, "bicop_start", counting_start)
        monkeypatch.setattr(vine_module, "bicop_fit", counting_fit)
        monkeypatch.setattr(bicop_module, "bicop_loglik", counting_loglik)
        rng = np.random.default_rng(3)
        idx = np.arange(4)
        z = rng.multivariate_normal(np.zeros(4), 0.6 ** np.abs(idx[:, None] - idx), size=300)
        codes = (np.digitize(z[:, 2:], [-0.5, 0.5]) + 1).astype(float)
        x = np.column_stack([z[:, :2], codes])
        margins = [KernelMargin.fit(z[:, 0]), KernelMargin.fit(z[:, 1])]
        margins += [OrdinalMargin.fit(codes[:, 0], 3), OrdinalMargin.fit(codes[:, 1], 3)]
        fit_vine(x, margins, _chain_structure(4), FitConfig())
        # three fits, four when both sides are discrete (the edge of the two
        # 3-level columns)
        screened = [e for e in edges if len(e["starts"]) > e["keep"]]
        assert len(screened) >= 2
        assert any(e["keep"] == 4 and e["fits"] == 4 for e in screened)
        for e in edges:
            assert e["fits"] == min(len(e["starts"]), e["keep"])
            assert all(e["evals"][cop] == 1 for cop in e["starts"])


def _winner_start_rank(obs, n, config):
    """Rank by start score (1 = best) of the full search's winner; None when
    independence wins."""
    winner = _full_search(obs, 1, n, config)[0]
    if winner.family == "indep":
        return None
    tau = empirical_tau(obs)
    starts = [
        bicop_start(fam, rot, obs, tau)
        for fam, rot in _edge_candidates(config.families, tau, obs.u_disc or obs.v_disc, False)
    ]
    scores = {
        (cop.family, cop.rotation): -2.0 * ll + edge_penalty(1, cop.npar, n, config.psi0, False)
        for cop, ll in starts
    }
    ranked = sorted(scores, key=scores.get)
    return 1 + ranked.index((winner.family, winner.rotation))


# Pairs with two 3-level sides whose full-search winner ranks 4th by start
# score, found by sweeping the cases of _SCREEN_CASES other than the
# Student-t (taus 0.1, 0.2, 0.3, 0.45 and 0.6; seeds 0 to 5): (family,
# rotation, tau, seed)
_FOURTH_RANKED = [
    ("gaussian", 0, 0.6, 2),
    ("gaussian", 0, -0.45, 1),
    ("gaussian", 0, -0.6, 2),
    ("frank", 0, 0.6, 2),
    ("frank", 0, -0.45, 1),
    ("clayton", 180, 0.2, 1),
    ("clayton", 180, 0.3, 1),
    ("clayton", 270, -0.45, 3),
    ("clayton", 270, -0.45, 5),
    ("gumbel", 0, 0.45, 1),
    ("gumbel", 0, 0.45, 3),
    ("gumbel", 0, 0.6, 2),
    ("gumbel", 90, -0.45, 3),
    ("gumbel", 90, -0.6, 3),
    ("joe", 0, 0.6, 4),
]


@pytest.mark.parametrize("family,rotation,tau,seed", _FOURTH_RANKED)
def test_two_discrete_sides_keep_a_fourth_fit(family, rotation, tau, seed):
    cop = Bicop(family, rotation, tau_to_param(family, tau, rotation))
    obs = _simulated_pair(cop, 300, "uv", seed=(seed, 3), levels=3)
    config = FitConfig()
    assert _winner_start_rank(obs, 300, config) == vine_module.SCREEN_KEEP + 1 == 4
    assert _fit_edge(obs, 1, 300, config) == _full_search(obs, 1, 300, config)


def _latent_pair(rho, n, seed, cuts=((0.0,), (0.0,)), continuous_v=False):
    """``n`` draws of a latent Gaussian with correlation ``rho``, each side
    cut into ordinal codes at ``cuts`` (``v`` kept continuous when asked),
    on the copula scale of the margins :func:`fit_vine` would fit."""
    z = np.random.default_rng(seed).multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=n)
    sides = []
    for j, cut in enumerate(cuts):
        if j == 1 and continuous_v:
            sides.append((ndtr(z[:, 1]), None))
            continue
        codes = np.digitize(z[:, j], cut) + 1.0
        margin = OrdinalMargin.fit(codes, len(cut) + 1)
        sides.append((margin.cdf(codes), margin.cdf_left(codes)))
    (up, um), (vp, vm) = sides
    return PairObs(up, vp, um, vm)


def _counting_fits(monkeypatch):
    """Replace ``vine.bicop_fit`` by a wrapper that records each fitted family."""
    fitted, fit = [], vine_module.bicop_fit

    def counting_fit(family, rotation, obs, **kwargs):
        fitted.append(family)
        return fit(family, rotation, obs, **kwargs)

    monkeypatch.setattr(vine_module, "bicop_fit", counting_fit)
    return fitted


def _cell_probability(cop, obs):
    """C(F_u(1), F_v(1)): the fitted probability that both sides take code 1."""
    return float(cop.cdf(obs.u_plus.min(), obs.v_plus.min()))


_BINARY_CASES = [
    (rho, cuts, seed)
    for seed, rho in enumerate((-0.85, -0.5, -0.12, 0.08, 0.3, 0.6, 0.9))
    for cuts in (((0.0,), (0.0,)), ((-1.0,), (0.7,)), ((0.9,), (-0.4,)))
]


class TestBinaryEdges:
    @pytest.mark.parametrize("rho", [-0.6, 0.5])
    def test_two_binary_sides_get_one_gaussian_fit(self, monkeypatch, rho):
        fitted = _counting_fits(monkeypatch)
        cop, _, _ = _fit_edge(_latent_pair(rho, 700, seed=1), 1, 700, FitConfig())
        assert cop.family == "gaussian"
        assert fitted == ["gaussian"]

    @pytest.mark.parametrize("rho,cuts,seed", _BINARY_CASES)
    def test_one_fit_reaches_the_full_search(self, rho, cuts, seed):
        obs = _latent_pair(rho, 700, seed, cuts)
        config = FitConfig()
        got, full = _fit_edge(obs, 1, 700, config), _full_search(obs, 1, 700, config)
        assert (got[0].family == "indep") == (full[0].family == "indep")
        assert abs(got[1] - full[1]) < 1e-7
        assert abs(_cell_probability(got[0], obs) - _cell_probability(full[0], obs)) < 1e-6

    def test_the_family_does_not_follow_the_optimiser_tolerance(self, monkeypatch):
        obs = _latent_pair(0.5, 700, seed=2, cuts=((-0.3,), (0.4,)))
        before = _fit_edge(obs, 1, 700, FitConfig())[0]
        monkeypatch.setattr(optim_module, "XATOL", 1e-7)
        after = _fit_edge(obs, 1, 700, FitConfig())[0]
        assert (after.family, after.rotation) == (before.family, before.rotation)

    def test_the_first_admissible_candidate_is_kept(self):
        families = ("indep", "clayton", "gaussian")
        assert _edge_candidates(families, -0.3, True, True) == [("clayton", 90)]
        assert _edge_candidates(families, -0.3, True, False) == [
            ("clayton", 90), ("clayton", 270), ("gaussian", 0)
        ]

    def test_a_five_level_column_with_two_observed_codes_is_binary(self, monkeypatch):
        obs = _latent_pair(0.6, 700, seed=3)
        codes = np.where(obs.v_plus == obs.v_plus.min(), 2.0, 4.0)
        margin = OrdinalMargin.fit(codes, 5)
        v_plus, v_minus = margin.cdf(codes), margin.cdf_left(codes)
        obs = PairObs(obs.u_plus, v_plus, obs.u_minus, v_minus)
        fitted = _counting_fits(monkeypatch)
        _fit_edge(obs, 1, 700, FitConfig())
        assert fitted == ["gaussian"]

    @pytest.mark.parametrize(
        "cuts,continuous_v",
        [(((0.0,), (-0.5, 0.5)), False), (((0.0,), (0.0,)), True)],
        ids=["binary-x-three-levels", "binary-x-continuous"],
    )
    def test_other_pairs_keep_the_screen(self, monkeypatch, cuts, continuous_v):
        obs = _latent_pair(0.6, 700, seed=4, cuts=cuts, continuous_v=continuous_v)
        fitted = _counting_fits(monkeypatch)
        config = FitConfig()
        assert _fit_edge(obs, 1, 700, config) == _full_search(obs, 1, 700, config)
        # three fits, four when both sides are discrete
        assert len(fitted) == (3 if continuous_v else 4)


    def test_a_binary_side_conditioned_through_independence_stays_binary(self, monkeypatch):
        # b1 and b2 are binary, dependent on each other and independent of
        # the 3-level t, so tree 2's edge (b1, b2; t) joins two binary sides
        rng = np.random.default_rng(5)
        n = 700
        z = rng.multivariate_normal([0, 0], [[1, 0.6], [0.6, 1]], size=n)
        t = rng.integers(1, 4, n).astype(float)
        x = np.column_stack([(z[:, 0] > 0) + 1.0, t, (z[:, 1] > 0.3) + 1.0, t + rng.standard_normal(n)])
        margins = [
            OrdinalMargin.fit(x[:, 0], 2),
            OrdinalMargin.fit(t, 3),
            OrdinalMargin.fit(x[:, 2], 2),
            KernelMargin.fit(x[:, 3]),
        ]
        structure = VineStructure(
            d=4,
            trees=[
                [Edge((0, 1)), Edge((1, 2)), Edge((1, 3))],
                [Edge((0, 2), {1}), Edge((2, 3), {1})],
                [Edge((0, 3), {1, 2})],
            ],
        )
        pairs, fit_edge = [], vine_module._fit_edge

        def recording_fit_edge(obs, level, n, config):
            pairs.append((level, obs))
            return fit_edge(obs, level, n, config)

        monkeypatch.setattr(vine_module, "_fit_edge", recording_fit_edge)
        fitted_obs, fit = [], vine_module.bicop_fit

        def counting_fit(family, rotation, obs, **kwargs):
            fitted_obs.append(obs)
            return fit(family, rotation, obs, **kwargs)

        monkeypatch.setattr(vine_module, "bicop_fit", counting_fit)
        model = fit_vine(x, margins, structure)
        assert [fe.bicop.family for fe in model.trees[0]][:2] == ["indep", "indep"]
        (later,) = [obs for level, obs in pairs if level == 2 and obs.u_disc and obs.v_disc]
        assert np.unique(later.u_plus).size == np.unique(later.v_plus).size == 2
        assert sum(obs is later for obs in fitted_obs) == 1
        assert model.trees[1][0].bicop.family == "gaussian"


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
        model = dataclasses.replace(_manual_model(2), trees=[], truncation=0)
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


def _traverse_rows(model, x):
    """Reference scoring: every margin and pair-copula on every row."""
    logf = np.zeros(x.shape[0])
    cols = {}
    for j, m in enumerate(model.margins):
        logf += np.log(np.maximum(np.asarray(m.pdf(x[:, j]), dtype=float), CONTRIB_FLOOR))
        lo = np.asarray(m.cdf_left(x[:, j]), dtype=float) if m.is_discrete else None
        cols[(j, frozenset())] = (np.asarray(m.cdf(x[:, j]), dtype=float), lo)
    for fe in model.all_edges():
        (a, b), cond = fe.edge.conditioned, fe.edge.conditioning
        (up, ulo), (vp, vlo) = cols[(a, cond)], cols[(b, cond)]
        obs = PairObs(up, vp, ulo, vlo)
        contrib, cols[(a, cond | {b})], cols[(b, cond | {a})] = bicop_condition(fe.bicop, obs)
        logf += contrib
    return logf


_DEDUP_NAMES = ("c0", "c1", "c2", "o3", "o4")
_DEDUP_LEVELS = {"o3": 4, "o4": 3}


def _dedup_cohort(seed, n):
    """Latent-normal rows: three continuous columns and two ordinal ones."""
    rng = np.random.default_rng(seed)
    corr = 0.45 + 0.55 * np.eye(5)
    corr[0, 3] = corr[3, 0] = -0.3
    z = rng.multivariate_normal(np.zeros(5), corr, size=n)
    z[:, 3] = np.digitize(z[:, 3], [-0.8, 0.0, 0.7]) + 1.0
    z[:, 4] = np.digitize(z[:, 4], [-0.4, 0.6]) + 1.0
    return z


@functools.lru_cache(maxsize=None)
def _dedup_classifier():
    schema = Schema(
        tuple(
            VariableSpec(n, "ordinal", _DEDUP_LEVELS[n])
            if n in _DEDUP_LEVELS
            else VariableSpec(n, "continuous")
            for n in _DEDUP_NAMES
        ),
        label="y",
    )
    shifted = _dedup_cohort(2, 250) * [1.0, 0.7, 1.0, 1.0, 1.0] + [0.5, 0.0, 0.0, 0.0, 0.0]
    x = np.vstack([_dedup_cohort(1, 250), shifted])
    labels = np.repeat([0, 1], 250)
    model = fit_classifier(Dataset(schema, x, labels=labels))
    assert all(v.truncation >= 2 for v in model.vines)
    return model


def _grid_rows(columns_and_values):
    """Rows of the product of the given column grids, every other column at
    the values of one fixed row."""
    base = _dedup_cohort(3, 1)[0]
    mesh = np.meshgrid(*(values for _, values in columns_and_values), indexing="ij")
    x = np.tile(base, (mesh[0].size, 1))
    for (j, _), values in zip(columns_and_values, mesh):
        x[:, j] = values.ravel()
    return x


_GRIDS = {
    "curve": [(0, np.linspace(-2.0, 2.0, 200))],
    "continuous x continuous": [(0, np.linspace(-2.0, 2.0, 300)), (2, np.linspace(-1.5, 2.5, 3))],
    "continuous x ordinal": [(1, np.linspace(-2.0, 2.0, 40)), (3, np.arange(1.0, 5.0))],
    "ordinal x ordinal": [(3, np.arange(1.0, 5.0)), (4, np.arange(1.0, 4.0))],
}


class TestEdgeDedup:
    @pytest.mark.parametrize("grid", list(_GRIDS), ids=list(_GRIDS))
    def test_grids_match_the_row_traversal(self, grid):
        x = _grid_rows(_GRIDS[grid])
        for vine in _dedup_classifier().vines:
            assert_array_equal(vine_logdensity(vine, x), _traverse_rows(vine, x))

    def test_distinct_rows_match_the_row_traversal(self):
        x = _dedup_cohort(4, 300)
        for vine in _dedup_classifier().vines:
            assert_array_equal(vine_logdensity(vine, x), _traverse_rows(vine, x))

    def test_a_permuted_batch_scores_each_row_alike(self):
        x = np.vstack([_grid_rows(_GRIDS["continuous x ordinal"]), _dedup_cohort(5, 60)])
        order = np.random.default_rng(6).permutation(x.shape[0])
        for vine in _dedup_classifier().vines:
            assert_array_equal(vine_logdensity(vine, x[order]), vine_logdensity(vine, x)[order])

    def test_rows_scored_alone_match_their_batch(self):
        x = np.vstack([_grid_rows(_GRIDS["continuous x ordinal"]), _dedup_cohort(9, 40)])
        for vine in _dedup_classifier().vines:
            alone = np.concatenate([vine_logdensity(vine, row[None, :]) for row in x])
            assert_array_equal(vine_logdensity(vine, x), alone)

    def test_one_row_and_no_rows(self):
        model = _dedup_classifier()
        x = _dedup_cohort(7, 1)
        for vine in model.vines:
            assert_array_equal(vine_logdensity(vine, x), _traverse_rows(vine, x))
            assert vine_logdensity(vine, x[:0]).shape == (0,)
        assert posterior(model, np.empty((0, len(_DEDUP_NAMES)))).shape == (0, 2)

    def test_each_edge_is_scored_once_per_grid_combination(self, monkeypatch):
        model = _dedup_classifier()
        edges = [fe.edge for vine in model.vines for fe in vine.all_edges()]
        # two continuous grid columns that some edge touches neither of
        grid_cols = next(
            cols
            for cols in ((0, 1), (0, 2), (1, 2))
            if any(not e.all_vars & set(cols) for e in edges)
        )
        seen = []

        def counting(cop, obs, sides):
            seen.append(obs.u_plus.size)  # the combinations, before the row map
            return bicop_condition(cop, obs, sides)

        monkeypatch.setattr(vine_module, "bicop_condition", counting)
        names = [_DEDUP_NAMES[j] for j in grid_cols]
        base = BaseProfile(dict(zip(_DEDUP_NAMES, [0.1, -0.2, 0.3, 2, 1])))
        surface = risk_surface(
            model, base, *(GridSpec.linspace(n, -2.0, 2.0, 100) for n in names)
        )
        assert surface.probs.shape == (100, 100)
        # an edge is scored on the grid columns of the sides it reads, and
        # a column is held on those of the sides that made it
        expected = []
        for vine in model.vines:
            read = _vine_read_columns(vine)
            held = {(j, frozenset()): {j} for j in range(vine.d)}
            for fe in vine.all_edges():
                ins = [(j, fe.edge.conditioning) for j in fe.edge.conditioned]
                if not any(key in read for key in ins):
                    continue
                s = set().union(*(held[key] for key in ins if key in read or not key[1]))
                held.update((out, s) for out in vine_module._outputs(fe.edge) if out in read)
                expected.append(100 ** len(s & set(grid_cols)))
        assert seen == expected
        assert {1, 100, 10_000} <= set(expected)


def _vine_read_columns(vine):
    return vine_module._read_columns(
        [[(fe.edge, fe.bicop.family == "indep") for fe in tree] for tree in vine.trees],
        [m.is_discrete for m in vine.margins],
    )


def _col(j, *cond):
    return (j, frozenset(cond))


def _c_structure(order):
    """C-vine: tree t joins its root ``order[t - 1]`` to every later
    variable, given the earlier roots."""
    return VineStructure(
        d=len(order),
        trees=[
            [Edge((root, j), frozenset(order[:t])) for j in order[t + 1 :]]
            for t, root in enumerate(order[:-1])
        ],
    )


def _hand_vine(structure, families, truncation=None):
    """The edges of ``structure`` with the given copulas, tree by tree, on
    margins of ``_dedup_cohort``: three kernel, then two ordinal."""
    x = _dedup_cohort(1, 250)
    margins = [KernelMargin.fit(x[:, j]) for j in range(3)]
    margins += [OrdinalMargin.fit(x[:, 3], 4), OrdinalMargin.fit(x[:, 4], 3)]
    trees = [
        [FittedEdge(e, cop, 0.0, 0.0) for e, cop in zip(tree, cops)]
        for tree, cops in zip(structure.trees, families)
    ][:truncation]
    return VineModel(margins, structure, trees, len(trees), 250, 0.9)


def _cop(family, param, rotation=0):
    return Bicop(family, rotation, (param,))


# Variables 0-2 are continuous and 3-4 ordinal.  Every level with more than
# one edge has independence edges, marked by their sides: two continuous
# (cc), a continuous and a discrete one (cd) or two discrete (dd).
_D_VINE = (
    _chain_structure(5),
    [
        # (0,1) (1,2) (2,3) (3,4)
        [_cop("gaussian", 0.5), INDEP, _cop("clayton", 1.5), INDEP],  # cc, dd
        # (0,2;1) (1,3;2) (2,4;3)
        [INDEP, _cop("frank", 3.0), INDEP],  # cc, cd
        # (0,3;12) (1,4;23)
        [_cop("gumbel", 1.6), INDEP],  # cd
        # (0,4;123)
        [_cop("joe", 1.4)],
    ],
)
_C_VINE = (
    _c_structure((0, 3, 1, 4, 2)),
    [
        # (0,3) (0,1) (0,4) (0,2)
        [INDEP, _cop("gaussian", 0.6), _cop("gumbel", 1.5, 90), INDEP],  # cd, cc
        # (1,3;0) (3,4;0) (2,3;0)
        [INDEP, INDEP, _cop("frank", -2.0)],  # cd, dd
        # (1,4;03) (1,2;03)
        [_cop("clayton", 1.2, 270), INDEP],  # cc
        # (2,4;013)
        [_cop("gaussian", 0.3)],
    ],
)
_BASE = {(j, frozenset()) for j in range(5)}


class TestReadTable:
    def test_d_vine(self):
        read = _vine_read_columns(_hand_vine(*_D_VINE))
        assert read == _BASE | {
            # (0,2;1) passes 0|1 on to 0|12; (2,4;3) reads its discrete 4|3 only
            _col(0, 1), _col(1, 2), _col(3, 2), _col(4, 3),
            # (1,4;23) reads its discrete 4|23, not 1|23
            _col(0, 1, 2), _col(3, 1, 2), _col(4, 2, 3),
            _col(0, 1, 2, 3), _col(4, 1, 2, 3),
        }

    def test_truncated_d_vine(self):
        read = _vine_read_columns(_hand_vine(*_D_VINE, truncation=2))
        # (0,2;1) is independent, continuous and feeds nothing: it reads nothing
        assert read == _BASE | {_col(1, 2), _col(3, 2), _col(4, 3)}

    def test_c_vine(self):
        read = _vine_read_columns(_hand_vine(*_C_VINE))
        assert read == _BASE | {
            # (1,3;0) passes 1|0 on to 1|03 and reads its discrete 3|0
            _col(1, 0), _col(2, 0), _col(3, 0), _col(4, 0),
            # (1,2;03) passes 2|03 on to 2|013, not 1|03, which (1,4;03) reads
            _col(1, 0, 3), _col(2, 0, 3), _col(4, 0, 3),
            _col(2, 0, 1, 3), _col(4, 0, 1, 3),
        }

    def test_nothing_reads_the_last_tree(self):
        for structure, families in (_D_VINE, _C_VINE):
            for truncation in range(1, 5):
                vine = _hand_vine(structure, families, truncation)
                read = _vine_read_columns(vine)
                for fe in vine.trees[-1]:
                    assert not set(vine_module._outputs(fe.edge)) & read

    @pytest.mark.parametrize("truncation", [1, 2, 3, 4])
    @pytest.mark.parametrize("vine", ["d", "c"])
    def test_scoring_matches_the_row_traversal(self, vine, truncation):
        model = _hand_vine(*{"d": _D_VINE, "c": _C_VINE}[vine], truncation)
        grids = [_grid_rows(g) for g in _GRIDS.values()]
        one = _dedup_cohort(7, 1)
        for x in (*grids, _dedup_cohort(4, 300), one, one[:0]):
            assert_array_equal(vine_logdensity(model, x), _traverse_rows(model, x))

    @pytest.mark.parametrize("truncation", [None, 2])
    def test_only_read_sides_are_computed(self, monkeypatch, truncation):
        model = _hand_vine(*_D_VINE, truncation)
        read = _vine_read_columns(model)
        asked = []

        def recording(cop, obs, sides):
            out = bicop_condition(cop, obs, sides)
            asked.append((list(sides), [g is not None for g in out[1:]]))
            return out

        monkeypatch.setattr(vine_module, "bicop_condition", recording)
        vine_logdensity(model, _grid_rows(_GRIDS["continuous x ordinal"]))
        edges = [fe.edge for fe in model.all_edges()]
        if truncation == 2:
            # (0,2;1), independent with two continuous sides, feeds nothing
            edges.remove(Edge((0, 2), {1}))
        assert len(asked) == len(edges)
        for edge, (sides, given) in zip(edges, asked):
            assert sides == given == [out in read for out in vine_module._outputs(edge)]

    def test_fitting_conditions_the_sides_of_the_next_tree(self, monkeypatch):
        x = _dedup_cohort(8, 300)
        margins = [KernelMargin.fit(x[:, j]) for j in range(3)]
        margins += [OrdinalMargin.fit(x[:, 3], 4), OrdinalMargin.fit(x[:, 4], 3)]
        structure = select_structure(np.corrcoef(x, rowvar=False))
        asked = []

        def recording(cop, obs, sides):
            asked.append(list(sides))
            return bicop_condition(cop, obs, sides)

        monkeypatch.setattr(vine_module, "bicop_condition", recording)
        model = fit_vine(x, margins, structure, FitConfig())
        # every fitted tree but the last is conditioned for the next
        levels = min(model.truncation, len(structure.trees) - 1)
        assert levels >= 2
        want = []
        for tree, following in zip(structure.trees[:levels], structure.trees[1:]):
            sides = {(j, e.conditioning) for e in following for j in e.conditioned}
            want += [[out in sides for out in vine_module._outputs(e)] for e in tree]
        assert asked == want
        assert any(False in w for w in want)


def _with_side(obs, side, plus):
    """``obs`` with one continuous side's values replaced by ``plus``."""
    u_plus, v_plus = (plus, obs.v_plus) if side == 0 else (obs.u_plus, plus)
    minus = (obs.u_minus if obs.u_disc else None, obs.v_minus if obs.v_disc else None)
    return PairObs(u_plus, v_plus, *minus)


@pytest.mark.parametrize("u_disc,v_disc", [(False, False), (True, False), (False, True)])
def test_independence_ignores_the_values_of_a_continuous_side(u_disc, v_disc):
    rng = np.random.default_rng(12)
    up, vp = rng.uniform(size=(2, 200))
    ulo, vlo = up * rng.uniform(size=200), vp * rng.uniform(size=200)
    obs = PairObs(up, vp, ulo if u_disc else None, vlo if v_disc else None)
    contrib, *given = bicop_condition(INDEP, obs)
    for side in [s for s, disc in enumerate((u_disc, v_disc)) if not disc]:
        for constant in (EPS, 0.3, 0.5, 1.0 - EPS):
            got, *got_given = bicop_condition(INDEP, _with_side(obs, side, np.full(200, constant)))
            assert_array_equal(got, contrib)
            other = 1 - side
            assert_array_equal(got_given[other][0], given[other][0])


def _fit_rows(x, margins, structure, config):
    """Reference fit: the greedy search of ``fit_vine`` with every column and
    every conditioning step on the rows."""
    n = x.shape[0]
    cols = {}
    for j, m in enumerate(margins):
        lo = np.asarray(m.cdf_left(x[:, j]), dtype=float) if m.is_discrete else None
        cols[(j, frozenset())] = (np.asarray(m.cdf(x[:, j]), dtype=float), lo)
    trees, truncation = [], 0
    for level, tree in enumerate(structure.trees, start=1):
        fitted = []
        for edge in tree:
            (a, b), cond = edge.conditioned, edge.conditioning
            (up, ulo), (vp, vlo) = cols[(a, cond)], cols[(b, cond)]
            obs = PairObs(up, vp, ulo, vlo)
            fe = FittedEdge(edge, *_fit_edge(obs, level, n, config))
            _, cols[(a, cond | {b})], cols[(b, cond | {a})] = bicop_condition(fe.bicop, obs)
            fitted.append(fe)
        trees.append(fitted)
        if any(fe.bicop.family != "indep" for fe in fitted):
            truncation = level
        else:
            break
    return trees[:truncation]


def test_fit_on_tied_rows_matches_the_row_traversal():
    x = _dedup_cohort(8, 300)
    x[:, :3] = np.round(x[:, :3], 1)  # continuous columns with repeated values
    margins = [KernelMargin.fit(x[:, j]) for j in range(3)]
    margins += [OrdinalMargin.fit(x[:, 3], 4), OrdinalMargin.fit(x[:, 4], 3)]
    structure = select_structure(np.corrcoef(x, rowvar=False))
    model = fit_vine(x, margins, structure, FitConfig())
    assert model.truncation >= 2
    want = _fit_rows(x, margins, structure, FitConfig())
    assert [[fe.to_dict() for fe in tree] for tree in model.trees] == [
        [fe.to_dict() for fe in tree] for tree in want
    ]


def _mapped_pair(obs, n, seed):
    """``obs`` as the columns of an ``n``-row pair, each entry on at least
    one row, and that pair expanded to its rows."""
    m = obs.u_plus.size
    rng = np.random.default_rng(seed)
    rows = rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, n - m)]))
    minus = (obs.u_minus if obs.u_disc else None, obs.v_minus if obs.v_disc else None)
    mapped = PairObs(obs.u_plus, obs.v_plus, *minus, rows=rows)
    expanded = PairObs(
        obs.u_plus[rows], obs.v_plus[rows], *(None if s is None else s[rows] for s in minus)
    )
    return mapped, expanded


@pytest.mark.parametrize("discrete", ["", "u", "v", "uv"], ids=lambda d: d or "continuous")
def test_a_row_map_fits_bitwise_as_its_rows(discrete):
    cop = Bicop("gumbel", 90, tau_to_param("gumbel", -0.4, 90))
    mapped, expanded = _mapped_pair(_simulated_pair(cop, 150, discrete, seed=11), 500, seed=12)
    assert mapped.n == expanded.n == 500
    tau = empirical_tau(mapped)
    assert tau == empirical_tau(expanded)
    candidates = _edge_candidates(FitConfig().families, tau, discrete != "", False)
    assert len(candidates) > 4
    for fam, rot in candidates:
        start = bicop_start(fam, rot, mapped, tau)
        assert start == bicop_start(fam, rot, expanded, tau)
        fitted = bicop_fit(fam, rot, mapped, start=start)
        assert fitted == bicop_fit(fam, rot, expanded, start=start)
        assert_array_equal(
            bicop_contributions(fitted[0], mapped), bicop_contributions(fitted[0], expanded)
        )
        # conditioning stays on the columns; the row map takes it to the rows
        on_columns, on_rows = bicop_condition(fitted[0], mapped), bicop_condition(fitted[0], expanded)
        assert_array_equal(on_columns[0][mapped.rows], on_rows[0])
        for side, want in zip(on_columns[1:], on_rows[1:]):
            for got, part in zip(side, want):
                if part is None:
                    assert got is None
                else:
                    assert_array_equal(got[mapped.rows], part)
    assert _fit_edge(mapped, 1, 500, FitConfig()) == _fit_edge(expanded, 1, 500, FitConfig())


@pytest.mark.parametrize("discrete", ["", "u", "uv"], ids=lambda d: d or "continuous")
def test_a_pair_without_a_row_map_is_its_own_rows(discrete):
    cop = Bicop("frank", 0, tau_to_param("frank", 0.3))
    obs = _simulated_pair(cop, 200, discrete, seed=13)
    minus = (obs.u_minus if obs.u_disc else None, obs.v_minus if obs.v_disc else None)
    identity = PairObs(obs.u_plus, obs.v_plus, *minus, rows=np.arange(200))
    assert obs.rows is None and obs.n == identity.n == 200
    for a, b in zip(obs.midpoints(), identity.midpoints()):
        assert_array_equal(a, b)
    assert_array_equal(bicop_contributions(cop, obs), bicop_contributions(cop, identity))
    assert bicop_loglik(cop, obs) == bicop_loglik(cop, identity)
    assert _fit_edge(obs, 1, 200, FitConfig()) == _fit_edge(identity, 1, 200, FitConfig())
