"""End-to-end acceptance gates, one test per release criterion.

Each test states its tolerance inline and asserts its own runtime budget
where one applies; `pytest -v` prints one pass/fail line per criterion.
"""

import csv
import itertools
import json
import math
import time

import numpy as np
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import ndtr, ndtri, roots_legendre

from vinerisk.bicop import Bicop, tau_to_param
from vinerisk.classifier import (
    RISK_GROUPS,
    RiskPolicy,
    assign_risk_groups,
    auc,
    fit_classifier,
    per_class_brier,
    per_class_nll,
    posterior,
    posteriors_from_logdensity,
    risk_group_report,
)
from vinerisk.cli import main as cli_main
from vinerisk.data import Dataset, Schema, VariableSpec
from vinerisk.diagnostics import bootstrap_bands
from vinerisk.latent import latent_correlation_matrix
from vinerisk.margins import KernelMargin, fit_margin
from vinerisk.simulation import DgpConfig, benchmark_run
from vinerisk.vine import FitConfig, fit_vine, select_structure, vine_logdensity

ROTATIONS = {
    "gaussian": (0,),
    "studentt": (0,),
    "frank": (0,),
    "clayton": (0, 90, 180, 270),
    "gumbel": (0, 90, 180, 270),
    "joe": (0, 90, 180, 270),
}


def _copula_cases():
    for family, rotations in ROTATIONS.items():
        for rotation in rotations:
            for t in (0.3, 0.5, 0.75):
                tau = -t if rotation in (90, 270) else t
                if family == "studentt":
                    params = (math.sin(math.pi * tau / 2.0), 5.0)
                else:
                    params = tau_to_param(family, tau, rotation)
                yield family, rotation, tau, Bicop(family, rotation, params)


def test_criterion_1_pair_copula_families_are_valid_copulas():
    """CDF bounds, unit mass, h-function consistency and sampled tau for
    every family/rotation at tau in {0.3, 0.5, 0.75}; budget 30 s."""
    start = time.monotonic()
    grid = np.linspace(0.02, 0.98, 21)
    gu, gv = np.meshgrid(grid, grid, indexing="ij")
    gu, gv = gu.ravel(), gv.ravel()
    quad_nodes, quad_weights = roots_legendre(220)
    xg = quad_nodes * 8.0
    wg = quad_weights * 8.0
    ug = ndtr(xg)
    phi = np.exp(-0.5 * xg * xg) / math.sqrt(2.0 * math.pi)
    qu, qv = np.meshgrid(ug, ug, indexing="ij")
    qw = np.outer(wg * phi, wg * phi)
    inner = np.linspace(0.15, 0.85, 5)
    pu, pv = np.meshgrid(inner, inner, indexing="ij")
    pu, pv = pu.ravel(), pv.ravel()
    step = 1e-4

    for family, rotation, tau, cop in _copula_cases():
        label = f"{family} rot {rotation} tau {tau}"
        cdf = cop.cdf(gu, gv)
        lower = np.maximum(gu + gv - 1.0, 0.0)
        upper = np.minimum(gu, gv)
        assert np.all(cdf >= lower - 1e-12), label
        assert np.all(cdf <= upper + 1e-12), label

        mass = float(np.sum(cop.pdf(qu.ravel(), qv.ravel()).reshape(220, 220) * qw))
        assert abs(mass - 1.0) < 1e-3, f"{label}: mass {mass}"

        fd = (cop.cdf(pu, pv + step) - cop.cdf(pu, pv - step)) / (2.0 * step)
        assert_allclose(cop.hfunc(pu, pv, "1|2"), fd, atol=1e-5, err_msg=label)
        fd = (cop.cdf(pu + step, pv) - cop.cdf(pu - step, pv)) / (2.0 * step)
        assert_allclose(cop.hfunc(pu, pv, "2|1"), fd, atol=1e-5, err_msg=label)

        q = np.linspace(0.05, 0.95, 7)
        cond = np.full_like(q, 0.35)
        back = cop.hfunc(cop.hinv(q, cond, "1|2"), cond, "1|2")
        assert_allclose(back, q, atol=1e-8, err_msg=label)

        sample = cop.sample(100_000, np.random.default_rng(0))
        tau_hat = stats.kendalltau(sample[:, 0], sample[:, 1]).statistic
        assert abs(tau_hat - tau) < 0.01, f"{label}: tau_hat {tau_hat}"

    indep = Bicop("indep", 0, ())
    assert_allclose(indep.cdf(gu, gv), gu * gv, atol=1e-15)
    assert_allclose(indep.pdf(gu, gv), 1.0, atol=1e-15)
    assert time.monotonic() - start < 30.0


def test_criterion_2_mixed_density_has_unit_mass():
    """Fitted vines on ordinal and mixed data integrate/sum to one;
    budget 60 s."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    n = 800
    corr = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]])
    z = rng.multivariate_normal(np.zeros(3), corr, size=n)

    cuts = {0: [-0.5, 0.6], 1: [0.1], 2: [-0.3, 0.4]}
    xo = np.column_stack(
        [(np.digitize(z[:, j], cuts[j]) + 1).astype(float) for j in range(3)]
    )
    schema_o = Schema(
        variables=(
            VariableSpec("a", "ordinal", 3),
            VariableSpec("b", "ordinal", 2),
            VariableSpec("c", "ordinal", 3),
        )
    )
    ds = Dataset(schema_o, xo)
    margins = [fit_margin(xo[:, j], s) for j, s in enumerate(schema_o.variables)]
    model = fit_vine(xo, margins, select_structure(latent_correlation_matrix(ds)), FitConfig())
    assert model.truncation >= 1  # dependence was actually modeled
    cells = np.array(list(itertools.product([1, 2, 3], [1, 2], [1, 2, 3])), dtype=float)
    mass = float(np.exp(vine_logdensity(model, cells)).sum())
    assert abs(mass - 1.0) < 1e-6, f"ordinal cell mass {mass}"

    xm = np.column_stack(
        [z[:, 0], (np.digitize(z[:, 1], [-0.4, 0.5]) + 1).astype(float), z[:, 2]]
    )
    schema_m = Schema(
        variables=(
            VariableSpec("a", "continuous"),
            VariableSpec("b", "ordinal", 3),
            VariableSpec("c", "continuous"),
        )
    )
    ds = Dataset(schema_m, xm)
    margins = [fit_margin(xm[:, j], s) for j, s in enumerate(schema_m.variables)]
    model = fit_vine(xm, margins, select_structure(latent_correlation_matrix(ds)), FitConfig())
    assert model.truncation >= 1
    nodes, weights = roots_legendre(80)
    g = nodes * 8.0
    w = weights * 8.0
    g1, g3 = np.meshgrid(g, g, indexing="ij")
    wmat = np.outer(w, w).ravel()
    mass = 0.0
    for level in (1.0, 2.0, 3.0):
        pts = np.column_stack([g1.ravel(), np.full(g1.size, level), g3.ravel()])
        mass += float(np.exp(vine_logdensity(model, pts)) @ wmat)
    assert abs(mass - 1.0) < 1e-4, f"mixed mass {mass}"
    assert time.monotonic() - start < 60.0


def test_criterion_3_posteriors_normalize_and_follow_bayes_rule():
    """Posterior rows sum to one at 1e-12 across extreme inputs, and the
    two-class worked example lands exactly on Bayes' rule."""
    p = posteriors_from_logdensity(np.log([[2.0, 1.0]]), [0.2, 0.8])
    assert_allclose(p, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)

    rng = np.random.default_rng(0)
    logf = rng.uniform(-800.0, 800.0, size=(10_000, 3))
    priors = rng.dirichlet(np.ones(3))
    probs = posteriors_from_logdensity(logf, priors)
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    # the same holds for a fitted model end to end
    from vinerisk.simulation import simulate_dgp, split_train_test

    cfg = DgpConfig(n_train=150, n_test=100, seed=0)
    train, test = split_train_test(simulate_dgp(cfg), cfg)
    model = fit_classifier(train, FitConfig())
    probs = posterior(model, test.x)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12


def test_criterion_4_benchmark_reproduces_reference_performance():
    """Over 20 seeds with known-family fits, the copula classifier beats the
    weighted logistic baseline on out-of-sample summed NLL in >= 18/20 seeds
    and the medians land within 30% of the reference values; budget 300 s."""
    start = time.monotonic()
    seeds = list(range(20))
    targets = {"continuous": 82.88, "mixed": 111.45}
    logistic_train_target = 264.95
    logistic_test_target = 142.61

    for variant, target in targets.items():
        rows, _ = benchmark_run(
            DgpConfig(variant=variant), seeds, fit_config=FitConfig(), modes=("oracle",)
        )
        cop = {
            r["seed"]: r["value"]
            for r in rows
            if r["method"] == "copula" and r["split"] == "test" and r["metric"] == "nll_sum"
        }
        log_test = {
            r["seed"]: r["value"]
            for r in rows
            if r["method"] == "logistic" and r["split"] == "test" and r["metric"] == "nll_sum"
        }
        wins = sum(cop[s] < log_test[s] for s in seeds)
        assert wins >= 18, f"{variant}: copula won only {wins}/20 seeds"
        med = float(np.median([cop[s] for s in seeds]))
        assert abs(med / target - 1.0) <= 0.30, f"{variant}: copula median {med}"
        if variant == "continuous":
            med_log = float(np.median([log_test[s] for s in seeds]))
            assert abs(med_log / logistic_test_target - 1.0) <= 0.30
            log_train = [
                r["value"]
                for r in rows
                if r["method"] == "logistic"
                and r["split"] == "train"
                and r["metric"] == "nll_sum"
            ]
            med_train = float(np.median(log_train))
            assert abs(med_train / logistic_train_target - 1.0) <= 0.30
    assert time.monotonic() - start < 300.0


def test_criterion_5_truncation_finds_the_generating_depth():
    """Independent data truncates to depth zero; a one-tree star vine is
    recovered at depth one with its pair strengths; budget 180 s."""
    start = time.monotonic()
    schema = Schema(
        variables=tuple(VariableSpec(f"x{j}", "continuous") for j in range(3))
    )

    indep_hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(500, 3))
        ds = Dataset(schema, x)
        structure = select_structure(latent_correlation_matrix(ds))
        margins = [KernelMargin.fit(x[:, j]) for j in range(3)]
        model = fit_vine(x, margins, structure, FitConfig())
        indep_hits += model.truncation == 0
    assert indep_hits >= 18, f"only {indep_hits}/20 independent fits truncated to zero"

    tau = 0.6
    pair = Bicop("gumbel", 0, tau_to_param("gumbel", tau))
    star_hits = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = 700
        u2 = rng.uniform(size=n)
        u1 = pair.hinv(rng.uniform(size=n), u2, "1|2")
        u3 = pair.hinv(rng.uniform(size=n), u2, "1|2")
        x = ndtri(np.column_stack([u1, u2, u3]))
        ds = Dataset(schema, x)
        structure = select_structure(latent_correlation_matrix(ds))
        margins = [KernelMargin.fit(x[:, j]) for j in range(3)]
        model = fit_vine(x, margins, structure, FitConfig())
        if model.truncation != 1:
            continue
        edges = {fe.edge.conditioned: fe for fe in model.trees[0]}
        if set(edges) != {(0, 1), (1, 2)}:
            continue
        if all(abs(fe.bicop.tau - tau) <= 0.08 for fe in edges.values()):
            star_hits += 1
    assert star_hits >= 16, f"only {star_hits}/20 star vines recovered"
    assert time.monotonic() - start < 180.0


def test_criterion_6_risk_groups_follow_the_threshold_policy():
    """Pinned assignments at alpha 0.25, a clean three-way partition, and
    monotone growth of the outer groups in alpha."""
    got = assign_risk_groups(
        np.array([0.95, 0.10, 0.60, 0.25, 0.75]), RiskPolicy(0.25)
    )
    assert list(got) == ["high", "low", "moderate", "low", "high"]

    p = np.linspace(0.0, 1.0, 101)
    for alpha in (0.15, 0.20, 0.25):
        groups = assign_risk_groups(p, RiskPolicy(alpha))
        counts = {g: int(np.sum(groups == g)) for g in RISK_GROUPS}
        assert sum(counts.values()) == p.size
        assert set(groups) == set(RISK_GROUPS)

    rng = np.random.default_rng(1)
    p = rng.uniform(size=400)
    outer_sizes = []
    for alpha in (0.05, 0.15, 0.25, 0.35, 0.45):
        groups = assign_risk_groups(p, RiskPolicy(alpha))
        outer_sizes.append(int(np.sum(groups != "moderate")))
    assert outer_sizes == sorted(outer_sizes)

    labels = (p > 0.5).astype(int)
    rows = risk_group_report(p, labels, [0.15, 0.20, 0.25], aux=p)
    assert len(rows) == 9
    for alpha in (0.15, 0.20, 0.25):
        sub = [r for r in rows if r["alpha"] == alpha]
        assert sum(r["n"] for r in sub) == p.size
        assert sum(r["n_class0"] + r["n_class1"] for r in sub) == p.size


def test_criterion_7_bootstrap_bands_hit_nominal_coverage():
    """Across 200 synthetic datasets the seeded 90% percentile bands cover
    the true conditional Spearman in 90% +- 5% of (dataset, category)
    events; budget 300 s."""
    start = time.monotonic()
    true_rho = 6.0 / math.pi * math.asin(0.25)  # bivariate normal, rho 0.5
    events = 0
    hits = 0
    for ds_seed in range(200):
        rng = np.random.default_rng(ds_seed)
        z = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=450)
        cats = (np.digitize(rng.normal(size=450), [-0.43, 0.43]) + 1).astype(float)
        res = bootstrap_bands(
            z[:, 0], z[:, 1], cats, replicates=1000, level=0.90, seed=ds_seed
        )
        for cat in res.categories:
            events += 1
            hits += res.lower[cat] <= true_rho <= res.upper[cat]
    coverage = hits / events
    assert 0.85 <= coverage <= 0.95, f"coverage {coverage} ({hits}/{events})"
    assert time.monotonic() - start < 300.0


def test_criterion_8_evaluation_metrics_satisfy_their_identities():
    """Known-answer and decomposition checks for NLL, Brier and AUC."""
    perfect = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1, 0])
    nll = per_class_nll(perfect, labels, [0, 1])
    assert nll["sum"] == 0.0 and nll["per_class"] == {0: 0.0, 1: 0.0}
    assert per_class_brier(perfect, labels, [0, 1]) == {0: 0.0, 1: 0.0}

    half = np.full((6, 2), 0.5)
    labels6 = np.tile([0, 1], 3)
    nll = per_class_nll(half, labels6, [0, 1])
    assert_allclose([nll["per_class"][0], nll["per_class"][1]], math.log(2.0), rtol=1e-15)
    assert per_class_brier(half, labels6, [0, 1]) == {0: 0.25, 1: 0.25}

    rng = np.random.default_rng(3)
    raw = rng.uniform(0.01, 0.99, size=(500, 2))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 2, size=500)
    nll = per_class_nll(probs, labels, [0, 1])
    n0, n1 = nll["counts"][0], nll["counts"][1]
    recomposed = (n0 * nll["per_class"][0] + n1 * nll["per_class"][1]) / (n0 + n1)
    assert abs(nll["mean"] - recomposed) < 1e-12
    assert abs(nll["sum"] - (n0 * nll["per_class"][0] + n1 * nll["per_class"][1])) < 1e-9

    assert auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1]), 1) == 1.0
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([0, 0, 1, 1]), 1) == 0.0
    assert auc(np.full(4, 0.5), np.array([0, 1, 0, 1]), 1) == 0.5
    assert_allclose(
        auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]), 1), 0.75, rtol=1e-15
    )


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path, capsys):
    """The full CLI pipeline rerun with a different worker count reproduces
    every artifact byte for byte; failures exit 1 with one stderr line."""

    def run(*argv):
        code = cli_main(list(argv))
        err = capsys.readouterr().err
        assert code == 0, err
        return code

    outputs = {}
    for tag, workers in (("a", "1"), ("b", "6")):
        d = tmp_path / tag
        d.mkdir()
        data, schema = d / "data.csv", d / "data.csv.schema.json"
        model, probs = d / "model.json", d / "probs.csv"
        run(
            "simulate", "--seed", "0", "--n-train", "40", "--n-test", "20",
            "--workers", workers, "--out", str(data),
        )
        run(
            "fit", "--seed", "0", "--data", str(data), "--schema", str(schema),
            "--workers", workers, "--out", str(model),
        )
        run(
            "predict", "--model", str(model), "--data", str(data),
            "--alpha", "0.2", "--workers", workers, "--out", str(probs),
        )
        run(
            "evaluate", "--posteriors", str(probs), "--data", str(data),
            "--schema", str(schema), "--workers", workers,
            "--out", str(d / "metrics.csv"),
        )
        run(
            "risk-groups", "--posteriors", str(probs), "--data", str(data),
            "--schema", str(schema), "--workers", workers,
            "--out", str(d / "groups.csv"),
        )
        mixed = d / "mixed.csv"
        run(
            "simulate", "--seed", "3", "--variant", "mixed",
            "--n-train", "120", "--n-test", "0", "--workers", workers,
            "--out", str(mixed),
        )
        run(
            "diagnose", "--seed", "0", "--data", str(mixed),
            "--schema", str(mixed) + ".schema.json",
            "--x", "x1", "--y", "x1", "--z", "x2",
            "--replicates", "150", "--workers", workers,
            "--out", str(d / "bands.csv"),
        )
        run(
            "benchmark", "--variant", "continuous", "--seeds", "0",
            "--n-train", "40", "--n-test", "20", "--modes", "oracle",
            "--workers", workers, "--out", str(d / "bench.csv"),
        )
        outputs[tag] = {
            p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()
        }

    assert outputs["a"].keys() == outputs["b"].keys()
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], f"{name} differs across runs"

    code = cli_main(["fit", "--data", "x.csv", "--schema", "s.json", "--out", "m.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.strip().count("\n") == 0
