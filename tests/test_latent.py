import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtri

from vinerisk.data import Dataset, Schema, VariableSpec
from vinerisk.errors import DegenerateMargin, NearSingular, TooFewObservations
from vinerisk.latent import (
    LatentColumn,
    latent_correlation_matrix,
    make_positive_definite,
    normal_scores,
    normal_scores_pearson,
    ordinal_thresholds,
    pairwise_latent_rho,
    partial_correlation,
    polychoric_rho,
    polyserial_rho,
)


def _latent_pair(rho, n, seed):
    rng = np.random.default_rng(seed)
    return rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=n)


def test_normal_scores_are_gaussian_quantiles_of_midranks():
    x = np.array([3.0, 1.0, 2.0, 2.0])
    # midranks: 4, 1, 2.5, 2.5 -> quantiles of rank/(n+1)
    expected = ndtri(np.array([4.0, 1.0, 2.5, 2.5]) / 5.0)
    assert_allclose(normal_scores(x), expected, rtol=1e-14)


def test_ordinal_thresholds_bracket_infinities():
    codes = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
    th = ordinal_thresholds(codes, 3)
    assert th[0] == -np.inf and th[-1] == np.inf
    assert np.all(np.diff(th[1:-1]) > 0)


@pytest.mark.parametrize("rho", [-0.7, 0.0, 0.6])
def test_polyserial_recovers_latent_correlation(rho):
    z = _latent_pair(rho, 3000, 42)
    codes = np.digitize(z[:, 1], [-0.5, 0.5]) + 1.0
    est = polyserial_rho(z[:, 0], codes, 3)
    assert abs(est - rho) < 0.06


@pytest.mark.parametrize("rho", [-0.6, 0.5])
def test_polychoric_recovers_latent_correlation(rho):
    z = _latent_pair(rho, 3000, 7)
    c1 = np.digitize(z[:, 0], [0.0]) + 1.0
    c2 = np.digitize(z[:, 1], [-0.4, 0.6]) + 1.0
    est = polychoric_rho(c1, 2, c2, 3)
    assert abs(est - rho) < 0.08


def test_pairwise_dispatch_matches_specialized_estimators():
    z = _latent_pair(0.5, 800, 3)
    cont = VariableSpec("a", "continuous")
    ord3 = VariableSpec("b", "ordinal", 3)
    codes = np.digitize(z[:, 1], [-0.5, 0.5]) + 1.0
    direct = polyserial_rho(z[:, 0], codes, 3)
    x, c = LatentColumn(z[:, 0], cont), LatentColumn(codes, ord3)
    assert pairwise_latent_rho(x, c) == direct
    # symmetric when the ordinal comes first
    assert pairwise_latent_rho(c, x) == direct


def test_continuous_pair_uses_normal_scores():
    z = _latent_pair(0.8, 2000, 9)
    cont = VariableSpec("a", "continuous")
    r = pairwise_latent_rho(LatentColumn(z[:, 0], cont), LatentColumn(z[:, 1], cont))
    assert abs(r - 0.8) < 0.05


def test_polyserial_degenerate_inputs():
    with pytest.raises(DegenerateMargin):
        polyserial_rho(np.full(60, 1.0), np.tile([1.0, 2.0], 30), 2)
    with pytest.raises(TooFewObservations):
        polyserial_rho(np.arange(5.0), np.array([1, 2, 1, 2, 1.0]), 2)


def test_make_positive_definite():
    # a correlation matrix with a negative eigenvalue
    m = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    assert np.linalg.eigvalsh(m).min() < 0
    fixed = make_positive_definite(m)
    assert np.linalg.eigvalsh(fixed).min() > 0
    assert_allclose(np.diag(fixed), 1.0, atol=1e-12)
    assert_allclose(fixed, fixed.T, atol=1e-15)
    # already-PD input is returned unchanged
    good = np.array([[1.0, 0.3], [0.3, 1.0]])
    assert make_positive_definite(good) is good


def test_latent_matrix_shape_and_diagonal():
    rng = np.random.default_rng(1)
    z = rng.multivariate_normal(
        np.zeros(3), [[1, 0.6, 0.3], [0.6, 1, 0.5], [0.3, 0.5, 1]], size=600
    )
    schema = Schema(
        variables=(
            VariableSpec("a", "continuous"),
            VariableSpec("b", "ordinal", 3),
            VariableSpec("c", "continuous"),
        )
    )
    x = z.copy()
    x[:, 1] = np.digitize(z[:, 1], [-0.5, 0.5]) + 1.0
    ds = Dataset(schema, x)
    m = latent_correlation_matrix(ds)
    assert m.shape == (3, 3)
    assert_allclose(np.diag(m), 1.0, atol=1e-12)
    assert np.linalg.eigvalsh(m).min() > 0
    assert abs(m[0, 1] - 0.6) < 0.1 and abs(m[0, 2] - 0.3) < 0.1


def _recursive_partial_correlation(m, a, b, conditioning):
    """Reference: the elimination identity applied recursively, the last
    conditioning variable first."""
    if not conditioning:
        return m[a, b]
    *rest, k = sorted(conditioning)
    r_ab = _recursive_partial_correlation(m, a, b, rest)
    r_ak = _recursive_partial_correlation(m, a, k, rest)
    r_bk = _recursive_partial_correlation(m, b, k, rest)
    return (r_ab - r_ak * r_bk) / np.sqrt((1.0 - r_ak**2) * (1.0 - r_bk**2))


def _schur_partial_correlation(m, a, b, conditioning):
    """Reference: the correlation of the Schur complement
    ``R_ab - R_aS R_SS^-1 R_Sb`` of the conditioning block."""
    s = sorted(conditioning)
    pair = [a, b]
    cond = m[np.ix_(pair, pair)] - m[np.ix_(pair, s)] @ np.linalg.solve(
        m[np.ix_(s, s)], m[np.ix_(s, pair)]
    )
    return cond[0, 1] / np.sqrt(cond[0, 0] * cond[1, 1])


def _random_correlation(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    s = a @ a.T + d * np.eye(d)
    sd = np.sqrt(np.diag(s))
    return s / np.outer(sd, sd)


class TestPartialCorrelation:
    def test_against_precision_matrix(self):
        # the precision-matrix form against two independent formulas, orders 0-4
        for seed in range(4):
            r = _random_correlation(6, seed)
            for order in range(5):
                cond = frozenset(range(2, 2 + order))
                got = partial_correlation(r, 0, 1, cond)
                assert_allclose(got, _schur_partial_correlation(r, 0, 1, cond), atol=1e-14)
                assert_allclose(got, _recursive_partial_correlation(r, 0, 1, cond), atol=1e-14)
                # the pair's order and the order of the set do not matter
                assert_allclose(partial_correlation(r, 1, 0, cond), got, atol=1e-15)

    def test_first_order_formula(self):
        r = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]])
        expected = (0.5 - 0.3 * 0.4) / np.sqrt((1 - 0.09) * (1 - 0.16))
        assert_allclose(partial_correlation(r, 0, 1, frozenset({2})), expected, atol=1e-14)

    def test_empty_conditioning_is_plain_entry(self):
        r = np.array([[1.0, -0.25], [-0.25, 1.0]])
        assert partial_correlation(r, 0, 1, frozenset()) == -0.25

    def test_near_singular_raises(self):
        r = np.array([[1.0, 1.0 - 1e-14, 0.2], [1.0 - 1e-14, 1.0, 0.2], [0.2, 0.2, 1.0]])
        with pytest.raises(NearSingular):
            partial_correlation(r, 0, 2, frozenset({1}))

    @pytest.mark.parametrize("d", [3, 6])
    def test_singular_sub_matrix_raises(self, d):
        # equicorrelation -1/(d-1) has a zero eigenvalue (-2.5e-16 in floating
        # point at d = 6), which the recursion never checked
        r = np.full((d, d), -1.0 / (d - 1))
        np.fill_diagonal(r, 1.0)
        with pytest.raises(NearSingular):
            partial_correlation(r, 0, 1, frozenset(range(2, d)))
        # one variable fewer is regular: rho / (1 + (d - 3) rho) = -1/2
        assert_allclose(partial_correlation(r, 0, 1, frozenset(range(2, d - 1))), -0.5, atol=1e-12)

    def test_repaired_matrices_never_raise(self):
        # eigenvalues clipped at EIG_FLOOR bound every principal sub-matrix's
        u = np.random.default_rng(3).uniform(-0.9, 0.9, (7, 7))
        r = np.triu(u, 1) + np.triu(u, 1).T + np.eye(7)
        assert np.linalg.eigvalsh(r)[0] < 0.0
        r = make_positive_definite(r)
        for a in range(7):
            for b in range(a + 1, 7):
                rest = frozenset(range(7)) - {a, b}
                assert abs(partial_correlation(r, a, b, rest)) < 1.0


def _mixed_dataset(n, seed):
    """Two continuous and three ordinal columns (3, 5 and 2 levels) of a
    latent Gaussian with correlations 0.5 ** |i - j|."""
    idx = np.arange(5)
    z = np.random.default_rng(seed).multivariate_normal(
        np.zeros(5), 0.5 ** np.abs(idx[:, None] - idx), size=n
    )
    x = z.copy()
    for j, cuts in ((1, [-0.5, 0.5]), (3, [-1.0, -0.2, 0.4, 1.1]), (4, [0.3])):
        x[:, j] = np.digitize(z[:, j], cuts) + 1.0
    specs = [
        VariableSpec("c1", "continuous"),
        VariableSpec("o1", "ordinal", 3),
        VariableSpec("c2", "continuous"),
        VariableSpec("o2", "ordinal", 5),
        VariableSpec("o3", "ordinal", 2),
    ]
    return Dataset(Schema(tuple(specs)), x)


def test_latent_matrix_equals_its_pairwise_estimates():
    ds = _mixed_dataset(400, 3)
    specs = ds.schema.variables
    want = np.eye(ds.d)
    for i in range(ds.d):
        for j in range(i + 1, ds.d):
            want[i, j] = want[j, i] = pairwise_latent_rho(
                LatentColumn(ds.x[:, i], specs[i]), LatentColumn(ds.x[:, j], specs[j])
            )
    np.testing.assert_array_equal(latent_correlation_matrix(ds), make_positive_definite(want))


def test_pairwise_estimate_is_the_public_estimator_of_its_kinds():
    ds = _mixed_dataset(300, 8)
    specs = ds.schema.variables
    cols = [LatentColumn(ds.x[:, j], spec) for j, spec in enumerate(specs)]
    assert [c.is_ordinal for c in cols] == [s.is_ordinal for s in specs]
    for i, j in itertools.permutations(range(ds.d), 2):
        (xi, si), (xj, sj) = (ds.x[:, i], specs[i]), (ds.x[:, j], specs[j])
        if si.is_ordinal and sj.is_ordinal:
            want = polychoric_rho(xi, si.levels, xj, sj.levels)
        elif si.is_ordinal:
            want = polyserial_rho(xj, xi, si.levels)
        elif sj.is_ordinal:
            want = polyserial_rho(xi, xj, sj.levels)
        else:
            want = normal_scores_pearson(xi, xj)
        assert pairwise_latent_rho(cols[i], cols[j]) == want


def test_latent_matrix_transforms_each_column_once(monkeypatch):
    from vinerisk import latent as latent_module

    calls = {"scores": 0, "pairs": 0}
    scores, pairwise = latent_module.normal_scores, latent_module.pairwise_latent_rho

    def counted_scores(x):
        calls["scores"] += 1
        return scores(x)

    def counted_pairwise(*args):
        calls["pairs"] += 1
        return pairwise(*args)

    monkeypatch.setattr(latent_module, "normal_scores", counted_scores)
    monkeypatch.setattr(latent_module, "pairwise_latent_rho", counted_pairwise)
    latent_correlation_matrix(_mixed_dataset(200, 4))
    # 2 continuous columns, 10 pairs
    assert calls == {"scores": 2, "pairs": 10}


@pytest.mark.parametrize("column", [0, 2])
def test_latent_matrix_rejects_a_constant_continuous_column(column):
    ds = _mixed_dataset(100, 5)
    x = ds.x.copy()
    x[:, column] = 1.5
    with pytest.raises(DegenerateMargin):
        latent_correlation_matrix(Dataset(ds.schema, x))


def test_latent_matrix_needs_enough_rows():
    ds = _mixed_dataset(9, 6)
    with pytest.raises(TooFewObservations):
        latent_correlation_matrix(ds)
