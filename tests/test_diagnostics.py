import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vinerisk import diagnostics
from vinerisk.bicop import Bicop
from vinerisk.diagnostics import (
    MIN_CATEGORY_ROWS,
    bootstrap_bands,
    conditional_spearman,
    latent_normal_scores,
    model_conditional_spearman,
)
from vinerisk.errors import OrdinalOutOfRange
from vinerisk.latent import normal_scores, ordinal_thresholds, polyserial_rho
from vinerisk.margins import KernelMargin
from vinerisk.vine import Edge, FittedEdge, VineModel, VineStructure


def _cond_pair(n, rho, seed, cuts=(-0.5, 0.5)):
    rng = np.random.default_rng(seed)
    z = rng.multivariate_normal([0, 0, 0], np.eye(3), size=n)
    x = z[:, 0]
    y = rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1]
    cats = (np.digitize(z[:, 2], cuts) + 1).astype(float)
    return x, y, cats


class TestConditionalSpearman:
    def test_perfect_concordance(self):
        x = np.arange(30.0)
        y = x**3  # any increasing transform
        z = np.repeat([1.0, 2.0, 3.0], 10)
        out = conditional_spearman(x, y, z)
        assert sorted(out) == [1, 2, 3]
        assert_allclose([out[1], out[2], out[3]], 1.0, rtol=1e-14)

    def test_hand_computed_rank_correlation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 3.0, 2.0, 4.0])
        z = np.ones(4)
        assert_allclose(conditional_spearman(x, y, z)[1], 0.8, rtol=1e-14)

    def test_small_categories_are_omitted(self):
        x = np.arange(10.0)
        y = np.arange(10.0)
        z = np.array([1.0] * 8 + [2.0] * 2)
        out = conditional_spearman(x, y, z)
        assert 2 not in out and 1 in out
        assert MIN_CATEGORY_ROWS == 3

    def test_sign_flip(self):
        x = np.arange(12.0)
        z = np.repeat([1.0, 2.0], 6)
        out = conditional_spearman(x, -x, z)
        assert out == {1: -1.0, 2: -1.0}


def _loop_bands(x, y, z, replicates, level, seed):
    """Reference: resample rows and rerun ``conditional_spearman`` per replicate."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    n = x.size
    observed = conditional_spearman(x, y, z)
    cats = sorted(observed)
    rng = np.random.default_rng(seed)
    draws = {cat: [] for cat in cats}
    for _ in range(replicates):
        idx = rng.integers(0, n, size=n)
        rep = conditional_spearman(x[idx], y[idx], z[idx])
        for cat in cats:
            if cat in rep:
                draws[cat].append(rep[cat])
    tail = (1.0 - level) / 2.0
    lower, upper = {}, {}
    for cat in cats:
        vals = np.asarray(draws[cat], dtype=float)
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            lower[cat] = upper[cat] = observed[cat]
            continue
        lower[cat] = float(np.quantile(vals, tail))
        upper[cat] = float(np.quantile(vals, 1.0 - tail))
    return cats, lower, upper


def _rounded():
    """Rounded normals: each category holds only a handful of distinct values."""
    x, y, z = _cond_pair(300, 0.6, seed=2)
    return np.round(x), np.round(y), z


def _sparse_tied():
    """60 rows of few distinct values; categories 3 and 4 hold 6 and 3 rows."""
    rng = np.random.default_rng(17)
    x = np.round(rng.normal(size=60))
    y = np.round(rng.normal(size=60))
    z = np.repeat([1.0, 2.0, 3.0, 4.0], [39, 12, 6, 3])
    x[-3:] = [0.0, 0.0, 1.0]
    y[-3:] = [1.0, 0.0, 0.0]
    return x, y, z


def _per_replicate_counts(rng, n, k):
    """Reference for ``_resample_counts``: one draw and one bincount per replicate."""
    return np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n) for _ in range(k)])


class TestBootstrapEquivalence:
    @pytest.mark.parametrize(
        "data",
        [
            _cond_pair(450, 0.5, seed=1),
            _rounded(),
            _sparse_tied(),
        ],
        ids=["continuous", "tied", "sparse"],
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_per_replicate_loop(self, data, seed):
        x, y, z = data
        cats, lower, upper = _loop_bands(x, y, z, 400, 0.9, seed)
        res = bootstrap_bands(x, y, z, replicates=400, level=0.9, seed=seed)
        assert res.categories == cats
        for cat in cats:
            assert abs(res.lower[cat] - lower[cat]) <= 1e-12
            assert abs(res.upper[cat] - upper[cat]) <= 1e-12

    @pytest.mark.parametrize("n", [5, 81, 699, 700])
    def test_one_draw_per_block_keeps_the_per_replicate_stream(self, n):
        # numpy does not promise that a (k, n) draw fills in the order of k
        # draws of size n; the bands' seed stream relies on it
        block, loop = np.random.default_rng(n), np.random.default_rng(n)
        counts = diagnostics._resample_counts(block, n, 37)
        assert_array_equal(counts, _per_replicate_counts(loop, n, 37))
        assert block.bit_generator.state == loop.bit_generator.state

    @pytest.mark.parametrize("n", [5, 81, 699, 700])
    def test_bands_equal_the_per_replicate_draws(self, n, monkeypatch):
        x, y, _ = _cond_pair(n, 0.5, seed=n)
        z = 1.0 + np.arange(n) % 2
        monkeypatch.setattr(diagnostics, "BLOCK_CELLS", 7 * n)
        block = bootstrap_bands(x, y, z, replicates=150, seed=4)
        monkeypatch.setattr(diagnostics, "_resample_counts", _per_replicate_counts)
        assert block == bootstrap_bands(x, y, z, replicates=150, seed=4)

    def test_blocks_of_replicates_give_the_same_band(self, monkeypatch):
        x, y, z = _rounded()
        whole = bootstrap_bands(x, y, z, replicates=250, seed=3)
        monkeypatch.setattr(diagnostics, "BLOCK_CELLS", 7 * x.size)
        blocked = bootstrap_bands(x, y, z, replicates=250, seed=3)
        assert blocked.lower == whole.lower and blocked.upper == whole.upper

    def test_sparse_data_exercises_both_skip_rules(self):
        x, y, z = _sparse_tied()
        rng = np.random.default_rng(0)
        short = constant = 0
        for _ in range(400):
            idx = rng.integers(0, z.size, size=z.size)
            xs, ys = x[idx][z[idx] == 4.0], y[idx][z[idx] == 4.0]
            if xs.size < MIN_CATEGORY_ROWS:
                short += 1
            elif np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
                constant += 1
        assert short > 0 and constant > 0

    def test_band_collapses_to_observed_without_usable_replicates(self, monkeypatch):
        class SameRow:
            """Draws row 0 every time, so each replicate is constant or empty."""

            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

        x, y, z = _cond_pair(90, 0.5, seed=4)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: SameRow())
        res = bootstrap_bands(x, y, z, replicates=100, seed=0)
        cats, lower, upper = _loop_bands(x, y, z, 100, 0.9, 0)
        assert res.categories == cats == [1, 2, 3]
        assert res.lower == res.upper == res.observed == lower == upper


#: ``float.hex`` of (lower, upper) per category for ``_golden_data()`` at
#: seed 6, as computed in blocks of ``1 << 21`` cells (all 1000 replicates
#: in one block; 3000 as 2995 and 5).
GOLDEN_BANDS = {
    1000: {
        1: ("0x1.4a94b75e8a25dp-2", "0x1.10e52d86c71d3p-1"),
        2: ("0x1.953ec93b0c226p-2", "0x1.1cc1438c5b0b4p-1"),
        3: ("0x1.7b2176bada1fcp-2", "0x1.16f08800bb80cp-1"),
    },
    3000: {
        1: ("0x1.4d3f9b4e43e52p-2", "0x1.0ff727a1e6726p-1"),
        2: ("0x1.9426089b302b5p-2", "0x1.1cb4aca0f8766p-1"),
        3: ("0x1.7d4a1e6838cd4p-2", "0x1.17e38591d93eep-1"),
    },
}


def _golden_data():
    return _cond_pair(700, 0.5, seed=11)


def _traced_peak(fn):
    """Peak bytes traced by ``tracemalloc`` (numpy reports its buffers) while
    ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedBands:
    @pytest.mark.parametrize("replicates", [1000, 3000])
    def test_bands_keep_their_golden_bits(self, replicates):
        x, y, z = _golden_data()
        res = bootstrap_bands(x, y, z, replicates=replicates, seed=6)
        bits = {cat: (res.lower[cat].hex(), res.upper[cat].hex()) for cat in res.categories}
        assert bits == GOLDEN_BANDS[replicates]

    def test_one_replicate_per_block_equals_the_default(self, monkeypatch):
        x, y, z = _golden_data()
        default = bootstrap_bands(x, y, z, replicates=1000, seed=6)
        monkeypatch.setattr(diagnostics, "BLOCK_CELLS", x.size - 1)
        assert bootstrap_bands(x, y, z, replicates=1000, seed=6) == default

    def test_working_memory_does_not_grow_with_replicates(self):
        x, y, z = _golden_data()
        bootstrap_bands(x, y, z, replicates=100, seed=6)
        peaks = {
            k: _traced_peak(lambda: bootstrap_bands(x, y, z, replicates=k, seed=6))
            for k in (1000, 3000)
        }
        assert peaks[1000] < 4e6
        assert peaks[3000] <= 1.1 * peaks[1000]


def _float_resample_spearman(x, y, counts):
    """Reference: rho of each usable resample from midranks and deviations in
    float halves."""
    counts = counts.astype(float)

    def midranks(values):
        _, group, sizes = np.unique(values, return_inverse=True, return_counts=True)
        order = np.argsort(group, kind="stable")
        upto = np.cumsum(counts[:, order], axis=1)[:, np.cumsum(sizes) - 1]
        below = np.zeros_like(upto)
        below[:, 1:] = upto[:, :-1]
        return ((below + upto + 1.0) / 2.0)[:, group]

    draws = counts.sum(axis=1)
    mean = (draws[:, None] + 1.0) / 2.0
    dx, dy = midranks(x) - mean, midranks(y) - mean
    sxx = (counts * dx * dx).sum(axis=1)
    syy = (counts * dy * dy).sum(axis=1)
    sxy = (counts * dx * dy).sum(axis=1)
    ok = (draws >= MIN_CATEGORY_ROWS) & (sxx > 0.0) & (syy > 0.0)
    return np.clip(sxy[ok] / np.sqrt(sxx[ok] * syy[ok]), -1.0, 1.0)


class TestIntegerRanks:
    @pytest.mark.parametrize("data", [_cond_pair(300, 0.5, seed=1), _rounded(), _sparse_tied()])
    def test_resample_rho_equals_the_float_formula(self, data):
        x, y, z = data
        counts = diagnostics._resample_counts(np.random.default_rng(8), x.size, 300)
        assert counts.dtype == np.int32
        for cat in np.unique(z):
            r = z == cat
            want = _float_resample_spearman(x[r], y[r], counts[:, r])
            ties = diagnostics._ties(x[r]), diagnostics._ties(y[r])
            assert_array_equal(diagnostics._resample_spearman(*ties, counts[:, r]), want)

    @pytest.mark.parametrize("n", [diagnostics.INT32_ROWS, diagnostics.INT32_ROWS + 1])
    def test_counts_at_the_int32_bound(self, n):
        dtype = np.int32 if n <= diagnostics.INT32_ROWS else np.int64
        assert diagnostics._resample_counts(np.random.default_rng(0), n, 1).dtype == dtype
        # n draws spread over four rows, as a category of an n-row input
        # could hold them, with the largest count x deviation products
        h = n // 2
        counts = np.array(
            [[h, 0, 0, n - h], [0, h, n - h, 0], [1, n - 2, 0, 1], [h - 1, 1, 1, n - h - 1]],
            dtype=dtype,
        )
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 3.0, 0.0, 2.0])
        got = diagnostics._resample_spearman(diagnostics._ties(x), diagnostics._ties(y), counts)
        assert got.size == 4
        assert_array_equal(got, _float_resample_spearman(x, y, counts))


class TestBootstrapBands:
    def test_deterministic_under_seed(self):
        x, y, z = _cond_pair(150, 0.5, seed=1)
        a = bootstrap_bands(x, y, z, replicates=200, seed=7)
        b = bootstrap_bands(x, y, z, replicates=200, seed=7)
        assert a.observed == b.observed
        assert a.lower == b.lower and a.upper == b.upper

    def test_seed_changes_band(self):
        x, y, z = _cond_pair(150, 0.5, seed=1)
        a = bootstrap_bands(x, y, z, replicates=200, seed=7)
        b = bootstrap_bands(x, y, z, replicates=200, seed=8)
        assert a.lower != b.lower

    def test_band_surrounds_observed(self):
        x, y, z = _cond_pair(400, 0.5, seed=3)
        res = bootstrap_bands(x, y, z, replicates=300, seed=0)
        assert res.categories == [1, 2, 3]
        for cat in res.categories:
            assert res.lower[cat] < res.observed[cat] < res.upper[cat]

    def test_wider_level_widens_band(self):
        x, y, z = _cond_pair(200, 0.4, seed=5)
        narrow = bootstrap_bands(x, y, z, replicates=300, level=0.50, seed=2)
        wide = bootstrap_bands(x, y, z, replicates=300, level=0.95, seed=2)
        for cat in narrow.categories:
            assert wide.upper[cat] - wide.lower[cat] > narrow.upper[cat] - narrow.lower[cat]

    def test_rows_structure(self):
        x, y, z = _cond_pair(120, 0.3, seed=9)
        res = bootstrap_bands(x, y, z, replicates=150, seed=1)
        rows = res.rows()
        assert [r["category"] for r in rows] == res.categories
        assert all(r["modeled"] is None for r in rows)

    def test_validation(self):
        x, y, z = _cond_pair(50, 0.2, seed=0)
        with pytest.raises(ValueError):
            bootstrap_bands(x, y, z, replicates=50)
        with pytest.raises(ValueError):
            bootstrap_bands(x, y, z, level=1.0)

    @pytest.mark.parametrize("replicates", [1000.0, 150.5])
    def test_rejects_non_integer_replicates(self, replicates):
        x, y, z = _cond_pair(50, 0.2, seed=0)
        with pytest.raises(ValueError, match="replicates"):
            bootstrap_bands(x, y, z, replicates=replicates)

    def test_accepts_a_numpy_integer_replicate_count(self):
        x, y, z = _cond_pair(120, 0.3, seed=9)
        res = bootstrap_bands(x, y, z, replicates=np.int64(200), seed=1)
        assert res == bootstrap_bands(x, y, z, replicates=200, seed=1)

    @pytest.mark.parametrize("fn", [conditional_spearman, bootstrap_bands])
    def test_rejects_columns_of_unequal_length(self, fn):
        x, y, z = _cond_pair(50, 0.2, seed=0)
        with pytest.raises(ValueError, match="differ in length"):
            fn(x, y, z[:-1])
        with pytest.raises(ValueError, match="differ in length"):
            fn(x[:-1], y, z)

    @pytest.mark.parametrize("fn", [conditional_spearman, bootstrap_bands])
    def test_rejects_columns_that_are_not_1d(self, fn):
        x, y, z = _cond_pair(50, 0.2, seed=0)
        with pytest.raises(ValueError, match="1-D"):
            fn(x.reshape(10, 5), y, z)
        with pytest.raises(ValueError, match="1-D"):
            fn(x, y, z[:, None])

    @pytest.mark.parametrize("fn", [conditional_spearman, bootstrap_bands])
    def test_rejects_non_finite_values(self, fn):
        x, y, z = _cond_pair(50, 0.2, seed=0)
        x[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fn(x, y, z)

    @pytest.mark.parametrize("fn", [conditional_spearman, bootstrap_bands])
    def test_rejects_non_integer_categories(self, fn):
        x, y, z = _cond_pair(50, 0.2, seed=0)
        z[z == 2.0] = 1.5
        with pytest.raises(OrdinalOutOfRange):
            fn(x, y, z)

    @pytest.mark.parametrize("fn", [conditional_spearman, bootstrap_bands])
    @pytest.mark.parametrize("bad", [0.0, -3.0, 1.5, np.nan])
    def test_categories_follow_the_ordinal_rule(self, fn, bad):
        x, y, z = _cond_pair(50, 0.2, seed=0)
        z[z == 2.0] = bad
        with pytest.raises(OrdinalOutOfRange):
            fn(x, y, z)


def _toy_vine():
    structure = VineStructure(
        d=3,
        trees=[
            [Edge((0, 1)), Edge((1, 2))],
            [Edge((0, 2), {1})],
        ],
    )
    trees = [
        [
            FittedEdge(Edge((0, 1)), Bicop("gaussian", 0, (0.5,)), 0.0, 0.0),
            FittedEdge(Edge((1, 2)), Bicop("frank", 0, (4.0,)), 0.0, 0.0),
        ]
    ]
    margins = [KernelMargin(centers=[0.0], bandwidth=1.0) for _ in range(3)]
    return VineModel(
        margins=margins, structure=structure, trees=trees, truncation=1, nobs=50, psi0=0.9
    )


class TestModelConditionalSpearman:
    def test_constant_across_categories(self):
        model = _toy_vine()
        out = model_conditional_spearman(model, (0, 1), [1, 2, 3], n_samples=40_000)
        assert set(out) == {1, 2, 3}
        assert out[1] == out[2] == out[3]
        assert abs(out[1] - 6.0 / math.pi * math.asin(0.25)) < 0.01

    def test_pair_order_does_not_matter(self):
        model = _toy_vine()
        a = model_conditional_spearman(model, (1, 0), [1], n_samples=10_000)
        b = model_conditional_spearman(model, (0, 1), [1], n_samples=10_000)
        assert a == b

    def test_missing_edge_raises(self):
        model = _toy_vine()
        with pytest.raises(KeyError):
            model_conditional_spearman(model, (0, 2), [1], n_samples=1_000)


class TestLatentNormalScores:
    def setup_method(self):
        rng = np.random.default_rng(12)
        rho = 0.6
        z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=1500)
        self.x = z[:, 0]
        self.codes = (np.digitize(z[:, 1], [-0.7, 0.4]) + 1).astype(float)

    def test_continuous_side_is_normal_scores(self):
        zx, _ = latent_normal_scores(self.x, self.codes, 3, seed=0)
        assert_array_equal(zx, normal_scores(self.x))

    def test_latent_side_respects_threshold_intervals(self):
        _, zk = latent_normal_scores(self.x, self.codes, 3, seed=0)
        th = ordinal_thresholds(self.codes, 3)
        lo = th[(self.codes - 1).astype(int)]
        hi = th[self.codes.astype(int)]
        assert np.all(zk > lo) and np.all(zk < hi)

    def test_correlation_is_preserved(self):
        zx, zk = latent_normal_scores(self.x, self.codes, 3, seed=0)
        rho_hat = polyserial_rho(self.x, self.codes, 3)
        assert abs(np.corrcoef(zx, zk)[0, 1] - rho_hat) < 0.05

    def test_seeded_determinism(self):
        _, a = latent_normal_scores(self.x, self.codes, 3, seed=4)
        _, b = latent_normal_scores(self.x, self.codes, 3, seed=4)
        _, c = latent_normal_scores(self.x, self.codes, 3, seed=5)
        assert_array_equal(a, b)
        assert not np.array_equal(a, c)
