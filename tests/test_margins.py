import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ndtr

from vinerisk.data import VariableSpec
from vinerisk.errors import DegenerateMargin, OrdinalOutOfRange, TooFewObservations
from vinerisk.margins import (
    BLOCK_CELLS,
    EPS,
    GRID_MAX_NODES,
    GRID_REACH,
    GRID_STEP,
    EmpiricalMargin,
    KernelMargin,
    OrdinalMargin,
    _clip,
    _gauss,
    fit_margin,
    margin_from_dict,
)


@pytest.fixture(scope="module")
def sample():
    return np.random.default_rng(11).normal(2.0, 1.5, size=400)


class TestKernelMargin:
    def test_silverman_bandwidth(self):
        # 0.9 * min(sd, IQR/1.349) * n^(-1/5), by hand on a fixed sample
        x = np.arange(1.0, 11.0)
        m = KernelMargin.fit(x)
        sd = np.std(x, ddof=1)
        iqr = np.subtract(*np.percentile(x, [75, 25]))
        expected = 0.9 * min(sd, iqr / 1.349) * 10 ** (-0.2)
        assert_allclose(m.bandwidth, expected, rtol=1e-12)

    def test_pdf_integrates_to_one(self, sample):
        m = KernelMargin.fit(sample)
        total, _ = quad(m.pdf, sample.min() - 8, sample.max() + 8, limit=200)
        assert_allclose(total, 1.0, atol=1e-8)

    def test_cdf_matches_pdf_derivative(self, sample):
        m = KernelMargin.fit(sample)
        for x in (-1.0, 1.7, 2.0, 4.2):
            fd = (m.cdf(x + 5e-6) - m.cdf(x - 5e-6)) / 1e-5
            assert_allclose(fd, m.pdf(x), rtol=1e-6, atol=1e-9)

    def test_degenerate_and_tiny_inputs(self):
        with pytest.raises(DegenerateMargin):
            KernelMargin.fit(np.full(50, 3.0))
        with pytest.raises(TooFewObservations):
            KernelMargin.fit(np.array([1.0]))
        with pytest.raises(DegenerateMargin):
            margin_from_dict({"kind": "kernel", "centers": [], "bandwidth": 1.0})

    def test_direct_construction_is_exact_normal(self):
        # a single center with unit bandwidth is the standard normal: the
        # exact kernel means to 1e-12, the public methods within the grid's bound
        from scipy.stats import norm

        m = KernelMargin(centers=[0.0], bandwidth=1.0)
        x = np.linspace(-3, 3, 13)
        assert_allclose(m._kernel_mean(x, _gauss) / np.sqrt(2.0 * np.pi), norm.pdf(x), rtol=1e-12)
        assert_allclose(m._kernel_mean(x, ndtr), norm.cdf(x), rtol=1e-12)
        # log f of one kernel is quadratic, so its cubic Hermite is exact
        assert_allclose(m.pdf(x), norm.pdf(x), rtol=1e-12)
        assert_allclose(m.cdf(x), np.clip(norm.cdf(x), EPS, 1 - EPS), rtol=0, atol=CDF_BOUND)

    @pytest.mark.parametrize("shape", [(), (1,), (1500,), (37, 41), (0,)])
    def test_blocked_evaluation_is_the_one_shot_formula_to_the_bit(self, sample, shape):
        m = KernelMargin.fit(sample)
        # 1500 rows of 400 centres span 19 blocks of 81 rows, the last one partial
        assert 1500 % (BLOCK_CELLS // m.centers.size) != 0
        x = np.random.default_rng(5).normal(2.0, 3.0, size=shape)
        z = (x[..., None] - m.centers) / m.bandwidth
        for kernel in (_gauss, ndtr):
            got, want = m._kernel_mean(x, kernel), kernel(z).mean(axis=-1)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


#: Bound on the grid CDF's error for any kernel margin. With node spacing
#: d <= h/10 and F'''' = f''' at most max|phi'''| = 1.3806 per h^4 (one
#: kernel's, which bounds their mean), cubic Hermite interpolation adds at most
#: d^4 max|f'''| / 384 and the node-to-node integration d^4 max|f'''| / 720.
CDF_BOUND = 0.1**4 * 1.3806 * (1 / 384 + 1 / 720)


def _exact(m, x):
    """The margin's clamped CDF and its density as exact kernel means."""
    pdf = m._kernel_mean(x, _gauss) / (m.bandwidth * np.sqrt(2.0 * np.pi))
    return _clip(m._kernel_mean(x, ndtr)), pdf


class TestKernelGrid:
    """The grid evaluation of kernel margins against the exact kernel means."""

    def test_grid_spans_the_centres_at_a_tenth_of_a_bandwidth(self, sample):
        m = KernelMargin.fit(sample)
        h = m.bandwidth
        assert m._lo == sample.min() - GRID_REACH * h
        assert 0 < m._step <= GRID_STEP * h
        assert_allclose(m._lo + m._step * (m._f.size - 1), sample.max() + GRID_REACH * h)

    def test_body_tails_and_off_grid_against_exact(self, sample):
        m = KernelMargin.fit(sample)
        h = m.bandwidth
        body = np.linspace(sample.min(), sample.max(), 4001)
        left = np.linspace(sample.min() - 8.4 * h, sample.min(), 500)
        right = np.linspace(sample.max(), sample.max() + 8.4 * h, 500)
        for x in (body, left, right):
            cdf, pdf = _exact(m, x)
            assert np.max(np.abs(m.cdf(x) - cdf)) <= 1e-7
            assert np.max(np.abs(m.pdf(x) - pdf)) <= 1e-7
            dense = pdf > 1e-6
            assert np.max(np.abs(np.log(m.pdf(x)[dense] / pdf[dense]))) <= 5e-5
        # off the grid every value is the exact kernel mean, to the bit
        off = np.array([sample.min() - 9 * h, sample.max() + 8.6 * h, sample.max() + 30 * h, np.nan])
        cdf, pdf = _exact(m, off)
        assert m.cdf(off).tobytes() == cdf.tobytes()
        assert m.pdf(off).tobytes() == pdf.tobytes()

    def test_cdf_is_monotone_on_a_dense_sweep(self, sample):
        m = KernelMargin.fit(sample)
        h = m.bandwidth
        x = np.linspace(sample.min() - 10 * h, sample.max() + 10 * h, 200_001)
        assert np.all(np.diff(m.cdf(x)) >= 0)

    def test_clusters_100_bandwidths_apart_give_no_nan(self):
        # the kernel mean underflows to 0 at the nodes midway between them
        m = KernelMargin(np.r_[np.zeros(5), np.full(5, 100.0)], 1.0)
        assert 0 < m._f.size <= GRID_MAX_NODES and np.any(m._f == 0.0)
        x = np.linspace(-10.0, 110.0, 24_001)
        cdf, pdf = _exact(m, x)
        got_cdf, got_pdf = m.cdf(x), m.pdf(x)
        assert np.all(np.isfinite(got_cdf)) and np.all(np.isfinite(got_pdf))
        assert np.all(np.diff(got_cdf) >= 0)
        assert np.max(np.abs(got_cdf - cdf)) <= CDF_BOUND
        assert np.max(np.abs(got_pdf - pdf)) <= 1e-12

    def test_over_cap_margin_is_the_exact_mean_to_the_bit(self):
        m = KernelMargin([0.0, 0.3, 500.0], 1.0)
        assert m._f.size == 0
        x = np.linspace(-20.0, 520.0, 1001)
        cdf, pdf = _exact(m, x)
        assert m.cdf(x).tobytes() == cdf.tobytes()
        assert m.pdf(x).tobytes() == pdf.tobytes()

    @pytest.mark.parametrize("centers", [[0.0], [-0.4, 1.1]])
    @pytest.mark.parametrize(
        "x", [0.3, np.float64(0.3), np.array(0.3), np.array([[0.3, -2.0], [5.0, 1.0]])]
    )
    def test_shapes_and_types_follow_the_input(self, centers, x):
        m = KernelMargin(centers, 0.7)
        cdf, pdf = _exact(m, x)
        for got, want in ((m.cdf(x), cdf), (m.pdf(x), pdf)):
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert_allclose(got, want, rtol=1e-6, atol=CDF_BOUND)

    def test_reload_scores_to_the_bit(self, sample):
        m = KernelMargin.fit(sample)
        back = margin_from_dict(m.to_dict())
        x = np.random.default_rng(7).normal(2.0, 4.0, size=2000)
        assert back.cdf(x).tobytes() == m.cdf(x).tobytes()
        assert back.pdf(x).tobytes() == m.pdf(x).tobytes()


@pytest.mark.parametrize(
    "maker",
    [
        lambda: KernelMargin([0.0], np.nan),
        lambda: KernelMargin([0.0], np.inf),
        lambda: KernelMargin([0.0], 0.0),
        lambda: KernelMargin([0.0, np.nan], 1.0),
        lambda: KernelMargin([0.0, -np.inf], 1.0),
        lambda: margin_from_dict({"kind": "kernel", "centers": [0.0, 1.0], "bandwidth": np.nan}),
        lambda: EmpiricalMargin([0.0, np.nan, 2.0], [0.25, 0.5, 0.75]),
        lambda: EmpiricalMargin([0.0, 2.0, 1.0], [0.25, 0.5, 0.75]),
        lambda: EmpiricalMargin([0.0, 1.0, 1.0], [0.25, 0.5, 0.75]),
        lambda: EmpiricalMargin([0.0, 1.0, np.inf], [0.25, 0.5, 0.75]),
        lambda: EmpiricalMargin([0.0, 1.0, 2.0], [0.25, 0.5]),
        lambda: EmpiricalMargin([0.0, 1.0, 2.0], [0.25, np.nan, 0.75]),
        lambda: EmpiricalMargin([0.0, 1.0, 2.0], [0.5, 0.25, 0.75]),
        lambda: EmpiricalMargin([0.0, 1.0, 2.0], [0.25, 0.5, 1.5]),
        lambda: OrdinalMargin([np.nan, 0.5, 0.5]),
        lambda: OrdinalMargin([0.5, 0.5, np.inf]),
        lambda: OrdinalMargin([0.2, 0.2, 0.2]),
    ],
)
def test_non_finite_or_inconsistent_parameters_are_rejected(maker):
    with pytest.raises(DegenerateMargin):
        maker()


class TestEmpiricalMargin:
    def test_knot_probabilities(self):
        # rank/(n+1) at each sorted unique value, ties sharing the top rank
        m = EmpiricalMargin.fit(np.array([5.0, 1.0, 5.0, 2.0]))
        assert_allclose(m.knots_x, [1.0, 2.0, 5.0])
        assert_allclose(m.knots_p, [1 / 5, 2 / 5, 4 / 5])

    def test_pdf_zero_outside_range(self, sample):
        m = EmpiricalMargin.fit(sample)
        assert m.pdf(sample.min() - 1.0) == 0.0
        assert m.pdf(sample.max() + 1.0) == 0.0
        assert m.pdf(float(np.median(sample))) > 0.0


class TestOrdinalMargin:
    def test_smoothed_probabilities(self):
        # (count + 1/2) / (n + L/2) keeps unseen levels strictly positive
        codes = np.array([1.0, 1.0, 2.0, 1.0])
        m = OrdinalMargin.fit(codes, levels=3)
        assert_allclose(m.probs, [3.5 / 5.5, 1.5 / 5.5, 0.5 / 5.5])
        assert_allclose(m.probs.sum(), 1.0, atol=1e-15)

    def test_cdf_pair_brackets_pmf(self):
        m = OrdinalMargin.fit(np.array([1.0, 2.0, 2.0, 3.0, 3.0, 3.0]), levels=3)
        for k in (1, 2, 3):
            up = m.cdf(float(k))
            lo = m.cdf_left(float(k))
            assert_allclose(up - lo, m.pdf(float(k)), atol=2 * EPS)
        assert m.cdf_left(1.0) == EPS
        assert m.cdf(3.0) == 1.0 - EPS

    def test_fit_rejects_non_integer_codes(self):
        # the codes cdf and pdf reject are rejected by fit too, not truncated
        with pytest.raises(OrdinalOutOfRange):
            OrdinalMargin.fit(np.array([1.5, 2.0, 3.0, 2.7]), levels=3)
        with pytest.raises(OrdinalOutOfRange):
            OrdinalMargin.fit(np.array([1.0, 2.0, 3.0]), levels=2)
        with pytest.raises(OrdinalOutOfRange):
            OrdinalMargin.fit(np.array([1.0, 2.0, 3.0]), levels=3).cdf(2.5)


def test_fit_margin_dispatch(sample):
    cont = VariableSpec("x", "continuous")
    ord3 = VariableSpec("k", "ordinal", levels=3)
    assert isinstance(fit_margin(sample, cont), KernelMargin)
    assert isinstance(fit_margin(sample, cont, method="empirical"), EmpiricalMargin)
    assert isinstance(fit_margin(np.array([1.0, 2.0, 3.0, 2.0]), ord3), OrdinalMargin)
    with pytest.raises(ValueError):
        fit_margin(sample, cont, method="spline")


@pytest.mark.parametrize("maker", [
    lambda s: KernelMargin.fit(s),
    lambda s: EmpiricalMargin.fit(s),
    lambda s: OrdinalMargin.fit(np.ceil(3 * (s - s.min()) / np.ptp(s) + 0.5).clip(1, 3), 3),
])
def test_serialization_round_trip(sample, maker):
    m = maker(sample)
    back = margin_from_dict(m.to_dict())
    x = np.linspace(sample.min(), sample.max(), 7)
    if m.is_discrete:
        x = np.array([1.0, 2.0, 3.0])
    assert_allclose(back.cdf(x), m.cdf(x), atol=1e-15)
    assert_allclose(back.pdf(x), m.pdf(x), atol=1e-15)
