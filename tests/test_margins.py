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
    EmpiricalMargin,
    KernelMargin,
    OrdinalMargin,
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
        # a single center with unit bandwidth is the standard normal
        from scipy.stats import norm

        m = KernelMargin(centers=[0.0], bandwidth=1.0)
        x = np.linspace(-3, 3, 13)
        assert_allclose(m.pdf(x), norm.pdf(x), rtol=1e-12)
        assert_allclose(m.cdf(x), np.clip(norm.cdf(x), EPS, 1 - EPS), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(), (1,), (1500,), (37, 41), (0,)])
    def test_blocked_evaluation_is_the_one_shot_formula_to_the_bit(self, sample, shape):
        m = KernelMargin.fit(sample)
        # 1500 rows of 400 centres span 19 blocks of 81 rows, the last one partial
        assert 1500 % (BLOCK_CELLS // m.centers.size) != 0
        x = np.random.default_rng(5).normal(2.0, 3.0, size=shape)
        z = (x[..., None] - m.centers) / m.bandwidth
        pdf = np.exp(-0.5 * z * z).mean(axis=-1) / (m.bandwidth * np.sqrt(2.0 * np.pi))
        cdf = np.clip(ndtr(z).mean(axis=-1), EPS, 1.0 - EPS)
        for got, want in ((m.pdf(x), pdf), (m.cdf(x), cdf)):
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
