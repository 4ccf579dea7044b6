import math

import numpy as np
import pytest
import scipy.fft
from codec_reference import dct_forward_ref, dct_inverse_ref

from pilotc.transform import dct_forward, dct_inverse


def rng_zero_sum(rng, n):
    v = rng.normal(size=n)
    return v - v.mean()


def test_all_zeros_maps_to_all_zeros():
    for n in (1, 2, 7, 64):
        assert not dct_forward(np.zeros(n)).any()
        assert not dct_inverse(np.zeros(n)).any()


def test_two_point_reference_value():
    c = dct_forward(np.array([1.0, -1.0]))
    assert c[0] == pytest.approx(0.0, abs=1e-12)
    assert c[1] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    v = dct_inverse(np.array([0.0, 2.0 * math.sqrt(2.0)]))
    np.testing.assert_allclose(v, [1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 25, 100, 128, 1024, 4096])
def test_round_trip_zero_sum(n):
    rng = np.random.default_rng(n)
    v = rng_zero_sum(rng, n)
    back = dct_inverse(dct_forward(v))
    np.testing.assert_allclose(back, v, rtol=1e-9, atol=1e-9 * np.abs(v).max())


@pytest.mark.parametrize("n", [2, 3, 8, 15, 16, 17, 100, 333, 1024])
def test_fast_path_matches_direct(n):
    rng = np.random.default_rng(n + 1)
    v = rng.normal(size=n)
    np.testing.assert_allclose(dct_forward(v), dct_forward_ref(v), atol=1e-8)
    c = rng.normal(size=n)
    np.testing.assert_allclose(dct_inverse(c), dct_inverse_ref(c), atol=1e-8)


def test_forward_matches_orthonormal_oracle():
    # for k >= 1 the coefficients equal the orthonormal DCT-II scaled by sqrt(2n)
    rng = np.random.default_rng(7)
    for n in (4, 32, 100, 257):
        v = rng_zero_sum(rng, n)
        ortho = scipy.fft.dct(v, type=2, norm="ortho")
        mine = dct_forward(v)
        np.testing.assert_allclose(
            mine[1:], ortho[1:] * math.sqrt(2.0 * n), rtol=1e-9, atol=1e-10)


def test_inverse_scale_is_one_over_n():
    # a single AC coefficient e produces values (e/n) * cos(...), bounded by 2e/n
    n = 50
    e = 0.125
    c = np.zeros(n)
    c[-1] = e
    v = dct_inverse(c)
    assert np.abs(v).max() <= 2.0 * e / n + 1e-15
    expected = (e / n) * np.cos((2 * np.arange(n) + 1) * (n - 1) * np.pi / (2 * n))
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_linearity():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=33), rng.normal(size=33)
    np.testing.assert_allclose(
        dct_forward(2.5 * a - 0.5 * b),
        2.5 * dct_forward(a) - 0.5 * dct_forward(b),
        atol=1e-10)


def test_batch_rows_match_single_rows():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(6, 80))
    batch = dct_forward(rows)
    for i in range(rows.shape[0]):
        np.testing.assert_allclose(batch[i], dct_forward(rows[i]), atol=1e-10)
    back = dct_inverse(batch)
    for i in range(rows.shape[0]):
        np.testing.assert_allclose(back[i], dct_inverse(batch[i]), atol=1e-10)


def test_energy_compaction_on_smooth_ramp():
    n = 256
    x = np.linspace(0, 1, n)
    v = np.sin(1.5 * x) + 0.2 * x * x
    v = v - v.mean()
    c = dct_forward(v)
    energy = c[1:] ** 2
    head = int(math.ceil(n / 8))
    assert energy[: head - 1].sum() >= 0.99 * energy.sum()


def test_single_sample_edge():
    c = dct_forward(np.array([4.2]))
    assert c[0] == pytest.approx(4.2)
    assert dct_inverse(np.array([4.2]))[0] == pytest.approx(4.2)


def test_empty_signal_rejected():
    with pytest.raises(ValueError):
        dct_forward(np.zeros(0))
    with pytest.raises(ValueError):
        dct_inverse(np.zeros(0))
