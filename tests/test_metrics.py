import math

import numpy as np
import pytest
from codec_reference import predicted_exceedance, predicted_mean_error

from pilotc.metrics import EvalReport, max_sed, mean_sed, raw_size_bytes, row_norms, var_delta_s


def test_raw_size_charges_coordinates_plus_timestamp():
    assert raw_size_bytes(1000, 2) == 24000
    assert raw_size_bytes(1000, 3) == 32000


def test_sed_metrics():
    a = np.zeros((4, 2))
    assert max_sed(a, a) == 0.0
    assert mean_sed(a, a) == 0.0
    b = a.copy()
    b[2] = [3.0, 4.0]
    assert max_sed(a, b) == pytest.approx(5.0)
    assert mean_sed(a, b) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        max_sed(np.zeros((3, 2)), np.zeros((4, 2)))


def awkward_rows(dim: int, n: int = 6000) -> np.ndarray:
    """Rows mixing zeros, -0.0, subnormals, ordinary values, values near
    1e154 (whose squares are near the float64 limit) and values whose
    squares overflow to inf."""
    rng = np.random.default_rng(dim)
    scales = np.array([0.0, -0.0, 5e-324, 1e-310, 1e-160, 1.0, 1e3, 1e154, 1.3e154, 1e200])
    d = rng.standard_normal((n, dim)) * rng.choice(scales, (n, dim))
    d[0] = 0.0
    d[1] = 5e-324
    d[2] = 1e154
    return d


@pytest.mark.parametrize("dim", range(1, 8))
def test_row_norms_equal_numpy_norm_bitwise(dim):
    d = awkward_rows(dim)
    with np.errstate(over="ignore"):  # as the encoder's split test measures
        got, want = row_norms(d), np.linalg.norm(d, axis=1)
    assert np.isinf(want).any() and (want == 0.0).any()
    assert got.tobytes() == want.tobytes()


def test_row_norms_sum_columns_in_order_from_eight_dimensions():
    # numpy's norm sums 8 or more columns pairwise; row_norms keeps the
    # sequential sum at every dimension
    d = awkward_rows(8)
    with np.errstate(over="ignore"):
        total = np.zeros(d.shape[0])
        for column in d.T:
            total = total + column * column
        got = row_norms(d)
        assert got.tobytes() == np.sqrt(total).tobytes()
        assert (got != np.linalg.norm(d, axis=1)).any()


def test_exceedance_reference_values():
    eps = 10.0
    assert predicted_exceedance(eps, eps / 0.6) == pytest.approx(
        math.exp(-4.32), rel=1e-12)
    assert predicted_exceedance(eps, eps / 0.6) == pytest.approx(0.0133, abs=3e-4)
    assert predicted_exceedance(eps, eps / 0.8) == pytest.approx(
        math.exp(-7.68), rel=1e-12)
    assert predicted_exceedance(eps, eps / 0.8) == pytest.approx(0.00046, abs=2e-5)
    assert predicted_exceedance(eps, 1e-12) == 0.0


def test_exceedance_monotonicity():
    vals_f = [predicted_exceedance(1.0, f) for f in (0.5, 1.0, 2.0, 4.0)]
    assert vals_f == sorted(vals_f)
    vals_e = [predicted_exceedance(e, 2.0) for e in (0.5, 1.0, 2.0, 4.0)]
    assert vals_e == sorted(vals_e, reverse=True)


def test_mean_error_prediction():
    assert predicted_mean_error(10.0, 2) == pytest.approx(3.35)
    assert predicted_mean_error(10.0, 3) == pytest.approx(4.26)
    assert predicted_mean_error(0.0, 2) == 0.0
    with pytest.raises(ValueError):
        predicted_mean_error(1.0, 4)


def test_var_delta_s_endpoints_and_midpoint():
    assert var_delta_s(100, 100, 2.0) == 0.0
    assert var_delta_s(50, 100, 2.0) == pytest.approx(4.0 / 24.0)
    with pytest.raises(ValueError):
        var_delta_s(0, 100, 2.0)
    with pytest.raises(ValueError):
        var_delta_s(101, 100, 2.0)


def test_var_delta_s_symmetry():
    for k in range(1, 100):
        assert var_delta_s(k, 100, 1.7) == pytest.approx(
            var_delta_s(100 - k, 100, 1.7), rel=1e-12)


def test_mean_error_consistent_with_variance_integral():
    # mean over the block of E|2-D error| from the variance law approaches
    # the closed-form factor 0.335 for eps_f = eps / 0.6
    for b_s in (50, 100, 200):
        sigmas = np.sqrt([var_delta_s(k, b_s, 1 / 0.6) for k in range(1, b_s + 1)])
        mean_abs = np.sqrt(np.pi / 2.0) * sigmas.mean()
        assert mean_abs == pytest.approx(0.335, rel=0.10)


def test_eval_report_serialization():
    r = EvalReport(name="x", n_points=10, dim=2, raw_bytes=240,
                   compressed_bytes=24, compression_ratio=0.1,
                   max_sed=2.0, mean_sed=1.0, corrected_fraction=0.0, eps=5.0)
    assert r.max_sed >= r.mean_sed >= 0.0
    assert '"compression_ratio": 0.1' in r.to_json()
    row = r.to_csv_row()
    assert row.startswith("x,10,2,240,24,0.1")
    assert len(row.split(",")) == len(EvalReport.CSV_HEADER.split(","))
