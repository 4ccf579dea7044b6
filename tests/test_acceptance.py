"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical criteria use pinned seeds so every run is reproducible.
"""

import time

import numpy as np
import pytest
from codec_reference import dct_forward_ref, dct_inverse_ref, enhanced_zigzag_unmap
from model_gen import random_model

from pilotc import (
    CodecParams,
    PROFILES,
    Reconstructor,
    compress,
    parse,
    raw_size_bytes,
    serialize,
    synthetic_trajectory,
    var_delta_s,
)
from pilotc.codec import (
    dequantize_array,
    enhanced_zigzag_map,
    pack_varints,
    quantize_array,
    split_varints,
)
from pilotc.errors import TruncationError
from pilotc.transform import dct_forward, dct_inverse

GEO = PROFILES["geolife"]


def _report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. hard error bound on a mixed randomized corpus
# ---------------------------------------------------------------------------

_KINDS = (
    dict(),                                                         # smooth
    dict(jitter=2.0),                                               # jittery
    dict(gap_jitter=0.6, big_gap_rate=0.004),                       # non-uniform
    dict(jitter=1.0, gap_jitter=0.4, big_gap_rate=0.002,
         teleport_rate=0.0008),                                     # mixed
)
_EPS_GRID = (1.0, 5.0, 10.0, 50.0, 100.0)


def test_hard_error_bound_zero_violations():
    started = time.perf_counter()
    rng = np.random.default_rng(20260810)
    n_cases = 200
    sizes = np.round(10.0 ** rng.uniform(3.0, 5.0, n_cases)).astype(int)
    violations = 0
    total_points = 0
    worst_margin = 0.0
    for i in range(n_cases):
        eps = _EPS_GRID[i % len(_EPS_GRID)]
        dim = 3 if i % 3 == 2 else 2
        kind = _KINDS[(i // len(_EPS_GRID)) % len(_KINDS)]
        a = 0.7 if dim == 3 else 0.6
        traj = synthetic_trajectory(int(sizes[i]), dim=dim, seed=rng, **kind)
        params = CodecParams(eps=eps, a=a, b=0.5, c=25.0, d=1.1, eps_t=0.01)
        model = compress(traj, params)
        back = parse(serialize(model, params), params)
        approx = Reconstructor(back, params).query(traj.times)
        sed = np.linalg.norm(traj.points - approx, axis=1)
        if sed.max() > eps:
            violations += 1
        worst_margin = max(worst_margin, float(sed.max() / eps))
        total_points += traj.n_points
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 300.0
    _report("hard error bound",
            f"200 trajectories, {total_points} points, worst max-SED/eps "
            f"{worst_margin:.6f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. mean-error prediction on smooth corpora
# ---------------------------------------------------------------------------

def _aggregate_mean_ratio(dim: int, n_traj: int, seed0: int) -> float:
    eps = 10.0
    params = CodecParams(eps=eps, a=0.6, b=0.5, c=25.0, d=10.0,
                         eps_t=1.0, chunk_bits=2, eps_p_factor=0.5)
    assert params.layout(dim).r_ret == 1.0
    sed_sum, n_sum = 0.0, 0
    for i in range(n_traj):
        traj = synthetic_trajectory(4000, dim=dim, seed=seed0 + i)
        model = compress(traj, params)
        approx = Reconstructor(model, params).query(traj.times)
        sed_sum += float(np.linalg.norm(traj.points - approx, axis=1).sum())
        n_sum += traj.n_points
    return sed_sum / n_sum / eps


def test_mean_error_prediction_2d():
    ratio = _aggregate_mean_ratio(dim=2, n_traj=8, seed0=5000)
    assert 0.20 <= ratio <= 0.45
    _report("mean error 2-D", f"mean SED / eps = {ratio:.4f}, window [0.20, 0.45]")


def test_mean_error_prediction_3d():
    ratio = _aggregate_mean_ratio(dim=3, n_traj=8, seed0=6000)
    assert 0.28 <= ratio <= 0.55
    _report("mean error 3-D", f"mean SED / eps = {ratio:.4f}, window [0.28, 0.55]")


# ---------------------------------------------------------------------------
# 3. variance law Monte-Carlo
# ---------------------------------------------------------------------------

def _midpoint_errors(rng, b_s: int, eps_f: float, trials: int) -> np.ndarray:
    """Per-trial signal error at every sample of a block whose spectrum
    carries i.i.d. uniform coefficient errors."""
    noise = rng.uniform(-eps_f, eps_f, size=(trials, b_s))
    noise[:, 0] = 0.0
    return np.cumsum(dct_inverse(noise), axis=1)


def test_variance_law_monte_carlo():
    rng = np.random.default_rng(777)
    b_s, eps_f, trials = 100, 1.25, 100_000
    deltas = _midpoint_errors(rng, b_s, eps_f, trials)
    k = 50
    measured = float(deltas[:, k - 1].var())
    predicted = var_delta_s(k, b_s, eps_f)
    rel = abs(measured - predicted) / predicted
    assert rel <= 0.05
    sym_worst = 0.0
    for ka in (10, 25, 40):
        va = float(deltas[:, ka - 1].var())
        vb = float(deltas[:, b_s - ka - 1].var())
        sym_worst = max(sym_worst, abs(va - vb) / max(va, vb))
    assert sym_worst <= 0.05
    _report("variance law", f"relative error {rel:.4f} at k=50, "
            f"symmetry mismatch {sym_worst:.4f}")


# ---------------------------------------------------------------------------
# 4. exceedance prediction at the block midpoint
# ---------------------------------------------------------------------------

def test_exceedance_prediction():
    # KNOWN RED. The 1.3% target is the Gaussian-approximation tail
    # exp(-12 eps^2/eps_f^2) of the midpoint error, but in the uniform-noise
    # model that error is dominated by a single bounded term (81% of the
    # variance comes from the first coefficient), so the true tail is far
    # lighter.  Three independent routes (this transform-based run, a
    # direct-weight-formula simulation with 5e6 trials, and exact
    # characteristic-function convolution) all place the true rate near
    # 0.12%, outside 1.3% +- 0.4%.  The assertion is kept as specified
    # rather than tuned to the observed value.
    rng = np.random.default_rng(778)
    b_s, eps, trials = 100, 1.0, 100_000
    k = b_s // 2
    rates = {}
    for a in (0.6, 0.8):
        eps_f = eps / a
        dx = _midpoint_errors(rng, b_s, eps_f, trials)[:, k - 1]
        dy = _midpoint_errors(rng, b_s, eps_f, trials)[:, k - 1]
        rates[a] = float((np.hypot(dx, dy) > eps).mean())
    print(f"[acceptance] exceedance: measured eps/0.6 -> {rates[0.6]:.5f} "
          f"(target 1.3% +- 0.4%), eps/0.8 -> {rates[0.8]:.6f} (<= 0.15%)")
    assert rates[0.8] <= 0.0015
    assert abs(rates[0.6] - 0.013) <= 0.004
    _report("exceedance", f"eps/0.6 -> {rates[0.6]:.4f}, eps/0.8 -> {rates[0.8]:.5f}")


# ---------------------------------------------------------------------------
# 5. codec bijections
# ---------------------------------------------------------------------------

def test_codec_bijections_exhaustive():
    failures = 0
    values = range(-(2**16), 2**16 + 1)
    codes = [enhanced_zigzag_map(n) for n in values]
    for l in range(1, 9):
        data = pack_varints(codes, [True] * len(codes), l)
        split, readable, _ = split_varints(np.unpackbits(np.frombuffer(data, np.uint8)), l, True)
        # the padding after the last field may split as more fields
        split, readable = split[:len(codes)], readable[:len(codes)]
        failures += len(codes) - len(split) + int((~readable).sum())
        failures += sum(enhanced_zigzag_unmap(c) != n for c, n in zip(split.tolist(), values))
    assert failures == 0

    rng = np.random.default_rng(99)
    checked = 0
    for step in (1e-3, 0.03, 1.0, 17.5, 1e3):
        x = rng.uniform(-1e6, 1e6, 200_000)
        err = np.abs(x - dequantize_array(quantize_array(x, step), step))
        assert err.max() <= step
        checked += x.size
    _report("codec bijections",
            f"2^17+1 values x 8 chunk lengths exact, quantize bound on {checked} reals")


# ---------------------------------------------------------------------------
# 6. transform tolerances
# ---------------------------------------------------------------------------

def test_dct_round_trip_and_path_equivalence():
    rng = np.random.default_rng(55)
    worst_rt, worst_fd = 0.0, 0.0
    for n in (2, 3, 5, 16, 64, 100, 333, 512, 1024):
        v = rng.normal(size=n)
        v -= v.mean()
        back = dct_inverse(dct_forward(v))
        scale = max(1.0, float(np.abs(v).max()))
        worst_rt = max(worst_rt, float(np.abs(back - v).max()) / scale)
        w = rng.normal(size=n)
        worst_fd = max(worst_fd, float(np.abs(
            dct_forward(w) - dct_forward_ref(w)).max()))
        worst_fd = max(worst_fd, float(np.abs(
            dct_inverse(w) - dct_inverse_ref(w)).max()))
    assert worst_rt <= 1e-9
    assert worst_fd <= 1e-8
    _report("dct tolerances",
            f"round trip {worst_rt:.2e} <= 1e-9, library vs cosine sum {worst_fd:.2e} <= 1e-8")


# ---------------------------------------------------------------------------
# 7. container robustness
# ---------------------------------------------------------------------------

def test_container_round_trip_and_prefix_robustness():
    rng = np.random.default_rng(321)
    for _ in range(1000):
        model = random_model(rng)
        payload = serialize(model, GEO)
        back = parse(payload, GEO)
        assert back == model
        assert serialize(back, GEO) == payload

    model = random_model(np.random.default_rng(5), dim=2, eps=10.0)
    while not (model.segments and model.outliers and model.corrections):
        model = random_model(rng, dim=2, eps=10.0)
    payload = serialize(model, GEO)
    for cut in range(len(payload)):
        with pytest.raises(TruncationError):
            parse(payload[:cut], GEO)
    _report("container robustness",
            f"1000 models bit-identical, {len(payload)} strict prefixes all "
            "raise truncation errors")


# ---------------------------------------------------------------------------
# 8. trend reproduction over an eps sweep
# ---------------------------------------------------------------------------

def test_trend_ratio_monotone_and_mean_linear():
    trajs = [synthetic_trajectory(5000, dim=2, seed=400 + i) for i in range(4)]
    eps_list = (10.0, 20.0, 30.0, 50.0, 70.0, 100.0)
    ratios, means = [], []
    for eps in eps_list:
        params = GEO.params(eps)
        comp = raw = sed = n = 0
        for traj in trajs:
            model = compress(traj, params)
            comp += len(serialize(model, params))
            raw += raw_size_bytes(traj.n_points, traj.dim)
            approx = Reconstructor(model, params).query(traj.times)
            sed += float(np.linalg.norm(traj.points - approx, axis=1).sum())
            n += traj.n_points
        ratios.append(comp / raw)
        means.append(sed / n)
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))
    x, y = np.array(eps_list), np.array(means)
    slope, inter = np.polyfit(x, y, 1)
    resid = y - (slope * x + inter)
    r2 = 1.0 - float((resid**2).sum()) / float(((y - y.mean())**2).sum())
    assert r2 >= 0.95
    _report("trend reproduction",
            f"ratios {['%.4f' % r for r in ratios]} non-increasing, "
            f"mean-SED linear fit R^2 = {r2:.4f}")


# ---------------------------------------------------------------------------
# 9. linear complexity
# ---------------------------------------------------------------------------

def test_linear_complexity_scaling():
    params = GEO.params(10.0, eps_t=0.01)
    compress(synthetic_trajectory(2000, dim=2, seed=1), params)  # warm caches

    # Best of three passes per size, the sizes interleaved.  A pass covers
    # 10^6 points, as ten calls at 10^5 or one at 10^6: on a shared host the
    # speed drifts over seconds, and the minimum over short passes would
    # pick fast moments that a long pass averages away.
    calls = {100_000: 10, 1_000_000: 1}
    trajs = {n: synthetic_trajectory(n, dim=2, seed=88) for n in calls}
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(3):
        for n, traj in trajs.items():
            t0 = time.perf_counter()
            for _ in range(calls[n]):
                serialize(compress(traj, params), params)
            best[n] = min(best[n], (time.perf_counter() - t0) / calls[n])
    t_small, t_big = best[100_000], best[1_000_000]
    factor = t_big / t_small
    assert factor <= 13.0
    _report("linear complexity",
            f"10^5 -> {t_small:.2f}s, 10^6 -> {t_big:.2f}s, factor {factor:.1f} <= 13")
