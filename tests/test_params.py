import math
import re

import pytest

from pilotc.params import DEFAULT_PROFILE, PROFILES, CodecParams, Layout, Profile


def test_nuplan_derivation_at_eps_5():
    p = PROFILES["nuplan"].params(5.0)
    lay = p.layout(2)
    assert lay.eps_f == pytest.approx(8.333333333, rel=1e-9)
    assert lay.b_s == 200
    assert lay.r_ret == pytest.approx(0.04 / math.sqrt(5.0), rel=1e-12)
    assert p.eps_p == pytest.approx(2.5)


def test_profile_constants_table():
    rows = {
        "nuplan": (0.6, 20.0, 100.0, 0.04),
        "geolife": (0.6, 0.5, 25.0, 1.1),
        "geolife3d": (0.7, 0.5, 25.0, 0.8),
        "mopsi": (0.6, 1.0, 25.0, 0.6),
    }
    for name, (a, b, c, d) in rows.items():
        prof = PROFILES[name]
        assert (prof.a, prof.b, prof.c, prof.d) == (a, b, c, d)
        assert prof.chunk_bits == 2
        assert prof.eps_p_factor == 0.5
    assert DEFAULT_PROFILE is PROFILES["geolife"]


def test_retention_saturates_at_one():
    p = PROFILES["geolife"].params(1.0)
    assert p.layout(2).r_ret == 1.0
    p = PROFILES["geolife"].params(100.0)
    assert p.layout(2).r_ret == pytest.approx(0.11)


def test_block_size_floor():
    assert CodecParams(eps=0.001, b=0.5, c=0.0005).layout(1).b_s == 2
    assert CodecParams(eps=10.0, b=0.5, c=25.0).layout(1).b_s == 30


def test_block_size_must_fit_int64():
    # geolife: b_s = round(0.5 * eps + 25), and 2**63 is about 9.22e18
    assert Layout.derive(1.8e19, 1.0, 2, DEFAULT_PROFILE).b_s == round(0.5 * 1.8e19 + 25)
    for eps in (1.9e19, 1e190):
        with pytest.raises(ValueError, match=rf"b_s .* eps={re.escape(str(eps))}"):
            Layout.derive(eps, 1.0, 2, DEFAULT_PROFILE)
        with pytest.raises(ValueError, match="b_s"):
            DEFAULT_PROFILE.params(eps)


def test_eps_split_over_dimensions():
    p = PROFILES["geolife"].params(10.0)
    assert p.layout(2).eps_d == pytest.approx(5.0 / math.sqrt(2.0))
    assert p.layout(3).eps_out == pytest.approx(10.0 / math.sqrt(3.0))


def test_overrides_via_profile():
    p = PROFILES["geolife"].params(10.0, eps_t=0.01, chunk_bits=3)
    assert p.eps_t == 0.01
    assert p.chunk_bits == 3
    assert p.a == 0.6


@pytest.mark.parametrize("kwargs", [
    dict(eps=0.0),
    dict(eps=-1.0),
    dict(eps=float("inf")),
    dict(eps=1.0, a=0.0),
    dict(eps=1.0, eps_t=0.0),
    dict(eps=1.0, chunk_bits=0),
    dict(eps=1.0, chunk_bits=33),
    dict(eps=1.0, eps_p_factor=0.0),
    dict(eps=1.0, eps_p_factor=1.5),
    dict(eps=1.0, v_max=-5.0),
    dict(eps=1.0, v_max=float("nan")),
    dict(eps=1.0, eps_t=float("nan")),
    dict(eps=1.0, eps_t=float("inf")),
    dict(eps=1.0, a=float("nan")),
    dict(eps=1.0, d=float("inf")),
    dict(eps=1.0, b=float("nan")),
    dict(eps=1.0, c=float("-inf")),
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        CodecParams(**kwargs)


def test_infinite_v_max_turns_the_speed_split_off():
    assert CodecParams(eps=1.0, v_max=float("inf")).v_max == float("inf")
    with pytest.raises(ValueError, match="v_max"):
        PROFILES["geolife"].params(10.0, v_max=float("nan"))


def test_custom_profile():
    prof = Profile("custom", a=0.8, b=2.0, c=10.0, d=0.5, eps_t=0.5)
    lay = prof.params(4.0).layout(2)
    assert lay.b_s == 18
    assert lay.eps_f == pytest.approx(5.0)


@pytest.mark.parametrize("constants", [
    dict(a=0.0), dict(a=float("nan")), dict(d=-1.0), dict(d=float("inf")),
    dict(b=float("nan")), dict(c=float("inf")),
])
def test_invalid_profile_constants_rejected(constants):
    fields = dict(a=0.6, b=0.5, c=25.0, d=1.1)
    with pytest.raises(ValueError, match="constants"):
        Profile("bad", **{**fields, **constants})


@pytest.mark.parametrize("setting, message", [
    (dict(eps_t=float("nan")), "eps_t"), (dict(v_max=float("nan")), "v_max"),
    (dict(chunk_bits=33), "chunk_bits"), (dict(eps_p_factor=7.0), "eps_p_factor"),
])
def test_invalid_profile_settings_rejected(setting, message):
    # a profile checks its encoding settings as CodecParams does, so a bad
    # one fails where it is set, not only once an eps turns it into params
    with pytest.raises(ValueError, match=message):
        Profile("bad", a=0.6, b=0.5, c=25.0, d=1.1, **setting)
