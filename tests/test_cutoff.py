import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import Polynomial

from lefpen.transversal import cutoff
from lefpen.transversal.cutoff import (
    SLOPE_PAD,
    CutoffProfile,
    ThresholdError,
    build_cutoff,
    min_admissible_k,
)


def closed_form_eps(k, D, c0):
    r = 3.0 * D / (1.4 * c0)
    return math.log(r) / (math.log(k) - 2.0 * math.log(r))


def test_threshold():
    assert min_admissible_k(1, 1) == pytest.approx((15 / 7) ** 6)
    assert min_admissible_k(1, 1) == pytest.approx(96.8187, abs=1e-3)
    with pytest.raises(ThresholdError) as err:
        build_cutoff(50, 1, 1)
    assert err.value.min_k == pytest.approx((15 / 7) ** 6)


def test_gauss_legendre_literals_are_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(32)
    assert np.array_equal(cutoff._NODES, nodes)
    assert np.array_equal(cutoff._WEIGHTS, weights)


def test_constants_match_closed_forms():
    p = build_cutoff(1e4, 1.0, 1.0)
    eps = closed_form_eps(1e4, 1.0, 1.0)
    assert abs(p.eps - eps) < 1e-12
    assert abs(p.a - 1.5 ** (0.5 + eps)) < 1e-12
    assert p.eps == pytest.approx(0.099158, abs=1e-6)
    assert p.a == pytest.approx(1.27499, abs=1e-5)


def test_endpoint_values():
    p = build_cutoff(1e4, 1.0, 1.0)
    assert p.value(1.0) == 1e4**0.25
    assert p.value(0.0) == 1e4**0.25
    assert p.value(p.t_one * 2) == 1.0
    # one ulp inside the bands, where the band integrals, not the constants, give l
    assert p.value(np.nextafter(p.t_flat, np.inf)) == pytest.approx(p.top, rel=1e-12, abs=0.0)
    assert p.value(np.nextafter(p.t_one, 0.0)) == pytest.approx(1.0, rel=1e-12, abs=0.0)
    # the power form passes through k^(1/4) at 1.5 D and through 1 at
    # 0.7 c0 sqrt(k) (the anchors pinning a and eps)
    beta = 0.5 + p.eps
    assert p.a * p.top * 1.5 ** (-beta) == pytest.approx(p.top, rel=1e-12)
    assert p.a * p.top * (0.7 * math.sqrt(1e4)) ** (-beta) == pytest.approx(1.0, rel=1e-12)


def test_eps_range_at_threshold():
    # eps = 1/4 exactly at the admissibility threshold, decreasing in k
    D, c0 = 1.0, 1.0
    k0 = (3 * D / (1.4 * c0)) ** 6
    assert closed_form_eps(k0, D, c0) == pytest.approx(0.25)
    assert 0 < closed_form_eps(1e8, D, c0) < closed_form_eps(1e4, D, c0) <= 0.25


CRITERION_6_PAIRS = [(1e3, 1), (1e4, 1), (1e4, 2), (1e5, 1), (1e5, 2)]  # the admissible (k, D) at c0 = 1


@pytest.mark.parametrize("k,D", CRITERION_6_PAIRS)
def test_slope_inequality(k, D):
    p = build_cutoff(k, D, 1.0)
    rep = p.slope_check()
    assert rep["ok"], rep


def test_c2_at_seams():
    for k, D in CRITERION_6_PAIRS:
        p = build_cutoff(k, D, 1.0)
        for t0 in (p.t_flat, p.t_pow_lo, p.t_pow_hi, p.t_one):
            # l, l' and l'' one ulp either side of the seam agree to rounding
            below, above = np.array(p.jets(np.array([np.nextafter(t0, 0.0), np.nextafter(t0, np.inf)]))[:3]).T
            assert np.all(np.abs(above - below) <= 1e-12 * np.maximum(1.0, np.abs(below))), (k, D, t0, below, above)


def test_derivatives_vs_finite_differences():
    p = build_cutoff(1e4, 1.0, 1.0)
    rng = np.random.default_rng(5)
    regions = [
        (0.05, p.t_flat),
        (p.t_flat, p.t_pow_lo),
        (p.t_pow_lo, p.t_pow_hi),
        (p.t_pow_hi, p.t_one),
    ]
    for _ in range(200):
        lo, hi = regions[rng.integers(0, 4)]
        pad = 0.02 * (hi - lo)
        t = rng.uniform(lo + pad, hi - pad)
        h = min(1e-6 * max(t, 1.0), 0.4 * pad)
        for g, dg in ((p.value, p.d1), (p.d1, p.d2), (p.d2, p.d3)):
            num = (g(t + h) - g(t - h)) / (2 * h)
            an = dg(t)
            if abs(an) > 1e-6:
                assert abs(num - an) / abs(an) < 1e-4


def test_monotone_decreasing():
    p = build_cutoff(1e5, 2.0, 1.0)
    t = np.geomspace(p.t_flat * (1 + 1e-9), p.t_one * (1 - 1e-9), 5000)
    v = p.value(t)
    assert np.all(np.diff(v) <= 1e-12)
    assert v.max() <= p.top + 1e-9
    assert v.min() >= 1.0 - 1e-9


def test_derivative_bound_report_keys():
    p = build_cutoff(1e4, 1.0, 1.0)
    rep = p.derivative_bound_report()
    assert set(rep) == {
        "eps2",
        "C_second",
        "C_third",
        "eps2_prime",
        "C_second_prime",
        "C_third_prime",
    }
    assert all(v > 0 for v in rep.values())


def test_band_ordering_guard():
    # small k with large D / c0 would invert the band ordering
    with pytest.raises(ThresholdError):
        CutoffProfile(1.0, 0.3, 1.0)


def band_integral_reference(poly, c, u=1.0):
    """_band_integral as numpy's polyval on the whole node stack, before Horner's rule in one buffer."""
    u = np.asarray(u, dtype=float)
    half = 0.5 * u[..., None]
    v = half * (cutoff._NODES + 1.0)
    return np.sum(cutoff._WEIGHTS * poly(v) / (c + v), axis=-1) * half[..., 0]


# the three ramps, the bump and the warped smoothstep of every warp the ramps were chosen from
RAMPS = [cutoff._S_INNER, cutoff._S_OUTER, cutoff._BUMP] + [
    cutoff._SMOOTHSTEP(Polynomial([0.0, 1.0]) ** q) for q in range(1, 9)
]
EDGES = [0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324]
UNIT = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0))


@given(
    st.sampled_from(range(len(RAMPS))),
    st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1.0, 100.0)),
    st.one_of(UNIT, arrays(float, st.integers(0, 40), elements=UNIT)),
)
@example(1, 2.0, np.array(EDGES))
@example(0, 1.0, 1.0)
def test_band_integral_equals_the_polyval_reference(ramp, c, u):
    assert np.array_equal(cutoff._band_integral(RAMPS[ramp], c, u), band_integral_reference(RAMPS[ramp], c, u))


@given(st.sampled_from(range(len(RAMPS))), arrays(float, st.integers(0, 40), elements=UNIT))
def test_horner_equals_polyval_on_ramps_and_their_derivatives(ramp, u):
    # _Band.log_jets evaluates s, s' and s'' with _horner
    for d in range(3):
        poly = RAMPS[ramp].deriv(d)
        assert np.array_equal(cutoff._horner(poly.coef, u), poly(u))


@pytest.mark.parametrize("k", [1e3, 1e6])
def test_slope_check_stops_short_of_the_rounded_outer_ramps_sign_change(k):
    # the rounded _S_OUTER is below 0 just before u = 1, so l'/l > 0 just before t_one,
    # and only after the last slope_check sample
    assert cutoff._S_OUTER(1.0) < 0.0
    p = build_cutoff(k, 1.0, 1.0)
    t = p.t_one * (1.0 - np.geomspace(1e-16, 1e-5, 20_000))
    l, l1 = p.jets(t)[:2]
    positive = t[l1 / l > 0.0]
    assert len(positive) and positive.min() > p.t_one * (1.0 - 6e-7) > p.t_one * (1.0 - SLOPE_PAD)
    assert np.max(l1 / l) < 2e-16
    assert p.slope_check()["ok"]
