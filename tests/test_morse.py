import numpy as np
import pytest

from lefpen.transversal.cutoff import build_cutoff
from lefpen.transversal.morse import (
    CirclePair,
    CriticalPoint,
    DeformedMorse,
    MorseModel,
    QuadraticBackground,
    deform_grid,
    verify_deform_bounds,
)


@pytest.fixture(scope="module")
def deformed():
    model = MorseModel.quadratic(2, value=0.5)
    profile = build_cutoff(1e4, 1.0, 1.0)
    return DeformedMorse(model, profile)


def num_grad(f, x, h):
    n = len(x)
    out = np.empty(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        out[j] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def test_critical_point_jets(deformed):
    v, g, hess, t3 = deformed.jets([0.0, 0.0])
    assert v == pytest.approx(np.sqrt(1e4) * 0.5)
    assert np.allclose(g, 0.0)
    assert np.allclose(hess, np.diag([2.0, -2.0]))
    assert np.allclose(t3, 0.0)


def test_flat_core_is_unit_quadratic(deformed):
    # inside |y| <= D the deformation is exactly sqrt(k) c + sum(sign y^2)
    x = np.array([0.3, -0.4])
    v, g, hess, _ = deformed.jets(x)
    assert v == pytest.approx(50.0 + 0.3**2 - 0.4**2)
    assert np.allclose(g, [2 * 0.3, -2 * (-0.4)])
    assert np.allclose(hess, np.diag([2.0, -2.0]))


def test_matches_plain_rescaling_outside(deformed):
    # beyond 3 sqrt(k) c0 / 4 the profile is 1, so h = sqrt(k) f exactly
    prof = deformed.profile
    for t in (prof.t_one * 1.01, deformed.ball_radius * 0.999, deformed.ball_radius * 1.2):
        x = t * np.array([0.6, 0.8])
        xb = x / deformed.sqrt_k
        expected = deformed.sqrt_k * (0.5 + xb[0] ** 2 - xb[1] ** 2)
        assert deformed.value(x) == pytest.approx(expected, rel=1e-12)


def test_gradient_vs_finite_differences(deformed):
    rng = np.random.default_rng(2)
    prof = deformed.profile
    for _ in range(40):
        region = rng.integers(0, 4)
        if region == 0:
            t = rng.uniform(0.05, prof.t_flat * 0.95)
        elif region == 1:
            t = rng.uniform(prof.t_flat * 1.05, prof.t_pow_lo * 0.95)
        elif region == 2:
            t = rng.uniform(prof.t_pow_lo * 1.05, prof.t_pow_hi * 0.95)
        else:
            t = rng.uniform(prof.t_pow_hi * 1.005, prof.t_one * 0.995)
        th = rng.uniform(0, 2 * np.pi)
        x = t * np.array([np.cos(th), np.sin(th)])
        step = 1e-6 * max(t, 1.0)
        g = deformed.gradient(x)
        assert np.max(np.abs(g - num_grad(deformed.value, x, step))) / max(
            np.linalg.norm(g), 1e-9
        ) < 1e-6


def test_hessian_and_third_vs_finite_differences(deformed):
    rng = np.random.default_rng(3)
    prof = deformed.profile
    for _ in range(25):
        t = rng.uniform(prof.t_flat * 1.1, prof.t_pow_hi * 0.9)
        th = rng.uniform(0, 2 * np.pi)
        x = t * np.array([np.cos(th), np.sin(th)])
        step = 2e-6 * max(t, 1.0)
        hess = deformed.hessian(x)
        hnum = np.column_stack(
            [num_grad(lambda z, j=j: deformed.gradient(z)[j], x, step) for j in range(2)]
        ).T
        assert np.max(np.abs(hess - hnum)) / max(np.linalg.norm(hess), 1e-9) < 1e-5
        t3 = deformed.third(x)
        tnum = np.stack(
            [
                np.column_stack(
                    [
                        num_grad(lambda z, a=a, b=b: deformed.hessian(z)[a][b], x, step)
                        for b in range(2)
                    ]
                )
                for a in range(2)
            ]
        )
        assert np.max(np.abs(t3 - tnum)) / max(np.linalg.norm(t3), 1e-6) < 1e-5


def test_verify_deform_bounds(deformed):
    rep = verify_deform_bounds(deformed, deform_grid(deformed.model, deformed.profile))
    assert rep["etaObserved"] > 0
    assert rep["maxGrad"] > 0 and rep["maxThird"] > 0
    # at the critical point the quadratic model supports eta up to 2
    assert rep["etaObserved"] <= 2.0


def test_annulus_gradient_bound(deformed):
    # on the power annulus (D = 1): |grad h| <= (2/sqrt k) l^2 t = 2 a^2 / t^(2 eps)
    prof = deformed.profile
    rng = np.random.default_rng(8)
    for _ in range(200):
        t = rng.uniform(prof.t_pow_lo, prof.t_pow_hi)
        th = rng.uniform(0, 2 * np.pi)
        x = t * np.array([np.cos(th), np.sin(th)])
        chain_bound = 2.0 * prof.value(t) ** 2 * t / deformed.sqrt_k
        assert np.linalg.norm(deformed.gradient(x)) <= chain_bound + 1e-9
        assert chain_bound <= 2.0 * prof.a**2 / t ** (2 * prof.eps) * (1 + 1e-9)


def test_three_dimensional_model():
    model = MorseModel.quadratic(3, value=0.2, signs=(1, -1, 1))
    profile = build_cutoff(1e4, 1.0, 1.0)
    h = DeformedMorse(model, profile)
    v, g, hess, _ = h.jets([0.0, 0.0, 0.0])
    assert v == pytest.approx(20.0)
    assert np.allclose(hess, np.diag([2.0, -2.0, 2.0]))
    rng = np.random.default_rng(6)
    for _ in range(10):
        t = rng.uniform(profile.t_pow_lo * 1.05, profile.t_pow_hi * 0.95)
        d = rng.normal(size=3)
        x = t * d / np.linalg.norm(d)
        step = 1e-6 * t
        g = h.gradient(x)
        num = num_grad(h.value, x, step)
        assert np.max(np.abs(g - num)) / np.linalg.norm(g) < 1e-6
    rep = verify_deform_bounds(h, deform_grid(model, profile, radial=60, angular=16))
    assert rep["etaObserved"] > 0


def test_third_derivative_scales_like_one_over_D():
    # max|d^3 h| * D stays within a factor 3 across D at fixed k
    vals = []
    for D in (1.0, 2.0):
        model = MorseModel.quadratic(2, value=0.5)
        h = DeformedMorse(model, build_cutoff(1e5, D, 1.0))
        rep = verify_deform_bounds(h, deform_grid(model, h.profile, radial=80, angular=12))
        vals.append(rep["maxThird"] * D)
    assert max(vals) / min(vals) < 3.0


def test_separation_guard():
    crits = [
        CriticalPoint((0.0, 0.0), 0.0, (1, -1)),
        CriticalPoint((1.5, 0.0), 1.0, (1, 1)),
    ]
    model = MorseModel(2, crits, background=None)
    profile = build_cutoff(1e4, 1.0, 1.0)
    with pytest.raises(ValueError):
        DeformedMorse(model, profile)


def test_two_critical_points():
    crits = [
        CriticalPoint((0.0, 0.0), 0.0, (1, -1)),
        CriticalPoint((3.0, 0.0), 1.0, (1, 1)),
    ]
    model = MorseModel(2, crits, background=None)
    profile = build_cutoff(1e4, 1.0, 1.0)
    h = DeformedMorse(model, profile)
    k4 = np.sqrt(1e4)
    v0, g0, h0, _ = h.jets([0.0, 0.0])
    v1, g1, h1, _ = h.jets([3.0 * k4, 0.0])
    assert v0 == pytest.approx(0.0) and np.allclose(g0, 0.0)
    assert v1 == pytest.approx(k4 * 1.0) and np.allclose(g1, 0.0)
    assert np.allclose(h0, np.diag([2.0, -2.0]))
    assert np.allclose(h1, np.diag([2.0, 2.0]))
    # between the balls there is no background to fall back on
    with pytest.raises(ValueError):
        h.value([1.5 * k4, 0.0])


def test_outside_without_background_errors():
    crit = CriticalPoint((0.0, 0.0), 0.0, (1, -1))
    model = MorseModel(2, [crit], background=None)
    h = DeformedMorse(model, build_cutoff(1e4, 1.0, 1.0))
    with pytest.raises(ValueError):
        h.value([2 * h.ball_radius, 0.0])


def test_eta_observed_transversality():
    # h(x) = |x|^2: gradient small only near 0 where the Hessian is 2 Id
    model = MorseModel.quadratic(2, value=0.0, signs=(1, 1))
    quad = QuadraticBackground(model.crits[0])

    class Plain:
        def jets(self, x):
            v, g, hess, t3 = quad.jets(x)
            return v, g, hess, t3

    pts = [np.array([r * np.cos(a), r * np.sin(a)]) for r in (0.0, 0.3, 0.9) for a in (0.0, 1.0, 2.5)]
    eta = verify_deform_bounds(Plain(), pts)["etaObserved"]
    assert eta >= 1.0
    assert eta >= 0.0  # vacuous convention

    class Cubic:  # degenerate critical point at 0
        def jets(self, x):
            t = x[0]
            return t**3, np.array([3 * t**2]), np.array([[6 * t]]), np.zeros((1, 1, 1))

    pts1 = [np.array([t]) for t in np.linspace(-0.5, 0.5, 21)]
    assert verify_deform_bounds(Cubic(), pts1)["etaObserved"] < 0.1


def test_circle_pair_identity():
    # closed-form cases and random samples
    assert CirclePair.identity_residual([np.pi / 4]) < 1e-12
    assert CirclePair.identity_residual([0.0]) < 1e-15
    rng = np.random.default_rng(4)
    assert CirclePair.identity_residual(rng.uniform(-50, 50, size=2000)) < 1e-12


def test_circle_pair_wrappers(deformed):
    pair = CirclePair(deformed.value)
    x = np.array([0.2, 0.1])
    assert pair.first(x) == pytest.approx(np.cos(deformed.value(x)))
    assert pair.second(x) == pytest.approx(np.sin(deformed.value(x)))
    grid = deform_grid(deformed.model, deformed.profile, radial=30, angular=8)
    rep = CirclePair.derivative_report(deformed, grid)
    assert rep["max_first_derivative"] > 0
    assert rep["max_first_derivative"] <= verify_deform_bounds(deformed, grid)["maxGrad"] + 1e-9
