import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lefpen.transversal import morse
from lefpen.transversal.cutoff import build_cutoff
from lefpen.transversal.localtrans import CPoly, LocalTransInstance, TransversalityCertificate, eta_margin
from lefpen.transversal.morse import (
    BLOCK_ENTRIES,
    FD_SAMPLES,
    FD_SEED,
    SVD_ROWS,
    CriticalPoint,
    DeformedMorse,
    MorseModel,
    _eta_observed,
    _quadratic_jets,
    _row_norms,
    deform_fd_check,
    deform_grid,
    verify_deform_bounds,
)
from lefpen.transversal.radial import central_difference


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
        assert deformed.jets(x)[0] == pytest.approx(expected, rel=1e-12)


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
        g = deformed.jets(x)[1]
        assert np.max(np.abs(g - num_grad(lambda z: deformed.jets(z)[0], x, step))) / max(
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
        hess = deformed.jets(x)[2]
        hnum = np.column_stack(
            [num_grad(lambda z, j=j: deformed.jets(z)[1][j], x, step) for j in range(2)]
        ).T
        assert np.max(np.abs(hess - hnum)) / max(np.linalg.norm(hess), 1e-9) < 1e-5
        t3 = deformed.jets(x)[3]
        tnum = np.stack(
            [
                np.column_stack(
                    [
                        num_grad(lambda z, a=a, b=b: deformed.jets(z)[2][a][b], x, step)
                        for b in range(2)
                    ]
                )
                for a in range(2)
            ]
        )
        assert np.max(np.abs(t3 - tnum)) / max(np.linalg.norm(t3), 1e-6) < 1e-5


def assert_rows_equal_single_points(h, X):
    stacked = h.jets(X)
    assert [j.shape for j in stacked] == [(len(X),) + (X.shape[1],) * d for d in range(4)]
    for i, x in enumerate(X):
        for rows, single in zip(stacked, h.jets(x)):
            assert np.array_equal(rows[i], single)


def region_radii(h):
    # flat core, inner band, power annulus, outer band, l = 1 shell, background
    p = h.profile
    mid = lambda a, b: 0.5 * (a + b)
    return [0.0, 0.5 * p.t_flat, mid(p.t_flat, p.t_pow_lo), mid(p.t_pow_lo, p.t_pow_hi),
            mid(p.t_pow_hi, p.t_one), mid(p.t_one, h.ball_radius), 1.2 * h.ball_radius]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_jets_equal_single_point_jets(n):
    h = DeformedMorse(MorseModel.quadratic(n, value=0.5), build_cutoff(1e4, 1.0, 1.0))
    dirs = np.random.default_rng(n).normal(size=(5, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    assert_rows_equal_single_points(h, np.concatenate([r * dirs for r in region_radii(h)]))


def test_stacked_jets_equal_single_point_jets_two_critical_points():
    crits = [
        CriticalPoint((0.0, 0.0), 0.0, (1, -1)),
        CriticalPoint((3.0, 0.0), 1.0, (1, 1)),
    ]
    h = DeformedMorse(MorseModel(2, crits, background=None), build_cutoff(1e4, 1.0, 1.0))
    dirs = np.array([[0.6, 0.8], [-1.0, 0.0], [0.0, -1.0]])
    X = np.concatenate([c + r * dirs for c in ([0.0, 0.0], [3.0 * h.sqrt_k, 0.0]) for r in region_radii(h)[:-1]])
    assert_rows_equal_single_points(h, X)
    with pytest.raises(ValueError):  # one row between the balls spoils the stack
        h.jets(np.concatenate([X, [[1.5 * h.sqrt_k, 0.0]]]))


def test_grid_reports_match_per_point_reference():
    # the per-point loops that the blocked grid walks replaced, kept as the reference
    h = DeformedMorse(MorseModel.quadratic(3, value=0.5), build_cutoff(1e3, 1.0, 1.0))
    grid = deform_grid(h.model, h.profile, radial=80, angular=24)
    assert len(grid) > BLOCK_ENTRIES // 3**3  # more than one block
    jets = [h.jets(x) for x in grid]
    grads = np.array([np.linalg.norm(g) for _, g, _, _ in jets])
    sigmas = np.array([np.linalg.svd(hess, compute_uv=False)[-1] for _, _, hess, _ in jets])
    rep = verify_deform_bounds(h, grid)
    assert rep["maxGrad"] == np.max(grads)
    assert rep["etaObserved"] == eta_margin(grads, sigmas)
    assert rep["maxThird"] == max(np.linalg.norm(t3) for _, _, _, t3 in jets)
    d1 = d2 = 0.0
    for v, g, hess, _ in jets:
        c, s = np.cos(v), np.sin(v)
        d1 = max(d1, np.linalg.norm(-s * g), np.linalg.norm(c * g))
        outer = np.outer(g, g)
        d2 = max(d2, np.linalg.norm(-c * outer - s * hess), np.linalg.norm(-s * outer + c * hess))
    assert rep["circle_pair"] == {"max_first_derivative": d1, "max_second_derivative": d2}


def deform_fd_check_reference(h):
    """The per-point loop that deform_fd_check's one blocked stack replaced."""
    rng = np.random.default_rng(FD_SEED)
    worst = 0.0
    for _ in range(FD_SAMPLES):
        t = rng.uniform(h.profile.t_pow_lo * 1.05, h.profile.t_pow_hi * 0.95)
        d = rng.normal(size=h.model.n)
        x = t * d / np.linalg.norm(d)
        g = h.jets(x)[1]
        num = central_difference(lambda y: h.jets(y)[0], x, 1e-6 * max(t, 1.0))
        worst = max(worst, float(np.max(np.abs(g - num)) / max(np.linalg.norm(g), 1e-12)))
    return {"samples": FD_SAMPLES, "max_rel_err": worst}


@pytest.mark.parametrize("k, D", [(1e3, 1.0), (12500.7, 0.5), (1e5, 2.0)])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_fd_check_matches_per_point_reference(n, k, D):
    h = DeformedMorse(MorseModel.quadratic(n, value=0.5), build_cutoff(k, D, 1.0))
    assert deform_fd_check(h) == deform_fd_check_reference(h)


def test_fd_check_evaluates_jets_in_bounded_blocks(monkeypatch):
    rows = []
    jets = DeformedMorse.jets

    def spy(self, x):
        rows.append(len(x))
        return jets(self, x)

    monkeypatch.setattr(DeformedMorse, "jets", spy)
    deform_fd_check(DeformedMorse(MorseModel.quadratic(2, value=0.5), build_cutoff(1e3, 1.0, 1.0)))
    assert rows == [FD_SAMPLES * 5]  # one call: x and x +- step e_j for each sample
    rows.clear()
    deform_fd_check(DeformedMorse(MorseModel.quadratic(8, value=0.5), build_cutoff(1e3, 1.0, 1.0)))
    assert sum(rows) == FD_SAMPLES * 17 and max(rows) <= BLOCK_ENTRIES // 8**3


def ring_jets_reference(h, base, signs, y, t):
    """The chain rule through u = l(|y|) y that the Leibniz rule on l^2 q replaced:
    jets of base + sum(sign_i u_i^2) / sqrt(k) at rows y of norm t."""
    rows = lambda v, k: v.reshape((-1,) + (1,) * k)
    l, l1, l2, l3 = h.profile.jets(t)
    r = y / t[:, None]
    u = l[:, None] * y
    eye = np.eye(y.shape[1])

    du = rows(l, 2) * eye + rows(l1, 2) * (r[:, :, None] * y[:, None, :])
    # d2u[i,a,b]: fully symmetric
    sym_dr = (
        np.einsum("...a,ib->...iab", r, eye)
        + np.einsum("...b,ia->...iab", r, eye)
        + np.einsum("...i,ab->...iab", r, eye)
    )
    rrr = np.einsum("...i,...a,...b->...iab", r, r, r)
    d2u = rows(l1, 3) * sym_dr + rows(t * l2 - l1, 3) * rrr

    A, B = l1 / t, l2 - l1 / t
    dd = np.einsum("bc,ia->iabc", eye, eye) + np.einsum("ac,ib->iabc", eye, eye) + np.einsum("ic,ab->iabc", eye, eye)
    drr = (
        np.einsum("ia,...b,...c->...iabc", eye, r, r)
        + np.einsum("ib,...a,...c->...iabc", eye, r, r)
        + np.einsum("ab,...i,...c->...iabc", eye, r, r)
        + np.einsum("ac,...b,...i->...iabc", eye, r, r)
        + np.einsum("bc,...a,...i->...iabc", eye, r, r)
        + np.einsum("ic,...a,...b->...iabc", eye, r, r)
    )
    r4 = np.einsum("...i,...a,...b,...c->...iabc", r, r, r, r)
    d3u = rows(A, 4) * dd + rows(B, 4) * drr + rows(t * l3 - 3.0 * B, 4) * r4

    scale = 2.0 / h.sqrt_k
    su = signs * u
    value = base + ((u * u)[:, None, :] @ signs)[:, 0] / h.sqrt_k
    grad = scale * (su[:, None, :] @ du)[:, 0]
    hess = scale * (du.transpose(0, 2, 1) @ np.diag(signs) @ du + np.einsum("...i,...iab->...ab", su, d2u))
    third = scale * (
        np.einsum("i,...iab,...ic->...abc", signs, d2u, du)
        + np.einsum("i,...iac,...ib->...abc", signs, d2u, du)
        + np.einsum("i,...ibc,...ia->...abc", signs, d2u, du)
        + np.einsum("...i,...iabc->...abc", su, d3u)
    )
    return value, grad, hess, third


def ring_points(h, center, count, seed):
    """count seeded points of the ring t_flat < |y| < ball radius about center:
    both bands, the power annulus and the l = 1 shell."""
    n = h.model.n
    dirs = np.random.default_rng(seed).normal(size=(count, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    t = np.geomspace(h.profile.t_flat * 1.001, h.ball_radius * 0.999, count)
    return h.sqrt_k * np.asarray(center, dtype=float) + t[:, None] * dirs


def assert_jets_match_chain_rule(h, count=200):
    for j, crit in enumerate(h.model.crits):
        x = ring_points(h, crit.center, count, j)
        y = x - h.sqrt_k * np.asarray(crit.center, dtype=float)
        signs = np.asarray(crit.signs, dtype=float)
        ref = ring_jets_reference(h, h.sqrt_k * crit.value, signs, y, np.linalg.norm(y, axis=1))
        for d, (got, want) in enumerate(zip(h.jets(x), ref)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (crit, d)


@pytest.mark.parametrize("k, D", [(1e3, 1.0), (1e5, 1.0), (1e5, 2.0)])  # k = 1e3 is below D = 2's threshold
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_ring_jets_match_chain_rule_reference(n, k, D):
    assert_jets_match_chain_rule(DeformedMorse(MorseModel.quadratic(n, value=0.5), build_cutoff(k, D, 1.0)))


def test_ring_jets_match_chain_rule_reference_two_critical_points():
    crits = [
        CriticalPoint((0.0, 0.0), 0.0, (1, -1)),
        CriticalPoint((3.0, 0.0), 1.0, (1, 1)),
    ]
    assert_jets_match_chain_rule(DeformedMorse(MorseModel(2, crits, background=None), build_cutoff(1e4, 1.0, 1.0)))


@pytest.mark.parametrize("n", [8, 16])
def test_ring_jets_peak_memory_stays_near_one_block(n):
    # a full block of ring rows: the third derivative alone is BLOCK_ENTRIES
    # floats, and no scratch array is larger than it per row
    h = DeformedMorse(MorseModel.quadratic(n, value=0.5), build_cutoff(1e3, 1.0, 1.0))
    x = ring_points(h, h.model.crits[0].center, BLOCK_ENTRIES // n**3, n)
    tracemalloc.start()
    try:
        h.jets(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * BLOCK_ENTRIES * 8


class SkewedGradient(DeformedMorse):
    """Jets whose gradient is off by a relative 1e-4."""

    def jets(self, x):
        v, g, hess, t3 = super().jets(x)
        return v, g * (1.0 + 1e-4), hess, t3


def test_fd_check_catches_a_skewed_gradient():
    model, profile = MorseModel.quadratic(2, value=0.5), build_cutoff(1e4, 1.0, 1.0)
    assert deform_fd_check(DeformedMorse(model, profile))["max_rel_err"] < 1e-8
    assert deform_fd_check(SkewedGradient(model, profile))["max_rel_err"] >= 1e-5


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
        assert np.linalg.norm(deformed.jets(x)[1]) <= chain_bound + 1e-9
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
        g = h.jets(x)[1]
        num = num_grad(lambda z: h.jets(z)[0], x, step)
        assert np.max(np.abs(g - num)) / np.linalg.norm(g) < 1e-6
    rep = verify_deform_bounds(h, deform_grid(model, profile, radial=60, angular=16))
    assert rep["etaObserved"] > 0


def test_deform_bounds_take_the_planes_values_in_every_dimension():
    # h sees a direction r only through r^T S r, which the plane of the first + and
    # - axes already spans, so the extra dimensions reach no larger gradient or
    # smaller transversality constant
    profile = build_cutoff(1e3, 1.0, 1.0)

    def report(n):
        model = MorseModel.quadratic(n, value=0.5)
        return verify_deform_bounds(DeformedMorse(model, profile), deform_grid(model, profile))

    plane = report(2)
    for n in (3, 4, 5):
        rep = report(n)
        assert (rep["maxGrad"], rep["etaObserved"]) == (plane["maxGrad"], plane["etaObserved"]), n


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
        h.jets([1.5 * k4, 0.0])


def test_outside_without_background_errors():
    crit = CriticalPoint((0.0, 0.0), 0.0, (1, -1))
    model = MorseModel(2, [crit], background=None)
    h = DeformedMorse(model, build_cutoff(1e4, 1.0, 1.0))
    with pytest.raises(ValueError):
        h.jets([2 * h.ball_radius, 0.0])


SADDLE = CriticalPoint((0.0, 0.0), 0.0, (1, -1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MorseModel(2, [CriticalPoint((0.0,), 0.0, (1, -1))]), "critical point data does not match dimension"),
        (lambda: MorseModel(2, [CriticalPoint((0.0, 0.0), 0.0, (1,))]), "critical point data does not match dimension"),
        (lambda: MorseModel(2, [CriticalPoint((0.0, 0.0), 0.0, (1, 0))]), "signs must be +-1"),
        (
            lambda: MorseModel(2, [SADDLE], background=CriticalPoint((0.0,) * 3, 0.0, (1, 1, 1))),
            "critical point data does not match dimension",
        ),
        (lambda: LocalTransInstance(CPoly([0.5]), CPoly([0.0]), 0.2, 0.1, 0), "pexp must be a positive integer"),
        (
            lambda: LocalTransInstance(CPoly([0.5]), CPoly([0.0]), 0.2, 0.1, 10**6),  # sigma underflows to 0
            "sigma = delta (log 1/delta)^-pexp is not a positive float at delta = 0.1",
        ),
        (
            lambda: TransversalityCertificate(0j, 0.01, 0.02, 1.0, 0.5, {}),
            "certificate margin 0.01 below sigma 0.02",
        ),
    ],
    ids=["center", "signs", "zero-sign", "background", "pexp", "sigma-underflow", "certificate-margin"],
)
def test_numerical_records_check_their_fields(build, message):
    with pytest.raises(ValueError) as failure:
        build()
    assert str(failure.value) == message


def test_eta_observed_transversality():
    # h(x) = |x|^2: gradient small only near 0 where the Hessian is 2 Id
    model = MorseModel.quadratic(2, value=0.0, signs=(1, 1))
    far = model.background

    class Plain:
        def jets(self, x):
            y = np.asarray(x, dtype=float) - np.asarray(far.center, dtype=float)
            return _quadratic_jets(far.value, np.asarray(far.signs, dtype=float), y)

    pts = [np.array([r * np.cos(a), r * np.sin(a)]) for r in (0.0, 0.3, 0.9) for a in (0.0, 1.0, 2.5)]
    eta = verify_deform_bounds(Plain(), pts)["etaObserved"]
    assert eta >= 1.0
    assert eta >= 0.0  # vacuous convention

    class Cubic:  # degenerate critical point at 0
        def jets(self, x):
            t = x[:, 0]
            return t**3, 3 * t[:, None] ** 2, 6 * t[:, None, None], np.zeros((len(t), 1, 1, 1))

    pts1 = [np.array([t]) for t in np.linspace(-0.5, 0.5, 21)]
    assert verify_deform_bounds(Cubic(), pts1)["etaObserved"] < 0.1


def test_circle_pair_wrappers(deformed):
    # |d(cos h)| and |d(sin h)| are |sin h| |grad h| and |cos h| |grad h|, at most |grad h|
    grid = deform_grid(deformed.model, deformed.profile, radial=30, angular=8)
    rep = verify_deform_bounds(deformed, grid)
    assert set(rep["circle_pair"]) == {"max_first_derivative", "max_second_derivative"}
    assert rep["circle_pair"]["max_first_derivative"] > 0
    assert rep["circle_pair"]["max_first_derivative"] <= rep["maxGrad"] + 1e-9
    assert rep["circle_pair"]["max_second_derivative"] > 0


def eta_observed_reference(grads, hess):
    """etaObserved from one SVD over every row, before the SVDs were pruned."""
    return eta_margin(grads, np.linalg.svd(hess, compute_uv=False)[:, -1])


def assert_same_margin(grads, hess):
    try:
        want = eta_observed_reference(grads, hess)
    except np.linalg.LinAlgError:  # a NaN Hessian: the pruned margin raises too
        with pytest.raises(np.linalg.LinAlgError):
            _eta_observed(grads, hess)
        return
    got = _eta_observed(grads, hess)
    assert got == want or (np.isnan(got) and np.isnan(want)), (got, want)


@given(st.data())
def test_pruned_eta_margin_equals_the_full_svd(data):
    rows, n = data.draw(st.integers(0, 3 * SVD_ROWS)), data.draw(st.integers(1, 3))
    ties = st.sampled_from([0.0, 0.5, 1.0, 2.0])  # tied and zero gradients
    grads = data.draw(arrays(float, rows, elements=st.one_of(ties, st.floats(0.0, 4.0))))
    if rows and data.draw(st.booleans()):
        grads[:] = grads[0]  # all equal
    hess = data.draw(arrays(float, (rows, n, n), elements=st.floats(-4.0, 4.0)))
    for _ in range(data.draw(st.integers(0, 2)) if rows else 0):  # a few infinite or NaN entries
        value, i = data.draw(st.sampled_from([np.inf, np.nan])), data.draw(st.integers(0, rows - 1))
        if data.draw(st.booleans()):
            grads[i] = value
        else:
            hess[(i,) + tuple(data.draw(st.integers(0, n - 1)) for _ in range(2))] = value
    assert_same_margin(grads, hess)


def last_row(value, rows=200):
    """Singular Hessians but the last, which holds value: with |grad| ascending
    from 0 the margin is 0 after one chunk, and the last row is never reached."""
    return np.where(np.arange(rows)[:, None, None] == rows - 1, value, np.zeros((2, 2)))


@pytest.mark.parametrize(
    "grads, hess",
    [
        (np.zeros(0), np.zeros((0, 2, 2))),
        (np.zeros(200), np.ones((200, 1, 1))),
        (np.full(200, np.inf), np.ones((200, 2, 2))),
        (np.append(np.linspace(0.0, 1.0, 199), np.nan), last_row(1.0)),
        (np.linspace(0.0, 1.0, 200), last_row(np.inf)),
        (np.linspace(0.0, 1.0, 200), last_row(np.nan)),
        # the first chunk leaves the margin at 0.5; the second chunk straddles it and lowers it to 0.4
        (
            np.concatenate([np.linspace(0.0, 0.3, SVD_ROWS), np.linspace(0.4, 0.9, SVD_ROWS)]),
            np.where(np.arange(2 * SVD_ROWS)[:, None, None] == SVD_ROWS, 0.0, 0.5 * np.eye(2)),
        ),
    ],
    ids=[
        "empty", "zero-gradients", "infinite-gradients", "nan-gradient", "infinite-hessian", "nan-hessian",
        "minimum-in-a-later-chunk",
    ],
)
def test_pruned_eta_margin_edge_stacks(grads, hess):
    assert_same_margin(grads, hess)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k, D", [(1e3, 1), (1e4, 2), (1e5, 1)])
def test_deform_bounds_eta_matches_the_full_svd_reference(monkeypatch, n, k, D):
    h = DeformedMorse(MorseModel.quadratic(n, value=0.5), build_cutoff(k, D, 1.0))
    grid = deform_grid(h.model, h.profile)
    _, g, hess, _ = h.jets(grid)
    want = eta_observed_reference(_row_norms(g), hess)
    svd, seen = np.linalg.svd, []

    def spy(a, **kwargs):
        seen.append(len(a))
        return svd(a, **kwargs)

    monkeypatch.setattr(morse.np.linalg, "svd", spy)
    assert verify_deform_bounds(h, grid)["etaObserved"] == want
    assert sum(seen) <= 3 * SVD_ROWS  # only chunks that start below the running margin, of 399 or 4,777 rows
