import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lefpen.transversal import localtrans
from lefpen.transversal.localtrans import (
    SUP_RESOLUTION,
    CPoly,
    LocalTransInstance,
    VerificationError,
    _graph,
    ball_grid,
    eta_margin,
    eta_transverse_check,
    find_good_w0,
    random_instance,
    reverify,
    sigma_of,
    solve_w_residual,
)


def normalized(coeffs, sup_target=1.0, resolution=101):
    poly = CPoly(coeffs)
    sup = float(np.max(np.abs(poly(ball_grid(1.1, resolution)))))
    return poly.scaled(sup_target / sup)


def test_cpoly_eval_and_deriv():
    p = CPoly([1, 2, 3])  # 1 + 2z + 3z^2
    assert p(np.array([2.0 + 0j]))[0] == pytest.approx(17.0)
    dp = p.deriv()
    assert dp(np.array([2.0 + 0j]))[0] == pytest.approx(14.0)


def test_cpoly_edge_cases():
    z = ball_grid(1.1, 21)
    before = z.copy()
    # the deriv() of a constant has no coefficients and evaluates to exact zeros
    zero = CPoly([3 - 1j]).deriv()
    assert zero.coeffs == ()
    assert np.array_equal(zero(z), np.zeros_like(z)) and not np.signbit(zero(z).view(float)).any()
    # a 0-d argument gives a 0-d value
    p = CPoly([1, 2, 3])
    value = p(2.0)
    assert value.shape == () and value == 17.0
    assert p(np.array(2.0 + 0j)) == 17.0
    # Horner's rule writes only its own buffers, never the argument
    p(z)
    zero(z)
    assert np.array_equal(z, before)


# a stated bound for comparing CPoly with references that order their
# floating-point operations differently: each side lies within about
# n eps sum |c_e| |z|^e of the exact value for n coefficients (one complex
# product and one sum per Horner step), and the bound is four times that
def _within_rounding(poly, got, ref, z):
    n = len(poly.coeffs)
    scale = sum(abs(c) * np.abs(z) ** e for e, c in enumerate(poly.coeffs))
    return np.all(np.abs(got - ref) <= 4 * n * np.finfo(float).eps * scale)


# the reference for CPoly: the exponent -> coefficient map it replaced, with
# its constructor, evaluation, derivative and scaling
def _exponent_map(items):
    out = {}
    for exps, c in items:
        c = complex(c)
        if c != 0:
            out[exps] = out.get(exps, 0.0 + 0.0j) + c
    return out


def _exponent_map_eval(coeffs, z):
    out = np.zeros_like(z)
    for (e,), c in coeffs.items():
        out = out + c * z**e
    return out


def test_cpoly_matches_exponent_map_evaluation():
    # the coefficient maps agree exactly; the evaluations, summing c * z**e
    # against Horner's rule, agree within the rounding bound
    rng = np.random.default_rng(4)
    grids = [ball_grid(radius, res) for radius in (1.0, 1.1) for res in (101, 201, 401)]
    polys = [CPoly([0.5, 0.0, -0.0, 2j, 0.0])]  # zero coefficients are skipped, as the map left them out
    for _ in range(6):
        inst = random_instance(rng)
        polys += [inst.p, inst.q]
    as_map = lambda poly: _exponent_map(((e,), c) for e, c in enumerate(poly.coeffs))
    for poly in polys:
        ref = as_map(poly)
        ref_deriv = _exponent_map(((e - 1,), c * e) for (e,), c in ref.items() if e)
        factor = float(rng.uniform(0.1, 3.0))
        ref_scaled = _exponent_map((exps, c * factor) for exps, c in ref.items())
        assert as_map(poly.deriv()) == ref_deriv
        assert as_map(poly.scaled(factor)) == ref_scaled
        for z in grids:
            for got, want in ((poly, ref), (poly.deriv(), ref_deriv), (poly.scaled(factor), ref_scaled)):
                assert _within_rounding(got, got(z), _exponent_map_eval(want, z), z)


# the reference for Horner's rule itself: a plain-Python loop over Python
# complex numbers.  numpy's array x array complex product need not round as
# Python's does, so the two agree within the rounding bound, not bit for bit
def _python_horner(coeffs, z):
    out = []
    for x in z.tolist():
        v = 0j
        for c in reversed(coeffs):
            v = v * x + c
        out.append(v)
    return np.array(out, dtype=complex)


def test_cpoly_matches_python_horner():
    rng = np.random.default_rng(5)
    polys = [CPoly([0.5, 0.0, -0.0, 2j, 0.0]), CPoly([]), CPoly([1 - 2j])]
    for _ in range(4):
        inst = random_instance(rng)
        polys += [inst.p, inst.q, inst.p.deriv(), inst.q.deriv()]
    for z in (ball_grid(1.0, 101), ball_grid(1.1, 101)):
        for poly in polys:
            assert _within_rounding(poly, poly(z), _python_horner(poly.coeffs, z), z)


def test_walk_matches_whole_array_evaluation():
    # every block is evaluated by CPoly on its own, and the blocks give the
    # bits of one CPoly evaluation over the whole array: on the 101 grids'
    # 7,845 points, below numpy's 256 KiB temporary elision, and on the 201
    # and 401 grids above it; on whole blocks, and on a partial last block
    # of one point, whose product written over its operand would round
    # differently; on one point and on none
    rng = np.random.default_rng(6)
    step = localtrans.BLOCK_ENTRIES // 4
    grids = [ball_grid(radius, res) for radius in (1.0, 1.1) for res in (101, 201, 401)]
    assert {z.nbytes >= 256 * 1024 for z in grids} == {False, True}
    big = grids[-1]
    grids += [big[: 2 * step], big[: 2 * step + 1], big[:1], big[:0]]
    assert {z.size % step for z in grids if z.size > step} > {0}
    sets = [[CPoly([0.5, 0.0, -0.0, 2j, 0.0]), CPoly([0.0, 1.0]), CPoly([0.0]), CPoly([])]]
    for _ in range(4):
        inst = random_instance(rng)
        sets.append([inst.p, inst.q, inst.p.deriv(), inst.q.deriv()])
    for polys in sets:
        for z in grids:
            blocks = list(localtrans._walk(polys, z))
            assert len(blocks) == -(-z.size // step)
            for i, poly in enumerate(polys):
                got = np.concatenate([values[i] for _, values in blocks] or [np.zeros(0, dtype=complex)])
                assert np.array_equal(got, poly(z))


def test_graph_and_margins_match_whole_arrays():
    # _attempt's graph step and both verify grids, walked in blocks, against
    # the same expressions over whole-array CPoly values
    rng = np.random.default_rng(8)
    sizes = []
    for delta, pexp in ((0.1, 2), (0.45, 1)) * 2:
        inst = random_instance(rng, delta=delta, pexp=pexp)
        p, q, dp, dq = inst.p, inst.q, inst.p.deriv(), inst.q.deriv()
        for res in (101, 201, 401):
            z = ball_grid(1.1, res)
            pv, qv = p(z), q(z)
            w = (pv - np.conj(pv) * qv) / (1.0 - np.abs(qv) ** 2)
            residual = float(np.max(np.abs(pv - w - np.conj(w) * qv), initial=0.0))
            l = np.abs(dp(z) - np.conj(w) * dq(z))
            blocks = localtrans._walk([p, q], z)
            assert np.array_equal(np.concatenate([_graph(*values)[0] for _, values in blocks]), w)
            got_residual, images = localtrans._near_critical(inst, z)
            assert got_residual == residual
            assert np.array_equal(images, w[l <= localtrans.C * inst.sigma])
            sizes.append((images.size, z.size))
        w0 = complex(*(delta * rng.uniform(-0.7, 0.7, size=2)))
        for res in (201, 401):  # _attempt's verify grid and reverify's
            zv = ball_grid(1.0, res)
            s = np.abs(p(zv) - w0 - np.conj(w0) * q(zv))
            ds = np.abs(dp(zv) - np.conj(w0) * dq(zv))
            i = int(np.argmin(np.maximum(s, ds)))
            worst = (complex(zv[i]), float(s[i]), float(ds[i]))
            assert localtrans._verify(inst, w0, zv) == (eta_margin(s, ds), worst)
    assert any(0 < n < size for n, size in sizes)  # the mask picks some points, not all


def _w(p, q, z):
    """The graph w(z) at the points z."""
    return _graph(p(z), q(z))[0]


def test_sigma_closed_form():
    assert sigma_of(0.1, 2) == pytest.approx(0.1 / math.log(10) ** 2)
    assert sigma_of(0.1, 2) == pytest.approx(0.0188611, abs=1e-6)


def test_solve_w_cases():
    # q = 0: w = p(z)
    p = CPoly([0, 1])
    q0 = CPoly([0.0])
    z = np.array([0.3 + 0.2j])
    assert _graph(p(z), q0(z))[0][0] == pytest.approx(z[0])
    # closed-form check: p(z) = z, q = 1/2, z = 1 -> w = 2/3
    qh = CPoly([0.5])
    one = np.array([1.0 + 0j])
    w = _graph(p(one), qh(one))[0][0]
    assert w == pytest.approx(2.0 / 3.0)
    assert abs(1.0 - w - w.conjugate() * 0.5) < 1e-14
    # real data gives real w
    pr = CPoly([0.25, -0.5, 0.125])
    zr = np.array([0.7 + 0j])
    assert abs(_graph(pr(zr), qh(zr))[0][0].imag) < 1e-15


def test_solve_w_degenerate_q():
    p = CPoly([0, 1])
    q = CPoly([1.0])
    z = np.array([0.5 + 0j])
    with pytest.raises(ValueError):
        _graph(p(z), q(z))
    # |q| >= 1 on both rims of the 201 grid, most at z = 1.1 in its second
    # block: the walk's error still names the whole grid's max |q| and size
    inst = LocalTransInstance(p, CPoly([0.02, 0.95]), 0.2, 0.1, 2)
    z = ball_grid(1.1, 201)
    whole = "max |q| = %r >= 1 on 31417 points" % float(np.max(np.abs(inst.q(z))))
    with pytest.raises(ValueError, match=re.escape(whole)):
        localtrans._near_critical(inst, z)


def test_solve_w_residual_small():
    rng = np.random.default_rng(0)
    z = ball_grid(1.1, 51)
    for _ in range(20):
        inst = random_instance(rng)
        assert solve_w_residual(inst.p, inst.q, z) < 1e-10


# references for the graph's derivative along z: the closed-form Jacobian and a
# finite-difference spot check of |dw/dz| <= 2 kappa^-1 |l(z)|, both through _graph
FD_STEP = 1e-7


def dw_dz_jacobian(p, q, z):
    """Real 2x2 Jacobian of the graph z -> w(z) at a point, closed form.

    Differentiating s(z, w(z)) = 0 gives dw/dz = -(ds/dw)^(-1) ds/dz with
    ds/dw = -(Id + antilinear multiplication by q(z)) and ds/dz the
    complex multiplication by p'(z) - conj(w) q'(z).
    """
    z = np.array([complex(z)])
    w = complex(_w(p, q, z)[0])
    qv = complex(q(z)[0])
    l = complex(p.deriv()(z)[0] - np.conj(w) * q.deriv()(z)[0])
    m_w = -(np.eye(2) + np.array([[qv.real, qv.imag], [qv.imag, -qv.real]]))
    m_z = np.array([[l.real, -l.imag], [l.imag, l.real]])
    return -np.linalg.solve(m_w, m_z)


def dw_dz_bound_check(p, q, z, kappa):
    z = np.asarray(z, dtype=complex)
    l = np.abs(p.deriv()(z) - np.conj(_w(p, q, z)) * q.deriv()(z))
    wx = (_w(p, q, z + FD_STEP) - _w(p, q, z - FD_STEP)) / (2.0 * FD_STEP)
    wy = (_w(p, q, z + 1j * FD_STEP) - _w(p, q, z - 1j * FD_STEP)) / (2.0 * FD_STEP)
    # operator norm of the real 2x2 Jacobian with columns (wx, wy), per point
    jac = np.stack([np.stack([wx.real, wy.real], -1), np.stack([wx.imag, wy.imag], -1)], -2)
    norms = np.linalg.svd(jac, compute_uv=False)[..., 0]
    margin = 2.0 / kappa * l - norms
    return {
        "max_dw_norm": float(np.max(norms)),
        "min_margin": float(np.min(margin)),
        "ok": bool(np.min(margin) >= -1e-6),
    }


def test_dw_dz_bound():
    inst = LocalTransInstance(
        normalized([-0.25, 0, 1.0]), CPoly([0.5]), 0.5, 0.1, 2
    )
    rep = dw_dz_bound_check(inst.p, inst.q, ball_grid(0.9, 15), inst.kappa)
    assert rep["ok"]


def test_dw_dz_bound_matches_per_point_svd():
    # reference: one 2x2 SVD per grid point, as a loop
    rng = np.random.default_rng(5)
    z = ball_grid(0.9, 15)
    h = FD_STEP
    for _ in range(5):
        inst = random_instance(rng)
        p, q = inst.p, inst.q
        wx = (_w(p, q, z + h) - _w(p, q, z - h)) / (2.0 * h)
        wy = (_w(p, q, z + 1j * h) - _w(p, q, z - 1j * h)) / (2.0 * h)
        norms = [
            np.linalg.svd(np.array([[a.real, b.real], [a.imag, b.imag]]), compute_uv=False)[0]
            for a, b in zip(wx.ravel(), wy.ravel())
        ]
        assert dw_dz_bound_check(p, q, z, inst.kappa)["max_dw_norm"] == float(np.max(norms))


def test_dw_dz_jacobian_vs_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(8):
        inst = random_instance(rng)
        for z in (0.3 + 0.1j, -0.5 + 0.4j, 0.05 - 0.7j):
            jac = dw_dz_jacobian(inst.p, inst.q, z)
            step = 1e-6
            p, q = inst.p, inst.q
            wx = (_w(p, q, np.array([z + step]))[0] - _w(p, q, np.array([z - step]))[0]) / (2 * step)
            wy = (_w(p, q, np.array([z + 1j * step]))[0] - _w(p, q, np.array([z - 1j * step]))[0]) / (2 * step)
            num = np.array([[wx.real, wy.real], [wx.imag, wy.imag]])
            scale = max(np.linalg.norm(jac), 1e-9)
            assert np.max(np.abs(jac - num)) / scale < 1e-5


def sampled_sups(inst):
    """Check the sup bounds of an instance, sampled on the disc of radius 11/10
    as random_instance normalizes them."""
    z = ball_grid(1.1, SUP_RESOLUTION)
    sup_p = float(np.max(np.abs(inst.p(z))))
    sup_q = float(np.max(np.abs(inst.q(z))))
    if sup_p > 1.0 + 1e-12:
        raise ValueError("sampled sup |p| = %g exceeds 1" % sup_p)
    if sup_q > 1.0 - inst.kappa + 1e-12:
        raise ValueError("sampled sup |q| = %g exceeds 1 - kappa" % sup_q)


def test_instance_invariants():
    sampled_sups(random_instance(np.random.default_rng(1)))
    with pytest.raises(ValueError):
        sampled_sups(LocalTransInstance(CPoly([2.0]), CPoly([0.0]), 0.2, 0.1, 2))
    with pytest.raises(ValueError):
        sampled_sups(LocalTransInstance(CPoly([0.5]), CPoly([0.9]), 0.2, 0.1, 2))
    with pytest.raises(ValueError):
        LocalTransInstance(CPoly([0.5]), CPoly([0.0]), 0.2, 0.7, 2)


def test_eta_transverse_check_examples():
    grid = ball_grid(1.0, 41)
    ident = CPoly([0, 1])
    assert eta_transverse_check(ident, ident.deriv(), grid, 1.0)
    square = CPoly([0, 0, 1])
    assert not eta_transverse_check(square, square.deriv(), grid, 0.05)
    const = CPoly([0.9])
    assert eta_transverse_check(const, const.deriv(), grid, 0.5)  # vacuous


# few distinct values, so that eta often ties with a sample
_norms = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 4.0)


@given(st.data())
def test_eta_margin_matches_reference_mask(data):
    n = data.draw(st.integers(0, 20))
    f = data.draw(arrays(np.float64, n, elements=_norms))
    d = data.draw(arrays(np.float64, n, elements=_norms))
    eta = data.draw(st.sampled_from([0.0] + np.concatenate([f, d]).tolist()) | _norms)
    assert (eta_margin(f, d) >= eta) == bool(np.all(d[f < eta] >= eta))


def test_find_good_w0_reference_instance():
    inst = LocalTransInstance(
        normalized([-0.25, 0, 1.0]), CPoly([0.5]), 0.5, 0.1, 2
    )
    cert = find_good_w0(inst)
    assert cert.margin >= inst.sigma
    assert abs(cert.w0) <= inst.delta
    assert reverify(inst, cert)


def test_find_good_w0_unperturbed_case():
    # q = 0 degenerates to avoiding critical values of p
    inst = LocalTransInstance(normalized([0.0, 0.2, 0.0, 1.0]), CPoly([0.0]), 0.2, 0.1, 2)
    cert = find_good_w0(inst)
    assert cert.margin >= inst.sigma
    assert reverify(inst, cert)


def test_find_good_w0_failure_reports():
    # a near-constant slope |p'| below C sigma makes every w in the disc
    # sit inside the dangerous neighborhood: no clear region exists
    p = CPoly([0.0, 4e-4])
    inst = LocalTransInstance(p, CPoly([0.0]), 0.2, 1e-3, 1)
    reason = "^no sigma-transverse w0 found after refinement: no clear region in the w-disc$"
    with pytest.raises(VerificationError, match=reason):
        find_good_w0(inst, graph_resolution=81, w_resolution=41, verify_resolution=81)


@pytest.mark.parametrize("grid", ["graph", "verify", "w"])
@pytest.mark.parametrize("res", [1, 2, 0, -1])
def test_find_good_w0_rejects_an_empty_grid(grid, res):
    # an empty verify grid has margin inf, and an empty graph grid no near-critical image,
    # so either would certify the whole w-disc; an empty w grid has no w0 to pick
    for radius in (1.0, 1.1, 0.1):  # the verify, graph and w discs
        assert ball_grid(radius, max(res, 0)).size == 0 < ball_grid(radius, 3).size
    inst = LocalTransInstance(normalized([-0.25, 0, 1.0]), CPoly([0.5]), 0.5, 0.1, 2)
    with pytest.raises(ValueError, match="^the %s grid at resolution %d has no points in the disc$" % (grid, res)):
        find_good_w0(inst, **{grid + "_resolution": res})


def test_find_good_w0_margin_failure_names_both_sides(monkeypatch):
    # with no neighborhood every image is clear, so w0 is the first disc point -0.1;
    # p - w0 = z^2 then has its critical zero at z = 0, where |s| and |ds/dz| both vanish
    monkeypatch.setattr(localtrans, "C", -1.0)
    inst = LocalTransInstance(CPoly([-0.1, 0, 1.0]), CPoly([0.0]), 0.2, 0.1, 2)
    with pytest.raises(VerificationError) as failure:
        find_good_w0(inst)
    assert str(failure.value) == (
        "no sigma-transverse w0 found after refinement: at z = 0j, |s| = 0.0 and |ds/dz| = 0.0"
        " are both below sigma = %r (w0 = (-0.1+0j))" % inst.sigma
    )


def test_seeded_trials_success_rate():
    rng = np.random.default_rng(123)
    ok = 0
    for _ in range(20):
        inst = random_instance(rng)
        try:
            cert = find_good_w0(inst)
            assert reverify(inst, cert)
            ok += 1
        except VerificationError:
            pass
    assert ok >= 19


# the reference for localtrans._label_components: a per-cell flood fill
def _flood_components(free, res):
    """Connected components (4-neighbor) of a boolean res x res grid."""
    labels = np.full(free.shape, -1, dtype=int)
    count = 0
    for start in range(free.size):
        if not free.flat[start] or labels.flat[start] >= 0:
            continue
        stack = [start]
        labels.flat[start] = count
        while stack:
            idx = stack.pop()
            i, j = divmod(idx, res)
            for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= ni < res and 0 <= nj < res:
                    nidx = ni * res + nj
                    if free.flat[nidx] and labels.flat[nidx] < 0:
                        labels.flat[nidx] = count
                        stack.append(nidx)
        count += 1
    return labels, count


def _equal_size_grids():
    # isolated cells, then blocks and bars of four cells whose first cells
    # come in a different raster order than their other cells
    checker = np.indices((9, 9)).sum(axis=0) % 2 == 0
    blocks = np.zeros((12, 12), dtype=bool)
    blocks[1:3, 7:9] = blocks[2:4, 1:3] = blocks[8:10, 4:6] = True
    bars = np.zeros((10, 10), dtype=bool)
    bars[0:4, 6] = bars[1, 0:4] = bars[6, 2:6] = bars[5:9, 9] = True
    return [checker, blocks, bars]


def _instance_free_grids(monkeypatch):
    # the free grids that find_good_w0 labels, recorded on the way through
    seen = []
    label = localtrans._label_components
    monkeypatch.setattr(localtrans, "_label_components", lambda free: seen.append(free.copy()) or label(free))
    for delta, res in ((0.1, 201), (0.2, 61)):
        rng = np.random.default_rng(3)
        for _ in range(6):
            try:
                find_good_w0(random_instance(rng, delta=delta), res, res, res)
            except VerificationError:
                pass
    monkeypatch.undo()
    return seen


def test_label_components_matches_flood_fill(monkeypatch):
    rng = np.random.default_rng(17)
    grids = _instance_free_grids(monkeypatch)
    assert any(_flood_components(g, len(g))[1] > 1 for g in grids)  # not all one blob
    grids += [rng.random((res, res)) < density for res in (1, 2, 7, 30, 64) for density in (0.3, 0.55, 0.8)]
    grids += _equal_size_grids()
    grids += [np.zeros((15, 15), dtype=bool), np.ones((15, 15), dtype=bool)]
    for free in grids:
        labels, count = localtrans._label_components(free)
        ref_labels, ref_count = _flood_components(free, len(free))
        assert count == ref_count
        assert np.array_equal(labels, ref_labels)


def test_label_components_tie_break_is_first_in_raster_order():
    # find_good_w0 keeps the argmax of the component sizes; among equal
    # sizes that is the component whose first cell comes first
    for free in _equal_size_grids():
        labels, count = localtrans._label_components(free)
        sizes = np.bincount(labels[free], minlength=count)
        assert len(set(sizes)) == 1
        first = np.flatnonzero(free.ravel())[0]
        assert labels.flat[first] == int(np.argmax(sizes)) == 0


def test_nearest_distance_blocks_match_one_block():
    # blocks split the points, and the targets too once they outnumber
    # BLOCK_ENTRIES; the minimum is exact, so any split gives the same bits
    rng = np.random.default_rng(2)
    for m, n in ((3000, 0), (3000, 1), (3000, 50), (8, 2 * localtrans.BLOCK_ENTRIES + 7)):
        points = rng.normal(size=m) + 1j * rng.normal(size=m)
        targets = rng.normal(size=n) + 1j * rng.normal(size=n)
        whole = np.min(np.abs(points[:, None] - targets[None, :]), axis=1, initial=np.inf)
        assert np.array_equal(localtrans._nearest_distance(points, targets), whole)


# _clear and _farthest against the all-pairs distance
def _disc_points(res, delta=0.1):
    axis = np.linspace(-delta, delta, res)
    w = (axis[:, None] + 1j * axis[None, :]).ravel()
    return w[np.abs(w) <= delta]


def _assert_matches_all_pairs(points, targets, radius):
    dist = localtrans._nearest_distance(points, targets)
    assert np.array_equal(localtrans._clear(points, targets, radius), dist > radius)
    assert localtrans._farthest(points, targets) == int(np.argmax(dist))


def _rim_targets(points, radius):
    # per cell, a target on the line through the centre and its farthest
    # point, at radius - h and at radius + h from the centre: the exact
    # distance to that point is the radius, so rounding decides both sides
    cell, centres, half = localtrans._buckets(points)
    far = np.zeros(centres.size, dtype=int)
    off = np.abs(points - centres[cell])
    for k in range(centres.size):
        members = np.flatnonzero(cell == k)
        far[k] = members[np.argmax(off[members])]
    h = off[far]
    unit = (points[far] - centres) / np.where(h > 0, h, 1.0)
    return np.concatenate([centres - (radius - h) * unit, centres + (radius + h) * unit])


def test_clear_and_farthest_empty_bad_set():
    points = _disc_points(41)
    assert localtrans._clear(points, np.zeros(0, dtype=complex), 0.01).all()
    assert localtrans._farthest(points, np.zeros(0, dtype=complex)) == 0  # the first main-component cell


def test_clear_and_farthest_one_and_far_targets():
    rng = np.random.default_rng(5)
    points = _disc_points(61)
    for scale in (0.05, 1.0, 100.0):  # inside the disc, around it, far outside
        for n in (1, 7):
            targets = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
            for radius in (0.001, 0.03, 0.3, 300.0):
                _assert_matches_all_pairs(points, targets, radius)


def test_clear_targets_exactly_at_the_radius():
    # the radius is the float distance of a chosen point: it is not clear
    rng = np.random.default_rng(6)
    points = _disc_points(81)
    for _ in range(40):
        targets = 0.1 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        radius = float(np.abs(points[rng.integers(points.size)] - targets[0]))
        _assert_matches_all_pairs(points, targets, radius)


def _rim_cases():
    # both halves of the rim targets together, then the radius - h and the
    # radius + h halves each on its own
    rng = np.random.default_rng(7)
    for res, delta in ((61, 0.1), (101, 0.37), (41, 3.0)):
        points = _disc_points(res, delta)
        for _ in range(8):
            radius = float(rng.uniform(0.05, 0.6)) * delta
            rim = _rim_targets(points, radius)
            for targets in (rim, *np.split(rim, 2)):
                yield points, targets, radius


def test_clear_rim_targets_decided_by_rounding():
    for points, targets, radius in _rim_cases():
        _assert_matches_all_pairs(points, targets, radius)


def test_rim_targets_need_the_slack(monkeypatch):
    # without the widening, rounding puts some rim point on the wrong side
    # of a cell bound, so the rim construction stays adversarial
    monkeypatch.setattr(localtrans, "SLACK", 0.0)
    differs = False
    for points, targets, radius in _rim_cases():
        dist = localtrans._nearest_distance(points, targets)
        differs |= not np.array_equal(localtrans._clear(points, targets, radius), dist > radius)
        differs |= localtrans._farthest(points, targets) != int(np.argmax(dist))
    assert differs


def test_farthest_tied_maxima_take_the_first_index():
    # an exact binary grid symmetric under both reflections, and targets
    # duplicated and mirrored, so the largest distance is tied
    axis = np.arange(-32, 33) / 64.0
    points = (axis[:, None] + 1j * axis[None, :]).ravel()
    rng = np.random.default_rng(8)
    for _ in range(10):
        t = (rng.integers(-40, 41, size=3) + 1j * rng.integers(-40, 41, size=3)) / 128.0
        targets = np.concatenate([t, t, np.conj(t), -t, -np.conj(t)])
        dist = localtrans._nearest_distance(points, targets)
        assert np.sum(dist == dist.max()) > 1
        _assert_matches_all_pairs(points, targets, float(np.median(dist)))


def test_clear_points_on_cell_edges():
    # 4 CELLS + 1 exact binary points per side: every fourth grid line is a cell edge
    side = 4 * localtrans.CELLS
    axis = np.arange(side + 1) / side
    points = (axis[:, None] + 1j * axis[None, :]).ravel()
    rng = np.random.default_rng(9)
    for radius in (1 / side, 2 / side, 0.25):
        # on grid lines, some outside the square
        targets = (np.round(rng.uniform(-0.5, 1.5, size=20) * side) + 1j * rng.integers(0, side + 1, size=20)) / side
        _assert_matches_all_pairs(points, targets, radius)
        _assert_matches_all_pairs(points, _rim_targets(points, radius), radius)


def test_clear_and_farthest_bad_set_beyond_one_block():
    rng = np.random.default_rng(10)
    points = _disc_points(41)
    n = localtrans.BLOCK_ENTRIES + 123
    targets = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    targets = targets[np.abs(targets) > 0.04]  # leave a clear hole around the centre
    for radius in (0.001, 0.01):
        _assert_matches_all_pairs(points, targets, radius)


def test_clear_and_farthest_on_instance_bad_sets():
    # the w-disc and near-critical images of seeded instances, as _attempt forms them
    rng = np.random.default_rng(11)
    for delta in (0.1, 0.2):
        for _ in range(3):
            inst = random_instance(rng, delta=delta)
            z = ball_grid(1.1, 201)
            w, _ = localtrans._graph(inst.p(z), inst.q(z))
            l = np.abs(inst.p.deriv()(z) - np.conj(w) * inst.q.deriv()(z))
            radius = localtrans.C * inst.sigma
            _assert_matches_all_pairs(_disc_points(201, delta), w[l <= radius], radius)


@given(
    res=st.integers(3, 40),
    targets=arrays(complex, st.integers(0, 30), elements=st.complex_numbers(max_magnitude=2.0, allow_nan=False)),
    radius=st.floats(0.0, 3.0),
)
def test_clear_and_farthest_match_all_pairs(res, targets, radius):
    _assert_matches_all_pairs(_disc_points(res, 1.0), targets, radius)


@given(
    res=st.integers(3, 40),
    targets=arrays(complex, st.integers(0, 30), elements=st.complex_numbers(max_magnitude=2.0, allow_nan=False)),
)
def test_bounds_bracket_the_nearest_distance(res, targets):
    points = _disc_points(res, 1.0)
    cell, low, high = localtrans._bounds(points, targets)
    dist = localtrans._nearest_distance(points, targets)
    assert np.all(low[cell] <= dist) and np.all(dist <= high[cell])


def test_find_good_w0_memory_stays_blocked():
    # 118,690 near-critical images on the refined grid: every points x
    # targets array is cut into BLOCK_ENTRIES blocks, so the traced peak
    # stays near the grids' own size; one unblocked array would take GBs
    inst = random_instance(np.random.default_rng(0), delta=0.45, pexp=1)
    tracemalloc.start()
    try:
        with pytest.raises(VerificationError):
            find_good_w0(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
