"""Deformations of a Morse function with pinned transversality behavior.

Model: a Morse function f on R^n whose critical points are exactly
quadratic, f = c_j + sum(sign_i x_i^2), inside a ball of radius c0 around
each center (base metric).  The deformation at scale k works in rescaled
coordinates x_resc = sqrt(k) x_base and replaces f_k = sqrt(k) f inside
each rescaled ball of radius sqrt(k) c0 by

    h(x) = f_k( l(|y|) y ),     y = x - sqrt(k) p_j,

with l a cutoff profile (see cutoff.py).  Since l = 1 on the outer shell
the two definitions agree there, and on the flat core l = k^(1/4) turns
the shallow rescaled well back into the unit-size quadratic
sqrt(k) c_j + sum(sign_i y_i^2).  Outside every ball h = f_k, where
f is the quadratic of MorseModel.background, a CriticalPoint (None leaves
f undefined there).

DeformedMorse.jets gives the value, gradient, Hessian and third derivative
in the rescaled metric, at a point or at each row of an (N, n) stack.  As
sum(sign_i u_i^2) = l(|y|)^2 sum(sign_i y_i^2) for u = l(|y|) y, h is a
radial function times a fixed quadratic form, and the jets follow from the
Leibniz rule with no derivative of u; they back the empirical bounds

    max |grad h| = O(D),  grad h eta-transverse to 0,  max |d^3 h| = O(1/D)

with constants that a sweep over k checks for scale stability.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

import numpy as np

from .localtrans import BLOCK_ENTRIES, eta_margin

CORE_RADII, OUTER_RADII = 24, 12  # deform_grid's radii on the flat core and where l = 1


class CriticalPoint(namedtuple("CriticalPoint", "center value signs")):
    """center: base-metric coordinates; value: f there; signs: +1 / -1 per coordinate."""

    __slots__ = ()


def _rows(v, k):
    """A vector with one entry per row, shaped to broadcast over k more axes."""
    return v.reshape((-1,) + (1,) * k)


def _row_norms(a):
    """np.linalg.norm of each flattened row.  The stacked matmul (as in
    (y * y)[:, None, :] @ signs below) makes one BLAS dot per row, which
    rounds as np.dot does on that row alone."""
    a = a.reshape(len(a), 1, -1)
    return np.sqrt((a @ a.transpose(0, 2, 1))[:, 0, 0])


def _sym(m, v):
    """Sym(m (x) v)_abc = m_ab v_c + m_ac v_b + m_bc v_a at each row of v, for a
    symmetric m that is one (n, n) matrix or one per row."""
    return (
        m[..., :, :, None] * v[:, None, None, :] + m[..., :, None, :] * v[:, None, :, None]
        + m[..., None, :, :] * v[:, :, None, None]
    )


def _quadratic_jets(c, signs, y):
    """(value, gradient, Hessian, third derivative) of c + sum(sign_i y_i^2) at the rows of y."""
    N, n = y.shape
    hess = np.broadcast_to(2.0 * np.diag(signs), (N, n, n))
    return c + ((y * y)[:, None, :] @ signs)[:, 0], 2.0 * signs * y, hess, np.zeros((N, n, n, n))


class MorseModel(namedtuple("MorseModel", "n crits background", defaults=(None,))):
    """Critical-point data in dimension n.  background is the CriticalPoint
    whose quadratic c + sum(sign_i (x - p)_i^2) extends over the far region
    outside every critical ball, or None where f is not defined there."""

    __slots__ = ()

    def __new__(cls, n, crits, background=None):
        crits = tuple(crits)
        for c in crits + (() if background is None else (background,)):
            if len(c.center) != n or len(c.signs) != n:
                raise ValueError("critical point data does not match dimension")
            if any(s not in (-1, 1) for s in c.signs):
                raise ValueError("signs must be +-1")
        return super().__new__(cls, n, crits, background)

    @classmethod
    def quadratic(cls, n, value=0.0, signs=None, center=None):
        """One critical point whose quadratic model extends globally."""
        signs = tuple(signs) if signs is not None else tuple((-1) ** i for i in range(n))
        center = tuple(center) if center is not None else (0.0,) * n
        crit = CriticalPoint(center, float(value), signs)
        return cls(n, [crit], background=crit)


class DeformedMorse:
    """Closed-form jets of the deformed function in rescaled coordinates."""

    def __init__(self, model, profile):
        for a, b in combinations(model.crits, 2):
            d = np.linalg.norm(np.asarray(a.center) - np.asarray(b.center))
            if d <= 2.0 * profile.c0:
                raise ValueError(
                    "critical points at distance %g violate the > 2 c0 = %g separation" % (d, 2.0 * profile.c0)
                )
        self.model = model
        self.profile = profile
        self.k = profile.k
        self.sqrt_k = float(np.sqrt(profile.k))
        self.ball_radius = self.sqrt_k * profile.c0

    def jets(self, x):
        """(value, gradient, Hessian, third derivative) at a rescaled point (n,), or
        on a leading N axis at each row of a stack (N, n), bit for bit as one by one."""
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        N, n = xs.shape
        out = (np.empty(N), np.empty((N, n)), np.empty((N, n, n)), np.empty((N, n, n, n)))
        left = np.ones(N, dtype=bool)  # rows outside every critical ball seen so far
        parts = []  # (rows, their jets)
        for crit in self.model.crits:
            y = xs - self.sqrt_k * np.asarray(crit.center, dtype=float)
            t = _row_norms(y)
            ball = left & (t <= self.ball_radius)
            left &= ~ball
            core = ball & (t <= self.profile.t_flat)  # flat core: exactly the unit quadratic
            ring = ball & ~core
            signs, base = np.asarray(crit.signs, dtype=float), self.sqrt_k * crit.value
            parts.append((core, _quadratic_jets(base, signs, y[core])))
            parts.append((ring, self._ring_jets(base, signs, y[ring], t[ring])))
        if left.any():
            far = self.model.background
            if far is None:
                raise ValueError("point outside every critical ball and no background given")
            y = xs[left] / self.sqrt_k - np.asarray(far.center, dtype=float)
            v, g, h, t3 = _quadratic_jets(far.value, np.asarray(far.signs, dtype=float), y)
            parts.append((left, (self.sqrt_k * v, g, h / self.sqrt_k, t3 / self.k)))
        for rows, jets in parts:
            for o, j in zip(out, jets):
                o[rows] = j
        return tuple(o[0] for o in out) if np.ndim(x) == 1 else out

    def _ring_jets(self, base, signs, y, t):
        """Jets of base + G q / sqrt(k) at rows y of norm t, by the Leibniz rule:
        sum(sign_i u_i^2) with u = l(|y|) y is G q, for the radial G = g(|y|),
        g = l^2, and the fixed quadratic form q = sum(sign_i y_i^2)."""
        l, l1, l2, l3 = self.profile.jets(t)
        g1, g2, g3 = 2.0 * l * l1, 2.0 * (l1 * l1 + l * l2), 2.0 * (3.0 * l1 * l2 + l * l3)  # g = l^2
        r, eye = y / t[:, None], np.eye(y.shape[1])
        rr, a = r[:, :, None] * r[:, None, :], g2 - g1 / t
        G, dG = l * l, _rows(g1, 1) * r
        d2G = _rows(a, 2) * rr + _rows(g1 / t, 2) * eye
        d3G = _rows(g3 - 3.0 * g2 / t + 3.0 * g1 / (t * t), 3) * rr[:, :, :, None] * r[:, None, None, :]
        d3G += _rows(a / t, 3) * _sym(eye, r)
        q, dq, d2q = ((y * y)[:, None, :] @ signs)[:, 0], 2.0 * signs * y, 2.0 * np.diag(signs)
        dGdq = dG[:, :, None] * dq[:, None, :]
        grad = _rows(q, 1) * dG + _rows(G, 1) * dq
        hess = _rows(q, 2) * d2G + dGdq + dGdq.transpose(0, 2, 1) + _rows(G, 2) * d2q
        third = _rows(q, 3) * d3G + _sym(d2G, dq) + _sym(d2q, dG)
        return base + G * q / self.sqrt_k, grad / self.sqrt_k, hess / self.sqrt_k, third / self.sqrt_k


def deform_grid(model, profile, radial=160, angular=24):
    """Sample points covering the flat core, both bands, the power annulus
    and a thin collar outside the deformation ball.

    h is invariant under the rotations that keep the signs S of the first
    critical point, so a direction r matters only through r^T S r.  For
    n >= 2 the directions are ``angular`` evenly spaced angles on the
    circle through the first + axis and the first - axis (axes 1 and 2
    when all signs agree), which reach r^T S r = cos 2 phi in every
    dimension; n = 1 has the two directions +-1.
    """
    sqrt_k = float(np.sqrt(profile.k))
    ball = sqrt_k * profile.c0
    radii = np.concatenate(
        [
            np.linspace(0.0, profile.t_flat, CORE_RADII, endpoint=False),
            np.geomspace(profile.t_flat, profile.t_one, radial, endpoint=False),
            np.linspace(profile.t_one, ball, OUTER_RADII),
            np.linspace(ball * 1.01, ball * 1.25, 4) if model.background is not None else [],
        ]
    )
    n, signs = model.n, list(model.crits[0].signs)
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        axes = [signs.index(1), signs.index(-1)] if len(set(signs)) == 2 else [0, 1]
        angles = np.linspace(0.0, 2.0 * np.pi, angular, endpoint=False)
        dirs = np.zeros((angular, n))
        dirs[:, axes] = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    center = sqrt_k * np.asarray(model.crits[0].center, dtype=float)
    shells = radii[radii != 0.0, None, None] * dirs  # (radius, direction, coordinate)
    return np.concatenate([center[None], center + shells.reshape(-1, n)])


def _jet_blocks(h, grid):
    """h.jets over a grid, one block of rows at a time: the third derivative
    takes n^3 entries per row, and a block about BLOCK_ENTRIES in all."""
    grid = np.asarray(grid, dtype=float)
    rows = max(1, BLOCK_ENTRIES // grid.shape[1] ** 3)
    return (h.jets(grid[i : i + rows]) for i in range(0, len(grid), rows))


FD_SAMPLES, FD_SEED = 24, 7  # deform_fd_check's sample count and seed


def deform_fd_check(h):
    """The largest relative gap between the closed-form gradient and central
    differences of step 1e-6 max(t, 1), at FD_SAMPLES seeded points of the
    power annulus, |x| = t in [1.05 t_pow_lo, 0.95 t_pow_hi].  Every sample
    x and its 2n neighbours x +- step e_j go into one stack that _jet_blocks
    evaluates, and each difference is formed as central_difference forms
    it, so the report is the per-point loop's bit for bit."""
    rng = np.random.default_rng(FD_SEED)
    n, xs, steps = h.model.n, [], []
    for _ in range(FD_SAMPLES):
        t = rng.uniform(h.profile.t_pow_lo * 1.05, h.profile.t_pow_hi * 0.95)
        d = rng.normal(size=n)
        xs.append(t * d / np.linalg.norm(d))
        steps.append(1e-6 * max(t, 1.0))
    x, steps = np.array(xs)[:, None], np.array(steps)
    e = steps[:, None, None] * np.eye(n)  # (sample, j, coordinate)
    stack = np.concatenate([x, x + e, x - e], axis=1).reshape(-1, n)  # per sample: x, x + e_j, x - e_j
    blocks = [(v, g) for v, g, _, _ in _jet_blocks(h, stack)]  # each block's n^2, n^3 jets dropped at once
    v, g = (np.concatenate(b).reshape(FD_SAMPLES, 2 * n + 1, -1) for b in zip(*blocks))
    num = (v[:, 1 : n + 1, 0] - v[:, n + 1 :, 0]) / (2.0 * steps[:, None])
    err = np.max(np.abs(g[:, 0] - num), axis=1) / np.maximum(_row_norms(g[:, 0]), 1e-12)
    return {"samples": FD_SAMPLES, "max_rel_err": max([0.0, *err.tolist()])}  # a running max: NaN never wins


SVD_ROWS = 64  # rows per SVD call of _eta_observed


def _eta_observed(grads, hess):
    """eta_margin(grads, the smallest singular value of each Hessian), with SVDs
    only where a row can lower the margin.  max(|grad|, sigma) >= |grad|, so
    rows are taken in ascending |grad|, SVD_ROWS at a time, up to the first
    chunk whose smallest |grad| is at least the running margin.  Rows whose
    |grad| or Hessian is not finite go first, so a NaN gradient still gives
    NaN and a NaN Hessian still raises LinAlgError, as one SVD over every row
    would; LAPACK takes each matrix on its own and min is exact, so the
    margin is that SVD's float for float."""

    def margin(rows):
        return eta_margin(grads[rows], np.linalg.svd(hess[rows], compute_uv=False)[:, -1])

    eta = margin(~(np.isfinite(grads) & np.isfinite(hess).all(axis=(1, 2))))
    order = np.argsort(grads, kind="stable")
    for i in range(0, len(order), SVD_ROWS):
        rows = order[i : i + SVD_ROWS]
        if not grads[rows[0]] < eta:  # a NaN margin stops here too
            break
        eta = min(eta, margin(rows))
    return eta


def verify_deform_bounds(h, grid):
    """Empirical bounds over a grid: max gradient, transversality constant,
    max third derivative (Frobenius norm), all in the rescaled metric, and
    the max first and second derivatives of the circle pair (cos h, sin h),
    the pencil with quotient e^(2ih) that extends h.

    The transversality constant is the largest eta such that every grid
    point with |grad| < eta has Hessian smallest singular value >= eta,
    that is eta_margin(|grad|, smallest singular value).
    """
    blocks = []
    for v, g, hess, t3 in _jet_blocks(h, grid):
        c, s = _rows(np.cos(v), 2), _rows(np.sin(v), 2)  # the pair's derivatives by the chain rule
        outer = g[:, :, None] * g[:, None, :]
        first = np.maximum(_row_norms(-s[:, 0] * g), _row_norms(c[:, 0] * g))
        second = np.maximum(_row_norms(-c * outer - s * hess), _row_norms(-s * outer + c * hess))
        blocks.append((_row_norms(g), hess, _row_norms(t3), first, second))
    grads, hess, thirds, first, second = (np.concatenate(b) for b in zip(*blocks))
    return {
        "points": int(len(grid)),
        "maxGrad": float(np.max(grads)),
        "etaObserved": _eta_observed(grads, hess),
        "maxThird": float(np.max(thirds)),
        "circle_pair": {"max_first_derivative": float(np.max(first)), "max_second_derivative": float(np.max(second))},
    }
