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
sqrt(k) c_j + sum(sign_i y_i^2).

DeformedMorse.jets gives the value, gradient, Hessian and third derivative
in the rescaled metric, at a point or at each row of an (N, n) stack, from
closed-form chain rules through the radial map; they back the empirical bounds

    max |grad h| = O(D),  grad h eta-transverse to 0,  max |d^3 h| = O(1/D)

with constants that a sweep over k checks for scale stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .localtrans import BLOCK_ENTRIES, eta_margin

CORE_RADII, OUTER_RADII = 24, 12  # deform_grid's radii on the flat core and where l = 1


@dataclass(frozen=True)
class CriticalPoint:
    center: tuple  # base-metric coordinates
    value: float
    signs: tuple   # +1 / -1 per coordinate


def _rows(v, k):
    """A vector with one entry per row, shaped to broadcast over k more axes."""
    return v.reshape((-1,) + (1,) * k)


def _row_norms(a):
    """np.linalg.norm of each flattened row.  The stacked matmul (as in
    (u * u)[:, None, :] @ signs below) makes one BLAS dot per row, which
    rounds as np.dot does on that row alone."""
    a = a.reshape(len(a), 1, -1)
    return np.sqrt((a @ a.transpose(0, 2, 1))[:, 0, 0])


def _quadratic_jets(c, signs, y):
    """(value, gradient, Hessian, third derivative) of c + sum(sign_i y_i^2) at the rows of y."""
    N, n = y.shape
    hess = np.broadcast_to(2.0 * np.diag(signs), (N, n, n))
    return c + ((y * y)[:, None, :] @ signs)[:, 0], 2.0 * signs * y, hess, np.zeros((N, n, n, n))


@dataclass(frozen=True)
class QuadraticBackground:
    """Global quadratic extension c + sum(sign_i (x - p)_i^2) of one well."""

    crit: CriticalPoint

    def jets(self, xb):
        y = np.asarray(xb, dtype=float) - np.asarray(self.crit.center, dtype=float)
        return _quadratic_jets(self.crit.value, np.asarray(self.crit.signs, dtype=float), y)


class MorseModel:
    """Critical-point data plus a background for the far region."""

    def __init__(self, n, crits, background=None):
        self.n = n
        self.crits = list(crits)
        for c in self.crits:
            if len(c.center) != n or len(c.signs) != n:
                raise ValueError("critical point data does not match dimension")
            if any(s not in (-1, 1) for s in c.signs):
                raise ValueError("signs must be +-1")
        self.background = background

    @classmethod
    def quadratic(cls, n, value=0.0, signs=None, center=None):
        """One critical point whose quadratic model extends globally."""
        signs = tuple(signs) if signs is not None else tuple((-1) ** i for i in range(n))
        center = tuple(center) if center is not None else (0.0,) * n
        crit = CriticalPoint(center, float(value), signs)
        return cls(n, [crit], background=QuadraticBackground(crit))

    def check_separation(self, c0):
        for a, b in combinations(self.crits, 2):
            d = np.linalg.norm(np.asarray(a.center) - np.asarray(b.center))
            if d <= 2.0 * c0:
                raise ValueError(
                    "critical points at distance %g violate the > 2 c0 = %g separation" % (d, 2.0 * c0)
                )


class DeformedMorse:
    """Closed-form jets of the deformed function in rescaled coordinates."""

    def __init__(self, model, profile):
        model.check_separation(profile.c0)
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
            if self.model.background is None:
                raise ValueError("point outside every critical ball and no background given")
            v, g, h, t3 = self.model.background.jets(xs[left] / self.sqrt_k)
            parts.append((left, (self.sqrt_k * v, g, h / self.sqrt_k, t3 / self.k)))
        for rows, jets in parts:
            for o, j in zip(out, jets):
                o[rows] = j
        return tuple(o[0] for o in out) if np.ndim(x) == 1 else out

    def _ring_jets(self, base, signs, y, t):
        """Jets of base + sum(sign_i u_i^2) / sqrt(k), u = l(|y|) y, at rows y of norm t."""
        l, l1, l2, l3 = self.profile.jets(t)
        r = y / t[:, None]
        u = l[:, None] * y
        eye = np.eye(y.shape[1])

        du = _rows(l, 2) * eye + _rows(l1, 2) * (r[:, :, None] * y[:, None, :])
        # d2u[i,a,b]: fully symmetric
        sym_dr = (
            np.einsum("...a,ib->...iab", r, eye)
            + np.einsum("...b,ia->...iab", r, eye)
            + np.einsum("...i,ab->...iab", r, eye)
        )
        rrr = np.einsum("...i,...a,...b->...iab", r, r, r)
        d2u = _rows(l1, 3) * sym_dr + _rows(t * l2 - l1, 3) * rrr

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
        d3u = _rows(A, 4) * dd + _rows(B, 4) * drr + _rows(t * l3 - 3.0 * B, 4) * r4

        scale = 2.0 / self.sqrt_k
        su = signs * u
        value = base + ((u * u)[:, None, :] @ signs)[:, 0] / self.sqrt_k
        grad = scale * (su[:, None, :] @ du)[:, 0]
        hess = scale * (du.transpose(0, 2, 1) @ np.diag(signs) @ du + np.einsum("...i,...iab->...ab", su, d2u))
        third = scale * (
            np.einsum("i,...iab,...ic->...abc", signs, d2u, du)
            + np.einsum("i,...iac,...ib->...abc", signs, d2u, du)
            + np.einsum("i,...ibc,...ia->...abc", signs, d2u, du)
            + np.einsum("...i,...iabc->...abc", su, d3u)
        )
        return value, grad, hess, third


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
    """h.jets over a grid, one block of rows at a time: the jets take n^4
    scratch entries per row, and a block about BLOCK_ENTRIES in all."""
    grid = np.asarray(grid, dtype=float)
    rows = max(1, BLOCK_ENTRIES // grid.shape[1] ** 4)
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
    blocks = [(v, g) for v, g, _, _ in _jet_blocks(h, stack)]  # each block's n^3, n^4 jets dropped at once
    v, g = (np.concatenate(b).reshape(FD_SAMPLES, 2 * n + 1, -1) for b in zip(*blocks))
    num = (v[:, 1 : n + 1, 0] - v[:, n + 1 :, 0]) / (2.0 * steps[:, None])
    err = np.max(np.abs(g[:, 0] - num), axis=1) / np.maximum(_row_norms(g[:, 0]), 1e-12)
    return {"samples": FD_SAMPLES, "max_rel_err": max([0.0, *err.tolist()])}  # a running max: NaN never wins


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
        blocks.append((_row_norms(g), np.linalg.svd(hess, compute_uv=False)[:, -1], _row_norms(t3), first, second))
    grads, sigmas, thirds, first, second = (np.concatenate(b) for b in zip(*blocks))
    return {
        "points": int(len(grid)),
        "maxGrad": float(np.max(grads)),
        "etaObserved": eta_margin(grads, sigmas),
        "maxThird": float(np.max(thirds)),
        "circle_pair": {"max_first_derivative": float(np.max(first)), "max_second_derivative": float(np.max(second))},
    }
