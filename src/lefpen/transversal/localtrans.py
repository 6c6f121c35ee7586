"""Symmetric local perturbation: picking w so p - w - conj(w) q is transverse.

The local model is s(z, w) = p(z) - w - conj(w) q(z) with p, q complex
polynomials in one variable on the disc of radius 11/10 in C, |p| <= 1 and
|q| <= 1 - kappa.  For fixed z the equation s = 0 has the unique solution

    w(z) = (p - conj(p) q) / (1 - |q|^2),

a graph over that disc.  Where the z-derivative l(z) = p'(z) - conj(w) q'(z)
along the graph is small, the graph's image marks the dangerous values of
w; a good w0 stays sigma-clear of a C sigma-neighborhood of that image
and then s(., w0) is sigma-transverse to zero over the unit disc in C,
which a brute-force check certifies on the points of the verify grid: the
margin is sampled, not a bound on the continuum.  The quantitative
scale is sigma = delta (log(1/delta))^(-p) with |w0| < delta.

Everything here is desk scale: square grids, a numpy labelling of the
clear region's components in the w-disc, and an independent
re-verification of every certificate on a finer grid.  Each disc grid
is built once per (radius, resolution) in a process (_disc keeps the
last GRID_CACHE of them): its in-disc mask and points are read-only and
shared by every caller, and the square they are cut from is not kept.

Every polynomial value comes from CPoly's Horner rule, whose products are
all array x array, so a value's bits depend on its point alone.  The
z-grids are walked in blocks of BLOCK_ENTRIES // 4 points (_walk), each
folded into the graph's near-critical images (_near_critical) or the
verify margin (_verify) before the next, so no full-grid array of the
values of p, q, p' and q' exists, and the blocks give the bits of one
evaluation over the whole grid.

The w-disc never forms its all-pairs distance to the near-critical
image.  _bounds bounds each point's nearest distance by d - h and d + h,
with d the nearest distance of its cell's centre in a CELLS x CELLS
bucket grid and h the cell's half-diagonal, widened by the relative SLACK
so that float rounding cannot exclude a target or a cell.  _clear and
_farthest compute exact distances only where the bounds leave the answer
open, and give the bits the all-pairs distance would.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

SUP_RESOLUTION = 101  # grid resolution for the sampled sup bounds of p and q
MAX_DEGREE = 4  # of the random instances' p and q
C = 4.0  # w0 keeps clear of the C sigma-neighborhood of the near-critical image
REVERIFY_FACTOR = 2  # reverify's grid is about this many times finer
# array entries per block: point-target differences and the values of p, q,
# p' and q' at a block of z-grid points here, n^3 third derivatives in morse
BLOCK_ENTRIES = 1 << 16
CELLS = 16  # cells per side of the bucket grid over the w-disc points
SLACK = 1e-9  # relative widening of every cell bound, far above float rounding
# disc grids kept per process: every (radius, resolution) of one refined
# verify localtrans run, so a sweep over delta cannot grow memory without limit
GRID_CACHE = 8


class VerificationError(RuntimeError):
    """The selected w0 failed the brute-force transversality check."""


class CPoly:
    """The polynomial c0 + c1 z + c2 z^2 + ... in one complex variable,
    evaluated by Horner's rule: out = 0, then out = out * z + c for each c
    from the top coefficient down.  Each product out * z is array x array
    into a buffer of its own, never over an operand: numpy rounds a
    complex product written over a one-point operand differently."""

    def __init__(self, coeffs):
        self.coeffs = tuple(0j + complex(c) for c in coeffs)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out, product = np.zeros_like(z), np.empty_like(z)
        for c in reversed(self.coeffs):
            np.multiply(out, z, out=product)
            np.add(product, c, out=out)
        return out

    def deriv(self):
        return CPoly([c * e for e, c in enumerate(self.coeffs) if e])

    def scaled(self, factor):
        return CPoly([c * factor for c in self.coeffs])


def _walk(polys, z):
    """Yield (block, [p(z[block]) for p in polys]) per slice of
    BLOCK_ENTRIES // 4 points of the flat array z."""
    step = BLOCK_ENTRIES // 4
    for lo in range(0, z.size, step):
        block = slice(lo, lo + step)
        yield block, [p(z[block]) for p in polys]


@functools.lru_cache(maxsize=GRID_CACHE)
def _disc(radius, resolution):
    """(inside, points) of the resolution x resolution square grid over
    [-radius, radius]^2 in C: the flat raster mask of the points in the
    disc of the radius, and those points in raster order.  Both are
    read-only, and the square itself is not kept."""
    axis = np.linspace(-radius, radius, resolution)
    square = (axis[:, None] + 1j * axis[None, :]).ravel()
    inside = np.abs(square) <= radius
    points = square[inside]
    inside.flags.writeable = points.flags.writeable = False
    return inside, points


def ball_grid(radius, resolution):
    """A square grid's points in the disc of the radius in C, as a flat
    read-only array, built once per (radius, resolution)."""
    return _disc(radius, resolution)[1]


def sigma_of(delta, pexp):
    return delta * math.log(1.0 / delta) ** (-pexp)


class LocalTransInstance(namedtuple("LocalTransInstance", "p q kappa delta pexp")):
    __slots__ = ()

    def __new__(cls, p, q, kappa, delta, pexp):
        if not 0.0 < kappa < 1.0:
            raise ValueError("kappa must be in (0, 1)")
        if not 0.0 < delta < 0.5:
            raise ValueError("delta must be in (0, 1/2)")
        if pexp < 1:
            raise ValueError("pexp must be a positive integer")
        try:
            sigma = sigma_of(delta, pexp)
        except OverflowError:  # pexp or the power beyond a float
            sigma = 0.0
        if not sigma > 0.0:
            raise ValueError("sigma = delta (log 1/delta)^-pexp is not a positive float at delta = %g" % delta)
        return super().__new__(cls, p, q, kappa, delta, pexp)

    @property
    def sigma(self):
        return sigma_of(self.delta, self.pexp)


def solve_w_residual(p, q, z):
    """max |s(z, w(z))| over the given points."""
    return _graph(p(z), q(z))[1]


def _degenerate(qabs):
    qmax = float(np.max(qabs))
    return ValueError("the graph equation degenerates: max |q| = %r >= 1 on %d points" % (qmax, qabs.size))


def _graph(pv, qv):
    """(w solving s(z, w) = 0, max |s(z, w)|) at points where p and q take
    the values pv and qv; ValueError unless every |q| < 1."""
    qabs = np.abs(qv)
    if np.any(qabs >= 1.0):
        raise _degenerate(qabs)
    w = (pv - np.conj(pv) * qv) / (1.0 - qabs**2)
    return w, float(np.max(np.abs(pv - w - np.conj(w) * qv), initial=0.0))


def _near_critical(inst, z):
    """(max |s(z, w(z))|, the images w(z) where l(z) = |p' - conj(w) q'| <= C sigma)
    over the points z, walked in blocks.  A degenerate graph's ValueError
    names the max |q| and the number of all the points."""
    dp, dq = inst.p.deriv(), inst.q.deriv()
    residuals, images = [], [np.zeros(0, dtype=complex)]
    for _, (pv, qv, dpv, dqv) in _walk([inst.p, inst.q, dp, dq], z):
        try:
            w, residual = _graph(pv, qv)
        except ValueError:
            raise _degenerate(np.abs(inst.q(z))) from None
        residuals.append(residual)
        images.append(w[np.abs(dpv - np.conj(w) * dqv) <= C * inst.sigma])
    return float(np.max(residuals, initial=0.0)), np.concatenate(images)


def eta_margin(fnorm, dnorm):
    """The largest eta for which the samples are eta-transverse: every sample
    with |f| < eta has |df| >= eta iff eta <= max(|f|, |df|) at every sample."""
    return float(np.min(np.maximum(fnorm, dnorm), initial=np.inf))


def eta_transverse_check(f, df, grid, eta):
    """Estimated transversality of a complex function on a grid.

    True iff every grid point with |f| < eta has derivative with a right
    inverse of norm at most 1/eta; for a holomorphic function on the unit
    disc in C that means |f'| >= eta.  (Non-strict, so the identity map is
    1-transverse.)  find_good_w0 and reverify read the blocked margin of
    _verify instead.
    """
    return eta_margin(np.abs(f(grid)), np.abs(df(grid))) >= eta


class TransversalityCertificate(
    namedtuple("TransversalityCertificate", "w0 margin sigma clearance_area clearance_claim grid")
):
    __slots__ = ()

    def __new__(cls, w0, margin, sigma, clearance_area, clearance_claim, grid):
        if margin < sigma:
            raise ValueError("certificate margin %g below sigma %g" % (margin, sigma))
        return super().__new__(cls, w0, margin, sigma, clearance_area, clearance_claim, grid)

    @property
    def area_claim_ok(self):
        return self.clearance_area > self.clearance_claim


def _label_components(free):
    """4-neighbour components of a boolean grid as (labels, count): -1 off the
    free cells, components numbered in raster order of their first cell.

    Min-label propagation: each free cell starts as its own flat index, takes
    the least label among its free neighbours and hooks its root to it, and
    pointer jumping settles every cell on its root, which ends as the
    component's first cell.
    """
    size = free.size  # also the label of the off-region sentinel cell
    parent = np.append(np.where(free.ravel(), np.arange(size), size), size)
    while True:
        g = np.pad(parent[:size].reshape(free.shape), 1, constant_values=size)
        low = np.minimum.reduce([g[1:-1, 1:-1], g[:-2, 1:-1], g[2:, 1:-1], g[1:-1, :-2], g[1:-1, 2:]])
        low = np.where(free, low, size).ravel()
        nxt = np.append(low, size)
        np.minimum.at(nxt, parent[:size], low)
        while not np.array_equal(nxt[nxt], nxt):
            nxt = nxt[nxt]
        if np.array_equal(nxt, parent):
            break
        parent = nxt
    roots, labels = np.unique(parent[:size], return_inverse=True)
    return np.where(free, labels.reshape(free.shape), -1), int(np.sum(roots < size))


def _nearest_distance(points, targets):
    """min |point - target| per point, in blocks of at most BLOCK_ENTRIES
    differences however many targets there are."""
    dist = np.full(points.shape, np.inf)
    rows = max(1, BLOCK_ENTRIES // max(targets.size, 1))
    cols = BLOCK_ENTRIES // rows
    for lo in range(0, points.size, rows):
        for t in range(0, targets.size, cols):
            block = np.abs(points[lo : lo + rows, None] - targets[None, t : t + cols])
            np.minimum(dist[lo : lo + rows], np.min(block, axis=1), out=dist[lo : lo + rows])
    return dist


def _buckets(points):
    """Square cells over the points: (cell of each point, centre and
    half-diagonal of each occupied cell).  The half-diagonal is the largest
    |point - centre| in the cell, widened by SLACK, so it bounds the exact
    distance however the points were rounded into cells."""
    x, y = points.real, points.imag
    side = max(np.ptp(x), np.ptp(y)) / CELLS or 1.0
    ix = np.minimum(((x - x.min()) / side).astype(np.intp), CELLS - 1)
    iy = np.minimum(((y - y.min()) / side).astype(np.intp), CELLS - 1)
    raw = ix * CELLS + iy
    counts = np.bincount(raw, minlength=CELLS * CELLS)
    occupied = np.flatnonzero(counts)
    cell = (np.cumsum(counts > 0) - 1)[raw]
    centres = x.min() + (occupied // CELLS + 0.5) * side + 1j * (y.min() + (occupied % CELLS + 0.5) * side)
    half = np.zeros(occupied.size)
    np.maximum.at(half, cell, np.abs(points - centres[cell]))
    return cell, centres, half * (1.0 + SLACK)


def _bounds(points, targets):
    """(cell of each point, low, high): a cell's d - h and d + h, widened
    by SLACK, bound the nearest distance of each of its points."""
    cell, centres, half = _buckets(points)
    near = _nearest_distance(centres, targets)
    return cell, near * (1.0 - SLACK) - half, (near + half) * (1.0 + SLACK)


def _clear(points, targets, radius):
    """The points with no target within the radius: the same bits as
    _nearest_distance(points, targets) > radius, computed exactly only in
    the cells whose bounds straddle the radius."""
    if not points.size:
        return np.ones(0, dtype=bool)
    cell, low, high = _bounds(points, targets)
    out = (low > radius)[cell]
    todo = np.flatnonzero(~out & (high > radius)[cell])
    out[todo] = _nearest_distance(points[todo], targets) > radius
    return out


def _farthest(points, targets):
    """The index of the first maximum of _nearest_distance(points, targets),
    exact only in the cells whose upper bound reaches the best lower bound:
    every tied maximum lies there with the same float, so the first index
    wins, as in the all-pairs argmax."""
    cell, low, high = _bounds(points, targets)
    keep = np.flatnonzero((high >= np.max(low))[cell])
    return int(keep[np.argmax(_nearest_distance(points[keep], targets))])


def _verify(inst, w0, z):
    """(margin, worst) of s(., w0) = p - w0 - conj(w0) q over the points z,
    walked in blocks: margin is eta_margin(|s|, |ds/dz|), and worst is
    (z, |s|, |ds/dz|) at the first point where max(|s|, |ds/dz|) is least."""
    cw0 = np.conj(w0)
    blocks = []
    for block, (pv, qv, dpv, dqv) in _walk([inst.p, inst.q, inst.p.deriv(), inst.q.deriv()], z):
        s = np.abs(pv - w0 - cw0 * qv)
        ds = np.abs(dpv - cw0 * dqv)
        i = int(np.argmin(np.maximum(s, ds)))
        blocks.append((eta_margin(s, ds), complex(z[block][i]), float(s[i]), float(ds[i])))
    margins = [b[0] for b in blocks]
    return float(np.min(margins)), blocks[int(np.argmin(margins))][1:]


def _attempt(inst, graph_resolution, w_resolution, verify_resolution):
    """One pass at the given grids: a TransversalityCertificate, or a string
    saying why none was found.  Raises VerificationError when the graph
    residual exceeds 1e-10.

    A w-disc point is free when no near-critical image lies within
    C sigma (_clear), and w0 is the first farthest point of the main
    component (_farthest).
    """
    sigma = inst.sigma
    residual, bad_images = _near_critical(inst, ball_grid(1.1, graph_resolution))
    if residual > 1e-10:
        raise VerificationError("graph residual %g exceeds 1e-10" % residual)

    in_disc, w_disc = _disc(inst.delta, w_resolution)
    free = np.zeros(in_disc.shape, dtype=bool)
    free[in_disc] = _clear(w_disc, bad_images, C * sigma)
    free = free.reshape(w_resolution, w_resolution)

    labels, count = _label_components(free)
    if count == 0:
        return "no clear region in the w-disc"
    sizes = np.bincount(labels[free], minlength=count)
    main = int(np.argmax(sizes))
    axis = np.linspace(-inst.delta, inst.delta, w_resolution)
    clearance_area = float(sizes[main] * (axis[1] - axis[0]) ** 2)
    main_points = w_disc[labels.ravel()[in_disc] == main]
    w0 = complex(main_points[_farthest(main_points, bad_images)])

    margin, worst = _verify(inst, w0, ball_grid(1.0, verify_resolution))
    if margin < sigma:
        return "at z = %r, |s| = %r and |ds/dz| = %r are both below sigma = %r (w0 = %r)" % (worst + (sigma, w0))
    return TransversalityCertificate(
        w0=w0, margin=margin, sigma=sigma, clearance_area=clearance_area,
        clearance_claim=0.9 * math.pi * inst.delta**2,
        grid=dict(
            graph_resolution=graph_resolution, w_resolution=w_resolution, verify_resolution=verify_resolution, C=C
        ),
    )


def find_good_w0(inst, graph_resolution=201, w_resolution=201, verify_resolution=201):
    """Select and certify a good perturbation value w0 for the instance.

    Computes the graph w(z) over the disc of radius 11/10, its near-critical image,
    and picks the w-disc point (inside the largest clear component of the
    grid's 4-neighbour labelling) farthest from the C sigma-neighborhood of
    that image.  The returned certificate is validated by a brute-force
    transversality check at eta = sigma over the unit disc; one automatic
    2x refinement is attempted before failing with the refined pass's reason.
    A graph, w or verify grid with no points in its disc would certify nothing: ValueError.
    """
    for name, res in (("graph", graph_resolution), ("w", w_resolution), ("verify", verify_resolution)):
        if res < 3:  # the square grid's points are then its corners, if any, all outside the disc
            raise ValueError("the %s grid at resolution %d has no points in the disc" % (name, res))
    spec = (graph_resolution, w_resolution, verify_resolution)
    for grids in (spec, tuple(2 * r - 1 for r in spec)):
        result = _attempt(inst, *grids)
        if isinstance(result, TransversalityCertificate):
            return result
    raise VerificationError("no sigma-transverse w0 found after refinement: " + result)


def reverify(inst, cert):
    """Independent re-check of a certificate on a finer unit-disc grid."""
    res = REVERIFY_FACTOR * cert.grid["verify_resolution"] - 1
    return _verify(inst, cert.w0, ball_grid(1.0, res))[0] >= cert.sigma


def random_instance(rng, kappa=0.2, delta=0.1, pexp=2):
    """A seeded random univariate instance normalized to the sup bounds."""
    z = ball_grid(1.1, SUP_RESOLUTION)

    def draw(sup_target, min_degree=0):
        while True:
            deg = int(rng.integers(min_degree, MAX_DEGREE + 1))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            poly = CPoly(coeffs)
            sup = float(np.max(np.abs(poly(z))))
            if sup > 1e-9:
                return poly.scaled(sup_target / sup)

    return LocalTransInstance(draw(1.0, min_degree=1), draw(1.0 - kappa), kappa, delta, pexp)
