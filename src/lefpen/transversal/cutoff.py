"""Scale-dependent radial cutoff profiles.

A profile l(t) for parameters (k, D, c0) is the piecewise function

    l(t) = k^(1/4)                      on [0, D]
    l(t) = a k^(1/4) / t^(1/2 + eps)    on [2D, sqrt(k) c0 / 2]
    l(t) = 1                            for t >= 3 sqrt(k) c0 / 4

with the two gaps bridged smoothly.  The constants are pinned by asking
the power section to pass through k^(1/4) at t = (3/2) D and through 1 at
t = 0.7 c0 sqrt(k):

    a   = ((3/2) D)^(1/2 + eps)
    eps = ln(3D / (1.4 c0)) / (ln k - 2 ln(3D / (1.4 c0)))

which keeps 0 < eps <= 1/4 exactly when 3D > 1.4 c0 and k >= (3D / (1.4 c0))^6.

Every admissible profile must satisfy the slope corridor

    0 > l'(t) / l(t) >= -(1/2 + eps) / t     on (D, 3 sqrt(k) c0 / 4).

The bridges are therefore built in log-slope space: on a band we set
l'/l = -(1/2 + eps) S(u) / t where S is a quintic smoothstep of u^q (value
and slope matched at both ends, so l is C^2 across every seam) plus a bump
u^3 (1-u)^3 whose universal coefficient makes the band integral land
exactly on the adjacent closed form.  The corridor holds where
0 <= S <= 1, and there l / (power section) is increasing on the bands.
That is sampled, not proved: at import each ramp is probed at 2,001
points of [0, 1] to within 1e-12 (its ends sit a few ulps off 0 and 1,
on either side), and slope_check samples every profile's corridor at
SLOPE_SAMPLES points.  (The naive choice, a single quintic interpolating
l itself, overshoots the corridor by ~1e-3 and is not used.)

The strict upper side fails in rounding just before t_one.  The rounded
outer ramp _S_OUTER is -4.4e-16 at u = 1 and dips below 0 (to about
-5.6e-15) for u > 0.9999982, so on t > (1 - 6e-7) t_one the evaluated
l'/l is positive: up to about 1.5e-16 at k = 1e3 and 4.2e-18 at k = 1e6.
slope_check's samples stop at t_one (1 - SLOPE_PAD), short of that
stretch, and report ok; a continuum certificate must treat the rounded
ramp, not the ideal one.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

_SMOOTHSTEP = Polynomial([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
_BUMP = Polynomial([0.0, 0.0, 0.0, 1.0, -3.0, 3.0, -1.0])  # u^3 (1-u)^3

SLOPE_SAMPLES, SLOPE_PAD = 10_000, 1e-6  # slope_check's log-spaced points
BOUND_SAMPLES = 2000  # derivative_bound_report's points per band


# Gauss-Legendre on [-1, 1]: np.polynomial.legendre.leggauss(32) as float
# literals, so that importing runs no eigensolve.  With the pole of
# 1/(c + v) at v = -c <= -1, 32 nodes integrate the degree-20 ramps to
# rounding, where exact division by (c + v) cancels catastrophically.
_NODES = np.array([
    -0.9972638618494816, -0.9856115115452684, -0.9647622555875064, -0.9349060759377397,
    -0.8963211557660521, -0.84936761373257, -0.7944837959679424, -0.7321821187402897,
    -0.6630442669302152, -0.5877157572407623, -0.5068999089322294, -0.42135127613063533,
    -0.33186860228212767, -0.23928736225213706, -0.1444719615827965, -0.048307665687738324,
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_WEIGHTS = np.array([
    0.007018610009470506, 0.016274394730905743, 0.025392065309262024, 0.034273862913021765,
    0.042835898022226836, 0.05099805926237609, 0.058684093478535565, 0.06582222277636168,
    0.07234579410884834, 0.07819389578707023, 0.08331192422694671, 0.08765209300440378,
    0.09117387869576378, 0.09384439908080451, 0.09563872007927471, 0.09654008851472766,
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])


def _horner(coef, v):
    """The polynomial with coefficients coef (lowest first) at v, by Horner's
    rule in one fresh buffer; at finite v it rounds as numpy's polyval does."""
    acc = np.full(np.shape(v), coef[-1])
    for a in coef[-2::-1]:
        np.multiply(acc, v, out=acc)
        np.add(acc, a, out=acc)
    return acc


def _band_integral(poly, c, u=1.0):
    """integral_0^u poly(v) / (c + v) dv, by Gauss-Legendre on [0, u] (u a scalar or an array).

    Works in two buffers the size of the (..., 32) node stack, whatever the
    degree.  The weights multiply before c + v divides: that order rounds
    as sum(_WEIGHTS * poly(v) / (c + v)) does, which the reports rely on."""
    u = np.asarray(u, dtype=float)
    half = 0.5 * u[..., None]
    v = half * (_NODES + 1.0)
    p = _horner(poly.coef, v)
    np.multiply(p, _WEIGHTS, out=p)
    np.divide(p, np.add(v, c, out=v), out=p)
    return np.sum(p, axis=-1) * half[..., 0]


def _tuned_ramp(q, c, target):
    """A ramp S: [0,1] -> [0,1] with zero end slopes and a pinned integral.

    S = smoothstep(u^q) + lambda * u^3 (1-u)^3, with lambda chosen so that
    integral_0^1 S/(c+u) du = target; asserts the [0, 1] corridor that
    downstream slope bounds rely on.
    """
    shape = _SMOOTHSTEP(Polynomial([0.0, 1.0]) ** q)
    s = shape + (target - _band_integral(shape, c)) / _band_integral(_BUMP, c) * _BUMP
    probe = _horner(s.coef, np.linspace(0.0, 1.0, 2001))
    if probe.min() < -1e-12 or probe.max() > 1.0 + 1e-12:
        raise AssertionError("the tuned ramp leaves the [0, 1] corridor")
    return s


# Both band shapes are parameter independent: the inner band always spans
# [D, 2D] (so c = t_lo / width = 1) and carries the log-ratio ln(4/3);
# the outer band spans [1/2, 3/4] c0 sqrt(k) (c = 2) and its complement
# ramp carries ln(3/2) - ln(7/5).  The warps are fixed: among q = 1..8,
# q = 1 gives the inner ramp the smallest bump |lambda| (1.68), and on the
# outer band q = 1..3 overshoot the [0, 1] corridor while q = 4 gives the
# smallest |lambda| (3.22) of the rest.
_S_INNER = _tuned_ramp(1, 1.0, np.log(4.0 / 3.0))
_S_OUTER = 1.0 - _tuned_ramp(4, 2.0, np.log(1.5) - np.log(1.4))


class ThresholdError(ValueError):
    """k is below the smallest admissible value for (D, c0)."""

    def __init__(self, k, min_k):
        super().__init__(
            "k = %g is below the minimal admissible value %.6g" % (k, min_k)
        )
        self.min_k = min_k


def min_admissible_k(D, c0):
    """Smallest k for which the profile exists (eps <= 1/4 and ordered bands)."""
    return max((3.0 * D / (1.4 * c0)) ** 6, 16.0 * D * D / (c0 * c0))


class _Band:
    """One bridge: l'/l = -beta S(u)/t on [t_lo, t_hi], u = (t - t_lo)/w."""

    def __init__(self, beta, t_lo, t_hi, s, log_l_lo):
        self.beta = beta
        self.t_lo = t_lo
        self.w = t_hi - t_lo
        self.s = s
        self._s1 = s.deriv().coef
        self._s2 = s.deriv(2).coef
        self.log_l_lo = log_l_lo
        self._c = t_lo / self.w

    def log_jets(self, t):
        u = (t - self.t_lo) / self.w
        s, s1, s2 = _horner(self.s.coef, u), _horner(self._s1, u), _horner(self._s2, u)
        m = self.log_l_lo - self.beta * _band_integral(self.s, self._c, u)
        m1 = -self.beta * s / t
        m2 = -self.beta * (s1 / (self.w * t) - s / t**2)
        m3 = -self.beta * (s2 / (self.w**2 * t) - 2.0 * s1 / (self.w * t**2) + 2.0 * s / t**3)
        return m, m1, m2, m3


class CutoffProfile:
    """Evaluator for l and its first three derivatives.

    Vectorized over numpy arrays.  l is C^2 globally; third derivatives
    jump at the four band seams.
    """

    def __init__(self, k, D, c0):
        for name, value in (("k", k), ("D", D), ("c0", c0)):
            if not 0.0 < value < np.inf:
                raise ValueError("%s must be finite and positive, got %g" % (name, value))
        lk, lD, lc = np.log(k), np.log(D), np.log(c0)
        for name, log in (  # the largest powers in min_admissible_k, jets and the reports
            ("(3 D / (1.4 c0))^6", 6.0 * (np.log(3.0 / 1.4) + lD - lc)),
            ("k^1.5", 1.5 * lk),
            ("(3 sqrt(k) c0 / 4)^3", 3.0 * (np.log(0.75) + 0.5 * lk + lc)),
            ("k^(1/4) D^-3", 0.25 * lk - 3.0 * lD),  # the scale of l''' on the inner band
        ):
            if not log < np.log(np.finfo(float).max / 1e3):  # 1e3: room for C_third and the like
                raise ValueError("%s overflows a float at k = %g, D = %g, c0 = %g" % (name, k, D, c0))
        min_k = min_admissible_k(D, c0)
        if k < min_k:
            raise ThresholdError(k, min_k)
        if not 3.0 * D > 1.4 * c0:  # else eps <= 0
            raise ValueError("eps > 0 needs 3 D > 1.4 c0, got D = %g, c0 = %g" % (D, c0))
        self.k = float(k)
        self.D = float(D)
        self.c0 = float(c0)
        ratio = 3.0 * D / (1.4 * c0)
        self.eps = float(np.log(ratio) / (np.log(k) - 2.0 * np.log(ratio)))
        self.a = float((1.5 * D) ** (0.5 + self.eps))
        self.beta = 0.5 + self.eps
        self.t_flat = float(D)
        self.t_pow_lo = 2.0 * float(D)
        self.t_pow_hi = float(0.5 * np.sqrt(k) * c0)
        self.t_one = float(0.75 * np.sqrt(k) * c0)
        self.top = float(k**0.25)
        self._inner = _Band(self.beta, self.t_flat, self.t_pow_lo, _S_INNER, np.log(self.top))
        self._outer = _Band(
            self.beta,
            self.t_pow_hi,
            self.t_one,
            _S_OUTER,
            np.log(self.a * self.top * self.t_pow_hi ** (-self.beta)),
        )

    def _pow_log_jets(self, t):
        m = np.log(self.a * self.top) - self.beta * np.log(t)
        return m, -self.beta / t, self.beta / t**2, -2.0 * self.beta / t**3

    def jets(self, t):
        """(l, l', l'', l''') at t, a scalar or an array, in one pass."""
        scalar, t = np.ndim(t) == 0, np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((4,) + t.shape)
        out[0, t <= self.t_flat] = self.top
        out[0, t >= self.t_one] = 1.0
        for mask, log_jets in (
            ((t > self.t_flat) & (t < self.t_pow_lo), self._inner.log_jets),
            ((t > self.t_pow_hi) & (t < self.t_one), self._outer.log_jets),
            ((t >= self.t_pow_lo) & (t <= self.t_pow_hi), self._pow_log_jets),
        ):
            if not np.any(mask):
                continue
            m, m1, m2, m3 = log_jets(t[mask])
            l = np.exp(m)
            out[:, mask] = l, l * m1, l * (m1**2 + m2), l * (m1**3 + 3.0 * m1 * m2 + m3)
        return tuple(out[:, 0] if scalar else out)

    def value(self, t):
        return self.jets(t)[0]

    def d1(self, t):
        return self.jets(t)[1]

    def d2(self, t):
        return self.jets(t)[2]

    def d3(self, t):
        return self.jets(t)[3]

    @property
    def blend(self):
        """Specification of the two bridge bands (endpoints and log-slope shape)."""
        return {
            "inner": {
                "from": self.t_flat,
                "to": self.t_pow_lo,
                "shape_coefficients": [float(c) for c in self._inner.s.coef],
            },
            "outer": {
                "from": self.t_pow_hi,
                "to": self.t_one,
                "shape_coefficients": [float(c) for c in self._outer.s.coef],
            },
        }

    def slope_check(self):
        """Check 0 > l'/l >= -(1/2 + eps)/t on the open deformation range.

        Samples log-spaced points on [D (1 + SLOPE_PAD), t_one (1 - SLOPE_PAD)]
        and reports the worst margins observed.  The samples end short of
        (t_one (1 - 6e-7), t_one), where the rounded outer ramp is below 0
        and l'/l is positive (up to about 1.5e-16), so ok does not cover
        that stretch.
        """
        lo = self.t_flat * (1.0 + SLOPE_PAD)
        hi = self.t_one * (1.0 - SLOPE_PAD)
        t = np.geomspace(lo, hi, SLOPE_SAMPLES)
        l, l1 = self.jets(t)[:2]
        ratio = l1 / l
        bound = -self.beta / t
        upper_margin = float(np.max(ratio))          # must be < 0
        lower_margin = float(np.min(ratio - bound))  # must be >= 0 (tolerance)
        ok = upper_margin < 0.0 and lower_margin >= -1e-12
        return {
            "ok": bool(ok),
            "samples": SLOPE_SAMPLES,
            "max_slope_ratio": upper_margin,
            "min_margin_above_bound": lower_margin,
        }

    def derivative_bound_report(self):
        """Observed dimensionless constants of the two bridge bands."""
        b1 = np.linspace(self.t_flat, self.t_pow_lo, BOUND_SAMPLES)[1:-1]
        b2 = np.linspace(self.t_pow_hi, self.t_one, BOUND_SAMPLES)[1:-1]
        # max |l'|, |l''|, |l'''| over each band's interior
        i1, i2, i3 = (np.max(np.abs(d)) for d in self.jets(b1)[1:])
        o1, o2, o3 = (np.max(np.abs(d)) for d in self.jets(b2)[1:])
        k4 = self.top
        return {
            "eps2": float(i1 * self.D / k4),
            "C_second": float(i2 * self.D**2 / k4),
            "C_third": float(i3 * self.D**3 / k4),
            "eps2_prime": float(o1 * np.sqrt(self.k)),
            "C_second_prime": float(o2 * self.k),
            "C_third_prime": float(o3 * self.k**1.5),
        }


def build_cutoff(k, D, c0):
    """Construct the profile, or raise ThresholdError with the minimal k."""
    return CutoffProfile(k, D, c0)
