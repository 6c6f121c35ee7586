"""Checks for radial rescaling maps x -> l(|x|) x.

For a positive decreasing profile with l'(t)/l(t) >= -3/(4t) the map is a
local (in fact global) diffeomorphism with explicitly known linearization:

    J(x) = l Id + (l'/|x|) x x^t
    det J = l^n (1 + |x| l'/l)          >= l^n / 4
    eig J = { l (n-1 times), l + l' |x| },  all >= l / 4,  |J| <= l

radial_map_check certifies these closed forms against finite differences
and a direct eigendecomposition at a sample point.
"""

from __future__ import annotations

import numpy as np


def power_profile(c, alpha):
    """l(t) = c t^(-alpha); admissible for 0 < alpha < 3/4, c > 0."""
    if not 0.0 < alpha < 0.75:
        raise ValueError("power profile needs 0 < alpha < 3/4")
    if c <= 0.0:
        raise ValueError("power profile needs c > 0")
    return (lambda t: c * t ** (-alpha), lambda t: -alpha * c * t ** (-alpha - 1.0))


def radial_jacobian(l, dl, x):
    """Closed form l Id + (l'/|x|) x x^t at the point x."""
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    return l(t) * np.eye(len(x)) + (dl(t) / t) * np.outer(x, x)


def central_difference(f, x, step):
    """Central-difference derivative of f at x, one column per coordinate
    (a gradient for scalar f, a Jacobian for vector f)."""
    x = np.asarray(x, dtype=float)
    return np.stack([(f(x + e) - f(x - e)) / (2.0 * step) for e in np.eye(len(x)) * step], axis=-1)


def radial_map_check(l, dl, x):
    """Verify the linearization of x -> l(|x|) x at the point x.

    ``l`` and ``dl`` are callables for the profile and its derivative.
    Preconditions (l' < 0, l'/l >= -3/(4t)) are checked at |x|.  Returns a
    report with both the closed-form and the numerically recomputed
    quantities plus their relative errors.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    t = float(np.linalg.norm(x))
    if t == 0.0:
        raise ValueError("the radial map is only checked away from the origin")
    lv, dv = float(l(t)), float(dl(t))
    if dv >= 0.0:
        raise ValueError("precondition failed: l'(t) < 0 required (got %g)" % dv)
    if dv / lv < -0.75 / t:
        raise ValueError("precondition failed: l'/l >= -3/(4t) violated at t=%g" % t)

    jac = radial_jacobian(l, dl, x)
    step = (np.finfo(float).eps ** (1 / 3)) * max(t, 1.0)
    jac_fd = central_difference(lambda y: l(np.linalg.norm(y)) * y, x, step)
    jac_err = float(np.max(np.abs(jac - jac_fd)) / lv)

    det_closed = lv**n * (1.0 + t * dv / lv)
    det_num = float(np.linalg.det(jac_fd))
    det_err = abs(det_closed - det_num) / abs(det_closed)

    eig_closed = np.array([lv] * (n - 1) + [lv + dv * t])
    eig_num = np.sort(np.linalg.eigvalsh(jac))
    eig_err = float(np.max(np.abs(np.sort(eig_closed) - eig_num)) / lv)

    return {
        "dim": n,
        "t": t,
        "l": lv,
        "jacobian_rel_err": jac_err,
        "det_closed": det_closed,
        "det_numeric": det_num,
        "det_rel_err": float(det_err),
        "det_lower_bound_ok": bool(det_closed >= lv**n / 4.0 - 1e-12 * lv**n),
        "eig_closed": [float(v) for v in np.sort(eig_closed)],
        "eig_numeric": [float(v) for v in eig_num],
        "eig_rel_err": eig_err,
        "min_eig_bound_ok": bool(eig_num[0] >= lv / 4.0 - 1e-12 * lv),
        "operator_norm_ok": bool(eig_num[-1] <= lv * (1.0 + 1e-12)),
    }
