"""Machine-speed probe: a fixed piece of work timed between jobs.

The reference machine is a shared VM whose speed drops by 35-75% while
other tenants are busy, in bursts of seconds and in phases of minutes to
an hour, so a whole run can fall into a slow phase.  The probe does the
same work every time, independent of lefpen, so its duration tracks the
machine's current speed.  There are two kinds of probe, because a slow
phase does not slow all code alike: ``python`` (interpreter work on dicts
and tuples, like the exact layer) and ``numpy`` (many calls on tiny
arrays, like the per-point Morse checks).  Each workload names the kind
its jobs resemble.  A job's wall time is scaled by REF_S / (the mean of
the probes taken just before and just after it): the result reads in
seconds at the reference machine's fast-phase speed, and a faster program
still reads faster because the probe never runs lefpen code.
"""

from __future__ import annotations

import gc
import time

# probe time in the fast phase of the reference machine (2-vCPU Xeon VM,
# Python 3.11.7, numpy 2.4.6), per kind
REF_S = {"python": 0.020, "numpy": 0.020}
# points of the numpy probe's jet loop
N_NUMPY = 800


def work():
    """Integer arithmetic, tuples and dict traffic, the interpreter's
    everyday mix; about 20 ms on the reference machine."""
    acc = 0
    table = {}
    for i in range(70000):
        key = (i & 255, i % 7)
        acc += table.get(key, i) * 3 % 11
        table[key] = acc & 1023
    return acc


def work_numpy():
    """A small Morse-style jet on 2-vectors, point after point: norms,
    einsum, outer products and a 2x2 SVD; about 20 ms on the reference
    machine."""
    import numpy as np  # not at module level: setup_s times the numpy import

    eye = np.eye(2)
    acc = 0.0
    for i in range(N_NUMPY):
        y = np.array((1.0 + i * 1e-4, 0.5))
        t = float(np.linalg.norm(y))
        r = y / t
        d2 = np.einsum("a,ib->iab", r, eye) + np.einsum("i,a,b->iab", r, r, r)
        hess = np.outer(r, y) + t * eye
        acc += float(np.linalg.svd(hess, compute_uv=False)[-1]) + float(np.linalg.norm(d2))
    return acc


WORK = {"python": work, "numpy": work_numpy}


def probe(kind="python", clock=time.perf_counter):
    """Seconds that the ``kind`` probe's work takes now.  The collector is off meanwhile, so
    the probe does not depend on how many objects the program holds.

    A single timing, not the least of several: the least would pick the
    fast moments of a machine whose speed flickers, while a job's time
    averages over them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        fn = WORK[kind]
        start = clock()
        fn()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def scaled(elapsed, before, after, kind="python"):
    """Wall time ``elapsed`` at the reference speed, from the probe times
    taken just before and just after it."""
    return elapsed * REF_S[kind] * 2.0 / (before + after)
