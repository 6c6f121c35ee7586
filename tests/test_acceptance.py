"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time
from math import gcd

import numpy as np

from lefpen.words import Arc, Braid, artin_apply, half_twist, supporting_pair
from lefpen.fiber import (
    EXACT,
    Cycle,
    FiberElement,
    FiberModel,
    act,
    base_half_twist,
    dehn_twist,
    full_twist,
    intersection_number,
    standard_curve,
)
from lefpen.pencil import (
    DISJOINT_PAIR,
    MATCHING,
    ONCE_INTERSECTING,
    Pencil,
    automorphism_from_arc,
    base_twist_automorphism,
    classify_arc,
    enumerate_arcs,
    enumerate_matching_arcs,
    hurwitz_apply,
    hurwitz_orbit,
    in_gamma,
    kernel_orbit,
)
from lefpen.transversal import (
    DeformedMorse,
    MorseModel,
    ball_grid,
    build_cutoff,
    deform_grid,
    find_good_w0,
    min_admissible_k,
    power_profile,
    radial_map_check,
    random_instance,
    reverify,
    solve_w_residual,
    verify_deform_bounds,
)
from lefpen.transversal.localtrans import VerificationError

T = FiberModel("torus")
A = Cycle(T, vector=(1, 0))
B = Cycle(T, vector=(0, 1))


def report(number, ok, detail):
    line = "ACCEPTANCE %d: %s  (%s)" % (number, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_1_exact_group_identities():
    start = time.monotonic()
    for r in range(2, 9):
        for i in range(1, r - 1):
            assert Braid(r, (i, i + 1, i)) == Braid(r, (i + 1, i, i + 1))
        for i in range(1, r):
            for j in range(i + 2, r):
                assert Braid(r, (i, j)) == Braid(r, (j, i))
    vecs = [
        (p, q)
        for p in range(-5, 6)
        for q in range(-5, 6)
        if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1
    ]
    cycles = [Cycle(T, vector=v) for v in vecs]
    pairs = 0
    for c1 in cycles:
        t1 = dehn_twist(c1)
        for c2 in cycles:
            t2 = dehn_twist(c2)
            i, tag = intersection_number(c1, c2)
            assert tag == EXACT
            if i == 1:
                assert t1 * t2 * t1 == t2 * t1 * t2
                pairs += 1
            elif i == 0:
                assert t1 * t2 == t2 * t1
                pairs += 1
    elapsed = time.monotonic() - start
    report(
        1,
        elapsed < 30.0,
        "braid relations strands 2..8; torus dichotomy on %d primitive pairs; %.1fs"
        % (pairs, elapsed),
    )


def test_criterion_2_hurwitz_invariance():
    rng = random.Random(2024)
    checked = 0
    for _ in range(500):
        r = rng.randint(2, 6)
        cycles = []
        for _ in range(r):
            while True:
                p, q = rng.randint(-5, 5), rng.randint(-5, 5)
                if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                    break
            cycles.append(Cycle(T, vector=(p, q)))
        P = Pencil(T, cycles)
        b = Braid(r, [rng.choice([1, -1]) * rng.randint(1, r - 1) for _ in range(rng.randint(0, 10))])
        assert hurwitz_apply(b, P).total_monodromy() == P.total_monodromy()
        checked += 1
    report(2, checked == 500, "total monodromy preserved on %d random (pencil, braid) pairs" % checked)


def test_criterion_3_kernel_elements_on_abab():
    P = Pencil(T, (A, B, A, B))
    counts = {MATCHING: 0, DISJOINT_PAIR: 0, ONCE_INTERSECTING: 0, "other": 0}
    for a in enumerate_arcs(P, 4):
        cls = classify_arc(a, P)
        if cls.kind in counts:
            counts[cls.kind] += 1
            got = automorphism_from_arc(a, P)
            assert in_gamma(got, P)
        else:
            counts["other"] += 1
    # the half-twist action formulas as exact free-word identities
    rng = random.Random(33)
    for _ in range(100):
        carrier = Braid(4, [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 6))])
        arc = Arc(rng.randint(1, 3), carrier)
        w1, w2 = supporting_pair(arc)
        tw = half_twist(arc)
        assert artin_apply(tw, w1) == w2
        assert artin_apply(tw**2, w1) == w2 * w1 * w2.inverse()
        assert artin_apply(tw**3, w1) == (w2 * w1) * w2 * (w2 * w1).inverse()
    ok = counts[MATCHING] > 0 and counts[ONCE_INTERSECTING] > 0
    report(
        3,
        ok,
        "stabilizer membership for %d matching / %d disjoint / %d once-intersecting arcs; "
        "sigma^1,2,3 action formulas on 100 random arcs" % (counts[MATCHING], counts[DISJOINT_PAIR], counts[ONCE_INTERSECTING]),
    )


def test_criterion_4_lantern_and_base_twist():
    m = FiberModel("disc", punctures=3)
    a12 = dehn_twist(standard_curve(m, 1, 2))
    a13 = dehn_twist(act(FiberElement(m, braid=Braid(3, (2,))), standard_curve(m, 1, 2)))
    a23 = dehn_twist(standard_curve(m, 2, 3))
    lantern = (a12 * a13 * a23).braid == full_twist(3, 1, 3)

    m2 = FiberModel("disc", punctures=2)
    P = Pencil(m2, (standard_curve(m2, 1, 1), standard_curve(m2, 2, 2)))
    arc = Arc(1, Braid(2))
    d = Arc(1, Braid(2))
    s1 = standard_curve(m2, 1, 1)
    s2 = standard_curve(m2, 2, 2)
    tau = base_half_twist(d, m2)
    identity_holds = act(dehn_twist(s2) * tau * tau, s1) == s1
    auto = base_twist_automorphism(arc, d, P)
    member = in_gamma(auto, P)
    report(
        4,
        lantern and identity_holds and member,
        "lantern A12 A13 A23 = full twist: %s; base-twist identity: %s; membership: %s"
        % (lantern, identity_holds, member),
    )


def test_criterion_5_cutoff_profiles():
    checked = []
    skipped = []
    for k in (1e3, 1e4, 1e5):
        for D in (1.0, 2.0, 5.0):
            if k < min_admissible_k(D, 1.0):
                skipped.append((k, D))
                continue
            p = build_cutoff(k, D, 1.0)
            slope = p.slope_check()
            assert slope["ok"], (k, D, slope)
            # one ulp inside the bands, where the band integrals give l
            assert abs(p.value(np.nextafter(D, np.inf)) - k**0.25) <= 1e-12 * k**0.25
            assert abs(p.value(np.nextafter(p.t_one, 0.0)) - 1.0) <= 1e-12
            ratio = 3.0 * D / 1.4
            eps = math.log(ratio) / (math.log(k) - 2.0 * math.log(ratio))
            assert abs(p.eps - eps) < 1e-12
            assert abs(p.a - (1.5 * D) ** (0.5 + eps)) < 1e-12
            checked.append((k, D))
    report(
        5,
        len(checked) == 5,
        "slope corridor at 1e4 points, endpoints one ulp inside the bands, closed-form eps/a on %d admissible (k, D); "
        "%d below threshold" % (len(checked), len(skipped)),
    )


def test_criterion_6_deformation_scaling_sweep():
    start = time.monotonic()
    spreads = []
    for D in (1.0, 2.0, 5.0):
        rows = []
        for k in (1e3, 1e4, 1e5):
            if k < min_admissible_k(D, 1.0):
                continue
            model = MorseModel.quadratic(2, value=0.5)
            h = DeformedMorse(model, build_cutoff(k, D, 1.0))
            rep = verify_deform_bounds(h, deform_grid(model, h.profile))
            assert rep["etaObserved"] > 0.0
            rows.append(rep)
        if len(rows) >= 2:
            for key, power in (("maxGrad", -1), ("etaObserved", 0), ("maxThird", 1)):
                vals = [r[key] * D**power for r in rows]
                spreads.append(max(vals) / min(vals))
            for key, power in (("max_first_derivative", -1), ("max_second_derivative", -2)):
                vals = [r["circle_pair"][key] * D**power for r in rows]
                spreads.append(max(vals) / min(vals))
    elapsed = time.monotonic() - start
    ok = all(s < 3.0 for s in spreads) and elapsed < 60.0
    report(
        6,
        ok,
        "maxGrad/D, eta, maxThird*D, circle pair d1/D, d2/D^2 spreads %s all < 3; eta > 0; %.1fs"
        % (["%.2f" % s for s in spreads], elapsed),
    )


def test_criterion_7_radial_map_closed_forms():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.05, 0.7)
        c = rng.uniform(0.5, 2.0)
        n = int(rng.integers(1, 4))
        x = rng.normal(size=n)
        x *= rng.uniform(0.5, 5.0) / np.linalg.norm(x)
        l, dl = power_profile(c, alpha)
        rep = radial_map_check(l, dl, x)
        worst = max(worst, rep["jacobian_rel_err"], rep["det_rel_err"], rep["eig_rel_err"])
        assert rep["det_lower_bound_ok"] and rep["min_eig_bound_ok"] and rep["operator_norm_ok"]
    report(7, worst < 1e-6, "1000 samples, worst closed-form vs numeric rel err %.2e" % worst)


def test_criterion_8_local_transversality_trials():
    rng = np.random.default_rng(1)
    grid = ball_grid(1.1, 101)
    successes = 0
    area_ok = 0
    worst_residual = 0.0
    for _ in range(100):
        inst = random_instance(rng, kappa=0.2, delta=0.1, pexp=2)
        worst_residual = max(worst_residual, solve_w_residual(inst.p, inst.q, grid))
        try:
            cert = find_good_w0(inst)
            assert cert.margin >= inst.sigma
            assert reverify(inst, cert)
        except VerificationError:
            continue
        successes += 1
        area_ok += int(cert.area_claim_ok)
    ok = worst_residual < 1e-10 and successes >= 95
    report(
        8,
        ok,
        "residual %.1e; %d/100 verified certificates; clearance > 0.9 pi delta^2 in %d "
        "(warning-level)" % (worst_residual, successes, area_ok),
    )


def test_criterion_9_orbit_machinery():
    P = Pencil(T, (A, B))
    orbit = hurwitz_orbit(P, 3)
    total = P.total_monodromy()
    assert all(Q.total_monodromy() == total for Q in orbit)

    P4 = Pencil(T, (A, B, A, B))
    matching = enumerate_matching_arcs(P4, 1)[0]
    gen = automorphism_from_arc(Arc(1, Braid(4)), P4)  # sigma^3 generator
    orb = kernel_orbit(matching, P4, [gen], 3)
    assert all(classify_arc(a, P4).kind == MATCHING for a in orb)
    report(
        9,
        len(orbit) < 200 and len(orb) > 1,
        "Hurwitz orbit of (a, b) to depth 3 has %d elements, one total monodromy; "
        "kernel orbit of a matching arc has %d elements, all matching" % (len(orbit), len(orb)),
    )
