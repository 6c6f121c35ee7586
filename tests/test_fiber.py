import random

import pytest

from lefpen.words import Arc, Braid
from lefpen.fiber import (
    EXACT,
    LOWER_BOUND,
    Cycle,
    FiberElement,
    FiberModel,
    ModelMismatch,
    UnsupportedCycle,
    act,
    base_half_twist,
    cycle_from_json,
    cycle_to_json,
    dehn_twist,
    element_from_json,
    element_to_json,
    full_twist,
    intersection_number,
    standard_curve,
    symplectic_pairing,
)

rng = random.Random(7)

TORUS = FiberModel("torus")


def primitive_vectors(bound):
    from math import gcd

    out = []
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                out.append((p, q))
    return out


def rand_torus_cycle():
    vecs = primitive_vectors(5)
    return Cycle(TORUS, vector=rng.choice(vecs))


def test_torus_twist_matrices():
    a = Cycle(TORUS, vector=(1, 0))
    b = Cycle(TORUS, vector=(0, 1))
    assert dehn_twist(a).matrix == ((1, -1), (0, 1))
    assert dehn_twist(b).matrix == ((1, 0), (1, 1))
    # a twist fixes its own cycle
    assert act(dehn_twist(a), a) == a
    assert act(dehn_twist(a), b) == Cycle(TORUS, vector=(-1, 1))


def test_cycle_sign_quotient():
    assert Cycle(TORUS, vector=(-1, 0)) == Cycle(TORUS, vector=(1, 0))
    assert Cycle(TORUS, vector=(1, 0)) != Cycle(TORUS, vector=(0, 1))


def test_cycle_primitivity_enforced():
    with pytest.raises(ValueError):
        Cycle(TORUS, vector=(2, 4))
    with pytest.raises(ValueError):
        Cycle(TORUS, vector=(0, 0))


@pytest.mark.parametrize("entry", [1.5, 1.0, True, "1", None])
def test_non_integral_homology_entries_rejected(entry):
    # nothing is truncated to an integer: (1.5, 0) is not the cycle (1, 0)
    with pytest.raises(ValueError):
        Cycle(TORUS, vector=(entry, 0))
    with pytest.raises(ValueError):
        cycle_from_json(TORUS, [entry, 0])
    with pytest.raises(ValueError):
        FiberElement(TORUS, matrix=[[entry, 0], [0, 1]])
    with pytest.raises(ValueError):
        element_from_json(TORUS, [entry, 0, 0, 1])


def test_numpy_integer_entries_accepted():
    import numpy as np

    assert Cycle(TORUS, vector=np.array([1, 2])) == Cycle(TORUS, vector=(1, 2))
    assert FiberElement(TORUS, matrix=np.eye(2, dtype=int)) == FiberElement.identity(TORUS)


def test_act_functorial_torus():
    for _ in range(200):
        g = dehn_twist(rand_torus_cycle())
        h = dehn_twist(rand_torus_cycle())
        c = rand_torus_cycle()
        assert act(g * h, c) == act(g, act(h, c))


def test_torus_intersection():
    a = Cycle(TORUS, vector=(1, 0))
    b = Cycle(TORUS, vector=(0, 1))
    assert intersection_number(a, b) == (1, EXACT)
    assert intersection_number(a, a) == (0, EXACT)
    assert intersection_number(Cycle(TORUS, vector=(1, 2)), Cycle(TORUS, vector=(1, -3))) == (5, EXACT)


def test_torus_braid_commutation_dichotomy_exhaustive():
    vecs = primitive_vectors(5)
    cycles = [Cycle(TORUS, vector=v) for v in vecs]
    for c1 in cycles:
        for c2 in cycles:
            t1, t2 = dehn_twist(c1), dehn_twist(c2)
            i, tag = intersection_number(c1, c2)
            assert tag == EXACT
            if i == 1:
                assert t1 * t2 * t1 == t2 * t1 * t2
            elif i == 0:
                assert t1 * t2 == t2 * t1


def test_conjugation_equivariance_torus():
    for _ in range(200):
        g = dehn_twist(rand_torus_cycle()) * dehn_twist(rand_torus_cycle())
        c = rand_torus_cycle()
        assert dehn_twist(act(g, c)) == g * dehn_twist(c) * g.inverse()


def test_sp_model():
    m = FiberModel("sp", genus=2)
    u = Cycle(m, vector=(1, 0, 0, 0))
    v = Cycle(m, vector=(0, 0, 1, 0))
    assert intersection_number(u, v) == (0, LOWER_BOUND)
    t = dehn_twist(u)
    # transvection preserves the form and fixes its own cycle
    assert act(t, u) == u
    w = Cycle(m, vector=(0, 1, 0, 0))
    assert symplectic_pairing(w.vector, u.vector) == -1
    # w + <w,u> u = (-1, 1, 0, 0), stored sign-normalized
    assert act(t, w) == Cycle(m, vector=(1, -1, 0, 0))


def test_sp_matrices_stay_symplectic():
    m = FiberModel("sp", genus=2)
    vecs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 1), (1, 0, 2, 1)]
    els = [dehn_twist(Cycle(m, vector=v)) for v in vecs]
    g = FiberElement.identity(m)
    for e in els:
        g = g * e
    gi = g.inverse()
    assert g * gi == FiberElement.identity(m)
    # products are built unchecked; the public constructor accepts them
    assert FiberElement(m, matrix=g.matrix) == g and FiberElement(m, matrix=gi.matrix) == gi


def test_non_symplectic_matrix_rejected():
    with pytest.raises(ValueError, match="symplectic"):
        FiberElement(TORUS, matrix=[[2, 0], [0, 1]])


def test_sp_conjugation_equivariance():
    m = FiberModel("sp", genus=2)
    vecs = [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (1, 1, 1, 1)]
    for va in vecs:
        for vb in vecs:
            g = dehn_twist(Cycle(m, vector=va))
            c = Cycle(m, vector=vb)
            assert dehn_twist(act(g, c)) == g * dehn_twist(c) * g.inverse()


def test_disc_canonical_cyclic_words():
    m = FiberModel("disc", punctures=3)
    c1 = Cycle(m, word=(1, 2))
    c2 = Cycle(m, word=(2, 1))
    assert c1 == c2
    # inversion quotient
    c3 = Cycle(m, word=(-2, -1))
    assert c1 == c3
    # conjugation (cyclic reduction) quotient
    c4 = Cycle(m, word=(3, 1, 2, -3))
    assert c1 == c4
    with pytest.raises(ValueError):
        Cycle(m, word=(1, -1))


def test_disc_dehn_twist_range_curves():
    m = FiberModel("disc", punctures=3)
    assert dehn_twist(standard_curve(m, 1, 2)).braid == full_twist(3, 1, 2)
    assert dehn_twist(standard_curve(m, 2, 2)).braid == Braid(3)
    assert full_twist(3, 1, 3) == Braid(3, (1, 2)) ** 3
    # the twist fixes its own cycle in the disc model too
    for i, j in [(1, 2), (2, 3), (1, 3)]:
        c = standard_curve(m, i, j)
        assert act(dehn_twist(c), c) == c


def test_disc_twist_well_defined_on_class():
    # the same curve class through two different pushforwards
    m = FiberModel("disc", punctures=3)
    a = act(FiberElement(m, braid=Braid(3, (1,))), standard_curve(m, 2, 3))
    b = act(FiberElement(m, braid=Braid(3, (-2,))), standard_curve(m, 1, 2))
    assert a == b
    assert dehn_twist(a) == dehn_twist(b)


def test_disc_twist_needs_presentation():
    m = FiberModel("disc", punctures=3)
    c = cycle_from_json(m, "x1 x2 x3 X2")
    with pytest.raises(UnsupportedCycle):
        dehn_twist(c)


def test_disc_conjugation_equivariance():
    m = FiberModel("disc", punctures=4)
    for letters in [(1,), (2, 3), (-1, 2), (3, -2, 1)]:
        g = FiberElement(m, braid=Braid(4, letters))
        for i, j in [(1, 2), (2, 4), (3, 3)]:
            c = standard_curve(m, i, j)
            assert dehn_twist(act(g, c)) == g * dehn_twist(c) * g.inverse()


def test_disc_intersection_ranges():
    m = FiberModel("disc", punctures=4)
    c12 = standard_curve(m, 1, 2)
    c34 = standard_curve(m, 3, 4)
    c14 = standard_curve(m, 1, 4)
    c23 = standard_curve(m, 2, 3)
    assert intersection_number(c12, c34) == (0, EXACT)  # disjoint
    assert intersection_number(c12, c14) == (0, EXACT)  # nested
    assert intersection_number(c12, c23) == (2, LOWER_BOUND)  # overlap
    pushed = act(FiberElement(m, braid=Braid(4, (2,))), c12)
    assert intersection_number(pushed, c34)[1] == LOWER_BOUND


def test_base_half_twist():
    m = FiberModel("disc", punctures=2)
    d = Arc(1, Braid(2))
    tw = base_half_twist(d, m)
    assert tw.braid == Braid(2, (1,))
    # its square is the twist about the curve enclosing punctures 1, 2
    assert tw * tw == dehn_twist(standard_curve(m, 1, 2))
    # applied twice to a cycle: same as the enclosing-curve twist once
    c = standard_curve(m, 1, 1)
    assert act(tw * tw, c) == act(dehn_twist(standard_curve(m, 1, 2)), c)


def test_lantern_relation():
    m = FiberModel("disc", punctures=3)
    a12 = dehn_twist(standard_curve(m, 1, 2))
    a13 = dehn_twist(act(FiberElement(m, braid=Braid(3, (2,))), standard_curve(m, 1, 2)))
    a23 = dehn_twist(standard_curve(m, 2, 3))
    assert (a12 * a13 * a23).braid == full_twist(3, 1, 3)


def test_intersection_symmetry():
    vecs = primitive_vectors(3)
    for _ in range(100):
        c1 = Cycle(TORUS, vector=rng.choice(vecs))
        c2 = Cycle(TORUS, vector=rng.choice(vecs))
        assert intersection_number(c1, c2) == intersection_number(c2, c1)
    m = FiberModel("disc", punctures=4)
    pairs = [(1, 2), (2, 3), (1, 4), (3, 3)]
    for i1, j1 in pairs:
        for i2, j2 in pairs:
            a, b = standard_curve(m, i1, j1), standard_curve(m, i2, j2)
            assert intersection_number(a, b) == intersection_number(b, a)


def test_model_mismatch():
    with pytest.raises(ModelMismatch):
        intersection_number(Cycle(TORUS, vector=(1, 0)), Cycle(FiberModel("sp", genus=1), vector=(1, 0)))


def test_json_roundtrip():
    m = FiberModel("sp", genus=2)
    c = Cycle(m, vector=(1, 0, 2, 1))
    assert cycle_from_json(m, cycle_to_json(c)) == c
    g = dehn_twist(c)
    assert element_from_json(m, element_to_json(g)) == g
    md = FiberModel("disc", punctures=3)
    cd = standard_curve(md, 1, 2)
    assert cycle_to_json(cd) == "x1 x2"
    assert cycle_from_json(md, "x1 x2") == cd
    gd = dehn_twist(cd)
    assert element_from_json(md, element_to_json(gd)) == gd
