"""Algebraic laws of the exact layer, over the torus, sp and disc models.

Disc pencils are drawn as round range curves pushed forward by short
braids, so every cycle keeps a twistable presentation.
"""

import json
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from lefpen.words import Braid, FreeWord
from lefpen.fiber import Cycle, FiberElement, FiberModel, act, dehn_twist, standard_curve
from lefpen.pencil import (
    Automorphism,
    Pencil,
    automorphism_from_json,
    automorphism_to_json,
    hurwitz_apply,
    pencil_from_json,
    pencil_to_json,
    vanishing_label,
)

LAWS = settings(deadline=None, max_examples=40)


def braids(strands, max_len):
    letters = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letters, max_size=max_len).map(lambda w: Braid(strands, w))


def free_words(rank, max_len):
    letters = st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letters, max_size=max_len).map(lambda w: FreeWord(rank, w))


def primitive(dim):
    vectors = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    return vectors.map(lambda v: tuple(x // gcd(*(abs(y) for y in v)) for x in v))


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["torus", "sp", "disc"]))
    if kind == "torus":
        return FiberModel.torus()
    if kind == "sp":
        return FiberModel.sp(draw(st.integers(1, 3)))
    return FiberModel.disc(draw(st.integers(2, 4)))


@st.composite
def cycles(draw, model):
    if model.kind != "disc":
        return Cycle(model, vector=draw(primitive(model.dim)))
    n = model.punctures
    i = draw(st.integers(1, n))
    j = draw(st.integers(i, n))
    push = FiberElement(model, braid=draw(braids(n, 3)))
    return act(push, standard_curve(model, i, j))


@st.composite
def elements(draw, model):
    """Products of twists and inverse twists (homology), or braids (disc)."""
    if model.kind == "disc":
        return FiberElement(model, braid=draw(braids(model.punctures, 6)))
    g = FiberElement.identity(model)
    for c, sign in draw(st.lists(st.tuples(cycles(model), st.booleans()), max_size=3)):
        t = dehn_twist(c)
        g = g * (t if sign else t.inverse())
    return g


@st.composite
def pencils(draw, min_r=1, max_r=4):
    model = draw(models())
    r = draw(st.integers(min_r, max_r))
    return Pencil(model, [draw(cycles(model)) for _ in range(r)])


@LAWS
@given(st.data())
def test_act_is_a_homomorphism(data):
    model = data.draw(models())
    g, h = data.draw(elements(model)), data.draw(elements(model))
    c = data.draw(cycles(model))
    assert act(g * h, c) == act(g, act(h, c))
    assert act(FiberElement.identity(model), c) == c


@LAWS
@given(st.data())
def test_total_monodromy_is_hurwitz_invariant(data):
    P = data.draw(pencils(min_r=2))
    b = data.draw(braids(P.r, 4))
    assert hurwitz_apply(b, P).total_monodromy() == P.total_monodromy()


@LAWS
@given(st.data())
def test_cached_twists_leave_equality_and_hash_alone(data):
    P = data.draw(pencils())
    P.total_monodromy()
    for _ in range(data.draw(st.integers(0, 3))):
        w = data.draw(free_words(P.r, 4))
        vanishing_label(P, w * FreeWord.generator(P.r, data.draw(st.integers(1, P.r))) * w.inverse())
    fresh = Pencil(P.fiber, P.cycles)
    assert P == fresh and hash(P) == hash(fresh)
    assert {P: 1}[fresh] == 1
    assert all(fresh.twist(l) == t for l, t in P._twists.items())


@LAWS
@given(st.data())
def test_json_round_trips(data):
    P = data.draw(pencils())
    assert pencil_from_json(json.loads(json.dumps(pencil_to_json(P)))) == P
    A = Automorphism(data.draw(braids(P.r, 4)) if P.r > 1 else Braid(1), data.draw(elements(P.fiber)))
    back = automorphism_from_json(P.fiber, P.r, json.loads(json.dumps(automorphism_to_json(A))))
    assert back.b == A.b and back.g == A.g
