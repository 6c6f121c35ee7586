"""Algebraic laws of the exact layer, over the torus, sp and disc models.

Disc pencils are drawn as round range curves pushed forward by short
braids, so every cycle keeps a twistable presentation.  A file keeps only
the words, so pencils that go through JSON are drawn unpushed.

The algebra builds its results through ``words._new``, the exact layer's
one unchecked constructor; the trusted-path laws rebuild every result
through the public constructors, and the boundary table keeps their checks.
"""

import json
import os
import re
from functools import reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lefpen.pencil
from lefpen.words import (
    Arc,
    Braid,
    FreeWord,
    RankMismatch,
    _core_at,
    _new,
    _step,
    artin_apply,
    braid_from_str,
    braid_to_str,
    half_twist,
    supporting_pair,
    word_from_str,
    word_to_str,
)
from lefpen.fiber import (
    Cycle,
    FiberElement,
    FiberModel,
    _canonical_cyclic,
    act,
    base_half_twist,
    cycle_to_json,
    dehn_twist,
    element_to_json,
    full_twist,
    standard_curve,
    symplectic_pairing,
)
from lefpen.pencil import (
    Automorphism,
    Pencil,
    _closure,
    _labelled_arcs,
    _move,
    arc_labels,
    automorphism_from_json,
    enumerate_arcs,
    hurwitz_apply,
    hurwitz_orbit,
    in_gamma,
    in_gamma_detail,
    monodromy_of,
    pencil_from_json,
    pencil_to_json,
    vanishing_label,
)

LAWS = settings(deadline=None, max_examples=40)
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


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
        return FiberModel("torus")
    if kind == "sp":
        return FiberModel("sp", genus=draw(st.integers(1, 3)))
    return FiberModel("disc", punctures=draw(st.integers(2, 4)))


@st.composite
def cycles(draw, model, max_push=3):
    if model.kind != "disc":
        return Cycle(model, vector=draw(primitive(model.dim)))
    n = model.punctures
    i = draw(st.integers(1, n))
    j = draw(st.integers(i, n))
    push = FiberElement(model, braid=draw(braids(n, max_push)))
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
def pencils(draw, min_r=1, max_r=4, max_push=3):
    model = draw(models())
    r = draw(st.integers(min_r, max_r))
    return Pencil(model, [draw(cycles(model, max_push)) for _ in range(r)])


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
        vanishing_label(P, w * FreeWord(P.r, (data.draw(st.integers(1, P.r)),)) * w.inverse())
    fresh = Pencil(P.fiber, P.cycles)
    assert P == fresh and hash(P) == hash(fresh)
    assert {P: 1}[fresh] == 1
    assert all(fresh.twist(l) == t for l, t in P._twists.items())


@st.composite
def equal_braids(draw, strands):
    """Two words of one braid on >= 3 strands, u s_i s_j v and u s_j s_i v with |i - j| >= 2, or
    u s_i s_(i+1) s_i v and u s_(i+1) s_i s_(i+1) v; free reduction cannot make them one word."""
    u, v = draw(braids(strands, 3)), draw(braids(strands, 3))
    i = draw(st.integers(1, strands - 2))
    if i + 2 <= strands - 1 and draw(st.booleans()):
        j = draw(st.integers(i + 2, strands - 1))
        lhs, rhs = (i, j), (j, i)
    else:
        lhs, rhs = (i, i + 1, i), (i + 1, i, i + 1)
    return u * Braid(strands, lhs) * v, u * Braid(strands, rhs) * v


@LAWS
@given(st.data())
def test_equal_values_hash_alike_however_built(data):
    # each hash reads only what its equality compares, so values that are equal but
    # built from other letters, signs or presentations are one element of a set
    model = data.draw(models())
    P = Pencil(model, [data.draw(cycles(model)) for _ in range(data.draw(st.integers(3, 4)))])
    b1, b2 = data.draw(equal_braids(P.r))
    u = data.draw(free_words(P.r, 4))
    c, g = data.draw(cycles(model)), data.draw(elements(model))
    base = data.draw(st.integers(1, P.r - 1))
    assert b1.letters != b2.letters
    pairs = [
        (b1, b2),
        (artin_apply(b1, u), artin_apply(b2, u)),
        (Arc(base, b1), Arc(base, b2)),
        (Automorphism(b1, g), Automorphism(b2, g)),
        (hurwitz_apply(b1, P), hurwitz_apply(b2, P)),
    ]
    if model.kind == "disc":
        # c is pushed by act, so it carries a presentation; the rebuilt word carries none unless round
        pairs.append((c, Cycle(model, word=c.word)))
        if model.punctures >= 3:
            pairs.append(tuple(FiberElement(model, braid=b) for b in data.draw(equal_braids(model.punctures))))
    else:
        pairs.append((c, Cycle(model, vector=[-x for x in c.vector])))
        pairs.append((g, g * dehn_twist(c) * dehn_twist(c).inverse()))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1


def test_equality_separates_what_the_hashes_leave_out():
    # the hashes leave out a word's rank, a cycle's or element's model and a pencil's fiber,
    # each implied by the content or compared by equality apart
    torus, sp1 = FiberModel("torus"), FiberModel("sp", genus=1)
    a, b = Cycle(torus, vector=(1, 0)), Cycle(sp1, vector=(1, 0))
    pairs = [
        (Braid(3), Braid(4)),
        (FreeWord(2, (1,)), FreeWord(3, (1,))),
        (a, b),
        (FiberElement.identity(torus), FiberElement.identity(sp1)),
        (Pencil(torus, [a]), Pencil(sp1, [b])),
    ]
    for x, y in pairs:
        assert x != y and y != x
        assert len({x, y}) == 2


def automorphism_to_json(A):
    """The automorphism file document of A, as automorphism_from_json reads it."""
    return {"braid": braid_to_str(A.b), "fiber_element": element_to_json(A.g)}


@LAWS
@given(st.data())
def test_json_round_trips(data):
    # a file presents a disc cycle only as its round range word
    P = data.draw(pencils(max_push=0))
    assert pencil_from_json(json.loads(json.dumps(pencil_to_json(P)))) == P
    A = Automorphism(data.draw(braids(P.r, 4)) if P.r > 1 else Braid(1), data.draw(elements(P.fiber)))
    back = automorphism_from_json(P.fiber, P.r, json.loads(json.dumps(automorphism_to_json(A))))
    assert back.b == A.b and back.g == A.g


# --- the trusted construction path -------------------------------------

def rebuilt_element(g):
    """g through the public, checking constructor."""
    if g.model.kind == "disc":
        return FiberElement(g.model, braid=rebuilt_word(g.braid))
    return FiberElement(g.model, matrix=g.matrix)


def rebuilt_word(u):
    if isinstance(u, Braid):
        return Braid(u.strands, u.letters)
    return FreeWord(u.rank, u.letters)


def rebuilt_cycle(c):
    """c through the public constructor.  A disc cycle's carried presentation
    (carrier, (i, j)) must push the round curve around i..j to its word."""
    if c.model.kind != "disc":
        return Cycle(c.model, vector=c.vector)
    back = Cycle(c.model, word=c.word)
    if c.support is not None:
        carrier, (i, j) = c.support
        pushed = artin_apply(carrier, FreeWord(c.model.punctures, tuple(range(i, j + 1))))
        assert _canonical_cyclic(pushed.letters) == c.word.letters, c
        back.support = c.support
    return back


def column_twist_matrix(c):
    """Reference: the twist's columns e_j + <e_j, c> c through the pairing."""
    d = c.model.dim
    cols = [[0] * d for _ in range(d)]
    for j in range(d):
        e = tuple(1 if t == j else 0 for t in range(d))
        coeff = symplectic_pairing(e, c.vector)
        for i in range(d):
            cols[j][i] = (1 if i == j else 0) + coeff * c.vector[i]
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def pairing_loop_symplectic(mat):
    """Reference: M^t J M == J, entry by entry through the pairing."""
    n = len(mat)
    cols = list(zip(*mat))
    for i in range(n):
        for j in range(n):
            want = 0
            if j == i + 1 and i % 2 == 0:
                want = 1
            elif j == i - 1 and i % 2 == 1:
                want = -1
            if symplectic_pairing(cols[i], cols[j]) != want:
                return False
    return True


def rotation_search_canonical_cyclic(letters):
    """Reference: the least of all rotations of the cyclically reduced word
    and of its inverse, letter by letter under (|l|, l < 0)."""
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    if not letters:
        return ()
    key = lambda l: (abs(l), 0 if l > 0 else 1)
    candidates = []
    for w in (letters, tuple(-l for l in reversed(letters))):
        for i in range(len(w)):
            candidates.append(w[i:] + w[:i])
    return min(candidates, key=lambda w: tuple(key(l) for l in w))


@st.composite
def any_cycles(draw, model):
    """cycles(model), or in the disc model also an essential word with no
    presentation unless it is a round range word."""
    if model.kind != "disc" or draw(st.booleans()):
        return draw(cycles(model))
    word = draw(free_words(model.punctures, 6))
    try:
        return Cycle(model, word=word)
    except ValueError:
        assume(False)


@LAWS
@given(st.data())
def test_algebra_results_pass_the_public_constructor(data):
    model = data.draw(models())
    g, h = data.draw(elements(model)), data.draw(elements(model))
    built = [g * h, g.inverse(), FiberElement.identity(model), dehn_twist(data.draw(cycles(model)))]
    if model.kind == "disc":
        n = model.punctures
        built.append(base_half_twist(Arc(data.draw(st.integers(1, n - 1)), data.draw(braids(n, 4))), model))
    for x in built:
        back = rebuilt_element(x)
        assert back == x and hash(back) == hash(x)
        assert back.braid is None or back.braid.letters == x.braid.letters


def images(b):
    """b's images of x_1 .. x_r as words, built unchecked from its cached raw images."""
    return tuple(_new(FreeWord, rank=b.strands, letters=u) for u in b._images())


@LAWS
@given(st.data())
def test_word_algebra_results_pass_the_public_constructor(data):
    r = data.draw(st.integers(2, 5))
    u, v = data.draw(free_words(r, 8)), data.draw(free_words(r, 8))
    b, c = data.draw(braids(r, 6)), data.draw(braids(r, 6))
    a = Arc(data.draw(st.integers(1, r - 1)), b)
    i = data.draw(st.integers(1, r))
    j = data.draw(st.integers(i, r))
    # an arbitrary conjugator may end in the core or its inverse
    conjugated = u * FreeWord(r, (data.draw(st.integers(1, r)),)) * u.inverse()
    # a conjugate's first and last letters cancel across the factors of its powers
    power = (c * b * c.inverse()) ** data.draw(st.integers(-3, 3))
    built = [u * v, u.inverse(), b * c, b.inverse(), power, artin_apply(b, u)]
    built += [conjugated, half_twist(a), full_twist(r, i, j)]
    assert images(b) == tuple(artin_apply(b, FreeWord(r, (k,))) for k in range(1, r + 1))
    built += images(b)
    for eta in supporting_pair(a):
        built += [eta, generator_conjugate(eta)[1]]
    torus = FiberModel("torus")
    for a in enumerate_arcs(Pencil(torus, [Cycle(torus, vector=(1, 0))] * r), 2):
        built += [a.carrier, *images(a.carrier)]
    for x in built:
        back = rebuilt_word(x)
        assert back.letters == x.letters and back == x
        assert isinstance(x, Braid) or hash(back) == hash(x)


@LAWS
@given(st.data())
def test_one_step_composes_the_action(data):
    # phi_{w l} = phi_w o phi_l: one step from w's images gives the images of w * l
    r = data.draw(st.integers(2, 5))
    w = data.draw(braids(r, 8))
    l = data.draw(st.integers(1, r - 1)) * data.draw(st.sampled_from([1, -1]))
    stepped = _step(w._images(), l)
    wl = w * Braid(r, (l,))
    assert stepped == wl._images()
    assert stepped == tuple(artin_apply(wl, FreeWord(r, (k,))).letters for k in range(1, r + 1))


def generator_conjugate(u):
    """Reference: u = w x_i w^(-1) as (i, w), w the prefix that cyclic reduction peels, or None."""
    lo = _core_at(u.letters)
    return None if lo is None else (u.letters[lo], _new(FreeWord, rank=u.rank, letters=u.letters[:lo]))


def reference_label(P, gamma):
    """L(w x_i w^(-1)) by acting each letter's twist matrix (or braid) on c_i, from the right."""
    core, w = generator_conjugate(gamma)
    c = P.cycles[core - 1]
    for l in reversed(w.letters):
        c = act(P.twist(l), c)
    return c


def relabel_reference(P, b):
    """The Hurwitz move by b by its contract: reference_label of each of b^(-1)'s images."""
    return Pencil(P.fiber, [reference_label(P, u) for u in images(b.inverse())])


@LAWS
@given(st.data())
def test_twist_cycle_is_the_letters_twist_acting(data):
    P = data.draw(pencils())
    x = data.draw(cycles(P.fiber))
    for l in [s * i for i in range(1, P.r + 1) for s in (1, -1)]:
        assert P.twist_cycle(l, x) == act(P.twist(l), x)


@LAWS
@given(st.data())
def test_vanishing_label_matches_the_twist_loop(data):
    P = data.draw(pencils())
    w = data.draw(free_words(P.r, 6))
    gamma = w * FreeWord(P.r, (data.draw(st.integers(1, P.r)),)) * w.inverse()
    assert vanishing_label(P, gamma) == reference_label(P, gamma)


@pytest.mark.parametrize("name", ["pencil_torus_abab.json", "pencil_sp_g2_r4.json", "pencil_disc3_round.json"])
def test_hurwitz_orbit_is_the_closure_of_hurwitz_apply(name):
    with open(os.path.join(DATA, name)) as fh:
        P = pencil_from_json(json.load(fh))
    moves = [Braid(P.r, (e * i,)) for i in range(1, P.r) for e in (1, -1)]
    reached = _closure(P, lambda cur: (hurwitz_apply(b, cur) for b in moves), 3, lambda Q: Q)
    assert hurwitz_orbit(P, 3) == set(reached)
    # and of the move by the contract, labels taken by the twist loop
    reached = _closure(P, lambda cur: (relabel_reference(cur, b) for b in moves), 3, lambda Q: Q)
    assert hurwitz_orbit(P, 3) == set(reached)


@st.composite
def pencils_and_braids(draw):
    """A pencil and a braid on its strands, of at most 6 letters (4 on the disc, whose words grow)."""
    P = draw(pencils(min_r=2))
    return P, draw(braids(P.r, 4 if P.fiber.kind == "disc" else 6))


@LAWS
@given(pencils_and_braids())
def test_hurwitz_apply_matches_the_images_then_labels_reference(case):
    P, b = case
    assert hurwitz_apply(b, P) == relabel_reference(P, b)


@LAWS
@given(pencils_and_braids(), st.data())
def test_arc_labels_are_the_reference_labels_of_the_supporting_pair(case, data):
    P, carrier = case
    a = Arc(data.draw(st.integers(1, P.r - 1)), carrier)
    eta1, eta2, s1, s2 = arc_labels(a, P)
    assert (eta1, eta2) == supporting_pair(a)
    assert (s1, s2) == (reference_label(P, eta1), reference_label(P, eta2))


@LAWS
@given(st.data())
def test_labelled_arcs_are_the_enumerated_arcs_with_their_labels(data):
    # the walk of pencil matching: one _move per carrier prefix, the pair its key was built from
    P = data.draw(pencils(min_r=2))
    max_len = data.draw(st.integers(0, 2 if P.fiber.kind == "disc" else 3))
    walked = list(_labelled_arcs(P, max_len))
    assert walked == [(a, *arc_labels(a, P)) for a in enumerate_arcs(P, max_len)]
    for _, eta1, eta2, s1, s2 in walked:
        assert (s1, s2) == (reference_label(P, eta1), reference_label(P, eta2))


@LAWS
@given(st.data())
def test_a_move_then_its_inverse_is_the_identity(data):
    P = data.draw(pencils(min_r=2))
    s = data.draw(st.integers(1, P.r - 1)) * data.draw(st.sampled_from([1, -1]))
    assert _move(_move(P, s), -s) == P


@LAWS
@given(st.data())
def test_moves_satisfy_the_braid_relations(data):
    # s_i s_(i+1) s_i = s_(i+1) s_i s_(i+1), and s_i s_j = s_j s_i for |i - j| >= 2, in either sign
    P = data.draw(pencils(min_r=3, max_r=5))
    fold = lambda letters: reduce(_move, letters, P)
    i = data.draw(st.integers(1, P.r - 2))
    e, f = data.draw(st.sampled_from([1, -1])), data.draw(st.sampled_from([1, -1]))
    assert fold((e * i, e * (i + 1), e * i)) == fold((e * (i + 1), e * i, e * (i + 1)))
    far = [(i, j) for i in range(1, P.r) for j in range(i + 2, P.r)]
    if far:
        i, j = data.draw(st.sampled_from(far))
        assert fold((e * i, f * j)) == fold((f * j, e * i))


@LAWS
@given(st.data())
def test_generator_conjugate_decomposes_by_its_peeled_prefix(data):
    # the decomposition is a function of the word: trailing x_i^(+-1) letters of w cancel into the core
    r = data.draw(st.integers(1, 5))
    w = data.draw(free_words(r, 8))
    i = data.draw(st.integers(1, r))
    stripped = w.letters
    while stripped and abs(stripped[-1]) == i:
        stripped = stripped[:-1]
    assert generator_conjugate(w * FreeWord(r, (i,)) * w.inverse()) == (i, FreeWord(r, stripped))


@st.composite
def stabilizer_candidates(draw):
    """(P, b, g) with P's cycles drawn from a pool of two, so that labels often agree.
    Disc cycles are round ranges, b has at most 3 letters and g at most one twist,
    since disc words grow with every twist.  A homology g may also start with
    zeta(w) for the peeled prefix w of one image w x_k w^(-1), which maps c_k to
    that image's label."""
    model = draw(models())
    disc = model.kind == "disc"
    if disc:
        ends = st.tuples(st.integers(1, model.punctures), st.integers(1, model.punctures))
        curves = ends.map(lambda e: standard_curve(model, min(e), max(e)))
    else:
        curves = cycles(model)
    pool = [draw(curves) for _ in range(2)]
    P = Pencil(model, [draw(st.sampled_from(pool)) for _ in range(draw(st.integers(2, 4)))])
    b = draw(braids(P.r, 3 if disc else 6))
    twist = dehn_twist(draw(st.sampled_from(pool) | curves))
    g = draw(st.sampled_from([FiberElement.identity(model), twist, twist.inverse()]))
    if not disc:
        g = g * draw(elements(model))
        if draw(st.booleans()):
            u = draw(st.sampled_from(images(b)))
            g = monodromy_of(P, generator_conjugate(u)[1]) * g
    return P, b, g


DISC2 = FiberModel("disc", punctures=2)
PUNCTURE_CURVES = Pencil(DISC2, [standard_curve(DISC2, 1, 1), standard_curve(DISC2, 2, 2)])


@LAWS
@given(stabilizer_candidates())
@example((PUNCTURE_CURVES, Braid(2, (1,)), FiberElement.identity(DISC2)))
def test_label_agreement_decides_monodromy_agreement(case):
    # zeta(w x_i w^(-1)) = T_{zeta(w) c_i} and g T_c g^(-1) = T_{g c}, so equal labels give
    # equal monodromy; T_a = T_b iff a = +-b on homology, while on the disc a curve
    # around one puncture has a trivial twist (the example: labels differ, twists agree)
    P, b, g = case
    ginv = g.inverse()
    for i, u in enumerate(images(b), 1):
        label = vanishing_label(P, u) == act(g, P.cycles[i - 1])
        monodromy = monodromy_of(P, u) == g * P.twist(i) * ginv
        assert label <= monodromy if P.fiber.kind == "disc" else label == monodromy


def in_gamma_detail_reference(A, P):
    """Membership decided in two halves per generator: the monodromy sides first, then the labels."""
    ginv = A.g.inverse()
    for i, u in enumerate(images(A.b), 1):
        lhs_elem = monodromy_of(P, u)
        rhs_elem = A.g * P.twist(i) * ginv
        if lhs_elem != rhs_elem:
            return False, {
                "generator": i,
                "check": "monodromy",
                "moved_word": word_to_str(u),
                "lhs": element_to_json(lhs_elem),
                "rhs": element_to_json(rhs_elem),
            }
        lhs_lab = vanishing_label(P, u)
        rhs_lab = act(A.g, P.cycles[i - 1])
        if lhs_lab != rhs_lab:
            return False, {
                "generator": i,
                "check": "label",
                "moved_word": word_to_str(u),
                "lhs": cycle_to_json(lhs_lab),
                "rhs": cycle_to_json(rhs_lab),
            }
    return True, None


def counted(f, calls):
    def wrapper(*args):
        calls.append(f.__name__)
        return f(*args)

    return wrapper


TORUS = FiberModel("torus")
TWICE_A = Pencil(TORUS, [Cycle(TORUS, vector=(1, 0))] * 2)


@LAWS
@given(stabilizer_candidates())
@example((PUNCTURE_CURVES, Braid(2, (1,)), FiberElement.identity(DISC2)))
@example((TWICE_A, Braid(2, (1,)), FiberElement.identity(TORUS)))
def test_in_gamma_detail_matches_the_two_half_reference(case):
    # the same verdict and report; a member's check builds no monodromy product, and on
    # torus and sp no twist either, while a failing one builds the product at the reported
    # generator only
    P, b, g = case
    P = Pencil(P.fiber, P.cycles)  # no twist cached yet
    A = Automorphism(b, g)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lefpen.pencil, "monodromy_of", counted(monodromy_of, calls))
        mp.setattr(lefpen.pencil, "dehn_twist", counted(dehn_twist, calls))
        mp.setattr(FiberElement, "__mul__", counted(FiberElement.__mul__, calls))
        got = in_gamma_detail(A, P)
    assert got == in_gamma_detail_reference(A, P)
    if got[0]:
        assert set(calls) <= ({"dehn_twist"} if P.fiber.kind == "disc" else set())
    else:
        assert calls.count("monodromy_of") == 1


DISC3 = FiberModel("disc", punctures=3)
A_B_A = Pencil(TORUS, [Cycle(TORUS, vector=v) for v in ((1, 0), (0, 1), (1, 0))])
THREE_PUNCTURES = Pencil(DISC3, [standard_curve(DISC3, i, i) for i in (1, 2, 3)])


@pytest.mark.parametrize("P, check", [(A_B_A, "monodromy"), (THREE_PUNCTURES, "label")], ids=["torus", "disc"])
def test_in_gamma_detail_reports_a_later_generator_as_the_reference_does(P, check):
    # s2 fixes x1, so generator 2 fails first: on the torus T_b(a) = a + b has another twist than b,
    # and around single punctures only the labels differ
    A = Automorphism(Braid(3, (2,)), FiberElement.identity(P.fiber))
    ok, detail = in_gamma_detail(A, P)
    assert not ok and (detail["generator"], detail["check"]) == (2, check)
    assert detail["moved_word"] == "x2 x3 X2"
    assert (ok, detail) == in_gamma_detail_reference(A, P)


@LAWS
@given(stabilizer_candidates())
@example((PUNCTURE_CURVES, Braid(2, (1,)), FiberElement.identity(DISC2)))
@example((TWICE_A, Braid(2, (1,)), FiberElement.identity(TORUS)))
def test_gamma_is_the_stabilizer_of_the_hurwitz_action(case):
    # (b, g) lies in Gamma iff the Hurwitz move by b^(-1) sends the cycles to g(c_1) .. g(c_r);
    # the examples give one pair outside Gamma and one inside
    P, b, g = case
    moved = hurwitz_apply(b.inverse(), P).cycles
    assert in_gamma(Automorphism(b, g), P) == (moved == tuple(act(g, c) for c in P.cycles))


@LAWS
@given(st.data())
def test_supporting_pair_is_the_carrier_image_of_the_base_pair(data):
    r = data.draw(st.integers(2, 5))
    b = data.draw(st.integers(1, r - 1))
    c = data.draw(braids(r, 6))
    base_pair = (FreeWord(r, (b,)), FreeWord(r, (b, b + 1, -b)))
    assert supporting_pair(Arc(b, c)) == tuple(artin_apply(c, eta) for eta in base_pair)


LETTERS = "(allowed indices 1..2)"
BOUNDARY = {
    "rank-zero": (lambda: FreeWord(0), ValueError, "rank must be positive"),
    "strands-zero": (lambda: Braid(0), ValueError, "strand count must be positive"),
    "b1-letter": (lambda: Braid(1, (1,)), ValueError, "B_1 is trivial"),
    "b1-cancelled-letters": (lambda: Braid(1, (1, -1)), ValueError, "B_1 is trivial"),
    "free-letter-range": (lambda: FreeWord(2, (1, -3)), ValueError, "invalid free word letter -3 " + LETTERS),
    "free-letter-zero": (lambda: FreeWord(2, (0,)), ValueError, "invalid free word letter 0 " + LETTERS),
    "free-letter-float": (lambda: FreeWord(2, (1.0,)), ValueError, "invalid free word letter 1.0 " + LETTERS),
    "free-letter-bool": (lambda: FreeWord(2, (True, -1)), ValueError, "invalid free word letter True " + LETTERS),
    "free-letter-parsed": (lambda: word_from_str(2, "x3"), ValueError, "invalid free word letter 3 " + LETTERS),
    "free-letter-cancelled-range": (lambda: FreeWord(2, (3, -3)), ValueError, "invalid free word letter 3 " + LETTERS),
    "free-letter-cancelled-zero": (lambda: FreeWord(2, (0, 0)), ValueError, "invalid free word letter 0 " + LETTERS),
    "braid-letter-range": (lambda: Braid(3, (3,)), ValueError, "invalid braid letter 3 " + LETTERS),
    "braid-letter-zero": (lambda: Braid(3, (0,)), ValueError, "invalid braid letter 0 " + LETTERS),
    "braid-letter-float": (lambda: Braid(3, (2.0,)), ValueError, "invalid braid letter 2.0 " + LETTERS),
    "braid-letter-bool": (lambda: Braid(3, (2, True)), ValueError, "invalid braid letter True " + LETTERS),
    "braid-letter-parsed": (lambda: braid_from_str(3, "S3"), ValueError, "invalid braid letter -3 " + LETTERS),
    "braid-letter-cancelled": (lambda: braid_from_str(3, "s3 S3"), ValueError, "invalid braid letter 3 " + LETTERS),
    "arc-base-range": (lambda: Arc(3, Braid(3)), ValueError, "arc base 3 out of range for 3 strands"),
    "arc-base-zero": (lambda: Arc(0, Braid(3)), ValueError, "arc base 0 out of range for 3 strands"),
    "rank-float": (lambda: FreeWord(2.5), ValueError, "rank must be an integer, got 2.5"),
    "strands-float": (lambda: Braid(3.0, (1, 2)), ValueError, "strand count must be an integer, got 3.0"),
    "arc-base-float": (lambda: Arc(1.5, Braid(3)), ValueError, "arc base must be an integer, got 1.5"),
    "genus-float": (
        lambda: Cycle(FiberModel("sp", genus=1.5), vector=(1, 0, 0)),
        ValueError,
        "fiber 'genus' must be an integer, got 1.5",
    ),
    "genus-bool": (lambda: FiberModel("sp", genus=True), ValueError, "fiber 'genus' must be an integer, got True"),
    "punctures-float": (
        lambda: FiberModel("disc", punctures=3.0),
        ValueError,
        "fiber 'punctures' must be an integer, got 3.0",
    ),
    "torus-genus": (lambda: FiberModel("torus", genus=5), ValueError, "torus model has no genus, got 5"),
    "disc-genus": (lambda: FiberModel("disc", genus=1, punctures=3), ValueError, "disc model has no genus, got 1"),
    "sp-punctures": (lambda: FiberModel("sp", genus=1, punctures=2), ValueError, "sp model has no punctures, got 2"),
    "disc-cycle-word-rank": (
        lambda: Cycle(FiberModel("disc", punctures=3), word=FreeWord(2, (1,))),
        ValueError,
        "disc cycle word over wrong puncture count",
    ),
    "free-mul": (lambda: FreeWord(2) * FreeWord(3), RankMismatch, "free words over different ranks: 2 vs 3"),
    "braid-mul": (lambda: Braid(2) * Braid(3), RankMismatch, "braids on different strand counts: 2 vs 3"),
    "artin-apply": (lambda: artin_apply(Braid(3), FreeWord(2)), RankMismatch, "braid on 3 strands cannot act on F_2"),
}


@pytest.mark.parametrize("build, error, message", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_public_word_constructors_keep_their_checks(build, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        build()


def test_integral_letters_are_stored_as_int():
    # a numpy integer is an integer letter, as it is a fiber entry, and is stored as an int
    for word in (FreeWord(2, (np.int64(1), -2)), Braid(3, (np.int32(2), -1)), Braid(3, (np.int64(2), np.int8(-2), 1))):
        assert word.letters and all(type(l) is int for l in word.letters)
    assert FreeWord(2, (np.int64(2), -2)) == FreeWord(2)
    # and so is a numpy integer size
    sized = (FreeWord(np.int64(2)).rank, Braid(np.int32(3)).strands, Arc(np.int8(1), Braid(2)).base)
    sized += tuple(FiberModel("sp", genus=np.int64(2))) + tuple(FiberModel("disc", punctures=np.int16(3)))
    assert all(type(x) is int for x in sized if not isinstance(x, str))
    assert FiberModel("sp", genus=np.int64(2)) == FiberModel("sp", genus=2)


@LAWS
@given(st.data())
def test_act_equals_its_public_rebuild(data):
    model = data.draw(models())
    g = data.draw(elements(model))
    image = act(g, data.draw(any_cycles(model)))
    back = rebuilt_cycle(image)  # disc: the carried presentation pushes to the word
    assert back == image and hash(back) == hash(image)
    assert back.vector == image.vector and back.word == image.word
    assert back.support == image.support


@LAWS
@given(st.data())
def test_closed_form_twist_matches_column_construction(data):
    model = data.draw(models().filter(lambda m: m.kind != "disc"))
    c = data.draw(cycles(model))
    assert dehn_twist(c).matrix == column_twist_matrix(c)


@LAWS
@given(st.data())
def test_symplectic_check_matches_pairing_loop(data):
    model = data.draw(models().filter(lambda m: m.kind != "disc"))
    d = model.dim
    kind = data.draw(st.sampled_from(["random", "symplectic", "perturbed"]))
    if kind == "random":
        entries = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        mat = tuple(map(tuple, data.draw(st.lists(entries, min_size=d, max_size=d))))
    else:
        mat = [list(row) for row in data.draw(elements(model)).matrix]
        if kind == "perturbed":
            mat[data.draw(st.integers(0, d - 1))][data.draw(st.integers(0, d - 1))] += data.draw(
                st.sampled_from([-1, 1])
            )
        mat = tuple(map(tuple, mat))
    if pairing_loop_symplectic(mat):
        assert FiberElement(model, matrix=mat).matrix == mat
    else:
        with pytest.raises(ValueError, match="matrix does not preserve the symplectic form"):
            FiberElement(model, matrix=mat)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(-4, 4).filter(bool), max_size=12),
    st.integers(1, 4),
    st.lists(st.integers(-4, 4).filter(bool), max_size=3),
)
@example([], 1, [])
@example([1, -2], 3, [2])
def test_booth_canonical_cyclic_matches_rotation_search(word, power, ends):
    """Random words, their powers w^k, words with cancelling ends
    e w^k e^(-1), and the empty word."""
    letters = tuple(ends) + tuple(word) * power + tuple(-l for l in reversed(ends))
    assert _canonical_cyclic(letters) == rotation_search_canonical_cyclic(letters)
