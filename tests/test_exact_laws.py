"""Algebraic laws of the exact layer, over the torus, sp and disc models.

Disc pencils are drawn as round range curves pushed forward by short
braids, so every cycle keeps a twistable presentation.

The algebra builds its results through ``words._new``, the exact layer's
one unchecked constructor; the trusted-path laws rebuild every result
through the public constructors, and the boundary table keeps their checks.
"""

import json
import re
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lefpen.words import (
    Arc,
    Braid,
    FreeWord,
    GeneratorConjugate,
    RankMismatch,
    artin_apply,
    braid_from_str,
    cyclic_reduce,
    half_twist,
    supporting_pair,
    word_from_str,
)
from lefpen.fiber import (
    Cycle,
    FiberElement,
    FiberModel,
    _canonical_cyclic,
    act,
    base_half_twist,
    dehn_twist,
    full_twist,
    standard_curve,
    symplectic_pairing,
)
from lefpen.pencil import (
    Automorphism,
    Pencil,
    _carrier_words,
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
    if c.model.kind == "disc":
        return Cycle(c.model, word=c.word, support=c.support)
    return Cycle(c.model, vector=c.vector)


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
    conjugated = GeneratorConjugate(data.draw(st.integers(1, r)), u)
    # a conjugate's first and last letters cancel across the factors of its powers
    power = (c * b * c.inverse()) ** data.draw(st.integers(-3, 3))
    built = [u * v, u.inverse(), b * c, b.inverse(), power, artin_apply(b, u)]
    built += [*cyclic_reduce(u), conjugated.word(), half_twist(a), full_twist(r, i, j)]
    built += [img for _, img in b.action()]
    for g in supporting_pair(a):
        built += [g.conjugator, g.word()]
    built += _carrier_words(r, 2)
    for x in built:
        back = rebuilt_word(x)
        assert back.letters == x.letters and back == x
        assert isinstance(x, Braid) or hash(back) == hash(x)


LETTERS = "(allowed indices 1..2)"
BOUNDARY = {
    "rank-zero": (lambda: FreeWord(0), ValueError, "rank must be positive"),
    "strands-zero": (lambda: Braid(0), ValueError, "strand count must be positive"),
    "b1-letter": (lambda: Braid(1, (1,)), ValueError, "B_1 is trivial"),
    "free-letter-range": (lambda: FreeWord(2, (1, -3)), ValueError, "invalid free word letter -3 " + LETTERS),
    "free-letter-zero": (lambda: FreeWord(2, (0,)), ValueError, "invalid free word letter 0 " + LETTERS),
    "free-letter-float": (lambda: FreeWord(2, (1.0,)), ValueError, "invalid free word letter 1.0 " + LETTERS),
    "free-letter-parsed": (lambda: word_from_str(2, "x3"), ValueError, "invalid free word letter 3 " + LETTERS),
    "braid-letter-range": (lambda: Braid(3, (3,)), ValueError, "invalid braid letter 3 " + LETTERS),
    "braid-letter-zero": (lambda: Braid(3, (0,)), ValueError, "invalid braid letter 0 " + LETTERS),
    "braid-letter-float": (lambda: Braid(3, (2.0,)), ValueError, "invalid braid letter 2.0 " + LETTERS),
    "braid-letter-parsed": (lambda: braid_from_str(3, "S3"), ValueError, "invalid braid letter -3 " + LETTERS),
    "core-range": (lambda: GeneratorConjugate(3, FreeWord(2)), ValueError, "core index 3 out of range"),
    "core-zero": (lambda: GeneratorConjugate(0, FreeWord(2)), ValueError, "core index 0 out of range"),
    "arc-base-range": (lambda: Arc(3, Braid(3)), ValueError, "arc base 3 out of range for 3 strands"),
    "arc-base-zero": (lambda: Arc(0, Braid(3)), ValueError, "arc base 0 out of range for 3 strands"),
    "free-mul": (lambda: FreeWord(2) * FreeWord(3), RankMismatch, "free words over different ranks: 2 vs 3"),
    "braid-mul": (lambda: Braid(2) * Braid(3), RankMismatch, "braids on different strand counts: 2 vs 3"),
    "artin-apply": (lambda: artin_apply(Braid(3), FreeWord(2)), RankMismatch, "braid on 3 strands cannot act on F_2"),
}


@pytest.mark.parametrize("build, error, message", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_public_word_constructors_keep_their_checks(build, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        build()


@LAWS
@given(st.data())
def test_act_equals_its_public_rebuild(data):
    model = data.draw(models())
    g = data.draw(elements(model))
    image = act(g, data.draw(any_cycles(model)))
    back = rebuilt_cycle(image)  # disc: the carried support passes the support check
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
