"""Positive factorizations, enhanced monodromy, and pencil automorphisms.

A pencil is an ordered tuple of vanishing cycles (c_1, .., c_r) in a fiber
model, each with a Dehn twist: Pencil rejects a disc cycle with no curve
presentation, and act carries the presentation through labels and Hurwitz
moves.  A pencil induces the enhanced monodromy: the homomorphism zeta
sending x_i to the Dehn twist about c_i (words evaluated left to right),
together with the labelling L(w x_i w^(-1)) = zeta(w)(c_i) of all conjugates
of generators by cycle classes.  A label twists c_i along w's letters one
letter at a time, from the right (Picard-Lefschetz).  On homology fibers
each step is the transvection v -> v +- <v, c> c, so no twist matrix is
built; matrices, cached on the pencil outside equality, serve only
monodromy_of, the total monodromy and reports of failed stabilizer checks.

The automorphism group Gamma of the pencil consists of the pairs
(braid b, fiber element g) with zeta(b.x_i) = g zeta(x_i) g^(-1) and
L(b.x_i) = g(c_i) for every generator; checking on generators suffices
because both sides are natural in the word.  As zeta(w x_i w^(-1)) =
T_{zeta(w) c_i} and g T_c g^(-1) = T_{g(c)}, the label condition implies
the monodromy one, so Gamma is decided by labels alone.

Hurwitz moves are the braid action on factorizations characterized by
"the moved pencil, precomposed with b, has the original monodromy data":
the new i-th cycle is the label of b^(-1).x_i.  On generators this gives
the familiar rule s_i: (c_i, c_{i+1}) -> (c_{i+1}, twist(c_{i+1})^(-1) c_i)
and the total monodromy zeta(x_1 .. x_r) never changes.  The labels of
phi_u(x_1 .. x_r) are L o phi_u, so moves, orbits, Gamma checks and arc
labels fold a one-twist step, _move, over u's letters.  So Gamma is the
stabilizer of the Hurwitz action: (b, g) lies in Gamma exactly when the
move by b^(-1) sends the pencil to (g(c_1), .., g(c_r)).  Matching walks
the carrier tree once: each distinct prefix of a kept carrier is moved by one
_move from its parent's pencil, and arc labels are read off the carrier's.

Arcs between critical values are classified through their supporting pair
of words (eta', eta'') and the cycles S' = L(eta'), S'' = L(eta''):

* Matching          S' and S'' are the same class; (half-twist, 1) in Gamma
* DisjointPair      certified intersection 0;     (half-twist^2, 1)
* OnceIntersecting  certified intersection 1;     (half-twist^3, 1)

and an arc whose S' crosses a base-point arc delta once, with S'' the
half-twist image of S', gives the mixed element (half-twist, tau_delta).
These are exactly the braid monodromies of a tangency, a node and a cusp
of the dual curve of a plane projection, plus the tangency-with-base-locus
case; see SINGULARITIES.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce

from .words import (
    Arc,
    Braid,
    FreeWord,
    RankMismatch,
    _core_at,
    _inverse,
    _join,
    _new,
    _pair_letters,
    _step,
    braid_from_str,
    half_twist,
    supporting_pair,
    word_to_str,
)
from .fiber import (
    DISC,
    EXACT,
    SP,
    Cycle,
    FiberElement,
    ModelMismatch,
    UnsupportedCycle,
    _as_range,
    _normalize_sign,
    act,
    base_half_twist,
    cycle_from_json,
    cycle_to_json,
    dehn_twist,
    element_from_json,
    element_to_json,
    intersection_number,
    model_from_json,
    model_to_json,
    symplectic_pairing,
)

MATCHING = "Matching"
DISJOINT_PAIR = "DisjointPair"
ONCE_INTERSECTING = "OnceIntersecting"
BASE_POINT_TWIST = "BasePointTwist"
OTHER = "Other"

NODE = "node"
CUSP = "cusp"
TANGENCY = "tangency"

# The paper's correspondence: dual-curve singularity -> (class of the arc around it, power of
# the arc's half-twist that is both the singularity's braid monodromy and the arc's automorphism)
SINGULARITIES = {TANGENCY: (MATCHING, 1), NODE: (DISJOINT_PAIR, 2), CUSP: (ONCE_INTERSECTING, 3)}


class HypothesisError(ValueError):
    """A geometric hypothesis of an automorphism construction failed."""

    def __init__(self, clause, message):
        super().__init__("hypothesis (%s): %s" % (clause, message))
        self.clause = clause


class Pencil:
    """An ordered positive factorization over a fiber model."""

    __slots__ = ("fiber", "cycles", "_twists")

    def __init__(self, fiber, cycles):
        cycles = tuple(cycles)
        if not cycles:
            raise ValueError("a pencil needs at least one cycle")
        for c in cycles:
            if c.model != fiber:
                raise ModelMismatch("cycle %r does not live in the fiber model" % (c,))
            if fiber.kind == DISC and c.support is None:
                message = "disc cycle %r cannot be twisted, and a pencil's monodromy is the twists about its cycles"
                raise UnsupportedCycle(message % (word_to_str(c.word),))
        self.fiber = fiber
        self.cycles = cycles
        self._twists = {}  # letter -> its twist; not part of equality

    @property
    def r(self):
        return len(self.cycles)

    def _check_letter(self, l):
        if not 0 < abs(l) <= len(self.cycles):
            raise ValueError("letter %r is out of range: a pencil of %d cycles takes ±1..±%d" % (l, self.r, self.r))

    def twist(self, l):
        """zeta of the letter l: the Dehn twist about c_|l|, inverted for
        l < 0.  Built on first use and cached on the pencil."""
        if l not in self._twists:
            self._check_letter(l)
            self._twists[l] = dehn_twist(self.cycles[l - 1]) if l > 0 else self.twist(-l).inverse()
        return self._twists[l]

    def twist_cycle(self, l, x):
        """zeta(x_l)(x).  Homology fibers take the transvection about
        c = c_|l|, x + <x, c> c, or x - <x, c> c for l < 0 (its inverse, as
        <c, c> = 0); the disc fiber acts by the twist."""
        if self.fiber.kind == DISC:
            return act(self.twist(l), x)
        self._check_letter(l)
        c = self.cycles[abs(l) - 1].vector
        k = symplectic_pairing(x.vector, c) if l > 0 else -symplectic_pairing(x.vector, c)
        v = tuple(a + k * b for a, b in zip(x.vector, c))
        return _new(Cycle, model=self.fiber, vector=_normalize_sign(v))

    def total_monodromy(self):
        return monodromy_of(self, _new(FreeWord, rank=self.r, letters=tuple(range(1, self.r + 1))))

    def is_closed(self):
        return self.total_monodromy() == FiberElement.identity(self.fiber)

    def __eq__(self, other):
        # equal cycles live in one model, so the fibers need no comparison
        return isinstance(other, Pencil) and self.cycles == other.cycles

    def __hash__(self):
        return hash(self.cycles)

    def __repr__(self):
        return "Pencil(%r, %r)" % (self.fiber, list(self.cycles))


class Automorphism(namedtuple("Automorphism", "b g")):
    """A candidate element (b, g) of the automorphism group of a pencil."""

    __slots__ = ()


class ArcClass(namedtuple("ArcClass", "kind reason", defaults=(None,))):
    __slots__ = ()

    def __str__(self):
        if self.reason:
            return "%s(%s)" % (self.kind, self.reason)
        return self.kind


def monodromy_of(P, gamma):
    """zeta(gamma): product of Dehn twists along the word, left to right."""
    if gamma.rank != P.r:
        raise RankMismatch("word rank %d does not match pencil size %d" % (gamma.rank, P.r))
    out = FiberElement.identity(P.fiber)
    for l in gamma.letters:
        out = out * P.twist(l)
    return out


def vanishing_label(P, gamma):
    """The cycle class attached to a conjugate of a generator.

    L(w x_i w^(-1)) = zeta(w)(c_i), found by twisting c_i along the letters
    of w from the right, one twist_cycle step per letter.  gamma is a
    FreeWord that cyclically reduces to a positive generator; w is the
    prefix that cyclic reduction peels off.
    """
    if gamma.rank != P.r:
        raise RankMismatch("word rank %d does not match pencil size %d" % (gamma.rank, P.r))
    lo = _core_at(gamma.letters)
    if lo is None:
        raise ValueError("word %r is not a conjugate of a generator" % (word_to_str(gamma),))
    c = P.cycles[gamma.letters[lo] - 1]
    for l in reversed(gamma.letters[:lo]):
        c = P.twist_cycle(l, c)
    return c


def _move(P, s):
    """The labels Q of phi_s(x_1 .. x_r), the Hurwitz move by s^(-1): one twist.  As zeta_Q =
    zeta_P o phi_s, a left fold of _move over u's letters gives the labels of phi_u(x_1 .. x_r)."""
    j, c = abs(s), list(P.cycles)
    if s > 0:
        c[j - 1], c[j] = P.twist_cycle(j, c[j]), c[j - 1]
    else:
        c[j - 1], c[j] = c[j], P.twist_cycle(-(j + 1), c[j - 1])
    return _new(Pencil, fiber=P.fiber, cycles=tuple(c), _twists={})


def hurwitz_apply(b, P):
    """Hurwitz move of the factorization by the braid b.

    Defining contract: the monodromy data of the result, precomposed with
    the Artin automorphism of b, is the data of P: the fold of _move over b^(-1).
    Total monodromy is preserved because every braid fixes x_1 .. x_r as a product.
    """
    if b.strands != P.r:
        raise RankMismatch("braid strand count %d does not match pencil size %d" % (b.strands, P.r))
    return reduce(_move, b.inverse().letters, P)


def in_gamma(A, P):
    """Membership of (b, g) in the stabilizer of the enhanced monodromy."""
    return in_gamma_detail(A, P)[0]


def in_gamma_detail(A, P):
    """Like in_gamma, but reports the first violated generator with both sides.

    (b, g) lies in Gamma exactly when the Hurwitz move by b^(-1) sends the
    pencil to (g(c_1), .., g(c_r)), the labels of b.x_i being the fold of _move
    over b's letters; b's images serve the report only.  Both monodromy sides are
    built only at the first generator whose labels differ, and reported if they differ too.
    """
    if A.b.strands != P.r:
        raise RankMismatch("automorphism braid strand count does not match pencil size")
    if A.g.model != P.fiber:
        raise ModelMismatch("automorphism fiber element lives in the wrong model")
    moved = reduce(_move, A.b.letters, P).cycles
    for i, (lhs, rhs) in enumerate(zip(moved, (act(A.g, c) for c in P.cycles)), 1):
        if lhs == rhs:
            continue
        word = _new(FreeWord, rank=P.r, letters=A.b._images()[i - 1])
        lhs_elem, rhs_elem = monodromy_of(P, word), A.g * P.twist(i) * A.g.inverse()
        monodromy = lhs_elem != rhs_elem
        return False, {
            "generator": i,
            "check": "monodromy" if monodromy else "label",
            "moved_word": word_to_str(word),
            "lhs": element_to_json(lhs_elem) if monodromy else cycle_to_json(lhs),
            "rhs": element_to_json(rhs_elem) if monodromy else cycle_to_json(rhs),
        }
    return True, None


def arc_labels(a, P):
    """(eta', eta'', S', S'') for an arc over the pencil's critical values, S' and S'' read
    off Q, the fold of _move over the carrier (see _read_labels)."""
    if a.strands != P.r:
        raise RankMismatch("arc strand count %d does not match pencil size %d" % (a.strands, P.r))
    return (*supporting_pair(a), *_read_labels(reduce(_move, a.carrier.letters, P), a.base))


def _read_labels(Q, base):
    """(S', S'') on base, Q the pencil moved by the carrier: c_b, and c_{b+1} twisted about c_b."""
    return Q.cycles[base - 1], Q.twist_cycle(base, Q.cycles[base])


def classify_arc(a, P, trust_algebraic=False):
    """Classify an arc by the labels of its supporting pair; see classify_labels."""
    return classify_labels(*arc_labels(a, P)[2:], trust_algebraic=trust_algebraic)


def classify_labels(s1, s2, trust_algebraic=False):
    """The class of an arc whose supporting pair has the labels S', S''.

    Matching if the two classes agree; otherwise the certified geometric
    intersection number decides DisjointPair (0) or OnceIntersecting (1).
    When the intersection is only bounded below, the arc lands in Other;
    ``trust_algebraic`` upgrades the homological pairing of the sp model
    to a geometric count (the disc model's unsupported pairs stay Other,
    their bound carries no information).
    """
    if s1 == s2:
        return ArcClass(MATCHING)
    value, exactness = intersection_number(s1, s2)
    if exactness != EXACT and not (trust_algebraic and s1.model.kind == SP):
        return ArcClass(OTHER, "intersection %d is only a lower bound" % (value,))
    if value == 0:
        return ArcClass(DISJOINT_PAIR)
    if value == 1:
        return ArcClass(ONCE_INTERSECTING)
    return ArcClass(OTHER, "intersection %d matches no supported case" % (value,))


def automorphism_from_arc(a, P, trust_algebraic=False):
    """The automorphism attached to a classified arc.

    Matching arcs give (half-twist, 1), disjoint pairs its square, once
    intersecting pairs its cube.  Membership in the stabilizer is asserted
    before returning.
    """
    cls = classify_arc(a, P, trust_algebraic=trust_algebraic)
    power = dict(SINGULARITIES.values()).get(cls.kind)
    if power is None:
        raise ValueError("arc classifies as %s; no automorphism attached" % (cls,))
    A = Automorphism(half_twist(a) ** power, FiberElement.identity(P.fiber))
    ok, detail = in_gamma_detail(A, P)
    if not ok:
        raise AssertionError("constructed automorphism failed membership: %r" % (detail,))
    return A


def base_twist_automorphism(a, d, P):
    """The mixed automorphism (half-twist of the arc, base half-twist).

    Hypotheses, checked in the supported standard configuration:
    (i) S' crosses the puncture arc delta exactly once, decided after
    pulling S' back by delta's carrier (the pullback must be a round
    range curve); (ii) S'' is the image of S' under the base half-twist.
    The construction also verifies that twisting twice along delta and
    once about S'' returns S' to itself (the four-punctured-sphere
    relation behind the hypothesis), then asserts membership.
    """
    if P.fiber.kind != DISC:
        raise ModelMismatch("base twists need a disc fiber")
    _, _, s1, s2 = arc_labels(a, P)
    tau = base_half_twist(d, P.fiber)

    pulled = act(_new(FiberElement, model=P.fiber, braid=d.carrier.inverse()), s1)
    rng = _as_range(pulled.word.letters)
    if rng is None:
        raise HypothesisError("i", "S' is not in the supported standard position for delta")
    lo, hi = rng
    crossings = int(lo <= d.base <= hi) + int(lo <= d.base + 1 <= hi)
    if crossings % 2 != 1:
        raise HypothesisError("i", "S' crosses delta %d times, need exactly one" % (crossings,))

    if s2 != act(tau, s1):
        raise HypothesisError("ii", "S'' is not the base half-twist image of S'")

    returned = act(dehn_twist(s2) * tau * tau, s1)
    if returned != s1:
        raise HypothesisError("lantern", "twist_{S''} tau_delta^2 does not return S' to itself")

    A = Automorphism(half_twist(a), tau)
    ok, detail = in_gamma_detail(A, P)
    if not ok:
        # Configurations outside the standard local model can need the
        # inverse fiber twist under this library's composition convention.
        raise HypothesisError("membership", "stabilizer check failed: %r" % (detail,))
    return A


# --- enumeration and orbits ----------------------------------------------

def arc_key(a):
    """Canonical form of the supporting pair under simultaneous conjugation.

    Both words are conjugated by the inverse of the peeled prefix w of
    eta' = w x_core w^(-1), turning eta' into the bare generator x_core.
    """
    return _pair_key(*_pair_letters(a.carrier._images(), a.base))


def _pair_key(eta1, eta2):
    """arc_key of the raw pair from _pair_letters, which asserts eta1 = w x_core w^(-1): x_core is its middle."""
    lo = len(eta1) // 2
    return eta1[lo], _join(_join(_inverse(eta1[:lo]), eta2), eta1[:lo])


def _carrier_words(r, max_len):
    """Nodes (letters, raw images of x_1 .. x_r) of the normal-form carrier
    words of length <= max_len, in length, then product order over s1 S1 s2 ...

    Each level extends the nodes kept at the level before, so a word comes out
    only if all its prefixes did, with its parent's images advanced by _step.
    Two kinds of word are skipped, each the same braid as a word that comes
    earlier: one whose last letter cancels the letter before it (it reduces to
    a shorter word), and one whose last two letters are s_i^±, s_j^± with
    i - j >= 2 (they commute, and the swapped word comes first in product order).
    """
    gens = [l for i in range(1, r) for l in (i, -i)]
    level = [((), tuple((i,) for i in range(1, r + 1)))]
    for length in range(max_len + 1):
        yield from level
        if length < max_len:
            level = [
                (w + (l,), _step(img, l))
                for w, img in level
                for l in gens
                if not w or (l != -w[-1] and abs(w[-1]) - abs(l) < 2)
            ]


def _kept_arcs(P, max_carrier_len):
    """(arc, raw eta', raw eta'') for each arc of enumerate_arcs, in its order."""
    if max_carrier_len < 0:
        raise ValueError("carrier length bound must be >= 0")
    seen = set()
    for word, img in _carrier_words(P.r, max_carrier_len):
        for base in range(1, P.r):
            if word and abs(abs(word[-1]) - base) >= 2:
                continue
            pair = _pair_letters(img, base)
            key = _pair_key(*pair)
            if key not in seen:
                seen.add(key)
                yield (Arc(base, _new(Braid, strands=P.r, letters=word, _action=img)), *pair)


def enumerate_arcs(P, max_carrier_len):
    """All arcs with carrier word length <= L, deduplicated by supporting pair.

    Each arc is the first, in carrier order (see _carrier_words), to reach
    its key.  Besides the carriers that _carrier_words skips (those not
    freely reduced or ending in a far-commuting pair out of order), an arc on
    base b whose carrier ends in s_j^± with |j - b| >= 2 is skipped: that
    letter fixes x_b and x_{b+1}, so the arc has the supporting pair of
    the carrier without it.  Skipping is by word only, never by key.  Pairs
    and keys are read off each node's images; kept carriers carry them preset.
    """
    return [a for a, _, _ in _kept_arcs(P, max_carrier_len)]


def _labelled_arcs(P, max_carrier_len):
    """(a, *arc_labels(a, P)) for each arc a of enumerate_arcs, in its order: the pair its key
    was built from, and one _move per distinct carrier prefix, from its parent's pencil."""
    moved = {(): P}
    for a, eta1, eta2 in _kept_arcs(P, max_carrier_len):
        word = a.carrier.letters
        k = len(word)
        while word[:k] not in moved:
            k -= 1
        Q = moved[word[:k]]
        for j in range(k, len(word)):
            Q = moved[word[: j + 1]] = _move(Q, word[j])
        eta1, eta2 = _new(FreeWord, rank=P.r, letters=eta1), _new(FreeWord, rank=P.r, letters=eta2)
        yield (a, eta1, eta2, *_read_labels(Q, a.base))


def enumerate_matching_arcs(P, max_carrier_len):
    return [a for a, _, _, s1, s2 in _labelled_arcs(P, max_carrier_len) if classify_labels(s1, s2).kind == MATCHING]


def _closure(start, neighbours, depth, key):
    """Breadth-first closure of start under neighbours, to the given depth:
    {key: first element reached with that key}, in the order reached."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    seen = {key(start): start}
    frontier = [start]
    for _ in range(depth):
        new_frontier = []
        for cur in frontier:
            for nxt in neighbours(cur):
                n = len(seen)
                seen.setdefault(key(nxt), nxt)
                if len(seen) > n:
                    new_frontier.append(nxt)
        frontier = new_frontier
        if not frontier:
            break
    return seen


def kernel_orbit(a, P, gens, depth):
    """Closure of an arc under pushforward by stabilizer braids.

    Every generator must pass the membership test; the pushforward of
    Arc(i, c) by a braid b is Arc(i, b * c).  Classification is invariant
    along the orbit and asserted on every element reached, in BFS order.
    """
    for A in gens:
        if not in_gamma(A, P):
            raise ValueError("orbit generator is not in the stabilizer")
    moves = [m for A in gens for m in (A.b, A.b.inverse())]
    pushed = lambda cur: (Arc(cur.base, b * cur.carrier) for b in moves)
    reached = list(_closure(a, pushed, depth, arc_key).values())
    base_class = classify_arc(a, P)
    for x in reached[1:]:
        got = classify_arc(x, P)
        if got != base_class:
            raise AssertionError("orbit element classifies as %s, expected %s" % (got, base_class))
    return set(reached)


def hurwitz_orbit(P, depth):
    """Closure of a pencil under elementary Hurwitz moves, up to given depth.  The moves
    by s_i^e are the _move steps by s_i^-e, so one step per letter covers them."""
    moves = lambda cur: (_move(cur, e * i) for i in range(1, P.r) for e in (-1, 1))
    return set(_closure(P, moves, depth, lambda Q: Q))


# --- files ----------------------------------------------------------------

def pencil_to_json(P):
    return {
        "fiber": model_to_json(P.fiber),
        "cycles": [cycle_to_json(c) for c in P.cycles],
    }


def pencil_from_json(doc):
    if not isinstance(doc, dict) or "fiber" not in doc or "cycles" not in doc:
        raise ValueError("pencil document needs 'fiber' and 'cycles'")
    if not isinstance(doc["cycles"], list):
        raise ValueError("pencil 'cycles' must be an array")
    model = model_from_json(doc["fiber"])
    cycles = [cycle_from_json(model, c) for c in doc["cycles"]]
    try:
        return Pencil(model, cycles)
    except UnsupportedCycle as e:  # a file presents a disc cycle only by its word
        advice = "a disc cycle read from a file must be a round range word such as 'x2 x3'"
        raise UnsupportedCycle("%s; %s" % (e, advice)) from None


def automorphism_from_json(model, r, doc):
    if not isinstance(doc, dict) or "braid" not in doc or "fiber_element" not in doc:
        raise ValueError("automorphism document needs 'braid' and 'fiber_element'")
    if not isinstance(doc["braid"], str):
        raise ValueError("automorphism 'braid' must be a braid token string")
    b = braid_from_str(r, doc["braid"])
    g = element_from_json(model, doc["fiber_element"])
    return Automorphism(b, g)

