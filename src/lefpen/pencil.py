"""Positive factorizations, enhanced monodromy, and pencil automorphisms.

A pencil is an ordered tuple of vanishing cycles (c_1, .., c_r) in a fiber
model.  It induces the enhanced monodromy: the homomorphism zeta sending
x_i to the Dehn twist about c_i (words evaluated left to right), together
with the labelling L(w x_i w^(-1)) = zeta(w)(c_i) of all conjugates of
generators by cycle classes.  A label applies the twists of w's letters to
c_i one letter at a time, from the right (Picard-Lefschetz); each cycle's
twist and its inverse are built once per pencil, cached outside equality.

The automorphism group Gamma of the pencil consists of the pairs
(braid b, fiber element g) with zeta(b.x_i) = g zeta(x_i) g^(-1) and
L(b.x_i) = g(c_i) for every generator; checking on generators suffices
because both sides are natural in the word.

Hurwitz moves are the braid action on factorizations characterized by
"the moved pencil, precomposed with b, has the original monodromy data":
the new i-th cycle is the label of b^(-1).x_i.  On generators this gives
the familiar rule s_i: (c_i, c_{i+1}) -> (c_{i+1}, twist(c_{i+1})^(-1) c_i)
and the total monodromy zeta(x_1 .. x_r) never changes.

Arcs between critical values are classified through their supporting pair
(eta', eta'') and the cycles S' = L(eta'), S'' = L(eta''):

* Matching          S' and S'' are the same class; (half-twist, 1) in Gamma
* DisjointPair      certified intersection 0;     (half-twist^2, 1)
* OnceIntersecting  certified intersection 1;     (half-twist^3, 1)

and an arc whose S' crosses a base-point arc delta once, with S'' the
half-twist image of S', gives the mixed element (half-twist, tau_delta).
These are exactly the braid monodromies of a tangency, a node and a cusp
of the dual curve of a plane projection, plus the tangency-with-base-locus
case; see dual_singularity_braid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    Arc,
    Braid,
    FreeWord,
    RankMismatch,
    _new,
    artin_apply,
    braid_from_str,
    braid_to_str,
    conjugate,
    half_twist,
    is_generator_conjugate,
    supporting_pair,
    word_to_str,
)
from .fiber import (
    DISC,
    EXACT,
    SP,
    FiberElement,
    ModelMismatch,
    _as_range,
    act,
    base_half_twist,
    cycle_eq,
    cycle_from_json,
    cycle_to_json,
    dehn_twist,
    element_from_json,
    element_to_json,
    intersection_number,
    model_from_json,
    model_to_json,
)

MATCHING = "Matching"
DISJOINT_PAIR = "DisjointPair"
ONCE_INTERSECTING = "OnceIntersecting"
BASE_POINT_TWIST = "BasePointTwist"
OTHER = "Other"

NODE = "node"
CUSP = "cusp"
TANGENCY = "tangency"


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
        self.fiber = fiber
        self.cycles = cycles
        self._twists = {}  # letter -> its twist; not part of equality

    @property
    def r(self):
        return len(self.cycles)

    def twist(self, l):
        """zeta of the letter l: the Dehn twist about c_|l|, inverted for
        l < 0.  Built on first use and cached on the pencil."""
        if l not in self._twists:
            self._twists[l] = dehn_twist(self.cycles[l - 1]) if l > 0 else self.twist(-l).inverse()
        return self._twists[l]

    def total_monodromy(self):
        return monodromy_of(self, _new(FreeWord, rank=self.r, letters=tuple(range(1, self.r + 1))))

    def is_closed(self):
        return self.total_monodromy() == FiberElement.identity(self.fiber)

    def __eq__(self, other):
        return (
            isinstance(other, Pencil)
            and self.fiber == other.fiber
            and self.cycles == other.cycles
        )

    def __hash__(self):
        return hash((self.fiber, self.cycles))

    def __repr__(self):
        return "Pencil(%r, %r)" % (self.fiber, list(self.cycles))


@dataclass(frozen=True)
class Automorphism:
    """A candidate element (b, g) of the automorphism group of a pencil."""

    b: Braid
    g: FiberElement


@dataclass(frozen=True)
class ArcClass:
    kind: str
    reason: str | None = None

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
    of w from the right.  Accepts a GeneratorConjugate or a FreeWord that
    cyclically reduces to a positive generator.
    """
    if isinstance(gamma, FreeWord):
        gc = is_generator_conjugate(gamma)
        if gc is None:
            raise ValueError("word %r is not a conjugate of a generator" % (word_to_str(gamma),))
        gamma = gc
    if gamma.conjugator.rank != P.r:
        raise RankMismatch("generator conjugate rank does not match pencil size")
    c = P.cycles[gamma.core - 1]
    for l in reversed(gamma.conjugator.letters):
        c = act(P.twist(l), c)
    return c


def hurwitz_apply(b, P):
    """Hurwitz move of the factorization by the braid b.

    Defining contract: the monodromy data of the result, precomposed with
    the Artin automorphism of b, is the data of P.  Total monodromy is
    preserved because every braid fixes x_1 .. x_r as a product.
    """
    if b.strands != P.r:
        raise RankMismatch("braid strand count %d does not match pencil size %d" % (b.strands, P.r))
    binv = b.inverse()
    new_cycles = []
    for i in range(1, P.r + 1):
        w = artin_apply(binv, FreeWord.generator(P.r, i))
        new_cycles.append(vanishing_label(P, w))
    return Pencil(P.fiber, new_cycles)


def in_gamma(A, P):
    """Membership of (b, g) in the stabilizer of the enhanced monodromy."""
    return in_gamma_detail(A, P)[0]


def in_gamma_detail(A, P):
    """Like in_gamma, but reports the first violated generator with both sides."""
    if A.b.strands != P.r:
        raise RankMismatch("automorphism braid strand count does not match pencil size")
    if A.g.model != P.fiber:
        raise ModelMismatch("automorphism fiber element lives in the wrong model")
    ginv = A.g.inverse()
    for i in range(1, P.r + 1):
        u = artin_apply(A.b, FreeWord.generator(P.r, i))
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
        if not cycle_eq(lhs_lab, rhs_lab):
            return False, {
                "generator": i,
                "check": "label",
                "moved_word": word_to_str(u),
                "lhs": cycle_to_json(lhs_lab),
                "rhs": cycle_to_json(rhs_lab),
            }
    return True, None


def arc_labels(a, P):
    """(eta', eta'', S', S'') for an arc over the pencil's critical values."""
    eta1, eta2 = supporting_pair(a)
    s1 = vanishing_label(P, eta1)
    s2 = vanishing_label(P, eta2)
    return eta1, eta2, s1, s2


def classify_arc(a, P, trust_algebraic=False):
    """Classify an arc by the labels of its supporting pair; see classify_labels."""
    _, _, s1, s2 = arc_labels(a, P)
    return classify_labels(s1, s2, trust_algebraic=trust_algebraic)


def classify_labels(s1, s2, trust_algebraic=False):
    """The class of an arc whose supporting pair has the labels S', S''.

    Matching if the two classes agree; otherwise the certified geometric
    intersection number decides DisjointPair (0) or OnceIntersecting (1).
    When the intersection is only bounded below, the arc lands in Other;
    ``trust_algebraic`` upgrades the homological pairing of the sp model
    to a geometric count (the disc model's unsupported pairs stay Other,
    their bound carries no information).
    """
    if cycle_eq(s1, s2):
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
    power = {MATCHING: 1, DISJOINT_PAIR: 2, ONCE_INTERSECTING: 3}.get(cls.kind)
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

    if not cycle_eq(s2, act(tau, s1)):
        raise HypothesisError("ii", "S'' is not the base half-twist image of S'")

    returned = act(dehn_twist(s2) * tau * tau, s1)
    if not cycle_eq(returned, s1):
        raise HypothesisError("lantern", "twist_{S''} tau_delta^2 does not return S' to itself")

    A = Automorphism(half_twist(a), tau)
    ok, detail = in_gamma_detail(A, P)
    if not ok:
        # Configurations outside the standard local model can need the
        # inverse fiber twist under this library's composition convention.
        raise HypothesisError("membership", "stabilizer check failed: %r" % (detail,))
    return A


def dual_singularity_braid(kind, a):
    """Local braid monodromy of a dual-curve singularity around the arc.

    node -> half-twist squared, cusp -> cubed, tangency -> the half-twist.
    """
    power = {NODE: 2, CUSP: 3, TANGENCY: 1}.get(kind)
    if power is None:
        raise ValueError("unknown singularity kind %r" % (kind,))
    return half_twist(a) ** power


# --- enumeration and orbits ----------------------------------------------

def arc_key(a):
    """Canonical form of the supporting pair under simultaneous conjugation.

    Both entries are conjugated by the inverse of the canonical conjugator
    of eta', turning eta' into a bare generator.
    """
    eta1, eta2 = supporting_pair(a)
    winv = eta1.conjugator.inverse()
    return eta1.core, conjugate(eta2.word(), winv).letters


def _carrier_words(r, max_len):
    """Carrier braids of length <= max_len in normal form, in length, then
    product order over the letters s1 S1 s2 S2 ...

    Each level extends the words kept at the level before, so a word comes
    out only if all its prefixes did.  Two kinds of word are skipped, each
    the same braid as a word that comes earlier: one whose last letter
    cancels the letter before it (it reduces to a shorter word), and one
    whose last two letters are s_i^±, s_j^± with i - j >= 2 (they commute,
    and the swapped word comes first in product order).
    """
    gens = [l for i in range(1, r) for l in (i, -i)]
    level = [()]
    for length in range(max_len + 1):
        for word in level:
            yield _new(Braid, strands=r, letters=word)
        if length < max_len:
            level = [
                w + (l,)
                for w in level
                for l in gens
                if not w or (l != -w[-1] and abs(w[-1]) - abs(l) < 2)
            ]


def enumerate_arcs(P, max_carrier_len):
    """All arcs with carrier word length <= L, deduplicated by supporting pair.

    Each arc is the first, in carrier order (see _carrier_words), to reach
    its key.  Besides the carriers that _carrier_words skips (those not
    freely reduced or ending in a far-commuting pair out of order), an arc on
    base b whose carrier ends in s_j^± with |j - b| >= 2 is skipped: that
    letter fixes x_b and x_{b+1}, so the arc has the supporting pair of
    the carrier without it.  Skipping is by word only, never by key.
    """
    if max_carrier_len < 0:
        raise ValueError("carrier length bound must be >= 0")
    seen = set()
    out = []
    for carrier in _carrier_words(P.r, max_carrier_len):
        last = abs(carrier.letters[-1]) if carrier.letters else None
        for base in range(1, P.r):
            if last is not None and abs(last - base) >= 2:
                continue
            a = Arc(base, carrier)
            key = arc_key(a)
            if key not in seen:
                seen.add(key)
                out.append(a)
    return out


def enumerate_matching_arcs(P, max_carrier_len, trust_algebraic=False):
    return [
        a
        for a in enumerate_arcs(P, max_carrier_len)
        if classify_arc(a, P, trust_algebraic=trust_algebraic).kind == MATCHING
    ]


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
                k = key(nxt)
                if k not in seen:
                    seen[k] = nxt
                    new_frontier.append(nxt)
        frontier = new_frontier
        if not frontier:
            break
    return seen


def kernel_orbit(a, P, gens, depth, trust_algebraic=False):
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
    base_class = classify_arc(a, P, trust_algebraic=trust_algebraic)
    for x in reached[1:]:
        got = classify_arc(x, P, trust_algebraic=trust_algebraic)
        if got != base_class:
            raise AssertionError("orbit element classifies as %s, expected %s" % (got, base_class))
    return set(reached)


def hurwitz_orbit(P, depth):
    """Closure of a pencil under elementary Hurwitz moves, up to given depth."""
    moves = [Braid.generator(P.r, i, e) for i in range(1, P.r) for e in (1, -1)]
    return set(_closure(P, lambda cur: (hurwitz_apply(b, cur) for b in moves), depth, lambda Q: Q))


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
    return Pencil(model, cycles)


def automorphism_to_json(A):
    return {"braid": braid_to_str(A.b), "fiber_element": element_to_json(A.g)}


def automorphism_from_json(model, r, doc):
    if not isinstance(doc, dict) or "braid" not in doc or "fiber_element" not in doc:
        raise ValueError("automorphism document needs 'braid' and 'fiber_element'")
    if not isinstance(doc["braid"], str):
        raise ValueError("automorphism 'braid' must be a braid token string")
    b = braid_from_str(r, doc["braid"])
    g = element_from_json(model, doc["fiber_element"])
    return Automorphism(b, g)

