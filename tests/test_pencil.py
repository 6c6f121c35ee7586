import random
import re
from functools import lru_cache
from itertools import product

import pytest

import lefpen.pencil
import lefpen.words
from lefpen.words import Arc, Braid, FreeWord, RankMismatch, artin_apply, braid_to_str, word_from_str
from lefpen.fiber import (
    Cycle,
    FiberElement,
    FiberModel,
    UnsupportedCycle,
    act,
    base_half_twist,
    dehn_twist,
    standard_curve,
)
from lefpen.pencil import (
    DISJOINT_PAIR,
    MATCHING,
    ONCE_INTERSECTING,
    OTHER,
    SINGULARITIES,
    ArcClass,
    Automorphism,
    HypothesisError,
    Pencil,
    _carrier_words,
    arc_key,
    arc_labels,
    automorphism_from_arc,
    automorphism_from_json,
    base_twist_automorphism,
    classify_arc,
    dual_singularity_braid,
    enumerate_arcs,
    enumerate_matching_arcs,
    hurwitz_apply,
    hurwitz_orbit,
    in_gamma,
    in_gamma_detail,
    kernel_orbit,
    monodromy_of,
    pencil_from_json,
    pencil_to_json,
    vanishing_label,
)

rng = random.Random(99)

T = FiberModel("torus")
A = Cycle(T, vector=(1, 0))
B = Cycle(T, vector=(0, 1))
P_AB = Pencil(T, (A, B))
P_ABAB = Pencil(T, (A, B, A, B))
SP2 = FiberModel("sp", genus=2)
P_SP2 = Pencil(SP2, [Cycle(SP2, vector=v) for v in ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0))])


def rand_braid(strands, max_len=10):
    n = rng.randint(0, max_len)
    return Braid(strands, [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(n)])


def rand_torus_pencil(max_r=6, g=rng):
    return rand_homology_pencil(T, g.randint(2, max_r), 5, g)


def rand_homology_pencil(model, r, bound, g):
    from math import gcd

    cycles = []
    for _ in range(r):
        while True:
            v = tuple(g.randint(-bound, bound) for _ in range(model.dim))
            if any(v) and gcd(*(abs(x) for x in v)) == 1:
                break
        cycles.append(Cycle(model, vector=v))
    return Pencil(model, cycles)


def rand_sp_pencil(g):
    return rand_homology_pencil(FiberModel("sp", genus=g.randint(1, 3)), g.randint(2, 5), 2, g)


def rand_disc_pencil(g):
    # round range curves, so every cycle has a Dehn twist
    m = FiberModel("disc", punctures=g.randint(2, 4))
    ranges = [sorted((g.randint(1, m.punctures), g.randint(1, m.punctures))) for _ in range(g.randint(2, 4))]
    return Pencil(m, [standard_curve(m, i, j) for i, j in ranges])


def test_monodromy_of_generators_and_identity():
    assert monodromy_of(P_AB, FreeWord(2, (1,))) == dehn_twist(A)
    assert monodromy_of(P_AB, FreeWord(2)) == FiberElement.identity(T)
    got = monodromy_of(P_AB, FreeWord(2, (1, 2)))
    assert got.matrix == ((0, -1), (1, 1))


def test_vanishing_label_examples():
    assert vanishing_label(P_ABAB, word_from_str(4, "x1")) == A
    assert vanishing_label(P_ABAB, word_from_str(4, "x1 x3 X1")) == A
    assert vanishing_label(P_ABAB, word_from_str(4, "x1 x2 x3 X2 X1")) == B


def test_label_equivariance():
    # L(w gamma w^-1) = zeta(w)(L(gamma)) for conjugates of generators, and
    # the letter-by-letter label is the image under the product of twists
    cases = [
        (lambda g: rand_torus_pencil(g=g), rng, 200),
        (rand_sp_pencil, random.Random(5), 100),
        (rand_disc_pencil, random.Random(6), 60),
    ]
    for make, g, trials in cases:
        for _ in range(trials):
            P = make(g)
            r = P.r
            w = FreeWord(r, [g.choice([1, -1]) * g.randint(1, r) for _ in range(g.randint(0, 8))])
            i = g.randint(1, r)
            gamma = FreeWord(r, (i,))
            lhs = vanishing_label(P, w * gamma * w.inverse())
            rhs = act(monodromy_of(P, w), vanishing_label(P, gamma))
            assert lhs == rhs
            assert lhs == act(monodromy_of(P, w), P.cycles[i - 1])


def test_hurwitz_generator_rule():
    Q = hurwitz_apply(Braid(2, (1,)), P_AB)
    assert Q.cycles[0] == B
    assert Q.cycles[1] == Cycle(T, vector=(1, -1))
    assert hurwitz_apply(Braid(2), P_AB) == P_AB


def test_hurwitz_rule_general():
    # s_i: (c_i, c_{i+1}) -> (c_{i+1}, twist(c_{i+1})^{-1} c_i), others fixed
    for _ in range(100):
        P = rand_torus_pencil()
        i = rng.randint(1, P.r - 1)
        Q = hurwitz_apply(Braid(P.r, (i,)), P)
        for j in range(P.r):
            if j == i - 1:
                assert Q.cycles[j] == P.cycles[i]
            elif j == i:
                assert Q.cycles[j] == act(dehn_twist(P.cycles[i]).inverse(), P.cycles[i - 1])
            else:
                assert Q.cycles[j] == P.cycles[j]


def test_hurwitz_invariance_500():
    for _ in range(500):
        P = rand_torus_pencil()
        b = rand_braid(P.r)
        assert hurwitz_apply(b, P).total_monodromy() == P.total_monodromy()


def test_hurwitz_composition():
    for _ in range(100):
        P = rand_torus_pencil()
        b1, b2 = rand_braid(P.r, 5), rand_braid(P.r, 5)
        assert hurwitz_apply(b1 * b2, P) == hurwitz_apply(b1, hurwitz_apply(b2, P))


def test_in_gamma_trivial_and_examples():
    assert in_gamma(Automorphism(Braid(2), FiberElement.identity(T)), P_AB)
    matching = Automorphism(Braid(4, (-2, 1, 2)), FiberElement.identity(T))
    assert in_gamma(matching, P_ABAB)
    assert not in_gamma(Automorphism(Braid(2, (1,)), FiberElement.identity(T)), P_AB)


def test_in_gamma_detail_reports_violation():
    # s1 with the identity: on the torus the twists already differ; around single punctures
    # only the labels do, as a curve around one puncture has a trivial twist
    d2 = FiberModel("disc", punctures=2)
    puncture_curves = Pencil(d2, [standard_curve(d2, 1, 1), standard_curve(d2, 2, 2)])
    for P, check in ((P_AB, "monodromy"), (puncture_curves, "label")):
        ok, detail = in_gamma_detail(Automorphism(Braid(2, (1,)), FiberElement.identity(P.fiber)), P)
        assert not ok
        assert detail["generator"] == 1 and detail["check"] == check
    assert (detail["lhs"], detail["rhs"]) == ("x2", "x1")


DISC3 = FiberModel("disc", punctures=3)
P_DISC3_R4 = Pencil(DISC3, [standard_curve(DISC3, i, 3) for i in (1, 2, 3, 1)])


@pytest.mark.parametrize("P", [P_ABAB, P_DISC3_R4], ids=["torus", "disc"])
@pytest.mark.parametrize("l", [0, 5, -5])
def test_twists_reject_letters_outside_the_pencil(P, l):
    # a letter must name a cycle of the pencil: 0 and +-(r + 1) name none
    message = "letter %d is out of range: a pencil of 4 cycles takes ±1..±4" % l
    for call in (lambda: P.twist(l), lambda: P.twist_cycle(l, P.cycles[0])):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call()


@pytest.mark.parametrize("strands", [2, 5])
def test_arcs_must_fit_the_pencil(strands):
    # an arc over fewer or more critical values than the pencil has is not one of its arcs
    a = Arc(1, Braid(strands))
    message = "arc strand count %d does not match pencil size 4" % strands
    for call in (arc_labels, classify_arc):
        with pytest.raises(RankMismatch, match="^" + message + "$"):
            call(a, P_ABAB)


def test_gamma_closed_under_composition_and_inverse():
    a1 = automorphism_from_arc(Arc(1, Braid(4, (-2,))), P_ABAB)
    a2 = automorphism_from_arc(Arc(1, Braid(4)), P_ABAB)
    comp = Automorphism(a1.b * a2.b, a1.g * a2.g)
    assert in_gamma(comp, P_ABAB)
    inv = Automorphism(a1.b.inverse(), a1.g.inverse())
    assert in_gamma(inv, P_ABAB)


def test_classify_arc_examples():
    assert classify_arc(Arc(1, Braid(4, (-2,))), P_ABAB).kind == MATCHING
    assert classify_arc(Arc(1, Braid(2)), P_AB).kind == ONCE_INTERSECTING
    ms = FiberModel("sp", genus=2)
    Ps = Pencil(ms, (Cycle(ms, vector=(1, 0, 0, 0)), Cycle(ms, vector=(0, 0, 1, 0))))
    strict = classify_arc(Arc(1, Braid(2)), Ps)
    assert strict.kind == OTHER and "lower bound" in strict.reason
    assert classify_arc(Arc(1, Braid(2)), Ps, trust_algebraic=True).kind == DISJOINT_PAIR


def test_trust_flag_does_not_upgrade_disc_unknowns():
    # pushed disc cycles outside the supported pairs stay Other even when
    # the algebraic pairing is trusted: their bound carries no information
    m = FiberModel("disc", punctures=4)
    pushed = act(FiberElement(m, braid=Braid(4, (2,))), standard_curve(m, 1, 2))
    P = Pencil(m, (pushed, standard_curve(m, 3, 4)))
    for trust in (False, True):
        assert classify_arc(Arc(1, Braid(2)), P, trust_algebraic=trust).kind == OTHER


def test_classify_arc_carrier_invariance():
    # right-composing the carrier with braids on strands away from the base
    # pair leaves the supporting pair, classification and half-twist alone
    from lefpen.words import half_twist

    for _ in range(80):
        P = rand_torus_pencil(6)
        if P.r < 4:
            continue
        base = rng.choice([1, P.r - 1])
        far = [j for j in range(1, P.r) if abs(j - base) >= 2]
        tail = Braid(P.r, [rng.choice([1, -1]) * rng.choice(far) for _ in range(rng.randint(1, 5))])
        carrier = rand_braid(P.r, 4)
        a = Arc(base, carrier)
        b = Arc(base, carrier * tail)
        assert arc_key(a) == arc_key(b)
        assert classify_arc(a, P) == classify_arc(b, P)
        assert half_twist(a) == half_twist(b)


def test_equal_supporting_pairs_give_equal_half_twists():
    # the supporting pair pins the arc, so its half-twist is well defined
    from itertools import product

    from lefpen.words import half_twist

    seen = {}
    comparisons = 0
    for length in range(0, 3):
        for word in product([1, -1, 2, -2, 3, -3], repeat=length):
            for base in (1, 2, 3):
                a = Arc(base, Braid(4, word))
                key = arc_key(a)
                tw = half_twist(a)
                if key in seen:
                    comparisons += 1
                    assert seen[key] == tw
                else:
                    seen[key] = tw
    assert comparisons > 50


def test_full_twist_with_total_monodromy_is_always_member():
    # conjugation by the boundary word realizes the full twist on any
    # factorization, in every fiber model
    from lefpen.fiber import full_twist

    for _ in range(50):
        P = rand_torus_pencil()
        A_ = Automorphism(full_twist(P.r, 1, P.r), P.total_monodromy())
        assert in_gamma(A_, P)
    m = FiberModel("disc", punctures=3)
    Pd = Pencil(m, (standard_curve(m, 1, 1), standard_curve(m, 1, 2), standard_curve(m, 2, 3)))
    assert in_gamma(Automorphism(full_twist(3, 1, 3), Pd.total_monodromy()), Pd)


def test_automorphism_from_arc_matching():
    a = Arc(1, Braid(4, (-2,)))
    got = automorphism_from_arc(a, P_ABAB)
    assert braid_to_str(got.b) == "S2 s1 s2"
    assert in_gamma(got, P_ABAB)


def test_automorphism_from_arc_once_intersecting():
    got = automorphism_from_arc(Arc(1, Braid(2)), P_AB)
    assert got.b == Braid(2, (1, 1, 1))
    assert in_gamma(got, P_AB)
    # both triple products realize the same element of SL(2, Z)
    trip = monodromy_of(P_AB, FreeWord(2, (1, 2, 1)))
    assert trip.matrix == ((0, -1), (1, 0))
    assert trip == monodromy_of(P_AB, FreeWord(2, (2, 1, 2)))


def test_automorphism_from_arc_disjoint_disc():
    m = FiberModel("disc", punctures=3)
    P = Pencil(m, (standard_curve(m, 1, 1), standard_curve(m, 2, 3)))
    assert classify_arc(Arc(1, Braid(2)), P).kind == DISJOINT_PAIR
    got = automorphism_from_arc(Arc(1, Braid(2)), P)
    assert got.b == Braid(2, (1, 1))
    assert in_gamma(got, P)


def test_automorphism_from_arc_sp_trusting():
    ms = FiberModel("sp", genus=2)
    Ps = Pencil(ms, (Cycle(ms, vector=(1, 0, 0, 0)), Cycle(ms, vector=(0, 0, 1, 0))))
    with pytest.raises(ValueError):
        automorphism_from_arc(Arc(1, Braid(2)), Ps)
    got = automorphism_from_arc(Arc(1, Braid(2)), Ps, trust_algebraic=True)
    assert got.b == Braid(2, (1, 1))
    assert in_gamma(got, Ps)


def test_base_twist_standard_configuration():
    m = FiberModel("disc", punctures=2)
    P = Pencil(m, (standard_curve(m, 1, 1), standard_curve(m, 2, 2)))
    arc = Arc(1, Braid(2))
    d = Arc(1, Braid(2))
    got = base_twist_automorphism(arc, d, P)
    assert got.b == Braid(2, (1,))
    assert got.g.braid == Braid(2, (1,))
    assert in_gamma(got, P)
    # the four-punctured-sphere identity in this configuration
    s1 = standard_curve(m, 1, 1)
    s2 = standard_curve(m, 2, 2)
    tau = base_half_twist(d, m)
    assert act(dehn_twist(s2) * tau * tau, s1) == s1


def test_base_twist_hypothesis_guards():
    m = FiberModel("disc", punctures=3)
    arc = Arc(1, Braid(2))
    d = Arc(1, Braid(3))
    # (i): S' disjoint from delta
    bad = Pencil(m, (standard_curve(m, 3, 3), standard_curve(m, 3, 3)))
    with pytest.raises(HypothesisError) as err:
        base_twist_automorphism(arc, d, bad)
    assert err.value.clause == "i"
    # (ii): S'' is not the half-twist image of S'
    bad2 = Pencil(m, (standard_curve(m, 1, 1), standard_curve(m, 1, 1)))
    with pytest.raises(HypothesisError) as err:
        base_twist_automorphism(arc, d, bad2)
    assert err.value.clause == "ii"


def test_base_twist_transposed_configuration():
    # A curve through two punctures crossing delta once needs the inverse
    # fiber twist under this library's composition convention; the positive
    # pair is rejected with a clean hypothesis failure.
    m = FiberModel("disc", punctures=3)
    s1 = standard_curve(m, 2, 3)
    tau = base_half_twist(Arc(1, Braid(3)), m)
    s2 = act(tau, s1)
    c2 = act(dehn_twist(s1).inverse(), s2)
    P = Pencil(m, (s1, c2))
    with pytest.raises(HypothesisError):
        base_twist_automorphism(Arc(1, Braid(2)), Arc(1, Braid(3)), P)
    assert in_gamma(Automorphism(Braid(2, (1,)), tau.inverse()), Pencil(m, (s1, act(dehn_twist(s1).inverse(), act(tau.inverse(), s1)))))


def test_dual_singularity_braid():
    a = Arc(1, Braid(3))
    assert dual_singularity_braid("node", a) == Braid(3, (1, 1))
    assert dual_singularity_braid("cusp", a) == Braid(3, (1, 1, 1))
    twisted = Arc(1, Braid(3, (2,)))
    assert dual_singularity_braid("tangency", twisted) == Braid(3, (2, 1, -2))
    with pytest.raises(ValueError):
        dual_singularity_braid("fold", a)


def test_singularity_table_matches_automorphisms():
    # each singularity's braid monodromy is the automorphism of the arcs of its class
    kinds = {cls: kind for kind, (cls, _) in SINGULARITIES.items()}
    seen = []
    for P, max_len, trust in ((P_ABAB, 2, False), (P_SP2, 1, True)):
        for a in enumerate_arcs(P, max_len):
            cls = classify_arc(a, P, trust_algebraic=trust).kind
            assert dual_singularity_braid(kinds[cls], a) == automorphism_from_arc(a, P, trust_algebraic=trust).b
            seen.append((P is P_SP2, cls))
    assert {cls for sp, cls in seen if not sp} == {MATCHING, ONCE_INTERSECTING}
    assert sorted(cls for sp, cls in seen if sp) == [DISJOINT_PAIR] * 6 + [ONCE_INTERSECTING] * 2


def test_enumerate_arcs_dedup_and_base_case():
    arcs = enumerate_arcs(P_ABAB, 0)
    assert [(a.base, a.carrier.letters) for a in arcs] == [(1, ()), (2, ()), (3, ())]
    arcs1 = enumerate_arcs(P_ABAB, 1)
    keys = [arc_key(a) for a in arcs1]
    assert len(keys) == len(set(keys))
    matching = enumerate_matching_arcs(P_ABAB, 1)
    keys = {arc_key(a) for a in matching}
    # the arcs between values (1,3) and (2,4); Arc(1, S2) and Arc(2, S3)
    # present the same arcs as the first-found representatives
    assert arc_key(Arc(1, Braid(4, (-2,)))) in keys
    assert arc_key(Arc(2, Braid(4, (-3,)))) in keys


@lru_cache(maxsize=None)
def product_order_arcs(r, max_len):
    """Reference: every arc (base, carrier letters, key) of every carrier
    word of length <= max_len, in length, then product order over
    s1 S1 s2 S2 ..., as the enumerator tried them before it skipped any."""
    gens = [l for i in range(1, r) for l in (i, -i)]
    return tuple(
        (base, word, arc_key(Arc(base, Braid(r, word))))
        for length in range(max_len + 1)
        for word in product(gens, repeat=length)
        for base in range(1, r)
    )


def first_arcs_by_key(r, max_len):
    seen, out = set(), []
    for base, word, key in product_order_arcs(r, max_len):
        if key not in seen:
            seen.add(key)
            out.append((base, word))
    return out


SP2 = FiberModel("sp", genus=2)
DISC4 = FiberModel("disc", punctures=4)


@pytest.mark.parametrize(
    "P, max_len",
    [
        pytest.param(Pencil(T, ((A, B) * 3)[:r]), L, id="torus-r%d-L%d" % (r, L))
        for r, L in [(3, 4), (4, 4), (5, 3)]
    ]
    + [
        pytest.param(
            Pencil(SP2, [Cycle(SP2, vector=v) for v in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)] * 2]),
            3,
            id="sp2-r6-L3",
        ),
        pytest.param(
            Pencil(DISC4, [standard_curve(DISC4, i, i + 1) for i in (1, 2, 3, 1)]),
            2,
            id="disc4-r4-L2",
        ),
    ],
)
def test_enumerate_arcs_matches_product_order_reference(P, max_len):
    # arcs of shorter carriers come first, so this covers every L <= max_len
    got = [(a.base, a.carrier.letters) for a in enumerate_arcs(P, max_len)]
    assert got == first_arcs_by_key(P.r, max_len)


# Rows of a `pencil matching` report: distinct supporting pairs, which
# depend on (r, L) alone.
MATCHING_ROWS = {(3, 2): 19, (4, 2): 38, (4, 3): 110, (4, 4): 320, (5, 3): 188, (6, 3): 266, (4, 5): 937}


@pytest.mark.parametrize("r, max_len", sorted(MATCHING_ROWS))
def test_matching_row_counts(r, max_len):
    P = Pencil(T, ((A, B) * 3)[:r])
    assert len(enumerate_arcs(P, max_len)) == MATCHING_ROWS[r, max_len]


@pytest.mark.parametrize("max_len", [2, 3, 4])
def test_enumerate_arcs_reads_actions_off_the_carrier_tree(monkeypatch, max_len):
    # carriers inherit their images from the tree: no walk, and each kept
    # carrier's preset action is the walked one
    walks = []
    walk = lefpen.words.artin_apply
    monkeypatch.setattr(lefpen.words, "artin_apply", lambda b, u: walks.append(b) or walk(b, u))
    arcs = enumerate_arcs(P_ABAB, max_len)
    assert walks == []
    assert all(a.carrier._action is not None for a in arcs)
    monkeypatch.undo()
    r = P_ABAB.r
    keys = set()
    for a in arcs:
        fresh = Braid(r, a.carrier.letters)
        assert a.carrier.action() == tuple(artin_apply(fresh, FreeWord(r, (i,))) for i in range(1, r + 1))
        assert arc_key(a) == arc_key(Arc(a.base, fresh))
        keys.add(arc_key(a))
    assert len(keys) == len(arcs)


SKIP_RULES = {
    "not freely reduced": lambda base, w: any(x == -y for x, y in zip(w, w[1:])),
    "far-commuting pair out of order": lambda base, w: any(abs(x) - abs(y) >= 2 for x, y in zip(w, w[1:])),
    "last letter far from the base": lambda base, w: bool(w) and abs(abs(w[-1]) - base) >= 2,
}


@pytest.mark.parametrize("rule", sorted(SKIP_RULES))
def test_each_skip_rule_drops_only_keys_reached_earlier(rule):
    drops = SKIP_RULES[rule]
    earlier, current, word_of_current = set(), set(), None
    dropped = 0
    for base, word, key in product_order_arcs(4, 4):
        if word != word_of_current:
            earlier |= current
            current, word_of_current = set(), word
        current.add(key)
        if drops(base, word):
            dropped += 1
            assert key in earlier, (rule, base, word)
    assert dropped > 0


def test_carrier_words_are_normal_and_prefix_closed():
    nodes = list(_carrier_words(4, 5))
    words = [w for w, _ in nodes]
    assert len(words) == 2583
    assert sum(len(w) == 5 for w in words) == 1974
    assert len(set(words)) == len(words)
    for w in words:
        for x, y in zip(w, w[1:]):
            assert x != -y and abs(x) - abs(y) < 2, w
    yielded = set(words)
    assert all(w[:-1] in yielded for w in words if w)
    for w, img in nodes:
        assert img == tuple(artin_apply(Braid(4, w), FreeWord(4, (i,))).letters for i in range(1, 5)), w


def test_empty_pencil_and_r1():
    P1 = Pencil(T, (A,))
    assert enumerate_arcs(P1, 0) == []


def test_kernel_orbit():
    a = Arc(1, Braid(4, (-2,)))
    assert kernel_orbit(a, P_ABAB, [], 3) == {a}
    gen = automorphism_from_arc(Arc(1, Braid(4)), P_ABAB)  # sigma^3 type
    orbit = kernel_orbit(a, P_ABAB, [gen], 3)
    assert a in orbit and len(orbit) > 1
    for el in orbit:
        assert classify_arc(el, P_ABAB).kind == MATCHING
    assert kernel_orbit(a, P_ABAB, [gen], 0) == {a}
    with pytest.raises(ValueError):
        kernel_orbit(a, P_ABAB, [Automorphism(Braid(4, (1,)), FiberElement.identity(T))], 1)


def test_kernel_orbit_multiple_generators():
    a = Arc(1, Braid(4, (-2,)))
    gens = [
        automorphism_from_arc(Arc(1, Braid(4)), P_ABAB),
        automorphism_from_arc(Arc(2, Braid(4)), P_ABAB),
        automorphism_from_arc(Arc(3, Braid(4)), P_ABAB),
    ]
    one_gen = kernel_orbit(a, P_ABAB, gens[:1], 2)
    all_gens = kernel_orbit(a, P_ABAB, gens, 2)
    assert one_gen <= all_gens
    assert len(all_gens) > len(one_gen)
    for el in all_gens:
        assert classify_arc(el, P_ABAB).kind == MATCHING


def test_kernel_orbit_asserts_class_in_bfs_order(monkeypatch):
    a = Arc(1, Braid(4, (-2,)))
    gen = automorphism_from_arc(Arc(1, Braid(4)), P_ABAB)
    real = lefpen.pencil.classify_arc
    order = []

    def record(x, P):
        order.append(arc_key(x))
        return real(x, P)

    monkeypatch.setattr(lefpen.pencil, "classify_arc", record)
    kernel_orbit(a, P_ABAB, [gen], 3)
    assert len(order) > 4 and order[0] == arc_key(a)
    flagged = {order[2], order[-1]}

    def flag(x, P):
        if arc_key(x) in flagged:
            return ArcClass(OTHER, repr(arc_key(x)))
        return real(x, P)

    monkeypatch.setattr(lefpen.pencil, "classify_arc", flag)
    with pytest.raises(AssertionError) as err:
        kernel_orbit(a, P_ABAB, [gen], 3)
    assert str(err.value) == "orbit element classifies as Other(%r), expected Matching" % (order[2],)


def test_negative_orbit_depth_rejected():
    gen = automorphism_from_arc(Arc(1, Braid(4)), P_ABAB)
    with pytest.raises(ValueError, match="depth"):
        hurwitz_orbit(P_ABAB, -1)
    with pytest.raises(ValueError, match="depth"):
        kernel_orbit(Arc(1, Braid(4, (-2,))), P_ABAB, [gen], -1)


def test_hurwitz_orbit_disc_model():
    m = FiberModel("disc", punctures=3)
    P = Pencil(m, (standard_curve(m, 1, 2), standard_curve(m, 2, 3)))
    orbit = hurwitz_orbit(P, 2)
    total = P.total_monodromy()
    assert P in orbit and len(orbit) > 1
    for Q in orbit:
        assert Q.total_monodromy() == total
        for c in Q.cycles:
            assert c.support is not None  # moved cycles stay twistable


def test_pencil_rejects_an_untwistable_disc_cycle():
    # a pencil's monodromy is the twists about its cycles, so every disc cycle needs a presentation
    m = FiberModel("disc", punctures=3)
    with pytest.raises(UnsupportedCycle, match="^disc cycle 'x1 x3' cannot be twisted, and a pencil's monodromy"):
        Pencil(m, [Cycle(m, word=(1, 3))])
    pushed = act(FiberElement(m, braid=Braid(3, (1,))), standard_curve(m, 2, 3))
    assert Pencil(m, [pushed]).cycles == (pushed,)


def test_hurwitz_orbit():
    assert hurwitz_orbit(P_AB, 0) == {P_AB}
    orb1 = hurwitz_orbit(P_AB, 1)
    assert orb1 == {
        P_AB,
        Pencil(T, (B, Cycle(T, vector=(1, -1)))),
        Pencil(T, (Cycle(T, vector=(1, -1)), A)),
    }
    orb3 = hurwitz_orbit(P_AB, 3)
    total = P_AB.total_monodromy()
    assert all(Q.total_monodromy() == total for Q in orb3)


def test_pencil_json_roundtrip():
    doc = pencil_to_json(P_ABAB)
    assert doc["fiber"] == {"model": "torus"}
    assert pencil_from_json(doc) == P_ABAB
    m = FiberModel("disc", punctures=3)
    Pd = Pencil(m, (standard_curve(m, 1, 2), standard_curve(m, 2, 3)))
    assert pencil_from_json(pencil_to_json(Pd)) == Pd
    aut = Automorphism(Braid(4, (-2, 1, 2)), FiberElement.identity(T))
    back = automorphism_from_json(T, 4, {"braid": "S2 s1 s2", "fiber_element": [1, 0, 0, 1]})
    assert back.b == aut.b and back.g == aut.g


def test_closedness():
    # (a, b, a, b, a, b) on the torus: (tau_a tau_b)^3 = Id in PSL but -Id in SL
    P6 = Pencil(T, (A, B) * 3)
    m = P6.total_monodromy()
    assert m.matrix == ((-1, 0), (0, -1))
    assert not P6.is_closed()
    P12 = Pencil(T, (A, B) * 6)
    assert P12.is_closed()
