import random

import pytest

from lefpen.words import (
    Arc,
    Braid,
    FreeWord,
    RankMismatch,
    artin_apply,
    braid_from_str,
    braid_to_str,
    conjugate,
    cyclic_reduce,
    half_twist,
    is_generator_conjugate,
    supporting_pair,
    word_from_str,
    word_to_str,
)

rng = random.Random(20240817)


def rand_word(rank, max_len=12):
    n = rng.randint(0, max_len)
    letters = [rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(n)]
    return FreeWord(rank, letters)


def rand_braid(strands, max_len=8):
    n = rng.randint(0, max_len)
    letters = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(n)]
    return Braid(strands, letters)


def test_free_reduction_and_inverse():
    x1 = FreeWord.generator(3, 1)
    assert (x1 * x1.inverse()).is_identity()
    assert FreeWord(3, (1, 2)) * FreeWord(3, (-2, 3)) == FreeWord(3, (1, 3))
    assert conjugate(FreeWord.generator(3, 2), x1) == FreeWord(3, (1, 2, -1))


def test_free_mul_associative_random():
    for _ in range(300):
        u, v, w = (rand_word(4) for _ in range(3))
        assert (u * v) * w == u * (v * w)


def test_inverse_cancels_random():
    for _ in range(200):
        u = rand_word(5)
        assert (u * u.inverse()).is_identity()
        assert (u.inverse() * u).is_identity()


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        FreeWord(2, (1,)) * FreeWord(3, (1,))
    with pytest.raises(RankMismatch):
        artin_apply(Braid(3, (1,)), FreeWord(2, (1,)))


def test_is_generator_conjugate():
    assert is_generator_conjugate(FreeWord(3, (2,))).core == 2
    assert is_generator_conjugate(FreeWord(3, (2,))).conjugator.is_identity()
    gc = is_generator_conjugate(FreeWord(3, (1, 3, -1)))
    assert gc.core == 3 and gc.conjugator == FreeWord(3, (1,))
    assert is_generator_conjugate(FreeWord(3, (1, -2, -1))) is None
    assert is_generator_conjugate(FreeWord(3, (1, 2))) is None


def test_generator_conjugate_roundtrip_random():
    for _ in range(300):
        w = rand_word(4)
        i = rng.randint(1, 4)
        u = conjugate(FreeWord.generator(4, i), w)
        gc = is_generator_conjugate(u)
        assert gc is not None and gc.core == i
        assert gc.word() == u


def test_cyclic_reduce():
    core, w = cyclic_reduce(FreeWord(3, (1, 2, 3, -2, -1)))
    assert core == FreeWord(3, (3,)) and w == FreeWord(3, (1, 2))


def test_artin_generator_rules():
    s1 = Braid(2, (1,))
    assert artin_apply(s1, FreeWord(2, (1,))) == FreeWord(2, (1, 2, -1))
    assert artin_apply(s1, FreeWord(2, (2,))) == FreeWord(2, (1,))
    assert artin_apply(s1.inverse(), FreeWord(2, (1,))) == FreeWord(2, (2,))
    # derived: sigma_1 . x1x2 reduces back to x1x2
    assert artin_apply(s1, FreeWord(2, (1, 2))) == FreeWord(2, (1, 2))


def test_artin_composition_contract():
    for _ in range(200):
        b1, b2 = rand_braid(4), rand_braid(4)
        u = rand_word(4)
        assert artin_apply(b1 * b2, u) == artin_apply(b1, artin_apply(b2, u))


def test_artin_is_automorphism():
    for _ in range(200):
        b = rand_braid(5)
        u, v = rand_word(5), rand_word(5)
        assert artin_apply(b, u * v) == artin_apply(b, u) * artin_apply(b, v)


@pytest.mark.parametrize("r", range(2, 9))
def test_braid_relations_all_strands(r):
    for i in range(1, r - 1):
        assert Braid(r, (i, i + 1, i)) == Braid(r, (i + 1, i, i + 1))
    for i in range(1, r):
        for j in range(i + 2, r):
            assert Braid(r, (i, j)) == Braid(r, (j, i))


def test_braid_eq_examples():
    assert Braid(3, (1, 2, 1)) == Braid(3, (2, 1, 2))
    assert Braid(4, (1, 3)) == Braid(4, (3, 1))
    assert Braid(3, (1,)) != Braid(3, (2,))


def test_boundary_word_fixed():
    for r in (2, 3, 5):
        boundary = FreeWord(r, tuple(range(1, r + 1)))
        for _ in range(50):
            assert artin_apply(rand_braid(r), boundary) == boundary


def test_half_twist():
    assert half_twist(Arc(1, Braid(3))) == Braid(3, (1,))
    assert half_twist(Arc(1, Braid(3, (-2,)))) == Braid(3, (-2, 1, 2))
    sq = half_twist(Arc(1, Braid(3))) ** 2
    assert sq == Braid(3, (1, 1))


def test_supporting_pair():
    e1, e2 = supporting_pair(Arc(1, Braid(3)))
    assert e1.word() == FreeWord(3, (1,))
    assert e2.word() == FreeWord(3, (1, 2, -1))
    e1, e2 = supporting_pair(Arc(1, Braid(4, (-2,))))
    assert e1.word() == FreeWord(4, (1,))
    assert e2.word() == FreeWord(4, (1, 3, -1))
    e1, e2 = supporting_pair(Arc(2, Braid(4)))
    assert e1.word() == FreeWord(4, (2,))
    assert e2.word() == FreeWord(4, (2, 3, -2))


def test_supporting_pair_half_twist_image():
    for _ in range(100):
        a = Arc(rng.randint(1, 3), rand_braid(4))
        e1, e2 = supporting_pair(a)
        assert artin_apply(half_twist(a), e1.word()) == e2.word()


def test_braid_eq_stable_under_relation_rewrites():
    # rewrite random words with the defining relations; equality must hold
    for _ in range(60):
        r = rng.randint(3, 6)
        word = [rng.choice([1, -1]) * rng.randint(1, r - 1) for _ in range(rng.randint(3, 10))]
        rewritten = list(word)
        for _ in range(rng.randint(1, 4)):
            kind = rng.randint(0, 2)
            pos = rng.randint(0, len(rewritten))
            if kind == 0:
                # insert a cancelling pair
                g = rng.choice([1, -1]) * rng.randint(1, r - 1)
                rewritten[pos:pos] = [g, -g]
            elif kind == 1:
                # insert a braid-relation identity word
                i = rng.randint(1, r - 2)
                rewritten[pos:pos] = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
            else:
                # insert a commutation identity word
                far = [(i, j) for i in range(1, r) for j in range(i + 2, r)]
                if not far:
                    continue
                i, j = rng.choice(far)
                rewritten[pos:pos] = [i, j, -i, -j]
        assert Braid(r, word) == Braid(r, rewritten)


def test_artin_preserves_generator_conjugates():
    for _ in range(150):
        r = rng.randint(2, 5)
        w = FreeWord(r, [rng.choice([1, -1]) * rng.randint(1, r) for _ in range(rng.randint(0, 8))])
        gc = conjugate(FreeWord.generator(r, rng.randint(1, r)), w)
        b = rand_braid(r) if r > 1 else Braid(r)
        image = artin_apply(b, gc)
        assert is_generator_conjugate(image) is not None


def test_serialization_roundtrip():
    for _ in range(100):
        u = rand_word(6)
        assert word_from_str(6, word_to_str(u)) == u
        b = rand_braid(6)
        parsed = braid_from_str(6, braid_to_str(b))
        assert parsed.letters == b.letters
    assert word_to_str(FreeWord(2, (1, -2))) == "x1 X2"
    assert braid_to_str(Braid(3, (2, -1, 2))) == "s2 S1 s2"
    assert word_from_str(3, "").is_identity()


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        braid_from_str(3, "t1")
    with pytest.raises(ValueError):
        word_from_str(3, "x")
    with pytest.raises(ValueError):
        word_from_str(2, "x3")
    # a digit outside ASCII is a bad token, not a letter or an int() error
    for tok in ("x²", "x١"):
        with pytest.raises(ValueError, match="bad free word token '%s'" % tok):
            word_from_str(3, tok + " x2")
    with pytest.raises(ValueError, match="bad braid token 's٣'"):
        braid_from_str(4, "s٣")
