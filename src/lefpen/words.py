"""Free-group and braid-group words.

Elements of the free group F_r are stored as freely reduced tuples of
nonzero integers: letter ``+i`` is the generator ``x_i`` and ``-i`` its
inverse (1-based, ``i <= rank``).  Braid words on ``r`` strands use the
same encoding, ``+i`` standing for the Artin generator ``s_i``
(``1 <= i <= r - 1``).

Braid equality is decided through the faithful Artin action on the free
group rather than through a normal form: two braid words are equal iff
they act identically on the generators ``x_1 .. x_r``.  This keeps every
downstream identity exact at desk scale.

Convention.  The positive generator ``s_i`` acts by

    x_i      ->  x_i x_{i+1} x_i^(-1)
    x_{i+1}  ->  x_i

fixing the other generators, and a product acts with its leftmost factor
applied last, so ``artin_apply(b1 * b2, u) == artin_apply(b1,
artin_apply(b2, u))``.  All sign choices elsewhere (half-twist action on
supporting pairs, Hurwitz rules) are anchored to this convention.  The
product ``x_1 x_2 .. x_r`` is fixed by every braid.

Serialization: braid words are space-separated tokens ``s<i>`` / ``S<i>``
(inverse), free words ``x<i>`` / ``X<i>``, ``<i>`` in ASCII digits.  The
empty word serializes to the empty string.

Only the public ``FreeWord``/``Braid`` constructors and ``*_from_str`` check
input.  Words the algebra derives are reduced and in range by construction
and are built by ``_new``, the exact layer's one unchecked constructor.
"""

from __future__ import annotations

from dataclasses import dataclass


class RankMismatch(ValueError):
    """Operands live over different ranks / strand counts."""


def _reduce(letters):
    """Freely reduce a letter sequence (stack cancellation)."""
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def _new(cls, **fields):
    """An instance of cls with its slots set from fields, checks skipped."""
    obj = object.__new__(cls)
    for name in cls.__slots__:
        setattr(obj, name, fields.get(name))
    return obj


def _check_letters(letters, bound, what):
    for l in letters:
        if not isinstance(l, int) or l == 0 or abs(l) > bound:
            raise ValueError("invalid %s letter %r (allowed indices 1..%d)" % (what, l, bound))


class FreeWord:
    """A freely reduced word in F_rank.

    Instances are immutable; every constructor reduces its input.
    """

    __slots__ = ("rank", "letters")

    def __init__(self, rank, letters=()):
        if rank < 1:
            raise ValueError("rank must be positive")
        letters = _reduce(letters)
        _check_letters(letters, rank, "free word")
        self.rank = rank
        self.letters = letters

    @classmethod
    def identity(cls, rank):
        return cls(rank, ())

    @classmethod
    def generator(cls, rank, i, exponent=1):
        return cls(rank, (i if exponent > 0 else -i,))

    def __mul__(self, other):
        if not isinstance(other, FreeWord):
            return NotImplemented
        if self.rank != other.rank:
            raise RankMismatch("free words over different ranks: %d vs %d" % (self.rank, other.rank))
        return _new(FreeWord, rank=self.rank, letters=_reduce(self.letters + other.letters))

    def inverse(self):
        return _new(FreeWord, rank=self.rank, letters=tuple(-l for l in reversed(self.letters)))

    def is_identity(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, FreeWord)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.rank, self.letters))

    def __repr__(self):
        return "FreeWord(%d, %r)" % (self.rank, list(self.letters))

    def __str__(self):
        return word_to_str(self)


def conjugate(u, g):
    """g * u * g^(-1)."""
    return g * u * g.inverse()


@dataclass(frozen=True)
class GeneratorConjugate:
    """A word of the form w x_i w^(-1), with the canonical conjugator w.

    The conjugator is the prefix peeled off during cyclic reduction, which
    makes the decomposition deterministic.
    """

    core: int
    conjugator: FreeWord

    def __post_init__(self):
        if not 1 <= self.core <= self.conjugator.rank:
            raise ValueError("core index %d out of range" % (self.core,))

    def word(self):
        w = self.conjugator
        return _new(FreeWord, rank=w.rank, letters=_reduce(w.letters + (self.core,) + w.inverse().letters))


def cyclic_reduce(u):
    """Return (core, w) with u == w * core * w^(-1) and core cyclically reduced.

    w collects the peeled prefix letters in order.
    """
    letters = u.letters
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return _new(FreeWord, rank=u.rank, letters=letters[lo:hi]), _new(FreeWord, rank=u.rank, letters=letters[:lo])


def is_generator_conjugate(u):
    """Decompose u as w x_i w^(-1), or return None.

    Succeeds iff the cyclic reduction of u is a single positive generator.
    """
    core, w = cyclic_reduce(u)
    if len(core.letters) == 1 and core.letters[0] > 0:
        return GeneratorConjugate(core.letters[0], w)
    return None


class Braid:
    """A braid word on ``strands`` strands.

    The stored word is freely reduced (``s_i s_i^-1`` pairs cancel) but is
    otherwise kept verbatim; group equality (``==``) goes through the Artin
    action.
    """

    __slots__ = ("strands", "letters", "_action")

    def __init__(self, strands, letters=()):
        if strands < 1:
            raise ValueError("strand count must be positive")
        letters = _reduce(letters)
        if strands == 1 and letters:
            raise ValueError("B_1 is trivial")
        _check_letters(letters, strands - 1, "braid")
        self.strands = strands
        self.letters = letters
        self._action = None

    @classmethod
    def identity(cls, strands):
        return cls(strands, ())

    @classmethod
    def generator(cls, strands, i, exponent=1):
        return cls(strands, (i if exponent > 0 else -i,))

    def __mul__(self, other):
        if not isinstance(other, Braid):
            return NotImplemented
        if self.strands != other.strands:
            raise RankMismatch("braids on different strand counts: %d vs %d" % (self.strands, other.strands))
        return _new(Braid, strands=self.strands, letters=_reduce(self.letters + other.letters))

    def inverse(self):
        return _new(Braid, strands=self.strands, letters=tuple(-l for l in reversed(self.letters)))

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        return _new(Braid, strands=self.strands, letters=_reduce(base.letters * abs(n)))

    def is_identity(self):
        return all(img.letters == (i,) for i, img in self.action())

    def action(self):
        """Images of x_1 .. x_r under this braid, as ((i, image), ...).

        This tuple is a faithful normal form: it backs ``__eq__`` and
        ``__hash__``.
        """
        if self._action is None:
            self._action = tuple(
                (i, artin_apply(self, _new(FreeWord, rank=self.strands, letters=(i,))))
                for i in range(1, self.strands + 1)
            )
        return self._action

    def __eq__(self, other):
        if not isinstance(other, Braid):
            return NotImplemented
        if self.strands != other.strands:
            return False
        if self.letters == other.letters:
            return True
        return self.action() == other.action()

    def __hash__(self):
        return hash((self.strands, self.action()))

    def __repr__(self):
        return "Braid(%d, %r)" % (self.strands, list(self.letters))

    def __str__(self):
        return braid_to_str(self)


def _letter_image(s, l):
    """Image of the free letter l under one braid letter s (s may be negative)."""
    i, j = abs(l), abs(s)
    if i == j:
        img = (j, j + 1, -j) if s > 0 else (j + 1,)
    elif i == j + 1:
        img = (j,) if s > 0 else (-(j + 1), j, j + 1)
    else:
        img = (i,)
    if l < 0:
        img = tuple(-t for t in reversed(img))
    return img


def artin_apply(b, u):
    """Apply the Artin automorphism of the braid b to the free word u.

    Composition contract: artin_apply(b1 * b2, u) equals
    artin_apply(b1, artin_apply(b2, u)).
    """
    if b.strands != u.rank:
        raise RankMismatch("braid on %d strands cannot act on F_%d" % (b.strands, u.rank))
    letters = u.letters
    for s in reversed(b.letters):
        out = []
        for l in letters:
            for t in _letter_image(s, l):
                if out and out[-1] == -t:
                    out.pop()
                else:
                    out.append(t)
        letters = tuple(out)
    return _new(FreeWord, rank=u.rank, letters=letters)


@dataclass(frozen=True)
class Arc:
    """An embedded arc between two punctures, encoded as a pushed base arc.

    ``Arc(base, carrier)`` denotes the image of the straight arc between
    punctures ``base`` and ``base + 1`` under the carrier braid.  Every
    embedded arc between punctures is of this form up to isotopy.
    """

    base: int
    carrier: Braid

    def __post_init__(self):
        if not 1 <= self.base <= self.carrier.strands - 1:
            raise ValueError("arc base %d out of range for %d strands" % (self.base, self.carrier.strands))

    @property
    def strands(self):
        return self.carrier.strands


def half_twist(a):
    """The positive half-twist along the arc: carrier * s_base * carrier^(-1)."""
    return a.carrier * Braid.generator(a.strands, a.base) * a.carrier.inverse()


def supporting_pair(a):
    """The supporting pair (eta', eta'') of the arc, as generator conjugates.

    eta'  = carrier . x_base
    eta'' = carrier . (x_base x_{base+1} x_base^(-1))

    so eta'' is the image of eta' under the arc's half-twist.
    """
    r = a.strands
    b = a.base
    eta1 = artin_apply(a.carrier, _new(FreeWord, rank=r, letters=(b,)))
    eta2 = artin_apply(a.carrier, _new(FreeWord, rank=r, letters=(b, b + 1, -b)))
    g1 = is_generator_conjugate(eta1)
    g2 = is_generator_conjugate(eta2)
    if g1 is None or g2 is None:
        raise AssertionError("supporting pair left the set of generator conjugates")
    return g1, g2


# --- serialization -------------------------------------------------------

def word_to_str(u):
    return " ".join(("x%d" % l) if l > 0 else ("X%d" % -l) for l in u.letters)


def word_from_str(rank, s):
    return FreeWord(rank, _parse_tokens(s, "x", "X", "free word"))


def braid_to_str(b):
    return " ".join(("s%d" % l) if l > 0 else ("S%d" % -l) for l in b.letters)


def braid_from_str(strands, s):
    return Braid(strands, _parse_tokens(s, "s", "S", "braid"))


def _parse_tokens(s, pos, neg, what):
    letters = []
    for tok in s.split():
        head, tail = tok[:1], tok[1:]
        if head not in (pos, neg) or not (tail.isascii() and tail.isdigit()):
            raise ValueError("bad %s token %r" % (what, tok))
        letters.append(int(tail) if head == pos else -int(tail))
    return tuple(letters)
