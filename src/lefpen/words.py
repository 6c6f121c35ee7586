"""Free-group and braid-group words.

Elements of the free group F_r are stored as freely reduced tuples of
nonzero integers: letter ``+i`` is the generator ``x_i`` and ``-i`` its
inverse (1-based, ``i <= rank``).  Braid words on ``r`` strands use the
same encoding, ``+i`` standing for the Artin generator ``s_i``
(``1 <= i <= r - 1``).

Braid equality is decided through the faithful Artin action on the free
group rather than through a normal form: two braid words are equal iff
they act identically on the generators ``x_1 .. x_r``.  This keeps every
downstream identity exact at desk scale.  A braid's images of ``x_1 .. x_r``
fold ``_step`` over its letters, once per braid, as the arc enumerator folds
it down its carrier tree.  They back equality and hashing, supporting pairs
and arc keys; a failed stabilizer check reads them only to name the moved
word.

Convention.  The positive generator ``s_i`` acts by

    x_i      ->  x_i x_{i+1} x_i^(-1)
    x_{i+1}  ->  x_i

fixing the other generators, and a product acts with its leftmost factor
applied last, so ``artin_apply(b1 * b2, u) == artin_apply(b1,
artin_apply(b2, u))``.  All sign choices elsewhere (half-twist action on
supporting pairs, Hurwitz rules) are anchored to this convention.  The
product ``x_1 x_2 .. x_r`` is fixed by every braid.

Conjugates w x_i w^(-1) of generators, an arc's supporting pair among them,
are plain ``FreeWord``s; ``_core_at`` finds where cyclic reduction leaves x_i.

Serialization: braid words are space-separated tokens ``s<i>`` / ``S<i>``
(inverse), free words ``x<i>`` / ``X<i>``, ``<i>`` in ASCII digits.  The
empty word serializes to the empty string.

Only the public ``FreeWord``/``Braid``/``Arc`` constructors and ``*_from_str``
check input, sizes included.  Words the algebra derives are reduced and in
range by construction and are built by ``_new``, the exact layer's one
unchecked constructor.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from functools import reduce
from operator import neg


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


def _inverse(letters):
    return tuple(map(neg, reversed(letters)))


def _join(u, v):
    """Free reduction of u v for freely reduced u and v: only the seam cancels."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == -v[k]:
        k += 1
    return u[:len(u) - k] + v[k:]


def _new(cls, **fields):
    """An instance of cls with its slots set from fields, checks skipped."""
    obj = object.__new__(cls)
    for name in cls.__slots__:
        setattr(obj, name, fields.get(name))
    return obj


def _is_integer(x):
    """An int, or a numbers.Integral but no bool: the integer rule of letters and fiber entries."""
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _integers(values, what):
    """values as a tuple of ints; ValueError for any entry that is not an
    integer (a float or a bool included, so nothing is truncated)."""
    values = tuple(values)
    for x in values:
        if not _is_integer(x):
            raise ValueError("%s must be an integer, got %r" % (what, x))
    return tuple(map(int, values))


def _int_letters(letters, bound, what):
    """The raw letters as ints, each checked before reduction so that no bad letter cancels unseen."""
    letters = tuple(letters)
    for l in letters:
        if not _is_integer(l) or l == 0 or abs(l) > bound:
            raise ValueError("invalid %s letter %r (allowed indices 1..%d)" % (what, l, bound))
    return tuple(map(int, letters))


class FreeWord:
    """A freely reduced word in F_rank.

    Instances are immutable; every constructor reduces its input.
    """

    __slots__ = ("rank", "letters")

    def __init__(self, rank, letters=()):
        (rank,) = _integers([rank], "rank")
        if rank < 1:
            raise ValueError("rank must be positive")
        letters = _reduce(_int_letters(letters, rank, "free word"))
        self.rank = rank
        self.letters = letters

    def __mul__(self, other):
        if not isinstance(other, FreeWord):
            return NotImplemented
        if self.rank != other.rank:
            raise RankMismatch("free words over different ranks: %d vs %d" % (self.rank, other.rank))
        return _new(FreeWord, rank=self.rank, letters=_join(self.letters, other.letters))

    def inverse(self):
        return _new(FreeWord, rank=self.rank, letters=_inverse(self.letters))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, FreeWord)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "FreeWord(%d, %r)" % (self.rank, list(self.letters))

    def __str__(self):
        return word_to_str(self)


def _peel(letters):
    """(lo, hi) with letters[lo:hi] the cyclic reduction of freely reduced letters."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return lo, hi


def _core_at(letters):
    """lo with letters = w x_i w^(-1), w = letters[:lo] and i = letters[lo] > 0, or None."""
    lo, hi = _peel(letters)
    return lo if hi - lo == 1 and letters[lo] > 0 else None


class Braid:
    """A braid word on ``strands`` strands.

    The stored word is freely reduced (``s_i s_i^-1`` pairs cancel) but is
    otherwise kept verbatim; group equality (``==``) goes through the Artin
    action.
    """

    __slots__ = ("strands", "letters", "_action")

    def __init__(self, strands, letters=()):
        (strands,) = _integers([strands], "strand count")
        if strands < 1:
            raise ValueError("strand count must be positive")
        letters = tuple(letters)
        if strands == 1 and letters:
            raise ValueError("B_1 is trivial")
        letters = _reduce(_int_letters(letters, strands - 1, "braid"))
        self.strands = strands
        self.letters = letters
        self._action = None

    def __mul__(self, other):
        if not isinstance(other, Braid):
            return NotImplemented
        if self.strands != other.strands:
            raise RankMismatch("braids on different strand counts: %d vs %d" % (self.strands, other.strands))
        return _new(Braid, strands=self.strands, letters=_join(self.letters, other.letters))

    def inverse(self):
        return _new(Braid, strands=self.strands, letters=_inverse(self.letters))

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        return _new(Braid, strands=self.strands, letters=_reduce(base.letters * abs(n)))

    def _images(self):
        """Raw images of x_1 .. x_r, the fold of _step over the letters, once per braid.

        They are a faithful normal form: they back ``__eq__`` and ``__hash__``.
        """
        if self._action is None:
            self._action = reduce(_step, self.letters, tuple((i,) for i in range(1, self.strands + 1)))
        return self._action

    def __eq__(self, other):
        if not isinstance(other, Braid):
            return NotImplemented
        if self.strands != other.strands:
            return False
        if self.letters == other.letters:
            return True
        return self._images() == other._images()

    def __hash__(self):
        return hash(self._images())

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


def _step(img, s):
    """Raw images of x_1 .. x_r under w s from their images img under w:
    phi_{w s}(x_i) = phi_w(phi_s(x_i)), which moves only i = |s|, |s| + 1."""
    out = list(img)
    for i in (abs(s), abs(s) + 1):
        out[i - 1] = reduce(_join, [img[t - 1] if t > 0 else _inverse(img[-t - 1]) for t in _letter_image(s, i)])
    return tuple(out)


def artin_apply(b, u):
    """Apply the Artin automorphism of the braid b to the free word u.

    Composition contract: artin_apply(b1 * b2, u) equals
    artin_apply(b1, artin_apply(b2, u)).
    """
    if b.strands != u.rank:
        raise RankMismatch("braid on %d strands cannot act on F_%d" % (b.strands, u.rank))
    letters = u.letters
    for s in reversed(b.letters):
        letters = _reduce([t for l in letters for t in _letter_image(s, l)])
    return _new(FreeWord, rank=u.rank, letters=letters)


class Arc(namedtuple("Arc", "base carrier")):
    """An embedded arc between two punctures, encoded as a pushed base arc.

    ``Arc(base, carrier)`` denotes the image of the straight arc between
    punctures ``base`` and ``base + 1`` under the carrier braid.  Every
    embedded arc between punctures is of this form up to isotopy.
    """

    __slots__ = ()

    def __new__(cls, base, carrier):
        (base,) = _integers([base], "arc base")
        if not 1 <= base <= carrier.strands - 1:
            raise ValueError("arc base %d out of range for %d strands" % (base, carrier.strands))
        return super().__new__(cls, base, carrier)

    @property
    def strands(self):
        return self.carrier.strands


def half_twist(a):
    """The positive half-twist along the arc: carrier * s_base * carrier^(-1)."""
    return a.carrier * Braid(a.strands, (a.base,)) * a.carrier.inverse()


def supporting_pair(a):
    """The supporting pair (eta', eta'') of the arc, as words.

    eta'  = carrier . x_base
    eta'' = carrier . (x_base x_{base+1} x_base^(-1))

    so eta'' is the image of eta' under the arc's half-twist.
    """
    return tuple(_new(FreeWord, rank=a.strands, letters=eta) for eta in _pair_letters(a.carrier._images(), a.base))


def _pair_letters(img, base):
    """Raw (eta', eta'') of the arc on base, from its carrier's raw images img."""
    eta1 = img[base - 1]
    eta2 = _join(_join(eta1, img[base]), _inverse(eta1))
    if _core_at(eta1) is None or _core_at(eta2) is None:
        raise AssertionError("supporting pair left the set of generator conjugates")
    return eta1, eta2


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
