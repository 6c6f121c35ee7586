"""Concrete models of the fiber mapping class group and its vanishing cycles.

Hamiltonian-isotopy classes of Lagrangian spheres in the reference fiber are
not decidable objects, so this module trades them for three exactly
computable proxies:

* ``torus``: cycles are primitive integer vectors (p, q), mapping classes
  are SL(2, Z) matrices.  Algebraic and geometric intersection numbers
  agree here, so the model is exact and faithful.
* ``sp`` (genus h >= 1): cycles are primitive vectors in Z^(2h), mapping
  classes are integer symplectic matrices.  The pairing only bounds the
  geometric intersection from below, and the model says so.
* ``disc`` (n >= 2 punctures): cycles are canonical cyclic words over the
  puncture generators, mapping classes are braids on n strands acting by
  pushforward.  Exact for the base-point phenomena (half-twists of the
  base locus, lantern relation).

Cycles are unoriented: homology vectors are kept up to global sign, disc
words up to rotation and inversion.

Input is validated only by the public ``Cycle``/``FiberElement``
constructors and the JSON loaders built on them.  The algebra's results
(products, inverses, twists, ``act``) are valid by construction and are
built without checks through ``words._new``, the one unchecked constructor
of the exact layer.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .words import (
    Braid, FreeWord, _is_integer, _new, _peel, artin_apply, braid_from_str, half_twist, word_from_str, word_to_str
)

EXACT = "exact"
LOWER_BOUND = "lower_bound"

TORUS = "torus"
SP = "sp"
DISC = "disc"


class ModelMismatch(ValueError):
    """Operands belong to different fiber models."""


class UnsupportedCycle(ValueError):
    """A disc-model operation needs a curve presentation this cycle lacks."""


class FiberModel(namedtuple("FiberModel", "kind genus punctures")):
    __slots__ = ()

    def __new__(cls, kind, genus=0, punctures=0):
        if kind not in (TORUS, SP, DISC):
            raise ValueError("unknown fiber model %r" % (kind,))
        if kind == SP and genus < 1:
            raise ValueError("sp model needs genus >= 1")
        if kind == DISC and punctures < 2:
            raise ValueError("disc model needs at least 2 punctures")
        return super().__new__(cls, kind, genus, punctures)

    @property
    def dim(self):
        """Length of homology vectors (homology models only)."""
        if self.kind == TORUS:
            return 2
        if self.kind == SP:
            return 2 * self.genus
        raise ModelMismatch("disc model has no homology coordinates")


def _require_same_model(a, b):
    if a.model != b.model:
        raise ModelMismatch("fiber models differ: %r vs %r" % (a.model, b.model))


def symplectic_pairing(u, v):
    """Standard pairing sum(u_{2i-1} v_{2i} - u_{2i} v_{2i-1})."""
    s = 0
    for i in range(0, len(u), 2):
        s += u[i] * v[i + 1] - u[i + 1] * v[i]
    return s


def _integers(values, what):
    """values as a tuple of ints; ValueError for any entry that is not an
    integer (a float or a bool included, so nothing is truncated)."""
    values = tuple(values)
    for x in values:
        if not _is_integer(x):
            raise ValueError("%s must be an integer, got %r" % (what, x))
    return tuple(map(int, values))


def _normalize_sign(vec):
    for x in vec:
        if x > 0:
            return vec
        if x < 0:
            return tuple(-y for y in vec)
    return vec


def _least_rotation(s):
    """The lexicographically least rotation of the list s, by Booth's
    algorithm in O(len(s))."""
    n = len(s)
    ss = s + s
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        c = ss[j]
        i = fail[j - k - 1]
        while i != -1 and c != ss[k + i + 1]:
            if c < ss[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != ss[k + i + 1]:  # so i == -1
            if c < ss[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return s[k:] + s[:k]


def _canonical_cyclic(letters):
    """Lexicographically least rotation of a cyclically reduced word or its
    inverse, letters ordered x1 < X1 < x2 < X2 < ...

    Each letter l is coded once as 2|l| + (l < 0), which has that order;
    inverting a letter flips the low bit of its code.
    """
    lo, hi = _peel(letters)
    if lo == hi:
        return ()
    code = [2 * abs(l) + (l < 0) for l in letters[lo:hi]]
    inverse = [v ^ 1 for v in reversed(code)]
    best = min(_least_rotation(code), _least_rotation(inverse))
    return tuple(-(v >> 1) if v & 1 else v >> 1 for v in best)


class Cycle:
    """An unoriented vanishing-cycle class in one of the fiber models.

    Homology models store a primitive, sign-normalized integer vector.
    The disc model stores the canonical cyclic word; when the curve is a
    known pushforward of a standard range curve, the presentation
    ``(carrier braid, (i, j))`` rides along as ``support`` so the Dehn
    twist about the cycle stays computable.  The constructor presents a
    round range word by itself; only ``act`` carries other presentations.
    The presentation never enters equality or hashing.
    """

    __slots__ = ("model", "vector", "word", "support")

    def __init__(self, model, vector=None, word=None):
        self.model = model
        if model.kind in (TORUS, SP):
            vec = _integers(vector, "cycle vector entry")
            if len(vec) != model.dim:
                raise ValueError("cycle vector has length %d, expected %d" % (len(vec), model.dim))
            if all(x == 0 for x in vec):
                raise ValueError("cycle vector must be nonzero")
            if gcd(*(abs(x) for x in vec)) != 1:
                raise ValueError("cycle vector must be primitive: %r" % (vec,))
            self.vector = _normalize_sign(vec)
            self.word = self.support = None
        else:  # DISC; FiberModel admits no other kind
            if isinstance(word, FreeWord):
                if word.rank != model.punctures:
                    raise ValueError("disc cycle word over wrong puncture count")
                letters = word.letters
            else:
                # free reduction first, so the canonical form is well defined
                letters = FreeWord(model.punctures, tuple(word)).letters
            self.word, self.support = _disc_fields(model.punctures, letters, None)
            self.vector = None
            if not self.word.letters:
                raise ValueError("disc cycle word must be essential (nonempty after cyclic reduction)")

    def __eq__(self, other):
        if not isinstance(other, Cycle) or self.model != other.model:
            return False
        return self.vector == other.vector and self.word == other.word

    def __hash__(self):
        return hash(self.vector or self.word.letters)

    def __repr__(self):
        if self.model.kind == DISC:
            return "Cycle(disc, %r)" % (word_to_str(self.word),)
        return "Cycle(%s, %r)" % (self.model.kind, list(self.vector))


def _disc_fields(n, letters, support):
    """(canonical word, presentation) of the disc cycle of a freely reduced
    word; a round range word presents itself when none is given."""
    word = _new(FreeWord, rank=n, letters=_canonical_cyclic(letters))
    rng = _as_range(word.letters) if support is None else None
    return word, (Braid(n), rng) if rng else support


def _as_range(letters):
    """(i, j) if letters are x_i x_{i+1} .. x_j, else None.  The canonical
    rotation of an ascending range word is the word itself."""
    if letters and letters[0] > 0 and letters == tuple(range(letters[0], letters[0] + len(letters))):
        return letters[0], letters[-1]
    return None


def standard_curve(model, i, j):
    """The round curve enclosing punctures i..j of a disc fiber.  Only tests
    call it, tests/test_fiber.py::test_disc_dehn_twist_range_curves among them."""
    if model.kind != DISC:
        raise ModelMismatch("standard_curve lives in the disc model")
    if not 1 <= i <= j <= model.punctures:
        raise ValueError("bad puncture range %d..%d" % (i, j))
    return Cycle(model, word=tuple(range(i, j + 1)))


class FiberElement:
    """A mapping class of the fiber: an integer matrix, or a braid (disc)."""

    __slots__ = ("model", "matrix", "braid")

    def __init__(self, model, matrix=None, braid=None):
        self.model = model
        if model.kind in (TORUS, SP):
            mat = tuple(_integers(row, "matrix entry") for row in matrix)
            d = model.dim
            if len(mat) != d or any(len(row) != d for row in mat):
                raise ValueError("matrix must be %dx%d" % (d, d))
            # J^(-1) M^t J M == Id, i.e. M^t J M == J
            if _matmul(_symplectic_inverse(mat), mat) != FiberElement.identity(model).matrix:
                raise ValueError("matrix does not preserve the symplectic form")
            self.matrix = mat
            self.braid = None
        else:  # DISC
            if braid.strands != model.punctures:
                raise ValueError("braid strand count does not match puncture count")
            self.braid = braid
            self.matrix = None

    @classmethod
    def identity(cls, model):
        if model.kind == DISC:
            return _new(cls, model=model, braid=Braid(model.punctures))
        d = model.dim
        return _new(cls, model=model, matrix=tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))

    def __mul__(self, other):
        if not isinstance(other, FiberElement):
            return NotImplemented
        _require_same_model(self, other)
        if self.model.kind == DISC:
            return _new(FiberElement, model=self.model, braid=self.braid * other.braid)
        return _new(FiberElement, model=self.model, matrix=_matmul(self.matrix, other.matrix))

    def inverse(self):
        if self.model.kind == DISC:
            return _new(FiberElement, model=self.model, braid=self.braid.inverse())
        return _new(FiberElement, model=self.model, matrix=_symplectic_inverse(self.matrix))

    def __eq__(self, other):
        if not isinstance(other, FiberElement) or self.model != other.model:
            return False
        if self.model.kind == DISC:
            return self.braid == other.braid
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix or self.braid)

    def __repr__(self):
        if self.model.kind == DISC:
            return "FiberElement(disc, %r)" % (str(self.braid),)
        return "FiberElement(%s, %r)" % (self.model.kind, [list(r) for r in self.matrix])


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _symplectic_inverse(mat):
    """Inverse via M^(-1) = J^(-1) M^t J = (-J)(M^t J), exact over Z."""
    n = len(mat)
    mt = tuple(zip(*mat))
    a = tuple(
        tuple(-mt[i][j + 1] if j % 2 == 0 else mt[i][j - 1] for j in range(n))
        for i in range(n)
    )
    inv = tuple(
        tuple(-a[i + 1][j] if i % 2 == 0 else a[i - 1][j] for j in range(n))
        for i in range(n)
    )
    return inv


def dehn_twist(c):
    """The Dehn twist about the cycle, as a fiber mapping class.

    Homology models use the transvection v -> v + <v, c> c.  In the disc
    model the cycle must be presented as a pushforward b . (round curve
    around punctures i..j); the twist is then b * full_twist(i..j) * b^(-1).
    """
    model = c.model
    if model.kind in (TORUS, SP):
        # column j is e_j + <e_j, c> c, and <e_j, c> = (Jc)_j
        v = c.vector
        jc = [v[j + 1] if j % 2 == 0 else -v[j - 1] for j in range(len(v))]
        mat = tuple(tuple(int(i == j) + jc[j] * v[i] for j in range(len(v))) for i in range(len(v)))
        return _new(FiberElement, model=model, matrix=mat)
    if c.support is None:
        raise UnsupportedCycle(
            "disc cycle %r cannot be twisted: it is not presented as act(g, standard_curve(model, i, j))"
            % (word_to_str(c.word),)
        )
    carrier, (i, j) = c.support
    return _new(FiberElement, model=model, braid=carrier * full_twist(model.punctures, i, j) * carrier.inverse())


def full_twist(n, i, j):
    """Full twist on strands i..j of B_n: (s_i .. s_{j-1})^(j-i+1)."""
    if not 1 <= i <= j <= n:
        raise ValueError("bad strand range %d..%d" % (i, j))
    ring = _new(Braid, strands=n, letters=tuple(range(i, j)))
    return ring ** (j - i + 1)


def act(g, c):
    """Image of the cycle under the fiber mapping class."""
    if g.model != c.model:
        raise ModelMismatch("fiber element and cycle from different models")
    model = c.model
    if model.kind in (TORUS, SP):
        v = tuple(sum(x * y for x, y in zip(row, c.vector)) for row in g.matrix)
        return _new(Cycle, model=model, vector=_normalize_sign(v))
    support = None
    if c.support is not None:
        carrier, rng = c.support
        support = (g.braid * carrier, rng)
    word, support = _disc_fields(model.punctures, artin_apply(g.braid, c.word).letters, support)
    return _new(Cycle, model=model, word=word, support=support)


def intersection_number(c1, c2):
    """(value, exactness) for a pair of cycles in the same model.

    torus: |p1 q2 - p2 q1|, exact.  sp: |pairing|, a lower bound only.
    disc: exact 0 for disjoint or nested round range curves; overlapping
    ranges meet in (at least) 2 points; anything else is reported as the
    vacuous lower bound 0.
    """
    _require_same_model(c1, c2)
    model = c1.model
    if model.kind == TORUS:
        return abs(symplectic_pairing(c1.vector, c2.vector)), EXACT
    if model.kind == SP:
        return abs(symplectic_pairing(c1.vector, c2.vector)), LOWER_BOUND
    r1 = _as_range(c1.word.letters)
    r2 = _as_range(c2.word.letters)
    if r1 is None or r2 is None:
        return 0, LOWER_BOUND
    (a1, b1), (a2, b2) = r1, r2
    disjoint = b1 < a2 or b2 < a1
    nested = (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)
    if disjoint or nested:
        return 0, EXACT
    return 2, LOWER_BOUND


def base_half_twist(d, model):
    """Half-twist of the fiber exchanging the arc's two punctures."""
    if model.kind != DISC:
        raise ModelMismatch("base half-twists live in the disc model")
    if d.strands != model.punctures:
        raise ValueError("puncture arc strand count does not match the model")
    return _new(FiberElement, model=model, braid=half_twist(d))


# --- JSON-compatible encodings ------------------------------------------

def model_to_json(model):
    out = {"model": model.kind}
    if model.kind == SP:
        out["genus"] = model.genus
    if model.kind == DISC:
        out["punctures"] = model.punctures
    return out


def model_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("fiber must be an object with a 'model' field, got %r" % (doc,))
    kind = doc.get("model")
    if kind == TORUS:
        return FiberModel(TORUS)
    if kind in (SP, DISC):
        field = "genus" if kind == SP else "punctures"
        if field not in doc:
            raise ValueError("%s fiber needs an integer %r" % (kind, field))
        (size,) = _integers([doc[field]], "fiber %r" % field)
        return FiberModel(kind, **{field: size})
    raise ValueError("unknown fiber model %r" % (kind,))


def cycle_to_json(c):
    if c.model.kind == DISC:
        return word_to_str(c.word)
    return list(c.vector)


def cycle_from_json(model, doc):
    if model.kind == DISC:
        if not isinstance(doc, str):
            raise ValueError("disc cycle must be a free-word token string")
        return Cycle(model, word=word_from_str(model.punctures, doc).letters)
    if not isinstance(doc, list):
        raise ValueError("homology cycle must be an integer array")
    return Cycle(model, vector=doc)


def element_to_json(g):
    if g.model.kind == DISC:
        return str(g.braid)
    return [x for row in g.matrix for x in row]


def element_from_json(model, doc):
    if model.kind == DISC:
        if not isinstance(doc, str):
            raise ValueError("disc fiber element must be a braid token string")
        return FiberElement(model, braid=braid_from_str(model.punctures, doc))
    d = model.dim
    if not isinstance(doc, list) or len(doc) != d * d:
        raise ValueError("matrix must be a row-major array of %d integers" % (d * d,))
    rows = [doc[i * d : (i + 1) * d] for i in range(d)]
    return FiberElement(model, matrix=rows)
