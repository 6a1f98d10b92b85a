"""Monomials and monomial ideals with exact integer exponents.

A :class:`PolyContext` pins the number of variables and their names; every
monomial and ideal carries its context and cross-context arithmetic is
rejected.  Ideals are stored as their unique minimal generating set, sorted
lexicographically by exponent vector, so equal ideals compare equal and
serialize identically.  Public constructors check that form; the library's
own results, canonical by construction, skip it through ``_built``.  All
values are immutable and operations pure, safe to share across threads.

Minimalization, products and intersections work on packed exponent words
(see ``_layout``): each vector becomes one int, so a product of generators
is one addition, an lcm a few bitwise operations and a divisibility test one
subtraction, and increasing word order is the canonical generator order.

The symbolic-power chain (``_power_chain``) keeps one layout for all of its
steps: lo = 0 and fields wide enough for max(ks) times the largest exponent.
Powers of I are word sums, localization at a prime is one AND with the mask
of the prime's fields, intersections keep each side's words that the other
side contains and fold the lcm mask over the rest, and only the ideals it
yields are unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .errors import (
    ContextMismatchError,
    ExponentOverflowError,
    ImproperIdealError,
    ResourceCapError,
)

#: Exponents are kept within the signed 64-bit range so canonical
#: serializations stay portable; arithmetic that would exceed it raises.
MAX_EXPONENT = 2**63 - 1


# ---------------------------------------------------------------------------
# raw exponent-vector helpers (hot paths work on plain int tuples)

def _vec_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _vec_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _vec_gcd(a, b):
    return tuple(x if x <= y else y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# packed exponent words
#
# Vectors of one length n, shifted by a coordinatewise lower bound lo, are
# packed into one int each, w bits per field and the first coordinate most
# significant.  Every shifted entry stays below 2^(w-1), so the top bit of
# each field is a guard bit, zero in every packed word; G is the mask of the
# guard bits.  For packed u and v, field i of (v | G) - u holds
# 2^(w-1) + v_i - u_i, which lies in [1, 2^w): no borrow crosses a field and
# the guard bit survives exactly when u_i <= v_i.  Word order is the
# lexicographic order of the vectors, which extends divisibility.

def _layout(lo, span):
    """Field width and guard mask for len(lo) fields of entries up to span."""
    w = span.bit_length() + 1
    G = 0
    for _ in lo:
        G = G << w | 1 << (w - 1)
    return w, G


def _pack(v, lo, w):
    p = 0
    for x, m in zip(v, lo):
        p = p << w | (x - m)
    return p


def _unpack(p, lo, w):
    field = (1 << w) - 1
    shifts = range(w * (len(lo) - 1), -1, -w)
    return tuple((p >> s & field) + m for s, m in zip(shifts, lo))


def _bounds(vecs):
    """Column minima and maxima of a collection of equal-length vectors."""
    cols = list(zip(*vecs))
    return [min(c) for c in cols], [max(c) for c in cols]


def _minimal_words(words, G):
    """Divisibility-minimal packed words, in increasing word order.

    u divides v iff ((v | G) - u) & G == G.  Scanning in word order puts
    every divisor before its multiples, so a word is kept iff no kept word
    divides it, and the kept list is already in canonical order.
    """
    kept = []
    for p in sorted(set(words)):
        pg = p | G
        for q in reversed(kept):
            if (pg - q) & G == G:
                break
        else:
            kept.append(p)
    return kept


def _lcm_words(A, B, G, w):
    """Minimal generators of (A) ∩ (B), for minimal word lists A and B in one
    layout and in increasing word order.

    A word of A that some word of B divides is its own lcm with that word,
    and divides its lcm with every other, so it is a generator of the
    intersection as it stands; the same holds for B against A.  Only the
    pairs of words that the other side lacks need an lcm: t = ((a | G) - b)
    & G holds the guard bit of each field where a_i >= b_i, and
    m = t - (t >> (w - 1)) fills those fields below the guard, so
    a & m | b & ~m is the packed lcm.  The membership scan stops at the
    first word past the one tested, since word order extends divisibility.
    """
    low = w - 1
    kept, lack = [], []
    for X, Y in ((A, B), (B, A)):
        out = []
        for x in X:
            xg = x | G
            for y in Y:
                if y > x:
                    out.append(x)
                    break
                if (xg - y) & G == G:
                    kept.append(x)
                    break
            else:
                out.append(x)
        lack.append(out)
    for a in lack[0]:
        ag = a | G
        for b in lack[1]:
            t = (ag - b) & G
            m = t - (t >> low)
            kept.append(a & m | b & ~m)
    return _minimal_words(kept, G)


def _minimal_vecs(vecs):
    """Divisibility-minimal subset of integer vectors, canonically sorted.

    The order u <= v is translation invariant, so negative entries are fine:
    the vectors are packed above their column minima and scanned as words.
    """
    vecs = set(vecs)
    lo, hi = _bounds(vecs)
    w, G = _layout(lo, max(map(sub, hi, lo), default=0))
    by_word = {_pack(v, lo, w): v for v in vecs}
    return tuple(by_word[p] for p in _minimal_words(by_word, G))


# inclusion among sets held as int bit masks: facets, extreme rays, primes
def _maximal(masks):
    """The inclusion-maximal masks, each once, in order of first occurrence.
    By falling bit count, a mask is kept unless a kept mask holds it."""
    masks = list(dict.fromkeys(masks))
    kept = set()
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if not any(m & o == m for o in kept):
            kept.add(m)
    return [m for m in masks if m in kept]


def _canonical_vecs(n, vecs):
    """Canonical form of integer tuples: lengths checked before minimalizing,
    which could drop a wrong-length multiple; sign and range on those kept."""
    for v in vecs:
        if len(v) != n:
            raise ValueError(f"generator {v} has wrong length for n={n}")
    kept = _minimal_vecs(vecs)
    for v in kept:
        if any(e < 0 for e in v):
            raise ValueError(f"negative exponent in generator {v}")
        if any(e > MAX_EXPONENT for e in v):
            raise ExponentOverflowError(f"exponent exceeds {MAX_EXPONENT}")
    return kept


def _built(cls, **fields):
    """A value of dataclass ``cls`` on canonical ``fields``, built without
    the constructor's checks: for the library's own results only."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def _same_context(a, b):
    if a.context != b.context:
        raise ContextMismatchError(
            f"operands live in different contexts: {a.context!r} vs {b.context!r}")


@dataclass(frozen=True)
class PolyContext:
    """A fixed list of distinct variable names (the ambient polynomial ring).

    The coefficient field is never materialized: everything downstream is
    characteristic-free.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 1:
            raise ValueError("a context needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"variable names must be distinct: {names}")
        if any(not n or not isinstance(n, str) for n in names):
            raise ValueError("variable names must be nonempty strings")
        object.__setattr__(self, "_pos", {n: i for i, n in enumerate(names)})

    @classmethod
    def default(cls, n):
        """Context with variables x1..xn."""
        return cls(tuple(f"x{i}" for i in range(1, n + 1)))

    @property
    def n(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} in context {self.names}") from None

    def monomial(self, spec):
        """Build a monomial from an exponent sequence or text like ``x1^2*x3``."""
        if isinstance(spec, str):
            from . import formats
            return formats.parse_monomial(self, spec)
        return Monomial(self, tuple(spec))

    def ideal(self, *specs):
        """Build an ideal from monomial specs (see :meth:`monomial`)."""
        return MonomialIdeal.from_generators(self, [self.monomial(s) for s in specs])

    def one(self):
        return Monomial(self, (0,) * self.n)

    def variable(self, i):
        if isinstance(i, str):
            i = self.index(i)
        return Monomial(self, tuple(1 if j == i else 0 for j in range(self.n)))

    def __repr__(self):
        return f"PolyContext({', '.join(self.names)})"


@dataclass(frozen=True, order=False)
class Monomial:
    """x^a for a nonnegative integer exponent vector a."""

    context: PolyContext
    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(map(int, self.exponents))
        object.__setattr__(self, "exponents", exps)
        if len(exps) != self.context.n:
            raise ValueError(
                f"expected {self.context.n} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        if any(e > MAX_EXPONENT for e in exps):
            raise ExponentOverflowError(f"exponent exceeds {MAX_EXPONENT}")

    # -- arithmetic ---------------------------------------------------------
    def divides(self, other):
        _same_context(self, other)
        return _vec_divides(self.exponents, other.exponents)

    def lcm(self, other):
        _same_context(self, other)
        return Monomial(self.context, _vec_lcm(self.exponents, other.exponents))

    def gcd(self, other):
        _same_context(self, other)
        return Monomial(self.context, _vec_gcd(self.exponents, other.exponents))

    def __mul__(self, other):
        _same_context(self, other)
        return Monomial(self.context,
                        tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other):
        """Exact division; ``other`` must divide ``self``."""
        _same_context(self, other)
        if not _vec_divides(other.exponents, self.exponents):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.context,
                        tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a monomial")
        return Monomial(self.context, tuple(e * k for e in self.exponents))

    def __lt__(self, other):
        _same_context(self, other)
        return self.exponents < other.exponents

    def __str__(self):
        from . import formats
        return formats.monomial_to_text(self)

    def __repr__(self):
        return f"Monomial({self})"


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, stored as its unique minimal generating set.

    The zero ideal is the empty generator list, the unit ideal is (1).  The
    constructor checks canonical form; library results have it by construction.
    """

    context: PolyContext
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        vecs = tuple(tuple(map(int, v)) for v in self.exponents)
        object.__setattr__(self, "exponents", vecs)
        if vecs != _canonical_vecs(self.context.n, vecs):
            raise ValueError(
                "generators are not a canonical minimal generating set; "
                "use MonomialIdeal.from_generators")

    @classmethod
    def from_generators(cls, context, gens):
        """Minimalize an arbitrary generator collection (monomials or vectors)."""
        vecs = []
        for g in gens:
            if isinstance(g, Monomial):
                if g.context != context:
                    raise ContextMismatchError(f"{g!r} lives in another context")
                vecs.append(g.exponents)
            else:
                vecs.append(tuple(map(int, g)))
        return _built(MonomialIdeal, context=context,
                      exponents=_canonical_vecs(context.n, vecs))

    # -- structure ----------------------------------------------------------
    @property
    def generators(self):
        return tuple(Monomial(self.context, v) for v in self.exponents)

    def is_zero(self):
        return not self.exponents

    def is_unit(self):
        return len(self.exponents) == 1 and not any(self.exponents[0])

    def is_proper_nonzero(self):
        return bool(self.exponents) and not self.is_unit()

    def require_proper_nonzero(self, what="this operation"):
        if self.is_zero():
            raise ImproperIdealError(f"{what} requires a nonzero ideal")
        if self.is_unit():
            raise ImproperIdealError(f"{what} requires a proper ideal")
        return self

    # -- membership ---------------------------------------------------------
    def contains(self, m):
        if not isinstance(m, Monomial):
            m = Monomial(self.context, m)  # rejects a wrong length or sign
        _same_context(self, m)
        return any(_vec_divides(g, m.exponents) for g in self.exponents)

    def __contains__(self, m):
        return self.contains(m)

    def contains_ideal(self, other):
        """True iff other is a subset of self."""
        _same_context(self, other)
        return all(self.contains(v) for v in other.exponents)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        _same_context(self, other)
        return MonomialIdeal.from_generators(self.context,
                                             self.exponents + other.exponents)

    def __mul__(self, other):
        """Product ideal; each product of packed generators is one addition.

        Each operand is packed above its own column minima, with fields wide
        enough for the largest sum, so a + b packs the product above the sum
        of the minima and no carry crosses a field.
        """
        _same_context(self, other)
        A = self.exponents
        B = (other.exponents,) if isinstance(other, Monomial) else other.exponents
        if not A or not B:
            return _built(MonomialIdeal, context=self.context, exponents=())
        (lo_a, hi_a), (lo_b, hi_b) = _bounds(A), _bounds(B)
        if any(x + y > MAX_EXPONENT for x, y in zip(hi_a, hi_b)):
            raise ExponentOverflowError(f"exponent exceeds {MAX_EXPONENT}")
        lo = [x + y for x, y in zip(lo_a, lo_b)]
        w, G = _layout(lo, max(x + y - m for x, y, m in zip(hi_a, hi_b, lo)))
        PA = [_pack(a, lo_a, w) for a in A]
        PB = [_pack(b, lo_b, w) for b in B]
        prods = [a + b for a in PA for b in PB]
        return _built(MonomialIdeal, context=self.context, exponents=tuple(
            _unpack(p, lo, w) for p in _minimal_words(prods, G)))

    def __pow__(self, k):
        if k < 1:
            raise ValueError("ideal powers need k >= 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def intersect(self, other):
        """Intersection ideal, by ``_lcm_words`` on both operands packed in
        one layout."""
        _same_context(self, other)
        A, B = self.exponents, other.exponents
        if not A or not B:
            return _built(MonomialIdeal, context=self.context, exponents=())
        lo, hi = _bounds(A + B)
        w, G = _layout(lo, max(map(sub, hi, lo)))
        lcms = _lcm_words([_pack(a, lo, w) for a in A],
                          [_pack(b, lo, w) for b in B], G, w)
        return _built(MonomialIdeal, context=self.context, exponents=tuple(
            _unpack(p, lo, w) for p in lcms))

    def __and__(self, other):
        return self.intersect(other)

    def colon(self, m):
        """(I : m) for a monomial m."""
        _same_context(self, m)
        vecs = [tuple(max(g_i - m_i, 0) for g_i, m_i in zip(g, m.exponents))
                for g in self.exponents]
        return MonomialIdeal.from_generators(self.context, vecs)

    def radical(self):
        vecs = [tuple(1 if e > 0 else 0 for e in g) for g in self.exponents]
        return MonomialIdeal.from_generators(self.context, vecs)

    def __str__(self):
        from . import formats
        return formats.ideal_to_text(self)

    def __repr__(self):
        return f"MonomialIdeal{self}"


def minimalize(context, gens):
    """Minimal generating set of the ideal generated by ``gens``."""
    return MonomialIdeal.from_generators(context, gens)


def intersect_all(ideals):
    """Intersection of a nonempty iterable of ideals in one context."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("intersect_all needs at least one ideal")
    out = ideals[0]
    for J in ideals[1:]:
        out = out.intersect(J)
    return out


# ---------------------------------------------------------------------------
# the symbolic-power chain, on one packed layout

def _localize_words(words, mask, G):
    """Localization at a prime on packed words: one AND with ``mask``, the
    prime's fields filled below their guard bits, clears the exponents of
    the variables outside the prime; then the words are minimalized."""
    return _minimal_words([p & mask for p in words], G)


def _power_chain(I, ks, hi, primes, max_generators):
    """Yield (k, I^k, S_k) for each k in 1..hi that is in ``ks``.

    S_k is the intersection of I^k localized at each prime in ``primes``.
    The whole chain runs on words packed in one layout, lo = 0 with fields
    wide enough for hi times the largest exponent (at most MAX_EXPONENT):
    each power is the previous one's words plus I's, localization and
    intersection are ``_localize_words`` and ``_lcm_words``, and only the
    yielded ideals are unpacked.

    A product raises ExponentOverflowError exactly when ``MonomialIdeal.__mul__``
    would, that is when a column maximum of the two factors sums past
    MAX_EXPONENT; that is only possible once k times the largest exponent
    passes it, and only then are the words unpacked for their column maxima.
    A power with more than ``max_generators`` minimal generators raises
    ResourceCapError.
    """
    ctx, n = I.context, I.context.n
    zeros = (0,) * n
    top = [max(c) for c in zip(*I.exponents)]
    e = max(top)
    w, G = _layout(zeros, min(hi * e, MAX_EXPONENT))
    field = (1 << (w - 1)) - 1
    masks = [sum(field << w * (n - 1 - i) for i in p.variables) for p in primes]

    def unpack(words):
        return _built(MonomialIdeal, context=ctx,
                      exponents=tuple(_unpack(p, zeros, w) for p in words))

    base = [_pack(v, zeros, w) for v in I.exponents]
    Ik = base
    for k in range(1, hi + 1):
        if k > 1:
            if k * e > MAX_EXPONENT:
                cols = _bounds([_unpack(p, zeros, w) for p in Ik])[1]
                if any(x + y > MAX_EXPONENT for x, y in zip(cols, top)):
                    raise ExponentOverflowError(f"exponent exceeds {MAX_EXPONENT}")
            Ik = _minimal_words([a + b for a in Ik for b in base], G)
            if len(Ik) > max_generators:
                raise ResourceCapError(
                    f"I to the power k={k} has {len(Ik)} minimal generators, "
                    f"over the cap of {max_generators}")
        if k in ks:
            S = _localize_words(Ik, masks[0], G)
            for m in masks[1:]:
                S = _lcm_words(S, _localize_words(Ik, m, G), G, w)
            ordinary = I if k == 1 else unpack(Ik)
            yield k, ordinary, ordinary if S == Ik else unpack(S)


@dataclass(frozen=True)
class MonomialPrime:
    """A monomial prime ideal: the variables of a nonempty subset."""

    context: PolyContext
    variables: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(sorted({int(i) for i in self.variables}))
        object.__setattr__(self, "variables", vs)
        if not vs:
            raise ValueError("a monomial prime needs at least one variable")
        if vs[0] < 0 or vs[-1] >= self.context.n:
            raise ValueError(f"variable index out of range: {vs}")

    @classmethod
    def of_names(cls, context, names):
        return cls(context, tuple(context.index(nm) for nm in names))

    @property
    def height(self):
        return len(self.variables)

    @property
    def names(self):
        return tuple(self.context.names[i] for i in self.variables)

    def issubset(self, other):
        _same_context(self, other)
        return set(self.variables) <= set(other.variables)

    def as_ideal(self):
        n = self.context.n
        vecs = [tuple(1 if j == i else 0 for j in range(n)) for i in self.variables]
        return MonomialIdeal.from_generators(self.context, vecs)

    def __str__(self):
        return "(" + ", ".join(self.names) + ")"

    def __repr__(self):
        return f"MonomialPrime{self}"
