"""Irreducible and primary decomposition of monomial ideals.

The irreducible components are built by adding the generators of I one at a
time, in canonical order.  A monomial x^g generates the intersection of the
(x_i^{g_i}) over i in supp g, and sums distribute over intersections of
monomial ideals.  So, given the irredundant decomposition of the ideal so
far, each component C either contains x^g and stays, or misses it and gives
way to its children C + (x_i^{g_i}), i in supp g.  The loop starts from the
zero ideal, its own one component, which misses every generator.

Containment is one word test.  With top one more than every exponent of I,
map C = (x_i^{a_i}) to t(C), with t_i = top - a_i on C's variables and 0
elsewhere: C contains D iff t(D) <= t(C) componentwise, and the vectors are
packed into ``core`` words, where that is one guard-mask subtraction.  A
component is redundant iff it contains another, since an irreducible ideal
that contains an intersection contains one of its terms.  Only children can
be: a surviving component containing a child would contain its parent, and
two children of one parent never contain each other.  So each step tests
the children alone, against the surviving words and the other children, and
what is left after the last generator is the unique irredundant irreducible
decomposition, whose components are exactly the minimal irreducible ideals
containing I.

The exact-power rule narrows that test: a child C + (x_i^{g_i}) can only
contain a component D whose x_i power is exactly x_i^{g_i}.  Proof: D holds
x^g and C does not, so the pure power of D that divides x^g lies in the
child through x_i^{g_i} alone, which forces it to be x_i^{g_i}.  Such a D
is a surviving component or a child of the same (i, g_i), so each child is
tested against that bucket only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    MonomialIdeal,
    MonomialPrime,
    _layout,
    _pack,
    _same_context,
    _unpack,
    intersect_all,
)
from .errors import EmbeddedPrimeError, ImproperIdealError


@dataclass(frozen=True)
class IrreducibleIdeal:
    """(x_{i1}^{a1}, ..., x_{ir}^{ar}) with all a_j >= 1, as a partial map."""

    context: "PolyContext"
    powers: tuple[tuple[int, int], ...]  # (variable index, exponent), sorted

    def __post_init__(self):
        ps = tuple(sorted((int(i), int(e)) for i, e in self.powers))
        object.__setattr__(self, "powers", ps)
        if not ps:
            raise ValueError("an irreducible ideal needs at least one pure power")
        idxs = [i for i, _ in ps]
        if len(set(idxs)) != len(idxs):
            raise ValueError(f"repeated variable in {ps}")
        if any(e < 1 for _, e in ps):
            raise ValueError(f"pure-power exponents must be >= 1: {ps}")
        if idxs[0] < 0 or idxs[-1] >= self.context.n:
            raise ValueError(f"variable index out of range: {ps}")

    @property
    def variables(self):
        return tuple(i for i, _ in self.powers)

    def exponent(self, i):
        for j, e in self.powers:
            if j == i:
                return e
        return 0

    def radical(self):
        return MonomialPrime(self.context, self.variables)

    def as_ideal(self):
        n = self.context.n
        vecs = [tuple(e if j == i else 0 for j in range(n)) for i, e in self.powers]
        return MonomialIdeal.from_generators(self.context, vecs)

    def sort_key(self):
        return (self.variables, tuple(e for _, e in self.powers))

    def __str__(self):
        parts = []
        for i, e in self.powers:
            nm = self.context.names[i]
            parts.append(nm if e == 1 else f"{nm}^{e}")
        return "(" + ", ".join(parts) + ")"

    def __repr__(self):
        return f"IrreducibleIdeal{self}"


@dataclass(frozen=True)
class PrimaryIdeal:
    """A monomial primary ideal together with its radical prime.

    The shape requirement: a pure power of every radical variable is a
    generator and every generator is supported inside the radical variables.
    """

    ideal: MonomialIdeal
    radical_prime: MonomialPrime

    def __post_init__(self):
        p = is_primary(self.ideal)
        if p is None:
            raise ValueError(f"{self.ideal} is not a primary monomial ideal")
        if p != self.radical_prime:
            raise ValueError(
                f"radical of {self.ideal} is {p}, not {self.radical_prime}")

    def sort_key(self):
        return (self.radical_prime.variables, self.ideal.exponents)

    def __str__(self):
        return str(self.ideal)


@dataclass(frozen=True)
class Decomposition:
    """An irredundant list of components intersecting to the source ideal."""

    components: tuple

    def __post_init__(self):
        comps = tuple(sorted(self.components, key=lambda c: c.sort_key()))
        object.__setattr__(self, "components", comps)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def ideals(self):
        return tuple(c.as_ideal() if isinstance(c, IrreducibleIdeal) else c.ideal
                     for c in self.components)

    def intersection(self):
        return intersect_all(self.ideals())

    def __str__(self):
        return " ∩ ".join(str(c) for c in self.components)


# ---------------------------------------------------------------------------
# irreducible decomposition, one generator at a time

def _irreducible(context, powers):
    """The component on sorted, valid ``powers``, built without the
    constructor's sort and checks; the library's own components only."""
    comp = object.__new__(IrreducibleIdeal)
    comp.__dict__.update(context=context, powers=powers)
    return comp


def _components(I):
    """Irreducible components of I, as (variable, exponent) tuples.

    Each component C is held as the word of its containment vector t(C),
    t_i = top - a_i on C's pure powers x_i^{a_i} and 0 elsewhere.  C misses g
    iff t(C) divides s(g), s_i = top - 1 - g_i.  A component missing g gives
    way to its children C + (x_i^{g_i}), i in supp g: the parent's word with
    field i replaced by f = top - g_i.  By the exact-power rule (a child
    through x_i^{g_i} contains only components whose x_i power is exactly
    x_i^{g_i}, since their pure power dividing x^g is not in the parent),
    those children are tested only against the bucket of surviving words
    whose field i is f, and against the children of the same (i, g_i) kept
    before them: word order extends divisibility, so a child's divisors
    among those come first.  The buckets are rebuilt for each generator, one
    scan each.  Distinct parents never share a child: through one x_i they
    would differ in field i alone, so one would contain the other; through
    x_i and x_j, the parent of the second would hold x_i^{g_i}, so x^g.
    """
    n = I.context.n
    top = 1 + max(map(max, I.exponents))
    lo = (0,) * n
    w, G = _layout(lo, top)
    field = (1 << w) - 1
    comps = {0}  # the zero ideal misses every generator
    for g in I.exponents:
        s = _pack([top - 1 - e for e in g], lo, w) | G
        parents = [p for p in comps if (s - p) & G == G]
        comps.difference_update(parents)
        kids = []
        shift = w * n
        for e in g:
            shift -= w
            if not e:
                continue
            m, f = field << shift, (top - e) << shift
            bucket = [q for q in comps if q & m == f]
            for c in sorted(p & ~m | f for p in parents):
                cg = c | G
                for q in bucket:
                    if (cg - q) & G == G:  # t(q) divides t(c): c contains q
                        break
                else:
                    bucket.append(c)
                    kids.append(c)
        comps.update(kids)
    return [tuple((i, top - x) for i, x in enumerate(_unpack(p, lo, w)) if x)
            for p in comps]


def irreducible_decomposition(I: MonomialIdeal) -> Decomposition:
    """The unique irredundant irreducible decomposition of a proper nonzero ideal."""
    I.require_proper_nonzero("irreducible decomposition")
    return Decomposition(tuple(_irreducible(I.context, ps)
                               for ps in _components(I)))


def minimal_irreducibles(I: MonomialIdeal) -> Decomposition:
    """The minimal irreducible monomial ideals containing I.

    These coincide with the irreducible components; exposed separately so the
    minimality property can be tested against the decomposition directly.
    """
    return irreducible_decomposition(I)


def is_primary(I: MonomialIdeal):
    """Radical prime of I when I is primary (shape test), else None."""
    I.require_proper_nonzero("the primary shape test")
    pure = set()
    for v in I.exponents:
        supp = [j for j, e in enumerate(v) if e > 0]
        if len(supp) == 1:
            pure.add(supp[0])
    for v in I.exponents:
        if any(e > 0 and j not in pure for j, e in enumerate(v)):
            return None
    return MonomialPrime(I.context, tuple(sorted(pure)))


def _primary(dec):
    """Irreducible decomposition ``dec`` grouped by radical."""
    groups = {}
    for comp in dec:
        groups.setdefault(comp.variables, []).append(comp)
    out = []
    for vs, comps in groups.items():
        ideal = intersect_all([c.as_ideal() for c in comps])
        out.append(PrimaryIdeal(ideal, MonomialPrime(ideal.context, vs)))
    return Decomposition(tuple(out))


def primary_decomposition(I: MonomialIdeal) -> Decomposition:
    """Minimal primary decomposition: irreducible components grouped by radical."""
    return _primary(irreducible_decomposition(I))


def _associated(dec):
    """Radicals of the components of an irreducible decomposition, deduplicated."""
    seen = {}
    for comp in dec:
        seen[comp.variables] = comp.radical()
    return tuple(seen[k] for k in sorted(seen))


def associated_primes(I: MonomialIdeal):
    """Radicals of the irreducible components, deduplicated."""
    return _associated(irreducible_decomposition(I))


def _inclusion_minimal(primes):
    return tuple(p for p in primes
                 if not any(q is not p and q.issubset(p) for q in primes))


def minimal_primes(I: MonomialIdeal):
    """Inclusion-minimal associated primes."""
    return _inclusion_minimal(associated_primes(I))


def has_embedded_primes(I: MonomialIdeal) -> bool:
    primes = associated_primes(I)
    return primes != _inclusion_minimal(primes)


def primary_without_embedded(dec: Decomposition, what: str) -> Decomposition:
    """Primary decomposition from the irreducible decomposition ``dec``, or
    EmbeddedPrimeError (naming ``what``) if ``dec`` has an embedded prime:
    the one test of the hypothesis that the results on symbolic powers and
    the Simis cone rest on."""
    primes = _associated(dec)
    if primes != _inclusion_minimal(primes):
        raise EmbeddedPrimeError(f"{what} needs an ideal without embedded primes")
    return _primary(dec)


def is_unmixed(I: MonomialIdeal) -> bool:
    """True iff all associated primes share one height."""
    return len({p.height for p in associated_primes(I)}) == 1


def localize(I: MonomialIdeal, p: MonomialPrime) -> MonomialIdeal:
    """Contraction I R_p intersected back with R.

    Variables outside p become units: their exponents are dropped from each
    generator and the result is minimalized.
    """
    _same_context(I, p)
    inside = set(p.variables)
    vecs = [tuple(e if j in inside else 0 for j, e in enumerate(v))
            for v in I.exponents]
    return MonomialIdeal.from_generators(I.context, vecs)


def alexander_dual(I: MonomialIdeal) -> MonomialIdeal:
    """Ideal generated by the products of each component's pure powers."""
    dec = irreducible_decomposition(I)
    n = I.context.n
    gens = []
    for comp in dec:
        v = [0] * n
        for i, e in comp.powers:
            v[i] = e
        gens.append(tuple(v))
    return MonomialIdeal.from_generators(I.context, gens)


def star_dual(I: MonomialIdeal) -> MonomialIdeal:
    """Intersection over minimal generators x^a of ({x_i^{a_i} : a_i >= 1})."""
    I.require_proper_nonzero("the star dual")
    if any(not any(v) for v in I.exponents):
        raise ImproperIdealError("the star dual requires a proper ideal")
    pieces = []
    for v in I.exponents:
        powers = tuple((i, e) for i, e in enumerate(v) if e > 0)
        pieces.append(IrreducibleIdeal(I.context, powers).as_ideal())
    return intersect_all(pieces)
