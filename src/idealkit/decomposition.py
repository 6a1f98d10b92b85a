"""Irreducible and primary decomposition of monomial ideals.

The decomposition algorithm is coprime splitting: a generator g that mixes
two coprime parts u, v splits the ideal into the two ideals gaining u resp.
v; once every generator is a pure power the ideal is irreducible.  No other
minimal generator divides g, hence none divides u or v, so a child's minimal
generating set is the parent's without g, minus the multiples of the new
generator, plus that generator: one linear pass, no re-minimalization.  The
memoized split DAG is walked in post-order with an explicit stack, so deep
inputs cannot overflow the interpreter's stack.

Redundant components are pruned afterwards by one ``_minimal_vecs`` call:
each component becomes a vector that divides another component's vector
exactly when the second component contains the first (see ``_prune``).
The result is the unique irredundant irreducible decomposition, whose
components are exactly the minimal irreducible ideals containing I.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .core import (
    MonomialIdeal,
    MonomialPrime,
    _minimal_vecs,
    _same_context,
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
# irreducible decomposition by coprime splitting

def _splittable(vecs):
    """Pick the generator with largest support having >= 2 variables, or None."""
    best = None
    best_supp = 1
    for v in vecs:
        supp = sum(1 for e in v if e > 0)
        if supp > best_supp:
            best, best_supp = v, supp
    return best


def _with_generator(rest, u):
    """Minimal generators of (rest) + (u), given that no member of rest
    divides u: drop the multiples of u and insert u in sorted position."""
    supp = [(j, e) for j, e in enumerate(u) if e]
    if len(supp) == 1:
        # a pure power x_j^e divides w iff w_j >= e
        (j, e), = supp
        out = [w for w in rest if w[j] < e]
    else:
        out = [w for w in rest if any(w[j] < e for j, e in supp)]
    bisect.insort(out, u)
    return tuple(out)


def _split(vecs, memo):
    """Set of irreducible components (as powers tuples) of the ideal (vecs).

    ``vecs`` is a canonical minimal generating set.  A node splits on g into
    the children gaining u = x_i^{g_i} (the first variable of g) and v = g/u.
    Both divide g, and no other minimal generator divides g, so
    ``_with_generator`` builds each child's minimal generating set in one
    pass.  Nodes are expanded once: each pushes a marker carrying its two
    children beneath them, and the children's component sets are united
    when the marker pops.
    """
    stack = [(vecs, None)]
    while stack:
        node, children = stack.pop()
        if children is not None:
            left, right = children
            memo[node] = memo[left] | memo[right]
            continue
        if node in memo:
            continue
        g = _splittable(node)
        if g is None:
            # every generator is a pure power of a distinct variable
            memo[node] = frozenset([tuple(sorted(_pure_powers(node)))])
            continue
        i = next(j for j, e in enumerate(g) if e > 0)
        u = tuple(g[j] if j == i else 0 for j in range(len(g)))
        v = tuple(0 if j == i else g[j] for j in range(len(g)))
        rest = tuple(w for w in node if w != g)
        left = _with_generator(rest, u)
        right = _with_generator(rest, v)
        stack.append((node, (left, right)))
        stack.append((right, None))
        stack.append((left, None))
    return memo[vecs]


def _pure_powers(vecs):
    """(variable, exponent) pairs of a pure-power generator list."""
    for v in vecs:
        i = next(j for j, e in enumerate(v) if e > 0)
        yield i, v[i]


def _prune(n, comps):
    """Keep the inclusion-minimal powers tuples, in no particular order.

    A component is redundant iff it contains another one: an irreducible
    ideal containing the intersection must contain one of the intersected
    components, so containment between components decides redundancy.
    With top one more than every exponent, map a component C to t(C), with
    t_i = top - a_i on its variables x_i^{a_i} and 0 elsewhere.  C contains
    D iff every variable of D is a variable of C with a_C <= a_D there, iff
    t(D) <= t(C) componentwise (t(D)_i > 0 exactly on D's variables).  So
    the kept components are those whose vectors are divisibility-minimal.
    """
    top = 1 + max(e for ps in comps for _, e in ps)
    by_vec = {}
    for ps in comps:
        t = [0] * n
        for i, e in ps:
            t[i] = top - e
        by_vec[tuple(t)] = ps
    return [by_vec[t] for t in _minimal_vecs(by_vec)]


def irreducible_decomposition(I: MonomialIdeal) -> Decomposition:
    """The unique irredundant irreducible decomposition of a proper nonzero ideal."""
    I.require_proper_nonzero("irreducible decomposition")
    kept = _prune(I.context.n, _split(I.exponents, {}))
    return Decomposition(tuple(IrreducibleIdeal(I.context, ps) for ps in kept))


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
