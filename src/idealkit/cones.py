"""Exact rational polyhedral cone kernel.

Rees cones, Simis cones, V/H conversion by the double description method,
minimal Hilbert bases via a pulling triangulation, normality certificates,
integral closure (the level-one candidates of the same triangulation of the
Rees cone), symbolic Rees algebra generators and the cone-criterion
certificate for I^k == I^(k) at every k.  Every computation is exact over
the integers: primitive vectors, integer Hermite elimination, no floats.

A Hilbert basis is found in three steps: the simplices of the pulling
triangulation, the lattice points of each simplex's parallelepiped (the
box walked along the rows of index L^-1 whose Hermite diagonal entry
exceeds 1), and the Bruns-Ichim reduction, which packs each candidate's
values on the inequalities into one word and keeps the
divisibility-minimal words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import prod

from ._linalg import _echelon, dot, lower_solve, primitive, rank
from .core import Monomial, MonomialIdeal, _built, _layout, _maximal, _minimal_words
from .decomposition import irreducible_decomposition, primary_without_embedded
from .errors import (
    EmbeddedPrimeError,
    HypothesisError,
    NonPointedConeError,
    ResourceCapError,
)

#: Default ceiling on enumerated parallelepiped lattice points per call.
DEFAULT_LATTICE_CAP = 10**6


def _canonical_vectors(vecs):
    out = {primitive(tuple(int(x) for x in v)) for v in vecs}
    return tuple(sorted(v for v in out if any(v)))


@dataclass(frozen=True)
class RationalCone:
    """A cone in Z^dim held in V-representation (rays) and/or H-representation
    (inequality normals h with cone = {y : <h,y> >= 0 for all h}).

    Vectors are stored primitive, deduplicated and lexicographically sorted.
    An empty ray tuple is the zero cone; an empty inequality tuple is the
    whole space; ``None`` means the representation is absent.
    """

    dim: int
    rays: tuple | None = None
    inequalities: tuple | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("cone dimension must be >= 1")
        if self.rays is None and self.inequalities is None:
            raise ValueError("a cone needs rays or inequalities")
        for attr in ("rays", "inequalities"):
            vecs = getattr(self, attr)
            if vecs is None:
                continue
            vecs = _canonical_vectors(vecs)
            for v in vecs:
                if len(v) != self.dim:
                    raise ValueError(f"vector {v} has wrong dimension for dim={self.dim}")
            object.__setattr__(self, attr, vecs)
        if self.rays is not None and self.inequalities is not None:
            for r in self.rays:
                for h in self.inequalities:
                    if dot(h, r) < 0:
                        raise ValueError(
                            f"inconsistent representations: ray {r} violates {h}")

    def contains(self, v):
        if self.inequalities is None:
            raise ValueError("membership needs the H-representation; "
                             "run dual_description first")
        if len(v) != self.dim:
            raise ValueError(f"vector {tuple(v)} has wrong dimension for dim={self.dim}")
        return all(dot(h, v) >= 0 for h in self.inequalities)

    def __str__(self):
        parts = []
        if self.rays is not None:
            parts.append(f"{len(self.rays)} rays")
        if self.inequalities is not None:
            parts.append(f"{len(self.inequalities)} inequalities")
        return f"RationalCone(dim={self.dim}, {', '.join(parts)})"


# ---------------------------------------------------------------------------
# double description: extreme rays of {x : Ax >= 0}

def _tight(h, vecs):
    """Bit mask of the indices i with <h, vecs[i]> == 0."""
    return sum(1 << i for i, v in enumerate(vecs) if dot(h, v) == 0)


def _irredundant(vecs, others):
    """The vectors of ``vecs`` whose tight set over ``others`` holds every
    index or is inclusion-maximal among the rest.

    ``vecs`` generate a cone K and ``others`` its dual K*, and the tight
    set of v is the face of K* that v cuts out: every index iff v lies in
    the lineality space of K, and a facet of K* iff v lies on a minimal
    face of K above that space.  ``dual_description`` applies it both ways
    round, with K the cone or K its dual.
    """
    full = (1 << len(others)) - 1
    tight = [_tight(v, others) for v in vecs]
    kept = set(_maximal([g for g in tight if g != full]))
    return [v for v, g in zip(vecs, tight) if g == full or g in kept]


def _cone_generators(rows, d):
    """Generators of {x : <a,x> >= 0 for a in rows} in Z^d.

    Returns the extreme rays of the pointed part, then +-each vector of a
    lattice basis of the lineality space; together they generate the cone.
    The rows A are distinct, nonzero and primitive (a cone's canonical
    vectors, or this function's output).  One ``_echelon`` of A over the d
    unit rows gives A V = H and V; at rank r, V's columns r.. are the
    lineality basis, the kernel's Hermite normal form.  The d pivot rows S,
    A's and then unit rows e_p, start a double description: S V = L, the
    pivot rows of H, is lower-triangular, so S (V det L^-1) = det I and
    each column of V det L^-1 lies on every starting facet but one, on its
    positive side.  The other rows of A follow in order, then each -e_p, so
    the pointed part is the slice {x : x_p = 0}, a complement of the
    lineality space.  A ray's active set is the bit mask of the processed
    rows, by place in that order, that it is tight on.  A new ray's is its
    parents' common set plus row k, as both are >= 0 on every processed row.
    The pivot rows come first, so every intermediate cone is pointed, and
    two of its extreme rays are adjacent only if their common set has rank
    d - 2; a pair sharing fewer than d - 2 rows is skipped before the scan
    (the combinatorial test of Fukuda and Prodon, 1996).
    """
    A = list(rows)
    rows = A + [tuple(int(i == j) for j in range(d)) for i in range(d)]
    H, piv = _echelon(rows, d)
    V = H[len(A):]
    cut = [tuple(-x for x in rows[i]) for i in piv if i >= len(A)]
    lin = [tuple(row[j] for row in V) for j in range(d - len(cut), d)]
    lin += [tuple(-x for x in l) for l in lin]
    L = [H[i] for i in piv]
    det = prod(r[k] for k, r in enumerate(L))
    rays = [primitive(col) for col in zip(*(lower_solve(L, row, det) for row in V))]
    actives = [((1 << d) - 1) ^ (1 << j) for j in range(d)]
    rows = [rows[i] for i in piv] + [r for i, r in enumerate(A) if i not in piv] + cut

    for k in range(d, len(rows)):
        vals = [dot(rows[k], r) for r in rays]
        actives = [act | 1 << k if val == 0 else act
                   for act, val in zip(actives, vals)]
        if all(v >= 0 for v in vals):
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new = []
        for ip in pos:
            for im in neg:
                s = actives[ip] & actives[im]  # adjacent: no third set holds s
                if s.bit_count() < d - 2 or any(
                        s & act == s for t, act in enumerate(actives)
                        if t != ip and t != im):
                    continue
                new.append((primitive(tuple(
                    vals[ip] * x - vals[im] * y
                    for x, y in zip(rays[im], rays[ip]))), s | 1 << k))
        keep = [i for i, v in enumerate(vals) if v >= 0]
        rays = [rays[i] for i in keep] + [r for r, _ in new]
        actives = [actives[i] for i in keep] + [act for _, act in new]
    return sorted(set(rays)) + lin


def dual_description(cone: RationalCone) -> RationalCone:
    """Return the cone with both representations populated.

    One conversion gives the generators of the other side, and
    ``_irredundant`` over them prunes the given vectors.  From rays, the
    rays kept are the extreme rays of a pointed cone; for a cone that
    contains a line, a generating subset of the given rays (every ray of
    the lineality space, and the rays on the minimal faces above it).
    From inequalities, every facet is the tight face of some given
    inequality; an implicit equality is tight on every ray, so it is kept;
    any other is tight on a face strictly inside a facet, so it is dropped.
    The implicit equalities cut out the cone's span (the negative of each
    is a nonnegative combination of them, by Farkas) and the facets cut
    the cone out of it.  A full-dimensional pointed cone keeps exactly its
    facets.
    """
    if cone.rays is not None and cone.inequalities is not None:
        return cone
    d = cone.dim
    if cone.inequalities is None:
        ineqs = _cone_generators(cone.rays, d)
        rays = _irredundant(cone.rays, ineqs)
    else:
        rays = _cone_generators(cone.inequalities, d)
        ineqs = _irredundant(cone.inequalities, rays)
    return _built(RationalCone, dim=d, rays=tuple(sorted(rays)),
                  inequalities=tuple(sorted(ineqs)))


def is_pointed(cone: RationalCone) -> bool:
    """True iff the cone contains no line.  Its lineality space is a face,
    so unless it is zero it holds a generator, and a generator lies in it
    iff it is tight on every inequality."""
    cone = dual_description(cone)
    return not any(all(dot(h, r) == 0 for h in cone.inequalities)
                   for r in cone.rays)


def cones_equal(c1: RationalCone, c2: RationalCone) -> bool:
    """Mutual containment, checked ray-against-inequality."""
    if c1.dim != c2.dim:
        raise ValueError(f"ambient dimensions differ: {c1.dim} vs {c2.dim}")
    c1 = dual_description(c1)
    c2 = dual_description(c2)
    return (all(c2.contains(r) for r in c1.rays)
            and all(c1.contains(r) for r in c2.rays))


# ---------------------------------------------------------------------------
# cones attached to monomial ideals

def rees_cone(I: MonomialIdeal) -> RationalCone:
    """Cone in Z^(n+1) over the unit vectors e_1..e_n and the lifted
    minimal generators (v, 1)."""
    I.require_proper_nonzero("the Rees cone")
    n = I.context.n
    rays = [tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n)]
    rays += [v + (1,) for v in I.exponents]
    return _built(RationalCone, dim=n + 1, rays=tuple(sorted(rays)), inequalities=None)


def simis_cone(I: MonomialIdeal) -> RationalCone:
    """Intersection of the Rees cones of the primary components."""
    I.require_proper_nonzero("the Simis cone")
    comps = primary_without_embedded(irreducible_decomposition(I), "the Simis cone")
    return _simis_cone([dual_description(rees_cone(c.ideal)) for c in comps],
                       I.context.n + 1)


def _simis_cone(cones, d):
    """Simis cone in Z^d: the intersection of the Rees cones ``cones``, each
    already holding both representations.  The union of their inequalities
    cuts it out, and ``dual_description`` keeps the facets among them: the
    Simis cone holds e_1..e_n and a point at level 1 and lies in the
    nonnegative orthant, so it is full-dimensional and pointed.
    """
    return dual_description(RationalCone(
        d, inequalities=tuple(h for c in cones for h in c.inequalities)))


# ---------------------------------------------------------------------------
# Hilbert bases

@dataclass(frozen=True)
class HilbertBasis:
    """The unique minimal Hilbert basis of a pointed rational cone."""

    dim: int
    elements: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        elems = tuple(sorted(set(tuple(int(x) for x in v) for v in self.elements),
                             key=lambda v: (v[-1], v)))
        object.__setattr__(self, "elements", elems)

    def as_set(self):
        return frozenset(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _pulling_triangulation(rays, ineqs):
    """Cover a pointed cone with simplicial cones on its rays, by pulling.

    Faces are bit masks over ray indices, walked on a stack.  A face of
    dimension dim with dim rays is a simplex; otherwise its lowest ray, the
    apex, is joined to a cover of each facet of the face that misses it.
    Every face is the intersection of the facets that contain it, and each
    F & g, for the tight set g of a valid inequality, is a face of F; so a
    face of F that misses the apex lies in a facet of F that misses it, and
    those facets are the inclusion-maximal F & g with the apex not in g.
    Redundant inequalities do no harm, and the +-lineality rows of a
    lower-dimensional cone are tight on every ray, so they hold the apex
    and are skipped.  The minimal Hilbert basis is unique, so any such
    cover gives the same basis after _reduce_generators.
    """
    tight = [_tight(h, rays) for h in ineqs]
    simplices = []
    stack = [((1 << len(rays)) - 1, rank(rays), ())]
    while stack:
        face, dim, apexes = stack.pop()
        if face.bit_count() == dim:
            simplices.append(apexes + tuple(i for i in range(len(rays)) if face >> i & 1))
            continue
        apex = (face & -face).bit_length() - 1
        facets = _maximal([face & g for g in tight if not g >> apex & 1])
        stack.extend((f, dim - 1, apexes + (apex,)) for f in facets)
    return simplices


def _parallelepiped_points(rays, budget):
    """Lattice points of {sum lambda_i r_i : 0 <= lambda_i < 1} for linearly
    independent integer rays.  Returns (points including 0, lattice index).

    With R V = H for the ray matrix R (rows are rays), the first t columns
    of H are a lower-triangular L and R = L W, where W, the first t rows of
    V^-1, is a basis of the lattice points of the rays' span.  So the points
    are c W with lambda = c L^-1 in [0, 1)^t, one per class of Z^t modulo
    the rows of L; the box 0 <= c_k < L_kk holds one of each, and the index
    is det L.  lambda, scaled by the index, is c (index L^-1) modulo the
    index.  Only the rows k with L_kk > 1 can have c_k != 0, and they
    multiply to the index, so at most log2(index) rows are solved (none for
    a unimodular simplex) and the box is walked by adding j times each row
    modulo the index, last coordinate fastest.
    """
    t = len(rays)
    H, piv = _echelon(rays, len(rays[0]))
    if len(piv) < t:
        raise ValueError("parallelepiped rays are linearly dependent")
    L = [row[:t] for row in H]
    diag = [L[k][k] for k in range(t)]
    index = prod(diag)
    if index > budget:
        raise ResourceCapError(
            f"parallelepiped holds {index} lattice points, over the remaining "
            f"budget of {budget}; raise max_lattice_points to proceed")
    lams = [[0] * t]
    for k, n in enumerate(diag):
        if n > 1:
            row = lower_solve(L, [int(i == k) for i in range(t)], index)
            lams = [[(x + j * y) % index for x, y in zip(lam, row)]
                    for lam in lams for j in range(n)]
    cols = list(zip(*rays))
    points = []
    for lam in lams:
        z = []
        for col in cols:
            q, r = divmod(dot(col, lam), index)
            if r:
                raise ArithmeticError("parallelepiped point is not integral")
            z.append(q)
        points.append(tuple(z))
    distinct = len(set(points))
    if distinct != index:
        raise ArithmeticError(
            f"parallelepiped enumeration found {distinct} distinct points, "
            f"expected {index}")
    return points, index


def _reduce_generators(cands, ineqs):
    """Unique minimal Hilbert basis from a generating candidate set.

    Each candidate v maps to its value vector hv(v) = (<h,v> for h in ineqs),
    and v - u lies in the cone iff hv(u) <= hv(v) componentwise.  The
    candidates lie in the cone's nonzero lattice points and contain the whole
    Hilbert basis, so v is reducible iff some other candidate has a smaller
    value vector: the basis is the candidates whose value vectors are
    divisibility-minimal.  hv is injective because the cone is pointed
    (Bruns-Ichim reduction).

    Each value vector is packed straight into one word (``core._layout``,
    lower bound 0): with C_i = sum_j h_j[i] 2^(w (m-1-j)) over the m
    inequalities h_j, built by signed shifts since their entries can be
    negative, the word of v is sum_i v_i C_i.  The field width covers max_h sum_i |h_i| max|v_i|, so a
    negative value sets the sign or a guard bit: a word below 0 or with a
    guard bit set is a candidate outside the cone.
    """
    cands = list(cands)
    tops = [max(map(abs, col)) for col in zip(*cands)]
    span = max((dot(map(abs, h), tops) for h in ineqs), default=0)
    w, G = _layout(ineqs, span)
    coeffs = []
    for col in zip(*ineqs):
        c = 0
        for x in col:
            c = (c << w) + x
        coeffs.append(c)
    by_word = {}
    for v in cands:
        p = dot(v, coeffs)
        if p < 0 or p & G:
            raise ArithmeticError(f"Hilbert basis candidate {v} lies outside the cone")
        by_word[p] = v
    return [by_word[p] for p in _minimal_words(by_word, G)]


def _candidates(cone, max_lattice_points):
    """Rays and nonzero parallelepiped points of a pulling triangulation of a
    pointed cone holding both representations: they lie in the cone and hold
    its whole Hilbert basis.  This is the kernel's one lattice-point
    enumeration; ``max_lattice_points`` bounds the parallelepiped points
    summed over all simplices (their indices).
    """
    if cone.rays and not is_pointed(cone):
        raise NonPointedConeError(
            "the cone contains a line; its Hilbert basis is not unique")
    rays = list(cone.rays)
    if not rays:
        return set()
    cands = set(rays)
    budget = max_lattice_points
    for simplex in _pulling_triangulation(rays, cone.inequalities):
        pts, index = _parallelepiped_points([rays[i] for i in simplex], budget)
        budget -= index
        cands.update(p for p in pts if any(p))
    return cands


def hilbert_basis(cone: RationalCone,
                  max_lattice_points: int = DEFAULT_LATTICE_CAP) -> HilbertBasis:
    """The unique minimal Hilbert basis of a pointed cone: the converted
    cone's ``_candidates`` reduced by ``_reduce_generators``.
    ``max_lattice_points`` bounds the parallelepiped points."""
    cone = dual_description(cone)
    cands = _candidates(cone, max_lattice_points)
    return HilbertBasis(cone.dim, tuple(_reduce_generators(cands, cone.inequalities)))


# ---------------------------------------------------------------------------
# normality, integral closure, symbolic Rees generators

def is_normal(I: MonomialIdeal,
              max_lattice_points: int = DEFAULT_LATTICE_CAP) -> bool:
    """True iff the lifted generator set is a Hilbert basis of the Rees cone.

    The Rees algebra is the semigroup generated by the e_i and the (g, 1); it
    equals the cone's lattice points exactly when the minimal Hilbert basis
    lies inside that generator set, i.e. every Hilbert basis element (a, b)
    satisfies x^a in I^b."""
    I.require_proper_nonzero("the normality test")
    rc = rees_cone(I)
    return _generated_by(rc, rc.rays, max_lattice_points)


def _generated_by(cone, gens, max_lattice_points):
    """Does ``gens`` hold the Hilbert basis of ``cone``?  For a Rees cone
    that is the whole lifted generator set, not the converted cone's rays."""
    return hilbert_basis(cone, max_lattice_points).as_set() <= set(gens)


def integral_closure(I: MonomialIdeal,
                     max_lattice_points: int = DEFAULT_LATTICE_CAP) -> MonomialIdeal:
    """Monomials x^a with (a, 1) in the Rees cone.

    The cone meets level 0 in the nonnegative orthant, so (a, 1) is
    reducible iff some (b, 1) in the cone has x^b a proper divisor of x^a:
    the level-one Hilbert-basis elements are the minimal generators.  The
    Rees cone's ``_candidates`` lie in it and hold the whole basis, so their
    minimal level-one points generate the closure; ``max_lattice_points``
    bounds their parallelepiped points.
    """
    I.require_proper_nonzero("the integral closure")
    cands = _candidates(dual_description(rees_cone(I)), max_lattice_points)
    return MonomialIdeal.from_generators(
        I.context, [v[:-1] for v in cands if v[-1] == 1])


def _component_cones(I: MonomialIdeal, what, max_lattice_points):
    """(converted Rees cones of I's primary components, None), or stop at
    the first component that is not normal and return (cones so far, it)."""
    comps = primary_without_embedded(irreducible_decomposition(I), what)
    cones = []
    for comp in comps:
        rc = rees_cone(comp.ideal)
        cone = dual_description(rc)
        if not _generated_by(cone, rc.rays, max_lattice_points):
            return cones, comp
        cones.append(cone)
    return cones, None


def check_symbolic_rees_normal(I: MonomialIdeal,
                               max_lattice_points: int = DEFAULT_LATTICE_CAP) -> bool:
    """Normality of the symbolic Rees algebra: every primary component normal."""
    I.require_proper_nonzero("the symbolic Rees normality check")
    return _component_cones(I, "the symbolic Rees normality criterion",
                            max_lattice_points)[1] is None


def symbolic_rees_generators(I: MonomialIdeal,
                             max_lattice_points: int = DEFAULT_LATTICE_CAP):
    """Generators x^a t^b of the symbolic Rees algebra, as (monomial, t-degree).

    Valid when I has no embedded primes and every primary component is
    normal: then the Hilbert basis of the Simis cone generates."""
    I.require_proper_nonzero("symbolic Rees generators")
    cones, bad = _component_cones(I, "the symbolic Rees generator recipe",
                                  max_lattice_points)
    if bad is not None:
        raise HypothesisError(
            f"primary component {bad.ideal} is not normal, so the "
            f"Hilbert basis recipe does not apply")
    hb = hilbert_basis(_simis_cone(cones, I.context.n + 1), max_lattice_points)
    return tuple((Monomial(I.context, v[:-1]), v[-1]) for v in hb.elements)


class EqualityCertificate(str, enum.Enum):
    EQUAL_BY_CONE_CRITERION = "equal-by-cone-criterion"
    UNEQUAL = "unequal"
    INAPPLICABLE = "inapplicable"


def symbolic_vs_ordinary_certificate(I: MonomialIdeal) -> EqualityCertificate:
    """Decide ``I^k == I^(k) for all k`` via the cone criterion.

    Applicable when I has no embedded primes and every primary component is
    normal; then equality for every k holds iff the Simis cone equals the
    Rees cone and I itself is normal.
    """
    I.require_proper_nonzero("the equality certificate")
    try:
        cones, bad = _component_cones(I, "the cone criterion", DEFAULT_LATTICE_CAP)
    except EmbeddedPrimeError:
        return EqualityCertificate.INAPPLICABLE
    if bad is not None:
        return EqualityCertificate.INAPPLICABLE
    simis = _simis_cone(cones, I.context.n + 1)
    rc = rees_cone(I)
    rees = dual_description(rc)
    if (cones_equal(simis, rees)
            and _generated_by(rees, rc.rays, DEFAULT_LATTICE_CAP)):
        return EqualityCertificate.EQUAL_BY_CONE_CRITERION
    return EqualityCertificate.UNEQUAL
