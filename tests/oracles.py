"""Independent oracles and random generators used across the test suite.

Everything here deliberately avoids the library's own algorithms: membership
is decided by enumeration, localization by iterated colon (saturation),
intersection by pairwise lcms, covers by brute force, semigroup membership
by bounded coefficient search.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from idealkit import (
    CoverPartition,
    DigraphStructure,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    PolyContext,
    RationalCone,
    WeightedDigraph,
    dual_description,
    rees_cone,
)
from idealkit._linalg import dot
from idealkit.cones import _cone_generators


# ---------------------------------------------------------------------------
# enumeration oracles

def vectors_up_to_degree(n, dmax):
    """All exponent vectors of length n with total degree <= dmax."""
    out = []

    def rec(prefix, left):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e)

    rec([], dmax)
    return out


def box_vectors(bounds):
    return list(itertools.product(*(range(b + 1) for b in bounds)))


def saturation_localize(I: MonomialIdeal, p) -> MonomialIdeal:
    """Localization oracle: saturate I by the product of the outside variables."""
    ctx = I.context
    outside = [i for i in range(ctx.n) if i not in set(p.variables)]
    if not outside:
        return I
    m = Monomial(ctx, tuple(1 if i in outside else 0 for i in range(ctx.n)))
    prev = I
    while True:
        nxt = prev.colon(m)
        if nxt == prev:
            return nxt
        prev = nxt


def minimal_primes_reference(I: MonomialIdeal):
    """Minimal primes by brute force: the inclusion-minimal variable sets that
    meet the support of every generator."""
    n = I.context.n
    supports = [{i for i, e in enumerate(v) if e} for v in I.exponents]
    found = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            c = set(combo)
            if all(s & c for s in supports) and not any(f <= c for f in found):
                found.append(c)
    return [MonomialPrime(I.context, tuple(c)) for c in found]


def symbolic_power_reference(I: MonomialIdeal, k) -> MonomialIdeal:
    """I^(k) by localization: I^k saturated at each minimal prime and
    intersected by ``intersect_reference``."""
    Ik = I ** k
    return intersect_reference([saturation_localize(Ik, p)
                                for p in minimal_primes_reference(I)])


def closure_member_by_powers(I: MonomialIdeal, vec, kmax=6):
    """Integral-closure membership oracle: x^a is integral over I iff
    x^(k a) lies in I^k for some k; searched up to kmax."""
    for k in range(1, kmax + 1):
        target = Monomial(I.context, tuple(k * e for e in vec))
        if (I ** k).contains(target):
            return True
    return False


def integral_closure_by_box(I: MonomialIdeal) -> MonomialIdeal:
    """Integral closure by search: every x^a with (a, 1) in the Rees cone,
    a in the level-one box of the generator maxima.  Only the cone's
    inequalities come from the library (its double description).

    Minimal generators of the closure are bounded componentwise by the
    maxima of the generator exponents, so a box search at level one suffices.
    """
    I.require_proper_nonzero("the integral closure")
    rc = dual_description(rees_cone(I))
    n = I.context.n
    box = [max(g[j] for g in I.exponents) for j in range(n)]
    found = []
    for a in itertools.product(*(range(b + 1) for b in box)):
        if all(dot(h, a + (1,)) >= 0 for h in rc.inequalities):
            found.append(a)
    return MonomialIdeal.from_generators(I.context, found)


def minimal_vertex_covers(n, edges):
    """Inclusion-minimal vertex covers of a graph on range(n), brute force."""
    covers = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            c = set(combo)
            if all(i in c or j in c for i, j in edges):
                if not any(prev <= c for prev in covers):
                    covers.append(c)
    return covers


def all_irreducibles_containing(I: MonomialIdeal, exp_bound):
    """Every irreducible monomial ideal with exponents <= exp_bound that
    contains I, as (variable -> exponent) dicts.  Containment: each generator
    of I must be a multiple of one of the pure powers."""
    n = I.context.n
    found = []
    for choice in itertools.product(range(exp_bound + 1), repeat=n):
        if not any(choice):
            continue
        powers = {i: e for i, e in enumerate(choice) if e > 0}
        if all(any(v[i] >= e for i, e in powers.items()) for v in I.exponents):
            found.append(powers)
    return found


def additive_closure_in_box(elements, bounds):
    """All ℕ-combinations of nonnegative vectors inside the box ``bounds``.

    For nonnegative elements every partial sum of a combination stays under
    the target, so a breadth-first closure within the box is exhaustive.
    """
    elems = [tuple(e) for e in elements if any(e)]
    assert all(all(x >= 0 for x in e) for e in elems), "nonnegative oracle only"
    seen = {tuple(0 for _ in bounds)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for e in elems:
                q = tuple(a + b for a, b in zip(p, e))
                if q not in seen and all(x <= m for x, m in zip(q, bounds)):
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def semigroup_member_bounded(v, elements, ineqs):
    """ℕ-combination membership by coefficient enumeration.

    Coefficients are bounded by a strictly positive grading (the sum of all
    inequality values), with no cone-based pruning of residuals.  The budget
    is linear in the residual, so (index, residual) memoization is sound.
    """
    def grade(u):
        return sum(dot(h, u) for h in ineqs)

    target = tuple(v)
    elems = [tuple(e) for e in elements if any(e)]
    memo = {}

    def rec(idx, residual, budget):
        if not any(residual):
            return True
        if idx == len(elems):
            return False
        key = (idx, residual)
        got = memo.get(key)
        if got is not None:
            return got
        e = elems[idx]
        g = grade(e)
        top = budget // g if g > 0 else 0
        hit = False
        for c in range(top + 1):
            r = tuple(a - c * b for a, b in zip(residual, e))
            if rec(idx + 1, r, budget - c * g):
                hit = True
                break
        memo[key] = hit
        return hit

    return rec(0, target, grade(target))


# ---------------------------------------------------------------------------
# random generators (all driven by an explicit random.Random)

def random_ideal(rng, n=4, max_exp=4, max_gens=4, squarefree=False):
    ctx = PolyContext.default(n)
    while True:
        vecs = []
        for _ in range(rng.randint(1, max_gens)):
            v = tuple(rng.randint(0, 1 if squarefree else max_exp)
                      for _ in range(n))
            if any(v):
                vecs.append(v)
        if vecs:
            return MonomialIdeal.from_generators(ctx, vecs)


def random_sparse_ideal(rng, n, max_exp, num_gens):
    """Ideal of num_gens generators, each on 2 or 3 random variables (n >= 3)
    with exponents in 1..max_exp."""
    vecs = []
    for _ in range(num_gens):
        v = [0] * n
        for i in rng.sample(range(n), rng.randint(2, 3)):
            v[i] = rng.randint(1, max_exp)
        vecs.append(tuple(v))
    return MonomialIdeal.from_generators(PolyContext.default(n), vecs)


def random_no_embedded_ideal(rng, n=3, max_exp=3, max_gens=3):
    from idealkit import has_embedded_primes
    while True:
        I = random_ideal(rng, n=n, max_exp=max_exp, max_gens=max_gens)
        if I.is_proper_nonzero() and not has_embedded_primes(I):
            return I


def random_oriented_digraph(rng, max_vertices=6, max_weight=3):
    """Random oriented graph with at least one arc; sources get weight 1."""
    while True:
        n = rng.randint(2, max_vertices)
        arcs = set()
        for i in range(n):
            for j in range(i + 1, n):
                roll = rng.random()
                if roll < 0.3:
                    arcs.add((i, j))
                elif roll < 0.6:
                    arcs.add((j, i))
        if arcs:
            break
    return _digraph_from(rng, n, arcs, max_weight)


def random_forest_digraph(rng, max_vertices=12, max_weight=3):
    """Random oriented forest, no isolated vertices, random arc directions."""
    while True:
        n = rng.randint(2, max_vertices)
        vertices = list(range(n))
        rng.shuffle(vertices)
        edges = []
        component_starts = {vertices[0]}
        for pos in range(1, n):
            v = vertices[pos]
            if rng.random() < 0.15 and pos < n - 1:
                component_starts.add(v)  # start a new tree
                continue
            anchor = rng.choice(vertices[:pos])
            edges.append((anchor, v))
        arcs = set()
        for a, b in edges:
            arcs.add((a, b) if rng.random() < 0.5 else (b, a))
        touched = {v for arc in arcs for v in arc}
        if len(touched) == n and arcs:
            return _digraph_from(rng, n, arcs, max_weight)


def random_transitive_digraph(rng, max_vertices=6, max_weight=3):
    """Transitive closure of a random DAG (arcs only go up a random order)."""
    while True:
        n = rng.randint(2, max_vertices)
        arcs = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    arcs.add((i, j))
        # transitive closure
        changed = True
        while changed:
            changed = False
            for (a, b) in list(arcs):
                for (c, d) in list(arcs):
                    if b == c and a != d and (a, d) not in arcs:
                        arcs.add((a, d))
                        changed = True
        if arcs:
            return _digraph_from(rng, n, arcs, max_weight)


def _digraph_from(rng, n, arcs, max_weight):
    ctx = PolyContext.default(n)
    heads = {j for _, j in arcs}
    weights = []
    for v in range(n):
        is_source = any(a == v for a, _ in arcs) and v not in heads
        weights.append(1 if is_source else rng.randint(1, max_weight))
    return WeightedDigraph(ctx, tuple(weights), frozenset(arcs))


def cone_member_caratheodory(v, rays):
    """Membership in cone(rays) without any H-representation.

    By Caratheodory, v lies in the cone iff it is a nonnegative rational
    combination of some linearly independent subset of the rays.
    """
    if not any(v):
        return True
    d = len(v)
    rays = [tuple(r) for r in rays]
    for size in range(1, d + 1):
        for subset in itertools.combinations(rays, size):
            if len(independent_rows_reference(list(subset))) < size:
                continue
            # solve subset^T x = v on a set of independent coordinate rows
            cols = [[r[i] for r in subset] for i in range(d)]
            sel = independent_rows_reference(cols, need=size)
            if len(sel) < size:
                continue
            try:
                lam = frac_solve([cols[i] for i in sel],
                                 [Fraction(v[i]) for i in sel])
            except ValueError:
                continue
            if all(x >= 0 for x in lam):
                # verify on the remaining coordinates
                if all(sum(lam[j] * subset[j][i] for j in range(size)) == v[i]
                       for i in range(d)):
                    return True
    return False


def random_pointed_cone(rng, max_dim=4, max_entry=5):
    """Random pointed cone given by nonnegative rays (hence pointed)."""
    from idealkit import RationalCone
    d = rng.randint(2, max_dim)
    rays = set()
    for _ in range(rng.randint(d, d + 3)):
        v = tuple(rng.randint(0, max_entry) for _ in range(d))
        if any(v):
            rays.add(v)
    if not rays:
        rays = {tuple(1 for _ in range(d))}
    return RationalCone(d, rays=tuple(rays))


def dual_description_reference(cone):
    """Both representations of a cone given by rays, by a double
    description each way: rays to inequalities, then those inequalities
    back to the generators of the cone they cut out (its extreme rays, plus
    +-a lineality basis when it contains a line).  This is the path
    ``dual_description`` took before it picked the extreme rays by
    incidence.
    """
    ineqs = _cone_generators(cone.rays, cone.dim)
    return RationalCone(cone.dim, rays=tuple(_cone_generators(ineqs, cone.dim)),
                        inequalities=tuple(ineqs))


def random_mixed_cone(rng, max_dim=6, max_entry=3):
    """Random cone given by mixed-sign rays in Z^d, 2 <= d <= max_dim.

    About a quarter of the cones are projected into a random subspace of
    lower dimension, and about a quarter get the negative of one of their
    rays, so that they contain a line.
    """
    d = rng.randint(2, max_dim)
    rays = [[rng.randint(-max_entry + 1, max_entry) for _ in range(d)]
            for _ in range(rng.randint(1, d + 4))]
    if rng.random() < 0.25:
        k = rng.randint(1, d - 1)
        basis = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(k)]
        rays = [[sum(c * b[j] for c, b in zip(r, basis)) for j in range(d)]
                for r in rays]
    if rng.random() < 0.25:
        rays.append([-x for x in rng.choice(rays)])
    return RationalCone(d, rays=tuple(tuple(r) for r in rays))


def pulling_triangulation_by_rank(rays, ineqs):
    """The pulling triangulation with facets picked by rank, not inclusion.

    Faces are sets of ray indices, walked on a stack.  A face of dimension
    dim with dim rays is a simplex; otherwise its smallest ray, the apex,
    is joined to a cover of each facet of the face that misses it.  Every
    facet of a face F is F & g for the tight set g (the rays an inequality
    vanishes on) of some valid inequality, and each F & g is a face of F, so
    the facets are the F & g of rank dim - 1.
    """
    tight = [frozenset(i for i, r in enumerate(rays) if dot(h, r) == 0)
             for h in ineqs]
    simplices = []
    stack = [(tuple(range(len(rays))), rank_reference(rays), ())]
    while stack:
        face, dim, apexes = stack.pop()
        if len(face) == dim:
            simplices.append(apexes + face)
            continue
        apex = face[0]
        facets = dict.fromkeys(tuple(i for i in face if i in g)
                               for g in tight if apex not in g)
        stack.extend((f, dim - 1, apexes + (apex,)) for f in facets
                     if rank_reference([rays[i] for i in f]) == dim - 1)
    return simplices


# ---------------------------------------------------------------------------
# reference implementations of the decomposition kernels: the plain
# definitions, re-minimalizing and comparing pairwise wherever the library
# takes a shortcut

def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimalize_reference(vecs):
    """Divisibility-minimal members of ``vecs``, sorted."""
    vecs = set(vecs)
    return tuple(sorted(v for v in vecs
                        if not any(w != v and _divides(w, v) for w in vecs)))


def intersect_reference(ideals):
    """Intersection of a nonempty list of ideals in one context, by the
    definition: a left fold of the lcms of every pair of exponent vectors,
    minimalized.  A proper divisor has a smaller total degree, so in order
    of degree a candidate is kept iff no kept vector divides it."""
    ideals = list(ideals)
    vecs = ideals[0].exponents
    for J in ideals[1:]:
        kept = []
        for v in sorted({tuple(map(max, a, b)) for a in vecs for b in J.exponents},
                        key=sum):
            if not any(_divides(w, v) for w in kept):
                kept.append(v)
        vecs = tuple(sorted(kept))
    return MonomialIdeal(ideals[0].context, vecs)


def powers_contain(c, o):
    """Irreducible containment o <= c, both as (variable, exponent) tuples."""
    mine = dict(c)
    return all(i in mine and mine[i] <= e for i, e in o)


def prune_reference(powers):
    """The members of ``powers`` containing no other member."""
    return {c for c in powers
            if not any(o != c and powers_contain(c, o) for o in powers)}


def splitting_decomposition_reference(I: MonomialIdeal):
    """Irreducible components of I as powers tuples, by recursive coprime
    splitting that re-minimalizes each child's generators from scratch,
    followed by the pairwise prune."""
    memo = {}

    def split(vecs):
        if vecs in memo:
            return memo[vecs]
        mixed = [v for v in vecs if sum(1 for e in v if e) >= 2]
        if not mixed:
            out = {tuple(sorted((next(j for j, e in enumerate(v) if e),
                                 max(v)) for v in vecs))}
        else:
            g = max(mixed, key=lambda v: sum(1 for e in v if e))
            i = next(j for j, e in enumerate(g) if e)
            u = tuple(e if j == i else 0 for j, e in enumerate(g))
            v = tuple(0 if j == i else e for j, e in enumerate(g))
            rest = tuple(w for w in vecs if w != g)
            out = (split(minimalize_reference(rest + (u,)))
                   | split(minimalize_reference(rest + (v,))))
        memo[vecs] = out
        return out

    return prune_reference(split(minimalize_reference(I.exponents)))


def intersect_irreducibles_reference(comps):
    """The intersection of irreducible ideals as the plain left fold of
    pairwise intersections of their ideals (``intersect_reference``)."""
    return intersect_reference([c.as_ideal() for c in comps])


def cover_partition_reference(D, subset):
    """(L1, L2, L3, strong) of the vertex indices ``subset``, or None when
    they are no vertex cover, from ``D.arcs`` and ``D.weights`` alone.

    The definitions of Pitones, Reyes and Toledo on plain sets: for a cover
    C, L1 holds the x in C with an out-neighbour outside C, L3 the x in C
    whose neighbours all lie in C, and L2 the rest of C.  C is strong when
    every x in L3 has an arc (y, x) with y in L2 or L3 and weight(y) >= 2.
    L1, L2 and L3 come back as sorted index tuples."""
    C = set(subset)
    if any(i not in C and j not in C for i, j in D.arcs):
        return None
    L1 = {x for x in C if any(i == x and j not in C for i, j in D.arcs)}
    L3 = {x for x in C if all(i in C and j in C for i, j in D.arcs if x in (i, j))}
    L2 = C - L1 - L3
    strong = all(any((y, x) in D.arcs and D.weights[y] >= 2 for y in L2 | L3)
                 for x in L3)
    return tuple(sorted(L1)), tuple(sorted(L2)), tuple(sorted(L3)), strong


def strong_covers_by_subsets(D):
    """Strong vertex covers of D as partitions, by testing every vertex
    subset with ``cover_partition_reference``, by size and then in
    ``itertools.combinations`` order."""
    names = lambda s: tuple(D.names[v] for v in s)
    out = []
    for size in range(D.context.n + 1):
        for combo in itertools.combinations(range(D.context.n), size):
            ref = cover_partition_reference(D, combo)
            if ref is not None and ref[3]:
                out.append(CoverPartition(names(combo), *map(names, ref[:3])))
    return out


def structure_reference(D):
    """DigraphStructure of D by brute force over the arc set alone.

    Transitive: every pair of arcs (a, b), (b, c) with a != c has the arc
    (a, c).  Topological order: repeatedly place the smallest vertex whose
    in-arcs all come from placed vertices; None when none is left to place
    before every vertex is placed (a cycle)."""
    n = D.context.n
    arcs = D.arcs
    transitive = all((a, d) in arcs for a, b in arcs for c, d in arcs
                     if b == c and a != d)
    tournament = all((a, b) in arcs or (b, a) in arcs
                     for a in range(n) for b in range(a + 1, n))
    placed = []
    while len(placed) < n:
        ready = [v for v in range(n) if v not in placed
                 and all(a in placed for a, b in arcs if b == v)]
        if not ready:
            break
        placed.append(min(ready))
    order = tuple(D.names[v] for v in placed) if len(placed) == n else None
    return DigraphStructure(order is not None, transitive, tournament, order)


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals, by plain Gauss-Jordan elimination
# on Fractions, as references for the library's integer echelon routine

def rank_reference(rows):
    """Rank by exact rational elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def independent_rows_reference(rows, need=None):
    """Greedy indices of rows independent of the rows picked before them."""
    picked = []
    basis = []
    for idx, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for b in basis:
            c = next((j for j, x in enumerate(b) if x != 0), None)
            if c is not None and v[c] != 0:
                f = v[c] / b[c]
                v = [a - f * x for a, x in zip(v, b)]
        if any(x != 0 for x in v):
            picked.append(idx)
            basis.append(v)
            if need is not None and len(picked) == need:
                break
    return picked


def frac_solve(A, b):
    """Solve a square nonsingular system exactly; ValueError if singular."""
    n = len(A)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(A, b)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * x for a, x in zip(m[i], m[c])]
    return [row[n] for row in m]


def det_reference(M):
    """Determinant of a square integer matrix, by rational elimination."""
    m = [[Fraction(x) for x in row] for row in M]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * x for a, x in zip(m[i], m[c])]
    return int(det)


def minors_gcd(M, size):
    """gcd of the size x size minors of an integer matrix (1 for size 0)."""
    g = 0
    ncols = len(M[0]) if M else 0
    for rs in itertools.combinations(range(len(M)), size):
        for cs in itertools.combinations(range(ncols), size):
            g = gcd(g, det_reference([[M[i][j] for j in cs] for i in rs]))
    return g
