"""Decomposition machinery against worked values and structural laws."""

import itertools
import random
from collections import Counter

import pytest

from idealkit import (
    Decomposition,
    ImproperIdealError,
    IrreducibleIdeal,
    MonomialIdeal,
    MonomialPrime,
    PolyContext,
    PrimaryIdeal,
    alexander_dual,
    associated_primes,
    intersect_all,
    irreducible_decomposition,
    is_primary,
    is_unmixed,
    localize,
    minimal_irreducibles,
    minimal_primes,
    primary_decomposition,
    star_dual,
)

from idealkit.core import MAX_EXPONENT

from oracles import (
    all_irreducibles_containing,
    intersect_irreducibles_reference,
    minimal_vertex_covers,
    powers_contain,
    random_ideal,
    random_oriented_digraph,
    saturation_localize,
    splitting_decomposition_reference,
)


def _component_set(dec):
    return {tuple(c.powers) for c in dec}


def _powers(ctx, mapping):
    return tuple(sorted((ctx.index(nm), e) for nm, e in mapping.items()))


# ---------------------------------------------------------------------------
# worked decompositions

def test_example_3_16_decomposition(ex3_16_ideal):
    ctx = ex3_16_ideal.context
    dec = irreducible_decomposition(ex3_16_ideal)
    assert _component_set(dec) == {
        _powers(ctx, {"x1": 1, "x2": 1}),
        _powers(ctx, {"x1": 1, "x3": 2}),
        _powers(ctx, {"x2": 2, "x3": 2}),
    }


def test_example_3_17_decomposition(ex3_17_ideal):
    ctx = ex3_17_ideal.context
    dec = irreducible_decomposition(ex3_17_ideal)
    assert _component_set(dec) == {
        _powers(ctx, {"x1": 2, "x2": 1}),
        _powers(ctx, {"x1": 1, "x3": 2}),
        _powers(ctx, {"x2": 2, "x3": 1}),
        _powers(ctx, {"x1": 2, "x2": 2, "x3": 2}),
    }


def test_pure_power_is_its_own_decomposition(ctx3):
    dec = irreducible_decomposition(ctx3.ideal("x1^3"))
    assert _component_set(dec) == {((0, 3),)}


def test_fig1_minimal_irreducibles(fig1_ideal):
    ctx = fig1_ideal.context
    dec = minimal_irreducibles(fig1_ideal)
    assert _component_set(dec) == {
        _powers(ctx, {"x1": 2, "x2": 2, "x4": 2}),
        _powers(ctx, {"x1": 1, "x3": 1, "x5": 1}),
        _powers(ctx, {"x2": 2, "x3": 1, "x4": 2}),
        _powers(ctx, {"x2": 2, "x3": 1, "x5": 1}),
    }


def test_minimal_irreducibles_against_enumeration_oracle():
    # an irreducible (x_i^{a_i} : i in S) sits inside (x_j^{b_j} : j in T)
    # exactly when S <= T and b_i <= a_i on S
    def contained(inner, outer):
        return all(i in outer and outer[i] <= e for i, e in inner.items())

    rng = random.Random(5150)
    for _ in range(12):
        I = random_ideal(rng, n=3, max_exp=3, max_gens=3)
        if not I.is_proper_nonzero():
            continue
        comps = [dict(c.powers) for c in minimal_irreducibles(I)]
        for L in all_irreducibles_containing(I, 3):
            assert any(contained(c, L) for c in comps)


def test_prime_decomposes_to_itself(ctx3):
    dec = irreducible_decomposition(ctx3.ideal("x1", "x2"))
    assert _component_set(dec) == {((0, 1), (1, 1))}


def test_radical_example_components(radical_example_ideal):
    ctx = radical_example_ideal.context
    dec = irreducible_decomposition(radical_example_ideal)
    assert _component_set(dec) == {
        _powers(ctx, {"x1": 1, "x3": 1}),
        _powers(ctx, {"x2": 1, "x3": 1}),
        _powers(ctx, {"x1": 1, "x2": 2, "x4": 1}),
        _powers(ctx, {"x2": 1, "x4": 1}),
    }
    assert not is_unmixed(radical_example_ideal)


# ---------------------------------------------------------------------------
# primary shape and decomposition

def test_is_primary(ctx3, fig1_ideal):
    assert is_primary(ctx3.ideal("x1^2", "x2^2", "x1*x2^3")) == \
        MonomialPrime.of_names(ctx3, ("x1", "x2"))
    assert is_primary(ctx3.ideal("x1*x2")) is None
    c5 = fig1_ideal.context
    assert is_primary(c5.ideal("x1^2", "x2^2", "x4^2")) == \
        MonomialPrime.of_names(c5, ("x1", "x2", "x4"))


def test_primary_decomposition_grouping(ctx3, ex3_16_ideal):
    dec = primary_decomposition(ex3_16_ideal)
    assert len(dec) == 3
    assert len({c.radical_prime for c in dec}) == 3

    I = ctx3.ideal("x1^2", "x1*x2")
    dec2 = primary_decomposition(I)
    assert {c.ideal for c in dec2} == {ctx3.ideal("x1"), ctx3.ideal("x1^2", "x2")}
    assert intersect_all([c.ideal for c in dec2]) == I

    J = ctx3.ideal("x1^2", "x1*x2^2", "x2^3")
    dec3 = primary_decomposition(J)
    assert len(dec3) == 1 and dec3.components[0].ideal == J


def test_associated_and_minimal_primes(ctx3, ex3_16_ideal):
    names = lambda ps: {p.names for p in ps}
    assert names(associated_primes(ex3_16_ideal)) == {
        ("x1", "x2"), ("x1", "x3"), ("x2", "x3")}
    path = ctx3.ideal("x1*x2", "x2*x3")
    assert names(associated_primes(path)) == {("x2",), ("x1", "x3")}
    assert names(associated_primes(ctx3.ideal("x1^2"))) == {("x1",)}
    assert names(minimal_primes(ctx3.ideal("x1^2", "x1*x2"))) == {("x1",)}


# ---------------------------------------------------------------------------
# localization

def test_localize_examples(ctx3):
    I = ctx3.ideal("x1*x2^2", "x1^2*x3")
    p1 = MonomialPrime.of_names(ctx3, ("x1",))
    assert localize(I, p1) == ctx3.ideal("x1")
    full = MonomialPrime.of_names(ctx3, ("x1", "x2", "x3"))
    assert localize(I, full) == I
    assert localize(ctx3.ideal("x1*x2"), p1) == ctx3.ideal("x1")


def test_localize_agrees_with_saturation_oracle():
    rng = random.Random(314)
    ctx = PolyContext.default(3)
    for _ in range(25):
        I = random_ideal(rng, n=3, max_exp=3, max_gens=3)
        vars_ = sorted(rng.sample(range(3), rng.randint(1, 3)))
        p = MonomialPrime(ctx, tuple(vars_))
        assert localize(I, p) == saturation_localize(I, p)


def test_localize_outside_support_gives_unit(ctx3):
    I = ctx3.ideal("x1*x2")
    p = MonomialPrime.of_names(ctx3, ("x3",))
    assert localize(I, p).is_unit()


# ---------------------------------------------------------------------------
# unmixedness

def test_unmixed_examples(terai_ideal, ctx3):
    assert is_unmixed(terai_ideal)
    assert is_unmixed(ctx3.ideal("x1^2*x2"))  # principal


# ---------------------------------------------------------------------------
# duals

def test_alexander_dual_examples(ex3_16_ideal, ex3_17_ideal, principal_mixed_ideal):
    c = ex3_16_ideal.context
    assert alexander_dual(ex3_16_ideal) == c.ideal("x1*x2", "x1*x3^2", "x2^2*x3^2")
    assert alexander_dual(ex3_17_ideal) == c.ideal("x1^2*x2", "x1*x3^2", "x2^2*x3")
    assert alexander_dual(principal_mixed_ideal) == c.ideal("x1", "x2^2*x3")


def test_star_dual_examples(ex3_16_ideal, ex3_17_ideal, principal_mixed_ideal):
    c = ex3_16_ideal.context
    assert star_dual(ex3_16_ideal) == alexander_dual(ex3_16_ideal)
    assert star_dual(principal_mixed_ideal) == c.ideal("x1^2", "x1*x3", "x2^2*x3")
    dual = alexander_dual(ex3_17_ideal)
    star = star_dual(ex3_17_ideal)
    assert star.contains_ideal(dual) and star != dual


def test_duals_reject_improper(ctx3):
    unit = ctx3.ideal("1")
    zero = MonomialIdeal(ctx3, ())
    for bad in (unit, zero):
        with pytest.raises(ImproperIdealError):
            alexander_dual(bad)
        with pytest.raises(ImproperIdealError):
            star_dual(bad)
        with pytest.raises(ImproperIdealError):
            irreducible_decomposition(bad)


# ---------------------------------------------------------------------------
# structural laws on random ideals

def test_decomposition_laws_random():
    rng = random.Random(2024)
    for _ in range(40):
        I = random_ideal(rng, n=4, max_exp=4, max_gens=4)
        if not I.is_proper_nonzero():
            continue
        dec = irreducible_decomposition(I)
        ideals = dec.ideals()
        # recomposition
        assert intersect_all(ideals) == I
        # containment chain
        assert all(L.contains_ideal(I) for L in ideals)
        # strict irredundancy, via the full intersection of the others
        if len(ideals) > 1:
            for j in range(len(ideals)):
                others = intersect_all([L for i, L in enumerate(ideals) if i != j])
                assert not ideals[j].contains_ideal(others)
        # canonical uniqueness: decomposing the intersection reproduces it
        assert irreducible_decomposition(intersect_all(ideals)) == dec


def test_lemma_duality_of_exponents(fig1_ideal, ex3_16_ideal, ex3_17_ideal):
    rng = random.Random(99)
    samples = [fig1_ideal, ex3_16_ideal, ex3_17_ideal]
    samples += [random_ideal(rng, n=4, max_exp=4, max_gens=4) for _ in range(25)]
    for I in samples:
        if not I.is_proper_nonzero():
            continue
        gen_powers = {(i, e) for v in I.exponents
                      for i, e in enumerate(v) if e >= 1}
        comp_powers = {(i, e) for c in irreducible_decomposition(I)
                       for i, e in c.powers}
        assert gen_powers == comp_powers


def test_squarefree_associated_primes_are_minimal_covers():
    rng = random.Random(515)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.add((i, j))
        if not edges:
            continue
        ctx = PolyContext.default(n)
        gens = [tuple(1 if k in e else 0 for k in range(n)) for e in edges]
        I = MonomialIdeal.from_generators(ctx, gens)
        got = {p.variables for p in associated_primes(I)}
        want = {tuple(sorted(c)) for c in minimal_vertex_covers(n, edges)}
        assert got == want


def test_star_equals_alexander_on_squarefree():
    rng = random.Random(808)
    for _ in range(25):
        I = random_ideal(rng, n=4, max_gens=4, squarefree=True)
        if not I.is_proper_nonzero():
            continue
        assert star_dual(I) == alexander_dual(I)


# ---------------------------------------------------------------------------
# the splitting kernels against their reference definitions

def _staircase(N):
    ctx = PolyContext.default(2)
    return MonomialIdeal.from_generators(ctx, [(i, N - i) for i in range(N + 1)])


def test_decomposition_matches_splitting_reference():
    rng = random.Random(4104)
    samples = [random_ideal(rng, n=rng.randint(3, 5), max_exp=3, max_gens=6)
               for _ in range(150)]
    samples += [_staircase(N) for N in (1, 2, 7, 30, 60)]
    for I in samples:
        if not I.is_proper_nonzero():
            continue
        assert _component_set(irreducible_decomposition(I)) == \
            splitting_decomposition_reference(I)


def _seeded_decomposition_inputs(rng):
    """Random ideals in 1..7 variables with up to 8 generators, a tenth of
    them with entries near MAX_EXPONENT (65-bit containment fields), single
    generators, pure powers only, and weighted edge ideals on <= 8 vertices."""
    for _ in range(300):
        n = rng.randint(1, 7)
        ctx = PolyContext.default(n)
        big = rng.random() < 0.1
        vecs = []
        for _ in range(rng.randint(1, 8)):
            v = [rng.randint(0, 3) for _ in range(n)]
            if big:
                v = [MAX_EXPONENT - rng.randint(0, 2) if e and rng.random() < 0.6
                     else e for e in v]
            vecs.append(v)
        yield MonomialIdeal.from_generators(ctx, vecs)
    for n in (1, 3, 7):
        ctx = PolyContext.default(n)
        for _ in range(10):
            g = [rng.choice((0, 1, 2, 5, MAX_EXPONENT)) for _ in range(n)]
            yield MonomialIdeal.from_generators(ctx, [g])
            pure = [tuple(rng.randint(1, 4) if j == i else 0 for j in range(n))
                    for i in rng.sample(range(n), rng.randint(1, n))]
            yield MonomialIdeal.from_generators(ctx, pure)
    for _ in range(60):
        yield random_oriented_digraph(rng, max_vertices=8).edge_ideal()


def test_generator_loop_matches_splitting_reference():
    rng = random.Random(4107)
    seen = set()
    for I in _seeded_decomposition_inputs(rng):
        if not I.is_proper_nonzero():
            continue
        seen.add(I.context.n)
        assert _component_set(irreducible_decomposition(I)) == \
            splitting_decomposition_reference(I), I
    assert seen == set(range(1, 9))


def test_deep_staircase_decomposes_without_recursion_error():
    N = 1000
    got = _component_set(irreducible_decomposition(_staircase(N)))
    assert got == {((0, i), (1, N + 1 - i)) for i in range(1, N + 1)}


def _exact_power_inputs(rng):
    """Inputs that load the exact-power buckets: generators sharing each
    variable's one exponent (so several hit one bucket), children of distinct
    parents in one bucket, 3-variable staircases, powers of the maximal
    ideal in 3 and 4 variables, and all of these near MAX_EXPONENT."""
    for _ in range(80):
        n = rng.randint(2, 6)
        level = [rng.randint(1, 4) for _ in range(n)]
        vecs = [[x if rng.random() < 0.5 else 0 for x in level]
                for _ in range(rng.randint(2, 8))]
        yield MonomialIdeal.from_generators(PolyContext.default(n),
                                            [v for v in vecs if any(v)] or [level])
    for _ in range(40):
        # Artinian staircase in 3 variables: pure powers and monomials under them
        N = rng.randint(2, 9)
        vecs = [(N, 0, 0), (0, N, 0), (0, 0, N)]
        vecs += [tuple(rng.randint(0, N - 1) for _ in range(3))
                 for _ in range(rng.randint(1, 12))]
        yield MonomialIdeal.from_generators(PolyContext.default(3),
                                            [v for v in vecs if any(v)])
    for N in (3, 6, 10):
        # the 3-variable staircase x1^i x2^j x3^(N-i-j) with its corners cut
        yield MonomialIdeal.from_generators(PolyContext.default(3), [
            (i, j, N - i - j + (i * j) % 2)
            for i in range(N + 1) for j in range(N + 1 - i)])
    for n, kmax in ((3, 5), (4, 3)):
        m = MonomialIdeal.from_generators(PolyContext.default(n), [
            tuple(int(i == j) for j in range(n)) for i in range(n)])
        for k in range(1, kmax + 1):
            yield m ** k


def _near_max(I):
    """I with its nonzero exponents shifted up by d, so that the largest is
    MAX_EXPONENT, and d.  The shift keeps the order of the exponents of
    each variable, so the components shift with them."""
    d = MAX_EXPONENT - max(map(max, I.exponents))
    return MonomialIdeal.from_generators(I.context, [
        tuple(e + d if e else 0 for e in v) for v in I.exponents]), d


def test_exact_power_buckets_match_splitting_reference():
    rng = random.Random(1713)
    count = 0
    for I in _exact_power_inputs(rng):
        want = splitting_decomposition_reference(I)
        assert _component_set(irreducible_decomposition(I)) == want, I
        # near MAX_EXPONENT the containment fields are 65 bits wide
        big, d = _near_max(I)
        assert _component_set(irreducible_decomposition(big)) == {
            tuple((i, e + d) for i, e in c) for c in want}, big
        count += 1
    assert count == 131


def test_every_child_kept_when_supports_are_disjoint():
    """Generators on pairwise disjoint supports: no child is ever redundant,
    and the components are all choices of one variable per generator."""
    rng = random.Random(1714)
    for _ in range(30):
        n = rng.randint(2, 8)
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
        blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        vecs = []
        for block in blocks:
            v = [0] * n
            for i in block:
                v[i] = rng.choice((1, 2, 5, MAX_EXPONENT))
            vecs.append(tuple(v))
        I = MonomialIdeal.from_generators(PolyContext.default(n), vecs)
        got = _component_set(irreducible_decomposition(I))
        assert got == splitting_decomposition_reference(I)
        assert got == {tuple(sorted((i, v[i]) for i, v in zip(choice, vecs)))
                       for choice in itertools.product(*blocks)}


def test_library_components_equal_constructed_ones():
    """Components built by the library skip the constructor's checks; they
    must still be equal to, and hash like, the constructor's: irreducible
    components of both decompositions, and primary components."""
    rng = random.Random(1715)
    decs = [irreducible_decomposition(random_ideal(rng, n=rng.randint(1, 6)))
            for _ in range(60)]
    for _ in range(30):
        D = random_oriented_digraph(rng, max_vertices=8)
        decs += [D.prt_decomposition(), irreducible_decomposition(D.edge_ideal())]
    for dec in decs:
        for c in dec:
            again = IrreducibleIdeal(c.context, tuple(reversed(c.powers)))
            assert c == again and hash(c) == hash(again)
            assert c.powers == again.powers
            assert all(type(x) is int for pair in c.powers for x in pair)
    for _ in range(60):
        for c in primary_decomposition(random_ideal(rng, n=rng.randint(1, 6))):
            again = PrimaryIdeal(c.ideal, c.radical_prime)
            assert c == again and hash(c) == hash(again)


# ---------------------------------------------------------------------------
# intersections of irreducible ideals, by a-duality, against the fold

def _star_pieces(I):
    """The irreducible ideal (x_i^{a_i} : a_i >= 1) of each generator x^a."""
    return [IrreducibleIdeal(I.context, tuple((i, e) for i, e in enumerate(v) if e))
            for v in I.exponents]


def _nested_star_inputs(rng):
    """Ideals with a generator pair x^b, x^c whose irreducibles nest,
    (x_i^{b_i}) containing (x_i^{c_i}): supp c a proper subset of supp b and
    c_i > b_i there, as x1*x2^5 and x1^2; plus up to three random generators."""
    for _ in range(60):
        n = rng.randint(2, 6)
        supp = rng.sample(range(n), rng.randint(2, n))
        b = [rng.randint(1, 5) if i in supp else 0 for i in range(n)]
        inner = set(rng.sample(supp, rng.randint(1, len(supp) - 1)))
        c = [b[i] + rng.randint(1, 3) if i in inner else 0 for i in range(n)]
        extra = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        yield MonomialIdeal.from_generators(PolyContext.default(n),
                                            [b, c] + [v for v in extra if any(v)])


def test_duality_intersections_match_the_fold():
    """star_dual and the primary components intersect irreducible ideals by
    one _components call on flipped vectors; each must equal the fold."""
    rng = random.Random(1811)
    inputs = itertools.chain(_seeded_decomposition_inputs(rng),
                             _nested_star_inputs(rng))
    seen = Counter()
    for I in inputs:
        if not I.is_proper_nonzero():
            continue
        pieces = _star_pieces(I)
        assert star_dual(I) == intersect_irreducibles_reference(pieces), I
        groups = {}
        for c in irreducible_decomposition(I):
            groups.setdefault(c.variables, []).append(c)
        want = [(vs, intersect_irreducibles_reference(cs))
                for vs, cs in sorted(groups.items())]
        assert [(c.radical_prime.variables, c.ideal)
                for c in primary_decomposition(I)] == want, I
        seen["exponent above 1"] += max(map(max, I.exponents)) > 1
        seen["principal"] += len(I.exponents) == 1
        seen["nested irreducibles"] += any(
            p is not q and powers_contain(p.powers, q.powers)
            for p in pieces for q in pieces)
        seen["single-component group"] += any(len(cs) == 1 for cs in groups.values())
        seen["multi-component group"] += any(len(cs) > 1 for cs in groups.values())
    assert len(seen) == 5 and min(seen.values()) >= 20, seen


def test_staircase_primary_decomposition_is_the_ideal():
    # one primary component of N irreducible ones, all with radical (x1, x2)
    I = _staircase(300)
    (comp,) = primary_decomposition(I)
    assert comp.ideal == I
    assert comp.radical_prime == MonomialPrime(I.context, (0, 1))
