"""Monomial and ideal arithmetic: worked values, laws, canonical form."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealkit import (
    ContextMismatchError,
    ExponentOverflowError,
    HypothesisError,
    IrreducibleIdeal,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    PolyContext,
    Variant,
    WeightedDigraph,
    alexander_dual,
    depth_reduction_step,
    integral_closure,
    localize,
    minimalize,
    polarize,
    star_dual,
    symbolic_powers,
)
from idealkit.core import MAX_EXPONENT, _minimal_vecs
from idealkit.formats import ideal_to_source

from oracles import (
    minimalize_reference,
    random_ideal,
    random_oriented_digraph,
    vectors_up_to_degree,
)


@pytest.fixture(scope="module")
def ctx():
    return PolyContext.default(3)


# ---------------------------------------------------------------------------
# divisibility, lcm, gcd

def test_divides(ctx):
    assert ctx.monomial("x1").divides(ctx.monomial("x1^2*x3"))
    assert not ctx.monomial("x2").divides(ctx.monomial("x1^2"))
    m = ctx.monomial("x1*x2^2")
    assert m.divides(m)


def test_lcm_gcd(ctx):
    a, b = ctx.monomial("x1^2*x3"), ctx.monomial("x1*x2")
    assert a.lcm(b) == ctx.monomial("x1^2*x2*x3")
    assert a.gcd(b) == ctx.monomial("x1")
    assert a.lcm(ctx.one()) == a


def test_monomial_division_and_power(ctx):
    m = ctx.monomial("x1^2*x3")
    assert m / ctx.monomial("x1") == ctx.monomial("x1*x3")
    with pytest.raises(ValueError):
        m / ctx.monomial("x2")
    assert ctx.monomial("x1*x2") ** 3 == ctx.monomial("x1^3*x2^3")


# ---------------------------------------------------------------------------
# minimalization and membership

def test_minimalize_prunes_multiples(ctx):
    I = ctx.ideal("x1^2", "x1^2*x2", "x2^3")
    assert I == ctx.ideal("x1^2", "x2^3")


def test_minimalize_dedups(ctx):
    assert ctx.ideal("x1*x2", "x1*x2") == ctx.ideal("x1*x2")


def test_fig1_generators_already_minimal(fig1_ideal):
    assert len(fig1_ideal.exponents) == 6


def test_minimal_vecs_matches_pairwise_definition():
    rng = random.Random(5150)
    big = MAX_EXPONENT
    entry_ranges = [
        lambda: rng.randint(0, 4),
        lambda: rng.randint(-5, 5),                         # negative entries
        lambda: rng.choice((0, 1, 2, big - 2, big - 1, big)),  # near the cap
        lambda: rng.randint(-(2**70), 2**70),
    ]
    for trial in range(400):
        n = rng.randint(1, 6)
        entry = entry_ranges[trial % len(entry_ranges)]
        pool = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(0, 25))]
        vecs = pool + [rng.choice(pool) for _ in pool if rng.random() < 0.3]
        rng.shuffle(vecs)
        assert _minimal_vecs(vecs) == minimalize_reference(vecs), vecs


def test_minimal_vecs_small_and_boundary_inputs():
    assert _minimal_vecs([]) == ()
    assert _minimal_vecs([(2, -1, 7)]) == ((2, -1, 7),)
    assert _minimal_vecs([(1, 1), (1, 1), (1, 1)]) == ((1, 1),)
    # the largest shifted entry is 3 = 2^(w-1) - 1 with w = 3: a field full
    # up to its top bit must still compare exactly
    vecs = [(3, 0), (0, 3), (2, 2), (3, 3), (1, 3)]
    assert _minimal_vecs(vecs) == ((0, 3), (2, 2), (3, 0))
    shifted = [(a + 7, b - 2) for a, b in vecs]
    assert _minimal_vecs(shifted) == ((7, 1), (9, 0), (10, -2))


def test_from_generators_rejects_bad_vectors():
    ctx2 = PolyContext.default(2)
    # the negative vector divides the other, so it is the one that survives
    # minimalization and reaches the constructor's check
    with pytest.raises(ValueError):
        MonomialIdeal.from_generators(ctx2, [(-1, 0), (0, 0)])
    # a short vector must not vanish as a "multiple" of a full-length one
    with pytest.raises(ValueError):
        MonomialIdeal.from_generators(ctx2, [(1, 2), (5,)])


def test_from_generators_entry_check_order():
    # lengths are checked on every generator before minimalizing; sign and
    # overflow only on the generators minimalization keeps
    ctx2 = PolyContext.default(2)
    big = 2**64
    assert MonomialIdeal.from_generators(ctx2, [(1, 0), (big, 0)]) == \
        MonomialIdeal(ctx2, ((1, 0),))
    for bad in ([(5,), (1, 0)], [(1, 0), (5,)], [(0, 1), (2, 3, 4)],
                [(1, 0), (big,)], [()]):
        with pytest.raises(ValueError):
            MonomialIdeal.from_generators(ctx2, bad)
    for bad in ([(0, -1)], [(3, -1), (0, 5)], [(1, 1), (-2, 4)]):
        with pytest.raises(ValueError):
            MonomialIdeal.from_generators(ctx2, bad)
    for bad in ([(big, 0)], [(0, 1), (MAX_EXPONENT + 1, 0)]):
        with pytest.raises(ExponentOverflowError):
            MonomialIdeal.from_generators(ctx2, bad)
    top = MonomialIdeal.from_generators(ctx2, [(MAX_EXPONENT, 0)])
    assert top.exponents == ((MAX_EXPONENT, 0),)
    with pytest.raises(ContextMismatchError):
        MonomialIdeal.from_generators(
            ctx2, [(1, 0), PolyContext(("y1", "y2")).monomial("y1")])
    once = (v for v in [(1, 1), (2, 0), (0, 3), (2, 2)])
    assert MonomialIdeal.from_generators(ctx2, once).exponents == \
        ((0, 3), (1, 1), (2, 0))
    # an outside weight reaches the same checks through the edge ideal
    with pytest.raises(ExponentOverflowError):
        WeightedDigraph.of([("a", 1), ("b", 2**63)], [("a", "b")]).edge_ideal()
    # direct construction applies the same order: a generator it would drop
    # makes the list non-canonical before its range is looked at
    with pytest.raises(ValueError):
        MonomialIdeal(ctx2, ((1, 0), (big, 0)))
    with pytest.raises(ExponentOverflowError):
        MonomialIdeal(ctx2, ((big, 0),))


def test_contains(ctx, ex2_10_ideal):
    I = ctx.ideal("x1^2", "x2^2")
    assert I.contains(ctx.monomial("x1^2*x3"))
    assert not I.contains(ctx.monomial("x1*x2"))
    c5 = ex2_10_ideal.context
    assert ex2_10_ideal.contains(c5.monomial("x1*x2^2*x3"))  # multiple of x2*x3


def test_contains_rejects_malformed_vectors(ctx):
    I = ctx.ideal("x1*x2", "x3")
    for bad in ((1,), (0, 0, 1, 5), (0, -1, 1), ()):
        with pytest.raises(ValueError):
            I.contains(bad)
    assert I.contains((0, 0, 1)) and not I.contains((1, 0, 0))


def test_sum_product_power(ctx):
    p = ctx.ideal("x1", "x2")
    assert p ** 2 == ctx.ideal("x1^2", "x1*x2", "x2^2")
    unit = ctx.ideal("1")
    I = ctx.ideal("x1*x2^2", "x3")
    assert I * unit == I
    with pytest.raises(ValueError):
        I ** 0


def test_intersect(ctx):
    assert ctx.ideal("x1") & ctx.ideal("x2") == ctx.ideal("x1*x2")
    got = ctx.ideal("x1", "x2") & ctx.ideal("x1", "x3^2") & ctx.ideal("x2^2", "x3^2")
    assert got == ctx.ideal("x1*x2^2", "x1*x3^2", "x2*x3^2")
    I = ctx.ideal("x1^2*x3", "x2")
    assert I & I == I


def test_colon(ctx):
    assert ctx.ideal("x1*x2^2").colon(ctx.monomial("x2^2")) == ctx.ideal("x1")
    assert ctx.ideal("x1*x2^2", "x3").colon(ctx.monomial("x1")) == ctx.ideal("x2^2", "x3")
    I = ctx.ideal("x1^2", "x2*x3")
    assert I.colon(ctx.one()) == I


def test_radical(ctx, fig1_ideal):
    assert ctx.ideal("x1^2*x3", "x2^3").radical() == ctx.ideal("x1*x3", "x2")
    r = fig1_ideal.radical()
    c5 = fig1_ideal.context
    assert r == c5.ideal("x1*x3", "x1*x2", "x2*x3", "x3*x4", "x4*x5", "x2*x5")
    assert r.radical() == r


# ---------------------------------------------------------------------------
# zero and unit ideals

def test_zero_and_unit_conventions(ctx):
    zero = MonomialIdeal(ctx, ())
    unit = ctx.ideal("1")
    I = ctx.ideal("x1*x2")
    assert zero.is_zero() and unit.is_unit()
    assert zero + I == I and zero * I == zero
    assert (unit & I) == I and (zero & I) == zero
    assert unit.contains(ctx.monomial("x3")) and not zero.contains(ctx.one())
    assert unit.radical() == unit and zero.radical() == zero


# ---------------------------------------------------------------------------
# error paths

def test_context_mismatch_rejected(ctx):
    other = PolyContext(("y1", "y2", "y3"))
    with pytest.raises(ContextMismatchError):
        ctx.monomial("x1").divides(other.monomial("y1"))
    with pytest.raises(ContextMismatchError):
        ctx.ideal("x1") + other.ideal("y1")


def test_exponent_overflow_detected(ctx):
    big = Monomial(ctx, (2**62, 0, 0))
    with pytest.raises(ExponentOverflowError):
        big * big
    with pytest.raises(ExponentOverflowError):
        Monomial(ctx, (2**63, 0, 0))
    x1, x2 = MonomialIdeal(ctx, ((2**62, 0, 0),)), MonomialIdeal(ctx, ((0, 2**62, 0),))
    assert x1 * x2 == MonomialIdeal(ctx, ((2**62, 2**62, 0),))
    with pytest.raises(ExponentOverflowError):
        x1 * x1
    with pytest.raises(ExponentOverflowError):
        x1 * big
    # the column maxima decide, even when the maxima sit in different
    # generators: 2^62 + (2^62 - 1) is the largest sum that fits
    I = MonomialIdeal.from_generators(ctx, [(2**62, 0, 0), (0, 1, 0)])
    J = MonomialIdeal.from_generators(ctx, [(2**62 - 1, 0, 0), (0, 0, 1)])
    assert max(v[0] for v in (I * J).exponents) == MAX_EXPONENT
    with pytest.raises(ExponentOverflowError):
        I * MonomialIdeal.from_generators(ctx, [(2**62, 0, 0), (0, 0, 1)])


def test_noncanonical_construction_rejected(ctx):
    with pytest.raises(ValueError):
        MonomialIdeal(ctx, ((1, 0, 0), (2, 0, 0)))


def test_prime_basics(ctx):
    p = MonomialPrime.of_names(ctx, ("x1", "x3"))
    assert p.height == 2
    assert p.as_ideal() == ctx.ideal("x1", "x3")
    with pytest.raises(ValueError):
        MonomialPrime(ctx, ())


# ---------------------------------------------------------------------------
# exhaustive membership laws on small contexts

def test_intersection_membership_agreement():
    rng = random.Random(20331)
    ctx = PolyContext.default(3)
    monos = vectors_up_to_degree(3, 6)
    for _ in range(20):
        I = random_ideal(rng, n=3, max_exp=3, max_gens=3)
        J = random_ideal(rng, n=3, max_exp=3, max_gens=3)
        K = I & J
        for v in monos:
            assert K.contains(v) == (I.contains(v) and J.contains(v))


def test_colon_membership_agreement():
    rng = random.Random(4177)
    ctx = PolyContext.default(3)
    monos = vectors_up_to_degree(3, 5)
    for _ in range(15):
        I = random_ideal(rng, n=3, max_exp=3, max_gens=3)
        m = Monomial(ctx, tuple(rng.randint(0, 2) for _ in range(3)))
        C = I.colon(m)
        for v in monos:
            prod = tuple(a + b for a, b in zip(v, m.exponents))
            assert C.contains(v) == I.contains(prod)


def test_power_consistency():
    rng = random.Random(98)
    for _ in range(10):
        I = random_ideal(rng, n=3, max_exp=2, max_gens=3)
        acc = I
        for k in range(2, 5):
            acc = acc * I
            assert acc == I ** k


def _pairwise(op, I, J):
    return minimalize_reference([tuple(map(op, a, b))
                                 for a in I.exponents for b in J.exponents])


def test_packed_products_and_intersections_match_pairwise_reference():
    # sums and lcms built pair by pair, then minimalized by the definition;
    # fields of very different widths share one packed word
    rng = random.Random(4242)
    near = 2**62

    def entry(wide):
        if wide and rng.random() < 0.5:
            return near - rng.randint(0, 3)
        return rng.randint(0, 4)

    def operand(ctx, wide):
        kind = rng.random()
        if kind < 0.1:
            return MonomialIdeal(ctx, ())
        if kind < 0.2:
            return MonomialIdeal(ctx, ((0,) * ctx.n,))
        gens = [tuple(entry(i in wide) for i in range(ctx.n))
                for _ in range(rng.randint(1, 12))]
        return MonomialIdeal.from_generators(ctx, gens)

    for trial in range(300):
        n = trial % 6 + 1
        ctx = PolyContext.default(n)
        wide = {i for i in range(n) if trial % 3 == 2 and rng.random() < 0.5}
        I, J = operand(ctx, wide), operand(ctx, wide)
        assert (I & J).exponents == _pairwise(max, I, J), (I, J)
        sums = [tuple(map(sum, zip(a, b))) for a in I.exponents for b in J.exponents]
        if any(x > MAX_EXPONENT for v in sums for x in v):
            with pytest.raises(ExponentOverflowError):
                I * J
            continue
        assert (I * J).exponents == minimalize_reference(sums), (I, J)
        if J.exponents:
            m = Monomial(ctx, J.exponents[0])
            assert (I * m).exponents == minimalize_reference(
                [tuple(map(sum, zip(a, m.exponents))) for a in I.exponents])


def test_intersections_of_related_operands_match_pairwise_reference():
    # operands where each side holds many words of the other or lies inside
    # it, so that words are kept without an lcm, next to the pairs that
    # need one: nested, equal, sharing most generators, zero and unit
    rng = random.Random(2323)
    for trial in range(200):
        n = trial % 5 + 1
        ctx = PolyContext.default(n)
        I = random_ideal(rng, n=n, max_exp=4, max_gens=8)
        extra = random_ideal(rng, n=n, max_exp=4, max_gens=3)
        m = Monomial(ctx, tuple(rng.randint(0, 2) for _ in range(n)))
        most = rng.sample(I.exponents, max(1, len(I.exponents) - 1))
        shared = MonomialIdeal.from_generators(ctx, most + list(extra.exponents))
        zero, unit = MonomialIdeal(ctx, ()), MonomialIdeal(ctx, ((0,) * n,))
        for J in (I + extra, I * m, I, shared, zero, unit):
            for X, Y in ((I, J), (J, I)):
                assert (X & Y).exponents == _pairwise(max, X, Y), (X, Y)


def _assert_canonical(J):
    again = MonomialIdeal(J.context, J.exponents)
    assert again == J and hash(again) == hash(J) and repr(again) == repr(J)
    assert type(J.exponents) is tuple
    assert all(type(v) is tuple and all(type(e) is int for e in v)
               for v in J.exponents)


def test_library_ideals_are_canonical_by_construction():
    # results skip the constructor's re-check, so each one must pass it
    rng = random.Random(1406)
    ctx = PolyContext.default(4)
    near = 2**61
    zero, unit = MonomialIdeal(ctx, ()), MonomialIdeal(ctx, ((0,) * 4,))

    def wide_ideal():
        gens = [tuple(near - rng.randint(0, 2) if rng.random() < 0.3
                      else rng.randint(0, 3) for _ in range(4))
                for _ in range(rng.randint(1, 5))]
        return MonomialIdeal.from_generators(ctx, gens)

    small = [random_ideal(rng, n=4, max_exp=3, max_gens=4) for _ in range(12)]
    # top x1-degree 5 and next one 1..3, so depth_reduction_step applies
    small += [MonomialIdeal.from_generators(ctx, [
        (5, 0, rng.randint(0, 2), 0), (rng.randint(1, 3), 1, 0, rng.randint(0, 2))])
        for _ in range(4)]
    reduced = 0
    pool = small + [wide_ideal() for _ in range(8)] + [zero, unit]
    for _ in range(60):
        I, J = rng.choice(pool), rng.choice(pool)
        m = Monomial(ctx, tuple(rng.randint(0, 3) for _ in range(4)))
        p = MonomialPrime(ctx, rng.sample(range(4), rng.randint(1, 4)))
        for K in (I + J, I * J, I * m, I ** rng.randint(1, 3), I & J,
                  I.colon(m), I.radical(), localize(I, p), p.as_ideal()):
            _assert_canonical(K)
    for I in small:
        if not I.is_proper_nonzero():
            continue
        _assert_canonical(alexander_dual(I))
        _assert_canonical(star_dual(I))
        _assert_canonical(integral_closure(I))
        _assert_canonical(polarize(I)[0])
        for i in range(4):
            try:
                _assert_canonical(depth_reduction_step(I, i))
                reduced += 1
            except HypothesisError:
                pass
        powers = tuple((i, rng.randint(1, 4)) for i in rng.sample(range(4), 2))
        _assert_canonical(IrreducibleIdeal(ctx, powers).as_ideal())
        for variant in Variant:
            for _, ordinary, symbolic in symbolic_powers(I, range(1, 4), variant):
                _assert_canonical(ordinary)
                _assert_canonical(symbolic)
    for _ in range(20):
        _assert_canonical(random_oriented_digraph(rng).edge_ideal())
    assert reduced >= 4


def test_canonical_serialization_is_deterministic():
    rng = random.Random(7)
    for _ in range(10):
        I = random_ideal(rng)
        assert ideal_to_source(I) == ideal_to_source(MonomialIdeal(I.context, I.exponents))
        assert json.dumps(I.exponents) == json.dumps(I.exponents)


# ---------------------------------------------------------------------------
# algebraic laws via hypothesis

_vec = st.tuples(*(st.integers(min_value=0, max_value=6) for _ in range(3)))


@settings(max_examples=60, deadline=None)
@given(_vec, _vec)
def test_lcm_gcd_product_law(a, b):
    ctx = PolyContext.default(3)
    ma, mb = Monomial(ctx, a), Monomial(ctx, b)
    assert ma.lcm(mb) * ma.gcd(mb) == ma * mb
    assert ma.gcd(mb).divides(ma) and ma.divides(ma.lcm(mb))


@settings(max_examples=40, deadline=None)
@given(st.lists(_vec, min_size=1, max_size=6))
def test_minimalize_idempotent_and_generating(vecs):
    ctx = PolyContext.default(3)
    I = MonomialIdeal.from_generators(ctx, vecs)
    assert MonomialIdeal.from_generators(ctx, I.exponents) == I
    for v in vecs:
        assert I.contains(v)
